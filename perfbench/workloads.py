"""The four benchmark workloads: seeded inputs and the ops that use them.

A workload is a fixed schedule of ops, one *round*; round r draws the r-th
set of seeded inputs.  An untraced run times the same ``rounds_per_pass``
rounds over and over (see run.py), so every run has the same mix of op
kinds and the latency percentiles land in the same place of that mix; a
traced run walks through fresh rounds.  An op is one call into the
public API of ``torusfill`` (the library only ever sees the generated
inputs), paired with an independent check of its output and a canonical
text form for the result digest.
"""

from __future__ import annotations

import importlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

import numpy as np

import checks

GOLDEN = (1.0, (1.0 + math.sqrt(5.0)) / 2.0)
CUBIC = (1.0, 2.0 ** (1.0 / 3.0), 4.0 ** (1.0 / 3.0))

# Rounds of seeded inputs drawn in set-up; a traced run that outlasts them
# cycles through them again (the library keeps no cache that could notice).
POOL_ROUNDS = 64


@dataclass(frozen=True)
class Op:
    """One timed library call with its check and canonical output form."""

    kind: str
    call: Callable[[], Any]
    verify: Callable[[Any], "str | None"]
    canon: Callable[[Any], str]


@dataclass(frozen=True)
class Outcome:
    result: Any
    seconds: float
    error: "str | None"


def execute(op: Op) -> Outcome:
    """Run one op; an exception or a failed check is a counted failure."""
    t0 = perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # noqa: BLE001 - every failure is counted, not raised
        return Outcome(None, perf_counter() - t0, f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - t0
    try:
        error = op.verify(result)
    except Exception as exc:  # noqa: BLE001 - a malformed output fails its check
        error = f"check raised {type(exc).__name__}: {exc}"
    return Outcome(result, seconds, error)


def seeded_rng(seed: int) -> np.random.Generator:
    """The generator for a workload's inputs; any integer seed is accepted."""
    return np.random.default_rng(seed % 2**63)


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _floats(xs) -> str:
    return ",".join(repr(float(x)) for x in xs)


@dataclass
class Setup:
    """Seeded inputs, plus canonical lines and check errors of set-up work."""

    inputs: dict
    canon: list
    errors: list


class Screen:
    name = "screen"
    # Eight n=3 bases and two n=4 membership checks per round.  Ten ops put
    # the median on the n=3 bases, whichever way their membership goes, and
    # the tail (the maximum, with ten ops) on the slower n=4 check.
    N3_PER_ROUND = 8
    N4_PER_ROUND = 2
    rounds_per_pass = 1

    def setup(self, tf, seed):
        rng = seeded_rng(seed)
        p3 = tf.DioParams(dim=3, tau=2.0, gamma=0.02, cutoff=tf.critical_cutoff(3, 0.2))
        p4 = tf.DioParams(dim=4, tau=3.0, gamma=0.002, cutoff=60.0)
        d3 = [unit(v) for v in rng.standard_normal((POOL_ROUNDS * self.N3_PER_ROUND, 3))]
        d4 = [unit(v) for v in rng.standard_normal((POOL_ROUNDS * self.N4_PER_ROUND, 4))]
        return Setup({"p3": p3, "p4": p4, "d3": d3, "d4": d4}, [], [])

    def round(self, tf, inputs, r):
        d3, d4 = inputs["d3"], inputs["d4"]
        ops = [
            self._basis_op(tf, d3[(r * self.N3_PER_ROUND + i) % len(d3)], inputs["p3"])
            for i in range(self.N3_PER_ROUND)
        ]
        ops.extend(
            self._check_op(tf, d4[(r * self.N4_PER_ROUND + i) % len(d4)], inputs["p4"])
            for i in range(self.N4_PER_ROUND)
        )
        return ops

    @staticmethod
    def _verify_witness(alpha, p, w):
        return checks.witness(alpha, p.tau, p.gamma, p.cutoff, w.k, w.inner, w.threshold)

    def _basis_op(self, tf, alpha, p):
        def call():
            try:
                return tf.adapted_basis(alpha, p)
            except tf.DiophantineRejection as rej:
                return rej.witness

        def verify(res):
            if isinstance(res, tf.ViolationWitness):
                return self._verify_witness(alpha, p, res)
            return checks.basis(alpha, p.tau, p.gamma, p.cutoff, res.integer_basis.columns,
                                res.integer_basis.determinant, res.multipliers)

        def canon(res):
            if isinstance(res, tf.ViolationWitness):
                return f"reject {res.k} {res.inner!r} {res.threshold!r}"
            b = res.integer_basis
            return f"basis {b.columns} {b.determinant} {_floats(res.multipliers)}"

        return Op("basis_n3", call, verify, canon)

    def _check_op(self, tf, alpha, p):
        def verify(res):
            return None if res is None else self._verify_witness(alpha, p, res)

        def canon(res):
            return "pass" if res is None else f"reject {res.k} {res.inner!r} {res.threshold!r}"

        return Op("check_n4", lambda: tf.check_truncated(alpha, p), verify, canon)


class Certify:
    name = "certify"
    # Two n=2 targets per n=3 target, so the median op is an n=2 hit
    # rather than the boundary between the two bases' latencies.  A short
    # pass of 3000 hits gives each of them dozens of tries over the run.
    rounds_per_pass = 1000
    POOL = 4096

    def setup(self, tf, seed):
        rng = seeded_rng(seed)
        cases = (
            (unit(GOLDEN), tf.DioParams(dim=2, tau=1.0, gamma=0.4, cutoff=90.0), 0.1),
            (unit(CUBIC), tf.DioParams(dim=3, tau=2.0, gamma=0.05, cutoff=275.0), 0.2),
        )
        bases, canon, errors = [], [], []
        for alpha, p, delta in cases:
            b = tf.adapted_basis(alpha, p)
            bases.append((b, delta))
            ib = b.integer_basis
            canon.append(f"basis {ib.columns} {ib.determinant} {_floats(b.multipliers)}")
            err = checks.basis(alpha, p.tau, p.gamma, p.cutoff, ib.columns, ib.determinant,
                               b.multipliers)
            if err:
                errors.append(f"setup basis n={p.dim}: {err}")
        thetas = [rng.random((self.POOL, 2)), rng.random((self.POOL, 3))]
        return Setup({"bases": bases, "thetas": thetas}, canon, errors)

    def round(self, tf, inputs, r):
        (b2, d2), (b3, d3) = inputs["bases"]
        t2, t3 = inputs["thetas"]
        return [
            self._hit_op(tf, b2, t2[(2 * r) % self.POOL], d2),
            self._hit_op(tf, b2, t2[(2 * r + 1) % self.POOL], d2),
            self._hit_op(tf, b3, t3[r % self.POOL], d3),
        ]

    @staticmethod
    def _hit_op(tf, b, theta, delta):
        def verify(c):
            p = b.params
            return checks.certificate(b.alpha, p.tau, p.gamma, b.multipliers, theta, delta,
                                      c.time, c.coords, c.endpoint_distance)

        def canon(c):
            return f"{c.time!r} {_floats(c.coords)} {c.endpoint_distance!r}"

        return Op(f"hit_n{b.params.dim}", lambda: tf.hitting_time(b, theta, delta), verify, canon)


class Simulate:
    name = "simulate"
    # The resonant calibration suite plus one seeded run per dimension, so
    # the median op is a resonant run, whose inputs no seed changes; the
    # seeded runs use fixed directions so their cost hardly depends on the
    # seed either (only theta0 and the probe points are drawn).
    QS = (1, 2, 3, 4, 5)
    SEEDED = (  # (direction, delta, dt, max_time)
        (GOLDEN, 0.1, 0.01, 50.0),
        (CUBIC, 0.2, 0.02, 100.0),
    )
    rounds_per_pass = 1

    def setup(self, tf, seed):
        rng = seeded_rng(seed)
        demos = [tf.resonant_demo_parameters(q) for q in self.QS]
        starts = [rng.random((POOL_ROUNDS, len(d))) for d, *_ in self.SEEDED]
        probes = [rng.random((checks.DENSITY_PROBES, len(d))) for d, *_ in self.SEEDED]
        return Setup({"demos": demos, "starts": starts, "probes": probes}, [], [])

    def round(self, tf, inputs, r):
        ops = [self._resonant_op(tf, q, demo) for q, demo in zip(self.QS, inputs["demos"])]
        for (direction, delta, dt, max_time), starts, probes in zip(
            self.SEEDED, inputs["starts"], inputs["probes"]
        ):
            ops.append(self._seeded_op(tf, unit(direction), starts[r % len(starts)], delta, dt,
                                       max_time, probes))
        return ops

    @staticmethod
    def _canon(res):
        return f"{res.fill_time!r} {res.uncovered_cells} {res.grid_side!r} {res.time_step!r}"

    def _resonant_op(self, tf, q, demo):
        def call():
            return tf.empirical_fill_time(demo["alpha"], np.zeros(2), demo["delta_test"],
                                          demo["dt"], demo["max_time"],
                                          grid_side=demo["grid_side"])

        def verify(res):
            return checks.resonant_fill(res.fill_time, demo["expected_time"], demo["tolerance"])

        return Op(f"resonant_q{q}", call, verify, self._canon)

    def _seeded_op(self, tf, alpha, theta0, delta, dt, max_time, probes):
        def verify(res):
            return checks.fill(alpha, theta0, delta, dt, max_time, res.fill_time,
                               res.uncovered_cells, probes)

        return Op(
            f"fill_n{alpha.size}",
            lambda: tf.empirical_fill_time(alpha, theta0, delta, dt, max_time),
            verify,
            self._canon,
        )


class CliExit(RuntimeError):
    """The CLI exited with a usage error (2) or an exhausted budget (3)."""


def cli_op(tf, kind, argv, verify_report=lambda report: None) -> Op:
    """An in-process ``torusfill.cli.run_command`` call with captured output.

    Reports are JSON at full precision, so the digest covers every digit and
    the checks read exact floats back.  Exit 1 (a mathematical failure)
    returns its report for the check to judge; exits 2 and 3 raise.
    """
    cli = importlib.import_module(tf.__name__ + ".cli")
    full = list(argv) + ["--format", "json", "--precision", "17"]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run_command(full)
        if code not in (0, 1):
            raise CliExit(f"exit {code}: {err.getvalue().strip()}")
        return code, out.getvalue()

    def verify(res):
        code, out = res
        if code != 0:
            return f"exit {code}: {out.strip()}"
        return verify_report(json.loads(out))

    return Op(kind, call, verify, lambda res: f"{res[0]} {res[1]}")


class Survey:
    name = "survey"
    # One body per (dimension, family) below, each with a seeded axis and a
    # seeded axial-to-radial ratio, log-uniform in 10^0..10^10.  Ten ops a
    # round put the median on the two resonance searches and the tail (the
    # maximum, with ten ops) on the n=2 best_gamma scan; both have costs no
    # seed moves much, unlike the duality checks.
    DUALITY = ((2, "cylinder"), (3, "diamond"), (4, "cylinder"), (4, "diamond"))
    MAX_LOG_RATIO = 10.0
    MEASURE = (  # (n, tau, gamma, N, samples)
        (2, 2.0, 0.02, 20.0, 50000),
        (3, 2.0, 0.05, 8.0, 20000),
    )
    MAX_ORDER = 60.0
    # The resonant direction is a primitive integer vector v of this squared
    # norm range: its resonances form a plane lattice of covolume ||v||, so
    # every seed lists a similar number of them (about 190 up to order 60).
    RESONANT_NORM_SQ = (300, 400)
    GENERIC_TOL = 1e-3
    rounds_per_pass = 1

    def setup(self, tf, seed):
        importlib.import_module(tf.__name__ + ".cli")
        rng = seeded_rng(seed)
        pool = []
        for _ in range(POOL_ROUNDS):
            while True:
                v = tuple(int(x) for x in rng.integers(-20, 21, size=3))
                lo, hi = self.RESONANT_NORM_SQ
                if math.gcd(*v) == 1 and lo <= sum(x * x for x in v) <= hi:
                    break
            generic = unit(rng.standard_normal(3))
            seeds = [int(s) for s in rng.integers(0, 2**31, size=len(self.MEASURE))]
            bodies = []
            for n, family in self.DUALITY:
                radial = 10.0 ** rng.uniform(-1.0, 0.5)
                axial = radial * 10.0 ** rng.uniform(0.0, self.MAX_LOG_RATIO)
                bodies.append((unit(rng.standard_normal(n)), axial, radial, family))
            pool.append({"resonant": v, "generic": generic, "seeds": seeds, "bodies": bodies})
        return Setup({"pool": pool}, [], [])

    def round(self, tf, inputs, r):
        draw = inputs["pool"][r % len(inputs["pool"])]
        ops = [
            self._gamma_op(tf, GOLDEN, 1.0, 2000.0),
            self._gamma_op(tf, CUBIC, 2.0, 100.0),
            self._resonance_op(tf, draw["resonant"], 0.0, _orthogonal(draw["resonant"])),
            self._resonance_op(tf, draw["generic"], self.GENERIC_TOL, []),
        ]
        for (n, tau, gamma, cutoff, samples), seed in zip(self.MEASURE, draw["seeds"]):
            ops.append(self._measure_op(tf, n, tau, gamma, cutoff, samples, seed))
        ops.extend(self._duality_op(tf, *body) for body in draw["bodies"])
        return ops

    @staticmethod
    def _gamma_op(tf, direction, tau, cutoff):
        def verify(rep):
            res, par = rep["result"], rep["params"]
            return checks.gamma_report(par["alpha"], tau, cutoff, res["gamma_max"], res["argmin_k"])

        argv = ["gamma", f"--alpha={_floats(direction)}", "--normalize",
                "--tau", repr(tau), "--N", repr(cutoff)]
        return cli_op(tf, f"gamma_n{len(direction)}", argv, verify)

    def _resonance_op(self, tf, direction, tol, expected):
        def verify(rep):
            res = rep["result"]
            return checks.resonances(rep["params"]["alpha"], self.MAX_ORDER, tol,
                                     res["resonances"], res["count"], expected)

        argv = ["resonances", f"--alpha={_floats(direction)}", "--normalize",
                "--max-order", repr(self.MAX_ORDER), "--tol", repr(tol)]
        kind = "resonances_resonant" if expected else "resonances_generic"
        return cli_op(tf, kind, argv, verify)

    @staticmethod
    def _measure_op(tf, n, tau, gamma, cutoff, samples, seed):
        def verify(rep):
            res = rep["result"]
            return checks.measure(samples, res["fraction"], res["stderr"])

        argv = ["measure", "--n", str(n), "--tau", repr(tau), "--gamma", repr(gamma),
                "--N", repr(cutoff), "--samples", str(samples), "--seed", str(seed)]
        return cli_op(tf, f"measure_n{n}", argv, verify)

    @staticmethod
    def _duality_op(tf, axis, axial, radial, family):
        def verify(rep):
            res = rep["result"]
            return checks.duality(axis.size, res["products"], res["within_bounds"])

        argv = ["duality", f"--axis={_floats(axis)}", "--normalize", "--axial", repr(axial),
                "--radial", repr(radial), "--family", family]
        return cli_op(tf, f"duality_n{axis.size}", argv, verify)


def _orthogonal(v):
    """Primitive sign-canonical integer vectors orthogonal to v, one per
    pair of axes: resonances every correct search must report."""
    out = []
    n = len(v)
    for i in range(n):
        for j in range(i + 1, n):
            k = [0] * n
            k[i], k[j] = v[j], -v[i]
            g = math.gcd(*k)
            if g == 0:
                continue
            k = tuple(x // g for x in k)
            if next(x for x in k if x != 0) < 0:
                k = tuple(-x for x in k)
            out.append(k)
    return out


WORKLOADS = {w.name: w for w in (Screen(), Certify(), Simulate(), Survey())}
