"""Command-line interface.

Exit codes: 0 success (and checks that pass), 1 mathematical failure (a
violation witness, an out-of-range duality product, a fill that did not
complete), 2 usage error, 3 resource budget exceeded.  Reports render as
plain text, JSON (stable byte-for-byte for fixed inputs and seed), or CSV
for tabular sweeps.  A vector entry that is not a number, or a fraction
with a zero denominator or beyond the double range, is a usage error.
``--budget`` (default: the TORUSFILL_BUDGET environment variable when set)
bounds the candidates of the whole command, over all of its stages.

Each subparser carries its handler; a handler takes the parsed namespace
and returns (params, result, exit code).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .diophantine import (
    DioParams,
    best_gamma,
    check_truncated,
    complement_measure_estimate,
    normalize,
    resonance_search,
)
from .filling import (
    DiophantineRejection,
    adapted_basis,
    bound_constant,
    critical_cutoff,
    filling_time_bound,
    hitting_time,
)
from .lattice import (
    DEFAULT_BUDGET,
    CylinderBody,
    DiamondBody,
    InternalInvariantError,
    ResourceLimitError,
    duality_check,
)
from .simulator import (
    empirical_fill_time,
    resonant_demo_parameters,
)

__all__ = ["run_command", "main"]

_ENV_BUDGET = "TORUSFILL_BUDGET"


def _parse_vector(text: str) -> np.ndarray:
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    if len(parts) < 2:
        raise ValueError("vectors need at least two comma-separated entries")
    vals = []
    for p in parts:
        try:
            vals.append(float(Fraction(p)) if "/" in p else float(p))
        except (ZeroDivisionError, OverflowError):
            raise ValueError(f"vector entry {p} has no finite double value") from None
    return np.array(vals)


def _alpha_from(ns) -> np.ndarray:
    vec = _parse_vector(ns.alpha)
    return normalize(vec) if ns.normalize else vec


def _round(x: float, precision: int) -> float:
    if not math.isfinite(x):
        return x
    return float(f"{x:.{precision}g}")


def _ready(obj, precision: int):
    """Make a report value JSON-serializable with stable float rounding."""
    if isinstance(obj, dict):
        return {k: _ready(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_ready(v, precision) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_ready(v, precision) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round(float(obj), precision)
    return obj


def _flat_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, list):
        return "[" + ", ".join(_flat_text(v) for v in value) + "]"
    if value is None:
        return "none"
    return str(value)


def _is_table(value) -> bool:
    """Whether a report value is a list of rows (dicts) to print as a table."""
    return isinstance(value, list) and bool(value) and isinstance(value[0], dict)


def _render(ns, params: dict, result: dict) -> str:
    params = _ready(params, ns.precision)
    result = _ready(result, ns.precision)
    if ns.format == "json":
        report = {
            "command": ns.command,
            "params": params,
            "result": result,
            "diagnostics": {"budget": ns.budget, "seed": ns.seed},
            "version": __version__,
        }
        return json.dumps(report, sort_keys=True)
    if ns.format == "csv":
        rows = result.get("runs")
        if _is_table(rows):
            keys = list(rows[0].keys())
            lines = [",".join(keys)]
            for row in rows:
                lines.append(",".join(_flat_text(row.get(k)) for k in keys))
            return "\n".join(lines)
        lines = ["key,value"]
        for k, v in result.items():
            lines.append(f"{k},{_flat_text(v)}")
        return "\n".join(lines)
    # plain: a bare value for single scalar results, key: value lines otherwise
    lines = []
    for k, v in result.items():
        if _is_table(v):
            lines.append(f"{k}:")
            for row in v:
                inner = ", ".join(f"{kk}={_flat_text(vv)}" for kk, vv in row.items())
                lines.append(f"  {inner}")
        elif len(result) == 1:
            return _flat_text(v)
        else:
            lines.append(f"{k}: {_flat_text(v)}")
    return "\n".join(lines)


def _cmd_check(ns):
    alpha = _alpha_from(ns)
    params = DioParams(dim=alpha.size, tau=ns.tau, gamma=ns.gamma, cutoff=ns.N)
    witness = check_truncated(alpha, params, budget=ns.budget)
    p = {
        "alpha": alpha,
        "tau": ns.tau,
        "gamma": ns.gamma,
        "N": ns.N,
    }
    if witness is None:
        return p, {"status": "pass"}, 0
    return (
        p,
        {
            "status": "violation",
            "k": list(witness.k),
            "inner": witness.inner,
            "threshold": witness.threshold,
        },
        1,
    )


def _cmd_gamma(ns):
    alpha = _alpha_from(ns)
    value, argmin = best_gamma(alpha, ns.tau, ns.N, budget=ns.budget)
    p = {"alpha": alpha, "tau": ns.tau, "N": ns.N}
    return p, {"gamma_max": value, "argmin_k": list(argmin)}, 0


def _cmd_resonances(ns):
    alpha = _alpha_from(ns)
    reports = resonance_search(
        alpha, ns.max_order, ns.tol, budget=ns.budget
    )
    p = {"alpha": alpha, "max_order": ns.max_order, "tol": ns.tol}
    return (
        p,
        {
            "count": len(reports),
            "resonances": [
                {"k": list(r.k), "order": r.order, "residual": r.residual}
                for r in reports
            ],
        },
        0,
    )


def _cmd_cutoff(ns):
    value = critical_cutoff(ns.n, ns.delta)
    return {"n": ns.n, "delta": ns.delta}, {"cutoff": value}, 0


def _cmd_bound(ns):
    constant = bound_constant(ns.n, ns.tau)
    result = {"constant": constant}
    p = {"n": ns.n, "tau": ns.tau}
    if ns.gamma is not None and ns.delta is not None:
        result["time_bound"] = filling_time_bound(ns.n, ns.tau, ns.gamma, ns.delta)
        p.update({"gamma": ns.gamma, "delta": ns.delta})
    return p, result, 0


def _cmd_basis(ns):
    alpha = _alpha_from(ns)
    params = DioParams(dim=alpha.size, tau=ns.tau, gamma=ns.gamma, cutoff=ns.N)
    basis = adapted_basis(alpha, params, budget=ns.budget)
    p = {"alpha": alpha, "tau": ns.tau, "gamma": ns.gamma, "N": ns.N}
    result = {
        "multipliers": basis.multipliers,
        "directions": basis.directions,
        "integer_basis": [list(c) for c in basis.integer_basis.columns],
        "determinant": basis.integer_basis.determinant,
        "minima": list(basis.minima.lambdas),
    }
    return p, result, 0


def _cmd_hit(ns):
    alpha = _alpha_from(ns)
    cutoff = ns.N if ns.N is not None else critical_cutoff(alpha.size, ns.delta)
    params = DioParams(dim=alpha.size, tau=ns.tau, gamma=ns.gamma, cutoff=cutoff)
    basis = adapted_basis(alpha, params, budget=ns.budget)
    theta = _parse_vector(ns.theta)
    cert = hitting_time(basis, theta, ns.delta)
    p = {
        "alpha": alpha,
        "tau": ns.tau,
        "gamma": ns.gamma,
        "N": cutoff,
        "theta": theta,
        "delta": ns.delta,
    }
    result = {
        "time": cert.time,
        "endpoint_distance": cert.endpoint_distance,
        "coords": list(cert.coords),
        "bound": cert.bound,
        "within_delta": cert.endpoint_distance < ns.delta,
    }
    return p, result, 0 if cert.endpoint_distance < ns.delta else 1


def _cmd_fill(ns):
    alpha = _alpha_from(ns)
    theta0 = (
        _parse_vector(ns.theta0)
        if ns.theta0 is not None
        else np.zeros(alpha.size)
    )
    deltas = [float(d) for d in ns.delta.split(",") if d.strip()]
    if not deltas:
        raise ValueError("--delta needs at least one value")
    runs = []
    all_filled = True
    for delta in deltas:
        dt = ns.dt if ns.dt is not None else delta / 10.0
        res = empirical_fill_time(
            alpha,
            theta0,
            delta,
            dt,
            ns.max_time,
            grid_side=ns.grid_side,
        )
        runs.append(
            {
                "delta": delta,
                "dt": res.time_step,
                "fill_time": res.fill_time,
                "uncovered_cells": res.uncovered_cells,
                "filled": res.fill_time is not None,
            }
        )
        all_filled = all_filled and res.fill_time is not None
    p = {
        "alpha": alpha,
        "theta0": theta0,
        "delta": deltas,
        "max_time": ns.max_time,
    }
    return p, {"runs": runs}, 0 if all_filled else 1


def _cmd_duality(ns):
    axis = _parse_vector(ns.axis)
    if ns.normalize:
        axis = normalize(axis)
    family = CylinderBody if ns.family == "cylinder" else DiamondBody
    body = family(axis, ns.axial, ns.radial)
    products = duality_check(body, budget=ns.budget)
    n = body.dim
    ok = bool(
        np.all(products >= 1.0 - 1e-9)
        and np.all(products <= math.factorial(n) + 1e-9)
    )
    p = {
        "axis": axis,
        "axial": ns.axial,
        "radial": ns.radial,
        "family": ns.family,
    }
    return (
        p,
        {"products": products, "lower": 1.0, "upper": float(math.factorial(n)), "within_bounds": ok},
        0 if ok else 1,
    )


def _cmd_measure(ns):
    params = DioParams(dim=ns.n, tau=ns.tau, gamma=ns.gamma, cutoff=ns.N)
    fraction, stderr = complement_measure_estimate(
        params, ns.samples, ns.seed, budget=ns.budget
    )
    p = {
        "n": ns.n,
        "tau": ns.tau,
        "gamma": ns.gamma,
        "N": ns.N,
        "samples": ns.samples,
        "seed": ns.seed,
    }
    return p, {"fraction": fraction, "stderr": stderr}, 0


def _cmd_demo_resonant(ns):
    qs = [int(s) for s in str(ns.q).split(",") if s.strip()]
    runs = []
    all_ok = True
    for q in qs:
        demo = resonant_demo_parameters(q)
        row = {
            "q": q,
            "expected_time": demo["expected_time"],
            "delta_reference": demo["delta_reference"],
            "dt": demo["dt"],
            "tolerance": demo["tolerance"],
        }
        if ns.simulate:
            res = empirical_fill_time(
                demo["alpha"],
                np.zeros(2),
                demo["delta_test"],
                demo["dt"],
                demo["max_time"],
                grid_side=demo["grid_side"],
            )
            row["measured_time"] = res.fill_time
            row["within_tolerance"] = (
                res.fill_time is not None
                and abs(res.fill_time - demo["expected_time"]) <= demo["tolerance"]
            )
            all_ok = all_ok and bool(row["within_tolerance"])
        runs.append(row)
    p = {"q": qs, "simulate": bool(ns.simulate)}
    return p, {"runs": runs}, 0 if all_ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later calls."""
    # The report options are accepted both before and after the subcommand;
    # SUPPRESS keeps the subparser from clobbering a value given up front.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", dest="format", default=argparse.SUPPRESS,
                        choices=["plain", "json", "csv"])
    common.add_argument("--precision", type=int, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="torusfill",
        description="Filling times for linear flow on the torus under "
        "truncated Diophantine conditions.",
        parents=[common],
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_command(name, run, summary):
        sp = subparsers.add_parser(name, parents=[common], help=summary)
        sp.set_defaults(run=run)
        return sp

    def add_alpha(sp):
        sp.add_argument("--alpha", required=True,
                        help="comma-separated entries; fractions like 3/5 allowed")
        sp.add_argument("--normalize", action="store_true",
                        help="normalize the vector instead of requiring unit input")

    sp = add_command("check", _cmd_check, "decide truncated Diophantine membership")
    add_alpha(sp)
    sp.add_argument("--tau", type=float, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--N", type=float, required=True)

    sp = add_command("gamma", _cmd_gamma, "largest admissible gamma for a direction")
    add_alpha(sp)
    sp.add_argument("--tau", type=float, required=True)
    sp.add_argument("--N", type=float, required=True)

    sp = add_command("resonances", _cmd_resonances,
                     "primitive near-orthogonal integer vectors")
    add_alpha(sp)
    sp.add_argument("--max-order", dest="max_order", type=float, required=True)
    sp.add_argument("--tol", type=float, default=0.0)

    sp = add_command("cutoff", _cmd_cutoff, "critical cutoff (1 + n^2 n!)/delta")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--delta", type=float, required=True)

    sp = add_command("bound", _cmd_bound, "bound constant and filling-time bound")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--tau", type=float, required=True)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--delta", type=float, default=None)

    sp = add_command("basis", _cmd_basis, "direction-adapted unimodular basis")
    add_alpha(sp)
    sp.add_argument("--tau", type=float, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--N", type=float, required=True)

    sp = add_command("hit", _cmd_hit, "orbit time reaching a delta-ball around theta")
    add_alpha(sp)
    sp.add_argument("--tau", type=float, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--N", type=float, default=None,
                    help="defaults to the critical cutoff for delta")
    sp.add_argument("--theta", required=True)
    sp.add_argument("--delta", type=float, required=True)

    sp = add_command("fill", _cmd_fill, "empirical fill time by orbit simulation")
    add_alpha(sp)
    sp.add_argument("--theta0", default=None)
    sp.add_argument("--delta", required=True,
                    help="single value or comma-separated sweep")
    sp.add_argument("--dt", type=float, default=None, help="defaults to delta/10")
    sp.add_argument("--max-time", dest="max_time", type=float, required=True)
    sp.add_argument("--grid-side", dest="grid_side", type=float, default=None)

    sp = add_command("duality", _cmd_duality, "transference products for a body")
    sp.add_argument("--axis", required=True)
    sp.add_argument("--normalize", action="store_true")
    sp.add_argument("--axial", type=float, required=True)
    sp.add_argument("--radial", type=float, required=True)
    sp.add_argument("--family", choices=["cylinder", "diamond"], default="cylinder")

    sp = add_command("measure", _cmd_measure, "Monte Carlo complement measure estimate")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--tau", type=float, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--N", type=float, required=True)
    sp.add_argument("--samples", type=int, default=10000)

    sp = add_command("demo-resonant", _cmd_demo_resonant,
                     "closed-orbit reference fill times")
    sp.add_argument("--q", required=True, help="integer slope, or comma list")
    sp.add_argument("--simulate", action="store_true")

    return parser


def run_command(argv) -> int:
    """Parse argv, run one subcommand, print its report, return exit code."""
    # The report options' defaults live in a fresh namespace per call, not on
    # the parsers' actions: every subparser shares those, so a default there
    # would overwrite a value given before the subcommand.
    ns = argparse.Namespace(format="plain", precision=12, seed=0, budget=None)
    try:
        _build_parser().parse_args(list(argv), ns)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        if ns.budget is None:
            env = os.environ.get(_ENV_BUDGET)
            ns.budget = int(env) if env else DEFAULT_BUDGET
        if not (1 <= ns.precision <= 17):
            raise ValueError("precision must lie in [1, 17]")
        if ns.budget < 1:
            raise ValueError("budget must be >= 1")
        params, result, code = ns.run(ns)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except DiophantineRejection as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    print(_render(ns, params, result))
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
