#!/usr/bin/env python3
"""Closed-loop benchmark of torusfill: one process, one caller.

Run from the root of a checkout:

    python3 perfbench/run.py --workload screen --seed 1 --seconds 30 --trace 0

Workloads: screen, certify, simulate, survey (see perfbench/README.md).  The
run imports ``torusfill`` from ``src/`` of the checkout and draws its inputs
from ``--seed``.  With ``--trace 0`` it times one fixed pass of the
workload's ops again and again within ``--seconds``, takes each op's
fastest successful pass as its latency, and reports the end-to-end
metrics.  With ``--trace 1`` it runs fresh rounds of ops within
``--seconds``, each op once untraced and once with spans installed, in
alternating order, and reports the per-layer metrics.  Every output is
checked independently; a run with any failed op is not correct.  The last line of standard output is the result object; the
line before it is a report with the result digest, the tail percentile and
sample count, the failures, the checker self-test and the environment.
"""

import os

# One caller, one BLAS/OpenMP thread: pinned before numpy is imported here
# or in the set-up probes, which inherit the environment.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The keys of workloads.WORKLOADS, named here because that module imports
# numpy, whose import set-up timing must include.
WORKLOAD_NAMES = ("screen", "certify", "simulate", "survey")

# Set-up is timed this many times per untraced run: in this process, then
# in fresh interpreters between passes, spaced evenly over the run;
# setup_s is their median.
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 60

# op_ms.tail is the latency with this many samples beyond it.
TAIL_BEYOND = 10

# Failure messages kept in the report (all failures are counted).
KEPT_FAILURES = 5

# Repeated passes remove host noise, not first-call work: a run whose
# fastest passes sum to less than the first pass over this factor looks
# like a cache keyed on the inputs, and is not correct.  Cold first calls
# and host slowdowns kept it at 2.1 or less on the benchmark's machine; a cache
# on any workload's ops would be faster than this by tens of times.
REPEAT_SPEEDUP_LIMIT = 5.0


def load_torusfill():
    """Import torusfill from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    package = src / "torusfill"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no torusfill sources at {package}")
    sys.path.insert(0, str(src))
    import torusfill

    if Path(torusfill.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: torusfill imported from {torusfill.__file__}")
    return torusfill


def timed_setup(name, seed):
    """Import torusfill and build the seeded inputs; return (tf, setup, s).

    The benchmark's own modules load outside the timed interval.
    """
    t0 = perf_counter()
    tf = load_torusfill()
    imported = perf_counter() - t0
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    t1 = perf_counter()
    setup = WORKLOADS[name].setup(tf, seed)
    return tf, setup, imported + perf_counter() - t1


def probe_setup(name, seed):
    """Time set-up in a fresh interpreter, as a first run would pay it."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Tally:
    """Outcome counts, failure messages and the result digest of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digest = hashlib.sha256()
        self.digest_ops = 0

    def fail(self, kind, message):
        self.failed += 1
        if len(self.failures) < KEPT_FAILURES:
            self.failures.append(f"{kind}: {message}")

    def add(self, op, outcome, *, digest):
        """Count one execution, and digest its output if asked to."""
        self.attempted += 1
        if outcome.error is not None:
            self.fail(op.kind, outcome.error)
        if digest:
            line = op.canon(outcome.result) if outcome.result is not None else outcome.error
            self.digest.update(f"{op.kind} {line}\n".encode())
            self.digest_ops += 1


def another_fits(start, last, seconds):
    """Whether one more pass as long as the one begun at ``last`` would end
    within ``seconds`` of ``start``."""
    now = perf_counter()
    return (now - start) + (now - last) <= seconds


def run_untraced(tf, workload, inputs, seconds, tally, between_passes):
    """Repeat one pass over the workload's first rounds within ``seconds``.

    A pass is ``workload.rounds_per_pass`` rounds, the same ops every time.
    Another pass starts only if one as long as the last still ends within
    ``seconds``, but there are always two.  An op's latency is its fastest
    successful pass (infinite if it never succeeded), and every repeat must
    reproduce the first pass's output.  ``between_passes(elapsed_seconds)``
    runs after each pass, outside the op timings.
    Returns (best latencies, first-pass latencies, op kinds, passes, median
    latency of each pass in ms).
    """
    from workloads import execute

    best = first_pass = None
    kinds = []
    first_output = array("q")
    pass_p50_ms = []
    start = last = perf_counter()
    while len(pass_p50_ms) < 2 or another_fits(start, last, seconds):
        last = perf_counter()
        first = best is None
        latencies = array("d")
        for r in range(workload.rounds_per_pass):
            for op in workload.round(tf, inputs, r):
                outcome = execute(op)
                tally.add(op, outcome, digest=first)
                fingerprint = hash(op.canon(outcome.result) if outcome.result is not None
                                   else outcome.error)
                if first:
                    kinds.append(op.kind)
                    first_output.append(fingerprint)
                elif outcome.error is None and fingerprint != first_output[len(latencies)]:
                    tally.fail(op.kind, "a repeated op gave another output")
                latencies.append(outcome.seconds if outcome.error is None else float("inf"))
        if first:
            first_pass = best = latencies
        else:
            best = array("d", map(min, best, latencies))
        pass_p50_ms.append(statistics.median(latencies) * 1e3)
        between_passes(perf_counter() - start)
    return best, first_pass, kinds, len(pass_p50_ms), pass_p50_ms


def run_traced(tf, workload, inputs, seconds, tally):
    """Fresh rounds, each op once untraced and once with spans; outputs
    must agree.  Odd ops run traced first, so that neither order is built
    into ``trace.overhead_ratio``.

    Like the passes of an untraced run, another round starts only if it is
    expected to end within ``seconds``.
    """
    from spans import Tracer
    from workloads import execute

    tracer = Tracer(tf.__name__)
    untraced_s = traced_s = 0.0
    ops = 0
    start = last = perf_counter()
    r = 0
    while r == 0 or another_fits(start, last, seconds):
        last = perf_counter()
        for op in workload.round(tf, inputs, r):
            traced_first = ops % 2 == 1
            if not traced_first:
                plain = execute(op)
            tracer.install()
            try:
                traced = execute(op)
            finally:
                tracer.remove()
            if traced_first:
                plain = execute(op)
            ops += 1
            untraced_s += plain.seconds
            traced_s += traced.seconds
            tally.add(op, plain, digest=r < workload.rounds_per_pass)
            tally.attempted += 1  # the traced execution
            if traced.error is not None:
                tally.fail(op.kind, f"traced: {traced.error}")
            elif plain.error is None and op.canon(traced.result) != op.canon(plain.result):
                tally.fail(op.kind, "tracing changed the output")
        r += 1
    return tracer, ops, traced_s, untraced_s, r


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile with
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(latencies)
    idx = len(ordered) - TAIL_BEYOND - 1
    if idx < 0:
        idx = len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - idx - 1


def environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": openblas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def latency_metrics(latencies):
    """ops_per_s, op_ms.p50 and op_ms.tail of one latency per op (seconds),
    plus the tail's percentile and the number of samples beyond it."""
    tail_value, tail_pct, beyond = tail(latencies)
    return {
        "ops_per_s": metric(len(latencies) / sum(latencies), "1/s"),
        "op_ms.p50": metric(statistics.median(latencies) * 1e3, "ms"),
        "op_ms.tail": metric(tail_value * 1e3, "ms"),
    }, tail_pct, beyond


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time set-up and print the seconds (used internally)")
    args = parser.parse_args(argv)

    tf, setup, setup_s = timed_setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    setup_samples = [setup_s]  # untraced runs add probes between passes

    import selftest
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    selftest_results = selftest.run(tf)
    tally = Tally()
    for line in setup.canon:
        tally.digest.update(f"setup {line}\n".encode())
    for err in setup.errors:
        tally.fail("setup", err)
    repeat_speedup = 1.0  # first pass over fastest passes, untraced runs only

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        from spans import layer_metrics

        tracer, ops, traced_s, untraced_s, rounds = run_traced(
            tf, workload, setup.inputs, args.seconds, tally)
        metrics = {
            name: metric(value, unit)
            for name, (value, unit) in layer_metrics(tracer, ops, traced_s, untraced_s).items()
        }
        report.update(
            rounds=rounds, traced_ops=ops, traced_s=traced_s, untraced_s=untraced_s,
            busy_share={name: row["busy"] / traced_s
                        for name, row in tracer.table().items() if row["calls"]},
        )
    else:
        def probe_between_passes(elapsed):
            while (len(setup_samples) < SETUP_SAMPLES
                   and elapsed >= len(setup_samples) * args.seconds / SETUP_SAMPLES):
                setup_samples.append(probe_setup(args.workload, args.seed))

        best, first_pass, kinds, passes, pass_p50_ms = run_untraced(
            tf, workload, setup.inputs, args.seconds, tally, probe_between_passes)
        # Latency figures cover only ops that succeeded; failures are counted.
        ok = [(kind, b, f) for kind, b, f in zip(kinds, best, first_pass)
              if b != float("inf")]
        if not ok:
            raise SystemExit(f"perfbench: no {args.workload} op succeeded: {tally.failures}")
        best_ok = [b for _, b, _ in ok]
        # Ops that succeeded on the first pass and on some pass: first vs fastest.
        both = [(b, f) for _, b, f in ok if f != float("inf")] or [(1.0, 1.0)]
        first_ok = [f for _, f in both]
        repeat_speedup = sum(first_ok) / sum(b for b, _ in both)
        latency, tail_pct, beyond = latency_metrics(best_ok)
        metrics = {
            "setup_s": metric(statistics.median(setup_samples), "s"),
            **latency,
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        by_kind = {}
        for kind, seconds, _ in ok:
            by_kind.setdefault(kind, []).append(seconds)
        report.update(
            ops=len(best),
            ops_timed=len(best_ok),
            passes=passes,
            pass_p50_ms=pass_p50_ms,
            tail_percentile=tail_pct,
            tail_samples_beyond=beyond,
            first_pass={k: v["value"] for k, v in latency_metrics(first_ok)[0].items()},
            repeat_speedup=repeat_speedup,
            kinds={k: {"ops": len(v), "p50_ms": statistics.median(v) * 1e3}
                   for k, v in by_kind.items()},
        )
    report.update(
        digest=tally.digest.hexdigest(),
        digest_ops=tally.digest_ops,
        fail_ratio=tally.failed / max(tally.attempted, 1),
        failures=tally.failures,
        setup_samples_s=setup_samples,
        selftest=selftest_results,
        environment=environment(),
    )
    selftest_ok = all(v is None for v in selftest_results.values())
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": (selftest_ok and tally.failed == 0
                    and repeat_speedup <= REPEAT_SPEEDUP_LIMIT),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
