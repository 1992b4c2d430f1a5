"""Self-test of the output checks and of failure counting.

Each checker gets one real output, which it must accept, and one
deliberately corrupted copy, which it must reject.  Two tiny-budget ops
confirm that a ResourceLimitError and a CLI exit 3 come back from the op
runner as counted failures instead of being raised.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

import checks
from workloads import GOLDEN, Op, cli_op, execute, unit


def run(tf) -> dict:
    """Case name -> None when the case behaved, else the reason it did not."""
    results = {}

    def expect(name, good, bad):
        if good is not None:
            results[name] = f"real output rejected: {good}"
        elif bad is None:
            results[name] = "corrupted output accepted"
        else:
            results[name] = None

    golden = unit(GOLDEN)
    p2 = tf.DioParams(dim=2, tau=1.0, gamma=0.4, cutoff=90.0)

    alpha = unit((2.0, 1.0))
    w = tf.check_truncated(alpha, tf.DioParams(dim=2, tau=1.0, gamma=0.01, cutoff=3.0))
    expect(
        "witness",
        checks.witness(alpha, 1.0, 0.01, 3.0, w.k, w.inner, w.threshold),
        checks.witness(alpha, 1.0, 0.01, 3.0, (1, -1), w.inner, w.threshold),
    )

    b = tf.adapted_basis(golden, p2)
    cols = b.integer_basis.columns
    bent = ((cols[0][0] + 1,) + tuple(cols[0][1:]),) + tuple(cols[1:])
    det = b.integer_basis.determinant
    expect(
        "basis",
        checks.basis(golden, 1.0, 0.4, 90.0, cols, det, b.multipliers),
        checks.basis(golden, 1.0, 0.4, 90.0, bent, det, b.multipliers),
    )

    theta = (0.3, 0.7)
    c = tf.hitting_time(b, theta, 0.1)

    def certificate(cc):
        return checks.certificate(golden, 1.0, 0.4, b.multipliers, theta, 0.1,
                                  cc.time, cc.coords, cc.endpoint_distance)

    expect("certificate", certificate(c), certificate(replace(c, time=c.time + 0.3)))

    demo = tf.resonant_demo_parameters(1)
    expected, tol = demo["expected_time"], demo["tolerance"]
    expect(
        "resonant_fill",
        checks.resonant_fill(expected - demo["dt"], expected, tol),
        checks.resonant_fill(expected + 3.0 * tol, expected, tol),
    )

    probes = np.random.default_rng(0).random((checks.DENSITY_PROBES, 2))
    start = (0.1, 0.2)
    r = tf.empirical_fill_time(golden, start, 0.2, 0.02, 50.0)
    expect(
        "fill",
        checks.fill(golden, start, 0.2, 0.02, 50.0, r.fill_time, r.uncovered_cells, probes),
        checks.fill(golden, start, 0.2, 0.02, 50.0, 0.02, 0, probes),
    )

    expect("duality", checks.duality(3, [1.0, 1.5, 2.0], True),
           checks.duality(3, [0.5, 1.5, 2.0], True))

    g, k = tf.best_gamma(golden, 1.0, 30.0)
    expect("gamma", checks.gamma_report(golden, 1.0, 30.0, g, k),
           checks.gamma_report(golden, 1.0, 30.0, g * 1.01, k))

    v = unit((1.0, 2.0, 3.0))
    reps = [{"k": list(x.k), "order": x.order, "residual": x.residual}
            for x in tf.resonance_search(v, 6.0)]
    doubled = {"k": [2, 2, -2], "order": math.sqrt(12.0), "residual": 0.0}
    expect(
        "resonances",
        checks.resonances(v, 6.0, 0.0, reps, len(reps), [(1, 1, -1)]),
        checks.resonances(v, 6.0, 0.0, reps + [doubled], len(reps) + 1, []),
    )

    f = 0.25
    expect("measure", checks.measure(1000, f, math.sqrt(f * (1.0 - f) / 1000)),
           checks.measure(1000, f, 0.5))

    tiny = execute(Op("budget", lambda: tf.adapted_basis(golden, p2, budget=1),
                      lambda res: None, str))
    results["budget_library"] = (
        None if tiny.error and tiny.error.startswith("ResourceLimitError")
        else f"tiny budget gave {tiny.error or 'a result'}, not a counted ResourceLimitError"
    )
    tiny = execute(cli_op(tf, "budget", ["duality", "--axis", "1,0,0", "--axial", "3",
                                         "--radial", "0.4", "--budget", "1"]))
    results["budget_cli"] = (
        None if tiny.error and tiny.error.startswith("CliExit: exit 3")
        else f"tiny budget gave {tiny.error or 'a result'}, not a counted exit 3"
    )
    return results
