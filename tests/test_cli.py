import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torusfill.cli import run_command

GOLDEN = "1,1.6180339887498949"
ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cutoff_plain_prints_bare_value(capsys):
    code, out, _ = run(capsys, "cutoff", "--n", "2", "--delta", "0.1")
    assert code == 0
    assert out.strip() == "90"


def test_cutoff_csv_prints_key_value_rows(capsys):
    code, out, _ = run(capsys, "cutoff", "--n", "2", "--delta", "0.1",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["key,value", "cutoff,90"]


@pytest.mark.parametrize("precision", ["0", "18"])
def test_precision_out_of_range_is_usage_error(capsys, precision):
    code, out, err = run(capsys, "cutoff", "--n", "2", "--delta", "0.1",
                         "--precision", precision)
    assert code == 2
    assert out == ""
    assert "precision must lie in [1, 17]" in err


def test_check_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(
        capsys, "check", "--alpha", "1,1", "--normalize",
        "--tau", "1", "--gamma", "0.5", "--N", "1",
    )
    assert code == 0
    assert "pass" in out

    code, out, _ = run(
        capsys, "check", "--alpha", "2,1", "--normalize",
        "--tau", "1", "--gamma", "0.01", "--N", "3",
    )
    assert code == 1
    assert "k: [1, -2]" in out


def test_gamma_respects_precision(capsys):
    code, out, _ = run(
        capsys, "gamma", "--alpha", GOLDEN, "--normalize",
        "--tau", "1", "--N", "90", "--precision", "6",
    )
    assert code == 0
    assert "0.447214" in out


def test_fraction_vector_entries(capsys):
    # 3/5,4/5 is exactly unit length, so no --normalize is needed; its
    # resonance (4, -3) has norm 5 and stays outside the cutoff N = 2.
    code, out, _ = run(
        capsys, "check", "--alpha", "3/5,4/5",
        "--tau", "1", "--gamma", "0.01", "--N", "2",
    )
    assert code == 0
    assert "pass" in out

    code, _, _ = run(
        capsys, "check", "--alpha", "3/5,4/5",
        "--tau", "1", "--gamma", "0.01", "--N", "5",
    )
    assert code == 1


def test_json_report_schema(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "cutoff", "--n", "2", "--delta", "0.1"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "params", "result", "diagnostics", "version"}
    assert doc["command"] == "cutoff"
    assert doc["params"] == {"n": 2, "delta": 0.1}
    assert doc["result"]["cutoff"] == 90.0


def test_json_output_reproducible_byte_for_byte(capsys):
    args = [
        "measure", "--n", "2", "--tau", "1", "--gamma", "0.2", "--N", "3",
        "--samples", "2000", "--seed", "7", "--format", "json",
    ]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    doc = json.loads(first)
    assert doc["diagnostics"]["seed"] == 7
    assert 0.0 <= doc["result"]["fraction"] <= 1.0


def test_global_flags_accepted_in_both_positions(capsys):
    _, before, _ = run(
        capsys, "--format", "json", "cutoff", "--n", "2", "--delta", "0.1"
    )
    _, after, _ = run(
        capsys, "cutoff", "--n", "2", "--delta", "0.1", "--format", "json"
    )
    assert before == after


def test_bound_command(capsys):
    code, out, _ = run(
        capsys, "bound", "--n", "2", "--tau", "1",
        "--gamma", "0.4", "--delta", "0.1",
    )
    assert code == 0
    assert "2025" in out
    assert "81" in out  # bound constant is echoed alongside


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cutoff", "--n", "171", "--delta", "0.4"), "critical cutoff"),
        (("cutoff", "--n", "170", "--delta", "1e-300"), "critical cutoff"),
        (("bound", "--n", "3", "--tau", "300"), "bound constant"),
        (
            ("bound", "--n", "2", "--tau", "1", "--gamma", "1e-300",
             "--delta", "1e-300"),
            "filling time bound",
        ),
        (("bound", "--n", "3", "--tau", "inf"), "tau must be finite"),
    ],
)
def test_bound_overflow_is_usage_error(capsys, argv, message):
    # Results beyond the double range and a non-finite tau are refused.
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")
    assert message in err


def test_huge_dimension_is_refused_without_its_factorial(capsys, monkeypatch):
    # 1 + n^2 n! exceeds every double from n = 169 on, and side^n exceeds
    # any budget once n reaches the budget's bit length; neither is computed.
    factorial = math.factorial

    def small_factorial(n):
        assert n <= 170, f"factorial({n}) computed"
        return factorial(n)

    monkeypatch.setattr(math, "factorial", small_factorial)
    code, out, err = run(capsys, "cutoff", "--n", "1000000", "--delta", "0.1")
    assert (code, out) == (2, "")
    assert err == "usage error: critical cutoff is not a finite positive double\n"
    code, out, err = run(capsys, "bound", "--n", "1000000", "--tau", "1e7",
                         "--gamma", "0.5", "--delta", "0.1")
    assert (code, out) == (2, "")
    assert err == "usage error: bound constant is not a finite positive double\n"
    code, out, err = run(capsys, "measure", "--n", "10000000", "--tau", "1e7",
                         "--gamma", "0.5", "--N", "1")
    assert (code, out) == (3, "")
    assert err == (
        "resource limit: enumeration exceeded budget of 100000000 candidates\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--alpha", GOLDEN, "--normalize", "--tau", "inf",
         "--gamma", "0.4", "--N", "90"),
        ("basis", "--alpha", GOLDEN, "--normalize", "--tau", "inf",
         "--gamma", "0.4", "--N", "90"),
        ("measure", "--n", "2", "--tau", "inf", "--gamma", "0.1", "--N", "3",
         "--samples", "1000"),
    ],
)
def test_infinite_tau_is_usage_error(capsys, argv):
    # Every threshold gamma ||k||^-tau would vanish, so nothing could fail.
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "tau must be finite" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(capsys, "nosuch")
    assert code == 2
    assert "usage" in err.lower() or "invalid" in err.lower()


def test_missing_required_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "cutoff", "--n", "2")
    assert code == 2


def test_malformed_vector_is_usage_error(capsys):
    code, _, err = run(
        capsys, "check", "--alpha", "1", "--tau", "1",
        "--gamma", "0.1", "--N", "2",
    )
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize("entry", ["1/0", "1" + "0" * 400 + "/1"],
                         ids=["zero-denominator", "beyond-double"])
@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--alpha", "{},1", "--tau", "1", "--gamma", "0.1", "--N", "2"),
        ("hit", "--alpha", GOLDEN, "--normalize", "--tau", "1", "--gamma", "0.4",
         "--theta", "{},0.5", "--delta", "0.1"),
        ("fill", "--alpha", GOLDEN, "--normalize", "--delta", "0.2",
         "--max-time", "1", "--theta0", "{},0"),
        ("duality", "--axis", "{},1", "--axial", "3", "--radial", "0.4"),
    ],
)
def test_fraction_without_double_value_is_usage_error(capsys, argv, entry):
    # A zero denominator and a quotient beyond the double range.
    code, out, err = run(capsys, *(a.replace("{}", entry) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")


def test_non_unit_alpha_without_normalize_is_usage_error(capsys):
    code, _, err = run(
        capsys, "check", "--alpha", "1,1", "--tau", "1",
        "--gamma", "0.1", "--N", "2",
    )
    assert code == 2
    assert "unit" in err


def test_budget_exceeded_exit_code(capsys):
    code, _, err = run(
        capsys, "basis", "--alpha", GOLDEN, "--normalize", "--tau", "1",
        "--gamma", "0.4", "--N", "90", "--budget", "2",
    )
    assert code == 3
    assert "budget" in err


def test_check_honours_budget(capsys):
    argv = ["check", "--alpha", GOLDEN, "--normalize", "--tau", "1",
            "--gamma", "0.4", "--N", "90"]
    code, _, err = run(capsys, *argv, "--budget", "1")
    assert code == 3
    assert "budget" in err
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "pass" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--alpha", GOLDEN, "--normalize", "--tau", "1", "--N", "90"],
        ["resonances", "--alpha", "2,1", "--normalize", "--max-order", "10"],
        ["measure", "--n", "2", "--tau", "2", "--gamma", "0.02", "--N", "20",
         "--samples", "100"],
    ],
)
def test_diophantine_scans_honour_budget(capsys, argv):
    code, _, err = run(capsys, *argv, "--budget", "1")
    assert code == 3
    assert "budget" in err
    code, _, _ = run(capsys, *argv)
    assert code == 0


def test_measure_at_huge_tau_is_silent():
    """At tau = 300 most ||k||^tau overflow; those k cannot fail a direction,
    and the run writes nothing to stderr (no numpy overflow warnings)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "torusfill.cli", "--format", "json", "measure",
         "--n", "2", "--tau", "300", "--gamma", "0.02", "--N", "20",
         "--samples", "2000", "--seed", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["result"]["fraction"] == 0.028


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--alpha", GOLDEN, "--normalize", "--N", "90", "--tau", value]
        for value in ("nan", "inf", "-1")
    ]
    + [
        ["resonances", "--alpha", "2,1", "--normalize", "--max-order", "10",
         "--tol", value]
        for value in ("nan", "inf", "-1")
    ],
)
def test_gamma_tau_and_resonance_tol_domains(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "finite and >= 0" in err


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("TORUSFILL_BUDGET", "2")
    code, _, _ = run(
        capsys, "basis", "--alpha", GOLDEN, "--normalize",
        "--tau", "1", "--gamma", "0.4", "--N", "90",
    )
    assert code == 3
    # An explicit flag wins over the environment.
    code, _, _ = run(
        capsys, "basis", "--alpha", GOLDEN, "--normalize",
        "--tau", "1", "--gamma", "0.4", "--N", "90", "--budget", "1000000",
    )
    assert code == 0


def test_hit_resonant_direction_fails_mathematically(capsys):
    code, _, err = run(
        capsys, "hit", "--alpha", "3,1", "--normalize", "--tau", "1",
        "--gamma", "0.1", "--theta", "0.5,0.5", "--delta", "0.1",
    )
    assert code == 1
    assert "rejected" in err


def test_hit_defaults_to_critical_cutoff(capsys):
    code, out, _ = run(
        capsys, "hit", "--alpha", GOLDEN, "--normalize", "--tau", "1",
        "--gamma", "0.4", "--theta", "0.3,0.7", "--delta", "0.1",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["N"] == 90.0  # filled in from the critical cutoff
    assert doc["result"]["within_delta"] is True
    assert doc["result"]["endpoint_distance"] < 0.1
    assert doc["result"]["time"] == pytest.approx(44.319070387, abs=1e-6)


def test_basis_reports_invariants(capsys):
    code, out, _ = run(
        capsys, "basis", "--alpha", GOLDEN, "--normalize", "--tau", "1",
        "--gamma", "0.4", "--N", "90", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    result = doc["result"]
    assert result["determinant"] in (-1, 1)
    assert len(result["multipliers"]) == 2
    assert all(x > math.sqrt(3) / 2 for x in result["multipliers"])


def test_fill_csv_sweep(capsys):
    code, out, _ = run(
        capsys, "fill", "--alpha", GOLDEN, "--normalize",
        "--delta", "0.2,0.15", "--max-time", "50", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,dt,fill_time,uncovered_cells,filled"
    assert len(lines) == 3
    assert lines[1].endswith("true")


def test_fill_unfilled_is_mathematical_failure(capsys):
    code, out, _ = run(
        capsys, "fill", "--alpha", GOLDEN, "--normalize",
        "--delta", "0.2", "--dt", "0.02", "--max-time", "1",
    )
    assert code == 1


@pytest.mark.parametrize(
    "flags",
    [("--max-time", "inf"), ("--max-time", "nan"), ("--theta0", "nan,0")],
)
def test_fill_non_finite_input_is_usage_error(capsys, flags):
    code, _, err = run(
        capsys, "fill", "--alpha", "1,1.618", "--normalize",
        "--delta", "0.2", "--max-time", "5", *flags,
    )
    assert code == 2
    assert "usage error" in err


def test_fill_empty_delta_list_is_usage_error(capsys):
    code, out, err = run(
        capsys, "fill", "--alpha", "1,1.618", "--normalize",
        "--delta", ",", "--max-time", "5",
    )
    assert code == 2
    assert out == ""
    assert "--delta" in err


def test_fill_large_delta_names_delta_without_grid_side(capsys):
    code, _, err = run(
        capsys, "fill", "--alpha", "1,1.618", "--normalize",
        "--delta", "5", "--max-time", "1",
    )
    assert code == 2
    assert "delta must lie in (0, 2 sqrt(n)]" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--tau", "1", "--gamma", "0.1", "--N", "1e400"),
        ("gamma", "--tau", "1", "--N", "inf"),
        ("basis", "--tau", "1", "--gamma", "0.4", "--N", "nan"),
        ("resonances", "--max-order", "inf"),
    ],
)
def test_non_finite_cutoff_is_usage_error(capsys, argv):
    code, _, err = run(capsys, argv[0], "--alpha", GOLDEN, "--normalize", *argv[1:])
    assert code == 2
    assert "usage error" in err
    assert "finite" in err


def test_duality_axis_aligned_products(capsys):
    code, out, _ = run(
        capsys, "duality", "--axis", "1,0,0", "--axial", "3",
        "--radial", "0.4", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["products"] == [1.0, 1.0, 1.0]


def test_duality_overflowing_lll_squares_hit_the_budget(capsys):
    # R entries near 1e300 square to inf in the LLL's Lovasz test; the scan
    # then runs out of dilations, an exit 3, not an OverflowError.
    code, out, err = run(
        capsys, "duality", "--axis", "1,1", "--normalize",
        "--axial", "1e300", "--radial", "1e-300",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit:")


@pytest.mark.parametrize(
    "argv",
    [
        ("--axial", "1", "--radial", "1e-300"),
        ("--axial", "1", "--radial", "1e300", "--family", "diamond"),
    ],
)
def test_duality_unbounded_sweep_hits_the_budget(capsys, argv):
    # The volume is in range, but a level of the sweep has an interval with
    # no finite ends: no finite candidate count, an exit 3, not an
    # OverflowError from rounding an infinite bound.
    code, out, err = run(
        capsys, "duality", "--axis", "1,1", "--normalize", *argv
    )
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit:")


def test_duality_non_finite_lll_coefficient_hits_the_budget(capsys):
    # A Gram-Schmidt coefficient of the LLL is NaN here; the LLL gives up,
    # and the sweep's pivot check ends the scan with an exit 3, not a usage
    # error naming no input.
    code, out, err = run(
        capsys, "duality", "--axis", "1,1", "--normalize",
        "--axial", "5e-324", "--radial", "1",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit:")


def test_duality_collinear_points_hit_the_budget(capsys):
    # A needle along (1, 1): every scan finds only the points (m, m), and
    # the dilation doubles until the budget runs out.  The multiples of
    # (1, 1) are dropped before the exact rank tests, so that takes well
    # under a second.
    code, out, err = run(
        capsys, "duality", "--axis", "1,1", "--normalize",
        "--axial", "1", "--radial", "1e-20", "--budget", "1000000",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit:")


@pytest.mark.parametrize(
    "argv",
    [
        ("--axis", "1,0.3,0.2", "--axial", "1e-200", "--radial", "1e-200"),
        ("--axis", "1,0.3", "--axial", "1e200", "--radial", "1e200",
         "--family", "diamond"),
        ("--axis", "1,0.3,0.2", "--axial", "1", "--radial", "1e300"),
    ],
)
def test_duality_degenerate_volume_is_usage_error(capsys, argv):
    # The body volume underflows to 0 or overflows, leaving no finite,
    # positive start dilation.
    code, out, err = run(capsys, "duality", "--normalize", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")
    assert "volume" in err


def test_resonances_lists_primitive_vectors(capsys):
    code, out, _ = run(
        capsys, "resonances", "--alpha", "2,1", "--normalize",
        "--max-order", "3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["resonances"][0]["k"] == [1, -2]


def test_demo_resonant_parameter_listing(capsys):
    code, out, _ = run(capsys, "demo-resonant", "--q", "1,2")
    assert code == 0
    assert "q=1" in out and "q=2" in out


@pytest.mark.parametrize("q", [2**1024, 2**512])
def test_demo_resonant_q_beyond_the_double_range_is_usage_error(capsys, q):
    # float(2**1024) overflows; q^2 + 1 for q = 2**512 is past every double.
    code, out, err = run(capsys, "demo-resonant", "--q", str(q))
    assert (code, out) == (2, "")
    assert err == (
        "usage error: q must satisfy q^2 + 1 <= 1.8e308, the double range\n"
    )


def test_fill_grid_beyond_the_budget_exits_before_allocating(capsys, monkeypatch):
    """delta = 1e-300 asks for (2.8e300)^2 cells and delta = 1e-4 for 8e8;
    both exceed the default budget, which is charged before numpy allocates
    anything."""
    import numpy as np

    zeros = np.zeros

    def small_zeros(shape, *args, **kwargs):
        assert np.prod(shape) <= 10**6, "cover allocated"
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", small_zeros)
    for delta in ("1e-300", "1e-4"):
        code, out, err = run(
            capsys, "fill", "--alpha", "1,1.618", "--normalize",
            "--delta", delta, "--max-time", "1",
        )
        assert (code, out) == (3, "")
        assert err == (
            "resource limit: enumeration exceeded budget of 100000000 "
            "candidates\n"
        )


def test_demo_resonant_simulated_measurement(capsys):
    code, out, _ = run(
        capsys, "demo-resonant", "--q", "1", "--simulate", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    (row,) = doc["result"]["runs"]
    assert row["within_tolerance"] is True
    assert abs(row["measured_time"] - row["expected_time"]) <= row["tolerance"]


# Literal reports of one input per subcommand in every format, at a
# precision whose printed digits do not depend on BLAS rounding.
REPORTS = {
    "check": (
        ["check", "--alpha", "3/5,4/5", "--tau", "1", "--gamma", "0.01", "--N",
         "2"],
        {
            "plain": "pass\n",
            "json": (
                '{"command": "check", "diagnostics": {"budget": 100000000,'
                ' "seed": 0}, "params": {"N": 2.0, "alpha": [0.6, 0.8],'
                ' "gamma": 0.01, "tau": 1.0}, "result": {"status": "pass"},'
                ' "version": "0.1.0"}\n'
            ),
            "csv": "key,value\nstatus,pass\n",
        },
    ),
    "gamma": (
        ["gamma", "--alpha", GOLDEN, "--normalize", "--tau", "1", "--N", "90",
         "--precision", "6"],
        {
            "plain": "gamma_max: 0.447214\nargmin_k: [55, -34]\n",
            "json": (
                '{"command": "gamma", "diagnostics": {"budget": 100000000,'
                ' "seed": 0}, "params": {"N": 90.0, "alpha": [0.525731,'
                ' 0.850651], "tau": 1.0}, "result": {"argmin_k": [55, -34],'
                ' "gamma_max": 0.447214}, "version": "0.1.0"}\n'
            ),
            "csv": "key,value\ngamma_max,0.447214\nargmin_k,[55, -34]\n",
        },
    ),
    "resonances": (
        ["resonances", "--alpha", "1,0", "--max-order", "3"],
        {
            "plain": "count: 1\nresonances:\n  k=[0, 1], order=1, residual=0\n",
            "json": (
                '{"command": "resonances", "diagnostics": {"budget": 100000000,'
                ' "seed": 0}, "params": {"alpha": [1.0, 0.0], "max_order": 3.0,'
                ' "tol": 0.0}, "result": {"count": 1, "resonances": [{"k": [0,'
                ' 1], "order": 1.0, "residual": 0.0}]}, "version": "0.1.0"}\n'
            ),
            "csv": (
                "key,value\ncount,1\nresonances,[{'k': [0, 1], 'order': 1.0,"
                " 'residual': 0.0}]\n"
            ),
        },
    ),
    "cutoff": (
        ["cutoff", "--n", "2", "--delta", "0.1"],
        {
            "plain": "90\n",
            "json": (
                '{"command": "cutoff", "diagnostics": {"budget": 100000000,'
                ' "seed": 0}, "params": {"delta": 0.1, "n": 2},'
                ' "result": {"cutoff": 90.0}, "version": "0.1.0"}\n'
            ),
            "csv": "key,value\ncutoff,90\n",
        },
    ),
    "bound": (
        ["bound", "--n", "2", "--tau", "1", "--gamma", "0.4", "--delta", "0.1"],
        {
            "plain": "constant: 81\ntime_bound: 2025\n",
            "json": (
                '{"command": "bound", "diagnostics": {"budget": 100000000,'
                ' "seed": 0}, "params": {"delta": 0.1, "gamma": 0.4, "n": 2,'
                ' "tau": 1.0}, "result": {"constant": 81.0,'
                ' "time_bound": 2025.0}, "version": "0.1.0"}\n'
            ),
            "csv": "key,value\nconstant,81\ntime_bound,2025\n",
        },
    ),
    "basis": (
        ["basis", "--alpha", GOLDEN, "--normalize", "--tau", "1", "--gamma", "0.4",
         "--N", "90", "--precision", "6"],
        {
            "plain": (
                "multipliers: [104.623, 64.6607]\ndirections: [[0.525696,"
                " 0.850672], [0.525822, 0.850595]]\ninteger_basis: [[55, 89],"
                " [34, 55]]\ndeterminant: -1\nminima: [0.464992, 0.615552]\n"
            ),
            "json": (
                '{"command": "basis", "diagnostics": {"budget": 100000000,'
                ' "seed": 0}, "params": {"N": 90.0, "alpha": [0.525731,'
                ' 0.850651], "gamma": 0.4, "tau": 1.0},'
                ' "result": {"determinant": -1, "directions": [[0.525696,'
                ' 0.850672], [0.525822, 0.850595]], "integer_basis": [[55, 89],'
                ' [34, 55]], "minima": [0.464992, 0.615552],'
                ' "multipliers": [104.623, 64.6607]}, "version": "0.1.0"}\n'
            ),
            "csv": (
                "key,value\nmultipliers,[104.623, 64.6607]\n"
                "directions,[[0.525696, 0.850672], [0.525822, 0.850595]]\n"
                "integer_basis,[[55, 89], [34, 55]]\ndeterminant,-1\n"
                "minima,[0.464992, 0.615552]\n"
            ),
        },
    ),
    "hit": (
        ["hit", "--alpha", GOLDEN, "--normalize", "--tau", "1", "--gamma", "0.4",
         "--theta", "0.3,0.7", "--delta", "0.1", "--precision", "6"],
        {
            "plain": (
                "time: 44.3191\nendpoint_distance: 0.000100908\ncoords: [0.3,"
                " 0.2]\nbound: 2025\nwithin_delta: true\n"
            ),
            "json": (
                '{"command": "hit", "diagnostics": {"budget": 100000000,'
                ' "seed": 0}, "params": {"N": 90.0, "alpha": [0.525731,'
                ' 0.850651], "delta": 0.1, "gamma": 0.4, "tau": 1.0,'
                ' "theta": [0.3, 0.7]}, "result": {"bound": 2025.0,'
                ' "coords": [0.3, 0.2], "endpoint_distance": 0.000100908,'
                ' "time": 44.3191, "within_delta": true}, "version": "0.1.0"}\n'
            ),
            "csv": (
                "key,value\ntime,44.3191\nendpoint_distance,0.000100908\n"
                "coords,[0.3, 0.2]\nbound,2025\nwithin_delta,true\n"
            ),
        },
    ),
    "fill": (
        ["fill", "--alpha", GOLDEN, "--normalize", "--delta", "0.2,0.15",
         "--max-time", "50", "--precision", "6"],
        {
            "plain": (
                "runs:\n  delta=0.2, dt=0.02, fill_time=5.46, uncovered_cells=0,"
                " filled=true\n  delta=0.15, dt=0.015, fill_time=5.64,"
                " uncovered_cells=0, filled=true\n"
            ),
            "json": (
                '{"command": "fill", "diagnostics": {"budget": 100000000,'
                ' "seed": 0}, "params": {"alpha": [0.525731, 0.850651],'
                ' "delta": [0.2, 0.15], "max_time": 50.0, "theta0": [0.0, 0.0]},'
                ' "result": {"runs": [{"delta": 0.2, "dt": 0.02,'
                ' "fill_time": 5.46, "filled": true, "uncovered_cells": 0},'
                ' {"delta": 0.15, "dt": 0.015, "fill_time": 5.64, "filled": true,'
                ' "uncovered_cells": 0}]}, "version": "0.1.0"}\n'
            ),
            "csv": (
                "delta,dt,fill_time,uncovered_cells,filled\n"
                "0.2,0.02,5.46,0,true\n0.15,0.015,5.64,0,true\n"
            ),
        },
    ),
    "duality": (
        ["duality", "--axis", "1,0,0", "--axial", "3", "--radial", "0.4"],
        {
            "plain": (
                "products: [1, 1, 1]\nlower: 1\nupper: 6\nwithin_bounds: true\n"
            ),
            "json": (
                '{"command": "duality", "diagnostics": {"budget": 100000000,'
                ' "seed": 0}, "params": {"axial": 3.0, "axis": [1.0, 0.0, 0.0],'
                ' "family": "cylinder", "radial": 0.4}, "result": {"lower": 1.0,'
                ' "products": [1.0, 1.0, 1.0], "upper": 6.0,'
                ' "within_bounds": true}, "version": "0.1.0"}\n'
            ),
            "csv": (
                "key,value\nproducts,[1, 1, 1]\nlower,1\nupper,6\n"
                "within_bounds,true\n"
            ),
        },
    ),
    "measure": (
        ["measure", "--n", "2", "--tau", "1", "--gamma", "0.2", "--N", "3",
         "--samples", "2000", "--seed", "7"],
        {
            "plain": "fraction: 0.4975\nstderr: 0.0111802\n",
            "json": (
                '{"command": "measure", "diagnostics": {"budget": 100000000,'
                ' "seed": 7}, "params": {"N": 3.0, "gamma": 0.2, "n": 2,'
                ' "samples": 2000, "seed": 7, "tau": 1.0},'
                ' "result": {"fraction": 0.4975, "stderr": 0.0111802001324},'
                ' "version": "0.1.0"}\n'
            ),
            "csv": "key,value\nfraction,0.4975\nstderr,0.0111802\n",
        },
    ),
    "demo-resonant": (
        ["demo-resonant", "--q", "1,2"],
        {
            "plain": (
                "runs:\n  q=1, expected_time=1.41421, delta_reference=0.353553,"
                " dt=0.0353553, tolerance=0.0707107\n  q=2,"
                " expected_time=2.23607, delta_reference=0.223607, dt=0.0223607,"
                " tolerance=0.0447214\n"
            ),
            "json": (
                '{"command": "demo-resonant",'
                ' "diagnostics": {"budget": 100000000, "seed": 0},'
                ' "params": {"q": [1, 2], "simulate": false},'
                ' "result": {"runs": [{"delta_reference": 0.353553390593,'
                ' "dt": 0.0353553390593, "expected_time": 1.41421356237, "q": 1,'
                ' "tolerance": 0.0707106781187},'
                ' {"delta_reference": 0.22360679775, "dt": 0.022360679775,'
                ' "expected_time": 2.2360679775, "q": 2,'
                ' "tolerance": 0.04472135955}]}, "version": "0.1.0"}\n'
            ),
            "csv": (
                "q,expected_time,delta_reference,dt,tolerance\n"
                "1,1.41421,0.353553,0.0353553,0.0707107\n"
                "2,2.23607,0.223607,0.0223607,0.0447214\n"
            ),
        },
    ),
}


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("command", list(REPORTS))
def test_report_literal_output(capsys, command, fmt):
    argv, reports = REPORTS[command]
    for full in ([*argv, "--format", fmt], ["--format", fmt, *argv]):
        assert run(capsys, *full) == (0, reports[fmt], "")
