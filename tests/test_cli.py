import json
import math

import pytest

from torusfill.cli import run_command

GOLDEN = "1,1.6180339887498949"


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cutoff_plain_prints_bare_value(capsys):
    code, out, _ = run(capsys, "cutoff", "--n", "2", "--delta", "0.1")
    assert code == 0
    assert out.strip() == "90"


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


def test_demo_resonant_simulated_measurement(capsys):
    code, out, _ = run(
        capsys, "demo-resonant", "--q", "1", "--simulate", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    (row,) = doc["result"]["runs"]
    assert row["within_tolerance"] is True
    assert abs(row["measured_time"] - row["expected_time"]) <= row["tolerance"]
