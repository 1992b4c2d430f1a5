import math

import numpy as np
import pytest

from conftest import naive_violation
from torusfill import (
    DioParams,
    best_gamma,
    check_truncated,
    complement_measure_estimate,
    normalize,
    require_unit,
    resonance_search,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def golden_direction():
    return normalize(np.array([1.0, PHI]))


def test_normalize_returns_unit_vector():
    v = normalize([3.0, 4.0])
    assert np.allclose(v, [0.6, 0.8])
    assert math.isclose(float(np.linalg.norm(v)), 1.0, abs_tol=1e-15)


def test_normalize_rejects_degenerate_input():
    with pytest.raises(ValueError):
        normalize([0.0, 0.0])
    with pytest.raises(ValueError):
        normalize([1.0])
    with pytest.raises(ValueError):
        normalize([np.inf, 1.0])


def test_require_unit_does_not_renormalize():
    require_unit([1.0, 0.0])
    with pytest.raises(ValueError):
        require_unit([1.0, 1.0])
    with pytest.raises(ValueError):
        require_unit([np.nan, 0.0])


def test_params_domain():
    DioParams(dim=2, tau=1.0, gamma=0.3, cutoff=None)
    with pytest.raises(ValueError):
        DioParams(dim=1, tau=1.0, gamma=0.3, cutoff=10.0)
    with pytest.raises(ValueError):
        DioParams(dim=3, tau=1.5, gamma=0.3, cutoff=10.0)  # tau < n - 1
    with pytest.raises(ValueError):
        DioParams(dim=2, tau=1.0, gamma=0.0, cutoff=10.0)
    with pytest.raises(ValueError):
        DioParams(dim=2, tau=1.0, gamma=1.0, cutoff=10.0)
    with pytest.raises(ValueError):
        DioParams(dim=2, tau=1.0, gamma=0.3, cutoff=0.5)
    for cutoff in (math.inf, 1e400, math.nan):
        with pytest.raises(ValueError, match="finite"):
            DioParams(dim=2, tau=1.0, gamma=0.3, cutoff=cutoff)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_scans_reject_non_finite_cutoffs(value):
    alpha = golden_direction()
    with pytest.raises(ValueError, match="finite"):
        best_gamma(alpha, 1.0, value)
    with pytest.raises(ValueError, match="finite"):
        resonance_search(alpha, value)
    with pytest.raises(ValueError, match="finite"):
        check_truncated(
            alpha, DioParams(2, 1.0, 0.1, None), enumeration_cutoff=value
        )


def test_check_accepts_diagonal_direction_at_order_one():
    # Only (1,0) and (0,1) have norm <= 1; both inner products are 1/sqrt(2).
    alpha = normalize([1.0, 1.0])
    assert check_truncated(alpha, DioParams(2, 1.0, 0.5, 1.0)) is None


def test_check_needs_some_cutoff():
    alpha = normalize([1.0, PHI])
    with pytest.raises(ValueError):
        check_truncated(alpha, DioParams(2, 1.0, 0.3, None))
    assert (
        check_truncated(
            alpha, DioParams(2, 1.0, 0.3, None), enumeration_cutoff=5.0
        )
        is None
    )


def test_check_reports_smallest_resonance_witness():
    """A rational direction fails with the primitive orthogonal vector."""
    alpha = normalize([2.0, 1.0])
    witness = check_truncated(alpha, DioParams(2, 1.0, 0.01, 3.0))
    assert witness is not None
    assert witness.k == (1, -2)
    assert witness.inner <= 1e-15
    assert witness.threshold == pytest.approx(0.01 * 5.0 ** -0.5)


def test_check_dimension_mismatch():
    with pytest.raises(ValueError):
        check_truncated([1.0, 0.0], DioParams(3, 2.0, 0.1, 5.0))


def test_check_matches_naive_scan(rng):
    """Presence and identity of violations agree with a full box scan."""
    for _ in range(40):
        n = int(rng.integers(2, 4))
        a = rng.standard_normal(n)
        a /= np.linalg.norm(a)
        tau = float(n - 1 + rng.random())
        gamma = float(rng.uniform(0.05, 0.5))
        cutoff = float(rng.integers(2, 7))
        got = check_truncated(a, DioParams(n, tau, gamma, cutoff))
        want = naive_violation(a, tau, gamma, cutoff)
        if want is None:
            assert got is None
        else:
            assert got is not None
            canon = want if want[np.nonzero(want)[0][0]] > 0 else -want
            assert got.k == tuple(int(x) for x in canon)


def test_best_gamma_matches_exhaustive_scan():
    alpha = golden_direction()
    value, argmin = best_gamma(alpha, 1.0, 90.0)

    best = None
    for k1 in range(-90, 91):
        for k2 in range(-90, 91):
            norm = math.hypot(k1, k2)
            if norm == 0.0 or norm > 90.0:
                continue
            prod = abs(k1 * alpha[0] + k2 * alpha[1]) * norm
            if best is None or prod < best[0]:
                best = (prod, (k1, k2))
    assert value == pytest.approx(best[0], abs=1e-10)
    assert argmin in (best[1], tuple(-x for x in best[1]))
    # The minimum over Fibonacci pairs approaches 1 / sqrt(5).
    assert value == pytest.approx(5.0 ** -0.5, abs=1e-6)
    assert argmin == (55, -34)


def test_best_gamma_vanishes_on_resonant_direction():
    value, argmin = best_gamma(normalize([2.0, 1.0]), 1.0, 3.0)
    assert value <= 1e-12
    assert argmin == (1, -2)


def test_best_gamma_diagonal_at_order_one():
    # Only the four unit vectors are candidates.
    value, argmin = best_gamma(normalize([1.0, 1.0]), 1.0, 1.0)
    assert value == pytest.approx(2.0 ** -0.5, rel=1e-15)
    assert argmin in ((1, 0), (0, 1))


def test_best_gamma_consistent_with_check():
    # gamma slightly below the optimum passes, slightly above fails.
    alpha = golden_direction()
    value, _ = best_gamma(alpha, 1.0, 90.0)
    below = DioParams(2, 1.0, value - 1e-9, 90.0)
    above = DioParams(2, 1.0, min(value + 1e-6, 0.999), 90.0)
    assert check_truncated(alpha, below) is None
    assert check_truncated(alpha, above) is not None
    # In particular the round value 0.4 is admissible up to order 90.
    assert check_truncated(alpha, DioParams(2, 1.0, 0.4, 90.0)) is None


def test_resonance_search_finds_primitive_representative():
    reports = resonance_search(normalize([2.0, 1.0]), 3.0)
    assert [r.k for r in reports] == [(1, -2)]
    assert reports[0].order == pytest.approx(math.sqrt(5.0))
    assert reports[0].residual <= 1e-15


def test_resonance_search_empty_for_irrational_direction():
    assert resonance_search(golden_direction(), 50.0) == []


def test_resonance_search_slope_three():
    reports = resonance_search(normalize([3.0, 1.0]), 4.0)
    assert [r.k for r in reports] == [(1, -3)]
    assert reports[0].order == pytest.approx(math.sqrt(10.0))


def test_resonance_search_positive_tolerance():
    alpha = normalize([1.0, 1.0 + 1e-6])
    reports = resonance_search(alpha, 2.0, tol=1e-5)
    assert [r.k for r in reports] == [(1, -1)]
    assert 0.0 < reports[0].residual <= 1e-5


def test_resonance_search_skips_imprimitive_vectors():
    reports = resonance_search(normalize([1.0, 0.0]), 3.5)
    # (0, 1) only: (0, 2) and (0, 3) repeat the same hyperplane.
    assert [r.k for r in reports] == [(0, 1)]


def test_measure_estimate_deterministic_and_monotone():
    params = [DioParams(2, 2.0, g, 20.0) for g in (0.01, 0.02, 0.04)]
    fractions = []
    for p in params:
        f1, se1 = complement_measure_estimate(p, 20000, 42)
        f2, _ = complement_measure_estimate(p, 20000, 42)
        assert f1 == f2
        assert se1 == pytest.approx(math.sqrt(f1 * (1 - f1) / 20000))
        fractions.append(f1)
    # Same draws, larger gamma: the failing set grows pointwise.
    assert fractions[0] < fractions[1] < fractions[2]


def test_measure_estimate_vanishing_gamma():
    # Excluded slabs have vanishing width, so nothing is rejected.
    f, _ = complement_measure_estimate(DioParams(2, 2.0, 1e-9, 10.0), 10000, 1)
    assert f == 0.0


def test_measure_estimate_matches_arc_length():
    """At tau=1, N=1 the complement is four arcs of total measure 2/3."""
    # |cos t| < 1/2 or |sin t| < 1/2 covers 4 * (pi/3) of the circle.
    f, se = complement_measure_estimate(DioParams(2, 1.0, 0.5, 1.0), 20000, 9)
    assert abs(f - 2.0 / 3.0) <= 5.0 * se


def test_measure_estimate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        complement_measure_estimate(DioParams(2, 1.0, 0.1, None), 100, 0)
    with pytest.raises(ValueError):
        complement_measure_estimate(DioParams(2, 1.0, 0.1, 5.0), 0, 0)
