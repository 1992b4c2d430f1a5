"""End-to-end acceptance checks for the filling-time toolkit.

Each test exercises one advertised guarantee at full scale: closed-orbit
reference measurements, the complete constructive pipeline on the golden
direction, adapted-basis invariants over rejection-sampled directions,
duality products, empirical domination by the theoretical bound, exact
successive minima against a naive oracle, and measure scaling.
"""

import math
import time

import numpy as np
import pytest

from conftest import exact_product, naive_minima
from torusfill import (
    CylinderBody,
    DiamondBody,
    DioParams,
    adapted_basis,
    best_gamma,
    check_truncated,
    complement_measure_estimate,
    critical_cutoff,
    duality_check,
    dilation_needed,
    empirical_fill_time,
    filling_time_bound,
    hitting_time,
    normalize,
    resonant_demo_parameters,
    successive_minima,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def test_resonant_reference_reproduction():
    """Measured fill times of closed orbits match sqrt(q^2 + 1) within 2 dt."""
    start = time.monotonic()
    for q in range(1, 6):
        p = resonant_demo_parameters(q)
        res = empirical_fill_time(
            p["alpha"],
            [0.0, 0.0],
            p["delta_test"],
            p["dt"],
            p["max_time"],
            grid_side=p["grid_side"],
        )
        expected = math.sqrt(q * q + 1.0)
        assert res.fill_time is not None, f"q={q} did not fill"
        assert abs(res.fill_time - expected) <= 2.0 * p["dt"], (
            f"q={q}: measured {res.fill_time}, expected {expected}"
        )
    assert time.monotonic() - start < 5.0


def test_constructive_pipeline_golden_direction():
    """gamma_max recomputed exhaustively, then 1000 hitting certificates."""
    start = time.monotonic()
    alpha = normalize([1.0, PHI])

    value, _ = best_gamma(alpha, 1.0, 90.0)
    k1, k2 = np.meshgrid(np.arange(-90, 91), np.arange(-90, 91))
    k = np.stack([k1.ravel(), k2.ravel()], axis=1).astype(float)
    norms = np.linalg.norm(k, axis=1)
    keep = (norms > 0) & (norms <= 90.0)
    oracle = float(np.min(np.abs(k[keep] @ alpha) * norms[keep]))
    assert value == pytest.approx(oracle, abs=1e-10)
    assert value == pytest.approx(0.447, abs=1e-3)

    basis = adapted_basis(alpha, DioParams(2, 1.0, 0.4, 90.0))
    bound = filling_time_bound(2, 1.0, 0.4, 0.1)
    assert bound == pytest.approx(2025.0)
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        cert = hitting_time(basis, rng.random(2), 0.1)
        assert cert.endpoint_distance < 0.1 + 1e-9
        assert cert.time < bound
    assert time.monotonic() - start < 2.0


@pytest.mark.parametrize("n,tau", [(2, 2.0), (3, 3.0)])
def test_adapted_basis_invariants_random_directions(n, tau):
    """Multiplier window, direction deviation, unimodularity and the exact
    stored inverse; no failures.

    Fifty accepted directions per dimension (a hundred bases in total),
    rejection-sampled into the truncated class at gamma = 0.05 with the
    critical cutoff for delta = 0.2.
    """
    cutoff = critical_cutoff(n, 0.2)
    params = DioParams(n, tau, 0.05, cutoff)
    rng = np.random.default_rng(100 + n)
    upper = n * math.factorial(n) * cutoff**tau / 0.05
    identity = [[int(r == c) for c in range(n)] for r in range(n)]
    accepted = 0
    while accepted < 50:
        alpha = rng.standard_normal(n)
        alpha /= np.linalg.norm(alpha)
        if check_truncated(alpha, params) is not None:
            continue
        accepted += 1
        ab = adapted_basis(alpha, params)
        assert abs(ab.integer_basis.determinant) == 1
        assert exact_product(ab.integer_basis.matrix(), ab.inverse) == identity
        for j in range(n):
            x = ab.multipliers[j]
            assert math.sqrt(3.0) / 2.0 < x <= upper * (1 + 1e-9)
            dev = float(np.linalg.norm(alpha - ab.directions[j]))
            limit = n * math.factorial(n) / (x * (cutoff - 1.0))
            assert dev <= limit * (1 + 1e-9)


def test_duality_products_random_cylinders():
    """All transference products lie in [1, n!]; axis-aligned case is exact."""
    start = time.monotonic()
    rng = np.random.default_rng(200)
    for n in (2, 3, 4):
        lo_bound, hi_bound = 1.0 - 1e-9, math.factorial(n) + 1e-9
        for _ in range(100):
            axis = rng.standard_normal(n)
            axis /= np.linalg.norm(axis)
            body = CylinderBody(
                axis,
                float(rng.uniform(0.5, 3.0)),
                float(rng.uniform(0.25, 1.5)),
            )
            products = duality_check(body)
            assert np.all(products >= lo_bound), (n, products)
            assert np.all(products <= hi_bound), (n, products)

    exact = duality_check(CylinderBody(np.array([1.0, 0.0, 0.0]), 3.0, 0.4))
    assert np.allclose(exact, 1.0, atol=1e-12)
    assert time.monotonic() - start < 30.0


def test_empirical_fill_never_exceeds_bound():
    """Twenty sampled Diophantine directions fill well inside the bound."""
    rng = np.random.default_rng(500)
    params = DioParams(2, 1.0, 0.05, 90.0)
    bound = filling_time_bound(2, 1.0, 0.05, 0.1)
    accepted = 0
    while accepted < 20:
        alpha = rng.standard_normal(2)
        alpha /= np.linalg.norm(alpha)
        if check_truncated(alpha, params) is not None:
            continue
        accepted += 1
        res = empirical_fill_time(alpha, [0.0, 0.0], 0.1, 0.01, 200.0)
        assert res.fill_time is not None, alpha
        assert res.fill_time <= bound


def test_successive_minima_match_naive_oracle():
    """Fifty random small bodies agree with direct enumeration exactly."""
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        n = int(rng.choice((2, 3)))
        axis = rng.standard_normal(n)
        axis /= np.linalg.norm(axis)
        if rng.random() < 0.5:
            body = CylinderBody(
                axis,
                float(rng.uniform(0.8, 3.0)),
                float(rng.uniform(0.3, 1.5)),
            )
        else:
            body = DiamondBody(
                axis,
                float(rng.uniform(0.4, 2.0)),
                float(rng.uniform(0.4, 2.0)),
            )
        res = successive_minima(body)
        lam_naive, _ = naive_minima(body)
        for got, want in zip(res.lambdas, lam_naive):
            assert abs(got - want) <= 1e-12
        for lam, w in zip(res.lambdas, res.witnesses):
            assert dilation_needed(body, w) == pytest.approx(lam, abs=1e-12)


def test_measure_scaling_in_gamma():
    """Complement measure grows with gamma; small-gamma growth is linear."""
    fractions = {}
    for gamma in (0.01, 0.02, 0.04):
        f, _ = complement_measure_estimate(
            DioParams(2, 2.0, gamma, 20.0), 100000, 123
        )
        fractions[gamma] = f
    assert fractions[0.01] < fractions[0.02] < fractions[0.04]
    ratio = fractions[0.02] / fractions[0.01]
    assert 1.4 <= ratio <= 2.6, fractions
