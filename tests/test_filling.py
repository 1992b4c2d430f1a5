import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_product, naive_hitting_time
from torusfill import (
    DioParams,
    DiophantineRejection,
    InternalInvariantError,
    ResourceLimitError,
    adapted_basis,
    bound_constant,
    check_truncated,
    critical_cutoff,
    filling_time_bound,
    hitting_time,
    normalize,
    torus_distance,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0
GOLDEN_PARAMS = DioParams(dim=2, tau=1.0, gamma=0.4, cutoff=90.0)


@pytest.fixture(scope="module")
def golden_basis():
    return adapted_basis(normalize([1.0, PHI]), GOLDEN_PARAMS)


@pytest.fixture(scope="module")
def oracle_bases(golden_basis):
    """Bases at the critical cutoff for delta, keyed by name: (basis, delta)."""
    cubic = normalize([1.0, 2.0 ** (1.0 / 3.0), 4.0 ** (1.0 / 3.0)])
    cubic_basis = adapted_basis(cubic, DioParams(3, 2.0, 0.05, 275.0))
    params = DioParams(3, 3.0, 0.05, 275.0)
    rng = np.random.default_rng(8)
    while True:
        alpha = normalize(rng.standard_normal(3))
        if check_truncated(alpha, params) is None:
            break
    return {
        "golden": (golden_basis, 0.1),
        "cubic": (cubic_basis, 0.2),
        "random3": (adapted_basis(alpha, params), 0.2),
    }


EDGE_COORDS = [0.0, -0.0, 1.0 - 2.0**-53, 5e-324, 1e-300]


def test_critical_cutoff_values():
    # (1 + n^2 n!) / delta
    assert critical_cutoff(2, 0.1) == pytest.approx(90.0)
    assert critical_cutoff(2, 0.25) == pytest.approx(36.0)
    assert critical_cutoff(2, 0.45) == pytest.approx(20.0)
    assert critical_cutoff(3, 0.1) == pytest.approx(550.0)
    assert critical_cutoff(3, 0.4999) == pytest.approx(110.022, abs=1e-3)
    assert critical_cutoff(4, 0.2) == pytest.approx((1 + 16 * 24) / 0.2)


def test_critical_cutoff_domain():
    with pytest.raises(ValueError):
        critical_cutoff(1, 0.1)
    with pytest.raises(ValueError):
        critical_cutoff(2, 0.5)
    with pytest.raises(ValueError):
        critical_cutoff(3, 0.5)
    with pytest.raises(ValueError):
        critical_cutoff(2, 0.0)


def test_bound_constant_values():
    assert bound_constant(2, 1.0) == pytest.approx(81.0)
    assert bound_constant(2, 1.5) == pytest.approx(243.0)
    assert bound_constant(2, 2.0) == pytest.approx(729.0)
    assert bound_constant(3, 2.5) == pytest.approx(55.0**3.5)
    assert bound_constant(3, 3.0) == pytest.approx(55.0**4)
    with pytest.raises(ValueError):
        bound_constant(3, 1.0)  # tau below n - 1


def test_filling_time_bound_value():
    assert filling_time_bound(2, 1.0, 0.1, 0.1) == pytest.approx(8100.0)
    assert filling_time_bound(2, 1.0, 0.4, 0.1) == pytest.approx(2025.0)
    with pytest.raises(ValueError):
        filling_time_bound(2, 1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        filling_time_bound(2, 1.0, 0.4, 0.6)


def test_filling_time_bound_decreases_in_delta():
    bounds = [
        filling_time_bound(2, 1.0, 0.4, d) for d in (0.05, 0.1, 0.2, 0.4)
    ]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))


def test_adapted_basis_rejects_resonant_direction():
    with pytest.raises(DiophantineRejection) as exc:
        adapted_basis(normalize([2.0, 1.0]), DioParams(2, 1.0, 0.1, 90.0))
    assert exc.value.witness.k == (1, -2)


def test_adapted_basis_requires_large_cutoff():
    # The construction needs cutoff > 1 + n^2 n! = 9 at n = 2.
    with pytest.raises(ValueError):
        adapted_basis(normalize([1.0, PHI]), DioParams(2, 1.0, 0.4, 9.0))


def test_adapted_basis_budget():
    """The budget bounds the whole call: the membership check (60
    candidates), the co-reciprocal scan (2) and the minima scan (10) charge
    one record, so the golden basis needs 72 in all."""
    with pytest.raises(ResourceLimitError):
        adapted_basis(normalize([1.0, PHI]), GOLDEN_PARAMS, budget=2)
    with pytest.raises(ResourceLimitError):
        adapted_basis(normalize([1.0, PHI]), GOLDEN_PARAMS, budget=71)
    adapted_basis(normalize([1.0, PHI]), GOLDEN_PARAMS, budget=72)
    with pytest.raises(ValueError, match="budget"):
        adapted_basis(normalize([1.0, PHI]), GOLDEN_PARAMS, budget=0)


def test_adapted_basis_budget_reaches_membership():
    """The membership scan counts against the caller's budget as well."""
    alpha = normalize([2.0, 1.0])
    params = DioParams(2, 1.0, 0.1, 90.0)
    with pytest.raises(ResourceLimitError):
        adapted_basis(alpha, params, budget=1)
    with pytest.raises(DiophantineRejection):
        adapted_basis(alpha, params, budget=10**6)


def test_adapted_basis_reduces_each_body_once_from_the_one_before(monkeypatch):
    """Seeded n=3 directions at N=275, tau=2, gamma=0.02.  After the
    membership shells, exactly two reductions: the reciprocal cylinder from
    the top shell's U, and the tube from the dual of the reciprocal U, an
    exact integer start of determinant +-1 (U^T times it is the exchange
    matrix); the minima scan and the extraction reuse the tube's frame."""
    from torusfill import lattice
    from torusfill.diophantine import _shells
    from torusfill.lattice import det_exact

    reductions = []
    reduce = lattice._lll_reduce

    def recording(body, start=None):
        U = reduce(body, start)
        reductions.append((body, start, U))
        return U

    monkeypatch.setattr(lattice, "_lll_reduce", recording)
    params = DioParams(dim=3, tau=2.0, gamma=0.02, cutoff=275.0)
    shells = len(_shells(params.cutoff))
    rng = np.random.default_rng(22)
    built = 0
    while built < 6:
        alpha = normalize(rng.standard_normal(3))
        reductions.clear()
        try:
            adapted_basis(alpha, params)
        except DiophantineRejection:
            continue
        built += 1
        assert len(reductions) == shells + 2
        (_, _, top), (reciprocal, from_top, U), (tube, start, _) = reductions[-3:]
        assert from_top is top
        assert reciprocal.axial_half == 1.0 / tube.axial_half
        assert abs(det_exact(start.tolist())) == 1
        exchange = [[int(i + j == 2) for j in range(3)] for i in range(3)]
        assert (U.T @ start).tolist() == exchange


def test_adapted_basis_golden_invariants(golden_basis):
    """Multiplier bounds, direction deviation, unimodularity."""
    ab = golden_basis
    n, tau = 2, 1.0
    upper = n * math.factorial(n) * 90.0**tau / 0.4
    for j in range(n):
        x = ab.multipliers[j]
        assert math.sqrt(3.0) / 2.0 < x <= upper + 1e-9
        w = ab.integer_basis.matrix()[:, j].astype(float)
        assert float(w @ ab.alpha) == pytest.approx(x, rel=1e-12)
        omega = ab.directions[j]
        assert np.allclose(omega, w / x)
        dev = float(np.linalg.norm(ab.alpha - omega))
        assert dev <= n * math.factorial(n) / (x * 89.0) + 1e-12
    assert abs(ab.integer_basis.determinant) == 1


def test_adapted_basis_golden_regression(golden_basis):
    # Fibonacci-pair columns; values pinned from the construction itself.
    ab = golden_basis
    assert ab.integer_basis.matrix().tolist() == [[55, 34], [89, 55]]
    assert np.allclose(
        ab.multipliers, [104.62313310988391, 64.66065227141274], atol=1e-9
    )


def test_adapted_basis_three_dimensions():
    alpha = np.array(
        [0.33762281984379466, 0.7549290071645922, -0.5622215094268518]
    )
    alpha /= np.linalg.norm(alpha)
    params = DioParams(3, 3.0, 0.05, 275.0)
    ab = adapted_basis(alpha, params)
    n = 3
    upper = n * math.factorial(n) * 275.0**3 / 0.05
    for j in range(n):
        x = ab.multipliers[j]
        assert math.sqrt(3.0) / 2.0 < x <= upper + 1e-6
        dev = float(np.linalg.norm(alpha - ab.directions[j]))
        assert dev <= n * math.factorial(n) / (x * 274.0) + 1e-12
    assert abs(ab.integer_basis.determinant) == 1


def test_construction_excludes_reciprocal_cylinder(golden_basis):
    """Acceptance of alpha makes the reciprocal cylinder lattice-free."""
    from torusfill import CylinderBody, coreciprocal_body, successive_minima

    N, gamma = 90.0, 0.4
    search = CylinderBody(golden_basis.alpha, N / gamma, 1.0 / (N - 1.0))
    first = successive_minima(coreciprocal_body(search)).lambdas[0]
    assert first > 1.0


def test_hitting_time_origin_is_zero(golden_basis):
    cert = hitting_time(golden_basis, [0.0, 0.0], 0.1)
    assert cert.time == 0.0
    assert cert.coords == (0.0, 0.0)
    assert cert.endpoint_distance == 0.0


def test_hitting_time_certificate_self_consistent(golden_basis):
    """Time, coords and endpoint distance all recompute from scratch."""
    cert = hitting_time(golden_basis, [0.3, 0.7], 0.1)
    assert cert.time == pytest.approx(44.31907038724772, abs=1e-9)
    weighted = sum(
        c * x for c, x in zip(cert.coords, golden_basis.multipliers)
    )
    assert cert.time == pytest.approx(weighted, rel=1e-12)
    endpoint = np.mod(cert.time * golden_basis.alpha, 1.0)
    assert torus_distance(endpoint, [0.3, 0.7]) == pytest.approx(
        cert.endpoint_distance, abs=1e-12
    )
    assert cert.endpoint_distance < 0.1
    assert cert.bound == pytest.approx(2025.0)
    assert cert.cutoff == 90.0


def test_hitting_time_coordinate_round_trip(golden_basis, rng):
    """Targets built as frac(M t) recover their coefficients t exactly.

    M is unimodular, so its inverse is integral and frac(M^-1 frac(M t))
    equals t up to float rounding in the forward product.
    """
    matrix = golden_basis.integer_basis.matrix().astype(float)
    for _ in range(20):
        t = rng.random(2)
        theta = np.mod(matrix @ t, 1.0)
        cert = hitting_time(golden_basis, theta, 0.1)
        assert np.allclose(cert.coords, t, atol=1e-9)
        expected_time = float(t @ golden_basis.multipliers)
        assert cert.time == pytest.approx(expected_time, rel=1e-9)


def test_hitting_time_sweep_within_guarantees(golden_basis, rng):
    bound = filling_time_bound(2, 1.0, 0.4, 0.1)
    max_time = float(np.sum(golden_basis.multipliers))
    for _ in range(50):
        theta = rng.random(2)
        cert = hitting_time(golden_basis, theta, 0.1)
        assert cert.endpoint_distance < 0.1 + 1e-9
        assert 0.0 <= cert.time < max_time
        assert cert.time < bound
        assert all(0.0 <= c < 1.0 for c in cert.coords)


def test_hitting_time_reduces_theta_modulo_one(golden_basis):
    # Quarters are binary-exact, so the reduction loses nothing.
    a = hitting_time(golden_basis, [0.25, 0.75], 0.1)
    b = hitting_time(golden_basis, [1.25, -0.25], 0.1)
    assert a.time == b.time
    assert a.coords == b.coords


def test_hitting_time_validates_input(golden_basis):
    with pytest.raises(ValueError):
        hitting_time(golden_basis, [0.3, 0.7], 0.5)
    with pytest.raises(ValueError):
        hitting_time(golden_basis, [0.3, 0.7, 0.1], 0.1)


@pytest.mark.parametrize("name", ["golden", "cubic", "random3"])
def test_adapted_basis_stores_exact_inverse(oracle_bases, name):
    ab, _ = oracle_bases[name]
    n = ab.params.dim
    identity = [[int(r == c) for c in range(n)] for r in range(n)]
    assert exact_product(ab.integer_basis.matrix(), ab.inverse) == identity
    assert all(type(v) is int for row in ab.inverse for v in row)


@pytest.mark.parametrize("name", ["golden", "cubic", "random3"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_hitting_time_matches_fraction_oracle(oracle_bases, name, data):
    """Certificates equal the adjugate-and-Fraction path's, bit for bit."""
    ab, delta = oracle_bases[name]
    coord = st.one_of(
        st.floats(min_value=-3.0, max_value=3.0), st.sampled_from(EDGE_COORDS)
    )
    n = ab.params.dim
    theta = data.draw(st.lists(coord, min_size=n, max_size=n))
    assert hitting_time(ab, theta, delta) == naive_hitting_time(ab, theta, delta)


@pytest.mark.parametrize("name", ["golden", "cubic", "random3"])
def test_hitting_time_matches_fraction_oracle_on_edge_targets(oracle_bases, name):
    ab, delta = oracle_bases[name]
    n = ab.params.dim
    for theta in itertools.product(EDGE_COORDS + [-0.25, 2.75], repeat=n):
        assert hitting_time(ab, theta, delta) == naive_hitting_time(ab, theta, delta)


def test_hitting_time_refuses_a_certificate_that_misses(golden_basis):
    """At the critical cutoff a miss is a bug, not a certificate.

    Swapping the multipliers leaves the coefficients intact but weights them
    with the wrong basis vectors, so the orbit time lands far from theta.
    """
    doctored = dataclasses.replace(
        golden_basis, multipliers=golden_basis.multipliers[::-1].copy()
    )
    with pytest.raises(InternalInvariantError, match="misses"):
        hitting_time(doctored, [0.3, 0.7], 0.1)
    # Below the critical cutoff (180 for delta 0.05) nothing is promised.
    cert = hitting_time(doctored, [0.3, 0.7], 0.05)
    assert cert.endpoint_distance >= 0.05
