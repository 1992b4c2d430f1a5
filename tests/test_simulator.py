import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_dense, naive_fill_time, torus_distance_oracle
from torusfill import (
    empirical_fill_time,
    normalize,
    resonant_demo_parameters,
    resonant_reference,
    torus_distance,
    verify_delta_dense,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0
CUBIC = [1.0, 2.0 ** (1.0 / 3.0), 4.0 ** (1.0 / 3.0)]


def test_torus_distance_known_cases():
    assert torus_distance([0.1, 0.1], [0.1, 0.1]) == 0.0
    assert torus_distance([0.05, 0.5], [0.95, 0.5]) == pytest.approx(0.1)
    assert torus_distance([0.1, 0.9], [0.9, 0.1]) == pytest.approx(
        math.sqrt(0.08)
    )
    assert torus_distance([0.0, 0.0], [0.5, 0.5]) == pytest.approx(
        math.sqrt(0.5)
    )


def test_torus_distance_matches_shift_oracle(rng):
    for _ in range(60):
        n = int(rng.integers(2, 4))
        p = rng.random(n)
        q = rng.random(n)
        assert torus_distance(p, q) == pytest.approx(
            torus_distance_oracle(p, q), abs=1e-12
        )


def test_torus_distance_shape_mismatch():
    with pytest.raises(ValueError):
        torus_distance([0.1, 0.2], [0.1, 0.2, 0.3])


def test_fill_time_golden_direction():
    alpha = normalize([1.0, PHI])
    res = empirical_fill_time(alpha, [0.0, 0.0], 0.2, 0.02, 200.0)
    assert res.fill_time == pytest.approx(5.46)
    assert res.uncovered_cells == 0
    # Reported time is a sample instant.
    assert res.fill_time / res.time_step == pytest.approx(
        round(res.fill_time / res.time_step)
    )


def test_fill_time_deterministic():
    alpha = normalize([1.0, PHI])
    a = empirical_fill_time(alpha, [0.0, 0.0], 0.2, 0.02, 200.0)
    b = empirical_fill_time(alpha, [0.0, 0.0], 0.2, 0.02, 200.0)
    assert a == b


def test_fill_time_budget_expiry_is_a_result():
    alpha = normalize([1.0, PHI])
    res = empirical_fill_time(alpha, [0.0, 0.0], 0.2, 0.02, 1.0)
    assert res.fill_time is None
    assert res.uncovered_cells > 0
    assert res.max_time == 1.0


def test_fill_time_three_dimensions():
    alpha = normalize([1.0, 2.0 ** (1.0 / 3.0), 4.0 ** (1.0 / 3.0)])
    res = empirical_fill_time(alpha, [0.0, 0.0, 0.0], 0.45, 0.05, 40.0)
    assert res.fill_time == pytest.approx(6.45)
    assert res.uncovered_cells == 0


def test_fill_time_rejects_unsupported_dimension():
    with pytest.raises(ValueError):
        empirical_fill_time(np.array([0.5] * 4), [0.0] * 4, 0.3, 0.03, 1.0)


def test_fill_time_rejects_uncertifiable_delta():
    # The conservative radius delta - side * sqrt(n) / 2 - dt / 2 must be > 0.
    alpha = normalize([1.0, PHI])
    with pytest.raises(ValueError):
        empirical_fill_time(alpha, [0.0, 0.0], 0.05, 0.2, 1.0)


def test_fill_time_start_shift_by_whole_cells_is_exact():
    """Shifting the start by grid vectors relabels cells and nothing else."""
    alpha = normalize([1.0, PHI])
    base = empirical_fill_time(
        alpha, [0.0, 0.0], 0.2, 0.02, 200.0, grid_side=1.0 / 16.0
    )
    for theta0 in ([0.25, 0.75], [0.5, 0.9375]):
        shifted = empirical_fill_time(
            alpha, theta0, 0.2, 0.02, 200.0, grid_side=1.0 / 16.0
        )
        assert shifted.fill_time == base.fill_time


def test_fill_time_start_dependence_stays_small(rng):
    # The underlying flow fills independently of the start; the discrete
    # certificate may shift the reported instant by a few steps because the
    # grid stays fixed while the orbit moves.  Band frozen from observed
    # behavior (max five steps over this sample).
    alpha = normalize([1.0, PHI])
    base = empirical_fill_time(alpha, [0.0, 0.0], 0.2, 0.02, 200.0)
    for _ in range(8):
        res = empirical_fill_time(alpha, rng.random(2), 0.2, 0.02, 200.0)
        assert res.fill_time is not None
        assert abs(res.fill_time - base.fill_time) <= 6 * 0.02 + 1e-12


def test_fill_time_grows_toward_near_resonance():
    """Directions hugging the x-axis take ever longer to fill at fixed delta.

    Measured times are not monotone for the first few slopes (4.70, 4.70,
    3.88 at q = 1, 2, 5), so the growth is asserted where it has set in.
    """
    times = []
    for q in (5, 10, 20, 40):
        alpha = normalize([float(q), math.sqrt(2.0)])
        res = empirical_fill_time(alpha, [0.0, 0.0], 0.2, 0.02, 4000.0)
        assert res.fill_time is not None
        times.append(res.fill_time)
    assert all(a < b for a, b in zip(times, times[1:]))
    base = empirical_fill_time(
        normalize([1.0, math.sqrt(2.0)]), [0.0, 0.0], 0.2, 0.02, 4000.0
    )
    assert times[-1] > 4.0 * base.fill_time


def test_verify_dense_accepts_fine_grid():
    xs = (np.arange(10) + 0.5) / 10.0
    pts = np.array([(x, y) for x in xs for y in xs])
    assert verify_delta_dense(pts, 0.12, grid_side=0.02) is None


def test_verify_dense_flags_single_point():
    out = verify_delta_dense([[0.5, 0.5]], 0.2, grid_side=0.05)
    assert out is not None
    # The reported center really is uncovered at the shrunken radius.
    assert torus_distance(out, [0.5, 0.5]) > 0.2 - 0.05 * math.sqrt(2.0) / 2.0


def test_verify_dense_on_closed_resonant_orbit():
    """The q=3 closed orbit is dense exactly down to its covering radius."""
    alpha, delta0, period = resonant_reference(3)
    dt = 0.002
    ts = np.arange(0.0, period + dt, dt)
    pts = np.mod(ts[:, None] * alpha[None, :], 1.0)
    # margin: sampling gap dt/2 plus grid shrink 0.01 * sqrt(2) / 2.
    assert verify_delta_dense(pts, delta0 + 0.012, grid_side=0.01) is None
    missed = verify_delta_dense(pts, delta0 - 0.01, grid_side=0.01)
    assert missed is not None
    dists = np.min(
        [torus_distance_oracle(missed, p) for p in pts[:: len(pts) // 500]]
    )
    assert dists > delta0 - 0.01 - 0.01 * math.sqrt(2.0)


def test_verify_dense_on_certified_endpoints():
    """Endpoints of hitting certificates plus orbit samples cover at 0.1."""
    from torusfill import DioParams, adapted_basis, hitting_time

    alpha = normalize([1.0, PHI])
    basis = adapted_basis(alpha, DioParams(2, 1.0, 0.4, 90.0))
    rng = np.random.default_rng(2024)
    endpoints = []
    for _ in range(1000):
        cert = hitting_time(basis, rng.random(2), 0.1)
        endpoints.append(np.mod(cert.time * alpha, 1.0))
    orbit_times = np.arange(0.0, 30.0, 0.02)
    orbit = np.mod(orbit_times[:, None] * alpha[None, :], 1.0)
    points = np.vstack([np.array(endpoints), orbit])
    assert verify_delta_dense(points, 0.1, grid_side=0.02) is None


def test_verify_dense_rejects_unsupported_dimension():
    with pytest.raises(ValueError):
        verify_delta_dense([[0.1] * 4], 0.3)


def test_resonant_reference_fields():
    for q in (1, 2, 5):
        alpha, delta, period = resonant_reference(q)
        assert np.allclose(alpha, np.array([q, 1.0]) / math.hypot(q, 1.0))
        assert period == pytest.approx(math.sqrt(q * q + 1.0))
        assert delta == pytest.approx(0.5 / period)
    with pytest.raises(ValueError):
        resonant_reference(0)
    for q in (2**512, 2**1024):
        with pytest.raises(ValueError, match="double range"):
            resonant_reference(q)


def test_resonant_demo_parameters_contract():
    for q in (1, 4):
        p = resonant_demo_parameters(q)
        assert p["expected_time"] == pytest.approx(math.sqrt(q * q + 1.0))
        assert p["tolerance"] == pytest.approx(2.0 * p["dt"])
        assert p["delta_test"] > p["delta_reference"]
        assert p["max_time"] >= 2.0 * p["expected_time"]


def test_resonant_demo_measurement_single_case():
    p = resonant_demo_parameters(2)
    res = empirical_fill_time(
        p["alpha"],
        [0.0, 0.0],
        p["delta_test"],
        p["dt"],
        p["max_time"],
        grid_side=p["grid_side"],
    )
    assert res.fill_time is not None
    assert abs(res.fill_time - p["expected_time"]) <= p["tolerance"]


def _oracle_case(alpha, theta0, radius, dt, max_time, cells):
    """Simulator and dense oracle on one input; delta yields the radius."""
    n = len(theta0)
    delta = radius + math.sqrt(n) / (2.0 * cells) + dt / 2.0
    args = (normalize(alpha), theta0, delta, dt, max_time)
    got = empirical_fill_time(*args, grid_side=1.0 / cells)
    assert got == naive_fill_time(*args, grid_side=1.0 / cells)
    return got


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    data=st.data(),
    radius=st.floats(0.001, 0.8),
    dt=st.sampled_from([0.005, 0.02, 0.1, 0.4]),
    max_time=st.floats(0.0, 6.0),
)
def test_fill_time_matches_dense_oracle(n, data, radius, dt, max_time):
    direction = data.draw(
        st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).filter(
            lambda v: math.hypot(*v) > 0.1
        )
    )
    theta0 = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    cells = data.draw(st.integers(1, 30 if n == 2 else 12))
    _oracle_case(direction, theta0, radius, dt, max_time, cells)


@pytest.mark.parametrize(
    "alpha, theta0, radius, dt, max_time, cells",
    [
        # Orbits crossing 0/1 on every axis, forwards and backwards.
        ([1.0, 1.3], [0.97, 0.985], 0.06, 0.01, 12.0, 20),
        ([-1.0, -PHI], [0.02, 0.01], 0.06, 0.01, 12.0, 20),
        (CUBIC, [0.98, 0.99, 0.97], 0.12, 0.02, 12.0, 10),
        # Windows reaching around the whole torus (2 * reach + 1 >= cells).
        ([1.0, PHI], [0.3, 0.6], 0.42, 0.05, 5.0, 4),
        ([1.0, PHI], [0.0, 0.0], 0.7, 0.05, 5.0, 9),
        (CUBIC, [0.1, 0.5, 0.9], 0.3, 0.05, 5.0, 4),
        # Expiry: the uncovered counts must agree.
        ([1.0, PHI], [0.2, 0.4], 0.05, 0.02, 1.5, 25),
        (CUBIC, [0.0, 0.0, 0.0], 0.1, 0.02, 2.0, 12),
    ],
)
def test_fill_time_matches_dense_oracle_fixed(
    alpha, theta0, radius, dt, max_time, cells
):
    _oracle_case(alpha, theta0, radius, dt, max_time, cells)


def test_swept_cover_charges_its_cells_before_allocating(monkeypatch):
    """The cells^n booleans count against the default budget of 1e8: the
    n=2, delta=1e-4 grid (28,285^2 = 8.0e8 cells) and the n=3,
    delta=1e-3 grid (3,465^3 = 4.2e10) are refused before numpy allocates,
    and 10^4^2 = 1e8 cells are exactly the limit."""
    from torusfill.lattice import DEFAULT_BUDGET, ResourceLimitError
    from torusfill.simulator import _SweptCover, _grid_setup

    zeros = np.zeros

    def small_zeros(shape, *args, **kwargs):
        assert np.prod(shape) <= 10**6, "cover allocated"
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", small_zeros)
    for n, delta in ((2, 1e-4), (3, 1e-3)):
        cells, _, radius = _grid_setup(n, delta, 0.0, None)
        assert cells**n > DEFAULT_BUDGET
        with pytest.raises(ResourceLimitError):
            _SweptCover(n, cells, radius)
    with pytest.raises(AssertionError, match="cover allocated"):
        _SweptCover(2, 10**4, 1e-3)


def test_fill_time_exact_when_cells_reenter_within_a_block():
    """q=1 closed orbit on a coarse grid: one marking block spans several
    periods, so cells leave the ball and re-enter it within the block."""
    from torusfill.simulator import _SweptCover

    alpha, delta0, period = resonant_reference(1)
    dt, cells = 0.01, 20
    radius = delta0 + 2e-4
    assert _SweptCover(2, cells, radius).block * dt > 2.0 * period
    res = _oracle_case(alpha, [0.0, 0.0], radius, dt, 3.0 * period, cells)
    assert res.fill_time is not None and res.fill_time > 0.5 * period


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_resonant_suite_matches_dense_oracle(q):
    p = resonant_demo_parameters(q)
    args = (p["alpha"], [0.0, 0.0], p["delta_test"], p["dt"], p["max_time"])
    got = empirical_fill_time(*args, grid_side=p["grid_side"])
    assert got == naive_fill_time(*args, grid_side=p["grid_side"])


def _same_dense(points, delta, grid_side):
    got = verify_delta_dense(points, delta, grid_side=grid_side)
    want = naive_dense(points, delta, grid_side=grid_side)
    assert (got is None) == (want is None)
    if got is not None:
        assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    cells=st.integers(1, 25),
    radius=st.floats(0.01, 0.8),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 80),
)
def test_verify_dense_matches_dense_oracle(n, cells, radius, seed, count):
    points = np.random.default_rng(seed).uniform(-1.0, 2.0, size=(count, n))
    _same_dense(points, radius + math.sqrt(n) / (2.0 * cells), 1.0 / cells)


def test_verify_dense_matches_dense_oracle_on_orbits():
    alpha, delta0, period = resonant_reference(3)
    ts = np.arange(0.0, period + 0.002, 0.002)
    orbit = np.mod(ts[:, None] * alpha[None, :], 1.0)
    for delta in (delta0 + 0.012, delta0 - 0.01):
        _same_dense(orbit, delta, 0.01)
    cubic = normalize(CUBIC)
    orbit3 = np.mod(np.arange(0.0, 30.0, 0.05)[:, None] * cubic[None, :], 1.0)
    for delta in (0.2, 0.35):
        _same_dense(orbit3, delta, 0.05)


@pytest.mark.parametrize("grid_side", [0.0, -0.5, 1.5, math.nan])
def test_verify_dense_rejects_bad_grid_side(grid_side):
    with pytest.raises(ValueError, match="grid side"):
        verify_delta_dense([[0.5, 0.5]], 0.3, grid_side=grid_side)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_verify_dense_rejects_non_finite_input(bad):
    with pytest.raises(ValueError):
        verify_delta_dense([[0.5, bad]], 0.3)
    with pytest.raises(ValueError):
        verify_delta_dense([[0.5, 0.5]], bad, grid_side=0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["theta0", "delta", "dt", "max_time"])
def test_fill_time_rejects_non_finite_input(field, bad):
    args = {"theta0": [0.0, 0.0], "delta": 0.2, "dt": 0.02, "max_time": 5.0}
    args[field] = [0.0, bad] if field == "theta0" else bad
    with pytest.raises(ValueError):
        empirical_fill_time(normalize([1.0, PHI]), grid_side=0.05, **args)
