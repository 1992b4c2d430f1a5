import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusfill.diophantine as dio
from conftest import (
    naive_best_gamma,
    naive_check_truncated,
    naive_resonance_search,
    naive_violation,
    naive_worst_margin,
)
from torusfill import (
    CylinderBody,
    DioParams,
    ResourceLimitError,
    best_gamma,
    check_truncated,
    complement_measure_estimate,
    lattice_points_in,
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
    with pytest.raises(ValueError):
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


def test_check_accepts_diagonal_direction_at_order_one():
    # Only (1,0) and (0,1) have norm <= 1; both inner products are 1/sqrt(2).
    alpha = normalize([1.0, 1.0])
    assert check_truncated(alpha, DioParams(2, 1.0, 0.5, 1.0)) is None


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


# Directions with exact resonances and many equal-norm ties among them.
RESONANT = [
    (1, 1), (2, 1), (3, 4), (1, 1, 1), (1, 2, 3), (1, 2, 2), (0, 1, 1),
    (1, 1, 1, 1), (1, 2, 2, 4), (1, 0, 0, 1),
]
# Largest cutoff drawn per dimension, to keep the box-scan oracle cheap.
ORACLE_CUTOFF = {2: 1000.0, 3: 100.0, 4: 20.0}


def _draw_direction(data, integer_directions):
    """One of the integer directions with random signs, or a Gaussian one."""
    if data.draw(st.booleans(), label="resonant"):
        vec = np.array(data.draw(st.sampled_from(integer_directions)), dtype=float)
        signs = data.draw(
            st.lists(st.sampled_from([-1.0, 1.0]), min_size=vec.size,
                     max_size=vec.size)
        )
        return normalize(vec * np.array(signs))
    n = data.draw(st.integers(2, 4), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    return normalize(np.random.default_rng(seed).standard_normal(n))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_check_matches_pivot_scan_oracle(data):
    """Witnesses equal the box scan's bit for bit: k, inner and threshold."""
    alpha = _draw_direction(data, RESONANT)
    n = alpha.size
    tau = data.draw(st.floats(n - 1.0, n + 2.0), label="tau")
    gamma = data.draw(st.floats(1e-4, 0.9), label="gamma")
    # Cutoffs below 2 scan a single shell.
    cutoff = data.draw(
        st.one_of(st.floats(1.0, 1.99), st.floats(1.0, ORACLE_CUTOFF[n])),
        label="cutoff",
    )
    params = DioParams(n, tau, gamma, cutoff)
    assert check_truncated(alpha, params) == naive_check_truncated(alpha, params)


@pytest.mark.parametrize(
    "n,tau,gamma,cutoff,count",
    [(3, 2.0, 0.02, 275.0, 12), (4, 3.0, 0.002, 60.0, 2), (2, 1.0, 0.4, 500.0, 12)],
)
def test_check_matches_pivot_scan_oracle_at_scale(n, tau, gamma, cutoff, count):
    """Benchmark-scale cutoffs, where inner products carry the most rounding."""
    rng = np.random.default_rng(1000 + n)
    dirs = [normalize(rng.standard_normal(n)) for _ in range(count)]
    dirs.append(normalize(np.ones(n)))
    params = DioParams(n, tau, gamma, cutoff)
    for alpha in dirs:
        assert check_truncated(alpha, params) == naive_check_truncated(alpha, params)


@pytest.mark.parametrize("tau", [30.0, 200.0])
def test_check_with_thresholds_below_the_slack(tau):
    """Shells whose threshold is below the slack (or underflows) hold none."""
    alpha = golden_direction()
    params = DioParams(2, tau, 0.01, 1e4)
    assert check_truncated(alpha, params) is None
    assert naive_check_truncated(alpha, params) is None


def test_check_budget():
    alpha = golden_direction()
    params = DioParams(2, 1.0, 0.4, 90.0)
    with pytest.raises(ResourceLimitError):
        check_truncated(alpha, params, budget=1)
    for budget in (0, -1):
        with pytest.raises(ValueError, match="budget"):
            check_truncated(alpha, params, budget=budget)
    assert check_truncated(alpha, params, budget=None) is None


def _least_budget(call):
    """Smallest budget under which call(budget) does not run out."""
    lo, hi = 1, 1
    while True:
        try:
            call(hi)
            break
        except ResourceLimitError:
            lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            call(mid)
            hi = mid
        except ResourceLimitError:
            lo = mid + 1
    return lo


def test_check_budget_counts_all_shells_together():
    """One budget record spans the shells r = 90, 45, ..., 1.40625."""
    alpha = golden_direction()
    params = DioParams(2, 1.0, 0.4, 90.0)
    total = _least_budget(lambda b: check_truncated(alpha, params, budget=b))
    shells = [90.0 / 2**j for j in range(7)]
    per_shell = [
        _least_budget(
            lambda b, r=r: lattice_points_in(
                CylinderBody(alpha, 0.4 * max(r / 2.0, 1.0) ** -1.0, r),
                1.0,
                budget=b,
            )
        )
        for r in shells
    ]
    assert total == sum(per_shell)


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


# Integer directions with zero entries, whose resonances include unit
# vectors and whose smallest |alpha_i| is 0.
ZEROS = [(1, 0), (0, 0, 1), (0, 2, 1), (1, 0, 2, 0)]
# Largest cutoff drawn per dimension for the whole-box oracles.
BOX_CUTOFF = {2: 300.0, 3: 30.0, 4: 10.0}


def _draw_cutoff(data, n):
    # Cutoffs below 2 scan a single shell.
    return data.draw(
        st.one_of(st.floats(1.0, 1.99), st.floats(1.0, BOX_CUTOFF[n])),
        label="cutoff",
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_best_gamma_matches_box_scan_oracle(data):
    """(gamma_max, argmin_k) equal the whole-box scan's bit for bit."""
    alpha = _draw_direction(data, RESONANT + ZEROS)
    n = alpha.size
    tau = data.draw(
        st.one_of(st.sampled_from([0.0, n - 1.0, float(n), n + 0.5, 30.0]),
                  st.floats(0.0, n + 2.0)),
        label="tau",
    )
    cutoff = _draw_cutoff(data, n)
    assert best_gamma(alpha, tau, cutoff) == naive_best_gamma(alpha, tau, cutoff)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_resonance_search_matches_box_scan_oracle(data):
    """Reports (k, order, residual) equal the whole-box scan's bit for bit."""
    alpha = _draw_direction(data, RESONANT + ZEROS)
    max_order = _draw_cutoff(data, alpha.size)
    tol = data.draw(
        st.one_of(st.just(0.0), st.floats(1e-6, 1e-2)), label="tol"
    )
    got = resonance_search(alpha, max_order, tol)
    assert got == naive_resonance_search(alpha, max_order, tol)


CUBIC = normalize([1.0, 2.0 ** (1.0 / 3.0), 4.0 ** (1.0 / 3.0)])


@pytest.mark.parametrize(
    "alpha,tau,cutoff",
    [(golden_direction(), 1.0, 2000.0), (CUBIC, 2.0, 100.0), (CUBIC, 2.0, 275.0)],
)
def test_best_gamma_matches_box_scan_oracle_at_scale(alpha, tau, cutoff):
    assert best_gamma(alpha, tau, cutoff) == naive_best_gamma(alpha, tau, cutoff)


@pytest.mark.parametrize(
    "alpha,tau,cutoff",
    [(normalize([0.0, 1.0, 1.0]), 2.0, 100.0),
     (normalize([1.0, 1.0, 1.0, 1.0]), 3.0, 20.0)],
)
def test_best_gamma_stops_at_an_exact_resonance(alpha, tau, cutoff):
    """Once the minimum is 0 no later shell can win, so none is scanned.

    Scanning every shell takes about 60,000 candidates on both directions;
    the shells up to the resonance take 15 and 166.
    """
    expected = naive_best_gamma(alpha, tau, cutoff)
    assert expected[0] == 0.0
    assert best_gamma(alpha, tau, cutoff) == expected
    assert best_gamma(alpha, tau, cutoff, budget=1000) == expected


def test_resonance_search_matches_box_scan_oracle_at_order_60():
    """Seeded resonant integer directions (tol 0) and generic ones (tol 1e-3)."""
    rng = np.random.default_rng(60)
    for _ in range(4):
        while True:
            v = rng.integers(-20, 21, size=3)
            if math.gcd(*v.tolist()) == 1 and 300 <= int(v @ v) <= 400:
                break
        for alpha, tol in ((normalize(v.astype(float)), 0.0),
                           (normalize(rng.standard_normal(3)), 1e-3)):
            got = resonance_search(alpha, 60.0, tol)
            assert got == naive_resonance_search(alpha, 60.0, tol)
            assert tol > 0.0 or len(got) > 100


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, -1.0])
def test_best_gamma_rejects_bad_tau(tau):
    with pytest.raises(ValueError, match="tau must be finite and >= 0"):
        best_gamma(golden_direction(), tau, 10.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, -1e-300])
def test_resonance_search_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        resonance_search(golden_direction(), 10.0, tol)


def test_diophantine_scan_budgets():
    alpha = golden_direction()
    scans = [
        lambda b: best_gamma(alpha, 1.0, 90.0, budget=b),
        lambda b: resonance_search(alpha, 60.0, 1e-3, budget=b),
        lambda b: complement_measure_estimate(
            DioParams(2, 2.0, 0.02, 20.0), 100, 0, budget=b
        ),
    ]
    for scan in scans:
        with pytest.raises(ResourceLimitError):
            scan(1)
        for budget in (0, -1):
            with pytest.raises(ValueError, match="budget"):
                scan(budget)
        scan(None)
    # The measure box [-20, 20]^2 holds 41^2 candidates.
    assert _least_budget(scans[2]) == 41**2


@pytest.mark.parametrize(
    "scan",
    [
        lambda b: best_gamma(golden_direction(), 1.0, 2000.0, budget=b),
        lambda b: best_gamma(CUBIC, 2.0, 100.0, budget=b),
        lambda b: resonance_search(normalize([3.0, 4.0, 12.0]), 30.0, budget=b),
    ],
)
def test_scan_budget_is_the_sum_over_its_cylinders(monkeypatch, scan):
    """One budget record spans every cylinder a scan enumerates."""
    calls = []
    enumerate_points = dio._fp_points

    def recording(body, lam, work, frame=None):
        before = work.candidates
        pts = enumerate_points(body, lam, work, frame)
        calls.append((body, work.candidates - before))
        return pts

    monkeypatch.setattr(dio, "_fp_points", recording)
    scan(None)
    cylinders = list(calls)
    for body, used in cylinders:
        assert used == _least_budget(
            lambda b, body=body: lattice_points_in(body, 1.0, budget=b)
        )
    assert _least_budget(scan) == sum(used for _, used in cylinders)


@pytest.mark.parametrize("n,tau,cutoff,samples", [(2, 2.0, 20.0, 20000),
                                                 (3, 2.0, 8.0, 5000),
                                                 (4, 3.0, 4.0, 2000)])
def test_worst_margin_matches_box_scan_oracle(n, tau, cutoff, samples):
    raw = np.random.default_rng(n).standard_normal((samples, n))
    dirs = raw / np.linalg.norm(raw, axis=1)[:, None]
    got = dio._worst_margin(dirs, tau, cutoff)
    assert np.array_equal(got, naive_worst_margin(dirs, tau, cutoff))


# Largest measure cutoff drawn per dimension, to keep the box-scan oracle cheap.
MEASURE_CUTOFF = {2: 20.0, 3: 8.0, 4: 4.0}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_measure_estimate_matches_box_scan_oracle(data):
    """The fraction is the box scan's; every margin is within the dgemm bound."""
    n = data.draw(st.integers(2, 4), label="n")
    tau = data.draw(st.sampled_from([n - 1.0, float(n), n + 0.5]), label="tau")
    cutoff = data.draw(st.floats(1.0, MEASURE_CUTOFF[n]), label="cutoff")
    gamma = data.draw(st.floats(1e-3, 0.5), label="gamma")
    samples = data.draw(st.integers(1, 3000), label="samples")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    raw = np.random.default_rng(seed).standard_normal((samples, n))
    dirs = raw / np.linalg.norm(raw, axis=1)[:, None]
    ref = naive_worst_margin(dirs, tau, cutoff)
    got = dio._worst_margin(dirs, tau, cutoff)
    assert np.all(np.abs(got - ref) <= 4 * n * 2.0**-53 * cutoff ** (1 + tau))
    fraction, _ = complement_measure_estimate(
        DioParams(n, tau, gamma, cutoff), samples, seed
    )
    assert fraction == float(np.mean(ref < gamma))


@pytest.mark.parametrize("n,cutoff,count", [(2, 20.0, 384), (3, 8.0, 877)])
def test_measure_scans_sign_canonical_primitive_k(n, cutoff, count):
    """The columns are the ball's k with gcd 1 and first nonzero entry > 0."""
    half = int(cutoff)
    expected = {
        k
        for k in itertools.product(range(-half, half + 1), repeat=n)
        if 0 < sum(x * x for x in k) <= cutoff * cutoff
        and math.gcd(*k) == 1
        and next(x for x in k if x != 0) > 0
    }
    kt = dio._MarginScan(n, 2.0, cutoff, dio._Work(None)).kt
    columns = [tuple(int(x) for x in col) for col in kt.T]
    assert len(columns) == len(set(columns)) == count
    assert set(columns) == expected


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


# (n, tau, gamma, N) of the screen workload: the membership of the n=3
# adapted basis and the n=4 check.
CHAIN_PARAMS = [(3, 2.0, 0.02, 275.0), (4, 3.0, 0.002, 60.0)]


def _recorded_shells(monkeypatch, scan):
    """(body, frame, points) of every cylinder ``scan`` enumerates, and the
    start each reduction was given."""
    from torusfill import lattice

    shells, starts = [], []
    enumerate_points, reduce = dio._fp_points, lattice._lll_reduce

    def recording(body, lam, work, frame=None):
        pts = enumerate_points(body, lam, work, frame)
        shells.append((body, frame, pts))
        return pts

    def recording_reduce(body, start=None):
        starts.append(start)
        return reduce(body, start)

    monkeypatch.setattr(dio, "_fp_points", recording)
    monkeypatch.setattr(lattice, "_lll_reduce", recording_reduce)
    scan()
    return shells, starts


@pytest.mark.parametrize("n,tau,gamma,cutoff", CHAIN_PARAMS)
def test_shell_frames_chain_and_keep_the_cold_points(monkeypatch, n, tau, gamma, cutoff):
    """Each shell is reduced once, starting from the U of the shell before
    (the first from the identity), and its point set contains the set of a
    reduction from the identity."""
    from torusfill import lattice

    params = DioParams(dim=n, tau=tau, gamma=gamma, cutoff=cutoff)
    rng = np.random.default_rng(22)
    for _ in range(12):
        alpha = normalize(rng.standard_normal(n))
        for scan in (
            lambda: check_truncated(alpha, params),
            lambda: best_gamma(alpha, tau, cutoff),
        ):
            shells, starts = _recorded_shells(monkeypatch, scan)
            monkeypatch.undo()
            assert len(starts) == len(shells) and starts[0] is None
            for (_, before, _), start in zip(shells, starts[1:]):
                assert start is before.U
            for body, frame, warm in shells:
                assert frame.body is body
                cold = lattice._fp_points(body, 1.0, lattice._Work(None))
                assert {tuple(k) for k in cold.tolist()} <= {
                    tuple(k) for k in warm.tolist()
                }


def test_chained_top_shell_holds_the_point_the_identity_start_misses(monkeypatch):
    """On this n=4 direction the identity start of the top shell
    (N=60, tau=3, gamma=0.002) stops at the LLL's multiplier cap, and its
    sweep misses k = (9, -47, -22, 19), gauge 0.933 (0.9331845 in 60-digit
    Decimal).  Started from the shell below, the shell holds it."""
    alpha = np.array([
        -0.46503871913724476, -0.09549042544827963,
        0.5831081157939243, 0.6592461555793532,
    ])
    params = DioParams(dim=4, tau=3.0, gamma=0.002, cutoff=60.0)
    shells, _ = _recorded_shells(monkeypatch, lambda: check_truncated(alpha, params))
    body, _, points = shells[-1]
    assert (body.axial_half, body.radial_half) == (0.002 * 30.0**-3, 60.0)
    k = (9, -47, -22, 19)
    assert 0.933 < body.gauge(np.array(k, dtype=float)) < 0.934
    assert k in {tuple(p) for p in points.tolist()}
