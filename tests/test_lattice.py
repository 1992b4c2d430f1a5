import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    naive_gauge,
    naive_lattice_points,
    naive_lll_reduce,
    naive_minima,
    naive_sweep_count,
)
from torusfill import (
    CylinderBody,
    DiamondBody,
    IntegerBasis,
    InternalInvariantError,
    MinimaResult,
    ResourceLimitError,
    coreciprocal_body,
    det_exact,
    dilation_needed,
    duality_check,
    extract_zbasis,
    lattice_points_in,
    normalize,
    polar_body,
    successive_minima,
)
from torusfill import lattice
from torusfill.diophantine import _shells


def random_body(rng, dims=(2, 3)):
    n = int(rng.choice(dims))
    axis = rng.standard_normal(n)
    axis /= np.linalg.norm(axis)
    if rng.random() < 0.5:
        return CylinderBody(
            axis,
            float(rng.uniform(0.8, 3.0)),
            float(rng.uniform(0.3, 1.5)),
        )
    return DiamondBody(
        axis,
        float(rng.uniform(0.4, 2.0)),
        float(rng.uniform(0.4, 2.0)),
    )


def test_det_exact_known_values():
    assert det_exact([[1, 0], [0, 1]]) == 1
    assert det_exact([[2, 1], [1, 1]]) == 1
    assert det_exact([[1, 2], [2, 4]]) == 0
    assert det_exact([[0, 1], [1, 0]]) == -1


def test_det_exact_matches_float_det(rng):
    for _ in range(40):
        n = int(rng.integers(2, 6))
        m = rng.integers(-6, 7, size=(n, n))
        assert det_exact(m.tolist()) == round(float(np.linalg.det(m)))


def test_body_validation():
    with pytest.raises(ValueError):
        CylinderBody(np.array([1.0, 1.0]), 2.0, 0.5)  # axis not unit
    with pytest.raises(ValueError):
        CylinderBody(np.array([1.0, 0.0]), -1.0, 0.5)
    with pytest.raises(ValueError):
        DiamondBody(np.array([1.0, 0.0]), 0.0, 0.5)


def test_volumes_match_closed_forms():
    axis2 = np.array([0.6, 0.8])
    axis3 = np.array([0.0, 1.0, 0.0])
    a, b = 2.0, 0.5
    assert CylinderBody(axis2, a, b).volume() == pytest.approx(4 * a * b)
    assert CylinderBody(axis3, a, b).volume() == pytest.approx(
        2 * a * math.pi * b * b
    )
    assert DiamondBody(axis2, a, b).volume() == pytest.approx(2 / (a * b))
    assert DiamondBody(axis3, a, b).volume() == pytest.approx(
        2 * math.pi / (3 * a * b * b)
    )


def test_gauge_matches_definition(rng):
    """Gauge equals the dilation solved directly from the membership test."""
    for _ in range(30):
        body = random_body(rng)
        k = rng.integers(-5, 6, size=body.dim)
        if not np.any(k):
            continue
        assert dilation_needed(body, k) == pytest.approx(
            naive_gauge(body, k), rel=1e-12
        )


def test_dilation_needed_axis_aligned_values():
    cyl = CylinderBody(np.array([1.0, 0.0]), 3.0, 0.4)
    assert dilation_needed(cyl, [1, 0]) == pytest.approx(1.0 / 3.0)
    assert dilation_needed(cyl, [0, 1]) == pytest.approx(2.5)
    dia = DiamondBody(np.array([1.0, 0.0]), 3.0, 0.4)
    assert dilation_needed(dia, [0, 1]) == pytest.approx(0.4)


def test_gauge_scales_linearly():
    body = CylinderBody(np.array([0.6, 0.8]), 2.0, 0.5)
    k = np.array([3.0, -1.0])
    assert body.gauge(2.0 * k) == pytest.approx(2.0 * body.gauge(k))


def test_dilation_needed_rejects_zero():
    body = CylinderBody(np.array([1.0, 0.0]), 1.0, 1.0)
    with pytest.raises(ValueError):
        dilation_needed(body, [0, 0])


def test_lattice_points_match_box_scan(rng):
    for _ in range(20):
        body = random_body(rng)
        lam = float(rng.uniform(0.8, 2.5))
        got = {tuple(int(x) for x in p) for p in lattice_points_in(body, lam)}
        want = {tuple(int(x) for x in p) for p in naive_lattice_points(body, lam)}
        assert got == want


def test_lattice_points_axis_aligned_enumeration():
    body = CylinderBody(np.array([1.0, 0.0]), 3.0, 0.4)
    pts = {tuple(int(x) for x in p) for p in lattice_points_in(body, 1.0)}
    assert pts == {(s * m, 0) for s in (-1, 1) for m in (1, 2, 3)}
    # At dilation 0.3 the cylinder admits no nonzero integer point.
    assert len(lattice_points_in(body, 0.3)) == 0


def test_lattice_points_sorted_and_signed():
    body = CylinderBody(np.array([1.0, 0.0]), 2.0, 1.2)
    pts = lattice_points_in(body, 1.0)
    gauges = [body.gauge(np.asarray(p, dtype=float)) for p in pts]
    assert gauges == sorted(gauges)
    as_set = {tuple(int(x) for x in p) for p in pts}
    for p in as_set:
        assert tuple(-x for x in p) in as_set


def test_minima_match_naive_oracle(rng):
    for _ in range(12):
        body = random_body(rng)
        res = successive_minima(body)
        lam_naive, _ = naive_minima(body)
        assert np.allclose(list(res.lambdas), lam_naive, atol=1e-12)
        # Witnesses are independent and realize their dilations exactly.
        wit = np.array(res.witnesses, dtype=float)
        assert np.linalg.matrix_rank(wit) == body.dim
        for lam, w in zip(res.lambdas, res.witnesses):
            assert dilation_needed(body, w) == pytest.approx(lam, rel=1e-12)


def test_minima_are_nondecreasing(rng):
    for _ in range(8):
        body = random_body(rng, dims=(2, 3, 4))
        lams = list(successive_minima(body).lambdas)
        assert all(a <= b + 1e-15 for a, b in zip(lams, lams[1:]))


def test_minima_axis_aligned_cylinder_exact():
    # Unit vectors e1 and e2 are the first two minima witnesses up to sign.
    body = CylinderBody(np.array([1.0, 0.0]), 3.0, 0.4)
    res = successive_minima(body)
    assert res.lambdas[0] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert res.lambdas[1] == pytest.approx(2.5, rel=1e-12)


def test_minima_axis_aligned_diamond_exact():
    body = DiamondBody(np.array([1.0, 0.0]), 3.0, 0.4)
    res = successive_minima(body)
    assert res.lambdas[0] == pytest.approx(0.4, rel=1e-12)
    assert res.lambdas[1] == pytest.approx(3.0, rel=1e-12)
    assert res.witnesses == ((0, 1), (1, 0))


def test_minima_reject_a_dependent_candidate(monkeypatch):
    """Only primitive candidates are ranked, and a dependent primitive one
    is kept out by the zero gcd of its minors with the chosen ones."""
    ranked = []
    zeros = []
    gcd = lattice._minors_gcd

    def spy(vectors):
        g = gcd(vectors)
        ranked.append(tuple(vectors[-1]))
        if g == 0:
            zeros.append(tuple(vectors[-1]))
        return g

    monkeypatch.setattr(lattice, "_minors_gcd", spy)
    # 2 e1 (dilation 2/3) would come before e3 and e2 (dilation 5/3) in the
    # order; the primitivity filter drops it before any gcd is taken.
    body = CylinderBody(np.array([1.0, 0.0, 0.0]), 3.0, 0.6)
    res = successive_minima(body)
    assert res.witnesses == ((1, 0, 0), (0, 0, 1), (0, 1, 0))
    assert res.lambdas == pytest.approx((1.0 / 3.0, 1.0 / 0.6, 1.0 / 0.6))
    assert (2, 0, 0) not in ranked
    assert np.allclose(res.lambdas, naive_minima(body)[0], atol=1e-12)
    # e1 ties e2 and follows it lexicographically, after (1, 1, 0): it is
    # primitive but dependent on the two.
    ranked.clear()
    body = CylinderBody(normalize([1.0, 1.0, 0.0]), 3.0, 0.6)
    res = successive_minima(body)
    assert res.witnesses == ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    assert (1, 0, 0) in zeros
    assert np.allclose(res.lambdas, naive_minima(body)[0], atol=1e-12)


def _lll_oracle_bodies():
    """Seeded bodies of the enumerator's callers, and a ratio sweep."""
    rng = np.random.default_rng(1313)

    def unit(n):
        v = rng.standard_normal(n)
        return v / np.linalg.norm(v)

    bodies = []
    for n in (2, 3, 4):
        for log_ratio in range(-6, 9):
            for family in (CylinderBody, DiamondBody):
                radial = 10.0 ** rng.uniform(-1.0, 0.5)
                bodies.append(family(unit(n), radial * 10.0**log_ratio, radial))
    # The shells of check_truncated at n=4, tau=3, gamma=0.002, N=60.
    for _ in range(4):
        alpha = unit(4)
        for _, r in _shells(60.0):
            axial = 0.002 * max(r / 2.0, 1.0) ** -3.0
            bodies.append(CylinderBody(alpha, axial, r))
    # The tube of adapted_basis at n=3, tau=2, gamma=0.02, N=275, and its
    # co-reciprocal cylinder.
    for _ in range(4):
        tube = CylinderBody(unit(3), 275.0**2 / 0.02, 1.0 / 274.0)
        bodies.extend([tube, coreciprocal_body(tube)])
    return bodies


def test_lll_reduce_matches_float_gram_schmidt_oracle():
    """The R-factor LLL returns the same unimodular U as the float
    Gram-Schmidt oracle, bit for bit: U fixes the sweep's output order."""
    for body in _lll_oracle_bodies():
        U = lattice._lll_reduce(body)
        assert U.dtype == np.int64
        assert np.array_equal(U, naive_lll_reduce(body))
        assert abs(det_exact(U.tolist())) == 1


# Largest |log10(axial / radial)| at which the float LLLs are compared bit
# for bit.  From about 1e9 on, rounding in R flips an occasional multiplier
# or Lovasz test against the oracle's Gram-Schmidt (about 0.3% of bodies
# drawn in 1e9-1e10), whether swaps refactor R or rotate it.
LLL_ORACLE_LOG_RATIO = 8.0


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    log_ratio=st.floats(-LLL_ORACLE_LOG_RATIO, LLL_ORACLE_LOG_RATIO),
    log_radial=st.floats(-3.0, 3.0),
    family=st.sampled_from([CylinderBody, DiamondBody]),
)
def test_lll_reduce_matches_oracle_on_drawn_bodies(
    n, seed, log_ratio, log_radial, family
):
    """The Givens-updated LLL makes the oracle's decisions on any body whose
    axial-to-radial ratio stays inside the oracle's reliable range."""
    axis = np.random.default_rng(seed).standard_normal(n)
    radial = 10.0**log_radial
    body = family(axis / np.linalg.norm(axis), radial * 10.0**log_ratio, radial)
    assert np.array_equal(lattice._lll_reduce(body), naive_lll_reduce(body))


def test_lll_reduce_factors_once(monkeypatch):
    """One QR per reduction: swaps update R by a rotation, never refactor."""
    calls = []
    r_factor = lattice._r_factor

    def counted(body, U):
        calls.append(1)
        return r_factor(body, U)

    monkeypatch.setattr(lattice, "_r_factor", counted)
    rng = np.random.default_rng(16)
    for _ in range(4):
        axis = rng.standard_normal(3)
        tube = CylinderBody(axis / np.linalg.norm(axis), 275.0**2 / 0.02, 1 / 274)
        calls.clear()
        U = lattice._lll_reduce(tube)
        # Only a swap moves the first column, so the pass did swap.
        assert not np.array_equal(U[:, 0], [1, 0, 0])
        assert len(calls) == 1


def test_successive_minima_reduces_once(monkeypatch):
    """One reduction per call, from the identity, however often the scan
    dilation doubles: every doubling sweeps the same frame."""
    reductions, sweeps = [], []
    reduce, enumerate_points = lattice._lll_reduce, lattice._fp_points

    def counted_reduce(body, start=None):
        reductions.append(start)
        return reduce(body, start)

    def counted_sweep(body, lam, work, frame=None):
        sweeps.append(frame)
        return enumerate_points(body, lam, work, frame)

    monkeypatch.setattr(lattice, "_lll_reduce", counted_reduce)
    monkeypatch.setattr(lattice, "_fp_points", counted_sweep)
    rng = np.random.default_rng(22)
    doubled = 0
    for _ in range(6):
        axis = rng.standard_normal(3)
        tube = CylinderBody(axis / np.linalg.norm(axis), 275.0**2 / 0.02, 1 / 274)
        reductions.clear()
        sweeps.clear()
        successive_minima(tube)
        assert reductions == [None]
        assert all(frame is sweeps[0] for frame in sweeps)
        doubled += len(sweeps) > 1
    assert doubled >= 4


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    log_ratio=st.floats(-10.0, 10.0),
    log_radial=st.floats(-3.0, 3.0),
    family=st.sampled_from([CylinderBody, DiamondBody]),
)
def test_r_factor_matches_lapack_qr(n, seed, log_ratio, log_radial, family):
    """The Householder factor on Python floats is LAPACK's R up to rounding.

    Two checks, each against an a-priori bound.  The embedding of an
    integer column agrees with ``body.embed`` to the rounding of one
    n-term dot product (bit for bit where numpy's dot fuses its
    multiply-adds, as the factor's does).  On the same embedded W, R^T R
    agrees with that of the sign-fixed ``np.linalg.qr`` to
    64 n 2^-53 ||W_i|| ||W_j||: both factors are backward stable, so this
    holds however ill-conditioned W is, where entries of R itself (the
    last pivot above all) can differ by more.
    """
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(n)
    radial = 10.0**log_radial
    body = family(axis / np.linalg.norm(axis), radial * 10.0**log_ratio, radial)
    U = rng.integers(-9, 10, (n, n))
    while det_exact(U.tolist()) == 0:
        U = rng.integers(-9, 10, (n, n))
    eps = 2.0**-53

    W = np.array([body._embed_ints(u) for u in U.T.tolist()]).T
    W_ref = np.stack([body.embed(U[:, j].astype(float)) for j in range(n)], 1)
    if family is CylinderBody:
        scale = [1 / body.axial_half] + [1 / body.radial_half] * n
    else:
        scale = [body.axial_half] + [body.radial_half] * n
    u_norm = np.linalg.norm(U.astype(float), axis=0)
    embed_tol = 8 * n * eps * np.outer(scale, u_norm)
    assert np.all(np.abs(W - W_ref) <= embed_tol)

    R = np.array(lattice._r_factor(body, U))
    assert np.array_equal(R, np.triu(R))
    assert np.all(np.diag(R) >= 0.0)
    _, R_ref = np.linalg.qr(W)
    R_ref *= np.where(np.diag(R_ref) < 0.0, -1.0, 1.0)[:, None]
    col = np.linalg.norm(W, axis=0)
    gram_tol = 64 * n * eps * np.outer(col, col)
    assert np.all(np.abs(R.T @ R - R_ref.T @ R_ref) <= gram_tol)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    bits=st.integers(1, 62),
)
def test_embedding_dot_is_a_fused_chain(n, seed, bits):
    """s = u . axis rounds as s <- round(u_i axis_i + s), each step once,
    which is how numpy's dot rounds it on FMA hardware."""
    from fractions import Fraction

    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(n)
    body = CylinderBody(axis / np.linalg.norm(axis), 1.0, 1.0)
    u = [int(x) for x in rng.integers(-(2**bits), 2**bits, n)]
    want = 0.0
    for x, c in zip(u, body.axis.tolist()):
        want = float(Fraction(float(x)) * Fraction(c) + Fraction(want))
    assert body._split_ints(u)[0] == want


def test_fp_points_factors_twice_without_lapack(monkeypatch):
    """An enumeration factors twice (the LLL's start and the sweep's fresh
    factor), both on Python floats: numpy's QR is never called."""
    calls = []
    r_factor = lattice._r_factor

    def counted(body, U):
        calls.append(1)
        return r_factor(body, U)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(lattice, "_r_factor", counted)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    rng = np.random.default_rng(18)
    axis = rng.standard_normal(3)
    body = CylinderBody(axis / np.linalg.norm(axis), 12.0, 0.5)
    pts = lattice._fp_points(body, 1.0, lattice._Work(10**6))
    assert len(calls) == 2
    got = {tuple(int(x) for x in p) for p in np.concatenate([pts, -pts])}
    want = {tuple(int(x) for x in p) for p in naive_lattice_points(body, 1.0)}
    assert len(got) == 12 and got == want


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from([CylinderBody, DiamondBody]),
    lam=st.floats(0.3, 1.5),
)
def test_fp_points_sweeps_one_of_each_sign_pair(n, seed, family, lam):
    """The sweep returns each +-k pair once, first nonzero entry positive,
    and its closure under negation is the box scan's point set."""
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(n)
    if family is CylinderBody:
        extents = rng.uniform(0.3, 3.0), rng.uniform(0.3, 1.5)
    else:
        extents = rng.uniform(0.4, 2.0), rng.uniform(0.4, 2.0)
    body = family(axis / np.linalg.norm(axis), *map(float, extents))
    pts = lattice._fp_points(body, lam, lattice._Work(10**6))
    rows = [tuple(int(x) for x in p) for p in pts]
    assert all(next(x for x in p if x != 0) > 0 for p in rows)
    assert len(set(rows)) == len(rows)
    closure = set(rows) | {tuple(-x for x in p) for p in rows}
    want = {tuple(int(x) for x in p) for p in naive_lattice_points(body, lam)}
    assert closure == want


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from([CylinderBody, DiamondBody]),
    log_ratio=st.floats(-3.0, 3.0),
    lam=st.floats(0.5, 2.0),
)
@example(n=3, seed=0, family=DiamondBody, log_ratio=-3.0, lam=2.0)
def test_fp_points_counts_the_symmetric_sweep(n, seed, family, log_ratio, lam):
    """The budget counts both signs: the one-sign sweep's candidate count is
    that of a sweep of every coefficient on the same factor, and the budget
    it needs is exactly that count.  A body that needs more than the 10^7
    record (the pinned example needs 28,276,853) must exhaust it."""
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(n)
    radial = float(10.0 ** rng.uniform(-1.0, 0.5))
    body = family(axis / np.linalg.norm(axis), radial * 10.0**log_ratio, radial)
    R = lattice._r_factor(body, lattice._lll_reduce(body))
    want = naive_sweep_count(body, lam, R)
    work = lattice._Work(10**7)
    if want > work.limit:
        with pytest.raises(ResourceLimitError):
            lattice._fp_points(body, lam, work)
        return
    lattice._fp_points(body, lam, work)
    assert work.candidates == want
    lattice._fp_points(body, lam, lattice._Work(want))
    if want > 1:
        with pytest.raises(ResourceLimitError):
            lattice._fp_points(body, lam, lattice._Work(want - 1))


def test_lll_non_finite_coefficient_gives_up():
    """R[0][1] is inf here, so R[0][1] / R[0][0] has no integer rounding;
    the LLL returns its current basis and the sweep's finiteness checks end
    the enumeration."""
    body = DiamondBody(normalize([1.0, 1.0]), 1.7e308, 1e-300)
    U = lattice._lll_reduce(body)
    assert abs(det_exact(U.T.tolist())) == 1
    with pytest.raises(ResourceLimitError):
        lattice_points_in(body, 1.0)


def test_lll_swap_with_nothing_to_rotate_gives_up():
    """The tube of adapted_basis at n=2, N=1e12, tau=1, gamma=1e-9 embeds
    this start's second column as 0 in floats, and a later swap finds
    nothing to rotate (hypot 0).  That is a give-up, not a
    ZeroDivisionError, and a give-up from a start runs the pass again from
    the identity."""
    axis = np.array([0.14072553096904256, -0.9900486477610486])
    tube = CylinderBody(axis, 1e21, 1.000000000001e-12)
    start = np.array(
        [[3071045412081, 119846061865], [-21605776411051, -843154974594]]
    )
    assert lattice._r_factor(tube, start)[1][1] == 0.0
    U = lattice._lll_reduce(tube, start)
    assert np.array_equal(U, lattice._lll_reduce(tube))
    assert abs(det_exact(U.tolist())) == 1


def test_lll_from_a_start_completes_or_matches_the_identity():
    """A start either finishes the reduction (every size and Lovasz
    condition holds on a fresh factor) or the pass is the identity's.  The
    starts are the shell-to-shell chain of screen's n=4 check (N=60)."""
    rng = np.random.default_rng(22)
    for _ in range(8):
        axis = rng.standard_normal(4)
        axis /= np.linalg.norm(axis)
        start = None
        for _, r in _shells(60.0):
            body = CylinderBody(axis, 0.002 * max(r / 2.0, 1.0) ** -3.0, r)
            U = lattice._lll_reduce(body, start)
            if start is not None and not np.array_equal(U, lattice._lll_reduce(body)):
                R = np.array(lattice._r_factor(body, U))
                mu = R / np.diag(R)[:, None]
                assert np.all(np.abs(np.triu(mu, 1)) <= 0.5 + 1e-6)
                d = np.diag(R) ** 2
                lovasz = d[1:] >= (0.99 - np.diag(mu, 1) ** 2) * d[:-1] * (1 - 1e-6)
                assert np.all(lovasz)
            start = U


def test_minima_budget_exhaustion():
    body = CylinderBody(np.array([1.0, 0.0]), 3.0, 0.4)
    with pytest.raises(ResourceLimitError):
        successive_minima(body, budget=1)


@pytest.mark.parametrize("budget", [0, -1])
def test_budget_below_one_is_rejected(budget):
    """A budget below 1 is an error, not a request for the default."""
    body = CylinderBody(np.array([1.0, 0.0]), 3.0, 0.4)
    assert lattice_points_in(body, 1.0, budget=None).shape[0] > 0
    with pytest.raises(ValueError, match="budget"):
        lattice_points_in(body, 1.0, budget=budget)
    with pytest.raises(ValueError, match="budget"):
        successive_minima(body, budget=budget)
    with pytest.raises(ValueError, match="budget"):
        extract_zbasis(body, successive_minima(body), budget=budget)


def test_polar_swaps_family_and_keeps_extents():
    body = CylinderBody(np.array([0.6, 0.8]), 3.0, 0.4)
    dual = polar_body(body)
    assert isinstance(dual, DiamondBody)
    assert dual.axial_half == body.axial_half
    assert dual.radial_half == body.radial_half
    back = polar_body(dual)
    assert isinstance(back, CylinderBody)
    assert back.axial_half == body.axial_half


def test_polar_gauge_boundary_case():
    # For the cylinder (a=3, b=0.4) the dual gauge of (1/3, 0, 0) is exactly 1.
    body = CylinderBody(np.array([1.0, 0.0, 0.0]), 3.0, 0.4)
    dual = polar_body(body)
    assert dual.gauge(np.array([1.0 / 3.0, 0.0, 0.0])) == pytest.approx(1.0)


def test_polar_inequality_on_integer_points(rng):
    # x in K and y in K* implies x . y <= 1; check on enumerated points.
    body = CylinderBody(np.array([0.8, 0.6]), 2.0, 0.7)
    dual = polar_body(body)
    xs = lattice_points_in(body, 1.0)
    ys = lattice_points_in(dual, 1.0)
    for x in xs:
        for y in ys:
            assert float(np.dot(x, y)) <= 1.0 + 1e-12


def test_coreciprocal_is_an_involution():
    body = CylinderBody(np.array([0.6, 0.8]), 5.0, 0.25)
    twice = coreciprocal_body(coreciprocal_body(body))
    assert twice.axial_half == pytest.approx(body.axial_half)
    assert twice.radial_half == pytest.approx(body.radial_half)
    with pytest.raises(TypeError):
        coreciprocal_body(polar_body(body))


def test_coreciprocal_reciprocal_extents():
    # The search cylinder (N^tau / gamma, 1 / (N-1)) maps to
    # (gamma / N^tau, N - 1).
    N, gamma = 90.0, 0.4
    body = CylinderBody(np.array([0.6, 0.8]), N / gamma, 1.0 / (N - 1.0))
    rec = coreciprocal_body(body)
    assert rec.axial_half == pytest.approx(gamma / N)
    assert rec.radial_half == pytest.approx(N - 1.0)


def test_coreciprocal_contains_exact_polar(rng):
    """Sampled points of the diamond dual always fit in the reciprocal
    cylinder, which is why emptiness of the latter is the stronger fact."""
    body = CylinderBody(np.array([0.6, 0.8]), 2.0, 0.7)
    dual = polar_body(body)
    superset = coreciprocal_body(body)
    for _ in range(1000):
        u = rng.standard_normal(2)
        point = u / dual.gauge(u) * rng.random()  # uniform ray draw inside
        assert superset.gauge(point) <= 1.0 + 1e-9


def test_duality_products_within_transference_band(rng):
    for _ in range(10):
        body = random_body(rng)
        products = duality_check(body)
        n = body.dim
        assert np.all(products >= 1.0 - 1e-9)
        assert np.all(products <= math.factorial(n) + 1e-9)


def test_duality_axis_aligned_products_are_one():
    body = CylinderBody(np.array([1.0, 0.0, 0.0]), 3.0, 0.4)
    assert np.allclose(duality_check(body), 1.0, atol=1e-12)


def test_duality_check_budget_bounds_both_scans():
    """The minima scans of the body and of its polar charge one record."""
    body = CylinderBody(normalize([1.0, 2.0, 3.0]), 5.0, 0.3)
    with pytest.raises(ResourceLimitError):
        duality_check(body, budget=327)
    duality_check(body, budget=328)


def test_integer_basis_checks_unimodularity():
    ib = IntegerBasis(((1, 0), (2, 1)), 1)
    assert ib.matrix().tolist() == [[1, 2], [0, 1]]
    with pytest.raises(InternalInvariantError):
        IntegerBasis(((2, 0), (0, 1)), 2)  # determinant 2 is not a Z-basis
    with pytest.raises(InternalInvariantError):
        IntegerBasis(((1, 2), (2, 4)), 1)  # singular
    with pytest.raises(InternalInvariantError):
        IntegerBasis(((1, 0), (2, 1)), -1)  # wrong claimed determinant


def test_extract_zbasis_keeps_unimodular_witnesses():
    body = CylinderBody(np.array([1.0, 0.0]), 3.0, 0.4)
    mins = successive_minima(body)
    assert mins.witnesses == ((1, 0), (0, 1))
    assert extract_zbasis(body, mins).matrix().tolist() == [[1, 0], [0, 1]]


def test_extract_zbasis_repairs_non_basis_witnesses():
    # (2,0) and (0,1) are independent but index-2; the scan finds (1,0).
    body = CylinderBody(np.array([1.0, 0.0]), 2.0, 1.0)
    synthetic = MinimaResult(
        lambdas=(1.0, 1.0), witnesses=((2, 0), (0, 1)), scan_dilation=1.0
    )
    basis = extract_zbasis(body, synthetic)
    assert abs(basis.determinant) == 1
    cols = {tuple(int(x) for x in c) for c in basis.matrix().T}
    assert (1, 0) in cols or (-1, 0) in cols


def test_extract_zbasis_backtracks_past_a_greedy_miss(monkeypatch):
    """Greedy takes (2,3), which neither (0,1) (det 2) nor (1,0) (det -3)
    completes; the search backs out of it and finds (0,1), (1,0).  Each
    search node counts against the budget: five here."""
    body = CylinderBody(normalize([2.0, 3.0]), 10.0, 1.0)
    found = np.array([(2, 3), (0, 1), (1, 0)], dtype=np.int64)
    monkeypatch.setattr(lattice, "_fp_points", lambda body, lam, *rest: found)
    g = body.gauge(found.astype(float))
    synthetic = MinimaResult(
        lambdas=(float(g[0]), float(g[1])),
        witnesses=((2, 3), (0, 1)),
        scan_dilation=1.0,
    )
    basis = extract_zbasis(body, synthetic, budget=5)
    assert basis.columns == ((0, 1), (1, 0))
    assert basis.determinant == -1
    with pytest.raises(ResourceLimitError):
        extract_zbasis(body, synthetic, budget=4)


def test_extract_zbasis_from_minima(rng):
    """The extracted basis is unimodular and stays inside n * lambda_n."""
    for _ in range(10):
        body = random_body(rng)
        n = body.dim
        mins = successive_minima(body)
        basis = extract_zbasis(body, mins)
        assert abs(basis.determinant) == 1
        cols = basis.matrix().T
        bound = n * mins.lambdas[-1] * (1.0 + 1e-9)
        for col in cols:
            assert dilation_needed(body, col) <= bound
