"""Truncated Diophantine conditions for unit direction vectors.

A unit vector ``alpha`` on the sphere S^{n-1} satisfies the truncated
Diophantine condition with exponent ``tau``, constant ``gamma`` and cutoff
``N`` when

    |k . alpha| >= gamma * ||k||^(-tau)   for all integer k, 0 < ||k|| <= N.

Every scan here is geometry of numbers: the integer k that matter (a
violation, a minimiser of |k . alpha| ||k||^tau, a resonance) lie in a thin
cylinder around alpha, whose integer points the lattice enumerator lists
exactly, one of each +-k with its first nonzero entry positive.
``check_truncated`` and ``best_gamma`` visit the dyadic shells r = N, N/2,
... smallest first, with axial half-extent gamma (or the running minimum)
times max(r/2, 1)^(-tau), and reduce each shell's cylinder starting from
the reduced basis of the shell before; ``resonance_search`` uses one
cylinder.  The Monte Carlo estimate of the measure of the complement
compares each |k.alpha| of the sign-canonical primitive k of the ball
||k|| <= N with a per-k threshold, in cache-sized blocks of directions.  Each
call charges every candidate it examines to one budget record,
``lattice._Work``: its own, or the one ``adapted_basis`` passes on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    UNIT_NORM_TOL,
    CylinderBody,
    _fp_points,
    _Frame,
    _row_dots,
    _Work,
    require_unit,
)

__all__ = [
    "UNIT_NORM_TOL",
    "CMP_SLACK_PER_NORM",
    "DioParams",
    "ViolationWitness",
    "ResonanceReport",
    "normalize",
    "require_unit",
    "check_truncated",
    "best_gamma",
    "resonance_search",
    "complement_measure_estimate",
]

# One-sided comparison slack: k counts as a violation only when
# |k.alpha| < gamma * ||k||^(-tau) - CMP_SLACK_PER_NORM * ||k||.
CMP_SLACK_PER_NORM = 1e-12

# Scale for treating an inner product as an exact resonance when the caller
# asks for tolerance 0: directions are given at double precision, so a true
# resonance shows up as |k.alpha| of order ||k|| * 2^-53.
_RESONANCE_EPS_PER_NORM = 1e-14

# Products per block of the measure scan: 2^16 doubles, 512 KB.
_SCAN_PRODUCTS = 2**16


def normalize(vec) -> np.ndarray:
    """Return vec scaled to unit Euclidean length."""
    v = np.asarray(vec, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("direction must be a 1-d vector of dimension >= 2")
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("cannot normalize a zero or non-finite vector")
    return v / norm


@dataclass(frozen=True)
class DioParams:
    """Parameters (n, tau, gamma, N) of a truncated Diophantine condition.

    ``cutoff`` is finite and >= 1: every operation enumerates up to it.
    """

    dim: int
    tau: float
    gamma: float
    cutoff: float

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 2:
            raise ValueError("dim must be an integer >= 2")
        # tau >= n - 1 keeps the condition satisfiable on a nonempty set;
        # equality is admitted because badly approximable directions exist.
        # An infinite tau makes every threshold gamma ||k||^-tau vanish.
        if not (self.dim - 1 <= self.tau < math.inf):
            raise ValueError("tau must be finite and satisfy tau >= dim - 1")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        if self.cutoff is None or not (1.0 <= self.cutoff < math.inf):
            raise ValueError("cutoff must be finite and >= 1")


@dataclass(frozen=True)
class ViolationWitness:
    """Integer vector breaking the condition: |inner| < threshold."""

    k: tuple[int, ...]
    inner: float
    threshold: float


@dataclass(frozen=True)
class ResonanceReport:
    """Primitive integer vector nearly orthogonal to a direction."""

    k: tuple[int, ...]
    order: float
    residual: float


def _shells(cutoff: float):
    """(lower_sq, r) of the shells r = N, N/2, ... (r >= 1), smallest first."""
    radii = [float(cutoff)]
    while radii[-1] / 2.0 >= 1.0:
        radii.append(radii[-1] / 2.0)
    radii.reverse()
    return list(zip([0.0] + [r * r for r in radii[:-1]], radii))


def _shell_points(a, axial, lower_sq, r, work, start=None):
    """(k, norm_sq) of the cylinder's points with norm_sq in (lower_sq, r^2],
    one of each +-k, sign-canonical.  The cylinder's frame is reduced from
    ``start`` (the identity for None) and becomes the record's frame, so
    that the next shell, or ``adapted_basis``, can start from its U."""
    body = CylinderBody(a, axial, r)
    work.frame = _Frame(body, start)
    k = _fp_points(body, 1.0, work, work.frame)
    if k.shape[0] == 0:
        return k, np.empty(0)
    norm_sq = np.sum(k * k, axis=1).astype(float)
    keep = (norm_sq > lower_sq) & (norm_sq <= r * r)
    return k[keep], norm_sq[keep]


def _axial_extent(bound: float, n: int, r: float) -> float:
    """Half-extent holding every k, ||k|| <= r, whose float |k.alpha| <= bound.

    The relative pad 1e-12 covers the few ulps by which ``bound`` is itself
    rounded.  A float k . alpha errs by at most n u ||k|| (1 + 1e-9) /
    (1 - n u), u = 2^-53, for alpha unit to 1e-9; the absolute pad 4 n u r
    covers the two such sums, the scan's and the body gauge's.
    """
    return bound * (1.0 + 1e-12) + 4.0 * n * r * 2.0**-53


def check_truncated(alpha, params: DioParams, *, budget=None):
    """Decide membership in the truncated Diophantine set.

    Returns None when every integer k with 0 < ||k|| <= cutoff respects
    |k . alpha| >= gamma ||k||^(-tau) (up to the one-sided comparison slack),
    otherwise the smallest-norm violating k (ties broken lexicographically
    after fixing the sign so the first nonzero entry is positive).

    The scan visits the dyadic shells r = N, N/2, ... down to r < 2,
    smallest first; each keeps the norms in (r/2, r], and the last one all of
    (0, r].  A violation in a shell lies in
    ``CylinderBody(alpha, gamma * max(r/2, 1)^(-tau), r)``, whose integer
    points are enumerated exactly, so the first shell with a violation
    holds the smallest-norm one.  Each shell's reduction starts from the U
    of the shell before.  ``inner`` is computed as
    k_p alpha_p + (rest of k) . (rest of alpha), with p the index of the
    largest |alpha_i|.  All shells charge their candidates to one record of
    ``budget`` (the default 1e8 for None); exhausting it raises
    ResourceLimitError and a budget below 1 is a ValueError.
    """
    a = require_unit(alpha)
    if a.size != params.dim:
        raise ValueError("alpha dimension does not match params.dim")
    work = _Work.of(budget)
    pivot = int(np.argmax(np.abs(a)))
    rest_axes = [j for j in range(a.size) if j != pivot]
    a_p = float(a[pivot])
    a_rest = a[rest_axes]
    start = None
    for lower_sq, r in _shells(params.cutoff):
        shortest = max(r / 2.0, 1.0)
        axial = params.gamma * shortest ** (-params.tau)
        # A violation needs gamma ||k||^(-tau) > slack ||k|| >= slack
        # shortest, so below that the shell cannot hold one.
        if axial * (1.0 + 1e-9) <= CMP_SLACK_PER_NORM * shortest:
            continue
        k, norm_sq = _shell_points(a, axial, lower_sq, r, work, start)
        start = work.frame.U
        if k.shape[0] == 0:
            continue
        norm = np.sqrt(norm_sq)
        thr = params.gamma * norm ** (-params.tau)
        inner = k[:, pivot] * a_p + _row_dots(k[:, rest_axes], a_rest)
        viol = np.nonzero(np.abs(inner) < thr - CMP_SLACK_PER_NORM * norm)[0]
        if viol.size == 0:
            continue
        viol = viol[norm_sq[viol] == norm_sq[viol].min()]
        i = min(viol, key=lambda j: k[j].tolist())
        return ViolationWitness(
            k=tuple(k[i].tolist()),
            inner=abs(float(inner[i])),
            threshold=float(thr[i]),
        )
    return None


def best_gamma(alpha, tau: float, cutoff: float, *, budget=None):
    """Largest gamma for which alpha passes the truncated condition.

    Returns (gamma_max, argmin_k) with gamma_max = min |k.alpha| * ||k||^tau
    over 0 < ||k|| <= cutoff.  A resonant direction yields gamma_max == 0
    with the resonance as argmin.  Ties on the minimum take the smallest
    norm and then the lexicographically smallest sign-canonical vector.
    The shells of ``check_truncated`` are scanned smallest first, starting
    from g = min |alpha_i| (a unit vector).  A k in (r/2, r] with product
    <= g has |k.alpha| <= g max(r/2, 1)^(-tau), so it lies in that padded
    cylinder, whose reduction starts from the U of the shell before.
    ``tau`` must be finite and >= 0; all shells charge one record of
    ``budget`` (1e8 if None).
    """
    a = require_unit(alpha)
    if cutoff is None or not (1.0 <= cutoff < math.inf):
        raise ValueError("best_gamma needs a finite cutoff >= 1")
    if not (0.0 <= tau < math.inf):
        raise ValueError("tau must be finite and >= 0")
    work = _Work.of(budget)
    g = float(np.min(np.abs(a)))  # the product at a unit vector
    best = None
    start = None
    for lower_sq, r in _shells(cutoff):
        axial = _axial_extent(g * max(r / 2.0, 1.0) ** (-tau), a.size, r)
        kv, nv = _shell_points(a, axial, lower_sq, r, work, start)
        start = work.frame.U
        if kv.shape[0] == 0:
            continue
        prod = np.abs(_row_dots(kv, a)) * nv ** (tau / 2.0)
        tied = np.nonzero(prod == prod.min())[0]
        tied = tied[nv[tied] == nv[tied].min()]
        key = min(
            (float(prod[j]), float(nv[j]), tuple(kv[j].tolist())) for j in tied
        )
        best = key if best is None else min(best, key)
        g = best[0]
        if g == 0.0:
            break  # later shells hold larger norms, so no smaller key
    return best[0], best[2]


def resonance_search(alpha, max_order: float, tol: float = 0.0, *, budget=None):
    """Primitive integer vectors k with |k . alpha| <= tol, ||k|| <= max_order.

    Each resonance hyperplane is reported once, through its sign-canonical
    primitive representative, sorted by norm (then lexicographically).  With
    tol == 0 the test degrades gracefully to machine precision, since the
    direction itself carries double-precision rounding.  ``tol`` must be
    finite and >= 0.  The candidates, the points of one padded cylinder of
    radius max_order, are charged against ``budget`` (1e8 if None).
    """
    a = require_unit(alpha)
    if not math.isfinite(max_order):
        raise ValueError("max_order must be finite")
    if not (0.0 <= tol < math.inf):
        raise ValueError("tol must be finite and >= 0")
    work = _Work.of(budget)
    if max_order < 1:
        return []
    top = float(max_order)
    axial = _axial_extent(max(tol, _RESONANCE_EPS_PER_NORM * top), a.size, top)
    kv, nv = _shell_points(a, axial, 0.0, top, work)
    inner = np.abs(_row_dots(kv, a))
    norm = np.sqrt(nv)
    near = inner <= np.maximum(tol, _RESONANCE_EPS_PER_NORM * norm)
    near &= np.gcd.reduce(kv, axis=1) == 1
    reports = [
        ResonanceReport(k=tuple(k), order=o, residual=r)
        for k, o, r in zip(
            kv[near].tolist(), norm[near].tolist(), inner[near].tolist()
        )
    ]
    reports.sort(key=lambda rep: (rep.order, rep.k))
    return reports


class _MarginScan:
    """Which directions of a block fail the truncated condition at gamma.

    The margin of a unit alpha is min over 0 < ||k|| <= N of
    (|k.alpha| + slack ||k||) ||k||^tau, slack = CMP_SLACK_PER_NORM, so
    alpha fails the truncated condition at level gamma exactly when its
    margin is < gamma, matching check_truncated's comparison slack.

    Only the sign-canonical primitive k (gcd 1, first nonzero entry
    positive) are scanned; the minimum over the ball is the same.  Negating
    k negates every product and partial sum of k.alpha exactly, so both
    signs give bit-identical |k.alpha|.  A multiple m k', m >= 2, has margin
    m^(1+tau) times that of k', at least 4 times since tau >= 1, and float
    error cannot close that gap: a dot product errs by at most n 2^-53 ||k||,
    over 1000 times less than the slack term 1e-12 ||k||.

    No margin is formed: the float term fl(fl(|k.alpha| w_k) + s_k), with
    w_k = ||k||^tau, s_k = slack ||k|| w_k, is < gamma exactly when
    |k.alpha| < t_k (``_thresholds``).  A block of ``rows`` directions is a
    matmul, abs and compare into buffers of about 2^16 entries, which stay
    in a per-core L2 cache.  OpenBLAS rounds the dgemm's edge tiles apart
    from its FMA kernel, so the order of ``kt`` and the block shape are
    fixed: other blocks could move a margin by up to 2 n 2^-53 N^(1+tau).
    The (2 floor(N) + 1)^n box is charged to ``work`` before it is built.
    """

    def __init__(self, n: int, tau: float, gamma: float, cutoff: float, work: _Work):
        side = 2 * int(math.floor(cutoff)) + 1
        # side >= 3, so side^n > 2^n exceeds the limit once n reaches its bit
        # length; past that the charge skips the power, huge for a large n.
        work.charge(side**n if n < work.limit.bit_length() else work.limit + 1)
        k = np.indices((side,) * n).reshape(n, -1).T - side // 2
        norm_sq = np.sum(k * k, axis=1)
        first = k[np.arange(k.shape[0]), np.argmax(k != 0, axis=1)]
        keep = (first > 0) & (norm_sq <= cutoff * cutoff)
        keep &= np.gcd.reduce(k, axis=1) == 1
        self.kt = k[keep].T.astype(float)
        norm = np.sqrt(norm_sq[keep].astype(float))
        with np.errstate(over="ignore"):  # an inf w_k makes s_k inf, t_k 0
            self.weight = norm**tau
            self.slack = CMP_SLACK_PER_NORM * norm * self.weight
        self.t = _thresholds(self.weight, self.slack, gamma)
        self.rows = max(1, _SCAN_PRODUCTS // self.kt.shape[1])
        # A full block of thresholds compares faster than a broadcast row.
        self._t_block = np.tile(self.t, (self.rows, 1))
        self._buf = np.empty(self._t_block.shape)
        self._below = np.empty(self._t_block.shape, dtype=bool)

    def fails(self, dirs: np.ndarray) -> np.ndarray:
        """Failure flags of at most ``rows`` directions."""
        m = dirs.shape[0]
        p = np.matmul(dirs, self.kt, out=self._buf[:m])
        np.abs(p, out=p)
        return np.less(p, self._t_block[:m], out=self._below[:m]).any(axis=1)


def _thresholds(weight: np.ndarray, slack: np.ndarray, gamma: float):
    """Per k, the least double x >= 0 with f(x) = fl(fl(x w_k) + s_k) >= gamma.

    0 when s_k >= gamma.  The multiply and add are numpy's, rounded apart,
    never fused.  Non-negative doubles are ordered as their bit patterns, so
    a bisection on those keeps f(lo) < gamma <= f(hi); it starts a few ulps
    around (gamma - s_k) / w_k, or from 0 or inf where s_k cancels gamma.
    """
    t = np.zeros_like(weight)
    live = slack < gamma
    w, s = weight[live], slack[live]
    with np.errstate(over="ignore"):
        guess = (gamma - s) / w
        below, above = guess * (1.0 - 2.0**-50), guess * (1.0 + 2.0**-50)
        lo = np.where(below * w + s < gamma, below, 0.0).view(np.int64)
        hi = np.where(above * w + s >= gamma, above, np.inf).view(np.int64)
        while np.any(hi - lo > 1):
            mid = lo + (hi - lo) // 2
            up = mid.view(float) * w + s >= gamma
            hi, lo = np.where(up, mid, hi), np.where(up, lo, mid)
    t[live] = hi.view(float)
    return t


def complement_measure_estimate(
    params: DioParams, samples: int, seed: int, *, budget=None
):
    """Monte Carlo estimate of the spherical measure of the complement.

    Draws ``samples`` uniform directions (normalized Gaussians), returns the
    fraction failing the truncated condition together with the binomial
    standard error sqrt(f(1-f)/samples).  Deterministic for a fixed seed.
    A direction fails when its margin (see ``_MarginScan``) is < gamma,
    decided by per-k thresholds.  The (2 floor(N) + 1)^n candidates are
    charged against ``budget`` (1e8 if None).  Directions are drawn eight
    scan blocks at a time, so memory stays bounded.  The fraction does not
    depend on that chunk size (chunked Gaussian draws equal the one-shot
    draw), except through a degenerate draw (norm < 1e-12, about 1e-24
    likely), which is drawn again within its chunk.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n, work = params.dim, _Work.of(budget)
    scan = _MarginScan(n, params.tau, params.gamma, params.cutoff, work)
    rng = np.random.default_rng(seed)
    failures = 0
    for s in range(0, samples, 8 * scan.rows):
        raw = rng.standard_normal((min(8 * scan.rows, samples - s), n))
        norms = np.linalg.norm(raw, axis=1)
        while np.any(bad := norms < 1e-12):  # draw degenerate ones again
            raw[bad] = rng.standard_normal((int(bad.sum()), n))
            norms = np.linalg.norm(raw, axis=1)
        dirs = raw / norms[:, None]
        for b in range(0, dirs.shape[0], scan.rows):
            failures += int(np.count_nonzero(scan.fails(dirs[b : b + scan.rows])))
    fraction = failures / samples
    stderr = math.sqrt(fraction * (1.0 - fraction) / samples)
    return fraction, stderr
