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
scans the sign-canonical primitive k of the ball ||k|| <= N, which decide
every direction's worst margin, in cache-sized blocks of directions.  Each call
charges every candidate it examines to one budget record, ``lattice._Work``:
its own, or the one ``adapted_basis`` passes on.
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
    """Worst margins of direction blocks against one ball of integer vectors.

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

    The (2 floor(N) + 1)^n box is charged to ``work`` before it is
    allocated.  Blocks of ``rows`` directions make about 2^16
    products, 512 KB, which stay in a per-core L2 cache through the matmul,
    abs, scale, shift and min, all in one preallocated buffer.
    """

    def __init__(self, n: int, tau: float, cutoff: float, work: _Work):
        side = 2 * int(math.floor(cutoff)) + 1
        # side >= 3, so side^n > 2^n exceeds the limit once n reaches its bit
        # length; past that the charge skips the power, huge for a large n.
        work.charge(side**n if n < work.limit.bit_length() else work.limit + 1)
        k = np.indices((side,) * n).reshape(n, -1).T - side // 2
        norm_sq = np.sum(k * k, axis=1)
        first = k[np.arange(k.shape[0]), np.argmax(k != 0, axis=1)]
        keep = (
            (first > 0)
            & (norm_sq <= cutoff * cutoff)
            & (np.gcd.reduce(k, axis=1) == 1)
        )
        self.kt = k[keep].T.astype(float)
        norm = np.sqrt(norm_sq[keep].astype(float))
        self.weight = norm**tau
        self.slack = CMP_SLACK_PER_NORM * norm * self.weight
        self.rows = max(1, _SCAN_PRODUCTS // self.kt.shape[1])
        self._buf = np.empty((self.rows, self.kt.shape[1]))

    def __call__(self, dirs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the margins of at most ``rows`` directions into ``out``."""
        p = self._buf[: dirs.shape[0]]
        np.matmul(dirs, self.kt, out=p)
        np.abs(p, out=p)
        p *= self.weight
        p += self.slack
        return p.min(axis=1, out=out)


def _worst_margin(samples: np.ndarray, tau: float, cutoff: float):
    """Per-sample margins (see ``_MarginScan``), scanned block by block.

    Each float k.alpha errs by at most n 2^-53 ||k||, but its bits depend on
    the dgemm's blocking: OpenBLAS rounds its edge tiles differently from
    its FMA main kernel.  So a margin may differ from a scan of the whole
    ball with other blocks by up to 2 n 2^-53 N^(1+tau).  A few margins in
    10^5 do, by under 2e-12 relative (cancellation in k.alpha); a fraction
    changes only if gamma falls within that distance of a margin.
    """
    scan = _MarginScan(samples.shape[1], tau, cutoff, _Work(None))
    margins = np.empty(samples.shape[0])
    for s in range(0, samples.shape[0], scan.rows):
        scan(samples[s : s + scan.rows], margins[s : s + scan.rows])
    return margins


def _directions(rng, count: int, n: int) -> np.ndarray:
    """``count`` uniform unit directions: normalised Gaussian draws."""
    raw = rng.standard_normal((count, n))
    norms = np.linalg.norm(raw, axis=1)
    # Regenerate the (measure-zero) degenerate draws deterministically.
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        raw[bad] = rng.standard_normal((int(bad.sum()), n))
        norms = np.linalg.norm(raw, axis=1)
    return raw / norms[:, None]


def complement_measure_estimate(
    params: DioParams, samples: int, seed: int, *, budget=None
):
    """Monte Carlo estimate of the spherical measure of the complement.

    Draws ``samples`` uniform directions (normalized Gaussians), returns the
    fraction failing the truncated condition together with the binomial
    standard error sqrt(f(1-f)/samples).  Deterministic for a fixed seed.
    A direction fails when its margin (see ``_MarginScan``) is < gamma.
    The (2 floor(N) + 1)^n candidates are charged against ``budget`` (1e8 if
    None).

    Directions are drawn, normalised and scanned one block at a time, so
    memory stays bounded whatever ``samples``.  Chunked Gaussian draws equal
    the one-shot draw, so the fraction does not depend on the block size,
    except for the regeneration of a degenerate draw (norm < 1e-12, about
    1e-24 likely), which happens within its block.  The only decision in
    floats is margin < gamma; a margin errs by at most n 2^-53 N^(1+tau)
    (see ``_worst_margin``).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    scan = _MarginScan(params.dim, params.tau, params.cutoff, _Work.of(budget))
    rng = np.random.default_rng(seed)
    margins = np.empty(scan.rows)
    failures = 0
    for s in range(0, samples, scan.rows):
        dirs = _directions(rng, min(scan.rows, samples - s), params.dim)
        block = scan(dirs, margins[: dirs.shape[0]])
        failures += int(np.count_nonzero(block < params.gamma))
    fraction = failures / samples
    stderr = math.sqrt(fraction * (1.0 - fraction) / samples)
    return fraction, stderr
