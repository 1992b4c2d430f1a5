"""Truncated Diophantine conditions for unit direction vectors.

A unit vector ``alpha`` on the sphere S^{n-1} satisfies the truncated
Diophantine condition with exponent ``tau``, constant ``gamma`` and cutoff
``N`` when

    |k . alpha| >= gamma * ||k||^(-tau)   for all integer k, 0 < ||k|| <= N.

Every scan here is geometry of numbers: the integer k that matter (a
violation, a minimiser of |k . alpha| ||k||^tau, a resonance) lie in a thin
cylinder around alpha, whose integer points the lattice enumerator lists
exactly.  ``check_truncated`` and ``best_gamma`` visit the dyadic shells
r = N, N/2, ... smallest first, with axial half-extent gamma (or the
running minimum) times max(r/2, 1)^(-tau); ``resonance_search`` uses one
cylinder.  The Monte Carlo estimate of the measure of the complement scans
a box of integer vectors.  Every scan counts against one candidate budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    UNIT_NORM_TOL,
    CylinderBody,
    ResourceLimitError,
    _budget,
    _canonical,
    _fp_points,
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

    ``cutoff`` may be None to denote the untruncated condition; operations
    that need a finite enumeration then require an explicit bound.
    """

    dim: int
    tau: float
    gamma: float
    cutoff: float | None

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 2:
            raise ValueError("dim must be an integer >= 2")
        # tau >= n - 1 keeps the condition satisfiable on a nonempty set;
        # equality is admitted because badly approximable directions exist.
        if not (self.tau >= self.dim - 1):
            raise ValueError("tau must satisfy tau >= dim - 1")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        if self.cutoff is not None and not (1.0 <= self.cutoff < math.inf):
            raise ValueError(
                "cutoff must be finite and >= 1 (or None for no cutoff)"
            )


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


def _shell_points(a, axial, lower_sq, r, limit, counter):
    """(k, norm_sq) of the cylinder's points with norm_sq in (lower_sq, r^2]."""
    k = _fp_points(CylinderBody(a, axial, r), 1.0, limit, counter)
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


def check_truncated(
    alpha, params: DioParams, *, enumeration_cutoff=None, budget=None
):
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
    holds the smallest-norm one.  ``inner`` is computed as
    k_p alpha_p + (rest of k) . (rest of alpha), with p the index of the
    largest |alpha_i|.  All shells count candidates against one ``budget``
    (the default 1e8 for None); exceeding it raises ResourceLimitError and
    a budget below 1 is a ValueError.
    """
    a = require_unit(alpha)
    if a.size != params.dim:
        raise ValueError("alpha dimension does not match params.dim")
    cutoff = params.cutoff if params.cutoff is not None else enumeration_cutoff
    if cutoff is None:
        raise ValueError(
            "membership without a cutoff is undecidable by enumeration; "
            "supply params.cutoff or enumeration_cutoff"
        )
    if not math.isfinite(cutoff):
        raise ValueError("enumeration_cutoff must be finite")
    limit = _budget(budget)
    if cutoff < 1:
        return None  # no nonzero integer vector is that short
    pivot = int(np.argmax(np.abs(a)))
    rest_axes = [j for j in range(a.size) if j != pivot]
    a_p = float(a[pivot])
    a_rest = a[rest_axes]
    counter = [0]
    for lower_sq, r in _shells(cutoff):
        shortest = max(r / 2.0, 1.0)
        axial = params.gamma * shortest ** (-params.tau)
        # A violation needs gamma ||k||^(-tau) > slack ||k|| >= slack
        # shortest, so below that the shell cannot hold one.
        if axial * (1.0 + 1e-9) <= CMP_SLACK_PER_NORM * shortest:
            continue
        k, norm_sq = _shell_points(a, axial, lower_sq, r, limit, counter)
        norm = np.sqrt(norm_sq)
        thr = params.gamma * norm ** (-params.tau)
        inner = k[:, pivot] * a_p + k[:, rest_axes] @ a_rest
        viol = np.nonzero(np.abs(inner) < thr - CMP_SLACK_PER_NORM * norm)[0]
        if viol.size == 0:
            continue
        # Both signs of each point are present, with the same |inner|.
        viol = viol[norm_sq[viol] == norm_sq[viol].min()]
        k_canon, i = min((_canonical(k[j]), j) for j in viol)
        return ViolationWitness(
            k=k_canon, inner=abs(float(inner[i])), threshold=float(thr[i])
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
    cylinder.  ``tau`` must be finite and >= 0; all shells count against
    one ``budget`` (1e8 if None).
    """
    a = require_unit(alpha)
    if cutoff is None or not (1.0 <= cutoff < math.inf):
        raise ValueError("best_gamma needs a finite cutoff >= 1")
    if not (0.0 <= tau < math.inf):
        raise ValueError("tau must be finite and >= 0")
    limit = _budget(budget)
    counter = [0]
    g = float(np.min(np.abs(a)))  # the product at a unit vector
    best = None
    for lower_sq, r in _shells(cutoff):
        axial = _axial_extent(g * max(r / 2.0, 1.0) ** (-tau), a.size, r)
        kv, nv = _shell_points(a, axial, lower_sq, r, limit, counter)
        if kv.shape[0] == 0:
            continue
        prod = np.abs(kv @ a) * nv ** (tau / 2.0)
        tied = np.nonzero(prod == prod.min())[0]
        tied = tied[nv[tied] == nv[tied].min()]
        key = min((float(prod[j]), float(nv[j]), _canonical(kv[j])) for j in tied)
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
    radius max_order, count against ``budget`` (1e8 if None).
    """
    a = require_unit(alpha)
    if not math.isfinite(max_order):
        raise ValueError("max_order must be finite")
    if not (0.0 <= tol < math.inf):
        raise ValueError("tol must be finite and >= 0")
    limit = _budget(budget)
    if max_order < 1:
        return []
    top = float(max_order)
    axial = _axial_extent(max(tol, _RESONANCE_EPS_PER_NORM * top), a.size, top)
    kv, nv = _shell_points(a, axial, 0.0, top, limit, [0])
    inner = np.abs(kv @ a)
    norm = np.sqrt(nv)
    near = inner <= np.maximum(tol, _RESONANCE_EPS_PER_NORM * norm)
    seen = {}
    for row, o, r in zip(kv[near], norm[near], inner[near]):
        if np.gcd.reduce(np.abs(row)) != 1:
            continue
        canon = _canonical(row)
        if canon not in seen:
            seen[canon] = (float(o), float(r))
    reports = [
        ResonanceReport(k=k, order=o, residual=r) for k, (o, r) in seen.items()
    ]
    reports.sort(key=lambda rep: (rep.order, rep.k))
    return reports


def _worst_margin(samples: np.ndarray, tau: float, cutoff: float, limit: int):
    """Per-sample min over k of (|k.alpha| + slack*||k||) * ||k||^tau.

    A sample fails the truncated condition at level gamma exactly when its
    margin is < gamma, matching check_truncated's comparison slack.
    """
    n = samples.shape[1]
    side = 2 * int(math.floor(cutoff)) + 1
    if side**n > limit:
        raise ResourceLimitError(
            f"measure box of {side**n} candidates exceeds the budget of {limit}"
        )
    k = np.indices((side,) * n).reshape(n, -1).T - side // 2
    norm_sq = np.sum(k * k, axis=1)
    cut_sq = float(cutoff) * float(cutoff)
    k_all = k[(norm_sq > 0) & (norm_sq <= cut_sq)]
    norm = np.sqrt(np.sum(k_all * k_all, axis=1).astype(float))
    weight = norm**tau
    slack = CMP_SLACK_PER_NORM * norm * weight
    margins = np.empty(samples.shape[0])
    step = max(1, int(5e6 / max(1, k_all.shape[0])))
    for s in range(0, samples.shape[0], step):
        p = samples[s : s + step] @ k_all.T
        np.abs(p, out=p)
        p *= weight
        p += slack
        margins[s : s + step] = p.min(axis=1)
    return margins


def complement_measure_estimate(
    params: DioParams, samples: int, seed: int, *, budget=None
):
    """Monte Carlo estimate of the spherical measure of the complement.

    Draws ``samples`` uniform directions (normalized Gaussians), returns the
    fraction failing the truncated condition together with the binomial
    standard error sqrt(f(1-f)/samples).  Deterministic for a fixed seed.
    The (2 floor(N) + 1)^n candidates count against ``budget`` (1e8 if None).
    """
    if params.cutoff is None:
        raise ValueError("measure estimation needs a finite cutoff")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    limit = _budget(budget)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((samples, params.dim))
    norms = np.linalg.norm(raw, axis=1)
    # Regenerate the (measure-zero) degenerate draws deterministically.
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        raw[bad] = rng.standard_normal((int(bad.sum()), params.dim))
        norms = np.linalg.norm(raw, axis=1)
    dirs = raw / norms[:, None]
    margins = _worst_margin(dirs, params.tau, float(params.cutoff), limit)
    fraction = float(np.mean(margins < params.gamma))
    stderr = math.sqrt(fraction * (1.0 - fraction) / samples)
    return fraction, stderr
