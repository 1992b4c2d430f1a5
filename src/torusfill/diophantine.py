"""Truncated Diophantine conditions for unit direction vectors.

A unit vector ``alpha`` on the sphere S^{n-1} satisfies the truncated
Diophantine condition with exponent ``tau``, constant ``gamma`` and cutoff
``N`` when

    |k . alpha| >= gamma * ||k||^(-tau)   for all integer k, 0 < ||k|| <= N.

Membership is decided exactly by the geometry of numbers.  A violating k
with ||k|| in (r/2, r] has |k . alpha| < gamma * max(r/2, 1)^(-tau) and a
part orthogonal to alpha of length at most r, so it is a nonzero integer
point of the thin cylinder around alpha with those half-extents.
``check_truncated`` enumerates these cylinders with the lattice
enumerator for the dyadic shells r = N, N/2, ... (down to r < 2, whose
shell holds every norm in (0, r]), smallest first, and tests each point
found with the slack comparison below; the first shell holding a violation
holds the smallest-norm one.  The reported ``inner`` is always computed as
k_p * alpha_p + (k without p) . (alpha without p), with p the index of the
largest |alpha_i|, so that its last bits do not depend on the enumeration.

The module also computes the largest admissible ``gamma`` for a given
direction, locates resonances (integer vectors orthogonal to the
direction), and estimates the spherical measure of the complement of the
condition by Monte Carlo sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    UNIT_NORM_TOL,
    CylinderBody,
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

_ENUM_CHUNK = 65536


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


def _iter_box_chunks(half: int, dim: int, chunk: int = _ENUM_CHUNK):
    """Yield int64 arrays covering the box [-half, half]^dim (includes 0)."""
    side = 2 * half + 1
    total = side**dim
    powers = [side**j for j in range(dim - 1, -1, -1)]
    start = 0
    while start < total:
        stop = min(start + chunk, total)
        flat = np.arange(start, stop, dtype=np.int64)
        coords = np.empty((stop - start, dim), dtype=np.int64)
        rem = flat
        for j, p in enumerate(powers):
            coords[:, j], rem = np.divmod(rem, p)
        coords -= half
        yield coords
        start = stop


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
    radii = [float(cutoff)]
    while radii[-1] / 2.0 >= 1.0:
        radii.append(radii[-1] / 2.0)
    radii.reverse()
    pivot = int(np.argmax(np.abs(a)))
    rest_axes = [j for j in range(a.size) if j != pivot]
    a_p = float(a[pivot])
    a_rest = a[rest_axes]
    counter = [0]
    for lower_sq, r in zip([0.0] + [r * r for r in radii[:-1]], radii):
        shortest = max(r / 2.0, 1.0)
        axial = params.gamma * shortest ** (-params.tau)
        # A violation needs gamma ||k||^(-tau) > slack ||k|| >= slack
        # shortest, so below that the shell cannot hold one.
        if axial * (1.0 + 1e-9) <= CMP_SLACK_PER_NORM * shortest:
            continue
        k = _fp_points(CylinderBody(a, axial, r), 1.0, limit, counter)
        norm_sq = np.sum(k * k, axis=1).astype(float)
        keep = (norm_sq > lower_sq) & (norm_sq <= r * r)
        if not np.any(keep):
            continue
        k, norm_sq = k[keep], norm_sq[keep]
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


def best_gamma(alpha, tau: float, cutoff: float):
    """Largest gamma for which alpha passes the truncated condition.

    Returns (gamma_max, argmin_k) with gamma_max = min |k.alpha| * ||k||^tau
    over 0 < ||k|| <= cutoff.  A resonant direction yields gamma_max == 0
    with the resonance as argmin.  Ties on the minimum take the smallest
    norm and then the lexicographically smallest sign-canonical vector.
    """
    a = require_unit(alpha)
    if cutoff is None or not (1.0 <= cutoff < math.inf):
        raise ValueError("best_gamma needs a finite cutoff >= 1")
    half = int(math.floor(cutoff))
    cut_sq = float(cutoff) * float(cutoff)
    best = None
    for k in _iter_box_chunks(half, a.size):
        norm_sq = np.sum(k * k, axis=1).astype(float)
        valid = (norm_sq > 0) & (norm_sq <= cut_sq)
        if not np.any(valid):
            continue
        kv = k[valid]
        nv = norm_sq[valid]
        prod = np.abs(kv @ a) * nv ** (tau / 2.0)
        # Resolve ties on the chunk minimum exactly: smallest norm first,
        # then the lexicographically smallest sign-canonical vector.
        tied = np.nonzero(prod == prod.min())[0]
        tied = tied[nv[tied] == nv[tied].min()]
        for i in tied:
            key = (float(prod[i]), float(nv[i]), _canonical(kv[i]))
            if best is None or key < best:
                best = key
    value, _, k_canon = best
    return float(value), k_canon


def resonance_search(alpha, max_order: float, tol: float = 0.0):
    """Primitive integer vectors k with |k . alpha| <= tol, ||k|| <= max_order.

    Each resonance hyperplane is reported once, through its sign-canonical
    primitive representative, sorted by norm (then lexicographically).  With
    tol == 0 the test degrades gracefully to machine precision, since the
    direction itself carries double-precision rounding.
    """
    a = require_unit(alpha)
    if not math.isfinite(max_order):
        raise ValueError("max_order must be finite")
    if max_order < 1:
        return []
    half = int(math.floor(max_order))
    max_sq = float(max_order) * float(max_order)
    seen = {}
    for k in _iter_box_chunks(half, a.size):
        norm_sq = np.sum(k * k, axis=1).astype(float)
        valid = (norm_sq > 0) & (norm_sq <= max_sq)
        if not np.any(valid):
            continue
        kv = k[valid]
        nv = norm_sq[valid]
        inner = np.abs(kv @ a)
        norm = np.sqrt(nv)
        near = inner <= np.maximum(tol, _RESONANCE_EPS_PER_NORM * norm)
        if not np.any(near):
            continue
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


def _worst_margin(samples: np.ndarray, tau: float, cutoff: float) -> np.ndarray:
    """Per-sample min over k of (|k.alpha| + slack*||k||) * ||k||^tau.

    A sample fails the truncated condition at level gamma exactly when its
    margin is < gamma, matching check_truncated's comparison slack.
    """
    n = samples.shape[1]
    half = int(math.floor(cutoff))
    cut_sq = float(cutoff) * float(cutoff)
    ks = []
    for k in _iter_box_chunks(half, n):
        norm_sq = np.sum(k * k, axis=1)
        valid = (norm_sq > 0) & (norm_sq <= cut_sq)
        ks.append(k[valid])
    k_all = np.concatenate(ks, axis=0)
    norm = np.sqrt(np.sum(k_all * k_all, axis=1).astype(float))
    weight = norm**tau
    slack = CMP_SLACK_PER_NORM * norm * weight
    margins = np.empty(samples.shape[0])
    step = max(1, int(5e6 / max(1, k_all.shape[0])))
    for s in range(0, samples.shape[0], step):
        block = samples[s : s + step]
        prod = np.abs(block @ k_all.T) * weight[None, :] + slack[None, :]
        margins[s : s + step] = prod.min(axis=1)
    return margins


def complement_measure_estimate(params: DioParams, samples: int, seed: int):
    """Monte Carlo estimate of the spherical measure of the complement.

    Draws ``samples`` uniform directions (normalized Gaussians), returns the
    fraction failing the truncated condition together with the binomial
    standard error sqrt(f(1-f)/samples).  Deterministic for a fixed seed.
    """
    if params.cutoff is None:
        raise ValueError("measure estimation needs a finite cutoff")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((samples, params.dim))
    norms = np.linalg.norm(raw, axis=1)
    # Regenerate the (measure-zero) degenerate draws deterministically.
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        raw[bad] = rng.standard_normal((int(bad.sum()), params.dim))
        norms = np.linalg.norm(raw, axis=1)
    dirs = raw / norms[:, None]
    margins = _worst_margin(dirs, params.tau, float(params.cutoff))
    fraction = float(np.mean(margins < params.gamma))
    stderr = math.sqrt(fraction * (1.0 - fraction) / samples)
    return fraction, stderr
