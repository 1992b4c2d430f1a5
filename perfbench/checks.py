"""Independent checks of torusfill outputs.

Every checker recomputes the property it guards from the raw inputs with
plain Python arithmetic (exact integers and ``Fraction`` where the library
uses floats or Bareiss elimination), so a defect in the library cannot hide
behind the same defect in the check.  A checker returns None when the output
is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Relative slack for the adapted-basis inequalities, which hold with real
# analytic margin; it only absorbs float rounding in the recomputation.
BASIS_SLACK = 1e-9

# Probe points per simulated run for the independent delta-density check.
DENSITY_PROBES = 64

# Duality products are floats; the transference bounds are compared with
# this absolute slack.
DUALITY_SLACK = 1e-9

# Double-precision unit roundoff.
_ULP = 2.0**-52


def scale_constant(n: int) -> int:
    return 1 + n * n * math.factorial(n)


def exact_dot(k, alpha) -> Fraction:
    """k . alpha exactly, for an integer vector and a float vector."""
    return sum((Fraction(int(x)) * Fraction(float(a)) for x, a in zip(k, alpha)), Fraction(0))


def det_int(columns) -> int:
    """Determinant of the integer matrix with the given columns.

    Gaussian elimination over the rationals; a different algorithm from the
    library's fraction-free Bareiss elimination.
    """
    n = len(columns)
    m = [[Fraction(int(columns[c][r])) for c in range(n)] for r in range(n)]
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return int(det)


def _torus_gap(x: float) -> float:
    d = x % 1.0
    return min(d, 1.0 - d)


def _canonical_sign(k) -> bool:
    return next(x for x in k if x != 0) > 0


def witness(alpha, tau, gamma, cutoff, k, inner, threshold):
    """A reported violation: 0 < ||k|| <= N and |k.alpha| < gamma ||k||^-tau."""
    k = tuple(int(x) for x in k)
    if len(k) != len(alpha) or not any(k):
        return f"witness {k} is zero or has the wrong dimension"
    norm_sq = sum(x * x for x in k)
    if norm_sq > cutoff * cutoff:
        return f"witness {k} has norm {math.sqrt(norm_sq):.6g} > N={cutoff}"
    if not _canonical_sign(k):
        return f"witness {k} is not sign-canonical"
    exact = abs(exact_dot(k, alpha))
    bound = gamma * float(norm_sq) ** (-tau / 2.0)
    if not float(exact) < bound:
        return f"witness {k} does not violate: |k.alpha|={float(exact):.6e} >= {bound:.6e}"
    if abs(inner - float(exact)) > 4 * _ULP * math.sqrt(norm_sq):
        return f"witness {k} reports |k.alpha|={inner!r}, recomputed {float(exact)!r}"
    if abs(threshold - bound) > 1e-12 * bound:
        return f"witness {k} reports threshold {threshold!r}, recomputed {bound!r}"
    return None


def basis(alpha, tau, gamma, cutoff, columns, determinant, multipliers):
    """|det| = 1 exactly, and the multiplier and deviation inequalities."""
    n = len(alpha)
    cols = [tuple(int(x) for x in c) for c in columns]
    if len(cols) != n or any(len(c) != n for c in cols):
        return "basis has the wrong shape"
    det = det_int(cols)
    if abs(det) != 1:
        return f"basis determinant is {det}, not +-1"
    if det != determinant:
        return f"basis reports determinant {determinant}, recomputed {det}"
    fact = math.factorial(n)
    mult_cap = n * fact * cutoff**tau / gamma
    dev_cap = n * fact / (cutoff - 1.0)
    for j, w in enumerate(cols):
        x = math.fsum(wi * float(ai) for wi, ai in zip(w, alpha))
        if not x > math.sqrt(3.0) / 2.0 - BASIS_SLACK:
            return f"multiplier {j} is {x!r} <= sqrt(3)/2"
        if not x <= mult_cap * (1.0 + BASIS_SLACK):
            return f"multiplier {j} is {x!r} > n n! N^tau / gamma = {mult_cap!r}"
        # x ||alpha - w/x|| = ||x alpha - w||, which avoids dividing first.
        dev = math.sqrt(math.fsum((x * float(ai) - wi) ** 2 for wi, ai in zip(w, alpha)))
        if not dev <= dev_cap * (1.0 + BASIS_SLACK):
            return f"direction {j} strays: x ||alpha - w/x|| = {dev!r} > {dev_cap!r}"
        if abs(float(multipliers[j]) - x) > BASIS_SLACK * x:
            return f"multiplier {j} reported {float(multipliers[j])!r}, recomputed {x!r}"
    return None


def filling_bound(n, tau, gamma, delta) -> float:
    return float(scale_constant(n)) ** (tau + 1.0) / (gamma * delta**tau)


def certificate(alpha, tau, gamma, multipliers, theta, delta, time, coords, distance):
    """The orbit point at the certified time is within delta of theta."""
    n = len(alpha)
    bound = filling_bound(n, tau, gamma, delta)
    if not 0.0 <= time <= bound * (1.0 + 1e-12):
        return f"time {time!r} outside [0, bound={bound!r}]"
    if len(coords) != n or not all(0.0 <= c < 1.0 for c in coords):
        return f"coords {coords} not in [0, 1)^n"
    recomputed = math.fsum(c * float(x) for c, x in zip(coords, multipliers))
    if abs(recomputed - time) > 1e-12 * max(1.0, time):
        return f"time {time!r} is not coords . multipliers = {recomputed!r}"
    gap = math.sqrt(
        math.fsum(_torus_gap(time * float(a) - float(t)) ** 2 for a, t in zip(alpha, theta))
    )
    if not gap < delta:
        return f"endpoint is {gap!r} from theta, not below delta={delta}"
    if abs(gap - distance) > 1e-9:
        return f"endpoint distance reported {distance!r}, recomputed {gap!r}"
    return None


def resonant_fill(fill_time, expected, tolerance):
    """A closed orbit of known period fills within the calibrated tolerance."""
    if fill_time is None:
        return "resonant orbit did not fill"
    if not abs(fill_time - expected) <= tolerance:
        return f"fill time {fill_time!r} is not within {tolerance!r} of {expected!r}"
    return None


def fill(alpha, theta0, delta, dt, max_time, fill_time, uncovered, probes):
    """Outcome bookkeeping, plus a probe check that a fill is delta-dense.

    The orbit samples up to a reported fill time must come within delta of
    every probe point: the grid certificate promises more (every point of
    the torus within delta of the continuous segment), and the samples lie
    within dt/2 of that segment by construction.
    """
    if fill_time is None:
        return None if uncovered > 0 else "unfilled run reports no uncovered cells"
    if uncovered != 0:
        return f"filled run reports {uncovered} uncovered cells"
    if not 0.0 <= fill_time <= max_time:
        return f"fill time {fill_time!r} outside [0, max_time={max_time}]"
    steps = round(fill_time / dt)
    if abs(steps * dt - fill_time) > 1e-9 * max(1.0, fill_time):
        return f"fill time {fill_time!r} is not a multiple of dt={dt}"
    a = np.asarray(alpha, dtype=float)
    ts = np.arange(steps + 1) * dt
    pts = np.mod(np.asarray(theta0, dtype=float)[None, :] + ts[:, None] * a[None, :], 1.0)
    worst = 0.0
    for p in probes:
        d = np.abs(pts - p[None, :])
        d = np.minimum(d, 1.0 - d)
        worst = max(worst, float(np.sqrt(np.min(np.sum(d * d, axis=1)))))
    if not worst < delta:
        return f"orbit up to t={fill_time!r} misses a probe by {worst!r} >= delta={delta}"
    return None


def duality(n, products, within_bounds):
    """Every product lambda_k(polar) lambda_{n+1-k}(body) lies in [1, n!]."""
    upper = math.factorial(n)
    if len(products) != n:
        return f"{len(products)} products for n={n}"
    for p in products:
        if not 1.0 - DUALITY_SLACK <= p <= upper + DUALITY_SLACK:
            return f"duality product {p!r} outside [1, {upper}]"
    if within_bounds is not True:
        return "report says the products are out of bounds"
    return None


def gamma_report(alpha, tau, cutoff, gamma_max, argmin):
    """gamma_max equals |k.alpha| ||k||^tau recomputed from argmin_k."""
    k = tuple(int(x) for x in argmin)
    if len(k) != len(alpha) or not any(k):
        return f"argmin {k} is zero or has the wrong dimension"
    norm_sq = sum(x * x for x in k)
    if norm_sq > cutoff * cutoff:
        return f"argmin {k} has norm > N={cutoff}"
    weight = float(norm_sq) ** (tau / 2.0)
    exact = float(abs(exact_dot(k, alpha))) * weight
    # The library forms k.alpha in floats: allow its rounding, not more.
    tol = 4 * _ULP * sum(abs(x) for x in k) * weight + 1e-12 * exact
    if abs(gamma_max - exact) > tol:
        return f"gamma_max {gamma_max!r} but |k.alpha| ||k||^tau = {exact!r} for k={k}"
    return None


def resonances(alpha, max_order, tol, entries, count, expected):
    """Each entry is a primitive, sign-canonical, near-orthogonal vector;
    the list is sorted and contains every resonance the caller built in."""
    seen = []
    for e in entries:
        k = tuple(int(x) for x in e["k"])
        if not any(k) or math.gcd(*k) != 1:
            return f"resonance {k} is zero or not primitive"
        if not _canonical_sign(k):
            return f"resonance {k} is not sign-canonical"
        norm = math.sqrt(sum(x * x for x in k))
        if norm > max_order or abs(e["order"] - norm) > 1e-12 * norm:
            return f"resonance {k} reports order {e['order']!r}, norm {norm!r}"
        residual = float(abs(exact_dot(k, alpha)))
        slack = 4 * _ULP * sum(abs(x) for x in k)
        if residual > max(tol, 1e-14 * norm) + slack:
            return f"resonance {k} has |k.alpha|={residual!r} above the tolerance"
        if abs(e["residual"] - residual) > slack:
            return f"resonance {k} reports residual {e['residual']!r}, recomputed {residual!r}"
        seen.append((e["order"], k))
    if seen != sorted(seen) or len(set(k for _, k in seen)) != len(seen):
        return "resonances are not sorted by (order, k) or repeat"
    if count != len(seen):
        return f"count {count} but {len(seen)} resonances listed"
    missing = [k for k in expected if k not in {k for _, k in seen}]
    if missing:
        return f"known resonances {missing} not reported"
    return None


def measure(samples, fraction, stderr):
    """A binomial estimate: f in [0, 1], f * samples whole, stderr consistent."""
    if not 0.0 <= fraction <= 1.0:
        return f"fraction {fraction!r} outside [0, 1]"
    if abs(fraction * samples - round(fraction * samples)) > 1e-6:
        return f"fraction {fraction!r} is not a count out of {samples}"
    expect = math.sqrt(fraction * (1.0 - fraction) / samples)
    if abs(stderr - expect) > 1e-12 + 1e-9 * expect:
        return f"stderr {stderr!r}, recomputed {expect!r}"
    return None
