"""Shared naive oracles for cross-checking the fast implementations.

Everything here trades speed for obviousness: plain box scans, direct
definitions, no reduction tricks.  Tests compare library outputs against
these on small instances.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from torusfill import (
    CoverageResult,
    FillingCertificate,
    ResonanceReport,
    ViolationWitness,
    det_exact,
    filling_time_bound,
    require_unit,
)
from torusfill.diophantine import CMP_SLACK_PER_NORM, _RESONANCE_EPS_PER_NORM


def box_vectors(radius, dim):
    """All nonzero integer vectors with Euclidean norm <= radius."""
    r = int(math.floor(radius + 1e-9))
    out = []
    for k in itertools.product(range(-r, r + 1), repeat=dim):
        if any(k) and math.hypot(*k) <= radius + 1e-9:
            out.append(np.array(k, dtype=np.int64))
    return out


def naive_gauge(body, k):
    """Closed-form dilation recomputed from the membership definition."""
    kf = np.asarray(k, dtype=float)
    s = float(kf @ body.axis)
    perp = float(np.linalg.norm(kf - s * body.axis))
    if type(body).__name__ == "CylinderBody":
        return max(abs(s) / body.axial_half, perp / body.radial_half)
    return body.axial_half * abs(s) + body.radial_half * perp


def naive_lattice_points(body, lam):
    """Box scan over the documented norm bound, filtered by the gauge."""
    pts = []
    for k in box_vectors(body.search_radius(lam) + 1.0, body.dim):
        if naive_gauge(body, k) <= lam + 1e-12:
            pts.append(k)
    return pts


def naive_minima(body):
    """Successive minima by sort-and-greedy over a growing box scan."""
    n = body.dim
    lam = 1.0
    for _ in range(40):
        cand = naive_lattice_points(body, lam)
        if len(cand) >= n:
            cand.sort(
                key=lambda k: (
                    naive_gauge(body, k),
                    float(k @ k),
                    tuple(k if next(x for x in k if x != 0) > 0 else -k),
                )
            )
            chosen = []
            lambdas = []
            for k in cand:
                trial = chosen + [k]
                if np.linalg.matrix_rank(np.array(trial, dtype=float)) == len(trial):
                    chosen.append(k)
                    lambdas.append(naive_gauge(body, k))
                    if len(chosen) == n:
                        return lambdas, chosen
        lam *= 2.0
    raise AssertionError("naive minima scan failed to terminate")


def naive_sweep_count(body, lam, R):
    """Candidates of the Fincke-Pohst sweep over both signs of every
    coefficient, on the upper-triangular factor R (rows) of a reduced basis.

    The same pads and roundings as the library's sweep, with the partial
    sums accumulated in its order (highest level first), but no sign rule:
    every level sweeps its whole interval.  The library's one-sign sweep
    must report exactly this count.
    """
    n = len(R)
    rho = body.ellipsoid_radius(lam) * (1.0 + 1e-9) + 1e-12
    pad = 1e-9 * rho + 1e-12
    slack = pad * (2 * rho + pad)
    coeffs = [0] * n
    count = 0

    def descend(level, rem):
        nonlocal count
        part = 0.0
        for i in range(n - 1, level, -1):
            part = part + coeffs[i] * R[level][i]
        diag = R[level][level]
        center = -part / diag
        hw = math.sqrt(rem) / diag + pad / diag
        lo, hi = math.ceil(center - hw), math.floor(center + hw)
        count += max(hi - lo + 1, 0)
        if level == 0:
            return
        for m in range(lo, hi + 1):
            contrib = diag * m + part
            rem_next = rem - contrib * contrib
            if rem_next >= -slack:
                coeffs[level] = m
                descend(level - 1, max(rem_next, 0.0))
        coeffs[level] = 0

    descend(n - 1, rho * rho)
    return count


def naive_lll_reduce(body) -> np.ndarray:
    """Unimodular column matrix making the body's metric well conditioned.

    The pass starts from the identity and gives up (returning the current
    exact basis) on iteration or entry-size caps; a basis left that way can
    make the float sweep miss points (see ``lattice._lll_reduce``).
    """
    n = body.dim
    cols = [np.zeros(n, dtype=np.int64) for _ in range(n)]
    for j in range(n):
        cols[j][j] = 1

    def gs():
        W = np.stack([body.embed(c.astype(float)) for c in cols])
        mu = np.zeros((n, n))
        q = np.zeros_like(W)
        bstar = np.zeros(n)
        for i in range(n):
            v = W[i].copy()
            for j in range(i):
                mu[i, j] = (W[i] @ q[j]) / bstar[j]
                v -= mu[i, j] * q[j]
            q[i] = v
            bstar[i] = float(v @ v)
        return mu, bstar

    delta = 0.99
    k = 1
    steps = 0
    while k < n and steps < 4000:
        steps += 1
        mu, bstar = gs()
        for j in range(k - 1, -1, -1):
            r = round(mu[k, j])
            if r != 0:
                if abs(r) > 2**20 or int(np.abs(cols[j]).max()) > 2**40:
                    return np.stack(cols, axis=1)
                cols[k] = cols[k] - np.int64(r) * cols[j]
                mu, bstar = gs()
        if bstar[k] >= (delta - mu[k, k - 1] ** 2) * bstar[k - 1]:
            k += 1
        else:
            cols[k - 1], cols[k] = cols[k], cols[k - 1]
            k = max(k - 1, 1)
    return np.stack(cols, axis=1)


def naive_violation(alpha, tau, gamma, cutoff):
    """Smallest-norm violating vector by full box scan, or None."""
    best = None
    for k in box_vectors(cutoff, alpha.size):
        nrm = float(np.linalg.norm(k))
        inner = abs(float(k @ alpha))
        if inner < gamma * nrm ** (-tau) - 1e-12 * nrm:
            key = (nrm, tuple(k if next(x for x in k if x != 0) > 0 else -k))
            if best is None or key < best[0]:
                best = (key, k)
    return None if best is None else best[1]


def _iter_box_chunks(half, dim, chunk=65536):
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


def _pivot_candidates(alpha, cutoff):
    """Yield (k_vectors, inner_products) covering every possible violation.

    Splits k into a pivot coordinate (the largest |alpha_i|) and the rest.
    For fixed rest coordinates every violating pivot value lies in a short
    interval around -(rest . alpha_rest) / alpha_pivot, because the violation
    threshold is at most gamma <= 1 and |alpha_pivot| >= 1/sqrt(n).
    """
    n = alpha.size
    half = int(math.floor(cutoff))
    pivot = int(np.argmax(np.abs(alpha)))
    rest_axes = [j for j in range(n) if j != pivot]
    a_p = float(alpha[pivot])
    a_rest = alpha[rest_axes]
    # Violations satisfy |k . alpha| < gamma <= 1, so the pivot coordinate is
    # within (1 + |a_p|)/|a_p| of the exact solution; pad by one for rounding.
    spread = int(math.ceil(1.0 / abs(a_p))) + 1
    offsets = np.arange(-spread, spread + 1, dtype=np.int64)

    for rest in _iter_box_chunks(half, n - 1):
        c = rest @ a_rest
        center = np.rint(-c / a_p).astype(np.int64)
        kp = center[:, None] + offsets[None, :]
        inner = kp * a_p + c[:, None]
        keep = np.abs(kp) <= half
        if not np.any(keep):
            continue
        rows, cols = np.nonzero(keep)
        k = np.empty((rows.size, n), dtype=np.int64)
        k[:, rest_axes] = rest[rows]
        k[:, pivot] = kp[rows, cols]
        yield k, inner[rows, cols]


def _canonical(k):
    for x in k:
        if x != 0:
            return tuple(int(v) for v in (k if x > 0 else -k))
    return tuple(int(v) for v in k)


def naive_check_truncated(alpha, params):
    """Membership by the pivot-column box scan over (2N+1)^(n-1) columns.

    The witness (k, inner, threshold) is the one the library must return
    bit for bit: smallest norm, then the lexicographically smallest
    sign-canonical vector, with inner from the same pivot expression.
    """
    a = require_unit(alpha)
    best = None
    cut_sq = float(params.cutoff) * float(params.cutoff)
    for k, inner in _pivot_candidates(a, float(params.cutoff)):
        norm_sq = np.sum(k * k, axis=1).astype(float)
        valid = (norm_sq > 0) & (norm_sq <= cut_sq)
        if not np.any(valid):
            continue
        norm = np.sqrt(norm_sq[valid])
        thr = params.gamma * norm ** (-params.tau)
        viol = np.abs(inner[valid]) < thr - CMP_SLACK_PER_NORM * norm
        if not np.any(viol):
            continue
        kv = k[valid][viol]
        nv = norm_sq[valid][viol]
        iv = inner[valid][viol]
        tv = thr[viol]
        for i in range(kv.shape[0]):
            key = (nv[i], _canonical(kv[i]))
            if best is None or key < best[0]:
                best = (key, float(iv[i]), float(tv[i]))
    if best is None:
        return None
    (_, k_canon), inner, thr = best
    return ViolationWitness(k=k_canon, inner=abs(inner), threshold=thr)


def naive_best_gamma(alpha, tau, cutoff):
    """min |k.alpha| ||k||^tau by a chunked scan of the whole box."""
    a = require_unit(alpha)
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


def naive_resonance_search(alpha, max_order, tol=0.0):
    """Primitive near-orthogonal vectors by a chunked scan of the whole box."""
    a = require_unit(alpha)
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


def naive_worst_margin(samples, tau, cutoff):
    """Per-sample margins against the k of a chunked box scan."""
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


def torus_distance_oracle(p, q):
    """Min over the 3^n integer shifts of the Euclidean distance."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    best = math.inf
    for shift in itertools.product((-1.0, 0.0, 1.0), repeat=p.size):
        best = min(best, float(np.linalg.norm(p - q - np.array(shift))))
    return best


def _naive_mark_ball(covered, point, radius):
    """Mark cells whose center is within radius of point; return new count."""
    n = point.size
    cells = covered.shape[0]
    reach = int(math.ceil(radius * cells)) + 1
    axes_idx = []
    axes_dist = []
    for j in range(n):
        base = int(math.floor(point[j] * cells - 0.5))
        if 2 * reach + 1 >= cells:
            idx = np.arange(cells)
        else:
            idx = np.arange(base - reach, base + reach + 1)
        centers = (idx + 0.5) / cells
        d = np.abs(point[j] - centers)
        d = np.minimum(d, 1.0 - d)
        axes_idx.append(np.mod(idx, cells))
        axes_dist.append(d)
    if n == 2:
        dist_sq = axes_dist[0][:, None] ** 2 + axes_dist[1][None, :] ** 2
        mask = dist_sq <= radius * radius
        block = covered[np.ix_(axes_idx[0], axes_idx[1])]
        fresh = mask & ~block
        if not np.any(fresh):
            return 0
        covered[np.ix_(axes_idx[0], axes_idx[1])] = block | mask
        return int(np.count_nonzero(fresh))
    dist_sq = (
        axes_dist[0][:, None, None] ** 2
        + axes_dist[1][None, :, None] ** 2
        + axes_dist[2][None, None, :] ** 2
    )
    mask = dist_sq <= radius * radius
    block = covered[np.ix_(axes_idx[0], axes_idx[1], axes_idx[2])]
    fresh = mask & ~block
    if not np.any(fresh):
        return 0
    covered[np.ix_(axes_idx[0], axes_idx[1], axes_idx[2])] = block | mask
    return int(np.count_nonzero(fresh))


def _naive_grid(n, delta, dt, grid_side):
    """Cells per axis, cell side and certificate radius, as the simulator's."""
    nominal = grid_side if grid_side is not None else delta / (2.0 * math.sqrt(n))
    cells = int(math.ceil(1.0 / nominal))
    side = 1.0 / cells
    return cells, side, delta - side * math.sqrt(n) / 2.0 - dt / 2.0


def naive_fill_time(alpha, theta0, delta, dt, max_time, *, grid_side=None):
    """Dense-window marking of every sample in turn (no input validation)."""
    a = np.asarray(alpha, dtype=float)
    n = a.size
    th = np.mod(np.asarray(theta0, dtype=float), 1.0)
    cells, side, radius = _naive_grid(n, delta, dt, grid_side)
    covered = np.zeros((cells,) * n, dtype=bool)
    total = cells**n
    seen = 0
    steps = int(math.floor(max_time / dt))
    for i in range(steps + 1):
        t = i * dt
        pos = np.mod(th + t * a, 1.0)
        seen += _naive_mark_ball(covered, pos, radius)
        if seen == total:
            return CoverageResult(delta, dt, side, t, 0, max_time)
    return CoverageResult(delta, dt, side, None, total - seen, max_time)


def naive_dense(points, delta, *, grid_side=None):
    """Dense-window static density check; first uncovered center or None."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    cells, _, radius = _naive_grid(n, delta, 0.0, grid_side)
    covered = np.zeros((cells,) * n, dtype=bool)
    for row in np.mod(pts, 1.0):
        _naive_mark_ball(covered, row, radius)
    if bool(covered.all()):
        return None
    return (np.argwhere(~covered)[0] + 0.5) / cells


def _adjugate_int(matrix):
    """Exact adjugate of a small integer matrix (cofactor expansion)."""
    n = len(matrix)
    adj = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            sub = [
                [matrix[i][j] for j in range(n) if j != c]
                for i in range(n)
                if i != r
            ]
            adj[c][r] = (-1) ** (r + c) * det_exact(sub)
    return adj


def exact_product(a, b):
    """Matrix product of two integer matrices in Python ints, as lists."""
    a = [[int(v) for v in row] for row in a]
    b = [[int(v) for v in row] for row in b]
    return [
        [sum(a[r][k] * b[k][c] for k in range(len(b))) for c in range(len(b[0]))]
        for r in range(len(a))
    ]


def naive_hitting_time(basis, theta, delta):
    """Hitting certificate by a fresh adjugate and Fraction sums (no checks)."""
    params = basis.params
    n = params.dim
    th = np.mod(np.asarray(theta, dtype=float), 1.0)

    cols = basis.integer_basis.matrix()  # columns w_j
    mat = [[int(cols[r, c]) for c in range(n)] for r in range(n)]
    adj = _adjugate_int(mat)
    det = basis.integer_basis.determinant
    # t = frac(M^-1 theta), computed exactly over the rationals so that huge
    # adjugate entries cannot smear the fractional parts.
    coords = []
    for r in range(n):
        acc = Fraction(0)
        for c in range(n):
            acc += Fraction(adj[r][c], det) * Fraction(th[c])
        coords.append(float(acc - math.floor(acc)))
    t = np.array(coords)
    time = float(t @ basis.multipliers)
    endpoint = np.mod(time * basis.alpha, 1.0)
    diff = np.abs(endpoint - th)
    diff = np.minimum(diff, 1.0 - diff)
    distance = float(np.linalg.norm(diff))
    return FillingCertificate(
        theta=tuple(float(v) for v in th),
        coords=tuple(float(v) for v in t),
        time=time,
        endpoint_distance=distance,
        bound=filling_time_bound(n, params.tau, params.gamma, delta),
        cutoff=float(params.cutoff),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
