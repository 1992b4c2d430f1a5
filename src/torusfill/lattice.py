"""Integer points and successive minima of direction-aligned convex bodies.

Two body families are supported, both symmetric about the origin and
parameterized by a unit axis and two positive half-extents:

* ``CylinderBody(axis, a, b)``: points p with |p . axis| <= a and
  ||p - (p . axis) axis|| <= b.  Its gauge (smallest dilation containing a
  point) is max(|s|/a, ||perp||/b).
* ``DiamondBody(axis, a, b)``: gauge a |s| + b ||perp||.  This is the exact
  polar of the cylinder with the same extents, and vice versa.

Integer points are enumerated by a small float LLL pass against the body's
quadratic proxy and a Fincke-Pohst sweep over the bounding ellipsoid.  Both
read an R factor of W = QR for the embedded basis W, in whose coordinates
the ellipsoid is a ball.  ``_r_factor`` computes it by Householder
reflections on Python floats, embedding each integer column with the
roundings of ``embed``, and an enumeration factors twice.  The LLL factors
the identity basis once and then updates R in place: a size-reduction step
by the column operation it applies to U, a swap by one Givens rotation.
The sweep factors the reduced basis afresh, so that its pad bounds only its
own rounding, and runs on Python floats and ints; numpy enters only to map
the found coefficients back through U and to filter them by the gauge.
Far from ratio 1 (axial-to-radial extents around 1e10 and beyond) the LLL
gives up at its multiplier and entry caps, and the sweep may then exhaust
the candidate budget; near the double range a sweep level's interval can
lose its finite ends, which is a ResourceLimitError too.  The sweep and the
gauge filter are float computations: at n = 4 and ratios near 1e15,
||k|| 2^-53 approaches the radial extent, the batched and per-point gauges
of one k disagree, and the enumerated set can miss integer points of gauge
just below 1.  An exact integral LLL and exact decisions are the planned
fixes (ROADMAP items 2 and 3).  All reported witnesses and determinants are
integer-exact.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = [
    "UNIT_NORM_TOL",
    "DEFAULT_BUDGET",
    "MEMBERSHIP_SLACK",
    "ENTRY_LIMIT",
    "ResourceLimitError",
    "InternalInvariantError",
    "CylinderBody",
    "DiamondBody",
    "MinimaResult",
    "IntegerBasis",
    "dilation_needed",
    "lattice_points_in",
    "successive_minima",
    "polar_body",
    "coreciprocal_body",
    "duality_check",
    "extract_zbasis",
    "det_exact",
    "require_unit",
]

# Directions must be unit vectors to this absolute tolerance; nothing is
# renormalized silently.
UNIT_NORM_TOL = 1e-9

# Budget on enumeration candidates examined before giving up.
DEFAULT_BUDGET = 10**8

# Membership comparisons use <= with this absolute slack.
MEMBERSHIP_SLACK = 1e-12

# Candidate vectors with larger entries are discarded before exact integer
# work; keeps intermediate products comfortably inside 64-bit float range.
ENTRY_LIMIT = 2**30


class ResourceLimitError(RuntimeError):
    """An enumeration exceeded its candidate budget."""


class InternalInvariantError(RuntimeError):
    """A mathematically guaranteed property failed; indicates a bug or
    tolerance mismatch, not bad user input."""


def require_unit(alpha) -> np.ndarray:
    """Validate that alpha is a unit vector; no silent renormalization."""
    a = np.asarray(alpha, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ValueError("direction must be a 1-d vector of dimension >= 2")
    if not np.all(np.isfinite(a)):
        raise ValueError("direction has non-finite entries")
    if abs(float(np.linalg.norm(a)) - 1.0) > UNIT_NORM_TOL:
        raise ValueError(
            "direction is not a unit vector (use normalize() explicitly)"
        )
    return a


def _unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def _budget(budget: int | None) -> int:
    """The candidate budget to enforce: the default for None, else >= 1."""
    if budget is None:
        return DEFAULT_BUDGET
    if budget < 1:
        raise ValueError("budget must be >= 1")
    return budget


def _as_int_matrix(rows) -> list[list[int]]:
    return [[int(x) for x in row] for row in rows]


def det_exact(matrix) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = _as_int_matrix(matrix)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            for r in range(col + 1, n):
                if m[r][col] != 0:
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def _minors_gcd(vectors) -> int:
    """gcd of all maximal minors of the matrix with the given columns.

    The gcd is 0 exactly when the vectors are linearly dependent.  A set of
    j integer vectors extends to a basis of Z^n exactly when it is 1; any
    superset's determinant is divisible by it, which makes it a sound
    pruning rule during basis search.
    """
    cols = _as_int_matrix(vectors)
    j = len(cols)
    n = len(cols[0])
    g = 0
    for rows in combinations(range(n), j):
        sub = [[cols[c][r] for c in range(j)] for r in rows]
        g = math.gcd(g, abs(det_exact(sub)))
        if g == 1:
            return 1
    return g


def _canonical(k) -> tuple[int, ...]:
    """Sign convention for reported vectors: first nonzero entry positive."""
    for x in k:
        if x != 0:
            return tuple(int(v) for v in (k if x > 0 else [-y for y in k]))
    return tuple(int(v) for v in k)


# Integers below this in magnitude have at most 26 significant bits, so
# their product with a half from ``_halves`` is exact.
_HALF_BITS = 2**26


def _halves(x: float) -> tuple[float, float]:
    """Dekker's split x = hi + lo, each half of at most 26 significant bits,
    so that the product of two halves is exact."""
    t = x * 134217729.0  # 2**27 + 1
    hi = t - (t - x)
    return hi, x - hi


class _BodyBase:
    """Shared validation and helpers for the two body families."""

    def __init__(self, axis, axial_half: float, radial_half: float):
        a = require_unit(axis)
        if not (axial_half > 0.0 and radial_half > 0.0):
            raise ValueError("half-extents must be positive")
        if not (np.isfinite(axial_half) and np.isfinite(radial_half)):
            raise ValueError("half-extents must be finite")
        object.__setattr__(self, "axis", a)
        object.__setattr__(self, "axial_half", float(axial_half))
        object.__setattr__(self, "radial_half", float(radial_half))
        object.__setattr__(
            self, "_axis_halves", [(c, *_halves(c)) for c in a.tolist()]
        )

    @property
    def dim(self) -> int:
        return int(self.axis.size)

    def _split(self, points):
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        s = pts @ self.axis
        perp = pts - s[:, None] * self.axis[None, :]
        perp_norm = np.linalg.norm(perp, axis=1)
        return s, perp, perp_norm, single

    def _split_ints(self, u):
        """s = u . axis and u - s axis of one integer vector, as Python
        floats; ``_embed_ints`` scales them as ``embed`` does.

        s is a chain of fused multiply-adds, s <- round(x c + s), which is
        how numpy's BLAS dot in ``_split`` rounds it on FMA hardware, so the
        two embeddings agree bit for bit there.  Each product is split
        into exact partial products, and ``math.fsum`` rounds their sum
        with s once.
        """
        s = 0.0
        for x, (_, hi, lo) in zip(u, self._axis_halves):
            if -_HALF_BITS < x < _HALF_BITS:
                s = math.fsum((x * hi, x * lo, s))
            else:
                x_hi, x_lo = _halves(float(x))
                s = math.fsum((x_hi * hi, x_hi * lo, x_lo * hi, x_lo * lo, s))
        return s, [x - s * c for x, (c, _, _) in zip(u, self._axis_halves)]

    def gauge(self, points):
        """Smallest dilation of the body containing each point."""
        raise NotImplementedError

    def contains(self, points, lam: float = 1.0):
        g = np.atleast_1d(self.gauge(points))
        return bool(np.all(g <= lam + MEMBERSHIP_SLACK))


@dataclass(frozen=True, eq=False, init=False)
class CylinderBody(_BodyBase):
    """Axis-aligned solid cylinder: axial half-length and radius."""

    axis: np.ndarray
    axial_half: float
    radial_half: float

    def __init__(self, axis, axial_half, radial_half):
        _BodyBase.__init__(self, axis, axial_half, radial_half)

    def gauge(self, points):
        s, _, perp_norm, single = self._split(points)
        g = np.maximum(
            np.abs(s) / self.axial_half, perp_norm / self.radial_half
        )
        return float(g[0]) if single else g

    def embed(self, points):
        """Map to coordinates where the bounding ellipsoid is a ball."""
        s, perp, _, single = self._split(points)
        out = np.concatenate(
            [(s / self.axial_half)[:, None], perp / self.radial_half], axis=1
        )
        return out[0] if single else out

    def _embed_ints(self, u) -> list[float]:
        s, perp = self._split_ints(u)
        return [s / self.axial_half] + [p / self.radial_half for p in perp]

    def ellipsoid_radius(self, lam: float) -> float:
        # gauge <= lam implies (s/a)^2 + (|perp|/b)^2 <= 2 lam^2
        return math.sqrt(2.0) * lam

    def search_radius(self, lam: float) -> float:
        return lam * math.hypot(self.axial_half, self.radial_half)

    def volume(self) -> float:
        n = self.dim
        return (
            2.0
            * self.axial_half
            * _unit_ball_volume(n - 1)
            * self.radial_half ** (n - 1)
        )


@dataclass(frozen=True, eq=False, init=False)
class DiamondBody(_BodyBase):
    """Exact polar of the cylinder with the same axis and extents.

    Membership at dilation lam: axial_half |p . axis| +
    radial_half ||p_perp|| <= lam.
    """

    axis: np.ndarray
    axial_half: float
    radial_half: float

    def __init__(self, axis, axial_half, radial_half):
        _BodyBase.__init__(self, axis, axial_half, radial_half)

    def gauge(self, points):
        s, _, perp_norm, single = self._split(points)
        g = self.axial_half * np.abs(s) + self.radial_half * perp_norm
        return float(g[0]) if single else g

    def embed(self, points):
        s, perp, _, single = self._split(points)
        out = np.concatenate(
            [(s * self.axial_half)[:, None], perp * self.radial_half], axis=1
        )
        return out[0] if single else out

    def _embed_ints(self, u) -> list[float]:
        s, perp = self._split_ints(u)
        return [s * self.axial_half] + [p * self.radial_half for p in perp]

    def ellipsoid_radius(self, lam: float) -> float:
        # (a s)^2 + (b |perp|)^2 <= (a|s| + b|perp|)^2 <= lam^2
        return float(lam)

    def search_radius(self, lam: float) -> float:
        return lam / min(self.axial_half, self.radial_half)

    def volume(self) -> float:
        n = self.dim
        return (
            2.0
            * _unit_ball_volume(n - 1)
            / (n * self.axial_half * self.radial_half ** (n - 1))
        )


@dataclass(frozen=True)
class MinimaResult:
    """Successive minima with integer witnesses.

    ``lambdas`` is nondecreasing; ``witnesses[j]`` is a linearly independent
    integer vector attaining ``lambdas[j]``.  ``scan_dilation`` records the
    dilation up to which the enumeration was provably complete.
    """

    lambdas: tuple[float, ...]
    witnesses: tuple[tuple[int, ...], ...]
    scan_dilation: float

    def witness_matrix(self) -> np.ndarray:
        return np.array(self.witnesses, dtype=np.int64).T


@dataclass(frozen=True)
class IntegerBasis:
    """Columns form a basis of Z^n: determinant exactly +-1."""

    columns: tuple[tuple[int, ...], ...]
    determinant: int

    def __post_init__(self):
        d = det_exact(self.columns)  # det(M^T) = det(M)
        if d != self.determinant or abs(d) != 1:
            raise InternalInvariantError("basis determinant is not +-1")

    def matrix(self) -> np.ndarray:
        return np.array(self.columns, dtype=np.int64).T


def dilation_needed(body, k) -> float:
    """Smallest lam with k in lam * body (closed-form gauge)."""
    arr = np.asarray(k)
    if arr.ndim != 1 or arr.size != body.dim:
        raise ValueError("k must be a vector matching the body dimension")
    if not np.any(arr):
        raise ValueError("k must be nonzero")
    return float(body.gauge(arr.astype(float)))


def _r_factor(body, U) -> list[list[float]]:
    """R of the QR factorization of the embedded columns of U, diag >= 0.

    Householder QR on Python floats, as rows.  Each column of W is the
    body's embedding of a column of U; column j is reflected onto its
    diagonal by H = I - tau v v^T with v_j = 1, as LAPACK's dgeqr2 does.
    Norms are taken with ``math.hypot``, which scales like ``dnrm2``, so
    extents near 1e+-300 give a finite R where a sum of squares would
    overflow.  A row with a negative diagonal is negated.
    """
    n = body.dim
    W = [body._embed_ints(u) for u in U.T.tolist()]
    R = [[0.0] * n for _ in range(n)]
    for j, x in enumerate(W):
        head, tail = x[j], x[j + 1 :]
        beta = head
        tail_norm = math.hypot(*tail)
        if tail_norm != 0.0:
            beta = -math.copysign(math.hypot(head, tail_norm), head)
            scale = head - beta
            v = [t / scale for t in tail]
            tau = -scale / beta
            for y in W[j + 1 :]:
                w = y[j]
                for vi, yi in zip(v, y[j + 1 :]):
                    w += vi * yi
                w *= tau
                y[j] -= w
                for i, vi in enumerate(v, j + 1):
                    y[i] -= w * vi
        row = R[j]
        row[j] = beta
        for k in range(j + 1, n):
            row[k] = W[k][j]
        if beta < 0.0:
            R[j] = [-r for r in row]
    return R


def _lll_reduce(body) -> np.ndarray:
    """Unimodular column matrix making the body's metric well conditioned.

    LLL (delta = 0.99) on the embedded basis W = QR, read off R: the
    Gram-Schmidt coefficients are R[j, k] / R[j, j] and the squared lengths
    R[i, i]^2.  R is factored once by ``_r_factor``.  A size-reduction step
    applies the same column operation to U and R, which is exact; a swap
    exchanges two columns and restores the triangle with one Givens
    rotation of rows k - 1 and k, then negates row k so that the diagonal
    stays >= 0.  The loop runs on Python floats and ints: R as the factor's
    rows, updated in place, and U as a list of integer columns.  Squares
    are taken as x * x, which gives inf where ``x ** 2`` on a Python float
    would raise.  Reduction quality only affects enumeration speed, never
    correctness, so the pass gives up (returning the current exact basis)
    on iteration or entry-size caps.
    """
    n = body.dim
    R = _r_factor(body, np.eye(n, dtype=np.int64))
    U = [[int(i == j) for i in range(n)] for j in range(n)]
    delta = 0.99
    k = 1
    steps = 0
    while k < n and steps < 4000:
        steps += 1
        for j in range(k - 1, -1, -1):
            r = round(R[j][k] / R[j][j])
            if r != 0:
                if abs(r) > 2**20 or max(map(abs, U[j])) > 2**40:
                    return np.array(U, dtype=np.int64).T
                U[k] = [x - r * y for x, y in zip(U[k], U[j])]
                for row in R[: j + 1]:
                    row[k] -= r * row[j]
        upper, lower = R[k - 1], R[k]
        diag = upper[k - 1]
        mu = upper[k] / diag
        if lower[k] * lower[k] >= (delta - mu * mu) * (diag * diag):
            k += 1
            continue
        U[k - 1], U[k] = U[k], U[k - 1]
        for row in R[: k + 1]:
            row[k - 1], row[k] = row[k], row[k - 1]
        # Rotate rows k - 1 and k to zero the new R[k, k - 1]; the second
        # row comes out negated, which keeps R[k, k] = sin * R[k - 1, k] >= 0.
        h = math.hypot(upper[k - 1], lower[k - 1])
        cos, sin = upper[k - 1] / h, lower[k - 1] / h
        upper[k - 1], lower[k - 1] = h, 0.0
        for i in range(k, n):
            x, y = upper[i], lower[i]
            upper[i] = cos * x + sin * y
            lower[i] = sin * x - cos * y
        k = max(k - 1, 1)
    return np.array(U, dtype=np.int64).T


_UNBOUNDED_SWEEP = (
    "the enumeration has no finite candidate count in double precision; "
    "the extents are too extreme"
)


def _fp_points(body, lam: float, budget: int, counter: list) -> np.ndarray:
    """All nonzero integer points with gauge <= lam (+ absolute slack).

    Fincke-Pohst sweep over the bounding ellipsoid in a reduced basis,
    followed by a closed-form gauge filter.  The sweep runs on Python
    floats and ints: R rows from a fresh ``_r_factor``, per-level partial
    sums and the coefficient list.  Found coefficients go into one flat
    int64 array, mapped back through U once.  Raises ResourceLimitError
    when more than ``budget`` candidates would be examined, or when a
    level's interval has no finite ends, so no finite candidate count.
    """
    n = body.dim
    U = _lll_reduce(body)
    # A fresh factor: the LLL's updated R carries rounding that grows with
    # its multipliers, and the pad below must bound the sweep's own error.
    R = _r_factor(body, U)
    if not all(R[i][i] > 0.0 for i in range(n)):
        # A zero or NaN pivot leaves its level's interval unbounded.
        raise ResourceLimitError(_UNBOUNDED_SWEEP)
    rho = body.ellipsoid_radius(lam) * (1.0 + 1e-9) + 1e-12
    pad = 1e-9 * rho + 1e-12
    slack = pad * (2 * rho + pad)

    found = array("q")
    coeffs = [0] * n
    # above[level] = R[0..level-1][level]; partial[level][j] (j <= level) =
    # Sum_{i > level} R[j][i] m_i.
    above = [[R[j][level] for j in range(level)] for level in range(n)]
    partial = [[0.0] * (level + 1) for level in range(n)]

    def descend(level: int, rem: float):
        diag = R[level][level]
        part = partial[level]
        center = -part[level] / diag
        hw = math.sqrt(rem) / diag + pad / diag
        low, high = center - hw, center + hw
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ResourceLimitError(_UNBOUNDED_SWEEP)
        lo = math.ceil(low)
        hi = math.floor(high)
        if hi < lo:
            return
        counter[0] += hi - lo + 1
        if counter[0] > budget:
            raise ResourceLimitError(
                f"enumeration exceeded budget of {budget} candidates"
            )
        if level == 0:
            offset = part[0]
            bound = rem + slack
            for m in range(lo, hi + 1):
                val = diag * m + offset
                if val * val <= bound:
                    coeffs[0] = m
                    found.extend(coeffs)
            return
        column = above[level]
        for m in range(lo, hi + 1):
            contrib = diag * m + part[level]
            rem_next = rem - contrib * contrib
            if rem_next < -slack:
                continue
            coeffs[level] = m
            partial[level - 1] = [p + m * r for p, r in zip(part, column)]
            descend(level - 1, max(rem_next, 0.0))

    descend(n - 1, rho * rho)
    if not found:
        return np.empty((0, n), dtype=np.int64)
    ms = np.frombuffer(found, dtype=np.int64).reshape(-1, n)
    pts = ms @ U.T
    pts = pts[np.any(pts != 0, axis=1)]
    if pts.shape[0] == 0:
        return np.empty((0, n), dtype=np.int64)
    g = np.atleast_1d(body.gauge(pts.astype(float)))
    pts = pts[g <= lam + MEMBERSHIP_SLACK]
    return pts


def _ordered(body, pts: np.ndarray):
    """The (dilation, norm, lexicographic) order of pts, and their gauges."""
    g = np.atleast_1d(body.gauge(pts.astype(float)))
    norm_sq = np.sum(pts * pts, axis=1)
    keys = tuple(pts[:, j] for j in range(pts.shape[1] - 1, -1, -1))
    return np.lexsort(keys + (norm_sq, g)), g


def lattice_points_in(body, lam: float, *, budget: int | None = None):
    """Exactly the nonzero integer points with dilation_needed <= lam.

    Sorted by (dilation, norm, lexicographic).  Both signs of each point are
    present.  Raises ResourceLimitError if the sweep would examine more than
    ``budget`` candidates (default 1e8 for None; a budget below 1 is a
    ValueError).
    """
    if not (lam >= 0.0 and np.isfinite(lam)):
        raise ValueError("lam must be finite and nonnegative")
    pts = _fp_points(body, lam, _budget(budget), [0])
    return pts[_ordered(body, pts)[0]]


def successive_minima(body, *, budget: int | None = None) -> MinimaResult:
    """All n successive minima with exact integer witnesses.

    The scan dilation starts at the first-minimum bound 2 / vol(body)^(1/n)
    and doubles until n independent witnesses appear; whenever the n-th
    candidate value fits inside the scanned dilation the enumeration was
    complete, so the values are exact, with ties broken by dilation, then
    norm, then lexicographic order of the sign-canonical representative.
    A volume that underflows to 0 or overflows leaves no finite, positive
    start dilation, and is a ValueError.
    """
    n = body.dim
    limit = _budget(budget)
    counter = [0]
    try:
        lam = 2.0 * body.volume() ** (-1.0 / n)
    except (OverflowError, ZeroDivisionError):
        lam = math.nan
    if not 0.0 < lam < math.inf:
        raise ValueError(
            "the body volume is out of the double range, so the minima "
            "scan has no start dilation; the extents are too extreme"
        )
    for _ in range(64):
        pts = _fp_points(body, lam, limit, counter)
        if pts.shape[0] >= n:
            reps = {}
            for row in pts:
                canon = _canonical(row)
                if canon not in reps:
                    reps[canon] = True
            cand = np.array(list(reps.keys()), dtype=np.int64)
            order, g = _ordered(body, cand)
            chosen: list[tuple[int, ...]] = []
            lambdas: list[float] = []
            for idx in order:
                vec = tuple(int(x) for x in cand[idx])
                if _minors_gcd(chosen + [vec]) != 0:
                    chosen.append(vec)
                    lambdas.append(float(g[idx]))
                    if len(chosen) == n:
                        break
            if len(chosen) == n and lambdas[-1] <= lam:
                return MinimaResult(
                    lambdas=tuple(lambdas),
                    witnesses=tuple(chosen),
                    scan_dilation=lam,
                )
        lam *= 2.0
    raise ResourceLimitError(
        "successive minima scan did not stabilize within the dilation cap"
    )


def polar_body(body):
    """Exact polar dual: cylinder <-> diamond with the same extents."""
    if isinstance(body, CylinderBody):
        return DiamondBody(body.axis, body.axial_half, body.radial_half)
    if isinstance(body, DiamondBody):
        return CylinderBody(body.axis, body.axial_half, body.radial_half)
    raise TypeError("unsupported body type")


def coreciprocal_body(body: CylinderBody) -> CylinderBody:
    """Cylinder with reciprocal extents (a superset of the exact polar).

    Involution: applying it twice returns the original extents.  Emptiness
    of its nonzero integer points implies the exact polar has first minimum
    greater than 1.
    """
    if not isinstance(body, CylinderBody):
        raise TypeError("coreciprocal_body is defined for cylinders")
    return CylinderBody(
        body.axis, 1.0 / body.axial_half, 1.0 / body.radial_half
    )


def duality_check(body, *, budget: int | None = None) -> np.ndarray:
    """Products lambda_k(polar) * lambda_{n+1-k}(body) for k = 1..n.

    Transference bounds put every product in [1, n!].
    """
    mins = successive_minima(body, budget=budget)
    polar_mins = successive_minima(polar_body(body), budget=budget)
    n = body.dim
    return np.array(
        [
            polar_mins.lambdas[k] * mins.lambdas[n - 1 - k]
            for k in range(n)
        ]
    )


def extract_zbasis(body, minima: MinimaResult, *, budget: int | None = None):
    """A basis of Z^n inside the (n * lambda_n)-dilation of the body.

    If the minima witnesses already have determinant +-1 they are returned
    unchanged.  Otherwise candidates up to dilation n * lambda_n are scanned
    greedily by (dilation, norm, lex); a candidate joins the partial basis
    when the gcd of the partial matrix's maximal minors stays 1, which is
    exactly the condition for the set to extend to a determinant +-1 basis.
    A backtracking pass with the same pruning covers the rare greedy misses.
    """
    n = body.dim
    limit = _budget(budget)
    if len(minima.witnesses) == n:
        d = det_exact(minima.witnesses)
        if abs(d) == 1:
            return IntegerBasis(
                columns=tuple(tuple(w) for w in minima.witnesses),
                determinant=d,
            )

    bound = n * minima.lambdas[-1]
    bound += MEMBERSHIP_SLACK * (1.0 + bound)
    counter = [0]
    pts = _fp_points(body, bound, limit, counter)
    reps = {}
    for row in pts:
        if int(np.abs(row).max()) > ENTRY_LIMIT:
            continue
        canon = _canonical(row)
        if canon in reps:
            continue
        if math.gcd(*(abs(x) for x in canon)) != 1:
            continue  # non-primitive vectors cannot sit in a unimodular basis
        reps[canon] = True
    cand = np.array(list(reps.keys()), dtype=np.int64)
    if cand.shape[0] < n:
        raise InternalInvariantError("too few candidates for basis extraction")
    ordered = [tuple(int(x) for x in cand[i]) for i in _ordered(body, cand)[0]]

    def finish(cols):
        return IntegerBasis(columns=tuple(cols), determinant=det_exact(cols))

    chosen: list[tuple[int, ...]] = []
    for vec in ordered:
        if _minors_gcd(chosen + [vec]) == 1:
            chosen.append(vec)
            if len(chosen) == n:
                return finish(chosen)

    # Greedy missed; exhaustive backtracking with the same minor-gcd pruning.
    nodes = [0]

    def search(start: int, cols: list) -> IntegerBasis | None:
        if len(cols) == n:
            return finish(cols)
        for i in range(start, len(ordered)):
            nodes[0] += 1
            if nodes[0] > limit:
                raise ResourceLimitError(
                    "basis backtracking exceeded the candidate budget"
                )
            if len(ordered) - i < n - len(cols):
                return None
            vec = ordered[i]
            if _minors_gcd(cols + [vec]) != 1:
                continue
            got = search(i + 1, cols + [vec])
            if got is not None:
                return got
        return None

    result = search(0, [])
    if result is None:
        raise InternalInvariantError(
            "no unimodular basis found within the guaranteed dilation"
        )
    return result
