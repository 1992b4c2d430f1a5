"""Constructive filling-time bounds for linear flow on the n-torus.

For a unit direction alpha satisfying a truncated Diophantine condition at
cutoff N, the integer lattice admits a basis almost parallel to alpha: each
basis vector w_j splits as x_j * omega_j with omega_j a unit-normalizable
direction close to alpha and x_j = w_j . alpha > 0.  Decomposing a target
point over that basis yields an explicit orbit time T at which the orbit of
0 lands within delta of the target, and T stays below an explicit constant
times 1 / (gamma delta^tau).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .diophantine import DioParams, ViolationWitness, check_truncated, require_unit
from .lattice import (
    CylinderBody,
    IntegerBasis,
    InternalInvariantError,
    MinimaResult,
    _Work,
    coreciprocal_body,
    det_exact,
    extract_zbasis,
    lattice_points_in,
    successive_minima,
)

__all__ = [
    "DiophantineRejection",
    "AdaptedBasis",
    "FillingCertificate",
    "critical_cutoff",
    "bound_constant",
    "filling_time_bound",
    "adapted_basis",
    "hitting_time",
]

# Validation slack for the adapted-basis inequalities; these hold with
# genuine analytic margin, the slack only absorbs float rounding.
_INVARIANT_SLACK = 1e-9


class DiophantineRejection(ValueError):
    """Input direction fails the required truncated condition."""

    def __init__(self, witness: ViolationWitness):
        self.witness = witness
        super().__init__(
            f"direction violates the truncated condition at k={witness.k}: "
            f"|k.alpha|={witness.inner:.3e} < {witness.threshold:.3e}"
        )


def _scale_constant(n: int) -> int | float:
    # 1 + n^2 n!: the cutoff and bound constants below are powers of it.
    # From n = 169 on it exceeds every double (1.2e309 at n = 169); it is
    # inf there, which spares the cost of n! for a huge n.
    if n >= 169:
        return math.inf
    return 1 + n * n * math.factorial(n)


def _finite_positive(value: float, what: str) -> float:
    """value, refused unless it is a finite positive double."""
    if not (0.0 < value < math.inf):
        raise ValueError(f"{what} is not a finite positive double")
    return value


def critical_cutoff(n: int, delta: float) -> float:
    """Smallest enumeration cutoff guaranteeing delta-filling certificates.

    Equals (1 + n^2 n!) / delta; requires 0 < delta < 1/2 and a result that
    is a finite double.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError("n must be an integer >= 2")
    if not (0.0 < delta < 0.5):
        raise ValueError("delta must lie in the open interval (0, 1/2)")
    return _finite_positive(_scale_constant(n) / delta, "critical cutoff")


def bound_constant(n: int, tau: float) -> float:
    """Constant C(n, tau) = (1 + n^2 n!)^(tau + 1) in the filling bound.

    ``tau`` must be finite and >= n - 1, and the result a finite double.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError("n must be an integer >= 2")
    if not (n - 1 <= tau < math.inf):
        raise ValueError("tau must be finite and satisfy tau >= n - 1")
    try:
        value = float(_scale_constant(n)) ** (tau + 1.0)
    except OverflowError:
        value = math.inf
    return _finite_positive(value, "bound constant")


def filling_time_bound(n: int, tau: float, gamma: float, delta: float) -> float:
    """Upper bound C(n, tau) / (gamma delta^tau) on the filling time."""
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    if not (0.0 < delta < 0.5):
        raise ValueError("delta must lie in (0, 1/2)")
    scale = gamma * delta**tau  # underflows to 0 for tiny gamma and delta
    value = bound_constant(n, tau) / scale if scale > 0.0 else math.inf
    return _finite_positive(value, "filling time bound")


@dataclass(frozen=True)
class AdaptedBasis:
    """Integer basis adapted to a direction.

    ``integer_basis`` columns w_j satisfy w_j . alpha = multipliers[j] > 0,
    ``directions[j] = w_j / multipliers[j]`` is close to alpha, and

        sqrt(3)/2 < multipliers[j] <= n n! N^tau / gamma,
        ||alpha - directions[j]|| <= n n! / (multipliers[j] (N - 1)).

    ``inverse`` is the exact integer inverse of the basis matrix (columns
    w_j), as rows of Python ints; the basis is unimodular, so it is integral.
    """

    alpha: np.ndarray
    params: DioParams
    multipliers: np.ndarray
    directions: np.ndarray  # row j = directions[j]
    integer_basis: IntegerBasis
    minima: MinimaResult
    inverse: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FillingCertificate:
    """Witness that the orbit of 0 reaches a delta-ball around theta.

    ``coords`` are the unique coefficients in [0, 1) of theta over the
    adapted basis; ``time`` is their weighted sum, and the orbit point at
    that time is ``endpoint_distance`` away from theta (torus metric).
    """

    theta: tuple[float, ...]
    coords: tuple[float, ...]
    time: float
    endpoint_distance: float
    bound: float
    cutoff: float


def adapted_basis(alpha, params: DioParams, *, budget: int | None = None):
    """Construct the direction-adapted unimodular basis.

    Requires params.cutoff > 1 + n^2 n! and the direction to pass the
    truncated condition at params; rejects with the violation witness
    otherwise.  The construction enumerates integer points of the cylinder
    with axial half-extent N^tau / gamma and radius 1 / (N - 1); a
    recomputed-from-scratch exclusion check and exact determinant checks
    guard every guaranteed inequality, raising InternalInvariantError on
    any mismatch.  All stages charge their candidates to one record of
    ``budget`` (1e8 if None).
    """
    a = require_unit(alpha)
    n = params.dim
    if a.size != n:
        raise ValueError("alpha dimension does not match params.dim")
    scale = _scale_constant(n)
    if not (params.cutoff > scale):
        raise ValueError(
            f"cutoff must exceed 1 + n^2 n! = {scale} for this construction"
        )
    work = _Work.of(budget)
    witness = check_truncated(a, params, budget=work)
    if witness is not None:
        raise DiophantineRejection(witness)

    cutoff = float(params.cutoff)
    axial = cutoff**params.tau / params.gamma
    radial = 1.0 / (cutoff - 1.0)
    tube = CylinderBody(a, axial, radial)

    # Independent restatement of the membership check: the reciprocal-extent
    # cylinder must contain no nonzero integer point.
    blockers = lattice_points_in(coreciprocal_body(tube), 1.0, budget=work)
    if blockers.shape[0] != 0:
        raise InternalInvariantError(
            "membership passed but the reciprocal cylinder contains "
            f"integer points, e.g. {tuple(int(x) for x in blockers[0])}"
        )

    minima = successive_minima(tube, budget=work)
    if not (minima.lambdas[-1] < math.factorial(n)):
        raise InternalInvariantError(
            "n-th minimum reached n! despite the exclusion certificate"
        )
    basis = extract_zbasis(tube, minima, budget=work)

    cols = np.array(basis.columns, dtype=np.int64)  # row j = w_j
    x = cols.astype(float) @ a
    flip = x < 0
    if np.any(flip):
        cols[flip] = -cols[flip]
        x = np.abs(x)
        basis = IntegerBasis(
            columns=tuple(tuple(int(v) for v in row) for row in cols),
            determinant=basis.determinant * (-1 if np.sum(flip) % 2 else 1),
        )
    multiplier_cap = n * math.factorial(n) * axial
    if not np.all(x > math.sqrt(3.0) / 2.0 - _INVARIANT_SLACK):
        raise InternalInvariantError("a basis multiplier fell below sqrt(3)/2")
    if not np.all(x <= multiplier_cap * (1.0 + _INVARIANT_SLACK)):
        raise InternalInvariantError("a basis multiplier exceeded n n! N^tau / gamma")
    dirs = cols.astype(float) / x[:, None]
    dev = np.linalg.norm(a[None, :] - dirs, axis=1)
    dev_cap = n * math.factorial(n) / (cutoff - 1.0)
    if not np.all(dev * x <= dev_cap * (1.0 + _INVARIANT_SLACK)):
        raise InternalInvariantError("a basis direction strays too far from alpha")
    return AdaptedBasis(
        alpha=a,
        params=params,
        multipliers=x,
        directions=dirs,
        integer_basis=basis,
        minima=minima,
        inverse=_exact_inverse(basis),
    )


def _adjugate_int(matrix: list[list[int]]) -> list[list[int]]:
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


def _exact_inverse(basis: IntegerBasis) -> tuple[tuple[int, ...], ...]:
    """Integer inverse det * adj of a unimodular basis, checked exactly."""
    n = len(basis.columns)
    mat = [[int(basis.columns[c][r]) for c in range(n)] for r in range(n)]
    det = basis.determinant
    inv = tuple(tuple(det * v for v in row) for row in _adjugate_int(mat))
    product = [
        [sum(mat[r][k] * inv[k][c] for k in range(n)) for c in range(n)]
        for r in range(n)
    ]
    if product != [[int(r == c) for c in range(n)] for r in range(n)]:
        raise InternalInvariantError(
            "basis times its integer inverse is not the identity"
        )
    return inv


def hitting_time(basis: AdaptedBasis, theta, delta: float) -> FillingCertificate:
    """Explicit orbit time whose endpoint lands within delta of theta.

    theta is reduced modulo 1 on entry; coords are t = frac(M^-1 theta) for
    the basis matrix M, computed exactly.  Every double is an integer over a
    power of two, so with D the largest denominator among the entries of
    theta, theta = m / D for an integer vector m.  M^-1 is the integer
    matrix ``basis.inverse``, so M^-1 theta = (M^-1 m) / D and its
    fractional parts are ((M^-1 m) mod D) / D, exact integer arithmetic up
    to the final int / int division, which Python rounds correctly.  No
    linear-solve tolerance exists and huge inverse entries cannot smear the
    fractional parts: coords are the doubles nearest the exact rationals.

    The endpoint distance is guaranteed below delta whenever the basis
    cutoff is at least critical_cutoff(n, delta); in that case a
    certificate that misses is never returned, InternalInvariantError is
    raised instead.
    """
    params = basis.params
    n = params.dim
    if not (0.0 < delta < 0.5):
        raise ValueError("delta must lie in (0, 1/2)")
    th = np.asarray(theta, dtype=float)
    if th.ndim != 1 or th.size != n:
        raise ValueError("theta must be an n-vector")
    th = np.mod(th, 1.0)

    target = th.tolist()
    ratios = [v.as_integer_ratio() for v in target]
    denom = max(d for _, d in ratios)
    num = [p * (denom // d) for p, d in ratios]
    coords = tuple(
        (sum(map(operator.mul, row, num)) % denom) / denom for row in basis.inverse
    )
    time = float(np.array(coords) @ basis.multipliers)
    endpoint = np.mod(time * basis.alpha, 1.0)
    diff = np.abs(endpoint - th)
    diff = np.minimum(diff, 1.0 - diff)
    distance = float(np.linalg.norm(diff))
    if params.cutoff >= critical_cutoff(n, delta) and not (distance < delta):
        raise InternalInvariantError(
            f"hitting certificate misses theta by {distance!r} >= delta = "
            f"{delta!r} although the cutoff is critical"
        )
    return FillingCertificate(
        theta=tuple(target),
        coords=coords,
        time=time,
        endpoint_distance=distance,
        bound=filling_time_bound(n, params.tau, params.gamma, delta),
        cutoff=float(params.cutoff),
    )
