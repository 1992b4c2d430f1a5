"""Brute-force fill-time measurement for linear flow on the 2- and 3-torus.

The orbit theta0 + t*alpha (mod 1) is sampled every dt time units and
covered cells are tracked on a cubical grid.  A cell counts as covered once
some sample lies within

    delta - (grid_side * sqrt(n)) / 2 - dt / 2

of its center, so a reported fill time certifies genuine delta-density of
the continuous orbit segment: any point of the torus is within half a cell
diagonal of a center, and any orbit point within dt/2 of a sample.

Marking.  The cells near a sample p form a window of 2*reach + 1 cells per
axis, reach = ceil(radius * cells) + 1, or the whole axis once that reaches
around the torus.  A cell is inside the ball when

    (d_0^2 + d_1^2) + d_2^2 <= radius^2     (squares summed in axis order),

d_j = min(|p_j - c_j|, 1 - |p_j - c_j|) with c_j = (idx + 0.5) / cells taken
at the cell's unwrapped window index.  A pencil is the line of cells along
the last axis with the other cell indices fixed.  Along a pencil d_last is
unimodal, so the ball meets it in one run of cells, contiguous on the ring;
the run's two ends are found by a vectorised bisection on the float
predicate above, evaluated exactly as a dense window would evaluate it, so
every cell gets the same verdict bit for bit.

Consecutive samples are then compared pencil by pencil, and only the cells
of run_i that are not in run_{i-1} are marked.  This is exact for any
sequence of points: once sample i-1 is marked every cell of run_{i-1} is
covered, so the covered set after sample i, and the first sample covering
each cell, are those of marking every ball in full.  The cost scales with
the cells the moving ball sweeps, not with its volume times the number of
samples.  Samples are processed in blocks sized from the grid and window:
a block searches at most window/32 (sample, pencil) pairs and marks at most
window/2 cells at a time, window = (2*reach + 1)^n, which keeps its arrays
within the memory of one dense window of float distances and masks (small
windows get a floor of 2^14).  The sample completing the cover is located
within its block, counting a cell that re-enters the ball there only once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diophantine import normalize, require_unit

__all__ = [
    "CoverageResult",
    "torus_distance",
    "empirical_fill_time",
    "verify_delta_dense",
    "resonant_reference",
    "resonant_demo_parameters",
]

_SUPPORTED_DIMS = (2, 3)
# Floor on the work of one marking block, so that small windows still
# spread the fixed cost of a block's numpy calls over many points.
_MIN_BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class CoverageResult:
    """Outcome of a grid-certified orbit coverage run.

    ``fill_time`` is the first sample time (a multiple of ``time_step``) at
    which every cell was covered, or None if the budget ``max_time`` expired
    first; ``uncovered_cells`` is then the number of cells still waiting.
    """

    delta: float
    time_step: float
    grid_side: float
    fill_time: float | None
    uncovered_cells: int
    max_time: float


def torus_distance(p, q) -> float:
    """Euclidean distance on the torus: coordinatewise wrapped differences."""
    a = np.asarray(p, dtype=float)
    b = np.asarray(q, dtype=float)
    if a.shape != b.shape:
        raise ValueError("points must share a shape")
    d = np.abs(np.mod(a - b, 1.0))
    d = np.minimum(d, 1.0 - d)
    return float(np.linalg.norm(d))


def _grid_setup(n: int, delta: float, dt: float, grid_side: float | None):
    if not (math.isfinite(delta) and math.isfinite(dt)):
        raise ValueError("delta and dt must be finite")
    nominal = grid_side if grid_side is not None else delta / (2.0 * math.sqrt(n))
    if not (0.0 < nominal <= 1.0):
        if grid_side is None:
            raise ValueError(
                "delta must lie in (0, 2 sqrt(n)] when no grid side is given"
            )
        raise ValueError("grid side must lie in (0, 1]")
    cells = int(math.ceil(1.0 / nominal))
    side = 1.0 / cells
    radius = delta - side * math.sqrt(n) / 2.0 - dt / 2.0
    if radius <= 0.0:
        minimal = side * math.sqrt(n) / 2.0 + dt / 2.0
        raise ValueError(
            "delta too small for a conservative certificate at this grid and "
            f"step; need delta > {minimal:.6g}"
        )
    return cells, side, radius


class _SweptCover:
    """Grid cells covered by balls of one radius around a sequence of points.

    The cells live in one flat boolean array in C order.  ``mark`` takes the
    points in order and keeps the runs of the last one, against which the
    next point's runs are differenced.
    """

    def __init__(self, n: int, cells: int, radius: float):
        self.n = n
        self.cells = cells
        self.rr = radius * radius
        self.reach = int(math.ceil(radius * cells)) + 1
        self.full = 2 * self.reach + 1 >= cells
        self.width = cells if self.full else 2 * self.reach + 1
        self.pencils = self.width ** (n - 1)
        # A searched (point, pencil) pair takes about 250 bytes of
        # temporaries and a marked cell about 14, so either stays below the
        # 12 bytes per cell of one dense window of distances and masks.
        window = self.width**n
        searches = max(window // 32, _MIN_BLOCK_CELLS)
        self.block = max(1, searches // self.pencils)
        self.chunk = max(window // 2, _MIN_BLOCK_CELLS)
        self.total = cells**n
        self.id_type = np.int32 if self.total < 2**31 else np.int64
        self.covered = np.zeros(self.total, dtype=bool)
        # Upper bound on the covered count: cells re-entering within a chunk
        # are counted again until the next exact count.
        self.seen = 0
        # Pencil-axis window starts and (first cell, length) of each run of
        # the last point marked; before the first point every run is empty.
        self._last = (
            np.zeros(n - 1, dtype=np.int64),
            np.zeros(self.pencils, dtype=np.int64),
            np.zeros(self.pencils, dtype=np.int64),
        )

    def uncovered(self) -> int:
        return self.total - int(np.count_nonzero(self.covered))

    def mark(self, points: np.ndarray) -> int | None:
        """Mark the points in order; return the index of the one whose ball
        completes the cover, or None if cells remain uncovered."""
        for lo in range(0, len(points), self.block):
            hit = self._mark_block(points[lo : lo + self.block])
            if hit is not None:
                return lo + hit
        return None

    def _runs(self, p: np.ndarray):
        """Window starts and per-pencil runs (first cell, length) of points.

        Per axis the distances are those a dense window computes: unwrapped
        window index, center (idx + 0.5) / cells, wrapped distance, squares
        summed in axis order.  On the last axis the window splits at
        the cell after p into a branch running right and one running left.
        Along each the distance never decreases (up to the farthest cell when
        the window is the whole ring), so the ball covers a prefix of each,
        found by bisection on the float predicate itself.
        """
        n, cells, width = self.n, self.cells, self.width
        size = len(p)
        base = np.floor(p * cells - 0.5).astype(np.int64)
        start = np.zeros_like(base) if self.full else base - self.reach
        idx = start[:, :, None] + np.arange(width)
        d = np.abs(p[:, :, None] - (idx + 0.5) / cells)
        d = np.minimum(d, 1.0 - d)
        sq = d**2
        part = sq[:, 0]
        for j in range(1, n - 1):
            axis = sq[:, j].reshape((size,) + (1,) * j + (width,))
            part = part[..., None] + axis
        part = part.reshape(size, -1)
        table = sq[:, -1]
        split = base[:, -1:] + 1
        if self.full:
            # The right branch runs up to the farthest cell of the ring.
            right = (np.argmax(table, axis=1)[:, None] - split) % cells + 1
        else:
            right = self.reach
        bits = width.bit_length()
        k = np.arange(1 << bits)
        rows = np.arange(size)[:, None]
        origin = rows * (1 << bits) - 1

        def covered_prefix(order, length):
            # Branch distances in search order, then inf, which never passes.
            at = np.minimum((order - start[:, -1:]) % cells, width - 1)
            branch = np.where(k < length, table[rows, at], np.inf).ravel()
            pos = np.repeat(origin, part.shape[1], axis=1)
            for bit in reversed(range(bits)):
                probe = pos + (1 << bit)
                np.copyto(pos, probe, where=part + branch[probe] <= self.rr)
            return pos - origin

        after = covered_prefix(split + k, right)
        before = covered_prefix(split - 1 - k, width - right)
        return start[:, :-1], (split - before) % cells, before + after

    def _mark_block(self, p: np.ndarray) -> int | None:
        heads, nums, bounds, swept = self._swept(p)
        done = 0
        while done < len(p):
            floor = swept[done - 1] if done else 0
            stop = int(np.searchsorted(swept, floor + self.chunk, "right"))
            stop = max(done + 1, stop)
            lo, hi = bounds[done], bounds[stop]
            ends = swept[done:stop] - floor
            hit = self._mark_ranges(heads[lo:hi], nums[lo:hi], ends)
            if hit is not None:
                return done + hit
            done = stop
        return None

    def _swept(self, p: np.ndarray):
        """Cells each point's ball adds to the previous point's, as id ranges.

        Returns the ranges' first ids and lengths in point order, the index
        of each point's first range, and the cumulative cell count per point.
        """
        n, cells, width = self.n, self.cells, self.width
        size = len(p)
        start, first, length = self._runs(p)
        starts = np.vstack([self._last[0], start])
        firsts = np.vstack([self._last[1], first[:-1]])
        lengths = np.vstack([self._last[2], length[:-1]])
        self._last = (start[-1], first[-1], length[-1])
        # Each window pencil's cell id, and its offset in the previous
        # point's window (valid when that window holds it too).
        offsets = np.arange(width)
        pencil = np.zeros((size, 1), dtype=np.int64)
        prev = np.zeros((size, 1), dtype=np.int64)
        valid = np.ones((size, 1), dtype=bool)
        for j in range(n - 1):
            here = starts[1:, j, None] + offsets
            there = (here - starts[:-1, j, None]) % cells
            pencil = pencil[:, :, None] * cells + here[:, None, :] % cells
            prev = prev[:, :, None] * width + there[:, None, :]
            valid = valid[:, :, None] & (there < width)[:, None, :]
            pencil = pencil.reshape(size, -1)
            prev = prev.reshape(size, -1)
            valid = valid.reshape(size, -1)
        prev[~valid] = 0
        prev_first = np.take_along_axis(firsts, prev, axis=1)
        prev_length = np.take_along_axis(lengths, prev, axis=1) * valid
        # run minus previous run: the previous run's complement on the ring
        # starts gap cells after first and runs to gap_end.
        gap = (prev_first + prev_length - first) % cells
        gap_end = gap + cells - prev_length
        tail = np.clip(np.minimum(gap_end, length) - gap, 0, None)
        head = np.clip(np.minimum(gap_end - cells, length), 0, None)
        at = (first + gap) % cells
        tail_in = np.minimum(tail, cells - at)
        head_in = np.minimum(head, cells - first)
        # Up to four ranges of cell ids per pencil, split where they wrap.
        zero = np.zeros_like(at)
        leads = np.stack([at, zero, first, zero], axis=-1)
        counts = np.stack(
            [tail_in, tail - tail_in, head_in, head - head_in], axis=-1
        ).reshape(size, -1)
        piece = np.flatnonzero(counts)
        heads = pencil.ravel()[piece // 4] * cells + leads.ravel()[piece]
        nums = counts.ravel()[piece]
        pieces = np.cumsum(np.count_nonzero(counts, axis=1))
        bounds = np.concatenate([[0], pieces])
        return heads, nums, bounds, np.cumsum(counts.sum(axis=1))

    def _mark_ranges(self, heads, nums, ends) -> int | None:
        """Mark id ranges in point order; points 0..i span ends[i] ids."""
        offset = (heads - np.cumsum(nums) + nums).astype(self.id_type)
        ids = np.repeat(offset, nums)
        ids += np.arange(ids.size, dtype=self.id_type)
        fresh_at = ~self.covered[ids]
        fresh = ids[fresh_at]
        self.covered[fresh] = True
        self.seen += fresh.size
        if self.seen < self.total:
            return None
        self.seen = self.total - self.uncovered()
        if self.seen < self.total:
            return None
        # The cover is complete, so the distinct fresh ids are exactly the
        # cells missing before these ranges: the last of their first
        # occurrences belongs to the point that completed it.
        _, first = np.unique(fresh, return_index=True)
        last = np.flatnonzero(fresh_at)[first.max()]
        return int(np.searchsorted(ends, last, "right"))


def empirical_fill_time(
    alpha,
    theta0,
    delta: float,
    dt: float,
    max_time: float,
    *,
    grid_side: float | None = None,
) -> CoverageResult:
    """March the orbit until the grid certificate reports delta-density.

    Deterministic; independent runs with identical inputs agree exactly.
    Expiring ``max_time`` before coverage is an ordinary outcome (reported
    with the count of uncovered cells), not an error.
    """
    a = require_unit(alpha)
    n = a.size
    if n not in _SUPPORTED_DIMS:
        raise ValueError("simulation supports dimensions 2 and 3 only")
    th = np.asarray(theta0, dtype=float)
    if th.shape != (n,):
        raise ValueError("theta0 must match the direction's dimension")
    if not np.all(np.isfinite(th)):
        raise ValueError("theta0 must be finite")
    th = np.mod(th, 1.0)
    if not (dt > 0.0 and max_time >= 0.0 and math.isfinite(max_time / dt)):
        raise ValueError(
            "dt must be positive and max_time finite and nonnegative"
        )
    cells, side, radius = _grid_setup(n, delta, dt, grid_side)
    cover = _SweptCover(n, cells, radius)
    samples = int(math.floor(max_time / dt)) + 1
    for lo in range(0, samples, cover.block):
        i = np.arange(lo, min(lo + cover.block, samples))
        hit = cover.mark(np.mod(th + (i * dt)[:, None] * a, 1.0))
        if hit is not None:
            return CoverageResult(
                delta=delta,
                time_step=dt,
                grid_side=side,
                fill_time=(lo + hit) * dt,
                uncovered_cells=0,
                max_time=max_time,
            )
    return CoverageResult(
        delta=delta,
        time_step=dt,
        grid_side=side,
        fill_time=None,
        uncovered_cells=cover.uncovered(),
        max_time=max_time,
    )


def verify_delta_dense(points, delta: float, *, grid_side: float | None = None):
    """Check delta-density of a static point set by grid certification.

    Returns None when every cell center is within delta - side*sqrt(n)/2 of
    some point (which certifies density at level delta), otherwise the
    center of the first uncovered cell in lexicographic order.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    if n not in _SUPPORTED_DIMS:
        raise ValueError("verification supports dimensions 2 and 3 only")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    cells, _, radius = _grid_setup(n, delta, 0.0, grid_side)
    cover = _SweptCover(n, cells, radius)
    if cover.mark(np.mod(pts, 1.0)) is not None:
        return None
    first = np.unravel_index(np.flatnonzero(~cover.covered)[0], (cells,) * n)
    return (np.array(first) + 0.5) / cells


def resonant_reference(q: int):
    """Reference resonant direction on the 2-torus with known fill data.

    Returns (alpha, delta, expected_time) where alpha is the normalization
    of (q, 1), the orbit closes after expected_time = sqrt(q^2 + 1), and the
    closed orbit is exactly delta-dense at delta = 1 / (2 sqrt(q^2 + 1)).
    """
    if not isinstance(q, int) or q < 1:
        raise ValueError("q must be an integer >= 1")
    alpha = normalize(np.array([float(q), 1.0]))
    period = math.sqrt(q * q + 1.0)
    return alpha, 1.0 / (2.0 * period), period


def resonant_demo_parameters(q: int) -> dict:
    """Calibrated measurement settings for the resonant reference orbit.

    The closed orbit is a circle of length T = sqrt(q^2+1); the farthest
    torus points sit exactly delta0 = 1/(2T) away, so a measured fill time
    lands near the full period only when the effective certificate radius
    exceeds delta0 by a controlled hair eps.  Cell centers split into
    families by perpendicular distance delta0 - kappa to the orbit line,
    kappa running over multiples of kappa_1 = 2*delta0/cells (the parity
    below makes a kappa = 0 ridge family exist).  A single-sided family
    member is covered once a sample lands within U = sqrt(2*delta0*
    (eps+kappa)) of its foot; feet near the orbit's closing point are
    absorbed at time ~0 (start and end coincide), so the family's last
    member waits until T - 2U - g with phase g < foot spacing T/cells.
    The calibration keeps that total inside the 2*dt tolerance for all
    q <= 5:

      eps = 1.05 * dt^2/(8*delta0)   (just above the soundness floor, so
                                      no cell is ever covered later than
                                      the full period),
      kappa_1 ~ 1.10 * eps           (first off-ridge family single-sided
                                      with the smallest possible window),

    giving 2U + g <= 1.87*dt, which the sample rounding turns into a
    measured time of T - dt exactly.  Families with kappa < eps (the
    ridge) are covered much earlier from both sides at generic arc offsets.
    The inflated delta handed to the simulator pre-pays the conservative
    shrink it will apply, leaving an effective radius of delta0 + eps.
    """
    alpha, delta0, period = resonant_reference(q)
    dt = delta0 / 10.0
    eps = 1.05 * dt * dt / (8.0 * delta0)
    # kappa_1 = 2*delta0/cells must exceed eps (single-sided family) while
    # hugging it, so the window stays near its floor; 16 delta0^2 / dt^2 =
    # 1600 makes the target count q-independent.
    cells = int(1600.0 / 1.155)
    if (cells + q) % 2 == 0:
        cells -= 1
    side = 1.0 / cells
    target_radius = delta0 + eps
    delta_test = target_radius + side * math.sqrt(2.0) / 2.0 + dt / 2.0
    return {
        "alpha": alpha,
        "delta_reference": delta0,
        "delta_test": delta_test,
        "dt": dt,
        "grid_side": side,
        "expected_time": period,
        "tolerance": 2.0 * dt,
        "max_time": 2.0 * period,
    }
