"""Grid covering numbers and log-log dimension fits for point clouds."""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InsufficientData,
    InvalidParameter,
    InvalidScale,
    StaleResolution,
)
from .util import SNAP, require_indexable, snap_floor, snap_into, write_csv, write_json


COUNT_BLOCK_ROWS = 16_384  # rows snapped per block, so temporaries stay in cache
PAIRWISE_SUM_COLUMNS = 8  # numpy sums rows this long or longer pairwise
TABLE_BYTES_PER_CODE = 8  # a table of span <= 8 * n bytes is no larger than n int64 codes
MAX_CHAIN_SHIFT = 62  # cell indices are int64: a side 2^63 times the finest is counted alone


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Finite set of points plus the scale down to which it is faithful.

    `resolution_floor` is the smallest scale at which the cloud still
    represents its idealized set; counting below it would measure the
    truncation instead.
    """

    points: np.ndarray
    resolution_floor: float

    def __init__(self, points, resolution_floor):
        pts = np.atleast_2d(np.asarray(points, dtype=float)).copy()
        self._adopt(pts, resolution_floor)

    @classmethod
    def _owning(cls, points: np.ndarray, resolution_floor) -> "PointCloud":
        """A cloud that keeps `points`, a fresh float (n, d) array, uncopied.

        The caller must hold no other reference it writes through: the
        array is checked as `__init__` checks its copy and made read-only.
        """
        cloud = cls.__new__(cls)
        cloud._adopt(points, resolution_floor)
        return cloud

    def _adopt(self, pts: np.ndarray, resolution_floor) -> None:
        """Check `pts` COUNT_BLOCK_ROWS rows at a time, freeze it and keep it."""
        if pts.shape[1] == 0:
            raise InvalidParameter("points need at least one coordinate")
        if not all(
            np.isfinite(pts[start : start + COUNT_BLOCK_ROWS]).all()
            for start in range(0, pts.shape[0], COUNT_BLOCK_ROWS)
        ):
            raise InvalidParameter("points must be finite")
        if resolution_floor <= 0:
            raise InvalidParameter("resolution floor must be positive")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "resolution_floor", float(resolution_floor))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    # `points` is a read-only private copy, so values derived from it can
    # be computed on first use and kept

    @cached_property
    def column_bounds(self) -> np.ndarray:
        """(2, d) array of each coordinate's minimum and maximum (needs a point).

        Reduced one column at a time, which is several times faster than
        a min over axis 0 of the (n, d) array.
        """
        cols = [self.points[:, c] for c in range(self.dim)]
        return np.array([[col.min() for col in cols], [col.max() for col in cols]])

    @cached_property
    def radius(self) -> float:
        """Largest Euclidean norm of a point (needs a point).

        Reduced COUNT_BLOCK_ROWS rows at a time, as the root of the largest
        squared norm (`_squared_norms`): sqrt is monotone and correctly
        rounded, so that is the largest norm, bit for bit.
        """
        blocks = range(0, len(self), COUNT_BLOCK_ROWS)
        return float(np.sqrt(max(
            float(_squared_norms(self.points[start : start + COUNT_BLOCK_ROWS]).max())
            for start in blocks
        )))

    def translated(self, offset) -> "PointCloud":
        return PointCloud(self.points + np.asarray(offset, dtype=float),
                          self.resolution_floor)


def _squared_norms(block: np.ndarray) -> np.ndarray:
    """Each row's sum of squares, the same floats `np.linalg.norm` roots.

    Below PAIRWISE_SUM_COLUMNS columns numpy adds a row's squares left to
    right, so adding the squared columns one at a time gives the same sums,
    several times faster than reducing short rows.  From there on numpy
    sums rows pairwise, and the rows are reduced as it does; it reduces
    no columns to 0.
    """
    if not 0 < block.shape[1] < PAIRWISE_SUM_COLUMNS:
        return np.add.reduce(block * block, axis=1)
    sq = block[:, 0] * block[:, 0]
    for c in range(1, block.shape[1]):
        sq += block[:, c] * block[:, c]
    return sq


def fits_table(n: int, span: int) -> bool:
    """True when n codes in [0, span) are dense enough for a table of span entries."""
    return span <= TABLE_BYTES_PER_CODE * n


class CodeSet:
    """The distinct values among at most n int64 codes in [0, span).

    When span <= 8 * n (`fits_table`) the codes are marked in a boolean
    occupancy table of span bytes, O(n + span) time with no sort; the
    table is never larger than the n int64 codes it stands in for.
    Sparser codes are copied into one array of n entries as they arrive
    and sorted there, O(n log n).
    """

    def __init__(self, n: int, span: int):
        if fits_table(n, span):
            self._table = np.zeros(span, dtype=bool)
        else:
            self._table = None
            self._codes = np.empty(n, dtype=np.int64)
            self._size = 0

    def add(self, codes: np.ndarray) -> None:
        if self._table is not None:
            self._table[codes] = True
        else:
            end = self._size + codes.size
            self._codes[self._size : end] = codes
            self._size = end

    def codes(self) -> np.ndarray:
        """The distinct codes, ascending."""
        if self._table is not None:
            return np.flatnonzero(self._table)
        codes = self._codes[: self._size]
        codes.sort()  # in place: no copy of the n codes, unlike np.unique
        first = np.empty(codes.size, dtype=bool)
        first[:1] = True
        np.not_equal(codes[1:], codes[:-1], out=first[1:])
        return codes[first]

    def count(self) -> int:
        if self._table is not None:
            return int(np.count_nonzero(self._table))
        return int(self.codes().size)


def _pack(cells: np.ndarray, lo: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """Packed code of each row of (m, d) cell indices in the box [lo, lo + spans)."""
    codes = cells[:, 0] - lo[0]
    for c in range(1, cells.shape[1]):
        codes *= spans[c]
        codes += cells[:, c] - lo[c]
    return codes


def _unpack(codes: np.ndarray, lo: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """(m, d) cell indices of packed codes: the inverse of `_pack`."""
    cells = np.empty((codes.size, spans.size), dtype=np.int64)
    for c in range(spans.size - 1, 0, -1):
        codes, cells[:, c] = np.divmod(codes, spans[c])
    cells[:, 0] = codes
    cells += lo
    return cells


def _grid(cloud: PointCloud, delta: float):
    """(side, lo, spans) of the cells of diameter delta over the cloud's box.

    The box is the snapped cloud's bounding box, taken from the cached
    column extremes (snap_floor is monotone).  A scale at which the
    largest coordinate over the side reaches 2^61 is refused first
    (`require_indexable`), so no cell index wraps.
    """
    side = delta / np.sqrt(cloud.dim)
    require_indexable(float(np.abs(cloud.column_bounds).max()), side, delta)
    lo, hi = snap_floor(cloud.column_bounds, side)
    spans = hi - lo + 1
    if float(np.prod(spans.astype(float))) >= 2**62:
        raise InvalidScale("grid too fine to index; raise the scale")
    return side, lo, spans


def _chains(sides) -> list[tuple[list, list]]:
    """Split scales into chains: (indices, shifts k) per chain.

    The first chain holds the finest side side_f with k = 0 and every side
    equal to ldexp(side_f, k) for 1 <= k <= MAX_CHAIN_SHIFT; every other
    scale is a chain of its own.  The sides come from `_grid`, so every
    quotient of the cloud's coordinates by side_f is below 2^61 and each
    fine cell index fits an int64.
    """
    fine = int(np.argmin(sides))
    side_f = sides[fine]
    indices, shifts, rest = [fine], [0], []
    for i, side in enumerate(sides):
        if i == fine:
            continue
        k = math.frexp(side)[1] - math.frexp(side_f)[1]
        if 1 <= k <= MAX_CHAIN_SHIFT and np.ldexp(side_f, k) == side:
            indices.append(i)
            shifts.append(k)
        else:
            rest.append(([i], [0]))
    return [(indices, shifts)] + rest


def _float_weights(lo: np.ndarray, spans: np.ndarray):
    """(w, offset) with which float cell rows c pack as `_pack` packs them, or None.

    `_pack`'s code of c in the box [lo, hi] is sum_j (c_j - lo_j) w_j, with
    w_(d-1) = 1 and w_j = w_(j+1) spans_(j+1); the float pack is c @ w -
    offset, offset = sum_j lo_j w_j.  Every product c_j w_j and partial sum
    of them, in any order, fused or not, is an integer of magnitude at most
    reach = sum_j max(|lo_j|, |hi_j|) w_j; so is the offset, and the
    difference is the code, in [0, prod spans).  While reach and prod spans
    are at most 2^53 these are all floats and every step is exact; past
    that (say a cloud far from the origin at a fine side) None is returned.
    """
    w = [1]
    for span in spans[:0:-1]:
        w.append(w[-1] * int(span))
    w.reverse()
    reach = sum(max(abs(int(a)), abs(int(a) + int(s) - 1)) * wj
                for a, s, wj in zip(lo, spans, w))
    if max(reach, math.prod(int(s) for s in spans)) > 2**53:
        return None
    return np.array(w, dtype=float), float(sum(int(a) * wj for a, wj in zip(lo, w)))


def _pack_cells(cells: np.ndarray, lo, spans, weights, out: np.ndarray) -> np.ndarray:
    """`_pack` codes of float cell rows; `weights` is `_float_weights(lo, spans)`.

    One float matrix-vector product into `out`, a float buffer of one entry
    per row, one scalar subtraction and one int64 cast; or past the guard
    the int64 cells `_pack`ed.
    """
    if weights is None:
        return _pack(cells.astype(np.int64), lo, spans)
    codes = np.matmul(cells, weights[0], out=out)
    codes -= weights[1]
    return codes.astype(np.int64)


def _count_chain(points: np.ndarray, grids, shifts) -> list[int]:
    """Grid counts of `points` at every scale of one chain, in one pass.

    `grids[i]` is scale i's (side, lo, spans) from `_grid` and `shifts[i]`
    its k: side_i == ldexp(side_f, k) exactly, where side_f, the finest
    side, has k = 0.  Each count equals `grid_count` at that scale.

    Exactness.  Let q = fl(x / side_f) for a coordinate x, f = floor(q)
    and r = q - f.  Scaling by a power of two commutes with rounding, so
    fl(x / side_i) == ldexp(q, -k) (below 2^-1022 both quotients snap to
    cell 0), and floor(ldexp(q, -k)) == f >> k, an arithmetic shift that
    floors negative f too.  By Sterbenz's lemma q - floor(q) is exact for
    |q| >= 1 and within 2^-53 otherwise.  So the fraction at scale i is
    ((f mod 2^k) + r) / 2^k up to 2^-53, and snap_floor's snap-up (a
    fraction above 1 - SNAP) can fire at some scale of the chain only if
    r > 1 - 2^K * 2 * SNAP, K the largest shift.  Rows with such an r in
    some coordinate are window rows: each is snapped at every scale with
    snap_floor's own arithmetic on ldexp(q, -k).  Every other row lies in
    cell f >> k at every scale.

    Cost: one pass over the points, COUNT_BLOCK_ROWS rows at a time.  A
    block is divided by side_f into a preallocated buffer, floored into a
    second and left holding its fractions, the entries flagged above
    1 - 2^K * 2 * SNAP snapped up (`snap_into`): with one scale, K = 0,
    that is snap_floor, and with more the flagged rows are the window rows,
    whose fine cells are not counted.  Its codes (`_pack_cells`, guarded
    before the pass) go to one `CodeSet`: about nine passes over a block,
    85 ms for one scale over box-large's 12.3 M points (d = 2, 2-vCPU VM,
    one BLAS thread).  In a block with window rows, found by ORing the flag
    columns, the other rows' codes go to the fine set and each window
    row's cell at every scale to that scale's own `CodeSet` (made at the
    first window row), so no rows are kept.  After the pass the fine set is
    reduced to its occupied cells and freed; then one scale at a time,
    those cells are unpacked, shifted by k into the scale's set and
    counted.  On top of the pass the work is proportional to the window
    rows times the scales and to the occupied fine cells times the scales.
    A scale's set receives at most n codes (its window rows' cells and at
    most one fine cell per other row), so its table, when it has one, is at
    most 8 * n bytes, and a coarser scale's table is about 2^(-k d) times
    the fine one.
    """
    n, d = points.shape
    side_f, lo_f, spans_f = grids[shifts.index(0)]
    top = max(shifts)
    fine = CodeSet(n, int(np.prod(spans_f)))
    weights_f = _float_weights(lo_f, spans_f)
    window_sets = [None] * len(grids)  # made at the first window row
    above = 1.0 - (2.0**top * 2.0 * SNAP if top else SNAP)
    q = np.empty((min(n, COUNT_BLOCK_ROWS), d))
    cells = np.empty_like(q)
    packed = np.empty(q.shape[0])
    for start in range(0, n, COUNT_BLOCK_ROWS):
        block = points[start : start + COUNT_BLOCK_ROWS]
        rows = block.shape[0]
        bq, bcells = q[:rows], cells[:rows]
        np.divide(block, side_f, out=bq)
        h = snap_into(bq, bcells, above)
        codes = _pack_cells(bcells, lo_f, spans_f, weights_f, packed[:rows])
        if not (top and h.any()):
            fine.add(codes)
            continue
        window = h[:, 0].copy()
        for c in range(1, d):
            window |= h[:, c]
        fine.add(codes[~window])
        q_window = block[window] / side_f
        for i, ((_, lo, spans), k) in enumerate(zip(grids, shifts)):
            if window_sets[i] is None:
                window_sets[i] = CodeSet(n, int(np.prod(spans)))
            window_sets[i].add(_pack(snap_floor(np.ldexp(q_window, -k), 1.0), lo, spans))
    if not top:
        return [fine.count()]
    occupied = fine.codes()
    del fine
    counts = []
    for i, ((_, lo, spans), k) in enumerate(zip(grids, shifts)):
        seen = window_sets[i] or CodeSet(n, int(np.prod(spans)))
        window_sets[i] = None  # one scale's set at a time from here on
        for start in range(0, occupied.size, COUNT_BLOCK_ROWS):
            cells = _unpack(occupied[start : start + COUNT_BLOCK_ROWS], lo_f, spans_f)
            seen.add(_pack(cells >> k, lo, spans))
        counts.append(seen.count())
    return counts


def grid_count(cloud: PointCloud, delta: float) -> int:
    """Number of axis-aligned cells of diameter delta hit by the cloud.

    Cells have side delta/sqrt(d) (so the cell diameter is delta) and sit
    on the lattice anchored at the origin.  The result brackets the true
    minimal cover: N_true <= grid_count <= 3^d * N_true.

    Cost: the one-scale case of `_count_chain`, about nine passes over
    each block of COUNT_BLOCK_ROWS rows (85 ms over box-large's 12.3 M
    points).  The n packed cell codes go to a `CodeSet`.  Let span be the
    number of cells in the snapped bounding box.  When span <= 8 * n the
    occupied cells are marked in a table of span bytes, at most 8 * n, in
    O(n + span) time; otherwise the codes are sorted, O(n log n).
    """
    return grid_counts(cloud, [delta])[0]


def check_scale(cloud: PointCloud, delta: float):
    """Raise as `grid_count` does at `delta` before it counts a point.

    Returns the scale's grid (`_grid`), or None for an empty cloud.
    """
    if delta <= 0:
        raise InvalidScale("scale must be positive")
    if delta < cloud.resolution_floor:
        raise StaleResolution(
            f"scale {delta:.3e} is below the cloud's resolution floor "
            f"{cloud.resolution_floor:.3e}"
        )
    return _grid(cloud, delta) if len(cloud) else None


def grid_counts(cloud: PointCloud, deltas) -> list[int]:
    """`grid_count` at every scale of `deltas`, one `_count_chain` per chain.

    Every scale is checked (`check_scale`) in the order given before any
    point is counted, so the first error is the one a loop of `grid_count`
    calls raises first.  A dyadic schedule is one chain: one pass.
    """
    grids = [check_scale(cloud, delta) for delta in deltas]
    counts = [0] * len(grids)
    if len(cloud) == 0 or not grids:
        return counts
    for indices, shifts in _chains([side for side, _, _ in grids]):
        chain_counts = _count_chain(cloud.points, [grids[i] for i in indices], shifts)
        for i, count in zip(indices, chain_counts):
            counts[i] = count
    return counts


def dyadic_schedule(delta_max: float, delta_min: float) -> list[float]:
    """Powers of two inside [delta_min, delta_max], descending."""
    if not (0.0 < delta_min <= delta_max < 1.0):
        raise InvalidParameter("need 0 < delta_min <= delta_max < 1")
    scales = []
    j = 1
    while 2.0**-j > delta_max:
        j += 1
    while 2.0**-j >= delta_min:
        scales.append(2.0**-j)
        j += 1
    if not scales:
        raise InvalidParameter(
            f"no power of two lies in [{delta_min}, {delta_max}]"
        )
    return scales


@dataclass(frozen=True)
class CoverReport:
    """Covering counts over a scale schedule plus the fitted exponent."""

    deltas: tuple
    counts: tuple
    slope: float
    residual: float
    fit_range: tuple  # (coarsest, finest)

    def __post_init__(self):
        d = np.array(self.deltas)
        c = np.array(self.counts)
        if np.any(np.diff(d) >= 0):
            raise InvalidParameter("report scales must be strictly decreasing")
        if np.any(np.diff(c) < 0):
            raise InvalidParameter(
                "counts must be nondecreasing as the scale decreases; "
                "use a geometric schedule with integer scale ratios"
            )

    def write(self, stem, extra: dict | None = None):
        """Write `stem`.csv and the `stem`.json fit sidecar, plus `extra` keys."""
        write_cover(
            stem,
            self.deltas,
            self.counts,
            {
                "slope": self.slope,
                "residual": self.residual,
                "fit_range": list(self.fit_range),
                **(extra or {}),
            },
        )


def write_cover(stem, deltas, counts, sidecar: dict) -> None:
    """Write a covering-count series as `stem`.csv plus `stem`.json.

    The CSV holds one (delta, count, log(1/delta), log(count)) row per
    scale; the JSON sidecar holds `sidecar` (the fit and its context).
    Point reports and line-mesh counts share this one format.
    """
    rows = [
        (d, n, float(np.log(1.0 / d)), float(np.log(n)))
        for d, n in zip(deltas, counts)
    ]
    write_csv(f"{stem}.csv", ("delta", "count", "log_inv_delta", "log_count"), rows)
    write_json(f"{stem}.json", sidecar)


def fit_slope(deltas, counts) -> tuple[float, float]:
    """Least squares slope and RMS residual of log N against log(1/delta)."""
    x = np.log(1.0 / np.asarray(deltas, dtype=float))
    y = np.log(np.asarray(counts, dtype=float))
    xm, ym = x.mean(), y.mean()
    var = float(((x - xm) ** 2).sum())
    if var == 0.0:
        raise InsufficientData("degenerate schedule: all scales equal")
    slope = float(((x - xm) * (y - ym)).sum() / var)
    resid = y - (ym + slope * (x - xm))
    return slope, float(np.sqrt((resid**2).mean()))


def estimate_dimension(cloud: PointCloud, schedule) -> CoverReport:
    """Grid counts over the schedule and the fitted box-dimension slope.

    Requires at least three scales, all at or above the cloud's resolution
    floor.  The RMS residual of the fit is reported so callers can reject
    regimes where the counts are not power-law-like.

    Each count equals `grid_count` at its scale.  The scales whose cell
    sides are the finest side times exact powers of two form one chain,
    counted in one pass over the cloud (`_count_chain`), so a dyadic
    schedule costs one pass plus work proportional to its snap-window rows
    times its scales; every other scale is counted on its own.  Every
    scale's grid passes the 2^61 index limit and the 2^62 guard before any
    point is counted.
    """
    schedule = [float(s) for s in schedule]
    if len(cloud) == 0:
        raise InsufficientData("an empty cloud has no dimension to fit")
    if len(schedule) < 3:
        raise InsufficientData("need at least 3 scales for a slope fit")
    if any(s < cloud.resolution_floor for s in schedule):
        raise StaleResolution("schedule reaches below the resolution floor")
    if any(s2 >= s1 for s1, s2 in zip(schedule, schedule[1:])):
        raise InvalidParameter("schedule must be strictly decreasing")
    counts = grid_counts(cloud, schedule)
    slope, residual = fit_slope(schedule, counts)
    return CoverReport(
        deltas=tuple(schedule),
        counts=tuple(counts),
        slope=slope,
        residual=residual,
        fit_range=(schedule[0], schedule[-1]),
    )
