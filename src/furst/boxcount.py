"""Grid covering numbers and log-log dimension fits for point clouds."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InsufficientData,
    InvalidParameter,
    InvalidScale,
    StaleResolution,
)
from .util import snap_floor, write_csv, write_json


COUNT_BLOCK_ROWS = 16_384  # rows snapped per block, so temporaries stay in cache
PAIRWISE_SUM_COLUMNS = 8  # numpy sums rows this long or longer pairwise
TABLE_BYTES_PER_CODE = 8  # a table of span <= 8 * n bytes is no larger than n int64 codes


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


def count_distinct(code_blocks, n: int, span: int) -> int:
    """Number of distinct values among n int64 codes in [0, span).

    The codes arrive as an iterable of arrays.  When span <= 8 * n
    (`fits_table`) the codes are marked in a boolean occupancy table of
    span bytes, O(n + span) time with no sort; the table is never larger
    than the n int64 codes it stands in for.  Sparser codes are gathered
    and sorted by one np.unique, O(n log n).
    """
    if fits_table(n, span):
        seen = np.zeros(span, dtype=bool)
        for codes in code_blocks:
            seen[codes] = True
        return int(np.count_nonzero(seen))
    return int(np.unique(np.concatenate(list(code_blocks))).size)


def _cell_code_blocks(points: np.ndarray, side: float, lo: np.ndarray, spans):
    """Packed cell code of every row, COUNT_BLOCK_ROWS rows at a time."""
    for start in range(0, points.shape[0], COUNT_BLOCK_ROWS):
        idx = snap_floor(points[start : start + COUNT_BLOCK_ROWS], side)
        codes = idx[:, 0] - lo[0]
        for c in range(1, idx.shape[1]):
            codes = codes * spans[c] + (idx[:, c] - lo[c])
        yield codes


def grid_count(cloud: PointCloud, delta: float) -> int:
    """Number of axis-aligned cells of diameter delta hit by the cloud.

    Cells have side delta/sqrt(d) (so the cell diameter is delta) and sit
    on the lattice anchored at the origin.  The result brackets the true
    minimal cover: N_true <= grid_count <= 3^d * N_true.

    Cost per scale: every coordinate is snapped once, COUNT_BLOCK_ROWS rows
    at a time, and the n packed cell codes go to `count_distinct`.  Let
    span be the number of cells in the snapped bounding box, taken from
    the cloud's cached column extremes (snap_floor is monotone).  When
    span <= 8 * n the occupied cells are marked in a table of span bytes,
    at most 8 * n, in O(n + span) time; otherwise the codes are sorted,
    O(n log n).
    """
    if delta <= 0:
        raise InvalidScale("scale must be positive")
    if delta < cloud.resolution_floor:
        raise StaleResolution(
            f"scale {delta:.3e} is below the cloud's resolution floor "
            f"{cloud.resolution_floor:.3e}"
        )
    if len(cloud) == 0:
        return 0
    side = delta / np.sqrt(cloud.dim)
    lo, hi = snap_floor(cloud.column_bounds, side)
    spans = hi - lo + 1
    if float(np.prod(spans.astype(float))) >= 2**62:
        raise InvalidScale("grid too fine to index; raise the scale")
    blocks = _cell_code_blocks(cloud.points, side, lo, spans)
    return count_distinct(blocks, len(cloud), int(np.prod(spans)))


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
    counts = [grid_count(cloud, s) for s in schedule]
    slope, residual = fit_slope(schedule, counts)
    return CoverReport(
        deltas=tuple(schedule),
        counts=tuple(counts),
        slope=slope,
        residual=residual,
        fit_range=(schedule[0], schedule[-1]),
    )
