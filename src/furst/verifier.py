"""Executable lower-bound arguments with audited certificates.

Both extraction routines turn a structured hypothesis about a line family
into a set of witness points whose pairwise separation is checked exactly;
the certified bound is the witness count, so the certificate is sound by
inspection rather than by trusting the argument that produced it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .boxcount import COUNT_BLOCK_ROWS, PointCloud, fits_table
from .errors import (
    InconsistentInput,
    InvalidParameter,
    InvalidScale,
    InvalidWitness,
    SoundnessViolation,
)
from .grassmann import (
    LineFamily,
    _canonical_rows,
    _gram_schmidt_frame,
    _greedy_net,
    _point_line_distances,
    _require_orthogonal,
    _row_dots,
    first_close_pair,
    mesh_assign,
)
from .util import min_pairwise_distance, snap_floor

THINNING_SEPARATION = 4.0  # translations thinned to >= 4*delta apart
TWO_POINT_CONSTANT = 16.0  # echoed in each two-point certificate's meta; no bound uses it
WITNESS_SLACK_EPS = 16.0  # prefilter slack, in units of d^2 * eps * scale (see _witness_on_line)


@dataclass(frozen=True, eq=False)
class ExtractionCertificate:
    """Auditable record of one lower-bound extraction."""

    delta: float
    branch: str  # pigeonhole | dichotomy-x | dichotomy-y
    bucket: int | None
    line_indices: tuple
    witnesses: np.ndarray  # (n, d) points, pairwise >= delta apart
    bound: int
    meta: dict

    @property
    def num_witnesses(self) -> int:
        return self.witnesses.shape[0]

    def min_witness_separation(self) -> float:
        return min_pairwise_distance(self.witnesses)

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "branch": self.branch,
            "bucket": self.bucket,
            "line_indices": list(self.line_indices),
            "witnesses": [list(map(float, w)) for w in self.witnesses],
            "bound": self.bound,
            "meta": self.meta,
        }


def _check_witnesses(witnesses: np.ndarray, delta: float, context: str):
    worst = min_pairwise_distance(witnesses)
    if worst < delta:
        raise SoundnessViolation(
            f"{context}: witness pair at distance {worst:.6e} < delta "
            f"{delta:.6e}"
        )


def _near_rows(block: np.ndarray, frame: np.ndarray, offset: np.ndarray,
               limit: float) -> np.ndarray:
    """Indices of the rows p of `block` with every |p F^T - offset| <= limit.

    After one product with the frame F, column by column with scalar
    operands: numpy's row-wise max and a broadcast offset take its slow
    short-row loops (at d = 3, 1.1 ms against 0.19 ms a 16,384-row block).
    """
    proj = block @ frame.T
    worst = np.abs(proj[:, 0] - offset[0])
    for c in range(1, proj.shape[1]):
        col = proj[:, c] - offset[c]
        np.maximum(worst, np.abs(col, out=col), out=worst)
    return np.flatnonzero(worst <= limit)


def _witness_on_line(family, idx, cloud, tol) -> np.ndarray:
    """First cloud point (lowest index) within `tol` of line `idx`.

    Scans COUNT_BLOCK_ROWS points at a time with early exit.  Each block is
    first prefiltered by one matrix-vector product with an orthonormal frame
    F of the line's normal space: a row p is kept when every coordinate of
    |p F - a F| is at most tol + slack.  In exact arithmetic each coordinate
    is at most the distance the exact test computes (also when the stored
    direction is off unit length by the family's 1e-9 allowance), and each
    side is computed with an error of at most about (d^1.5 + 3d) units of
    rounding times M = cloud radius + |a| + tol; slack = 16 d^2 eps M covers
    both with room for F's few-ulp orthogonality error, so the prefilter
    drops no row the exact test would accept.  The exact test then runs on
    the kept rows only, so the returned row is the one a full scan returns.

    Cost: about 3d passes per scanned block (`_near_rows`; 40 ms for all
    12.3 M points of box-large) plus the exact test on the few rows near
    the line; the scan stops at the first hit.
    When the whole cloud misses the line, the exact distances are computed
    once more to report the nearest one, and InconsistentInput is raised.
    """
    v = family.directions[idx]
    a = family.translations[idx]
    frame = _gram_schmidt_frame(v / np.linalg.norm(v))
    offset = frame @ a
    scale = cloud.radius + float(np.linalg.norm(a)) + tol
    limit = tol + WITNESS_SLACK_EPS * v.size**2 * np.finfo(float).eps * scale
    for start in range(0, len(cloud), COUNT_BLOCK_ROWS):
        block = cloud.points[start : start + COUNT_BLOCK_ROWS]
        near = _near_rows(block, frame, offset, limit)
        if near.size:
            hits = np.flatnonzero(_point_line_distances(block[near], v, a) <= tol)
            if hits.size:
                return block[near[hits[0]]]
    nearest = np.inf
    for start in range(0, len(cloud), COUNT_BLOCK_ROWS):
        block = cloud.points[start : start + COUNT_BLOCK_ROWS]
        nearest = min(nearest, float(_point_line_distances(block, v, a).min()))
    raise InconsistentInput(
        f"line {idx} has no cloud point within tolerance {tol:.3e} "
        f"(nearest at {nearest:.3e}); the intersection hypothesis fails"
    )


def _greedy_thin(points: np.ndarray, groups: np.ndarray, sep: float) -> np.ndarray:
    """Positions of the rows of `points` kept by thinning each group to `sep`.

    Each group's rows are adjacent (`groups` labels them), and within a
    group a row is kept unless it lies below `sep` from a row kept before
    it, the distance the root of a stacked dot product (`_row_dots`), the
    bits of np.linalg.norm of the difference.  Rows of different groups
    never conflict, so one `_greedy_net` pass over all the rows thins
    every group as its own pass would, comparing a block of rows only with
    the kept rows of its groups and measuring only the pairs in one group.
    """
    d = points.shape[1]
    rows = np.column_stack([points, groups])  # group labels below 2^53 are exact
    starts = np.r_[True, groups[1:] != groups[:-1]]
    opens = np.flatnonzero(starts)[np.cumsum(starts) - 1]  # first row of each row's group

    def conflicts(a, b):
        i, j = np.nonzero(a[:, None, d] == b[None, :, d])
        diff = a[i, :d] - b[j, :d]
        out = np.zeros((len(a), len(b)), dtype=bool)
        out[i, j] = np.sqrt(_row_dots(diff, diff)) < sep
        return out

    def bands(start, stop, index):
        return [(int(index.searchsorted(opens[start])), len(index))]

    return _greedy_net((rows,), conflicts, bands)[1]


class _LowestLines:
    """`mesh_assign` sink: the lowest line index of every occupied code.

    When the layout's range passes `boxcount.fits_table` each code's lowest
    line index is kept in a table of span int64 entries, O(n + span).  A
    code's lines reach the sink in ascending order (`mesh_assign`), so its
    lowest line is the first to arrive: a block reads its codes' entries,
    and only the codes still unset are looked at again, the first line of
    each taken with one np.unique.  Otherwise every line's code is kept and
    one stable sort finds the first line of each code, O(n log n).
    """

    def __init__(self, n: int, lo: np.ndarray, spans: np.ndarray):
        span = math.prod(int(s) for s in spans)
        self.n = n
        self.first_bucket = int(lo[0])
        self.per_bucket = span // int(spans[0])
        self.first = np.full(span, n, dtype=np.int64) if fits_table(n, span) else None
        self.codes = None if self.first is not None else np.empty(n, dtype=np.int64)

    def add(self, codes: np.ndarray, lines) -> None:
        if self.first is None:
            self.codes[lines] = codes
            return
        fresh = np.flatnonzero(self.first[codes] == self.n)
        if fresh.size:
            unset, at = np.unique(codes[fresh], return_index=True)
            at = fresh[at]
            self.first[unset] = lines.start + at if isinstance(lines, slice) else lines[at]

    def representatives(self):
        """(lines, buckets) of the occupied codes' lowest lines, codes ascending."""
        if self.first is not None:
            codes = np.flatnonzero(self.first < self.n)
            return self.first[codes], self._buckets(codes)
        order = np.argsort(self.codes, kind="stable")
        codes = self.codes[order]
        first = np.empty(self.n, dtype=bool)
        first[:1] = True
        np.not_equal(codes[1:], codes[:-1], out=first[1:])
        return order[first], self._buckets(codes[first])

    def _buckets(self, codes: np.ndarray) -> np.ndarray:
        return codes // self.per_bucket + self.first_bucket


def pigeonhole_extract(
    family: LineFamily,
    cloud: PointCloud,
    delta: float,
    tol: float | None = None,
) -> ExtractionCertificate:
    """Lower bound on the covering number of the cloud from the family.

    Lines are binned into (direction bucket) x (translation mesh cell)
    products; within the best bucket the occupied cells are thinned to
    translations pairwise >= 4*delta apart, one line per kept cell, and
    each kept line contributes its nearest cloud point (which must lie
    within `tol`, defaulting to the cloud's resolution floor).  Because
    kept translations are 4*delta-separated and directions share a bucket,
    the witness points are pairwise >= delta apart; this is re-checked
    exactly and a failure raises SoundnessViolation.

    The bucket is chosen to maximize the post-thinning count (lowest
    index on ties), which keeps the certified bound monotone under family
    enlargement.

    Cost per scale: `mesh_assign`, streaming the (bucket, cell) codes into
    a table of each occupied cell's lowest line while the codes are dense
    and into one stable sort otherwise (`_LowestLines`, about 60 ms over
    box-large's 4.1 M lines at 2^-2 ... 2^-7, where (n,) bucket, cell and
    code arrays and np.minimum.at took about 100); one blocked
    greedy pass thinning every bucket's candidates (`_greedy_thin`), which
    measures each candidate against the kept candidates of its own bucket
    in array operations, with no Python work per candidate; and one
    prefiltered scan of the cloud per kept line, stopping at the line's
    first point (`_witness_on_line`).
    """
    if not (0.0 < delta <= 0.5):
        raise InvalidScale(
            f"extraction needs delta in (0, 0.5] for the tangent margin, "
            f"got {delta}"
        )
    # no resolution-floor gate here: a certificate extracted from a
    # truncated family is a conservative lower bound at any scale
    if len(family) == 0:
        raise InvalidParameter("cannot extract from an empty family")
    if len(cloud) == 0:
        raise InconsistentInput("cloud is empty; no line can intersect it")
    radius = cloud.radius
    margin = 4.0 * delta - 2.0 * max(1.0, radius) * math.tan(delta)
    if margin < delta:
        raise InvalidScale(
            f"tangent bound fails for delta={delta} with cloud radius "
            f"{radius:.3f}; use a finer scale or rescale the data"
        )
    # default tolerance: the cloud's own faithfulness scale, never below
    # double-precision rounding of points that lie exactly on their lines
    tol = max(cloud.resolution_floor, 1e-12) if tol is None else float(tol)

    cands, buckets = mesh_assign(family, delta, _LowestLines).representatives()
    sep = THINNING_SEPARATION * delta
    # candidates come bucket by bucket, each bucket's cells in lexicographic
    # order; argmax takes the lowest of the buckets keeping the most
    kept = _greedy_thin(family.translations[cands], buckets, sep)
    names, cells = np.unique(buckets, return_counts=True)
    best = int(np.argmax(np.bincount(names.searchsorted(buckets[kept]), minlength=len(names))))
    best_bucket, best_cells = int(names[best]), int(cells[best])
    best_kept = cands[kept[buckets[kept] == best_bucket]].tolist()

    witnesses = []
    for idx in best_kept:
        witnesses.append(_witness_on_line(family, idx, cloud, tol))
    witnesses = np.array(witnesses) if witnesses else np.empty((0, family.dim))
    _check_witnesses(witnesses, delta, "pigeonhole extraction")

    return ExtractionCertificate(
        delta=delta,
        branch="pigeonhole",
        bucket=best_bucket,
        line_indices=tuple(best_kept),
        witnesses=witnesses,
        bound=len(best_kept),
        meta={
            "occupied_cells_best_bucket": best_cells,
            "cloud_radius": radius,
            "tolerance": tol,
            "thinning_separation": sep,
        },
    )


def two_point_extract(
    family: LineFamily,
    x_points,
    y_points,
    delta: float,
    t: float,
    n: int,
) -> ExtractionCertificate:
    """Lower bound of shape delta^{-t/2} from two-point witnesses.

    Every line carries designated points x, y of the target set with
    |x - y| >= 1/n.  If the x endpoints occupy at most delta^{-t/2} grid
    cells, some cell holds many of them and the matching y endpoints are
    spread by the line separation (branch dichotomy-y); otherwise the x
    endpoints themselves spread (branch dichotomy-x).  The fullest x cell
    is the one holding the most x points, ties to the lowest cell tuple.
    Either way the returned witnesses are greedily thinned to pairwise
    >= delta and the bound is the witness count, which is at least 1.

    That is all the code guarantees.  The packing trajectories measured
    (each line's first and last marks, n = 513) all give bound 1: their x
    points crowd few cells and the matching y points lie within delta of
    each other.  The floor the two-point argument proves, and how it
    shrinks as n grows, is open.
    """
    x_points = np.atleast_2d(np.asarray(x_points, dtype=float))
    y_points = np.atleast_2d(np.asarray(y_points, dtype=float))
    K = len(family)
    if x_points.shape[0] != K or y_points.shape[0] != K:
        raise InvalidParameter("need one (x, y) pair per line")
    if K == 0:
        raise InvalidParameter("cannot extract from an empty family")
    if not (0.0 < delta < 1.0):
        raise InvalidScale("delta must lie in (0, 1)")
    if n < 1:
        raise InvalidParameter("separation index n must be >= 1")
    gaps = np.linalg.norm(x_points - y_points, axis=1)
    bad = np.flatnonzero(gaps < 1.0 / n - 1e-12)
    if bad.size:
        raise InvalidWitness(
            f"line {int(bad[0])} has witness pair at distance "
            f"{gaps[bad[0]]:.3e} < 1/{n}"
        )
    _require_separated_lines(family, delta)

    side = delta / math.sqrt(family.dim)
    # the occupied cells in lexicographic order, so argmax takes the
    # lowest of the fullest
    occupied, cell_of, counts = np.unique(
        snap_floor(x_points, side), axis=0, return_inverse=True, return_counts=True
    )
    threshold = delta ** (-t / 2.0)
    if len(occupied) <= threshold:
        order = np.flatnonzero(cell_of.reshape(-1) == np.argmax(counts))
        pts = y_points
        branch = "dichotomy-y"
    else:
        order = np.arange(K)
        pts = x_points
        branch = "dichotomy-x"
    kept = order[_greedy_thin(pts[order], np.zeros(len(order)), delta)]
    witnesses = pts[kept]
    _check_witnesses(witnesses, delta, "two-point extraction")
    return ExtractionCertificate(
        delta=delta,
        branch=branch,
        bucket=None,
        line_indices=tuple(int(i) for i in kept),
        witnesses=witnesses,
        bound=len(kept),
        meta={
            "x_cells": len(occupied),
            "threshold": threshold,
            "n": n,
            "constant": TWO_POINT_CONSTANT,
        },
    )


def _require_separated_lines(family: LineFamily, delta: float):
    """Raise InvalidParameter unless every pair of lines is delta-separated.

    Each direction is re-canonicalised (`_canonical_rows`) and each
    translation must be orthogonal to it within ORTHO_TOL
    (`_require_orthogonal`), the standard form's rule, tighter than the
    1e-9 a `LineFamily` accepts.  Every pair is checked, by
    `first_close_pair`, which names the lexicographically first close one:
    near-linear in the lines, so a family of any size is checked (the
    4,456 lines of the growing d = 3 schedule in about 0.05 s).
    """
    dirs = _canonical_rows(family.directions)
    _require_orthogonal(dirs, family.translations)
    close = first_close_pair(dirs, family.translations, delta * (1 - 1e-12))
    if close is not None:
        i, j, _ = close
        raise InvalidParameter(
            f"lines {i}, {j} closer than delta; the family must be "
            "delta-separated"
        )


def dimension_thresholds(d: int, s: float, t: float) -> tuple[float, float, float]:
    """Reference thresholds (box, packing, Hausdorff) for parameters.

    box: max(s, t + 1 - d); packing: max(s, t / 2);
    Hausdorff: min(s + t, (3s + t) / 2, s + 1).
    """
    if int(d) < 2:
        raise InvalidParameter("d must be >= 2")
    if not (0.0 <= s <= 1.0):
        raise InvalidParameter("s must lie in [0, 1]")
    if not (0.0 <= t <= 2.0 * (d - 1)):
        raise InvalidParameter(f"t must lie in [0, {2 * (d - 1)}]")
    box = max(s, t + 1.0 - d)
    packing = max(s, t / 2.0)
    hausdorff = min(s + t, (3.0 * s + t) / 2.0, s + 1.0)
    return box, packing, hausdorff


def tangent_margin(delta: float) -> float:
    """The separation slack 4*delta - 2*tan(delta) - delta (>= 0 on (0, 0.5])."""
    return 4.0 * delta - 2.0 * math.tan(delta) - delta
