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
    ORTHO_TOL,
    LineFamily,
    _canonical_rows,
    _gram_schmidt_frame,
    _row_dots,
    first_close_pair,
    mesh_assign,
    mesh_codes,
)
from .util import min_pairwise_distance, snap_floor

THINNING_SEPARATION = 4.0  # translations thinned to >= 4*delta apart
TWO_POINT_CONSTANT = 16.0  # documented constant C in the bound floor
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


def _line_distances(points: np.ndarray, v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Distance from each row of `points` to the line a + R v: the exact test."""
    rel = points - a
    perp = rel - np.outer(rel @ v, v)
    return np.linalg.norm(perp, axis=1)


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
            hits = np.flatnonzero(_line_distances(block[near], v, a) <= tol)
            if hits.size:
                return block[near[hits[0]]]
    nearest = np.inf
    for start in range(0, len(cloud), COUNT_BLOCK_ROWS):
        block = cloud.points[start : start + COUNT_BLOCK_ROWS]
        nearest = min(nearest, float(_line_distances(block, v, a).min()))
    raise InconsistentInput(
        f"line {idx} has no cloud point within tolerance {tol:.3e} "
        f"(nearest at {nearest:.3e}); the intersection hypothesis fails"
    )


def _greedy_thin(points: np.ndarray, order: np.ndarray, sep: float) -> list[int]:
    """Greedy separated subset of `points`, visiting rows in `order`."""
    kept: list[int] = []
    for i in order:
        p = points[i]
        ok = True
        for j in kept:
            if float(np.linalg.norm(p - points[j])) < sep:
                ok = False
                break
        if ok:
            kept.append(int(i))
    return kept


def _cell_representatives(buckets: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Lowest line index of every occupied (bucket, cell) product.

    Returned in ascending (bucket, cell coordinates) order, the order of the
    packed codes of `grassmann.mesh_codes`.  When the code range passes
    `boxcount.fits_table` each code's lowest line index is recorded in a
    table of span int64 entries, COUNT_BLOCK_ROWS lines at a time, O(n +
    span); otherwise (also when the codes would reach 2**62) one stable
    sort orders the lines by bucket and cell coordinates and the first line
    of each run is kept, O(n log n).
    """
    n = len(buckets)
    packed = mesh_codes(buckets, cells)
    if packed is not None and fits_table(n, packed[1]):
        codes, span = packed
        first = np.full(span, n, dtype=np.int64)
        for start in range(0, n, COUNT_BLOCK_ROWS):
            stop = min(n, start + COUNT_BLOCK_ROWS)
            np.minimum.at(first, codes[start:stop], np.arange(start, stop))
        return first[first < n]
    # np.lexsort sorts by its last key first and keeps equal keys in line order
    keys = [cells[:, c] for c in range(cells.shape[1] - 1, -1, -1)] + [buckets]
    order = np.lexsort(keys)
    new_run = np.zeros(n, dtype=bool)
    new_run[0] = True
    for key in keys:
        ordered = key[order]
        new_run[1:] |= ordered[1:] != ordered[:-1]
    return order[new_run]


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

    Cost per scale: `mesh_assign`; one pass over the packed (bucket, cell)
    codes that picks each occupied cell's lowest line, through a table while
    the codes are dense and one stable sort otherwise
    (`_cell_representatives`); a greedy thinning of each bucket's
    candidates, quadratic in the lines kept; and one prefiltered scan of the
    cloud per kept line, stopping at the line's first point
    (`_witness_on_line`).
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

    buckets, cells, _ = mesh_assign(family, delta)
    cands = _cell_representatives(buckets, cells)
    sep = THINNING_SEPARATION * delta
    best_kept: list[int] = []
    best_bucket = -1
    best_cells = 0
    # candidates come bucket by bucket, each bucket's cells in lexicographic order
    groups = np.flatnonzero(np.diff(buckets[cands])) + 1
    for group in np.split(cands, groups):
        kept = _greedy_thin(family.translations, group, sep)
        if len(kept) > len(best_kept):
            best_kept = kept
            best_bucket = int(buckets[group[0]])
            best_cells = len(group)

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
    kept = _greedy_thin(pts, order, delta)
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

    The lines are taken as `family.line` gives them: each direction is
    re-canonicalised (`_canonical_rows`) and each translation must be
    orthogonal to it within ORTHO_TOL.  Every pair is checked, by
    `first_close_pair`, which names the lexicographically first close one.
    """
    K = len(family)
    if K > 2000:
        raise InvalidParameter(
            "two-point extraction checks all line pairs; family too large"
        )
    dirs = _canonical_rows(family.directions)
    inner = _row_dots(family.translations, dirs)
    skew = np.flatnonzero(np.abs(inner) > ORTHO_TOL)
    if skew.size:
        raise InvalidParameter(
            "translation must be orthogonal to the direction "
            f"(inner product {inner[skew[0]]:.3e})"
        )
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
