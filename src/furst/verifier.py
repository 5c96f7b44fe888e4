"""Executable lower-bound arguments with audited certificates.

Both extraction routines turn a structured hypothesis about a line family
into a set of witness points whose pairwise separation is checked exactly;
the certified bound is the witness count, so the certificate is sound by
inspection rather than by trusting the argument that produced it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .boxcount import PointCloud
from .errors import (
    InconsistentInput,
    InvalidParameter,
    InvalidScale,
    InvalidWitness,
    SoundnessViolation,
)
from .grassmann import LineFamily, mesh_assign, metric_d1
from .util import min_pairwise_distance, snap_floor

THINNING_SEPARATION = 4.0  # translations thinned to >= 4*delta apart
TWO_POINT_CONSTANT = 16.0  # documented constant C in the bound floor


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


def _witness_on_line(family, idx, cloud, tol, chunk=1_000_000) -> np.ndarray:
    """First cloud point (lowest index) within `tol` of line `idx`.

    Scans in chunks with early exit; raises InconsistentInput when the
    whole cloud misses the line.
    """
    v = family.directions[idx]
    a = family.translations[idx]
    nearest = np.inf
    for start in range(0, len(cloud), chunk):
        block = cloud.points[start : start + chunk]
        rel = block - a
        perp = rel - np.outer(rel @ v, v)
        dist = np.linalg.norm(perp, axis=1)
        hits = np.flatnonzero(dist <= tol)
        if hits.size:
            return block[hits[0]]
        nearest = min(nearest, float(dist.min()))
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
    sep = THINNING_SEPARATION * delta
    best_kept: list[int] = []
    best_bucket = -1
    best_cells = 0
    # group lines by bucket via one stable sort
    order_all = np.argsort(buckets, kind="stable")
    sorted_buckets = buckets[order_all]
    group_starts = np.concatenate(
        [[0], np.flatnonzero(np.diff(sorted_buckets)) + 1, [len(sorted_buckets)]]
    )
    for g in range(len(group_starts) - 1):
        sel = order_all[group_starts[g] : group_starts[g + 1]]
        b = sorted_buckets[group_starts[g]]
        cell_rows = cells[sel]
        # one candidate line per occupied cell: lowest line index wins
        _, first = np.unique(cell_rows, axis=0, return_index=True)
        cands = sel[np.sort(first)]
        lex = np.lexsort(
            tuple(cells[cands][:, c] for c in range(cells.shape[1] - 1, -1, -1))
        )
        kept = _greedy_thin(family.translations, cands[lex], sep)
        if len(kept) > len(best_kept):
            best_kept = kept
            best_bucket = int(b)
            best_cells = len(cands)

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
    endpoints themselves spread (branch dichotomy-x).  Either way the
    returned witnesses are greedily thinned to pairwise >= delta and the
    bound is the witness count, which is at least
    min(#lines, floor(delta^{-t/2})) / 16 for the constructions tested.
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
    x_cells = snap_floor(x_points, side)
    cell_keys = [tuple(row) for row in x_cells]
    threshold = delta ** (-t / 2.0)
    occupied = sorted(set(cell_keys))
    if len(occupied) <= threshold:
        counts = {c: cell_keys.count(c) for c in occupied}
        best_cell = min(occupied, key=lambda c: (-counts[c], c))
        selected = [i for i, c in enumerate(cell_keys) if c == best_cell]
        pts = y_points
        branch = "dichotomy-y"
    else:
        selected = list(range(K))
        pts = x_points
        branch = "dichotomy-x"
    order = np.array(selected)
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
    K = len(family)
    if K > 2000:
        raise InvalidParameter(
            "two-point extraction checks all line pairs; family too large"
        )
    lines = [family.line(i) for i in range(K)]
    for i in range(K):
        for j in range(i + 1, K):
            if metric_d1(lines[i], lines[j]) < delta * (1 - 1e-12):
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
