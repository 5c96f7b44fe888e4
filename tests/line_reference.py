"""Plain forms of the line-side code, kept as references for the tests.

`mesh_assign` computes every line's angle and its bucket centre's sine and
cosine at each call; `witness_on_line` runs the exact distance test on
every point, a million rows at a time; `pigeonhole_extract` groups lines
by bucket with one stable sort and picks each bucket's candidates with
np.unique over its cell rows.  The package computes the same results with
an angle cache, one pass over packed (bucket, cell) codes and a prefiltered
scan; test_occupancy.py and test_pigeonhole_identity.py compare the two.
No `assert` here, so the references behave the same under python -O.
"""

import math

import numpy as np

from furst.errors import InconsistentInput, InvalidParameter, InvalidScale
from furst.grassmann import direction_cover
from furst.util import snap_floor
from furst.verifier import (
    THINNING_SEPARATION,
    ExtractionCertificate,
    _check_witnesses,
    _greedy_thin,
)


def mesh_assign(family, delta):
    """(buckets, cells) of every line: arctan2, sine and cosine per line."""
    cover = direction_cover(family.dim, delta)
    n = len(family)
    cells = np.zeros((n, family.dim - 1), dtype=np.int64)
    width = 4.0 * delta
    if n and cover.angle_width is not None:
        vecs = family.directions
        theta = np.arctan2(vecs[:, 1], vecs[:, 0]) % np.pi
        buckets = np.minimum(
            (theta / cover.angle_width).astype(np.int64), len(cover) - 1
        )
        angles = (buckets.astype(float) + 0.5) * cover.angle_width
        coord = (
            -family.translations[:, 0] * np.sin(angles)
            + family.translations[:, 1] * np.cos(angles)
        )
        cells[:, 0] = snap_floor(coord, width)
    elif n:
        buckets = cover.assign(family.directions)
        for b in np.unique(buckets):
            sel = buckets == b
            coords = family.translations[sel] @ cover.frame(int(b)).T
            cells[sel] = snap_floor(coords, width)
    else:
        buckets = np.empty(0, np.int64)
    return buckets, cells


def witness_on_line(family, idx, cloud, tol, chunk=1_000_000):
    """First cloud point within `tol` of line `idx`, by a full exact scan."""
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


def pigeonhole_extract(family, cloud, delta, tol=None):
    """The pigeonhole certificate, grouping lines by one sort per bucket."""
    if not (0.0 < delta <= 0.5):
        raise InvalidScale(
            f"extraction needs delta in (0, 0.5] for the tangent margin, "
            f"got {delta}"
        )
    if len(family) == 0:
        raise InvalidParameter("cannot extract from an empty family")
    if len(cloud) == 0:
        raise InconsistentInput("cloud is empty; no line can intersect it")
    radius = float(np.linalg.norm(cloud.points, axis=1).max())
    margin = 4.0 * delta - 2.0 * max(1.0, radius) * math.tan(delta)
    if margin < delta:
        raise InvalidScale(
            f"tangent bound fails for delta={delta} with cloud radius "
            f"{radius:.3f}; use a finer scale or rescale the data"
        )
    tol = max(cloud.resolution_floor, 1e-12) if tol is None else float(tol)

    buckets, cells = mesh_assign(family, delta)
    sep = THINNING_SEPARATION * delta
    best_kept = []
    best_bucket = -1
    best_cells = 0
    order_all = np.argsort(buckets, kind="stable")
    sorted_buckets = buckets[order_all]
    group_starts = np.concatenate(
        [[0], np.flatnonzero(np.diff(sorted_buckets)) + 1, [len(sorted_buckets)]]
    )
    for g in range(len(group_starts) - 1):
        sel = order_all[group_starts[g] : group_starts[g + 1]]
        b = sorted_buckets[group_starts[g]]
        cell_rows = cells[sel]
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

    witnesses = [witness_on_line(family, idx, cloud, tol) for idx in best_kept]
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
