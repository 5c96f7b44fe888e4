"""Plain forms of the line-side code, kept as references for the tests.

`mesh_assign` computes every line's angle and its bucket centre's sine and
cosine at each call, and for d >= 3 builds its cover with
`greedy_sphere_net` (one `canonical_vector` call per candidate, every
kept-centre distance tested from a |cos| whose d products add left to
right, the net regrown by np.vstack) and assigns directions with one full
(n, k) |cos| matrix whose entries add the d products the same way;
`witness_on_line` runs the exact distance test on every point, a million
rows at a time; `pigeonhole_extract` groups lines by bucket with one
stable sort and picks each bucket's candidates with np.unique over its
cell rows.  The package computes the same results with an angle cache,
array-wide canonical rows, a largest-|cos| test, a net banded by height,
decided by BLAS products away from the threshold and in array rounds,
blocked BLAS assignment of each distinct direction with a near-tie
re-rank, (bucket, cell) codes packed in the mesh loop and streamed to
their consumer, and a prefiltered scan; test_occupancy.py,
test_pigeonhole_identity.py, test_cover_identity.py,
test_assign_identity.py, test_snap_pack_identity.py and
test_mesh_code_identity.py compare the two.
`snap_floor` is the package's snapping rule as it was computed before it
snapped in place, so no reference here runs the code under test.

`canonical_vector` canonicalises one direction at a time, the rule
`grassmann._canonical_rows` must match bit for bit; `standard_form` and
`affine_line` give one line as its (direction, translation) rows, the
first by projecting a point off the direction, the second checking a
given translation against the direction as the package's
`_require_orthogonal` does, with the same message.  No `assert` here, so
the references behave the same under python -O.
"""

import math

import numpy as np

from furst import grassmann
from furst.errors import InconsistentInput, InvalidParameter, InvalidScale
from furst.grassmann import LineFamily, _gram_schmidt_frame, direction_cover
from furst.util import derive_seed
from furst.verifier import THINNING_SEPARATION, ExtractionCertificate, _check_witnesses


def canonical_vector(v) -> np.ndarray:
    """Normalize v and fix the sign so antipodal vectors coincide.

    The first nonzero component is made positive; exact zeros defer the
    decision to the next coordinate.
    """
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or not np.all(np.isfinite(v)):
        raise InvalidParameter("direction vector must be nonzero and finite")
    u = v / norm
    for component in u:
        if component != 0.0:
            if component < 0.0:
                u = -u
            break
    u = u + 0.0  # clear negative zeros left by the sign flip
    u.setflags(write=False)
    return u


def standard_form(point, direction):
    """(v, p - (p . v) v): the line through `point` along `direction`, as rows."""
    v = canonical_vector(direction)
    p = np.asarray(point, dtype=float)
    return v, p - (p @ v) * v


def affine_line(direction, translation):
    """(v, a) with v the canonical direction, once a . v is checked.

    |a . v| above ORTHO_TOL (read from `grassmann` at each call) raises
    InvalidParameter with the package's message.
    """
    v = canonical_vector(direction)
    a = np.array(translation, dtype=float)
    inner = float(a @ v)
    if abs(inner) > grassmann.ORTHO_TOL:
        raise InvalidParameter(
            f"translation must be orthogonal to the direction (inner product {inner:.3e})"
        )
    return v, a


def line_family(lines, floor):
    """The `LineFamily` of (direction, translation) row pairs."""
    return LineFamily([v for v, _ in lines], [a for _, a in lines], floor)


def snap_floor(values, width, snap=1e-9):
    """floor(values / width) with quotients within `snap` below an integer
    rounded up: the package's rule, computed with a whole-array bool add."""
    q = np.asarray(values, dtype=float) / width
    idx = np.floor(q)
    idx += (q - idx) > (1.0 - snap)
    return idx.astype(np.int64)


def greedy_thin(points, order, sep):
    """Greedy separated subset of `points`, visiting rows in `order`: each
    row against every kept row, one np.linalg.norm at a time."""
    kept = []
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


def candidate_directions(d, count):
    """The cover's candidate directions, canonicalised one row at a time."""
    if d == 3:
        i = np.arange(count)
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        z = 1.0 - (2.0 * i + 1.0) / count
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        phi = 2.0 * np.pi * i / golden
        pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    else:
        rng = np.random.default_rng(derive_seed(0, f"direction-cover-d{d}"))
        pts = rng.standard_normal((count, d))
    return np.array([canonical_vector(p) for p in pts])


def fixed_order_cos(rows, v):
    """|cos| of v with each row, the d products added left to right."""
    dot = rows[:, 0] * v[0]
    for c in range(1, len(v)):
        dot = dot + rows[:, c] * v[c]
    return np.abs(dot)


def greedy_sphere_net(d, delta):
    """Greedy net testing every kept centre's distance, regrown per centre;
    each distance comes from the |cos| whose d products add left to right."""
    sep = 0.6 * delta
    count = int(np.ceil((6.0 / delta) ** (d - 1)))
    count = min(count, 400_000)
    cands = candidate_directions(d, count)
    kept_mat = np.empty((0, d))
    for c in cands:
        if kept_mat.shape[0]:
            cos = fixed_order_cos(kept_mat, c)
            if np.sqrt(np.maximum(0.0, 1.0 - np.minimum(1.0, cos * cos))).min() < sep:
                continue
        kept_mat = np.vstack([kept_mat, c])
    return kept_mat


def assign(unit_vectors, centers):
    """Nearest centre of every row by one full (n, k) |cos| matrix, each
    entry the d products added left to right, ties to the lowest index."""
    vecs = np.atleast_2d(unit_vectors)
    cos = vecs[:, 0, None] * centers[None, :, 0]
    for c in range(1, vecs.shape[1]):
        cos += vecs[:, c, None] * centers[None, :, c]
    return np.argmax(np.abs(cos), axis=1)


def mesh_assign(family, delta):
    """(buckets, cells) of every line: arctan2, sine and cosine per line in
    the plane, the reference net and full-matrix assignment above."""
    n = len(family)
    cells = np.zeros((n, family.dim - 1), dtype=np.int64)
    width = 4.0 * delta
    if n and family.dim == 2:
        cover = direction_cover(2, delta)
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
        centers = greedy_sphere_net(family.dim, delta)
        buckets = assign(family.directions, centers)
        for b in np.unique(buckets):
            sel = buckets == b
            coords = family.translations[sel] @ _gram_schmidt_frame(centers[b]).T
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
        kept = greedy_thin(family.translations, cands[lex], sep)
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
