"""Geometry of lines in R^d.

Lines through the origin are represented by canonical unit direction
vectors; affine lines by the unique standard form ``direction +
translation`` with the translation orthogonal to the direction.  The
module provides the product metric on line space (projection operator-norm
distance between directions plus Euclidean distance between translations),
covers of direction space at a scale, and the mesh counter used to measure
covering numbers of line families.
"""

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .boxcount import COUNT_BLOCK_ROWS, _squared_norms, count_distinct
from .errors import (
    InvalidParameter,
    InvalidScale,
    ResourceCap,
    StaleResolution,
    UnsupportedScale,
)
from .util import derive_seed, require_indexable, snap_floor, snap_into

ORTHO_TOL = 1e-12
ASSIGN_BLOCK_ROWS = 64  # rows compared with every cover centre per block
NET_CANDIDATE_CAP = 400_000  # most candidates a d >= 3 greedy net may test
# most buckets of a planar cover: its centres and angles take 24 bytes per
# bucket and mesh_assign's sine and cosine tables 16 more, so a cover at
# 2^-24 (52.7 M buckets) peaks near 2 GB; 2^-25 would need 105 M
PLANAR_BUCKET_CAP = 2**26
NET_BLOCK_ROWS = 128  # d = 3 candidates tested against their bands per block
NET_MARGIN = 1e-12  # a blocked |cos| this close to the limit decides nothing
NET_BAND_SLACK = 1e-9  # added to the band radius for rounding in the heights
SEPARATION_PAIR_BLOCK = 1 << 16  # candidate line pairs measured per kernel call


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


@dataclass(frozen=True, eq=False)
class Direction:
    """A line through the origin, stored as a canonical unit vector."""

    vector: np.ndarray

    def __init__(self, vector):
        object.__setattr__(self, "vector", canonical_vector(vector))

    @property
    def dim(self) -> int:
        return self.vector.size

    def angle(self) -> float:
        """Canonical angle in [0, pi) for planar directions."""
        if self.dim != 2:
            raise InvalidParameter("angle() is defined for d=2 only")
        theta = float(np.arctan2(self.vector[1], self.vector[0]))
        return theta % np.pi


@dataclass(frozen=True, eq=False)
class AffineLine:
    """A line in R^d in standard form: direction plus orthogonal translation."""

    direction: Direction
    translation: np.ndarray

    def __init__(self, direction, translation):
        if not isinstance(direction, Direction):
            direction = Direction(direction)
        a = np.asarray(translation, dtype=float).copy()
        if a.shape != direction.vector.shape:
            raise InvalidParameter("translation dimension mismatch")
        if abs(float(a @ direction.vector)) > ORTHO_TOL:
            raise InvalidParameter(
                "translation must be orthogonal to the direction "
                f"(inner product {float(a @ direction.vector):.3e})"
            )
        a.setflags(write=False)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "translation", a)

    @property
    def dim(self) -> int:
        return self.direction.dim

    def point_distance(self, points) -> np.ndarray:
        """Euclidean distance from points (n, d) to this line."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rel = pts - self.translation
        along = rel @ self.direction.vector
        perp = rel - np.outer(along, self.direction.vector)
        return np.linalg.norm(perp, axis=1)


def standard_form(point, direction) -> AffineLine:
    """Line through `point` with the given direction, in standard form.

    The translation is the projection of the point onto the direction's
    orthocomplement, which makes the representation unique once the
    direction sign is canonical.
    """
    d = Direction(direction)
    p = np.asarray(point, dtype=float)
    if p.shape != d.vector.shape:
        raise InvalidParameter("point dimension mismatch")
    a = p - (p @ d.vector) * d.vector
    return AffineLine(d, a)


def projection_distance(u, v) -> float:
    """Operator norm of the difference of the two rank-1 projections.

    Equals the sine of the principal angle: the one-row case of
    `_projection_distances`.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(_projection_distances(u[None], v[None])[0])


def metric_d1(line_a: AffineLine, line_b: AffineLine) -> float:
    """Distance on line space: the one-row case of `line_distances`."""
    return float(line_distances(
        line_a.direction.vector[None], line_a.translation[None],
        line_b.direction.vector[None], line_b.translation[None],
    )[0])


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each pair of matching rows (last axis); leading axes broadcast.

    Each is one stacked (1, d) @ (d, 1) product, which numpy hands to the
    BLAS ddot that `u @ v` and `np.linalg.norm` use for one pair of
    vectors, so every value is theirs bit for bit.  The rows' entries must
    be adjacent in memory, as they are in every array built here.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _projection_distances(dirs_a, dirs_b) -> np.ndarray:
    """Projection distance of each pair of rows of two (n, d) arrays (rows broadcast).

    Computed as the norm of the component of u orthogonal to v, which
    agrees with sqrt(1 - <u, v>^2) for unit representatives but stays
    accurate when the directions nearly coincide (no cancellation near
    <u, v> = +-1), and capped at 1.  The pair is first put in tuple order
    (u is the row that is not lexicographically greater, comparing entries
    with ==, so -0.0 equals 0.0), which makes the distance exactly
    symmetric.
    """
    swap = dirs_a[:, 0] > dirs_b[:, 0]
    undecided = dirs_a[:, 0] == dirs_b[:, 0]
    for c in range(1, dirs_a.shape[1]):
        swap |= undecided & (dirs_a[:, c] > dirs_b[:, c])
        undecided &= dirs_a[:, c] == dirs_b[:, c]
    u = np.where(swap[:, None], dirs_b, dirs_a)
    v = np.where(swap[:, None], dirs_a, dirs_b)
    perp = u - _row_dots(u, v)[:, None] * v
    norm = np.sqrt(_row_dots(perp, perp))
    return np.where(norm < 1.0, norm, 1.0)  # min(1.0, norm)


def line_distances(dirs_a, trans_a, dirs_b, trans_b) -> np.ndarray:
    """`metric_d1` of each pair of rows, bit for bit; rows broadcast.

    The lines are given as (n, d) arrays of canonical directions and
    translations, and a (1, d) side stands for one line measured against
    n others.  The distance is the projection-norm term
    (`_projection_distances`) plus the Euclidean distance of the
    translations, each dot product a stacked one (`_row_dots`).

    Cost: O(n * d) in about two dozen array operations and no Python work
    per row; temporaries are a few (n, d) arrays.
    """
    dirs_a = np.asarray(dirs_a, dtype=float)
    dirs_b = np.asarray(dirs_b, dtype=float)
    diff = np.asarray(trans_a, dtype=float) - np.asarray(trans_b, dtype=float)
    return _projection_distances(dirs_a, dirs_b) + np.sqrt(_row_dots(diff, diff))


def first_close_pair(directions, translations, floor: float):
    """The lexicographically first pair i < j of lines whose distance is below floor.

    The lines are rows of (n, d) arrays of finite canonical directions and
    translations.  Returns (i, j, distance), where the distance is
    `line_distances` of rows i and j and "below" means not >= floor (a
    nan distance counts), or None when no pair is below: the result of
    measuring all n (n - 1) / 2 pairs in order, found by measuring only
    pairs whose translations lie in neighbouring cells of a grid (a
    fixed-radius near-neighbour search).

    Why no pair is missed.  A distance is fl(proj + t) >= t, the computed
    translation distance, because proj >= 0; and t is at least the exact
    |a_i - a_j| (1 - (d + 2) 2^-53).  So a pair below floor differs by
    less than floor (1 + (d + 3) 2^-52) in every coordinate.  Each
    coordinate x with |x| <= R (the largest one) goes to cell
    floor(fl(x / side)), and fl(x / side) is within 2^-53 R / side of
    x / side.  With side = floor + 2^-48 ((d + 4) floor + R), two such
    coordinates have quotients less than 1 apart, so their cells differ by
    at most 1.  The side is also at least 2^-48 R, so cell indices stay
    below 2^48.  A row with a non-finite translation is paired with every
    other row.

    Cells are hashed to int64 codes by a mixed-radix number (exact while
    the padded grid has fewer than 2^63 cells, wrapping beyond, where two
    cells may share a code and a pair is measured needlessly but never
    missed).  Sorting the codes once, each of the (3^d + 1) / 2 offsets
    that are zero or lexicographically positive finds every row's
    neighbours by binary search.

    Cost: O(n log n) for the sort and searches, plus the kernel on the
    candidate pairs, SEPARATION_PAIR_BLOCK at a time: about n times the
    lines whose translations lie within 3^d cells of side ~ floor.
    """
    dirs = np.asarray(directions, dtype=float)
    trans = np.asarray(translations, dtype=float)
    n, d = trans.shape
    best = None  # (i, j, distance)

    def measure(i, j):
        nonlocal best
        dist = line_distances(dirs[i], trans[i], dirs[j], trans[j])
        below = np.flatnonzero(~(dist >= floor))
        if below.size:
            first = below[np.lexsort((j[below], i[below]))[0]]
            pair = (int(i[first]), int(j[first]), float(dist[first]))
            if best is None or pair[:2] < best[:2]:
                best = pair

    finite = np.isfinite(trans).all(axis=1)
    for b in np.flatnonzero(~finite):
        others = np.delete(np.arange(n), b)
        measure(np.minimum(others, b), np.maximum(others, b))
    rows = np.flatnonzero(finite)
    if rows.size < 2:
        return best
    reach = float(np.abs(trans[rows]).max())
    f = max(float(floor), 0.0)
    side = max(f + 2.0**-48 * ((d + 4) * f + reach), np.finfo(float).tiny)
    cells = np.floor(trans[rows] / side).astype(np.int64)
    lo = cells.min(axis=0) - 1
    radix = [int(r) for r in cells.max(axis=0) - lo + 2]
    codes = cells[:, 0] - lo[0]
    for c in range(1, d):
        codes *= radix[c]  # wraps mod 2^64 past 2^63 cells
        codes += cells[:, c] - lo[c]
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    rows = rows[order]
    ends = np.searchsorted(codes, codes, side="right")
    for offset in itertools.product((0, 1, -1), repeat=d):
        if any(offset) and next(o for o in offset if o) < 0:
            continue  # the pair is found from the other cell
        shift = 0
        for o, r in zip(offset, radix):
            shift = shift * r + o
        if any(offset):
            target = codes + np.int64((shift + 2**63) % 2**64 - 2**63)
            first = np.searchsorted(codes, target, side="left")
            counts = np.searchsorted(codes, target, side="right") - first
        else:  # the later rows of the same cell
            first = np.arange(1, rows.size + 1)
            counts = ends - first
        for src, dst in _ragged_pairs(first, counts, SEPARATION_PAIR_BLOCK):
            i, j = rows[src], rows[dst]
            measure(np.minimum(i, j), np.maximum(i, j))
    return best


def _ragged_pairs(first: np.ndarray, counts: np.ndarray, block: int):
    """(sources, partners) index arrays pairing each p with first[p] + 0 .. counts[p] - 1.

    Yielded in runs of about `block` pairs (a source whose partners alone
    pass it comes as one run).
    """
    total = np.cumsum(counts)
    start = 0
    while start < counts.size:
        done = int(total[start - 1]) if start else 0
        stop = max(int(np.searchsorted(total, done + block, side="right")), start + 1)
        cnt = counts[start:stop]
        size = int(cnt.sum())
        if size:
            src = np.repeat(np.arange(start, stop), cnt)
            dst = np.arange(size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            dst += np.repeat(first[start:stop], cnt)
            yield src, dst
        start = stop


def _fixed_order_cos(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|cos| of v with each row, adding the d products left to right.

    Each product and sum is one correctly rounded elementwise operation, so
    the values are the same on every IEEE machine, unlike a BLAS product.
    """
    dot = rows[:, 0] * v[0]
    for c in range(1, rows.shape[1]):
        dot += rows[:, c] * v[c]
    return np.abs(dot)


def _gram_schmidt_frame(center: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal frame of center-perp, rows = d-1 vectors.

    Seeds Gram-Schmidt with the standard basis vectors least aligned with
    the center (ties broken by index), so the frame is reproducible from
    the center alone.
    """
    d = center.size
    order = sorted(range(d), key=lambda i: (abs(center[i]), i))
    frame = []
    for i in order:
        v = np.zeros(d)
        v[i] = 1.0
        v = v - (v @ center) * center
        for f in frame:
            v = v - (v @ f) * f
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            frame.append(v / norm)
        if len(frame) == d - 1:
            break
    return np.array(frame)


@dataclass(frozen=True, eq=False)
class DirectionCover:
    """A realized delta-cover of direction space.

    For d=2 the cover is the uniform partition of the angle interval
    [0, pi) into `width`-wide buckets; centers are stored as unit vectors.
    For d >= 3 the centers come from a greedy separated net and assignment
    is by nearest center in the projection metric.
    """

    dim: int
    delta: float
    centers: np.ndarray  # (k, d) canonical unit vectors
    angle_width: float | None = None  # set for the planar fast path
    _frames: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return self.centers.shape[0]

    def assign(self, unit_vectors: np.ndarray) -> np.ndarray:
        """Bucket index for each row of `unit_vectors`.

        d >= 3: the nearest centre by largest |cos|, i.e. least projection
        distance, where a |cos| is the fixed-order dot product
        (`_fixed_order_cos`) and ties go to the lowest index.  Each distinct
        row is assigned once (`_nearest_centers`) and its bucket scattered
        back to its copies: rows are told apart by their bytes, one
        np.unique over a void view, so -0.0 and 0.0 count as different rows
        and are assigned separately (to the same bucket).  A product family
        such as `build_lines`' n lines over m directions costs O(n log n)
        for the sort plus O(m * k * d) for the k centres; a family of n
        distinct directions O(n * k * d).
        """
        vecs = np.atleast_2d(unit_vectors)
        if self.angle_width is not None:
            return self.angle_buckets(np.arctan2(vecs[:, 1], vecs[:, 0]) % np.pi)
        rows = np.ascontiguousarray(vecs, dtype=float)
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).reshape(-1)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        # the inverse is (n,) on numpy 1.x and may keep the key's shape on 2.x
        return self._nearest_centers(rows[first])[inverse.reshape(-1)]

    def _nearest_centers(self, vecs: np.ndarray) -> np.ndarray:
        """d >= 3 bucket of each row of an (n, d) array (see `assign`).

        Rows are compared with all k centres by BLAS, ASSIGN_BLOCK_ROWS at
        a time: O(n * k * d) time, and one (ASSIGN_BLOCK_ROWS, k) temporary
        instead of an (n, k) matrix.  BLAS may round an entry differently
        in the last bits depending on the product's shape and thread count.
        But a d-term dot product of unit vectors summed in any order lies
        within about d * 2^-53 of the exact value, so a BLAS |cos| and the
        fixed-order one differ by at most d * 2^-52.  A row whose best BLAS
        |cos| beats every other by more than twice that has the same best
        centre by fixed-order |cos|.  The other rows re-rank by fixed-order
        |cos| the centres whose BLAS |cos| lies within 4 * d * 2^-52 of
        their best (twice the 2 * d * 2^-52 needed), a set that holds the
        fixed-order winner.  So a row's bucket depends on the row alone,
        not on the BLAS, the block shape, the thread count or the other
        rows.
        """
        n = vecs.shape[0]
        tol = 4 * self.dim * np.finfo(float).eps  # eps = 2^-52
        buckets = np.empty(n, dtype=np.int64)
        for start in range(0, n, ASSIGN_BLOCK_ROWS):
            stop = min(start + ASSIGN_BLOCK_ROWS, n)
            cos = vecs[start:stop] @ self.centers.T
            np.abs(cos, out=cos)
            best = np.argmax(cos, axis=1)
            rows = np.arange(stop - start)
            floor = cos[rows, best] - tol
            cos[rows, best] = -1.0
            for r in np.flatnonzero(cos.max(axis=1) >= floor):
                near = np.union1d(np.flatnonzero(cos[r] >= floor[r]), best[r])
                dots = _fixed_order_cos(self.centers[near], vecs[start + r])
                best[r] = near[np.argmax(dots)]
            buckets[start:stop] = best
        return buckets

    def angle_buckets(self, theta: np.ndarray) -> np.ndarray:
        """Planar bucket index of each canonical angle in [0, pi)."""
        return np.minimum((theta / self.angle_width).astype(np.int64), len(self) - 1)

    def frame(self, bucket: int) -> np.ndarray:
        """Orthonormal frame of the bucket center's orthocomplement."""
        if bucket not in self._frames:
            self._frames[bucket] = _gram_schmidt_frame(self.centers[bucket])
        return self._frames[bucket]


def direction_cover(d: int, delta: float) -> DirectionCover:
    """Realized delta-cover of the space of directions in R^d.

    d=2: uniform angle buckets of width min(arcsin(delta), pi/2); every
    direction is within delta of its bucket center in the projection
    metric and the bucket count is <= ceil(pi / arcsin(delta)), i.e. about
    pi * delta^{-1}.  delta = 1 (the diameter of planar direction space)
    is served by a single bucket.  A count above PLANAR_BUCKET_CAP (delta
    below about 4.7e-8, between 2^-25 and 2^-24) raises ResourceCap and
    one of 2^62 or more UnsupportedScale, before anything is built
    (`_planar_bucket_count`).

    d>=3: greedy maximal (0.6*delta)-separated net over the
    ceil((6/delta)^(d-1)) candidate directions of `_net_candidate_count`; its
    size is within a constant factor (about (2/0.6)^{d-1}) of
    delta^{-(d-1)}.  A scale that needs more than NET_CANDIDATE_CAP
    candidates (d = 3 below delta ~ 0.0095, d = 4 below ~ 0.081, d = 5
    below ~ 0.24) raises ResourceCap before anything is built: a net over
    fewer candidates than that would not be shown to cover at radius delta.
    `_greedy_sphere_net` gives the cost; at (3, 2^-5), 36,864 candidates
    and 9,252 centres, the build takes about 0.045 s on one core of a
    2-vCPU VM, and its peak temporaries are the candidates and the net's
    buffer, 16 * count * d bytes (1.8 MB).
    """
    if not (0.0 < delta <= 1.0):
        raise InvalidScale(f"cover scale must lie in (0, 1], got {delta}")
    if d < 2:
        raise InvalidParameter("ambient dimension must be >= 2")
    if d == 2:
        if delta >= 1.0:
            centers = np.array([[1.0, 0.0]])
            return DirectionCover(2, delta, centers, angle_width=float(np.pi))
        width = min(float(np.arcsin(delta)), np.pi / 2)
        n = _planar_bucket_count(width, delta)
        angles = (np.arange(n) + 0.5) * width
        centers = np.column_stack([np.cos(angles), np.sin(angles)])
        flip = (centers[:, 0] < 0) | ((centers[:, 0] == 0) & (centers[:, 1] < 0))
        centers[flip] *= -1.0
        centers += 0.0
        return DirectionCover(2, delta, centers, angle_width=width)
    return DirectionCover(d, delta, _greedy_sphere_net(d, delta))


def _planar_bucket_count(width: float, delta: float) -> int:
    """ceil(pi / width) buckets of the planar cover at `delta`, before any is built.

    A count that reaches 2^62 (delta below about 7e-19, where pi / width
    may even overflow) cannot index an int64 bucket: UnsupportedScale.
    One above PLANAR_BUCKET_CAP raises ResourceCap.
    """
    ratio = np.pi / width
    if not ratio < 2.0**62:
        raise UnsupportedScale(
            f"a planar direction cover at scale {delta:.3e} needs 2^62 or more "
            "buckets, past int64 bucket indices"
        )
    count = math.ceil(ratio)
    if count > PLANAR_BUCKET_CAP:
        raise ResourceCap(
            f"a planar direction cover at scale {delta:.3e} needs {count:,} "
            f"buckets, above the cap of {PLANAR_BUCKET_CAP:,}"
        )
    return count


def _net_candidate_count(d: int, delta: float) -> int:
    """Candidate directions of the d >= 3 greedy net at `delta`.

    Raises ResourceCap when ceil((6/delta)^(d-1)) exceeds NET_CANDIDATE_CAP.
    """
    count = int(np.ceil((6.0 / delta) ** (d - 1)))
    if count > NET_CANDIDATE_CAP:
        raise ResourceCap(
            f"a direction cover of R^{d} at scale {delta:.3e} needs {count:,} "
            f"candidate directions, above the cap of {NET_CANDIDATE_CAP:,}"
        )
    return count


def _fibonacci_heights(count: int) -> np.ndarray:
    """z of the d = 3 golden-spiral candidates before canonicalisation, descending."""
    return 1.0 - (2.0 * np.arange(count) + 1.0) / count


def _candidate_directions(d: int, count: int) -> np.ndarray:
    """Deterministic, roughly uniform candidate directions, as canonical rows."""
    if d == 3:
        i = np.arange(count)
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        z = _fibonacci_heights(count)
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        phi = 2.0 * np.pi * i / golden
        pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    else:
        rng = np.random.default_rng(derive_seed(0, f"direction-cover-d{d}"))
        pts = rng.standard_normal((count, d))
    return _canonical_rows(pts)


def _canonical_rows(pts: np.ndarray) -> np.ndarray:
    """`canonical_vector` of every row of an (n, d) array, bit for bit.

    Each row is divided by the root of its own dot product, the value
    `np.linalg.norm` takes for one vector; the stacked (1, d) @ (d, 1)
    product adds its terms in that order (an einsum or a column sum does
    not).  Then every row whose first nonzero entry is negative is negated.
    """
    norms = np.sqrt(_row_dots(pts, pts))
    if not (np.all(norms != 0.0) and np.all(np.isfinite(pts))):
        raise InvalidParameter("direction vector must be nonzero and finite")
    u = pts / norms[:, None]
    first = u[np.arange(len(u)), np.argmax(u != 0.0, axis=1)]
    u[first < 0.0] *= -1.0
    u += 0.0  # clear negative zeros left by the sign flip
    return u


def _greedy_sphere_net(d: int, delta: float) -> np.ndarray:
    """Greedy maximal (0.6 * delta)-separated net of the candidate directions.

    A candidate is kept when its projection distance sqrt(1 - cos^2) to
    every kept centre is at least 0.6 * delta, i.e. when no |cos| exceeds
    `_largest_separated_cos`; `_conflicts` is that test, one
    matrix-vector product against all kept centres.  The centres fill a
    preallocated (count, d) buffer, so the net is never copied while it
    grows.

    d >= 4 runs `_conflicts` on every candidate: O(count * k * d) for
    count = `_net_candidate_count` candidates and k centres.  d = 3 keeps
    the same centres, bit for bit, testing each candidate only against the
    centres near its height (`_banded_net`): about count * (band +
    NET_BLOCK_ROWS) * d, where a band holds O(k * delta) centres.  With
    one BLAS thread on a 2-vCPU VM that is 0.64 -> 0.045 s at 2^-5 and
    8.3 -> 0.22 s at 2^-6, against `_conflicts` on every candidate.
    """
    count = _net_candidate_count(d, delta)
    cands = _candidate_directions(d, count)
    limit = _largest_separated_cos(0.6 * delta)
    net = np.empty((count, d))
    if d == 3:
        kept = _banded_net(cands, _fibonacci_heights(count), limit, net)
    else:
        kept = 0
        for c in cands:
            if not _conflicts(net, kept, c, limit):
                net[kept] = c
                kept += 1
    return net[:kept].copy()


def _conflicts(net: np.ndarray, kept: int, c: np.ndarray, limit: float) -> bool:
    """True when some |cos| of c with the kept centres net[:kept] exceeds limit."""
    if not kept:
        return False
    cos = net[:kept] @ c
    return bool(cos.max() > limit or cos.min() < -limit)


def _band_radius(limit: float) -> float:
    """Height gap past which a d = 3 candidate and a centre are never near.

    See `_banded_net` for why a |cos| of at least limit - NET_MARGIN needs
    a height gap (as given or with one row negated) below this radius.
    """
    return float(np.sqrt(2.0 - 2.0 * limit + 4.0 * NET_MARGIN)) + NET_BAND_SLACK


def _banded_net(cands, heights, limit, net) -> int:
    """`_greedy_sphere_net` for d = 3: fill net with its centres, return how many.

    The golden-spiral candidates come in descending pre-canonical height
    z = `_fibonacci_heights`, so the kept centres do too and the centres
    within a height band are one slice of the net, found by searchsorted.

    Band bound.  Let p be a candidate before canonicalisation and c = +-p /
    |p| its row.  Its float coordinates make |p|^2 = 1 within a few ulps
    (under 2 * 2^-52 up to the cap, measured), so c_z = +-z within about
    1e-15.  A 3-term dot product of two such rows computed in any order
    (BLAS, blocked, FMA or not) lies within 1e-15 of the exact one.  So if
    a computed |c . k| >= limit - NET_MARGIN for a kept centre k, the
    exact |c . k| >= limit - NET_MARGIN - 1e-15, and for s = sign(c . k),
    |c_z - s k_z| <= |c - s k| = sqrt(|c|^2 + |k|^2 - 2 |c . k|) <
    sqrt(2 - 2 limit + 4 NET_MARGIN).  With the 1e-15 error of each
    height, z_c and z_k then differ by less than `_band_radius(limit)`
    either as given or with one negated (NET_BAND_SLACK = 1e-9 covers the
    height and root rounding many times over).  A centre outside both
    bands therefore has every computed |cos| below limit - NET_MARGIN: it
    cannot make the plain test reject.

    Candidates are taken NET_BLOCK_ROWS at a time.  One product gives each
    candidate's largest |cos| with the centres kept before the block in its
    two bands; a candidate whose largest |cos| exceeds limit + NET_MARGIN
    is rejected.  One more product, of the other (open) candidates with
    themselves, gives the |cos| of each open pair.  Both are computed with
    other shapes than the plain test, so they may differ from it in the
    last bits; a value above limit + NET_MARGIN still proves a rejection
    and one below limit - NET_MARGIN a pass.  When none of these values
    lies in between, every decision is clear-cut: the kept candidates are
    the in-order greedy independent set of the graph joining two open
    candidates whose |cos| exceeds limit + NET_MARGIN, which
    `_greedy_in_rounds` finds in array rounds.  A block with a value in
    between runs `_greedy_in_order`, where such a candidate takes the plain
    test, `_conflicts` against every kept centre.  No build of the tested
    scales needs it.

    Cost: about count * band * d for the band products, and per block one
    product of its open candidates (about as many as it keeps) and a few
    array operations per round, with no Python work per candidate.  At
    2^-5 (36,864 candidates, 9,252 centres, 288 blocks) half the blocks
    have no open candidate, nearly all others decide in one round, and
    the build takes about 0.045 s on one core of a 2-vCPU VM.
    """
    radius = _band_radius(limit)
    high, low = limit + NET_MARGIN, limit - NET_MARGIN
    depths = np.empty(len(cands))  # -z of the kept centres, ascending
    later = np.triu(np.ones((NET_BLOCK_ROWS, NET_BLOCK_ROWS), dtype=bool), 1)
    kept = 0
    for start in range(0, len(cands), NET_BLOCK_ROWS):
        block = cands[start : start + NET_BLOCK_ROWS]
        z = heights[start : start + NET_BLOCK_ROWS]
        seen = depths[:kept]
        near = np.searchsorted(seen, -z[0] - radius)  # z_k < z_c + radius
        mirror = (  # |z_k + z_c| < radius
            np.searchsorted(seen, z[-1] - radius),
            np.searchsorted(seen, z[0] + radius, side="right"),
        )
        if mirror[1] < near:
            bands = [(near, kept), mirror]
        else:
            bands = [(min(near, mirror[0]), kept)]
        top = np.zeros(len(block))
        for lo, hi in bands:
            if hi > lo:
                np.maximum(top, np.abs(block @ net[lo:hi].T).max(axis=1), out=top)
        open_ = np.flatnonzero(top <= high)
        if not open_.size:
            continue  # each candidate is too close to a kept centre
        rows = block[open_]
        pairs = np.abs(rows @ rows.T)
        if (top[open_] >= low).any() or ((pairs >= low) & (pairs <= high)).any():
            chosen = _greedy_in_order(net, kept, block, top, limit)
        else:
            m = open_.size
            chosen = open_[_greedy_in_rounds((pairs > high) & later[:m, :m])]
        net[kept : kept + chosen.size] = block[chosen]
        depths[kept : kept + chosen.size] = -z[chosen]
        kept += chosen.size
    return kept


def _greedy_in_rounds(conflict: np.ndarray) -> np.ndarray:
    """Indices of the in-order greedy independent set of a conflict graph.

    conflict is strictly upper triangular: conflict[i, j], i < j, says that
    j may not join once i has.  Each round first rejects every undecided
    vertex with a kept earlier neighbour, then keeps every undecided vertex
    with no undecided earlier neighbour: all its earlier neighbours are
    rejected, so the in-order loop keeps it too.  The first undecided
    vertex is kept in every round, so the rounds end.
    """
    if not conflict.any():
        return np.arange(conflict.shape[0])
    undecided = np.ones(conflict.shape[0], dtype=bool)
    kept = np.zeros_like(undecided)
    while undecided.any():
        undecided &= ~conflict[kept].any(axis=0)
        free = undecided & ~conflict[undecided].any(axis=0)
        kept |= free
        undecided &= ~free
    return np.flatnonzero(kept)


def _greedy_in_order(net, kept, block, top, limit) -> np.ndarray:
    """Block indices `_banded_net` keeps, deciding one candidate at a time.

    top is each candidate's largest |cos| with the centres kept before the
    block; it is raised by the block's |cos| with each candidate chosen.  A
    |cos| within NET_MARGIN of limit takes the plain test against the kept
    centres net[:kept] and those chosen earlier in the block, which are
    written into net as they are chosen.
    """
    high, low = limit + NET_MARGIN, limit - NET_MARGIN
    top = top.copy()
    within = np.abs(block @ block.T)
    chosen = []
    for j in np.flatnonzero(top <= high):
        t = top[j]
        if t > high or (t >= low and _conflicts(net, kept + len(chosen), block[j], limit)):
            continue
        net[kept + len(chosen)] = block[j]
        chosen.append(j)
        np.maximum(top, within[j], out=top)
    return np.array(chosen, dtype=np.int64)


def _largest_separated_cos(sep: float) -> float:
    """Largest double x >= 0 with sqrt(max(0, 1 - min(1, x*x))) >= sep.

    Each step of that projection distance is monotone and correctly
    rounded, so in floating point too it never rises as x grows: a |cos|
    gives a distance below `sep` exactly when it exceeds this value.  Found
    by bisection over the bit patterns of the doubles in [0, 1].
    """
    lo, hi = 0, int(np.float64(1.0).view(np.int64))  # distance >= sep at lo, < sep at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        x = np.int64(mid).view(np.float64)
        if np.sqrt(np.maximum(0.0, 1.0 - np.minimum(1.0, x * x))) < sep:
            hi = mid
        else:
            lo = mid
    return float(np.int64(lo).view(np.float64))


@dataclass(frozen=True, eq=False)
class LineFamily:
    """A finite family of lines in standard form, with a resolution floor.

    Directions and translations are stored as parallel (n, d) arrays;
    `resolution_floor` is the smallest scale at which the family still
    faithfully represents the idealized (usually infinite) family it
    truncates.
    """

    directions: np.ndarray
    translations: np.ndarray
    resolution_floor: float

    def __init__(self, directions, translations, resolution_floor):
        dirs = np.atleast_2d(np.asarray(directions, dtype=float)).copy()
        trans = np.atleast_2d(np.asarray(translations, dtype=float)).copy()
        self._adopt(dirs, trans, resolution_floor)

    @classmethod
    def _owning(cls, directions: np.ndarray, translations: np.ndarray,
                resolution_floor) -> "LineFamily":
        """A family that keeps two fresh float (n, d) arrays, uncopied.

        The caller must hold no other reference it writes through: the
        arrays are checked as `__init__` checks its copies and made
        read-only.
        """
        family = cls.__new__(cls)
        family._adopt(directions, translations, resolution_floor)
        return family

    def _adopt(self, dirs: np.ndarray, trans: np.ndarray, resolution_floor) -> None:
        """Check the arrays COUNT_BLOCK_ROWS rows at a time, freeze and keep them.

        A direction's norm is the root of `_squared_norms`, the value
        `np.linalg.norm` gives for the row.
        """
        if dirs.shape != trans.shape:
            raise InvalidParameter("directions/translations shape mismatch")
        if resolution_floor <= 0:
            raise InvalidParameter("resolution floor must be positive")
        blocks = [
            slice(start, start + COUNT_BLOCK_ROWS)
            for start in range(0, dirs.shape[0], COUNT_BLOCK_ROWS)
        ]
        # written so that a nan or infinite entry fails the tests
        if not all(
            (np.abs(np.sqrt(_squared_norms(dirs[rows])) - 1.0) <= 1e-9).all()
            for rows in blocks
        ):
            raise InvalidParameter("directions must be finite unit vectors")
        if not all(
            (np.abs(np.einsum("ij,ij->i", dirs[rows], trans[rows])) <= 1e-9).all()
            for rows in blocks
        ):
            raise InvalidParameter(
                "translations must be finite and orthogonal to directions"
            )
        dirs.setflags(write=False)
        trans.setflags(write=False)
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "translations", trans)
        object.__setattr__(self, "resolution_floor", float(resolution_floor))

    @classmethod
    def from_lines(cls, lines, resolution_floor):
        dirs = np.array([ln.direction.vector for ln in lines])
        trans = np.array([ln.translation for ln in lines])
        if len(lines) == 0:
            dirs = np.empty((0, 2))
            trans = np.empty((0, 2))
        return cls(dirs, trans, resolution_floor)

    def line(self, i: int) -> AffineLine:
        return AffineLine(Direction(self.directions[i]), self.translations[i])

    def __len__(self) -> int:
        return self.directions.shape[0]

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    # the arrays are read-only private copies, so values derived from them
    # can be computed on first use and kept

    @cached_property
    def angles(self) -> np.ndarray:
        """Canonical angle in [0, pi) of every direction (d=2 only)."""
        if self.dim != 2:
            raise InvalidParameter("angles are defined for d=2 only")
        theta = np.arctan2(self.directions[:, 1], self.directions[:, 0]) % np.pi
        theta.setflags(write=False)
        return theta

    @cached_property
    def translation_radius(self) -> float:
        """Largest Euclidean norm of a translation (0 for an empty family).

        Reduced COUNT_BLOCK_ROWS rows at a time, as the root of the largest
        squared norm (`boxcount._squared_norms`).
        """
        blocks = range(0, len(self), COUNT_BLOCK_ROWS)
        return float(np.sqrt(max(
            (float(_squared_norms(self.translations[start : start + COUNT_BLOCK_ROWS]).max())
             for start in blocks),
            default=0.0,
        )))


@dataclass(frozen=True)
class MeshCellId:
    """One product cell of the line-space mesh at some scale.

    `direction_bucket` indexes the realized direction cover;
    `translation_cell` holds the integer coordinates N of the product of
    intervals [4*N*delta, 4*(N+1)*delta) in the bucket frame.
    """

    direction_bucket: int
    translation_cell: tuple


def mesh_cells(family: LineFamily, delta: float) -> list[MeshCellId]:
    """The mesh cell of every line, in family order."""
    buckets, cells, _ = mesh_assign(family, delta)
    return [
        MeshCellId(int(b), tuple(int(c) for c in row))
        for b, row in zip(buckets, cells)
    ]


def mesh_assign(family: LineFamily, delta: float, cover: DirectionCover | None = None):
    """Assign every line a (direction bucket, translation mesh cell) pair.

    The translation is expressed in the bucket center's orthocomplement
    frame and binned by the 4*delta mesh anchored at 0.  Returns
    (bucket indices (n,), cell coordinates (n, d-1) int array, cover).

    Cost per scale for d=2: each line's angle is computed once per family
    (`LineFamily.angles`) and each bucket centre's sine and cosine once per
    cover, so a scale costs per line its bucket, two table reads, two
    products, a subtraction, a division and the in-place snap
    (`snap_into`), COUNT_BLOCK_ROWS lines at a time: about 50 ms over
    box-large's 4.1 M lines (2-vCPU VM).  For d>=3 every distinct
    direction is compared with every cover centre (`DirectionCover.assign`):
    O(m * k) for m distinct directions and k centres, plus an O(n log n)
    sort.  One more stable sort groups the lines by bucket, and each
    bucket's translations are projected onto its frame in family order.

    A cell coordinate is a translation's coordinate in an orthonormal
    frame, at most its norm, so a scale at which the family's cached
    `translation_radius` over 4*delta reaches 2^61 is refused before any
    work (`require_indexable`): no cell index wraps.
    """
    if len(family):
        require_indexable(family.translation_radius, 4.0 * delta, delta)
    if cover is None:
        cover = direction_cover(family.dim, delta)
    n = len(family)
    cells = np.zeros((n, family.dim - 1), dtype=np.int64)
    width = 4.0 * delta
    if n and cover.angle_width is not None:
        # planar fast path: the frame of an angle-phi center is (-sin, cos)
        phi = (np.arange(len(cover)) + 0.5) * cover.angle_width
        sin_phi, cos_phi = np.sin(phi), np.cos(phi)
        theta, trans = family.angles, family.translations
        buckets = np.empty(n, dtype=np.int64)
        coord = np.empty(min(n, COUNT_BLOCK_ROWS))
        snapped = np.empty_like(coord)
        for start in range(0, n, COUNT_BLOCK_ROWS):
            rows = slice(start, start + COUNT_BLOCK_ROWS)
            b = buckets[rows] = cover.angle_buckets(theta[rows])
            # t1 cos - t0 sin has the bits of (-t0) sin + t1 cos, signed zeros too
            c = np.multiply(trans[rows, 1], cos_phi[b], out=coord[: b.size])
            c -= trans[rows, 0] * sin_phi[b]
            c /= width
            snap_into(c, snapped[: b.size])
            cells[rows, 0] = snapped[: b.size]
    elif n:
        buckets = cover.assign(family.directions)
        # a stable sort lists each bucket's lines in family order, the rows
        # a mask of the bucket would select
        order = np.argsort(buckets, kind="stable")
        ends = np.flatnonzero(np.diff(buckets[order])) + 1
        for sel in np.split(order, ends):
            frame = cover.frame(int(buckets[sel[0]]))
            cells[sel] = snap_floor(family.translations[sel] @ frame.T, width)
    else:
        buckets = np.empty(0, np.int64)
    return buckets, cells, cover


def mesh_codes(buckets: np.ndarray, cells: np.ndarray):
    """One int64 code per line for its (bucket, cell), or None if too fine.

    Codes are mixed-radix numbers with the bucket as the leading digit and
    the cell coordinates, each offset by its minimum, as the next ones, so
    ascending codes order lines by bucket and then by cell in lexicographic
    order.  Returns (codes, span) with every code in [0, span), or None when
    the code range would reach 2**62.
    """
    codes = buckets
    for c in range(cells.shape[1]):
        col = cells[:, c]
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        if float(codes.max() + 1) * float(span) >= 2**62:
            return None
        # the first product is a new array, so `buckets` is never written;
        # int64 arithmetic wraps mod 2**64, so the intermediate codes * span
        # + col may wrap but the result lies in [0, 2**62)
        codes = codes * span if c == 0 else np.multiply(codes, span, out=codes)
        codes += col
        codes -= lo
    return codes, int(codes.max()) + 1


def mesh_cover_count(family: LineFamily, delta: float) -> int:
    """Number of (direction bucket) x (4*delta mesh cell) products hit.

    This is the covering-number proxy for line families; its log-log slope
    against 1/delta estimates the family's box dimension.

    Cost per scale: `mesh_assign` plus `boxcount.count_distinct` over one
    packed (bucket, cell) code per line (`mesh_codes`).  While the code
    range is at most 8 * n the occupied products are marked in a table of
    at most 8 * n bytes, O(n + range); above that the codes are sorted,
    O(n log n).
    """
    if not (0.0 < delta <= 1.0):
        raise InvalidScale(f"mesh scale must lie in (0, 1], got {delta}")
    if len(family) == 0:
        warnings.warn("mesh_cover_count of an empty family", stacklevel=2)
        return 0
    if delta < family.resolution_floor:
        raise StaleResolution(
            f"scale {delta:.3e} is below the family's resolution floor "
            f"{family.resolution_floor:.3e}"
        )
    buckets, cells, _ = mesh_assign(family, delta)
    packed = mesh_codes(buckets, cells)
    if packed is None:
        raise InvalidScale("mesh too fine to index at this scale")
    codes, span = packed
    return count_distinct([codes], len(codes), span)
