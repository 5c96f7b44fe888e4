"""Geometry of lines in R^d.

A line is held as two rows of parallel (n, d) arrays, in its unique
standard form: a canonical unit direction (`_canonical_rows`) and a
translation orthogonal to it (`_require_orthogonal`).  The module
provides the product metric on line space (projection operator-norm
distance between directions plus Euclidean distance between
translations), covers of direction space at a scale, and the mesh counter
used to measure covering numbers of line families.
"""

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .boxcount import (
    COUNT_BLOCK_ROWS,
    CodeSet,
    _float_weights,
    _pack_cells,
    _squared_norms,
)
from .errors import (
    InvalidParameter,
    InvalidScale,
    ResourceCap,
    StaleResolution,
    UnsupportedScale,
)
from .util import derive_seed, require_indexable, snap_into

ORTHO_TOL = 1e-12
ASSIGN_BLOCK_ROWS = 64  # rows compared with every cover centre per block
NET_CANDIDATE_CAP = 400_000  # most candidates a d >= 3 greedy net may test
# most buckets of a planar cover: its centres, angles and the angles' sines
# and cosines take 40 bytes per bucket, so a cover at 2^-24 (52.7 M
# buckets) peaks near 2 GB; 2^-25 would need 105 M
PLANAR_BUCKET_CAP = 2**26
NET_BLOCK_ROWS = 128  # candidates a greedy net decides per block (`_greedy_net`)
NET_MARGIN = 1e-12  # a BLAS |cos| this close to the limit is taken again in fixed order
NET_BAND_SLACK = 1e-9  # added to the band radius for rounding in the heights
SEPARATION_PAIR_BLOCK = 1 << 16  # candidate line pairs measured per kernel call
_LATER = np.triu(np.ones((NET_BLOCK_ROWS, NET_BLOCK_ROWS), dtype=bool), 1)  # pairs i < j of a block


def _point_line_distances(points: np.ndarray, v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Distance from each row of `points` (n, d) to the line a + R v: the package's one form."""
    rel = points - a
    perp = rel - np.outer(rel @ v, v)
    return np.linalg.norm(perp, axis=1)


def projection_distance(u, v) -> float:
    """Operator norm of the difference of the two rank-1 projections.

    Equals the sine of the principal angle: the one-row case of
    `_projection_distances`.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(_projection_distances(u[None], v[None])[0])


def metric_d1(dir_a, trans_a, dir_b, trans_b) -> float:
    """Distance between two lines: the one-row case of `line_distances`.

    Each line is its canonical direction row and its translation row.  A
    line's distance to itself is not 0 but up to (2d + 5) 2^-53, the
    rounding of u . u (see `line_distances`).
    """
    rows = (np.asarray(x, dtype=float)[None] for x in (dir_a, trans_a, dir_b, trans_b))
    return float(line_distances(*rows)[0])


def _require_orthogonal(directions: np.ndarray, translations: np.ndarray) -> None:
    """Raise InvalidParameter unless each translation row is orthogonal to its direction row.

    The rule of the standard form: |a . v| <= ORTHO_TOL, each inner
    product a stacked dot (`_row_dots`), the bits of `a @ v`.  The message
    gives the first skew row's inner product.
    """
    inner = _row_dots(translations, directions)
    skew = np.flatnonzero(np.abs(inner) > ORTHO_TOL)
    if skew.size:
        raise InvalidParameter(
            "translation must be orthogonal to the direction "
            f"(inner product {inner[skew[0]]:.3e})"
        )


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each pair of matching rows (last axis); leading axes broadcast.

    Each is one stacked (1, d) @ (d, 1) product, which numpy hands to the
    BLAS ddot that `u @ v` and `np.linalg.norm` use for one pair of
    vectors, so every value is theirs bit for bit.  The rows' entries must
    be adjacent in memory, as they are in every array built here.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _projection_distances(dirs_a, dirs_b) -> np.ndarray:
    """Projection distance of each pair of rows of two (..., d) arrays (leading axes broadcast).

    Computed as the norm of the component of u orthogonal to v, which
    agrees with sqrt(1 - <u, v>^2) for unit representatives but stays
    accurate when the directions nearly coincide (no cancellation near
    <u, v> = +-1), and capped at 1.  The pair is first put in tuple order
    (u is the row that is not lexicographically greater, comparing entries
    with ==, so -0.0 equals 0.0), which makes the distance exactly
    symmetric.
    """
    swap = dirs_a[..., 0] > dirs_b[..., 0]
    undecided = dirs_a[..., 0] == dirs_b[..., 0]
    for c in range(1, dirs_a.shape[-1]):
        swap |= undecided & (dirs_a[..., c] > dirs_b[..., c])
        undecided &= dirs_a[..., c] == dirs_b[..., c]
    u = np.where(swap[..., None], dirs_b, dirs_a)
    v = np.where(swap[..., None], dirs_a, dirs_b)
    perp = u - _row_dots(u, v)[..., None] * v
    norm = np.sqrt(_row_dots(perp, perp))
    return np.where(norm < 1.0, norm, 1.0)  # min(1.0, norm)


def line_distances(dirs_a, trans_a, dirs_b, trans_b) -> np.ndarray:
    """`metric_d1` of each pair of rows, bit for bit; rows broadcast.

    The lines are given as (n, d) arrays of canonical directions and
    translations, and a (1, d) side stands for one line measured against
    n others; leading axes broadcast too, so (m, 1, d) sides against (1,
    k, d) ones give the (m, k) table of every pair.  The distance is the
    projection-norm term
    (`_projection_distances`) plus the Euclidean distance of the
    translations, each dot product a stacked one (`_row_dots`).

    A line's distance to itself is not 0.  The projection term of u with
    itself is |u - fl(u . u) u|, which keeps the rounding of u . u: for a
    unit row as `_canonical_rows` makes it, |u|^2 lies within (d + 4)
    2^-53 of 1 and the dot adds d 2^-53 more, so d(l, l) <= (2d + 5) 2^-53
    (1.0e-15 in d = 2, 1.2e-15 in d = 3).  Over 100,000 random rows about
    55% are nonzero, up to 5.6e-16 in d = 2 and 7.0e-16 in d = 3; no
    separation floor is that small.

    Cost: O(n * d) in about two dozen array operations and no Python work
    per row; temporaries are a few (n, d) arrays.
    """
    dirs_a = np.asarray(dirs_a, dtype=float)
    dirs_b = np.asarray(dirs_b, dtype=float)
    diff = np.asarray(trans_a, dtype=float) - np.asarray(trans_b, dtype=float)
    return _projection_distances(dirs_a, dirs_b) + np.sqrt(_row_dots(diff, diff))


def first_close_pair(directions, translations, floor: float):
    """The lexicographically first pair i < j of lines whose distance is below floor.

    The lines are rows of (n, d) arrays of canonical directions and
    translations, all finite, as a `LineFamily` holds them: a non-finite
    translation would leave its grid cell undefined.  Returns (i, j,
    distance), where the distance is `line_distances` of rows i and j and
    "below" means not >= floor, or None when no pair is below: the result of
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
    below 2^48.

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

    if n < 2:
        return best
    reach = float(np.abs(trans).max())
    f = max(float(floor), 0.0)
    side = max(f + 2.0**-48 * ((d + 4) * f + reach), np.finfo(float).tiny)
    cells = np.floor(trans / side).astype(np.int64)
    lo = cells.min(axis=0) - 1
    radix = [int(r) for r in cells.max(axis=0) - lo + 2]
    codes = cells[:, 0] - lo[0]
    for c in range(1, d):
        codes *= radix[c]  # wraps mod 2^64 past 2^63 cells
        codes += cells[:, c] - lo[c]
    rows = np.argsort(codes, kind="stable")
    codes = codes[rows]
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

    v is one vector or rows whose leading axes broadcast against those of
    `rows`.  Each product and sum is one correctly rounded elementwise
    operation, so the values are the same on every IEEE machine, unlike a
    BLAS product, and with the two vectors swapped.
    """
    dot = rows[..., 0] * v[..., 0]
    for c in range(1, rows.shape[-1]):
        dot += rows[..., c] * v[..., c]
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
    [0, pi) into `width`-wide buckets; centers are stored as unit vectors,
    and the sine and cosine of each bucket's centre angle (b + 0.5) *
    width once, so the frame of bucket b is (-sines[b], cosines[b]).
    For d >= 3 the centers come from a greedy separated net and assignment
    is by nearest center in the projection metric.
    """

    dim: int
    delta: float
    centers: np.ndarray  # (k, d) canonical unit vectors
    angle_width: float | None = None  # set for the planar fast path
    sines: np.ndarray | None = None  # planar: (k,) sines of the centre angles
    cosines: np.ndarray | None = None  # planar: (k,) cosines of the centre angles
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
    and 9,252 centres, the build takes about 0.025 s on one core of a
    2-vCPU VM, and its peak temporaries are the candidates and the net's
    buffer of kept rows and their positions, 8 * count * (2d + 1) bytes
    (2.1 MB).
    """
    if not (0.0 < delta <= 1.0):
        raise InvalidScale(f"cover scale must lie in (0, 1], got {delta}")
    if d < 2:
        raise InvalidParameter("ambient dimension must be >= 2")
    if d == 2:
        if delta >= 1.0:
            width, n = float(np.pi), 1
        else:
            width = min(float(np.arcsin(delta)), np.pi / 2)
            n = _planar_bucket_count(width, delta)
        angles = (np.arange(n) + 0.5) * width
        cos, sin = np.cos(angles), np.sin(angles)
        if delta >= 1.0:
            centers = np.array([[1.0, 0.0]])
        else:
            centers = np.column_stack([cos, sin])
            flip = (centers[:, 0] < 0) | ((centers[:, 0] == 0) & (centers[:, 1] < 0))
            centers[flip] *= -1.0
            centers += 0.0
        return DirectionCover(2, delta, centers, width, sin, cos)
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
    """Each row of an (n, d) array as a canonical unit direction.

    Antipodal rows coincide: each row is divided by the root of its own
    dot product, the value `np.linalg.norm` takes for one vector (the
    stacked (1, d) @ (d, 1) product adds its terms in that order; an einsum
    or a column sum does not), then every row whose first nonzero entry is
    negative is negated and negative zeros are cleared.  A zero or
    non-finite row raises InvalidParameter.
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

    A candidate is kept unless it conflicts with a kept centre, the one
    rule of the net: their |cos|, the d products added left to right
    (`_fixed_order_cos`), exceeds limit = `_largest_separated_cos(0.6 *
    delta)`, i.e. their projection distance is below 0.6 * delta.  A BLAS
    |cos| differs from that value by under d * 2^-52, so one more than
    NET_MARGIN from limit decides its pair, and one within the margin is
    taken again in fixed order: no decision depends on the BLAS build or
    its thread count.  `_greedy_net` finds the in-order greedy set under
    that test, NET_BLOCK_ROWS candidates at a time.

    d >= 4 compares each block with every kept centre: O(count * k * d)
    for count = `_net_candidate_count` candidates and k centres, in BLAS
    products.  d = 3 compares a block only with the centres near its
    heights, about count * (band + NET_BLOCK_ROWS) * d, where a band holds
    O(k * delta) centres.  The golden-spiral candidates come in descending
    pre-canonical height z = `_fibonacci_heights`, so the kept centres do
    too and the centres within a height band are one slice of the kept
    rows, found by searchsorted.

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
    bands therefore has every computed |cos|, BLAS or fixed-order, below
    limit - NET_MARGIN: it cannot conflict with the candidate.

    With one BLAS thread on a 2-vCPU VM the build takes about 0.025 s at
    (3, 2^-5), 36,864 candidates and 9,252 centres, and about 0.02 s at
    (4, 0.25) and at (5, 0.5), against 0.08 and 0.1 s with one
    matrix-vector product per candidate.
    """
    count = _net_candidate_count(d, delta)
    cands = _candidate_directions(d, count)
    limit = _largest_separated_cos(0.6 * delta)
    high, low = limit + NET_MARGIN, limit - NET_MARGIN

    def conflicts(a, b):
        cos = a @ b.T
        np.abs(cos, out=cos)
        out = cos > high
        unsure = cos >= low
        unsure ^= out  # out implies unsure
        if unsure.any():
            i, j = np.nonzero(unsure)
            out[i, j] = _fixed_order_cos(a[i], b[j]) > limit
        return out

    bands = None
    if d == 3:
        heights = _fibonacci_heights(count)
        depths = -heights  # ascending
        radius = _band_radius(limit)

        def bands(start, stop, index):
            top, bottom = heights[start], heights[stop - 1]
            # the first candidates past each bound, then the first kept rows
            near, mirror, mirror_end = index.searchsorted([
                *depths.searchsorted([-top - radius, bottom - radius]),
                depths.searchsorted(top + radius, "right"),
            ]).tolist()
            # near: z_k < z_c + radius; mirror: |z_k + z_c| < radius
            if mirror_end < near:
                return [(near, len(index)), (mirror, mirror_end)]
            return [(min(near, mirror), len(index))]

    return _greedy_net((cands,), conflicts, bands)[0]


def _band_radius(limit: float) -> float:
    """Height gap past which a d = 3 candidate and a centre are never near.

    See `_greedy_sphere_net` for why a |cos| of at least limit - NET_MARGIN
    needs a height gap (as given or with one row negated) below this radius.
    """
    return float(np.sqrt(2.0 - 2.0 * limit + 4.0 * NET_MARGIN)) + NET_BAND_SLACK


def _greedy_net(batches, conflicts, bands=None):
    """The in-order greedy independent set of candidate rows under a conflict test.

    The candidates are the rows of the (m, w) arrays that `batches`
    yields, in order, and each is kept unless it conflicts with a row kept
    before it.  conflicts(a, b) is the caller's exact test: a bool
    (len(a), len(b)) array, True where row i of a conflicts with row j of
    b, and the transpose of conflicts(b, a).  bands(start, stop, index),
    given the positions start:stop of a block of candidates and the
    ascending positions `index` of the rows kept so far, returns the (lo,
    hi) slices of the kept rows that may conflict with a candidate of the
    block; by default every kept row may.

    Candidates are decided NET_BLOCK_ROWS at a time.  First every
    candidate of the block that conflicts with a row kept before the block
    is dropped, the candidates still open compared with up to
    SEPARATION_PAIR_BLOCK / NET_BLOCK_ROWS kept rows per call.  Then one
    call gives the conflicts among the block's remaining candidates, and
    `_greedy_in_rounds` keeps their in-order greedy independent set.  That
    is the set the candidate-at-a-time loop keeps, however the candidates
    are grouped: each pair is decided by the same test, and the loop's
    kept rows before a block are the ones kept here.

    Returns (rows, index): the kept rows, a fresh (k, w) array, and their
    positions in the candidate order.  The kept rows fill one contiguous
    buffer, grown when a batch could overfill it, so a band is a slice; no
    conflicts call compares more than max(NET_BLOCK_ROWS^2,
    SEPARATION_PAIR_BLOCK) pairs, and no other temporary is larger than a
    block.
    """
    reach = max(1, SEPARATION_PAIR_BLOCK // NET_BLOCK_ROWS)  # kept rows per call
    net, index = np.empty((0, 0)), np.empty(0, dtype=np.int64)
    kept = seen = 0
    for cands in batches:
        if kept + len(cands) > len(index):
            size = max(2 * len(index), kept + len(cands))
            grown, at = np.empty((size, cands.shape[1])), np.empty(size, dtype=np.int64)
            if kept:
                grown[:kept], at[:kept] = net[:kept], index[:kept]
            net, index = grown, at
        for start in range(0, len(cands), NET_BLOCK_ROWS):
            block = cands[start : start + NET_BLOCK_ROWS]
            first = seen + start
            open_ = np.arange(len(block))
            slices = bands(first, first + len(block), index[:kept]) if bands else [(0, kept)]
            for lo, hi in slices:
                for at in range(lo, hi, reach):
                    if open_.size:
                        rows = net[at : min(at + reach, hi)]
                        open_ = open_[~conflicts(block[open_], rows).any(axis=1)]
            if not open_.size:
                continue
            m = open_.size
            if m > 1:
                rows = block[open_]
                open_ = open_[_greedy_in_rounds(conflicts(rows, rows) & _LATER[:m, :m])]
            net[kept : kept + open_.size] = block[open_]
            index[kept : kept + open_.size] = first + open_
            kept += open_.size
        seen += len(cands)
    return net[:kept].copy(), index[:kept].copy()


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


def mesh_assign(family: LineFamily, delta: float, sink):
    """Stream every line's (direction bucket, translation mesh cell) code to a sink.

    The buckets are those of `direction_cover(family.dim, delta)`.  The
    translation is expressed in the bucket center's orthocomplement frame
    and binned by the 4*delta mesh anchored at 0 (`_mesh_rows`).  table =
    sink(n, lo, spans) is made once, every line's code goes to
    table.add(codes, lines), and the table is returned; lines indexes the
    codes' lines in the family (a slice, or an index array in d >= 3), and
    a code's lines come in ascending order.  No (n,) bucket, cell or code
    array is made while the layout holds.

    Codes while `_mesh_layout` gives one: lo = (first, -H, ..., -H), spans
    = (last - first + 1, S, ..., S), and a line's code is (bucket - first)
    * S^(d-1) + sum_j (cell_j + H) * S^(d-2-j), S = 2H + 1, packed by
    `boxcount._pack_cells`, the grid counts' one pack rule (a float
    product while `boxcount._float_weights` admits the layout, the int64
    `_pack` past it), block by block in the loop that computes the
    block: the plane's blocks follow the family, and in d >= 3 all of a
    bucket's lines come in one block.  Where the layout's range would
    reach 2^62 (translations far from the origin at a fine scale) the
    (n, d) rows are gathered and ranked by one np.unique, lo = (first,
    0), spans = (last - first + 1, n), and a line's code is (bucket -
    first) * n + the dense rank of its (bucket, cells) row.  Either way
    ascending codes order lines by bucket and then by cell coordinates,
    and code // (span / spans[0]) + first is the bucket.  The ranked codes
    fit an int64 for any n below 2^36, since a cover has at most
    `PLANAR_BUCKET_CAP` or `NET_CANDIDATE_CAP` buckets.

    Cost per scale for d=2: each line's angle is computed once per family
    (`LineFamily.angles`) and each bucket centre's sine and cosine once per
    cover, so a scale costs per line its bucket, two table reads, two
    products, a subtraction, a division, the in-place snap (`snap_into`)
    and the pack, COUNT_BLOCK_ROWS lines at a time.  Over box-large's 4.1 M
    lines that is about 55 ms a scale with `mesh_cover_count`'s sink, where
    (n,) bucket, cell and code arrays took about 90 (one BLAS thread,
    2-vCPU VM, best of 7 at each of 2^-5 ... 2^-13).  For d>=3 every
    distinct direction is compared with every cover centre
    (`DirectionCover.assign`): O(m * k) for m distinct directions and k
    centres, plus an O(n log n) sort.  One more stable sort groups the
    lines by bucket, and each bucket's translations are projected onto its
    frame in family order and packed.  The ranked codes add one O(n log n)
    sort of the rows.

    A cell coordinate is a translation's coordinate in an orthonormal
    frame, at most its norm, so a scale at which the family's cached
    `translation_radius` over 4*delta reaches 2^61 is refused before any
    work (`require_indexable`): no cell index wraps.
    """
    n, d = family.directions.shape
    if n:
        require_indexable(family.translation_radius, 4.0 * delta, delta)
    cover = direction_cover(d, delta)
    width = 4.0 * delta
    # d >= 3: every line's bucket, assigned before the pass
    assigned = cover.assign(family.directions) if n and cover.angle_width is None else None
    layout = _mesh_layout(family, cover, assigned, width) if n else None
    if layout is None:
        rows = np.empty((n, d))
        for lines, block in _mesh_rows(family, cover, assigned, width):
            rows[lines] = block
        # distinct rows in lexicographic order, bucket first; a -0.0 cell
        # equals 0.0 here, as the int64 cells would
        distinct, ranks = np.unique(rows, axis=0, return_inverse=True)
        first, last = (int(b) for b in distinct[[0, -1], 0]) if n else (0, 0)
        codes = (rows[:, 0].astype(np.int64) - first) * n + ranks.reshape(-1)
        table = sink(n, np.array([first, 0]), np.array([last - first + 1, n]))
        table.add(codes, slice(0, n))
        return table
    lo, spans = layout
    weights = _float_weights(lo, spans)
    table = sink(n, lo, spans)
    out = np.empty(min(n, COUNT_BLOCK_ROWS))
    for lines, rows in _mesh_rows(family, cover, assigned, width):
        if out.size < rows.shape[0]:  # a d >= 3 bucket of more lines
            out = np.empty(rows.shape[0])
        table.add(_pack_cells(rows, lo, spans, weights, out[: rows.shape[0]]), lines)
    return table


def _mesh_rows(family: LineFamily, cover: DirectionCover, buckets, width: float):
    """Yield (lines, rows): each block's lines and their float (m, d) mesh rows.

    A row is (bucket, cell coordinates), the cells snapped from the
    translation's coordinates in the bucket's frame over `width`
    (`snap_into`).  In the plane the blocks are COUNT_BLOCK_ROWS lines in
    family order, `lines` a slice, and the rows one reused buffer: a block's
    rows are valid until the next is asked for.  In d >= 3 `buckets` holds
    every line's bucket, and each block is one bucket's lines in family
    order, `lines` an index array.
    """
    n, d = family.directions.shape
    if not n:
        return
    if cover.angle_width is not None:
        theta, trans = family.angles, family.translations
        # column by column in memory: the snap writes one contiguous column
        buffer = np.empty((2, min(n, COUNT_BLOCK_ROWS)))
        coord = np.empty(buffer.shape[1])
        for start in range(0, n, COUNT_BLOCK_ROWS):
            lines = slice(start, start + COUNT_BLOCK_ROWS)
            b = cover.angle_buckets(theta[lines])
            rows = buffer[:, : b.size].T
            # t1 cos - t0 sin has the bits of (-t0) sin + t1 cos, signed zeros too
            c = np.multiply(trans[lines, 1], cover.cosines[b], out=coord[: b.size])
            c -= trans[lines, 0] * cover.sines[b]
            c /= width
            rows[:, 0] = b
            snap_into(c, rows[:, 1])
            yield lines, rows
        return
    # a stable sort lists each bucket's lines in family order, the rows a
    # mask of the bucket would select
    order = np.argsort(buckets, kind="stable")
    ends = np.flatnonzero(np.diff(buckets[order])) + 1
    for lines in np.split(order, ends):
        bucket = int(buckets[lines[0]])
        q = family.translations[lines] @ cover.frame(bucket).T
        q /= width
        rows = np.empty((lines.size, d))
        rows[:, 0] = bucket
        snap_into(q, rows[:, 1:])
        yield lines, rows


def _mesh_layout(family: LineFamily, cover: DirectionCover, buckets, width: float):
    """(lo, spans) of the packed mesh codes, or None when their range reaches 2^62.

    The digits of a code are (bucket, cell_0, ..., cell_(d-2)), the bucket
    in [first, last] and every cell in [-H, H], H = floor(R' / width) + 1
    with R' = R (1 + 2^-40) and R = `translation_radius`: lo = (first, -H,
    ..., -H) and spans = (last - first + 1, S, ..., S), S = 2H + 1.  Every
    digit is offset by a bound that holds for every line, so ascending
    codes order lines as their (bucket, cells) tuples.

    The buckets.  In d >= 3 first and last are the least and greatest of
    `buckets`.  In the plane they are the buckets of the family's least
    and greatest angle: `DirectionCover.angle_buckets` is monotone (a
    division by the positive width, the truncation of a nonnegative
    quotient and a min), so every line's bucket lies between them.

    Why every cell lies in [-H, H].  Let u = 2^-53.  R is the root of the
    largest computed squared norm, so every translation t has |t| <= R (1
    + (d + 2) u).  Every frame row f has |f| <= 1 + 4 d u: a Gram-Schmidt
    row is divided by its own norm, and the planar (-sin, cos) comes from
    np.sin / np.cos, accurate to a few ulps.  A coordinate t . f computed
    in any order (BLAS, or two products and a subtraction) lies within d u
    |t| |f| of the exact one, which is at most |t| |f|; an underflowed
    product adds under d 2^-1074, nothing next to the width.  Dividing by
    width rounds once more.  So each quotient q has |q| <= (R / width)(1 +
    (6 d + 4) u), below X = fl(fl(R') / width) for any d < 2^10 (the
    covers stop at d = 8).  Then floor(q) lies in [-floor(X) - 1, floor(X)],
    and the snap-up adds at most 1 to it: the cell is in [-H, H].  A
    quotient with |q| < 1 gives a cell in [-1, 1], inside since H >= 1.

    The range test, fl(fl((last + 1) * S^(d-2)) * fl(S)) >= 2^62, is made
    on the bounds.  Each rounding is monotone with relative error at most
    2^-53, so wherever a layout is returned the codes' range (last - first
    + 1) * S^(d-1) stays below 2^62 (1 + 2^-51) < 2^63: every code and
    every `_pack` step fits an int64.
    """
    d = family.dim
    if buckets is None:
        theta = family.angles
        first, last = (int(b) for b in cover.angle_buckets(np.array([theta.min(), theta.max()])))
    else:
        first, last = int(buckets.min()), int(buckets.max())
    half = math.floor(family.translation_radius * (1.0 + 2.0**-40) / width) + 1
    side = 2 * half + 1
    if float((last + 1) * side ** (d - 2)) * float(side) >= 2**62:
        return None
    lo = np.array([first] + [-half] * (d - 1), dtype=np.int64)
    spans = np.array([last - first + 1] + [side] * (d - 1), dtype=np.int64)
    return lo, spans


class _MeshCount:
    """`mesh_assign` sink that keeps the distinct codes in a `CodeSet`."""

    def __init__(self, n: int, lo: np.ndarray, spans: np.ndarray):
        self.seen = CodeSet(n, math.prod(int(s) for s in spans))

    def add(self, codes: np.ndarray, lines) -> None:
        self.seen.add(codes)


def mesh_cover_count(family: LineFamily, delta: float) -> int:
    """Number of (direction bucket) x (4*delta mesh cell) products hit.

    This is the covering-number proxy for line families; its log-log slope
    against 1/delta estimates the family's box dimension.

    Cost per scale: `mesh_assign`, whose (bucket, cell) codes go block by
    block into a `boxcount.CodeSet`, about 55 ms over box-large's 4.1 M
    lines.  While the layout's range is at most 8 * n the occupied
    products are marked in a table of at most 8 * n bytes, O(n + range);
    above that the codes are sorted, O(n log n).  On box-large the table
    grows to 8 MB at 2^-13.  Where the layout's range would reach 2^62 the
    codes are dense ranks of the (bucket, cell) rows, so every scale that
    `require_indexable` admits is counted.
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
    return mesh_assign(family, delta, _MeshCount).seen.count()
