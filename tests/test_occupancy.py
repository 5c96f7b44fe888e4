"""Property tests pinning the blocked occupancy counters to a full sort.

`grid_count` and `mesh_cover_count` count distinct cell codes with a dense
occupancy table or, for sparse codes, one np.unique.  The references below
are the plain forms: snap every point, pack every code and sort them all,
and count the lines' distinct (bucket, cells) rows; the line mesh itself
is pinned to `line_reference.mesh_assign`, which computes every line's
angle, sine and cosine at each call.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import furst
from furst import boxcount, grassmann
from furst.errors import InvalidScale
from furst.util import snap_floor

import line_reference
from mesh_sink import streamed

DELTAS = [2.0**-j for j in range(1, 13)] + [0.3, 0.1, 1 / 27, 3.0**-5 * np.sqrt(2)]


def reference_cell_codes(idx):
    mins = idx.min(axis=0)
    spans = idx.max(axis=0) - mins + 1
    if float(np.prod(spans.astype(float))) >= 2**62:
        raise InvalidScale("grid too fine to index; raise the scale")
    codes = np.zeros(idx.shape[0], dtype=np.int64)
    for c in range(idx.shape[1]):
        codes = codes * spans[c] + (idx[:, c] - mins[c])
    return codes


def reference_grid_count(points, delta):
    side = delta / np.sqrt(points.shape[1])
    idx = line_reference.snap_floor(points, side)
    return int(np.unique(reference_cell_codes(idx)).size)


def reference_mesh_count(family, delta):
    """Distinct (bucket, cells) rows, at every scale the mesh admits."""
    buckets, cells = line_reference.mesh_assign(family, delta)
    return int(np.unique(np.column_stack([buckets, cells]), axis=0).shape[0])


def grid_span(points, delta):
    """Cells in the bounding box of the snapped cloud: the table's size."""
    idx = line_reference.snap_floor(points, delta / np.sqrt(points.shape[1]))
    return int(np.prod(idx.max(axis=0) - idx.min(axis=0) + 1))


def coordinates(side, reach):
    """Cell boundaries k*side, points 1e-10 and 2e-9 below them (in absolute
    and in cell units), and arbitrary values, over k in [-reach, reach]."""
    k = st.integers(-reach, reach)
    return st.one_of(
        st.builds(lambda k, e: k * side - e, k, st.sampled_from([0.0, 1e-10, 2e-9])),
        st.builds(lambda k, e: (k - e) * side, k, st.sampled_from([1e-10, 2e-9])),
        st.floats(-reach * side, reach * side, allow_nan=False),
    )


@st.composite
def clouds(draw, reach, rows):
    """(points, delta) in d = 2, 3, 4, with repeated rows."""
    d = draw(st.sampled_from((2, 3, 4)))
    delta = draw(st.sampled_from(DELTAS) | st.floats(1e-3, 2.0))
    n = draw(rows)
    values = draw(st.lists(coordinates(delta / np.sqrt(d), reach),
                           min_size=n * d, max_size=n * d))
    points = np.array(values).reshape(n, d)
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=8))
    return np.vstack([points, points[repeats]]), delta


def check_grid(points, delta):
    cloud = furst.PointCloud(points, 1e-300)
    expected = reference_grid_count(points, delta)
    assert furst.grid_count(cloud, delta) == expected
    # small blocks: many blocks per cloud and a partial last block
    with mock.patch.object(boxcount, "COUNT_BLOCK_ROWS", 7):
        assert furst.grid_count(furst.PointCloud(points, 1e-300), delta) == expected


@settings(max_examples=150, deadline=None)
@given(clouds(reach=2, rows=st.integers(1, 30)))
def test_grid_count_table_branch_matches_sort(case):
    points, delta = case
    # repeat the rows until the table branch applies: span <= 8 * n
    reps = -(-grid_span(points, delta) // (8 * len(points)))
    check_grid(np.tile(points, (reps, 1)), delta)


@settings(max_examples=150, deadline=None)
@given(clouds(reach=50, rows=st.integers(1, 20)))
def test_grid_count_sort_branch_matches_sort(case):
    points, delta = case
    assume(grid_span(points, delta) > 8 * len(points))
    check_grid(points, delta)


@settings(max_examples=100, deadline=None)
@given(clouds(reach=3, rows=st.integers(1, 40)), st.lists(st.floats(-20, 20), min_size=4, max_size=4))
def test_grid_count_matches_sort_for_shifted_clouds(case, shift):
    points, delta = case
    check_grid(points + np.array(shift[: points.shape[1]]), delta)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 4)), st.floats(-5, 5), st.sampled_from(DELTAS))
def test_single_point(d, value, delta):
    check_grid(np.full((1, d), value), delta)


def test_grid_count_many_default_blocks():
    rng = np.random.default_rng(5)
    points = rng.uniform(-1, 1, (3 * boxcount.COUNT_BLOCK_ROWS + 11, 2))
    cloud = furst.PointCloud(points, 1e-9)
    for delta in (0.5, 2.0**-7, 2.0**-10):  # table at the first two, sort below
        assert furst.grid_count(cloud, delta) == reference_grid_count(points, delta)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DELTAS) | st.floats(1e-6, 4.0),
       st.lists(coordinates(0.1, 40), min_size=1, max_size=30))
def test_snap_floor_commutes_with_column_extremes(side, values):
    col = np.array(values)
    snapped = snap_floor(col, side)
    assert snap_floor(col.min(), side) == snapped.min()
    assert snap_floor(col.max(), side) == snapped.max()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 3, 4)),
       st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=16),
       st.floats(1e-12, 1.0))
def test_too_fine_guard_fires_as_before(d, values, delta):
    points = np.array(values[: len(values) // d * d]).reshape(-1, d)
    cloud = furst.PointCloud(points, 1e-300)
    try:
        expected = reference_grid_count(points, delta)
    except InvalidScale:
        with pytest.raises(InvalidScale, match="grid too fine"):
            furst.grid_count(cloud, delta)
    else:
        assert furst.grid_count(cloud, delta) == expected


def planar_family(angles, offsets):
    angles = np.asarray(angles)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    normals = np.column_stack([-np.sin(angles), np.cos(angles)])
    return furst.LineFamily(dirs, normals * np.asarray(offsets)[:, None], 1e-300)


MESH_DELTAS = [2.0**-j for j in range(0, 14)] + [0.3, 0.1]


@st.composite
def planar_lines(draw, delta):
    """Angles on and one ulp either side of bucket edges, exactly 0, just
    below pi (also as small negative angles) and arbitrary; offsets on and
    1e-12 either side of 4*delta cell boundaries, and arbitrary."""
    cover = furst.direction_cover(2, delta)
    edge = st.integers(0, len(cover)).map(lambda m: m * cover.angle_width)
    angle = st.one_of(
        edge,
        st.tuples(edge, st.sampled_from([-np.inf, np.inf])).map(lambda e: np.nextafter(*e)),
        st.sampled_from([0.0, -0.0, -1e-300, -1e-17, np.nextafter(np.pi, 0.0), np.pi]),
        st.floats(0.0, np.pi, exclude_max=True),
    )
    boundary = st.integers(-40, 40).map(lambda k: k * 4.0 * delta)
    offset = st.one_of(
        boundary,
        st.tuples(boundary, st.sampled_from([-1e-12, 1e-12])).map(sum),
        st.floats(-2.0, 2.0),
    )
    n = draw(st.integers(1, 40))
    return (draw(st.lists(angle, min_size=n, max_size=n)),
            draw(st.lists(offset, min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(MESH_DELTAS).flatmap(lambda d: st.tuples(st.just(d), planar_lines(d))),
       st.sampled_from([7, grassmann.COUNT_BLOCK_ROWS]))
def test_mesh_assign_matches_reference_planar(case, block_rows):
    delta, (angles, offsets) = case
    family = planar_family(angles, offsets)
    expected_buckets, expected_cells = line_reference.mesh_assign(family, delta)
    with mock.patch.object(grassmann, "COUNT_BLOCK_ROWS", block_rows):
        buckets, cells, _ = streamed(family, delta)
    assert buckets.dtype == expected_buckets.dtype and cells.dtype == expected_cells.dtype
    assert np.array_equal(buckets, expected_buckets)
    assert np.array_equal(cells, expected_cells)


@pytest.mark.parametrize("delta", MESH_DELTAS)
def test_mesh_assign_matches_reference_at_snap_thresholds(delta):
    # lines at bucket-centre angles, in adjacent pairs of offsets where the
    # reference's cell steps from k to k + 1: a change of one ulp in a
    # centre's sine or cosine, or in the coordinate, moves one of a pair
    cover = furst.direction_cover(2, delta)
    centres = (np.arange(len(cover)) + 0.5) * cover.angle_width
    inside = np.flatnonzero(centres < np.pi)  # the last centre can pass pi
    spread = inside[np.unique(np.linspace(0, len(inside) - 1, 9).astype(int))]
    b, k = (a.ravel() for a in np.meshgrid(spread, np.arange(4)))
    theta = centres[b]

    def reference_cells(offsets):
        return line_reference.mesh_assign(planar_family(theta, offsets), delta)[1][:, 0]

    lo = ((k + 0.5) * 4.0 * delta).view(np.int64)  # positive floats order as their bits
    hi = ((k + 1.5) * 4.0 * delta).view(np.int64)
    assert np.array_equal(reference_cells(lo.view(float)), k)
    assert np.array_equal(reference_cells(hi.view(float)), k + 1)
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        up = reference_cells(mid.view(float)) > k
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    family = planar_family(np.tile(theta, 2), np.concatenate([lo, hi]).view(float))
    expected_buckets, expected_cells = line_reference.mesh_assign(family, delta)
    buckets, cells, _ = streamed(family, delta)
    assert np.array_equal(buckets, expected_buckets)
    assert np.array_equal(cells, expected_cells)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60).flatmap(lambda n: st.tuples(
           st.lists(st.floats(0.0, np.pi, exclude_max=True), min_size=n, max_size=n),
           st.lists(st.floats(-2.0, 2.0) | st.integers(-8, 8).map(lambda k: k / 16),
                    min_size=n, max_size=n))),
       st.sampled_from([2.0**-j for j in range(0, 14)]))
def test_mesh_cover_count_matches_sort_planar(lines, delta):
    family = planar_family(*lines)
    assert furst.mesh_cover_count(family, delta) == reference_mesh_count(family, delta)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.lists(
           st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6), min_size=n, max_size=n)),
       st.sampled_from([1.0, 0.5, 0.25]))
def test_mesh_cover_count_matches_sort_3d(rows, delta):
    raw = np.array(rows)
    dirs, trans = raw[:, :3], raw[:, 3:]
    assume(np.all(np.linalg.norm(dirs, axis=1) > 0.1))
    dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    trans = trans - np.einsum("ij,ij->i", trans, dirs)[:, None] * dirs
    family = furst.LineFamily(dirs, trans, 1e-300)
    assert furst.mesh_cover_count(family, delta) == reference_mesh_count(family, delta)


def test_mesh_cover_count_both_branches():
    rng = np.random.default_rng(9)
    family = planar_family(rng.uniform(0, np.pi, 5000), rng.uniform(-1, 1, 5000))
    for delta in (2.0**-3, 2.0**-12):  # dense codes, then sparse ones
        assert furst.mesh_cover_count(family, delta) == reference_mesh_count(family, delta)


def test_count_distinct_branches():
    codes = np.array([3, 0, 3, 7, 7, 1], dtype=np.int64)
    for span, table in ((8, True), (8 * len(codes), True), (8 * len(codes) + 1, False),
                        (2**40, False)):
        seen = boxcount.CodeSet(len(codes), span)
        assert (seen._table is not None) == table
        seen.add(codes[:4])
        seen.add(codes[4:])
        assert seen.count() == 4
        assert np.array_equal(seen.codes(), [0, 1, 3, 7])
