"""In-place snapping and float packing give the bits of their plain forms.

`util.snap_floor` floors quotients in place and adds the snap-up flags
only to a block with a flag (`util.snap_into`); `line_reference.snap_floor`
adds them to every block.  `boxcount._count_chain` packs each block's cells with one
float product against the mixed-radix weights while `_float_weights`
proves it exact, and with the int64 `_pack` past that bound;
`reference_grid_count` snaps and packs every point in int64.  The planar
`mesh_assign` computes t1 cos - t0 sin, and `verifier._near_rows`
prefilters a block column by column; their plain forms are
`line_reference.mesh_assign` and numpy's row-wise max.  No `assert` here:
every check raises through `expect`, so these tests check the same under
python -O.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import furst
from furst import boxcount, grassmann, util, verifier

import line_reference
from mesh_sink import streamed
from test_occupancy import planar_family, reference_grid_count

THRESHOLD = 1.0 - util.SNAP  # a fraction above this snaps up
# quotients on, one ulp either side of, and near the snap threshold, signed
# and tiny zeros, and a few plain values
QUOTIENTS = [
    THRESHOLD, np.nextafter(THRESHOLD, 0.0), np.nextafter(THRESHOLD, 1.0),
    1.0 + THRESHOLD, -1.0 + THRESHOLD, 3.0 - 1e-9, 5.0 - 2e-9, -7.0 + 1e-10,
    0.0, -0.0, -1e-300, -5e-324, -1e-17, -1e-10, 1.0, -1.0, 2.5, -3.25,
]


def expect(ok, what):
    if not ok:
        raise AssertionError(what)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def with_quotient(target, side):
    """A coordinate x with fl(x / side) == target, found by stepping x an
    ulp at a time from target * side (division is monotone in x)."""
    x = target * side
    for _ in range(16):
        q = x / side
        if q == target:
            break
        x = np.nextafter(x, np.inf if q < target else -np.inf)
    return x


# ------------------------------------------------------------- snap_floor


values = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from(QUOTIENTS),
    st.integers(-50, 50).map(lambda k: k - 1e-9),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(values, min_size=1, max_size=24),
       st.sampled_from([1.0, 0.5, 0.1, 1 / 27, 3.0**-5 * np.sqrt(2)]) | st.floats(1e-6, 8.0))
def test_snap_floor_matches_plain_form(values, width):
    arr = np.array(values)
    for v in (arr, arr.reshape(-1, 1), arr[: len(arr) // 2 * 2].reshape(-1, 2),
              arr[0], float(arr[0]), list(values)):
        got, want = util.snap_floor(v, width), line_reference.snap_floor(v, width)
        expect(type(got) is type(want), f"type {type(got)} for {v!r}")
        expect(same_bits(got, want), f"snap_floor({v!r}, {width!r})")


def test_snap_floor_of_integers_and_thresholds():
    ints = np.array([[-3, 0, 7], [1, 2, -1]])
    expect(same_bits(util.snap_floor(ints, 0.5), line_reference.snap_floor(ints, 0.5)),
           "integer input")
    q = np.array(QUOTIENTS)
    got = util.snap_floor(q, 1.0)
    expect(same_bits(got, line_reference.snap_floor(q, 1.0)), "thresholds")
    # on the threshold no snap-up, one ulp above it the snap-up
    expect(list(got[:3]) == [0, 0, 1], f"threshold cells {got[:3]}")


def test_snap_into_skips_the_snap_up_without_flags():
    q = np.array([-0.0, 0.0, THRESHOLD, np.nextafter(THRESHOLD, 1.0), -1e-17, 2.5])
    for rows, above in [(slice(None), THRESHOLD), (slice(0, 3), THRESHOLD), (slice(None), 0.3)]:
        fractions, cells = q[rows].copy(), np.empty_like(q[rows])
        flags = util.snap_into(fractions, cells, above)
        floor = np.floor(q[rows])
        expect(same_bits(flags, q[rows] - floor > above), "flags")
        expect(same_bits(fractions, q[rows] - floor), "fractions")
        snapped = floor + flags if flags.any() else floor
        expect(same_bits(cells, snapped), f"cells of {q[rows]} above {above}")
    # a flag-free block keeps its -0.0 cell, where adding the flags gives 0.0
    fractions, cells = q[:3].copy(), np.empty(3)
    flags = util.snap_into(fractions, cells)
    expect(np.signbit(cells[0]) and not np.signbit((np.floor(q[:3]) + flags)[0]),
           "signed zero")


# ------------------------------------------------------------- float pack guard


@pytest.mark.parametrize("lo, spans, exact", [
    ([2**53 - 1], [2], True),  # reach 2^53
    ([2**53], [2], False),  # reach 2^53 + 1
    ([-(2**53)], [1], True),
    ([-(2**53) - 1], [2], False),
    ([0, 0], [2**26, 2**27], True),  # span 2^53, reach 2^53 - 1
    ([0, 0], [2**26 + 1, 2**27], False),  # span past 2^53
    ([0, 1], [2**26, 2**27], True),  # reach 2^53
    ([1, 0], [2**26, 2**27], False),  # reach 2^53 + 2^27 - 1
    ([-(2**25), -(2**26)], [2**25, 2**27], True),
    ([-3, 5, -7], [11, 13, 17], True),
    ([2**40, 0, 0], [3, 2**7, 2**6], False),
    ([-5, 2, 0, -1], [7, 3, 9, 4], True),
])
def test_float_pack_guard_and_codes(lo, spans, exact):
    lo, spans = np.array(lo, dtype=np.int64), np.array(spans, dtype=np.int64)
    weights = boxcount._float_weights(lo, spans)
    expect((weights is not None) == exact, f"guard of lo={lo}, spans={spans}")
    # the box's corners and random cells inside it
    corners = np.array(np.meshgrid(*[[0, s - 1] for s in spans], indexing="ij"))
    offsets = corners.reshape(len(spans), -1).T
    rng = np.random.default_rng(len(spans))
    inner = np.column_stack([rng.integers(0, s, 200) for s in spans])
    # float cells, as the kernel floors them: past 2^53 some cells round
    # to a neighbour in the box
    cells = (np.vstack([offsets, inner]) + lo).astype(float)
    got = boxcount._pack_cells(cells, lo, spans, weights, np.empty(len(cells)))
    expect(same_bits(got, boxcount._pack(cells.astype(np.int64), lo, spans)),
           "packed codes")


# ------------------------------------------------------------- grid counts


def cloud_points(d, n, seed, far):
    """Uniform points in [-1, 1)^d with exact zeros and -0.0 mixed in, or
    the same moved to 2^42, where grids from 2^-6 down pass the float-pack
    guard."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, (n, d))
    points[rng.random((n, d)) < 0.1] = 0.0
    points[rng.random((n, d)) < 0.1] = -0.0
    points = np.vstack([points, points[: n // 4]])  # repeated rows
    return points + 2.0**42 if far else points


def check_counts(points, deltas):
    cloud = furst.PointCloud(points, 1e-300)
    expected = [reference_grid_count(points, delta) for delta in deltas]
    for block_rows in (7, boxcount.COUNT_BLOCK_ROWS):
        with mock.patch.object(boxcount, "COUNT_BLOCK_ROWS", block_rows):
            counts = furst.grid_counts(cloud, deltas)
            singles = [furst.grid_count(cloud, delta) for delta in deltas]
        expect(counts == expected, f"chain counts {counts} != {expected}")
        expect(singles == expected, f"single counts {singles} != {expected}")


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("far", [False, True])
@pytest.mark.parametrize("table", [False, True])
def test_grid_counts_on_both_sides_of_the_guard(d, far, table):
    points = cloud_points(d, 160, d, far)
    deltas = [2.0**-j for j in range(6, 10)]
    cloud = furst.PointCloud(points, 1e-300)
    for delta in deltas:
        _, lo, spans = boxcount._grid(cloud, delta)
        exact = boxcount._float_weights(lo, spans) is not None
        expect(exact != far, f"float pack at delta={delta}, far={far}")
    # tables of at most 2^24 cells; the finer grids are sorted either way
    with mock.patch.object(boxcount, "fits_table", lambda n, span: table and span <= 2**24):
        check_counts(points, deltas)
        check_counts(points, [0.3, 0.1, 1 / 27])  # one chain per scale


def test_table_mode_grid_far_from_the_origin_takes_the_int_pack():
    # 20,480 rows over a span of about 2^17 cells: a table, yet past the guard
    points = cloud_points(2, 16_384, 5, far=True)
    cloud = furst.PointCloud(points, 1e-300)
    _, lo, spans = boxcount._grid(cloud, 2.0**-7)
    expect(boxcount.fits_table(len(points), int(np.prod(spans))), "table mode")
    expect(boxcount._float_weights(lo, spans) is None, "past the guard")
    expect(furst.grid_count(cloud, 2.0**-7) == reference_grid_count(points, 2.0**-7),
           "count")


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 6, 7, 8])
def test_fractions_at_the_snap_threshold(d, n):
    delta = 2.0**-5
    side = delta / np.sqrt(d)
    rng = np.random.default_rng(10 * d + n)
    quotients = rng.choice(QUOTIENTS, (n, d))
    quotients[0] = QUOTIENTS[:d]  # the threshold and its two neighbours
    points = np.vectorize(with_quotient)(quotients, side)
    # a chain of four scales above delta: their windows reach further below
    # each fine boundary, so every threshold row is a window row there
    check_counts(points, [delta * 2.0**k for k in range(3, -1, -1)])
    check_counts(points, [delta])


# ------------------------------------------------------------- planar mesh


floats_and_zeros = st.floats(-4.0, 4.0, allow_nan=False) | st.sampled_from([0.0, -0.0])


@settings(max_examples=300, deadline=None)
@given(floats_and_zeros, floats_and_zeros, floats_and_zeros, floats_and_zeros)
def test_mesh_coordinate_keeps_the_bits(t0, t1, sin, cos):
    t0, t1, sin, cos = map(np.float64, (t0, t1, sin, cos))
    expect(same_bits(t1 * cos - t0 * sin, (-t0) * sin + t1 * cos),
           f"t1 cos - t0 sin at {(t0, t1, sin, cos)}")


def signed_zero_family():
    """Axis lines and slanted lines whose translations hold +0.0 and -0.0."""
    dirs, trans = [], []
    for z in (0.0, -0.0):
        for y in (0.0, -0.0, 0.5, -0.25, 1e-300):
            dirs += [(1.0, 0.0), (0.0, 1.0)]
            trans += [(z, y), (y, z)]
        for a in (0.3, 1.2, 2.9):
            dirs.append((np.cos(a), np.sin(a)))
            trans.append((z, z))
    return furst.LineFamily(np.array(dirs), np.array(trans), 1e-300)


@pytest.mark.parametrize("delta", [1.0, 0.5, 2.0**-4, 0.1, 2.0**-11])
@pytest.mark.parametrize("block_rows", [7, grassmann.COUNT_BLOCK_ROWS])
def test_mesh_assign_with_signed_zero_translations(delta, block_rows):
    family = signed_zero_family()
    rng = np.random.default_rng(3)
    more = planar_family(rng.uniform(0.0, np.pi, 40), rng.uniform(-2.0, 2.0, 40))
    for fam in (family, more):
        expected_buckets, expected_cells = line_reference.mesh_assign(fam, delta)
        with mock.patch.object(grassmann, "COUNT_BLOCK_ROWS", block_rows):
            buckets, cells, _ = streamed(fam, delta)
        expect(same_bits(buckets, expected_buckets), "buckets")
        expect(same_bits(cells, expected_cells), "cells")


# ------------------------------------------------------------- witness prefilter


def row_max_rows(block, frame, offset, limit):
    """The prefilter as the row-wise max of the whole projected block."""
    proj = block @ frame.T
    proj -= offset
    np.abs(proj, out=proj)
    return np.flatnonzero(proj.max(axis=1) <= limit)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_near_rows_match_the_row_wise_max(d):
    rng = np.random.default_rng(d)
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    frame = grassmann._gram_schmidt_frame(v)
    a = rng.uniform(-1.0, 1.0, d)
    a -= (a @ v) * v
    offset = frame @ a
    # rows on the line, near it, far from it, and -0.0 entries
    t = rng.uniform(-2.0, 2.0, (3000, 1))
    block = a + t * v + rng.normal(0.0, 1e-3, (3000, d)) * rng.random((3000, 1))
    block[::7] = -0.0
    block[1::11] = a + t[1::11] * v
    worst = np.abs(block @ frame.T - offset).max(axis=1)
    for limit in [0.0, 1e-4, 1e-3, 0.5, *np.sort(worst)[[10, 1500, 2999]]]:
        for lim in (limit, np.nextafter(limit, -np.inf), np.nextafter(limit, np.inf)):
            got = verifier._near_rows(block, frame, offset, lim)
            expect(same_bits(got, row_max_rows(block, frame, offset, lim)),
                   f"rows kept at limit {lim!r}")


@pytest.mark.parametrize("d", [2, 3, 4])
def test_witnesses_match_a_full_scan(d):
    rng = np.random.default_rng(20 + d)
    dirs = rng.standard_normal((6, d))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    trans = rng.uniform(-0.5, 0.5, (6, d))
    trans -= np.einsum("ij,ij->i", trans, dirs)[:, None] * dirs
    family = furst.LineFamily(dirs, trans, 1e-9)
    hits = trans + rng.uniform(-0.5, 0.5, (6, 1)) * dirs
    noise = rng.uniform(-1.0, 1.0, (400, d))
    cloud = furst.PointCloud(np.vstack([noise, hits, noise[:50], hits]), 1e-9)
    for block_rows in (7, boxcount.COUNT_BLOCK_ROWS):
        with mock.patch.object(verifier, "COUNT_BLOCK_ROWS", block_rows):
            for idx in range(len(family)):
                got = verifier._witness_on_line(family, idx, cloud, 1e-9)
                want = line_reference.witness_on_line(family, idx, cloud, 1e-9)
                expect(same_bits(got, want), f"witness of line {idx}")
