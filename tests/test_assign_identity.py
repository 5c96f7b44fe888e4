"""d >= 3 line covers done once per distinct direction equal their plain forms.

`DirectionCover.assign` assigns each distinct row once and scatters its
bucket back to the copies; `line_reference.assign` fills one full |cos|
matrix over every row.  `_banded_net` decides each block of candidates in
array rounds (`_greedy_in_rounds`) unless a value lies within NET_MARGIN
of the threshold; `plain_net` below runs `_conflicts` on every candidate,
and `in_order_banded_net` decides the banded candidates one at a time, as
the package did before the rounds.  `mesh_assign` groups each bucket's
lines by one stable sort; `masked_cells` selects them with one mask per
bucket.  Buckets, centres and cells must be identical.  The references
here use no `assert`, so they behave the same under python -O, and these
tests also run under the oldest numpy that pyproject allows.
"""

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import furst
from furst import grassmann

import line_reference

THIRDS = furst.CantorSpec(3, (0, 2))
NET_SCALES = [2.0**-k for k in range(1, 6)] + [0.3, 0.125, 0.07, 0.045]


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def unit_rows(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1)[:, None]


def near_ties(centers, rows):
    """Normalised midpoint of each given centre and its nearest other centre."""
    cos = centers[rows] @ centers.T
    cos[np.arange(len(rows)), rows] = 0.0
    nearest = np.argmax(np.abs(cos), axis=1)
    sign = np.sign(cos[np.arange(len(rows)), nearest])
    mid = centers[rows] + sign[:, None] * centers[nearest]
    return mid / np.linalg.norm(mid, axis=1)[:, None]


def block_count(delta):
    return -(-grassmann._net_candidate_count(3, delta) // grassmann.NET_BLOCK_ROWS)


# ------------------------------------------------------------- references


@lru_cache(maxsize=None)
def plain_net(delta):
    """The d = 3 net with `_conflicts` against every kept centre, in order."""
    count = grassmann._net_candidate_count(3, delta)
    cands = grassmann._candidate_directions(3, count)
    limit = grassmann._largest_separated_cos(0.6 * delta)
    net = np.empty((count, 3))
    kept = 0
    for c in cands:
        if not grassmann._conflicts(net, kept, c, limit):
            net[kept] = c
            kept += 1
    return net[:kept].copy()


def in_order_banded_net(delta):
    """The banded net deciding each candidate of a block in turn, raising
    the block's largest |cos| by each kept candidate's row of |cos|."""
    count = grassmann._net_candidate_count(3, delta)
    cands = grassmann._candidate_directions(3, count)
    heights = grassmann._fibonacci_heights(count)
    limit = grassmann._largest_separated_cos(0.6 * delta)
    radius = grassmann._band_radius(limit)
    high, low = limit + grassmann.NET_MARGIN, limit - grassmann.NET_MARGIN
    net = np.empty((count, 3))
    depths = np.empty(count)
    kept = 0
    for start in range(0, count, grassmann.NET_BLOCK_ROWS):
        block = cands[start : start + grassmann.NET_BLOCK_ROWS]
        z = heights[start : start + grassmann.NET_BLOCK_ROWS]
        seen = depths[:kept]
        near = (np.searchsorted(seen, -z[0] - radius), kept)
        mirror = (
            np.searchsorted(seen, z[-1] - radius),
            np.searchsorted(seen, z[0] + radius, side="right"),
        )
        top = np.zeros(len(block))
        for lo, hi in (near, mirror):
            if hi > lo:  # the bands may overlap: a centre taken twice is harmless
                np.maximum(top, np.abs(block @ net[lo:hi].T).max(axis=1), out=top)
        within = np.abs(block @ block.T)
        for j in np.flatnonzero(top <= high):
            t = top[j]
            if t > high or (t >= low and grassmann._conflicts(net, kept, block[j], limit)):
                continue
            net[kept] = block[j]
            depths[kept] = -z[j]
            kept += 1
            np.maximum(top, within[j], out=top)
    return net[:kept].copy()


def in_order_greedy(conflict):
    """Indices kept by visiting vertices in order, each kept unless an
    earlier kept vertex conflicts with it (conflict[i, j], i < j)."""
    kept = []
    for j in range(conflict.shape[0]):
        if not any(conflict[i, j] for i in kept):
            kept.append(j)
    return np.array(kept, dtype=np.int64)


def masked_cells(family, buckets, cover, delta):
    """Cells of every line, projecting each bucket's lines picked by a mask."""
    cells = np.zeros((len(family), family.dim - 1), dtype=np.int64)
    for b in np.unique(buckets):
        sel = buckets == b
        coords = family.translations[sel] @ cover.frame(int(b)).T
        cells[sel] = line_reference.snap_floor(coords, 4.0 * delta)
    return cells


# ------------------------------------------------------------- buckets


def check_buckets(centers, vecs, distinct):
    """Buckets of vecs equal the full-matrix reference, and the nearest
    centres are searched for `distinct` rows."""
    cover = grassmann.DirectionCover(centers.shape[1], 0.5, centers)
    nearest = grassmann.DirectionCover._nearest_centers
    with mock.patch.object(
        grassmann.DirectionCover, "_nearest_centers", autospec=True, side_effect=nearest
    ) as search:
        got = cover.assign(vecs)
    expected = line_reference.assign(vecs, centers)
    assert got.dtype == expected.dtype == np.int64
    assert np.array_equal(got, expected)
    assert search.call_count == 1
    assert search.call_args.args[1].shape == (distinct, centers.shape[1])


@pytest.fixture(scope="module")
def centers():
    return furst.direction_cover(3, 0.07).centers


@pytest.mark.parametrize("block", [3, 7, grassmann.ASSIGN_BLOCK_ROWS])
def test_repeated_rows_across_block_edges(centers, block):
    rng = np.random.default_rng(block)
    rows = unit_rows(rng, 50, 3)
    vecs = rows[rng.permutation(np.tile(np.arange(50), 5))[: 3 * 64 + 5]]
    distinct = len(np.unique(vecs, axis=0))
    with mock.patch.object(grassmann, "ASSIGN_BLOCK_ROWS", block):
        check_buckets(centers, vecs, distinct)
        # every copy of a row next to each other, across block edges too
        check_buckets(centers, np.repeat(rows, block + 1, axis=0), 50)


def test_signed_zeros_are_told_apart(centers):
    rows = np.array([
        [0.0, 1.0, 0.0], [-0.0, 1.0, 0.0], [0.6, 0.0, 0.8], [0.6, -0.0, 0.8],
        [0.0, 0.6, 0.8], [-0.0, 0.6, -0.8], [0.0, 0.6, -0.8],
    ])
    vecs = rows[[0, 1, 2, 3, 4, 5, 6, 1, 0, 3]]
    check_buckets(centers, vecs, 7)
    got = grassmann.DirectionCover(3, 0.5, centers).assign(vecs)
    assert got[0] == got[1] and got[2] == got[3] and got[5] == got[6]


@pytest.mark.parametrize("block", [2, 5, grassmann.ASSIGN_BLOCK_ROWS])
def test_repeated_near_ties(centers, block):
    rng = np.random.default_rng(block)
    ties = near_ties(centers, np.sort(rng.choice(len(centers), 300, replace=False)))
    vecs = np.concatenate([ties, ties[::-1], ties[::3]])
    with mock.patch.object(grassmann, "ASSIGN_BLOCK_ROWS", block):
        # two centres that are each other's nearest give one midpoint twice
        check_buckets(centers, vecs, len(np.unique(ties, axis=0)))


def test_one_row_and_one_vector(centers):
    row = unit_rows(np.random.default_rng(1), 1, 3)
    check_buckets(centers, row, 1)
    check_buckets(centers, row[0], 1)
    check_buckets(centers, np.repeat(row, 200, axis=0), 1)


@pytest.mark.parametrize("d, delta", [(3, 0.07), (4, 0.25)])
def test_all_distinct_rows(d, delta):
    centers = furst.direction_cover(d, delta).centers
    check_buckets(centers, unit_rows(np.random.default_rng(d), 1000, d), 1000)


def test_product_family_assigns_each_direction_once():
    # the d3 benchmark's lines: 4,096 lines over 64 directions
    spec = furst.BoxSharpSpec(d=3, cantor=THIRDS, t=2.5, M=64, N=64, depth=5, seed=1)
    family = furst.build_lines(spec)
    cover = furst.direction_cover(3, 2.0**-3)
    check_buckets(cover.centers, family.directions, 64)


# ------------------------------------------------------------- net centres


@pytest.mark.parametrize("delta", NET_SCALES)
def test_banded_net_matches_plain_loop(delta):
    assert same_bits(grassmann._greedy_sphere_net(3, delta), plain_net(delta))


@pytest.mark.parametrize("delta", [2.0**-5, 2.0**-6])
def test_banded_net_matches_in_order_banded_loop(delta):
    # the plain loop takes about 8 s at 2^-6; at 2^-5 both references agree
    got = grassmann._greedy_sphere_net(3, delta)
    assert same_bits(got, in_order_banded_net(delta))
    if delta == 2.0**-5:
        assert same_bits(got, plain_net(delta))


@pytest.mark.parametrize("delta", [2.0**-k for k in range(1, 5)] + [0.3, 0.125, 0.07])
def test_every_block_falling_back_keeps_the_centres(delta):
    # a margin of 1 puts a value of every block inside it
    fallback = grassmann._greedy_in_order
    with mock.patch.object(grassmann, "NET_MARGIN", 1.0), mock.patch.object(
        grassmann, "_greedy_in_order", side_effect=fallback
    ) as slow, mock.patch.object(grassmann, "_greedy_in_rounds") as rounds:
        centers = grassmann._greedy_sphere_net(3, delta)
    assert slow.call_count == block_count(delta)
    rounds.assert_not_called()
    assert same_bits(centers, plain_net(delta))


@pytest.mark.parametrize("delta", [2.0**-3, 2.0**-4, 2.0**-5])
def test_some_blocks_falling_back_keep_the_centres(delta):
    # a margin of 1e-5 sends some blocks, not all, to the in-order loop (at
    # 2^-6 its plain tests take about 8 s)
    fallback = grassmann._greedy_in_order
    with mock.patch.object(grassmann, "NET_MARGIN", 1e-5), mock.patch.object(
        grassmann, "_greedy_in_order", side_effect=fallback
    ) as slow:
        centers = grassmann._greedy_sphere_net(3, delta)
        expected = in_order_banded_net(delta)
    assert 0 < slow.call_count < block_count(delta)
    assert same_bits(centers, expected)


def test_no_block_of_the_tested_scales_falls_back():
    with mock.patch.object(grassmann, "_greedy_in_order") as slow:
        for delta in NET_SCALES + [2.0**-6]:
            grassmann._greedy_sphere_net(3, delta)
    slow.assert_not_called()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_rounds_keep_the_in_order_greedy_set(m, density, seed):
    rng = np.random.default_rng(seed)
    conflict = np.triu(rng.random((m, m)) < density, 1)
    assert np.array_equal(grassmann._greedy_in_rounds(conflict), in_order_greedy(conflict))


# ------------------------------------------------------------- grouped projection


def check_cells(family, delta):
    buckets, cells, cover = grassmann.mesh_assign(family, delta)
    assert np.array_equal(buckets, cover.assign(family.directions))
    assert cells.dtype == np.int64
    assert np.array_equal(cells, masked_cells(family, buckets, cover, delta))


@pytest.mark.parametrize("delta", [2.0**-k for k in range(1, 6)])
def test_grouped_cells_of_a_product_family(delta):
    spec = furst.BoxSharpSpec(d=3, cantor=THIRDS, t=2.5, M=64, N=64, depth=5, seed=1)
    check_cells(furst.build_lines(spec), delta)


@pytest.mark.parametrize("d, delta", [(3, 0.07), (3, 0.5), (4, 0.25)])
def test_grouped_cells_of_a_random_family(d, delta):
    rng = np.random.default_rng(d)
    dirs = unit_rows(rng, 60, d)[rng.integers(0, 60, 500)]
    raw = rng.uniform(-2.0, 2.0, size=(500, d))
    trans = raw - np.einsum("ij,ij->i", raw, dirs)[:, None] * dirs
    check_cells(furst.LineFamily(dirs, trans, 1e-9), delta)
