"""Packed mesh codes decode to the plain form's buckets and cells.

`grassmann.mesh_assign` packs each block's (bucket, cell) rows into int64
codes in the loop that computes them (`_mesh_layout` fixes the digits
before the pass, `boxcount._pack_cells` packs them) and hands them to its
sink without making an (n,) array.  The sink here (`mesh_sink.Codes`)
keeps each line's code; decoded with `boxcount._unpack` they must give
`line_reference.mesh_assign`'s buckets and cells, bit for bit.  The cell
bound H of the layout is tried at its worst case, translations as long as
the family's radius along each bucket centre's normal at scales where
radius / (4 delta) lies just below an integer, and the codes on both sides
of the float pack guard.  Where the layout's range would reach 2^62 the
second digit is instead the line's dense rank among the reference
(bucket, cells) rows, and a property over families with lines near and
far from the origin compares counts and pigeonhole certificates with the
references on both sides of that edge.  No `assert` here: every check
raises through `expect` (the certificates through pytest's rewritten
asserts), so these tests check the same under python -O, and they also
run under the oldest numpy that pyproject allows.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import furst
from furst import boxcount, grassmann, util, verifier

import line_reference
from mesh_sink import Codes, dense_ranks, expect, streamed
from test_occupancy import planar_family, reference_mesh_count
from test_pigeonhole_identity import assert_same_certificate, family_and_cloud
from test_snap_pack_identity import signed_zero_family


def check_decoded(family, delta, block_rows=grassmann.COUNT_BLOCK_ROWS):
    expected_buckets, expected_cells = line_reference.mesh_assign(family, delta)
    with mock.patch.object(grassmann, "COUNT_BLOCK_ROWS", block_rows):
        buckets, cells, layout = streamed(family, delta)
    expect(np.array_equal(buckets, expected_buckets), f"buckets at delta={delta}")
    expect(np.array_equal(cells, expected_cells), f"cells at delta={delta}")
    return layout


def check_ranked(family, delta, block_rows=grassmann.COUNT_BLOCK_ROWS):
    """Past 2^62 the codes decode to the reference buckets and each line's
    dense rank among the reference (bucket, cells) rows."""
    expected_buckets, expected_cells = line_reference.mesh_assign(family, delta)
    with mock.patch.object(grassmann, "COUNT_BLOCK_ROWS", block_rows):
        buckets, ranks, (lo, spans) = streamed(family, delta)
    expect(int(lo[1]) == 0 and int(spans[1]) == len(family), "a rank digit in [0, n)")
    expect(np.array_equal(buckets, expected_buckets), f"buckets at delta={delta}")
    expect(np.array_equal(ranks[:, 0], dense_ranks(expected_buckets, expected_cells)),
           f"dense ranks at delta={delta}")


def spatial_family(rng, n, d, scale=1.0):
    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    dirs = dirs[rng.integers(0, n, n)]  # repeated directions share buckets
    raw = rng.uniform(-scale, scale, (n, d))
    raw[rng.random((n, d)) < 0.1] = -0.0
    trans = raw - np.einsum("ij,ij->i", raw, dirs)[:, None] * dirs
    return furst.LineFamily(dirs, trans, 1e-300)


# ------------------------------------------------------------- decoded codes


@pytest.mark.parametrize("delta", [1.0, 0.5, 2.0**-4, 0.1, 2.0**-11])
@pytest.mark.parametrize("block_rows", [1, 7, grassmann.COUNT_BLOCK_ROWS])
def test_planar_codes_decode_to_the_reference(delta, block_rows):
    rng = np.random.default_rng(4)
    more = planar_family(rng.uniform(0.0, np.pi, 60), rng.uniform(-2.0, 2.0, 60))
    for family in (signed_zero_family(), more):
        check_decoded(family, delta, block_rows)


@pytest.mark.parametrize("delta", [1.0, 0.5, 0.25, 0.125])
@pytest.mark.parametrize("block_rows", [1, 7, grassmann.COUNT_BLOCK_ROWS])
def test_spatial_codes_decode_to_the_reference(delta, block_rows):
    rng = np.random.default_rng(5)
    zeros = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]] * 2)
    signed = furst.LineFamily(
        zeros, np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, 0.5], [0.0, -0.0, -0.25]] * 2), 1e-300)
    for family in (signed, spatial_family(rng, 80, 3)):
        check_decoded(family, delta, block_rows)


def test_codes_order_lines_as_bucket_and_cell_tuples():
    rng = np.random.default_rng(6)
    for family, delta in ((planar_family(rng.uniform(0.0, np.pi, 500),
                                         rng.uniform(-1.0, 1.0, 500)), 2.0**-6),
                          (spatial_family(rng, 300, 3), 0.25)):
        table = grassmann.mesh_assign(family, delta, Codes)
        buckets, cells = line_reference.mesh_assign(family, delta)
        keys = [cells[:, c] for c in range(cells.shape[1] - 1, -1, -1)] + [buckets]
        by_tuple = np.lexsort(keys)
        expect(np.array_equal(np.argsort(table.codes, kind="stable"), by_tuple),
               "ascending codes, ties in line order, give the lexicographic order")


# ------------------------------------------------------------- the cell bound


def radius_family_planar(delta, k, gap):
    """Lines along every bucket centre, translated by +-(k - gap) * 4 delta
    along the centre's normal: the family's radius over 4 delta is k - gap."""
    cover = furst.direction_cover(2, delta)
    phi = (np.arange(len(cover)) + 0.5) * cover.angle_width
    phi = phi[phi < np.pi]  # the last centre can pass pi
    reach = (k - gap) * 4.0 * delta
    return planar_family(np.tile(phi, 2), np.repeat([reach, -reach], len(phi)))


def radius_family_spatial(delta, k, gap):
    """Lines along every d = 3 bucket centre, translated by +-(k - gap) * 4
    delta along each row of the centre's frame."""
    cover = furst.direction_cover(3, delta)
    reach = (k - gap) * 4.0 * delta
    dirs, trans = [], []
    for b, centre in enumerate(cover.centers):
        for row in cover.frame(b):
            for sign in (1.0, -1.0):
                dirs.append(centre)
                trans.append(sign * reach * row)
    return furst.LineFamily(np.array(dirs), np.array(trans), 1e-300)


# a gap below util.SNAP snaps the quotients k - gap up to k, the bound's H
BOUND_CASES = [(delta, k) for delta in (0.5, 0.1, 2.0**-7) for k in (1, 2, 7, 40)]


@pytest.mark.parametrize("delta, k", BOUND_CASES)
def test_cells_reach_the_bound_planar(delta, k):
    gap = 0.5 * util.SNAP
    family = radius_family_planar(delta, k, gap)
    expect(family.translation_radius / (4.0 * delta) < k, "radius just below k cells")
    lo, spans = check_decoded(family, delta)
    _, cells = line_reference.mesh_assign(family, delta)
    half = -int(lo[1])
    expect(half == k and int(spans[1]) == 2 * k + 1, f"H = {half}, not {k}")
    expect(cells.max() == half and cells.min() == -half, "cells at +-H")


@pytest.mark.parametrize("delta, k", [(delta, k) for delta in (0.5, 0.25) for k in (1, 2, 7, 40)])
def test_cells_reach_the_bound_spatial(delta, k):
    gap = 0.5 * util.SNAP
    family = radius_family_spatial(delta, k, gap)
    expect(family.translation_radius / (4.0 * delta) < k, "radius just below k cells")
    lo, spans = check_decoded(family, delta)
    _, cells = line_reference.mesh_assign(family, delta)
    half = -int(lo[1])
    expect(half == k and np.all(spans[1:] == 2 * k + 1), f"H = {half}, not {k}")
    expect(cells.max() == half and cells.min() == -half, "cells at +-H")


# ------------------------------------------------------------- the pack guard


def axis_family(rng, n, scale):
    """Lines along (1, 0), (0, 1) and the two diagonals, each translated
    along its exact normal, so orthogonal at any offset."""
    a = 1.0 / np.sqrt(2.0)
    kinds = rng.integers(0, 4, n)
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [a, a], [a, -a]])[kinds]
    normals = np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 1.0], [1.0, 1.0]])[kinds]
    offsets = rng.uniform(-scale, scale, n)
    offsets[::9] = -0.0
    return furst.LineFamily(dirs, normals * offsets[:, None], 1e-300)


@pytest.mark.parametrize("far", [False, True])
def test_codes_on_both_sides_of_the_float_pack_guard(far):
    # at 2^-10 a radius of 4e10 gives about 2^10 buckets times 2^44 cells:
    # past 2^53, so the rows are packed in int64, and below 2^62
    rng = np.random.default_rng(7)
    family = axis_family(rng, 400, 3e10 if far else 2.0)
    for delta in (2.0**-10, 2.0**-3):
        lo, spans = check_decoded(family, delta, 7)
        exact = boxcount._float_weights(lo, spans) is not None
        expect(exact != (far and delta == 2.0**-10), f"float pack at {delta}, far={far}")
        expect(furst.mesh_cover_count(family, delta) == reference_mesh_count(family, delta),
               f"count at {delta}")


def test_spatial_codes_past_the_float_pack_guard():
    family = spatial_family(np.random.default_rng(8), 120, 3, scale=1e6)
    lo, spans = check_decoded(family, 2.0**-4, 7)
    expect(boxcount._float_weights(lo, spans) is None, "int64 pack")
    expect(furst.mesh_cover_count(family, 2.0**-4) == reference_mesh_count(family, 2.0**-4),
           "count")


# ------------------------------------------------------------- past 2^62


def test_exact_ranges_decide_past_the_bound():
    # lines along (0, 1), bucket 6 of 13 at 1/4, 1e18 from the origin: the
    # bound's range passes 2^62, so each line's code holds the dense rank of
    # its (bucket, cell) row
    delta = 0.25
    up = [[0.0, 1.0]] * 3
    family = furst.LineFamily(up, [[1e18, 0.0], [1e18, 0.0], [1e18 + 4096.0, 0.0]], 1e-300)
    cover = furst.direction_cover(2, delta)
    expect(grassmann._mesh_layout(family, cover, None, 4.0 * delta) is None, "no layout")
    expect(furst.mesh_cover_count(family, delta) == reference_mesh_count(family, delta) == 2,
           "count from the ranks")
    check_ranked(family, delta)
    # the lines' own cell range passes 2^62 too, and the ranks still count it
    spread = furst.LineFamily(up[:2], [[1e18, 0.0], [-1e18, 0.0]], 1e-300)
    expect(furst.mesh_cover_count(spread, delta) == reference_mesh_count(spread, delta) == 2,
           "count past the exact ranges")
    check_ranked(spread, delta)
    # beside them, lines along (1, 0) whose cells snap to -0.0 and 0.0 (no
    # snap-up in the block keeps the sign) share one rank
    mixed = furst.LineFamily([[1.0, 0.0]] * 4 + up[:2],
                             [[0.0, 0.0], [0.0, -0.0], [-0.0, 0.5], [0.0, -0.0]]
                             + spread.translations.tolist(), 1e-300)
    expect(furst.mesh_cover_count(mixed, delta) == reference_mesh_count(mixed, delta) == 3,
           "count with signed zero cells")
    check_ranked(mixed, delta)


# lines whose translations are orthogonal to their directions exactly, at
# any offset: each direction with the rows its translation combines.  The
# planar ones lie at angles pi/2 and 3 pi/4, above the near lines' buckets,
# so a far bucket is best only when it keeps more lines
EXACT_LINES = {
    2: (np.array([[0.0, 1.0], [2**-0.5, -(2**-0.5)]]),
        np.array([[[1.0, 0.0]], [[1.0, 1.0]]])),
    3: (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [2**-0.5, 2**-0.5, 0.0]]),
        np.array([[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                  [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])),
}


@st.composite
def near_and_far(draw):
    """(family, cloud, delta): lines near the origin, each with a cloud
    point, in d = 2 or 3, and up to four lines k * 4 delta * 2^e out along
    exact normals (|k| <= 16, so under require_indexable's 2^61 cells).  At
    e = 56 the layout's range passes 2^62 in most d = 3 draws, and in the
    plane where (last bucket + 1) * max |k| reaches about 32; at e = 20 or
    40 it holds."""
    d = draw(st.sampled_from([2, 3]))
    delta = draw(st.sampled_from([0.5, 0.25, 0.125, 2.0**-4] if d == 2 else [0.5, 0.25]))
    n = draw(st.integers(1, 20))
    if d == 2:
        base = draw(st.lists(st.floats(0.0, 1.4), min_size=1, max_size=4))
        angles = np.array(draw(st.lists(st.sampled_from(base), min_size=n, max_size=n)))
        offsets = np.array(draw(st.lists(
            st.integers(-12, 12).map(lambda k: k * 0.05) | st.floats(-0.6, 0.6),
            min_size=n, max_size=n)))
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        trans = np.column_stack([-np.sin(angles), np.cos(angles)]) * offsets[:, None]
    else:
        base = draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
                             .filter(lambda v: np.linalg.norm(v) > 0.1), min_size=1, max_size=3))
        dirs = np.array(draw(st.lists(st.sampled_from(base), min_size=n, max_size=n)))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        raw = np.array(draw(st.lists(
            st.lists(st.integers(-4, 4).map(lambda k: k * 0.15) | st.floats(-0.5, 0.5),
                     min_size=3, max_size=3), min_size=n, max_size=n)))
        trans = raw - np.einsum("ij,ij->i", raw, dirs)[:, None] * dirs
    along = np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n)))
    far = draw(st.integers(0, 4))
    unit = 4.0 * delta * 2.0 ** draw(st.sampled_from([20, 40, 56]))
    far_dirs, normals = EXACT_LINES[d]
    kinds = np.array(draw(st.lists(st.integers(0, len(far_dirs) - 1), min_size=far, max_size=far)),
                     dtype=int)
    ks = np.array(draw(st.lists(st.lists(st.integers(-16, 16), min_size=d - 1, max_size=d - 1),
                                min_size=far, max_size=far)), dtype=float).reshape(far, d - 1)
    far_trans = np.einsum("ij,ijk->ik", ks * unit, normals[kinds])
    family, cloud = family_and_cloud(np.vstack([dirs, far_dirs[kinds]]),
                                     np.vstack([trans, far_trans]),
                                     np.concatenate([along, np.zeros(far)]), slice(0, n))
    return family, cloud, delta


@settings(max_examples=80, deadline=None)
@given(near_and_far())
def test_counts_and_certificates_on_both_sides_of_2_62(case):
    family, cloud, delta = case
    for block_rows in (grassmann.COUNT_BLOCK_ROWS, 7):
        with mock.patch.object(grassmann, "COUNT_BLOCK_ROWS", block_rows), \
                mock.patch.object(verifier, "COUNT_BLOCK_ROWS", block_rows):
            expect(furst.mesh_cover_count(family, delta) == reference_mesh_count(family, delta),
                   f"count at delta={delta}")
            assert_same_certificate(family, cloud, delta)
        _, _, (lo, _) = streamed(family, delta)
        if int(lo[1]) == 0:
            check_ranked(family, delta, block_rows)
        else:
            check_decoded(family, delta, block_rows)
