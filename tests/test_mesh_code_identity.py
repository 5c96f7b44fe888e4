"""Packed mesh codes decode to the plain form's buckets and cells.

With a sink, `grassmann.mesh_assign` packs each block's (bucket, cell) rows
into int64 codes in the loop that computes them (`_mesh_layout` fixes the
digits before the pass, `boxcount._pack_cells` packs them) and hands them
to the sink without making an (n,) array.  The sink here keeps each line's
code; decoded with `boxcount._unpack` they must give
`line_reference.mesh_assign`'s buckets and cells, bit for bit.  The cell
bound H of the layout is tried at its worst case, translations as long as
the family's radius along each bucket centre's normal at scales where
radius / (4 delta) lies just below an integer, and the codes on both sides
of the float pack guard.  No `assert` here: every check raises through
`expect`, so these tests check the same under python -O, and they also run
under the oldest numpy that pyproject allows.
"""

from unittest import mock

import numpy as np
import pytest

import furst
from furst import boxcount, grassmann, util
from furst.errors import InvalidScale

import line_reference
from test_occupancy import planar_family, reference_mesh_count
from test_snap_pack_identity import signed_zero_family


def expect(ok, what):
    if not ok:
        raise AssertionError(what)


class Codes:
    """A `mesh_assign` sink keeping every line's code and how often it came."""

    def __init__(self, n, lo, spans):
        self.lo, self.spans = lo, spans
        self.codes = np.full(n, -1, dtype=np.int64)
        self.times = np.zeros(n, dtype=np.int64)

    def add(self, codes, lines):
        expect(codes.dtype == np.int64, f"codes of dtype {codes.dtype}")
        self.codes[lines] = codes
        self.times[lines] += 1


def decoded(family, delta):
    """(buckets, cells, layout) of the codes `mesh_assign` streams to a sink."""
    table, arrays = grassmann.mesh_assign(family, delta, Codes)
    expect(arrays is None and table is not None, "codes streamed to the sink")
    expect(np.all(table.times == 1), "every line's code came exactly once")
    span = int(np.prod(table.spans))
    expect(np.all((table.codes >= 0) & (table.codes < span)), "codes inside the span")
    rows = boxcount._unpack(table.codes, table.lo, table.spans)
    return rows[:, 0], rows[:, 1:], (table.lo, table.spans)


def check_decoded(family, delta, block_rows=grassmann.COUNT_BLOCK_ROWS):
    expected_buckets, expected_cells = line_reference.mesh_assign(family, delta)
    with mock.patch.object(grassmann, "COUNT_BLOCK_ROWS", block_rows):
        buckets, cells, layout = decoded(family, delta)
    expect(np.array_equal(buckets, expected_buckets), f"buckets at delta={delta}")
    expect(np.array_equal(cells, expected_cells), f"cells at delta={delta}")
    return layout


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
        table, _ = grassmann.mesh_assign(family, delta, Codes)
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
    # bound's range passes 2^62, so the lines' own cell range decides, as
    # before the layout
    delta = 0.25
    up = [[0.0, 1.0]] * 3
    family = furst.LineFamily(up, [[1e18, 0.0], [1e18, 0.0], [1e18 + 4096.0, 0.0]], 1e-300)
    cover = furst.direction_cover(2, delta)
    expect(grassmann._mesh_layout(family, cover, None, 4.0 * delta) is None, "no layout")
    expect(furst.mesh_cover_count(family, delta) == reference_mesh_count(family, delta) == 2,
           "count from the exact ranges")
    spread = furst.LineFamily(up[:2], [[1e18, 0.0], [-1e18, 0.0]], 1e-300)
    with pytest.raises(InvalidScale, match="mesh too fine to index"):
        reference_mesh_count(spread, delta)
    with pytest.raises(InvalidScale, match="mesh too fine to index"):
        furst.mesh_cover_count(spread, delta)
