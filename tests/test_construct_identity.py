"""The box builders equal their plain forms, and the ownership path checks as __init__ does.

`build_points` and `build_lines` walk the (m, n) pairs in closed form, a
block at a time, and write their outputs in place; the clouds and
families they return keep those arrays without a copy.  `construct_reference`
holds the forms that sort the pairs and build every array at once.  Outputs
must agree in bytes, shape, dtype and resolution floor, and the no-copy
constructors must reject what `__init__` rejects, with the same error.
The builders' traced peak is their outputs and a few blocks.  These tests
also run under python -O.
"""

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import furst
from furst import boxcount, construct_box, grassmann
from furst.errors import InvalidParameter, ResourceCap

import construct_reference

THIRDS = furst.CantorSpec(3, (0, 2))

SPECS = {
    "d2": dict(d=2, t=1.5, M=6, N=6, depth=3),
    "d2-collapsed": dict(d=2, t=0.8, M=6, N=8, depth=2),
    "d2-dense": dict(d=2, t=1.9, M=5, N=40, depth=1, dir_density=12),
    "d2-dense-collapsed": dict(d=2, t=1.0, M=3, N=30, depth=4, dir_density=12),
    "d2-M1": dict(d=2, t=1.5, M=1, N=5, depth=3),
    "d2-N1": dict(d=2, t=1.5, M=7, N=1, depth=2),
    "d2-single": dict(d=2, t=1.2, M=1, N=1, depth=1),
    # 15 pairs: with 7-pair blocks the last block holds one pair
    "d2-edges": dict(d=2, t=1.5, M=3, N=5, depth=2),
    "d2-s": dict(d=2, t=1.9, M=9, N=11, depth=2,
                 cantor=furst.spec_for_dimension(0.3)),
    "d3": dict(d=3, t=2.5, M=6, N=9, depth=3),
    "d3-two-parts": dict(d=3, t=3.5, M=10, N=6, depth=2),
    "d3-collapsed": dict(d=3, t=1.5, M=4, N=9, depth=3),
    "d4": dict(d=4, t=4.5, M=5, N=6, depth=2),
    "d4-collapsed": dict(d=4, t=2.0, M=5, N=6, depth=2),
}


def make_spec(params):
    return furst.BoxSharpSpec(**{"cantor": THIRDS, "seed": 7, **params})


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ------------------------------------------------------------- pair order


BLOCK_SIZES = (1, 7, boxcount.COUNT_BLOCK_ROWS)


def assert_same_pair_order(M, N, block):
    """The generator's blocks are consecutive `block`-pair slices of the lexsort order."""
    blocks = list(construct_box._pair_blocks(M, N, block))
    K = M * N
    assert [rows for rows, _, _ in blocks] == [
        slice(lo, min(lo + block, K)) for lo in range(0, K, block)
    ]
    want_m, want_n = construct_reference.pair_order(M, N)
    assert_same_array(np.concatenate([m for _, m, _ in blocks]), want_m)
    assert_same_array(np.concatenate([n for _, _, n in blocks]), want_n)


@pytest.mark.parametrize("M,N", [(2000, 2048), (8, 8), (64, 64), (1, 5), (7, 1), (3, 11)])
def test_pair_order_matches_lexsort(M, N):
    # small blocks cost a Python step per few pairs: over 4 M pairs, only the default
    for block in BLOCK_SIZES if M * N <= 4096 else BLOCK_SIZES[-1:]:
        assert_same_pair_order(M, N, block)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), st.integers(1, 64),
       st.one_of(st.sampled_from(BLOCK_SIZES), st.integers(2, 5000)))
def test_pair_order_matches_lexsort_any_shape(M, N, block):
    assert_same_pair_order(M, N, block)


def test_pair_blocks_split_diagonals_and_end_short():
    # 15 pairs in 7-pair blocks: the first block ends inside diagonal
    # m + n = 5, the second inside m + n = 7, the last holds one pair
    blocks = [(rows, list(zip(m.tolist(), n.tolist())))
              for rows, m, n in construct_box._pair_blocks(3, 5, 7)]
    assert blocks == [
        (slice(0, 7), [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1), (1, 4)]),
        (slice(7, 14), [(2, 3), (3, 2), (1, 5), (2, 4), (3, 3), (2, 5), (3, 4)]),
        (slice(14, 15), [(3, 5)]),
    ]


# ------------------------------------------------------------- directions


def assert_same_directions(d, count, density):
    got = construct_box.make_directions(d, count, density)
    want = construct_reference.make_directions(d, count, density)
    assert_same_array(got.vectors, want.vectors)
    assert_same_array(got.base, want.base)
    assert not got.base.flags.writeable
    assert got.shells == want.shells


@pytest.mark.parametrize("d,count,density", [
    (2, 2048, 12), (2, 64, 0), (2, 8, 0), (2, 1, 0), (3, 64, 0), (4, 40, 2),
])
def test_make_directions_matches_scalar_builder(d, count, density):
    assert_same_directions(d, count, density)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3000), st.integers(0, 20))
def test_planar_make_directions_matches_scalar_builder(count, density):
    # the scalar builder allocates shell 1's 2^(density - 1) angles in full
    assert_same_directions(2, count, density)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 300), st.integers(0, 1))
def test_spatial_make_directions_matches_scalar_builder(count, density):
    assert_same_directions(3, count, density)


def test_planar_make_directions_builds_only_the_angles_taken():
    # shell 1 has 2^39 angles at density 40; three are taken
    dirs = construct_box.make_directions(2, 3, 40)
    assert dirs.shells == ((1, 2.0**-41, 3),)
    theta = 0.25 + np.arange(3) * 2.0**-41
    want = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    assert_same_array(dirs.vectors, want / np.linalg.norm(want, axis=1)[:, None])


# ------------------------------------------------------------- builders


def assert_same_construction(spec):
    cloud = furst.build_points(spec)
    want_cloud = construct_reference.build_points(spec)
    assert_same_array(cloud.points, want_cloud.points)
    assert cloud.resolution_floor == want_cloud.resolution_floor
    family = furst.build_lines(spec)
    want_family = construct_reference.build_lines(spec)
    assert_same_array(family.directions, want_family.directions)
    assert_same_array(family.translations, want_family.translations)
    assert family.resolution_floor == want_family.resolution_floor
    for array in (cloud.points, family.directions, family.translations):
        assert not array.flags.writeable


@pytest.mark.parametrize("name", sorted(SPECS))
def test_builders_match_reference(name):
    assert_same_construction(make_spec(SPECS[name]))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_builders_match_reference_across_block_edges(name):
    # 7-pair blocks: blocks with fewer and with more pairs than endpoints,
    # and a last block of one pair for "d2-edges"
    with mock.patch.object(construct_box, "COUNT_BLOCK_ROWS", 7):
        assert_same_construction(make_spec(SPECS[name]))


# a 1024 x 1024 spec: two int64 index arrays of its pairs would take 16 MiB
PEAK_SPEC = dict(d=2, t=1.5, M=1024, N=1024, depth=1)
# a few blocks' temporaries: 32 int64 vectors of COUNT_BLOCK_ROWS entries, 4 MiB
BLOCK_ALLOWANCE = 32 * boxcount.COUNT_BLOCK_ROWS * 8


@pytest.mark.parametrize("build, outputs", [
    (furst.build_points, lambda cloud: [cloud.points]),
    (furst.build_lines, lambda family: [family.directions, family.translations]),
], ids=["points", "lines"])
def test_builders_peak_at_their_outputs(build, outputs):
    # the traced peak is the outputs and a few blocks, no array of M * N pairs
    spec = make_spec(PEAK_SPEC)
    tracemalloc.start()
    try:
        result = build(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(array.nbytes for array in outputs(result))
    assert held == 2**25
    assert peak <= held + BLOCK_ALLOWANCE, (peak - held) / 2**20


def test_builders_keep_the_cap():
    spec = make_spec(dict(d=2, t=1.5, M=6, N=6, depth=3, max_points=100))
    with pytest.raises(ResourceCap, match="over the cap 100"):
        furst.build_points(spec)


# ------------------------------------------------------------- ownership


@pytest.fixture
def small_blocks():
    with mock.patch.object(boxcount, "COUNT_BLOCK_ROWS", 7), \
            mock.patch.object(grassmann, "COUNT_BLOCK_ROWS", 7):
        yield


def unit_rows(n, d, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def orthogonal_rows(dirs, seed=1):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(dirs.shape)
    return u - np.einsum("ij,ij->i", u, dirs)[:, None] * dirs


def assert_same_rejection(cls, arrays, message):
    """__init__ and _owning both raise InvalidParameter(message)."""
    pattern = f"^{re.escape(message)}$"
    with pytest.raises(InvalidParameter, match=pattern):
        cls(*arrays, 1.0)
    with pytest.raises(InvalidParameter, match=pattern):
        cls._owning(*[a.copy() for a in arrays], 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_owning_cloud_rejects_non_finite_past_first_block(small_blocks, bad):
    points = np.random.default_rng(0).uniform(-1, 1, (20, 2))
    points[10, 1] = bad
    assert_same_rejection(furst.PointCloud, [points], "points must be finite")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_owning_family_rejects_non_finite_past_first_block(small_blocks, bad):
    dirs = unit_rows(20, 3)
    trans = orthogonal_rows(dirs)
    bad_dirs = dirs.copy()
    bad_dirs[10, 2] = bad
    assert_same_rejection(furst.LineFamily, [bad_dirs, trans],
                          "directions must be finite unit vectors")
    bad_trans = trans.copy()
    bad_trans[10, 0] = bad
    assert_same_rejection(furst.LineFamily, [dirs, bad_trans],
                          "translations must be finite and orthogonal to directions")


def test_owning_family_rejects_non_unit_direction(small_blocks):
    dirs = unit_rows(20, 2)
    dirs[12] *= 1.0 + 1e-6
    assert_same_rejection(furst.LineFamily, [dirs, np.zeros_like(dirs)],
                          "directions must be finite unit vectors")


def test_owning_family_rejects_non_orthogonal_translation(small_blocks):
    dirs = unit_rows(20, 4)
    trans = orthogonal_rows(dirs)
    trans[15] += 1e-6 * dirs[15]
    assert_same_rejection(furst.LineFamily, [dirs, trans],
                          "translations must be finite and orthogonal to directions")


def test_owning_family_reports_directions_first(small_blocks):
    # a bad translation in the first block, a bad direction in the last:
    # the direction message wins, as in __init__
    dirs = unit_rows(20, 2)
    trans = orthogonal_rows(dirs)
    trans[0] += dirs[0]
    dirs[19] *= 2.0
    assert_same_rejection(furst.LineFamily, [dirs, trans],
                          "directions must be finite unit vectors")


def test_arrays_are_read_only_on_both_paths():
    points = np.random.default_rng(0).uniform(-1, 1, (5, 2))
    dirs = unit_rows(5, 2)
    trans = orthogonal_rows(dirs)
    clouds = [furst.PointCloud(points, 1.0), furst.PointCloud._owning(points.copy(), 1.0)]
    families = [furst.LineFamily(dirs, trans, 1.0),
                furst.LineFamily._owning(dirs.copy(), trans.copy(), 1.0)]
    arrays = [c.points for c in clouds]
    arrays += [a for f in families for a in (f.directions, f.translations)]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0.5


def test_public_constructors_copy():
    points = np.random.default_rng(0).uniform(-1, 1, (5, 2))
    dirs = unit_rows(5, 2)
    trans = orthogonal_rows(dirs)
    cloud = furst.PointCloud(points, 1.0)
    family = furst.LineFamily(dirs, trans, 1.0)
    kept = [cloud.points.copy(), family.directions.copy(), family.translations.copy()]
    for caller in (points, dirs, trans):
        assert caller.flags.writeable
        caller[:] = 7.0
    for array, before in zip((cloud.points, family.directions, family.translations), kept):
        assert array.tobytes() == before.tobytes()


def test_owning_keeps_the_array():
    points = np.random.default_rng(0).uniform(-1, 1, (5, 2))
    dirs = unit_rows(5, 2)
    trans = orthogonal_rows(dirs)
    assert furst.PointCloud._owning(points, 1.0).points is points
    family = furst.LineFamily._owning(dirs, trans, 1.0)
    assert family.directions is dirs and family.translations is trans


# ------------------------------------------------------------- unit norms


def norm_decision(row):
    """The unit-norm test __init__ made before the blocked check.

    Row-wise, as it was: the norm of a 1-D vector is a dot product, which
    can differ in the last bit from the row-wise norm from 8 entries on.
    """
    norms = np.linalg.norm(row[None, :], axis=1)
    return bool(np.abs(norms[0] - 1.0) <= 1e-9)


def owning_accepts(row):
    try:
        furst.LineFamily._owning(row[None, :].copy(), np.zeros((1, row.size)), 1.0)
    except InvalidParameter:
        return False
    return True


def near_limit_row(d, seed, target, ulps):
    """A row whose norm lies within a few ulps of target, moved by `ulps` ulps."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d)
    step = np.inf if ulps > 0 else -np.inf
    for _ in range(abs(ulps)):
        target = np.nextafter(target, step)
    return v / np.linalg.norm(v) * target


@settings(max_examples=400, deadline=None)
@given(st.sampled_from((2, 3, 4, 8)), st.integers(0, 2**32 - 1),
       st.sampled_from((1.0 - 1e-9, 1.0 + 1e-9)), st.integers(-6, 6))
def test_norm_check_matches_linalg_norm_near_the_limit(d, seed, target, ulps):
    row = near_limit_row(d, seed, target, ulps)
    assert owning_accepts(row) == norm_decision(row)


def test_norm_check_sweep_meets_both_decisions():
    decisions = []
    for d in (2, 3, 4, 8):
        for seed in range(8):
            for target in (1.0 - 1e-9, 1.0 + 1e-9):
                for ulps in range(-6, 7):
                    row = near_limit_row(d, seed, target, ulps)
                    decisions.append(owning_accepts(row))
                    assert decisions[-1] == norm_decision(row)
    assert any(decisions) and not all(decisions)
