"""Pigeonhole certificates and witness scans equal their plain forms.

`pigeonhole_extract` picks each occupied (bucket, cell)'s lowest line from
the packed codes `mesh_assign` streams to it and finds witnesses with a
prefiltered scan; `line_reference` holds the forms that sort each
bucket's cell rows and test every point exactly.  Certificates must agree
in bucket, lines, witnesses, bound and meta, and failures must raise the
same error with the same message.  These tests also run under python -O.
"""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import furst
from furst import boxcount, grassmann, verifier
from furst.errors import FurstError, InconsistentInput

import line_reference

DELTAS_2D = [0.5, 0.25, 0.125, 0.0625, 2.0**-5, 0.01]
DELTAS_3D = [0.5, 0.25]


def assert_same_certificate(family, cloud, delta, tol=None):
    try:
        expected = line_reference.pigeonhole_extract(family, cloud, delta, tol)
    except FurstError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            furst.pigeonhole_extract(family, cloud, delta, tol)
        return None
    got = furst.pigeonhole_extract(family, cloud, delta, tol)
    assert got.bucket == expected.bucket
    assert got.line_indices == expected.line_indices
    assert got.witnesses.shape == expected.witnesses.shape
    assert np.array_equal(got.witnesses, expected.witnesses)
    assert got.bound == expected.bound
    assert got.meta == expected.meta
    return got


def assert_same_in_both_branches(family, cloud, delta, tol=None):
    """The table branch where the codes are dense, then the sort branch,
    then small blocks."""
    assert_same_certificate(family, cloud, delta, tol)
    with mock.patch.object(verifier, "fits_table", lambda n, span: False):
        assert_same_certificate(family, cloud, delta, tol)
    with mock.patch.object(verifier, "COUNT_BLOCK_ROWS", 3), \
            mock.patch.object(grassmann, "COUNT_BLOCK_ROWS", 3):
        assert_same_certificate(family, cloud, delta, tol)


def family_and_cloud(dirs, trans, along, keep):
    """Lines (dirs, trans) and one point a + u v on each line kept."""
    family = furst.LineFamily(dirs, trans, 1e-9)
    points = trans + along[:, None] * dirs
    return family, furst.PointCloud(points[keep], 1e-9)


@st.composite
def planar_case(draw):
    """Few distinct angles (shared buckets, tied buckets), offsets on a
    coarse grid (shared cells), repeated lines, some points missing."""
    n = draw(st.integers(1, 40))
    base = draw(st.lists(st.floats(0.0, np.pi, exclude_max=True), min_size=1, max_size=4))
    angles = np.array(draw(st.lists(st.sampled_from(base), min_size=n, max_size=n)))
    offsets = np.array(draw(st.lists(
        st.integers(-12, 12).map(lambda k: k * 0.05) | st.floats(-0.6, 0.6),
        min_size=n, max_size=n)))
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    trans = np.column_stack([-np.sin(angles), np.cos(angles)]) * offsets[:, None]
    along = np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n)))
    keep = draw(st.just([True] * n) | st.lists(st.booleans(), min_size=n, max_size=n))
    return family_and_cloud(dirs, trans, along, np.array(keep)), draw(st.sampled_from(DELTAS_2D))


@settings(max_examples=150, deadline=None)
@given(planar_case())
def test_planar_certificates_match_reference(case):
    (family, cloud), delta = case
    assert_same_in_both_branches(family, cloud, delta)


@st.composite
def spatial_case(draw):
    n = draw(st.integers(1, 25))
    base = draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
                         .filter(lambda v: np.linalg.norm(v) > 0.1), min_size=1, max_size=3))
    dirs = np.array(draw(st.lists(st.sampled_from(base), min_size=n, max_size=n)))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    raw = np.array(draw(st.lists(
        st.lists(st.integers(-4, 4).map(lambda k: k * 0.15) | st.floats(-0.5, 0.5),
                 min_size=3, max_size=3), min_size=n, max_size=n)))
    trans = raw - np.einsum("ij,ij->i", raw, dirs)[:, None] * dirs
    along = np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n)))
    return family_and_cloud(dirs, trans, along, np.ones(n, bool)), draw(st.sampled_from(DELTAS_3D))


@settings(max_examples=60, deadline=None)
@given(spatial_case())
def test_spatial_certificates_match_reference(case):
    (family, cloud), delta = case
    assert_same_in_both_branches(family, cloud, delta)


def test_single_line():
    family, cloud = family_and_cloud(
        np.array([[0.6, 0.8]]), np.array([[-0.4, 0.3]]), np.array([0.1]), [0])
    cert = assert_same_certificate(family, cloud, 0.1)
    assert cert.bound == 1 and cert.line_indices == (0,)


def test_duplicated_cells_and_tied_buckets():
    # two buckets with three kept lines each: the lower bucket wins; line 4
    # shares line 1's cell and has a higher index, so it is never chosen
    angles = np.array([0.05, 0.05, 0.05, 1.5, 0.05, 1.5, 1.5])
    offsets = np.array([0.0, 0.3, -0.3, 0.0, 0.3 + 1e-3, 0.3, -0.3])
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    trans = np.column_stack([-np.sin(angles), np.cos(angles)]) * offsets[:, None]
    family, cloud = family_and_cloud(dirs, trans, np.zeros(7), slice(None))
    for delta in (0.0625, 0.05):
        cert = assert_same_certificate(family, cloud, delta)
        assert cert.bound == 3 and set(cert.line_indices) == {0, 1, 2}


@pytest.mark.parametrize("d", [2, 3])
def test_code_range_beyond_2_62_still_extracts(d):
    # the lines of a second bucket sit 1e18 from the origin, so the mesh
    # codes would pass 2**62; the best bucket holds the lines near the cloud
    delta = 0.25
    if d == 2:
        dirs = np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 2)
        trans = np.array([[0.0, -1.2], [0.0, 0.0], [0.0, 1.2], [1e18, 0.0], [-1e18, 0.0]])
    else:
        dirs = np.array([[1.0, 0.0, 0.0]] * 5 + [[0.0, 0.0, 1.0]] * 2)
        trans = np.array([[0.0, 0.0, 0.0], [0.0, 1.2, 0.0], [0.0, -1.2, 0.0],
                          [0.0, 0.0, 1.2], [0.0, 0.0, -1.2],
                          [1e18, 0.0, 0.0], [0.0, -1e18, 0.0]])
    near = len(dirs) - 2
    family, cloud = family_and_cloud(dirs, trans, np.full(len(dirs), 0.2), slice(0, near))
    buckets, cells = line_reference.mesh_assign(family, delta)
    spans = (np.ptp(cells, axis=0) + 1).astype(float)
    assert float(buckets.max() + 1) * float(np.prod(spans)) >= 2**62
    cover = furst.direction_cover(d, delta)
    assigned = buckets if d > 2 else None
    assert grassmann._mesh_layout(family, cover, assigned, 4.0 * delta) is None
    cert = assert_same_certificate(family, cloud, delta)
    assert cert.bound == near and sorted(cert.line_indices) == list(range(near))


def test_sparse_codes_take_the_sort_branch():
    rng = np.random.default_rng(3)
    angles = rng.uniform(0, np.pi, 300)
    offsets = rng.uniform(-0.6, 0.6, 300)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    trans = np.column_stack([-np.sin(angles), np.cos(angles)]) * offsets[:, None]
    family, cloud = family_and_cloud(dirs, trans, rng.uniform(-0.3, 0.3, 300), slice(None))
    cover = furst.direction_cover(2, 0.01)
    _, spans = grassmann._mesh_layout(family, cover, None, 0.04)
    assert not boxcount.fits_table(len(family), int(np.prod(spans)))
    assert_same_certificate(family, cloud, 0.01)


# the witness scan's prefilter at its edges


def line_through(d, seed, scale=1e3):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d)
    v /= np.linalg.norm(v)
    a = rng.normal(size=d)
    a -= (a @ v) * v
    a *= scale / np.linalg.norm(a)
    normal = rng.normal(size=d)
    normal -= (normal @ v) * v
    return v, a, normal / np.linalg.norm(normal)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("seed", range(6))
def test_witness_scan_at_tolerance_edges(d, tol, seed):
    v, a, normal = line_through(d, seed)
    rng = np.random.default_rng(100 + seed)
    factors = [1.0, 1.0 - 1e-12, 1.0 + 1e-12, 2.0]
    rows = [a + rng.uniform(-1e3, 1e3) * v + f * tol * normal
            for f in factors for _ in range(20)]
    rows += list(rng.uniform(-2e3, 2e3, (40, d)))
    points = np.array(rows)[rng.permutation(len(rows))]
    for drop in (None, 1.0, 2.0):  # then without the nearest points
        if drop is not None:
            dist = np.linalg.norm((points - a) - np.outer((points - a) @ v, v), axis=1)
            points = points[dist > drop * tol * (1 + 1e-9)]
        family = furst.LineFamily(v[None, :], a[None, :], 1e-9)
        cloud = furst.PointCloud(points, 1e-9)
        with mock.patch.object(verifier, "COUNT_BLOCK_ROWS", 16):
            try:
                expected = line_reference.witness_on_line(family, 0, cloud, tol)
            except InconsistentInput as exc:
                with pytest.raises(InconsistentInput, match=f"^{re.escape(str(exc))}$"):
                    verifier._witness_on_line(family, 0, cloud, tol)
            else:
                got = verifier._witness_on_line(family, 0, cloud, tol)
                assert np.array_equal(got, expected)


@pytest.mark.parametrize("d", [2, 3])
def test_witness_scan_takes_lowest_row_across_blocks(d):
    v, a, normal = line_through(d, 7, scale=1.0)
    rng = np.random.default_rng(8)
    points = rng.uniform(-3, 3, (100, d))
    points[[37, 61, 90]] = [a + 0.5 * v, a - 0.25 * v, a]
    family = furst.LineFamily(v[None, :], a[None, :], 1e-9)
    cloud = furst.PointCloud(points, 1e-9)
    for block_rows in (1, 16, 37, 38, 1000):
        with mock.patch.object(verifier, "COUNT_BLOCK_ROWS", block_rows):
            got = verifier._witness_on_line(family, 0, cloud, 1e-9)
        assert np.array_equal(got, points[37])


# the blocked greedy thinning against the pairwise loop, without `assert`


def expect(ok, what):
    if not ok:
        raise AssertionError(what)


def check_thinning(points, order, sep, groups=None):
    """`verifier._greedy_thin` keeps what `line_reference.greedy_thin` keeps
    in each run of equal `groups` labels of `order`, decided in blocks of
    1, 7 and 128 rows against 3, 5 and 512 kept rows per call."""
    groups = np.zeros(len(order)) if groups is None else groups
    runs = np.split(order, np.flatnonzero(np.diff(groups)) + 1)
    want = [i for run in runs for i in line_reference.greedy_thin(points, run, sep)]
    for block, pairs in ((1, 3), (7, 7 * 5), (grassmann.NET_BLOCK_ROWS, None)):
        with mock.patch.object(grassmann, "NET_BLOCK_ROWS", block), mock.patch.object(
            grassmann, "SEPARATION_PAIR_BLOCK", pairs or grassmann.SEPARATION_PAIR_BLOCK
        ):
            got = order[verifier._greedy_thin(points[order], groups, sep)].tolist()
        expect(got == want, f"block {block}: kept {got} != {want}")
    return want


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_thinning_matches_the_pairwise_loop(d, seed):
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, (250, d))
    points[200:] = points[:50] + rng.uniform(-1e-3, 1e-3, (50, d))  # near copies
    order = rng.permutation(250)[:220]  # some rows never visited
    # one group, then runs of 1 to 40 rows, some labels far apart
    runs = np.repeat(np.arange(20), rng.integers(1, 40, 20))[:220]
    for groups in (None, np.r_[runs, np.full(220 - len(runs), 99)] * 1000.0):
        for sep in (0.02, 0.1, 0.5, 3.0):
            kept = check_thinning(points, order, sep, groups)
            expect(0 < len(kept) <= len(order), "thinning keeps at least the first row")


@pytest.mark.parametrize("d", [2, 3])
def test_thinning_at_sep_and_one_ulp_either_side(d):
    # pairs along e_1 at gap sep, one ulp below and one ulp above, each pair
    # on its own row of e_2, so a pair's distance is exactly its gap
    sep = 0.1
    gaps = [sep, np.nextafter(sep, 0.0), np.nextafter(sep, 1.0)] * 25  # 150 rows
    points = np.zeros((2 * len(gaps), d))
    points[1::2, 0] = gaps
    points[:, 1] = np.repeat(np.arange(len(gaps)), 2)
    rng = np.random.default_rng(d)
    order = rng.permutation(len(points))
    kept = set(check_thinning(points, order, sep))
    for pair, gap in enumerate(gaps):
        both = {2 * pair, 2 * pair + 1} <= kept
        expect(both == (gap >= sep), f"pair {pair} at gap {gap!r}: both kept {both}")
