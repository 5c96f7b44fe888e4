"""d >= 3 direction covers equal their plain forms, bit for bit.

The package canonicalises all candidate directions at once, tests each
candidate against the largest |cos| to the kept centres only, and assigns
directions to centres in row blocks; `line_reference` holds the forms that
canonicalise one row at a time, test every kept centre, regrow the net with
np.vstack and assign with one full |cos| matrix.  Candidates, centres and
buckets must be identical.  These tests also run under the oldest numpy
that pyproject allows.
"""

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import furst
from furst import grassmann
from furst.errors import InvalidParameter

import line_reference

COVERS = (
    [(3, 2.0**-k) for k in range(1, 6)]
    + [(3, 0.3), (3, 0.07), (3, 0.045)]
    + [(4, 0.5), (4, 0.25), (4, 0.2), (5, 0.5)]
)
MAX_MATRIX_ROWS = 1000


def candidate_count(d, delta):
    return min(int(np.ceil((6.0 / delta) ** (d - 1))), 400_000)


@lru_cache(maxsize=None)
def reference_centers(d, delta):
    return line_reference.greedy_sphere_net(d, delta)


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


def some_rows(rng, k, limit=MAX_MATRIX_ROWS):
    """All of range(k), or `limit` of them in order, so that the reference's
    full |cos| matrix stays small."""
    return np.arange(k) if k <= limit else np.sort(rng.choice(k, limit, replace=False))


def assert_same_buckets(centers, vecs):
    cover = grassmann.DirectionCover(centers.shape[1], 0.5, centers)
    expected = line_reference.assign(vecs, centers)
    got = cover.assign(vecs)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("d, delta", COVERS)
def test_candidates_match_reference(d, delta):
    count = candidate_count(d, delta)
    assert same_bits(
        grassmann._candidate_directions(d, count),
        line_reference.candidate_directions(d, count),
    )


@pytest.mark.parametrize("d, delta", COVERS)
def test_centers_match_reference(d, delta):
    assert same_bits(furst.direction_cover(d, delta).centers, reference_centers(d, delta))


@pytest.mark.parametrize("d, delta", COVERS)
def test_assign_matches_reference(d, delta):
    centers = reference_centers(d, delta)
    rng = np.random.default_rng(len(centers))
    rows = some_rows(rng, len(centers))
    block = grassmann.ASSIGN_BLOCK_ROWS
    for vecs in (
        unit_rows(rng, 1000, d),
        centers[rows],
        -centers[rows],
        near_ties(centers, rows),
        unit_rows(rng, 1, d),
        unit_rows(rng, 1, d)[0],  # one vector, not a row
        unit_rows(rng, 2 * block + 1, d),  # one row past whole blocks
        unit_rows(rng, block + 2, d),
    ):
        assert_same_buckets(centers, vecs)


@pytest.mark.parametrize("block", [2, 3, 7])
def test_assign_small_blocks(block):
    # many blocks and one-row tails folded into the block before them
    centers = reference_centers(3, 0.07)
    rng = np.random.default_rng(block)
    with mock.patch.object(grassmann, "ASSIGN_BLOCK_ROWS", block):
        for n in (1, 2, block, block + 1, 4 * block + 1, 100):
            assert_same_buckets(centers, unit_rows(rng, n, 3))
        assert_same_buckets(centers, near_ties(centers, some_rows(rng, len(centers))))


def test_mesh_assign_matches_reference_in_3d():
    rng = np.random.default_rng(3)
    dirs = unit_rows(rng, 300, 3)
    raw = rng.uniform(-2.0, 2.0, size=(300, 3))
    trans = raw - np.einsum("ij,ij->i", raw, dirs)[:, None] * dirs
    family = furst.LineFamily(dirs, trans, 1e-9)
    for delta in (0.5, 0.25, 0.07):
        buckets, cells, _ = grassmann.mesh_assign(family, delta)
        expected_buckets, expected_cells = line_reference.mesh_assign(family, delta)
        assert np.array_equal(buckets, expected_buckets)
        assert np.array_equal(cells, expected_cells)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-9, max_value=0.6, allow_subnormal=False))
def test_largest_separated_cos_is_the_threshold(sep):
    def distance(x):
        return np.sqrt(np.maximum(0.0, 1.0 - np.minimum(1.0, x * x)))

    limit = grassmann._largest_separated_cos(sep)
    above = np.nextafter(limit, 2.0)
    assert 0.0 < limit < 1.0
    assert not distance(limit) < sep
    assert distance(above) < sep


entries = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -3.0, 1e-300, -1e-300, 5e-324, 7.0])


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5).flatmap(
    lambda d: st.lists(st.lists(entries, min_size=d, max_size=d), min_size=1, max_size=6)
))
def test_canonical_rows_match_canonical_vector(rows):
    pts = np.array(rows)
    try:
        expected = np.array([grassmann.canonical_vector(p) for p in pts])
    except InvalidParameter:  # a zero row, or one whose squares underflow
        with pytest.raises(InvalidParameter):
            grassmann._canonical_rows(pts)
        return
    assert same_bits(grassmann._canonical_rows(pts), expected)


def test_canonical_rows_reject_nonfinite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidParameter):
            grassmann._canonical_rows(np.array([[1.0, 0.0, 0.0], [bad, 1.0, 0.0]]))
