"""d >= 3 direction covers equal their plain forms, bit for bit.

The package canonicalises all candidate directions at once, tests each
d = 3 candidate only against the kept centres near its height, decides by
BLAS products every |cos| that lies more than NET_MARGIN from the
threshold and takes the others again as fixed-order dot products, and
assigns directions to centres in row blocks, re-ranking near ties by
fixed-order dot products; `line_reference` holds the forms that
canonicalise one row at a time, test every kept centre by fixed-order
|cos|, regrow the net with np.vstack and assign with one full fixed-order
|cos| matrix.  Candidates, centres and buckets must be identical.  These
tests also run under the oldest numpy that pyproject allows, and under
python -O.
"""

import hashlib
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import furst
from furst import grassmann
from furst.errors import InvalidParameter, ResourceCap

import line_reference
from mesh_sink import streamed

COVERS = (
    [(3, 2.0**-k) for k in range(1, 6)]
    + [(3, 0.3), (3, 0.07), (3, 0.045)]
    + [(4, 0.5), (4, 0.25), (4, 0.2), (5, 0.5)]
)
NET_SCALES = [2.0**-k for k in range(1, 5)] + [0.3, 0.07]
MAX_MATRIX_ROWS = 1000


def candidate_count(d, delta):
    return int(np.ceil((6.0 / delta) ** (d - 1)))


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
    # many blocks, and one-row tails, whose product is a matrix-vector one
    centers = reference_centers(3, 0.07)
    rng = np.random.default_rng(block)
    with mock.patch.object(grassmann, "ASSIGN_BLOCK_ROWS", block):
        for n in (1, 2, block, block + 1, 4 * block + 1, 100):
            assert_same_buckets(centers, unit_rows(rng, n, 3))
        assert_same_buckets(centers, near_ties(centers, some_rows(rng, len(centers))))


@pytest.mark.parametrize("block", [2, 3, 7, 64])
def test_assign_breaks_ties_by_fixed_order(block):
    # midpoints of two centres: their two best |cos| agree to within
    # rounding, so the BLAS product alone may pick either centre
    centers = reference_centers(3, 0.07)
    ties = near_ties(centers, some_rows(np.random.default_rng(block), len(centers)))
    dots = np.sort([grassmann._fixed_order_cos(centers, v) for v in ties], axis=1)
    assert np.mean(dots[:, -1] - dots[:, -2] <= 12 * np.finfo(float).eps) > 0.5
    with mock.patch.object(grassmann, "ASSIGN_BLOCK_ROWS", block):
        assert_same_buckets(centers, ties)
    # exact ties go to the lower index, wherever the tied centres sit
    axes = np.eye(3)
    both = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, -1.0]]) / np.sqrt(2.0)
    for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
        cover = grassmann.DirectionCover(3, 0.5, axes[order])
        expected = [min(order.index(i), order.index(j)) for i, j in ((0, 1), (1, 2), (0, 2))]
        assert cover.assign(both).tolist() == expected


@pytest.mark.parametrize("d, delta", [(3, 0.07), (4, 0.25)])
def test_assign_moves_only_near_ties(d, delta):
    # where the BLAS product's best |cos| is clear of the next by the
    # tie tolerance, the bucket is its argmax, as before the re-rank
    centers = reference_centers(d, delta)
    rng = np.random.default_rng(d)
    vecs = np.vstack([unit_rows(rng, 500, d), near_ties(centers, some_rows(rng, len(centers), 500))])
    cos = np.abs(vecs @ centers.T)
    top2 = np.sort(cos, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > 4 * d * np.finfo(float).eps
    assert clear.sum() >= 500
    got = grassmann.DirectionCover(d, delta, centers).assign(vecs)
    assert np.array_equal(got[clear], np.argmax(cos, axis=1)[clear])


@pytest.mark.parametrize("delta", NET_SCALES)
def test_banded_net_with_every_decision_exact(delta):
    # a margin of 1 takes every |cos| again in fixed order
    with mock.patch.object(grassmann, "NET_MARGIN", 1.0):
        centers = grassmann._greedy_sphere_net(3, delta)
    assert same_bits(centers, reference_centers(3, delta))


@pytest.mark.parametrize("d, delta", [(4, 0.5), (4, 0.25), (5, 0.5)])
def test_net_loop_with_every_decision_exact(d, delta):
    with mock.patch.object(grassmann, "NET_MARGIN", 1.0):
        centers = grassmann._greedy_sphere_net(d, delta)
    assert same_bits(centers, reference_centers(d, delta))


# d = 3 scales at which some |cos| lies within NET_MARGIN of the threshold
# (2 of 400 log-uniform scales in [0.02, 1]): centre count and the leading
# hex digits of the sha256 of the centres' bytes
MARGIN_SCALES = {
    0.02164590003290307: (19_122, "842e39c4782253fc"),
    0.02914395683490181: (10_569, "2d8042eca8b70792"),
}
CENTRES_DIGEST = """
import hashlib, sys
from furst import grassmann
c = grassmann._greedy_sphere_net(3, float(sys.argv[1]))
print(len(c), hashlib.sha256(c.tobytes()).hexdigest()[:16])
"""


@pytest.mark.parametrize("delta", sorted(MARGIN_SCALES))
def test_centres_at_scales_with_values_in_the_margin(delta):
    fixed = grassmann._fixed_order_cos
    with mock.patch.object(grassmann, "_fixed_order_cos", side_effect=fixed) as exact:
        centers = grassmann._greedy_sphere_net(3, delta)
    assert exact.call_count > 0  # the in-margin values are reached
    digest = hashlib.sha256(centers.tobytes()).hexdigest()[:16]
    assert (len(centers), digest) == MARGIN_SCALES[delta]
    # the same bits with one BLAS thread
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CENTRES_DIGEST, repr(delta)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(len(centers)), digest]


@pytest.mark.parametrize("delta", NET_SCALES + [2.0**-5])
def test_banded_net_with_the_whole_net_as_band(delta):
    with mock.patch.object(grassmann, "_band_radius", return_value=3.0):
        centers = grassmann._greedy_sphere_net(3, delta)
    assert same_bits(centers, reference_centers(3, delta))


def sphere_row(z, phi):
    r = np.sqrt(max(0.0, 1.0 - z * z))
    row = np.array([r * np.cos(phi), r * np.sin(phi), z])
    return row / np.linalg.norm(row)


@settings(max_examples=300, deadline=None)
@given(
    # below the capped scales too: at delta ~ 1e-4 the rows' radii leave
    # no room beyond the margin and the slack in `_band_radius`
    st.floats(1e-4, 1.0),
    st.floats(-1.0, 1.0),
    st.one_of(st.floats(0.0, 1e-12), st.floats(0.0, 2.0)),
    st.booleans(),
    st.booleans(),
    st.floats(0.0, 2.0 * np.pi),
    st.floats(-1e-3, 1e-3),
)
def test_rows_outside_both_bands_are_separated(delta, z, gap, mirror, down, phi, turn):
    # the second row sits just past the band radius from the first row's
    # height, or from its negation, at nearly the same azimuth (the
    # largest |cos| for those heights), or at the opposite one
    limit = grassmann._largest_separated_cos(0.6 * delta)
    radius = grassmann._band_radius(limit)
    other = (-z if mirror else z) + (radius + gap) * (-1.0 if down else 1.0)
    assume(-1.0 <= other <= 1.0)
    u = sphere_row(z, phi)
    w = sphere_row(other, phi + turn + (np.pi if mirror else 0.0))
    assume(abs(u[2] - w[2]) > radius and abs(u[2] + w[2]) > radius)
    assert abs(u @ w) < limit - grassmann.NET_MARGIN
    assert abs(u @ -w) < limit - grassmann.NET_MARGIN


def test_candidate_cap_boundary():
    # 6 / 0.75 = 8 exactly: 64 candidates in R^3
    assert grassmann._net_candidate_count(3, 0.75) == 64
    with mock.patch.object(grassmann, "NET_CANDIDATE_CAP", 64):
        assert grassmann._net_candidate_count(3, 0.75) == 64
    with mock.patch.object(grassmann, "NET_CANDIDATE_CAP", 63):
        with pytest.raises(ResourceCap):
            grassmann._net_candidate_count(3, 0.75)
    assert grassmann._net_candidate_count(3, 6.0 / 632) <= grassmann.NET_CANDIDATE_CAP
    with pytest.raises(ResourceCap):
        grassmann._net_candidate_count(3, 6.0 / 633)


@pytest.mark.parametrize("d, delta", [(3, 2.0**-7), (4, 0.05)])
def test_capped_covers_are_refused_before_building(d, delta):
    with mock.patch.object(grassmann, "_candidate_directions") as build:
        with pytest.raises(ResourceCap, match="cap"):
            furst.direction_cover(d, delta)
    build.assert_not_called()


def test_mesh_assign_matches_reference_in_3d():
    rng = np.random.default_rng(3)
    dirs = unit_rows(rng, 300, 3)
    raw = rng.uniform(-2.0, 2.0, size=(300, 3))
    trans = raw - np.einsum("ij,ij->i", raw, dirs)[:, None] * dirs
    family = furst.LineFamily(dirs, trans, 1e-9)
    for delta in (0.5, 0.25, 0.07):
        buckets, cells, _ = streamed(family, delta)
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
        expected = np.array([line_reference.canonical_vector(p) for p in pts])
    except InvalidParameter:  # a zero row, or one whose squares underflow
        with pytest.raises(InvalidParameter):
            grassmann._canonical_rows(pts)
        return
    assert same_bits(grassmann._canonical_rows(pts), expected)


def test_canonical_rows_reject_nonfinite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidParameter):
            grassmann._canonical_rows(np.array([[1.0, 0.0, 0.0], [bad, 1.0, 0.0]]))
