from unittest import mock

import numpy as np
import pytest

import furst
from furst import construct_box
from furst.errors import InvalidParameter, InvalidScale, ResourceCap
from furst.grassmann import _point_line_distances
from furst.util import min_pairwise_distance

THIRDS = furst.CantorSpec(3, (0, 2))


def small_spec(**overrides):
    params = dict(d=2, cantor=THIRDS, t=1.5, M=6, N=6, depth=6, seed=7)
    params.update(overrides)
    return furst.BoxSharpSpec(**params)


class TestDirections:
    def test_single_direction_is_first_shell_point(self):
        seq = furst.make_directions(2, 1)
        angle = np.arctan2(seq.vectors[0, 1], seq.vectors[0, 0])
        assert angle == pytest.approx(2.0**-2)

    def test_all_within_first_shell_distance(self):
        seq = furst.make_directions(2, 50)
        base = seq.base
        for v in seq.vectors:
            assert furst.projection_distance(v, base) <= 2.0**-1

    def test_distinct_and_shells_recorded(self):
        seq = furst.make_directions(2, 40)
        assert len({tuple(v) for v in seq.vectors}) == 40
        assert [s[0] for s in seq.shells] == [1, 2, 3, 4]

    def test_angle_set_dimension(self):
        # grid-count oracle on the angle values; the densified net resolves
        # dimension d-1 = 1 over the tested window
        seq = furst.make_directions(2, 2048, density=10)
        angles = np.array(
            [np.arctan2(v[1], v[0]) for v in seq.vectors]
        ).reshape(-1, 1)
        cloud = furst.PointCloud(angles, 2.0**-20)
        report = furst.estimate_dimension(cloud, [2.0**-j for j in range(4, 10)])
        assert report.slope == pytest.approx(1.0, abs=0.2)

    def test_three_dimensional_directions(self):
        seq = furst.make_directions(3, 30)
        base = seq.base
        norms = np.linalg.norm(seq.vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        for v in seq.vectors:
            assert 0 < furst.projection_distance(v, base) <= 2.0**-1 + 1e-12

    def test_shell_lattice_past_the_cap_is_refused_before_it_is_built(self):
        # shells 1-3 of d = 3 at density 0 hold 9,681 directions; shell 4
        # needs a lattice of 8,195^2 = 67 M points
        with mock.patch.object(np, "meshgrid", wraps=np.meshgrid) as grid:
            assert len(furst.make_directions(3, 9681).vectors) == 9681
            assert grid.call_count == 3
            with pytest.raises(ResourceCap, match="shell 4 in R\\^3 .* 67,158,025 points"):
                furst.make_directions(3, 9682)
            assert grid.call_count == 6
        assert construct_box.SHELL_LATTICE_CAP < 8195**2

    @pytest.mark.parametrize("d, count, density, shell", [
        (3, 1, 10, 1), (3, 10**6, 4, 3), (4, 2000, 1, 3), (5, 1200, 0, 3),
    ])
    def test_dense_shells_are_refused_by_lattice_size(self, d, count, density, shell):
        with mock.patch.object(np, "meshgrid", wraps=np.meshgrid) as grid:
            with pytest.raises(ResourceCap, match=f"shell {shell} in R\\^{d}"):
                furst.make_directions(d, count, density)
        assert grid.call_count == shell - 1


class TestTranslations:
    def test_beta_half_is_harmonic(self):
        seq = furst.make_translations(2, 0.5, 100)
        assert np.allclose(seq.vectors[:, 0], 0.0)
        assert np.allclose(seq.vectors[:, 1], 1.0 / np.arange(1, 101))

    def test_beta_third_exponent(self):
        seq = furst.make_translations(2, 1 / 3, 100)
        assert np.allclose(seq.vectors[:, 1], np.arange(1, 101, dtype=float) ** -2)

    def test_single_translation(self):
        seq = furst.make_translations(2, 0.8, 1)
        assert seq.vectors.shape == (1, 2)
        assert seq.vectors[0, 1] > 0

    def test_orthogonal_and_bounded(self):
        for beta in (0.3, 1.0):
            seq = furst.make_translations(3, beta, 50)
            assert np.all(np.abs(seq.vectors[:, 0]) < 1e-15)
            assert np.linalg.norm(seq.vectors, axis=1).max() <= np.sqrt(2) + 1e-12

    def test_harmonic_dimension_estimate(self):
        seq = furst.make_translations(2, 0.5, 100)
        vals = seq.vectors[:, 1].reshape(-1, 1)
        cloud = furst.PointCloud(vals, 2.0**-14)
        report = furst.estimate_dimension(cloud, [2.0**-j for j in range(1, 14)])
        assert report.slope == pytest.approx(0.5, abs=0.15)

    def test_invalid_beta(self):
        with pytest.raises(InvalidParameter):
            furst.make_translations(2, 0.0, 10)
        with pytest.raises(InvalidParameter):
            furst.make_translations(2, 1.5, 10)


class TestBuildPoints:
    def test_cardinality(self):
        spec = small_spec()
        cloud = furst.build_points(spec)
        assert len(cloud) == 6 * 6 * 2**6 == 2304

    def test_membership(self):
        spec = small_spec(M=3, N=3, depth=3)
        cloud = furst.build_points(spec)
        rows = {tuple(np.round(p, 12)) for p in cloud.points}
        dirs = furst.make_directions(2, 3)
        trans = furst.make_translations(2, 0.5, 3)
        endpoints = furst.points_at_depth(THIRDS, 3)
        for m in range(1, 4):
            for n in range(1, 4):
                for e in endpoints:
                    p = 2.0 ** -(m + n) * e * dirs.vectors[n - 1] + trans.vectors[m - 1]
                    assert tuple(np.round(p, 12)) in rows

    def test_monotone_in_truncation(self):
        base_kw = dict(M=3, N=3, depth=3)
        base = {tuple(p) for p in furst.build_points(small_spec(**base_kw)).points}
        for grow in ("M", "N", "depth"):
            kw = dict(base_kw)
            kw[grow] = 4
            larger = {
                tuple(p) for p in furst.build_points(small_spec(**kw)).points
            }
            assert base <= larger

    def test_collapsed_flat_family(self):
        # t <= d-1: the translation set degenerates and the points are the
        # direction-embedded copies alone
        spec = small_spec(t=1.0, M=4, N=4, depth=4)
        assert spec.collapsed
        cloud = furst.build_points(spec)
        assert len(cloud) == 4 * 2**4
        dirs = furst.make_directions(2, 4)
        endpoints = furst.points_at_depth(THIRDS, 4)
        expected = {
            tuple(np.round(2.0**-n * e * dirs.vectors[n - 1], 14))
            for n in range(1, 5)
            for e in endpoints
        }
        got = {tuple(np.round(p, 14)) for p in cloud.points}
        assert got == expected

    def test_dimension_estimate(self):
        spec = small_spec()
        cloud = furst.build_points(spec)
        report = furst.estimate_dimension(cloud, [2.0**-j for j in range(4, 13)])
        assert report.slope == pytest.approx(max(spec.s, spec.t - 1), abs=0.15)

    def test_cap(self):
        with pytest.raises(ResourceCap):
            furst.build_points(small_spec(max_points=10))

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter) as err:
            small_spec(t=3.0)
        assert "[0, 2]" in str(err.value)
        with pytest.raises(InvalidParameter):
            small_spec(M=0)


class TestBuildLines:
    def test_count_and_standard_form(self):
        spec = small_spec()
        fam = furst.build_lines(spec)
        assert len(fam) == 36
        inner = np.einsum("ij,ij->i", fam.directions, fam.translations)
        assert np.abs(inner).max() <= 1e-12

    def test_single_pair(self):
        fam = furst.build_lines(small_spec(M=1, N=1, depth=1))
        assert len(fam) == 1

    def test_every_line_meets_its_cantor_copy(self):
        spec = small_spec(M=3, N=3, depth=4)
        cloud = furst.build_points(spec)
        fam = furst.build_lines(spec)
        expected = furst.covering_count(THIRDS, 4)
        for i in range(len(fam)):
            dist = _point_line_distances(cloud.points, fam.directions[i], fam.translations[i])
            near = dist <= 1e-12
            assert near.sum() >= expected

    def test_containment_counts_scale(self):
        # points of one embedded copy occupy at least the matching-depth
        # Cantor covering count of grid cells
        spec = small_spec(M=2, N=2, depth=6)
        cloud = furst.build_points(spec)
        fam = furst.build_lines(spec)
        dist = _point_line_distances(cloud.points, fam.directions[0], fam.translations[0])
        on_line = cloud.points[dist <= 1e-12]
        sub = furst.PointCloud(on_line, cloud.resolution_floor)
        delta = 2.0**-2 * 3.0**-3 * np.sqrt(2)
        assert furst.grid_count(sub, delta) >= furst.covering_count(THIRDS, 3)

    def test_family_dimension_estimate(self):
        fam = furst.build_lines(small_spec())
        sched = [2.0**-j for j in range(2, 6)]
        counts = [furst.mesh_cover_count(fam, s) for s in sched]
        slope, _ = furst.fit_slope(sched, counts)
        assert slope == pytest.approx(1.5, abs=0.25)

    def test_collapsed_lines_through_origin(self):
        fam = furst.build_lines(small_spec(t=0.5, N=5))
        assert len(fam) == 5
        assert np.all(np.linalg.norm(fam.translations, axis=1) < 1e-15)

    def test_trivial_lower_bounds(self):
        # measured counts dominate both the single-copy count and the
        # translation-set count
        spec = small_spec()
        cloud = furst.build_points(spec)
        trans = furst.make_translations(2, 0.5, 6)
        tcloud = furst.PointCloud(trans.vectors, 1e-9)
        dirs = furst.make_directions(2, 6)
        endpoints = furst.points_at_depth(THIRDS, 6)
        copy = furst.PointCloud(
            2.0**-2 * np.outer(endpoints, dirs.vectors[0]) + trans.vectors[0],
            cloud.resolution_floor,
        )
        for delta in [2.0**-j for j in range(4, 11)]:
            total = furst.grid_count(cloud, delta)
            assert total >= furst.grid_count(tcloud, delta)
            assert total >= furst.grid_count(copy, delta)

    def test_floor_positive_for_symmetric_3d_translations(self):
        # beta = 2 splits into two unit parts whose product sequence is
        # symmetric, so sorted translation norms repeat; the floor must
        # come from the exact minimum gap, 5.318e-4
        spec = furst.BoxSharpSpec(
            d=3, cantor=THIRDS, t=4.0, M=5000, N=1, depth=1, seed=7
        )
        family = furst.build_lines(spec)
        u = furst.make_translations(3, spec.beta, spec.M).vectors
        gap = min(
            float(np.linalg.norm(u[i + 1 :] - u[i], axis=-1).min())
            for i in range(len(u) - 1)
        )
        assert gap == pytest.approx(5.318e-4, rel=1e-3)
        assert family.resolution_floor == 4.0 * 0.5 * gap


class TestMinPairwiseDistance:
    @pytest.mark.parametrize("seed", range(200))
    def test_matches_distance_matrix_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(0, 41)), int(rng.integers(1, 5))
        # values drawn from a small set make ties and duplicate rows common
        pts = np.where(
            rng.random((n, d)) < 0.5,
            rng.choice([0.0, 0.5, -1.0, 1e-3, 0.25], size=(n, d)),
            rng.uniform(-4.0, 4.0, size=(n, d)),
        )
        if n < 2:
            assert min_pairwise_distance(pts) == np.inf
            return
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        dist[np.diag_indices(len(dist))] = np.inf
        assert min_pairwise_distance(pts) == float(dist.min())


class TestDyadicIndices:
    def test_k_of_delta(self):
        assert furst.k_of_delta(0.5) == 1
        assert furst.k_of_delta(0.3) == 2
        assert furst.k_of_delta(2.0**-6) == 6

    def test_l_of_delta(self):
        assert furst.l_of_delta(1 / 8, 1) == 2
        assert furst.l_of_delta(2.0**-6, 2) == 4

    def test_l_domain_error(self):
        with pytest.raises(InvalidParameter):
            furst.l_of_delta(1 / 8, 3)
        with pytest.raises(InvalidScale):
            furst.k_of_delta(1.0)

    def test_defining_inequalities(self):
        rng = np.random.default_rng(4)
        for delta in rng.uniform(1e-6, 0.999, size=300):
            k = furst.k_of_delta(delta)
            assert 2.0**-k <= delta < 2.0 ** -(k - 1)
            for m in range(1, k):
                l = furst.l_of_delta(delta, m)
                assert 2.0 ** -(m + l) <= delta < 2.0 ** -(m + l - 1)


class TestPredictedCover:
    def test_envelope_dominates_measured(self):
        spec = furst.BoxSharpSpec(
            d=2, cantor=THIRDS, t=1.5, M=8, N=8, depth=8, seed=7
        )
        cloud = furst.build_points(spec)
        sched = [2.0**-j for j in range(4, 13)]
        C = furst.calibrate_cover(spec, cloud, sched[0])
        for delta in sched:
            measured = furst.grid_count(cloud, delta)
            assert measured <= furst.predicted_cover(spec, delta, 0.05, C)

    def test_coarsest_at_least_one(self):
        spec = small_spec()
        assert furst.predicted_cover(spec, 0.5, 0.05, 1.0) >= 1.0

    def test_flat_t_reduces_to_cantor_sum(self):
        # at t = d-1 and eps = 0 the first term is delta^0 = 1 and the
        # remainder is the log term plus the Cantor scaling sum
        spec = small_spec(t=1.0, M=4, N=4, depth=4)
        delta = 2.0**-6
        value = furst.predicted_cover(spec, delta, 0.0, 1.0)
        k = furst.k_of_delta(delta)
        cantor_sum = value - 1.0 - k
        bound = (
            delta**-spec.s
            * sum(2.0 ** (-m * spec.s) for m in range(1, 40))
            * sum(2.0 ** (-n * spec.s) for n in range(1, 40))
        )
        assert 0 < cantor_sum <= 4 * bound
