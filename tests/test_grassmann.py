import numpy as np
import pytest

import furst
from furst import grassmann, verifier
from furst.errors import (
    InvalidParameter,
    InvalidScale,
    ResourceCap,
    StaleResolution,
    UnsupportedScale,
)

from line_reference import canonical_vector, line_family, standard_form


def line_at(point, direction):
    return standard_form(point, direction)


class TestStandardForm:
    """Lines are rows: a canonical direction (`_canonical_rows`) and an orthogonal translation."""

    def test_projection_onto_y_axis(self):
        # the distance from a point to a line is the norm of its orthogonal part
        pts = np.array([[2.0, 3.0], [5.0, -1.0], [0.0, 0.0]])
        dist = grassmann._point_line_distances(pts, np.array([1.0, 0.0]), np.zeros(2))
        assert np.array_equal(dist, [3.0, 1.0, 0.0])
        moved = grassmann._point_line_distances(pts, np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.array_equal(moved, [1.0, 4.0, 1.0])

    def test_point_on_subspace(self):
        v = grassmann._canonical_rows(np.array([[1.0, 1.0]]))[0]
        assert np.allclose(v, np.array([1, 1]) / np.sqrt(2))
        assert grassmann._point_line_distances(np.array([[1.0, 1.0]]), v, np.zeros(2))[0] <= 1e-15

    def test_antipodal_canonicalization(self):
        rows = grassmann._canonical_rows(np.array([[0.0, -1.0], [-0.0, -2.0], [-3.0, 4.0]]))
        assert np.array_equal(rows, [[0.0, 1.0], [0.0, 1.0], [0.6, -0.8]])
        assert not np.signbit(rows[:2]).any()  # no negative zeros

    def test_zero_direction_rejected(self):
        for bad in ([0.0, 0.0], [np.nan, 1.0], [np.inf, 0.0], [1.0, -np.inf]):
            with pytest.raises(InvalidParameter, match="nonzero and finite"):
                grassmann._canonical_rows(np.array([[1.0, 0.0], bad]))

    def test_round_trip_contains_point(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = rng.uniform(-2, 2, size=3)
            v, a = standard_form(p, rng.standard_normal(3))
            assert grassmann._point_line_distances(p[None], v, a)[0] <= 1e-10

    def test_canonicalization_identifies_antipodes(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            v = rng.standard_normal((1, int(rng.integers(2, 5))))
            a = grassmann._canonical_rows(v)
            b = grassmann._canonical_rows(-v)
            assert np.array_equal(a, b)
            assert a[0] @ a[0] == pytest.approx(1.0, abs=1e-12)
            assert np.array_equal(a[0], canonical_vector(v[0]))

    @pytest.mark.parametrize("caller", ["helper", "intersection_profile", "two_point_check"])
    def test_skew_translation_refused_at_ortho_tol(self, caller):
        # every caller of the one rule takes |a . v| <= ORTHO_TOL; `_line_net`'s
        # call is pinned in test_packing_state.py
        def call(skew):
            v, a = np.array([1.0, 0.0]), np.array([skew, 0.5])
            if caller == "helper":
                grassmann._require_orthogonal(v[None], a[None])
            elif caller == "intersection_profile":
                furst.intersection_profile([furst.initial_state(2, 0.5, 1.0)], v, a, 1.0)
            else:
                family = furst.LineFamily([v, [0.0, 1.0]], [a, [1.0, 0.0]], 1e-3)
                verifier._require_separated_lines(family, 0.1)

        call(grassmann.ORTHO_TOL)
        with pytest.raises(InvalidParameter,
                           match=r"orthogonal to the direction \(inner product 1\.000e-12\)"):
            call(np.nextafter(grassmann.ORTHO_TOL, 1.0))


class TestMetric:
    def test_parallel_lines(self):
        a = line_at([0, 0], [1, 0])
        b = line_at([0, 1], [1, 0])
        assert furst.metric_d1(*a, *b) == pytest.approx(1.0)

    def test_axes_distance_matches_operator_norm(self):
        # oracle: operator norm of the explicit projection difference
        a = line_at([0, 0], [1, 0])
        b = line_at([0, 0], [0, 1])
        P1 = np.array([[1.0, 0.0], [0.0, 0.0]])
        P2 = np.array([[0.0, 0.0], [0.0, 1.0]])
        oracle = np.linalg.norm(P1 - P2, 2)
        assert furst.metric_d1(*a, *b) == pytest.approx(oracle)
        assert furst.metric_d1(*a, *b) == pytest.approx(1.0)

    def test_angle_pairs_against_svd_oracle(self):
        angles = np.linspace(0.0, np.pi, 13, endpoint=False)
        for th in angles:
            for th2 in angles:
                u = np.array([np.cos(th), np.sin(th)])
                v = np.array([np.cos(th2), np.sin(th2)])
                P, Q = np.outer(u, u), np.outer(v, v)
                oracle = np.linalg.svd(P - Q, compute_uv=False).max()
                got = furst.projection_distance(u, v)
                assert got == pytest.approx(oracle, abs=1e-10)
                assert got == pytest.approx(abs(np.sin(th - th2)), abs=1e-10)

    def test_metric_axioms_random_triples(self):
        # the triples are measured by batched `line_distances` calls, which
        # equal `metric_d1` row for row, bit for bit (spot-checked below)
        rng = np.random.default_rng(11)
        n = 10_000
        dirs = rng.standard_normal((3 * n, 3))
        trans = rng.uniform(-1, 1, size=(3 * n, 3))
        lines = [standard_form(t, v) for t, v in zip(trans, dirs)]
        vecs = np.array([v for v, _ in lines])
        offs = np.array([a for _, a in lines])
        a, b, c = ((vecs[k::3].copy(), offs[k::3].copy()) for k in range(3))
        ab = grassmann.line_distances(*a, *b)
        ba = grassmann.line_distances(*b, *a)
        ac = grassmann.line_distances(*a, *c)
        cb = grassmann.line_distances(*c, *b)
        assert np.all(ab >= 0.0)
        assert np.array_equal(ab, ba)  # symmetric exactly
        assert np.all(ab <= ac + cb + 1e-9)  # triangle with slack
        for i in range(0, n, 97):
            x, y, z = lines[3 * i], lines[3 * i + 1], lines[3 * i + 2]
            assert furst.metric_d1(*x, *y) == ab[i]
            assert furst.metric_d1(*y, *x) == ba[i]
            assert furst.metric_d1(*x, *z) == ac[i]
            assert furst.metric_d1(*z, *y) == cb[i]
        # identity of indiscernibles
        for ln in lines[:100]:
            assert furst.metric_d1(*ln, *ln) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_distance_to_itself_stays_within_rounding(self, d):
        # u - (u . u) u keeps the rounding of u . u, so d(l, l) is not 0 for
        # about half of all lines; `line_distances` documents the bound
        rng = np.random.default_rng(d)
        vecs = grassmann._canonical_rows(rng.standard_normal((1000, d)))
        offs = rng.uniform(-1, 1, size=(1000, d))
        offs -= grassmann._row_dots(offs, vecs)[:, None] * vecs
        dist = grassmann.line_distances(vecs, offs, vecs, offs)
        assert np.all(dist <= (2 * d + 5) * 2.0**-53)
        assert np.any(dist > 0.0)  # were it 0, the docstrings would say so
        for i in range(0, 1000, 111):
            assert furst.metric_d1(vecs[i], offs[i], vecs[i], offs[i]) <= (2 * d + 5) * 2.0**-53

    def test_distinct_lines_positive_distance(self):
        a = line_at([0, 0], [1, 0])
        b = line_at([0, 1e-7], [1, 0])
        assert furst.metric_d1(*a, *b) > 0


class TestDirectionCover:
    def test_diameter_scale_single_bucket(self):
        assert len(furst.direction_cover(2, 1.0)) == 1

    def test_count_at_tenth(self):
        # oracle: covering the angle circle of circumference pi with the
        # |sin| metric needs about pi/arcsin(delta) buckets
        assert 16 <= len(furst.direction_cover(2, 0.1)) <= 64

    def test_doubling_consistency(self):
        c1 = len(furst.direction_cover(2, 0.1))
        c2 = len(furst.direction_cover(2, 0.05))
        assert c1 <= c2 <= 4 * c1  # within factor 2 of c1 * 2

    def test_every_direction_covered(self):
        cov = furst.direction_cover(2, 0.07)
        rng = np.random.default_rng(5)
        for _ in range(500):
            v = canonical_vector(rng.standard_normal(2))
            b = cov.assign(v[None, :])[0]
            assert furst.projection_distance(v, cov.centers[b]) <= 0.07

    def test_covered_in_3d(self):
        cov = furst.direction_cover(3, 0.25)
        assert len(cov) <= 16 * 0.25**-2
        rng = np.random.default_rng(6)
        for _ in range(200):
            v = canonical_vector(rng.standard_normal(3))
            b = cov.assign(v[None, :])[0]
            assert furst.projection_distance(v, cov.centers[b]) <= 0.25

    def test_invalid_scales(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidScale):
                furst.direction_cover(2, bad)

    def test_deterministic(self):
        a = furst.direction_cover(3, 0.3).centers
        b = furst.direction_cover(3, 0.3).centers
        assert np.array_equal(a, b)


class TestLineFamily:
    def test_nonfinite_entries_rejected(self):
        for dirs, trans in (
            ([[np.nan, 0.0]], [[0.0, 0.0]]),
            ([[np.inf, 0.0]], [[0.0, 0.0]]),
            ([[1.0, 0.0]], [[0.0, np.nan]]),
            ([[1.0, 0.0]], [[np.inf, 0.0]]),
            ([[0.6, 0.8]], [[-np.inf, np.inf]]),
        ):
            with pytest.raises(InvalidParameter, match="finite"):
                furst.LineFamily(dirs, trans, 1e-9)

    def test_angles_are_cached_canonical_angles(self):
        dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 1e-17], [0.6, -0.8]])
        fam = furst.LineFamily(dirs, np.zeros_like(dirs), 1e-9)
        assert np.array_equal(fam.angles, np.arctan2(dirs[:, 1], dirs[:, 0]) % np.pi)
        assert np.all((fam.angles >= 0) & (fam.angles < np.pi))
        assert fam.angles is fam.angles and not fam.angles.flags.writeable
        with pytest.raises(InvalidParameter):
            furst.LineFamily([[0.0, 0.0, 1.0]], [[0.0, 0.0, 0.0]], 1e-9).angles


class TestMeshCoverCount:
    def fam(self, lines, floor=1e-9):
        return line_family(lines, floor)

    def test_single_line(self):
        fam = self.fam([line_at([0, 0], [1, 0])])
        assert furst.mesh_cover_count(fam, 0.1) == 1

    def test_two_translates_in_distinct_cells(self):
        # translations 0 and 0.9 fall in 4*delta cells [0, 0.4) and [0.8, 1.2)
        fam = self.fam([line_at([0, 0], [1, 0]), line_at([0, 0.9], [1, 0])])
        assert furst.mesh_cover_count(fam, 0.1) == 2

    def test_duplicates_share_a_cell(self):
        fam = self.fam([line_at([0, 0], [1, 0]), line_at([5, 0], [1, 0])])
        assert furst.mesh_cover_count(fam, 0.1) == 1

    def test_empty_family_warns(self):
        fam = furst.LineFamily(np.empty((0, 2)), np.empty((0, 2)), 1e-9)
        with pytest.warns(UserWarning):
            assert furst.mesh_cover_count(fam, 0.1) == 0

    def test_scale_below_floor_rejected(self):
        fam = self.fam([line_at([0, 0], [1, 0])], floor=0.01)
        with pytest.raises(StaleResolution):
            furst.mesh_cover_count(fam, 0.001)

    def test_invalid_scale(self):
        fam = self.fam([line_at([0, 0], [1, 0])])
        with pytest.raises(InvalidScale):
            furst.mesh_cover_count(fam, 0.0)

    def test_monotone_under_inclusion(self):
        rng = np.random.default_rng(9)
        lines = [
            standard_form(rng.uniform(-1, 1, 2), rng.standard_normal(2))
            for _ in range(30)
        ]
        sub = self.fam(lines[:12])
        full = self.fam(lines)
        for delta in (0.3, 0.1, 0.05):
            assert furst.mesh_cover_count(sub, delta) <= furst.mesh_cover_count(
                full, delta
            )

    def test_upper_bound_and_equality_case(self):
        delta = 0.05
        # same direction, translations >= 4*sqrt(d-1)*delta apart: all distinct
        lines = [line_at([0, i * 4.5 * delta], [1, 0]) for i in range(7)]
        fam = self.fam(lines)
        assert furst.mesh_cover_count(fam, delta) == len(fam)
        rng = np.random.default_rng(2)
        crowd = self.fam(
            [
                standard_form(rng.uniform(0, 0.01, 2), [1, 0])
                for _ in range(9)
            ]
        )
        assert furst.mesh_cover_count(crowd, delta) <= len(crowd)


class TestIndexLimits:
    def test_planar_cover_caps_refuse_before_building(self):
        with pytest.raises(ResourceCap, match="above the cap"):
            furst.direction_cover(2, 2.0**-25)
        for delta in (1e-19, 1e-300, 5e-324):
            with pytest.raises(UnsupportedScale, match="2\\^62 or more buckets"):
                furst.direction_cover(2, delta)
        # 2^-24 still builds: its 52.7 M buckets are under the cap
        width = float(np.arcsin(2.0**-24))
        assert grassmann._planar_bucket_count(width, 2.0**-24) == int(np.ceil(np.pi / width))

    def test_translations_past_int64_cells_are_refused(self):
        family = furst.LineFamily([[1, 0], [0, 1]], [[0, 1e20], [1e20, 0]], 1e-3)
        for delta in (1e-3, 0.1, 1.0):
            with pytest.raises(InvalidScale, match="finer than the float resolution"):
                furst.mesh_cover_count(family, delta)
        assert family.translation_radius == 1e20

    def test_translation_radius_matches_its_expression(self):
        for d, rows in ((2, 0), (2, 1), (3, 16_385), (9, 1000)):
            rng = np.random.default_rng(rows)
            dirs = np.tile(np.eye(d)[0], (rows, 1))
            trans = rng.normal(size=(rows, d))
            trans[:, 0] = 0.0
            family = furst.LineFamily(dirs, trans, 1e-3)
            want = float(np.linalg.norm(trans, axis=1).max()) if rows else 0.0
            assert family.translation_radius == want
            assert family.translation_radius is family.translation_radius
