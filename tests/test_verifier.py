import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import furst
import furst.util
from furst.errors import (
    InconsistentInput,
    InvalidParameter,
    InvalidScale,
    InvalidWitness,
)

from line_reference import affine_line, line_family, standard_form

THIRDS = furst.CantorSpec(3, (0, 2))


def parallel_fixture(K, delta, gap=8.0):
    """K horizontal lines with translations gap*delta apart, each through
    one cloud point."""
    lines = [
        standard_form([0.3, i * gap * delta], [1, 0]) for i in range(K)
    ]
    fam = line_family(lines, 1e-9)
    pts = np.array([[0.3, i * gap * delta] for i in range(K)])
    return fam, furst.PointCloud(pts, 1e-9)


class TestPigeonhole:
    def test_parallel_lines_bound_is_family_size(self):
        fam, cloud = parallel_fixture(5, 0.01)
        cert = furst.pigeonhole_extract(fam, cloud, 0.01)
        assert cert.bound == 5
        assert cert.branch == "pigeonhole"
        assert cert.min_witness_separation() >= 0.01

    def test_single_line(self):
        fam, cloud = parallel_fixture(1, 0.01)
        assert furst.pigeonhole_extract(fam, cloud, 0.01).bound == 1

    def test_bound_below_measured_on_construction(self):
        spec = furst.BoxSharpSpec(
            d=2, cantor=THIRDS, t=1.5, M=6, N=6, depth=6, seed=7
        )
        cloud = furst.build_points(spec)
        fam = furst.build_lines(spec)
        delta = 2.0**-8
        cert = furst.pigeonhole_extract(fam, cloud, delta)
        assert cert.bound <= furst.grid_count(cloud, delta)
        assert cert.min_witness_separation() >= delta

    def test_soundness_across_schedule(self):
        spec = furst.BoxSharpSpec(
            d=2, cantor=THIRDS, t=1.5, M=6, N=6, depth=6, seed=7
        )
        cloud = furst.build_points(spec)
        fam = furst.build_lines(spec)
        for delta in [2.0**-j for j in range(4, 11)]:
            cert = furst.pigeonhole_extract(fam, cloud, delta)
            measured = furst.grid_count(cloud, delta)
            assert measured >= cert.bound / 3**2
            assert cert.bound <= cert.num_witnesses

    def test_pigeonhole_arithmetic(self):
        # kept count >= ceil(occupied cells of the best bucket / 3^{d-1})
        fam, cloud = parallel_fixture(9, 0.01, gap=5.0)
        cert = furst.pigeonhole_extract(fam, cloud, 0.01)
        occ = cert.meta["occupied_cells_best_bucket"]
        assert cert.bound >= int(np.ceil(occ / 3))

    def test_monotone_under_enlargement(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            K = int(rng.integers(3, 25))
            angles = rng.uniform(0, np.pi / 2, size=K)
            offs = rng.uniform(-1, 1, size=K)
            lines = [
                affine_line([np.cos(a), np.sin(a)], o * np.array([-np.sin(a), np.cos(a)]))
                for a, o in zip(angles, offs)
            ]
            pts = np.array(
                [
                    a + rng.uniform(-1, 1) * v
                    for v, a in lines
                ]
            )
            delta = float(rng.uniform(0.02, 0.2))
            ksub = int(rng.integers(1, K))
            sub = furst.pigeonhole_extract(
                line_family(lines[:ksub], 1e-9),
                furst.PointCloud(pts[:ksub], 1e-9),
                delta,
                tol=1e-9,
            ).bound
            full = furst.pigeonhole_extract(
                line_family(lines, 1e-9),
                furst.PointCloud(pts, 1e-9),
                delta,
                tol=1e-9,
            ).bound
            assert full >= sub

    def test_missing_point_is_inconsistent(self):
        fam, cloud = parallel_fixture(3, 0.01)
        trimmed = furst.PointCloud(cloud.points[:2], 1e-9)
        with pytest.raises(InconsistentInput):
            furst.pigeonhole_extract(fam, trimmed, 0.01)

    def test_scale_cap(self):
        fam, cloud = parallel_fixture(2, 0.01)
        with pytest.raises(InvalidScale):
            furst.pigeonhole_extract(fam, cloud, 0.75)


class TestTwoPoint:
    def crossing_fixture(self):
        fam = line_family(
            [
                standard_form([0, 0], [1, 0]),
                standard_form([0, 0], [0, 1]),
            ],
            1e-9,
        )
        x = np.zeros((2, 2))
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        return fam, x, y

    def test_crossing_lines(self):
        fam, x, y = self.crossing_fixture()
        cert = furst.two_point_extract(fam, x, y, 0.1, 1.0, 1)
        assert cert.branch == "dichotomy-y"
        assert cert.bound == 2
        assert cert.min_witness_separation() >= 0.1
        floor = min(len(fam), int(0.1 ** -0.5)) / 16.0
        assert cert.bound >= floor

    def test_spread_x_endpoints_take_x_branch(self):
        K = 12
        delta = 0.05
        lines = [
            standard_form([0.0, 0.21 * i], [1, 0]) for i in range(K)
        ]
        fam = line_family(lines, 1e-9)
        x = np.array([[0.0, 0.21 * i] for i in range(K)])
        y = np.array([[1.0, 0.21 * i] for i in range(K)])
        cert = furst.two_point_extract(fam, x, y, delta, 1.0, 1)
        assert cert.branch == "dichotomy-x"
        assert cert.bound >= min(K, int(delta ** -0.5)) / 16.0
        assert cert.bound <= K

    def test_single_line(self):
        fam = line_family(
            [standard_form([0, 0], [1, 0])], 1e-9
        )
        cert = furst.two_point_extract(
            fam, [[0.0, 0.0]], [[1.0, 0.0]], 0.1, 1.0, 1
        )
        assert cert.bound == 1

    def test_family_over_2000_lines(self):
        # parallel lines 0.02 apart: every x point is kept, across many blocks
        K = 2100
        trans = np.column_stack([np.zeros(K), 0.02 * np.arange(K)])
        fam = furst.LineFamily(np.tile([1.0, 0.0], (K, 1)), trans, 1e-9)
        cert = furst.two_point_extract(fam, trans, trans + [1.0, 0.0], 0.01, 1.0, 1)
        assert cert.branch == "dichotomy-x"
        assert cert.bound == K
        assert cert.line_indices == tuple(range(K))
        assert cert.min_witness_separation() >= 0.01

    def test_packing_trajectory(self):
        sched = furst.ScaleSchedule((1.0, 1 / 16, 2.0**-10), "demo")
        states = furst.run_alternating(2, 0.5, 1.0, sched)
        final = states[-1]
        assert all(m.shape[0] >= 2 for m in final.marks)
        xs = np.array([m[0] for m in final.marks])
        ys = np.array([m[-1] for m in final.marks])
        gap = float(np.linalg.norm(xs - ys, axis=1).min())
        n = int(np.ceil(1.0 / gap))
        delta = final.eta
        cert = furst.two_point_extract(
            final.line_family(), xs, ys, delta, final.t, n
        )
        measured = furst.grid_count(final.mark_cloud(), delta)
        assert cert.bound <= measured
        assert cert.bound >= min(final.num_lines, int(delta ** -0.5)) / 16.0

    def test_close_pair_rejected(self):
        fam, x, y = self.crossing_fixture()
        y_close = np.array([[0.001, 0.0], [0.0, 0.001]])
        with pytest.raises(InvalidWitness):
            furst.two_point_extract(fam, x, y_close, 0.1, 1.0, 1)

    def test_unseparated_lines_rejected(self):
        lines = [
            standard_form([0, 0], [1, 0]),
            standard_form([0, 1e-4], [1, 0]),
        ]
        fam = line_family(lines, 1e-9)
        x = np.zeros((2, 2))
        y = np.array([[1.0, 0.0], [1.0, 1e-4]])
        with pytest.raises(InvalidParameter):
            furst.two_point_extract(fam, x, y, 0.1, 1.0, 1)

    @pytest.mark.parametrize("d, s, t, etas, mode, lines, x_cells, kept", [
        # the d3 benchmark's packing state and the growing d = 2 one
        (3, 0.5, 2.0, (1.0, 1 / 16, 2.0**-10), "demo", 54, 36, 10),
        (2, 0.5, 1.0, (1.0, 1 / 16, 2.0**-10, 2.0**-24), "strict", 240, 85, 87),
    ])
    def test_measured_packing_states_give_bound_one(
        self, d, s, t, etas, mode, lines, x_cells, kept
    ):
        # each line's first and last marks lie 2 * 2^-10 apart (n = 513),
        # and the y points of the fullest x cell thin to one witness: the
        # bound is 1, the floor two_point_extract promises
        final = furst.run_alternating(d, s, t, furst.ScaleSchedule(etas, mode))[-1]
        xs = np.array([m[0] for m in final.marks])
        ys = np.array([m[-1] for m in final.marks])
        n = int(np.ceil(1.0 / float(np.linalg.norm(xs - ys, axis=1).min())))
        cert = furst.two_point_extract(final.line_family(), xs, ys, final.eta, t, n)
        assert (final.num_lines, n) == (lines, 513)
        assert cert.branch == "dichotomy-y"
        assert cert.bound == 1
        assert cert.line_indices == (kept,)
        assert cert.meta["x_cells"] == x_cells

    @staticmethod
    def stacked_fixture(x):
        # horizontal lines 1 apart, with x points as given and y points far
        # from them and from each other, so thinning keeps every y point
        K = len(x)
        fam = line_family(
            [standard_form([0.0, float(i)], [1, 0]) for i in range(K)], 1e-9
        )
        y = np.column_stack([np.full(K, 10.0), np.arange(K, dtype=float)])
        return fam, np.asarray(x, dtype=float), y

    def test_fullest_cell_ties_go_to_the_lowest_cell(self):
        # cells (0, 0) and (-1, -1) hold two x points each: the lower one wins
        x = [[0.01, 0.01], [-0.01, -0.01], [0.02, 0.02], [-0.02, -0.03], [0.5, 0.5]]
        fam, x, y = self.stacked_fixture(x)
        cert = furst.two_point_extract(fam, x, y, 0.1, 1.0, 1)
        assert cert.branch == "dichotomy-y"
        assert cert.line_indices == (1, 3)
        assert cert.meta["x_cells"] == 3

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=14))
    def test_fullest_cell_matches_counting_each_tuple(self, cells):
        delta = 0.01
        side = delta / np.sqrt(2.0)
        fam, x, y = self.stacked_fixture((np.array(cells) + 0.5) * side)
        keys = [tuple(row) for row in furst.util.snap_floor(x, side)]
        occupied = sorted(set(keys))
        best = min(occupied, key=lambda c: (-keys.count(c), c))
        cert = furst.two_point_extract(fam, x, y, delta, 2.0, 1)
        assert cert.branch == "dichotomy-y"
        assert cert.line_indices == tuple(i for i, c in enumerate(keys) if c == best)
        assert cert.meta["x_cells"] == len(occupied)


class TestThresholds:
    def test_reference_values(self):
        box, packing, hausdorff = furst.dimension_thresholds(2, 0.5, 1.0)
        assert box == 0.5
        assert packing == 0.5
        assert hausdorff == pytest.approx(1.25)

    def test_degenerate_s(self):
        box, _, _ = furst.dimension_thresholds(2, 0.0, 1.0)
        assert box == 0.0

    def test_higher_dimension(self):
        _, packing, _ = furst.dimension_thresholds(3, 1.0, 4.0)
        assert packing == 2.0

    def test_range_checks(self):
        with pytest.raises(InvalidParameter):
            furst.dimension_thresholds(1, 0.5, 1.0)
        with pytest.raises(InvalidParameter):
            furst.dimension_thresholds(2, 1.5, 1.0)
        with pytest.raises(InvalidParameter):
            furst.dimension_thresholds(2, 0.5, 2.5)


class TestTangentMargin:
    def test_holds_on_working_range(self):
        deltas = np.linspace(1e-6, 0.5, 10_000)
        margins = 4 * deltas - 2 * np.tan(deltas) - deltas
        assert np.all(margins >= 0)
        for d in (1e-6, 0.1, 0.5):
            assert furst.tangent_margin(d) >= 0

    def test_fails_beyond_one(self):
        assert furst.tangent_margin(1.4) < 0
