import warnings
from itertools import product

import numpy as np
import pytest

import furst
from furst.errors import (
    InsufficientData,
    InvalidParameter,
    InvalidScale,
    StaleResolution,
)


def on_x_axis(values):
    v = np.asarray(values, dtype=float)
    return np.column_stack([v, np.zeros_like(v)])


class TestGridCount:
    def test_single_point(self):
        cloud = furst.PointCloud([[0.3, 0.7]], 1e-9)
        for delta in (0.5, 0.1, 0.01):
            assert furst.grid_count(cloud, delta) == 1

    def test_triadic_cloud_counts_surviving_intervals(self):
        # oracle: depth-5 endpoints fall into exactly the 8 depth-3 cells
        spec = furst.CantorSpec(3, (0, 2))
        pts = furst.points_at_depth(spec, 5)
        oracle = len({int(p * 27) for p in pts})
        assert oracle == 8
        cloud = furst.PointCloud(on_x_axis(pts), 1e-9)
        assert furst.grid_count(cloud, 3.0**-3 * np.sqrt(2)) == 8

    def test_unit_lattice(self):
        pts = np.array([[i / 10, j / 10] for i in range(10) for j in range(10)])
        cloud = furst.PointCloud(pts, 1e-9)
        assert furst.grid_count(cloud, 0.1 * np.sqrt(2)) == 100

    def test_below_floor_rejected(self):
        cloud = furst.PointCloud([[0.0, 0.0]], 0.01)
        with pytest.raises(StaleResolution):
            furst.grid_count(cloud, 0.001)

    def test_boundary_points_stable(self):
        # 2/3 sits exactly on a cell boundary of width 1/27
        cloud = furst.PointCloud([[2 / 3]], 1e-12)
        assert furst.grid_count(cloud, 1 / 27) == 1

    def test_monotone_in_scale(self):
        rng = np.random.default_rng(1)
        cloud = furst.PointCloud(rng.uniform(0, 1, (500, 2)), 1e-9)
        counts = [furst.grid_count(cloud, 2.0**-j) for j in range(1, 9)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_halving_bracket(self):
        rng = np.random.default_rng(2)
        cloud = furst.PointCloud(rng.uniform(0, 1, (400, 2)), 1e-9)
        for delta in (0.4, 0.2, 0.1):
            n1 = furst.grid_count(cloud, delta)
            n2 = furst.grid_count(cloud, delta / 2)
            assert n1 <= n2 <= 6**2 * n1

    def test_translation_stability(self):
        rng = np.random.default_rng(3)
        cloud = furst.PointCloud(rng.uniform(0, 1, (300, 2)), 1e-9)
        for shift in ([0.137, -2.4], [10.0, 10.0], [-0.05, 0.003]):
            moved = cloud.translated(shift)
            for delta in (0.3, 0.08):
                a = furst.grid_count(cloud, delta)
                b = furst.grid_count(moved, delta)
                assert a / 2**2 <= b <= a * 2**2


class TestDyadicSchedule:
    def test_half_down_to_006(self):
        assert furst.dyadic_schedule(0.5, 0.06) == [0.5, 0.25, 0.125, 0.0625]

    def test_degenerate_single(self):
        assert furst.dyadic_schedule(0.5, 0.5) == [0.5]

    def test_quarter_to_sixtyfourth(self):
        sched = furst.dyadic_schedule(0.25, 1 / 64)
        assert len(sched) == 5
        assert sched[0] == 0.25 and sched[-1] == 1 / 64

    def test_empty_range(self):
        with pytest.raises(InvalidParameter):
            furst.dyadic_schedule(0.3, 0.26)
        with pytest.raises(InvalidParameter):
            furst.dyadic_schedule(0.06, 0.5)


class TestEstimateDimension:
    def test_middle_thirds_slope(self):
        spec = furst.CantorSpec(3, (0, 2))
        pts = furst.points_at_depth(spec, 10).reshape(-1, 1)
        cloud = furst.PointCloud(pts, 4 * 3.0**-10)
        report = furst.estimate_dimension(cloud, [3.0**-k for k in range(2, 9)])
        assert report.slope == pytest.approx(np.log(2) / np.log(3), abs=0.02)
        assert report.residual < 0.01

    def test_single_point_slope_zero(self):
        cloud = furst.PointCloud([[0.2, 0.9]], 1e-9)
        report = furst.estimate_dimension(cloud, [0.25, 0.125, 0.0625])
        assert report.slope == 0.0

    def test_segment_slope_one(self):
        pts = (np.arange(1024) / 1024).reshape(-1, 1)
        cloud = furst.PointCloud(pts, 2.0**-10)
        report = furst.estimate_dimension(cloud, [2.0**-j for j in range(2, 9)])
        assert report.slope == pytest.approx(1.0, abs=0.02)

    def test_too_few_scales(self):
        cloud = furst.PointCloud([[0.0]], 1e-9)
        with pytest.raises(InsufficientData):
            furst.estimate_dimension(cloud, [0.5, 0.25])

    def test_empty_cloud_rejected(self):
        cloud = furst.PointCloud(np.empty((0, 2)), 1e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientData):
                furst.estimate_dimension(cloud, [0.5, 0.25, 0.125])

    def test_floor_enforced(self):
        cloud = furst.PointCloud([[0.0]], 0.01)
        with pytest.raises(StaleResolution):
            furst.estimate_dimension(cloud, [0.5, 0.25, 0.001])

    def test_slope_within_ambient_dimension(self):
        rng = np.random.default_rng(8)
        for d in (1, 2):
            cloud = furst.PointCloud(rng.uniform(0, 1, (2000, d)), 1e-9)
            report = furst.estimate_dimension(cloud, [2.0**-j for j in range(1, 7)])
            assert -1e-9 <= report.slope <= d + 1e-9

    def test_report_serialization(self, tmp_path):
        cloud = furst.PointCloud((np.arange(64) / 64).reshape(-1, 1), 2.0**-8)
        report = furst.estimate_dimension(cloud, [2.0**-j for j in range(2, 7)])
        report.write(tmp_path / "cover")
        header = (tmp_path / "cover.csv").read_text().splitlines()[0]
        assert header == "delta,count,log_inv_delta,log_count"
        import json

        side = json.loads((tmp_path / "cover.json").read_text())
        assert set(side) == {"slope", "residual", "fit_range"}


class TestCoverReportInvariants:
    def test_rejects_nonmonotone_counts(self):
        with pytest.raises(InvalidParameter):
            furst.CoverReport(
                deltas=(0.5, 0.25), counts=(5, 3), slope=0.0, residual=0.0,
                fit_range=(0.5, 0.25),
            )

    def test_rejects_increasing_scales(self):
        with pytest.raises(InvalidParameter):
            furst.CoverReport(
                deltas=(0.25, 0.5), counts=(3, 5), slope=0.0, residual=0.0,
                fit_range=(0.25, 0.5),
            )

    def test_invalid_cloud(self):
        with pytest.raises(InvalidParameter):
            furst.PointCloud([[np.inf, 0.0]], 1e-9)
        with pytest.raises(InvalidParameter):
            furst.PointCloud([[0.0, 0.0]], 0.0)
        with pytest.raises(InvalidScale):
            furst.grid_count(furst.PointCloud([[0.0]], 1e-12), -0.5)

    def test_zero_column_cloud_rejected(self):
        # [] used to become one point in zero dimensions, counted as 1
        for pts in ([], [[]], np.empty((0, 0)), np.empty((3, 0))):
            with pytest.raises(InvalidParameter):
                furst.PointCloud(pts, 1e-9)
        empty = furst.PointCloud(np.empty((0, 2)), 1e-9)
        assert len(empty) == 0 and empty.dim == 2
        assert furst.grid_count(empty, 0.5) == 0

    def test_cached_values_match_their_expressions(self):
        # around the 16,384-row blocks the radius is reduced in, with the
        # farthest point anywhere, then last, then last in the first block;
        # numpy sums rows of 8 or more entries pairwise, so 7, 8 and 9
        # columns sit on either side of the radius's two branches
        cases = product((2, 3, 7, 8, 9), (1, 1000, 16_384, 16_385, 100_000),
                        (None, -1, 16_383))
        for d, rows, far in cases:
            pts = np.random.default_rng(rows).normal(size=(rows, d))
            if far is not None and rows > abs(far):
                pts[far] = 10.0 / np.sqrt(d) * np.random.default_rng(d).normal(size=d)
            cloud = furst.PointCloud(pts, 1e-9)
            assert np.array_equal(cloud.column_bounds, [pts.min(axis=0), pts.max(axis=0)])
            assert cloud.radius == float(np.linalg.norm(pts, axis=1).max())
            assert cloud.radius is cloud.radius
