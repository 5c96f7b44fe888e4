from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import furst
from furst.errors import InvalidParameter, ResourceCap, UnsupportedScale


def enumerate_intervals(base, digits, k):
    """Brute-force oracle: surviving level-k intervals as exact fractions."""
    lefts = [Fraction(0)]
    for level in range(1, k + 1):
        lefts = [
            left + Fraction(d, base**level) for left in lefts for d in digits
        ]
    return sorted(lefts)


class TestCoveringCount:
    def test_middle_thirds_depth3_oracle(self):
        oracle = len(enumerate_intervals(3, (0, 2), 3))
        assert oracle == 8
        assert furst.covering_count(furst.CantorSpec(3, (0, 2)), 3) == 8

    def test_depth_zero(self):
        assert furst.covering_count(furst.CantorSpec(7, (1, 3)), 0) == 1

    def test_quarter_spec_oracle(self):
        spec = furst.CantorSpec(4, (0, 2))
        assert furst.covering_count(spec, 2) == len(enumerate_intervals(4, (0, 2), 2)) == 4
        assert spec.s == pytest.approx(0.5)

    def test_negative_depth(self):
        with pytest.raises(InvalidParameter):
            furst.covering_count(furst.CantorSpec(3, (0, 2)), -1)

    def test_multiplicative_law(self):
        spec = furst.CantorSpec(5, (0, 2, 4))
        for k in range(8):
            assert furst.covering_count(spec, k + 1) == 3 * furst.covering_count(spec, k)

    def test_exact_dimension_identity(self):
        spec = furst.CantorSpec(3, (0, 2))
        for k in range(1, 12):
            ratio = np.log(furst.covering_count(spec, k)) / (k * np.log(3))
            assert ratio == pytest.approx(spec.s, abs=1e-12)

    def test_at_scale(self):
        spec = furst.CantorSpec(3, (0, 2))
        assert furst.covering_count_at_scale(spec, 1.0) == 1
        assert furst.covering_count_at_scale(spec, 1 / 3) == 2
        assert furst.covering_count_at_scale(spec, 0.2) == 4


class TestPointsAtDepth:
    def test_first_level(self):
        pts = furst.points_at_depth(furst.CantorSpec(3, (0, 2)), 1)
        assert np.allclose(pts, [0, 2 / 3])

    def test_second_level_oracle(self):
        pts = furst.points_at_depth(furst.CantorSpec(3, (0, 2)), 2)
        oracle = [float(f) for f in enumerate_intervals(3, (0, 2), 2)]
        assert np.allclose(pts, oracle)
        assert np.allclose(pts, [0, 2 / 9, 2 / 3, 8 / 9])

    def test_full_interval_dyadic(self):
        pts = furst.points_at_depth(furst.CantorSpec(2, (0, 1)), 3)
        assert np.allclose(pts, np.arange(8) / 8)

    def test_nested_endpoints(self):
        spec = furst.CantorSpec(3, (0, 2))
        shallow = set(furst.points_at_depth(spec, 3))
        deep = set(furst.points_at_depth(spec, 4))
        assert shallow <= deep

    def test_separation(self):
        spec = furst.CantorSpec(5, (0, 3))
        pts = furst.points_at_depth(spec, 4)
        assert np.diff(pts).min() >= 5.0**-4 - 1e-15

    def test_cap(self):
        with mock.patch.object(furst.cantor, "DEFAULT_POINT_CAP", 100):
            with pytest.raises(ResourceCap) as err:
                furst.points_at_depth(furst.CantorSpec(2, (0, 1)), 10)
            furst.points_at_depth(furst.CantorSpec(2, (0, 1)), 6)  # 64 points
        assert "over the cap 100" in str(err.value)


class TestScaledCountCheck:
    def test_triadic_oracle(self):
        # grid count of E/3 at 3^-3 equals the depth-2 covering count
        spec = furst.CantorSpec(3, (0, 2))
        scaled = {f / 3 for f in enumerate_intervals(3, (0, 2), 3)}
        cells = {f // Fraction(1, 27) for f in scaled}
        witness = furst.scaled_count_check(spec, 3, 3)
        assert witness.scaled_count == len(cells) == 4
        assert witness.reference_count == 4
        assert witness.passed

    def test_identity_scaling(self):
        witness = furst.scaled_count_check(furst.CantorSpec(3, (0, 2)), 1, 5)
        assert witness.passed
        assert witness.scaled_count == witness.reference_count == 32

    def test_dyadic(self):
        witness = furst.scaled_count_check(furst.CantorSpec(2, (0, 1)), 2, 4)
        assert witness.passed
        assert witness.scaled_count == 8

    def test_non_power_rejected(self):
        with pytest.raises(UnsupportedScale):
            furst.scaled_count_check(furst.CantorSpec(3, (0, 2)), 2, 4)

    def test_scaling_beyond_depth_rejected(self):
        with pytest.raises(InvalidParameter):
            furst.scaled_count_check(furst.CantorSpec(3, (0, 2)), 27, 2)


class TestSpecForDimension:
    def test_exact_thirds(self):
        spec = furst.spec_for_dimension(np.log(2) / np.log(3))
        assert (spec.base, spec.digits) == (3, (0, 2))

    def test_full_and_empty(self):
        assert furst.spec_for_dimension(1.0).s == 1.0
        assert furst.spec_for_dimension(0.0).s == 0.0

    def test_near_target(self):
        for target in (0.3, 0.45, 0.7, 0.9):
            spec = furst.spec_for_dimension(target)
            assert abs(spec.s - target) < 0.01
            assert 0 in spec.digits

    def test_invariants(self):
        with pytest.raises(InvalidParameter):
            furst.CantorSpec(3, ())
        with pytest.raises(InvalidParameter):
            furst.CantorSpec(3, (0, 3))
        with pytest.raises(InvalidParameter):
            furst.CantorSpec(1, (0,))
