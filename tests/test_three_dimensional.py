"""Integration checks for the d = 3 code paths.

The planar fast paths (angle buckets, perpendicular frames) are bypassed
here, so these exercise the generic direction nets, Gram-Schmidt bucket
frames, and tangent-space line nets.
"""

import numpy as np
import pytest

import furst
from furst.grassmann import _point_line_distances

SPEC = furst.BoxSharpSpec(
    d=3, cantor=furst.CantorSpec(3, (0, 2)), t=2.5, M=4, N=4, depth=3, seed=7
)


@pytest.fixture(scope="module")
def artifacts():
    return furst.build_points(SPEC), furst.build_lines(SPEC)


class TestBoxConstruction3D:
    def test_shapes_and_standard_form(self, artifacts):
        cloud, family = artifacts
        assert cloud.points.shape == (4 * 4 * 8, 3)
        assert len(family) == 16
        inner = np.abs(
            np.einsum("ij,ij->i", family.directions, family.translations)
        )
        assert inner.max() <= 1e-12

    def test_every_line_meets_its_copy(self, artifacts):
        cloud, family = artifacts
        for i in range(len(family)):
            dist = _point_line_distances(
                cloud.points, family.directions[i], family.translations[i]
            )
            assert (dist <= 1e-12).sum() >= 8

    def test_mesh_counting_with_bucket_frames(self, artifacts):
        _, family = artifacts
        coarse = furst.mesh_cover_count(family, 0.5)
        fine = furst.mesh_cover_count(family, family.resolution_floor)
        assert 1 <= coarse <= fine <= len(family)

    def test_pigeonhole_sound(self, artifacts):
        cloud, family = artifacts
        for delta in (0.2, 0.1):
            cert = furst.pigeonhole_extract(family, cloud, delta)
            assert cert.min_witness_separation() >= delta
            assert cert.bound <= 3**3 * furst.grid_count(cloud, delta)

    def test_product_translations_reach_both_axes(self):
        seq = furst.make_translations(3, 1.5, 20)
        # beta = 1.5 splits as 1.0 + 0.5 over the two orthocomplement axes
        assert np.all(seq.vectors[:, 0] == 0.0)
        assert (seq.vectors[:, 1] > 0).any()
        assert (seq.vectors[:, 2] > 0).any()
        assert len({tuple(v) for v in seq.vectors}) == 20


class TestPackingConstruction3D:
    def test_line_spreading_step(self):
        schedule = furst.ScaleSchedule((1.0, 1 / 16), "demo")
        states = furst.run_alternating(3, 0.5, 2.0, schedule)
        state = states[1]
        predicted = (1 / 16) ** -2.0  # eta_1^{-t} * eta_0^{2(d-1)}
        c = 4.0 ** (2 * (3 - 1))
        assert predicted / c <= state.num_lines <= predicted * c
        state.check_separations()

    def test_mark_spreading_step(self):
        schedule = furst.ScaleSchedule((1.0, 1 / 16), "demo")
        states = furst.run_alternating(3, 0.5, 2.0, schedule)
        follow = furst.spread_marks(states[1], 1 / 256)
        follow.check_separations()
        assert follow.num_lines == states[1].num_lines
