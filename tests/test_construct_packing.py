import warnings

import numpy as np
import pytest

import furst
from furst.construct_packing import (
    OPTION_LINES,
    OPTION_MARKS,
    line_spread_radius,
    mark_spread_radius,
)
from furst.errors import DegenerateStep, InvalidParameter, NotInFamily, SoundnessViolation

from line_reference import standard_form

DEMO_ETAS = (1.0, 1 / 16, 1 / 256, 1 / 4096)
# eta_{k+1} < eta_k^2, so both step factors exceed 1 for d=2, s=1/2, t=1
GROWING_ETAS = (1.0, 1 / 16, 2.0**-10, 2.0**-24)


def demo_schedule():
    return furst.ScaleSchedule(DEMO_ETAS, mode="demo")


def state_at(eta, s=0.5, t=1.0):
    st = furst.initial_state(2, s, t)
    return furst.MarkedLineState.from_arrays(
        0, eta, st.family.directions, st.family.translations, st.marks, s, t
    )


def greedy_net_oracle(radius, sep):
    """Independent greedy net in pure (angle, offset) l1 coordinates."""
    h = sep / 2.0
    span = int(np.floor(radius / h + 1e-12))
    kept = []
    for i in range(-span, span + 1):
        for j in range(-span, span + 1):
            if (abs(i) + abs(j)) * h > radius + 1e-15:
                continue
            p = (i * h, j * h)
            if all(
                abs(p[0] - q[0]) + abs(p[1] - q[1]) >= sep * (1 - 1e-12)
                for q in kept
            ):
                kept.append(p)
    return len(kept)


class TestScaleSchedule:
    def test_demo_accepts_and_rejects(self):
        demo_schedule()
        with pytest.raises(InvalidParameter):
            furst.ScaleSchedule((1.0, 1 / 8), mode="demo")  # drop < 16x

    def test_strict_decay(self):
        furst.ScaleSchedule((1.0, 1 / 16, 1 / 256, 2.0**-16), mode="strict")
        with pytest.raises(InvalidParameter):
            # eta_3 > eta_2^2 violates strict decay
            furst.ScaleSchedule(DEMO_ETAS, mode="strict")

    def test_must_start_at_one(self):
        with pytest.raises(InvalidParameter):
            furst.ScaleSchedule((0.5, 0.25))


class TestSpreadLines:
    def test_replacement_count_against_oracle(self):
        # eta_k = 1/4, eta_next = 1/4096, t = 1: ball radius 1/512
        st = state_at(0.25, t=1.0)
        eta_next = 1 / 4096
        assert line_spread_radius(st, eta_next) == pytest.approx(1 / 512)
        out = furst.spread_lines(st, eta_next)
        predicted = eta_next**-1.0 * 0.25**2
        assert predicted == 256
        assert predicted / 8 <= out.num_lines <= predicted * 8
        oracle = greedy_net_oracle(1 / 512, eta_next)
        assert oracle / 2 <= out.num_lines <= oracle * 2

    def test_count_law_bracket(self):
        st = state_at(0.25, t=1.0)
        for eta_next in (1 / 512, 1 / 4096):
            out = furst.spread_lines(st, eta_next)
            predicted = eta_next**-st.t * st.eta ** (2 * (st.d - 1))
            c = 4.0 ** (2 * (st.d - 1))
            assert predicted / c <= out.num_lines <= predicted * c

    def test_no_room_keeps_single_line(self):
        # t = 0 makes the ball radius fall below the separation
        st = state_at(0.25, t=0.0)
        out = furst.spread_lines(st, 1 / 4096)
        assert out.num_lines == 1

    def test_mark_transfer_multiplicity(self):
        # transferred marks of one old mark cover about
        # eta_next^{-t/2} * eta_k^{d-1} cells at the new scale
        st = state_at(0.25, t=1.0)
        eta_next = 1 / 4096
        out = furst.spread_lines(st, eta_next)
        assert all(m.shape[0] == 1 for m in out.marks)
        cells = furst.grid_count(
            furst.PointCloud(out.all_marks(), eta_next / 4), eta_next
        )
        predicted = eta_next**-0.5 * 0.25
        assert predicted / 4 <= cells <= predicted * 4

    def test_degenerate_scale_rejected(self):
        st = state_at(0.25)
        with pytest.raises(DegenerateStep):
            furst.spread_lines(st, 0.5)


class TestSpreadMarks:
    def test_per_mark_count(self):
        st = state_at(0.25, s=0.5)
        eta_next = 1 / 4096
        assert mark_spread_radius(st, eta_next) == pytest.approx(1 / 512)
        out = furst.spread_marks(st, eta_next)
        predicted = eta_next**-0.5 * 0.25  # = 16
        assert out.num_marks == pytest.approx(predicted, rel=0.25)
        assert predicted / 4 <= out.num_marks <= predicted * 4

    def test_saturating_marks_fill_segment(self):
        st = state_at(1.0, s=1.0)
        delta = 1 / 64
        out = furst.spread_marks(st, delta)
        # s = 1: the run fills [-1/2, 1/2] at spacing delta, so the count is
        # about delta^{-1}/2 up to the lattice constant
        target = 0.5 / delta
        assert target / 4 <= out.num_marks <= target * 4

    def test_lines_unchanged(self):
        st = state_at(0.25)
        out = furst.spread_marks(st, 1 / 4096)
        for name in ("directions", "translations"):
            assert np.array_equal(getattr(out.family, name), getattr(st.family, name))

    def test_adjacent_runs_rethinned(self):
        # two marks eta apart with s = 1 produce touching runs; the result
        # must still be eta_next-separated on the line
        marks = [np.array([[0.0, 0.0], [0.25, 0.0]])]
        st = furst.MarkedLineState.from_arrays(
            0, 0.25, [[1.0, 0.0]], [[0.0, 0.0]], marks, 1.0, 1.0
        )
        out = furst.spread_marks(st, 1 / 64)
        out.check_separations()


class TestRunAlternating:
    def test_k0_single_marked_line(self):
        states = furst.run_alternating(2, 0.5, 1.0, furst.ScaleSchedule((1.0,)))
        assert len(states) == 1
        assert states[0].num_lines == 1
        assert states[0].num_marks == 1
        assert np.allclose(states[0].marks[0], 0.0)

    def test_demo_trajectory_counts(self):
        states = furst.run_alternating(2, 0.5, 1.0, demo_schedule())
        assert [st.num_lines for st in states] == [1, 16, 16, 16]
        assert [st.num_marks for st in states] == [1, 16, 16, 16]
        assert states[1].history == (OPTION_LINES,)
        assert states[2].history == (OPTION_LINES, OPTION_MARKS)
        # realized per-step factors within the accumulated constant factor
        for k in range(3):
            option = states[k + 1].history[-1]
            fl, fm = furst.predicted_step_factors(
                states[k], states[k + 1].eta, option
            )
            if option == OPTION_LINES:
                realized = states[k + 1].num_lines / states[k].num_lines
                assert fl / 16 <= realized <= fl * 16
            else:
                realized = states[k + 1].num_marks / states[k].num_marks
                assert fm / 16 <= realized <= fm * 16

    def test_growing_trajectory(self):
        states = furst.run_alternating(
            2, 0.5, 1.0, furst.ScaleSchedule(GROWING_ETAS, mode="demo")
        )
        counts = [(st.num_lines, st.num_marks) for st in states]
        assert counts == [(1, 1), (16, 16), (16, 48), (240, 720)]
        for prev, nxt in zip(states, states[1:]):
            if nxt.history[-1] == OPTION_LINES:
                assert nxt.num_lines / prev.num_lines > 1
            else:
                assert nxt.num_marks / prev.num_marks > 1

    def test_separations_hold(self):
        states = furst.run_alternating(2, 0.5, 1.0, demo_schedule())
        for st in states:
            st.check_separations()

    def test_nesting_of_neighborhoods(self):
        # every new mark sits within 5*eta_k - 5*eta_{k+1} of an old mark,
        # so the 5-eta neighborhoods nest
        states = furst.run_alternating(2, 0.5, 1.0, demo_schedule())
        for k in range(len(states) - 1):
            old = states[k].all_marks()
            new = states[k + 1].all_marks()
            dists = np.linalg.norm(
                new[:, None, :] - old[None, :, :], axis=2
            ).min(axis=1)
            assert dists.max() <= 5 * states[k].eta - 5 * states[k + 1].eta

    def test_marks_first_option(self):
        states = furst.run_alternating(
            2, 0.5, 1.0, furst.ScaleSchedule((1.0, 1 / 16), "demo"),
            first_option=OPTION_MARKS,
        )
        assert states[1].history == (OPTION_MARKS,)
        assert states[1].num_lines == 1
        assert states[1].num_marks == 5

    def test_caps(self):
        with pytest.raises(furst.errors.ResourceCap):
            furst.run_alternating(
                2, 0.5, 1.0, demo_schedule(), max_lines=4
            )

    def test_strict_schedule_trajectory(self):
        # the full decay condition, two steps deep
        sched = furst.ScaleSchedule((1.0, 1 / 16, 2.0**-16), mode="strict")
        states = furst.run_alternating(2, 0.5, 1.0, sched)
        assert states[1].num_lines == 16
        predicted = (2.0**-16) ** -0.5 * (1 / 16)  # mark factor of the B step
        realized = states[2].num_marks / states[1].num_marks
        assert predicted / 4 <= realized <= predicted * 4
        for st in states:
            st.check_separations()


def parallel_state(n, eta=0.01):
    """n horizontal lines eta apart, one mark each: eta-separated."""
    trans = np.array([[0.0, i * eta] for i in range(n)])
    dirs = np.tile([1.0, 0.0], (n, 1))
    return furst.MarkedLineState.from_arrays(
        1, eta, dirs, trans, list(trans[:, None, :]), 0.5, 1.0
    )


class TestSampledSeparation:
    """Line separation used to be sampled above 1,500 lines; now every pair counts."""

    def test_exhaustive_check_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parallel_state(1501).check_separations()

    def test_pair_outside_the_old_sample_is_found(self):
        # lines 700 and 1400 are 1e-4 apart; the old check sampled 15,010 of
        # the 1,125,750 pairs and measured only the consecutive ones for sure
        state = parallel_state(1501)
        trans = state.family.translations.copy()
        trans[1400] = [0.0, 7.0001]
        moved = furst.MarkedLineState.from_arrays(
            1, state.eta, state.family.directions, trans, list(trans[:, None, :]),
            0.5, 1.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SoundnessViolation, match=r"^lines 700,1400 at distance 1\.000e-04"):
                moved.check_separations()


class TestNeighborhoodCounts:
    def setup_method(self):
        self.states = furst.run_alternating(2, 0.5, 1.0, demo_schedule())

    def test_envelope_collapses_at_eta_k(self):
        nc = furst.neighborhood_counts(self.states, 1, DEMO_ETAS[1])
        base = furst.grid_count(
            self.states[1].mark_cloud(DEMO_ETAS[1] / 4), DEMO_ETAS[1]
        )
        from furst.construct_packing import ENVELOPE_CONSTANT

        assert nc.predicted_points == pytest.approx(ENVELOPE_CONSTANT * base)

    def test_measured_within_envelope_at_geometric_mean(self):
        for k in (1, 2):
            delta = float(np.sqrt(DEMO_ETAS[k] * DEMO_ETAS[k + 1]))
            nc = furst.neighborhood_counts(self.states, k, delta)
            assert nc.points_within
            assert nc.lines_within

    def test_exponent_cap(self):
        # log(count)/log(1/delta) <= max(s, t/2) + slack at tested scales
        for k in (1, 2):
            delta = float(np.sqrt(DEMO_ETAS[k] * DEMO_ETAS[k + 1]))
            nc = furst.neighborhood_counts(self.states, k, delta)
            expo = np.log(nc.measured_points) / np.log(1.0 / delta)
            assert expo <= max(0.5, 0.5) + 0.25

    def test_domain_error(self):
        with pytest.raises(InvalidParameter):
            furst.neighborhood_counts(self.states, 1, DEMO_ETAS[0])
        with pytest.raises(InvalidParameter):
            furst.neighborhood_counts(self.states, 1, DEMO_ETAS[2])


class TestIntersectionProfile:
    def test_construction_line_counts_its_marks(self):
        states = furst.run_alternating(2, 0.5, 1.0, demo_schedule())
        family = states[2].family
        probe = family.directions[3], family.translations[3]
        prof = furst.intersection_profile(states, *probe, DEMO_ETAS[2])
        assert prof.count == states[2].marks[3].shape[0]
        assert prof.passed

    def test_single_mark_spread_profile(self):
        # one spread-marks step: the profile matches eta_1^{-s} within 4x
        sched = furst.ScaleSchedule((1.0, 1 / 16), "demo")
        states = furst.run_alternating(
            2, 0.5, 1.0, sched, first_option=OPTION_MARKS
        )
        family = states[1].family
        prof = furst.intersection_profile(
            states, family.directions[0], family.translations[0], 1 / 16
        )
        target = (1 / 16) ** -0.5
        assert target / 4 <= prof.count <= target * 4

    def test_perturbed_probe_unchanged(self):
        sched = furst.ScaleSchedule((1.0, 1 / 16), "demo")
        states = furst.run_alternating(
            2, 0.5, 1.0, sched, first_option=OPTION_MARKS
        )
        v, a = states[1].family.directions[0], states[1].family.translations[0]
        normal = np.array([-v[1], v[0]])
        base = furst.intersection_profile(states, v, a, 1 / 16)
        moved = furst.intersection_profile(states, v, a + (1 / 32) * normal, 1 / 16)
        assert moved.count == base.count

    def test_far_probe_rejected(self):
        states = furst.run_alternating(2, 0.5, 1.0, demo_schedule())
        probe = standard_form([0, 0.9], [0, 1])
        with pytest.raises(NotInFamily):
            furst.intersection_profile(states, *probe, DEMO_ETAS[3])
