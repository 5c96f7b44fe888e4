"""Packing states held as arrays: the states.json codec and the separation checks.

A `MarkedLineState` holds one `LineFamily` and one marks array with
per-line counts.  `write_states` and `read_states` must give back every
direction, translation and mark bit for bit, with the same counts, k, eta
and history.  `check_separations` must report each kind of violation with
the message of the per-line loop it had when a state held a tuple of
one-row lines, copied here as `tuple_state_check` over
`line_reference.affine_line` pairs.  No `assert` here: every
check raises through `expect`, so these tests check the same under
python -O.
"""

import math

import numpy as np
import pytest

import furst
from furst import construct_packing, grassmann
from furst.construct_packing import SEPARATION_TOL, MarkedLineState, read_states, write_states
from furst.errors import InvalidParameter, SoundnessViolation

from line_reference import affine_line

DEMO_ETAS = (1.0, 1 / 16, 1 / 256, 1 / 4096)
GROWING_ETAS = (1.0, 1 / 16, 2.0**-10)
PARAMS = {2: (0.5, 1.0), 3: (0.5, 2.0)}


def expect(ok, what):
    if not ok:
        raise AssertionError(what)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def trajectory(d, etas):
    s, t = PARAMS[d]
    sched = furst.ScaleSchedule(etas, mode="demo" if etas == DEMO_ETAS else "strict")
    return sched, furst.run_alternating(d, s, t, sched)


# the codec


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("etas", [DEMO_ETAS, GROWING_ETAS], ids=["demo", "growing"])
def test_states_round_trip_bit_for_bit(tmp_path, d, etas):
    sched, states = trajectory(d, etas)
    path = tmp_path / "states.json"
    write_states(path, sched, states)
    back = read_states(path)
    expect(len(back) == len(states), "one state read per state written")
    for got, want in zip(back, states):
        expect((got.k, got.eta, got.history) == (want.k, want.eta, want.history),
               f"k, eta and history of state {want.k}")
        expect((got.d, got.s, got.t) == (want.d, want.s, want.t), "d, s and t")
        expect(got.family.resolution_floor == want.eta / 4.0, "line floor eta/4")
        for name in ("directions", "translations"):
            expect(same_bits(getattr(got.family, name), getattr(want.family, name)),
                   f"{name} of state {want.k}")
        expect(same_bits(got.counts, want.counts), f"counts of state {want.k}")
        expect(same_bits(got.points, want.points), f"marks of state {want.k}")
        expect(all(same_bits(g, w) for g, w in zip(got.marks, want.marks)),
               f"per-line marks of state {want.k}")
    write_states(tmp_path / "again.json", sched, back)
    expect((tmp_path / "again.json").read_bytes() == path.read_bytes(),
           "writing the states read back gives the same bytes")


def test_marks_are_read_only_views_of_one_array():
    _, states = trajectory(2, GROWING_ETAS)
    final = states[-1]
    expect(final.all_marks() is final.points, "all_marks returns the held array")
    expect(not final.points.flags.writeable, "the marks array is read-only")
    expect(all(np.shares_memory(m, final.points) for m in final.marks),
           "each line's marks are a view")
    expect([len(m) for m in final.marks] == final.counts.tolist(), "views follow the counts")
    expect(final.line_family() is final.family, "line_family() at eta/4 is the held family")
    other = final.line_family(final.eta / 8)
    expect(other.directions is final.family.directions
           and other.resolution_floor == final.eta / 8, "another floor wraps the arrays")
    expect(final.mark_cloud().points is final.points, "mark_cloud wraps the marks")
    expect(final.mark_cloud(final.eta / 8).resolution_floor == final.eta / 8,
           "mark_cloud takes a floor")


# the orthogonality check of a line net against the one-row check, kept row by kept row


@pytest.mark.parametrize("d", [2, 3])
def test_net_orthogonality_check_matches_affine_line(monkeypatch, d):
    state = trajectory(d, GROWING_ETAS)[1][-1]
    v0, a0 = state.family.directions[-1], state.family.translations[-1]
    net = (v0, a0, construct_packing.line_spread_radius(state, 2.0**-24), 2.0**-24)
    dirs, trans = construct_packing._line_net(*net)
    dots = [float(a @ v) for v, a in zip(dirs, trans)]  # affine_line's test, per row
    tol = max(abs(x) for x in dots) / 2
    expect(tol > 0.0, "some kept translation is off orthogonal by rounding")
    first = next(x for x in dots if abs(x) > tol)
    with monkeypatch.context() as m:
        m.setattr(grassmann, "ORTHO_TOL", tol)
        try:
            construct_packing._line_net(*net)
        except InvalidParameter as exc:
            got = str(exc)
        else:
            got = None
        row = dots.index(first)
        try:
            affine_line(dirs[row], trans[row])
        except InvalidParameter as exc:
            want = str(exc)
    expect(got == want, f"{got!r} != {want!r}")
    with monkeypatch.context() as m:  # a dot equal to the tolerance passes
        m.setattr(grassmann, "ORTHO_TOL", 2 * tol)
        construct_packing._line_net(*net)


# mark spreading against the per-line loop of tuple states


def tuple_state_spread_marks(dirs, trans, marks, eta, s, eta_next):
    """spread_marks' new marks when a state held one vector per line and marks per line."""
    reach = eta_next ** (1.0 - s) * eta / 2.0
    n_off = int(math.floor(reach / eta_next + 1e-12))
    offsets = np.arange(-n_off, n_off + 1) * eta_next
    out = []
    for v, a, m in zip(dirs, trans, marks):
        v, a, m = np.array(v), np.array(a), np.array(m)  # standalone, as each line held them
        positions = np.sort(m @ v)
        spread = (positions[:, None] + offsets[None, :]).ravel()
        spread.sort()
        kept = [spread[0]]
        for p in spread[1:]:
            if p - kept[-1] >= eta_next * (1.0 - SEPARATION_TOL):
                kept.append(p)
        out.append(a + np.outer(np.array(kept), v))
    return out


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("s", [0.5, 1.0])
def test_spread_marks_matches_the_tuple_state_loop(d, s):
    # the final states hold 3 marks a line, whose products marks_i @ v_i a
    # stacked form would round differently; s = 1 spreads each mark to 17
    final = trajectory(d, GROWING_ETAS)[1][-1]
    state = MarkedLineState.from_arrays(
        final.k, final.eta, final.family.directions, final.family.translations,
        final.marks, s, final.t, final.history,
    )
    eta_next = final.eta / 16
    got = furst.spread_marks(state, eta_next)
    want = tuple_state_spread_marks(final.family.directions, final.family.translations,
                                    final.marks, final.eta, s, eta_next)
    expect(got.num_marks == sum(len(m) for m in want), "mark count")
    expect(all(same_bits(g, w) for g, w in zip(got.marks, want)), "marks bit for bit")


# the separation checks against the per-line loop of tuple states


def tuple_state_check(lines, marks, eta, tol=SEPARATION_TOL):
    """check_separations of a state holding (direction, translation) pairs and per-line marks."""
    floor = eta * (1.0 - tol)
    close = grassmann.first_close_pair(
        np.array([v for v, _ in lines]), np.array([a for _, a in lines]), floor
    )
    if close is not None:
        i, j, dist = close
        raise SoundnessViolation(f"lines {i},{j} at distance {dist:.3e} < eta {eta:.3e}")
    for i, ((v, a), m) in enumerate(zip(lines, marks)):
        if m.shape[0] < 1:
            raise SoundnessViolation(f"line {i} lost all marks")
        off = grassmann._point_line_distances(np.atleast_2d(m), v, a)
        if not off.max() <= 1e-9:
            raise SoundnessViolation(f"marks strayed from line {i}")
        if m.shape[0] > 1:
            proj = m @ v
            gaps = np.diff(np.sort(proj))
            if not gaps.min() >= floor:
                raise SoundnessViolation(f"marks on line {i} at gap {gaps.min():.3e} < eta")


def message(check):
    try:
        check()
    except SoundnessViolation as exc:
        return str(exc)
    return None


def normal(v):
    """A unit vector orthogonal to v."""
    return grassmann._gram_schmidt_frame(v)[0]


def broken(state, kind, i):
    """The lines and per-line marks of `state` with one violation of `kind` at line i."""
    dirs = state.family.directions.copy()
    trans = state.family.translations.copy()
    marks = [m.copy() for m in state.marks]
    v, eta = dirs[i], state.eta
    if kind == "close lines":  # line i moved next to line j, same direction
        j = (i + 1) % len(dirs)
        dirs[i], trans[i] = dirs[j], trans[j] + 1e-3 * eta * normal(dirs[j])
        marks[i] = trans[i][None, :]
    elif kind == "no marks":
        marks[i] = marks[i][:0]
    elif kind == "mark off its line":
        marks[i][-1] += 1e-6 * normal(v)
    elif kind == "mark gap":  # a second mark half a scale along the line
        marks[i] = np.vstack([marks[i][:1], marks[i][:1] + 0.5 * eta * v])
    lines = [affine_line(a, b) for a, b in zip(dirs, trans)]
    return lines, marks


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["close lines", "no marks", "mark off its line", "mark gap"])
def test_each_violation_has_the_tuple_state_message(d, kind):
    _, states = trajectory(d, GROWING_ETAS)
    state = states[-1]
    for i in (0, state.num_lines // 2, state.num_lines - 1):
        lines, marks = broken(state, kind, i)
        want = message(lambda: tuple_state_check(lines, marks, state.eta))
        expect(want is not None, f"{kind} at line {i} is a violation")
        arrays = MarkedLineState.from_arrays(
            state.k, state.eta,
            np.array([v for v, _ in lines]),
            np.array([a for _, a in lines]),
            marks, state.s, state.t, state.history,
        )
        got = message(arrays.check_separations)
        expect(got == want, f"{kind} at line {i}: {got!r} != {want!r}")


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("etas", [DEMO_ETAS, GROWING_ETAS], ids=["demo", "growing"])
def test_constructed_states_pass_both_checks(d, etas):
    for state in trajectory(d, etas)[1]:
        lines = [affine_line(v, a)
                 for v, a in zip(state.family.directions, state.family.translations)]
        expect(message(lambda: tuple_state_check(lines, state.marks, state.eta)) is None,
               f"state {state.k} passes the tuple-state loop")
        expect(message(state.check_separations) is None, f"state {state.k} passes")


@pytest.mark.parametrize("d", [2, 3])
def test_gap_test_decides_on_the_per_line_products(d):
    # three marks a floor apart along a line: the computed gaps straddle the
    # floor by a few ulps, so the rounding of marks_i @ v_i decides the test
    final = trajectory(d, GROWING_ETAS)[1][-1]
    floor = final.eta * (1.0 - SEPARATION_TOL)
    rng = np.random.default_rng(d)
    outcomes = set()
    for v, a in zip(final.family.directions, final.family.translations):
        line = affine_line(v, a)
        v = line[0]
        for x in rng.uniform(-0.5, 0.5, 20):
            marks = [a + (x + floor * np.arange(3))[:, None] * v]
            want = message(lambda: tuple_state_check([line], marks, final.eta))
            state = MarkedLineState.from_arrays(1, final.eta, [v], [a], marks, 0.5, 1.0)
            got = message(state.check_separations)
            expect(got == want, f"{got!r} != {want!r}")
            outcomes.add(want is None)
    expect(outcomes == {True, False}, "some lines pass the gap test and some fail")
