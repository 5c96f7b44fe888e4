"""The packing construction and its separation checks equal their plain forms.

The package builds each line net's lattice and candidates as arrays,
measures a candidate against all kept lines with one `line_distances`
call, transfers a net's marks in one pass and checks line separation by a
cell search (`grassmann.first_close_pair`); `packing_reference` holds the
candidate-at-a-time forms with the scalar metric and the loop over every
pair.  Lines, marks, distances and first violations must be identical, bit
for bit.  These tests also run under the oldest numpy that pyproject
allows, and under python -O.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import furst
from furst import grassmann
from furst.construct_packing import SEPARATION_TOL, MarkedLineState
from furst.errors import InvalidParameter, SoundnessViolation
from furst.verifier import _require_separated_lines

import packing_reference as ref
from line_reference import affine_line, canonical_vector, line_family, standard_form

DEMO_ETAS = (1.0, 1 / 16, 1 / 256, 1 / 4096)
GROWING_ETAS = (1.0, 1 / 16, 2.0**-10, 2.0**-24)
PARAMS = {2: (0.5, 1.0), 3: (0.5, 2.0)}


def bits(a) -> bytes:
    a = np.ascontiguousarray(a, dtype=float)
    return str(a.shape).encode() + a.tobytes()


def assert_same_state(got, want):
    assert (got.k, got.eta, got.history) == (want.k, want.eta, want.history)
    assert (got.d, got.s, got.t) == (want.d, want.s, want.t)
    assert bits(got.family.directions) == bits(want.family.directions)
    assert bits(got.family.translations) == bits(want.family.translations)
    assert got.family.resolution_floor == want.family.resolution_floor
    assert got.counts.tolist() == want.counts.tolist()
    assert bits(got.points) == bits(want.points)
    assert [bits(m) for m in got.marks] == [bits(m) for m in want.marks]


def schedule(etas):
    return furst.ScaleSchedule(etas, mode="demo" if etas == DEMO_ETAS else "strict")


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("etas", [DEMO_ETAS, GROWING_ETAS], ids=["demo", "growing"])
def test_trajectory_matches_reference(d, etas):
    s, t = PARAMS[d]
    # the d = 3 growing net step takes the reference about 12 s in all;
    # its first two steps are compared here, its last in the test below
    steps = etas[:3] if (d, etas) == (3, GROWING_ETAS) else etas
    got = furst.run_alternating(d, s, t, schedule(steps))
    want = ref.run_alternating(d, s, t, steps)
    for g, w in zip(got, want):
        assert_same_state(g, w)


def test_growing_net_step_in_three_dimensions_matches_reference():
    s, t = PARAMS[3]
    states = furst.run_alternating(3, s, t, schedule(GROWING_ETAS[:3]))
    parents = states[-1]
    picked = [0, parents.num_lines // 2, parents.num_lines - 1]
    sub = MarkedLineState.from_arrays(
        parents.k, parents.eta,
        parents.family.directions[picked], parents.family.translations[picked],
        [parents.marks[i] for i in picked], s, t, parents.history,
    )
    got = furst.spread_lines(sub, GROWING_ETAS[3])
    assert got.num_lines > 3 * 50  # a full net around each parent
    assert_same_state(got, ref.spread_lines(sub, GROWING_ETAS[3]))


# the kernel against the scalar metric


ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0]), st.floats(1e-6, 2.0), st.floats(-2.0, -1e-6)
)


def rows(draw, d, n):
    """An (n, d) array whose entries include +0.0 and -0.0."""
    return draw(hnp.arrays(float, (n, d), elements=ENTRIES))


@st.composite
def line_pairs(draw):
    d = draw(st.integers(2, 4))
    n = draw(st.integers(1, 6))
    u = rows(draw, d, n)
    kind = draw(st.sampled_from(["free", "equal", "near", "canonical"]))
    if kind == "equal":
        v = u.copy()
    elif kind == "near":
        eps = draw(st.sampled_from([1e-8, 1e-12, 1e-15, 2.0**-52]))
        v = u + eps * rows(draw, d, n)
    else:
        v = rows(draw, d, n)
    if kind in ("canonical", "near") and np.all(np.any(u != 0, axis=1)) and np.all(
        np.any(v != 0, axis=1)
    ):
        u = np.array([canonical_vector(r) for r in u])
        v = np.array([canonical_vector(r) for r in v])
    a = rows(draw, d, n)
    b = a.copy() if draw(st.booleans()) else rows(draw, d, n)
    return u, a, v, b


@settings(max_examples=150, deadline=None)
@given(line_pairs())
def test_line_distances_match_the_scalar_metric(pair):
    u, a, v, b = pair
    got = furst.line_distances(u, a, v, b)
    want = [ref.line_distance(*rowset) for rowset in zip(u, a, v, b)]
    assert bits(got) == bits(want)
    # one line against all rows: the broadcast form
    assert bits(furst.line_distances(u[:1], a[:1], v, b)) == bits(
        [ref.line_distance(u[0], a[0], vv, bb) for vv, bb in zip(v, b)]
    )
    for i in range(len(u)):
        assert bits([furst.projection_distance(u[i], v[i])]) == bits(
            [ref.projection_distance(u[i], v[i])]
        )


def test_metric_d1_matches_reference_on_construction_lines():
    states = furst.run_alternating(3, 0.5, 2.0, schedule(GROWING_ETAS[:3]))
    family = states[-1].family
    lines = list(zip(family.directions, family.translations))
    for i in range(0, len(lines), 7):
        for j in range(len(lines)):
            assert bits([furst.metric_d1(*lines[i], *lines[j])]) == bits(
                [ref.metric_d1(lines[i], lines[j])]
            )


# the separation check against every pair


def family_arrays(d, n, seed, spread, angle):
    """n lines near the origin: translations within `spread`, directions within `angle`."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n):
        v = np.eye(d)[0] + angle * rng.uniform(-1, 1, d)
        a = spread * rng.uniform(-1, 1, d)
        lines.append(standard_form(a, v))
    return lines


def arrays(lines):
    return np.array([v for v, _ in lines]), np.array([a for _, a in lines])


def state_of(lines, eta):
    """The state of these lines, each marked at its translation."""
    return MarkedLineState.from_arrays(
        1, eta, *arrays(lines), [a[None, :] for _, a in lines], 0.5, 1.0
    )


def check_against_reference(lines, eta):
    floor = eta * (1.0 - SEPARATION_TOL)
    want = ref.first_violation(lines, floor)
    got = grassmann.first_close_pair(*arrays(lines), floor)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got[:2] == want[:2]
        assert bits([got[2]]) == bits([want[2]])
    state = state_of(lines, eta)
    if want is None:
        state.check_separations()
    else:
        i, j, dist = want
        with pytest.raises(SoundnessViolation) as err:
            state.check_separations()
        assert str(err.value) == f"lines {i},{j} at distance {dist:.3e} < eta {eta:.3e}"
    return want


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(2, 60), st.integers(0, 2**32 - 1),
       st.sampled_from([0.01, 0.05, 0.2]), st.sampled_from([0.0, 1e-3, 0.05]))
def test_first_close_pair_matches_every_pair(d, n, seed, spread, angle):
    check_against_reference(family_arrays(d, n, seed, spread, angle), 0.01)


def parallel(d, translations):
    """Lines along e_1 with the given translations (zero first coordinate)."""
    return [affine_line(np.eye(d)[0], a) for a in translations]


@pytest.mark.parametrize("d", [2, 3])
def test_pairs_at_the_floor_and_one_ulp_either_side(d):
    eta = 0.01
    floor = eta * (1.0 - SEPARATION_TOL)
    for gap, close in [(eta, False), (floor, False),
                       (np.nextafter(floor, np.inf), False),
                       (np.nextafter(floor, 0.0), True)]:
        # parallel lines: the distance is exactly the gap of the translations
        e2 = np.eye(d)[1]
        lines = parallel(d, [0.5 * e2, 0.0 * e2, gap * e2])
        assert ref.metric_d1(lines[1], lines[2]) == gap
        want = check_against_reference(lines, eta)
        assert (want is not None) == close
        if close:
            assert want[:2] == (1, 2)


@pytest.mark.parametrize("d", [2, 3])
def test_translations_straddling_cell_edges(d):
    eta = 2.0**-10
    floor = eta * (1.0 - SEPARATION_TOL)
    rng = np.random.default_rng(d)
    reach = 0.5
    side = floor + 2.0**-48 * ((d + 4) * floor + reach)  # first_close_pair's cell side
    edges = np.arange(-8, 9) * side
    coords = []
    for edge in edges:
        for off in (-floor / 2, -1e-17, 0.0, 1e-17, floor / 2):
            coords.append(edge + off)
    coords = np.array(coords)
    translations = np.zeros((len(coords), d))
    translations[:, 1] = coords
    if d == 3:
        translations[:, 2] = rng.permutation(coords)
    translations[0, 1] = reach  # fixes the largest coordinate
    lines = parallel(d, translations)
    rng.shuffle(lines)
    want = check_against_reference(lines, eta)
    assert want is not None  # the offsets of +-1e-17 are far closer than eta


def test_two_point_separation_check_matches_every_pair():
    for seed in range(6):
        lines = family_arrays(2, 40, seed, 0.2, 0.05)
        family = line_family(lines, 1e-3)
        delta = 0.02
        # the check re-canonicalises each direction, as affine_line does
        want = ref.first_violation(
            [affine_line(v, a) for v, a in zip(family.directions, family.translations)],
            delta * (1 - 1e-12),
        )
        if want is None:
            _require_separated_lines(family, delta)
            continue
        with pytest.raises(InvalidParameter) as err:
            _require_separated_lines(family, delta)
        assert str(err.value) == (
            f"lines {want[0]}, {want[1]} closer than delta; the family must be "
            "delta-separated"
        )


def test_two_point_check_refuses_a_skew_translation_as_family_line_does():
    # within LineFamily's 1e-9 but past the standard form's ORTHO_TOL = 1e-12
    family = furst.LineFamily([[1.0, 0.0], [0.0, 1.0]], [[1e-10, 1.0], [1.0, 0.0]], 1e-3)
    with pytest.raises(InvalidParameter) as want:
        affine_line(family.directions[0], family.translations[0])
    with pytest.raises(InvalidParameter) as got:
        _require_separated_lines(family, 0.1)
    assert str(got.value) == str(want.value)
