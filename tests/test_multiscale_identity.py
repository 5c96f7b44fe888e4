"""Property tests pinning the one-pass chain counts to per-scale snapping.

`estimate_dimension` counts every scale whose cell side is the finest side
times an exact power of two in one pass over the cloud, shifting the fine
cell indices (`boxcount._count_chain`).  The reference is
`reference_grid_count` of test_occupancy.py: snap every point at each scale
on its own, pack every code, sort them all.  The clouds put points on the
cell boundaries of every scale of the chain, one ulp below them, at small
negative values and at -1e-17-sized values, where `snap_floor`'s snap-up
differs between scales.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import furst
from furst import boxcount
from furst.errors import InvalidScale, StaleResolution

from test_occupancy import reference_grid_count

DYADIC = [2.0**-j for j in range(1, 9)]


def boundary_values(side, levels, reach):
    """k * 2^j * side for |k| <= reach and j < levels (the cell boundaries of
    every scale); those values one ulp, 1e-10, and e * side below, where a
    fine fraction 1 - e snaps up at the scales with 2^j > e / 1e-9; tiny
    and small negative values; and arbitrary values in the same range."""
    k = st.integers(-reach, reach)
    level = st.integers(0, levels - 1)
    on = st.builds(lambda k, j: k * np.ldexp(side, j), k, level)
    below = st.sampled_from([1e-10, 5e-10, 2e-9, 1e-8, 3e-8, 1e-7])
    extent = reach * np.ldexp(side, levels - 1)
    return st.one_of(
        on,
        on.map(lambda x: float(np.nextafter(x, -np.inf))),
        on.map(lambda x: x - 1e-10),
        st.builds(lambda x, e: x - e * side, on, below),
        st.floats(-1e-16, 0.0),
        st.sampled_from([-1e-17, -5e-18, -1e-300, -5e-324, -0.0]),
        st.floats(-extent, extent, allow_nan=False),
    )


@st.composite
def chain_clouds(draw, reach=3, rows=st.integers(1, 40), dims=(2, 3, 4)):
    """(points, deltas): a dyadic chain of 3-8 scales, with repeated rows."""
    d = draw(st.sampled_from(dims))
    finest = draw(st.integers(3, 12))
    levels = draw(st.integers(3, 8))
    deltas = [2.0 ** -(finest - j) for j in reversed(range(levels))]
    if draw(st.booleans()):
        deltas = [delta * 0.3 for delta in deltas]  # sides still nest exactly
    n = draw(rows)
    side = deltas[-1] / np.sqrt(d)
    values = draw(st.lists(boundary_values(side, levels, reach),
                           min_size=n * d, max_size=n * d))
    points = np.array(values).reshape(n, d)
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=8))
    return np.vstack([points, points[repeats]]), deltas


def chain_counts(points, deltas):
    return furst.grid_counts(furst.PointCloud(points, 1e-300), deltas)


def check_counts(points, deltas):
    expected = [reference_grid_count(points, delta) for delta in deltas]
    assert chain_counts(points, deltas) == expected
    # small blocks: many blocks per cloud and a partial last block
    with mock.patch.object(boxcount, "COUNT_BLOCK_ROWS", 7):
        assert chain_counts(points, deltas) == expected


def window_rows(points, deltas):
    side = min(deltas) / np.sqrt(points.shape[1])
    top = round(np.log2(max(deltas) / min(deltas)))
    q = points / side
    return int(((q - np.floor(q)) > 1 - 2.0**top * 2e-9).any(axis=1).sum())


@settings(max_examples=80, deadline=None)
@given(chain_clouds())
def test_chain_counts_match_per_scale_snapping(case):
    check_counts(*case)


@settings(max_examples=60, deadline=None)
@given(chain_clouds(reach=1, rows=st.integers(1, 20), dims=(2, 3)))
def test_table_branch_matches_per_scale_snapping(case):
    points, deltas = case
    with mock.patch.object(boxcount, "fits_table", lambda n, span: True):
        check_counts(points, deltas)


@settings(max_examples=60, deadline=None)
@given(chain_clouds())
def test_sort_branch_matches_per_scale_snapping(case):
    points, deltas = case
    with mock.patch.object(boxcount, "fits_table", lambda n, span: False):
        check_counts(points, deltas)


@settings(max_examples=60, deadline=None)
@given(chain_clouds(), st.lists(st.floats(-20, 20), min_size=4, max_size=4))
def test_shifted_clouds_match_per_scale_snapping(case, shift):
    points, deltas = case
    check_counts(points + np.array(shift[: points.shape[1]]), deltas)


@pytest.mark.parametrize("deltas", [
    [0.3, 0.2, 0.1],
    [0.5, 0.25, 0.2, 0.125, 0.0625],
    [0.5, 0.25, 1 / 3, 0.125],
    [0.5, 0.3, 0.125, 0.1, 1 / 27, 2.0**-9],
])
def test_non_nested_schedules_match_per_scale_snapping(deltas):
    rng = np.random.default_rng(3)
    for d in (2, 3):
        side = min(deltas) / np.sqrt(d)
        points = rng.uniform(-1, 1, (3000, d))
        points[:1000] = np.round(points[:1000] / side) * side
        points[1000:1500] = -1e-17
        points[1500:2000] = np.nextafter(points[:500], -np.inf)
        check_counts(points, sorted(deltas, reverse=True))


def test_chains_group_exact_powers_of_two():
    sides = [delta / np.sqrt(2) for delta in [0.3, 0.2, 0.1]]
    assert boxcount._chains(sides) == [([2, 1], [0, 1]), ([0], [0])]
    sides = [delta / np.sqrt(2) for delta in [0.5, 0.25, 0.2, 0.125]]
    assert boxcount._chains(sides) == [([3, 0, 1], [0, 2, 1]), ([2], [0])]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_clouds_all_in_the_window(d):
    rng = np.random.default_rng(d)
    deltas = [2.0**-j for j in range(2, 9)]
    side = deltas[-1] / np.sqrt(d)
    cells = rng.integers(-300, 300, (4000, d)).astype(float)
    points = cells * side
    points[:, 0] -= 1e-13  # a fraction 1 - 1e-11 below a boundary
    points[::2, 1] = -rng.uniform(0, 1e-17, 2000)
    assert window_rows(points, deltas) == len(points)
    check_counts(points, deltas)


def test_long_chain_puts_every_row_in_the_window():
    # 2^34 * 2e-9 > 1: the window reaches below every fraction
    rng = np.random.default_rng(11)
    deltas = [2.0**-j for j in range(1, 36)]
    points = rng.uniform(-1e-6, 1e-6, (500, 2))
    assert window_rows(points, deltas) == len(points)
    check_counts(points, deltas)


def test_quotients_past_int64_are_refused_before_counting():
    # 1e20 over a side of about 0.07 is past 2^61: every cell index would wrap
    cloud = furst.PointCloud([[1e20, 0.0], [1e20 + 1e5, 1.0]], 1e-3)
    with mock.patch.object(boxcount, "_count_chain") as count:
        for delta in (0.4, 0.2, 0.1):
            with pytest.raises(InvalidScale, match="finer than the float resolution"):
                furst.grid_count(cloud, delta)
        with pytest.raises(InvalidScale):
            furst.estimate_dimension(cloud, [0.4, 0.2, 0.1])
    count.assert_not_called()
    # the same cloud is counted where its quotients stay below 2^61
    assert furst.grid_count(cloud, 1e5) == reference_grid_count(cloud.points, 1e5)


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e12, 1e12, allow_nan=False),
       st.floats(1e-12, 1e3), st.integers(0, 62))
def test_ldexp_of_the_fine_quotient_is_the_coarse_quotient(x, side, k):
    x, side = np.float64(x), np.float64(side)
    assume(x == 0.0 or abs(x / np.ldexp(side, k)) >= 2.0**-1022)
    assert np.ldexp(x / side, -k) == x / np.ldexp(side, k)


@settings(max_examples=300, deadline=None)
@given(st.floats(-2.0**61, 2.0**61, allow_nan=False), st.integers(0, 62))
def test_floor_of_the_coarse_quotient_is_an_arithmetic_shift(q, k):
    # below 2^-1022 ldexp loses bits; such a q is in the snap window (r ~ 1)
    assume(q == 0.0 or abs(q) >= 2.0**-950)
    f = np.floor(np.array([q])).astype(np.int64)
    assert int(np.floor(np.ldexp(np.float64(q), -k))) == int((f >> k)[0])


def test_estimate_keeps_the_index_guard_error():
    cloud = furst.PointCloud([[0.0, 0.0], [1e10, 1e10]], 1e-12)
    with pytest.raises(InvalidScale) as err:
        furst.estimate_dimension(cloud, [0.5, 0.25, 1e-10])
    assert str(err.value) == "grid too fine to index; raise the scale"


def test_estimate_guard_fires_before_any_count():
    cloud = furst.PointCloud([[0.0, 0.0], [1e10, 1e10]], 1e-12)
    with mock.patch.object(boxcount, "_count_chain") as count:
        with pytest.raises(InvalidScale):
            furst.estimate_dimension(cloud, [0.5, 0.3, 1e-10])
    count.assert_not_called()


def test_estimate_keeps_the_stale_floor_error():
    cloud = furst.PointCloud([[0.0, 0.0], [1.0, 1.0]], 0.1)
    with pytest.raises(StaleResolution) as err:
        furst.estimate_dimension(cloud, [0.5, 0.25, 0.125, 0.0625])
    assert str(err.value) == "schedule reaches below the resolution floor"


def test_estimate_counts_match_per_scale_snapping():
    rng = np.random.default_rng(17)
    points = rng.uniform(-1, 1, (5000, 2)) ** 3
    report = furst.estimate_dimension(furst.PointCloud(points, 1e-9), DYADIC)
    assert list(report.counts) == [reference_grid_count(points, s) for s in DYADIC]
