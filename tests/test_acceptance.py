"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Finite truncations of the constructions only exhibit their limiting
dimensions over scale windows where the truncation does not bind, so the
criteria that leave instance parameters open (the second box instance and
the line-family fit windows) pin them here, chosen once from the structure
of the construction: fits stop where counts saturate at the family size
or fall below the realized net spacings.
"""

import json
import time

import numpy as np
import pytest

import furst
from furst.cli import main

TOL_BOX_X = 0.15
TOL_BOX_LINES = 0.25
STEP_FACTOR = 16.0
EXPONENT_SLACK = 0.25
TWO_POINT_C = 16.0

THIRDS = furst.CantorSpec(3, (0, 2))

# instance 1: all parameters stated by the criterion
SPEC_1 = furst.BoxSharpSpec(d=2, cantor=THIRDS, t=1.5, M=8, N=8, depth=8, seed=7)
SCHEDULE_1 = [2.0**-j for j in range(4, 13)]
LINE_WINDOW_1 = [2.0**-j for j in range(2, 6)]

# instance 2: s = 0.3 via the digit chooser, t = 1.9. The remaining knobs
# are free and sized so the fitted windows see the construction rather
# than its truncation: the translation tail needs M in the thousands and
# the direction resolution at 2^-13 needs the densified shell-1 net.
SPEC_2 = furst.BoxSharpSpec(
    d=2,
    cantor=furst.spec_for_dimension(0.3),
    t=1.9,
    M=2000,
    N=2048,
    depth=1,
    seed=7,
    dir_density=12,
)
SCHEDULE_2 = [2.0**-j for j in range(2, 8)]
LINE_WINDOW_2 = [2.0**-j for j in range(5, 14)]

DEMO_ETAS = (1.0, 1 / 16, 1 / 256, 1 / 4096)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def instance1():
    return furst.build_points(SPEC_1), furst.build_lines(SPEC_1)


@pytest.fixture(scope="module")
def instance2():
    return furst.build_points(SPEC_2), furst.build_lines(SPEC_2)


@pytest.fixture(scope="module")
def demo_trajectory():
    schedule = furst.ScaleSchedule(DEMO_ETAS, mode="demo")
    return furst.run_alternating(2, 0.5, 1.0, schedule)


def test_criterion_1_cantor_exactness():
    start = time.perf_counter()
    ok = all(furst.covering_count(THIRDS, k) == 2**k for k in range(11))
    for c in (3, 9):
        for k in range(2, 9):
            ok &= furst.scaled_count_check(THIRDS, c, k).passed
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report("1 cantor-exactness", ok, f"({elapsed:.3f}s)")


def test_criterion_2_box_dimension(instance1, instance2):
    start = time.perf_counter()
    rep1 = furst.estimate_dimension(instance1[0], SCHEDULE_1)
    t1 = time.perf_counter() - start
    target1 = max(SPEC_1.s, SPEC_1.t - 1)
    ok1 = abs(rep1.slope - target1) <= TOL_BOX_X and t1 < 60

    start = time.perf_counter()
    rep2 = furst.estimate_dimension(instance2[0], SCHEDULE_2)
    t2 = time.perf_counter() - start
    ok2 = abs(rep2.slope - 0.9) <= TOL_BOX_X and t2 < 60
    report(
        "2 box-sharp-dimension",
        ok1 and ok2,
        f"(slopes {rep1.slope:.4f}/{target1:.4f} and {rep2.slope:.4f}/0.9; "
        f"{t1:.1f}s, {t2:.1f}s)",
    )


def test_criterion_3_line_family_dimension(instance1, instance2):
    start = time.perf_counter()
    counts1 = [furst.mesh_cover_count(instance1[1], s) for s in LINE_WINDOW_1]
    slope1, _ = furst.fit_slope(LINE_WINDOW_1, counts1)
    counts2 = [furst.mesh_cover_count(instance2[1], s) for s in LINE_WINDOW_2]
    slope2, _ = furst.fit_slope(LINE_WINDOW_2, counts2)
    elapsed = time.perf_counter() - start
    ok = (
        abs(slope1 - SPEC_1.t) <= TOL_BOX_LINES
        and abs(slope2 - SPEC_2.t) <= TOL_BOX_LINES
        and elapsed < 60
    )
    report(
        "3 line-family-dimension",
        ok,
        f"(slopes {slope1:.4f}/{SPEC_1.t} and {slope2:.4f}/{SPEC_2.t}; "
        f"{elapsed:.1f}s)",
    )


def test_criterion_4_lower_bound_soundness(instance1, instance2):
    violations = 0
    checked = 0
    for (cloud, family), schedule in (
        (instance1, SCHEDULE_1),
        (instance2, SCHEDULE_2),
    ):
        for delta in schedule:
            cert = furst.pigeonhole_extract(family, cloud, delta)
            measured = furst.grid_count(cloud, delta)
            checked += 1
            if cert.bound > 3**cloud.dim * measured:
                violations += 1
            if cert.min_witness_separation() < delta:
                violations += 1
    report(
        "4 lower-bound-soundness",
        violations == 0,
        f"({checked} scales, {violations} violations)",
    )


def test_criterion_5_tangent_inequality():
    rng = np.random.default_rng(123)
    deltas = rng.uniform(0.0, 0.5, size=10_000)
    deltas = deltas[deltas > 0]
    margins = 4 * deltas - 2 * np.tan(deltas)
    ok = bool(np.all(margins >= deltas)) and furst.tangent_margin(0.5) >= 0
    report("5 tangent-inequality", ok, f"({deltas.size} samples)")


def test_criterion_6_packing_step_laws(demo_trajectory):
    start = time.perf_counter()
    states = demo_trajectory
    ok = True
    details = []
    for k in range(3):
        st, nxt = states[k], states[k + 1]
        option = nxt.history[-1]
        eta_next = nxt.eta
        if option == "lines":
            predicted = eta_next**-st.t * st.eta ** (2 * (st.d - 1))
            realized = nxt.num_lines / st.num_lines
        else:
            predicted = eta_next**-st.s * st.eta
            realized = nxt.num_marks / st.num_marks
        within = predicted / STEP_FACTOR <= realized <= predicted * STEP_FACTOR
        ok &= within
        details.append(f"{option}:{realized:.3g}/{predicted:.3g}")
        nxt.check_separations()  # raises on any violation
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30
    report("6 packing-step-laws", ok, f"({'; '.join(details)}; {elapsed:.1f}s)")


def test_criterion_7_packing_exponent_envelope(demo_trajectory):
    states = demo_trajectory
    cap = max(0.5, 1.0 / 2.0) + EXPONENT_SLACK
    ok = True
    tested = []
    # intermediate scales: each step scale and the geometric means between
    # consecutive ones (skipping the k = 0 gap, where log(1/delta) is too
    # small for the quotient to mean anything)
    deltas = [(k, states[k].eta) for k in (1, 2, 3)]
    deltas += [
        (k, float(np.sqrt(DEMO_ETAS[k] * DEMO_ETAS[k + 1]))) for k in (1, 2)
    ]
    final = states[-1]
    for k, delta in deltas:
        count = furst.grid_count(final.mark_cloud(delta / 4), delta)
        expo = float(np.log(count) / np.log(1.0 / delta))
        ok &= expo <= cap
        tested.append(f"{expo:.3f}")
        if delta < states[k].eta:
            nc = furst.neighborhood_counts(states, k, delta)
            ok &= nc.points_within and nc.lines_within
    report(
        "7 packing-exponent-envelope",
        ok,
        f"(exponents {', '.join(tested)} <= {cap})",
    )


def test_criterion_8_two_point_dichotomy():
    # crafted fixture: two crossing lines with far-apart second endpoints
    fam = furst.LineFamily([[1.0, 0.0], [0.0, 1.0]], np.zeros((2, 2)), 1e-9)
    delta, t = 0.1, 1.0
    cert = furst.two_point_extract(
        fam, np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, 1.0]]), delta, t, 1
    )
    floor = min(len(fam), int(delta ** (-t / 2))) / TWO_POINT_C
    ok = (
        cert.branch in ("dichotomy-x", "dichotomy-y")
        and cert.bound <= 2
        and cert.bound >= floor
    )

    # K = 2 trajectory with a mark-spreading step that actually multiplies
    schedule = furst.ScaleSchedule((1.0, 1 / 16, 2.0**-10), "demo")
    states = furst.run_alternating(2, 0.5, 1.0, schedule)
    final = states[-1]
    xs = np.array([m[0] for m in final.marks])
    ys = np.array([m[-1] for m in final.marks])
    n = int(np.ceil(1.0 / float(np.linalg.norm(xs - ys, axis=1).min())))
    cert2 = furst.two_point_extract(
        final.line_family(), xs, ys, final.eta, final.t, n
    )
    measured = furst.grid_count(final.mark_cloud(), final.eta)
    floor2 = min(final.num_lines, int(final.eta ** (-final.t / 2))) / TWO_POINT_C
    ok &= (
        cert2.branch in ("dichotomy-x", "dichotomy-y")
        and cert2.bound <= measured
        and cert2.bound >= floor2
    )
    report(
        "8 two-point-dichotomy",
        ok,
        f"(fixture {cert.branch} bound {cert.bound}; trajectory "
        f"{cert2.branch} bound {cert2.bound} <= measured {measured})",
    )


def test_criterion_9_determinism(tmp_path):
    # repeated runs of the criterion-2 construction and the criterion-6
    # trajectory, fixed seed, byte-identical primary outputs
    box_cfg = tmp_path / "box.json"
    box_cfg.write_text(json.dumps(SPEC_1.to_config()))
    pack_cfg = tmp_path / "pack.json"
    pack_cfg.write_text(
        json.dumps(
            {
                "d": 2,
                "s": 0.5,
                "t": 1.0,
                "schedule": {"mode": "demo", "etas": list(DEMO_ETAS)},
                "seed": 7,
            }
        )
    )
    ok = True
    pairs = []
    for cfg, cmd, files in (
        (box_cfg, "construct-box", ("points.csv", "lines.csv", "manifest.json")),
        (
            pack_cfg,
            "construct-packing",
            ("trajectory.csv", "states.json", "manifest.json"),
        ),
    ):
        outs = []
        for run in ("r1", "r2"):
            out = tmp_path / f"{cmd}-{run}"
            code = main([cmd, "--config", str(cfg), "--out", str(out)])
            ok &= code == 0
            outs.append(out)
        for name in files:
            same = (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            ok &= same
            pairs.append(f"{name}:{'=' if same else '!'}")
    # the second box instance is too large to round-trip through CSV
    # comfortably; its determinism is checked on the arrays themselves
    a = furst.build_points(SPEC_2).points
    b = furst.build_points(SPEC_2).points
    ok &= bool(np.array_equal(a, b))
    report("9 determinism", ok, f"({', '.join(pairs)}, instance2 arrays equal)")
