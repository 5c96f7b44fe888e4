import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from furst import cli, verifier
from furst.cli import main
from furst.util import write_csv

BOX_CONFIG = {
    "d": 2,
    "cantor": {"base": 3, "digits": [0, 2]},
    "t": 1.5,
    "M": 6,
    "N": 6,
    "depth": 6,
    "seed": 7,
}

PACKING_CONFIG = {
    "d": 2,
    "s": 0.5,
    "t": 1.0,
    "schedule": {"mode": "demo", "etas": [1.0, 1 / 16, 1 / 256, 1 / 4096]},
    "seed": 7,
}


# README's packing config, with the sha256 of every artifact its
# construct-packing -> estimate -> verify flow writes
README_PACKING_CONFIG = {
    "d": 2,
    "s": 0.5,
    "t": 1.0,
    "seed": 7,
    "schedule": {
        "mode": "demo",
        "etas": [1.0, 0.0625, 0.00390625, 0.000244140625],
    },
}
README_PACKING_SHA256 = {
    "certificates.json": "57c1061bc6e4015e7c7b4662fb9cfd78096372cb373ebab27ddf854727727365",
    "manifest.json": "092d620062b33000fb23d5c47b70320e7321880840625ed53d87aa1a2da7a9df",
    "packing_exponents.csv": "95b010a600ee5af300de39da09890f19ae7b0c6cd1fc892359049d7079bdbcce",
    "packing_exponents.json": "bbc78719a87f512cc90d9e946e13e08c0f25d67efe88efe7b40a6feec9e7995b",
    "states.json": "be22925335aec0265c3978322ffd8d008e20cb89f166ddfa8e8dac0976cc836a",
    "trajectory.csv": "4797ec1a8b072508e37a62427485143cbe4365c9988a497ac3e66061ceeb7010",
    "verify_summary.json": "d3b48312953c672cc101c114a9a5a594723309cfce2e5325c63e54009a865d24",
}


# float resolution near the marks' coordinates runs out at 2^-52, so the
# last step's separation check must fail
UNSOUND_PACKING_CONFIG = dict(
    PACKING_CONFIG,
    schedule={"mode": "demo", "etas": [1.0, 1 / 16, 2.0**-10, 2.0**-24, 2.0**-52]},
)

UNSEPARATED_CASES = ["mark-off-line", "duplicate-line", "close-marks"]

REMOVED_FLAGS = [
    (cmd, flag)
    for cmds, flags in (
        (("construct-box", "construct-packing"), ("--scales", "--format")),
        (("estimate", "verify"), ("--config", "--seed", "--format")),
        (("report",), ("--config", "--seed", "--scales", "--format")),
    )
    for cmd in cmds
    for flag in flags
]


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def source_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def packing_states(tmp_path):
    """(parsed states.json, out) of the d = 2 demo run with etas 1, 1/16, 2^-10."""
    tmp_path.mkdir(exist_ok=True)
    cfg = dict(PACKING_CONFIG)
    cfg["schedule"] = {"mode": "demo", "etas": [1.0, 1 / 16, 2.0**-10]}
    out = tmp_path / "p"
    argv = ["--config", write_config(tmp_path / "p.json", cfg), "--out", str(out)]
    assert main(["construct-packing"] + argv) == 0
    payload = json.loads((out / "states.json").read_text())
    final = payload["states"][-1]
    assert len(final["lines"]) == 16 and len(final["marks"][0]) == 3
    return payload, out


def unseparate(final, case):
    """Edit a parsed state so that check_separations finds `case`; the message."""
    if case == "mark-off-line":
        final["marks"][0][1] = [0.3, 0.4]
        return "marks strayed from line 0"
    if case == "duplicate-line":
        final["lines"][1] = final["lines"][0]
        return "lines 0,1 at distance"
    final["marks"][0][1] = final["marks"][0][0]  # two marks closer than eta
    return "marks on line 0 at gap 0.000e+00 < eta"


def assert_states_refused(payload, out, capsys, message):
    """With `payload` as states.json, estimate and verify exit 1, naming state 2."""
    (out / "states.json").write_text(json.dumps(payload))
    for command in ("estimate", "verify"):
        assert main([command, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"states.json: state 2 {message}" in err, err
        assert "Traceback" not in err
    assert not (out / "packing_exponents.csv").exists()
    assert not (out / "certificates.json").exists()


def construct_box(tmp_path, name="run", **overrides):
    cfg = dict(BOX_CONFIG)
    cfg.update(overrides)
    cfg_path = write_config(tmp_path / f"{name}.json", cfg)
    out = tmp_path / name
    code = main(["construct-box", "--config", cfg_path, "--out", str(out)])
    return code, out


class TestConstruct:
    def test_box_row_count(self, tmp_path):
        code, out = construct_box(tmp_path)
        assert code == 0
        rows = (out / "points.csv").read_text().splitlines()
        assert rows[0] == "x1,x2"
        assert len(rows) - 1 == 6 * 6 * 2**6 == 2304
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"] == {"points": 2304, "lines": 36}
        assert manifest["achieved_s"] == pytest.approx(np.log(2) / np.log(3))

    def test_packing_k0(self, tmp_path):
        cfg = dict(PACKING_CONFIG, K=0)
        cfg_path = write_config(tmp_path / "p.json", cfg)
        out = tmp_path / "p"
        assert main(["construct-packing", "--config", cfg_path, "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "k,eta,option,num_lines,num_marks,pred_lines,pred_marks"
        assert len(rows) == 2
        assert rows[1].split(",")[3:5] == ["1", "1"]

    def test_invalid_t_cites_range(self, tmp_path, capsys):
        code, _ = construct_box(tmp_path, name="bad", t=3.0)
        assert code == 1
        assert "[0, 2]" in capsys.readouterr().err

    def test_resource_cap_exit_code(self, tmp_path):
        code, _ = construct_box(tmp_path, name="big", max_points=10)
        assert code == 2

    def test_capped_shell_lattice_exits_2(self, tmp_path, capsys):
        # 9,682 directions in d = 3 reach shell 4, whose lattice passes the cap
        code, _ = construct_box(tmp_path, name="shell4", d=3, M=1, N=9682, depth=1)
        assert code == 2
        assert "lattice of 67,158,025 points" in capsys.readouterr().err

    def test_capped_direction_cover_exits_2(self, tmp_path, capsys):
        # estimate counts the last step's lines at eta = 2^-10, where a
        # d = 3 direction cover needs more candidates than the cap allows
        cfg = dict(PACKING_CONFIG, d=3, t=2.0)
        cfg["schedule"] = {"mode": "demo", "etas": [1.0, 1 / 16, 2.0**-10]}
        cfg_path = write_config(tmp_path / "p3d.json", cfg)
        out = tmp_path / "p3d"
        assert main(["construct-packing", "--config", cfg_path, "--out", str(out)]) == 0
        assert main(["estimate", "--out", str(out)]) == 2
        assert "candidate directions, above the cap" in capsys.readouterr().err

    def test_unbuildable_marks_step_exits_2(self, tmp_path, capsys):
        # the marks step at 1e-300 would spread each mark over about 3e148
        # offsets; the marks it must keep pass max_marks, so it is refused
        # before any offset is built
        cfg = dict(PACKING_CONFIG)
        cfg["schedule"] = {"mode": "demo", "etas": [1.0, 1 / 16, 1e-300]}
        cfg_path = write_config(tmp_path / "fine.json", cfg)
        out = tmp_path / "fine"
        assert main(["construct-packing", "--config", cfg_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "step 2 would exceed caps" in err and "max_marks = 500000" in err, err
        assert "Traceback" not in err
        assert not out.exists()

    def test_tiny_packing_scale_estimate_exits_1(self, tmp_path, capsys):
        # a planar cover at 1e-300 would need about 3e300 buckets
        cfg = dict(PACKING_CONFIG, s=0.0, t=0.0)
        cfg["schedule"] = {"etas": [1.0, 1 / 16, 1e-300]}
        cfg_path = write_config(tmp_path / "tiny.json", cfg)
        out = tmp_path / "tiny"
        assert main(["construct-packing", "--config", cfg_path, "--out", str(out)]) == 0
        assert main(["estimate", "--out", str(out)]) == 1
        assert "2^62 or more buckets" in capsys.readouterr().err

    def test_subnormal_packing_scale_exits_1(self, tmp_path, capsys):
        cfg = dict(PACKING_CONFIG, s=0.0, t=0.0)
        cfg["schedule"] = {"etas": [1.0, 1 / 16, 1e-300, 1e-320]}
        cfg_path = write_config(tmp_path / "sub.json", cfg)
        out = tmp_path / "sub"
        assert main(["construct-packing", "--config", cfg_path, "--out", str(out)]) == 1
        assert "normal floats" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_required(self, tmp_path):
        cfg = dict(BOX_CONFIG)
        del cfg["seed"]
        cfg_path = write_config(tmp_path / "noseed.json", cfg)
        assert main(["construct-box", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1

    def test_unknown_flag_is_user_error(self, tmp_path):
        assert main(["construct-box", "--nope"]) == 1

    @pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
    def test_removed_flag_is_user_error(self, tmp_path, capsys, command, flag):
        argv = [command, "--out", str(tmp_path / "out"), flag, "1"]
        if command.startswith("construct"):
            argv += ["--config", write_config(tmp_path / "c.json", BOX_CONFIG)]
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unsound_packing_exits_3(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "u.json", UNSOUND_PACKING_CONFIG)
        out = tmp_path / "u"
        assert main(["construct-packing", "--config", cfg_path, "--out", str(out)]) == 3
        assert "marks on line 1 at gap 2.220e-16 < eta" in capsys.readouterr().err
        assert not (out / "states.json").exists()

    def test_unsound_packing_exits_3_under_optimize(self, tmp_path):
        # soundness checks must not rely on assert, which -O strips
        cfg_path = write_config(tmp_path / "u.json", UNSOUND_PACKING_CONFIG)
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "furst.cli", "construct-packing",
             "--config", cfg_path, "--out", str(tmp_path / "u")],
            env=source_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr


class TestEstimateVerifyReport:
    def test_box_estimate_slopes(self, tmp_path):
        _, out = construct_box(tmp_path)
        code = main(
            ["estimate", "--out", str(out), "--scales", "0.0625,0.000244140625"]
        )
        assert code == 0
        side = json.loads((out / "x_cover.json").read_text())
        assert abs(side["slope"] - 0.6309) <= 0.15
        assert side["thresholds"]["box"] == pytest.approx(0.6309297535714574)
        assert side["envelope_holds"] is True
        # the line sidecar records the fitted slope and the target
        lside = json.loads((out / "line_cover.json").read_text())
        assert lside["target_t"] == 1.5

    def test_single_point_slope_zero(self, tmp_path):
        out = tmp_path / "single"
        out.mkdir()
        (out / "points.csv").write_text("x1,x2\n0.25,0.75\n")
        (out / "lines.csv").write_text("dir1,dir2,trans1,trans2\n1.0,0.0,0.0,0.75\n")
        (out / "manifest.json").write_text(
            json.dumps(
                {
                    "kind": "box",
                    "spec": BOX_CONFIG,
                    "floors": {"points": 1e-9, "lines": 1e-9},
                    "thresholds": {"box": 0, "packing": 0, "hausdorff": 0},
                }
            )
        )
        assert main(["estimate", "--out", str(out)]) == 0
        side = json.loads((out / "x_cover.json").read_text())
        assert side["slope"] == 0.0

    def write_box_dir(self, out, points_csv):
        out.mkdir()
        (out / "points.csv").write_text(points_csv)
        (out / "lines.csv").write_text("dir1,dir2,trans1,trans2\n1.0,0.0,0.0,0.75\n")
        (out / "manifest.json").write_text(
            json.dumps(
                {
                    "kind": "box",
                    "spec": BOX_CONFIG,
                    "floors": {"points": 1e-9, "lines": 1e-9},
                    "thresholds": {"box": 0, "packing": 0, "hausdorff": 0},
                }
            )
        )

    @pytest.mark.parametrize(
        "points_csv",
        ["x1,x2\n0.25,abc\n", "x1,x2\n0.25,0.75\n0.5\n", "x1,x2\n0.1,0.2,0.3\n"],
    )
    @pytest.mark.parametrize("command", ["estimate", "verify"])
    def test_malformed_points_csv_is_user_error(self, tmp_path, capsys, command, points_csv):
        out = tmp_path / "bad"
        self.write_box_dir(out, points_csv)
        assert main([command, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "points.csv" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["estimate", "verify"])
    def test_header_only_points_csv_names_file(self, tmp_path, capsys, command):
        out = tmp_path / "hollow"
        self.write_box_dir(out, "x1,x2\n")
        assert main([command, "--out", str(out)]) == 1
        assert "points.csv holds no points" in capsys.readouterr().err

    def test_verify_all_sound(self, tmp_path):
        _, out = construct_box(tmp_path)
        code = main(
            ["verify", "--out", str(out), "--scales", "0.0625,0.000244140625"]
        )
        assert code == 0
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["all_sound"] is True
        assert summary["scales_checked"] == 9
        certs = json.loads((out / "certificates.json").read_text())
        assert all(c["sound"] for c in certs["certificates"])

    def write_box_outputs(self, out, lines, points="x1,x2\n0.3,0.0\n", floor=1e-9):
        out.mkdir()
        (out / "points.csv").write_text(points)
        (out / "lines.csv").write_text("dir1,dir2,trans1,trans2\n" + lines)
        (out / "manifest.json").write_text(
            json.dumps(
                {
                    "kind": "box",
                    "spec": BOX_CONFIG,
                    "floors": {"points": floor, "lines": 1e-9},
                    "thresholds": {"box": 0, "packing": 0, "hausdorff": 0},
                }
            )
        )

    def test_verify_missing_point_reports_inconsistent(self, tmp_path, capsys):
        # two parallel lines, far apart; the second has no cloud point
        out = tmp_path / "adv"
        self.write_box_outputs(out, "1.0,0.0,0.0,0.0\n1.0,0.0,0.0,0.5\n")
        code = main(["verify", "--out", str(out), "--scales", "0.01,0.005"])
        assert code == 1
        assert "no cloud point" in capsys.readouterr().err

    @pytest.mark.parametrize("scales, sha256", [
        (None, "30592db2a4edafeb2c19d6ac8e4ec89db4288f95e66f8b4d690ee6fa580a1cbe"),
        ("0.0625,0.000244140625",
         "925aca3307244ea1d74846eb1f4d0d2a297075a2d7ba990a264f297f5ff0e811"),
    ])
    def test_verify_certificates_are_byte_stable(self, tmp_path, scales, sha256):
        # the bytes verify wrote when it counted each scale with grid_count
        _, out = construct_box(tmp_path)
        argv = ["verify", "--out", str(out)] + (["--scales", scales] if scales else [])
        assert main(argv) == 0
        assert hashlib.sha256((out / "certificates.json").read_bytes()).hexdigest() == sha256

    def test_verify_stale_scale_after_a_valid_one(self, tmp_path, capsys):
        # at floor 0.02, 2^-4 and 2^-5 pass and 2^-6 is stale; the line at
        # 0.05, with no point within 0.02, would be kept from 2^-7 on, whose
        # extraction is never reached
        out = tmp_path / "stale"
        self.write_box_outputs(out, "1.0,0.0,0.0,0.0\n1.0,0.0,0.0,0.05\n", floor=0.02)
        code = main(["verify", "--out", str(out), "--scales", "0.1,0.005"])
        assert code == 1
        assert "scale 1.562e-02 is below the cloud's resolution floor" in capsys.readouterr().err
        assert not (out / "certificates.json").exists()

    @pytest.mark.parametrize("floor", [1e-9, 0.01])
    def test_verify_tangent_margin_failure(self, tmp_path, capsys, floor):
        # a cloud of radius 3 fails the tangent margin at the first scale,
        # before the scales below a floor of 0.01 are reached
        out = tmp_path / "wide"
        self.write_box_outputs(out, "1.0,0.0,0.0,0.0\n", points="x1,x2\n3.0,0.0\n",
                               floor=floor)
        code = main(["verify", "--out", str(out), "--scales", "0.25,0.005"])
        assert code == 1
        assert "tangent bound fails for delta=0.25" in capsys.readouterr().err
        assert not (out / "certificates.json").exists()

    def test_verify_nonfinite_line_exits_1(self, tmp_path, capsys):
        out = tmp_path / "adv"
        self.write_box_outputs(out, "nan,0.0,0.0,0.0\n1.0,0.0,0.0,0.5\n")
        code = main(["verify", "--out", str(out), "--scales", "0.01,0.005"])
        assert code == 1
        assert "finite" in capsys.readouterr().err

    def test_packing_estimate_exponent_cap(self, tmp_path):
        # the K = 3 demo trajectory keeps its mark exponent under
        # max(s, t/2) + 0.2 at every step scale
        cfg_path = write_config(tmp_path / "p3.json", PACKING_CONFIG)
        out = tmp_path / "p3"
        assert main(["construct-packing", "--config", cfg_path, "--out", str(out)]) == 0
        assert main(["estimate", "--out", str(out)]) == 0
        rows = (out / "packing_exponents.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            assert float(row.split(",")[4]) <= max(0.5, 0.5) + 0.2
        side = json.loads((out / "packing_exponents.json").read_text())
        assert side["max_mark_exponent"] <= side["mark_exponent_cap"] + 0.2

    def test_packing_verify_two_point(self, tmp_path):
        cfg = dict(PACKING_CONFIG)
        cfg["schedule"] = {"mode": "demo", "etas": [1.0, 1 / 16, 2.0**-10]}
        cfg_path = write_config(tmp_path / "p.json", cfg)
        out = tmp_path / "p"
        assert main(["construct-packing", "--config", cfg_path, "--out", str(out)]) == 0
        assert main(["verify", "--out", str(out)]) == 0
        certs = json.loads((out / "certificates.json").read_text())
        assert certs["all_sound"]
        assert certs["certificates"][0]["branch"].startswith("dichotomy")

    def test_growing_d3_packing_verifies(self, tmp_path):
        # 4,456 lines in the last state: two-point extraction has no line cap
        cfg = {"d": 3, "s": 0.5, "t": 2.0, "seed": 7, "schedule": {
            "mode": "demo", "etas": [1.0, 1 / 16, 2.0**-10, 2.0**-24]}}
        cfg_path = write_config(tmp_path / "p.json", cfg)
        out = tmp_path / "p"
        assert main(["construct-packing", "--config", cfg_path, "--out", str(out)]) == 0
        assert main(["verify", "--out", str(out)]) == 0
        certs = json.loads((out / "certificates.json").read_text())
        assert certs["all_sound"] is True
        (cert,) = certs["certificates"]
        assert (cert["branch"], cert["bound"], cert["measured_count"]) == ("dichotomy-y", 1, 3553)

    @pytest.mark.parametrize("case, message", [
        ("ragged marks", "marks of line 0 are not an array of numbers"),
        ("empty marks", "marks of line 0 must be a non-empty, finite (n, 2) array"),
        ("wrong-width marks", "marks of line 0 must be a non-empty, finite (n, 2) array"),
        ("non-finite marks", "marks of line 0 must be a non-empty, finite (n, 2) array"),
        ("last marks list deleted", "has 15 marks lists for 16 lines"),
        ("last line deleted", "has 16 marks lists for 15 lines"),
    ])
    def test_malformed_states_json_is_user_error(self, tmp_path, capsys, case, message):
        payload, out = packing_states(tmp_path)
        final = payload["states"][-1]
        if case == "ragged marks":
            final["marks"][0][1] = final["marks"][0][1][:1]
        elif case == "empty marks":
            final["marks"][0] = []
        elif case == "wrong-width marks":
            final["marks"][0] = [row + [0.0] for row in final["marks"][0]]
        elif case == "non-finite marks":
            final["marks"][0][1][0] = float("nan")
        elif case == "last marks list deleted":
            del final["marks"][-1]
        else:
            del final["lines"][-1]
        assert_states_refused(payload, out, capsys, message)

    @pytest.mark.parametrize("case", UNSEPARATED_CASES)
    def test_unseparated_states_json_is_user_error(self, tmp_path, capsys, case):
        # each kind of violation check_separations finds, in a hand-edited
        # final state: the input is at fault, so exit 1, not 3
        payload, out = packing_states(tmp_path)
        message = unseparate(payload["states"][-1], case)
        assert_states_refused(payload, out, capsys, f"fails its separation checks: {message}")

    def test_unseparated_states_json_exits_1_under_optimize(self, tmp_path):
        # the separation checks of read_states must not rely on assert
        outs = []
        for case in UNSEPARATED_CASES:
            payload, out = packing_states(tmp_path / case)
            unseparate(payload["states"][-1], case)
            (out / "states.json").write_text(json.dumps(payload))
            outs.append(str(out))
        script = ("import sys; from furst.cli import main; print(*(main([c, '--out', o]) "
                  "for o in sys.argv[1:] for c in ('estimate', 'verify')))")
        proc = subprocess.run([sys.executable, "-O", "-c", script, *outs], env=source_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout.split() == ["1"] * 6, proc.stderr
        assert proc.stderr.count("fails its separation checks") == 6
        assert "Traceback" not in proc.stderr

    def test_verify_unsound_certificate_exits_3(self, tmp_path, capsys, monkeypatch):
        # a measured count of 0 leaves every pigeonhole bound above 3^d times it
        _, out = construct_box(tmp_path)
        monkeypatch.setattr(cli, "grid_counts", lambda cloud, scales: [0] * len(scales))
        assert main(["verify", "--out", str(out), "--scales", "0.0625,0.015625"]) == 3
        err = capsys.readouterr().err
        assert "error: a certificate exceeded the measured count" in err, err
        assert "Traceback" not in err
        certs = json.loads((out / "certificates.json").read_text())
        assert certs["all_sound"] is False
        assert len(certs["certificates"]) == 3
        assert not any(c["sound"] for c in certs["certificates"])
        assert json.loads((out / "verify_summary.json").read_text())["all_sound"] is False

    def test_verify_witnesses_closer_than_delta_exit_3(self, tmp_path, capsys, monkeypatch):
        # every kept line given the same witness: the exact pairwise check
        # of the witnesses refuses the certificate before it is written
        _, out = construct_box(tmp_path)
        monkeypatch.setattr(
            verifier, "_witness_on_line", lambda family, idx, cloud, tol: cloud.points[0]
        )
        assert main(["verify", "--out", str(out), "--scales", "0.0625,0.0625"]) == 3
        err = capsys.readouterr().err
        assert "pigeonhole extraction: witness pair at distance 0.000000e+00 < delta" in err, err
        assert "Traceback" not in err
        assert not (out / "certificates.json").exists()

    def test_verify_empty_family_warns_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "empty"
        out.mkdir()
        (out / "points.csv").write_text("x1,x2\n0.25,0.75\n")
        (out / "lines.csv").write_text("dir1,dir2,trans1,trans2\n")
        (out / "manifest.json").write_text(
            json.dumps(
                {
                    "kind": "box",
                    "spec": BOX_CONFIG,
                    "floors": {"points": 1e-9, "lines": 1e-9},
                    "thresholds": {"box": 0, "packing": 0, "hausdorff": 0},
                }
            )
        )
        assert main(["verify", "--out", str(out)]) == 0
        assert "no certificates" in capsys.readouterr().err
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["scales_checked"] == 0

    def test_report_svg(self, tmp_path):
        _, out = construct_box(tmp_path)
        main(["estimate", "--out", str(out), "--scales", "0.0625,0.000244140625"])
        assert main(["report", "--out", str(out)]) == 0
        svg = (out / "x_cover.svg").read_text()
        assert svg.startswith("<svg")
        assert "circle" in svg
        report = json.loads((out / "report.json").read_text())
        assert {s["series"] for s in report["series"]} == {"x_cover", "line_cover"}

    def test_report_without_estimate_fails(self, tmp_path):
        _, out = construct_box(tmp_path, name="bare")
        assert main(["report", "--out", str(out)]) == 1

    def test_missing_artifacts(self, tmp_path):
        assert main(["estimate", "--out", str(tmp_path / "nothing")]) == 1


class TestDeterminism:
    def test_box_outputs_byte_identical(self, tmp_path):
        _, out1 = construct_box(tmp_path, name="a")
        _, out2 = construct_box(tmp_path, name="b")
        for name in ("points.csv", "lines.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_packing_outputs_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path / "p.json", PACKING_CONFIG)
        outs = []
        for name in ("pa", "pb"):
            out = tmp_path / name
            assert main(
                ["construct-packing", "--config", cfg_path, "--out", str(out)]
            ) == 0
            outs.append(out)
        for name in ("trajectory.csv", "states.json", "manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", BOX_CONFIG)
        out = tmp_path / "s"
        assert main(
            ["construct-box", "--config", cfg_path, "--out", str(out), "--seed", "99"]
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["spec"]["seed"] == 99

    def test_packing_artifacts_match_golden_digests(self, tmp_path):
        cfg_path = write_config(tmp_path / "packing.json", README_PACKING_CONFIG)
        out = tmp_path / "pack"
        assert main(["construct-packing", "--config", cfg_path, "--out", str(out)]) == 0
        assert main(["estimate", "--out", str(out)]) == 0
        assert main(["verify", "--out", str(out)]) == 0
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
        }
        assert digests == README_PACKING_SHA256


def packing_etas(etas):
    return dict(PACKING_CONFIG, schedule={"mode": "demo", "etas": etas})


# (command, config, or an edit of a box run's manifest, text of the message)
WRONG_TYPES = [
    ("construct-box", dict(BOX_CONFIG, M="x"), "M must be a number"),
    ("construct-box", dict(BOX_CONFIG, t=None), "t must be a number"),
    ("construct-box", dict(BOX_CONFIG, cantor="x"), "cantor must be a JSON object"),
    ("construct-box", dict(BOX_CONFIG, cantor={"base": 3, "digits": "ab"}),
     "cantor digits must be a list"),
    ("construct-box", dict(BOX_CONFIG, seed="x"), "seed must be a number"),
    ("construct-box", {**{k: v for k, v in BOX_CONFIG.items() if k != "cantor"}, "s": "x"},
     "s must be a number"),
    ("construct-packing", dict(PACKING_CONFIG, s="a"), "s must be a number"),
    ("construct-packing", dict(PACKING_CONFIG, caps={"max_lines": "x"}),
     "caps.max_lines must be a number"),
    ("construct-packing", packing_etas("abc"), "schedule etas must be a list"),
    ("construct-packing", packing_etas([1.0, None]), "schedule etas must be a number"),
    *(
        (command, edit, message)
        for command in ("estimate", "verify")
        for edit, message in (
            (lambda m: {**m, "floors": {**m["floors"], "lines": "x"}},
             "floors.lines must be a number"),
            (lambda m: [m], "the manifest must be a JSON object"),
        )
    ),
]


@pytest.mark.parametrize("command, payload, message", WRONG_TYPES)
def test_wrong_typed_input_exits_1(tmp_path, capsys, command, payload, message):
    if command.startswith("construct"):
        out = tmp_path / "out"
        argv = ["--config", write_config(tmp_path / "c.json", payload), "--out", str(out)]
    else:
        code, out = construct_box(tmp_path)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        (out / "manifest.json").write_text(json.dumps(payload(manifest)))
        argv = ["--out", str(out)]
    capsys.readouterr()
    assert main([command, *argv]) == 1
    err = capsys.readouterr().err
    assert message in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("K", [-1, -2, 4])
def test_K_outside_the_schedule_exits_1(tmp_path, capsys, K):
    # a negative K once sliced the schedule from its end and ran fewer steps
    out = tmp_path / "out"
    argv = ["--config", write_config(tmp_path / "c.json", dict(PACKING_CONFIG, K=K)),
            "--out", str(out)]
    assert main(["construct-packing", *argv]) == 1
    err = capsys.readouterr().err
    assert f"K = {K} must lie in [0, 3]" in err, err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


def without(config, key, part=None):
    """config without `key`, or with `key` dropped from its `part` object."""
    if part is None:
        return {k: v for k, v in config.items() if k != key}
    return dict(config, **{part: without(config[part], key)})


# (command, config, the field the message names)
MISSING_FIELDS = [
    ("construct-box", without(BOX_CONFIG, "M"), "config", "M"),
    ("construct-box", without(BOX_CONFIG, "t"), "config", "t"),
    ("construct-box", without(BOX_CONFIG, "base", "cantor"), "cantor", "base"),
    ("construct-packing", without(PACKING_CONFIG, "schedule"), "config", "schedule"),
    ("construct-packing", without(PACKING_CONFIG, "etas", "schedule"), "schedule", "etas"),
    ("construct-packing", without(PACKING_CONFIG, "d"), "config", "d"),
]


@pytest.mark.parametrize("command, config, holder, field", MISSING_FIELDS,
                         ids=[f"{c}-{h}.{f}" for c, _, h, f in MISSING_FIELDS])
def test_missing_field_exits_1(tmp_path, capsys, command, config, holder, field):
    argv = ["--config", write_config(tmp_path / "c.json", config), "--out", str(tmp_path / "out")]
    assert main([command, *argv]) == 1
    err = capsys.readouterr().err
    assert f"{holder} is missing the required field '{field}'" in err, err
    assert "KeyError" not in err and "Traceback" not in err


def old_write_csv(path, header, rows):
    """The row-at-a-time writer `util.write_csv` replaced."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            for start in range(0, len(rows), 4096):
                block = rows[start : start + 4096].tolist()
                fh.writelines(",".join(map(str, row)) + "\n" for row in block)
        else:
            fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


@pytest.mark.parametrize("cols", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 9000])
def test_csv_writer_matches_the_row_writer(tmp_path, cols, n):
    rng = np.random.default_rng(n + cols)
    rows = rng.normal(size=(n, cols)) * 10.0 ** rng.integers(-20, 20, size=(n, cols))
    if n:
        rows.ravel()[::7] = -0.0
    header = [f"c{i}" for i in range(cols)]
    ints = rng.integers(-10**12, 10**12, size=(n, cols))
    for data in (rows, ints, [tuple(r) + ("x",) for r in rows.tolist()]):
        write_csv(tmp_path / "new.csv", header, data)
        old_write_csv(tmp_path / "old.csv", header, data)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
