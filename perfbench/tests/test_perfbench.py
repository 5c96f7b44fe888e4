"""Tests of the benchmark itself: its correctness gate and its metric names.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_furst()

import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = json.loads((HERE / "metrics.json").read_text())


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tampered_reference_digest_fails_the_gate(tmp_path):
    setup_fn, run_pass, stages = workloads.WORKLOADS["box-cli"]
    reference = json.loads(run.REFERENCE.read_text())["box-cli"]
    setup = setup_fn(11, tmp_path)

    _, attempted, failed = run._run_pass(setup, run_pass, stages, 11, None, reference, 0)
    assert attempted == 4 and failed == {}

    key = "verify/artifact:certificates.json"
    tampered = {**reference, key: "0" * 64}
    _, _, failed = run._run_pass(setup, run_pass, stages, 11, None, tampered, 0)
    assert failed == {"verify": "artifact:certificates.json: digest differs"}


def test_tampered_reference_file_makes_the_run_incorrect(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    reference["box-cli"]["construct/artifact:lines.csv"] = "f" * 64
    path.write_text(json.dumps(reference))

    result = _result(_bench(tmp_path, "--workload", "box-cli", "--seed", "2",
                            "--seconds", "0", "--trace", "0"))
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert result["metrics"]["ok_ratio"]["value"] == 0.75


def test_emitted_metric_names_match_benchmark_json():
    untraced = _result(_bench(ROOT, "--workload", "box-cli", "--seed", "5",
                              "--seconds", "0", "--trace", "0"))
    traced = _result(_bench(ROOT, "--workload", "box-cli", "--seed", "5",
                            "--seconds", "0", "--trace", "1"))
    assert untraced["correct"] and traced["correct"]
    declared = {
        kind: {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        for kind in ("end_to_end", "per_layer")
    }
    for kind, result in (("end_to_end", untraced), ("per_layer", traced)):
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == declared[kind]
        assert set(METRICS[kind]) == set(declared[kind])


def test_workload_names_match_benchmark_json():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "d3", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
