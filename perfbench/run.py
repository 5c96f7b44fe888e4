"""Benchmark for furst: one workload per run, in a process of its own.

    python3 perfbench/run.py --workload box-cli --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run starts one worker process that
imports furst from ``src/``, sets the workload up, and repeats whole passes
of it until ``--seconds`` have gone by (at least one pass).  Every pass
checks each primary output against the digest in ``reference.json``.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics: stage times as medians over the passes, the worker's peak RSS, the
share of operations that succeeded and ``setup_s``, the median time from
process start until furst is imported and the configs and reference
digests are ready, over several fresh processes.  Within a pass a stage
shorter than ``workloads.MIN_STAGE_S`` is repeated and timed by its median.

With ``--trace 1`` every stage runs once, untraced and traced passes
alternate, and the last line holds the per-layer metrics of the traced
passes; ``trace.overhead_s`` is the traced minus the untraced median
``pipeline_s``, leaving out the cold first pass unless it is the only
untraced one.  Every metric is also printed by name, with its unit, before
a full record (seed, machine, per-pass times, sample counts).

``--record`` writes the digests of one pass to ``reference.json`` instead
of checking them; it is how the references were made.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("box-large", "box-cli", "d3")
SETUP_SAMPLES = 9  # one of them is the measuring worker's own set-up
WORKER_TIMEOUT_S = 170.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "construct_s": "s",
    "estimate_s": "s",
    "verify_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
SINGLE_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LIMITS = (
    "shared machine: the host slows the guest for seconds to minutes at a time",
    "file cache not dropped between passes or runs",
    "no CPU pinning",
    "peak_rss_mb is ru_maxrss from getrusage of the workload process",
)


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_point"):
        return "ns"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def summary(values):
    """Median, the highest percentile with at least ten samples above it, count."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n >= 11:
        out[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return out


# ---------------------------------------------------------------- worker


def _import_furst():
    sys.path.insert(0, str(ROOT / "src"))
    import furst

    if Path(furst.__file__).resolve().parent != ROOT / "src" / "furst":
        raise ImportError(f"furst imported from {furst.__file__}, not src/")


def _run_pass(setup, run, stages, seed, tracer, reference, pass_no, repeat=False):
    """One pass; returns (the Pass, operations attempted, failures)."""
    import workloads

    p = workloads.Pass(seed, tracer, repeat)
    raised = None
    try:
        if tracer is None:
            run(p, setup)
        else:
            with tracer.installed(pass_no):
                run(p, setup)
    except Exception:  # a failing stage is counted, and the run goes on
        traceback.print_exc()
        raised = p.current or stages[0]
    failed = {stage: msg for stage, msg in p.violations}
    if reference is not None:
        for key, want in reference.items():
            stage, name = key.split("/", 1)
            got = p.digests.get(name)
            if got is None:
                failed.setdefault(stage, f"{name}: not produced")
            elif got[1] != want:
                failed.setdefault(stage, f"{name}: digest differs")
        for name, (stage, _) in p.digests.items():
            if f"{stage}/{name}" not in reference:
                failed.setdefault(stage, f"{name}: no reference digest")
    if raised is not None:
        for stage in stages[stages.index(raised):]:
            failed.setdefault(stage, "raised")
    return p, len(stages), failed


def worker(args):
    """Set the workload up, report set-up time, then measure (or record)."""
    _import_furst()
    import numpy
    import spans
    import workloads

    setup_fn, run, stages = workloads.WORKLOADS[args.workload]
    reference = None
    if not args.record:
        reference = json.loads(REFERENCE.read_text())[args.workload]
    setup = setup_fn(args.seed, Path(args.workdir))
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print("SETUP " + json.dumps(setup_s), flush=True)
        return 0

    tracer = spans.Tracer() if args.trace else None
    passes = []  # (traced, stage times)
    repeats = []  # stage -> runs of the stage, per pass
    attempted, failures, traced_passes = 0, [], []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        p, n, failed = _run_pass(
            setup, run, stages, args.seed, tracer if traced else None,
            reference, len(passes), repeat=not args.trace,
        )
        if traced:
            traced_passes.append(len(passes))
        passes.append((traced, p.times))
        repeats.append({stage: len(s) for stage, s in p.samples.items()})
        attempted += n
        failures += [f"pass {len(passes) - 1} {s}: {m}" for s, m in failed.items()]
        if args.record:
            recorded = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
            recorded[args.workload] = {f"{s}/{k}": h for k, (s, h) in p.digests.items()}
            REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
            break
        done = time.perf_counter() - start >= args.seconds
        if done and (not args.trace or traced_passes):
            break

    result = {
        "numpy": numpy.__version__,
        "setup_s": setup_s,
        "passes": [
            {"traced": t, "times": times, "repeats": r}
            for (t, times), r in zip(passes, repeats)
        ],
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        # pass 0 is untraced and cold: compare with it only if it is alone
        pipeline = {
            t: [sum(times.values()) for traced, times in passes if traced == t]
            for t in (False, True)
        }
        untraced = pipeline[False][1:] or pipeline[False]
        overhead = statistics.median(pipeline[True]) - statistics.median(untraced)
        result["layers"] = spans.layer_metrics(tracer, traced_passes, overhead)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------- driver


def _read_first(path, prefix):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine_record(numpy_version):
    llc = None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    if cache.is_dir():
        levels = []
        for index in cache.glob("index*"):
            try:
                levels.append((int((index / "level").read_text()),
                               (index / "size").read_text().strip()))
            except (OSError, ValueError):
                continue
        llc = max(levels)[1] if levels else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "llc": llc,
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "limits": list(LIMITS),
    }


def _spawn(args, workdir, deadline, *extra):
    """Run one worker to completion; return the payload of its tagged line."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--t0", repr(time.monotonic()), *extra,
    ]
    if args.record:
        cmd.append("--record")
    # one process and one thread of load: no BLAS or OpenMP thread pools
    env = {**os.environ, **{k: "1" for k in SINGLE_THREAD_ENV}}
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    tag = "SETUP " if "--setup-only" in extra else "RESULT "
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith(tag)]
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1][len(tag):])


def drive(args):
    if not (ROOT / "src" / "furst" / "__init__.py").is_file():
        print(f"error: no furst sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file() and not args.record:
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    workdir = HERE / "_out" / f"{args.workload}-{os.getpid()}"
    try:
        setup = [
            _spawn(args, workdir, deadline, "--setup-only")
            for _ in range(SETUP_SAMPLES - 1)
        ]
        result = _spawn(args, workdir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup.append(result["setup_s"])
    untraced = [p["times"] for p in result["passes"] if not p["traced"]]
    samples = {"setup_s": summary(setup)}
    for stage in ("construct", "estimate", "verify"):
        samples[f"{stage}_s"] = summary([t.get(stage, 0.0) for t in untraced])
    samples["pipeline_s"] = summary([sum(t.values()) for t in untraced])
    attempted = result["attempted"]
    failed = len(result["failures"])
    end_to_end = {name: s["median"] for name, s in samples.items()}
    end_to_end["peak_rss_mb"] = result["peak_rss_mb"]
    end_to_end["ok_ratio"] = (attempted - failed) / attempted

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in result["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end.items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(result['passes'])}  attempted {attempted}  failed {failed}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for name, metric in metrics.items():
        note = samples.get(name)
        extra = f"  (median of {note['n']})" if note else ""
        print(f"  {name:40s} {metric['value']:>16.6f} {metric['unit']}{extra}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        "passes": result["passes"],
        "end_to_end": end_to_end,
        "layers": result.get("layers"),
        "failures": result["failures"],
        "machine": machine_record(result["numpy"]),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    return worker(args) if args.worker else drive(args)


if __name__ == "__main__":
    sys.exit(main())
