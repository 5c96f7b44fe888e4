"""The benchmark's workloads: one pass each through furst's API or CLI.

A pass times its stages (construct, estimate, verify and, for box-cli,
report) and, outside the timed stages, digests every primary output so the
run can compare it with the digest recorded in ``reference.json``.  The
inputs are fixed; the workload seed only goes into each config's ``seed``
field, which today's constructions ignore, so the digests are the same for
every seed.
"""

import hashlib
import json
import shutil
import statistics
import time
from contextlib import nullcontext

import numpy as np

import furst
import furst.cli

STAGES = ("construct", "estimate", "verify", "report")
MIN_STAGE_S = 2.0
THIRDS = {"base": 3, "digits": [0, 2]}


def dyadic(first, last):
    """2^-first, ..., 2^-last."""
    return [2.0**-j for j in range(first, last + 1)]


def digest(value) -> str:
    """sha256 of an output: array bytes with dtype and shape, raw bytes, or JSON."""
    h = hashlib.sha256()
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, bytes):
        h.update(value)
    else:
        h.update(json.dumps(value, sort_keys=True).encode())
    return h.hexdigest()


class Pass:
    """Stage timings, output digests and failed checks of one pass.

    With ``repeat`` set, a stage's work runs again until it has taken
    MIN_STAGE_S in all: a stage of a tenth of a second is otherwise one
    sample of the machine's speed per pass, and the machine's speed comes
    and goes.  The stage's time is the median of its repeats.  Stages are
    idempotent, so a repeat redoes the same work on the same inputs.
    """

    def __init__(self, seed, tracer=None, repeat=False):
        self.seed = seed
        self.tracer = tracer
        self.repeat = repeat
        self.samples = {}  # stage -> seconds of each repeat
        self.digests = {}  # output name -> (stage, digest)
        self.violations = []  # (stage, message)
        self.current = None  # the stage entered last

    def stage(self, name):
        """Iterate over this to run and time the loop body as stage `name`."""
        self.current = name
        samples = self.samples.setdefault(name, [])
        while True:
            start = time.perf_counter()
            yield
            samples.append(time.perf_counter() - start)
            if not self.repeat or sum(samples) >= MIN_STAGE_S:
                return

    @property
    def times(self):
        """Stage -> median seconds of one run of the stage."""
        return {name: statistics.median(s) for name, s in self.samples.items() if s}

    def output(self, stage, name, value):
        self.digests[name] = (stage, digest(value))

    def require(self, stage, ok, message):
        if not ok:
            self.violations.append((stage, message))

    def cli(self, stage, argv, out):
        """Run one CLI command as a timed stage and digest the files it wrote."""
        before = {p.name for p in out.iterdir()} if out.exists() else set()
        codes = []
        for _ in self.stage(stage):
            with self.tracer.span(f"cli.{stage}") if self.tracer else nullcontext():
                codes.append(furst.cli.main([str(a) for a in argv]))
        self.require(stage, set(codes) == {0}, f"{argv[0]} exited {codes}")
        for path in sorted(out.iterdir()):
            if path.name not in before:
                data = self._unseeded(path.read_bytes(), path.name, stage)
                self.output(stage, f"artifact:{path.name}", data)
                if self.tracer:
                    self.tracer.add("cli.bytes_written", len(data))

    def _unseeded(self, data, name, stage):
        """Artifact bytes with the echoed config seed replaced by a placeholder.

        Manifests echo the config, seed included; every other byte must match
        the reference whatever the seed, and the echo must be the seed given.
        """
        if name != "manifest.json":
            return data
        echo = f'"seed": {self.seed}'.encode()
        self.require(stage, data.count(echo) == 1, f"{name} does not echo the seed")
        return data.replace(echo, b'"seed": "<seed>"')


def _check_pigeonhole(family, cloud, scales):
    """cmd_verify's soundness rule at each scale: extract, count, compare."""
    rows = []
    for delta in scales:
        cert = furst.pigeonhole_extract(family, cloud, delta)
        measured = furst.grid_count(cloud, delta)
        rows.append((delta, cert, measured, cert.min_witness_separation()))
    return rows


def _record_pigeonhole(p, rows, d):
    for delta, cert, measured, separation in rows:
        p.require("verify", cert.bound <= 3**d * measured,
                  f"bound {cert.bound} > 3^{d} * {measured} at {delta}")
        p.require("verify", separation >= delta,
                  f"witness separation {separation} < {delta}")
        p.output("verify", f"pigeonhole@{delta!r}", {
            "bound": cert.bound,
            "bucket": cert.bucket,
            "measured": measured,
            "lines": list(cert.line_indices),
            "witnesses": digest(cert.witnesses),
        })


def _two_point(final):
    """cmd_verify's two-point extraction on the last packing state."""
    xs = np.array([m[0] for m in final.marks])
    ys = np.array([m[-1] for m in final.marks])
    n = int(np.ceil(1.0 / float(np.linalg.norm(xs - ys, axis=1).min())))
    cert = furst.two_point_extract(final.line_family(), xs, ys, final.eta, final.t, n)
    measured = furst.grid_count(final.mark_cloud(), final.eta)
    return cert, measured, cert.min_witness_separation()


# box-large: acceptance instance 2, library flow, no file I/O


def setup_box_large(seed, workdir):
    cfg = {
        "d": 2, "s": 0.3, "t": 1.9, "M": 2000, "N": 2048, "depth": 1,
        "seed": seed, "dir_density": 12,
    }
    return furst.BoxSharpSpec.from_config(cfg)


def pass_box_large(p, spec):
    x_scales, line_scales, verify_scales = dyadic(2, 7), dyadic(5, 13), dyadic(2, 7)
    for _ in p.stage("construct"):
        cloud = furst.build_points(spec)
        family = furst.build_lines(spec)
    p.output("construct", "points", cloud.points)
    p.output("construct", "directions", family.directions)
    p.output("construct", "translations", family.translations)
    p.output("construct", "floors", [cloud.resolution_floor, family.resolution_floor])
    for _ in p.stage("estimate"):
        report = furst.estimate_dimension(cloud, x_scales)
        line_counts = [furst.mesh_cover_count(family, s) for s in line_scales]
        line_fit = furst.fit_slope(line_scales, line_counts)
        calibration = furst.calibrate_cover(spec, cloud, x_scales[0])
        envelope = [furst.predicted_cover(spec, s, calibration=calibration)
                    for s in x_scales]
    p.output("estimate", "x_cover", [list(report.counts), report.slope, report.residual])
    p.output("estimate", "line_cover", [line_counts, *line_fit])
    p.output("estimate", "envelope", [calibration, envelope])
    for _ in p.stage("verify"):
        rows = _check_pigeonhole(family, cloud, verify_scales)
    _record_pigeonhole(p, rows, spec.d)


# box-cli: instance 1's spec at depth 12 through the CLI, default scales


def setup_box_cli(seed, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / "box.json"
    config.write_text(json.dumps({
        "d": 2, "cantor": THIRDS, "t": 1.5, "M": 8, "N": 8, "depth": 12,
        "seed": seed,
    }))
    return config, workdir / "box-out"


def pass_box_cli(p, setup):
    config, out = setup
    shutil.rmtree(out, ignore_errors=True)
    p.cli("construct", ["construct-box", "--config", config, "--out", out], out)
    p.cli("estimate", ["estimate", "--out", out], out)
    p.cli("verify", ["verify", "--out", out], out)
    p.cli("report", ["report", "--out", out], out)


# d3: the d >= 3 paths (greedy sphere net, Gram-Schmidt frames), library flow


def setup_d3(seed, workdir):
    spec = furst.BoxSharpSpec.from_config({
        "d": 3, "cantor": THIRDS, "t": 2.5, "M": 64, "N": 64, "depth": 5,
        "seed": seed,
    })
    schedule = furst.ScaleSchedule((1.0, 1 / 16, 2.0**-10), mode="demo")
    return spec, schedule


def pass_d3(p, setup):
    spec, schedule = setup
    for _ in p.stage("construct"):
        cloud = furst.build_points(spec)
        family = furst.build_lines(spec)
        states = furst.run_alternating(3, 0.5, 2.0, schedule)
    p.output("construct", "points", cloud.points)
    p.output("construct", "directions", family.directions)
    p.output("construct", "translations", family.translations)
    p.output("construct", "floors", [cloud.resolution_floor, family.resolution_floor])
    p.output("construct", "trajectory",
             [[st.num_lines, st.num_marks] for st in states])
    final = states[-1]
    p.output("construct", "final_lines", final.line_family().translations)
    p.output("construct", "final_marks", final.all_marks())
    line_scales = dyadic(1, 5)
    for _ in p.stage("estimate"):
        report = furst.estimate_dimension(cloud, dyadic(2, 8))
        line_counts = [furst.mesh_cover_count(family, s) for s in line_scales]
        line_fit = furst.fit_slope(line_scales, line_counts)
        nc = furst.neighborhood_counts(states, 0, 1 / 8)
    p.output("estimate", "x_cover", [list(report.counts), report.slope, report.residual])
    p.output("estimate", "line_cover", [line_counts, *line_fit])
    p.output("estimate", "neighborhood", [
        nc.measured_points, nc.measured_lines, nc.predicted_points, nc.predicted_lines,
    ])
    for _ in p.stage("verify"):
        rows = _check_pigeonhole(family, cloud, dyadic(2, 5))
        cert, measured, separation = _two_point(final)
    _record_pigeonhole(p, rows, spec.d)
    p.require("verify", cert.bound <= 3**spec.d * measured,
              f"two-point bound {cert.bound} > 3^{spec.d} * {measured}")
    p.require("verify", separation >= final.eta,
              f"two-point witness separation {separation} < {final.eta}")
    p.output("verify", "two_point", {
        "branch": cert.branch,
        "bound": cert.bound,
        "measured": measured,
        "lines": list(cert.line_indices),
        "witnesses": digest(cert.witnesses),
    })


# name -> (set-up, pass, stages run)
WORKLOADS = {
    "box-large": (setup_box_large, pass_box_large, STAGES[:3]),
    "box-cli": (setup_box_cli, pass_box_cli, STAGES),
    "d3": (setup_d3, pass_d3, STAGES[:3]),
}
