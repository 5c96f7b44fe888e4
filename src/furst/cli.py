"""Batch front-end: construct, estimate, verify, report.

Every command reads a JSON config and/or a previously written output
directory and emits flat files (CSV/JSON/SVG).  Outputs are byte-stable
for a fixed config and seed: no timestamps, sorted JSON keys, repr-exact
floats.  Exit codes: 0 success, 1 user/config error, 2 resource cap,
3 soundness violation.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .boxcount import (
    PointCloud,
    check_scale,
    dyadic_schedule,
    estimate_dimension,
    fit_slope,
    grid_count,
    grid_counts,
    write_cover,
)
from .construct_box import BoxSharpSpec, build_lines, build_points, calibrate_cover, predicted_cover
from .construct_packing import (
    DEFAULT_MAX_LINES,
    DEFAULT_MAX_MARKS,
    OPTION_LINES,
    ScaleSchedule,
    predicted_step_factors,
    read_states,
    run_alternating,
    write_states,
)
from .errors import FurstError, InconsistentInput, InvalidParameter, ResourceCap, SoundnessViolation
from .grassmann import LineFamily, mesh_cover_count
from .util import as_number, as_object, read_csv, read_json, required, write_csv, write_json
from .verifier import dimension_thresholds, pigeonhole_extract, two_point_extract

EXIT_OK = 0
EXIT_USER = 1
EXIT_RESOURCE = 2
EXIT_SOUNDNESS = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through EXIT_USER instead
    def error(self, message):
        raise InvalidParameter(message)


def cmd_construct_box(config: dict, out: Path) -> int:
    spec = BoxSharpSpec.from_config(config)
    cloud = build_points(spec)
    family = build_lines(spec)
    out.mkdir(parents=True, exist_ok=True)
    d = spec.d
    write_csv(out / "points.csv", [f"x{i + 1}" for i in range(d)], cloud.points)
    write_csv(
        out / "lines.csv",
        [f"dir{i + 1}" for i in range(d)] + [f"trans{i + 1}" for i in range(d)],
        np.hstack([family.directions, family.translations]),
    )
    box, packing, hausdorff = dimension_thresholds(spec.d, spec.s, spec.t)
    write_json(
        out / "manifest.json",
        {
            "kind": "box",
            "spec": spec.to_config(),
            "achieved_s": spec.s,
            "beta": spec.beta,
            "collapsed": spec.collapsed,
            "counts": {"points": len(cloud), "lines": len(family)},
            "floors": {
                "points": cloud.resolution_floor,
                "lines": family.resolution_floor,
            },
            "thresholds": {"box": box, "packing": packing, "hausdorff": hausdorff},
        },
    )
    return EXIT_OK


def cmd_construct_packing(config: dict, out: Path) -> int:
    schedule = ScaleSchedule.from_config(required(config, "schedule"))
    K = as_number(int, config.get("K", schedule.steps), "K")
    if K > schedule.steps:
        raise InvalidParameter(f"K = {K} exceeds the schedule's {schedule.steps} steps")
    schedule = ScaleSchedule(schedule.etas[: K + 1], schedule.mode)
    caps = as_object(config.get("caps", {}), "caps")
    first = config.get("first", OPTION_LINES)
    states = run_alternating(
        as_number(int, required(config, "d"), "d"),
        as_number(float, required(config, "s"), "s"),
        as_number(float, required(config, "t"), "t"),
        schedule,
        first_option=first,
        max_lines=as_number(int, caps.get("max_lines", DEFAULT_MAX_LINES), "caps.max_lines"),
        max_marks=as_number(int, caps.get("max_marks", DEFAULT_MAX_MARKS), "caps.max_marks"),
    )
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    pred_l, pred_m = 1.0, 1.0
    for st in states:
        rows.append(
            (st.k, st.eta, st.history[-1] if st.history else "",
             st.num_lines, st.num_marks, pred_l, pred_m)
        )
        if st.k < len(states) - 1:
            fl, fm = predicted_step_factors(
                st, schedule.etas[st.k + 1], states[st.k + 1].history[-1]
            )
            pred_l *= fl
            pred_m *= fm
    write_csv(
        out / "trajectory.csv",
        ("k", "eta", "option", "num_lines", "num_marks", "pred_lines", "pred_marks"),
        rows,
    )
    write_states(out / "states.json", schedule, states)
    write_json(
        out / "manifest.json",
        {
            "kind": "packing",
            "config": config,
            "counts": {
                "final_lines": states[-1].num_lines,
                "final_marks": states[-1].num_marks,
            },
        },
    )
    return EXIT_OK


def _read_manifest(out: Path) -> dict:
    return as_object(read_json(out / "manifest.json"), "the manifest")


def _load_box_artifacts(out: Path, manifest: dict):
    floors = as_object(manifest["floors"], "the manifest's floors")
    pts = read_csv(out / "points.csv")
    if len(pts) == 0:
        raise InconsistentInput(f"{out / 'points.csv'} holds no points")
    cloud = PointCloud(pts, as_number(float, floors["points"], "floors.points"))
    d = pts.shape[1]
    raw = read_csv(out / "lines.csv")
    family = LineFamily(raw[:, :d], raw[:, d:], as_number(float, floors["lines"], "floors.lines"))
    return cloud, family


def _default_scales(floor: float, requested) -> list[float]:
    if requested:
        return dyadic_schedule(requested[0], requested[1])
    return dyadic_schedule(0.25, max(floor, 2.0**-12))


def cmd_estimate(out: Path, scales) -> int:
    manifest = _read_manifest(out)
    if manifest.get("kind") == "box":
        cloud, family = _load_box_artifacts(out, manifest)
        spec = BoxSharpSpec.from_config(manifest["spec"])
        xsched = _default_scales(cloud.resolution_floor, scales)
        report = estimate_dimension(cloud, xsched)
        calibration = calibrate_cover(spec, cloud, xsched[0])
        envelope = [predicted_cover(spec, s, calibration=calibration) for s in xsched]
        report.write(
            out / "x_cover",
            extra={
                "thresholds": manifest["thresholds"],
                "envelope_calibration": calibration,
                "envelope": envelope,
                "envelope_holds": bool(
                    all(n <= e for n, e in zip(report.counts, envelope))
                ),
            },
        )
        lsched = [s for s in _default_scales(family.resolution_floor, scales)
                  if s >= family.resolution_floor]
        if len(lsched) < 3:
            raise InvalidParameter(
                "fewer than 3 usable line scales above the family's "
                f"resolution floor {family.resolution_floor:.3e}"
            )
        lcounts = [mesh_cover_count(family, s) for s in lsched]
        lslope, lresid = fit_slope(lsched, lcounts)
        write_cover(
            out / "line_cover",
            lsched,
            lcounts,
            {
                "slope": lslope,
                "residual": lresid,
                "fit_range": [lsched[0], lsched[-1]],
                "target_t": spec.t,
                "thresholds": manifest["thresholds"],
            },
        )
        return EXIT_OK
    if manifest.get("kind") == "packing":
        states = read_states(out / "states.json")
        rows = []
        for st in states[1:]:
            mcount = grid_count(st.mark_cloud(), st.eta)
            lcount = mesh_cover_count(st.line_family(), st.eta)
            log_inv = np.log(1.0 / st.eta)
            rows.append((st.k, st.eta, mcount, lcount, float(np.log(mcount) / log_inv),
                         float(np.log(lcount) / log_inv)))
        write_csv(
            out / "packing_exponents.csv",
            ("k", "eta", "mark_cells", "line_cells", "mark_exponent", "line_exponent"),
            rows,
        )
        write_json(
            out / "packing_exponents.json",
            {
                "mark_exponent_cap": max(states[0].s, states[0].t / 2.0),
                "max_mark_exponent": max(r[4] for r in rows) if rows else 0.0,
            },
        )
        return EXIT_OK
    raise InvalidParameter(f"unknown artifact kind in {out}")


def cmd_verify(out: Path, scales) -> int:
    manifest = _read_manifest(out)
    checked = []  # (certificate, measured count, sound)
    if manifest.get("kind") == "box":
        cloud, family = _load_box_artifacts(out, manifest)
        sched = [
            s
            for s in _default_scales(cloud.resolution_floor, scales)
            if s <= 0.5
        ]
        if not sched:
            raise InvalidParameter("no usable scales at or below 0.5")
        if len(family) == 0:
            sched = []
        certs = []
        for s in sched:  # each scale's errors in grid_count's order
            certs.append(pigeonhole_extract(family, cloud, s))
            check_scale(cloud, s)
        for s, cert, measured in zip(sched, certs, grid_counts(cloud, sched)):
            ok = (
                cert.bound <= 3**cloud.dim * measured
                and cert.min_witness_separation() >= s
            )
            checked.append((cert, measured, ok))
    elif manifest.get("kind") == "packing":
        final = read_states(out / "states.json")[-1]
        if final.counts.min() >= 2:
            xs = np.array([m[0] for m in final.marks])
            ys = np.array([m[-1] for m in final.marks])
            gap = float(np.linalg.norm(xs - ys, axis=1).min())
            n = int(np.ceil(1.0 / gap))
            cert = two_point_extract(final.line_family(), xs, ys, final.eta, final.t, n)
            measured = grid_count(final.mark_cloud(), final.eta)
            checked.append((cert, measured, cert.bound <= 3**final.d * measured))
    else:
        raise InvalidParameter(f"unknown artifact kind in {out}")
    certificates = [
        dict(cert.to_json(), measured_count=measured, sound=ok)
        for cert, measured, ok in checked
    ]
    sound = all(ok for _, _, ok in checked)
    write_json(out / "certificates.json", {"certificates": certificates, "all_sound": sound})
    write_json(
        out / "verify_summary.json",
        {"scales_checked": len(certificates), "all_sound": sound},
    )
    if not certificates:
        print("verify: no certificates produced (empty input)", file=sys.stderr)
    if not sound:
        raise SoundnessViolation("a certificate exceeded the measured count")
    return EXIT_OK


def _svg_scatter(path: Path, xs, ys, slope: float, intercept: float, title: str):
    """Minimal deterministic SVG scatter of (x, y) with the fitted line."""
    W, H, m = 640, 480, 60
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0

    def sx(x):
        return m + (x - x0) / xr * (W - 2 * m)

    def sy(y):
        return H - m - (y - y0) / yr * (H - 2 * m)

    rows = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{m}" y1="{H - m}" x2="{W - m}" y2="{H - m}" stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{H - m}" stroke="black"/>',
        f'<text x="{W // 2}" y="{H - 15}" text-anchor="middle" font-size="13">log(1/delta)</text>',
        f'<text x="18" y="{H // 2}" font-size="13" transform="rotate(-90 18 {H // 2})" text-anchor="middle">log(count)</text>',
        f'<text x="{W // 2}" y="25" text-anchor="middle" font-size="14">{title} (slope {slope:.4f})</text>',
    ]
    ya, yb = intercept + slope * x0, intercept + slope * x1
    rows.append(
        f'<line x1="{sx(x0):.2f}" y1="{sy(ya):.2f}" x2="{sx(x1):.2f}" '
        f'y2="{sy(yb):.2f}" stroke="#888" stroke-dasharray="4 3"/>'
    )
    for x, y in zip(xs, ys):
        rows.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="#1f5fa8"/>')
    rows.append("</svg>")
    path.write_text("\n".join(rows) + "\n")


def cmd_report(out: Path) -> int:
    made = []
    for stem in ("x_cover", "line_cover"):
        csv = out / f"{stem}.csv"
        sidecar = out / f"{stem}.json"
        if not csv.exists() or not sidecar.exists():
            continue
        data = read_csv(csv)
        meta = read_json(sidecar)
        xs, ys = data[:, 2], data[:, 3]
        slope = meta["slope"]
        intercept = float(ys.mean() - slope * xs.mean())
        _svg_scatter(out / f"{stem}.svg", xs, ys, slope, intercept, stem)
        made.append({"series": stem, "slope": slope, "points": len(xs)})
    if not made:
        raise InvalidParameter(
            f"no cover reports found in {out}; run `estimate` first"
        )
    write_json(out / "report.json", {"series": made})
    return EXIT_OK


def _parse_scales(text):
    if text is None:
        return None
    try:
        hi, lo = (float(x) for x in text.split(","))
    except ValueError as exc:
        raise InvalidParameter("--scales expects 'max,min'") from exc
    return (hi, lo)


def build_parser() -> _Parser:
    parser = _Parser(prog="furst", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("construct-box", "construct-packing"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
    for name in ("estimate", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--out", required=True)
        p.add_argument("--scales", default=None)
    sub.add_parser("report").add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        out = Path(args.out)
        if args.command in ("construct-box", "construct-packing"):
            config = as_object(read_json(Path(args.config)), "the config")
            if args.seed is not None:
                config["seed"] = args.seed
            if "seed" not in config:
                raise InvalidParameter(
                    "a seed is required, via the config or --seed"
                )
            if args.command == "construct-box":
                return cmd_construct_box(config, out)
            return cmd_construct_packing(config, out)
        if args.command == "estimate":
            return cmd_estimate(out, _parse_scales(args.scales))
        if args.command == "verify":
            return cmd_verify(out, _parse_scales(args.scales))
        return cmd_report(out)
    except SoundnessViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOUNDNESS
    except ResourceCap as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InvalidParameter, InconsistentInput, FurstError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return EXIT_USER


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
