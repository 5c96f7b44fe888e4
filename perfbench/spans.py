"""In-memory spans around furst's public functions, installed from outside.

The tracer replaces each traced function at every module attribute it is
looked up through (``furst.boxcount.grid_count`` is also reached as
``furst.cli.grid_count``, ``furst.construct_box.grid_count`` and
``furst.grid_count``), so spans nest the way the calls do and a layer's
self time is its span minus the spans of the calls it made.  No file of
the package is edited.  Spans stay in memory; metrics are derived from
them when the run ends.
"""

import functools
import statistics
import sys
import time
from contextlib import contextmanager


def _count_points(tr, args, result):
    tr.add("boxcount.points_counted", len(args[0]))


def _count_lines_binned(tr, args, result):
    tr.add("grassmann.lines_binned", len(args[0]))


def _count_centers(tr, args, result):
    tr.add("grassmann.direction_cover_centers", len(result))


def _count_points_built(tr, args, result):
    tr.add("construct_box.points", len(result))


def _count_lines_built(tr, args, result):
    tr.add("construct_box.lines", len(result))


def _final_state(tr, args, result):
    tr.put("construct_packing.final_lines", result.num_lines)
    tr.put("construct_packing.final_marks", result.num_marks)


def _pigeonhole_outcome(tr, args, result):
    tr.add("verifier.witnesses", result.num_witnesses)
    tr.add("verifier.kept", result.bound)
    tr.add("verifier.occupied", result.meta["occupied_cells_best_bucket"])


def _two_point_outcome(tr, args, result):
    tr.add("verifier.witnesses", result.num_witnesses)


# (module, attribute, span name, hook run on (tracer, args, result))
TARGETS = (
    ("furst.boxcount", "grid_count", "boxcount.grid_count", _count_points),
    ("furst.boxcount", "estimate_dimension", "boxcount.estimate_dimension", None),
    ("furst.grassmann", "mesh_cover_count", "grassmann.mesh_cover_count", None),
    ("furst.grassmann", "mesh_assign", "grassmann.mesh_assign", _count_lines_binned),
    ("furst.grassmann", "direction_cover", "grassmann.direction_cover", _count_centers),
    ("furst.cantor", "points_at_depth", "cantor.points_at_depth", None),
    ("furst.construct_box", "build_points", "construct_box.build_points", _count_points_built),
    ("furst.construct_box", "build_lines", "construct_box.build_lines", _count_lines_built),
    ("furst.construct_box", "make_directions", "construct_box.make_directions", None),
    ("furst.construct_box", "calibrate_cover", "construct_box.calibrate_cover", None),
    ("furst.construct_packing", "spread_lines", "construct_packing.spread_lines", _final_state),
    ("furst.construct_packing", "spread_marks", "construct_packing.spread_marks", _final_state),
    (
        "furst.construct_packing",
        "MarkedLineState.check_separations",
        "construct_packing.check_separations",
        None,
    ),
    ("furst.verifier", "pigeonhole_extract", "verifier.pigeonhole_extract", _pigeonhole_outcome),
    ("furst.verifier", "two_point_extract", "verifier.two_point_extract", _two_point_outcome),
    (
        "furst.verifier",
        "ExtractionCertificate.min_witness_separation",
        "verifier.min_witness_separation",
        None,
    ),
)

# per-element helpers: a span per call would swamp the run, so only count
COUNTED = (("furst.grassmann", "metric_d1", "grassmann.metric_d1_calls"),)

CLI_COMMANDS = ("construct", "estimate", "verify", "report")


class Tracer:
    """Spans and counters of the traced passes of one run."""

    def __init__(self):
        # [name, start, end, parent index, pass number]
        self.spans = []
        self.counts = {}  # pass number -> {counter name: value}
        self.pass_no = None
        self._stack = []
        self._patches = []

    def add(self, name, value):
        per_pass = self.counts.setdefault(self.pass_no, {})
        per_pass[name] = per_pass.get(name, 0) + value

    def put(self, name, value):
        self.counts.setdefault(self.pass_no, {})[name] = value

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.pass_no]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _spanned(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def _counted(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.add(name, 1)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, pass_no):
        """Wrap every target for the duration of one traced pass."""
        self.pass_no = pass_no
        self.counts.setdefault(pass_no, {})
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if name == "furst" or name.startswith("furst.")
        ]
        try:
            for module_name, attr, name, hook in TARGETS:
                self._install(modules, module_name, attr,
                              lambda fn: self._spanned(fn, name, hook))
            for module_name, attr, name in COUNTED:
                self._install(modules, module_name, attr,
                              lambda fn: self._counted(fn, name))
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _install(self, modules, module_name, attr, make):
        home = sys.modules[module_name]
        if "." in attr:  # a method: patch the class that defines it
            cls_name, method = attr.split(".")
            owner = getattr(home, cls_name)
            original = owner.__dict__[method]
            self._patches.append((owner, method, original))
            setattr(owner, method, make(original))
            return
        original = getattr(home, attr)
        wrapped = make(original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapped)

    def self_times(self, pass_no):
        """Span name -> (summed self time, summed duration, calls) in one pass."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, p in self.spans:
            if p == pass_no and parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent, p) in enumerate(self.spans):
            if p != pass_no:
                continue
            self_s, total_s, calls = out.get(name, (0.0, 0.0, 0))
            out[name] = (
                self_s + (end - start) - child_time[i],
                total_s + (end - start),
                calls + 1,
            )
        return out


def _pass_metrics(tracer, pass_no):
    times = tracer.self_times(pass_no)
    counts = tracer.counts.get(pass_no, {})

    def self_s(name):
        return times.get(name, (0.0, 0.0, 0))[0]

    def calls(name):
        return times.get(name, (0.0, 0.0, 0))[2]

    points = counts.get("boxcount.points_counted", 0)
    occupied = counts.get("verifier.occupied", 0)
    cli = [f"cli.{c}" for c in CLI_COMMANDS]
    m = {
        "boxcount.grid_count_s": self_s("boxcount.grid_count"),
        "boxcount.grid_count_calls": calls("boxcount.grid_count"),
        "boxcount.points_counted": points,
        "boxcount.ns_per_point": (
            1e9 * self_s("boxcount.grid_count") / points if points else 0.0
        ),
        "boxcount.estimate_dimension_s": self_s("boxcount.estimate_dimension"),
        "grassmann.mesh_cover_count_s": self_s("grassmann.mesh_cover_count"),
        "grassmann.mesh_assign_s": self_s("grassmann.mesh_assign"),
        "grassmann.lines_binned": counts.get("grassmann.lines_binned", 0),
        "grassmann.direction_cover_s": self_s("grassmann.direction_cover"),
        "grassmann.direction_cover_calls": calls("grassmann.direction_cover"),
        "grassmann.direction_cover_centers": counts.get(
            "grassmann.direction_cover_centers", 0
        ),
        "grassmann.metric_d1_calls": counts.get("grassmann.metric_d1_calls", 0),
        "cantor.points_at_depth_s": self_s("cantor.points_at_depth"),
        "construct_box.build_points_s": self_s("construct_box.build_points"),
        "construct_box.build_lines_s": self_s("construct_box.build_lines"),
        "construct_box.make_directions_calls": calls("construct_box.make_directions"),
        "construct_box.calibrate_cover_s": self_s("construct_box.calibrate_cover"),
        "construct_box.points": counts.get("construct_box.points", 0),
        "construct_box.lines": counts.get("construct_box.lines", 0),
        "construct_packing.spread_lines_s": self_s("construct_packing.spread_lines"),
        "construct_packing.spread_marks_s": self_s("construct_packing.spread_marks"),
        "construct_packing.check_separations_s": self_s(
            "construct_packing.check_separations"
        ),
        "construct_packing.final_lines": counts.get("construct_packing.final_lines", 0),
        "construct_packing.final_marks": counts.get("construct_packing.final_marks", 0),
        "verifier.pigeonhole_extract_s": self_s("verifier.pigeonhole_extract"),
        "verifier.witnesses": counts.get("verifier.witnesses", 0),
        "verifier.kept_ratio": (
            counts.get("verifier.kept", 0) / occupied if occupied else 0.0
        ),
        "verifier.two_point_extract_s": self_s("verifier.two_point_extract"),
        "verifier.min_witness_separation_s": self_s("verifier.min_witness_separation"),
        "cli.self_s": sum(self_s(name) for name in cli),
        "cli.bytes_written": counts.get("cli.bytes_written", 0),
        "trace.spans": sum(c for _, _, c in times.values()),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = times.get(f"cli.{command}", (0.0, 0.0, 0))[1]
    return m


def layer_metrics(tracer, traced_passes, overhead_s):
    """Per-layer metrics: the median over traced passes of each pass's value.

    Times are self times (span minus child spans), except ``cli.<command>_s``,
    which is the whole command span; counts are per pass.
    """
    per_pass = [_pass_metrics(tracer, p) for p in traced_passes]
    out = {
        name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]
    }
    out["trace.overhead_s"] = overhead_s
    return out
