"""Iterative marked-line construction for the packing-dimension example.

The construction alternates two refinements of a collection of marked
lines: spreading lines (replace each line by a separated net of nearby
lines, transporting each mark across) and spreading marks (replace each
mark by a separated run of collinear marks).  Counts per step follow
known power laws in the two consecutive scales, which is what the tests
check.

A `MarkedLineState` is held as arrays: its lines are one `LineFamily`
(floor eta/4), its marks one read-only (N, d) array `points` holding line
0's `counts[0]` marks, then line 1's, and so on, and `marks` gives each
line's marks as a view into it.  Line nets are built as arrays, with no
object per line.  `write_states` and `read_states` are the one
codec of states.json: d, s, t, the schedule and, per state, k, eta, the
option that made it (null for state 0), each line's direction and
translation and one marks list per line, every float as its repr, so a
read gives back the written bits.  The reader checks its input: every
state must hold at least one line and one marks list per line, the
directions, translations and each marks list must be non-empty, finite
(n, d) arrays of numbers, and every state must pass the separation checks
construction ran on it (`MarkedLineState.check_separations`), or it
raises InconsistentInput: the file, not the package, is at fault.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .boxcount import PointCloud, grid_count
from .errors import (
    DegenerateStep,
    InconsistentInput,
    InvalidParameter,
    NotInFamily,
    ResourceCap,
    SoundnessViolation,
)
from .grassmann import (
    NET_BLOCK_ROWS,
    LineFamily,
    _canonical_rows,
    _gram_schmidt_frame,
    _greedy_net,
    _point_line_distances,
    _require_orthogonal,
    _row_dots,
    first_close_pair,
    line_distances,
    mesh_cover_count,
)
from .util import as_numbers, as_object, read_json, required, write_json

SEPARATION_TOL = 1e-12
# absorbs the 5-eta neighborhood dilation and grid bracketing in the
# intermediate-scale envelopes
ENVELOPE_CONSTANT = 8.0
DEFAULT_MAX_LINES = 200_000
DEFAULT_MAX_MARKS = 500_000
NET_LATTICE_BLOCK = 1 << 14  # lattice points of a line net built per block

OPTION_LINES = "lines"  # spread lines, transport marks
OPTION_MARKS = "marks"  # keep lines, spread marks along them


@dataclass(frozen=True)
class ScaleSchedule:
    """Strictly decreasing scales eta_0 = 1 > eta_1 > ... > eta_K.

    strict mode enforces eta_{k+1} <= eta_k^k, the decay the limiting
    argument needs; demo mode only asks for a fixed geometric drop (>= 16x)
    and is flagged because its o(1) terms do not vanish.  Every scale must
    be a normal float (at least 2^-1022).
    """

    etas: tuple
    mode: str = "strict"

    def __init__(self, etas, mode="strict"):
        etas = tuple(float(e) for e in etas)
        if mode not in ("strict", "demo"):
            raise InvalidParameter("schedule mode must be 'strict' or 'demo'")
        if not etas or abs(etas[0] - 1.0) > 1e-12:
            raise InvalidParameter("schedule must start at eta_0 = 1")
        if any(e2 >= e1 for e1, e2 in zip(etas, etas[1:])):
            raise InvalidParameter("schedule must be strictly decreasing")
        if any(e <= 0 for e in etas):
            raise InvalidParameter("scales must be positive")
        if any(e < sys.float_info.min for e in etas):
            raise InvalidParameter(
                "scales must be normal floats: a subnormal scale has lost "
                "precision (below 2.2e-308)"
            )
        for k in range(len(etas) - 1):
            if mode == "strict" and etas[k + 1] > etas[k] ** k * (1 + 1e-12):
                raise InvalidParameter(
                    f"strict schedule needs eta_{k + 1} <= eta_{k}^{k}"
                )
            if mode == "demo" and etas[k + 1] > etas[k] / 16 * (1 + 1e-12):
                raise InvalidParameter(
                    f"demo schedule needs eta_{k + 1} <= eta_{k}/16"
                )
        object.__setattr__(self, "etas", etas)
        object.__setattr__(self, "mode", mode)

    @property
    def steps(self) -> int:
        return len(self.etas) - 1

    def to_config(self) -> dict:
        return {"mode": self.mode, "etas": list(self.etas)}

    @classmethod
    def from_config(cls, cfg: dict) -> "ScaleSchedule":
        cfg = as_object(cfg, "schedule")
        etas = as_numbers(float, required(cfg, "etas", "schedule"), "schedule etas")
        return cls(etas, cfg.get("mode", "strict"))


@dataclass(frozen=True, eq=False)
class MarkedLineState:
    """One step of the construction: separated lines with separated marks.

    Held as arrays; the module docstring gives the layout.
    """

    k: int
    eta: float
    family: LineFamily
    points: np.ndarray  # (N, d) every mark, grouped by line in line order
    counts: np.ndarray  # (n,) int64 marks on each line
    s: float
    t: float
    history: tuple  # applied options, OPTION_LINES / OPTION_MARKS
    marks: tuple = field(init=False, repr=False)  # (counts[i], d) views, per line

    def __post_init__(self):
        self.points.setflags(write=False)
        self.counts.setflags(write=False)
        ends = np.cumsum(self.counts).tolist()
        views = tuple(self.points[a:b] for a, b in zip([0, *ends], ends))
        object.__setattr__(self, "marks", views)

    @classmethod
    def from_arrays(cls, k, eta, directions, translations, marks, s, t,
                    history=()) -> "MarkedLineState":
        """A state from (n, d) line arrays and one (n_i, d) marks array per line."""
        family = LineFamily(directions, translations, eta / 4.0)
        counts = np.array([len(m) for m in marks], dtype=np.int64)
        return cls(k, eta, family, np.concatenate(marks), counts, s, t, history)

    @property
    def d(self) -> int:
        return self.family.dim

    @property
    def num_lines(self) -> int:
        return len(self.family)

    @property
    def num_marks(self) -> int:
        return len(self.points)

    def all_marks(self) -> np.ndarray:
        return self.points

    def mark_cloud(self, floor=None) -> PointCloud:
        return PointCloud._owning(self.points, floor or self.eta / 4.0)

    def line_family(self, floor=None) -> LineFamily:
        if not floor or floor == self.family.resolution_floor:
            return self.family
        return LineFamily._owning(self.family.directions, self.family.translations, floor)

    def check_separations(self) -> None:
        """Exhaustive separation checks, to rounding (SEPARATION_TOL relative).

        Lines pairwise >= eta in the line metric; marks on each line
        pairwise >= eta; every mark on its line.  Raises SoundnessViolation
        on the first violation.  Every pair of lines is checked:
        `grassmann.first_close_pair` measures the pairs whose translations
        lie in neighbouring cells of side about eta, the only pairs that
        can be closer than eta, and reports the lexicographically first
        pair below it.  Marks are checked line by line, as marks_i @ v_i
        rounds differently from any stacked form.
        """
        floor = self.eta * (1.0 - SEPARATION_TOL)
        dirs, trans = self.family.directions, self.family.translations
        close = first_close_pair(dirs, trans, floor)
        if close is not None:
            i, j, dist = close
            raise SoundnessViolation(
                f"lines {i},{j} at distance {dist:.3e} < eta {self.eta:.3e}"
            )
        for i, (v, a, marks) in enumerate(zip(dirs, trans, self.marks)):
            if marks.shape[0] < 1:
                raise SoundnessViolation(f"line {i} lost all marks")
            if not _point_line_distances(marks, v, a).max() <= 1e-9:
                raise SoundnessViolation(f"marks strayed from line {i}")
            if marks.shape[0] > 1:
                gaps = np.diff(np.sort(marks @ v))
                if not gaps.min() >= floor:
                    raise SoundnessViolation(
                        f"marks on line {i} at gap {gaps.min():.3e} < eta"
                    )


def initial_state(d: int, s: float, t: float) -> MarkedLineState:
    """Step 0: one line through the origin marked with the origin."""
    if d < 2:
        raise InvalidParameter("ambient dimension must be >= 2")
    if not (0.0 <= s <= 1.0):
        raise InvalidParameter("intersection dimension s must lie in [0, 1]")
    if not (0.0 <= t <= 2.0 * (d - 1)):
        raise InvalidParameter(f"t must lie in [0, {2 * (d - 1)}]")
    origin = np.zeros((1, d))
    return MarkedLineState.from_arrays(0, 1.0, np.eye(d)[:1], origin, [origin], s, t)


def line_spread_radius(state: MarkedLineState, eta_next: float) -> float:
    """Ball radius for the line-spreading step."""
    expo = 1.0 - state.t / (2.0 * (state.d - 1))
    return eta_next**expo * state.eta / 2.0


def mark_spread_radius(state: MarkedLineState, eta_next: float) -> float:
    """Reach along the line for the mark-spreading step."""
    return eta_next ** (1.0 - state.s) * state.eta / 2.0


def _line_net(v0: np.ndarray, a0: np.ndarray, radius: float, sep: float):
    """Greedy maximal sep-separated net of lines in the radius-ball.

    Candidates live on a half-sep lattice in local coordinates (direction
    offset x translation offset), visited in lexicographic order; a
    candidate is kept when it is at least `sep` from every kept line in
    the line metric.  When the radius falls below the lattice step the
    center line itself is kept, so the net is never empty.  Returns the
    kept rows' (k, d) directions and translations; a translation more
    than ORTHO_TOL off orthogonal to its direction raises InvalidParameter
    (`grassmann._require_orthogonal`).

    A direction offset c turns the center direction v0 by c along
    `_gram_schmidt_frame(v0)` (in the plane: by the angle c), and a
    translation offset moves the center translation, projected off the
    new direction v, along v's own frame (in the plane: its normal).  The
    lattice is built as arrays, NET_LATTICE_BLOCK points at a time in
    lexicographic order.  A block drops the points whose offsets' l1
    norm, summed left to right, is over the radius; then builds each
    remaining distinct direction once (`_net_directions`) and every
    candidate line from it, and drops those over the radius in the line
    metric.  The remaining candidates go to `grassmann._greedy_net`, whose
    conflict test is `not line_distances(...) >= floor`, floor = sep (1 -
    SEPARATION_TOL), NET_BLOCK_ROWS candidates against NET_LATTICE_BLOCK /
    NET_BLOCK_ROWS kept lines per call.  A pair is decided by its
    translation term t first: its distance is fl(proj + t) >= t, as proj
    >= 0 and rounding is monotone, so a pair with t >= floor does not
    conflict, and only the pairs with t below floor (or nan) are measured
    by `line_distances`, whose t has the same bits.  Every value is the
    one the candidate-at-a-time form computes, bit for bit.

    Cost, with L = (2 span + 1)^(2(d-1)) lattice points, span =
    floor(2 radius / sep), m candidates within the radius and k kept
    lines: O(L d) array work, one Gram-Schmidt frame per distinct
    direction within the radius, and about m k / NET_BLOCK_ROWS pairs
    measured in calls of up to NET_LATTICE_BLOCK pairs, with no Python
    work per candidate; no temporary is larger than a block of the
    lattice.
    """
    d = v0.size
    h = sep / 2.0
    span = int(math.floor(radius / h + 1e-12))
    limit = radius * (1 + 1e-9)
    floor = sep * (1.0 - SEPARATION_TOL)
    axes = (2 * span + 1,) * (2 * (d - 1))
    per_direction = (2 * span + 1) ** (d - 1)
    total = (2 * span + 1) ** len(axes)
    reach = NET_LATTICE_BLOCK // NET_BLOCK_ROWS  # kept lines per call: a block of pairs

    def candidates():  # (m, 2d) rows: direction, then translation
        for start in range(0, total, NET_LATTICE_BLOCK):
            flat = np.arange(start, min(start + NET_LATTICE_BLOCK, total))
            offsets = [(g - span) * h for g in np.unravel_index(flat, axes)]
            l1 = np.abs(offsets[0])
            for off in offsets[1:]:
                l1 = l1 + np.abs(off)
            inside = np.flatnonzero(~(l1 > limit))  # cheap prefilter
            if not inside.size:
                continue
            _, first, which = np.unique(
                flat[inside] // per_direction, return_index=True, return_inverse=True
            )
            v, canon, base, frames = _net_directions(
                v0, a0, [off[inside[first]] for off in offsets[: d - 1]]
            )
            v, canon = v[which], canon[which]
            a = base[which]
            for c, off in enumerate(offsets[d - 1 :]):
                a = a + off[inside][:, None] * frames[which, c]
            trans = a - _row_dots(a, v)[:, None] * v
            near = ~(line_distances(canon, trans, v0[None], a0[None]) > limit)
            yield np.concatenate([canon[near], trans[near]], axis=1)

    def conflicts(p, q):  # the translation term first: fl(proj + t) >= t
        diff = p[:, None, d:] - q[None, :, d:]
        out = ~(np.sqrt(_row_dots(diff, diff)) >= floor)
        i, j = np.nonzero(out)
        out[i, j] = ~(line_distances(p[i, :d], p[i, d:], q[j, :d], q[j, d:]) >= floor)
        return out

    def bands(start, stop, index):
        return [(lo, min(lo + reach, len(index))) for lo in range(0, len(index), reach)]

    kept = _greedy_net(candidates(), conflicts, bands)[0]
    if not len(kept):  # radius below the lattice step: keep the center
        return v0[None], a0[None]
    dirs, trans = kept[:, :d].copy(), kept[:, d:].copy()
    _require_orthogonal(dirs, trans)
    return dirs, trans


def _net_directions(v0: np.ndarray, a0: np.ndarray, offsets):
    """The candidate directions of `_line_net` at some direction offsets.

    `offsets` holds d - 1 arrays, one per coordinate of the offsets.
    Returns, one row per offset: the canonical direction v, its
    re-canonicalised form (the direction a kept line stores), the center
    translation a0 projected off v, and v's translation frame, an (m, d -
    1, d) array (in the plane the normal (-v_2, v_1); in d >= 3
    `_gram_schmidt_frame(v)`, one call per row).  The planar angles are
    turned into vectors with math.cos / math.sin, one value at a time,
    whose rounding numpy's array functions need not share.
    """
    if v0.size == 2:
        theta = float(np.arctan2(v0[1], v0[0])) % np.pi + offsets[0]
        v = _canonical_rows(np.array([[math.cos(x), math.sin(x)] for x in theta.tolist()]))
        frames = np.stack([-v[:, 1], v[:, 0]], axis=1)[:, None, :]
    else:
        w = v0
        for off, f in zip(offsets, _gram_schmidt_frame(v0)):
            w = w + off[:, None] * f
        v = _canonical_rows(w)
        frames = np.array([_gram_schmidt_frame(row) for row in v])
    a = np.broadcast_to(a0, v.shape)
    base = a - _row_dots(a, v)[:, None] * v
    return v, _canonical_rows(v), base, frames


def _transfer_marks(marks: np.ndarray, old_dir: np.ndarray, dirs, trans) -> np.ndarray:
    """(k, m, d) marks on each of k new lines for the m old marks.

    Each old mark x goes to the intersection of the new line with the
    hyperplane through x orthogonal to the old line when the intersection
    exists (|<v', v>| >= 1e-9); otherwise to the point of the new line
    nearest to x.  One array pass per net, every dot product a stacked
    one (`grassmann._row_dots`).
    """
    rel = marks[None, :, :] - trans[:, None, :]
    denom = _row_dots(dirs, old_dir)[:, None]
    tau = _row_dots(rel, dirs[:, None, :])  # the nearest point
    np.divide(_row_dots(rel, old_dir), denom, out=tau, where=~(np.abs(denom) < 1e-9))
    return trans[:, None, :] + tau[..., None] * dirs[:, None, :]


def spread_lines(state: MarkedLineState, eta_next: float) -> MarkedLineState:
    """Replace every line by a separated net of nearby lines.

    Each line becomes a greedy maximal eta_next-separated net inside the
    radius-r_A ball around it, r_A = eta_next^{1 - t/(2(d-1))} * eta_k / 2;
    each of its marks spawns exactly one mark on every new line via the
    orthogonal-hyperplane transfer.  When r_A < eta_next there is no room
    to spread and each line survives alone.
    """
    _check_step(state, eta_next)
    radius = line_spread_radius(state, eta_next)
    dirs, trans, marks = [], [], []
    for v, a, old in zip(state.family.directions, state.family.translations, state.marks):
        net = _line_net(v, a, radius, eta_next)
        dirs.append(net[0])
        trans.append(net[1])
        marks.extend(_transfer_marks(old, v, *net))
    out = MarkedLineState.from_arrays(
        state.k + 1, eta_next, np.concatenate(dirs), np.concatenate(trans), marks,
        state.s, state.t, state.history + (OPTION_LINES,),
    )
    out.check_separations()
    return out


def _least_kept(lowest: np.ndarray, reach: float, n_off: int, eta_next: float) -> np.ndarray:
    """Lower bounds on the marks `spread_marks` keeps per line, in floats.

    `lowest` holds each line's smallest position p.  Its run x_k =
    fl(p + fl(k eta)), |k| <= n_off, spans S >= 2 n_off eta - 2u with
    steps at most eta + 2u, where u, twice the float spacing at |p| +
    reach, bounds each mark's rounding with room for that sum's own.  The
    re-thinning keeps the run's first mark, and while a kept mark lies a
    threshold g <= eta short of the run's last one the next kept mark lies
    within g + eta + 2u of it: so at least 2 + floor((S - g) / (2 eta + 2u))
    marks when S >= g, and 1 otherwise.  That is n_off + 1 when u is
    negligible; where eta_next is below the float spacing of p the runs
    collapse and the bound is 1.  The bound is taken a hair low, as its
    own arithmetic rounds.
    """
    r = 2.0 * np.spacing(np.abs(lowest) + reach) / eta_next
    q = (2.0 * n_off - 1.0 - 2.0 * r) / (2.0 + 2.0 * r) * (1.0 - 1e-9)
    return np.where(q >= 0.0, np.floor(q) + 2.0, 1.0)


def spread_marks(
    state: MarkedLineState, eta_next: float, max_marks: int | None = None
) -> MarkedLineState:
    """Replace every mark by a separated run of collinear marks.

    Lines are unchanged; each mark becomes the arithmetic run of spacing
    eta_next reaching r_B = eta_next^{1-s} * eta_k / 2 on both sides
    (the greedy lattice net along the line).  Runs of adjacent marks are
    re-thinned at eta_next where they touch.  Positions are marks_i @ v_i,
    one product per line, as a stacked form rounds differently.

    With `max_marks`, a step that must keep more marks than that
    (`_least_kept`, about n_off + 1 a line) raises ResourceCap before any
    run is built: a fine eta_next can ask for more offsets than an array
    can hold.
    """
    _check_step(state, eta_next)
    reach = mark_spread_radius(state, eta_next)
    n_off = int(math.floor(reach / eta_next + 1e-12))
    dirs, trans = state.family.directions, state.family.translations
    per_line = [np.sort(marks @ v) for v, marks in zip(dirs, state.marks)]
    if max_marks is not None:
        lowest = np.array([positions[0] for positions in per_line])
        least = float(_least_kept(lowest, reach, n_off, eta_next).sum())
        if least > max_marks:
            raise ResourceCap(
                f"step {state.k + 1} would exceed caps (at least {least:.3g} "
                f"marks, over max_marks = {max_marks})"
            )
    offsets = np.arange(-n_off, n_off + 1) * eta_next
    new_marks: list[np.ndarray] = []
    for v, a, positions in zip(dirs, trans, per_line):
        spread = (positions[:, None] + offsets[None, :]).ravel()
        spread.sort()
        kept = [spread[0]]
        for p in spread[1:]:
            if p - kept[-1] >= eta_next * (1.0 - SEPARATION_TOL):
                kept.append(p)
        new_marks.append(a + np.outer(np.array(kept), v))
    out = MarkedLineState.from_arrays(
        state.k + 1, eta_next, dirs, trans, new_marks,
        state.s, state.t, state.history + (OPTION_MARKS,),
    )
    out.check_separations()
    return out


def _check_step(state: MarkedLineState, eta_next: float) -> None:
    if eta_next <= 0 or eta_next >= state.eta:
        raise DegenerateStep(
            f"next scale must satisfy 0 < eta_next < eta_k = {state.eta}, "
            f"got {eta_next}"
        )


def predicted_step_factors(state: MarkedLineState, eta_next: float, option: str):
    """Per-step multiplicities the construction aims for.

    Returns (line factor, mark factor): spreading lines multiplies the
    line count by about eta_next^{-t} * eta_k^{2(d-1)} and the mark count
    by the same; spreading marks keeps lines and multiplies marks by about
    eta_next^{-s} * eta_k.
    """
    if option == OPTION_LINES:
        f = eta_next**-state.t * state.eta ** (2 * (state.d - 1))
        return f, f
    if option == OPTION_MARKS:
        return 1.0, eta_next**-state.s * state.eta
    raise InvalidParameter(f"unknown option {option!r}")


def run_alternating(
    d: int,
    s: float,
    t: float,
    schedule: ScaleSchedule,
    first_option: str = OPTION_LINES,
    max_lines: int = DEFAULT_MAX_LINES,
    max_marks: int = DEFAULT_MAX_MARKS,
) -> list[MarkedLineState]:
    """Run the alternating construction along the schedule.

    Returns the full trajectory, state 0 through state K.  The first
    refinement applies `first_option` ('lines' by default) and the
    options alternate from there.
    """
    if first_option not in (OPTION_LINES, OPTION_MARKS):
        raise InvalidParameter("first option must be 'lines' or 'marks'")
    states = [initial_state(d, s, t)]
    for k in range(schedule.steps):
        option = (
            first_option
            if k % 2 == 0
            else (OPTION_MARKS if first_option == OPTION_LINES else OPTION_LINES)
        )
        if option == OPTION_LINES:
            state = spread_lines(states[-1], schedule.etas[k + 1])
        else:
            state = spread_marks(states[-1], schedule.etas[k + 1], max_marks)
        if state.num_lines > max_lines or state.num_marks > max_marks:
            raise ResourceCap(
                f"step {k + 1} would exceed caps "
                f"({state.num_lines} lines, {state.num_marks} marks)"
            )
        states.append(state)
    return states


def write_states(path, schedule: ScaleSchedule, states) -> None:
    """Write a trajectory as states.json; the module docstring gives the layout."""
    write_json(path, {
        "d": states[0].d,
        "s": states[0].s,
        "t": states[0].t,
        "schedule": schedule.to_config(),
        "states": [{
            "k": st.k,
            "eta": st.eta,
            "lines": [{"direction": v, "translation": a} for v, a in zip(
                st.family.directions.tolist(), st.family.translations.tolist())],
            "marks": [m.tolist() for m in st.marks],
            "option": st.history[-1] if st.history else None,
        } for st in states],
    })


def read_states(path) -> list[MarkedLineState]:
    """The trajectory in a states.json, bit for bit; the module docstring gives the checks."""
    payload = read_json(path)
    try:
        d, states, history = payload["d"], [], ()
        for st in payload["states"]:
            where = f"{path}: state {st['k']}"
            lines, marks = st["lines"], st["marks"]
            if len(marks) != len(lines) or not lines:
                raise InconsistentInput(f"{where} has {len(marks)} marks lists "
                                        f"for {len(lines)} lines")
            history += (st["option"],) if st["option"] else ()
            state = MarkedLineState.from_arrays(
                st["k"], st["eta"],
                _stored_rows([ln["direction"] for ln in lines], d, f"{where} directions"),
                _stored_rows([ln["translation"] for ln in lines], d, f"{where} translations"),
                [_stored_rows(m, d, f"{where} marks of line {i}") for i, m in enumerate(marks)],
                payload["s"], payload["t"], history,
            )
            try:
                state.check_separations()
            except SoundnessViolation as exc:
                raise InconsistentInput(f"{where} fails its separation checks: {exc}") from exc
            states.append(state)
    except (TypeError, KeyError) as exc:
        raise InconsistentInput(f"{path}: malformed states ({exc!r})") from exc
    return states


def _stored_rows(value, d: int, what: str) -> np.ndarray:
    """`value` as a float array; InconsistentInput unless non-empty, finite and (n, d)."""
    try:
        rows = np.array(value, dtype=float)
    except ValueError as exc:  # ragged, or not numbers
        raise InconsistentInput(f"{what} are not an array of numbers") from exc
    if rows.ndim != 2 or rows.shape[1] != d or not np.isfinite(rows).all():
        raise InconsistentInput(f"{what} must be a non-empty, finite (n, {d}) array")
    return rows


@dataclass(frozen=True)
class NeighborhoodCounts:
    """Measured vs predicted covering counts at an intermediate scale."""

    delta: float
    k: int
    measured_points: int
    measured_lines: int
    predicted_points: float
    predicted_lines: float

    @property
    def points_within(self) -> bool:
        return self.measured_points <= self.predicted_points

    @property
    def lines_within(self) -> bool:
        return self.measured_lines <= self.predicted_lines


def neighborhood_counts(states, k: int, delta: float) -> NeighborhoodCounts:
    """Counts of the trajectory proxies at eta_{k+1} < delta <= eta_k.

    Measured values come from the final state (the best finite stand-in
    for the limit sets); predicted envelopes rescale the step-k counts by
    the intermediate-scale growth factors, times a documented constant.
    """
    if k + 1 >= len(states):
        raise InvalidParameter("need states k and k+1 in the trajectory")
    state_k = states[k]
    eta_k = state_k.eta
    eta_k1 = states[k + 1].eta
    if not (eta_k1 < delta <= eta_k):
        raise InvalidParameter(
            f"delta must lie in (eta_{k + 1}, eta_{k}] = ({eta_k1}, {eta_k}]"
        )
    final = states[-1]
    floor = min(eta_k1 / 4.0, delta / 4.0)
    measured_points = grid_count(final.mark_cloud(floor), delta)
    measured_lines = mesh_cover_count(final.line_family(floor), delta)
    base_points = grid_count(state_k.mark_cloud(eta_k / 4.0), eta_k)
    base_lines = mesh_cover_count(state_k.line_family(eta_k / 4.0), eta_k)
    d, s, t = state_k.d, state_k.s, state_k.t
    ratio = eta_k1 ** (1.0 - t / (2.0 * (d - 1))) * eta_k / delta
    pred_lines = ENVELOPE_CONSTANT * base_lines * max(ratio ** (2 * (d - 1)), 1.0)
    pred_points = ENVELOPE_CONSTANT * base_points * max(
        ratio ** (d - 1), eta_k1 ** (1.0 - s) * eta_k / delta, 1.0
    )
    return NeighborhoodCounts(
        delta=delta,
        k=k,
        measured_points=measured_points,
        measured_lines=measured_lines,
        predicted_points=pred_points,
        predicted_lines=pred_lines,
    )


@dataclass(frozen=True)
class IntervalProfile:
    """How often a probe line crosses mark neighborhoods at one step."""

    count: int
    lower_bound: float
    passed: bool
    step: int
    line_index: int


INTERSECTION_CONSTANT = 0.25


def intersection_profile(states, direction, translation, delta: float) -> IntervalProfile:
    """Count mark neighborhoods of the nearest construction line crossed.

    The probe line is given as rows of length d: its direction, put in
    canonical form (`grassmann._canonical_rows`; a zero or non-finite
    direction raises InvalidParameter), and its translation, which must
    be orthogonal to the direction within ORTHO_TOL
    (`grassmann._require_orthogonal`).  The relevant step is the last one
    whose scale is still >= delta; the nearest line of that step in the
    line metric (`line_distances`) must lie within eta_k of the probe, or
    NotInFamily is raised.  Each of its marks within 5*eta_k of the probe
    (`_point_line_distances`) is one crossed ball, and contributes one
    interval of length about eta_k to the intersection of the probe line
    with the step-k neighborhood set.  After a mark-spreading step the
    count is asserted to be at least INTERSECTION_CONSTANT * eta_k^{-s} *
    eta_{k-1}.
    """
    ks = [k for k, st in enumerate(states) if st.eta >= delta]
    if not ks:
        raise InvalidParameter("delta is coarser than the whole trajectory")
    k = max(ks)
    state = states[k]
    v = np.asarray(direction, dtype=float)
    a = np.asarray(translation, dtype=float)
    if v.shape != (state.d,) or a.shape != (state.d,):
        raise InvalidParameter(
            f"the probe's direction and translation must be rows of length {state.d}"
        )
    v = _canonical_rows(v[None])
    a = a[None]
    _require_orthogonal(v, a)
    dists = line_distances(v, a, state.family.directions, state.family.translations)
    nearest = int(np.argmin(dists))
    if dists[nearest] > state.eta:
        raise NotInFamily(
            f"probe line at distance {dists[nearest]:.3e} from the family, "
            f"over eta_{k} = {state.eta:.3e}"
        )
    marks = state.marks[nearest]
    crossed = _point_line_distances(marks, v[0], a[0]) <= 5.0 * state.eta
    count = int(crossed.sum())
    if k >= 1 and state.history and state.history[-1] == OPTION_MARKS:
        prev_eta = states[k - 1].eta
        bound = INTERSECTION_CONSTANT * state.eta**-state.s * prev_eta
    else:
        bound = 1.0
    return IntervalProfile(
        count=count,
        lower_bound=bound,
        passed=count >= bound,
        step=k,
        line_index=nearest,
    )
