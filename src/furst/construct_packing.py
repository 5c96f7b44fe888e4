"""Iterative marked-line construction for the packing-dimension example.

The construction alternates two refinements of a collection of marked
lines: spreading lines (replace each line by a separated net of nearby
lines, transporting each mark across) and spreading marks (replace each
mark by a separated run of collinear marks).  Counts per step follow
known power laws in the two consecutive scales, which is what the tests
check.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .boxcount import PointCloud, grid_count
from .errors import (
    DegenerateStep,
    InvalidParameter,
    NotInFamily,
    ResourceCap,
    SoundnessViolation,
)
from .grassmann import (
    AffineLine,
    Direction,
    LineFamily,
    _canonical_rows,
    _gram_schmidt_frame,
    _row_dots,
    first_close_pair,
    line_distances,
    mesh_cover_count,
)

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
        return cls(cfg["etas"], cfg.get("mode", "strict"))


@dataclass(frozen=True, eq=False)
class MarkedLineState:
    """One step of the construction: separated lines with separated marks."""

    k: int
    eta: float
    lines: tuple  # AffineLine per line
    marks: tuple  # (n_i, d) array per line
    d: int
    s: float
    t: float
    history: tuple  # applied options, OPTION_LINES / OPTION_MARKS

    @property
    def num_lines(self) -> int:
        return len(self.lines)

    @property
    def num_marks(self) -> int:
        return sum(m.shape[0] for m in self.marks)

    def all_marks(self) -> np.ndarray:
        return np.concatenate(self.marks) if self.marks else np.empty((0, self.d))

    def mark_cloud(self, floor=None) -> PointCloud:
        return PointCloud(self.all_marks(), floor or self.eta / 4.0)

    def line_family(self, floor=None) -> LineFamily:
        return LineFamily.from_lines(self.lines, floor or self.eta / 4.0)

    def line_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, d) arrays of the lines' directions and translations."""
        if not self.lines:
            return np.empty((0, self.d)), np.empty((0, self.d))
        return (np.array([ln.direction.vector for ln in self.lines]),
                np.array([ln.translation for ln in self.lines]))

    def check_separations(self, tol: float = SEPARATION_TOL) -> None:
        """Exhaustive separation checks, to rounding (tolerance `tol` relative).

        Lines pairwise >= eta in the line metric; marks on each line
        pairwise >= eta; every mark on its line.  Raises SoundnessViolation
        on the first violation.  Every pair of lines is checked:
        `grassmann.first_close_pair` measures the pairs whose translations
        lie in neighbouring cells of side about eta, the only pairs that
        can be closer than eta, and reports the lexicographically first
        pair below it.
        """
        floor = self.eta * (1.0 - tol)
        close = first_close_pair(*self.line_arrays(), floor)
        if close is not None:
            i, j, dist = close
            raise SoundnessViolation(
                f"lines {i},{j} at distance {dist:.3e} < eta {self.eta:.3e}"
            )
        for i, (line, marks) in enumerate(zip(self.lines, self.marks)):
            if marks.shape[0] < 1:
                raise SoundnessViolation(f"line {i} lost all marks")
            off = line.point_distance(marks)
            if not off.max() <= 1e-9:
                raise SoundnessViolation(f"marks strayed from line {i}")
            if marks.shape[0] > 1:
                proj = marks @ line.direction.vector
                gaps = np.diff(np.sort(proj))
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
    line = AffineLine(Direction(np.eye(d)[0]), np.zeros(d))
    return MarkedLineState(
        k=0,
        eta=1.0,
        lines=(line,),
        marks=(np.zeros((1, d)),),
        d=d,
        s=s,
        t=t,
        history=(),
    )


def line_spread_radius(state: MarkedLineState, eta_next: float) -> float:
    """Ball radius for the line-spreading step."""
    expo = 1.0 - state.t / (2.0 * (state.d - 1))
    return eta_next**expo * state.eta / 2.0


def mark_spread_radius(state: MarkedLineState, eta_next: float) -> float:
    """Reach along the line for the mark-spreading step."""
    return eta_next ** (1.0 - state.s) * state.eta / 2.0


def _line_net(line: AffineLine, radius: float, sep: float) -> list[AffineLine]:
    """Greedy maximal sep-separated net of lines in the radius-ball.

    Candidates live on a half-sep lattice in local coordinates (direction
    offset x translation offset), visited in lexicographic order; a
    candidate is kept when it is at least `sep` from every kept line in
    the line metric.  When the radius falls below the lattice step the
    center line itself is kept, so the net is never empty.

    A direction offset c turns the center direction v0 by c along
    `_gram_schmidt_frame(v0)` (in the plane: by the angle c), and a
    translation offset moves the center translation, projected off the
    new direction v, along v's own frame (in the plane: its normal).  The
    lattice is built as arrays, NET_LATTICE_BLOCK points at a time in
    lexicographic order.  A block drops the points whose offsets' l1
    norm, summed left to right, is over the radius; then builds each
    remaining distinct direction once (`_net_directions`) and every
    candidate line from it, and drops those over the radius in the line
    metric.  The greedy test measures each remaining candidate against all
    lines kept so far in one `line_distances` call.  Every value is the
    one the candidate-at-a-time form computes, bit for bit.

    Cost, with L = (2 span + 1)^(2(d-1)) lattice points, span =
    floor(2 radius / sep), m candidates within the radius and k kept
    lines: O(L d) array work, one Gram-Schmidt frame per distinct
    direction within the radius, and m kernel calls of at most k rows
    each; no temporary is larger than a block of the lattice.
    """
    d = line.dim
    h = sep / 2.0
    span = int(math.floor(radius / h + 1e-12))
    limit = radius * (1 + 1e-9)
    floor = sep * (1.0 - SEPARATION_TOL)
    axes = (2 * span + 1,) * (2 * (d - 1))
    per_direction = (2 * span + 1) ** (d - 1)
    center = (line.direction.vector[None], line.translation[None])
    kept: list[AffineLine] = []
    kept_dirs = np.empty((16, d))
    kept_trans = np.empty((16, d))
    total = (2 * span + 1) ** len(axes)
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
            line, [off[inside[first]] for off in offsets[: d - 1]]
        )
        v, canon = v[which], canon[which]
        a = base[which]
        for c, off in enumerate(offsets[d - 1 :]):
            a = a + off[inside][:, None] * frames[which, c]
        trans = a - _row_dots(a, v)[:, None] * v
        near = ~(line_distances(canon, trans, *center) > limit)
        for c in np.flatnonzero(near):
            n = len(kept)
            if n and not (
                line_distances(canon[c : c + 1], trans[c : c + 1],
                               kept_dirs[:n], kept_trans[:n]) >= floor
            ).all():
                continue
            if n == len(kept_dirs):
                kept_dirs = np.concatenate([kept_dirs, kept_dirs])
                kept_trans = np.concatenate([kept_trans, kept_trans])
            kept_dirs[n], kept_trans[n] = canon[c], trans[c]
            kept.append(AffineLine(Direction(v[c]), trans[c]))
    if not kept:  # radius below the lattice step: keep the center
        kept.append(line)
    return kept


def _net_directions(line: AffineLine, offsets):
    """The candidate directions of `_line_net` at some direction offsets.

    `offsets` holds d - 1 arrays, one per coordinate of the offsets.
    Returns, one row per offset: the canonical direction v, its
    re-canonicalised form (what `Direction(v)` stores), the center
    translation projected off v, and v's translation frame, an (m, d - 1,
    d) array (in the plane the normal (-v_2, v_1); in d >= 3
    `_gram_schmidt_frame(v)`, one call per row).  The planar angles are
    turned into vectors with math.cos / math.sin, one value at a time,
    whose rounding numpy's array functions need not share.
    """
    d = line.dim
    v0 = line.direction.vector
    if d == 2:
        theta = line.direction.angle() + offsets[0]
        v = _canonical_rows(np.array([[math.cos(x), math.sin(x)] for x in theta.tolist()]))
        frames = np.stack([-v[:, 1], v[:, 0]], axis=1)[:, None, :]
    else:
        w = v0
        for off, f in zip(offsets, _gram_schmidt_frame(v0)):
            w = w + off[:, None] * f
        v = _canonical_rows(w)
        frames = np.array([_gram_schmidt_frame(row) for row in v])
    a0 = np.broadcast_to(line.translation, v.shape)
    base = a0 - _row_dots(a0, v)[:, None] * v
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
    new_lines: list[AffineLine] = []
    new_marks: list[np.ndarray] = []
    for line, marks in zip(state.lines, state.marks):
        net = _line_net(line, radius, eta_next)
        dirs = np.array([nl.direction.vector for nl in net])
        trans = np.array([nl.translation for nl in net])
        new_lines.extend(net)
        new_marks.extend(_transfer_marks(marks, line.direction.vector, dirs, trans))
    out = MarkedLineState(
        k=state.k + 1,
        eta=eta_next,
        lines=tuple(new_lines),
        marks=tuple(new_marks),
        d=state.d,
        s=state.s,
        t=state.t,
        history=state.history + (OPTION_LINES,),
    )
    out.check_separations()
    return out


def spread_marks(state: MarkedLineState, eta_next: float) -> MarkedLineState:
    """Replace every mark by a separated run of collinear marks.

    Lines are unchanged; each mark becomes the arithmetic run of spacing
    eta_next reaching r_B = eta_next^{1-s} * eta_k / 2 on both sides
    (the greedy lattice net along the line).  Runs of adjacent marks are
    re-thinned at eta_next where they touch.
    """
    _check_step(state, eta_next)
    reach = mark_spread_radius(state, eta_next)
    n_off = int(math.floor(reach / eta_next + 1e-12))
    offsets = np.arange(-n_off, n_off + 1) * eta_next
    new_marks: list[np.ndarray] = []
    for line, marks in zip(state.lines, state.marks):
        v = line.direction.vector
        positions = np.sort(marks @ v)
        spread = (positions[:, None] + offsets[None, :]).ravel()
        spread.sort()
        kept = [spread[0]]
        for p in spread[1:]:
            if p - kept[-1] >= eta_next * (1.0 - SEPARATION_TOL):
                kept.append(p)
        pts = line.translation + np.outer(np.array(kept), v)
        new_marks.append(pts)
    out = MarkedLineState(
        k=state.k + 1,
        eta=eta_next,
        lines=state.lines,
        marks=tuple(new_marks),
        d=state.d,
        s=state.s,
        t=state.t,
        history=state.history + (OPTION_MARKS,),
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
        step = spread_lines if option == OPTION_LINES else spread_marks
        state = step(states[-1], schedule.etas[k + 1])
        if state.num_lines > max_lines or state.num_marks > max_marks:
            raise ResourceCap(
                f"step {k + 1} would exceed caps "
                f"({state.num_lines} lines, {state.num_marks} marks)"
            )
        states.append(state)
    return states


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


def intersection_profile(states, line: AffineLine, delta: float) -> IntervalProfile:
    """Count mark neighborhoods of the nearest construction line crossed.

    The relevant step is the last one whose scale is still >= delta.  Each
    crossed 5*eta_k ball contributes one interval of length about eta_k to
    the intersection of the probe line with the step-k neighborhood set.
    After a mark-spreading step the count is asserted to be at least
    INTERSECTION_CONSTANT * eta_k^{-s} * eta_{k-1}.
    """
    ks = [k for k, st in enumerate(states) if st.eta >= delta]
    if not ks:
        raise InvalidParameter("delta is coarser than the whole trajectory")
    k = max(ks)
    state = states[k]
    dists = line_distances(line.direction.vector[None], line.translation[None],
                           *state.line_arrays())
    nearest = int(np.argmin(dists))
    if dists[nearest] > state.eta:
        raise NotInFamily(
            f"probe line at distance {dists[nearest]:.3e} from the family, "
            f"over eta_{k} = {state.eta:.3e}"
        )
    marks = state.marks[nearest]
    crossed = line.point_distance(marks) <= 5.0 * state.eta
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
