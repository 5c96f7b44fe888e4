"""Iterative marked-line construction for the packing-dimension example.

The construction alternates two refinements of a collection of marked
lines: spreading lines (replace each line by a separated net of nearby
lines, transporting each mark across) and spreading marks (replace each
mark by a separated run of collinear marks).  Counts per step follow
known power laws in the two consecutive scales, which is what the tests
check.
"""

import math
import warnings
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
    _gram_schmidt_frame,
    canonical_vector,
    mesh_cover_count,
    metric_d1,
)

SEPARATION_TOL = 1e-12
# absorbs the 5-eta neighborhood dilation and grid bracketing in the
# intermediate-scale envelopes
ENVELOPE_CONSTANT = 8.0
DEFAULT_MAX_LINES = 200_000
DEFAULT_MAX_MARKS = 500_000

OPTION_LINES = "lines"  # spread lines, transport marks
OPTION_MARKS = "marks"  # keep lines, spread marks along them


@dataclass(frozen=True)
class ScaleSchedule:
    """Strictly decreasing scales eta_0 = 1 > eta_1 > ... > eta_K.

    strict mode enforces eta_{k+1} <= eta_k^k, the decay the limiting
    argument needs; demo mode only asks for a fixed geometric drop (>= 16x)
    and is flagged because its o(1) terms do not vanish.
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

    def check_separations(self, tol: float = SEPARATION_TOL) -> None:
        """Separation checks, to rounding (tolerance `tol` relative).

        Lines pairwise >= eta in the line metric; marks on each line
        pairwise >= eta; every mark on its line.  Raises SoundnessViolation
        on the first violation.  The mark checks are exhaustive; so is the
        line check up to 1500 lines, above which `_separation_pairs` checks
        a sample of line pairs and warns.
        """
        floor = self.eta * (1.0 - tol)
        pairs = _separation_pairs(self.num_lines)
        for i, j in pairs:
            dist = metric_d1(self.lines[i], self.lines[j])
            if not dist >= floor:
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


def _separation_pairs(n: int, exhaustive_limit: int = 1500):
    """Line index pairs to separation-check.

    All pairs up to `exhaustive_limit` lines; beyond that, a fixed-seed
    sample of 10 * n pairs that includes all consecutive pairs (exhaustive
    checking would be quadratic), with a warning naming the line count and
    the number of pairs checked.
    """
    if n <= exhaustive_limit:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng = np.random.default_rng(1)
    sampled = {(i, i + 1) for i in range(n - 1)}
    while len(sampled) < min(10 * n, n * (n - 1) // 2):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            sampled.add((min(i, j), max(i, j)))
    warnings.warn(
        f"line separation sampled: {len(sampled)} of {n * (n - 1) // 2} pairs "
        f"of {n} lines checked",
        stacklevel=3,
    )
    return sorted(sampled)


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


def _perp_2d(v: np.ndarray) -> np.ndarray:
    return np.array([-v[1], v[0]])


def _line_net(line: AffineLine, radius: float, sep: float) -> list[AffineLine]:
    """Greedy maximal sep-separated net of lines in the radius-ball.

    Candidates live on a half-sep lattice in local coordinates (direction
    offset x translation offset), visited in lexicographic order; a
    candidate is kept when it is at least `sep` from every kept line in
    the line metric.  When the radius falls below the lattice step the
    center line itself is kept, so the net is never empty.
    """
    d = line.dim
    h = sep / 2.0
    span = int(math.floor(radius / h + 1e-12))
    theta0 = line.direction.angle() if d == 2 else None
    kept: list[AffineLine] = []

    def candidate(dir_off, trans_off) -> AffineLine | None:
        if d == 2:
            theta = theta0 + dir_off[0]
            v = canonical_vector([math.cos(theta), math.sin(theta)])
        else:
            v0 = line.direction.vector
            w = v0.copy()
            frame = _gram_schmidt_frame(v0)
            for c, f in zip(dir_off, frame):
                w = w + c * f
            v = canonical_vector(w)
        base = line.translation - (line.translation @ v) * v
        if d == 2:
            normal = _perp_2d(v)
            a = base + trans_off[0] * normal
        else:
            frame_perp = _gram_schmidt_frame(v)
            a = base.copy()
            for c, f in zip(trans_off, frame_perp):
                a = a + c * f
        cand = AffineLine(Direction(v), a - (a @ v) * v)
        if metric_d1(cand, line) > radius * (1 + 1e-9):
            return None
        return cand

    n_axes = 2 * (d - 1)
    offsets = [np.arange(-span, span + 1) * h] * n_axes
    for combo in _lex_grid(offsets):
        if sum(abs(c) for c in combo) > radius * (1 + 1e-9):
            continue  # cheap l1 prefilter; the metric check below is exact
        cand = candidate(combo[: d - 1], combo[d - 1 :])
        if cand is None:
            continue
        if all(
            metric_d1(cand, q) >= sep * (1.0 - SEPARATION_TOL) for q in kept
        ):
            kept.append(cand)
    if not kept:  # radius below the lattice step: keep the center
        kept.append(line)
    return kept


def _lex_grid(axes):
    if len(axes) == 1:
        for x in axes[0]:
            yield (x,)
        return
    for x in axes[0]:
        for rest in _lex_grid(axes[1:]):
            yield (x, *rest)


def _transfer_mark(x: np.ndarray, old_dir: np.ndarray, new_line: AffineLine) -> np.ndarray:
    """One mark on the new line for the old mark x.

    Intersects the new line with the hyperplane through x orthogonal to
    the old line when the intersection exists; otherwise falls back to the
    point of the new line nearest to x.
    """
    vp = new_line.direction.vector
    p = new_line.translation
    denom = float(vp @ old_dir)
    if abs(denom) < 1e-9:
        tau = float((x - p) @ vp)
    else:
        tau = float((x - p) @ old_dir) / denom
    return p + tau * vp


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
        for nl in net:
            transferred = np.array(
                [_transfer_mark(x, line.direction.vector, nl) for x in marks]
            )
            new_lines.append(nl)
            new_marks.append(transferred)
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
    dists = [metric_d1(line, ln) for ln in state.lines]
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
