"""Plain forms of the packing construction's line side, kept as references.

`line_distance` is the scalar line metric (projection norm of one pair of
directions, in tuple order, plus the norm of the translation difference),
`line_net` walks its half-sep lattice one candidate at a time through
`lex_grid`, building each candidate line with its own Gram-Schmidt frames
and testing it against every kept line one `metric_d1` call at a time,
`transfer_mark` moves one mark at a time, and `first_violation` measures
every pair of lines in order.  A line is a (direction, translation) pair
of rows; a state's lines are read from its arrays as stored, since
`line_reference.affine_line` would re-canonicalise the direction.  The package builds the lattice, the
candidates and the mark transfers as arrays, measures a candidate against
all kept lines in one `line_distances` call and checks separation by a
cell search; test_packing_identity.py compares the two.  No `assert` here,
so the references behave the same under python -O.
"""

import math

import numpy as np

from furst.construct_packing import (
    OPTION_LINES,
    SEPARATION_TOL,
    MarkedLineState,
    initial_state,
    line_spread_radius,
    spread_marks,
)
from furst.grassmann import _gram_schmidt_frame

from line_reference import affine_line, canonical_vector


def projection_distance(u, v) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if tuple(u) > tuple(v):  # fixed argument order makes symmetry exact
        u, v = v, u
    perp = u - float(u @ v) * v
    return min(1.0, float(np.linalg.norm(perp)))


def line_distance(u, a, v, b) -> float:
    """The line metric of the lines with directions u, v and translations a, b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return projection_distance(u, v) + float(np.linalg.norm(a - b))


def metric_d1(line_a, line_b) -> float:
    """`line_distance` of two (direction, translation) pairs."""
    return line_distance(*line_a, *line_b)


def _perp_2d(v):
    return np.array([-v[1], v[0]])


def lex_grid(axes):
    if len(axes) == 1:
        for x in axes[0]:
            yield (x,)
        return
    for x in axes[0]:
        for rest in lex_grid(axes[1:]):
            yield (x, *rest)


def line_net(v0, a0, radius, sep):
    """The net around the line with direction v0 and translation a0, as (k, d) arrays."""
    d = v0.size
    h = sep / 2.0
    span = int(math.floor(radius / h + 1e-12))
    theta0 = float(np.arctan2(v0[1], v0[0])) % np.pi if d == 2 else None
    kept = []

    def candidate(dir_off, trans_off):
        if d == 2:
            theta = theta0 + dir_off[0]
            v = canonical_vector([math.cos(theta), math.sin(theta)])
        else:
            w = v0.copy()
            frame = _gram_schmidt_frame(v0)
            for c, f in zip(dir_off, frame):
                w = w + c * f
            v = canonical_vector(w)
        base = a0 - (a0 @ v) * v
        if d == 2:
            normal = _perp_2d(v)
            a = base + trans_off[0] * normal
        else:
            frame_perp = _gram_schmidt_frame(v)
            a = base.copy()
            for c, f in zip(trans_off, frame_perp):
                a = a + c * f
        cand = affine_line(v, a - (a @ v) * v)
        if line_distance(*cand, v0, a0) > radius * (1 + 1e-9):
            return None
        return cand

    n_axes = 2 * (d - 1)
    offsets = [np.arange(-span, span + 1) * h] * n_axes
    for combo in lex_grid(offsets):
        if sum(abs(c) for c in combo) > radius * (1 + 1e-9):
            continue
        cand = candidate(combo[: d - 1], combo[d - 1 :])
        if cand is None:
            continue
        if all(metric_d1(cand, q) >= sep * (1.0 - SEPARATION_TOL) for q in kept):
            kept.append(cand)
    if not kept:
        return v0[None], a0[None]
    return np.array([v for v, _ in kept]), np.array([a for _, a in kept])


def transfer_mark(x, old_dir, vp, p):
    """Mark x of a line with direction old_dir, moved to the line (vp, p)."""
    denom = float(vp @ old_dir)
    if abs(denom) < 1e-9:
        tau = float((x - p) @ vp)
    else:
        tau = float((x - p) @ old_dir) / denom
    return p + tau * vp


def spread_lines(state, eta_next):
    """The line-spreading step, without its separation check."""
    radius = line_spread_radius(state, eta_next)
    dirs, trans, new_marks = [], [], []
    for i, marks in enumerate(state.marks):
        v0, a0 = state.family.directions[i], state.family.translations[i]
        for vp, p in zip(*line_net(v0, a0, radius, eta_next)):
            dirs.append(vp)
            trans.append(p)
            new_marks.append(np.array([transfer_mark(x, v0, vp, p) for x in marks]))
    return MarkedLineState.from_arrays(
        state.k + 1, eta_next, np.array(dirs), np.array(trans), new_marks,
        state.s, state.t, state.history + (OPTION_LINES,),
    )


def run_alternating(d, s, t, etas):
    """The trajectory, lines first, with `spread_lines` above."""
    states = [initial_state(d, s, t)]
    for k, eta in enumerate(etas[1:]):
        step = spread_lines if k % 2 == 0 else spread_marks
        states.append(step(states[-1], eta))
    return states


def first_violation(lines, floor):
    """(i, j, distance) of the first pair in order not >= floor, or None."""
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            dist = metric_d1(lines[i], lines[j])
            if not dist >= floor:
                return i, j, dist
    return None

