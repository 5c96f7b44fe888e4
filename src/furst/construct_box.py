"""Finite-resolution sharp example for the box-dimension problem.

The construction places scaled copies of a digit Cantor set along a
sequence of directions accumulating at a base direction, then translates
scaled unions of those copies by a sequence in the base direction's
orthocomplement.  Every line (direction n, translation m) of the induced
family meets the point set in a scaled Cantor copy, the family's box
dimension is the sum of the two sequence dimensions, and the point set's
box dimension is max(s, t + 1 - d).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import cantor
from .boxcount import COUNT_BLOCK_ROWS, PointCloud, grid_count
from .cantor import CantorSpec
from .errors import InvalidParameter, InvalidScale, ResourceCap
from .grassmann import LineFamily, _canonical_rows
from .util import as_number, as_object, min_pairwise_distance

DEFAULT_MAX_POINTS = 20_000_000
MAX_SHELL = 64
# most points of the d >= 3 shell lattice make_directions may build: its
# meshgrid, radii, masks and kept rows peak near 100 bytes a point at
# d = 4 (222 MB for the 2.2 M points of shell 3), about 400 MB at the cap
SHELL_LATTICE_CAP = 2**22


@dataclass(frozen=True)
class BoxSharpSpec:
    """Parameters of one finite-resolution sharp example.

    `dir_density` widens the within-shell direction nets: shell j carries
    a net of spacing 2^{-(j^2 + dir_density)} instead of 2^{-j^2}.  The
    default 0 is the plain scheme; positive values resolve the direction
    set's dimension at coarser scales, which finite-range slope fits need
    when t is close to 2(d-1).

    `seed` is echoed into `to_config` and so into manifests.  Nothing in
    the construction reads it: specs that differ only in seed build the
    same points and lines.
    """

    d: int
    cantor: CantorSpec
    t: float
    M: int
    N: int
    depth: int
    seed: int
    dir_density: int = 0
    max_points: int = DEFAULT_MAX_POINTS

    def __post_init__(self):
        if int(self.d) < 2:
            raise InvalidParameter("ambient dimension d must be >= 2")
        if not (0.0 <= self.t <= 2.0 * (self.d - 1)):
            raise InvalidParameter(
                f"t must lie in [0, {2 * (self.d - 1)}], got {self.t}"
            )
        for name in ("M", "N", "depth"):
            if int(getattr(self, name)) < 1:
                raise InvalidParameter(f"{name} must be >= 1")
        if self.dir_density < 0:
            raise InvalidParameter("dir_density must be >= 0")

    @property
    def s(self) -> float:
        return self.cantor.s

    @property
    def beta(self) -> float:
        """Target translation dimension t + 1 - d, clamped at 0."""
        return max(0.0, self.t + 1.0 - self.d)

    @property
    def collapsed(self) -> bool:
        """True when t <= d - 1 and the translation set degenerates to {0}."""
        return self.t <= self.d - 1

    def cardinality(self) -> int:
        copies = 1 if self.collapsed else self.M
        return copies * self.N * cantor.covering_count(self.cantor, self.depth)

    def to_config(self) -> dict:
        return {
            "d": self.d,
            "cantor": self.cantor.to_config(),
            "t": self.t,
            "M": self.M,
            "N": self.N,
            "depth": self.depth,
            "seed": self.seed,
            "dir_density": self.dir_density,
            "max_points": self.max_points,
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "BoxSharpSpec":
        cfg = as_object(cfg, "the box config")
        if "cantor" in cfg:
            spec = CantorSpec.from_config(cfg["cantor"])
        elif "s" in cfg:
            spec = cantor.spec_for_dimension(as_number(float, cfg["s"], "s"))
        else:
            raise InvalidParameter("config needs either 'cantor' or 's'")

        def number(kind, key, default=None):
            return as_number(kind, cfg[key] if default is None else cfg.get(key, default), key)

        return cls(
            d=number(int, "d"),
            cantor=spec,
            t=number(float, "t"),
            M=number(int, "M"),
            N=number(int, "N"),
            depth=number(int, "depth"),
            seed=number(int, "seed"),
            dir_density=number(int, "dir_density", 0),
            max_points=number(int, "max_points", DEFAULT_MAX_POINTS),
        )


@dataclass(frozen=True)
class DirectionSequence:
    """Directions accumulating at the base direction, organized in shells.

    Shell j sits at distance about 2^{-j} from the base direction and
    carries a net of the recorded spacing; the whole (infinite) scheme has
    box dimension d - 1.
    """

    base: np.ndarray  # (d,) read-only row, the first coordinate axis
    vectors: np.ndarray  # (N, d), canonical unit rows
    shells: tuple  # (shell index, net spacing, points taken) per shell

    def __len__(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class TranslationSequence:
    """Bounded sequence in the base direction's orthocomplement."""

    vectors: np.ndarray  # (M, d)
    beta: float

    def __len__(self) -> int:
        return self.vectors.shape[0]


def make_directions(d: int, count: int, density: int = 0) -> DirectionSequence:
    """Directions in shells around the first coordinate axis.

    Shell j occupies angular distance [2^{-j-1}, 2^{-j}) from the base
    direction and carries a lattice net of spacing 2^{-(j^2 + density)};
    for d = 2 the net points are the angles 2^{-j-1} + i * spacing.
    Enumeration is shell by shell, so the first direction is always the
    shell-1 start at distance about 1/4.  Each shell's directions are
    built and canonicalised as one array (`grassmann._canonical_rows`).

    In d >= 3 a shell's directions come from the (2 n_side + 1)^(d-1)
    points of a square lattice around the annulus.  A shell whose lattice
    would pass SHELL_LATTICE_CAP points raises ResourceCap (CLI exit 2)
    before it is built.  In d = 3 that is shell 4 at densities 0 to 3
    (67 M points at density 0), reached past 9,681 directions at density
    0, and shell 3 from density 4; in d = 4 shell 4 at density 0 and
    shell 3 from density 1.
    """
    if count < 1:
        raise InvalidParameter("need at least one direction")
    if d < 2:
        raise InvalidParameter("ambient dimension must be >= 2")
    base = np.eye(d)[0]
    base.setflags(write=False)
    blocks: list[np.ndarray] = []
    shells: list[tuple] = []
    remaining = count
    for j in range(1, MAX_SHELL + 1):
        if remaining == 0:
            break
        exponent = j * j + density
        spacing = 2.0**-exponent if exponent < 1000 else 0.0
        start = 2.0 ** -(j + 1)
        width = 2.0 ** -(j + 1)  # shell spans [2^{-j-1}, 2^{-j})
        if spacing <= 0.0:
            offsets = np.zeros((1, d - 1))
        elif d == 2:
            # only the angles this shell contributes are built
            n_j = max(1, int(np.floor(width / spacing)))
            offsets = (np.arange(min(n_j, remaining)) * spacing)[:, None]
        else:
            # lattice net over the (d-1)-dim annulus, lexicographic order
            n_side = max(1, int(np.floor(2.0 * width / spacing)) + 1)
            size = (2 * n_side + 1) ** (d - 1)
            if size > SHELL_LATTICE_CAP:
                raise ResourceCap(
                    f"direction shell {j} in R^{d} needs a lattice of {size:,} "
                    f"points, above the cap of {SHELL_LATTICE_CAP:,}; "
                    f"{count - remaining} of the {count} directions lie in earlier shells"
                )
            axes = [np.arange(-n_side, n_side + 1) * spacing] * (d - 1)
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            grid = grid.reshape(-1, d - 1)
            radii = np.linalg.norm(grid, axis=1)
            keep = (radii >= start) & (radii < start + width)
            offsets = grid[keep] - start * _first_unit(d - 1)
            order = np.lexsort(offsets.T[::-1])
            offsets = offsets[order]
            if offsets.shape[0] == 0:
                offsets = np.zeros((1, d - 1))
        offsets = offsets[:remaining]
        rows = np.empty((offsets.shape[0], d))
        if d == 2:
            theta = start + offsets[:, 0]
            rows[:, 0] = np.cos(theta)
            rows[:, 1] = np.sin(theta)
        else:
            rows[:, 0] = 1.0
            rows[:, 1:] = start * _first_unit(d - 1) + offsets
        blocks.append(_canonical_rows(rows))
        remaining -= rows.shape[0]
        shells.append((j, spacing, rows.shape[0]))
    if remaining:
        raise ResourceCap(
            f"direction scheme exhausted after {count - remaining} points"
        )
    return DirectionSequence(base, np.concatenate(blocks), tuple(shells))


def _first_unit(n: int) -> np.ndarray:
    e = np.zeros(n)
    e[0] = 1.0
    return e


def _sequence_values(part: float, count: int) -> np.ndarray:
    """One coordinate sequence with box dimension `part` in (0, 1].

    part < 1: m^{-alpha} with alpha = 1/part - 1 (dimension 1/(1+alpha)).
    part = 1: log(2)/log(m+1), the reciprocal-log sequence rescaled so the
    first value is 1 and the whole sequence stays in (0, 1].
    """
    m = np.arange(1, count + 1, dtype=float)
    if abs(part - 1.0) <= 1e-12:
        return np.log(2.0) / np.log(m + 1.0)
    alpha = 1.0 / part - 1.0
    return m**-alpha


def make_translations(d: int, beta: float, count: int) -> TranslationSequence:
    """Bounded countable set in the base orthocomplement of dimension beta.

    beta is split across the d-1 orthocomplement coordinates as maximal
    unit parts plus a remainder; each part gets a polynomial (or, for a
    part equal to 1, reciprocal-log) sequence.  With several coordinates
    the sequences are combined over a product of indices (enumerated by
    increasing maximum index, then lexicographically) because a shared
    single index would realize only the largest part, not the sum.
    """
    if count < 1:
        raise InvalidParameter("need at least one translation")
    if not (0.0 < beta <= d - 1):
        raise InvalidParameter(
            f"translation dimension must lie in (0, {d - 1}], got {beta}; "
            "use the collapsed construction for beta = 0"
        )
    parts = []
    remaining = beta
    while remaining > 1.0 + 1e-12:
        parts.append(1.0)
        remaining -= 1.0
    parts.append(remaining)
    n_parts = len(parts)
    if n_parts == 1:
        values = _sequence_values(parts[0], count)
        vecs = np.zeros((count, d))
        vecs[:, 1] = values
        return TranslationSequence(vecs, beta)
    # product enumeration: indices (m_1..m_p) ordered by max, then lex
    per_axis = int(np.ceil(count ** (1.0 / n_parts))) + 1
    seqs = [_sequence_values(p, per_axis + 1) for p in parts]
    combos = []
    for top in range(1, per_axis + 1):
        new = [
            idx
            for idx in np.ndindex(*([top] * n_parts))
            if max(idx) == top - 1
        ]
        combos.extend(sorted(new))
        if len(combos) >= count:
            break
    vecs = np.zeros((count, d))
    for row, idx in enumerate(combos[:count]):
        for axis, (i, seq) in enumerate(zip(idx, seqs)):
            vecs[row, 1 + axis] = seq[i]
    return TranslationSequence(vecs, beta)


def _pair_order(M: int, N: int):
    """(m, n) index arrays, 1-based, sorted by m+n then m: coarse first.

    Walks the diagonals s = m + n upwards with no sort: diagonal s starts
    at m = max(1, s - N) and holds min(M, s - 1) - max(1, s - N) + 1
    pairs, in increasing m.
    """
    s = np.arange(2, M + N + 1)
    first = np.maximum(1, s - N)
    count = np.minimum(M, s - 1) - first + 1
    m = np.repeat(first - (np.cumsum(count) - count), count)
    m += np.arange(M * N)
    n = np.repeat(s, count)
    n -= m
    return m, n


# 2^-j for j = 0, ..., 1075; exp2 gives 0.0 from j = 1075 on, so a lookup
# clipped to the last entry gives exp2(-j) for every j >= 0
_POWERS_OF_HALF = np.exp2(-np.arange(1076.0))


def _floor_from_exponent(log2_floor: float) -> float:
    # clamp so extreme truncations keep a positive, representable floor
    return float(np.exp2(max(log2_floor, -1000.0))) or 5e-324


def _place_copies(out, scale, endpoints, v, u):
    """out[k, p, c] = fl(fl(fl(scale_k * e_p) * v_kc) + u_kc) for one block.

    These are the operations of the broadcast scale * e * v + u, in its
    order, so the points are the same floats; u is None for no translation.
    The products run along the longer of the pair and endpoint axes: one
    endpoint at a time when the block has more pairs than endpoints.
    """
    step = 1 if endpoints.size < scale.size else endpoints.size
    for lo in range(0, endpoints.size, step):
        cols = slice(lo, lo + step)
        se = scale[:, None] * endpoints[cols]
        for c in range(v.shape[1]):
            dst = out[:, cols, c]
            if u is None:
                np.multiply(se, v[:, c, None], out=dst)
            else:
                np.add(se * v[:, c, None], u[:, c, None], out=dst)


def build_points(spec: BoxSharpSpec) -> PointCloud:
    """All construction points 2^{-m-n} V_n(e) + u_m as a point cloud.

    V_n(e) embeds the Cantor endpoint e by scalar multiplication of the
    n-th direction's canonical unit vector.  In the collapsed case
    (t <= d - 1) the translation set is {0} and the points are simply the
    union of the direction-embedded copies 2^{-n} V_n(E).
    The resolution floor is 4x the finest generated scale.

    Cost: one pass over the K pairs (K = N collapsed, M * N otherwise),
    COUNT_BLOCK_ROWS pairs at a time; each block gathers its directions
    and translations and writes its points straight into the cloud's
    array, which the cloud keeps without a copy.  Peak memory: the output,
    two int64 index arrays of K entries and one block's temporaries.
    """
    total = spec.cardinality()
    if total > spec.max_points:
        raise ResourceCap(
            f"construction would generate {total} points, over the cap "
            f"{spec.max_points}"
        )
    endpoints = cantor.points_at_depth(spec.cantor, spec.depth)
    dirs = make_directions(spec.d, spec.N, spec.dir_density)
    if spec.collapsed:
        m_idx, n_idx = None, np.arange(1, spec.N + 1)
        log2_floor = 2.0 - spec.N - spec.depth * np.log2(spec.cantor.base)
    else:
        trans = make_translations(spec.d, spec.beta, spec.M)
        m_idx, n_idx = _pair_order(spec.M, spec.N)
        log2_floor = (
            2.0 - spec.M - spec.N - spec.depth * np.log2(spec.cantor.base)
        )
    out = np.empty((n_idx.size, endpoints.size, spec.d))
    for start in range(0, n_idx.size, COUNT_BLOCK_ROWS):
        rows = slice(start, start + COUNT_BLOCK_ROWS)
        n = n_idx[rows]
        v = dirs.vectors.take(n - 1, axis=0)
        if m_idx is None:
            exponent, u = n, None
        else:
            m = m_idx[rows]
            exponent, u = m + n, trans.vectors.take(m - 1, axis=0)
        scale = _POWERS_OF_HALF.take(exponent, mode="clip")
        _place_copies(out[rows], scale, endpoints, v, u)
    return PointCloud._owning(
        out.reshape(-1, spec.d), _floor_from_exponent(log2_floor)
    )


def build_lines(spec: BoxSharpSpec) -> LineFamily:
    """The induced line family, one line per (direction, translation) pair.

    Lines are returned in standard form: direction V_n, translation the
    projection of u_m onto V_n's orthocomplement.  The family's box
    dimension target is t = (d - 1) + beta.  The resolution floor is 4x
    the finest structural gap (direction net spacing or translation gap).

    Cost: one pass over the M * N pairs, COUNT_BLOCK_ROWS pairs at a time;
    each block gathers its directions and translations straight into the
    family's arrays and projects the translations in place, and the family
    keeps the arrays without a copy.  Peak memory: the two outputs, two
    int64 index arrays of M * N entries and one block's temporaries.
    """
    dirs = make_directions(spec.d, spec.N, spec.dir_density)
    dir_gap = min(sp for _, sp, _ in dirs.shells if sp > 0.0) if any(
        sp > 0.0 for _, sp, _ in dirs.shells
    ) else 1e-300
    if len(dirs) == 1:
        dir_gap = 1.0
    if spec.collapsed:
        directions = dirs.vectors  # built by this call, so the family may keep it
        floor = 4.0 * dir_gap
        return LineFamily._owning(
            directions, np.zeros_like(directions), min(floor, 1.0)
        )
    trans = make_translations(spec.d, spec.beta, spec.M)
    m_idx, n_idx = _pair_order(spec.M, spec.N)
    directions = np.empty((n_idx.size, spec.d))
    translations = np.empty_like(directions)
    for start in range(0, n_idx.size, COUNT_BLOCK_ROWS):
        rows = slice(start, start + COUNT_BLOCK_ROWS)
        v, u = directions[rows], translations[rows]
        dirs.vectors.take(n_idx[rows] - 1, axis=0, out=v)
        trans.vectors.take(m_idx[rows] - 1, axis=0, out=u)
        along = np.einsum("ij,ij->i", u, v)
        u -= along[:, None] * v
    floor = 4.0 * min(dir_gap, 0.5 * min_pairwise_distance(trans.vectors))
    return LineFamily._owning(directions, translations, min(floor, 1.0))


def k_of_delta(delta: float) -> int:
    """The unique k >= 1 with 2^{-k} <= delta < 2^{-(k-1)}."""
    if not (0.0 < delta < 1.0):
        raise InvalidScale("delta must lie in (0, 1)")
    k = 1
    while 2.0**-k > delta:
        k += 1
    return k


def l_of_delta(delta: float, m: int) -> int:
    """The unique l >= 1 with 2^{-m-l} <= delta < 2^{-m-(l-1)}."""
    if m >= k_of_delta(delta):
        raise InvalidParameter(
            f"need m < k(delta) = {k_of_delta(delta)}, got m = {m}"
        )
    l = 1
    while 2.0 ** -(m + l) > delta:
        l += 1
    return l


def predicted_cover(
    spec: BoxSharpSpec, delta: float, eps: float = 0.05, calibration: float = 1.0
) -> float:
    """Upper envelope for the covering number of the construction.

    Evaluates C * (delta^{d-1-t-eps} + k(delta) + sum over live copies of
    the Cantor covering count at scale delta * 2^{m+n}).  The per-copy
    counts are taken at the grid cell side delta/sqrt(d) rather than the
    cell diameter so the envelope brackets grid counts, which resolve one
    sqrt(d) factor finer than diameter covers.  The constant C is supplied
    by `calibrate_cover`, fitted once per construction at the coarsest
    scale; the shape of the envelope is what is being certified.
    """
    k = k_of_delta(delta)
    first = delta ** (spec.d - 1 - spec.t - eps)
    side = delta / math.sqrt(spec.d)
    copies = 0.0
    for m in range(1, k):
        for n in range(1, l_of_delta(delta, m)):
            copies += cantor.covering_count_at_scale(
                spec.cantor, min(1.0, side * 2.0 ** (m + n))
            )
    return calibration * (first + k + copies)


CALIBRATION_HEADROOM = 2.0


def calibrate_cover(
    spec: BoxSharpSpec, cloud: PointCloud, delta_max: float, eps: float = 0.05
) -> float:
    """Envelope constant fitted at the coarsest scale only.

    The fitted ratio is widened by CALIBRATION_HEADROOM: the envelope
    certifies the covering bound's shape, and grid counts drift against
    diameter covers by a bounded, scale-dependent factor that one-point
    calibration cannot see.
    """
    raw = predicted_cover(spec, delta_max, eps, calibration=1.0)
    measured = grid_count(cloud, delta_max)
    return CALIBRATION_HEADROOM * max(1.0, measured / raw)
