"""Plain forms of the box construction's builders, kept as references for the tests.

`make_directions` canonicalises each direction with its own
`canonical_vector` call; the package builds each shell as one array.
`pair_order` sorts all M * N pairs with np.lexsort; `build_points` forms
every point with one (K, P, d) broadcast, and `build_lines` gathers every
pair's direction and translation by fancy indexing and projects them
array-wide; both hand their arrays to the public constructors, which copy
and check them.  The package walks the diagonals in closed form and
builds both outputs in place, a block of pairs at a time, and hands them
over without a copy; test_construct_identity.py compares the two.  No `assert`
here, so the references behave the same under python -O.
"""

import numpy as np

from furst import cantor
from furst.boxcount import PointCloud
from furst.construct_box import (
    MAX_SHELL,
    DirectionSequence,
    _first_unit,
    _floor_from_exponent,
    make_translations,
)
from furst.errors import InvalidParameter, ResourceCap
from furst.grassmann import LineFamily
from furst.util import min_pairwise_distance

from line_reference import canonical_vector


def make_directions(d, count, density=0):
    """The old scalar builder: one `canonical_vector` call per direction.

    Directions in shells around the first coordinate axis.

    Shell j occupies angular distance [2^{-j-1}, 2^{-j}) from the base
    direction and carries a lattice net of spacing 2^{-(j^2 + density)};
    for d = 2 the net points are the angles 2^{-j-1} + i * spacing.
    Enumeration is shell by shell, so the first direction is always the
    shell-1 start at distance about 1/4.
    """
    if count < 1:
        raise InvalidParameter("need at least one direction")
    if d < 2:
        raise InvalidParameter("ambient dimension must be >= 2")
    base = np.eye(d)[0]
    base.setflags(write=False)
    vectors: list[np.ndarray] = []
    shells: list[tuple] = []
    for j in range(1, MAX_SHELL + 1):
        if len(vectors) >= count:
            break
        exponent = j * j + density
        spacing = 2.0**-exponent if exponent < 1000 else 0.0
        start = 2.0 ** -(j + 1)
        width = 2.0 ** -(j + 1)  # shell spans [2^{-j-1}, 2^{-j})
        if spacing <= 0.0:
            offsets = np.zeros((1, d - 1))
        elif d == 2:
            n_j = max(1, int(np.floor(width / spacing)))
            offsets = np.zeros((n_j, 1))
            offsets[:, 0] = np.arange(n_j) * spacing
        else:
            # lattice net over the (d-1)-dim annulus, lexicographic order
            n_side = max(1, int(np.floor(2.0 * width / spacing)) + 1)
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
        taken = 0
        for off in offsets:
            if len(vectors) >= count:
                break
            if d == 2:
                theta = start + off[0]
                v = np.array([np.cos(theta), np.sin(theta)])
            else:
                w = start * _first_unit(d - 1) + off
                v = np.concatenate([[1.0], w])
            vectors.append(canonical_vector(v))
            taken += 1
        if taken:
            shells.append((j, spacing, taken))
    if len(vectors) < count:
        raise ResourceCap(
            f"direction scheme exhausted after {len(vectors)} points"
        )
    return DirectionSequence(base, np.array(vectors), tuple(shells))


def pair_order(M, N):
    """(m, n) index arrays, 1-based, sorted by m+n then m: coarse first."""
    m = np.repeat(np.arange(1, M + 1), N)
    n = np.tile(np.arange(1, N + 1), M)
    order = np.lexsort((m, m + n))
    return m[order], n[order]


def build_points(spec):
    """All construction points 2^{-m-n} V_n(e) + u_m, one broadcast."""
    total = spec.cardinality()
    if total > spec.max_points:
        raise ResourceCap(
            f"construction would generate {total} points, over the cap "
            f"{spec.max_points}"
        )
    endpoints = cantor.points_at_depth(spec.cantor, spec.depth)
    dirs = make_directions(spec.d, spec.N, spec.dir_density)
    if spec.collapsed:
        n_idx = np.arange(1, spec.N + 1)
        scales = np.exp2(-n_idx.astype(float))
        out = (
            scales[:, None, None]
            * endpoints[None, :, None]
            * dirs.vectors[n_idx - 1][:, None, :]
        ).reshape(-1, spec.d)
        log2_floor = 2.0 - spec.N - spec.depth * np.log2(spec.cantor.base)
    else:
        trans = make_translations(spec.d, spec.beta, spec.M)
        m_idx, n_idx = pair_order(spec.M, spec.N)
        scales = np.exp2(-(m_idx + n_idx).astype(float))
        out = (
            scales[:, None, None]
            * endpoints[None, :, None]
            * dirs.vectors[n_idx - 1][:, None, :]
            + trans.vectors[m_idx - 1][:, None, :]
        ).reshape(-1, spec.d)
        log2_floor = (
            2.0 - spec.M - spec.N - spec.depth * np.log2(spec.cantor.base)
        )
    return PointCloud(out, _floor_from_exponent(log2_floor))


def build_lines(spec):
    """The induced line family, gathered and projected array-wide."""
    dirs = make_directions(spec.d, spec.N, spec.dir_density)
    dir_gap = min(sp for _, sp, _ in dirs.shells if sp > 0.0) if any(
        sp > 0.0 for _, sp, _ in dirs.shells
    ) else 1e-300
    if len(dirs) == 1:
        dir_gap = 1.0
    if spec.collapsed:
        directions = dirs.vectors
        translations = np.zeros_like(directions)
        floor = 4.0 * dir_gap
        return LineFamily(directions, translations, min(floor, 1.0))
    trans = make_translations(spec.d, spec.beta, spec.M)
    m_idx, n_idx = pair_order(spec.M, spec.N)
    directions = dirs.vectors[n_idx - 1]
    u = trans.vectors[m_idx - 1]
    along = np.einsum("ij,ij->i", u, directions)
    translations = u - along[:, None] * directions
    floor = 4.0 * min(dir_gap, 0.5 * min_pairwise_distance(trans.vectors))
    return LineFamily(directions, translations, min(floor, 1.0))
