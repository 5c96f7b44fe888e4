"""Plain forms of the box construction's builders, kept as references for the tests.

`pair_order` sorts all M * N pairs with np.lexsort; `build_points` forms
every point with one (K, P, d) broadcast, and `build_lines` gathers every
pair's direction and translation by fancy indexing and projects them
array-wide; both hand their arrays to the public constructors, which copy
and check them.  The package walks the diagonals in closed form, builds
both outputs in place, a block of pairs at a time, and hands them over
without a copy; test_construct_identity.py compares the two.  No `assert`
here, so the references behave the same under python -O.
"""

import numpy as np

from furst import cantor
from furst.boxcount import PointCloud
from furst.construct_box import (
    _floor_from_exponent,
    make_directions,
    make_translations,
)
from furst.errors import ResourceCap
from furst.grassmann import LineFamily
from furst.util import min_pairwise_distance


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
