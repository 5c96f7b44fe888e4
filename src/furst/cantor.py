"""Digit-restricted self-similar subsets of [0, 1].

A base-B expansion with digits restricted to a set D gives a self-similar
set whose level-k covering counts are exactly |D|^k at scale B^{-k}; these
grid-exact counts are what make the downstream constructions testable
without constant-chasing.
"""

from dataclasses import dataclass
from math import log

import numpy as np

from .errors import InvalidParameter, ResourceCap, UnsupportedScale
from .util import as_number, as_numbers, as_object

DEFAULT_POINT_CAP = 5_000_000


@dataclass(frozen=True)
class CantorSpec:
    """Base and digit set of a digit-restricted Cantor construction."""

    base: int
    digits: tuple

    def __init__(self, base, digits):
        base = int(base)
        digits = tuple(sorted(set(int(x) for x in digits)))
        if base < 2:
            raise InvalidParameter("base must be >= 2")
        if not digits:
            raise InvalidParameter("digit set must be nonempty")
        if digits[0] < 0 or digits[-1] >= base:
            raise InvalidParameter(f"digits must lie in [0, {base - 1}]")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "digits", digits)

    @property
    def s(self) -> float:
        """Similarity dimension log|D| / log B, in [0, 1]."""
        return log(len(self.digits)) / log(self.base)

    def max_exact_depth(self) -> int:
        # beyond this depth left endpoints are no longer exact binary floats
        return int(52 / np.log2(self.base))

    def to_config(self) -> dict:
        return {"base": self.base, "digits": list(self.digits)}

    @classmethod
    def from_config(cls, cfg: dict) -> "CantorSpec":
        cfg = as_object(cfg, "cantor")
        return cls(as_number(int, cfg["base"], "cantor base"),
                   as_numbers(int, cfg["digits"], "cantor digits"))


def covering_count(spec: CantorSpec, k: int) -> int:
    """Exact number of level-k intervals, equal to the grid covering
    number at scale base^{-k}."""
    if k < 0:
        raise InvalidParameter("depth must be >= 0")
    return len(spec.digits) ** int(k)


def covering_count_at_scale(spec: CantorSpec, delta: float) -> int:
    """Covering number of the ideal set at an arbitrary scale in (0, 1].

    Uses the smallest k with base^{-k} <= delta, so the value is the exact
    grid count at the nearest aligned scale below delta.
    """
    if delta <= 0:
        raise InvalidParameter("scale must be positive")
    if delta >= 1.0:
        return 1
    k = 0
    power = 1.0
    while power > delta:
        power /= spec.base
        k += 1
    return covering_count(spec, k)


def _endpoint_numerators(spec: CantorSpec, k: int) -> np.ndarray:
    """Integer numerators n of all level-k left endpoints n / base^k."""
    nums = np.array([0], dtype=np.int64)
    digits = np.array(spec.digits, dtype=np.int64)
    for _ in range(k):
        nums = (nums[:, None] * spec.base + digits[None, :]).ravel()
    return nums


def points_at_depth(spec: CantorSpec, k: int) -> np.ndarray:
    """Left endpoints of all level-k intervals, ascending.

    Positions are computed as exact integers over base^k and divided once,
    so each endpoint is the correctly rounded float of the exact rational.
    A depth with more than DEFAULT_POINT_CAP endpoints raises ResourceCap.
    """
    if k < 0:
        raise InvalidParameter("depth must be >= 0")
    count = covering_count(spec, k)
    if count > DEFAULT_POINT_CAP:
        raise ResourceCap(
            f"depth {k} would generate {count} points, over the cap {DEFAULT_POINT_CAP}"
        )
    if k > spec.max_exact_depth():
        raise InvalidParameter(
            f"depth {k} exceeds the float-exact depth "
            f"{spec.max_exact_depth()} for base {spec.base}"
        )
    nums = _endpoint_numerators(spec, k)
    return np.sort(nums.astype(float) / float(spec.base) ** k)


@dataclass(frozen=True)
class ScalingWitness:
    """Outcome of one exact rescaling identity check."""

    scaling: int
    depth: int
    scaled_count: int
    reference_count: int
    upper_bound: int
    passed: bool


def scaled_count_check(spec: CantorSpec, c: int, k: int) -> ScalingWitness:
    """Check the rescaling identity at delta = base^{-k}, c = base^j.

    The grid count of the c^{-1}-scaled depth-k approximant at scale delta
    must equal the covering count at scale delta * c, and both are bounded
    by (delta*c)^{-s} with constant 1 (the grid-exact case).
    """
    c = int(c)
    if c < 1:
        raise InvalidParameter("scaling factor must be >= 1")
    j, x = 0, c
    while x % spec.base == 0:
        x //= spec.base
        j += 1
    if x != 1:
        raise UnsupportedScale(
            f"scaling {c} is not a power of the base {spec.base}; the "
            "identity is only grid-exact at base powers"
        )
    if j > k:
        raise InvalidParameter("need delta * c <= 1, i.e. c <= base^k")
    if k > spec.max_exact_depth():
        raise InvalidParameter("depth too large for exact integer arithmetic")
    if covering_count(spec, k) > DEFAULT_POINT_CAP:
        raise ResourceCap(f"depth {k} exceeds the enumeration cap")
    nums = _endpoint_numerators(spec, k)
    # position/delta = nums / base^j exactly, so cells are integer quotients
    scaled_count = int(np.unique(nums // spec.base**j).size)
    reference = covering_count(spec, k - j)
    bound = reference  # (delta*c)^{-s} = |D|^{k-j}, constant 1
    return ScalingWitness(
        scaling=c,
        depth=k,
        scaled_count=scaled_count,
        reference_count=reference,
        upper_bound=bound,
        passed=(scaled_count == reference and scaled_count <= bound),
    )


def spec_for_dimension(s: float) -> CantorSpec:
    """Digit construction whose dimension best approximates a target s.

    Scans bases up to 64 and digit-set sizes, minimizing
    |log(nd)/log(B) - s|; ties prefer the smaller base, then the smaller
    digit set.  Digits are spread evenly across [0, B-1] (0 always
    included) so level-1 intervals are as separated as the count allows.
    """
    if not (0.0 <= s <= 1.0):
        raise InvalidParameter("target dimension must lie in [0, 1]")
    best = None
    for base in range(2, 65):
        for nd in range(1, base + 1):
            err = abs(log(nd) / log(base) - s)
            key = (err, base, nd)
            if best is None or key < best:
                best = key
    _, base, nd = best
    if nd == 1:
        digits = (0,)
    elif nd == base:
        digits = tuple(range(base))
    else:
        digits = tuple(
            int(np.floor(i * (base - 1) / (nd - 1) + 0.5)) for i in range(nd)
        )
    return CantorSpec(base, digits)
