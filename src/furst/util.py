"""Small shared helpers: seed splitting, boundary-safe grid indexing,
exact nearest-pair distances, the CSV/JSON codec every artifact uses and
the typed reads of its JSON fields."""

import hashlib
import json
import math
import warnings

import numpy as np

from .errors import InconsistentInput, InvalidParameter, InvalidScale


def derive_seed(seed: int, label: str) -> int:
    """Derive a child seed from a master seed and a purpose label.

    Single documented splitting rule: first 8 bytes of
    sha256(f"{seed}:{label}") interpreted big-endian. Every consumer of
    randomness in the package obtains its seed through this function so a
    run is reproducible from one configured seed.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


SNAP = 1e-9  # snap_floor rounds quotients this close below an integer up


def snap_floor(values, width: float) -> np.ndarray:
    """floor(values / width) with a snap-up for near-boundary quotients.

    Quotients within SNAP of the next integer are rounded up, so points
    that sit exactly on a cell boundary in exact arithmetic land in the
    upper cell even when floating-point division comes out a hair low
    (e.g. (2/3) / (1/27) evaluating to 17.999999999999996).

    Cost: a division into a new float array, `snap_into` on it and an
    int64 cast: five passes and a flag test, one more when a flag is set.
    """
    q = np.divide(values, width, out=np.empty(np.shape(values)))
    cells = np.empty_like(q)
    snap_into(q, cells)
    return cells.astype(np.int64)[()]


def snap_into(q: np.ndarray, cells: np.ndarray, above: float = 1.0 - SNAP) -> np.ndarray:
    """`snap_floor`'s rule in place: floor the quotients q into `cells`.

    q is left holding the fractions q - floor(q); the flags fraction >
    `above` are returned and added to the cells, the snap-up, only when one
    is set.  A flag-free block so keeps floor(q), which differs from adding
    the flags only in the sign of a -0.0 cell.  Flags come dense where they
    come at all (a third of the entries in the d3 benchmark's chain
    window), where a masked add of just the flagged entries is 15 times
    slower.  Cost: floor, subtraction, comparison and one flag test.
    """
    np.floor(q, out=cells)
    np.subtract(q, cells, out=q)
    flags = q > above
    if flags.any():
        cells += flags
    return flags


CELL_INDEX_LIMIT = 2.0**61  # largest |coordinate| / side a grid cell index may reach


def require_indexable(magnitude: float, side: float, scale: float) -> None:
    """Raise InvalidScale unless coordinates up to `magnitude` snap below 2^61 cells.

    Below that every cell index and every difference of two fits an int64.
    A quotient at or above it means the side is finer than the float
    spacing of the coordinates (2^-52 of their size), where a count would
    measure rounding, and the int64 cast of `snap_floor` would wrap.
    """
    if not magnitude / side < CELL_INDEX_LIMIT:
        raise InvalidScale(
            f"scale {scale:.3e} is finer than the float resolution of "
            f"coordinates as large as {magnitude:.3e}"
        )


def min_pairwise_distance(points) -> float:
    """Exact minimum Euclidean distance over all pairs of rows (inf below 2).

    Distances are norms of difference rows, as in an n x n distance matrix,
    so the result matches that matrix bit for bit, in O(n) memory: rows are
    sorted along their widest coordinate and each is compared with its
    successors while they lie within the best distance so far.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n < 2:
        return math.inf
    axis = int(np.argmax(np.ptp(pts, axis=0)))
    pts = pts[np.argsort(pts[:, axis], kind="stable")]
    key = pts[:, axis]
    best = math.inf
    active = np.arange(n - 1)
    k = 1
    while active.size:
        dist = np.linalg.norm(pts[active + k] - pts[active], axis=-1)
        best = min(best, float(dist.min()))
        k += 1
        active = active[active + k < n]
        # a pair further apart along the sorted axis than `best` (with
        # room for the rounding of the norm) cannot come closer
        active = active[key[active + k] - key[active] <= best * (1.0 + 1e-12)]
    return best


CSV_BLOCK_ROWS = 4096  # array rows formatted per block, so the Python copy stays small


def write_csv(path, header, rows) -> None:
    """Write a header line and one comma-separated line per row.

    Cells go through str(), the shortest round-trip repr for Python floats;
    an ndarray is converted with tolist() so no numpy scalar is formatted.
    That is done CSV_BLOCK_ROWS rows at a time and column by column: each
    column of a block becomes one list of strings, and the lines are the
    columns zipped and joined, which spends less Python work per cell than
    formatting row lists.
    """
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            for start in range(0, len(rows), CSV_BLOCK_ROWS):
                block = rows[start : start + CSV_BLOCK_ROWS]
                cols = [map(str, block[:, c].tolist()) for c in range(block.shape[1])]
                lines = zip(*cols) if cols else [()] * len(block)
                fh.write("\n".join(map(",".join, lines)) + "\n")
        else:
            fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def read_csv(path) -> np.ndarray:
    """A headered numeric CSV as a (rows, len(header)) float array.

    A header-only file gives a (0, len(header)) array; unparsable cells or
    rows whose width differs from the header raise InconsistentInput.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on no data
            # given the path rather than the open file, loadtxt reads faster
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise InconsistentInput(f"{path}: malformed CSV ({exc})") from exc
    if data.size == 0:
        return np.empty((0, len(header)))
    if data.shape[1] != len(header):
        raise InconsistentInput(
            f"{path}: rows have {data.shape[1]} columns, the header names "
            f"{len(header)}"
        )
    return data


def read_json(path):
    """The JSON value in a file."""
    with open(path) as fh:
        return json.load(fh)


def write_json(path, payload) -> None:
    """Indented JSON with sorted keys and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def as_number(kind, value, name: str):
    """kind(value), kind int or float, for a field read from JSON.

    A value that kind cannot take (null, a list or object, a string that
    is no number, an infinite float for int) raises InvalidParameter
    naming the field, so a config or manifest of the wrong type is a user
    error, not a crash.
    """
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameter(f"{name} must be a number, got {value!r:.60}") from exc


def as_numbers(kind, values, name: str) -> list:
    """`as_number` of every entry of a JSON list (or tuple) field."""
    if not isinstance(values, (list, tuple)):
        raise InvalidParameter(f"{name} must be a list of numbers, got {values!r:.60}")
    return [as_number(kind, v, name) for v in values]


def as_object(value, name: str) -> dict:
    """value, which must be a JSON object (a dict), or InvalidParameter naming the field."""
    if not isinstance(value, dict):
        raise InvalidParameter(f"{name} must be a JSON object, got {value!r:.60}")
    return value
