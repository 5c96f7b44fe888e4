"""One `mesh_assign` sink for the tests: every line's code, decoded.

`grassmann.mesh_assign` streams each line's int64 code to its sink.
`Codes` keeps every line's code and how often it came; `streamed` checks
that each came once, inside the layout's span, and decodes the codes with
`boxcount._unpack` into (buckets, cells) to compare with
`line_reference.mesh_assign`.  Where `_mesh_layout` gives no layout (its
range would reach 2^62) the second digit is the line's dense rank among
the (bucket, cells) rows instead of its cells; `dense_ranks` gives those
ranks from the reference rows.  No `assert` here, so the checks hold
under python -O.
"""

import numpy as np

from furst import boxcount, grassmann


def expect(ok, what):
    if not ok:
        raise AssertionError(what)


class Codes:
    """A `mesh_assign` sink keeping every line's code and how often it came."""

    def __init__(self, n, lo, spans):
        self.lo, self.spans = lo, spans
        self.codes = np.full(n, -1, dtype=np.int64)
        self.times = np.zeros(n, dtype=np.int64)

    def add(self, codes, lines):
        expect(codes.dtype == np.int64, f"codes of dtype {codes.dtype}")
        self.codes[lines] = codes
        self.times[lines] += 1


def streamed(family, delta):
    """(buckets, cells, (lo, spans)) of the codes `mesh_assign` streams to a sink."""
    table = grassmann.mesh_assign(family, delta, Codes)
    expect(isinstance(table, Codes), "mesh_assign returns its sink's table")
    expect(np.all(table.times == 1), "every line's code came exactly once")
    span = int(np.prod(table.spans))
    expect(np.all((table.codes >= 0) & (table.codes < span)), "codes inside the span")
    rows = boxcount._unpack(table.codes, table.lo, table.spans)
    return rows[:, 0], rows[:, 1:], (table.lo, table.spans)


def dense_ranks(buckets, cells):
    """Each line's rank among the distinct (bucket, cells) rows, ascending."""
    rows = np.column_stack([buckets, cells])
    return np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
