"""Min-plus (tropical) kernels over saturating 32-bit distance blocks.

All kernels store and compute in ``uint32`` on dense matrices whose entries
lie in ``[0, INF_SENTINEL]``; the sentinel (2^31-1) means "unreachable".
``uint32`` arithmetic is exact here: a candidate is the sum of two stored
values, at most 2 * (2^31-1) = 2^32-2, so it never wraps, and every stored
entry is the minimum of an in-range incumbent and a candidate, so stored
values never exceed the sentinel (saturation by construction).  Inputs in
any other dtype are range-checked in that dtype before the cast, so an
out-of-range value is rejected instead of wrapping.  Writes follow a
strict-improvement discipline: an entry changes only when the candidate is
strictly smaller, so ties keep the incumbent and repeated closure passes
are byte-stable.

The closure, :func:`floyd_warshall_dense`, has two phases.  Floyd-Warshall
is exact in any pivot order, and pivot ``k`` can improve ``d[i, j]`` only
where ``d[i, k]`` and ``d[k, j]`` are both finite: a candidate with a
sentinel term is at least the sentinel, and no stored entry exceeds it, so
it can never be strictly smaller.  A large input therefore starts with a
sparse phase that pivots the vertex with the fewest finite rows times
finite columns first and updates only that block, as fill-reducing orders
do in sparse elimination.  Once the cheapest pivot left would cover a
fifth of the matrix (on a dense input, at once), or for a small input
from the start, the strip loop pivots every row.  The closed distances are
unique, so the result does not depend on which phase ran.
"""

from __future__ import annotations

import numpy as np

from .graphs import INF_SENTINEL


# the closure builds each pivot's candidates one strip of rows at a time,
# in a buffer of this many cells (256 KiB) that stays in cache
_FW_STRIP_CELLS = 1 << 16

# the sparse pivot phase runs on inputs of at least this dimension, and
# hands its remaining pivots to the strip loop once the cheapest covers the
# switch share of the n x n cells
_SPARSE_MIN_DIM = 512
_SPARSE_SWITCH = 0.2


class NegativeEntryError(ValueError):
    """Distance matrices must be non-negative."""


class BlockShapeError(ValueError):
    """Malformed distance matrix (not square, mismatched inner dimensions,
    an entry above the sentinel, bad diagonal)."""


def _check_range(d: np.ndarray) -> None:
    """Entries must lie in [0, INF_SENTINEL], tested in ``d``'s own dtype."""
    if d.size == 0:
        return
    if d.dtype.kind != "u" and d.min() < 0:
        raise NegativeEntryError("negative distance entry")
    if d.max() > INF_SENTINEL:
        raise BlockShapeError("entry above the saturation sentinel")


def _as_distances(d) -> np.ndarray:
    """``d`` as ``uint32``, range-checked before the cast so that no
    out-of-range value can wrap into range."""
    d = np.asarray(d)
    _check_range(d)
    return d.astype(np.uint32, copy=False)


def _check_square_nonneg(d: np.ndarray) -> None:
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise BlockShapeError("distance matrix must be square")
    _check_range(d)
    if np.any(np.diagonal(d) != 0):
        raise BlockShapeError("diagonal must be zero before closure")


def floyd_warshall_dense(d: np.ndarray) -> np.ndarray:
    """Exact all-pairs closure of a dense non-negative distance matrix.

    The one closure kernel: the component closes and the top closure both
    call it.  Works on a ``uint32`` copy of ``d`` (entries must lie in
    ``[0, INF_SENTINEL]``) and returns it.

    Pivot ``k`` can improve ``d[i, j]`` only where ``d[i, k]`` and
    ``d[k, j]`` are both finite: any other candidate is at least the
    sentinel, and every incumbent is at most the sentinel, so it never
    strictly improves.  Floyd-Warshall is exact in any pivot order.  So an
    input of at least ``_SPARSE_MIN_DIM`` vertices first runs a sparse
    phase (see :func:`_sparse_pivots`): fewest-fill pivots first, each
    updating only its finite rows and columns.  Smaller inputs, and the
    pivots the sparse phase leaves, run the strip loop: each pivot
    min-updates every row, strip by strip through one reused candidate
    buffer.  Strips change no value: row and column ``k`` are fixed points
    of pivot ``k``.
    """
    d = np.asarray(d)
    _check_square_nonneg(d)
    out = np.array(d, dtype=np.uint32)
    n = out.shape[0]
    pivots = _sparse_pivots(out) if n >= _SPARSE_MIN_DIM else range(n)
    rows = max(1, _FW_STRIP_CELLS // max(n, 1))
    cand = np.empty((min(rows, n), n), dtype=np.uint32)
    for k in pivots:
        pivot_row = out[None, k, :]
        for r0 in range(0, n, rows):
            strip = out[r0 : r0 + rows]
            c = cand[: strip.shape[0]]
            np.add(strip[:, k, None], pivot_row, out=c)
            np.minimum(strip, c, out=strip)
    return out


def _sparse_pivots(out: np.ndarray) -> np.ndarray:
    """Run the sparse pivot phase on the square ``uint32`` matrix ``out`` in
    place and return the pivots left for the strip loop, in id order.

    Each step pivots the unpivoted vertex with the fewest finite rows times
    finite columns, the lowest id on a tie, and min-updates only that
    ``np.ix_`` block, in row strips of ``_FW_STRIP_CELLS``.  The counts
    follow the entries the updates make finite.  Once the cheapest pivot
    covers ``_SPARSE_SWITCH`` * n^2 cells, the rest go to the strip loop,
    which does not gather and scatter; a dense input pivots nothing here.
    """
    n = out.shape[0]
    # finite entries per column (the rows pivot k reaches) and per row (its
    # columns), counted a strip at a time so that no n x n mask exists
    col_fin = np.zeros(n, dtype=np.int64)
    row_fin = np.zeros(n, dtype=np.int64)
    step = max(1, _FW_STRIP_CELLS // n)
    for r0 in range(0, n, step):
        fin = out[r0 : r0 + step] < INF_SENTINEL
        col_fin += fin.sum(axis=0)
        row_fin[r0 : r0 + step] = fin.sum(axis=1)
    done = np.zeros(n, dtype=bool)
    switch = _SPARSE_SWITCH * n * n
    unset = np.iinfo(np.int64).max
    while True:
        cost = col_fin * row_fin
        cost[done] = unset
        k = int(np.argmin(cost))
        if cost[k] >= switch:
            break
        done[k] = True
        rows = np.flatnonzero(out[:, k] < INF_SENTINEL)
        cols = np.flatnonzero(out[k] < INF_SENTINEL)
        pivot_row = out[None, k, cols]
        step = max(1, _FW_STRIP_CELLS // cols.size)
        for r0 in range(0, rows.size, step):
            r = rows[r0 : r0 + step]
            block = np.ix_(r, cols)
            old = out[block]
            cand = out[r, k, None] + pivot_row
            fresh = (old == INF_SENTINEL) & (cand < INF_SENTINEL)
            out[block] = np.minimum(old, cand, out=cand)
            row_fin[r] += fresh.sum(axis=1)
            col_fin[cols] += fresh.sum(axis=0)
    return np.flatnonzero(~done)


def min_plus_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tropical matrix product: out[i,j] = min_k a[i,k] + b[k,j].

    Entries of ``a`` and ``b`` must lie in ``[0, INF_SENTINEL]``.  The
    result is ``uint32``, starts at the sentinel (so it saturates there) and
    is built through one reused candidate buffer.
    """
    a = _as_distances(a)
    b = _as_distances(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise BlockShapeError("inner dimensions differ")
    out = np.full((a.shape[0], b.shape[1]), INF_SENTINEL, dtype=np.uint32)
    cand = np.empty_like(out)
    for k in range(a.shape[1]):
        np.add(a[:, k, None], b[None, k, :], out=cand)
        np.minimum(out, cand, out=out)
    return out
