"""Min-plus (tropical) kernels over saturating 32-bit distance blocks.

All kernels take and return ``uint32`` dense matrices whose entries lie in
``[0, INF_SENTINEL]``; the sentinel (2^31-1) means "unreachable".
``uint32`` arithmetic is exact here: a candidate is the sum of two stored
values, at most 2 * (2^31-1) = 2^32-2, so it never wraps, and every stored
entry is the minimum of an in-range incumbent and a candidate, so stored
values never exceed the sentinel (saturation by construction).  Inputs in
any other dtype are range-checked in that dtype before the cast, so an
out-of-range value is rejected instead of wrapping.  Writes follow a
strict-improvement discipline: an entry changes only when the candidate is
strictly smaller, so ties keep the incumbent and repeated closure passes
are byte-stable.

The closure computes in 16 bits when its result provably fits: it clamps
the input to the narrow sentinel 2^15-1 in a ``uint16`` matrix, where the
same argument shows no sum wraps, closes that, and widens the result back
to ``uint32`` with the 2^31-1 sentinel.  When the fit test fails, it
closes in ``uint32`` (see :func:`floyd_warshall_dense`).  Its results and
the engine's storage stay ``uint32`` either way.  By default the closure
returns a new matrix; ``inplace=True`` writes the result into the
caller's ``uint32`` input.

At either width the closure has two phases.  Floyd-Warshall
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


# the strip loop builds each pivot's candidates one strip of rows at a
# time, in a buffer of this many bytes (256 KiB) that stays in cache; the
# other passes over the matrix take strips of this many cells
_FW_STRIP_BYTES = 1 << 18
_FW_STRIP_CELLS = 1 << 16

# the sparse pivot phase runs on inputs of at least this dimension, and
# hands its remaining pivots to the strip loop once the cheapest covers the
# switch share of the n x n cells
_SPARSE_MIN_DIM = 512
_SPARSE_SWITCH = 0.2

# the sentinel of the 16-bit closure: a candidate is at most 2 * (2^15 - 1),
# which fits uint16, so narrow storage saturates as uint32 storage does
_NARROW_SENTINEL = (1 << 15) - 1


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


def floyd_warshall_dense(d: np.ndarray, inplace: bool = False) -> np.ndarray:
    """Exact all-pairs closure of a dense non-negative distance matrix.

    The one closure kernel: the component closes and the top closure both
    call it.  Entries of ``d`` must lie in ``[0, INF_SENTINEL]``.  The
    result is ``uint32`` with ``INF_SENTINEL`` for unreachable pairs.  By
    default it is a new matrix and ``d`` is left as it was.  With
    ``inplace=True``, ``d`` must be ``uint32``: the closure is written into
    it and ``d`` itself is returned, so a caller that drops its input holds
    no second full-width matrix.

    The closure computes in 16 bits when the result provably fits.  Let
    ``w`` be the largest finite entry of ``d``.  If ``w < S`` (``S`` =
    ``_NARROW_SENTINEL``), ``d`` is clamped to ``S`` into a ``uint16``
    matrix and closed there, which returns ``min(D, S)`` for the true
    closure ``D``.  A pair whose true distance is finite and at least ``S``
    has a vertex on its shortest path whose exact distance lies in
    ``[S - w, S)``, as each arc adds at most ``w``.  So when the largest
    narrow entry below ``S`` plus ``w`` is below ``S``, every entry at
    ``S`` is unreachable, and the narrow result is widened to ``uint32``
    with ``S`` written as ``INF_SENTINEL``.  Otherwise, and whenever
    ``w >= S``, the closure runs in ``uint32`` on the untouched input.
    See :func:`_close` for the two phases both widths run.
    """
    d = np.asarray(d)
    _check_square_nonneg(d)
    if inplace and d.dtype != np.uint32:
        raise BlockShapeError("an in-place closure needs a uint32 matrix")
    n = d.shape[0]
    rows = _strip_rows(n, _FW_STRIP_CELLS)
    narrow = np.empty((n, n), dtype=np.uint16)
    w = 0
    # the clamp runs with the scan for w, so it is wasted when w >= S
    for r0 in range(0, n, rows):
        s = d[r0 : r0 + rows]
        w = max(w, int(s[s < INF_SENTINEL].max(initial=0)))
        np.minimum(s, _NARROW_SENTINEL, out=narrow[r0 : r0 + rows], casting="unsafe")
    if w < _NARROW_SENTINEL:
        _close(narrow, _NARROW_SENTINEL)
        # a shortest path has at most n - 1 arcs, so no exact entry exceeds
        # (n - 1) * w, and while n * w < S the fit needs no scan
        top = (n - 1) * w
        if top + w >= _NARROW_SENTINEL:
            top = 0
            for r0 in range(0, n, rows):
                s = narrow[r0 : r0 + rows]
                top = max(top, int(s[s < _NARROW_SENTINEL].max(initial=0)))
        if top + w < _NARROW_SENTINEL:
            out = d if inplace else np.empty((n, n), dtype=np.uint32)
            for r0 in range(0, n, rows):
                s, o = narrow[r0 : r0 + rows], out[r0 : r0 + rows]
                np.copyto(o, s)
                np.putmask(o, s == _NARROW_SENTINEL, INF_SENTINEL)
            return out
    del narrow  # before the full-width copy, so the two never coexist
    out = d if inplace else np.array(d, dtype=np.uint32)
    _close(out, INF_SENTINEL)
    return out


def _strip_rows(n: int, cells: int) -> int:
    """Rows per strip of about ``cells`` cells of an n-column matrix."""
    return max(1, cells // max(n, 1))


def _close(out: np.ndarray, sentinel: int) -> None:
    """Close the square matrix ``out`` in place, in its own unsigned dtype,
    where ``sentinel`` means unreachable and no sum of two entries wraps.

    Pivot ``k`` can improve ``out[i, j]`` only where ``out[i, k]`` and
    ``out[k, j]`` are both finite: any other candidate is at least the
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
    n = out.shape[0]
    pivots = _sparse_pivots(out, sentinel) if n >= _SPARSE_MIN_DIM else range(n)
    rows = _strip_rows(n, _FW_STRIP_BYTES // out.itemsize)
    cand = np.empty((min(rows, n), n), dtype=out.dtype)
    for k in pivots:
        pivot_row = out[None, k, :]
        for r0 in range(0, n, rows):
            strip = out[r0 : r0 + rows]
            c = cand[: strip.shape[0]]
            np.add(strip[:, k, None], pivot_row, out=c)
            np.minimum(strip, c, out=strip)


def _sparse_pivots(out: np.ndarray, sentinel: int) -> np.ndarray:
    """Run the sparse pivot phase on the square matrix ``out``, whose
    entries saturate at ``sentinel``, in place and return the pivots left
    for the strip loop, in id order.

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
    step = _strip_rows(n, _FW_STRIP_CELLS)
    for r0 in range(0, n, step):
        fin = out[r0 : r0 + step] < sentinel
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
        rows = np.flatnonzero(out[:, k] < sentinel)
        cols = np.flatnonzero(out[k] < sentinel)
        pivot_row = out[None, k, cols]
        step = _strip_rows(cols.size, _FW_STRIP_CELLS)
        for r0 in range(0, rows.size, step):
            r = rows[r0 : r0 + step]
            block = np.ix_(r, cols)
            old = out[block]
            cand = out[r, k, None] + pivot_row
            fresh = (old == sentinel) & (cand < sentinel)
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
