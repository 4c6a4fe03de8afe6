"""Min-plus (tropical) kernels over saturating 32-bit distance blocks.

Both kernels take distance matrices whose entries lie in
``[0, INF_SENTINEL]`` and return ``uint32`` ones; the sentinel (2^31-1)
means "unreachable".  ``uint32`` arithmetic is exact here: a candidate is
the sum of two stored values, at most 2 * (2^31-1) = 2^32-2, so it never
wraps, and every stored entry is the minimum of an in-range incumbent and
a candidate, so stored values never exceed the sentinel (saturation by
construction).  Inputs in any other dtype are range-checked in that dtype
before the cast, so an out-of-range value is rejected instead of wrapping.
Writes follow a strict-improvement discipline: an entry changes only when
the candidate is strictly smaller, so ties keep the incumbent and repeated
closure passes are byte-stable.

The closure takes one matrix or a ``(k, s, s)`` stack of them, and
closes every matrix of a stack independently, so a level's components
close as one call, as the device's matrix tile closes them side by side.

Both kernels compute in 16 bits when that is provably exact, clamping
their operands to the narrow sentinel 2^15-1 in ``uint16``, where the same
argument shows no sum wraps.  The closure closes the clamped input and
widens the result back to ``uint32`` with the 2^31-1 sentinel when the
result fits, decided once for a whole stack (see
:func:`floyd_warshall_dense`); by default it returns a new array, and
``inplace=True`` writes the result into the caller's ``uint32`` input.
The product runs narrow when the largest finite entries of its operands
sum below 2^15-1, and never writes a narrow candidate that reaches the
narrow sentinel (see :func:`min_plus_product`).  It
either returns a new matrix that starts at the sentinel or min-accumulates
into a caller's ``uint32`` matrix, optionally into chosen rows of it, so
a level correction needs no product buffer.  When a fit test fails, the
kernel runs in ``uint32``.  Results and the engine's storage stay
``uint32`` either way.

At either width the closure has two phases.  Floyd-Warshall
is exact in any pivot order, and pivot ``k`` can improve ``d[i, j]`` only
where ``d[i, k]`` and ``d[k, j]`` are both finite: a candidate with a
sentinel term is at least the sentinel, and no stored entry exceeds it, so
it can never be strictly smaller.  A large input therefore starts with a
sparse phase that pivots the vertex with the fewest finite rows times
finite columns first and updates only that block, as fill-reducing orders
do in sparse elimination.  Once the cheapest pivot left would cover a
twentieth of the matrix (on a dense input, at once), or for a small input
from the start, the strip loop pivots every row; small matrices of a
stack take each pivot together, a cache-sized chunk of them per add and
minimum.  The closed distances are unique, so the result does not depend
on which phase ran.
"""

from __future__ import annotations

import numpy as np

from .graphs import INF_SENTINEL


# the strip loop builds each pivot's candidates one strip of rows, or one
# chunk of a stack's small matrices, at a time, in a buffer of this many
# bytes (256 KiB) that stays in cache; the other passes over the input,
# and the product, take pieces of this many cells
_FW_STRIP_BYTES = 1 << 18
_FW_STRIP_CELLS = 1 << 16

# the sparse pivot phase runs on inputs of at least this dimension, and
# hands its remaining pivots to the strip loop once the cheapest covers the
# switch share of the n x n cells; the strip loop streams 2-byte cells on
# most inputs, while the sparse phase's gather and scatter cost the same
# per cell at either width, so the switch comes early
_SPARSE_MIN_DIM = 512
_SPARSE_SWITCH = 0.05

# the sentinel of the 16-bit kernels: a candidate is at most 2 * (2^15 - 1),
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
    """``d`` is one square matrix or a ``(k, s, s)`` stack of them, with
    entries in range and a zero diagonal in every matrix."""
    if d.ndim not in (2, 3) or d.shape[-1] != d.shape[-2]:
        raise BlockShapeError("distance matrix must be square")
    _check_range(d)
    if np.any(np.diagonal(d, axis1=-2, axis2=-1) != 0):
        raise BlockShapeError("diagonal must be zero before closure")


def floyd_warshall_dense(d: np.ndarray, inplace: bool = False) -> np.ndarray:
    """Exact all-pairs closure of a dense non-negative distance matrix, or
    of every matrix of a ``(k, s, s)`` stack.

    The one closure kernel: the level closes and the top closure both call
    it.  Entries of ``d`` must lie in ``[0, INF_SENTINEL]``.  The result is
    ``uint32``, of ``d``'s shape, with ``INF_SENTINEL`` for unreachable
    pairs.  By default it is a new array and ``d`` is left as it was.  With
    ``inplace=True``, ``d`` must be ``uint32``: the closure is written into
    it and ``d`` itself is returned, so a caller that drops its input holds
    no second full-width copy.  The matrices of a stack are closed
    independently, as the matrix tile closes a level's components side by
    side.

    The closure computes in 16 bits when the result provably fits, decided
    once for the whole input.  Let ``w`` be the largest finite entry of
    ``d`` over all its matrices.  If ``w < S`` (``S`` =
    ``_NARROW_SENTINEL``), ``d`` is clamped to ``S`` into ``uint16`` and
    closed there, which returns ``min(D, S)`` for the true closure ``D``.
    A pair whose true distance is finite and at least ``S`` has a vertex on
    its shortest path whose exact distance lies in ``[S - w, S)``, as each
    arc adds at most ``w``.  So when the largest narrow entry below ``S``
    plus ``w`` is below ``S``, every entry at ``S`` is unreachable, and the
    narrow result is widened to ``uint32`` with ``S`` written as
    ``INF_SENTINEL``.  Otherwise, and whenever ``w >= S``, the whole input
    closes in ``uint32``, untouched.  See :func:`_close` for the two phases
    both widths run.
    """
    d = np.asarray(d)
    _check_square_nonneg(d)
    if inplace and d.dtype != np.uint32:
        raise BlockShapeError("an in-place closure needs a uint32 matrix")
    s = d.shape[-1]
    w, narrow = _narrow(d)
    if w < _NARROW_SENTINEL:
        closed = _stack(narrow)
        pieces = _pieces(closed.shape, _FW_STRIP_CELLS)
        _close(closed, _NARROW_SENTINEL)
        # a shortest path has at most s - 1 arcs, so no exact entry exceeds
        # (s - 1) * w, and while s * w < S the fit needs no scan
        top = (s - 1) * w
        if top + w >= _NARROW_SENTINEL:
            top = 0
            for ix in pieces:
                p = closed[ix]
                top = max(top, int(p.max(where=p < _NARROW_SENTINEL, initial=0)))
        if top + w < _NARROW_SENTINEL:
            out = d if inplace else np.empty(d.shape, dtype=np.uint32)
            wide = _stack(out)
            for ix in pieces:
                p, o = closed[ix], wide[ix]
                np.copyto(o, p)
                np.putmask(o, p == _NARROW_SENTINEL, INF_SENTINEL)
            return out
        del closed
    del narrow  # before the full-width copy, so the two never coexist
    out = d if inplace else np.array(d, dtype=np.uint32)
    _close(_stack(out), INF_SENTINEL)
    return out


def _stack(d: np.ndarray) -> np.ndarray:
    """``d`` as a ``(k, rows, cols)`` stack: itself, or a one-matrix view."""
    return d if d.ndim == 3 else d[None]


def _strip_rows(n: int, cells: int) -> int:
    """Rows per strip of about ``cells`` cells of an n-column matrix."""
    return max(1, cells // max(n, 1))


def _pieces(shape: tuple, cells: int) -> list:
    """Indices that cut a ``(k, rows, cols)`` stack into pieces of about
    ``cells`` cells: runs of whole matrices when one fits, and otherwise
    row strips of one matrix at a time."""
    k, r, c = shape
    per = cells // max(r * c, 1)
    if per:
        return [slice(m0, m0 + per) for m0 in range(0, k, per)]
    rows = _strip_rows(c, cells)
    return [(m, slice(r0, r0 + rows)) for m in range(k) for r0 in range(0, r, rows)]


def _narrow(d: np.ndarray) -> tuple:
    """``(w, min(d, S) as uint16)`` in one pass over pieces of ``d``, a
    matrix or a stack, where ``w`` is the largest entry of ``d`` below
    ``INF_SENTINEL`` (0 if none)."""
    narrow = np.empty(d.shape, dtype=np.uint16)
    src, dst = _stack(d), _stack(narrow)
    w = 0
    for ix in _pieces(src.shape, _FW_STRIP_CELLS):
        p = src[ix]
        w = max(w, int(p.max(where=p < INF_SENTINEL, initial=0)))
        np.minimum(p, _NARROW_SENTINEL, out=dst[ix], casting="unsafe")
    return w, narrow


def _close(out: np.ndarray, sentinel: int) -> None:
    """Close every matrix of the ``(k, s, s)`` stack ``out`` in place, in
    its own unsigned dtype, where ``sentinel`` means unreachable and no sum
    of two entries wraps.

    Pivot ``p`` can improve ``out[m, i, j]`` only where ``out[m, i, p]``
    and ``out[m, p, j]`` are both finite: any other candidate is at least
    the sentinel, and every incumbent is at most the sentinel, so it never
    strictly improves.  Floyd-Warshall is exact in any pivot order.  When a
    matrix fits the ``_FW_STRIP_BYTES`` candidate buffer, the stack closes
    in chunks of as many matrices as fit: each pivot is one add and one
    minimum over the whole chunk, which stays in cache across all ``s``
    pivots.  A larger matrix closes alone; from ``_SPARSE_MIN_DIM``
    vertices it first runs a sparse phase (see :func:`_sparse_pivots`):
    fewest-fill pivots first, each updating only its finite rows and
    columns.  Then the strip loop min-updates every row for each pivot
    left, strip by strip through one reused candidate buffer.  Strips
    change no value: row and column ``p`` are fixed points of pivot ``p``.
    """
    k, s = out.shape[0], out.shape[-1]
    per = _FW_STRIP_BYTES // max(s * s * out.itemsize, 1)
    if per:
        cand = np.empty((min(per, k), s, s), dtype=out.dtype)
        for m0 in range(0, k, per):
            chunk = out[m0 : m0 + per]
            c = cand[: chunk.shape[0]]
            for p in range(s):
                np.add(chunk[:, :, p, None], chunk[:, None, p, :], out=c)
                np.minimum(chunk, c, out=chunk)
        return
    rows = _strip_rows(s, _FW_STRIP_BYTES // out.itemsize)
    cand = np.empty((min(rows, s), s), dtype=out.dtype)
    for m in out:
        pivots = _sparse_pivots(m, sentinel) if s >= _SPARSE_MIN_DIM else range(s)
        for p in pivots:
            pivot_row = m[None, p, :]
            for r0 in range(0, s, rows):
                strip = m[r0 : r0 + rows]
                c = cand[: strip.shape[0]]
                np.add(strip[:, p, None], pivot_row, out=c)
                np.minimum(strip, c, out=strip)


def _sparse_pivots(out: np.ndarray, sentinel: int) -> np.ndarray:
    """Run the sparse pivot phase on the square matrix ``out``, whose
    entries saturate at ``sentinel``, in place and return the pivots left
    for the strip loop, in id order.

    Each step pivots the unpivoted vertex with the fewest finite rows times
    finite columns, the lowest id on a tie, and min-updates only that
    ``np.ix_`` block, in row strips of ``_FW_STRIP_CELLS``.  The counts
    follow the entries the updates make finite.  Once the cheapest pivot
    covers ``_SPARSE_SWITCH`` * n^2 cells, a twentieth of the matrix, the
    rest go to the strip loop, which does not gather and scatter; a dense
    input pivots nothing here.
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


def min_plus_product(a, b, out=None, rows=None) -> np.ndarray:
    """Tropical matrix product: ``(a (x) b)[i, j] = min_k a[i, k] + b[k, j]``.

    The one product kernel.  Entries of ``a`` and ``b`` must lie in
    ``[0, INF_SENTINEL]``.  Without ``out`` the result is a new ``uint32``
    matrix that starts at the sentinel, so it saturates there.  With
    ``out``, a ``uint32`` matrix, the product is min-accumulated into it
    in place and ``out`` is returned: row ``i`` of the product updates
    ``out[i]``, or ``out[rows[i]]`` when ``rows``, distinct row ids, is
    given, so a caller can correct chosen rows of a large matrix without
    gathering them whole.  ``out`` is not scanned, and an entry changes
    only when a candidate is strictly smaller.

    The product computes in 16 bits when every finite candidate fits: let
    ``wa`` and ``wb`` be the largest finite entries of ``a`` and ``b``.
    If ``wa + wb < S`` (``S`` = ``_NARROW_SENTINEL``), both operands are
    clamped to ``S`` in ``uint16``.  Every finite candidate is then its
    true sum, below ``S``; a candidate with a sentinel term is at least
    ``S`` and is never written.  Otherwise the product runs in ``uint32``,
    where a candidate is at most 2^32 - 2 and never wraps.  See
    :func:`_accumulate` for the strip loop both widths run.
    """
    a = _as_distances(a)
    b = _as_distances(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise BlockShapeError("inner dimensions differ")
    if out is None:
        if rows is not None:
            raise BlockShapeError("row ids need an out= matrix to update")
        out = np.full((a.shape[0], b.shape[1]), INF_SENTINEL, dtype=np.uint32)
    elif (
        not isinstance(out, np.ndarray)
        or out.dtype != np.uint32
        or out.ndim != 2
        or out.shape[1] != b.shape[1]
        or (rows is None and out.shape[0] != a.shape[0])
        or (rows is not None and len(rows) != a.shape[0])
    ):
        raise BlockShapeError("out= must be a uint32 matrix of the product shape")
    (wa, na), (wb, nb) = _narrow(a), _narrow(b)
    if wa + wb < _NARROW_SENTINEL:
        _accumulate(na, nb, out, rows, _NARROW_SENTINEL)
    else:
        del na, nb
        _accumulate(a, b, out, rows, INF_SENTINEL)
    return out


def _accumulate(a, b, out, rows, sentinel: int) -> None:
    """Min-accumulate ``a (x) b`` into ``out`` (or its rows ``rows``) in
    place, where ``a`` and ``b`` share one unsigned dtype in which no sum of
    two entries wraps, and no candidate at or above ``sentinel`` is written.

    Each strip of ``_FW_STRIP_CELLS`` product cells takes its best
    candidate over k in ``a``'s dtype, through two reused buffers, then
    gathers its rows of ``out``, takes the minimum with the best, only
    where the best is below the sentinel if any is not, and scatters the
    rows back, so the gather, the k loop and the scatter stay in cache.
    """
    m, inner = a.shape
    n = b.shape[1]
    if m == 0 or inner == 0 or n == 0:
        return
    step = _strip_rows(n, _FW_STRIP_CELLS)
    best = np.empty((min(step, m), n), dtype=a.dtype)
    cand = np.empty_like(best)
    for r0 in range(0, m, step):
        ak = a[r0 : r0 + step]
        bs, c = best[: ak.shape[0]], cand[: ak.shape[0]]
        np.add(ak[:, 0, None], b[None, 0], out=bs)
        for k in range(1, inner):
            np.add(ak[:, k, None], b[None, k], out=c)
            np.minimum(bs, c, out=bs)
        ids = slice(r0, r0 + step) if rows is None else rows[r0 : r0 + step]
        strip = out[ids]
        if bs.max() < sentinel:
            np.minimum(strip, bs, out=strip)
        else:
            np.minimum(strip, bs, out=strip, where=bs < sentinel)
        if rows is not None:
            out[ids] = strip
