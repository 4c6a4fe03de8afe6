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

Both kernels compute in 16 bits when that is provably exact, clamping
their operands to the narrow sentinel 2^15-1 in ``uint16``, where the same
argument shows no sum wraps.  The closure closes the clamped matrix and
widens the result back to ``uint32`` with the 2^31-1 sentinel when the
result fits (see :func:`floyd_warshall_dense`); by default it returns a
new matrix, and ``inplace=True`` writes the result into the caller's
``uint32`` input.  The product runs narrow when the largest finite entries
of its operands sum below 2^15-1, and never writes a narrow candidate
that reaches the narrow sentinel (see :func:`min_plus_product`).  It
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
from the start, the strip loop pivots every row.  The closed distances are
unique, so the result does not depend on which phase ran.
"""

from __future__ import annotations

import numpy as np

from .graphs import INF_SENTINEL


# the strip loop builds each pivot's candidates one strip of rows at a
# time, in a buffer of this many bytes (256 KiB) that stays in cache; the
# other passes over the matrix, and the product, take strips of this many
# cells
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
    w, narrow = _narrow(d)
    if w < _NARROW_SENTINEL:
        _close(narrow, _NARROW_SENTINEL)
        # a shortest path has at most n - 1 arcs, so no exact entry exceeds
        # (n - 1) * w, and while n * w < S the fit needs no scan
        top = (n - 1) * w
        if top + w >= _NARROW_SENTINEL:
            top = 0
            for r0 in range(0, n, rows):
                s = narrow[r0 : r0 + rows]
                top = max(top, int(s.max(where=s < _NARROW_SENTINEL, initial=0)))
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


def _narrow(d: np.ndarray) -> tuple:
    """``(w, min(d, S) as uint16)`` in one strip pass, where ``w`` is the
    largest entry of ``d`` below ``INF_SENTINEL`` (0 if none)."""
    narrow = np.empty(d.shape, dtype=np.uint16)
    rows = _strip_rows(d.shape[1], _FW_STRIP_CELLS)
    w = 0
    for r0 in range(0, d.shape[0], rows):
        s = d[r0 : r0 + rows]
        w = max(w, int(s.max(where=s < INF_SENTINEL, initial=0)))
        np.minimum(s, _NARROW_SENTINEL, out=narrow[r0 : r0 + rows], casting="unsafe")
    return w, narrow


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
