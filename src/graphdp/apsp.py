"""Exact all-pairs shortest paths by recursive partitioned closure.

The graph is split into tile-sized components, and every level of the
recursion is one dense ``uint32`` matrix.  Level 0 is the graph's distance
seed.  An upward pass closes every component's block of the level matrix
with Floyd-Warshall, the components of each size gathered into one stack
and closed side by side, as the device's matrix tile closes them, and
writes the blocks back (see :func:`close_one`); the ``[boundary,
boundary]`` slice of the result, which holds the cross arcs and the closed
intra-component distances, is the boundary graph and the next level's
matrix.  Recursion continues until the boundary graph fits a tile (or
stops shrinking, in which case the oversized top is closed directly).  A
downward pass then distributes the exact top-level closure back out,
level by level, in place.  Any path leaves a component through its first
exit vertex and re-enters the target's component at its last entry
vertex, so one factored min-plus correction through the boundary closure
makes every pair of a level exact (see :func:`_assemble_level`).  Level
0's matrix becomes the result.

The host runs only the close and top events of :func:`schedule`, a
level's closes in per-size stacks rather than in schedule order.  The
schedule's inject, re-close and merge events remain the device's: the
planner stages them and the cost model prices them, and the host's one
correction per level computes the same distances.  A level's merges are
one record of O(k) ints, read as arrays (:class:`ExecutionTrace`).

Recursion only pays when the graph has small separators.  A random graph
has none: nearly every vertex is boundary, and the closures and merges cost
more than one Floyd-Warshall of the whole graph.  :func:`choose_schedule`
counts the ops of the recursive schedule and, when they reach half of n^3,
returns the ``"direct"`` schedule, one closure of the whole graph, instead.
The engine and the planner each build that schedule once and carry it.

Results are exact on every pair: the produced distances equal a direct
dense Floyd-Warshall closure of the whole graph, independent of partition
quality or schedule.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .graphs import GraphError, WeightedGraph, distance_init
from .minplus import INF_SENTINEL, floyd_warshall_dense, min_plus_product
from .partition import Partition, PartitionHierarchy, build_hierarchy

DENSE_LIMIT = 4096
# recursion ran at about half the ops per second of one large closure, so
# the engine closes directly once recursion needs half of n^3 ops
DIRECT_OPS_SHARE = 0.5
DIST_MAGIC = b"GDPD"
TSV_LIMIT = 512
# the level close gathers at most this many bytes of components per stack
_STACK_BYTES = 1 << 20


class ApspError(GraphError):
    """A graph past the dense limit, or a bad export or distance file."""


@dataclass
class FwEvent:
    level: int
    dim: int
    kind: str  # "close" | "reclose" | "top"


@dataclass
class ExecutionTrace:
    """The matrix-tile events of one device run, as :func:`schedule` lists
    them, for planners and cost models.  ``merge_levels`` maps each level
    that merges, in schedule order, to the sizes and the boundary sizes of
    its components with a boundary, in component order, as two tuples of
    ints: O(k) ints for the k(k - 1) merges that :meth:`merge_passes` lists."""

    depth: int = 0
    mode: str = ""
    fw_events: list = field(default_factory=list)
    merge_levels: dict = field(default_factory=dict)
    inject_pairs: int = 0

    def merge_passes(self, level: int) -> tuple:
        """``level``'s merges, one per ordered pair ``(c1, c2)`` of its
        components, c1-major, as ``(rows, widths)``, int64 arrays of shape
        (pairs, 2): each merge's two tree passes, ``s1 * b2`` rows through
        c1's boundary (width ``b1``), then ``s1 * s2`` through c2's (``b2``)."""
        s, b = (np.array(v, dtype=np.int64) for v in self.merge_levels[level])
        c1, c2 = np.nonzero(~np.eye(s.size, dtype=bool))  # c1-major, c1 != c2
        rows = np.stack([s[c1] * b[c2], s[c1] * s[c2]], 1)
        return rows, np.stack([b[c1], b[c2]], 1)

    def counts(self) -> dict:
        kinds: dict[str, int] = {}
        for ev in self.fw_events:
            kinds[ev.kind] = kinds.get(ev.kind, 0) + 1
        return {
            "depth": self.depth,
            "mode": self.mode,
            "fw": kinds,
            "merges": sum(len(s) * (len(s) - 1) for s, _ in self.merge_levels.values()),
            "inject_pairs": self.inject_pairs,
        }


def choose_schedule(hierarchy: PartitionHierarchy) -> ExecutionTrace:
    """The schedule the engine runs and a device prices over ``hierarchy``.

    Past ``DENSE_LIMIT`` vertices it is the ``"lazy"`` one (no base-level
    merges).  Otherwise it is the ``"direct"`` one when the dense
    schedule's op count (dim^3 per closure, rows * width per merge pass)
    reaches ``DIRECT_OPS_SHARE`` * n^3, and else the dense schedule built
    to count them.  A graph of one tile stays dense: that schedule is
    already one closure.
    """
    base = hierarchy.levels[0].partition
    if base.n > DENSE_LIMIT:
        return schedule(hierarchy, "lazy")
    trace = schedule(hierarchy, "dense")
    ops = sum(ev.dim**3 for ev in trace.fw_events)
    ops += sum(int(np.vdot(*trace.merge_passes(li))) for li in trace.merge_levels)
    if base.k > 1 and ops >= DIRECT_OPS_SHARE * base.n**3:
        return schedule(hierarchy, "direct")
    return trace


def schedule(hierarchy: PartitionHierarchy, mode: str) -> ExecutionTrace:
    """The device's matrix-tile events over ``hierarchy``, in order; the
    host engine runs the close and top events in this order.

    The direct schedule is one top closure of the whole graph, with no
    levels.  The others follow from component sizes and boundary sets
    alone.  Upward, every component of every level closes, then the last
    level's boundary graph closes as the top, unless it is empty.
    Downward, from the top level to the base, each component with a
    boundary gets its boundary pairs injected and re-closes, in component
    order, and every ordered pair of such components merges (one record
    in ``merge_levels``).  The base level merges only in the dense
    schedule; the lazy schedule leaves them out.  A level without boundary
    vertices does neither, so an empty top needs no special case.
    """
    levels = hierarchy.levels
    if mode == "direct":
        n = levels[0].partition.n
        return ExecutionTrace(mode=mode, fw_events=[FwEvent(0, n, "top")])
    depth = hierarchy.depth
    top = int(levels[-1].boundaries.union.size)
    trace = ExecutionTrace(depth=depth, mode=mode)
    level_sizes = [lv.partition.sizes().tolist() for lv in levels]
    for li, sizes in enumerate(level_sizes):
        for d in sizes:
            trace.fw_events.append(FwEvent(li, d, "close"))
    if top:
        trace.fw_events.append(FwEvent(depth, top, "top"))
    for li in range(depth - 1, -1, -1):
        sizes = level_sizes[li]
        per = levels[li].boundaries.per_component
        bsizes = {c: int(per[c].size) for c in sorted(per)}
        for c, b in bsizes.items():
            trace.fw_events.append(FwEvent(li, sizes[c], "reclose"))
            trace.inject_pairs += b * b
        comps = [c for c, b in bsizes.items() if b]
        if (li or mode == "dense") and len(comps) > 1:
            trace.merge_levels[li] = (
                tuple(sizes[c] for c in comps), tuple(bsizes[c] for c in comps)
            )
    return trace


@dataclass
class ApspResult:
    """The closed ``uint32`` distance matrix and how it was computed."""

    n: int
    hierarchy: PartitionHierarchy
    trace: ExecutionTrace
    dist: np.ndarray


# the Floyd-Warshall call sites are close_one (a level's components) and
# recursive_apsp (the top closure); tracing files closure time by the
# caller's name
def close_one(d: np.ndarray, part: Partition) -> None:
    """Close one level: every component block of the level matrix ``d``,
    in place, as per-size stacks.

    The components of each size are gathered into one ``(k, s, s)`` stack
    by one fancy index, from one stable argsort of ``part.assign``, closed
    by one :func:`floyd_warshall_dense` call and scattered back.  A stack
    holds at most ``_STACK_BYTES``, or one component when that is larger,
    so the buffer stays small next to ``d``.  The blocks are disjoint, so
    the order of the closes does not matter.
    """
    order = np.argsort(part.assign, kind="stable")
    sizes = part.sizes()
    starts = np.cumsum(sizes) - sizes
    for s in np.unique(sizes[sizes > 0]).tolist():
        comps = np.flatnonzero(sizes == s)
        ids = order[starts[comps, None] + np.arange(s)]
        per = max(1, _STACK_BYTES // (s * s * d.itemsize))
        for c0 in range(0, comps.size, per):
            v = ids[c0 : c0 + per]
            block = v[:, :, None], v[:, None, :]
            d[block] = floyd_warshall_dense(d[block], inplace=True)


def _assemble_level(d: np.ndarray, lv, closure: np.ndarray) -> None:
    """Close the level matrix ``d`` exactly, in place, with one factored
    min-plus correction.

    ``d`` holds the closed component blocks and the cross arcs; ``closure``
    is the exact closure of the level's boundary graph, indexed by position
    in the boundary union.  A shortest path from ``m`` to ``n`` that leaves
    ``m``'s component leaves it at a first exit vertex ``i`` and reaches
    ``n``'s component at a last entry vertex ``j``, so

        d[m, n] = min(d[m, n], min over i in b(c(m)), j in b(c(n)) of
                               d[m, i] + closure[i, j] + d[j, n])

    It is associated in two products per component with a boundary: per
    column component ``c``, ``y[:, c] = closure[:, b(c)] (x) d[b(c), c]``
    (``y`` is |union| x n), then per row component ``d[c] = min(d[c],
    d[c, b(c)] (x) y[b(c)])``.  The row step min-accumulates into ``d`` by
    row id, so no product buffer or full row block is made.  Both steps
    run through :func:`min_plus_product`, in 16 bits when their operands'
    largest finite entries sum below 2^15 - 1 and in ``uint32`` otherwise.
    Saturation holds at either width: ``y`` starts at the sentinel, and
    every write is the minimum of a stored entry and a candidate, so no
    stored value exceeds the sentinel.  A candidate sums two stored
    entries, below 2^32, or two entries clamped to 2^15 - 1, below 2^16,
    so no sum wraps.  Columns of a component
    without a boundary stay at the sentinel in ``y``, so its cross blocks,
    which hold no arc, stay unreachable.
    """
    part, bset = lv.partition, lv.boundaries
    comps = [
        (part.component(c), b, np.searchsorted(bset.union, b))
        for c, b in bset.per_component.items()
    ]
    y = np.full((bset.union.size, d.shape[0]), INF_SENTINEL, dtype=np.uint32)
    for ids, b, pos in comps:
        y[:, ids] = min_plus_product(closure[:, pos], d[np.ix_(b, ids)])
    for ids, b, pos in comps:
        min_plus_product(d[np.ix_(ids, b)], y[pos], out=d, rows=ids)


def recursive_apsp(g: WeightedGraph, max_tile: int) -> ApspResult:
    """Close all shortest-path distances of ``g`` recursively into the
    dense n x n matrix.

    The engine builds ``g``'s partition hierarchy for ``max_tile`` and runs
    the schedule :func:`choose_schedule` returns for it; the result's
    ``trace`` is that device schedule, of whose events the host runs the
    closes and the top closure.  Each level's components close as
    per-size stacks, one kernel call per stack (see :func:`close_one`),
    and each level is then corrected in one pass through its boundary
    closure.  Graphs of more than ``DENSE_LIMIT`` vertices
    raise :class:`ApspError` before anything is partitioned.
    """
    if g.n > DENSE_LIMIT:
        raise ApspError(
            f"apsp exports a dense matrix, so the graph must have at most "
            f"{DENSE_LIMIT} vertices, not n={g.n}"
        )
    hierarchy = build_hierarchy(g, max_tile)
    levels = hierarchy.levels
    trace = choose_schedule(hierarchy)
    if trace.mode == "direct":
        dist = floyd_warshall_dense(distance_init(g), inplace=True)
        return ApspResult(g.n, hierarchy, trace, dist)

    # upward: close components in place; the boundary slice is the next level
    mats = [distance_init(g)]
    for lv in levels:
        close_one(mats[-1], lv.partition)
        u = lv.boundaries.union
        mats.append(mats[-1][np.ix_(u, u)])

    # top closure: the last boundary graph (oversized if truncated)
    closure = mats.pop()
    if closure.size:
        closure = floyd_warshall_dense(closure, inplace=True)

    # downward: each level closes exactly from the closure of the one above
    for lv in reversed(levels):
        d = mats.pop()
        if lv.boundaries.union.size:
            _assemble_level(d, lv, closure)
        closure = d
    return ApspResult(g.n, hierarchy, trace, closure)


# ---------------------------------------------------------------------------
# Distance matrix export: little-endian binary or TSV for small matrices.
# ---------------------------------------------------------------------------


def export_distances(result: ApspResult, path: str, fmt: str = "bin") -> None:
    """Write the dense matrix; unreachable pairs stay at the sentinel.

    Binary layout: 4-byte magic, u32 n, then n*n row-major u32 values.
    TSV (capped at 512 vertices) writes ``inf`` for unreachable pairs.
    """
    dist = result.dist
    if fmt == "bin":
        with open(path, "wb") as fh:
            fh.write(DIST_MAGIC)
            fh.write(struct.pack("<I", result.n))
            dist.astype("<u4", copy=False).tofile(fh)
    elif fmt == "tsv":
        if result.n > TSV_LIMIT:
            raise ApspError(f"tsv export capped at {TSV_LIMIT} vertices")
        with open(path, "w") as fh:
            for row in dist:
                fh.write(
                    "\t".join("inf" if x == INF_SENTINEL else str(x) for x in row)
                )
                fh.write("\n")
    else:
        raise ApspError(f"unknown export format {fmt!r}")


def load_distances(path: str) -> np.ndarray:
    """Read either export format back into an int64 matrix."""
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == DIST_MAGIC:
            size = fh.read(4)
            n = struct.unpack("<I", size)[0] if len(size) == 4 else 0
            # check n against the file size first: a bogus header's 4 * n^2
            # bytes may not even fit a read request
            if len(size) < 4 or os.fstat(fh.fileno()).st_size < 8 + 4 * n * n:
                raise ApspError("truncated distance file")
            body = fh.read(4 * n * n)
            return np.frombuffer(body, dtype="<u4").reshape(n, n).astype(np.int64)
    rows = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line:
                    rows.append([INF_SENTINEL if tok == "inf" else int(tok)
                                 for tok in line.split("\t")])
    except ValueError as exc:  # a non-integer entry, or bytes that are not text
        raise ApspError(f"unreadable distance entry: {exc}") from exc
    if rows and any(len(r) != len(rows) for r in rows):
        raise ApspError("ragged distance rows")
    try:
        return np.asarray(rows, dtype=np.int64).reshape(len(rows), len(rows))
    except OverflowError as exc:
        raise ApspError(f"distance entry beyond int64: {exc}") from exc
