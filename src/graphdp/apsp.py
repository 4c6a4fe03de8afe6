"""Exact all-pairs shortest paths by recursive partitioned closure.

The graph is split into tile-sized components.  An upward pass closes each
component with Floyd-Warshall and condenses the boundary vertices into a
boundary graph, recursing until the boundary graph fits a tile (or stops
shrinking, in which case the oversized top is closed directly).  A downward
pass then distributes the exact top-level closure back out: boundary-pair
distances are injected into each component block, the block is re-closed
(now globally exact, since any path leaves a component through its first
exit vertex and re-enters at its last), and cross-component pairs are
filled by a min-plus merge through the boundary matrix.

Results are exact on every pair: the produced distances equal a direct
dense Floyd-Warshall closure of the whole graph, independent of partition
quality, partition seed, or worker thread count.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .graphs import GraphError, WeightedGraph, distance_init
from .minplus import (
    INF_SENTINEL,
    DistanceBlock,
    floyd_warshall_dense,
    inject,
    min_plus_merge,
)
from .partition import PartitionHierarchy, build_boundary_graph, build_hierarchy

DENSE_LIMIT_DEFAULT = 4096
DIST_MAGIC = b"GDPD"
TSV_LIMIT = 512


class ApspError(GraphError):
    """Engine misuse (bad mode, export constraints, stale result)."""


@dataclass
class FwEvent:
    level: int
    dim: int
    kind: str  # "close" | "reclose" | "top"


@dataclass
class MergeEvent:
    level: int
    rows: int
    cols: int
    left_boundary: int
    right_boundary: int


@dataclass
class ExecutionTrace:
    """The matrix-tile events of one run, as :func:`schedule` lists them,
    for planners and cost models."""

    depth: int = 0
    mode: str = ""
    oversized_top: bool = False
    fw_events: list = field(default_factory=list)
    merge_events: list = field(default_factory=list)
    inject_pairs: int = 0

    def counts(self) -> dict:
        kinds: dict[str, int] = {}
        for ev in self.fw_events:
            kinds[ev.kind] = kinds.get(ev.kind, 0) + 1
        return {
            "depth": self.depth,
            "mode": self.mode,
            "oversized_top": self.oversized_top,
            "fw": kinds,
            "merges": len(self.merge_events),
            "inject_pairs": self.inject_pairs,
        }


def choose_mode(
    n: int, mode: str = "auto", dense_limit: int = DENSE_LIMIT_DEFAULT
) -> str:
    """The materialization of a run over ``n`` vertices: ``"auto"`` is dense
    up to ``dense_limit`` vertices and lazy beyond."""
    if mode not in ("auto", "dense", "lazy"):
        raise ApspError(f"unknown mode {mode!r}")
    if mode == "auto":
        return "dense" if n <= dense_limit else "lazy"
    return mode


def schedule(hierarchy: PartitionHierarchy, mode: str) -> ExecutionTrace:
    """The matrix-tile events of a run over ``hierarchy``, in engine order.

    They follow from component sizes and boundary sets alone.  Upward,
    every component of every level closes, then the last level's boundary
    graph closes as the top, unless it is empty.  Downward, from the top
    level to the base, each component with a boundary gets its boundary
    pairs injected and re-closes, in component order, and every ordered
    pair of such components merges; the base level merges only in dense
    mode.  A level without boundary vertices does neither, so an empty top
    needs no special case.
    """
    levels = hierarchy.levels
    depth = hierarchy.depth
    top = int(levels[-1].boundary_ids.size)
    trace = ExecutionTrace(
        depth=depth, mode=mode, oversized_top=top > hierarchy.max_tile
    )
    for li, lv in enumerate(levels):
        for d in lv.partition.sizes().tolist():
            trace.fw_events.append(FwEvent(li, d, "close"))
    if top:
        trace.fw_events.append(FwEvent(depth, top, "top"))
    for li in range(depth - 1, -1, -1):
        lv = levels[li]
        sizes = lv.partition.sizes().tolist()
        per = lv.boundaries.per_component
        bsizes = {c: int(per[c].size) for c in sorted(per)}
        for c, b in bsizes.items():
            trace.fw_events.append(FwEvent(li, sizes[c], "reclose"))
            trace.inject_pairs += b * b
        if li or mode == "dense":
            for c1, b1 in bsizes.items():
                for c2, b2 in bsizes.items():
                    if c1 != c2 and b1 and b2:
                        trace.merge_events.append(
                            MergeEvent(li, sizes[c1], sizes[c2], b1, b2)
                        )
    return trace


def _pmap(fn, items, threads: int) -> list:
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _close_components(g: WeightedGraph, part, threads: int) -> dict:
    """FW-close every component's induced subgraph."""
    assign = part.assign
    comp_src = assign[g.src]
    comp_dst = assign[g.dst]

    def close_one(c: int) -> tuple:
        ids = part.component(c)
        d = np.full((ids.size, ids.size), INF_SENTINEL, dtype=np.uint32)
        np.fill_diagonal(d, 0)
        sel = (comp_src == c) & (comp_dst == c)
        if sel.any():
            ls = np.searchsorted(ids, g.src[sel])
            ld = np.searchsorted(ids, g.dst[sel])
            np.minimum.at(d, (ls, ld), g.w[sel])
        return c, DistanceBlock(floyd_warshall_dense(d), ids)

    return dict(_pmap(close_one, range(part.k), threads))


@dataclass
class ApspResult:
    """Closed distances plus the artifacts needed to answer queries.

    ``dist`` is the full matrix in dense mode and ``None`` in lazy mode;
    lazy mode answers same-component pairs from the exact component blocks
    and cross-component pairs through the level-0 boundary closure.  All
    stored distances are ``uint32``; only the lazy three-term sum widens to
    ``int64``.
    """

    n: int
    mode: str
    hierarchy: PartitionHierarchy
    trace: ExecutionTrace
    dist: np.ndarray | None
    blocks: list
    xb: list

    def query(self, u: int, v: int) -> int:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ApspError(f"vertex pair ({u}, {v}) out of range")
        if self.dist is not None:
            return int(self.dist[u, v])
        lv0 = self.hierarchy.levels[0]
        c1 = int(lv0.partition.assign[u])
        c2 = int(lv0.partition.assign[v])
        blk1 = self.blocks[0][c1]
        if c1 == c2:
            iu = int(np.searchsorted(blk1.ids, u))
            iv = int(np.searchsorted(blk1.ids, v))
            return int(blk1.data[iu, iv])
        blk2 = self.blocks[0][c2]
        b1 = lv0.boundaries.of(c1)
        b2 = lv0.boundaries.of(c2)
        if b1.size == 0 or b2.size == 0 or self.xb[0] is None:
            return INF_SENTINEL
        xb0 = self.xb[0]
        row = blk1.data[np.searchsorted(blk1.ids, u), blk1.local(b1)]
        col = blk2.data[blk2.local(b2), np.searchsorted(blk2.ids, v)]
        mid = xb0.data[np.ix_(xb0.local(b1), xb0.local(b2))]
        # three stored terms can reach 3 * INF_SENTINEL, past uint32
        best = int((row.astype(np.int64)[:, None] + mid + col[None, :]).min())
        return min(best, INF_SENTINEL)

    def to_dense(self) -> np.ndarray:
        if self.dist is None:
            raise ApspError("dense matrix not materialized in lazy mode")
        return self.dist


def _assemble_level(
    m: int, blocks: dict, bset, xb_block: DistanceBlock | None, threads
) -> np.ndarray:
    """All-pairs matrix over one level's full vertex set."""
    out = np.full((m, m), INF_SENTINEL, dtype=np.uint32)
    np.fill_diagonal(out, 0)
    for blk in blocks.values():
        out[np.ix_(blk.ids, blk.ids)] = blk.data

    if xb_block is None:
        return out
    comps = sorted(blocks)
    pairs = [
        (c1, c2)
        for c1 in comps
        for c2 in comps
        if c1 != c2 and bset.of(c1).size and bset.of(c2).size
    ]

    def merge_one(pair):
        c1, c2 = pair
        b1, b2 = bset.of(c1), bset.of(c2)
        cross = min_plus_merge(blocks[c1], xb_block, blocks[c2], b1, b2)
        return c1, c2, cross

    for c1, c2, cross in _pmap(merge_one, pairs, threads):
        out[np.ix_(blocks[c1].ids, blocks[c2].ids)] = cross
    return out


def recursive_apsp(
    g: WeightedGraph,
    max_tile: int = 1024,
    hierarchy: PartitionHierarchy | None = None,
    mode: str = "auto",
    dense_limit: int = DENSE_LIMIT_DEFAULT,
    seed: int = 0,
    threads: int = 1,
    k_fn=None,
    strict: bool = False,
) -> ApspResult:
    """Close all shortest-path distances of ``g`` recursively.

    ``mode`` selects the result materialization: ``"dense"`` builds the full
    n x n matrix, ``"lazy"`` keeps exact component blocks and the boundary
    closure and answers pairs on demand (for graphs whose full matrix is
    not worth holding), ``"auto"`` picks dense up to ``dense_limit``
    vertices.  ``threads`` parallelizes independent component closures and
    merges; results are identical for any thread count.  The result's
    ``trace`` is :func:`schedule` of the hierarchy used.
    """
    mode = choose_mode(g.n, mode, dense_limit)
    if hierarchy is None:
        hierarchy = build_hierarchy(g, max_tile, k_fn=k_fn, seed=seed, strict=strict)
    levels = hierarchy.levels
    depth = hierarchy.depth

    # upward: close components, condense boundaries, repeat
    level_blocks: list[dict] = []
    cur = g
    for lidx, lv in enumerate(levels):
        if cur.n != lv.partition.n:
            raise ApspError("hierarchy does not match graph")
        blocks = _close_components(cur, lv.partition, threads)
        level_blocks.append(blocks)
        if lv.boundary_ids.size:
            cur = build_boundary_graph(cur, lv.partition, lv.boundaries, blocks)
        else:
            cur = WeightedGraph.from_edges(0, [])

    # top closure: the last boundary graph, dense (oversized if truncated)
    if cur.n:
        top_ids = levels[-1].boundary_ids
        xb_top = DistanceBlock(floyd_warshall_dense(distance_init(cur)), top_ids)
    else:
        xb_top = None

    # downward: inject boundary closure, re-close blocks, assemble the
    # next closure one level down
    xb: list[DistanceBlock | None] = [None] * depth
    xb[depth - 1] = xb_top
    for lidx in range(depth - 1, -1, -1):
        lv = levels[lidx]
        blocks = level_blocks[lidx]
        cur_xb = xb[lidx]
        if cur_xb is not None:
            items = sorted(lv.boundaries.per_component)

            def reinject(c, _xb=cur_xb, _blocks=blocks, _lv=lv):
                b = _lv.boundaries.of(c)
                blk = _blocks[c]
                inject(_xb, b, blk)
                blk.data = floyd_warshall_dense(blk.data)
                return c

            _pmap(reinject, items, threads)
        if lidx == 0:
            break
        below = _assemble_level(lv.partition.n, blocks, lv.boundaries, cur_xb, threads)
        xb[lidx - 1] = DistanceBlock(below, levels[lidx - 1].boundary_ids)

    dist = None
    if mode == "dense":
        dist = _assemble_level(
            g.n, level_blocks[0], levels[0].boundaries, xb[0], threads
        )
    return ApspResult(
        g.n, mode, hierarchy, schedule(hierarchy, mode), dist, level_blocks, xb
    )


# ---------------------------------------------------------------------------
# Distance matrix export: little-endian binary or TSV for small matrices.
# ---------------------------------------------------------------------------


def export_distances(result: ApspResult, path: str, fmt: str = "bin") -> None:
    """Write the dense matrix; unreachable pairs stay at the sentinel.

    Binary layout: 4-byte magic, u32 n, then n*n row-major u32 values.
    TSV (capped at 512 vertices) writes ``inf`` for unreachable pairs.
    """
    dist = result.to_dense()
    if fmt == "bin":
        with open(path, "wb") as fh:
            fh.write(DIST_MAGIC)
            fh.write(struct.pack("<I", result.n))
            fh.write(dist.astype("<u4", copy=False).tobytes())
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
            (n,) = struct.unpack("<I", fh.read(4))
            data = np.frombuffer(fh.read(4 * n * n), dtype="<u4")
            if data.size != n * n:
                raise ApspError("truncated distance file")
            return data.reshape(n, n).astype(np.int64)
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            rows.append(
                [
                    INF_SENTINEL if tok == "inf" else int(tok)
                    for tok in line.split("\t")
                ]
            )
    if rows and any(len(r) != len(rows) for r in rows):
        raise ApspError("ragged distance rows")
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), len(rows))
