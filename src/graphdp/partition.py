"""Graph partitioning and the multilevel boundary hierarchy.

The hierarchy splits a graph into tile-sized components and extracts the
vertices with cross-component edges.  Those vertices span the boundary
graph, the next level's graph: cross edges survive verbatim, and each
component contributes virtual edges among its own boundary vertices
(weighted, in the exact engine, by closed intra-component distances).
Recursing on the boundary graph yields levels until it fits a tile or
stops shrinking.

Hierarchy construction here is purely structural: it reads arcs, never
weights, and tracks virtual connectivity as "groups" (a component's
boundary set is pairwise potentially connected) without computing any
shortest paths.  A level keeps only its partition and boundary set.
Structural boundary sets therefore over-approximate the exact engine's
boundary graphs (no reachability filtering), which is sound: extra
boundary vertices add work, never wrong distances.  The shortest-path
engine weighs each boundary graph by slicing it out of the level's dense
matrix once the components are closed (:mod:`graphdp.apsp`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graphs import GraphError, WeightedGraph

DEFAULT_IMBALANCE = 0.1
DEFAULT_REFINE_PASSES = 2

# groups up to this size materialize as full cliques in structural boundary
# graphs; larger groups use bidirectional rings (connectivity surrogate)
_CLIQUE_CAP = 64


class PartitionError(GraphError):
    """Bad partition request (k out of range, malformed assignment)."""


class HierarchyError(GraphError):
    """Bad hierarchy request (a tile too small to split into)."""


@dataclass
class Partition:
    """Assignment of ``n`` vertices to ``k`` components."""

    n: int
    k: int
    assign: np.ndarray

    def __post_init__(self):
        self.assign = np.asarray(self.assign, dtype=np.int64)
        if self.assign.shape != (self.n,):
            raise PartitionError("assignment length must equal n")
        if self.n and (self.assign.min() < 0 or self.assign.max() >= self.k):
            raise PartitionError("component id out of range")

    def component(self, c: int) -> np.ndarray:
        return np.nonzero(self.assign == c)[0]

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assign, minlength=self.k)


@dataclass
class BoundarySet:
    """Per-component sorted boundary vertex lists plus their sorted union."""

    per_component: dict
    union: np.ndarray

    def of(self, c: int) -> np.ndarray:
        return self.per_component.get(c, np.zeros(0, dtype=np.int64))


def _undirected_csr(g: WeightedGraph):
    """Symmetrised adjacency: ``ptr`` (int64, ``n + 1`` entries) and ``adj``.

    Vertex ``v``'s neighbours are ``adj[ptr[v]:ptr[v + 1]]``: the heads of
    its out-arcs, then the tails of its in-arcs, each in arc order.  ``adj``
    holds int32 indices when ``n`` fits, which halves the largest buffers.
    """
    m = g.src.size
    idx = np.int32 if g.n <= np.iinfo(np.int32).max else np.int64
    ends = np.empty(2 * m, dtype=idx)
    ends[:m] = g.src
    ends[m:] = g.dst
    order = np.argsort(ends, kind="stable")
    # the same buffer, refilled with the other endpoint of each arc
    ends[:m] = g.dst
    ends[m:] = g.src
    adj = ends[order]
    del ends, order
    ptr = np.zeros(g.n + 1, dtype=np.int64)
    deg = np.bincount(g.src, minlength=g.n) + np.bincount(g.dst, minlength=g.n)
    np.cumsum(deg, out=ptr[1:])
    return ptr, adj


def _size_cap(n: int, k: int, imbalance: float) -> int:
    base = math.ceil(n / k)
    return max(base, int(base * (1.0 + imbalance)))


def kway_partition(
    g: WeightedGraph,
    k: int,
    seed: int = 0,
    imbalance: float = DEFAULT_IMBALANCE,
) -> Partition:
    """Balanced k-way partition by BFS region growing plus move refinement.

    The first region grows breadth-first from a minimum-degree vertex (a
    peripheral start; the seeded shuffle breaks ties), and each later region
    seeds from the previous regions' frontier spill, so regions stay
    adjacent and a path graph tiles into contiguous runs.  Growth stops at
    a balanced target; leftovers join the smallest adjacent region.  Up to
    ``DEFAULT_REFINE_PASSES`` refinement passes move boundary vertices when
    that strictly reduces the number of cut edges without breaking the
    ``ceil(n/k)*(1+imbalance)`` size cap.  Deterministic for a fixed seed.

    A region queues each vertex at most once: the vertex is stamped with
    the region id when it enters the queue.  This gives the assignment that
    a queue taking every unassigned neighbour, duplicates included, would
    give.  The queue is FIFO and only the growing region assigns, so a
    vertex is assigned when its first entry is popped and every later entry
    would be skipped: assignments follow first-discovery order either way.
    The spill keeps the same first entries in the same order, and a later
    duplicate could never become a seed, because the first entry is
    reached earlier and either seeds the vertex or finds it assigned.  The
    stamp is the region id, not a flag, so a vertex spilled by one region
    can still be queued by the next.
    """
    n = g.n
    if not 1 <= k <= max(n, 1):
        raise PartitionError(f"k={k} out of range [1, {n}]")
    if k == 1:
        return Partition(n, 1, np.zeros(n, dtype=np.int64))
    if k == n:
        return Partition(n, k, np.arange(n, dtype=np.int64))

    # plain lists in the loops: numpy scalar indexing costs several times
    # a list's; neighbour slices become lists only when a vertex is visited
    ptr_np, adj = _undirected_csr(g)
    ptr = ptr_np.tolist()
    rng = np.random.default_rng(seed)
    assign = [-1] * n
    sizes = [0] * k
    base, rem = divmod(n, k)
    targets = [base + 1] * rem + [base] * (k - rem)
    cap = _size_cap(n, k, imbalance)

    perm = rng.permutation(n)
    rank = np.empty(n, dtype=np.int64)
    rank[perm] = np.arange(n)
    # restart order: degree first, shuffled rank second (keys are unique)
    restarts = np.argsort(np.diff(ptr_np) * np.int64(n) + rank).tolist()
    next_restart = 0
    # the region that last queued each vertex, k once it is assigned: during
    # growth, "unassigned and not yet queued by region c" is queued[u] < c
    queued = [-1] * n
    spill: deque = deque()
    for c in range(k):
        seed_v = -1
        while spill:
            cand = spill.popleft()
            if assign[cand] < 0:
                seed_v = cand
                break
        if seed_v < 0:
            while next_restart < n and assign[restarts[next_restart]] >= 0:
                next_restart += 1
            if next_restart == n:
                break
            seed_v = restarts[next_restart]
        queued[seed_v] = c
        dq = deque([seed_v])
        size, target = 0, targets[c]
        while dq and size < target:
            v = dq.popleft()
            assign[v] = c
            queued[v] = k
            size += 1
            for u in adj[ptr[v] : ptr[v + 1]].tolist():
                if queued[u] < c:
                    queued[u] = c
                    dq.append(u)
        sizes[c] = size
        spill.extend(dq)

    # attach leftovers: prefer the smallest adjacent region with room,
    # fall back to the globally smallest region with room
    pending = deque(v for v in range(n) if assign[v] < 0)
    stalled = 0
    while pending:
        v = pending.popleft()
        best = -1
        for u in adj[ptr[v] : ptr[v + 1]].tolist():
            c = assign[u]
            if c >= 0 and sizes[c] < cap and (best < 0 or sizes[c] < sizes[best]):
                best = c
        if best < 0 and stalled >= len(pending) + 1:
            best = min((s, c) for c, s in enumerate(sizes) if s < cap)[1]
        if best < 0:
            pending.append(v)
            stalled += 1
            continue
        assign[v] = best
        sizes[best] += 1
        stalled = 0

    for _ in range(DEFAULT_REFINE_PASSES):
        moved = False
        assign_np = np.array(assign, dtype=np.int64)
        cross = assign_np[g.src] != assign_np[g.dst]
        border = np.unique(np.concatenate([g.src[cross], g.dst[cross]]))
        for v in border.tolist():
            c = assign[v]
            if sizes[c] <= 1:
                continue
            counts: dict[int, int] = {}
            for u in adj[ptr[v] : ptr[v + 1]].tolist():
                cu = assign[u]
                counts[cu] = counts.get(cu, 0) + 1
            own = counts.get(c, 0)
            best_c, best_gain = -1, 0
            for cc in sorted(counts):
                if cc == c or sizes[cc] + 1 > cap:
                    continue
                gain = counts[cc] - own
                if gain > best_gain:
                    best_c, best_gain = cc, gain
            if best_c >= 0:
                assign[v] = best_c
                sizes[c] -= 1
                sizes[best_c] += 1
                moved = True
        if not moved:
            break

    return Partition(n, k, np.array(assign, dtype=np.int64))


def _boundary_set(assign: np.ndarray, union: np.ndarray) -> BoundarySet:
    """Split the sorted boundary vertices ``union`` by component."""
    per = {}
    for c in np.unique(assign[union]) if union.size else []:
        per[int(c)] = union[assign[union] == c]
    return BoundarySet(per, union)


def find_boundary(g: WeightedGraph, p: Partition) -> BoundarySet:
    """Vertices incident to at least one cross-component edge, per component."""
    cross = p.assign[g.src] != p.assign[g.dst]
    verts = np.unique(np.concatenate([g.src[cross], g.dst[cross]]))
    return _boundary_set(p.assign, verts)


# ---------------------------------------------------------------------------
# Multilevel hierarchy
# ---------------------------------------------------------------------------


@dataclass
class HierarchyLevel:
    """One level: a partition of this level's graph and its boundary.

    The next level's graph is this level's boundary graph: its vertex ``i``
    is this level's vertex ``boundaries.union[i]`` (sorted ascending), so
    the engine takes its matrix as the closed level matrix's
    ``[union, union]`` slice.
    """

    partition: Partition
    boundaries: BoundarySet


@dataclass
class PartitionHierarchy:
    levels: list
    max_tile: int
    truncated: bool = False

    @property
    def depth(self) -> int:
        return len(self.levels)

    def stats(self) -> dict:
        out = []
        for lv in self.levels:
            sizes = lv.partition.sizes()
            out.append(
                {
                    "n": lv.partition.n,
                    "k": lv.partition.k,
                    "max_component": int(sizes.max()) if sizes.size else 0,
                    "boundary": int(lv.boundaries.union.size),
                }
            )
        return {"levels": out, "truncated": self.truncated}


def default_branching(max_tile: int):
    """Default component count rule: twice the minimum tile covering."""

    def k_fn(n: int) -> int:
        return max(1, math.ceil(n / max_tile) * 2)

    return k_fn


def _min_feasible_k(n: int, max_tile: int, imbalance: float) -> int:
    k = max(1, math.ceil(n / max_tile))
    while _size_cap(n, k, imbalance) > max_tile and k < n:
        k += 1
    return k


def _structural_graph(n, src, dst, groups) -> WeightedGraph:
    """Connectivity surrogate: the arcs plus clique/ring edges per group,
    without parallel arcs and sorted by ``(src, dst)``.

    The partitioner reads no weights, so every arc weighs 0 (which keeps an
    input graph's zero-weight self-loops valid).
    """
    srcs = [src]
    dsts = [dst]
    for grp in groups:
        m = grp.size
        if m <= _CLIQUE_CAP:
            ii, jj = np.nonzero(~np.eye(m, dtype=bool))
            srcs.append(grp[ii])
            dsts.append(grp[jj])
        else:
            nxt = np.roll(grp, -1)
            srcs.extend([grp, nxt])
            dsts.extend([nxt, grp])
    src, dst = np.concatenate(srcs), np.concatenate(dsts)
    key = src * n + dst
    if not np.all(key[1:] > key[:-1]):
        src, dst = np.divmod(np.unique(key), n)
    return WeightedGraph(n, src, dst, np.zeros(src.size, dtype=np.int64))


def build_hierarchy(
    g: WeightedGraph,
    max_tile: int,
    k_fn=None,
    seed: int = 0,
    imbalance: float = DEFAULT_IMBALANCE,
) -> PartitionHierarchy:
    """Build the level structure for recursive tile-sized closure.

    Levels are ordered base to top.  Recursion continues while the boundary
    graph both exceeds ``max_tile`` and strictly shrinks; when shrinking
    stalls, the component count is halved once as a fallback, and if the
    boundary still does not shrink the hierarchy stops there (``truncated``
    set, the oversized top boundary graph is closed exactly in software by
    the engine).  Every component at every level fits ``max_tile``.  Only
    the arcs of ``g`` are read, never their weights.
    """
    if max_tile < 2:
        raise HierarchyError("max_tile must be at least 2")
    if k_fn is None:
        k_fn = default_branching(max_tile)

    n = g.n
    if n <= max_tile:
        part = Partition(n, 1, np.zeros(n, dtype=np.int64))
        bset = BoundarySet({}, np.zeros(0, dtype=np.int64))
        return PartitionHierarchy([HierarchyLevel(part, bset)], max_tile)

    levels: list[HierarchyLevel] = []
    truncated = False
    # current level's graph, as arcs + groups of pairwise virtual connectivity
    src, dst = g.src, g.dst
    groups: list[np.ndarray] = []
    level = 0
    while True:
        struct = _structural_graph(n, src, dst, groups)
        k_lo = _min_feasible_k(n, max_tile, imbalance)
        k = min(n, max(k_fn(n), k_lo))
        # when every vertex is boundary, fall back once to fewer, larger
        # components, which cut fewer edges
        for k in (k, max(k_lo, k // 2)):
            part = kway_partition(struct, k, seed=seed + level, imbalance=imbalance)
            assign = part.assign
            cut = assign[src] != assign[dst]
            # a group spanning >= 2 components gives every member a
            # potential virtual edge leaving its own component
            split = [grp for grp in groups if assign[grp].min() != assign[grp].max()]
            mask = np.zeros(n, dtype=bool)
            mask[src[cut]] = True
            mask[dst[cut]] = True
            for grp in split:
                mask[grp] = True
            if mask.sum() < n or k <= k_lo:
                break

        union = np.nonzero(mask)[0].astype(np.int64)
        bset = _boundary_set(part.assign, union)
        levels.append(HierarchyLevel(part, bset))

        if union.size <= max_tile:
            break
        if union.size >= n:
            truncated = True
            break
        lookup = np.full(n, -1, dtype=np.int64)
        lookup[union] = np.arange(union.size)
        src, dst = lookup[src[cut]], lookup[dst[cut]]
        # a split group keeps live virtual pairs between components (they
        # are real edges of the next boundary graph), so it survives as a
        # group; every member is boundary, hence a next-level vertex
        groups = [lookup[b] for b in bset.per_component.values() if b.size >= 2]
        groups += [lookup[grp] for grp in split]
        n = union.size
        level += 1

    return PartitionHierarchy(levels, max_tile, truncated)
