"""Reference implementations shared by the test modules.

``dijkstra_oracle`` is all-pairs Dijkstra from scipy.sparse.csgraph, run on
the graph's arcs: it shares no kernel with graphdp's Floyd-Warshall and
min-plus code, so a test that grades the engine against it does not grade a
kernel against itself.

``kway_reference`` is the k-way partitioner as it was before its loops were
moved off numpy scalars: a BFS over numpy arrays that queues a vertex once
per discovery.  It is slow and kept only to pin the production partitioner
to the same assignments.

``disjoint_copies`` lays copies of a graph side by side, a disconnected
input whose hierarchy levels can cut no arc.
"""

import math
from collections import deque

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from graphdp.graphs import INF_SENTINEL, WeightedGraph
from graphdp.partition import (
    DEFAULT_IMBALANCE,
    DEFAULT_REFINE_PASSES,
    Partition,
    PartitionError,
)


def dijkstra_oracle(g) -> np.ndarray:
    """All-pairs shortest distances of ``g`` as int64, saturated at
    ``INF_SENTINEL``.

    Parallel arcs are collapsed to the lightest first, because building a
    sparse matrix sums duplicate entries.  Dijkstra runs in float64, which
    is exact for every sum below 2^53; unreachable pairs and distances past
    the sentinel both clamp to it.
    """
    order = np.lexsort((g.w, g.dst, g.src))
    src, dst, w = g.src[order], g.dst[order], g.w[order]
    first = np.ones(src.size, dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    mat = sp.csr_matrix(
        (w[first].astype(np.float64), (src[first], dst[first])), shape=(g.n, g.n)
    )
    dist = dijkstra(mat, directed=True)
    return np.minimum(dist, INF_SENTINEL).astype(np.int64)


def disjoint_copies(g, copies):
    off = np.repeat(np.arange(copies) * g.n, g.src.size)
    return WeightedGraph(
        g.n * copies,
        np.tile(g.src, copies) + off,
        np.tile(g.dst, copies) + off,
        np.tile(g.w, copies),
    )


def _undirected_csr_reference(g):
    us = np.concatenate([g.src, g.dst])
    ud = np.concatenate([g.dst, g.src])
    order = np.argsort(us, kind="stable")
    ptr = np.zeros(g.n + 1, dtype=np.int64)
    np.add.at(ptr, us + 1, 1)
    np.cumsum(ptr, out=ptr)
    return ptr, ud[order]


def _size_cap_reference(n, k, imbalance):
    base = math.ceil(n / k)
    return max(base, int(base * (1.0 + imbalance)))


def kway_reference(
    g,
    k,
    seed=0,
    imbalance=DEFAULT_IMBALANCE,
    refine_passes=DEFAULT_REFINE_PASSES,
):
    """The reference partitioner; ``graphdp.partition.kway_partition`` must
    return the same assignment for every input."""
    n = g.n
    if not 1 <= k <= max(n, 1):
        raise PartitionError(f"k={k} out of range [1, {n}]")
    if k == 1:
        return Partition(n, 1, np.zeros(n, dtype=np.int64))
    if k == n:
        return Partition(n, k, np.arange(n, dtype=np.int64))

    ptr, adj = _undirected_csr_reference(g)
    rng = np.random.default_rng(seed)
    assign = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(k, dtype=np.int64)
    base, rem = divmod(n, k)
    targets = np.full(k, base, dtype=np.int64)
    targets[:rem] += 1
    cap = _size_cap_reference(n, k, imbalance)

    perm = rng.permutation(n)
    rank = np.empty(n, dtype=np.int64)
    rank[perm] = np.arange(n)
    # restart key: degree first, shuffled rank second
    seed_key = np.diff(ptr) * np.int64(n) + rank
    spill: deque = deque()
    for c in range(k):
        seed_v = -1
        while spill:
            cand = spill.popleft()
            if assign[cand] < 0:
                seed_v = cand
                break
        if seed_v < 0:
            key = np.where(assign < 0, seed_key, np.iinfo(np.int64).max)
            seed_v = int(np.argmin(key))
            if assign[seed_v] >= 0:
                break
        dq = deque([seed_v])
        while dq and sizes[c] < targets[c]:
            v = dq.popleft()
            if assign[v] >= 0:
                continue
            assign[v] = c
            sizes[c] += 1
            for u in adj[ptr[v] : ptr[v + 1]]:
                if assign[u] < 0:
                    dq.append(int(u))
        spill.extend(int(v) for v in dq if assign[v] < 0)

    # attach leftovers: prefer the smallest adjacent region with room,
    # fall back to the globally smallest region with room
    pending = deque(int(v) for v in range(n) if assign[v] < 0)
    stalled = 0
    while pending:
        v = pending.popleft()
        best = -1
        for u in adj[ptr[v] : ptr[v + 1]]:
            c = assign[u]
            if c >= 0 and sizes[c] < cap and (best < 0 or sizes[c] < sizes[best]):
                best = int(c)
        if best < 0 and stalled >= len(pending) + 1:
            room = np.nonzero(sizes < cap)[0]
            best = int(room[np.argmin(sizes[room])])
        if best < 0:
            pending.append(v)
            stalled += 1
            continue
        assign[v] = best
        sizes[best] += 1
        stalled = 0

    for _ in range(max(0, refine_passes)):
        moved = False
        cross = assign[g.src] != assign[g.dst]
        border = np.unique(np.concatenate([g.src[cross], g.dst[cross]]))
        for v in border:
            v = int(v)
            c = int(assign[v])
            if sizes[c] <= 1:
                continue
            counts: dict[int, int] = {}
            for u in adj[ptr[v] : ptr[v + 1]]:
                counts[int(assign[u])] = counts.get(int(assign[u]), 0) + 1
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

    return Partition(n, k, assign)
