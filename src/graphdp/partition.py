"""Graph partitioning and the multilevel boundary hierarchy.

The hierarchy splits a graph into tile-sized components and extracts the
vertices with cross-component edges.  Those vertices span the boundary
graph, the next level's graph: cross edges survive verbatim, and each
component contributes virtual edges among its own boundary vertices
(weighted, in the exact engine, by closed intra-component distances).
Recursing on the boundary graph yields levels until it fits a tile or
stops shrinking.  ``kway_partition`` makes the components: size-capped
label propagation finds clusters, which are packed into tile-capped parts
and refined by moves that shrink the boundary.

Hierarchy construction here is purely structural: it reads arcs, never
weights, and tracks virtual connectivity as "groups" (a component's
boundary set is pairwise potentially connected) without computing any
shortest paths.  A level's graph holds only arcs, and level 0 shares the
caller's arc arrays when they are already sorted; the partitioner never
writes them.  A level keeps only its partition and boundary set.
Structural boundary sets therefore over-approximate the exact engine's
boundary graphs (no reachability filtering), which is sound: extra
boundary vertices add work, never wrong distances.  The shortest-path
engine weighs each boundary graph by slicing it out of the level's dense
matrix once the components are closed (:mod:`graphdp.apsp`).
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .graphs import GraphError, WeightedGraph

DEFAULT_IMBALANCE = 0.1

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


def _index_dtype(n: int):
    """int32 for indices below ``n`` when they fit, int64 otherwise."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


def _undirected_csr(g: _StructuralGraph):
    """Symmetrised adjacency: ``ptr`` (int64, ``n + 1`` entries) and ``adj``.

    Vertex ``v``'s row ``adj[ptr[v]:ptr[v + 1]]`` is its arc ends in id
    order, each out-arc's head and each in-arc's tail: a self-loop gives
    two.  The ends sort as int64 keys, vertex in the high 32 bits, which
    are masked off in place before one cast: a masked copy is the peak.
    """
    if g.n >= 2**31:
        raise PartitionError(f"cannot partition n={g.n}: ids must fit int32")
    m = g.src.size
    adj = np.concatenate((g.src, g.dst), dtype=np.int64)
    adj <<= 32
    adj[:m] |= g.dst
    adj[m:] |= g.src
    adj.sort()
    adj &= 0xFFFFFFFF
    adj = adj.astype(np.int32)
    deg = np.bincount(g.src, minlength=g.n) + np.bincount(g.dst, minlength=g.n)
    return np.r_[0, np.cumsum(deg)], adj


def _size_cap(n: int, k: int, imbalance: float) -> int:
    base = math.ceil(n / k)
    return max(base, int(base * (1.0 + imbalance)))


# rounds, at most, of label propagation, cluster merging and refinement;
# label propagation and refinement also stop once a round changes under 1%
# of the vertices
_ROUNDS = 10


def _heads(keys):
    """Where each run of equal entries of ``keys`` starts."""
    head = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    return np.flatnonzero(head)


def _fits(keys, room):
    """Which entries fit: the first ``room[key]`` of each key, in order."""
    order = np.argsort(keys, kind="stable")
    s = keys[order]
    ok = np.empty(keys.size, dtype=bool)
    ok[order] = np.arange(s.size) - np.searchsorted(s, s) < room[s]
    return ok


def _label_propagation(ptr, adj, limit: int):
    """Cluster labels by size-capped label propagation, unit affinities,
    and ``need``, a cap from which up the run is the same.

    A vertex takes the label most frequent among its neighbours, of its own
    and those with room: the larger cluster wins ties, then the lower label.
    Labels start distinct, so round 1 takes the lowest id of each closed
    neighbourhood, its CSR row's first entry.  Later rounds recount only
    the neighbours of movers, in chunks whose ``(vertex, label)`` keys fit
    the label dtype.  A label admits movers lowest id first, up to
    ``limit`` vertices.

    ``need`` bounds each label's size before a round plus the movers it
    admits (a label can lose members in the round it gains them, so its
    size after the round is no bound), and exceeds each size checked for
    room.  It is infinite once the cap turns a mover or a label away.
    """
    n = ptr.size - 1
    lab = np.arange(n, dtype=adj.dtype)
    size = np.ones(n, dtype=np.int64)
    need = 1
    verts = has = np.flatnonzero(np.diff(ptr))
    want = np.minimum(adj[ptr[has]], has)
    step = max(1, np.iinfo(lab.dtype).max // n)
    for _ in range(_ROUNDS):
        moves = want != lab[verts]
        verts, want = verts[moves], want[moves]
        ok = _fits(want, limit - size)
        if not ok.all():
            need = math.inf
        verts, want = verts[ok], want[ok]
        gain = np.bincount(want, minlength=n)
        need = max(need, int((size + gain).max()))
        size += gain - np.bincount(lab[verts], minlength=n)
        lab[verts] = want
        if verts.size < max(1, n // 100):
            break
        mark = np.zeros(n, dtype=bool)
        mark[verts] = True
        verts = has[np.logical_or.reduceat(mark[adj], ptr[has])]
        want = lab[verts]
        for i in range(0, verts.size, step):
            vs = verts[i : i + step]
            lens = ptr[vs + 1] - ptr[vs]
            at = np.arange(lens.sum()) + np.repeat(ptr[vs] - np.cumsum(lens) + lens, lens)
            key = np.repeat(np.arange(vs.size, dtype=lab.dtype) * lab.dtype.type(n), lens)
            key += lab[adj[at]]
            key.sort()
            head = _heads(key)
            o, cand = np.divmod(key[head], n)
            # a vertex's own label needs no room
            checked = np.where(cand == want[i + o], 0, size[cand])
            ok = checked < limit
            need = max(need, int(checked.max()) + 1 if ok.all() else math.inf)
            count = np.diff(head, append=key.size)[ok]
            o, cand = o[ok], cand[ok]
            score = (count * (n + 1) + size[cand]) * (n + 1) + n - cand
            seg = _heads(o)
            want[i + o[seg]] = n - np.maximum.reduceat(score, seg) % (n + 1)
    return lab, need


def _bundles(x, y, arcs, m: int):
    """``arcs`` summed per cluster pair ``(x, y)``, ``x != y``, pairs sorted."""
    keep = x != y
    pair, inv = np.unique(x[keep] * m + y[keep], return_inverse=True)
    return *np.divmod(pair, m), np.bincount(inv, arcs[keep]).astype(np.int64)


def _cluster_graph(g: _StructuralGraph, lab):
    """The clusters of ``lab`` as ``c``, numbered ``0..m-1``, ``m``, and
    their arc bundles ``x``, ``y``, ``arcs``, both directions of each."""
    _, c = np.unique(lab, return_inverse=True)
    m = int(c.max()) + 1
    ci = c.astype(_index_dtype(m))
    cs, cd = ci[g.src], ci[g.dst]
    cross = cs != cd
    a, b = cs[cross].astype(np.int64), cd[cross].astype(np.int64)
    del ci, cs, cd, cross
    return c, m, *_bundles(np.r_[a, b], np.r_[b, a], np.ones(2 * a.size), m)


def _merge_clusters(g: _StructuralGraph, lab, limit: int):
    """Clusters ``c`` numbered ``0..m-1``, ``m``, their arc bundles, and
    ``need``, a limit from which up the merge is the same.

    Label propagation leaves a cluster in pieces where two labels met in
    it.  So each round every cluster joins the one it shares the most arcs
    with, among larger ones (size, then lower id) with room, unless that
    one moves too or takes a heavier joiner.  ``need`` is the largest
    joint size of a pair in size order: from there up no limit turns a
    pair away.  The rounds start from ``g.cluster_graph(lab)``, which
    ``g`` keeps when ``lab`` is its kept labels, carry the cluster sizes
    and compose their renumberings, and write none of its arrays.
    """
    c, m, x, y, arcs = g.cluster_graph(lab)
    size = np.bincount(c, minlength=m)
    into = np.arange(m)
    need = 0
    for _ in range(_ROUNDS):
        sx, sy = size[x], size[y]
        ok = (sy > sx) | ((sy == sx) & (y < x))
        need = int(np.max(sx + sy, where=ok, initial=need))
        ok &= sx + sy <= limit
        a, b, w = x[ok], y[ok], arcs[ok]
        best = np.lexsort((b, -w, a))
        best = best[_heads(a[best])]
        best = best[~np.isin(b[best], a[best])]
        best = best[np.lexsort((a[best], -w[best], b[best]))]
        best = best[_heads(b[best])]
        if not best.size:
            break
        to = np.arange(m)
        to[a[best]] = b[best]
        _, to = np.unique(to, return_inverse=True)
        m = int(to.max()) + 1
        size = np.bincount(to, size, minlength=m).astype(np.int64)
        into = to[into]
        x, y, arcs = _bundles(to[x], to[y], arcs, m)
    if into.size != m:
        c = into[c]
    return c, m, x, y, arcs, need


def _heavy_order(m: int, x, y, arcs) -> list:
    """Clusters in maximum spanning tree (Prim) order: next, the unvisited
    cluster with the most arcs to one visited cluster, lowest id on ties.
    A new tree starts at the unvisited cluster with the fewest neighbours."""
    ptr = np.searchsorted(x, np.arange(m + 1)).tolist()
    y, arcs = y.tolist(), arcs.tolist()
    seen = [False] * m
    order = []
    for s in np.argsort(np.diff(ptr), kind="stable").tolist():
        heap = [(0, s)]
        while heap:
            v = heapq.heappop(heap)[1]
            if not seen[v]:
                seen[v] = True
                order.append(v)
                for i in range(ptr[v], ptr[v + 1]):
                    if not seen[y[i]]:
                        heapq.heappush(heap, (-arcs[i], y[i]))
    return order


def _pack(g: _StructuralGraph, lab, k: int, cap: int, limit: int):
    """Assignment packing the merged clusters of ``lab`` into ``k`` parts.

    The clusters are laid out in ``_heavy_order``, each one's vertices in
    id order, and the layout is cut into ``k`` runs within ``cap`` that
    leave room for the rest.  A run ends at the cluster end nearest an
    even share of the rest, the later one on ties, or, splitting a
    cluster, at that share itself if no cluster end fits.
    """
    n = lab.size
    c, m, order = g.merged(lab, limit)
    ends = np.cumsum(np.bincount(c, minlength=m)[order]).tolist()
    cuts = [0]
    for rest in range(k - 1, 0, -1):
        lo = max(cuts[-1] + 1, n - rest * cap)
        hi = min(cuts[-1] + cap, n - rest)
        t = cuts[-1] + (n - cuts[-1]) / (rest + 1)
        j = bisect.bisect_left(ends, t)
        near = [e for e in ends[max(j - 1, 0) : j + 1] if lo <= e <= hi]
        cuts.append(min(near, key=lambda e: (abs(e - t), -e)) if near else round(t))
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(m)
    assign = np.empty(n, dtype=np.int64)
    assign[np.argsort(rank[c], kind="stable")] = np.repeat(
        np.arange(k), np.diff(cuts + [n])
    )
    return assign


def _outside(g: _StructuralGraph | WeightedGraph, assign):
    """Per vertex, its neighbour entries in another part, and the mask of
    the arcs that cross parts."""
    part = assign.astype(_index_dtype(assign.size))
    cross = part[g.src] != part[g.dst]
    n = assign.size
    ext = np.bincount(g.src[cross], minlength=n)
    ext += np.bincount(g.dst[cross], minlength=n)
    return ext, cross


def _refine(g: _StructuralGraph, ptr, adj, assign, k: int, cap: int):
    """Move boundary vertices to shrink the boundary, in place, and return
    the mask of the arcs of ``g`` that the final ``assign`` cuts.

    Moving ``v`` from part A to part B gains one if all its neighbours are
    in B, one per neighbour in B whose only outside neighbour is ``v``, and
    loses one per neighbour in A with none.  Each round moves every vertex
    whose best positive gain beats its neighbours' (gain, then lower id),
    within ``cap`` and leaving each source a vertex.  Moves two hops apart
    can interfere, so a round that shrinks the boundary by under 1% of the
    vertices is undone and ends the refinement: shaving a few vertices off
    a boundary of nearly every vertex only adds a useless hierarchy level.
    """
    n = assign.size
    ext, cross = _outside(g, assign)
    for _ in range(_ROUNDS):
        cand = np.flatnonzero(ext)
        lens = ptr[cand + 1] - ptr[cand]
        at = np.arange(lens.sum()) + np.repeat(ptr[cand] - np.cumsum(lens) + lens, lens)
        pair, mult = np.unique(np.repeat(cand, lens) * n + adj[at], return_counts=True)
        v, u = np.divmod(pair, n)
        v, u, mult = v[v != u], u[v != u], mult[v != u]
        pv, pu = assign[v], assign[u]
        deg = np.bincount(v, mult, minlength=n)
        lose = np.bincount(v[(pu == pv) & (ext[u] == 0)], minlength=n)
        out = pu != pv
        key, inv = np.unique(v[out] * k + pu[out], return_inverse=True)
        there = np.bincount(inv, mult[out])
        freed = np.bincount(inv, ext[u[out]] == mult[out])
        mv, to = np.divmod(key, k)
        gain = ((deg[mv] == there) + freed - lose[mv]).astype(np.int64)
        sizes = np.bincount(assign, minlength=k)
        best = np.flatnonzero((gain > 0) & (sizes[to] < cap))
        best = best[np.lexsort((to[best], -gain[best], mv[best]))]
        best = best[_heads(mv[best])]
        mv, to = mv[best], to[best]
        prio = np.zeros(n, dtype=np.int64)
        prio[mv] = gain[best] * (n + 1) + n - mv
        rival = np.zeros(n, dtype=np.int64)
        seg = _heads(v)
        rival[v[seg]] = np.maximum.reduceat(prio[u], seg)
        src = assign[mv]
        ok = (prio[mv] > rival[mv]) & _fits(to, cap - sizes) & _fits(src, sizes - 1)
        if not ok.any():
            return cross
        assign[mv[ok]] = to[ok]
        new, new_cross = _outside(g, assign)
        if np.count_nonzero(new) > np.count_nonzero(ext) - max(1, n // 100):
            assign[mv[ok]] = src[ok]
            return cross
        ext, cross = new, new_cross
    return cross


class _StructuralGraph:
    """A level's arcs as the partitioner reads them, with what it derives.

    It holds ``n`` and the ``src``/``dst`` arrays, never weights, and never
    writes the arrays: they may be the caller's own.  The symmetrised CSR,
    each row in id order, is built on first use and kept, and so is the
    last label propagation that the size cap never bound, with a cap from
    which up that run is the same: a partition under any cap from there up
    reuses its labels.  Next to those labels it keeps their bundled cluster
    graph, which the cluster merge starts from, and the last merge of them
    that its limit never bound, with its clusters' ``_heavy_order`` and a
    limit from which up that merge is the same.  Both are built on first
    use, read-only like the labels, and dropped with them; labels of a
    capped run are never kept, so they get fresh bundles and merges.  The
    tile sweep partitions one level-0 graph at every tile size, and its
    clusters stay below every cap but the smallest, so only a size whose
    cap binds labels and bundles it again, and only one whose limit binds
    the merge merges and orders it again.  ``cut`` marks the arcs that the
    last partition ``kway_partition`` made of the graph cuts.
    """

    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray):
        self.n, self.src, self.dst = n, src, dst
        self.cut = self._csr = self._labels = self._bundles = self._merge = None
        self._need = math.inf

    def csr(self):
        if self._csr is None:
            self._csr = _undirected_csr(self)
        return self._csr

    def labels(self, limit: int):
        if limit < self._need:
            lab, need = _label_propagation(*self.csr(), limit)
            if need > limit:
                return lab
            lab.flags.writeable = False
            self._need, self._labels = need, lab
            self._bundles = self._merge = None
        return self._labels

    def cluster_graph(self, lab):
        """``_cluster_graph(self, lab)``, kept when ``lab`` is the kept labels."""
        if lab is not self._labels:
            return _cluster_graph(self, lab)
        if self._bundles is None:
            self._bundles = _cluster_graph(self, lab)
            c, _, x, y, arcs = self._bundles
            for a in (c, x, y, arcs):
                a.flags.writeable = False
        return self._bundles

    def merged(self, lab, limit: int):
        """The clusters ``c`` and ``m`` of ``_merge_clusters(self, lab,
        limit)`` and their ``_heavy_order``, kept when ``lab`` is the kept
        labels and ``limit`` never bound the merge."""
        kept = lab is self._labels
        if kept and self._merge is not None and self._merge[0] <= limit:
            return self._merge[1:]
        c, m, x, y, arcs, need = _merge_clusters(self, lab, limit)
        order = np.array(_heavy_order(m, x, y, arcs), dtype=np.int64)
        if kept and need <= limit:
            c.flags.writeable = order.flags.writeable = False
            self._merge = (need, c, m, order)
        return c, m, order


def kway_partition(
    g: WeightedGraph,
    k: int,
    imbalance: float = DEFAULT_IMBALANCE,
) -> Partition:
    """Balanced k-way partition: coarsen, pack, refine on boundary vertices.

    Label propagation coarsens the symmetrised graph into clusters of at
    most half the ``ceil(n/k)*(1+imbalance)`` cap, whose pieces are then
    merged.  ``_pack`` cuts the clusters, heavy bundles adjacent, into
    ``k`` non-empty parts within the cap, splitting a cluster only where
    no cluster end fits: with ``imbalance=0`` and ``k`` dividing ``n``,
    every part has ``n/k`` vertices.  ``_refine`` then shrinks the
    boundary (vertices with a neighbour in another part), which sizes
    the level matrices and merges.  Only the arcs decide the result.  A
    graph from ``_structural_graph`` keeps its CSR and clusters for later
    calls; a ``WeightedGraph``, already validated, lends its arc arrays to
    one for this call, without a copy.
    """
    n = g.n
    if not 1 <= k <= max(n, 1):
        raise PartitionError(f"k={k} out of range [1, {n}]")
    if k == 1:
        return Partition(n, 1, np.zeros(n, dtype=np.int64))
    cap = _size_cap(n, k, imbalance)
    limit = max(1, cap // 2)
    if not isinstance(g, _StructuralGraph):
        g = _StructuralGraph(n, g.src, g.dst)
    assign = _pack(g, g.labels(limit), k, cap, limit)
    g.cut = _refine(g, *g.csr(), assign, k, cap)
    return Partition(n, k, assign)


def _boundary_set(assign: np.ndarray, union: np.ndarray) -> BoundarySet:
    """Split the sorted boundary vertices ``union`` by component."""
    per = {}
    for c in np.unique(assign[union]) if union.size else []:
        per[int(c)] = union[assign[union] == c]
    return BoundarySet(per, union)


def find_boundary(g: WeightedGraph, p: Partition) -> BoundarySet:
    """Vertices incident to at least one cross-component edge, per component."""
    return _boundary_set(p.assign, np.flatnonzero(_outside(g, p.assign)[0]))


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


def _min_feasible_k(n: int, max_tile: int, imbalance: float) -> int:
    """The fewest parts (one at least, n if none fits) whose size cap fits
    ``max_tile``.  The cap grows with the part size ``ceil(n/k)``, so bisect
    for ``b``, the largest size whose cap fits, instead of stepping k."""
    sizes = range(1, max_tile + 1)
    b = bisect.bisect_right(sizes, max_tile, key=lambda s: _size_cap(s, 1, imbalance))
    return max(1, -(-n // b)) if b else max(1, n)


def _structural_graph(n, src, dst, groups) -> _StructuralGraph:
    """Connectivity surrogate: the arcs plus clique/ring edges per group,
    without parallel arcs and sorted by ``(src, dst)``.

    The partitioner reads no weights, so the graph holds none.  With no
    groups, arcs already strictly sorted are kept as given: the graph
    shares the caller's ``src`` and ``dst``.  ``build_hierarchy`` takes
    such a graph as its own level 0, as it is the structural graph of
    itself.
    """
    if groups:
        srcs, dsts = [src], [dst]
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
    return _StructuralGraph(n, src, dst)


def build_hierarchy(
    g: WeightedGraph | _StructuralGraph,
    max_tile: int,
    k_fn=None,
    imbalance: float = DEFAULT_IMBALANCE,
) -> PartitionHierarchy:
    """Build the level structure for recursive tile-sized closure.

    Levels are ordered base to top.  Recursion continues while the boundary
    graph both exceeds ``max_tile`` and strictly shrinks; when shrinking
    stalls, the component count is halved once as a fallback, and if the
    boundary still does not shrink the hierarchy stops there (``truncated``
    set, the oversized top boundary graph is closed exactly in software by
    the engine).  Every component at every level fits ``max_tile``.  Only
    the arcs of ``g`` are read, never their weights.  ``k_fn(n)`` asks for
    the component count of an n-vertex level; by default it is twice the
    minimum tile covering.
    """
    if max_tile < 2:
        raise HierarchyError("max_tile must be at least 2")

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
    while True:
        if levels or not isinstance(g, _StructuralGraph):
            struct = _structural_graph(n, src, dst, groups)
        else:
            struct = g
        k_lo = _min_feasible_k(n, max_tile, imbalance)
        k = min(n, max(k_fn(n) if k_fn else 2 * math.ceil(n / max_tile), k_lo))
        # when every vertex is boundary, fall back once to fewer, larger
        # components, which cut fewer edges
        for k in (k, max(k_lo, k // 2)):
            part = kway_partition(struct, k, imbalance=imbalance)
            assign = part.assign
            if groups:
                cut = assign[src] != assign[dst]
                cut_src, cut_dst = src[cut], dst[cut]
            else:
                # with no groups the structural graph holds this level's
                # arcs, up to order and repeats, and the partitioner has
                # marked the ones it cuts
                cut, struct.cut = struct.cut, None
                if cut is None:
                    raise HierarchyError("the partitioner left no cut mask")
                cut_src, cut_dst = struct.src[cut], struct.dst[cut]
            # a group spanning >= 2 components gives every member a
            # potential virtual edge leaving its own component
            split = [grp for grp in groups if assign[grp].min() != assign[grp].max()]
            mask = np.zeros(n, dtype=bool)
            mask[cut_src] = True
            mask[cut_dst] = True
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
        src, dst = lookup[cut_src], lookup[cut_dst]
        # a split group keeps live virtual pairs between components (they
        # are real edges of the next boundary graph), so it survives as a
        # group; every member is boundary, hence a next-level vertex
        groups = [lookup[b] for b in bset.per_component.values() if b.size >= 2]
        groups += [lookup[grp] for grp in split]
        n = union.size

    return PartitionHierarchy(levels, max_tile, truncated)
