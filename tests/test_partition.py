import math
import time
import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphdp.partition as partition
from graphdp.apsp import schedule
from graphdp.costmodel import make_tile_workload, sweep_tile_size
from graphdp.graphs import (
    INF_SENTINEL,
    WeightedGraph,
    distance_init,
    gen_clustered,
    gen_er,
    gen_nws,
)
from graphdp.minplus import floyd_warshall_dense
from graphdp.partition import (
    HierarchyError,
    Partition,
    PartitionError,
    _label_propagation,
    _merge_clusters,
    _min_feasible_k,
    _pack,
    _structural_graph,
    build_hierarchy,
    find_boundary,
    kway_partition,
)


def _size_cap(n, k, imbalance=0.1):
    import math

    base = math.ceil(n / k)
    return max(base, int(base * (1 + imbalance)))


def _boundary_graph(g, p, bs):
    """The exact boundary graph as a dense matrix: the ``[union, union]``
    slice of the distance seed once every component block is closed."""
    d = distance_init(g)
    for c in range(p.k):
        ids = p.component(c)
        d[np.ix_(ids, ids)] = floyd_warshall_dense(d[np.ix_(ids, ids)])
    return d[np.ix_(bs.union, bs.union)]


def _cut_edges(g, assign):
    return int(np.sum(assign[g.src] != assign[g.dst]))


def two_cliques(m=50, w=1):
    edges = []
    for a in range(m):
        for b in range(m):
            if a != b:
                edges.append((a, b, w))
                edges.append((m + a, m + b, w))
    return WeightedGraph.from_edges(2 * m, edges)


def path_graph(n, w=1):
    edges = []
    for v in range(n - 1):
        edges.append((v, v + 1, w))
        edges.append((v + 1, v, w))
    return WeightedGraph.from_edges(n, edges)


def complete_graph(n, w=1):
    edges = [(a, b, w) for a in range(n) for b in range(n) if a != b]
    return WeightedGraph.from_edges(n, edges)


def ring_of_cliques(cliques=3, size=4, bridge_w=2):
    edges = []
    for c in range(cliques):
        off = c * size
        for a in range(size):
            for b in range(size):
                if a != b:
                    edges.append((off + a, off + b, 1))
    for c in range(cliques):
        u = c * size + (size - 1)
        v = ((c + 1) % cliques) * size
        edges.append((u, v, bridge_w))
        edges.append((v, u, bridge_w))
    return WeightedGraph.from_edges(cliques * size, edges)


# ---------------------------------------------------------------------------
# kway_partition
# ---------------------------------------------------------------------------


def test_kway_k1_puts_everything_in_one_component():
    g = gen_er(40, 0.1, seed=0)
    p = kway_partition(g, 1)
    assert p.k == 1
    assert np.all(p.assign == 0)


def test_kway_kn_is_identity():
    g = gen_er(25, 0.1, seed=1)
    p = kway_partition(g, 25)
    assert np.array_equal(np.sort(p.assign), np.arange(25))


def test_kway_covers_all_vertices_and_respects_cap():
    for seed in range(4):
        g = gen_er(200, 0.03, seed=seed)
        for k in (3, 7, 16):
            p = kway_partition(g, k)
            sizes = p.sizes()
            assert sizes.sum() == 200
            assert sizes.min() >= 1
            assert sizes.max() <= _size_cap(200, k)


def test_kway_deterministic():
    g = gen_er(150, 0.04, seed=7)
    a = kway_partition(g, 6).assign
    b = kway_partition(g, 6).assign
    assert np.array_equal(a, b)


def test_kway_two_cliques_zero_cut():
    g = two_cliques(50)
    p = kway_partition(g, 2)
    assert _cut_edges(g, p.assign) == 0
    assert np.array_equal(p.sizes(), [50, 50])


def _disjoint_union(parts, isolated):
    """The graphs of ``parts`` side by side, then ``isolated`` bare vertices."""
    srcs, dsts, ws, n = [], [], [], 0
    for g in parts:
        srcs.append(g.src + n)
        dsts.append(g.dst + n)
        ws.append(g.w)
        n += g.n
    return WeightedGraph(
        n + isolated, np.concatenate(srcs), np.concatenate(dsts), np.concatenate(ws)
    )


def _reference_corpus():
    for seed in range(3):
        # sparse ER graphs fall apart into pieces and isolated vertices
        yield f"er-sparse-{seed}", gen_er(240, 0.006, seed=seed)
        yield f"er-dense-{seed}", gen_er(90, 0.06, seed=seed)
        yield f"clustered-{seed}", gen_clustered(6, 16, seed, groups=2)
        yield (
            f"disconnected-{seed}",
            _disjoint_union(
                [gen_er(40, 0.08, seed=seed), path_graph(23), two_cliques(9)], 7
            ),
        )
    yield "path", path_graph(101)
    yield "ring-of-cliques", ring_of_cliques(7, 5)


def test_kway_corpus_assigns_everything_within_the_cap():
    # every vertex lands in a non-empty part of at most the cap, which is
    # ceil(n/k) at imbalance 0, and a rerun gives the same assignment
    calls = 0
    for name, g in _reference_corpus():
        n = g.n
        for k in sorted({2, 3, 7, n // 5, n // 3, n // 2}):
            for imbalance in (0.0, 0.1):
                p = kway_partition(g, k, imbalance=imbalance)
                sizes = p.sizes()
                case = (name, k, imbalance)
                assert sizes.sum() == n and sizes.min() >= 1, case
                assert sizes.max() <= _size_cap(n, k, imbalance), case
                again = kway_partition(g, k, imbalance=imbalance)
                assert np.array_equal(again.assign, p.assign)
                calls += 1
    assert calls > 150


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_kway_finds_the_clusters(seed):
    # 32 rings of 64 in 4 groups: the level-0 boundary stays near that of
    # the partition along the generator's clusters, two rings a part, and
    # the hierarchy does not truncate
    g = gen_clustered(32, 64, seed, groups=4)
    h = build_hierarchy(g, max_tile=256)
    aligned = find_boundary(g, Partition(g.n, 16, np.arange(g.n) // 128))
    assert h.levels[0].boundaries.union.size <= 1.5 * aligned.union.size
    assert not h.truncated


def test_kway_isolated_vertices_are_fast():
    g = WeightedGraph(4000, np.zeros(0), np.zeros(0), np.zeros(0))
    t0 = time.perf_counter()
    p = kway_partition(g, 8)
    assert time.perf_counter() - t0 < 1.0
    assert np.array_equal(p.sizes(), [500] * 8)


def test_kway_memory_on_tile_workload():
    # the tile sweep's level-0 call at N=1024: the partitioner's own peak
    # stays within 1.75x the structural graph's arc arrays
    g = make_tile_workload()
    struct = _structural_graph(g.n, g.src, g.dst, [])
    del g
    arcs = struct.src.nbytes + struct.dst.nbytes
    tracemalloc.start()
    try:
        p = kway_partition(struct, 128, imbalance=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(p.sizes(), [1024] * 128)
    assert peak <= 1.75 * arcs


def test_kway_refuses_ids_past_int32():
    # the CSR packs a vertex and a neighbour into one int64 key and holds
    # int32 ids: 2**31 vertices fail before anything n-long is made
    with pytest.raises(PartitionError, match="ids must fit int32"):
        kway_partition(WeightedGraph(2**31, [0], [1], [0]), 2)


def test_undirected_csr_rows_are_sorted_arc_ends(monkeypatch):
    # each row is the sorted multiset of its vertex's arc ends, a repeated
    # arc twice and a self-loop's vertex twice, and ptr the cumulative degree
    built, csr = [], partition._undirected_csr

    def spy(g):
        built.append(csr(g))
        return built[-1]

    monkeypatch.setattr(partition, "_undirected_csr", spy)
    odd = WeightedGraph(
        6, [4, 0, 2, 5, 0, 3, 1, 2], [1, 3, 2, 0, 3, 5, 4, 0], [1, 2, 0, 1, 2, 3, 1, 1]
    )
    for g in (make_tile_workload(8192), odd):
        built.clear()
        kway_partition(g, 2)
        ((ptr, adj),) = built
        rows = [[] for _ in range(g.n)]
        for u, v in zip(g.src.tolist(), g.dst.tolist()):
            rows[u].append(v)
            rows[v].append(u)
        assert ptr.tolist() == [0, *np.cumsum([len(r) for r in rows]).tolist()]
        assert [adj[ptr[v] : ptr[v + 1]].tolist() for v in range(g.n)] == [sorted(r) for r in rows]


def test_level0_shares_the_callers_arcs_and_never_writes_them(monkeypatch):
    # sorted arcs with no groups are the level-0 graph as given: the
    # hierarchy, a direct partition and the tile sweep read the caller's
    # arrays in place, and no stage writes them
    seen = []

    def spy(g, *args):
        seen.append(g)
        return _pack(g, *args)

    monkeypatch.setattr("graphdp.partition._pack", spy)
    g = make_tile_workload(8192)
    g.src.flags.writeable = False
    g.dst.flags.writeable = False
    for run in (
        lambda: build_hierarchy(g, 1024),
        lambda: kway_partition(g, 8),
        lambda: sweep_tile_size([256, 1024, 2048], g=g),
    ):
        seen.clear()
        run()
        assert not isinstance(seen[0], WeightedGraph)
        assert np.shares_memory(seen[0].src, g.src)
        assert np.shares_memory(seen[0].dst, g.dst)


# ---------------------------------------------------------------------------
# label propagation's reuse rule
# ---------------------------------------------------------------------------

_LP_GRAPHS = {
    "er": lambda s: gen_er(400, 0.01, seed=s),
    "nws": lambda s: gen_nws(800, 4, 0.05, s),
    "clustered": lambda s: gen_clustered(16, 32, seed=s, groups=4),
    "tile": lambda s: make_tile_workload(8192),
}


@cache
def _lp_graph(kind, seed):
    g = _LP_GRAPHS[kind](seed)
    return _structural_graph(g.n, g.src, g.dst, [])


def _lp_csr(kind, seed):
    return _lp_graph(kind, seed).csr()


@cache
def _uncapped_labels(kind, seed):
    ptr, adj = _lp_csr(kind, seed)
    lab, need = _label_propagation(ptr, adj, ptr.size - 1)
    assert need < math.inf
    return lab


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(
    kind=st.sampled_from(sorted(_LP_GRAPHS)),
    seed=st.integers(1, 6),
    limit=st.integers(1, 160),
    extra=st.integers(0, 500),
)
def test_label_propagation_is_the_same_under_every_cap_from_need(kind, seed, limit, extra):
    ptr, adj = _lp_csr(kind, seed)
    lab, need = _label_propagation(ptr, adj, limit)
    # a run the cap changed needs no cap at all
    if not np.array_equal(lab, _uncapped_labels(kind, seed)):
        assert need == math.inf
    if need < math.inf:
        assert need <= limit
        for cap in (need, need + extra):
            assert np.array_equal(_label_propagation(ptr, adj, cap)[0], lab), cap


def test_label_propagation_tile_workload_cap_binds_only_below_32():
    # the tile sweep's level 0 at N = 16 (clusters of at most 8) and N = 64
    ptr, adj = _lp_csr("tile", 0)
    lab, need = _label_propagation(ptr, adj, 8)
    assert need == math.inf and np.bincount(lab).max() == 8
    lab, need = _label_propagation(ptr, adj, 32)
    assert need == 32 and np.bincount(lab).max() == 32


@pytest.mark.parametrize("seed", [2, 3, 7])
def test_label_propagation_need_on_small_world_graphs(seed):
    # two wrong bounds fail here.  A label can lose members in the round it
    # admits movers, so its size after the round understates the cap the
    # round needed: bounded that way, the run at cap 72 on seed 2 claims 69.
    # A label the cap kept from a vertex may win it under a larger cap:
    # without the room check, the run at cap 60 on seed 3 claims 60.
    ptr, adj = _lp_csr("nws", seed)
    runs = {cap: _label_propagation(ptr, adj, cap) for cap in range(55, 101)}
    exact = [cap for cap, (_, need) in runs.items() if need < math.inf]
    assert exact
    for cap in exact:
        lab, need = runs[cap]
        for other in range(max(need, 55), 101):
            assert np.array_equal(runs[other][0], lab), (cap, need, other)


def _shuffled_rows(csr, seed):
    """``csr`` with every row of its adjacency shuffled, seeded, behind the
    row's minimum, which stays first."""
    rng = np.random.default_rng(seed)

    def shuffled(g):
        ptr, adj = csr(g)
        row = np.repeat(np.arange(g.n), np.diff(ptr))
        order = rng.random(adj.size)
        order[ptr[np.flatnonzero(np.diff(ptr))]] = -1
        return ptr, adj[np.lexsort((order, row))]

    return shuffled


def test_partition_does_not_depend_on_neighbour_order(monkeypatch):
    # label propagation's first round reads each row's first entry as its
    # minimum; every other reader of the CSR counts or takes minima per
    # vertex, so the order behind it moves no label, part, boundary or
    # sweep row
    def run():
        out = {}
        for kind in sorted(_LP_GRAPHS):
            g = _LP_GRAPHS[kind](1)
            ptr, adj = partition._undirected_csr(_structural_graph(g.n, g.src, g.dst, []))
            runs = [_label_propagation(ptr, adj, cap) for cap in (8, 32, g.n)]
            h = build_hierarchy(g, 64)
            out[kind] = (
                [(lab.tolist(), need) for lab, need in runs],
                [(lv.partition.assign.tolist(), lv.boundaries.union.tolist()) for lv in h.levels],
                h.truncated,
            )
        out["sweep"] = sweep_tile_size([256, 1024, 2048], g=make_tile_workload(8192))
        return out

    want = run()
    shuffled = _shuffled_rows(partition._undirected_csr, 7)
    tile = _lp_graph("tile", 0)
    assert not np.array_equal(shuffled(tile)[1], tile.csr()[1])
    monkeypatch.setattr(partition, "_undirected_csr", shuffled)
    assert run() == want


# ---------------------------------------------------------------------------
# the cluster merge's reuse rule, and the cut the partitioner hands back
# ---------------------------------------------------------------------------


def _merge(kind, seed, limit):
    return _merge_clusters(_lp_graph(kind, seed), _uncapped_labels(kind, seed), limit)


@cache
def _unlimited_merge(kind, seed):
    return _merge(kind, seed, _lp_graph(kind, seed).n)[:5]


def _same_merge(a, b):
    return all(np.array_equal(u, v) for u, v in zip(a, b))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(
    kind=st.sampled_from(sorted(_LP_GRAPHS)),
    seed=st.integers(1, 6),
    limit=st.integers(1, 500),
    extra=st.integers(0, 500),
)
def test_cluster_merge_is_the_same_under_every_limit_from_need(kind, seed, limit, extra):
    *merge, need = _merge(kind, seed, limit)
    # a merge the limit changed reports a need above its limit
    if not _same_merge(merge, _unlimited_merge(kind, seed)):
        assert need > limit
    if need <= limit:
        for cap in (need, need + extra):
            assert _same_merge(_merge(kind, seed, cap)[:5], merge), cap


# (kind, seed, tile) whose level-0 refinement keeps two rounds, then undoes
# its third and last
_UNDONE = ("clustered", 1, 16)


@pytest.mark.parametrize("tile", [16, 64])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(_LP_GRAPHS))
def test_level0_cut_is_the_cut_of_its_assignment(monkeypatch, kind, seed, tile):
    # build_hierarchy takes level 0's boundary and the next level's arcs
    # from the cross-arc mask _refine hands back: they equal the ones a
    # fresh assign[src] != assign[dst] over the caller's arcs gives, as sets
    # (level 1's structural graph sorts its arcs and drops repeats)
    g = _LP_GRAPHS[kind](seed)
    if kind == "clustered":
        assert np.any(np.diff(g.src * g.n + g.dst) <= 0)
    level_arcs, cuts, crossed = [], [], []
    structural_graph, refine, outside = (
        partition._structural_graph,
        partition._refine,
        partition._outside,
    )

    def spy_structural_graph(n, src, dst, groups):
        level_arcs.append((n, src, dst))
        return structural_graph(n, src, dst, groups)

    def spy_refine(level_graph, *args):
        crossed.clear()
        mask = refine(level_graph, *args)
        cuts.append((mask, crossed[-1], len(crossed), level_graph))
        return mask

    def spy_outside(level_graph, assign):
        ext, cross = outside(level_graph, assign)
        crossed.append(cross)
        return ext, cross

    monkeypatch.setattr(partition, "_structural_graph", spy_structural_graph)
    monkeypatch.setattr(partition, "_refine", spy_refine)
    monkeypatch.setattr(partition, "_outside", spy_outside)
    h = build_hierarchy(g, tile)
    assign = h.levels[0].partition.assign
    cut = assign[g.src] != assign[g.dst]
    union = np.unique(np.r_[g.src[cut], g.dst[cut]])
    assert np.array_equal(h.levels[0].boundaries.union, union)
    # the mask belongs to the final assignment, also after an undone round
    mask, last, masks, struct = [c for c in cuts if c[3].n == g.n][-1]
    assert np.array_equal(mask, assign[struct.src] != assign[struct.dst])
    if (kind, seed, tile) == _UNDONE:
        assert mask is not last and masks == 4
    if h.depth > 1:
        n, src, dst = level_arcs[1]
        lookup = np.full(g.n, -1)
        lookup[union] = np.arange(union.size)
        want = np.unique(lookup[g.src[cut]] * n + lookup[g.dst[cut]])
        assert np.array_equal(np.unique(src * n + dst), want)


def test_level0_without_a_cut_mask_fails(monkeypatch):
    # a partitioner that leaves no cut mask must not read as "every arc cut"
    def no_mask(g, k, imbalance=0.1):
        return Partition(g.n, k, np.arange(g.n) % k)

    monkeypatch.setattr(partition, "kway_partition", no_mask)
    with pytest.raises(HierarchyError, match="no cut mask"):
        build_hierarchy(gen_er(200, 0.03, seed=1), 64)


def test_kway_rejects_bad_k():
    g = gen_er(10, 0.2, seed=0)
    with pytest.raises(PartitionError):
        kway_partition(g, 0)
    with pytest.raises(PartitionError):
        kway_partition(g, 11)


# ---------------------------------------------------------------------------
# find_boundary
# ---------------------------------------------------------------------------


def test_find_boundary_matches_brute_force():
    for seed in range(6):
        g = gen_er(80, 0.04, seed=seed)
        p = kway_partition(g, 4)
        bs = find_boundary(g, p)
        expected = set()
        for u, v in zip(g.src.tolist(), g.dst.tolist()):
            if p.assign[u] != p.assign[v]:
                expected.add(u)
                expected.add(v)
        assert set(bs.union.tolist()) == expected
        for c, verts in bs.per_component.items():
            assert np.all(p.assign[verts] == c)
            assert np.all(np.diff(verts) > 0)


def test_find_boundary_union_sorted_unique():
    g = gen_er(60, 0.06, seed=3)
    p = kway_partition(g, 3)
    bs = find_boundary(g, p)
    assert np.all(np.diff(bs.union) > 0)


def test_path_graph_boundary_stays_small():
    # contiguous regions on a path cut at most k-1 edges
    g = path_graph(100)
    p = kway_partition(g, 4)
    bs = find_boundary(g, p)
    assert bs.union.size <= 6


# ---------------------------------------------------------------------------
# the boundary graph, sliced out of the closed level matrix
# ---------------------------------------------------------------------------


def test_boundary_graph_preserves_boundary_distances():
    # closing the boundary graph must reproduce the full closure restricted
    # to boundary pairs
    for seed in range(5):
        g = gen_er(70 + 10 * seed, 0.05, seed=seed)
        p = kway_partition(g, 3 + (seed % 3))
        bs = find_boundary(g, p)
        if bs.union.size == 0:
            continue
        got = floyd_warshall_dense(_boundary_graph(g, p, bs))
        full = floyd_warshall_dense(distance_init(g))
        want = full[np.ix_(bs.union, bs.union)]
        assert np.array_equal(got, want)


def test_boundary_graph_vertex_convention_and_cross_edges():
    g = ring_of_cliques()
    p = Partition(12, 3, np.repeat(np.arange(3), 4))
    bs = find_boundary(g, p)
    assert np.array_equal(bs.union, [0, 3, 4, 7, 8, 11])
    gb = _boundary_graph(g, p, bs)
    assert gb.shape == (6, 6)
    # cross bridges keep their weight, intra pairs carry clique distance 1
    lookup = {int(x): i for i, x in enumerate(bs.union)}
    assert gb[lookup[3], lookup[4]] == 2
    assert gb[lookup[0], lookup[3]] == 1
    # 6 bridge arcs and 6 intra pairs off the zero diagonal
    assert np.all(np.diagonal(gb) == 0)
    assert np.count_nonzero(gb < INF_SENTINEL) - 6 == 12


def test_boundary_graph_skips_unreachable_intra_pairs():
    # component {0,1} has no 1->0 path, so its entry stays unreachable
    g = WeightedGraph.from_edges(3, [(0, 1, 4), (1, 2, 1), (2, 0, 1)])
    p = Partition(3, 2, np.array([0, 0, 1]))
    bs = find_boundary(g, p)
    gb = _boundary_graph(g, p, bs)
    lookup = {int(x): i for i, x in enumerate(bs.union)}
    assert gb[lookup[0], lookup[1]] == 4  # direct arc 0->1
    assert gb[lookup[1], lookup[0]] == INF_SENTINEL


# ---------------------------------------------------------------------------
# build_hierarchy
# ---------------------------------------------------------------------------


def test_min_feasible_k_is_the_first_k_whose_cap_fits():
    # the fewest parts from ceil(n/max_tile) up, stopping at n, whose size
    # cap fits the tile; a vertex count far past any memory takes no steps
    for n in range(0, 90):
        for max_tile in (1, 2, 3, 5, 8, 13, 64):
            for imbalance in (0.0, 0.03, 0.1, 0.5, 1.0, 2.5):
                want = max(1, math.ceil(n / max_tile))
                while _size_cap(n, want, imbalance) > max_tile and want < n:
                    want += 1
                got = _min_feasible_k(n, max_tile, imbalance)
                assert got == want, (n, max_tile, imbalance)
    # 931 is the largest part whose cap, int(931 * 1.1) = 1024, fits
    assert _min_feasible_k(10**18, 1024, 0.1) == -(-(10**18) // 931)


def test_hierarchy_small_graph_is_single_trivial_level():
    g = gen_er(30, 0.1, seed=2)
    h = build_hierarchy(g, max_tile=64)
    assert h.depth == 1
    assert h.levels[0].partition.k == 1
    assert h.levels[0].boundaries.union.size == 0
    assert not h.truncated


def test_hierarchy_levels_chain_and_fit_tiles():
    g = gen_clustered(12, 40, seed=5)
    h = build_hierarchy(g, max_tile=48)
    assert h.depth >= 2
    for lv in h.levels:
        assert lv.partition.sizes().max() <= 48
        assert np.all(np.diff(lv.boundaries.union) > 0)
    for i in range(h.depth - 1):
        assert h.levels[i + 1].partition.n == h.levels[i].boundaries.union.size
    if not h.truncated:
        assert h.levels[-1].boundaries.union.size <= 48


def test_hierarchy_level0_boundary_is_exact():
    g = gen_clustered(8, 30, seed=3)
    h = build_hierarchy(g, max_tile=36)
    exact = find_boundary(g, h.levels[0].partition)
    assert np.array_equal(h.levels[0].boundaries.union, exact.union)
    for c, verts in exact.per_component.items():
        assert np.array_equal(h.levels[0].boundaries.of(c), verts)


def test_hierarchy_upper_boundary_covers_exact_boundary():
    # structural boundaries may over-approximate (no reachability filter)
    # but must never miss a vertex of the real boundary graph's boundary
    g = gen_clustered(12, 40, seed=5)
    h = build_hierarchy(g, max_tile=48)
    assert h.depth >= 2
    lvl0 = h.levels[0]
    real_gb = _boundary_graph(g, lvl0.partition, lvl0.boundaries)
    # the real boundary: ends of finite entries across level-1 components
    assign = h.levels[1].partition.assign
    ii, jj = np.nonzero(real_gb < INF_SENTINEL)
    cross = assign[ii] != assign[jj]
    exact = np.union1d(ii[cross], jj[cross])
    assert exact.size
    assert np.all(np.isin(exact, h.levels[1].boundaries.union))


def test_hierarchy_stall_truncates_gracefully():
    # a complete graph never shrinks: every vertex is boundary for any split
    g = complete_graph(200)
    h = build_hierarchy(g, max_tile=64)
    assert h.truncated
    assert h.depth == 1
    assert h.levels[-1].boundaries.union.size == 200
    for lv in h.levels:
        assert lv.partition.sizes().max() <= 64


def test_hierarchy_stall_leaves_an_oversized_top():
    # the engine closes the stalled top directly, as one oversized event
    h = build_hierarchy(complete_graph(200), max_tile=64)
    assert h.truncated
    trace = schedule(h, "dense")
    assert [ev.dim for ev in trace.fw_events if ev.kind == "top"] == [200]


def test_hierarchy_deterministic():
    g = gen_clustered(10, 30, seed=11)
    h1 = build_hierarchy(g, max_tile=40)
    h2 = build_hierarchy(g, max_tile=40)
    assert h1.depth == h2.depth
    for a, b in zip(h1.levels, h2.levels):
        assert np.array_equal(a.partition.assign, b.partition.assign)
        assert np.array_equal(a.boundaries.union, b.boundaries.union)


@pytest.mark.parametrize(
    "make, tile, truncated",
    [
        (lambda: gen_clustered(32, 16, seed=2, groups=4), 32, False),
        (lambda: gen_er(260, 0.004, seed=3), 64, True),
    ],
    ids=["clustered", "er"],
)
def test_hierarchy_ignores_weights(make, tile, truncated):
    # the hierarchy is structural: only the arcs decide it
    g = make()
    h = build_hierarchy(g, max_tile=tile)
    assert h.truncated == truncated and h.depth >= (1 if truncated else 3)
    for w in (np.ones_like(g.w), 100 - g.w):
        other = build_hierarchy(WeightedGraph(g.n, g.src, g.dst, w), tile)
        assert other.truncated == h.truncated and other.depth == h.depth
        for a, b in zip(h.levels, other.levels):
            assert np.array_equal(a.partition.assign, b.partition.assign)
            want, got = a.boundaries.per_component, b.boundaries.per_component
            assert want.keys() == got.keys()
            for c, verts in want.items():
                assert np.array_equal(got[c], verts)
    # a zero-weight self-loop is a valid input arc of the structural graph
    loop = np.zeros(1, dtype=np.int64)
    looped = WeightedGraph(
        g.n, np.r_[g.src, loop], np.r_[g.dst, loop], np.r_[g.w, loop]
    )
    assert build_hierarchy(looped, tile).depth >= 1


def test_hierarchy_path_tiles_contiguously():
    # cut-edge count oracle: 4 contiguous runs on a path cut 3 edges
    tile = 100
    g = path_graph(4 * tile)
    h = build_hierarchy(g, max_tile=tile, k_fn=lambda n: 4, imbalance=0.0)
    assert h.levels[0].partition.k == 4
    assert h.levels[0].boundaries.union.size <= 6


def test_hierarchy_er5000_structure():
    # sparse expander: boundary sets stay large, so the build must still
    # terminate with valid tile-sized components at every level
    g = gen_er(5000, 0.002, seed=0)
    h = build_hierarchy(g, max_tile=256)
    assert h.depth >= 1
    for lv in h.levels:
        assert lv.partition.sizes().max() <= 256
    assert h.truncated or h.levels[-1].boundaries.union.size <= 256


def test_hierarchy_rejects_tiny_tile():
    g = gen_er(20, 0.2, seed=0)
    with pytest.raises(HierarchyError):
        build_hierarchy(g, max_tile=1)


def test_hierarchy_stats_shape():
    g = gen_clustered(6, 25, seed=2)
    h = build_hierarchy(g, max_tile=32)
    st = h.stats()
    assert len(st["levels"]) == h.depth
    assert st["levels"][0]["n"] == g.n
