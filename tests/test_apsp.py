import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import graphdp.apsp as engine
from graphdp.apsp import (
    DENSE_LIMIT,
    ApspError,
    export_distances,
    load_distances,
    recursive_apsp,
    schedule,
)
from graphdp.costmodel import PcmParams, _blocked_fw, model_recursive_apsp
from graphdp.graphs import (
    MAX_WEIGHT,
    WeightedGraph,
    distance_init,
    gen_clustered,
    gen_er,
    gen_nws,
)
import graphdp.minplus as minplus
from graphdp.minplus import _NARROW_SENTINEL, INF_SENTINEL
from graphdp.partition import (
    BoundarySet,
    HierarchyLevel,
    Partition,
    PartitionHierarchy,
    build_hierarchy,
)
from oracles import check_schedule_run
from oracles import dijkstra_oracle as fw_oracle
from oracles import disjoint_copies


def test_single_tile_degenerates_to_dense_fw():
    g = gen_er(40, 0.1, seed=0)
    res = recursive_apsp(g, max_tile=64)
    assert res.hierarchy.depth == 1
    assert np.array_equal(res.dist, fw_oracle(g))


def use_hierarchy(monkeypatch, hier):
    """Make the engine run on ``hier`` instead of the one it would build."""
    monkeypatch.setattr(engine, "build_hierarchy", lambda g, max_tile: hier)


def test_two_disjoint_components_stay_inf(monkeypatch):
    edges = [(0, 1, 2), (1, 0, 2), (2, 3, 5), (3, 2, 5)]
    g = WeightedGraph.from_edges(4, edges)
    use_hierarchy(monkeypatch, build_hierarchy(g, max_tile=2, k_fn=lambda n: 2))
    res = recursive_apsp(g, max_tile=2)
    assert res.hierarchy.levels[0].partition.k == 2
    assert res.dist[0, 2] == INF_SENTINEL
    assert res.dist[3, 1] == INF_SENTINEL
    assert res.dist[0, 1] == 2


def test_exactness_across_topologies_and_tiles():
    cases = []
    for seed in range(3):
        cases.append((gen_er(60 + 40 * seed, 0.05, seed=seed), 16))
        cases.append((gen_er(150, 0.02, seed=10 + seed), 32))
    cases.append((gen_nws(120, 4, 0.1, seed=1), 32))
    cases.append((gen_nws(200, 6, 0.05, seed=2), 64))
    cases.append((gen_clustered(6, 30, seed=3), 32))
    cases.append((gen_clustered(8, 25, seed=4), 64))
    for g, tile in cases:
        res = recursive_apsp(g, max_tile=tile)
        assert np.array_equal(res.dist, fw_oracle(g)), f"n={g.n} tile={tile}"


def test_er_midsize_exact():
    g = gen_er(700, 0.008, seed=7)
    res = recursive_apsp(g, max_tile=128)
    assert np.array_equal(res.dist, fw_oracle(g))


def test_truncated_hierarchy_still_exact():
    # the boundary of these clusters stops shrinking above the tile; the
    # oversized top is closed whole and the answers must stay exact
    g = gen_clustered(10, 40, seed=3)
    res = recursive_apsp(g, max_tile=32)
    assert res.trace.mode == "dense"
    assert res.hierarchy.truncated
    assert np.array_equal(res.dist, fw_oracle(g))


def test_deep_hierarchy_exact():
    g = gen_clustered(12, 40, seed=5)
    res = recursive_apsp(g, max_tile=48)
    assert res.hierarchy.depth >= 2
    assert res.trace.mode == "dense"
    assert np.array_equal(res.dist, fw_oracle(g))


# name: (graph, tile, the schedule the engine picks); the benchmark's
# random graph, its three clustered instances and the corpus's small-world
# graph whose level-0 boundary is about half of n
MODE_CASES = {
    "er1000": (lambda: gen_er(1000, 0.006, 1), 128, "direct"),
    **{
        f"clustered{s}": (lambda s=s: gen_clustered(32, 64, s, groups=4), 256, "dense")
        for s in (3, 4, 5)
    },
    "nws2000": (lambda: gen_nws(2000, 6, 0.05, seed=72), 256, "dense"),
}


@pytest.mark.parametrize("case", list(MODE_CASES))
def test_engine_recurses_only_when_recursion_costs_less(case):
    # a random graph has no small separators, so recursion would cost more
    # ops than one closure of the whole graph; clustered and small-world
    # graphs recurse
    make, tile, mode = MODE_CASES[case]
    g = make()
    res = recursive_apsp(g, max_tile=tile)
    assert res.trace.mode == mode
    assert np.array_equal(res.dist, fw_oracle(g))


@pytest.mark.parametrize("case", ["er1000", "clustered3"])
def test_engine_peak_memory_stays_near_one_matrix(monkeypatch, case):
    # one dense uint32 matrix per level, closed in place, plus the copy a
    # closure works on: the traced peak stays below 2.5 n x n matrices.
    # The direct schedule closes its seed in place through a half-width
    # uint16 copy, so it holds about 1.5 matrices
    make, tile, mode = MODE_CASES[case]
    g = make()
    # the hierarchy is built before tracing starts
    use_hierarchy(monkeypatch, build_hierarchy(g, tile))
    tracemalloc.start()
    try:
        res = recursive_apsp(g, max_tile=tile)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.trace.mode == mode
    assert peak < 2.5 * 4 * g.n**2
    if mode == "direct":
        assert peak < 1.75 * 4 * g.n**2


def test_engine_refuses_graphs_past_dense_limit(monkeypatch):
    # the engine builds the dense n x n matrix, so it refuses a graph past
    # the limit before it partitions or closes anything
    n = DENSE_LIMIT + 1
    ring = WeightedGraph.from_edges(n, [(i, (i + 1) % n, 1) for i in range(n)])
    monkeypatch.setattr(engine, "build_hierarchy", None)
    monkeypatch.setattr(engine, "floyd_warshall_dense", None)
    with pytest.raises(ApspError, match=f"n={n}"):
        recursive_apsp(ring, max_tile=64)


def test_trace_reflects_work():
    g = gen_clustered(10, 40, seed=2)
    res = recursive_apsp(g, max_tile=32)
    tr = res.trace
    assert tr.mode == "dense"
    assert tr.depth == res.hierarchy.depth
    closes = [ev for ev in tr.fw_events if ev.kind == "close"]
    expect = sum(lv.partition.k for lv in res.hierarchy.levels)
    assert len(closes) == expect
    assert any(ev.kind == "top" for ev in tr.fw_events)
    # every ordered pair of a level's components with a boundary merges
    pairs = [len(lv.boundaries.per_component) for lv in res.hierarchy.levels]
    merges = [len(tr.merge_passes(li)[0]) for li in tr.merge_levels]
    assert tr.counts()["merges"] == sum(merges) == sum(m * (m - 1) for m in pairs) > 0
    for ev in tr.fw_events:
        assert ev.dim <= max(32, res.hierarchy.levels[-1].boundaries.union.size)


# name: (graph, tile, the schedule the engine picks, the hierarchy shape
# the case stands for)
SCHEDULE_CASES = {
    "er": (lambda: gen_er(260, 0.004, seed=3), 64, "dense", lambda h: h.truncated),
    "er_direct": (
        lambda: gen_er(260, 0.02, seed=3),
        64,
        "direct",
        lambda h: h.truncated,
    ),
    "nws": (
        lambda: gen_nws(220, 4, 0.05, seed=4),
        32,
        "dense",
        lambda h: h.depth > 3,
    ),
    "clustered": (
        lambda: gen_clustered(32, 16, seed=2, groups=4),
        32,
        "dense",
        lambda h: h.depth > 2 and not h.truncated,
    ),
    "disconnected": (
        lambda: disjoint_copies(gen_clustered(4, 16, seed=0), 4),
        32,
        "dense",
        lambda h: h.depth == 2 and h.levels[-1].boundaries.union.size == 0,
    ),
    "isolated": (
        lambda: gen_er(300, 0.002, seed=2),
        32,
        "dense",
        lambda h: h.depth == 2 and 0 < h.levels[-1].boundaries.union.size <= 32,
    ),
    "single_tile": (
        lambda: gen_er(40, 0.1, seed=6),
        64,
        "dense",
        lambda h: h.depth == 1,
    ),
}

FW_SITES = {"close_one": "close", "recursive_apsp": "top"}


def record_fw_calls(monkeypatch) -> list:
    """Wrap the engine's Floyd-Warshall kernel and log the closes it makes,
    by call site and dimension, in the order of the engine's calls; a
    ``(k, s, s)`` stack logs k closes of dimension s."""
    log = []
    real_fw = engine.floyd_warshall_dense

    def fw(d, **kw):
        out = real_fw(d, **kw)
        site = FW_SITES[sys._getframe(1).f_code.co_name]
        k = out.shape[0] if out.ndim == 3 else 1
        log.extend([(site, out.shape[-1])] * k)
        return out

    monkeypatch.setattr(engine, "floyd_warshall_dense", fw)
    return log


@pytest.mark.parametrize("runs", [1, 2])
@pytest.mark.parametrize(
    "case, mode",
    [(c, m) for c in sorted(SCHEDULE_CASES) for m in (SCHEDULE_CASES[c][2], "lazy")],
)
def test_schedule_lists_the_engines_kernel_calls(monkeypatch, case, mode, runs):
    # the engine runs the dense or the direct schedule, as choose_schedule
    # picks; the lazy one, which the tile sweep and plans past the dense
    # limit price, leaves out the base-level merges.  The host makes the
    # schedule's close and top closures, level by level; the inject,
    # re-close and merge events stay the device's, and the host's one
    # correction per level must give the same distances.  A level's closes
    # run as stacks, and its blocks are disjoint, so only the multiset of
    # close dimensions per level is observable, with the top closure last.
    # The engine keeps no state between calls: a second run, on the
    # hierarchy the first one built, makes the same calls and returns the
    # same result
    make, tile, _, shape = SCHEDULE_CASES[case]
    g = make()
    if mode == "lazy":
        for _ in range(runs):
            hier = build_hierarchy(g, tile)
            assert shape(hier)
            dense = schedule(hier, "dense")
            upper = {li: comps for li, comps in dense.merge_levels.items() if li}
            want = replace(dense, mode="lazy", merge_levels=upper)
            assert schedule(hier, "lazy") == want
        return
    log = record_fw_calls(monkeypatch)
    res = recursive_apsp(g, max_tile=tile)
    use_hierarchy(monkeypatch, res.hierarchy)
    for _ in range(runs - 1):
        again = recursive_apsp(g, max_tile=tile)
        assert again.trace == res.trace
        assert np.array_equal(again.dist, res.dist)
    assert shape(res.hierarchy)
    assert res.trace.mode == mode
    want = schedule(res.hierarchy, mode)
    host = [ev for ev in want.fw_events if ev.kind != "reclose"]
    levels = [ev.level for ev in host]
    calls = [(ev.kind, ev.dim) for ev in host]
    assert len(log) == len(calls) * runs
    for r in range(runs):
        got = log[r * len(calls) : (r + 1) * len(calls)]
        assert sorted(zip(levels, got)) == sorted(zip(levels, calls))
    assert res.trace == want
    assert np.array_equal(res.dist, fw_oracle(g))
    if mode == "direct":
        assert log == [("top", g.n)] * runs
        # a closure wider than the unit is priced as a blocked closure
        p = PcmParams(unit_dim=tile)
        cost = model_recursive_apsp(res.trace, p)
        assert list(cost.phases) == ["top.fw"]
        assert cost.phases["top.fw"] == _blocked_fw(g.n, p)


@pytest.mark.parametrize("mode", ["dense", "lazy", "direct"])
@pytest.mark.parametrize("case", sorted(SCHEDULE_CASES))
def test_the_device_schedule_runs_exactly(case, mode):
    # the host runs only the schedule's closes and top closure; the event
    # oracle runs all of it, injects, re-closes and merges included, so the
    # events the cost model prices make an exact algorithm
    make, tile, _, _ = SCHEDULE_CASES[case]
    g = make()
    hier = build_hierarchy(g, tile)
    check_schedule_run(g, hier, schedule(hier, mode))


def test_merge_passes_pair_every_boundary_component_c1_major():
    hier = build_hierarchy(gen_clustered(32, 16, seed=2, groups=4), 32)
    trace = schedule(hier, "dense")
    assert trace.merge_levels
    for li, (sizes, bsizes) in trace.merge_levels.items():
        comps = list(zip(sizes, bsizes))
        want = [
            ((s1 * b2, s1 * s2), (b1, b2))
            for c1, (s1, b1) in enumerate(comps)
            for c2, (s2, b2) in enumerate(comps)
            if c1 != c2
        ]
        rows, widths = trace.merge_passes(li)
        assert rows.dtype == widths.dtype == np.int64
        assert list(zip(map(tuple, rows.tolist()), map(tuple, widths.tolist()))) == want


def test_a_level_of_2048_boundary_components_schedules_in_o_k_memory():
    # every component has a boundary, so the level merges 2048 * 2047
    # ordered pairs; the schedule holds them as one record of 2 * 2048 ints
    k = 2048
    part = Partition(2 * k, k, np.arange(2 * k) // 2)
    per = {c: np.array([2 * c]) for c in range(k)}
    bset = BoundarySet(per, np.arange(0, 2 * k, 2))
    hier = PartitionHierarchy([HierarchyLevel(part, bset)], max_tile=2)
    tracemalloc.start()
    trace = schedule(hier, "dense")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert trace.counts()["merges"] == k * (k - 1)
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("stack_bytes", [1, 3 * 17 * 17 * 4, 1 << 20])
def test_a_level_closes_in_bounded_per_size_stacks(monkeypatch, stack_bytes):
    # the components of each size close as stacks of at most stack_bytes,
    # or of one component, and every block comes out as if closed alone
    monkeypatch.setattr(engine, "_STACK_BYTES", stack_bytes)
    shapes = []
    real_fw = engine.floyd_warshall_dense

    def fw(d, **kw):
        shapes.append(d.shape)
        return real_fw(d, **kw)

    monkeypatch.setattr(engine, "floyd_warshall_dense", fw)
    g = gen_clustered(10, 40, seed=2)
    part = build_hierarchy(g, 32).levels[0].partition
    d = distance_init(g)
    want = d.copy()
    for c in range(part.k):
        ix = np.ix_(part.component(c), part.component(c))
        want[ix] = real_fw(want[ix])
    engine.close_one(d, part)
    assert np.array_equal(d, want)
    expect = []
    for s, count in zip(*np.unique(part.sizes(), return_counts=True)):
        per = max(1, stack_bytes // (4 * s * s))
        expect += [(min(per, count - c0), s, s) for c0 in range(0, count, per)]
    assert sorted(shapes) == sorted(expect)
    groups = len(set(part.sizes().tolist()))
    assert len(shapes) == groups if stack_bytes == 1 << 20 else len(shapes) > groups


# ---------------------------------------------------------------------------
# The level correction
# ---------------------------------------------------------------------------


def test_level_correction_matches_brute_force():
    # the two factored products against a loop over the correction's
    # definition, on a level whose components are closed and whose
    # boundary closure is exact
    g = gen_er(24, 0.25, seed=12)
    lv = build_hierarchy(g, max_tile=8).levels[0]
    part, bset = lv.partition, lv.boundaries
    assert part.k >= 3 and len(bset.per_component) == part.k
    d = distance_init(g)
    engine.close_one(d, part)
    whole = fw_oracle(g)
    closure = whole[np.ix_(bset.union, bset.union)].astype(np.uint32)
    pos = {int(v): i for i, v in enumerate(bset.union)}
    want = d.astype(np.int64)
    for m in range(g.n):
        bm = bset.of(part.assign[m])
        for n in range(g.n):
            bn = bset.of(part.assign[n])
            mid = closure[np.ix_([pos[i] for i in bm], [pos[j] for j in bn])]
            cand = d[m, bm, None].astype(np.int64) + mid + d[None, bn, n]
            want[m, n] = min(want[m, n], cand.min())
    engine._assemble_level(d, lv, closure)
    assert d.dtype == np.uint32
    assert np.array_equal(d, np.minimum(want, INF_SENTINEL))
    assert np.array_equal(d, whole)


@pytest.mark.parametrize(
    "make, tile",
    [
        (lambda: gen_clustered(10, 40, seed=3), 32),
        (lambda: gen_clustered(12, 40, seed=5), 48),
        (lambda: gen_nws(220, 4, 0.05, seed=4), 32),
    ],
)
def test_every_level_closes_to_the_global_distances(monkeypatch, make, tile):
    # a level's vertices are boundary vertices of the level below, so once
    # corrected its matrix holds their global distances; deep, truncated
    # hierarchies check the correction at every level, the top's included
    g = make()
    hier = build_hierarchy(g, tile)
    assert hier.depth >= 4 and hier.truncated
    ids = [np.arange(g.n)]
    for lv in hier.levels[:-1]:
        ids.append(ids[-1][lv.boundaries.union])
    seen = {}
    real = engine._assemble_level

    def spy(d, lv, closure):
        real(d, lv, closure)
        li = next(i for i, x in enumerate(hier.levels) if x is lv)
        seen[li] = d.copy()

    monkeypatch.setattr(engine, "_assemble_level", spy)
    use_hierarchy(monkeypatch, hier)
    res = recursive_apsp(g, max_tile=tile)
    assert res.trace.mode == "dense"
    whole = fw_oracle(g)
    assert sorted(seen) == list(range(hier.depth))
    for li, d in seen.items():
        assert np.array_equal(d, whole[np.ix_(ids[li], ids[li])]), li
    assert np.array_equal(res.dist, whole)


def test_component_without_boundary_stays_unreachable():
    # a clustered ring beside a separate clique: the clique is a level-0
    # component with no boundary, so no product touches its cross blocks,
    # which must stay at the sentinel while the ring's pairs close
    ring = gen_clustered(8, 16, seed=1)
    clique = gen_er(16, 0.3, seed=1)
    g = WeightedGraph(
        ring.n + clique.n,
        np.concatenate([ring.src, clique.src + ring.n]),
        np.concatenate([ring.dst, clique.dst + ring.n]),
        np.concatenate([ring.w, clique.w]),
    )
    res = recursive_apsp(g, max_tile=32)
    assert res.trace.mode == "dense"
    lv = res.hierarchy.levels[0]
    alone = [c for c in range(lv.partition.k) if not lv.boundaries.of(c).size]
    assert alone and lv.boundaries.union.size
    for c in alone:
        inside = lv.partition.assign == c
        assert np.all(res.dist[np.ix_(inside, ~inside)] == INF_SENTINEL)
        assert np.all(res.dist[np.ix_(~inside, inside)] == INF_SENTINEL)
    assert np.array_equal(res.dist, fw_oracle(g))


def test_export_binary_roundtrip(tmp_path):
    g = gen_er(50, 0.05, seed=3)
    res = recursive_apsp(g, max_tile=16)
    path = tmp_path / "d.bin"
    export_distances(res, str(path), fmt="bin")
    back = load_distances(str(path))
    assert np.array_equal(back, res.dist)
    with open(path, "rb") as fh:
        assert fh.read(4) == b"GDPD"


def test_export_tsv_roundtrip_with_inf(tmp_path):
    edges = [(0, 1, 7), (1, 0, 7)]
    g = WeightedGraph.from_edges(3, edges)  # vertex 2 unreachable
    res = recursive_apsp(g, max_tile=8)
    path = tmp_path / "d.tsv"
    export_distances(res, str(path), fmt="tsv")
    text = path.read_text()
    assert "inf" in text
    assert np.array_equal(load_distances(str(path)), res.dist)


@pytest.mark.parametrize(
    "data",
    [
        b"GDPD\x01",  # cut inside the vertex count
        b"GDPD\x02\x00\x00\x00" + bytes(12),  # 3 of 4 entries
        b"GDPD\x02\x00\x00\x00" + bytes(13),  # a partial fourth entry
        b"0\tx\n1\t0\n",  # a non-numeric entry
        b"0\t\xff\n1\t0\n",  # not text
        b"0\t1\n1\n",  # ragged rows
        b"GDPD\xff\xff\xff\x7f",  # a vertex count far past the file
        b"0\t99999999999999999999\n1\t0\n",  # an entry beyond int64
    ],
)
def test_load_distances_rejects_malformed_files(data, tmp_path):
    path = tmp_path / "d"
    path.write_bytes(data)
    with pytest.raises(ApspError):
        load_distances(str(path))


def test_export_tsv_rejects_large(tmp_path):
    g = gen_er(520, 0.004, seed=0)
    res = recursive_apsp(g, max_tile=256)
    with pytest.raises(ApspError):
        export_distances(res, str(tmp_path / "big.tsv"), fmt="tsv")
    with pytest.raises(ApspError):
        export_distances(res, str(tmp_path / "big.xyz"), fmt="xyz")


# ---------------------------------------------------------------------------
# uint32 storage and saturation at the sentinel
# ---------------------------------------------------------------------------


def max_weight_chain(n):
    """Undirected path of MAX_WEIGHT arcs: sums of two stay finite at
    INF - 1, sums of three or more cross 2^31 - 1 and saturate."""
    edges = [(i, i + 1, MAX_WEIGHT) for i in range(n - 1)]
    return WeightedGraph.from_edges(n, edges + [(b, a, w) for a, b, w in edges])


@pytest.mark.parametrize("tile", [2, 3, 4, 5, 6, 8, 16])
def test_max_weight_chain_saturates_at_every_tile(tile):
    # closed intra-component distances above MAX_WEIGHT become boundary
    # graph edges, so the recursion must carry them too; below tile 5 the
    # chain's hierarchy stalls near n, and the engine closes it directly
    g = max_weight_chain(24)
    res = recursive_apsp(g, max_tile=tile)
    assert res.trace.mode == ("direct" if tile < 5 else "dense")
    want = fw_oracle(g)
    assert np.array_equal(res.dist, want)
    assert want[0, 2] == INF_SENTINEL - 1 and want[0, 3] == INF_SENTINEL


def test_near_sentinel_bridges_close_exactly(monkeypatch):
    # a ring of clusters joined by MAX_WEIGHT bridges: one bridge gives a
    # finite distance above MAX_WEIGHT, two or more saturate, and the
    # correction's sums through the boundary closure reach 2^32 - 2 at
    # every level of a deep hierarchy
    size = 12
    base = gen_clustered(6, size, seed=6)
    bridge = base.src // size != base.dst // size
    g = WeightedGraph(base.n, base.src, base.dst, np.where(bridge, MAX_WEIGHT, base.w))
    largest = []
    real = engine.min_plus_product

    def product(a, b, out=None, rows=None):
        # the largest candidate a[i, k] + b[k, j] the product forms
        a64, b64 = a.astype(np.int64), b.astype(np.int64)
        largest.append(int((a64.max(axis=0) + b64.max(axis=1)).max()))
        return real(a, b, out=out, rows=rows)

    monkeypatch.setattr(engine, "min_plus_product", product)
    res = recursive_apsp(g, max_tile=16)
    assert res.trace.mode == "dense"
    assert res.hierarchy.levels[0].partition.k >= 2
    assert res.hierarchy.depth >= 2
    assert max(largest) == 2 * INF_SENTINEL == 2**32 - 2
    assert np.array_equal(res.dist, fw_oracle(g))
    assert (res.dist > MAX_WEIGHT).any() and (res.dist < INF_SENTINEL).any()


def record_product_widths(monkeypatch) -> list:
    """Log the dtype every min-plus product of the engine computes in."""
    log = []
    real = minplus._accumulate

    def accumulate(a, b, out, rows, sentinel):
        log.append(a.dtype)
        real(a, b, out, rows, sentinel)

    monkeypatch.setattr(minplus, "_accumulate", accumulate)
    return log


def test_level_distances_past_the_narrow_sentinel_correct_in_32_bits(monkeypatch):
    # clusters joined by bridges of about 20,000: one bridge fits 16 bits,
    # and a path over two or more crosses 2^15 - 1, so the correction's
    # products must fall back to uint32
    size = 12
    base = gen_clustered(6, size, seed=6)
    bridge = base.src // size != base.dst // size
    w = np.where(bridge, 20_000 + base.w, base.w)
    g = WeightedGraph(base.n, base.src, base.dst, w)
    log = record_product_widths(monkeypatch)
    res = recursive_apsp(g, max_tile=16)
    assert res.trace.mode == "dense"
    assert np.uint32 in log
    want = fw_oracle(g)
    assert np.array_equal(res.dist, want)
    assert (want[want < INF_SENTINEL] > _NARROW_SENTINEL).any()


def test_benchmark_clustered_graph_corrects_in_16_bits(monkeypatch):
    # every finite operand of this graph's corrections is far below
    # 2^15 - 1, so a fall back to 32 bits would only cost time
    log = record_product_widths(monkeypatch)
    res = recursive_apsp(gen_clustered(32, 64, 3, groups=4), max_tile=256)
    assert res.trace.mode == "dense"
    assert log and set(log) == {np.dtype(np.uint16)}


def test_dense_result_is_uint32_and_loads_back_as_int64(tmp_path):
    g = gen_er(40, 0.08, seed=4)
    res = recursive_apsp(g, max_tile=16)
    assert res.dist.dtype == np.uint32
    for fmt in ("bin", "tsv"):
        path = tmp_path / f"d.{fmt}"
        export_distances(res, str(path), fmt=fmt)
        back = load_distances(str(path))
        assert back.dtype == np.int64
        assert np.array_equal(back, res.dist)
