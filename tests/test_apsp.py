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
    gen_clustered,
    gen_er,
    gen_nws,
)
from graphdp.minplus import INF_SENTINEL
from graphdp.partition import build_hierarchy
from oracles import dijkstra_oracle as fw_oracle
from oracles import disjoint_copies


def test_single_tile_degenerates_to_dense_fw():
    g = gen_er(40, 0.1, seed=0)
    res = recursive_apsp(g, max_tile=64)
    assert res.hierarchy.depth == 1
    assert np.array_equal(res.dist, fw_oracle(g))


def test_two_disjoint_components_stay_inf():
    edges = [(0, 1, 2), (1, 0, 2), (2, 3, 5), (3, 2, 5)]
    g = WeightedGraph.from_edges(4, edges)
    hier = build_hierarchy(g, max_tile=2, k_fn=lambda n: 2)
    res = recursive_apsp(g, hierarchy=hier)
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
    hier = build_hierarchy(g, max_tile=48)
    assert hier.depth >= 2
    res = recursive_apsp(g, hierarchy=hier, max_tile=48)
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
def test_engine_peak_memory_stays_near_one_matrix(case):
    # one dense uint32 matrix per level, closed in place, plus the copy a
    # closure works on: the traced peak stays below 2.5 n x n matrices
    make, tile, mode = MODE_CASES[case]
    g = make()
    hier = build_hierarchy(g, tile)
    tracemalloc.start()
    try:
        res = recursive_apsp(g, hierarchy=hier)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.trace.mode == mode
    assert peak < 2.5 * 4 * g.n**2


def test_mismatched_hierarchy_rejected():
    g = gen_er(30, 0.1, seed=0)
    other = build_hierarchy(gen_er(40, 0.1, seed=0), max_tile=16)
    with pytest.raises(ApspError):
        recursive_apsp(g, hierarchy=other)
    # same vertex count, but g has cross arcs outside the other's boundary,
    # which the boundary slice would drop
    same_n = build_hierarchy(gen_er(30, 0.1, seed=1), max_tile=16)
    with pytest.raises(ApspError):
        recursive_apsp(g, hierarchy=same_n)


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
    assert tr.counts()["merges"] == len(tr.merge_events) > 0
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

FW_SITES = {"close_one": "close", "reinject": "reclose", "recursive_apsp": "top"}


def record_kernel_calls(monkeypatch) -> dict:
    """Wrap the engine's Floyd-Warshall, merge and inject kernels and log
    their calls in the order the engine makes them."""
    log = {"fw": [], "merge": [], "inject": []}
    real_fw, real_merge = engine.floyd_warshall_dense, engine.min_plus_merge
    real_inject = engine.inject

    def fw(d):
        out = real_fw(d)
        log["fw"].append((FW_SITES[sys._getframe(1).f_code.co_name], out.shape[0]))
        return out

    def merge(left, mid, right, b1, b2):
        log["merge"].append((left.dim, right.dim, len(b1), len(b2)))
        return real_merge(left, mid, right, b1, b2)

    def inject(xb, b, blk):
        log["inject"].append(len(b))
        return real_inject(xb, b, blk)

    monkeypatch.setattr(engine, "floyd_warshall_dense", fw)
    monkeypatch.setattr(engine, "min_plus_merge", merge)
    monkeypatch.setattr(engine, "inject", inject)
    return log


@pytest.mark.parametrize("runs", [1, 2])
@pytest.mark.parametrize(
    "case, mode",
    [(c, m) for c in sorted(SCHEDULE_CASES) for m in (SCHEDULE_CASES[c][2], "lazy")],
)
def test_schedule_lists_the_engines_kernel_calls(monkeypatch, case, mode, runs):
    # the engine runs the dense or the direct schedule, as choose_mode
    # picks; the lazy one, which the tile sweep and plans past the dense
    # limit price, leaves out the base-level merges.  The engine keeps no
    # state between calls: a second run, on the hierarchy the first one
    # built, makes the same calls and returns the same result
    make, tile, _, shape = SCHEDULE_CASES[case]
    g = make()
    if mode == "lazy":
        for _ in range(runs):
            hier = build_hierarchy(g, tile)
            assert shape(hier)
            dense = schedule(hier, "dense")
            upper = [ev for ev in dense.merge_events if ev.level]
            want = replace(dense, mode="lazy", merge_events=upper)
            assert schedule(hier, "lazy") == want
        return
    log = record_kernel_calls(monkeypatch)
    res = recursive_apsp(g, max_tile=tile)
    for _ in range(runs - 1):
        again = recursive_apsp(g, max_tile=tile, hierarchy=res.hierarchy)
        assert again.trace == res.trace
        assert np.array_equal(again.dist, res.dist)
    assert shape(res.hierarchy)
    assert res.trace.mode == mode
    want = schedule(res.hierarchy, mode)
    assert log["fw"] == [(ev.kind, ev.dim) for ev in want.fw_events] * runs
    assert log["merge"] == [
        (ev.rows, ev.cols, ev.left_boundary, ev.right_boundary)
        for ev in want.merge_events
    ] * runs
    recloses = [ev.dim for ev in want.fw_events if ev.kind == "reclose"]
    assert len(log["inject"]) == len(recloses) * runs
    assert sum(b * b for b in log["inject"]) == want.inject_pairs * runs
    assert res.trace == want
    assert np.array_equal(res.dist, fw_oracle(g))
    if mode == "direct":
        assert log["fw"] == [("top", g.n)] * runs
        assert log["merge"] == log["inject"] == []
        # a closure wider than the unit is priced as a blocked closure
        p = PcmParams(unit_dim=tile)
        cost = model_recursive_apsp(res.trace, p)
        assert list(cost.phases) == ["top.fw"]
        assert cost.phases["top.fw"] == _blocked_fw(g.n, p)


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


def test_near_sentinel_bridges_close_exactly():
    # a ring of clusters joined by MAX_WEIGHT bridges: one bridge gives a
    # finite distance above MAX_WEIGHT, two or more saturate, and the
    # merges' sums through the boundary closure reach 2^32 - 2
    size = 12
    base = gen_clustered(6, size, seed=6)
    bridge = base.src // size != base.dst // size
    g = WeightedGraph(base.n, base.src, base.dst, np.where(bridge, MAX_WEIGHT, base.w))
    res = recursive_apsp(g, max_tile=16)
    assert res.trace.mode == "dense"
    assert res.hierarchy.levels[0].partition.k >= 2
    assert np.array_equal(res.dist, fw_oracle(g))
    assert (res.dist > MAX_WEIGHT).any() and (res.dist < INF_SENTINEL).any()


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
