import inspect
import json
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdp.apsp import ApspError, choose_schedule, recursive_apsp, schedule
from graphdp.costmodel import make_tile_workload, make_traversal_trace
from graphdp.graphs import (
    MAPPING_REQUESTS,
    GraphError,
    gen_clustered,
    gen_er,
    gen_genome,
    gen_reads,
    parse_gfa,
)
from graphdp.partition import build_hierarchy
from graphdp.planner import (
    ExecutionPlan,
    K_ALIGN,
    K_BOUNDARY_FW,
    K_FW_CLOSE,
    K_INJECT,
    K_MERGE,
    K_PARTITION,
    PlanError,
    Stage,
    TILE_MATRIX,
    ApspWorkload,
    S2gWorkload,
    execute,
    lower,
)
from graphdp.s2g import (
    MODE_LONG,
    MODE_SHORT,
    align_read_parallel,
    align_reference,
    align_windowed,
    batch_align,
)
from oracles import disjoint_copies


def genome_case(bases=600, seed=5, n_reads=6, length=90):
    gfa, ref = gen_genome(bases, 0.05, seed=seed)
    g = parse_gfa(gfa)
    reads = gen_reads(g, n_reads, length, 0.02, seed=seed)
    return g, reads


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------


def test_small_apsp_lowers_to_trivial_plan():
    g = gen_er(50, 0.1, seed=1)
    plan = lower(ApspWorkload(g, max_tile=64))
    kinds = [s.kind for s in plan.stages]
    assert kinds == [K_PARTITION, K_FW_CLOSE]


def test_direct_apsp_lowers_to_one_closure_of_the_graph():
    # a random graph whose recursion would cost more than one closure
    g = gen_er(260, 0.02, seed=3)
    w = ApspWorkload(g, max_tile=64)
    plan = lower(w)
    assert choose_schedule(build_hierarchy(g, max_tile=64)).mode == "direct"
    assert [(s.kind, s.inputs, s.outputs) for s in plan.stages] == [
        (K_PARTITION, ["graph"], ["hier"]),
        (K_BOUNDARY_FW, ["graph"], ["dist"]),
    ]
    assert execute(w)["apsp"].trace.mode == "direct"


def test_apsp_stage_count_matches_hierarchy():
    g = make_tile_workload(n=8192)
    plan = lower(ApspWorkload(g, max_tile=64))
    hier = build_hierarchy(g, max_tile=64)
    assert hier.depth == 3 and not hier.truncated
    # past the dense limit: the lazy schedule, without base-level merges
    assert choose_schedule(hier).mode == "lazy"
    want = sum(lv.partition.k for lv in hier.levels)
    want += bool(hier.levels[-1].boundaries.union.size)
    for li, lv in enumerate(hier.levels):
        bs = [b.size for b in lv.boundaries.per_component.values()]
        if not bs:
            continue
        # one inject, one re-close per component with a boundary, and a
        # merge per ordered pair of non-empty boundaries
        want += 1 + len(bs)
        if li:
            want += sum(1 for b in bs if b) * (sum(1 for b in bs if b) - 1)
    matrix_stages = sum(1 for s in plan.stages if s.tile == TILE_MATRIX)
    assert matrix_stages == want


@pytest.mark.parametrize(
    "make, tile",
    [
        (lambda: make_tile_workload(n=8192), 64),
        (lambda: gen_er(300, 0.002, seed=1), 32),
        (lambda: gen_er(260, 0.004, seed=1), 64),
        (lambda: gen_clustered(16, 32, seed=1, groups=2), 128),
        # two levels whose top boundary is empty: the base level's closure
        # is the upper level's blocks alone
        (lambda: disjoint_copies(gen_clustered(4, 16, seed=0), 4), 32),
    ],
)
def test_apsp_stage_count_matches_trace(make, tile):
    g = make()
    w = ApspWorkload(g, max_tile=tile)
    plan = lower(w)
    plan.validate()
    hier = build_hierarchy(g, max_tile=tile)
    if choose_schedule(hier).mode == "dense":
        trace = execute(w)["apsp"].trace
    else:
        # past the dense limit the plan prices the lazy schedule, and the
        # engine, which builds the dense matrix, refuses the graph
        assert choose_schedule(hier).mode == "lazy"
        with pytest.raises(ApspError, match=f"n={g.n}"):
            execute(w)
        trace = schedule(hier, "lazy")
    fw = trace.counts()["fw"]
    want = {
        K_PARTITION: 1,
        K_FW_CLOSE: fw["close"] + fw.get("reclose", 0),
        K_BOUNDARY_FW: fw.get("top", 0),
        K_INJECT: len({ev.level for ev in trace.fw_events if ev.kind == "reclose"}),
        K_MERGE: trace.counts()["merges"],
    }
    assert plan.counts() == {kind: n for kind, n in want.items() if n}


def test_plan_is_deterministic():
    g = gen_er(200, 0.03, seed=3)
    w = ApspWorkload(g, max_tile=64)
    assert lower(w).to_json() == lower(w).to_json()


def test_plan_dataflow_is_wired():
    g = gen_er(260, 0.004, seed=0)
    plan = lower(ApspWorkload(g, max_tile=64))
    assert choose_schedule(build_hierarchy(g, max_tile=64)).mode == "dense"
    plan.validate()
    produced = {"graph", "reads"}
    for st in plan.stages:
        assert all(i in produced for i in st.inputs)
        produced.update(st.outputs)


def test_dense_run_and_plan_build_the_schedule_once(monkeypatch):
    # choose_schedule returns the dense trace it built to decide, and the
    # engine and the planner carry it rather than build it again
    modes = []

    def counting(hier, mode):
        modes.append(mode)
        return schedule(hier, mode)

    monkeypatch.setattr("graphdp.apsp.schedule", counting)
    g = gen_er(260, 0.004, seed=0)
    assert recursive_apsp(g, max_tile=64).trace.mode == "dense"
    assert modes == ["dense"]
    modes.clear()
    lower(ApspWorkload(g, max_tile=64))
    assert modes == ["dense"]


def test_unproduced_input_rejected():
    g = gen_er(40, 0.1, seed=6)
    w = ApspWorkload(g, max_tile=64)
    plan = ExecutionPlan(
        w, [Stage("x", K_MERGE, ["ghost"], ["out"])]
    )
    with pytest.raises(PlanError):
        plan.validate()


def test_short_reads_map_to_grouped_pes():
    g, reads = genome_case(length=100)
    plan = lower(S2gWorkload(g, reads, W=32))
    aligns = [s for s in plan.stages if s.kind == K_ALIGN]
    assert len(aligns) == 1
    assert aligns[0].mapping == MODE_SHORT


def test_mixed_batch_plans_two_align_stages():
    g, short = genome_case(bases=2000, length=100)
    # gen_reads numbers every batch from r0; the long reads need ids of their own
    long_reads = gen_reads(g, 2, 800, 0.02, seed=9)
    long_reads = [(f"long{i}", q) for i, (_, q) in enumerate(long_reads)]
    plan = lower(
        S2gWorkload(g, short + long_reads, W=64)
    )
    doc = json.loads(plan.to_json())
    aligns = [s for s in doc["stages"] if s["kind"] == K_ALIGN]
    assert len(aligns) == 2
    assert {s["mapping"] for s in aligns} == {MODE_SHORT, MODE_LONG}


def test_forced_short_rejects_long_reads():
    # the workload builds its batches once, so the short batch refuses the
    # long read at construction, before anything is lowered or run
    g, _ = genome_case(bases=2000)
    long_reads = gen_reads(g, 1, 900, 0.02, seed=10)
    with pytest.raises(GraphError, match="read r0 too long for a short batch$"):
        S2gWorkload(g, long_reads, mode="short")
    w = S2gWorkload(g, long_reads, mode="long")
    assert [b.length_class for b in w.batches] == ["long"]
    with pytest.raises(FrozenInstanceError):
        w.batches = []


def test_workloads_take_only_their_own_fields():
    g = gen_er(20, 0.2, seed=7)
    gg, reads = genome_case()
    assert ApspWorkload.kind == "apsp" and S2gWorkload.kind == "s2g"
    assert [f.name for f in fields(ApspWorkload)] == ["graph", "max_tile", "pcm"]
    assert [f.name for f in fields(S2gWorkload) if f.init] == [
        "graph", "reads", "W", "mode", "hbm"
    ]
    with pytest.raises(TypeError):
        ApspWorkload(g, W=64)
    with pytest.raises(TypeError):
        S2gWorkload(gg, reads, max_tile=64)
    with pytest.raises(TypeError):
        S2gWorkload(gg, reads, batches=[])


def test_run_setting_defaults_live_on_the_workload_classes():
    # the engines and the cost model take the tile size and the window
    # width from their caller; the one default is on the workload class
    for fn, name in ((recursive_apsp, "max_tile"), (align_windowed, "W"),
                     (align_read_parallel, "W"), (batch_align, "W"),
                     (make_traversal_trace, "W")):
        param = inspect.signature(fn).parameters[name]
        assert param.default is inspect.Parameter.empty, fn.__name__
    assert (ApspWorkload.max_tile, S2gWorkload.W, S2gWorkload.mode) == (1024, 128, "auto")


def test_descriptor_kind_validation():
    g = gen_er(20, 0.2, seed=7)
    with pytest.raises(PlanError):
        S2gWorkload(g, [("r0", "ACGT")])
    gg, reads = genome_case()
    with pytest.raises(PlanError):
        ApspWorkload(gg)
    with pytest.raises(PlanError):
        S2gWorkload(gg, [])
    # results are keyed by read id, so a repeated id is refused: the first
    # repeat in read order is named
    with pytest.raises(PlanError, match="duplicate read id 'r1'$"):
        S2gWorkload(gg, reads[:3] + reads[1:])


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def test_apsp_plan_matches_direct_engine():
    g = gen_er(150, 0.03, seed=8)
    w = ApspWorkload(g, max_tile=64)
    out = execute(w)
    direct = recursive_apsp(g, max_tile=64)
    assert np.array_equal(out["apsp"].dist, direct.dist)


def test_s2g_plan_matches_direct_engine():
    g, reads = genome_case()
    w = S2gWorkload(g, reads, W=32)
    out = execute(w)
    from graphdp.graphs import ReadBatch

    direct, _ = batch_align(g, ReadBatch(list(reads), "short"), W=32)
    by_id = dict(zip(sorted(r for r, _ in reads), [r.score_max for r in direct]))
    for rid, res in out["s2g"].items():
        assert res.score_max == by_id[rid]


def test_cost_toggle_leaves_results_bit_identical():
    g = gen_er(120, 0.04, seed=9)
    w = ApspWorkload(g, max_tile=64)
    off = execute(w, cost_model_on=False)
    on = execute(w, cost_model_on=True)
    assert np.array_equal(off["apsp"].dist, on["apsp"].dist)
    assert "cost" in on and "cost" not in off
    assert on["cost"].wall_time_s > 0

    gg, reads = genome_case()
    ws = S2gWorkload(gg, reads, W=32)
    off_s = execute(ws)
    on_s = execute(ws, cost_model_on=True)
    assert {r: v.score_max for r, v in off_s["s2g"].items()} == {
        r: v.score_max for r, v in on_s["s2g"].items()
    }
    assert on_s["cost"].energy_j > 0


_RUNNABLE_GENOME = parse_gfa(gen_genome(400, 0.05, seed=4)[0])


def _reads_over(alphabet: str):
    """Texts over ``alphabet`` of 1 to 320 chars, often near the 300-char
    length threshold."""
    lengths = st.one_of(st.integers(1, 320), st.integers(296, 305))
    return lengths.flatmap(lambda n: st.text(alphabet, min_size=n, max_size=n))


# reads are clean ACGTN text or hold lower case, an unknown or a non-ASCII char
_sequence = st.one_of(_reads_over("ACGTN"), _reads_over("ACGTNacgtX-\u00e9"))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.lists(_sequence, min_size=1, max_size=4), st.sampled_from(MAPPING_REQUESTS))
def test_a_built_s2g_workload_is_runnable(seqs, mode):
    # every read rule is checked as the workload batches its reads, so a
    # workload either refuses construction or lowers and runs exactly
    g = _RUNNABLE_GENOME
    reads = [(f"r{i}", q) for i, q in enumerate(seqs)]
    try:
        w = S2gWorkload(g, reads, W=64, mode=mode)
    except (GraphError, PlanError):
        return
    assert [stage.kind for stage in lower(w).stages][1:] == [K_ALIGN] * len(w.batches)
    got = execute(w, cost_model_on=True)["s2g"]
    for rid, q in reads:
        want = align_reference(g, q)
        assert got[rid].score_max == want.score_max
        assert np.array_equal(got[rid].end_nodes, want.end_nodes)
