import hashlib
import math
import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import graphdp.costmodel as costmodel
import graphdp.partition as partition
from graphdp.apsp import (
    ExecutionTrace,
    FwEvent,
    choose_schedule,
    recursive_apsp,
    schedule,
)
from graphdp.costmodel import (
    MP_TREE_INPUTS,
    CapacityError,
    DEFAULT_IMPROVE_FRAC,
    CostReport,
    HbmParams,
    PcmParams,
    ValidationError,
    _bank_conflict_cycles,
    _hierarchy_cost,
    _makespan,
    _report_sum,
    arithmetic_intensity,
    make_tile_workload,
    make_traversal_trace,
    model_fw_block,
    model_mp_merge,
    model_recursive_apsp,
    model_traversal,
    sweep_pe_density,
    sweep_sram,
    sweep_tile_size,
    working_set_bytes,
)
from graphdp.graphs import (
    ReadBatch,
    gen_clustered,
    gen_er,
    gen_genome,
    gen_nws,
    genome_graph,
    parse_gfa,
)
from graphdp.partition import build_hierarchy, kway_partition
from graphdp.s2g import batch_align, classify_self_hop
from oracles import (
    bank_conflict_reference,
    hierarchy_cost_reference,
    makespan_reference,
    model_recursive_apsp_reference,
    report_sum_reference,
)


# ---------------------------------------------------------------------------
# frozen device-level constants
# ---------------------------------------------------------------------------


def test_fw_block_single_pivot_cycle_count():
    # per pivot: 64 add + 64 subtract + 32 bursts x 11 permutation = 480
    dim = 1024
    rep = model_fw_block(dim)
    assert rep.cycles == 480 * dim
    assert rep.phases["add"].cycles == 64 * dim
    assert rep.phases["subtract"].cycles == 64 * dim
    assert rep.phases["permute"].cycles == 352 * dim


def test_fw_block_full_closure_scales_with_pivots():
    rep = model_fw_block(1024)
    assert rep.cycles == 1024 * 480
    assert rep.wall_time_s == pytest.approx(1024 * 480 / 500e6)


def test_mp_merge_thirteen_cycles_per_row():
    for rows in (1, 64, 1024, 5000):
        rep = model_mp_merge(rows, 512)
        assert rep.phases["reduce"].cycles == rows * 13


def test_mp_merge_width_independent_reduce():
    # tree latency is a fixed 1/6/6 schedule, not a function of fill
    a = model_mp_merge(1024, 2)
    b = model_mp_merge(1024, 1024)
    assert a.phases["reduce"].cycles == b.phases["reduce"].cycles == 13312


def test_mp_merge_rejects_overwide():
    with pytest.raises(CapacityError):
        model_mp_merge(16, 1025)


def test_fw_block_rejects_oversized():
    with pytest.raises(CapacityError):
        model_fw_block(2048)


def test_fw_block_zero_work():
    assert model_fw_block(0).cycles == 0
    assert model_mp_merge(0, 16).cycles == 0


def test_working_set_container_size():
    # 16K nodes of 128-bit state fill the 256 KB shared SRAM exactly
    assert working_set_bytes(16384, 128) == 262144
    assert working_set_bytes(16384, 128) == HbmParams().shared_sram_bytes


def test_derate_beyond_design_point():
    p = PcmParams()
    assert p.derate(1024) == 1.0
    assert p.derate(512) == 1.0
    assert p.derate(2048) == pytest.approx(2.0**-1.3)


def test_param_validation():
    with pytest.raises(ValidationError):
        PcmParams(unit_dim=768)
    with pytest.raises(ValidationError):
        PcmParams(clock_hz=0)
    with pytest.raises(ValidationError):
        HbmParams(sram_banks=24)


def test_total_units():
    assert PcmParams().total_units == 130 * 128


def _perturbed(value):
    """A different valid value: powers of two double, other ints step by one
    and floats shrink a hundredfold (a small change of ``pcm.hbm_bandwidth``
    never outlasts the comparator trees that its staging overlaps)."""
    if isinstance(value, float):
        return value / 100
    if value & (value - 1) == 0:
        return value * 2
    return value + 1


@pytest.fixture(scope="module")
def knob_outputs():
    """Model outputs as a function of the device parameters, over inputs
    that reach every pricing branch: blocked and unit-sized closures, merges
    above the base whose staging can dominate, a traversal that spills, and
    a node with more predecessors than SRAM banks."""
    trace = ExecutionTrace(
        depth=2,
        mode="dense",
        fw_events=[
            FwEvent(0, 600, "close"),
            FwEvent(0, 1500, "close"),
            FwEvent(0, 600, "reclose"),
            FwEvent(1, 300, "top"),
        ],
        # 992 merges above the base, whose staging can outlast their passes
        merge_levels={1: ((2,) * 32, (1,) * 32), 0: ((600, 600), (40, 40))},
        inject_pairs=64,
    )
    n = 700
    bases = "".join(np.random.default_rng(0).choice(list("ACGT"), size=n))
    fan_in = [(i, 40) for i in range(40)] + [(i, i + 1) for i in range(40, n - 1)]
    bt = make_traversal_trace(genome_graph(bases, fan_in), [20000] * 3, W=8192)
    tiles = make_tile_workload(n=512)

    def outputs(p, h):
        return (
            model_recursive_apsp(trace, p).to_json(),
            model_traversal(bt, h).to_json(),
            sweep_tile_size([16, 2048], g=tiles, p=p),
        )

    return outputs


@pytest.mark.parametrize(
    "cls,name",
    [(cls, f.name) for cls in (PcmParams, HbmParams) for f in fields(cls)],
)
def test_every_device_knob_moves_a_modelled_number(knob_outputs, cls, name):
    knob = cls(**{name: _perturbed(getattr(cls(), name))})
    p = knob if cls is PcmParams else PcmParams()
    h = knob if cls is HbmParams else HbmParams()
    assert knob_outputs(p, h) != knob_outputs(PcmParams(), HbmParams()), name


# ---------------------------------------------------------------------------
# energy conventions
# ---------------------------------------------------------------------------


def test_fw_block_energy_reads_three_streams():
    p = PcmParams()
    rep = model_fw_block(256, p=p)
    writes = int(256**3 * DEFAULT_IMPROVE_FRAC)
    reads = 3 * 256**3 * 32 * p.read_energy_pj * 1e-12
    want = reads + writes * 32 * p.write_energy_pj * 1e-12
    assert rep.energy_j == pytest.approx(want)
    assert rep.pcm_writes == writes


def test_write_asymmetry_dominates_per_bit():
    p = PcmParams()
    assert p.write_energy_pj / p.read_energy_pj == pytest.approx(11.2)


def test_merge_energy_linear_in_shape():
    a = model_mp_merge(100, 128)
    b = model_mp_merge(200, 128)
    assert b.energy_j == pytest.approx(2 * a.energy_j)
    assert b.pcm_writes == 2 * a.pcm_writes


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_report_addition_accumulates_counters():
    a = CostReport(cycles=10, wall_time_s=1e-6, energy_j=1e-9, hbm_bytes_regular=64)
    b = CostReport(cycles=5, wall_time_s=2e-6, energy_j=3e-9, hbm_bytes_irregular=32)
    c = a + b
    assert c.cycles == 15
    assert c.wall_time_s == pytest.approx(3e-6)
    assert c.energy_j == pytest.approx(4e-9)
    assert c.hbm_bytes_regular + c.hbm_bytes_irregular == 96


def test_report_rejects_negative():
    with pytest.raises(ValidationError):
        CostReport(cycles=-1)


def test_report_csv_shape():
    rep = model_fw_block(128)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "phase,cycles,ns,pJ,bytes_regular,bytes_irregular,writes"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == ["add", "permute", "subtract", "total"]


def test_report_json_round_trip():
    import json

    rep = model_mp_merge(64, 16)
    doc = json.loads(rep.to_json())
    assert doc["cycles"] == rep.cycles
    assert set(doc["phases"]) == {"add1", "add2", "reduce"}
    # deterministic serialization
    assert rep.to_json() == model_mp_merge(64, 16).to_json()


# ---------------------------------------------------------------------------
# recursive closure model against engine traces
# ---------------------------------------------------------------------------


def test_single_tile_trace_equals_one_block():
    g = gen_er(80, 0.08, seed=3)
    res = recursive_apsp(g, max_tile=128)
    rep = model_recursive_apsp(res.trace)
    # depth-1, no boundary: the whole run is exactly one warm closure
    direct = model_fw_block(80)
    assert rep.wall_time_s == pytest.approx(direct.wall_time_s)
    assert rep.energy_j == pytest.approx(direct.energy_j)
    assert rep.hbm_bytes_regular + rep.hbm_bytes_irregular == 0


def test_two_equal_components_close_in_parallel(monkeypatch):
    # two disjoint 50-vertex cliques: same latency as one, twice the energy
    edges = []
    for base in (0, 50):
        edges += [
            (base + a, base + b, 1)
            for a in range(50)
            for b in range(50)
            if a != b
        ]
    from graphdp.graphs import WeightedGraph

    g = WeightedGraph.from_edges(100, edges)
    two = build_hierarchy(g, 64, k_fn=lambda n: 2)
    with monkeypatch.context() as m:
        m.setattr("graphdp.apsp.build_hierarchy", lambda *_: two)
        both = model_recursive_apsp(recursive_apsp(g, max_tile=64).trace)
    single = model_recursive_apsp(
        recursive_apsp(
            WeightedGraph.from_edges(
                50, [(a, b, 1) for a in range(50) for b in range(50) if a != b]
            ),
            max_tile=64,
        ).trace
    )
    assert both.wall_time_s == pytest.approx(single.wall_time_s)
    assert both.energy_j == pytest.approx(2 * single.energy_j)


def test_recursive_model_sums_hand_trace():
    tr = ExecutionTrace(
        depth=2,
        mode="dense",
        fw_events=[
            FwEvent(0, 512, "close"),
            FwEvent(0, 512, "close"),
            FwEvent(0, 512, "reclose"),
            FwEvent(0, 512, "reclose"),
            FwEvent(2, 64, "top"),
        ],
        merge_levels={1: ((256, 256), (32, 32))},  # two ordered merges
        inject_pairs=64,
    )
    rep = model_recursive_apsp(tr)
    blk = model_fw_block(512)
    top = model_fw_block(64)
    from graphdp.costmodel import _mp_split

    m1 = _mp_split(256 * 32, 32, PcmParams())
    m2 = _mp_split(256 * 256, 32, PcmParams())
    stage = 2 * 256 * 256 * 4
    inject = math.ceil(64 / 32) * 10 / 500e6
    want = (
        blk.wall_time_s  # two closes in parallel
        + blk.wall_time_s  # two recloses in parallel
        + top.wall_time_s
        + max(m1.wall_time_s, m2.wall_time_s, stage / PcmParams().hbm_bandwidth)
        + inject
    )
    assert rep.wall_time_s == pytest.approx(want, rel=1e-9)
    assert rep.hbm_bytes_regular == stage
    assert rep.pcm_writes > 0
    assert 0 < rep.utilization["units"] <= 1


def _pricing_traces():
    clustered = build_hierarchy(gen_clustered(16, 32, 3, groups=4), 128)
    truncated = build_hierarchy(gen_nws(220, 4, 0.05, 4), 32)
    assert truncated.depth >= 4 and truncated.stats()["truncated"]
    wide = MP_TREE_INPUTS + 300  # folds through _mp_split's partial rows
    hand = ExecutionTrace(
        depth=2,
        mode="dense",
        fw_events=[
            FwEvent(0, 600, "close"),
            FwEvent(0, 1500, "close"),  # blocked past the unit
            FwEvent(0, 0, "close"),
            FwEvent(0, 600, "reclose"),
            FwEvent(1, 40, "close"),
            FwEvent(2, 300, "top"),
        ],
        merge_levels={
            1: ((2, 3) * 4, (1, 2) * 4),  # 56 merges of four shapes
            0: ((600, 500, 9), (wide, 40, wide)),
        },
        inject_pairs=1000,
    )
    return {
        **{f"clustered-{m}": schedule(clustered, m) for m in ("dense", "lazy", "direct")},
        **{f"truncated-{m}": schedule(truncated, m) for m in ("dense", "lazy")},
        "hand": hand,
    }


@pytest.mark.parametrize(
    "p",
    [
        PcmParams(),
        PcmParams(unit_dim=256, bits=16, clock_hz=1.3e9, read_energy_pj=0.07,
                  burst_rows=7, units_per_tile=3, tiles_per_die=2,
                  hbm_bandwidth=1e9),
    ],
    ids=["default", "custom"],
)
def test_recursive_model_matches_the_per_event_reference(p):
    for name, trace in _pricing_traces().items():
        got = model_recursive_apsp(trace, p)
        want = model_recursive_apsp_reference(trace, p)
        assert got.to_json() == want.to_json(), name
        assert got.to_csv() == want.to_csv(), name


@given(
    st.lists(
        st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0, 1e3)), max_size=40
    ),
    st.integers(1, 50),
)
@example([], 3)
@example([0.0, 0.0, 0.0], 2)
@example([2.5, 2.5, 1.0, 1.0, 0.0], 3)
@example([1.0, 2.0], 7)
def test_makespan_matches_the_linear_scan(durations, workers):
    # ties and zeros, and workers both above and below the task count
    assert _makespan(durations, workers) == makespan_reference(durations, workers)


def _shared_reports() -> list:
    """A few reports with int and float fields, some with phases, some
    without, as equal event shapes share one report."""
    leaf = [CostReport(cycles=c, wall_time_s=w, energy_j=w / 3, pcm_writes=float(c))
            for c, w in ((3, 0.1), (7, 1e-9), (2**40 + 1, 0.7))]
    return leaf + [
        CostReport(cycles=5, wall_time_s=0.3, phases={"a": leaf[0], "b": leaf[2]}),
        CostReport(cycles=1.5, energy_j=1e-12, phases={"b": leaf[1]}),
    ]


@given(st.lists(st.integers(0, 5), min_size=1, max_size=60))
@example([5, 3, 4, 3, 0])
@example([0, 1, 2])
@example([4, 0, 1])
def test_report_sum_folds_as_the_pairwise_chain(picks):
    # each field, and each phase, adds left to right as a chain of pairs
    # would: ints stay ints until a float joins them, and a leading empty
    # report makes every field a float from the start
    pool = _shared_reports() + [CostReport()]
    reps = [pool[i] for i in picks]
    assert _report_sum(reps).to_json() == report_sum_reference(reps).to_json()


def test_pricing_stays_fast_past_the_die_units():
    # more tasks in one phase than the die's 16,640 units: a linear scan for
    # the least-loaded unit took tens of seconds on this trace
    trace = ExecutionTrace(
        depth=1,
        mode="dense",
        fw_events=[FwEvent(0, 1 + i % 997, "close") for i in range(20000)],
        # 142 * 141 = 20,022 merges, two passes each
        merge_levels={
            0: (
                tuple(1 + i % 31 for i in range(142)),
                tuple(1 + i % 13 for i in range(142)),
            )
        },
    )
    t0 = time.perf_counter()
    rep = model_recursive_apsp(trace)
    assert time.perf_counter() - t0 < 5
    assert set(rep.phases) == {"level0.close", "level0.merge"}


# sha256 of model_recursive_apsp(choose_schedule(h)).to_json() for the
# n = 4,096 clustered graph at tile 32, as the schedule priced it when it
# listed one event per ordered merge
_TILE32_COST_DIGEST = "d9cc04f8df28a6f676ead768d941cce6ea7cb339fba44d364eed5c0508c53442"


def test_tile32_schedule_prices_to_its_pinned_digest():
    hier = build_hierarchy(gen_clustered(64, 64, 1, groups=4), 32)
    trace = choose_schedule(hier)
    assert (trace.mode, trace.depth, trace.counts()["merges"]) == ("dense", 6, 150726)
    cost = model_recursive_apsp(trace).to_json().encode()
    assert hashlib.sha256(cost).hexdigest() == _TILE32_COST_DIGEST


def test_recursive_model_rejects_non_trace():
    with pytest.raises(ValidationError):
        model_recursive_apsp({"depth": 1})


# ---------------------------------------------------------------------------
# traversal model
# ---------------------------------------------------------------------------


def make_small_batch(W=32, n=400, reads=8, length=120, seed=7):
    gfa, _ = gen_genome(n, 0.05, seed=seed)
    g = parse_gfa(gfa)
    rng = np.random.default_rng(seed)
    recs = []
    for i in range(reads):
        recs.append((f"r{i}", "".join(rng.choice(list("ACGT"), size=length))))
    batch = ReadBatch(recs, "short")
    _, bt = batch_align(g, batch, W=W)
    return bt


def test_traversal_no_spill_when_state_fits():
    bt = make_small_batch(W=32, n=300)
    rep = model_traversal(bt)
    assert rep.hbm_bytes_irregular == 0
    assert rep.phases["spill"].cycles == 0


def test_traversal_spills_past_sram():
    h = HbmParams(shared_sram_bytes=1024)
    bt = make_small_batch(W=128, n=800)
    rep = model_traversal(bt, h)
    assert rep.hbm_bytes_irregular > 0
    assert rep.wall_time_s > model_traversal(bt).wall_time_s


def test_traversal_throughput_reported():
    bt = make_small_batch()
    rep = model_traversal(bt)
    thr = rep.utilization["throughput_reads_per_s"]
    assert thr == pytest.approx(bt.reads / rep.wall_time_s)


def test_short_batch_streams_topology_once_per_group_load():
    # 10 short reads fill ceil(10/4) = 3 loads of a four-PE group, however
    # many PEs the unit has; only compute spreads over the PEs
    g = parse_gfa(gen_genome(300, 0.05, seed=9)[0])
    lens = [100 + i for i in range(10)]
    bt = make_traversal_trace(g, lens, W=32)
    topo_bytes = 4.0 * (g.pred_idx.size + g.n + 1) + g.n
    want = math.ceil(10 / 4) * topo_bytes + sum(lens) + 16 * 10
    for pe in (16, 64, 192):
        rep = model_traversal(bt, HbmParams(pe_per_pu=pe))
        assert rep.hbm_bytes_regular == want, pe


@pytest.mark.parametrize(
    "h",
    [
        HbmParams(),
        HbmParams(sram_banks=4, bank_access_cycles=1.37),
        HbmParams(sram_banks=1, bank_access_cycles=0.1),
    ],
)
def test_bank_conflict_cycles_match_the_node_loop(h):
    graphs = [parse_gfa(gen_genome(b, 0.05, seed=s)[0]) for b, s in ((300, 1), (2000, 2))]
    graphs += [genome_graph("", []), genome_graph("ACGT", [])]
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 200))
        u, v = rng.integers(0, n, size=(2, int(rng.integers(0, 4 * n))))
        graphs.append(genome_graph("A" * n, np.column_stack((u, v))[u < v]))
    for g in graphs:
        assert _bank_conflict_cycles(g, h) == bank_conflict_reference(g, h)


def test_sram_banks_stop_at_the_bank_hash_width():
    # the hash has 32 bits, so 2^32 banks tell every node apart and each
    # hop node with predecessors pays one bank access; more are refused
    with pytest.raises(ValidationError):
        HbmParams(sram_banks=1 << 33)
    g = parse_gfa(gen_genome(2000, 0.05, seed=2)[0])
    hop = (np.diff(g.pred_ptr) > 0) & ~classify_self_hop(g)
    h = HbmParams(sram_banks=1 << 32)
    assert _bank_conflict_cycles(g, h) == g.n + int(hop.sum()) > g.n


def test_synthetic_trace_matches_engine_shape():
    g = parse_gfa(gen_genome(300, 0.05, seed=9)[0])
    rng = np.random.default_rng(9)
    recs = [
        (f"r{i}", "".join(rng.choice(list("ACGT"), size=100))) for i in range(6)
    ]
    _, engine_bt = batch_align(g, ReadBatch(recs, "short"), W=32)
    synth = make_traversal_trace(g, [100] * 6, W=32)
    assert synth.mode == engine_bt.mode
    assert synth.read_ids == engine_bt.read_ids
    assert synth.read_lengths == engine_bt.read_lengths
    assert synth.nodes == engine_bt.nodes
    # synthesized passes assume no early exit, so they bound the engine's
    assert sum(synth.window_passes) >= sum(engine_bt.window_passes)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_pe_density_knee():
    rows = sweep_pe_density([16, 64, 128, 192])
    thr = {c: t for c, t, _ in rows}
    assert thr[64] / thr[16] >= 2.5
    assert thr[192] / thr[128] <= 1.05


def test_pe_density_monotone_nondecreasing():
    rows = sweep_pe_density([16, 32, 64, 128, 192])
    thr = [t for _, t, _ in rows]
    assert all(b >= a * 0.999 for a, b in zip(thr, thr[1:]))


def test_pe_density_bandwidth_saturates():
    rows = sweep_pe_density([16, 192])
    util = {c: u for c, _, u in rows}
    assert util[192] == pytest.approx(1.0)
    assert all(0 < u <= 1.0 for u in util.values())


def test_sram_sweep_irregular_monotone_and_zero_at_coverage():
    caps = [32768, 65536, 131072, 196608, 262144, 524288]
    rows = sweep_sram(caps)
    irr = [r[2] for r in rows]
    assert all(b <= a for a, b in zip(irr, irr[1:]))
    # the default workload's working set is 192 KB
    assert irr[caps.index(196608)] == 0
    assert irr[caps.index(262144)] == 0


def test_sram_sweep_throughput_flat_past_coverage():
    rows = sweep_sram([196608, 262144, 524288])
    thr = [r[3] for r in rows]
    assert max(thr) / min(thr) - 1 < 0.02


def test_sram_sweep_regular_constant():
    rows = sweep_sram([65536, 262144])
    assert rows[0][1] == rows[1][1]


# sha256 of the tile workload's src.tobytes() + dst.tobytes(): the sweep's
# hierarchies, and so tilesize.csv, rest on these exact arcs
_TILE_ARC_DIGESTS = {
    131072: "4034257d4717ebb0427cc7897baf26b33bb4a02b3679d356a61720d0fc2ecfed",
    8192: "2f3dc78ffb5e7e8b837f4f3a2d4f6e7f5d38c5ab8ad4c70039d7680ab957a48a",
}


def test_tile_workload_shape():
    g = make_tile_workload()
    assert g.n == 131072
    assert g.src.size == 1_999_682
    # arcs come sorted and unique by (src, dst), and weigh nothing: the
    # sweep reads only the arcs
    key = g.src * g.n + g.dst
    assert np.all(key[1:] > key[:-1])
    assert not g.w.any()
    for h in (g, make_tile_workload(8192)):
        assert h.src.dtype == h.dst.dtype == np.int64
        digest = hashlib.sha256(h.src.tobytes() + h.dst.tobytes()).hexdigest()
        assert digest == _TILE_ARC_DIGESTS[h.n], h.n


@pytest.fixture(scope="module")
def tile_sweep_rows():
    # the default sweep builds four hierarchies; both tests read one run
    return sweep_tile_size([256, 512, 1024, 2048])


def test_tile_sweep_ratios(tile_sweep_rows):
    rows = tile_sweep_rows
    lat = {N: r for N, r, _ in rows}
    assert lat[1024] == 1.0
    for N, want in ((256, 2.41), (512, 1.28), (2048, 2.29)):
        assert abs(lat[N] - want) / want <= 0.15, (N, lat[N])
    # optimum sits at the 1024 design point, convex on both sides
    assert lat[256] > lat[512] > lat[1024] < lat[2048]


def test_tile_sweep_energy_monotone_in_tile(tile_sweep_rows):
    rows = tile_sweep_rows
    en = [e for _, _, e in rows]
    assert all(b > a for a, b in zip(en, en[1:]))


@pytest.fixture(scope="module")
def tile_hierarchies():
    g = make_tile_workload(8192)
    return {
        N: build_hierarchy(
            g, max_tile=N, k_fn=lambda n, N=N: math.ceil(n / N), imbalance=0.0
        )
        for N in (16, 64, 256, 2048)
    }


@pytest.mark.parametrize(
    "p",
    [
        PcmParams(),
        PcmParams(clock_hz=7.3e8, add_cycles_per_bit=2.5, sub_cycles_per_bit=1.7,
                  read_energy_pj=0.037, write_energy_pj=0.61, tiles_per_die=3,
                  merge_drain_lanes=999, freq_derate_alpha=1.1, bits=24),
    ],
    ids=["default", "custom"],
)
def test_sweep_pricing_matches_the_event_loop(tile_hierarchies, p):
    # exact floats, not the six digits tilesize.csv prints
    for N, hier in tile_hierarchies.items():
        assert _hierarchy_cost(hier, N, p) == hierarchy_cost_reference(hier, N, p), N


def test_sweep_partitions_as_standalone_builds(monkeypatch):
    # the sweep shares one level-0 graph, its CSR, its clusters, their
    # bundles and their merge across tile sizes: N = 16 caps label
    # propagation (a fresh run, freshly bundled), N = 64 runs it uncapped,
    # and 256 up reuse that run's labels and bundled cluster graph.  Their
    # merge needs a limit of 192, so N = 64 and 256 (limits 32 and 128)
    # merge them afresh, 512 merges them and keeps the merge, and 1024
    # reuses it with its heavy order
    g = make_tile_workload(8192)
    Ns = [16, 64, 256, 512, 1024]
    built, calls, bundled, merged = [], [], [], []

    def bundle(level_graph, lab):
        if level_graph.n == g.n:
            bundled.append(level_graph)
        return cluster_graph(level_graph, lab)

    # a merge's limit, at level 0, or None; then "order" for its heavy order
    def merge(level_graph, lab, limit):
        merged.append(limit if level_graph.n == g.n else None)
        return merge_clusters(level_graph, lab, limit)

    def order(*args):
        merged.append("order")
        return heavy_order(*args)

    cluster_graph = partition._cluster_graph
    merge_clusters = partition._merge_clusters
    heavy_order = partition._heavy_order
    monkeypatch.setattr(partition, "_cluster_graph", bundle)
    monkeypatch.setattr(partition, "_merge_clusters", merge)
    monkeypatch.setattr(partition, "_heavy_order", order)

    def build(*args, **kwargs):
        built.append(build_hierarchy(*args, **kwargs))
        return built[-1]

    def kway(level_graph, k, **kwargs):
        calls.append((level_graph.n, k))
        return kway_partition(level_graph, k, **kwargs)

    monkeypatch.setattr(costmodel, "build_hierarchy", build)
    monkeypatch.setattr(partition, "kway_partition", kway)
    sweep_tile_size(Ns, g=g)
    swept, calls[:] = calls[:], []
    assert [h.max_tile for h in built] == Ns
    assert len(bundled) == 2 and bundled[0] is bundled[1]
    # every merge is ordered, and level 0 merges at four tile sizes
    assert merged[1::2] == ["order"] * (len(merged) // 2)
    level0_merges = [limit for limit in merged[::2] if limit is not None]
    assert level0_merges == [8, 32, 128, 256]
    # the kept labels answer again with the kept, read-only bundles
    level0 = bundled[0]
    c, _, x, y, arcs = level0.cluster_graph(level0.labels(g.n))
    assert level0.cluster_graph(level0.labels(g.n))[0] is c
    assert len(bundled) == 2
    assert not any(a.flags.writeable for a in (c, x, y, arcs))
    # and with the kept, read-only merge under any limit from its need up
    before = len(merged)
    c, m, order = level0.merged(level0.labels(g.n), 192)
    assert level0.merged(level0.labels(g.n), g.n)[0] is c
    assert len(merged) == before and order.size == m
    assert not any(a.flags.writeable for a in (c, order))
    # and a limit below that need merges afresh
    assert level0.merged(level0.labels(g.n), 128)[0] is not c
    assert len(merged) == before + 2
    for N, hier in zip(Ns, built):
        alone = build_hierarchy(
            g, max_tile=N, k_fn=lambda n, N=N: math.ceil(n / N), imbalance=0.0
        )
        assert (hier.depth, hier.truncated) == (alone.depth, alone.truncated)
        for a, b in zip(hier.levels, alone.levels):
            assert np.array_equal(a.partition.assign, b.partition.assign)
            assert np.array_equal(a.boundaries.union, b.boundaries.union)
    # one partition per level, as each standalone build makes
    assert swept == calls


def test_sweeps_reject_empty():
    with pytest.raises(ValidationError):
        sweep_pe_density([])
    with pytest.raises(ValidationError):
        sweep_sram([])
    with pytest.raises(ValidationError):
        sweep_tile_size([])


# ---------------------------------------------------------------------------
# roofline
# ---------------------------------------------------------------------------


def test_intensity_partitioned_fw():
    rep = arithmetic_intensity("FwPartitioned", 1024)
    assert rep.ops_per_byte == pytest.approx(512.0, rel=0.02)


def test_intensity_classic_fw():
    rep = arithmetic_intensity("FwClassic")
    assert rep.ops_per_byte == pytest.approx(1 / 6, rel=0.10)


def test_intensity_s2g():
    rep = arithmetic_intensity("S2G")
    assert rep.ops_per_byte == pytest.approx(2 / 38)


def test_intensity_rejects_unknown():
    with pytest.raises(ValidationError):
        arithmetic_intensity("GEMM")
    with pytest.raises(ValidationError):
        arithmetic_intensity("FwPartitioned")


def test_intensity_ordering():
    fw = arithmetic_intensity("FwPartitioned", 1024).ops_per_byte
    classic = arithmetic_intensity("FwClassic").ops_per_byte
    s2g = arithmetic_intensity("S2G").ops_per_byte
    assert fw > classic > s2g
