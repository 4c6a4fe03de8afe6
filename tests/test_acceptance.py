"""End-to-end acceptance gates, one test per shipping criterion.

Every test prints a single PASS line with its evidence so a -v run reads
as a checklist.  Tolerances and runtime budgets are stated inline; the
exactness gates use zero tolerance.
"""

import os
import time
from collections import Counter

import numpy as np

from graphdp.apsp import recursive_apsp, schedule
from graphdp.cli import main as cli_main
from graphdp.costmodel import (
    arithmetic_intensity,
    make_tile_workload,
    model_mp_merge,
    sweep_pe_density,
    sweep_sram,
    sweep_tile_size,
    working_set_bytes,
)
from graphdp.graphs import (
    distance_init,
    gen_clustered,
    gen_er,
    gen_genome,
    gen_nws,
    gen_reads,
    parse_gfa,
)
from graphdp.minplus import floyd_warshall_dense
from graphdp.partition import build_hierarchy, find_boundary, kway_partition
from graphdp.s2g import align_reference, align_windowed
from oracles import check_schedule_run, dijkstra_oracle

SEED = 20260816


# ---------------------------------------------------------------------------
# 1. exact distance closure on a broad random corpus
# ---------------------------------------------------------------------------


def _clustered_near(n, seed):
    clusters = max(2, n // 40)
    size = max(4, n // clusters)
    return gen_clustered(clusters, size, seed, groups=2 if clusters >= 4 else 1)


def _apsp_cases():
    rng = np.random.default_rng(SEED)
    tiles = (64, 128, 256)
    cases = []
    for i in range(152):  # bulk of the corpus stays small
        n = int(rng.integers(10, 401))
        kind = i % 3
        if kind == 0:
            g = gen_er(n, float(rng.uniform(0.002, 0.05)), seed=1000 + i)
        elif kind == 1:
            g = gen_nws(max(n, 12), 4, 0.1, seed=2000 + i)
        else:
            g = _clustered_near(n, seed=3000 + i)
        cases.append((g, tiles[i % 3]))
    for j in range(50):  # mid range
        n = int(rng.integers(401, 1001)) if j < 46 else (1100 if j < 49 else 1200)
        kind = j % 3
        if kind == 0:
            g = gen_er(n, float(rng.uniform(0.004, 0.02)), seed=4000 + j)
        elif kind == 1:
            g = gen_nws(n, 6, 0.08, seed=5000 + j)
        else:
            g = _clustered_near(n, seed=6000 + j)
        cases.append((g, tiles[j % 3]))
    cases.append((gen_er(1500, 0.004, seed=71), 128))
    cases.append((gen_nws(2000, 6, 0.05, seed=72), 256))
    return cases


def test_apsp_exact_equivalence():
    # graded by all-pairs Dijkstra, which shares no kernel with the engine
    t0 = time.monotonic()
    cases = _apsp_cases()
    assert len(cases) >= 200
    modes = Counter()
    for g, tile in cases:
        res = recursive_apsp(g, max_tile=tile)
        want = dijkstra_oracle(g)
        assert np.array_equal(res.dist, want), (
            f"mismatch on n={g.n} tile={tile}"
        )
        if res.hierarchy.levels[0].partition.k > 1:
            modes[res.trace.mode] += 1
    # graphs without small separators close directly; the recursion must
    # still carry a good share of the multi-tile graphs
    assert modes["direct"] and modes["dense"] >= 60, modes
    dt = time.monotonic() - t0
    assert dt < 300.0
    print(f"PASS apsp exact equivalence: {len(cases)} graphs, "
          f"zero mismatches, {modes['dense']} multi-tile recursive, "
          f"{modes['direct']} direct, {dt:.0f}s")


def test_device_schedule_runs_exactly_on_a_corpus_slice():
    # a seeded slice of the small multi-tile corpus graphs at tiles 64 and
    # 128 (the event oracle's broadcast passes grow as tile^3), the dense
    # and lazy schedules of each run event by event
    rng = np.random.default_rng(SEED)
    small = [(g, t) for g, t in _apsp_cases()[:152] if t < 256 and g.n > t]
    depths = Counter()
    for j in rng.choice(len(small), size=12, replace=False).tolist():
        g, tile = small[j]
        hier = build_hierarchy(g, tile)
        depths[hier.depth] += 1
        for mode in ("dense", "lazy"):
            check_schedule_run(g, hier, schedule(hier, mode))
    assert sum(n for depth, n in depths.items() if depth > 1) >= 3, depths
    print(f"PASS device schedule exact on a corpus slice: 12 of {len(small)} "
          f"graphs, depths {dict(sorted(depths.items()))}")


# ---------------------------------------------------------------------------
# 2. windowed aligner equals the reference scorer at every window width
# ---------------------------------------------------------------------------


def test_s2g_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 1)
    widths = (8, 32, 64, 128, 256)
    pairs = 0
    for i in range(64):
        bases = int(rng.integers(300, 901))
        gfa, _ = gen_genome(bases, float(rng.uniform(0.02, 0.05)), seed=100 + i)
        g = parse_gfa(gfa)
        assert g.n <= 1000 + bases  # bubbles only add a few percent
        length = int(rng.integers(30, min(700, bases - 50)))
        reads = gen_reads(g, 6, length, (0.0, 0.02, 0.08)[i % 3], seed=200 + i)
        for r in range(2):  # off-graph queries exercise the mismatch path
            q = "".join("ACGT"[b] for b in rng.integers(0, 4, size=int(rng.integers(20, 301))))
            reads.append((f"x{r}", q))
        for _, q in reads:
            assert len(q) <= 1000
            ref = align_reference(g, q)
            for W in widths:
                got = align_windowed(g, q, W=W)
                assert got.score_max == ref.score_max, (g.n, len(q), W)
                assert np.array_equal(got.end_nodes, ref.end_nodes)
            pairs += 1
    dt = time.monotonic() - t0
    assert pairs >= 500
    assert dt < 180.0
    print(f"PASS s2g oracle equivalence: {pairs} read/graph pairs x "
          f"{len(widths)} widths, exact, {dt:.0f}s")


# ---------------------------------------------------------------------------
# 3. severed boundary graph preserves boundary-to-boundary distances
# ---------------------------------------------------------------------------


def test_boundary_graph_soundness():
    rng = np.random.default_rng(SEED + 2)
    checked = 0
    for i in range(56):
        n = int(rng.integers(50, 401))
        if i % 3 == 0:
            g = gen_nws(max(n, 12), 4, 0.1, seed=300 + i)
        elif i % 3 == 1:
            g = _clustered_near(n, seed=400 + i)
        else:
            g = gen_er(n, float(rng.uniform(0.02, 0.06)), seed=500 + i)
        p = kway_partition(g, 2 + i % 5)
        bs = find_boundary(g, p)
        if bs.union.size == 0:
            continue
        d0 = distance_init(g)
        for c in range(p.k):
            ids = p.component(c)
            d0[np.ix_(ids, ids)] = floyd_warshall_dense(d0[np.ix_(ids, ids)])
        got = floyd_warshall_dense(d0[np.ix_(bs.union, bs.union)])
        want = floyd_warshall_dense(distance_init(g))[np.ix_(bs.union, bs.union)]
        assert np.array_equal(got, want), f"boundary mismatch n={g.n} k={p.k}"
        checked += 1
    assert checked >= 50
    print(f"PASS boundary soundness: {checked} graphs, exact")


# ---------------------------------------------------------------------------
# 4. comparator tree reduces each 1024-wide row in exactly 13 cycles
# ---------------------------------------------------------------------------


def test_comparator_tree_timing():
    for rows in (1, 7, 64, 1024, 5000):
        rep = model_mp_merge(rows, 1024)
        assert rep.phases["reduce"].cycles == rows * 13
    print("PASS comparator tree timing: 13 cycles per 1024-wide row, exact")


# ---------------------------------------------------------------------------
# 5. tile-size sensitivity reproduces the published latency ratios
# ---------------------------------------------------------------------------


def test_tile_size_sensitivity():
    t0 = time.monotonic()
    g = make_tile_workload()
    assert 1.8e6 < g.edge_count < 2.2e6  # two-million-arc synthetic input
    rows = sweep_tile_size([256, 512, 1024, 2048], g=g)
    lat = {N: l for N, l, _ in rows}
    en = {N: e for N, _, e in rows}
    targets = {256: 2.41, 512: 1.28, 2048: 2.29}
    assert lat[1024] == 1.0
    for N, want in targets.items():
        assert abs(lat[N] - want) <= 0.15 * want, (N, lat[N], want)
    assert lat[256] > lat[512] > lat[1024] < lat[2048]  # convex, min at 1024
    assert en[256] < en[512] < en[1024] < en[2048]
    dt = time.monotonic() - t0
    assert dt < 600.0
    detail = " ".join(f"{N}:{lat[N]:.2f}/{targets.get(N, 1.0):.2f}"
                      for N in (256, 512, 1024, 2048))
    print(f"PASS tile-size sensitivity: norm latency vs target {detail}, "
          f"within 15%, {dt:.0f}s")


# ---------------------------------------------------------------------------
# 6. SRAM capacity sweep: spill traffic and the design-point footprint
# ---------------------------------------------------------------------------


def test_sram_sweep_properties():
    caps = [32768, 65536, 98304, 131072, 163840, 196608, 262144, 393216, 524288]
    rows = sweep_sram(caps)
    irr = [r[2] for r in rows]
    thr = [r[3] for r in rows]
    assert all(a >= b for a, b in zip(irr, irr[1:]))  # monotone non-increasing
    covered = [r for r in rows if r[0] >= 196608]  # 12288 nodes x 16 B
    assert all(r[2] == 0.0 for r in covered)
    hi = [t for c, _, _, t in [(r[0], r[1], r[2], r[3]) for r in covered]]
    assert max(hi) / min(hi) - 1.0 < 0.02
    assert working_set_bytes(16384, 128) == 262144
    print("PASS sram sweep: irregular traffic monotone, zero at coverage, "
          "<2% flat above, 16384 states fill 256 KiB")


# ---------------------------------------------------------------------------
# 7. traversal throughput versus PE density
# ---------------------------------------------------------------------------


def test_pe_density_saturation():
    rows = dict((c, t) for c, t, _ in sweep_pe_density([16, 64, 128, 192]))
    knee = rows[64] / rows[16]
    flat = rows[192] / rows[128]
    assert knee >= 2.5, knee
    assert flat <= 1.05, flat
    print(f"PASS pe-density saturation: 64/16 PEs = {knee:.2f}x (>=2.5), "
          f"192/128 = {flat:.3f}x (<=1.05)")


# ---------------------------------------------------------------------------
# 8. arithmetic intensities under the documented counting conventions
# ---------------------------------------------------------------------------


def test_roofline_intensities():
    fw = arithmetic_intensity("FwPartitioned", n=1024).ops_per_byte
    classic = arithmetic_intensity("FwClassic").ops_per_byte
    assert abs(fw - 512.0) <= 0.02 * 512.0
    assert abs(classic - 0.167) <= 0.10 * 0.167
    print(f"PASS roofline: FwPartitioned(1024)={fw:g} (512 +-2%), "
          f"FwClassic={classic:.3f} (0.167 +-10%)")


# ---------------------------------------------------------------------------
# 9. determinism: byte-identical reruns
# ---------------------------------------------------------------------------


def _snapshot(d):
    return {name: (d / name).read_bytes() for name in sorted(os.listdir(d))}


def test_cli_determinism(tmp_path):
    d = tmp_path / "w"
    cmds = [
        ["gen", "er", "--n", "150", "--p", "0.03", "--seed", "7"],
        ["gen", "nws", "--n", "120", "--k", "6", "--p", "0.1", "--seed", "7"],
        ["gen", "genome", "--bases", "1500", "--bubble-rate", "0.02",
         "--reads", "6", "--read-len", "90", "--sub-rate", "0.02",
         "--seed", "7"],
        ["apsp", "--graph", "GRAPH", "--max-tile", "64", "--fmt", "tsv",
         "--model"],
        ["s2g", "--graph", "GFA", "--reads", "READS", "--model",
         "--W-sweep", "32,64,128"],
        ["sweep", "roofline"],
        ["sweep", "pe", "--counts", "16,64,128"],
        ["sweep", "sram", "--caps", "64K..256K"],
        ["sweep", "tilesize", "--Ns", "512,1024"],
        ["plan", "s2g", "--graph", "GFA", "--reads", "READS"],
        ["plan", "apsp", "--graph", "GRAPH", "--max-tile", "128"],
    ]

    def fill(cmd):
        sub = {"GRAPH": str(d / "graph.edges"), "GFA": str(d / "graph.gfa"),
               "READS": str(d / "reads.fa")}
        return [sub.get(tok, tok) for tok in cmd] + ["--out", str(d)]

    for cmd in cmds:
        assert cli_main(fill(cmd)) == 0, cmd
    before = _snapshot(d)
    for cmd in cmds:
        assert cli_main(fill(cmd)) == 0, cmd
    assert _snapshot(d) == before
    print(f"PASS determinism: {len(cmds)} commands byte-identical on rerun")
