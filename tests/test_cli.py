import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import graphdp.cli as cli
import graphdp.costmodel as costmodel
import graphdp.planner as planner
from graphdp.apsp import TSV_LIMIT, load_distances
from graphdp.cli import UsageError, main
from graphdp.costmodel import ValidationError
from graphdp.graphs import (
    AlphabetError,
    GraphError,
    WeightedGraph,
    distance_init,
    dump_edge_list,
    dump_fasta,
    gen_clustered,
    gen_er,
    gen_nws,
    load_edge_list,
    load_fasta,
    load_genome_graph,
)
from graphdp.minplus import floyd_warshall_dense
from graphdp.partition import HierarchyError
from graphdp.planner import PlanError
from oracles import load_edge_list_reference, model_recursive_apsp_reference


def run(*argv):
    return main([str(a) for a in argv])


def _gen_inputs(tmp_path, bases=2000, reads=6, read_len=90, sub_rate=0.0, seed=3):
    d = tmp_path / "in"
    rc = run(
        "gen", "genome", "--bases", bases, "--bubble-rate", "0.02",
        "--reads", reads, "--read-len", read_len, "--sub-rate", sub_rate,
        "--seed", seed, "--out", d,
    )
    assert rc == 0
    return str(d / "graph.gfa"), str(d / "reads.fa")


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_er_round_trips(tmp_path, capsys):
    assert run("gen", "er", "--n", 150, "--p", 0.03, "--seed", 42,
               "--out", tmp_path) == 0
    g = load_edge_list(str(tmp_path / "graph.edges"))
    assert g.n == 150 and g.edge_count > 0
    cfg = json.loads((tmp_path / "run.json").read_text())
    assert cfg["command"] == "gen.er" and cfg["seed"] == 42
    out = capsys.readouterr().out
    assert "n=150" in out and "seed=42" in out


def test_gen_nws_round_trips(tmp_path):
    assert run("gen", "nws", "--n", 120, "--k", 6, "--p", 0.1,
               "--out", tmp_path) == 0
    g = load_edge_list(str(tmp_path / "graph.edges"))
    # ring lattice floor: both arcs stored
    assert g.edge_count >= 120 * 6


def test_gen_genome_outputs_reload(tmp_path):
    gfa, reads = _gen_inputs(tmp_path, bases=1500, reads=4)
    g = load_genome_graph(gfa)
    assert g.n >= 1500
    assert len(load_fasta(reads)) == 4
    ref = load_fasta(str(tmp_path / "in" / "ref.fa"))
    assert ref[0][0] == "ref" and len(ref[0][1]) == 1500


def test_gen_missing_params_is_usage_error(tmp_path, capsys):
    for argv, flag in (
        (("er", "--p", 0.1), "--n"), (("genome",), "--bases"),
        (("nws", "--n", 50, "--p", 0.1), "--k"),
    ):
        assert run("gen", *argv, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert flag in err, err


def test_gen_bad_params_is_usage_error(tmp_path, capsys):
    assert run("gen", "er", "--n", -5, "--p", 0.1, "--out", tmp_path) == 2
    assert run("gen", "er", "--n", 10, "--p", 1.5, "--out", tmp_path) == 2
    for bad in (
        ("nws", "--k", 2, "--p", 2), ("nws", "--k", 2, "--p", -0.5),
        ("nws", "--k", 2, "--p", "nan"),
        ("er", "--p", 0.1, "--w-max", 0), ("er", "--p", 0.1, "--w-max", -1),
        ("er", "--p", 0.1, "--w-max", 2**31),
        ("nws", "--k", 2, "--p", 0.1, "--w-max", 0),
        ("nws", "--k", 2, "--p", 0.1, "--w-max", -1),
    ):
        capsys.readouterr()
        assert run("gen", *bad, "--n", 10, "--out", tmp_path) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, bad
    # read parameters are checked whether or not reads are asked for, and
    # before the genome files are written
    for i, bad in enumerate((
        ("--reads", -3), ("--reads", 2, "--sub-rate", 2), ("--bubble-rate", 3),
        ("--sub-rate", 2), ("--sub-rate", -0.5), ("--read-len", 0),
        ("--reads", 2, "--read-len", 0),
    )):
        out = tmp_path / f"genome{i}"
        capsys.readouterr()
        assert run("gen", "genome", "--bases", 100, *bad, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, bad
        assert not any((out / f).exists() for f in ("graph.gfa", "ref.fa")), bad


def test_graph_too_large_to_allocate_exits_2(tmp_path, capsys):
    # gen's first allocation exceeds the 128 TiB x86-64 address space, so
    # it fails at once on any host; the partitioner refuses ids past int32
    # before it allocates, and its part count comes first and must not step
    # through the vertex count
    graph = tmp_path / "huge.edges"
    graph.write_text("# n=1000000000000000\n0\t1\t1\n")
    for argv, want in (
        (
            ("plan", "apsp", "--graph", graph, "--out", tmp_path / "plan"),
            "error: cannot partition n=1000000000000000: ids must fit int32\n",
        ),
        (("gen", "er", "--n", 10**12, "--p", 0, "--out", tmp_path / "gen"), "error: out of memory: "),
    ):
        capsys.readouterr()
        assert run(*argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(want) and err.count("\n") == 1, argv


# ---------------------------------------------------------------------------
# apsp
# ---------------------------------------------------------------------------


def test_apsp_exports_and_verifies(tmp_path, capsys):
    assert run("gen", "er", "--n", 120, "--p", 0.04, "--seed", 9,
               "--out", tmp_path) == 0
    rc = run("apsp", "--graph", tmp_path / "graph.edges", "--max-tile", 32,
             "--verify", "--fmt", "tsv", "--out", tmp_path)
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    got = load_distances(str(tmp_path / "dist.tsv"))
    g = load_edge_list(str(tmp_path / "graph.edges"))
    assert np.array_equal(got, floyd_warshall_dense(distance_init(g)))


def test_verify_catches_a_faulty_closure_kernel(tmp_path, monkeypatch, capsys):
    # a kernel that closes nothing, wherever the engine or the CLI calls it:
    # the verify paths must not grade the engine with its own kernel
    import graphdp.apsp
    import graphdp.minplus

    def no_closure(d, **kw):
        return np.array(d, dtype=np.uint32)

    for mod in (graphdp.minplus, graphdp.apsp, cli):
        if hasattr(mod, "floyd_warshall_dense"):
            monkeypatch.setattr(mod, "floyd_warshall_dense", no_closure)
    assert run("gen", "er", "--n", 120, "--p", 0.04, "--seed", 9,
               "--out", tmp_path) == 0
    capsys.readouterr()
    assert run("apsp", "--graph", tmp_path / "graph.edges", "--max-tile", 32,
               "--verify", "--out", tmp_path) == 1
    assert "FAIL (" in capsys.readouterr().out
    assert run("verify") == 1
    out = capsys.readouterr().out
    assert "FAIL apsp-exactness" in out and "FAIL boundary-soundness" in out


def test_apsp_over_dense_limit_exits_2_before_closing(tmp_path, monkeypatch, capsys):
    # past 4,096 vertices the dense matrix the engine builds and exports is
    # too large, so apsp refuses the graph before it closes anything
    n = 4200
    path = tmp_path / "ring.edges"
    ring = WeightedGraph.from_edges(n, [(i, (i + 1) % n, 1) for i in range(n)])
    dump_edge_list(ring, str(path))

    def closure_kernel(d):
        raise AssertionError("closure ran")

    def partitioner(g, max_tile):
        raise AssertionError("partitioned")

    monkeypatch.setattr("graphdp.apsp.floyd_warshall_dense", closure_kernel)
    monkeypatch.setattr("graphdp.apsp.build_hierarchy", partitioner)
    assert run("apsp", "--graph", path, "--max-tile", 64, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "n=4200" in err and "4096" in err
    assert run("plan", "apsp", "--graph", path, "--max-tile", 64,
               "--out", tmp_path) == 0


def test_apsp_tsv_over_its_limit_exits_2_before_closing(tmp_path, monkeypatch, capsys):
    # a tsv export holds at most TSV_LIMIT vertices, so apsp --fmt tsv
    # refuses a larger graph before the engine runs, and writes nothing
    n = TSV_LIMIT + 1
    path = tmp_path / "ring.edges"
    ring = WeightedGraph.from_edges(n, [(i, (i + 1) % n, 1) for i in range(n)])
    dump_edge_list(ring, str(path))

    def engine(w, cost_model_on=False):
        raise AssertionError("engine ran")

    monkeypatch.setattr(cli, "execute", engine)
    out = tmp_path / "o"
    assert run("apsp", "--graph", path, "--fmt", "tsv", "--out", out) == 2
    err = capsys.readouterr().err
    assert err == f"error: tsv export capped at {TSV_LIMIT} vertices, not n={n}\n"
    assert not out.exists()
    monkeypatch.undo()
    assert run("apsp", "--graph", path, "--out", out) == 0


def test_apsp_and_s2g_run_without_lowering_a_plan(tmp_path, monkeypatch):
    # apsp and s2g hand their workload to the engines; only plan lowers
    # one, and an apsp run partitions its graph once, inside the engine
    from graphdp.partition import build_hierarchy

    def lower(w):
        raise AssertionError("lowered a plan")

    builds = []

    def counting(g, max_tile):
        builds.append(g.n)
        return build_hierarchy(g, max_tile)

    monkeypatch.setattr(cli, "lower", lower)
    monkeypatch.setattr("graphdp.planner.build_hierarchy", counting)
    monkeypatch.setattr("graphdp.apsp.build_hierarchy", counting)
    g = gen_clustered(10, 40, seed=2)
    dump_edge_list(g, str(tmp_path / "g.edges"))
    assert run("apsp", "--graph", tmp_path / "g.edges", "--max-tile", 32,
               "--model", "--verify", "--out", tmp_path / "apsp") == 0
    assert builds == [g.n]
    gfa, reads = _gen_inputs(tmp_path)
    for extra in ([], ["--W-sweep", "16,64"]):
        assert run("s2g", "--graph", gfa, "--reads", reads, "--model", "--verify",
                   *extra, "--out", tmp_path / "s2g") == 0
    assert builds == [g.n]


def test_apsp_disconnected_renders_inf(tmp_path):
    g = WeightedGraph(3, np.array([0]), np.array([1]), np.array([7]))
    dump_edge_list(g, str(tmp_path / "g.edges"))
    assert run("apsp", "--graph", tmp_path / "g.edges", "--fmt", "tsv",
               "--out", tmp_path) == 0
    text = (tmp_path / "dist.tsv").read_text()
    assert "inf" in text and "\t7" in text.splitlines()[0]


def test_apsp_model_emits_cost_reports(tmp_path):
    assert run("gen", "er", "--n", 90, "--p", 0.05, "--out", tmp_path) == 0
    assert run("apsp", "--graph", tmp_path / "graph.edges", "--max-tile", 32,
               "--model", "--out", tmp_path) == 0
    csv_text = (tmp_path / "cost.csv").read_text()
    assert csv_text.startswith("phase,cycles,ns,pJ")
    doc = json.loads((tmp_path / "cost.json").read_text())
    assert doc["cycles"] > 0
    cfg = json.loads((tmp_path / "run.json").read_text())
    assert cfg["device"]["pcm"]["unit_dim"] == 1024


@pytest.mark.parametrize(
    "graph,tile,mode",
    [
        (gen_clustered(32, 64, 2, groups=4), 256, "dense"),
        (gen_er(1000, 0.006, 2), 128, "direct"),
        (gen_nws(220, 4, 0.05, 4), 32, "dense"),  # a truncated hierarchy
    ],
    ids=["clustered", "er", "truncated"],
)
def test_apsp_outputs_match_the_reference_reader_and_pricing(
    tmp_path, monkeypatch, capsys, graph, tile, mode
):
    path = tmp_path / "g.edges"
    dump_edge_list(graph, str(path))
    d = tmp_path / "o"
    snaps = []
    for reference in (False, True):
        if reference:
            monkeypatch.setattr(cli, "load_edge_list", load_edge_list_reference)
            monkeypatch.setattr(
                planner, "model_recursive_apsp", model_recursive_apsp_reference
            )
        assert run("apsp", "--graph", path, "--max-tile", tile, "--model",
                   "--out", d) == 0
        out = capsys.readouterr().out
        assert f"mode={mode} " in out
        files = ("dist.bin", "cost.json", "cost.csv", "run.json")
        snaps.append((out, {f: (d / f).read_bytes() for f in files}))
    assert snaps[0] == snaps[1]


def test_threads_flag_is_accepted_and_ignored(tmp_path, capsys):
    # --threads is kept for existing scripts; the engine runs sequentially,
    # so every output file, run.json included, is the same for any count
    graph = tmp_path / "g.edges"
    dump_edge_list(gen_clustered(10, 40, seed=9), str(graph))
    d = tmp_path / "w"
    snaps = []
    for threads in (1, 3):
        assert run("apsp", "--graph", graph, "--max-tile", 32, "--model",
                   "--threads", threads, "--out", d) == 0
        assert "mode=dense" in capsys.readouterr().out
        snaps.append({f: (d / f).read_bytes() for f in sorted(os.listdir(d))})
    assert snaps[0] == snaps[1]


# SHA-256 of what apsp --model and plan apsp write: a refactor
# keeps these outputs byte-identical
_PINNED = {
    "clustered": (
        lambda: gen_clustered(32, 64, 3, groups=4),
        256,
        {
            "apsp/dist.bin": "5f4d8f9ba08eba1c5de6cb2d47c3802b7263fa3807997fcb61307f354ac8aea3",
            "apsp/cost.json": "da7a4fb5fb9dbd7290a70f3fe4c088bb562efeee8e0b7375177913a5b2fa92e8",
            "apsp/cost.csv": "cd447ba17e75571b7f7141fedc2cd8ab6b412073d5cd52be9e46624789c82db7",
            "plan/plan.json": "ce0d4cc3b9dfedb5dd84d20392ed69a6a6551c5a76408d55725512165b6fd61d",
        },
    ),
    "er": (
        lambda: gen_er(1000, 0.006, 1),
        128,
        {
            "apsp/dist.bin": "7e2ad36f98360f75100d30c30ed9af18dd787d83b0748d29af30d235c44ccf5c",
            "apsp/cost.json": "7db6b782b8e751f9b3026cf6f72008e7c816575949aa88d87a2820c676259996",
            "apsp/cost.csv": "1a7b6e9cd08692ca6284cc445959f1278b4782b7b6751ebfca12ff3c42b5e7f0",
            "plan/plan.json": "880db678fa3fb56a815383c96a717102da6350a14662654bd8a364699df16f4c",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_apsp_and_plan_outputs_keep_their_digests(tmp_path, case):
    make, tile, want = _PINNED[case]
    graph = tmp_path / "g.edges"
    dump_edge_list(make(), str(graph))
    assert run("apsp", "--graph", graph, "--max-tile", tile, "--model",
               "--out", tmp_path / "apsp") == 0
    assert run("plan", "apsp", "--graph", graph, "--max-tile", tile,
               "--out", tmp_path / "plan") == 0
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in want
    }
    assert got == want


# SHA-256 of what each gen and sweep kind writes, its run.json included; the
# commands run from the test's directory with a relative --out, because
# run.json and the sweep CSVs' config line record --out
_GEN_SWEEP_CMDS = [
    ("gen", "er", "--n", 150, "--p", 0.03, "--w-max", 50, "--seed", 42),
    ("gen", "nws", "--n", 120, "--k", 6, "--p", 0.1, "--seed", 3),
    ("gen", "genome", "--bases", 1500, "--bubble-rate", 0.03, "--reads", 4,
     "--read-len", 90, "--sub-rate", 0.02, "--seed", 7),
    ("sweep", "tilesize", "--Ns", "512,1024", "--config", "dev.json"),
    ("sweep", "pe", "--counts", "16,64,128", "--config", "dev.json"),
    ("sweep", "sram", "--caps", "64K..256K"),
    ("sweep", "roofline", "--n", 512),
]
_GEN_SWEEP_PINNED = {
    "er/graph.edges": "dc4784fc2280efc2ed978a0e591db44f7cd4397082038e37fef4289eb6894de8",
    "er/run.json": "db492efa6e909d01bb74048ee3ccb07a42241cd07dba86bce4547d3b6c227050",
    "nws/graph.edges": "b934f83adc2f09fa1a85589421a3c30ca6d5d4ac763eb824fe1b095f0e38ad94",
    "nws/run.json": "f63721a38b20727b866a0f596edd7cc947419a2a769717fb2dcdedf878a50aa0",
    "genome/graph.gfa": "ce9324140ca2d360ddeaa201125d46337bde77dbdaaf13287570b7253f5b3b9d",
    "genome/reads.fa": "3fd100a501f2e4a7538a98922a860614c1c3db12d047b6605d5c4bba6ee3549a",
    "genome/ref.fa": "c3d78f77495892f559b0cbad45ab805b07999c782ce42f5538d71327a51c33a0",
    "genome/run.json": "e0c966c6a517c1d933ef7cf51a7980dff60d91b1587a7fadf1ab697b90befa8d",
    "tilesize/tilesize.csv": "f9f4a9c2b03f535ed3ba5c08a51a2169f236f5f6635709890bb265d076831c43",
    "tilesize/run.json": "512f5a8b0ffcda119ab3f9a43512fd660af722a7ca16bba66192ecc6e517cc5b",
    "pe/pe.csv": "a93c3c967ee872a3824d8efc92638758f28b91492e0a4fc2dd018ddd1b773eee",
    "pe/run.json": "b86e302b2deb6487c8fb9dcd6d7ef708b0da20eb13834dd1b1df764855262790",
    "sram/sram.csv": "b5c483710c08c89af766d91baa20e5671a54f80ccd6edc9d3d1607175f5e9de0",
    "sram/run.json": "79aff0af3924b1bbcff28c789ddf76fa63b5c3b1b8ad3e920f41132bd2431c2f",
    "roofline/roofline.csv": "847b46b141fa03c716bb1df05b8b1a08b0d257e231126e38e7f629facdb2bcd7",
    "roofline/run.json": "6df1d2a2462364e123e0117024feec2d998407dd82e0cc415732e4e13499490e",
}


def test_gen_and_sweep_outputs_keep_their_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dev.json").write_text(
        json.dumps({"pcm": {"unit_dim": 512}, "hbm": {"channels": 8}})
    )
    for argv in _GEN_SWEEP_CMDS:
        assert run(*argv, "--out", argv[1]) == 0, argv
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in _GEN_SWEEP_PINNED
    }
    assert got == _GEN_SWEEP_PINNED


# SHA-256 of what apsp, s2g and each plan kind write, run.json included;
# inputs and --out are relative to the test's directory, because run.json
# records both.  The exact 1,500 bp reads of genome-long reach the scorer's
# sparse phase and cross whole runs of sole successors there.
_GEN_LONG = ("gen", "genome", "--bases", 3000, "--bubble-rate", 0.03,
             "--reads", 3, "--read-len", 1500, "--sub-rate", 0, "--seed", 8)
_RUN_CMDS = {
    "apsp": ("apsp", "--graph", "er/graph.edges", "--max-tile", 64, "--model"),
    "s2g": ("s2g", "--graph", "genome/graph.gfa", "--reads", "genome/reads.fa",
            "--model", "--W-sweep", "32,128"),
    "plan-apsp": ("plan", "apsp", "--graph", "er/graph.edges", "--max-tile", 64),
    "plan-s2g": ("plan", "s2g", "--graph", "genome/graph.gfa",
                 "--reads", "genome/reads.fa"),
    "s2g-long": ("s2g", "--graph", "genome-long/graph.gfa",
                 "--reads", "genome-long/reads.fa", "--mode", "long", "--model"),
}
_RUN_PINNED = {
    "apsp/cost.csv": "3f9d34df2fc42ec9c4d54151f0d3d4ee44659d213fcc7324e9c227beff2c9e95",
    "apsp/cost.json": "877ee9bf82756b5289b58b85bcbb411672565245cb52c5100ec8b208bdf342cf",
    "apsp/dist.bin": "e8abce664886e0938b39ccdf4331b8285323fa243a15077e6be60abbea6b9f6f",
    "apsp/run.json": "3f010f10580eb976af1cbb4df30a3bdb4a5afc9908f260ae2549feaf865a3bcb",
    "s2g/model.json": "b86fd44dba34279884e6c3cea19441616c3fc7b7ed1f7da67bc10e87edd9f6de",
    "s2g/run.json": "45515eb217bae10eb7ef37be0dff306fd638c992bd90258ae5a4f7ae20014ee7",
    "s2g/scores.tsv": "a6675bdbb7eadc137c50737a5dfa89ccb3463ef0a8060428feac93739ff280ae",
    "s2g/wsweep.csv": "73abd639c6668d9554bb1deb56becdc06fe88a4e102236d7472f8bc16d2df262",
    "plan-apsp/plan.json": "880db678fa3fb56a815383c96a717102da6350a14662654bd8a364699df16f4c",
    "plan-apsp/run.json": "88f2337667fb9d01a26dbf0136e1e0fbf04dfdc4716fc7c2b7668cb35a9a5a85",
    "plan-s2g/plan.json": "9c6dcec38d5b74c7f6c0f1b06c12f8594605075a6105256ae1ceae5954b0b5b5",
    "plan-s2g/run.json": "cec94ec7b01baaa109c2a6d75ae1d559e5f4a9210f9663a84a28a1c906232734",
    "s2g-long/model.json": "df94bebac64c66059073d6c377c615445d615fe04edcc3069ab06065708bd6a7",
    "s2g-long/run.json": "c7d2b91dbfebda29daebc798fe7890df33f785061c650875fd9941e0845e5e67",
    "s2g-long/scores.tsv": "b6d689865712a36fd2902275b43c8485e8f5c03d54e85cd080bca81700bc4b3f",
}


def test_apsp_s2g_and_plan_run_files_keep_their_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in (_GEN_SWEEP_CMDS[0], _GEN_SWEEP_CMDS[2]):  # gen er, gen genome
        assert run(*argv, "--out", argv[1]) == 0, argv
    assert run(*_GEN_LONG, "--out", "genome-long") == 0
    for out, argv in _RUN_CMDS.items():
        assert run(*argv, "--out", out) == 0, argv
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in _RUN_PINNED
    }
    assert got == _RUN_PINNED


def test_apsp_missing_graph_file_is_usage_error(tmp_path):
    assert run("apsp", "--graph", tmp_path / "nope.edges",
               "--out", tmp_path) == 2


def test_apsp_undecodable_edge_list_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_bytes(b"# n=3\n0\t1\t5\n1\t2\t\xff\n")
    assert run("apsp", "--graph", path, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# s2g
# ---------------------------------------------------------------------------


def test_s2g_exact_reads_score_full_length(tmp_path):
    gfa, reads = _gen_inputs(tmp_path, reads=5, read_len=80, sub_rate=0.0)
    out = tmp_path / "o"
    assert run("s2g", "--graph", gfa, "--reads", reads, "--verify",
               "--out", out) == 0
    rows = [ln.split("\t") for ln in (out / "scores.tsv").read_text().splitlines()]
    assert len(rows) == 5
    assert all(int(r[1]) == 80 for r in rows)


def test_s2g_w_sweep_scores_invariant_cycles_reported(tmp_path):
    gfa, reads = _gen_inputs(tmp_path, reads=4, read_len=70, sub_rate=0.05)
    out = tmp_path / "o"
    rc = run("s2g", "--graph", gfa, "--reads", reads,
             "--W-sweep", "32,64,128", "--out", out)
    assert rc == 0
    lines = (out / "wsweep.csv").read_text().splitlines()
    assert lines[0].startswith("# columns: W,cycles")
    data = [ln for ln in lines if not ln.startswith("#")]
    assert len(data) == 3
    assert [int(ln.split(",")[0]) for ln in data] == [32, 64, 128]


def test_s2g_verify_failure_names_read_and_exits_1(tmp_path, monkeypatch, capsys):
    gfa, reads = _gen_inputs(tmp_path, reads=3, read_len=60)
    real = cli.align_reference
    monkeypatch.setattr(
        cli, "align_reference",
        lambda g, q: replace(real(g, q), score_max=real(g, q).score_max + 1),
    )
    rc = run("s2g", "--graph", gfa, "--reads", reads, "--verify",
             "--out", tmp_path / "o")
    assert rc == 1
    assert "FAIL read r" in capsys.readouterr().out


def test_s2g_verify_failure_shows_what_differs(tmp_path, monkeypatch, capsys):
    # equal scores with other end nodes are a failure, and the line says so
    gfa, reads = _gen_inputs(tmp_path, reads=3, read_len=60)
    real = cli.align_reference
    monkeypatch.setattr(
        cli, "align_reference",
        lambda g, q: replace(real(g, q), end_nodes=real(g, q).end_nodes + 1),
    )
    rc = run("s2g", "--graph", gfa, "--reads", reads, "--verify",
             "--out", tmp_path / "o")
    assert rc == 1
    fail = capsys.readouterr().out.splitlines()[-1]
    want = real(load_genome_graph(gfa), dict(load_fasta(reads))["r0"])
    ends = want.end_nodes.tolist()
    assert fail == (
        f"FAIL read r0: got (score, end nodes) ({want.score_max}, {ends}), "
        f"want ({want.score_max}, {[e + 1 for e in ends]})"
    )


def test_s2g_w_sweep_windowed_mismatch_exits_1(tmp_path, monkeypatch, capsys):
    gfa, reads = _gen_inputs(tmp_path, reads=3, read_len=60)
    real = cli.align_windowed
    monkeypatch.setattr(
        cli, "align_windowed",
        lambda g, q, W: replace(real(g, q, W=W), windows=real(g, q, W=W).windows + 1),
    )
    rc = run("s2g", "--graph", gfa, "--reads", reads, "--W-sweep", "32,64",
             "--out", tmp_path / "o")
    assert rc == 1
    assert "FAIL read r" in capsys.readouterr().out


def test_s2g_model_reports_throughput(tmp_path):
    gfa, reads = _gen_inputs(tmp_path, reads=4)
    out = tmp_path / "o"
    assert run("s2g", "--graph", gfa, "--reads", reads, "--model",
               "--out", out) == 0
    doc = json.loads((out / "model.json").read_text())
    assert doc["reads"] == 4 and doc["reads_per_s"] > 0
    assert doc["cost"]["cycles"] > 0


def test_s2g_forced_short_on_long_reads_is_usage_error(tmp_path, capsys):
    # the workload checks every read rule as it batches the reads, so
    # scoring and planning refuse a bad reads file alike, before any output
    # is written
    gfa, long_reads = _gen_inputs(tmp_path, bases=3000, reads=2, read_len=900)
    with open(long_reads) as fh:
        long_text = fh.read()
    cases = [  # reads file, --mode, message
        (long_text, "short", "read r0 too long for a short batch"),
        (">r0\nACGTXX\n", "auto", "read r0 char 'X' not in ACGTN"),
        # FASTA sequence lines are upper-cased as they load
        (">r0\nACGT\n>r1\nAC\u00e9\n", "auto", "read r1 char '\u00c9' not in ACGTN"),
        (">r0\n>r1\nACGT\n", "auto", "read r0 is empty"),
        ("", "auto", "s2g workload needs reads"),
        (">r0\nACGT\n>r0\nACG\n", "long", "duplicate read id 'r0'"),
    ]
    reads = tmp_path / "r.fa"
    capsys.readouterr()
    for text, mode, message in cases:
        reads.write_text(text, encoding="utf-8")
        inputs = ("--graph", gfa, "--reads", reads, "--mode", mode)
        for argv in (("s2g", *inputs), ("plan", "s2g", *inputs)):
            assert run(*argv, "--out", tmp_path / "o") == 2, argv
            err = capsys.readouterr().err
            assert err == f"error: {message}\n", (argv, err)
            assert not (tmp_path / "o").exists()


def test_s2g_undecodable_gfa_is_usage_error(tmp_path, capsys):
    gfa, reads = _gen_inputs(tmp_path, reads=2, read_len=60)
    bad = tmp_path / "bad.gfa"
    bad.write_bytes(open(gfa, "rb").read().replace(b"\tA", b"\t\xff", 1))
    assert run("s2g", "--graph", bad, "--reads", reads,
               "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["", "\n  \n\t\n"])
def test_s2g_gfa_without_segments_is_usage_error(text, tmp_path, capsys):
    gfa = tmp_path / "empty.gfa"
    gfa.write_text(text)
    reads = tmp_path / "r.fa"
    reads.write_text(">r0\nACGT\n")
    assert run("s2g", "--graph", gfa, "--reads", reads, "--model",
               "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err == "error: no segments\n"
    assert not (tmp_path / "o" / "model.json").exists()


def test_s2g_undecodable_reads_is_usage_error(tmp_path, capsys):
    gfa, _ = _gen_inputs(tmp_path, reads=2, read_len=60)
    bad = tmp_path / "bad.fa"
    bad.write_bytes(b">r0\nAC\xff\xfeGT\n")
    assert run("s2g", "--graph", gfa, "--reads", bad,
               "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_roofline_has_convention_column(tmp_path):
    assert run("sweep", "roofline", "--out", tmp_path) == 0
    lines = (tmp_path / "roofline.csv").read_text().splitlines()
    assert lines[0] == "# columns: kernel,ops_per_byte,convention"
    assert lines[1].startswith("# config:")
    kernels = {ln.split(",")[0] for ln in lines[2:]}
    assert kernels == {"FwClassic", "FwPartitioned", "S2G"}
    fw = next(ln for ln in lines[2:] if ln.startswith("FwPartitioned"))
    assert abs(float(fw.split(",")[1]) - 512.0) < 1e-6


def test_sweep_pe_and_sram_emit_curves(tmp_path):
    assert run("sweep", "pe", "--counts", "16,64,128", "--out", tmp_path) == 0
    pe = [ln for ln in (tmp_path / "pe.csv").read_text().splitlines()
          if not ln.startswith("#")]
    assert len(pe) == 3
    thr = [float(ln.split(",")[1]) for ln in pe]
    assert thr[1] > thr[0]

    assert run("sweep", "sram", "--caps", "64K..256K", "--out", tmp_path) == 0
    sr = [ln for ln in (tmp_path / "sram.csv").read_text().splitlines()
          if not ln.startswith("#")]
    assert [int(ln.split(",")[0]) for ln in sr] == [65536, 131072, 262144]
    irr = [float(ln.split(",")[2]) for ln in sr]
    assert irr == sorted(irr, reverse=True)


def test_sweep_bad_list_is_usage_error(tmp_path):
    assert run("sweep", "pe", "--counts", "a,b", "--out", tmp_path) == 2
    assert run("sweep", "sram", "--caps", "512K..32K", "--out", tmp_path) == 2
    assert run("sweep", "sram", "--caps", "0", "--out", tmp_path) == 2


def test_sweep_tilesize_bad_sizes_exit_2_before_building(tmp_path, monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("graph built before the tile sizes were checked")

    # neither the workload, nor its level-0 graph, nor any hierarchy
    for name in ("make_tile_workload", "_structural_graph", "build_hierarchy"):
        monkeypatch.setattr(costmodel, name, no_build)
    for Ns in ("3", "2048,3", "2048,2048", "0", "1", "-4", "256,512,256"):
        assert run("sweep", "tilesize", "--Ns", Ns, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_sweep_tilesize_default_rows(tmp_path):
    # the tile sizes share one level-0 partition graph; no digit may move
    assert run("sweep", "tilesize", "--out", tmp_path) == 0
    lines = (tmp_path / "tilesize.csv").read_text().splitlines()
    assert [line for line in lines if not line.startswith("#")] == [
        "256,2.18576,0.0635894",
        "512,1.29965,0.252104",
        "1024,1,1",
        "2048,1.96822,3.99575",
    ]


def test_sweep_tilesize_records_the_size_it_normalized_to(tmp_path):
    # without 1024 among the sizes the rows normalize to the upper middle
    # size, and the config line names that size
    assert run("sweep", "tilesize", "--Ns", "256,512", "--out", tmp_path) == 0
    lines = (tmp_path / "tilesize.csv").read_text().splitlines()
    assert json.loads(lines[1].removeprefix("# config: "))["normalized_to"] == 512
    assert lines[2:] == ["256,1.6818,0.252235", "512,1,1"]


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def test_plan_apsp_dump(tmp_path):
    assert run("gen", "er", "--n", 200, "--p", 0.03, "--seed", 1,
               "--out", tmp_path) == 0
    assert run("plan", "apsp", "--graph", tmp_path / "graph.edges",
               "--max-tile", 64, "--out", tmp_path) == 0
    doc = json.loads((tmp_path / "plan.json").read_text())
    assert doc["workload"] == "apsp"
    assert doc["stages"][0]["kind"] == "PartitionBuild"


def test_plan_mixed_batch_shows_two_align_stages(tmp_path):
    gfa, _ = _gen_inputs(tmp_path, bases=3000, reads=0)
    short = [("s0", "ACGT" * 20), ("s1", "ACGT" * 25)]
    long_ = [("l0", "ACGT" * 100)]
    reads_path = tmp_path / "mixed.fa"
    with open(reads_path, "w") as fh:
        for rid, seq in short + long_:
            fh.write(f">{rid}\n{seq}\n")
    assert run("plan", "s2g", "--graph", gfa,
               "--reads", reads_path, "--out", tmp_path) == 0
    doc = json.loads((tmp_path / "plan.json").read_text())
    aligns = [s for s in doc["stages"] if s["kind"] == "AlignBatch"]
    assert len(aligns) == 2
    assert {s["mapping"] for s in aligns} == {"short-parallel", "long-pipeline"}


def test_duplicate_read_ids_exit_2_before_scoring(tmp_path, capsys):
    # results are keyed by read id, so a repeated id would fold two reads
    # into one score row; s2g and plan refuse it, naming the first repeat
    # in file order, and write no scores
    gfa, fa = _gen_inputs(tmp_path, reads=3)
    (_, s0), (_, s1), (_, s2) = load_fasta(fa)
    dup = tmp_path / "dup.fa"
    dump_fasta([("dup", s0), ("x", s1), ("x", s2), ("dup", s0)], str(dup))
    for i, argv in enumerate((
        ("s2g", "--graph", gfa, "--reads", dup, "--verify"),
        ("plan", "s2g", "--graph", gfa, "--reads", dup),
    )):
        out = tmp_path / f"out{i}"
        assert run(*argv, "--out", out) == 2, argv
        assert capsys.readouterr().err == "error: duplicate read id 'x'\n", argv
        assert not (out / "scores.tsv").exists()


def test_plan_without_inputs_is_usage_error(tmp_path, capsys):
    for argv in (("plan",), ("plan", "apsp"), ("plan", "s2g", "--graph", "g.gfa")):
        assert run(*argv, "--out", tmp_path / "o") == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert not (tmp_path / "o").exists()


def test_plan_run_json_records_the_inputs_it_read(tmp_path):
    assert run("gen", "er", "--n", 40, "--p", 0.05, "--out", tmp_path) == 0
    graph = str(tmp_path / "graph.edges")
    gfa, reads = _gen_inputs(tmp_path, bases=600, reads=2)
    cases = [
        (("apsp", "--graph", graph, "--max-tile", 64),
         {"graph": graph, "max_tile": 64, "workload": "apsp"}),
        (("s2g", "--graph", gfa, "--reads", reads, "--mode", "short"),
         {"graph": gfa, "reads": reads, "mode": "short", "workload": "s2g"}),
    ]
    for argv, inputs in cases:
        out = str(tmp_path / argv[0])
        assert run("plan", *argv, "--out", out) == 0, argv
        cfg = json.loads((tmp_path / argv[0] / "run.json").read_text())
        stages = len(json.loads((tmp_path / argv[0] / "plan.json").read_text())["stages"])
        assert cfg == {"command": f"plan.{argv[0]}", "out": out, "stages": stages,
                       "outputs": ["plan.json"], **inputs}, argv


def test_run_json_records_every_flag_but_threads_and_config(tmp_path):
    # one rule for every command: run.json holds each parsed flag, the
    # device --config resolves to, the outputs and, for plan, the workload
    # and its stage count; --threads changes nothing and is not recorded
    dev = tmp_path / "dev.json"
    dev.write_text(json.dumps({"pcm": {"unit_dim": 512}, "hbm": {"channels": 8}}))
    assert run("gen", "er", "--n", 60, "--p", 0.05, "--out", tmp_path) == 0
    graph = str(tmp_path / "graph.edges")
    gfa, reads = _gen_inputs(tmp_path, bases=600, reads=2)
    cmds = [
        ("gen", "er", "--n", 60, "--p", 0.05),
        ("gen", "nws", "--n", 40, "--k", 4, "--p", 0.1),
        ("gen", "genome", "--bases", 300, "--reads", 2),
        ("apsp", "--graph", graph, "--model", "--config", dev),
        ("s2g", "--graph", gfa, "--reads", reads, "--W-sweep", "32,64",
         "--config", dev),
        ("sweep", "tilesize", "--Ns", 2048, "--config", dev),
        ("sweep", "pe", "--config", dev),
        ("sweep", "sram", "--config", dev),
        ("sweep", "roofline"),
        ("plan", "apsp", "--graph", graph),
        ("plan", "s2g", "--graph", gfa, "--reads", reads),
    ]
    for i, argv in enumerate(cmds):
        full = [str(a) for a in (*argv, "--threads", 2, "--out", tmp_path / f"o{i}")]
        assert run(*full) == 0, argv
        cfg = json.loads((tmp_path / f"o{i}" / "run.json").read_text())
        parsed = vars(cli._build_parser().parse_args(full))
        added = {"outputs"} | ({"device"} if "config" in parsed else set())
        added |= {"workload", "stages"} if argv[0] == "plan" else set()
        assert set(cfg) == set(parsed) - {"kind", "threads", "config"} | added, argv
        assert all(cfg[k] == parsed[k] for k in parsed if k in cfg and k != "command")


# ---------------------------------------------------------------------------
# config overrides, determinism, exit codes
# ---------------------------------------------------------------------------


def test_config_overrides_device_params(tmp_path):
    cfgp = tmp_path / "dev.json"
    cfgp.write_text(json.dumps({"pcm": {"unit_dim": 512}}))
    assert run("gen", "er", "--n", 80, "--p", 0.05, "--out", tmp_path) == 0
    assert run("apsp", "--graph", tmp_path / "graph.edges", "--model",
               "--config", cfgp, "--out", tmp_path) == 0
    cfg = json.loads((tmp_path / "run.json").read_text())
    assert cfg["device"]["pcm"]["unit_dim"] == 512


def test_config_unknown_field_is_usage_error(tmp_path, capsys):
    cfgp = tmp_path / "dev.json"
    assert run("gen", "er", "--n", 40, "--p", 0.05, "--out", tmp_path) == 0
    for bad in ({"pcm": {"no_such_knob": 1}}, {"pcm": 5}, [1],
                {"hbm": {"stream_efficiency": "x"}},
                # a zero rate or width used to divide by zero in a sweep
                {"hbm": {"hbm_bandwidth": 0}}, {"hbm": {"stream_efficiency": 0}},
                {"hbm": {"pe_clock_hz": 0}}, {"pcm": {"merge_drain_lanes": 0}}):
        cfgp.write_text(json.dumps(bad))
        assert run("apsp", "--graph", tmp_path / "graph.edges",
                   "--config", cfgp, "--out", tmp_path) == 2, bad
    # a refusal names the section or the field at fault, in one line
    capsys.readouterr()
    for bad, message in (
        ({"gpu": {}}, "unknown device section 'gpu'"),
        ({"hbm": {"channels": True}}, "device.hbm.channels must be a number"),
        ({"pcm": {"unit_dim": 1000}},
         "bad device.pcm override: unit_dim must be a power of two"),
    ):
        cfgp.write_text(json.dumps(bad))
        assert run("apsp", "--graph", tmp_path / "graph.edges",
                   "--config", cfgp, "--out", tmp_path) == 2, bad
        assert capsys.readouterr().err == f"error: {message}\n", bad


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("pcm", "units_per_tile", 2.5),
        ("pcm", "tiles_per_die", 0.001),
        ("pcm", "bits", 7.9),
        ("pcm", "unit_dim", 1024.0),
        ("hbm", "sram_banks", 2.0),
    ],
)
def test_config_fractional_count_is_usage_error(
    section, field, value, tmp_path, capsys
):
    # a count of units, tiles, bits or banks is a whole number
    cfgp = tmp_path / "dev.json"
    cfgp.write_text(json.dumps({section: {field: value}}))
    assert run("gen", "er", "--n", 40, "--p", 0.05, "--out", tmp_path) == 0
    capsys.readouterr()
    assert run("apsp", "--graph", tmp_path / "graph.edges", "--model",
               "--config", cfgp, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err == f"error: bad device.{section} override: {field} must be an integer\n"


def test_config_sram_banks_past_the_bank_hash_is_usage_error(tmp_path, capsys):
    # the bank hash has 32 bits: 2^52 banks would overflow the bank keys
    gfa, reads = _gen_inputs(tmp_path, bases=600, reads=2)
    cfgp = tmp_path / "dev.json"
    cfgp.write_text(json.dumps({"hbm": {"sram_banks": 1 << 52}}))
    capsys.readouterr()
    assert run("s2g", "--graph", gfa, "--reads", reads, "--model",
               "--config", cfgp, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err == "error: bad device.hbm override: sram_banks must be at most 2^32\n"
    cfgp.write_text(json.dumps({"hbm": {"sram_banks": 1 << 32}}))
    assert run("s2g", "--graph", gfa, "--reads", reads, "--model",
               "--config", cfgp, "--out", tmp_path / "o") == 0


def test_config_fractional_bank_access_cycles_is_priced(tmp_path):
    gfa, reads = _gen_inputs(tmp_path, bases=600, reads=2)
    cfgp = tmp_path / "dev.json"
    cfgp.write_text(json.dumps({"hbm": {"bank_access_cycles": 1.37}}))
    assert run("s2g", "--graph", gfa, "--reads", reads, "--model",
               "--config", cfgp, "--out", tmp_path) == 0
    cfg = json.loads((tmp_path / "run.json").read_text())
    assert cfg["device"]["hbm"]["bank_access_cycles"] == 1.37


@pytest.mark.parametrize(
    "section, field, text, argv",
    [
        ("pcm", "clock_hz", "1e400", ["apsp", "--graph", "@", "--model"]),
        ("hbm", "pe_clock_hz", "Infinity", ["sweep", "pe"]),
        ("pcm", "hbm_bandwidth", "-Infinity", ["sweep", "tilesize", "--Ns", "256"]),
    ],
)
def test_config_infinite_constant_is_usage_error(
    section, field, text, argv, tmp_path, capsys
):
    # an infinite rate used to price to NaN: "cycles": NaN in cost.json, and
    # nan in the pe sweep
    cfgp = tmp_path / "dev.json"
    cfgp.write_text(f'{{"{section}": {{"{field}": {text}}}}}')
    assert run("gen", "er", "--n", 40, "--p", 0.05, "--out", tmp_path) == 0
    capsys.readouterr()
    argv = [str(tmp_path / "graph.edges") if a == "@" else a for a in argv]
    assert run(*argv, "--config", cfgp, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: bad device.{section} override: {field} must be positive and finite\n"
    )


def test_reruns_are_byte_identical(tmp_path):
    d = tmp_path / "w"
    cmds = [
        ("gen", "genome", "--bases", 1200, "--bubble-rate", "0.03",
         "--reads", 5, "--read-len", 80, "--sub-rate", 0.02, "--seed", 11,
         "--out", d),
        ("s2g", "--graph", d / "graph.gfa", "--reads", d / "reads.fa",
         "--model", "--W-sweep", "32,128", "--out", d),
        ("sweep", "roofline", "--out", d),
    ]
    for c in cmds:
        assert run(*c) == 0
    before = {name: (d / name).read_bytes() for name in sorted(os.listdir(d))}
    for c in cmds:
        assert run(*c) == 0
    after = {name: (d / name).read_bytes() for name in sorted(os.listdir(d))}
    assert before == after


def _snapshot(d):
    return {name: (d / name).read_bytes() for name in sorted(os.listdir(d))}


def test_one_process_runs_commands_like_separate_ones(tmp_path, capsys):
    # the parser is built once per process: two different commands run
    # through one process's main write the files that separate processes
    # write, and a bad command line after them still exits 2
    g = tmp_path / "graph.edges"
    dump_edge_list(gen_clustered(6, 12, seed=2), str(g))
    d = tmp_path / "out"
    cmds = [
        ("gen", "er", "--n", 80, "--p", 0.05, "--seed", 5, "--out", d / "gen"),
        ("apsp", "--graph", g, "--max-tile", 32, "--model", "--out", d / "apsp"),
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    separate = {}
    for c in cmds:
        argv = [sys.executable, "-m", "graphdp.cli", *map(str, c)]
        subprocess.run(argv, env=env, check=True, capture_output=True)
        separate[c[0]] = _snapshot(d / c[0])
        for f in (d / c[0]).iterdir():
            f.unlink()
    for c in cmds:
        assert run(*c) == 0
        assert _snapshot(d / c[0]) == separate[c[0]]
    assert run("apsp", "--graph", g, "--max-tile", "abc") == 2
    assert capsys.readouterr().err.startswith("error: argument --max-tile")


def test_unknown_subcommand_exits_2(capsys):
    # argparse's own errors print one line, like every other usage error
    for argv in (
        ("apsp", "--graph", "g", "--max-tile", "abc"),
        ("apsp", "--max-tile", 64),
        ("frobnicate",),
    ):
        assert run(*argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    # plan names its workload by kind and flags; no JSON file describes one
    assert run("plan", "desc", "d.json") == 2
    assert capsys.readouterr().err == (
        "error: argument kind: invalid choice: 'desc' (choose from 'apsp', 's2g')\n"
    )
    assert run("apsp", "--help") == 0
    assert "--max-tile" in capsys.readouterr().out


# each command and kind with every flag a sibling kind or another command
# reads: the flag acts nowhere here, so it is refused before anything runs
# rather than accepted and ignored
_VALUES = {
    "--n": 10, "--k": 2, "--p": 0.1, "--w-max": 9, "--bases": 100,
    "--bubble-rate": 0.1, "--reads": 2, "--read-len": 50, "--sub-rate": 0.01,
    "--Ns": 256, "--counts": 16, "--caps": "64K", "--config": "@/dev.json",
    "--graph": "@/g.edges", "--max-tile": 64, "--W": 64, "--mode": "short",
    "--seed": 1, "--out": "@/o",
}
_FOREIGN = {
    ("gen", "er", "--n", 10, "--p", 0.1): [
        "--k", "--bases", "--bubble-rate", "--reads", "--read-len", "--sub-rate",
        "--config",
    ],
    ("gen", "nws", "--n", 10, "--k", 2, "--p", 0.1): [
        "--bases", "--bubble-rate", "--reads", "--read-len", "--sub-rate", "--config",
    ],
    ("gen", "genome", "--bases", 100): ["--n", "--p", "--k", "--w-max", "--config"],
    ("sweep", "tilesize", "--Ns", 256): ["--counts", "--caps", "--n"],
    ("sweep", "pe"): ["--Ns", "--caps", "--n"],
    ("sweep", "sram"): ["--Ns", "--counts", "--n"],
    ("sweep", "roofline"): ["--Ns", "--counts", "--caps", "--config"],
    ("apsp", "--graph", "@/g.edges"): ["--seed"],
    ("s2g", "--graph", "@/g.gfa", "--reads", "@/r.fa"): ["--seed"],
    ("plan", "apsp", "--graph", "@/g.edges"): [
        "--reads", "--W", "--mode", "--config", "--seed",
    ],
    ("plan", "s2g", "--graph", "@/g.gfa", "--reads", "@/r.fa"): [
        "--max-tile", "--W", "--config", "--seed",
    ],
    ("verify",): ["--config", "--out"],
}
# a common flag put before the kind: refused by name
_BEFORE_KIND = [
    (("gen",), ("--seed", 1, "er", "--n", 10, "--p", 0.1)),
    (("sweep",), ("--config", "@/dev.json", "tilesize")),
    (("plan",), ("--out", "@/o", "apsp", "--graph", "@/g.edges")),
]
_REFUSED = [
    (base, (flag, _VALUES[flag])) for base, flags in _FOREIGN.items() for flag in flags
] + _BEFORE_KIND


@pytest.mark.parametrize(
    "base,extra", _REFUSED, ids=[" ".join(map(str, b + e)) for b, e in _REFUSED]
)
def test_flags_a_command_does_not_read_exit_2(base, extra, tmp_path, capsys):
    # valid files, so that only the parser can refuse the command
    (tmp_path / "dev.json").write_text(json.dumps({"hbm": {"channels": 8}}))
    graph = tmp_path / "g.edges"
    dump_edge_list(gen_er(20, 0.2, 1), str(graph))
    (tmp_path / "g.gfa").write_text(GFA)
    (tmp_path / "r.fa").write_text(">r\nACGTAC\n")
    argv = [str(a).replace("@", str(tmp_path)) for a in base + extra]
    assert run(*argv, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert extra[0] in err, err
    if (base, extra) in _BEFORE_KIND:
        assert err == f"error: {extra[0]} goes after the kind\n", err
    assert not (tmp_path / "o").exists()


# one command per error class that main catches, one per check main makes
# itself, and refusals that once left --out behind: (input files, argv, the
# exception that reaches main); "@" stands for the test's directory
GFA = "S\ts1\tACGTACGTAC\nS\ts2\tGTTACA\nL\ts1\t+\ts2\t+\t0M\n"
ERROR_CASES = {
    "UsageError": (
        {"g.edges": "# n=600\n0\t1\t5\n"},
        ["apsp", "--graph", "@/g.edges", "--fmt", "tsv"],
        UsageError,
    ),
    "UsageError-threads": (
        {}, ["apsp", "--graph", "@/none.edges", "--threads", -3], UsageError
    ),
    "GraphError": ({}, ["gen", "er", "--n", 0, "--p", 0.1], GraphError),
    "GraphError-w-max": ({}, ["gen", "er", "--n", 5, "--p", 0.1, "--w-max", 0], GraphError),
    "HierarchyError": (
        {"g.edges": "0\t1\t5\n1\t2\t5\n"},
        ["apsp", "--graph", "@/g.edges", "--max-tile", 1],
        HierarchyError,
    ),
    "ModelError": ({}, ["sweep", "tilesize", "--Ns", 3], ValidationError),
    "AlphabetError": (
        {"g.gfa": GFA, "r.fa": ">r\nACGTXX\n"},
        ["s2g", "--graph", "@/g.gfa", "--reads", "@/r.fa"],
        AlphabetError,
    ),
    "PlanError": (
        {"g.gfa": GFA, "r.fa": ">r\nACGTAC\n"},
        ["s2g", "--graph", "@/g.gfa", "--reads", "@/r.fa", "--W", 0],
        PlanError,
    ),
    "OSError": ({}, ["apsp", "--graph", "@/none.edges"], FileNotFoundError),
    "JSONDecodeError": (
        {"c.json": "{"},
        ["apsp", "--graph", "@/none.edges", "--config", "@/c.json"],
        json.JSONDecodeError,
    ),
    "UnicodeDecodeError": (
        {"g.edges": "0\t1\t\xff\n"},
        ["apsp", "--graph", "@/g.edges"],
        UnicodeDecodeError,
    ),
    "argparse": ({}, ["apsp", "--graph", "g", "--max-tile", "abc"], SystemExit),
    "argparse-seed": ({}, ["gen", "er", "--n", 10, "--p", 0.1, "--seed", -1], SystemExit),
    "argparse-W-sweep": (
        {"g.gfa": GFA, "r.fa": ">r\nACGTAC\n"},
        ["s2g", "--graph", "@/g.gfa", "--reads", "@/r.fa", "--W-sweep", "64,0"],
        SystemExit,
    ),
    # a repeated list entry would write a repeated row
    "argparse-W-sweep-repeat": (
        {"g.gfa": GFA, "r.fa": ">r\nACGTAC\n"},
        ["s2g", "--graph", "@/g.gfa", "--reads", "@/r.fa", "--W-sweep", "8,8"],
        SystemExit,
    ),
    "argparse-counts-repeat": ({}, ["sweep", "pe", "--counts", "16,16"], SystemExit),
    "argparse-caps-repeat": ({}, ["sweep", "sram", "--caps", "32K,32768"], SystemExit),
    "argparse-Ns-repeat": ({}, ["sweep", "tilesize", "--Ns", "256,256"], SystemExit),
}


def run_noting_exception(*argv) -> tuple:
    """Exit code of ``main`` and the class of the first exception that
    reached its frame."""
    seen = []

    def in_main(frame, event, arg):
        if event == "exception" and not seen:
            seen.append(arg[0])
        return in_main

    def on_call(frame, event, arg):
        return in_main if frame.f_code is main.__code__ else None

    old = sys.gettrace()
    sys.settrace(on_call)
    try:
        rc = run(*argv)
    finally:
        sys.settrace(old)
    return rc, seen[0] if seen else None


@pytest.mark.parametrize("case", list(ERROR_CASES))
def test_each_error_class_exits_2_with_one_line(case, tmp_path, capsys):
    files, argv, raised = ERROR_CASES[case]
    for name, text in files.items():
        (tmp_path / name).write_bytes(text.encode("latin-1"))
    argv = [str(a).replace("@", str(tmp_path)) for a in argv]
    rc, seen = run_noting_exception(*argv, "--out", tmp_path / "o")
    err = capsys.readouterr().err
    assert seen is raised
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_verify_command_all_suites_pass(capsys):
    assert run("verify", "--seed", 5) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out
    # the exactness suite must grade recursive runs, not only direct ones
    apsp = next(line for line in out.splitlines() if "apsp-exactness" in line)
    assert int(apsp.split(", ")[1].split()[0]) >= 1, apsp
