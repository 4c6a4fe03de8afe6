"""Command-line harness: generators, engine drivers, sweeps, verification.

Each command, and each kind of ``gen`` and ``sweep``, takes the common
``--seed``, ``--out`` and ``--threads`` and only the other flags it reads;
``--config`` reaches ``apsp``, ``s2g``, ``plan`` and the sweeps that read a
device.  Every command resolves its flags against defaults, runs
deterministically (``gen`` and ``verify`` draw from ``--seed``, nothing
else does), and writes a ``run.json`` next to its data outputs with the
fully resolved configuration.  Data payloads carry no timestamps, so a
rerun with the same inputs is byte-identical.

Exit codes: 0 success, 1 verification failure, 2 usage error, which covers
a flag the command does not take.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .apsp import export_distances, recursive_apsp
from .costmodel import (
    ModelError,
    arithmetic_intensity,
    model_fw_block,
    model_mp_merge,
    sweep_pe_density,
    sweep_sram,
    sweep_tile_size,
    working_set_bytes,
)
from .graphs import (
    INF_SENTINEL,
    GraphError,
    check_read_params,
    distance_init,
    dump_edge_list,
    dump_fasta,
    gen_clustered,
    gen_er,
    gen_genome,
    gen_nws,
    gen_reads,
    load_edge_list,
    load_fasta,
    load_genome_graph,
    parse_gfa,
)
from .minplus import floyd_warshall_dense
from .partition import find_boundary, kway_partition
from .planner import (
    DescriptorError,
    PlanError,
    WorkloadDescriptor,
    device_params,
    execute,
    load_descriptor,
    lower,
)
from .s2g import align_reference, align_windowed, dump_alignments

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2

DEFAULT_TILE_NS = "256,512,1024,2048"
DEFAULT_PE_COUNTS = "16,32,64,128,192"
DEFAULT_SRAM_CAPS = "32K..512K"


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one ``error:`` line and exit 2; its
    subparsers are of this class too."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _parse_ints(text: str) -> list:
    try:
        vals = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        raise UsageError(f"bad integer list {text!r}") from e
    if not vals:
        raise UsageError(f"empty list {text!r}")
    return vals


def _parse_size(tok: str) -> int:
    t = tok.strip().upper()
    mult = 1
    if t.endswith("K"):
        mult, t = 1024, t[:-1]
    elif t.endswith("M"):
        mult, t = 1024 * 1024, t[:-1]
    try:
        return int(t) * mult
    except ValueError as e:
        raise UsageError(f"bad size {tok!r}") from e


def _parse_sizes(text: str) -> list:
    # "32K..512K" doubles from low to high inclusive; otherwise comma list
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = _parse_size(lo_s), _parse_size(hi_s)
        if lo <= 0 or hi < lo:
            raise UsageError(f"bad size range {text!r}")
        caps = []
        c = lo
        while c <= hi:
            caps.append(c)
            c *= 2
        return caps
    return [_parse_size(tok) for tok in text.split(",") if tok.strip()]


def _device(config_path: str | None):
    """Resolve device parameters from an optional JSON override file."""
    doc = None
    if config_path:
        with open(config_path) as fh:
            doc = json.load(fh)
    return device_params(doc)


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _emit_run(outdir: str, cfg: dict) -> str:
    path = os.path.join(outdir, "run.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path


def _write_csv(path: str, columns, rows, cfg: dict) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# columns: " + ",".join(columns) + "\n")
        fh.write("# config: " + json.dumps(cfg, sort_keys=True) + "\n")
        wr = csv.writer(fh)
        for row in rows:
            wr.writerow(row)


def _workload(args, kind: str) -> WorkloadDescriptor:
    """The ``kind`` ("apsp" or "s2g") descriptor of the files and flags in
    ``args``, with the device of ``--config``."""
    pcm, hbm = _device(args.config)
    if kind == "apsp":
        g = load_edge_list(args.graph)
        return WorkloadDescriptor("apsp", g, max_tile=args.max_tile, pcm=pcm)
    g = load_genome_graph(args.graph)
    reads = load_fasta(args.reads)
    if not reads:
        raise UsageError(f"no reads in {args.reads}")
    return WorkloadDescriptor("s2g", g, reads=reads, W=args.W, mode=args.mode, hbm=hbm)


def _base_cfg(args, command: str) -> dict:
    return {
        "command": command,
        "seed": args.seed,
        "out": args.out,
    }


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    outdir = _outdir(args)
    cfg = _base_cfg(args, f"gen.{args.kind}")
    if args.kind in ("er", "nws"):
        if args.kind == "er":
            g = gen_er(args.n, args.p, args.seed, args.w_max)
            cfg.update(n=args.n, p=args.p, w_max=args.w_max)
        else:
            g = gen_nws(args.n, args.k, args.p, args.seed, args.w_max)
            cfg.update(n=args.n, k=args.k, p=args.p, w_max=args.w_max)
        path = os.path.join(outdir, "graph.edges")
        dump_edge_list(g, path)
        cfg["outputs"] = ["graph.edges"]
        _emit_run(outdir, cfg)
        print(f"{args.kind}: n={g.n} edges={g.edge_count} seed={args.seed} -> {path}")
        return EXIT_OK

    # everything that can be refused is refused before a file is written
    check_read_params(args.reads, args.read_len, args.sub_rate)
    gfa, ref = gen_genome(args.bases, args.bubble_rate, args.seed)
    g = parse_gfa(gfa)
    reads = []
    if args.reads:
        reads = gen_reads(g, args.reads, args.read_len, args.sub_rate, args.seed)
    gfa_path = os.path.join(outdir, "graph.gfa")
    with open(gfa_path, "w") as fh:
        fh.write(gfa)
    dump_fasta([("ref", ref)], os.path.join(outdir, "ref.fa"))
    outputs = ["graph.gfa", "ref.fa"]
    if reads:
        dump_fasta(reads, os.path.join(outdir, "reads.fa"))
        outputs.append("reads.fa")
    cfg.update(
        bases=args.bases,
        bubble_rate=args.bubble_rate,
        reads=args.reads,
        read_len=args.read_len,
        sub_rate=args.sub_rate,
        outputs=outputs,
    )
    _emit_run(outdir, cfg)
    print(
        f"genome: nodes={g.n} arcs={g.succ_idx.size} seed={args.seed} -> {gfa_path}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# apsp
# ---------------------------------------------------------------------------


def cmd_apsp(args) -> int:
    outdir = _outdir(args)
    w = _workload(args, "apsp")
    g = w.graph
    out = execute(w, cost_model_on=args.model)
    res = out["apsp"]

    dist_name = "dist.tsv" if args.fmt == "tsv" else "dist.bin"
    dist_path = os.path.join(outdir, dist_name)
    export_distances(res, dist_path, fmt=args.fmt)
    outputs = [dist_name]

    if args.model:
        rep = out["cost"]
        with open(os.path.join(outdir, "cost.csv"), "w") as fh:
            fh.write(rep.to_csv())
        with open(os.path.join(outdir, "cost.json"), "w") as fh:
            fh.write(rep.to_json() + "\n")
        outputs += ["cost.csv", "cost.json"]

    cfg = _base_cfg(args, "apsp")
    cfg.update(
        graph=args.graph,
        max_tile=args.max_tile,
        fmt=args.fmt,
        verify=args.verify,
        model=args.model,
        device={"pcm": asdict(w.pcm)},
        outputs=outputs,
    )
    _emit_run(outdir, cfg)
    print(
        f"apsp: n={g.n} mode={res.trace.mode} depth={res.trace.depth} -> {dist_path}"
    )

    if args.verify:
        want = _dijkstra_distances(g)
        got = res.dist
        bad = np.argwhere(got != want)
        if bad.size:
            u, v = (int(x) for x in bad[0])
            print(
                f"FAIL ({u},{v}): got {int(got[u, v])} want {int(want[u, v])}"
            )
            return EXIT_VERIFY
        print("PASS")
    return EXIT_OK


# ---------------------------------------------------------------------------
# s2g
# ---------------------------------------------------------------------------


def cmd_s2g(args) -> int:
    outdir = _outdir(args)
    w = _workload(args, "s2g")
    g, by_id = w.graph, dict(w.reads)

    sweep_ws = _parse_ints(args.W_sweep) if args.W_sweep else None
    out = execute(w, cost_model_on=args.model or sweep_ws is not None)
    results = out["s2g"]
    ids = sorted(results)

    scores_path = os.path.join(outdir, "scores.tsv")
    dump_alignments(scores_path, ids, [results[r] for r in ids])
    outputs = ["scores.tsv"]

    cfg = _base_cfg(args, "s2g")
    cfg.update(
        graph=args.graph,
        reads=args.reads,
        mode=args.mode,
        W=args.W,
        W_sweep=sweep_ws,
        verify=args.verify,
        model=args.model,
        device={"hbm": asdict(w.hbm)},
    )

    if sweep_ws:
        # the device-fidelity kernel must reproduce, at every swept width,
        # the production score, lowest end node and derived window count
        rows = []
        for Wi in sweep_ws:
            oi = execute(replace(w, W=Wi), True)
            for rid in ids:
                want = oi["s2g"][rid]
                got = align_windowed(g, by_id[rid], W=Wi)
                seen = (got.score_max, got.lowest_end, got.windows)
                expected = (want.score_max, want.lowest_end, want.windows)
                if seen != expected:
                    print(
                        f"FAIL read {rid}: windowed kernel at W={Wi} gives "
                        f"(score, end, windows) {seen}, want {expected}"
                    )
                    return EXIT_VERIFY
            rep = oi["cost"]
            rows.append(
                (Wi, f"{rep.cycles:.6g}", f"{rep.wall_time_s * 1e9:.6g}",
                 f"{rep.energy_j * 1e12:.6g}")
            )
        _write_csv(
            os.path.join(outdir, "wsweep.csv"),
            ["W", "cycles", "ns", "pJ"],
            rows,
            cfg,
        )
        outputs.append("wsweep.csv")

    if args.model:
        rep = out["cost"]
        total_reads = len(ids)
        doc = {
            "reads": total_reads,
            "wall_s": rep.wall_time_s,
            "reads_per_s": total_reads / rep.wall_time_s if rep.wall_time_s else 0.0,
            "energy_j": rep.energy_j,
            "cost": json.loads(rep.to_json()),
        }
        with open(os.path.join(outdir, "model.json"), "w") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        outputs.append("model.json")

    cfg["outputs"] = outputs
    _emit_run(outdir, cfg)
    print(f"s2g: reads={len(ids)} mode={args.mode} -> {scores_path}")

    if args.verify:
        for rid in ids:
            want = align_reference(g, by_id[rid])
            got = results[rid]
            if got.score_max != want.score_max or not np.array_equal(
                got.end_nodes, want.end_nodes
            ):
                print(
                    f"FAIL read {rid}: got {got.score_max} "
                    f"want {want.score_max}"
                )
                return EXIT_VERIFY
        print("PASS")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    outdir = _outdir(args)
    cfg = _base_cfg(args, f"sweep.{args.kind}")
    path = os.path.join(outdir, f"{args.kind}.csv")

    if args.kind == "tilesize":
        pcm, _ = _device(args.config)
        Ns = _parse_ints(args.Ns)
        cfg.update(Ns=Ns, device={"pcm": asdict(pcm)})
        rows = [
            (N, f"{lat:.6g}", f"{en:.6g}")
            for N, lat, en in sweep_tile_size(Ns, p=pcm)
        ]
        _write_csv(
            path,
            ["N", "norm_latency", "norm_energy"],
            rows,
            {**cfg, "normalized_to": 1024},
        )
    elif args.kind == "pe":
        _, hbm = _device(args.config)
        counts = _parse_ints(args.counts)
        cfg.update(counts=counts, device={"hbm": asdict(hbm)})
        rows = [
            (c, f"{thr:.6g}", f"{util:.6g}")
            for c, thr, util in sweep_pe_density(counts, h=hbm)
        ]
        _write_csv(path, ["pe_per_channel", "reads_per_s", "bandwidth_util"], rows, cfg)
    elif args.kind == "sram":
        _, hbm = _device(args.config)
        caps = _parse_sizes(args.caps)
        cfg.update(caps=caps, device={"hbm": asdict(hbm)})
        rows = [
            (cap, f"{reg:.6g}", f"{irr:.6g}", f"{thr:.6g}")
            for cap, reg, irr, thr in sweep_sram(caps, h=hbm)
        ]
        _write_csv(
            path,
            ["capacity_bytes", "hbm_regular_bytes", "hbm_irregular_bytes",
             "reads_per_s"],
            rows,
            cfg,
        )
    else:
        cfg.update(n=args.n)
        reports = [
            arithmetic_intensity("FwClassic"),
            arithmetic_intensity("FwPartitioned", n=args.n),
            arithmetic_intensity("S2G"),
        ]
        rows = [
            (r.kernel, f"{r.ops_per_byte:.6g}", r.convention) for r in reports
        ]
        _write_csv(path, ["kernel", "ops_per_byte", "convention"], rows, cfg)

    cfg["outputs"] = [f"{args.kind}.csv"]
    _emit_run(outdir, cfg)
    print(f"sweep {args.kind}: {len(rows)} points -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def cmd_plan(args) -> int:
    outdir = _outdir(args)
    if args.desc is not None:
        w = load_descriptor(args.desc)
    elif args.graph and (args.reads or args.workload == "apsp"):
        w = _workload(args, args.workload)
    else:
        need = "--graph" if args.workload == "apsp" else "--graph and --reads"
        raise UsageError(f"plan --workload {args.workload} requires {need}")

    plan = lower(w)
    path = os.path.join(outdir, "plan.json")
    with open(path, "w") as fh:
        fh.write(plan.to_json() + "\n")
    cfg = _base_cfg(args, "plan")
    cfg.update(
        desc=args.desc,
        workload=w.kind,
        stages=len(plan.stages),
        outputs=["plan.json"],
    )
    _emit_run(outdir, cfg)
    counts = " ".join(f"{k}={v}" for k, v in sorted(plan.counts().items()))
    print(f"plan: {w.kind} stages={len(plan.stages)} ({counts}) -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: trimmed oracle suites, one line per suite
# ---------------------------------------------------------------------------


def _dijkstra_distances(g) -> np.ndarray:
    """All-pairs distances by scipy's Dijkstra, the verification oracle.

    It shares no kernel with the engine, which closes every tile with
    Floyd-Warshall.  Parallel arcs collapse to their minimum first, because
    a sparse matrix sums duplicate entries; float64 sums are exact below
    2^53, and unreachable pairs and sums past the sentinel both clamp to
    ``INF_SENTINEL``.  scipy is imported here, on the verify path only.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    order = np.lexsort((g.w, g.dst, g.src))
    src, dst, w = g.src[order], g.dst[order], g.w[order]
    first = np.ones(src.size, dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    mat = csr_matrix(
        (w[first].astype(np.float64), (src[first], dst[first])), shape=(g.n, g.n)
    )
    return np.minimum(dijkstra(mat, directed=True), INF_SENTINEL).astype(np.int64)


def _suite_apsp(seed: int):
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(6):
        n = int(rng.integers(30, 300))
        p = float(rng.uniform(0.01, 0.05))
        cases.append((gen_er(n, p, seed + i), 64 if i % 2 else 128))
    for i in range(4):
        n = int(rng.integers(50, 250))
        cases.append((gen_nws(n, 6, 0.1, seed + 100 + i), 64 if i % 2 else 128))
    # random graphs mostly close directly; these clusters recurse, so the
    # suite grades recursive runs
    for s in (2, 5, 9):
        g = gen_clustered(10, 40, seed=s)
        cases += [(g, 32), (g, 64)]
    bad = recursed = 0
    for g, tile in cases:
        res = recursive_apsp(g, max_tile=tile)
        if not np.array_equal(res.dist, _dijkstra_distances(g)):
            bad += 1
        if res.trace.mode == "dense" and res.hierarchy.levels[0].partition.k > 1:
            recursed += 1
    detail = f"{len(cases) - bad}/{len(cases)} graphs, {recursed} recursed"
    return detail, bad == 0 and recursed > 0


def _suite_boundary(seed: int):
    rng = np.random.default_rng(seed + 1)
    checked = bad = 0
    for i in range(6):
        n = int(rng.integers(80, 350))
        g = gen_er(n, float(rng.uniform(0.02, 0.05)), seed + 10 + i)
        p = kway_partition(g, 3 + i % 3)
        bs = find_boundary(g, p)
        if bs.union.size == 0:
            continue
        d0 = distance_init(g)
        for c in range(p.k):
            ids = p.component(c)
            d0[np.ix_(ids, ids)] = floyd_warshall_dense(d0[np.ix_(ids, ids)])
        got = floyd_warshall_dense(d0[np.ix_(bs.union, bs.union)])
        want = _dijkstra_distances(g)[np.ix_(bs.union, bs.union)]
        checked += 1
        if not np.array_equal(got, want):
            bad += 1
    return f"{checked - bad}/{checked} graphs", bad == 0 and checked > 0


def _suite_s2g(seed: int):
    rng = np.random.default_rng(seed + 2)
    checked = bad = 0
    for i in range(10):
        gfa, _ = gen_genome(int(rng.integers(300, 800)), 0.03, seed + 20 + i)
        g = parse_gfa(gfa)
        length = int(rng.integers(40, 200))
        for rid, q in gen_reads(g, 2, length, 0.05, seed + 40 + i):
            ref = align_reference(g, q)
            for W in (8, 64, 256):
                got = align_windowed(g, q, W=W)
                checked += 1
                if got.score_max != ref.score_max or not np.array_equal(
                    got.end_nodes, ref.end_nodes
                ):
                    bad += 1
    return f"{checked - bad}/{checked} alignments", bad == 0


def _suite_constants():
    ok = (
        model_mp_merge(1024, 512).phases["reduce"].cycles == 1024 * 13
        and model_fw_block(1024, pivots=1).cycles == 480
        and working_set_bytes(16384, 128) == 262144
    )
    return "comparator tree, block closure, state footprint", ok


def _suite_roofline():
    fw = arithmetic_intensity("FwPartitioned", n=1024).ops_per_byte
    classic = arithmetic_intensity("FwClassic").ops_per_byte
    ok = abs(fw - 512.0) <= 0.02 * 512.0 and abs(classic - 0.167) <= 0.0167
    return f"FwPartitioned={fw:g} FwClassic={classic:.3g}", ok


def cmd_verify(args) -> int:
    suites = [
        ("apsp-exactness", lambda: _suite_apsp(args.seed)),
        ("boundary-soundness", lambda: _suite_boundary(args.seed)),
        ("s2g-oracle", lambda: _suite_s2g(args.seed)),
        ("model-constants", lambda: _suite_constants()),
        ("roofline", lambda: _suite_roofline()),
    ]
    failures = 0
    for name, fn in suites:
        detail, ok = fn()
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} suite(s) failed")
        return EXIT_VERIFY
    print("all suites passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


_COMMANDS = {"gen": cmd_gen, "apsp": cmd_apsp, "s2g": cmd_s2g, "sweep": cmd_sweep,
            "plan": cmd_plan, "verify": cmd_verify}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing a command
    line leaves it unchanged."""
    common = _Parser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=0,
        help="seeds the generators of gen and verify; other commands record "
        "it in run.json and draw nothing from it",
    )
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument(
        "--threads", type=int, default=1,
        help="ignored: the engine runs sequentially; kept for existing scripts",
    )
    # the commands and sweep kinds that read a device take both parents
    device = _Parser(add_help=False)
    device.add_argument(
        "--config", default=None,
        help="JSON device overrides, e.g. {\"pcm\": {...}, \"hbm\": {...}}",
    )
    both = [common, device]

    ap = _Parser(
        prog="graphdp",
        description="Exact graph closures and read alignment with a device "
        "cost model.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="synthesize inputs")
    gens = gen.add_subparsers(dest="kind", required=True)
    for kind in ("er", "nws"):
        g = gens.add_parser(kind, parents=[common])
        g.add_argument("--n", type=int, required=True)
        if kind == "nws":
            g.add_argument("--k", type=int, required=True)
        g.add_argument("--p", type=float, required=True)
        g.add_argument("--w-max", type=int, default=100)
    g = gens.add_parser("genome", parents=[common])
    g.add_argument("--bases", type=int, required=True)
    g.add_argument("--bubble-rate", type=float, default=0.02)
    g.add_argument("--reads", type=int, default=0, help="also sample reads")
    g.add_argument("--read-len", type=int, default=100)
    g.add_argument("--sub-rate", type=float, default=0.0)

    a = sub.add_parser("apsp", parents=both, help="close a weighted graph")
    a.add_argument("--graph", required=True, help="edge-list file")
    a.add_argument("--max-tile", type=int, default=1024)
    a.add_argument("--fmt", choices=["bin", "tsv"], default="bin")
    a.add_argument("--verify", action="store_true",
                   help="cross-check against Dijkstra")
    a.add_argument("--model", action="store_true", help="attach cost report")

    s = sub.add_parser("s2g", parents=both, help="align reads to a graph")
    s.add_argument("--graph", required=True, help="graph file (GFA subset)")
    s.add_argument("--reads", required=True, help="FASTA reads")
    s.add_argument("--mode", choices=["auto", "short", "long"], default="auto")
    s.add_argument("--W", type=int, default=128, help="window width")
    s.add_argument("--W-sweep", default=None,
                   help="comma list of widths; checks score invariance")
    s.add_argument("--verify", action="store_true",
                   help="cross-check every read against the reference scorer")
    s.add_argument("--model", action="store_true",
                   help="attach throughput/energy report")

    sweep = sub.add_parser("sweep", help="emit sensitivity curves")
    sweeps = sweep.add_subparsers(dest="kind", required=True)
    for kind, flag, default, text in (
        ("tilesize", "--Ns", DEFAULT_TILE_NS, "tile sizes"),
        ("pe", "--counts", DEFAULT_PE_COUNTS, "PEs per channel"),
        ("sram", "--caps", DEFAULT_SRAM_CAPS,
         "SRAM bytes, comma list or lo..hi doubling range"),
    ):
        sweeps.add_parser(kind, parents=both).add_argument(flag, default=default, help=text)
    r = sweeps.add_parser("roofline", parents=[common])
    r.add_argument("--n", type=int, default=1024, help="roofline tile size")

    p = sub.add_parser("plan", parents=both, help="dump an execution plan")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--desc", help="workload descriptor JSON")
    source.add_argument("--workload", choices=["apsp", "s2g"])
    p.add_argument("--graph", default=None)
    p.add_argument("--reads", default=None)
    p.add_argument("--max-tile", type=int, default=1024)
    p.add_argument("--W", type=int, default=128)
    p.add_argument("--mode", choices=["auto", "short", "long"], default="auto")

    sub.add_parser("verify", parents=[common], help="run the oracle suites")
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.seed < 0:
            # gen and verify seed numpy generators, which reject negatives;
            # every command refuses one alike
            raise UsageError(f"--seed {args.seed} must be non-negative")
        if args.threads < 1:
            raise UsageError(f"--threads {args.threads} must be at least 1")
        return _COMMANDS[args.command](args)
    except UnicodeDecodeError as e:
        # a byte the text loaders (edge list, GFA, FASTA, JSON) cannot decode
        print(f"error: input is not valid text: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, GraphError, ModelError, PlanError, DescriptorError,
            OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
