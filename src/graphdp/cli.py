"""Command-line harness: generators, engine drivers, sweeps, plans,
verification.

Each command, and each kind of ``gen``, ``sweep`` and ``plan``, takes only
the flags it reads, and the parser settles the whole command line, lists
included, before anything runs.  ``plan apsp`` and ``plan s2g`` share their
input flags with ``apsp`` and ``s2g``; ``--config`` reaches ``apsp``,
``s2g`` and the sweeps that read a device; ``--seed`` reaches ``gen`` and
``verify``, which draw from it, and the sweeps, which record it.  Every
command but ``verify`` writes its data outputs and a ``run.json`` with the
fully resolved configuration into ``--out``, which is made when the first
file is written, so a refused command leaves nothing behind.  Data
payloads carry no timestamps, so a rerun with the same inputs is
byte-identical.

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

from .apsp import TSV_LIMIT, export_distances, recursive_apsp
from .costmodel import (
    HbmParams,
    ModelError,
    PcmParams,
    arithmetic_intensity,
    model_fw_block,
    model_mp_merge,
    sweep_pe_density,
    sweep_sram,
    sweep_tile_size,
    tile_reference,
    working_set_bytes,
)
from .graphs import (
    INF_SENTINEL,
    MAPPING_REQUESTS,
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
from .planner import ApspWorkload, PlanError, S2gWorkload, execute, lower
from .s2g import align_reference, align_windowed, dump_alignments

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one ``error:`` line and exit 2; its
    subparsers are of this class too.  Where a command or a kind comes next,
    a flag in its place is refused by name."""

    next_word = None  # "command" or "kind" where a subparser follows

    def add_subparsers(self, **kwargs):
        self.next_word = kwargs["dest"]
        return super().add_subparsers(**kwargs)

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else args
        flag = args[0].split("=", 1)[0] if args else ""
        if self.next_word and flag.startswith("-") and flag not in ("-h", "--help"):
            self.error(f"{flag} goes after the {self.next_word}")
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    """A non-negative integer: numpy's generators refuse a negative seed."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def _size(tok: str) -> int:
    t = tok.strip().upper()
    mult = {"K": 1024, "M": 1024 * 1024}.get(t[-1:], 1)
    return int(t[:-1] if mult > 1 else t) * mult


def _size_list(text: str) -> list:
    """Byte sizes, each with an optional binary K or M suffix: a comma list,
    or ``lo..hi`` doubling from lo up to hi."""
    if ".." not in text:
        return [_size(tok) for tok in text.split(",") if tok.strip()]
    lo, hi = (_size(tok) for tok in text.split(".."))
    return [lo << i for i in range((hi // lo).bit_length())] if 0 < lo <= hi else []


def _positive(parse, what: str):
    """An argparse type: the list ``parse`` reads, refused in one line when
    it is empty or an entry is malformed, not positive or repeated."""

    def read(text: str) -> list:
        try:
            vals = parse(text)
        except ValueError:
            vals = []
        if not vals or min(vals) < 1 or len(set(vals)) < len(vals):
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a list of distinct positive {what}"
            )
        return vals

    return read


_ints = _positive(lambda text: [int(t) for t in text.split(",") if t.strip()], "integers")
_sizes = _positive(_size_list, "sizes")


def _device(config_path: str | None) -> tuple:
    """(PcmParams, HbmParams): the device defaults with the overrides of an
    optional JSON file, ``{"pcm": {...}, "hbm": {...}}``, applied.

    The one parser for device overrides; every malformed section or field
    raises UsageError.
    """
    doc = None
    if config_path:
        with open(config_path) as fh:
            doc = json.load(fh)
    if doc is None:  # no file, or a file that holds JSON null
        doc = {}
    if not isinstance(doc, dict):
        raise UsageError("device overrides must be a JSON object")
    unknown = sorted(set(doc) - {"pcm", "hbm"})
    if unknown:
        raise UsageError(f"unknown device section {unknown[0]!r}")
    params = []
    for name, cls in (("pcm", PcmParams), ("hbm", HbmParams)):
        overrides = doc.get(name, {})
        if not isinstance(overrides, dict):
            raise UsageError(f"device.{name} must be a JSON object")
        for key, value in overrides.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise UsageError(f"device.{name}.{key} must be a number")
        try:
            params.append(cls(**overrides))
        except (TypeError, ValueError) as e:
            raise UsageError(f"bad device.{name} override: {e}") from e
    return tuple(params)


def _path(args, name: str) -> str:
    """``name`` in the output directory, which is made on the first write."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _emit_run(args, cfg: dict, outputs: list) -> None:
    """run.json: ``cfg`` and the names of the files the command wrote."""
    with open(_path(args, "run.json"), "w") as fh:
        fh.write(json.dumps({**cfg, "outputs": outputs}, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, columns, rows, cfg: dict) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# columns: " + ",".join(columns) + "\n")
        fh.write("# config: " + json.dumps(cfg, sort_keys=True) + "\n")
        wr = csv.writer(fh)
        for row in rows:
            wr.writerow(row)


def _workload(args, kind: str, **fields) -> ApspWorkload | S2gWorkload:
    """The ``kind`` ("apsp" or "s2g") workload of the input flags in
    ``args`` and the command's own ``fields`` (W, device); the workload's
    defaults stand for the rest."""
    if kind == "apsp":
        return ApspWorkload(load_edge_list(args.graph), max_tile=args.max_tile, **fields)
    g = load_genome_graph(args.graph)
    return S2gWorkload(g, load_fasta(args.reads), mode=args.mode, **fields)


def _base_cfg(args) -> dict:
    """run.json's keys for the parsed command line: the command with its
    kind, and every flag it takes but ``--threads``, which changes nothing,
    and ``--config``, which a command records as the resolved ``device``."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("kind", "threads", "config")}
    if "kind" in args:
        cfg["command"] += f".{args.kind}"
    return cfg


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.kind in ("er", "nws"):
        if args.kind == "er":
            g = gen_er(args.n, args.p, args.seed, args.w_max)
        else:
            g = gen_nws(args.n, args.k, args.p, args.seed, args.w_max)
        path = _path(args, "graph.edges")
        dump_edge_list(g, path)
        _emit_run(args, _base_cfg(args), ["graph.edges"])
        print(f"{args.kind}: n={g.n} edges={g.edge_count} seed={args.seed} -> {path}")
        return EXIT_OK

    # everything that can be refused is refused before a file is written
    check_read_params(args.reads, args.read_len, args.sub_rate)
    gfa, ref = gen_genome(args.bases, args.bubble_rate, args.seed)
    g = parse_gfa(gfa)
    reads = []
    if args.reads:
        reads = gen_reads(g, args.reads, args.read_len, args.sub_rate, args.seed)
    gfa_path = _path(args, "graph.gfa")
    with open(gfa_path, "w") as fh:
        fh.write(gfa)
    dump_fasta([("ref", ref)], _path(args, "ref.fa"))
    outputs = ["graph.gfa", "ref.fa"]
    if reads:
        dump_fasta(reads, _path(args, "reads.fa"))
        outputs.append("reads.fa")
    _emit_run(args, _base_cfg(args), outputs)
    print(
        f"genome: nodes={g.n} arcs={g.succ_idx.size} seed={args.seed} -> {gfa_path}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# apsp
# ---------------------------------------------------------------------------


def cmd_apsp(args) -> int:
    pcm, _ = _device(args.config)
    w = _workload(args, "apsp", pcm=pcm)
    g = w.graph
    if args.fmt == "tsv" and g.n > TSV_LIMIT:
        raise UsageError(f"tsv export capped at {TSV_LIMIT} vertices, not n={g.n}")
    out = execute(w, cost_model_on=args.model)
    res = out["apsp"]

    dist_name = "dist.tsv" if args.fmt == "tsv" else "dist.bin"
    dist_path = _path(args, dist_name)
    export_distances(res, dist_path, fmt=args.fmt)
    outputs = [dist_name]

    if args.model:
        rep = out["cost"]
        with open(_path(args, "cost.csv"), "w") as fh:
            fh.write(rep.to_csv())
        with open(_path(args, "cost.json"), "w") as fh:
            fh.write(rep.to_json() + "\n")
        outputs += ["cost.csv", "cost.json"]

    _emit_run(args, dict(_base_cfg(args), device={"pcm": asdict(w.pcm)}), outputs)
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
    _, hbm = _device(args.config)
    w = _workload(args, "s2g", W=args.W, hbm=hbm)
    g, by_id = w.graph, dict(w.reads)

    out = execute(w, cost_model_on=args.model or args.W_sweep is not None)
    results = out["s2g"]
    ids = sorted(results)

    scores_path = _path(args, "scores.tsv")
    dump_alignments(scores_path, ids, [results[r] for r in ids])
    outputs = ["scores.tsv"]

    cfg = dict(_base_cfg(args), device={"hbm": asdict(w.hbm)})

    if args.W_sweep:
        # the device-fidelity kernel must reproduce, at every swept width,
        # the production score, lowest end node and derived window count
        rows = []
        for Wi in args.W_sweep:
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
        _write_csv(_path(args, "wsweep.csv"), ["W", "cycles", "ns", "pJ"], rows, cfg)
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
        with open(_path(args, "model.json"), "w") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        outputs.append("model.json")

    _emit_run(args, cfg, outputs)
    print(f"s2g: reads={len(ids)} mode={args.mode} -> {scores_path}")

    if args.verify:
        for rid in ids:
            want = align_reference(g, by_id[rid])
            seen = (results[rid].score_max, results[rid].end_nodes.tolist())
            expected = (want.score_max, want.end_nodes.tolist())
            if seen != expected:
                print(f"FAIL read {rid}: got (score, end nodes) {seen}, "
                      f"want {expected}")
                return EXIT_VERIFY
        print("PASS")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    cfg = _base_cfg(args)
    extra = {}  # keys only the CSV's config line carries

    if args.kind == "tilesize":
        pcm, _ = _device(args.config)
        cfg["device"] = {"pcm": asdict(pcm)}
        columns = ["N", "norm_latency", "norm_energy"]
        rows = [
            (N, f"{lat:.6g}", f"{en:.6g}")
            for N, lat, en in sweep_tile_size(args.Ns, p=pcm)
        ]
        extra = {"normalized_to": tile_reference(args.Ns)}
    elif args.kind == "pe":
        _, hbm = _device(args.config)
        cfg["device"] = {"hbm": asdict(hbm)}
        columns = ["pe_per_channel", "reads_per_s", "bandwidth_util"]
        rows = [
            (c, f"{thr:.6g}", f"{util:.6g}")
            for c, thr, util in sweep_pe_density(args.counts, h=hbm)
        ]
    elif args.kind == "sram":
        _, hbm = _device(args.config)
        cfg["device"] = {"hbm": asdict(hbm)}
        columns = ["capacity_bytes", "hbm_regular_bytes", "hbm_irregular_bytes",
                   "reads_per_s"]
        rows = [
            (cap, f"{reg:.6g}", f"{irr:.6g}", f"{thr:.6g}")
            for cap, reg, irr, thr in sweep_sram(args.caps, h=hbm)
        ]
    else:
        reports = [
            arithmetic_intensity("FwClassic"),
            arithmetic_intensity("FwPartitioned", n=args.n),
            arithmetic_intensity("S2G"),
        ]
        columns = ["kernel", "ops_per_byte", "convention"]
        rows = [
            (r.kernel, f"{r.ops_per_byte:.6g}", r.convention) for r in reports
        ]

    path = _path(args, f"{args.kind}.csv")
    _write_csv(path, columns, rows, {**cfg, **extra})
    _emit_run(args, cfg, [f"{args.kind}.csv"])
    print(f"sweep {args.kind}: {len(rows)} points -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def cmd_plan(args) -> int:
    w = _workload(args, args.kind)
    plan = lower(w)
    path = _path(args, "plan.json")
    with open(path, "w") as fh:
        fh.write(plan.to_json() + "\n")
    _emit_run(args, dict(_base_cfg(args), workload=w.kind, stages=len(plan.stages)),
              ["plan.json"])
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
        and model_fw_block(1024).cycles == 480 * 1024
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

    # parents: each flag is declared once, for every command that takes it
    out = _Parser(add_help=False)
    out.add_argument("--out", default=".",
                     help="output directory, made when the first file is written")
    threads = _Parser(add_help=False)
    threads.add_argument(
        "--threads", type=int, default=1,
        help="ignored: the engine runs sequentially; kept for existing scripts",
    )
    seed = _Parser(add_help=False)
    seed.add_argument("--seed", type=_seed, default=0,
                      help="seeds gen and verify; a sweep records it in run.json")
    device = _Parser(add_help=False)
    device.add_argument("--config", help="JSON device overrides, e.g. "
                        "{\"pcm\": {...}, \"hbm\": {...}}")
    apsp_in = _Parser(add_help=False)
    apsp_in.add_argument("--graph", required=True, help="edge-list file")
    apsp_in.add_argument("--max-tile", type=int, default=ApspWorkload.max_tile)
    s2g_in = _Parser(add_help=False)
    s2g_in.add_argument("--graph", required=True, help="graph file (GFA subset)")
    s2g_in.add_argument("--reads", required=True, help="FASTA reads")
    s2g_in.add_argument("--mode", choices=MAPPING_REQUESTS,
                        default=S2gWorkload.mode)
    writes = [out, threads]

    ap = _Parser(
        prog="graphdp",
        description="Exact graph closures and read alignment with a device "
        "cost model.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    gens = sub.add_parser("gen", help="synthesize inputs").add_subparsers(
        dest="kind", required=True
    )
    for kind in ("er", "nws"):
        g = gens.add_parser(kind, parents=[seed, *writes])
        g.add_argument("--n", type=int, required=True)
        if kind == "nws":
            g.add_argument("--k", type=int, required=True)
        g.add_argument("--p", type=float, required=True)
        g.add_argument("--w-max", type=int, default=100)
    g = gens.add_parser("genome", parents=[seed, *writes])
    g.add_argument("--bases", type=int, required=True)
    g.add_argument("--bubble-rate", type=float, default=0.02)
    g.add_argument("--reads", type=int, default=0, help="also sample reads")
    g.add_argument("--read-len", type=int, default=100)
    g.add_argument("--sub-rate", type=float, default=0.0)

    a = sub.add_parser("apsp", parents=[*writes, device, apsp_in],
                       help="close a weighted graph")
    a.add_argument("--fmt", choices=["bin", "tsv"], default="bin")
    a.add_argument("--verify", action="store_true",
                   help="cross-check against Dijkstra")
    a.add_argument("--model", action="store_true", help="attach cost report")

    s = sub.add_parser("s2g", parents=[*writes, device, s2g_in],
                       help="align reads to a graph")
    s.add_argument("--W", type=int, default=S2gWorkload.W, help="window width")
    s.add_argument("--W-sweep", type=_ints, default=None,
                   help="comma list of widths; checks score invariance")
    s.add_argument("--verify", action="store_true",
                   help="cross-check every read against the reference scorer")
    s.add_argument("--model", action="store_true",
                   help="attach throughput/energy report")

    sweeps = sub.add_parser("sweep", help="emit sensitivity curves").add_subparsers(
        dest="kind", required=True
    )
    for kind, flag, parse, default, text in (
        ("tilesize", "--Ns", _ints, "256,512,1024,2048", "tile sizes"),
        ("pe", "--counts", _ints, "16,32,64,128,192", "PEs per channel"),
        ("sram", "--caps", _sizes, "32K..512K",
         "SRAM bytes, comma list or lo..hi doubling range"),
    ):
        sweeps.add_parser(kind, parents=[seed, *writes, device]).add_argument(
            flag, type=parse, default=default, help=text
        )
    r = sweeps.add_parser("roofline", parents=[seed, *writes])
    r.add_argument("--n", type=int, default=1024, help="roofline tile size")

    plans = sub.add_parser("plan", help="dump an execution plan").add_subparsers(
        dest="kind", required=True
    )
    plans.add_parser("apsp", parents=[*writes, apsp_in])
    plans.add_parser("s2g", parents=[*writes, s2g_in])

    sub.add_parser("verify", parents=[seed, threads], help="run the oracle suites")
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.threads < 1:
            raise UsageError(f"--threads {args.threads} must be at least 1")
        return _COMMANDS[args.command](args)
    except UnicodeDecodeError as e:
        # a byte the text loaders (edge list, GFA, FASTA, JSON) cannot decode
        print(f"error: input is not valid text: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, GraphError, ModelError, PlanError, OSError,
            json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:  # numpy names the size it could not allocate
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
