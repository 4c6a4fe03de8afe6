"""Output checks against oracles that share no kernel with graphdp's engines.

Each check returns ``(name, ok, detail)``.  The APSP check decodes
``dist.bin`` itself and compares it with scipy's Dijkstra; the s2g check
rescores every read with ``graphdp.s2g.align_reference``, the plain
per-position oracle, which shares no code with the windowed kernel; the
tile-sweep check compares ``tilesize.csv`` with the paper's ratios.
"""

from __future__ import annotations

import json
import os

import numpy as np

import workloads

INF_SENTINEL = 2**31 - 1
DIST_MAGIC = b"GDPD"

# paper ratios of modelled latency to the N=1024 design point
TILE_TARGETS = {256: 2.41, 512: 1.28, 1024: 1.0, 2048: 2.29}
TILE_TOLERANCE = 0.15


def _read_edges(path: str):
    with open(path) as fh:
        head = fh.readline()
    if not head.startswith("# n="):
        raise ValueError(f"{path}: missing '# n=' header")
    n = int(head[4:])
    e = np.loadtxt(path, comments="#", dtype=np.int64, ndmin=2).reshape(-1, 3)
    return n, e[:, 0], e[:, 1], e[:, 2]


def _read_dist(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != DIST_MAGIC:
        raise ValueError(f"{path}: bad magic")
    n = int.from_bytes(raw[4:8], "little")
    data = np.frombuffer(raw, dtype="<u4", offset=8)
    if data.size != n * n:
        raise ValueError(f"{path}: {data.size} values for n={n}")
    return data.reshape(n, n).astype(np.int64)


def check_apsp(edges_path: str, dist_path: str):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n, src, dst, w = _read_edges(edges_path)
    # CSR construction sums duplicate arcs, so keep only the lightest
    order = np.lexsort((w, dst, src))
    src, dst, w = src[order], dst[order], w[order]
    first = np.ones(src.size, dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    adj = csr_matrix((w[first], (src[first], dst[first])), shape=(n, n))
    want = dijkstra(adj, directed=True)
    want = np.where(np.isinf(want), INF_SENTINEL, np.minimum(want, INF_SENTINEL))
    want = want.astype(np.int64)
    got = _read_dist(dist_path)
    if got.shape != want.shape:
        return "apsp.dijkstra", False, f"shape {got.shape} != {want.shape}"
    bad = np.argwhere(got != want)
    if bad.size:
        u, v = (int(x) for x in bad[0])
        return ("apsp.dijkstra", False,
                f"{len(bad)} pairs differ, first ({u},{v}): "
                f"{got[u, v]} != {want[u, v]}")
    return "apsp.dijkstra", True, f"{n}x{n} pairs equal"


def _read_fasta(path: str) -> list:
    recs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith(">"):
                recs.append([line[1:].split()[0], ""])
            elif line:
                recs[-1][1] += line.upper()
    return [(r, s) for r, s in recs]


def check_s2g(gfa_path: str, reads_path: str, scores_path: str, exact_len=None):
    from graphdp.graphs import load_genome_graph
    from graphdp.s2g import align_reference

    g = load_genome_graph(gfa_path)
    reads = _read_fasta(reads_path)
    got = {}
    with open(scores_path) as fh:
        for line in fh:
            rid, score, end = line.rstrip("\n").split("\t")[:3]
            got[rid] = (int(score), int(end))
    out = []
    bad = [rid for rid, _ in reads if rid not in got]
    for rid, seq in reads:
        if rid in got:
            ref = align_reference(g, seq)
            end = int(ref.end_nodes[0]) if ref.end_nodes.size else -1
            if got[rid] != (ref.score_max, end):
                bad.append(rid)
    out.append(("s2g.align_reference", not bad and len(got) == len(reads),
                f"{len(reads) - len(bad)}/{len(reads)} reads agree"
                + (f", first bad {bad[0]}" if bad else "")))
    if exact_len is not None:
        short = [rid for rid, (score, _) in got.items() if score != exact_len]
        out.append(("s2g.exact_reads_full_score", not short,
                    f"{len(got) - len(short)}/{len(got)} score {exact_len}"))
    return out


def check_tilesize(csv_path: str):
    lat = {}
    with open(csv_path) as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            n, latency, _ = line.strip().split(",")
            lat[int(n)] = float(latency)
    if sorted(lat) != sorted(TILE_TARGETS):
        return [("sweep.ratios", False, f"tile sizes {sorted(lat)}")]
    off = {N: lat[N] / want - 1.0 for N, want in TILE_TARGETS.items()}
    detail = " ".join(f"{N}:{lat[N]:.3g}" for N in sorted(lat))
    return [
        ("sweep.ratios", all(abs(x) <= TILE_TOLERANCE for x in off.values()),
         detail),
        ("sweep.convex_min_1024",
         lat[256] > lat[512] > lat[1024] < lat[2048]
         and min(lat, key=lat.get) == 1024, detail),
    ]


def device_totals(outdir: str) -> tuple:
    """Modelled device seconds and joules from every cost.json/model.json."""
    secs = joules = 0.0
    for base, _, files in os.walk(outdir):
        for name in files:
            path = os.path.join(base, name)
            if name == "cost.json":
                with open(path) as fh:
                    doc = json.load(fh)
                secs += doc["ns"] * 1e-9
                joules += doc["pJ"] * 1e-12
            elif name == "model.json":
                with open(path) as fh:
                    doc = json.load(fh)
                secs += doc["wall_s"]
                joules += doc["energy_j"]
    return secs, joules


def check_outputs(workload: str, seed: int, indir: str, outdir: str) -> list:
    """Every check of one workload's final output files, per instance."""
    found = []
    for i, _ in workloads.instances(workload, seed):
        ind = os.path.join(indir, str(i))
        out = os.path.join(outdir, str(i))
        if workload.startswith("apsp-"):
            got = [check_apsp(os.path.join(ind, "graph.edges"),
                              os.path.join(out, "dist.bin"))]
        elif workload.startswith("s2g-"):
            got = check_s2g(
                os.path.join(ind, "graph.gfa"),
                os.path.join(ind, "reads.fa"),
                os.path.join(out, "scores.tsv"),
                exact_len=workloads.LONG_LEN if workload == "s2g-long" else None,
            )
        else:
            got = check_tilesize(os.path.join(out, "tilesize.csv"))
        found += [(f"{name}.{i}", ok, d) for name, ok, d in got]
    return found
