"""Benchmark workloads: seeded inputs and the graphdp commands of one repetition.

Each workload writes its input files once during set-up, from the library's
own seeded generators, and then runs the same ``graphdp`` command(s) on them
in every repetition.  The program sees only the generated files; the
benchmark seed reaches it only through the inputs (and, for the tile sweep,
whose input graph is built in, through ``--seed``).  Why each workload and
size was chosen is written down in ``README.md`` next to this file.

Nothing here imports graphdp at module level, so that the set-up timer in
``worker.py`` includes the first import.
"""

from __future__ import annotations

import os

# apsp-er: a random graph has no small separators, so the top closure is
# about n and Floyd-Warshall dominates
ER_N = 1000
ER_P = 0.006
ER_TILE = 128

# apsp-clustered: two-level locality the recursion can use
CL_CLUSTERS = 32
CL_SIZE = 64
CL_GROUPS = 4
CL_TILE = 256

# s2g-*: one pangenome-like graph, two read shapes
GENOME_BASES = 5000
BUBBLE_RATE = 0.02
SHORT_READS = 64
SHORT_LEN = 150
SHORT_SUB = 0.02
LONG_READS = 8
LONG_LEN = 2000

# sweep-tile: the CLI's default tile sizes on its built-in clique chain,
# normalised to the N=1024 design point
TILE_REFERENCE = 1024

NAMES = ("apsp-er", "apsp-clustered", "s2g-short", "s2g-long", "sweep-tile")

# independent input instances per repetition; clustered graphs differ in
# hierarchy shape from seed to seed, so one repetition closes several
INSTANCES = {"apsp-clustered": 3}

# share of a repetition's time spent in interpreted Python rather than in
# numpy loops, from the traced runs; it weights the host-speed calibration
PY_SHARE = {
    "apsp-er": 0.1,
    "apsp-clustered": 0.5,
    "s2g-short": 1.0,
    "s2g-long": 1.0,
    "sweep-tile": 0.75,
}
SETUP_PY_SHARE = 1.0

# the tile whose hierarchy the partition quality metrics describe
HIERARCHY_TILE = {
    "apsp-er": ER_TILE,
    "apsp-clustered": CL_TILE,
    "sweep-tile": TILE_REFERENCE,
}


def instances(name: str, seed: int) -> list:
    """(index, seed) of each input instance; disjoint across run seeds."""
    k = INSTANCES.get(name, 1)
    return [(i, seed * k + i) for i in range(k)]


def generate(name: str, seed: int, indir: str) -> None:
    """Write every instance's input files into ``indir/<index>``."""
    for i, s in instances(name, seed):
        _generate_one(name, s, os.path.join(indir, str(i)))


def _generate_one(name: str, seed: int, indir: str) -> None:
    from graphdp.graphs import (
        dump_edge_list,
        dump_fasta,
        gen_clustered,
        gen_er,
        gen_genome,
        gen_reads,
        parse_gfa,
    )

    os.makedirs(indir, exist_ok=True)
    if name == "apsp-er":
        dump_edge_list(gen_er(ER_N, ER_P, seed), os.path.join(indir, "graph.edges"))
    elif name == "apsp-clustered":
        g = gen_clustered(CL_CLUSTERS, CL_SIZE, seed, groups=CL_GROUPS)
        dump_edge_list(g, os.path.join(indir, "graph.edges"))
    elif name in ("s2g-short", "s2g-long"):
        gfa, _ = gen_genome(GENOME_BASES, BUBBLE_RATE, seed)
        with open(os.path.join(indir, "graph.gfa"), "w") as fh:
            fh.write(gfa)
        g = parse_gfa(gfa)
        if name == "s2g-short":
            reads = gen_reads(g, SHORT_READS, SHORT_LEN, SHORT_SUB, seed + 1)
        else:
            reads = gen_reads(g, LONG_READS, LONG_LEN, 0.0, seed + 1)
        dump_fasta(reads, os.path.join(indir, "reads.fa"))
    elif name != "sweep-tile":
        raise ValueError(f"unknown workload {name!r}")


def commands(name: str, seed: int, indir: str, outdir: str) -> list:
    """(label, argv) for each graphdp command of one repetition.

    Every command writes into the same directory in every repetition, so
    the repetitions' output files can be compared byte for byte.
    """
    out = []
    for i, s in instances(name, seed):
        ind = os.path.join(indir, str(i))
        common = ["--threads", "1", "--out", os.path.join(outdir, str(i))]
        if name.startswith("apsp-"):
            tile = ER_TILE if name == "apsp-er" else CL_TILE
            argv = ["apsp", "--graph", os.path.join(ind, "graph.edges"),
                    "--max-tile", str(tile), "--model"]
        elif name.startswith("s2g-"):
            argv = ["s2g", "--graph", os.path.join(ind, "graph.gfa"),
                    "--reads", os.path.join(ind, "reads.fa"), "--model"]
        elif name == "sweep-tile":
            argv = ["sweep", "tilesize", "--seed", str(s)]
        else:
            raise ValueError(f"unknown workload {name!r}")
        out.append((f"{argv[0]}.{i}", argv + common))
    return out
