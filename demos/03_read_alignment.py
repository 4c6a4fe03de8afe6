"""Windowed bit-parallel alignment of reads against a base-labelled DAG:
mode routing and window invariance."""

from graphdp import (
    align_reference,
    align_windowed,
    batch_align,
    gen_genome,
    gen_reads,
    parse_gfa,
    read_batches,
)

gfa, ref = gen_genome(4000, 0.03, seed=9)
g = parse_gfa(gfa)
print(f"genome graph: nodes={g.n} reference_len={len(ref)}")

reads = gen_reads(g, 10, 120, 0.04, seed=1)
# long tail; gen_reads numbers every batch from r0, so these get ids of their own
reads += [(f"long{i}", q) for i, (_, q) in enumerate(gen_reads(g, 2, 900, 0.01, seed=2))]
assert len({rid for rid, _ in reads}) == len(reads)  # results are keyed by read id
short, long_ = read_batches(reads, "auto")
print(f"reads: {len(short.reads)} short + {len(long_.reads)} long")

res_s, trace_s = batch_align(g, short, W=128)
res_l, trace_l = batch_align(g, long_, W=128)
for trace in (trace_s, trace_l):
    print(f"{trace.reads} reads -> {trace.mode}, "
          f"{sum(trace.window_passes)} window passes")

rid, q = short.reads[0]
ref_res = align_reference(g, q)
print(f"\nread {rid} (len {len(q)}): best exact prefix = {ref_res.score_max}")
for W in (8, 32, 128):
    got = align_windowed(g, q, W=W)
    assert got.score_max == ref_res.score_max  # width never changes scores
    print(f"  W={W:4d}: score {got.score_max}, ends {got.end_nodes[:3]}")
