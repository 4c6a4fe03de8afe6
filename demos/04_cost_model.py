"""Pricing real execution traces: closure phases on the in-memory matrix
units, traversal throughput on the near-bank channel, and where each
kernel sits against the bandwidth roof."""

from graphdp import (
    HbmParams,
    PcmParams,
    arithmetic_intensity,
    gen_clustered,
    gen_genome,
    gen_reads,
    model_fw_block,
    model_recursive_apsp,
    model_traversal,
    parse_gfa,
    recursive_apsp,
)
from graphdp.costmodel import make_traversal_trace

# a 1024x1024 block closure repeats a fixed cycle recipe once per pivot
dim = 1024
blk = model_fw_block(dim)
print("one pivot step on a full block:")
for name, rep in sorted(blk.phases.items()):
    print(f"  {name:8s} {rep.cycles / dim:6.0f} cycles")
print(f"  total    {blk.cycles / dim:6.0f} cycles")

# price a whole recursive closure from its trace
g = gen_clustered(20, 40, seed=3, groups=4)
res = recursive_apsp(g, max_tile=256)
cost = model_recursive_apsp(res.trace, PcmParams())
print(f"\nclosure of n={g.n}: {cost.wall_time_s * 1e6:.1f} us, "
      f"{cost.energy_j * 1e6:.2f} uJ, phases: "
      + " ".join(sorted(cost.phases)))

# traversal: same reads, two mappings, one model
gfa, _ = gen_genome(3000, 0.03, seed=5)
gg = parse_gfa(gfa)
lens = [len(q) for _, q in gen_reads(gg, 64, 150, 0.02, seed=6)]
bt = make_traversal_trace(gg, lens, W=128)
rep = model_traversal(bt, HbmParams())
print(f"\n{bt.reads} reads ({bt.mode}): "
      f"{bt.reads / rep.wall_time_s / 1e6:.2f} M reads/s, "
      f"bandwidth util {rep.utilization['bandwidth']:.2f}")

print("\nops per byte:")
for kernel in ("FwClassic", "FwPartitioned", "S2G"):
    r = arithmetic_intensity(kernel, n=1024)
    print(f"  {r.kernel:14s} {r.ops_per_byte:8.3f}  ({r.convention})")
