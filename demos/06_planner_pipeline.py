"""One workload, two views: the staged plan that maps the workload onto
the device tiles, and its execution on the engines, with the cost model
riding along without touching results."""

import json

from graphdp import S2gWorkload, execute, gen_genome, gen_reads, lower, parse_gfa

gfa, _ = gen_genome(2500, 0.02, seed=8)
g = parse_gfa(gfa)
# both calls number their reads from r0, so the long reads are renamed
reads = gen_reads(g, 6, 100, 0.02, seed=1) + [
    (f"long{i}", seq) for i, (_, seq) in enumerate(gen_reads(g, 2, 600, 0.01, seed=2))
]

w = S2gWorkload(g, reads, mode="auto")
plan = lower(w)
print(f"plan ({len(plan.stages)} stages):")
for st in plan.stages:
    extra = f" [{st.mapping}]" if st.mapping else ""
    print(f"  {st.id:14s} {st.kind:12s} on {st.tile}{extra}")

doc = json.loads(plan.to_json())
assert [s["id"] for s in doc["stages"]] == [st.id for st in plan.stages]

out = execute(w, cost_model_on=True)
print("\nscores:", {r: out["s2g"][r].score_max for r in sorted(out["s2g"])})
print(f"modeled wall time: {out['cost'].wall_time_s * 1e6:.1f} us")

# toggling the cost model cannot perturb results
off = execute(w, cost_model_on=False)
assert {r: v.score_max for r, v in off["s2g"].items()} == {
    r: v.score_max for r, v in out["s2g"].items()
}
print("cost model on/off: identical alignment results")
