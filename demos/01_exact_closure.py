"""Exact closure of a random graph, checked against the dense reference
and read pair by pair, and the schedule the engine picks for it and for a
clustered graph."""

import os
import tempfile

import numpy as np

from graphdp import (
    INF_SENTINEL,
    distance_init,
    export_distances,
    floyd_warshall_dense,
    gen_clustered,
    gen_er,
    load_distances,
    recursive_apsp,
)

g = gen_er(600, 0.01, seed=4)
print(f"graph: n={g.n} arcs={g.edge_count}")

res = recursive_apsp(g, max_tile=128)
print(f"closure: mode={res.trace.mode} levels={res.trace.depth} "
      f"fw_events={len(res.trace.fw_events)} merges={res.trace.counts()['merges']}")

# the engine is exact, not approximate
want = floyd_warshall_dense(distance_init(g))
assert np.array_equal(res.dist, want)
print("matches the dense closure entrywise")

for u, v in [(0, 1), (0, 599), (17, 403)]:
    d = res.dist[u, v]
    print(f"  dist({u}, {v}) = {'unreachable' if d == INF_SENTINEL else d}")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "dist.bin")
    export_distances(res, path)
    back = load_distances(path)
assert np.array_equal(back, want)
print("binary export round-trips")

# a random graph has no small separators, so recursion would cost more than
# the one closure above; clustered graphs recurse
cg = gen_clustered(16, 40, seed=3, groups=4)
cres = recursive_apsp(cg, max_tile=128)
assert np.array_equal(cres.dist, floyd_warshall_dense(distance_init(cg)))
print(f"clustered n={cg.n}: mode={cres.trace.mode} levels={cres.trace.depth} "
      f"merges={cres.trace.counts()['merges']}")
