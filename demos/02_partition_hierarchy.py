"""Multilevel partitioning: how the boundary shrinks level by level and why
the severed boundary graph is safe to recurse on."""

import numpy as np

from graphdp import (
    INF_SENTINEL,
    build_hierarchy,
    distance_init,
    find_boundary,
    floyd_warshall_dense,
    gen_clustered,
    kway_partition,
)

g = gen_clustered(24, 30, seed=2, groups=4)
print(f"clustered graph: n={g.n} arcs={g.edge_count}")

hier = build_hierarchy(g, max_tile=64)
print(f"hierarchy: depth={hier.depth} truncated={hier.truncated}")
for li, lv in enumerate(hier.levels):
    sizes = [lv.partition.component(c).size for c in range(lv.partition.k)]
    print(f"  level {li}: k={lv.partition.k} max_comp={max(sizes)} "
          f"boundary={lv.boundaries.union.size}")

# one level by hand: cut, close the component blocks in place, slice the
# boundary graph out of the closed matrix
p = kway_partition(g, 6)
bs = find_boundary(g, p)
d0 = distance_init(g)
for c in range(p.k):
    ids = p.component(c)
    d0[np.ix_(ids, ids)] = floyd_warshall_dense(d0[np.ix_(ids, ids)])
gb = d0[np.ix_(bs.union, bs.union)]
# every finite entry off the (zero) diagonal is an arc of the boundary graph
arcs = int(np.count_nonzero(gb < INF_SENTINEL)) - bs.union.size
print(f"manual cut: k=6 boundary={bs.union.size} boundary_arcs={arcs}")

# distances between boundary vertices survive the reduction exactly
got = floyd_warshall_dense(gb)
want = floyd_warshall_dense(distance_init(g))[np.ix_(bs.union, bs.union)]
assert np.array_equal(got, want)
print("boundary-to-boundary distances are preserved exactly")
