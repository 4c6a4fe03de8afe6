"""Independent distance oracle shared by the test modules.

All-pairs Dijkstra from scipy.sparse.csgraph, run on the graph's arcs: it
shares no kernel with graphdp's Floyd-Warshall and min-plus code, so a test
that grades the engine against it does not grade a kernel against itself.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from graphdp.graphs import INF_SENTINEL


def dijkstra_oracle(g) -> np.ndarray:
    """All-pairs shortest distances of ``g`` as int64, saturated at
    ``INF_SENTINEL``.

    Parallel arcs are collapsed to the lightest first, because building a
    sparse matrix sums duplicate entries.  Dijkstra runs in float64, which
    is exact for every sum below 2^53; unreachable pairs and distances past
    the sentinel both clamp to it.
    """
    order = np.lexsort((g.w, g.dst, g.src))
    src, dst, w = g.src[order], g.dst[order], g.w[order]
    first = np.ones(src.size, dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    mat = sp.csr_matrix(
        (w[first].astype(np.float64), (src[first], dst[first])), shape=(g.n, g.n)
    )
    dist = dijkstra(mat, directed=True)
    return np.minimum(dist, INF_SENTINEL).astype(np.int64)
