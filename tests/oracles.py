"""Reference implementations shared by the test modules.

``dijkstra_oracle`` is all-pairs Dijkstra from scipy.sparse.csgraph, run on
the graph's arcs: it shares no kernel with graphdp's Floyd-Warshall and
min-plus code, so a test that grades the engine against it does not grade a
kernel against itself.

``topo_reference`` and ``parse_gfa_reference`` are the topological sort
and the GFA reader as they were before they were moved off numpy scalars
and per-base loops: a min-id heap over numpy arrays, and a per-base
expansion into an edge list.  They pin the production ingest to the same
graphs, orders and error messages.

``bank_conflict_reference`` is the traversal tile's per-sweep cycle count
as a node-by-node loop; the vectorised ``costmodel._bank_conflict_cycles``
must equal it exactly, fractional ``bank_access_cycles`` included.

``disjoint_copies`` lays copies of a graph side by side, a disconnected
input whose hierarchy levels can cut no arc.
"""

import heapq

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from graphdp.graphs import (
    DNA_ALPHABET,
    INF_SENTINEL,
    AlphabetError,
    CycleError,
    FormatError,
    GenomeGraph,
    WeightedGraph,
)
from graphdp.costmodel import KNUTH_HASH
from graphdp.s2g import classify_self_hop


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


def disjoint_copies(g, copies):
    off = np.repeat(np.arange(copies) * g.n, g.src.size)
    return WeightedGraph(
        g.n * copies,
        np.tile(g.src, copies) + off,
        np.tile(g.dst, copies) + off,
        np.tile(g.w, copies),
    )


def topo_reference(n, src, dst):
    """The reference topological sort; ``graphdp.graphs.topo_sort`` must
    return the same order, or raise the same ``CycleError``, for every
    input."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    indeg = np.zeros(n, dtype=np.int64)
    np.add.at(indeg, dst, 1)
    order_ = np.lexsort((dst, src))
    s_sorted = src[order_]
    d_sorted = dst[order_]
    rowptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(rowptr, s_sorted + 1, 1)
    np.cumsum(rowptr, out=rowptr)

    heap = [int(v) for v in np.nonzero(indeg == 0)[0]]
    heapq.heapify(heap)
    out = np.empty(n, dtype=np.int64)
    filled = 0
    indeg = indeg.copy()
    while heap:
        u = heapq.heappop(heap)
        out[filled] = u
        filled += 1
        for v in d_sorted[rowptr[u] : rowptr[u + 1]]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, int(v))
    if filled != n:
        stuck = indeg > 0
        for u, v in zip(s_sorted, d_sorted):
            if stuck[u] and stuck[v]:
                raise CycleError(f"cycle through edge ({int(u)}, {int(v)})")
        raise CycleError("cycle detected")
    return out


def parse_gfa_reference(text):
    """The reference GFA reader; ``graphdp.graphs.parse_gfa`` must build
    the same graph, or raise the same error, for every text with at least
    one segment."""
    seg_seq = {}
    links = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        tag = parts[0]
        if tag == "S":
            if len(parts) < 3:
                raise FormatError(f"line {lineno}: S record needs id and sequence")
            name, seq = parts[1], parts[2]
            if name in seg_seq:
                raise FormatError(f"line {lineno}: duplicate segment {name!r}")
            if not seq:
                raise FormatError(f"line {lineno}: empty sequence")
            seg_seq[name] = seq.upper()
        elif tag == "L":
            if len(parts) < 5:
                raise FormatError(f"line {lineno}: L record needs from,+,to,+")
            frm, o1, to, o2 = parts[1], parts[2], parts[3], parts[4]
            if o1 != "+" or o2 != "+":
                raise FormatError(
                    f"line {lineno}: only '+' orientations are supported"
                )
            links.append((frm, to))
        else:
            raise FormatError(f"line {lineno}: record type {tag!r} not supported")

    bases = []
    first = {}
    last = {}
    edges = []
    for name, seq in seg_seq.items():
        first[name] = len(bases)
        for i, ch in enumerate(seq):
            if i > 0:
                edges.append((len(bases) - 1, len(bases)))
            bases.append(ch)
        last[name] = len(bases) - 1
    for frm, to in links:
        if frm not in seg_seq or to not in seg_seq:
            missing = frm if frm not in seg_seq else to
            raise FormatError(f"link references unknown segment {missing!r}")
        edges.append((last[frm], first[to]))

    text_bases = "".join(bases)
    try:
        raw = text_bases.encode("ascii")
    except UnicodeEncodeError as exc:
        raise AlphabetError(f"base {text_bases[exc.start]!r} not in ACGTN") from exc
    b = np.frombuffer(raw, dtype=np.uint8).copy()
    bad = ~np.isin(b, np.frombuffer(DNA_ALPHABET, dtype=np.uint8))
    if np.any(bad):
        raise AlphabetError(f"base {chr(b[int(np.argmax(bad))])!r} not in ACGTN")
    n = b.size
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    src, dst = arr[:, 0], arr[:, 1]
    order = topo_reference(n, src, dst)

    def csr(a, b_):
        idx = np.lexsort((b_, a))
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(ptr, a[idx] + 1, 1)
        np.cumsum(ptr, out=ptr)
        return ptr, b_[idx]

    succ_ptr, succ_idx = csr(src, dst)
    pred_ptr, pred_idx = csr(dst, src)
    g = GenomeGraph(b, pred_ptr, pred_idx, succ_ptr, succ_idx, order)
    g.names = list(seg_seq)
    return g


def bank_conflict_reference(g, h):
    self_mask = classify_self_hop(g)
    banks = (np.arange(g.n, dtype=np.uint64) * KNUTH_HASH % (1 << 32)) % h.sram_banks
    cycles = 0.0
    for v in range(g.n):
        if self_mask[v]:
            cycles += 1
            continue
        lo, hi = g.pred_ptr[v], g.pred_ptr[v + 1]
        if lo == hi:
            cycles += 1
            continue
        hit = np.bincount(banks[g.pred_idx[lo:hi]].astype(np.int64))
        cycles += int(hit.max()) * h.bank_access_cycles + 1
    return cycles
