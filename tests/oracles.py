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

``load_edge_list_reference`` is the edge-list reader as a line loop over
the decoded text, as it was before regular files were tokenised in one
call; the production reader must return the same arrays and ``n``, or raise
the same error, for every file.

``bank_conflict_reference`` is the traversal tile's per-sweep cycle count
as a node-by-node loop; the vectorised ``costmodel._bank_conflict_cycles``
must equal it exactly, fractional ``bank_access_cycles`` included.

``model_recursive_apsp_reference`` prices a trace event by event, building
one ``CostReport`` per event (wide merges split as ``costmodel._mp_split``
splits them) and adding reports pairwise with its own field-by-field
``_added``, as the pricing did before it memoised event shapes and folded
each phase's fields in one pass; ``cost.json`` and ``cost.csv`` must stay
byte-identical to it.

``report_sum_reference`` adds reports one ``_added`` pair at a time, the
chain that ``costmodel._report_sum`` folds field by field.

``makespan_reference`` is the LPT schedule length as a linear scan for
the least-loaded worker, as it was before the production ``_makespan``
moved onto a heap; ``model_recursive_apsp_reference`` schedules with it.

``hierarchy_cost_reference`` is the tile sweep's pricing of one hierarchy
as an event-by-event ``+=`` loop, each merge stated as its two tree
passes; ``costmodel._hierarchy_cost`` must return the same two floats.

``disjoint_copies`` lays copies of a graph side by side, a disconnected
input whose hierarchy levels can cut no arc.

``run_schedule`` is the device's dataflow: it runs a trace's events over
its hierarchy on int64 matrices by plain broadcast min-plus, sharing no
kernel with ``minplus.py``, and ``check_schedule_run`` grades the run with
``dijkstra_oracle`` and compares the events it ran with
``ExecutionTrace.counts()``, so what the cost model prices is an exact
algorithm.
"""

import heapq
import math
from collections import Counter
from dataclasses import replace

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
from graphdp.costmodel import (
    KNUTH_HASH,
    MP_TREE_INPUTS,
    CostReport,
    PcmParams,
    _fw_cost,
    _tile_params,
    model_mp_merge,
)
from graphdp.apsp import schedule
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


def load_edge_list_reference(path):
    n_hint = -1
    src, dst, w = [], [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("n="):
                    try:
                        n_hint = int(body[2:])
                    except ValueError as exc:
                        raise FormatError(f"line {lineno}: bad n= comment") from exc
                    if n_hint < 0:
                        raise FormatError(f"line {lineno}: bad n= comment")
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected src<TAB>dst<TAB>weight")
            try:
                src.append(int(parts[0]))
                dst.append(int(parts[1]))
                w.append(int(parts[2]))
            except ValueError as exc:
                raise FormatError(f"line {lineno}: non-integer field") from exc
    n = n_hint
    if n < 0:
        n = (max(max(src), max(dst)) + 1) if src else 0
    try:
        cols = [np.asarray(col, dtype=np.int64) for col in (src, dst, w)]
    except OverflowError as exc:
        raise FormatError("edge field outside the 64-bit integer range") from exc
    return WeightedGraph(n, *cols)


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
    return GenomeGraph(b, pred_ptr, pred_idx, succ_ptr, succ_idx, order)


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


def report_sum_reference(reps):
    """``reps[0] + reps[1] + ...``, one ``_added`` pair at a time."""
    total = reps[0]
    for r in reps[1:]:
        total = _added(total, r)
    return total


def _added(a, b):
    merged = dict(a.phases)
    for k, v in b.phases.items():
        merged[k] = _added(merged[k], v) if k in merged else v
    return CostReport(
        cycles=a.cycles + b.cycles,
        wall_time_s=a.wall_time_s + b.wall_time_s,
        energy_j=a.energy_j + b.energy_j,
        hbm_bytes_regular=a.hbm_bytes_regular + b.hbm_bytes_regular,
        hbm_bytes_irregular=a.hbm_bytes_irregular + b.hbm_bytes_irregular,
        pcm_writes=a.pcm_writes + b.pcm_writes,
        phases=merged,
    )


def _merge_pass(rows, width, p):
    if width <= MP_TREE_INPUTS:
        return model_mp_merge(rows, width, p)
    parts = math.ceil(width / MP_TREE_INPUTS)
    partial = model_mp_merge(rows * parts, MP_TREE_INPUTS, p)
    return _added(partial, model_mp_merge(rows, parts, p))


def _ordered_pairs(sizes, bsizes):
    """``(s1, b1, s2, b2)`` of every ordered pair of a level's components
    with a boundary, c1-major, as the device merges them."""
    comps = list(zip(sizes, bsizes))
    return [
        (s1, b1, s2, b2)
        for c1, (s1, b1) in enumerate(comps)
        for c2, (s2, b2) in enumerate(comps)
        if c1 != c2
    ]


def makespan_reference(durations, workers):
    if not durations:
        return 0.0
    if len(durations) <= workers:
        return max(durations)
    loads = [0.0] * workers
    for d in sorted(durations, reverse=True):
        i = min(range(workers), key=loads.__getitem__)
        loads[i] += d
    return max(loads)


def model_recursive_apsp_reference(trace, p=None):
    p = p or PcmParams()
    U = p.total_units

    total = CostReport()
    wall = 0.0
    by_level_fw = {}
    for ev in trace.fw_events:
        by_level_fw.setdefault((ev.level, ev.kind), []).append(ev.dim)

    def add_phase(name, rep, wall_s):
        nonlocal total, wall
        entry = replace(rep, wall_time_s=wall_s)
        total = _added(total, replace(entry, phases={name: entry}))
        wall += wall_s

    for (level, kind), dims in sorted(by_level_fw.items()):
        if kind == "top":
            rep = _fw_cost(dims[0], p)
            add_phase("top.fw", rep, rep.wall_time_s)
            continue
        reps = [_fw_cost(d, p) for d in dims if d > 0]
        if not reps:
            continue
        agg = CostReport()
        for r in reps:
            agg = _added(agg, r)
        span = makespan_reference([r.wall_time_s for r in reps], U)
        add_phase(f"level{level}.{kind}", agg, span)

    for level, (sizes, bsizes) in sorted(trace.merge_levels.items()):
        reps = []
        stage_bytes = 0.0
        for s1, b1, s2, b2 in _ordered_pairs(sizes, bsizes):
            reps.append(_merge_pass(s1 * b2, b1, p))
            reps.append(_merge_pass(s1 * s2, b2, p))
            stage_bytes += s1 * s2 * (p.bits // 8)
        agg = CostReport()
        for r in reps:
            agg = _added(agg, r)
        span = makespan_reference([r.wall_time_s for r in reps], U)
        if level >= 1:
            agg = _added(agg, CostReport(hbm_bytes_regular=stage_bytes))
            span = max(span, stage_bytes / p.hbm_bandwidth)
        add_phase(f"level{level}.merge", agg, span)

    if trace.inject_pairs:
        bursts = math.ceil(trace.inject_pairs / 32)
        cyc = bursts * 10
        en = trace.inject_pairs * p.bits * p.write_energy_pj * 1e-12
        rep = CostReport(
            cycles=cyc,
            wall_time_s=cyc / p.clock_hz,
            energy_j=en,
            pcm_writes=float(trace.inject_pairs),
        )
        add_phase("inject", rep, rep.wall_time_s)

    busy = sum(r.cycles for r in total.phases.values())
    return replace(
        total,
        wall_time_s=wall,
        cycles=wall * p.clock_hz,
        utilization={"units": busy / (wall * p.clock_hz * U) if wall else 0.0},
    )


def hierarchy_cost_reference(hier, N, p):
    pn = _tile_params(p, N)
    units = p.total_units * (1024.0 / N) ** 2
    trace = schedule(hier, "lazy")
    close_cycles = 0.0
    merge_cycles = 0.0
    energy = 0.0
    for ev in trace.fw_events:
        rep = _fw_cost(ev.dim, pn)
        close_cycles += rep.cycles
        energy += rep.energy_j
    pairs = [
        pair
        for sizes, bsizes in trace.merge_levels.values()
        for pair in _ordered_pairs(sizes, bsizes)
    ]
    for s1, b1, s2, b2 in pairs:
        for rows, width in ((s1 * b2, b1), (s1 * s2, b2)):
            rep = _merge_pass(rows, width, pn)
            merge_cycles += rep.cycles
            energy += rep.energy_j
    clock = p.clock_hz * pn.derate(N)
    wall = close_cycles / (units * clock) + merge_cycles / (p.merge_drain_lanes * clock)
    return wall, energy


def _min_plus(a, b):
    """``a (x) b`` by broadcast, every entry at most the sentinel."""
    return (a[:, :, None] + b[None, :, :]).min(axis=1, initial=INF_SENTINEL)


def _close_block(d, ids):
    """Floyd-Warshall over ``d[ids, ids]`` in place, one pivot at a time.
    Every entry is the minimum of a stored one and a candidate, so none
    exceeds the sentinel and no int64 sum wraps."""
    blk = d[np.ix_(ids, ids)]
    for k in range(ids.size):
        blk = np.minimum(blk, blk[:, k, None] + blk[None, k, :])
    d[np.ix_(ids, ids)] = blk


def run_schedule(g, hier, trace):
    """Run ``trace``'s events over ``hier`` in the order the trace lists
    them; return the level matrices and the events run, counted by
    ``(kind, level)``.

    Level 0's matrix is ``g``'s distance seed; level ``l``'s is the
    ``[boundary, boundary]`` slice of level ``l - 1``'s, taken when a
    level-``l`` event first reads it.  The ``close`` events of a level
    close its components' blocks in component order, and ``top`` closes
    its level's whole matrix (the graph's, in the direct schedule).  A
    run of a level's ``reclose`` events first injects the level above's
    matrix as it stands, the boundary closure, into every component's
    boundary pairs, then re-closes one component per event in the
    boundary set's order; then per ordered pair ``(c1, c2)`` of the
    components in the level's merge record, c1-major, it runs the pass
    through c1's boundary into ``s1 x b2`` rows, and the pass through
    c2's that min-accumulates the ``s1 x s2`` cross block.
    """
    levels = hier.levels
    seed = np.full((g.n, g.n), INF_SENTINEL, dtype=np.int64)
    np.minimum.at(seed, (g.src, g.dst), g.w)
    np.fill_diagonal(seed, 0)
    mats = [seed]
    ran = Counter()

    def mat(li):
        if li == len(mats):
            u = levels[li - 1].boundaries.union
            mats.append(mats[li - 1][np.ix_(u, u)])
        return mats[li]

    def boundary(li):
        bset, part = levels[li].boundaries, levels[li].partition
        return [
            (part.component(c), b, np.searchsorted(bset.union, b))
            for c, b in sorted(bset.per_component.items())
        ]

    def inject(li):
        d, closure = mat(li), mat(li + 1)
        for _, b, pos in boundary(li):
            d[np.ix_(b, b)] = np.minimum(d[np.ix_(b, b)], closure[np.ix_(pos, pos)])
            ran["inject_pairs", li] += b.size**2

    def merge(li):
        d, closure = mat(li), mat(li + 1)
        comps = [comp for comp in boundary(li) if comp[1].size]
        sizes, bsizes = trace.merge_levels[li]
        assert [(ids.size, b.size) for ids, b, _ in comps] == list(zip(sizes, bsizes))
        for c1, (ids1, b1, pos1) in enumerate(comps):
            for c2, (ids2, b2, pos2) in enumerate(comps):
                if c1 == c2:
                    continue
                via = _min_plus(d[np.ix_(ids1, b1)], closure[np.ix_(pos1, pos2)])
                cross = np.ix_(ids1, ids2)
                d[cross] = np.minimum(d[cross], _min_plus(via, d[np.ix_(b2, ids2)]))
                ran["merge", li] += 1

    events = trace.fw_events
    for i, ev in enumerate(events):
        li, j = ev.level, ran[ev.kind, ev.level]
        ran[ev.kind, li] += 1
        if ev.kind == "top":
            ids = np.arange(mat(li).shape[0])
        elif ev.kind == "close":
            ids = levels[li].partition.component(j)
        else:
            if not j:
                inject(li)
            ids = boundary(li)[j][0]
        assert ids.size == ev.dim, ev
        _close_block(mat(li), ids)
        nxt = events[i + 1] if i + 1 < len(events) else None
        ends_run = nxt is None or (nxt.kind, nxt.level) != ("reclose", li)
        if ev.kind == "reclose" and ends_run and li in trace.merge_levels:
            merge(li)
    return mats, ran


def check_schedule_run(g, hier, trace):
    """Run ``trace`` in :func:`run_schedule` and grade it.

    The dense and direct schedules must give every distance; the lazy one,
    which never merges the base level, its component blocks and the
    closure over its boundary.  Per level, the run must close and
    re-close one block per component and per boundary component, and
    merge every ordered pair of boundary components on a level that
    merges; and the events it ran, summed, must be ``trace.counts()``.
    """
    mats, ran = run_schedule(g, hier, trace)
    want = dijkstra_oracle(g)
    levels = hier.levels
    if trace.mode == "lazy":
        part = levels[0].partition
        for c in range(part.k):
            ids = np.ix_(part.component(c), part.component(c))
            assert np.array_equal(mats[0][ids], want[ids]), c
        u = levels[0].boundaries.union
        if u.size:
            assert np.array_equal(mats[1], want[np.ix_(u, u)])
    else:
        assert np.array_equal(mats[0], want)
    if trace.mode != "direct":
        for li, lv in enumerate(levels):
            m = len(lv.boundaries.per_component)
            merges = m * (m - 1) if li or trace.mode == "dense" else 0
            assert ran["close", li] == lv.partition.k, li
            assert (ran["reclose", li], ran["merge", li]) == (m, merges), li
        assert ran["top", len(levels)] == (levels[-1].boundaries.union.size > 0)
    summed = Counter()
    for (kind, _), n in ran.items():
        summed[kind] += n
    counts = trace.counts()
    fw = {kind: summed[kind] for kind in ("close", "top", "reclose") if summed[kind]}
    assert fw == counts["fw"]
    assert summed["merge"] == counts["merges"]
    assert summed["inject_pairs"] == counts["inject_pairs"]
