"""Exact-prefix sequence-to-graph matching: three scorers, one semantics.

A read's score is the length of its longest prefix that some graph path
spells exactly; its end nodes are the nodes where such prefixes end.
Matches may start at any node, and 'N' matches nothing on either side.
Three scorers compute it, sharing no kernel code:

* ``align_read_parallel`` is the production scorer, called by
  ``batch_align`` for every read.  It packs up to 64 reads into one uint64
  word per node and advances all of them one query position at a time.
  While many nodes are live a position is a dense numpy step over every
  node (gather and OR the predecessors' words, AND with the match row
  built from the reads' bases at that position); once few are, each
  pending read finishes alone in plain Python from its own set of live
  nodes.  It jumps along sole successors, crossing each id run (nodes x,
  x+1, ..., each but the last with the next id as its only successor) by
  one bytes comparison and hopping to any other sole successor, so a read
  costs its live state and the runs and hops it crosses, not the graph.
  A read's bit that clears at position j gives score j.
* ``align_windowed`` is the device-fidelity kernel.  It processes one query
  of length m in k = ceil(m/W) windows of W bits, each a single sweep of
  the graph in topological order; a node's word holds, at bit j, whether
  the prefix of global length (i-1)*W + j + 1 ends there, and prefixes
  crossing a window boundary continue through a one-bit predecessor carry.
  The CLI's ``--W-sweep`` and the oracle suites check it.
* ``align_reference`` is the independent oracle: a plain per-position
  boolean recurrence with no bit packing and no windows.

The read-parallel scorer reports the windowed kernel's window count without
running it.  Matched prefixes are prefix-closed (if a prefix of length l
matches, so does every shorter one), so window i of the windowed kernel
leaves some state set exactly when score > (i-1)*W, and the kernel stops
after the first window whose state is empty.  That is window
ceil(score/W) + 1, unless the query runs out first:

    windows = min(ceil(m/W), ceil(score/W) + 1)

``batch_align`` scores one batch and returns, next to the results, a
``BatchTrace`` of what the scorer knows about it: the mapping mode, W, the
read ids and lengths and each read's window passes.  Where reads land on
the traversal tile's PEs is the cost model's decision, not this module's.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .graphs import (
    DNA_ALPHABET,
    AlphabetError,
    GenomeGraph,
    GraphError,
    ReadBatch,
    check_alphabet,
)

_ACGT = tuple(DNA_ALPHABET[:4])


class AlignmentError(GraphError):
    """Bad alignment request (empty query, width misuse, unknown mapping)."""


def precompute_masks(segment: str, W: int) -> dict:
    """Per-character match masks for one query window of width ``W``.

    Bit j of ``masks[c]`` is set iff the window segment has character c at
    offset j.  Only A, C, G and T have entries: 'N' never matches, so it
    owns no bits and matches none.
    """
    if len(segment) > W:
        raise AlignmentError(f"segment of {len(segment)} chars exceeds window {W}")
    check_alphabet(segment, "query char")
    masks = {c: 0 for c in _ACGT}
    for j, ch in enumerate(segment.encode("ascii")):
        if ch in masks:  # 'N' stays maskless
            masks[ch] |= 1 << j
    return masks


@dataclass
class AlignResult:
    score_max: int
    end_nodes: np.ndarray
    windows: int

    @property
    def lowest_end(self) -> int:
        """Lowest-id end node, or -1 when nothing matched."""
        return int(self.end_nodes[0]) if self.end_nodes.size else -1


def classify_self_hop(g: GenomeGraph) -> np.ndarray:
    """True where a node's sole predecessor immediately precedes it in topo
    order (state forwards through the PE's own feedback port); False means
    the update reads other nodes' states (a hop through shared memory)."""
    mask = np.zeros(g.n, dtype=bool)
    counts = np.diff(g.pred_ptr)
    single = np.nonzero(counts == 1)[0]
    if single.size:
        pred = g.pred_idx[g.pred_ptr[single]]
        mask[single] = g.topo_pos[pred] == g.topo_pos[single] - 1
    return mask


def align_windowed(g: GenomeGraph, q: str, W: int) -> AlignResult:
    """Score the longest exactly-matching query prefix over all graph paths.

    A node's carry into the next window is the OR of its predecessors'
    carries.  Matches may start at any node: window 1 shifts in a constant 1.
    """
    if not q:
        raise AlignmentError("empty query")
    if W < 1:
        raise AlignmentError("window width must be positive")

    n = g.n
    order = g.topo_order.tolist()
    pred_ptr = g.pred_ptr.tolist()
    pred_idx = g.pred_idx.tolist()
    bases = g.bases.tolist()
    k = math.ceil(len(q) / W)
    wmask = (1 << W) - 1
    topbit = 1 << (W - 1)

    S = [0] * n
    C = [0] * n
    best = 0
    ends: set[int] = set()
    processed = 0
    for i in range(1, k + 1):
        masks = precompute_masks(q[(i - 1) * W : i * W], W)
        for v in order:
            lo, hi = pred_ptr[v], pred_ptr[v + 1]
            d_in = 0
            c_in = 1 if i == 1 else 0  # every C is still 0 in window 1
            for t in range(lo, hi):
                u = pred_idx[t]
                d_in |= S[u]
                c_in |= C[u]
            S[v] = ((d_in << 1) | c_in) & masks.get(bases[v], 0) & wmask
        for v in range(n):
            C[v] = 1 if S[v] & topbit else 0
        processed = i
        base_len = (i - 1) * W
        for v in range(n):
            s = S[v]
            if s:
                cand = base_len + s.bit_length()
                if cand > best:
                    best = cand
                    ends = {v}
                elif cand == best:
                    ends.add(v)
        if not any(S) and not any(C):
            break  # zero state is absorbing: later windows stay zero

    return AlignResult(
        score_max=best,
        end_nodes=np.asarray(sorted(ends), dtype=np.int64),
        windows=processed,
    )


def align_reference(g: GenomeGraph, q: str) -> AlignResult:
    """Plain per-position boolean DP, the semantic oracle.

    match[v][j] = (base(v) == q[j]) and (j == 0 or some predecessor matched
    prefix j).  No bit packing, no windows, no carries.
    """
    if not q:
        raise AlignmentError("empty query")
    qb = np.frombuffer(q.encode("utf-32-le"), dtype="<u4")  # a code point each
    bad = ~np.isin(qb, np.frombuffer(DNA_ALPHABET, dtype=np.uint8))
    if np.any(bad):
        raise AlphabetError(f"query char {chr(qb[int(np.argmax(bad))])!r} not in ACGTN")

    n = g.n
    # edge arrays for vectorized predecessor-OR
    dst = np.repeat(np.arange(n), np.diff(g.pred_ptr))
    src = g.pred_idx
    n_code = DNA_ALPHABET[4]
    best = 0
    ends = np.zeros(n, dtype=bool)
    prev = np.zeros(n, dtype=bool)
    for j, code in enumerate(qb):
        col = g.bases == code
        if code == n_code:
            col[:] = False
        if j > 0:
            reach = np.zeros(n, dtype=bool)
            if src.size:
                np.logical_or.at(reach, dst, prev[src])
            col &= reach
        if col.any():
            best = j + 1
            ends = col.copy()
        prev = col
        if not col.any():
            break
    end_nodes = (
        np.nonzero(ends)[0].astype(np.int64) if best else np.zeros(0, dtype=np.int64)
    )
    return AlignResult(best, end_nodes, 0)


WORD_BITS = 64

# byte -> base code: A, C, G, T are 0..3; 'N' (and every other byte) is 4
_BASE_CODE = np.full(256, 4, dtype=np.uint8)
_BASE_CODE[np.frombuffer(bytes(_ACGT), dtype=np.uint8)] = np.arange(4)


def _query_codes(q: str) -> np.ndarray:
    if not q:
        raise AlignmentError("empty query")
    check_alphabet(q, "query char")
    return _BASE_CODE[np.frombuffer(q.encode("ascii"), dtype=np.uint8)]


# Live share of nodes at or below which a word leaves the dense step and
# each of its reads finishes alone, and above which a read's frontier
# returns to the dense step.  Measured on a 2-core x86 host (numpy 2.4)
# with gen_genome graphs of 5k and 20k nodes and 150 bp and 2,000 bp reads:
# times were flat within noise from 1/5 to 1/80 of n; at 1/200, 64 short
# reads on 5k nodes ran 25-35% slower, because the word switched later.
# Switching from position 8 every fourth position was as fast as every
# position, every second or eighth, or from position 4; from 12 or 16,
# 256 short reads on 20k nodes ran 8-20% slower.
_SPARSE_SHARE = 1 / 40


def _read_step(front, j, q, ptr, idx, spelled, stops):
    """One sparse step of one read: from ``front``, the nodes where its
    prefix of length j+1 ends, to (j', the nodes where its prefix of length
    j'+1 ends), empty if none does.

    ``q`` is the read's base codes as bytes, ``ptr``/``idx`` the successor
    CSR and ``spelled`` each node's base code as bytes ('N' in the graph
    has a code no read byte has).  ``stops`` lists in order every node x
    that does not have x+1 as its only successor, so the nodes from x to
    the first stop at or after x form an id run.  A lone node whose one
    successor matches the next base jumps along sole successors as far as
    the read matches: across each id run by one bytes comparison, to a
    sole successor off the runs by one hop.  The jump may cross a join,
    since the read's state is on no other predecessor.  Any other frontier
    takes one step along every successor arc whose head matches the next
    base.
    """
    c = q[j + 1]
    if len(front) == 1:
        (u,) = front
        t = ptr[u]
        if ptr[u + 1] - t == 1 and spelled[idx[t]] == c:
            while j + 1 < len(q) and ptr[u + 1] - ptr[u] == 1:
                t = ptr[u]
                if idx[t] != u + 1:  # a hop off the id run
                    if spelled[idx[t]] != q[j + 1]:
                        break
                    u, j = idx[t], j + 1
                    continue
                k = min(stops[bisect_left(stops, u)] - u, len(q) - j - 1)
                read, run = q[j + 1 : j + 1 + k], spelled[u + 1 : u + 1 + k]
                if read != run:
                    k = next(i for i, (a, b) in enumerate(zip(read, run)) if a != b)
                    return j + k, (u + k,)
                u, j = u + k, j + k
            return j, (u,)
    nxt = {v for u in front for v in idx[ptr[u] : ptr[u + 1]] if spelled[v] == c}
    return j + 1, nxt


def align_read_parallel(g: GenomeGraph, queries, W: int) -> list:
    """Score every query at once, up to 64 per machine word; the production
    scorer behind ``batch_align``.

    Word state S[v] holds bit r iff read r's prefix of the current length
    ends at node v.  While many nodes are live, each query position is a
    dense numpy step over every node: gather and OR the predecessors'
    words, AND with the position's match row.  That row ORs each read's
    bit into the entry of its base there; an 'N', like a position past the
    read's end, sets the entry no node reads.  So a word builds only the
    rows it reaches.  Every fourth position from
    position 8 the live nodes are counted, and once they are at most
    ``_SPARSE_SHARE`` of n the word splits into one frontier (a set of
    nodes) per pending read, and each read finishes alone in plain Python
    (``_read_step``): a one-node frontier whose sole successor matches
    jumps along sole successors as far as the read matches, an id run at a
    time by one bytes comparison (the runs come from one table, built with
    the successor lists on the first sparse word), any other frontier takes
    one step along its successor arcs.  So a read costs its live nodes and
    the runs and hops it crosses, not n per position.  A read whose
    frontier grows past that share again (a homopolymer, a fan of branches)
    returns to the dense step as a one-read word from its position.  A
    read whose bit clears at position j scores j, and its end nodes are the
    nodes holding its bit at position j-1.

    Results are exact (they equal ``align_reference``), and ``windows`` is
    the count ``align_windowed`` reports at width W, derived as the module
    docstring explains.
    """
    if W < 1:
        raise AlignmentError("window width must be positive")
    codes = [_query_codes(q) for q in queries]
    n = g.n
    # each node's base code, with 5 for 'N': no read has code 5, and no node
    # reads a read's 'N' (code 4), so 'N' matches nothing on either side
    node_code = _BASE_CODE[g.bases].astype(np.intp)
    node_code[node_code == 4] = 5
    sparse_max = n * _SPARSE_SHARE

    # Predecessor OR, split for speed: one gather of every node's first
    # predecessor (the sentinel index n, whose word stays 0, for nodes with
    # none), then a reduceat over the remaining predecessors of the few
    # nodes that have several.  One reduceat over all nodes costs 2.7x more
    # per query position on a 5k-node genome graph.
    counts = np.diff(g.pred_ptr)
    has = counts > 0
    first = np.full(n, n, dtype=np.intp)
    first[has] = g.pred_idx[g.pred_ptr[:-1][has]]
    multi = np.flatnonzero(counts > 1)
    keep = np.ones(g.pred_idx.size, dtype=bool)
    keep[g.pred_ptr[:-1][has]] = False
    rest = g.pred_idx[keep].astype(np.intp)
    rest_starts = np.zeros(multi.size, dtype=np.intp)
    np.cumsum(counts[multi][:-1] - 1, out=rest_starts[1:])
    sparse = None  # _read_step's successor lists and id runs, made on first use

    scored = [None] * len(codes)  # (score, end nodes) per query
    # dense words to run: their reads, first position, and the nodes where
    # a one-read word's state stood just before that position
    words = [
        (range(w0, min(w0 + WORD_BITS, len(codes))), 0, ())
        for w0 in range(0, len(codes), WORD_BITS)
    ]
    while words:
        word, j0, state = words.pop()
        # one column of base codes per read, padded with 'N' from the read's
        # end on, so that every bit clears by position m
        m = max(codes[i].size for i in word)
        read_codes = np.full((m + 1, len(word)), 4, dtype=np.uint8)
        for r, i in enumerate(word):
            read_codes[: codes[i].size, r] = codes[i]
        bits = np.uint64(1) << np.arange(len(word), dtype=np.uint64)
        prev = np.zeros(n + 1, dtype=np.uint64)
        prev[list(state)] = 1
        cur = np.zeros(n + 1, dtype=np.uint64)
        pending = (1 << len(word)) - 1
        for j in range(j0, m + 1):
            row = np.zeros(6, dtype=np.uint64)
            np.bitwise_or.at(row, read_codes[j], bits)
            match = row.take(node_code)
            if j == 0:
                cur[:n] = match
            else:
                reach = prev[first]
                reach[multi] |= np.bitwise_or.reduceat(prev[rest], rest_starts)
                np.bitwise_and(reach, match, out=cur[:n])
            cleared = pending & ~int(np.bitwise_or.reduce(cur))
            while cleared:
                r = cleared.bit_length() - 1
                bit = 1 << r
                cleared ^= bit
                ends = np.flatnonzero(prev[:n] & np.uint64(bit)) if j else ()
                scored[word[r]] = (j, ends)
                pending ^= bit
            if not pending:
                break
            prev, cur = cur, prev
            if j >= 8 and j % 4 == 0 and np.count_nonzero(prev[:n]) <= sparse_max:
                break
        if not pending:
            continue
        # sparse: one frontier per pending read, each read finished alone
        if sparse is None:
            spelled = node_code.astype(np.uint8)
            plus = np.diff(g.succ_ptr) == 1  # sole successor, and it is x+1
            plus[plus] = g.succ_idx[g.succ_ptr[:-1][plus]] == np.flatnonzero(plus) + 1
            stops = np.flatnonzero(~plus)  # holds n-1, which has no x+1
            sparse = (g.succ_ptr.tolist(), g.succ_idx.tolist(),
                      spelled.tobytes(), stops.tolist())
        live = np.flatnonzero(prev[:n])
        bits = np.unpackbits(
            prev[live].astype("<u8").view(np.uint8).reshape(-1, 8),
            axis=1,
            bitorder="little",
        )
        reads, held = np.nonzero(bits.T)
        fronts = {}
        for r, v in zip(reads.tolist(), live[held].tolist()):
            fronts.setdefault(r, []).append(v)
        for r, front in fronts.items():
            i = word[r]
            q = codes[i].tobytes()
            at = j
            while at + 1 < len(q):
                nxt_at, nxt = _read_step(front, at, q, *sparse)
                if not nxt:
                    break
                if len(nxt) > sparse_max:  # regrown: back to the dense step
                    words.append(([i], nxt_at + 1, nxt))
                    front = None
                    break
                at, front = nxt_at, nxt
            if front is not None:
                scored[i] = (at + 1, sorted(front))
    results = []
    for c, (score, ends) in zip(codes, scored):
        windows = min(-(-c.size // W), -(-score // W) + 1)
        results.append(AlignResult(score, np.asarray(ends, dtype=np.int64), windows))
    return results


# ---------------------------------------------------------------------------
# Batch execution under the two mapping modes
# ---------------------------------------------------------------------------

MODE_SHORT = "short-parallel"
MODE_LONG = "long-pipeline"


def batch_mapping(length_class: str) -> str:
    """How the traversal tile runs a batch of a length class: a short batch
    short-parallel, a long one long-pipeline."""
    return MODE_SHORT if length_class == "short" else MODE_LONG


@dataclass
class BatchTrace:
    """What one batch asks of the traversal tile, for the cost model; it
    carries no score information and no placement of reads on PEs.

    ``read_ids``, ``read_lengths`` and ``window_passes`` run in the same
    (read id) order.
    """

    mode: str
    W: int
    graph: GenomeGraph
    read_ids: list
    read_lengths: list
    window_passes: list

    @property
    def self_updates(self) -> int:
        """Self-node updates: the graph's self nodes times the window passes;
        classified when read, since only diagnostics read it."""
        return int(classify_self_hop(self.graph).sum()) * sum(self.window_passes)

    @property
    def hop_updates(self) -> int:
        """Hop-node updates: every other node times the window passes."""
        return self.graph.n * sum(self.window_passes) - self.self_updates

    @property
    def nodes(self) -> int:
        return self.graph.n

    @property
    def reads(self) -> int:
        return len(self.read_ids)


def batch_align(g: GenomeGraph, batch: ReadBatch, W: int) -> tuple:
    """Align every read; scores are mode-independent by construction.

    Both mappings (:func:`batch_mapping`) produce identical AlignResults
    (ordered by read id, from ``align_read_parallel``) and differ only in
    the BatchTrace's mode.
    """
    reads = sorted(batch.reads, key=lambda rs: rs[0])
    results = align_read_parallel(g, [seq for _, seq in reads], W=W)
    bt = BatchTrace(
        batch_mapping(batch.length_class),
        W,
        g,
        [rid for rid, _ in reads],
        [len(seq) for _, seq in reads],
        [r.windows for r in results],
    )
    return results, bt


def dump_alignments(path: str, read_ids, results) -> None:
    """TSV: read_id, score_max, lowest end node (-1 if none)."""
    with open(path, "w") as fh:
        for rid, res in zip(read_ids, results):
            fh.write(f"{rid}\t{res.score_max}\t{res.lowest_end}\n")
