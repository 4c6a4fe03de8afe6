"""Graph containers, synthetic generators, and on-disk formats.

Weighted directed graphs are the substrate for the shortest-path engine;
base-labelled DAGs ("genome graphs") are the substrate for the alignment
engine.  Everything here is deterministic given a seed: generators consume
a ``numpy.random.Generator`` seeded explicitly, and all tie-breaks are by
vertex id.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

# Saturating "unreachable" sentinel for 32-bit distance arithmetic.
INF_SENTINEL = 2**31 - 1

# Largest edge weight accepted; keeps single min-plus sums below the sentinel.
MAX_WEIGHT = INF_SENTINEL // 2

DEFAULT_W_MAX = 100

DNA_ALPHABET = b"ACGTN"

# Row block used by gen_er when sampling the adjacency matrix.  Fixed so the
# RNG stream (and therefore the graph) does not depend on available memory.
_ER_ROW_BLOCK = 512


class GraphError(ValueError):
    """Malformed graph input (bad ids, bad weights, bad structure)."""


class CycleError(GraphError):
    """A graph that must be acyclic contains a cycle."""


class AlphabetError(GraphError):
    """Base label or read character outside ACGTN."""


class FormatError(GraphError):
    """Unparseable or out-of-subset file content."""


class ReadLengthError(GraphError):
    """Requested read length exceeds every path in the graph."""


# ---------------------------------------------------------------------------
# Weighted directed graphs
# ---------------------------------------------------------------------------


@dataclass
class WeightedGraph:
    """Directed graph with non-negative integer edge weights.

    Edges are stored as three parallel arrays (``src``, ``dst``, ``w``).
    Undirected inputs are represented by storing both arcs.  Weights are
    bounded by ``MAX_WEIGHT``.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        self.w = np.asarray(self.w, dtype=np.int64)
        if not (self.src.shape == self.dst.shape == self.w.shape):
            raise GraphError("edge arrays must have identical shapes")
        if self.n < 0:
            raise GraphError("vertex count must be non-negative")
        if self.src.size:
            lo = min(self.src.min(), self.dst.min())
            hi = max(self.src.max(), self.dst.max())
            if lo < 0 or hi >= self.n:
                raise GraphError(f"vertex id out of range [0, {self.n})")
            if self.w.min() < 0 or self.w.max() > MAX_WEIGHT:
                raise GraphError(f"weights must lie in [0, {MAX_WEIGHT}]")
            loops = self.src == self.dst
            if np.any(self.w[loops] > 0):
                raise GraphError("self-loop with positive weight (self distance is 0)")

    @classmethod
    def from_edges(cls, n: int, edges) -> "WeightedGraph":
        if len(edges) == 0:
            z = np.zeros(0, dtype=np.int64)
            return cls(n, z, z.copy(), z.copy())
        arr = np.asarray(edges, dtype=np.int64)
        return cls(n, arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy())

    @property
    def edge_count(self) -> int:
        return int(self.src.size)


def graph_to_dense(g: WeightedGraph) -> np.ndarray:
    """Dense ``uint32`` adjacency of ``g``; parallel arcs keep the minimum
    weight.  Weights are at most ``MAX_WEIGHT``, so the cast is exact."""
    d = np.full((g.n, g.n), INF_SENTINEL, dtype=np.uint32)
    np.minimum.at(d, (g.src, g.dst), g.w.astype(np.uint32))
    return d


def distance_init(g: WeightedGraph) -> np.ndarray:
    """Dense distance seed: adjacency with a zero diagonal."""
    d = graph_to_dense(g)
    np.fill_diagonal(d, 0)
    return d


# ---------------------------------------------------------------------------
# Random graph generators
# ---------------------------------------------------------------------------


def _check_edge_params(p: float, w_max: int) -> None:
    """Refuse an edge probability outside [0, 1] (or NaN) and a weight
    ceiling outside [1, MAX_WEIGHT], before any edge is drawn."""
    if not 0.0 <= p <= 1.0:
        raise GraphError("p must lie in [0, 1]")
    if not 1 <= w_max <= MAX_WEIGHT:
        raise GraphError(f"w_max must lie in [1, {MAX_WEIGHT}]")


def gen_er(n: int, p: float, seed: int, w_max: int = DEFAULT_W_MAX) -> WeightedGraph:
    """Directed Erdos-Renyi graph: each ordered pair is an arc with prob p."""
    if n <= 0:
        raise GraphError("n must be positive")
    _check_edge_params(p, w_max)
    rng = np.random.default_rng(seed)
    srcs = []
    dsts = []
    for r0 in range(0, n, _ER_ROW_BLOCK):
        r1 = min(n, r0 + _ER_ROW_BLOCK)
        block = rng.random((r1 - r0, n)) < p
        rows = np.arange(r0, r1)
        block[rows - r0, rows] = False  # no self-loops
        s, d = np.nonzero(block)
        srcs.append(s + r0)
        dsts.append(d)
    src = np.concatenate(srcs) if srcs else np.zeros(0, dtype=np.int64)
    dst = np.concatenate(dsts) if dsts else np.zeros(0, dtype=np.int64)
    w = rng.integers(1, w_max + 1, size=src.size, dtype=np.int64)
    return WeightedGraph(n, src.astype(np.int64), dst.astype(np.int64), w)


def _undirected(n: int, und: np.ndarray, rng, w_max: int) -> WeightedGraph:
    """Both arcs of each pair, one weight in [1, w_max] per pair, where
    ``und`` holds distinct ``(u, v)`` pairs, ``u < v``, as rows in sorted
    order."""
    w = rng.integers(1, w_max + 1, size=und.shape[0], dtype=np.int64)
    src = np.concatenate([und[:, 0], und[:, 1]])
    dst = np.concatenate([und[:, 1], und[:, 0]])
    return WeightedGraph(n, src, dst, np.concatenate([w, w]))


def gen_nws(
    n: int, k: int, p: float, seed: int, w_max: int = DEFAULT_W_MAX
) -> WeightedGraph:
    """Newman-Watts small world: ring lattice plus random shortcut additions.

    Every vertex is joined to its k nearest ring neighbours (k/2 each side);
    for each lattice edge a shortcut between a uniform vertex pair is added
    with probability p.  Edges are undirected (both arcs stored, one weight).
    The lattice is never rewired, so |E| >= n*k/2 undirected pairs.
    """
    if k % 2 or k <= 0:
        raise GraphError("k must be positive and even")
    if n <= k:
        raise GraphError("n must exceed k")
    _check_edge_params(p, w_max)
    rng = np.random.default_rng(seed)
    # pair (u, v), u < v, as the key u * n + v; the lattice joins each vertex
    # to the next k/2 around the ring, n * k/2 distinct pairs as n > k
    half = k // 2
    i = np.tile(np.arange(n, dtype=np.int64), half)
    j = (i + np.repeat(np.arange(1, half + 1), n)) % n
    lattice = np.minimum(i, j) * n + np.maximum(i, j)
    n_short = int(rng.binomial(lattice.size, p))
    shortcuts = set()
    added = 0
    while added < n_short:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        u, v = min(u, v), max(u, v)
        # a pair on the lattice (ring distance at most k/2) or drawn before
        # collides with an existing edge: drop it rather than rewire
        if half < v - u < n - half:
            shortcuts.add(u * n + v)
        added += 1
    keys = np.concatenate([lattice, np.fromiter(shortcuts, np.int64, len(shortcuts))])
    keys.sort()
    return _undirected(n, np.stack(np.divmod(keys, n), axis=1), rng, w_max)


def gen_clustered(
    clusters: int, cluster_size: int, seed: int, groups: int = 1
) -> WeightedGraph:
    """Two-level clustered topology: locally wired clusters, sparse gateways.

    Each cluster is a ring of ``cluster_size`` vertices with chords to the
    4 nearest ring positions on each side, so all intra-cluster structure is
    local.  Inter-cluster edges touch only the first 4 vertices of each
    cluster: each cluster links to the next on its ring and to one random
    cluster of its group.  Clusters are arranged on a ring; with ``groups``
    > 1 the clusters are grouped and inter-group edges only leave the first
    cluster of each group, giving a second level of locality.  Weights are
    uniform in [1, ``DEFAULT_W_MAX``].
    """
    if clusters <= 1 or cluster_size < 4:
        raise GraphError("need at least 2 clusters of >= 4 vertices")
    rng = np.random.default_rng(seed)
    n = clusters * cluster_size
    pairs = set()

    def base(c):
        return c * cluster_size

    for c in range(clusters):
        b = base(c)
        for i in range(cluster_size):
            for d in range(1, min(4, cluster_size - 1) + 1):
                j = (i + d) % cluster_size
                u, v = b + i, b + j
                pairs.add((min(u, v), max(u, v)))

    per_group = max(1, clusters // max(1, groups))

    def gateway(c):
        return base(c) + int(rng.integers(0, 4))

    for c in range(clusters):
        # ring of clusters restricted to each group at level two
        g0 = c // per_group
        nxt = c + 1
        if nxt // per_group != g0 or nxt >= clusters:
            nxt = g0 * per_group  # close the group ring
        if nxt != c:
            pairs.add(tuple(sorted((gateway(c), gateway(nxt)))))
        lo = g0 * per_group
        other = int(rng.integers(lo, min(clusters, lo + per_group)))
        if other != c:
            pairs.add(tuple(sorted((gateway(c), gateway(other)))))
    if groups > 1:
        # sparse ring over group leaders
        for g0 in range(groups):
            lead = g0 * per_group
            nxt = ((g0 + 1) % groups) * per_group
            if lead < clusters and nxt < clusters and lead != nxt:
                pairs.add(tuple(sorted((gateway(lead), gateway(nxt)))))

    return _undirected(n, np.array(sorted(pairs), dtype=np.int64), rng, DEFAULT_W_MAX)


# ---------------------------------------------------------------------------
# Edge-list format: "src<TAB>dst<TAB>weight" integer lines, 0-based ids, '#'
# comments; "# n=<count>" (count >= 0) sets the vertex count, else the largest
# id + 1.  dump_edge_list's shape is parsed at array speed, any other by lines.
# ---------------------------------------------------------------------------

_MAX_FIELD = 18  # digits that always fit int64; np.fromstring saturates more


def dump_edge_list(g: WeightedGraph, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"# n={g.n}\n")
        for u, v, wt in zip(g.src, g.dst, g.w):
            fh.write(f"{u}\t{v}\t{wt}\n")


def _regular_edge_list(data: bytes):
    """``(n, src, dst, w)`` of a file that is a ``# n=<digits>`` line, then
    only ``src<TAB>dst<TAB>weight`` lines of ASCII integers (an optional
    leading '-', at most 18 characters) each ending in a newline; else None."""
    head, _, body = data.partition(b"\n")
    hint = head[4:]
    if not (head.startswith(b"# n=") and hint.isdigit() and len(hint) <= _MAX_FIELD
            and data.endswith(b"\n")) or body.translate(None, b"-0123456789\t\n"):
        return None
    a = np.frombuffer(data, dtype=np.uint8)[len(head):]  # from the header's newline
    seps = np.flatnonzero(a <= ord("\n"))  # tab or newline, the only bytes below '-'
    minus = np.flatnonzero(a == ord("-"))
    field_len = np.diff(seps) - 1
    if ((seps.size - 1) % 3 or np.any(a[seps[1:]].reshape(-1, 3) != (9, 9, 10))
            or np.any((field_len < 1) | (field_len > _MAX_FIELD))
            # a '-' opens its field and a digit follows it
            or np.any(a[minus - 1] > ord("\n")) or np.any(a[minus + 1] < ord("0"))):
        return None
    tok = np.fromstring(body, dtype=np.int64, sep=" ")
    if tok.size != seps.size - 1:  # fromstring stops early at a bad token
        return None
    return (int(hint), *tok.reshape(-1, 3).T.copy())


def load_edge_list(path: str) -> WeightedGraph:
    """Read an edge-list file (format above); the line loop names the line
    of each error, and a negative ``n=`` is a :class:`FormatError`."""
    with open(path, "rb") as fh:
        regular = _regular_edge_list(fh.read())
    if regular is not None:
        return WeightedGraph(*regular)
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
                    except ValueError:
                        n_hint = -1
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


# ---------------------------------------------------------------------------
# Base-labelled DAGs
# ---------------------------------------------------------------------------


def topo_sort(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Kahn's algorithm with a min-id heap, so the order is canonical.

    When every arc runs from a lower to a higher id, that order is
    ``arange(n)``: the smallest vertex left always has all its predecessors
    placed.  Raises :class:`CycleError` naming one edge that closes a cycle.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if np.all(src < dst):
        return np.arange(n, dtype=np.int64)
    order_ = np.lexsort((dst, src))
    s_sorted = src[order_]
    d_sorted = dst[order_]
    ptr = [0] + np.cumsum(np.bincount(s_sorted, minlength=n)).tolist()
    succ = d_sorted.tolist()
    indeg = np.bincount(dst, minlength=n).tolist()

    heap = [v for v in range(n) if indeg[v] == 0]
    out = []
    while heap:
        u = heapq.heappop(heap)
        out.append(u)
        for v in succ[ptr[u] : ptr[u + 1]]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    if len(out) != n:
        # a vertex left unplaced keeps an arc from another unplaced vertex,
        # so some arc between two stuck vertices lies on (or feeds) a cycle
        stuck = np.asarray(indeg) > 0
        i = int(np.argmax(stuck[s_sorted] & stuck[d_sorted]))
        raise CycleError(f"cycle through edge ({s_sorted[i]}, {d_sorted[i]})")
    return np.asarray(out, dtype=np.int64)


@dataclass
class GenomeGraph:
    """Base-labelled DAG in topological storage.

    ``bases`` holds one ASCII byte per node (ACGTN).  Predecessor and
    successor adjacency are CSR arrays; ``topo_order`` is the canonical
    Kahn order and ``topo_pos[v]`` its inverse.
    """

    bases: np.ndarray
    pred_ptr: np.ndarray
    pred_idx: np.ndarray
    succ_ptr: np.ndarray
    succ_idx: np.ndarray
    topo_order: np.ndarray

    @property
    def n(self) -> int:
        return int(self.bases.size)

    def __post_init__(self):
        self.topo_pos = np.empty(self.n, dtype=np.int64)
        self.topo_pos[self.topo_order] = np.arange(self.n)


def check_alphabet(text: str, what: str) -> None:
    """Refuse input text holding a character outside ACGTN, non-ASCII
    included, naming the first one: ``{what} 'X' not in ACGTN``."""
    if not text.isascii() or text.encode().translate(None, DNA_ALPHABET):
        bad = next(ch for ch in text if ch not in DNA_ALPHABET.decode())
        raise AlphabetError(f"{what} {bad!r} not in ACGTN")


def genome_graph(bases: str, edges) -> GenomeGraph:
    """Build a :class:`GenomeGraph` from a base string and (u, v) edge pairs."""
    check_alphabet(bases, "base")
    b = np.frombuffer(bases.encode("ascii"), dtype=np.uint8).copy()
    n = b.size
    if len(edges):
        arr = np.asarray(edges, dtype=np.int64)
        src, dst = arr[:, 0], arr[:, 1]
        if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
            raise GraphError("edge endpoint out of range")
    else:
        src = np.zeros(0, dtype=np.int64)
        dst = np.zeros(0, dtype=np.int64)
    order = topo_sort(n, src, dst)

    def csr(a, b_):
        idx = np.lexsort((b_, a))
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(ptr, a[idx] + 1, 1)
        np.cumsum(ptr, out=ptr)
        return ptr, b_[idx]

    succ_ptr, succ_idx = csr(src, dst)
    pred_ptr, pred_idx = csr(dst, src)
    return GenomeGraph(b, pred_ptr, pred_idx, succ_ptr, succ_idx, order)


# ---------------------------------------------------------------------------
# GFA subset: S and L records only, '+' orientations, ACGTN sequences.
# ---------------------------------------------------------------------------


def parse_gfa(text: str) -> GenomeGraph:
    seg_seq: dict[str, str] = {}
    links: list[tuple[str, str]] = []
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

    # expand each segment into a chain of per-base nodes; a link joins the
    # last node of one segment to the first node of another
    seg_index = {name: i for i, name in enumerate(seg_seq)}
    try:
        ends = np.array(
            [(seg_index[frm], seg_index[to]) for frm, to in links], dtype=np.int64
        ).reshape(-1, 2)
    except KeyError as exc:
        missing = exc.args[0]
        raise FormatError(f"link references unknown segment {missing!r}") from None
    if not seg_seq:
        raise FormatError("no segments")
    lengths = np.array([len(seq) for seq in seg_seq.values()], dtype=np.int64)
    last = np.cumsum(lengths) - 1
    first = last - lengths + 1
    inner = np.ones(int(last[-1]) + 1, dtype=bool)
    inner[first] = False
    v = np.nonzero(inner)[0]
    edges = np.concatenate(
        [
            np.column_stack((v - 1, v)),
            np.column_stack((last[ends[:, 0]], first[ends[:, 1]])),
        ]
    )
    return genome_graph("".join(seg_seq.values()), edges)


def load_genome_graph(path: str) -> GenomeGraph:
    with open(path) as fh:
        return parse_gfa(fh.read())


def gen_genome(bases: int, bubble_rate: float, seed: int) -> tuple[str, str]:
    """Synthesise a GFA-subset pangenome-like graph and its linear reference.

    Returns ``(gfa_text, reference_sequence)``.  The backbone is a random
    sequence of the requested length, cut into segments of 20 to 200 bases;
    at each bubble site the reference base and one alternative base form a
    two-branch bubble.  The reference sequence spells the backbone path.
    """
    if bases < 4:
        raise GraphError("need at least 4 bases")
    if not 0.0 <= bubble_rate <= 1.0:
        raise GraphError("bubble rate must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    alpha = "ACGT"
    ref = "".join(alpha[i] for i in rng.integers(0, 4, size=bases))

    # choose non-adjacent interior bubble positions
    sites = []
    pos = 1
    while pos < bases - 1:
        if rng.random() < bubble_rate:
            sites.append(pos)
            pos += 2  # keep bubbles separated by at least one backbone base
        else:
            pos += 1

    lines = []
    seg_id = 0

    def new_seg(seq: str) -> str:
        nonlocal seg_id
        seg_id += 1
        name = f"s{seg_id}"
        lines.append(f"S\t{name}\t{seq}")
        return name

    # the graph alternates serial backbone pieces and two-branch bubbles
    elements: list[tuple[str, list[str]]] = []
    cursor = 0
    for site in sites + [bases]:
        chunk = ref[cursor:site]
        names = []
        while chunk:
            cut = int(rng.integers(20, 201))
            names.append(new_seg(chunk[:cut]))
            chunk = chunk[cut:]
        if names:
            elements.append(("serial", names))
        if site < bases:
            ref_base = ref[site]
            alt = alpha[(alpha.index(ref_base) + 1 + int(rng.integers(0, 3))) % 4]
            elements.append(("bubble", [new_seg(ref_base), new_seg(alt)]))
            cursor = site + 1

    links: list[tuple[str, str]] = []
    prev_tails: list[str] = []
    for kind, names in elements:
        if kind == "serial":
            for a, b in zip(names, names[1:]):
                links.append((a, b))
            heads, tails = [names[0]], [names[-1]]
        else:
            heads, tails = names, names
        for t in prev_tails:
            for h in heads:
                links.append((t, h))
        prev_tails = tails
    for a, b in links:
        lines.append(f"L\t{a}\t+\t{b}\t+\t0M")
    return "\n".join(lines) + "\n", ref


# ---------------------------------------------------------------------------
# Reads
# ---------------------------------------------------------------------------

SHORT_READ_THRESHOLD = 300

# how reads are batched: by length class, or all in one forced class; the
# forced requests are the length classes
MAPPING_REQUESTS = ("auto", "short", "long")


def length_class(length: int) -> str:
    """A read's length class: "short" up to the threshold, "long" past it."""
    return "short" if length <= SHORT_READ_THRESHOLD else "long"


@dataclass
class ReadBatch:
    """Reads of one length class; each read is non-empty ACGTN text, and a
    short batch holds no long read."""

    reads: list  # list of (read_id, sequence)
    length_class: str

    def __post_init__(self):
        if self.length_class not in MAPPING_REQUESTS[1:]:
            raise GraphError("length_class must be 'short' or 'long'")
        for rid, seq in self.reads:
            if not seq:
                raise GraphError(f"read {rid} is empty")
            check_alphabet(seq, f"read {rid} char")
            if self.length_class == "short" and length_class(len(seq)) == "long":
                raise GraphError(f"read {rid} too long for a short batch")


def read_batches(reads, request: str) -> list:
    """The non-empty batches of ``reads`` under a mapping request: ``auto``
    splits them by length class, ``short`` or ``long`` puts them all in one
    batch of that class."""
    if request not in MAPPING_REQUESTS:
        raise GraphError(f"unknown mapping request {request!r}")
    classes = [length_class(len(s)) if request == "auto" else request for _, s in reads]
    batches = [
        ReadBatch([rs for rs, c in zip(reads, classes) if c == k], k)
        for k in MAPPING_REQUESTS[1:]
    ]
    return [b for b in batches if b.reads]


def check_read_params(count: int, length: int, sub_rate: float) -> None:
    """Refuse a read count, length or substitution rate that
    :func:`gen_reads` cannot sample."""
    if length < 1:
        raise GraphError("read length must be positive")
    if count < 0:
        raise GraphError("read count must be non-negative")
    if not 0.0 <= sub_rate <= 1.0:
        raise GraphError("substitution rate must lie in [0, 1]")


def gen_reads(
    g: GenomeGraph,
    count: int,
    length: int,
    sub_rate: float,
    seed: int,
) -> list:
    """Sample reads as random walks, then apply base substitutions.

    Start nodes are drawn uniformly among nodes from which a path of the
    requested length exists; each step picks uniformly among successors that
    still admit a long-enough suffix.  Substitutions replace a base with a
    uniformly chosen different base at rate ``sub_rate``.
    """
    check_read_params(count, length, sub_rate)
    rng = np.random.default_rng(seed)
    ptr = g.succ_ptr.tolist()
    succ_idx = g.succ_idx.tolist()
    succs = [succ_idx[ptr[v] : ptr[v + 1]] for v in range(g.n)]
    bases = g.bases.tobytes().decode("ascii")
    # longest path beginning at each node, by reverse topological sweep
    lp = [1] * g.n
    for v in reversed(g.topo_order.tolist()):
        if succs[v]:
            lp[v] = 1 + max([lp[u] for u in succs[v]])
    starts = [v for v in range(g.n) if lp[v] >= length]
    if not starts:
        raise ReadLengthError(
            f"no path of length {length} (longest is {max(lp, default=0)})"
        )
    alpha = "ACGT"
    reads = []
    for r in range(count):
        v = starts[rng.integers(0, len(starts))]
        seq = [bases[v]]
        remaining = length - 1
        while remaining:
            ok = [u for u in succs[v] if lp[u] >= remaining]
            v = ok[rng.integers(0, len(ok))]
            seq.append(bases[v])
            remaining -= 1
        if sub_rate > 0.0:
            for i in range(length):
                if rng.random() < sub_rate:
                    cur = seq[i]
                    if cur in alpha:
                        seq[i] = alpha[(alpha.index(cur) + 1 + int(rng.integers(0, 3))) % 4]
        reads.append((f"r{r}", "".join(seq)))
    return reads


# ---------------------------------------------------------------------------
# FASTA
# ---------------------------------------------------------------------------


def dump_fasta(records, path: str) -> None:
    with open(path, "w") as fh:
        for name, seq in records:
            fh.write(f">{name}\n")
            for i in range(0, len(seq), 60):
                fh.write(seq[i : i + 60] + "\n")


def load_fasta(path: str) -> list:
    records = []
    name = None
    chunks: list[str] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith(">"):
                if name is not None:
                    records.append((name, "".join(chunks)))
                words = line[1:].split()
                if not words:
                    raise FormatError(f"line {lineno}: FASTA header without a name")
                name = words[0]
                chunks = []
            else:
                if name is None:
                    raise FormatError("sequence data before any FASTA header")
                chunks.append(line.upper())
    if name is not None:
        records.append((name, "".join(chunks)))
    return records
