"""Graph container, generator, and format tests."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdp import graphs
from graphdp.graphs import (
    INF_SENTINEL,
    AlphabetError,
    CycleError,
    FormatError,
    GraphError,
    ReadBatch,
    ReadLengthError,
    WeightedGraph,
    dump_edge_list,
    dump_fasta,
    gen_clustered,
    gen_er,
    gen_genome,
    gen_nws,
    gen_reads,
    genome_graph,
    graph_to_dense,
    load_edge_list,
    load_fasta,
    parse_gfa,
    read_batches,
    topo_sort,
)
from oracles import load_edge_list_reference, parse_gfa_reference, topo_reference


# ---------------------------------------------------------------------------
# WeightedGraph and dense adjacency
# ---------------------------------------------------------------------------


def test_graph_rejects_bad_ids_and_weights():
    with pytest.raises(GraphError):
        WeightedGraph.from_edges(3, [(0, 3, 1)])
    with pytest.raises(GraphError):
        WeightedGraph.from_edges(3, [(-1, 0, 1)])
    with pytest.raises(GraphError):
        WeightedGraph.from_edges(3, [(0, 1, -2)])
    with pytest.raises(GraphError):
        WeightedGraph.from_edges(3, [(0, 1, INF_SENTINEL)])  # above MAX_WEIGHT
    with pytest.raises(GraphError):
        WeightedGraph.from_edges(3, [(1, 1, 5)])  # positive self-loop


def test_dense_missing_edges_read_inf():
    g = WeightedGraph.from_edges(3, [(0, 1, 4)])
    d = graph_to_dense(g)
    assert d.dtype == np.uint32
    assert d[0, 1] == 4
    assert d[1, 0] == INF_SENTINEL
    assert d[2, 2] == INF_SENTINEL  # adjacency, not distances


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def test_gen_er_edge_count_within_3_sigma():
    n, p = 1000, 0.01
    trials = n * (n - 1)
    mean = trials * p
    sigma = math.sqrt(trials * p * (1 - p))
    g = gen_er(n, p, seed=123)
    assert abs(g.edge_count - mean) <= 3 * sigma
    assert g.w.min() >= 1 and g.w.max() <= 100


def test_gen_er_deterministic_per_seed():
    a = gen_er(200, 0.02, seed=9)
    b = gen_er(200, 0.02, seed=9)
    assert np.array_equal(a.src, b.src)
    assert np.array_equal(a.dst, b.dst)
    assert np.array_equal(a.w, b.w)
    c = gen_er(200, 0.02, seed=10)
    assert not (
        np.array_equal(a.src, c.src)
        and np.array_equal(a.dst, c.dst)
        and np.array_equal(a.w, c.w)
    )


def test_gen_er_no_self_loops_or_duplicates():
    g = gen_er(300, 0.05, seed=4)
    assert not np.any(g.src == g.dst)
    assert np.unique(g.src * g.n + g.dst).size == g.edge_count


def test_gen_nws_contains_full_lattice():
    n, k = 200, 6
    g = gen_nws(n, k, 0.1, seed=5)
    pairs = {(int(u), int(v)) for u, v in zip(g.src, g.dst)}
    for d in range(1, k // 2 + 1):
        for i in range(n):
            assert (i, (i + d) % n) in pairs
    # undirected: both arcs present with equal weight
    dense = graph_to_dense(g)
    assert np.array_equal(dense, dense.T)
    assert g.edge_count >= n * k


def test_gen_nws_rejects_odd_k():
    with pytest.raises(GraphError):
        gen_nws(50, 3, 0.1, seed=0)


def test_gen_clustered_shape_and_symmetry():
    g = gen_clustered(clusters=8, cluster_size=32, seed=1, groups=2)
    assert g.n == 256
    dense = graph_to_dense(g)
    assert np.array_equal(dense, dense.T)
    # inter-cluster arcs only touch gateway vertices (first 4 of each cluster)
    cluster = np.concatenate([np.full(32, c) for c in range(8)])
    cross = cluster[g.src] != cluster[g.dst]
    offsets = (g.src % 32)[cross]
    assert offsets.max() < 4


# ---------------------------------------------------------------------------
# Edge-list TSV
# ---------------------------------------------------------------------------


def test_edge_list_roundtrip(tmp_path):
    g = gen_er(80, 0.05, seed=2)
    path = tmp_path / "g.tsv"
    dump_edge_list(g, str(path))
    h = load_edge_list(str(path))
    assert h.n == g.n
    assert np.array_equal(h.src, g.src)
    assert np.array_equal(h.dst, g.dst)
    assert np.array_equal(h.w, g.w)


def test_edge_list_comments_and_errors(tmp_path):
    p = tmp_path / "x.tsv"
    p.write_text("# a comment\n0\t1\t5\n\n2\t0\t1\n")
    g = load_edge_list(str(p))
    assert g.n == 3 and g.edge_count == 2
    p.write_text("0\t1\n")
    with pytest.raises(FormatError):
        load_edge_list(str(p))
    p.write_text("0\tx\t1\n")
    with pytest.raises(FormatError):
        load_edge_list(str(p))


def test_edge_list_preserves_isolated_vertices(tmp_path):
    g = WeightedGraph.from_edges(10, [(0, 1, 3)])
    path = tmp_path / "iso.tsv"
    dump_edge_list(g, str(path))
    assert load_edge_list(str(path)).n == 10


def _read_outcome(load, path):
    """What a reader makes of a file: the graph's fields, or the error."""
    try:
        g = load(path)
    except (GraphError, UnicodeDecodeError) as exc:
        return type(exc), str(exc)
    return g.n, [(a.dtype, a.tolist()) for a in (g.src, g.dst, g.w)]


def _assert_reads_as_reference(path, regular=None):
    got = _read_outcome(load_edge_list, str(path))
    assert got == _read_outcome(load_edge_list_reference, str(path))
    if regular is not None:
        data = Path(path).read_bytes()
        assert (graphs._regular_edge_list(data) is not None) == regular


def _dumped(g):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.tsv"
        dump_edge_list(g, str(path))
        return path.read_bytes()


_READER_CASES = {
    # the array path: files shaped as dump_edge_list writes them
    "dumped-er": (_dumped(gen_er(300, 0.02, seed=4)), True),
    "dumped-clustered": (_dumped(gen_clustered(8, 32, 1, groups=2)), True),
    "header-only": (b"# n=0\n", True),
    "isolated-only": (b"# n=7\n", True),
    "leading-zeros": (b"# n=3\n00\t-0\t000000000000000005\n", True),
    "negative-weight": (b"# n=3\n0\t1\t-4\n", True),  # refused alike
    "id-past-n": (b"# n=3\n0\t9\t4\n", True),  # refused alike
    "18-digits": (b"# n=3\n0\t1\t999999999999999999\n", True),  # over MAX_WEIGHT
    # the line loop: everything else
    "19-characters": (b"# n=3\n0\t1\t0000000000000000005\n", False),
    "past-int64": (b"# n=3\n0\t1\t99999999999999999999\n", False),
    "past-int64-negative": (b"# n=3\n0\t1\t-99999999999999999999\n", False),
    "comment-after-header": (b"# n=3\n# c\n0\t1\t2\n", False),
    "blank-after-header": (b"# n=3\n\n0\t1\t2\n", False),
    "blank-last-line": (b"# n=3\n0\t1\t2\n\n", False),
    "crlf": (b"# n=3\r\n0\t1\t2\r\n", False),
    "plus-sign": (b"# n=3\n0\t1\t+5\n", False),
    "underscore": (b"# n=3\n0\t1\t1_000\n", False),
    "arabic-indic-digit": ("# n=3\n0\t1\t\u0663\n".encode(), False),
    "no-final-newline": (b"# n=3\n0\t1\t2", False),
    "no-header": (b"0\t1\t2\n", False),
    "header-trailing-space": (b"# n=3 \n0\t1\t2\n", False),
    "header-no-space": (b"#n=3\n0\t1\t2\n", False),
    "header-plus": (b"# n=+3\n0\t1\t2\n", False),
    "negative-n": (b"# n=-5\n0\t1\t3\n", False),
    "negative-n-later": (b"# n=2\n0\t1\t3\n# n=-1\n", False),
    "bad-n": (b"# n=x\n0\t1\t3\n", False),
    "n-past-int-digit-limit": (b"# n=" + b"9" * 5000 + b"\n0\t1\t3\n", False),
    "space-in-field": (b"# n=3\n0 \t1\t2\n", False),
    "two-fields": (b"# n=3\n0\t1\n", False),
    "four-fields": (b"# n=3\n0\t1\t2\t3\n", False),
    "three-fields-on-average": (b"# n=4\n0\t1\n2\t3\t1\t0\n", False),
    "empty-field": (b"# n=3\n0\t\t2\n", False),
    "inner-minus": (b"# n=3\n1-2\t1\t2\n0\t\t2\n", False),  # 6 tokens, 6 fields
    "double-minus": (b"# n=3\n0\t1\t--2\n", False),
    "lone-minus": (b"# n=3\n0\t1\t-\n", False),
    "trailing-minus": (b"# n=3\n0\t1\t2-\n", False),
    "letter": (b"# n=3\n0\tx\t2\n", False),
    "not-utf8": (b"# n=3\n0\t1\t\xff\n", False),
}


@pytest.mark.parametrize("case", _READER_CASES)
def test_edge_list_reader_matches_reference(tmp_path, case):
    data, regular = _READER_CASES[case]
    path = tmp_path / "g.tsv"
    path.write_bytes(data)
    _assert_reads_as_reference(path, regular)



def test_negative_vertex_count_is_refused(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("# n=-5\n0\t1\t3\n")
    with pytest.raises(FormatError, match="^line 1: bad n= comment$"):
        load_edge_list(str(path))


_DEFECTS = ["", "\r", " ", "+", "_", "#", "\n", "\t", "-", "x", "\u0663", "0",
            "99999999999999999999", "# c\n", "\r\n"]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    st.lists(st.tuples(*[st.integers(-1, 12)] * 3), max_size=6),
    st.integers(0, 10**6),
    st.sampled_from(_DEFECTS),
    st.booleans(),
)
def test_edge_list_reader_matches_reference_on_one_defect(edges, at, defect, over):
    """One random insertion or overwrite in a regular file."""
    text = "# n=12\n" + "".join(f"{u}\t{v}\t{w}\n" for u, v, w in edges)
    at %= len(text) + 1
    text = text[:at] + defect + text[at + over:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.tsv"
        path.write_bytes(text.encode())
        _assert_reads_as_reference(path)


# ---------------------------------------------------------------------------
# Topological order
# ---------------------------------------------------------------------------


def test_topo_sort_canonical_diamond():
    src = np.array([0, 0, 1, 2])
    dst = np.array([1, 2, 3, 3])
    assert topo_sort(4, src, dst).tolist() == [0, 1, 2, 3]


def test_topo_sort_min_id_tie_break():
    # two independent chains; ids interleave deterministically:
    # 0 is popped first and releases 2, which precedes 3 in the heap
    src = np.array([3, 0])
    dst = np.array([1, 2])
    assert topo_sort(4, src, dst).tolist() == [0, 2, 3, 1]


def test_topo_sort_validity_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(5, 60))
        # random DAG: edges only from lower to higher id, then relabel
        m = int(rng.integers(n, 4 * n))
        u = rng.integers(0, n - 1, size=m)
        v = (u + 1 + rng.integers(0, np.maximum(n - u - 1, 1))).clip(max=n - 1)
        keep = u < v
        perm = rng.permutation(n)
        src, dst = perm[u[keep]], perm[v[keep]]
        order = topo_sort(n, src, dst)
        assert sorted(order.tolist()) == list(range(n))
        pos = np.empty(n, dtype=int)
        pos[order] = np.arange(n)
        assert np.all(pos[src] < pos[dst])


def test_topo_sort_cycle_names_edge():
    src = np.array([0, 1, 2])
    dst = np.array([1, 2, 0])
    with pytest.raises(CycleError, match=r"\(\d, \d\)"):
        topo_sort(3, src, dst)


def _random_dag(rng, n, forward):
    """Arcs from lower to higher id, with duplicates and (usually) isolated
    vertices; relabelled by a random permutation unless ``forward``."""
    m = int(rng.integers(0, 3 * n))
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    keep = u < v
    src, dst = u[keep], v[keep]
    dup = rng.integers(0, max(src.size, 1), size=src.size // 4)
    src, dst = np.concatenate([src, src[dup]]), np.concatenate([dst, dst[dup]])
    if not forward:
        perm = rng.permutation(n)
        src, dst = perm[src], perm[dst]
    return src, dst


def _raised(fn, *args):
    try:
        fn(*args)
    except GraphError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("forward", [True, False])
def test_topo_sort_matches_reference_on_random_dags(forward):
    rng = np.random.default_rng(5 if forward else 6)
    for _ in range(60):
        n = int(rng.integers(1, 120))
        src, dst = _random_dag(rng, n, forward)
        order = topo_sort(n, src, dst)
        assert order.dtype == np.int64
        np.testing.assert_array_equal(order, topo_reference(n, src, dst))
    empty = np.zeros(0, dtype=np.int64)
    assert topo_sort(0, empty, empty).tolist() == []
    np.testing.assert_array_equal(topo_sort(3, empty, empty), [0, 1, 2])


def test_topo_sort_cycle_text_matches_reference():
    rng = np.random.default_rng(7)
    cases = [
        (1, [0], [0]),  # self-loop: src == dst is not a forward arc
        (3, [0, 1, 2], [1, 2, 1]),  # backward arc behind forward ones
        (4, [0, 1, 2, 3], [1, 2, 3, 0]),
    ]
    for _ in range(40):
        n = int(rng.integers(2, 60))
        src, dst = _random_dag(rng, n, forward=bool(rng.integers(0, 2)))
        # reversing any arc closes a cycle; an arcless graph gets a self-loop
        back = (0, 0)
        if src.size:
            i = int(rng.integers(0, src.size))
            back = (dst[i], src[i])
        at = int(rng.integers(0, src.size + 1))
        cases.append((n, np.insert(src, at, back[0]), np.insert(dst, at, back[1])))
    for n, src, dst in cases:
        src, dst = np.asarray(src), np.asarray(dst)
        want = _raised(topo_reference, n, src, dst)
        assert want is not None and want[0] is CycleError
        assert _raised(topo_sort, n, src, dst) == want


# ---------------------------------------------------------------------------
# Genome graphs and GFA subset
# ---------------------------------------------------------------------------


def test_gfa_chain_expansion():
    g = parse_gfa("S\ta\tACG\nS\tb\tT\nL\ta\t+\tb\t+\t0M\n")
    assert g.n == 4
    assert g.bases.tobytes() == b"ACGT"
    assert g.topo_order.tolist() == [0, 1, 2, 3]
    assert g.pred_ptr[1] == g.pred_ptr[0]
    assert g.pred_idx[g.pred_ptr[3] : g.pred_ptr[4]].tolist() == [2]


def test_gfa_bubble_structure():
    text = (
        "S\ts1\tA\nS\ts2\tC\nS\ts3\tG\nS\ts4\tT\n"
        "L\ts1\t+\ts2\t+\nL\ts1\t+\ts3\t+\nL\ts2\t+\ts4\t+\nL\ts3\t+\ts4\t+\n"
    )
    g = parse_gfa(text)
    assert g.n == 4
    assert sorted(g.pred_idx[g.pred_ptr[3] : g.pred_ptr[4]].tolist()) == [1, 2]
    assert sorted(g.succ_idx[g.succ_ptr[0] : g.succ_ptr[1]].tolist()) == [1, 2]


@pytest.mark.parametrize(
    "text",
    [
        "H\tVN:Z:1.0\nS\ta\tA\n",  # header record outside the subset
        "S\ta\tA\nP\tp\ta+\t*\n",  # path record outside the subset
        "S\ta\tA\nS\tb\tC\nL\ta\t-\tb\t+\n",  # reverse orientation
        "S\ta\tA\nL\ta\t+\tmissing\t+\n",  # unknown segment
        "S\ta\tA\nS\ta\tC\n",  # duplicate segment id
        "S\ta\n",  # S record without a sequence
        "S\ta\t\n",  # empty sequence
        "S\ta\tA\n\n  \nL\ta\t+\ta\n",  # short L record after blank lines
        "S\ta\tA\nL\tgone\t+\tmissing\t+\n",  # the from-segment is named
        "S\ta\tA\nL\ta\t+\ta\t+\nL\ta\t+\tgone\t+\n",  # after a good link
        "L\ta\t+\tb\t+\n",  # links but no segments
    ],
)
def test_gfa_out_of_subset_rejected(text):
    with pytest.raises(FormatError) as exc:
        parse_gfa(text)
    with pytest.raises(FormatError) as ref:
        parse_gfa_reference(text)
    assert str(exc.value) == str(ref.value)


def _shuffled_segments(text, seed):
    lines = text.splitlines()
    segs = [line for line in lines if line.startswith("S")]
    np.random.default_rng(seed).shuffle(segs)
    return "\n".join(segs + [line for line in lines if not line.startswith("S")])


def _same_graph(g, ref):
    for name in ("bases", "pred_ptr", "pred_idx", "succ_ptr", "succ_idx",
                 "topo_order", "topo_pos"):
        a, b = getattr(g, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("bases", [300, 2000, 5000])
def test_parse_gfa_matches_reference_expansion(bases):
    for seed in range(3):
        text, _ = gen_genome(bases, 0.02, seed)
        _same_graph(parse_gfa(text), parse_gfa_reference(text))
        # segments listed out of topological order take the heap path
        shuffled = _shuffled_segments(text, seed)
        g = parse_gfa(shuffled)
        assert not np.array_equal(g.topo_order, np.arange(g.n))
        _same_graph(g, parse_gfa_reference(shuffled))


@pytest.mark.parametrize(
    "text",
    [
        "S\ta\tAXG\nL\ta\t+\ta\t+\n",  # the alphabet is checked first
        "S\ta\tAC\u00dfG\n",  # upper-cases to two characters
        "S\ta\tA\nL\ta\t+\ta\t+\n",  # self-link on a 1-base segment
        "S\ta\tACG\nS\tb\tT\nL\ta\t+\tb\t+\nL\tb\t+\ta\t+\n",  # backward link
        "S\tb\tT\nS\ta\tACG\nL\ta\t+\tb\t+\nL\tb\t+\ta\t+\n",
    ],
)
def test_gfa_alphabet_and_cycle_errors_match_reference(text):
    want = _raised(parse_gfa_reference, text)
    assert want is not None and want[0] is not FormatError
    assert _raised(parse_gfa, text) == want


def test_gfa_cycle_rejected():
    text = "S\ta\tA\nS\tb\tC\nL\ta\t+\tb\t+\nL\tb\t+\ta\t+\n"
    with pytest.raises(CycleError):
        parse_gfa(text)


def test_gfa_alphabet_rejected():
    with pytest.raises(AlphabetError, match="^base 'X' not in ACGTN$"):
        parse_gfa("S\ta\tAXG\n")
    with pytest.raises(AlphabetError, match="^base '\u00e9' not in ACGTN$"):
        genome_graph("ACG\u00e9", [])


def test_genome_graph_accepts_n():
    g = genome_graph("ANT".replace("T", "T"), [(0, 1), (1, 2)])
    assert g.bases[1] == ord("N")


def test_gen_genome_roundtrip_and_determinism():
    text1, ref1 = gen_genome(2000, 0.02, seed=11)
    text2, ref2 = gen_genome(2000, 0.02, seed=11)
    assert text1 == text2 and ref1 == ref2
    g = parse_gfa(text1)
    assert len(ref1) == 2000
    assert g.n >= 2000  # backbone plus one alt node per bubble
    # bubbles exist at this rate and size with overwhelming probability
    assert g.n > 2000


def test_gen_genome_reference_is_a_path():
    text, ref = gen_genome(500, 0.05, seed=3)
    g = parse_gfa(text)
    # greedy walk following bases of ref must traverse the whole backbone:
    # at each step exactly one successor carries the next reference base
    # (alt branch differs from ref by construction)
    sources = np.flatnonzero(np.diff(g.pred_ptr) == 0).tolist()
    assert len(sources) == 1
    v = sources[0]
    assert chr(g.bases[v]) == ref[0]
    for i in range(1, len(ref)):
        succs = g.succ_idx[g.succ_ptr[v] : g.succ_ptr[v + 1]].tolist()
        nxt = [s for s in succs if chr(g.bases[s]) == ref[i]]
        assert len(nxt) == 1, f"ambiguous or broken backbone at {i}"
        v = nxt[0]


# ---------------------------------------------------------------------------
# Reads
# ---------------------------------------------------------------------------


def _chain(seq: str):
    return genome_graph(seq, [(i, i + 1) for i in range(len(seq) - 1)])


def test_gen_reads_error_free_are_substrings():
    seq = "ACGTTGCA" * 50
    g = _chain(seq)
    reads = gen_reads(g, count=20, length=37, sub_rate=0.0, seed=8)
    for _, r in reads:
        assert r in seq


def test_gen_reads_deterministic():
    g = _chain("ACGT" * 100)
    a = gen_reads(g, 5, 20, 0.1, seed=1)
    b = gen_reads(g, 5, 20, 0.1, seed=1)
    assert a == b


def test_gen_reads_substitution_rate_within_3_sigma():
    seq = "AC" * 1000
    g = _chain(seq)
    rate = 0.05
    total = 0
    mismatches = 0
    for seed in range(40):
        (rid, clean), = gen_reads(g, 1, 400, 0.0, seed=seed)
        (rid2, noisy), = gen_reads(g, 1, 400, rate, seed=seed)
        assert len(clean) == len(noisy) == 400
        mismatches += sum(a != b for a, b in zip(clean, noisy))
        total += 400
    mean = total * rate
    sigma = math.sqrt(total * rate * (1 - rate))
    assert abs(mismatches - mean) <= 3 * sigma


def test_gen_reads_too_long_raises():
    g = _chain("ACGT")
    with pytest.raises(ReadLengthError):
        gen_reads(g, 1, 5, 0.0, seed=0)


def test_gen_reads_rejects_bad_count_and_rate():
    g = _chain("ACGT" * 10)
    for count, rate in ((-3, 0.0), (2, -0.1), (2, 2.0), (2, math.nan)):
        with pytest.raises(GraphError):
            gen_reads(g, count, 5, rate, seed=0)
    assert gen_reads(g, 0, 5, 1.0, seed=0) == []


def test_gen_genome_rejects_bubble_rate_outside_unit_interval():
    for rate in (-0.5, 3.0, math.nan):
        with pytest.raises(GraphError):
            gen_genome(100, rate, seed=0)
    gen_genome(100, 1.0, seed=0)


def test_gen_reads_on_bubbles_spell_paths():
    text, ref = gen_genome(300, 0.05, seed=5)
    g = parse_gfa(text)
    reads = gen_reads(g, 10, 50, 0.0, seed=2)
    # verify each read by boolean path DP over the graph
    for _, r in reads:
        frontier = set(np.flatnonzero(g.bases == ord(r[0])).tolist())
        for ch in r[1:]:
            frontier = {
                s
                for v in frontier
                for s in g.succ_idx[g.succ_ptr[v] : g.succ_ptr[v + 1]].tolist()
                if g.bases[s] == ord(ch)
            }
            assert frontier, "read does not spell any path"


def test_read_batches():
    reads = [("a", "A" * 10), ("b", "C" * 400), ("c", "G" * 300)]
    short, long_ = read_batches(reads, "auto")
    assert [r for r, _ in short.reads] == ["a", "c"]
    assert [r for r, _ in long_.reads] == ["b"]
    # a forced request makes one batch; only non-empty batches are returned
    (forced,) = read_batches(reads, "long")
    assert forced.length_class == "long" and forced.reads == reads
    assert [b.length_class for b in read_batches(reads[:1], "auto")] == ["short"]
    with pytest.raises(GraphError, match="^read b too long for a short batch$"):
        read_batches(reads, "short")
    with pytest.raises(GraphError, match="^unknown mapping request 'x'$"):
        read_batches(reads, "x")


@pytest.mark.parametrize(
    "seq, message",
    [
        ("", "read r1 is empty"),
        ("ACGTXX", "read r1 char 'X' not in ACGTN"),
        ("ACGT\u00e9", "read r1 char '\u00e9' not in ACGTN"),
        ("acgt", "read r1 char 'a' not in ACGTN"),
    ],
    ids=["empty", "unknown", "non-ascii", "lower-case"],
)
def test_read_batch_refuses_a_bad_read_by_id(seq, message):
    # every read is checked as it is batched, so no scorer meets a bad one
    for length_class in ("short", "long"):
        with pytest.raises(GraphError) as exc:
            ReadBatch([("r0", "ACGTN"), ("r1", seq)], length_class)
        assert str(exc.value) == message


# ---------------------------------------------------------------------------
# FASTA
# ---------------------------------------------------------------------------


def test_fasta_roundtrip(tmp_path):
    records = [("r1", "ACGT" * 40), ("r2", "GGC")]
    path = tmp_path / "r.fa"
    dump_fasta(records, str(path))
    assert load_fasta(str(path)) == records


def test_fasta_bad_leading_data(tmp_path):
    p = tmp_path / "bad.fa"
    p.write_text("ACGT\n")
    with pytest.raises(FormatError):
        load_fasta(str(p))


def test_fasta_header_without_name(tmp_path):
    p = tmp_path / "bad.fa"
    p.write_text(">r1\nACGT\n>\nAC\n")
    with pytest.raises(FormatError, match="line 3"):
        load_fasta(str(p))
