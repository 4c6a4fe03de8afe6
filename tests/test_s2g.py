import numpy as np
import pytest

from graphdp import s2g
from graphdp.graphs import (
    AlphabetError,
    GraphError,
    ReadBatch,
    gen_genome,
    gen_reads,
    genome_graph,
    parse_gfa,
)
from graphdp.s2g import (
    MODE_LONG,
    MODE_SHORT,
    AlignmentError,
    align_read_parallel,
    align_reference,
    align_windowed,
    batch_align,
    classify_self_hop,
    dump_alignments,
    precompute_masks,
)


def bubble():
    # A -> {C, G} -> T
    return genome_graph("ACGT", [(0, 1), (0, 2), (1, 3), (2, 3)])


def chain(bases):
    return genome_graph(bases, [(i, i + 1) for i in range(len(bases) - 1)])


def random_genome_dag(n, seed, span=6, density=0.35):
    rng = np.random.default_rng(seed)
    bases = "".join(rng.choice(list("ACGT"), size=n))
    edges = []
    for v in range(1, n):
        lo = max(0, v - span)
        picked = False
        for u in range(lo, v):
            if rng.random() < density:
                edges.append((u, v))
                picked = True
        if not picked:
            edges.append((v - 1, v))
    return genome_graph(bases, edges)


def walk_query(g, length, seed):
    rng = np.random.default_rng(seed)
    v = int(rng.integers(g.n))
    out = [chr(g.bases[v])]
    while len(out) < length:
        succ = g.succ_idx[g.succ_ptr[v] : g.succ_ptr[v + 1]]
        if succ.size == 0:
            break
        v = int(succ[rng.integers(succ.size)])
        out.append(chr(g.bases[v]))
    return "".join(out)


def batch_results(g, queries, W=128):
    """batch_align results in query order (read ids sort like the list)."""
    reads = [(f"r{j:04d}", q) for j, q in enumerate(queries)]
    results, _ = batch_align(g, ReadBatch(reads, "short"), W=W)
    return results


def longest_path_nodes(g):
    lp = np.ones(g.n, dtype=np.int64)
    for v in g.topo_order[::-1]:
        succ = g.succ_idx[g.succ_ptr[v] : g.succ_ptr[v + 1]]
        if succ.size:
            lp[v] = 1 + lp[succ].max()
    return int(lp.max())


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------


def test_mask_table_act():
    mt = precompute_masks("ACT", 8)
    assert mt[ord("A")] == 0b001
    assert mt[ord("C")] == 0b010
    assert mt[ord("T")] == 0b100
    assert mt[ord("G")] == 0


def test_mask_table_repeated():
    assert precompute_masks("AAAA", 8)[ord("A")] == 0b1111


def test_mask_table_n_owns_no_bits():
    mt = precompute_masks("ANA", 8)
    assert mt[ord("A")] == 0b101
    total = 0
    for c in b"ACGT":
        total |= mt[c]
    assert total == 0b101
    assert ord("N") not in mt


def test_mask_table_rejects_long_segment():
    with pytest.raises(AlignmentError):
        precompute_masks("ACGTACGTA", 8)


def test_mask_table_rejects_bad_char():
    for segment in ("AXT", "A\u00e9T"):
        with pytest.raises(AlphabetError, match="^query char '(X|\u00e9)' not in"):
            precompute_masks(segment, 8)
        with pytest.raises(AlphabetError):
            align_windowed(chain("AAAA"), segment, W=8)


# ---------------------------------------------------------------------------
# align_windowed basics
# ---------------------------------------------------------------------------


def test_bubble_act_scores_and_states():
    res = align_windowed(bubble(), "ACT", W=128)
    assert res.score_max == 3
    assert res.end_nodes.tolist() == [3]
    # each prefix of "ACT" ends at one node; the G branch (node 2) holds none
    for q, end in (("A", 0), ("AC", 1)):
        assert align_windowed(bubble(), q, W=128).end_nodes.tolist() == [end]


def test_match_may_start_mid_graph():
    assert align_windowed(chain("ACGT"), "CG", W=8).score_max == 2
    assert align_reference(chain("ACGT"), "CG").score_max == 2
    assert batch_results(chain("ACGT"), ["CG"], W=8)[0].score_max == 2


def test_no_matching_char_scores_zero():
    res = align_windowed(chain("AAAA"), "TTT", W=8)
    assert res.score_max == 0
    assert res.end_nodes.size == 0


def test_single_node_single_char():
    g = genome_graph("A", [])
    assert align_reference(g, "A").score_max == 1
    assert align_windowed(g, "A", W=8).score_max == 1
    assert batch_results(g, ["A"], W=8)[0].score_max == 1


def test_three_window_chain_carries():
    q = walk_query(chain("ACGT" * 75), 300, seed=0)  # the chain itself
    g = chain("ACGT" * 75)
    q = "ACGT" * 75
    for res in (align_windowed(g, q, W=128), batch_results(g, [q])[0]):
        assert res.score_max == 300
        assert res.windows == 3
        assert res.end_nodes.tolist() == [299]


def test_empty_query_rejected():
    with pytest.raises(AlignmentError):
        align_windowed(bubble(), "", W=128)
    with pytest.raises(AlignmentError):
        align_reference(bubble(), "")
    with pytest.raises(AlignmentError):
        align_read_parallel(bubble(), ["ACT", ""], W=128)
    # a batch refuses the empty read itself, before any scorer sees it
    with pytest.raises(GraphError, match="^read r0001 is empty$"):
        batch_results(bubble(), ["ACT", ""])


def test_batch_rejects_chars_outside_alphabet():
    # the bad char sits past where the match dies, so only a check of the
    # whole query catches it
    for q in ("ACGTXX", "TTTTTTTTTX", "acg", "ACG\u00e9"):
        with pytest.raises(AlphabetError):
            batch_results(chain("AAAA"), ["ACT", q], W=4)
        with pytest.raises(AlphabetError):
            align_read_parallel(chain("AAAA"), ["ACT", q], W=4)
        with pytest.raises(AlphabetError):
            align_reference(chain("AAAA"), q)


def test_n_never_matches_either_side():
    g = chain("ANA")
    assert align_windowed(g, "ANA", W=8).score_max == 1
    assert align_reference(g, "ANA").score_max == 1
    assert [r.score_max for r in batch_results(g, ["ANA", "NA", "N"], W=8)] == [
        1, 0, 0
    ]


def test_early_exit_stops_windows():
    g = chain("A" * 12)
    for res in (align_windowed(g, "T" * 24, W=8), batch_results(g, ["T" * 24], W=8)[0]):
        assert res.score_max == 0  # k would be 3
        assert res.windows == 1


# ---------------------------------------------------------------------------
# oracle equivalence and invariances
# ---------------------------------------------------------------------------


def test_windowed_equals_oracle_random_cases():
    widths = (8, 32, 128)
    for seed in range(12):
        g = random_genome_dag(30 + 10 * seed, seed)
        if seed % 2:
            q = walk_query(g, 20 + 15 * seed, seed + 100)
        else:
            rng = np.random.default_rng(seed + 200)
            q = "".join(rng.choice(list("ACGT"), size=25 + 12 * seed))
        want = align_reference(g, q)
        for W in widths:
            got = align_windowed(g, q, W=W)
            assert got.score_max == want.score_max, (seed, W)
            assert got.end_nodes.tolist() == want.end_nodes.tolist(), (seed, W)


def with_ns_and_sources(g, seed, n_count=3, sources=3):
    """Copy of g with some bases set to 'N' and some nodes cut off from all
    their predecessors."""
    rng = np.random.default_rng(seed)
    bases = bytearray(g.bases.tobytes())
    for v in rng.choice(g.n, size=n_count, replace=False):
        bases[v] = ord("N")
    cut = set(rng.choice(np.arange(1, g.n), size=sources, replace=False).tolist())
    edges = [
        (int(u), v)
        for v in range(g.n)
        if v not in cut
        for u in g.pred_idx[g.pred_ptr[v] : g.pred_ptr[v + 1]]
    ]
    return genome_graph(bases.decode(), edges)


def test_batch_align_matches_oracle_and_windowed_counts(crossover):
    # word boundaries (63/64/65/129 reads) and small words (1 and 9 reads),
    # mixed lengths in one word, N in reads and nodes, source nodes, zero
    # scores, reads longer than any path; dense-only checks the match rows
    # of every position, past each read's end too
    for seed, size in enumerate((63, 64, 65, 129, 1, 9)):
        g = with_ns_and_sources(random_genome_dag(40, seed + 300, span=4), seed)
        longest = longest_path_nodes(g)
        rng = np.random.default_rng(seed + 400)
        queries = []
        for j in range(size):
            kind = j % 5
            length = int(rng.integers(1, 70))
            if kind == 0:
                q = walk_query(g, length, seed * 1000 + j)
            elif kind == 1:
                q = "".join(rng.choice(list("ACGTN"), size=length))
            elif kind == 2:
                q = "N" + walk_query(g, length, seed * 1000 + j)
            elif kind == 3:
                q = walk_query(g, 10 * g.n, seed * 1000 + j)
                q += "".join(rng.choice(list("ACGT"), size=longest + 5 - len(q)))
            else:
                q = walk_query(g, length, seed * 1000 + j)[:-1] + "N"
            queries.append(q)
        assert size == 1 or len({len(q) for q in queries[:64]}) > 1  # mixed
        for W in (1, 7, 64, 128, 256):
            got = batch_results(g, queries, W=W)
            assert len(got) == size
            for q, res in zip(queries, got):
                want = align_reference(g, q)
                assert res.score_max == want.score_max, (seed, W, q)
                assert res.end_nodes.tolist() == want.end_nodes.tolist(), (seed, W, q)
                ref = align_windowed(g, q, W=W)
                assert res.windows == ref.windows, (seed, W, q)
        assert size == 1 or any(r.score_max == 0 for r in got)


# ---------------------------------------------------------------------------
# the read-parallel scorer's dense and sparse phases
# ---------------------------------------------------------------------------

# first query position at which the scorer may leave the dense step
SWITCH = 8


@pytest.fixture(params=[1.0, 0.0], ids=["sparse-from-switch", "dense-only"])
def crossover(request, monkeypatch):
    """Force the sparse phase at the first eligible position (a live share
    of 1 always qualifies) or disable it (a live count is never <= 0)."""
    monkeypatch.setattr(s2g, "_SPARSE_SHARE", request.param)
    return request.param


@pytest.fixture
def frontier_sizes(monkeypatch):
    """(live nodes in, live nodes out) of every sparse step of a read; a
    jump across id runs and hops of sole successors is one step."""
    sizes = []
    step = s2g._read_step

    def spy(front, *args):
        at, nxt = step(front, *args)
        sizes.append((len(front), len(nxt)))
        return at, nxt

    monkeypatch.setattr(s2g, "_read_step", spy)
    return sizes


def clean_walk(g, length, seed):
    """A walk of exactly ``length`` nodes through no 'N' node."""
    for t in range(seed, seed + 100):
        walk = walk_query(g, length, t)
        if len(walk) == length and "N" not in walk:
            return walk
    raise AssertionError(f"no clean walk of {length} nodes")


def assert_matches_oracle(g, queries, W=16):
    got = s2g.align_read_parallel(g, queries, W=W)
    for q, res in zip(queries, got):
        want = align_reference(g, q)
        assert res.score_max == want.score_max, q
        assert res.end_nodes.tolist() == want.end_nodes.tolist(), q
        assert res.windows == align_windowed(g, q, W=W).windows, q
    return got


def test_reads_dying_around_the_switch(crossover, frontier_sizes):
    # N in nodes, N in reads, source nodes; reads whose bit clears before,
    # at and after the position where the scorer may go sparse
    g = with_ns_and_sources(random_genome_dag(200, 11), 11, n_count=8)
    queries = []
    for length in range(2, 16):
        walk = clean_walk(g, length, 500)
        queries += [walk + "N", walk + "T" * 5, "N" + walk, walk[:-1] + "N" + walk]
    queries.append(walk_query(g, 10 * g.n, 600))  # to a sink
    # into an 'N' node after the switch, with each base at its position;
    # no other path spells the walk past it
    for t in range(800, 1800):
        walk = walk_query(g, 20, t)
        k = walk.find("N")
        into_n = [walk[:k] + c + walk[k + 1 :] for c in "ACGT"]
        if k > SWITCH and all(align_reference(g, q).score_max == k for q in into_n):
            break
    else:
        pytest.fail("no walk runs into an 'N' node after the switch")
    queries += into_n
    got = assert_matches_oracle(g, queries)
    scores = {r.score_max for r in got}
    assert {SWITCH - 1, SWITCH, SWITCH + 1, SWITCH + 2} <= scores
    assert bool(frontier_sizes) == (crossover > 0)


def test_full_word_collapsing_at_different_positions(crossover, frontier_sizes):
    g = with_ns_and_sources(parse_gfa(gen_genome(600, 0.05, seed=12)[0]), 12)
    rng = np.random.default_rng(13)
    queries = []
    for j in range(64):
        walk = clean_walk(g, int(rng.integers(SWITCH, 60)), 700 + 100 * j)
        cut = int(rng.integers(SWITCH - 2, len(walk) + 1))
        queries.append(walk[:cut] + "N"[: j % 2] + walk[cut:])
    got = assert_matches_oracle(g, queries)
    assert len({r.score_max for r in got}) > 30
    assert bool(frontier_sizes) == (crossover > 0)


def layered_graph(parts):
    """Each (width, bases) part is ``width`` parallel chains spelling
    ``bases``; every chain end of one part feeds every chain start of the
    next."""
    bases, edges, ends = "", [], []
    for width, spell in parts:
        starts = []
        for _ in range(width):
            first = len(bases)
            bases += spell
            starts.append(first)
            edges += [(first + i, first + i + 1) for i in range(len(spell) - 1)]
        edges += [(u, v) for u in ends for v in starts]
        ends = [v + len(spell) - 1 for v in starts]
    return genome_graph(bases, edges)


def test_regrown_frontier_returns_to_dense_step(frontier_sizes):
    # A read's frontier is one node on a chain and eight in a fan of A
    # runs, past the natural crossover: each read goes sparse on the
    # prefix, dense in fan 1, sparse on the A chain and dense in fan 2.
    # A state left over from an earlier dense step would stay live along
    # the A chain and add end nodes to the reads that die in fan 2.
    rng = np.random.default_rng(14)
    prefix, tail = ("".join(rng.choice(list("CGT"), size=20)) for _ in range(2))
    g = layered_graph(
        [(1, prefix), (8, "A" * 10), (1, "A" * 30), (8, "A" * 10), (1, tail)]
    )
    sparse_max = g.n * s2g._SPARSE_SHARE
    full = prefix + "A" * 50 + tail
    queries = [full, full[:65] + "N", full[:67] + "NA", full[:25] + "N", full[:80]]
    got = assert_matches_oracle(g, queries)
    assert [r.score_max for r in got] == [90, 65, 67, 25, 80]
    assert [r.end_nodes.size for r in got] == [1, 8, 8, 8, 1]
    assert all(live <= sparse_max for live, _ in frontier_sizes)
    # every read regrows on its own, so count the regrowths of one read
    frontier_sizes.clear()
    assert_matches_oracle(g, [full])
    regrown = [i for i, (_, out) in enumerate(frontier_sizes) if out > sparse_max]
    assert len(regrown) == 2 and regrown[-1] < len(frontier_sizes) - 1
    assert all(live <= sparse_max for live, _ in frontier_sizes)
    # homopolymer reads keep most A nodes live and stay dense
    assert_matches_oracle(g, ["A" * 55, "A" * 12 + tail, prefix[-9:] + "A" * 50])


def test_natural_size_long_read_takes_sparse_phase(frontier_sizes):
    g = parse_gfa(gen_genome(5000, 0.02, seed=21)[0])
    queries = [q for _, q in gen_reads(g, 2, 2000, 0.0, seed=22)]
    queries += [q for _, q in gen_reads(g, 2, 2000, 0.01, seed=23)]
    got = assert_matches_oracle(g, queries, W=128)
    assert got[0].score_max == got[1].score_max == 2000
    assert frontier_sizes


def spell(n, seed, first=""):
    """``n`` random bases starting with ``first``."""
    rng = np.random.default_rng(seed)
    return first + "".join(rng.choice(list("ACGT"), size=n - len(first)))


def test_sparse_jumps_stop_at_n_and_at_read_and_run_ends(crossover, frontier_sizes):
    # a 40-node run with 'N' at node 20 forks after node 39 into two runs
    run = spell(40, 16)
    run = run[:20] + "N" + run[21:]
    x, y = spell(10, 17, "A"), spell(10, 18, "C")
    g = genome_graph(
        run + x + y,
        [(i, i + 1) for i in range(39)]
        + [(39, 40), (39, 50)]
        + [(i, i + 1) for i in (*range(40, 49), *range(50, 59))],
    )
    after_n = run[21:]
    off = "ACGT"[("ACGT".index(after_n[12]) + 1) % 4]
    queries = [
        run[:20] + "N" + run[21:30],  # a read 'N' under the graph 'N'
        run[:20] + "A" + run[21:30],
        after_n[:14],  # ends mid-run
        after_n,  # ends on the run's last node
        after_n[:12] + off + after_n[13:],  # leaves the run mid-way
        after_n + x[:5],  # takes the fork, then part of a second run
        after_n + y,  # to a sink
    ]
    got = assert_matches_oracle(g, queries)
    assert [r.score_max for r in got] == [20, 20, 14, 19, 12, 24, 29]
    assert [r.lowest_end for r in got] == [19, 19, 34, 39, 32, 44, 59]
    assert bool(frontier_sizes) == (crossover > 0)
    if crossover:
        # each read goes sparse on one node at position 8 and crosses what
        # it matches of each run in one step: after_n nodes 30-39 at once;
        # a read stopped by a mismatch takes one more step, which clears it,
        # and the fork is one set step between two jumps
        steps = []
        for q in queries:
            frontier_sizes.clear()
            assert_matches_oracle(g, [q])
            steps.append(frontier_sizes.copy())
        assert [len(s) for s in steps] == [2, 2, 1, 1, 2, 3, 3]
        assert all(s[0] == (1, 1) for s in steps)


def test_sparse_steps_through_one_node_branches(crossover, frontier_sizes):
    # run `left` forks into one-node branches C and G, which join into run
    # `mid`; `mid` forks into two one-node A branches (one successor in
    # common), which join into run `right`
    left, mid, right = spell(12, 19), spell(10, 20, "T"), spell(10, 21, "G")
    c, q0 = 12, 14
    a1, a2, r0 = q0 + 10, q0 + 11, q0 + 12
    g = genome_graph(
        left + "CG" + mid + "AA" + right,
        [(i, i + 1) for i in range(11)]
        + [(11, c), (11, c + 1), (c, q0), (c + 1, q0)]
        + [(i, i + 1) for i in range(q0, q0 + 9)]
        + [(q0 + 9, a1), (q0 + 9, a2), (a1, r0), (a2, r0)]
        + [(i, i + 1) for i in range(r0, r0 + 9)],
    )
    queries = [
        left + "C" + mid + "A" + right,
        left + "G" + mid + "A",  # ends on both A branches
        left + "G" + mid + "AG",  # ends where they join
        left + "C" + mid + "AT",  # dies at the join
        left + "T",  # dies at the fork
        left + "C" + mid[:3],
    ]
    got = assert_matches_oracle(g, queries)
    assert [res.score_max for res in got] == [34, 24, 25, 24, 12, 16]
    assert [res.end_nodes.tolist() for res in got[1:4]] == [[a1, a2], [r0], [a1, a2]]
    assert bool(frontier_sizes) == (crossover > 0)
    if crossover:
        assert (2, 1) in frontier_sizes  # both A branches step to their join


def test_results_do_not_depend_on_node_numbering(crossover, frontier_sizes):
    # Renumbered at random, nearly every sole successor is a hop off the id
    # runs; with the segments listed in reverse, every join between
    # segments is.  Scores and end nodes stay the oracle's, and equal the
    # first numbering's mapped through the renumbering.
    text = gen_genome(3000, 0.03, seed=24)[0]
    g = parse_gfa(text)
    queries = [q for _, q in gen_reads(g, 3, 1500, 0.0, seed=25)]
    queries += [q for _, q in gen_reads(g, 3, 1500, 0.002, seed=26)]
    queries += [q for _, q in gen_reads(g, 16, 150, 0.02, seed=27)]
    want = assert_matches_oracle(g, queries, W=128)

    shuffle = np.random.default_rng(28).permutation(g.n)
    bases = np.empty(g.n, dtype=np.uint8)
    bases[shuffle] = g.bases
    src = np.repeat(np.arange(g.n), np.diff(g.succ_ptr))
    arcs = np.column_stack((shuffle[src], shuffle[g.succ_idx]))
    shuffled = genome_graph(bases.tobytes().decode(), arcs)

    lines = text.splitlines()
    segs = [ln for ln in lines if ln.startswith("S")]
    links = [ln for ln in lines if ln.startswith("L")]
    flipped = parse_gfa("\n".join(segs[::-1] + links))
    lengths = np.array([len(ln.split("\t")[2]) for ln in segs])
    # each segment's first id once flipped, less its first id before
    shift = np.cumsum(lengths[::-1])[::-1] - np.cumsum(lengths)
    flip = np.arange(g.n) + np.repeat(shift, lengths)

    for h, to_h in ((shuffled, shuffle), (flipped, flip)):
        assert np.array_equal(h.bases[to_h], g.bases)
        got = assert_matches_oracle(h, queries, W=128)
        assert [r.score_max for r in got] == [r.score_max for r in want]
        for r, w in zip(got, want):
            assert r.end_nodes.tolist() == sorted(to_h[w.end_nodes].tolist())
    assert sum(r.score_max == 1500 for r in want) >= 3
    assert bool(frontier_sizes) == (crossover > 0)


def test_window_width_invariance():
    g = random_genome_dag(80, seed=42)
    q = walk_query(g, 150, seed=7)
    scores = {
        W: align_windowed(g, q, W=W).score_max for W in (8, 32, 64, 128, 256)
    }
    assert len(set(scores.values())) == 1


def test_adding_edge_never_decreases_score():
    rng = np.random.default_rng(3)
    g = random_genome_dag(50, seed=3)
    q = walk_query(g, 60, seed=9)
    base_score = align_windowed(g, q, W=32).score_max
    edges = [
        (u, v)
        for v in range(g.n)
        for u in g.pred_idx[g.pred_ptr[v] : g.pred_ptr[v + 1]]
    ]
    for _ in range(5):
        u, v = sorted(rng.integers(g.n, size=2))
        if u == v:
            continue
        g2 = genome_graph(
            "".join(chr(b) for b in g.bases), edges + [(int(u), int(v))]
        )
        assert align_windowed(g2, q, W=32).score_max >= base_score


def test_score_bounded_by_query_and_longest_path():
    for seed in range(6):
        g = random_genome_dag(40, seed=seed)
        q = walk_query(g, 80, seed=seed + 50)
        s = align_windowed(g, q, W=16).score_max
        assert s <= min(len(q), longest_path_nodes(g))


# ---------------------------------------------------------------------------
# classification and batching
# ---------------------------------------------------------------------------


def test_classify_self_hop_rule():
    g = bubble()
    # n0: no preds; n1: pred is previous in topo; n2: gap; n3: two preds
    assert classify_self_hop(g).tolist() == [False, True, False, False]
    c = chain("ACGTA")
    assert classify_self_hop(c).tolist() == [False, True, True, True, True]


def test_batch_short_round_robin():
    g = chain("ACGTACGTAC")
    reads = [(f"r{j:02d}", "ACGT") for j in range(64)]
    batch = ReadBatch(reads, "short")
    results, bt = batch_align(g, batch, W=128)
    assert bt.mode == MODE_SHORT
    assert bt.read_ids == [rid for rid, _ in reads]
    assert bt.read_lengths == [4] * 64
    assert bt.window_passes == [r.windows for r in results]
    assert len(results) == 64
    assert all(r.score_max == 4 for r in results)


def test_batch_long_single_pipeline():
    g = chain("ACGT" * 100)
    batch = ReadBatch([("long0", "ACGT" * 90)], "long")
    results, bt = batch_align(g, batch, W=128)
    assert bt.mode == MODE_LONG
    assert (bt.read_ids, bt.read_lengths) == (["long0"], [360])
    assert bt.window_passes == [results[0].windows]
    assert results[0].windows == 3  # ceil(360/128)
    # every node but the first forwards from its predecessor, in 3 sweeps
    assert (bt.self_updates, bt.hop_updates) == (399 * 3, 1 * 3)


def test_batch_modes_agree_on_scores():
    # the same reads as a short and as a long batch: the mapping differs,
    # the scores do not
    g = random_genome_dag(50, seed=77)
    reads = [(f"r{j}", walk_query(g, 30, seed=j)) for j in range(10)]
    res_a, bt_a = batch_align(g, ReadBatch(reads, "short"), W=128)
    res_b, bt_b = batch_align(g, ReadBatch(reads, "long"), W=128)
    assert (bt_a.mode, bt_b.mode) == (MODE_SHORT, MODE_LONG)
    assert [r.score_max for r in res_a] == [r.score_max for r in res_b]


def test_batch_results_ordered_by_read_id():
    g = chain("ACGT")
    reads = [("b", "CG"), ("a", "ACGT"), ("c", "T")]
    results, bt = batch_align(g, ReadBatch(reads, "short"), W=128)
    assert bt.read_ids == ["a", "b", "c"]
    assert bt.read_lengths == [4, 2, 1]
    assert [r.score_max for r in results] == [4, 2, 1]


def test_dump_alignments_tsv(tmp_path):
    g = bubble()
    res = align_windowed(g, "ACT", W=8)
    miss = align_windowed(chain("AAAA"), "T", W=8)
    out = tmp_path / "aln.tsv"
    dump_alignments(str(out), ["read1", "read2"], [res, miss])
    assert out.read_text() == "read1\t3\t3\nread2\t0\t-1\n"
