"""Min-plus kernel tests.

The independent oracle for closures is all-pairs Dijkstra from
scipy.sparse.csgraph (``oracles.dijkstra_oracle``), run on the same arcs;
the Floyd-Warshall implementation under test never feeds the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdp.graphs import (
    INF_SENTINEL,
    MAX_WEIGHT,
    WeightedGraph,
    distance_init,
    gen_er,
    gen_nws,
)
import graphdp.minplus as minplus
from graphdp.minplus import (
    _NARROW_SENTINEL,
    _SPARSE_MIN_DIM,
    BlockShapeError,
    NegativeEntryError,
    floyd_warshall_dense,
    min_plus_product,
    _sparse_pivots,
)
from oracles import dijkstra_oracle, disjoint_copies


# ---------------------------------------------------------------------------
# Floyd-Warshall closure
# ---------------------------------------------------------------------------


def test_fw_four_vertex_frozen_values():
    # arcs: 0->1:3, 1->2:4, 0->2:10, 2->3:1, 0->3:20
    # hand-closed: d(0,2)=min(10,3+4)=7, d(0,3)=min(20,10+1,3+4+1)=8, d(1,3)=5
    INF = INF_SENTINEL
    d = np.array(
        [
            [0, 3, 10, 20],
            [INF, 0, 4, INF],
            [INF, INF, 0, 1],
            [INF, INF, INF, 0],
        ],
        dtype=np.int64,
    )
    expect = np.array(
        [
            [0, 3, 7, 8],
            [INF, 0, 4, 5],
            [INF, INF, 0, 1],
            [INF, INF, INF, 0],
        ],
        dtype=np.int64,
    )
    assert np.array_equal(floyd_warshall_dense(d), expect)


@pytest.mark.parametrize("seed", range(6))
def test_fw_matches_dijkstra_oracle(seed):
    g = gen_er(70, 0.06, seed=seed)
    assert np.array_equal(floyd_warshall_dense(distance_init(g)), dijkstra_oracle(g))


def test_fw_matches_oracle_on_small_world():
    g = gen_nws(90, 4, 0.2, seed=3)
    assert np.array_equal(floyd_warshall_dense(distance_init(g)), dijkstra_oracle(g))


def test_fw_idempotent():
    g = gen_er(50, 0.1, seed=11)
    once = floyd_warshall_dense(distance_init(g))
    assert np.array_equal(floyd_warshall_dense(once), once)


def test_fw_triangle_inequality_closed():
    g = gen_er(40, 0.15, seed=2)
    d = floyd_warshall_dense(distance_init(g))
    # full vectorized check: d[i,j] <= d[i,k] + d[k,j] for all triples
    for k in range(g.n):
        assert np.all(d <= d[:, k, None] + d[None, k, :])


def test_fw_rejects_negative_and_nonzero_diagonal():
    with pytest.raises(NegativeEntryError):
        floyd_warshall_dense(np.array([[0, -1], [1, 0]], dtype=np.int64))
    with pytest.raises(BlockShapeError):
        floyd_warshall_dense(np.array([[1, 2], [3, 0]], dtype=np.int64))
    with pytest.raises(BlockShapeError):
        floyd_warshall_dense(np.zeros((2, 3), dtype=np.int64))


def test_fw_disconnected_stays_inf():
    INF = INF_SENTINEL
    d = np.array([[0, INF], [INF, 0]], dtype=np.int64)
    out = floyd_warshall_dense(d)
    assert out[0, 1] == INF and out[1, 0] == INF


# ---------------------------------------------------------------------------
# Sparse pivot phase: inputs past the size floor
# ---------------------------------------------------------------------------


def _strip_pivots(g):
    """How many pivots the sparse phase leaves to the strip loop on the seed
    of ``g``, which must lie past the phase's size floor."""
    assert g.n >= _SPARSE_MIN_DIM
    return _sparse_pivots(distance_init(g), INF_SENTINEL).size


def test_sparse_phase_hands_a_dense_input_straight_to_the_strip_loop():
    # every pivot of a dense seed covers most of the matrix, past the switch
    g = gen_er(_SPARSE_MIN_DIM, 0.9, seed=3)
    assert _strip_pivots(g) == g.n


def test_sparse_phase_switching_partway_matches_oracle():
    g = gen_er(600, 0.008, seed=5)
    assert 0 < _strip_pivots(g) < g.n
    assert np.array_equal(floyd_warshall_dense(distance_init(g)), dijkstra_oracle(g))


def test_sparse_phase_finishes_a_tree_alone():
    # a directed binary out-tree: every vertex reaches only its subtree, so
    # no pivot ever covers a twentieth of the matrix
    n = 700
    rng = np.random.default_rng(1)
    v = np.arange(1, n)
    g = WeightedGraph(n, (v - 1) // 2, v, rng.integers(1, 100, size=n - 1))
    assert _strip_pivots(g) == 0
    assert np.array_equal(floyd_warshall_dense(distance_init(g)), dijkstra_oracle(g))


def test_sparse_phase_keeps_unreachable_pairs_at_sentinel():
    one = gen_er(150, 0.03, seed=4)
    g = disjoint_copies(one, 4)
    _strip_pivots(g)
    out = floyd_warshall_dense(distance_init(g))
    assert np.array_equal(out, dijkstra_oracle(g))
    for c in range(4):
        rows = slice(c * one.n, (c + 1) * one.n)
        assert np.array_equal(out[rows, rows], out[: one.n, : one.n])
        assert np.count_nonzero(out[rows] < INF_SENTINEL) == np.count_nonzero(
            out[rows, rows] < INF_SENTINEL
        )


def test_sparse_phase_saturates_a_max_weight_chain():
    # two MAX_WEIGHT arcs sum to INF - 1; three or more saturate
    n = _SPARSE_MIN_DIM + 88
    g = WeightedGraph.from_edges(n, [(i, i + 1, MAX_WEIGHT) for i in range(n - 1)])
    assert _strip_pivots(g) == 0
    out = floyd_warshall_dense(distance_init(g))
    assert np.array_equal(out, dijkstra_oracle(g))
    assert out[0, 2] == INF_SENTINEL - 1
    assert np.all(out[0, 3:] == INF_SENTINEL)
    assert np.count_nonzero(out < INF_SENTINEL) == 3 * n - 3


def test_sparse_phase_with_zero_weight_arcs():
    er = gen_er(600, 0.007, seed=6)
    rng = np.random.default_rng(6)
    w = np.where(rng.random(er.w.size) < 0.3, 0, er.w)
    g = WeightedGraph(er.n, er.src, er.dst, w)
    assert np.count_nonzero(g.w == 0) > 0
    _strip_pivots(g)
    assert np.array_equal(floyd_warshall_dense(distance_init(g)), dijkstra_oracle(g))


# ---------------------------------------------------------------------------
# Min-plus product
# ---------------------------------------------------------------------------


def test_min_plus_product_small():
    INF = INF_SENTINEL
    a = np.array([[1, INF], [2, 3]], dtype=np.int64)
    b = np.array([[10, INF], [1, 1]], dtype=np.int64)
    out = min_plus_product(a, b)
    assert out.tolist() == [[11, INF], [4, 4]]


def test_entries_never_exceed_sentinel():
    # saturation: closures over near-sentinel inputs stay within range
    INF = INF_SENTINEL
    d = np.array(
        [[0, INF - 1, INF], [INF, 0, INF - 1], [INF, INF, 0]], dtype=np.int64
    )
    out = floyd_warshall_dense(d)
    assert out.max() <= INF
    # the sum of two long finite paths saturates rather than wrapping
    assert out[0, 2] == INF  # (INF-1) + (INF-1) > INF, incumbent INF kept


# ---------------------------------------------------------------------------
# uint32 storage and saturation at the sentinel
# ---------------------------------------------------------------------------


def _fw_int64(d):
    """Reference closure in int64, where no sum of stored values can wrap."""
    out = np.array(d, dtype=np.int64)
    for k in range(out.shape[0]):
        np.minimum(out, out[:, k, None] + out[None, k, :], out=out)
    return np.minimum(out, INF_SENTINEL)


def _product_int64(a, b):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return np.minimum((a[:, :, None] + b[None, :, :]).min(axis=1), INF_SENTINEL)


def _near_sentinel(rng, shape):
    """Entries drawn from small values, MAX_WEIGHT, INF-1/INF-2 and INF."""
    pool = np.array(
        [0, 1, 2, 5, MAX_WEIGHT - 1, MAX_WEIGHT, MAX_WEIGHT + 1,
         INF_SENTINEL - 2, INF_SENTINEL - 1, INF_SENTINEL],
        dtype=np.int64,
    )
    return pool[rng.integers(0, pool.size, size=shape)]


def test_closures_are_uint32_and_keep_the_input():
    g = gen_er(30, 0.1, seed=2)
    d = distance_init(g).astype(np.int64)
    before = d.copy()
    out = floyd_warshall_dense(d)
    assert out.dtype == np.uint32
    assert np.array_equal(d, before) and d.dtype == np.int64
    assert floyd_warshall_dense(out) is not out
    # past the threshold the sparse phase also works on its own copy
    big = gen_er(600, 0.008, seed=5)
    for seed in (distance_init(big).astype(np.int64), distance_init(big)):
        kept = seed.copy()
        assert floyd_warshall_dense(seed).dtype == np.uint32
        assert np.array_equal(seed, kept) and seed.dtype == kept.dtype
    assert min_plus_product(d, d).dtype == np.uint32


def test_max_weight_chain_saturates_in_fw():
    # 0 -> 1 -> ... -> 5, every arc MAX_WEIGHT = 2^30 - 1: two arcs sum to
    # INF - 1 (still finite), three or more cross 2^31 - 1 and saturate
    n = 6
    g = WeightedGraph.from_edges(n, [(i, i + 1, MAX_WEIGHT) for i in range(n - 1)])
    out = floyd_warshall_dense(distance_init(g))
    assert out[0, 1] == MAX_WEIGHT
    assert out[0, 2] == 2 * MAX_WEIGHT == INF_SENTINEL - 1
    assert np.all(out[0, 3:] == INF_SENTINEL)
    assert np.all(out[np.tril_indices(n, -1)] == INF_SENTINEL)
    assert np.array_equal(out, dijkstra_oracle(g))


def test_sentinel_plus_sentinel_does_not_wrap():
    # INF + INF = 2^32 - 2 fits in uint32; a wrap would read as a short path
    INF = INF_SENTINEL
    d = np.full((5, 5), INF, dtype=np.int64)
    np.fill_diagonal(d, 0)
    assert np.array_equal(floyd_warshall_dense(d), d)
    a = np.full((3, 4), INF, dtype=np.int64)
    assert np.all(min_plus_product(a, a.T) == INF)
    near = np.array([[INF - 1, INF], [0, 1]], dtype=np.int64)
    assert min_plus_product(near, near).tolist() == [[INF, INF], [1, 2]]


@pytest.mark.parametrize("seed", range(4))
def test_near_sentinel_kernels_match_int64(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 7, 33):
        d = _near_sentinel(rng, (n, n))
        np.fill_diagonal(d, 0)
        assert np.array_equal(floyd_warshall_dense(d), _fw_int64(d))
        a = _near_sentinel(rng, (n, 5))
        b = _near_sentinel(rng, (5, n + 1))
        assert np.array_equal(min_plus_product(a, b), _product_int64(a, b))


def test_out_of_range_int64_inputs_rejected():
    # 2^33 casts to uint32 as 0 and 2^32 + 3 as 3: both must be refused
    # before the cast, not closed as short distances
    for bad in (INF_SENTINEL + 1, 2**32 + 3, 2**33):
        d = np.array([[0, bad], [1, 0]], dtype=np.int64)
        with pytest.raises(BlockShapeError):
            floyd_warshall_dense(d)
        with pytest.raises(BlockShapeError):
            min_plus_product(d, d)
    neg = np.array([[0, -1], [1, 0]], dtype=np.int64)
    with pytest.raises(NegativeEntryError):
        min_plus_product(neg, neg)
    with pytest.raises(BlockShapeError):
        floyd_warshall_dense(np.array([[0, 2**32 - 1], [1, 0]], dtype=np.uint32))


# ---------------------------------------------------------------------------
# The 16-bit closure and its fallback to 32 bits
# ---------------------------------------------------------------------------

S = _NARROW_SENTINEL


def record_widths(monkeypatch) -> list:
    """Log the dtype of every matrix the closure closes, in call order."""
    log = []
    real = minplus._close

    def close(out, sentinel):
        log.append(out.dtype)
        real(out, sentinel)

    monkeypatch.setattr(minplus, "_close", close)
    return log


def _chain(weights) -> WeightedGraph:
    return WeightedGraph.from_edges(
        len(weights) + 1, [(i, i + 1, w) for i, w in enumerate(weights)]
    )


def test_a_chain_crossing_the_narrow_sentinel_falls_back(monkeypatch):
    # 400 arcs of 100 reach 40,000 > S: the narrow entries saturate, so the
    # closure must rerun in 32 bits
    log = record_widths(monkeypatch)
    g = _chain([100] * 400)
    out = floyd_warshall_dense(distance_init(g))
    assert log == [np.uint16, np.uint32]
    assert out[0, 400] == 40_000
    assert np.array_equal(out, dijkstra_oracle(g))


@pytest.mark.parametrize("last, widths", [
    (66, [np.uint16]),              # top + w = 32,666 + 100 = S - 1
    (67, [np.uint16, np.uint32]),   # top + w = 32,667 + 100 = S
])
def test_the_fit_test_is_tight(monkeypatch, last, widths):
    log = record_widths(monkeypatch)
    g = _chain([100] * 326 + [last])
    out = floyd_warshall_dense(distance_init(g))
    assert log == widths
    assert out[0, g.n - 1] == 32_600 + last
    assert np.array_equal(out, dijkstra_oracle(g))
    assert np.all(out[np.tril_indices(g.n, -1)] == INF_SENTINEL)


@pytest.mark.parametrize("w", [S, S + 1, MAX_WEIGHT])
def test_an_arc_of_at_least_the_narrow_sentinel_stays_in_32_bits(monkeypatch, w):
    log = record_widths(monkeypatch)
    g = _chain([1, w, 1])
    out = floyd_warshall_dense(distance_init(g))
    assert log == [np.uint32]
    assert out[0, 3] == w + 2
    assert np.array_equal(out, dijkstra_oracle(g))


def test_the_narrow_path_runs_the_sparse_phase(monkeypatch):
    log = record_widths(monkeypatch)
    g = gen_er(600, 0.008, seed=5)
    assert np.array_equal(floyd_warshall_dense(distance_init(g)), dijkstra_oracle(g))
    assert log == [np.uint16]


def test_inplace_widens_into_the_callers_matrix():
    g = gen_er(600, 0.008, seed=5)
    d = distance_init(g)
    assert floyd_warshall_dense(d, inplace=True) is d
    assert np.array_equal(d, dijkstra_oracle(g))
    chain = distance_init(_chain([100] * 400))
    assert floyd_warshall_dense(chain, inplace=True) is chain
    assert chain[0, 400] == 40_000
    with pytest.raises(BlockShapeError):
        floyd_warshall_dense(d.astype(np.int64), inplace=True)


# finite entries around the narrow sentinel, around the path lengths that
# cross it, and up to the wide sentinel, in increasing order
_NEAR_S = [0, 1, 2, 7, 100, S // 4, S // 3, S // 2 - 1, S // 2, S // 2 + 1,
           S - 2, S - 1, S, S + 1, MAX_WEIGHT, INF_SENTINEL - 1]


@st.composite
def near_sentinel_matrices(draw) -> np.ndarray:
    """A square int64 matrix with a zero diagonal whose off-diagonal cells
    are the sentinel or one of the first few ``_NEAR_S`` values, so that the
    largest arc falls on either side of the narrow sentinel."""
    n = draw(st.integers(1, 12))
    pool = _NEAR_S[: draw(st.integers(1, len(_NEAR_S)))] + [INF_SENTINEL] * 3
    cells = draw(st.lists(st.sampled_from(pool), min_size=n * n, max_size=n * n))
    d = np.array(cells, dtype=np.int64).reshape(n, n)
    np.fill_diagonal(d, 0)
    return d


@settings(max_examples=200, deadline=None)
@given(near_sentinel_matrices())
def test_closure_near_both_sentinels_matches_int64(d):
    want = _fw_int64(d)
    assert np.array_equal(floyd_warshall_dense(d), want)
    wide = d.astype(np.uint32)
    out = floyd_warshall_dense(wide, inplace=True)
    assert out is wide and out.dtype == np.uint32
    assert np.array_equal(out, want)


# ---------------------------------------------------------------------------
# Stacks: a (k, s, s) input closes every matrix in one call
# ---------------------------------------------------------------------------


@st.composite
def near_sentinel_stacks(draw) -> np.ndarray:
    """A ``(k, n, n)`` int64 stack of matrices like those of
    :func:`near_sentinel_matrices`, each drawn from its own pool, so one
    matrix of a stack may fit 16 bits while another does not."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 9))
    mats = []
    for _ in range(k):
        pool = _NEAR_S[: draw(st.integers(1, len(_NEAR_S)))] + [INF_SENTINEL] * 3
        cells = draw(st.lists(st.sampled_from(pool), min_size=n * n, max_size=n * n))
        m = np.array(cells, dtype=np.int64).reshape(n, n)
        np.fill_diagonal(m, 0)
        mats.append(m)
    return np.stack(mats)


@settings(max_examples=200, deadline=None)
@given(near_sentinel_stacks())
def test_a_stack_closes_as_each_of_its_matrices(d):
    want = np.stack([floyd_warshall_dense(m) for m in d])
    kept = d.copy()
    out = floyd_warshall_dense(d)
    assert out.dtype == np.uint32 and out.shape == d.shape
    assert out.tobytes() == want.tobytes()
    assert np.array_equal(d, kept)
    wide = d.astype(np.uint32)
    assert floyd_warshall_dense(wide, inplace=True) is wide
    assert wide.tobytes() == want.tobytes()


def test_a_stack_of_large_matrices_runs_the_sparse_phase_in_place(monkeypatch):
    # matrices past the sparse floor close one at a time, sparse phase
    # included, after one fit test for the whole stack; a strided view of a
    # larger stack is written in place
    log = record_widths(monkeypatch)
    sparse = []
    real = minplus._sparse_pivots

    def pivots(out, sentinel):
        sparse.append(out.shape)
        return real(out, sentinel)

    monkeypatch.setattr(minplus, "_sparse_pivots", pivots)
    graphs = [gen_er(600, 0.008, seed=s) for s in (5, 6)]
    big = np.zeros((3, 600, 600), dtype=np.uint32)
    big[0], big[2] = (distance_init(g) for g in graphs)
    view = big[::2]
    assert floyd_warshall_dense(view, inplace=True) is view
    assert log == [np.uint16] and sparse == [(600, 600)] * 2
    for m, g in zip(big[::2], graphs):
        assert np.array_equal(m, dijkstra_oracle(g))
    assert not big[1].any()


def test_a_stack_that_needs_32_bits_anywhere_closes_wide(monkeypatch):
    # a short-arc chain fits 16 bits alone; stacked with a chain of
    # MAX_WEIGHT arcs and arcs at INF - 2 and INF - 1, the whole stack
    # closes in uint32, and both stay exact and saturate at the sentinel
    log = record_widths(monkeypatch)
    small = distance_init(_chain([1, 2, 3, 4, 5]))
    assert np.array_equal(floyd_warshall_dense(small), _fw_int64(small))
    assert log == [np.uint16]
    large = distance_init(_chain([MAX_WEIGHT] * 5)).astype(np.int64)
    large[5, 0] = INF_SENTINEL - 2
    large[3, 1] = INF_SENTINEL - 1
    log.clear()
    out = floyd_warshall_dense(np.stack([small.astype(np.int64), large]))
    assert log == [np.uint32]
    assert np.array_equal(out[0], _fw_int64(small))
    assert np.array_equal(out[1], _fw_int64(large))
    assert out[1, 0, 2] == INF_SENTINEL - 1 and out[1, 0, 3] == INF_SENTINEL
    assert out[1, 4, 0] == INF_SENTINEL and out[1, 5, 1] == INF_SENTINEL
    assert out.max() == INF_SENTINEL


def test_a_bad_stack_is_refused():
    good = np.zeros((3, 4, 4), dtype=np.int64)
    bad = good.copy()
    bad[1, 2, 2] = 1
    with pytest.raises(BlockShapeError):
        floyd_warshall_dense(bad)
    for shape in ((3, 4, 5), (2, 3, 4, 4)):
        with pytest.raises(BlockShapeError):
            floyd_warshall_dense(np.zeros(shape, dtype=np.int64))
    assert floyd_warshall_dense(good).shape == good.shape


# ---------------------------------------------------------------------------
# The product's accumulate form and its 16-bit path
# ---------------------------------------------------------------------------


def record_product_widths(monkeypatch) -> list:
    """Log the dtype every product computes in, in call order."""
    log = []
    real = minplus._accumulate

    def accumulate(a, b, out, rows, sentinel):
        log.append(a.dtype)
        real(a, b, out, rows, sentinel)

    monkeypatch.setattr(minplus, "_accumulate", accumulate)
    return log


@pytest.mark.parametrize("seed", range(4))
def test_accumulate_matches_int64(seed):
    rng = np.random.default_rng(seed)
    for m, k, n in ((1, 1, 1), (3, 5, 4), (40, 3, 2000), (7, 6, 33)):
        for small in (True, False):
            if small:  # finite entries that fit the 16-bit product
                pool = np.array([0, 1, 7, 300, S // 4, INF_SENTINEL])
                a = pool[rng.integers(0, pool.size, (m, k))]
                b = pool[rng.integers(0, pool.size, (k, n))]
            else:
                a, b = _near_sentinel(rng, (m, k)), _near_sentinel(rng, (k, n))
            start = _near_sentinel(rng, (m, n)).astype(np.uint32)
            want = np.minimum(start, _product_int64(a, b))
            out = start.copy()
            assert min_plus_product(a, b, out=out) is out
            assert np.array_equal(out, want)
            # the same rows scattered through a taller matrix, by row id
            tall = _near_sentinel(rng, (2 * m + 3, n)).astype(np.uint32)
            rows = rng.permutation(tall.shape[0])[:m]
            expect = tall.copy()
            expect[rows] = np.minimum(tall[rows], _product_int64(a, b))
            assert min_plus_product(a, b, out=tall, rows=rows) is tall
            assert np.array_equal(tall, expect)


@pytest.mark.parametrize("wb, width", [
    (S - 1 - 1_000, np.uint16),   # wa + wb = S - 1
    (S - 1_000, np.uint32),       # wa + wb = S
])
def test_the_product_fit_test_is_tight(monkeypatch, wb, width):
    log = record_product_widths(monkeypatch)
    INF = INF_SENTINEL
    a = np.array([[1_000, INF, INF], [INF, 5, 2]], dtype=np.int64)
    b = np.array([[wb, INF, 3], [1, wb, INF], [INF, 4, 0]], dtype=np.int64)
    assert np.array_equal(min_plus_product(a, b), _product_int64(a, b))
    out = np.full((2, 3), 40_000, dtype=np.uint32)
    want = np.minimum(out, _product_int64(a, b))
    assert np.array_equal(min_plus_product(a, b, out=out), want)
    assert log == [width, width]
    assert want[0, 0] == 1_000 + wb


def test_narrow_product_leaves_unbeaten_entries_alone(monkeypatch):
    # every candidate of column 0 has a sentinel term, and column 1's only
    # finite candidate is 9: entries at or above S, and the sentinel, must
    # survive where nothing beats them, though the clamped sums reach S
    log = record_product_widths(monkeypatch)
    INF = INF_SENTINEL
    a = np.array([[0, INF], [INF, 3], [2, 2]], dtype=np.int64)
    b = np.array([[INF, 7], [INF, INF]], dtype=np.int64)
    out = np.array([[S, S + 1], [40_000, 2], [INF, INF]], dtype=np.uint32)
    min_plus_product(a, b, out=out)
    assert log == [np.uint16]
    assert out.tolist() == [[S, 7], [40_000, 2], [INF, 9]]


def test_zero_inner_dimension():
    a = np.zeros((3, 0), dtype=np.uint32)
    b = np.zeros((0, 4), dtype=np.uint32)
    assert np.all(min_plus_product(a, b) == INF_SENTINEL)
    out = np.arange(12, dtype=np.uint32).reshape(3, 4)
    assert np.array_equal(min_plus_product(a, b, out=out.copy()), out)


def test_a_bad_out_matrix_is_refused():
    a = np.ones((2, 3), dtype=np.uint32)
    b = np.ones((3, 4), dtype=np.uint32)
    for out in (
        np.zeros((2, 4), dtype=np.int64),
        np.zeros((2, 4), dtype=np.uint16),
        np.zeros((2, 5), dtype=np.uint32),
        np.zeros((3, 4), dtype=np.uint32),
        np.zeros(8, dtype=np.uint32),
        [[0] * 4] * 2,
    ):
        with pytest.raises(BlockShapeError):
            min_plus_product(a, b, out=out)
    with pytest.raises(BlockShapeError):
        min_plus_product(a, b, out=np.zeros((5, 4), np.uint32), rows=[0, 1, 2])
    with pytest.raises(BlockShapeError):
        min_plus_product(a, b, rows=[0, 1])
