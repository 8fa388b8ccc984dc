import numpy as np
import pytest

from netspectra.gmatrix import (
    GoogleMatrix,
    StochasticMatrix,
    build_stochastic,
    scc_order,
    truncate_by_rank,
)
from netspectra.netcore import DirectedGraph
from netspectra.ranking import pagerank_power
from netspectra.spectra import operator_spectrum

from helpers import (
    leaky_pairs,
    random_small_graph,
    ring_plus_random,
    sparse_random,
    strong_components,
    two_cycle,
)


class TestBuildStochastic:
    def test_two_cycle(self):
        s = build_stochastic(two_cycle())
        assert np.allclose(s.matrix.toarray(), [[0, 1], [1, 0]])
        assert s.n_dangling == 0

    def test_dangling_column_flagged_and_empty(self):
        g = DirectedGraph(n_nodes=2, edges=np.array([[0, 1]]))
        s = build_stochastic(g)
        assert s.dangling.tolist() == [False, True]
        dense = s.matrix.toarray()
        assert dense[:, 1].tolist() == [0.0, 0.0]
        assert dense[1, 0] == 1.0

    def test_multiplicity_weighting(self):
        g = DirectedGraph(
            n_nodes=3,
            edges=np.array([[0, 1], [0, 1], [0, 2]]),
            multi_edges_allowed=True,
        )
        s = build_stochastic(g)
        col = s.matrix.toarray()[:, 0]
        assert col[1] == pytest.approx(2 / 3, abs=1e-15)
        assert col[2] == pytest.approx(1 / 3, abs=1e-15)

    def test_column_sums_tight(self):
        g = sparse_random(200, seed=1)
        s = build_stochastic(g)
        sums = np.asarray(s.matrix.sum(axis=0)).ravel()
        assert np.all(np.abs(sums[~s.dangling] - 1.0) <= 1e-12)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            build_stochastic(DirectedGraph(n_nodes=0, edges=np.zeros((0, 2))))

    def test_constructor_validates_dangling_columns(self):
        from scipy import sparse

        mat = sparse.csc_matrix(np.array([[0.0, 0.5], [1.0, 0.5]]))
        with pytest.raises(ValueError):
            StochasticMatrix(mat, [False, True])

    def test_constructor_validates_column_sums(self):
        from scipy import sparse

        mat = sparse.csc_matrix(np.array([[0.0, 0.0], [0.9, 0.0]]))
        with pytest.raises(ValueError):
            StochasticMatrix(mat, [False, True])

    def test_constructor_rejects_a_non_square_matrix(self):
        from scipy import sparse

        with pytest.raises(ValueError, match="must be square"):
            StochasticMatrix(sparse.csc_matrix(np.ones((2, 3)) / 2), [False, False, False])

    @pytest.mark.parametrize(
        "column",
        [[-0.5, 1.5], [np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0]],
        ids=["negative", "nan", "inf", "-inf"],
    )
    def test_constructor_rejects_negative_and_non_finite_entries(self, column):
        # the negative column still sums to 1, and nan fails every comparison
        from scipy import sparse

        mat = sparse.csc_matrix(np.column_stack([column, [1.0, 0.0]]))
        with pytest.raises(ValueError, match="nonnegative and finite"):
            StochasticMatrix(mat, [False, False])


class TestApply:
    def test_alpha_zero_gives_uniform(self):
        g = GoogleMatrix.from_graph(sparse_random(10, seed=2), alpha=0.0)
        v = np.zeros(10)
        v[3] = 1.0
        assert np.allclose(g.apply(v), np.full(10, 0.1), atol=1e-15)

    def test_alpha_one_two_cycle(self):
        g = GoogleMatrix.from_graph(two_cycle(), alpha=1.0)
        assert np.allclose(g.apply([1.0, 0.0]), [0.0, 1.0], atol=1e-15)

    def test_hand_value(self):
        g = GoogleMatrix.from_graph(two_cycle(), alpha=0.85)
        assert np.allclose(g.apply([1.0, 0.0]), [0.075, 0.925], atol=1e-15)

    def test_dimension_mismatch(self):
        g = GoogleMatrix.from_graph(two_cycle(), alpha=0.85)
        with pytest.raises(ValueError):
            g.apply([1.0, 0.0, 0.0])

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            GoogleMatrix.from_graph(two_cycle(), alpha=1.5)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.85, 1.0])
    def test_sum_preserved(self, alpha):
        rng = np.random.default_rng(7)
        g = GoogleMatrix.from_graph(sparse_random(150, seed=3), alpha=alpha)
        for _ in range(10):
            v = rng.random(150)
            assert abs(g.apply(v).sum() - v.sum()) <= 1e-12 * max(1.0, v.sum())

    @pytest.mark.parametrize("alpha", [0.0, 0.85, 1.0])
    def test_bitwise_the_boolean_mask_formula(self, alpha):
        # the dangling mass is gathered by index, in the order a boolean
        # mask gathers it, so every rank file keeps its bytes
        rng = np.random.default_rng(5)
        g = GoogleMatrix.from_graph(sparse_random(200, seed=4), alpha=alpha)
        assert g.s.n_dangling > 0
        for _ in range(5):
            v = rng.random(200)
            mass = float(v[g.s.dangling].sum())
            shift = (alpha * mass + (1.0 - alpha) * float(v.sum())) / 200
            assert g.apply(v).tobytes() == (alpha * (g.s.matrix @ v) + shift).tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.85, 1.0])
    def test_block_is_each_column_applied(self, alpha):
        # the residual check's block product; a single vector keeps the
        # bits above, which the rank certificate and pagerank.csv rest on
        rng = np.random.default_rng(6)
        g = GoogleMatrix.from_graph(sparse_random(200, seed=4), alpha=alpha)
        block = rng.random((200, 7))
        columns = np.column_stack([g.apply(v) for v in block.T])
        np.testing.assert_allclose(g.apply(block), columns, rtol=1e-14, atol=0)
        np.testing.assert_allclose(g.apply(np.asfortranarray(block)), columns, rtol=1e-14, atol=0)
        with pytest.raises(ValueError, match=r"expected \(200,\) or \(200, k\)"):
            g.apply(rng.random((200, 2, 2)))

    def test_agrees_with_dense_on_random_vectors(self):
        rng = np.random.default_rng(11)
        for seed, n in ((0, 37), (1, 120), (2, 500)):
            g = GoogleMatrix.from_graph(sparse_random(n, seed=seed), alpha=0.85)
            dense = g.to_dense()
            for _ in range(34):
                v = rng.random(n)
                assert np.max(np.abs(g.apply(v) - dense @ v)) <= 1e-12


class TestDense:
    def test_two_cycle_alpha_one(self):
        g = GoogleMatrix.from_graph(two_cycle(), alpha=1.0)
        assert np.array_equal(g.to_dense(), np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_alpha_zero_uniform(self):
        g = GoogleMatrix.from_graph(sparse_random(8, seed=5), alpha=0.0)
        assert np.allclose(g.to_dense(), np.full((8, 8), 1 / 8), atol=1e-16)

    def test_hand_value(self):
        g = GoogleMatrix.from_graph(two_cycle(), alpha=0.85)
        assert np.allclose(
            g.to_dense(), [[0.075, 0.925], [0.925, 0.075]], atol=1e-15
        )

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.85, 1.0])
    def test_columns_stochastic_for_every_alpha(self, alpha):
        g = GoogleMatrix.from_graph(sparse_random(90, seed=6), alpha=alpha)
        sums = g.to_dense().sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12


def scc_cases():
    return {
        "leaky pairs": leaky_pairs(),
        "two cycle": two_cycle(),
        "single node": DirectedGraph(n_nodes=1, edges=np.zeros((0, 2), dtype=np.int64)),
        "strongly connected": ring_plus_random(60, seed=3),
        "with dangling nodes": sparse_random(80, seed=12, lo=1, hi=2, dangling_frac=0.1),
        "no dangling nodes": sparse_random(80, seed=13, lo=1, hi=2, dangling_frac=0.0),
        **{f"random small {seed}": random_small_graph(seed) for seed in range(40)},
    }


class TestSccOrder:
    """The block order of S against networkx's components, with each
    dangling node expanded into links to every node."""

    @pytest.mark.parametrize("name", list(scc_cases()))
    def test_partition_matches_networkx(self, name):
        graph = scc_cases()[name]
        s = build_stochastic(graph)
        order = scc_order(s)
        assert np.array_equal(np.sort(order), np.arange(graph.n_nodes))
        components = strong_components(graph)
        if len(components) == 1:  # a strongly connected graph keeps its own order
            assert np.array_equal(order, np.arange(graph.n_nodes))
        # the solver counts the diagonal blocks of S in this order: one per
        # component, and closed where no link leaves it; a dangling node
        # links to every node, so only a component holding every node can
        # be closed with one inside
        dangling = set(np.flatnonzero(graph.out_degrees() == 0).tolist())
        leaving = [
            (c & dangling and len(c) < graph.n_nodes)
            or any(a in c and b not in c for a, b in graph.edges.tolist())
            for c in components
        ]
        spec = operator_spectrum(GoogleMatrix(s, 1.0))
        assert (spec.blocks, spec.closed) == (len(components), leaving.count(False))
        # each component is one contiguous run of the order, nodes ascending
        position = np.empty(graph.n_nodes, dtype=np.int64)
        position[order] = np.arange(graph.n_nodes)
        for c in components:
            at = np.sort(position[list(c)])
            assert at[-1] - at[0] == len(c) - 1, name
            assert np.array_equal(order[at], np.sort(list(c))), name

    @pytest.mark.parametrize("name", list(scc_cases()))
    def test_zero_below_the_diagonal_blocks(self, name):
        graph = scc_cases()[name]
        g = GoogleMatrix.from_graph(graph, 1.0)
        order = scc_order(g.s)
        label = {v: k for k, c in enumerate(strong_components(graph)) for v in c}
        block = np.array([label[v] for v in order.tolist()])
        dense = g.to_dense()[np.ix_(order, order)]
        below = np.tril(np.ones(dense.shape, dtype=bool), -1) & (block[:, None] != block)
        assert np.all(dense[below] == 0.0)

    def test_components_in_the_order_tarjan_completes_them(self):
        # closed {2} and {1}; 0 -> 2.  The search from 0 completes {2}, then
        # {0}, then starts again from 1; taking the closed components first,
        # smallest node first, would give [1, 2, 0]
        graph = DirectedGraph(n_nodes=3, edges=np.array([[0, 2], [2, 2], [1, 1]]))
        assert scc_order(build_stochastic(graph)).tolist() == [2, 0, 1]
        spec = operator_spectrum(GoogleMatrix.from_graph(graph, 1.0))
        assert (spec.blocks, spec.closed) == (3, 2)

    def test_dangling_component_goes_last(self):
        # 0 -> 1 with 1 dangling: {0, 1} links to every node; {2, 3} is closed
        graph = DirectedGraph(n_nodes=4, edges=np.array([[0, 1], [2, 3], [3, 2]]))
        assert scc_order(build_stochastic(graph)).tolist() == [2, 3, 0, 1]
        spec = operator_spectrum(GoogleMatrix.from_graph(graph, 1.0))
        assert (spec.blocks, spec.closed) == (2, 1)
        # {0, 1} closed, then {2, 3, 4}: already in order
        assert scc_order(build_stochastic(leaky_pairs())).tolist() == [0, 1, 2, 3, 4]
        spec = operator_spectrum(GoogleMatrix.from_graph(leaky_pairs(), 1.0))
        assert (spec.blocks, spec.closed) == (2, 1)


class TestTruncateByRank:
    def test_full_size_keeps_operator(self):
        g = GoogleMatrix.from_graph(ring_plus_random(30, seed=1), alpha=0.85)
        rank = pagerank_power(g)
        truncated, kept = truncate_by_rank(g, rank, 30)
        assert kept.tolist() == list(range(30))
        assert np.max(np.abs(truncated.to_dense() - g.to_dense())) <= 1e-14

    def test_single_node(self):
        g = GoogleMatrix.from_graph(two_cycle(), alpha=0.85)
        rank = pagerank_power(g)
        truncated, kept = truncate_by_rank(g, rank, 1)
        assert truncated.to_dense().tolist() == [[1.0]]

    def test_pendant_restriction_recovers_two_cycle(self):
        g = DirectedGraph(n_nodes=3, edges=np.array([[0, 1], [1, 0], [2, 0]]))
        gm = GoogleMatrix.from_graph(g, alpha=0.85)
        rank = pagerank_power(gm)
        assert set(rank.order[:2].tolist()) == {0, 1}
        truncated, kept = truncate_by_rank(gm, rank, 2)
        assert kept.tolist() == [0, 1]
        expected = GoogleMatrix.from_graph(two_cycle(), alpha=0.85).to_dense()
        assert np.max(np.abs(truncated.to_dense() - expected)) <= 1e-15

    def test_truncated_operator_is_stochastic(self):
        g = GoogleMatrix.from_graph(sparse_random(60, seed=8), alpha=0.85)
        rank = pagerank_power(g)
        for m in (60, 31, 7, 2):
            truncated, kept = truncate_by_rank(g, rank, m)
            dense = truncated.to_dense()
            assert dense.shape == (m, m)
            assert np.max(np.abs(dense.sum(axis=0) - 1.0)) <= 1e-12

    def test_rank_ties_break_toward_lower_ids(self):
        from helpers import complete_graph

        g = GoogleMatrix.from_graph(complete_graph(4), alpha=0.85)
        rank = pagerank_power(g)  # uniform scores: pure tie
        _, kept = truncate_by_rank(g, rank, 2)
        assert kept.tolist() == [0, 1]

    def test_m_out_of_range(self):
        g = GoogleMatrix.from_graph(two_cycle(), alpha=0.85)
        rank = pagerank_power(g)
        for m in (0, 3):
            with pytest.raises(ValueError):
                truncate_by_rank(g, rank, m)
