import io

import numpy as np
import pytest

from netspectra import ranking
from netspectra.genmodels import AbParams, ColorParams, generate_ab, generate_color
from netspectra.gmatrix import GoogleMatrix, build_stochastic
from netspectra.netcore import DirectedGraph, FitError
from netspectra.ranking import (
    RankVector,
    decay_exponent,
    fidelity,
    fidelity_grid,
    fidelity_grid_to_csv,
    pagerank,
    pagerank_power,
    par_curve_to_csv,
    par_vs_alpha,
    participation_ratio,
    rank_to_csv,
)

from helpers import (
    complete_graph,
    directed_cycle,
    pagerank_dense_solve,
    rank_limit,
    ring_plus_random,
    sparse_random,
    star_bidirectional,
    two_cycle,
)


def make_rank(values):
    values = np.asarray(values, dtype=float)
    return RankVector(values / values.sum(), alpha=0.85, iterations=0, residual=0.0)


class TestPagerankPower:
    def test_two_cycle_symmetric(self):
        r = pagerank_power(GoogleMatrix.from_graph(two_cycle(), 0.85))
        assert np.allclose(r.values, [0.5, 0.5], atol=1e-13)
        assert r.converged

    def test_complete_graph_uniform(self):
        for alpha in (0.3, 0.85, 0.99):
            r = pagerank_power(GoogleMatrix.from_graph(complete_graph(6), alpha))
            assert np.max(np.abs(r.values - 1 / 6)) <= 1e-13

    def test_directed_cycle_uniform(self):
        r = pagerank_power(GoogleMatrix.from_graph(directed_cycle(3), 0.85))
        assert np.max(np.abs(r.values - 1 / 3)) <= 1e-12

    def test_metadata(self):
        r = pagerank_power(GoogleMatrix.from_graph(sparse_random(50, seed=1), 0.85))
        assert r.converged
        assert 0 < r.iterations < 300
        assert r.residual < 1e-12
        assert abs(r.values.sum() - 1.0) <= 1e-12

    def test_non_convergence_flagged(self):
        r = pagerank_power(
            GoogleMatrix.from_graph(sparse_random(50, seed=2), 0.85), max_iter=2
        )
        assert not r.converged

    def test_converges_within_300_iterations_on_sparse_graphs(self):
        for seed, n in ((0, 1000), (1, 5000), (2, 10000)):
            g = sparse_random(n, seed=seed, lo=2, hi=8)
            r = pagerank_power(GoogleMatrix.from_graph(g, 0.85))
            assert r.converged and r.iterations <= 300

    def test_order_sorted_by_value_then_id(self):
        r = make_rank([0.25, 0.25, 0.5])
        assert r.order.tolist() == [2, 0, 1]


class TestDenseOracle:
    def test_two_cycle(self):
        r = pagerank_dense_solve(GoogleMatrix.from_graph(two_cycle(), 0.85))
        assert np.allclose(r.values, [0.5, 0.5], atol=1e-15)

    def test_star_dominance(self):
        r = pagerank_dense_solve(GoogleMatrix.from_graph(star_bidirectional(4), 0.85))
        assert r.values[0] > r.values[1]
        assert r.values[1] == pytest.approx(r.values[2], abs=1e-14)
        assert r.values[2] == pytest.approx(r.values[3], abs=1e-14)

    def test_matches_power_iteration_on_random_graphs(self):
        for seed in range(20):
            g = sparse_random(100, seed=seed)
            gm = GoogleMatrix.from_graph(g, 0.85)
            power = pagerank_power(gm)
            direct = pagerank_dense_solve(gm)
            assert np.max(np.abs(power.values - direct.values)) <= 1e-10

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            pagerank_dense_solve(GoogleMatrix.from_graph(two_cycle(), 1.0))


class TestPagerankOracles:
    @pytest.mark.parametrize("alpha", [0.85, 0.99])
    def test_matches_networkx(self, alpha):
        nx = pytest.importorskip("networkx")
        graph = generate_ab(AbParams(n_target=3000, seed=21))
        ours = pagerank_power(GoogleMatrix.from_graph(graph, alpha))
        g = nx.DiGraph()
        g.add_nodes_from(range(graph.n_nodes))
        g.add_edges_from(graph.edges.tolist())
        # networkx stops once the L1 change is below n * tol
        ref = nx.pagerank(g, alpha=alpha, tol=1e-17, max_iter=100_000)
        ref = np.array([ref[u] for u in range(graph.n_nodes)])
        assert np.abs(ours.values - ref).sum() <= 1e-9

    @pytest.mark.parametrize("tol", [1e-4, 1e-7, 1e-10])
    @pytest.mark.parametrize("alpha", [0.5, 0.85, 0.99])
    def test_stop_rule_error_bound(self, alpha, tol):
        # a last L1 step below tol leaves the iterate within
        # alpha * tol / (1 - alpha) of the fixed point in L1; closed colour
        # communities give S a degenerate lambda = 1, the slowest case
        graph, _ = generate_color(
            ColorParams(ab=AbParams(n_target=400, seed=2), eta=0.03, epsilon=0.0)
        )
        gm = GoogleMatrix.from_graph(graph, alpha)
        power = pagerank_power(gm, tol=tol)
        error = np.abs(power.values - pagerank_dense_solve(gm).values).sum()
        assert power.converged and power.residual < tol
        assert error <= alpha * power.residual / (1 - alpha) + 1e-12


def closed_classes_graph():
    """Random links from 200 of 300 nodes, plus two closed 3-cycles and a
    page that links only to itself; with one more closed class among the
    random links, S' has a fourfold unit eigenvalue."""
    rng = np.random.default_rng(8)
    edges = [np.column_stack([rng.integers(0, 200, 600), rng.integers(0, 307, 600)])]
    edges.append(np.array([[300, 301], [301, 302], [302, 300], [303, 304], [304, 305], [305, 303], [306, 306]]))
    edges = np.unique(np.concatenate(edges), axis=0)
    return DirectedGraph(n_nodes=307, edges=edges)


ORACLE_GRAPHS = {
    "ab": lambda: generate_ab(AbParams(n_target=400, seed=5)),
    "color_eps0": lambda: generate_color(
        ColorParams(ab=AbParams(n_target=400, seed=2), eta=0.03, epsilon=0.0)
    )[0],
    "dangling_heavy": lambda: sparse_random(400, seed=6, dangling_frac=0.7),
    "closed_classes": closed_classes_graph,
}


# closed classes of period 2 and 3: 0 <-> {1, 2}; {0, 1} and {5, 6, 7}
# with a transient cycle leaking into both; the cycle {0, 1, 2} with
# sources and two dangling nodes
PERIODIC_GRAPHS = {
    "bipartite": DirectedGraph(n_nodes=3, edges=np.array([[0, 1], [0, 2], [1, 0], [2, 0]])),
    "blocks": DirectedGraph(n_nodes=10, edges=np.array(
        [[0, 1], [1, 0], [2, 3], [3, 4], [4, 2], [4, 0], [2, 5], [5, 6], [6, 7], [7, 5], [8, 9]]
    )),
    "repeated": DirectedGraph(n_nodes=10, edges=np.array(
        [[0, 1], [1, 2], [2, 0], [3, 0], [4, 0], [5, 1], [5, 2], [6, 1], [6, 2], [9, 7]]
    )),
}


class TestPagerank:
    @pytest.mark.parametrize("alpha", [0.3, 0.85, 0.99, 0.999])
    @pytest.mark.parametrize("name", list(ORACLE_GRAPHS))
    def test_certificate_bounds_error_against_dense_solve(self, name, alpha):
        gm = GoogleMatrix.from_graph(ORACLE_GRAPHS[name](), alpha)
        tol = 1e-12
        r = pagerank(gm, tol=tol)
        assert r.converged and r.residual <= alpha * tol
        assert r.residual == np.abs(gm.apply(r.values) - r.values).sum()
        error = np.abs(r.values - pagerank_dense_solve(gm).values).sum()
        assert error <= r.residual / (1 - alpha) + 1e-12

    @pytest.mark.parametrize("name", list(PERIODIC_GRAPHS))
    def test_alpha_one_converges_to_the_limit(self, name):
        # power iteration oscillates on these periodic closed classes
        graph = PERIODIC_GRAPHS[name]
        gm = GoogleMatrix.from_graph(graph, 1.0)
        assert not pagerank_power(gm).converged
        r = pagerank(gm)
        assert r.converged and r.residual <= 1e-12
        assert r.residual == np.abs(gm.apply(r.values) - r.values).sum()
        assert np.abs(r.values - rank_limit(graph)).sum() <= 1e-9

    def test_alpha_one_agrees_with_power_iteration_where_it_converges(self):
        graph = sparse_random(60, seed=3)
        gm = GoogleMatrix.from_graph(graph, 1.0)
        r, power = pagerank(gm), pagerank_power(gm)
        assert r.converged and power.converged
        assert np.abs(r.values - power.values).sum() <= 1e-11
        assert np.abs(r.values - rank_limit(graph)).sum() <= 1e-9

    @pytest.mark.parametrize("n", [5, 6, 7, 13])
    def test_uniform_start_certified_at_once(self, n):
        # alpha = 0 on any graph, and K_n at any alpha, have the uniform
        # fixed point; 6, 7 and 13 copies of 1/n do not sum to exactly 1
        for gm in (
            GoogleMatrix.from_graph(sparse_random(n, seed=n), 0.0),
            GoogleMatrix.from_graph(complete_graph(n), 0.85),
        ):
            r = pagerank(gm)
            assert r.converged and r.iterations == 1
            assert np.all(r.values == r.values[0])
            assert abs(r.values[0] - 1 / n) <= np.spacing(1 / n)

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 5])
    def test_budget_exhausted_flags_non_convergence(self, max_iter):
        for alpha in (0.99, 1.0):
            gm = GoogleMatrix.from_graph(sparse_random(300, seed=2), alpha)
            r = pagerank(gm, max_iter=max_iter)
            assert not r.converged and r.iterations <= max_iter
            assert r.residual == np.abs(gm.apply(r.values) - r.values).sum()

    @pytest.mark.parametrize("failure", ["no_step", "nan"])
    def test_failed_sweep_falls_back_to_power_steps(self, failure, monkeypatch):
        # a sweep that takes no step, or leaves nan, must not stop the solve
        def broken(g, x, r, stop, budget):
            return (x, 0) if failure == "no_step" else (np.full_like(x, np.nan), 2)

        monkeypatch.setattr(ranking, "_bicgstab", broken)
        gm = GoogleMatrix.from_graph(sparse_random(200, seed=4), 0.85)
        r = pagerank(gm)
        assert r.converged and r.residual <= 0.85 * 1e-12
        assert np.abs(r.values - pagerank_dense_solve(gm).values).sum() <= 1e-11

    def test_far_fewer_matvecs_than_power_on_gapless_graph(self):
        # the colour model at epsilon = 0 has lambda_2 = alpha
        graph, _ = generate_color(
            ColorParams(ab=AbParams(n_target=2000, seed=3), eta=0.02, epsilon=0.0)
        )
        gm = GoogleMatrix.from_graph(graph, 0.99)
        r, power = pagerank(gm), pagerank_power(gm)
        assert r.converged and power.converged
        assert r.iterations < power.iterations / 4

    @pytest.mark.parametrize("solver", [pagerank, pagerank_power])
    @pytest.mark.parametrize("alpha", [0.85, 1.0])
    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_rejects_budget_below_one(self, solver, alpha, max_iter):
        # no application means no residual, only an infinite placeholder
        gm = GoogleMatrix.from_graph(sparse_random(20, seed=1), alpha)
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            solver(gm, max_iter=max_iter)

    @pytest.mark.parametrize("solver", [pagerank, pagerank_power])
    @pytest.mark.parametrize("alpha", [0.85, 1.0])
    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, 0.0])
    def test_rejects_tol_out_of_domain(self, solver, alpha, tol):
        # a nonpositive tol used to fall back silently on the rounding floor
        gm = GoogleMatrix.from_graph(sparse_random(20, seed=1), alpha)
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            solver(gm, tol=tol)

    def test_rank_vector_rejects_nan(self):
        with pytest.raises(ValueError):
            RankVector(np.array([np.nan, 1.0]), alpha=0.85, iterations=0, residual=0.0)


class TestParticipationRatio:
    def test_uniform(self):
        assert participation_ratio(np.full(37, 1 / 37)) == pytest.approx(37.0)

    def test_single_entry(self):
        v = np.zeros(10)
        v[4] = 3.0
        assert participation_ratio(v) == pytest.approx(1.0)

    def test_two_equal_entries(self):
        assert participation_ratio(np.array([1.0, 1.0, 0.0]) / np.sqrt(2)) == pytest.approx(2.0)

    def test_complex_vector(self):
        assert participation_ratio(np.array([1j, -1j])) == pytest.approx(2.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        v = rng.random(64) + 1j * rng.random(64)
        base = participation_ratio(v)
        for _ in range(20):
            c = (rng.random() - 0.5) * 10 + 1j * (rng.random() - 0.5) * 10
            if abs(c) < 1e-3:
                continue
            assert participation_ratio(c * v) == pytest.approx(base, rel=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            v = rng.standard_normal(40)
            xi = participation_ratio(v)
            assert 1.0 <= xi <= 40.0 + 1e-9

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            participation_ratio(np.zeros(4))


class TestParVsAlpha:
    def test_complete_graph_constant(self):
        pts = par_vs_alpha(complete_graph(5), [0.2, 0.5, 0.85])
        for p in pts:
            assert p.xi == pytest.approx(5.0, abs=1e-9)
            assert p.converged

    def test_two_cycle_constant(self):
        pts = par_vs_alpha(two_cycle(), [0.3, 0.85])
        assert all(p.xi == pytest.approx(2.0, abs=1e-12) for p in pts)

    def test_small_alpha_delocalizes_to_full_size(self):
        g = ring_plus_random(400, seed=3)
        (pt,) = par_vs_alpha(g, [0.001])
        assert pt.xi >= 0.99 * 400

    def test_alpha_range_validated(self):
        with pytest.raises(ValueError):
            par_vs_alpha(two_cycle(), [0.0])


class TestDecayExponent:
    def test_synthetic_power_law(self):
        j = np.arange(1, 201)
        r = make_rank(j ** -0.9)
        assert decay_exponent(r, (10, 200)) == pytest.approx(0.9, abs=1e-6)

    def test_uniform_gives_zero(self):
        r = make_rank(np.ones(200))
        assert decay_exponent(r) == pytest.approx(0.0, abs=1e-9)

    def test_default_window(self):
        j = np.arange(1, 501)
        r = make_rank(j ** -1.0)
        assert decay_exponent(r) == pytest.approx(1.0, abs=1e-6)

    def test_insufficient_range(self):
        r = make_rank(np.ones(20))
        with pytest.raises(FitError):
            decay_exponent(r, (1, 5))


class TestFidelity:
    def test_self_fidelity_is_one(self):
        r = make_rank(np.random.default_rng(0).random(50))
        assert fidelity(r, r) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_support(self):
        a = make_rank([1.0, 0.0])
        b = make_rank([0.0, 1.0])
        assert fidelity(a, b) == 0.0

    def test_analytic_half(self):
        a = make_rank([1.0, 0.0])
        b = make_rank([1.0, 1.0])
        assert fidelity(a, b) == pytest.approx(0.5, abs=1e-15)

    def test_symmetric_bitwise(self):
        rng = np.random.default_rng(1)
        a = make_rank(rng.random(64))
        b = make_rank(rng.random(64))
        assert fidelity(a, b) == fidelity(b, a)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        va, vb = rng.random(32), rng.random(32)
        perm = rng.permutation(32)
        f1 = fidelity(make_rank(va), make_rank(vb))
        f2 = fidelity(make_rank(va[perm]), make_rank(vb[perm]))
        assert f1 == pytest.approx(f2, abs=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(make_rank([1.0, 1.0]), make_rank([1.0, 1.0, 1.0]))


class TestFidelityGrid:
    def test_diagonal_symmetry_range(self):
        g = sparse_random(80, seed=4)
        grid = fidelity_grid(g, [0.3, 0.5, 0.85])
        assert np.allclose(np.diag(grid.f), 1.0, atol=1e-12)
        assert np.array_equal(grid.f, grid.f.T)
        assert grid.f.min() >= 0.0 and grid.f.max() <= 1.0

    def test_complete_graph_all_ones(self):
        grid = fidelity_grid(complete_graph(5), [0.2, 0.5, 0.8])
        assert np.allclose(grid.f, 1.0, atol=1e-12)


class TestCsv:
    def test_rank_csv(self):
        r = make_rank([0.5, 0.25, 0.25])
        buf = io.StringIO()
        rank_to_csv(r, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "node_id,score,rank_position"
        assert lines[1].startswith("0,0.5,1")
        assert lines[2].endswith(",2")

    def test_par_curve_csv(self):
        pts = par_vs_alpha(two_cycle(), [0.5])
        buf = io.StringIO()
        par_curve_to_csv(pts, buf)
        assert buf.getvalue().splitlines()[0] == "alpha,xi"

    def test_grid_csv_header_row_and_column(self):
        grid = fidelity_grid(complete_graph(4), [0.3, 0.7])
        buf = io.StringIO()
        fidelity_grid_to_csv(grid, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "alpha,0.29999999999999999,0.69999999999999996"
        assert lines[1].startswith("0.29999999999999999,")
