import random

import numpy as np
import pytest

from netspectra.genmodels import (
    _MAX_DRAW_RETRIES,
    AbParams,
    AlParams,
    ColorParams,
    _PrefSampler,
    generate_ab,
    generate_al,
    generate_color,
)
from netspectra.netcore import DirectedGraph, degree_distribution, fit_loglog_slope

# frozen outputs of the growth processes for fixed seeds; these pin the
# exact drawing order so refactors cannot silently change the streams
GOLDEN_AB_N5 = [[0, 1], [1, 0], [2, 0], [3, 1], [4, 0]]
GOLDEN_AL_N5 = [
    [0, 1], [0, 2], [0, 3],
    [1, 0], [1, 2], [1, 3],
    [2, 0], [2, 1], [2, 3],
    [3, 0], [3, 1], [3, 2],
    [4, 0], [4, 0], [4, 2],
]


class TestAbModel:
    def test_golden_edge_list(self):
        g = generate_ab(AbParams(n_target=5, m=1, p=0.2, q=0.1, seed=42))
        assert g.edges.tolist() == GOLDEN_AB_N5

    def test_reproducible(self):
        params = AbParams(n_target=300, seed=5)
        assert generate_ab(params) == generate_ab(params)

    def test_node_count_exact(self):
        for n in (6, 63, 200):
            assert generate_ab(AbParams(n_target=n, seed=1)).n_nodes == n

    def test_pure_growth_is_tree_like(self):
        g = generate_ab(AbParams(n_target=40, m=1, p=0.0, q=0.0, seed=3))
        out = g.out_degrees()
        assert np.all(out[2:] == 1)  # every non-seed node emits one link

    def test_simple_graph_no_self_loops(self):
        g = generate_ab(AbParams(n_target=200, seed=9))
        assert not g.multi_edges_allowed
        assert all(s != t for s, t in g.edges)

    def test_mean_degree_matches_growth_accounting(self):
        # links arrive at rate m(1-q) per event, nodes at rate 1-p-q
        params = AbParams(n_target=4096, m=5, p=0.2, q=0.1, seed=11)
        g = generate_ab(params)
        expected = params.m * (1 - params.q) / (1 - params.p - params.q)
        assert g.n_edges / g.n_nodes == pytest.approx(expected, rel=0.05)

    def test_cumulative_indegree_slope_near_inverse_law(self):
        # q=0.1, N=2^14, 80-seed ensemble; mid-range slope of the cumulative
        # in-degree distribution vs the -1 guide line, tolerance +-0.3
        n = 2**14
        acc = np.zeros(1, dtype=np.int64)
        for seed in range(80):
            g = generate_ab(AbParams(n_target=n, m=5, p=0.2, q=0.1, seed=seed))
            b = np.bincount(g.in_degrees())
            if len(b) > len(acc):
                b[: len(acc)] += acc
                acc = b
            else:
                acc[: len(b)] += b
        tail = np.cumsum(acc[::-1])[::-1] / (80 * n)
        ks = np.arange(3, 101)
        slope = np.polyfit(np.log10(ks), np.log10(tail[ks]), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.3)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AbParams(n_target=10, p=0.6, q=0.5)
        with pytest.raises(ValueError):
            AbParams(n_target=10, m=0)
        with pytest.raises(ValueError):
            AbParams(n_target=3, m=5)

    @pytest.mark.parametrize("name", ["p", "q"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_probabilities_out_of_domain(self, name, value):
        with pytest.raises(ValueError, match=f"{name}={value}"):
            AbParams(n_target=10, **{name: value})


class TestColorModel:
    def test_epsilon_zero_has_no_cross_color_edges(self):
        for seed in range(5):
            g, colors = generate_color(
                ColorParams(ab=AbParams(n_target=256, seed=seed), epsilon=0.0)
            )
            assert all(colors[s] == colors[t] for s, t in g.edges)

    def test_epsilon_zero_block_diagonal_after_sorting(self):
        from netspectra.gmatrix import build_stochastic

        g, colors = generate_color(
            ColorParams(ab=AbParams(n_target=128, seed=2), epsilon=0.0)
        )
        order = np.argsort(colors, kind="stable")
        s = build_stochastic(g)
        dense = s.matrix.toarray()[np.ix_(order, order)]
        sorted_colors = colors[order]
        outside = dense[sorted_colors[:, None] != sorted_colors[None, :]]
        assert np.all(outside == 0.0)

    def test_colors_partition_nodes(self):
        g, colors = generate_color(
            ColorParams(ab=AbParams(n_target=300, seed=4), eta=0.05, epsilon=0.5)
        )
        assert colors.shape == (300,)
        assert colors.min() >= 0

    def test_reference_parameters_color_count(self):
        # N=2^13, p=0.2, q=0.1, eta=1e-2, epsilon=1e-3: expect on the order
        # of 80 colors (3 + one per eta-event)
        for seed in range(3):
            g, colors = generate_color(
                ColorParams(
                    ab=AbParams(n_target=2**13, m=5, p=0.2, q=0.1, seed=seed),
                    eta=1e-2,
                    epsilon=1e-3,
                )
            )
            n_colors = np.unique(colors).size
            assert 40 <= n_colors <= 160

    def test_golden_small_instance(self):
        g, colors = generate_color(
            ColorParams(
                ab=AbParams(n_target=6, m=1, p=0.1, q=0.1, seed=7),
                eta=0.5,
                epsilon=1.0,
            )
        )
        assert g.edges.tolist() == [
            [0, 1], [1, 0], [2, 0], [0, 2], [3, 0], [0, 3], [4, 3], [5, 3]
        ]
        assert colors.tolist() == [0, 1, 3, 1, 1, 4]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ColorParams(ab=AbParams(n_target=10), eta=1.5)
        with pytest.raises(ValueError):
            ColorParams(ab=AbParams(n_target=10), initial_colors=0)


class TestAlModel:
    def test_golden_edge_list(self):
        g = generate_al(AlParams(n_target=5, m=3, seed=42))
        assert g.edges.tolist() == GOLDEN_AL_N5
        assert g.multi_edges_allowed

    def test_out_degree_exactly_m_with_multiplicity(self):
        g = generate_al(AlParams(n_target=500, m=5, seed=6))
        out = g.out_degrees()
        assert np.all(out[6:] == 5)  # non-seed nodes
        assert np.all(out[:6] == 5)  # seed clique links to its m peers

    def test_multiplicities_retained(self):
        g = generate_al(AlParams(n_target=2000, m=5, seed=8))
        pairs = {}
        for s, t in map(tuple, g.edges):
            pairs[(s, t)] = pairs.get((s, t), 0) + 1
        assert max(pairs.values()) >= 2  # repeats exist at this size

    def test_reproducible(self):
        params = AlParams(n_target=400, m=4, seed=12)
        assert generate_al(params) == generate_al(params)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AlParams(n_target=3, m=5)


class TestPrefSampler:
    def test_descent_is_searchsorted_right(self):
        rng = np.random.default_rng(3)
        for size in (1, 2, 3, 7, 8, 9, 100):
            weights = rng.integers(0, 4, size)
            weights[rng.integers(size)] += 1  # a positive total
            cum = np.cumsum(weights)
            for r in range(int(cum[-1])):
                pref = _PrefSampler(size, lambda k: r)
                for i, w in enumerate(weights.tolist()):
                    pref.add(i, w)
                pref.commit()
                assert pref.draw() == np.searchsorted(cum, r, side="right")

    def test_added_weight_waits_for_commit(self):
        pref = _PrefSampler(4, lambda k: 1)
        pref.add(0, 1)
        pref.add(1, 1)
        pref.commit()
        pref.add(0, 5)
        assert (pref.total, pref.draw()) == (2, 1)
        pref.commit()
        assert (pref.total, pref.draw()) == (7, 0)


def _ab_cases(*cases):
    # each id ends in the fixed rules as the engine first named them: no
    # self-loops (False) and a bidirectional seed clique (True)
    return [pytest.param(*c, id="-".join(map(str, c)) + "-False-True") for c in cases]


class TestMatchesReference:
    """Every seeded output equals that of the generators as first written."""

    @pytest.mark.parametrize("seed", [0, 9])
    @pytest.mark.parametrize(
        "m,p,q", _ab_cases((1, 0.2, 0.1), (2, 0.0, 0.0), (3, 0.45, 0.45), (5, 0.2, 0.1), (2, 0.0, 0.7))
    )
    def test_ab(self, m, p, q, seed):
        params = AbParams(n_target=150, m=m, p=p, q=q, seed=seed)
        edges, _ = reference_grow(params, random.Random(seed))
        assert generate_ab(params).edges.tolist() == [list(e) for e in edges]

    @pytest.mark.parametrize("seed", [1, 4])
    @pytest.mark.parametrize(
        "eta,epsilon,initial_colors", [(1e-2, 1e-3, 3), (0.3, 0.0, 1), (1.0, 1.0, 2), (0.0, 0.5, 4)]
    )
    @pytest.mark.parametrize("m,p,q", _ab_cases((1, 0.2, 0.1), (3, 0.3, 0.5)))
    def test_color(self, m, p, q, eta, epsilon, initial_colors, seed):
        ab = AbParams(n_target=150, m=m, p=p, q=q, seed=seed)
        edges, colors = reference_grow(ab, random.Random(seed), (eta, epsilon, initial_colors))
        g, got_colors = generate_color(ColorParams(ab, eta, epsilon, initial_colors))
        assert g.edges.tolist() == [list(e) for e in edges]
        assert got_colors.tolist() == colors.tolist()

    @pytest.mark.parametrize("seed", [0, 5, 2**70])
    @pytest.mark.parametrize("m,n_target", [(1, 2), (1, 300), (3, 300), (8, 200)])
    def test_al(self, m, n_target, seed):
        params = AlParams(n_target=n_target, m=m, seed=seed)
        assert generate_al(params) == reference_generate_al(params)


def reference_grow(params: AbParams, rng, color_cfg=None):
    """The growth engine as first written (``randrange`` draws, a ``cumsum``
    rebuilt per event), kept as the oracle for ``genmodels._grow``; returns
    (edge list, colors or None).

    ``color_cfg`` is a (eta, epsilon, initial_colors) triple; when present,
    every candidate link is passed through the color rule (cross-color links
    kept with probability epsilon, never redrawn when omitted).  The seed
    clique is bidirectional and self-loops are redrawn.
    """
    m = params.m
    n_seed = m + 1
    edges: list[tuple[int, int]] = []
    present: set[tuple[int, int]] = set()
    # preferential weight per node = in-degree + 1
    weight = np.zeros(params.n_target, dtype=np.int64)
    weight[:n_seed] = 1

    colors = None
    n_colors = 0
    if color_cfg is not None:
        eta, epsilon, initial_colors = color_cfg
        colors = np.zeros(params.n_target, dtype=np.int64)
        n_colors = initial_colors
        for i in range(n_seed):
            colors[i] = i % initial_colors

    def keep_link(src, tgt):
        if colors is None or colors[src] == colors[tgt]:
            return True
        return rng.random() < epsilon

    def add_edge(src, tgt):
        edges.append((src, tgt))
        present.add((src, tgt))
        weight[tgt] += 1

    for i in range(n_seed):
        for j in range(n_seed):
            if i != j and keep_link(i, j):
                add_edge(i, j)

    n_now = n_seed
    while n_now < params.n_target:
        cum = np.cumsum(weight[:n_now])
        total = int(cum[-1])

        def draw_target():
            return int(np.searchsorted(cum, rng.randrange(total), side="right"))

        u = rng.random()
        if u < params.p:
            # add m links from uniform sources to preferential targets
            for _ in range(m):
                for _ in range(_MAX_DRAW_RETRIES):
                    src = rng.randrange(n_now)
                    tgt = draw_target()
                    if src == tgt:
                        continue
                    if (src, tgt) in present:
                        continue
                    if keep_link(src, tgt):
                        add_edge(src, tgt)
                    break
        elif u < params.p + params.q:
            # re-target the head of m uniformly chosen existing links
            for _ in range(m):
                if not edges:
                    break
                for _ in range(_MAX_DRAW_RETRIES):
                    e_idx = rng.randrange(len(edges))
                    src, old_tgt = edges[e_idx]
                    tgt = draw_target()
                    if src == tgt:
                        continue
                    if (src, tgt) in present:
                        continue
                    if keep_link(src, tgt):
                        present.discard((src, old_tgt))
                        weight[old_tgt] -= 1
                        edges[e_idx] = (src, tgt)
                        present.add((src, tgt))
                        weight[tgt] += 1
                    break
        else:
            # new node with m outgoing links
            node = n_now
            if colors is not None:
                if rng.random() < eta:
                    colors[node] = n_colors
                    n_colors += 1
                else:
                    colors[node] = colors[rng.randrange(n_now)]
            for _ in range(m):
                for _ in range(_MAX_DRAW_RETRIES):
                    tgt = draw_target()
                    if (node, tgt) in present:
                        continue
                    if keep_link(node, tgt):
                        add_edge(node, tgt)
                    break
            weight[node] = 1
            n_now += 1

    return edges, colors


def reference_generate_al(params: AlParams) -> DirectedGraph:
    """``generate_al`` as first written, kept as its oracle.

    Multigraph growth: every non-seed node has out-degree exactly ``m``
    counting multiplicity; targets are drawn independently with probability
    proportional to in-degree + 1 at the node's arrival time."""
    rng = random.Random(params.seed)
    m = params.m
    n_seed = m + 1
    edges = [(i, j) for i in range(n_seed) for j in range(n_seed) if i != j]
    weight = np.zeros(params.n_target, dtype=np.int64)
    weight[:n_seed] = 1 + m  # baseline + seed-clique in-links
    for node in range(n_seed, params.n_target):
        cum = np.cumsum(weight[:node])
        total = int(cum[-1])
        targets = [
            int(np.searchsorted(cum, rng.randrange(total), side="right"))
            for _ in range(m)
        ]
        for tgt in targets:
            edges.append((node, tgt))
            weight[tgt] += 1
        weight[node] = 1
    return DirectedGraph(
        n_nodes=params.n_target,
        edges=np.array(edges, dtype=np.int64),
        multi_edges_allowed=True,
    )
