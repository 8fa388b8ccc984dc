import io
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netspectra import netcore
from netspectra.netcore import (
    DegreeDistribution,
    DirectedGraph,
    EdgeListParseError,
    EmptyGraphError,
    FitError,
    NodeIdError,
    degree_distribution,
    degree_distribution_to_csv,
    filter_min_outdegree,
    fit_loglog_slope,
    load_edge_list,
    maslov_randomize,
    reciprocity,
    save_edge_list,
)

from helpers import sparse_random, two_cycle


def load_text(text, **kw):
    return load_edge_list(io.StringIO(text), **kw)


# body text the fast pass declines before calling numpy
_OUTSIDE_FAST_GRAMMAR = ["0 1 # x\n", "1_0 2\n", "٣ 2\n", "1.0 2\n", "1e3 2\n", "0 1\r2 3\n"]


class TestLoadEdgeList:
    def test_two_cycle(self):
        g = load_text("0 1\n1 0\n")
        assert g.n_nodes == 2
        assert g.edges.tolist() == [[0, 1], [1, 0]]

    def test_header_forces_size(self):
        g = load_text("# nodes=3\n0 1\n")
        assert g.n_nodes == 3
        assert g.out_degrees().tolist() == [1, 0, 0]

    def test_comments_and_blank_lines_ignored(self):
        g = load_text("# a comment\n\n0 1\n# another\n1 0\n")
        assert g.n_edges == 2

    def test_one_based_input(self):
        g = load_text("1 2\n2 1\n", index_base=1)
        assert g.edges.tolist() == [[0, 1], [1, 0]]

    def test_dedupe_default(self):
        g = load_text("0 1\n0 1\n1 0\n")
        assert g.n_edges == 2
        assert not g.multi_edges_allowed

    def test_multiset_preserved_without_dedupe(self):
        g = load_text("0 1\n0 1\n", dedupe=False)
        assert g.n_edges == 2
        assert g.multi_edges_allowed

    def test_self_loops_kept_by_default(self):
        g = load_text("0 0\n0 1\n")
        assert (0, 0) in g.edge_set()

    def test_self_loops_dropped_on_request(self):
        g = load_text("0 0\n0 1\n", allow_self_loops=False)
        assert g.edge_set() == {(0, 1)}

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListParseError) as err:
            load_text("0 1\nx 2\n")
        assert err.value.line_no == 2

    def test_three_tokens_rejected(self):
        with pytest.raises(EdgeListParseError):
            load_text("0 1 2\n")

    def test_negative_after_base_shift(self):
        with pytest.raises(NodeIdError):
            load_text("0 1\n", index_base=1)

    def test_id_exceeding_declared_size(self):
        with pytest.raises(NodeIdError):
            load_text("# nodes=2\n0 5\n")

    def test_inline_comment_rejected(self):
        with pytest.raises(EdgeListParseError) as err:
            load_text("0 1\n1 2 # note\n")
        assert err.value.line_no == 2

    def test_malformed_line_after_many_edges_reports_number(self):
        text = "0 1\n" * 40_000 + "0 x\n"
        with pytest.raises(EdgeListParseError, match="^line 40001: "):
            load_text(text)

    def test_header_without_edges(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = load_text("# nodes=4\n\n")
        assert g.n_nodes == 4 and g.n_edges == 0

    def test_last_header_wins(self):
        assert load_text("# nodes=9\n0 1\n  # nodes=5\n").n_nodes == 5

    def test_python_int_tokens(self):
        g = load_text("+5 1_0\n٣ 007\n")
        assert g.edges.tolist() == [[5, 10], [3, 7]]

    def test_id_beyond_int64_reported_against_header(self):
        big = 2**70
        with pytest.raises(NodeIdError, match=f"node id {big} exceeds declared nodes=5"):
            load_text(f"# nodes=5\n0 {big}\n")

    @pytest.mark.parametrize(
        "text", ["0 99999999999999999999\n", f"0 {2**63 - 1}\n", "# nodes=99999999999999999999\n0 1\n"]
    )
    def test_node_count_beyond_int64(self, text):
        with pytest.raises(NodeIdError, match="exceed the int64 id range"):
            load_text(text)

    # ids are sized and checked before self-loops are dropped
    def test_dropped_self_loop_beyond_int64(self):
        big = 2**70
        for loops in (True, False):
            with pytest.raises(NodeIdError, match="exceed the int64 id range"):
                load_text(f"{big} {big}\n0 1\n", allow_self_loops=loops)

    @pytest.mark.parametrize("loops", [True, False])
    def test_dropped_self_loop_still_counts_its_node(self, loops):
        g = load_text("0 1\n2 2\n", allow_self_loops=loops)
        assert g.n_nodes == 3
        assert g.edge_set() == ({(0, 1), (2, 2)} if loops else {(0, 1)})

    @pytest.mark.parametrize("loops", [True, False])
    def test_dropped_self_loop_checked_against_header(self, loops):
        with pytest.raises(NodeIdError, match="node id 5 exceeds declared nodes=2"):
            load_text("# nodes=2\n0 1\n5 5\n", allow_self_loops=loops)

    # at scale 2**57 a src * n + dst pair key would wrap int64
    @pytest.mark.parametrize("scale", [1, 2**57], ids=["narrow", "wide"])
    def test_dedupe_keeps_first_occurrence_order(self, scale):
        ids = np.random.default_rng(5).integers(0, 30, (3000, 2)).tolist()
        pairs = [(s * scale, t * scale) for s, t in ids]
        g = load_text("".join(f"{s} {t}\n" for s, t in pairs))
        assert g.edges.tolist() == [list(p) for p in dict.fromkeys(pairs)]

    @pytest.mark.parametrize(
        "text",
        ["# nodes=3\n0 1\n1 2\n", "0 1\r\n 1\t2 \r\n", "\n  # note\n0 1\n\n", "#\n", ""],
    )
    def test_fast_pass_takes_plain_files(self, text):
        assert netcore._parse_fast(text, 0) is not None

    @pytest.mark.parametrize(
        "text", _OUTSIDE_FAST_GRAMMAR + ["0 1 2\n", "0\n", "0 -1\n", f"0 {2**63}\n"]
    )
    def test_fast_pass_leaves_other_input_to_line_walker(self, text):
        assert netcore._parse_fast(text, 0) is None

    # numpy's tokenizer ends a line at a lone "\r" and some versions parse
    # "1.0" as an int, so such bodies must be declined before numpy sees them
    @pytest.mark.parametrize("text", _OUTSIDE_FAST_GRAMMAR)
    def test_numpy_never_sees_input_outside_fast_grammar(self, text, monkeypatch):
        def loadtxt(*args, **kwargs):
            raise AssertionError("np.loadtxt called")

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        assert netcore._parse_fast(text, 0) is None

    @pytest.mark.parametrize("stream", [io.StringIO("0 1\r2 3\n"), io.BytesIO(b"0 1\r2 3\n")])
    def test_lone_carriage_return_in_stream_is_not_a_line_end(self, stream):
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list(stream)
        assert err.value.line_no == 1

    def test_node_count_past_int64_pair_keys(self):
        g = load_text("# nodes=4611686018427387904\n4 0\n0 0\n4 0\n")
        assert g.edges.tolist() == [[4, 0], [0, 0]]

    def test_bytes_stream(self):
        g = load_edge_list(io.BytesIO(b"0 1\n"))
        assert g.n_edges == 1

    def test_path_source(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 0\n")
        assert load_edge_list(path).n_edges == 2


_ID = st.integers(1, 9).map(str)
_TOKEN = st.one_of(
    _ID,
    _ID,
    _ID,
    st.sampled_from(
        ["0", "+5", "007", "-0", "-1", "1_0", "٣", "1.0", "1e3", "x", "#", f"{2**63}", f"-{2**63}"]
    ),
)
_EDGE_LINE = st.builds(
    lambda lead, tokens, sep: lead + sep.join(tokens),
    st.sampled_from(["", " ", "\t"]),
    st.lists(_TOKEN, min_size=2, max_size=2),
    st.sampled_from([" ", "\t", "  "]),
)
_OTHER_LINE = st.one_of(
    st.sampled_from(["", "   ", "\t", "# note", "  # nodes=3", "#nodes = 12"]),
    st.integers(0, 12).map("# nodes={}".format),
    st.lists(_TOKEN, min_size=1, max_size=3).map(" ".join),
    _EDGE_LINE.map(lambda line: line + " # inline"),
)


@st.composite
def edge_list_texts(draw):
    lines = draw(st.lists(st.one_of(_EDGE_LINE, _EDGE_LINE, _EDGE_LINE, _OTHER_LINE), max_size=12))
    # a lone "\r" does not end a line, so it joins its neighbours
    end = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    ends = draw(st.lists(end, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[: -len(ends[-1])] if lines and draw(st.booleans()) else text


def _outcome(load):
    try:
        g = load()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return g.n_nodes, g.edges.tolist(), g.multi_edges_allowed


class TestParsePathsAgree:
    @settings(max_examples=400, deadline=None)
    @given(
        text=edge_list_texts(),
        index_base=st.sampled_from([0, 1]),
        dedupe=st.booleans(),
        allow_self_loops=st.booleans(),
    )
    def test_load_matches_line_walker(self, text, index_base, dedupe, allow_self_loops):
        flags = dict(dedupe=dedupe, allow_self_loops=allow_self_loops)
        got = _outcome(lambda: load_text(text, index_base=index_base, **flags))
        want = _outcome(
            lambda: netcore._build_graph(*netcore._parse_lines(text, index_base), **flags)
        )
        assert got == want


class TestSaveRoundTrip:
    def test_canonical_round_trip_is_byte_exact(self):
        canonical = "# nodes=4\n0 1\n1 0\n2 0\n"
        g = load_text(canonical)
        buf = io.StringIO()
        save_edge_list(g, buf)
        assert buf.getvalue() == canonical
        assert load_text(buf.getvalue()) == g

    def test_color_lines_survive_reload(self):
        g = two_cycle()
        buf = io.StringIO()
        save_edge_list(g, buf, colors=[5, 7])
        text = buf.getvalue()
        assert "# color 0 5" in text and "# color 1 7" in text
        assert load_text(text) == g

    def test_file_target(self, tmp_path):
        g = two_cycle()
        path = tmp_path / "g.edges"
        save_edge_list(g, path)
        assert load_edge_list(path) == g


class TestDirectedGraph:
    def test_degree_sums_match_edge_count(self):
        g = sparse_random(60, seed=3)
        assert g.out_degrees().sum() == g.n_edges
        assert g.in_degrees().sum() == g.n_edges

    def test_out_of_range_id_rejected(self):
        with pytest.raises(NodeIdError):
            DirectedGraph(n_nodes=2, edges=np.array([[0, 2]]))

    def test_duplicate_edges_rejected_when_simple(self):
        with pytest.raises(ValueError):
            DirectedGraph(n_nodes=2, edges=np.array([[0, 1], [0, 1]]))

    def test_duplicates_fine_for_multigraph(self):
        g = DirectedGraph(
            n_nodes=2, edges=np.array([[0, 1], [0, 1]]), multi_edges_allowed=True
        )
        assert g.n_edges == 2


class TestFilterMinOutdegree:
    def test_drops_sink_and_incoming_edge(self):
        g = DirectedGraph(n_nodes=2, edges=np.array([[0, 1]]))
        filtered = filter_min_outdegree(g)
        assert filtered.n_nodes == 1
        assert filtered.n_edges == 0

    def test_two_cycle_unchanged(self):
        assert filter_min_outdegree(two_cycle()) == two_cycle()

    def test_single_pass_leaves_new_dangling_nodes(self):
        # chain 0 -> 1 -> 2: node 2 is dropped, node 1 becomes dangling but stays
        g = DirectedGraph(n_nodes=3, edges=np.array([[0, 1], [1, 2]]))
        filtered = filter_min_outdegree(g)
        assert filtered.n_nodes == 2
        assert filtered.edges.tolist() == [[0, 1]]
        assert filtered.out_degrees().tolist() == [1, 0]

    def test_all_dangling_is_an_error(self):
        g = DirectedGraph(n_nodes=3, edges=np.zeros((0, 2)))
        with pytest.raises(EmptyGraphError):
            filter_min_outdegree(g)

    def test_no_surviving_source_kept_dangling_on_original_edges(self):
        g = sparse_random(80, seed=11, dangling_frac=0.3)
        # single-pass semantics: survivors are exactly the original
        # non-dangling nodes, renumbered in order, with the edges among them
        original_out = g.out_degrees()
        new_id = {}
        for u in range(g.n_nodes):
            if original_out[u] > 0:
                new_id[u] = len(new_id)
        edges = [[new_id[a], new_id[b]] for a, b in g.edges.tolist() if b in new_id]
        expected = DirectedGraph(n_nodes=len(new_id), edges=np.array(edges))
        assert filter_min_outdegree(g) == expected


def reference_maslov_randomize(
    graph: DirectedGraph,
    n_swaps: int | None = None,
    rng_seed: int = 0,
    allow_self_loops: bool = True,
) -> DirectedGraph:
    """The rewiring loop as first written (``randrange`` draws, tuple sets),
    kept as the oracle for :func:`maslov_randomize`."""
    if graph.multi_edges_allowed:
        raise ValueError("rewiring requires a simple graph (no parallel edges)")
    n_edges = graph.n_edges
    if n_edges < 2:
        raise ValueError("need at least two edges to swap")
    if n_swaps is None:
        n_swaps = 10 * n_edges
    rng = random.Random(rng_seed)
    edges = [(int(s), int(t)) for s, t in graph.edges]
    present = set(edges)
    for _ in range(n_swaps):
        i = rng.randrange(n_edges)
        j = rng.randrange(n_edges)
        while j == i:
            j = rng.randrange(n_edges)
        a, b = edges[i]
        c, d = edges[j]
        e1 = (c, b)
        e2 = (a, d)
        if not allow_self_loops and (c == b or a == d):
            continue
        present.discard((a, b))
        present.discard((c, d))
        if e1 in present or e2 in present or e1 == e2:
            present.add((a, b))
            present.add((c, d))
            continue
        edges[i] = e1
        edges[j] = e2
        present.add(e1)
        present.add(e2)
    return DirectedGraph(
        n_nodes=graph.n_nodes,
        edges=np.array(edges, dtype=np.int64),
        multi_edges_allowed=False,
    )


@st.composite
def simple_graphs(draw):
    n = draw(st.integers(2, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pair, min_size=2, max_size=n * n, unique=True))
    return DirectedGraph(n_nodes=n, edges=np.array(edges))


# n = 1, 2, 3 and 2**k - 1, 2**k, 2**k + 1 up to past 2**64
_RANDBELOW_NS = [1, 2, 3] + [
    2**k + d for k in (2, 3, 7, 16, 31, 32, 33, 53, 63, 64, 65, 100) for d in (-1, 0, 1)
]


class TestRandbelow:
    @pytest.mark.parametrize("seed", [0, 1, 2**40 + 7])
    def test_same_stream_as_randrange(self, seed):
        ours, ref = random.Random(seed), random.Random(seed)
        for n in _RANDBELOW_NS * 2:
            assert ours.random() == ref.random()
            got = [netcore._randbelow(ours.getrandbits, n) for _ in range(7)]
            assert got == [ref.randrange(n) for _ in range(7)]
        assert ours.getstate() == ref.getstate()


class TestMaslovRandomize:
    @settings(max_examples=300, deadline=None)
    @given(
        graph=simple_graphs(),
        n_swaps=st.one_of(st.none(), st.integers(0, 200)),
        seed=st.integers(0, 2**64),
        allow_self_loops=st.booleans(),
    )
    def test_matches_reference_loop(self, graph, n_swaps, seed, allow_self_loops):
        kw = dict(n_swaps=n_swaps, rng_seed=seed, allow_self_loops=allow_self_loops)
        want = reference_maslov_randomize(graph, **kw)
        assert maslov_randomize(graph, **kw) == want

    @pytest.mark.parametrize("n_nodes", [60, 2**62])
    def test_matches_reference_on_larger_graph(self, n_nodes):
        edges = sparse_random(60, seed=3).edges
        g = DirectedGraph(n_nodes=n_nodes, edges=edges * (n_nodes // 60))
        for seed, loops in [(1, True), (2, False)]:
            kw = dict(rng_seed=seed, allow_self_loops=loops)
            assert maslov_randomize(g, **kw) == reference_maslov_randomize(g, **kw)

    def test_zero_swaps_identity(self):
        g = sparse_random(30, seed=0)
        assert maslov_randomize(g, n_swaps=0, rng_seed=1) == g

    def test_forced_single_swap(self):
        g = DirectedGraph(n_nodes=4, edges=np.array([[0, 1], [2, 3]]))
        swapped = maslov_randomize(g, n_swaps=1, rng_seed=0)
        assert swapped.edge_set() == {(2, 1), (0, 3)}

    @pytest.mark.parametrize("seed", range(8))
    def test_degree_sequences_preserved(self, seed):
        g = sparse_random(40, seed=seed)
        shuffled = maslov_randomize(g, rng_seed=seed + 100)
        assert shuffled.out_degrees().tolist() == g.out_degrees().tolist()
        assert shuffled.in_degrees().tolist() == g.in_degrees().tolist()
        assert shuffled.n_edges == g.n_edges

    def test_small_graphs_every_seed(self):
        g = DirectedGraph(
            n_nodes=5,
            edges=np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [0, 2], [1, 3]]),
        )
        for seed in range(50):
            shuffled = maslov_randomize(g, n_swaps=25, rng_seed=seed)
            assert shuffled.out_degrees().tolist() == g.out_degrees().tolist()
            assert shuffled.in_degrees().tolist() == g.in_degrees().tolist()

    def test_deterministic_for_seed(self):
        g = sparse_random(40, seed=4)
        a = maslov_randomize(g, rng_seed=9)
        b = maslov_randomize(g, rng_seed=9)
        assert a == b

    def test_no_self_loops_when_disallowed(self):
        g = sparse_random(30, seed=5, dangling_frac=0.0)
        shuffled = maslov_randomize(g, rng_seed=2, allow_self_loops=False)
        assert all(s != t for s, t in shuffled.edges)

    def test_rejects_multigraph(self):
        g = DirectedGraph(
            n_nodes=2, edges=np.array([[0, 1], [0, 1]]), multi_edges_allowed=True
        )
        with pytest.raises(ValueError):
            maslov_randomize(g, n_swaps=1)

    def test_rejects_single_edge(self):
        g = DirectedGraph(n_nodes=2, edges=np.array([[0, 1]]))
        with pytest.raises(ValueError):
            maslov_randomize(g, n_swaps=1)

    @pytest.mark.parametrize("n_swaps", [-1, -3])
    def test_rejects_negative_swap_count(self, n_swaps):
        with pytest.raises(ValueError, match="non-negative"):
            maslov_randomize(sparse_random(30, seed=0), n_swaps=n_swaps)


class TestDegreeDistribution:
    def test_two_cycle(self):
        dist = degree_distribution(two_cycle(), "in")
        assert dist.cumulative[1] == 1.0
        assert dist.mean_degree == 1.0

    def test_star_hand_count(self):
        g = DirectedGraph(n_nodes=4, edges=np.array([[1, 0], [2, 0], [3, 0]]))
        din = degree_distribution(g, "in")
        assert din.cumulative[3] == pytest.approx(1 / 4)
        dout = degree_distribution(g, "out")
        assert dout.cumulative[1] == pytest.approx(3 / 4)

    def test_cumulative_monotone_and_starts_at_one(self):
        g = sparse_random(100, seed=8)
        for direction in ("in", "out"):
            dist = degree_distribution(g, direction)
            ks = sorted(dist.cumulative)
            vals = [dist.cumulative[k] for k in ks]
            assert vals[0] == 1.0
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            assert sum(dist.counts.values()) == g.n_nodes

    def test_mean_degree_same_both_directions(self):
        g = sparse_random(50, seed=9)
        a = degree_distribution(g, "in").mean_degree
        b = degree_distribution(g, "out").mean_degree
        assert a == b == g.n_edges / g.n_nodes

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            degree_distribution(two_cycle(), "sideways")

    def test_csv_export(self, tmp_path):
        dist = degree_distribution(two_cycle(), "in")
        path = tmp_path / "deg.csv"
        degree_distribution_to_csv(dist, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,count,cumulative_fraction"
        assert lines[1] == "1,2,1"


class TestLogLogSlope:
    def synthetic(self, exponent, kmax=100):
        ks = range(1, kmax + 1)
        cumulative = {k: float(k) ** exponent for k in ks}
        return DegreeDistribution(
            counts={k: 1 for k in ks}, cumulative=cumulative, mean_degree=1.0
        )

    def test_exact_inverse_law(self):
        assert fit_loglog_slope(self.synthetic(-1.0), (1, 100)) == pytest.approx(
            -1.0, abs=1e-6
        )

    def test_constant_gives_zero(self):
        assert fit_loglog_slope(self.synthetic(0.0), (1, 100)) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_steeper_law(self):
        assert fit_loglog_slope(self.synthetic(-1.1), (1, 100)) == pytest.approx(
            -1.1, abs=1e-6
        )

    def test_insufficient_points(self):
        with pytest.raises(FitError):
            fit_loglog_slope(self.synthetic(-1.0), (1, 2))


class TestReciprocity:
    def test_two_cycle_fully_reciprocal(self):
        assert reciprocity(two_cycle()) == 1.0

    def test_one_way_edges(self):
        g = DirectedGraph(n_nodes=3, edges=np.array([[0, 1], [1, 2]]))
        assert reciprocity(g) == 0.0

    def test_mixed(self):
        g = DirectedGraph(n_nodes=3, edges=np.array([[0, 1], [1, 0], [1, 2]]))
        assert reciprocity(g) == pytest.approx(2 / 3)

    def test_self_loop_counts_as_reciprocal(self):
        g = DirectedGraph(n_nodes=2, edges=np.array([[0, 0], [0, 1]]))
        assert reciprocity(g) == pytest.approx(1 / 2)

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=30),
        multi=st.booleans(),
        scale=st.sampled_from([1, 2**59]),
    )
    def test_matches_set_oracle(self, pairs, multi, scale):
        # at scale 2**59 a src * n + dst pair key would wrap int64
        pairs = [(s * scale, t * scale) for s, t in pairs]
        if not multi:
            pairs = list(dict.fromkeys(pairs))
        g = DirectedGraph(n_nodes=6 * scale, edges=np.array(pairs), multi_edges_allowed=multi)
        present = set(pairs)
        assert reciprocity(g) == sum((t, s) in present for s, t in pairs) / len(pairs)

    def test_ids_past_int64_pair_keys(self):
        g = DirectedGraph(n_nodes=2**62, edges=np.array([[4, 1], [1, 0]]))
        assert reciprocity(g) == 0.0
