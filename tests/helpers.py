"""Graph factories and test-only oracles shared across the test modules."""

import importlib.util
import random
from pathlib import Path

import numpy as np

from netspectra.netcore import DirectedGraph


def benchmark_graph(kind, n, seed, **kwargs):
    """A graph of the benchmark's own input generator ``kind``
    (``scale_free`` or ``communities`` of ``perfbench/inputs.py``)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    edges = getattr(inputs, kind)(np.random.default_rng(seed), n, **kwargs)
    return DirectedGraph(n_nodes=n, edges=edges)


def two_cycle():
    return DirectedGraph(n_nodes=2, edges=np.array([[0, 1], [1, 0]]))


def directed_cycle(n):
    return DirectedGraph(
        n_nodes=n, edges=np.array([[u, (u + 1) % n] for u in range(n)])
    )


def complete_graph(n):
    """K_n without self-loops; its link matrix is (J - I)/(n-1)."""
    edges = [(i, j) for i in range(n) for j in range(n) if i != j]
    return DirectedGraph(n_nodes=n, edges=np.array(edges))


def star_in(n=4):
    """Spokes 1..n-1 all pointing at node 0."""
    return DirectedGraph(n_nodes=n, edges=np.array([[i, 0] for i in range(1, n)]))


def star_bidirectional(n=4):
    edges = [[i, 0] for i in range(1, n)] + [[0, i] for i in range(1, n)]
    return DirectedGraph(n_nodes=n, edges=np.array(edges))


def ring_plus_random(n, seed, lo=2, hi=6):
    """Strongly connected sparse random graph: a Hamiltonian ring plus a few
    uniform out-links per node.

    Strong connectivity keeps the spectrum numerically well-conditioned
    (no defective transient structure near lambda = 0), which matters for
    tight eigenvalue-pairing assertions.
    """
    rng = random.Random(seed)
    edges = {(u, (u + 1) % n) for u in range(n)}
    for u in range(n):
        for t in rng.sample(range(n), rng.randint(lo, hi)):
            if t != u:
                edges.add((u, t))
    return DirectedGraph(n_nodes=n, edges=np.array(sorted(edges)))


def sparse_random(n, seed, lo=1, hi=4, dangling_frac=0.1):
    """Plain sparse random digraph; some nodes may be dangling."""
    rng = random.Random(seed)
    edges = set()
    for u in range(n):
        if rng.random() < dangling_frac:
            continue
        for t in rng.sample(range(n), rng.randint(lo, hi)):
            if t != u:
                edges.add((u, t))
    if not edges:
        edges = {(0, 1 % n)}
    return DirectedGraph(n_nodes=n, edges=np.array(sorted(edges)))


def strong_components(graph):
    """Strongly connected components of the link graph as a set of
    frozensets, from networkx, where a dangling node links to every node
    (its column of S is uniform)."""
    import networkx as nx

    n = graph.n_nodes
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(map(tuple, graph.edges.tolist()))
    for d in np.flatnonzero(graph.out_degrees() == 0).tolist():
        g.add_edges_from((d, j) for j in range(n))
    return {frozenset(c) for c in nx.strongly_connected_components(g)}


def closed_classes(graph):
    """Strongly connected classes with no link leaving them, as a set of
    frozensets, from networkx's attracting components of the link graph
    where a dangling node links to every node."""
    import networkx as nx

    n = graph.n_nodes
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(map(tuple, graph.edges.tolist()))
    for d in np.flatnonzero(graph.out_degrees() == 0).tolist():
        g.add_edges_from((d, j) for j in range(n))
    return {frozenset(c) for c in nx.attracting_components(g)}


def communities(n, n_comm, seed, p_cross=1e-3, mean_out=6.0):
    """Graph of ``n_comm`` communities of near-equal size without dangling
    nodes: each out-link stays in its source's community, skewed toward
    low member index, except with probability ``p_cross``, when it goes to
    a uniform node.  Most communities hold a closed class."""
    rng = np.random.default_rng(seed)
    comm = rng.permutation(np.arange(n) % n_comm)
    members = np.argsort(comm, kind="stable")
    size = np.bincount(comm, minlength=n_comm)
    start = np.concatenate([[0], np.cumsum(size)[:-1]])
    src = np.repeat(np.arange(n), 1 + rng.poisson(mean_out - 1.0, size=n))
    c = comm[src]
    dst = members[start[c] + (rng.random(src.size) ** 2 * size[c]).astype(np.int64)]
    cross = rng.random(src.size) < p_cross
    dst[cross] = rng.integers(n, size=int(cross.sum()))
    keep = src != dst
    edges = np.unique(np.column_stack([src[keep], dst[keep]]), axis=0)
    return DirectedGraph(n_nodes=n, edges=edges)


def repeated_columns(graph):
    """N minus the number of distinct columns of S, from the edge list
    alone: nodes grouped by their set of out-neighbours, with every
    dangling node in one group (for graphs without parallel edges)."""
    targets = [set() for _ in range(graph.n_nodes)]
    for u, v in graph.edges.tolist():
        targets[u].add(v)
    return graph.n_nodes - len({frozenset(t) for t in targets})


def _targets(graph):
    """Each node's out-neighbours, every node for a dangling one."""
    targets = [set() for _ in range(graph.n_nodes)]
    for u, v in graph.edges.tolist():
        targets[u].add(v)
    return [t or set(range(graph.n_nodes)) for t in targets]


def rest_nodes(graph):
    """The nodes outside the closed classes that go apart: a closed class
    of c nodes goes apart when no other node links into it, or when
    ``2 c^3 <= (r + c)^3 - r^3`` for the r nodes outside every closed
    class (and it is not all of the graph)."""
    n = graph.n_nodes
    classes = closed_classes(graph)
    r = n - sum(len(c) for c in classes)
    targets = _targets(graph)
    rest = set(range(n))
    for c in classes:
        linked = any(targets[u] & c for u in range(n) if u not in c)
        if len(c) < n and (not linked or 2 * len(c) ** 3 <= (r + len(c)) ** 3 - r**3):
            rest -= c
    return rest


def _rest_keys(graph):
    """The rest (see :func:`rest_nodes`) and, for each of its nodes, its
    column of S there as its out-neighbours in the rest and its out-degree
    (a dangling node links to all N nodes); None for a column that is zero
    on the rest (for graphs without parallel edges)."""
    rest = rest_nodes(graph)
    keys = {u: (frozenset(t & rest), len(t)) for u, t in enumerate(_targets(graph)) if u in rest}
    return rest, {u: k if k[0] else None for u, k in keys.items()}


def rest_repeated_columns(graph):
    """Columns of S that repeat another one on the rest, from the edge list
    alone; columns that are zero there are not lumped."""
    _, keys = _rest_keys(graph)
    keys = [k for k in keys.values() if k is not None]
    return len(keys) - len(set(keys))


def lumped_columns(graph):
    """The columns the solver lumps: the rest's repeated columns when one
    of the rest's strongly connected components holds at least an eighth
    of it, else none."""
    rest = rest_nodes(graph)
    largest = max((len(c) for c in strong_components(graph) if c <= rest), default=0)
    return rest_repeated_columns(graph) if 8 * largest >= len(rest) else 0


def repeated_rows_at_least(graph):
    """A lower bound on the rows of the rest that are lumped, from the edge
    list alone.  Once the dangling nodes' columns are lumped, a node of the
    rest that is not dangling, whose column repeats no other one there, and
    that only dangling nodes link to has the row ``1/N`` on the dangling
    nodes' one column, so all but one of those nodes repeat that row."""
    rest, keys = _rest_keys(graph)
    out = [set() for _ in range(graph.n_nodes)]
    for u, v in graph.edges.tolist():
        out[u].add(v)
    dangling = {u for u in rest if not out[u]}
    linked = set().union(*out)
    count = {}
    for k in keys.values():
        count[k] = count.get(k, 0) + 1
    pages = [u for u, k in keys.items()
             if out[u] and u not in linked and (k is None or count[k] == 1)]
    return max(0, len(pages) - 1) if len(dangling) > 1 else 0


def closed_class_count(graph):
    """Number of strongly connected classes with no link leaving them, where
    a dangling node links to every node (its column of S is uniform)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n = graph.n_nodes
    dangling = np.nonzero(graph.out_degrees() == 0)[0]
    src = np.concatenate([graph.edges[:, 0], np.repeat(dangling, n)])
    dst = np.concatenate([graph.edges[:, 1], np.tile(np.arange(n), dangling.size)])
    adjacency = coo_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
    n_classes, label = connected_components(adjacency, directed=True, connection="strong")
    leaks = np.zeros(n_classes, dtype=bool)
    leaks[label[src[label[src] != label[dst]]]] = True
    return n_classes - int(leaks.sum())


def random_small_graph(seed):
    """One random out-link per node, about 5% of nodes dangling: often
    several closed cycles, and classes that leak only through a dangling
    node."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    edges = {(u, int(rng.integers(n))) for u in range(n) if rng.random() >= 0.05}
    return DirectedGraph(n_nodes=n, edges=np.array(sorted(edges)).reshape(-1, 2))


def leaky_pairs():
    """0 <-> 1 is closed; 2 <-> 3 leaks to the dangling node 4."""
    return DirectedGraph(n_nodes=5, edges=np.array([[0, 1], [1, 0], [2, 3], [3, 2], [3, 4]]))


def spectrum_from_eigenvalues(eigenvalues):
    """Eigenvalues alone, in the given order; residuals and PARs are nan."""
    from netspectra.spectra import Spectrum

    lam = np.asarray(eigenvalues, dtype=np.complex128)
    unknown = np.full(lam.size, np.nan)
    return Spectrum(eigenvalues=lam, residuals=unknown, pars=unknown)


_DENSE_SOLVE_LIMIT = 2000


def pagerank_dense_solve(g):
    """Stationary vector via a dense linear solve; oracle for the iteration.

    Solves ``(I - alpha*S') p = (1-alpha)/N * ones`` where S' carries the
    uniform dangling columns explicitly, then L1-normalizes.  Restricted to
    small n and alpha < 1 (the system is singular at alpha = 1).
    """
    from netspectra.ranking import RankVector

    n = g.n
    if n > _DENSE_SOLVE_LIMIT:
        raise ValueError(f"dense solve limited to n <= {_DENSE_SOLVE_LIMIT}")
    if g.alpha >= 1.0:
        raise ValueError("dense solve requires alpha < 1 (system singular at 1)")
    s_full = g.s.matrix.toarray()
    if g.s.n_dangling:
        s_full[:, g.s.dangling] = 1.0 / n
    a = np.eye(n) - g.alpha * s_full
    b = np.full(n, (1.0 - g.alpha) / n)
    p = np.linalg.solve(a, b)
    p = p / p.sum()
    return RankVector(values=p, alpha=g.alpha, iterations=0, residual=0.0)


def rank_limit(graph):
    """The limit of the rank vector as alpha tends to 1, by dense solves:
    each closed class's stationary vector, weighted by the mass that
    reaches the class from the uniform vector.  That is the class's share
    of the uniform vector plus what the transient nodes T send into it,
    ``e^T S_CT (I - S_TT)^-1 x_T``; the transient nodes get 0."""
    n = graph.n_nodes
    if n > _DENSE_SOLVE_LIMIT:
        raise ValueError(f"dense solve limited to n <= {_DENSE_SOLVE_LIMIT}")
    out = graph.out_degrees()
    s = np.zeros((n, n))
    np.add.at(s, (graph.edges[:, 1], graph.edges[:, 0]), 1.0 / out[graph.edges[:, 0]])
    s[:, out == 0] = 1.0 / n
    classes = [sorted(c) for c in closed_classes(graph)]
    transient = np.setdiff1d(np.arange(n), np.concatenate(classes))
    reach = np.linalg.solve(
        np.eye(transient.size) - s[np.ix_(transient, transient)], np.full(transient.size, 1.0 / n)
    )
    limit = np.zeros(n)
    for c in classes:
        # the stationary vector: S_CC p = p with sum(p) = 1, in least squares
        a = np.vstack([s[np.ix_(c, c)] - np.eye(len(c)), np.ones(len(c))])
        p = np.linalg.lstsq(a, np.r_[np.zeros(len(c)), 1.0], rcond=None)[0]
        limit[c] = (len(c) / n + s[np.ix_(c, transient)].sum(axis=0) @ reach) * p
    return limit


class ScalingCheckError(ValueError):
    """Eigenvalue pairing error beyond the requested tolerance."""


def _greedy_pair_error(values, reference):
    """Max distance when greedily matching each value to the nearest unused
    reference value (largest-magnitude values matched first)."""
    if values.size != reference.size:
        raise ValueError("multisets must have equal size")
    if values.size == 0:
        return 0.0
    ref = reference.copy()
    available = np.ones(ref.size, dtype=bool)
    worst = 0.0
    for v in values[np.argsort(-np.abs(values), kind="stable")]:
        dist = np.abs(ref - v)
        dist[~available] = np.inf
        j = int(np.argmin(dist))
        worst = max(worst, float(dist[j]))
        available[j] = False
    return worst


def alpha_scaling_check(spec_at_one, spec_at_alpha, alpha, tol=1e-8):
    """Verify that damping rescales the non-leading eigenvalues by alpha.

    One unit eigenvalue (the invariant leading one) is removed from each
    spectrum; the rest of ``spec_at_alpha`` is greedily paired against
    ``alpha *`` the rest of ``spec_at_one``.  Returns the worst pairing
    distance and raises :class:`ScalingCheckError` if it exceeds ``tol``.
    """
    lam1 = spec_at_one.eigenvalues
    lam_a = spec_at_alpha.eigenvalues
    if lam1.size != lam_a.size:
        raise ValueError("spectra must come from operators of equal size")
    drop1 = int(np.argmin(np.abs(lam1 - 1.0)))
    drop_a = int(np.argmin(np.abs(lam_a - 1.0)))
    scaled = alpha * np.delete(lam1, drop1)
    rest = np.delete(lam_a, drop_a)
    worst = _greedy_pair_error(rest, scaled)
    if worst > tol:
        raise ScalingCheckError(
            f"worst eigenvalue pairing error {worst:.3e} exceeds tol {tol:.1e}"
        )
    return worst


def degeneracy_clusters_reference(spec, tol):
    """The clusters of ``spectra.degeneracy_clusters`` built one
    ``DegeneracyCluster`` at a time, each with its own mean, then sorted
    as a list: the implementation the array-held report replaced."""
    from netspectra.spectra import DegeneracyCluster, _near_pairs, _union

    lam = spec.eigenvalues
    root = np.arange(lam.size, dtype=np.int32)
    for a, b in _near_pairs(lam, tol):
        _union(root, a, b)
    roots, labels = np.unique(root, return_inverse=True)
    ends = np.cumsum(np.bincount(labels, minlength=roots.size))
    groups = np.split(np.argsort(labels, kind="stable"), ends)[:-1]
    clusters = [
        DegeneracyCluster(
            representative=complex(lam[members].mean()),
            multiplicity=members.size,
            members=members,
        )
        for members in groups
    ]
    clusters.sort(key=lambda c: (-c.multiplicity, -abs(c.representative)))
    return clusters
