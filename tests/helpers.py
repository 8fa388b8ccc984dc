"""Graph factories and test-only oracles shared across the test modules."""

import random

import numpy as np

from netspectra.netcore import DirectedGraph


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


def repeated_columns(graph):
    """N minus the number of distinct columns of S, from the edge list
    alone: nodes grouped by their set of out-neighbours, with every
    dangling node in one group (for graphs without parallel edges)."""
    targets = [set() for _ in range(graph.n_nodes)]
    for u, v in graph.edges.tolist():
        targets[u].add(v)
    return graph.n_nodes - len({frozenset(t) for t in targets})


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
