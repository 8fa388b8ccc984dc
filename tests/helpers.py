"""Graph factories shared across the test modules."""

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
