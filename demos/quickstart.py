#!/usr/bin/env python3
"""Quickstart: build the damped link operator for a tiny web-like graph,
rank its nodes, and look at the full spectrum."""

import io

import numpy as np

from netspectra.gmatrix import GoogleMatrix
from netspectra.netcore import load_edge_list, reciprocity
from netspectra.ranking import pagerank, participation_ratio
from netspectra.spectra import operator_spectrum

# a 7-page site: a mutually linked core, a few one-way references, and one
# page (6) with no outlinks at all
EDGES = """\
# nodes=7
0 1
1 0
0 2
2 0
1 2
3 0
4 0
4 1
5 4
2 6
"""

graph = load_edge_list(io.StringIO(EDGES))
print(f"{graph.n_nodes} nodes, {graph.n_edges} links, "
      f"reciprocity {reciprocity(graph):.2f}")
print(f"out-degrees: {graph.out_degrees().tolist()}  (node 6 is dangling)")

g = GoogleMatrix.from_graph(graph, alpha=0.85)
rank = pagerank(g)
print(f"\nPageRank (alpha=0.85, {rank.iterations} operator applications, "
      f"certified ||Gx - x||_1 = {rank.residual:.1e}):")
for position, node in enumerate(rank.order, 1):
    print(f"  #{position}  node {node}  score {rank.values[node]:.4f}")
print(f"participation ratio of the rank vector: "
      f"{participation_ratio(rank.values):.2f} of {graph.n_nodes} nodes")

spec = operator_spectrum(g)
print("\neigenvalues (by decreasing magnitude):")
for lam in spec.eigenvalues:
    print(f"  {lam.real:+.4f} {lam.imag:+.4f}i   |lambda| = {abs(lam):.4f}")
print(f"max residual ||G psi - lambda psi||_2 = {spec.residuals.max():.2e}")

# the operator never materializes the teleportation part: applying it to a
# distribution matches the dense matrix to machine precision
v = np.full(graph.n_nodes, 1 / graph.n_nodes)
print(f"\nsparse apply vs dense matrix: max diff "
      f"{np.max(np.abs(g.apply(v) - g.to_dense() @ v)):.2e}")
