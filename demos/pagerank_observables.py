#!/usr/bin/env python3
"""How the rank vector depends on the damping parameter: localization
(participation ratio), algebraic decay of the ordered scores, and the
fidelity between rank vectors at different damping values.

The fidelity grid exhibits a stability plateau: rank vectors for nearby
damping values overlap almost perfectly over a wide band.
"""

import os

import numpy as np

from netspectra.gmatrix import GoogleMatrix
from netspectra.genmodels import AbParams, generate_ab
from netspectra.ranking import (
    decay_exponent,
    fidelity_grid,
    fidelity_grid_to_csv,
    pagerank,
    par_curve_to_csv,
    par_vs_alpha,
)

OUT_DIR = os.environ.get("DEMO_OUT", "demo_out")
os.makedirs(OUT_DIR, exist_ok=True)

N = 2**13
graph = generate_ab(AbParams(n_target=N, m=5, p=0.2, q=0.1, seed=4))
print(f"scale-free network: N={N}, {graph.n_edges} links")

alphas = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.99]
points = par_vs_alpha(graph, alphas)
print("\nparticipation ratio of the rank vector vs damping:")
for p in points:
    bar = "#" * int(50 * p.xi / N)
    print(f"  alpha={p.alpha:4.2f}  xi={p.xi:8.1f}  {bar}")
print("as damping -> 0 the vector delocalizes toward the full network size;")
print("for moderate damping it stays localized on a small set of nodes")

rank = pagerank(GoogleMatrix.from_graph(graph, 0.85))
beta = decay_exponent(rank)
print(f"\nordered scores decay algebraically: p_j ~ 1/j^beta with "
      f"beta = {beta:.3f} (fit over ranks [10, N/10])")

grid_alphas = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95]
grid = fidelity_grid(graph, grid_alphas)
print("\nfidelity f(alpha, alpha') between L2-normalized rank vectors:")
header = "        " + " ".join(f"{a:5.2f}" for a in grid.alphas)
print(header)
for a, row in zip(grid.alphas, grid.f):
    print(f"  {a:5.2f} " + " ".join(f"{x:5.3f}" for x in row))

par_curve_to_csv(points, os.path.join(OUT_DIR, "par_curve.csv"))
fidelity_grid_to_csv(grid, os.path.join(OUT_DIR, "fidelity_grid.csv"))
print(f"\nwrote {OUT_DIR}/par_curve.csv and fidelity_grid.csv")
