#!/usr/bin/env python3
"""Spectral-gap comparison across random-network models.

Common scale-free generators produce a large gap between the leading
eigenvalue and the rest of the spectrum (fast relaxation); constraining
links to communities removes the gap, which is the situation found in real
web and vocabulary networks.
"""

import numpy as np

from netspectra.gmatrix import GoogleMatrix
from netspectra.genmodels import (
    AbParams,
    AlParams,
    ColorParams,
    generate_ab,
    generate_al,
    generate_color,
)
from netspectra.spectra import operator_spectrum

N = 2**10
ALPHA = 0.85
SEEDS = range(3)


def lambda2(graph, alpha):
    spec = operator_spectrum(GoogleMatrix.from_graph(graph, alpha))
    return abs(spec.eigenvalues[1])


rows = []
for seed in SEEDS:
    g = generate_ab(AbParams(n_target=N, m=5, p=0.2, q=0.1, seed=seed))
    rows.append(("scale-free growth (alpha=1)", seed, lambda2(g, 1.0)))
for seed in SEEDS:
    g = generate_al(AlParams(n_target=N, m=5, seed=seed))
    rows.append((f"independent-links model (alpha={ALPHA})", seed, lambda2(g, ALPHA)))
for seed in SEEDS:
    g, _ = generate_color(
        ColorParams(
            ab=AbParams(n_target=N, m=5, p=0.2, q=0.1, seed=seed),
            eta=1e-2,
            epsilon=1e-3,
        )
    )
    rows.append((f"community (color) model (alpha={ALPHA})", seed, lambda2(g, ALPHA)))

print(f"second-largest eigenvalue magnitude, N={N}:\n")
current = None
for model, seed, l2 in rows:
    if model != current:
        print(f"{model}")
        current = model
    gap = (ALPHA if "alpha=0.85" in model else 1.0) - l2
    print(f"  seed {seed}: |lambda_2| = {l2:.4f}   gap to alpha = {gap:+.4f}")

print("\nthe two unconstrained models keep a wide gap (relaxation after a few")
print("operator applications); the community model pushes |lambda_2| back up")
print("to the damping value, i.e. no gap and slow relaxation between")
print("weakly coupled node sets.")
