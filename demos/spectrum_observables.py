#!/usr/bin/env python3
"""Full complex spectrum of a community-structured network and the derived
observables: relaxation-rate density, degeneracy clusters, and eigenvector
localization.

The community ("color") model keeps almost all links inside labeled node
sets, which produces eigenvalues crowding the unit circle near lambda = 1;
eigenvalue degeneracies show up as sharp peaks of the rate density.
"""

import os

import numpy as np

from netspectra.gmatrix import GoogleMatrix
from netspectra.genmodels import AbParams, ColorParams, generate_color
from netspectra.spectra import (
    degeneracy_clusters,
    degeneracy_to_csv,
    density_of_states,
    dos_to_csv,
    eigenvector_pars,
    operator_spectrum,
    eigenvector_pars_to_csv,
    relaxation_rates,
    spectrum_to_csv,
)

OUT_DIR = os.environ.get("DEMO_OUT", "demo_out")
os.makedirs(OUT_DIR, exist_ok=True)

ALPHA = 0.85
N = 2**11

graph, colors = generate_color(
    ColorParams(
        ab=AbParams(n_target=N, m=5, p=0.2, q=0.1, seed=1),
        eta=1e-2,
        epsilon=1e-3,
    )
)
print(f"community network: N={N}, {graph.n_edges} links, "
      f"{np.unique(colors).size} colors")

g = GoogleMatrix.from_graph(graph, ALPHA)
spec = operator_spectrum(g)
print(f"diagonalized; max residual {spec.residuals.max():.2e}")
print(f"leading eigenvalues: "
      + ", ".join(f"{lam:.4f}" for lam in spec.eigenvalues[:5]))
print(f"|lambda_2| = {abs(spec.eigenvalues[1]):.6f} "
      f"(close to alpha={ALPHA}: the communities remove the spectral gap)")

gammas, zero_modes = relaxation_rates(spec)
hist = density_of_states(gammas, zero_modes, window=0.1)
print(f"\nrelaxation rates: {gammas.size} finite, {zero_modes} zero modes "
      f"({zero_modes / N:.1%} of the spectrum at lambda ~ 0)")
plateau = hist.integrated[np.searchsorted(hist.bin_edges, 7.0)]
print(f"integrated rate density at gamma=7: {plateau:.3f} "
      f"(plateau level = 1 - zero-mode fraction = {1 - hist.zero_modes:.3f})")

report = degeneracy_clusters(spec)
print("\nlargest degeneracy clusters (representative, multiplicity):")
for cluster in report.clusters[:5]:
    rep = cluster.representative
    print(f"  {rep.real:+.4f} {rep.imag:+.4f}i   x{cluster.multiplicity}")

par_gammas, pars = eigenvector_pars(spec)
print(f"\neigenvector participation ratios: median {np.median(pars):.1f} "
      f"of N={N} (most eigenstates live on a small part of the network)")
print(f"rank-vector end of the spectrum: PAR {pars[0]:.1f} at gamma=0")

spectrum_to_csv(spec, os.path.join(OUT_DIR, "color_eigenvalues.csv"))
dos_to_csv(hist, os.path.join(OUT_DIR, "color_dos.csv"))
degeneracy_to_csv(report, os.path.join(OUT_DIR, "color_degeneracy.csv"))
eigenvector_pars_to_csv(par_gammas, pars, os.path.join(OUT_DIR, "color_par.csv"))
print(f"\nwrote eigenvalue cloud, rate density, degeneracies, and PAR data "
      f"to {OUT_DIR}/color_*.csv")
