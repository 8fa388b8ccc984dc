"""Acceptance criteria, one test per criterion, each printing a PASS line
with the measured numbers (run with ``pytest -s`` or ``-rA`` to see them).
"""

import os
import time

import numpy as np
import pytest

from netspectra.gmatrix import GoogleMatrix, build_stochastic, truncate_by_rank
from netspectra.genmodels import AbParams, AlParams, ColorParams, generate_ab, generate_al, generate_color
from netspectra.netcore import load_edge_list, maslov_randomize
from netspectra.ranking import fidelity, fidelity_grid, pagerank_power
from netspectra.spectra import (
    degeneracy_clusters,
    density_of_states,
    eigendecompose,
    operator_spectrum,
    relaxation_rates,
    truncated_spectrum_compare,
)

from helpers import (
    _greedy_pair_error,
    alpha_scaling_check,
    complete_graph,
    pagerank_dense_solve,
    ring_plus_random,
    sparse_random,
    star_bidirectional,
    two_cycle,
)

# pilot-run regression bound for the AL model: median |lambda_2| over seeds
# 0..9 at N=1024, m=5, alpha=0.85 measured 0.17000000000000143 (= alpha/m,
# carried by the frozen seed-clique columns)
AL_LAMBDA2_MEDIAN_BOUND = 0.1700001

_dos_checks = {"count": 0}


def checked_spectrum(operator, tol=1e-9):
    """Eigendecompose a dense matrix (a GoogleMatrix through
    operator_spectrum) and verify rate-density mass conservation on the way
    (criterion 8 applies to every spectrum this suite computes)."""
    if isinstance(operator, GoogleMatrix):
        spec = operator_spectrum(operator, tol)
    else:
        spec = eigendecompose(operator, tol)
    gammas, zero = relaxation_rates(spec)
    hist = density_of_states(gammas, zero)
    total = hist.density.sum() * hist.bin_width + hist.zero_modes
    assert abs(total - 1.0) <= 1e-12
    _dos_checks["count"] += 1
    return spec


@pytest.fixture(scope="module")
def scaling_ensemble():
    """20 random sparse strongly connected graphs, N=200, decomposed at
    alpha=1 and alpha=0.85."""
    ensemble = []
    for seed in range(20):
        s = build_stochastic(ring_plus_random(200, seed=seed))
        spec1 = checked_spectrum(GoogleMatrix(s, 1.0).to_dense())
        speca = checked_spectrum(GoogleMatrix(s, 0.85).to_dense())
        ensemble.append((spec1, speca))
    return ensemble


def test_c01_analytic_complete_graph_spectra():
    worst = 0.0
    elapsed_200 = None
    for n in (5, 50, 200):
        start = time.perf_counter()
        spec = checked_spectrum(GoogleMatrix.from_graph(complete_graph(n), 1.0).to_dense())
        elapsed = time.perf_counter() - start
        if n == 200:
            elapsed_200 = elapsed
        worst = max(worst, abs(spec.eigenvalues[0] - 1.0))
        worst = max(worst, float(np.max(np.abs(spec.eigenvalues[1:] + 1.0 / (n - 1)))))
    assert worst <= 1e-10
    assert elapsed_200 < 5.0
    print(f"\n[criterion 1] PASS: K_n spectra analytic, worst error {worst:.2e}, "
          f"n=200 in {elapsed_200:.2f}s")


def test_c02_alpha_scaling_on_random_graphs(scaling_ensemble):
    worst = 0.0
    for spec1, speca in scaling_ensemble:
        worst = max(worst, alpha_scaling_check(spec1, speca, 0.85, tol=1e-8))
    assert worst <= 1e-8
    print(f"\n[criterion 2] PASS: alpha-scaling pairing error {worst:.2e} "
          f"over 20 graphs (N=200)")


def test_c03_second_eigenvalue_gap_bound(scaling_ensemble):
    worst = 0.0
    for _, speca in scaling_ensemble:
        worst = max(worst, abs(speca.eigenvalues[1]))
    for graph in (two_cycle(), complete_graph(5), star_bidirectional(6),
                  sparse_random(150, seed=31)):
        spec = checked_spectrum(GoogleMatrix.from_graph(graph, 0.85).to_dense())
        worst = max(worst, abs(spec.eigenvalues[1]))
    assert worst <= 0.85 + 1e-8
    print(f"\n[criterion 3] PASS: |lambda_2| <= alpha + 1e-8 on every test "
          f"matrix (max {worst:.6f})")


def test_c04_pagerank_power_vs_dense_solve():
    start = time.perf_counter()
    worst = 0.0
    for seed, n in ((0, 50), (1, 120), (2, 257), (3, 500), (4, 500), (5, 333)):
        s = build_stochastic(sparse_random(n, seed=seed))
        for alpha in (0.5, 0.85, 0.99):
            g = GoogleMatrix(s, alpha)
            power = pagerank_power(g)
            direct = pagerank_dense_solve(g)
            assert power.converged
            worst = max(worst, float(np.max(np.abs(power.values - direct.values))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 10.0
    print(f"\n[criterion 4] PASS: power vs dense solve Linf {worst:.2e} "
          f"in {elapsed:.2f}s")


def test_c05_fidelity_grid_properties():
    start = time.perf_counter()
    graph = ring_plus_random(1000, seed=77)
    alphas = [0.49, 0.59, 0.69, 0.79, 0.89, 0.99]
    grid = fidelity_grid(graph, alphas)
    elapsed = time.perf_counter() - start
    assert np.max(np.abs(np.diag(grid.f) - 1.0)) <= 1e-12
    assert np.array_equal(grid.f, grid.f.T)
    assert grid.f.min() >= 0.0 and grid.f.max() <= 1.0
    assert elapsed < 30.0
    print(f"\n[criterion 5] PASS: fidelity diag=1, symmetric, in [0,1]; "
          f"6x6 grid on N=1000 in {elapsed:.2f}s")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_c06_color_model_second_eigenvalue_equals_alpha():
    # pure node growth (p=q=0) never touches the seed communities, so the
    # three intra-color seed triangles stay closed and pin lambda_2 at alpha;
    # the spectrum is S's, mapped to G(alpha) by operator_spectrum, with the
    # triangles solved apart from the rest
    worst = 0.0
    worst_imag = 0.0
    for seed in range(5):
        graph, _ = generate_color(
            ColorParams(
                ab=AbParams(n_target=1024, m=8, p=0.0, q=0.0, seed=seed),
                epsilon=0.0,
            )
        )
        g = GoogleMatrix.from_graph(graph, 0.85)
        spec = checked_spectrum(g)
        lam2 = spec.eigenvalues[1]
        worst = max(worst, abs(lam2 - 0.85))
        worst_imag = max(worst_imag, abs(lam2.imag))
        assert spec.apart == spec.closed == 3
        # the complex residual on the operator in node order
        matrix = g.to_dense()
        vecs = spec.eigenvectors
        residual = np.linalg.norm(matrix @ vecs - vecs * spec.eigenvalues, axis=0).max()
        assert residual <= 1e-9 * np.linalg.norm(matrix, "fro")
    assert worst <= 1e-8
    assert worst_imag <= 1e-8
    print(f"\n[criterion 6] PASS: color model eps=0 lambda_2 real and equal "
          f"to alpha, worst |lambda_2 - 0.85| = {worst:.2e} over 5 seeds")


def test_c07_model_gap_contrast():
    ab_l2 = []
    for seed in range(10):
        graph = generate_ab(AbParams(n_target=1024, m=5, p=0.2, q=0.1, seed=seed))
        spec = checked_spectrum(GoogleMatrix.from_graph(graph, 1.0).to_dense())
        ab_l2.append(abs(spec.eigenvalues[1]))
    assert max(ab_l2) <= 0.7

    al_l2 = []
    for seed in range(10):
        graph = generate_al(AlParams(n_target=1024, m=5, seed=seed))
        spec = checked_spectrum(GoogleMatrix.from_graph(graph, 0.85).to_dense())
        al_l2.append(abs(spec.eigenvalues[1]))
    assert float(np.median(al_l2)) <= AL_LAMBDA2_MEDIAN_BOUND

    color_l2 = []
    for seed in range(5):
        graph, _ = generate_color(
            ColorParams(
                ab=AbParams(n_target=1024, m=5, p=0.2, q=0.1, seed=seed),
                eta=1e-2,
                epsilon=1e-3,
            )
        )
        spec = checked_spectrum(GoogleMatrix.from_graph(graph, 0.85).to_dense())
        color_l2.append(abs(spec.eigenvalues[1]))
    assert min(color_l2) >= 0.8 * 0.85

    print(f"\n[criterion 7] PASS: gap contrast -- AB max |lambda_2| "
          f"{max(ab_l2):.3f} <= 0.7; AL median {np.median(al_l2):.6f} <= "
          f"{AL_LAMBDA2_MEDIAN_BOUND}; color min {min(color_l2):.3f} >= 0.68")


def test_c08_dos_mass_conservation_tally():
    # every spectrum above went through the conservation check; add one
    # explicit sweep over smoothing windows on a fresh spectrum
    spec = checked_spectrum(
        GoogleMatrix.from_graph(sparse_random(120, seed=55), 0.85).to_dense()
    )
    for window in (0.02, 0.1, 0.5, 1.3):
        gammas, zero = relaxation_rates(spec)
        hist = density_of_states(gammas, zero, window=window)
        total = hist.density.sum() * hist.bin_width + hist.zero_modes
        assert abs(total - 1.0) <= 1e-12
    assert _dos_checks["count"] >= 70
    print(f"\n[criterion 8] PASS: rate-density mass + zero modes = 1 (1e-12) "
          f"on all {_dos_checks['count']} spectra computed in this suite")


def test_c09_maslov_rewiring_preserves_degrees():
    checked = 0
    for seed in range(50):
        graph = sparse_random(60 + (seed % 7) * 13, seed=seed, dangling_frac=0.15)
        swaps = (seed % 4) * graph.n_edges  # includes 0 attempts
        shuffled = maslov_randomize(graph, n_swaps=swaps, rng_seed=seed * 31 + 1)
        assert shuffled.out_degrees().tolist() == graph.out_degrees().tolist()
        assert shuffled.in_degrees().tolist() == graph.in_degrees().tolist()
        checked += 1
    assert checked == 50
    print("\n[criterion 9] PASS: degree sequences exactly preserved on "
          "50 random graphs at varied swap counts")


def test_c10_roget_dataset_if_available():
    path = os.environ.get(
        "NETSPECTRA_ROGET_PATH",
        os.path.join(os.path.dirname(__file__), "..", "data", "roget.edges"),
    )
    if not os.path.exists(path):
        print("\n[criterion 10] SKIP: Roget dataset not present "
              "(set NETSPECTRA_ROGET_PATH to enable)")
        pytest.skip("Roget dataset not available")
    start = time.perf_counter()
    graph = load_edge_list(path)
    assert graph.n_nodes == 1022
    spec = checked_spectrum(GoogleMatrix.from_graph(graph, 1.0).to_dense())
    elapsed = time.perf_counter() - start
    report = degeneracy_clusters(spec, tol=1e-8)
    unit = [c for c in report.clusters if abs(c.representative - 1.0) <= 1e-6]
    assert unit and unit[0].multiplicity == 18
    assert elapsed < 60.0
    print(f"\n[criterion 10] PASS: Roget lambda=1 multiplicity 18 "
          f"in {elapsed:.1f}s")


def test_c11_truncation_consistency():
    graph = ring_plus_random(300, seed=300)
    cmp = truncated_spectrum_compare(graph, 0.85, [300, 200, 150, 60, 7])
    full_again = cmp.results[0]
    err = _greedy_pair_error(full_again.spectrum.eigenvalues, cmp.full.eigenvalues)
    assert err <= 1e-8
    for res in cmp.results:
        assert abs(res.spectrum.eigenvalues[0] - 1.0) <= 1e-10
    print(f"\n[criterion 11] PASS: m=N eigenvalue multiset error {err:.2e}; "
          f"leading eigenvalue 1 for all truncation sizes")
