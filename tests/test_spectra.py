import io
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.sparse import coo_matrix, csc_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree
from scipy.spatial.distance import directed_hausdorff, pdist

from netspectra.genmodels import AbParams, AlParams, ColorParams, generate_ab, generate_al, generate_color
from netspectra.gmatrix import GoogleMatrix, scc_order
from netspectra.netcore import DirectedGraph
from netspectra.ranking import pagerank_power, participation_ratio
from netspectra.spectra import (
    DEGENERACY_TOL,
    EIG_TOL,
    _diagonal_blocks,
    ZERO_MODE_CUTOFF,
    EigensolverError,
    cloud_hausdorff,
    degeneracy_clusters,
    degeneracy_to_csv,
    dense_memory_bytes,
    density_of_states,
    dos_to_csv,
    eigendecompose,
    eigenvector_pars,
    eigenvector_pars_to_csv,
    operator_spectrum,
    relaxation_rates,
    spectrum_to_csv,
    truncated_spectrum_compare,
)

from helpers import (
    ScalingCheckError,
    _greedy_pair_error,
    alpha_scaling_check,
    benchmark_graph,
    closed_class_count,
    closed_classes,
    communities,
    complete_graph,
    degeneracy_clusters_reference,
    directed_cycle,
    leaky_pairs,
    lumped_columns,
    random_small_graph,
    repeated_rows_at_least,
    rest_repeated_columns,
    ring_plus_random,
    sparse_random,
    spectrum_from_eigenvalues,
    strong_components,
    two_cycle,
)


def spectrum_of(graph, alpha):
    return eigendecompose(GoogleMatrix.from_graph(graph, alpha).to_dense())


def partition(groups):
    return {frozenset(int(i) for i in g) for g in groups}


@st.composite
def near_tol_chains(draw):
    """2-12 points in units of the tolerance, each placed from an earlier
    point by a step of zero (an exact degeneracy), under 0.3, just below one
    unit or above it, so chains of near-tol gaps decide the clusters."""
    pts = [0j]
    for _ in range(draw(st.integers(1, 11))):
        anchor = pts[draw(st.integers(0, len(pts) - 1))]
        step = draw(
            st.just(0.0) | st.floats(0.0, 0.3) | st.floats(0.9, 0.98) | st.floats(1.02, 3.0)
        )
        angle = draw(st.sampled_from([0.0, np.pi / 2, np.pi]) | st.floats(0.0, 2 * np.pi))
        pts.append(anchor + step * np.exp(1j * angle))
    return np.array(pts)


def scipy_clusters(lam, tol):
    """Clusters as (representative, members), from cKDTree pairs labelled by
    connected_components, centroids and order as degeneracy_clusters defines
    them (a stable sort by multiplicity, then |representative|)."""
    n = lam.size
    pairs = cKDTree(np.column_stack([lam.real, lam.imag])).query_pairs(r=tol, output_type="ndarray")
    adjacency = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    n_comp, labels = connected_components(adjacency, directed=False)
    groups = [np.flatnonzero(labels == k) for k in range(n_comp)]
    clusters = [(complex(lam[g].mean()), g) for g in groups]
    return sorted(clusters, key=lambda c: (-c[1].size, -abs(c[0])))


def oracle_cases(rng):
    """Named eigenvalue sets for the clustering oracle at tolerance 0.0537,
    which no distance between points of the 0.1 grid comes near."""
    tol = 0.0537
    cloud = rng.random(150) + 1j * rng.random(150)
    grid = np.round(rng.random(200) * 10) / 10 + 1j * np.round(rng.random(200) * 10) / 10
    chain = np.cumsum(rng.uniform(0.3, 1.05, 120)) * tol  # steps below and above tol
    rng.shuffle(chain)
    column = 0.25 + 1j * np.cumsum(rng.uniform(0.3, 1.3, 300)) * tol  # one shared real part
    rng.shuffle(column)
    pairs = rng.random(80) + 1j * rng.uniform(0.01, 0.2, 80)
    return tol, {
        "one": np.array([0.5 + 0.1j]),
        "cloud": cloud,
        "grid with exact repeats": grid + 0.3 * (1 + 1j),
        "conjugate pairs": np.concatenate([pairs, pairs.conj(), [0.3, 0.3, 0.3 + 0.02]]),
        "chain longer than tol": chain + 0j,
        "shared real part": np.concatenate([column, column.real + 0.5j * tol]),
        "all within tol": 0.1 + (rng.random(60) + 1j * rng.random(60)) * tol / 2,
    }


class TestEigendecompose:
    def test_two_cycle(self):
        spec = spectrum_of(two_cycle(), 1.0)
        assert np.allclose(spec.eigenvalues, [1.0, -1.0], atol=1e-12)

    def test_complete_graph_analytic(self):
        spec = spectrum_of(complete_graph(5), 1.0)
        assert abs(spec.eigenvalues[0] - 1.0) <= 1e-10
        assert np.max(np.abs(spec.eigenvalues[1:] + 0.25)) <= 1e-10

    def test_three_cycle_roots_of_unity(self):
        spec = spectrum_of(directed_cycle(3), 1.0)
        expected = np.sort_complex(np.exp(2j * np.pi * np.arange(3) / 3))
        assert np.max(np.abs(np.sort_complex(spec.eigenvalues) - expected)) <= 1e-10

    def test_residual_contract(self):
        for seed, n in ((0, 40), (1, 200), (2, 500)):
            g = GoogleMatrix.from_graph(sparse_random(n, seed=seed), 0.85)
            dense = g.to_dense()
            spec = eigendecompose(dense, tol=1e-9)
            fro = np.linalg.norm(dense, "fro")
            assert spec.residuals.max() <= 1e-9 * fro

    def test_residual_contract_violation_raises(self):
        dense = GoogleMatrix.from_graph(sparse_random(60, seed=3), 0.85).to_dense()
        with pytest.raises(EigensolverError):
            eigendecompose(dense, tol=1e-18)

    def test_eigenvectors_unit_norm_and_aligned(self):
        spec = spectrum_of(sparse_random(50, seed=4), 0.85)
        norms = np.linalg.norm(spec.eigenvectors, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)
        assert spec.n == 50

    def test_sort_order(self):
        spec = spectrum_of(sparse_random(80, seed=5), 0.85)
        mags = np.abs(spec.eigenvalues)
        assert np.all(mags[:-1] >= mags[1:] - 1e-15)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eigendecompose(np.zeros((2, 3)))

    def test_one_by_one(self):
        spec = eigendecompose(np.array([[1.0]]))
        assert spec.eigenvalues.tolist() == [1.0]


class TestSpectrumInvariants:
    @pytest.mark.parametrize("alpha", [0.5, 0.85, 1.0])
    def test_unit_disk_bound(self, alpha):
        for seed in range(3):
            spec = spectrum_of(sparse_random(100, seed=seed), alpha)
            assert np.abs(spec.eigenvalues).max() <= 1.0 + 1e-8

    def test_conjugate_pairing(self):
        spec = spectrum_of(sparse_random(150, seed=6), 0.85)
        lam = spec.eigenvalues
        conj_sorted = np.sort_complex(np.conj(lam))
        assert np.max(np.abs(np.sort_complex(lam) - conj_sorted)) <= 1e-8

    def test_trace_matches_eigenvalue_sum(self):
        g = GoogleMatrix.from_graph(sparse_random(120, seed=7), 0.85)
        dense = g.to_dense()
        spec = eigendecompose(dense)
        assert abs(spec.eigenvalues.sum() - np.trace(dense)) <= 1e-8 * 120

    def test_second_eigenvalue_bounded_by_alpha(self):
        for seed in range(5):
            spec = spectrum_of(sparse_random(100, seed=seed), 0.85)
            assert abs(spec.eigenvalues[1]) <= 0.85 + 1e-8


class TestAlphaScaling:
    def test_two_cycle_scaled(self):
        spec = spectrum_of(two_cycle(), 0.85)
        assert np.allclose(spec.eigenvalues, [1.0, -0.85], atol=1e-12)

    def test_alpha_zero_rank_one(self):
        spec = spectrum_of(sparse_random(40, seed=8), 0.0)
        assert abs(spec.eigenvalues[0] - 1.0) <= 1e-10
        assert np.abs(spec.eigenvalues[1:]).max() <= 1e-10

    def test_random_graphs_pair_within_tolerance(self):
        from netspectra.gmatrix import build_stochastic

        for seed in range(5):
            s = build_stochastic(ring_plus_random(200, seed=seed))
            spec1 = eigendecompose(GoogleMatrix(s, 1.0).to_dense())
            speca = eigendecompose(GoogleMatrix(s, 0.85).to_dense())
            err = alpha_scaling_check(spec1, speca, 0.85, tol=1e-8)
            assert err <= 1e-8

    def test_violation_raises(self):
        spec1 = spectrum_of(two_cycle(), 1.0)
        speca = spectrum_of(two_cycle(), 0.5)
        with pytest.raises(ScalingCheckError):
            alpha_scaling_check(spec1, speca, 0.85, tol=1e-8)


class TestRelaxationRates:
    def test_formula_values(self):
        spec = spectrum_of(two_cycle(), 1.0)
        gammas, zero = relaxation_rates(spec)
        assert zero == 0
        assert np.allclose(sorted(gammas), [0.0, 0.0], atol=1e-12)

    def test_known_magnitudes(self):
        lam = np.array([1.0, np.exp(-1.0), 0.5])
        fake = eigendecompose(np.diag(lam))
        gammas, zero = relaxation_rates(fake)
        assert zero == 0
        assert np.allclose(sorted(gammas), [0.0, 2 * np.log(2), 2.0], atol=1e-12)

    def test_zero_modes_counted(self):
        spec = spectrum_of(sparse_random(30, seed=9), 0.0)
        gammas, zero = relaxation_rates(spec)
        assert zero == 29
        assert gammas.size == 1


class TestDensityOfStates:
    def test_all_mass_in_first_bin(self):
        gammas = np.zeros(7)
        hist = density_of_states(gammas, 0, window=1e-6)
        assert hist.zero_modes == 0.0
        assert hist.density[0] * hist.bin_width == pytest.approx(1.0, abs=1e-12)
        assert np.all(hist.density[1:] == 0.0)

    def test_complete_graph_masses(self):
        spec = spectrum_of(complete_graph(5), 1.0)
        gammas, zero = relaxation_rates(spec)
        hist = density_of_states(gammas, zero, window=0.01)
        masses = hist.density * hist.bin_width
        assert masses[0] == pytest.approx(0.2, abs=1e-12)
        peak = np.searchsorted(hist.bin_edges, 2 * np.log(4.0)) - 1
        assert masses[peak] == pytest.approx(0.8, abs=1e-12)

    def test_alpha_zero_mostly_zero_modes(self):
        spec = spectrum_of(sparse_random(25, seed=10), 0.0)
        gammas, zero = relaxation_rates(spec)
        hist = density_of_states(gammas, zero)
        assert hist.zero_modes == pytest.approx(24 / 25, abs=1e-15)
        assert hist.integrated[-1] == pytest.approx(1 / 25, abs=1e-12)

    @pytest.mark.parametrize("window", [0.05, 0.1, 0.37])
    def test_mass_conservation_with_smoothing(self, window):
        rng = np.random.default_rng(11)
        gammas = rng.exponential(2.0, size=400)
        hist = density_of_states(gammas, zero_mode_count=100, window=window)
        total = hist.density.sum() * hist.bin_width + hist.zero_modes
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_integrated_monotone_and_final_value(self):
        rng = np.random.default_rng(12)
        gammas = rng.exponential(1.5, size=300)
        hist = density_of_states(gammas, zero_mode_count=50, window=0.2)
        assert np.all(np.diff(hist.integrated) >= -1e-15)
        assert hist.integrated[-1] == pytest.approx(1.0 - hist.zero_modes, abs=1e-12)

    def test_rates_beyond_gamma_max_folded_into_last_bin(self):
        hist = density_of_states([50.0], 0, window=1e-6, gamma_max=10.0)
        assert hist.density[-1] * hist.bin_width == pytest.approx(1.0, abs=1e-12)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            density_of_states([1.0], 0, window=0.0)

    @pytest.mark.parametrize("name", ["window", "gamma_max"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan])
    def test_bad_window_or_gamma_max(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            density_of_states([1.0], 0, **{name: value})


class TestDegeneracyClusters:
    def test_complete_graph_cluster(self):
        spec = spectrum_of(complete_graph(5), 1.0)
        report = degeneracy_clusters(spec)
        assert report.clusters[0].multiplicity == 4
        assert abs(report.clusters[0].representative + 0.25) <= 1e-9
        assert sum(c.multiplicity for c in report.clusters) == 5

    def test_two_cycle_singletons(self):
        report = degeneracy_clusters(spectrum_of(two_cycle(), 1.0))
        assert [c.multiplicity for c in report.clusters] == [1, 1]

    def test_members_within_tolerance_of_representative(self):
        spec = spectrum_of(sparse_random(120, seed=13), 0.85)
        report = degeneracy_clusters(spec, tol=1e-8)
        lam = spec.eigenvalues
        for c in report.clusters:
            assert np.max(np.abs(lam[c.members] - c.representative)) <= 1e-8

    def test_multiplicities_partition_spectrum(self):
        spec = spectrum_of(sparse_random(90, seed=14), 0.85)
        report = degeneracy_clusters(spec)
        members = np.concatenate([c.members for c in report.clusters])
        assert sorted(members.tolist()) == list(range(90))

    def test_tolerance_merges_nearby_values(self):
        fake = eigendecompose(np.diag([0.5, 0.5 + 1e-10, 0.1]))
        report = degeneracy_clusters(fake, tol=1e-8)
        assert report.clusters[0].multiplicity == 2

    def test_grid_accelerated_path_for_large_spectra(self):
        rng = np.random.default_rng(0)
        lam = np.concatenate([
            np.full(1200, 0.25 + 0j) + rng.normal(0, 1e-12, 1200) * (1 + 1j),
            np.full(800, 0.5 + 0j) + rng.normal(0, 1e-12, 800),
            (rng.random(3000) - 0.5) * 0.1 + 1j * (rng.random(3000) - 0.5) * 0.1,
        ])
        spec = spectrum_from_eigenvalues(lam)
        report = degeneracy_clusters(spec, tol=1e-8)
        assert report.clusters[0].multiplicity == 1200
        assert abs(report.clusters[0].representative - 0.25) <= 1e-9
        assert report.clusters[1].multiplicity == 800
        assert sum(c.multiplicity for c in report.clusters) == lam.size

    def test_empty_spectrum_has_no_clusters(self):
        assert degeneracy_clusters(spectrum_from_eigenvalues([])).clusters == []

    def test_chain_past_4000_eigenvalues_stays_one_cluster(self):
        # consecutive gaps 0.24, 0.99 and 0.014 (units of tol) chain all four
        tol = 1e-8
        core = 0.5 + np.array([-0.12, 0.12, 1.11, 1.124]) * tol
        report = degeneracy_clusters(spectrum_from_eigenvalues(core), tol)
        assert [c.multiplicity for c in report.clusters] == [4]
        padded = np.concatenate([core, 10.0 + np.arange(4001)])
        report = degeneracy_clusters(spectrum_from_eigenvalues(padded), tol)
        assert report.clusters[0].multiplicity == 4
        assert report.clusters[0].members.tolist() == [0, 1, 2, 3]
        assert len(report.clusters) == 4002

    @staticmethod
    def reference_cases():
        rng = np.random.default_rng(3)
        zero = rng.normal(0, 1e-12, 100) * (1 + 1j)
        zero[::7] = 0.0
        zero[3] = -0.0
        chain = 0.5 + np.array([-0.12, 0.12, 1.11, 1.124]) * 1e-8
        return {
            "a 100-member zero cluster": np.concatenate(
                [zero, rng.random(300) - 0.5 + 1j * (rng.random(300) - 0.5), [complex(-0.0, 0.25), 0.3, 0.3]]
            ),
            "4,002 clusters": np.concatenate([chain, 10.0 + np.arange(4001)]),
            # moduli equal but for rounding, where numpy's abs and Python's differ
            "the unit circle": np.exp(2j * np.pi * rng.random(2000)),
            "a damped spectrum": spectrum_of(sparse_random(200, seed=6), 0.85).eigenvalues,
        }

    @pytest.mark.parametrize("name", list(reference_cases()))
    def test_equals_one_cluster_at_a_time(self, name):
        spec = spectrum_from_eigenvalues(self.reference_cases()[name])
        report = degeneracy_clusters(spec)
        reference = degeneracy_clusters_reference(spec, DEGENERACY_TOL)
        assert len(report.clusters) == len(reference)
        for c, r in zip(report.clusters, reference):
            assert np.array([c.representative]).tobytes() == np.array([r.representative]).tobytes()
            assert c.multiplicity == r.multiplicity and type(c.multiplicity) is int
            assert c.members.tobytes() == r.members.tobytes() and c.members.dtype == r.members.dtype
        buf = io.StringIO()
        degeneracy_to_csv(report, buf)
        reps = np.array([r.representative for r in reference], dtype=np.complex128)
        expected = "".join(
            f"{x.real:.17g},{x.imag:.17g},{r.multiplicity}\n" for x, r in zip(reps, reference)
        )
        assert buf.getvalue() == f"# tolerance={DEGENERACY_TOL:.17g}\nre,im,multiplicity\n" + expected

    @settings(max_examples=300, deadline=None)
    @given(
        chain=near_tol_chains(),
        base=st.sampled_from([0.0, 0.5, -0.3 + 0.2j, 1.0]),
        pad=st.sampled_from([0, 4001]),
        pad_before=st.floats(0.0, 1.0),
    )
    def test_partition_matches_scipy_single_linkage(self, chain, base, pad, pad_before):
        tol = 1e-8
        core = base + chain * tol
        gaps = pdist(np.column_stack([core.real, core.imag]))
        assume(np.all(np.abs(gaps - tol) > 1e-6 * tol))  # no pair on the rounding edge
        oracle = fcluster(linkage(gaps, "single"), t=tol, criterion="distance")
        expected = partition(np.flatnonzero(oracle == label) for label in np.unique(oracle))

        # far-apart singletons around the core push n past 4000
        k = int(pad_before * pad)
        far = 10.0 + np.arange(pad) + 1j
        lam = np.concatenate([far[:k], core, far[k:]])
        report = degeneracy_clusters(spectrum_from_eigenvalues(lam), tol)

        # a cluster mixing core and padding would drop core points here
        core_clusters = [c for c in report.clusters if k <= c.members[0] < k + core.size]
        assert partition(c.members - k for c in core_clusters) == expected
        assert len(report.clusters) == len(expected) + pad
        assert sum(c.multiplicity for c in report.clusters) == lam.size
        for c in core_clusters:
            assert c.multiplicity == c.members.size
            assert np.all(np.diff(c.members) > 0)
            assert c.representative == complex(lam[c.members].mean())
        keys = [(-c.multiplicity, -abs(c.representative)) for c in report.clusters]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("batch", [1 << 20, 7])
    def test_clusters_match_kdtree_pairs_and_connected_components(self, monkeypatch, batch):
        import netspectra.spectra as spectra

        monkeypatch.setattr(spectra, "_PAIR_BATCH", batch)  # 7: one to a few rows per batch
        tol, cases = oracle_cases(np.random.default_rng(41))
        for name, lam in cases.items():
            report = degeneracy_clusters(spectrum_from_eigenvalues(lam), tol)
            expected = scipy_clusters(lam, tol)
            assert len(report.clusters) == len(expected), name
            for c, (rep, members) in zip(report.clusters, expected):
                assert c.representative == rep, name
                assert c.multiplicity == members.size, name
                assert c.members.tolist() == members.tolist(), name

    def test_sweep_runs_along_the_axis_with_fewer_candidates(self, monkeypatch):
        import netspectra.spectra as spectra

        monkeypatch.setattr(spectra, "_PAIR_BATCH", 50)
        tol = 1e-8
        column = 0.3 + 1j * np.arange(400) * 2 * tol  # shared real part, no pair within tol
        batches = list(spectra._near_pairs(column, tol))
        assert sum(a.size for a, _ in batches) == 0
        # along x every later point is a candidate (79,800 of them); along y none is
        assert len(batches) == 1


class TestUnitEigenvalueMultiplicity:
    """At alpha = 1 the multiplicity of lambda = 1 equals the number of closed
    strongly connected classes of S."""

    @staticmethod
    def unit_multiplicity(graph):
        report = degeneracy_clusters(operator_spectrum(GoogleMatrix.from_graph(graph, 1.0)))
        near = [c for c in report.clusters if abs(c.representative - 1.0) <= 1e-8]
        return sum(c.multiplicity for c in near)

    @pytest.mark.parametrize("seed", range(4))
    def test_color_graphs_without_cross_links(self, seed):
        graph, colors = generate_color(
            ColorParams(ab=AbParams(n_target=240, seed=seed), eta=0.03, epsilon=0.0)
        )
        assert np.unique(colors).size > 3
        classes = closed_class_count(graph)
        assert classes >= 1
        assert self.unit_multiplicity(graph) == classes

    def test_random_small_graphs(self):
        counts = []
        for seed in range(60):
            graph = random_small_graph(seed)
            classes = closed_class_count(graph)
            assert self.unit_multiplicity(graph) == classes, seed
            counts.append(classes)
        assert max(counts) >= 4  # the sample holds degenerate cases

    def test_class_reaching_a_dangling_node_is_not_closed(self):
        graph = leaky_pairs()
        assert closed_class_count(graph) == 1
        assert self.unit_multiplicity(graph) == 1


class TestEigenvectorPars:
    def test_complete_graph_leading_vector_uniform(self):
        spec = spectrum_of(complete_graph(6), 1.0)
        gammas, pars = eigenvector_pars(spec)
        assert pars[0] == pytest.approx(6.0, abs=1e-9)
        assert gammas[0] == pytest.approx(0.0, abs=1e-12)

    def test_two_cycle_antisymmetric_vector(self):
        spec = spectrum_of(two_cycle(), 1.0)
        gammas, pars = eigenvector_pars(spec)
        assert np.allclose(pars, [2.0, 2.0], atol=1e-12)

    def test_bounds(self):
        spec = spectrum_of(sparse_random(70, seed=15), 0.85)
        _, pars = eigenvector_pars(spec)
        assert np.all(pars >= 1.0 - 1e-9)
        assert np.all(pars <= 70.0 + 1e-9)

    def test_zero_modes_excluded(self):
        spec = spectrum_of(sparse_random(30, seed=16), 0.0)
        gammas, pars = eigenvector_pars(spec)
        assert gammas.size == pars.size == 1


def similar_to(diagonal_blocks, seed):
    """``Q B Q^-1`` for the block-diagonal B and a random well-conditioned
    Q: a non-normal matrix with B's eigenvalues, multiplicities included."""
    b = scipy.linalg.block_diag(*diagonal_blocks)
    rng = np.random.default_rng(seed)
    q = np.eye(b.shape[0]) + 0.3 * rng.standard_normal(b.shape)
    return q @ b @ np.linalg.inv(q)


def rotation(a, b):
    return np.array([[a, -b], [b, a]])


def packed_core_cases():
    """Real, complex, repeated and zero eigenvalues."""
    color, _ = generate_color(ColorParams(ab=AbParams(n_target=200, seed=4)))
    return {
        "distinct 0.85": GoogleMatrix.from_graph(ring_plus_random(120, seed=3), 0.85).to_dense(),
        "random 0.85": GoogleMatrix.from_graph(sparse_random(120, seed=8), 0.85).to_dense(),
        "colour 1.0": GoogleMatrix.from_graph(color, 1.0).to_dense(),
        "rank one": GoogleMatrix.from_graph(sparse_random(40, seed=9), 0.0).to_dense(),
        "real repeated and zero": similar_to([np.diag([2.0, 2.0, 0.0, 0.0, -1.0, 0.5])], 1),
        "complex repeated and zero": similar_to(
            [rotation(0.3, 0.8), rotation(0.3, 0.8), np.zeros((2, 2)), np.diag([0.9])], 2
        ),
    }


def scipy_sorted(matrix):
    """scipy's eigenvalues and column-normalized eigenvectors in the
    Spectrum order."""
    lam, vecs = scipy.linalg.eig(matrix)
    order = np.lexsort((lam.imag, -lam.real, -np.abs(lam)))
    return lam[order], (vecs / np.linalg.norm(vecs, axis=0))[:, order]


def complex_residuals(matrix, spec):
    vecs = spec.eigenvectors
    return np.linalg.norm(matrix @ vecs - vecs * spec.eigenvalues, axis=0)


# the packed core cases whose matrices repeat a column, so they are lumped
LUMPED_CASES = ("random 0.85", "colour 1.0", "rank one")


def distinct_column_count(matrix):
    return np.unique(matrix, axis=1).shape[1]


class TestPackedCore:
    """The packed real eigenvectors against complex arithmetic on scipy's
    unpacked ones."""

    @pytest.mark.parametrize("name", [k for k in packed_core_cases() if k not in LUMPED_CASES])
    def test_against_scipy_and_complex_residual(self, name):
        matrix = packed_core_cases()[name]
        spec = eigendecompose(matrix)
        assert spec.lumped == 0 and distinct_column_count(matrix) == matrix.shape[0]
        lam, vecs = scipy_sorted(matrix)
        assert spec.eigenvalues.tobytes() == lam.tobytes()
        assert spec.eigenvectors.dtype == vecs.dtype
        assert spec.eigenvectors.tobytes() == vecs.tobytes()
        fro = np.linalg.norm(matrix, "fro")
        eps = np.finfo(float).eps
        oracle = complex_residuals(matrix, spec)
        assert np.max(np.abs(spec.residuals - oracle)) <= 4 * eps * fro
        assert spec.residuals.max() <= EIG_TOL * fro

    @pytest.mark.parametrize("name", LUMPED_CASES)
    def test_lumped_against_scipy_and_complex_residual(self, name):
        matrix = packed_core_cases()[name]
        n = matrix.shape[0]
        spec = eigendecompose(matrix)
        assert spec.lumped == n - distinct_column_count(matrix) > 0
        assert np.sum(spec.eigenvalues == 0.0) >= spec.lumped
        far = [lam[np.abs(lam) > 1e-3] for lam in (spec.eigenvalues, scipy.linalg.eig(matrix)[0])]
        assert far[0].size == far[1].size
        assert _greedy_pair_error(*far) <= 1e-8  # multiple eigenvalues at 1 and -1 split
        fro = np.linalg.norm(matrix, "fro")
        oracle = complex_residuals(matrix, spec)
        assert np.max(np.abs(spec.residuals - oracle)) <= 4 * np.finfo(float).eps * fro
        assert spec.residuals.max() <= EIG_TOL * fro

    def test_lumped_null_vectors_are_exact(self):
        matrix = packed_core_cases()["random 0.85"]
        spec = eigendecompose(matrix)
        zero = np.flatnonzero(spec.eigenvalues == 0.0)
        vecs = spec.eigenvectors[:, zero]
        # e_j - e_rep(j) up to the norm: two entries of opposite sign, PAR 2
        pairs = vecs[:, np.sum(vecs != 0, axis=0) == 2]
        assert pairs.shape[1] >= spec.lumped
        for col in pairs.T:
            j, r = np.flatnonzero(col)
            assert col[j] == -col[r] and np.array_equal(matrix[:, j], matrix[:, r])
        assert np.all(spec.pars[zero][np.sum(vecs != 0, axis=0) == 2] == 2.0)
        assert np.all(spec.residuals[zero][np.sum(vecs != 0, axis=0) == 2] == 0.0)

    def test_dependent_distinct_columns_lift_through_the_representatives(self):
        # column 3 repeats column 0, and c2 = (c0 + c1)/2, so the lumped
        # matrix has a null vector s = (1, 1, -2) with C s = 0: its lift is
        # s on the representatives, not the zero vector C s
        c0, c1 = np.array([0.5, 0.5, 0.0, 0.0]), np.array([0.0, 0.0, 0.5, 0.5])
        matrix = np.column_stack([c0, c1, (c0 + c1) / 2, c0])
        spec = eigendecompose(matrix)
        assert spec.lumped == 1
        norms = np.linalg.norm(spec.eigenvectors, axis=0)
        assert np.all(norms > 0.5)
        fro = np.linalg.norm(matrix, "fro")
        assert complex_residuals(matrix, spec).max() <= EIG_TOL * fro
        assert spec.residuals.max() <= EIG_TOL * fro
        far = [lam[np.abs(lam) > 1e-3] for lam in (spec.eigenvalues, scipy.linalg.eig(matrix)[0])]
        assert _greedy_pair_error(*far) <= 1e-14 and far[0].size == 2
        lift = np.array([1.0, 1.0, -2.0, 0.0]) / np.sqrt(6.0)
        assert any(abs(abs(np.vdot(v, lift)) - 1.0) <= 1e-12 for v in spec.eigenvectors.T)

    def test_cases_cover_each_kind_of_eigenvalue(self):
        lam = np.concatenate([eigendecompose(m).eigenvalues for m in packed_core_cases().values()])
        assert np.any(lam.imag != 0) and np.any(lam.imag == 0)
        assert np.any(np.abs(lam) < ZERO_MODE_CUTOFF)
        spec = eigendecompose(packed_core_cases()["complex repeated and zero"])
        assert np.sum(np.abs(spec.eigenvalues - (0.3 + 0.8j)) < 1e-6) == 2

    def test_pair_on_a_block_boundary(self, monkeypatch):
        from netspectra import spectra

        matrix = packed_core_cases()["random 0.85"]
        n = matrix.shape[0]
        whole = eigendecompose(matrix)
        j = int(np.flatnonzero(whole.pair_first)[3])  # first column of a pair
        blocks = []
        certify = spectra._certify_block

        def recorded(product, vb, wr, wi, first):
            blocks.append(first)
            return certify(product, vb, wr, wi, first)

        monkeypatch.setattr(spectra, "_certify_block", recorded)
        monkeypatch.setattr(spectra, "_block_columns", lambda n: j + 1)
        spec = eigendecompose(matrix)
        assert blocks[0].size == j + 2  # widened by one column to keep the pair
        assert sum(b.size for b in blocks) == n and len(blocks) > 2
        assert not any(b[-1] for b in blocks)
        assert spec.eigenvalues.tobytes() == whole.eigenvalues.tobytes()
        # every norm and PAR sum runs along one column, whatever the blocking
        assert spec.pars.tobytes() == whole.pars.tobytes()
        eps = np.finfo(float).eps
        fro = np.linalg.norm(matrix, "fro")
        assert np.max(np.abs(spec.residuals - complex_residuals(matrix, spec))) <= 4 * eps * fro

    @staticmethod
    def patched_dgeev(monkeypatch, change):
        from netspectra import spectra

        dgeev = spectra.lapack.dgeev

        def patched(*args, **kwargs):
            return change(*dgeev(*args, **kwargs))

        monkeypatch.setattr(spectra.lapack, "dgeev", patched)

    def test_input_layouts_agree(self):
        matrix = packed_core_cases()["random 0.85"]
        strided = np.repeat(np.repeat(matrix, 2, axis=0), 2, axis=1)[::2, ::2]
        specs = [eigendecompose(m) for m in (matrix, np.asfortranarray(matrix), strided)]
        fro = np.linalg.norm(matrix, "fro")
        for spec in specs:
            assert spec.eigenvalues.tobytes() == specs[0].eigenvalues.tobytes()
            assert spec.pars.tobytes() == specs[0].pars.tobytes()
            assert spec.residuals.max() <= 8 * np.finfo(float).eps * fro

    @pytest.mark.parametrize("name", ["distinct 0.85", "complex repeated and zero"])
    def test_residual_formula_off_rounding_level(self, name, monkeypatch):
        # perturbed vectors give residuals far above rounding, where the
        # packed formula must match complex arithmetic to many digits
        rng = np.random.default_rng(5)

        def perturbed(wr, wi, vl, vr, info):
            return wr, wi, vl, vr + 1e-6 * rng.standard_normal(vr.shape), info

        self.patched_dgeev(monkeypatch, perturbed)
        matrix = packed_core_cases()[name]
        spec = eigendecompose(matrix, tol=1.0)
        oracle = complex_residuals(matrix, spec)
        assert oracle.min() > 1e-8
        np.testing.assert_allclose(spec.residuals, oracle, rtol=1e-8)

    def test_zero_eigenvector_raises(self, monkeypatch):
        zeroed = []

        def zero_column(wr, wi, vl, vr, info):
            zeroed.append(int(np.flatnonzero(wi == 0)[-1]))  # a real eigenvalue's column
            vr[:, zeroed[-1]] = 0.0
            return wr, wi, vl, vr, info

        self.patched_dgeev(monkeypatch, zero_column)
        with pytest.raises(EigensolverError, match="zero eigenvector at index") as err:
            eigendecompose(packed_core_cases()["distinct 0.85"])
        assert str(err.value).endswith(f"index {zeroed[0]}")

    def test_wrong_eigenvector_fails_the_contract(self, monkeypatch):
        def swapped(wr, wi, vl, vr, info):
            real = np.flatnonzero(wi == 0)[:2]
            vr[:, real] = vr[:, real[::-1]]
            return wr, wi, vl, vr, info

        self.patched_dgeev(monkeypatch, swapped)
        with pytest.raises(EigensolverError, match="residual .* exceeds"):
            eigendecompose(packed_core_cases()["random 0.85"])

    def test_nan_eigenvector_fails_the_contract(self, monkeypatch):
        # a nan residual fails every comparison, so it must fail the contract
        def poisoned(wr, wi, vl, vr, info):
            vr[0, 0] = np.nan
            return wr, wi, vl, vr, info

        self.patched_dgeev(monkeypatch, poisoned)
        with pytest.raises(EigensolverError, match="residual nan at index 0 exceeds"):
            eigendecompose(np.random.default_rng(6).random((6, 6)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_large_entries_meet_the_contract(self, scale):
        # ||M||_F and every residual are representable, though their squares
        # are not: the norm is BLAS nrm2 and each residual column is scaled
        unit = np.random.default_rng(7).random((5, 5))
        spec, plain = eigendecompose(scale * unit), eigendecompose(unit)
        assert spec.fro == pytest.approx(scale * plain.fro, rel=1e-15)
        assert 0 < spec.residuals.max() <= EIG_TOL * spec.fro
        np.testing.assert_allclose(spec.eigenvalues / scale, plain.eigenvalues, rtol=0, atol=1e-14 * plain.fro)
        np.testing.assert_allclose(spec.pars, plain.pars, rtol=1e-12)

    def test_overflowing_norm_fails_the_contract(self):
        # ||M||_F overflows to inf, under which an infinite residual would pass
        matrix = 1e308 * np.random.default_rng(7).random((5, 5))
        assert np.isfinite(matrix).all()
        with pytest.raises(EigensolverError, match=r"\|\|M\|\|_F = inf is not finite"):
            eigendecompose(matrix)

    def test_qr_failure_raises(self, monkeypatch):
        self.patched_dgeev(monkeypatch, lambda wr, wi, vl, vr, info: (wr, wi, vl, vr, 7))
        with pytest.raises(EigensolverError, match="failed to converge"):
            eigendecompose(np.eye(3))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            eigendecompose(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_eigenvalues_only_spectrum_has_no_vectors(self):
        spec = spectrum_from_eigenvalues([0.5, 0.25j])
        assert spec.n == 2 and np.isnan(spec.pars).all()
        with pytest.raises(ValueError, match="no eigenvectors"):
            spec.eigenvectors

    @staticmethod
    def structure_operators(n):
        """An operator with nothing split or lumped, one with columns and rows
        lumped, and the community graph's S, whose closed classes are solved
        apart."""
        return {
            "whole": GoogleMatrix.from_graph(ring_plus_random(n, seed=3), 0.85),
            "lumped": GoogleMatrix.from_graph(sparse_random(n, seed=10), 0.85),
            "classes apart": GoogleMatrix.from_graph(communities(n, 16, seed=0), 1.0),
        }

    @classmethod
    def structure_cases(cls, n):
        """The dense matrices of :meth:`structure_operators`, the last in
        block order."""
        cases = {name: g.to_dense() for name, g in cls.structure_operators(n).items()}
        g = cls.structure_operators(n)["classes apart"]
        rows = scc_order(g.s)
        cases["classes apart"] = g.to_dense()[np.ix_(rows, rows)]
        return cases

    @pytest.mark.parametrize("case", ["whole", "lumped", "classes apart"])
    def test_traced_peak_bytes_per_entry(self, case):
        # the packed eigenvectors and dgeev's copy of the matrix it sees are
        # 16 B/N^2; the complex path this replaced peaked at 48.5.  Measured:
        # 20.3 whole, 16.1 lumped and 12.1 with the classes apart.
        n = 256
        matrix = self.structure_cases(n)[case]
        tracemalloc.start()
        try:
            spec = eigendecompose(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.n == n
        assert (spec.lumped > 0, spec.apart > 0) == (case == "lumped", case == "classes apart")
        assert peak <= 26 * n * n

    @pytest.mark.parametrize("case", ["whole", "lumped", "classes apart"])
    def test_operator_spectrum_traced_peak_is_the_preflight_bound(self, case):
        # everything operator_spectrum allocates, from the sparse operator
        # on, with no dense S or G: dgeev's copy of the core and its
        # eigenvectors (16 B/N^2 at most) beside its workspace of 130 N
        # doubles, which is 4.1 B/N^2 at N = 256 and 1.0 at N = 1,024.
        # Measured: 20.8 whole, 16.4 lumped, 12.7 classes apart
        n = 256
        g = self.structure_operators(n)[case]
        tracemalloc.start()
        try:
            spec = operator_spectrum(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.n == n
        work = scipy.linalg.lapack.dgeev_lwork(n, compute_vl=0, compute_vr=1)[0]
        assert peak <= 18 * n * n + 8 * work
        assert peak <= dense_memory_bytes(n)

    @pytest.mark.parametrize(
        "name", [*packed_core_cases(), "classes apart", "lumped, C order"]
    )
    def test_input_left_unchanged(self, name):
        if name == "classes apart":
            matrix = self.structure_cases(256)[name]
        elif name == "lumped, C order":
            matrix = np.ascontiguousarray(packed_core_cases()["random 0.85"])
        else:
            matrix = packed_core_cases()[name]
        before = matrix.tobytes(order="A")
        spec = eigendecompose(matrix)
        assert (spec.lumped > 0) == (name in (*LUMPED_CASES, "lumped, C order"))
        assert (spec.apart > 0) == (name == "classes apart")
        assert matrix.tobytes(order="A") == before


class TestParColumnPass:
    """One participation-ratio pass over all eigenvectors gives exactly the
    ratio of each column taken on its own."""

    @staticmethod
    def spectra():
        color, _ = generate_color(ColorParams(ab=AbParams(n_target=300, seed=1)))
        return [
            spectrum_of(color, 0.85),
            spectrum_of(color, 1.0),
            spectrum_of(sparse_random(40, seed=3), 0.0),
        ]

    def test_equals_scalar_ratio_per_column(self):
        # the packed pass sums |u|^2 + |v|^2 of unnormalized columns, the
        # oracle |psi|^2 of normalized complex ones: both sums are pairwise,
        # so they agree to a few ulps (measured at most 4 eps)
        rtol = 64 * np.finfo(float).eps
        specs = self.spectra()
        for spec in specs[:2]:  # conjugate pairs
            assert np.sum(spec.eigenvalues.imag > 0) == np.sum(spec.eigenvalues.imag < 0) > 0
        for spec in specs:
            finite = np.abs(spec.eigenvalues) >= ZERO_MODE_CUTOFF
            assert not finite.all()  # zero modes
            vecs = spec.eigenvectors
            scalar = np.array([participation_ratio(vecs[:, i]) for i in range(spec.n)])
            assert np.array_equal(participation_ratio(vecs), scalar)
            # the solver's columns are contiguous; the row-major copy's are strided
            assert np.array_equal(participation_ratio(np.ascontiguousarray(vecs)), scalar)
            np.testing.assert_allclose(spec.pars, scalar, rtol=rtol, atol=0)
            # every reader shares the one pass exactly
            assert np.array_equal(eigenvector_pars(spec)[1], spec.pars[finite])
            buf = io.StringIO()
            spectrum_to_csv(spec, buf)
            column = [line.split(",")[4] for line in buf.getvalue().splitlines()[1:]]
            assert column == ["%.17g" % x for x in spec.pars]

    def test_spectrum_command_computes_pars_once(self, tmp_path, monkeypatch):
        from netspectra import spectra
        from netspectra.cli import main

        blocks = []
        certify = spectra._certify_block

        def counted(product, vb, *rest):
            blocks.append(vb.shape[1])
            return certify(product, vb, *rest)

        monkeypatch.setattr(spectra, "_certify_block", counted)
        path = tmp_path / "g.edges"
        path.write_text("".join(f"{i} {(i + k) % 12}\n" for i in range(12) for k in (1, 5)))
        assert main(["spectrum", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        # one pass over the 12 columns, in blocks of 2 widened to keep a pair
        assert sum(blocks) == 12 and max(blocks) <= 3 and len(blocks) > 1
        spec = spectrum_of(sparse_random(30, seed=2), 0.85)
        assert spec.pars is spec.pars and not spec.pars.flags.writeable

    def test_one_dimensional_input_returns_float(self):
        assert isinstance(participation_ratio(np.ones(3)), float)
        assert participation_ratio(np.ones((3, 2))).tolist() == [3.0, 3.0]

    def test_zero_column_rejected(self):
        vecs = np.eye(4, dtype=np.complex128)
        vecs[:, 2] = 0
        with pytest.raises(ValueError, match="zero vector"):
            participation_ratio(vecs)


def multi_block_cases():
    """Graphs whose S at alpha = 1 has several diagonal blocks."""
    color, _ = generate_color(
        ColorParams(ab=AbParams(n_target=240, seed=1), eta=0.03, epsilon=0.0)
    )
    return {
        "colour without cross links": color,
        "leaky pairs": leaky_pairs(),
        "sparse without dangling nodes": sparse_random(120, seed=12, lo=1, hi=2, dangling_frac=0),
        **{f"random small {seed}": random_small_graph(seed) for seed in (1, 4, 8, 11)},
    }


class TestOperatorSpectrum:
    """The spectrum of S in strongly-connected-component order, checked on
    the operator in node order."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", list(multi_block_cases()))
    def test_complex_residual_on_the_unpermuted_operator(self, name):
        graph = multi_block_cases()[name]
        g = GoogleMatrix.from_graph(graph, 1.0)
        spec = operator_spectrum(g)
        assert spec.blocks == len(strong_components(graph)) > 1
        matrix = g.to_dense()
        oracle = complex_residuals(matrix, spec)
        assert oracle.max() <= EIG_TOL * np.linalg.norm(matrix, "fro")
        assert np.allclose(np.linalg.norm(spec.eigenvectors, axis=0), 1.0, atol=1e-12)

    @pytest.mark.parametrize("name", list(multi_block_cases()))
    def test_trace_and_residual_contract(self, name):
        g = GoogleMatrix.from_graph(multi_block_cases()[name], 1.0)
        spec = operator_spectrum(g)
        matrix = g.to_dense()
        assert abs(spec.eigenvalues.sum() - np.trace(matrix)) <= 1e-9 * g.n
        assert spec.residuals.max() <= EIG_TOL * np.linalg.norm(matrix, "fro")

    @pytest.mark.parametrize(
        "graph, alpha",
        [
            (ring_plus_random(80, seed=2), 1.0),  # one component: identity order
            (leaky_pairs(), 1.0),  # several components already in order
        ],
    )
    def test_one_block_or_identity_order_is_bitwise_unchanged(self, graph, alpha):
        g = GoogleMatrix.from_graph(graph, alpha)
        spec, plain = operator_spectrum(g), eigendecompose(g.to_dense())
        assert np.array_equal(spec.rows, np.arange(g.n))
        for field in ("eigenvalues", "pars", "packed", "order", "pair_first"):
            assert getattr(spec, field).tobytes() == getattr(plain, field).tobytes(), field
        assert spec.eigenvectors.tobytes() == plain.eigenvectors.tobytes()
        # the residuals of the sparse product and of the dense GEMM
        assert np.max(np.abs(spec.residuals - plain.residuals)) <= 1e-15 * plain.fro

    @pytest.mark.parametrize("name", list(multi_block_cases()))
    def test_alpha_one_is_the_block_ordered_decomposition_of_s(self, name):
        g = GoogleMatrix.from_graph(multi_block_cases()[name], 1.0)
        spec = operator_spectrum(g)
        plain = eigendecompose(g.to_dense()[np.ix_(spec.rows, spec.rows)])
        for field in ("eigenvalues", "pars", "packed", "order", "pair_first"):
            assert getattr(spec, field).tobytes() == getattr(plain, field).tobytes(), field
        assert np.max(np.abs(spec.residuals - plain.residuals)) <= 1e-15 * plain.fro

    @staticmethod
    def damped_cases():
        return {**multi_block_cases(), "one component": ring_plus_random(120, seed=5)}

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.85, 0.99])
    @pytest.mark.parametrize("name", list(damped_cases()))
    def test_damped_spectrum_against_the_direct_decomposition(self, name, alpha):
        # the direct solve of the unstructured G spreads the defective
        # lambda = 0 cluster of S (to |lambda| of about 1e-3 on these
        # graphs), so only eigenvalues away from it are paired
        graph = self.damped_cases()[name]
        g = GoogleMatrix.from_graph(graph, alpha)
        spec = operator_spectrum(g)
        assert spec.blocks == len(strong_components(graph))
        matrix = g.to_dense()
        direct = eigendecompose(matrix).eigenvalues
        far = [lam[np.abs(lam) > 0.05] for lam in (spec.eigenvalues, direct)]
        assert far[0].size == far[1].size
        assert _greedy_pair_error(*far) <= 1e-8
        fro = np.linalg.norm(matrix, "fro")
        assert complex_residuals(matrix, spec).max() <= EIG_TOL * fro
        assert spec.residuals.max() <= EIG_TOL * fro
        assert abs(spec.eigenvalues.sum() - np.trace(matrix)) <= 1e-12 * g.n
        assert spec.eigenvalues[0] == 1.0

    @pytest.mark.parametrize("alpha", [0.5, 0.85, 0.99])
    @pytest.mark.parametrize("name", list(damped_cases()))
    def test_alpha_multiplicity_is_closed_classes_minus_one(self, name, alpha):
        graph = self.damped_cases()[name]
        spec = operator_spectrum(GoogleMatrix.from_graph(graph, alpha))
        classes = closed_class_count(graph)
        assert spec.closed == classes
        clusters = degeneracy_clusters(spec).clusters
        at = {x: sum(c.multiplicity for c in clusters if abs(c.representative - x) <= 1e-8)
              for x in (1.0, alpha)}
        assert at == {1.0: 1, alpha: classes - 1}

    @pytest.mark.parametrize("name", list(damped_cases()))
    def test_leading_eigenvector_is_networkx_pagerank(self, name):
        nx = pytest.importorskip("networkx")
        graph = self.damped_cases()[name]
        spec = operator_spectrum(GoogleMatrix.from_graph(graph, 0.85))
        g = nx.DiGraph()
        g.add_nodes_from(range(graph.n_nodes))
        g.add_edges_from(graph.edges.tolist())
        ref = nx.pagerank(g, alpha=0.85, tol=1e-17, max_iter=100_000)
        ref = np.array([ref[u] for u in range(graph.n_nodes)])
        lead = spec.eigenvectors[:, 0]
        assert np.all(lead.imag == 0)
        assert np.abs(lead.real / lead.real.sum() - ref).sum() <= 1e-9

    def test_alpha_zero_writes_no_negative_zero(self):
        # pairs, negative and zero eigenvalues of S all scale to 0
        graph = multi_block_cases()["colour without cross links"]
        spec = operator_spectrum(GoogleMatrix.from_graph(graph, 0.0))
        lam1 = operator_spectrum(GoogleMatrix.from_graph(graph, 1.0)).eigenvalues
        assert np.any(lam1.imag != 0) and np.any(lam1.real < 0)
        buf = io.StringIO()
        spectrum_to_csv(spec, buf)
        cells = [c for line in buf.getvalue().splitlines()[1:] for c in line.split(",")]
        assert "-0" not in cells
        assert np.array_equal(np.unique(spec.eigenvalues), [0.0, 1.0])

    @staticmethod
    def lumped_cases():
        return {
            **{f"sparse {seed}": sparse_random(150, seed=seed) for seed in (1, 2, 3)},
            **{f"random small {seed}": random_small_graph(seed) for seed in (1, 4, 8)},
        }

    @pytest.mark.parametrize("alpha", [1.0, 0.85])
    @pytest.mark.parametrize("name", list(lumped_cases()))
    def test_lumped_spectrum_against_scipy_and_the_edge_list(self, name, alpha):
        graph = self.lumped_cases()[name]
        g = GoogleMatrix.from_graph(graph, alpha)
        spec = operator_spectrum(g)
        # every case repeats a column of the rest; "random small 4" repeats
        # one of 19, too few to be lumped
        assert rest_repeated_columns(graph) > 0
        assert spec.lumped == lumped_columns(graph)
        assert np.sum(spec.eigenvalues == 0.0) >= spec.lumped + spec.lumped_rows
        matrix = g.to_dense()
        # scipy's solve of the whole matrix spreads its defective cluster at
        # 0 to |lambda| of about 2e-3 on these graphs
        far = [lam[np.abs(lam) > 0.05] for lam in (spec.eigenvalues, scipy.linalg.eig(matrix)[0])]
        assert far[0].size == far[1].size
        assert _greedy_pair_error(*far) <= 1e-8
        assert abs(spec.eigenvalues.sum() - np.trace(matrix)) <= 1e-12 * g.n
        fro = np.linalg.norm(matrix, "fro")
        assert complex_residuals(matrix, spec).max() <= EIG_TOL * fro
        assert spec.residuals.max() <= EIG_TOL * fro

    def test_short_lift_keeps_a_finite_par(self):
        # a lumped matrix's eigenvalue of about 1e-117 lifts to a vector
        # whose entries' fourth powers underflow
        graph, _ = generate_color(ColorParams(ab=AbParams(n_target=240, seed=5)))
        spec = operator_spectrum(GoogleMatrix.from_graph(graph, 1.0))
        assert spec.lumped > 0
        assert np.all(np.isfinite(spec.pars)) and np.all(spec.pars >= 1.0)

    def test_eigenvectors_gather_rows_and_columns_at_once(self):
        # the unpacked vectors are bitwise those of gathering the rows into
        # node order first, without that gather's extra 8 bytes per entry
        def rows_first(spec):
            packed = spec.packed[np.argsort(spec.rows)]
            first = np.flatnonzero(spec.pair_first)
            vecs = packed.astype(np.complex128 if first.size else np.float64, order="F")
            if first.size:
                vecs.imag[:, first] = packed[:, first + 1]
                vecs[:, first + 1] = vecs[:, first].conj()
            vecs /= np.linalg.norm(vecs, axis=0)
            return vecs[:, spec.order]

        permuted = 0
        for graph in multi_block_cases().values():
            spec = operator_spectrum(GoogleMatrix.from_graph(graph, 0.85))
            permuted += not np.array_equal(spec.rows, np.arange(graph.n_nodes))
            assert spec.eigenvectors.tobytes() == rows_first(spec).tobytes()
        assert permuted >= 3
        n = 512
        spec = operator_spectrum(GoogleMatrix.from_graph(ring_plus_random(n, seed=2), 0.85))
        assert spec.pair_first.any()
        tracemalloc.start()
        try:
            spec.eigenvectors
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the complex result, 16 B/N^2, and one column block's gathers and
        # norm temporaries; measured 19.07
        assert peak <= 19.1 * n * n

    def test_truncation_at_alpha_one_uses_the_block_order(self):
        graph = multi_block_cases()["colour without cross links"]
        cmp = truncated_spectrum_compare(graph, 1.0, [200, 120])
        assert cmp.full.blocks == len(strong_components(graph))
        for res in cmp.results:
            inside = np.isin(graph.edges, res.kept).all(axis=1)
            sub = DirectedGraph(n_nodes=res.m, edges=np.searchsorted(res.kept, graph.edges[inside]))
            assert res.spectrum.blocks == len(strong_components(sub))
            assert abs(res.spectrum.eigenvalues[0] - 1.0) <= 1e-9


def certification_cases():
    """The benchmark's scale-free and community graphs, the paper's AB and
    AL models at N = 1,024, and a graph without dangling nodes."""
    return {
        "sf 512": benchmark_graph("scale_free", 512, seed=2101),
        "comm 512": benchmark_graph("communities", 512, seed=2102, n_comm=32),
        "ab 1024": generate_ab(AbParams(n_target=1024, m=5, seed=1)),
        "al 1024": generate_al(AlParams(n_target=1024, m=5, seed=1)),
        "no dangling 300": sparse_random(300, seed=12, lo=1, hi=3, dangling_frac=0),
    }


def dense_residuals(g, spec, dtype=np.float64):
    """Every residual of ``spec`` recomputed on the dense G in the solver's
    row order and in ``dtype``: ``||G VR - VR D||`` per packed column, a
    conjugate pair's two columns taken together, over the column's own
    norm."""
    matrix = g.to_dense()[np.ix_(spec.rows, spec.rows)].astype(dtype)
    lam = np.empty(spec.n, dtype=complex)
    lam[spec.order] = spec.eigenvalues
    vr, wr, wi = (x.astype(dtype) for x in (spec.packed, lam.real, lam.imag))
    vd = vr * wr
    f = np.flatnonzero(spec.pair_first)
    vd[:, f] -= wi[f] * vr[:, f + 1]  # G u = a u - b v
    vd[:, f + 1] += wi[f] * vr[:, f]  # G v = b u + a v
    r2, s2 = np.sum((matrix @ vr - vd) ** 2, axis=0), np.sum(vr**2, axis=0)
    for arr in (r2, s2):
        arr[f] = arr[f + 1] = arr[f] + arr[f + 1]
    return np.sqrt(r2 / s2).astype(np.float64)[spec.order]


class TestSparseCertification:
    """The residual contract checked against the sparse operator, with no
    dense S or G, against oracles built on the dense G."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.85, 1.0])
    @pytest.mark.parametrize("name", list(certification_cases()))
    def test_residuals_match_a_dense_recomputation(self, name, alpha):
        g = GoogleMatrix.from_graph(certification_cases()[name], alpha)
        spec = operator_spectrum(g)
        fro = np.linalg.norm(g.to_dense(), "fro")
        assert spec.residuals.max() <= EIG_TOL * spec.fro
        # at alpha = 0 the dense GEMM's own rounding on the uniform rank
        # vector reaches 4.4e-15 ||G||_F (see the long-double test below)
        tol = 1e-15 if alpha > 0 else 32 * np.finfo(float).eps
        assert np.max(np.abs(spec.residuals - dense_residuals(g, spec))) <= tol * fro

    @pytest.mark.parametrize("name", ["sf 512", "no dangling 300"])
    def test_alpha_zero_against_a_long_double_recomputation(self, name):
        g = GoogleMatrix.from_graph(certification_cases()[name], 0.0)
        spec = operator_spectrum(g)
        exact = dense_residuals(g, spec, np.longdouble)
        assert np.max(np.abs(spec.residuals - exact)) <= 1e-15 * spec.fro

    @pytest.mark.parametrize("name", list(certification_cases())[:4])
    def test_traced_peak_at_most_18_bytes_per_entry(self, name):
        g = GoogleMatrix.from_graph(certification_cases()[name], 0.85)
        tracemalloc.start()
        try:
            operator_spectrum(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18 * g.n**2
        assert peak <= dense_memory_bytes(g.n)

    def test_link_matrix_in_any_storage(self):
        # unsorted indices, entries split in two halves and stored zeros
        # give the floats of the dense S, so the same solver input
        g = GoogleMatrix.from_graph(dangling_fed_graph(), 1.0)
        order = scc_order(g.s)
        link = g.s.matrix[order][:, order]
        n = link.shape[0]
        data, indices, indptr = [], [], [0]
        for j in range(n):
            span = slice(link.indptr[j], link.indptr[j + 1])
            for i, value in zip(link.indices[span][::-1], link.data[span][::-1]):
                data += [value / 2, value / 2]
                indices += [i, i]
            if indices[indptr[-1]:]:
                data.append(0.0)
                indices.append((j + 1) % n)
            indptr.append(len(data))
        messy = csc_matrix((data, indices, indptr), shape=(n, n))
        stored = messy.data.copy(), messy.indices.copy()
        spec = eigendecompose(messy)
        plain = eigendecompose(g.to_dense()[np.ix_(order, order)])
        assert spec.apart > 0 and spec.lumped > 0
        for field in ("eigenvalues", "pars", "packed"):
            assert getattr(spec, field).tobytes() == getattr(plain, field).tobytes(), field
        for field in ("blocks", "closed", "apart", "lumped", "lumped_rows"):
            assert getattr(spec, field) == getattr(plain, field), field
        assert np.array_equal(messy.data, stored[0]) and np.array_equal(messy.indices, stored[1])

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.85, 1.0])
    @pytest.mark.parametrize("dangling_frac", [0.0, 0.2])
    def test_closed_form_norm(self, dangling_frac, alpha):
        graph = sparse_random(200, seed=31, lo=1, hi=5, dangling_frac=dangling_frac)
        g = GoogleMatrix.from_graph(graph, alpha)
        assert (g.s.n_dangling > 0) == (dangling_frac > 0)
        dense = g.to_dense()
        exact = np.sqrt(math.fsum(dense.ravel() ** 2))
        fro = operator_spectrum(g).fro
        assert abs(fro - exact) <= 4 * np.finfo(float).eps * exact
        assert fro == pytest.approx(np.linalg.norm(dense, "fro"), rel=1e-13)


def dangling_fed_graph():
    """Four closed communities of 16 nodes, 24 transient nodes linking
    into them and into each other, 8 dangling nodes, and 20 nodes that link
    into the communities and that only the dangling nodes link to: the
    communities go apart, and the rest repeats the dangling nodes' columns
    and those 20 nodes' rows."""
    rng = np.random.default_rng(7)
    comm = communities(64, 4, seed=3, p_cross=0.0)
    transient = [(u, int(v)) for u in range(64, 88) for v in rng.choice(88, 3, replace=False) if v != u]
    fed = [(u, int(v)) for u in range(96, 116) for v in rng.choice(88, 2 + u % 3, replace=False)]
    edges = np.unique(np.concatenate([comm.edges, transient, fed]), axis=0)
    return DirectedGraph(n_nodes=116, edges=edges)


def two_sided_cases():
    """Graphs whose S repeats rows as well as columns."""
    color, _ = generate_color(ColorParams(ab=AbParams(n_target=200, seed=13)))
    return {
        "scale-free": sparse_random(300, seed=21, lo=1, hi=8, dangling_frac=0.15),
        "one-component colour": color,
        "closed classes and a fed rest": dangling_fed_graph(),
    }


class TestTwoSidedLumping:
    """Repeated columns and then repeated rows of the rest lumped before
    dgeev, checked against oracles that do not lump."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha", [1.0, 0.85])
    @pytest.mark.parametrize("name", list(two_sided_cases()))
    def test_against_scipy_the_trace_and_the_edge_list(self, name, alpha):
        graph = two_sided_cases()[name]
        g = GoogleMatrix.from_graph(graph, alpha)
        spec = operator_spectrum(g)
        assert spec.lumped == lumped_columns(graph) > 0
        assert spec.lumped_rows >= repeated_rows_at_least(graph) > 0
        assert np.sum(spec.eigenvalues == 0.0) >= spec.lumped + spec.lumped_rows
        matrix = g.to_dense()
        far = [lam[np.abs(lam) > 0.05] for lam in (spec.eigenvalues, scipy.linalg.eig(matrix)[0])]
        assert far[0].size == far[1].size
        assert _greedy_pair_error(*far) <= 1e-8
        assert abs(spec.eigenvalues.sum() - np.trace(matrix)) <= 1e-12 * g.n
        fro = np.linalg.norm(matrix, "fro")
        oracle = complex_residuals(matrix, spec)
        assert oracle.max() <= EIG_TOL * fro
        assert np.max(np.abs(spec.residuals - oracle)) <= 4 * np.finfo(float).eps * fro

    @pytest.mark.parametrize("name", ["scale-free", "one-component colour"])
    def test_repeats_have_exact_null_vectors(self, name):
        # each repeated column j has e_j - e_rep(j); each repeated row, whose
        # zero is defective, a copy of one of those (with no class apart, so
        # that no class gives them rows)
        graph = two_sided_cases()[name]
        g = GoogleMatrix.from_graph(graph, 0.85)
        spec = operator_spectrum(g)
        matrix = g.to_dense()
        vecs = spec.eigenvectors
        pairs = np.flatnonzero(np.sum(vecs != 0, axis=0) == 2)
        assert pairs.size >= spec.lumped + spec.lumped_rows
        for i in pairs:
            j, r = np.flatnonzero(vecs[:, i])
            assert vecs[j, i] == -vecs[r, i] and np.array_equal(matrix[:, j], matrix[:, r])
        assert np.all(spec.eigenvalues[pairs] == 0.0) and np.all(spec.pars[pairs] == 2.0)
        assert np.all(spec.residuals[pairs] == 0.0)
        assert len({vecs[:, i].tobytes() for i in pairs}) < pairs.size  # the copies


def shared_eigenvalue_graph():
    """A transient 2-cycle {3, 4}, eigenvalues +-1/2, that links into the
    closed triangle {0, 1, 2}, eigenvalues 1, -1/2, -1/2: the rest shares
    -1/2 with the class, where S has a Jordan block.  Sources 5 -> 3 and
    6 -> 4 (eigenvalues 0) leave the triangle small enough to be held
    apart."""
    triangle = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    rest = [(3, 4), (3, 0), (4, 3), (4, 1), (5, 3), (6, 4)]
    return DirectedGraph(n_nodes=7, edges=np.array(triangle + rest))


class TestClassesApart:
    """Closed classes of S solved on their own, checked against oracles
    that do not use the split."""

    @staticmethod
    def cases():
        return {**multi_block_cases(), "communities": communities(256, 16, seed=0)}

    @pytest.mark.parametrize("name", list(cases()))
    def test_closed_blocks_are_networkx_closed_classes(self, name):
        graph = self.cases()[name]
        g = GoogleMatrix.from_graph(graph, 1.0)
        rows = scc_order(g.s)
        lo, hi, closed, _ = _diagonal_blocks(g.to_dense()[np.ix_(rows, rows)])
        found = {frozenset(rows[l:h].tolist()) for l, h in zip(lo[closed], hi[closed])}
        assert found == closed_classes(graph)
        assert operator_spectrum(g).apart <= len(found)

    def test_plain_eigendecompose_counts_blocks_and_closed(self):
        # node order, block upper triangular: closed {0, 1} and {2, 3}, and
        # the transient cycle 4 -> 5 -> 6 -> 4, which links into {2, 3}
        nx = pytest.importorskip("networkx")
        matrix = np.zeros((7, 7))
        matrix[:2, :2] = [[0.5, 1.0], [0.5, 0.0]]
        matrix[2:4, 2:4] = [[0.3, 0.6], [0.7, 0.4]]
        matrix[[5, 2], 4] = 0.5
        matrix[6, 5] = 1.0
        matrix[[4, 3], 6] = [0.6, 0.4]
        pattern = nx.DiGraph()
        pattern.add_nodes_from(range(7))
        pattern.add_edges_from((j, i) for i, j in zip(*np.nonzero(matrix)))
        spec = eigendecompose(matrix)
        assert spec.blocks == nx.number_strongly_connected_components(pattern) == 3
        assert spec.closed == nx.number_attracting_components(pattern) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha", [1.0, 0.85])
    def test_community_graph_solves_every_class_apart(self, alpha):
        graph = communities(256, 16, seed=0)
        g = GoogleMatrix.from_graph(graph, alpha)
        spec = operator_spectrum(g)
        assert spec.apart == spec.closed == len(closed_classes(graph)) >= 10
        matrix = g.to_dense()
        fro = np.linalg.norm(matrix, "fro")
        oracle = complex_residuals(matrix, spec)
        assert oracle.max() <= EIG_TOL * fro
        # the sparse product against the complex residual
        assert np.max(np.abs(spec.residuals - oracle)) <= 4 * np.finfo(float).eps * fro
        far = [lam[np.abs(lam) > 0.05] for lam in (spec.eigenvalues, scipy.linalg.eig(matrix)[0])]
        assert far[0].size == far[1].size
        assert _greedy_pair_error(*far) <= 1e-8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha", [1.0, 0.85])
    def test_rest_sharing_an_eigenvalue_with_a_class(self, alpha):
        g = GoogleMatrix.from_graph(shared_eigenvalue_graph(), alpha)
        spec = operator_spectrum(g)
        assert spec.apart == 1
        matrix = g.to_dense()
        assert complex_residuals(matrix, spec).max() <= EIG_TOL * np.linalg.norm(matrix, "fro")
        assert np.all(spec.eigenvalues.imag == 0)
        expected = [1.0, alpha / 2, -alpha / 2, -alpha / 2, -alpha / 2, 0.0, 0.0]
        np.testing.assert_allclose(spec.eigenvalues.real, expected, rtol=0, atol=1e-14)

    def test_large_class_that_sources_link_into_stays_with_them(self):
        # 10 sources link into a 120-node closed class: apart, the class
        # would cost 2 * 120^3 against 130^3 - 10^3 with the sources
        ring = ring_plus_random(120, seed=1)
        sources = [(120 + k, (7 * k + j) % 120) for k in range(10) for j in range(k % 3 + 1)]
        graph = DirectedGraph(n_nodes=130, edges=np.concatenate([ring.edges, sources]))
        g = GoogleMatrix.from_graph(graph, 1.0)
        spec = operator_spectrum(g)
        assert spec.closed == len(closed_classes(graph)) == 1 and spec.apart == 0
        lam, _ = scipy_sorted(g.to_dense()[np.ix_(spec.rows, spec.rows)])
        assert spec.eigenvalues.tobytes() == lam.tobytes()


    def test_class_too_large_to_hold_apart_stays_with_the_rest(self):
        # closed classes of 230 and 26 nodes: apart, the larger one and its
        # eigenvectors would take 2 * 230^2 floats beside the packed 256^2
        ring = ring_plus_random(230, seed=1)
        small = ring_plus_random(26, seed=2).edges + 230
        graph = DirectedGraph(n_nodes=256, edges=np.concatenate([ring.edges, small]))
        tracemalloc.start()
        try:
            spec = operator_spectrum(GoogleMatrix.from_graph(graph, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.closed == 2 and spec.apart == 1
        assert peak <= dense_memory_bytes(256)


class TestDomainChecks:
    """nan fails every domain check, and each message names its parameter."""

    BAD = [np.nan, np.inf, -1.0]

    @pytest.mark.parametrize("value", BAD + [0.0])
    def test_eigendecompose_tol(self, value):
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            eigendecompose(np.eye(2), value)

    @pytest.mark.parametrize("value", BAD + [0.0])
    def test_degeneracy_tol(self, value):
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            degeneracy_clusters(eigendecompose(np.eye(2)), value)

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("rates", [relaxation_rates, eigenvector_pars])
    def test_lambda_cutoff(self, rates, value):
        with pytest.raises(ValueError, match="^lambda_cutoff must be nonnegative and finite"):
            rates(eigendecompose(np.eye(2)), value)
        with pytest.raises(ValueError, match="^lambda_cutoff"):
            spectrum_to_csv(eigendecompose(np.eye(2)), io.StringIO(), lambda_cutoff=value)


class TestTruncatedSpectrumCompare:
    def test_full_size_multiset_match(self):
        g = ring_plus_random(120, seed=17)
        cmp = truncated_spectrum_compare(g, 0.85, [120])
        err = _greedy_pair_error(
            cmp.results[0].spectrum.eigenvalues, cmp.full.eigenvalues
        )
        assert err <= 1e-8

    def test_leading_eigenvalue_one_for_every_size(self):
        g = ring_plus_random(100, seed=18)
        cmp = truncated_spectrum_compare(g, 0.85, [100, 50, 10, 1])
        for res in cmp.results:
            assert abs(res.spectrum.eigenvalues[0] - 1.0) <= 1e-10

    def test_spectra_carry_no_eigenvectors(self):
        cmp = truncated_spectrum_compare(ring_plus_random(40, seed=21), 0.85, [20])
        for spec in (cmp.full, cmp.results[0].spectrum):
            assert spec.packed is None and np.array_equal(np.sort(spec.rows), np.arange(spec.n))
            with pytest.raises(ValueError, match="no eigenvectors"):
                spec.eigenvectors

    @pytest.mark.parametrize("m", [0, 41, -1])
    def test_sizes_checked_before_any_work(self, monkeypatch, m):
        import netspectra.spectra as spectra

        def never(*args, **kwargs):
            raise AssertionError("ran before the sizes were checked")

        monkeypatch.setattr(spectra, "pagerank", never)
        monkeypatch.setattr(spectra, "eigendecompose", never)
        with pytest.raises(ValueError, match=rf"^sizes must lie in \[1, 40\], got {m}$"):
            truncated_spectrum_compare(ring_plus_random(40, seed=21), 0.85, [20, m])

    def test_hausdorff_recorded(self):
        g = ring_plus_random(80, seed=19)
        cmp = truncated_spectrum_compare(g, 0.85, [80, 40])
        assert cmp.results[0].hausdorff <= 1e-10
        assert cmp.results[1].hausdorff >= 0.0

    def test_cloud_hausdorff_symmetric_zero_on_self(self):
        lam = spectrum_of(sparse_random(40, seed=20), 0.85).eigenvalues
        assert cloud_hausdorff(lam, lam) == 0.0

    @pytest.mark.parametrize("block_bytes", [1 << 25, 64])
    def test_cloud_hausdorff_bitwise_scipy(self, monkeypatch, block_bytes):
        import netspectra.spectra as spectra

        monkeypatch.setattr(spectra, "_BLOCK_BYTES", block_bytes)  # 64: one row per block
        rng = np.random.default_rng(23)
        sizes = [(1, 1), (1, 37), (29, 1), (50, 50), (120, 17), (8, 300)]
        for k, (na, nb) in enumerate(sizes * 4):
            a = rng.normal(size=na) + 1j * rng.normal(size=na)
            b = 0.5 * rng.normal(size=nb) + 1j * rng.normal(size=nb)
            if k % 2:  # rounded clouds: exact repeats and ties
                a, b = np.round(a, 1), np.round(b, 1)
            pa, pb = np.column_stack([a.real, a.imag]), np.column_stack([b.real, b.imag])
            expected = max(directed_hausdorff(pa, pb)[0], directed_hausdorff(pb, pa)[0])
            assert cloud_hausdorff(a, b) == expected
            assert cloud_hausdorff(b, a) == expected
        empty, one = np.array([], dtype=complex), np.array([0.5j])
        assert cloud_hausdorff(empty, one) == cloud_hausdorff(one, empty) == np.inf
        assert cloud_hausdorff(empty, empty) == 0.0


class TestCsv:
    def test_spectrum_csv(self):
        spec = spectrum_of(two_cycle(), 1.0)
        buf = io.StringIO()
        spectrum_to_csv(spec, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "re,im,abs,gamma,par,residual"
        assert lines[1].startswith("1,0,1,0,2,")
        assert lines[2].startswith("-1,0,1,0,2,")

    def test_spectrum_csv_zero_mode_inf(self):
        spec = spectrum_of(sparse_random(10, seed=21), 0.0)
        buf = io.StringIO()
        spectrum_to_csv(spec, buf)
        assert ",inf," in buf.getvalue()

    def test_spectrum_csv_gamma_matches_rates_below_any_cutoff(self):
        # at alpha 0 the operator has rank one, so the solver returns exact
        # zeros; with no cutoff their rate is -2 ln 0 = inf in every output
        spec = spectrum_of(sparse_random(10, seed=21), 0.0)
        assert np.any(spec.eigenvalues == 0)
        buf = io.StringIO()
        spectrum_to_csv(spec, buf, lambda_cutoff=0.0)
        gammas = [float(line.split(",")[3]) for line in buf.getvalue().splitlines()[1:]]
        assert gammas == eigenvector_pars(spec, lambda_cutoff=0.0)[0].tolist()
        assert gammas == relaxation_rates(spec, lambda_cutoff=0.0)[0].tolist()

    def test_dos_csv(self):
        hist = density_of_states([0.5, 1.0], 1)
        buf = io.StringIO()
        dos_to_csv(hist, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("# zero_modes=0.333")
        assert lines[2] == "gamma_bin_center,W,integrated"

    def test_degeneracy_csv(self):
        report = degeneracy_clusters(spectrum_of(complete_graph(4), 1.0))
        buf = io.StringIO()
        degeneracy_to_csv(report, buf)
        lines = buf.getvalue().splitlines()
        assert lines[1] == "re,im,multiplicity"
        assert lines[2].endswith(",3")

    def test_eigenvector_pars_csv(self):
        spec = spectrum_of(two_cycle(), 1.0)
        gammas, pars = eigenvector_pars(spec)
        buf = io.StringIO()
        eigenvector_pars_to_csv(gammas, pars, buf)
        assert buf.getvalue().splitlines()[0] == "gamma,par"
