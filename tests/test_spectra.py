import io

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import pdist

from netspectra.genmodels import AbParams, ColorParams, generate_color
from netspectra.gmatrix import GoogleMatrix
from netspectra.netcore import DirectedGraph
from netspectra.ranking import pagerank_power, participation_ratio
from netspectra.spectra import (
    ZERO_MODE_CUTOFF,
    EigensolverError,
    ScalingCheckError,
    Spectrum,
    alpha_scaling_check,
    cloud_hausdorff,
    degeneracy_clusters,
    degeneracy_to_csv,
    density_of_states,
    dos_to_csv,
    eigendecompose,
    eigenvector_pars,
    eigenvector_pars_to_csv,
    relaxation_rates,
    spectrum_to_csv,
    truncated_spectrum_compare,
)

from helpers import complete_graph, directed_cycle, ring_plus_random, sparse_random, two_cycle


def spectrum_of(graph, alpha):
    return eigendecompose(GoogleMatrix.from_graph(graph, alpha).to_dense())


def closed_class_count(graph):
    """Number of strongly connected classes with no link leaving them, where
    a dangling node links to every node (its column of S is uniform)."""
    n = graph.n_nodes
    dangling = np.nonzero(graph.out_degrees() == 0)[0]
    src = np.concatenate([graph.edges[:, 0], np.repeat(dangling, n)])
    dst = np.concatenate([graph.edges[:, 1], np.tile(np.arange(n), dangling.size)])
    adjacency = coo_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
    n_classes, label = connected_components(adjacency, directed=True, connection="strong")
    leaks = np.zeros(n_classes, dtype=bool)
    leaks[label[src[label[src] != label[dst]]]] = True
    return n_classes - int(leaks.sum())


def eigenvalues_only(lam):
    """A Spectrum carrying only eigenvalues, for the clustering tests."""
    lam = np.asarray(lam, dtype=np.complex128)
    return Spectrum(
        eigenvalues=lam, eigenvectors=np.zeros((1, lam.size)), residuals=np.zeros(lam.size)
    )


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


def random_small_graph(seed):
    """One random out-link per node, about 5% of nodes dangling: often
    several closed cycles, and classes that leak only through a dangling
    node."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    edges = {(u, int(rng.integers(n))) for u in range(n) if rng.random() >= 0.05}
    return DirectedGraph(n_nodes=n, edges=np.array(sorted(edges)).reshape(-1, 2))


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
        from netspectra.spectra import Spectrum

        rng = np.random.default_rng(0)
        lam = np.concatenate([
            np.full(1200, 0.25 + 0j) + rng.normal(0, 1e-12, 1200) * (1 + 1j),
            np.full(800, 0.5 + 0j) + rng.normal(0, 1e-12, 800),
            (rng.random(3000) - 0.5) * 0.1 + 1j * (rng.random(3000) - 0.5) * 0.1,
        ])
        spec = Spectrum(
            eigenvalues=lam,
            eigenvectors=np.zeros((1, lam.size)),
            residuals=np.zeros(lam.size),
        )
        report = degeneracy_clusters(spec, tol=1e-8)
        assert report.clusters[0].multiplicity == 1200
        assert abs(report.clusters[0].representative - 0.25) <= 1e-9
        assert report.clusters[1].multiplicity == 800
        assert sum(c.multiplicity for c in report.clusters) == lam.size

    def test_empty_spectrum_has_no_clusters(self):
        assert degeneracy_clusters(eigenvalues_only([])).clusters == []

    def test_chain_past_4000_eigenvalues_stays_one_cluster(self):
        # consecutive gaps 0.24, 0.99 and 0.014 (units of tol) chain all four
        tol = 1e-8
        core = 0.5 + np.array([-0.12, 0.12, 1.11, 1.124]) * tol
        report = degeneracy_clusters(eigenvalues_only(core), tol)
        assert [c.multiplicity for c in report.clusters] == [4]
        padded = np.concatenate([core, 10.0 + np.arange(4001)])
        report = degeneracy_clusters(eigenvalues_only(padded), tol)
        assert report.clusters[0].multiplicity == 4
        assert report.clusters[0].members.tolist() == [0, 1, 2, 3]
        assert len(report.clusters) == 4002

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
        report = degeneracy_clusters(eigenvalues_only(lam), tol)

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


class TestUnitEigenvalueMultiplicity:
    """At alpha = 1 the multiplicity of lambda = 1 equals the number of closed
    strongly connected classes of S."""

    @staticmethod
    def unit_multiplicity(graph):
        report = degeneracy_clusters(spectrum_of(graph, 1.0))
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
        # 0 <-> 1 is closed; 2 <-> 3 leaks to the dangling node 4
        graph = DirectedGraph(
            n_nodes=5, edges=np.array([[0, 1], [1, 0], [2, 3], [3, 2], [3, 4]])
        )
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
            assert np.array_equal(eigenvector_pars(spec)[1], scalar[finite])
            buf = io.StringIO()
            spectrum_to_csv(spec, buf)
            column = [line.split(",")[4] for line in buf.getvalue().splitlines()[1:]]
            assert column == ["%.17g" % x for x in scalar]

    def test_one_dimensional_input_returns_float(self):
        assert isinstance(participation_ratio(np.ones(3)), float)
        assert participation_ratio(np.ones((3, 2))).tolist() == [3.0, 3.0]

    def test_zero_column_rejected(self):
        vecs = np.eye(4, dtype=np.complex128)
        vecs[:, 2] = 0
        with pytest.raises(ValueError, match="zero vector"):
            participation_ratio(vecs)


class TestTruncatedSpectrumCompare:
    def test_full_size_multiset_match(self):
        from netspectra.spectra import _greedy_pair_error

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

    def test_hausdorff_recorded(self):
        g = ring_plus_random(80, seed=19)
        cmp = truncated_spectrum_compare(g, 0.85, [80, 40])
        assert cmp.results[0].hausdorff <= 1e-10
        assert cmp.results[1].hausdorff >= 0.0

    def test_cloud_hausdorff_symmetric_zero_on_self(self):
        lam = spectrum_of(sparse_random(40, seed=20), 0.85).eigenvalues
        assert cloud_hausdorff(lam, lam) == 0.0


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
