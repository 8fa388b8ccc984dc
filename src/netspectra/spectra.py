"""Full complex eigendecomposition of dense damped link operators and the
derived spectral observables.

Relaxation rates are defined through ``|lambda| = exp(-gamma/2)``, so the
leading eigenvalue sits at gamma = 0 and eigenvalues numerically at zero have
no finite rate (they are bucketed separately as "zero modes").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.spatial import cKDTree
from scipy.spatial.distance import directed_hausdorff
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .gmatrix import DENSE_LIMIT_DEFAULT, GoogleMatrix, truncate_by_rank
from .netcore import DirectedGraph, _write_table
from .ranking import pagerank_power, participation_ratio

__all__ = [
    "EIG_TOL",
    "ZERO_MODE_CUTOFF",
    "DEGENERACY_TOL",
    "DOS_WINDOW",
    "DOS_GAMMA_MAX",
    "EigensolverError",
    "ScalingCheckError",
    "Spectrum",
    "DosHistogram",
    "DegeneracyCluster",
    "DegeneracyReport",
    "TruncationResult",
    "TruncationComparison",
    "eigendecompose",
    "alpha_scaling_check",
    "relaxation_rates",
    "density_of_states",
    "degeneracy_clusters",
    "eigenvector_pars",
    "truncated_spectrum_compare",
    "cloud_hausdorff",
    "spectrum_to_csv",
    "eigenvector_pars_to_csv",
    "dos_to_csv",
    "degeneracy_to_csv",
]

EIG_TOL = 1e-9
ZERO_MODE_CUTOFF = 1e-8
DEGENERACY_TOL = 1e-8
DOS_WINDOW = 0.1
DOS_GAMMA_MAX = 10.0


class EigensolverError(RuntimeError):
    """Eigensolver failed to converge or to meet the residual contract."""


class ScalingCheckError(ValueError):
    """Eigenvalue pairing error beyond the requested tolerance."""


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues and right eigenvectors of one matrix.

    Sorted by decreasing ``|lambda|``, ties by decreasing real part then
    increasing imaginary part, so output files are deterministic.
    Eigenvector columns are unit L2 norm and aligned with ``eigenvalues``;
    ``residuals[i]`` is ``||M psi_i - lambda_i psi_i||_2``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.size


def eigendecompose(matrix, tol: float = EIG_TOL) -> Spectrum:
    """Full eigendecomposition of a dense real nonsymmetric matrix.

    Any method is acceptable as long as every pair satisfies
    ``||M psi - lambda psi||_2 <= tol * ||M||_F``; this uses the standard
    balanced Hessenberg/QR path (LAPACK dgeev via scipy) and then checks
    that contract explicitly.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if matrix.shape[0] == 0:
        raise ValueError("matrix must be at least 1x1")
    try:
        lam, vecs = scipy.linalg.eig(matrix)
    except scipy.linalg.LinAlgError as exc:
        raise EigensolverError(f"QR iteration failed to converge: {exc}") from exc
    norms = np.linalg.norm(vecs, axis=0)
    if np.any(norms == 0):
        raise EigensolverError(
            f"solver returned a zero eigenvector at index {int(np.argmin(norms))}"
        )
    vecs = vecs / norms
    residuals = np.linalg.norm(matrix @ vecs - vecs * lam, axis=0)
    fro = np.linalg.norm(matrix, "fro")
    bad = residuals > tol * fro
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise EigensolverError(
            f"residual {residuals[i]:.3e} at index {i} exceeds "
            f"{tol:.1e} * ||M||_F = {tol * fro:.3e}"
        )
    order = np.lexsort((lam.imag, -lam.real, -np.abs(lam)))
    return Spectrum(
        eigenvalues=lam[order],
        eigenvectors=vecs[:, order],
        residuals=residuals[order],
    )


def _greedy_pair_error(values: np.ndarray, reference: np.ndarray) -> float:
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


def alpha_scaling_check(
    spec_at_one: Spectrum,
    spec_at_alpha: Spectrum,
    alpha: float,
    tol: float = 1e-8,
) -> float:
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


def _rates(spec: Spectrum, lambda_cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """``gamma = -2 ln|lambda|`` per eigenvalue (``inf`` below the zero-mode
    cutoff) and the mask of eigenvalues at or above the cutoff."""
    mags = np.abs(spec.eigenvalues)
    finite = mags >= lambda_cutoff
    with np.errstate(divide="ignore"):
        gammas = np.where(finite, -2.0 * np.log(mags) + 0.0, np.inf)  # + 0.0 drops -0.0
    return gammas, finite


def relaxation_rates(
    spec: Spectrum, lambda_cutoff: float = ZERO_MODE_CUTOFF
) -> tuple[np.ndarray, int]:
    """Rates ``gamma = -2 ln|lambda|`` for eigenvalues above the cutoff.

    Eigenvalues with ``|lambda| < lambda_cutoff`` have effectively infinite
    rate and are returned only as a count of zero modes.
    """
    gammas, finite = _rates(spec, lambda_cutoff)
    return gammas[finite], int((~finite).sum())


@dataclass(frozen=True)
class DosHistogram:
    """Smoothed density of relaxation rates plus its integrated form.

    ``density[k]`` approximates W(gamma) on ``[bin_edges[k], bin_edges[k+1])``;
    ``integrated[k]`` is the fraction of all eigenvalues with rate at most
    ``bin_edges[k+1]``.  Mass is conserved exactly:
    ``sum(density) * binwidth + zero_modes == 1``.  Rates beyond the last
    edge are folded into the last bin.
    """

    bin_edges: np.ndarray
    density: np.ndarray
    integrated: np.ndarray
    zero_modes: float
    smoothing_window: float

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


def density_of_states(
    gammas,
    zero_mode_count: int = 0,
    window: float = DOS_WINDOW,
    gamma_max: float = DOS_GAMMA_MAX,
    n_bins: int = 500,
) -> DosHistogram:
    """Histogram the relaxation rates and smooth with a moving average.

    The staircase of rates is binned on ``[0, gamma_max]``, each bin's mass
    is spread over a window of ``window`` in gamma (reflected at the
    boundaries so no mass is lost), and the density is the per-bin mass over
    the bin width; the integrated curve is its cumulative sum.  Zero modes
    enter the normalization but not the histogram.
    """
    if window <= 0:
        raise ValueError("smoothing window must be positive")
    if gamma_max <= 0 or n_bins < 1:
        raise ValueError("gamma_max and n_bins must be positive")
    gammas = np.asarray(gammas, dtype=np.float64)
    total = gammas.size + zero_mode_count
    if total == 0:
        raise ValueError("no eigenvalues to histogram")
    clipped = np.clip(gammas, 0.0, gamma_max)
    counts, edges = np.histogram(clipped, bins=n_bins, range=(0.0, gamma_max))
    mass = counts / total
    h = edges[1] - edges[0]
    w_bins = max(1, int(round(window / h)))
    if w_bins % 2 == 0:
        w_bins += 1
    if w_bins > 1:
        padded = np.pad(mass, w_bins // 2, mode="symmetric")
        mass = np.convolve(padded, np.full(w_bins, 1.0 / w_bins), mode="valid")
    return DosHistogram(
        bin_edges=edges,
        density=mass / h,
        integrated=np.cumsum(mass),
        zero_modes=zero_mode_count / total,
        smoothing_window=w_bins * h,
    )


@dataclass(frozen=True)
class DegeneracyCluster:
    representative: complex
    multiplicity: int
    members: np.ndarray


@dataclass(frozen=True)
class DegeneracyReport:
    """Eigenvalue clusters at the given linkage tolerance, sorted by
    decreasing multiplicity then decreasing ``|representative|``."""

    clusters: list[DegeneracyCluster]
    tolerance: float


def degeneracy_clusters(spec: Spectrum, tol: float = DEGENERACY_TOL) -> DegeneracyReport:
    """Single-linkage clustering of the eigenvalues in the complex plane.

    Two eigenvalues land in the same cluster whenever a chain of pairwise
    distances <= ``tol`` connects them; the representative is the cluster
    centroid and the members are listed in ascending index order.
    Numerically exact degeneracies have spreads far below any sensible
    ``tol``, so reported multiplicities match the exact ones; the tolerance
    is carried in the report because counts depend on it.  Time and memory
    grow with the number of eigenvalue pairs within ``tol`` of each other,
    at worst n^2/2 when every eigenvalue is within ``tol`` of every other.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    lam = spec.eigenvalues
    n = lam.size
    pairs = cKDTree(np.column_stack([lam.real, lam.imag])).query_pairs(
        r=tol, output_type="ndarray"
    )
    adjacency = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    n_comp, labels = connected_components(adjacency, directed=False)
    # members by one stable sort of the labels; splitting at every group end
    # leaves one empty tail, also when there are no eigenvalues at all
    ends = np.cumsum(np.bincount(labels, minlength=n_comp))
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
    return DegeneracyReport(clusters=clusters, tolerance=tol)


def eigenvector_pars(
    spec: Spectrum, lambda_cutoff: float = ZERO_MODE_CUTOFF
) -> tuple[np.ndarray, np.ndarray]:
    """Participation ratio of each eigenvector against its relaxation rate.

    Zero modes (no finite rate) are omitted.  Within a degenerate eigenvalue
    cluster the returned values depend on the solver's basis choice.
    """
    gammas, finite = _rates(spec, lambda_cutoff)
    return gammas[finite], participation_ratio(spec.eigenvectors)[finite]


@dataclass(frozen=True)
class TruncationResult:
    m: int
    kept: np.ndarray
    spectrum: Spectrum
    hausdorff: float


@dataclass(frozen=True)
class TruncationComparison:
    alpha: float
    full: Spectrum
    results: list[TruncationResult]


def cloud_hausdorff(eigs_a: np.ndarray, eigs_b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two eigenvalue clouds."""
    a = np.column_stack([eigs_a.real, eigs_a.imag])
    b = np.column_stack([eigs_b.real, eigs_b.imag])
    return max(directed_hausdorff(a, b)[0], directed_hausdorff(b, a)[0])


def truncated_spectrum_compare(
    graph: DirectedGraph,
    alpha: float,
    m_list,
    tol: float = EIG_TOL,
    dense_limit: int = DENSE_LIMIT_DEFAULT,
) -> TruncationComparison:
    """Spectrum of rank-truncated operators against the full one.

    Orders nodes by rank score, restricts the operator to the top m for each
    requested size, diagonalizes both, and records the Hausdorff distance
    between the eigenvalue clouds for overlay plots.
    """
    g = GoogleMatrix.from_graph(graph, alpha)
    full = eigendecompose(g.to_dense(dense_limit), tol)
    rank = pagerank_power(g)
    results = []
    for m in m_list:
        truncated, kept = truncate_by_rank(g, rank, int(m))
        spec_m = eigendecompose(truncated.to_dense(dense_limit), tol)
        results.append(
            TruncationResult(
                m=int(m),
                kept=kept,
                spectrum=spec_m,
                hausdorff=cloud_hausdorff(spec_m.eigenvalues, full.eigenvalues),
            )
        )
    return TruncationComparison(alpha=alpha, full=full, results=results)


def spectrum_to_csv(
    spec: Spectrum,
    target,
    lambda_cutoff: float = ZERO_MODE_CUTOFF,
    header_comment=None,
) -> None:
    """``re,im,abs,gamma,par,residual`` per eigenvalue (gamma is ``inf`` for
    zero modes)."""
    lam = spec.eigenvalues
    gammas, _ = _rates(spec, lambda_cutoff)
    rows = zip(
        lam.real.tolist(), lam.imag.tolist(), np.abs(lam).tolist(), gammas.tolist(),
        participation_ratio(spec.eigenvectors).tolist(), spec.residuals.tolist(),
    )
    fmt = ",".join(["%.17g"] * 6) + "\n"
    _write_table(target, header_comment, "re,im,abs,gamma,par,residual\n", fmt, rows)


def eigenvector_pars_to_csv(gammas, pars, target, header_comment=None) -> None:
    """``gamma,par`` rows, one per non-zero-mode eigenvector."""
    _write_table(target, header_comment, "gamma,par\n", "%.17g,%.17g\n", zip(gammas, pars))


def dos_to_csv(hist: DosHistogram, target, header_comment=None) -> None:
    """``gamma_bin_center,W,integrated`` rows; zero-mode fraction and the
    effective smoothing window go into leading comment lines."""
    head = (
        f"# zero_modes={hist.zero_modes:.17g}\n"
        f"# smoothing_window={hist.smoothing_window:.17g}\n"
        "gamma_bin_center,W,integrated\n"
    )
    rows = zip(hist.bin_centers, hist.density, hist.integrated)
    _write_table(target, header_comment, head, "%.17g,%.17g,%.17g\n", rows)


def degeneracy_to_csv(report: DegeneracyReport, target, header_comment=None) -> None:
    """``re,im,multiplicity`` per cluster in the report's order."""
    head = f"# tolerance={report.tolerance:.17g}\nre,im,multiplicity\n"
    rows = (
        (c.representative.real, c.representative.imag, c.multiplicity) for c in report.clusters
    )
    _write_table(target, header_comment, head, "%.17g,%.17g,%d\n", rows)
