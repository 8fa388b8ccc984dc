"""Full complex eigendecomposition of dense damped link operators and the
derived spectral observables.

Relaxation rates are defined through ``|lambda| = exp(-gamma/2)``, so the
leading eigenvalue sits at gamma = 0 and eigenvalues numerically at zero have
no finite rate (they are bucketed separately as "zero modes").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg import blas, lapack

from .gmatrix import GoogleMatrix, scc_order, truncate_by_rank
from .netcore import DirectedGraph, _check_positive, _write_table
from .ranking import pagerank

__all__ = [
    "EIG_TOL",
    "ZERO_MODE_CUTOFF",
    "DEGENERACY_TOL",
    "DOS_WINDOW",
    "DOS_GAMMA_MAX",
    "DOS_BINS",
    "EigensolverError",
    "Spectrum",
    "DosHistogram",
    "DegeneracyCluster",
    "DegeneracyReport",
    "TruncationResult",
    "TruncationComparison",
    "eigendecompose",
    "operator_spectrum",
    "dense_memory_bytes",
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
DOS_BINS = 500


class EigensolverError(np.linalg.LinAlgError):
    """Eigensolver failed to converge or to meet the residual contract."""


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues of one matrix, with the residual and participation
    ratio of each right eigenvector.

    Sorted by decreasing ``|lambda|``, ties by decreasing real part then
    increasing imaginary part, so output files are deterministic.
    ``residuals[i]`` is ``||M psi_i - lambda_i psi_i||_2`` for the unit-norm
    eigenvector ``psi_i`` and ``pars[i]`` its participation ratio (both
    read-only).

    The eigenvectors are kept as LAPACK ``dgeev`` returns them (8 bytes per
    entry): ``packed`` is the real N x N matrix in solver order, where a real
    eigenvalue's column is its eigenvector and a conjugate pair ``a +- ib``
    takes two columns u, v (``pair_first`` marks u) with eigenvectors
    ``u +- iv``; ``eigenvalues[i]`` belongs to packed column ``order[i]``.
    :attr:`eigenvectors` unpacks them on first use; a spectrum without
    ``packed`` carries no eigenvectors.

    ``rows`` is set on every spectrum of :func:`operator_spectrum`, whose
    solver saw the nodes reordered: row k of ``packed`` belongs to node
    ``rows[k]``.  ``blocks`` counts the diagonal blocks of the matrix the
    solver saw and ``closed`` the closed ones among them, the multiplicity
    of the eigenvalue 1 of S.  ``lumped`` counts the columns that repeated
    an earlier one bit for bit and were lumped into it before dgeev (see
    :func:`eigendecompose`).  Residuals and PARs do not depend on the row
    order.
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    pars: np.ndarray
    packed: np.ndarray | None = None
    order: np.ndarray | None = None
    pair_first: np.ndarray | None = None
    rows: np.ndarray | None = None
    blocks: int = 1
    closed: int = 1
    lumped: int = 0

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Unit-norm right eigenvectors as columns aligned with
        ``eigenvalues``, rows in node order (read-only), built from the
        packed matrix on first use: complex when the solver returned a
        conjugate pair.  For :func:`eigendecompose` of a matrix whose
        columns are all distinct they are bitwise the columns of
        ``scipy.linalg.eig`` divided by their norms; a matrix that repeats
        a column has ``(e_j - e_rep(j)) / sqrt(2)`` for each repeat j of
        column ``rep(j)``, with eigenvalue exactly 0, and lifts of the
        lumped matrix's eigenvectors for the rest.  Below alpha = 1,
        :func:`operator_spectrum` keeps the eigenvectors of S except on the
        eigenvalues 1 and alpha, and the spectra of
        :func:`truncated_spectrum_compare` carry none.  The result holds 16
        bytes per entry, twice the packed storage, and 32 while it is
        built: one gather puts the rows in node order and the columns in
        spectrum order."""
        if self.packed is None:
            raise ValueError("spectrum carries no eigenvectors")
        packed = self.packed
        first = np.flatnonzero(self.pair_first)
        if first.size:
            vecs = packed.astype(np.complex128, order="F")
            vecs.imag[:, first] = packed[:, first + 1]
            vecs[:, first + 1] = vecs[:, first].conj()
        else:
            vecs = packed.copy(order="F")
        # one gather puts the columns in spectrum order and the rows in node
        # order; Fortran order, so the norms sum as scipy's layout takes them
        rows = vecs.T[self.order if self.rows is None else np.ix_(self.order, np.argsort(self.rows))]
        del vecs
        vecs = rows.T
        vecs /= np.linalg.norm(vecs, axis=0)
        vecs.setflags(write=False)
        return vecs


# Bytes of one block of residual columns: an operator up to N = 2,048 is
# checked with one GEMM, a larger one in blocks of about 2^22 / N columns.
_BLOCK_BYTES = 1 << 25


def _block_columns(n: int) -> int:
    return min(n, max(2, _BLOCK_BYTES // (8 * n)))


def dense_memory_bytes(n: int) -> int:
    """Bytes the dense path holds at its peak for an n x n operator: the
    operator, dgeev's copy of it, the packed eigenvectors and one residual
    block (the O(n) vectors aside).  A matrix with g < n distinct columns
    holds less, in this order: the storage of the n x n packed
    eigenvectors, which first holds the g x g lumped matrix for dgeev to
    overwrite, and the g x g eigenvectors of that matrix; then the packed
    eigenvectors lifted from those, the columns whose lifts are checked,
    and one residual block no larger than the g x g eigenvectors freed
    before it.  It grows with n, and a truncation comparison
    keeps no eigenvectors, so it also bounds diagonalizing the truncations
    of that operator one after another."""
    return 8 * n * (3 * n + _block_columns(n))


def _power_sums(mod2):
    """Row sums of ``|psi|^2`` and of ``|psi|^4``, given ``|psi|^2`` with one
    eigenvector per contiguous row (overwritten)."""
    s2 = mod2.sum(axis=1)
    return s2, np.square(mod2, out=mod2).sum(axis=1)


def _certify_block(a, trans: int, vb, wr, wi, first):
    """Squared norm, sum of fourth powers of the entry moduli, and squared
    residual norm of the eigenvectors in one block of packed columns that
    splits no conjugate pair; a pair's two columns both get the values of
    ``u + iv``.

    ``M VR = VR D`` holds with D block diagonal: ``a`` on the diagonal for
    a real eigenvalue, and ``[[a, b], [-b, a]]`` for a pair, so that
    ``M u = a u - b v`` and ``M v = b u + a v``.  The residual block
    ``M VR - VR D`` is one real GEMM accumulated into ``VR D``.  Every sum
    runs along one contiguous row of a transposed block, so a column's
    norm and PAR do not depend on the blocking.
    """
    k = vb.shape[1]
    f = np.flatnonzero(first)
    r = np.multiply(vb, wr, order="F")  # VR D in the layout dgemm overwrites
    step = max(1, k // 16)  # pairs per pass, so that the gathered columns stay small
    for lo in range(0, f.size, step):
        g = f[lo:lo + step]
        r[:, g] += wi[g + 1] * vb[:, g + 1]
        r[:, g + 1] += wi[g] * vb[:, g]
    r = blas.dgemm(1.0, a, vb, beta=-1.0, c=r, trans_a=trans, overwrite_c=1)
    r2 = np.square(r, out=r).T.sum(axis=1)
    del r
    rows = vb.T  # one packed column per contiguous row
    s2, s4 = np.empty(k), np.empty(k)
    real = np.ones(k, dtype=bool)
    real[f] = real[f + 1] = False
    mod2 = rows[real]
    s2[real], s4[real] = _power_sums(np.square(mod2, out=mod2))
    mod2 = rows[f]
    np.square(mod2, out=mod2)
    v = rows[f + 1]
    mod2 += np.square(v, out=v)  # |u + iv|^2 = u^2 + v^2 entry by entry
    del v
    s2[f], s4[f] = _power_sums(mod2)
    s2[f + 1], s4[f + 1] = s2[f], s4[f]
    r2[f] = r2[f + 1] = r2[f] + r2[f + 1]
    return s2, s4, r2


def _damp(matrix, wr, wi, vr, alpha: float, closed: int, rank) -> None:
    """Turn the eigenpairs ``(wr + i wi, vr)`` of a column-stochastic S into
    those of ``G = alpha*S + (1-alpha)/N * ee^T``, and S in ``matrix`` into
    G, all in place.

    Since ``e^T S = e^T``, an eigenvector psi of S with lambda != 1 has
    ``e^T psi = 0``, so ``G psi = alpha*lambda psi``: the eigenvalue is
    scaled and the vector kept (``+ 0.0`` drops the -0.0 of alpha = 0).
    The eigenvalue 1 of S has ``closed`` real eigenvectors, the columns
    whose eigenvalues lie nearest 1.  With p the one of largest
    ``|e^T psi_p|``, each other column becomes
    ``psi_j - (e^T psi_j / e^T psi_p) psi_p``, which sums to zero, so G
    maps it to alpha times itself; psi_p becomes the rank vector ``rank``
    (unit L2 norm), G's eigenvector for 1.  A column mapped wrongly fails
    the residual contract that follows.
    """
    unit = np.argsort(np.hypot(wr - 1.0, wi), kind="stable")[:closed]
    sums = vr[:, unit].sum(axis=0)
    p = int(np.argmax(np.abs(sums)))
    vr[:, unit] -= np.outer(vr[:, unit[p]], sums / sums[p])
    vr[:, unit[p]] = rank / np.linalg.norm(rank)
    wr *= alpha
    wi *= alpha
    wr[unit] = alpha
    wr[unit[p]] = 1.0
    wr += 0.0
    wi += 0.0
    matrix *= alpha
    matrix += (1.0 - alpha) / matrix.shape[0]


def _column_groups(matrix) -> np.ndarray:
    """Representative of every column: the first column, in matrix order,
    whose bits all equal its own.  One key per column (its bit patterns
    times fixed odd weights, summed modulo 2^64, so equal columns get equal
    keys), then each candidate group is confirmed on the columns."""
    bits = matrix.view(np.uint64)
    n = bits.shape[1]
    weights = np.arange(1, 2 * n, 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    _, labels, counts = np.unique(weights @ bits, return_inverse=True, return_counts=True)
    rep = np.arange(n)
    cand = np.flatnonzero(counts[labels] > 1)
    cand = cand[np.argsort(labels[cand], kind="stable")]  # by key, ascending within one
    for members in np.split(cand, np.flatnonzero(np.diff(labels[cand])) + 1):
        while members.size > 1:
            same = (bits[:, members] == bits[:, members[:1]]).all(axis=0)
            rep[members[same]] = members[0]
            members = members[~same]
    return rep


def _dgeev(a, overwrite_a: int = 0):
    """Eigenvalues ``wr + i wi`` and packed right eigenvectors of ``a``."""
    work, _ = lapack.dgeev_lwork(a.shape[0], compute_vl=0, compute_vr=1)
    wr, wi, _, vr, info = lapack.dgeev(
        a, compute_vl=0, compute_vr=1, lwork=int(work), overwrite_a=overwrite_a
    )
    if info != 0:
        raise EigensolverError(f"QR iteration failed to converge (dgeev info {info})")
    return wr, wi, vr


def _gemm_operand(matrix):
    """``(a, trans)`` such that dgemm with ``trans_a=trans`` multiplies by
    ``matrix``: a C-ordered matrix read as its transpose, any other layout
    copied once rather than by f2py for every block."""
    if matrix.flags.c_contiguous:
        return matrix.T, 1
    return np.asfortranarray(matrix), 0


def _blocks(first, step: int):
    """``(lo, hi)`` column blocks of about ``step`` packed columns that split
    no conjugate pair."""
    n = first.size
    lo = 0
    while lo < n:
        hi = min(n, lo + step)
        hi += bool(first[hi - 1])
        yield lo, hi
        lo = hi


def _relative_residuals(a, trans: int, vr, wr, wi, first) -> np.ndarray:
    """``||M psi - lambda psi|| / ||psi||`` of packed columns, M given as
    by :func:`_gemm_operand` (inf for a zero column)."""
    rel = np.empty(wr.size)
    for lo, hi in _blocks(first, _block_columns(vr.shape[0])):
        s2, _, r2 = _certify_block(a, trans, vr[:, lo:hi], wr[lo:hi], wi[lo:hi], first[lo:hi])
        with np.errstate(divide="ignore", invalid="ignore"):
            rel[lo:hi] = np.where(s2 > 0, np.sqrt(r2 / s2), np.inf)
    return rel


def _lumped_dgeev(matrix, rep, bound: float):
    """``(wr, wi, vr)`` of dgeev for the n x n ``matrix``, computed on its
    lumped matrix, or None when a lift has a residual (relative to the
    vector's norm) above rounding level or above ``bound``.  Column j of
    ``matrix`` equals column
    ``rep[j] <= j`` bit for bit.

    With C the g distinct columns (each group's first, in matrix order) and
    R the sum of the rows of each group, ``M = R C`` is g x g and
    ``eig(S) = eig(M) + {0}^(n-g)``.  M sits at the start of the storage
    of the n x n vectors and dgeev overwrites it, so no other n x n buffer
    is made.  An eigenvector s of M lifts to
    ``psi = C s``: on the row of a node alone in its group that is
    ``lambda s`` (in the packed form of :func:`_certify_block`), and the
    other rows take one GEMM.  A lift much shorter than s has lost digits
    (s lies near the null space of C, whose columns are then dependent):
    its residual is checked against that of ``E s``, s on the
    representatives, which ``S E s = C s`` makes small, and the smaller
    one is kept if it is at rounding level.  The other members j of each
    group get ``e_j - e_rep(j)`` with the eigenvalue 0.0, in the last
    n - g columns.
    """
    n = matrix.shape[0]
    reps = np.flatnonzero(rep == np.arange(n))
    extra = np.flatnonzero(rep != np.arange(n))
    g = reps.size
    group = np.searchsorted(reps, rep)  # the group of every node
    alone = np.bincount(group, minlength=g)[group] == 1
    rows, singles = np.flatnonzero(~alone), np.flatnonzero(alone)
    # M in Fortran order at the start of the storage that later holds vr
    storage = np.empty(n * n)
    m = storage[: g * g].reshape(g, g, order="F")
    step = max(1, g // 16)  # columns per pass, so that the gathered blocks stay small
    for lo in range(0, g, step):
        m[:, lo:lo + step] = matrix[np.ix_(reps, reps[lo:lo + step])]
    np.add.at(m, group[extra], matrix[np.ix_(extra, reps)])  # plus the other members' rows
    lost = 16 * np.finfo(float).eps * np.linalg.norm(m, "fro")
    wr, wi, s = _dgeev(m, overwrite_a=1)
    del m
    first = wi > 0
    f = np.flatnonzero(first)
    cs = blas.dgemm(1.0, matrix[np.ix_(rows, reps)], s)  # the rows of C s on grouped nodes
    # squared norms of s and of its lift, a pair's two columns taken together
    s2 = np.einsum("ij,ij->j", s, s)
    sg = s[np.unique(group[rows])]
    lift2 = (wr * wr + wi * wi) * (s2 - np.einsum("ij,ij->j", sg, sg))
    lift2 += np.einsum("ij,ij->j", cs, cs)
    del sg
    for arr in (s2, lift2):
        arr[f] = arr[f + 1] = arr[f] + arr[f + 1]
    # the lift's residual is about lost * |s| / |psi|
    weak = np.flatnonzero(lift2 * bound * bound < lost * lost * s2)
    on_reps = s[:, weak]
    for lo in range(0, f.size, step):
        p = f[lo:lo + step]
        u, v = s[:, p], s[:, p + 1]
        s[:, p] *= wr[p]
        s[:, p] += wi[p + 1] * v
        s[:, p + 1] *= wr[p + 1]
        s[:, p + 1] += wi[p] * u
    real = np.flatnonzero(wi == 0)
    vr = storage.reshape(n, n, order="F")
    vr.fill(0.0)
    for lo in range(0, g, step):
        hi = min(g, lo + step)
        r = real[(real >= lo) & (real < hi)]
        s[:, r] *= wr[r]
        vr[singles, lo:hi] = s[group[singles], lo:hi]
    del s
    vr[rows, :g] = cs
    del cs
    if weak.size:
        a, trans = _gemm_operand(matrix)
        lam = (wr[weak], wi[weak], first[weak])
        lifted = _relative_residuals(a, trans, vr[:, weak], *lam)
        e_s = np.zeros((n, weak.size), order="F")
        e_s[reps] = on_reps
        spread = _relative_residuals(a, trans, e_s, *lam)
        if np.any(np.minimum(lifted, spread) > min(lost, bound)):
            return None  # not at rounding level: let dgeev resolve S whole
        use = spread < lifted
        vr[:, weak[use]] = e_s[:, use]
    cols = np.arange(g, n)
    vr[extra, cols] = 1.0
    vr[rep[extra], cols] = -1.0
    zeros = np.zeros(n - g)
    return np.concatenate([wr, zeros]), np.concatenate([wi, zeros]), vr


def eigendecompose(matrix, tol: float = EIG_TOL, damping=None) -> Spectrum:
    """Full eigendecomposition of a dense real nonsymmetric matrix.

    Any method is acceptable as long as every pair satisfies
    ``||M psi - lambda psi||_2 <= tol * ||M||_F``; this calls LAPACK
    ``dgeev`` (balanced Hessenberg/QR, the routine behind
    ``scipy.linalg.eig``) and keeps its packed real eigenvectors.  Columns
    that are bitwise identical (such as the uniform columns of dangling
    nodes) are lumped first, so dgeev sees one column per group (see
    :func:`_lumped_dgeev`); each column j lumped into an earlier one gets
    the exact null vector ``e_j - e_rep(j)`` with eigenvalue 0.0, and
    ``lumped`` counts them.  When every column is distinct, or some lift
    misses rounding level (a defective cluster near 0 that lumping cannot
    resolve), dgeev sees the whole matrix, ``lumped`` is 0, and the
    eigenvalues and eigenvectors are bitwise those of
    ``scipy.linalg.eig``.  The contract
    is then checked in real arithmetic, column block by column block (see
    :func:`_certify_block`), and each eigenvector's participation ratio is
    taken in the same pass.  The traced peak is about 18 bytes per matrix
    entry beyond the input: the packed eigenvectors with dgeev's copy of
    the matrix (or the lumped matrix's eigenvectors), then with one
    residual block.

    With ``damping = (alpha, closed, rank)``, ``matrix`` holds a
    column-stochastic S whose eigenvalue 1 has multiplicity ``closed``, and
    the spectrum is that of ``G = alpha*S + (1-alpha)/N * ee^T``: once
    dgeev is done, the eigenpairs are mapped to G and G is written over
    ``matrix`` (see :func:`_damp`), and the contract is checked against G.
    ``rank`` is G's rank vector in the rows' order.
    """
    _check_positive("tol", tol)
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    n = matrix.shape[0]
    if n == 0:
        raise ValueError("matrix must be at least 1x1")
    if not np.isfinite(matrix).all():
        raise ValueError("matrix must not contain infs or NaNs")
    rep = _column_groups(matrix)
    lumped = n - int(np.count_nonzero(rep == np.arange(n)))
    lifted = _lumped_dgeev(matrix, rep, tol * np.linalg.norm(matrix, "fro")) if lumped else None
    if lifted is None:
        lumped = 0
    wr, wi, vr = lifted or _dgeev(matrix)
    first = wi > 0  # LAPACK stores b > 0 of a pair a +- ib first
    if damping is not None:
        _damp(matrix, wr, wi, vr, *damping)
    a, trans = _gemm_operand(matrix)
    s2, s4, r2 = np.empty(n), np.empty(n), np.empty(n)
    step = _block_columns(n)
    if lumped:  # residual blocks that fit where the lumped matrix's eigenvectors were
        step = min(step, max(2, (n - lumped) ** 2 // n))
    for lo, hi in _blocks(first, step):
        s2[lo:hi], s4[lo:hi], r2[lo:hi] = _certify_block(
            a, trans, vr[:, lo:hi], wr[lo:hi], wi[lo:hi], first[lo:hi]
        )
    if np.any(s2 == 0):
        raise EigensolverError(
            f"solver returned a zero eigenvector at index {int(np.argmin(s2))}"
        )
    residuals = np.sqrt(r2 / s2)
    fro = np.linalg.norm(matrix, "fro")
    bad = residuals > tol * fro
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise EigensolverError(
            f"residual {residuals[i]:.3e} at index {i} exceeds "
            f"{tol:.1e} * ||M||_F = {tol * fro:.3e}"
        )
    lam = wr + 1j * wi
    order = np.lexsort((lam.imag, -lam.real, -np.abs(lam)))
    residuals, pars = residuals[order], (s2 * s2 / s4)[order]
    for arr in (residuals, pars, vr, order, first):
        arr.setflags(write=False)
    return Spectrum(
        eigenvalues=lam[order],
        residuals=residuals,
        pars=pars,
        packed=vr,
        order=order,
        pair_first=first,
        lumped=lumped,
    )


def operator_spectrum(g: GoogleMatrix, tol: float = EIG_TOL) -> Spectrum:
    """Spectrum of the dense operator ``g``, from one eigendecomposition of
    its link matrix S.

    The nodes are first put in :func:`gmatrix.scc_order`, so the dense S is
    block upper triangular and dgeev's Hessenberg reduction and QR sweeps
    deflate at every block boundary, one block per strongly connected
    component; the spectrum records that order in ``rows``, the component
    count in ``blocks`` and the closed count in ``closed``.  Below
    alpha = 1, :func:`eigendecompose` maps the spectrum of S to G: every
    eigenvalue lambda != 1 becomes alpha*lambda with the same eigenvector,
    the eigenvalue 1 gets the rank vector of :func:`ranking.pagerank`, and
    the other ``closed - 1`` eigenvectors of S for 1 become differences
    that sum to zero, with eigenvalue alpha.
    """
    return _spectrum(g, tol, pagerank(g) if g.alpha < 1.0 else None)


def _spectrum(g: GoogleMatrix, tol: float, rank) -> Spectrum:
    """:func:`operator_spectrum` with the rank vector of ``g`` given (None
    at alpha = 1)."""
    rows, blocks, closed = scc_order(g.s)
    damping = None if rank is None else (g.alpha, closed, rank.values[rows])
    spec = eigendecompose(GoogleMatrix(g.s, 1.0).permuted(rows).to_dense(), tol, damping)
    return replace(spec, rows=rows, blocks=blocks, closed=closed)


def _rates(spec: Spectrum, lambda_cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """``gamma = -2 ln|lambda|`` per eigenvalue (``inf`` below the zero-mode
    cutoff) and the mask of eigenvalues at or above the cutoff."""
    if not 0.0 <= lambda_cutoff < np.inf:  # nan fails
        raise ValueError(f"lambda_cutoff must be nonnegative and finite, got {lambda_cutoff}")
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
) -> DosHistogram:
    """Histogram the relaxation rates and smooth with a moving average.

    The staircase of rates is binned into :data:`DOS_BINS` bins on
    ``[0, gamma_max]``, each bin's mass is spread over a window of
    ``window`` in gamma (reflected at the boundaries so no mass is lost),
    and the density is the per-bin mass over the bin width; the integrated
    curve is its cumulative sum.  Zero modes enter the normalization but not
    the histogram.
    """
    _check_positive("window", window)
    _check_positive("gamma_max", gamma_max)
    gammas = np.asarray(gammas, dtype=np.float64)
    total = gammas.size + zero_mode_count
    if total == 0:
        raise ValueError("no eigenvalues to histogram")
    clipped = np.clip(gammas, 0.0, gamma_max)
    counts, edges = np.histogram(clipped, bins=DOS_BINS, range=(0.0, gamma_max))
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


# Candidate pairs tested at once by the clustering sweep: a few tens of MB
# of temporaries, however many eigenvalues lie within tol of each other.
_PAIR_BATCH = 1 << 20


def _sweep(coord: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort order of ``coord`` and, for the k-th point in that order,
    the number of later points within ``tol`` of it along this axis: a
    superset of its neighbours within ``tol``, as ``fl(x + tol)`` rounds
    monotonically."""
    order = np.argsort(coord, kind="stable").astype(np.int32)
    key = coord[order]
    return order, np.searchsorted(key, key + tol, "right") - np.arange(1, key.size + 1)


def _near_pairs(lam: np.ndarray, tol: float):
    """Every pair of indices of ``lam`` at distance <= ``tol``, in int32
    batches ``(a, b)`` from about :data:`_PAIR_BATCH` candidates each.

    A sweep along whichever axis leaves fewer candidates; each candidate is
    kept when ``dx^2 + dy^2 <= tol^2``, the distance test of
    ``scipy.spatial.cKDTree.query_pairs``.
    """
    order, counts = min(_sweep(lam.real, tol), _sweep(lam.imag, tol), key=lambda s: s[1].sum())
    x, y = lam.real[order], lam.imag[order]
    cum = np.cumsum(counts)
    lo = 0
    while lo < lam.size:
        base = cum[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(cum, base + _PAIR_BATCH, "right")))
        c = counts[lo:hi]
        # the candidates of row k are the c[k] points after it in the sweep:
        # the t-th candidate of the batch is t - first + 1 points after its row
        i = np.repeat(np.arange(lo, hi, dtype=np.int32), c)
        first = np.repeat((cum[lo:hi] - c - base).astype(np.int32), c)
        j = i + 1 + np.arange(first.size, dtype=np.int32) - first
        dx, dy = x[j] - x[i], y[j] - y[i]
        near = dx * dx + dy * dy <= tol * tol
        yield order[i[near]], order[j[near]]
        lo = hi


def _union(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Merge the components joined by the pairs ``(a[k], b[k])`` in place.

    ``root`` maps every index to the smallest member of its component, and
    does so again on return: each round hooks the larger root of every pair
    still split onto the smaller one, then jumps pointers to a fixed point.
    """
    while True:
        ra, rb = root[a], root[b]
        split = ra != rb
        if not split.any():
            return
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root[:] = jumped


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
    _check_positive("tol", tol)
    lam = spec.eigenvalues
    n = lam.size
    root = np.arange(n, dtype=np.int32)
    for a, b in _near_pairs(lam, tol):
        _union(root, a, b)
    # each root is the smallest member of its component, so the labels
    # number the components by smallest member, as connected_components does
    roots, labels = np.unique(root, return_inverse=True)
    n_comp = roots.size
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
    return gammas[finite], spec.pars[finite]


@dataclass(frozen=True)
class TruncationResult:
    m: int
    kept: np.ndarray
    spectrum: Spectrum
    hausdorff: float


@dataclass(frozen=True)
class TruncationComparison:
    full: Spectrum
    results: list[TruncationResult]


def cloud_hausdorff(eigs_a: np.ndarray, eigs_b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two eigenvalue clouds: the
    largest distance from a point of either cloud to the nearest point of
    the other.  Squared distances are ``dx^2 + dy^2``, taken over blocks of
    rows of ``eigs_a`` against all of ``eigs_b``; that is the arithmetic of
    ``scipy.spatial.distance.directed_hausdorff``, so the value is bitwise
    the same, also for an empty cloud (``inf``, or 0 when both are empty)."""
    a, b = eigs_a, eigs_b
    step = max(1, _BLOCK_BYTES // (8 * max(1, b.size)))
    a_to_b = 0.0
    b_to_a = np.full(b.size, np.inf)  # squared distance to the nearest a so far
    for lo in range(0, a.size, step):
        blk = a[lo:lo + step]
        d2 = np.square(blk.real[:, None] - b.real)
        d2 += np.square(blk.imag[:, None] - b.imag)
        a_to_b = max(a_to_b, d2.min(axis=1, initial=np.inf).max())
        np.minimum(b_to_a, d2.min(axis=0), out=b_to_a)
    return float(np.sqrt(b_to_a.max(initial=a_to_b)))


def truncated_spectrum_compare(
    graph: DirectedGraph,
    alpha: float,
    m_list,
    tol: float = EIG_TOL,
) -> TruncationComparison:
    """Spectrum of rank-truncated operators against the full one.

    Orders nodes by rank score, restricts the operator to the top m for each
    requested size, diagonalizes both (see :func:`operator_spectrum`), and
    records the Hausdorff distance between the eigenvalue clouds for overlay
    plots.  Every size must lie in ``[1, N]``; all are checked before any
    work.  The spectra keep no eigenvectors, so each one's are freed before
    the next operator is diagonalized.
    """
    g = GoogleMatrix.from_graph(graph, alpha)
    sizes = [int(m) for m in m_list]
    for m in sizes:
        if not 1 <= m <= g.n:
            raise ValueError(f"sizes must lie in [1, {g.n}], got {m}")
    rank = pagerank(g)
    full = replace(_spectrum(g, tol, rank if alpha < 1.0 else None), packed=None)
    results = []
    for m in sizes:
        truncated, kept = truncate_by_rank(g, rank, m)
        spec_m = replace(operator_spectrum(truncated, tol), packed=None)
        results.append(
            TruncationResult(
                m=m,
                kept=kept,
                spectrum=spec_m,
                hausdorff=cloud_hausdorff(spec_m.eigenvalues, full.eigenvalues),
            )
        )
    return TruncationComparison(full=full, results=results)


def spectrum_to_csv(spec: Spectrum, target, lambda_cutoff: float = ZERO_MODE_CUTOFF) -> None:
    """``re,im,abs,gamma,par,residual`` per eigenvalue (gamma is ``inf`` for
    zero modes)."""
    lam = spec.eigenvalues
    gammas, _ = _rates(spec, lambda_cutoff)
    columns = (lam.real, lam.imag, np.abs(lam), gammas, spec.pars, spec.residuals)
    fmt = ",".join(["%.17g"] * 6) + "\n"
    _write_table(target, "re,im,abs,gamma,par,residual\n", fmt, columns)


def eigenvector_pars_to_csv(gammas, pars, target) -> None:
    """``gamma,par`` rows, one per non-zero-mode eigenvector."""
    _write_table(target, "gamma,par\n", "%.17g,%.17g\n", (gammas, pars))


def dos_to_csv(hist: DosHistogram, target) -> None:
    """``gamma_bin_center,W,integrated`` rows; zero-mode fraction and the
    effective smoothing window go into leading comment lines."""
    head = (
        f"# zero_modes={hist.zero_modes:.17g}\n"
        f"# smoothing_window={hist.smoothing_window:.17g}\n"
        "gamma_bin_center,W,integrated\n"
    )
    columns = (hist.bin_centers, hist.density, hist.integrated)
    _write_table(target, head, "%.17g,%.17g,%.17g\n", columns)


def degeneracy_to_csv(report: DegeneracyReport, target) -> None:
    """``re,im,multiplicity`` per cluster in the report's order."""
    head = f"# tolerance={report.tolerance:.17g}\nre,im,multiplicity\n"
    reps = np.array([c.representative for c in report.clusters], dtype=np.complex128)
    columns = (reps.real, reps.imag, [c.multiplicity for c in report.clusters])
    _write_table(target, head, "%.17g,%.17g,%d\n", columns)
