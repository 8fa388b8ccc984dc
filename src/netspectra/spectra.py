"""Full complex eigendecomposition of dense damped link operators and the
derived spectral observables.

Relaxation rates are defined through ``|lambda| = exp(-gamma/2)``, so the
leading eigenvalue sits at gamma = 0 and eigenvalues numerically at zero have
no finite rate (they are bucketed separately as "zero modes").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np
from scipy import sparse
from scipy.linalg import blas, lapack, schur

from .gmatrix import GoogleMatrix, StochasticMatrix, scc_order, truncate_by_rank
from .netcore import DirectedGraph, _check_positive, _write_table
from .ranking import RankVector, pagerank

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
    solver saw and ``closed`` the closed ones (in :func:`gmatrix.scc_order`
    the components and closed classes), ``apart`` the closed classes
    diagonalized on their own, and ``lumped`` and ``lumped_rows`` the
    columns and rows lumped before dgeev (see :func:`eigendecompose`).
    ``fro`` is ``||M||_F``, the scale of the residual contract.
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
    lumped_rows: int = 0
    apart: int = 0
    fro: float = np.nan

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Unit-norm right eigenvectors as columns aligned with
        ``eigenvalues``, rows in node order (read-only), built from the
        packed matrix on first use, one certification block of columns at a
        time: complex when the solver returned a conjugate pair.  Where
        nothing is lumped or solved apart they are bitwise the columns of
        ``scipy.linalg.eig`` divided by their norms (see :func:`_dgeev` for
        the others)."""
        if self.packed is None:
            raise ValueError("spectrum carries no eigenvectors")
        packed, n, first = self.packed, self.n, self.pair_first
        second = np.zeros(n, dtype=bool)  # the v column of a pair u, v
        second[1:] = first[:-1]
        rows = np.arange(n) if self.rows is None else np.argsort(self.rows)
        vecs = np.empty((n, n), complex if first.any() else float, order="F")
        for lo in range(0, n, step := _block_columns(n)):
            cols = self.order[lo:lo + step]
            blk = vecs[:, lo:lo + step]  # Fortran order, so the norms sum as scipy's layout takes them
            blk[...] = packed[np.ix_(rows, cols - second[cols])]  # u, or the real column
            pair = np.flatnonzero(first[cols] | second[cols])
            if pair.size:  # u + iv, and u - iv for the second of the pair
                im = packed[np.ix_(rows, cols[pair] + first[cols[pair]])]
                blk.imag[:, pair] = np.where(second[cols[pair]], -im, im)
            blk /= np.linalg.norm(blk, axis=0)
        vecs.setflags(write=False)
        return vecs


# Bytes of one block of residual columns, which stays in cache: an eighth
# of the columns up to N = 1,024, about 2^17 / N columns above.
_BLOCK_BYTES = 1 << 20


def _block_columns(n: int) -> int:
    return max(2, min(n // 8, _BLOCK_BYTES // (8 * n)))


def dense_memory_bytes(n: int) -> int:
    """Bytes the dense path holds at its peak for an n-node operator, with
    no dense S or G (the O(n) vectors aside): dgeev's copy of the core, its
    eigenvectors and workspace; then the packed eigenvectors beside the
    core's while they are lifted, one class apart (no more than the core's,
    see :func:`_dgeev`), or a few certification blocks of n x b.  It grows
    with n, and truncation spectra keep no eigenvectors, so it bounds
    those of the operator's truncations too."""
    work, _ = lapack.dgeev_lwork(n, compute_vl=0, compute_vr=1)
    return 8 * (n * (2 * n + _block_columns(n)) + int(work))


def _times_d(vb, wr, wi, f, out=None):
    """``VR D`` for a block of packed columns VR that splits no conjugate
    pair, ``f`` the first columns of its pairs (see :func:`_certify_block`),
    into ``out`` if given (which may be ``vb``)."""
    u, v = wi[f + 1] * vb[:, f + 1], wi[f] * vb[:, f]
    r = np.multiply(vb, wr, out=out)
    r[:, f] += u
    r[:, f + 1] += v
    return r


# A norm from here up to overflow is accurate to rounding without scaling:
# the squares lost below the normal range are below its last bit
_NORM_SAFE = np.sqrt(np.finfo(float).tiny / np.finfo(float).eps)


def _certify_block(product, vb, wr, wi, first):
    """Squared norm, sum of fourth powers of the entry moduli, and residual
    norm of the eigenvectors in one block of packed columns that splits no
    conjugate pair; a pair's two columns both get the values of ``u + iv``.

    ``M VR = VR D`` holds with D block diagonal: ``a`` on the diagonal for
    a real eigenvalue, and ``[[a, b], [-b, a]]`` for a pair, so that
    ``M u = a u - b v`` and ``M v = b u + a v``.  The residual block is
    ``product(VR) - VR D``, taken on a row-major copy of the block, the
    layout a sparse product reads; a column whose squares overflow or near
    underflow is scaled before it is squared.  Every PAR sum runs along one
    contiguous row of a transposed block, so they do not depend on the
    blocking.
    """
    f = np.flatnonzero(first)
    c = vb.copy(order="C")
    r = product(c)
    r -= _times_d(c, wr, wi, f, out=c)
    del c
    rn = np.sqrt(np.einsum("ij,ij->j", r, r))
    odd = np.flatnonzero(~(rn >= _NORM_SAFE) | (rn == np.inf))  # nan too
    e = np.frexp(np.abs(r[:, odd]).max(axis=0, initial=0.0))[1]  # a power of two scales exactly
    rn[odd] = np.ldexp(np.linalg.norm(np.ldexp(r[:, odd], -e), axis=0), e)
    del r
    mod2 = np.square(vb.T)  # one packed column per contiguous row
    mod2[f] += mod2[f + 1]  # |u + iv|^2 = u^2 + v^2 entry by entry
    s2 = mod2.sum(axis=1)
    s4 = np.square(mod2, out=mod2).sum(axis=1)
    s2[f + 1], s4[f + 1] = s2[f], s4[f]
    rn[f] = rn[f + 1] = np.hypot(rn[f], rn[f + 1])
    return s2, s4, rn


def _damp(wr, wi, vr, closed: int, alpha: float, rank) -> None:
    """Turn the eigenpairs ``(wr + i wi, vr)`` of a column-stochastic S into
    those of ``G = alpha*S + (1-alpha)/N * ee^T`` in place.

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


def _gather(a, rows, cols, order: str = "F") -> np.ndarray:
    """``a[rows][:, cols]`` as a new array in ``order``, for a dense ``a`` or
    the CSC link matrix of S (its empty columns uniform): the dense S's
    floats, in one pass over the entries of ``cols``."""
    if not sparse.issparse(a):
        return a[np.ix_(rows, cols)] if order == "C" else a.T[np.ix_(cols, rows)].T
    n = a.shape[0]
    out = np.zeros((rows.size, cols.size), order=order)
    where = np.full(n, -1)
    where[rows] = np.arange(rows.size)
    start, count = a.indptr[cols], np.diff(a.indptr)[cols]
    col = np.repeat(np.arange(cols.size), count)
    pos = np.arange(col.size) + np.repeat(start - np.cumsum(count) + count, count)
    row = where[a.indices[pos]]
    inside = row >= 0
    out[row[inside], col[inside]] = a.data[pos[inside]]
    out[:, count == 0] = 1.0 / n
    return out


def _repeats(a, rows=slice(None), cols=slice(None)) -> np.ndarray:
    """Representative of each of the columns ``cols`` of ``a`` (dense, or a
    CSC link matrix as in :func:`_gather`), as a position in ``cols``: the
    first of them, in matrix order, whose bits in ``rows`` all equal its
    own.  A column that is all zero there is its own, since dgebal isolates
    it anyway.  One key per column (its bit patterns in ``rows`` times
    fixed odd weights, summed modulo 2^64, so equal columns get equal keys
    whatever the storage), then each candidate group is confirmed on the
    columns."""
    n = a.shape[0]
    rows, cols = np.arange(n)[rows], np.arange(a.shape[1])[cols]
    weights = np.zeros(n, dtype=np.uint64)
    weights[rows] = np.arange(1, 2 * rows.size, 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    if sparse.issparse(a):  # the keys of the entries, and of the uniform dangling columns
        sums = np.zeros(a.nnz + 1, dtype=np.uint64)
        np.cumsum(weights[a.indices] * a.data.view(np.uint64), out=sums[1:])
        keys = sums[a.indptr[1:]] - sums[a.indptr[:-1]]
        keys[np.diff(a.indptr) == 0] = (weights * np.float64(1 / n).view(np.uint64)).sum()
    else:
        keys = weights @ a.view(np.uint64)
    keys = keys[cols]
    _, labels, counts = np.unique(keys, return_inverse=True, return_counts=True)
    rep = np.arange(cols.size)
    cand = np.flatnonzero(counts[labels] > 1)
    cand = cand[np.argsort(labels[cand], kind="stable")]  # by key, ascending within one
    for members in np.split(cand, np.flatnonzero(np.diff(labels[cand])) + 1):
        if members.size and keys[members[0]] == 0:  # where the zero columns are
            members = members[_gather(a, rows, cols[members]).view(np.uint64).any(axis=0)]
        while members.size > 1:
            block = _gather(a, rows, cols[members]).view(np.uint64)
            same = (block == block[:, :1]).all(axis=0)
            rep[members[same]] = members[0]
            members = members[~same]
    return rep


# dgeev scales a matrix whose largest entry lies outside [1/_GEEV_BIG,
# _GEEV_BIG], and scipy's LAPACK leaves its eigenvalues scaled
_GEEV_BIG = np.finfo(float).eps / np.sqrt(np.finfo(float).tiny)


def _geev(a, overwrite_a: int = 0):
    """Eigenvalues ``wr + i wi`` and packed right eigenvectors of ``a`` by
    one dgeev, of ``a`` scaled by a power of two (exactly) where dgeev
    would scale it."""
    top = max(a.max(), -a.min())
    e = int(np.frexp(top)[1]) if top > 0 and not 1 / _GEEV_BIG <= top <= _GEEV_BIG else 0
    if e:
        a, overwrite_a = np.ldexp(a, -e), 1
    work, _ = lapack.dgeev_lwork(a.shape[0], compute_vl=0, compute_vr=1)
    wr, wi, _, vr, info = lapack.dgeev(a, compute_vl=0, compute_vr=1, lwork=int(work), overwrite_a=overwrite_a)
    if info != 0:
        raise EigensolverError(f"QR iteration failed to converge (dgeev info {info})")
    return np.ldexp(wr, e), np.ldexp(wi, e), vr


def _diagonal_blocks(a):
    """``(lo, hi, closed, linked)`` of every diagonal block ``a[lo:hi, lo:hi]``,
    the finest contiguous ones with only zeros below them: whether none of
    its columns has an entry outside it, and whether a column outside it has
    an entry in its rows.  With the nodes in :func:`gmatrix.scc_order` the
    blocks are the strongly connected components, and the closed ones the
    closed classes.  An empty row or column counts as linking everywhere;
    a CSC link matrix (see :func:`_gather`) is read off its index arrays."""
    n = a.shape[0]
    if sparse.issparse(a):
        ptr, full = a.indptr, np.diff(a.indptr) == 0
        top, bottom = np.zeros(n, dtype=np.int64), np.full(n, n - 1)
        top[~full], bottom[~full] = a.indices[ptr[:-1][~full]], a.indices[ptr[1:][~full] - 1]
        right = np.full(n, np.flatnonzero(full).max(initial=-1))
        np.maximum.at(right, a.indices, np.repeat(np.arange(n), np.diff(ptr)))
        right[right < 0] = n - 1
    else:
        nz = a != 0
        top = nz.argmax(axis=0)  # first row of each column's entries
        bottom = n - 1 - nz[::-1].argmax(axis=0)  # last row of each column's entries
        right = n - 1 - nz[:, ::-1].argmax(axis=1)  # last column of each row's entries
    hi = np.flatnonzero(np.maximum.accumulate(bottom) <= np.arange(n)) + 1
    lo = np.concatenate(([0], hi[:-1]))
    return lo, hi, np.minimum.reduceat(top, lo) >= lo, np.maximum.reduceat(right, lo) >= hi


def _sylvester(vr, rest, l, h, block, link, wr, wi, first) -> None:
    """Rows ``l:h`` of the rest's eigenvectors, the first ``rest.size``
    columns of ``vr``, for the closed block ``block`` that the rest links
    into through ``link`` (its rows, the rest's columns).

    With the rest's eigenvectors V in packed form, ``R V = V D`` (see
    :func:`_certify_block`), so the block's rows X solve
    ``block X - X D = -link V``; in the real Schur form
    ``block = Q T Q^T`` that is dtrsyl's ``T Y - Y D = scale * (-Q^T link V)``
    with ``X = Q Y / scale``, solved for up to 256 columns of D at a time.
    dtrsyl shrinks ``scale`` below 1 only to keep Y finite, so the rest of
    those columns is multiplied by it rather than Y divided.  An eigenvalue
    of the rest that the block shares makes T - lambda singular; dtrsyl
    then perturbs it, and the large Y spans the block's own eigenvector.
    """
    t, q = schur(block)
    for lo, hi in _blocks(first, 256):
        f = np.flatnonzero(first[lo:hi])
        d = np.diag(wr[lo:hi])
        d[f, f + 1] = wi[lo:hi][f]
        d[f + 1, f] = wi[lo:hi][f + 1]
        y = q.T @ (link @ vr[rest, lo:hi])
        np.negative(y, out=y)
        y, scale, _ = lapack.dtrsyl(t, d, y, isgn=-1, overwrite_c=1)
        if scale != 1.0:
            vr[:, lo:hi] *= scale
        vr[l:h, lo:hi] = q @ y


def _lump(a, rest, rep):
    """The core of the m x m ``src``, a new Fortran-ordered array, and what
    :func:`_lift` needs, for ``src = a[rest][:, rest]``, whose column j
    equals column ``rep[j] <= j`` bit for bit.

    With J the columns that repeat an earlier one, ``U = I - sum_j e_rep(j)
    e_j^T`` zeroes each column j of ``U^-1 src U`` and adds row j into row
    ``rep(j)``: the representatives' rows and columns are then the g x g
    lumped matrix M (Ipsen & Selee), and below M sit X, the rows J on the
    representatives' columns.  Then T zeroes each nonzero row i of M that
    repeats an earlier one, ``k(i)``, and adds column i into column
    ``k(i)``; scaled by the size of each group, so that its column is its
    members' mean and its row their sum (the lumped Markov chain of a
    stochastic M, stochastic too), the rows and columns left, K, are the
    core.  An all-zero row or column is not lumped (dgebal isolates it), nor
    is a row unless some column is.  M is gathered from ``a`` (see
    :func:`_gather`) into a new array, and the core out of M into another,
    M dropped at once.  The
    spectrum of ``src`` is that of the core and ``m - |K|`` zeros.  Returns
    the core and ``(rep, reps, extra, x, pos, size, lost)``: ``rep``, the
    representatives, J, X, the row of the core and the size of the group of
    each row of M, and the rounding level of the core's eigenvectors.
    """
    m = rest.size
    reps, extra = np.flatnonzero(rep == np.arange(m)), np.flatnonzero(rep != np.arange(m))
    g = reps.size
    x = _gather(a, rest[extra], rest[reps], "C")
    core = _gather(a, rest[reps], rest[reps])
    np.add.at(core, np.searchsorted(reps, rep[extra]), x)
    row = _repeats(core.T)
    folded = row != np.arange(g)
    np.add.at(core.T, row[folded], core.T[folded])  # column i into column k(i)
    keep = np.flatnonzero(~folded)
    k = keep.size
    if k < g:
        core = core.T[np.ix_(keep, keep)].T
    size = np.bincount(row)[row].astype(float)  # the members of each row's group
    big = np.flatnonzero(size[keep] > 1)
    core[:, big] /= size[keep[big]]  # each group's column is its members' mean
    core[big] *= size[keep[big], None]
    lost = 16 * np.finfo(float).eps * np.linalg.norm(core, "fro")
    return core, (rep, reps, extra, x, np.searchsorted(keep, row), size, lost)


def _lift(vr, rows, lumping, wr, wi, v) -> None:
    """The packed eigenvectors of ``src`` in rows ``rows`` of ``vr[:, :m]``
    from those of its core (see :func:`_lump`), ``(wr + i wi, v)``.

    An eigenpair ``(lambda, c)`` of the core is one of ``T U^-1 src U T^-1``
    with the vector ``phi = [lambda c on K; X c' on J; 0 on the repeated
    rows]``, where ``c'`` is c with each member of a row group taking its
    representative's entry over the group's size; ``psi = U T^-1 phi`` is
    then ``lambda c'`` on the representatives, less the entries of X c' of
    each one's group, and X c' on J (lambda applied in the packed form of
    :func:`_certify_block`).
    dgeev's residual on the core enters psi on the core's rows only, and
    rounding on J only along ``e_j - e_rep(j)``, which ``src`` maps to 0, so
    the residual is at rounding level relative to ``|phi|``.  Where phi is
    below ``lost`` relative to ``|c'|`` (an exact null direction of the
    core), psi is c' on the representatives instead, which ``src`` maps to
    ``C c'`` with C the distinct columns, within ``lost`` of zero.  Each
    j in J gets ``e_j - e_rep(j)`` with the eigenvalue 0.0, and each
    repeated row, whose zero is defective, a copy of the first of those.
    """
    rep, reps, extra, x, pos, size, lost = lumping
    k = v.shape[1]
    first = wi > 0
    group = np.searchsorted(reps, rep[extra])
    for lo, hi in _blocks(first, max(2, k // 16)):
        c = v[pos, lo:hi] / size[:, None]
        y = x @ c
        f = np.flatnonzero(first[lo:hi])
        phi = _times_d(c, wr[lo:hi], wi[lo:hi], f)
        norms = np.einsum("ij,ij->j", phi, phi) + np.einsum("ij,ij->j", y, y)
        c2 = np.einsum("ij,ij->j", c, c)
        for arr in (norms, c2):
            arr[f] = arr[f + 1] = arr[f] + arr[f + 1]
        np.subtract.at(phi, group, y)
        weak = norms <= lost * lost * c2
        phi[:, weak], y[:, weak] = c[:, weak], 0.0
        vr[rows[reps], lo:hi] = phi
        vr[rows[extra], lo:hi] = y
    cols = np.arange(k, k + extra.size)
    vr[rows[extra], cols] = 1.0
    vr[rows[rep[extra]], cols] = -1.0
    copies = slice(k + extra.size, rows.size)
    vr[rows[extra[0]], copies] = 1.0
    vr[rows[rep[extra[0]]], copies] = -1.0


def _dgeev(a, blocks):
    """Eigenvalues ``wr + i wi`` and packed right eigenvectors of ``a``,
    dense or a CSC link matrix (see :func:`_gather`), given its
    :func:`_diagonal_blocks` ``blocks``; the number of closed blocks solved
    on their own; and the columns and rows lumped.

    Each closed block of :func:`_diagonal_blocks` gets its own dgeev, and
    its eigenvectors padded with zeros are eigenvectors of ``a``.  Such a
    block costs its dgeev, about ``c^3``, apart, twice that with the Schur
    form it needs when the rest links into it, and ``(r + c)^3 - r^3`` in
    the rest's dgeev, so it stays with the rest when that is cheaper, or
    when it would hold more than the n^2 floats of dgeev's copy of the rest:
    itself and its eigenvectors, and when linked its Schur form and the rows
    the rest links into it with.  The other indices, the rest, have their
    repeated columns and then their repeated rows lumped (see
    :func:`_lump`), one dgeev solves the core, and its eigenvectors are
    lifted to the rest's (see :func:`_lift`).  The rest is lumped only when
    one of its diagonal blocks holds an eighth of it or more: dgeev's QR
    work is cubic in those blocks, and on a rest of smaller ones, nearly
    triangular, lumping's passes over the rest cost more than the smaller
    dgeev saves.  dgeev sees a Fortran-ordered copy of the rest's matrix, or
    its core, gathered from ``a`` and freed before the packed eigenvectors
    are allocated.  Each block apart is gathered as it is solved, for its
    own dgeev to work on in place, with the rows the rest links into it
    with, which give the rest's eigenvectors their rows there (see
    :func:`_sylvester`).  The rest's columns come first, and with a block
    apart each of them is scaled by its largest entry (a conjugate pair's
    two by one factor).
    """
    n = a.shape[0]
    lo, hi, closed, linked = blocks
    size = hi - lo
    r = n - size[closed].sum()
    fits = (2 + linked) * size**2 + linked * size * n <= n * n  # beside the packed vectors
    apart = closed & fits & ((1 + linked) * size**3 <= (r + size) ** 3 - r**3)
    rest = np.flatnonzero(~np.repeat(apart, size))
    m = rest.size
    cubic = 8 * size[~apart].max(initial=0) >= m  # worth lumping
    rep = _repeats(a, rest, rest) if cubic else np.arange(m)
    lumped = m - int(np.count_nonzero(rep == np.arange(m)))
    core, lumping = _lump(a, rest, rep) if lumped else (_gather(a, rest, rest), None)
    wr, wi, v = _geev(core, overwrite_a=1) if m else (np.empty(0), np.empty(0), None)
    del core
    k = wr.size
    vr = np.zeros((n, n), order="F")
    if lumped:
        _lift(vr, rest, lumping, wr, wi, v)
        wr, wi = (np.concatenate([w, np.zeros(m - k)]) for w in (wr, wi))
    elif m:
        vr[rest, :m] = v
    del v
    first = wi > 0
    eigs, col = [(wr, wi)], m
    for l, h, link in zip(lo[apart], hi[apart], linked[apart]):
        span = np.arange(l, h)
        block = _gather(a, span, span)
        if link:
            _sylvester(vr, rest, l, h, block, _gather(a, span, rest, "C"), wr, wi, first)
        *w, vr[l:h, col:col + h - l] = _geev(block, overwrite_a=1)
        eigs.append(w)
        col += h - l
    if col > m:
        f = np.flatnonzero(first)
        top = np.abs(vr[:, :m]).max(axis=0)
        top[f] = top[f + 1] = np.maximum(top[f], top[f + 1])
        vr[:, :m] /= top
    wr, wi = (np.concatenate(w) for w in zip(*eigs))
    return wr, wi, vr, int(apart.sum()), lumped, m - k - lumped


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


def eigendecompose(matrix, tol: float = EIG_TOL, damping=None) -> Spectrum:
    """Full eigendecomposition of a dense real nonsymmetric matrix, or of
    the column-stochastic S whose CSC link matrix ``matrix`` is (its empty
    columns are S's uniform dangling ones, and dgeev sees the floats of the
    dense S).

    Any method is acceptable as long as every pair satisfies
    ``||M psi - lambda psi||_2 <= tol * ||M||_F``, with the norm and every
    residual finite (else :class:`EigensolverError`); this calls LAPACK
    ``dgeev`` (balanced Hessenberg/QR, the routine behind
    ``scipy.linalg.eig``) and keeps its packed real eigenvectors.  The
    matrix's diagonal blocks (see :func:`_diagonal_blocks`) are counted in
    ``blocks`` and the closed ones in ``closed``; ``apart`` counts the
    closed classes solved on their own, and ``lumped`` and ``lumped_rows``
    the repeated columns and rows of the other indices, each given an exact
    null vector with eigenvalue 0.0 (see :func:`_dgeev`).  With nothing
    lumped or apart, the eigenpairs are bitwise those of
    ``scipy.linalg.eig``.  The contract is checked column block by column
    block (see :func:`_certify_block`), by the GEMM of a dense matrix or by
    :meth:`gmatrix.GoogleMatrix.apply` for S, with each eigenvector's
    participation ratio in the same pass.  ``||M||_F`` is BLAS nrm2 of a
    dense matrix, and for S ``alpha^2 ||S||_F^2 + 2 alpha c N + c^2 N^2``
    with ``c = (1 - alpha)/N``, a dangling column adding 1/N to
    ``||S||_F^2``.

    With ``damping = (alpha, rank)``, ``matrix`` is the link matrix with
    its nodes in :func:`gmatrix.scc_order`, so that ``closed`` is the
    multiplicity of the eigenvalue 1 of S, and the spectrum is that of
    ``G = alpha*S + (1-alpha)/N * ee^T``: once dgeev is done, the
    eigenpairs are mapped to G (see :func:`_damp`), and the contract is
    checked against G.  ``rank`` is G's rank vector in the rows' order.
    """
    _check_positive("tol", tol)
    if not sparse.issparse(matrix):
        matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    n = matrix.shape[0]
    if n == 0:
        raise ValueError("matrix must be at least 1x1")
    alpha, rank = damping or (1.0, None)
    if rank is not None and not sparse.issparse(matrix):
        raise ValueError("damping needs the link matrix of S")
    if sparse.issparse(matrix):
        link = sparse.csc_matrix(matrix)
        if not (link.has_canonical_format and link.data.all()):  # as its index arrays are read:
            link = link.copy()  # sorted, one nonzero entry per place
            link.sum_duplicates()
            link.eliminate_zeros()
        g = GoogleMatrix(StochasticMatrix(link, np.diff(link.indptr) == 0), alpha)
        a, product, c, s2 = g.s.matrix, g.apply, (1.0 - alpha) / n, g.s.n_dangling / n
        fro = np.sqrt(alpha * alpha * (a.data @ a.data + s2) + 2.0 * alpha * c * n + c * c * n * n)
    else:
        if not np.isfinite(matrix).all():
            raise ValueError("matrix must not contain infs or NaNs")
        a, product = matrix, partial(np.matmul, matrix)
        fro = blas.dnrm2(a.ravel(order="K"))  # scaled, so it overflows only when the norm does
    if not np.isfinite(fro):
        raise EigensolverError(f"||M||_F = {fro} is not finite")
    blocks = _diagonal_blocks(a)
    closed = int(np.count_nonzero(blocks[2]))
    wr, wi, vr, apart, lumped, lumped_rows = _dgeev(a, blocks)
    first = wi > 0  # LAPACK stores b > 0 of a pair a +- ib first
    if rank is not None:
        _damp(wr, wi, vr, closed, alpha, rank)
    s2, s4, rn = np.empty(n), np.empty(n), np.empty(n)
    for lo, hi in _blocks(first, _block_columns(n)):
        cols = slice(lo, hi)
        s2[cols], s4[cols], rn[cols] = _certify_block(product, vr[:, cols], wr[cols], wi[cols], first[cols])
    if np.any(s2 == 0):
        raise EigensolverError(f"solver returned a zero eigenvector at index {int(np.argmin(s2))}")
    residuals = rn / np.sqrt(s2)
    # a nan residual fails every comparison, so the test is for passing
    bad = ~(np.isfinite(residuals) & (residuals <= tol * fro))
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        limit = f"{tol:.1e} * ||M||_F = {tol * fro:.3e}"
        raise EigensolverError(f"residual {residuals[i]:.3e} at index {i} exceeds {limit}")
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
        blocks=blocks[0].size,
        closed=closed,
        lumped=lumped,
        lumped_rows=lumped_rows,
        apart=apart,
        fro=float(fro),
    )


def operator_spectrum(g: GoogleMatrix, tol: float = EIG_TOL) -> Spectrum:
    """Spectrum of the operator ``g``, from one eigendecomposition of its
    link matrix S, kept sparse: no dense S or G is built.

    The nodes are first put in :func:`gmatrix.scc_order`, so S is block
    upper triangular, one block per strongly connected component, and
    each closed class is a diagonal block with nothing else in its columns:
    :func:`eigendecompose` diagonalizes those on their own where that is
    cheaper, and dgeev's Hessenberg reduction and QR sweeps on the rest
    deflate at every block boundary.  The spectrum records that order in
    ``rows``.  Below alpha = 1, :func:`eigendecompose` maps the spectrum of
    S to G (see :func:`_damp`): every eigenvalue lambda != 1 becomes
    alpha*lambda with the same eigenvector, and the eigenvalue 1 gets the
    rank vector of :func:`ranking.pagerank`.
    """
    return _spectrum(g, tol, pagerank(g) if g.alpha < 1.0 else None)


def _spectrum(g: GoogleMatrix, tol: float, rank) -> Spectrum:
    """:func:`operator_spectrum` with the rank vector of ``g`` given (None
    at alpha = 1)."""
    rows = scc_order(g.s)
    damping = None if rank is None else (g.alpha, rank.values[rows])
    spec = eigendecompose(g.s.matrix[rows][:, rows], tol, damping)
    return replace(spec, rows=rows)


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
    decreasing multiplicity then decreasing ``|representative|``.

    Held as arrays in that order: each cluster's representative and
    multiplicity, and ``members``, every cluster's members one cluster after
    another.  :attr:`clusters` builds one :class:`DegeneracyCluster` per
    cluster on first read."""

    representatives: np.ndarray
    multiplicities: np.ndarray
    members: np.ndarray
    tolerance: float

    @cached_property
    def clusters(self) -> list[DegeneracyCluster]:
        groups = np.split(self.members, np.cumsum(self.multiplicities)[:-1])
        return [
            DegeneracyCluster(representative=complex(rep), multiplicity=int(size), members=members)
            for rep, size, members in zip(self.representatives, self.multiplicities, groups)
        ]


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
    sizes = np.bincount(labels, minlength=roots.size)
    members = np.argsort(labels, kind="stable")  # by component, ascending within one
    starts = np.cumsum(sizes) - sizes
    # a single member's mean is itself (+ 0.0, as the sum starts from 0.0)
    reps = lam[roots] + 0.0
    for c in np.flatnonzero(sizes > 1):
        reps[c] = lam[members[starts[c]:starts[c] + sizes[c]]].mean()
    # stable, as the sort of the list was; hypot is Python's abs(complex)
    order = np.lexsort((-np.hypot(reps.real, reps.imag), -sizes))
    moved = np.empty_like(starts)
    moved[order] = np.cumsum(sizes[order]) - sizes[order]  # each component's new start
    comp = labels[members]
    out = np.empty_like(members)
    out[moved[comp] + np.arange(n) - starts[comp]] = members
    return DegeneracyReport(reps[order], sizes[order], out, tol)


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
    """The full operator's spectrum, one result per size, and the rank
    vector that chose the kept nodes."""

    full: Spectrum
    results: list[TruncationResult]
    rank: RankVector


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
    plots.  Every size must lie in ``[1, N]`` and appear once; all are
    checked before any work.  The spectra keep no eigenvectors, so each
    one's are freed before the next operator is diagonalized.  The rank
    vector is returned whether or not it converged.
    """
    g = GoogleMatrix.from_graph(graph, alpha)
    sizes = [int(m) for m in m_list]
    for k, m in enumerate(sizes):
        if not 1 <= m <= g.n:
            raise ValueError(f"sizes must lie in [1, {g.n}], got {m}")
        if m in sizes[:k]:
            raise ValueError(f"sizes must not repeat, got {m} more than once")
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
    return TruncationComparison(full=full, results=results, rank=rank)


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
    reps = report.representatives
    columns = (reps.real, reps.imag, report.multiplicities)
    _write_table(target, head, "%.17g,%.17g,%d\n", columns)
