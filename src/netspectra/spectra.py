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
from scipy.linalg import blas, lapack, schur

from .gmatrix import GoogleMatrix, scc_order, truncate_by_rank
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
    solver saw and ``closed`` the closed ones among them, on every
    spectrum; in :func:`gmatrix.scc_order` these are the components and the
    closed classes, the multiplicity of the eigenvalue 1 of S.  ``apart``
    counts the closed classes diagonalized on their own, and ``lumped`` and
    ``lumped_rows`` the columns and then the rows of the other indices that
    repeated an earlier one bit for bit and were lumped before dgeev (see
    :func:`eigendecompose`).  ``fro`` is ``||M||_F`` of the matrix whose
    spectrum this is, the scale of the residual contract.  Residuals and
    PARs do not depend on the row order.
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
        packed matrix on first use: complex when the solver returned a
        conjugate pair.  For :func:`eigendecompose` of a matrix whose
        columns are all distinct and none of whose closed classes is solved
        apart they are bitwise the columns of ``scipy.linalg.eig`` divided
        by their norms; a class solved apart has its own eigenvectors, zero
        outside it, and gives the others their rows in it; where the other
        indices repeat a column, each repeat j of column ``rep(j)`` has
        ``(e_j - e_rep(j)) / sqrt(2)`` there, with eigenvalue exactly 0,
        each repeated row a copy of one of those, and the rest are lifts
        of the core's eigenvectors (see :func:`_lift`).  Below alpha = 1,
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
    block (the O(n) vectors aside).  dgeev's copy is of the k x k core (all
    of the operator when nothing is split or lumped), freed before the
    packed eigenvectors are allocated; beside those are then held the
    repeated columns' rows and the core's k x k eigenvectors while they are
    lifted, then the rows the rest links into the classes with and one
    class's c x c blocks, and at last one residual block no larger than the
    core's eigenvectors freed before it.  It grows with n, and a truncation
    comparison keeps no eigenvectors, so it also bounds diagonalizing the
    truncations of that operator one after another."""
    return 8 * n * (3 * n + _block_columns(n))


def _power_sums(mod2):
    """Row sums of ``|psi|^2`` and of ``|psi|^4``, given ``|psi|^2`` with one
    eigenvector per contiguous row (overwritten)."""
    s2 = mod2.sum(axis=1)
    return s2, np.square(mod2, out=mod2).sum(axis=1)


def _times_d(vb, wr, wi, f):
    """``VR D`` in Fortran order for a block of packed columns VR that
    splits no conjugate pair, ``f`` the first columns of its pairs (see
    :func:`_certify_block`)."""
    r = np.multiply(vb, wr, order="F")
    step = max(16, vb.shape[1] // 16)  # pairs per pass, so that the gathered columns stay small
    for lo in range(0, f.size, step):
        g = f[lo:lo + step]
        r[:, g] += wi[g + 1] * vb[:, g + 1]
        r[:, g + 1] += wi[g] * vb[:, g]
    return r


def _certify_block(a, trans: int, vb, wr, wi, first, parts=None):
    """Squared norm, sum of fourth powers of the entry moduli, and squared
    residual norm of the eigenvectors in one block of packed columns that
    splits no conjugate pair; a pair's two columns both get the values of
    ``u + iv``.

    ``M VR = VR D`` holds with D block diagonal: ``a`` on the diagonal for
    a real eigenvalue, and ``[[a, b], [-b, a]]`` for a pair, so that
    ``M u = a u - b v`` and ``M v = b u + a v``.  The residual block
    ``M VR - VR D`` is real GEMMs accumulated into ``VR D``: one per
    ``(lo, hi, rows)`` of ``parts`` (by default the whole block), for
    columns ``lo:hi`` that are zero outside ``rows``, over M's columns
    ``rows`` only.  Every sum runs along one contiguous row of a
    transposed block, so a column's norm and PAR do not depend on the
    blocking.
    """
    k = vb.shape[1]
    f = np.flatnonzero(first)
    r = _times_d(vb, wr, wi, f)
    for lo, hi, rows in parts or [(0, k, slice(None))]:
        r[:, lo:hi] = blas.dgemm(
            1.0, a[rows] if trans else a[:, rows], vb[rows, lo:hi], beta=-1.0, c=r[:, lo:hi],
            trans_a=trans, overwrite_c=1,
        )
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


def _damp(matrix, wr, wi, vr, closed: int, alpha: float, rank) -> None:
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
    the residual contract that follows.  Returns those ``closed`` columns.
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
    return unit


def _repeats(lines, rows=slice(None), cols=slice(None)) -> np.ndarray:
    """Representative of each of the columns ``cols`` of ``lines``, as a
    position in ``cols``: the first of them, in matrix order, whose bits in
    ``rows`` all equal its own.  A column that is all zero there is its
    own, since dgebal isolates it anyway.  One key per column (its bit
    patterns in ``rows`` times fixed odd weights, summed modulo 2^64, so
    equal columns get equal keys), then each candidate group is confirmed
    on the columns."""
    bits = lines.view(np.uint64)
    rows, cols = np.arange(bits.shape[0])[rows], np.arange(bits.shape[1])[cols]
    weights = np.zeros(bits.shape[0], dtype=np.uint64)
    weights[rows] = np.arange(1, 2 * rows.size, 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    keys = (weights @ bits)[cols]
    _, labels, counts = np.unique(keys, return_inverse=True, return_counts=True)
    rep = np.arange(cols.size)
    cand = np.flatnonzero(counts[labels] > 1)
    cand = cand[np.argsort(labels[cand], kind="stable")]  # by key, ascending within one
    for members in np.split(cand, np.flatnonzero(np.diff(labels[cand])) + 1):
        if members.size and keys[members[0]] == 0:  # where the zero columns are
            members = members[bits[np.ix_(rows, cols[members])].any(axis=0)]
        while members.size > 1:
            block = bits[np.ix_(rows, cols[members])]
            same = (block == block[:, :1]).all(axis=0)
            rep[members[same]] = members[0]
            members = members[~same]
    return rep


def _geev(a, overwrite_a: int = 0):
    """Eigenvalues ``wr + i wi`` and packed right eigenvectors of ``a`` by
    one dgeev."""
    work, _ = lapack.dgeev_lwork(a.shape[0], compute_vl=0, compute_vr=1)
    wr, wi, _, vr, info = lapack.dgeev(
        a, compute_vl=0, compute_vr=1, lwork=int(work), overwrite_a=overwrite_a
    )
    if info != 0:
        raise EigensolverError(f"QR iteration failed to converge (dgeev info {info})")
    return wr, wi, vr


def _diagonal_blocks(a):
    """``(lo, hi, closed, linked)`` of every diagonal block ``a[lo:hi, lo:hi]``,
    the finest contiguous ones with only zeros below them: whether none of
    its columns has an entry outside it, and whether a column outside it has
    an entry in its rows.  With the nodes in :func:`gmatrix.scc_order` the
    blocks are the strongly connected components, and the closed ones the
    closed classes.  An empty row or column counts as linking everywhere."""
    n = a.shape[0]
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
    is a row unless some column is.  M is gathered from ``a`` into a new
    array, and the core out of M into another, M dropped at once.  The
    spectrum of ``src`` is that of the core and ``m - |K|`` zeros.  Returns
    the core and ``(rep, reps, extra, x, pos, size, lost)``: ``rep``, the
    representatives, J, X, the row of the core and the size of the group of
    each row of M, and the rounding level of the core's eigenvectors.
    """
    m = rest.size
    reps, extra = np.flatnonzero(rep == np.arange(m)), np.flatnonzero(rep != np.arange(m))
    g = reps.size
    x = a[np.ix_(rest[extra], rest[reps])]
    core = a.T[np.ix_(rest[reps], rest[reps])].T
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
    given its :func:`_diagonal_blocks` ``blocks``; the ``(lo, hi, l, h)`` of
    each closed block ``a[l:h, l:h]`` solved on its own, whose eigenvectors
    are the columns ``lo:hi``; and the columns and rows lumped.

    Each closed block of :func:`_diagonal_blocks` gets its own dgeev, and its
    eigenvectors padded with zeros are eigenvectors of ``a``.  Such a block
    costs its dgeev and a Schur form, about ``2 c^3``, apart, and
    ``(r + c)^3 - r^3`` in the rest's dgeev, so it stays with the rest when
    that is cheaper.  The other indices, the rest, have their repeated
    columns and then their repeated rows lumped (see :func:`_lump`), one
    dgeev solves the core, and its eigenvectors are lifted to the rest's
    (see :func:`_lift`); each closed block that the rest links into gives
    them their rows there (see :func:`_sylvester`).  The rest is lumped
    only when one of its diagonal blocks holds an eighth of it or more:
    dgeev's QR work is cubic in those blocks, and on a rest of smaller
    ones, nearly triangular, lumping's passes over the rest cost more than
    the smaller dgeev saves.  dgeev sees a Fortran-ordered copy of the
    rest's matrix, or its core, gathered from ``a`` and freed before the
    packed eigenvectors are allocated: all of ``a`` when nothing is split or
    lumped, with dgeev's eigenpairs of ``a`` bit for bit.  The rest's
    columns come first, and with a block apart each of them is scaled by its
    largest entry (a conjugate pair's two by one factor).
    """
    n = a.shape[0]
    lo, hi, closed, linked = blocks
    size = hi - lo
    r = n - size[closed].sum()
    apart = closed & (size < n) & (~linked | (2 * size**3 <= (r + size) ** 3 - r**3))
    keep = np.ones(n, dtype=bool)
    for l, h in zip(lo[apart], hi[apart]):
        keep[l:h] = False
    rest = np.flatnonzero(keep)
    m = rest.size
    classes = [
        (l, h, a[l:h, l:h], a[l:h][:, rest] if link else None)
        for l, h, link in zip(lo[apart], hi[apart], linked[apart])
    ]
    cubic = 8 * size[~apart].max(initial=0) >= m  # worth lumping
    rep = _repeats(a, rest, rest) if cubic else np.arange(m)
    lumped = m - int(np.count_nonzero(rep == np.arange(m)))
    if lumped:
        core, lumping = _lump(a, rest, rep)
    else:
        core = a.T[np.ix_(rest, rest)].T
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
    wrs, wis, parts = [wr], [wi], []
    for l, h, block, link in classes:
        if link is not None:
            _sylvester(vr, rest, l, h, block, link, wr, wi, first)
        w, wim, vc = _geev(block)
        col = parts[-1][1] if parts else m
        vr[l:h, col:col + h - l] = vc
        wrs.append(w)
        wis.append(wim)
        parts.append((col, col + h - l, l, h))
    if classes:
        f = np.flatnonzero(first)
        top = np.abs(vr[:, :m]).max(axis=0)
        top[f] = top[f + 1] = np.maximum(top[f], top[f + 1])
        vr[:, :m] /= top
    return np.concatenate(wrs), np.concatenate(wis), vr, parts, lumped, m - k - lumped


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


def eigendecompose(matrix, tol: float = EIG_TOL, damping=None) -> Spectrum:
    """Full eigendecomposition of a dense real nonsymmetric matrix.

    Any method is acceptable as long as every pair satisfies
    ``||M psi - lambda psi||_2 <= tol * ||M||_F``; this calls LAPACK
    ``dgeev`` (balanced Hessenberg/QR, the routine behind
    ``scipy.linalg.eig``) and keeps its packed real eigenvectors.  The
    matrix's diagonal blocks are found once (see :func:`_diagonal_blocks`):
    ``blocks`` counts them and ``closed`` the closed ones.  Those are split
    off first (see :func:`_dgeev`): each closed class that is cheaper apart
    gets its own dgeev, and ``apart`` counts those classes.  The other
    indices, the rest, then have their bitwise identical columns (such as
    the uniform columns of dangling nodes) and after those their identical
    rows lumped (see :func:`_lump`), so one more dgeev sees only the core;
    each column j lumped into an earlier one gets the exact null vector
    ``e_j - e_rep(j)`` with eigenvalue 0.0, each row lumped a copy of one of
    those, and ``lumped`` and ``lumped_rows`` count them.  With no column
    lumped and no class apart, dgeev sees a copy of the whole matrix and the
    eigenvalues and eigenvectors are bitwise those of ``scipy.linalg.eig``.
    The contract is then checked in real arithmetic, column block by column
    block (see :func:`_certify_block`), and each eigenvector's participation
    ratio is taken in the same pass; the eigenvectors of a class solved
    apart are zero outside its rows, so their residual GEMM runs over those
    columns of the matrix only.  The traced peak is 15 to 20.3 bytes per
    matrix entry beyond the input at n = 256 (20.3 with nothing split or
    lumped): dgeev's copy of what it sees with its eigenvectors, then the
    packed eigenvectors with the core's, then with one residual block.

    With ``damping = (alpha, rank)``, ``matrix`` holds a column-stochastic
    S with its nodes in :func:`gmatrix.scc_order`, so that ``closed`` is
    the multiplicity of its eigenvalue 1, and the spectrum is that of
    ``G = alpha*S + (1-alpha)/N * ee^T``: once dgeev is done, the
    eigenpairs are mapped to G and G is written over ``matrix`` (see
    :func:`_damp`), and the contract is checked against G.
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
    blocks = _diagonal_blocks(matrix)
    closed = int(np.count_nonzero(blocks[2]))
    wr, wi, vr, parts, lumped, lumped_rows = _dgeev(matrix, blocks)
    first = wi > 0  # LAPACK stores b > 0 of a pair a +- ib first
    # the rows outside which each column is zero: a class solved apart has
    # its own, the other columns all of them
    top, bottom = np.zeros(n, dtype=np.int64), np.full(n, n)
    for lo, hi, l, h in parts:
        top[lo:hi], bottom[lo:hi] = l, h
    if damping is not None:
        unit = _damp(matrix, wr, wi, vr, closed, *damping)
        top[unit], bottom[unit] = 0, n
    a, trans = _gemm_operand(matrix)
    s2, s4, r2 = np.empty(n), np.empty(n), np.empty(n)
    step = _block_columns(n)
    if lumped:  # a certification block no larger than the core's eigenvectors keeps the peak
        step = min(step, max(2, (n - lumped - lumped_rows) ** 2 // n))
    cuts = np.flatnonzero(np.diff(top) | np.diff(bottom)) + 1
    for lo, hi in _blocks(first, step):
        edges = [lo, *cuts[(cuts > lo) & (cuts < hi)], hi]
        runs = [(b - lo, e - lo, slice(top[b], bottom[b])) for b, e in zip(edges, edges[1:])]
        s2[lo:hi], s4[lo:hi], r2[lo:hi] = _certify_block(
            a, trans, vr[:, lo:hi], wr[lo:hi], wi[lo:hi], first[lo:hi], runs
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
        blocks=blocks[0].size,
        closed=closed,
        lumped=lumped,
        lumped_rows=lumped_rows,
        apart=len(parts),
        fro=float(fro),
    )


def operator_spectrum(g: GoogleMatrix, tol: float = EIG_TOL) -> Spectrum:
    """Spectrum of the dense operator ``g``, from one eigendecomposition of
    its link matrix S.

    The nodes are first put in :func:`gmatrix.scc_order`, so the dense S is
    block upper triangular, one block per strongly connected component, and
    each closed class is a diagonal block with nothing else in its columns:
    :func:`eigendecompose` diagonalizes those on their own where that is
    cheaper, and dgeev's Hessenberg reduction and QR sweeps on the rest
    deflate at every block boundary.  The spectrum records that order in
    ``rows``, the component count in ``blocks``, the closed count in
    ``closed`` and the classes solved on their own in ``apart``.  Below
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
    rows = scc_order(g.s)
    damping = None if rank is None else (g.alpha, rank.values[rows])
    spec = eigendecompose(GoogleMatrix(g.s, 1.0).permuted(rows).to_dense(), tol, damping)
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
