"""Column-stochastic link matrices and the damped teleportation operator.

For a graph with adjacency counts A_ij (link j -> i), the link matrix has
S_ij = A_ij / outdeg(j) for columns with outlinks; columns of nodes without
outlinks ("dangling") are uniform 1/N and kept implicit so that applying the
operator stays O(edges + N).  The damped operator with parameter alpha sends
v to ``alpha*S v + (1-alpha)/N * sum(v) * ones``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse

from .netcore import DirectedGraph

if TYPE_CHECKING:
    from .ranking import RankVector

__all__ = [
    "DEFAULT_ALPHA",
    "StochasticMatrix",
    "GoogleMatrix",
    "build_stochastic",
    "scc_order",
    "truncate_by_rank",
]

DEFAULT_ALPHA = 0.85

_COLSUM_TOL = 1e-12


class StochasticMatrix:
    """Sparse column-stochastic matrix with implicit uniform dangling columns.

    ``matrix`` holds only the explicit (non-dangling) columns; ``dangling``
    is a boolean mask of columns that are implicitly 1/N in every entry and
    ``dangling_nodes`` their indices in ascending order.
    """

    def __init__(self, matrix, dangling):
        matrix = sparse.csc_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("stochastic matrix must be square")
        n = matrix.shape[0]
        dangling = np.asarray(dangling, dtype=bool).reshape(n)
        if matrix.nnz and matrix.data.min() < 0:
            raise ValueError("negative entries in stochastic matrix")
        colsums = np.asarray(matrix.sum(axis=0)).ravel()
        if np.any(colsums[dangling] != 0.0):
            raise ValueError("dangling columns must store no explicit entries")
        bad = ~dangling & (np.abs(colsums - 1.0) > _COLSUM_TOL)
        if np.any(bad):
            j = int(np.nonzero(bad)[0][0])
            raise ValueError(
                f"column {j} sums to {colsums[j]!r}, expected 1 within {_COLSUM_TOL}"
            )
        matrix.sort_indices()
        self.matrix = matrix
        self.dangling = dangling
        self.dangling.setflags(write=False)
        self.dangling_nodes = np.flatnonzero(dangling)
        self.dangling_nodes.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_dangling(self) -> int:
        return self.dangling_nodes.size


def _normalize_columns(mat) -> tuple[sparse.csc_matrix, np.ndarray]:
    """Scale every nonempty column of a CSC matrix by its accumulated float
    sum, so it sums to 1 to machine precision (pairwise accumulation of the
    unscaled entries can leave sums a few ulp off).  Returns the scaled
    matrix and the mask of empty columns."""
    colsums = np.asarray(mat.sum(axis=0)).ravel()
    empty = colsums == 0.0
    scale = np.ones(mat.shape[1])
    scale[~empty] = 1.0 / colsums[~empty]
    return (mat @ sparse.diags(scale)).tocsc(), empty


def build_stochastic(graph: DirectedGraph) -> StochasticMatrix:
    """Normalize each column of the adjacency counts by its out-degree.

    Parallel edges contribute their multiplicity to A_ij.  Columns are
    renormalized by their accumulated float sum so every explicit column sums
    to 1 to machine precision.
    """
    n = graph.n_nodes
    if n < 1:
        raise ValueError("graph must have at least one node")
    out_deg = graph.out_degrees()
    src = graph.edges[:, 0]
    dst = graph.edges[:, 1]
    counts = sparse.coo_matrix((1.0 / out_deg[src], (dst, src)), shape=(n, n)).tocsc()
    mat, _ = _normalize_columns(counts)
    return StochasticMatrix(mat, out_deg == 0)


@dataclass(frozen=True)
class GoogleMatrix:
    """Damped link operator ``alpha * S + (1-alpha) * uniform teleportation``.

    Immutable; acts on length-n vectors via :meth:`apply` without ever
    materializing the rank-one teleportation part.
    """

    s: StochasticMatrix
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")

    @classmethod
    def from_graph(cls, graph: DirectedGraph, alpha: float = DEFAULT_ALPHA) -> "GoogleMatrix":
        return cls(build_stochastic(graph), alpha)

    @property
    def n(self) -> int:
        return self.s.n

    def apply(self, v) -> np.ndarray:
        """Matrix-vector product in O(edges + N).

        Dangling columns contribute ``alpha/N * sum(v over dangling)`` to every
        entry and the teleportation part ``(1-alpha)/N * sum(v)``; the vector
        sum is preserved.
        """
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n,):
            raise ValueError(f"vector has shape {v.shape}, expected ({self.n},)")
        dangling_mass = v[self.s.dangling_nodes].sum()
        shift = (self.alpha * dangling_mass + (1.0 - self.alpha) * v.sum()) / self.n
        return self.alpha * (self.s.matrix @ v) + shift

    def permuted(self, order) -> "GoogleMatrix":
        """The operator with its nodes relabelled so that node ``order[k]``
        becomes node k: the matrix ``P^T G P``, built from the sparse link
        matrix, so :meth:`to_dense` writes it out directly."""
        order = np.asarray(order)
        s = StochasticMatrix(self.s.matrix[order][:, order], self.s.dangling[order])
        return GoogleMatrix(s, self.alpha)

    def to_dense(self) -> np.ndarray:
        """Materialize the full N x N matrix."""
        dense = (self.alpha * self.s.matrix).toarray()
        if self.s.n_dangling:
            dense[:, self.s.dangling] += self.alpha / self.n
        dense += (1.0 - self.alpha) / self.n
        return dense


def _components(link) -> np.ndarray:
    """Strongly connected component of every node of the graph whose node j
    links to the rows of column j of the CSC matrix ``link``, by an
    iterative Tarjan search: components are numbered as the search
    completes them, so each after every component it links to."""
    indptr, indices = link.indptr.tolist(), link.indices.tolist()
    n = len(indptr) - 1
    index, low, label = [-1] * n, [0] * n, [-1] * n
    stack, path = [], []
    count = n_comp = 0

    def visit(v):
        nonlocal count
        index[v] = low[v] = count
        count += 1
        stack.append(v)
        path.append((v, iter(indices[indptr[v]:indptr[v + 1]])))

    for root in range(n):
        if index[root] < 0:
            visit(root)
        while path:
            v, targets = path[-1]
            for w in targets:
                if index[w] < 0:
                    visit(w)
                    break
                if label[w] < 0:  # w is still on the stack
                    low[v] = min(low[v], index[w])
            else:
                path.pop()
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while label[v] < 0:
                        label[stack.pop()] = n_comp
                    n_comp += 1
    return np.array(label, dtype=np.int64)


def scc_order(s: StochasticMatrix) -> np.ndarray:
    """Node order that makes S block upper triangular, one diagonal block
    per strongly connected component of the link graph.

    The components come in the order Tarjan's search completes them, with
    roots and link targets visited in ascending id: a component is
    completed after every component it links to, so the first one is
    closed and the component holding every page that reaches a dangling
    one (which links to every page) comes last.  Each lists its nodes in
    ascending order, so a strongly connected graph keeps ``np.arange(n)``.
    Eigensolvers then deflate at every block boundary, since the spectrum
    of S is the union of the spectra of its diagonal blocks.
    """
    n = s.n
    link = s.matrix
    if s.n_dangling:  # a dangling node links to every node: through one hub node n
        link = sparse.bmat([[link, np.ones((n, 1))], [s.dangling[None, :], None]], format="csc")
    return np.argsort(_components(link)[:n], kind="stable")


def truncate_by_rank(
    g: GoogleMatrix, rank: "RankVector", m: int
) -> tuple[GoogleMatrix, np.ndarray]:
    """Restrict the operator to the ``m`` nodes of largest rank score.

    Ties break toward the lower node id.  The restricted link matrix has each
    surviving column renormalized to sum 1; columns left with no entries
    (including previously dangling ones) become dangling columns of the m-node
    operator.  Returns the truncated operator and the kept node ids in
    ascending order.
    """
    n = g.n
    if not 1 <= m <= n:
        raise ValueError(f"m must lie in [1, {n}], got {m}")
    kept = np.sort(np.asarray(rank.order[:m], dtype=np.int64))
    sub, new_dangling = _normalize_columns(g.s.matrix[kept, :][:, kept].tocsc())
    return GoogleMatrix(StochasticMatrix(sub, new_dangling), g.alpha), kept

