"""PageRank and its observables: localization (participation ratio), rank
decay exponent, and the fidelity between rank vectors at different damping
values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .gmatrix import GoogleMatrix, build_stochastic
from .netcore import DirectedGraph, FitError, _write_table

__all__ = [
    "PAGERANK_TOL",
    "PAGERANK_MAX_ITER",
    "RankVector",
    "FidelityGrid",
    "ParPoint",
    "pagerank_power",
    "pagerank_dense_solve",
    "participation_ratio",
    "par_vs_alpha",
    "decay_exponent",
    "fidelity",
    "fidelity_grid",
    "rank_to_csv",
    "par_curve_to_csv",
    "fidelity_grid_to_csv",
]

PAGERANK_TOL = 1e-12
PAGERANK_MAX_ITER = 10_000

_DENSE_SOLVE_LIMIT = 2000


@dataclass(frozen=True)
class RankVector:
    """L1-normalized nonnegative rank scores with iteration metadata.

    ``order`` lists node ids by decreasing score, ties broken toward the
    lower id; ``residual`` is the last L1 change of the iteration (0 for a
    direct solve).
    """

    values: np.ndarray
    alpha: float
    iterations: int
    residual: float
    converged: bool = True
    order: np.ndarray = field(init=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("rank values must be a nonempty vector")
        if values.min() < 0:
            raise ValueError("rank values must be nonnegative")
        if abs(values.sum() - 1.0) > 1e-12:
            raise ValueError("rank values must sum to 1")
        order = np.lexsort((np.arange(values.size), -values))
        order.setflags(write=False)
        object.__setattr__(self, "order", order)

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class FidelityGrid:
    """Symmetric matrix of pairwise rank-vector fidelities over a set of
    damping values; the diagonal is 1."""

    alphas: np.ndarray
    f: np.ndarray


class ParPoint(NamedTuple):
    alpha: float
    xi: float
    converged: bool


def pagerank_power(
    g: GoogleMatrix,
    tol: float = PAGERANK_TOL,
    max_iter: int = PAGERANK_MAX_ITER,
) -> RankVector:
    """Power iteration from the uniform vector.

    Stops when the L1 change of one application drops below ``tol``; if
    ``max_iter`` is hit first the result is returned flagged non-converged
    (expected only at alpha = 1, where the fixed point need not be unique).
    """
    n = g.n
    v = np.full(n, 1.0 / n)
    delta = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w = g.apply(v)
        delta = float(np.abs(w - v).sum())
        v = w
        if delta < tol:
            break
    v = v / v.sum()
    return RankVector(
        values=v,
        alpha=g.alpha,
        iterations=iterations,
        residual=delta,
        converged=delta < tol,
    )


def pagerank_dense_solve(g: GoogleMatrix) -> RankVector:
    """Stationary vector via a dense linear solve; oracle for the iteration.

    Solves ``(I - alpha*S') p = (1-alpha)/N * ones`` where S' carries the
    uniform dangling columns explicitly, then L1-normalizes.  Restricted to
    small n and alpha < 1 (the system is singular at alpha = 1).
    """
    n = g.n
    if n > _DENSE_SOLVE_LIMIT:
        raise ValueError(f"dense solve limited to n <= {_DENSE_SOLVE_LIMIT}")
    if g.alpha >= 1.0:
        raise ValueError("dense solve requires alpha < 1 (system singular at 1)")
    s_full = g.s.matrix.toarray()
    if g.s.n_dangling:
        s_full[:, g.s.dangling] = 1.0 / n
    a = np.eye(n) - g.alpha * s_full
    b = np.full(n, (1.0 - g.alpha) / n)
    p = np.linalg.solve(a, b)
    p = p / p.sum()
    return RankVector(values=p, alpha=g.alpha, iterations=0, residual=0.0)


def participation_ratio(v):
    """Effective number of entries supporting a vector:
    ``(sum |v|^2)^2 / sum |v|^4``; for a 2-D array, one ratio per column.

    Invariant under multiplication by any nonzero scalar; 1 for a single
    nonzero entry, n for a uniform-magnitude vector of length n.  Each
    column is summed as one contiguous row, so a column's ratio is bitwise
    the ratio of that column on its own.
    """
    v = np.asarray(v)
    a2 = np.abs(v.T, order="C") ** 2
    s2 = a2.sum(axis=-1)
    if np.any(s2 == 0.0):
        raise ValueError("participation ratio of the zero vector")
    xi = s2 * s2 / (a2 * a2).sum(axis=-1)
    return xi if v.ndim == 2 else float(xi)


def _rank_sweep(graph: DirectedGraph, alphas, tol: float, max_iter: int):
    """Check every damping value, build S once, then yield the rank vector
    at each value in order."""
    alphas = [float(a) for a in alphas]
    for alpha in alphas:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha values must lie in (0, 1), got {alpha}")
    s = build_stochastic(graph)
    for alpha in alphas:
        yield pagerank_power(GoogleMatrix(s, alpha), tol=tol, max_iter=max_iter)


def par_vs_alpha(
    graph: DirectedGraph,
    alphas,
    tol: float = PAGERANK_TOL,
    max_iter: int = PAGERANK_MAX_ITER,
) -> list[ParPoint]:
    """Participation ratio of the rank vector at each damping value.

    Each point carries the convergence flag of its power iteration.
    """
    return [
        ParPoint(r.alpha, participation_ratio(r.values), r.converged)
        for r in _rank_sweep(graph, alphas, tol, max_iter)
    ]


def decay_exponent(
    r: RankVector, j_range: tuple[int, int] | None = None
) -> float:
    """Algebraic decay exponent beta of the rank-ordered scores.

    Fits ``log10 p_j`` against ``log10 j`` (j = 1-based rank position) over
    the inclusive window ``j_range`` (default [10, N/10]) and returns the
    negated slope.  Requires at least 10 positive scores in the window.
    """
    ordered = r.values[r.order]
    n = ordered.size
    if j_range is None:
        j_range = (10, max(n // 10, 10))
    lo, hi = j_range
    lo = max(lo, 1)
    hi = min(hi, n)
    j = np.arange(lo, hi + 1)
    p = ordered[lo - 1 : hi]
    pos = p > 0
    if pos.sum() < 10:
        raise FitError(
            f"need >= 10 positive scores in rank window [{lo}, {hi}], got {int(pos.sum())}"
        )
    slope = np.polyfit(np.log10(j[pos]), np.log10(p[pos]), 1)[0]
    return float(-slope)


def fidelity(v1: RankVector, v2: RankVector) -> float:
    """Squared overlap of the two L2-normalized score vectors, in [0, 1].

    The stored vectors are L1-normalized; copies are L2-normalized here, the
    entries are compared index by index (no rank reordering).
    """
    a = v1.values
    b = v2.values
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    na = a / np.linalg.norm(a)
    nb = b / np.linalg.norm(b)
    overlap = float(np.dot(na, nb))
    return min(overlap * overlap, 1.0)


def fidelity_grid(
    graph: DirectedGraph,
    alphas,
    tol: float = PAGERANK_TOL,
    max_iter: int = PAGERANK_MAX_ITER,
) -> FidelityGrid:
    """Fidelity between rank vectors for every pair of damping values.

    Each rank vector is computed once; the matrix is filled pairwise and
    mirrored, so symmetry is exact.
    """
    ranks = list(_rank_sweep(graph, alphas, tol, max_iter))
    k = len(ranks)
    f = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            f[i, j] = f[j, i] = fidelity(ranks[i], ranks[j])
    return FidelityGrid(alphas=np.array([r.alpha for r in ranks]), f=f)


def rank_to_csv(r: RankVector, target, header_comment=None) -> None:
    """``node_id,score,rank_position`` rows in node-id order (1-based
    positions)."""
    position = np.empty(r.n, dtype=np.int64)
    position[r.order] = np.arange(1, r.n + 1)
    rows = zip(range(r.n), r.values.tolist(), position.tolist())
    _write_table(target, header_comment, "node_id,score,rank_position\n", "%d,%.17g,%d\n", rows)


def par_curve_to_csv(points: list[ParPoint], target, header_comment=None) -> None:
    rows = ((p.alpha, p.xi) for p in points)
    _write_table(target, header_comment, "alpha,xi\n", "%.17g,%.17g\n", rows)


def fidelity_grid_to_csv(grid: FidelityGrid, target, header_comment=None) -> None:
    """Square table with a leading header row/column of the damping values."""
    fmt = ",".join(["%.17g"] * (len(grid.alphas) + 1)) + "\n"
    head = "alpha," + ",".join("%.17g" % a for a in grid.alphas) + "\n"
    rows = ((a, *row) for a, row in zip(grid.alphas, grid.f.tolist()))
    _write_table(target, header_comment, head, fmt, rows)
