"""PageRank and its observables: localization (participation ratio), rank
decay exponent, and the fidelity between rank vectors at different damping
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .gmatrix import GoogleMatrix, build_stochastic
from .netcore import DirectedGraph, FitError, _check_positive, _write_table

__all__ = [
    "PAGERANK_TOL",
    "PAGERANK_MAX_ITER",
    "RankVector",
    "FidelityGrid",
    "ParPoint",
    "pagerank",
    "pagerank_power",
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

# Rounding level of the computed certificate ||Gx - x||_1 for an exact
# fixed point (measured up to 2.3 eps for the uniform vector at alpha = 0,
# n up to 3e6); ``pagerank`` accepts it when alpha * tol asks for less.
_RESIDUAL_FLOOR = 8 * float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class RankVector:
    """L1-normalized nonnegative rank scores with solver metadata.

    ``iterations`` counts applications of the operator (0 for a
    direct solve).  ``residual`` is ``||Gx - x||_1`` of the returned vector
    for :func:`pagerank`, so below alpha = 1 ``residual / (1 - alpha)``
    bounds its L1 distance to the exact rank vector; power iteration
    reports its last L1 step, an upper bound on that residual (0 for a
    direct solve).
    """

    values: np.ndarray
    alpha: float
    iterations: int
    residual: float
    converged: bool = True

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("rank values must be a nonempty vector")
        if not values.min() >= 0.0:  # also rejects nan
            raise ValueError("rank values must be nonnegative")
        if abs(values.sum() - 1.0) > 1e-12:
            raise ValueError("rank values must sum to 1")

    @property
    def n(self) -> int:
        return self.values.size

    @cached_property
    def order(self) -> np.ndarray:
        """Node ids by decreasing score, ties broken toward the lower id
        (read-only), sorted on first use."""
        order = np.lexsort((np.arange(self.n), -self.values))
        order.setflags(write=False)
        return order


@dataclass(frozen=True)
class FidelityGrid:
    """Symmetric matrix of pairwise rank-vector fidelities over a set of
    damping values; the diagonal is 1.  ``ranks[i]`` is the rank vector at
    ``alphas[i]``."""

    alphas: np.ndarray
    f: np.ndarray
    ranks: list[RankVector]


class ParPoint(NamedTuple):
    """Participation ratio ``xi`` of the rank vector ``rank`` at ``alpha``."""

    alpha: float
    xi: float
    rank: RankVector


def pagerank(
    g: GoogleMatrix,
    tol: float = PAGERANK_TOL,
    max_iter: int = PAGERANK_MAX_ITER,
) -> RankVector:
    """Certified rank vector.

    Below alpha = 1, solves ``(I - alpha*S') x = (1-alpha)/N * ones`` by
    BiCGSTAB from the uniform vector, then clips negative entries,
    L1-normalizes and certifies the result with one more application of
    ``g``: it is returned as converged only when ``||Gx - x||_1 <= alpha *
    tol`` (or at the rounding level of that sum, when alpha * tol asks for
    less).  Since ``||(I - alpha*S')^-1||_1 = 1/(1-alpha)``, the L1 error is
    then at most ``alpha * tol / (1 - alpha)``, the bound the power
    iteration's stop rule gives.  A vector that fails the check, or a
    breakdown of the recurrence, restarts the solve from the certified
    iterate.  ``max_iter`` (at least 1) caps the operator applications.

    At alpha = 1 the system is singular, and each sweep is one lazy step
    ``x -> (x + Sx) / 2`` until ``||Sx - x||_1 <= tol``: ``(I + S) / 2`` has
    the fixed points of S and its other eigenvalues inside the unit disk,
    periodic closed classes too, so from the uniform vector it converges to
    the alpha -> 1 limit of the rank vector (Boldi, Santini & Vigna, 2005),
    to which a residual bounds no distance.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    _check_positive("tol", tol)
    target = max(g.alpha * tol, _RESIDUAL_FLOOR)
    x = np.full(g.n, 1.0 / g.n)
    matvecs = 0
    while True:
        x = np.maximum(x, 0.0)
        x /= x.sum()
        # for sum(x) = 1 this is also b - (I - alpha*S') x
        r = g.apply(x) - x
        matvecs += 1
        residual = float(np.abs(r).sum())
        if residual <= target or matvecs >= max_iter:
            break
        if g.alpha >= 1.0:
            x = x + r / 2
            continue
        # keep one application for the certificate of the sweep's result
        x_next, used = _bicgstab(g, x, r, target, max_iter - matvecs - 1)
        matvecs += used
        # a sweep that broke down before its first update, or that left
        # non-finite entries, is replaced by one power step x -> Gx
        x = x_next if x_next is not x and np.isfinite(x_next).all() else x + r
    return RankVector(
        values=x,
        alpha=g.alpha,
        iterations=matvecs,
        residual=residual,
        converged=residual <= target,
    )


def _bicgstab(g: GoogleMatrix, x, r, stop: float, budget: int):
    """BiCGSTAB steps on ``(I - alpha*S') x = (1-alpha)/N * ones`` from the
    iterate ``x`` with residual ``r``, until the updated residual is at most
    ``stop`` in L1, the recurrence breaks down, or another step would exceed
    ``budget`` operator applications.  Returns the iterate and the
    applications used.

    Dot products are numpy pairwise sums, not BLAS calls, so the result
    does not depend on the BLAS thread count.
    """
    link, dangling, alpha = g.s.matrix, g.s.dangling_nodes, g.alpha
    spread = alpha / g.n

    def op(v):
        # (I - alpha*S') v from S and the uniform dangling columns; going
        # through g.apply costs a sum and two vector passes more per product
        return v - alpha * (link @ v) - spread * v[dangling].sum()

    r_hat = p = r
    rho = (r_hat * r).sum()
    used = 0
    while used + 2 <= budget:
        v = op(p)
        used += 1
        rv = (r_hat * v).sum()
        if not abs(rv) > 0.0:
            break
        a = rho / rv
        s = r - a * v
        t = op(s)
        used += 1
        tt = (t * t).sum()
        if not tt > 0.0:
            # t = 0 means s = 0: the half step solves the system
            return x + a * p, used
        w = (t * s).sum() / tt
        x = x + a * p + w * s
        r = s - w * t
        if np.abs(r).sum() <= stop:
            break
        rho_next = (r_hat * r).sum()
        if not (abs(rho_next) > 0.0 and abs(w) > 0.0):
            break
        p = r + (rho_next / rho) * (a / w) * (p - w * v)
        rho = rho_next
    return x, used


def pagerank_power(
    g: GoogleMatrix,
    tol: float = PAGERANK_TOL,
    max_iter: int = PAGERANK_MAX_ITER,
) -> RankVector:
    """Power iteration from the uniform vector.

    Stops when the L1 change of one application drops below ``tol``; if
    ``max_iter`` (at least 1) is hit first the result is returned flagged non-converged
    (expected only at alpha = 1, where the fixed point need not be unique).
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    _check_positive("tol", tol)
    n = g.n
    v = np.full(n, 1.0 / n)
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
        yield pagerank(GoogleMatrix(s, alpha), tol=tol, max_iter=max_iter)


def par_vs_alpha(
    graph: DirectedGraph,
    alphas,
    tol: float = PAGERANK_TOL,
    max_iter: int = PAGERANK_MAX_ITER,
) -> list[ParPoint]:
    """Participation ratio of the rank vector at each damping value; each
    point keeps its rank vector."""
    return [
        ParPoint(r.alpha, participation_ratio(r.values), r)
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
    return FidelityGrid(alphas=np.array([r.alpha for r in ranks]), f=f, ranks=ranks)


def rank_to_csv(r: RankVector, target) -> None:
    """``node_id,score,rank_position`` rows in node-id order (1-based
    positions)."""
    position = np.empty(r.n, dtype=np.int64)
    position[r.order] = np.arange(1, r.n + 1)
    columns = (np.arange(r.n), r.values, position)
    _write_table(target, "node_id,score,rank_position\n", "%d,%.17g,%d\n", columns)


def par_curve_to_csv(points: list[ParPoint], target) -> None:
    columns = ([p.alpha for p in points], [p.xi for p in points])
    _write_table(target, "alpha,xi\n", "%.17g,%.17g\n", columns)


def fidelity_grid_to_csv(grid: FidelityGrid, target) -> None:
    """Square table with a leading header row/column of the damping values."""
    fmt = ",".join(["%.17g"] * (len(grid.alphas) + 1)) + "\n"
    head = "alpha," + ",".join("%.17g" % a for a in grid.alphas) + "\n"
    _write_table(target, head, fmt, (grid.alphas, *grid.f.T))
