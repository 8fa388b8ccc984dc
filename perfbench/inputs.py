"""Seeded edge-list inputs for the benchmark, made with plain numpy.

The program under test never generates its own benchmark inputs: every graph
here comes from ``numpy.random.default_rng(seed)``, so one seed gives the same
bytes on every machine and different seeds give different graphs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def _finish(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Drop self-loops and duplicate pairs; return edges sorted by (src, dst)."""
    keep = src != dst
    keys = np.unique(src[keep].astype(np.int64) * n + dst[keep])
    return np.column_stack([keys // n, keys % n])


def _out_degrees(rng, n: int, mean_out: float, dangling_frac: float) -> np.ndarray:
    deg = 1 + rng.poisson(mean_out - 1.0, size=n)
    deg[rng.random(n) < dangling_frac] = 0
    return deg


def scale_free(rng, n: int, mean_out: float = 6.0, dangling_frac: float = 0.1) -> np.ndarray:
    """Directed graph with heavy-tailed in-degrees and ``dangling_frac`` of
    the nodes without out-links.  Targets are drawn with Zipf-like weights
    ``rank**-0.8`` over a random node order."""
    src = np.repeat(np.arange(n), _out_degrees(rng, n, mean_out, dangling_frac))
    weight = np.arange(1, n + 1, dtype=np.float64) ** -0.8
    weight = weight[rng.permutation(n)]
    dst = rng.choice(n, size=src.size, p=weight / weight.sum())
    return _finish(n, src, dst)


def communities(
    rng, n: int, n_comm: int, p_cross: float = 1e-3, mean_out: float = 6.0
) -> np.ndarray:
    """Graph of ``n_comm`` communities of near-equal size.  Each link stays in
    its source's community (skewed toward low member index, so in-degrees
    vary) except with probability ``p_cross``, when it goes to a uniform node.
    Every node has out-links, so weakly linked communities leave the damped
    operator without a spectral gap."""
    comm = rng.permutation(np.arange(n) % n_comm)
    members = np.argsort(comm, kind="stable")
    size = np.bincount(comm, minlength=n_comm)
    start = np.concatenate([[0], np.cumsum(size)[:-1]])
    src = np.repeat(np.arange(n), _out_degrees(rng, n, mean_out, 0.0))
    c = comm[src]
    offset = (rng.random(src.size) ** 2 * size[c]).astype(np.int64)
    dst = members[start[c] + offset]
    cross = rng.random(src.size) < p_cross
    dst[cross] = rng.integers(n, size=int(cross.sum()))
    return _finish(n, src, dst)


def write_edge_list(path: Path, n: int, edges: np.ndarray) -> None:
    """Canonical ``# nodes=N`` header, then one ``src dst`` line per edge."""
    body = "\n".join(f"{s} {t}" for s, t in edges.tolist())
    Path(path).write_text(f"# nodes={n}\n{body}\n", encoding="utf-8")
