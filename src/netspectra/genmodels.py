"""Seed-deterministic random directed-network generators.

Three growth processes over a shared preferential-attachment kernel
(target probability proportional to in-degree + 1):

* ``generate_ab`` -- scale-free growth with three event types: add m links
  from uniform sources (probability p), re-target the head of m existing
  links (probability q), or add a node with m outgoing links (otherwise).
* ``generate_color`` -- the same growth constrained to labeled communities:
  links between different labels are kept only with probability epsilon.
* ``generate_al`` -- each new node emits exactly m links drawn independently,
  with repetitions kept as edge multiplicities.

All decisions are drawn from ``random.Random(seed)``, so outputs are
bit-reproducible for a fixed seed and parameter set across platforms.
Integer draws take words from ``getrandbits`` exactly as ``randrange``
would, so they give the numbers ``randrange`` gives.  Within one growth
event, targets are drawn against the in-degrees as they were at the start
of the event.  A Fenwick tree over those in-degrees (:class:`_PrefSampler`)
makes an event with m links cost O(m log N).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .netcore import DirectedGraph, _randbelow

__all__ = [
    "AbParams",
    "ColorParams",
    "AlParams",
    "generate_ab",
    "generate_color",
    "generate_al",
]

# Give up on a duplicate/self-loop-rejected link after this many redraws.
_MAX_DRAW_RETRIES = 50


@dataclass(frozen=True)
class AbParams:
    """Growth parameters: ``p`` link addition, ``q`` rewiring, ``1-p-q`` node
    addition, ``m`` links per event.  The process starts from an
    ``m+1``-node bidirectional seed clique and never makes a self-loop."""

    n_target: int
    m: int = 5
    p: float = 0.2
    q: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not (self.p >= 0 and self.q >= 0 and self.p + self.q < 1.0):  # nan fails
            raise ValueError(f"need p, q >= 0 and p + q < 1, got p={self.p}, q={self.q}")
        if self.n_target < self.m + 1:
            raise ValueError(f"n_target must be >= seed size m+1 = {self.m + 1}")


@dataclass(frozen=True)
class ColorParams:
    """Community-constrained growth: a new node founds a new color with
    probability ``eta`` (else copies the color of a uniformly chosen
    existing node); links between different colors survive only with
    probability ``epsilon``."""

    ab: AbParams
    eta: float = 1e-2
    epsilon: float = 1e-3
    initial_colors: int = 3

    def __post_init__(self):
        if not (0.0 <= self.eta <= 1.0 and 0.0 <= self.epsilon <= 1.0):
            raise ValueError("eta and epsilon must lie in [0, 1]")
        if self.initial_colors < 1:
            raise ValueError("initial_colors must be >= 1")


@dataclass(frozen=True)
class AlParams:
    """Each node after the ``m+1``-node mutually linked seed emits exactly
    ``m`` outgoing links; repeated targets are kept as multiplicities."""

    n_target: int
    m: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.n_target < self.m + 1:
            raise ValueError(f"n_target must be >= seed size m+1 = {self.m + 1}")


class _PrefSampler:
    """Preferential draws over integer weights from a Fenwick tree (Fenwick,
    Softw. Pract. Exp. 24, 327 (1994)).

    :meth:`draw` takes ``r = randrange(total)`` and descends the tree to the
    smallest index whose prefix sum exceeds ``r``, the same index as
    ``searchsorted(cumsum(weights), r, side="right")``, in O(log N).
    :meth:`add` only buffers a weight change and :meth:`commit` applies the
    buffer, so all draws between two commits see the same weights.
    """

    def __init__(self, size: int, getrandbits):
        # padded to a power of two so the descent never leaves the tree; it
        # starts below the root, whose sum is the total and always exceeds r
        top = 1 << max(size - 1, 0).bit_length()
        self._tree = [0] * (top + 1)
        self._steps = [1 << b for b in range(top.bit_length() - 2, -1, -1)]
        self._pending: list[tuple[int, int]] = []
        self._getrandbits = getrandbits
        self.total = 0

    def add(self, i: int, delta: int) -> None:
        self._pending.append((i, delta))

    def commit(self) -> None:
        tree = self._tree
        end = len(tree)
        for i, delta in self._pending:
            self.total += delta
            i += 1
            while i < end:
                tree[i] += delta
                i += i & -i
        self._pending.clear()

    def draw(self) -> int:
        r = _randbelow(self._getrandbits, self.total)
        tree = self._tree
        pos = 0
        for step in self._steps:
            w = tree[pos + step]
            if w <= r:
                pos += step
                r -= w
        return pos


def _grow(params: AbParams, rng, color_cfg=None):
    """Shared growth engine; returns (edge list, colors or None).

    ``color_cfg`` is a (eta, epsilon, initial_colors) triple; when present,
    every candidate link is passed through the color rule (cross-color links
    kept with probability epsilon, never redrawn when omitted).
    """
    m = params.m
    n_seed = m + 1
    getrandbits = rng.getrandbits
    edges: list[tuple[int, int]] = []
    present: set[tuple[int, int]] = set()
    # preferential weight per node = in-degree + 1
    pref = _PrefSampler(params.n_target, getrandbits)
    draw_target = pref.draw
    for i in range(n_seed):
        pref.add(i, 1)

    colors = None
    n_colors = 0
    if color_cfg is not None:
        eta, epsilon, initial_colors = color_cfg
        colors = np.zeros(params.n_target, dtype=np.int64)
        n_colors = initial_colors
        for i in range(n_seed):
            colors[i] = i % initial_colors

    def keep_link(src, tgt):
        if colors is None or colors[src] == colors[tgt]:
            return True
        return rng.random() < epsilon

    def add_edge(src, tgt):
        edges.append((src, tgt))
        present.add((src, tgt))
        pref.add(tgt, 1)

    for i in range(n_seed):
        for j in range(n_seed):
            if i != j and keep_link(i, j):
                add_edge(i, j)

    n_now = n_seed
    while n_now < params.n_target:
        # one growth event draws against the weights at its start
        pref.commit()
        u = rng.random()
        if u < params.p:
            # add m links from uniform sources to preferential targets
            for _ in range(m):
                for _ in range(_MAX_DRAW_RETRIES):
                    src = _randbelow(getrandbits, n_now)
                    tgt = draw_target()
                    if src == tgt or (src, tgt) in present:
                        continue
                    if keep_link(src, tgt):
                        add_edge(src, tgt)
                    break
        elif u < params.p + params.q:
            # re-target the head of m uniformly chosen existing links
            for _ in range(m):
                if not edges:
                    break
                for _ in range(_MAX_DRAW_RETRIES):
                    e_idx = _randbelow(getrandbits, len(edges))
                    src, old_tgt = edges[e_idx]
                    tgt = draw_target()
                    if src == tgt or (src, tgt) in present:
                        continue
                    if keep_link(src, tgt):
                        present.discard((src, old_tgt))
                        pref.add(old_tgt, -1)
                        edges[e_idx] = (src, tgt)
                        present.add((src, tgt))
                        pref.add(tgt, 1)
                    break
        else:
            # new node with m outgoing links
            node = n_now
            if colors is not None:
                if rng.random() < eta:
                    colors[node] = n_colors
                    n_colors += 1
                else:
                    colors[node] = colors[_randbelow(getrandbits, n_now)]
            for _ in range(m):
                for _ in range(_MAX_DRAW_RETRIES):
                    tgt = draw_target()
                    if (node, tgt) in present:
                        continue
                    if keep_link(node, tgt):
                        add_edge(node, tgt)
                    break
            pref.add(node, 1)
            n_now += 1

    return edges, colors


def generate_ab(params: AbParams) -> DirectedGraph:
    """Scale-free directed graph grown to ``params.n_target`` nodes.

    Duplicate links and self-loops are rejected and redrawn (a bounded
    number of times, then the link is skipped), so the result is simple.
    """
    rng = random.Random(params.seed)
    edges, _ = _grow(params, rng)
    return DirectedGraph(
        n_nodes=params.n_target,
        edges=np.array(edges, dtype=np.int64).reshape(-1, 2),
        multi_edges_allowed=False,
    )


def generate_color(params: ColorParams) -> tuple[DirectedGraph, np.ndarray]:
    """Community-labeled scale-free graph plus the per-node color array.

    With ``epsilon = 0`` no link ever crosses a color boundary, so the link
    matrix is block-diagonal after sorting nodes by color.
    """
    rng = random.Random(params.ab.seed)
    edges, colors = _grow(
        params.ab, rng, color_cfg=(params.eta, params.epsilon, params.initial_colors)
    )
    graph = DirectedGraph(
        n_nodes=params.ab.n_target,
        edges=np.array(edges, dtype=np.int64).reshape(-1, 2),
        multi_edges_allowed=False,
    )
    return graph, colors


def generate_al(params: AlParams) -> DirectedGraph:
    """Multigraph growth: every non-seed node has out-degree exactly ``m``
    counting multiplicity; targets are drawn independently with probability
    proportional to in-degree + 1 at the node's arrival time."""
    rng = random.Random(params.seed)
    m = params.m
    n_seed = m + 1
    edges = [(i, j) for i in range(n_seed) for j in range(n_seed) if i != j]
    pref = _PrefSampler(params.n_target, rng.getrandbits)
    for i in range(n_seed):
        pref.add(i, 1 + m)  # baseline + seed-clique in-links
    for node in range(n_seed, params.n_target):
        pref.commit()
        for _ in range(m):
            tgt = pref.draw()
            edges.append((node, tgt))
            pref.add(tgt, 1)
        pref.add(node, 1)
    return DirectedGraph(
        n_nodes=params.n_target,
        edges=np.array(edges, dtype=np.int64),
        multi_edges_allowed=True,
    )
