"""Directed graphs: edge-list ingestion, preprocessing filters, degree
statistics, and degree-preserving edge rewiring.

Node ids are dense integers ``0 .. n_nodes-1``.  The edge-list text format is
one ``src dst`` pair per line, ``#`` comment lines ignored, with an optional
``# nodes=N`` header fixing the node count (otherwise ``max id + 1`` is used).
"""

from __future__ import annotations

import io
import random
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DirectedGraph",
    "DegreeDistribution",
    "EdgeListParseError",
    "NodeIdError",
    "EmptyGraphError",
    "FitError",
    "load_edge_list",
    "save_edge_list",
    "filter_min_outdegree",
    "maslov_randomize",
    "degree_distribution",
    "degree_distribution_to_csv",
    "fit_loglog_slope",
    "reciprocity",
]

_HEADER_RE = re.compile(r"^#\s*nodes\s*=\s*(\d+)\s*$")
# a whole line whose first non-blank character is ``#``, newline excluded
_COMMENT_LINE_RE = re.compile(r"^([^\S\n]*#[^\n]*)", re.MULTILINE)
# a body numpy parses as the line walker would: digits, signs, blanks and
# ``\n`` or ``\r\n`` line ends (numpy would also end a line at a lone ``\r``)
_FAST_BODY_RE = re.compile(r"[0-9+\- \t\n]*(?:\r\n[0-9+\- \t\n]*)*")
_MAX_INT64 = 2**63 - 1
# largest m with m * m <= 2**63, so src * m + dst for ids below m fits int64
_MAX_KEYED_IDS = 3_037_000_499


class _LineError(ValueError):
    """An error that may name the 1-based edge-list line it comes from."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class EdgeListParseError(_LineError):
    """Malformed edge-list line (reports the 1-based line number)."""


class NodeIdError(_LineError):
    """Node id outside the valid range ``[0, n_nodes)``."""


class EmptyGraphError(ValueError):
    """An operation produced or received a graph with no nodes."""


class FitError(ValueError):
    """Not enough usable points for a log-log least-squares fit."""


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Immutable directed graph with an ordered edge list.

    Parameters
    ----------
    n_nodes : int
        Number of nodes; ids run from 0 to ``n_nodes - 1``.
    edges : array_like of shape (E, 2)
        Ordered ``(src, dst)`` pairs.  Duplicate pairs are only legal when
        ``multi_edges_allowed`` is set; the adjacency count of a pair is then
        its multiplicity.
    multi_edges_allowed : bool
        Whether parallel edges are permitted.
    """

    n_nodes: int
    edges: np.ndarray
    multi_edges_allowed: bool = False

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2).copy()
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        if self.n_nodes < 0:
            raise ValueError("n_nodes must be nonnegative")
        if edges.size:
            if edges.min() < 0:
                raise NodeIdError("negative node id")
            if edges.max() >= self.n_nodes:
                raise NodeIdError(
                    f"node id {edges.max()} out of range for n_nodes={self.n_nodes}"
                )
        if not self.multi_edges_allowed and not _first_occurrences(edges).all():
            raise ValueError("duplicate edges present but multi_edges_allowed is False")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def out_degrees(self) -> np.ndarray:
        """Out-degree per node, counting edge multiplicity."""
        if self.n_nodes == 0:
            return np.zeros(0, dtype=np.int64)
        return np.bincount(self.edges[:, 0], minlength=self.n_nodes)

    def in_degrees(self) -> np.ndarray:
        """In-degree per node, counting edge multiplicity."""
        if self.n_nodes == 0:
            return np.zeros(0, dtype=np.int64)
        return np.bincount(self.edges[:, 1], minlength=self.n_nodes)

    def edge_set(self) -> set[tuple[int, int]]:
        return {(int(s), int(t)) for s, t in self.edges}

    def __eq__(self, other):
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (
            self.n_nodes == other.n_nodes
            and self.multi_edges_allowed == other.multi_edges_allowed
            and np.array_equal(self.edges, other.edges)
        )


@dataclass(frozen=True)
class DegreeDistribution:
    """Degree statistics in one direction (in or out, as requested from
    :func:`degree_distribution`).

    ``counts`` maps every observed degree k to the number of nodes with that
    degree; ``cumulative`` maps k to the fraction of nodes with degree >= k,
    so it is non-increasing and equals 1 at the smallest observed degree.
    ``mean_degree`` is edges / nodes (identical for both directions).
    """

    counts: dict[int, int]
    cumulative: dict[int, float]
    mean_degree: float


def _read_text(source) -> str:
    """The whole input as one string: a path is read as UTF-8 with universal
    newlines; a stream is read as is (bytes are decoded as UTF-8)."""
    if hasattr(source, "read"):
        data = source.read()
        return data.decode("utf-8") if isinstance(data, bytes) else data
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


def _check_positive(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless ``0 < value < inf``; nan
    fails every comparison, so it is rejected too."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _write_table(target, head: str, fmt: str, columns) -> None:
    """Write a text table in one piece: ``head`` verbatim, then one ``fmt``
    line per row, where row i holds the i-th entry of each of the
    equal-length ``columns``.

    One ``%`` formats all rows over the interleaved values: the bytes of
    formatting each row on its own, several times faster on long tables.
    ``target`` is a path (opened as UTF-8 with ``\\n`` newlines, then
    closed) or an open text handle, which is written to and left open.
    """
    columns = [np.asarray(col).tolist() for col in columns]
    n_rows = len(columns[0])
    values = [None] * (n_rows * len(columns))
    for k, col in enumerate(columns):
        values[k :: len(columns)] = col
    text = head + (fmt * n_rows) % tuple(values)
    if hasattr(target, "write"):
        target.write(text)
        return
    with open(target, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_edge_list(
    source,
    *,
    index_base: int = 0,
    dedupe: bool = True,
    allow_self_loops: bool = True,
) -> DirectedGraph:
    """Read a directed graph from edge-list text.

    The grammar: lines are split at ``\\n`` (a path is read with universal
    newlines).  A line that is blank, or whose first non-blank character is
    ``#``, is skipped; ``#`` starts a comment only there, so ``1 2 # x`` is
    an error.  A comment line of the form ``# nodes=N`` fixes the node count,
    and the last such line wins.  Every other line holds exactly two
    whitespace-separated tokens in Python ``int()`` syntax (``+5``, ``007``
    and ``1_0`` are valid ids).

    Parameters
    ----------
    source : path or readable file object
        Text (or UTF-8 bytes) in the grammar above.
    index_base : {0, 1}
        Subtracted from every id on input (use 1 for one-based files).
    dedupe : bool
        Collapse repeated ``(src, dst)`` pairs, keeping first occurrence
        order.  When False the multiset is preserved and the result allows
        parallel edges.
    allow_self_loops : bool
        When False, ``u u`` edges are silently dropped.

    Raises
    ------
    EdgeListParseError
        On a line that is not two integer tokens.
    NodeIdError
        On a negative id after the base shift, an id at or above a declared
        ``# nodes=N`` count, or a node count beyond int64.
    """
    if index_base not in (0, 1):
        raise ValueError("index_base must be 0 or 1")
    text = _read_text(source)
    parsed = _parse_fast(text, index_base) or _parse_lines(text, index_base)
    return _build_graph(*parsed, dedupe=dedupe, allow_self_loops=allow_self_loops)


def _build_graph(edges, declared_n, *, dedupe: bool, allow_self_loops: bool) -> DirectedGraph:
    """The tail both parse paths share: size the graph from ``declared_n``
    or the largest id and check every id against it, then drop self-loops
    and dedupe."""
    max_id = int(edges.max()) if edges.size else -1
    n_nodes = declared_n if declared_n is not None else max_id + 1
    if max_id >= n_nodes:
        raise NodeIdError(f"node id {max_id} exceeds declared nodes={n_nodes}")
    if n_nodes > _MAX_INT64:
        raise NodeIdError(f"{n_nodes} nodes exceed the int64 id range")
    if not allow_self_loops:
        edges = edges[edges[:, 0] != edges[:, 1]]
    if dedupe:
        edges = edges[_first_occurrences(edges)]
    return DirectedGraph(n_nodes=n_nodes, edges=edges, multi_edges_allowed=not dedupe)


def _parse_fast(text: str, index_base: int):
    """Parse ``text`` with one numpy pass into ``(edges, declared_n)``, the
    ``(E, 2)`` int64 ids after the base shift and the last ``# nodes=N``
    value (None without one).  Returns None, "not handled", for any input it
    cannot take exactly as the line walker would: a body that
    :data:`_FAST_BODY_RE` does not match (an inline ``#``, ``1_0``, unicode
    digits, ``1.0``, a lone ``\\r``), an id beyond int64, a line without two
    tokens or a negative id.  Those inputs go to :func:`_parse_lines`, which
    accepts or reports them."""
    declared_n = None
    # alternating body chunks and whole comment lines
    pieces = _COMMENT_LINE_RE.split(text) if "#" in text else [text]
    for comment in pieces[1::2]:
        m = _HEADER_RE.match(comment.strip())
        if m:
            declared_n = int(m.group(1))
    body = "".join(pieces[::2])
    if not body.strip():
        return np.zeros((0, 2), dtype=np.int64), declared_n
    if not _FAST_BODY_RE.fullmatch(body):
        return None
    try:
        edges = np.loadtxt(io.StringIO(body), dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None
    # checked before the shift, which would wrap the int64 minimum around
    if edges.shape[1] != 2 or edges.min() < index_base:
        return None
    return edges - index_base, declared_n


def _parse_lines(text: str, index_base: int):
    """Tokenize ``text`` line by line into ``(edges, declared_n)`` as
    :func:`_parse_fast` does, raising on the first bad line with its 1-based
    number.  Ids beyond int64 come back as an object array, so the checks
    in :func:`_build_graph` still see their values."""
    declared_n = None
    pairs: list[tuple[int, int]] = []
    for line_no, raw in enumerate(io.StringIO(text), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER_RE.match(line)
            if m:
                declared_n = int(m.group(1))
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(
                f"expected two whitespace-separated integers, got {line!r}",
                line_no,
            )
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer token in {line!r}", line_no)
        src -= index_base
        dst -= index_base
        if src < 0 or dst < 0:
            raise NodeIdError("negative node id after base shift", line_no)
        pairs.append((src, dst))
    try:
        edges = np.array(pairs, dtype=np.int64)
    except OverflowError:
        edges = np.array(pairs, dtype=object)
    return edges.reshape(-1, 2), declared_n


def _pair_keys(edges: np.ndarray) -> np.ndarray:
    """One int64 key per ``(src, dst)`` row, equal exactly when the rows are
    equal: ``src * m + dst`` with ``m`` the largest id + 1 while that fits,
    else the same over each id's rank among the distinct ids in use (fewer
    than 2E of them).  Keys depend only on the set of ids, so the keys of
    ``edges[:, ::-1]`` compare with those of ``edges``."""
    m = int(edges.max()) + 1 if edges.size else 0
    if m > _MAX_KEYED_IDS:
        ids, codes = np.unique(edges, return_inverse=True)
        edges, m = codes.reshape(-1, 2), len(ids)
    return edges[:, 0] * np.int64(m) + edges[:, 1]


def _first_occurrences(edges: np.ndarray) -> np.ndarray:
    """Mask of the first occurrence of each ``(src, dst)`` row, found with
    one stable sort of the pair keys."""
    keys = _pair_keys(edges)
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    first = np.ones(len(edges), dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    keep = np.zeros(len(edges), dtype=bool)
    keep[order[first]] = True
    return keep


def save_edge_list(graph: DirectedGraph, target, colors=None) -> None:
    """Write the canonical edge-list form: ``# nodes=N`` header, optional
    ``# color <node> <color>`` lines, then one ``src dst`` line per edge in
    stored order.  Loading and re-saving a canonical file without colours is
    byte-identical; :func:`load_edge_list` skips ``# color`` lines as
    comments, so colours are not read back.
    """
    head = f"# nodes={graph.n_nodes}\n"
    if colors is not None:
        colors = np.asarray(colors)
        if len(colors) != graph.n_nodes:
            raise ValueError("colors length must equal n_nodes")
        head += "".join(f"# color {node} {int(col)}\n" for node, col in enumerate(colors))
    _write_table(target, head, "%d %d\n", graph.edges.T)


def filter_min_outdegree(graph: DirectedGraph) -> DirectedGraph:
    """Drop nodes with zero out-degree, compacting the surviving ids in
    their order.

    A single pass only: nodes whose out-links all pointed at dropped nodes
    keep their (now dangling) status in the result rather than being removed
    in turn.

    Raises
    ------
    EmptyGraphError
        If no node has an out-link.
    """
    keep = graph.out_degrees() > 0
    if not keep.any():
        raise EmptyGraphError("every node has out-degree zero")
    new_id = np.cumsum(keep) - 1
    edges = graph.edges
    return DirectedGraph(
        n_nodes=int(keep.sum()),
        edges=new_id[edges[keep[edges[:, 0]] & keep[edges[:, 1]]]],
        multi_edges_allowed=graph.multi_edges_allowed,
    )


def _randbelow(getrandbits, n: int) -> int:
    """A uniform int in ``[0, n)`` for ``n > 0``, drawn exactly as
    ``random.Random.randrange(n)`` draws it: ``k = n.bit_length()`` random
    bits from ``getrandbits``, redrawn while the value is ``>= n``.  So a
    seeded stream gives the same numbers as ``randrange`` does, without its
    argument checks."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def maslov_randomize(
    graph: DirectedGraph,
    n_swaps: int | None = None,
    rng_seed: int = 0,
    allow_self_loops: bool = True,
) -> DirectedGraph:
    """Rewire by repeatedly swapping the sources of two random edges.

    Each attempt picks two distinct edges (a,b) and (c,d) uniformly and
    replaces them with (c,b) and (a,d), skipping the attempt if that would
    duplicate an existing edge (or create a self-loop when
    ``allow_self_loops`` is False).  In- and out-degree of every node are
    preserved exactly.  ``n_swaps`` counts attempts, not successful swaps,
    and defaults to ``10 * n_edges``; a negative count is a ``ValueError``.
    """
    if graph.multi_edges_allowed:
        raise ValueError("rewiring requires a simple graph (no parallel edges)")
    n_edges = graph.n_edges
    if n_edges < 2:
        raise ValueError("need at least two edges to swap")
    if n_swaps is None:
        n_swaps = 10 * n_edges
    if n_swaps < 0:
        raise ValueError(f"swap count must be non-negative, got {n_swaps}")
    getrandbits = random.Random(rng_seed).getrandbits
    src = graph.edges[:, 0].tolist()
    dst = graph.edges[:, 1].tolist()
    # edge (a, b) is the Python int a * n + b: exact for any n, no tuples
    n = graph.n_nodes
    present = {a * n + b for a, b in zip(src, dst)}
    for _ in range(n_swaps):
        i = _randbelow(getrandbits, n_edges)
        j = _randbelow(getrandbits, n_edges)
        while j == i:
            j = _randbelow(getrandbits, n_edges)
        a, b = src[i], dst[i]
        c, d = src[j], dst[j]
        if not allow_self_loops and (c == b or a == d):
            continue
        ab, cd = a * n + b, c * n + d
        e1, e2 = c * n + b, a * n + d
        present.discard(ab)
        present.discard(cd)
        if e1 in present or e2 in present or e1 == e2:
            present.add(ab)
            present.add(cd)
            continue
        src[i] = c
        src[j] = a
        present.add(e1)
        present.add(e2)
    return DirectedGraph(
        n_nodes=graph.n_nodes,
        edges=np.column_stack((np.array(src, dtype=np.int64), graph.edges[:, 1])),
        multi_edges_allowed=False,
    )


def degree_distribution(graph: DirectedGraph, direction: str) -> DegreeDistribution:
    """Exact degree counts plus the cumulative fraction P_c(k) of nodes with
    degree >= k, for ``direction`` 'in' or 'out'."""
    if direction == "in":
        deg = graph.in_degrees()
    elif direction == "out":
        deg = graph.out_degrees()
    else:
        raise ValueError("direction must be 'in' or 'out'")
    if graph.n_nodes == 0:
        raise EmptyGraphError("degree distribution of an empty graph")
    binned = np.bincount(deg)
    observed = np.nonzero(binned)[0]
    counts = {int(k): int(binned[k]) for k in observed}
    # nodes with degree >= k, summed from the tail
    tail = np.cumsum(binned[::-1])[::-1]
    cumulative = {int(k): float(tail[k] / graph.n_nodes) for k in observed}
    return DegreeDistribution(
        counts=counts, cumulative=cumulative, mean_degree=graph.n_edges / graph.n_nodes
    )


def degree_distribution_to_csv(dist: DegreeDistribution, target) -> None:
    """Write ``k,count,cumulative_fraction`` rows sorted by degree."""
    ks = sorted(dist.counts)
    columns = (ks, [dist.counts[k] for k in ks], [dist.cumulative[k] for k in ks])
    _write_table(target, "k,count,cumulative_fraction\n", "%d,%d,%.17g\n", columns)


def fit_loglog_slope(
    dist: DegreeDistribution, k_range: tuple[int, int] | None = None
) -> float:
    """Least-squares slope of log10 P_c(k) against log10 k.

    ``k_range`` is an inclusive (k_min, k_max) window; the default
    ``[3, k_max/4]`` skips the flat head and the noisy tail.  Requires at
    least three distinct usable degrees in the window.
    """
    ks = np.array([k for k in sorted(dist.cumulative) if k >= 1], dtype=float)
    if ks.size == 0:
        raise FitError("no positive degrees to fit")
    if k_range is None:
        k_range = (3, max(int(ks.max()) // 4, 3))
    lo, hi = k_range
    sel = ks[(ks >= lo) & (ks <= hi)]
    sel = np.array([k for k in sel if dist.cumulative[int(k)] > 0.0])
    if sel.size < 3:
        raise FitError(
            f"need >= 3 distinct degrees with nonzero cumulative in [{lo}, {hi}], "
            f"got {sel.size}"
        )
    x = np.log10(sel)
    y = np.log10([dist.cumulative[int(k)] for k in sel])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def reciprocity(graph: DirectedGraph) -> float:
    """Fraction of edges whose reverse edge is also present.

    Counted per edge instance; a self-loop is its own reverse.  The counting
    convention (edges with a reciprocal partner / total edges) is the common
    one but not the only possible reading of "symmetric links".
    """
    if graph.n_edges == 0:
        raise EmptyGraphError("reciprocity of an edgeless graph")
    edges = graph.edges
    hits = np.count_nonzero(np.isin(_pair_keys(edges[:, ::-1]), _pair_keys(edges)))
    return int(hits) / graph.n_edges
