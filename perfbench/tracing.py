"""Spans around the calls into netspectra's public functions, recorded from
outside the package, and the per-layer metrics derived from them.

``install`` replaces every public function of the six modules (and the
``GoogleMatrix.apply`` / ``to_dense`` methods) with a wrapper, in every
module namespace that binds it, so calls made by ``cli`` and calls made
between modules are both seen.  A wrapper records nothing unless the tracer
is active, so one process can time jobs both ways.  Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import tracemalloc

MODULES = ("netcore", "gmatrix", "ranking", "spectra", "genmodels", "cli")

# Nominal flop count of dgeev with right eigenvectors (about 25 N^3, Golub &
# Van Loan) plus the complex N x N residual product (8 N^3).  A computed
# figure, not a hardware counter.
EIG_FLOPS_PER_N3 = 25.0 + 8.0


def _eig_attrs(args, kwargs, result, peak):
    n = args[0].shape[0]
    return {"n": n, "peak_bytes": peak}


def _randomize_attrs(args, kwargs, result, peak):
    graph = args[0]
    swaps = kwargs.get("n_swaps", args[1] if len(args) > 1 else None)
    moved = int((result.edges != graph.edges).any(axis=1).sum())
    return {
        "attempts": 10 * graph.n_edges if swaps is None else swaps,
        "edges": graph.n_edges,
        "moved": moved,
    }


# Counts recorded at the layer boundary, computed after the span has ended.
ATTRS = {
    "spectra.eigendecompose": _eig_attrs,
    "gmatrix.to_dense": lambda a, k, r, p: {"n": a[0].n},
    "gmatrix.apply": lambda a, k, r, p: {"n": a[0].n, "nnz": a[0].s.matrix.nnz},
    "ranking.pagerank_power": lambda a, k, r, p: {"iterations": r.iterations},
    "ranking.rank_to_csv": lambda a, k, r, p: {"rows": a[0].n},
    "netcore.load_edge_list": lambda a, k, r, p: {"edges": r.n_edges},
    "netcore.save_edge_list": lambda a, k, r, p: {"edges": a[0].n_edges},
    "netcore.maslov_randomize": _randomize_attrs,
    "genmodels.generate_ab": lambda a, k, r, p: {"nodes": a[0].n_target},
    "genmodels.generate_al": lambda a, k, r, p: {"nodes": a[0].n_target},
    "genmodels.generate_color": lambda a, k, r, p: {"nodes": a[0].ab.n_target},
}
# Functions whose peak heap use (numpy buffers included) is measured with
# tracemalloc; allocations made before the call, such as its input, are not
# counted.
HEAP = {"spectra.eigendecompose"}


class Tracer:
    """In-memory span store.  A finished span is the tuple ``(id, parent,
    root, name, start, end, attrs)``: ``root`` is the id of the job span
    that the call belongs to, times come from ``time.perf_counter`` and attrs
    are ``(key, value)`` pairs, so the garbage collector stops tracking the
    span and a long traced run does not slow its own collections.  A job
    span has no parent and carries its job id in its attrs."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._job_id = None

    def begin_job(self, job_id: str, name: str) -> None:
        self.active = True
        self._job_id = job_id
        self._stack = []
        self._stack.append(self._open(name))

    def end_job(self) -> None:
        sid = self._stack.pop()
        self._close(sid, time.perf_counter(), {"job": self._job_id})
        self.active = False

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else sid
        self.spans.append((sid, parent, root, name, time.perf_counter()))
        return sid

    def _close(self, sid: int, end: float, attrs: dict) -> None:
        self.spans[sid] = self.spans[sid] + (end, tuple(attrs.items()))

    def wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)
        heap = name in HEAP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._open(name)
            self._stack.append(sid)
            if heap:
                tracemalloc.start()
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                self._stack.pop()
                peak = None
                if heap:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                if not ok:
                    attrs = {"failed": True}
                else:
                    attrs = attrs_of(args, kwargs, result, peak) if attrs_of else {}
                self._close(sid, end, attrs)
            return result

        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every module."""
    mods = [importlib.import_module(f"netspectra.{name}") for name in MODULES]
    wrapped = {}
    for mod in mods:
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if callable(fn) and not isinstance(fn, type) and fn not in wrapped:
                wrapped[fn] = tracer.wrap(f"{fn.__module__.split('.')[-1]}.{fn.__name__}", fn)
    # rebind in every namespace that imported the function by name
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            if callable(obj) and not isinstance(obj, type) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    cls = importlib.import_module("netspectra.gmatrix").GoogleMatrix
    for meth in ("apply", "to_dense"):
        setattr(cls, meth, tracer.wrap(f"gmatrix.{meth}", getattr(cls, meth)))


# ---------------------------------------------------------------------------
# per-layer metrics from recorded spans


def _median(values, default=0.0):
    values = list(values)
    return float(statistics.median(values)) if values else default


def _ratio(num, den):
    return float(num) / den if den > 0 else 0.0


def job_runs(spans) -> dict[str, list[dict]]:
    """Traced runs grouped by job id.  Each run is a dict with ``s`` (job
    span duration), ``inside`` (summed durations of the layer calls the job
    made directly), ``layers`` (inclusive seconds per span name) and
    ``counts`` (summed attrs per span name)."""
    runs: dict[int, dict] = {}
    for sid, parent, _root, _name, t0, t1, attrs in spans:
        if parent is None:
            runs[sid] = {"job": dict(attrs)["job"], "s": t1 - t0, "inside": 0.0,
                         "layers": {}, "counts": {}}
    for _sid, parent, root, name, t0, t1, attrs in spans:
        if parent is None:
            continue
        run = runs[root]
        if parent == root:
            run["inside"] += t1 - t0
        run["layers"][name] = run["layers"].get(name, 0.0) + t1 - t0
        counts = run["counts"].setdefault(name, {})
        for key, value in attrs:
            counts[key] = counts.get(key, 0) + value
    grouped: dict[str, list[dict]] = {}
    for run in runs.values():
        grouped.setdefault(run.pop("job"), []).append(run)
    return grouped


def layer_calls(spans) -> dict[str, list[dict]]:
    """Completed layer calls grouped by span name, as dicts with ``s``
    (duration) and their attrs."""
    by_name: dict[str, list[dict]] = {}
    for _sid, parent, _root, name, t0, t1, attrs in spans:
        attrs = dict(attrs)
        if parent is None or attrs.get("failed"):
            continue
        by_name.setdefault(name, []).append({**attrs, "s": t1 - t0})
    return by_name


BUSY = (
    "spectra.eigendecompose", "spectra.spectrum_to_csv", "spectra.eigenvector_pars",
    "spectra.degeneracy_clusters", "spectra.truncated_spectrum_compare",
    "gmatrix.to_dense", "gmatrix.truncate_by_rank", "gmatrix.build_stochastic",
    "ranking.pagerank_power", "ranking.par_vs_alpha", "ranking.fidelity_grid",
    "ranking.rank_to_csv", "netcore.load_edge_list", "netcore.save_edge_list",
    "netcore.maslov_randomize", "netcore.degree_distribution",
    "genmodels.generate_ab", "genmodels.generate_al", "genmodels.generate_color",
)


def per_layer_metrics(spans, jobs) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit).

    ``<layer>.<function>.s`` is the time the function is busy in one round
    of the job list: for each job, the median over its traced runs of the
    time inside the function, summed over the jobs.
    Rates divide a count by the time of all calls that produced it.
    """
    grouped = job_runs(spans)
    calls = layer_calls(spans)

    def per_round(value_of):
        return sum(_median(value_of(r) for r in grouped[job["id"]]) for job in jobs)

    def rate(name, key):
        c = calls.get(name, [])
        return _ratio(sum(x[key] for x in c), sum(x["s"] for x in c))

    out = {f"{name}.s": (per_round(lambda r: r["layers"].get(name, 0.0)), "s") for name in BUSY}
    eig = calls.get("spectra.eigendecompose", [])
    out["spectra.eigendecompose.gflop_per_s"] = (
        _ratio(sum(EIG_FLOPS_PER_N3 * c["n"] ** 3 for c in eig), sum(c["s"] for c in eig)) / 1e9,
        "GFLOP/s",
    )
    out["spectra.eigendecompose.peak_bytes_per_n2"] = (
        _median(c["peak_bytes"] / c["n"] ** 2 for c in eig), "B/N2"
    )
    out["gmatrix.to_dense.bytes"] = (
        max((8 * c["n"] ** 2 for c in calls.get("gmatrix.to_dense", [])), default=0), "B"
    )
    # one application reads the CSC data and indices (12 B per stored entry)
    # and moves three length-N float vectors
    out["gmatrix.apply.bytes_computed"] = (
        _median(12 * c["nnz"] + 24 * c["n"] for c in calls.get("gmatrix.apply", [])), "B"
    )
    out["ranking.pagerank_power.iterations"] = (
        per_round(lambda r: r["counts"].get("ranking.pagerank_power", {}).get("iterations", 0)),
        "count",
    )
    pr = calls.get("ranking.pagerank_power", [])
    out["ranking.pagerank_power.s_per_iter"] = (
        _ratio(sum(c["s"] for c in pr), sum(c["iterations"] for c in pr)), "s"
    )
    out["ranking.rank_to_csv.rows_per_s"] = (rate("ranking.rank_to_csv", "rows"), "rows/s")
    out["netcore.load_edge_list.edges_per_s"] = (rate("netcore.load_edge_list", "edges"), "edges/s")
    out["netcore.save_edge_list.edges_per_s"] = (rate("netcore.save_edge_list", "edges"), "edges/s")
    out["netcore.maslov_randomize.attempts_per_s"] = (
        rate("netcore.maslov_randomize", "attempts"), "1/s"
    )
    rz = calls.get("netcore.maslov_randomize", [])
    out["netcore.maslov_randomize.moved_frac"] = (
        _ratio(sum(c["moved"] for c in rz), sum(c["edges"] for c in rz)), "ratio"
    )
    out["genmodels.generate_ab.nodes_per_s"] = (rate("genmodels.generate_ab", "nodes"), "nodes/s")
    # the CLI's own time: a traced job's span minus the layer calls it made
    by_metric: dict[str, list[float]] = {}
    for job in jobs:
        by_metric.setdefault(job["metric"], []).append(
            _median(r["s"] - r["inside"] for r in grouped[job["id"]])
        )
    for metric, values in by_metric.items():
        out[f"cli.{metric[:-2]}.self_s"] = (statistics.fmean(values), "s")
    return out


def layer_seconds_by_command(spans, jobs, floor: float = 1e-3) -> dict[str, dict[str, float]]:
    """Mean over a command's jobs of the median seconds each job spends in
    each function, for functions above ``floor``; shows where a command's
    time goes."""
    grouped = job_runs(spans)
    acc: dict[str, list[dict]] = {}
    for job in jobs:
        runs = grouped[job["id"]]
        names = {name for r in runs for name in r["layers"]}
        acc.setdefault(job["metric"], []).append(
            {name: _median(r["layers"].get(name, 0.0) for r in runs) for name in names}
        )
    out = {}
    for metric, per_job in acc.items():
        names = {name for d in per_job for name in d}
        means = {name: statistics.fmean(d.get(name, 0.0) for d in per_job) for name in names}
        out[metric] = {k: v for k, v in sorted(means.items(), key=lambda kv: -kv[1]) if v >= floor}
    return out
