"""The benchmark's workloads: seeded input graphs plus an ordered job list.

Each workload has *home* jobs, which give its character, and a fixed set of
*probe* jobs on a small graph for every command the home jobs do not run.
The probes keep every end-to-end and per-layer metric defined on every
workload while adding only a small share of its time.  One round runs
every home job once and then the whole probe set.  The jobs
are sized so that a run holds a dozen or more rounds: every job is timed
many times, spread over the run.

A job is a dict: ``id``, ``metric`` (the end-to-end metric it feeds),
``argv`` (for ``netspectra.cli.main``), ``dir`` (where it writes) and
``check`` (what the output checks need to know).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import inputs

COMMAND_METRICS = (
    "spectrum_s",
    "truncate_spectrum_s",
    "pagerank_s",
    "par_curve_s",
    "fidelity_s",
    "generate_ab_s",
    "generate_al_s",
    "generate_color_s",
    "randomize_s",
    "degree_dist_s",
)

WORKLOADS = ("spectrum-dense", "sparse-graphs")

DENSE_N = 512
DENSE_SIZES = (384, 192)
SWEEP_N = 8_000
SWEEP_PAR_ALPHAS = (0.5, 0.85, 0.95, 0.99)
SWEEP_FIDELITY_ALPHAS = (0.49, 0.59, 0.69, 0.79, 0.89, 0.99)
TOOLS_GEN_N = 4096
TOOLS_GRAPH_N = 2000
PROBE_N = 384
AL_M = 5  # the CLI's default --m


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


class _JobList:
    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.jobs: list[dict] = []
        self.graphs: dict[str, dict] = {}

    def graph(self, name: str, n: int, edges: np.ndarray) -> None:
        path = self.work / "inputs" / f"{name}.edges"
        path.parent.mkdir(parents=True, exist_ok=True)
        inputs.write_edge_list(path, n, edges)
        self.graphs[name] = {"path": str(path), "n": n, "edges": int(len(edges))}

    def add(self, job_id: str, metric: str, argv: list[str], check: dict):
        out = self.work / "out" / job_id
        check = dict(check, kind=metric)
        if metric.startswith("generate") or metric == "randomize_s":
            argv = argv + ["--out", str(out / "graph.edges")]
        else:
            argv = argv + ["--out-dir", str(out)]
        self.jobs.append(
            {"id": job_id, "metric": metric, "argv": argv, "dir": str(out),
             "check": check}
        )

    def spectrum(self, tag, graph, alpha):
        g = self.graphs[graph]
        g["dense"] = True
        self.add(f"spectrum.{tag}.a{alpha}", "spectrum_s",
                 ["spectrum", g["path"], "--alpha", str(alpha)],
                 {"input": g["path"], "alpha": alpha})

    def truncate(self, tag, graph, sizes):
        g = self.graphs[graph]
        g["dense"] = True
        self.add(f"truncate.{tag}", "truncate_spectrum_s",
                 ["truncate-spectrum", g["path"], "--sizes", _csv(sizes)],
                 {"input": g["path"], "alpha": 0.85, "sizes": list(sizes)})

    def pagerank(self, tag, graph):
        g = self.graphs[graph]
        self.add(f"pagerank.{tag}", "pagerank_s",
                 ["pagerank", g["path"], "--alpha", "0.85"],
                 {"input": g["path"], "alpha": 0.85})

    def par_curve(self, tag, graph, alphas):
        g = self.graphs[graph]
        self.add(f"par_curve.{tag}", "par_curve_s",
                 ["par-curve", g["path"], "--alphas", _csv(alphas)],
                 {"input": g["path"], "alphas": list(alphas)})

    def fidelity(self, tag, graph, alphas):
        g = self.graphs[graph]
        self.add(f"fidelity.{tag}", "fidelity_s",
                 ["fidelity", g["path"], "--alphas", _csv(alphas)],
                 {"input": g["path"], "alphas": list(alphas)})

    def generate(self, tag, model, n):
        self.add(f"generate_{model}.{tag}", f"generate_{model}_s",
                 ["generate", model, "--n", str(n), "--seed", str(self.seed)],
                 {"model": model, "n": n, "m": AL_M})

    def randomize(self, tag, graph):
        g = self.graphs[graph]
        self.add(f"randomize.{tag}", "randomize_s",
                 ["randomize", g["path"], "--seed", str(self.seed)],
                 {"input": g["path"]})

    def degree_dist(self, tag, graph):
        g = self.graphs[graph]
        self.add(f"degree_dist.{tag}", "degree_dist_s",
                 ["degree-dist", g["path"]], {"input": g["path"]})

    def probes(self, home: set[str]):
        """One small job for each command the home jobs do not run."""
        if "spectrum_s" not in home:
            self.spectrum("probe", "probe", 0.85)
            self.truncate("probe", "probe", (256, 128))
        if "pagerank_s" not in home:
            self.pagerank("probe", "probe")
            self.par_curve("probe", "probe", (0.5, 0.85))
            self.fidelity("probe", "probe", (0.5, 0.85))
        if "generate_ab_s" not in home:
            for model in ("ab", "al", "color"):
                self.generate("probe", model, 4 * PROBE_N)
            self.randomize("probe", "probe")
            self.degree_dist("probe", "probe")


def build(workload: str, seed: int, work: Path) -> tuple[list[dict], dict]:
    """Write the workload's inputs under ``work``; return its jobs, in the
    order of one round, and a description of its input graphs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    b = _JobList(work, seed)
    b.graph("probe", PROBE_N, inputs.scale_free(rng, PROBE_N))
    if workload == "spectrum-dense":
        b.graph("sf", DENSE_N, inputs.scale_free(rng, DENSE_N))
        b.graph("comm", DENSE_N, inputs.communities(rng, DENSE_N, n_comm=32))
        for tag in ("sf", "comm"):
            b.spectrum(tag, tag, 0.85)
            b.spectrum(tag, tag, 1.0)
            b.truncate(tag, tag, DENSE_SIZES)
    else:
        b.graph("comm", SWEEP_N, inputs.communities(rng, SWEEP_N, n_comm=64))
        b.graph("sf", TOOLS_GRAPH_N, inputs.scale_free(rng, TOOLS_GRAPH_N, dangling_frac=0.0))
        b.pagerank("comm", "comm")
        b.par_curve("comm", "comm", SWEEP_PAR_ALPHAS)
        b.fidelity("comm", "comm", SWEEP_FIDELITY_ALPHAS)
        for model in ("ab", "al", "color"):
            b.generate("home", model, TOOLS_GEN_N)
        b.randomize("sf", "sf")
        b.degree_dist("sf", "sf")
    b.probes({job["metric"] for job in b.jobs})
    return b.jobs, b.graphs
