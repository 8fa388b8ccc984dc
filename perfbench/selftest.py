"""Self-tests for the benchmark's own checks and inputs.

Run from the repository root with ``python3 -m pytest -q perfbench/selftest.py``.
Each corrupted output below keeps its manifest digest consistent, so only the
content oracle can catch it, and it must be counted as a failed job.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from netspectra import cli  # noqa: E402


def _run_jobs(jobs, rounds=2):
    """Run each job ``rounds`` times as the worker does; return its runs record."""
    runs = {}
    for job in jobs:
        runs[job["id"]] = {"untraced": []}
        for _ in range(rounds):
            dt, rc, error = worker.run_job(cli, job)
            runs[job["id"]]["untraced"].append(
                {"s": dt, "rc": rc, "error": error, "digests": worker.digests(job["dir"])}
            )
    return runs


def _rewrite(path: Path, text: str) -> None:
    """Replace an output and update its manifest entry to match."""
    path.write_text(text, encoding="utf-8")
    manifest = next(p for p in path.parent.iterdir() if p.name.endswith(("manifest.json", "params.json")))
    data = json.loads(manifest.read_text())
    data["outputs"][path.name] = checks.sha256(path)
    manifest.write_text(json.dumps(data))


@pytest.fixture
def small_jobs(tmp_path):
    b = workloads._JobList(tmp_path, seed=7)
    b.graph("g", 96, inputs.scale_free(np.random.default_rng(7), 96))
    b.spectrum("t", "g", 0.85)
    b.pagerank("t", "g")
    b.randomize("t", "g")
    jobs = {job["metric"]: job for job in b.jobs}
    runs = _run_jobs(b.jobs)
    return jobs, runs


def _failed(job, runs):
    attempted, failed, problems = run.evaluate([job], {job["id"]: runs[job["id"]]})
    return failed, problems


def test_clean_outputs_pass(small_jobs):
    jobs, runs = small_jobs
    for job in jobs.values():
        assert _failed(job, runs) == (0, [])


def test_perturbed_pagerank_score_fails(small_jobs):
    jobs, runs = small_jobs
    job = jobs["pagerank_s"]
    path = Path(job["dir"]) / "pagerank.csv"
    lines = path.read_text().splitlines()
    node, score, pos = lines[5].split(",")
    lines[5] = f"{node},{float(score) * 1.001!r},{pos}"
    _rewrite(path, "\n".join(lines) + "\n")
    failed, problems = _failed(job, runs)
    assert failed == 2 and any("residual" in p or "distribution" in p for p in problems)


def test_dropped_eigenvalue_row_fails(small_jobs):
    jobs, runs = small_jobs
    job = jobs["spectrum_s"]
    path = Path(job["dir"]) / "eigenvalues.csv"
    lines = path.read_text().splitlines()
    _rewrite(path, "\n".join(lines[:-1]) + "\n")
    failed, problems = _failed(job, runs)
    assert failed == 2 and any("rows, expected 96" in p for p in problems)


def test_degree_changing_edge_list_fails(small_jobs):
    jobs, runs = small_jobs
    job = jobs["randomize_s"]
    path = Path(job["dir"]) / "graph.edges"
    n, edges, _ = checks.read_edges(path)
    present = set(map(tuple, edges.tolist()))
    src, dst = edges[0]
    new_dst = next(t for t in range(n) if t != src and t != dst and (src, t) not in present)
    lines = path.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[first] = f"{src} {new_dst}"
    _rewrite(path, "\n".join(lines) + "\n")
    failed, problems = _failed(job, runs)
    assert failed == 2 and any("in-degree sequence changed" in p for p in problems)


def test_changing_bytes_between_runs_fail(small_jobs):
    jobs, runs = small_jobs
    job = jobs["pagerank_s"]
    changed = json.loads(json.dumps(runs[job["id"]]))
    changed["untraced"][1]["digests"]["pagerank.csv"] = "0" * 64
    attempted, failed, problems = run.evaluate([job], {job["id"]: changed})
    assert failed == 2 and any("differ between runs" in p for p in problems)


def _input_bytes(workload, seed, work):
    workloads.build(workload, seed, work)
    return {p.name: p.read_bytes() for p in sorted((work / "inputs").iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_between_seeds(workload, tmp_path):
    first = _input_bytes(workload, 3, tmp_path / "a")
    again = _input_bytes(workload, 3, tmp_path / "b")
    other = _input_bytes(workload, 4, tmp_path / "c")
    assert first == again
    assert all(first[name] != other[name] for name in first)
