"""Benchmark of the netspectra command line on seeded inputs.

Run from the repository root::

    python3 perfbench/run.py --workload spectrum-dense --seed 1 --seconds 50 --trace 0

Workloads (see ``workloads.py``):

* ``spectrum-dense``: ``spectrum`` at alpha 0.85 and 1.0 and
  ``truncate-spectrum`` on a scale-free and a community graph with N = 512;
  dense eigendecomposition does nearly all the work.
* ``sparse-graphs``: ``pagerank``, ``par-curve`` and ``fidelity`` on a
  community graph with N = 8,000 (edge-list reading and power iteration),
  then ``generate ab|al|color`` at n = 4096, ``randomize`` and
  ``degree-dist`` on a 2,000-node graph (generators, rewiring, edge-list
  writing).

Each workload also runs small probe jobs, once per round after its own jobs,
for the commands it does not feature, so every metric exists on every
workload.  The jobs are sized so that a run repeats each of them a dozen
times or more.

The inputs are generated here from ``--seed``.  Set-up time is measured in
fresh interpreters.  The jobs then run in one child process that calls
``netspectra.cli.main`` in a closed loop (one client) for ``--seconds``.
Afterwards every job's outputs are checked against oracles of the
benchmark's own, and the digests of the files each job wrote must be the
same in every round.

With ``--trace 0`` the last stdout line holds the end-to-end metrics: the
median wall time of each command's jobs (averaged over the command's jobs
when it has several), ``setup_s`` (median import time) and
``peak_rss_mb``.  With ``--trace 1`` every job runs untraced and then
traced, and the line holds per-layer metrics from spans around calls into
the package's public functions.  The line before it is a JSON record of the
environment, sample counts and failures; the full results, with every job's
output digests, go to ``.bench_work/<workload>-trace<0|1>/summary.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BLAS_THREADS = 1  # at most nproc; one thread keeps dense timings steady
SETUP_RUNS = 4  # timed fresh interpreters before and again after the jobs
WORKER_TIMEOUT_S = 150
SPARSE_VECTORS = 4  # length-N float vectors live during power iteration

SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import netspectra.cli, netspectra.netcore, netspectra.gmatrix\n"
    "import netspectra.ranking, netspectra.spectra, netspectra.genmodels\n"
    "print(time.perf_counter() - t0)\n"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def measure_setup(env, runs: int) -> list[float]:
    """Import time of the CLI and the five modules its commands load, in
    ``runs`` fresh interpreters."""
    times = []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(out.stdout.strip()))
    return times


def l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def environment(graphs: dict, blas: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_requested": int(child_env()["OPENBLAS_NUM_THREADS"]),
        "l3_bytes": l3_bytes(),
        # computed sizes: the sparse operator (CSC data + indices per edge)
        # with its iteration vectors, and one dense N x N float matrix for
        # the graphs that spectrum jobs densify
        "working_set_bytes": {
            name: {"sparse": 12 * g["edges"] + SPARSE_VECTORS * 8 * g["n"]}
            | ({"dense": 8 * g["n"] ** 2} if g.get("dense") else {})
            for name, g in graphs.items()
        },
    }


def _median(values) -> float:
    return float(statistics.median(values))


def command_times(jobs, runs, mode) -> dict[str, dict]:
    """Per end-to-end metric: the mean over the command's jobs of each job's
    median wall time, and the number of samples."""
    per_metric: dict[str, list] = {}
    for job in jobs:
        per_metric.setdefault(job["metric"], []).append([r["s"] for r in runs[job["id"]][mode]])
    return {
        metric: {
            "value": statistics.fmean(_median(t) for t in lists),
            "unit": "s",
            "samples": sum(len(t) for t in lists),
        }
        for metric, lists in per_metric.items()
    }


def evaluate(jobs, runs) -> tuple[int, int, list[str]]:
    """(runs attempted, runs failed, problems).  A run fails when it exits
    non-zero, and every run of a job fails when the job's outputs fail a
    check or differ in bytes between runs."""
    attempted = failed = 0
    problems = []
    for job in jobs:
        job_runs = [r for mode_runs in runs[job["id"]].values() for r in mode_runs]
        attempted += len(job_runs)
        bad = [r for r in job_runs if r["rc"] != 0]
        if bad:
            failed += len(bad)
            problems.append(f"{job['id']}: {len(bad)} runs exited with {sorted({r['rc'] for r in bad})}")
            continue
        found = checks.check_job(job)
        stable = {
            json.dumps({k: v for k, v in r["digests"].items() if not k.endswith(".json")}, sort_keys=True)
            for r in job_runs
        }
        if len(stable) != 1:
            found.append("output bytes differ between runs of the same job")
        if found:
            failed += len(job_runs)
            problems += [f"{job['id']}: {p}" for p in found]
    return attempted, failed, problems


def trace_metrics(jobs, runs, spans) -> tuple[dict, list[str]]:
    metrics = tracing.per_layer_metrics(spans, jobs)
    problems = [
        f"{job_id}: layer spans sum to {r['inside']:.6f} s > job {r['s']:.6f} s"
        for job_id, job_runs in tracing.job_runs(spans).items()
        for r in job_runs
        if r["inside"] > r["s"]
    ]
    untraced = command_times(jobs, runs, "untraced")
    traced = command_times(jobs, runs, "traced")
    base = sum(t["value"] for t in untraced.values())
    metrics["trace.overhead_frac"] = (sum(t["value"] for t in traced.values()) / base - 1.0, "ratio")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "netspectra" / "cli.py").is_file():
        print(f"perfbench: no netspectra sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    jobs, graphs = workloads.build(args.workload, args.seed, work)
    inputs_s = time.perf_counter() - t0

    env = child_env()
    measure_setup(env, 1)  # may write bytecode; not kept
    setup = measure_setup(env, SETUP_RUNS)
    config, results_path = work / "config.json", work / "results.json"
    config.write_text(json.dumps(
        {"jobs": jobs, "seconds": args.seconds, "trace": args.trace}
    ))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(config), str(results_path)],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    results = json.loads(results_path.read_text())
    runs = results["runs"]
    setup += measure_setup(env, SETUP_RUNS)

    attempted, failed, problems = evaluate(jobs, runs)
    times = command_times(jobs, runs, "untraced")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": results["rounds"],
        "measured_s": results["measured_s"],
        "inputs_s": inputs_s,
        "setup_samples_s": setup,
        "command_s": times,
        "failed_frac": failed / attempted,
        "problems": problems,
        "environment": environment(graphs, results["blas"]),
    }
    if args.trace:
        metrics, span_problems = trace_metrics(jobs, runs, results["spans"])
        problems += span_problems
        detail["layer_s_by_command"] = tracing.layer_seconds_by_command(results["spans"], jobs)
    else:
        metrics = {metric: (times[metric]["value"], "s") for metric in workloads.COMMAND_METRICS}
        metrics["setup_s"] = (_median(setup), "s")
        metrics["peak_rss_mb"] = (results["peak_rss_kb"] / 1024.0, "MB")
    summary = dict(detail, metrics=metrics, digests={
        job["id"]: runs[job["id"]]["untraced"][0]["digests"] for job in jobs
    })
    (work / "summary.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
