"""Child process of the benchmark: runs one workload's jobs in a closed loop.

Usage: ``python3 worker.py CONFIG.json RESULTS.json``.  The config holds the
jobs, in the order of one round, the measuring time and the trace flag.
One client calls ``netspectra.cli.main(argv)`` for each job and starts the
next job only after the previous one returns.  Rounds repeat until the time
is up; the first round always completes.  With tracing on, every job runs twice in a
row: untraced, then traced.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import hashlib
import importlib
import io
import itertools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every file in ``directory`` (none if it was never made)."""
    directory = Path(directory)
    if not directory.is_dir():
        return {}
    return {p.name: sha256(p) for p in sorted(directory.iterdir()) if p.is_file()}


def _symbol(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn
    return None


def blas_info() -> dict:
    """BLAS library, version and the thread count in effect in this process,
    for each OpenBLAS bundled with numpy and scipy."""
    import numpy
    import scipy

    info = {}
    for pkg in (numpy, scipy):
        entry = {"build": pkg.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")}
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else ():
            lib = ctypes.CDLL(str(path))  # already loaded: returns the same handle
            threads = _symbol(lib, _THREAD_SYMBOLS, ctypes.c_int)
            config = _symbol(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
            entry["library"] = path.name
            entry["threads"] = threads() if threads else None
            entry["config"] = config().decode() if config else None
        info[pkg.__name__] = entry
    return info


def run_job(cli, job, tracer=None) -> tuple[float, int, str | None]:
    """Time one ``cli.main`` call, inside a job span when ``tracer`` is given;
    return (seconds, exit code, error text).  Garbage left by earlier jobs is
    collected first, outside the timing."""
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        if tracer:
            tracer.begin_job(job["id"], "cli." + job["metric"][:-2])
        try:
            rc = cli.main(list(job["argv"]))
            error = None
        except Exception:  # the loop must go on; the failure is recorded
            rc, error = -1, traceback.format_exc()
        finally:
            if tracer:
                tracer.end_job()
        dt = time.perf_counter() - t0
    if error:
        print(error, file=sys.stderr)
    return dt, rc, error


def main(config_path: str, results_path: str) -> int:
    config = json.loads(Path(config_path).read_text())
    jobs, seconds, trace = config["jobs"], config["seconds"], config["trace"]
    cli = importlib.import_module("netspectra.cli")
    for name in ("netcore", "gmatrix", "ranking", "spectra", "genmodels"):
        importlib.import_module(f"netspectra.{name}")
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    modes = ("untraced", "traced") if trace else ("untraced",)
    runs = {job["id"]: {m: [] for m in modes} for job in jobs}

    start = time.perf_counter()
    for i in itertools.count():
        # the first round always completes; after it, no job starts once the time is up
        if i >= len(jobs) and time.perf_counter() - start >= seconds:
            break
        job = jobs[i % len(jobs)]
        for mode in modes:
            dt, rc, error = run_job(cli, job, tracer if mode == "traced" else None)
            runs[job["id"]][mode].append(
                {"s": dt, "rc": rc, "error": error, "digests": digests(job["dir"])}
            )

    results = {
        "rounds": i // len(jobs),  # complete rounds
        "measured_s": time.perf_counter() - start,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas": blas_info(),
        "runs": runs,
        "spans": tracer.spans if tracer else [],
    }
    Path(results_path).write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
