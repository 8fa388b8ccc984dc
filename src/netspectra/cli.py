"""Command-line front end: ingest or generate networks, compute spectra and
rank observables, and emit plot-ready CSV files.

Every run writes a JSON manifest recording the command, parameters, input
digests, seed, tool version, and output digests; rerunning with the same
inputs and flags reproduces the output files byte for byte (only the
manifest's timing field differs).  Exit codes: 0 success, 1 I/O or parse
failure, 2 capability/size failure, 3 numerical non-convergence.

The library modules are imported inside the commands, so graph-only
commands never load scipy.  The BLAS thread count is the environment's
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__

EXIT_OK = 0
EXIT_IO = 1
EXIT_SIZE = 2
EXIT_NUMERIC = 3

_MANIFEST_NAME = "manifest.json"
# manifest name for commands that write one ``--out`` file: ``<out><suffix>``
_SIDECAR_SUFFIX = {"generate": ".params.json", "randomize": ".manifest.json"}


class _Parser(argparse.ArgumentParser):
    # usage errors are parse failures (exit 1), not size failures (exit 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def _parse_list(kind, noun):
    """argparse type for a nonempty comma-separated list of ``kind``."""

    def parse(text):
        try:
            values = [kind(x) for x in text.split(",") if x.strip()]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")
        return values

    return parse


def _float_in(domain: str, test):
    """argparse type for a float with ``test(value)`` true; nan fails every
    comparison, so it never passes."""

    def parse(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {domain}, got {text!r}")
        return value

    return parse


_POSITIVE = _float_in("positive and finite", lambda x: 0.0 < x < np.inf)
_NONNEGATIVE = _float_in("nonnegative and finite", lambda x: 0.0 <= x < np.inf)
_UNIT = _float_in("in [0, 1]", lambda x: 0.0 <= x <= 1.0)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path: Path, command: str, args, started: float, outputs, inputs, extra):
    parameters = {
        k: v for k, v in vars(args).items() if k != "func" and not callable(v)
    }
    manifest = {
        "schema_version": 1,
        "tool": "netspectra",
        "tool_version": __version__,
        "command": command,
        "parameters": parameters,
        "seed": parameters.get("seed"),
        "input_digests": {str(p): _sha256(p) for p in inputs},
        "outputs": {p.name: _sha256(p) for p in outputs},
        "wall_time_s": time.time() - started,
    }
    if extra:
        manifest.update(extra)
    # serialized before the file is opened: a non-finite value raises
    # ValueError (exit 1) and leaves no manifest, rather than invalid JSON
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _ingest(args):
    from . import netcore

    graph = netcore.load_edge_list(
        args.input,
        index_base=args.index_base,
        dedupe=not args.no_dedupe,
        allow_self_loops=not args.drop_self_loops,
    )
    if args.filter_min_outdegree:
        graph = netcore.filter_min_outdegree(graph)
    return graph


class _Result(NamedTuple):
    """What a command computed.  ``outputs`` maps each output file name to a
    function that writes the file's body to an open handle; ``summary`` is
    the stdout line between ``<command>: `` and `` -> <destination>``;
    ``extra`` adds top-level manifest fields; a ``failure`` message means
    non-convergence (exit 3) after the outputs are written."""

    outputs: dict
    summary: str
    extra: dict | None = None
    failure: str | None = None


# where the memory preflight reads what the dense path may use
_MEMINFO = "/proc/meminfo"
_PROC_CGROUP = "/proc/self/cgroup"
# the mount and limit file of the v2 hierarchy and of v1's memory controller
_CGROUP_ROOTS = (("/sys/fs/cgroup", "memory.max"), ("/sys/fs/cgroup/memory", "memory.limit_in_bytes"))


def _available_memory() -> int | None:
    """``MemAvailable`` in bytes, capped by the memory limit of this
    process's cgroup and of each ancestor up to the mount, for v2 (the
    ``0::`` line of :data:`_PROC_CGROUP`) and v1 (the line whose controllers
    include ``memory``), and by the mounts' own where no path is known;
    ``None`` when no figure is readable."""
    figures, paths = [], ["/", "/"]  # of the v2 cgroup and the v1 memory one
    try:
        with open(_MEMINFO, encoding="ascii") as fh:
            kb = [line.split()[1] for line in fh if line.startswith("MemAvailable:")]
        figures += [int(k) * 1024 for k in kb]
    except (OSError, ValueError, IndexError):
        pass
    try:
        for line in Path(_PROC_CGROUP).read_text().splitlines():
            _, controllers, path = line.split(":", 2)
            if not controllers or "memory" in controllers.split(","):
                paths[bool(controllers)] = path
    except (OSError, ValueError):
        pass
    for (mount, name), path in zip(_CGROUP_ROOTS, paths):
        # a path through ".." lies above this namespace's root
        parts = () if ".." in path.split("/") else Path(path).parts[1:]
        for depth in range(len(parts) + 1):
            try:
                figures.append(int(Path(mount, *parts[:depth], name).read_text()))
            except (OSError, ValueError):  # absent, or "max" for no limit
                pass
    return min(figures) if figures else None


def _check_dense_memory(n: int) -> int:
    """Refuse (exit 2) before the dense work on an n-node operator when the
    dense path cannot fit in the available memory (no check without a
    figure); return the estimate, :func:`spectra.dense_memory_bytes`."""
    from . import spectra

    peak = spectra.dense_memory_bytes(n)
    available = _available_memory()
    if available is not None and peak > available:
        raise MemoryError(
            f"the dense path needs about {peak / 2**30:.3g} GiB but {available / 2**30:.3g} GiB "
            "are available"
        )
    return peak


def _health(spec) -> dict:
    """Manifest record of one spectrum: its diagonal blocks, closed
    classes, lumped columns and rows and classes solved apart, and its
    largest residual relative to ``||G||_F``."""
    return {
        "scc_blocks": spec.blocks,
        "closed_classes": spec.closed,
        "repeated_columns": spec.lumped,
        "repeated_rows": spec.lumped_rows,
        "classes_apart": spec.apart,
        "max_residual_rel": float(spec.residuals.max() / spec.fro),
    }


def cmd_spectrum(args, graph) -> _Result:
    from . import gmatrix, spectra

    g = gmatrix.GoogleMatrix.from_graph(graph, args.alpha)
    peak = _check_dense_memory(g.n)
    spec = spectra.operator_spectrum(g, args.tol)
    gammas, zero_modes = spectra.relaxation_rates(spec, args.lambda_cutoff)
    hist = spectra.density_of_states(
        gammas, zero_modes, window=args.window, gamma_max=args.gamma_max
    )
    report = spectra.degeneracy_clusters(spec, args.degeneracy_tol)
    par_gammas, pars = spectra.eigenvector_pars(spec, args.lambda_cutoff)
    outputs = {
        "eigenvalues.csv": partial(spectra.spectrum_to_csv, spec, lambda_cutoff=args.lambda_cutoff),
        "dos.csv": partial(spectra.dos_to_csv, hist),
        "degeneracy.csv": partial(spectra.degeneracy_to_csv, report),
        "eigenvector_par.csv": partial(spectra.eigenvector_pars_to_csv, par_gammas, pars),
    }
    extra = {**_health(spec), "dense_peak_bytes": peak}
    return _Result(outputs, f"n={graph.n_nodes} alpha={args.alpha}", extra=extra)


def cmd_pagerank(args, graph) -> _Result:
    from . import gmatrix, ranking

    g = gmatrix.GoogleMatrix.from_graph(graph, args.alpha)
    rank = ranking.pagerank(g, tol=args.tol, max_iter=args.max_iter)
    # the certificate's L1 error bound; at alpha = 1 a residual bounds no
    # distance to the limit
    error_bound = rank.residual / (1.0 - rank.alpha) if rank.alpha < 1.0 else None
    return _Result(
        {"pagerank.csv": partial(ranking.rank_to_csv, rank)},
        f"n={graph.n_nodes} alpha={args.alpha} iterations={rank.iterations} "
        f"residual={rank.residual:.3e}",
        extra={
            "iterations": rank.iterations,
            "residual": rank.residual,
            "error_bound": error_bound,
            "converged": rank.converged,
        },
        failure=None if rank.converged else "iteration did not reach tolerance",
    )


def _sweep_result(outputs, summary, ranks) -> _Result:
    """Result of an alpha sweep from its rank vectors: the manifest lists
    each solve, and the failure message names every alpha that did not
    converge."""
    failed = [repr(float(r.alpha)) for r in ranks if not r.converged]
    return _Result(
        outputs,
        summary,
        extra={
            "converged": [bool(r.converged) for r in ranks],
            "iterations": [int(r.iterations) for r in ranks],
            "residual": [float(r.residual) for r in ranks],
        },
        failure=f"alpha {', '.join(failed)} did not converge" if failed else None,
    )


def cmd_fidelity(args, graph) -> _Result:
    from . import ranking

    grid = ranking.fidelity_grid(graph, args.alphas, tol=args.tol, max_iter=args.max_iter)
    return _sweep_result(
        {"fidelity.csv": partial(ranking.fidelity_grid_to_csv, grid)},
        f"n={graph.n_nodes} grid {len(args.alphas)}x{len(args.alphas)}",
        grid.ranks,
    )


def cmd_par_curve(args, graph) -> _Result:
    from . import ranking

    points = ranking.par_vs_alpha(graph, args.alphas, tol=args.tol, max_iter=args.max_iter)
    return _sweep_result(
        {"par_curve.csv": partial(ranking.par_curve_to_csv, points)},
        f"n={graph.n_nodes} {len(points)} alpha values",
        [p.rank for p in points],
    )


def cmd_degree_dist(args, graph) -> _Result:
    from . import netcore

    dists = {d: netcore.degree_distribution(graph, d) for d in ("in", "out")}
    outputs = {
        f"degree_{d}.csv": partial(netcore.degree_distribution_to_csv, dist)
        for d, dist in dists.items()
    }
    mean_degree = dists["in"].mean_degree
    return _Result(
        outputs, f"n={graph.n_nodes} <k>={mean_degree:.6g}", extra={"mean_degree": mean_degree}
    )


def cmd_randomize(args, graph) -> _Result:
    from . import netcore

    shuffled = netcore.maslov_randomize(
        graph, n_swaps=args.swaps, rng_seed=args.seed,
        allow_self_loops=not args.drop_self_loops,
    )
    swaps = args.swaps if args.swaps is not None else 10 * graph.n_edges
    return _Result(
        {Path(args.out).name: partial(netcore.save_edge_list, shuffled)},
        f"{graph.n_edges} edges, {swaps} swap attempts",
    )


def cmd_generate(args, _graph) -> _Result:
    from . import genmodels, netcore

    colors = None
    if args.model == "al":
        graph = genmodels.generate_al(
            genmodels.AlParams(n_target=args.n, m=args.m, seed=args.seed)
        )
    else:
        ab = genmodels.AbParams(n_target=args.n, m=args.m, p=args.p, q=args.q, seed=args.seed)
        if args.model == "ab":
            graph = genmodels.generate_ab(ab)
        else:
            graph, colors = genmodels.generate_color(
                genmodels.ColorParams(
                    ab=ab, eta=args.eta, epsilon=args.epsilon, initial_colors=args.initial_colors
                )
            )
    return _Result(
        {Path(args.out).name: partial(netcore.save_edge_list, graph, colors=colors)},
        f"n={graph.n_nodes} edges={graph.n_edges}",
    )


def cmd_truncate_spectrum(args, graph) -> _Result:
    from . import spectra

    peak = _check_dense_memory(graph.n_nodes)
    cmp = spectra.truncated_spectrum_compare(graph, args.alpha, args.sizes, tol=args.tol)
    outputs = {"eigenvalues_full.csv": partial(spectra.spectrum_to_csv, cmp.full)}
    hausdorff = {}
    extra = {"dense_peak_bytes": peak}
    for name, spec in [("full", cmp.full)] + [(str(res.m), res.spectrum) for res in cmp.results]:
        for key, value in _health(spec).items():
            extra.setdefault(key, {})[name] = value
    for res in cmp.results:
        outputs[f"eigenvalues_m{res.m}.csv"] = partial(spectra.spectrum_to_csv, res.spectrum)
        hausdorff[str(res.m)] = res.hausdorff
    rank = cmp.rank
    return _Result(
        outputs,
        " ".join(f"m={m}: hausdorff={h:.6g}" for m, h in hausdorff.items()),
        extra={
            "hausdorff": hausdorff,
            **extra,
            "rank": {"converged": rank.converged, "iterations": rank.iterations, "residual": rank.residual},
        },
        # the truncations keep the nodes this vector ranks first, converged or not
        failure=None if rank.converged else "rank iteration did not reach tolerance",
    )


def _ingest_parent():
    ingest = argparse.ArgumentParser(add_help=False)
    ingest.add_argument("input", help="edge-list file")
    ingest.add_argument("--index-base", type=int, choices=(0, 1), default=0)
    ingest.add_argument("--no-dedupe", action="store_true", help="keep parallel edges")
    ingest.add_argument("--drop-self-loops", action="store_true")
    ingest.add_argument(
        "--filter-min-outdegree",
        action="store_true",
        help="drop nodes without outlinks (single pass) before computing",
    )
    return ingest


def _outdir_parent():
    outdir = argparse.ArgumentParser(add_help=False)
    outdir.add_argument("--out-dir", default=".", help="directory for CSV outputs")
    return outdir


class _Unbuilt:
    """Stands in for the parser of a subcommand that is not parsed: every
    call on it does nothing and returns it, so no argument is built."""

    def __getattr__(self, name):
        return lambda *args, **kwargs: self


def build_parser(command: str | None = None) -> _Parser:
    """The command-line parser, with every subcommand, or with ``command``
    alone when it names one, so parsing one command builds no other.  The
    top-level usage line names no subcommand, so only the top-level help
    and the error for an unknown command list them, and those come from
    the parser with every subcommand."""
    parser = _Parser(prog="netspectra", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"netspectra {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, help, *parents):
        if command is None or name == command:
            return sub.add_parser(name, help=help, parents=[make() for make in parents])
        return _Unbuilt()

    analysis = (_ingest_parent, _outdir_parent)
    p = add("spectrum", "full complex spectrum and observables", *analysis)
    p.add_argument("--alpha", type=_UNIT, default=0.85)
    p.add_argument("--tol", type=_POSITIVE, default=1e-9, help="residual contract, relative to ||G||_F")
    p.add_argument("--window", type=_POSITIVE, default=0.1, help="rate-density smoothing window")
    p.add_argument("--gamma-max", type=_POSITIVE, default=10.0)
    p.add_argument("--degeneracy-tol", type=_POSITIVE, default=1e-8)
    p.add_argument("--lambda-cutoff", type=_NONNEGATIVE, default=1e-8, help="zero-mode magnitude cutoff")
    p.set_defaults(func=cmd_spectrum)

    p = add("pagerank", "certified rank vector: BiCGSTAB below alpha 1, lazy steps at 1", *analysis)
    p.add_argument("--alpha", type=_UNIT, default=0.85)
    p.add_argument("--tol", type=_POSITIVE, default=1e-12)
    p.add_argument("--max-iter", type=int, default=10000)
    p.set_defaults(func=cmd_pagerank)

    p = add("fidelity", "rank overlap grid over damping values", *analysis)
    p.add_argument("--alphas", type=_parse_list(float, "floats"), required=True, help='e.g. "0.49,0.59,0.69"')
    p.add_argument("--tol", type=_POSITIVE, default=1e-12)
    p.add_argument("--max-iter", type=int, default=10000)
    p.set_defaults(func=cmd_fidelity)

    p = add("par-curve", "rank participation ratio vs damping", *analysis)
    p.add_argument("--alphas", type=_parse_list(float, "floats"), required=True)
    p.add_argument("--tol", type=_POSITIVE, default=1e-12)
    p.add_argument("--max-iter", type=int, default=10000)
    p.set_defaults(func=cmd_par_curve)

    p = add("degree-dist", "in/out degree distributions", *analysis)
    p.set_defaults(func=cmd_degree_dist)

    p = add("randomize", "degree-preserving edge rewiring", _ingest_parent)
    p.add_argument("--swaps", type=int, default=None, help="swap attempts (default 10x edges)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output edge-list file")
    p.set_defaults(func=cmd_randomize)

    p = add("generate", "random-network generators")
    gsub = p.add_subparsers(dest="model", required=True, metavar="MODEL")
    for model, desc in (
        ("ab", "scale-free growth with link addition and rewiring"),
        ("color", "community-constrained scale-free growth"),
        ("al", "independent preferential links with multiplicities"),
    ):
        gp = gsub.add_parser(model, help=desc)
        gp.add_argument("--n", type=int, required=True, help="target node count")
        gp.add_argument("--m", type=int, default=5, help="links per event")
        if model in ("ab", "color"):
            gp.add_argument("--p", type=_UNIT, default=0.2, help="link-addition probability")
            gp.add_argument("--q", type=_UNIT, default=0.1, help="rewiring probability")
        if model == "color":
            gp.add_argument("--eta", type=_UNIT, default=1e-2, help="new-color probability")
            gp.add_argument("--epsilon", type=_UNIT, default=1e-3, help="cross-color link survival probability")
            gp.add_argument("--initial-colors", type=int, default=3)
        gp.add_argument("--seed", type=int, required=True)
        gp.add_argument("--out", required=True, help="output edge-list file")
        gp.set_defaults(func=cmd_generate, model=model)

    p = add("truncate-spectrum", "spectra of rank-truncated operators vs the full one", *analysis)
    p.add_argument("--alpha", type=_UNIT, default=0.85)
    p.add_argument("--sizes", type=_parse_list(int, "integers"), required=True, help='e.g. "8192,4096"')
    p.add_argument("--tol", type=_POSITIVE, default=1e-9)
    p.set_defaults(func=cmd_truncate_spectrum)

    return parser if command is None or command in sub.choices else build_parser()


def _classify_error(exc: Exception) -> int:
    """Report an expected failure on stderr and return its exit code;
    anything else is a bug and propagates as a traceback."""
    if isinstance(exc, MemoryError):
        print(
            f"netspectra: {str(exc) or 'out of memory'}; "
            "truncate by rank to diagonalize a smaller operator",
            file=sys.stderr,
        )
        return EXIT_SIZE
    # LinAlgError (EigensolverError too) is a ValueError, so it must be matched first
    for kind, code in ((np.linalg.LinAlgError, EXIT_NUMERIC), ((OSError, ValueError), EXIT_IO)):
        if isinstance(exc, kind):
            print(f"netspectra: {exc}", file=sys.stderr)
            return code
    raise exc


def _run(args) -> int:
    """Run one parsed command: ingest its input, compute, write each output
    behind a ``# manifest: <name>`` first line, then the manifest (or the
    ``--out`` file's sidecar), the summary line and the exit code."""
    started = time.time()
    try:
        inputs = [args.input] if hasattr(args, "input") else []
        result = args.func(args, _ingest(args) if inputs else None)
        command = f"generate {args.model}" if args.command == "generate" else args.command
        if hasattr(args, "out_dir"):
            dest = Path(args.out_dir)
            manifest = dest / _MANIFEST_NAME
        else:
            dest = Path(args.out)
            manifest = dest.with_name(dest.name + _SIDECAR_SUFFIX[args.command])
        manifest.parent.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, write in result.outputs.items():
            path = manifest.parent / name
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(f"# manifest: {manifest.name}\n")
                write(fh)
            paths.append(path)
        _write_manifest(manifest, command, args, started, paths, inputs, result.extra)
        print(f"{command}: {result.summary} -> {dest}")
        if result.failure:
            print(f"{command}: {result.failure}", file=sys.stderr)
            return EXIT_NUMERIC
        return EXIT_OK
    except Exception as exc:
        return _classify_error(exc)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a first word that is no option names the command; after an option
    # (help or version) the top level answers, with every command
    command = argv[0] if argv and not argv[0].startswith("-") else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    return _run(args)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
