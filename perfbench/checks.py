"""Output checks with oracles of the benchmark's own.

Every check reads the files a job wrote and compares them with quantities
recomputed here from the input edge list (own parser, own ``scipy.sparse``
operator), never with netspectra's code.  ``check_job`` returns a list of
problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy import sparse

EIG_TOL = 1e-9  # the CLI's default residual contract, relative to ||G||_F
ZERO_MODE_CUTOFF = 1e-8  # the CLI's default --lambda-cutoff
SUM_TOL = 1e-9
PAGERANK_RESIDUAL_TOL = 1e-9


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_edges(path) -> tuple[int, np.ndarray, int]:
    """(declared node count, edges as an (E, 2) int array, number of
    ``# color`` lines) of an edge-list file."""
    n = None
    n_colors = 0
    body = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            if line.startswith("# nodes="):
                n = int(line[len("# nodes="):])
            elif line.startswith("# color "):
                n_colors += 1
        elif line.strip():
            body.append(line)
    edges = np.array(" ".join(body).split(), dtype=np.int64).reshape(-1, 2)
    if n is None:
        n = int(edges.max()) + 1 if edges.size else 0
    return n, edges, n_colors


def read_csv(path) -> tuple[list[str], list[str], np.ndarray]:
    """(comment lines, header fields, float rows) of a CSV output."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    comments = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if line and not line.startswith("#")]
    header = data[0].split(",")
    rows = np.array([row.split(",") for row in data[1:]], dtype=np.float64)
    return comments, header, rows.reshape(-1, len(header))


class Operator:
    """The damped operator ``G(alpha)`` built here from an edge list."""

    def __init__(self, n: int, edges: np.ndarray):
        self.n = n
        src, dst = edges[:, 0], edges[:, 1]
        out_deg = np.bincount(src, minlength=n)
        self.dangling = out_deg == 0
        self.s = sparse.csc_matrix(
            (1.0 / out_deg[src], (dst, src)), shape=(n, n)
        )  # duplicate pairs add up to their multiplicity

    def apply(self, alpha: float, p: np.ndarray) -> np.ndarray:
        shift = (alpha * p[self.dangling].sum() + (1.0 - alpha) * p.sum()) / self.n
        return alpha * (self.s @ p) + shift

    def trace(self, alpha: float) -> float:
        return (
            alpha * self.s.diagonal().sum()
            + alpha * self.dangling.sum() / self.n
            + (1.0 - alpha)
        )

    def frobenius(self, alpha: float) -> float:
        """``||G||_F`` column by column: a stored column j has
        ``alpha^2 sum_i S_ij^2 + 2 alpha c + N c^2`` with ``c = (1-alpha)/N``;
        a dangling column has ``N (alpha/N + c)^2``."""
        n, c = self.n, (1.0 - alpha) / self.n
        sq = np.asarray(self.s.multiply(self.s).sum(axis=0)).ravel()
        stored = alpha**2 * sq + 2 * alpha * c + n * c * c
        col = np.where(self.dangling, n * (alpha / n + c) ** 2, stored)
        return float(np.sqrt(col.sum()))


def check_manifest(directory: Path) -> list[str]:
    """Every output file is listed in the job's manifest with its digest."""
    directory = Path(directory)
    manifests = [p for p in directory.iterdir() if p.name.endswith(("manifest.json", "params.json"))]
    if len(manifests) != 1:
        return [f"{directory.name}: expected one manifest, found {len(manifests)}"]
    listed = json.loads(manifests[0].read_text())["outputs"]
    problems = []
    for path in sorted(directory.iterdir()):
        if path == manifests[0]:
            continue
        if listed.get(path.name) != sha256(path):
            problems.append(f"{path.name}: digest does not match the manifest")
    return problems


def _eigenvalues(path, n_expected) -> tuple[list[str], np.ndarray]:
    _, header, rows = read_csv(path)
    problems = []
    if rows.shape[0] != n_expected:
        problems.append(f"{Path(path).name}: {rows.shape[0]} rows, expected {n_expected}")
    if rows.shape[0] and (abs(rows[0, 0] - 1.0) > SUM_TOL or abs(rows[0, 1]) > SUM_TOL):
        problems.append(f"{Path(path).name}: leading eigenvalue {rows[0, 0]}+{rows[0, 1]}i is not 1")
    return problems, rows


def _full_spectrum(path, op: Operator, alpha: float) -> list[str]:
    problems, rows = _eigenvalues(path, op.n)
    if problems:
        return problems
    bound = EIG_TOL * op.frobenius(alpha)
    if rows[:, 5].max() > bound:
        problems.append(f"residual {rows[:, 5].max():.3e} exceeds tol*||G||_F = {bound:.3e}")
    expected = op.trace(alpha)
    total = complex(rows[:, 0].sum(), rows[:, 1].sum())
    if abs(total - expected) > SUM_TOL * op.n:
        problems.append(f"sum of eigenvalues {total} differs from tr G = {expected}")
    return problems


def check_spectrum(job: dict) -> list[str]:
    out = Path(job["dir"])
    op = Operator(*read_edges(job["input"])[:2])
    alpha = job["alpha"]
    problems = _full_spectrum(out / "eigenvalues.csv", op, alpha)
    if problems:
        return problems
    _, _, eig = read_csv(out / "eigenvalues.csv")
    zero = int((eig[:, 2] < ZERO_MODE_CUTOFF).sum())
    comments, _, dos = read_csv(out / "dos.csv")
    declared = [float(c.split("=")[1]) for c in comments if c.startswith("# zero_modes=")]
    if not declared or abs(declared[0] - zero / op.n) > SUM_TOL:
        problems.append(f"dos.csv zero_modes {declared} differs from {zero}/{op.n}")
    elif abs(dos[-1, 2] - (1.0 - declared[0])) > SUM_TOL:
        problems.append(f"dos.csv integrated ends at {dos[-1, 2]}, expected 1 - zero_modes")
    _, _, deg = read_csv(out / "degeneracy.csv")
    if int(deg[:, 2].sum()) != op.n:
        problems.append(f"degeneracy.csv multiplicities sum to {int(deg[:, 2].sum())}, not {op.n}")
    _, _, par = read_csv(out / "eigenvector_par.csv")
    if par.shape[0] != op.n - zero or np.any(par[:, 1] < 1 - SUM_TOL) or np.any(par[:, 1] > op.n):
        problems.append("eigenvector_par.csv: wrong row count or PAR outside [1, N]")
    return problems


def check_truncate(job: dict) -> list[str]:
    out = Path(job["dir"])
    op = Operator(*read_edges(job["input"])[:2])
    problems = _full_spectrum(out / "eigenvalues_full.csv", op, job["alpha"])
    for m in job["sizes"]:
        problems += _eigenvalues(out / f"eigenvalues_m{m}.csv", m)[0]
    return problems


def check_pagerank(job: dict) -> list[str]:
    op = Operator(*read_edges(job["input"])[:2])
    _, _, rows = read_csv(Path(job["dir"]) / "pagerank.csv")
    if rows.shape[0] != op.n or not np.array_equal(rows[:, 0], np.arange(op.n)):
        return [f"pagerank.csv: node ids are not 0..{op.n - 1}"]
    p = rows[:, 1]
    problems = []
    if p.min() < 0 or abs(p.sum() - 1.0) > SUM_TOL:
        problems.append(f"scores not a distribution: min {p.min()}, sum {p.sum()}")
    residual = float(np.abs(op.apply(job["alpha"], p) - p).sum())
    if residual > PAGERANK_RESIDUAL_TOL:
        problems.append(f"fixed-point residual ||Gp - p||_1 = {residual:.3e}")
    order = np.argsort(rows[:, 2])
    if not np.array_equal(np.sort(rows[:, 2]), np.arange(1, op.n + 1)) or np.any(np.diff(p[order]) > 0):
        problems.append("rank_position is not the descending order of the scores")
    return problems


def check_fidelity(job: dict) -> list[str]:
    _, header, rows = read_csv(Path(job["dir"]) / "fidelity.csv")
    f = rows[:, 1:]
    problems = []
    if [float(a) for a in header[1:]] != job["alphas"] or f.shape != (len(job["alphas"]),) * 2:
        problems.append("fidelity.csv: grid does not match the requested alphas")
    elif not np.array_equal(f, f.T):
        problems.append("fidelity grid is not symmetric")
    elif np.any(np.abs(np.diag(f) - 1.0) > SUM_TOL) or f.min() < 0 or f.max() > 1:
        problems.append("fidelity diagonal is not 1 or a value lies outside [0, 1]")
    return problems


def check_par_curve(job: dict) -> list[str]:
    n = read_edges(job["input"])[0]
    _, _, rows = read_csv(Path(job["dir"]) / "par_curve.csv")
    if rows[:, 0].tolist() != job["alphas"]:
        return ["par_curve.csv: alphas do not match the request"]
    if rows[:, 1].min() < 1 - SUM_TOL or rows[:, 1].max() > n:
        return [f"participation ratio outside [1, {n}]"]
    return []


def _degrees(n, edges):
    return np.bincount(edges[:, 0], minlength=n), np.bincount(edges[:, 1], minlength=n)


def _has_duplicates(n, edges) -> bool:
    keys = edges[:, 0] * n + edges[:, 1]
    return np.unique(keys).size != keys.size


def check_randomize(job: dict) -> list[str]:
    n_in, e_in, _ = read_edges(job["input"])
    n_out, e_out, _ = read_edges(Path(job["dir"]) / "graph.edges")
    if n_out != n_in or len(e_out) != len(e_in):
        return ["randomized graph has another node or edge count"]
    problems = []
    for label, a, b in zip(("out", "in"), _degrees(n_in, e_in), _degrees(n_out, e_out)):
        if not np.array_equal(a, b):
            problems.append(f"{label}-degree sequence changed")
    if _has_duplicates(n_out, e_out):
        problems.append("randomized graph has duplicate edges")
    return problems


def check_generate(job: dict) -> list[str]:
    n, edges, n_colors = read_edges(Path(job["dir"]) / "graph.edges")
    model = job["model"]
    if n != job["n"]:
        return [f"generated {n} nodes, expected {job['n']}"]
    problems = []
    if model in ("ab", "color") and (
        _has_duplicates(n, edges) or np.any(edges[:, 0] == edges[:, 1])
    ):
        problems.append(f"{model} graph is not simple")
    if model == "color" and n_colors != n:
        problems.append(f"{n_colors} color lines for {n} nodes")
    if model == "al":
        out_deg = np.bincount(edges[:, 0], minlength=n)[job["m"] + 1:]
        if np.any(out_deg != job["m"]):
            problems.append(f"al node out-degrees differ from m={job['m']}")
    return problems


def check_degree_dist(job: dict) -> list[str]:
    n, edges, _ = read_edges(job["input"])
    problems = []
    for direction, deg in zip(("out", "in"), _degrees(n, edges)):
        _, _, rows = read_csv(Path(job["dir"]) / f"degree_{direction}.csv")
        expected = np.bincount(deg)
        k = rows[:, 0].astype(np.int64)
        if not np.array_equal(rows[:, 1], expected[k]) or rows[:, 1].sum() != n:
            problems.append(f"degree_{direction}.csv counts differ from the edge list")
        elif abs(rows[0, 2] - 1.0) > SUM_TOL:
            problems.append(f"degree_{direction}.csv cumulative fraction does not start at 1")
    return problems


CHECKS = {
    "spectrum_s": check_spectrum,
    "truncate_spectrum_s": check_truncate,
    "pagerank_s": check_pagerank,
    "fidelity_s": check_fidelity,
    "par_curve_s": check_par_curve,
    "randomize_s": check_randomize,
    "generate_ab_s": check_generate,
    "generate_al_s": check_generate,
    "generate_color_s": check_generate,
    "degree_dist_s": check_degree_dist,
}


def check_job(job: dict) -> list[str]:
    """All problems with the files a job left in its directory."""
    spec = dict(job["check"], dir=job["dir"])
    try:
        return check_manifest(Path(job["dir"])) + CHECKS[spec["kind"]](spec)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
