"""Record alternating parent/change pairs of the benchmark into one JSON file.

Run from the repository root::

    python3 tools/bench_record.py --parent HEAD --seeds 901-910 --out BENCH_<n>.json

Each pair runs ``perfbench/run.py --trace 0`` once on the parent commit and
once on the working tree, for every workload in ``--workloads``; odd pairs
run the parent first, even pairs the change.  Each pair also holds a
control run: the parent once more, from a second copy, last in odd pairs
and first in even ones, so that the parent and its control form a
parent-against-parent pair interleaved with the real ones.  All sides run
from sibling directories of one temporary directory (removed afterwards):
the parent and the control from ``git archive`` of its commit, the change
from a copy of the working tree's tracked and unignored files.  Where a
side runs from can move whole workloads by several per cent, so none runs
from the repository itself.  All sides run the same benchmark settings
from ``BENCHMARK.json``.

The output holds, per workload: the seeds and the side that ran first in
each pair; per end-to-end metric, each side's runs, median and quartiles,
the ratio of the medians (change over parent), whether that ratio is
within the metric's bound (at most ``1 + bound`` when lower is better, at
least ``1 - bound`` when higher is better), the pairs the change won, lost
and tied, and whether the gap between the medians exceeds the parent's
interquartile range; next to those, the control's runs, median and
quartiles and the control ratio (control over parent), which shows how
far the host drifted between two runs of the same code while the pairs
were recorded (the bounds ignore it); the ratios change over parent and
control over parent taken pair by pair, with their median and quartiles,
and whether the change's interquartile range of those lies clear of the
control's on the better side; whether every run was correct; and, per
output column of each job (``<job id>/<file>:<column>`` for a CSV file with a
header row, ``<job id>/<file>`` for any other non-JSON output), whether the
bytes were equal on both sides in every pair and, for a column that
differed, the largest absolute difference between the two sides' numbers
in any pair, row by row (``max_abs_diff``) and with each side's numbers
sorted first (``max_abs_diff_sorted``, which reads 0 for rows that only
swapped places).  The environment block of the first change run
is copied in.  Workloads already recorded in ``--out`` against the same
parent are kept, so workloads can be recorded one run at a time.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``"901-910"`` or ``"1,5,9"``."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


SIDES = ("parent", "change", "control")


def run_order(i: int) -> tuple[str, ...]:
    """The sides of pair ``i`` in the order they run: the parent before the
    change and the control last in even pairs, all reversed in odd ones."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def archive(root: Path, rev: str, dest: Path) -> Path:
    """Write commit ``rev`` of the repository at ``root`` into ``dest``."""
    tar_bytes = subprocess.run(["git", "archive", "--format=tar", rev], cwd=root,
                               capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar_bytes)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def checkouts(root: Path, rev: str, into: Path) -> tuple[Path, Path]:
    """Write the parent (commit ``rev`` of the repository at ``root``) and
    the change (the working tree's tracked and unignored files) into the
    sibling directories ``into/parent`` and ``into/change``."""
    parent, change = archive(root, rev, into / "parent"), into / "change"
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, capture_output=True, check=True,
    ).stdout.decode().split("\0")
    for name in filter(None, listed):
        if (root / name).is_file():  # a tracked file may be deleted in the tree
            (change / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, change / name)
    return parent, change


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; returns its two JSON lines and its jobs, whose
    outputs stay in the checkout until the next run of the workload."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    work = checkout / ".bench_work" / f"{workload}-trace0"
    jobs = json.loads((work / "config.json").read_text())["jobs"]
    return {"detail": detail, "result": result, "jobs": jobs}


def column_cells(jobs) -> dict[str, list[str]]:
    """``{<job id>/<file>:<column>: cells}`` for each column of a CSV output
    with a header row, ``{<job id>/<file>: lines}`` for any other non-JSON
    output; comment lines are left out."""
    columns = {}
    for job in jobs:
        for path in sorted(Path(job["dir"]).iterdir()):
            if path.suffix == ".json" or not path.is_file():
                continue
            lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
            if path.suffix == ".csv" and lines:
                rows = [ln.split(",") for ln in lines[1:]]
                for k, name in enumerate(lines[0].split(",")):
                    columns[f"{job['id']}/{path.name}:{name}"] = [row[k] for row in rows]
            else:
                columns[f"{job['id']}/{path.name}"] = lines
    return columns


def column_differences(a: dict, b: dict, sort: bool = False) -> dict[str, float | None]:
    """For each key whose cells differ between two :func:`column_cells`
    results, the largest absolute difference between the numbers in one
    row; None when a cell is not a number, the row counts differ or the
    difference is not finite (an ``inf`` on one side only).  With ``sort``,
    each side's numbers are sorted first, so rows that only swapped places
    (such as lambda and -lambda of equal modulus) differ by 0."""
    out = {}
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key), b.get(key)
        if x == y:
            continue
        worst = None
        if x is not None and y is not None and len(x) == len(y):
            try:
                rows = zip(sorted(map(float, x)), sorted(map(float, y))) if sort else zip(x, y)
                worst = max((abs(float(u) - float(v)) for u, v in rows if u != v), default=0.0)
            except ValueError:
                pass
        out[key] = worst if worst is not None and worst < float("inf") else None
    return out


def side_stats(values: list[float]) -> dict:
    q1, _, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"runs": values, "median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def pair_ratios(side: list[float], parent: list[float]) -> dict | None:
    """:func:`side_stats` of ``side / parent`` pair by pair (None when a
    parent value is 0)."""
    return side_stats([s / p for s, p in zip(side, parent)]) if all(parent) else None


def summarize(pairs: list[dict], declared: dict) -> dict:
    """Per-metric statistics and per-column equality of one workload."""
    metrics = {}
    for name, spec in declared.items():
        par = [p["parent"]["result"]["metrics"][name]["value"] for p in pairs]
        chg = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
        losses = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
        ps, cs = side_stats(par), side_stats(chg)
        ratio = cs["median"] / ps["median"] if ps["median"] else None
        paired = pair_ratios(chg, par)
        control = {}
        if "control" in pairs[0]:
            values = [p["control"]["result"]["metrics"][name]["value"] for p in pairs]
            ctl, ctl_paired = side_stats(values), pair_ratios(values, par)
            control = {
                "control": ctl,
                "control_ratio": ctl["median"] / ps["median"] if ps["median"] else None,
                "control_pair_ratio": ctl_paired,
                # the change's ratios lie clear of the control's: its worse
                # quartile beyond the control's better one
                "control_iqr_clear": None if paired is None or ctl_paired is None else (
                    paired["q3"] < ctl_paired["q1"] if sign > 0 else paired["q1"] > ctl_paired["q3"]
                ),
            }
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": ps,
            "change": cs,
            "ratio": ratio,
            "within_bound": None if ratio is None else (
                ratio <= 1 + spec["bound"] if sign > 0 else ratio >= 1 - spec["bound"]
            ),
            "wins": wins,
            "losses": losses,
            "ties": len(pairs) - wins - losses,
            "gap_exceeds_parent_iqr": abs(cs["median"] - ps["median"]) > ps["iqr"],
            "pair_ratio": paired,
        } | control
    equal: dict[str, bool] = {}
    moved: dict[str, dict[str, float | None]] = {"differences": {}, "sorted_differences": {}}
    for p in pairs:
        for key in p["columns"]:  # equal in a pair exactly when no difference is listed
            equal[key] = equal.get(key, True) and key not in p["differences"]
        for field, worst in moved.items():
            for key, diff in p.get(field, {}).items():
                known = worst.get(key, 0.0)
                worst[key] = None if diff is None or known is None else max(known, diff)
    sides = [side for side in SIDES if side in pairs[0]]
    return {
        "metrics": metrics,
        "correct": {side: all(p[side]["result"]["correct"] for p in pairs) for side in sides},
        "failed": {side: sum(p[side]["result"]["failed"] for p in pairs) for side in sides},
        "digests_equal": dict(sorted(equal.items())),
        "max_abs_diff": dict(sorted(moved["differences"].items())),
        "max_abs_diff_sorted": dict(sorted(moved["sorted_differences"].items())),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="parent commit (default HEAD)")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help='"901-910" or "1,5,9"')
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    parser.add_argument("--out", required=True, help="output JSON file")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    rev = subprocess.run(
        ["git", "rev-parse", args.parent], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    record = {
        "parent": rev,
        "change": "working tree",
        "command": bench["command"],
        "seconds": bench["run_seconds"],
        "workloads": {},
    }
    out = Path(args.out)
    if out.exists():  # keep the other workloads recorded against the same parent
        kept = json.loads(out.read_text())
        if kept.get("parent") == rev:
            record["workloads"] = kept["workloads"]
            record["environment"] = kept["environment"]
    with tempfile.TemporaryDirectory() as tmp:
        dirs = dict(zip(("parent", "change"), checkouts(ROOT, rev, Path(tmp))))
        dirs["control"] = archive(ROOT, rev, Path(tmp) / "control")
        for name in names:
            pairs, order = [], []
            for i, seed in enumerate(args.seeds):
                sides = run_order(i)
                pair = {}
                for side in sides:
                    pair[side] = run_bench(dirs[side], name, seed, bench["run_seconds"])
                    rss = pair[side]["result"]["metrics"]["peak_rss_mb"]["value"]
                    print(f"{name} seed {seed} {side}: peak_rss_mb {rss:.2f}", file=sys.stderr)
                # every side's outputs of this pair are still in its checkout
                del pair["control"]["jobs"]
                a, b = (column_cells(pair[side].pop("jobs")) for side in ("parent", "change"))
                pair["columns"] = sorted(a.keys() | b.keys())
                pair["differences"] = column_differences(a, b)
                pair["sorted_differences"] = column_differences(a, b, sort=True)
                pairs.append(pair)
                order.append(sides[0])
                record.setdefault("environment", pairs[0]["change"]["detail"]["environment"])
                # rewritten after every pair, so a cut run keeps what it measured
                record["workloads"][name] = {
                    "seeds": args.seeds[: i + 1], "first": order
                } | summarize(pairs, declared)
                out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
