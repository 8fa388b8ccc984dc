import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

DECLARED = {
    "spectrum_s": {"name": "spectrum_s", "unit": "s", "better": "lower", "bound": 0.25},
    "rate": {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
}


def side(spectrum_s, rate, correct=True):
    metrics = {"spectrum_s": {"value": spectrum_s}, "rate": {"value": rate}}
    return {"result": {"metrics": metrics, "correct": correct, "failed": 0}}


def pair(parent, change, columns=("j1/e.csv:re",), differences=None):
    return {"parent": parent, "change": change, "columns": list(columns),
            "differences": differences or {}}


def test_parse_seeds():
    assert bench_record.parse_seeds("901-903") == [901, 902, 903]
    assert bench_record.parse_seeds("1,5,9") == [1, 5, 9]


def test_summarize_counts_wins_by_direction_and_column_equality():
    columns = ["j1/e.csv:par", "j1/e.csv:re"]
    pairs = [
        pair(side(1.0, 10.0), side(0.5, 12.0), columns),
        pair(side(1.2, 10.0), side(0.6, 10.0), columns, {"j1/e.csv:par": 2e-15}),
        pair(side(1.1, 11.0), side(1.3, 9.0), columns),
    ]
    out = bench_record.summarize(pairs, DECLARED)
    t = out["metrics"]["spectrum_s"]
    assert (t["wins"], t["losses"], t["ties"]) == (2, 1, 0)
    assert t["parent"]["median"] == 1.1 and t["change"]["median"] == 0.6
    assert t["ratio"] == pytest.approx(0.6 / 1.1)
    assert t["parent"]["q1"] == pytest.approx(1.05) and t["parent"]["q3"] == pytest.approx(1.15)
    assert t["gap_exceeds_parent_iqr"] is True
    r = out["metrics"]["rate"]  # higher is better: a rise wins, equal ties
    assert (r["wins"], r["losses"], r["ties"]) == (1, 1, 1)
    # keyed by job and column, so one moved job does not hide behind others;
    # a column is equal in a pair exactly when it lists no difference
    assert out["digests_equal"] == {"j1/e.csv:par": False, "j1/e.csv:re": True}
    assert out["max_abs_diff"] == {"j1/e.csv:par": 2e-15}
    assert out["correct"] == {"parent": True, "change": True}


def test_run_order_interleaves_the_control_with_each_pair():
    assert bench_record.run_order(0) == ("parent", "change", "control")
    assert bench_record.run_order(1) == ("control", "change", "parent")
    assert bench_record.run_order(2) == bench_record.run_order(0)


def test_summarize_records_the_control_next_to_each_metric():
    runs = [(1.0, 0.5, 1.1), (1.2, 0.6, 1.0), (1.1, 1.3, 1.4), (0.9, 0.7, 0.8)]
    pairs = [pair(side(p, 10.0), side(c, 10.0)) | {"control": side(k, 10.0 * k)}
             for p, c, k in runs]
    pairs[2]["control"]["result"]["correct"] = False
    out = bench_record.summarize(pairs, DECLARED)
    t = out["metrics"]["spectrum_s"]
    assert t["control"]["runs"] == [1.1, 1.0, 1.4, 0.8]
    assert t["control"]["median"] == pytest.approx(1.05)
    assert t["control"]["q1"] == pytest.approx(0.95) and t["control"]["q3"] == pytest.approx(1.175)
    assert t["control_ratio"] == pytest.approx(1.05 / 1.05)
    assert out["metrics"]["rate"]["control_ratio"] == pytest.approx(10.5 / 10.0)
    # the bound and the pair counts still compare the change with the parent alone
    without = bench_record.summarize([{k: v for k, v in p.items() if k != "control"}
                                      for p in pairs], DECLARED)
    for name, metric in without["metrics"].items():
        assert {k: v for k, v in out["metrics"][name].items()
                if not k.startswith("control")} == metric
        assert "control" not in metric
    # per-pair ratios: change 0.5, 0.5, 1.18, 0.78 and control 1.1, 0.83, 1.27, 0.89
    assert t["pair_ratio"]["runs"] == pytest.approx([0.5, 0.5, 1.3 / 1.1, 0.7 / 0.9])
    assert t["pair_ratio"]["median"] == pytest.approx((0.5 + 0.7 / 0.9) / 2)
    assert t["control_pair_ratio"]["runs"] == pytest.approx([1.1, 1.0 / 1.2, 1.4 / 1.1, 0.8 / 0.9])
    assert t["control_pair_ratio"]["median"] == pytest.approx((0.8 / 0.9 + 1.1) / 2)
    assert t["control_iqr_clear"] is False  # the change's q3 is above the control's q1
    assert out["metrics"]["rate"]["control_iqr_clear"] is False
    assert out["correct"] == {"parent": True, "change": True, "control": False}
    assert out["failed"] == {"parent": 0, "change": 0, "control": 0}
    assert without["correct"] == {"parent": True, "change": True}


def test_pair_ratios_resolve_a_gain_beyond_the_control():
    # the change is 0.8 of its own pair's parent, the control within 5 %
    runs = [(1.0, 0.8, 1.02), (1.4, 1.12, 1.35), (0.9, 0.72, 0.92), (1.2, 0.96, 1.18)]
    pairs = [pair(side(p, 10.0 / p), side(c, 10.0 / c)) | {"control": side(k, 10.0 / k)}
             for p, c, k in runs]
    out = bench_record.summarize(pairs, DECLARED)
    t, r = out["metrics"]["spectrum_s"], out["metrics"]["rate"]
    assert t["pair_ratio"]["runs"] == pytest.approx([0.8] * 4)
    assert t["pair_ratio"]["iqr"] == pytest.approx(0.0, abs=1e-12)
    assert t["control_iqr_clear"] is True
    assert r["pair_ratio"]["median"] == pytest.approx(1.25)  # higher is better
    assert r["control_iqr_clear"] is True
    # the medians alone overlap: the parent's runs spread wider than the gain
    assert t["gap_exceeds_parent_iqr"] is False
    # a zero parent value has no ratio
    zero = [pair(side(0.0, 1.0), side(1.0, 1.0)) | {"control": side(1.0, 1.0)}]
    assert bench_record.summarize(zero, DECLARED)["metrics"]["spectrum_s"]["pair_ratio"] is None


def test_within_bound_follows_the_direction_of_each_metric():
    def within(spectrum_s, rate):
        pairs = [pair(side(1.0, 10.0), side(spectrum_s, rate))]
        metrics = bench_record.summarize(pairs, DECLARED)["metrics"]
        return metrics["spectrum_s"]["within_bound"], metrics["rate"]["within_bound"]

    # bound 0.25: lower is better allows a ratio up to 1.25, higher down to 0.75
    assert within(1.25, 7.5) == (True, True)
    assert within(1.3, 7.0) == (False, False)
    assert within(0.1, 100.0) == (True, True)


def test_column_cells_split_csv_columns(tmp_path):
    job = tmp_path / "job"
    job.mkdir()
    (job / "e.csv").write_text("# manifest: manifest.json\nre,par\n1,2\n3,4\n")
    (job / "g.edges").write_text("# nodes=2\n0 1\n")
    (job / "manifest.json").write_text(json.dumps({"outputs": {}}))
    cells = bench_record.column_cells([{"id": "j", "dir": str(job)}])
    assert cells == {"j/e.csv:par": ["2", "4"], "j/e.csv:re": ["1", "3"], "j/g.edges": ["0 1"]}


def test_column_differences_take_the_largest_numeric_change(tmp_path):
    def job(name, text, edges):
        d = tmp_path / name
        d.mkdir()
        (d / "e.csv").write_text("# manifest: manifest.json\n" + text)
        (d / "g.edges").write_text(edges)
        return [{"id": "j", "dir": str(d)}]

    a = bench_record.column_cells(job("a", "re,gamma,n\n1,inf,2\n0.5,1,3\n", "0 1\n"))
    b = bench_record.column_cells(job("b", "re,gamma,n\n1.25,2,2\n0.25,1,3\n", "0 2\n"))
    assert a["j/e.csv:re"] == ["1", "0.5"]
    diffs = bench_record.column_differences(a, b)
    # equal columns are left out; an inf on one side, or text, is not a number
    assert diffs == {"j/e.csv:re": 0.25, "j/e.csv:gamma": None, "j/g.edges": None}
    assert bench_record.column_differences(a, {**a, "j/e.csv:re": ["1"]}) == {"j/e.csv:re": None}

    pairs = [
        pair(side(1.0, 1.0), side(1.0, 1.0), ["j/x", "j/y", "j/z"], d)
        for d in ({"j/x": 1e-9, "j/y": 1.0}, {"j/x": 3e-9, "j/y": None})
    ]
    out = bench_record.summarize(pairs, DECLARED)
    assert out["max_abs_diff"] == {"j/x": 3e-9, "j/y": None}
    assert out["digests_equal"] == {"j/x": False, "j/y": False, "j/z": True}


def test_sorted_differences_read_a_row_swap_as_zero():
    a = {"j/e.csv:re": ["0.5", "-0.5", "0.25"], "j/e.csv:im": ["1", "2", "3"], "j/g": ["0 1"]}
    swapped = {**a, "j/e.csv:re": ["-0.5", "0.5", "0.25"]}
    moved = {**a, "j/e.csv:re": ["-0.5", "0.5", "0.125"], "j/g": ["0 2"]}
    assert bench_record.column_differences(a, swapped) == {"j/e.csv:re": 1.0}
    assert bench_record.column_differences(a, swapped, sort=True) == {"j/e.csv:re": 0.0}
    # a swap and a move: sorted, only the move is left; text is no number
    assert bench_record.column_differences(a, moved, sort=True) == {"j/e.csv:re": 0.125, "j/g": None}

    pairs = [
        {**pair(side(1.0, 1.0), side(1.0, 1.0), ["j/x", "j/y"], d), "sorted_differences": sd}
        for d, sd in (({"j/x": 1.0}, {"j/x": 0.0}), ({"j/x": 0.5, "j/y": 2e-9}, {"j/x": 1e-9, "j/y": 0.0}))
    ]
    out = bench_record.summarize(pairs, DECLARED)
    assert out["max_abs_diff"] == {"j/x": 1.0, "j/y": 2e-9}
    assert out["max_abs_diff_sorted"] == {"j/x": 1e-9, "j/y": 0.0}


def test_checkouts_are_siblings_holding_parent_commit_and_working_tree(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                       check=True, capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text(".bench_work/\n")
    (repo / "pkg").mkdir()
    (repo / "pkg" / "mod.py").write_text("x = 1\n")
    (repo / "gone.txt").write_text("committed\n")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (repo / "pkg" / "mod.py").write_text("x = 2\n")  # edited, not committed
    (repo / "pkg" / "new.py").write_text("y = 1\n")  # untracked
    (repo / "gone.txt").unlink()
    (repo / ".bench_work").mkdir()
    (repo / ".bench_work" / "out.json").write_text("{}")  # ignored

    parent, change = bench_record.checkouts(repo, "HEAD", tmp_path / "runs")
    assert parent.parent == change.parent == tmp_path / "runs"
    assert (parent / "pkg" / "mod.py").read_text() == "x = 1\n"
    assert (parent / "gone.txt").exists() and not (parent / "pkg" / "new.py").exists()
    assert (change / "pkg" / "mod.py").read_text() == "x = 2\n"
    assert (change / "pkg" / "new.py").exists() and not (change / "gone.txt").exists()
    assert not (change / ".bench_work").exists()
    control = bench_record.archive(repo, "HEAD", tmp_path / "runs" / "control")
    assert (control / "pkg" / "mod.py").read_text() == "x = 1\n"
    assert (control / "gone.txt").exists() and not (control / "pkg" / "new.py").exists()
