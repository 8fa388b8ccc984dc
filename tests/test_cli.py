import dataclasses
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netspectra.cli import build_parser, main
from netspectra.genmodels import AbParams, AlParams, ColorParams
from netspectra.gmatrix import DEFAULT_ALPHA
from netspectra.ranking import PAGERANK_MAX_ITER, PAGERANK_TOL
from netspectra.spectra import (
    DEGENERACY_TOL,
    DOS_GAMMA_MAX,
    DOS_WINDOW,
    EIG_TOL,
    ZERO_MODE_CUTOFF,
    EigensolverError,
)


@pytest.fixture
def two_cycle_file(tmp_path):
    path = tmp_path / "two.edges"
    path.write_text("0 1\n1 0\n")
    return str(path)


@pytest.fixture
def k5_file(tmp_path):
    edges = [f"{i} {j}" for i in range(5) for j in range(5) if i != j]
    path = tmp_path / "k5.edges"
    path.write_text("\n".join(edges) + "\n")
    return str(path)


def read_csv_floats(path, cols=None):
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            parts = line.strip().split(",")
            try:
                rows.append([float(x) for x in parts])
            except ValueError:
                continue  # header
    return rows


class TestSpectrumCommand:
    def test_two_cycle_alpha_one(self, two_cycle_file, tmp_path):
        out = tmp_path / "out"
        code = main(["spectrum", two_cycle_file, "--alpha", "1.0", "--out-dir", str(out)])
        assert code == 0
        rows = read_csv_floats(out / "eigenvalues.csv")
        res = sorted(r[0] for r in rows)
        assert res[0] == pytest.approx(-1.0, abs=1e-10)
        assert res[1] == pytest.approx(1.0, abs=1e-10)
        for name in ("dos.csv", "degeneracy.csv", "eigenvector_par.csv", "manifest.json"):
            assert (out / name).exists()

    def test_two_cycle_alpha_085(self, two_cycle_file, tmp_path):
        out = tmp_path / "out"
        assert main(["spectrum", two_cycle_file, "--out-dir", str(out)]) == 0
        res = sorted(r[0] for r in read_csv_floats(out / "eigenvalues.csv"))
        assert res[0] == pytest.approx(-0.85, abs=1e-10)

    def test_missing_file_exit_1(self, tmp_path, capsys):
        code = main(["spectrum", str(tmp_path / "nope.edges")])
        assert code == 1
        assert capsys.readouterr().err != ""

    def test_memory_error_exit_2_with_hint(self, k5_file, tmp_path, capsys, monkeypatch):
        from netspectra import spectra

        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(spectra, "eigendecompose", out_of_memory)
        code = main(["spectrum", k5_file, "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            "netspectra: out of memory; truncate by rank to diagonalize a smaller operator\n"
        )

    @pytest.mark.parametrize(
        "argv", [["spectrum"], ["truncate-spectrum", "--sizes", "3"]], ids=["spectrum", "truncate"]
    )
    @pytest.mark.parametrize(
        "kind", [EigensolverError, np.linalg.LinAlgError], ids=["EigensolverError", "LinAlgError"]
    )
    def test_eigensolver_failure_exit_3(self, k5_file, tmp_path, capsys, monkeypatch, argv, kind):
        from netspectra import spectra

        def fail(*args, **kwargs):
            raise kind("QR iteration failed to converge (dgeev info 4)")

        monkeypatch.setattr(spectra, "eigendecompose", fail)
        out = tmp_path / "o"
        assert main([argv[0], k5_file, *argv[1:], "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == (
            "netspectra: QR iteration failed to converge (dgeev info 4)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv", [["spectrum"], ["truncate-spectrum", "--sizes", "3"]], ids=["spectrum", "truncate"]
    )
    def test_memory_preflight_exit_2_with_hint(self, k5_file, tmp_path, capsys, monkeypatch, argv):
        from netspectra import cli, spectra

        def never(*args, **kwargs):
            raise AssertionError("densified after the preflight refused")

        monkeypatch.setattr(spectra, "eigendecompose", never)
        # K5 needs 8 * 5 * (3 * 5 + 5) = 800 bytes for its own decomposition
        monkeypatch.setattr(cli, "_available_memory", lambda: 799)
        out = tmp_path / "o"
        assert main([argv[0], k5_file, *argv[1:], "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("netspectra: the dense path needs about ")
        assert err.endswith(" GiB are available; truncate by rank to diagonalize a smaller operator\n")
        assert not out.exists()

    @pytest.mark.parametrize("sizes", ["5", "5,4,3"])
    def test_truncation_preflight_is_the_spectrum_bound(self, k5_file, tmp_path, monkeypatch, sizes):
        from netspectra import cli

        # truncation keeps no eigenvectors, so K5's own 800 bytes bound every m <= 5
        for argv in (["spectrum"], ["truncate-spectrum", "--sizes", sizes]):
            for available, code in ((799, 2), (800, 0)):
                monkeypatch.setattr(cli, "_available_memory", lambda: available)
                out = tmp_path / f"o{available}"
                assert main([argv[0], k5_file, *argv[1:], "--out-dir", str(out)]) == code

    @pytest.mark.parametrize("sizes, bad", [("0", 0), ("6", 6), ("3,6", 6)])
    def test_sizes_outside_one_to_n_exit_1_before_dense_work(
        self, k5_file, tmp_path, capsys, monkeypatch, sizes, bad
    ):
        from netspectra import spectra

        def never(*args, **kwargs):
            raise AssertionError("diagonalized before the sizes were checked")

        monkeypatch.setattr(spectra, "eigendecompose", never)
        out = tmp_path / "o"
        assert main(["truncate-spectrum", k5_file, "--sizes", sizes, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"netspectra: sizes must lie in [1, 5], got {bad}\n"
        assert not out.exists()

    def test_memory_preflight_skipped_without_a_figure(self, k5_file, tmp_path, monkeypatch):
        from netspectra import cli

        monkeypatch.setattr(cli, "_MEMINFO", str(tmp_path / "absent"))
        monkeypatch.setattr(cli, "_PROC_CGROUP", str(tmp_path / "absent"))
        monkeypatch.setattr(cli, "_CGROUP_ROOTS", ((str(tmp_path / "absent"), "memory.max"),))
        assert cli._available_memory() is None
        assert main(["spectrum", k5_file, "--out-dir", str(tmp_path / "o")]) == 0

    def test_available_memory_capped_by_cgroup_limit(self, tmp_path, monkeypatch):
        from netspectra import cli

        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal:  8000 kB\nMemFree:  100 kB\nMemAvailable:  2048 kB\n")
        v2, v1 = tmp_path / "v2", tmp_path / "v1"
        v2.mkdir()
        v1.mkdir()
        (v2 / "memory.max").write_text("max\n")
        monkeypatch.setattr(cli, "_MEMINFO", str(meminfo))
        monkeypatch.setattr(cli, "_PROC_CGROUP", str(tmp_path / "absent"))
        monkeypatch.setattr(cli, "_CGROUP_ROOTS", ((str(v2), "memory.max"),))
        assert cli._available_memory() == 2048 * 1024
        (v1 / "memory.limit_in_bytes").write_text("1000000\n")
        roots = ((str(v2), "memory.max"), (str(v1), "memory.limit_in_bytes"))
        monkeypatch.setattr(cli, "_CGROUP_ROOTS", roots)
        assert cli._available_memory() == 1000000

    # a fake /proc/self/cgroup of a cgroup v2 host and of a v1 one
    @pytest.mark.parametrize(
        "version, proc",
        [(0, "0::/outer/inner\n"), (1, "5:cpu,cpuacct:/elsewhere\n4:memory:/outer/inner\n0::/\n")],
        ids=["v2", "v1"],
    )
    def test_available_memory_capped_by_nested_cgroup(self, tmp_path, monkeypatch, version, proc):
        from netspectra import cli

        roots = ((str(tmp_path / "v2"), "memory.max"), (str(tmp_path / "v1"), "memory.limit_in_bytes"))
        mount, name = roots[version]
        inner = Path(mount, "outer", "inner")
        inner.mkdir(parents=True)
        Path(mount, name).write_text("max\n" if version == 0 else "9223372036854771712\n")
        Path(mount, "outer", name).write_text("5000000\n")
        (inner / name).write_text("max\n" if version == 0 else "9223372036854771712\n")
        (tmp_path / "cgroup").write_text(proc)
        monkeypatch.setattr(cli, "_MEMINFO", str(tmp_path / "absent"))
        monkeypatch.setattr(cli, "_PROC_CGROUP", str(tmp_path / "cgroup"))
        monkeypatch.setattr(cli, "_CGROUP_ROOTS", roots)
        assert cli._available_memory() == 5000000
        (inner / name).write_text("3000000\n")
        assert cli._available_memory() == 3000000

    def test_available_memory_falls_back_to_the_root_limit(self, tmp_path, monkeypatch):
        from netspectra import cli

        (tmp_path / "v1").mkdir()
        (tmp_path / "v1" / "memory.limit_in_bytes").write_text("7000000\n")
        (tmp_path / "cgroup").write_text("4:memory:/not/mounted/here\n")
        monkeypatch.setattr(cli, "_MEMINFO", str(tmp_path / "absent"))
        monkeypatch.setattr(cli, "_PROC_CGROUP", str(tmp_path / "cgroup"))
        monkeypatch.setattr(cli, "_CGROUP_ROOTS", ((str(tmp_path / "v1"), "memory.limit_in_bytes"),))
        assert cli._available_memory() == 7000000

    def test_dropped_self_loop_keeps_its_node(self, tmp_path):
        path = tmp_path / "loop.edges"
        path.write_text("0 0\n")
        out = tmp_path / "o"
        assert main(["spectrum", str(path), "--drop-self-loops", "--out-dir", str(out)]) == 0
        assert (out / "eigenvalues.csv").read_text().endswith("re,im,abs,gamma,par,residual\n1,0,1,0,1,0\n")

    def test_malformed_input_exit_1(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 x\n")
        assert main(["spectrum", str(bad), "--out-dir", str(tmp_path / "o")]) == 1

    def test_outputs_reference_manifest(self, two_cycle_file, tmp_path):
        out = tmp_path / "out"
        main(["spectrum", two_cycle_file, "--out-dir", str(out)])
        first = (out / "eigenvalues.csv").read_text().splitlines()[0]
        assert first == "# manifest: manifest.json"


class TestPagerankCommand:
    def test_k5_uniform(self, k5_file, tmp_path):
        out = tmp_path / "out"
        assert main(["pagerank", k5_file, "--out-dir", str(out)]) == 0
        rows = read_csv_floats(out / "pagerank.csv")
        assert len(rows) == 5
        for node, score, pos in rows:
            assert score == pytest.approx(0.2, abs=1e-12)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["converged"] is True
        assert manifest["command"] == "pagerank"

    def test_non_convergence_exit_3(self, k5_file, tmp_path):
        # max-iter 1 cannot reach 1e-12 on a graph needing >1 step
        path = tmp_path / "chain.edges"
        path.write_text("0 1\n1 2\n2 0\n0 2\n")
        code = main(
            ["pagerank", str(path), "--max-iter", "1", "--out-dir", str(tmp_path / "o")]
        )
        assert code == 3


    def test_k5_exact_uniform_from_start_vector(self, k5_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["pagerank", k5_file, "--out-dir", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert [row[1] for row in read_csv_floats(out / "pagerank.csv")] == [0.2] * 5
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["iterations"] == 1
        assert manifest["error_bound"] == manifest["residual"] / (1 - 0.85)

    def test_alpha_zero_exact_uniform(self, tmp_path, capsys):
        # seven copies of 1/7 do not sum to exactly 1
        path = tmp_path / "g.edges"
        path.write_text("# nodes=7\n0 1\n1 2\n2 0\n3 0\n4 4\n")
        out = tmp_path / "out"
        assert main(["pagerank", str(path), "--alpha", "0", "--out-dir", str(out)]) == 0
        assert capsys.readouterr().err == ""
        scores = [row[1] for row in read_csv_floats(out / "pagerank.csv")]
        assert len(set(scores)) == 1 and abs(scores[0] - 1 / 7) <= np.spacing(1 / 7)

    @pytest.mark.parametrize("alpha", ["1", "0.85"])
    def test_budget_below_one_exit_1_writes_nothing(self, k5_file, tmp_path, capsys, alpha):
        out = tmp_path / "out"
        argv = ["pagerank", k5_file, "--alpha", alpha, "--max-iter", "0", "--out-dir", str(out)]
        assert main(argv) == 1
        assert "max_iter must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_alpha_one_has_no_error_bound(self, tmp_path):
        path = tmp_path / "chain.edges"
        path.write_text("0 1\n1 2\n2 0\n0 2\n")
        out = tmp_path / "out"
        assert main(["pagerank", str(path), "--alpha", "1", "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["converged"] is True and manifest["error_bound"] is None

    def test_absorbing_pages_converge_near_alpha_one(self, tmp_path):
        # two pages that link only to themselves make lambda_2 = alpha, so
        # power iteration needs more than the default 10,000 steps at 0.999
        rng = np.random.default_rng(1)
        src, dst = rng.integers(0, 800, 2998), rng.integers(0, 2000, 2998)
        lines = [f"{a} {b}\n" for a, b in zip(src.tolist(), dst.tolist())]
        path = tmp_path / "absorbing.edges"
        path.write_text("# nodes=2000\n" + "".join(lines) + "1998 1998\n1999 1999\n")
        out = tmp_path / "out"
        assert main(["pagerank", str(path), "--alpha", "0.999", "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["converged"] is True and manifest["residual"] <= 0.999e-12
        assert manifest["iterations"] < 200

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # the thread count takes effect only before numpy loads: subprocesses
        import netspectra

        src = Path(netspectra.__file__).resolve().parents[1]
        rng = np.random.default_rng(3)
        n = 12_000
        edges = np.unique(np.column_stack([rng.integers(0, n, 6 * n), rng.integers(0, n, 6 * n)]), axis=0)
        path = tmp_path / "big.edges"
        path.write_text(f"# nodes={n}\n" + "".join(f"{a} {b}\n" for a, b in edges.tolist()))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "netspectra.cli", "pagerank", str(path), "--alpha", "0.99",
                 "--out-dir", str(out)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "pagerank.csv").read_bytes())
        assert outputs[0] == outputs[1]


class TestFidelityCommand:
    def test_single_alpha_grid(self, k5_file, tmp_path):
        out = tmp_path / "out"
        assert main(["fidelity", k5_file, "--alphas", "0.85", "--out-dir", str(out)]) == 0
        lines = [
            l for l in (out / "fidelity.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert lines[0].split(",")[0] == "alpha"
        assert float(lines[0].split(",")[1]) == pytest.approx(0.85)
        assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-12)

    def test_reference_alpha_set(self, k5_file, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["fidelity", k5_file, "--alphas", "0.49,0.59,0.69,0.79,0.89,0.99",
             "--out-dir", str(out)]
        )
        assert code == 0
        rows = read_csv_floats(out / "fidelity.csv")
        assert len(rows) == 6 and len(rows[0]) == 7

    @pytest.mark.parametrize("alphas", ["", ",", " , "])
    def test_empty_alphas_usage_error(self, k5_file, tmp_path, capsys, alphas):
        out = tmp_path / "out"
        assert main(["fidelity", k5_file, "--alphas", alphas, "--out-dir", str(out)]) == 1
        assert "expected comma-separated floats" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "command, output", [("fidelity", "fidelity.csv"), ("par-curve", "par_curve.csv")]
)
def test_alpha_sweep_non_convergence_exit_3_after_writing(command, output, tmp_path, capsys):
    path = tmp_path / "chain.edges"
    path.write_text("0 1\n1 2\n2 0\n0 2\n")
    out = tmp_path / "out"
    argv = [command, str(path), "--alphas", "0.5,0.85", "--max-iter", "1", "--out-dir", str(out)]
    assert main(argv) == 3
    # one operator application certifies neither alpha on this irregular graph
    assert capsys.readouterr().err == f"{command}: alpha 0.5, 0.85 did not converge\n"
    assert (out / output).exists() and (out / "manifest.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["converged"] == [False, False]
    assert manifest["iterations"] == [1, 1]
    assert all(res > alpha * 1e-12 for res, alpha in zip(manifest["residual"], [0.5, 0.85]))


@pytest.mark.parametrize("command", ["fidelity", "par-curve"])
def test_alpha_sweep_manifest_records_each_solve(command, tmp_path):
    from netspectra.ranking import pagerank
    from netspectra.gmatrix import GoogleMatrix
    from netspectra.netcore import load_edge_list

    path = tmp_path / "g.edges"
    path.write_text("".join(f"{i} {(i * 7 + 3) % 40}\n{i} {(i + 1) % 40}\n" for i in range(40)))
    out = tmp_path / "out"
    alphas = [0.3, 0.85, 0.99]
    assert main([command, str(path), "--alphas", "0.3,0.85,0.99", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    graph = load_edge_list(str(path))
    ranks = [pagerank(GoogleMatrix.from_graph(graph, a)) for a in alphas]
    assert manifest["converged"] == [True] * 3
    assert manifest["iterations"] == [r.iterations for r in ranks]
    assert manifest["residual"] == [r.residual for r in ranks]
    assert all(res <= a * 1e-12 for res, a in zip(manifest["residual"], alphas))


class TestParCurveCommand:
    def test_k5_par_equals_n(self, k5_file, tmp_path):
        out = tmp_path / "out"
        assert main(["par-curve", k5_file, "--alphas", "0.5,0.85", "--out-dir", str(out)]) == 0
        rows = read_csv_floats(out / "par_curve.csv")
        for alpha, xi in rows:
            assert xi == pytest.approx(5.0, abs=1e-9)

    @pytest.mark.parametrize("alphas", ["", ","])
    def test_empty_alphas_usage_error(self, k5_file, tmp_path, capsys, alphas):
        out = tmp_path / "out"
        assert main(["par-curve", k5_file, "--alphas", alphas, "--out-dir", str(out)]) == 1
        assert "expected comma-separated floats" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("alpha", ["nan", "0", "1"])
def test_alpha_sweeps_reject_bad_alpha_alike(k5_file, tmp_path, capsys, alpha):
    errors = []
    for command in ("fidelity", "par-curve"):
        out = tmp_path / command
        assert main([command, k5_file, "--alphas", f"0.5,{alpha}", "--out-dir", str(out)]) == 1
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert errors[0] == errors[1] == (
        f"netspectra: alpha values must lie in (0, 1), got {float(alpha)}\n"
    )


class TestDegreeDistCommand:
    def test_writes_both_directions(self, two_cycle_file, tmp_path):
        out = tmp_path / "out"
        assert main(["degree-dist", two_cycle_file, "--out-dir", str(out)]) == 0
        for name in ("degree_in.csv", "degree_out.csv"):
            lines = (out / name).read_text().splitlines()
            assert "k,count,cumulative_fraction" in lines

    def test_id_beyond_int64_exit_1(self, tmp_path, capsys):
        src = tmp_path / "big.edges"
        src.write_text("0 99999999999999999999\n")
        assert main(["degree-dist", str(src), "--out-dir", str(tmp_path / "o")]) == 1
        assert "int64" in capsys.readouterr().err

    def test_missing_file_exit_1_loads_no_scipy(self, tmp_path):
        # a fresh interpreter, since this process has loaded scipy already
        import netspectra

        src = Path(netspectra.__file__).resolve().parents[1]
        probe = (
            "import sys; from netspectra.cli import main; "
            "code = main(['degree-dist', 'nope.edges']); "
            "print(code, 'scipy.linalg' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.stdout.split() == ["1", "False"], proc.stderr
        assert "nope.edges" in proc.stderr

    def test_modules_load_no_spatial_csgraph_or_sparse_linalg(self, tmp_path):
        # a fresh interpreter, since this process has loaded the oracles' scipy parts
        import netspectra

        src = Path(netspectra.__file__).resolve().parents[1]
        heavy = ["scipy.spatial", "scipy.sparse.csgraph", "scipy.sparse.linalg"]
        probe = (
            "import sys\n"
            "import netspectra.cli, netspectra.netcore, netspectra.gmatrix\n"
            "import netspectra.ranking, netspectra.spectra, netspectra.genmodels\n"
            f"print([m for m in {heavy!r} if m in sys.modules])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestGenerateCommand:
    def test_al_multigraph_out_degrees(self, tmp_path):
        out = tmp_path / "al.edges"
        code = main(["generate", "al", "--n", "64", "--m", "5", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        from netspectra.netcore import load_edge_list

        g = load_edge_list(str(out), dedupe=False)
        assert np.all(g.out_degrees() == 5)
        sidecar = json.loads((tmp_path / "al.edges.params.json").read_text())
        assert sidecar["seed"] == 7

    def test_color_writes_color_comments(self, tmp_path):
        out = tmp_path / "c.edges"
        code = main(["generate", "color", "--n", "32", "--m", "2", "--seed", "3",
                     "--epsilon", "0", "--out", str(out)])
        assert code == 0
        assert "# color 0 0" in out.read_text()

    def test_seed_required(self, tmp_path, capsys):
        code = main(["generate", "ab", "--n", "16", "--out", str(tmp_path / "x.edges")])
        assert code == 1

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        for path in (a, b):
            assert main(["generate", "ab", "--n", "64", "--seed", "11",
                         "--out", str(path)]) == 0
        assert a.read_text().replace("a.edges", "x") == b.read_text().replace("b.edges", "x")


class TestRandomizeCommand:
    def test_zero_swaps_identical_edges(self, tmp_path):
        src = tmp_path / "g.edges"
        src.write_text("# nodes=4\n0 1\n1 0\n2 3\n3 2\n")
        out = tmp_path / "r.edges"
        assert main(["randomize", str(src), "--swaps", "0", "--seed", "1",
                     "--out", str(out)]) == 0
        edge_lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert edge_lines == ["0 1", "1 0", "2 3", "3 2"]

    def test_negative_swaps_exit_1_writes_nothing(self, k5_file, tmp_path, capsys):
        out = tmp_path / "r.edges"
        assert main(["randomize", k5_file, "--swaps", "-3", "--seed", "1",
                     "--out", str(out)]) == 1
        assert "non-negative" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [Path(k5_file)]

    def test_degrees_preserved(self, tmp_path):
        from netspectra.netcore import load_edge_list

        src = tmp_path / "g.edges"
        edges = [f"{i} {(i + k) % 30}" for i in range(30) for k in (1, 7, 13)]
        src.write_text("\n".join(edges) + "\n")
        out = tmp_path / "r.edges"
        assert main(["randomize", str(src), "--seed", "5", "--out", str(out)]) == 0
        g0 = load_edge_list(str(src))
        g1 = load_edge_list(str(out))
        assert g0.in_degrees().tolist() == g1.in_degrees().tolist()
        assert g0.out_degrees().tolist() == g1.out_degrees().tolist()


class TestTruncateSpectrumCommand:
    def test_writes_per_size_files(self, tmp_path):
        path = tmp_path / "g.edges"
        edges = [f"{i} {(i + k) % 20}" for i in range(20) for k in (1, 3)]
        path.write_text("\n".join(edges) + "\n")
        out = tmp_path / "out"
        code = main(["truncate-spectrum", str(path), "--sizes", "20,10",
                     "--out-dir", str(out)])
        assert code == 0
        assert (out / "eigenvalues_full.csv").exists()
        assert (out / "eigenvalues_m20.csv").exists()
        assert (out / "eigenvalues_m10.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["hausdorff"]) == {"20", "10"}

    @pytest.mark.parametrize("sizes", ["", ","])
    def test_empty_sizes_usage_error(self, k5_file, tmp_path, capsys, sizes):
        out = tmp_path / "out"
        code = main(["truncate-spectrum", k5_file, "--sizes", sizes, "--out-dir", str(out)])
        assert code == 1
        assert "expected comma-separated integers" in capsys.readouterr().err
        assert not out.exists()


class TestReproducibility:
    def test_rerun_byte_identical_outputs(self, k5_file, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["spectrum", k5_file, "--out-dir", str(out)]) == 0
            outs.append(out)
        for csv in ("eigenvalues.csv", "dos.csv", "degeneracy.csv", "eigenvector_par.csv"):
            assert (outs[0] / csv).read_bytes() == (outs[1] / csv).read_bytes()
        m1 = json.loads((outs[0] / "manifest.json").read_text())
        m2 = json.loads((outs[1] / "manifest.json").read_text())
        m1.pop("wall_time_s"), m2.pop("wall_time_s")
        p1, p2 = m1.pop("parameters"), m2.pop("parameters")
        p1.pop("out_dir"), p2.pop("out_dir")
        assert m1 == m2 and p1 == p2


class TestIngestionFlags:
    def test_filter_min_outdegree_flag(self, tmp_path):
        # chain 0->1->2: node 2 is dropped, leaving a 2-node matrix
        path = tmp_path / "chain.edges"
        path.write_text("0 1\n1 2\n")
        out = tmp_path / "out"
        code = main(["pagerank", str(path), "--filter-min-outdegree",
                     "--out-dir", str(out)])
        assert code == 0
        assert len(read_csv_floats(out / "pagerank.csv")) == 2


BASE_MANIFEST_KEYS = {
    "schema_version", "tool", "tool_version", "command", "parameters", "seed",
    "input_digests", "outputs", "wall_time_s",
}
SPECTRUM_FILES = ["eigenvalues.csv", "dos.csv", "degeneracy.csv", "eigenvector_par.csv"]

# command -> (argv with GRAPH / OUT placeholders, manifest name, output files,
# extra top-level manifest keys)
# per-alpha solve records of the alpha sweeps
SWEEP_KEYS = {"converged", "iterations", "residual"}
MANIFEST_CASES = {
    "spectrum": (
        ["spectrum", "GRAPH", "--out-dir", "OUT"], "manifest.json", SPECTRUM_FILES,
        {"scc_blocks", "closed_classes", "repeated_columns", "repeated_rows", "classes_apart",
         "max_residual_rel"},
    ),
    "pagerank": (
        ["pagerank", "GRAPH", "--out-dir", "OUT"], "manifest.json", ["pagerank.csv"],
        {"iterations", "residual", "error_bound", "converged"},
    ),
    "fidelity": (
        ["fidelity", "GRAPH", "--alphas", "0.5,0.85", "--out-dir", "OUT"], "manifest.json",
        ["fidelity.csv"], SWEEP_KEYS,
    ),
    "par-curve": (
        ["par-curve", "GRAPH", "--alphas", "0.5,0.85", "--out-dir", "OUT"], "manifest.json",
        ["par_curve.csv"], SWEEP_KEYS,
    ),
    "degree-dist": (
        ["degree-dist", "GRAPH", "--out-dir", "OUT"], "manifest.json",
        ["degree_in.csv", "degree_out.csv"], {"mean_degree"},
    ),
    "randomize": (
        ["randomize", "GRAPH", "--seed", "2", "--out", "OUT/r.edges"], "r.edges.manifest.json",
        ["r.edges"], set(),
    ),
    "truncate-spectrum": (
        ["truncate-spectrum", "GRAPH", "--sizes", "12,6", "--out-dir", "OUT"], "manifest.json",
        ["eigenvalues_full.csv", "eigenvalues_m12.csv", "eigenvalues_m6.csv"],
        {"hausdorff", "scc_blocks", "closed_classes", "repeated_columns", "repeated_rows",
         "classes_apart", "max_residual_rel", "rank"},
    ),
    "generate ab": (
        ["generate", "ab", "--n", "40", "--m", "2", "--seed", "3", "--out", "OUT/g.edges"],
        "g.edges.params.json", ["g.edges"], set(),
    ),
    "generate color": (
        ["generate", "color", "--n", "40", "--m", "2", "--seed", "3", "--out", "OUT/g.edges"],
        "g.edges.params.json", ["g.edges"], set(),
    ),
    "generate al": (
        ["generate", "al", "--n", "40", "--m", "2", "--seed", "3", "--out", "OUT/g.edges"],
        "g.edges.params.json", ["g.edges"], set(),
    ),
}


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("command", list(MANIFEST_CASES))
def test_manifest_contract(command, tmp_path, capsys):
    argv, manifest_name, files, extra_keys = MANIFEST_CASES[command]
    graph = tmp_path / "g12.edges"
    graph.write_text("".join(f"{i} {(i + k) % 12}\n" for i in range(12) for k in (1, 5)))
    out = tmp_path / "out"
    argv = [a.replace("GRAPH", str(graph)).replace("OUT", str(out)) for a in argv]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(f"{command}: ")
    assert sorted(p.name for p in out.iterdir()) == sorted(files + [manifest_name])
    manifest = json.loads((out / manifest_name).read_text(), parse_constant=reject_constant)
    assert set(manifest) == BASE_MANIFEST_KEYS | extra_keys
    assert manifest["command"] == command
    # the 12-node circulant is one closed component, and so is each truncation
    one = {"spectrum": 1, "truncate-spectrum": {"full": 1, "12": 1, "6": 1}}.get(command)
    assert manifest.get("scc_blocks") == manifest.get("closed_classes") == one
    if command == "spectrum":  # the circulant's columns and rows are all distinct
        assert manifest["repeated_columns"] == manifest["repeated_rows"] == 0
    # one closed component is the whole matrix, so no class is solved apart
    zero = {"spectrum": 0, "truncate-spectrum": {"full": 0, "12": 0, "6": 0}}.get(command)
    assert manifest.get("classes_apart") == zero
    if command in ("spectrum", "truncate-spectrum"):
        worst = manifest["max_residual_rel"]
        for value in worst.values() if isinstance(worst, dict) else [worst]:
            assert 0.0 <= value <= 1e-9
    if command == "truncate-spectrum":
        assert manifest["rank"]["converged"] is True
        assert 0 < manifest["rank"]["iterations"] and manifest["rank"]["residual"] <= 1e-12
    assert manifest["outputs"] == {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in files
    }
    ingests = not command.startswith("generate")
    assert manifest["input_digests"] == (
        {str(graph): hashlib.sha256(graph.read_bytes()).hexdigest()} if ingests else {}
    )
    for name in files:
        first = (out / name).read_text().splitlines()[0]
        assert first == f"# manifest: {manifest_name}"


def assert_rank_at_alpha_one_is_the_limit(path, tmp_path):
    """``pagerank --alpha 1`` on the graph at ``path`` converges, to within
    1e-9 in L1 of the limit of the rank vector as alpha tends to 1."""
    from netspectra.netcore import load_edge_list

    from helpers import rank_limit

    out = tmp_path / "pagerank1"
    assert main(["pagerank", str(path), "--alpha", "1", "--out-dir", str(out)]) == 0
    scores = np.array([row[1] for row in read_csv_floats(out / "pagerank.csv")])
    assert np.abs(scores - rank_limit(load_edge_list(str(path)))).sum() <= 1e-9


def test_manifest_records_scc_blocks_at_alpha_one(tmp_path):
    from netspectra.netcore import load_edge_list
    from netspectra.spectra import truncated_spectrum_compare

    from helpers import closed_class_count, strong_components

    # closed {0, 1} and {5, 6, 7}; 2 -> 3 -> 4 -> 2 leaks into both; 8 -> 9
    # with 9 dangling, which links everything
    path = tmp_path / "blocks.edges"
    edges = [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (4, 0), (2, 5), (5, 6), (6, 7), (7, 5), (8, 9)]
    path.write_text("".join(f"{a} {b}\n" for a, b in edges))
    graph = load_edge_list(str(path))
    blocks = len(strong_components(graph))
    assert blocks == 4
    assert_rank_at_alpha_one_is_the_limit(path, tmp_path)
    # every alpha diagonalizes S in block order
    for alpha in ("1", "0.85"):
        out = tmp_path / f"spectrum{alpha}"
        assert main(["spectrum", str(path), "--alpha", alpha, "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["scc_blocks"], manifest["closed_classes"]) == (blocks, 2)
    for alpha in ("1", "0.85"):
        out = tmp_path / f"truncate{alpha}"
        # at alpha 1 the rank vector converges too, though the closed
        # cycles are periodic
        assert main(["truncate-spectrum", str(path), "--alpha", alpha, "--sizes", "8,4",
                     "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        blocks_m, closed_m = {"full": blocks}, {"full": 2}
        for res in truncated_spectrum_compare(graph, float(alpha), [8, 4]).results:
            inside = np.isin(graph.edges, res.kept).all(axis=1)
            sub = dataclasses.replace(
                graph, n_nodes=res.m, edges=np.searchsorted(res.kept, graph.edges[inside])
            )
            blocks_m[str(res.m)] = len(strong_components(sub))
            closed_m[str(res.m)] = closed_class_count(sub)
        assert manifest["scc_blocks"] == blocks_m
        assert manifest["closed_classes"] == closed_m


def test_manifest_records_classes_apart_and_the_largest_residual(tmp_path):
    from netspectra.gmatrix import GoogleMatrix
    from netspectra.netcore import load_edge_list
    from netspectra.spectra import operator_spectrum, truncated_spectrum_compare

    from helpers import closed_classes

    # closed {0, 1} and {5, 6, 7}, both small beside the five other nodes
    path = tmp_path / "blocks.edges"
    edges = [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (4, 0), (2, 5), (5, 6), (6, 7), (7, 5), (8, 9)]
    path.write_text("".join(f"{a} {b}\n" for a, b in edges))
    graph = load_edge_list(str(path))
    assert len(closed_classes(graph)) == 2
    assert_rank_at_alpha_one_is_the_limit(path, tmp_path)
    for alpha in ("1", "0.85"):
        out = tmp_path / f"spectrum{alpha}"
        assert main(["spectrum", str(path), "--alpha", alpha, "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["classes_apart"] == 2
        # the complex residual of every eigenvector on G in node order
        g = GoogleMatrix.from_graph(graph, float(alpha))
        matrix, spec = g.to_dense(), operator_spectrum(g)
        vecs = spec.eigenvectors
        worst = np.linalg.norm(matrix @ vecs - vecs * spec.eigenvalues, axis=0).max()
        assert manifest["max_residual_rel"] == pytest.approx(
            worst / np.linalg.norm(matrix, "fro"), rel=0.5, abs=1e-16
        )
        out = tmp_path / f"truncate{alpha}"
        # at alpha 1 the rank vector converges too, though the closed
        # cycles are periodic
        assert main(["truncate-spectrum", str(path), "--alpha", alpha, "--sizes", "8,4",
                     "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        cmp = truncated_spectrum_compare(graph, float(alpha), [8, 4])
        assert manifest["classes_apart"] == {"full": 2, **{str(r.m): r.spectrum.apart for r in cmp.results}}
        assert set(manifest["max_residual_rel"]) == {"full", "8", "4"}
        assert all(0.0 <= v <= 1e-9 for v in manifest["max_residual_rel"].values())


def test_truncation_on_an_unconverged_rank_vector_exits_3(tmp_path, capsys, monkeypatch):
    from netspectra import ranking, spectra

    # power iteration on 0 <-> {1, 2} oscillates at alpha 1, but the rank
    # vector converges; one operator application is too few
    path = tmp_path / "bipartite.edges"
    path.write_text("0 1\n0 2\n1 0\n2 0\n")
    assert_rank_at_alpha_one_is_the_limit(path, tmp_path)
    argv = ["pagerank", str(path), "--alpha", "1", "--max-iter", "1", "--out-dir", str(tmp_path / "pr")]
    assert main(argv) == 3
    capsys.readouterr()
    # truncate-spectrum has no budget flag: its rank function gets one
    monkeypatch.setattr(spectra, "pagerank", lambda g: ranking.pagerank(g, max_iter=1))
    out = tmp_path / "out"
    code = main(["truncate-spectrum", str(path), "--alpha", "1", "--sizes", "2", "--out-dir", str(out)])
    assert code == 3
    assert capsys.readouterr().err == "truncate-spectrum: rank iteration did not reach tolerance\n"
    # the outputs are written all the same, and the manifest says why it failed
    assert (out / "eigenvalues_full.csv").exists() and (out / "eigenvalues_m2.csv").exists()
    rank = json.loads((out / "manifest.json").read_text())["rank"]
    assert rank["converged"] is False and rank["iterations"] == 1
    assert rank["residual"] == pytest.approx(2 / 3)


def test_repeated_size_exits_1_before_dense_work(k5_file, tmp_path, capsys, monkeypatch):
    from netspectra import spectra

    def never(*args, **kwargs):
        raise AssertionError("diagonalized before the sizes were checked")

    monkeypatch.setattr(spectra, "eigendecompose", never)
    monkeypatch.setattr(spectra, "pagerank", never)
    out = tmp_path / "o"
    assert main(["truncate-spectrum", k5_file, "--sizes", "3,2,3", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "netspectra: sizes must not repeat, got 3 more than once\n"
    assert not out.exists()


def test_manifest_records_repeated_columns(tmp_path):
    from netspectra.netcore import load_edge_list
    from netspectra.spectra import truncated_spectrum_compare

    from helpers import lumped_columns, repeated_columns, repeated_rows_at_least

    # 2, 3 and 4 link to 0 alone, 5 and 6 to {1, 2}; 7 and 8 are dangling.
    # The closed cycle {0, 1, 2} is solved apart, so on the rest 3 to 6
    # have zero columns, which are not lumped, and only 8 repeats 7; the
    # rows of 3, 4, 5, 6 and 9, which only 7 and 8 link to, repeat
    path = tmp_path / "repeated.edges"
    edges = [(0, 1), (1, 2), (2, 0), (3, 0), (4, 0), (5, 1), (5, 2), (6, 1), (6, 2), (9, 7)]
    path.write_text("# nodes=10\n" + "".join(f"{a} {b}\n" for a, b in edges))
    graph = load_edge_list(str(path))
    assert repeated_columns(graph) == 4
    assert lumped_columns(graph) == 1 and repeated_rows_at_least(graph) == 4
    assert_rank_at_alpha_one_is_the_limit(path, tmp_path)
    for alpha in ("1", "0.85"):
        out = tmp_path / f"spectrum{alpha}"
        assert main(["spectrum", str(path), "--alpha", alpha, "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["repeated_columns"] == 1 and manifest["repeated_rows"] >= 4
        out = tmp_path / f"truncate{alpha}"
        # at alpha 1 the rank vector converges too, though the closed
        # cycles are periodic
        assert main(["truncate-spectrum", str(path), "--alpha", alpha, "--sizes", "8,4",
                     "--out-dir", str(out)]) == 0
        expected = {"full": 1}
        for res in truncated_spectrum_compare(graph, float(alpha), [8, 4]).results:
            inside = np.isin(graph.edges, res.kept).all(axis=1)
            sub = dataclasses.replace(
                graph, n_nodes=res.m, edges=np.searchsorted(res.kept, graph.edges[inside])
            )
            expected[str(res.m)] = lumped_columns(sub)
        assert json.loads((out / "manifest.json").read_text())["repeated_columns"] == expected


def test_manifest_with_a_non_finite_value_is_not_written(tmp_path, capsys, monkeypatch):
    from netspectra import cli

    def nan_extra(args, graph):
        return cli._Result({"degree_in.csv": lambda fh: None}, "x", extra={"mean_degree": np.nan})

    monkeypatch.setattr(cli, "cmd_degree_dist", nan_extra)
    path = tmp_path / "g.edges"
    path.write_text("0 1\n")
    out = tmp_path / "out"
    assert main(["degree-dist", str(path), "--out-dir", str(out)]) == 1
    assert "not JSON compliant" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


# every float flag -> (argv before the flag, values outside its domain);
# "--alphas" is checked by the library, every other flag by its parser type
GENERATE_ARGV = ["--n", "40", "--seed", "1", "--out", "OUT/g.edges"]
NON_FINITE = ["nan", "inf", "-1"]
FLOAT_FLAGS = {
    **{
        ("spectrum", flag): (["spectrum", "GRAPH", "--out-dir", "OUT"], bad)
        for flag, bad in (
            ("--alpha", NON_FINITE), ("--tol", NON_FINITE + ["0"]),
            ("--window", NON_FINITE + ["0"]), ("--gamma-max", NON_FINITE + ["0"]),
            ("--degeneracy-tol", NON_FINITE + ["0"]), ("--lambda-cutoff", NON_FINITE),
        )
    },
    ("pagerank", "--alpha"): (["pagerank", "GRAPH", "--out-dir", "OUT"], NON_FINITE),
    ("pagerank", "--tol"): (["pagerank", "GRAPH", "--out-dir", "OUT"], NON_FINITE + ["0"]),
    **{
        (command, flag): ([command, "GRAPH", "--alphas", "0.5", "--out-dir", "OUT"], NON_FINITE + ["0"])
        for command in ("fidelity", "par-curve")
        for flag in ("--alphas", "--tol")
    },
    **{
        ("truncate-spectrum", flag): (
            ["truncate-spectrum", "GRAPH", "--sizes", "4", "--out-dir", "OUT"], bad
        )
        for flag, bad in (("--alpha", NON_FINITE), ("--tol", NON_FINITE + ["0"]))
    },
    **{
        (f"generate {model}", flag): (["generate", model, *GENERATE_ARGV], NON_FINITE)
        for model, flags in (("ab", ("--p", "--q")), ("color", ("--p", "--q", "--eta", "--epsilon")))
        for flag in flags
    },
}


def test_float_flag_table_covers_every_float_flag():
    parser = build_parser()
    found = set()
    for command, sub in parser._subparsers._group_actions[0].choices.items():
        models = sub._subparsers._group_actions[0].choices if command == "generate" else {"": sub}
        for model, p in models.items():
            for action in p._actions:
                if isinstance(action.default, float) or action.dest == "alphas":
                    found.add((f"{command} {model}".strip(), action.option_strings[0]))
    assert found == set(FLOAT_FLAGS)


@pytest.mark.parametrize(
    "command, flag, value",
    [(c, f, v) for (c, f), (_, bad) in FLOAT_FLAGS.items() for v in bad],
)
def test_float_flag_out_of_domain_exit_1_writes_nothing(command, flag, value, k5_file, tmp_path, capsys):
    prefix, _ = FLOAT_FLAGS[(command, flag)]
    out = tmp_path / "out"
    argv = [a.replace("GRAPH", k5_file).replace("OUT", str(out)) for a in prefix]
    if flag == "--alphas":
        argv[argv.index("--alphas") + 1] = value
    else:
        argv += [flag, value]
    assert main(argv) == 1
    err = capsys.readouterr().err
    if flag == "--alphas":
        assert f"alpha values must lie in (0, 1), got {float(value)}" in err
    else:
        assert f"argument {flag}: must be " in err and repr(value) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "module", ["netcore", "gmatrix", "ranking", "spectra", "genmodels", "cli"]
)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"netspectra.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


class TestLazyPackageApi:
    def test_submodules_reachable_as_attributes(self):
        import netspectra

        assert netspectra.gmatrix.DEFAULT_ALPHA == 0.85
        assert callable(netspectra.ranking.pagerank_power)
        with pytest.raises(AttributeError):
            netspectra.not_a_module


def field_defaults(cls, *names):
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    return {name: defaults[name] for name in names}


GENERATE = ["--n", "10", "--seed", "1", "--out", "g.edges"]
RANK_DEFAULTS = {"tol": PAGERANK_TOL, "max_iter": PAGERANK_MAX_ITER}
# argv -> {dest: the library default the parser must repeat}; the parser
# cannot import the scipy-backed modules that define them
LIBRARY_DEFAULTS = {
    ("spectrum", "g"): {
        "alpha": DEFAULT_ALPHA, "tol": EIG_TOL, "window": DOS_WINDOW,
        "gamma_max": DOS_GAMMA_MAX, "degeneracy_tol": DEGENERACY_TOL,
        "lambda_cutoff": ZERO_MODE_CUTOFF,
    },
    ("truncate-spectrum", "g", "--sizes", "2"): {"alpha": DEFAULT_ALPHA, "tol": EIG_TOL},
    ("pagerank", "g"): {"alpha": DEFAULT_ALPHA, **RANK_DEFAULTS},
    ("fidelity", "g", "--alphas", "0.5"): RANK_DEFAULTS,
    ("par-curve", "g", "--alphas", "0.5"): RANK_DEFAULTS,
    ("generate", "ab", *GENERATE): field_defaults(AbParams, "m", "p", "q"),
    ("generate", "color", *GENERATE): {
        **field_defaults(AbParams, "m", "p", "q"),
        **field_defaults(ColorParams, "eta", "epsilon", "initial_colors"),
    },
    ("generate", "al", *GENERATE): field_defaults(AlParams, "m"),
}


@pytest.mark.parametrize(
    "argv, dest, expected",
    [
        pytest.param(list(argv), dest, value, id=f"{' '.join(argv[:2])}:{dest}")
        for argv, defaults in LIBRARY_DEFAULTS.items()
        for dest, value in defaults.items()
    ],
)
def test_cli_defaults_match_library(argv, dest, expected):
    assert getattr(build_parser().parse_args(argv), dest) == expected


class TestUsage:
    def test_no_command_exit_1(self, capsys):
        assert main([]) == 1

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "netspectra" in capsys.readouterr().out


COMMANDS = ["spectrum", "pagerank", "fidelity", "par-curve", "degree-dist", "randomize",
            "generate", "truncate-spectrum"]
PARSE_CASES = [
    [], ["--help"], ["--version"], ["nope"], ["-x"],
    *([c, *rest] for c in COMMANDS for rest in ([], ["--help"], ["g", "--bogus"], ["g", "--tol", "nan"])),
    *(["generate", m, *rest] for m in ("ab", "color", "al") for rest in ([], ["--help"], ["--n", "x"])),
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_parser_text_equals_the_fully_built_parser(argv, capsys):
    # main adds arguments only to the command it parses; help, usage and
    # error text must be byte for byte those of the parser with them all
    def full(argv):
        try:
            build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        return None

    expected_code = full(argv)
    expected = capsys.readouterr()
    assert expected_code is not None and (expected.out or expected.err)
    assert main(argv) == expected_code
    assert capsys.readouterr() == expected


def test_main_builds_a_parser_per_call_with_only_its_command(monkeypatch, tmp_path):
    from netspectra import cli

    built = []
    build = cli.build_parser

    def recorded(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", recorded)
    path = tmp_path / "g.edges"
    path.write_text("0 1\n1 0\n")
    for _ in range(2):
        assert main(["degree-dist", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    assert main(["--version"]) == 0
    assert built == ["degree-dist", "degree-dist", None]

    def choices(command=None):
        return build(command)._subparsers._group_actions[0].choices

    # no other command is registered; an unknown one gets them all, so the
    # error lists every choice
    assert list(choices("spectrum")) == ["spectrum"]
    assert "alpha" in [a.dest for a in choices("spectrum")["spectrum"]._actions]
    assert len(choices()) == 8 and list(choices("nope")) == list(choices())
