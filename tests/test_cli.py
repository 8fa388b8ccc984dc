import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netspectra.cli import main


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

    def test_over_dense_limit_exit_2(self, k5_file, tmp_path, capsys):
        code = main(
            ["spectrum", k5_file, "--dense-limit", "3", "--out-dir", str(tmp_path / "o")]
        )
        assert code == 2
        assert "truncate" in capsys.readouterr().err

    def test_memory_error_exit_2_with_hint(self, k5_file, tmp_path, capsys, monkeypatch):
        from netspectra import spectra

        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(spectra, "eigendecompose", out_of_memory)
        code = main(["spectrum", k5_file, "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "truncate" in capsys.readouterr().err

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

    def test_threads_flag_accepted(self, two_cycle_file, tmp_path):
        out = tmp_path / "out"
        assert main(["spectrum", two_cycle_file, "--threads", "1",
                     "--out-dir", str(out)]) == 0


BASE_MANIFEST_KEYS = {
    "schema_version", "tool", "tool_version", "command", "parameters", "seed",
    "input_digests", "outputs", "wall_time_s",
}
SPECTRUM_FILES = ["eigenvalues.csv", "dos.csv", "degeneracy.csv", "eigenvector_par.csv"]

# command -> (argv with GRAPH / OUT placeholders, manifest name, output files,
# extra top-level manifest keys)
MANIFEST_CASES = {
    "spectrum": (["spectrum", "GRAPH", "--out-dir", "OUT"], "manifest.json", SPECTRUM_FILES, set()),
    "pagerank": (
        ["pagerank", "GRAPH", "--out-dir", "OUT"], "manifest.json", ["pagerank.csv"],
        {"iterations", "residual", "converged"},
    ),
    "fidelity": (
        ["fidelity", "GRAPH", "--alphas", "0.5,0.85", "--out-dir", "OUT"], "manifest.json",
        ["fidelity.csv"], set(),
    ),
    "par-curve": (
        ["par-curve", "GRAPH", "--alphas", "0.5,0.85", "--out-dir", "OUT"], "manifest.json",
        ["par_curve.csv"], set(),
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
        ["eigenvalues_full.csv", "eigenvalues_m12.csv", "eigenvalues_m6.csv"], {"hausdorff"},
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
    manifest = json.loads((out / manifest_name).read_text())
    assert set(manifest) == BASE_MANIFEST_KEYS | extra_keys
    assert manifest["command"] == command
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


class TestUsage:
    def test_no_command_exit_1(self, capsys):
        assert main([]) == 1

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "netspectra" in capsys.readouterr().out
