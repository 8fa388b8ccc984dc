"""Each demo runs to the end in a fresh interpreter and writes its CSV files
into ``DEMO_OUT``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import netspectra

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# demo -> the CSV files it writes
CSVS = {
    "quickstart.py": set(),
    "model_gap_comparison.py": set(),
    "degree_distributions.py": {"ab_degree_in.csv", "ab_degree_out.csv"},
    "pagerank_observables.py": {"par_curve.csv", "fidelity_grid.csv"},
    "spectrum_observables.py": {
        "color_eigenvalues.csv", "color_dos.csv", "color_degeneracy.csv", "color_par.csv",
    },
    "truncated_spectrum.py": {"trunc_full.csv"} | {f"trunc_m{m}.csv" for m in (2048, 1024, 512, 256)},
}


def test_every_demo_is_listed():
    assert {p.name for p in DEMOS.glob("*.py")} == set(CSVS)


@pytest.mark.parametrize("demo", sorted(CSVS))
def test_demo_exits_0_and_writes_its_csvs(demo, tmp_path):
    src = Path(netspectra.__file__).resolve().parents[1]
    out = tmp_path / "out"
    out.mkdir()
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)], cwd=tmp_path,
        env=dict(os.environ, DEMO_OUT=str(out), PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in out.iterdir()} == CSVS[demo]
    for name in CSVS[demo]:
        lines = (out / name).read_text().splitlines()
        assert len([line for line in lines if not line.startswith("#")]) > 1, name
