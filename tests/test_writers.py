"""Contract shared by every public text writer: a path and an open handle get
the same bytes, and a caller's handle is left open and writable.  Writers
take no header argument: the command line writes each file's ``# manifest:``
first line itself, then hands the handle on."""

import io
from functools import partial

import numpy as np
import pytest

from netspectra import gmatrix, netcore, ranking, spectra

from helpers import sparse_random


@pytest.fixture(scope="module")
def writers():
    graph = sparse_random(12, seed=3)
    g = gmatrix.GoogleMatrix.from_graph(graph, 0.85)
    spec = spectra.eigendecompose(g.to_dense())
    gammas, zero_modes = spectra.relaxation_rates(spec)
    par_gammas, pars = spectra.eigenvector_pars(spec)
    alphas = [0.5, 0.85]
    return {
        "save_edge_list": partial(netcore.save_edge_list, graph, colors=np.arange(12) % 3),
        "degree_distribution_to_csv": partial(
            netcore.degree_distribution_to_csv, netcore.degree_distribution(graph, "in")
        ),
        "rank_to_csv": partial(ranking.rank_to_csv, ranking.pagerank_power(g)),
        "par_curve_to_csv": partial(ranking.par_curve_to_csv, ranking.par_vs_alpha(graph, alphas)),
        "fidelity_grid_to_csv": partial(
            ranking.fidelity_grid_to_csv, ranking.fidelity_grid(graph, alphas)
        ),
        "spectrum_to_csv": partial(spectra.spectrum_to_csv, spec),
        "eigenvector_pars_to_csv": partial(spectra.eigenvector_pars_to_csv, par_gammas, pars),
        "dos_to_csv": partial(spectra.dos_to_csv, spectra.density_of_states(gammas, zero_modes)),
        "degeneracy_to_csv": partial(spectra.degeneracy_to_csv, spectra.degeneracy_clusters(spec)),
    }


WRITER_NAMES = [
    "save_edge_list",
    "degree_distribution_to_csv",
    "rank_to_csv",
    "par_curve_to_csv",
    "fidelity_grid_to_csv",
    "spectrum_to_csv",
    "eigenvector_pars_to_csv",
    "dos_to_csv",
    "degeneracy_to_csv",
]


def test_every_public_writer_is_covered():
    public = {
        name
        for mod in (netcore, gmatrix, ranking, spectra)
        for name in mod.__all__
        if name.endswith("_to_csv") or name == "save_edge_list"
    }
    assert public == set(WRITER_NAMES)


@pytest.mark.parametrize("name", WRITER_NAMES)
def test_path_and_handle_give_identical_bytes(writers, name, tmp_path):
    path = tmp_path / "out.txt"
    writers[name](path)
    buf = io.StringIO()
    writers[name](buf)
    data = path.read_bytes()
    assert data == buf.getvalue().encode("utf-8")
    assert data.endswith(b"\n") and b"\r" not in data


@pytest.mark.parametrize("name", WRITER_NAMES)
def test_caller_handle_left_open_and_writable(writers, name, tmp_path):
    alone = tmp_path / "alone.txt"
    writers[name](alone)
    shared = tmp_path / "shared.txt"
    with open(shared, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# first\n")
        writers[name](fh)
        assert not fh.closed
        fh.write("# last\n")
    assert shared.read_bytes() == b"# first\n" + alone.read_bytes() + b"# last\n"


SPECIAL = [np.inf, -np.inf, np.nan, -0.0, 0.0, 1e-300, 5e-324, 2.2250738585072014e-308 / 3]


@pytest.mark.parametrize(
    "fmt, columns",
    [
        ("%d %d\n", (np.array([0, 7, 2**62]), np.array([-3, 1, 5]))),
        ("%.17g,%.17g\n", (np.linspace(-1, 1, 9), np.exp(np.arange(9.0)))),
        ("%d,%.17g,%d\n", (np.arange(8), np.array(SPECIAL), np.arange(8)[::-1])),
        ("%.17g,%.17g,%d\n", ([], [], [])),
    ],
    ids=["int", "float", "special", "empty"],
)
@pytest.mark.parametrize("to_path", [True, False], ids=["path", "handle"])
def test_table_bytes_equal_per_row_formatting(fmt, columns, to_path, tmp_path):
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    expected = "head\n" + "".join(fmt % row for row in rows)
    if to_path:
        netcore._write_table(tmp_path / "t.csv", "head\n", fmt, columns)
        data = (tmp_path / "t.csv").read_bytes()
    else:
        buf = io.StringIO()
        netcore._write_table(buf, "head\n", fmt, columns)
        data = buf.getvalue().encode("utf-8")
    assert data == expected.encode("utf-8")
