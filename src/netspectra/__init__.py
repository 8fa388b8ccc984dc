"""netspectra: spectral analysis of directed networks.

Graph ingestion and degree statistics (:mod:`netspectra.netcore`), sparse
column-stochastic link matrices with damping (:mod:`netspectra.gmatrix`),
PageRank observables (:mod:`netspectra.ranking`), full complex spectra and
localization measures (:mod:`netspectra.spectra`), random-network generators
(:mod:`netspectra.genmodels`), and a CSV-emitting command line
(:mod:`netspectra.cli`).

Submodules are imported lazily, so commands that only read graphs never
load scipy.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("netcore", "gmatrix", "ranking", "spectra", "genmodels", "cli")


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))
