import contextlib

import numpy as np
import pytest

from quantnet import (build_laplacian, build_stacked, builtin_graph,
                      builtin_problem, spectral_data)
from quantnet.harness import reproduce


@pytest.fixture(scope="session")
def fig1_graph():
    return builtin_graph()


@pytest.fixture(scope="session")
def ex1_problem():
    return builtin_problem("ex1")


@pytest.fixture(scope="session")
def ex4_problem():
    return builtin_problem("ex4")


@pytest.fixture(scope="session")
def ex1_setting(ex1_problem, fig1_graph):
    """(problem, graph, laplacian, stacked operators, spectral bundle)."""
    lap = build_laplacian(fig1_graph)
    ops = build_stacked(ex1_problem, lap)
    sp = spectral_data(ops, lap, ex1_problem.dim, ex1_problem.n_nodes)
    return ex1_problem, fig1_graph, lap, ops, sp


@pytest.fixture(scope="session")
def ex4_setting(ex4_problem, fig1_graph):
    lap = build_laplacian(fig1_graph)
    ops = build_stacked(ex4_problem, lap)
    sp = spectral_data(ops, lap, ex4_problem.dim, ex4_problem.n_nodes)
    return ex4_problem, fig1_graph, lap, ops, sp


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def reproduced(tmp_path_factory):
    """``reproduced(id)``: ``reproduce(id)`` run once per session, into a
    directory of its own; ex3 averages 2 graphs per p, not 100."""
    runs = {}

    def get(example_id):
        if example_id not in runs:
            # these run outside Xi(K) or Xi_LS(K) and warn: ex1_thm1 at
            # K = 100 < Kmin = 225, and (criterion 8) every ex4_thm3 K and
            # every ex4_thm4 row
            warns = example_id in ("ex1_thm1", "ex4_thm3", "ex4_thm4")
            with (pytest.warns(RuntimeWarning) if warns
                  else contextlib.nullcontext()):
                runs[example_id] = reproduce(
                    example_id, out_dir=tmp_path_factory.mktemp(example_id),
                    **({"graphs_per_p": 2} if example_id == "ex3" else {}))
        return runs[example_id]
    return get
