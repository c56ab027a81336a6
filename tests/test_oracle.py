from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quantnet.cli import _oracle_deviation
from quantnet.graph import build_laplacian, generate_graph
from quantnet.harness import random_problem
from quantnet.oracle import (compact_exact_init, compact_exact_step,
                             compact_ls_init, compact_ls_step,
                             make_exact_operators, make_ls_operators,
                             unquantized_step)
from quantnet.planner import GammaSchedule, plan_exact, plan_ls
from quantnet.problem import build_stacked, classify
from quantnet.solver import ExactConfig, LSConfig, iter_rounds


def _ex1_cfg(sp, **kw):
    h = 0.99 * sp.h_cap_exact
    return ExactConfig(h=h, alpha=0.98, s0=1.0, K=300, max_rounds=300, **kw)


def test_compact_exact_matches_solver_example1(ex1_setting):
    p, g, lap, ops, sp = ex1_setting
    assert _oracle_deviation(p, g, _ex1_cfg(sp)) < 1e-9


def test_compact_exact_matches_solver_random():
    for seed in (0, 1, 2):
        n, m = 8, 3
        p = random_problem(n, m, "exact", seed=seed)
        g = generate_graph("erdos_renyi", n, 0.5, seed=seed)
        lap = build_laplacian(g)
        ops = build_stacked(p, lap)
        h = 0.5 * 2.0 / (ops.fd_min + ops.fd_max)
        alpha = 1.0 - 0.5 * h * ops.fd_min
        cfg = ExactConfig(h=h, alpha=alpha, s0=2.0, K=1000, max_rounds=150)
        assert _oracle_deviation(p, g, cfg) < 1e-9


def test_compact_exact_innovation_bounded(ex1_setting):
    # after an unsaturated quantization the scaled innovation cannot exceed
    # 1/(2 alpha) in any coordinate
    p, g, lap, ops, sp = ex1_setting
    cfg = _ex1_cfg(sp)
    eops = make_exact_operators(ops, lap, cfg.h, classify(p).solution)
    st = compact_exact_init(np.zeros(10), cfg.s0, eops)
    for _ in range(200):
        st = compact_exact_step(st, cfg.alpha, cfg.h, cfg.K, eops)
        assert np.abs(st.eps).max() <= 0.5 / cfg.alpha + 1e-12


def test_compact_exact_reconstruction(ex1_setting):
    p, g, lap, ops, sp = ex1_setting
    cfg = _ex1_cfg(sp, cx=1.0, seed=4)
    eops = make_exact_operators(ops, lap, cfg.h, classify(p).solution)
    xs = [st.x.reshape(-1) for st in islice(iter_rounds(p, g, cfg), 51)]
    st = compact_exact_init(xs[0], cfg.s0, eops)
    assert np.allclose(st.reconstruct_x(cfg.s0, eops), xs[0])
    for k in range(1, 51):
        st = compact_exact_step(st, cfg.alpha, cfg.h, cfg.K, eops)
    x50 = st.reconstruct_x(cfg.s0 * cfg.alpha ** 50, eops)
    assert np.allclose(x50, xs[50], atol=1e-9)


def test_compact_ls_matches_solver_example4(ex4_setting):
    p, g, lap, ops, sp = ex4_setting
    cfg = LSConfig(h=0.0853, K=900, s_r=0.82,
                   gamma=GammaSchedule(k0=26.0, delta=0.85), max_rounds=2000)
    with pytest.warns(RuntimeWarning):     # K = 900 < Kmin' = 2770
        assert _oracle_deviation(p, g, cfg) < 1e-8


def test_compact_ls_matches_solver_random():
    n, m = 6, 2
    p = random_problem(n, m, "ls", seed=5)
    g = generate_graph("erdos_renyi", n, 0.6, seed=5)
    lap = build_laplacian(g)
    ops = build_stacked(p, lap)
    cfg = LSConfig(h=0.02, K=2000, s_r=2.0,
                   gamma=GammaSchedule(k0=30.0, delta=0.8), max_rounds=500)
    assert _oracle_deviation(p, g, cfg) < 1e-8


@given(n=st.integers(3, 8), m=st.integers(1, 3), edge_p=st.floats(0.3, 1.0),
       seed=st.integers(0, 2**16), K=st.sampled_from([3, 10, 100, 1000]),
       eps=st.floats(0.1, 0.9))
@settings(max_examples=40, deadline=None)
def test_compact_ls_matches_solver_on_random_systems(n, m, edge_p, seed, K,
                                                     eps):
    # parameters from the least-squares planner, so no symbol saturates;
    # a hand-picked gain below h_cap_ls can still diverge, and then the
    # relative deviation measures the divergence, not the recursions
    assume(m < n)
    p = random_problem(n, m, "ls", seed=seed)
    g = generate_graph("erdos_renyi", n, edge_p, seed=seed)
    plan = plan_ls(K, eps, build_stacked(p, build_laplacian(g)), delta=0.85,
                   cx=1.0)
    cfg = LSConfig(h=plan.h, K=K, s_r=plan.sr_min, gamma=plan.gamma,
                   max_rounds=300, cx=1.0, seed=seed)
    assert _oracle_deviation(p, g, cfg) <= 1e-8


@given(n=st.integers(3, 8), m=st.integers(1, 3), edge_p=st.floats(0.3, 1.0),
       seed=st.integers(0, 2**16), K=st.sampled_from([3, 10, 100, 1000]),
       eps=st.floats(0.1, 0.9))
@settings(max_examples=40, deadline=None)
def test_compact_exact_matches_solver_on_random_systems(n, m, edge_p, seed,
                                                        K, eps):
    # parameters from the exact planner. s0_min takes cw = ||y*||_inf, below
    # the cx + ||y*||_inf that bounds ||x(0) - y*||_inf for x(0) drawn in
    # [-1, 1]: the comparison needs no guarantee
    assume(m < n)
    p = random_problem(n, m, "exact", seed=seed)
    g = generate_graph("erdos_renyi", n, edge_p, seed=seed)
    y = classify(p).solution
    plan = plan_exact(K, eps, build_stacked(p, build_laplacian(g)), cx=1.0,
                      cw=float(np.abs(y).max()))
    cfg = ExactConfig(h=plan.h, alpha=plan.alpha, s0=plan.s0_min, K=K,
                      max_rounds=300, cx=1.0, seed=seed)
    assert _oracle_deviation(p, g, cfg) <= 1e-9


def test_compact_ls_eta_mean_free(ex4_setting):
    # eta lives in the mean-removed subspace by construction and the
    # recursion keeps it there
    p, g, lap, ops, sp = ex4_setting
    lops = make_ls_operators(ops, lap, p.dim)
    sched = GammaSchedule(k0=26.0, delta=0.85)
    rng = np.random.default_rng(3)
    st = compact_ls_init(rng.normal(size=10), 0.82, lops)
    ones = np.tile(np.eye(p.dim), (1, p.n_nodes))  # block mean operator
    for k in range(100):
        assert np.abs(ones @ st.eta).max() < 1e-9
        st = compact_ls_step(st, 0.0853, 0.82, float(sched.gamma(k)),
                             float(sched.beta(k)), 900, lops)


def test_unquantized_baseline_contracts(ex1_setting):
    # with perfect communication the deviation shrinks at least as fast as
    # the nominal contraction factor 1 - h*fd_min each round
    p, g, lap, ops, sp = ex1_setting
    h = 0.99 * sp.h_cap_exact
    rho = 1.0 - h * ops.fd_min
    Lm = np.kron(lap.L, np.eye(p.dim))
    y = np.tile(classify(p).solution, p.n_nodes)
    x = np.zeros(10)
    prev = np.linalg.norm(x - y)
    for _ in range(400):
        x = unquantized_step(x, h, 1.0, Lm, ops.Hd, ops.zH)
        cur = np.linalg.norm(x - y)
        assert cur <= rho * prev + 1e-13
        prev = cur
    assert prev < 1e-6


def test_unquantized_fixed_point(ex1_setting):
    p, g, lap, ops, sp = ex1_setting
    Lm = np.kron(lap.L, np.eye(p.dim))
    y = np.tile(classify(p).solution, p.n_nodes)
    x1 = unquantized_step(y, 0.1, 0.7, Lm, ops.Hd, ops.zH)
    assert np.allclose(x1, y, atol=1e-12)
