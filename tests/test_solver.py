import numpy as np
import pytest

from quantnet.codec import NoiseModel
from quantnet.graph import build_laplacian, generate_graph
from quantnet.harness import random_problem
from quantnet.planner import plan_exact, spectral_data
from quantnet.problem import DENSE_MAX_DIM, build_stacked, classify
from quantnet.solver import (ExactConfig, GammaSchedule, LSConfig,
                             SaturationError, bound_B, iter_rounds, run_exact,
                             run_ls, run_robust, traces_dynamics_equal)


def _ex1_h(ex1_setting):
    _, _, _, ops, _ = ex1_setting
    return 1.98 / (ops.fd_min + ops.fd_max)


def test_exact_converges_example1(ex1_setting):
    p, g, _, _, _ = ex1_setting
    cfg = ExactConfig(h=_ex1_h(ex1_setting), alpha=0.98, s0=1.0, K=300,
                      max_rounds=2000)
    tr = run_exact(p, g, cfg)
    assert tr.err2[-1] < 1e-6
    assert tr.saturation_count[-1] == 0
    assert tr.k[0] == 0 and len(tr.k) == tr.rounds + 1


def test_exact_fixed_point(ex1_setting):
    # start at the replicated solution with a huge scale: every symbol is
    # zero and the state never moves
    p, g, _, _, _ = ex1_setting
    y = classify(p).solution
    x0 = np.tile(y, (5, 1))
    cfg = ExactConfig(h=_ex1_h(ex1_setting), alpha=0.98, s0=1e9, K=10,
                      max_rounds=50, stop_tol=0.0, x0=x0)
    tr = run_exact(p, g, cfg)
    assert np.allclose(tr.x_final, x0, atol=1e-12)
    assert tr.err2[-1] == pytest.approx(0.0, abs=1e-12)


def test_exact_data_rate_inert(ex1_setting):
    p, g, _, _, _ = ex1_setting
    h = _ex1_h(ex1_setting)
    traces = [run_exact(p, g, ExactConfig(h=h, alpha=0.98, s0=1.0, K=K,
                                          max_rounds=500))
              for K in (100, 300, 1000)]
    assert traces_dynamics_equal(traces[0], traces[1])
    assert traces_dynamics_equal(traces[0], traces[2])
    # bit accounting does depend on the alphabet size
    assert traces[0].bits_cum[-1] < traces[2].bits_cum[-1]


def test_trace_bound_column(ex1_setting):
    p, g, lap, ops, _ = ex1_setting
    h = _ex1_h(ex1_setting)
    cfg = ExactConfig(h=h, alpha=0.98, s0=1.0, K=300, max_rounds=100)
    tr = run_exact(p, g, cfg)
    expect = bound_B(np.arange(len(tr.k)), h, 1.0, 0.98, ops.fd_min,
                     lap.lambdaN, 2, 5)
    assert np.allclose(tr.bound_Bk, expect, rtol=1e-12)


def test_bound_B_properties(ex1_setting):
    _, _, lap, ops, _ = ex1_setting
    h = _ex1_h(ex1_setting)
    b0 = bound_B(0, h, 1.0, 0.98, ops.fd_min, lap.lambdaN, 2, 5)
    b1 = bound_B(1, h, 1.0, 0.98, ops.fd_min, lap.lambdaN, 2, 5)
    assert b1 / b0 == pytest.approx(0.98, rel=1e-12)
    # monotone blow-up approaching the pole at alpha = rho_h
    rho = 1 - h * ops.fd_min
    vals = [bound_B(5, h, 1.0, a, ops.fd_min, lap.lambdaN, 2, 5)
            for a in np.linspace(0.99, rho + 1e-4, 8)]
    assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))
    with pytest.raises(ValueError):
        bound_B(0, h, 1.0, rho, ops.fd_min, lap.lambdaN, 2, 5)


def test_strict_saturation_aborts(ex1_setting):
    p, g, _, _, _ = ex1_setting
    cfg = ExactConfig(h=_ex1_h(ex1_setting), alpha=0.98, s0=1e-6, K=1,
                      max_rounds=100, strict_saturation=True)
    with pytest.raises(SaturationError):
        run_exact(p, g, cfg)


def test_guarantee_violation_warns(ex1_setting):
    p, g, _, _, _ = ex1_setting
    cfg = ExactConfig(h=5.0, alpha=0.9, s0=1.0, K=10, max_rounds=5,
                      stop_tol=0.0)
    with pytest.warns(RuntimeWarning):
        run_exact(p, g, cfg)


def test_gamma_schedule_properties():
    sched = GammaSchedule(k0=26.0, delta=0.85)
    assert sched.gamma(0) == pytest.approx(1.0)
    ks = np.arange(0, 1000)
    gs = sched.gamma(ks)
    assert np.all(np.diff(gs) < 0)
    bs = sched.beta(ks)
    assert np.all(bs > 1.0) and np.all(np.diff(bs) < 0)
    assert sched.beta0 == pytest.approx((27 / 26) ** 0.85)
    with pytest.raises(ValueError):
        GammaSchedule(k0=10.0, delta=0.4)


def test_ls_converges_example4(ex4_setting):
    p, g, _, _, _ = ex4_setting
    cfg = LSConfig(h=0.0853, K=900, s_r=0.82,
                   gamma=GammaSchedule(k0=26.0, delta=0.85),
                   max_rounds=5000)
    tr = run_ls(p, g, cfg)
    y = classify(p).solution
    assert np.abs(tr.x_final - y[None, :]).max() < 0.2
    assert tr.err2[-1] < tr.err2[0] / 5
    assert tr.ratio_err_gamma is not None


def test_ls_on_exact_system_converges(ex1_setting):
    p, g, _, _, _ = ex1_setting
    cfg = LSConfig(h=0.05, K=500, s_r=5.0,
                   gamma=GammaSchedule(k0=50.0, delta=0.8),
                   max_rounds=20000)
    tr = run_ls(p, g, cfg)
    # residual-free system: the diminishing-gain run heads to the exact
    # solution (slowly, since the gain decays)
    assert tr.err2[-1] < 0.05 * tr.err2[0]


def test_robust_ideal_matches_exact(ex1_setting):
    p, g, _, _, _ = ex1_setting
    cfg = ExactConfig(h=_ex1_h(ex1_setting), alpha=0.98, s0=1.0, K=300,
                      max_rounds=300)
    a = run_exact(p, g, cfg)
    b = run_robust(p, g, cfg, NoiseModel())
    assert traces_dynamics_equal(a, b)


def test_robust_undamped_init_errors_break_convergence(ex1_setting):
    p, g, _, _, _ = ex1_setting
    cfg = ExactConfig(h=0.0213, alpha=0.998, s0=10.0, K=300,
                      max_rounds=4000)
    noise = NoiseModel(damping=1.0, init_error_range=(0.0, 0.5), seed=0,
                       init_errors_enabled=True)
    tr = run_robust(p, g, cfg, noise)
    assert tr.err2[-1] > 1.0  # persistent error, no convergence
    assert tr.drift is not None and tr.drift[-1] > 0


def test_robust_damped_roundoff_small_error(ex1_setting):
    p, g, _, _, _ = ex1_setting
    cfg = ExactConfig(h=0.0213, alpha=0.998, s0=10.0, K=300,
                      max_rounds=15000)
    noise = NoiseModel(damping=0.95, roundoff_amp=1e-4, seed=0,
                       roundoff_enabled=True)
    tr = run_robust(p, g, cfg, noise)
    assert tr.err2[-1] < 5e-2


def test_determinism(ex1_setting):
    p, g, _, _, _ = ex1_setting
    cfg = ExactConfig(h=0.0213, alpha=0.998, s0=10.0, K=300, max_rounds=500,
                      cx=1.0, seed=42)
    a = run_exact(p, g, cfg)
    b = run_exact(p, g, cfg)
    assert a.csv_text() == b.csv_text()


def test_csv_layout(ex1_setting):
    p, g, _, _, _ = ex1_setting
    cfg = ExactConfig(h=_ex1_h(ex1_setting), alpha=0.98, s0=1.0, K=300,
                      max_rounds=10, stop_tol=0.0)
    tr = run_exact(p, g, cfg)
    lines = [ln for ln in tr.csv_text().splitlines()
             if not ln.startswith("#")]
    assert lines[0] == ("k,err2,bound_Bk,ratio_err_gamma,max_quant_input,"
                        "saturation_count,bits_cum")
    assert len(lines) == 12  # header + 11 rows
    row0 = lines[1].split(",")
    assert row0[0] == "0" and row0[3] == "" and row0[4] == ""
    row1 = lines[2].split(",")
    assert row1[3] == "" and row1[4] != ""


def test_divergence_stops_at_nonfinite_quantizer_input(ex1_setting):
    # h = 2 diverges; s(k) = 0.5**k underflows long before max_rounds, and
    # the quantizer refuses the non-finite input instead of running on
    p, g, _, _, _ = ex1_setting
    cfg = ExactConfig(h=2.0, alpha=0.5, s0=1.0, K=10, max_rounds=3000)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(ValueError, match="quantizer input must be finite"):
            run_exact(p, g, cfg)


@pytest.fixture(scope="module")
def cycle_above_dense_size():
    """A cycle with m*N just above DENSE_MAX_DIM, planned at K = 100."""
    n, m = DENSE_MAX_DIM // 3 + 1, 3
    p = random_problem(n, m, "exact", seed=8)
    g = generate_graph("cycle", n)
    lap = build_laplacian(g)
    ops = build_stacked(p, lap)
    plan = plan_exact(100, 0.5, spectral_data(ops, lap, m, n), cx=1.0,
                      cw=float(np.abs(classify(p).solution).max()))
    cfg = ExactConfig(h=plan.h, alpha=plan.alpha, s0=plan.s0_min, K=100,
                      max_rounds=5, stop_tol=0.0, cx=1.0, seed=4)
    return p, g, lap, ops, cfg


def test_bound_column_above_dense_size(cycle_above_dense_size):
    # the solver's extremes are the planner's, to the last bit
    p, g, lap, ops, cfg = cycle_above_dense_size
    tr = run_exact(p, g, cfg)
    expect = bound_B(np.arange(len(tr.k)), cfg.h, cfg.s0, cfg.alpha,
                     ops.fd_min, lap.lambdaN, p.dim, p.n_nodes)
    assert np.array_equal(tr.bound_Bk, expect)


def test_spectral_setup_draws_from_no_user_seed(cycle_above_dense_size):
    # x(0) and the robust draws match a bare kernel run with no set-up
    p, g, _, _, cfg = cycle_above_dense_size
    noise = NoiseModel(damping=0.95, init_error_range=(0.0, 0.5),
                       roundoff_amp=1e-4, seed=4, init_errors_enabled=True,
                       roundoff_enabled=True)
    tr = run_robust(p, g, cfg, noise)
    states = list(iter_rounds(p, g, cfg, noise))
    x0 = np.random.default_rng(cfg.seed).uniform(-1.0, 1.0, size=(p.n_nodes,
                                                                   p.dim))
    assert np.array_equal(states[0].x, x0)
    assert tr.err2[0] == np.linalg.norm(x0 - tr.y_ref[None, :])
    assert np.array_equal(tr.x_final, states[-1].x)
    assert np.array_equal(tr.drift[1:], [st.drift for st in states[1:]])
