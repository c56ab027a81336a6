import contextlib
import dataclasses
import io
import math
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantnet import solver
from quantnet.codec import NoiseModel, QuantizerSpec
from quantnet.graph import (Graph, build_laplacian, generate_graph,
                            per_receiver_sum)
from quantnet.harness import (CONSTANTS, parse_config, random_problem,
                              run_config)
from quantnet.planner import (GammaSchedule, bound_B, plan_exact, plan_ls,
                              spectral_data, xi_ls_membership, xi_membership)
from quantnet.problem import (DENSE_MAX_DIM, LinearProblem, build_stacked,
                              classify, stacked_extremes)
from quantnet.oracle import unquantized_step
from quantnet.solver import (BaselineConfig, ExactConfig, LSConfig,
                             SaturationError, iter_rounds, run_baseline,
                             run_exact, run_ls, run_robust,
                             traces_dynamics_equal)


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
    with pytest.warns(RuntimeWarning):     # K = 10 < Kmin = 225
        tr = run_exact(p, g, cfg)
    assert np.allclose(tr.x_final, x0, atol=1e-12)
    assert tr.err2[-1] == pytest.approx(0.0, abs=1e-12)


def test_exact_data_rate_inert(ex1_setting):
    p, g, _, _, _ = ex1_setting
    h = _ex1_h(ex1_setting)
    with pytest.warns(RuntimeWarning):     # K = 100 < Kmin = 225
        traces = [run_exact(p, g, ExactConfig(h=h, alpha=0.98, s0=1.0, K=K,
                                              max_rounds=500))
                  for K in (100, 300, 1000)]
    assert traces_dynamics_equal(traces[0], traces[1])
    assert traces_dynamics_equal(traces[0], traces[2])
    # bit accounting does depend on the alphabet size
    assert traces[0].bits_cum[-1] < traces[2].bits_cum[-1]


def test_trace_bound_column(ex1_setting):
    p, g, _, ops, _ = ex1_setting
    h = _ex1_h(ex1_setting)
    cfg = ExactConfig(h=h, alpha=0.98, s0=1.0, K=300, max_rounds=100)
    tr = run_exact(p, g, cfg)
    expect = bound_B(np.arange(len(tr.k)), h, 1.0, 0.98, ops)
    assert np.allclose(tr.bound_Bk, expect, rtol=1e-12)


def test_bound_B_properties(ex1_setting):
    _, _, _, ops, _ = ex1_setting
    h = _ex1_h(ex1_setting)
    b0 = bound_B(0, h, 1.0, 0.98, ops)
    b1 = bound_B(1, h, 1.0, 0.98, ops)
    assert b1 / b0 == pytest.approx(0.98, rel=1e-12)
    # monotone blow-up approaching the pole at alpha = rho_h
    rho = 1 - h * ops.fd_min
    vals = [bound_B(5, h, 1.0, a, ops)
            for a in np.linspace(0.99, rho + 1e-4, 8)]
    assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))
    with pytest.raises(ValueError):
        bound_B(0, h, 1.0, rho, ops)


def test_strict_saturation_aborts(ex1_setting):
    p, g, _, _, _ = ex1_setting
    cfg = ExactConfig(h=_ex1_h(ex1_setting), alpha=0.98, s0=1e-6, K=1,
                      max_rounds=100, strict_saturation=True)
    with pytest.warns(RuntimeWarning), pytest.raises(SaturationError):
        run_exact(p, g, cfg)


def test_guarantee_violation_warns(ex1_setting):
    # the warning names the caller of run_*, for every entry point
    p, g, _, _, _ = ex1_setting
    cfg = ExactConfig(h=5.0, alpha=0.9, s0=1.0, K=10, max_rounds=5,
                      stop_tol=0.0)
    noisy = NoiseModel(damping=0.95)
    ls_cfg = LSConfig(h=5.0, K=10, s_r=1.0, max_rounds=5, stop_tol=0.0,
                      gamma=GammaSchedule(k0=26.0, delta=0.85))
    for run in (lambda: run_exact(p, g, cfg),
                lambda: run_robust(p, g, cfg, NoiseModel()),
                lambda: run_robust(p, g, cfg, noisy),
                lambda: run_ls(p, g, ls_cfg)):
        with pytest.warns(RuntimeWarning) as rec:
            run()
        assert [w.filename for w in rec] == [__file__]


def test_exact_warning_reads_the_alphabet(ex1_setting):
    # Kmin at the ex1_thm1 gain and alpha = 0.98 is 225
    p, g, _, _, _ = ex1_setting
    cfg = ExactConfig(h=_ex1_h(ex1_setting), alpha=0.98, s0=1.0, K=100,
                      max_rounds=5)
    with pytest.warns(RuntimeWarning, match="guarantees"):
        run_exact(p, g, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_exact(p, g, dataclasses.replace(cfg, K=300))


def test_ls_outside_the_set_warns():
    # a gain below h_cap_ls and beta0 inside (1, 1/(1 - h lambda2)), but
    # Mprime is about 9e4 > K + 1/2: the run diverges
    p = random_problem(8, 3, "ls", seed=21360)
    g = generate_graph("erdos_renyi", 8, 0.34, seed=21360)
    sp = build_stacked(p, build_laplacian(g))
    cfg = LSConfig(h=0.77 * sp.h_cap_ls, K=2000, s_r=2.0,
                   gamma=GammaSchedule(k0=30.0, delta=0.8), max_rounds=300)
    with pytest.warns(RuntimeWarning, match="guarantees"):
        tr = run_ls(p, g, cfg)
    assert tr.err2[-1] > 1e20 and tr.saturation_count[-1] > 0


@pytest.mark.parametrize("K", [2, 10, 300])
def test_planned_runs_raise_no_warning(ex1_setting, ex4_setting, K):
    p1, g, _, _, sp1 = ex1_setting
    p4, sp4 = ex4_setting[0], ex4_setting[4]
    exact = plan_exact(K, 0.5, sp1, cx=1.0,
                       cw=float(np.abs(classify(p1).solution).max()))
    ls = plan_ls(K, 0.5, sp4, delta=0.85, cx=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_exact(p1, g, ExactConfig(h=exact.h, alpha=exact.alpha,
                                     s0=exact.s0_min, K=K, max_rounds=50,
                                     cx=1.0))
        run_ls(p4, g, LSConfig(h=ls.h, K=K, s_r=ls.sr_min, gamma=ls.gamma,
                               max_rounds=50, cx=1.0))


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
    with pytest.warns(RuntimeWarning):     # K = 900 < Kmin' = 2770
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


@pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(damping=0.95)],
                         ids=["ideal", "damped"])
def test_robust_rejects_least_squares_system(ex4_setting, noise):
    # both branches of run_robust: the ideal codec runs exact mode, the
    # damped one the robust kernel; neither may run on an LS system
    p, g, _, _, _ = ex4_setting
    cfg = ExactConfig(h=0.0213, alpha=0.998, s0=10.0, K=300, max_rounds=10)
    with pytest.raises(ValueError, match="exactly solvable"):
        run_robust(p, g, cfg, noise)


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
    p, g, _, ops, cfg = cycle_above_dense_size
    tr = run_exact(p, g, cfg)
    expect = bound_B(np.arange(len(tr.k)), cfg.h, cfg.s0, cfg.alpha, ops)
    assert np.array_equal(tr.bound_Bk, expect)


def test_spectral_setup_draws_from_no_user_seed(cycle_above_dense_size):
    # x(0) and the robust draws match a bare kernel run with no set-up. The
    # fixture holds the summary of its own (p, g), so copies make the run
    # build one, by Lanczos, before it draws
    fp, fg, _, _, cfg = cycle_above_dense_size
    p, g = LinearProblem(H=fp.H, z=fp.z), Graph(fg.node_count, fg.edges)
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
    send = g.arcs[1]
    assert np.array_equal(tr.drift[1:], [np.abs(st.xhat - st.b[send]).max()
                                         for st in states[1:]])


# ---------------------------------------------------------------------------
# trace columns against a per-round reference
# ---------------------------------------------------------------------------

def _gamma_ref(sched, k):
    """gamma(k) for one round as a numpy 0-d pow, the per-round formula the
    trace column ratio_err_gamma has always used."""
    return float((sched.k0 / (np.asarray(k, dtype=float) + sched.k0))
                 ** sched.delta)


def _reference_trace(p, g, cfg, mode, noise=None):
    """The trace columns recorded round by round from the kernel's states,
    with per-round formulas: np.linalg.norm, scalar bound_B(k), a numpy
    0-d gamma(k), count_nonzero(q.take(send)), and max(axis=1) over the
    last axis, also for the quantizer peaks, which are recomputed from the
    kernel's input (x(k) - b(k-1)) / s(k-1). Returns the columns and the
    round index of a SaturationError, or None."""
    lap = build_laplacian(g)
    fd_min = stacked_extremes(p, lap)[0]
    sp = build_stacked(p, lap)
    y = classify(p).solution
    n, m, K = p.n_nodes, p.dim, cfg.K
    have_bound = mode != "ls" and cfg.alpha > 1.0 - cfg.h * fd_min
    bpc = QuantizerSpec(K).bits_per_coord
    e = g.edges - 1
    send = np.concatenate([e[:, 1], e[:, 0]])
    cols = {key: [] for key in ("err2", "einf", "maxin", "sat", "bits",
                                "nz", "bound", "ratio", "drift")}
    sat = bits = nz = 0
    stop_reason = "max_rounds"
    try:
        for st in iter_rounds(p, g, cfg, noise):
            k = st.k
            diff = st.x - y[None, :]
            e2 = float(np.linalg.norm(diff))
            einf = np.abs(diff).max(axis=1)
            peak = float("nan")
            if k > 0:
                s_prev = (cfg.s_r * cfg.gamma.gamma(k - 1) if mode == "ls"
                          else cfg.s0 * cfg.alpha ** (k - 1))
                peaks = np.abs((st.x - b_prev) / s_prev).max(axis=1)
                assert np.array_equal(st.peaks, peaks)
                peak = float(peaks.max())
                sat += int((peaks > K + 0.5).sum())
                bits += 2 * len(g.edges) * m * bpc
                nz += bpc * int(np.count_nonzero(st.q.take(send, axis=0)))
            for key, val in (("err2", e2), ("einf", einf), ("maxin", peak),
                             ("sat", sat), ("bits", bits), ("nz", nz)):
                cols[key].append(val)
            if have_bound:
                cols["bound"].append(float(bound_B(
                    k, cfg.h, cfg.s0, cfg.alpha, sp)))
            if mode == "ls":
                cols["ratio"].append(float(einf.max()
                                           / _gamma_ref(cfg.gamma, k)))
            cols["drift"].append(float("nan") if k == 0 else float(
                np.abs(st.xhat - st.b[g.arcs[1]]).max()))
            b_prev = st.b
            if k > 0 and e2 < cfg.stop_tol:
                stop_reason = "error_tolerance"
                break
    except SaturationError as exc:
        return None, exc.round_index
    cols["stop_reason"], cols["x_final"] = stop_reason, st.x
    return cols, None


def _assert_trace_matches(tr, ref, mode):
    same = np.array_equal
    rows = len(ref["err2"])
    assert same(tr.k, np.arange(rows))
    assert same(tr.err2, ref["err2"])
    assert same(tr.err_inf_per_node, np.array(ref["einf"]))
    assert same(tr.max_quant_input, ref["maxin"], equal_nan=True)
    assert same(tr.saturation_count, ref["sat"])
    assert same(tr.bits_cum, ref["bits"])
    assert same(tr.bits_cum_nonzero, ref["nz"])
    assert (same(tr.bound_Bk, ref["bound"]) if ref["bound"]
            else tr.bound_Bk is None)
    assert (same(tr.ratio_err_gamma, ref["ratio"]) if mode == "ls"
            else tr.ratio_err_gamma is None)
    assert (same(tr.drift, ref["drift"], equal_nan=True) if mode == "robust"
            else tr.drift is None)
    assert tr.stop_reason == ref["stop_reason"]
    assert same(tr.x_final, ref["x_final"])
    for col in (tr.saturation_count, tr.bits_cum, tr.bits_cum_nonzero):
        assert col.dtype == np.int64


def _random_connected_graph(n, extra, seed):
    """A random spanning tree on n nodes plus ``extra`` random edges."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n) + 1
    edges = {tuple(sorted((int(order[i]), int(order[rng.integers(i)]))))
             for i in range(1, n)}
    for _ in range(extra):
        i, j = rng.choice(n, size=2, replace=False) + 1
        edges.add((int(min(i, j)), int(max(i, j))))
    return Graph(n, frozenset(edges))


def _run_mode(p, g, cfg, mode, noise):
    if mode == "exact":
        return run_exact(p, g, cfg)
    if mode == "ls":
        return run_ls(p, g, cfg)
    return run_robust(p, g, cfg, noise)


@given(n=st.integers(3, 7), m=st.integers(1, 3), extra=st.integers(0, 6),
       seed=st.integers(0, 2**16), mode=st.sampled_from(["exact", "ls",
                                                         "robust"]),
       K=st.sampled_from([1, 2, 5, 50]), gain=st.sampled_from([0.3, 0.9]),
       scale=st.sampled_from([0.05, 1.0, 20.0]),
       stop_tol=st.sampled_from([0.0, 0.5, 2.0]),
       strict=st.booleans(), max_rounds=st.integers(1, 40),
       block=st.integers(1, 7))
@settings(max_examples=60, deadline=None)
# the stop tolerance hit inside a block of 3 rounds (exact at round 10, LS
# at 13), and strict saturation raising (exact at round 5, LS at 32)
@example(n=5, m=2, extra=2, seed=10, mode="exact", K=50, gain=0.9, scale=1.0,
         stop_tol=0.5, strict=False, max_rounds=40, block=3)
@example(n=5, m=2, extra=2, seed=15, mode="ls", K=50, gain=0.9, scale=1.0,
         stop_tol=0.5, strict=False, max_rounds=40, block=3)
@example(n=5, m=2, extra=2, seed=4, mode="exact", K=1, gain=0.9, scale=1.0,
         stop_tol=0.0, strict=True, max_rounds=40, block=3)
@example(n=5, m=2, extra=2, seed=12, mode="ls", K=1, gain=0.9, scale=1.0,
         stop_tol=0.0, strict=True, max_rounds=40, block=3)
def test_trace_columns_match_per_round_reference(n, m, extra, seed, mode, K,
                                                 gain, scale, stop_tol,
                                                 strict, max_rounds, block):
    # blocks of ``block`` rounds (fewer in robust runs, whose blocks also
    # hold the codec states), so that runs span several blocks and stop
    # anywhere in one
    if n <= m:
        n = m + 1
    g = _random_connected_graph(n, extra, seed)
    _check_against_reference(g, m, seed, mode, K, gain, scale, stop_tol,
                             strict, max_rounds, block)


def _check_against_reference(g, m, seed, mode, K, gain, scale, stop_tol,
                             strict, max_rounds, block):
    """A random ``mode`` system on ``g`` at ``gain`` times the optimal
    gain, recorded in blocks of ``block`` rounds, against
    :func:`_reference_trace`."""
    n = g.node_count
    p = random_problem(n, m, "ls" if mode == "ls" else "exact", seed=seed)
    fd_min, fd_max = stacked_extremes(p, build_laplacian(g))
    h = gain * 2.0 / (fd_min + fd_max)
    common = dict(K=K, max_rounds=max_rounds, strict_saturation=strict,
                  cx=1.0, stop_tol=stop_tol, seed=seed)
    noise = None
    if mode == "ls":
        cfg = LSConfig(h=h, s_r=scale, gamma=GammaSchedule(k0=5.0 + seed % 40,
                                                           delta=0.75),
                       **common)
    else:
        cfg = ExactConfig(h=h, alpha=1.0 - 0.5 * h * fd_min, s0=scale,
                          **common)
        if mode == "robust":
            noise = NoiseModel(damping=0.9, init_error_range=(0.0, 0.3),
                               roundoff_amp=1e-3, seed=seed,
                               init_errors_enabled=bool(seed % 2),
                               roundoff_enabled=True)
    ref, sat_round = _reference_trace(p, g, cfg, mode, noise)
    sp = build_stacked(p, build_laplacian(g))
    member = (xi_ls_membership(h, cfg.gamma.beta0, K, sp) if mode == "ls"
              else xi_membership(cfg.alpha, h, K, sp))
    with (contextlib.nullcontext() if member
          else pytest.warns(RuntimeWarning)), \
            mock.patch.object(solver, "_BLOCK_ENTRIES", block * n * m):
        if sat_round is not None:
            with pytest.raises(SaturationError) as exc:
                _run_mode(p, g, cfg, mode, noise)
            assert exc.value.round_index == sat_round
            return
        tr = _run_mode(p, g, cfg, mode, noise)
    _assert_trace_matches(tr, ref, mode)


@pytest.mark.parametrize("mode", ["exact", "ls", "robust"])
@pytest.mark.parametrize("n, m, max_rounds, block", [
    (200, 1, 30, 12), (200, 3, 30, 12), (200, 10, 30, 12),
    (5, 1, 120, 50), (5, 3, 120, 50)],
    ids=["cycle200_m1", "cycle200_m3", "cycle200_m10", "cycle5_m1",
         "cycle5_m3"])
def test_trace_columns_on_both_sides_of_the_shape_rule(n, m, max_rounds,
                                                       block, mode):
    # codec.max_last_axis goes column by column from 8 m rows on. On the
    # 200-node cycle the quantizer peaks and err_inf_per_node go column by
    # column, and max_quant_input and the LS ratio (at most 12 and 31 rows
    # of N = 200) reduce over the axis. On the 5-node cycle the quantizer
    # peaks reduce, and err_inf_per_node, the LS ratio (121 rows) and the
    # max_quant_input of exact and LS blocks (50 rows) go column by column.
    # Runs span several blocks; a robust block holds a third of the rounds,
    # as the codec rows (N + 2E) are 3N.
    _check_against_reference(generate_graph("cycle", n), m, 7, mode, K=5,
                             gain=0.9, scale=1.0, stop_tol=0.0, strict=False,
                             max_rounds=max_rounds, block=block)


def test_trace_columns_across_a_full_block(ex1_problem, fig1_graph):
    # the default block of a five-node, m = 2 run holds 6553 rounds of x;
    # with noise the 15 codec rows (5 predictors, 10 decoders) cut the
    # recorder's and the noise draws' blocks to 2184 rounds
    rows = solver._BLOCK_ENTRIES // 10
    cfg = ExactConfig(h=0.0213, alpha=0.998, s0=10.0, K=300,
                      max_rounds=rows + 20, cx=1.0, seed=2)
    noise = NoiseModel(damping=0.95, roundoff_amp=1e-4, seed=3,
                       roundoff_enabled=True)
    ref, _ = _reference_trace(ex1_problem, fig1_graph, cfg, "robust", noise)
    tr = run_robust(ex1_problem, fig1_graph, cfg, noise)
    assert tr.rounds == rows + 20 and tr.saturation_count[-1] > 0
    _assert_trace_matches(tr, ref, "robust")


# ---------------------------------------------------------------------------
# the robust codec against a per-round codec loop
# ---------------------------------------------------------------------------

def _per_round_codec(p, g, cfg, noise):
    """The robust kernel's rounds from a codec loop that keeps b and xhat
    apart, gathers with ``sq[send]``, draws b's and then xhat's round-off
    noise in two ``uniform`` calls per round and takes the drift per round.
    Yields (k, x, b, xhat, q, peaks, drift); q is int64, drift nan at 0."""
    n, m, K = p.n_nodes, p.dim, cfg.K
    recv, send = g.arcs
    heard_by = per_receiver_sum(recv, n, m)
    degc = g.degrees()[:, None]
    x = np.random.default_rng(cfg.seed).uniform(-cfg.cx, cfg.cx, (n, m))
    b, xhat = np.zeros((n, m)), np.zeros((len(send), m))
    rng, d, amp = np.random.default_rng(noise.seed), noise.damping, None
    if noise.init_errors_enabled:
        b = rng.uniform(*noise.init_error_range, size=b.shape)
        xhat = rng.uniform(*noise.init_error_range, size=xhat.shape)
    if noise.roundoff_enabled:
        amp = noise.roundoff_amp
    yield 0, x, b, xhat, None, None, float("nan")
    for k in range(1, cfg.max_rounds + 1):
        grad = (np.einsum("ij,ij->i", p.H, x) - p.z)[:, None] * p.H
        s_prev = cfg.s0 * cfg.alpha ** (k - 1)
        x = x + cfg.h * ((heard_by(xhat) - degc * b) - grad)
        v = (x - b) / s_prev
        peaks = np.abs(v).max(axis=1)
        assert np.isfinite(peaks).all()
        if cfg.strict_saturation and (peaks > K + 0.5).any():
            raise SaturationError(k)
        q = np.copysign(np.minimum(np.ceil(np.abs(v) - 0.5), K),
                        v).astype(np.int64)
        sq = s_prev * q
        b = sq + d * b
        xhat = sq[send] + d * xhat
        if amp is not None:
            b = b + rng.uniform(-amp, amp, size=b.shape)
            xhat = xhat + rng.uniform(-amp, amp, size=xhat.shape)
        yield k, x, b, xhat, q, peaks, float(np.abs(xhat - b[send]).max())


def _assert_codec_matches(p, g, cfg, noise):
    ref = list(_per_round_codec(p, g, cfg, noise))
    for st, (k, x, b, xhat, q, peaks, _) in zip(
            iter_rounds(p, g, cfg, noise), ref, strict=True):
        assert st.k == k and np.array_equal(st.x, x)
        assert np.array_equal(st.b, b) and np.array_equal(st.xhat, xhat)
        assert (st.q is None if q is None else np.array_equal(st.q, q))
        assert (st.peaks is None if peaks is None
                else np.array_equal(st.peaks, peaks))
    y = classify(p).solution
    tr = run_robust(p, g, cfg, noise)
    _, xs, _, _, _, pk, drift = zip(*ref)
    sat = np.cumsum([0] + [int((pk_k > cfg.K + 0.5).sum())
                           for pk_k in pk[1:]])
    assert np.array_equal(tr.drift, drift, equal_nan=True)
    assert np.array_equal(tr.err2, [np.linalg.norm(x - y) for x in xs])
    assert np.array_equal(tr.max_quant_input,
                          [np.nan] + [pk_k.max() for pk_k in pk[1:]],
                          equal_nan=True)
    assert np.array_equal(tr.saturation_count, sat)
    assert np.array_equal(tr.x_final, xs[-1])


@pytest.mark.parametrize("damping", [0.95, 1.0])
@pytest.mark.parametrize("init_errors", [False, True], ids=["i0", "i1"])
def test_robust_codec_matches_per_round_codec_fig1(ex1_problem, fig1_graph,
                                                   damping, init_errors):
    # 5000 rounds: two full noise blocks of 2184 rounds and a partial one
    c = CONSTANTS["robustness"]
    cfg = ExactConfig(h=c["h"], alpha=c["alpha"], s0=c["s0"], K=c["K"],
                      max_rounds=5000, stop_tol=0.0, cx=1.0, seed=3)
    noise = NoiseModel(damping=damping,
                       init_error_range=(c["init_lo"], c["init_hi"]),
                       roundoff_amp=c["roundoff"], seed=11,
                       init_errors_enabled=init_errors, roundoff_enabled=True)
    _assert_codec_matches(ex1_problem, fig1_graph, cfg, noise)


def test_robust_codec_matches_per_round_codec_cycle200():
    # 600 codec rows of m = 3: noise blocks of 36 rounds
    g = generate_graph("cycle", 200)
    p = random_problem(200, 3, "exact", seed=6)
    fd_min, fd_max = stacked_extremes(p, build_laplacian(g))
    h = 1.9 / (fd_min + fd_max)
    cfg = ExactConfig(h=h, alpha=1.0 - 0.5 * h * fd_min, s0=1.0, K=100,
                      max_rounds=100, stop_tol=0.0, cx=1.0, seed=8)
    noise = NoiseModel(damping=0.95, init_error_range=(0.0, 0.5),
                       roundoff_amp=1e-4, seed=9, init_errors_enabled=True,
                       roundoff_enabled=True)
    with pytest.warns(RuntimeWarning):     # outside Xi(K) at K = 100
        _assert_codec_matches(p, g, cfg, noise)


def test_robust_strict_saturation_raises_mid_block(ex1_problem, fig1_graph):
    # round-off outgrows the shrinking scale: the first saturation falls
    # inside the third noise block of 2184 rounds
    c = CONSTANTS["robustness"]
    cfg = ExactConfig(h=c["h"], alpha=c["alpha"], s0=c["s0"], K=c["K"],
                      max_rounds=8000, stop_tol=0.0, strict_saturation=True,
                      cx=1.0, seed=3)
    noise = NoiseModel(damping=c["damping"], roundoff_amp=c["roundoff"],
                       seed=11, roundoff_enabled=True)
    with pytest.raises(SaturationError) as ref:
        list(_per_round_codec(ex1_problem, fig1_graph, cfg, noise))
    codec_rows = ex1_problem.n_nodes + len(fig1_graph.arcs[1])
    block = solver._BLOCK_ENTRIES // (codec_rows * ex1_problem.dim)
    assert ref.value.round_index > 2 * block
    assert (ref.value.round_index - 1) % block > 0
    with pytest.raises(SaturationError) as exc:
        run_robust(ex1_problem, fig1_graph, cfg, noise)
    assert exc.value.round_index == ref.value.round_index


@given(alpha=st.floats(0.05, 0.99999), k_max=st.integers(0, 400))
@settings(max_examples=200, deadline=None)
def test_bound_B_array_matches_per_round_calls(alpha, k_max):
    # includes k = 2, where numpy's scalar pow squares and its vectorised
    # pow may round differently
    sp = SimpleNamespace(fd_min=(1.0 - alpha) / 0.4 * 1.01, lambdaN=3.2,
                         m=2, n=5)
    args = (0.4, 1.7, alpha, sp)
    ks = np.arange(k_max + 1)
    per_round = [float(bound_B(int(k), *args)) for k in ks]
    assert np.array_equal(bound_B(ks, *args), per_round)


# ---------------------------------------------------------------------------
# CSV rendering against the per-row renderer
# ---------------------------------------------------------------------------

def _csv_per_row(tr):
    """The trace's CSV rendered one row at a time, as a reference."""
    buf = io.StringIO()
    buf.write(f"# mode={tr.mode} prng={tr.prng} seed={tr.seed}\n")
    buf.write("k,err2,bound_Bk,ratio_err_gamma,max_quant_input,"
              "saturation_count,bits_cum\n")

    def num(v):
        if v is None or (isinstance(v, float) and math.isnan(v)):
            return ""
        return f"{v:.17g}"

    for idx in range(len(tr.k)):
        row = [
            str(int(tr.k[idx])),
            num(float(tr.err2[idx])),
            num(float(tr.bound_Bk[idx])) if tr.bound_Bk is not None else "",
            num(float(tr.ratio_err_gamma[idx]))
            if tr.ratio_err_gamma is not None else "",
            num(float(tr.max_quant_input[idx])),
            str(int(tr.saturation_count[idx])),
            str(int(tr.bits_cum[idx])),
        ]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def test_csv_text_matches_per_row_renderer(ex1_setting, ex4_setting):
    p1, g, _, _, _ = ex1_setting
    p4 = ex4_setting[0]
    exact = run_exact(p1, g, ExactConfig(h=_ex1_h(ex1_setting), alpha=0.98,
                                         s0=1.0, K=300, max_rounds=400))
    # the LS run (K = 900) and the robust run (K = 3) lie outside the sets
    with pytest.warns(RuntimeWarning):
        ls = run_ls(p4, g, LSConfig(h=0.0853, K=900, s_r=0.82,
                                    gamma=GammaSchedule(k0=26.0, delta=0.85),
                                    max_rounds=400, cx=0.5))
        robust = run_robust(p1, g, ExactConfig(h=0.0213, alpha=0.998,
                                               s0=0.01, K=3, max_rounds=400),
                            NoiseModel(damping=0.95, roundoff_amp=1e-4,
                                       roundoff_enabled=True))
    base = run_config(parse_config(
        "mode = baseline\nproblem.builtin = ex1\ngraph.builtin = fig1\n"
        "solver.h = 0.3\nmax_rounds = 400\n"))
    assert base.bound_Bk is None and np.isnan(base.max_quant_input).all()
    assert robust.saturation_count[-1] > 0
    odd = dataclasses.replace(exact, err2=exact.err2.copy())
    odd.err2[1:5] = [np.nan, np.inf, -np.inf, -0.0]
    for tr in (exact, ls, robust, base, odd):
        assert tr.csv_text() == _csv_per_row(tr)


@given(k0=st.floats(0.5, 500.0), delta=st.floats(0.51, 1.0),
       k=st.integers(0, 10**6))
@settings(max_examples=300, deadline=None)
def test_gamma_matches_numpy_scalar_formula(k0, delta, k):
    sched = GammaSchedule(k0=k0, delta=delta)
    assert sched.gamma(k) == _gamma_ref(sched, k)


# ---------------------------------------------------------------------------
# the unquantized baseline against its former per-round recorder
# ---------------------------------------------------------------------------

def _baseline_reference(p, g, cfg):
    """The baseline recorded the way it was before ``solver._run`` recorded
    it: ``unquantized_step`` on the stacked state, then ``np.linalg.norm``
    and ``.max(axis=1)`` per round. Returns the columns, or the round whose
    err2 is not finite."""
    sp = build_stacked(p, build_laplacian(g))
    y = classify(p).solution
    n, m = p.n_nodes, p.dim
    x = (np.random.default_rng(cfg.seed).uniform(-cfg.cx, cfg.cx, n * m)
         if cfg.cx is not None else np.zeros(n * m))
    target = np.tile(y, n)
    err2 = [float(np.linalg.norm(x - target))]
    einf = [np.abs((x - target).reshape(n, m)).max(axis=1)]
    stop_reason = "max_rounds"
    for k in range(1, cfg.max_rounds + 1):
        gk = float(cfg.gamma.gamma(k - 1)) if cfg.gamma else 1.0
        x = unquantized_step(x, cfg.h, gk, sp.Lm, sp.Hd, sp.zH)
        e2 = float(np.linalg.norm(x - target))
        if not math.isfinite(e2):
            return k
        err2.append(e2)
        einf.append(np.abs((x - target).reshape(n, m)).max(axis=1))
        if e2 < cfg.stop_tol:
            stop_reason = "error_tolerance"
            break
    return dict(err2=np.array(err2), einf=np.array(einf),
                x_final=x.reshape(n, m), stop_reason=stop_reason)


@pytest.mark.parametrize("cfg, stop_reason", [
    (BaselineConfig(h=0.3, max_rounds=7000, stop_tol=0.0), "max_rounds"),
    (BaselineConfig(h=0.3, gamma=GammaSchedule(k0=26.0, delta=0.85),
                    max_rounds=400), "max_rounds"),
    (BaselineConfig(h=0.3, cx=0.5, seed=3, max_rounds=400), "max_rounds"),
    (BaselineConfig(h=0.3, cx=0.5, seed=3), "error_tolerance"),
], ids=["gain1_full_block", "gamma", "cx_seed", "error_tolerance"])
def test_baseline_columns_match_per_round_reference(ex1_setting, cfg,
                                                    stop_reason):
    # the first case runs past the 6553-round block of a five-node, m = 2 run
    p, g, _, _, _ = ex1_setting
    ref = _baseline_reference(p, g, cfg)
    tr = run_baseline(p, g, cfg)
    assert tr.stop_reason == ref["stop_reason"] == stop_reason
    rows = len(ref["err2"])
    assert np.array_equal(tr.k, np.arange(rows))
    for col, key in ((tr.err2, "err2"), (tr.err_inf_per_node, "einf"),
                     (tr.x_final, "x_final")):
        assert col.shape == ref[key].shape
        assert col.tobytes() == ref[key].tobytes()
    assert tr.max_quant_input.shape == (rows,)
    assert np.isnan(tr.max_quant_input).all()
    for col in (tr.saturation_count, tr.bits_cum, tr.bits_cum_nonzero):
        assert col.dtype == np.int64 and np.array_equal(col, np.zeros(rows))
    assert tr.bound_Bk is None and tr.ratio_err_gamma is None
    assert tr.drift is None and tr.mode == "baseline" and tr.seed == cfg.seed


def test_baseline_overflow_raises_at_the_reference_round(ex1_setting):
    p, g, _, _, _ = ex1_setting
    cfg = BaselineConfig(h=5.0, max_rounds=2000)
    with pytest.warns(RuntimeWarning, match="overflow"):
        k = _baseline_reference(p, g, cfg)
        with pytest.raises(ValueError, match=f"baseline err2 is not finite "
                           f"at round {k}: the run diverges"):
            run_baseline(p, g, cfg)
    assert k == 116


@pytest.mark.parametrize("kwargs", [dict(h=0.0), dict(h=0.3, max_rounds=0)])
def test_baseline_config_validates_itself(kwargs):
    with pytest.raises(ValueError, match="invalid baseline configuration"):
        BaselineConfig(**kwargs)
