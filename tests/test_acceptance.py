"""End-to-end acceptance suite.

Twelve numbered criteria, one test (or one small group of subtests) per
criterion. Each asserts published or derived values at fixed tolerances;
the suite is intentionally not seeded from the library's own intermediate
results except where a criterion is explicitly self-referential.

Known honest failures (kept failing on purpose; see the repository notes):
  - criterion 7: the ratio band [0.98, 1.02] holds only for small K*theta
    (the feasible decay factor plateaus once the gain cap binds);
  - criterion 8: the printed level functional gives 2770, not 870, and the
    published small-alphabet schedule offsets fall outside the printed
    feasibility window;
  - criterion 11 (damped round-off floor): the median final err2 is about
    1.22e-2, above the 1e-2 target. The damped predictor forgets, so the
    quantizer input grows as 1/s(k); the runs saturate from round 4973 on
    and their error freezes there.
"""

import math

import numpy as np
import pytest

from quantnet.cli import _oracle_deviation
from quantnet.codec import NoiseModel, quantize_vec
from quantnet.graph import build_laplacian, generate_graph
from quantnet.harness import (CONSTANTS, parse_config, random_problem,
                              run_config)
from quantnet.planner import (GammaSchedule, alpha_star, kmin_from_m,
                              m_prime, m_value, s0_lower_bound, spectral_data,
                              sr_lower_bound, xi_ls_membership, xi_membership)
from quantnet.problem import build_stacked, classify, theta_n
from quantnet.solver import (ExactConfig, LSConfig, run_exact, run_ls,
                             run_robust, traces_dynamics_equal)


@pytest.fixture(scope="module")
def five_exact(ex1_setting):
    return ex1_setting


# ---------------------------------------------------------------------------
# 1. quantizer exactness on an exhaustive grid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K", [1, 2, 3, 8])
def test_criterion_01_quantizer_exact_grid(K):
    z = np.arange(-10.0, 10.0 + 1e-9, 1e-3)
    q, _ = quantize_vec(z, K)
    qneg, _ = quantize_vec(-z, K)
    assert np.array_equal(qneg, -q)                      # odd symmetry
    assert np.all(np.diff(q) >= 0)                       # monotone
    assert q.min() >= -K and q.max() <= K                # range
    in_range = np.abs(z) <= K + 0.5
    assert np.all(np.abs(z[in_range] - q[in_range]) <= 0.5 + 1e-12)
    assert np.array_equal(q, q.astype(np.int64))         # integer outputs


# ---------------------------------------------------------------------------
# 2. published planner numbers for the five-node exact system
# ---------------------------------------------------------------------------

def test_criterion_02_planner_numbers(five_exact):
    _, _, _, ops, sp = five_exact
    h = 1.98 / (ops.fd_min + ops.fd_max)
    assert abs(h - 0.4215) <= 5e-4
    rho = 1.0 - h * ops.fd_min
    assert abs(rho - 0.9554) <= 5e-4
    assert abs(kmin_from_m(m_value(0.98, h, sp)) - 225) <= 1


# ---------------------------------------------------------------------------
# 3. per-step envelope with the computed initial-scale bound
# ---------------------------------------------------------------------------

def test_criterion_03_bound_dominates(five_exact):
    p, g, _, ops, sp = five_exact
    h = 1.98 / (ops.fd_min + ops.fd_max)
    K = kmin_from_m(m_value(0.98, h, sp))
    # x(0) = 0, so the state-magnitude constant is 0 and the deviation
    # constant is the sup-norm of the solution
    cw = float(np.abs(classify(p).solution).max())
    s0 = s0_lower_bound(0.98, h, 0.0, cw, K, sp)
    tr = run_exact(p, g, ExactConfig(h=h, alpha=0.98, s0=s0, K=K,
                                     max_rounds=3000))
    assert int(tr.saturation_count[-1]) == 0
    assert np.all(tr.err2[1:] <= tr.bound_Bk[1:])


# ---------------------------------------------------------------------------
# 4. the alphabet size does not alter unsaturated dynamics
# ---------------------------------------------------------------------------

def test_criterion_04_data_rate_inert(five_exact):
    p, g, _, ops, _ = five_exact
    h = 1.98 / (ops.fd_min + ops.fd_max)
    # K = 100 lies below Kmin = 225 and warns
    with pytest.warns(RuntimeWarning):
        traces = [run_exact(p, g, ExactConfig(h=h, alpha=0.98, s0=1.0, K=K,
                                              max_rounds=3000))
                  for K in (100, 300, 1000)]
    assert traces_dynamics_equal(traces[0], traces[1])
    assert traces_dynamics_equal(traces[0], traces[2])


# ---------------------------------------------------------------------------
# 5. exact-mode compact recursion agrees with the per-node simulation
# ---------------------------------------------------------------------------

def test_criterion_05_exact_oracle(five_exact):
    p, g, lap, ops, sp = five_exact
    h = 1.98 / (ops.fd_min + ops.fd_max)
    cfg = ExactConfig(h=h, alpha=0.98, s0=1.0, K=300, max_rounds=300)
    assert _oracle_deviation(p, g, cfg) < 1e-9


def test_criterion_05_exact_oracle_random():
    rng = np.random.default_rng(77)
    for trial in range(20):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(1, min(4, n - 1) + 1))
        p = random_problem(n, m, "exact", seed=trial)
        g = generate_graph("erdos_renyi", n, 0.6, seed=trial)
        lap = build_laplacian(g)
        ops = build_stacked(p, lap)
        h = 0.5 * 2.0 / (ops.fd_min + ops.fd_max)
        alpha = 1.0 - 0.5 * h * ops.fd_min
        cfg = ExactConfig(h=h, alpha=alpha, s0=2.0, K=2000, max_rounds=300)
        dev = _oracle_deviation(p, g, cfg)
        assert dev < 1e-9, (trial, n, m, dev)


# ---------------------------------------------------------------------------
# 6. published small-alphabet pairs are feasible
# ---------------------------------------------------------------------------

def test_criterion_06_small_alphabet_membership(five_exact):
    _, _, _, _, sp = five_exact
    for K, alpha, h in ((3, 0.9998, 0.0038), (6, 0.9996, 0.0077),
                        (12, 0.9992, 0.0154)):
        assert xi_membership(alpha, h, K, sp), (K, alpha, h)


# ---------------------------------------------------------------------------
# 7. scalability: best decay factor vs the exponential estimate
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cycle100():
    c = CONSTANTS["ex2"]
    p = random_problem(c["n"], c["m"], "exact", c["seed"])
    g = generate_graph(c["graph"], c["n"])
    lap = build_laplacian(g)
    ops = build_stacked(p, lap)
    sp = spectral_data(ops, lap, c["m"], c["n"])
    return sp, theta_n(ops, lap, c["m"], c["n"])


def test_criterion_07_alpha_star_lower_bound(cycle100):
    sp, theta = cycle100
    for t in (0.01, 0.02, 0.03, 0.05, 0.1):
        K = max(1, int(round(t / theta)))
        assert alpha_star(K, sp) > 1.0 - K * theta


@pytest.mark.parametrize("t", [0.01, 0.02, 0.03, 0.05, 0.1])
def test_criterion_07_alpha_star_ratio_band(cycle100, t):
    # KNOWN FAILURE for t >= 0.03: the feasible decay factor flattens out
    # once the gain cap 2/(fd_min+fd_max) binds, so the ratio drifts above
    # 1.02 while exp(-K*theta) keeps shrinking
    sp, theta = cycle100
    K = max(1, int(round(t / theta)))
    ratio = alpha_star(K, sp) / math.exp(-K * theta)
    assert 0.98 <= ratio <= 1.02, f"t={t} ratio={ratio:.6f}"


# ---------------------------------------------------------------------------
# 8. least-squares planner numbers
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def five_ls_sp(ex4_setting):
    return ex4_setting[4]


def test_criterion_08_kprime(five_ls_sp):
    # KNOWN FAILURE: the printed level functional evaluates to 2770 at the
    # published working point; the published figure is 870
    beta0 = GammaSchedule(26.0, 0.85).beta0
    _, _, mp, kraw = m_prime(0.0853, beta0, five_ls_sp, cx=0.0)
    assert abs(kraw - 870) <= 1, f"Kmin'={kraw} (Mprime={mp:.2f})"


def test_criterion_08_sr_bound(five_ls_sp):
    beta0 = GammaSchedule(26.0, 0.85).beta0
    m1, m2, _, _ = m_prime(0.0853, beta0, five_ls_sp, cx=0.0)
    assert 0.82 >= sr_lower_bound(0.0853, 900, 0.0, five_ls_sp, m1, m2)


@pytest.mark.parametrize("row", CONSTANTS["ex4_thm4"]["rows"],
                         ids=lambda r: f"K{r[0]}")
def test_criterion_08_table_rows_membership(five_ls_sp, row):
    # KNOWN FAILURE: each published schedule offset yields beta(0) above
    # 1/(1 - h*lambda2), outside the printed feasibility window, so neither
    # membership nor the printed reference-scale bound can hold
    K, k0, delta, h, s_r = row
    beta0 = (1.0 + 1.0 / k0) ** delta
    assert xi_ls_membership(h, beta0, K, five_ls_sp), \
        f"beta0={beta0:.6f} vs cap {1.0 / (1.0 - h * five_ls_sp.lambda2):.6f}"
    m1, m2, _, _ = m_prime(h, beta0, five_ls_sp, cx=0.0)
    assert s_r >= sr_lower_bound(h, K, 0.0, five_ls_sp, m1, m2)


# ---------------------------------------------------------------------------
# 9. least-squares convergence at the published working point
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ls_traces(ex4_setting):
    p, g, _, _, _ = ex4_setting
    sched = GammaSchedule(26.0, 0.85)
    # every K here lies below Kmin' = 2770 (criterion 8), so each run warns
    with pytest.warns(RuntimeWarning):
        return {K: run_ls(p, g, LSConfig(h=0.0853, K=K, s_r=0.82,
                                         gamma=sched, max_rounds=20000))
                for K in (300, 900, 1800)}


def test_criterion_09_ls_convergence(ls_traces, ex4_problem):
    tr = ls_traces[900]
    y = classify(ex4_problem).solution
    final = np.abs(tr.x_final - y[None, :]).max()
    assert final <= 5e-2
    tail = tr.ratio_err_gamma[10000:20001]
    assert np.max(tail) <= 10.0 * np.median(tail)


def test_criterion_09_ls_data_rate_inert(ls_traces):
    assert traces_dynamics_equal(ls_traces[300], ls_traces[900])
    assert traces_dynamics_equal(ls_traces[900], ls_traces[1800])


# ---------------------------------------------------------------------------
# 10. least-squares compact recursion agrees with the per-node simulation
# ---------------------------------------------------------------------------

def test_criterion_10_ls_oracle(ex4_setting):
    p, g, lap, ops, _ = ex4_setting
    cfg = LSConfig(h=0.0853, K=900, s_r=0.82,
                   gamma=GammaSchedule(26.0, 0.85), max_rounds=2000)
    with pytest.warns(RuntimeWarning):     # K = 900 < Kmin' = 2770
        assert _oracle_deviation(p, g, cfg) < 1e-8


# ---------------------------------------------------------------------------
# 11. damped codec robustness trends
# ---------------------------------------------------------------------------

def _robust_median(p, g, damping, init_enabled, roundoff_enabled):
    c = CONSTANTS["robustness"]
    cfg = ExactConfig(h=c["h"], alpha=c["alpha"], s0=c["s0"], K=c["K"],
                      max_rounds=c["max_rounds"])
    finals = []
    for seed in range(c["n_seeds"]):
        noise = NoiseModel(damping=damping,
                           init_error_range=(c["init_lo"], c["init_hi"]),
                           roundoff_amp=c["roundoff"], seed=seed,
                           init_errors_enabled=init_enabled,
                           roundoff_enabled=roundoff_enabled)
        finals.append(float(run_robust(p, g, cfg, noise).err2[-1]))
    return float(np.median(finals))


@pytest.mark.slow
def test_criterion_11_damped_roundoff_floor(ex1_problem, fig1_graph):
    # KNOWN MARGINAL FAILURE: at the published working point (damping 0.95,
    # s0 = 10, alpha = 0.998, K = 300) the damped predictor forgets
    # (b = s q + 0.95 b), so x - b does not shrink with the scale s(k) and
    # the quantizer input (x - b)/s(k) grows as 1/s(k). The runs first
    # saturate at round 4973-4974 and never recover: 75135-75140 of the
    # 10^5 node-rounds saturate, and max_quant_input is about 1.48e8 at
    # k = 10^4. err2 then stays frozen (without round-off at 1.818e-4 from
    # k = 10^4 on). The median, 1.2226e-2, is the error at which saturation
    # froze the runs, just above the 1e-2 target; it is not a noise floor.
    med = _robust_median(ex1_problem, fig1_graph, 0.95, False, True)
    assert med <= 1e-2, f"median final err2 {med:.4g}"


@pytest.mark.slow
def test_criterion_11_undamped_much_worse(ex1_problem, fig1_graph):
    damped_init = _robust_median(ex1_problem, fig1_graph, 0.95, True, False)
    undamped_init = _robust_median(ex1_problem, fig1_graph, 1.0, True, False)
    assert undamped_init >= 10.0 * damped_init


# ---------------------------------------------------------------------------
# 12. byte determinism of configured runs
# ---------------------------------------------------------------------------

def test_criterion_12_determinism(tmp_path):
    text = """
mode = robust
problem.builtin = ex1
graph.builtin = fig1
solver.h = 0.0213
solver.alpha = 0.998
solver.s0 = 10
solver.K = 300
max_rounds = 2000
seed = 3
noise.damping = 0.95
noise.roundoff = 1e-4
noise.roundoff_enabled = true
"""
    cfg = parse_config(text)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_config(cfg).save_csv(a)
    run_config(cfg).save_csv(b)
    assert a.read_bytes() == b.read_bytes()
