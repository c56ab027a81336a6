import math

import numpy as np
import pytest

from quantnet.graph import build_laplacian, generate_graph
from quantnet.planner import (GammaSchedule, alpha_star, h_hat_exact,
                              h_hat_ls, h_star_exact, kmin_from_m, m_prime,
                              m_value, plan_exact, plan_ls, s0_lower_bound,
                              spectral_data, sr_lower_bound, xi_ls_membership,
                              xi_membership)


def test_spectral_data_checks_and_returns_the_summary(ex1_setting):
    p, _, lap, ops, _ = ex1_setting
    assert spectral_data(ops, lap, p.dim, p.n_nodes) is ops
    assert (ops.m, ops.n) == (2, 5)
    assert (ops.lambda2, ops.lambdaN, ops.dstar) == (lap.lambda2,
                                                     lap.lambdaN, lap.dstar)
    other = build_laplacian(generate_graph("cycle", p.n_nodes))
    with pytest.raises(ValueError, match="Laplacian"):
        spectral_data(ops, other, p.dim, p.n_nodes)
    for m, n in ((p.dim + 1, p.n_nodes), (p.dim, p.n_nodes + 1)):
        with pytest.raises(ValueError, match="does not match"):
            spectral_data(ops, lap, m, n)


def test_kmin_from_m():
    assert kmin_from_m(225.4) == 225
    assert kmin_from_m(225.5) == 225
    assert kmin_from_m(225.5 + 1e-6) == 226
    assert kmin_from_m(0.2) == 0


def test_m_value_published_point(ex1_setting):
    # published working point: h = 1.98/(fd_min+fd_max), alpha = 0.98
    _, _, _, _, sp = ex1_setting
    h = 0.99 * sp.h_cap_exact
    mval = m_value(0.98, h, sp)
    assert kmin_from_m(mval) == 225


def test_m_value_monotone_and_pole(ex1_setting):
    _, _, _, _, sp = ex1_setting
    h = 0.5 * sp.h_cap_exact
    rho = 1.0 - h * sp.fd_min
    alphas = np.linspace(rho + 1e-4, 0.999, 20)
    vals = [m_value(float(a), h, sp) for a in alphas]
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
    with pytest.raises(ValueError):
        m_value(rho, h, sp)


def test_s0_bound_branches(ex1_setting):
    _, _, _, _, sp = ex1_setting
    h = 0.5 * sp.h_cap_exact
    rho = 1.0 - h * sp.fd_min
    alpha = (rho + 1.0) / 2
    # enormous alphabet: the state-magnitude branch vanishes and the
    # decay-margin branch takes over
    big_k = s0_lower_bound(alpha, h, 1.0, 1.0, 10**9, sp)
    expect = 2 * (alpha - rho) * (rho + h * sp.lambdaN) / (h * sp.lambdaN)
    assert big_k == pytest.approx(expect, rel=1e-12)
    # huge initial state: the magnitude branch dominates
    big_cx = s0_lower_bound(alpha, h, 1e9, 0.0, 10, sp)
    assert big_cx == pytest.approx(1e9 / 10.5, rel=1e-6)
    assert s0_lower_bound(alpha, h, 1.0, 1.0, 10, sp) > 0


def test_xi_membership_basics(ex1_setting):
    _, _, _, _, sp = ex1_setting
    h = 0.99 * sp.h_cap_exact
    assert xi_membership(0.98, h, 300, sp)
    assert xi_membership(0.98, h, 225, sp)       # smallest feasible alphabet
    assert not xi_membership(0.98, h, 224, sp)
    assert not xi_membership(0.98, h, 100, sp)
    assert not xi_membership(1.0, h, 300, sp)    # alpha must be < 1
    assert not xi_membership(0.98, sp.h_cap_exact, 300, sp)
    assert not xi_membership(0.9, h, 300, sp)    # below 1 - h fd_min


def test_xi_membership_published_ls_rows(ex1_setting):
    # rows of the published small-alphabet table for the exact mode
    _, _, _, _, sp = ex1_setting
    for K, alpha, h in ((3, 0.9998, 0.0038), (6, 0.9996, 0.0077),
                        (12, 0.9992, 0.0154)):
        assert xi_membership(alpha, h, K, sp), (K, alpha, h)


def test_h_hat_exact_properties(ex1_setting):
    _, _, _, _, sp = ex1_setting
    # grows roughly linearly in K, always positive, rejects bad eps
    vals = [h_hat_exact(K, 0.5, sp) for K in (3, 6, 12, 100)]
    assert all(v > 0 for v in vals)
    assert vals[0] < vals[1] < vals[2] < vals[3]
    with pytest.raises(ValueError):
        h_hat_exact(3, 0.0, sp)
    with pytest.raises(ValueError):
        h_hat_exact(3, 1.0, sp)


def test_h_hat_exact_yields_member(ex1_setting):
    _, _, _, _, sp = ex1_setting
    for K in (3, 12, 100):
        for eps in (0.2, 0.5, 0.8):
            h = 0.999 * h_star_exact(K, eps, sp)
            alpha = 1.0 - (1.0 - eps) * h * sp.fd_min
            assert xi_membership(alpha, h, K, sp), (K, eps)


def test_plan_exact_self_consistent(ex1_setting):
    _, _, _, _, sp = ex1_setting
    plan = plan_exact(300, 0.5, sp, cx=5.0, cw=0.0)
    assert plan.member
    assert 0 < plan.h < sp.h_cap_exact
    assert plan.rho_h < plan.alpha < 1.0
    assert plan.M < 300.5
    assert plan.Kmin <= 300
    assert plan.s0_min > 0
    with pytest.raises(ValueError):
        plan_exact(0, 0.5, sp)


@pytest.mark.parametrize("eps,why", [(1e-12, "too small"),
                                     (1e-7, "too small"),
                                     (0.9999999999999998, "too close to 1")])
def test_plan_exact_names_eps_where_float64_loses_the_slice(ex1_setting, eps,
                                                            why):
    # small eps: h* scales with eps, so alpha - rho_h = eps h fd_min is
    # O(eps^2) and rounds away; eps near 1: alpha rounds to 1
    _, _, _, _, sp = ex1_setting
    with pytest.raises(ValueError, match=f"eps = {eps!r} is {why}"):
        plan_exact(2, eps, sp)
    assert plan_exact(2, 1e-6, sp).member


def test_alpha_star_properties(ex1_setting):
    _, _, _, _, sp = ex1_setting
    a3 = alpha_star(3, sp)
    a12 = alpha_star(12, sp)
    a100 = alpha_star(100, sp)
    assert 0 < a100 < a12 < a3 < 1  # larger alphabet, faster decay allowed
    # every reported value is actually attained by a feasible pair
    for K, a in ((3, a3), (12, a12)):
        assert a < 1.0 - 1e-5


@pytest.mark.parametrize("K", [0, -3])
def test_alpha_star_rejects_k_below_1(ex1_setting, K):
    _, _, _, _, sp = ex1_setting
    with pytest.raises(ValueError, match="K must be at least 1"):
        alpha_star(K, sp)


def test_m_prime_limits(ex4_setting):
    _, _, _, _, sp = ex4_setting
    h, beta0 = 0.02, 1.001
    m1, m2, mp, kraw = m_prime(h, beta0, sp, cx=1.0)
    assert m1 > 0 and m2 > 0 and mp > 0
    assert kraw == kmin_from_m(mp)
    # doubling the initial-state radius increases M1 but leaves M2 alone
    m1b, m2b, _, _ = m_prime(h, beta0, sp, cx=2.0)
    assert m1b > m1 and m2b == pytest.approx(m2, rel=1e-15)
    # pole when 1/beta0 hits the contraction factor
    with pytest.raises(ValueError):
        m_prime(h, 1.0 / (1.0 - h * sp.lambda2), sp, cx=1.0)


def test_xi_ls_membership_window(ex4_setting):
    _, _, _, _, sp = ex4_setting
    assert not xi_ls_membership(sp.h_cap_ls, 1.0001, 10**6, sp)
    assert not xi_ls_membership(0.01, 1.0, 10**6, sp)  # beta0 must exceed 1
    h = 0.01
    assert not xi_ls_membership(h, 1.0 / (1.0 - h * sp.lambda2), 10**6, sp)
    assert xi_ls_membership(h, 1.0001, 10**6, sp)


def test_h_hat_ls_positive_increasing(ex4_setting):
    _, _, _, _, sp = ex4_setting
    vals = [h_hat_ls(K, 0.5, sp) for K in (10, 100, 1000)]
    assert all(v > 0 for v in vals)
    assert vals[0] < vals[1] < vals[2]


def test_plan_ls_self_consistent(ex4_setting):
    _, _, _, _, sp = ex4_setting
    plan = plan_ls(10, 0.5, sp, delta=0.85, cx=1.0)
    assert plan.member
    assert 0 < plan.h < sp.h_cap_ls
    assert 1.0 < plan.beta0 < 1.0 / plan.rho_hat
    assert plan.Mprime <= 10.5
    assert plan.Kmin_ls <= 10
    assert plan.sr_min > 0
    assert plan.gamma is not None
    # schedule offset round-trips: beta(0) of the schedule equals beta0
    assert plan.gamma.beta0 == pytest.approx(plan.beta0, rel=1e-12)


@pytest.mark.parametrize("K", [1, 2, 3, 10, 300])
def test_plans_store_the_one_membership_check(ex1_setting, ex4_setting, K):
    sp1, sp4 = ex1_setting[4], ex4_setting[4]
    exact = plan_exact(K, 0.5, sp1)
    assert exact.member == xi_membership(exact.alpha, exact.h, K, sp1)
    ls = plan_ls(K, 0.5, sp4, delta=0.85)
    assert ls.member == xi_ls_membership(ls.h, ls.beta0, K, sp4)


def test_plan_ls_outside_the_set_returns_member_false(ex4_setting):
    # at K = 1 the eps-slice gain gives Mprime just above K + 1/2
    plan = plan_ls(1, 0.5, ex4_setting[4], delta=0.85)
    assert plan.member is False
    assert 1.5 < plan.Mprime < 1.51


def test_sr_lower_bound_branches(ex4_setting):
    _, _, _, _, sp = ex4_setting
    assert sr_lower_bound(0.01, 10**9, 0.0, sp, m1=3.0, m2=2.0) == \
        pytest.approx(1.5)
    val = sr_lower_bound(0.01, 10, 1e9, sp, m1=3.0, m2=2.0)
    assert val == pytest.approx(1e9 * (1 + 0.01 * sp.hd_inf_norm) / 10.5,
                                rel=1e-6)
    with pytest.raises(ValueError):
        sr_lower_bound(0.01, 10, 1.0, sp, m1=1.0, m2=0.0)


def test_gamma_schedule_k0_beta0_roundtrip():
    sched = GammaSchedule(k0=26.0, delta=0.85)
    beta0 = sched.beta0
    k0_back = 1.0 / (beta0 ** (1.0 / 0.85) - 1.0)
    assert k0_back == pytest.approx(26.0, rel=1e-12)
    assert math.isclose(sched.gamma(26), (26 / 52) ** 0.85)
