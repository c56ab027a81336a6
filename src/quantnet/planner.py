"""Closed-form parameter calculus for the quantized solver.

Everything here is pure arithmetic on the spectral summary of a
(problem, graph) pair, :class:`~quantnet.problem.StackedOperators`: how many
quantization levels a given (gain, scale-decay) pair needs, how large the
initial scale must be to rule out saturation, which parameter pairs are
feasible for a given alphabet size, the smallest achievable scale-decay
factor for a given alphabet, the exact-mode error envelope :func:`bound_B`
and the least-squares gain schedule :class:`GammaSchedule`.

:func:`xi_membership` (Xi(K)) and :func:`xi_ls_membership` (Xi_LS(K)) are
the one feasibility check: plans store their answer in ``member``, and
``solver._setup`` warns outside them. Nothing here imports the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import StackedOperators, spectral_data

__all__ = [
    "GammaSchedule",
    "ExactPlan",
    "LSPlan",
    "bound_B",
    "spectral_data",
    "m_value",
    "kmin_from_m",
    "s0_lower_bound",
    "xi_membership",
    "xi_ls_membership",
    "h_hat_exact",
    "h_star_exact",
    "plan_exact",
    "alpha_star",
    "m_prime",
    "h_hat_ls",
    "h_star_ls",
    "sr_lower_bound",
    "plan_ls",
]

# guard band applied before the ceiling so that values sitting within
# floating-point noise of an integer do not round up spuriously
_CEIL_GUARD = 1e-9
# alpha_star's eps grid spacing, and the fraction of the gain limit h* it
# takes at each grid point (just inside the limit)
_ALPHA_STAR_EPS_STEP = 1e-3
_ALPHA_STAR_H_FRACTION = 0.999


@dataclass(frozen=True)
class GammaSchedule:
    """Diminishing gain gamma(k) = (k0 / (k + k0))**delta.

    gamma(0) = 1; the ratio beta(k) = gamma(k)/gamma(k+1) decreases toward 1.
    """

    k0: float
    delta: float

    def __post_init__(self):
        if self.k0 <= 0:
            raise ValueError("gamma.k0 must be positive")
        if not (0.5 < self.delta <= 1.0):
            raise ValueError("gamma.delta must lie in (1/2, 1]")

    def gamma(self, k) -> float:
        """gamma(k) for a round k, or elementwise for an array of rounds.

        On an array, numpy's vectorised pow can differ in the last bit from
        the one-round values; callers that must match those bits (the trace
        column ``ratio_err_gamma``) call it once per round.
        """
        return (self.k0 / (k + self.k0)) ** self.delta

    def beta(self, k) -> float:
        return (1.0 + 1.0 / (np.asarray(k, dtype=float) + self.k0)) ** self.delta

    @property
    def beta0(self) -> float:
        return float((1.0 + 1.0 / self.k0) ** self.delta)


@dataclass(frozen=True)
class ExactPlan:
    h: float
    alpha: float
    rho_h: float
    M: float
    Kmin_raw: int       # ceil(M - 1/2), may be 0 for degenerate inputs
    Kmin: int           # clamped to >= 1 (the smallest usable alphabet)
    s0_min: float | None
    eps: float | None
    h_star: float | None
    K: int
    member: bool


@dataclass(frozen=True)
class LSPlan:
    h: float
    beta0: float
    rho_hat: float
    M1: float
    M2: float
    Mprime: float
    Kmin_ls_raw: int
    Kmin_ls: int
    sr_min: float | None
    gamma: GammaSchedule | None
    eps: float | None
    h_star_ls: float | None
    K: int
    member: bool


def kmin_from_m(m_val: float) -> int:
    """Minimum alphabet parameter: ceil(m_val - 1/2) with a guard band."""
    return int(math.ceil(m_val - 0.5 - _CEIL_GUARD * max(1.0, abs(m_val))))


def m_value(alpha: float, h: float, sp: StackedOperators) -> float:
    """Required-level functional for the exact mode.

    M(alpha, h) = (1 + 2 h d*) / (2 alpha)
                  + h^2 sqrt(mN) lambdaN fd_max / (2 alpha (alpha - rho_h)).
    """
    rho_h = 1.0 - h * sp.fd_min
    if alpha <= rho_h:
        raise ValueError("alpha must exceed 1 - h*fd_min")
    return ((1.0 + 2.0 * h * sp.dstar) / (2.0 * alpha)
            + h * h * math.sqrt(sp.m * sp.n) * sp.lambdaN * sp.fd_max
            / (2.0 * alpha * (alpha - rho_h)))


def bound_B(k, h: float, s0: float, alpha: float, sp: StackedOperators):
    """Closed-form exponential envelope for the exact-mode error norm.

    B(k) = h * s0 * alpha**k * sqrt(mN) * lambdaN / (2 alpha (alpha - rho_h))
    with rho_h = 1 - h * fd_min. Only defined for alpha > rho_h.
    """
    rho_h = 1.0 - h * sp.fd_min
    if alpha <= rho_h:
        raise ValueError("rate bound undefined: alpha must exceed 1 - h*fd_min")
    kk = np.asarray(k, dtype=float)
    power = alpha ** kk
    if kk.ndim:
        # numpy squares for a scalar exponent of 2, and its vectorised pow
        # can differ from that in the last bit: keep bound_B(ks) equal, bit
        # for bit, to the per-round bound_B(k)
        power[kk == 2.0] = alpha * alpha
    return (h * s0 * power * np.sqrt(sp.m * sp.n) * sp.lambdaN
            / (2.0 * alpha * (alpha - rho_h)))


def s0_lower_bound(alpha: float, h: float, cx: float, cw: float, K: int,
                   sp: StackedOperators) -> float:
    """Smallest admissible initial scale ruling out saturation (exact mode).

    max of (cx + h ||Hd||_inf cw) / (K + 1/2)
    and 2 (alpha - rho_h)(rho_h cw + h cx lambdaN) / (h lambdaN).

    ``cx`` bounds ||x(0)||_inf and ``cw`` ||x(0) - y*||_inf (x(0) drawn in
    [-cx, cx] takes cw = cx + ||y*||_inf); the first term bounds the first
    quantizer input, x(1) = x(0) - h Hd (x(0) - y*). With (alpha, h) in
    Xi(K) and s0 at least this, no symbol saturates and err2(k) <=
    bound_B(k) for every k >= 1.
    """
    if sp.lambdaN <= 0:
        raise ValueError("isolated network: lambdaN must be positive")
    rho_h = 1.0 - h * sp.fd_min
    if alpha <= rho_h:
        raise ValueError("alpha must exceed 1 - h*fd_min")
    first = (cx + h * sp.hd_inf_norm * cw) / (K + 0.5)
    second = (2.0 * (alpha - rho_h) * (rho_h * cw + h * cx * sp.lambdaN)
              / (h * sp.lambdaN))
    return max(first, second)


def xi_membership(alpha: float, h: float, K: int,
                  sp: StackedOperators) -> bool:
    """Exact-mode feasibility: h in (0, 2/(fd_min+fd_max)),
    alpha in (1 - h fd_min, 1), and M(alpha, h) < K + 1/2 (strict)."""
    if not (0.0 < h < sp.h_cap_exact):
        return False
    rho_h = 1.0 - h * sp.fd_min
    if not (rho_h < alpha < 1.0):
        return False
    return m_value(alpha, h, sp) < K + 0.5


def h_hat_exact(K: int, eps: float, sp: StackedOperators) -> float:
    """Largest gain covered by the eps-parametrized exact feasibility slice."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    num = 2.0 * K * eps * sp.fd_min
    den = (math.sqrt(sp.m * sp.n) * sp.lambdaN * sp.fd_max
           + 2.0 * eps * sp.fd_min * sp.dstar
           + eps * (1.0 - eps) * (2 * K + 1) * sp.fd_min ** 2)
    return num / den


def h_star_exact(K: int, eps: float, sp: StackedOperators) -> float:
    return min(sp.h_cap_exact, h_hat_exact(K, eps, sp))


def plan_exact(K: int, eps: float, sp: StackedOperators,
               cx: float | None = None, cw: float | None = None,
               pick_fraction: float = 0.5) -> ExactPlan:
    """(alpha, h) for a given alphabet from the eps parametrization.

    h = pick_fraction * h*; alpha = 1 - (1 - eps) h fd_min. ``member`` is
    :func:`xi_membership` of the planned pair. Given ``cx`` and ``cw``,
    bounds on ||x(0)||_inf and ||x(0) - y*||_inf, ``s0_min`` is
    :func:`s0_lower_bound` of the pair.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    if not (0.0 < pick_fraction < 1.0):
        raise ValueError("pick_fraction must lie in (0, 1)")
    h_star = h_star_exact(K, eps, sp)
    h = pick_fraction * h_star
    alpha = 1.0 - (1.0 - eps) * h * sp.fd_min
    mval = m_value(alpha, h, sp)
    kmin_raw = kmin_from_m(mval)
    s0_min = None
    if cx is not None and cw is not None:
        s0_min = s0_lower_bound(alpha, h, cx, cw, K, sp)
    return ExactPlan(h=h, alpha=alpha, rho_h=1.0 - h * sp.fd_min, M=mval,
                     Kmin_raw=kmin_raw, Kmin=max(1, kmin_raw), s0_min=s0_min,
                     eps=eps, h_star=h_star, K=K,
                     member=xi_membership(alpha, h, K, sp))


def alpha_star(K: int, sp: StackedOperators) -> float:
    """Smallest feasible scale-decay factor for alphabet parameter K.

    Scans the eps parametrization on a grid of spacing 1e-3 with the gain
    taken just inside its upper limit (0.999 h*); the reported value carries
    the grid resolution as its accuracy.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    eps_grid = np.arange(_ALPHA_STAR_EPS_STEP, 1.0, _ALPHA_STAR_EPS_STEP)
    best = None
    for eps in eps_grid:
        h = _ALPHA_STAR_H_FRACTION * h_star_exact(K, float(eps), sp)
        if h <= 0.0:
            continue
        alpha = 1.0 - (1.0 - float(eps)) * h * sp.fd_min
        if xi_membership(alpha, h, K, sp):
            if best is None or alpha < best:
                best = alpha
    if best is None:
        raise RuntimeError("no feasible point found on the grid")
    return float(best)


def m_prime(h: float, beta0: float, sp: StackedOperators, cx: float) -> tuple:
    """Required-level functionals for the least-squares mode.

    Returns (M1, M2, Mprime, Kmin_raw) following the printed closed forms;
    the denominators are (1/beta0 - rho_hat) with rho_hat = 1 - h lambda2.
    """
    rho_hat = 1.0 - h * sp.lambda2
    den = 1.0 / beta0 - rho_hat
    if den <= 0.0:
        raise ValueError("1/beta0 must exceed 1 - h*lambda2")
    lamN = sp.lambdaN
    root = math.sqrt(sp.m * sp.n)
    m1 = ((root * cx * (1.0 + h * lamN) + 2.0 * sp.zh_2_norm / sp.fd_min)
          * (sp.hd_inf_norm + h * lamN * sp.hd_2_norm / den)
          + sp.zh_inf_norm
          + lamN * (root * cx * (1.0 + h * beta0 * lamN)
                    + h * sp.zh_2_norm / den))
    m2 = (beta0 * root * lamN
          * (h * lamN / (2.0 * den)
             + (sp.hd_inf_norm + h * lamN * sp.hd_2_norm / den) / sp.fd_min))
    mp = (1.0 + 2.0 * h * sp.dstar) * beta0 + 2.0 * h * m2
    return m1, m2, mp, kmin_from_m(mp)


def xi_ls_membership(h: float, beta0: float, K: int,
                     sp: StackedOperators) -> bool:
    """Least-squares feasibility: h in (0, min{2/(lambda2+lambdaN),
    1/fd_min}), beta0 in (1, 1/(1 - h lambda2)), Mprime <= K + 1/2."""
    if not (0.0 < h < sp.h_cap_ls):
        return False
    rho_hat = 1.0 - h * sp.lambda2
    if not (1.0 < beta0 < 1.0 / rho_hat):
        return False
    _, _, mp, _ = m_prime(h, beta0, sp, 0.0)   # Mprime does not read cx
    return mp <= K + 0.5


def h_hat_ls(K: int, eps: float, sp: StackedOperators) -> float:
    """Largest gain covered by the eps-parametrized least-squares slice."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    num = 2.0 * K * eps * sp.fd_min
    den = (2.0 * sp.dstar * eps * sp.fd_min
           + (2 * K + 1) * eps * (1.0 - eps) * sp.fd_min * sp.lambda2
           + 2.0 * math.sqrt(sp.m * sp.n) * sp.lambdaN
           * (2.0 * eps * sp.hd_inf_norm
              + sp.kappa_n * (2.0 * sp.hd_2_norm + sp.fd_min)))
    return num / den


def h_star_ls(K: int, eps: float, sp: StackedOperators) -> float:
    # the printed gain cap names the smallest eigenvalue of a matrix that
    # never appears elsewhere; the consistent reading (matching the
    # membership set) is 1/fd_min, which h_cap_ls uses
    return min(sp.h_cap_ls, h_hat_ls(K, eps, sp))


def sr_lower_bound(h: float, K: int, cx: float, sp: StackedOperators,
                   m1: float, m2: float) -> float:
    """Smallest admissible reference scale ruling out saturation (LS mode).

    max of (cx + h (cx ||Hd||_inf + ||zH||_inf)) / (K + 1/2) and M1/M2.
    """
    if m2 <= 0.0:
        raise ValueError("M2 must be positive")
    first = (cx + h * (cx * sp.hd_inf_norm + sp.zh_inf_norm)) / (K + 0.5)
    return max(first, m1 / m2)


def plan_ls(K: int, eps: float, sp: StackedOperators, delta: float,
            cx: float = 0.0, pick_fraction: float = 0.5) -> LSPlan:
    """(h, beta0) for a given alphabet in least-squares mode.

    h = pick_fraction * h*; 1/beta0 = 1 - (1-eps) h lambda2; the schedule
    offset follows from k0 = 1/(beta0**(1/delta) - 1). ``member`` is
    :func:`xi_ls_membership` of the planned pair.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    if not (0.0 < pick_fraction < 1.0):
        raise ValueError("pick_fraction must lie in (0, 1)")
    h_star = h_star_ls(K, eps, sp)
    h = pick_fraction * h_star
    beta0 = 1.0 / (1.0 - (1.0 - eps) * h * sp.lambda2)
    m1, m2, mp, kmin_raw = m_prime(h, beta0, sp, cx)
    k0 = 1.0 / (beta0 ** (1.0 / delta) - 1.0)
    sched = GammaSchedule(k0=k0, delta=delta)
    return LSPlan(h=h, beta0=beta0, rho_hat=1.0 - h * sp.lambda2,
                  M1=m1, M2=m2, Mprime=mp,
                  Kmin_ls_raw=kmin_raw, Kmin_ls=max(1, kmin_raw),
                  sr_min=sr_lower_bound(h, K, cx, sp, m1, m2),
                  gamma=sched, eps=eps, h_star_ls=h_star, K=K,
                  member=xi_ls_membership(h, beta0, K, sp))
