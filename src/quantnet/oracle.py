"""Independent matrix-form reference recursions.

These re-derive the solver dynamics as compact recursions on stacked
(m*N)-vectors, written directly from the algebraic reformulation rather
than from per-node message passing. Agreement between the two is a strong
end-to-end check: they share only ``codec.quantize_vec``.

Also includes the unquantized baseline update (perfect communication).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import quantize_vec
from .graph import LaplacianSummary
from .problem import StackedOperators, spectral_data

__all__ = [
    "CompactExactState",
    "CompactLSState",
    "make_exact_operators",
    "compact_exact_init",
    "compact_exact_step",
    "compact_ls_init",
    "compact_ls_step",
    "unquantized_step",
]


@dataclass(frozen=True)
class ExactOperators:
    """Precomputed stacked matrices for the exact-mode recursion."""

    Lm: np.ndarray      # kron(L, I_m)
    Fd: np.ndarray
    ones_y: np.ndarray  # stacked replication of the reference solution


def make_exact_operators(ops: StackedOperators, lap: LaplacianSummary,
                         h: float, y_ref: np.ndarray) -> ExactOperators:
    """``lap`` must be the summary's. ``h`` is not read: each step takes
    its own gain."""
    spectral_data(ops, lap, ops.m, ops.n)
    return ExactOperators(Lm=ops.Lm, Fd=ops.Fd, ones_y=np.tile(y_ref, ops.n))


@dataclass(frozen=True)
class CompactExactState:
    """Scaled deviation and scaled innovation of the exact-mode run.

    omega(k) = (x(k) - replicated solution) / s(k);
    eps(k) = (x(k) - predictor stack) / s(k).
    """

    omega: np.ndarray
    eps: np.ndarray

    def reconstruct_x(self, s_k: float, ops: ExactOperators) -> np.ndarray:
        return s_k * self.omega + ops.ones_y


def compact_exact_init(x0: np.ndarray, s0: float,
                       ops: ExactOperators) -> CompactExactState:
    """Initial compact state from stacked x(0) (predictors start at zero)."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    return CompactExactState(omega=(x0 - ops.ones_y) / s0, eps=x0 / s0)


def compact_exact_step(st: CompactExactState, alpha: float, h: float,
                       K: int, ops: ExactOperators) -> CompactExactState:
    """One exact-mode step of the compact recursion.

    theta(k) = (I + h Lm) eps(k) - h Fd omega(k);
    omega(k+1) = ((I - h Fd) omega(k) + h Lm eps(k)) / alpha;
    eps(k+1) = (theta(k) - Q_K(theta(k))) / alpha.
    """
    lap_term = h * (ops.Lm @ st.eps)
    fd_term = h * (ops.Fd @ st.omega)
    theta = st.eps + lap_term - fd_term
    omega_next = (st.omega - fd_term + lap_term) / alpha
    eps_next = (theta - quantize_vec(theta, K)[0]) / alpha
    return CompactExactState(omega=omega_next, eps=eps_next)


@dataclass(frozen=True)
class LSOperators:
    Lm: np.ndarray
    Hd: np.ndarray
    zH: np.ndarray
    Dm: np.ndarray      # kron(I - 11^T/N, I_m), the mean-removal projector


def make_ls_operators(ops: StackedOperators, lap: LaplacianSummary,
                      m: int) -> LSOperators:
    """``lap`` and ``m`` must be the summary's."""
    spectral_data(ops, lap, m, ops.n)
    n = ops.n
    D = np.eye(n) - np.ones((n, n)) / n
    return LSOperators(Lm=ops.Lm, Hd=ops.Hd, zH=ops.zH,
                       Dm=np.kron(D, np.eye(ops.m)))


@dataclass(frozen=True)
class CompactLSState:
    """Stacked state, mean-removed rescaled state, and scaled innovation."""

    x: np.ndarray
    eta: np.ndarray     # (D kron I) x(k) / gamma(k)
    eps: np.ndarray     # (x(k) - predictor stack) / s(k)


def compact_ls_init(x0: np.ndarray, s_r: float,
                    ops: LSOperators) -> CompactLSState:
    """Initial compact LS state (gamma(0) = 1, predictors at zero)."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    return CompactLSState(x=x0.copy(), eta=ops.Dm @ x0, eps=x0 / s_r)


def compact_ls_step(st: CompactLSState, h: float, s_r: float, gamma_k: float,
                    beta_k: float, K: int, ops: LSOperators) -> CompactLSState:
    """One least-squares step of the compact recursion.

    x(k+1) = P(k) x(k) + h gamma(k) (s_r Lm eps(k) + zH) with
    P(k) = I - h (Lm + gamma(k) Hd);
    eta(k+1) = beta(k) [(I - h Lm) eta(k) + h s_r Lm eps(k)
               + h Dm (zH - Hd x(k))];
    theta(k) = (I + h Lm) eps(k) - (h/s_r) (Lm eta(k) + Hd x(k) - zH);
    eps(k+1) = beta(k) (theta(k) - Q_K(theta(k))).
    """
    Lx = ops.Lm @ st.x
    Hx = ops.Hd @ st.x
    Leps = ops.Lm @ st.eps
    Leta = ops.Lm @ st.eta
    x_next = (st.x - h * (Lx + gamma_k * Hx)
              + h * gamma_k * (s_r * Leps + ops.zH))
    eta_next = beta_k * (st.eta - h * Leta + h * s_r * Leps
                         + h * (ops.Dm @ (ops.zH - Hx)))
    theta = (st.eps + h * Leps - (h / s_r) * (Leta + Hx - ops.zH))
    eps_next = beta_k * (theta - quantize_vec(theta, K)[0])
    return CompactLSState(x=x_next, eta=eta_next, eps=eps_next)


def unquantized_step(x: np.ndarray, h: float, gamma_k: float,
                     Lm: np.ndarray, Hd: np.ndarray,
                     zH: np.ndarray) -> np.ndarray:
    """Perfect-communication baseline on the stacked state."""
    return x - h * (Lm @ x) - h * gamma_k * (Hd @ x - zH)
