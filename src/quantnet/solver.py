"""Synchronous round-based simulation of the quantized distributed solver.

Per round, every node updates its state from (a) its reconstructions of
its neighbors' predictors minus its own predictor (consensus term) and (b)
its private gradient of the local residual, then broadcasts one quantized
innovation symbol per coordinate. Two modes:

* exact mode: constant gradient gain, geometrically shrinking scale
  ``s(k) = s0 * alpha**k``; converges exponentially to the exact solution.
* least-squares mode: diminishing gradient gain ``gamma(k)`` and scale
  ``s(k) = s_r * gamma(k)``; converges to the least-squares solution.

A robust variant damps the codec states and injects initialization errors
and round-off noise (:class:`~quantnet.codec.NoiseModel`).

State: node i holds x_i and its encoder predictor b_i, both (N, m)
arrays. Each directed edge i <- j holds a decoder xhat_ij, node i's
reconstruction of b_j; the decoders form one (2E, m) array sorted by
(receiver, sender), and the consensus term sums them per receiver in that
order. A round therefore costs O(E*m) time and memory. All nodes advance
in lockstep from round-(k-1) state.

Draw order (documented, fixed): with ``cx`` set, x(0) is uniform in
[-cx, cx] from ``cfg.seed``. Robust mode draws from ``noise.seed``:
encoder initialization errors for nodes 1..N, then decoder initialization
errors for the directed edges in (receiver, sender) order; per round,
encoder round-off noise for nodes 1..N, then decoder round-off noise in
the same edge order.

:func:`iter_rounds` is the one round kernel. ``run_exact``, ``run_ls`` and
``run_robust`` record a :class:`Trace` from it, and ``quantnet
oracle-check`` compares its rounds with the matrix-form recursions.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .codec import NoiseModel, QuantizerSpec, quantize_vec
from .graph import Graph, build_laplacian
from .problem import LinearProblem, build_stacked, classify

__all__ = [
    "ExactConfig",
    "LSConfig",
    "GammaSchedule",
    "Trace",
    "SaturationError",
    "bound_B",
    "run_exact",
    "run_ls",
    "run_robust",
    "traces_dynamics_equal",
    "RoundState",
    "iter_rounds",
]

PRNG_ID = "numpy-pcg64"  # bit generator used for every seeded draw
STOP_TOL_DEFAULT = 1e-12


class SaturationError(RuntimeError):
    """Raised in strict mode when a quantizer input leaves the admissible range."""

    def __init__(self, round_index: int):
        super().__init__(f"quantizer saturated at round {round_index}")
        self.round_index = round_index


@dataclass(frozen=True)
class GammaSchedule:
    """Diminishing gain gamma(k) = (k0 / (k + k0))**delta.

    gamma(0) = 1; the ratio beta(k) = gamma(k)/gamma(k+1) decreases toward 1.
    """

    k0: float
    delta: float

    def __post_init__(self):
        if self.k0 <= 0:
            raise ValueError("k0 must be positive")
        if not (0.5 < self.delta <= 1.0):
            raise ValueError("delta must lie in (1/2, 1]")

    def gamma(self, k) -> float:
        return (self.k0 / (np.asarray(k, dtype=float) + self.k0)) ** self.delta

    def beta(self, k) -> float:
        return (1.0 + 1.0 / (np.asarray(k, dtype=float) + self.k0)) ** self.delta

    @property
    def beta0(self) -> float:
        return float((1.0 + 1.0 / self.k0) ** self.delta)


@dataclass(frozen=True)
class ExactConfig:
    h: float
    alpha: float
    s0: float
    K: int
    max_rounds: int = 3000
    strict_saturation: bool = False
    x0: np.ndarray | None = None    # explicit initial states (N x m)
    cx: float | None = None         # or uniform random in [-cx, cx]
    stop_tol: float = STOP_TOL_DEFAULT
    seed: int = 0

    def __post_init__(self):
        if self.h <= 0 or self.s0 <= 0 or self.K < 1 or self.max_rounds < 1:
            raise ValueError("invalid exact-mode configuration")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class LSConfig:
    h: float
    K: int
    s_r: float
    gamma: GammaSchedule
    max_rounds: int = 20000
    strict_saturation: bool = False
    x0: np.ndarray | None = None
    cx: float | None = None
    stop_tol: float = STOP_TOL_DEFAULT
    seed: int = 0

    def __post_init__(self):
        if self.h <= 0 or self.s_r <= 0 or self.K < 1 or self.max_rounds < 1:
            raise ValueError("invalid least-squares configuration")


@dataclass
class Trace:
    """Per-round record of one run. Row 0 is the initial state."""

    mode: str                       # exact | ls | robust | baseline
    k: np.ndarray
    err2: np.ndarray
    bound_Bk: np.ndarray | None
    ratio_err_gamma: np.ndarray | None
    max_quant_input: np.ndarray     # nan at round 0 (no transmission yet)
    saturation_count: np.ndarray    # cumulative saturation events
    bits_cum: np.ndarray            # cumulative fixed-rate transmitted bits
    err_inf_per_node: np.ndarray    # (rounds+1, N)
    bits_cum_nonzero: np.ndarray    # cumulative bits with zero symbols unsent
    drift: np.ndarray | None = None  # robust mode: max ||xhat_ij - b_j||_inf
    stop_reason: str = "max_rounds"
    x_final: np.ndarray | None = None
    y_ref: np.ndarray | None = None
    seed: int = 0
    prng: str = PRNG_ID
    extra_header: dict = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return len(self.k) - 1

    def csv_text(self) -> str:
        """Render the trace in the standard CSV layout.

        Numbers are written with 17 significant digits (round-trip exact);
        columns that do not apply to the mode are left empty.
        """
        buf = io.StringIO()
        buf.write(f"# mode={self.mode} prng={self.prng} seed={self.seed}\n")
        for key in sorted(self.extra_header):
            buf.write(f"# {key}={self.extra_header[key]}\n")
        buf.write("k,err2,bound_Bk,ratio_err_gamma,max_quant_input,"
                  "saturation_count,bits_cum\n")

        def num(v):
            if v is None or (isinstance(v, float) and math.isnan(v)):
                return ""
            return f"{v:.17g}"

        for idx in range(len(self.k)):
            row = [
                str(int(self.k[idx])),
                num(float(self.err2[idx])),
                num(float(self.bound_Bk[idx])) if self.bound_Bk is not None else "",
                num(float(self.ratio_err_gamma[idx]))
                if self.ratio_err_gamma is not None else "",
                num(float(self.max_quant_input[idx])),
                str(int(self.saturation_count[idx])),
                str(int(self.bits_cum[idx])),
            ]
            buf.write(",".join(row) + "\n")
        return buf.getvalue()

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.csv_text())

    def summary(self) -> dict:
        return {
            "mode": self.mode,
            "rounds": self.rounds,
            "final_err2": float(self.err2[-1]),
            "final_err_inf_max": float(self.err_inf_per_node[-1].max()),
            "saturation_total": int(self.saturation_count[-1]),
            "bits_total": int(self.bits_cum[-1]),
            "bits_total_nonzero": int(self.bits_cum_nonzero[-1]),
            "stop_reason": self.stop_reason,
        }


def traces_dynamics_equal(a: Trace, b: Trace) -> bool:
    """True when two traces describe identical dynamics.

    The bit-accounting column is excluded on purpose: a larger alphabet
    costs more bits per symbol even when the trajectories coincide.
    """
    return (
        len(a.k) == len(b.k)
        and np.array_equal(a.err2, b.err2)
        and np.array_equal(a.err_inf_per_node, b.err_inf_per_node)
        and np.array_equal(a.max_quant_input[1:], b.max_quant_input[1:])
        and np.array_equal(a.saturation_count, b.saturation_count)
    )


def bound_B(k, h: float, s0: float, alpha: float, fd_min: float,
            lambdaN: float, m: int, n: int):
    """Closed-form exponential envelope for the exact-mode error norm.

    B(k) = h * s0 * alpha**k * sqrt(mN) * lambdaN / (2 alpha (alpha - rho_h))
    with rho_h = 1 - h * fd_min. Only defined for alpha > rho_h.
    """
    rho_h = 1.0 - h * fd_min
    if alpha <= rho_h:
        raise ValueError("rate bound undefined: alpha must exceed 1 - h*fd_min")
    kk = np.asarray(k, dtype=float)
    return (h * s0 * alpha ** kk * np.sqrt(m * n) * lambdaN
            / (2.0 * alpha * (alpha - rho_h)))


def _initial_states(p: LinearProblem, cfg) -> np.ndarray:
    n, m = p.n_nodes, p.dim
    if cfg.x0 is not None:
        x0 = np.array(cfg.x0, dtype=float)
        if x0.shape != (n, m):
            raise ValueError("x0 must have shape (N, m)")
        return x0
    if cfg.cx is not None:
        rng = np.random.default_rng(cfg.seed)
        return rng.uniform(-cfg.cx, cfg.cx, size=(n, m))
    return np.zeros((n, m))


class RoundState(NamedTuple):
    """Solver state after round k; k = 0 is the initial state."""

    k: int
    x: np.ndarray               # (N, m) node states
    b: np.ndarray               # (N, m) encoder predictors
    xhat: np.ndarray            # (2E, m) decoders, (receiver, sender) order
    q: np.ndarray | None        # (N, m) symbols sent in round k (k >= 1)
    peaks: np.ndarray | None    # (N,) largest |quantizer input| (k >= 1)
    drift: float | None         # with noise, k >= 1: max |xhat_ij - b_j|


def _directed_edges(g: Graph) -> tuple:
    """0-based (receiver, sender) arrays of the 2E directed edges, sorted."""
    e = np.array(list(g.edges), dtype=np.intp).reshape(-1, 2) - 1
    recv = np.concatenate([e[:, 0], e[:, 1]])
    send = np.concatenate([e[:, 1], e[:, 0]])
    order = np.lexsort((send, recv))
    return recv[order], send[order]


def iter_rounds(p: LinearProblem, g: Graph, cfg,
                noise: NoiseModel | None = None):
    """The round kernel: yield the :class:`RoundState` of rounds 0..max_rounds.

    An :class:`LSConfig` selects the least-squares gain and scale schedule,
    an :class:`ExactConfig` the geometric one. A ``noise`` model selects the
    damped/noisy codec. The caller decides when to stop; the kernel raises
    :class:`SaturationError` in strict mode and ``ValueError`` when a
    quantizer input is not finite.
    """
    n, m = p.n_nodes, p.dim
    recv, send = _directed_edges(g)
    deg = np.bincount(recv, minlength=n)
    x = _initial_states(p, cfg)
    b = np.zeros((n, m))
    xhat = np.zeros((len(recv), m))
    damping, roundoff, rng = 1.0, False, None
    if noise is not None:
        damping, roundoff = noise.damping, noise.roundoff_enabled
        rng = np.random.default_rng(noise.seed)
        if noise.init_errors_enabled:
            lo, hi = noise.init_error_range
            b = rng.uniform(lo, hi, size=(n, m))
            xhat = rng.uniform(lo, hi, size=xhat.shape)
    yield RoundState(0, x, b, xhat, None, None, None)

    ls = isinstance(cfg, LSConfig)
    for k in range(1, cfg.max_rounds + 1):
        if ls:
            gain = float(cfg.gamma.gamma(k - 1))
            s_prev = cfg.s_r * gain
        else:
            gain = 1.0
            s_prev = cfg.s0 * cfg.alpha ** (k - 1)

        # state update from round-(k-1) information; the consensus term is
        # zero at the first update when the codec states start at rest
        grad = (np.einsum("ij,ij->i", p.H, x) - p.z)[:, None] * p.H
        heard = np.zeros((n, m))
        np.add.at(heard, recv, xhat)
        x = x + cfg.h * ((heard - deg[:, None] * b) - gain * grad)

        # transmission of round k: encode x(k) at scale s(k-1)
        arg = (x - b) / s_prev
        q, _ = quantize_vec(arg, cfg.K)
        peaks = np.abs(arg).max(axis=1)
        if cfg.strict_saturation and (peaks > cfg.K + 0.5).any():
            raise SaturationError(k)
        sq = s_prev * q
        b = sq + damping * b
        xhat = sq[send] + damping * xhat
        if roundoff:
            amp = noise.roundoff_amp
            b = b + rng.uniform(-amp, amp, size=b.shape)
            xhat = xhat + rng.uniform(-amp, amp, size=xhat.shape)

        drift = (float(np.abs(xhat - b[send]).max())
                 if noise is not None else None)
        yield RoundState(k, x, b, xhat, q, peaks, drift)


def _run(p: LinearProblem, g: Graph, cfg, mode: str,
         noise: NoiseModel | None = None) -> Trace:
    """Record a :class:`Trace` of :func:`iter_rounds` for one mode."""
    n, m = p.n_nodes, p.dim
    lap = build_laplacian(g)
    ops = build_stacked(p, lap)
    cls = classify(p)
    if cls.kind == "Unsupported":
        raise ValueError("problem is rank deficient")
    y_ref = cls.solution

    exact_like = mode in ("exact", "robust")
    have_bound = False
    if exact_like:
        if cls.kind != "UniqueExact" and mode == "exact":
            raise ValueError("exact mode requires an exactly solvable system")
        rho_h = 1.0 - cfg.h * ops.fd_min
        h_cap = 2.0 / (ops.fd_min + ops.fd_max)
        if not (0.0 < cfg.h < h_cap) or not (rho_h < cfg.alpha < 1.0):
            warnings.warn("configuration violates the convergence guarantees; "
                          "running anyway", RuntimeWarning, stacklevel=3)
        have_bound = cfg.alpha > rho_h

    K = cfg.K
    bits_per_coord = QuantizerSpec(K).bits_per_coord
    bits_fixed_per_round = int(2 * len(g.edges) * m * bits_per_coord)
    _, send = _directed_edges(g)   # the sender on each directed edge

    rec_k, rec_err2, rec_einf, rec_maxin = [], [], [], []
    rec_sat, rec_bits, rec_bits_nz, rec_bound, rec_ratio = [], [], [], [], []
    rec_drift = []
    sat_total = bits_total = bits_nz_total = 0
    stop_reason = "max_rounds"
    for st in iter_rounds(p, g, cfg, noise):
        k, x = st.k, st.x
        diff = x - y_ref[None, :]
        e2 = float(np.linalg.norm(diff))
        einf = np.abs(diff).max(axis=1)
        peak = float("nan")
        if k > 0:
            peak = float(st.peaks.max())
            if peak > K + 0.5:
                sat_total += int((st.peaks > K + 0.5).sum())
            bits_total += bits_fixed_per_round
            bits_nz_total += bits_per_coord * int(
                np.count_nonzero(st.q.take(send, axis=0)))
        rec_k.append(k)
        rec_err2.append(e2)
        rec_einf.append(einf)
        rec_maxin.append(peak)
        rec_sat.append(sat_total)
        rec_bits.append(bits_total)
        rec_bits_nz.append(bits_nz_total)
        if have_bound:
            rec_bound.append(float(bound_B(k, cfg.h, cfg.s0, cfg.alpha,
                                           ops.fd_min, lap.lambdaN, m, n)))
        if mode == "ls":
            rec_ratio.append(float(einf.max() / cfg.gamma.gamma(k)))
        if mode == "robust":
            rec_drift.append(float("nan") if k == 0 else st.drift)
        if k > 0 and e2 < cfg.stop_tol:
            stop_reason = "error_tolerance"
            break

    return Trace(
        mode=mode,
        k=np.array(rec_k),
        err2=np.array(rec_err2),
        bound_Bk=np.array(rec_bound) if have_bound else None,
        ratio_err_gamma=np.array(rec_ratio) if mode == "ls" else None,
        max_quant_input=np.array(rec_maxin),
        saturation_count=np.array(rec_sat, dtype=np.int64),
        bits_cum=np.array(rec_bits, dtype=np.int64),
        bits_cum_nonzero=np.array(rec_bits_nz, dtype=np.int64),
        err_inf_per_node=np.array(rec_einf),
        drift=np.array(rec_drift) if mode == "robust" else None,
        stop_reason=stop_reason,
        x_final=x,
        y_ref=y_ref,
        seed=cfg.seed,
    )


def run_exact(p: LinearProblem, g: Graph, cfg: ExactConfig) -> Trace:
    """Exact-mode run; requires an exactly solvable system."""
    return _run(p, g, cfg, "exact")


def run_ls(p: LinearProblem, g: Graph, cfg: LSConfig) -> Trace:
    """Least-squares-mode run (also accepts exactly solvable systems)."""
    return _run(p, g, cfg, "ls")


def run_robust(p: LinearProblem, g: Graph, cfg: ExactConfig,
               noise: NoiseModel) -> Trace:
    """Exact-mode run with the damped/noisy codec variant."""
    if noise.is_ideal():
        tr = _run(p, g, cfg, "exact")
        tr.mode = "robust"
        return tr
    return _run(p, g, cfg, "robust", noise=noise)
