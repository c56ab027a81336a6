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
and round-off noise (:class:`~quantnet.codec.NoiseModel`);
:func:`run_baseline` is the unquantized reference they generalise.

State: node i holds x_i and its encoder predictor b_i, both (N, m)
arrays. Each arc (directed edge) i <- j holds a decoder xhat_ij, node i's
reconstruction of b_j, in the order of :attr:`~quantnet.graph.Graph.arcs`,
sorted by (receiver, sender); the consensus term sums the decoders per
receiver in that order (:func:`~quantnet.graph.per_receiver_sum`). The
predictors and the decoders are one (N + 2E, m) codec-state array: rows
0..N-1 are b, the rest xhat, and row r integrates the symbol of node
``owner[r]``, with ``owner`` the node indices followed by the arcs'
senders. One gather of the scaled symbols by ``owner`` (``take``) and one
add update every codec state. A round therefore costs O(E*m) time and
memory. All nodes advance in lockstep from round-(k-1) state.

Draw order (documented, fixed): with ``cx`` set, x(0) is uniform in
[-cx, cx] from ``cfg.seed``. Robust mode draws from ``noise.seed``:
encoder initialization errors for nodes 1..N, then decoder initialization
errors for the arcs in ``Graph.arcs`` order; per round, encoder round-off
noise for nodes 1..N, then decoder round-off noise in the same arc order.
The kernel makes these draws in whole-array calls, which a ``Generator``
fills in C order from one stream, so the values and their order are those
of the per-round draws: one (N + 2E, m) draw of initialization errors,
and one (R, N + 2E, m) draw of round-off noise per block of R rounds (R =
``_BLOCK_ENTRIES // ((N + 2E) * m)``, at most the rounds left), of which
round k adds row (k - 1) % R.

:func:`iter_rounds` is the one quantized round kernel, and ``quantnet
oracle-check`` compares its rounds with the matrix-form recursions.
``_run`` is the one recorder: it turns the rounds of every ``run_*`` into a
:class:`Trace`, and stops a run whose err2 is not finite.

Where the trace columns are computed, all with the bits of a per-round
recorder (``tests/test_solver.py`` keeps one as the reference):

* per round: ``err2`` as sqrt(d.d), the bits of ``np.linalg.norm``,
  because the stop test reads it;
* per block of rounds, in whole-array calls over buffered x(k), quantizer
  peaks and symbols (``_BLOCK_ENTRIES`` entries each, about 1 MB: x(k)
  and the symbols take 0.5 MB apiece) and, with noise, codec states (a
  robust block holds ``_BLOCK_ENTRIES`` codec-state entries, so its x(k)
  and symbol buffers are smaller):
  ``err_inf_per_node``, ``max_quant_input``, ``saturation_count``,
  ``bits_cum_nonzero`` and, with noise, ``drift``, max |xhat_ij - b_j|
  (nan at round 0). ``bits_cum_nonzero`` counts a block's nonzero
  symbols as one int64 product, (symbols != 0) of shape (rounds, N m)
  times the degrees repeated m times, which is exact;
* after the run: ``k``, ``bits_cum`` = k times the bits of one round,
  ``bound_Bk`` from one ``bound_B`` call on all rounds, and
  ``ratio_err_gamma``, whose gamma(k) is a scalar pow per round
  (``GammaSchedule.gamma(k)`` with one k). On numpy's vectorised pow,
  ``GammaSchedule.gamma`` of all rounds at once differs from the
  per-round values in the last bit on about 5% of rounds, and the
  kernel's LS scale s_r gamma(k-1) is a per-round value too.

Every max over a short last axis goes through
:func:`~quantnet.codec.max_last_axis`: the quantizer peaks of x(k) per
node, ``err_inf_per_node`` over the m coordinates, ``max_quant_input``
over the N peaks, and the LS ratio's max over N. numpy's reduce over the
last axis runs one inner loop per row, which dominates at m = 3 (40 us
on a 1000 x 3 array, against 3 us for two whole-column ``np.maximum``
calls). So the max goes column by column once the rows reach 8 times
the axis length, and reduces over the axis below that, where the m - 1
calls cost more. On the 5-node fig1 graph with m = 2, each round's
quantizer peaks reduce over the axis, and a block's ``err_inf_per_node``
and ``max_quant_input`` go column by column. Max is exact, so both ways
give the same bits. Sums are not split this way (the gradient's per-node
dot product, the per-receiver consensus sums): reordering a sum changes
its bits.

Run set-up: ``_setup`` is the one place that decides which systems a run
accepts. Every ``run_*`` and ``quantnet oracle-check`` start from it, so
they reject the same systems: a disconnected graph, a rank-deficient H,
and, in exact and robust mode, a system without an exact solution. Its
checks and the guarantee warning run on every call. It reads the summary
:func:`~quantnet.problem.build_stacked` of the problem on
``build_laplacian(g)``. Both are built once per (problem, graph) object
pair and are read-only, and ``LinearProblem`` holds read-only copies of
its inputs: a run on a pair whose summary the caller (the planner, say)
already holds reuses that summary, with its bits, and does no spectral
set-up of its own. The guarantee warning asks the planner's
:func:`~quantnet.planner.xi_membership` (exact and robust runs) or
:func:`~quantnet.planner.xi_ls_membership` (least-squares runs); the
summary also feeds ``bound_Bk`` (:func:`~quantnet.planner.bound_B`). The
dense stacked operator is never assembled. The set-up draws from no user
seed, so x(0) and the robust draws above do not depend on it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .codec import NoiseModel, QuantizerSpec, max_last_axis, quantize_vec
from .graph import Graph, build_laplacian, per_receiver_sum
from .oracle import unquantized_step
from .planner import GammaSchedule, bound_B, xi_ls_membership, xi_membership
from .problem import LinearProblem, build_stacked, classify

__all__ = [
    "ExactConfig",
    "LSConfig",
    "BaselineConfig",
    "Trace",
    "SaturationError",
    "run_exact",
    "run_ls",
    "run_robust",
    "run_baseline",
    "traces_dynamics_equal",
    "RoundState",
    "iter_rounds",
]

PRNG_ID = "numpy-pcg64"  # bit generator used for every seeded draw
STOP_TOL_DEFAULT = 1e-12
# Entries (rounds x N x m) of one block of states that _run buffers before
# reducing them to trace columns. x(k) (float64) and the symbols (int64)
# take 0.5 MB each, so a run holds about 1 MB of buffers. With noise, a
# block holds this many codec-state entries (rounds x (N + 2E) x m), and
# the kernel draws round-off noise for as many rounds at once.
_BLOCK_ENTRIES = 65536


class SaturationError(RuntimeError):
    """Raised in strict mode when a quantizer input leaves the admissible range."""

    def __init__(self, round_index: int):
        super().__init__(f"quantizer saturated at round {round_index}")
        self.round_index = round_index


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


@dataclass(frozen=True)
class BaselineConfig:
    h: float
    gamma: GammaSchedule | None = None  # gain gamma(k), or 1 without one
    max_rounds: int = 3000
    x0: np.ndarray | None = None
    cx: float | None = None
    stop_tol: float = STOP_TOL_DEFAULT
    seed: int = 0

    def __post_init__(self):
        if self.h <= 0 or self.max_rounds < 1:
            raise ValueError("invalid baseline configuration: h must be "
                             "positive and max_rounds at least 1")


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

    @property
    def rounds(self) -> int:
        return len(self.k) - 1

    def csv_text(self) -> str:
        """Render the trace in the standard CSV layout.

        Numbers are written with 17 significant digits (round-trip exact);
        columns that do not apply to the mode are left empty.
        """
        n = len(self.k)

        def ints(col):
            return map(str, np.asarray(col, dtype=np.int64).tolist())

        def floats(col):
            if col is None:
                return [""] * n
            return ["" if v != v else f"{v:.17g}"      # nan -> empty
                    for v in np.asarray(col, dtype=float).tolist()]

        head = [f"# mode={self.mode} prng={self.prng} seed={self.seed}",
                "k,err2,bound_Bk,ratio_err_gamma,max_quant_input,"
                "saturation_count,bits_cum"]
        rows = map(",".join, zip(
            ints(self.k), floats(self.err2), floats(self.bound_Bk),
            floats(self.ratio_err_gamma), floats(self.max_quant_input),
            ints(self.saturation_count), ints(self.bits_cum)))
        return "\n".join([*head, *rows]) + "\n"

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


def _initial_states(p: LinearProblem, x0, cx, seed: int) -> np.ndarray:
    """x(0): ``x0`` if given, else uniform in [-cx, cx] from ``seed``,
    else zero."""
    n, m = p.n_nodes, p.dim
    if x0 is not None:
        x0 = np.array(x0, dtype=float)
        if x0.shape != (n, m):
            raise ValueError("x0 must have shape (N, m)")
        return x0
    if cx is not None:
        return np.random.default_rng(seed).uniform(-cx, cx, size=(n, m))
    return np.zeros((n, m))


class RoundState(NamedTuple):
    """Solver state after round k; k = 0 is the initial state."""

    k: int
    x: np.ndarray               # (N, m) node states
    b: np.ndarray | None        # (N, m) encoder predictors (not baseline)
    xhat: np.ndarray | None     # (2E, m) decoders, Graph.arcs order
    q: np.ndarray | None        # (N, m) symbols sent in round k (k >= 1)
    peaks: np.ndarray | None    # (N,) largest |quantizer input| (k >= 1)


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
    recv, send = g.arcs
    heard_by = per_receiver_sum(recv, n, m)
    # codec-state row r integrates the symbols of node owner[r]: the N
    # predictors, then the 2E decoders in arc order
    owner = np.concatenate((np.arange(n), send))
    x = _initial_states(p, cfg.x0, cfg.cx, cfg.seed)
    bx = np.zeros((len(owner), m))
    damping, roundoff, rng = 1.0, False, None
    if noise is not None:
        damping, roundoff = noise.damping, noise.roundoff_enabled
        rng = np.random.default_rng(noise.seed)
        if noise.init_errors_enabled:
            lo, hi = noise.init_error_range
            bx = rng.uniform(lo, hi, size=bx.shape)
    yield RoundState(0, x, bx[:n], bx[n:], None, None)

    ls = isinstance(cfg, LSConfig)
    damped = damping != 1.0
    H, z, h, K = p.H, p.z, cfg.h, cfg.K
    # the degrees as a full (N, m) operand: the same products as an (N, 1)
    # column broadcast over m, which costs more per call
    deg = np.repeat(g.degrees()[:, None].astype(float), m, axis=1)
    if ls:
        gamma, s_r = cfg.gamma.gamma, cfg.s_r
    if roundoff:
        # one draw per block of rounds; a Generator fills it in C order, so
        # row (k - 1) % block holds the values of round k's own draws
        amp = noise.roundoff_amp
        block = max(1, _BLOCK_ENTRIES // bx.size)
    for k in range(1, cfg.max_rounds + 1):
        # state update from round-(k-1) information; the consensus term is
        # zero at the first update when the codec states start at rest
        b = bx[:n]
        grad = (np.einsum("ij,ij->i", H, x) - z)[:, None] * H
        heard = heard_by(bx[n:])
        if ls:
            gain = gamma(k - 1)
            s_prev = s_r * gain
            x = x + ((heard - deg * b) - grad * gain) * h
        else:
            s_prev = cfg.s0 * cfg.alpha ** (k - 1)
            x = x + ((heard - deg * b) - grad) * h

        # transmission of round k: encode x(k) at scale s(k-1)
        q, peaks = quantize_vec((x - b) / s_prev, K)
        if cfg.strict_saturation and (peaks > K + 0.5).any():
            raise SaturationError(k)
        sq = (q * s_prev).take(owner, axis=0)
        bx = sq + bx * damping if damped else sq + bx
        if roundoff:
            j = (k - 1) % block
            if j == 0:
                draws = rng.uniform(-amp, amp, size=(
                    min(block, cfg.max_rounds - k + 1), *bx.shape))
            bx += draws[j]
        yield RoundState(k, x, bx[:n], bx[n:], q, peaks)


def _baseline_rounds(p: LinearProblem, sp, cfg: BaselineConfig):
    """The baseline's rounds, with only ``k`` and ``x``: no codec state."""
    n, m = p.n_nodes, p.dim
    x = _initial_states(p, cfg.x0, cfg.cx, cfg.seed).reshape(-1)
    yield RoundState(0, x.reshape(n, m), None, None, None, None)
    for k in range(1, cfg.max_rounds + 1):
        gain = float(cfg.gamma.gamma(k - 1)) if cfg.gamma else 1.0
        x = unquantized_step(x, cfg.h, gain, sp.Lm, sp.Hd, sp.zH)
        yield RoundState(k, x.reshape(n, m), None, None, None, None)


def _setup(p: LinearProblem, g: Graph, cfg) -> tuple:
    """(summary, y_ref) of a run, or ``ValueError`` for a system it rejects.

    With an :class:`ExactConfig` the system must be exactly solvable. A
    configuration outside the planner's Xi(K) (:class:`ExactConfig`) or
    Xi_LS(K) (:class:`LSConfig`) warns, naming the caller of ``run_*``.
    The summary is the one :func:`~quantnet.problem.build_stacked` keeps
    per (p, g) pair while a caller holds it, so a run after the planner
    rebuilds nothing; the checks and the warning run on every call.
    """
    sp = build_stacked(p, build_laplacian(g))
    cls = classify(p)
    if cls.kind == "Unsupported":
        raise ValueError("problem is rank deficient")
    if isinstance(cfg, ExactConfig):
        if cls.kind != "UniqueExact":
            raise ValueError("exact mode requires an exactly solvable system")
        member = xi_membership(cfg.alpha, cfg.h, cfg.K, sp)
    else:
        member = (not isinstance(cfg, LSConfig)
                  or xi_ls_membership(cfg.h, cfg.gamma.beta0, cfg.K, sp))
    if not member:
        warnings.warn("configuration violates the convergence guarantees; "
                      "running anyway", RuntimeWarning, stacklevel=4)
    return sp, cls.solution


def _run(p: LinearProblem, g: Graph, cfg, mode: str,
         noise: NoiseModel | None = None) -> Trace:
    """Record a :class:`Trace` of one mode's rounds."""
    n, m = p.n_nodes, p.dim
    sp, y_ref = _setup(p, g, cfg)
    have_bound = (isinstance(cfg, ExactConfig)
                  and cfg.alpha > 1.0 - cfg.h * sp.fd_min)

    if mode == "baseline":
        rounds, bits_per_coord, K = _baseline_rounds(p, sp, cfg), 0, 0
    else:
        rounds, K = iter_rounds(p, g, cfg, noise), cfg.K
        bits_per_coord = QuantizerSpec(K).bits_per_coord
    bits_fixed_per_round = int(2 * len(g.edges) * m * bits_per_coord)
    # symbols sent per nonzero level: one per arc out of the node, its
    # degree, repeated for each of the node's m coordinates
    fanout = np.repeat(g.degrees(), m)

    # Per round only err2 (the stop test reads it) is computed; x, the
    # peaks, the symbols and, with noise, the codec states go into block
    # buffers, which are reduced to the other columns in whole-array calls
    # when full or when the run ends.
    send = g.arcs[1]
    width = n + len(send) if noise is not None else n
    rows = max(1, min(cfg.max_rounds + 1, _BLOCK_ENTRIES // (width * m)))
    xs = np.empty((rows, n, m))
    # rounds that send no symbols (round 0, the baseline) keep nan and 0
    pks = np.full((rows, n), np.nan)
    qs = np.zeros((rows, n, m), dtype=np.int64)
    cols = {"einf": [], "maxin": [], "sat": [], "nz": [], "drift": []}
    if noise is not None:
        bs = np.empty((rows, n, m))
        xhs = np.empty((rows, len(send), m))

    def reduce_block(used: int) -> None:
        pk = pks[:used]
        cols["einf"].append(max_last_axis(np.abs(xs[:used] - y_ref)))
        cols["maxin"].append(max_last_axis(pk))
        cols["sat"].append(np.count_nonzero(pk > K + 0.5, axis=1))
        # exact in int64, as count_nonzero(axis=2) @ degrees is
        cols["nz"].append((qs[:used] != 0).reshape(used, n * m) @ fanout)
        if noise is not None:
            cols["drift"].append(np.maximum.reduce(np.abs(
                xhs[:used] - bs[:used].take(send, axis=1)), axis=(1, 2)))

    err2 = []
    stop_reason = "max_rounds"
    for st in rounds:
        k, x = st.k, st.x
        j = k % rows
        xs[j] = x
        if st.q is not None:
            pks[j] = st.peaks
            qs[j] = st.q
        if noise is not None:
            bs[j] = st.b
            xhs[j] = st.xhat
        d = (x - y_ref).ravel()
        e2 = math.sqrt(d.dot(d))   # the bits of np.linalg.norm
        if not math.isfinite(e2):
            raise ValueError(f"{mode} err2 is not finite at round {k}: "
                             "the run diverges")
        err2.append(e2)
        stop = k > 0 and e2 < cfg.stop_tol
        if stop or j == rows - 1 or k == cfg.max_rounds:
            reduce_block(j + 1)
        if stop:
            stop_reason = "error_tolerance"
            break

    ks = np.arange(len(err2))
    bound = bound_B(ks, cfg.h, cfg.s0, cfg.alpha, sp) if have_bound else None
    einf = np.concatenate(cols["einf"])
    ratio = None
    if mode == "ls":
        gamma = np.array([cfg.gamma.gamma(k) for k in range(len(ks))])
        ratio = max_last_axis(einf) / gamma
    nz_cum = np.cumsum(np.concatenate(cols["nz"]))
    drift = None
    if noise is not None:
        drift = np.concatenate(cols["drift"])
        drift[0] = np.nan       # no symbols before round 1
    return Trace(
        mode=mode,
        k=ks,
        err2=np.array(err2),
        bound_Bk=bound,
        ratio_err_gamma=ratio,
        max_quant_input=np.concatenate(cols["maxin"]),
        saturation_count=np.cumsum(np.concatenate(cols["sat"]),
                                   dtype=np.int64),
        bits_cum=ks * bits_fixed_per_round,
        bits_cum_nonzero=bits_per_coord * nz_cum,
        err_inf_per_node=einf,
        drift=drift,
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
    return _run(p, g, cfg, "robust", None if noise.is_ideal() else noise)


def run_baseline(p: LinearProblem, g: Graph, cfg: BaselineConfig) -> Trace:
    """Unquantized reference run, recorded in the same trace layout."""
    return _run(p, g, cfg, "baseline")
