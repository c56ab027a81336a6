"""The distributed linear system and its stacked operator form.

Node i privately holds one row (h_i, z_i) of the system z = H y. The
library distinguishes systems that admit an exact solution (z in the column
span of H) from genuine least-squares instances, and builds the stacked
operators: their extreme eigenvalues for the parameter calculus and, when
read, the dense stacked matrices the matrix-form reference recursions
operate on.

The extreme eigenvalues of the stacked operator Fd = L kron I_m + Hd come
from one entry point, :func:`stacked_extremes`: a dense eigensolve up to
``DENSE_MAX_DIM`` (m*N), Lanczos on the matrix-free product above it.
:func:`build_stacked` calls it and returns :class:`StackedOperators`, the
one spectral summary of a (problem, graph) pair that the planner, the
solver and the oracles read. It is built once per (problem, Laplacian)
object pair and is read-only. The Lanczos start vector comes from a
private fixed seed; no user seed is drawn from.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import (LaplacianSummary, lanczos_extremes, per_receiver_sum,
                    sym_eig_extremes)

__all__ = [
    "LinearProblem",
    "ProblemClassification",
    "StackedOperators",
    "classify",
    "build_stacked",
    "stacked_extremes",
    "spectral_data",
    "theta_n",
    "parse_problem",
    "format_problem",
    "load_problem",
    "save_problem",
]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LinearProblem:
    """System z = H y with H of shape (N, m); row i belongs to node i.

    ``H`` and ``z`` are read-only float copies of the inputs, so a summary
    built on the problem (:func:`build_stacked`) cannot go stale."""

    H: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        H = _read_only(np.array(self.H, dtype=float))
        z = _read_only(np.array(self.z, dtype=float))
        if H.ndim != 2:
            raise ValueError("H must be a matrix")
        if z.shape != (H.shape[0],):
            raise ValueError("z length must match the row count of H")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "z", z)

    @property
    def n_nodes(self) -> int:
        return self.H.shape[0]

    @property
    def dim(self) -> int:
        return self.H.shape[1]


@dataclass(frozen=True)
class ProblemClassification:
    kind: str  # UniqueExact | UniqueLeastSquares | Unsupported
    solution: np.ndarray | None
    residual_norm: float


@dataclass(frozen=True)
class StackedOperators:
    """Spectral summary of a (problem, graph) pair, and its stacked operators.

    The constants the closed forms read are plain fields, not properties
    reading through ``lap``: ``planner.alpha_star`` reads them about 20
    times at each of its 999 grid points. The dense (mN x mN) ``Lm``
    (kron(L, I_m)), ``Hd`` (block-diagonal of h_i h_i^T) and ``Fd``
    (Lm + Hd) are assembled on first read, by the matrix-form oracle and
    the unquantized baseline only, so planning or solving allocates none.
    Every array is read-only: callers that share the summary share them.
    """

    zH: np.ndarray          # stack of z_i * h_i
    fd_min: float           # extreme eigenvalues of Fd
    fd_max: float
    lambda2: float          # Laplacian algebraic connectivity
    lambdaN: float          # Laplacian largest eigenvalue
    dstar: int              # maximum node degree
    m: int                  # unknowns (columns of H)
    n: int                  # nodes
    hd_inf_norm: float      # max absolute row sum
    hd_2_norm: float        # spectral norm
    zh_inf_norm: float
    zh_2_norm: float
    problem: LinearProblem = field(repr=False)
    lap: LaplacianSummary = field(repr=False)

    @property
    def kappa_n(self) -> float:
        return self.lambdaN / self.lambda2

    @property
    def h_cap_exact(self) -> float:
        return 2.0 / (self.fd_min + self.fd_max)

    @property
    def h_cap_ls(self) -> float:
        return min(2.0 / (self.lambda2 + self.lambdaN), 1.0 / self.fd_min)

    @cached_property
    def Lm(self) -> np.ndarray:
        return _read_only(_dense_lm(self.lap, self.m))

    @cached_property
    def Hd(self) -> np.ndarray:
        return _read_only(_dense_hd(self.problem))

    @cached_property
    def Fd(self) -> np.ndarray:
        return _read_only(self.Lm + _dense_hd(self.problem))


# classify: rank deficient when min eig(H^T H) <= _RANK_TOL * max eig(H^T H);
# exact when the residual is at most _EXACT_TOL * (1 + ||z||)
_RANK_TOL = 1e-12
_EXACT_TOL = 1e-9


def classify(p: LinearProblem) -> ProblemClassification:
    """Solve the normal equations and classify the system.

    Returns ``Unsupported`` when H is rank deficient; otherwise the unique
    minimizer of ||z - H y||^2, labeled exact when the residual is
    negligible.
    """
    H, z = p.H, p.z
    G = H.T @ H
    gmin, gmax = sym_eig_extremes(G)
    if gmax <= 0 or gmin <= _RANK_TOL * gmax:
        return ProblemClassification("Unsupported", None, float("nan"))
    c = np.linalg.cholesky(G)
    y = np.linalg.solve(c.T, np.linalg.solve(c, H.T @ z))
    residual = float(np.linalg.norm(z - H @ y))
    exact = residual <= _EXACT_TOL * (1.0 + float(np.linalg.norm(z)))
    kind = "UniqueExact" if exact else "UniqueLeastSquares"
    return ProblemClassification(kind, y, residual)


# Stacked dimension m*N up to which the extremes come from a dense
# eigensolve. Measured crossover (tools/spectral_crossover.py; cycle, star,
# complete and Erdos-Renyi graphs, m in {1, 3, 10}, one BLAS thread): from
# mN = 600 up, Lanczos was faster on every family except cycles with
# m = 10. Those need about 400 steps, so they certify within the mN/2 cap
# only from about 810; at 900 Lanczos took 0.050 s against 0.076 s. Keep
# it at 600 or more: the five-node examples, the ex2 and criterion-7
# systems (500) and a 200-node cycle with m = 3 then keep the bits of the
# dense solve.
DENSE_MAX_DIM = 800
# Cap on Lanczos steps, also at most m*N/2. A run to that cap without a
# certificate took 0.1 to 1.0 times as long as the dense solve it then
# falls back to (cycles and ER(0.1), m in {3, 10}, mN from 900 to 3000).
LANCZOS_MAX_ITER = 2000
# Memory the dense fallback may take for Fd and its two summands, three
# (mN)^2 float64 arrays: up to mN = 6688. At N = 10^4, m = 3 they would
# take 21.6 GB.
_DENSE_FALLBACK_BYTES = 2 ** 30


def _dense_hd(p: LinearProblem) -> np.ndarray:
    """Dense block-diagonal Hd of the h_i h_i^T blocks."""
    n, m = p.n_nodes, p.dim
    Hd = np.zeros((n, m, n, m))
    node = np.arange(n)
    Hd[node, :, node, :] = p.H[:, :, None] * p.H[:, None, :]
    return Hd.reshape(n * m, n * m)


def _dense_lm(lap: LaplacianSummary, m: int) -> np.ndarray:
    """Dense kron(L, I_m): the one place it is built."""
    return np.kron(lap.L, np.eye(m))


def _stacked_product(p: LinearProblem, lap: LaplacianSummary):
    """v -> Fd v without forming Fd: (L kron I_m) v, plus H rowdot(H, v).

    L is a simple graph's Laplacian (unit weights), with E edges and the
    2E arcs of ``lap.graph.arcs``. On a dense graph (16 E >= N^2) the Laplacian
    term is the product L @ V with the N x N L that the summary already
    holds; otherwise it is degree times V minus the per-receiver sums over
    the arcs (:func:`~quantnet.graph.per_receiver_sum`).
    Measured per product, one BLAS thread: L @ V costs 0.4-1.7 ns per entry
    of L at N = 1000, the edge list 4-7 ns per arc and column.
    So at N = 1000 the edge list won on graphs with up to 5% of all edges
    (0.25 against 1.3 ms at 2%, m = 3), L @ V from 10-20% on, for m in
    {1, 3, 10} (1.4 against 8.7 ms at 50%). The rule sits at 1/8.
    Smaller graphs favour L @ V from lower densities; the worst case left on
    the edge list was N = 300, m = 10 at 10% (0.33 against 0.09 ms).
    """
    n, m, H = p.n_nodes, p.dim, p.H
    recv, send = lap.graph.arcs
    if 8 * len(recv) >= n * n:          # 16 E >= N^2, as there are 2E arcs
        L = lap.L

        def laplacian(V):
            return L @ V
    else:
        deg = lap.graph.degrees()[:, None]
        heard = per_receiver_sum(recv, n, m)

        def laplacian(V):
            return deg * V - heard(V.take(send, axis=0))

    def apply(v):
        V = v.reshape(n, m)
        return (laplacian(V)
                + np.einsum("ij,ij->i", H, V)[:, None] * H).ravel()
    return apply


def stacked_extremes(p: LinearProblem, lap: LaplacianSummary) -> tuple:
    """(fd_min, fd_max): extreme eigenvalues of Fd = L kron I_m + Hd.

    Up to ``DENSE_MAX_DIM`` (m*N) they come from a dense eigensolve of Fd.
    Above it they come from :func:`~quantnet.graph.lanczos_extremes`,
    Lanczos with partial reorthogonalisation (Simon, 1984), on the
    matrix-free product, which forms no (mN x mN) array; each value is
    certified to ``LANCZOS_TOL * fd_max``. Without a certificate after
    ``min(mN/2, LANCZOS_MAX_ITER)`` steps, the dense eigensolve runs
    instead, where its Fd and two summands fit a 1 GiB budget; above that
    it raises RuntimeError. The Lanczos start vector comes from a private
    fixed seed, so no user seed (``cfg.seed``, ``noise.seed``) is drawn
    from.
    """
    if lap.graph.node_count != p.n_nodes:
        raise ValueError("graph size does not match the problem")
    dim = p.n_nodes * p.dim
    if dim > DENSE_MAX_DIM:
        steps = min(dim // 2, LANCZOS_MAX_ITER)
        ext = lanczos_extremes(_stacked_product(p, lap), dim, max_iter=steps)
        if ext is not None:
            return ext
        need = 3 * 8 * dim * dim
        if need > _DENSE_FALLBACK_BYTES:
            raise RuntimeError(
                f"Lanczos gave no certificate for mN = {dim} in {steps} "
                f"steps, and the dense fallback would need {need} bytes for "
                f"Fd and its two summands (budget {_DENSE_FALLBACK_BYTES})")
    return sym_eig_extremes(_dense_lm(lap, p.dim) + _dense_hd(p))


# build_stacked's memo, (id(p), id(lap)) -> summary of (p, lap). A summary
# holds its problem and Laplacian, so neither id can be reused while the
# entry lives, and the entry goes with the caller's last reference to it.
_STACKED = weakref.WeakValueDictionary()


def build_stacked(p: LinearProblem, lap: LaplacianSummary) -> StackedOperators:
    """The spectral summary of (p, lap) for the calculus, the solver and the
    oracles.

    ``fd_min`` and ``fd_max`` are those of :func:`stacked_extremes`;
    ``lambda2``, ``lambdaN`` and ``dstar`` are copied from ``lap``. The
    dense ``Lm``, ``Hd`` and ``Fd`` are assembled only when read.

    The summary is built once per (problem, Laplacian) object pair: while
    any caller holds it, a second call on the same pair returns the same
    object, so the planner and every ``run_*`` on the pair share one
    spectral set-up. The problem, the Laplacian and the summary are
    read-only, so it cannot go stale.
    """
    ops = _STACKED.get((id(p), id(lap)))
    if ops is not None and ops.problem is p and ops.lap is lap:
        return ops
    fd_min, fd_max = stacked_extremes(p, lap)
    zH = _read_only((p.z[:, None] * p.H).reshape(-1))
    # infinity norm = max absolute row sum; the block-diagonal structure
    # reduces both norms to per-block quantities. |h_a h_b| = |h_a| |h_b|
    # exactly, so the (N, m, m) stack of |h_i h_i^T| and its row sums carry
    # the bits of one np.outer per node.
    absH = np.abs(p.H)
    hd_inf = float((absH[:, :, None] * absH[:, None, :]).sum(axis=2).max())
    # spectral norm of a rank-1 block h_i h_i^T: max h_i.h_i, as one matmul
    # per row, which keeps the bits of h @ h (a row-wise einsum does not)
    hd_2 = float((p.H[:, None, :] @ p.H[:, :, None]).max())
    ops = StackedOperators(
        zH=zH, fd_min=float(fd_min), fd_max=float(fd_max),
        lambda2=lap.lambda2, lambdaN=lap.lambdaN, dstar=lap.dstar,
        m=p.dim, n=p.n_nodes, hd_inf_norm=hd_inf, hd_2_norm=hd_2,
        zh_inf_norm=float(np.abs(zH).max()),
        zh_2_norm=float(np.linalg.norm(zH)),
        problem=p, lap=lap,
    )
    _STACKED[id(p), id(lap)] = ops
    return ops


def spectral_data(ops: StackedOperators, lap: LaplacianSummary,
                  m: int, n: int) -> StackedOperators:
    """``ops``, once ``lap``, ``m`` and ``n`` are checked to be those it was
    built from: the check of every reader that is also passed them."""
    if lap is not ops.lap:
        raise ValueError("lap is not the Laplacian the summary was built on")
    if (m, n) != (ops.m, ops.n):
        raise ValueError(f"(m, n) = ({m}, {n}) does not match the summary's "
                         f"({ops.m}, {ops.n})")
    return ops


def theta_n(ops: StackedOperators, lap: LaplacianSummary,
            m: int, n: int) -> float:
    """Scalability constant fd_min^2 / (2 sqrt(mN) lambdaN fd_max).

    Governs the best convergence exponent attainable per quantization level
    as the network grows. ``lap``, ``m`` and ``n`` must be the summary's.
    """
    spectral_data(ops, lap, m, n)
    if ops.fd_min <= 0:
        raise ValueError("requires a positive-definite stacked operator")
    return ops.fd_min ** 2 / (2.0 * np.sqrt(ops.m * ops.n) * ops.lambdaN
                              * ops.fd_max)


def parse_problem(text: str) -> LinearProblem:
    """Parse the problem text format: ``N M`` header, then N rows of m+1
    numbers (the node's row of H followed by its z entry). '#' comments."""
    header = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected header 'N M'")
            header = (int(parts[0]), int(parts[1]))
            continue
        n, m = header
        if len(parts) != m + 1:
            raise ValueError(f"line {lineno}: expected {m + 1} numbers")
        rows.append([float(v) for v in parts])
    if header is None:
        raise ValueError("missing 'N M' header")
    n, m = header
    if len(rows) != n:
        raise ValueError(f"expected {n} rows, found {len(rows)}")
    data = np.array(rows)
    return LinearProblem(H=data[:, :m], z=data[:, m])


def format_problem(p: LinearProblem) -> str:
    lines = [f"{p.n_nodes} {p.dim}"]
    for i in range(p.n_nodes):
        vals = list(p.H[i]) + [p.z[i]]
        lines.append(" ".join(f"{v:.17g}" for v in vals))
    return "\n".join(lines) + "\n"


def load_problem(path) -> LinearProblem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def save_problem(p: LinearProblem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_problem(p))
