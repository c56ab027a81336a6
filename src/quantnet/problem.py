"""The distributed linear system and its stacked operator form.

Node i privately holds one row (h_i, z_i) of the system z = H y. The
library distinguishes systems that admit an exact solution (z in the column
span of H) from genuine least-squares instances, and builds the large
stacked matrices that both the parameter calculus and the matrix-form
reference recursions operate on.

The extreme eigenvalues of the stacked operator Fd = L kron I_m + Hd come
from one entry point, :func:`stacked_extremes`: a dense eigensolve up to
``DENSE_MAX_DIM`` (m*N), Lanczos on the matrix-free product above it.
:func:`build_stacked` and the solver both call it. The Lanczos start
vector comes from a private fixed seed; no user seed is drawn from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import LaplacianSummary, lanczos_extremes, sym_eig_extremes

__all__ = [
    "LinearProblem",
    "ProblemClassification",
    "StackedOperators",
    "classify",
    "build_stacked",
    "stacked_extremes",
    "theta_n",
    "parse_problem",
    "format_problem",
    "load_problem",
    "save_problem",
]


@dataclass(frozen=True)
class LinearProblem:
    """System z = H y with H of shape (N, m); row i belongs to node i."""

    H: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        z = np.asarray(self.z, dtype=float)
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
    """Block operators on the stacked state space of dimension m*N."""

    Hd: np.ndarray          # block-diagonal of h_i h_i^T
    Fd: np.ndarray          # kron(L, I_m) + Hd
    zH: np.ndarray          # stack of z_i * h_i
    fd_min: float
    fd_max: float
    hd_inf_norm: float      # max absolute row sum
    hd_2_norm: float        # spectral norm
    zh_inf_norm: float
    zh_2_norm: float


def classify(p: LinearProblem, exact_tol: float | None = None,
             rank_tol: float | None = None) -> ProblemClassification:
    """Solve the normal equations and classify the system.

    Returns ``Unsupported`` when H is rank deficient; otherwise the unique
    minimizer of ||z - H y||^2, labeled exact when the residual is
    negligible.
    """
    H, z = p.H, p.z
    G = H.T @ H
    gmin, gmax = sym_eig_extremes(G)
    if rank_tol is None:
        rank_tol = 1e-12 * gmax
    if gmax <= 0 or gmin <= rank_tol:
        return ProblemClassification("Unsupported", None, float("nan"))
    c = np.linalg.cholesky(G)
    y = np.linalg.solve(c.T, np.linalg.solve(c, H.T @ z))
    residual = float(np.linalg.norm(z - H @ y))
    if exact_tol is None:
        exact_tol = 1e-9 * (1.0 + float(np.linalg.norm(z)))
    kind = "UniqueExact" if residual <= exact_tol else "UniqueLeastSquares"
    return ProblemClassification(kind, y, residual)


# Stacked dimension m*N up to which the extremes come from a dense
# eigensolve. Measured crossover (cycle, star, complete and Erdos-Renyi
# graphs, m in {1, 3, 10}): above it Lanczos was at least as fast on every
# family with m >= 3. With m = 1, dense graphs cross over later, because
# the edge-list product costs O(N^2) per step there.
DENSE_MAX_DIM = 1500
# Cap on Lanczos steps, also at most m*N/2: past that the reorthogonalisation
# alone costs about as much as the dense solve it falls back to.
LANCZOS_MAX_ITER = 2000


def _check_sizes(p: LinearProblem, lap: LaplacianSummary) -> None:
    if lap.L.shape[0] != p.n_nodes:
        raise ValueError("graph size does not match the problem")


def _dense_stacked(p: LinearProblem, lap: LaplacianSummary) -> tuple:
    """The dense (Hd, Fd) pair of the stacked operator."""
    n, m = p.n_nodes, p.dim
    Hd = np.zeros((m * n, m * n))
    for i in range(n):
        hi = p.H[i]
        Hd[i * m:(i + 1) * m, i * m:(i + 1) * m] = np.outer(hi, hi)
    return Hd, np.kron(lap.L, np.eye(m)) + Hd


def _stacked_product(p: LinearProblem, lap: LaplacianSummary):
    """v -> Fd v without forming Fd: (L kron I_m) v as degree times v minus
    the per-receiver sums over the directed edges of L (one np.bincount),
    plus H rowdot(H, v). L is a simple graph's Laplacian (unit weights)."""
    n, m, H, L = p.n_nodes, p.dim, p.H, lap.L
    recv, send = np.nonzero(L)          # row-major: (receiver, sender) order
    off = recv != send
    recv, send = recv[off], send[off]
    deg = np.diag(L)[:, None]
    flat = (recv[:, None] * m + np.arange(m)).ravel()

    def apply(v):
        V = v.reshape(n, m)
        heard = np.bincount(flat, weights=V.take(send, axis=0).ravel(),
                            minlength=n * m).reshape(n, m)
        return (deg * V - heard
                + np.einsum("ij,ij->i", H, V)[:, None] * H).ravel()
    return apply


def _extremes(p: LinearProblem, lap: LaplacianSummary, dense_fd) -> tuple:
    """Dense extremes of ``dense_fd()`` up to DENSE_MAX_DIM, Lanczos above
    it, and the dense solve again if Lanczos gives no certificate."""
    dim = p.n_nodes * p.dim
    if dim > DENSE_MAX_DIM:
        ext = lanczos_extremes(_stacked_product(p, lap), dim,
                               max_iter=min(dim // 2, LANCZOS_MAX_ITER))
        if ext is not None:
            return ext
    return sym_eig_extremes(dense_fd())


def stacked_extremes(p: LinearProblem, lap: LaplacianSummary) -> tuple:
    """(fd_min, fd_max): extreme eigenvalues of Fd = L kron I_m + Hd.

    Up to ``DENSE_MAX_DIM`` (m*N) they come from a dense eigensolve of Fd.
    Above it they come from :func:`~quantnet.graph.lanczos_extremes` on the
    matrix-free product, which forms no (mN x mN) array; each value is
    certified to ``LANCZOS_TOL * fd_max``. Without a certificate after
    ``min(mN/2, LANCZOS_MAX_ITER)`` steps, the dense eigensolve runs
    instead. Either way the bits equal those of :func:`build_stacked`. The
    Lanczos start vector comes from a private fixed seed, so no user seed
    (``cfg.seed``, ``noise.seed``) is drawn from.
    """
    _check_sizes(p, lap)
    return _extremes(p, lap, lambda: _dense_stacked(p, lap)[1])


def build_stacked(p: LinearProblem, lap: LaplacianSummary) -> StackedOperators:
    """Assemble the stacked operators used by the calculus and the oracles.

    ``fd_min`` and ``fd_max`` are those of :func:`stacked_extremes`.
    """
    _check_sizes(p, lap)
    Hd, Fd = _dense_stacked(p, lap)
    zH = (p.z[:, None] * p.H).reshape(-1)
    fd_min, fd_max = _extremes(p, lap, lambda: Fd)
    # infinity norm = max absolute row sum; the block-diagonal structure
    # reduces both norms to per-block quantities
    hd_inf = max(float(np.abs(np.outer(h, h)).sum(axis=1).max()) for h in p.H)
    hd_2 = max(float(h @ h) for h in p.H)  # spectral norm of a rank-1 block
    return StackedOperators(
        Hd=Hd, Fd=Fd, zH=zH,
        fd_min=float(fd_min), fd_max=float(fd_max),
        hd_inf_norm=hd_inf, hd_2_norm=hd_2,
        zh_inf_norm=float(np.abs(zH).max()),
        zh_2_norm=float(np.linalg.norm(zH)),
    )


def theta_n(ops: StackedOperators, lap: LaplacianSummary,
            m: int, n: int) -> float:
    """Scalability constant fd_min^2 / (2 sqrt(mN) lambdaN fd_max).

    Governs the best convergence exponent attainable per quantization level
    as the network grows.
    """
    if ops.fd_min <= 0:
        raise ValueError("requires a positive-definite stacked operator")
    return ops.fd_min ** 2 / (2.0 * np.sqrt(m * n) * lap.lambdaN * ops.fd_max)


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
