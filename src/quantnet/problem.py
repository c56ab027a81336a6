"""The distributed linear system and its stacked operator form.

Node i privately holds one row (h_i, z_i) of the system z = H y. The
library distinguishes systems that admit an exact solution (z in the column
span of H) from genuine least-squares instances, and builds the large
stacked matrices that both the parameter calculus and the matrix-form
reference recursions operate on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import LaplacianSummary, sym_eig_extremes

__all__ = [
    "LinearProblem",
    "ProblemClassification",
    "StackedOperators",
    "classify",
    "build_stacked",
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


def build_stacked(p: LinearProblem, lap: LaplacianSummary) -> StackedOperators:
    """Assemble the stacked operators used by the calculus and the oracles."""
    n, m = p.n_nodes, p.dim
    if lap.L.shape[0] != n:
        raise ValueError("graph size does not match the problem")
    Hd = np.zeros((m * n, m * n))
    for i in range(n):
        hi = p.H[i]
        Hd[i * m:(i + 1) * m, i * m:(i + 1) * m] = np.outer(hi, hi)
    Fd = np.kron(lap.L, np.eye(m)) + Hd
    zH = (p.z[:, None] * p.H).reshape(-1)
    fd_min, fd_max = sym_eig_extremes(Fd)
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
