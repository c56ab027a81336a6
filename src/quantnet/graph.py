"""Undirected graphs, Laplacians, and symmetric-spectrum utilities.

Every other part of the library consumes graphs through this module: the
solver needs the edge list, and the parameter calculus needs the
Laplacian's algebraic connectivity (second-smallest eigenvalue), its largest
eigenvalue, and the maximum node degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph",
    "LaplacianSummary",
    "build_laplacian",
    "generate_graph",
    "sym_eig_extremes",
    "lanczos_extremes",
    "parse_graph",
    "format_graph",
    "load_graph",
    "save_graph",
]

@dataclass(frozen=True)
class Graph:
    """Undirected, simple, connected-checked graph on nodes 1..N."""

    node_count: int
    edges: frozenset  # frozenset of (i, j) tuples with i < j, 1-based
    retries: int = 0  # seed increments needed by the random generator

    def __post_init__(self):
        if self.node_count < 2:
            raise ValueError("graph needs at least 2 nodes")
        for (i, j) in self.edges:
            if i == j:
                raise ValueError(f"self-loop ({i},{j}) not allowed")
            if not (1 <= i < j <= self.node_count):
                raise ValueError(f"edge ({i},{j}) out of range or unordered")

    def degrees(self) -> np.ndarray:
        d = np.zeros(self.node_count, dtype=int)
        for (i, j) in self.edges:
            d[i - 1] += 1
            d[j - 1] += 1
        return d

    def neighbors(self, i: int) -> list:
        """Sorted 1-based neighbor list of node i."""
        out = []
        for (a, b) in self.edges:
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return sorted(out)

    def is_connected(self) -> bool:
        return _bfs_connected(self.node_count, self.edges)


@dataclass(frozen=True)
class LaplacianSummary:
    """Laplacian matrix with the spectral quantities used downstream."""

    L: np.ndarray
    lambda2: float
    lambdaN: float
    dstar: int
    node_count: int = field(default=0)


def _bfs_connected(n: int, edges) -> bool:
    adj = {i: [] for i in range(1, n + 1)}
    for (i, j) in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {1}
    queue = [1]
    while queue:
        v = queue.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def sym_eig_extremes(A: np.ndarray) -> tuple:
    """(smallest, largest) eigenvalue of a symmetric matrix (LAPACK).

    Raises if the input is measurably asymmetric.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("square matrix required")
    scale = np.abs(A).max()
    if scale > 0 and np.abs(A - A.T).max() > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    vals = np.linalg.eigvalsh(0.5 * (A + A.T))
    return float(vals[0]), float(vals[-1])


LANCZOS_TOL = 1e-12     # relative residual that certifies a Ritz value
LANCZOS_SEED = 20181    # private start-vector stream; reads no user seed
_LANCZOS_CHECK = 10     # first Ritz check; then every max(10, k/8) steps


def lanczos_extremes(apply, dim: int, max_iter: int):
    """(smallest, largest) eigenvalue of a symmetric operator, matrix-free.

    ``apply`` maps a vector of length ``dim`` to its product with the
    operator. Lanczos with full reorthogonalisation (Golub & Van Loan,
    *Matrix Computations*, ch. 10): each step applies the three-term
    recurrence, then one Gram-Schmidt pass against the whole basis, and
    extends the tridiagonal T_k. An end Ritz value theta of T_k, with
    eigenvector s, is certified once beta_k |s_k| <= LANCZOS_TOL * max
    |theta|: some eigenvalue lies that close to it. Returns the two end
    Ritz values once both are certified, or None when ``max_iter`` steps
    give no certificate. The start vector comes from a generator seeded with
    ``LANCZOS_SEED``, so two calls give the same bits. The basis grows with
    the step count and never exceeds (max_iter, dim).
    """
    q = np.random.default_rng(LANCZOS_SEED).standard_normal(dim)
    Q = np.empty((min(max_iter, 64), dim))
    Q[0] = q / np.linalg.norm(q)
    alpha = np.empty(max_iter)
    beta = np.empty(max_iter)
    check = _LANCZOS_CHECK
    for j in range(max_iter):
        w = apply(Q[j])
        alpha[j] = Q[j] @ w
        w -= alpha[j] * Q[j]
        if j:
            w -= beta[j - 1] * Q[j - 1]
        basis = Q[:j + 1]
        w -= basis.T @ (basis @ w)
        beta[j] = np.linalg.norm(w)
        # a tiny beta always certifies, so the division below is safe
        if (j + 1 == check or j + 1 == max_iter
                or beta[j] <= LANCZOS_TOL * np.abs(alpha[:j + 1]).max()):
            check += max(_LANCZOS_CHECK, check // 8)
            T = (np.diag(alpha[:j + 1]) + np.diag(beta[:j], 1)
                 + np.diag(beta[:j], -1))
            theta, S = np.linalg.eigh(T)
            cert = LANCZOS_TOL * max(abs(theta[0]), abs(theta[-1]))
            if beta[j] * max(abs(S[-1, 0]), abs(S[-1, -1])) <= cert:
                return float(theta[0]), float(theta[-1])
        if j + 1 == max_iter:
            break
        if j + 1 == len(Q):
            grown = np.empty((min(2 * len(Q), max_iter), dim))
            grown[:len(Q)] = Q
            Q = grown
        Q[j + 1] = w / beta[j]
    return None


def build_laplacian(g: Graph) -> LaplacianSummary:
    """Laplacian L = degree matrix - adjacency, with spectral summary.

    Assembly happens in integer arithmetic so row sums are exactly zero.
    """
    if not g.is_connected():
        raise ValueError("graph not connected")
    n = g.node_count
    li = np.zeros((n, n), dtype=np.int64)
    for (i, j) in g.edges:
        li[i - 1, j - 1] -= 1
        li[j - 1, i - 1] -= 1
        li[i - 1, i - 1] += 1
        li[j - 1, j - 1] += 1
    L = li.astype(float)
    lam_min, lam_max = sym_eig_extremes(L)
    # algebraic connectivity: second-smallest; deflate the known null vector
    ones = np.ones((n, 1)) / np.sqrt(n)
    deflated = L + (lam_max + 1.0) * (ones @ ones.T)
    lam2, _ = sym_eig_extremes(deflated)
    return LaplacianSummary(L=L, lambda2=float(lam2), lambdaN=float(lam_max),
                            dstar=int(g.degrees().max()), node_count=n)


def generate_graph(kind: str, n: int, p: float = 0.5, seed: int = 0) -> Graph:
    """Deterministic graph generator.

    ``kind`` is one of ``cycle``, ``star``, ``complete``, ``erdos_renyi``.
    Erdős–Rényi draws each edge independently with probability ``p`` and
    retries with seed+1 (up to 10**4 attempts) until connected.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if kind == "cycle":
        edges = {(i, i + 1) for i in range(1, n)} | {(1, n)}
        if n == 2:
            edges = {(1, 2)}
        return Graph(n, frozenset(edges))
    if kind == "star":
        return Graph(n, frozenset((1, j) for j in range(2, n + 1)))
    if kind == "complete":
        return Graph(n, frozenset((i, j) for i in range(1, n + 1)
                                  for j in range(i + 1, n + 1)))
    if kind == "erdos_renyi":
        if not (0.0 < p <= 1.0):
            raise ValueError("p must be in (0, 1]")
        for attempt in range(10_000):
            rng = np.random.default_rng(seed + attempt)
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            draws = rng.random(len(pairs))
            edges = frozenset(pair for pair, u in zip(pairs, draws) if u < p)
            if edges and _bfs_connected(n, edges):
                return Graph(n, edges, retries=attempt)
        raise RuntimeError("no connected graph found after 10000 attempts")
    raise ValueError(f"unknown graph kind {kind!r}")


def parse_graph(text: str) -> Graph:
    """Parse the graph text format: header ``N <count>``, then ``i j`` lines.

    Lines starting with '#' (and inline '#' suffixes) are comments.
    """
    n = None
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "N":
                raise ValueError(f"line {lineno}: expected header 'N <count>'")
            n = int(parts[1])
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected edge 'i j'")
        i, j = int(parts[0]), int(parts[1])
        if i == j:
            raise ValueError(f"line {lineno}: self-loop")
        edges.add((min(i, j), max(i, j)))
    if n is None:
        raise ValueError("missing 'N <count>' header")
    return Graph(n, frozenset(edges))


def format_graph(g: Graph) -> str:
    lines = [f"N {g.node_count}"]
    lines += [f"{i} {j}" for (i, j) in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))
