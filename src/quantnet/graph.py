"""Undirected graphs, Laplacians, and symmetric-spectrum utilities.

Every other part of the library consumes graphs through this module: the
solver and the stacked product need the arcs (:attr:`Graph.arcs`, the one
arc order), and the parameter calculus needs the
Laplacian's algebraic connectivity (second-smallest eigenvalue), its largest
eigenvalue, and the maximum node degree.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Graph",
    "LaplacianSummary",
    "build_laplacian",
    "per_receiver_sum",
    "generate_graph",
    "GRAPH_KINDS",
    "sym_eig_extremes",
    "lanczos_extremes",
    "parse_graph",
    "format_graph",
    "load_graph",
    "save_graph",
]

@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected, simple graph on nodes 1..N.

    ``edges`` is a read-only (E, 2) ``np.intp`` array of the distinct pairs
    (i, j), 1 <= i < j <= N, in lexicographic order; :attr:`arcs` and
    :meth:`degrees` derive from it. The constructor takes any collection of
    pairs and names the first bad one. ``(i, j) in g.edges`` is numpy's
    elementwise test, not a pair test. The constructor accepts a
    disconnected graph; :func:`build_laplacian` and :func:`generate_graph`
    check connectivity."""

    node_count: int
    edges: np.ndarray
    retries: int = 0  # seed increments needed by the random generator

    def __post_init__(self):
        n, e = self.node_count, self.edges
        if n < 2:
            raise ValueError("graph needs at least 2 nodes")
        e = (np.asarray(e if isinstance(e, np.ndarray) else list(e))
             if len(e) else np.empty((0, 2), np.intp))
        if e.ndim != 2 or e.shape[1] != 2 or e.dtype.kind not in "iu":
            raise ValueError("edges must be integer pairs (i, j)")
        i, j = e.T
        bad = e[(i < 1) | (i >= j) | (j > n)]
        e = e[np.argsort(i * n + j, kind="stable")].astype(np.intp)
        twice = e[1:][(e[1:] == e[:-1]).all(axis=1)]
        for pairs, why in ((bad, f"needs 1 <= i < j <= {n}"),
                           (twice, "is given twice")):
            if len(pairs):
                raise ValueError(f"edge ({pairs[0, 0]},{pairs[0, 1]}) {why}")
        e.flags.writeable = False
        object.__setattr__(self, "edges", e)

    @cached_property
    def arcs(self) -> tuple:
        """Read-only 0-based (receiver, sender) arrays of the 2E arcs, both
        directions of every edge, sorted by receiver, then sender. The one
        arc order: the Laplacian, the solver's decoders and draws, and every
        per-receiver sum follow it."""
        n = self.node_count
        i, j = self.edges.T - 1
        # one sort of the unique keys receiver * n + sender; np.lexsort of
        # the pairs took 1.1 ms against 0.15 ms at E = 4455
        key = np.sort(np.concatenate((i * n + j, j * n + i)))
        recv, send = np.divmod(key, n)
        recv.flags.writeable = send.flags.writeable = False
        return recv, send

    def degrees(self) -> np.ndarray:
        return np.bincount(self.arcs[0], minlength=self.node_count)

    def is_connected(self) -> bool:
        """By label propagation over the arcs. Every node starts labelled
        with itself. Each pass hooks, for every arc (u, v), the node named by
        u's label to v's label where that is smaller, then replaces every
        label by its label's label. Labels only fall, so the passes stop. A
        pass that changes nothing leaves both ends of every edge with one
        label, and a label never leaves its component: the graph is
        connected when every node carries node 0's label, 0."""
        u, v = self.arcs
        label = np.arange(self.node_count)
        while True:
            new = label.copy()
            np.minimum.at(new, label[u], label[v])
            new = new[new]
            if np.array_equal(new, label):
                return bool((label == 0).all())
            label = new


@dataclass(frozen=True)
class LaplacianSummary:
    """Laplacian matrix of ``graph`` (read-only) with its extreme nonzero
    eigenvalues."""

    L: np.ndarray
    lambda2: float
    lambdaN: float
    graph: Graph

    @property
    def dstar(self) -> int:
        """Maximum node degree."""
        return int(self.graph.degrees().max())


def per_receiver_sum(recv: np.ndarray, n: int, m: int):
    """v -> (n, m) sums per receiver of v, the (len(recv), m) values on
    arcs with receivers ``recv``, added in arc order: one np.bincount over
    a flat (receiver, coordinate) index that is built once, here."""
    flat = (recv[:, None] * m + np.arange(m)).ravel()

    def summed(v: np.ndarray) -> np.ndarray:
        return np.bincount(flat, weights=v.ravel(),
                           minlength=n * m).reshape(n, m)
    return summed


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
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps
_SEMI_ORTH = np.sqrt(_EPS)     # overlap estimate that calls for Gram-Schmidt


# The Ritz checks below work on the tridiagonal T_k in O(k) per pass. A
# dense LAPACK eigensolve of T_k costs O(k^3): 23-37 ms at k = 450, where
# one check here (both ends) took 3.5 ms; at k = 50 they cost about the
# same. The loops run over Python floats, which at these lengths is faster
# than numpy calls per element.

def _lowest_eigenvalue(a, b2, lo: float, hi: float, tol: float) -> float:
    """Lowest eigenvalue of the symmetric tridiagonal matrix with diagonal
    ``a`` and squared off-diagonal ``b2`` (``b2[0] = 0``), bisected in
    [lo, hi] down to ``tol``. T has an eigenvalue below x exactly when a
    pivot of the LDL^T factorisation of T - xI is not positive (Sturm)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        d = 1.0
        for ai, bi in zip(a, b2):
            d = ai - mid - bi / d
            if d <= 0.0:
                hi = mid
                break
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _tridiagonal_extremes(a: np.ndarray, b: np.ndarray) -> tuple:
    """(smallest, largest) eigenvalue of the symmetric tridiagonal matrix
    with diagonal ``a`` and off-diagonal ``b``, to about eps times its
    Gershgorin bound, by bisection from the Gershgorin interval."""
    r = np.abs(b)
    off = np.append(r, 0.0) + np.insert(r, 0, 0.0)
    glo, ghi = float((a - off).min()), float((a + off).max())
    tol = 2.0 * np.finfo(float).eps * max(abs(glo), abs(ghi))
    al, b2 = a.tolist(), [0.0] + (b * b).tolist()
    lo = _lowest_eigenvalue(al, b2, glo, float(a.min()), tol)
    hi = -_lowest_eigenvalue([-x for x in al], b2, -ghi, -float(a.max()), tol)
    return lo, hi


def _last_component(a: np.ndarray, b: np.ndarray, theta: float) -> float:
    """|s_k| of the unit eigenvector s of the tridiagonal T (diagonal ``a``,
    off-diagonal ``b``) for its eigenvalue ``theta``. The vector solves the
    twisted factorisation of T - theta I at the index where that is least
    singular (Parlett & Dhillon, LAA 309, 2000); its components are ratios
    of pivots, so a tiny s_k keeps its relative accuracy."""
    c = (a - theta).tolist()
    b2 = (b * b).tolist()
    dp = [c[0] or _TINY]                  # pivots of T - theta I = L D L^T
    for ci, bi in zip(c[1:], b2):
        dp.append(ci - bi / dp[-1] or _TINY)
    dm = [c[-1] or _TINY]                 # and of U D U^T, from the bottom
    for ci, bi in zip(c[-2::-1], b2[::-1]):
        dm.append(ci - bi / dm[-1] or _TINY)
    dp, dm = np.array(dp), np.array(dm[::-1])
    r = int(np.argmin(np.abs(dp + dm - (a - theta))))
    head = np.cumprod(-b[:r][::-1] / dp[:r][::-1])    # s_{r-1}, ..., s_1
    tail = np.cumprod(-b[r:] / dm[r + 1:])            # s_{r+1}, ..., s_k
    last = abs(tail[-1]) if tail.size else 1.0        # with s_r = 1
    return last / np.sqrt(1.0 + head @ head + tail @ tail)


def lanczos_extremes(apply, dim: int, max_iter: int):
    """(smallest, largest) eigenvalue of a symmetric operator, matrix-free.

    ``apply`` maps a vector of length ``dim`` to its product with the
    operator. Lanczos with partial reorthogonalisation (Simon, *Math.
    Comp.* 42(165), 1984): each step applies the three-term recurrence and
    extends the tridiagonal T_k. Simon's omega-recurrence, O(k) on the
    alphas and betas with a round-off term, estimates the overlaps of the
    new basis vector with the old ones. Only when an estimate exceeds
    sqrt(eps) does a Gram-Schmidt pass run against the whole basis, at that
    step and the next, which resets the estimates to round-off. The basis
    then stays semi-orthogonal (overlaps of order sqrt(eps)), which Simon
    shows keeps the Ritz values as accurate as full reorthogonalisation
    does. An
    end Ritz value theta of T_k, with eigenvector s, is certified once
    beta_k |s_k| <= LANCZOS_TOL * max |theta|: some eigenvalue lies that
    close to it. Each check takes the end Ritz values by Sturm bisection
    and s_k by a twisted factorisation, both O(k) on T_k. Returns the two
    end Ritz values once both are certified, or None when ``max_iter``
    steps give no certificate. The start vector comes from a generator
    seeded with ``LANCZOS_SEED``, so two calls give the same bits. The
    basis grows with the step count and never exceeds (max_iter, dim).
    """
    return _lanczos(apply, dim, max_iter)[0]


def _lanczos(apply, dim: int, max_iter: int) -> tuple:
    """:func:`lanczos_extremes`' result, and the basis it built (a view)."""
    q = np.random.default_rng(LANCZOS_SEED).standard_normal(dim)
    Q = np.empty((min(max_iter, 64), dim))
    Q[0] = q / np.linalg.norm(q)
    alpha = np.empty(max_iter)
    beta = np.empty(max_iter)
    check = _LANCZOS_CHECK
    # omega[k] estimates Q[j] . Q[k], omega_prev[k] Q[j - 1] . Q[k];
    # round-off enters at sqrt(dim) eps / 2 per step, as in Larsen's PROPACK
    omega_prev, omega = np.empty(0), np.ones(1)
    roundoff = 0.5 * np.sqrt(dim) * _EPS
    tnorm = 0.0         # Gershgorin bound on |T_k|, a stand-in for |A|
    again = False       # a Gram-Schmidt pass is due at this step
    for j in range(max_iter):
        w = apply(Q[j])
        alpha[j] = Q[j] @ w
        w -= alpha[j] * Q[j]
        if j:
            w -= beta[j - 1] * Q[j - 1]
        beta[j] = np.linalg.norm(w)
        amax = np.abs(alpha[:j + 1]).max()
        # a tiny beta always certifies below, so the division is safe
        if beta[j] > LANCZOS_TOL * amax:
            tnorm = max(tnorm, abs(alpha[j]) + beta[j] + (j and beta[j - 1]))
            # Simon's recurrence, k < j: beta_j w_{j+1,k} = beta_k w_{j,k+1}
            #   + (alpha_k - alpha_j) w_{j,k} + beta_{k-1} w_{j,k-1}
            #   - beta_{j-1} w_{j-1,k}, plus round-off with the sum's sign
            s = (alpha[:j] - alpha[j]) * omega[:j] + beta[:j] * omega[1:]
            if j:
                s[1:] += beta[:j - 1] * omega[:j - 1]
                s -= beta[j - 1] * omega_prev
            s += np.copysign(roundoff * tnorm, s)
            omega_prev, omega = omega, np.empty(j + 2)
            omega[:j] = s / beta[j]
            omega[j:] = roundoff, 1.0
            if again or (j and np.abs(omega[:j]).max() > _SEMI_ORTH):
                again = not again
                basis = Q[:j + 1]
                w -= basis.T @ (basis @ w)
                beta[j] = np.linalg.norm(w)
                omega[:j + 1] = roundoff
        if (j + 1 == check or j + 1 == max_iter
                or beta[j] <= LANCZOS_TOL * amax):
            check += max(_LANCZOS_CHECK, check // 8)
            a, b = alpha[:j + 1], beta[:j]
            lo, hi = _tridiagonal_extremes(a, b)
            cert = LANCZOS_TOL * max(abs(lo), abs(hi))
            if beta[j] * max(_last_component(a, b, lo),
                             _last_component(a, b, hi)) <= cert:
                return (lo, hi), Q[:j + 1]
        if j + 1 == max_iter:
            break
        if j + 1 == len(Q):
            grown = np.empty((min(2 * len(Q), max_iter), dim))
            grown[:len(Q)] = Q
            Q = grown
        Q[j + 1] = w / beta[j]
    return None, Q[:max_iter]


# build_laplacian's memo, id(g) -> summary of g. A summary holds its graph,
# so the id cannot be reused while the entry lives, and the entry goes with
# the caller's last reference to the summary: the memo holds nothing alive.
_LAPLACIANS = weakref.WeakValueDictionary()


def build_laplacian(g: Graph) -> LaplacianSummary:
    """Laplacian L = degree matrix - adjacency, with spectral summary.

    L is assembled from :attr:`Graph.arcs` with integer entries, so row
    sums are exactly zero. One symmetric eigensolve gives both lambda2 (the
    second-smallest eigenvalue, the algebraic connectivity) and lambdaN.
    Raises ValueError for a disconnected graph, on every call.

    The summary is built once per ``Graph`` object: while any caller holds
    it, a second call on the same graph returns the same object. A graph
    and its ``edges`` are read-only, and so is ``L``, so it cannot go stale.
    """
    lap = _LAPLACIANS.get(id(g))
    if lap is not None and lap.graph is g:
        return lap
    n = g.node_count
    if not g.is_connected():
        raise ValueError("graph not connected")
    L = np.zeros((n, n))
    L[g.arcs] = -1.0
    L[np.diag_indices(n)] = g.degrees()
    vals = np.linalg.eigvalsh(L)
    L.flags.writeable = False
    lap = LaplacianSummary(L=L, lambda2=float(vals[1]),
                           lambdaN=float(vals[-1]), graph=g)
    _LAPLACIANS[id(g)] = lap
    return lap


GRAPH_KINDS = ("cycle", "star", "complete", "erdos_renyi")


def generate_graph(kind: str, n: int, p: float = 0.5, seed: int = 0) -> Graph:
    """Deterministic graph generator.

    ``kind`` is one of :data:`GRAPH_KINDS`.
    Erdős–Rényi draws each edge independently with probability ``p`` and
    retries with seed+1 (up to 10**4 attempts) until connected.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    i = np.arange(1, n)
    if kind == "cycle":
        pairs = np.column_stack((i, i + 1))
        return Graph(n, pairs if n == 2 else np.vstack((pairs, (1, n))))
    if kind == "star":
        return Graph(n, np.column_stack((np.ones_like(i), i + 1)))
    if kind == "complete":
        return Graph(n, np.column_stack(np.triu_indices(n, 1)) + 1)
    if kind != "erdos_renyi":
        raise ValueError(f"unknown graph kind {kind!r}")
    if not (0.0 < p <= 1.0):
        raise ValueError("p must be in (0, 1]")
    # the pairs (i, j), i < j, in lexicographic order: one draw each
    pairs = np.column_stack(np.triu_indices(n, 1)) + 1
    for attempt in range(10_000):
        keep = np.random.default_rng(seed + attempt).random(len(pairs)) < p
        g = Graph(n, pairs[keep], retries=attempt)
        if g.is_connected():
            return g
    raise RuntimeError("no connected graph found after 10000 attempts")


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
    return Graph(n, edges)


def format_graph(g: Graph) -> str:
    return f"N {g.node_count}\n" + "".join(f"{i} {j}\n"
                                          for i, j in g.edges.tolist())


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))
