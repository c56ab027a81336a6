import gc
import tracemalloc
import warnings
import weakref
from dataclasses import fields

import numpy as np
import pytest

from quantnet import graph, problem
from quantnet.graph import (Graph, LaplacianSummary, build_laplacian,
                            generate_graph, lanczos_extremes,
                            sym_eig_extremes)
from quantnet.harness import CONSTANTS, builtin_problem, random_problem
from quantnet.oracle import make_exact_operators, make_ls_operators
from quantnet.problem import (DENSE_MAX_DIM, LinearProblem, build_stacked,
                              classify, format_problem, parse_problem,
                              stacked_extremes, theta_n)
from quantnet.solver import ExactConfig, run_exact


def test_example1_exact_solution(ex1_problem):
    cls = classify(ex1_problem)
    assert cls.kind == "UniqueExact"
    assert np.allclose(cls.solution, [1.0, 3.0], atol=1e-9)


def test_example4_ls_solution(ex4_problem):
    cls = classify(ex4_problem)
    assert cls.kind == "UniqueLeastSquares"
    # computed value is (0.14144, 0.63905); the published rounding of the
    # first coordinate is off by half an ulp in the fourth decimal
    assert np.allclose(cls.solution, [0.1415, 0.6391], atol=1e-4)
    assert cls.residual_norm > 0.1


def test_orthogonal_residual_case():
    p = LinearProblem(H=np.array([[1.0], [0.0]]), z=np.array([0.0, 1.0]))
    cls = classify(p)
    assert cls.kind == "UniqueLeastSquares"
    assert cls.solution[0] == pytest.approx(0.0, abs=1e-12)


def test_rank_deficient_unsupported():
    p = LinearProblem(H=np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]),
                      z=np.array([1.0, 2.0, 3.0]))
    assert classify(p).kind == "Unsupported"


def test_classify_scale_consistent(ex4_problem):
    base = classify(ex4_problem).solution
    scaled = classify(LinearProblem(H=3.7 * ex4_problem.H,
                                    z=3.7 * ex4_problem.z)).solution
    assert np.allclose(base, scaled, atol=1e-9)


def test_stacked_shapes_and_extremes(ex1_setting):
    p, g, lap, ops, _ = ex1_setting
    mn = p.dim * p.n_nodes
    assert ops.Fd.shape == (mn, mn)
    assert ops.fd_min > 0
    assert ops.fd_min <= ops.fd_max
    max_row = max(float(h @ h) for h in p.H)
    assert ops.fd_max <= lap.lambdaN + max_row + 1e-9


def test_stacked_zero_h_degenerate(fig1_graph):
    # all-zero H: the stacked operator reduces to the graph part, min eig 0
    lap = build_laplacian(fig1_graph)
    p = LinearProblem(H=np.zeros((5, 2)), z=np.zeros(5))
    ops = build_stacked(p, lap)
    assert np.allclose(ops.Fd, np.kron(lap.L, np.eye(2)))
    assert ops.fd_min == pytest.approx(0.0, abs=1e-10)


def test_stacked_consistency_identity(ex1_setting):
    # replicated exact solution: graph part annihilates it and the gradient
    # part reproduces the stacked right-hand side
    p, g, lap, ops, _ = ex1_setting
    y = classify(p).solution
    rep = np.tile(y, p.n_nodes)
    assert np.allclose(np.kron(lap.L, np.eye(p.dim)) @ rep, 0.0, atol=1e-10)
    assert np.allclose(ops.Hd @ rep, ops.zH, atol=1e-10)


def test_stacked_norms(ex4_setting):
    p, _, _, ops, _ = ex4_setting
    hd_dense_inf = np.abs(ops.Hd).sum(axis=1).max()
    assert ops.hd_inf_norm == pytest.approx(hd_dense_inf, rel=1e-12)
    assert ops.hd_2_norm == pytest.approx(
        np.linalg.norm(ops.Hd, 2), rel=1e-10)
    assert ops.zh_2_norm == pytest.approx(np.linalg.norm(ops.zH), rel=1e-12)


def test_theta_n_hand_value():
    # two nodes, one edge, h_1 = h_2 = 1 (m = 1): L = [[1, -1], [-1, 1]]
    # has lambdaN = 2, and Fd = L + I has eigenvalues 1 and 3, so
    # theta_n = 1^2 / (2 sqrt(2) * 2 * 3) = 1 / (12 sqrt(2))
    lap = build_laplacian(generate_graph("complete", 2))
    ops = build_stacked(LinearProblem(H=np.ones((2, 1)), z=np.ones(2)), lap)
    assert (ops.fd_min, ops.fd_max, ops.lambdaN) == pytest.approx((1, 3, 2))
    assert theta_n(ops, lap, 1, 2) == pytest.approx(1 / (12 * np.sqrt(2)))


def test_summary_readers_reject_another_laplacian_or_size(ex1_setting):
    # passed the complete graph's Laplacian, or (m, n) = (3, 7), theta_n
    # once returned 7.71e-5 and 6.38e-5 instead of ex1/fig1's 9.25e-5
    p, _, lap, ops, _ = ex1_setting
    other = build_laplacian(generate_graph("complete", p.n_nodes))
    assert theta_n(ops, lap, 2, 5) == pytest.approx(9.25e-5, rel=1e-3)
    with pytest.raises(ValueError, match="Laplacian"):
        theta_n(ops, other, 2, 5)
    with pytest.raises(ValueError, match="does not match"):
        theta_n(ops, lap, 3, 7)
    with pytest.raises(ValueError, match="Laplacian"):
        make_exact_operators(ops, other, 0.1, classify(p).solution)
    with pytest.raises(ValueError, match="Laplacian"):
        make_ls_operators(ops, other, 2)
    with pytest.raises(ValueError, match="does not match"):
        make_ls_operators(ops, lap, 3)


def _hd_2_norm_systems():
    """ex1, ex4, ex2, ex3, an N = 1000 m = 3 system, and 220 random 50 x m
    systems, m = 1..33, at scales 1e-3 to 1e3."""
    yield builtin_problem("ex1")
    yield builtin_problem("ex4")
    c = CONSTANTS["ex2"]
    yield random_problem(c["n"], c["m"], "exact", c["seed"])
    c = CONSTANTS["ex3"]
    base = random_problem(c["n"], c["m"], "exact", c["seed"])
    yield LinearProblem(H=c["scale"] * base.H, z=c["scale"] * base.z)
    yield random_problem(1000, 3, "exact", seed=6)
    rng = np.random.default_rng(2024)
    for i in range(220):
        H = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((50, 1 + i % 33))
        yield LinearProblem(H=H, z=np.zeros(50))


def test_hd_2_norm_keeps_the_bits_of_the_per_node_loop(monkeypatch):
    # the eigensolve is stubbed out: only the norms are under test
    monkeypatch.setattr(problem, "stacked_extremes", lambda p, lap: (1.0, 2.0))
    laps = {}
    for p in _hd_2_norm_systems():
        n = p.n_nodes
        if n not in laps:
            laps[n] = build_laplacian(generate_graph("cycle", n))
        loop = max(float(h @ h) for h in p.H)
        assert build_stacked(p, laps[n]).hd_2_norm == loop


def test_theta_n_against_bruteforce():
    p = random_problem(20, 3, "exact", seed=4)
    g = generate_graph("erdos_renyi", 20, 0.3, seed=4)
    lap = build_laplacian(g)
    ops = build_stacked(p, lap)
    vals_fd = np.linalg.eigvalsh(ops.Fd)
    vals_l = np.linalg.eigvalsh(lap.L)
    expected = vals_fd[0] ** 2 / (2 * np.sqrt(60) * vals_l[-1] * vals_fd[-1])
    assert theta_n(ops, lap, 3, 20) == pytest.approx(expected, abs=1e-10)


def test_problem_text_roundtrip(ex4_problem):
    text = format_problem(ex4_problem)
    p2 = parse_problem(text)
    assert np.array_equal(p2.H, ex4_problem.H)
    assert np.array_equal(p2.z, ex4_problem.z)


def test_problem_text_errors():
    with pytest.raises(ValueError):
        parse_problem("2 2\n1 0 1\n")  # wrong row count
    with pytest.raises(ValueError):
        parse_problem("2 2\n1 0\n0 1\n")  # wrong row width


def _above_dense_size(kind, m, p=None, dim=DENSE_MAX_DIM):
    """A random system and a graph Laplacian with m*N just above ``dim``,
    L and the arcs assembled here with numpy."""
    n = dim // m + 1
    A = np.zeros((n, n))
    if kind == "cycle":
        A[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    elif kind == "star":
        A[0, 1:] = 1.0
    elif kind == "complete":
        A[np.triu_indices(n, 1)] = 1.0
    else:   # Erdos-Renyi
        A = np.triu(np.random.default_rng(5).random((n, n)) < p, 1) * 1.0
    A += A.T
    g = Graph(n, np.column_stack(np.nonzero(np.triu(A))) + 1)
    lap = LaplacianSummary(L=np.diag(A.sum(axis=1)) - A, lambda2=np.nan,
                           lambdaN=np.nan, graph=g)
    return random_problem(n, m, "exact", seed=5), lap


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("kind,p", [("cycle", None), ("star", None),
                                    ("complete", None), ("erdos_renyi", 0.01),
                                    ("erdos_renyi", 0.3)])
def test_stacked_extremes_lanczos_matches_dense(kind, p, m):
    # the complete graph's Laplacian has one eigenvalue of multiplicity N-1
    prob, lap = _above_dense_size(kind, m, p)
    fd_min, fd_max = stacked_extremes(prob, lap)
    Fd = np.kron(lap.L, np.eye(m))
    for i, h in enumerate(prob.H):
        Fd[i * m:(i + 1) * m, i * m:(i + 1) * m] += np.outer(h, h)
    vals = np.linalg.eigvalsh(Fd)
    assert abs(fd_min - vals[0]) <= 1e-10 * vals[-1]
    assert abs(fd_max - vals[-1]) <= 1e-10 * vals[-1]


def test_stacked_extremes_repeat_bit_for_bit():
    prob, lap = _above_dense_size("cycle", 3)
    assert stacked_extremes(prob, lap) == stacked_extremes(prob, lap)


def test_stacked_extremes_dense_path_is_build_stacked(ex1_setting):
    p, _, lap, ops, _ = ex1_setting
    assert stacked_extremes(p, lap) == (ops.fd_min, ops.fd_max)
    with pytest.raises(ValueError, match="does not match"):
        stacked_extremes(random_problem(6, 2, "exact", seed=1), lap)


def test_lanczos_without_certificate_falls_back_to_dense(ex1_setting,
                                                         monkeypatch):
    p, _, lap, ops, _ = ex1_setting
    monkeypatch.setattr(problem, "DENSE_MAX_DIM", 0)
    monkeypatch.setattr(problem, "LANCZOS_MAX_ITER", 2)
    assert stacked_extremes(p, lap) == (ops.fd_min, ops.fd_max)
    monkeypatch.setattr(problem, "LANCZOS_MAX_ITER", 5)
    lo, hi = stacked_extremes(p, lap)     # dim 10: certified in 5 steps
    assert lo == pytest.approx(ops.fd_min, rel=1e-12)
    assert hi == pytest.approx(ops.fd_max, rel=1e-12)


def test_no_dense_fallback_above_its_memory_budget(monkeypatch):
    # mN = 6690: the dense Fd and its two summands would take 1.07 GB
    prob, lap = _above_dense_size("cycle", 3, dim=6688)
    monkeypatch.setattr(problem, "LANCZOS_MAX_ITER", 2)
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match=r"mN = 6690 in 2 steps.* "
                           r"1074146400 bytes"):
            stacked_extremes(prob, lap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 23       # 8 MB: no (mN)^2 array was allocated


def test_lanczos_extremes_repeated_eigenvalues():
    # two distinct eigenvalues: the Krylov space is invariant after 2 steps
    A = np.diag([1.0] * 20 + [4.0] * 30)
    assert lanczos_extremes(lambda v: A @ v, 50, max_iter=10) == (
        pytest.approx(1.0, rel=1e-14), pytest.approx(4.0, rel=1e-14))
    assert lanczos_extremes(lambda v: A @ v, 50, max_iter=1) is None


def _fast_loss_operator(name):
    """(apply, dim, max_iter, eigenvalues) of an operator on which the
    Lanczos basis loses orthogonality fast: an isolated eigenvalue
    converges in a few steps, and repeated ones leave the Krylov space
    early. The m = 10 cycle just above DENSE_MAX_DIM needs about 400
    steps."""
    if name == "cycle_m10":
        prob, lap = _above_dense_size("cycle", 10)
        dim = prob.n_nodes * 10
        return (problem._stacked_product(prob, lap), dim,
                min(dim // 2, problem.LANCZOS_MAX_ITER),
                np.linalg.eigvalsh(_loop_stacked(prob, lap)[1]))
    if name == "isolated":      # far above a tight cluster
        d = np.append(np.linspace(1.0, 1.1, 399), 1e3)
    else:                       # 50 values six times each, and 1e3 once
        d = np.append(np.repeat(np.linspace(1.0, 2.0, 50), 6), 1e3)
    return (lambda v: d * v), len(d), len(d), d


@pytest.mark.parametrize("name", ["isolated", "repeated", "cycle_m10"])
def test_lanczos_extremes_where_orthogonality_is_lost_fast(name):
    apply, dim, max_iter, vals = _fast_loss_operator(name)
    ext = lanczos_extremes(apply, dim, max_iter)
    assert ext is not None
    scale = np.abs(vals).max()
    assert abs(ext[0] - vals.min()) <= 1e-12 * scale
    assert abs(ext[1] - vals.max()) <= 1e-12 * scale


def test_lanczos_basis_stays_semi_orthogonal():
    # N = 1000, m = 3, as perfbench's cycle1k: 402 steps, with Gram-Schmidt
    # at about one step in five. Partial reorthogonalisation keeps every
    # overlap at or below c sqrt(eps) with c = 1; measured c = 0.003.
    n, m = 1000, 3
    prob = random_problem(n, m, "exact", seed=2)
    lap = build_laplacian(generate_graph("cycle", n))
    ext, Q = graph._lanczos(problem._stacked_product(prob, lap), n * m,
                            min(n * m // 2, problem.LANCZOS_MAX_ITER))
    assert ext is not None and len(Q) > 300
    overlap = np.abs(Q @ Q.T - np.eye(len(Q))).max()
    assert overlap <= 1.0 * np.sqrt(np.finfo(float).eps)


def _loop_stacked(p, lap):
    """The dense (Hd, Fd) pair, assembled block by block as a reference."""
    n, m = p.n_nodes, p.dim
    Hd = np.zeros((m * n, m * n))
    for i, h in enumerate(p.H):
        Hd[i * m:(i + 1) * m, i * m:(i + 1) * m] = np.outer(h, h)
    return Hd, np.kron(lap.L, np.eye(m)) + Hd


def _ex3_problem():
    c = CONSTANTS["ex3"]
    base = random_problem(c["n"], c["m"], "exact", c["seed"])
    return LinearProblem(H=c["scale"] * base.H, z=c["scale"] * base.z)


@pytest.mark.parametrize("kind,p", [("erdos_renyi", 0.1), ("erdos_renyi", 0.5),
                                    ("erdos_renyi", 0.9), ("star", None),
                                    ("complete", None), ("cycle", None)])
def test_ex3_size_extremes_come_from_lanczos(kind, p):
    # N = 100, m = 10: the ex3 systems, above DENSE_MAX_DIM
    prob = _ex3_problem()
    lap = build_laplacian(generate_graph(kind, 100, p or 0.5, seed=3))
    dim = prob.n_nodes * prob.dim
    assert dim > DENSE_MAX_DIM
    ext = lanczos_extremes(problem._stacked_product(prob, lap), dim,
                           max_iter=min(dim // 2, problem.LANCZOS_MAX_ITER))
    assert ext is not None and stacked_extremes(prob, lap) == ext
    vals = np.linalg.eigvalsh(_loop_stacked(prob, lap)[1])
    assert abs(ext[0] - vals[0]) <= 1e-10 * vals[-1]
    assert abs(ext[1] - vals[-1]) <= 1e-10 * vals[-1]


@pytest.mark.parametrize("density", [0.05, 0.5])
def test_dense_and_edge_list_laplacian_products_agree(density):
    # the two densities sit on either side of the 16 E >= N^2 rule
    n, m = 120, 3
    g = generate_graph("erdos_renyi", n, density, seed=4)
    assert (16 * len(g.edges) >= n * n) == (density == 0.5)
    lap = build_laplacian(g)
    prob = random_problem(n, m, "exact", seed=4)
    rng = np.random.default_rng(4)
    recv, send = np.nonzero(lap.L - np.diag(np.diag(lap.L)))
    for _ in range(3):
        V = rng.standard_normal((n, m))
        data = np.einsum("ij,ij->i", prob.H, V)[:, None] * prob.H
        dense = lap.L @ V + data
        heard = np.zeros((n, m))
        np.add.at(heard, recv, V[send])
        edge_list = np.diag(lap.L)[:, None] * V - heard + data
        got = problem._stacked_product(prob, lap)(V.ravel()).reshape(n, m)
        scale = np.abs(dense).max()
        assert np.abs(dense - edge_list).max() <= 1e-12 * scale
        assert np.abs(got - dense).max() <= 1e-12 * scale


@pytest.mark.parametrize("case", ["fig1", "ex2", "cycle200"])
def test_dense_path_keeps_the_dense_bits(case, fig1_graph, ex1_problem):
    if case == "fig1":
        prob, g = ex1_problem, fig1_graph
    elif case == "ex2":
        c = CONSTANTS["ex2"]
        prob = random_problem(c["n"], c["m"], "exact", c["seed"])
        g = generate_graph(c["graph"], c["n"])
    else:
        prob, g = random_problem(200, 3, "exact", 6), generate_graph("cycle", 200)
    lap = build_laplacian(g)
    ops = build_stacked(prob, lap)
    assert prob.n_nodes * prob.dim <= DENSE_MAX_DIM
    assert (ops.fd_min, ops.fd_max) == sym_eig_extremes(
        _loop_stacked(prob, lap)[1])


def test_build_stacked_assembles_dense_matrices_only_when_read():
    n, m = 1000, 3
    prob = random_problem(n, m, "exact", seed=7)
    lap = build_laplacian(generate_graph("cycle", n))
    square = (m * n) ** 2 * 8          # bytes of one (mN x mN) float array
    tracemalloc.start()
    try:
        ops = build_stacked(prob, lap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < square, f"peak {peak} bytes"
    Hd, Fd = _loop_stacked(prob, lap)
    assert np.array_equal(ops.Fd, Fd)
    assert np.array_equal(ops.Hd, Hd)
    assert ops.Fd is ops.Fd


def _ex3_problem():
    c = CONSTANTS["ex3"]
    base = random_problem(c["n"], c["m"], "exact", c["seed"])
    return LinearProblem(H=c["scale"] * base.H, z=c["scale"] * base.z)


@pytest.mark.parametrize("name", ["fig1_ex1", "fig1_ex4", "ex2", "ex3",
                                  "m17"])
def test_hd_inf_norm_matches_per_node_loop(name):
    c = CONSTANTS["ex2"]
    p = {"fig1_ex1": lambda: builtin_problem("ex1"),
         "fig1_ex4": lambda: builtin_problem("ex4"),
         "ex2": lambda: random_problem(c["n"], c["m"], "exact", c["seed"]),
         "ex3": _ex3_problem,
         "m17": lambda: random_problem(40, 17, "exact", 3)}[name]()
    loop = max(float(np.abs(np.outer(h, h)).sum(axis=1).max()) for h in p.H)
    ops = build_stacked(p, build_laplacian(generate_graph("cycle",
                                                          p.n_nodes)))
    assert ops.hd_inf_norm == loop


def _cycle_setting(n=6, m=2, seed=1):
    g = generate_graph("cycle", n)
    p = random_problem(n, m, "exact", seed=seed)
    return p, g, build_laplacian(g)


def test_stacked_summary_built_once_per_pair():
    p, g, lap = _cycle_setting()
    ops = build_stacked(p, lap)
    assert build_stacked(p, lap) is ops
    assert build_stacked(p, build_laplacian(g)) is ops
    # equal contents, other objects: an own summary with the same fields
    twin_p = LinearProblem(H=p.H, z=p.z)
    twin = build_stacked(twin_p, lap)
    assert twin is not ops and twin.problem is twin_p
    other_lap = build_laplacian(generate_graph("cycle", 6))
    assert build_stacked(p, other_lap).lap is other_lap
    for f in fields(ops):
        if f.name not in ("problem", "lap"):
            assert np.array_equal(getattr(twin, f.name),
                                  getattr(ops, f.name)), f.name


def test_problem_and_summary_are_read_only():
    H, z = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 2.0])
    p = LinearProblem(H=H, z=z)
    H[0, 0] = z[0] = 7.0      # the problem holds copies
    assert p.H[0, 0] == 1.0 and p.z[0] == 1.0
    ops = build_stacked(p, build_laplacian(generate_graph("cycle", 2)))
    for a in (p.H, p.z, ops.lap.L, ops.zH, ops.Lm, ops.Hd, ops.Fd):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_stacked_memo_keeps_nothing_alive():
    # with the collector off, only reference counts free objects: the memo
    # holds no summary beyond its callers and forms no cycle with it
    gc.disable()
    try:
        p, g, lap = _cycle_setting()
        ops = build_stacked(p, lap)
        ops.Fd
        h = 1.0 / (ops.fd_min + ops.fd_max)
        run_exact(p, g, ExactConfig(h=h, alpha=1.0 - 0.5 * h * ops.fd_min,
                                    s0=1.0, K=100, max_rounds=5, cx=1.0))
        refs = [weakref.ref(x) for x in (p, g, lap, ops)]
        del p, g, lap, ops
        assert [r() for r in refs] == [None] * 4
    finally:
        gc.enable()


def test_run_checks_and_warns_on_every_call():
    p, g, lap = _cycle_setting()
    ops = build_stacked(p, lap)
    cfg = ExactConfig(h=5.0 * ops.h_cap_exact, alpha=0.9, s0=1.0, K=10,
                      max_rounds=3, stop_tol=0.0)
    for _ in range(2):      # the second run reads the memoised summary
        with pytest.warns(RuntimeWarning, match="guarantees"):
            run_exact(p, g, cfg)
    split = Graph(6, [(1, 2), (2, 3), (4, 5), (5, 6)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(2):
            with pytest.raises(ValueError, match="not connected"):
                run_exact(p, split, cfg)
