import numpy as np
import pytest

from quantnet import problem
from quantnet.graph import (LaplacianSummary, build_laplacian, generate_graph,
                            lanczos_extremes)
from quantnet.harness import random_problem
from quantnet.problem import (DENSE_MAX_DIM, LinearProblem, build_stacked,
                              classify, format_problem, parse_problem,
                              stacked_extremes, theta_n)


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
    class FakeOps:
        fd_min, fd_max = 2.0, 2.0

    class FakeLap:
        lambdaN = 2.0

    assert theta_n(FakeOps, FakeLap, 1, 1) == pytest.approx(0.5)


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


def _above_dense_size(kind, m, p=None):
    """A random system and a graph Laplacian with m*N just above
    DENSE_MAX_DIM. L is assembled with numpy: build_laplacian's per-edge
    loop takes seconds on a complete graph of that size."""
    n = DENSE_MAX_DIM // m + 1
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
    lap = LaplacianSummary(L=np.diag(A.sum(axis=1)) - A, lambda2=np.nan,
                           lambdaN=np.nan, dstar=int(A.sum(axis=1).max()),
                           node_count=n)
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


def test_lanczos_extremes_repeated_eigenvalues():
    # two distinct eigenvalues: the Krylov space is invariant after 2 steps
    A = np.diag([1.0] * 20 + [4.0] * 30)
    assert lanczos_extremes(lambda v: A @ v, 50, max_iter=10) == (
        pytest.approx(1.0, rel=1e-14), pytest.approx(4.0, rel=1e-14))
    assert lanczos_extremes(lambda v: A @ v, 50, max_iter=1) is None
