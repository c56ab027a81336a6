import numpy as np
import pytest

from quantnet.graph import (Graph, build_laplacian, format_graph,
                            generate_graph, parse_graph, sym_eig_extremes)


def test_fig1_degrees_and_dstar(fig1_graph):
    lap = build_laplacian(fig1_graph)
    assert list(fig1_graph.degrees()) == [2, 2, 3, 2, 1]
    assert lap.dstar == 3


def test_single_edge_laplacian():
    g = Graph(2, frozenset({(1, 2)}))
    lap = build_laplacian(g)
    assert np.array_equal(lap.L, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert lap.lambda2 == pytest.approx(2.0, abs=1e-10)
    assert lap.lambdaN == pytest.approx(2.0, abs=1e-10)


def test_cycle4_known_spectrum():
    # eigenvalues of the 4-cycle Laplacian are 2 - 2cos(2 pi k / 4)
    lap = build_laplacian(generate_graph("cycle", 4))
    assert lap.lambda2 == pytest.approx(2.0, abs=1e-10)
    assert lap.lambdaN == pytest.approx(4.0, abs=1e-10)


def test_laplacian_row_sums_exactly_zero():
    g = generate_graph("erdos_renyi", 30, 0.2, seed=3)
    lap = build_laplacian(g)
    assert np.all(lap.L.sum(axis=1) == 0.0)  # exact, integer assembly
    assert np.all(lap.L == lap.L.T)


def test_lambda_bounds():
    for kind in ("cycle", "star", "complete"):
        g = generate_graph(kind, 9)
        lap = build_laplacian(g)
        assert lap.lambda2 > 1e-12
        assert lap.lambdaN <= 2 * lap.dstar + 1e-10
        lo, _ = sym_eig_extremes(lap.L)
        assert abs(lo) <= 1e-10


def test_disconnected_graph_rejected():
    g = Graph(4, frozenset({(1, 2), (3, 4)}))
    with pytest.raises(ValueError, match="not connected"):
        build_laplacian(g)


def test_generate_counts():
    assert len(generate_graph("cycle", 5).edges) == 5
    assert all(d == 2 for d in generate_graph("cycle", 5).degrees())
    assert len(generate_graph("complete", 4).edges) == 6
    assert len(generate_graph("star", 6).edges) == 5


def test_erdos_renyi_connected_and_deterministic():
    g1 = generate_graph("erdos_renyi", 100, 0.1, seed=1)
    g2 = generate_graph("erdos_renyi", 100, 0.1, seed=1)
    assert g1.edges == g2.edges
    assert g1.is_connected()  # BFS reachability


def test_generate_rejects_small_n():
    with pytest.raises(ValueError):
        generate_graph("cycle", 1)


def test_sym_eig_trivial():
    assert sym_eig_extremes(np.eye(3)) == (pytest.approx(1.0), pytest.approx(1.0))
    lo, hi = sym_eig_extremes(np.diag([1.0, 2.0, 3.0]))
    assert (lo, hi) == (pytest.approx(1.0), pytest.approx(3.0))


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        sym_eig_extremes(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_example1_stacked_extremes(ex1_setting):
    # back-solved from the published gain 0.4215 and contraction 0.9554:
    # fd_min + fd_max = 1.98/0.4215, fd_min = (1 - 0.9554)/0.4215
    _, _, _, ops, _ = ex1_setting
    assert ops.fd_min + ops.fd_max == pytest.approx(1.98 / 0.4215, rel=3e-4)
    assert ops.fd_min == pytest.approx((1 - 0.9554) / 0.4215, rel=3e-3)


def test_spectrum_permutation_invariant(rng):
    g = generate_graph("erdos_renyi", 12, 0.4, seed=2)
    lap = build_laplacian(g)
    perm = rng.permutation(12) + 1
    remapped = frozenset(
        (min(perm[i - 1], perm[j - 1]), max(perm[i - 1], perm[j - 1]))
        for (i, j) in g.edges)
    lap2 = build_laplacian(Graph(12, remapped))
    assert lap2.lambda2 == pytest.approx(lap.lambda2, abs=1e-10)
    assert lap2.lambdaN == pytest.approx(lap.lambdaN, abs=1e-10)


def test_graph_text_roundtrip(fig1_graph):
    text = format_graph(fig1_graph)
    g2 = parse_graph(text)
    assert g2.node_count == fig1_graph.node_count
    assert g2.edges == fig1_graph.edges


def test_graph_text_comments_and_errors():
    g = parse_graph("# comment\nN 3\n1 2  # inline\n2 3\n")
    assert g.node_count == 3 and len(g.edges) == 2
    with pytest.raises(ValueError):
        parse_graph("1 2\n")  # missing header
    with pytest.raises(ValueError):
        parse_graph("N 3\n2 2\n")  # self-loop
