import gc
import weakref

import numpy as np
import pytest

from quantnet import graph
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


def test_disconnected_graph_raises_on_every_call():
    # a failed build is not memoised
    g = Graph(4, [(1, 2), (3, 4)])
    for _ in range(2):
        with pytest.raises(ValueError, match="not connected"):
            build_laplacian(g)


def test_laplacian_built_once_per_graph():
    g = generate_graph("cycle", 6)
    lap = build_laplacian(g)
    assert build_laplacian(g) is lap
    twin = build_laplacian(generate_graph("cycle", 6))
    assert twin is not lap and twin.graph is not g
    assert np.array_equal(twin.L, lap.L)
    assert (twin.lambda2, twin.lambdaN) == (lap.lambda2, lap.lambdaN)


def test_laplacian_summary_is_read_only():
    lap = build_laplacian(generate_graph("star", 4))
    with pytest.raises(ValueError, match="read-only"):
        lap.L[0, 0] = 5.0


def test_laplacian_memo_keeps_nothing_alive():
    # with the collector off, only reference counts free objects: the graph
    # and its summary go with the caller's last references, so the memo
    # holds neither and forms no cycle with them
    gc.disable()
    try:
        g = generate_graph("cycle", 7)
        lap = build_laplacian(g)
        assert build_laplacian(g) is lap
        refs = [weakref.ref(g), weakref.ref(lap)]
        del g, lap
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_generate_counts():
    assert len(generate_graph("cycle", 5).edges) == 5
    assert all(d == 2 for d in generate_graph("cycle", 5).degrees())
    assert len(generate_graph("complete", 4).edges) == 6
    assert len(generate_graph("star", 6).edges) == 5


def test_erdos_renyi_connected_and_deterministic():
    g1 = generate_graph("erdos_renyi", 100, 0.1, seed=1)
    g2 = generate_graph("erdos_renyi", 100, 0.1, seed=1)
    assert np.array_equal(g1.edges, g2.edges)
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
    assert np.array_equal(g2.edges, fig1_graph.edges)


def test_graph_text_comments_and_errors():
    g = parse_graph("# comment\nN 3\n1 2  # inline\n2 3\n")
    assert g.node_count == 3 and len(g.edges) == 2
    with pytest.raises(ValueError):
        parse_graph("1 2\n")  # missing header
    with pytest.raises(ValueError):
        parse_graph("N 3\n2 2\n")  # self-loop


def test_graph_edges_one_sorted_read_only_array():
    g = parse_graph("N 4\n# comment\n3 4\n2 1\n1 2\n4 1  # reversed\n")
    assert g.edges.tolist() == [[1, 2], [1, 4], [3, 4]]
    assert g.edges.dtype == np.intp and not g.edges.flags.writeable
    given = np.array([[2, 3], [1, 3]])
    g = Graph(3, given)
    assert g.edges.tolist() == [[1, 3], [2, 3]]
    assert given.flags.writeable and given.tolist() == [[2, 3], [1, 3]]
    assert Graph(3, []).edges.shape == (0, 2)
    for bad in ([(1, 2, 3)], [(1.0, 2.0)], [1, 2]):
        with pytest.raises(ValueError, match="integer pairs"):
            Graph(3, bad)


@pytest.mark.parametrize("pairs, message", [
    ([(1, 2), (3, 2)], r"edge \(3,2\) needs 1 <= i < j <= 4"),
    ([(1, 2), (2, 5)], r"edge \(2,5\) needs 1 <= i < j <= 4"),
    ([(0, 2), (1, 2)], r"edge \(0,2\) needs 1 <= i < j <= 4"),
    ([(1, 2), (3, 3)], r"edge \(3,3\) needs 1 <= i < j <= 4"),
], ids=["reversed", "out_of_range", "zero", "self_loop"])
@pytest.mark.parametrize("form", [np.array, set])
def test_graph_constructor_names_the_bad_pair(pairs, message, form):
    with pytest.raises(ValueError, match=message):
        Graph(4, form(pairs))


@pytest.mark.parametrize("form", [np.array, list])
def test_graph_constructor_rejects_a_repeated_pair(form):
    # a set cannot hold a pair twice, so the repeat comes as an array or list
    with pytest.raises(ValueError, match=r"edge \(1,3\) is given twice"):
        Graph(4, form([(1, 3), (2, 3), (1, 2), (1, 3)]))


@pytest.mark.parametrize("n", [100, 1000])
def test_cycle_lambda2_matches_closed_form(n):
    lap = build_laplacian(generate_graph("cycle", n))
    assert abs(lap.lambda2 - 4.0 * np.sin(np.pi / n) ** 2) <= 2e-15


def _reachable_from_1(n, edges):
    adj = {i: [] for i in range(1, n + 1)}
    for (i, j) in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, queue = {1}, [1]
    while queue:
        for w in adj[queue.pop()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen)


def _erdos_renyi_loop(n, p, seed):
    """The generator as loops over (i, j) tuples and a queue, as a
    reference."""
    for attempt in range(10_000):
        rng = np.random.default_rng(seed + attempt)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        draws = rng.random(len(pairs))
        edges = frozenset(pair for pair, u in zip(pairs, draws) if u < p)
        if edges and _reachable_from_1(n, edges) == n:
            return edges, attempt


def test_erdos_renyi_edges_match_loop_reference():
    retried = 0
    for (n, p, seed) in [(2, 0.5, 0), (12, 0.15, 1), (20, 0.1, 5),
                         (30, 0.3, 2), (100, 0.1, 11), (100, 0.9, 3)]:
        g = generate_graph("erdos_renyi", n, p, seed=seed)
        edges, attempt = _erdos_renyi_loop(n, p, seed)
        assert np.array_equal(g.edges, sorted(edges))
        assert g.retries == attempt and g.edges.dtype == np.intp
        retried += attempt > 0
    assert retried >= 2


def test_connectivity_matches_breadth_first_search():
    rng = np.random.default_rng(9)
    seen = set()
    for _ in range(300):
        n = int(rng.integers(2, 30))
        i, j = np.nonzero(np.triu(rng.random((n, n)) < 0.3 * rng.random(), 1))
        edges = frozenset(zip((i + 1).tolist(), (j + 1).tolist()))
        expected = _reachable_from_1(n, edges) == n
        assert Graph(n, edges).is_connected() == expected
        seen.add(expected)
    assert seen == {True, False}



def test_arcs_and_degrees_match_references():
    rng = np.random.default_rng(21)
    graphs = [generate_graph(kind, 7) for kind in ("cycle", "star",
                                                   "complete")]
    for _ in range(40):
        n = int(rng.integers(2, 40))
        graphs.append(generate_graph("erdos_renyi", n, rng.uniform(0.05, 1),
                                     seed=int(rng.integers(1000))))
    for g in graphs:
        n = g.node_count
        recv, send = g.arcs
        assert g.arcs is g.arcs and not recv.flags.writeable
        # lexicographic (receiver, sender) order of both arcs of each edge
        ref = sorted((a - 1, b - 1) for (i, j) in g.edges
                     for (a, b) in ((i, j), (j, i)))
        assert list(zip(recv.tolist(), send.tolist())) == ref
        L = build_laplacian(g).L
        off = np.nonzero(L - np.diag(np.diag(L)))
        assert np.array_equal(recv, off[0]) and np.array_equal(send, off[1])
        counts = [sum(v in e for e in g.edges) for v in range(1, n + 1)]
        assert g.degrees().tolist() == counts
        V = rng.standard_normal((len(recv), 3))
        heard = np.zeros((n, 3))
        np.add.at(heard, recv, V)
        assert np.allclose(graph.per_receiver_sum(recv, n, 3)(V), heard,
                           rtol=1e-13, atol=1e-13)
    empty = Graph(3, frozenset())
    assert empty.arcs[0].size == 0 and empty.degrees().tolist() == [0, 0, 0]

def test_ritz_check_matches_dense_tridiagonal():
    rng = np.random.default_rng(8)
    for k in (1, 2, 7, 60):
        a = rng.standard_normal(k)
        b = np.abs(rng.standard_normal(k - 1)) * 10.0 ** rng.integers(-8, 1, k - 1)
        T = np.diag(a) + np.diag(b, 1) + np.diag(b, -1)
        theta, S = np.linalg.eigh(T)
        lo, hi = graph._tridiagonal_extremes(a, b)
        scale = np.abs(theta).max()
        assert abs(lo - theta[0]) <= 1e-14 * scale
        assert abs(hi - theta[-1]) <= 1e-14 * scale
        for t, s in ((lo, S[:, 0]), (hi, S[:, -1])):
            assert graph._last_component(a, b, t) == pytest.approx(
                abs(s[-1]), rel=1e-6, abs=1e-14)
