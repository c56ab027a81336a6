import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantnet.codec import NoiseModel, QuantizerSpec, quantize, quantize_vec
from quantnet.graph import Graph
from quantnet.harness import CONSTANTS
from quantnet.problem import LinearProblem
from quantnet.solver import ExactConfig, iter_rounds, run_robust


def test_quantize_pointwise():
    assert quantize(0.5, 3) == 0            # inclusive upper edge of level 0
    assert quantize(0.75, 2) == 1           # interior of level 1
    assert quantize(10.0, 3) == 3           # saturates
    assert quantize(-10.0, 3) == -3
    assert quantize(1.5, 3) == 1            # tie goes to the lower level
    assert quantize(1.5000000001, 3) == 2


def test_quantize_rejects_nonfinite():
    with pytest.raises(ValueError):
        quantize(float("nan"), 3)
    with pytest.raises(ValueError):
        quantize(float("inf"), 3)


def test_quantize_vec_matches_scalar(rng):
    v = rng.uniform(-10, 10, size=200)
    for K in (1, 2, 5):
        q, _ = quantize_vec(v, K)
        assert all(int(qi) == quantize(float(vi), K) for qi, vi in zip(q, v))


def test_quantize_vec_examples():
    q, peaks = quantize_vec(np.array([0.0, 0.75, -0.75]), 2)
    assert list(q) == [0, 1, -1] and peaks == 0.75
    q, peaks = quantize_vec(np.zeros((4, 2)), 3)
    assert not q.any() and peaks.tolist() == [0.0] * 4
    # one peak per row (node) of the kernel's (N, m) input
    q, peaks = quantize_vec(np.array([[100.0, 0.1], [-0.2, -2.0]]), 1)
    assert q.tolist() == [[1, 0], [0, -1]] and peaks.tolist() == [100.0, 2.0]
    assert (peaks > 1 + 0.5).tolist() == [True, True]


@given(st.lists(st.one_of(st.floats(-50, 50), st.sampled_from(
           [0.0, -0.0, 0.5, -0.5, 1.5, -2.5, 3.5, 4.5])),
       min_size=2, max_size=12),
       st.integers(1, 5))
@settings(max_examples=300, deadline=None)
def test_quantize_vec_levels_and_peaks(vals, K):
    # the levels of the sign(v) * min(max(ceil(|v| - 1/2), 0), K) form, and
    # a row saturates (a level is clipped) exactly when its peak > K + 1/2
    v = np.array(vals[: len(vals) // 2 * 2]).reshape(-1, 2)
    q, peaks = quantize_vec(v, K)
    mag = np.ceil(np.abs(v) - 0.5)
    assert np.array_equal(q, np.sign(v) * np.minimum(np.maximum(mag, 0), K))
    assert np.array_equal(peaks, np.abs(v).max(axis=1))
    assert np.array_equal(peaks > K + 0.5, (mag > K).any(axis=1))


@given(n=st.integers(1, 300), m=st.integers(1, 12), K=st.integers(1, 20),
       seed=st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
@example(n=300, m=3, K=5, seed=1)       # column by column
@example(n=11, m=10, K=5, seed=1)       # over the axis
def test_quantize_vec_keeps_its_bits_on_both_sides_of_the_shape_rule(
        n, m, K, seed):
    # the peaks go column by column from N >= 8 m on and reduce over the
    # axis below; either way they carry the bits of the reduce, and the
    # levels those of copysign(min(ceil(|v| - 1/2), K), v)
    rng = np.random.default_rng(seed)
    v = rng.uniform(-3 * K, 3 * K, size=(n, m))
    ties = rng.random((n, m)) < 0.2          # level edges, and -0.0
    v[ties] = rng.integers(-K - 2, K + 2, size=ties.sum()) + 0.5
    v[rng.random((n, m)) < 0.05] = -0.0
    q, peaks = quantize_vec(v, K)
    want = np.maximum.reduce(np.abs(v), axis=-1, initial=0.0)
    assert peaks.shape == (n,) and peaks.tobytes() == want.tobytes()
    levels = np.copysign(np.minimum(np.ceil(np.abs(v) - 0.5), K), v)
    assert q.tobytes() == levels.tobytes()
    bad = v.copy()
    bad[rng.integers(n), rng.integers(m)] = rng.choice(
        [np.nan, np.inf, -np.inf])
    with pytest.raises(ValueError, match="finite"):
        quantize_vec(bad, K)


@given(st.floats(-1e6, 1e6), st.integers(1, 50))
@settings(max_examples=300, deadline=None)
def test_quantize_properties(z, K):
    q = quantize(z, K)
    assert -K <= q <= K
    assert quantize(-z, K) == -q          # odd symmetry
    if abs(z) <= K + 0.5:
        assert abs(z - q) <= 0.5 + 1e-12  # in-range accuracy


def test_quantize_monotone():
    grid = np.arange(-10, 10, 1e-3)
    for K in (1, 3, 8):
        q, _ = quantize_vec(grid, K)
        assert np.all(np.diff(q) >= 0)


def test_bits_per_coord():
    assert QuantizerSpec(1).bits_per_coord == 1  # 3 levels, zeros unsent
    assert QuantizerSpec(2).bits_per_coord == 2
    assert QuantizerSpec(300).bits_per_coord == 10


def _pair_rounds(level, s0, alpha=0.5, K=3, rounds=2, noise=None):
    """Kernel rounds of two linked nodes that start at x = level, the exact
    solution of their 1-D system: consensus and gradient terms vanish, so
    each quantizer input is the predictor's error alone."""
    p = LinearProblem(H=np.ones((2, 1)), z=np.full(2, level))
    g = Graph(2, frozenset({(1, 2)}))
    cfg = ExactConfig(h=0.25, alpha=alpha, s0=s0, K=K, max_rounds=rounds,
                      x0=np.full((2, 1), level))
    return list(iter_rounds(p, g, cfg, noise))


def test_encode_forced_by_zero_init():
    st = _pair_rounds(2.4, s0=1.0)[1]
    assert st.q.tolist() == [[2], [2]] and np.all(st.b == 2.0)
    st = _pair_rounds(2.4, s0=10.0)[1]
    assert not st.q.any() and not st.b.any()


def test_encode_two_steps_hand_simulated():
    r = _pair_rounds(1.0, s0=1.0, alpha=0.5)
    assert r[1].q.tolist() == [[1], [1]] and np.all(r[1].b == 1.0)
    assert not r[2].q.any() and np.all(r[2].b == 1.0)


def test_encode_telemetry():
    st = _pair_rounds(9.0, s0=1.0, K=3)[1]
    assert st.q.tolist() == [[3], [3]]          # saturated symbols
    assert st.peaks.tolist() == [9.0, 9.0]      # largest quantizer input
    with pytest.raises(ValueError):
        ExactConfig(h=0.25, alpha=0.5, s0=0.0, K=3)


def test_decode_basic():
    # each receiver integrates the symbol at the shared scale
    r = _pair_rounds(2.4, s0=1.0, alpha=0.5)
    assert np.all(r[1].xhat == 2.0)
    assert r[2].q.tolist() == [[1], [1]] and np.all(r[2].xhat == 2.5)


def test_encoder_decoder_coherence(ex1_problem, fig1_graph):
    # started at rest and without noise, every decoder equals its sender's
    # predictor bit for bit at every round, damped or not
    c = CONSTANTS["robustness"]
    cfg = ExactConfig(h=c["h"], alpha=c["alpha"], s0=c["s0"], K=c["K"],
                      max_rounds=2000, cx=1.0, seed=5)
    send = fig1_graph.arcs[1]
    for damping in (1.0, 0.95):
        drift = [np.abs(st.xhat - st.b[send]).max() for st in iter_rounds(
            ex1_problem, fig1_graph, cfg, NoiseModel(damping=damping))]
        assert all(d == 0.0 for d in drift)
    tr = run_robust(ex1_problem, fig1_graph, cfg, NoiseModel(damping=0.95))
    assert np.all(tr.drift[1:] == 0.0)


def test_damped_degenerates_to_ideal(ex1_problem, fig1_graph):
    cfg = ExactConfig(h=0.3, alpha=0.98, s0=1.0, K=4, max_rounds=300,
                      cx=2.0, seed=1)
    ideal = iter_rounds(ex1_problem, fig1_graph, cfg)
    damped = iter_rounds(ex1_problem, fig1_graph, cfg, NoiseModel(damping=1.0))
    for a, b in zip(ideal, damped, strict=True):
        for field in ("x", "b", "xhat", "q", "peaks"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


def test_damped_formula():
    # predictors and decoders start at 1 (a degenerate init-error range),
    # so the innovation is 0, the symbol is 0 and both decay by the damping
    noise = NoiseModel(damping=0.95, init_error_range=(1.0, 1.0),
                       init_errors_enabled=True)
    st = _pair_rounds(1.0, s0=1.0, noise=noise)[1]
    assert not st.q.any()
    assert np.all(st.b == 0.95) and np.all(st.xhat == 0.95)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(damping=0.0)
    with pytest.raises(ValueError):
        NoiseModel(roundoff_amp=-1.0)
    assert NoiseModel().is_ideal()
    assert not NoiseModel(damping=0.95).is_ideal()
