import argparse
import dataclasses
import os
import re
from pathlib import Path

import numpy as np
import pytest

from quantnet import cli, harness
from quantnet.cli import main
from quantnet.harness import (_REPRODUCERS, _SCHEMA, CONSTANTS, builtin_graph,
                              builtin_problem, parse_config, random_problem,
                              reproduce, run_config, serialize_config)
from quantnet.graph import build_laplacian, generate_graph, save_graph
from quantnet.planner import alpha_star
from quantnet.problem import build_stacked, classify, save_problem, theta_n
from quantnet.solver import ExactConfig, run_exact

EXACT_CFG = """
# five-node exact run
mode = exact
problem.builtin = ex1
graph.builtin = fig1
solver.h = 0.42
solver.alpha = 0.98
solver.s0 = 1.0
solver.K = 300
max_rounds = 1500
"""

LS_CFG = """
mode = ls
problem.builtin = ex4
graph.builtin = fig1
solver.h = 0.0853
solver.s_r = 0.82
solver.K = 900
gamma.k0 = 26
gamma.delta = 0.85
max_rounds = 400
"""


def test_parse_config_basics():
    cfg = parse_config(EXACT_CFG)
    assert cfg.get("mode") == "exact"
    assert cfg.get("solver.K") == 300
    assert cfg.get("solver.h") == pytest.approx(0.42)
    assert "solver.s_r" not in cfg


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config(EXACT_CFG + "solver.bogus = 1\n")


def test_parse_config_rejects_duplicate():
    with pytest.raises(ValueError, match="duplicate"):
        parse_config(EXACT_CFG + "solver.K = 100\n")


def test_parse_config_error_names_dotted_key():
    bad = LS_CFG.replace("gamma.delta = 0.85", "gamma.delta = 0.3")
    with pytest.raises(ValueError, match="gamma.delta"):
        parse_config(bad)


def test_parse_config_requires_mode_and_sources():
    with pytest.raises(ValueError, match="mode"):
        parse_config("problem.builtin = ex1\ngraph.builtin = fig1\n")
    with pytest.raises(ValueError, match="problem source"):
        parse_config("mode = exact\ngraph.builtin = fig1\n"
                      "problem.builtin = ex1\nproblem.random.n = 4\n"
                      "solver.h = 0.1\nsolver.alpha = 0.9\n"
                      "solver.s0 = 1\nsolver.K = 10\n")
    with pytest.raises(ValueError, match="missing required key"):
        parse_config("mode = ls\nproblem.builtin = ex4\n"
                      "graph.builtin = fig1\nsolver.h = 0.01\n")


BASELINE_CFG = """
mode = baseline
problem.builtin = ex1
graph.builtin = fig1
solver.h = 0.1
max_rounds = 50
"""

ROBUST_CFG = EXACT_CFG.replace("mode = exact", "mode = robust").replace(
    "max_rounds = 1500", "max_rounds = 300\nnoise.damping = 0.95")


@pytest.mark.parametrize("edit, key", [
    (("solver.h = 0.1\n", ""), "solver.h"),
    (("max_rounds", "gamma.k0 = 26\nmax_rounds"), "gamma.delta"),
    (("max_rounds", "gamma.delta = 0.85\nmax_rounds"), "gamma.k0"),
], ids=["no_h", "k0_alone", "delta_alone"])
def test_baseline_config_missing_key_is_a_usage_error(tmp_path, capsys,
                                                      edit, key):
    text = BASELINE_CFG.replace(*edit)
    with pytest.raises(ValueError, match=f"missing required key '{key}'"):
        parse_config(text)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert main(["solve", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err
    cfg_path.write_text(BASELINE_CFG)
    assert main(["solve", str(cfg_path), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("text, key", [
    (EXACT_CFG.replace("graph.builtin = fig1", "graph.kind = cycle"),
     "graph.n"),
    (EXACT_CFG.replace("problem.builtin = ex1", "problem.random.n = 6"),
     "problem.random.m"),
    (EXACT_CFG + "graph.p = 0.5\n", "graph.p"),
    (EXACT_CFG.replace("graph.builtin = fig1",
                       "graph.kind = cycle\ngraph.n = 5\ngraph.seed = 2"),
     "graph.seed"),
    (EXACT_CFG + "gamma.k0 = 26\ngamma.delta = 0.85\n", "gamma.k0"),
    (EXACT_CFG + "noise.damping = 0.95\n", "noise.damping"),
    (EXACT_CFG + "solver.s_r = 0.8\n", "solver.s_r"),
    (LS_CFG + "solver.alpha = 0.9\n", "solver.alpha"),
    (BASELINE_CFG + "strict_saturation = true\n", "strict_saturation"),
    (BASELINE_CFG + "solver.K = 1\n", "solver.K"),
    (BASELINE_CFG + "solver.alpha = 0.5\n", "solver.alpha"),
    (EXACT_CFG + "solver.x0 = 0 0; 0 0; 0 0; 0 0; 0 0\nsolver.cx = 1\n",
     "solver.cx"),
    (ROBUST_CFG + "noise.roundoff_enabled = true\nnoise.init_hi = 0.5\n",
     "noise.init_hi"),
    (ROBUST_CFG + "noise.init_enabled = true\nnoise.roundoff = 0.01\n",
     "noise.roundoff"),
    (ROBUST_CFG + "noise.init_enabled = false\nnoise.seed = 4\n",
     "noise.seed"),
], ids=["kind_without_n", "random_n_without_m", "p_on_builtin",
        "seed_on_cycle", "gamma_in_exact", "noise_in_exact", "s_r_in_exact",
        "alpha_in_ls", "strict_in_baseline", "K_in_baseline",
        "alpha_in_baseline", "cx_with_x0", "init_range_without_init",
        "roundoff_without_roundoff", "noise_seed_without_noise"])
def test_config_key_missing_or_ignored_is_a_usage_error(tmp_path, capsys,
                                                         text, key):
    with pytest.raises(ValueError, match=f"'{key}'"):
        parse_config(text)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert main(["solve", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


RANDOM_ER_CFG = EXACT_CFG.replace(
    "graph.builtin = fig1", "graph.kind = erdos_renyi\ngraph.n = 8\n"
    "graph.p = 0.5\ngraph.seed = 3").replace(
    "problem.builtin = ex1", "problem.random.n = 8\nproblem.random.m = 2"
    "\nproblem.random.kind = exact\nproblem.random.seed = 1").replace(
    "solver.h = 0.42", "solver.h = 0.12").replace(
    "solver.alpha = 0.98", "solver.alpha = 0.99").replace(
    "max_rounds = 1500", "max_rounds = 400")


def _inline(name):
    """A built-in system as a ``problem.inline`` value: rows of H and z."""
    p = builtin_problem(name)
    return "; ".join(" ".join(repr(float(v)) for v in (*row, z))
                     for row, z in zip(p.H, p.z))


def test_config_keys_each_source_reads_are_accepted(tmp_path):
    # between them these configs give every schema key, and each runs:
    # a reader that stops reading a key refuses the config that gives it
    prob, graph = tmp_path / "ex4.txt", tmp_path / "fig1.txt"
    save_problem(builtin_problem("ex4"), prob)
    save_graph(builtin_graph(), graph)
    configs = [
        EXACT_CFG + "solver.cx = 1\nseed = 2\nstrict_saturation = true\n"
        "stop_tol = 1e-9\nout = x\n",
        RANDOM_ER_CFG,
        LS_CFG.replace("problem.builtin = ex4", f"problem.file = {prob}")
        .replace("graph.builtin = fig1", f"graph.file = {graph}")
        .replace("solver.K = 900", "solver.K = 3000")
        + "solver.x0 = 1 0; 0 1; 0 0; 0 0; 1 1\n",
        ROBUST_CFG + "noise.roundoff_enabled = true\n"
        "noise.roundoff = 0.01\nnoise.seed = 2\n",
        ROBUST_CFG + "noise.init_enabled = true\nnoise.init_lo = 0.2"
        "\nnoise.init_hi = 0.5\nnoise.seed = 2\n",
        BASELINE_CFG.replace("problem.builtin = ex1",
                             f"problem.inline = {_inline('ex1')}")
        .replace("graph.builtin = fig1", "graph.kind = cycle\ngraph.n = 5")
        + "gamma.k0 = 26\ngamma.delta = 0.85\nsolver.cx = 1\nseed = 2\n"
        "stop_tol = 0\nout = x\n",
    ]
    given = set()
    for text in configs:
        cfg = parse_config(text)
        assert run_config(cfg).k[-1] >= 1
        given.update(cfg.values)
    assert given == set(_SCHEMA)


def test_inline_problem_runs_as_its_builtin():
    text = EXACT_CFG.replace("problem.builtin = ex1",
                             f"problem.inline = {_inline('ex1')}")
    assert (run_config(parse_config(text)).csv_text()
            == run_config(parse_config(EXACT_CFG)).csv_text())


def test_random_problem_on_erdos_renyi_runs_as_called_directly():
    direct = run_exact(random_problem(8, 2, "exact", 1),
                       generate_graph("erdos_renyi", 8, 0.5, 3),
                       ExactConfig(h=0.12, alpha=0.99, s0=1.0, K=300,
                                   max_rounds=400))
    assert (run_config(parse_config(RANDOM_ER_CFG)).csv_text()
            == direct.csv_text())


def test_parse_config_builds_nothing(tmp_path, monkeypatch):
    # no file is opened, no number drawn and no graph generated until the run
    def refuse(*args):
        raise AssertionError("built")

    for name in ("random_problem", "generate_graph"):
        monkeypatch.setattr(harness, name, refuse)
    cfg = parse_config(RANDOM_ER_CFG)
    with pytest.raises(AssertionError, match="built"):
        run_config(cfg)
    cfg = parse_config(EXACT_CFG.replace(
        "problem.builtin = ex1", f"problem.file = {tmp_path / 'no.txt'}"))
    with pytest.raises(FileNotFoundError):
        run_config(cfg)


@pytest.mark.parametrize("edit, message", [
    (("solver.h = 0.1", "solver.h = -0.1"), "invalid baseline configuration"),
    (("max_rounds = 50", "max_rounds = 0"), "invalid baseline configuration"),
    (("solver.h = 0.1\nmax_rounds = 50", "solver.h = 5\nmax_rounds = 2000"),
     "baseline err2 is not finite at round"),
], ids=["negative_h", "no_rounds", "overflow"])
def test_baseline_refuses_what_the_quantized_modes_refuse(tmp_path, capsys,
                                                          edit, message):
    text = BASELINE_CFG.replace(*edit)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    if "finite" in message:
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["solve", str(cfg_path), "--out", str(tmp_path)]) == 2
    else:
        with pytest.raises(ValueError, match=message):
            parse_config(text)
        assert main(["solve", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_robust_noise_keys_without_their_switch_are_a_usage_error(
        tmp_path, capsys):
    # the run would draw no noise, so it would write the trace of the same
    # config without these four keys
    text = (ROBUST_CFG + "noise.init_lo = 0.2\nnoise.init_hi = 0.5\n"
            "noise.roundoff = 0.01\nnoise.seed = 4\n")
    with pytest.raises(ValueError, match="'noise.init_lo' would be ignored"):
        parse_config(text)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert main(["solve", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "'noise.init_lo'" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()
    cfg_path.write_text(ROBUST_CFG)
    assert main(["solve", str(cfg_path), "--out", str(tmp_path)]) == 0


def test_parse_config_matrix_and_errors():
    cfg = parse_config(EXACT_CFG.replace(
        "problem.builtin = ex1",
        "problem.inline = 1 0 1; 0 1 3; 1 1 4"))
    mat = cfg.get("problem.inline")
    assert mat == [[1.0, 0.0, 1.0], [0.0, 1.0, 3.0], [1.0, 1.0, 4.0]]
    with pytest.raises(ValueError, match="line"):
        parse_config(EXACT_CFG.replace("problem.builtin = ex1",
                                       "problem.inline = 1 0; 0 1 3"))
    with pytest.raises(ValueError, match="line 2"):
        parse_config("mode = exact\nnot a pair\n")


def test_serialize_roundtrip():
    cfg = parse_config(LS_CFG)
    text = serialize_config(cfg)
    cfg2 = parse_config(text)
    assert cfg2.values == cfg.values
    # canonical: serializing again reproduces the same bytes
    assert serialize_config(cfg2) == text


def test_random_problem_kinds_and_determinism():
    a = random_problem(10, 3, "exact", seed=2)
    b = random_problem(10, 3, "exact", seed=2)
    assert np.array_equal(a.H, b.H) and np.array_equal(a.z, b.z)
    assert classify(a).kind == "UniqueExact"
    c = random_problem(10, 3, "ls", seed=2)
    assert classify(c).kind == "UniqueLeastSquares"
    assert not np.array_equal(a.H, random_problem(10, 3, "exact", seed=3).H)
    with pytest.raises(ValueError):
        random_problem(3, 3, "exact")
    with pytest.raises(ValueError):
        random_problem(5, 2, "weird")


def test_builtin_lookup():
    assert builtin_problem("ex1").n_nodes == 5
    assert builtin_graph().node_count == 5
    with pytest.raises(ValueError):
        builtin_problem("ex9")
    with pytest.raises(ValueError):
        builtin_graph("ring")


def test_constants_audit():
    # cross-check the reference table against independently transcribed
    # values: published solutions, working points, and sweep settings
    y1 = classify(builtin_problem("ex1")).solution
    assert np.allclose(y1, [1.0, 3.0], atol=1e-9)
    y4 = classify(builtin_problem("ex4")).solution
    assert np.allclose(y4, CONSTANTS["ex4_thm3"]["y_ls_rounded"], atol=1e-4)
    # the working points that criteria 2, 4, 9 and 11 read, whole
    assert CONSTANTS["ex1_thm1"] == {
        "alpha": 0.98, "s0": 1.0, "K_list": [100, 300, 1000],
        "h_numerator": 1.98, "max_rounds": 3000}
    assert CONSTANTS["ex4_thm3"] == {
        "h": 0.0853, "k0": 26.0, "delta": 0.85, "s_r": 0.82,
        "K_list": [300, 900, 1800], "max_rounds": 20000,
        "y_ls_rounded": [0.1415, 0.6391]}
    assert CONSTANTS["robustness"] == {
        "h": 0.0213, "alpha": 0.998, "K": 300, "s0": 10.0, "damping": 0.95,
        "init_lo": 0.0, "init_hi": 0.5, "roundoff": 1e-4,
        "max_rounds": 20000, "n_seeds": 10}
    assert [r[0] for r in CONSTANTS["ex1_thm2"]["rows"]] == [3, 6, 12]
    assert CONSTANTS["ex3"]["p_values"][0] == 0.1
    assert CONSTANTS["ex3"]["p_values"][-1] == 0.9


def _baseline(exact_cfg):
    """The exact config as a baseline run: no alpha, s0 or K, which the
    unquantized baseline does not read."""
    lines = exact_cfg.replace("mode = exact", "mode = baseline").splitlines()
    return "\n".join(ln for ln in lines if not ln.startswith(
        ("solver.alpha", "solver.s0", "solver.K"))) + "\n"


def test_run_config_exact_and_baseline():
    tr = run_config(parse_config(EXACT_CFG))
    assert tr.mode == "exact"
    assert tr.err2[-1] < 1e-6
    base_cfg = _baseline(EXACT_CFG)
    tb = run_config(parse_config(base_cfg))
    assert tb.mode == "baseline"
    assert tb.err2[-1] < 1e-10
    assert tb.bits_cum[-1] == 0


def test_baseline_starts_from_the_solvers_x0():
    # solver.cx and seed draw x(0) in baseline mode as in exact mode
    cfg = EXACT_CFG + "solver.cx = 1.0\nseed = 3\n"
    exact = run_config(parse_config(cfg))
    base = run_config(parse_config(_baseline(cfg)))
    assert base.err2[0] == exact.err2[0]
    assert base.err2[0] == pytest.approx(8.1380, abs=1e-4)


def test_run_config_byte_determinism(tmp_path):
    cfg = parse_config(LS_CFG)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    with pytest.warns(RuntimeWarning):     # K = 900 < Kmin' = 2770
        run_config(cfg).save_csv(p1)
        run_config(cfg).save_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_summary_recompute():
    with pytest.warns(RuntimeWarning):
        tr = run_config(parse_config(LS_CFG))
    s = tr.summary()
    assert s["rounds"] == int(tr.k[-1])
    assert s["final_err2"] == pytest.approx(float(tr.err2[-1]))
    assert s["bits_total"] == int(tr.bits_cum[-1])
    assert s["saturation_total"] == int(tr.saturation_count[-1])


@pytest.mark.parametrize("text, key", [
    (EXACT_CFG.replace("problem.builtin = ex1", "problem.builtin = ex9"),
     "problem.builtin"),
    (EXACT_CFG.replace("graph.builtin = fig1", "graph.builtin = fig9"),
     "graph.builtin"),
    (EXACT_CFG.replace("graph.builtin = fig1",
                       "graph.kind = ring\ngraph.n = 5"), "graph.kind"),
    (RANDOM_ER_CFG.replace("problem.random.kind = exact",
                           "problem.random.kind = exactly"),
     "problem.random.kind"),
], ids=["builtin_problem", "builtin_graph", "graph_kind", "random_kind"])
def test_unknown_name_is_a_usage_error(tmp_path, capsys, text, key):
    # refused by the reader, before a builder would fail on it
    with pytest.raises(ValueError, match=rf"^{re.escape(key)}: must be one"):
        parse_config(text)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert main(["solve", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert f"{key}: must be one of" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_reproduce_without_out_dir_writes_nothing(tmp_path, monkeypatch,
                                                 reproduced):
    # the writer alone: the reproducer replays the session's run
    done = reproduced("ex2")
    monkeypatch.setitem(harness._REPRODUCERS, "ex2",
                        lambda: dataclasses.replace(done, trace_paths=[]))
    monkeypatch.chdir(tmp_path)
    arts = reproduce("ex2")
    assert arts.ok and arts.trace_paths == [] and list(arts.outputs)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("example_id", ["ex2", "ex1_thm1"])
def test_reproduce_writes_each_output_as_rendered(example_id, reproduced):
    arts = reproduced(example_id)
    out = os.path.dirname(arts.trace_paths[0])
    assert arts.trace_paths == [os.path.join(out, name)
                                for name in arts.outputs]
    assert sorted(os.listdir(out)) == sorted(arts.outputs)
    for path, rendered in zip(arts.trace_paths, arts.outputs.values()):
        if not isinstance(rendered, str):
            rendered = rendered.csv_text()
        with open(path, "rb") as fh:
            assert fh.read() == rendered.encode()


def test_reproduce_unknown_id():
    with pytest.raises(ValueError, match="unknown example id"):
        reproduce("ex99")


# every reproducer; the two that take seconds are slow
@pytest.mark.parametrize("example_id", [
    pytest.param(example_id, marks=pytest.mark.slow)
    if example_id in ("ex1_thm2", "robustness") else example_id
    for example_id in _REPRODUCERS])
def test_reproduce_writes_csvs_that_match_the_summary(example_id,
                                                      reproduced):
    arts = reproduced(example_id)
    # criterion 11 asserts the damped round-off check, a known failure
    assert all(passed for name, passed, _ in arts.checks
               if name != "damped_roundoff_small_error")
    out = os.path.dirname(arts.trace_paths[0])
    tables = {}
    for path in arts.trace_paths:
        assert os.path.dirname(path) == out
        with open(path, encoding="utf-8") as fh:
            tables[os.path.basename(path)] = [
                line.split(",") for line in fh.read().splitlines()
                if not line.startswith("#")]
    s = arts.summary
    if example_id in ("ex1_thm1", "ex4_thm3"):
        K_list = CONSTANTS[example_id]["K_list"]
        assert sorted(tables) == sorted(f"{example_id}_K{K}.csv"
                                        for K in K_list)
        # the summary is of the first K's trace, ex4_thm3's of K = 900's
        K = K_list[0] if example_id == "ex1_thm1" else 900
        first = tables[f"{example_id}_K{K}.csv"]
        assert len(first) == 1 + s["rounds"] + 1      # header, rounds 0..k
        last = dict(zip(first[0], first[-1]))
        assert int(last["k"]) == s["rounds"]
        assert float(last["err2"]) == s["final_err2"]
        assert int(last["saturation_count"]) == s["saturation_total"]
        assert int(last["bits_cum"]) == s["bits_total"]
        for rows in tables.values():    # the same dynamics for every K
            assert [r[1] for r in rows] == [r[1] for r in first]
    elif example_id in ("ex1_thm2", "ex4_thm4"):
        assert list(tables) == [f"{example_id}_K{row[0]}.csv"
                                for row in CONSTANTS[example_id]["rows"]]
        err2 = [[float(r[1]) for r in rows[1:]] for rows in tables.values()]
        assert [e[-1] for e in err2] == s["finals"]
        if example_id == "ex4_thm4":
            assert [next((k for k, e in enumerate(e2) if e <= 0.5), None)
                    for e2 in err2] == s["rounds_to_threshold"]
    elif example_id == "robustness":
        header, *rows = tables.pop("robustness_medians.csv")
        assert not tables and header == ["arm", "median_final_err2"]
        assert {arm: float(med) for arm, med in rows} == s
    elif example_id == "ex2":
        header, *rows = tables.pop("ex2_alpha_star.csv")
        assert not tables
        assert header == ["K", "K_theta", "alpha_star", "exp_neg_K_theta"]
        assert [(int(K), float(t), float(a), float(e))
                for K, t, a, e in rows] == s["rows"]
    else:
        header, *rows = tables.pop("ex3_theta_sweep.csv")
        assert not tables and header == ["p", "mean_theta"]
        assert [float(p) for p, _ in rows] == CONSTANTS["ex3"]["p_values"]
        assert [float(mt) for _, mt in rows] == s["means"]


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["no-such-command"]) == 2
    assert main(["solve", str(tmp_path / "missing.cfg")]) == 2
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(EXACT_CFG)
    assert main(["solve", str(cfg_path), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "final_err2" in out
    assert (tmp_path / "trace.csv").exists()


def test_cli_plan_and_alpha_star(tmp_path, capsys):
    assert main(["plan", "exact", "--K", "300", "--problem", "ex1",
                 "--cx", "5", "--cw", "0", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "membership = True" in out
    assert (tmp_path / "plan.csv").exists()
    # sweep takes a named problem and a built-in graph
    assert main(["sweep", "--K", "100", "--problem", "ex1",
                 "--graph-kinds", "fig1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    sp = build_stacked(builtin_problem("ex1"),
                       build_laplacian(builtin_graph()))
    assert lines[1:] == [f"fig1,100,{theta_n(sp, sp.lap, sp.m, sp.n):.17g},"
                         f"{alpha_star(100, sp):.17g}"]


@pytest.mark.parametrize("eps", ["1e-12", "1e-7", "0.9999999999999998"])
def test_cli_plan_exits_2_naming_eps_at_its_ends(capsys, eps):
    assert main(["plan", "exact", "--K", "2", "--eps", eps,
                 "--problem", "ex1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: eps = {float(eps)!r} is too" in captured.err


def test_cli_alpha_star_on_erdos_renyi(capsys):
    # --p sets the edge probability and --seed the graph's seed, also
    # beside a named problem, whose node count the graph takes
    assert main(["sweep", "--K", "10", "--graph-kinds", "erdos_renyi",
                 "--n", "30", "--p", "0.3", "--seed", "2"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    p = random_problem(30, 5, "exact", 2)
    g = generate_graph("erdos_renyi", 30, 0.3, 2)
    sp = build_stacked(p, build_laplacian(g))
    assert line.endswith(f",{alpha_star(10, sp):.17g}")
    assert main(["sweep", "--K", "10", "--graph-kinds", "erdos_renyi",
                 "--problem", "ex1", "--seed", "3"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    p = builtin_problem("ex1")
    sp = build_stacked(p, build_laplacian(generate_graph(
        "erdos_renyi", p.n_nodes, 0.5, 3)))
    assert line.endswith(f",{alpha_star(10, sp):.17g}")


@pytest.mark.parametrize("argv", [
    ["sweep", "--K", "10", "--n", "6", "--m", "2", "--out", "{file}"],
    ["solve", "{dir}"],
], ids=["sweep_out_is_a_file", "solve_a_directory"])
def test_cli_os_error_is_a_usage_error(tmp_path, capsys, argv):
    (tmp_path / "afile").write_text("")
    argv = [a.format(file=tmp_path / "afile", dir=tmp_path) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_oracle_check(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(EXACT_CFG)
    assert main(["oracle-check", str(cfg_path), "--max-rounds", "100"]) == 0


@pytest.mark.parametrize("text", [ROBUST_CFG, BASELINE_CFG],
                         ids=["robust", "baseline"])
def test_cli_oracle_check_refuses_other_modes(tmp_path, capsys, text):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert main(["oracle-check", str(cfg_path)]) == 2
    assert "exact and ls modes only" in capsys.readouterr().err


@pytest.mark.parametrize("problem", ["ex1", "ex4"])
def test_cli_plan_outside_the_set_exits_1(capsys, problem):
    # the eps-slice gain at K = 1 gives Mprime just above K + 1/2
    assert main(["plan", "ls", "--K", "1", "--problem", problem]) == 1
    out = capsys.readouterr().out
    assert "membership = False" in out


def test_cli_sweep(tmp_path, capsys):
    assert main(["sweep", "--graph-kinds", "cycle,star", "--n", "6", "--m",
                 "2", "--K", "10", "100", "--seed", "3",
                 "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "graph,K,theta_n,alpha_star"
    assert [ln.split(",")[:2] for ln in lines[1:]] == [
        ["cycle", "10"], ["cycle", "100"], ["star", "10"], ["star", "100"]]
    p = random_problem(6, 2, "exact", 3)
    sp = build_stacked(p, build_laplacian(generate_graph("star", 6)))
    assert float(lines[4].split(",")[3]) == alpha_star(100, sp)
    assert (tmp_path / "sweep.csv").read_text() == "\n".join(lines) + "\n"


def test_cli_sweep_resolves_every_entry_before_computing(monkeypatch,
                                                         capsys):
    # an unknown entry after a valid one exits 2 before any theta_N or
    # alpha* is computed
    def computed(*args):
        raise AssertionError("sweep computed before resolving its entries")

    monkeypatch.setattr(cli, "alpha_star", computed)
    monkeypatch.setattr(cli, "theta_n", computed)
    assert main(["sweep", "--K", "10", "--graph-kinds", "cycle,foo"]) == 2
    captured = capsys.readouterr()
    assert "'foo' is neither a file nor a known name" in captured.err
    assert captured.out == ""


SHARED_FLAGS = {"--seed", "--out", "--strict-saturation", "--max-rounds",
                "--tol"}


def test_readme_cli_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| subcommand | flags |\n|---|---|\n")[1]
    rows = {}
    for line in table.splitlines():
        if not line.startswith("|"):
            break
        name, flags = line.strip("|").split("|")
        rows[name.strip().strip("`")] = set(re.findall(r"`(--[\w-]+)`",
                                                       flags))
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert rows == {name: SHARED_FLAGS & {opt for a in parser._actions
                                          for opt in a.option_strings}
                    for name, parser in sub.choices.items()}


def test_cli_reproduce_ids_are_the_harness_reproducers():
    parser = cli.build_parser()
    for example_id in _REPRODUCERS:
        assert parser.parse_args(["reproduce", example_id]).example_id \
            == example_id
    assert main(["reproduce", "ex99"]) == 2


def test_cli_reproduce(tmp_path, capsys, monkeypatch, reproduced):
    # the CLI alone: the reproducer replays the session's run
    done = reproduced("ex1_thm1")
    monkeypatch.setitem(harness._REPRODUCERS, "ex1_thm1",
                        lambda: dataclasses.replace(done, trace_paths=[]))
    assert main(["reproduce", "ex1_thm1", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    checks = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert checks and all(ln.startswith("[PASS]") for ln in checks)
    assert "[PASS] bound_dominates_error" in out
    assert (tmp_path / "ex1_thm1_K100.csv").exists()
    # one failed check makes the exit code 1
    failing = dataclasses.replace(done, checks=[("forced", False, "")],
                                  trace_paths=[])
    monkeypatch.setitem(harness._REPRODUCERS, "ex1_thm1", lambda: failing)
    assert main(["reproduce", "ex1_thm1"]) == 1
    assert capsys.readouterr().out.startswith("[FAIL] forced\n")


def test_problem_and_graph_files_match_the_builtins(tmp_path, capsys):
    prob, graph = tmp_path / "ex1.txt", tmp_path / "fig1.txt"
    save_problem(builtin_problem("ex1"), prob)
    save_graph(builtin_graph(), graph)
    text = EXACT_CFG.replace("problem.builtin = ex1", f"problem.file = {prob}"
                             ).replace("graph.builtin = fig1",
                                       f"graph.file = {graph}")
    assert (run_config(parse_config(text)).csv_text()
            == run_config(parse_config(EXACT_CFG)).csv_text())
    plans = []
    for argv in (["--problem", "ex1", "--graph", "fig1"],
                 ["--problem", str(prob), "--graph", str(graph)]):
        assert main(["plan", "exact", "--K", "300", *argv]) == 0
        plans.append(capsys.readouterr().out)
    assert plans[0] == plans[1]
    rows = []
    for problem in ("ex1", str(prob)):
        assert main(["sweep", "--K", "100", "--problem", problem,
                     "--graph-kinds", f"fig1,{graph}"]) == 0
        rows += [ln.split(",", 1)[1]
                 for ln in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 4 and len(set(rows)) == 1


def test_cli_solve_overrides(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(EXACT_CFG)
    assert main(["solve", str(cfg_path), "--out", str(tmp_path),
                 "--max-rounds", "5"]) == 0
    text = (tmp_path / "trace.csv").read_text()
    rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert len(rows) == 7  # header + rounds 0..5


def test_cli_rejects_flags_a_command_ignores():
    assert main(["reproduce", "ex2", "--seed", "5"]) == 2
    assert main(["reproduce", "ex2", "--max-rounds", "1"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["plan", "ls", "--K", "300", "--problem", "ex4", "--cw", "99"], "--cw"),
    (["plan", "exact", "--K", "300", "--problem", "ex1", "--delta", "0.6"],
     "--delta"),
    (["plan", "exact", "--K", "300", "--problem", "ex1", "--cx", "1"],
     "--cx"),
    (["plan", "exact", "--K", "300", "--problem", "ex1", "--cw", "1"],
     "--cw"),
    (["sweep", "--graph-kinds", "cycle", "--p", "0.9", "--K", "10"], "--p"),
    (["sweep", "--K", "10", "--problem", "ex1", "--n", "77", "--m", "9",
      "--seed", "4"], "--n, --m, --seed"),
    (["sweep", "--K", "10", "--problem", "ex1", "--graph-kinds", "fig1",
      "--p", "0.3"], "--p"),
    (["solve", "{baseline}", "--strict-saturation"], "--strict-saturation"),
    (["plan", "exact", "--K", "300", "--problem", "ex1", "--graph", "cycle"],
     "'cycle' is neither a file nor a known name (fig1)"),
    (["sweep", "--K", "10", "--graph-kinds", "foo,cycle"],
     "'foo' is neither a file nor a known name (cycle, star, complete, "
     "erdos_renyi, fig1)"),
    (["sweep", "--K", "0", "--graph-kinds", "cycle", "--n", "6", "--m", "2"],
     "K must be at least 1"),
], ids=["plan_ls_cw", "plan_exact_delta", "plan_exact_cx_alone",
        "plan_exact_cw_alone", "sweep_p", "alpha_star_random_sizes",
        "alpha_star_p", "solve_baseline_strict", "plan_generated_graph",
        "sweep_unknown_entry", "sweep_k_0"])
def test_cli_flag_the_command_would_ignore_is_a_usage_error(
        tmp_path, capsys, argv, message):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASELINE_CFG)
    argv = [a.replace("{baseline}", str(cfg_path)) for a in argv]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_cli_plan_ls_keeps_its_delta_default(capsys):
    main(["plan", "ls", "--K", "300", "--problem", "ex4"])
    assert "delta = 0.85" in capsys.readouterr().out


RANK1 = """
problem.inline = 1 2 3; 2 4 6; 1 2 3
graph.kind = cycle
graph.n = 3
"""


@pytest.mark.parametrize("text, message", [
    ("mode = exact\nproblem.builtin = ex4\ngraph.builtin = fig1\n"
     "solver.h = 0.05\nsolver.alpha = 0.99\nsolver.s0 = 1\nsolver.K = 100\n",
     "exact mode requires an exactly solvable system"),
    (RANK1 + "mode = ls\nsolver.h = 0.1\nsolver.K = 10\nsolver.s_r = 1\n"
     "gamma.k0 = 10\ngamma.delta = 0.8\n", "problem is rank deficient"),
    (RANK1 + "mode = exact\nsolver.h = 0.1\nsolver.alpha = 0.9\n"
     "solver.s0 = 1\nsolver.K = 10\n", "problem is rank deficient"),
    (RANK1 + "mode = baseline\nsolver.h = 0.1\n", "problem is rank deficient"),
], ids=["exact_on_ls_system", "rank1_ls", "rank1_exact", "rank1_baseline"])
def test_solve_and_oracle_check_refuse_the_same_systems(tmp_path, capsys,
                                                        text, message):
    cfg = parse_config(text)
    with pytest.raises(ValueError, match=message):
        run_config(cfg)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert main(["solve", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    if cfg.get("mode") != "baseline":
        assert main(["oracle-check", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err


def test_cli_solve_divergent_run_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(EXACT_CFG.replace("solver.h = 0.42", "solver.h = 2")
                        .replace("solver.alpha = 0.98", "solver.alpha = 0.5")
                        .replace("solver.K = 300", "solver.K = 10")
                        .replace("max_rounds = 1500", "max_rounds = 3000"))
    with pytest.warns(RuntimeWarning):
        assert main(["solve", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "quantizer input must be finite" in capsys.readouterr().err


def test_cli_oracle_check_starts_from_seeded_x0(tmp_path, monkeypatch):
    # the co-simulation starts from the solver's own x(0): the uniform draw
    # in [-cx, cx] from the config's seed
    starts = []
    real_init = cli.compact_exact_init

    def spy(x0, s0, ops):
        starts.append(np.array(x0))
        return real_init(x0, s0, ops)

    monkeypatch.setattr(cli, "compact_exact_init", spy)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(EXACT_CFG + "solver.cx = 2.0\nseed = 9\n")
    assert main(["oracle-check", str(cfg_path), "--max-rounds", "200"]) == 0
    x0 = np.random.default_rng(9).uniform(-2.0, 2.0, size=(5, 2))
    assert len(starts) == 1 and np.array_equal(starts[0], x0.reshape(-1))
