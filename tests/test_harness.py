import numpy as np
import pytest

from quantnet import cli
from quantnet.cli import main
from quantnet.harness import (CONSTANTS, builtin_graph, builtin_problem,
                              parse_config, random_problem, reproduce,
                              run_config, serialize_config)
from quantnet.problem import classify

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
    assert CONSTANTS["ex1_thm1"]["alpha"] == 0.98
    assert CONSTANTS["ex1_thm1"]["K_list"] == [100, 300, 1000]
    assert [r[0] for r in CONSTANTS["ex1_thm2"]["rows"]] == [3, 6, 12]
    assert CONSTANTS["ex4_thm3"]["h"] == 0.0853
    assert CONSTANTS["ex4_thm3"]["K_list"] == [300, 900, 1800]
    assert CONSTANTS["robustness"]["damping"] == 0.95
    assert CONSTANTS["ex3"]["p_values"][0] == 0.1
    assert CONSTANTS["ex3"]["p_values"][-1] == 0.9


def test_run_config_exact_and_baseline():
    tr = run_config(parse_config(EXACT_CFG))
    assert tr.mode == "exact"
    assert tr.err2[-1] < 1e-6
    base_cfg = EXACT_CFG.replace("mode = exact", "mode = baseline")
    tb = run_config(parse_config(base_cfg))
    assert tb.mode == "baseline"
    assert tb.err2[-1] < 1e-10
    assert tb.bits_cum[-1] == 0


def test_baseline_starts_from_the_solvers_x0():
    # solver.cx and seed draw x(0) in baseline mode as in exact mode
    cfg = EXACT_CFG + "solver.cx = 1.0\nseed = 3\n"
    exact = run_config(parse_config(cfg))
    base = run_config(parse_config(cfg.replace("mode = exact",
                                               "mode = baseline")))
    assert base.err2[0] == exact.err2[0]
    assert base.err2[0] == pytest.approx(8.1380, abs=1e-4)


def test_run_config_byte_determinism(tmp_path):
    cfg = parse_config(LS_CFG)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_config(cfg).save_csv(p1)
    run_config(cfg).save_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_summary_recompute():
    tr = run_config(parse_config(LS_CFG))
    s = tr.summary()
    assert s["rounds"] == int(tr.k[-1])
    assert s["final_err2"] == pytest.approx(float(tr.err2[-1]))
    assert s["bits_total"] == int(tr.bits_cum[-1])
    assert s["saturation_total"] == int(tr.saturation_count[-1])


def test_reproduce_unknown_id():
    with pytest.raises(ValueError, match="unknown example id"):
        reproduce("ex99")


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
    assert main(["alpha-star", "--K", "100", "--problem", "ex1",
                 "--graph", "fig1"]) == 0
    out = capsys.readouterr().out
    assert "theta_n" in out and "alpha_star K=100" in out


def test_cli_oracle_check(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(EXACT_CFG)
    assert main(["oracle-check", str(cfg_path), "--max-rounds", "100"]) == 0


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
