"""Experiment orchestration: configs, seeded generators, reproductions.

The config format is flat ``key = value`` text with dotted section prefixes
('#' comments allowed). Matrices are written inline as rows separated by
';'. Everything is deterministic: a config plus its seeds pins every byte
of every output file. All randomness flows through numpy's PCG64 bit
generator (identifier recorded in trace headers).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .codec import NoiseModel
from .graph import Graph, build_laplacian, generate_graph, load_graph
from .planner import (alpha_star, kmin_from_m, m_value, spectral_data,
                      xi_membership)
from .problem import (LinearProblem, build_stacked, classify, load_problem,
                      theta_n)
from .solver import (ExactConfig, GammaSchedule, LSConfig, Trace,
                     _initial_states, run_exact, run_ls, run_robust,
                     traces_dynamics_equal)

__all__ = [
    "ExperimentConfig",
    "RunArtifacts",
    "CONSTANTS",
    "load_config",
    "parse_config",
    "serialize_config",
    "build_problem",
    "build_graph",
    "run_config",
    "random_problem",
    "reproduce",
    "builtin_problem",
    "builtin_graph",
]


# ---------------------------------------------------------------------------
# published reference constants
#
# Each entry is the parameter set of one published experiment on the
# five-node benchmark systems (or a synthetic stand-in where the original
# data was never published). The test suite audits this table against an
# independently transcribed manifest.
# ---------------------------------------------------------------------------

CONSTANTS: dict = {
    # five-node system with an exact solution y* = (1, 3)
    "five_node_exact": {
        "H": [[0.5, -0.1], [-0.4, 0.2], [0.3, -0.7], [0.6, 0.3], [-0.3, 0.5]],
        "z": [0.2, 0.2, -1.8, 1.5, 1.2],
    },
    # five-node least-squares system, solution approx (0.1415, 0.6391)
    "five_node_ls": {
        "H": [[1.7889, -1.0764], [-1.0764, 0.1903], [0.4707, 0.1008],
              [0.8356, -0.1716], [0.5978, -1.6668]],
        "z": [-0.2854, 1.2038, 1.1032, 0.7088, -0.9495],
    },
    # shared five-node communication graph
    "five_node_graph": {"n": 5, "edges": [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]},
    # exact-mode rate-bound study: h = 1.98/(fd_min+fd_max), published
    # rounded values h = 0.4215, rho_h = 0.9554, required levels 225
    "ex1_thm1": {"alpha": 0.98, "s0": 1.0, "K_list": [100, 300, 1000],
                 "h_numerator": 1.98, "max_rounds": 3000},
    # exact-mode minimum-alphabet study: (K, alpha, h, s0) triples
    "ex1_thm2": {"rows": [(3, 0.9998, 0.0038, 1500.0),
                          (6, 0.9996, 0.0077, 1200.0),
                          (12, 0.9992, 0.0154, 1000.0)],
                 "eps": 0.5, "max_rounds": 100000},
    # scalability study (original random system unpublished; a seeded
    # stand-in of the same shape is generated locally)
    "ex2": {"n": 100, "m": 5, "graph": "cycle", "seed": 7},
    # graph-family study (original random system unpublished; the row
    # scale pins the stand-in to the published magnitude regime, where the
    # network part of the stacked operator dominates the data part)
    "ex3": {"n": 100, "m": 10, "seed": 11, "scale": 0.2, "p_values":
            [round(0.1 + 0.1 * i, 2) for i in range(9)], "graphs_per_p": 100},
    # least-squares convergence study
    "ex4_thm3": {"h": 0.0853, "k0": 26.0, "delta": 0.85, "s_r": 0.82,
                 "K_list": [300, 900, 1800], "max_rounds": 20000,
                 "y_ls_rounded": [0.1415, 0.6391]},
    # least-squares minimum-alphabet study: (K, k0, delta, h, s_r) rows
    "ex4_thm4": {"rows": [(10, 120.0, 0.85, 0.0055, 0.9583),
                          (30, 36.0, 0.75, 0.0164, 0.6934),
                          (90, 9.0, 0.55, 0.0492, 0.6968)],
                 "max_rounds": 20000},
    # damped/noisy codec study
    "robustness": {"h": 0.0213, "alpha": 0.998, "K": 300, "s0": 10.0,
                   "damping": 0.95, "init_lo": 0.0, "init_hi": 0.5,
                   "roundoff": 1e-4, "max_rounds": 20000, "n_seeds": 10},
}


def builtin_problem(name: str) -> LinearProblem:
    """Named built-in systems: ``ex1`` (exact) and ``ex4`` (least squares)."""
    key = {"ex1": "five_node_exact", "ex4": "five_node_ls"}.get(name)
    if key is None:
        raise ValueError(f"unknown built-in problem {name!r}")
    c = CONSTANTS[key]
    return LinearProblem(H=np.array(c["H"]), z=np.array(c["z"]))


def builtin_graph(name: str = "fig1") -> Graph:
    if name != "fig1":
        raise ValueError(f"unknown built-in graph {name!r}")
    c = CONSTANTS["five_node_graph"]
    return Graph(c["n"], frozenset(c["edges"]))


# ---------------------------------------------------------------------------
# config format
# ---------------------------------------------------------------------------

_BOOL = {"true": True, "false": False}

# key -> type tag: str | int | float | bool | matrix
_SCHEMA = {
    "mode": "str",
    "seed": "int",
    "max_rounds": "int",
    "stop_tol": "float",
    "strict_saturation": "bool",
    "out": "str",
    "problem.file": "str",
    "problem.builtin": "str",
    "problem.inline": "matrix",
    "problem.random.n": "int",
    "problem.random.m": "int",
    "problem.random.kind": "str",
    "problem.random.seed": "int",
    "graph.file": "str",
    "graph.builtin": "str",
    "graph.kind": "str",
    "graph.n": "int",
    "graph.p": "float",
    "graph.seed": "int",
    "solver.h": "float",
    "solver.alpha": "float",
    "solver.s0": "float",
    "solver.K": "int",
    "solver.s_r": "float",
    "solver.x0": "matrix",
    "solver.cx": "float",
    "gamma.k0": "float",
    "gamma.delta": "float",
    "noise.damping": "float",
    "noise.init_lo": "float",
    "noise.init_hi": "float",
    "noise.roundoff": "float",
    "noise.seed": "int",
    "noise.init_enabled": "bool",
    "noise.roundoff_enabled": "bool",
}

_MODES = ("exact", "ls", "robust", "baseline")


@dataclass
class ExperimentConfig:
    """Validated flat config; ``values`` maps schema keys to typed values."""

    values: dict = field(default_factory=dict)

    def get(self, key, default=None):
        return self.values.get(key, default)

    def __contains__(self, key):
        return key in self.values


def _parse_value(key: str, raw: str, lineno: int):
    kind = _SCHEMA[key]
    try:
        if kind == "str":
            return raw
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() not in _BOOL:
                raise ValueError("expected true/false")
            return _BOOL[raw.lower()]
        if kind == "matrix":
            rows = [r.strip() for r in raw.split(";") if r.strip()]
            mat = [[float(v) for v in r.split()] for r in rows]
            widths = {len(r) for r in mat}
            if len(widths) != 1:
                raise ValueError("ragged matrix rows")
            return mat
    except ValueError as exc:
        raise ValueError(f"line {lineno}: bad value for {key}: {exc}") from exc
    raise AssertionError(kind)


def parse_config(text: str) -> ExperimentConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, val, lineno)
    _validate_semantics(values)
    return ExperimentConfig(values)


def _validate_semantics(values: dict) -> None:
    mode = values.get("mode")
    if mode is None:
        raise ValueError("missing required key 'mode'")
    if mode not in _MODES:
        raise ValueError(f"mode: must be one of {_MODES}")
    if "gamma.delta" in values and not (0.5 < values["gamma.delta"] <= 1.0):
        raise ValueError("gamma.delta: must lie in (1/2, 1]")
    if "gamma.k0" in values and values["gamma.k0"] <= 0:
        raise ValueError("gamma.k0: must be positive")
    sources = [k for k in ("problem.file", "problem.builtin", "problem.inline",
                           "problem.random.n") if k in values]
    if len(sources) != 1:
        raise ValueError("exactly one problem source must be given "
                         "(problem.file | problem.builtin | problem.inline "
                         "| problem.random.*)")
    gsources = [k for k in ("graph.file", "graph.builtin", "graph.kind")
                if k in values]
    if len(gsources) != 1:
        raise ValueError("exactly one graph source must be given "
                         "(graph.file | graph.builtin | graph.kind)")
    if mode in ("exact", "robust"):
        for k in ("solver.h", "solver.alpha", "solver.s0", "solver.K"):
            if k not in values:
                raise ValueError(f"missing required key '{k}' for {mode} mode")
    if mode == "ls":
        for k in ("solver.h", "solver.s_r", "solver.K",
                  "gamma.k0", "gamma.delta"):
            if k not in values:
                raise ValueError(f"missing required key '{k}' for ls mode")


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical form: schema order, 17-significant-digit floats."""
    lines = []
    for key in _SCHEMA:
        if key not in cfg.values:
            continue
        v = cfg.values[key]
        kind = _SCHEMA[key]
        if kind == "float":
            out = f"{v:.17g}"
        elif kind == "bool":
            out = "true" if v else "false"
        elif kind == "matrix":
            out = "; ".join(" ".join(f"{x:.17g}" for x in row) for row in v)
        else:
            out = str(v)
        lines.append(f"{key} = {out}")
    return "\n".join(lines) + "\n"


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def build_problem(cfg: ExperimentConfig) -> LinearProblem:
    if "problem.file" in cfg:
        return load_problem(cfg.get("problem.file"))
    if "problem.builtin" in cfg:
        return builtin_problem(cfg.get("problem.builtin"))
    if "problem.inline" in cfg:
        mat = np.array(cfg.get("problem.inline"))
        return LinearProblem(H=mat[:, :-1], z=mat[:, -1])
    return random_problem(cfg.get("problem.random.n"),
                          cfg.get("problem.random.m"),
                          cfg.get("problem.random.kind", "exact"),
                          cfg.get("problem.random.seed", 0))


def build_graph(cfg: ExperimentConfig) -> Graph:
    if "graph.file" in cfg:
        return load_graph(cfg.get("graph.file"))
    if "graph.builtin" in cfg:
        return builtin_graph(cfg.get("graph.builtin"))
    return generate_graph(cfg.get("graph.kind"), cfg.get("graph.n"),
                          cfg.get("graph.p", 0.5), cfg.get("graph.seed", 0))


def _solver_config(cfg: ExperimentConfig, mode: str):
    common = dict(
        K=cfg.get("solver.K"),
        max_rounds=cfg.get("max_rounds", 3000 if mode != "ls" else 20000),
        strict_saturation=cfg.get("strict_saturation", False),
        x0=np.array(cfg.get("solver.x0")) if "solver.x0" in cfg else None,
        cx=cfg.get("solver.cx"),
        seed=cfg.get("seed", 0),
    )
    if "stop_tol" in cfg:
        common["stop_tol"] = cfg.get("stop_tol")
    if mode == "ls":
        return LSConfig(h=cfg.get("solver.h"), s_r=cfg.get("solver.s_r"),
                        gamma=GammaSchedule(cfg.get("gamma.k0"),
                                            cfg.get("gamma.delta")),
                        **common)
    return ExactConfig(h=cfg.get("solver.h"), alpha=cfg.get("solver.alpha"),
                       s0=cfg.get("solver.s0"), **common)


def _noise_model(cfg: ExperimentConfig) -> NoiseModel:
    return NoiseModel(
        damping=cfg.get("noise.damping", 1.0),
        init_error_range=(cfg.get("noise.init_lo", 0.0),
                          cfg.get("noise.init_hi", 0.0)),
        roundoff_amp=cfg.get("noise.roundoff", 0.0),
        seed=cfg.get("noise.seed", cfg.get("seed", 0)),
        init_errors_enabled=cfg.get("noise.init_enabled", False),
        roundoff_enabled=cfg.get("noise.roundoff_enabled", False),
    )


def run_config(cfg: ExperimentConfig) -> Trace:
    """Execute a config end to end and return its trace."""
    p = build_problem(cfg)
    g = build_graph(cfg)
    mode = cfg.get("mode")
    if mode == "exact":
        return run_exact(p, g, _solver_config(cfg, "exact"))
    if mode == "ls":
        return run_ls(p, g, _solver_config(cfg, "ls"))
    if mode == "robust":
        return run_robust(p, g, _solver_config(cfg, "robust"),
                          _noise_model(cfg))
    if mode == "baseline":
        return _run_baseline(p, g, cfg)
    raise ValueError(f"unknown mode {mode!r}")


def _run_baseline(p: LinearProblem, g: Graph, cfg: ExperimentConfig) -> Trace:
    """Unquantized reference run, recorded in the same trace layout.

    x(0) is drawn as the solver draws it (``solver.x0``, else ``solver.cx``
    from ``seed``, else zero).
    """
    from .oracle import unquantized_step

    lap = build_laplacian(g)
    ops = build_stacked(p, lap)
    cls = classify(p)
    n, m = p.n_nodes, p.dim
    Lm = np.kron(lap.L, np.eye(m))
    h = cfg.get("solver.h")
    max_rounds = cfg.get("max_rounds", 3000)
    stop_tol = cfg.get("stop_tol", 1e-12)
    if "gamma.k0" in cfg:
        sched = GammaSchedule(cfg.get("gamma.k0"), cfg.get("gamma.delta"))
    else:
        sched = None
    x = _initial_states(p, cfg.get("solver.x0"), cfg.get("solver.cx"),
                        cfg.get("seed", 0)).reshape(-1)
    y_ref = cls.solution
    target = np.tile(y_ref, n)
    rec_k, rec_err2, rec_einf = [0], [float(np.linalg.norm(x - target))], \
        [np.abs((x - target).reshape(n, m)).max(axis=1)]
    stop_reason = "max_rounds"
    for k in range(1, max_rounds + 1):
        gk = float(sched.gamma(k - 1)) if sched else 1.0
        x = unquantized_step(x, h, gk, Lm, ops.Hd, ops.zH)
        e2 = float(np.linalg.norm(x - target))
        rec_k.append(k)
        rec_err2.append(e2)
        rec_einf.append(np.abs((x - target).reshape(n, m)).max(axis=1))
        if e2 < stop_tol:
            stop_reason = "error_tolerance"
            break
    nrows = len(rec_k)
    nanv = np.full(nrows, float("nan"))
    zeros = np.zeros(nrows, dtype=np.int64)
    return Trace(mode="baseline", k=np.array(rec_k), err2=np.array(rec_err2),
                 bound_Bk=None, ratio_err_gamma=None, max_quant_input=nanv,
                 saturation_count=zeros, bits_cum=zeros,
                 bits_cum_nonzero=zeros, err_inf_per_node=np.array(rec_einf),
                 stop_reason=stop_reason, x_final=x.reshape(n, m),
                 y_ref=y_ref, seed=cfg.get("seed", 0))


# ---------------------------------------------------------------------------
# seeded random problems
# ---------------------------------------------------------------------------

def random_problem(n: int, m: int, kind: str = "exact",
                   seed: int = 0) -> LinearProblem:
    """Seeded random system with a guaranteed classification.

    Entries of H are standard normal (PCG64 stream from ``seed``). For
    ``exact``, z = H y with a random y; for ``ls``, a residual orthogonal
    to the column span of H is added so the system is genuinely
    inconsistent.
    """
    if not (n > m >= 1):
        raise ValueError("need n > m >= 1")
    if kind not in ("exact", "ls"):
        raise ValueError("kind must be 'exact' or 'ls'")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        H = rng.standard_normal((n, m))
        y_true = rng.standard_normal(m)
        sv = np.linalg.svd(H, compute_uv=False)
        if sv[-1] <= 1e-8 * sv[0]:
            continue
        z = H @ y_true
        if kind == "ls":
            noise = rng.standard_normal(n)
            q, _ = np.linalg.qr(H)
            perp = noise - q @ (q.T @ noise)
            if np.linalg.norm(perp) < 1e-6:
                continue
            z = z + perp
        return LinearProblem(H=H, z=z)
    raise RuntimeError("no full-rank draw found after 100 attempts")


# ---------------------------------------------------------------------------
# reproduction experiments
# ---------------------------------------------------------------------------

@dataclass
class RunArtifacts:
    example_id: str
    trace_paths: list
    summary: dict
    checks: list  # (name, passed, detail)

    @property
    def ok(self) -> bool:
        return all(passed for (_, passed, _) in self.checks)


def _five_node_spectral():
    p = builtin_problem("ex1")
    g = builtin_graph()
    lap = build_laplacian(g)
    ops = build_stacked(p, lap)
    return p, g, lap, ops, spectral_data(ops, lap, p.dim, p.n_nodes)


def _write_trace(tr: Trace, out_dir, name, paths):
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    tr.save_csv(path)
    paths.append(path)


def _reproduce_ex1_thm1(out_dir) -> RunArtifacts:
    c = CONSTANTS["ex1_thm1"]
    p, g, lap, ops, sp = _five_node_spectral()
    h = c["h_numerator"] / (ops.fd_min + ops.fd_max)
    traces, paths = [], []
    for K in c["K_list"]:
        cfg = ExactConfig(h=h, alpha=c["alpha"], s0=c["s0"], K=K,
                          max_rounds=c["max_rounds"])
        tr = run_exact(p, g, cfg)
        traces.append(tr)
        _write_trace(tr, out_dir, f"ex1_thm1_K{K}.csv", paths)
    checks = []
    ident = all(traces_dynamics_equal(traces[0], t) for t in traces[1:])
    checks.append(("traces_identical_across_K", ident,
                   f"K list {c['K_list']}"))
    t0 = traces[0]
    dominated = bool(np.all(t0.err2[1:] <= t0.bound_Bk[1:]))
    checks.append(("bound_dominates_error", dominated,
                   f"max ratio {float(np.max(t0.err2[1:] / t0.bound_Bk[1:])):.6g}"))
    checks.append(("no_saturation", int(t0.saturation_count[-1]) == 0,
                   f"events {int(t0.saturation_count[-1])}"))
    summary = {"h": h, "rho_h": 1.0 - h * ops.fd_min,
               "kmin": kmin_from_m(m_value(c["alpha"], h, sp)),
               **t0.summary()}
    return RunArtifacts("ex1_thm1", paths, summary, checks)


def _reproduce_ex1_thm2(out_dir) -> RunArtifacts:
    c = CONSTANTS["ex1_thm2"]
    p, g, lap, ops, sp = _five_node_spectral()
    checks, paths = [], []
    finals = []
    for (K, alpha, h, s0) in c["rows"]:
        member = xi_membership(alpha, h, K, sp)
        checks.append((f"membership_K{K}", member, f"(alpha={alpha}, h={h})"))
        cfg = ExactConfig(h=h, alpha=alpha, s0=s0, K=K,
                          max_rounds=c["max_rounds"])
        tr = run_exact(p, g, cfg)
        _write_trace(tr, out_dir, f"ex1_thm2_K{K}.csv", paths)
        finals.append(float(tr.err2[-1]))
        converged = tr.err2[-1] < 1e-2 * tr.err2[0]
        checks.append((f"converging_K{K}", bool(converged),
                       f"err2 {tr.err2[0]:.3g} -> {tr.err2[-1]:.3g}"))
        checks.append((f"no_saturation_K{K}",
                       int(tr.saturation_count[-1]) == 0,
                       f"events {int(tr.saturation_count[-1])}"))
    ordered = finals[0] >= finals[1] >= finals[2]
    checks.append(("larger_alphabet_faster", bool(ordered), str(finals)))
    return RunArtifacts("ex1_thm2", paths, {"finals": finals}, checks)


def _ex2_setting():
    c = CONSTANTS["ex2"]
    p = random_problem(c["n"], c["m"], "exact", c["seed"])
    g = generate_graph(c["graph"], c["n"])
    lap = build_laplacian(g)
    ops = build_stacked(p, lap)
    sp = spectral_data(ops, lap, c["m"], c["n"])
    theta = theta_n(ops, lap, c["m"], c["n"])
    return p, g, sp, theta


def _reproduce_ex2(out_dir) -> RunArtifacts:
    _, _, sp, theta = _ex2_setting()
    t_values = [0.005, 0.01, 0.02, 0.05, 0.1]
    rows = []
    for t in t_values:
        K = max(1, int(round(t / theta)))
        a = alpha_star(K, sp)
        rows.append((K, t, a, math.exp(-K * theta)))
    checks = []
    checks.append(("theta_magnitude", 1e-10 < theta < 1e-5, f"{theta:.6g}"))
    non_inc = all(rows[i][2] >= rows[i + 1][2] - 1e-12
                  for i in range(len(rows) - 1))
    checks.append(("alpha_star_non_increasing", non_inc, str([r[2] for r in rows])))
    lower = all(a > 1.0 - K * theta for (K, _, a, _) in rows)
    checks.append(("alpha_star_above_lower_bound", lower, ""))
    paths = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "ex2_alpha_star.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("K,K_theta,alpha_star,exp_neg_K_theta\n")
            for (K, t, a, e) in rows:
                fh.write(f"{K},{t:.17g},{a:.17g},{e:.17g}\n")
        paths.append(path)
    return RunArtifacts("ex2", paths, {"theta": theta, "rows": rows}, checks)


def _reproduce_ex3(out_dir, graphs_per_p: int | None = None) -> RunArtifacts:
    c = CONSTANTS["ex3"]
    n, m = c["n"], c["m"]
    base = random_problem(n, m, "exact", c["seed"])
    p_problem = LinearProblem(H=c["scale"] * base.H, z=c["scale"] * base.z)
    per_p = graphs_per_p if graphs_per_p is not None else c["graphs_per_p"]

    def theta_for(g: Graph) -> float:
        lap = build_laplacian(g)
        ops = build_stacked(p_problem, lap)
        return theta_n(ops, lap, m, n)

    named = {kind: theta_for(generate_graph(kind, n))
             for kind in ("complete", "star", "cycle")}
    means = []
    for p in c["p_values"]:
        vals = [theta_for(generate_graph("erdos_renyi", n, p,
                                         seed=c["seed"] + 1000 * idx))
                for idx in range(per_p)]
        means.append(float(np.mean(vals)))
    checks = [
        ("cycle_beats_complete_and_star",
         named["cycle"] > named["complete"] and named["cycle"] > named["star"],
         str(named)),
        ("mean_theta_decreases_with_p",
         all(means[i] > means[i + 1] for i in range(len(means) - 1)),
         str(means)),
    ]
    paths = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "ex3_theta_sweep.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("p,mean_theta\n")
            for p, mt in zip(c["p_values"], means):
                fh.write(f"{p:.17g},{mt:.17g}\n")
        paths.append(path)
    return RunArtifacts("ex3", paths, {"named": named, "means": means}, checks)


def _reproduce_ex4_thm3(out_dir) -> RunArtifacts:
    c = CONSTANTS["ex4_thm3"]
    p = builtin_problem("ex4")
    g = builtin_graph()
    sched = GammaSchedule(k0=c["k0"], delta=c["delta"])
    traces, paths = [], []
    for K in c["K_list"]:
        cfg = LSConfig(h=c["h"], K=K, s_r=c["s_r"], gamma=sched,
                       max_rounds=c["max_rounds"])
        tr = run_ls(p, g, cfg)
        traces.append(tr)
        _write_trace(tr, out_dir, f"ex4_thm3_K{K}.csv", paths)
    tref = traces[c["K_list"].index(900)]
    final_inf = float(tref.err_inf_per_node[-1].max())
    tail = tref.ratio_err_gamma[10000:]
    ratio_ok = bool(np.max(tail) <= 10.0 * np.median(tail))
    checks = [
        ("traces_identical_across_K",
         all(traces_dynamics_equal(traces[0], t) for t in traces[1:]),
         f"K list {c['K_list']}"),
        ("final_error_small", final_inf <= 5e-2, f"err_inf {final_inf:.4g}"),
        ("ratio_err_gamma_bounded", ratio_ok,
         f"tail sup {float(np.max(tail)):.4g}, median {float(np.median(tail)):.4g}"),
    ]
    return RunArtifacts("ex4_thm3", paths, tref.summary(), checks)


def _reproduce_ex4_thm4(out_dir) -> RunArtifacts:
    c = CONSTANTS["ex4_thm4"]
    p = builtin_problem("ex4")
    g = builtin_graph()
    checks, paths = [], []
    reach = []
    finals = []
    threshold = 0.5
    for (K, k0, delta, h, s_r) in c["rows"]:
        cfg = LSConfig(h=h, K=K, s_r=s_r,
                       gamma=GammaSchedule(k0=k0, delta=delta),
                       max_rounds=c["max_rounds"])
        tr = run_ls(p, g, cfg)
        _write_trace(tr, out_dir, f"ex4_thm4_K{K}.csv", paths)
        hit = np.nonzero(tr.err2 <= threshold)[0]
        reach.append(int(hit[0]) if hit.size else None)
        finals.append(float(tr.err2[-1]))
        checks.append((f"converging_K{K}", tr.err2[-1] < 0.5 * tr.err2[0],
                       f"err2 {tr.err2[0]:.3g} -> {tr.err2[-1]:.3g}"))
    finals_ordered = finals[0] >= finals[1] >= finals[2]
    checks.append(("larger_alphabet_smaller_final_error",
                   bool(finals_ordered), str(finals)))
    reach_known = [r for r in reach if r is not None]
    reach_ordered = (len(reach_known) == len(reach)
                     and all(reach[i] >= reach[i + 1]
                             for i in range(len(reach) - 1)))
    checks.append((f"larger_alphabet_reaches_{threshold}_sooner",
                   bool(reach_ordered), str(reach)))
    return RunArtifacts("ex4_thm4", paths,
                        {"rounds_to_threshold": reach, "finals": finals},
                        checks)


def _reproduce_robustness(out_dir) -> RunArtifacts:
    c = CONSTANTS["robustness"]
    p = builtin_problem("ex1")
    g = builtin_graph()
    cfg = ExactConfig(h=c["h"], alpha=c["alpha"], s0=c["s0"], K=c["K"],
                      max_rounds=c["max_rounds"])

    def finals(damping, init_enabled, roundoff_enabled):
        out = []
        for seed in range(c["n_seeds"]):
            noise = NoiseModel(
                damping=damping,
                init_error_range=(c["init_lo"], c["init_hi"]),
                roundoff_amp=c["roundoff"],
                seed=seed,
                init_errors_enabled=init_enabled,
                roundoff_enabled=roundoff_enabled,
            )
            tr = run_robust(p, g, cfg, noise)
            out.append(float(tr.err2[-1]))
        return out

    damped_roundoff = finals(c["damping"], False, True)
    damped_init = finals(c["damping"], True, False)
    undamped_init = finals(1.0, True, False)
    med_dr = float(np.median(damped_roundoff))
    med_di = float(np.median(damped_init))
    med_ui = float(np.median(undamped_init))
    checks = [
        ("damped_roundoff_small_error", med_dr <= 5e-2, f"median {med_dr:.4g}"),
        ("undamped_init_much_worse", med_ui >= 10.0 * med_di,
         f"undamped {med_ui:.4g} vs damped {med_di:.4g}"),
    ]
    paths = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "robustness_medians.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("arm,median_final_err2\n")
            fh.write(f"damped_roundoff,{med_dr:.17g}\n")
            fh.write(f"damped_init,{med_di:.17g}\n")
            fh.write(f"undamped_init,{med_ui:.17g}\n")
        paths.append(path)
    summary = {"damped_roundoff": med_dr, "damped_init": med_di,
               "undamped_init": med_ui}
    return RunArtifacts("robustness", paths, summary, checks)


_REPRODUCERS = {
    "ex1_thm1": _reproduce_ex1_thm1,
    "ex1_thm2": _reproduce_ex1_thm2,
    "ex2": _reproduce_ex2,
    "ex3": _reproduce_ex3,
    "ex4_thm3": _reproduce_ex4_thm3,
    "ex4_thm4": _reproduce_ex4_thm4,
    "robustness": _reproduce_robustness,
}


def reproduce(example_id: str, out_dir=None, **options) -> RunArtifacts:
    """Re-run one published experiment and check its qualitative claims."""
    if example_id not in _REPRODUCERS:
        raise ValueError(f"unknown example id {example_id!r}; choose from "
                         f"{sorted(_REPRODUCERS)}")
    return _REPRODUCERS[example_id](out_dir, **options)
