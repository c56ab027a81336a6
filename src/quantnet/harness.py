"""Experiment orchestration: configs, seeded generators, reproductions.

The config format is flat ``key = value`` text with dotted section prefixes
('#' comments allowed). Matrices are written inline as rows separated by
';'. ``_read_run`` turns a config into its run's inputs, and is the one
record of which keys a run reads: a missing key, or a key it would not
read, is an error. Everything is deterministic: a config plus its seeds
pins every byte of every output file. All randomness flows through
numpy's PCG64 bit generator (identifier recorded in trace headers).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .codec import NoiseModel
from .graph import (GRAPH_KINDS, Graph, build_laplacian, generate_graph,
                    load_graph)
from .planner import (GammaSchedule, alpha_star, kmin_from_m, m_value,
                      xi_membership)
from .problem import LinearProblem, build_stacked, load_problem, theta_n
from .solver import (BaselineConfig, ExactConfig, LSConfig, Trace,
                     run_baseline, run_exact, run_ls, run_robust,
                     traces_dynamics_equal)

__all__ = [
    "ExperimentConfig",
    "RunArtifacts",
    "CONSTANTS",
    "load_config",
    "parse_config",
    "serialize_config",
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


# built-in name -> CONSTANTS entry
_BUILTIN_PROBLEMS = {"ex1": "five_node_exact", "ex4": "five_node_ls"}
_BUILTIN_GRAPHS = {"fig1": "five_node_graph"}
_RANDOM_KINDS = ("exact", "ls")


def builtin_problem(name: str) -> LinearProblem:
    """Named built-in systems: ``ex1`` (exact) and ``ex4`` (least squares)."""
    if name not in _BUILTIN_PROBLEMS:
        raise ValueError(f"unknown built-in problem {name!r}")
    c = CONSTANTS[_BUILTIN_PROBLEMS[name]]
    return LinearProblem(H=np.array(c["H"]), z=np.array(c["z"]))


def builtin_graph(name: str = "fig1") -> Graph:
    if name not in _BUILTIN_GRAPHS:
        raise ValueError(f"unknown built-in graph {name!r}")
    c = CONSTANTS[_BUILTIN_GRAPHS[name]]
    return Graph(c["n"], c["edges"])


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

_RUNNERS = {"exact": run_exact, "ls": run_ls, "robust": run_robust,
            "baseline": run_baseline}
# key -> the names it may take, each selecting a runner or a builder
_NAMES = {"mode": _RUNNERS, "problem.builtin": _BUILTIN_PROBLEMS,
          "problem.random.kind": _RANDOM_KINDS,
          "graph.builtin": _BUILTIN_GRAPHS, "graph.kind": GRAPH_KINDS}


@dataclass
class ExperimentConfig:
    """Validated flat config; ``values`` maps schema keys to typed values.

    ``cfg[key]`` reads a key that the run needs (a missing one raises
    ``ValueError``) and ``cfg.get(key, default)`` one that it may take; both
    record the read, which the config reader compares with the keys given.
    ``key in cfg`` only tests presence.
    """

    values: dict = field(default_factory=dict)
    _read: set = field(default_factory=set, init=False, repr=False,
                       compare=False)

    def __getitem__(self, key):
        self._read.add(key)
        if key not in self.values:
            raise ValueError(f"missing required key '{key}'")
        return self.values[key]

    def get(self, key, default=None):
        self._read.add(key)
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
    _read_run(values)
    return ExperimentConfig(values)


_PROBLEM_SOURCES = ("problem.file", "problem.builtin", "problem.inline",
                    "problem.random.n")
_GRAPH_SOURCES = ("graph.file", "graph.builtin", "graph.kind")


class _Run(NamedTuple):
    """A config's run, read but not built."""

    mode: str
    problem: Callable[[], LinearProblem]
    graph: Callable[[], Graph]
    args: tuple             # what the mode's run function takes after (p, g)
    out: str | None


def _read_run(values: dict) -> _Run:
    """Read the run that a config's ``values`` describe.

    This is the one record of which keys a run reads: each key is read
    where the run uses it, through ``cfg[key]`` if the run needs it and
    ``cfg.get`` if it has a default, and a given key that nothing read
    would be ignored, so the config is refused. Nothing is built: the
    problem and graph come back as builders, so no file is opened, no
    number is drawn and no graph is generated.
    """
    cfg = ExperimentConfig(values)
    for key, names in _NAMES.items():
        if key in cfg and values[key] not in names:
            raise ValueError(f"{key}: must be one of {tuple(names)}")
    mode = cfg["mode"]
    for kind, sources in (("problem", _PROBLEM_SOURCES),
                          ("graph", _GRAPH_SOURCES)):
        if sum(k in cfg for k in sources) != 1:
            raise ValueError(f"exactly one {kind} source must be given "
                             f"({' | '.join(sources)})")
    if "problem.file" in cfg:
        problem = partial(load_problem, cfg["problem.file"])
    elif "problem.builtin" in cfg:
        problem = partial(builtin_problem, cfg["problem.builtin"])
    elif "problem.inline" in cfg:
        mat = np.array(cfg["problem.inline"])
        problem = partial(LinearProblem, H=mat[:, :-1], z=mat[:, -1])
    else:
        problem = partial(random_problem, cfg["problem.random.n"],
                          cfg["problem.random.m"],
                          cfg.get("problem.random.kind", "exact"),
                          cfg.get("problem.random.seed", 0))
    if "graph.file" in cfg:
        graph = partial(load_graph, cfg["graph.file"])
    elif "graph.builtin" in cfg:
        graph = partial(builtin_graph, cfg["graph.builtin"])
    elif cfg["graph.kind"] == "erdos_renyi":
        graph = partial(generate_graph, "erdos_renyi", cfg["graph.n"],
                        cfg.get("graph.p", 0.5), cfg.get("graph.seed", 0))
    else:
        graph = partial(generate_graph, cfg["graph.kind"], cfg["graph.n"])
    seed = cfg.get("seed", 0)
    x0 = cfg.get("solver.x0")
    cx = cfg.get("solver.cx") if x0 is None else None   # solver.x0 sets x(0)
    common = dict(x0=None if x0 is None else np.array(x0), cx=cx, seed=seed)
    # unset, the mode's own default applies
    common.update((k, cfg[k]) for k in ("max_rounds", "stop_tol") if k in cfg)
    if mode == "baseline":
        gamma = (GammaSchedule(cfg["gamma.k0"], cfg["gamma.delta"])
                 if "gamma.k0" in cfg or "gamma.delta" in cfg else None)
        args = (BaselineConfig(h=cfg["solver.h"], gamma=gamma, **common),)
    else:
        common.update(K=cfg["solver.K"],
                      strict_saturation=cfg.get("strict_saturation", False))
        if mode == "ls":
            args = (LSConfig(h=cfg["solver.h"], s_r=cfg["solver.s_r"],
                             gamma=GammaSchedule(cfg["gamma.k0"],
                                                 cfg["gamma.delta"]),
                             **common),)
        else:
            args = (ExactConfig(h=cfg["solver.h"], alpha=cfg["solver.alpha"],
                                s0=cfg["solver.s0"], **common),)
        if mode == "robust":
            init = cfg.get("noise.init_enabled", False)
            roundoff = cfg.get("noise.roundoff_enabled", False)
            args += (NoiseModel(
                damping=cfg.get("noise.damping", 1.0),
                init_error_range=((cfg.get("noise.init_lo", 0.0),
                                   cfg.get("noise.init_hi", 0.0)) if init
                                  else (0.0, 0.0)),
                roundoff_amp=cfg.get("noise.roundoff", 0.0) if roundoff
                else 0.0,
                seed=cfg.get("noise.seed", seed) if init or roundoff else seed,
                init_errors_enabled=init, roundoff_enabled=roundoff),)
    out = cfg.get("out")
    ignored = [k for k in values if k not in cfg._read]
    if ignored:
        raise ValueError(f"key '{ignored[0]}' would be ignored: this "
                         f"config's {mode} run does not read it")
    return _Run(mode, problem, graph, args, out)


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


def run_config(cfg: ExperimentConfig) -> Trace:
    """Execute a config end to end and return its trace."""
    run = _read_run(cfg.values)
    return _RUNNERS[run.mode](run.problem(), run.graph(), *run.args)


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
    if kind not in _RANDOM_KINDS:
        raise ValueError(f"kind must be one of {_RANDOM_KINDS}")
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
    summary: dict
    checks: list  # (name, passed, detail)
    outputs: dict  # file name -> Trace or CSV text
    trace_paths: list = field(default_factory=list)  # filled by reproduce

    @property
    def ok(self) -> bool:
        return all(passed for (_, passed, _) in self.checks)


def _five_node_spectral():
    """The fig1 graph and the summary of the ex1 system on it."""
    g = builtin_graph()
    return g, build_stacked(builtin_problem("ex1"), build_laplacian(g))


def _write_output(out_dir, name: str, text: str) -> str:
    """Write ``text`` to ``out_dir/name``, creating ``out_dir`` if needed,
    and return the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _reproduce_ex1_thm1() -> RunArtifacts:
    c = CONSTANTS["ex1_thm1"]
    g, sp = _five_node_spectral()
    p = sp.problem
    h = c["h_numerator"] / (sp.fd_min + sp.fd_max)
    outputs = {}
    for K in c["K_list"]:
        cfg = ExactConfig(h=h, alpha=c["alpha"], s0=c["s0"], K=K,
                          max_rounds=c["max_rounds"])
        outputs[f"ex1_thm1_K{K}.csv"] = run_exact(p, g, cfg)
    traces = list(outputs.values())
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
    summary = {"h": h, "rho_h": 1.0 - h * sp.fd_min,
               "kmin": kmin_from_m(m_value(c["alpha"], h, sp)),
               **t0.summary()}
    return RunArtifacts("ex1_thm1", summary, checks, outputs)


def _reproduce_ex1_thm2() -> RunArtifacts:
    c = CONSTANTS["ex1_thm2"]
    g, sp = _five_node_spectral()
    p = sp.problem
    checks, outputs = [], {}
    finals = []
    for (K, alpha, h, s0) in c["rows"]:
        member = xi_membership(alpha, h, K, sp)
        checks.append((f"membership_K{K}", member, f"(alpha={alpha}, h={h})"))
        cfg = ExactConfig(h=h, alpha=alpha, s0=s0, K=K,
                          max_rounds=c["max_rounds"])
        tr = outputs[f"ex1_thm2_K{K}.csv"] = run_exact(p, g, cfg)
        finals.append(float(tr.err2[-1]))
        converged = tr.err2[-1] < 1e-2 * tr.err2[0]
        checks.append((f"converging_K{K}", bool(converged),
                       f"err2 {tr.err2[0]:.3g} -> {tr.err2[-1]:.3g}"))
        checks.append((f"no_saturation_K{K}",
                       int(tr.saturation_count[-1]) == 0,
                       f"events {int(tr.saturation_count[-1])}"))
    ordered = finals[0] >= finals[1] >= finals[2]
    checks.append(("larger_alphabet_faster", bool(ordered), str(finals)))
    return RunArtifacts("ex1_thm2", {"finals": finals}, checks, outputs)


def _ex2_setting():
    """The summary of the ex2 system on its graph."""
    c = CONSTANTS["ex2"]
    p = random_problem(c["n"], c["m"], "exact", c["seed"])
    g = generate_graph(c["graph"], c["n"])
    return build_stacked(p, build_laplacian(g))


def _reproduce_ex2() -> RunArtifacts:
    sp = _ex2_setting()
    theta = theta_n(sp, sp.lap, sp.m, sp.n)
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
    text = "K,K_theta,alpha_star,exp_neg_K_theta\n" + "".join(
        f"{K},{t:.17g},{a:.17g},{e:.17g}\n" for (K, t, a, e) in rows)
    return RunArtifacts("ex2", {"theta": theta, "rows": rows}, checks,
                        {"ex2_alpha_star.csv": text})


def _reproduce_ex3(graphs_per_p: int | None = None) -> RunArtifacts:
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
    text = "p,mean_theta\n" + "".join(
        f"{p:.17g},{mt:.17g}\n" for p, mt in zip(c["p_values"], means))
    return RunArtifacts("ex3", {"named": named, "means": means}, checks,
                        {"ex3_theta_sweep.csv": text})


def _reproduce_ex4_thm3() -> RunArtifacts:
    c = CONSTANTS["ex4_thm3"]
    p = builtin_problem("ex4")
    g = builtin_graph()
    sched = GammaSchedule(k0=c["k0"], delta=c["delta"])
    outputs = {}
    for K in c["K_list"]:
        cfg = LSConfig(h=c["h"], K=K, s_r=c["s_r"], gamma=sched,
                       max_rounds=c["max_rounds"])
        outputs[f"ex4_thm3_K{K}.csv"] = run_ls(p, g, cfg)
    traces = list(outputs.values())
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
    return RunArtifacts("ex4_thm3", tref.summary(), checks, outputs)


def _reproduce_ex4_thm4() -> RunArtifacts:
    c = CONSTANTS["ex4_thm4"]
    p = builtin_problem("ex4")
    g = builtin_graph()
    checks, outputs = [], {}
    reach = []
    finals = []
    threshold = 0.5
    for (K, k0, delta, h, s_r) in c["rows"]:
        cfg = LSConfig(h=h, K=K, s_r=s_r,
                       gamma=GammaSchedule(k0=k0, delta=delta),
                       max_rounds=c["max_rounds"])
        tr = outputs[f"ex4_thm4_K{K}.csv"] = run_ls(p, g, cfg)
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
    return RunArtifacts("ex4_thm4",
                        {"rounds_to_threshold": reach, "finals": finals},
                        checks, outputs)


def _reproduce_robustness() -> RunArtifacts:
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
        ("damped_roundoff_small_error", med_dr <= 1e-2, f"median {med_dr:.4g}"),
        ("undamped_init_much_worse", med_ui >= 10.0 * med_di,
         f"undamped {med_ui:.4g} vs damped {med_di:.4g}"),
    ]
    text = (f"arm,median_final_err2\ndamped_roundoff,{med_dr:.17g}\n"
            f"damped_init,{med_di:.17g}\nundamped_init,{med_ui:.17g}\n")
    summary = {"damped_roundoff": med_dr, "damped_init": med_di,
               "undamped_init": med_ui}
    return RunArtifacts("robustness", summary, checks,
                        {"robustness_medians.csv": text})


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
    arts = _REPRODUCERS[example_id](**options)
    if out_dir is not None:
        arts.trace_paths = [
            _write_output(out_dir, name,
                          out if isinstance(out, str) else out.csv_text())
            for name, out in arts.outputs.items()]
    return arts
