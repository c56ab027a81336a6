"""The benchmark's three seeded workloads and their correctness checks.

Each workload turns its seed into inputs once, then runs the same job list
again and again: one pass is one run of the whole list, set-up included.
Every call into the library goes through a ``Recorder`` span, so the
untraced runs get their set-up and solve times and the traced run gets its
per-layer times from the same code. All checks run outside the timed pass.

* ``fig1_long``: the five-node fig1 graph with the ex1/ex4 systems. Set-up
  takes milliseconds; per-round interpreter work in ``solver``, the robust
  codec's per-edge noise path and CSV rendering dominate.
* ``cycle1k``: a 1000-node cycle with a random m = 3 system, planned so it
  cannot saturate and solved at two alphabet sizes on the same inputs.
  Spectral set-up (repeated inside every solve) and the dense decoder
  tensor dominate; the two solves share their inputs.
* ``er_sweep``: distinct Erdős–Rényi graphs at the ex3 problem scale; each
  gets its Laplacian, stacked spectrum, ``theta_n`` and ``alpha_star`` at
  two alphabet sizes. Nothing repeats and the solver is never called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

import quantnet as qn
from quantnet import cli as qcli
from quantnet import oracle as qo
from quantnet.problem import save_problem

from tracer import Recorder

# calls that make up a workload's set-up, as the spans name them
SETUP_CALLS = ("harness.builtin_problem", "harness.random_problem",
               "graph.generate", "graph.laplacian", "problem.stacked",
               "problem.classify", "planner.spectral_data", "planner.plan")

EXACT_TOL = 1e-9   # solver against oracle, exact mode (ROADMAP invariant)
LS_TOL = 1e-8      # the same in least-squares mode


@dataclass
class Solve:
    """One solver job: its inputs, and the config keys naming them."""

    name: str
    mode: str                  # exact | ls | robust
    problem: qn.LinearProblem
    graph: qn.Graph
    cfg: object                # ExactConfig | LSConfig
    lap: qn.LaplacianSummary   # from the workload's set-up, for the oracle
    ops: qn.StackedOperators
    source: dict               # problem/graph keys of a config file
    noise: qn.NoiseModel | None = None
    group: str | None = None   # jobs whose dynamics must be identical


@dataclass
class PassOutput:
    solves: list = field(default_factory=list)   # (Solve, Trace | str, csv)
    graphs: list = field(default_factory=list)   # every Graph built
    sweep: list = field(default_factory=list)    # (label, theta, alphas | str)
    stacked_dim: int = 0
    alpha_star_calls: int = 0
    work: int = 0              # solver rounds, or graphs evaluated


def _seeds(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _spectral(rec: Recorder, p, g):
    lap = rec.call("graph.laplacian", qn.build_laplacian, g)
    ops = rec.call("problem.stacked", qn.build_stacked, p, lap)
    sp = rec.call("planner.spectral_data", qn.spectral_data, ops, lap,
                  p.dim, p.n_nodes)
    return lap, ops, sp


def run_solve(rec: Recorder, job: Solve):
    """Run one job; returns (Trace, csv text) or (error text, '')."""
    with rec.span("job:" + job.name):
        try:
            if job.mode == "robust":
                tr = rec.call("solver.solve", qn.run_robust, job.problem,
                              job.graph, job.cfg, job.noise)
            else:
                fn = qn.run_exact if job.mode == "exact" else qn.run_ls
                tr = rec.call("solver.solve", fn, job.problem, job.graph,
                              job.cfg)
            return tr, rec.call("harness.csv", tr.csv_text)
        except Exception:  # one failed job is counted, the run goes on
            return traceback.format_exc(), ""


def _solve_all(rec: Recorder, out: PassOutput, jobs) -> None:
    for job in jobs:
        tr, text = run_solve(rec, job)
        out.solves.append((job, tr, text))
        if not isinstance(tr, str):
            out.work += tr.rounds
            if rec.keep:   # traced: time the solver's set-up next to the job
                inner_setup_probe(rec, job)


class Fig1Long:
    name = "fig1_long"
    WORK_SPAN = "solver.solve"   # the calls whose time work_per_s divides
    GAUGE = "dispatch"          # speed.py kernel; see fit_gauge.py
    CX = 0.5                    # initial states uniform in [-CX, CX]
    MIN_ALPHABET = (3, 6, 12)   # planned minimum-alphabet runs ...
    MIN_HORIZON = 10_000        # ... at this fixed horizon (CSV rows)
    LS_K, LS_ROUNDS = 900, 10_000
    ROBUST_ROUNDS = 10_000

    def __init__(self, seed: int):
        s = _seeds(seed, 8)
        self.x_seeds, self.noise_seeds = s[:6], s[6:]
        self.census_seed = seed

    def run_pass(self, rec: Recorder) -> PassOutput:
        out = PassOutput()
        C = qn.CONSTANTS
        with rec.span("setup"):
            p1 = rec.call("harness.builtin_problem", qn.builtin_problem, "ex1")
            p4 = rec.call("harness.builtin_problem", qn.builtin_problem, "ex4")
            g = rec.call("graph.generate", qn.builtin_graph, "fig1")
            lap, ops1, sp1 = _spectral(rec, p1, g)
            ops4 = rec.call("problem.stacked", qn.build_stacked, p4, lap)
            sp4 = rec.call("planner.spectral_data", qn.spectral_data, ops4,
                           lap, p4.dim, p4.n_nodes)
            cls1 = rec.call("problem.classify", qn.classify, p1)
            rec.call("problem.classify", qn.classify, p4)
            cw = float(np.abs(cls1.solution).max())
            plans = [rec.call("planner.plan", qn.plan_exact, K, 0.5, sp1,
                              cx=self.CX, cw=cw) for K in self.MIN_ALPHABET]
            ls_plan = rec.call("planner.plan", qn.plan_ls, self.LS_K, 0.5,
                               sp4, delta=C["ex4_thm3"]["delta"], cx=self.CX)
        out.graphs.append(g)
        out.stacked_dim = p1.dim * p1.n_nodes

        src1 = {"problem.builtin": "ex1", "graph.builtin": "fig1"}
        src4 = {"problem.builtin": "ex4", "graph.builtin": "fig1"}
        xs = iter(self.x_seeds)
        thm1_seed = next(xs)
        t1 = C["ex1_thm1"]
        h1 = t1["h_numerator"] / (ops1.fd_min + ops1.fd_max)
        jobs = [Solve(f"thm1_K{K}", "exact", p1, g,
                      qn.ExactConfig(h=h1, alpha=t1["alpha"], s0=t1["s0"], K=K,
                                     max_rounds=t1["max_rounds"], cx=self.CX,
                                     seed=thm1_seed),
                      lap, ops1, src1, group="thm1")
                for K in t1["K_list"]]
        for pl in plans:
            jobs.append(Solve(
                f"minalpha_K{pl.K}", "exact", p1, g,
                qn.ExactConfig(h=pl.h, alpha=pl.alpha, s0=pl.s0_min, K=pl.K,
                               max_rounds=self.MIN_HORIZON, stop_tol=0.0,
                               cx=self.CX, seed=next(xs)),
                lap, ops1, src1))
        jobs.append(Solve(
            f"ls_K{self.LS_K}", "ls", p4, g,
            qn.LSConfig(h=ls_plan.h, K=self.LS_K, s_r=ls_plan.sr_min,
                        gamma=ls_plan.gamma, max_rounds=self.LS_ROUNDS,
                        cx=self.CX, seed=next(xs)),
            lap, ops4, src4))
        r = C["robustness"]
        rcfg = qn.ExactConfig(h=r["h"], alpha=r["alpha"], s0=r["s0"], K=r["K"],
                              max_rounds=self.ROBUST_ROUNDS, cx=self.CX,
                              seed=next(xs))
        for init in (True, False):
            for ns in self.noise_seeds:
                noise = qn.NoiseModel(
                    damping=r["damping"],
                    init_error_range=(r["init_lo"], r["init_hi"]),
                    roundoff_amp=r["roundoff"], seed=ns,
                    init_errors_enabled=init, roundoff_enabled=True)
                jobs.append(Solve(
                    f"robust_{'init_' if init else ''}roundoff_{ns}",
                    "robust", p1, g, rcfg, lap, ops1, src1, noise=noise))
        _solve_all(rec, out, jobs)
        self._sp1 = sp1
        return out

    def census(self, rec: Recorder, out_dir) -> PassOutput:
        """Layers the job list never calls, timed once at this size."""
        out = PassOutput()
        rec.call("harness.random_problem", qn.random_problem, 5, 2, "exact",
                 self.census_seed)
        for K in self.MIN_ALPHABET:
            rec.call("planner.alpha_star", qn.alpha_star, K, self._sp1)
            out.alpha_star_calls += 1
        return out


class Cycle1k:
    name = "cycle1k"
    WORK_SPAN = "solver.solve"
    GAUGE = "blas"
    N, M = 1000, 3
    CX = 1.0
    PLAN_K = 100           # plan (h, alpha, s0) for this alphabet ...
    K_VALUES = (100, 300)  # ... and solve at these sizes, all >= Kmin
    ROUNDS = 20

    def __init__(self, seed: int):
        self.problem_seed, self.x_seed = _seeds(seed, 2)

    def run_pass(self, rec: Recorder) -> PassOutput:
        out = PassOutput()
        with rec.span("setup"):
            p = rec.call("harness.random_problem", qn.random_problem, self.N,
                         self.M, "exact", self.problem_seed)
            g = rec.call("graph.generate", qn.generate_graph, "cycle", self.N)
            lap, ops, sp = _spectral(rec, p, g)
            cls = rec.call("problem.classify", qn.classify, p)
            plan = rec.call("planner.plan", qn.plan_exact, self.PLAN_K, 0.5,
                            sp, cx=self.CX,
                            cw=float(np.abs(cls.solution).max()))
        if plan.Kmin > min(self.K_VALUES):
            raise RuntimeError(f"plan needs K >= {plan.Kmin}")
        out.graphs.append(g)
        out.stacked_dim = self.N * self.M
        src = {"problem.random.n": self.N, "problem.random.m": self.M,
               "problem.random.kind": "exact",
               "problem.random.seed": self.problem_seed,
               "graph.kind": "cycle", "graph.n": self.N}
        jobs = [Solve(f"exact_K{K}", "exact", p, g,
                      qn.ExactConfig(h=plan.h, alpha=plan.alpha,
                                     s0=plan.s0_min, K=K,
                                     max_rounds=self.ROUNDS, stop_tol=0.0,
                                     cx=self.CX, seed=self.x_seed),
                      lap, ops, src, group="cycle")
                for K in self.K_VALUES]
        _solve_all(rec, out, jobs)
        self._sp = sp
        return out

    def census(self, rec: Recorder, out_dir) -> PassOutput:
        out = PassOutput()
        rec.call("planner.alpha_star", qn.alpha_star, self.PLAN_K, self._sp)
        out.alpha_star_calls = 1
        return out


class ErSweep:
    name = "er_sweep"
    WORK_SPAN = "graph_eval"
    GAUGE = "blas"
    P_VALUES = tuple(round(0.1 + 0.1 * i, 2) for i in range(9))
    GRAPHS_PER_P = 2
    K_VALUES = (100, 1000)
    CENSUS_ROUNDS = 20

    def __init__(self, seed: int):
        c = qn.CONSTANTS["ex3"]
        self.n, self.m, self.scale = c["n"], c["m"], c["scale"]
        count = len(self.P_VALUES) * self.GRAPHS_PER_P
        s = _seeds(seed, count + 2)
        self.problem_seed, self.x_seed = s[0], s[1]
        ps = [p for p in self.P_VALUES for _ in range(self.GRAPHS_PER_P)]
        self.graphs = list(zip(ps, s[2:]))   # (p, graph seed)

    def _problem(self, rec: Recorder):
        base = rec.call("harness.random_problem", qn.random_problem, self.n,
                        self.m, "exact", self.problem_seed)
        return qn.LinearProblem(H=self.scale * base.H, z=self.scale * base.z)

    def run_pass(self, rec: Recorder) -> PassOutput:
        out = PassOutput(stacked_dim=self.n * self.m)
        with rec.span("setup"):
            p = self._problem(rec)
            rec.call("problem.classify", qn.classify, p)
        for (pv, gs) in self.graphs:
            label = f"er_p{pv}_seed{gs}"
            with rec.span("graph_eval"):
                try:
                    g = rec.call("graph.generate", qn.generate_graph,
                                 "erdos_renyi", self.n, pv, gs)
                    out.graphs.append(g)
                    lap, ops, sp = _spectral(rec, p, g)
                    theta = rec.call("problem.theta", qn.theta_n, ops, lap,
                                     self.m, self.n)
                    alphas = [(K, rec.call("planner.alpha_star",
                                           qn.alpha_star, K, sp))
                              for K in self.K_VALUES]
                    out.alpha_star_calls += len(alphas)
                    out.sweep.append((label, theta, alphas))
                except Exception:  # counted as a failed graph evaluation
                    out.sweep.append((label, None, traceback.format_exc()))
        out.work = len(out.sweep)
        return out

    def census(self, rec: Recorder, out_dir) -> PassOutput:
        """The solver stack, which the sweep never calls, on its first graph."""
        out = PassOutput(stacked_dim=self.n * self.m)
        pv, gs = self.graphs[0]
        p = self._problem(rec)
        g = rec.call("graph.generate", qn.generate_graph, "erdos_renyi",
                     self.n, pv, gs)
        lap, ops, sp = _spectral(rec, p, g)
        cls = rec.call("problem.classify", qn.classify, p)
        K = self.K_VALUES[0]
        plan = rec.call("planner.plan", qn.plan_exact, K, 0.5, sp, cx=1.0,
                        cw=float(np.abs(cls.solution).max()))
        path = out_dir / f"er_sweep-problem-{self.problem_seed}.txt"
        save_problem(p, path)
        job = Solve(f"census_K{K}", "exact", p, g,
                    qn.ExactConfig(h=plan.h, alpha=plan.alpha, s0=plan.s0_min,
                                   K=K, max_rounds=self.CENSUS_ROUNDS,
                                   stop_tol=0.0, cx=1.0, seed=self.x_seed),
                    lap, ops, {"problem.file": str(path),
                               "graph.kind": "erdos_renyi", "graph.n": self.n,
                               "graph.p": pv, "graph.seed": gs})
        out.graphs.append(g)
        _solve_all(rec, out, [job])
        return out


WORKLOADS = {w.name: w for w in (Fig1Long, Cycle1k, ErSweep)}


# ---------------------------------------------------------------------------
# counts and checks
# ---------------------------------------------------------------------------

def counts(out: PassOutput) -> dict:
    """Exact counts of one pass, for the layers the pass reached."""
    c = {}
    if out.graphs:
        c["graph.edges"] = sum(len(g.edges) for g in out.graphs)
        c["graph.er_attempts"] = (sum(g.retries + 1 for g in out.graphs)
                                  / len(out.graphs))
    if out.stacked_dim:
        c["problem.stacked_dim"] = out.stacked_dim
        c["problem.stacked_bytes"] = 2 * out.stacked_dim ** 2 * 8
    if out.alpha_star_calls:
        c["planner.alpha_star_calls"] = out.alpha_star_calls
    traces = [(job, tr, text) for (job, tr, text) in out.solves
              if not isinstance(tr, str)]
    if traces:
        bits = sum(int(tr.bits_cum[-1]) for (_, tr, _) in traces)
        c.update({
            "solver.rounds": sum(tr.rounds for (_, tr, _) in traces),
            "codec.symbols": sum(
                int(tr.bits_cum[-1])
                // qn.QuantizerSpec(job.cfg.K).bits_per_coord
                for (job, tr, _) in traces),
            "codec.nonzero_frac": sum(int(tr.bits_cum_nonzero[-1])
                                      for (_, tr, _) in traces) / bits,
            "codec.saturations": sum(int(tr.saturation_count[-1])
                                     for (_, tr, _) in traces),
            "codec.min_headroom": min(
                job.cfg.K + 0.5 - float(np.nanmax(tr.max_quant_input))
                for (job, tr, _) in traces),
            "harness.csv_bytes": sum(len(text.encode())
                                     for (_, _, text) in traces),
        })
    return c


def initial_state(job: Solve) -> np.ndarray:
    """x(0) as the solver draws it: uniform in [-cx, cx] from cfg.seed."""
    n, m = job.problem.n_nodes, job.problem.dim
    rng = np.random.default_rng(job.cfg.seed)
    return rng.uniform(-job.cfg.cx, job.cfg.cx, size=(n, m))


class Checker:
    """Gates every operation's output; runs outside the timed passes.

    Inputs are the same on every pass, so the oracle's final state and the
    robust jobs' re-run CSV are computed once per job and compared against
    each pass's output.
    """

    def __init__(self):
        self.rec = Recorder(keep=True)   # oracle.verify spans
        self.oracle_final = {}
        self.csv_digest = {}
        self.max_rel_dev = 0.0
        self.attempted = 0
        self.failures = []               # (operation, detail)

    def _fail(self, op: str, detail: str) -> None:
        self.failures.append((op, detail))

    def _oracle(self, job: Solve, rounds: int) -> np.ndarray:
        key = (job.name, rounds)
        if key not in self.oracle_final:
            with self.rec.span("oracle.verify"):
                self.oracle_final[key] = _oracle_final(job, rounds)
        return self.oracle_final[key]

    def check_pass(self, out: PassOutput) -> None:
        groups = {}
        for (job, tr, text) in out.solves:
            self.attempted += 1
            if isinstance(tr, str):
                self._fail(job.name, tr)
                continue
            problem = self._solve_problem(job, tr, text)
            if problem:
                self._fail(job.name, problem)
            elif job.group:
                groups.setdefault(job.group, []).append((job, tr))
        for members in groups.values():
            first = members[0][1]
            for (job, tr) in members[1:]:
                if not qn.traces_dynamics_equal(first, tr):
                    self._fail(job.name, "dynamics differ across K")
        for (label, theta, alphas) in out.sweep:
            self.attempted += 1
            if theta is None:
                self._fail(label, alphas)
            elif not theta > 0:
                self._fail(label, f"theta_n = {theta}")
            else:
                bad = [(K, a) for (K, a) in alphas
                       if not 1.0 - K * theta < a < 1.0]
                if bad:
                    self._fail(label, f"alpha_star (K, value) {bad} outside "
                                      f"(1 - K theta_n, 1), theta_n={theta}")

    def _solve_problem(self, job: Solve, tr, text: str) -> str | None:
        if not (np.all(np.isfinite(tr.err2))
                and np.all(np.isfinite(tr.x_final))):
            return "non-finite state"
        x0 = initial_state(job)
        if tr.err2[0] != float(np.linalg.norm(x0 - tr.y_ref[None, :])):
            return "x(0) differs from the documented seeded draw"
        if job.group == "cycle" and int(tr.saturation_count[-1]) != 0:
            return f"{int(tr.saturation_count[-1])} saturations"
        if job.mode == "robust":
            digest = hashlib.sha256(text.encode()).hexdigest()
            if job.name not in self.csv_digest:
                again, again_text = run_solve(Recorder(keep=False), job)
                if isinstance(again, str):
                    return again
                self.csv_digest[job.name] = hashlib.sha256(
                    again_text.encode()).hexdigest()
            if digest != self.csv_digest[job.name]:
                return "CSV bytes differ between runs of the same seed"
            return None
        ref = self._oracle(job, tr.rounds)
        dev = float(np.max(np.abs(tr.x_final - ref) / (np.abs(ref) + 1.0)))
        self.max_rel_dev = max(self.max_rel_dev, dev)
        tol = EXACT_TOL if job.mode == "exact" else LS_TOL
        if not dev <= tol:
            return f"oracle deviation {dev:.3g} > {tol:g}"
        return None

    def check_cli(self, job: Solve, rc: int, text: str) -> None:
        self.attempted += 1
        if rc != 0:
            self._fail(f"cli oracle-check {job.name}", f"exit {rc}: {text}")


def _oracle_final(job: Solve, rounds: int) -> np.ndarray:
    """Final state of the matrix-form recursion from the job's x(0)."""
    cfg, p = job.cfg, job.problem
    x0 = initial_state(job).reshape(-1)
    y = qn.classify(p).solution
    if job.mode == "exact":
        eops = qo.make_exact_operators(job.ops, job.lap, cfg.h, y)
        st = qo.compact_exact_init(x0, cfg.s0, eops)
        for _ in range(rounds):
            st = qo.compact_exact_step(st, cfg.alpha, cfg.h, cfg.K, eops)
        x = st.reconstruct_x(cfg.s0 * cfg.alpha ** rounds, eops)
    else:
        lops = qo.make_ls_operators(job.ops, job.lap, p.dim)
        st = qo.compact_ls_init(x0, cfg.s_r, lops)
        for k in range(1, rounds + 1):
            st = qo.compact_ls_step(st, cfg.h, cfg.s_r,
                                    float(cfg.gamma.gamma(k - 1)),
                                    float(cfg.gamma.beta(k - 1)), cfg.K, lops)
        x = st.x
    return x.reshape(p.n_nodes, p.dim)


# ---------------------------------------------------------------------------
# traced-run probes
# ---------------------------------------------------------------------------

def inner_setup_probe(rec: Recorder, job: Solve) -> None:
    """The same run_* call with max_rounds = 1: the solver's own set-up."""
    cfg = replace(job.cfg, max_rounds=1)
    with rec.span("probe:" + job.name):
        if job.mode == "robust":
            rec.call("solver.inner_setup", qn.run_robust, job.problem,
                     job.graph, cfg, job.noise)
        else:
            fn = qn.run_exact if job.mode == "exact" else qn.run_ls
            rec.call("solver.inner_setup", fn, job.problem, job.graph, cfg)


def cli_oracle_check(rec: Recorder, job: Solve, rounds: int, out_dir):
    """``quantnet oracle-check`` on a config equivalent to the job."""
    cfg = job.cfg
    lines = ["mode = exact"]
    lines += [f"{k} = {v}" for k, v in job.source.items()]
    lines += [f"solver.h = {cfg.h!r}", f"solver.alpha = {cfg.alpha!r}",
              f"solver.s0 = {cfg.s0!r}", f"solver.K = {cfg.K}",
              f"max_rounds = {rounds}", f"seed = {cfg.seed}"]
    path = out_dir / f"oracle-check-{job.name}.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = rec.call("cli.oracle_check", qcli.main,
                      ["oracle-check", str(path)])
    return rc, buf.getvalue()
