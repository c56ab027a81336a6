"""Digest the outputs of 15 fixed solver runs, and three stacked spectra
above the dense size, to check that a change keeps every bit.

Each run's digest is sha256 over its ``csv_text()`` and the raw bytes of
``x_final``, ``err_inf_per_node`` and ``drift`` (when the run has one). The
combined digest is sha256 over the per-run digests in order. Run from the
repository root, once on each checkout to compare:

    python tools/bit_identity.py

Each run is done twice on the same (problem, graph) objects. The first run
builds its own spectral summary, as nothing holds one; the second runs
while the script holds ``build_stacked(p, build_laplacian(g))``, so the
solver reuses that summary. The printed digest is the first run's; the
script exits 1, naming the runs, if a second run's digest differs.

The runs, all at m*N <= 600 so the stacked spectra come from the dense
eigensolve:

* fig1 exact (ex1 system, the ex1_thm1 gain, cx = 0.5);
* fig1 least squares at the ex4_thm3 parameters (K = 900), with x(0) = 0
  and with cx = 0.5;
* the 8 fig1 robust runs: damping {0.95, 1.0} x initialization errors
  off/on x round-off off/on, at the robustness constants;
* exact and robust runs on ER(30, 0.3) and on the 200-node cycle, each
  with a random m = 3 system. The robust ones use damping 0.95,
  initialization errors and round-off, and the ER robust run uses an
  alphabet small enough to saturate.

A separate ``spectra`` digest is sha256 over the float64 bytes of
``stacked_extremes`` (fd_min, fd_max) for three systems above
``DENSE_MAX_DIM``, so they come from Lanczos on the matrix-free stacked
product:

* the ex3 system on ER(100, 0.1), whose product sums over the arcs;
* the ex3 system on ER(100, 0.5), whose product is the dense ``L @ V``;
* a random m = 3 system on the 1000-node cycle, over the arcs.

A separate ``planner`` digest is sha256 over the ``repr`` of planner
values on four (problem, graph) pairs: fig1 with the ex1 and the ex4
systems, the ex2 system on its cycle, and the ex3 system on ER(100, 0.3),
whose stacked spectrum comes from Lanczos. Per pair it covers the
summary's planner fields (``PLANNER_FIELDS``), ``plan_exact`` and
``plan_ls`` at K = 300, ``alpha_star`` at K in {10, 100, 1000},
``m_value`` at the exact plan's (alpha, h), and ``theta_n``. The summary
comes from ``spectral_data(build_stacked(p, lap), lap, m, N)``, a call
that checkouts with and without a separate planner summary type both
accept, so the digest compares across them.

A separate ``baseline`` digest is sha256 over the digests of four
unquantized baseline runs through ``run_config`` (``mode = baseline``):
the ex1 system on fig1 with a constant gain, with the ``gamma`` pair, and
with x(0) drawn from ``solver.cx``, and a random m = 3 system on ER(30,
0.3) with x(0) drawn from ``solver.cx``.

A separate ``graphs`` digest is sha256 over per-graph digests, each over
the ``format_graph`` text, the bytes of ``Graph.arcs`` and ``degrees()``,
``retries``, and the float64 bytes of ``build_laplacian``'s ``lambda2`` and
``lambdaN``. The graphs: cycle, star and complete at N in {2, 3, 5, 100,
1000}; two ER(100, p) graphs at each er_sweep p (0.1, ..., 0.9); ER(12,
0.15) seed 1 and ER(20, 0.1) seed 5, which the generator retries; fig1;
and a parsed text with reversed, repeated and commented lines.

A separate ``reproduce`` digest covers the files that ``reproduce(id,
out_dir=tmp)`` writes for ``ex1_thm1``, ``ex2``, ``ex4_thm3`` and
``ex4_thm4``. Per id it is sha256 over each file's name and bytes, the
files in name order; one line per id is printed, then sha256 over the
per-id digests. It checks each reproducer's outputs byte for byte, and the
one writer in ``reproduce`` that puts them on disk.

BLAS is pinned to one thread, so the dense eigensolves take one path.
"""

from __future__ import annotations

import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from quantnet.codec import NoiseModel  # noqa: E402
from quantnet.graph import (build_laplacian, format_graph,  # noqa: E402
                            generate_graph, parse_graph)
from quantnet.harness import (CONSTANTS, builtin_graph,  # noqa: E402
                              builtin_problem, parse_config, random_problem,
                              reproduce, run_config)
from quantnet.planner import (GammaSchedule, alpha_star,  # noqa: E402
                              m_value, plan_exact, plan_ls, spectral_data)
from quantnet.problem import (LinearProblem, build_stacked,  # noqa: E402
                              stacked_extremes, theta_n)
from quantnet.solver import (ExactConfig, LSConfig,  # noqa: E402
                             run_exact, run_ls, run_robust)


def digest(tr) -> str:
    h = hashlib.sha256(tr.csv_text().encode())
    h.update(np.ascontiguousarray(tr.x_final).tobytes())
    h.update(np.ascontiguousarray(tr.err_inf_per_node).tobytes())
    if tr.drift is not None:
        h.update(np.ascontiguousarray(tr.drift).tobytes())
    return h.hexdigest()


def fig1_runs():
    g = builtin_graph()
    ex1, ex4 = builtin_problem("ex1"), builtin_problem("ex4")
    fd_min, fd_max = stacked_extremes(ex1, build_laplacian(g))
    c = CONSTANTS["ex1_thm1"]
    cfg = ExactConfig(h=c["h_numerator"] / (fd_min + fd_max),
                      alpha=c["alpha"], s0=c["s0"], K=300,
                      max_rounds=c["max_rounds"], cx=0.5, seed=3)
    yield "fig1_exact", ex1, g, lambda cfg=cfg: run_exact(ex1, g, cfg)

    c = CONSTANTS["ex4_thm3"]
    sched = GammaSchedule(k0=c["k0"], delta=c["delta"])
    for name, cx in (("fig1_ls_x0", None), ("fig1_ls_cx", 0.5)):
        cfg = LSConfig(h=c["h"], K=900, s_r=c["s_r"], gamma=sched,
                       max_rounds=c["max_rounds"], cx=cx, seed=4)
        yield name, ex4, g, lambda cfg=cfg: run_ls(ex4, g, cfg)

    c = CONSTANTS["robustness"]
    cfg = ExactConfig(h=c["h"], alpha=c["alpha"], s0=c["s0"], K=c["K"],
                      max_rounds=10000)
    for damping in (c["damping"], 1.0):
        for init in (False, True):
            for roundoff in (False, True):
                noise = NoiseModel(damping=damping,
                                   init_error_range=(c["init_lo"],
                                                     c["init_hi"]),
                                   roundoff_amp=c["roundoff"], seed=7,
                                   init_errors_enabled=init,
                                   roundoff_enabled=roundoff)
                name = (f"fig1_robust_d{damping}_i{int(init)}"
                        f"_r{int(roundoff)}")
                yield name, ex1, g, lambda noise=noise: run_robust(
                    ex1, g, cfg, noise)


def network_runs():
    noise = NoiseModel(damping=0.95, init_error_range=(0.0, 0.5),
                       roundoff_amp=1e-4, seed=9, init_errors_enabled=True,
                       roundoff_enabled=True)
    for name, g, rounds, robust_K in (
            ("er30", generate_graph("erdos_renyi", 30, 0.3, seed=5), 2000, 2),
            ("cycle200", generate_graph("cycle", 200), 300, 100)):
        p = random_problem(g.node_count, 3, "exact", seed=6)
        fd_min, fd_max = stacked_extremes(p, build_laplacian(g))
        h = 1.9 / (fd_min + fd_max)
        alpha = 1.0 - 0.5 * h * fd_min
        cfg = ExactConfig(h=h, alpha=alpha, s0=1.0, K=100,
                          max_rounds=rounds, cx=1.0, seed=8)
        yield (f"{name}_exact", p, g,
               lambda p=p, g=g, cfg=cfg: run_exact(p, g, cfg))
        rcfg = ExactConfig(h=h, alpha=alpha, s0=1.0, K=robust_K,
                           max_rounds=rounds, cx=1.0, seed=8)
        yield (f"{name}_robust", p, g,
               lambda p=p, g=g, rcfg=rcfg: run_robust(p, g, rcfg, noise))


def baseline_runs():
    fig1 = "problem.builtin = ex1\ngraph.builtin = fig1\nsolver.h = 0.3\n"
    yield "fig1_baseline", fig1
    yield "fig1_baseline_gamma", fig1 + "gamma.k0 = 26\ngamma.delta = 0.85\n"
    yield "fig1_baseline_cx", fig1 + "solver.cx = 0.5\nseed = 3\n"
    g = generate_graph("erdos_renyi", 30, 0.3, seed=5)
    fd_min, fd_max = stacked_extremes(random_problem(30, 3, "exact", seed=6),
                                      build_laplacian(g))
    h = 1.9 / (fd_min + fd_max)
    yield "er30_baseline", (
        "problem.random.n = 30\nproblem.random.m = 3\n"
        "problem.random.seed = 6\ngraph.kind = erdos_renyi\ngraph.n = 30\n"
        f"graph.p = 0.3\ngraph.seed = 5\nsolver.h = {h!r}\n"
        "solver.cx = 1.0\nseed = 8\n")


def spectra_cases():
    c = CONSTANTS["ex3"]
    base = random_problem(c["n"], c["m"], "exact", c["seed"])
    ex3 = LinearProblem(H=c["scale"] * base.H, z=c["scale"] * base.z)
    for p in (0.1, 0.5):
        g = generate_graph("erdos_renyi", c["n"], p, seed=c["seed"])
        yield f"ex3_er100_p{p}", ex3, g
    yield ("cycle1000_m3", random_problem(1000, 3, "exact", seed=6),
           generate_graph("cycle", 1000))


PLANNER_FIELDS = ("fd_min", "fd_max", "lambda2", "lambdaN", "dstar", "m",
                  "n", "hd_inf_norm", "hd_2_norm", "zh_inf_norm",
                  "zh_2_norm", "kappa_n", "h_cap_exact", "h_cap_ls")
EXACT_PLAN_FIELDS = ("h", "alpha", "rho_h", "M", "Kmin_raw", "Kmin",
                     "s0_min", "eps", "h_star", "K", "member")
LS_PLAN_FIELDS = ("h", "beta0", "rho_hat", "M1", "M2", "Mprime",
                  "Kmin_ls_raw", "Kmin_ls", "sr_min", "eps", "h_star_ls",
                  "K", "member")


def graph_cases():
    for kind in ("cycle", "star", "complete"):
        for n in (2, 3, 5, 100, 1000):
            yield f"{kind}{n}", generate_graph(kind, n)
    for p in CONSTANTS["ex3"]["p_values"]:
        for seed in (11, 12):
            yield (f"er100_p{p}_s{seed}",
                   generate_graph("erdos_renyi", 100, p, seed=seed))
    for n, p, seed in ((12, 0.15, 1), (20, 0.1, 5)):
        yield f"er{n}_p{p}_s{seed}", generate_graph("erdos_renyi", n, p, seed)
    yield "fig1", builtin_graph()
    yield "parsed", parse_graph("# ring with a chord\nN 5\n2 1\n"
                                "1 2  # repeated, reversed\n3 2\n4 3\n"
                                "5 4\n5 1\n\n1 3 # chord\n3 1\n")


def graph_digest(g) -> str:
    lap = build_laplacian(g)
    h = hashlib.sha256(format_graph(g).encode())
    for a in (*g.arcs, g.degrees()):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr(g.retries).encode())
    h.update(np.array([lap.lambda2, lap.lambdaN]).tobytes())
    return h.hexdigest()


def planner_cases():
    g = builtin_graph()
    yield "fig1_ex1", builtin_problem("ex1"), g
    yield "fig1_ex4", builtin_problem("ex4"), g
    c = CONSTANTS["ex2"]
    yield ("ex2_cycle", random_problem(c["n"], c["m"], "exact", c["seed"]),
           generate_graph(c["graph"], c["n"]))
    c = CONSTANTS["ex3"]
    base = random_problem(c["n"], c["m"], "exact", c["seed"])
    yield ("ex3_er100_p0.3",
           LinearProblem(H=c["scale"] * base.H, z=c["scale"] * base.z),
           generate_graph("erdos_renyi", c["n"], 0.3, seed=c["seed"]))


def planner_values(p, g) -> list:
    """The planner values the ``planner`` digest covers, as reprs."""
    lap = build_laplacian(g)
    sp = spectral_data(build_stacked(p, lap), lap, p.dim, p.n_nodes)
    vals = [getattr(sp, f) for f in PLANNER_FIELDS]
    plan = plan_exact(300, 0.5, sp, cx=0.5, cw=1.0)
    vals += [getattr(plan, f) for f in EXACT_PLAN_FIELDS]
    ls = plan_ls(300, 0.5, sp, delta=0.85, cx=0.5)
    vals += [getattr(ls, f) for f in LS_PLAN_FIELDS]
    vals += [ls.gamma.k0, ls.gamma.delta]
    vals += [alpha_star(K, sp) for K in (10, 100, 1000)]
    vals += [m_value(plan.alpha, plan.h, sp),
             theta_n(sp, lap, p.dim, p.n_nodes)]
    return [repr(v) for v in vals]


REPRODUCE_IDS = ("ex1_thm1", "ex2", "ex4_thm3", "ex4_thm4")


def reproduce_digest(example_id: str) -> str:
    """sha256 over the name and bytes of each file the reproduction writes."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        reproduce(example_id, out_dir=tmp)
        for name in sorted(os.listdir(tmp)):
            h.update(name.encode())
            h.update(Path(tmp, name).read_bytes())
    return h.hexdigest()


def main() -> None:
    combined = hashlib.sha256()
    differ = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, p, g, run in (*fig1_runs(), *network_runs()):
            tr = run()
            d = digest(tr)
            combined.update(d.encode())
            print(f"{name:28s} rounds={tr.rounds:6d} "
                  f"sat={int(tr.saturation_count[-1]):6d} {d}")
            held = build_stacked(p, build_laplacian(g))  # the rerun reads it
            if digest(run()) != d:
                differ.append(name)
            del held
    print(f"{'combined':28s} {combined.hexdigest()}")
    spectra = hashlib.sha256()
    for name, p, g in spectra_cases():
        ext = stacked_extremes(p, build_laplacian(g))
        spectra.update(np.array(ext, dtype=float).tobytes())
        print(f"{name:28s} fd_min={ext[0]!r} fd_max={ext[1]!r}")
    print(f"{'spectra':28s} {spectra.hexdigest()}")
    planner = hashlib.sha256()
    for name, p, g in planner_cases():
        d = hashlib.sha256("\n".join(planner_values(p, g)).encode())
        planner.update(d.hexdigest().encode())
        print(f"{name:28s} {d.hexdigest()}")
    print(f"{'planner':28s} {planner.hexdigest()}")
    baseline = hashlib.sha256()
    for name, text in baseline_runs():
        tr = run_config(parse_config("mode = baseline\n" + text))
        d = digest(tr)
        baseline.update(d.encode())
        print(f"{name:28s} rounds={tr.rounds:6d} {d}")
    print(f"{'baseline':28s} {baseline.hexdigest()}")
    graphs = hashlib.sha256()
    for name, g in graph_cases():
        d = graph_digest(g)
        graphs.update(d.encode())
        print(f"{name:28s} retries={g.retries} {d}")
    print(f"{'graphs':28s} {graphs.hexdigest()}")
    repro = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for example_id in REPRODUCE_IDS:
            d = reproduce_digest(example_id)
            repro.update(d.encode())
            print(f"{example_id:28s} {d}")
    print(f"{'reproduce':28s} {repro.hexdigest()}")
    if differ:
        sys.exit("a run on a held summary differs from its first run: "
                 + ", ".join(differ))


if __name__ == "__main__":
    main()
