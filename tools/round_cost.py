"""Time the solver's round, in µs per round, on three fixed runs.

    python tools/round_cost.py [SRC]

``SRC`` is the directory that holds the ``quantnet`` package (default:
this checkout's ``src``), so two checkouts can be timed alternately with
the same script:

    python tools/round_cost.py ../parent/src
    python tools/round_cost.py

Each figure is the best of 7 runs of process time, divided by the rounds
of one run, with BLAS pinned to one thread. The runs:

* ``fig1_ideal``: the ex1 system on the fig1 graph at the ``robustness``
  constants, ideal codec, 10000 rounds;
* ``fig1_robust``: the same with damping, initialization errors and
  round-off at the ``robustness`` constants;
* ``cycle1000_exact``: a random m = 3 system on the 1000-node cycle,
  planned at K = 100 with cx = 1, 200 rounds;
* ``cycle1000_robust``: the same run with the ``robustness`` damping,
  initialization errors and round-off;
* ``cycle1000_ls``: the same system in least-squares mode, planned by
  ``plan_ls`` at K = 100 (delta 0.85) with s_r = ``sr_min``, 200 rounds;
* ``er100_ex3``: the ex3 system (m = 10) on ER(100, 0.3), planned at
  K = 100, 500 rounds; its quantizer input has N = 10 m rows, close to
  the shape rule of ``codec.max_last_axis`` (column by column from 8 m
  rows on);
* ``complete11_m10``: a random m = 10 system on the 11-node complete
  graph, planned at K = 100, 2000 rounds; N < 8 m, so its quantizer peaks
  reduce over the axis.

Every run has ``stop_tol = 0``, so it runs all its rounds. The script
holds each run's spectral summary, so a run repeats no spectral set-up and
its time is the kernel and the recorder. The set-up checks of ``run_*``
(``classify``, the membership test) are in the time, once per run.
"""

from __future__ import annotations

import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = (Path(sys.argv[1]) if len(sys.argv) > 1
       else Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, str(SRC.resolve()))

import numpy as np  # noqa: E402

from quantnet import (CONSTANTS, ExactConfig, LinearProblem,  # noqa: E402
                      LSConfig, NoiseModel, build_laplacian, build_stacked,
                      builtin_graph, builtin_problem, classify,
                      generate_graph, plan_exact, plan_ls, random_problem,
                      run_exact, run_ls, run_robust, spectral_data)

REPEATS = 7


def planned(p, g, K, rounds):
    """(summary, ExactConfig) of a run planned at K with cx = 1."""
    lap = build_laplacian(g)
    held = build_stacked(p, lap)
    plan = plan_exact(K, 0.5, spectral_data(held, lap, p.dim, p.n_nodes),
                      cx=1.0, cw=float(np.abs(classify(p).solution).max()))
    return held, ExactConfig(h=plan.h, alpha=plan.alpha, s0=plan.s0_min,
                             K=K, max_rounds=rounds, stop_tol=0.0, cx=1.0,
                             seed=2)


def cases():
    c = CONSTANTS["robustness"]
    p, g = builtin_problem("ex1"), builtin_graph()
    cfg = ExactConfig(h=c["h"], alpha=c["alpha"], s0=c["s0"], K=c["K"],
                      max_rounds=10000, stop_tol=0.0)
    noise = NoiseModel(damping=c["damping"],
                       init_error_range=(c["init_lo"], c["init_hi"]),
                       roundoff_amp=c["roundoff"], seed=1,
                       init_errors_enabled=True, roundoff_enabled=True)
    held = build_stacked(p, build_laplacian(g))
    yield "fig1_ideal", held, lambda: run_exact(p, g, cfg)
    yield "fig1_robust", held, lambda: run_robust(p, g, cfg, noise)

    n, m = 1000, 3
    p1k, g1k = random_problem(n, m, "exact", 1), generate_graph("cycle", n)
    held1k, cfg1k = planned(p1k, g1k, 100, 200)
    yield "cycle1000_exact", held1k, lambda: run_exact(p1k, g1k, cfg1k)
    yield ("cycle1000_robust", held1k,
           lambda: run_robust(p1k, g1k, cfg1k, noise))
    plan = plan_ls(100, 0.5, spectral_data(held1k, held1k.lap, m, n),
                   delta=0.85, cx=1.0)
    ls_cfg = LSConfig(h=plan.h, K=100, s_r=plan.sr_min, gamma=plan.gamma,
                      max_rounds=200, stop_tol=0.0, cx=1.0, seed=2)
    yield "cycle1000_ls", held1k, lambda: run_ls(p1k, g1k, ls_cfg)

    c = CONSTANTS["ex3"]
    base = random_problem(c["n"], c["m"], "exact", c["seed"])
    pex3 = LinearProblem(H=c["scale"] * base.H, z=c["scale"] * base.z)
    ger = generate_graph("erdos_renyi", c["n"], 0.3, seed=c["seed"])
    held_er, cfg_er = planned(pex3, ger, 100, 500)
    yield "er100_ex3", held_er, lambda: run_exact(pex3, ger, cfg_er)

    p11, g11 = random_problem(11, 10, "exact", 1), generate_graph("complete",
                                                                  11)
    held11, cfg11 = planned(p11, g11, 100, 2000)
    yield "complete11_m10", held11, lambda: run_exact(p11, g11, cfg11)


def main() -> int:
    print(f"# quantnet from {SRC.resolve()}, best of {REPEATS}, "
          "process time, BLAS on 1 thread")
    for name, _held, run in cases():
        run()                      # warm-up
        best, rounds = float("inf"), 0
        for _ in range(REPEATS):
            t0 = time.process_time()
            rounds = run().rounds
            best = min(best, time.process_time() - t0)
        print(f"{name:18s} {1e6 * best / rounds:9.2f} us/round "
              f"({rounds} rounds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
