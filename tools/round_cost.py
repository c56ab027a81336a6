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
  planned at K = 100 with cx = 1, 200 rounds.

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

from quantnet import (CONSTANTS, ExactConfig, NoiseModel,  # noqa: E402
                      build_laplacian, build_stacked, builtin_graph,
                      builtin_problem, classify, generate_graph, plan_exact,
                      random_problem, run_exact, run_robust, spectral_data)

REPEATS = 7


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
    p, g = random_problem(n, m, "exact", 1), generate_graph("cycle", n)
    lap = build_laplacian(g)
    held = build_stacked(p, lap)
    plan = plan_exact(100, 0.5, spectral_data(held, lap, m, n), cx=1.0,
                      cw=float(np.abs(classify(p).solution).max()))
    cfg = ExactConfig(h=plan.h, alpha=plan.alpha, s0=plan.s0_min, K=100,
                      max_rounds=200, stop_tol=0.0, cx=1.0, seed=2)
    yield "cycle1000_exact", held, lambda: run_exact(p, g, cfg)


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
