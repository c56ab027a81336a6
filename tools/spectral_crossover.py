"""Time Lanczos against the dense eigensolve for the stacked operator.

Prints one row per (m, mN) with Lanczos / dense seconds for each graph
family, and the worst disagreement between the two, relative to fd_max.
``problem.DENSE_MAX_DIM`` is set from this table: above it Lanczos should
win. A second table times Lanczos alone on cycles with m = 3 at N = 10^3
and 10^4, with its steps to the certificate; it builds their Laplacian
summaries without the dense L, which the matrix-free product of a cycle
never reads. Run from the repository root:

    python tools/spectral_crossover.py

BLAS is pinned to one thread. Each time is the best of two calls. The dense
time includes assembling Fd, since that is what the dense path pays.
"""

from __future__ import annotations

import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quantnet import graph, problem  # noqa: E402
from quantnet.graph import (LaplacianSummary, build_laplacian,  # noqa: E402
                            generate_graph, lanczos_extremes,
                            sym_eig_extremes)
from quantnet.harness import random_problem  # noqa: E402

FAMILIES = (("cycle", None), ("star", None), ("complete", None),
            ("erdos_renyi", 0.1), ("erdos_renyi", 0.5))
M_VALUES = (1, 3, 10)
DIMS = (300, 600, 750, 800, 900, 1200, 1500)   # mN = m * (dim // m)
LADDER_N = (1000, 10_000)                      # cycles, m = 3
REPEATS = 2


def best_of(fn):
    times, out = [], None
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return min(times), out


def lanczos(p, lap):
    dim = p.n_nodes * p.dim
    return lanczos_extremes(problem._stacked_product(p, lap), dim,
                            max_iter=min(dim // 2, problem.LANCZOS_MAX_ITER))


def ladder() -> None:
    print("\n| N | mN | steps | seconds |\n|---|---|---|---|")
    for n in LADDER_N:
        p = random_problem(n, 3, "exact", seed=2)
        lap = LaplacianSummary(L=None, lambda2=float("nan"),
                               lambdaN=float("nan"),
                               graph=generate_graph("cycle", n))
        dim = 3 * n
        t, (ext, basis) = best_of(lambda: graph._lanczos(
            problem._stacked_product(p, lap), dim,
            min(dim // 2, problem.LANCZOS_MAX_ITER)))
        steps = len(basis) if ext is not None else f"{len(basis)}+"
        print(f"| {n} | {dim} | {steps} | {t:.3f} |", flush=True)
    print("\nLanczos alone on cycles with m = 3; + where it gave no "
          "certificate.")


def main() -> None:
    names = [k if pv is None else f"ER {pv}" for (k, pv) in FAMILIES]
    print("| m | mN | " + " | ".join(names) + " |")
    print("|---" * (len(names) + 2) + "|")
    worst = 0.0
    for m in M_VALUES:
        for dim in DIMS:
            n = dim // m
            p = random_problem(n, m, "exact", seed=2)
            cells = []
            for (kind, pv) in FAMILIES:
                g = generate_graph(kind, n, pv if pv is not None else 0.5,
                                   seed=2)
                lap = build_laplacian(g)
                t_lz, ext = best_of(lambda: lanczos(p, lap))
                t_dn, ref = best_of(lambda: sym_eig_extremes(
                    problem._dense_lm(lap, m) + problem._dense_hd(p)))
                if ext is None:     # stacked_extremes then pays both
                    cells.append(f"**{t_lz:.3f}+ / {t_dn:.3f}**")
                    continue
                worst = max(worst, max(abs(ext[0] - ref[0]),
                                       abs(ext[1] - ref[1])) / ref[1])
                mark = "**" if t_lz > t_dn else ""
                cells.append(f"{mark}{t_lz:.3f} / {t_dn:.3f}{mark}")
            print(f"| {m} | {m * n} | " + " | ".join(cells) + " |", flush=True)
    print(f"\nseconds, Lanczos / dense; bold where Lanczos is slower, "
          f"+ where it gave no certificate within min(mN/2, "
          f"{problem.LANCZOS_MAX_ITER}) steps. Worst disagreement: "
          f"{worst:.2g} of fd_max.")
    ladder()


if __name__ == "__main__":
    main()
