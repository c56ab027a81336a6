"""Network scalability: the best decay factor per quantization level.

For a 100-node problem the constant theta_n predicts how much convergence
exponent each extra quantization level buys. This demo computes theta_n on
cycle, star, and complete graphs, then sweeps the smallest feasible scale
decay alpha*_K against the exponential estimate exp(-K * theta_n).
"""

import math

from quantnet import (alpha_star, build_laplacian, build_stacked,
                      generate_graph, random_problem, theta_n)
from quantnet.problem import LinearProblem

n, m = 100, 5
base = random_problem(n, m, "exact", seed=7)
p = LinearProblem(H=0.2 * base.H, z=0.2 * base.z)  # network-dominated regime

print("theta_n by graph family (larger = faster per level):")
for kind in ("cycle", "star", "complete"):
    g = generate_graph(kind, n)
    lap = build_laplacian(g)
    ops = build_stacked(p, lap)
    print(f"  {kind:<9s} theta_n = {theta_n(ops, lap, m, n):.4e}")

g = generate_graph("cycle", n)
lap = build_laplacian(g)
sp = build_stacked(p, lap)
theta = theta_n(sp, lap, m, n)

print(f"\ncycle graph sweep (theta_n = {theta:.4e}):")
print(f"  {'K':>8s} {'alpha*_K':>12s} {'exp(-K theta)':>14s} {'ratio':>8s}")
for t in (0.005, 0.01, 0.02, 0.05):
    K = max(1, int(round(t / theta)))
    a = alpha_star(K, sp)
    e = math.exp(-K * theta)
    print(f"  {K:>8d} {a:>12.8f} {e:>14.8f} {a / e:>8.4f}")
print("\nalpha*_K > 1 - K*theta_n always; the exponential estimate is tight"
      "\nonly while K*theta_n is small (the gain cap binds beyond that).")
