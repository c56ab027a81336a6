"""How few quantization levels are enough?

Uses the feasibility calculus to plan (gain, scale-decay) pairs for very
small alphabets on the five-node benchmark, then runs the solver at K = 3
(a 7-level quantizer) to show it still converges exactly — just slower,
since feasibility forces the scale decay alpha close to 1.
"""

from quantnet import (ExactConfig, QuantizerSpec, build_laplacian,
                      build_stacked, builtin_graph, builtin_problem,
                      plan_exact, run_exact, xi_membership)

p = builtin_problem("ex1")
g = builtin_graph()
sp = build_stacked(p, build_laplacian(g))

print("published small-alphabet pairs and their feasibility:")
for K, alpha, h in ((3, 0.9998, 0.0038), (6, 0.9996, 0.0077),
                    (12, 0.9992, 0.0154)):
    ok = xi_membership(alpha, h, K, sp)
    print(f"  K={K:<3d} alpha={alpha}  h={h}  feasible={ok}")

print("\nplanned pair for K = 3 (eps = 0.5, half the gain cap):")
plan = plan_exact(3, 0.5, sp, cx=0.0, cw=3.0)
print(f"  h = {plan.h:.6f}  alpha = {plan.alpha:.6f}  "
      f"M = {plan.M:.3f}  s0_min = {plan.s0_min:.4f}")

cfg = ExactConfig(h=plan.h, alpha=plan.alpha, s0=max(plan.s0_min, 1.0), K=3,
                  max_rounds=60000)
tr = run_exact(p, g, cfg)
print(f"\nK = 3 run: rounds={tr.rounds}  final err2={tr.err2[-1]:.3e}  "
      f"saturation={int(tr.saturation_count[-1])}")
print(f"every symbol fits in {QuantizerSpec(cfg.K).bits_per_coord} bits; "
      "total bits per node = "
      f"{int(tr.bits_cum[-1]) // p.n_nodes}")
