"""quantnet: distributed linear-equation solving over quantized links.

N networked agents cooperatively solve z = H y where node i only knows row
(h_i, z_i) and every message is quantized to a finite alphabet whose scale
zooms in over time. The package provides the codec, the synchronous solver
(exact and least-squares modes, plus a damped/noisy robustness variant),
the closed-form parameter calculus, independent matrix-form verification
oracles, and a reproducible experiment harness with a CLI.
"""

from .codec import NoiseModel, QuantizerSpec, quantize, quantize_vec
from .graph import (Graph, LaplacianSummary, build_laplacian, generate_graph,
                    sym_eig_extremes)
from .harness import (CONSTANTS, ExperimentConfig, RunArtifacts,
                      builtin_graph, builtin_problem, load_config,
                      parse_config, random_problem, reproduce, run_config,
                      serialize_config)
from .planner import (ExactPlan, GammaSchedule, LSPlan, alpha_star, bound_B,
                      h_hat_exact, h_hat_ls, kmin_from_m, m_prime, m_value,
                      plan_exact, plan_ls, s0_lower_bound, spectral_data,
                      sr_lower_bound, xi_ls_membership, xi_membership)
from .problem import (LinearProblem, ProblemClassification, StackedOperators,
                      build_stacked, classify, stacked_extremes, theta_n)
from .solver import (BaselineConfig, ExactConfig, LSConfig, SaturationError,
                     Trace, run_baseline, run_exact, run_ls, run_robust,
                     traces_dynamics_equal)

__version__ = "0.1.0"

__all__ = [
    "Graph", "LaplacianSummary", "build_laplacian", "generate_graph",
    "sym_eig_extremes",
    "LinearProblem", "ProblemClassification", "StackedOperators",
    "classify", "build_stacked", "stacked_extremes", "theta_n",
    "QuantizerSpec", "NoiseModel", "quantize", "quantize_vec",
    "ExactConfig", "LSConfig", "BaselineConfig", "Trace", "SaturationError",
    "run_exact", "run_ls", "run_robust", "run_baseline",
    "traces_dynamics_equal",
    "ExactPlan", "LSPlan", "GammaSchedule", "bound_B", "spectral_data",
    "kmin_from_m", "m_value", "s0_lower_bound", "xi_membership",
    "xi_ls_membership", "plan_exact", "plan_ls", "alpha_star", "m_prime",
    "sr_lower_bound", "h_hat_exact", "h_hat_ls",
    "ExperimentConfig", "RunArtifacts", "CONSTANTS", "load_config",
    "parse_config", "serialize_config", "random_problem", "reproduce",
    "run_config", "builtin_problem", "builtin_graph",
]
