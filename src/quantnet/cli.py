"""Command-line interface.

Subcommands: plan, solve, oracle-check, reproduce, sweep.
Exit codes: 0 success, 1 check/acceptance failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .graph import (GRAPH_KINDS, Graph, build_laplacian, generate_graph,
                    load_graph)
from .harness import (_BUILTIN_GRAPHS, _BUILTIN_PROBLEMS, _REPRODUCERS,
                      _read_run, _write_output, builtin_graph, builtin_problem,
                      load_config, random_problem, reproduce, run_config)
from .oracle import (compact_exact_init, compact_exact_step, compact_ls_init,
                     compact_ls_step, make_exact_operators, make_ls_operators)
from .planner import alpha_star, plan_exact, plan_ls
from .problem import LinearProblem, build_stacked, load_problem, theta_n
from .solver import LSConfig, _setup, iter_rounds


def _load_named(spec: str, builtins, build, load, kinds=()):
    """The built-in ``spec``, else the file; errors name ``kinds`` too."""
    if spec in builtins:
        return build(spec)
    try:
        return load(spec)
    except FileNotFoundError:
        raise ValueError(f"{spec!r} is neither a file nor a known name "
                         f"({', '.join([*kinds, *builtins])})") from None


def _load_named_problem(spec: str) -> LinearProblem:
    return _load_named(spec, _BUILTIN_PROBLEMS, builtin_problem, load_problem)


def _load_named_graph(spec: str, kinds=(), n=0, p=0.5, seed=0) -> Graph:
    """A graph of one of ``kinds`` on ``n`` nodes, a built-in or a file."""
    if spec in kinds:
        return generate_graph(spec, n, p, seed)
    return _load_named(spec, _BUILTIN_GRAPHS, builtin_graph, load_graph, kinds)


def _cmd_plan(args) -> int:
    if args.kind == "exact":
        if args.delta is not None:
            raise ValueError("--delta applies to plan ls only")
        if (args.cx is None) != (args.cw is None):
            raise ValueError("--cx and --cw come as a pair: s0_min needs "
                             "both")
    elif args.cw is not None:
        raise ValueError("--cw applies to plan exact only")
    p = _load_named_problem(args.problem)
    sp = build_stacked(p, build_laplacian(_load_named_graph(args.graph)))
    if args.kind == "exact":
        plan = plan_exact(args.K, args.eps, sp, cx=args.cx, cw=args.cw,
                          pick_fraction=args.pick_fraction)
        report = {
            "kind": "exact", "K": args.K, "eps": plan.eps, "h": plan.h,
            "alpha": plan.alpha, "rho_h": plan.rho_h, "M": plan.M,
            "Kmin_raw": plan.Kmin_raw, "Kmin": plan.Kmin,
            "h_star": plan.h_star, "s0_min": plan.s0_min,
        }
        row = (plan.alpha, plan.M, plan.Kmin, plan.s0_min)
    else:
        delta = 0.85 if args.delta is None else args.delta
        plan = plan_ls(args.K, args.eps, sp, delta=delta,
                       cx=args.cx or 0.0, pick_fraction=args.pick_fraction)
        report = {
            "kind": "ls", "K": args.K, "eps": plan.eps, "h": plan.h,
            "beta0": plan.beta0, "rho_hat": plan.rho_hat, "M1": plan.M1,
            "M2": plan.M2, "Mprime": plan.Mprime,
            "Kmin_ls_raw": plan.Kmin_ls_raw, "Kmin_ls": plan.Kmin_ls,
            "k0": plan.gamma.k0, "delta": plan.gamma.delta,
            "sr_min": plan.sr_min, "h_star": plan.h_star_ls,
        }
        row = (plan.beta0, plan.Mprime, plan.Kmin_ls, plan.sr_min)
    report["membership"] = plan.member
    for key, val in report.items():
        print(f"{key} = {val}")
    if args.out:
        text = "kind,K,eps,h,alpha_or_beta0,M,Kmin,s_bound,membership\n"
        text += ",".join(str(v) for v in (args.kind, args.K, plan.eps,
                                          plan.h, *row, plan.member)) + "\n"
        print(f"# wrote {_write_output(args.out, 'plan.csv', text)}")
    return 0 if plan.member else 1


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    for flag, key, val in (("--seed", "seed", args.seed),
                           ("--max-rounds", "max_rounds", args.max_rounds),
                           ("--strict-saturation", "strict_saturation",
                            args.strict_saturation or None)):
        if val is not None:
            cfg.values[key] = val
            try:
                _read_run(cfg.values)
            except ValueError as exc:
                raise ValueError(f"{flag}: {exc}") from None
    trace = run_config(cfg)
    path = _write_output(args.out or _read_run(cfg.values).out or ".",
                         "trace.csv", trace.csv_text())
    for key, val in trace.summary().items():
        print(f"{key} = {val}")
    print(f"# wrote {path}")
    return 0


def _cmd_oracle_check(args) -> int:
    cfg = load_config(args.config)
    mode = _read_run(cfg.values).mode
    if mode not in ("exact", "ls"):
        print("oracle-check supports exact and ls modes only",
              file=sys.stderr)
        return 2
    if args.max_rounds is not None:
        cfg.values["max_rounds"] = args.max_rounds
    cfg.values.setdefault("max_rounds", 300 if mode == "exact" else 2000)
    run = _read_run(cfg.values)
    dev = _oracle_deviation(run.problem(), run.graph(), *run.args)
    print(f"max_relative_deviation = {dev:.6g}")
    tol = args.tol
    print(f"tolerance = {tol:.6g}")
    return 0 if dev <= tol else 1


def _oracle_deviation(p: LinearProblem, g: Graph, cfg) -> float:
    """Largest per-round relative deviation of the solver's own rounds from
    the matrix-form recursion, both started from the solver's x(0)."""
    ops, y_ref = _setup(p, g, cfg)
    ls = isinstance(cfg, LSConfig)
    if ls:
        lops = make_ls_operators(ops, ops.lap, p.dim)
    else:
        eops = make_exact_operators(ops, ops.lap, cfg.h, y_ref)
    dev = 0.0
    for st in iter_rounds(p, g, cfg):
        k, x = st.k, st.x.reshape(-1)
        if k == 0:
            ref_st = (compact_ls_init(x, cfg.s_r, lops) if ls
                      else compact_exact_init(x, cfg.s0, eops))
            continue
        if ls:
            ref_st = compact_ls_step(ref_st, cfg.h, cfg.s_r,
                                     float(cfg.gamma.gamma(k - 1)),
                                     float(cfg.gamma.beta(k - 1)), cfg.K,
                                     lops)
            ref = ref_st.x
        else:
            ref_st = compact_exact_step(ref_st, cfg.alpha, cfg.h, cfg.K, eops)
            ref = ref_st.reconstruct_x(cfg.s0 * cfg.alpha ** k, eops)
        dev = max(dev, float(np.max(np.abs(x - ref) / (np.abs(ref) + 1.0))))
    return dev


def _cmd_reproduce(args) -> int:
    arts = reproduce(args.example_id, out_dir=args.out)
    for name, passed, detail in arts.checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}"
              + (f" ({detail})" if detail else ""))
    for key, val in arts.summary.items():
        print(f"{key} = {val}")
    for path in arts.trace_paths:
        print(f"# wrote {path}")
    return 0 if arts.ok else 1


def _cmd_sweep(args) -> int:
    entries = [entry.strip() for entry in args.graph_kinds.split(",")]
    er = "erdos_renyi" in entries
    if args.p is not None and not er:
        raise ValueError("--p applies to erdos_renyi graphs only")
    if args.problem:
        # an erdos_renyi graph reads --seed, a random problem all three
        given = [f"--{k}" for k in (("n", "m") if er else ("n", "m", "seed"))
                 if getattr(args, k) is not None]
        if given:
            raise ValueError(f"{', '.join(given)}: only a random problem "
                             "reads them, and --problem was given")
        p = _load_named_problem(args.problem)
    else:
        p = random_problem(100 if args.n is None else args.n,
                           5 if args.m is None else args.m, "exact",
                           args.seed or 0)
    # every entry is resolved before any is computed, so a bad one fails
    # at once
    graphs = [_load_named_graph(entry, GRAPH_KINDS, p.n_nodes,
                                0.5 if args.p is None else args.p,
                                args.seed or 0) for entry in entries]
    lines = ["graph,K,theta_n,alpha_star"]
    for entry, g in zip(entries, graphs):
        sp = build_stacked(p, build_laplacian(g))
        theta = theta_n(sp, sp.lap, sp.m, sp.n)
        lines += [f"{entry},{K},{theta:.17g},{alpha_star(K, sp):.17g}"
                  for K in args.K]
    print("\n".join(lines))
    if args.out:
        _write_output(args.out, "sweep.csv", "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quantnet",
        description="Distributed linear-equation solving over quantized "
                    "finite-rate links: simulation and parameter calculus.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("plan", help="compute a feasible parameter plan")
    sp.add_argument("kind", choices=["exact", "ls"])
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--eps", type=float, default=0.5)
    sp.add_argument("--delta", type=float, default=None,
                    help="plan ls only (default 0.85)")
    sp.add_argument("--cx", type=float, help="bound on ||x(0)||_inf")
    sp.add_argument("--cw", type=float,
                    help="plan exact only: bound on ||x(0) - y*||_inf")
    sp.add_argument("--pick-fraction", type=float, default=0.5)
    sp.add_argument("--problem", required=True,
                    help="problem file, or built-in name ex1/ex4")
    sp.add_argument("--graph", default="fig1",
                    help="graph file, or built-in name fig1")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_plan)

    sp = sub.add_parser("solve", help="run a config file")
    sp.add_argument("config")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--strict-saturation", action="store_true")
    sp.add_argument("--max-rounds", type=int, default=None)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("oracle-check",
                        help="compare a run against the matrix-form oracle")
    sp.add_argument("config")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--max-rounds", type=int, default=None)
    sp.set_defaults(func=_cmd_oracle_check)

    sp = sub.add_parser("reproduce", help="re-run a published experiment")
    sp.add_argument("example_id", choices=list(_REPRODUCERS))
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_reproduce)

    sp = sub.add_parser("sweep", help="theta_n and alpha_star per graph and K")
    sp.add_argument("--graph-kinds", default="cycle,star,complete",
                    help="generated kinds, built-in graphs or graph files")
    sp.add_argument("--problem", help="file or ex1/ex4 (default: random)")
    sp.add_argument("--n", type=int, help="random problem only (default 100)")
    sp.add_argument("--m", type=int, help="random problem only (default 5)")
    sp.add_argument("--p", type=float, help="erdos_renyi only (default 0.5)")
    sp.add_argument("--K", type=int, nargs="+", required=True)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
