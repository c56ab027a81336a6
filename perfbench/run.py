#!/usr/bin/env python3
"""quantnet benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fig1_long --seed 0 --seconds 30 --trace 0

Runs the workload's job list pass after pass until the passes have taken
``--seconds`` (at least one pass), checks every pass's outputs outside the
timed passes, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The metric names and units are
those of ``BENCHMARK.json`` at the repository root: its ``end_to_end``
metrics with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.

End-to-end metrics are medians over the passes of a run:

* ``wall_s``: one pass of the whole job list, set-up included.
* ``setup_s``: the set-up calls of one pass (problem, graph, Laplacian,
  stacked spectrum, classify, spectral data, planning).
* ``work_per_s``: solver rounds per second spent inside ``run_*`` on
  ``fig1_long`` and ``cycle1k``; graphs evaluated per second on ``er_sweep``.
* ``peak_rss_mb``: peak resident memory after the first pass, before any
  check has run.

Times are in reference seconds: each step of a pass (the set-up, one job,
one graph) is divided by the host's speed factor, measured right before
and after it by the workload's reference kernel in ``speed.py``. On a
shared host one pass of the same inputs took from 1.9 s to 4.4 s within
five minutes, and CPU time drifts as much as wall time; the factor removes
most of that drift. The measured times are in the record next to them.

Failed operations (a solve, a graph evaluation, a CLI check) are the
``failed`` count of the result line, against ``attempted``.

With ``--trace 1`` every pass keeps its spans; the per-layer metrics are
median self times of the passes' spans, the exact counts of a pass, and the
tracing overhead of one pass: the extra cost of a kept span over an
untraced one, timed in a tight loop, times the spans of a pass. In a
traced pass each solve is followed by the same ``run_*`` call with
``max_rounds = 1``, the solver's inner set-up. Layers a workload's job list
never calls are timed once afterwards on a census call of the workload's
own size, as is ``quantnet oracle-check`` on the first exact job. Spans and a full record with the
environment go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# BLAS runs single-threaded, like the interpreter, so runs stay comparable
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_library():
    """Import quantnet from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import quantnet
    where = Path(quantnet.__file__).resolve().parent
    if where != (src / "quantnet").resolve():
        raise ImportError(f"quantnet imported from {where}, not from {src}")
    return quantnet


def environment(np) -> dict:
    def first_line(path, key):
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    mem = first_line("/proc/meminfo", "MemTotal")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": first_line("/proc/cpuinfo", "model name"),
        "ram_gb": (round(int(mem.split()[0]) / 2**20, 1)
                   if mem != "unknown" else mem),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "date": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up(qn) -> None:
    """Pay imports and first-call costs of every code path before timing."""
    import warnings
    C = qn.CONSTANTS
    p1, p4, g = qn.builtin_problem("ex1"), qn.builtin_problem("ex4"), \
        qn.builtin_graph()
    r = C["robustness"]
    cfg = qn.ExactConfig(h=r["h"], alpha=r["alpha"], s0=r["s0"], K=r["K"],
                         max_rounds=5, cx=0.5)
    noise = qn.NoiseModel(damping=r["damping"], init_error_range=(0.0, 0.5),
                          roundoff_amp=r["roundoff"], init_errors_enabled=True,
                          roundoff_enabled=True)
    t = C["ex4_thm3"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        qn.run_exact(p1, g, cfg).csv_text()
        qn.run_robust(p1, g, cfg, noise).csv_text()
        qn.run_ls(p4, g, qn.LSConfig(h=t["h"], K=300, s_r=t["s_r"],
                                     gamma=qn.GammaSchedule(t["k0"], t["delta"]),
                                     max_rounds=5)).csv_text()
        p = qn.random_problem(40, 3, "exact", 0)
        lap = qn.build_laplacian(qn.generate_graph("erdos_renyi", 40, 0.3, 0))
        sp = qn.spectral_data(qn.build_stacked(p, lap), lap, 3, 40)
        qn.alpha_star(100, sp)


def pass_metrics(steps, work: int, work_span: str, setup_calls,
                 factors) -> dict:
    """wall_s, setup_s and work_per_s of one pass, each step's time divided
    by its speed factor."""
    def seconds(names):
        return sum(sum(calls.get(n, 0.0) for n in names) / f
                   for (_, _, calls, _, _), f in zip(steps, factors))

    return {"wall_s": sum(sec / f for (_, sec, _, _, _), f
                          in zip(steps, factors)),
            "setup_s": seconds(setup_calls),
            "work_per_s": work / seconds((work_span,))}


def run(args, qn) -> dict:
    import speed
    import workloads as wl
    from tracer import Recorder, write_spans

    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from "
                         f"{sorted(wl.WORKLOADS)}")
    work = wl.WORKLOADS[args.workload](args.seed)
    checker = wl.Checker()
    warm_up(qn)

    traced = bool(args.trace)
    passes = []      # one dict per pass
    traced_recs = []
    count_ref = None
    errors = []      # run-level problems that are not one operation's
    rss = None
    last = None
    while True:
        rec = Recorder(keep=traced, gauge=None if traced else speed.gauge)
        last = None  # drop the previous pass's arrays before the next one
        last = work.run_pass(rec)
        if rss is None:
            rss = peak_rss_mb()
        checker.check_pass(last)
        c = wl.counts(last)
        if count_ref is None:
            count_ref = c
        elif c != count_ref:
            errors.append(f"pass {len(passes)} counts {c} != {count_ref}")
        measured = pass_metrics(rec.steps, last.work, work.WORK_SPAN,
                                wl.SETUP_CALLS, [1.0] * len(rec.steps))
        passes.append({"work": last.work, **measured, "steps": rec.steps})
        if rec.gauge:
            passes[-1]["ref"] = pass_metrics(
                rec.steps, last.work, work.WORK_SPAN, wl.SETUP_CALLS,
                [speed.factor(b, a, work.GAUGE)
                 for (_, _, _, b, a) in rec.steps])
        if traced:
            passes[-1]["self"] = rec.self_times()
            passes[-1]["spans"] = len(rec.spans)
            traced_recs.append((f"pass{len(passes) - 1}", rec))
        if sum(p["wall_s"] for p in passes) >= args.seconds:
            break

    result = {"passes": passes, "counts": count_ref}
    if not traced:
        keys = ("wall_s", "setup_s", "work_per_s")
        result["measured"] = {k: statistics.median(p[k] for p in passes)
                              for k in keys}
        result["values"] = {k: statistics.median(p["ref"][k]
                                                 for p in passes)
                            for k in keys}
        result["values"]["peak_rss_mb"] = rss
    else:
        result["values"] = per_layer(args, wl, work, checker, last, passes,
                                     traced_recs, errors)
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl",
                    traced_recs + [("checks", checker.rec)])
    result["attempted"] = checker.attempted
    result["failures"] = checker.failures
    result["errors"] = errors
    return result


def per_layer(args, wl, work, checker, last, passes, traced_recs, errors):
    from tracer import Recorder, kept_span_cost

    census = Recorder(keep=True)
    with census.span("census"):
        scratch = OUT / f"{args.workload}-seed{args.seed}"
        scratch.mkdir(exist_ok=True)
        extra = work.census(census, scratch)
        checker.check_pass(extra)
        first = next(((j, t) for (j, t, _) in last.solves + extra.solves
                      if j.mode == "exact" and not isinstance(t, str)), None)
        if first is None:
            errors.append("no exact job finished, so no oracle-check probe")
        else:
            job, tr = first
            rc, text = wl.cli_oracle_check(census, job, tr.rounds, scratch)
            checker.check_cli(job, rc, text)
    traced_recs.append(("census", census))

    census_self = census.self_times()

    def layer_s(name):
        vals = [p["self"][name] for p in passes if name in p["self"]]
        return statistics.median(vals) if vals else census_self.get(name, 0.0)

    v = {**wl.counts(extra), **wl.counts(last)}
    for name in ("graph.generate", "graph.laplacian", "problem.stacked",
                 "problem.classify", "planner.plan", "planner.alpha_star",
                 "solver.solve", "harness.csv", "harness.random_problem"):
        v[name + "_s"] = layer_s(name)
    # per pass, or the census's where passes never solve; each job runs
    # right before its max_rounds = 1 probe, so host drift mostly cancels
    selves = [p["self"] for p in passes if "solver.solve" in p["self"]] \
        or [census_self]
    v["solver.inner_setup_s"] = statistics.median(
        s["solver.inner_setup"] for s in selves)
    v["solver.round_ms"] = statistics.median(
        1000.0 * (s["solver.solve"] - s["solver.inner_setup"])
        for s in selves) / v["solver.rounds"]
    v["cli.oracle_check_s"] = census_self.get("cli.oracle_check", 0.0)
    v["oracle.verify_s"] = checker.rec.self_times().get("oracle.verify", 0.0)
    v["oracle.max_rel_dev"] = checker.max_rel_dev
    v["trace.spans"] = statistics.median(p["spans"] for p in passes)
    v["trace.overhead_s"] = kept_span_cost() * v["trace.spans"]
    return v


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    try:
        qn = import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    env = environment(np)
    try:
        result = run(args, qn)
    except Exception:
        traceback.print_exc()
        return 1

    values = result["values"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    failed = len(result["failures"])
    attempted = result["attempted"]
    line = {"correct": not (result["failures"] or result["errors"]),
            "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              **result, **line}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n",
                    encoding="utf-8")

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(result['passes'])} record={path.relative_to(ROOT)}")
    print("# env " + json.dumps(env))
    for (op, detail) in result["failures"]:
        print(f"# FAILED {op}: {detail.strip().splitlines()[-1]}")
    for err in result["errors"]:
        print(f"# ERROR {err}")
    print(f"# failed_frac = {failed}/{attempted}")
    if "measured" in result:
        print("# measured, not speed-corrected: " + ", ".join(
            f"{k} {v:.6g}" for k, v in result["measured"].items()))
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:<24.10g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
