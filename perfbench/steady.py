#!/usr/bin/env python3
"""Steadiness check for the benchmark in ``BENCHMARK.json``.

    python3 perfbench/steady.py [--seeds 10] [--workloads a,b]

For every workload, runs ``run.py`` once per seed (seeds 1..N) with tracing
off, twice over, and reports for each set of runs and end-to-end metric its
median, its quartiles and the spread (q3 - q1) / median. Every spread must
stay within a third of the metric's bound, and every metric's second
median must not be worse than the first by more than its bound. Then it
runs the traced run twice on one seed and requires every per-layer count
(every metric not timed in s or ms) to repeat exactly. Every run must be correct with no failed
operation. Prints a table, writes ``perfbench/out/steady.json`` and exits
1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMED_UNITS = ("s", "ms")
SETS = 2          # sets of untraced runs whose medians must agree
COUNT_SEED = 1    # seed of the two traced runs whose counts must agree


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def worse_by(new: float, old: float, better: str) -> float:
    """Relative worsening of ``new`` against ``old`` (negative: better)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]

    problems = []
    report = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for w in args.workloads.split(","):
        sets = []
        for s in range(SETS):
            runs = [run_once(w, seed, seconds, 0)
                    for seed in range(1, args.seeds + 1)]
            for seed, r in enumerate(runs, start=1):
                if not r["correct"] or r["failed"]:
                    problems.append(f"{w} seed {seed}: correct={r['correct']}"
                                    f" failed={r['failed']}/{r['attempted']}")
            stats = {}
            for m in spec["end_to_end"]:
                st = spread([r["metrics"][m["name"]]["value"] for r in runs])
                stats[m["name"]] = st
                print(f"{w:10s} set {s + 1} {m['name']:12s} "
                      f"median {st['median']:<12.6g} {m['unit']:5s} "
                      f"q1 {st['q1']:<12.6g} q3 {st['q3']:<12.6g} "
                      f"spread {st['spread']:.4f} (bound {m['bound']})")
                if st["spread"] > m["bound"] / 3:
                    problems.append(f"{w} {m['name']} spread "
                                    f"{st['spread']:.4f} > bound/3")
            sets.append(stats)
        for m in spec["end_to_end"]:
            d = worse_by(sets[1][m["name"]]["median"],
                         sets[0][m["name"]]["median"], m["better"])
            print(f"{w:10s} {m['name']:12s} second set worse by {d:+.4f}")
            if d > m["bound"]:
                problems.append(f"{w} {m['name']} second median worse "
                                f"by {d:.4f} > {m['bound']}")

        traced = [run_once(w, COUNT_SEED, seconds, 1)
                  for _ in range(2)]
        counts = [{m["name"]: t["metrics"][m["name"]]["value"]
                   for m in spec["per_layer"]
                   if m["unit"] not in TIMED_UNITS} for t in traced]
        for t in traced:
            if not t["correct"] or t["failed"]:
                problems.append(f"{w} traced run: correct={t['correct']} "
                                f"failed={t['failed']}/{t['attempted']}")
        if counts[0] != counts[1]:
            problems.append(f"{w} counts differ between traced runs: "
                            f"{counts[0]} != {counts[1]}")
        print(f"{w:10s} counts repeat exactly: {counts[0] == counts[1]}")
        report["workloads"][w] = {"sets": sets, "counts": counts[0],
                                  "traced": [t["metrics"] for t in traced]}

    report["problems"] = problems
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for p in problems:
        print("PROBLEM:", p)
    print("steady" if not problems else "NOT steady")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
