#!/usr/bin/env python3
"""Show which reference kernel (see ``speed.py``) steadies each workload.

    python3 perfbench/fit_gauge.py

Reads the untraced run records in ``perfbench/out/`` (``run.py`` leaves one
per workload and seed; make them on several seeds first). For the measured
times and for each kernel it recomputes every run's end-to-end times from
the step times and gauge readings in its record, and prints the spread
(q3 - q1) / median of each across runs. A workload's ``GAUGE`` in
``workloads.py`` is the kernel with the smallest ``wall_s`` spread.
"""

from __future__ import annotations

import json
import statistics

import run
import speed

KEYS = ("wall_s", "setup_s", "work_per_s")


def run_values(rec, kernel, wl) -> dict:
    """Median over a record's passes of each time, corrected by a kernel."""
    work = wl.WORKLOADS[rec["workload"]]
    per_pass = []
    for p in rec["passes"]:
        factors = [1.0 if kernel is None else speed.factor(b, a, kernel)
                   for (_, _, _, b, a) in p["steps"]]
        per_pass.append(run.pass_metrics(p["steps"], p["work"],
                                         work.WORK_SPAN, wl.SETUP_CALLS,
                                         factors))
    return {k: statistics.median(m[k] for m in per_pass) for k in KEYS}


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    run.import_library()
    import workloads as wl

    records = {}
    for path in sorted(run.OUT.glob("*-trace0.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        records.setdefault(rec["workload"], []).append(rec)
    for w, recs in records.items():
        line = [f"{w:10s} runs {len(recs):3d}"]
        for kernel in (None, *speed.NOMINAL_S):
            vals = [run_values(r, kernel, wl) for r in recs]
            line.append(f"{kernel or 'measured'}: " + " ".join(
                f"{k} {spread([v[k] for v in vals]):.4f}" for k in KEYS))
        print(" | ".join(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
