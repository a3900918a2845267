#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

    python3 bench/compare.py A.json B.json

One row per (workload, end-to-end metric): base (A) and new (B) medians
over each file's repeats, the ratio new/base, the metric's bound from
``BENCHMARK.json`` and a verdict:

* ``ok``         — B is not worse than A by more than the bound;
* ``regressed``  — it is;
* ``unresolved`` — the repeats inside A or inside B spread wider than the
  bound, so the files cannot settle the question either way.

Exits 1 on any ``regressed`` row or when a workload fails a larger share
of its operations in B than in A.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.util import fmt_table  # noqa: E402


def spread(values: list[float]) -> float:
    """Run-to-run spread as a share of the median: interquartile distance
    from four repeats up, full range below that, 0 for a single run."""
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(med)
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> tuple[float, float, float, str]:
    """``(base median, new median, worse-by share, verdict)``."""
    b, n = statistics.median(base), statistics.median(new)
    worse_by = (n - b) / abs(b) if better == "lower" else (b - n) / abs(b)
    if max(spread(base), spread(new)) > bound:
        return b, n, worse_by, "unresolved"
    return b, n, worse_by, "regressed" if worse_by > bound else "ok"


def fail_ratio(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare(a: dict, b: dict, metrics: list[dict]) -> tuple[str, bool]:
    """The comparison table and whether it holds anything bad."""
    rows, notes = [], []
    bad = False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            notes.append(f"{name}: missing from the second file")
            bad = True
            continue
        runs_a = a["workloads"][name]["runs"]
        runs_b = b["workloads"][name]["runs"]
        for m in metrics:
            base = [r["metrics"][m["name"]]["value"] for r in runs_a]
            new = [r["metrics"][m["name"]]["value"] for r in runs_b]
            bm, nm, _, v = verdict(base, new, m["better"], m["bound"])
            bad |= v == "regressed"
            rows.append([name, m["name"], f"{bm:.5g} {m['unit']}",
                         f"{nm:.5g}", f"{nm / bm:.3f}x", f"{m['bound']:.2f}",
                         v])
        fa, fb = fail_ratio(runs_a), fail_ratio(runs_b)
        if fb > fa:
            bad = True
            notes.append(f"{name}: fail_ratio rose from {fa:.4f} to {fb:.4f}")
    table = fmt_table(["workload", "metric", "base", "new", "new/base",
                       "bound", "verdict"], rows)
    return "\n".join([table, *notes]), bad


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as f:
        a = json.load(f)
    with open(argv[1], encoding="utf-8") as f:
        b = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    table, bad = compare(a, b, metrics)
    print(table)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
