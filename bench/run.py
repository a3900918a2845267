#!/usr/bin/env python3
"""The repository's benchmark: end to end and layer by layer.

One workload per invocation (the driver's contract)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the workload's inputs from the seed, sets the program up
``SETUPS`` times (``setup_s`` is the median), runs the workload's closed
loop for ``S`` seconds, checks every answer against the in-memory oracle,
prints every metric by name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics without tracing, the per-layer metrics with it.

Without ``--workload`` every workload runs in a fresh subprocess of this
script (``--repeats`` times, untraced then traced) and the collected
results are written to ``--out`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"bench/run.py: the program's source is missing ({SRC}/repro): "
             "nothing to benchmark")
sys.path[:0] = [BENCH, SRC]

import numpy  # noqa: E402

import report  # noqa: E402
import stats  # noqa: E402
from workloads import SETUPS, WORKLOADS, Env  # noqa: E402

#: scratch lives inside the checkout (the benchmark writes nowhere else)
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(BENCH, "out")


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def docs_stats(oracle) -> dict:
    """Skeleton statistics of the workload's documents (DAG vs tree)."""
    out = {"document_nodes": 0, "skeleton_nodes": 0, "vectors": 0}
    for _, vdoc in oracle.docs:
        st = vdoc.stats()
        for k in out:
            out[k] += st[k]
    return out


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    env = Env(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
              smoke=args.smoke, workdir=workdir, src=SRC)
    state = None
    try:
        hashes = workload.prepare(env)
        setup_times = []
        for attempt in range(1 if args.smoke else SETUPS):
            if state is not None:
                workload.teardown(state)
            t0 = time.perf_counter()
            state = workload.setup(env, attempt)
            setup_times.append(time.perf_counter() - t0)
        result = workload.run(env, state)
        stored_ratio = workload.stored_ratio(state)
        problems = workload.teardown(state)
        state = None
        for problem in problems:
            result.checker.failed += 1
            result.checker.errors.append(problem)
        oracle = workload.oracle(env)
        answers = result.checker.verify(oracle) if oracle else "n/a"
        docs = docs_stats(oracle) if oracle and env.trace else {}
    finally:
        if state is not None:
            workload.teardown(state)
        shutil.rmtree(workdir, ignore_errors=True)

    checker = result.checker
    name = args.workload
    print(f"== {name}  seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print(f"machine: {json.dumps(machine())}")
    print(f"load model: {LOAD_MODELS[name]}")
    for k, v in hashes.items():
        print(f"{k}: {v}")
    print(f"answers_sha256: {answers}")
    print(f"setup_s samples: {[round(t, 4) for t in setup_times]}")
    print(f"ops: attempted={result.attempted} failed={checker.failed} "
          f"fail_ratio={checker.failed / result.attempted:.4f}")
    for err in checker.errors:
        print(f"  FAILED {err}")
    if result.samples:
        print("latency by class (informational):")
        print("\n".join(report.class_rows(result.samples)))
    for k, v in sorted(result.info.items()):
        if k == "open_loop":
            print("open loop phase (informational): "
                  + json.dumps(open_loop_rows(v)))
        else:
            print(f"info {k}: {v}")

    if not result.samples:
        print("no successful operation: no result", file=sys.stderr)
        return 1
    if env.trace:
        metrics = report.per_layer(env.tracer.spans, result.info, docs)
        print("layer table:")
        print(report.layer_table(metrics))
        os.makedirs(OUT, exist_ok=True)
        env.tracer.write_jsonl(os.path.join(OUT, f"trace-{name}.jsonl"))
    else:
        metrics = report.end_to_end(result, setup_times, stored_ratio)
    for metric, m in metrics.items():
        print(f"{name}.{metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": result.attempted,
                      "failed": min(checker.failed, result.attempted),
                      "metrics": metrics}))
    return 0


def open_loop_rows(phase: dict) -> dict:
    lat, late = phase["latencies_ms"], phase["lateness_ms"]
    out = {"rate_rps": phase["rate"], "scheduled": phase["scheduled"],
           "failed": phase["failed"], "backlog_at_end": phase["backlog"]}
    if lat:
        s = stats.summary(lat)
        out.update(open_p50_ms=round(s["p50_ms"], 3), samples=s["n"])
        if "tail_ms" in s:
            out[f"open_p{s['tail_pct']:g}_ms"] = round(s["tail_ms"], 3)
            out[f"late_p{s['tail_pct']:g}_ms"] = round(
                stats.percentile(sorted(late), s["tail_pct"]), 3)
    return out


LOAD_MODELS = {
    "ingest": "closed loop, 1 client, zero think, one document per op",
    "cold_query": "closed loop, 1 client, zero think; every op opens the "
                  "repository afresh (pool 128 pages); OS page cache warm",
    "warm_select": "closed loop, 1 client, zero think; resident repository, "
                   "result cache off",
    "warm_join": "closed loop, 1 client, zero think; resident repository, "
                 "result cache off",
    "serve_mixed": "closed loop, zero think: phase A 1 keep-alive client "
                   "(p50_ms), phase B 2 clients (ops_s); phase C open loop, "
                   "40 req/s over the same 2 connections, latency from "
                   "intended send time",
    "deep_tree": "closed loop, 1 client, zero think; resident repository, "
                 "result cache off",
}


def run_all(args) -> int:
    """Every workload in a fresh subprocess; results to ``--out``."""
    runs: dict[str, dict] = {}
    failed = False
    for name in WORKLOADS:
        for trace in (0, 1):
            for rep in range(args.repeats if trace == 0 else 1):
                cmd = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
                if args.smoke:
                    cmd.append("--smoke")
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=600)
                sys.stdout.write(proc.stdout)
                sys.stdout.flush()
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    failed = True
                    continue
                last = json.loads(proc.stdout.strip().splitlines()[-1])
                failed |= not last["correct"]
                slot = runs.setdefault(name, {"runs": [], "layers": None})
                if trace:
                    slot["layers"] = last
                else:
                    slot["runs"].append(last)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "smoke": args.smoke, "machine": machine(),
                       "workloads": runs}, f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and a single set-up (harness "
                         "self-tests)")
    ap.add_argument("--repeats", type=int, default=1,
                    help="untraced runs per workload when running them all")
    ap.add_argument("--out", help="write the collected results here "
                                  "(all-workloads mode)")
    args = ap.parse_args(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
