#!/usr/bin/env python
"""CI regression gate: compare a fresh BENCH_xq run against the committed
baseline and fail if performance regressed.

Both files are ``bench_xq.py`` payloads.  Every record that appears in
*both* — matched on its regime plus identifying keys (query name and
document/configuration size) — contributes the ratio ``fresh speedup /
baseline speedup``; the gate fails when the **geomean** of those ratios
drops below ``1 - GATE_TOLERANCE``.  Comparing speedups (naive/vx,
scan/indexed — each a ratio of two timings taken on the same machine
in the same run) rather than wall-clock times is what
makes the gate non-flaky on shared CI runners: a uniformly slower
machine scales both sides of each ratio and cancels out.

Disjoint record sets are an explicit failure, not a silent pass — a
renamed query or changed size sweep must update the committed baseline
in the same change.

``--chaos-check`` switches the gate to a different job: it re-asserts
the fault-tolerance **properties** recorded by ``chaos_serve.py`` in a
``CHAOS_serve.json`` payload — no baseline, no tolerance, because the
properties are absolute (zero wrong bytes, zero hangs, zero unattributed
errors, zero leaked pins, deadline probes fired, quarantine healed).  A
chaos run that violated a property already exits non-zero itself; the
gate re-deriving the verdict from the payload keeps CI honest if the
harness's own exit code is ever swallowed by a pipeline step.

``--disk-check`` does the same for ``bench_disk.py``'s compression
regime in a ``BENCH_disk.json`` payload: the properties are absolute
(cold v4 pages strictly below v3, the page ratio tracking the cataloged
byte ratio within the recorded slack, zero decoded values on the
dictionary-equality predicate vector, decode CPU under the recorded
ceiling whenever the run was long enough to time) — no baseline needed.

Usage::

    gate.py FRESH.json [BASELINE.json]     # default baseline BENCH_xq.json
    gate.py --chaos-check CHAOS_serve.json # property check, no baseline
    gate.py --disk-check BENCH_disk.json   # compression properties
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

#: allowed geomean speedup regression before the gate fails (20%)
GATE_TOLERANCE = 0.20

#: regime -> (payload path, identifying record keys)
REGIMES = {
    "reduction": (("records",), ("query", "n_people")),
    "indexed": (("indexed_regime", "records"), ("query", "n_people")),
    # bench_serve.py: ``speedup`` is QPS at n_clients over single-client
    # QPS in the same closed-loop (think-time) run — a machine-relative
    # ratio like the others, so it gates across runners too
    "serve": (("serve_regime", "records"), ("n_clients",)),
    # same-member hotspot (every client on one member, result cache off):
    # the regime a per-member evaluation lock would serialize
    "serve_hotspot": (("hotspot_regime", "records"), ("n_clients",)),
    # warm result cache: evaluated service time / hit service time,
    # both measured warm on the same machine in the same run
    "serve_cache": (("cache_regime", "records"), ("query",)),
}


def _records(payload: dict, path: tuple[str, ...]) -> list[dict]:
    node = payload
    for key in path:
        node = node.get(key, {}) if isinstance(node, dict) else {}
    return node if isinstance(node, list) else []


def _keyed(records: list[dict], keys: tuple[str, ...]) -> dict[tuple, dict]:
    return {tuple(r.get(k) for k in keys): r for r in records}


def compare(fresh: dict, baseline: dict) -> tuple[list[str], list[float]]:
    """``(report lines, per-record speedup ratios)`` over the records the
    two payloads share."""
    lines: list[str] = []
    ratios: list[float] = []
    for regime, (path, keys) in REGIMES.items():
        fr = _keyed(_records(fresh, path), keys)
        br = _keyed(_records(baseline, path), keys)
        common = sorted(set(fr) & set(br), key=str)
        for key in common:
            f_speed = fr[key].get("speedup")
            b_speed = br[key].get("speedup")
            if not isinstance(f_speed, (int, float)) or \
                    not isinstance(b_speed, (int, float)) or \
                    f_speed <= 0 or b_speed <= 0 or \
                    math.isinf(f_speed) or math.isinf(b_speed):
                continue
            ratio = f_speed / b_speed
            ratios.append(ratio)
            tag = " ".join(str(k) for k in key)
            lines.append(f"  {regime:10s} {tag:40s} "
                         f"baseline {b_speed:7.2f}x  fresh {f_speed:7.2f}x  "
                         f"ratio {ratio:5.2f}")
    return lines, ratios


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def chaos_check(payload: dict) -> list[str]:
    """Violations of the chaos-harness properties recorded in a
    ``CHAOS_serve.json`` payload (empty list = pass)."""
    bad: list[str] = []
    regime = payload.get("chaos_regime")
    if not isinstance(regime, dict):
        return ["payload has no chaos_regime (not a chaos_serve.py run?)"]
    storm = regime.get("storm", {})
    if storm.get("requests", 0) <= 0:
        bad.append("storm served no requests")
    for counter in ("wrong_bytes", "unattributed", "hangs"):
        if storm.get(counter, 1):
            bad.append(f"storm {counter}={storm.get(counter)} (must be 0)")
    if storm.get("deadline_504", 0) < 1:
        bad.append("no deadline probe came back 504")
    cycle = regime.get("corruption_cycle", {})
    if cycle.get("quarantine", {}).get("reinstated_total", 0) < 1:
        bad.append("corruption cycle reinstated no member")
    failures = regime.get("failures")
    if failures:
        bad.extend(f"harness failure: {f}" for f in failures)
    elif failures is None:
        bad.append("payload records no failures list")
    return bad


def disk_check(payload: dict) -> list[str]:
    """Violations of the compression-regime properties recorded in a
    ``BENCH_disk.json`` payload (empty list = pass)."""
    bad: list[str] = []
    regime = payload.get("compression_regime")
    if not isinstance(regime, dict):
        return ["payload has no compression_regime "
                "(not a bench_disk.py run?)"]
    records = regime.get("records")
    if not records:
        return ["compression regime has no records"]
    slack = regime.get("page_slack", 0.25)
    ceiling = regime.get("max_cpu_overhead", 0.50)
    for r in records:
        tag = f"n={r.get('n_people')}"
        if r.get("pages_cold_v4", 1) >= r.get("pages_cold_v3", 0):
            bad.append(f"{tag}: v4 cold pages {r.get('pages_cold_v4')} not "
                       f"below v3's {r.get('pages_cold_v3')}")
        if r.get("page_ratio", 1.0) > r.get("byte_ratio", 0.0) + slack:
            bad.append(f"{tag}: page ratio {r.get('page_ratio')} outside "
                       f"byte ratio {r.get('byte_ratio')} + {slack}")
        if r.get("dict_decodes", 1) != 0:
            bad.append(f"{tag}: dict-eq selection decoded "
                       f"{r.get('dict_decodes')} values (must be 0)")
        if r.get("cpu_timed") and r.get("cpu_overhead", 0.0) > ceiling:
            bad.append(f"{tag}: decode CPU overhead {r.get('cpu_overhead')} "
                       f"over the {ceiling} ceiling")
        if r.get("highcard_pages_v4", 1) > \
                r.get("highcard_pages_v3", 0) * 1.02 + 2:
            bad.append(f"{tag}: high-cardinality v4 file larger than its "
                       f"v3 twin")
    failures = payload.get("profile_failures")
    if failures:
        bad.extend(f"bench failure: {f}" for f in failures)
    elif failures is None:
        bad.append("payload records no failures list")
    return bad


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("fresh", help="freshly produced bench_xq payload")
    ap.add_argument("baseline", nargs="?", default=str(
        pathlib.Path(__file__).resolve().parent.parent / "BENCH_xq.json"),
        help="committed baseline payload (default: BENCH_xq.json)")
    ap.add_argument("--tolerance", type=float, default=GATE_TOLERANCE,
                    help="allowed geomean regression fraction "
                         "(default %(default)s)")
    ap.add_argument("--chaos-check", action="store_true",
                    help="treat FRESH as a CHAOS_serve.json payload and "
                         "re-assert its fault-tolerance properties "
                         "(no baseline)")
    ap.add_argument("--disk-check", action="store_true",
                    help="treat FRESH as a BENCH_disk.json payload and "
                         "re-assert its compression-regime properties "
                         "(no baseline)")
    args = ap.parse_args(argv)

    try:
        fresh = json.loads(pathlib.Path(args.fresh).read_text("utf-8"))
    except (OSError, ValueError) as exc:
        print(f"gate: cannot load payloads: {exc}", file=sys.stderr)
        return 2

    if args.disk_check:
        bad = disk_check(fresh)
        if bad:
            for b in bad:
                print(f"gate: disk FAIL — {b}", file=sys.stderr)
            return 1
        recs = fresh["compression_regime"]["records"]
        ratios = ", ".join(f"{r['n_people']}:{r['page_ratio']:.2f}"
                           for r in recs)
        print(f"gate: disk ok — {len(recs)} compression record(s), "
              f"cold page ratios {{{ratios}}}; properties hold")
        return 0

    if args.chaos_check:
        bad = chaos_check(fresh)
        if bad:
            for b in bad:
                print(f"gate: chaos FAIL — {b}", file=sys.stderr)
            return 1
        storm = fresh["chaos_regime"]["storm"]
        print(f"gate: chaos ok — {storm['requests']} requests, "
              f"ok={storm['ok']} degraded={storm['degraded']} "
              f"504={storm['deadline_504']}; properties hold")
        return 0

    try:
        baseline = json.loads(pathlib.Path(args.baseline).read_text("utf-8"))
    except (OSError, ValueError) as exc:
        print(f"gate: cannot load payloads: {exc}", file=sys.stderr)
        return 2

    lines, ratios = compare(fresh, baseline)
    if not ratios:
        print("gate: FAIL — no common records between fresh and baseline "
              "payloads (query set or size sweep changed without updating "
              "the committed BENCH_xq.json)", file=sys.stderr)
        return 1
    print("\n".join(lines))
    geo = geomean(ratios)
    floor = 1.0 - args.tolerance
    print(f"gate: geomean speedup ratio {geo:.3f} over {len(ratios)} "
          f"common records (floor {floor:.2f})")
    if geo < floor:
        print(f"gate: FAIL — geomean speedup regressed by "
              f"{(1 - geo) * 100:.0f}% (> {args.tolerance * 100:.0f}% "
              f"tolerance)", file=sys.stderr)
        return 1
    print("gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
