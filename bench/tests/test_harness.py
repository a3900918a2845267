"""Harness self-tests: the measuring code is itself under test.

    python -m pytest bench/tests -q
"""

import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import compare
import datasets
import loadgen
import oracle
import queries
import report
import stats
import tracing
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


# -- percentiles -----------------------------------------------------------

@pytest.mark.parametrize("n, want", [
    (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, want):
    assert stats.tail_percentile(n) == want
    if want is not None:
        ranked = list(range(1, n + 1))
        assert n - stats.percentile(ranked, want) >= stats.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 11)]
    assert stats.percentile(values, 50) == 5.0
    assert stats.percentile(values, 90) == 9.0
    assert stats.percentile(values, 100) == 10.0
    assert stats.summary([3.0, 1.0, 2.0]) == {"n": 3, "p50_ms": 2.0}


# -- open loop ---------------------------------------------------------------

class FakeTime:
    def __init__(self):
        self.now = 0.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_times_from_intended_send_and_reports_lateness():
    ft = FakeTime()
    op = queries.make_op("sel", 30)
    service = iter([0.01, 0.25, 0.01, 0.01])   # the 2nd op stalls
    checker = oracle.Checker()

    def execute(_op):
        ft.now += next(service)
        return "<result/>", 0

    schedule = [(0.1 * i, op) for i in range(4)]
    rows = loadgen.run_schedule(schedule, execute, checker, ft.clock,
                                ft.sleep)
    latency = [round(r[1], 6) for r in rows]
    lateness = [round(r[2], 6) for r in rows]
    # op 2 was due at 0.2 but the stall held the connection until 0.35:
    # its latency counts the wait (160 ms, not its 10 ms of service)
    assert latency == [10.0, 250.0, 160.0, 70.0]
    assert lateness == [0.0, 0.0, 150.0, 60.0]
    assert all(r[3] for r in rows) and checker.failed == 0


def test_closed_loop_fails_ops_without_latency():
    checker = oracle.Checker()
    ops = [queries.make_op("sel", k) for k in (20, 21, 22)]

    def execute(op):
        if "21" in op.text:
            raise RuntimeError("boom")
        return "<result/>", 0

    samples, attempted, _ = loadgen.closed_loop(ops, 60.0, execute, checker)
    assert attempted == 3 and len(samples) == 2 and checker.failed == 1


# -- spans -------------------------------------------------------------------

def test_span_self_time_is_duration_minus_children():
    def span(sid, parent, name, t0, t1, replay=False):
        return {"span_id": sid, "parent_id": parent, "layer": name,
                "name": name, "t0": t0, "t1": t1, "replay": replay,
                "request_id": 1, "counters": {"n": 1}}

    spans = [span(0, None, "glue", 0.0, 10.0), span(1, 0, "plan", 1.0, 3.0),
             span(2, 0, "reduce", 3.0, 8.0), span(3, 2, "scan", 4.0, 5.0),
             span(4, 0, "reduce", 8.0, 9.0, replay=True)]
    assert tracing.self_times(spans) == {0: 2.0, 1: 2.0, 2: 4.0, 3: 1.0,
                                         4: 1.0}
    assert tracing.self_seconds(spans, "name") == {
        "glue": 2.0, "plan": 2.0, "reduce": 4.0, "scan": 1.0}
    assert tracing.self_seconds(spans, "name", replay=True) == {"reduce": 1.0}
    assert tracing.counter_totals(spans) == {"n": 4}


def test_tracer_nests_and_reads_counters_from_outside():
    tr = tracing.Tracer()
    box = {"pages_read": 5}
    with tr.span("a", "outer"):
        with tr.span("b", "inner", lambda: dict(box)) as rec:
            box["pages_read"] += 3
            rec["counters"]["rows"] = 7
    with tr.span("a", "next"):
        pass
    outer, inner, nxt = tr.spans
    assert inner["parent_id"] == outer["span_id"] and outer["parent_id"] is None
    assert inner["counters"] == {"rows": 7, "pages_read": 3}
    assert outer["request_id"] == inner["request_id"] != nxt["request_id"]
    assert outer["t0"] <= inner["t0"] <= inner["t1"] <= outer["t1"]


# -- inputs are functions of the seed ----------------------------------------

def test_same_seed_same_inputs_and_requests():
    assert datasets.deep_xml(5, 20_000) == datasets.deep_xml(5, 20_000)
    assert datasets.deep_xml(5, 20_000) != datasets.deep_xml(6, 20_000)
    assert len(datasets.deep_xml(5, 20_000)) >= 20_000

    def requests(seed):
        pools = queries.param_pools(seed, 500)
        stream = queries.serve_requests(seed, 0, pools)
        return (queries.sequence_hash(queries.cycle(queries.SELECT_CLASSES,
                                                    pools)),
                queries.sequence_hash(next(stream) for _ in range(200)))

    assert requests(3) == requests(3) != requests(4)


def test_unique_tags_map_back_to_the_canonical_answer():
    op = queries.make_op("sel", 30, tag="t1n7")
    assert op.text != op.key and "t1n7" in op.text
    got = oracle.canonical(op, "<result><t1n7><name>a</name></t1n7></result>")
    assert got == "<result><t><name>a</name></t></result>"
    checker = oracle.Checker()
    checker.note(queries.make_op("sel", 30), got, 1)
    checker.note(op, "<result><t1n7><name>a</name></t1n7></result>", 1)
    assert checker.failed == 0
    checker.note(op, "<result/>", 0)
    assert checker.failed == 1


# -- schema ------------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_meets_the_contract():
    b = load_benchmark()
    assert set(b) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert b["paths"] == ["bench"] and b["command"][-1] == "bench/run.py"
    assert isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60
    assert 2 <= len(b["workloads"]) <= 8
    assert [w["name"] for w in b["workloads"]] == list(WORKLOADS)
    for w in b["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in b[key]]
    assert len(set(names)) == len(names) and all(map(NAME.match, names))
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    for m in b["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"])
               for m in b["end_to_end"] + b["per_layer"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": 0.25} in b["end_to_end"]
    # the runner's metric tables are the file's
    assert [(m["name"], m["unit"]) for m in b["end_to_end"]] == \
        list(report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in b["per_layer"]] == \
        [(n, u) for n, u, _ in report.PER_LAYER]
    # every run of every workload must fit the driver's total-time cap
    assert (4 + 22 * len(b["workloads"])) * (b["run_seconds"] + 12) <= 3420


# -- compare -----------------------------------------------------------------

def result_file(ops_s, failed=0):
    return {"workloads": {"w": {"runs": [
        {"attempted": 100, "failed": failed,
         "metrics": {"ops_s": {"value": v, "unit": "1/s"}}} for v in ops_s]}}}


METRIC = [{"name": "ops_s", "unit": "1/s", "better": "higher", "bound": 0.10}]


@pytest.mark.parametrize("base, new, want", [
    ([100, 101, 99, 100], [95, 96, 94, 95], "ok"),
    ([100, 101, 99, 100], [85, 86, 84, 85], "regressed"),
    ([100, 130, 80, 100], [85, 86, 84, 85], "unresolved"),
    ([100], [120], "ok")])
def test_compare_verdicts(base, new, want):
    assert compare.verdict(base, new, "higher", 0.10)[3] == want
    table, bad = compare.compare(result_file(base), result_file(new), METRIC)
    assert table.splitlines()[2].endswith(want)
    assert bad == (want == "regressed")


def test_compare_rejects_more_failures():
    table, bad = compare.compare(result_file([100]), result_file([100], 2),
                                 METRIC)
    assert bad and "fail_ratio rose" in table


# -- all six workloads, end to end, at smoke size ------------------------------

def smoke(name, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
         "--seed", "5", "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_pass_of_every_workload():
    b = load_benchmark()
    # the staged (traced) paths: ingest, open-per-op, resident, served
    traced = ("ingest", "cold_query", "warm_select", "serve_mixed")
    jobs = [(name, 0) for name in WORKLOADS] + [(name, 1) for name in traced]
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 2) as pool:
        results = list(pool.map(lambda job: smoke(*job), jobs))
    for (name, trace), last in zip(jobs, results):
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0, name
        assert last["attempted"] >= 1
        want = b["per_layer"] if trace else b["end_to_end"]
        assert list(last["metrics"]) == [m["name"] for m in want], name
        for m in want:
            got = last["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
            assert trace or got["value"] > 0, (name, m["name"])
