"""The benchmark regression gate: passes on stable speedups, fails on a
geomean regression beyond tolerance, and treats disjoint record sets as
an error rather than a silent pass."""

import json
import pathlib
import sys

BENCHMARKS = str(pathlib.Path(__file__).resolve().parent.parent
                 / "benchmarks")
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

import gate  # noqa: E402


def _payload(sel_speedup, join_speedup):
    return {
        "records": [
            {"query": "XQ1", "n_people": 100, "speedup": sel_speedup},
            {"query": "XQ3", "n_people": 100, "speedup": join_speedup},
        ],
        "indexed_regime": {"records": [
            {"query": "IXQ1", "n_people": 2000, "speedup": sel_speedup},
        ]},
    }


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


def _run(tmp_path, fresh, baseline, extra=()):
    return gate.main([_write(tmp_path, "fresh.json", fresh),
                      _write(tmp_path, "base.json", baseline), *extra])


def test_identical_payloads_pass(tmp_path, capsys):
    p = _payload(10.0, 5.0)
    assert _run(tmp_path, p, p) == 0
    out = capsys.readouterr().out
    assert "gate: ok" in out and "ratio  1.00" in out


def test_mild_jitter_within_tolerance_passes(tmp_path):
    assert _run(tmp_path, _payload(9.0, 4.6), _payload(10.0, 5.0)) == 0


def test_regression_beyond_tolerance_fails(tmp_path, capsys):
    assert _run(tmp_path, _payload(5.0, 2.5), _payload(10.0, 5.0)) == 1
    assert "regressed" in capsys.readouterr().err


def test_one_sided_collapse_fails_on_geomean(tmp_path):
    # one record collapsing 4x drags the geomean under the floor even
    # though the others are flat
    assert _run(tmp_path, _payload(10.0, 1.0),
                _payload(10.0, 5.0)) == 1


def test_tolerance_flag_loosens_the_floor(tmp_path):
    fresh, base = _payload(5.0, 2.5), _payload(10.0, 5.0)
    assert _run(tmp_path, fresh, base) == 1
    assert _run(tmp_path, fresh, base, extra=["--tolerance", "0.6"]) == 0


def test_disjoint_records_fail_loudly(tmp_path, capsys):
    fresh = _payload(10.0, 5.0)
    base = json.loads(json.dumps(fresh))
    for rec in base["records"]:
        rec["n_people"] = 999  # renamed sweep: no common keys
    base["indexed_regime"]["records"] = []
    assert _run(tmp_path, fresh, base) == 1
    assert "no common records" in capsys.readouterr().err


def test_non_finite_speedups_are_skipped_not_compared(tmp_path):
    fresh, base = _payload(10.0, 5.0), _payload(10.0, 5.0)
    fresh["records"][1]["speedup"] = float("inf")
    base["records"][1]["speedup"] = 0.0
    assert _run(tmp_path, fresh, base) == 0  # remaining records carry it


def test_unreadable_payload_is_exit_2(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert gate.main([missing, missing]) == 2


def _serve_payload(speedup_4, speedup_16):
    return {"serve_regime": {"records": [
        {"n_clients": 4, "speedup": speedup_4},
        {"n_clients": 16, "speedup": speedup_16},
    ]}}


def test_serve_regime_gates_qps_scaling(tmp_path, capsys):
    base = _serve_payload(3.9, 15.2)
    assert _run(tmp_path, _serve_payload(3.8, 14.8), base) == 0
    assert "serve" in capsys.readouterr().out
    # 16-client scaling collapsing to ~2x is a >20% geomean regression
    assert _run(tmp_path, _serve_payload(3.8, 2.0), base) == 1


def test_committed_serve_baseline_self_gates():
    committed = pathlib.Path(BENCHMARKS).parent / "BENCH_serve.json"
    payload = json.loads(committed.read_text("utf-8"))
    lines, ratios = gate.compare(payload, payload)
    assert ratios and all(r == 1.0 for r in ratios)
    assert any(line.lstrip().startswith("serve") for line in lines)
    # the committed baseline itself documents the acceptance floor
    records = payload["serve_regime"]["records"]
    by_n = {r["n_clients"]: r["speedup"] for r in records}
    assert by_n[16] >= payload["serve_regime"]["threshold"]


def test_committed_baseline_self_gates():
    """The committed BENCH_xq.json must pass against itself — guards the
    payload shape the CI step depends on."""
    committed = pathlib.Path(BENCHMARKS).parent / "BENCH_xq.json"
    payload = json.loads(committed.read_text("utf-8"))
    lines, ratios = gate.compare(payload, payload)
    assert ratios and all(r == 1.0 for r in ratios)
    # every regime must contribute at least one record
    assert any(line.lstrip().startswith("indexed") for line in lines)
    assert any(line.lstrip().startswith("reduction") for line in lines)


def _disk_payload(page_ratio=0.3, dict_decodes=0, cpu=0.1, timed=True):
    return {
        "compression_regime": {
            "page_slack": 0.25,
            "max_cpu_overhead": 0.50,
            "records": [{
                "n_people": 50,
                "byte_ratio": 0.2,
                "pages_cold_v3": 100,
                "pages_cold_v4": int(100 * page_ratio),
                "page_ratio": page_ratio,
                "dict_decodes": dict_decodes,
                "cpu_overhead": cpu,
                "cpu_timed": timed,
                "highcard_pages_v3": 40,
                "highcard_pages_v4": 40,
            }],
        },
        "profile_failures": [],
    }


def test_disk_check_passes_on_clean_payload(tmp_path, capsys):
    p = _write(tmp_path, "disk.json", _disk_payload())
    assert gate.main([p, "--disk-check"]) == 0
    assert "disk ok" in capsys.readouterr().out


def test_disk_check_fails_on_violated_properties(tmp_path, capsys):
    cases = [
        _disk_payload(page_ratio=1.0),           # no page reduction
        _disk_payload(page_ratio=0.6),           # not tracking byte ratio
        _disk_payload(dict_decodes=500),         # decoded the dict vector
        _disk_payload(cpu=0.9),                  # CPU over the ceiling
        {"compression_regime": {"records": []}},
        {},                                      # not a bench_disk payload
    ]
    recorded = _disk_payload()
    recorded["profile_failures"] = ["n=50: something broke"]
    cases.append(recorded)
    for i, payload in enumerate(cases):
        p = _write(tmp_path, f"disk{i}.json", payload)
        assert gate.main([p, "--disk-check"]) == 1, f"case {i} passed"
        assert "disk FAIL" in capsys.readouterr().err


def test_disk_check_skips_cpu_ceiling_below_timing_floor(tmp_path):
    p = _write(tmp_path, "disk.json",
               _disk_payload(cpu=2.0, timed=False))
    assert gate.main([p, "--disk-check"]) == 0


def test_committed_disk_baseline_self_checks():
    """The committed BENCH_disk.json must hold its own compression
    properties — guards the payload shape the CI disk gate depends on."""
    committed = pathlib.Path(BENCHMARKS).parent / "BENCH_disk.json"
    payload = json.loads(committed.read_text("utf-8"))
    assert gate.disk_check(payload) == []


def test_io_delta_recomputes_ratios_from_differenced_counters():
    """``IOStats.as_dict()`` carries two derived ratios; a window's ratio
    is the ratio of its counter deltas, not the difference of two ratios
    (which published ``io_compression_ratio: -0.47``)."""
    import types

    import bench_disk

    before = {"pages_read": 10, "hits": 30, "misses": 10, "hit_rate": 0.75,
              "logical_bytes": 1000, "physical_bytes": 1000,
              "compression_ratio": 1.0}
    after = {"pages_read": 14, "hits": 36, "misses": 14, "hit_rate": 0.72,
             "logical_bytes": 3000, "physical_bytes": 1500,
             "compression_ratio": 0.5}
    pool = types.SimpleNamespace(
        stats=types.SimpleNamespace(as_dict=lambda: after))
    delta = bench_disk._io_delta(pool, before)
    assert delta["pages_read"] == 4 and delta["hits"] == 6
    assert delta["hit_rate"] == 0.6                 # 6 / (6 + 4)
    assert delta["compression_ratio"] == 0.25       # 500 / 2000
    # an idle window has no ratio to report — not 0.0, not 1.0
    idle = bench_disk._io_delta(pool, after)
    assert idle["hit_rate"] is None and idle["compression_ratio"] is None
