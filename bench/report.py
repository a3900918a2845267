"""Metric assembly and the printed report.

``END_TO_END`` and ``PER_LAYER`` are the metric names and units of
``BENCHMARK.json`` (a self-test keeps the two in step).  Every workload
reports every metric; a per-layer metric a workload never exercises
reads 0.
"""

from __future__ import annotations

import statistics

from repro.util import fmt_table

import stats
from tracing import counter_totals, self_seconds

END_TO_END = (
    ("ops_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("stored_ratio", "ratio"),
    ("setup_s", "s"),
)

#: (metric, unit, span name whose self time per op it is — or None for
#: metrics computed from counters)
PER_LAYER = (
    ("xmldata.parser.parse_ms", "ms", "parse"),
    ("core.vectorize.vectorize_ms", "ms", "vectorize"),
    ("storage.encode.save_ms", "ms", "save"),
    ("index.build_ms", "ms", "index_build"),
    ("repo.repository.add_ms", "ms", "repo_add"),
    ("core.reconstruct.export_tree_ms", "ms", "export_tree"),
    ("xmldata.serializer.export_ms", "ms", "export_serialize"),
    ("core.xquery.parse_compile_ms", "ms", "parse_compile"),
    ("core.planner.plan_ms", "ms", "plan"),
    ("core.reduction.reduce_ms", "ms", "reduce"),
    ("core.builder.build_ms", "ms", "build"),
    ("result.serialize_ms", "ms", "serialize"),
    ("core.xpath.vx_eval.xpath_ms", "ms", "xpath"),
    ("storage.vdocfile.open_ms", "ms", "open"),
    ("repo.repository.open_close_ms", "ms", "repo_open"),
    ("repo.repository.glue_ms", "ms", "glue"),
    ("storage.decode_ms", "ms", None),
    ("serve.server.overhead_ms", "ms", None),
    ("repo.inproc_eval_ms", "ms", "inproc"),
    ("op_ms", "ms", None),
    ("storage.buffer.pages_read_per_op", "count", None),
    ("storage.buffer.hits_per_op", "count", None),
    ("storage.buffer.evictions_per_op", "count", None),
    ("storage.buffer.read_retries", "count", None),
    ("storage.buffer.hit_rate", "ratio", None),
    ("storage.codecs.decoded_values_per_op", "count", None),
    ("storage.codecs.physical_over_logical", "ratio", None),
    ("index.pages_per_doc", "count", None),
    ("core.planner.access_index_share", "ratio", None),
    ("core.planner.access_dict_share", "ratio", None),
    ("core.reduction.combos_per_op", "count", None),
    ("core.reduction.rows_out_per_op", "count", None),
    ("result.bytes_per_op", "bytes", None),
    ("core.xpath.vx_eval.paths_aligned_per_op", "count", None),
    ("repo.repository.members_pruned_per_op", "count", None),
    ("repo.rescache.hit_rate", "ratio", None),
    ("repo.rescache.evictions", "count", None),
    ("serve.server.http_503", "count", None),
    ("core.vectorize.skeleton_ratio", "ratio", None),
    ("core.vectorize.vectors", "count", None),
    ("trace_overhead_ratio", "ratio", None),
)

#: stages whose cold time hides storage + decode (columns and index
#: segments materialize on first scan)
_STAGES = ("plan", "reduce", "build", "serialize", "xpath")


def end_to_end(result, setup_times: list[float], stored_ratio: float) -> dict:
    lat = [ms for _, ms in result.samples]
    values = {
        "ops_s": (result.ops_done or len(lat)) / result.elapsed,
        "p50_ms": statistics.median(lat),
        "peak_rss_mb": result.peak_rss_mb,
        "stored_ratio": stored_ratio,
        "setup_s": statistics.median(setup_times),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(spans: list[dict], info: dict, docs: dict) -> dict:
    """The per-layer metrics of one traced run.  ``docs`` carries the
    skeleton statistics of the workload's documents."""
    n = max(1, info.get("traced_ops", 0))
    cold = self_seconds(spans, "name", replay=False)
    warm = self_seconds(spans, "name", replay=True)
    c = counter_totals(spans)
    # a stage's own time is its warm replay where there is one; what the
    # cold run spent beyond that is storage + decode
    hidden = sum(max(0.0, cold.get(s, 0.0) - warm[s])
                 for s in _STAGES if s in warm)
    own = {name: warm[name] if name in _STAGES and name in warm else t
           for name, t in cold.items()}
    own["repo_open"] = own.get("repo_open", 0.0) + own.pop("repo_close", 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    preds = sum(c.get(f"access_{k}", 0) for k in ("scan", "index", "dict"))
    v = {name: own.get(span, 0.0) * 1e3 / n
         for name, _, span in PER_LAYER if span}
    v.update({
        "storage.decode_ms": hidden * 1e3 / n,
        "serve.server.overhead_ms":
            (cold.get("request", 0.0) - cold.get("inproc", 0.0)) * 1e3 / n
            if "request" in cold else 0.0,
        "op_ms": (sum(cold.values()) - cold.get("inproc", 0.0)) * 1e3 / n,
        "storage.buffer.pages_read_per_op": c.get("pages_read", 0) / n,
        "storage.buffer.hits_per_op": c.get("hits", 0) / n,
        "storage.buffer.evictions_per_op": c.get("evictions", 0) / n,
        "storage.buffer.read_retries": c.get("read_retries", 0),
        "storage.buffer.hit_rate": ratio(
            c.get("hits", 0), c.get("hits", 0) + c.get("misses", 0)),
        "storage.codecs.decoded_values_per_op":
            c.get("decoded_values", 0) / n,
        "storage.codecs.physical_over_logical": ratio(
            c.get("saved_physical_bytes", c.get("physical_bytes", 0)),
            c.get("saved_logical_bytes", c.get("logical_bytes", 0))),
        "index.pages_per_doc": c.get("index_pages", 0) / n,
        "core.planner.access_index_share":
            ratio(c.get("access_index", 0), preds),
        "core.planner.access_dict_share":
            ratio(c.get("access_dict", 0), preds),
        "core.reduction.combos_per_op": c.get("combos", 0) / n,
        "core.reduction.rows_out_per_op": c.get("rows_out", 0) / n,
        "result.bytes_per_op": c.get("result_bytes", 0) / n,
        "core.xpath.vx_eval.paths_aligned_per_op":
            c.get("paths_aligned", 0) / n,
        "repo.repository.members_pruned_per_op": c.get("pruned", 0) / n,
        "repo.rescache.hit_rate": info.get("cache_hit_rate", 0.0),
        "repo.rescache.evictions": info.get("cache_evictions", 0),
        "serve.server.http_503": info.get("http_503", 0),
        "core.vectorize.skeleton_ratio": ratio(
            docs.get("skeleton_nodes", c.get("skeleton_nodes", 0)),
            docs.get("document_nodes", c.get("document_nodes", 0))),
        "core.vectorize.vectors":
            docs.get("vectors", ratio(c.get("vectors", 0), n)),
        "trace_overhead_ratio": ratio(info.get("traced_ms", 0.0),
                                      info.get("untraced_ms", 0.0)),
    })
    return {name: {"value": v[name], "unit": unit}
            for name, unit, _ in PER_LAYER}


def layer_table(metrics: dict) -> str:
    """ms per op and share of the op, one row per timed layer metric."""
    op_ms = metrics["op_ms"]["value"] or 1.0
    rows = [[name, f"{m['value']:.3f}", f"{100 * m['value'] / op_ms:.1f}%"]
            for name, m in metrics.items()
            if m["unit"] == "ms" and m["value"] and name != "op_ms"]
    rows.append(["op_ms (traced op, mean)", f"{op_ms:.3f}", "100.0%"])
    return fmt_table(["layer (self time)", "ms/op", "% of op"], rows)


def class_rows(samples: list) -> list[str]:
    """Informational per-class medians and supported tails."""
    by_cls: dict[str, list[float]] = {}
    for cls, ms in samples:
        by_cls.setdefault(cls, []).append(ms)
    out = []
    for cls, lat in [("all", [ms for _, ms in samples]), *by_cls.items()]:
        s = stats.summary(lat)
        tail = (f"p{s['tail_pct']:g} {s['tail_ms']:.3f} ms"
                if "tail_ms" in s else "no tail (< 40 samples)")
        out.append(f"  {cls:10} n={s['n']:<6} p50 {s['p50_ms']:.3f} ms   {tail}")
    return out
