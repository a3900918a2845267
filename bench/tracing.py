"""Harness-side span tracer.

Spans are recorded from the benchmark's own files, around its calls into
each layer (spans inside ``src/`` are a later change).  A span is
``(request_id, span_id, parent_id, layer, name, t0, t1, counters)`` where
``counters`` is the delta of counters read from outside the program
(``pool.stats``, ``repo.io_stats()``, ``/stats``) plus whatever the
caller attaches.  Spans stay in memory and are written out at exit.  A
layer's self time is its spans' durations minus what their child spans
cover; spans of one thread nest, so children never overlap.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.request_id = 0

    @contextmanager
    def span(self, layer: str, name: str, counters=None,
             replay: bool = False):
        """Time a block; ``counters`` is a zero-argument callable returning
        a flat dict of monotonic counters, read before and after.
        ``replay`` marks an immediate warm re-run of a stage (its time is
        the stage's own compute; cold minus replay is storage + decode)."""
        if not self._stack:
            self.request_id += 1
        before = counters() if counters else None
        rec = {"request_id": self.request_id, "span_id": len(self.spans),
               "parent_id": self._stack[-1] if self._stack else None,
               "layer": layer, "name": name, "replay": replay,
               "t0": time.perf_counter(), "t1": None, "counters": {}}
        self.spans.append(rec)
        self._stack.append(rec["span_id"])
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            self._stack.pop()
            if counters:
                after = counters()
                for k, v in after.items():
                    if v != before.get(k, 0):
                        rec["counters"][k] = v - before.get(k, 0)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.spans:
                f.write(json.dumps(rec, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """span_id -> duration minus the time its direct children cover."""
    out = {s["span_id"]: s["t1"] - s["t0"] for s in spans}
    for s in spans:
        if s["parent_id"] is not None:
            out[s["parent_id"]] -= s["t1"] - s["t0"]
    return out


def self_seconds(spans: list[dict], key: str = "layer",
                 replay: bool = False) -> dict[str, float]:
    """Total self time of the (non-)replay spans, grouped by ``key``
    (``"layer"`` or ``"name"``)."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        if s["replay"] == replay:
            out[s[key]] = out.get(s[key], 0.0) + own[s["span_id"]]
    return out


def counter_totals(spans: list[dict], replay: bool = False) -> dict[str, float]:
    """Sum of every counter attached to the (non-)replay spans.  Callers
    read each outside counter at one nesting level only, so nothing is
    counted twice."""
    out: dict[str, float] = {}
    for s in spans:
        if s["replay"] == replay:
            for k, v in s["counters"].items():
                out[k] = out.get(k, 0) + v
    return out
