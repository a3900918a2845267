#!/usr/bin/env python
"""XQ benchmark: graph reduction over extended vectors vs. the naive
nested-loop reference on the reconstructed tree.

For each document size the same XQ queries (joins + selections, the
workload of paper §4) run two ways:

* ``naive`` — reconstruct the full tree from (skeleton, vectors), then
  evaluate the FLWR expression with nested loops node at a time;
* ``vx``    — compile to (Gq, Gr), order operations with the heuristic
  planner, reduce Gq edge-at-a-time over extended vectors and instantiate
  Gr with stepwise hash-cons compression — zero decompression and at most
  one scan per touched vector, both machine-asserted by the engine.

One further regime rides along: **index probes vs column scans** —
selective queries on a disk-backed document with persistent value
indexes, columns dropped between runs, asserting byte-identical answers
and the ``INDEXED_MIN_*`` speedup floors at the largest size.

Answers are checked byte-identical (after serialization) before timing.
Results go to BENCH_xq.json.  Exits nonzero if reduction does not beat
naive on every query at the largest size (disable with --no-assert;
--smoke uses tiny documents).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro import __version__  # noqa: E402
from repro.core.engine import eval_xq  # noqa: E402
from repro.core.vdoc import VectorizedDocument  # noqa: E402
from repro.core.xquery.parser import parse_xq  # noqa: E402
from repro.datasets.synth import xmark_like_xml  # noqa: E402
from repro.storage.vdocfile import open_vdoc, save_vdoc  # noqa: E402
from repro.util import Timer, best_of, fmt_table, human_count  # noqa: E402

QUERIES = {
    "XQ1-selection":
        "for $p in /site/people/person where $p/profile/age >= '60' "
        "return <r>{$p/name}</r>",
    "XQ2-desc-selection":
        "for $i in //item where $i/location = 'United States' "
        "return <hit>{$i/name/text()}</hit>",
    "XQ3-value-join":
        "for $c in /site/closed_auctions/closed_auction, "
        "$p in /site/people/person where $c/buyer = $p/@id "
        "return <pair>{$p/name}{$c/price}</pair>",
    "XQ4-join-plus-selection":
        "for $c in //closed_auction, $p in //person "
        "where $p/profile/age > '40' and $c/buyer = $p/@id "
        "return <r>{$p/emailaddress}{$c/date}</r>",
    "XQ5-nested-vars":
        "for $p in /site/people/person, $i in $p/profile/interest "
        "where $i = 'databases' return <fan>{$p/@id}</fan>",
}


#: indexed regime: selective queries on a *disk-backed* document whose
#: vectors all carry persistent value indexes.  Columns are dropped
#: before every run (the buffer pool stays warm), so the scan path pays
#: column materialization for every vector a predicate touches while the
#: index path loads only the (binary, frombuffer-decoded) index segments
#: it probes plus the result columns — the access-path gap the paper's
#: value indexes exist to open.  Thresholds hold at the largest size.
INDEXED_MIN_SEL_SPEEDUP = 5.0    # selective constant selections
INDEXED_MIN_JOIN_SPEEDUP = 3.0   # selective equality joins
INDEXED_QUERIES = {
    "IXQ1-needle-selection": (
        "sel",
        "for $p in /site/people/person where $p/name = 'name 7' "
        "and $p/emailaddress = 'mailto:person7@example.com' "
        "and $p/@id = 'person7' return <r>{$p/phone}</r>"),
    "IXQ2-selective-join": (
        "join",
        "for $c in /site/closed_auctions/closed_auction, "
        "$p in /site/people/person where $p/name = 'name 7' "
        "and $c/buyer = $p/@id return <pair>{$c/price}</pair>"),
}


def run_indexed_regime(sizes: list[int], repeat: int,
                       workdir: str) -> tuple[list[dict], dict[str, float]]:
    """Time INDEXED_QUERIES with and without index probes on cold-column
    disk documents; returns (records, min speedup per kind at the largest
    size)."""
    records = []
    print("\n== index probes vs column scans (disk, cold columns) ==")
    for n_people in sizes:
        vdoc = VectorizedDocument.from_xml(xmark_like_xml(n_people, seed=42))
        path = str(pathlib.Path(workdir) / f"ix{n_people}.vdoc")
        with Timer() as t_build:
            summary = save_vdoc(vdoc, path, index_paths="all")
        with open_vdoc(path) as doc:
            for name, (kind, query) in INDEXED_QUERIES.items():
                xq = parse_xq(query)
                # byte-identical answers and an actually-indexed plan,
                # machine-checked before any timing
                ix_res = eval_xq(doc, xq, use_indexes=True)
                doc.drop_caches()
                scan_res = eval_xq(doc, xq, use_indexes=False)
                doc.drop_caches()
                assert ix_res.to_xml() == scan_res.to_xml(), name
                assert any(op.access == "index"
                           for op in ix_res.plan.ops), name
                assert all(op.access == "scan"
                           for op in scan_res.plan.ops), name

                def indexed():
                    doc.drop_caches()
                    return eval_xq(doc, xq, use_indexes=True)

                def scanned():
                    doc.drop_caches()
                    return eval_xq(doc, xq, use_indexes=False)

                t_ix = best_of(indexed, repeat)
                t_scan = best_of(scanned, repeat)
                speedup = t_scan / t_ix if t_ix > 0 else float("inf")
                print(f"  n_people={n_people} {name}"
                      f"  indexed {t_ix * 1e3:.1f}ms"
                      f"  scan {t_scan * 1e3:.1f}ms"
                      f"  speedup {speedup:.2f}x"
                      f"  tuples={ix_res.n_tuples}")
                records.append({
                    "n_people": n_people,
                    "query": name,
                    "kind": kind,
                    "xq": query,
                    "result_tuples": ix_res.n_tuples,
                    "index_pages": summary["index_pages"],
                    "t_index_build_s": t_build.elapsed,
                    "t_indexed_s": t_ix,
                    "t_scan_s": t_scan,
                    "speedup": speedup,
                })
        os.unlink(path)
    largest = max(sizes)
    mins = {
        kind: min(r["speedup"] for r in records
                  if r["n_people"] == largest and r["kind"] == kind)
        for kind in ("sel", "join")
    }
    return records, mins


def run(sizes: list[int], repeat: int, out_path: str, do_assert: bool,
        indexed_sizes: list[int]) -> int:
    records = []
    for n_people in sizes:
        with Timer() as t_gen:
            xml = xmark_like_xml(n_people, seed=42)
        with Timer() as t_vec:
            vdoc = VectorizedDocument.from_xml(xml)
        stats = vdoc.stats()
        print(
            f"\n== n_people={n_people}  nodes={human_count(stats['document_nodes'])}"
            f"  skeleton={stats['skeleton_nodes']} nodes"
            f"  vectors={stats['vectors']}"
            f"  (gen {t_gen.elapsed:.2f}s, vectorize {t_vec.elapsed:.2f}s)"
        )
        for name, query in QUERIES.items():
            xq = parse_xq(query)
            # sanity: byte-identical serialized answers before timing
            vx_res = eval_xq(vdoc, xq, mode="vx")
            nv_res = eval_xq(vdoc, xq, mode="naive")
            assert vx_res.to_xml() == nv_res.to_xml(), name
            t_naive = best_of(lambda: eval_xq(vdoc, xq, mode="naive"),
                              repeat)
            t_vx = best_of(lambda: eval_xq(vdoc, xq, mode="vx"), repeat)
            records.append({
                "n_people": n_people,
                "document_nodes": stats["document_nodes"],
                "skeleton_nodes": stats["skeleton_nodes"],
                "vectors": stats["vectors"],
                "query": name,
                "xq": query,
                "result_tuples": vx_res.n_tuples,
                "t_naive_s": t_naive,
                "t_vx_s": t_vx,
                "speedup": t_naive / t_vx if t_vx > 0 else float("inf"),
            })

    headers = ["nodes", "query", "tuples", "naive (ms)", "vx (ms)", "speedup"]
    rows = [
        [human_count(r["document_nodes"]), r["query"], r["result_tuples"],
         f"{r['t_naive_s'] * 1e3:.2f}", f"{r['t_vx_s'] * 1e3:.3f}",
         f"{r['speedup']:.1f}x"]
        for r in records
    ]
    print("\n" + fmt_table(headers, rows))

    largest = max(sizes)
    at_largest = [r for r in records if r["n_people"] == largest]
    min_speedup = min(r["speedup"] for r in at_largest)
    geo = 1.0
    for r in at_largest:
        geo *= r["speedup"]
    geo **= 1.0 / len(at_largest)
    print(f"\nlargest size: min speedup {min_speedup:.1f}x, "
          f"geomean {geo:.1f}x over {len(at_largest)} queries")

    with tempfile.TemporaryDirectory(prefix="bench-ix-") as workdir:
        indexed_records, indexed_mins = run_indexed_regime(
            indexed_sizes, repeat, workdir)

    payload = {
        "bench": "xq_reduction_vs_naive",
        "version": __version__,
        "sizes_n_people": sizes,
        "repeat": repeat,
        "records": records,
        "largest_size": {
            "n_people": largest,
            "min_speedup": min_speedup,
            "geomean_speedup": geo,
        },
        "indexed_regime": {
            "records": indexed_records,
            "min_speedup_at_largest": indexed_mins,
            "thresholds": {"sel": INDEXED_MIN_SEL_SPEEDUP,
                           "join": INDEXED_MIN_JOIN_SPEEDUP},
        },
    }
    pathlib.Path(out_path).write_text(json.dumps(payload, indent=2) + "\n",
                                      encoding="utf-8")
    print(f"wrote {out_path}")

    if do_assert and min_speedup < 1.0:
        print(f"FAIL: expected reduction to beat naive on every query at "
              f"the largest size, got {min_speedup:.2f}x", file=sys.stderr)
        return 1
    for kind, floor in (("sel", INDEXED_MIN_SEL_SPEEDUP),
                        ("join", INDEXED_MIN_JOIN_SPEEDUP)):
        if do_assert and indexed_mins[kind] < floor:
            print(f"FAIL: expected index probes to be at least "
                  f"{floor:.0f}x faster than cold-column scans on "
                  f"selective {kind} queries at the largest size, got "
                  f"{indexed_mins[kind]:.2f}x", file=sys.stderr)
            return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--sizes", default=None,
                    help="comma-separated n_people sizes (default 500,2000,"
                         "4000 — the naive nested-loop join is quadratic, so "
                         "sizes are smaller than the XPath benchmark's)")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny documents for CI (no speedup assertion)")
    ap.add_argument("--repeat", type=int, default=2)
    ap.add_argument("--out", default=str(
        pathlib.Path(__file__).resolve().parent.parent / "BENCH_xq.json"))
    ap.add_argument("--no-assert", action="store_true")
    args = ap.parse_args(argv)

    if args.sizes:
        sizes = [int(s) for s in args.sizes.split(",")]
    elif args.smoke:
        sizes = [50, 200, 800]
    else:
        sizes = [500, 2000, 4000]
    indexed_sizes = [2000, 20000] if args.smoke else [2000, 8000, 20000]
    do_assert = not (args.no_assert or args.smoke)
    return run(sizes, args.repeat, args.out, do_assert, indexed_sizes)


if __name__ == "__main__":
    sys.exit(main())
