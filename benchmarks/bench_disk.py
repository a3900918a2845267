#!/usr/bin/env python
"""Disk-backed vdoc benchmark: cold vs. warm cache, small vs. unbounded pool.

For each document size the document is vectorized, saved in the paged
on-disk format, and queried (one XPath and one two-variable-join XQ)
in four regimes:

* ``cold / small pool``      — fresh open, pool of --pool-pages frames:
  every touched vector chain is read from disk through the bounded pool;
* ``warm columns / small``   — same document object re-queried: the numpy
  columns are cached, zero physical I/O;
* ``cold / unbounded pool``  — fresh open, unbounded pool: same physical
  reads as the small pool (lazy loading reads each chain at most once
  either way — the paper's scan-once claim, now measured in pages);
* ``pool-warm / unbounded``  — columns dropped but the pool retains every
  page: rescans are pure buffer hits, zero reads;
* ``cold / noverify``        — fresh open with per-page checksum
  verification disabled: the baseline that prices the format-v2
  integrity checks.  The cold-path checksum overhead must stay under 10%
  (asserted only when the baseline is long enough to time reliably).

Two repository regimes follow: collection queries over one shared
bounded pool, and **catalog pruning** — repositories where most members
are schema-disjoint from the query, asserting the pruned members are
skipped with zero page I/O and the answer stays byte-identical.

A **compression regime** closes the sweep: a codec-rich document
(low-cardinality, sequential-numeric and prose vectors) is saved both
as format v4 (per-vector codecs) and as the uncompressed ``fmt=3``
layout, and a cold query battery runs over each.  The v4 file must read
fewer pages — roughly in proportion to its cataloged byte-level
compression ratio — at bounded decode CPU cost, answer byte-identically,
and evaluate its dictionary-equality selection with *zero* decoded
values on the predicate vector (machine-asserted through the context's
decode counters).  A high-cardinality twin checks the fallback edge:
when values resist coding, v4 degrades gracefully and never costs more
pages than v3.

Before timing, both queries are checked byte-identical against the
in-memory document.  Results go to BENCH_disk.json.  Exits nonzero if a
regime breaks its expected I/O profile (disable with --no-assert;
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
from repro.core.engine import eval_query, eval_xq  # noqa: E402
from repro.core.vdoc import VectorizedDocument  # noqa: E402
from repro.datasets.synth import xmark_like_xml  # noqa: E402
from repro.repo import Repository  # noqa: E402
from repro.storage import open_vdoc  # noqa: E402
from repro.util import Timer, fmt_table, human_count  # noqa: E402

#: cold-path checksum overhead ceiling, and the shortest noverify
#: baseline that is long enough to price it against
MAX_CRC_OVERHEAD = 0.10
CRC_TIMING_FLOOR_S = 0.05

XPATH = "//item[quantity > 5]/name"
XQ = ("for $c in /site/closed_auctions/closed_auction, "
      "$p in /site/people/person where $c/buyer = $p/@id "
      "return <pair>{$p/name}{$c/price}</pair>")


def _answers(vdoc) -> tuple:
    return (eval_query(vdoc, XPATH).canonical(), eval_xq(vdoc, XQ).to_xml())


def _run_both(vdoc) -> float:
    with Timer() as t:
        _answers(vdoc)
    return t.elapsed


def _io_delta(pool, before: dict) -> dict:
    """Counter deltas since ``before``.  ``hit_rate`` and
    ``compression_ratio`` are ratios *of* counters, so they are recomputed
    from the differenced counters (``None`` when the window saw no pin /
    materialized no column) rather than subtracted."""
    now = pool.stats.as_dict()
    delta = {k: now[k] - before[k] for k in before}
    pins = delta["hits"] + delta["misses"]
    delta["hit_rate"] = round(delta["hits"] / pins, 4) if pins else None
    logical = delta["logical_bytes"]
    delta["compression_ratio"] = \
        round(delta["physical_bytes"] / logical, 4) if logical else None
    return delta


#: shared-pool repository regime: member document sizes (people per doc)
REPO_MEMBERS = (3, 7, 5)
REPO_XQ = ("for $p in /site/people/person where $p/profile/age > '40' "
           "return <r>{$p/name}{$p/profile/age}</r>")


def run_repo_regime(sizes, pool_pages, page_size, tmpdir) -> tuple[list, list]:
    """Multi-document repositories over one shared bounded pool: every
    member is queried through the same frames, so the pool must evict
    fairly across members and end with zero pins.  Results are checked
    byte-identical to concatenated per-document in-memory evaluation."""
    from repro.core.xquery.parser import parse_xq
    from repro.xmldata.model import Element
    from repro.xmldata.serializer import serialize

    records, failures = [], []
    xq = parse_xq(REPO_XQ)
    print("\n== shared-pool repository (collection queries) ==")
    for n_people in sizes:
        rdir = os.path.join(tmpdir, f"repo_{n_people}")
        repo = Repository.init(rdir, "bench")
        kids = []
        for i, scale in enumerate(REPO_MEMBERS):
            n = max(1, n_people * scale // 10)
            xml = xmark_like_xml(n, seed=100 + i)
            src = os.path.join(tmpdir, f"m{i}_{n_people}.xml")
            with open(src, "w", encoding="utf-8") as f:
                f.write(xml)
            repo.add(src, name=f"m{i}", page_size=page_size)
            mem = VectorizedDocument.from_xml(xml)
            kids.extend(eval_xq(mem, xq).vdoc.to_tree().children)
        expected = serialize(Element(xq.root_tag, children=kids))
        repo.close()

        repo = Repository.open(rdir, pool_pages=pool_pages)
        with Timer() as t_cold:
            result = repo.xq(REPO_XQ)
        if result.to_xml() != expected:
            failures.append(f"repo n={n_people}: collection result diverges "
                            f"from concatenated per-document evaluation")
        stats = repo.io_stats()
        file_pages = sum(
            os.path.getsize(os.path.join(rdir, m["file"])) // page_size
            for m in repo.manifest["members"])
        with Timer() as t_warm:
            repo.xq(REPO_XQ)
        repo.close()

        if stats["pinned"] != 0:
            failures.append(f"repo n={n_people}: leaked pins pool-wide")
        if stats["pool_resident"] > pool_pages:
            failures.append(f"repo n={n_people}: pool overflowed capacity")
        if stats["pool_pages_read"] > pool_pages \
                and stats["pool_evictions"] == 0:
            failures.append(f"repo n={n_people}: shared pool never evicted "
                            f"({stats['pool_pages_read']} pages read "
                            f"through {pool_pages} frames)")
        members_read = [m for i in range(len(REPO_MEMBERS))
                        for m in [f"m{i}.pages_read"] if stats.get(m, 0) > 0]
        if len(members_read) != len(REPO_MEMBERS):
            failures.append(f"repo n={n_people}: not every member did I/O "
                            f"through the shared pool")
        print(f"  n={n_people}: members={len(REPO_MEMBERS)} "
              f"pages={file_pages} pool={pool_pages}"
              f"  cold {t_cold.elapsed * 1e3:.2f}ms"
              f"  warm {t_warm.elapsed * 1e3:.2f}ms"
              f"  reads={stats['pool_pages_read']}"
              f" evictions={stats['pool_evictions']}"
              f" tuples={result.n_tuples}")
        records.append({
            "n_people": n_people,
            "members": len(REPO_MEMBERS),
            "file_pages": file_pages,
            "pool_pages": pool_pages,
            "t_cold_s": t_cold.elapsed,
            "t_warm_s": t_warm.elapsed,
            "result_tuples": result.n_tuples,
            **{f"io_{k}": v for k, v in stats.items()},
        })
    return records, failures


#: catalog-pruning regime: how many members match the query schema and
#: how many are schema-disjoint (prunable straight from the manifest)
PRUNE_HITS = 2
PRUNE_MISSES = 3


def run_prune_regime(sizes, pool_pages, page_size, tmpdir) -> tuple[list, list]:
    """Repositories where most members cannot match the query: catalog
    pruning must skip them with *zero* page I/O (they are never opened)
    and the pruned result must stay byte-identical to the full
    evaluation."""
    records, failures = [], []
    print("\n== catalog pruning (schema-disjoint members) ==")
    for n_people in sizes:
        rdir = os.path.join(tmpdir, f"prune_{n_people}")
        repo = Repository.init(rdir, "bench")
        for i in range(PRUNE_HITS):
            src = os.path.join(tmpdir, f"hit{i}_{n_people}.xml")
            with open(src, "w", encoding="utf-8") as f:
                f.write(xmark_like_xml(n_people, seed=200 + i))
            repo.add(src, name=f"hit{i}", page_size=page_size)
        for i in range(PRUNE_MISSES):
            # same bulk, different root label: every path starts <store>,
            # so a /site query can be refuted from the catalog alone
            xml = xmark_like_xml(n_people, seed=300 + i)
            xml = xml.replace("<site>", "<store>", 1) \
                     .replace("</site>", "</store>")
            src = os.path.join(tmpdir, f"miss{i}_{n_people}.xml")
            with open(src, "w", encoding="utf-8") as f:
                f.write(xml)
            repo.add(src, name=f"miss{i}", page_size=page_size)
        repo.close()

        repo = Repository.open(rdir, pool_pages=pool_pages)
        with Timer() as t_pruned:
            result = repo.xq(REPO_XQ)
        stats = repo.io_stats()
        repo.close()
        expected_pruned = sorted(f"miss{i}" for i in range(PRUNE_MISSES))
        if sorted(result.pruned) != expected_pruned:
            failures.append(f"prune n={n_people}: pruned {result.pruned}, "
                            f"expected {expected_pruned}")
        miss_reads = sum(stats.get(f"{m}.pages_read", 0)
                         for m in expected_pruned)
        if miss_reads != 0:
            failures.append(f"prune n={n_people}: pruned members read "
                            f"{miss_reads} pages (expected zero I/O)")

        repo = Repository.open(rdir, pool_pages=pool_pages)
        with Timer() as t_full:
            full = repo.xq(REPO_XQ, prune=False)
        repo.close()
        if result.to_xml() != full.to_xml():
            failures.append(f"prune n={n_people}: pruned result diverges "
                            f"from the full evaluation")
        speedup = t_full.elapsed / t_pruned.elapsed \
            if t_pruned.elapsed > 0 else float("inf")
        print(f"  n={n_people}: hits={PRUNE_HITS} misses={PRUNE_MISSES}"
              f"  pruned {t_pruned.elapsed * 1e3:.2f}ms"
              f"  full {t_full.elapsed * 1e3:.2f}ms"
              f"  speedup {speedup:.2f}x"
              f"  pruned_reads={miss_reads}")
        records.append({
            "n_people": n_people,
            "hits": PRUNE_HITS,
            "misses": PRUNE_MISSES,
            "pruned": sorted(result.pruned),
            "pruned_member_pages_read": miss_reads,
            "t_pruned_s": t_pruned.elapsed,
            "t_full_s": t_full.elapsed,
            "speedup": speedup,
            "result_tuples": result.n_tuples,
        })
    return records, failures


#: compression regime: cold pages through v4 may exceed the byte-level
#: compression ratio by at most this much (paging granularity slack)
COMPRESSION_PAGE_SLACK = 0.25
#: decode CPU ceiling: the cold v4 battery vs. its uncompressed twin,
#: asserted only when the twin is long enough to time reliably
MAX_CODEC_CPU_OVERHEAD = 0.50
CODEC_TIMING_FLOOR_S = 0.05

COMP_XQ = ("for $i in /r/items/it where $i/cat = 'c3' "
           "return <o>{$i/id}</o>")
CAT_PATH = ("r", "items", "it", "cat", "#")


def _codec_rich_xml(n_values: int) -> str:
    """Low-cardinality + sequential-numeric + prose vectors: one per
    codec (dict, delta, zlib)."""
    items = "".join(
        f"<it><id>{100000 + i}</id><cat>c{i % 7}</cat>"
        f"<note>shared prose prefix, distinct tail {i} of many</note></it>"
        for i in range(n_values))
    return f"<r><items>{items}</items></r>"


def _high_card_xml(n_values: int) -> str:
    """High-cardinality, high-entropy values: dictionary and delta coding
    are inapplicable, so v4 must degrade gracefully (zlib or identity)
    without ever costing more pages than the uncompressed layout."""
    import hashlib

    items = "".join(
        f"<it><v>{hashlib.sha256(str(i).encode()).hexdigest()[:20]}</v></it>"
        for i in range(n_values))
    return f"<r><items>{items}</items></r>"


def _battery(disk) -> tuple:
    """The cold battery: a dict-equality selection, a numeric range and a
    string-equality sweep — together they touch every vector kind."""
    return (eval_xq(disk, COMP_XQ).to_xml(),
            eval_query(disk, "//it[id >= 100000]").count(),
            eval_query(disk, "//it[note = 'no such note']").count())


def run_compression_regime(sizes, pool_pages, page_size,
                           tmpdir) -> tuple[list, list]:
    from repro.core.context import EvalContext

    records, failures = [], []
    print("\n== compressed storage (format v4 vs uncompressed fmt=3) ==")
    for n_people in sizes:
        n_values = n_people * 10
        mem = VectorizedDocument.from_xml(_codec_rich_xml(n_values))
        p4 = os.path.join(tmpdir, f"comp4_{n_people}.vdoc")
        p3 = os.path.join(tmpdir, f"comp3_{n_people}.vdoc")
        s4 = mem.save(p4, page_size=page_size)
        s3 = mem.save(p3, page_size=page_size, fmt=3)
        byte_ratio = s4["compression_ratio"]
        expected = _battery(mem)

        timings, reads = {}, {}
        for fmt, path in (("v3", p3), ("v4", p4)):
            with VectorizedDocument.open(path, pool_pages=pool_pages) as d:
                base = d.pool.stats.pages_read
                with Timer() as t:
                    got = _battery(d)
                timings[fmt] = t.elapsed
                reads[fmt] = d.pool.stats.pages_read - base
                if got != expected:
                    failures.append(f"compress n={n_people}: {fmt} answers "
                                    f"diverge from memory")
                if d.pool.pinned_total() != 0:
                    failures.append(f"compress n={n_people}: {fmt} leaked "
                                    f"pins")

        # the machine assertion: the dict-eq selection decodes nothing
        with VectorizedDocument.open(p4, pool_pages=pool_pages) as d:
            ctx = EvalContext.for_doc(d)
            eval_xq(d, COMP_XQ, ctx=ctx)
            dict_decodes = ctx.decode_counts(d).get(CAT_PATH, 0)
        if dict_decodes:
            failures.append(f"compress n={n_people}: dict-eq selection "
                            f"decoded {dict_decodes} values (expected 0)")

        page_ratio = reads["v4"] / reads["v3"] if reads["v3"] else 1.0
        overhead = timings["v4"] / timings["v3"] - 1.0 \
            if timings["v3"] > 0 else 0.0
        timed = timings["v3"] >= CODEC_TIMING_FLOOR_S
        if reads["v4"] >= reads["v3"]:
            failures.append(f"compress n={n_people}: v4 read {reads['v4']} "
                            f"cold pages, v3 read {reads['v3']} — "
                            f"compression saved nothing")
        if page_ratio > byte_ratio + COMPRESSION_PAGE_SLACK:
            failures.append(f"compress n={n_people}: cold page ratio "
                            f"{page_ratio:.2f} not tracking byte ratio "
                            f"{byte_ratio:.2f}")
        if timed and overhead > MAX_CODEC_CPU_OVERHEAD:
            failures.append(f"compress n={n_people}: decoding costs "
                            f"{overhead * 100:.0f}% cold CPU (budget "
                            f"{MAX_CODEC_CPU_OVERHEAD * 100:.0f}%)")

        # fallback edge: a high-cardinality twin must never pay pages
        # for failed compression (a v4 file is never worse than v3)
        hc = VectorizedDocument.from_xml(_high_card_xml(n_values))
        h4 = os.path.join(tmpdir, f"hc4_{n_people}.vdoc")
        h3 = os.path.join(tmpdir, f"hc3_{n_people}.vdoc")
        hs4 = hc.save(h4, page_size=page_size)
        hs3 = hc.save(h3, page_size=page_size, fmt=3)
        if hs4["pages"] > hs3["pages"] * 1.02 + 2:
            failures.append(f"compress n={n_people}: high-cardinality v4 "
                            f"file grew past its v3 twin "
                            f"({hs4['pages']} vs {hs3['pages']} pages)")

        print(f"  n_values={n_values}: byte_ratio={byte_ratio:.3f}"
              f"  cold pages v3={reads['v3']} v4={reads['v4']}"
              f" (ratio {page_ratio:.2f})"
              f"  cpu {overhead * 100:+.0f}%"
              + ("" if timed else " [below timing floor, not asserted]")
              + f"  dict_decodes={dict_decodes}"
              f"  highcard pages v3={hs3['pages']} v4={hs4['pages']}")
        records.append({
            "n_people": n_people,
            "n_values": n_values,
            "logical_bytes": s4["logical_bytes"],
            "physical_bytes": s4["physical_bytes"],
            "byte_ratio": byte_ratio,
            "codecs": s4["codecs"],
            "pages_cold_v3": reads["v3"],
            "pages_cold_v4": reads["v4"],
            "page_ratio": round(page_ratio, 4),
            "t_cold_v3_s": timings["v3"],
            "t_cold_v4_s": timings["v4"],
            "cpu_overhead": round(overhead, 4),
            "cpu_timed": timed,
            "dict_decodes": dict_decodes,
            "highcard_pages_v3": hs3["pages"],
            "highcard_pages_v4": hs4["pages"],
            "highcard_codecs": hs4["codecs"],
        })
    return records, failures


def run(sizes, pool_pages, page_size, out_path, do_assert) -> int:
    records = []
    failures: list[str] = []
    overheads: dict[int, float] = {}
    tmpdir = tempfile.mkdtemp(prefix="bench_disk_")
    for n_people in sizes:
        xml = xmark_like_xml(n_people, seed=42)
        mem = VectorizedDocument.from_xml(xml)
        path = os.path.join(tmpdir, f"doc_{n_people}.vdoc")
        with Timer() as t_save:
            summary = mem.save(path, page_size=page_size)
        mem_answers = _answers(mem)

        print(f"\n== n_people={n_people}"
              f"  nodes={human_count(mem.stats()['document_nodes'])}"
              f"  file={summary['bytes'] / 1024:.0f}KiB"
              f"  pages={summary['pages']}"
              f"  (save {t_save.elapsed:.2f}s)")

        # correctness gate on its own open so the timed opens stay cold
        with VectorizedDocument.open(path, pool_pages=pool_pages) as disk:
            assert _answers(disk) == mem_answers, "disk answers diverge"

        regimes = []

        # cold + small bounded pool
        disk = VectorizedDocument.open(path, pool_pages=pool_pages)
        base = disk.pool.stats.as_dict()
        t = _run_both(disk)
        regimes.append(("cold/small", t, _io_delta(disk.pool, base)))

        # warm columns, same small pool
        base = disk.pool.stats.as_dict()
        t = _run_both(disk)
        regimes.append(("warm/small", t, _io_delta(disk.pool, base)))
        disk.close()

        # cold + unbounded pool
        disk = VectorizedDocument.open(path, pool_pages=None)
        base = disk.pool.stats.as_dict()
        t = _run_both(disk)
        regimes.append(("cold/unbounded", t, _io_delta(disk.pool, base)))

        # pool-warm: drop the numpy columns, keep every page resident
        disk.drop_caches()
        base = disk.pool.stats.as_dict()
        t = _run_both(disk)
        regimes.append(("poolwarm/unbounded", t,
                        _io_delta(disk.pool, base)))
        disk.close()

        # cold again, checksums off: prices the format-v2 verification
        disk = open_vdoc(path, pool_pages=None, verify_checksums=False)
        base = disk.pool.stats.as_dict()
        t = _run_both(disk)
        regimes.append(("cold/noverify", t, _io_delta(disk.pool, base)))
        disk.close()

        io_by_name = {}
        times = {}
        for name, t, io in regimes:
            io_by_name[name] = io
            times[name] = t
            records.append({
                "n_people": n_people,
                "file_bytes": summary["bytes"],
                "file_pages": summary["pages"],
                "page_size": page_size,
                "pool_pages": pool_pages if "small" in name else None,
                "regime": name,
                "t_s": t,
                **{f"io_{k}": v for k, v in io.items()},
            })

        # expected I/O profiles
        if io_by_name["warm/small"]["pages_read"] != 0:
            failures.append(f"n={n_people}: warm columns still read pages")
        if io_by_name["poolwarm/unbounded"]["pages_read"] != 0:
            failures.append(f"n={n_people}: unbounded pool rescan missed")
        for name in ("cold/small", "cold/unbounded"):
            if io_by_name[name]["pages_read"] > summary["pages"]:
                failures.append(f"n={n_people}: {name} read more pages than "
                                f"the whole file (scan-once broken)")
        if io_by_name["cold/small"]["evictions"] == 0 \
                and io_by_name["cold/small"]["pages_read"] > pool_pages:
            failures.append(f"n={n_people}: small pool never evicted")
        if io_by_name["cold/noverify"]["pages_read"] != \
                io_by_name["cold/unbounded"]["pages_read"]:
            failures.append(f"n={n_people}: noverify run changed the "
                            f"physical read count")

        # checksum overhead: verified cold pass vs. the noverify twin
        t_verify, t_plain = times["cold/unbounded"], times["cold/noverify"]
        overhead = t_verify / t_plain - 1.0 if t_plain > 0 else 0.0
        overheads[n_people] = overhead
        print(f"   checksum overhead (cold): {overhead * 100:+.1f}%"
              + ("" if t_plain >= CRC_TIMING_FLOOR_S
                 else "  [below timing floor, not asserted]"))
        if t_plain >= CRC_TIMING_FLOOR_S and overhead > MAX_CRC_OVERHEAD:
            failures.append(
                f"n={n_people}: checksum verification costs "
                f"{overhead * 100:.1f}% on the cold path "
                f"(budget {MAX_CRC_OVERHEAD * 100:.0f}%)")

    repo_records, repo_failures = run_repo_regime(
        sizes, pool_pages, page_size, tmpdir)
    failures.extend(repo_failures)

    prune_records, prune_failures = run_prune_regime(
        sizes, pool_pages, page_size, tmpdir)
    failures.extend(prune_failures)

    comp_records, comp_failures = run_compression_regime(
        sizes, pool_pages, page_size, tmpdir)
    failures.extend(comp_failures)

    headers = ["people", "regime", "time (ms)", "reads", "hits", "evict"]
    rows = [[human_count(r["n_people"]), r["regime"], f"{r['t_s'] * 1e3:.2f}",
             r["io_pages_read"], r["io_hits"], r["io_evictions"]]
            for r in records]
    print("\n" + fmt_table(headers, rows))

    payload = {
        "bench": "disk_backed_vdoc",
        "version": __version__,
        "sizes_n_people": list(sizes),
        "page_size": page_size,
        "pool_pages": pool_pages,
        "queries": {"xpath": XPATH, "xq": XQ},
        "records": records,
        "repo_regime": {
            "members": list(REPO_MEMBERS),
            "xq": REPO_XQ,
            "records": repo_records,
        },
        "prune_regime": {
            "hits": PRUNE_HITS,
            "misses": PRUNE_MISSES,
            "xq": REPO_XQ,
            "records": prune_records,
        },
        "compression_regime": {
            "xq": COMP_XQ,
            "page_slack": COMPRESSION_PAGE_SLACK,
            "max_cpu_overhead": MAX_CODEC_CPU_OVERHEAD,
            "records": comp_records,
        },
        "checksum_overhead": {str(n): round(v, 4)
                              for n, v in overheads.items()},
        "max_crc_overhead": MAX_CRC_OVERHEAD,
        "profile_failures": failures,
    }
    pathlib.Path(out_path).write_text(json.dumps(payload, indent=2) + "\n",
                                      encoding="utf-8")
    print(f"wrote {out_path}")

    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1 if do_assert else 0
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--sizes", default=None,
                    help="comma-separated n_people sizes (default 500,2000,8000)")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny documents for CI")
    ap.add_argument("--pool-pages", type=int, default=16,
                    help="bounded-pool size in pages (default 16)")
    ap.add_argument("--page-size", type=int, default=4096)
    ap.add_argument("--out", default=str(
        pathlib.Path(__file__).resolve().parent.parent / "BENCH_disk.json"))
    ap.add_argument("--no-assert", action="store_true")
    args = ap.parse_args(argv)

    if args.sizes:
        sizes = [int(s) for s in args.sizes.split(",")]
    elif args.smoke:
        sizes = [50, 200]
    else:
        sizes = [500, 2000, 8000]
    return run(sizes, args.pool_pages, args.page_size, args.out,
               not args.no_assert)


if __name__ == "__main__":
    sys.exit(main())
