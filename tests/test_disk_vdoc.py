"""Disk-backed vectorized documents: save/open roundtrip, byte-identical
query results vs. the in-memory path under a bounded buffer pool, the
scan-once invariant checked against physical page reads, and pin-count
leak checks after every query (the PR's acceptance criteria)."""

import numpy as np
import pytest

from repro.core.context import EvalContext
from repro.core.engine import eval_query, eval_xq
from repro.core.vdoc import VectorizedDocument
from repro.datasets.synth import xmark_like_xml
from repro.errors import EngineInvariantError, StorageError

XPATH_QUERIES = [
    "/site/people/person/profile/age/text()",
    "/site/people/person[profile/age = '32']/name",
    "//item[quantity > 5]/name",
    "/site/regions/*/item/quantity/text()",
    "//person[phone]",
]

AGE = ("site", "people", "person", "profile", "age", "#")
NAME = ("site", "people", "person", "name", "#")

XQ_JOIN = ("for $c in /site/closed_auctions/closed_auction, "
           "$p in /site/people/person where $c/buyer = $p/@id "
           "return <pair>{$p/name}{$c/price}</pair>")


@pytest.fixture(scope="module")
def xml():
    return xmark_like_xml(30, seed=7)


@pytest.fixture(scope="module")
def mem(xml):
    return VectorizedDocument.from_xml(xml)


@pytest.fixture()
def saved(tmp_path, mem):
    """A saved vdoc with tiny pages so every vector spans several pages."""
    path = str(tmp_path / "doc.vdoc")
    summary = mem.save(path, page_size=256)
    assert summary["pages"] > 16  # the 8-page pools below really are small
    return path


def _open_small(path):
    disk = VectorizedDocument.open(path, pool_pages=8)
    assert disk.pool is not None and disk.pool.capacity == 8
    return disk


def test_save_open_reconstruct_roundtrip(saved, xml):
    with _open_small(saved) as disk:
        assert disk.to_xml() == xml


def test_open_is_lazy(saved):
    with _open_small(saved) as disk:
        # every vector reads its records off a chain of the file
        assert all(v.n_pages > 0 for v in disk.vectors.values())
        assert not any(v.is_loaded() for v in disk.vectors.values())
        # stats (value counts included) come from the catalog, not a scan
        disk.stats()
        assert not any(v.is_loaded() for v in disk.vectors.values())


def test_stats_match_memory(saved, mem):
    with _open_small(saved) as disk:
        assert disk.stats() == mem.stats()


@pytest.mark.parametrize("query", XPATH_QUERIES)
def test_xpath_identical_to_memory_under_small_pool(saved, mem, query):
    with _open_small(saved) as disk:
        ctx = EvalContext.for_doc(disk)
        r_mem = eval_query(mem, query, mode="vx")
        r_disk = eval_query(disk, query, mode="vx", ctx=ctx)
        assert r_disk.count() == r_mem.count()
        assert r_disk.text_values() == r_mem.text_values()
        assert r_disk.canonical() == r_mem.canonical()
        # pin-count leak check after every query
        assert disk.pool.pinned_total() == 0
        # <= 1 full page pass per touched vector, against the physical
        # reads this context performed
        for v in disk.vectors.values():
            assert ctx.pages_in_window(v) <= v.n_pages


def test_xq_join_identical_to_memory_under_small_pool(saved, mem):
    with _open_small(saved) as disk:
        total_pages = sum(v.n_pages for v in disk.vectors.values())
        assert disk.pool.capacity < total_pages  # pool < total vector pages
        ctx = EvalContext.for_doc(disk)
        assert eval_xq(disk, XQ_JOIN, ctx=ctx).to_xml() \
            == eval_xq(mem, XQ_JOIN).to_xml()
        assert disk.pool.pinned_total() == 0
        for v in disk.vectors.values():
            assert ctx.pages_in_window(v) <= v.n_pages


def test_naive_mode_on_disk_document(saved, mem):
    query = "//item[quantity > 5]/name"
    with _open_small(saved) as disk:
        r_disk = eval_query(disk, query, mode="naive")
        r_mem = eval_query(mem, query, mode="naive")
        assert r_disk.canonical() == r_mem.canonical()


def test_small_pool_evicts(saved):
    with _open_small(saved) as disk:
        eval_query(disk, "/site/people/person/profile/age/text()")
        eval_xq(disk, XQ_JOIN)
        assert disk.pool.stats.evictions > 0
        assert disk.pool.resident() <= 8


def test_second_query_reads_no_pages(saved):
    with _open_small(saved) as disk:
        query = "//item[quantity > 5]/name"
        eval_query(disk, query, mode="vx")
        before = disk.pool.stats.pages_read
        eval_query(disk, query, mode="vx")  # columns are cached in numpy
        assert disk.pool.stats.pages_read == before


def test_unbounded_pool_warm_rescan_hits_only(saved):
    with VectorizedDocument.open(saved, pool_pages=None) as disk:
        eval_query(disk, "/site/people/person/profile/age/text()", mode="vx")
        disk.drop_caches()  # forget numpy columns; pool keeps the pages
        before = disk.pool.stats.pages_read
        eval_query(disk, "/site/people/person/profile/age/text()", mode="vx")
        assert disk.pool.stats.pages_read == before  # pure pool hits


def test_bounded_pool_cold_rescan_rereads(saved):
    with _open_small(saved) as disk:
        for vec in disk.vectors.values():
            vec.tolist()
        disk.drop_caches()
        before = disk.pool.stats.pages_read
        for vec in disk.vectors.values():
            vec.tolist()
        # all chains together exceed the 8-page pool: real I/O must recur
        assert disk.pool.stats.pages_read > before


def test_engine_flags_page_overread(saved):
    """A vector that reads more pages than one chain pass trips the
    engine's I/O variant of the scan-once assertion."""
    with _open_small(saved) as disk:
        vec = disk.vectors[AGE]
        ctx = EvalContext.for_doc(disk)
        original_begin = ctx.begin

        def tampered_begin(doc):
            # simulate a buggy evaluator that re-reads the chain: seed the
            # fresh window with more pages than one full pass
            original_begin(doc)
            ctx.note_io(vec, vec.n_pages + 1)

        ctx.begin = tampered_begin
        with pytest.raises(EngineInvariantError, match="chain pass"):
            eval_query(disk, "/site/people/person[profile/age = '32']",
                       ctx=ctx)


def test_reads_are_charged_to_the_owning_context(saved):
    """A read is charged to the context whose cache made it, not to the
    one evaluating on the thread: B's read inside A's guard charges B
    only, and a cache read outside any guard still charges its owner."""
    with _open_small(saved) as disk:
        age, name = disk.vectors[AGE], disk.vectors[NAME]
        a, b = EvalContext.for_doc(disk), EvalContext.for_doc(disk)
        with a.guard(disk):
            b.cache(disk).column(AGE)
        assert a.scan_counts(disk)[AGE] == 0 and a.pages_in_window(age) == 0
        assert b.scan_counts(disk)[AGE] == 1
        assert b.pages_in_window(age) == age.n_pages
        c = EvalContext.for_doc(disk)
        c.cache(disk).column(NAME)
        assert c.scan_counts(disk)[NAME] == 1
        assert c.pages_in_window(name) == name.n_pages
        assert b.scan_counts(disk)[NAME] == 0


def test_engine_flags_pin_leak(saved):
    with _open_small(saved) as disk:
        head = disk.vectors[NAME]._source.heap.head
        disk.pool.pin(head)
        try:
            with pytest.raises(EngineInvariantError, match="pin"):
                eval_query(disk, "/site/people/person/name")
        finally:
            disk.pool.unpin(head)


def test_memory_documents_report_zero_io(mem):
    ctx = EvalContext.for_doc(mem)
    eval_query(mem, "//item[quantity > 5]/name", mode="vx", ctx=ctx)
    assert any(ctx.scan_counts(mem).values())
    assert all(ctx.pages_in_window(v) == 0 and v.n_pages == 0
               for v in mem.vectors.values())
    assert mem.pool is None and mem.io_stats() == {}


def test_lazy_vector_counts_pages_once(saved):
    with _open_small(saved) as disk:
        vec = disk.vectors[AGE]
        ctx = EvalContext.for_doc(disk)
        col = ctx.cache(disk).column(AGE)
        assert isinstance(col, np.ndarray) and col.dtype.kind == "U"
        assert 0 < ctx.pages_in_window(vec) <= vec.n_pages
        read = disk.view.stats.pages_read
        again = EvalContext.for_doc(disk)
        again.cache(disk).column(AGE)  # cached: no further physical reads
        assert again.pages_in_window(vec) == 0
        assert disk.view.stats.pages_read == read


def test_value_count_mismatch_detected(saved):
    with _open_small(saved) as disk:
        vec = disk.vectors[NAME]
        vec.n += 1  # simulate a corrupt catalog entry
        with pytest.raises(StorageError, match="catalog"):
            vec.tolist()


def test_open_rejects_xml(tmp_path, xml):
    f = tmp_path / "doc.xml"
    f.write_text(xml, encoding="utf-8")
    with pytest.raises(StorageError):
        VectorizedDocument.open(str(f))


def test_save_result_document_roundtrip(tmp_path, mem):
    """A constructed XQ *result* document (an overlay store over the
    input's) saves and reopens byte-identically too."""
    out = eval_xq(mem, XQ_JOIN).vdoc
    path = str(tmp_path / "result.vdoc")
    out.save(path, page_size=256)
    with VectorizedDocument.open(path, pool_pages=4) as disk:
        assert disk.to_xml() == out.to_xml()


def test_save_does_not_depend_on_query_history(tmp_path):
    """Results intern into overlays, never into the queried document's
    store: saving after twenty distinct queries writes the same bytes."""
    vdoc = VectorizedDocument.from_xml(xmark_like_xml(100, seed=3))
    first, second = str(tmp_path / "first.vdoc"), str(tmp_path / "second.vdoc")
    vdoc.save(first)
    for i in range(20):
        eval_xq(vdoc, f"for $p in //person where $p/profile/age > '{20 + i}' "
                      f"return <w{i}>{{$p/name}}<k/>{{$p/@id}}</w{i}>")
    vdoc.save(second)
    with open(first, "rb") as a, open(second, "rb") as b:
        assert a.read() == b.read()
