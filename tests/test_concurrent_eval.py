"""Concurrent evaluation property tests (the PR's tentpole): with all
per-query accounting moved onto :class:`EvalContext`, two requests may
evaluate the *same* disk-backed document at the same time — each context
still machine-asserts scan-once, one-pass-per-op and zero leaked pins for
its own request, and every result stays byte-identical to a serial run.

The old design kept scan counters and I/O windows on the shared vectors
(guarded by a per-member evaluation lock); these tests are exactly the
workloads that lock serialized and the shared counters mis-attributed."""

import sys
import threading

import pytest

from repro.core.context import EvalContext
from repro.core.engine import eval_query, eval_xq
from repro.core.vdoc import VectorizedDocument
from repro.datasets.synth import xmark_like_xml
from repro.repo import Repository

N_THREADS = 8
ROUNDS = 3

XPATHS = [
    "/site/people/person[profile/age = '32']/name",
    "//item[quantity > 5]/name",
    "/site/regions/*/item/quantity/text()",
]

XQ_JOIN = ("for $c in /site/closed_auctions/closed_auction, "
           "$p in /site/people/person where $c/buyer = $p/@id "
           "return <pair>{$p/name}{$c/price}</pair>")


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    xml = xmark_like_xml(30, seed=11)
    path = str(tmp_path_factory.mktemp("cc") / "doc.vdoc")
    VectorizedDocument.from_xml(xml).save(path, page_size=256)
    return path


def _run_threads(worker, n=N_THREADS):
    """Run ``worker(idx)`` on ``n`` threads; re-raise the first failure."""
    errors: list[BaseException] = []

    def _wrap(i):
        try:
            worker(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=_wrap, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive(), "worker thread hung"
    if errors:
        raise errors[0]


def test_concurrent_xpath_same_member_byte_identical(saved):
    with VectorizedDocument.open(saved, pool_pages=16) as disk:
        expected = {q: eval_query(disk, q, mode="vx").canonical()
                    for q in XPATHS}

        def worker(idx):
            for r in range(ROUNDS):
                q = XPATHS[(idx + r) % len(XPATHS)]
                ctx = EvalContext.for_doc(disk)
                res = eval_query(disk, q, mode="vx", ctx=ctx)
                assert res.canonical() == expected[q]
                # this thread's own invariants, asserted per request
                assert all(c <= 1 for c in ctx.scan_counts(disk).values())
                assert disk.pool.pinned_local() == 0

        _run_threads(worker)
        assert disk.pool.pinned_total() == 0


def test_concurrent_xq_join_same_member_byte_identical(saved):
    with VectorizedDocument.open(saved, pool_pages=16) as disk:
        expected = eval_xq(disk, XQ_JOIN).to_xml()

        def worker(idx):
            for _ in range(ROUNDS):
                ctx = EvalContext.for_doc(disk)
                res = eval_xq(disk, XQ_JOIN, ctx=ctx)
                assert res.to_xml() == expected
                assert disk.pool.pinned_local() == 0

        _run_threads(worker)
        assert disk.pool.pinned_total() == 0


def test_concurrent_io_windows_are_per_context(saved):
    """Two contexts racing the same cold vector: whichever materializes
    it pays the physical reads, but *neither* context's window may exceed
    one chain pass — concurrent faults no longer inflate a shared
    counter past the invariant bound."""
    with VectorizedDocument.open(saved, pool_pages=16) as disk:
        barrier = threading.Barrier(N_THREADS)
        q = "/site/people/person[profile/age = '32']/name"

        def worker(idx):
            ctx = EvalContext.for_doc(disk)
            barrier.wait()          # maximize same-vector races
            eval_query(disk, q, mode="vx", ctx=ctx)
            for v in disk.vectors.values():
                assert ctx.pages_in_window(v) <= v.n_pages

        _run_threads(worker)


def _make_repo(tmp_path, n_members=3, **open_kw):
    d = str(tmp_path / "repo")
    repo = Repository.init(d, "auctions")
    for i in range(n_members):
        f = tmp_path / f"doc{i}.xml"
        f.write_text(xmark_like_xml(10 + 3 * i, seed=i), encoding="utf-8")
        repo.add(str(f), page_size=512)
    repo.close()
    return Repository.open(d, **open_kw)


REPO_XQ = ("for $p in /site/people/person where $p/profile/age > '30' "
           "return <r>{$p/name}{$p/profile/age}</r>")
REPO_XP = "/site/people/person/name"


def test_concurrent_repository_queries_without_eval_lock(tmp_path):
    """Mixed XQ/XPath over a shared repository from many threads — the
    same member is under evaluation by several requests at once (there is
    no member evaluation lock anymore), and every response matches the
    serial reference byte for byte."""
    with _make_repo(tmp_path, pool_pages=64) as repo:
        exp_xml = repo.xq(REPO_XQ).to_xml()
        exp_counts = [(n, r.count()) for n, r in repo.xpath(REPO_XP)]

        def worker(idx):
            for r in range(ROUNDS):
                if (idx + r) % 2:
                    assert repo.xq(REPO_XQ).to_xml() == exp_xml
                else:
                    got = [(n, res.count())
                           for n, res in repo.xpath(REPO_XP)]
                    assert got == exp_counts
                assert repo.pool.pinned_local() == 0

        _run_threads(worker)
        assert repo.pool.pinned_total() == 0


def test_concurrent_member_open_single_instance(tmp_path):
    """All threads hammering a cold member get the *same* opened document
    (the opening latch admits one leader; everyone else waits), and no
    thread sees a partially opened member."""
    with _make_repo(tmp_path) as repo:
        seen: dict[int, object] = {}
        barrier = threading.Barrier(N_THREADS)

        def worker(idx):
            barrier.wait()
            seen[idx] = repo.member("doc1")

        _run_threads(worker)
        assert len({id(v) for v in seen.values()}) == 1
        assert repo._opening == {}   # no latch left behind


def test_first_touch_races_result_construction(saved):
    """Readers first-touch a freshly opened member's lazy catalog state —
    path indexes, order keys, extension statistics, ``occ`` columns —
    while a writer's result construction keeps interning new nodes into
    overlays over the same store.  The member's store is read-only after
    open, so every answer is the serial one and the store never grows."""
    readers = XPATHS + ["//name/text()", "//*/@id"] + [XQ_JOIN]
    writes = [f"for $p in //person where $p/profile/age > '{20 + i}' "
              f"return <w{i}>{{$p/name}}{{$p/@id}}</w{i}>" for i in range(6)]

    def answer(doc, q):
        if q.startswith("/"):
            return eval_query(doc, q, mode="vx").canonical()
        res = eval_xq(doc, q)
        return res.to_xml(), res.vdoc.stats()["document_nodes"]

    with VectorizedDocument.open(saved, pool_pages=16) as disk:
        expected = {q: answer(disk, q) for q in readers + writes}

    with VectorizedDocument.open(saved, pool_pages=16) as disk:
        grown = len(disk.store)

        def worker(idx):
            if idx == 0:
                for q in writes:
                    assert answer(disk, q) == expected[q]
                return
            for r in range(len(readers)):
                q = readers[(idx + r) % len(readers)]
                assert answer(disk, q) == expected[q]
                assert disk.pool.pinned_local() == 0

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)   # switch threads mid-pass
        try:
            _run_threads(worker, n=6)
        finally:
            sys.setswitchinterval(interval)
        assert len(disk.store) == grown
        assert disk.pool.pinned_total() == 0
