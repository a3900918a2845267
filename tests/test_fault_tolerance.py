"""Fault-tolerant serving: cooperative deadlines (including the
deterministic every-checkpoint expiry sweep), the buffer pool's bounded
transient-I/O retry, the quarantine lifecycle with supervised recovery,
and the HTTP surface (504s, ``X-Quarantined``, degraded health)."""

import errno
import http.client
import os
import random
import time

import pytest

from repro.core import paths as paths_mod
from repro.core.context import EvalContext
from repro.core.engine import eval_query, eval_xq
from repro.core.paths import PathsCatalog
from repro.core.vdoc import VectorizedDocument
from repro.datasets.synth import xmark_like_xml
from repro.errors import (
    CorruptDataError,
    DeadlineExceededError,
    PoolExhaustedError,
    StorageError,
)
from repro.repo import Repository
from repro.repo.quarantine import QuarantineRegistry, QuarantineSupervisor
from repro.serve import QueryServer
from repro.storage import BufferPool, PageFile
from repro.storage import faults
from repro.storage.buffer import TransientIOError
from repro.storage.disk import FILE_HEADER
from repro.storage.faults import Fault, FaultPlan

from test_paths import _deep_xml

XQ_JOIN = ("for $c in collection('auctions')/site/closed_auctions/"
           "closed_auction, $p in /site/people/person "
           "where $c/buyer = $p/@id "
           "return <pair>{$p/name}{$c/price}</pair>")
XP_NAMES = "/site/people/person/name"
PAGE_SIZE = 512


def _build_repo(tmp_path, sizes=(12, 18)):
    d = str(tmp_path / "repo")
    repo = Repository.init(d, "auctions")
    for i, n in enumerate(sizes):
        f = tmp_path / f"m{i}.xml"
        f.write_text(xmark_like_xml(n, seed=i), encoding="utf-8")
        repo.add(str(f), page_size=PAGE_SIZE)
    repo.close()
    return d


def _corrupt_member(repo_dir, name="m0"):
    """Flip one byte in every data page of a member file; returns the
    original bytes so the test can repair it."""
    path = os.path.join(repo_dir, f"{name}.vdoc")
    original = open(path, "rb").read()
    damaged = bytearray(original)
    off = FILE_HEADER + PAGE_SIZE // 2
    while off < len(damaged):
        damaged[off] ^= 0x40
        off += PAGE_SIZE
    with open(path, "wb") as f:
        f.write(damaged)
    return path, original


def _wait_until(cond, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(0.02)
    return cond()


# -- cooperative deadlines -------------------------------------------------


def test_deadline_expiry_sweep_every_checkpoint(tmp_path):
    """The deterministic sweep: force expiry at *every* checkpoint index
    a warm evaluation passes, then a cold one (members' columns dropped
    before each run, so materializations walk their chains) — each must
    unwind with a clean DeadlineExceededError and zero leaked pins, and
    the repository must answer the next query normally.  Checkpoints
    count chain pages walked, not pool faults, so the cold count does
    not depend on which pages the pool still holds."""
    repo_dir = _build_repo(tmp_path)
    with Repository.open(repo_dir, pool_pages=16) as repo:
        expected = repo.xq(XQ_JOIN).to_xml()   # cold: materializes columns
        counts = {}
        for cold in (False, True):
            def run(ctx):
                if cold:
                    for name in repo.members():
                        repo.member(name).drop_caches()
                return repo.xq(XQ_JOIN, ctx=ctx)

            ctx = EvalContext()
            assert run(ctx).to_xml() == expected
            counts[cold] = n_checkpoints = ctx.checkpoints  # deterministic
            assert n_checkpoints >= 5

            for i in range(n_checkpoints):
                ctx = EvalContext()
                ctx.expire_at_checkpoint = i
                with pytest.raises(DeadlineExceededError):
                    run(ctx)
                assert repo.pool.pinned_total() == 0, \
                    f"pins leaked at cp {i} (cold={cold})"

            ctx = EvalContext()
            assert run(ctx).to_xml() == expected
            assert ctx.checkpoints == n_checkpoints
        assert counts[True] > counts[False]

        # expiry is the request's budget, never the member's health
        assert repo.quarantine.active() == []
        assert repo.xq(XQ_JOIN).to_xml() == expected


def test_deadline_wall_clock_and_disarm(tmp_path):
    repo_dir = _build_repo(tmp_path)
    with Repository.open(repo_dir, pool_pages=16) as repo:
        with pytest.raises(DeadlineExceededError):
            repo.xq(XQ_JOIN, deadline=0.0)
        assert repo.pool.pinned_total() == 0
        assert repo.quarantine.active() == []
        # xpath honors the same budget
        with pytest.raises(DeadlineExceededError):
            repo.xpath(XP_NAMES, deadline=0.0)
        # disarmed (the library default) still works afterwards
        assert repo.xpath(XP_NAMES)


def test_chain_walk_is_a_checkpoint(tmp_path):
    """Every chain page a cold materialization walks is a checkpoint of
    the context reading through its cache: an expired deadline stops the
    walk *before* that page's physical read, and the unwind leaves no pin
    behind and the pool serving."""
    path = str(tmp_path / "t.vdoc")
    VectorizedDocument.from_xml(xmark_like_xml(60, seed=3)).save(
        path, page_size=128)
    with VectorizedDocument.open(path, pool_pages=8) as disk:
        vpath = max(disk.vectors, key=lambda p: disk.vectors[p].n_pages)
        vec = disk.vectors[vpath]
        assert vec.n_pages >= 3
        stats = disk.view.stats
        # checkpoint 0 is the cache's touch; k >= 1 precedes chain page k
        for expire, pages in ((1, 0), (3, 2)):
            before = stats.pages_read
            ctx = EvalContext.for_doc(disk)
            ctx.expire_at_checkpoint = expire
            with pytest.raises(DeadlineExceededError):
                ctx.cache(disk).column(vpath)
            assert stats.pages_read == before + pages
            assert disk.pool.pinned_total() == 0
            assert not vec.is_loaded()
        # a walk over pages the pool still holds is checkpointed the same:
        # the last page is a pool hit, and still where the walk stops
        vec.tolist()
        vec.drop_cache()
        before = stats.pages_read
        ctx = EvalContext.for_doc(disk)
        ctx.expire_at_checkpoint = vec.n_pages
        with pytest.raises(DeadlineExceededError):
            ctx.cache(disk).column(vpath)
        assert stats.pages_read == before
        assert disk.pool.pinned_total() == 0
        ctx = EvalContext.for_doc(disk)
        assert eval_query(disk, "/site/people/person/name",
                          ctx=ctx).count() == 60
        assert len(ctx.cache(disk).column(vpath)) == len(vec)
        assert disk.pool.pinned_total() == 0


def test_resolver_candidate_is_a_checkpoint(tmp_path, monkeypatch):
    """Each candidate path the dataguide resolver matches is a checkpoint
    of the query that owns the resolution — an XPath's, an XQ plan's and
    a repository's manifest pruning — so a ``//*//*…`` expansion stops at
    an early expiry instead of matching every candidate first."""
    xml = _deep_xml(random.Random(5))
    vdoc = VectorizedDocument.from_xml(xml)
    (tmp_path / "deep.xml").write_text(xml, encoding="utf-8")
    seen = []
    real = paths_mod._alignments

    def spy(tests, cpath):
        seen.append(cpath)
        return real(tests, cpath)

    monkeypatch.setattr(paths_mod, "_alignments", spy)
    xq = ("for $n in //*//*//*//NP, $m in $n//NN where $m = 'w1' "
          "return <r>{$m}</r>")
    with Repository.init(str(tmp_path / "r.repo"), "r") as repo:
        repo.add(str(tmp_path / "deep.xml"), page_size=PAGE_SIZE)
        for run in (lambda ctx: eval_query(vdoc, "//*//*//*//*/NN", ctx=ctx),
                    lambda ctx: eval_xq(vdoc, xq, ctx=ctx),
                    lambda ctx: repo.xq(xq, ctx=ctx)):
            del seen[:]
            ctx = EvalContext()
            ctx.expire_at_checkpoint = 3
            with pytest.raises(DeadlineExceededError):
                run(ctx)
            assert len(seen) == 3
            assert repo.pool.pinned_total() == 0
        del seen[:]
        assert repo.xq(xq).to_xml() == eval_xq(vdoc, xq, mode="naive").to_xml()
        assert len(seen) > 100


def test_reduction_row_group_is_a_checkpoint(monkeypatch):
    """Each row group a plan operation works on is a checkpoint: a path's
    first extension builds skeleton statistics, and a relative variable
    over a ``//`` binding has hundreds of groups — an expiry stops the
    operation at its next group, not after all of them."""
    vdoc = VectorizedDocument.from_xml(_deep_xml(random.Random(5)))
    xq = "for $n in //NP, $m in $n//NN where $m = 'w1' return <r>{$m}</r>"
    at = []      # the context's checkpoint count at each extension
    real = PathsCatalog.extension_ranges

    def spy(self, *args):
        at.append(ctx.checkpoints)
        return real(self, *args)

    monkeypatch.setattr(PathsCatalog, "extension_ranges", spy)
    ctx = EvalContext()
    eval_xq(vdoc, xq, ctx=ctx)
    first, n_groups = at[0], len(at)
    del at[:]
    ctx = EvalContext()
    ctx.expire_at_checkpoint = first + 2
    with pytest.raises(DeadlineExceededError):
        eval_xq(vdoc, xq, ctx=ctx)
    assert len(at) == 3 and n_groups > 100


# -- bounded transient-I/O retry -------------------------------------------


def _page_file_with_data(tmp_path):
    path = str(tmp_path / "retry.pf")
    with PageFile.create(path, page_size=256) as pf:
        pid = pf.allocate()
        pf.write_page(pid, bytearray(b"\x42" * 256))
        pf.sync_close()
    return path, pid


def test_pool_retry_absorbs_transient_oserror(tmp_path):
    path, pid = _page_file_with_data(tmp_path)
    with faults.inject(FaultPlan()) as plan:
        pf = PageFile.open(path)
        pool = BufferPool(pf, capacity=4, io_retries=2, io_retry_delay=0.0)
        view = pool._views[0]
        plan.faults[plan.ops] = Fault("oserror", err=errno.EIO)
        data = pool.pin_at(view.fid, pid)
        assert bytes(data[:4]) == b"\x42" * 4
        pool.unpin_at(view.fid, pid)
        assert pool.stats.read_retries == 1
        assert view.stats.read_retries == 1
        pool.close()


def test_pool_retry_budget_exhausted(tmp_path):
    path, pid = _page_file_with_data(tmp_path)
    with faults.inject(FaultPlan()) as plan:
        pf = PageFile.open(path)
        pool = BufferPool(pf, capacity=4, io_retries=1, io_retry_delay=0.0)
        view = pool._views[0]
        # one fault per attempt: the budget (1 retry) is exhausted
        plan.faults[plan.ops] = Fault("oserror", err=errno.EIO)
        plan.faults[plan.ops + 1] = Fault("oserror", err=errno.EIO)
        with pytest.raises(TransientIOError) as ei:
            pool.pin_at(view.fid, pid)
        assert isinstance(ei.value, StorageError)   # quarantine-eligible
        assert pool.stats.read_retries == 1
        assert pool.pinned_total() == 0             # rolled back cleanly
        # the transient condition has passed: the next pin succeeds
        data = pool.pin_at(view.fid, pid)
        assert bytes(data[:4]) == b"\x42" * 4
        pool.unpin_at(view.fid, pid)
        pool.close()


def test_pool_corruption_is_never_retried(tmp_path):
    path, pid = _page_file_with_data(tmp_path)
    with faults.inject(FaultPlan()) as plan:
        pf = PageFile.open(path)
        pool = BufferPool(pf, capacity=4, io_retries=3, io_retry_delay=0.0)
        view = pool._views[0]
        plan.faults[plan.ops] = Fault("bitflip", byte=17, bit=3)
        with pytest.raises(CorruptDataError):
            pool.pin_at(view.fid, pid)
        assert pool.stats.read_retries == 0   # surfaced immediately
        assert pool.pinned_total() == 0
        pool.close()


# -- quarantine registry + supervisor --------------------------------------


def test_registry_backoff_and_counters():
    now = [100.0]
    reg = QuarantineRegistry(base_delay=1.0, max_delay=8.0, jitter=0.0,
                             clock=lambda: now[0])
    assert reg.quarantine("m0", "page checksum mismatch")
    assert not reg.quarantine("m0", "again")      # one transition wins
    assert reg.is_quarantined("m0") and reg.active() == ["m0"]
    assert reg.due() == []                        # first probe is delayed
    assert reg.next_wake() == pytest.approx(101.0)

    now[0] = 101.5
    assert reg.due() == ["m0"]
    assert not reg.note_probe("m0", healthy=False)
    assert reg.next_wake() == pytest.approx(103.5)   # 2^1 backoff
    now[0] = 104.0
    assert not reg.note_probe("m0", healthy=False)
    assert reg.next_wake() == pytest.approx(108.0)   # 2^2 backoff
    for _ in range(4):                                # capped at max_delay
        assert not reg.note_probe("m0", healthy=False)
    assert reg.next_wake() <= now[0] + 8.0

    assert reg.note_probe("m0", healthy=True)
    assert not reg.is_quarantined("m0")
    snap = reg.snapshot()
    assert snap["quarantined_total"] == 1
    assert snap["reinstated_total"] == 1
    assert snap["probes_total"] == 7
    assert snap["probe_failures"] == 6
    assert snap["active"] == []


def test_repository_quarantine_and_supervised_recovery(tmp_path):
    """The full cycle, driven deterministically (no supervisor thread):
    corrupt page -> first query fails and quarantines -> later queries
    skip and report the member -> a failed probe keeps it out -> on-disk
    repair + clean probe reinstates it -> answers are exact again."""
    repo_dir = _build_repo(tmp_path)
    with Repository.open(repo_dir, pool_pages=16) as repo:
        expected = repo.xq(XQ_JOIN).to_xml()
        expected_xpath = repo.xpath(XP_NAMES)
        assert [n for n, _ in expected_xpath] == ["m0", "m1"]

    path, original = _corrupt_member(repo_dir, "m0")
    with Repository.open(repo_dir, pool_pages=16) as repo:
        with pytest.raises(StorageError, match="m0"):
            repo.xq(XQ_JOIN)
        assert repo.quarantine.active() == ["m0"]
        assert repo.pool.pinned_total() == 0

        # degraded but serving: m0 skipped and *reported*
        res = repo.xq(XQ_JOIN)
        assert res.quarantined == ["m0"]
        skipped = []
        out = repo.xpath(XP_NAMES, skipped=skipped)
        assert skipped == ["m0"]
        assert [n for n, _ in out] == ["m1"]

        sup = QuarantineSupervisor(repo.quarantine, repo._probe_member)
        repo.quarantine._entries["m0"].next_probe = 0.0
        assert sup.run_due() == 0                # still corrupt on disk
        assert repo.quarantine.probe_failures == 1
        assert repo.quarantine.is_quarantined("m0")

        with open(path, "wb") as f:              # operator repairs the file
            f.write(original)
        repo.quarantine._entries["m0"].next_probe = 0.0
        assert sup.run_due() == 1                # clean fsck reinstates
        assert repo.quarantine.active() == []
        assert repo.quarantine.reinstated_total == 1

        # the reopened member serves exact bytes again
        assert repo.xq(XQ_JOIN).to_xml() == expected
        assert repo.pool.pinned_total() == 0


def test_load_failures_do_not_quarantine(tmp_path):
    repo_dir = _build_repo(tmp_path)
    with Repository.open(repo_dir, pool_pages=16) as repo:
        repo._note_quarantine("m0", PoolExhaustedError(16, 16))
        assert repo.quarantine.active() == []


def test_uncacheable_members_counted(tmp_path):
    """A member whose file cannot be stat'ed has no result-cache identity:
    the miss is counted as ``uncacheable``, never silently dropped."""
    repo_dir = _build_repo(tmp_path)
    os.remove(os.path.join(repo_dir, "m0.vdoc"))
    with Repository.open(repo_dir, pool_pages=16,
                         result_cache_bytes=1 << 20) as repo:
        with pytest.raises(StorageError, match="m0"):
            repo.xq(XQ_JOIN)
        assert repo.result_cache.stats()["uncacheable"] >= 1


# -- the HTTP surface ------------------------------------------------------


def _request(srv, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection(*srv.address, timeout=30)
    try:
        conn.request(method, path,
                     body=body.encode("utf-8") if body is not None else None,
                     headers=headers or {})
        resp = conn.getresponse()
        return resp.status, resp.read(), dict(resp.getheaders())
    finally:
        conn.close()


def test_serve_deadline_504_and_bad_header(tmp_path):
    repo_dir = _build_repo(tmp_path)
    srv = QueryServer(repo_dir, port=0, pool_pages=64, workers=4).start()
    try:
        status, body, _ = _request(srv, "POST", "/xq", XQ_JOIN,
                                   {"X-Deadline-Ms": "0.01"})
        assert status == 504
        assert body.startswith(b"error: deadline exceeded")
        for bad in ("nope", "-5", "0", "inf"):
            status, body, _ = _request(srv, "POST", "/xq", XQ_JOIN,
                                       {"X-Deadline-Ms": bad})
            assert status == 400, bad
            assert body.startswith(b"error:")
        # a generous budget changes nothing
        status, ok_body, _ = _request(srv, "POST", "/xq", XQ_JOIN,
                                      {"X-Deadline-Ms": "30000"})
        assert status == 200
        import json
        status, stats, _ = _request(srv, "GET", "/stats")
        snap = json.loads(stats)
        assert snap["timeouts"] >= 1
        assert "quarantine" in snap
    finally:
        srv.shutdown()


def test_serve_quarantine_degraded_and_heals(tmp_path):
    repo_dir = _build_repo(tmp_path)
    srv = QueryServer(repo_dir, port=0, pool_pages=64, workers=4,
                      result_cache_mb=0).start()
    try:
        status, clean_body, headers = _request(srv, "POST", "/xq", XQ_JOIN)
        assert status == 200 and "X-Quarantined" not in headers
    finally:
        srv.shutdown()

    path, original = _corrupt_member(repo_dir, "m0")
    srv = QueryServer(repo_dir, port=0, pool_pages=64, workers=4,
                      result_cache_mb=0, deadline=5.0).start()
    # fast probe schedule so the healing phase stays quick
    srv.repo.quarantine.base_delay = 0.05
    srv.repo.quarantine.max_delay = 0.2
    try:
        status, body, _ = _request(srv, "POST", "/xq", XQ_JOIN)
        assert status == 500 and b"m0" in body
        assert srv.repo.quarantine.active() == ["m0"]

        status, body, headers = _request(srv, "POST", "/xq", XQ_JOIN)
        assert status == 200
        assert headers.get("X-Quarantined") == "m0"
        assert body != clean_body

        status, body, headers = _request(srv, "POST", "/xpath", XP_NAMES)
        assert status == 200
        assert headers.get("X-Quarantined") == "m0"
        assert not body.startswith(b"m0:")

        status, body, _ = _request(srv, "GET", "/healthz")
        assert status == 200                     # alive: do not restart it
        assert body.startswith(b"degraded: quarantined=m0")

        import json
        status, body, _ = _request(srv, "GET", "/repo")
        repo_view = json.loads(body)
        assert repo_view["degraded"] is True
        assert repo_view["quarantined"] == ["m0"]
        assert repo_view["deadline_s"] == 5.0
        by_name = {m["name"]: m for m in repo_view["members"]}
        assert by_name["m0"]["quarantined"] is True
        assert by_name["m1"]["quarantined"] is False

        with open(path, "wb") as f:              # repair; no restart
            f.write(original)
        assert _wait_until(
            lambda: not srv.repo.quarantine.active(), 10.0), \
            srv.repo.quarantine.snapshot()

        status, body, _ = _request(srv, "GET", "/healthz")
        assert status == 200 and body == b"ok\n"
        status, body, headers = _request(srv, "POST", "/xq", XQ_JOIN)
        assert status == 200
        assert "X-Quarantined" not in headers
        assert body == clean_body                # byte-exact post-heal
        status, body, _ = _request(srv, "GET", "/stats")
        snap = json.loads(body)
        assert snap["quarantine"]["reinstated_total"] >= 1
        assert snap["pin_leaks"] == 0
    finally:
        srv.shutdown()
