"""The concurrent query service: endpoints, byte-identity with the CLI,
session isolation under 16 concurrent clients, admission-control 503s,
and corruption staying confined to the member it hit."""

import http.client
import json
import math
import socket
import threading

import pytest

from repro.cli import main as cli_main
from repro.datasets.synth import xmark_like_xml
from repro.repo import Repository
from repro.serve import (
    AdmissionController,
    OverloadError,
    QueryServer,
    size_inflight,
)
from repro.serve.metrics import LatencyHistogram

NOTES_XML = (
    "<notes>"
    "<note><title>alpha</title><body>one</body></note>"
    "<note><title>beta</title><body>two</body></note>"
    "</notes>"
)

XQ_SITE = ("for $p in /site/people/person where $p/profile/age > '30' "
           "return <r>{$p/name}{$p/profile/age}</r>")
XQ_NOTES = ("for $n in /notes/note where $n/title = 'beta' "
            "return <r>{$n/body}</r>")
XP_SITE = "/site/people/person/name"


def _build_repo(tmp_path):
    d = str(tmp_path / "repo")
    repo = Repository.init(d, "auctions")
    for i, n in enumerate((10, 14)):
        f = tmp_path / f"doc{i}.xml"
        f.write_text(xmark_like_xml(n, seed=i), encoding="utf-8")
        repo.add(str(f), page_size=512)
    notes = tmp_path / "notes.xml"
    notes.write_text(NOTES_XML, encoding="utf-8")
    repo.add(str(notes), page_size=512)
    repo.close()
    return d


@pytest.fixture
def repo_dir(tmp_path):
    return _build_repo(tmp_path)


@pytest.fixture
def server(repo_dir):
    srv = QueryServer(repo_dir, port=0, pool_pages=64, workers=8).start()
    yield srv
    srv.shutdown()   # asserts zero pinned pages pool-wide


def _request(srv, method, path, body=None):
    conn = http.client.HTTPConnection(*srv.address, timeout=30)
    try:
        conn.request(method, path,
                     body=body.encode("utf-8") if body is not None else None)
        resp = conn.getresponse()
        return resp.status, resp.read(), dict(resp.getheaders())
    finally:
        conn.close()


def _cli_stdout(capsys, repo_dir, query):
    capsys.readouterr()
    assert cli_main(["repo", "query", repo_dir, query]) == 0
    return capsys.readouterr().out


# -- endpoints ---------------------------------------------------------------


def test_healthz_stats_repo(server):
    status, body, _ = _request(server, "GET", "/healthz")
    assert (status, body) == (200, b"ok\n")

    status, body, _ = _request(server, "GET", "/repo")
    assert status == 200
    repo = json.loads(body)
    assert repo["name"] == "auctions"
    assert [m["name"] for m in repo["members"]] == ["doc0", "doc1", "notes"]
    assert all(m["catalog_paths"] > 0 for m in repo["members"])

    status, body, _ = _request(server, "GET", "/stats")
    snap = json.loads(body)
    assert status == 200
    assert snap["pin_leaks"] == 0
    assert {"capacity", "hit_rate", "pinned"} <= snap["pool"].keys()
    assert snap["admission"]["max_inflight"] == size_inflight(8, 64)
    assert snap["endpoints"]["/healthz"]["by_status"] == {"200": 1}

    status, _, _ = _request(server, "GET", "/nope")
    assert status == 404


def test_xq_and_xpath_byte_identical_to_cli(server, repo_dir, capsys):
    for query in (XQ_SITE, XQ_NOTES, XP_SITE):
        endpoint = "/xpath" if query.startswith("/") else "/xq"
        status, body, headers = _request(server, "POST", endpoint, query)
        assert status == 200
        assert body.decode("utf-8") == _cli_stdout(capsys, repo_dir, query)
    # the notes query proves catalog pruning ran server-side too
    _, _, headers = _request(server, "POST", "/xq", XQ_NOTES)
    assert headers["X-Pruned"] == "doc0,doc1"


def test_malformed_queries_are_400(server):
    status, body, _ = _request(server, "POST", "/xq", "for $p in")
    assert status == 400 and body.startswith(b"error:")
    status, body, _ = _request(server, "POST", "/xpath", "not an xpath")
    assert status == 400
    status, _, _ = _request(server, "POST", "/xq",
                            "for $p in collection('elsewhere')//x "
                            "return <r>{$p}</r>")
    assert status == 400   # wrong collection is a compile error
    status, _, _ = _request(server, "POST", "/nope", "x")
    assert status == 404


# -- concurrency -------------------------------------------------------------


def test_16_concurrent_clients_byte_identical_and_clean(server, repo_dir,
                                                        capsys):
    workload = [("/xq", XQ_SITE), ("/xq", XQ_NOTES), ("/xpath", XP_SITE)]
    expected = {q: _cli_stdout(capsys, repo_dir, q).encode("utf-8")
                for _, q in workload}
    failures: list[str] = []

    def client(idx: int) -> None:
        conn = http.client.HTTPConnection(*server.address, timeout=60)
        try:
            for off in range(6):
                endpoint, q = workload[(idx + off) % len(workload)]
                conn.request("POST", endpoint, body=q.encode("utf-8"))
                resp = conn.getresponse()
                body = resp.read()
                if resp.status != 200 or body != expected[q]:
                    failures.append(f"client {idx}: {resp.status} on {q!r}")
        except Exception as exc:  # noqa: BLE001 - surfaced below
            failures.append(f"client {idx}: {exc!r}")
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures

    # metrics are observed after the response bytes go out — poll
    def _counted() -> bool:
        eps = server.stats_snapshot()["endpoints"]
        return (eps["/xq"]["by_status"].get("200") == 16 * 4
                and eps["/xpath"]["by_status"].get("200") == 16 * 2)
    _wait_for(_counted)
    snap = server.stats_snapshot()
    assert snap["pin_leaks"] == 0             # per-request isolation held
    assert snap["pool"]["pinned"] == 0        # nothing left pinned
    assert snap["endpoints"]["/xq"]["by_status"] == {"200": 16 * 4}
    assert snap["endpoints"]["/xpath"]["by_status"] == {"200": 16 * 2}


def test_overload_sheds_503_with_retry_after(repo_dir):
    srv = QueryServer(repo_dir, port=0, pool_pages=64, workers=1,
                      max_queue=0, queue_timeout=0.2).start()
    try:
        assert srv.max_inflight == 1
        with srv.admission.admit():           # hold the only slot
            status, body, headers = _request(srv, "POST", "/xq", XQ_SITE)
            assert status == 503
            assert body.startswith(b"error: overloaded")
            assert int(headers["Retry-After"]) >= 1
            # observability must keep answering while queries are shed
            status, body, _ = _request(srv, "GET", "/stats")
            assert status == 200
            assert json.loads(body)["overloads"] == 1
        status, _, _ = _request(srv, "POST", "/xq", XQ_SITE)
        assert status == 200                  # slot free again: recovered
    finally:
        final = srv.shutdown()
    assert final["overloads"] == 1 and final["pin_leaks"] == 0


def test_corrupt_member_fails_by_name_siblings_stay_queryable(repo_dir,
                                                              capsys):
    # trash doc1's pages (header kept so the file still sniffs as a vdoc)
    victim = repo_dir + "/doc1.vdoc"
    with open(victim, "r+b") as f:
        f.seek(0, 2)
        size = f.tell()
        f.seek(40)
        f.write(b"\xee" * (size - 40))

    srv = QueryServer(repo_dir, port=0, pool_pages=64, workers=4).start()
    try:
        status, body, _ = _request(srv, "POST", "/xq", XQ_SITE)
        assert status == 500
        assert b"member 'doc1'" in body      # the failure names its member

        # a query the catalog routes past doc1 still answers over the
        # same pool — corruption degrades one member, not the service
        status, body, _ = _request(srv, "POST", "/xq", XQ_NOTES)
        assert status == 200
        assert body.decode("utf-8") == _cli_stdout(capsys, repo_dir,
                                                   XQ_NOTES)

        snap = srv.stats_snapshot()
        assert snap["pin_leaks"] == 0        # the failure leaked nothing
        assert snap["pool"]["pinned"] == 0
    finally:
        srv.shutdown()


# -- request framing and 503 attribution -------------------------------------


def test_truncated_body_is_400(server):
    """A client that dies mid-body must not have its truncated prefix
    evaluated as a (different, valid) query."""
    host, port = server.address
    with socket.create_connection((host, port), timeout=10) as s:
        s.sendall(b"POST /xq HTTP/1.1\r\nHost: t\r\nContent-Length: 50\r\n"
                  b"Connection: close\r\n\r\n/site/people")
        s.shutdown(socket.SHUT_WR)       # disconnect after 12 of 50 bytes
        data = b""
        while chunk := s.recv(4096):
            data += chunk
    status_line = data.split(b"\r\n", 1)[0]
    assert b" 400 " in status_line
    assert b"truncated body: got 12 of 50" in data


def test_drain_503_attributed_separately(repo_dir):
    srv = QueryServer(repo_dir, port=0, pool_pages=64, workers=2).start()
    try:
        srv.draining = True
        status, body, headers = _request(srv, "POST", "/xq", XQ_SITE)
        assert status == 503 and b"shutting down" in body
        assert int(headers["Retry-After"]) >= 1
        # metrics are recorded just after the response bytes go out: wait
        # for the handler thread to reach the observe call
        _wait_for(lambda: srv.stats_snapshot()["drain_rejects"] == 1)
        snap = srv.stats_snapshot()
        # a drain rejection is not admission pressure: it must not count
        # as an overload shed
        assert snap["drain_rejects"] == 1
        assert snap["overloads"] == 0 and snap["pool_exhausted"] == 0
        srv.draining = False
        status, _, _ = _request(srv, "POST", "/xq", XQ_SITE)
        assert status == 200
    finally:
        srv.shutdown()


def test_unknown_post_latency_is_measured(server):
    status, _, _ = _request(server, "POST", "/nowhere", "x")
    assert status == 404
    _wait_for(lambda: "*unknown*" in server.stats_snapshot()["endpoints"])
    ep = server.stats_snapshot()["endpoints"]["*unknown*"]
    assert ep["by_status"] == {"404": 1}
    # the 404 is measured like every other request, not logged as 0.0
    assert ep["mean_ms"] > 0.0


def test_result_cache_hits_are_byte_identical(server):
    _, cold, _ = _request(server, "POST", "/xq", XQ_SITE)
    _, warm, _ = _request(server, "POST", "/xq", XQ_SITE)
    assert warm == cold
    rc = server.stats_snapshot()["result_cache"]
    assert rc is not None
    assert rc["hits"] >= 1 and rc["misses"] >= 1
    assert rc["entries"] >= 1 and 0.0 < rc["hit_rate"] <= 1.0


def test_result_cache_can_be_disabled(repo_dir):
    srv = QueryServer(repo_dir, port=0, pool_pages=64, workers=2,
                      result_cache_mb=0).start()
    try:
        _, cold, _ = _request(srv, "POST", "/xq", XQ_SITE)
        _, warm, _ = _request(srv, "POST", "/xq", XQ_SITE)
        assert warm == cold
        assert srv.stats_snapshot()["result_cache"] is None
    finally:
        srv.shutdown()


# -- admission control units -------------------------------------------------


def test_size_inflight_caps_from_pool_capacity():
    assert size_inflight(8, None) == 8       # unbounded pool: workers rule
    assert size_inflight(8, 64) == 8         # 64 // 4 = 16 >= workers
    assert size_inflight(16, 24) == 6        # 24 // 4 caps the workers
    assert size_inflight(16, 4) == 1
    assert size_inflight(0, None) == 1       # never below one slot


def test_admission_queue_full_and_timeout():
    ac = AdmissionController(max_inflight=1, max_queue=1, queue_timeout=0.05)
    with ac.admit():
        # one waiter fits the queue and times out waiting for the slot
        with pytest.raises(OverloadError, match="queued"):
            with ac.admit():
                pass
        # a waiter beyond the queue bound is rejected immediately
        blocker = threading.Thread(target=lambda: _try_admit(ac, 0.3))
        blocker.start()
        _wait_for(lambda: ac.depth()["queued"] == 1)
        with pytest.raises(OverloadError, match="capacity"):
            with ac.admit():
                pass
        blocker.join()
    depth = ac.depth()
    assert depth["in_flight"] == 0 and depth["queued"] == 0
    assert depth["admitted"] == 1
    assert depth["rejected_timeout"] == 2 and depth["rejected_queue_full"] == 1


def _try_admit(ac, timeout):
    try:
        ac.queue_timeout = timeout
        with ac.admit():
            pass
    except OverloadError:
        pass


def _wait_for(pred, timeout=2.0):
    import time
    deadline = time.monotonic() + timeout
    while not pred():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


def test_admission_releases_slot_on_error():
    ac = AdmissionController(max_inflight=1, max_queue=0)
    with pytest.raises(ValueError):
        with ac.admit():
            raise ValueError("query blew up")
    with ac.admit():                          # the slot came back
        pass
    assert ac.depth()["in_flight"] == 0


def test_latency_histogram_quantiles():
    h = LatencyHistogram()
    assert h.quantile(0.5) == 0.0
    for ms in (1, 1, 1, 2, 2, 5, 10, 50, 100, 400):
        h.observe(ms / 1e3)
    assert h.n == 10
    # conservative (upper-bound) quantiles: ordered and bracketing
    assert h.quantile(0.5) >= 0.002
    assert h.quantile(0.99) >= 0.4
    assert h.quantile(0.5) <= h.quantile(0.9) <= h.quantile(0.99)
    d = h.as_dict()
    assert d["count"] == 10 and d["p99_ms"] >= d["p50_ms"]
    assert d["overflow"] == 0


def test_latency_histogram_overflow_is_explicit():
    # a rank landing in the overflow bucket has no finite upper bound:
    # clamping it to the last bound would under-report the worst latencies
    h = LatencyHistogram()
    h.observe(0.001)
    h.observe(200.0)          # beyond the ~148 s last bucket bound
    assert h.overflow == 1
    assert h.quantile(0.5) < 1.0          # finite: rank 1 is the 1 ms obs
    assert math.isinf(h.quantile(0.99))   # rank 2 is the overflow obs
    d = h.as_dict()
    assert d["p50_ms"] is not None
    assert d["p99_ms"] is None            # inf is reported as null...
    assert d["overflow"] == 1             # ...with the explicit marker


def test_latency_histogram_all_overflow():
    h = LatencyHistogram()
    h.observe(500.0)
    assert math.isinf(h.quantile(0.5))
    assert h.as_dict()["p50_ms"] is None and h.as_dict()["overflow"] == 1


def test_query_p50_is_the_merged_histogram_median():
    from repro.serve.metrics import Metrics

    m = Metrics()
    assert m.query_p50() == 0.0                     # before any query
    m.observe("/stats", 200, 100.0)                 # not a query endpoint
    both = LatencyHistogram()
    for endpoint, ms in (("/xq", 1), ("/xq", 2), ("/xpath", 40),
                         ("/xpath", 50), ("/xpath", 60)):
        m.observe(endpoint, 200, ms / 1e3)
        both.observe(ms / 1e3)
    assert m.query_p50() == both.quantile(0.5) >= 0.04
    for _ in range(6):                              # now 6 of 11
        m.observe("/xq", 200, 500.0)
    assert math.isinf(m.query_p50())                # median in overflow


def test_pool_counters_flatten_the_same_way_everywhere(server, repo_dir):
    """``BufferPool.snapshot`` is the one flattening behind ``--io-stats``
    (document and repository) and ``/stats``: same keys, same order."""
    from repro.storage import IOStats

    base = list(IOStats().as_dict())
    pool_keys = base + ["capacity", "resident", "pinned"]
    prefixed = [f"pool_{k}" for k in base] + \
        ["pool_capacity", "pool_resident", "pinned"]
    assert list(server.repo.pool.snapshot()) == pool_keys
    assert list(server.stats_snapshot()["pool"]) == \
        pool_keys + ["max_inflight"]
    with Repository.open(repo_dir, pool_pages=16) as repo:
        doc = repo.member(repo.members()[0])
        assert list(doc.io_stats()) == base + prefixed
        assert list(repo.io_stats()) == \
            prefixed + [f"{repo.members()[0]}.{k}" for k in base]
