"""The live-server chaos contract: fault-injected serving stays correct.

A three-member repository is served in-process while a seeded
:class:`~repro.storage.faults.FaultInjector` corrupts 5 % of the shared
pool's physical reads (transient ``OSError``, flipped bits, torn reads —
the bytes on disk stay clean) and 16 HTTP clients hammer it.  Every
response must be byte-exact against the clean answer, degraded-and-flagged
(200 + ``X-Quarantined``), or an attributed failure (``error:`` body) —
never wrong bytes, never a hang, never a leaked pin.  Once the injector is
paused the quarantine drains by itself; real on-disk damage then
quarantines its member, and repairing the file heals the service without
a restart.  Counts vary with thread interleaving; the asserted properties
hold under every interleaving of the seeded fault schedule.
"""

import contextlib
import http.client
import pathlib
import threading
import time

from repro.datasets.synth import xmark_like_xml
from repro.repo import Repository
from repro.serve import QueryServer
from repro.storage import faults
from repro.storage.disk import FILE_HEADER
from repro.storage.faults import FaultInjector

WORKLOAD = [
    ("/xq", "for $p in /site/people/person where $p/profile/age >= '60' "
            "return <r>{$p/name}</r>"),
    ("/xq", "for $c in /site/closed_auctions/closed_auction, "
            "$p in /site/people/person where $c/buyer = $p/@id "
            "and $p/profile/age > '40' "
            "return <pair>{$p/name}{$c/price}</pair>"),
    ("/xpath", "/site/people/person/name"),
    ("/xpath", "//item/location"),
]
N_CLIENTS, N_REQUESTS = 16, 25
PAGE_SIZE = 512
POOL_PAGES = 32
#: decoded columns stay resident, so physical reads — the injector's only
#: opportunities — are each member's first touch plus the reloads after
#: every reinstatement: 60-90 per storm.  This seed fires all three fault
#: kinds among them (transient OSError, bitflip, torn read).
SEED, RATE = 13, 0.05
#: every Nth storm request carries this budget; no join finishes in 200µs
DEADLINE_EVERY, TINY_DEADLINE = 8, {"X-Deadline-Ms": "0.2"}
WATCHDOG_S = 60.0


def _post(conn, endpoint, query, headers=None):
    conn.request("POST", endpoint, body=query.encode("utf-8"),
                 headers=headers or {})
    resp = conn.getresponse()
    return resp.status, dict(resp.getheaders()), resp.read()


def _get(conn, path):
    conn.request("GET", path)
    return conn.getresponse().read()


def _connect(srv):
    return contextlib.closing(
        http.client.HTTPConnection(*srv.address, timeout=30))


@contextlib.contextmanager
def _serving(repo_dir, workers):
    srv = QueryServer(repo_dir, port=0, pool_pages=POOL_PAGES,
                      workers=workers, result_cache_mb=0.0)
    srv.repo.quarantine.base_delay = 0.05   # fast re-verify probes
    srv.repo.quarantine.max_delay = 0.2
    srv.start()
    try:
        yield srv
    finally:
        final = srv.shutdown()
    assert final["pin_leaks"] == 0 and final["pool"]["pinned"] == 0


def _drained(srv, timeout):
    """Wait for the supervisor to reinstate every quarantined member."""
    give_up = time.monotonic() + timeout
    while srv.repo.quarantine.active() and time.monotonic() < give_up:
        time.sleep(0.02)
    return srv.repo.quarantine.active() == []


def _assert_all_exact(srv, expected):
    with _connect(srv) as conn:
        for (endpoint, query), want in zip(WORKLOAD, expected):
            status, headers, body = _post(conn, endpoint, query)
            assert status == 200 and "X-Quarantined" not in headers
            assert body == want


def test_chaos_contract(tmp_path):
    repo_dir = str(tmp_path / "repo")
    repo = Repository.init(repo_dir, "chaos")
    for i, n_people in enumerate((20, 20, 30)):
        xml = tmp_path / f"m{i}.xml"
        xml.write_text(xmark_like_xml(n_people, seed=700 + i),
                       encoding="utf-8")
        repo.add(str(xml), name=f"m{i}", page_size=PAGE_SIZE)
    repo.close()

    expected = []
    with Repository.open(repo_dir) as repo:
        for endpoint, query in WORKLOAD:
            if endpoint == "/xq":
                expected.append((repo.xq(query).to_xml() + "\n").encode())
            else:
                expected.append("".join(
                    f"{name}: count {res.count()}\n"
                    for name, res in repo.xpath(query)).encode())

    # -- storm: 16 clients under active injection --------------------------
    counts = dict.fromkeys(
        ("exact", "degraded", "attributed", "probe_504", "wrong_bytes",
         "unattributed"), 0)
    lock = threading.Lock()

    def client(srv, idx):
        try:
            with _connect(srv) as conn:
                for r in range(N_REQUESTS):
                    k = (idx + r) % len(WORKLOAD)
                    probe = (idx + r) % DEADLINE_EVERY == 0
                    status, headers, body = _post(
                        conn, *WORKLOAD[k], TINY_DEADLINE if probe else None)
                    if status == 200:
                        kind = "degraded" if "X-Quarantined" in headers \
                            else "exact" if body == expected[k] \
                            else "wrong_bytes"
                    elif status in (500, 503, 504) \
                            and body.startswith(b"error:"):
                        kind = "probe_504" if probe and status == 504 \
                            else "attributed"
                    else:
                        kind = "unattributed"
                    with lock:
                        counts[kind] += 1
        except Exception:  # noqa: BLE001 - a dead client is a finding
            with lock:
                counts["unattributed"] += 1

    injector = FaultInjector(seed=SEED, rate=RATE)
    with faults.inject(injector), \
            _serving(repo_dir, workers=N_CLIENTS) as srv:
        threads = [threading.Thread(target=client, args=(srv, i), daemon=True)
                   for i in range(N_CLIENTS)]
        give_up = time.monotonic() + WATCHDOG_S
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=max(0.0, give_up - time.monotonic()))
        assert not any(t.is_alive() for t in threads), "a client hung"
        assert counts["wrong_bytes"] == counts["unattributed"] == 0, counts
        assert sum(counts.values()) == N_CLIENTS * N_REQUESTS
        assert injector.fired, "the schedule injected nothing"

        # recovery: the files were never damaged, so once injection stops
        # the supervisor's fsck reinstates every member
        injector.pause()
        assert _drained(srv, 20.0), srv.repo.quarantine.snapshot()
        _assert_all_exact(srv, expected)

        # deadlines fire on the healthy server (a storm probe may be
        # answered in µs when every member is skipped, so those are only
        # counted; these two must come back 504)
        with _connect(srv) as conn:
            for endpoint, query in WORKLOAD[:2]:
                status, _, body = _post(conn, endpoint, query, TINY_DEADLINE)
                assert status == 504
                assert body.startswith(b"error: deadline exceeded")

    # -- real damage: quarantine -> degraded -> repair -> reinstated -------
    member = pathlib.Path(repo_dir, "m0.vdoc")
    original = member.read_bytes()
    damaged = bytearray(original)
    for off in range(FILE_HEADER + 4 * PAGE_SIZE + PAGE_SIZE // 2,
                     len(damaged), PAGE_SIZE):
        damaged[off] ^= 0x40
    member.write_bytes(bytes(damaged))

    with _serving(repo_dir, workers=4) as srv, _connect(srv) as conn:
        status, _, body = _post(conn, *WORKLOAD[0])
        assert status == 500 and b"m0" in body
        assert srv.repo.quarantine.active() == ["m0"]
        status, headers, _ = _post(conn, *WORKLOAD[0])
        assert status == 200 and headers["X-Quarantined"] == "m0"
        assert _get(conn, "/healthz").startswith(b"degraded")

        member.write_bytes(original)        # repair on disk; no restart
        assert _drained(srv, 15.0), srv.repo.quarantine.snapshot()
        assert srv.repo.quarantine.snapshot()["reinstated_total"] >= 1
        assert _get(conn, "/healthz") == b"ok\n"
        _assert_all_exact(srv, expected)
