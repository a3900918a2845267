"""The query service: HTTP endpoints over one resident repository.

Endpoints (all bodies UTF-8)::

    POST /xq      body = XQ FLWR query   -> application/xml, the exact
                                            bytes ``repro-xq repo query``
                                            prints (X-Pruned header lists
                                            catalog-pruned members)
    POST /xpath   body = XPath           -> text/plain, per-member
                                            ``name: count N`` lines,
                                            byte-identical to the CLI
    GET  /repo    repository manifest summary (JSON)
    GET  /stats   live metrics: per-endpoint counters + p50/p99,
                  admission depth, pool counters incl. hit rate (JSON)
    GET  /healthz liveness probe

Concurrency model: ``ThreadingHTTPServer`` (one handler thread per
connection) over ONE shared, concurrency-safe
:class:`~repro.storage.buffer.BufferPool`.  Each request evaluates inside
its own :class:`~repro.core.context.EvalContext` — the unit of session
isolation — so the engine's invariants are machine-asserted *per request,
concurrently*: zero leaked pins (per-thread pin accounting, checked on
success and failure, re-checked by the handler after every evaluation)
and at most one full-column sweep per plan operation.  Admission control
(:mod:`repro.serve.admission`) bounds in-flight evaluations from the
pool's capacity and sheds overload as HTTP 503 + ``Retry-After``; the
observability endpoints bypass admission so the service stays inspectable
under load.

Error mapping: malformed queries → 400; overload (queue full/timeout or a
pool with every frame pinned) → 503 with a ``Retry-After`` scaled from
the observed median query time times the admission backlog; a cooperative
deadline expiry → 504; storage failures → 500 with the failing *member
named in the body* while sibling members stay queryable — a corrupt
document degrades that document, not the service.

Fault tolerance: each request runs under an optional **deadline** — the
server-wide ``--deadline`` budget, tightened per request by an
``X-Deadline-Ms`` header (a client may shorten its budget, never extend
the server's) — enforced at the engine's cooperative checkpoints and
unwound with zero leaked pins.  A member whose evaluation dies with a
storage failure is **quarantined** (skipped by later queries, reported
via the ``X-Quarantined`` response header, the ``degraded`` flag on
``GET /repo`` and a degraded-but-200 ``/healthz`` body) while a
supervisor thread re-verifies it under backoff and reinstates it once
the file fscks clean — an on-disk repair heals the serving set without
a restart.

Graceful shutdown (SIGTERM/SIGINT via ``repro-xq serve``): stop accepting
connections, drain in-flight queries, log the final metrics snapshot as
JSON on stderr, then close the pool — which asserts zero pinned pages, so
a clean exit *is* the zero-leaked-pins proof for the whole session.
"""

from __future__ import annotations

import json
import math
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import (
    DeadlineExceededError,
    ParseError,
    PoolExhaustedError,
    ReproError,
    XPathSyntaxError,
    XQCompileError,
    XQSyntaxError,
)
from ..repo import Repository
from .admission import AdmissionController, OverloadError, size_inflight
from .metrics import Metrics

DEFAULT_WORKERS = 8
DEFAULT_QUEUE = 64
MAX_BODY = 1 << 20  # 1 MiB of query text is far beyond any sane query
DEFAULT_RESULT_CACHE_MB = 64.0  # cross-request result cache (0 disables)


class _BadRequest(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True      # a wedged handler can never block exit
    request_queue_size = 128   # listen backlog: burst connects must not
    app: "QueryServer" = None  # get RST before admission control sees them


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    #: idle keep-alive connections give their thread back after this
    timeout = 30.0
    #: the handler writes status line, headers and body as separate small
    #: sends; with Nagle on, a keep-alive client issuing back-to-back
    #: requests stalls ~40ms per response on the delayed-ACK interaction —
    #: dwarfing millisecond query evaluation
    disable_nagle_algorithm = True
    server: _HTTPServer

    # -- plumbing ----------------------------------------------------------

    def log_message(self, fmt, *args):  # noqa: A003 - stdlib signature
        if self.server.app.verbose:
            sys.stderr.write("serve: %s - %s\n"
                             % (self.address_string(), fmt % args))

    def _respond(self, status: int, body: bytes,
                 ctype: str = "text/plain; charset=utf-8",
                 headers: dict | None = None) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            for k, v in (headers or {}).items():
                self.send_header(k, v)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to salvage

    def _read_body(self) -> str:
        length = self.headers.get("Content-Length")
        if length is None:
            raise _BadRequest(411, "Content-Length required")
        try:
            n = int(length)
        except ValueError:
            raise _BadRequest(400, f"bad Content-Length {length!r}") from None
        if n < 0 or n > MAX_BODY:
            raise _BadRequest(413, f"body of {n} bytes exceeds the "
                                   f"{MAX_BODY}-byte limit")
        raw = self.rfile.read(n)
        if len(raw) != n:
            # a client that disconnected mid-body leaves a truncated
            # prefix, which may itself parse as a different valid query —
            # evaluating it would silently answer a question never asked
            raise _BadRequest(400, f"truncated body: got {len(raw)} of "
                                   f"{n} declared bytes")
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _BadRequest(400, f"body is not valid UTF-8 ({exc})") \
                from None

    # -- GET: observability (never queued behind queries) ------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        app = self.server.app
        t0 = time.perf_counter()
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            # degraded stays HTTP 200: the process is alive and serving
            # (liveness probes must not restart a self-healing server) —
            # the body carries the degradation for readiness tooling
            quarantined = app.repo.quarantine.active()
            body = (b"ok\n" if not quarantined else
                    ("degraded: quarantined="
                     + ",".join(quarantined) + "\n").encode("utf-8"))
            status, ctype = 200, "text/plain; charset=utf-8"
        elif path == "/stats":
            body = (json.dumps(app.stats_snapshot(), indent=1) + "\n") \
                .encode("utf-8")
            status, ctype = 200, "application/json"
        elif path == "/repo":
            body = (json.dumps(app.repo_snapshot(), indent=1) + "\n") \
                .encode("utf-8")
            status, ctype = 200, "application/json"
        else:
            status, body, ctype = 404, b"error: no such endpoint\n", \
                "text/plain; charset=utf-8"
            path = "*unknown*"
        self._respond(status, body, ctype)
        app.metrics.observe(path, status, time.perf_counter() - t0)

    # -- POST: queries -----------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0]
        if path == "/xq":
            self._handle_query("/xq", self.server.app.eval_xq_bytes)
        elif path == "/xpath":
            self._handle_query("/xpath", self.server.app.eval_xpath_bytes)
        else:
            # measured like every other request — a fake 0.0 would drag
            # the *unknown* histogram's quantiles toward the floor
            t0 = time.perf_counter()
            self._respond(404, b"error: no such endpoint\n")
            self.server.app.metrics.observe("*unknown*", 404,
                                            time.perf_counter() - t0)

    def _handle_query(self, endpoint: str, evaluator) -> None:
        app = self.server.app
        t0 = time.perf_counter()
        status, body, headers = 500, b"error: internal\n", {}
        ctype = "text/plain; charset=utf-8"
        leaked = 0
        cause = None
        try:
            if app.draining:
                raise OverloadError("shutting down", retry_after=1.0,
                                    cause="drain")
            text = self._read_body()
            deadline = app.request_deadline(
                self.headers.get("X-Deadline-Ms"))
            with app.admission.admit():
                try:
                    body, ctype, headers = evaluator(text, deadline)
                    status = 200
                finally:
                    # per-request invariant, also on error paths: this
                    # thread's net pin delta across the shared pool must
                    # be zero once evaluation is over
                    leaked = app.repo.pool.pinned_local()
                    if leaked:
                        app.metrics.note_pin_leak()
            if leaked:
                status, ctype, headers = 500, \
                    "text/plain; charset=utf-8", {}
                body = (f"error: invariant violated: {leaked} buffer-pool "
                        f"pin(s) leaked by this request\n").encode("utf-8")
        except OverloadError as exc:
            hint = app.retry_hint(exc.retry_after)
            status, headers = 503, {"Retry-After": str(max(1, round(hint)))}
            body = f"error: overloaded: {exc}\n".encode("utf-8")
            cause = exc.cause
        except PoolExhaustedError as exc:
            # pool-level overload (admission should make this unreachable;
            # if it happens it is shed load, not a broken file)
            status, headers = 503, {"Retry-After": "1"}
            body = f"error: overloaded: {exc}\n".encode("utf-8")
            cause = "pool"
        except DeadlineExceededError as exc:
            # the engine unwound at a cooperative checkpoint with zero
            # leaked pins — the request is over budget, the service fine
            status = 504
            body = f"error: deadline exceeded: {exc}\n".encode("utf-8")
            cause = "deadline"
        except (ParseError, XPathSyntaxError, XQSyntaxError,
                XQCompileError) as exc:
            status, body = 400, f"error: {exc}\n".encode("utf-8")
        except _BadRequest as exc:
            status, body = exc.status, f"error: {exc}\n".encode("utf-8")
        except ReproError as exc:
            # StorageError carries the failing member's name in its message
            status, body = 500, f"error: {exc}\n".encode("utf-8")
        self._respond(status, body, ctype if status == 200 else
                      "text/plain; charset=utf-8", headers)
        app.metrics.observe(endpoint, status, time.perf_counter() - t0,
                            cause=cause)


class QueryServer:
    """A resident :class:`~repro.repo.Repository` behind an HTTP front.

    ``workers`` bounds concurrent query evaluations; the effective bound
    (``max_inflight``) is additionally capped from the pool capacity so
    admitted queries can never pin every frame
    (:func:`~repro.serve.admission.size_inflight`).
    """

    def __init__(self, repo_dir: str, host: str = "127.0.0.1",
                 port: int = 0, pool_pages: int | None = None,
                 workers: int = DEFAULT_WORKERS,
                 max_queue: int = DEFAULT_QUEUE,
                 queue_timeout: float = 2.0,
                 verbose: bool = False,
                 result_cache_mb: float = DEFAULT_RESULT_CACHE_MB,
                 deadline: float | None = None):
        cache_bytes = int(result_cache_mb * (1 << 20))
        self.repo = Repository.open(repo_dir, pool_pages=pool_pages,
                                    result_cache_bytes=cache_bytes or None)
        #: server-wide per-request budget (seconds); X-Deadline-Ms may
        #: tighten it per request but never exceed it
        self.deadline = deadline
        # supervised recovery: quarantined members are re-verified in the
        # background and reinstated when their file fscks clean
        self.repo.start_supervisor()
        self.workers = max(1, workers)
        self.max_inflight = size_inflight(self.workers,
                                          self.repo.pool.capacity)
        self.admission = AdmissionController(self.max_inflight,
                                             max_queue=max_queue,
                                             queue_timeout=queue_timeout)
        self.metrics = Metrics()
        self.verbose = verbose
        self.draining = False
        self._closed = False
        self._final: dict | None = None
        self._thread: threading.Thread | None = None
        try:
            self._httpd = _HTTPServer((host, port), _Handler)
        except BaseException:
            self.repo.close()
            raise
        self._httpd.app = self

    # -- evaluation (called from handler threads) --------------------------

    def request_deadline(self, header: str | None) -> float | None:
        """The effective budget (seconds) for one request: the server's
        ``--deadline``, tightened by an ``X-Deadline-Ms`` header.  A
        client may shorten its own budget, never extend the server's."""
        if header is None:
            return self.deadline
        try:
            ms = float(header)
        except ValueError:
            raise _BadRequest(
                400, f"bad X-Deadline-Ms {header!r}: not a number") \
                from None
        if not ms > 0 or math.isinf(ms) or math.isnan(ms):
            raise _BadRequest(
                400, f"bad X-Deadline-Ms {header!r}: must be a positive "
                     f"finite millisecond count")
        seconds = ms / 1e3
        return seconds if self.deadline is None \
            else min(seconds, self.deadline)

    def retry_hint(self, fallback: float) -> float:
        """The 503 ``Retry-After`` estimate: the time for the current
        admission backlog to drain at the observed median query service
        time — ``p50 × (in flight + queued) / slots`` — instead of a
        constant.  Falls back to the admission layer's static hint until
        a median exists, and is capped so a latency spike cannot tell
        clients to go away for minutes."""
        p50 = self.metrics.query_p50()
        if not p50 or math.isinf(p50):
            return fallback
        depth = self.admission.depth()
        backlog = depth["in_flight"] + depth["queued"]
        return min(p50 * max(1, backlog) / self.max_inflight, 30.0)

    def eval_xq_bytes(self, query: str,
                      deadline: float | None = None) -> tuple:
        result = self.repo.xq(query, deadline=deadline)
        headers = {}
        if result.pruned:
            headers["X-Pruned"] = ",".join(result.pruned)
        if result.quarantined:
            # the response is degraded: these members were skipped
            headers["X-Quarantined"] = ",".join(result.quarantined)
        headers["X-Tuples"] = str(result.n_tuples)
        # the CLI prints to_xml() with print(): same bytes + newline
        return (result.to_xml() + "\n").encode("utf-8"), \
            "application/xml; charset=utf-8", headers

    def eval_xpath_bytes(self, query: str,
                         deadline: float | None = None) -> tuple:
        text = query.lstrip()
        if not text.startswith("/"):
            raise XPathSyntaxError(
                "/xpath body must be an XPath (starts with '/'); "
                "POST XQ queries to /xq")
        skipped: list = []
        lines = [f"{name}: count {res.count()}"
                 for name, res in self.repo.xpath(text, deadline=deadline,
                                                  skipped=skipped)]
        headers = ({"X-Quarantined": ",".join(sorted(skipped))}
                   if skipped else {})
        return ("\n".join(lines) + "\n").encode("utf-8"), \
            "text/plain; charset=utf-8", headers

    # -- reporting ---------------------------------------------------------

    def stats_snapshot(self) -> dict:
        snap = self.metrics.snapshot()
        snap["admission"] = self.admission.depth()
        snap["pool"] = {**self.repo.pool.snapshot(),
                        "max_inflight": self.max_inflight}
        snap["repository"] = {
            "name": self.repo.name,
            "members": len(self.repo.members()),
            "open_members": len(self.repo._open),
        }
        cache = self.repo.result_cache
        snap["result_cache"] = cache.stats() if cache is not None else None
        snap["quarantine"] = self.repo.quarantine.snapshot()
        return snap

    def repo_snapshot(self) -> dict:
        quarantined = set(self.repo.quarantine.active())
        members = [
            {
                "name": m["name"],
                "file": m["file"],
                "catalog_paths": len(m["paths"]),
                "values": sum(c for p, c in m["paths"]
                              if p and p[-1] == "#"),
                "quarantined": m["name"] in quarantined,
            }
            for m in self.repo.manifest["members"]
        ]
        return {
            "name": self.repo.name,
            "members": members,
            "degraded": bool(quarantined),
            "quarantined": sorted(quarantined),
            "pool_capacity": self.repo.pool.capacity,
            "workers": self.workers,
            "max_inflight": self.max_inflight,
            "deadline_s": self.deadline,
        }

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return host, port

    def start(self) -> "QueryServer":
        """Serve on a background thread (tests/benchmarks); returns self."""
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`request_stop` (or
        ``_httpd.shutdown()``) is called from elsewhere."""
        self._httpd.serve_forever()

    def request_stop(self) -> None:
        """Signal-handler-safe: stop the accept loop from any thread."""
        self.draining = True
        threading.Thread(target=self._httpd.shutdown, daemon=True).start()

    def shutdown(self, drain_timeout: float = 10.0) -> dict:
        """Graceful stop: close the accept loop, drain in-flight queries,
        close pool (asserting zero pinned pages) and repository.  Returns
        the final metrics snapshot.  Idempotent."""
        if self._closed:
            return self._final or {}
        self.draining = True
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=drain_timeout)
        deadline = time.monotonic() + drain_timeout
        while time.monotonic() < deadline:
            depth = self.admission.depth()
            if not depth["in_flight"] and not depth["queued"]:
                break
            time.sleep(0.01)
        self._final = self.stats_snapshot()
        self._closed = True
        try:
            self._httpd.server_close()
        finally:
            # in-flight work is drained, so this asserts the session-wide
            # zero-leaked-pins invariant (raises StorageError otherwise)
            self.repo.pool.close()
            self.repo.close()
        return self._final

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def run_serve(args) -> int:
    """``repro-xq serve`` entry point (argparse namespace in, exit code
    out).  SIGTERM/SIGINT trigger graceful shutdown; the final metrics
    snapshot is logged as one JSON line on stderr."""
    from ..storage import faults

    injector = None
    chaos_cm = None
    if args.chaos is not None:
        # a live-server injector (transient OSErrors, bitflips and torn
        # reads on the pool's physical reads), installed before the
        # repository opens so every member page file is wrapped; stays
        # installed until after drain
        rate, seed = args.chaos
        injector = faults.FaultInjector(seed=seed, rate=rate)
        chaos_cm = faults.inject(injector)
        chaos_cm.__enter__()
    try:
        server = QueryServer(
            args.dir, host=args.host, port=args.port, pool_pages=args.pool,
            workers=args.workers, max_queue=args.queue,
            queue_timeout=args.queue_timeout, verbose=args.verbose,
            result_cache_mb=args.result_cache,
            deadline=getattr(args, "deadline", None))
    except BaseException:
        if chaos_cm is not None:
            chaos_cm.__exit__(None, None, None)
        raise
    host, port = server.address
    pool = server.repo.pool.capacity
    print(f"serving repository {server.repo.name!r} "
          f"({len(server.repo.members())} members) on http://{host}:{port} "
          f"workers={server.workers} max_inflight={server.max_inflight} "
          f"pool={'unbounded' if pool is None else pool}"
          + (f" deadline={server.deadline}s" if server.deadline else "")
          + (f" chaos={injector.rate}:{injector.seed}"
             if injector is not None else ""),
          flush=True)

    def _on_signal(signum, frame):
        print(f"serve: received signal {signum}, shutting down",
              file=sys.stderr, flush=True)
        server.request_stop()

    previous = {s: signal.signal(s, _on_signal)
                for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        server.serve_forever()
    finally:
        for s, h in previous.items():
            signal.signal(s, h)
        final = server.shutdown()
        if chaos_cm is not None:
            chaos_cm.__exit__(None, None, None)
        if injector is not None:
            final["chaos"] = {"ops": injector.ops,
                              "fired": dict(injector.by_kind)}
        print("serve: final stats " + json.dumps(final, sort_keys=True),
              file=sys.stderr, flush=True)
    return 0
