"""Live service metrics: request counters + latency histograms.

Everything here is updated on the request path, so the design goal is a
few dict/array bumps under one lock — no allocation, no sorting.  Latency
is recorded in a fixed log-bucketed histogram (factor √2 between bucket
bounds, ~±20% quantile resolution over 50µs .. hours), which makes
``p50``/``p99`` O(buckets) to read and the memory footprint constant no
matter how long the server runs.  Quantiles are reported as the upper
bound of the bucket holding the target rank — a conservative estimate
(never under-reports a latency regression).  A rank landing in the
overflow bucket has **no** finite upper bound, so ``quantile`` returns
``inf`` and ``as_dict`` reports ``null`` plus an explicit ``overflow``
count — clamping it to the last bound (~148 s) would silently
under-report exactly the latencies most worth alarming on.
"""

from __future__ import annotations

import bisect
import math
import threading
import time

#: bucket upper bounds in seconds: 50µs · √2^i — 44 buckets reach ~3.7h
_BOUNDS = [5e-05 * (2 ** (i / 2.0)) for i in range(44)]


class LatencyHistogram:
    """Fixed log-bucket latency histogram (not thread-safe on its own;
    :class:`Metrics` updates it under its lock)."""

    __slots__ = ("counts", "n", "total")

    def __init__(self) -> None:
        self.counts = [0] * (len(_BOUNDS) + 1)
        self.n = 0
        self.total = 0.0

    def observe(self, seconds: float) -> None:
        self.counts[bisect.bisect_left(_BOUNDS, seconds)] += 1
        self.n += 1
        self.total += seconds

    def quantile(self, q: float) -> float:
        """Upper bound (seconds) of the bucket holding rank ``ceil(q*n)``;
        0.0 before the first observation; ``inf`` when the rank falls in
        the overflow bucket (an observation beyond the last bound has no
        finite upper bound to report conservatively)."""
        if not self.n:
            return 0.0
        target = max(1, math.ceil(self.n * q))
        cum = 0
        for i, c in enumerate(self.counts):
            cum += c
            if cum >= target:
                return _BOUNDS[i] if i < len(_BOUNDS) else math.inf
        return math.inf

    @property
    def overflow(self) -> int:
        """Observations beyond the last bucket bound (~148 s)."""
        return self.counts[-1]

    def as_dict(self) -> dict:
        def _ms(seconds: float):
            # inf is not representable in JSON: report null, with the
            # explicit overflow count alongside as the marker
            return None if math.isinf(seconds) else round(seconds * 1e3, 3)

        return {
            "count": self.n,
            "mean_ms": round(self.total / self.n * 1e3, 3) if self.n
            else 0.0,
            "p50_ms": _ms(self.quantile(0.50)),
            "p99_ms": _ms(self.quantile(0.99)),
            "overflow": self.overflow,
        }


class _Endpoint:
    __slots__ = ("requests", "errors", "by_status", "latency")

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.by_status: dict[int, int] = {}
        self.latency = LatencyHistogram()


class Metrics:
    """Thread-safe service counters: per-endpoint requests/errors/status
    codes + latency, plus service-level invariant counters (``pin_leaks``
    must stay 0 — the serve tests and benchmark assert it)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._endpoints: dict[str, _Endpoint] = {}
        self.started = time.time()
        self.pin_leaks = 0       # per-request leaked-pin assertions tripped
        # 503s attributed by cause — conflating them made every drain
        # rejection and pool exhaustion look like admission pressure:
        self.overloads = 0       # shed by admission control (queue/timeout)
        self.drain_rejects = 0   # rejected during graceful shutdown
        self.pool_exhausted = 0  # every pool frame pinned mid-query
        self.timeouts = 0        # 504s: cooperative deadlines exceeded

    def observe(self, endpoint: str, status: int, seconds: float,
                cause: str | None = None) -> None:
        """Record one finished request.  For a 503, ``cause`` attributes
        it: ``"admission"`` (or ``None``) counts as an overload shed,
        ``"drain"`` as a shutdown rejection, ``"pool"`` as pool
        exhaustion."""
        with self._lock:
            ep = self._endpoints.get(endpoint)
            if ep is None:
                ep = self._endpoints[endpoint] = _Endpoint()
            ep.requests += 1
            ep.by_status[status] = ep.by_status.get(status, 0) + 1
            if status >= 400:
                ep.errors += 1
            if status == 503:
                if cause == "drain":
                    self.drain_rejects += 1
                elif cause == "pool":
                    self.pool_exhausted += 1
                else:
                    self.overloads += 1
            if status == 504:
                self.timeouts += 1
            ep.latency.observe(seconds)

    def query_p50(self, endpoints: tuple = ("/xq", "/xpath")) -> float:
        """The median *service* time (seconds) observed across the query
        endpoints, merged rank-wise over their shared bucket bounds — the
        input to the 503 ``Retry-After`` estimate.  0.0 before any query
        has completed; ``inf`` when the median fell in the overflow
        bucket (the hint falls back to its static default then)."""
        merged = LatencyHistogram()
        with self._lock:
            for name in endpoints:
                ep = self._endpoints.get(name)
                if ep is None:
                    continue
                for i, c in enumerate(ep.latency.counts):
                    merged.counts[i] += c
                merged.n += ep.latency.n
        return merged.quantile(0.5)

    def note_pin_leak(self) -> None:
        with self._lock:
            self.pin_leaks += 1

    def snapshot(self) -> dict:
        """One consistent JSON-ready view of every counter."""
        with self._lock:
            endpoints = {
                name: {
                    "requests": ep.requests,
                    "errors": ep.errors,
                    "by_status": {str(k): v
                                  for k, v in sorted(ep.by_status.items())},
                    **ep.latency.as_dict(),
                }
                for name, ep in sorted(self._endpoints.items())
            }
            return {
                "uptime_s": round(time.time() - self.started, 3),
                "requests": sum(e.requests
                                for e in self._endpoints.values()),
                "pin_leaks": self.pin_leaks,
                "overloads": self.overloads,
                "drain_rejects": self.drain_rejects,
                "pool_exhausted": self.pool_exhausted,
                "timeouts": self.timeouts,
                "endpoints": endpoints,
            }
