"""Load models.

* **Closed loop** — a client sends its next operation only after the
  previous one completed (callers that wait for their reply).  Zero think
  time; the offered load falls when the program slows.
* **Open loop** — operations are due on a fixed schedule regardless of
  completions (independent users).  Each latency is measured from the
  operation's *intended* send time, so a stall charges every operation
  queued behind it; how late the generator itself ran is reported too.
"""

from __future__ import annotations

import threading
import time


def _attempt(op, execute, checker, clock=time.perf_counter):
    """``execute(op)``, timed.  A raise is a failed op: reported to
    ``checker.fail``, not re-raised.  Returns ``(ok, started, ended)``;
    a successful result goes to ``checker.note(op, *result)`` after the
    clock has stopped."""
    t0 = clock()
    try:
        result = execute(op)
    except Exception as exc:   # noqa: BLE001 - any failure fails the op
        t1 = clock()
        checker.fail(op, repr(exc))
        return False, t0, t1
    t1 = clock()
    checker.note(op, *result)
    return True, t0, t1


def closed_loop(ops, seconds: float, execute, checker):
    """Run ``execute(op)`` back to back until ``seconds`` have passed (the
    op in flight at the deadline completes).  A failed op is counted but
    has no latency.  Returns
    ``(samples [(class, ms)], attempted, elapsed_s)``."""
    samples = []
    attempted = 0
    start = now = time.perf_counter()
    for op in ops:
        attempted += 1
        ok, t0, now = _attempt(op, execute, checker)
        if ok:
            samples.append((op.cls, (now - t0) * 1e3))
        if now - start >= seconds:
            break
    return samples, attempted, now - start


def run_schedule(schedule, execute, checker, clock=time.perf_counter,
                 sleep=time.sleep):
    """One connection's share of an open-loop schedule: ``schedule`` is
    ``[(due, op)]`` ascending.  Returns per op
    ``(class, latency_ms from due, lateness_ms of the send, ok, done)``."""
    out = []
    for due, op in schedule:
        if clock() < due:
            sleep(due - clock())
        ok, sent, done = _attempt(op, execute, checker, clock)
        out.append((op.cls, (done - due) * 1e3, (sent - due) * 1e3, ok, done))
    return out


def open_loop(ops, rate: float, seconds: float, connections: list) -> dict:
    """Fire ``rate`` ops/s for ``seconds`` over ``connections`` — a list of
    ``(execute, checker)``, one thread each; op ``i`` goes to connection
    ``i % n``."""
    n_ops = max(1, int(rate * seconds))
    start = time.perf_counter() + 0.05
    shares = [[] for _ in connections]
    for i, op in zip(range(n_ops), ops):
        shares[i % len(connections)].append((start + i / rate, op))
    results: list[list] = [[] for _ in connections]

    def worker(idx: int) -> None:
        results[idx] = run_schedule(shares[idx], *connections[idx])

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(connections))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    flat = [r for per in results for r in per]
    end = start + seconds
    return {
        "rate": rate, "scheduled": n_ops,
        "latencies_ms": [r[1] for r in flat if r[3]],
        "lateness_ms": [r[2] for r in flat],
        "failed": sum(1 for r in flat if not r[3]),
        #: scheduled ops still unfinished when the phase's time was up
        "backlog": sum(1 for r in flat if r[4] > end),
    }
