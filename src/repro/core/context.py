"""Shared evaluation context: the one object threaded through the stack.

Before this module, every layer of a query evaluation wired its own state:
the engine reset scan counters on the document, built a
:class:`VectorCache`, passed it to the reduction, which passed it to the
XPath evaluator, and each of them reached for ``vdoc.pool`` separately to
check pin accounting.  An :class:`EvalContext` bundles all of it — the
documents in scope (one for a plain query, every member for a repository
query), one vector cache per document, the per-query pass counters behind
the batched-execution invariant, and the engine's guards — so a single
object flows through ``engine`` → ``reduction`` → ``builder`` → the XPath
evaluators, and the invariants are checked in one place, pool-wide.

Invariants enforced here (all machine checks, not comments):

* **no decompression** — :meth:`EvalContext.guard` wraps the evaluation in
  :func:`~repro.core.reconstruct.forbid_decompression`;
* **scan-at-most-once** — after the query, no touched vector may have been
  scanned more than once, logically (one scan per first touch through
  the context's :class:`VectorCache`) or physically (pages read *by this
  context* bounded by one full chain pass);
* **one pass per plan operation** — batched execution promises each
  data vector is swept at most once per plan *operation*, however many
  concrete paths the rows carry; full-column kernel sweeps register
  through :meth:`note_pass` and are asserted ``<= 1`` per
  ``(operation, vector)``;
* **zero leaked pins** — after the query (successful or not), every buffer
  pool reachable from the documents has ``pinned_total() == 0``.

The context also carries the query's **cooperative deadline**: an
absolute monotonic instant set by :meth:`EvalContext.set_deadline`.
:meth:`EvalContext.checkpoint` — one counter bump plus at most one
``time.monotonic()`` call — is sprinkled through the engine's loops
(vector touches, plan operations, row groups and extensions,
result-row assembly) and every heap-chain page a materialization walks, so a
runaway query raises a typed
:class:`~repro.errors.DeadlineExceededError` at the next checkpoint and
unwinds through the ordinary failure path — which asserts zero leaked
pins, leaving the pool fully reusable.  Checkpoints are *numbered*, and
``expire_at_checkpoint`` forces expiry at an exact index — the
deterministic fault-injection hook the deadline-expiry sweep uses to
prove the unwind is clean at every single checkpoint of a query.
"""

from __future__ import annotations

import time
import weakref
from contextlib import contextmanager

import numpy as np

from ..errors import DeadlineExceededError, EngineInvariantError
from .reconstruct import forbid_decompression
from .vectors import Vector


class VectorCache:
    """One query's door to a document's vectors and value-index handles.

    Built by :meth:`EvalContext.cache`, it holds that context and is the
    only way a query reads data.  The first touch of a unit (a vector or
    an index handle) is a deadline checkpoint and one logical scan
    charged to the context; the context is then handed down to the
    storage materialization, which charges its page reads and decoded
    values to it as well.  A read is therefore charged to the context
    that owns the cache — not to whichever context happens to be
    evaluating on the calling thread.

    Shared across every operation of a query — including all operations of
    an XQ graph reduction — so the engine's scan-at-most-once invariant
    holds for whole multi-operation queries, not just single paths.

    A vector may be read through several *representations* in one query —
    the string column, the dictionary codes of a ``dict``-coded vector,
    the float view — all derived from the same single chain pass.  The
    cache funnels them through one touch per unit, so the scan-once
    invariant counts physical passes, not representations."""

    def __init__(self, ctx: "EvalContext", vdoc):
        # weak: the context owns its caches, and a strong back-reference
        # would make every context a cycle that outlives its query — with
        # its documents and their columns — until a full collection
        self._ctx = weakref.proxy(ctx)
        self._vectors: dict[tuple, Vector] = vdoc.vectors
        self._vindexes: dict[tuple, object] = vdoc._vindexes
        #: units touched through this cache: its document's share of the
        #: context's accounting window
        self.touched: set = set()

    def _touch(self, unit) -> None:
        if unit not in self.touched:
            self._ctx.checkpoint()
            self._ctx.note_scan(unit)
            self.touched.add(unit)

    def _vector(self, path: tuple) -> Vector:
        vec = self._vectors[path]
        self._touch(vec)
        return vec

    def column(self, path: tuple) -> np.ndarray:
        return self._vector(path).column(self._ctx)

    def dict_codes(self, path: tuple):
        """``(keys, codes)`` of a dictionary-coded vector — the
        decode-free predicate surface — or ``None`` (not dict-coded)."""
        return self._vector(path).dict_codes(self._ctx)

    def value_codes(self, path: tuple, ords: np.ndarray):
        """``(sorted keys, per-value codes)`` valid at the ordinals
        ``ords`` — the equality join's view of one operand vector.  A
        dictionary-coded vector hands out its stored coding (zero decoded
        values).  Any other vector is coded here, *distinct reached
        ordinals first*: the one string ``np.unique`` sees
        ``min(len(ords), len(vector))`` values, so a join reached by ten
        rows never codes a 20k-value column; what is proportional to the
        vector is an integer presence mask.  (Coding the whole column
        once per query would be cheaper only when several joins reach
        most of one vector, and would need a second per-query cache.)"""
        dc = self.dict_codes(path)
        if dc is not None:
            return dc
        present = np.zeros(len(self._vectors[path]), dtype=bool)
        present[ords] = True
        reached = np.flatnonzero(present)
        keys, inverse = np.unique(self.column(path)[reached],
                                  return_inverse=True)
        codes = np.full(len(present), -1, dtype=np.int64)
        codes[reached] = inverse.ravel()
        return keys, codes

    def floats(self, path: tuple) -> np.ndarray:
        return self._vector(path).floats(self._ctx)

    def vindex(self, path: tuple):
        """The value index of ``path`` to probe, or ``None`` (the vector
        has none)."""
        handle = self._vindexes.get(path)
        if handle is None:
            return None
        self._touch(handle)
        return handle.get(self._ctx)


class EvalContext:
    """Evaluation state for one query (or one repository query)."""

    def __init__(self, docs=()):
        self.docs: list = list(docs)
        self._caches: dict[int, VectorCache] = {}
        self._passes: dict[tuple, int] = {}
        # the accounting window, ``{I/O unit: [logical scans, physical
        # page reads, decoded string values]}`` performed *by this
        # context* — the shared vectors carry no per-query state, so
        # concurrent contexts over the same document never see each
        # other's counts.  It holds only the units this context touched;
        # begin() reopens one document's share of it.
        self._window: dict = {}
        #: absolute monotonic instant after which checkpoint() raises
        self.deadline: float | None = None
        #: the deadline budget in seconds (for the error message)
        self._budget: float | None = None
        #: checkpoints passed so far (monotonic across the context's life)
        self.checkpoints: int = 0
        #: deterministic expiry: raise at exactly this checkpoint index
        #: (the deadline-sweep test hook — no wall clock involved)
        self.expire_at_checkpoint: int | None = None

    @classmethod
    def for_doc(cls, vdoc) -> "EvalContext":
        return cls([vdoc])

    def add(self, vdoc) -> None:
        """Bring another document into scope (repository members join the
        context lazily, as they are opened)."""
        if not any(d is vdoc for d in self.docs):
            self.docs.append(vdoc)

    def cache(self, vdoc) -> VectorCache:
        """The per-document vector cache (created on first use)."""
        c = self._caches.get(id(vdoc))
        if c is None:
            c = self._caches[id(vdoc)] = VectorCache(self, vdoc)
        return c

    def pools(self) -> list:
        """Every distinct buffer pool reachable from the documents (an
        unsaved document has none)."""
        pools = {id(d.pool): d.pool for d in self.docs if d.pool is not None}
        return list(pools.values())

    # -- cooperative deadline ----------------------------------------------

    def set_deadline(self, seconds: float | None) -> None:
        """Arm the deadline: the query may run ``seconds`` from *now*.
        ``None`` disarms it (the library default — only services and the
        CLI opt in)."""
        if seconds is None:
            self.deadline = self._budget = None
        else:
            self._budget = seconds
            self.deadline = time.monotonic() + seconds

    def checkpoint(self) -> None:
        """The cooperative cancellation point: cheap enough for inner
        loops (one int bump; the clock is read only when a deadline is
        armed).  Raises :class:`DeadlineExceededError` once the deadline
        has passed — or exactly at ``expire_at_checkpoint`` when the
        deterministic sweep hook is set."""
        n = self.checkpoints
        self.checkpoints = n + 1
        if self.expire_at_checkpoint is not None \
                and n >= self.expire_at_checkpoint:
            raise DeadlineExceededError(self._budget, n)
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise DeadlineExceededError(self._budget, n)

    # -- per-query windows -------------------------------------------------

    def begin(self, vdoc) -> None:
        """Open a fresh accounting window for a query over ``vdoc``: drop
        this context's cache of it and the counts of every unit that
        cache touched, reset pass counts.  The document itself is
        untouched — other contexts evaluating it concurrently keep their
        windows."""
        self.add(vdoc)
        old = self._caches.pop(id(vdoc), None)
        if old is not None:
            for unit in old.touched:
                self._window.pop(unit, None)
        self._passes = {k: v for k, v in self._passes.items()
                        if k[0] != id(vdoc)}

    def _counts(self, unit) -> list:
        counts = self._window.get(unit)
        if counts is None:
            counts = self._window[unit] = [0, 0, 0]
        return counts

    def note_scan(self, unit) -> None:
        """Record one logical scan of ``unit`` (a vector or index handle)
        by this context — called by its :class:`VectorCache` on the
        unit's first touch."""
        self._counts(unit)[0] += 1

    def note_io(self, unit, pages: int) -> None:
        """Record ``pages`` physical page reads performed by this context
        while materializing ``unit`` (called by the storage layer, which
        the cache handed this context)."""
        if pages:
            self._counts(unit)[1] += pages

    def note_decode(self, unit, count: int) -> None:
        """Record ``count`` string values decoded from encoded storage by
        this context while serving ``unit`` — charged when (and only when)
        a string column is actually built from the stored bytes, so a
        dictionary-coded vector queried purely in code space contributes
        zero.  The decode-free evaluation claim is asserted through
        :meth:`decode_counts`, not taken on faith."""
        if count:
            self._counts(unit)[2] += count

    def _per_unit(self, vdoc, kind: int) -> dict[tuple, int]:
        window = self._window
        return {u.path: window[u][kind] if u in window else 0
                for u in vdoc.io_units()}

    def scan_counts(self, vdoc) -> dict[tuple, int]:
        """This context's per-unit scan counts for ``vdoc`` (tests assert
        the scan-once invariant through this)."""
        return self._per_unit(vdoc, 0)

    def decode_counts(self, vdoc) -> dict[tuple, int]:
        """This context's per-unit decoded-value counts for ``vdoc`` (the
        zero-decode machine assertion for code-space evaluation reads
        this)."""
        return self._per_unit(vdoc, 2)

    def pages_in_window(self, unit) -> int:
        """Physical pages this context read while materializing ``unit``."""
        counts = self._window.get(unit)
        return counts[1] if counts else 0

    def note_pass(self, vdoc, key: tuple) -> None:
        """Record one full-column kernel sweep attributed to ``key``
        (an ``(operation, vector path)`` pair from the reduction)."""
        full = (id(vdoc), *key)
        self._passes[full] = self._passes.get(full, 0) + 1

    def pass_counts(self) -> dict[tuple, int]:
        return dict(self._passes)

    # -- invariant checks ----------------------------------------------------

    def check_pins(self) -> None:
        """Zero leaked buffer-pool pins — asserted even when a query
        fails, so corrupt on-disk data surfaces as a StorageError with the
        pool intact and reusable, not as a poisoned pool.

        The check is *per request*: a query runs start to finish on one
        thread, and the pool accounts pins per thread
        (:meth:`~repro.storage.buffer.BufferPool.pinned_local`), so the
        assertion holds concurrently — other requests' transient pins on
        the shared pool do not trip it, and this request cannot hide a
        leak behind them.  Single-threaded, it is exactly the old
        pool-wide check."""
        for pool in self.pools():
            pinned = pool.pinned_local()
            if pinned:
                raise EngineInvariantError(
                    f"{pinned} buffer-pool page pin(s) leaked by the query"
                )

    def check_passes(self) -> None:
        over = [k for k, v in self._passes.items() if v > 1]
        if over:
            detail = ", ".join(
                f"{'/'.join(k[-1])} in op {k[1:-1]} x{self._passes[k]}"
                for k in over)
            raise EngineInvariantError(
                "data vectors swept more than once per plan operation: "
                + detail)

    def check(self, vdoc) -> None:
        """Post-query assertions for ``vdoc``: scan-once (logical and
        physical), once-per-operation passes, and zero pins pool-wide."""
        cache = self._caches.get(id(vdoc))
        window = [(u, self._window[u])
                  for u in (cache.touched if cache is not None else ())]
        over = [u.path for u, counts in window if counts[0] > 1]
        if over:
            raise EngineInvariantError(
                "vectors scanned more than once in one query: "
                + ", ".join("/".join(p) for p in over)
            )
        # Disk-backed documents: the logical counter is additionally
        # checked against *physical* I/O — within the query window this
        # context may not read more pages of a vector (or index segment)
        # than one full pass over its chain(s).
        over_io = [u.path for u, counts in window if counts[1] > u.n_pages]
        if over_io:
            raise EngineInvariantError(
                "vectors read more pages than one full chain pass: "
                + ", ".join("/".join(p) for p in over_io)
            )
        self.check_passes()
        self.check_pins()

    @contextmanager
    def guard(self, vdoc):
        """The engine's evaluation envelope: fresh accounting window, no
        decompression inside, pin check on failure, full check on
        success.  It installs nothing: every read the query makes goes
        through this context's caches, which charge it here."""
        self.begin(vdoc)
        try:
            with forbid_decompression():
                yield self
        except BaseException:
            self.check_pins()  # a failed query must not leak pins either
            raise
        self.check(vdoc)
