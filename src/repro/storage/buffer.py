"""Buffer pool: bounded page cache with clock (second-chance) eviction.

One pool may now back *several* page files at once — the repository layer
opens every member document of a collection over a single shared pool, so
eviction pressure, pin accounting and I/O statistics are global across the
whole repository (``pinned_total() == 0`` after a query means zero leaked
pins *pool-wide*).  Frames are keyed by ``(file, page)``; each attached
file gets a :class:`FileView` — a per-file facade with the classic
single-file interface (``pin``/``unpin``/``page``/``new_page``) plus its
own per-file :class:`IOStats`, while the pool aggregates the same counters
pool-wide.

For compatibility, ``BufferPool(file)`` still behaves as the old
single-file pool: the file is attached as file 0 and the pool's own
``pin``/``unpin``/... operate on it.

Every page access of the storage layer goes through :meth:`FileView.pin`
— the only call sites of ``PageFile.read_page`` / ``write_page`` — so the
pool's :class:`IOStats` are the ground truth for the lazy-loading claims:
the engine checks "each data vector is scanned at most once" against these
physical page-read counts, not just against in-memory scan counters.

Pin/unpin is strict accounting: a pinned frame is never evicted, unpinning
below zero raises, and the engine asserts ``pinned_total() == 0`` after
every query — a leaked pin is a bug, not a warning.

Concurrency (the ``repro.serve`` substrate).  The pool is safe to share
across threads:

* one **pool lock** protects the frame table, the clock, and every
  counter;
* a page being faulted in by one thread is entered into the table as a
  *loading* frame with a per-frame condition latch (bound to the pool
  lock); a second reader of the same page **blocks on the latch** instead
  of issuing a duplicate physical read — the pool never faults the same
  page twice concurrently;
* physical I/O happens *outside* the pool lock (the loading frame keeps
  the slot reserved), so a fault-in never blocks unrelated hits;
* eviction runs entirely under the pool lock and never touches a frame
  latch: a victim is by definition unpinned and fully loaded, so there is
  nothing to wait for — the lock hierarchy is strictly
  ``pool lock -> frame latch`` and the write-back of a dirty victim
  completes before the frame leaves the table (no stale re-read window);
* pin counts are additionally accounted **per thread**
  (:meth:`BufferPool.pinned_local`): a request served on one thread must
  end with a net pin delta of zero even while other threads hold transient
  pins, which is what lets the engine machine-check "zero leaked pins" per
  request, concurrently;
* when every frame is pinned, :class:`~repro.errors.PoolExhaustedError`
  (carrying capacity and pin counts) is raised instead of a generic
  storage error, so admission control can shed load rather than mistake
  overload for corruption.

Fault tolerance (the ``repro.serve`` robustness substrate):

* the physical read of a fault-in (:meth:`BufferPool._fault`) retries a
  **transient** ``OSError`` up to ``io_retries`` times with doubling
  backoff before surfacing it wrapped in :class:`TransientIOError` — one
  flaky read no longer kills a whole query; retries are counted in
  ``IOStats.read_retries``.  A :class:`~repro.errors.CorruptDataError`
  (checksum mismatch — the bytes themselves are wrong) is **never**
  retried: re-reading deterministic corruption wastes the budget and
  delays quarantine;
* any failed fault-in rolls its reserved loading frame back, so an error
  raised under a pin leaves zero leaked pins and the pool fully usable.
  The pool knows nothing of queries: a query's deadline is checked by
  the heap-chain walk before each page it pins
  (:meth:`~repro.storage.heap.HeapFile.records`), and what a query read
  is charged by the materialization that walked the chain.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..errors import PoolExhaustedError, StorageError
from .disk import PageFile

#: transient-read retry policy defaults: up to ``IO_RETRIES`` re-reads
#: with ``IO_RETRY_DELAY * 2**attempt`` seconds of backoff between them
IO_RETRIES = 2
IO_RETRY_DELAY = 0.01


class TransientIOError(StorageError):
    """A physical page read kept failing with ``OSError`` after the
    bounded retry budget.  Distinct from corruption — the bytes were
    never seen — but equally fatal for the read: the member it belongs
    to is quarantined and re-verified like any storage failure.
    Carries the retry count and the final ``OSError``."""

    def __init__(self, pid: int, retries: int, last: OSError):
        super().__init__(
            f"page {pid}: transient I/O error persisted after "
            f"{retries} retr{'y' if retries == 1 else 'ies'}: {last}")
        self.pid = pid
        self.retries = retries
        self.last = last


@dataclass
class IOStats:
    """Physical + logical I/O counters, all monotonically increasing."""

    pages_read: int = 0       # physical page reads (== cache misses)
    pages_written: int = 0    # physical page write-backs
    hits: int = 0             # pins served from the pool
    misses: int = 0           # pins that had to read
    evictions: int = 0        # frames reclaimed by the clock
    read_retries: int = 0     # transient-OSError re-reads that were needed
    logical_bytes: int = 0    # uncompressed bytes of columns materialized
    physical_bytes: int = 0   # encoded bytes those columns occupied on disk
    decoded_values: int = 0   # string values decoded from encoded storage

    def hit_rate(self) -> float:
        """Fraction of pins served without a physical read (0.0 when no
        pin has happened yet) — the warm-pool signal ``/stats`` and the
        serve benchmark report."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def compression_ratio(self) -> float:
        """``physical / logical`` bytes of everything materialized so far
        (1.0 before any materialization): the live compression-savings
        signal — lower is better, 1.0 means identity storage."""
        return self.physical_bytes / self.logical_bytes \
            if self.logical_bytes else 1.0

    def as_dict(self) -> dict:
        return {
            "pages_read": self.pages_read,
            "pages_written": self.pages_written,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "read_retries": self.read_retries,
            "hit_rate": round(self.hit_rate(), 4),
            "logical_bytes": self.logical_bytes,
            "physical_bytes": self.physical_bytes,
            "decoded_values": self.decoded_values,
            "compression_ratio": round(self.compression_ratio(), 4),
        }


@dataclass
class _Frame:
    buf: bytearray | None
    pin_count: int = 0
    ref: bool = True          # clock reference bit
    dirty: bool = field(default=False)
    #: being faulted in: the slot is reserved, ``buf`` not yet valid
    loading: bool = field(default=False)
    #: latch for readers arriving while ``loading`` (bound to the pool
    #: lock; created only when the frame is admitted via a fault-in)
    cond: threading.Condition | None = field(default=None)


class FileView:
    """One attached file's face of a (possibly shared) :class:`BufferPool`.

    Exposes the single-file pool interface plus per-file ``stats``; all
    frame storage, eviction and pool-wide accounting live in the pool.
    """

    __slots__ = ("pool", "fid", "file", "stats")

    def __init__(self, pool: "BufferPool", fid: int, file: PageFile):
        self.pool = pool
        self.fid = fid
        self.file = file
        self.stats = IOStats()

    @property
    def page_size(self) -> int:
        return self.file.page_size

    def pin(self, pid: int) -> bytearray:
        return self.pool.pin_at(self.fid, pid)

    def unpin(self, pid: int, dirty: bool = False) -> None:
        self.pool.unpin_at(self.fid, pid, dirty)

    def new_page(self) -> tuple[int, bytearray]:
        return self.pool.new_page_at(self.fid)

    @contextmanager
    def page(self, pid: int, dirty: bool = False):
        """``with view.page(pid) as buf:`` — pin for the block's duration."""
        buf = self.pin(pid)
        try:
            yield buf
        finally:
            self.unpin(pid, dirty)

    def pages_read_local(self) -> int:
        """The calling thread's physical reads, pool-wide (reads are
        accounted per thread, not per file)."""
        return self.pool.pages_read_local()


class BufferPool:
    """At most ``capacity`` resident pages across every attached
    :class:`PageFile` (``capacity=None`` → unbounded)."""

    def __init__(self, file: PageFile | None = None,
                 capacity: int | None = None, verify: bool = True,
                 io_retries: int = IO_RETRIES,
                 io_retry_delay: float = IO_RETRY_DELAY):
        if capacity is not None and capacity < 2:
            # heap-file appends pin the old tail while linking a fresh page
            raise StorageError("buffer pool needs a capacity of >= 2 pages")
        self.capacity = capacity
        #: checksum-verify every physical page read (format v2 integrity);
        #: off only for fsck, which sweeps every page's checksum itself
        #: and reports mismatches as findings instead of raising.
        self.verify = verify
        #: transient-OSError read retries per fault (0 disables)
        self.io_retries = max(0, io_retries)
        #: backoff before the first retry, doubling per attempt
        self.io_retry_delay = io_retry_delay
        self.stats = IOStats()                    # pool-wide counters
        self._views: list[FileView] = []
        self._frames: dict[tuple[int, int], _Frame] = {}
        self._clock: list[tuple[int, int]] = []   # resident keys, clock order
        self._hand = 0
        self._lock = threading.Lock()             # frame table + counters
        self._tlocal = threading.local()          # per-thread net pin delta
        self._closed = False
        if file is not None:
            self.attach(file)

    # -- file attachment ---------------------------------------------------

    def attach(self, file: PageFile) -> FileView:
        """Share this pool with ``file``; returns its per-file view."""
        with self._lock:
            view = FileView(self, len(self._views), file)
            self._views.append(view)
        return view

    def views(self) -> list[FileView]:
        return list(self._views)

    @property
    def file(self) -> PageFile | None:
        """The first attached file (single-file compatibility)."""
        return self._views[0].file if self._views else None

    @property
    def page_size(self) -> int:
        return self._views[0].file.page_size

    # -- per-thread pin accounting ------------------------------------------

    def _note_pin(self, delta: int) -> None:
        t = self._tlocal
        t.pins = getattr(t, "pins", 0) + delta

    def pinned_local(self) -> int:
        """Net pin delta of the *calling thread* (pins minus unpins).

        A query runs start to finish on one thread, so this is the
        per-request face of the zero-leaked-pins invariant: it must be 0
        after the request even while concurrent requests on other threads
        legitimately hold transient pins (``pinned_total`` would count
        those too)."""
        return getattr(self._tlocal, "pins", 0)

    def _note_read(self, delta: int) -> None:
        t = self._tlocal
        t.reads = getattr(t, "reads", 0) + delta

    def pages_read_local(self) -> int:
        """Physical page reads performed *by the calling thread*, ever.

        The per-request face of the bounded-physical-I/O invariant: a
        materialization measures its own read cost as a delta of this
        counter, so a concurrent thread faulting pages of the same (or any
        other) chain never inflates the measurement — the pool-wide
        ``stats.pages_read`` would."""
        return getattr(self._tlocal, "reads", 0)

    # -- pinning -----------------------------------------------------------

    def pin_at(self, fid: int, pid: int) -> bytearray:
        """Fix page ``pid`` of file ``fid`` in memory; return its buffer.

        Concurrent pins of the same non-resident page coalesce: the first
        thread faults the page in, later threads wait on the frame latch
        and are then served as hits — never a duplicate physical read."""
        view = self._views[fid]
        key = (fid, pid)
        with self._lock:
            while True:
                frame = self._frames.get(key)
                if frame is None:
                    break
                if not frame.loading:
                    self.stats.hits += 1
                    view.stats.hits += 1
                    frame.pin_count += 1
                    frame.ref = True
                    self._note_pin(+1)
                    return frame.buf
                # another thread is faulting this page in: wait on its
                # latch (releases the pool lock), then re-check — the load
                # may have failed or the frame may even have been evicted,
                # in which case this thread retries the fault itself
                frame.cond.wait()
            # miss: reserve the slot *before* the physical read so a
            # second reader blocks on the latch instead of double-faulting
            self.stats.misses += 1
            view.stats.misses += 1
            self._make_room()
            frame = _Frame(None, pin_count=1, loading=True,
                           cond=threading.Condition(self._lock))
            self._frames[key] = frame
            self._clock.append(key)
            self._note_pin(+1)
        try:
            # physical I/O outside the pool lock: hits on other pages
            # proceed while this page loads
            buf = self._fault(view, pid)
        except BaseException:
            with self._lock:
                self._note_pin(-1)
                del self._frames[key]
                self._clock_remove(key)
                frame.loading = False
                frame.cond.notify_all()   # waiters retry (and fail the same)
            raise
        with self._lock:
            frame.buf = buf
            frame.loading = False
            self.stats.pages_read += 1
            view.stats.pages_read += 1
            self._note_read(1)
            frame.cond.notify_all()
        return buf

    def _fault(self, view: FileView, pid: int) -> bytearray:
        """The physical read of one fault-in (pool lock NOT held; the
        loading frame reserves the slot).

        Retries a transient ``OSError`` up to ``io_retries`` times with
        doubling backoff.  :class:`~repro.errors.CorruptDataError` is
        deterministic (the bytes on disk are wrong) and surfaces
        immediately so the repository can quarantine the member instead
        of burning the retry budget re-reading known-bad data."""
        delay = self.io_retry_delay
        attempt = 0
        while True:
            try:
                return bytearray(view.file.read_page(pid,
                                                     verify=self.verify))
            except OSError as exc:
                if attempt >= self.io_retries:
                    raise TransientIOError(pid, attempt, exc) from exc
                attempt += 1
                with self._lock:
                    self.stats.read_retries += 1
                    view.stats.read_retries += 1
                if delay > 0:
                    time.sleep(delay)
                delay *= 2

    def note_decode(self, view: FileView, logical: int = 0,
                    physical: int = 0, values: int = 0) -> None:
        """Charge one column materialization's codec traffic: ``logical``
        uncompressed bytes served, ``physical`` encoded bytes they
        occupied, ``values`` strings actually decoded (0 for a column
        answered purely in code space).  Counted pool-wide and per file
        (``view``), mirroring how page reads are."""
        with self._lock:
            for stats in (self.stats, view.stats):
                stats.logical_bytes += logical
                stats.physical_bytes += physical
                stats.decoded_values += values

    def new_page_at(self, fid: int) -> tuple[int, bytearray]:
        """Allocate a fresh page in file ``fid``, returned pinned (dirty,
        zeroed) — no physical read for pages that never existed."""
        view = self._views[fid]
        with self._lock:
            self._make_room()
            pid = view.file.allocate()
            buf = bytearray(view.file.page_size)
            frame = _Frame(buf, pin_count=1)
            self._frames[(fid, pid)] = frame
            self._clock.append((fid, pid))
            self._note_pin(+1)
            frame.dirty = True
        return pid, buf

    def unpin_at(self, fid: int, pid: int, dirty: bool = False) -> None:
        with self._lock:
            frame = self._frames.get((fid, pid))
            if frame is None or frame.pin_count <= 0:
                raise StorageError(f"unpin of page {pid} that is not pinned")
            frame.pin_count -= 1
            frame.dirty |= dirty
            self._note_pin(-1)

    # single-file compatibility: operate on the first attached file
    def pin(self, pid: int) -> bytearray:
        return self.pin_at(0, pid)

    def new_page(self) -> tuple[int, bytearray]:
        return self.new_page_at(0)

    def unpin(self, pid: int, dirty: bool = False) -> None:
        self.unpin_at(0, pid, dirty)

    @contextmanager
    def page(self, pid: int, dirty: bool = False):
        """``with pool.page(pid) as buf:`` — pin for the block's duration."""
        buf = self.pin(pid)
        try:
            yield buf
        finally:
            self.unpin(pid, dirty)

    def pinned_total(self) -> int:
        """Sum of all pin counts across every attached file (the engine
        asserts 0 after a query — pool-wide)."""
        with self._lock:
            return sum(f.pin_count for f in self._frames.values())

    def resident(self) -> int:
        return len(self._frames)

    def snapshot(self) -> dict:
        """The pool-wide counters plus ``capacity``/``resident``/``pinned``
        — the one flattening ``--io-stats`` and ``/stats`` report."""
        return {**self.stats.as_dict(), "capacity": self.capacity,
                "resident": self.resident(), "pinned": self.pinned_total()}

    # -- clock eviction ----------------------------------------------------

    def _clock_remove(self, key: tuple[int, int]) -> None:
        """Drop ``key`` from the clock, keeping the hand on the same
        neighbour (failed fault-ins remove their reserved slot)."""
        i = self._clock.index(key)
        del self._clock[i]
        if i < self._hand:
            self._hand -= 1

    def _make_room(self) -> None:
        # pool lock held.  Loading frames are born with pin_count 1, so
        # the sweep can never evict a frame whose buffer is still in
        # flight — eviction needs no frame latch (lock hierarchy: the
        # pool lock is taken first and the latch never follows it here).
        if self.capacity is None or len(self._frames) < self.capacity:
            return
        # Second-chance sweep: skip pinned frames, clear one reference bit
        # per pass; after two full revolutions every unpinned frame has had
        # its bit cleared, so finding no victim means everything is pinned.
        scanned, limit = 0, 2 * len(self._clock)
        while scanned < limit:
            if self._hand >= len(self._clock):
                self._hand = 0
            key = self._clock[self._hand]
            frame = self._frames[key]
            if frame.pin_count > 0:
                self._hand += 1
            elif frame.ref:
                frame.ref = False
                self._hand += 1
            else:
                self._evict(key)
                del self._clock[self._hand]  # hand now points at the next
                return
            scanned += 1
        raise PoolExhaustedError(
            capacity=len(self._frames),
            pinned=sum(f.pin_count for f in self._frames.values()))

    def _evict(self, key: tuple[int, int]) -> None:
        # pool lock held; a dirty victim is written back *before* the
        # frame leaves the table, so a concurrent re-pin of the same page
        # can never read a stale on-disk copy
        frame = self._frames.pop(key)
        fid, pid = key
        if frame.dirty:
            view = self._views[fid]
            view.file.write_page(pid, frame.buf)  # stamps the page crc
            self.stats.pages_written += 1
            view.stats.pages_written += 1
        self.stats.evictions += 1
        self._views[fid].stats.evictions += 1

    # -- durability --------------------------------------------------------

    def flush(self) -> None:
        """Write back every dirty frame (frames stay resident)."""
        with self._lock:
            for key in sorted(self._frames):
                frame = self._frames[key]
                if frame.dirty:
                    fid, pid = key
                    view = self._views[fid]
                    view.file.write_page(pid, frame.buf)  # stamps the crc
                    self.stats.pages_written += 1
                    view.stats.pages_written += 1
                    frame.dirty = False
            views = list(self._views)
        for view in views:
            view.file.flush()

    def close(self) -> None:
        """Flush and mark the pool closed.  Idempotent: a second close is
        a no-op — including after a *failed* first close, so cleanup paths
        that close again (``with`` blocks, repository teardown) report the
        original error instead of a repeated pinned-pages complaint."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pinned = sum(f.pin_count for f in self._frames.values())
        if pinned:
            raise StorageError("closing buffer pool with pinned pages")
        self.flush()
