"""Deterministic fault injection for the storage stack.

The test harness for the integrity subsystem: every physical I/O of a
:class:`~repro.storage.disk.PageFile` (reads, writes, flushes,
truncates), plus the durability steps of the atomic saver (``fsync``,
``os.replace``, directory sync), is numbered with a global operation
index while a :class:`FaultPlan` is installed, and the plan can attach a
fault to any index:

``crash``
    the simulated process dies *before* the operation: a
    :class:`CrashInjected` escapes and every later operation on any
    wrapped file raises it too — nothing reaches the disk after death.
``torn``
    a write persists only its first ``keep_bytes`` bytes and then the
    process dies (a torn sector at power-off).
``short``
    a write silently persists only a prefix but reports success (a lost
    sector the checksums must catch later).
``bitflip``
    one bit of the data is flipped in transit (write or read).
``oserror``
    the operation raises a transient ``OSError`` once; the file stays
    usable.

Plans are deterministic: the same plan against the same I/O sequence
fires at exactly the same operations, so crash-point sweeps
(``for i in range(total_ops): inject crash at i``) are exhaustive and
reproducible.  Installation is process-global via :func:`inject` —
storage code calls :func:`wrap_file` / :func:`fsync` / :func:`replace` /
:func:`dir_fsync`, which are all pass-throughs when no plan is active.
"""

from __future__ import annotations

import errno as _errno
import os
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field


class CrashInjected(Exception):
    """The simulated process died at an injected crash point.

    Deliberately *not* a :class:`~repro.errors.ReproError`: nothing in the
    production code paths may catch and absorb it — it must escape to the
    test harness like a real crash escapes to the OS.
    """


@dataclass
class Fault:
    kind: str                 # crash | torn | short | bitflip | oserror
    keep_bytes: int = 0       # torn/short: prefix that reaches the disk
    byte: int = 0             # bitflip: byte index within the buffer
    bit: int = 0              # bitflip: bit index within that byte
    err: int = _errno.EIO     # oserror: errno of the transient failure


@dataclass
class FaultPlan:
    """Faults keyed by global operation index, plus the op counter."""

    faults: dict[int, Fault] = field(default_factory=dict)
    ops: int = 0                       # operations seen so far
    fired: list = field(default_factory=list)   # (op, kind) actually hit
    crashed: bool = False

    # -- convenience constructors -----------------------------------------

    @classmethod
    def crash_at(cls, op: int) -> "FaultPlan":
        return cls({op: Fault("crash")})

    @classmethod
    def torn_at(cls, op: int, keep_bytes: int) -> "FaultPlan":
        return cls({op: Fault("torn", keep_bytes=keep_bytes)})

    @classmethod
    def short_at(cls, op: int, keep_bytes: int) -> "FaultPlan":
        return cls({op: Fault("short", keep_bytes=keep_bytes)})

    @classmethod
    def bitflip_at(cls, op: int, byte: int, bit: int = 0) -> "FaultPlan":
        return cls({op: Fault("bitflip", byte=byte, bit=bit)})

    @classmethod
    def oserror_at(cls, op: int, err: int = _errno.EIO) -> "FaultPlan":
        return cls({op: Fault("oserror", err=err)})

    # -- the per-operation checkpoint --------------------------------------

    def begin_op(self, what: str) -> Fault | None:
        """Number one operation; raise for crash/oserror faults, return
        the fault for data-modifying kinds, None for a clean op."""
        if self.crashed:
            raise CrashInjected(f"I/O after simulated crash ({what})")
        op, self.ops = self.ops, self.ops + 1
        fault = self.faults.get(op)
        if fault is None:
            return None
        self.fired.append((op, fault.kind))
        if fault.kind == "crash":
            self.crashed = True
            raise CrashInjected(f"injected crash at op {op} ({what})")
        if fault.kind == "oserror":
            del self.faults[op]  # transient: the retry path succeeds
            raise OSError(fault.err,
                          f"injected transient I/O error at op {op} ({what})")
        return fault

    def die(self, op_desc: str) -> None:
        self.crashed = True
        raise CrashInjected(f"injected crash {op_desc}")


class FaultInjector(FaultPlan):
    """A thread-safe, rate-driven plan for the **live-server** chaos
    harness.

    The crash-sweep plans above pre-enumerate ``{op: Fault}`` against a
    single-threaded I/O sequence.  A resident server is different: many
    worker threads share one buffer pool, so (a) the op counter must be
    taken under a lock, and (b) the schedule cannot be a fixed op list —
    interleaving makes op indices non-reproducible across runs.  The
    injector instead decides *per operation* from a hash of
    ``(seed, op)``: deterministic for a given seed, stable in
    distribution under any interleaving.

    Only the **recoverable read-side** kinds are offered — ``oserror``
    (transient, the pool's retry path absorbs it), ``bitflip`` and
    ``torn`` (the page CRC catches them; the bytes *on disk* stay clean,
    so quarantine's re-verify probe finds a healthy member and
    reinstates it).  ``crash`` is deliberately absent: the server must
    stay alive.  Writes pass clean by default (the serving workload is
    read-only; stats flushes must not tear).

    :meth:`pause` stops new faults so the harness can watch the
    supervisor drain the quarantine and prove recovery; :meth:`resume`
    re-arms it.
    """

    def __init__(self, seed: int = 0, rate: float = 0.05,
                 kinds: tuple[str, ...] = ("oserror", "bitflip", "torn"),
                 reads_only: bool = True):
        super().__init__()
        for k in kinds:
            if k not in ("oserror", "bitflip", "torn"):
                raise ValueError(f"live-server injector cannot fire {k!r}")
        self.seed = seed
        self.rate = rate
        self.kinds = tuple(kinds)
        self.reads_only = reads_only
        self.paused = False
        self.by_kind: dict[str, int] = {k: 0 for k in kinds}
        self._lock = threading.Lock()

    def pause(self) -> None:
        with self._lock:
            self.paused = True

    def begin_op(self, what: str) -> Fault | None:
        with self._lock:
            op, self.ops = self.ops, self.ops + 1
            if self.paused or (self.reads_only and what != "read"):
                return None
            h = zlib.crc32(f"{self.seed}:{op}".encode("ascii"))
            if (h & 0xFFFF) / 65536.0 >= self.rate:
                return None
            kind = self.kinds[(h >> 16) % len(self.kinds)]
            self.fired.append((op, kind))
            self.by_kind[kind] += 1
            if kind == "oserror":
                raise OSError(_errno.EIO,
                              f"injected transient I/O error at op {op} "
                              f"({what})")
            if kind == "bitflip":
                return Fault("bitflip", byte=(h >> 4) % 4096, bit=h & 7)
            # torn read: keep a short non-empty prefix — the zero padding
            # in read_page() then trips the page CRC, never silent
            return Fault("torn", keep_bytes=16 + (h >> 8) % 240)


_PLAN: FaultPlan | None = None


@contextmanager
def inject(plan: FaultPlan):
    """Install ``plan`` for every PageFile opened inside the block."""
    global _PLAN
    prev, _PLAN = _PLAN, plan
    try:
        yield plan
    finally:
        _PLAN = prev


class FaultyFile:
    """A binary file object that consults a :class:`FaultPlan` on every
    operation.  API-compatible with the subset PageFile uses."""

    def __init__(self, fobj, plan: FaultPlan):
        self._f = fobj
        self.plan = plan

    # positioning carries no fault potential — not numbered
    def seek(self, *a):
        return self._f.seek(*a)

    def tell(self):
        return self._f.tell()

    def fileno(self):
        return self._f.fileno()

    def read(self, n: int = -1) -> bytes:
        fault = self.plan.begin_op("read")
        data = self._f.read(n)
        if fault is None:
            return data
        if fault.kind == "bitflip" and data:
            out = bytearray(data)
            out[fault.byte % len(out)] ^= 1 << (fault.bit & 7)
            return bytes(out)
        if fault.kind in ("torn", "short"):
            return data[:fault.keep_bytes]
        return data

    def write(self, data) -> int:
        fault = self.plan.begin_op("write")
        if fault is None:
            return self._f.write(data)
        if fault.kind == "bitflip" and len(data):
            out = bytearray(data)
            out[fault.byte % len(out)] ^= 1 << (fault.bit & 7)
            return self._f.write(bytes(out))
        if fault.kind == "short":
            self._f.write(data[:fault.keep_bytes])
            return len(data)  # reported complete; the bytes are gone
        if fault.kind == "torn":
            self._f.write(data[:fault.keep_bytes])
            self._f.flush()
            self.plan.die(f"mid-write (torn after {fault.keep_bytes} bytes)")
        return self._f.write(data)

    def truncate(self, size=None):
        self.plan.begin_op("truncate")
        return self._f.truncate(size)

    def flush(self):
        self.plan.begin_op("flush")
        return self._f.flush()

    def close(self):
        # closing after a crash is the harness reclaiming the fd, not the
        # dead process doing I/O — always succeeds
        try:
            self._f.close()
        except (OSError, ValueError):
            if not self.plan.crashed:
                raise


def wrap_file(fobj):
    """Wrap a freshly opened file in the active plan (pass-through when
    no plan is installed)."""
    return FaultyFile(fobj, _PLAN) if _PLAN is not None else fobj


def fsync(fobj) -> None:
    """``os.fsync`` routed through the fault plan (a crash *at* the sync
    point is the classic torn-durability scenario)."""
    if isinstance(fobj, FaultyFile):
        fobj.plan.begin_op("fsync")
        fobj._f.flush()
        os.fsync(fobj._f.fileno())
    else:
        fobj.flush()
        os.fsync(fobj.fileno())


def replace(src: str, dst: str) -> None:
    """``os.replace`` routed through the fault plan — the atomic commit
    point of :func:`~repro.storage.vdocfile.save_vdoc`."""
    if _PLAN is not None:
        _PLAN.begin_op("replace")
    os.replace(src, dst)


def dir_fsync(path: str) -> None:
    """fsync a directory so a rename is durable, fault-checkpointed."""
    if _PLAN is not None:
        _PLAN.begin_op("dirsync")
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
