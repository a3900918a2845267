"""Shore-like storage manager (ROADMAP `repro.storage`): slotted pages,
heap files, a clock-eviction buffer pool with strict pin accounting and
I/O statistics, and the paged on-disk vectorized-document format whose
vectors read their coded records lazily off their heap chains.

Format v2 adds an integrity and crash-safety subsystem: per-page
checksums stamped on every write-back and verified on every physical
read, an atomic durable ``save_vdoc`` (temp file + fsync + rename), a
deterministic fault-injection harness (:mod:`repro.storage.faults`) and
an offline verifier (:func:`verify_vdoc`, ``repro-xq check``).  The
headline property, fuzz-checked in the test suite: for any single
corruption of a valid .vdoc, every query either returns the exact
uncorrupted answer or raises :class:`~repro.errors.StorageError` — it
never hangs and never returns a wrong answer.

The engine's "each data vector is scanned at most once" invariant is
checked against this layer's *physical* page-read counts when a document
is disk-backed — the paper's §5 lazy-I/O claim, made falsifiable.
"""

from .buffer import BufferPool, IOStats
from .disk import FORMAT_VERSION, PageFile
from .faults import CrashInjected, Fault, FaultPlan
from .fsck import Finding, verify_vdoc
from .heap import HeapFile
from .pages import DEFAULT_PAGE_SIZE, MAX_PAGE_SIZE, MIN_PAGE_SIZE, SlottedPage
from .vdocfile import VDOC_FORMAT, open_vdoc, save_vdoc

__all__ = [
    "BufferPool",
    "IOStats",
    "PageFile",
    "FORMAT_VERSION",
    "HeapFile",
    "SlottedPage",
    "DEFAULT_PAGE_SIZE",
    "MIN_PAGE_SIZE",
    "MAX_PAGE_SIZE",
    "VDOC_FORMAT",
    "save_vdoc",
    "open_vdoc",
    "verify_vdoc",
    "Finding",
    "FaultPlan",
    "Fault",
    "CrashInjected",
]
