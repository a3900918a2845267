"""Heap files: ordered byte-string records over a chain of slotted pages.

A heap file is a singly linked chain of pages (``next_page`` links).
Records append at the tail and are read back in insertion order — exactly
the access pattern of a data vector (XMILL-style container: one heap per
column, values in document order).  A record may be split into consecutive
fragments when it crosses a page boundary; :meth:`records` stitches them
back transparently.

All page access goes through the owning :class:`BufferPool`; a scan pins
one page at a time and copies the fragments out before unpinning, so an
abandoned iterator can never leak a pin.  A scan calls the checkpoint it
is handed before each page it pins — the cooperative deadline of the
query the walk serves, so an expired query stops before the next page's
physical read.

Chain walks are corruption-hardened: a ``next_page`` link that points
outside the file, revisits a page already on this walk (a cycle), or
extends the chain past its cataloged length raises
:class:`CorruptDataError` naming the offending page — a corrupt link can
make a walk *fail*, never *hang*.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import CorruptDataError, StorageError
from .buffer import BufferPool
from .pages import MAX_FRAGMENT, SlottedPage


class HeapFile:
    __slots__ = ("pool", "head", "n_pages", "_tail")

    def __init__(self, pool: BufferPool, head: int, n_pages: int | None = None):
        self.pool = pool
        self.head = head
        #: chain length in pages; exact when created fresh or passed in from
        #: the catalog, measured lazily (one chain walk) otherwise.
        self.n_pages = n_pages
        self._tail = head

    @classmethod
    def create(cls, pool: BufferPool) -> "HeapFile":
        pid, buf = pool.new_page()
        SlottedPage.init(buf, pool.page_size, pid)
        pool.unpin(pid, dirty=True)
        heap = cls(pool, pid, n_pages=1)
        return heap

    # -- writing -----------------------------------------------------------

    def append(self, record: bytes) -> None:
        """Append one record at the tail, fragmenting across pages as
        needed (zero-length records are legal)."""
        pool = self.pool
        data = record
        while True:
            buf = pool.pin(self._tail)
            page = SlottedPage(buf, pool.page_size, self._tail)
            cap = page.free_capacity()
            if cap < (1 if data else 0):
                npid, nbuf = pool.new_page()
                SlottedPage.init(nbuf, pool.page_size, npid)
                page.next_page = npid
                pool.unpin(self._tail, dirty=True)
                pool.unpin(npid, dirty=True)
                self._tail = npid
                if self.n_pages is not None:
                    self.n_pages += 1
                continue
            take = min(len(data), cap, MAX_FRAGMENT)
            continued = take < len(data)
            page.append_fragment(data[:take], continued)
            pool.unpin(self._tail, dirty=True)
            if not continued:
                return
            data = data[take:]

    # -- reading -----------------------------------------------------------

    def _check_link(self, pid: int, nxt: int, visited: set[int]) -> None:
        """Validate one chain link before following it."""
        if nxt == -1:
            return
        if not 0 <= nxt < self.pool.file.n_pages:
            raise CorruptDataError(
                f"heap chain link to page {nxt} outside the file "
                f"({self.pool.file.n_pages} pages)", page=pid)
        if nxt in visited:
            raise CorruptDataError(
                f"heap chain cycle: link back to already-visited page {nxt}",
                page=pid)
        if self.n_pages is not None and len(visited) >= self.n_pages:
            raise CorruptDataError(
                f"heap chain longer than its cataloged {self.n_pages} pages",
                page=pid)

    def pages(self) -> list[int]:
        """Page ids of the chain, head to tail (walks through the pool)."""
        out: list[int] = []
        visited: set[int] = set()
        pid = self.head
        while pid != -1:
            out.append(pid)
            visited.add(pid)
            with self.pool.page(pid) as buf:
                nxt = SlottedPage(buf, self.pool.page_size, pid).next_page
            self._check_link(pid, nxt, visited)
            pid = nxt
        if self.n_pages is None:
            self.n_pages = len(out)
        return out

    def records(self, checkpoint) -> Iterator[bytes]:
        """All records in insertion order, one sequential chain pass;
        ``checkpoint()`` runs before each page is pinned."""
        pool = self.pool
        pid = self.head
        pending = bytearray()
        open_record = False
        visited: set[int] = set()
        while pid != -1:
            checkpoint()
            visited.add(pid)
            complete: list[bytes] = []
            with pool.page(pid) as buf:
                page = SlottedPage(buf, pool.page_size, pid)
                for slot in range(page.n_slots):
                    frag, continued = page.fragment(slot)
                    pending += frag
                    open_record = continued
                    if not continued:
                        complete.append(bytes(pending))
                        pending.clear()
                nxt = page.next_page
            self._check_link(pid, nxt, visited)
            pid = nxt
            yield from complete
        if open_record:
            raise StorageError("heap chain ends inside a fragmented record")
        if self.n_pages is None:
            self.n_pages = len(visited)
