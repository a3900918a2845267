"""``verify_vdoc`` — offline integrity checker for .vdoc page files.

The fsck of the storage layer: given a path, it collects *findings*
instead of raising, so one run reports every problem it can reach with a
page/slot location for each.  Checks, in dependency order:

1. file header: magic, format version, page size, header checksum, and
   the declared page count against the actual file size;
2. checksum sweep: every page either carries a valid checksum or is
   entirely zero (allocated but never written);
3. page structure: slot directory within the page, ``free_ptr`` bounds,
   every slot entry inside the record area, fragments contiguous and
   consistent with ``free_ptr``;
4. catalog: the catalog chain walks without cycles, its first record
   decodes as JSON and passes the strict schema — by calling the open
   path's own reader (:func:`~repro.storage.vdocfile._read_catalog`), so
   the two cannot drift;
5. skeleton: the catalog chain's label table and CSR arrays pass the
   open path's own whole-array checks (again shared:
   :func:`~repro.storage.vdocfile._load_skeleton`); the cataloged vectors
   are exactly the skeleton's text paths, each ``n`` its path's total
   (:func:`~repro.storage.vdocfile._check_vectors`);
6. vectors: every chain walks acyclically to exactly its cataloged
   length and holds exactly the record count its storage codec implies
   (``n`` UTF-8 records for identity, the fixed header/blob layout for
   ``dict``/``delta``/``zlib``);
7. index segments: the heap chain of every persisted value index walks
   to its cataloged length, the segment decodes under
   :func:`repro.index.decode_segment`'s full structural validation
   (strictly increasing keys, CSR postings, row permutation, ascending
   NaN-free numeric sub-index) and passes
   :func:`repro.index.check_segment`'s semantic checks (numeric
   sub-index vs ``parse_float``), with the key count matched against
   the catalog entry;
8. cross-checks: no page is claimed by two chains (the catalog's, a
   vector's, an index segment's).

``deep`` additionally decodes every vector chain through its codec —
exercising the full :meth:`~repro.storage.codecs.Codec.decode` trust
boundary (dictionary key permutations and code bounds, delta widths,
declared zlib payload sizes, UTF-8 of every value) — cross-checks the
cataloged logical/physical byte counts against the chain, verifies each
persisted index is not **stale** against the decoded column (its
postings place every row under exactly its value's code), and reports
pages belonging to no chain (dead space a correct writer never
produces) — a strict superset of the shallow findings.

Everything is read-only: the target file is opened ``rb`` and never
written, so fsck is safe on a file you suspect is damaged.  All chain
walks use the corruption-hardened :class:`HeapFile` guards, so fsck can
neither hang nor crash on any input — it just reports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..errors import CorruptDataError, StorageError
from ..index import N_SEGMENT_RECORDS, check_segment, decode_segment
from . import disk
from .buffer import BufferPool
from .codecs import CODECS, utf8_bytes
from .disk import FILE_HEADER, PageFile
from .heap import HeapFile
from .pages import PAGE_HEADER, SlottedPage, page_crc, stored_crc
from .vdocfile import (UNOWNED, _check_vectors, _load_skeleton,
                       _read_catalog)


@dataclass
class Finding:
    """One verified defect, with its location when known."""

    code: str                 # header | size | page-crc | page-structure |
    #                           slot | chain | catalog | skeleton | vector |
    #                           value | index | cross | orphan
    message: str
    page: int | None = None
    slot: int | None = None

    def __str__(self) -> str:
        where = []
        if self.page is not None:
            where.append(f"page {self.page}")
        if self.slot is not None:
            where.append(f"slot {self.slot}")
        loc = f" [{', '.join(where)}]" if where else ""
        return f"{self.code}{loc}: {self.message}"


class _Check:
    def __init__(self) -> None:
        self.findings: list[Finding] = []

    def add(self, code: str, message: str, page: int | None = None,
            slot: int | None = None) -> None:
        self.findings.append(Finding(code, message, page, slot))


def _check_page_structure(out: _Check, page: SlottedPage, pid: int) -> None:
    """Slot directory, free_ptr and fragment layout of one page."""
    try:
        page.check_header()
    except StorageError as exc:
        out.add("page-structure", str(exc), page=pid)
        return
    expected = PAGE_HEADER
    for slot in range(page.n_slots):
        try:
            off, length, _ = page.slot_entry(slot)
        except StorageError as exc:
            out.add("slot", str(exc), page=pid, slot=slot)
            return
        if off < expected:
            out.add("slot", f"fragment at {off} overlaps the previous "
                            f"fragment ending at {expected}",
                    page=pid, slot=slot)
            return
        if off > expected:
            out.add("slot", f"gap before fragment at {off} (previous "
                            f"fragment ended at {expected})",
                    page=pid, slot=slot)
            return
        expected = off + length
    if expected != page.free_ptr:
        out.add("page-structure",
                f"free_ptr {page.free_ptr} does not match the end of the "
                f"last fragment ({expected})", page=pid)


def _walk_chain(out: _Check, code: str, what: str, heap: HeapFile,
                expected_pages: int, expected_n: int,
                records_sink: list | None = None) -> list[int] | None:
    """Walk one heap chain, record findings; returns its page ids or
    None when the walk itself failed.  ``records_sink`` collects the raw
    records for the caller (deep codec verification)."""
    try:
        pages = heap.pages()
    except StorageError as exc:
        out.add("chain", f"{what}: {exc}",
                page=getattr(exc, "page", None))
        return None
    if len(pages) != expected_pages:
        out.add("chain", f"{what}: chain is {len(pages)} pages, catalog "
                         f"says {expected_pages}", page=pages[-1])
        return pages
    count = 0
    try:
        for rec in heap.records(UNOWNED.checkpoint):
            count += 1
            if records_sink is not None:
                records_sink.append(rec)
    except StorageError as exc:
        out.add(code, f"{what}: {exc}", page=getattr(exc, "page", None),
                slot=getattr(exc, "slot", None))
        return pages
    if count != expected_n:
        out.add(code, f"{what}: {count} records on disk, catalog says "
                      f"{expected_n}", page=pages[0] if pages else None)
    return pages


def verify_vdoc(path: str, deep: bool = False) -> list[Finding]:
    """Verify the .vdoc at ``path``; returns all findings (empty = clean)."""
    out = _Check()
    try:
        f = open(path, "rb")
    except OSError as exc:
        out.add("header", str(exc))
        return out.findings
    try:
        header = f.read(FILE_HEADER)
        try:
            page_size, n_pages, meta_page = disk._check_header(header, path)
        except StorageError as exc:
            out.add("header", str(exc))
            return out.findings

        actual = os.fstat(f.fileno()).st_size
        expected = FILE_HEADER + n_pages * page_size
        if actual != expected:
            out.add("size", f"file is {actual} bytes but the header "
                            f"declares {n_pages} pages of {page_size} "
                            f"({expected} bytes)")

        # read-only PageFile view (bypasses open()'s fatal size check so
        # the sweep can still cover whatever pages are present)
        pf = PageFile(path, f, page_size, n_pages, meta_page)
        pool = BufferPool(pf, capacity=None, verify=False)

        # -- checksum + structure sweep over every page --------------------
        zero_pages: set[int] = set()
        for pid in range(n_pages):
            try:
                data = pf.read_page(pid, verify=False)
            except StorageError as exc:
                out.add("page-crc", str(exc), page=pid)
                continue
            if data.count(0) == len(data):
                zero_pages.add(pid)  # allocated, never written
                continue
            stored, computed = stored_crc(data), page_crc(data)
            if stored != computed:
                out.add("page-crc",
                        f"checksum mismatch (stored {stored:#010x}, "
                        f"computed {computed:#010x})", page=pid)
                continue  # structure of a corrupt page is noise
            _check_page_structure(
                out, SlottedPage(bytearray(data), page_size, pid), pid)

        # -- catalog -------------------------------------------------------
        try:
            meta, skeleton = _read_catalog(pool, path, meta_page, n_pages)
        except StorageError as exc:   # also rejects unknown formats
            out.add("catalog", str(exc), page=getattr(exc, "page", None))
            return out.findings
        claimed = dict.fromkeys(HeapFile(pool, meta_page).pages(), "catalog")

        # -- skeleton ------------------------------------------------------
        try:
            store = _load_skeleton(skeleton, meta, path)
        except StorageError as exc:
            out.add("skeleton", str(exc))
        else:
            try:
                _check_vectors(store, meta, path)
            except StorageError as exc:
                out.add("vector", str(exc))

        # -- vectors -------------------------------------------------------
        #: deep-decoded columns, reused by the index staleness check
        vcolumns: dict[tuple, object] = {}
        for entry in meta["vectors"]:
            name = "/".join(entry["path"])
            codec = CODECS[entry["codec"]]
            heap = HeapFile(pool, entry["head"], n_pages=entry["pages"])
            sink: list | None = [] if deep else None
            pages = _walk_chain(out, "vector", f"vector {name}", heap,
                                entry["pages"],
                                codec.n_records(entry["n"]),
                                records_sink=sink)
            for pid in pages or ():
                prev = claimed.setdefault(pid, name)
                if prev != name:
                    out.add("cross", f"page claimed by both {prev} and "
                                     f"vector {name}", page=pid)
            if pages is None or sink is None:
                continue
            # deep: decode through the codec — the full trust boundary
            # (key permutations, code bounds, widths, declared payload
            # sizes, per-value UTF-8) — and cross-check the cataloged
            # byte counts against the chain
            lbytes = entry["lbytes"]
            enc = sum(len(r) for r in sink)
            if enc != entry["pbytes"]:
                out.add("value",
                        f"vector {name}: catalog says {entry['pbytes']} "
                        f"encoded bytes, chain holds {enc}",
                        page=pages[0] if pages else None)
            try:
                state = codec.decode(tuple(entry["path"]), entry["n"],
                                     sink, lbytes)
                column = codec.column(state)
            except CorruptDataError as exc:
                out.add("value", str(exc),
                        page=pages[0] if pages else None)
                continue
            logical = utf8_bytes([str(v) for v in column])
            if logical != lbytes:
                out.add("value",
                        f"vector {name}: catalog says {lbytes} logical "
                        f"bytes, decoded column holds {logical}")
            vcolumns[tuple(entry["path"])] = column

        # -- index segments ------------------------------------------------
        for entry in meta["vectors"]:
            ix = entry.get("index")
            if ix is None:
                continue
            name = "/".join(entry["path"])
            what = f"index of {name}"
            heap = HeapFile(pool, ix["head"], n_pages=ix["pages"])
            records: list = []
            reported = len(out.findings)
            pages = _walk_chain(out, "index", what, heap, ix["pages"],
                                N_SEGMENT_RECORDS, records_sink=records)
            walk_clean = len(out.findings) == reported
            for pid in pages or ():
                prev = claimed.setdefault(pid, what)
                if prev != what:
                    out.add("cross", f"page claimed by both {prev} "
                                     f"and {what}", page=pid)
            if not walk_clean:
                continue  # decoding a chain the walk rejected is noise
            try:
                vi = decode_segment(tuple(entry["path"]), entry["n"],
                                    records)
            except CorruptDataError as exc:
                out.add("index", str(exc), page=ix["head"])
                continue
            if vi.distinct != ix["distinct"]:
                out.add("index",
                        f"vindex {name}: catalog says {ix['distinct']} "
                        f"distinct keys, segment holds {vi.distinct}")
            # staleness against the codec-decoded column from the vector
            # sweep (absent when the chain itself failed to decode —
            # already reported there)
            column = vcolumns.get(tuple(entry["path"])) if deep else None
            for msg in check_segment(vi, column):
                out.add("index", f"vindex {name}: {msg}")

        # -- orphans (deep): pages no chain accounts for -------------------
        if deep:
            for pid in range(n_pages):
                if pid not in claimed and pid not in zero_pages:
                    out.add("orphan",
                            "written page belongs to no heap chain",
                            page=pid)
        return out.findings
    finally:
        f.close()
