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
4. catalog: the meta heap chain walks without cycles, decodes as JSON
   and passes the same strict schema the open path enforces;
5. skeleton: every node record decodes, child runs stay inside the
   already-interned prefix, hash-cons replay reproduces the ids, and the
   node count matches the catalog;
6. vectors: every chain walks acyclically to exactly its cataloged
   length and holds exactly the record count its storage codec implies
   (``n`` UTF-8 records for identity, the fixed header/blob layout for
   ``dict``/``delta``/``zlib`` — format v4);
7. index segments (format v3): both heap chains of every persisted value
   index walk to their cataloged lengths, the segment decodes under
   :func:`repro.index.decode_segment`'s full structural validation
   (sorted keys, CSR postings, row permutation, power-of-two hash
   directory, ascending NaN-free numeric sub-index) and passes
   :func:`repro.index.check_segment`'s semantic checks (hash placement,
   numeric sub-index vs ``parse_float``), with counts matched against
   the catalog entry;
8. cross-checks: no page is claimed by two chains.

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

import json
import os
from dataclasses import dataclass

from ..core.skeleton import NodeStore
from ..errors import CorruptDataError, StorageError
from ..index import N_DATA_RECORDS, N_KEY_RECORDS, check_segment, \
    decode_segment
from . import disk
from .buffer import BufferPool
from .codecs import CODECS, utf8_bytes
from .disk import FILE_HEADER, PageFile
from .heap import HeapFile
from .pages import PAGE_HEADER, SlottedPage, page_crc, stored_crc
from .vdocfile import _check_catalog, _decode_node


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
                expected_pages: int | None, expected_n: int | None,
                count_records: bool = True,
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
    if expected_pages is not None and len(pages) != expected_pages:
        out.add("chain", f"{what}: chain is {len(pages)} pages, catalog "
                         f"says {expected_pages}", page=pages[-1])
        return pages
    if not count_records:
        return pages
    count = 0
    try:
        for rec in heap.records():
            count += 1
            if records_sink is not None:
                records_sink.append(rec)
    except StorageError as exc:
        out.add(code, f"{what}: {exc}", page=getattr(exc, "page", None),
                slot=getattr(exc, "slot", None))
        return pages
    if expected_n is not None and count != expected_n:
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
        if meta_page < 0:
            out.add("catalog", "page file has no vdoc catalog")
            return out.findings
        if meta_page >= n_pages:
            out.add("catalog", f"catalog head page {meta_page} outside the "
                               f"file ({n_pages} pages)")
            return out.findings
        claimed: dict[int, str] = {}
        meta_heap = HeapFile(pool, meta_page)
        try:
            meta_records = list(meta_heap.records())
        except StorageError as exc:
            out.add("catalog", str(exc), page=getattr(exc, "page", None))
            return out.findings
        for pid in meta_heap.pages():
            claimed[pid] = "catalog"
        if not meta_records:
            out.add("catalog", "empty vdoc catalog", page=meta_page)
            return out.findings
        try:
            meta = json.loads(meta_records[0].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            out.add("catalog", f"catalog is not valid JSON ({exc})",
                    page=meta_page)
            return out.findings
        try:
            _check_catalog(meta, path, n_pages)  # rejects unknown formats
        except StorageError as exc:
            out.add("catalog", str(exc))
            return out.findings

        # -- skeleton ------------------------------------------------------
        skel = HeapFile(pool, meta["skeleton"]["head"],
                        n_pages=meta["skeleton"]["pages"])
        skel_pages = _walk_chain(out, "skeleton", "skeleton chain", skel,
                                 meta["skeleton"]["pages"], None,
                                 count_records=False)
        if skel_pages is not None:
            store = NodeStore()
            try:
                for nid, record in enumerate(skel.records()):
                    label, runs = _decode_node(record)
                    if nid == 0:
                        if label != "#" or runs:
                            out.add("skeleton",
                                    "node 0 is not the text marker")
                            break
                        continue
                    bad = [r for r in runs
                           if not 0 <= r[0] < nid or r[1] < 1]
                    if bad:
                        out.add("skeleton",
                                f"node {nid} has child run {bad[0]} outside "
                                f"the already-interned prefix")
                        break
                    if store.intern(label, runs) != nid:
                        out.add("skeleton", f"records out of interning "
                                            f"order at node {nid}")
                        break
                else:
                    if len(store) != meta["n_nodes"]:
                        out.add("skeleton",
                                f"catalog says {meta['n_nodes']} nodes, "
                                f"chain holds {len(store)}")
                    elif not 1 <= meta["root"] < len(store):
                        out.add("skeleton",
                                f"root id {meta['root']} outside the "
                                f"skeleton ({len(store)} nodes)")
            except StorageError as exc:
                out.add("skeleton", str(exc),
                        page=getattr(exc, "page", None),
                        slot=getattr(exc, "slot", None))
        if skel_pages:
            for pid in skel_pages:
                prev = claimed.setdefault(pid, "skeleton")
                if prev != "skeleton":
                    out.add("cross", f"page claimed by both {prev} and "
                                     f"the skeleton chain", page=pid)

        # -- vectors -------------------------------------------------------
        fmt = meta["format"]
        #: deep-decoded columns, reused by the index staleness check
        vcolumns: dict[tuple, object] = {}
        for entry in meta["vectors"]:
            name = "/".join(entry["path"])
            codec = CODECS[entry.get("codec", "identity")]
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
            lbytes = entry.get("lbytes") if fmt >= 4 else None
            if fmt >= 4:
                enc = sum(len(r) for r in sink)
                if enc != entry["pbytes"]:
                    out.add("value",
                            f"vector {name}: catalog says "
                            f"{entry['pbytes']} encoded bytes, chain "
                            f"holds {enc}", page=pages[0] if pages else None)
            try:
                state = codec.decode(tuple(entry["path"]), entry["n"],
                                     sink, lbytes)
                column = codec.column(state)
            except CorruptDataError as exc:
                out.add("value", str(exc),
                        page=pages[0] if pages else None)
                continue
            if lbytes is not None:
                logical = utf8_bytes([str(v) for v in column])
                if logical != lbytes:
                    out.add("value",
                            f"vector {name}: catalog says {lbytes} "
                            f"logical bytes, decoded column holds "
                            f"{logical}")
            vcolumns[tuple(entry["path"])] = column

        # -- index segments (format v3) ------------------------------------
        for entry in meta["vectors"]:
            ix = entry.get("index")
            if ix is None:
                continue
            name = "/".join(entry["path"])
            kheap = HeapFile(pool, ix["keys_head"],
                             n_pages=ix["keys_pages"])
            dheap = HeapFile(pool, ix["data_head"],
                             n_pages=ix["data_pages"])
            walked = True
            for what, heap, n_exp in (
                    (f"index keys of {name}", kheap, N_KEY_RECORDS),
                    (f"index data of {name}", dheap, N_DATA_RECORDS)):
                pages = _walk_chain(out, "index", what, heap, heap.n_pages,
                                    n_exp)
                if pages is None:
                    walked = False
                    continue
                for pid in pages:
                    prev = claimed.setdefault(pid, what)
                    if prev != what:
                        out.add("cross", f"page claimed by both {prev} "
                                         f"and {what}", page=pid)
            if not walked:
                continue
            try:
                keys = list(kheap.records())
                data = list(dheap.records())
            except StorageError:
                continue  # the walk above already reported it
            try:
                vi = decode_segment(tuple(entry["path"]), entry["n"],
                                    keys, data)
            except CorruptDataError as exc:
                out.add("index", str(exc), page=ix["keys_head"])
                continue
            if vi.distinct != ix["distinct"]:
                out.add("index",
                        f"vindex {name}: catalog says {ix['distinct']} "
                        f"distinct keys, segment holds {vi.distinct}")
            if vi.n_buckets != ix["buckets"]:
                out.add("index",
                        f"vindex {name}: catalog says {ix['buckets']} "
                        f"buckets, segment holds {vi.n_buckets}")
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
