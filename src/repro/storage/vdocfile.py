"""On-disk vectorized documents: ``save_vdoc`` / ``open_vdoc``.

File layout (all inside one :class:`PageFile`, page-file format v2 —
per-page checksums, see :mod:`repro.storage.disk`).  There is exactly
one catalog format, :data:`VDOC_FORMAT`; any other number is refused:

* one heap-file chain per data vector — the values in document order
  (XMILL-style containers), **encoded** by a per-vector codec
  (:mod:`repro.storage.codecs`) chosen at vectorization by sampled
  compression ratio (``identity`` — one plain UTF-8 record per value —
  when nothing compresses).  The codec name and the exact logical
  (UTF-8) vs physical (encoded) byte counts are recorded on the
  vector's catalog entry, so tools reason about compression with zero
  page I/O;
* optionally, one more heap chain per vector holding its value-index
  segment (:mod:`repro.index.segment`), announced by an ``"index"``
  object ``{head, pages, distinct}`` on the vector's catalog entry;
* one catalog heap, its head page id stored in the page-file header:
  a JSON record (format tag, root id, node count, and per-vector
  ``{path, n, head page, chain length, codec, logical bytes, encoded
  bytes}``), then the skeleton as the store holds it in memory — the
  label table (UTF-8, NUL-joined) and one record each of little-endian
  ``label`` (int32), ``child_ptr``, ``child_id`` and ``child_count``
  (int64) — so opening reads the arrays back, interning nothing.

``save_vdoc`` is atomic and durable: it writes to a temp file in the
destination directory, fsyncs it, ``os.replace``\\ s it into place and
fsyncs the directory — a crash at any point leaves either the old file
or the new file at ``path``, never a partial one (machine-checked by the
crash-point sweep in the test suite, via :mod:`repro.storage.faults`).

Opening reads *only* the catalog chain (the paper's premise that the
skeleton lives in main memory), after validating the catalog against a
strict schema, the skeleton arrays with whole-array checks and the vector
entries against the skeleton's text-path totals — every malformed byte
pattern at this boundary surfaces as :class:`StorageError`/
:class:`CorruptDataError`, never as a raw ``json``/``unicode``/
``KeyError``.  It returns the one
:class:`~repro.core.vdoc.VectorizedDocument` (``file``/``pool``/``view``
set) whose vectors have their heap chains as the source of their
records: a chain is read in one sequential pass on first access, its
physical reads charged to the reading query's context — checked against
``n_pages`` ("each data vector is scanned at most once") — with a
deadline checkpoint before every page.  ``save_vdoc`` writes each
vector's records as it holds them (an opened file's copied off its
chains, never decoded and re-encoded).  This module is the only one in
``repro.storage`` that knows ``repro.core``.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading

import numpy as np

from ..core.paths import PathsCatalog
from ..core.skeleton import NodeStore
from ..core.vdoc import VectorizedDocument
from ..core.vectors import UNOWNED, Vector
from ..errors import CorruptDataError, StorageError
from ..index import (build_value_index, build_value_index_from_codes,
                     decode_segment, encode_segment)
from . import faults
from .buffer import BufferPool
from .codecs import CODECS
from .disk import PageFile
from .heap import HeapFile
from .pages import DEFAULT_PAGE_SIZE

#: the one catalog format written and read.  Earlier numbers (2: no
#: indexes; 3: uncoded vectors; 4: a hash directory and two chains per
#: index; 5: a skeleton heap of one record per node) have no reader: such
#: a file is rejected as unsupported.
VDOC_FORMAT = 6

#: the skeleton's arrays after the label table in the catalog chain, each
#: one record of little-endian integers
_ARRAYS = (("label", "<i4"), ("child_ptr", "<i8"), ("child_id", "<i8"),
           ("child_count", "<i8"))


def _read_chain(unit, heap: HeapFile, ctx):
    """One sequential pass over ``heap``, a deadline checkpoint of
    ``ctx`` before each page; the calling thread's physical reads are
    charged to ``ctx`` against ``unit`` (a vector or index handle)."""
    before = heap.pool.pages_read_local()
    records = list(heap.records(ctx.checkpoint))
    ctx.note_io(unit, heap.pool.pages_read_local() - before)
    return records


class _Chain:
    """The source of an opened vector's records: its heap chain, read
    through the buffer pool (charged to the reading context), with the
    codec traffic of its decodes charged to the pool and file stats
    (``--io-stats`` / ``/stats``)."""

    __slots__ = ("heap",)

    def __init__(self, heap: HeapFile):
        self.heap = heap

    def read(self, unit, ctx) -> list[bytes]:
        return _read_chain(unit, self.heap, ctx)

    def note_decode(self, logical: int, physical: int, values: int) -> None:
        view = self.heap.pool
        view.pool.note_decode(view, logical=logical, physical=physical,
                              values=values)


class DiskValueIndex:
    """Lazy handle over one vector's persistent value-index segment.

    Mirrors an opened :class:`~repro.core.vectors.Vector`'s contract for
    the segment's heap chain:
    no page of it is touched until the first :meth:`get`, which
    materializes (and structurally validates) the
    :class:`~repro.index.ValueIndex` through the buffer pool in one
    sequential pass and charges the physical reads to the context it is
    handed.  The handle carries the same accounting surface as a vector
    (``path``, ``n_pages``) — ``vdoc.io_units()`` includes it, and a
    query's :class:`~repro.core.context.VectorCache` touches it like a
    vector, so the per-context scan-once / bounded-physical-I/O
    assertions cover index probes too, under the same per-handle lock
    discipline as a vector's.  ``distinct`` comes from the
    catalog: the planner prices a probe without I/O.
    """

    __slots__ = ("path", "vpath", "distinct", "n_pages",
                 "_heap", "_n", "_vi", "_mat_lock")

    def __init__(self, vpath: tuple, n: int, entry: dict, view):
        self.vpath = vpath
        #: diagnostic path: distinguishes the segment from its vector in
        #: invariant-violation messages
        self.path = (*vpath, "[vindex]")
        self.distinct = entry["distinct"]
        self._heap = HeapFile(view, entry["head"], n_pages=entry["pages"])
        self._n = n
        self._vi = None
        self.n_pages = entry["pages"]
        self._mat_lock = threading.Lock()

    def get(self, ctx):
        """The probe-able index, materialized on first use (charged to
        ``ctx``)."""
        vi = self._vi
        if vi is None:
            with self._mat_lock:
                vi = self._vi
                if vi is None:
                    vi = self._materialize(ctx)
                    self._vi = vi
        return vi

    def _materialize(self, ctx):
        records = _read_chain(self, self._heap, ctx)
        vi = decode_segment(self.vpath, self._n, records)
        if vi.distinct != self.distinct:
            raise CorruptDataError(
                f"vindex {'/'.join(self.vpath)}: catalog says "
                f"{self.distinct} distinct keys, segment holds "
                f"{vi.distinct}")
        return vi

    def is_loaded(self) -> bool:
        return self._vi is not None

    def drop_cache(self) -> None:
        self._vi = None


def _resolve_index_paths(vdoc: VectorizedDocument, index_paths) -> set:
    """Normalize the ``index_paths`` argument to a set of vector paths."""
    if index_paths is None:
        return set()
    if index_paths == "all":
        return set(vdoc.vectors)
    resolved = {tuple(p) for p in index_paths}
    unknown = resolved - set(vdoc.vectors)
    if unknown:
        raise StorageError(
            "no such vector(s) to index: "
            + ", ".join(sorted("/".join(p) for p in unknown)))
    return resolved


def _value_index(vec: Vector, records: list[bytes]):
    """The value index of one vector, built from the state the records
    just written decode to: a dict codec's own keys and codes (segment
    and chain share one key dictionary, and the string column is never
    built), or else its column.  The decode also verifies the records at
    write time."""
    codec = vec.codec
    state = codec.decode(vec.path, len(vec), records, vec.lbytes)
    coded = codec.codes(state)
    if coded is not None:
        return build_value_index_from_codes(vec.path, *coded)
    return build_value_index(vec.path, codec.column(state))


def _write_vdoc(vdoc: VectorizedDocument, file: PageFile,
                index_paths=None) -> dict:
    """Write the heaps + catalog into ``file`` and return the meta dict."""
    pool = BufferPool(file, capacity=None)  # writer: keep all resident
    indexed = _resolve_index_paths(vdoc, index_paths)
    catalog = []
    for vpath in sorted(vdoc.vectors):
        vec = vdoc.vectors[vpath]
        records = vec.records()
        heap = HeapFile.create(pool)
        for record in records:
            heap.append(record)
        entry = {"path": list(vpath), "n": len(vec),
                 "head": heap.head, "pages": heap.n_pages,
                 "codec": vec.codec.name, "lbytes": int(vec.lbytes),
                 "pbytes": int(vec.pbytes)}
        if vpath in indexed:
            vi = _value_index(vec, records)
            iheap = HeapFile.create(pool)
            for record in encode_segment(vi):
                iheap.append(record)
            entry["index"] = {"head": iheap.head, "pages": iheap.n_pages,
                              "distinct": int(vi.distinct)}
        catalog.append(entry)
    skel = vdoc.store.skeleton()
    meta = {
        "format": VDOC_FORMAT,
        "root": vdoc.root,
        "n_nodes": skel.n,
        "vectors": catalog,
    }
    meta_heap = HeapFile.create(pool)
    meta_heap.append(json.dumps(meta, separators=(",", ":")).encode("utf-8"))
    meta_heap.append("\0".join(skel.names).encode("utf-8"))
    for name, dtype in _ARRAYS:
        meta_heap.append(getattr(skel, name).astype(dtype).tobytes())
    pool.flush()
    file.set_meta(meta_heap.head)
    return meta


def save_vdoc(vdoc: VectorizedDocument, path: str,
              page_size: int = DEFAULT_PAGE_SIZE,
              index_paths=None) -> dict:
    """Atomically write ``vdoc`` to ``path`` in the paged on-disk format;
    returns a summary (pages, bytes, vector count, compression).
    ``index_paths`` (``"all"`` or an iterable of vector paths)
    additionally builds and persists value-index segments for those
    vectors.

    The document is written to a temp file in the same directory, fsynced,
    then renamed over ``path`` (``os.replace``) with a directory fsync —
    so a crash at any point leaves either the previous file or the
    complete new one at ``path``, never a torn mix.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    os.close(fd)
    try:
        file = PageFile.create(tmp, page_size)
        try:
            meta = _write_vdoc(vdoc, file, index_paths=index_paths)
            file.flush()
            comp = vdoc.compression_stats()   # of the records just written
            summary = {
                "path": path,
                "format": VDOC_FORMAT,
                "page_size": page_size,
                "pages": file.n_pages,
                "bytes": file.size_bytes(),
                "vectors": len(meta["vectors"]),
                "values": sum(e["n"] for e in meta["vectors"]),
                "skeleton_nodes": meta["n_nodes"],
                "indexes": sum(1 for e in meta["vectors"] if "index" in e),
                "index_pages": sum(e["index"]["pages"]
                                   for e in meta["vectors"] if "index" in e),
                **{k: comp[k] for k in ("logical_bytes", "physical_bytes",
                                        "compression_ratio", "codecs")},
            }
            file.sync_close()  # flush + fsync + close: durable before rename
        except BaseException:
            file.abort()
            raise
        faults.replace(tmp, path)  # the atomic commit point
        faults.dir_fsync(directory)
        return summary
    except faults.CrashInjected:
        raise  # simulated process death: no cleanup runs, tmp is left over
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _req_int(value, what: str, lo: int = 0, hi: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or \
            value < lo or (hi is not None and value >= hi):
        raise CorruptDataError(f"vdoc catalog: {what} is {value!r}, expected "
                               f"an integer >= {lo}"
                               + (f" and < {hi}" if hi is not None else ""))
    return value


def _check_catalog(meta, path: str, n_pages: int) -> None:
    """Strict schema validation of the decoded catalog JSON — a corrupt
    catalog must fail here, not as a ``TypeError`` deep in a chain walk."""
    if not isinstance(meta, dict):
        raise CorruptDataError(f"{path}: vdoc catalog is not a JSON object")
    if meta.get("format") != VDOC_FORMAT:
        raise StorageError(
            f"{path}: unsupported vdoc format {meta.get('format')!r}")
    _req_int(meta.get("root"), "root node id", lo=1)
    _req_int(meta.get("n_nodes"), "skeleton node count", lo=1)
    vectors = meta.get("vectors")
    if not isinstance(vectors, list):
        raise CorruptDataError(f"{path}: vdoc catalog has no vector list")
    seen: set[tuple] = set()
    for entry in vectors:
        if not isinstance(entry, dict):
            raise CorruptDataError(f"{path}: vdoc catalog vector entry is "
                                   f"not an object")
        vpath = entry.get("path")
        if not isinstance(vpath, list) or not vpath or \
                not all(isinstance(s, str) for s in vpath):
            raise CorruptDataError(
                f"{path}: vector entry path {vpath!r} is not a list of "
                f"labels")
        name = "/".join(vpath)
        if tuple(vpath) in seen:
            raise CorruptDataError(
                f"{path}: vdoc catalog lists vector {name} twice")
        seen.add(tuple(vpath))
        n = _req_int(entry.get("n"), f"value count of {name}", lo=0)
        _req_int(entry.get("head"), f"head page of {name}",
                 lo=0, hi=n_pages)
        _req_int(entry.get("pages"), f"chain length of {name}",
                 lo=1, hi=n_pages + 1)
        codec = entry.get("codec")
        if codec not in CODECS:
            raise CorruptDataError(
                f"{path}: vector {name} names unknown codec {codec!r}")
        _req_int(entry.get("lbytes"), f"logical bytes of {name}", lo=0)
        _req_int(entry.get("pbytes"), f"encoded bytes of {name}", lo=0)
        ix = entry.get("index")
        if ix is None:
            continue
        if not isinstance(ix, dict):
            raise CorruptDataError(
                f"{path}: index entry of {name} is not an object")
        _req_int(ix.get("head"), f"index head page of {name}",
                 lo=0, hi=n_pages)
        _req_int(ix.get("pages"), f"index chain length of {name}",
                 lo=1, hi=n_pages + 1)
        _req_int(ix.get("distinct"), f"index key count of {name}",
                 lo=0, hi=n + 1)


def _read_catalog(pool, path: str, meta_page: int, n_pages: int) -> tuple:
    """Read the catalog chain at ``meta_page``: its schema-checked JSON
    record and its remaining (skeleton) records — the one validating
    catalog reader, shared by :func:`open_vdoc` (which lets the error
    propagate) and fsck (which turns it into a ``catalog`` finding)."""
    if meta_page < 0:
        raise StorageError(f"{path}: page file has no vdoc catalog")
    if meta_page >= n_pages:
        raise CorruptDataError(
            f"{path}: catalog head page {meta_page} outside the "
            f"file ({n_pages} pages)")
    meta_records = list(HeapFile(pool, meta_page).records(
        UNOWNED.checkpoint))
    if not meta_records:
        raise StorageError(f"{path}: empty vdoc catalog")
    try:
        meta = json.loads(meta_records[0].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptDataError(
            f"{path}: vdoc catalog is not valid JSON ({exc})",
            page=meta_page) from exc
    _check_catalog(meta, path, n_pages)
    return meta, meta_records[1:]


def _load_skeleton(records: list[bytes], meta: dict, path: str) -> NodeStore:
    """The frozen store read off the catalog chain's label table and
    arrays, every record checked with whole-array tests (a node whose
    decompressed size overflows is corrupt) — the one skeleton reader,
    shared like :func:`_read_catalog`; fsck reports a failure as
    ``skeleton``."""
    def corrupt(message: str) -> CorruptDataError:
        return CorruptDataError(f"{path}: {message}")

    if len(records) != 1 + len(_ARRAYS):
        raise corrupt(f"catalog chain holds {len(records)} skeleton "
                      f"records, expected {1 + len(_ARRAYS)}")
    try:
        names = tuple(records[0].decode("utf-8").split("\0"))
    except UnicodeDecodeError as exc:
        raise corrupt(f"skeleton label table is not valid UTF-8 "
                      f"({exc})") from exc
    if len(set(names)) != len(names):
        raise corrupt("skeleton label table lists a label twice")
    arrays = []
    for (name, dtype), record in zip(_ARRAYS, records[1:]):
        if len(record) % np.dtype(dtype).itemsize:
            raise corrupt(f"skeleton {name} record of {len(record)} bytes "
                          f"is not a whole number of {dtype} items")
        arrays.append(np.frombuffer(record, dtype))
    label, ptr, cid, cnt = arrays
    n = meta["n_nodes"]
    if len(label) != n or len(ptr) != n + 1:
        raise corrupt(f"catalog says {n} skeleton nodes, file holds "
                      f"{len(label)} labels and {len(ptr)} child_ptr entries")
    if not 1 <= meta["root"] < n:
        raise corrupt(f"root id {meta['root']} outside the skeleton "
                      f"({n} nodes)")
    if ptr[0] != 0 or not ptr[-1] == len(cid) == len(cnt):
        raise corrupt(f"skeleton child_ptr runs {ptr[0]}..{ptr[-1]} over "
                      f"{len(cid)} child ids and {len(cnt)} counts")
    down = np.flatnonzero(ptr[1:] < ptr[:-1])
    if len(down):
        raise corrupt(f"skeleton child_ptr decreases at node {down[0]}")
    bad = np.flatnonzero((label < 0) | (label >= len(names)))
    if len(bad):
        raise corrupt(f"skeleton node {bad[0]} has label id "
                      f"{label[bad[0]]}, outside the {len(names)} labels")
    if names[label[0]] != "#" or ptr[1]:
        raise corrupt("node 0 is not the text marker")
    parent = np.repeat(np.arange(n), np.diff(ptr))
    bad = np.flatnonzero((cid < 0) | (cid >= parent) | (cnt < 1))
    if len(bad):
        e = bad[0]
        raise corrupt(f"skeleton node {parent[e]} has child run "
                      f"({cid[e]}, {cnt[e]}) outside the already-interned "
                      f"prefix")
    try:
        return NodeStore.load(names, label, ptr, cid, cnt)
    except (ValueError, OverflowError) as exc:
        raise corrupt(str(exc)) from exc


def _check_vectors(store: NodeStore, meta: dict, path: str) -> PathsCatalog:
    """The skeleton's path catalog, checked against the vector entries
    (shared like :func:`_load_skeleton`; fsck reports a failure as
    ``vector``): the vectors are exactly the text paths, each holding
    its path's total — else a query or reconstruction would index past
    a column."""
    catalog = PathsCatalog(store, meta["root"])
    texts = {p: n for p, n in catalog.totals().items() if p[-1] == "#"}
    counts = {tuple(e["path"]): e["n"] for e in meta["vectors"]}
    if texts != counts:
        vpath = min(p for p in texts.keys() | counts.keys()
                    if texts.get(p) != counts.get(p))
        name = "/".join(vpath)
        if vpath not in counts:
            raise CorruptDataError(f"{path}: text path {name} has no vector")
        if vpath not in texts:
            raise CorruptDataError(
                f"{path}: vector {name} is not a text path of the skeleton")
        raise CorruptDataError(
            f"{path}: vector {name} holds {counts[vpath]} values, the "
            f"skeleton {texts[vpath]} text nodes")
    return catalog


def open_vdoc(path: str, pool_pages: int | None = None,
              pool: BufferPool | None = None) -> VectorizedDocument:
    """Open a saved vdoc with a buffer pool of ``pool_pages`` frames
    (``None`` → unbounded).  Reads the catalog and skeleton eagerly,
    vectors lazily.

    Pass an existing ``pool`` to open the document over a *shared* buffer
    pool (the repository layer opens every member this way); the file is
    attached as a new :class:`~repro.storage.buffer.FileView` and
    ``pool_pages`` is ignored in favour of the pool's own capacity."""
    file = PageFile.open(path)
    try:
        if pool is None:
            pool = BufferPool(capacity=pool_pages)
        view = pool.attach(file)
        meta, skeleton = _read_catalog(view, path, file.meta_page,
                                       file.n_pages)
        store = _load_skeleton(skeleton, meta, path)
        catalog = _check_vectors(store, meta, path)

        vectors: dict[tuple, Vector] = {}
        vindexes: dict[tuple, DiskValueIndex] = {}
        for entry in meta["vectors"]:
            vpath = tuple(entry["path"])
            heap = HeapFile(view, entry["head"], n_pages=entry["pages"])
            vectors[vpath] = Vector(vpath, entry["n"], CODECS[entry["codec"]],
                                    entry["lbytes"], entry["pbytes"],
                                    _Chain(heap), n_pages=entry["pages"])
            if "index" in entry:
                vindexes[vpath] = DiskValueIndex(vpath, entry["n"],
                                                 entry["index"], view)
        doc = VectorizedDocument(store, meta["root"], vectors)
        doc.file, doc.pool, doc.view = file, pool, view
        doc._vindexes = vindexes
        doc._catalog = catalog
        return doc
    except BaseException:
        file.abort()  # never write back to a file we failed to open
        raise
