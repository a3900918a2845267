"""Vectorized document container: (skeleton, root, vectors) + statistics.

One kind of document: ``from_xml`` and ``open`` (``open_vdoc``) build the
same object over the same coded vectors, and page residency —
``file``/``pool``/``view``, set by ``open_vdoc`` — is the only
difference, so a document and its save run the same plans.
"""

from __future__ import annotations

import threading

from ..xmldata.model import Element
from ..xmldata.parser import iterparse
from .reconstruct import reconstruct, write_xml
from .skeleton import NodeStore
from .vectorize import vectorize_events, vectorize_tree
from .vectors import Vector


class VectorizedDocument:
    """An XML document in vectorized form: compressed skeleton + data
    vectors.  This is the unit the query engine operates on."""

    #: page residency of an opened document: its page file, the buffer
    #: pool (possibly shared by a repository's members) and this file's
    #: view of it, which carries the per-document I/O counters
    file = None
    pool = None
    view = None

    def __init__(self, store: NodeStore, root: int, vectors: dict[tuple, Vector]):
        self.store = store
        self.root = root
        self.vectors = vectors
        self._catalog = None
        self._catalog_lock = threading.Lock()
        #: vector path -> persistent value-index handle (``.distinct``,
        #: ``.n_pages``, ``.get(ctx) -> ValueIndex``, read through a
        #: query's ``VectorCache``), filled from the file catalog by
        #: ``open_vdoc``
        self._vindexes: dict[tuple, object] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def from_xml(cls, text: str) -> "VectorizedDocument":
        return cls(*vectorize_events(iterparse(text)))

    @classmethod
    def from_tree(cls, tree: Element) -> "VectorizedDocument":
        return cls(*vectorize_tree(tree))

    @classmethod
    def from_events(cls, events) -> "VectorizedDocument":
        return cls(*vectorize_events(events))

    # -- on-disk format (repro.storage) ------------------------------------

    def save(self, path: str, page_size: int | None = None,
             index_paths=None) -> dict:
        """Write the document to ``path`` in the paged on-disk format
        (slotted pages; one codec-encoded heap-file chain per vector).
        Returns a summary dict (pages, bytes, vectors).  ``index_paths``
        — ``"all"`` or an iterable of vector paths — additionally
        persists value-index segments for those vectors."""
        from ..storage import vdocfile

        kwargs = {} if page_size is None else {"page_size": page_size}
        return vdocfile.save_vdoc(self, path, index_paths=index_paths,
                                  **kwargs)

    @classmethod
    def open(cls, path: str, pool_pages: int | None = None):
        """Open a saved vdoc: skeleton + catalog resident, vector records
        read lazily through a buffer pool of ``pool_pages`` frames
        (``None`` → unbounded)."""
        from ..storage import vdocfile

        return vdocfile.open_vdoc(path, pool_pages=pool_pages)

    # -- decompression (counted; never used by the vectorized evaluator) --

    def to_tree(self) -> Element:
        return reconstruct(self.store, self.root, self.vectors)

    def to_xml(self) -> str:
        return write_xml(self.store, self.root, self.vectors)

    # -- query support ----------------------------------------------------

    @property
    def catalog(self):
        """The document's :class:`~repro.core.paths.PathsCatalog` (its
        paths, their run-length occurrences and the position algebra):
        built when a saved file opens (its vectors are checked against
        it), else at most once on first access, also when concurrent (the
        build is pure, but two racing builds would waste work and publish
        distinct memo dicts)."""
        if self._catalog is None:
            with self._catalog_lock:
                if self._catalog is None:
                    from .paths import PathsCatalog

                    self._catalog = PathsCatalog(self.store, self.root)
        return self._catalog

    def io_units(self) -> list:
        """Everything the per-context I/O invariants cover (``path``,
        ``n_pages``): the data vectors and the persistent index
        segments."""
        return list(self.vectors.values()) + list(self._vindexes.values())

    def codec_of(self, path) -> str | None:
        """Storage-codec name of one vector (no page I/O), or ``None`` for
        a path the document has no vector for — the planner consults this
        to stamp ``access='dict'``."""
        vec = self.vectors.get(tuple(path))
        return vec.codec.name if vec is not None else None

    def compression_stats(self) -> dict:
        """Per-vector codec + logical/physical bytes, the codec mix and
        the overall compression ratio, with zero page I/O (what
        ``repo ls`` / ``index ls`` print)."""
        vecs = []
        logical = physical = 0
        codecs: dict[str, int] = {}
        for vpath in sorted(self.vectors):
            vec = self.vectors[vpath]
            name = vec.codec.name
            codecs[name] = codecs.get(name, 0) + 1
            vecs.append({"path": "/".join(vpath), "n": len(vec),
                         "codec": name,
                         "logical_bytes": vec.lbytes,
                         "physical_bytes": vec.pbytes})
            logical += vec.lbytes
            physical += vec.pbytes
        return {"vectors": vecs,
                "logical_bytes": logical,
                "physical_bytes": physical,
                "codecs": codecs,
                "compression_ratio":
                    round(physical / logical, 4) if logical else 1.0}

    # -- value indexes -----------------------------------------------------

    def vindex_stats(self, path: tuple) -> dict | None:
        """Planner-facing statistics of one vector's value index — no
        page I/O, ``None`` when the vector has no index."""
        handle = self._vindexes.get(path)
        return None if handle is None else {"distinct": handle.distinct}

    # -- page residency ----------------------------------------------------

    def io_stats(self) -> dict:
        """Per-document physical/logical I/O counters, plus the pool-wide
        aggregates (``pool_*``) — distinct when the pool is shared; empty
        for a document that was never read from a file."""
        if self.view is None:
            return {}
        stats = self.view.stats.as_dict()
        for k, v in self.pool.snapshot().items():
            stats[k if k == "pinned" else f"pool_{k}"] = v
        return stats

    def drop_caches(self) -> None:
        """Forget every decoded column and loaded index (the buffer pool
        is left as is)."""
        for vec in self.vectors.values():
            vec.drop_cache()
        for handle in self._vindexes.values():
            handle.drop_cache()

    def close(self) -> None:
        if self.file is not None:
            self.file.close()

    def __enter__(self) -> "VectorizedDocument":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- statistics -------------------------------------------------------

    def stats(self) -> dict:
        store = self.store
        total_values = sum(len(v) for v in self.vectors.values())
        reachable = store.reachable(self.root)
        return {
            "document_nodes": store.node_count(self.root),
            "skeleton_nodes": len(reachable),
            "skeleton_edges": sum(len(store.children(n)) for n in reachable),
            "vectors": len(self.vectors),
            "values": total_values,
        }
