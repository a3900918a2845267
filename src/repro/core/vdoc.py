"""Vectorized document container: (skeleton, root, vectors) + statistics."""

from __future__ import annotations

import threading

from ..xmldata.model import Element
from ..xmldata.parser import iterparse
from ..xmldata.serializer import serialize
from .reconstruct import reconstruct
from .skeleton import NodeStore
from .vectorize import vectorize_events, vectorize_tree
from .vectors import Vector


class VectorizedDocument:
    """An XML document in vectorized form: compressed skeleton + data
    vectors.  This is the unit the query engine operates on."""

    #: buffer pool backing the vectors; None for memory-resident documents
    #: (``repro.storage.DiskVectorizedDocument`` overrides it per instance).
    pool = None

    def __init__(self, store: NodeStore, root: int, vectors: dict[tuple, Vector]):
        self.store = store
        self.root = root
        self.vectors = vectors
        self._catalog = None
        self._catalog_lock = threading.Lock()
        #: vector path -> value-index handle (anything with ``.distinct``
        #: and ``.get(ctx) -> ValueIndex``, read through a query's
        #: ``VectorCache``); in-memory docs fill it via
        #: :meth:`build_indexes`, disk docs from the file catalog.
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
        """Open a saved vdoc disk-backed: skeleton + catalog resident,
        vectors lazy through a buffer pool of ``pool_pages`` frames
        (``None`` → unbounded).  Returns a
        :class:`repro.storage.DiskVectorizedDocument`."""
        from ..storage import vdocfile

        return vdocfile.open_vdoc(path, pool_pages=pool_pages)

    # -- decompression (counted; never used by the vectorized evaluator) --

    def to_tree(self) -> Element:
        return reconstruct(self.store, self.root, self.vectors)

    def to_xml(self) -> str:
        return serialize(self.to_tree())

    # -- query support ----------------------------------------------------

    @property
    def catalog(self):
        """Lazily built run-length occurrence indexes (position algebra).
        Built at most once even under concurrent first access (the build
        is pure, but two racing builds would waste work and publish
        distinct memo dicts)."""
        if self._catalog is None:
            with self._catalog_lock:
                if self._catalog is None:
                    from .paths import PathsCatalog

                    self._catalog = PathsCatalog(self.store, self.root)
        return self._catalog

    def io_units(self) -> list:
        """Everything the per-context I/O invariants cover (``path``,
        ``n_pages``): the data vectors, plus — for disk-backed documents —
        the persistent index segments."""
        return list(self.vectors.values())

    def codec_of(self, path) -> str | None:
        """Cataloged storage-codec name of one vector, or ``None`` —
        in-memory vectors are not encoded, so there is nothing for the
        planner's code-space access path to exploit here.  Disk-backed
        documents answer from the catalog with zero page I/O."""
        return None

    # -- value indexes -----------------------------------------------------

    def vindex_stats(self, path: tuple) -> dict | None:
        """Planner-facing statistics of one vector's value index — no
        page I/O, ``None`` when the vector has no index."""
        handle = self._vindexes.get(path)
        return None if handle is None else {"distinct": handle.distinct}

    def build_indexes(self, paths=None) -> list[tuple]:
        """Build in-memory value indexes for ``paths`` (default: every
        vector).  Persistent indexes come from
        ``save(..., index_paths=...)`` instead; this is for memory-resident
        documents and tests.  Returns the indexed paths."""
        from ..index import build_value_index

        built = []
        for p, vec in sorted(self.vectors.items()):
            if paths is None or p in paths:
                self._vindexes[p] = build_value_index(p, vec._col())
                built.append(p)
        return built

    # -- statistics -------------------------------------------------------

    def stats(self) -> dict:
        store = self.store
        total_values = sum(len(v) for v in self.vectors.values())
        return {
            "document_nodes": store.node_count(self.root),
            "skeleton_nodes": len(store.reachable(self.root)),
            "skeleton_edges": store.edge_count(self.root),
            "vectors": len(self.vectors),
            "values": total_values,
        }
