import pathlib
import sys

import pytest

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

@pytest.fixture(scope="session")
def identity_doc():
    """``identity_doc(xml)``: ``VectorizedDocument.from_xml`` with every
    vector encoded by the ``identity`` codec — the uncompressed twin the
    differential tests compare a codec-coded file against.  ``src/`` has
    no switch for it; the codec choice is patched for the one
    vectorization (``save`` writes what the vectors hold)."""
    from repro.core.vdoc import VectorizedDocument
    from repro.storage.codecs import IDENTITY

    def vectorize(xml):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.storage.codecs.choose_codec",
                       lambda values: IDENTITY)
            return VectorizedDocument.from_xml(xml)
    return vectorize


class Twins:
    """One XML text in every configuration a query can meet (see the
    ``twins`` fixture)."""

    def __init__(self, xml, files):
        from repro.core.vdoc import VectorizedDocument

        #: the vectorized document, before any save: the ``coded`` twin
        #: with its records in hand (same codecs, same plans)
        self.memory = VectorizedDocument.from_xml(xml)
        #: twin name -> ``.vdoc`` path
        self.files = files

    def open(self, name, pool_pages=64):
        from repro.storage.vdocfile import open_vdoc

        return open_vdoc(self.files[name], pool_pages=pool_pages)

    def each(self, pool_pages=64):
        """``(name, document)`` per twin, each file over its own pool."""
        yield "memory", self.memory
        for name in self.files:
            with self.open(name, pool_pages) as doc:
                yield name, doc

    def naive(self, query) -> str:
        """The one oracle: nested loops over the rebuilt tree."""
        from repro.core.engine import eval_xq

        return eval_xq(self.memory, query, mode="naive").to_xml()


@pytest.fixture(scope="session")
def twins(tmp_path_factory, identity_doc):
    """``twins(xml, page_size=512)``: the reference twins of one XML
    text — the memory document and three saves: ``identity`` (every
    vector stored as text: predicates and joins run on strings),
    ``coded`` (the memory document's own per-vector codecs, no index:
    code-space evaluation, every op a scan or dict sweep) and
    ``indexed`` (``coded`` plus ``index_paths="all"``: selections
    probe).  ``src/`` has no switch between these behaviours — what a
    query does follows from the file it runs on — so the differential
    tests compare twins, each against ``mode="naive"`` bytes."""
    def build(xml, page_size=512):
        d = tmp_path_factory.mktemp("twins")
        files = {name: str(d / f"{name}.vdoc")
                 for name in ("identity", "coded", "indexed")}
        t = Twins(xml, files)
        identity_doc(xml).save(files["identity"], page_size=page_size)
        t.memory.save(files["coded"], page_size=page_size)
        t.memory.save(files["indexed"], page_size=page_size,
                      index_paths="all")
        return t
    return build
