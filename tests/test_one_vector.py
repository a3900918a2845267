"""One vector, one document: the vectorizer encodes each vector once into
the records ``save`` writes, so a vectorized document is its unsaved
``coded`` file — it plans every query exactly as its save does, runs
``=`` selections in code space, and a save (or a re-save of an opened
file, indexed or not) writes what the vectors hold without encoding a
value again."""

import filecmp

import pytest

from repro.core.context import EvalContext
from repro.core.engine import eval_xq
from repro.core.planner import plan_query
from repro.core.qgraph import compile_query
from repro.core.vdoc import VectorizedDocument
from repro.core.xquery.parser import parse_xq
from repro.storage import codecs
from repro.storage.vdocfile import open_vdoc

from test_xpath_cross import DOCS
from test_xq_cross import XQ_QUERIES

CAT = ("r", "it", "cat", "#")


def _codec_rich_xml(n=240):
    """Every codec at least once: ``cat`` dict, ``id`` delta, ``note``
    zlib, ``title`` (two short distinct values) identity."""
    items = "".join(
        f"<it><id>{1000 + i}</id><cat>c{i % 5}</cat>"
        f"<note>shared prose, distinct tail number {i} of many</note></it>"
        for i in range(n))
    return f"<r><title>ab</title><title>cd</title>{items}</r>"


def _plan(gq, vdoc) -> str:
    return plan_query(gq, vdoc).explain()


@pytest.mark.parametrize("doc", sorted(DOCS))
def test_memory_document_plans_and_answers_as_its_save(twins, doc):
    t = twins(DOCS[doc])
    with t.open("coded") as saved:
        for query in XQ_QUERIES:
            gq, _ = compile_query(parse_xq(query))
            assert _plan(gq, t.memory) == _plan(gq, saved), query
    for query in XQ_QUERIES:
        oracle = t.naive(query)
        for name, vdoc in t.each():
            assert eval_xq(vdoc, query).to_xml() == oracle, (name, query)


def test_dict_selection_in_memory_decodes_nothing():
    vdoc = VectorizedDocument.from_xml(_codec_rich_xml())
    assert vdoc.codec_of(CAT) == "dict"
    ctx = EvalContext.for_doc(vdoc)
    res = eval_xq(vdoc, "for $i in /r/it where $i/cat = 'c2' "
                        "return <o>{$i/id}</o>", ctx=ctx)
    assert [op.access for op in res.plan.ops if op.kind == "select"] \
        == ["dict"]
    assert res.n_tuples == 48
    assert ctx.decode_counts(vdoc)[CAT] == 0


@pytest.fixture()
def encodes(monkeypatch):
    """The value count of every ``encode_column`` call from here on."""
    calls = []
    real = codecs.encode_column

    def spy(values):
        calls.append(len(values))
        return real(values)
    monkeypatch.setattr(codecs, "encode_column", spy)
    return calls


def test_save_writes_what_the_document_holds(tmp_path, encodes):
    xml = _codec_rich_xml()
    vdoc = VectorizedDocument.from_xml(xml)
    assert len(encodes) == len(vdoc.vectors)
    assert {v.codec.name for v in vdoc.vectors.values()} \
        == {"dict", "delta", "zlib", "identity"}
    first = str(tmp_path / "first.vdoc")
    vdoc.save(first, page_size=512)
    assert len(encodes) == len(vdoc.vectors)       # once per vector, ever

    del encodes[:]
    again, indexed, reindexed = (str(tmp_path / f"{n}.vdoc")
                                 for n in ("again", "indexed", "reindexed"))
    with open_vdoc(first) as disk:
        disk.save(again, page_size=512)
        disk.save(indexed, page_size=512, index_paths="all")
    with open_vdoc(indexed) as disk:
        disk.save(reindexed, page_size=512, index_paths="all")
    assert encodes == []        # re-saves copy records, never re-encode
    assert filecmp.cmp(first, again, shallow=False)
    assert filecmp.cmp(indexed, reindexed, shallow=False)
    vdoc.save(str(tmp_path / "direct.vdoc"), page_size=512,
              index_paths="all")
    assert filecmp.cmp(indexed, str(tmp_path / "direct.vdoc"), shallow=False)
    with open_vdoc(again) as disk:
        assert disk.to_xml() == xml


def test_result_vectors_are_encoded_only_when_saved(tmp_path, encodes):
    vdoc = VectorizedDocument.from_xml(_codec_rich_xml())
    del encodes[:]
    res = eval_xq(vdoc, "for $i in /r/it where $i/id > '1100' "
                        "return <o>{$i/cat}{$i/note}</o>")
    res.to_xml()
    assert encodes == []
    out = res.vdoc
    path = str(tmp_path / "result.vdoc")
    out.save(path, page_size=512)
    assert len(encodes) == len(out.vectors)
    cat = next(p for p in out.vectors if p[-2] == "cat")
    assert out.codec_of(cat) == "dict"
    with open_vdoc(path) as disk:
        assert disk.to_xml() == out.to_xml()
