"""The tree-free writer: ``write_xml`` writes a document or a result
straight from its skeleton and columns, with the bytes of serializing the
reconstructed tree, under the same decompression contract, and no write
path builds a tree."""

import random

import pytest

from repro.cli import main
from repro.core import reconstruct as reconstruct_mod
from repro.core import vdoc as vdoc_mod
from repro.core.engine import eval_xq
from repro.core.reconstruct import forbid_decompression, write_xml
from repro.core.vdoc import VectorizedDocument
from repro.datasets.synth import xmark_like_xml
from repro.errors import DecompressionForbiddenError
from repro.repo import Repository
from repro.xmldata import serialize
from repro.xmldata import serializer as serializer_mod

from test_roundtrip_property import random_tree
from test_xpath_cross import DOCS
from test_xq_cross import XQ_QUERIES, _random_query


def _assert_tree_bytes(vdoc):
    """``to_xml`` is the serialized tree, and the inner write is its
    children's serializations concatenated."""
    tree = vdoc.to_tree()
    assert vdoc.to_xml() == serialize(tree)
    assert write_xml(vdoc.store, vdoc.root, vdoc.vectors, inner=True) == \
        "".join(serialize(kid) for kid in tree.children)


@pytest.mark.parametrize("seed", range(30))
def test_random_trees_write_their_tree_bytes(seed, tmp_path):
    """Random trees (``<&>"'``, empty text, attribute-only elements,
    repeated runs), in memory and saved-then-opened."""
    vdoc = VectorizedDocument.from_tree(random_tree(random.Random(seed)))
    _assert_tree_bytes(vdoc)
    path = str(tmp_path / "doc.vdoc")
    vdoc.save(path)
    with VectorizedDocument.open(path) as opened:
        _assert_tree_bytes(opened)
        assert opened.to_xml() == vdoc.to_xml()


def _assert_result_bytes(vdoc, query):
    res = eval_xq(vdoc, query)
    tree = res.vdoc.to_tree()
    assert res.to_xml() == serialize(tree) == \
        eval_xq(vdoc, query, mode="naive").to_xml(), query
    assert res.fragment() == "".join(serialize(kid) for kid in tree.children)


@pytest.mark.parametrize("doc", sorted(DOCS))
def test_xq_cross_results_write_their_tree_bytes(doc):
    vdoc = VectorizedDocument.from_xml(DOCS[doc])
    for query in XQ_QUERIES:
        _assert_result_bytes(vdoc, query)


@pytest.mark.parametrize("seed", range(25))
def test_random_xq_results_write_their_tree_bytes(seed):
    rng = random.Random(seed + 900)
    vdoc = VectorizedDocument.from_tree(random_tree(rng))
    for _ in range(8):
        _assert_result_bytes(vdoc, _random_query(rng))


def test_a_repeated_attribute_keeps_its_first_position_and_last_value():
    vdoc = VectorizedDocument.from_xml(xmark_like_xml(12, seed=4))
    for query in ("for $p in //person return <r>{$p/@id}{$p/name}{$p/@id}</r>",
                  "for $p in //person return {$p/@id}{$p/@id}"):
        _assert_result_bytes(vdoc, query)


def test_a_deep_chain_writes_without_recursion():
    xml = "<a>" * 5000 + "x" + "</a>" * 5000
    vdoc = VectorizedDocument.from_xml(xml)
    assert vdoc.to_xml() == xml
    # a shared deep subtree: one chain node, a run of two under the root
    twice = VectorizedDocument.from_xml(f"<r>{xml}{xml}</r>")
    assert twice.store.children(twice.root)[0][1] == 2
    assert twice.to_xml() == f"<r>{xml}{xml}</r>"
    assert write_xml(twice.store, twice.root, twice.vectors,
                     inner=True) == xml + xml


def test_every_write_is_a_counted_decompression_and_forbidden_in_a_query():
    vdoc = VectorizedDocument.from_xml(xmark_like_xml(10, seed=1))
    res = eval_xq(vdoc, "for $p in //person return <r>{$p/name}</r>")
    for write in (res.to_xml, res.fragment, vdoc.to_xml):
        before = reconstruct_mod.DECOMPRESSION_COUNT
        write()
        assert reconstruct_mod.DECOMPRESSION_COUNT == before + 1
        with forbid_decompression():
            with pytest.raises(DecompressionForbiddenError):
                write()


def _no_tree(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a write path built or walked a tree")
    monkeypatch.setattr(serializer_mod, "_write", refuse)
    for mod in (reconstruct_mod, vdoc_mod):
        monkeypatch.setattr(mod, "reconstruct", refuse)


def test_no_write_path_builds_a_tree(tmp_path, monkeypatch, capsys):
    xq = ("for $p in collection('auctions')/site/people/person "
          "where $p/profile/age > '30' return <r>{$p/@id}{$p/name}</r>")
    d = str(tmp_path / "a.repo")
    repo = Repository.init(d, "auctions")
    xmls = []
    for i, n in enumerate((14, 23)):
        f = tmp_path / f"m{i}.xml"
        f.write_text(xmark_like_xml(n, seed=i + 1), encoding="utf-8")
        xmls.append(f)
        repo.add(str(f))
    repo.close()
    # the tree-built bytes: the members' naive results spliced in order
    naive = [eval_xq(VectorizedDocument.from_xml(f.read_text("utf-8")),
                     xq.replace("collection('auctions')", ""), mode="naive")
             for f in xmls]
    inner = "".join(serialize(kid) for r in naive for kid in r.tree.children)
    expected = f"<result>{inner}</result>"
    first = xmls[0].read_text(encoding="utf-8")
    with Repository.open(d, result_cache_bytes=1 << 20) as repo:
        member = repo.member(repo.members()[0])

        _no_tree(monkeypatch)
        assert repo.xq(xq).to_xml() == expected         # a cache miss
        assert repo.xq(xq).to_xml() == expected         # a cache hit
        assert repo.result_cache.hits >= 1
        assert member.to_xml() == first                 # an opened member
    assert main(["reconstruct", str(xmls[0])]) == 0
    assert capsys.readouterr().out == first
