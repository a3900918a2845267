"""Satellite tests: bulk ``occ`` statistics and cross-path document order.

* ``NodeStore.occ_column`` computes per-node path statistics iteratively
  (one topological pass per suffix) — it must agree with the definitional
  recursion on arbitrary documents and survive relative paths far beyond
  the Python recursion limit;
* ``PathsCatalog.order_keys`` assigns every occurrence its global preorder
  rank, comparable *across* label paths — the basis for interleaving
  ``//`` results in true document order without decompression.
"""

import random
import sys

import numpy as np
import pytest

from repro.core.engine import eval_query
from repro.core.skeleton import NodeStore
from repro.core.vdoc import VectorizedDocument
from repro.xmldata.model import node_label, xpath_children

from test_roundtrip_property import random_tree


def _occ_ref(store, nid, rel):
    """Definitional recursion: occ(n, (l, *rest)) = Σ count·occ(c, rest)."""
    if not rel:
        return 1
    return sum(k * _occ_ref(store, c, rel[1:])
               for c, k in store.children(nid)
               if store.label(c) == rel[0])


@pytest.mark.parametrize("seed", range(15))
def test_occ_column_matches_definition(seed):
    vdoc = VectorizedDocument.from_tree(random_tree(random.Random(seed + 40)))
    store, catalog = vdoc.store, vdoc.catalog
    nodes = sorted(store.reachable(vdoc.root))
    rels = {g[d:] for g in catalog.dataguide() for d in range(len(g))}
    for rel in sorted(rels):
        col = store.occ_column(rel)
        assert col.dtype == np.int64 and len(col) == len(store)
        for nid in nodes:
            assert col[nid] == _occ_ref(store, nid, rel), (nid, rel)


def test_occ_column_beyond_recursion_limit():
    depth = sys.getrecursionlimit() + 300
    xml = "<a>" * depth + "x" + "</a>" * depth
    vdoc = VectorizedDocument.from_xml(xml)
    rel = ("a",) * (depth - 1) + ("#",)
    # one occurrence of the full chain under the root; no RecursionError
    assert vdoc.store.occ(vdoc.root, rel) == 1
    _, lengths = vdoc.catalog.extension_ranges(("a",), None, rel)
    assert lengths.tolist() == [1]


def test_occ_column_of_an_overlay_leaves_the_base_alone():
    vdoc = VectorizedDocument.from_xml("<a><b><c>1</c></b><b><c>2</c></b></a>")
    store = vdoc.store
    col = store.occ_column(("b", "c"))
    assert col[vdoc.root] == 2
    skel, c = store.skeleton(), store.occ_column(("c",))
    # a result's nodes live in an overlay whose runs point into the base
    overlay = NodeStore(base=store)
    new = overlay.intern_list("wrap", [vdoc.root, vdoc.root])
    assert new == len(store) and len(overlay) == len(store) + 1
    assert overlay.occ(new, ("a", "b", "c")) == 4
    assert overlay.occ_column(("b", "c"))[: len(col)].tolist() == col.tolist()
    # the base's arrays and cached columns are the very same objects
    assert store.skeleton() is skel and len(store) == new
    assert store.occ_column(("b", "c")) is col
    assert store.occ_column(("c",)) is c
    with pytest.raises(AssertionError, match="frozen"):
        store.intern_list("wrap", [vdoc.root])


def _expected_ranks(tree):
    """Global preorder position of every node, grouped by root label path."""
    ranks: dict[tuple, list[int]] = {}
    pos = 0

    def walk(node, path):
        nonlocal pos
        ranks.setdefault(path, []).append(pos)
        pos += 1
        for c in xpath_children(node):
            walk(c, (*path, node_label(c)))

    walk(tree, (node_label(tree),))
    return ranks


@pytest.mark.parametrize("seed", range(15))
def test_order_keys_are_global_preorder_ranks(seed):
    tree = random_tree(random.Random(seed + 77))
    vdoc = VectorizedDocument.from_tree(tree)
    catalog = vdoc.catalog
    expected = _expected_ranks(tree)
    assert set(expected) == set(catalog.dataguide())
    for path in catalog.dataguide():
        keys = catalog.order_keys(path)
        assert list(keys) == expected[path], path
        assert len(keys) == catalog.index(path).total


@pytest.mark.parametrize("seed", range(15))
def test_descendant_results_interleave_in_document_order(seed):
    """`//` text results must come out exactly as a document-order tree
    walk emits them, even when several concrete paths interleave."""
    vdoc = VectorizedDocument.from_tree(random_tree(random.Random(seed + 31)))
    for q in ["//b/text()", "//c//text()", "//*/text()", "//@id"]:
        vx = eval_query(vdoc, q, mode="vx")
        naive = eval_query(vdoc, q, mode="naive")
        assert vx.text_values() == naive.text_values(), q
        assert vx.canonical() == naive.canonical(), q


def test_interleaving_fixed_example():
    vdoc = VectorizedDocument.from_xml(
        "<r><x><y>1</y></x><z><y>2</y></z><x><y>3</y></x><y>4</y></r>")
    vx = eval_query(vdoc, "//y/text()", mode="vx")
    # occurrences of r/x/y, r/z/y and r/y interleaved by document position,
    # not grouped per concrete path
    assert vx.text_values() == ["1", "2", "3", "4"]
