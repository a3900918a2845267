"""Property tests on random documents (deterministic seeds, no extra deps):

* vectorize -> reconstruct is the identity on documents (Props 2.1/2.2);
* hash-consing invariant: identical subtrees share one NodeStore id, and
  the skeleton (DAG) is never larger than the document tree.
"""

import random

import pytest

from repro.core.vdoc import VectorizedDocument
from repro.xmldata import Element, Text, parse, serialize

_LABELS = ["a", "b", "c", "data", "item"]
_TEXTS = ["", "x", "hello world", "42", "-3.5", "<&>\"'", "  spaced  ", "ünïcödé"]
_ATTRS = ["id", "k", "lang"]


def random_tree(rng: random.Random, depth: int = 0) -> Element:
    elem = Element(rng.choice(_LABELS))
    for name in _ATTRS:
        if rng.random() < 0.2:
            elem.attrs[name] = rng.choice(_TEXTS)
    n_children = rng.randrange(0, max(1, 5 - depth))
    for _ in range(n_children):
        # Repeat a child sometimes so runs and shared subtrees actually occur.
        if elem.children and rng.random() < 0.3:
            src = rng.choice(elem.children)
            clone = parse(serialize(src)) if isinstance(src, Element) else Text(src.value)
            elem.append(clone)
        elif rng.random() < 0.35:
            value = rng.choice(_TEXTS)
            # Adjacent raw text merges on parse; only append where it stays a
            # distinct node (serializer writes exactly what the model holds).
            if value and not (elem.children and isinstance(elem.children[-1], Text)):
                elem.append(Text(value))
        elif depth < 5:
            elem.append(random_tree(rng, depth + 1))
    return elem


@pytest.mark.parametrize("seed", range(30))
def test_vectorize_reconstruct_roundtrip(seed):
    tree = random_tree(random.Random(seed))
    vdoc = VectorizedDocument.from_tree(tree)
    assert vdoc.to_tree() == tree
    # and through actual XML text, byte-exact
    xml = serialize(tree)
    assert VectorizedDocument.from_xml(xml).to_xml() == xml


@pytest.mark.parametrize("seed", range(30))
def test_hash_consing_invariant(seed):
    tree = random_tree(random.Random(seed))
    vdoc = VectorizedDocument.from_tree(tree)
    store = vdoc.store

    # Skeleton size (distinct DAG nodes) never exceeds document tree size.
    stats = vdoc.stats()
    assert stats["skeleton_nodes"] <= stats["document_nodes"]

    # Identical subtrees share one id: interning the serialized form of any
    # reachable node again returns the same id.
    serial: dict[int, tuple] = {}

    def canon(nid: int) -> tuple:
        if nid not in serial:
            serial[nid] = (
                store.label(nid),
                tuple((canon(c), k) for c, k in store.children(nid)),
            )
        return serial[nid]

    seen: dict[tuple, int] = {}
    for nid in store.reachable(vdoc.root):
        key = canon(nid)
        assert seen.setdefault(key, nid) == nid, "duplicate structure interned twice"


@pytest.mark.parametrize("seed", range(10))
def test_revectorization_is_stable(seed):
    """vectorize(reconstruct(vdoc)) produces identical vectors and an
    isomorphic skeleton (same stats)."""
    tree = random_tree(random.Random(seed + 1000))
    v1 = VectorizedDocument.from_tree(tree)
    v2 = VectorizedDocument.from_tree(v1.to_tree())
    assert set(v1.vectors) == set(v2.vectors)
    for path, vec in v1.vectors.items():
        assert vec.tolist() == v2.vectors[path].tolist()
    assert v1.stats() == v2.stats()
