"""The skeleton as arrays: every statistic the position algebra reads off
the compressed skeleton — a path's run-length occurrences and total, the
dataguide, global preorder ranks, extension ranges, the per-node ``occ``
columns and decompressed subtree sizes — equals the brute-force walk it
replaced, on every path of a mixed corpus.

The walks below are the former implementations (a Python loop per run,
per node and per child), kept only as oracles: iterative, and slow on
purpose.
"""

import random
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import eval_xq
from repro.core.paths import Dataguide
from repro.core.planner import plan_query
from repro.core.qgraph import compile_query
from repro.core.skeleton import NodeStore
from repro.core.vdoc import VectorizedDocument
from repro.core.xquery import parse_xq
from repro.datasets.synth import xmark_like_xml
from repro.repo import member_paths

from test_roundtrip_property import random_tree
from test_xpath_cross import DOCS
from test_xq_cross import XQ_QUERIES

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from datasets import deep_xml  # noqa: E402


# -- the oracles ---------------------------------------------------------------


def _merge_adjacent(runs):
    out = []
    for node, count in runs:
        if out and out[-1][0] == node:
            out[-1] = (node, out[-1][1] + count)
        else:
            out.append((node, count))
    return out


def ref_node_count(store, nid, memo):
    """Decompressed subtree size, by an explicit-stack walk."""
    stack = [nid]
    while stack:
        cur = stack[-1]
        if cur in memo:
            stack.pop()
            continue
        missing = [c for c, _ in store.children(cur) if c not in memo]
        if missing:
            stack.extend(missing)
            continue
        memo[cur] = 1 + sum(k * memo[c] for c, k in store.children(cur))
        stack.pop()
    return memo[nid]


def ref_occ_column(store, relpath):
    """``occ(n, relpath)`` for every node: a per-node loop per suffix."""
    n = len(store)
    sub = [1] * n
    for k in range(len(relpath) - 1, -1, -1):
        head = relpath[k]
        sub = [sum(count * sub[child] for child, count in store.children(nid)
                   if store.label(child) == head) for nid in range(n)]
    return sub


def _missing(memo, path):
    """The prefixes of ``path`` not yet in ``memo``, shortest first (none
    when no prefix of it is: a wrong root label)."""
    out = []
    while path not in memo and len(path) > 1:
        out.append(path)
        path = path[:-1]
    return out[::-1] if path in memo else []


class RefCatalog:
    """Run lists per path, the dataguide walk, local offsets and order
    keys — each a Python loop over runs, nodes or children."""

    def __init__(self, store, root):
        self.store, self.root = store, root
        root_path = (store.label(root),)
        self._runs = {root_path: [(root, 1)]}
        self._order = {root_path: [0]}
        self._sizes = {}

    def runs(self, path):
        """The run list of ``path`` (None when absent), built prefix by
        prefix: per parent run the matching child runs, merged, tiled per
        copy when they interleave with other labels."""
        store = self.store
        for prefix in _missing(self._runs, path):
            parent = self._runs[prefix[:-1]]
            if parent is None:
                self._runs[prefix] = None
                continue
            runs = []
            for node, count in parent:
                matching = _merge_adjacent(
                    [(c, k) for c, k in store.children(node)
                     if store.label(c) == prefix[-1]])
                if len(matching) == 1:
                    runs.append((matching[0][0], count * matching[0][1]))
                else:
                    for _ in range(count):
                        runs.extend(matching)
            self._runs[prefix] = _merge_adjacent(runs) or None
        return self._runs.get(path)

    def total(self, path):
        return sum(k for _, k in self.runs(path) or ())

    def guide_paths(self):
        """The frontier walk: every label path reachable from the root."""
        store = self.store
        paths = []
        frontier = {(store.label(self.root),): {self.root}}
        while frontier:
            nxt = {}
            for path, nodes in frontier.items():
                paths.append(path)
                for n in nodes:
                    for child, _ in store.children(n):
                        nxt.setdefault((*path, store.label(child)),
                                       set()).add(child)
            frontier = nxt
        return sorted(paths)

    def local_offsets(self, node, label):
        store = self.store
        out = []
        base = 1
        for child, count in store.children(node):
            size = ref_node_count(store, child, self._sizes)
            if store.label(child) == label:
                out.extend(base + j * size for j in range(count))
            base += count * size
        return out

    def order_keys(self, path):
        for prefix in _missing(self._order, path):
            pk = self._order[prefix[:-1]]
            keys = []
            pos = 0
            for node, count in self.runs(prefix[:-1]):
                loc = self.local_offsets(node, prefix[-1])
                for rank in pk[pos:pos + count]:
                    keys.extend(rank + off for off in loc)
                pos += count
            self._order[prefix] = keys
        return self._order[path]

    def extension_ranges(self, path, rel, occ):
        """``(starts, lengths)`` of every occurrence of ``path`` in the
        ordinal space of ``path + rel``: one range per copy of each run."""
        starts, lengths = [], []
        pos = 0
        for node, count in self.runs(path):
            for _ in range(count):
                starts.append(pos)
                lengths.append(occ[node])
                pos += occ[node]
        return starts, lengths

    # what the planner reads of a catalog: the guide, counted
    @property
    def guide(self):
        return Dataguide({p: self.total(p) for p in self.guide_paths()})


def _irregular_xml():
    # three identical <p> whose <b> children are two distinct skeleton
    # nodes interleaved with <c>: the b-sequence repeats per copy, and the
    # last b of one copy merges with the first b of the next
    p = "<p><b>1</b><b><x/></b><c>2</c><b>3</b></p>"
    q = "<q><b>1</b><c>2</c><b>3</b><b>4</b></q>"
    return f"<r>{p * 3}<s>{q * 2}</s>{p}<b>5</b>{q}</r>"


def _chain_xml():
    depth = sys.getrecursionlimit() + 300
    return "<a>" * depth + "x" + "</a>" * depth


CORPUS = {
    **{f"random{s}": ("tree", s) for s in range(8)},
    **{f"cross-{name}": ("xml", DOCS[name]) for name in sorted(DOCS)},
    "deep0": ("xml", deep_xml(3, 4000)),
    "deep1": ("xml", deep_xml(4, 4000, max_depth=16)),
    "xmark": ("xml", xmark_like_xml(25, seed=5)),
    "irregular": ("xml", _irregular_xml()),
    "chain": ("xml", _chain_xml()),
}


def _doc(name):
    kind, arg = CORPUS[name]
    if kind == "tree":
        return VectorizedDocument.from_tree(random_tree(random.Random(arg + 500)))
    return VectorizedDocument.from_xml(arg)


def _sample(items, n):
    """About ``n`` items, spread evenly (keeps quadratic spaces — the
    chain's (path, rel) pairs, a deep document's suffixes — affordable)."""
    step = max(1, len(items) // n)
    return items[::step]


# -- the arrays equal the oracles ----------------------------------------------


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_catalog_equals_the_walks(name):
    vdoc = _doc(name)
    store, catalog = vdoc.store, vdoc.catalog
    ref = RefCatalog(store, vdoc.root)
    paths = ref.guide_paths()
    guide = catalog.guide
    assert guide.paths == catalog.dataguide() == paths
    for path in paths:
        runs = ref.runs(path)
        idx = catalog.index(path)
        assert idx.path == path
        assert idx.run_nodes.tolist() == [n for n, _ in runs], path
        assert idx.run_counts.tolist() == [k for _, k in runs], path
        assert idx.total == guide[path] == ref.total(path), path
        assert idx.run_start.tolist() == \
            np.concatenate([[0], np.cumsum(idx.run_counts)[:-1]]).tolist()
        assert catalog.order_keys(path).tolist() == ref.order_keys(path), path
    root_label = store.label(vdoc.root)
    for absent in [("nope",), (root_label, "nope"), (*paths[-1], "nope")]:
        assert catalog.index(absent) is None
        assert absent not in guide


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_extension_ranges_equal_the_walks(name):
    vdoc = _doc(name)
    store, catalog = vdoc.store, vdoc.catalog
    ref = RefCatalog(store, vdoc.root)
    rng = random.Random(name)
    paths = catalog.dataguide()
    for path in _sample(paths, 40) if name == "chain" else paths:
        rels = [g[len(path):] for g in catalog.guide.below(path)]
        for rel in _sample(rels, 6):
            occ = store.occ_column(rel)
            want_s, want_l = ref.extension_ranges(path, rel, occ)
            starts, lengths = catalog.extension_ranges(path, None, rel)
            assert starts.tolist() == want_s and lengths.tolist() == want_l
            total = len(want_s)
            ids = np.array(sorted(rng.sample(range(total), min(total, 5))),
                           dtype=np.int64)
            starts, lengths = catalog.extension_ranges(path, ids, rel)
            assert starts.tolist() == [want_s[i] for i in ids]
            assert lengths.tolist() == [want_l[i] for i in ids]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_occ_columns_and_sizes_equal_the_walks(name):
    vdoc = _doc(name)
    store = vdoc.store
    rels = {g[d:] for g in vdoc.catalog.dataguide()
            for d in range(max(0, len(g) - 40), len(g))}
    for rel in _sample(sorted(rels), 80):
        assert store.occ_column(rel).tolist() == \
            ref_occ_column(store, rel)
    memo = {}
    assert [store.node_count(n) for n in range(len(store))] == \
        [ref_node_count(store, n, memo) for n in range(len(store))]


def test_chain_statistics_without_recursion():
    vdoc = _doc("chain")
    store = vdoc.store
    depth = len(store) - 1            # '#' plus one node per <a>
    assert store.node_count(vdoc.root) == depth + 1
    rel = ("a",) * (depth - 1) + ("#",)
    assert store.occ_column(rel)[vdoc.root] == 1


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_member_paths_are_the_walked_totals(name):
    vdoc = _doc(name)
    ref = RefCatalog(vdoc.store, vdoc.root)
    assert member_paths(vdoc) == [(p, ref.total(p)) for p in ref.guide_paths()]


class _RefDoc:
    """A document whose catalog is the oracle (what the planner reads of
    a document besides its catalog is delegated)."""

    def __init__(self, vdoc):
        self._vdoc = vdoc
        self.catalog = RefCatalog(vdoc.store, vdoc.root)

    def __getattr__(self, name):
        return getattr(self._vdoc, name)


@pytest.mark.parametrize("doc", sorted(DOCS))
def test_plans_equal_the_oracle_plans(doc):
    vdoc = VectorizedDocument.from_xml(DOCS[doc])
    ref = _RefDoc(vdoc)
    for query in XQ_QUERIES:
        gq, _ = compile_query(parse_xq(query))
        assert plan_query(gq, vdoc).explain() == \
            plan_query(gq, ref).explain(), query


def test_irregular_answers_follow_document_order():
    vdoc = _doc("irregular")
    q = "for $b in //b return <v>{$b/text()}</v>"
    assert eval_xq(vdoc, q).to_xml() == eval_xq(vdoc, q, mode="naive").to_xml()


# -- an opened document is its arrays, read -------------------------------------


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_opened_arrays_equal_the_twin(name, tmp_path, monkeypatch):
    """A saved file holds the skeleton arrays and open reads them back,
    interning nothing: the opened store's arrays and keys are its
    in-memory twin's."""
    vdoc = _doc(name)
    path = str(tmp_path / "doc.vdoc")
    vdoc.save(path)
    want = vdoc.store.skeleton()
    with monkeypatch.context() as m:
        m.setattr(NodeStore, "intern", None)   # any call raises TypeError
        disk = VectorizedDocument.open(path)
    with disk:
        got = disk.store.skeleton()
        assert got.names == want.names and got.n == want.n == len(disk.store)
        for field in ("label", "child_ptr", "child_id", "child_count",
                      "size", "offset"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert all(disk.store.label(n) == vdoc.store.label(n) and
                   disk.store.children(n) == vdoc.store.children(n)
                   for n in range(len(vdoc.store)))


def test_rebuilt_input_node_keeps_its_id_when_opened(tmp_path):
    """A template that rebuilds an input node (``<name>`` over one text
    child) finds it in the opened store's intern dict, as in memory: the
    overlay holds only the result root, and the result is the same."""
    vdoc = VectorizedDocument.from_xml(xmark_like_xml(25, seed=5))
    path = str(tmp_path / "doc.vdoc")
    vdoc.save(path)
    q = ("for $p in /site/people/person "
         "return <name>{$p/name/text()}</name>")
    name = vdoc.store.intern("name", ((vdoc.store.text_id, 1),))
    mem = eval_xq(vdoc, q)
    with VectorizedDocument.open(path) as disk:
        res = eval_xq(disk, q)
        for r in (mem, res):
            store = r.vdoc.store
            assert len(store) == len(vdoc.store) + 1 == r.vdoc.root + 1
            assert store.children(r.vdoc.root) == ((name, 25),)
        assert res.vdoc.stats() == mem.vdoc.stats()
        assert res.to_xml() == mem.to_xml()
