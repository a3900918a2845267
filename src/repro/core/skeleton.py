"""Compressed skeleton: a hash-consed DAG with run-length edges (paper §2.2).

A skeleton node is ``(label, children)`` where ``children`` is a tuple of
``(child_id, count)`` runs — maximal runs of consecutive identical children
collapsed into one edge annotated with a multiplicity, exactly the paper's
``#[3]`` notation.  Identical subtrees are interned to a single id
("folkloric hash-consing"), so the skeleton of a regular document is
exponentially smaller than the tree it represents.

The text marker is the unique node with label ``#`` and no children;
attributes appear as ``@name`` nodes whose single child is the text marker.

A store is written only while its document is built; a query's result
interns into an *overlay* store over the input's (paper §4.3), so the input
store never changes and readers take no lock.

The store also exposes the skeleton as arrays (:class:`Skeleton`, CSR
child runs), built once on first use or loaded as a file holds them.
``occ(node, relative-label-path)`` — the occurrences of a label path
under *one* instance of a node, shared by a run's occurrences — is one
masked segment sum over the CSR edges per suffix, for every node at once
(:meth:`NodeStore.occ_column`).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

TEXT_LABEL = "#"

Runs = tuple  # tuple[(child_id, count), ...]


def collapse_runs(child_ids: list[int]) -> Runs:
    """Collapse consecutive identical child ids into (id, count) runs."""
    runs: list[tuple[int, int]] = []
    for cid in child_ids:
        if runs and runs[-1][0] == cid:
            runs[-1] = (cid, runs[-1][1] + 1)
        else:
            runs.append((cid, 1))
    return tuple(runs)


def segment_sums(ptr: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-node sums of the edge weights ``w``, node ``i`` owning edges
    ``ptr[i]:ptr[i + 1]`` (``ptr`` indexes ``w``; exact in int64)."""
    cs = np.zeros(len(w) + 1, dtype=np.int64)
    np.cumsum(w, out=cs[1:])
    return cs[ptr[1:]] - cs[ptr[:-1]]


class Skeleton:
    """A store's nodes as arrays, never mutated.  Node ``i`` is labelled
    ``names[label[i]]``; its runs are ``child_id`` and ``child_count`` at
    ``child_ptr[i]:child_ptr[i + 1]``, its subtree size ``size[i]``;
    ``offset`` is a run's preorder offset in its parent (``1 +`` the
    ``count * size`` before it)."""

    __slots__ = ("n", "names", "label", "child_ptr", "child_id",
                 "child_count", "size", "offset")

    def __init__(self, names, label, child_ptr, child_id, child_count,
                 size, offset):
        self.n = len(label)
        self.names = names
        self.label = label
        self.child_ptr = child_ptr
        self.child_id = child_id
        self.child_count = child_count
        self.size = size
        self.offset = offset

    def extend(self, names: tuple, label, ptr, cid, cnt) -> "Skeleton":
        """This view plus the nodes whose label ids (into ``names``, which
        extends ``self.names``) are ``label`` and whose runs are ``cid``
        and ``cnt`` at their own ``ptr[i]:ptr[i + 1]``.  New sizes settle
        by relaxation: pass ``h`` fixes the new nodes of height ``h``.  A
        node standing for more than ``2**62`` nodes raises
        :class:`OverflowError` (only a crafted count can ask for one), so
        no size, count or offset derived from a view wraps."""
        deg = np.diff(ptr)
        size = np.concatenate([self.size, np.ones(len(label), np.int64)])
        while not np.array_equal(
                new := 1 + segment_sums(ptr, cnt * size[cid]), size[self.n:]):
            size[self.n:] = new
        # int64 wraps silently, but the lowest node that overflows has
        # children that do not, and their float sum exposes it
        over = np.flatnonzero(1 + np.bincount(
            np.repeat(np.arange(len(label)), deg),
            cnt * size[cid].astype(float), len(label)) > 2.0 ** 62)
        if len(over):
            raise OverflowError(f"skeleton node {self.n + int(over[0])} "
                                f"stands for more than 2**62 nodes")
        before = np.zeros(len(cid) + 1, dtype=np.int64)
        np.cumsum(cnt * size[cid], out=before[1:])
        offset = 1 + before[:-1] - np.repeat(before[ptr[:-1]], deg)
        return Skeleton(
            tuple(names), np.concatenate([self.label, label]),
            np.concatenate([self.child_ptr, self.child_ptr[-1] + ptr[1:]]),
            np.concatenate([self.child_id, cid]),
            np.concatenate([self.child_count, cnt]), size,
            np.concatenate([self.offset, offset]))


_EMPTY = Skeleton((), np.empty(0, np.int32), np.zeros(1, np.int64),
                  *[np.empty(0, np.int64)] * 4)


class NodeStore:
    """Interning store for skeleton nodes.

    Ids are dense ints; node 0 is always the text marker ``#``.  A store is
    complete before its :meth:`skeleton` is first read and never written
    after.  An overlay ``NodeStore(base)`` holds a query result's nodes:
    its ids start at ``len(base)``, its runs may point into the base, and
    a node already in the base keeps its base id.
    """

    def __init__(self, base: NodeStore | None = None) -> None:
        self.base = base
        self._start = 0 if base is None else len(base)
        #: node ``_start + i`` is ``_keys[i]``, a ``(label, runs)`` key of
        #: ``_intern``; a root store starts with the text marker, node 0
        self._keys = [(TEXT_LABEL, ())] if base is None else []
        self._intern = dict.fromkeys(self._keys, 0)
        self._occ_cols: dict[tuple[str, ...], np.ndarray] = {}
        self._skel: Skeleton | None = None
        self.text_id = 0

    @classmethod
    def load(cls, names: tuple, label, ptr, cid, cnt) -> NodeStore:
        """The frozen store whose arrays are these (as
        :meth:`Skeleton.extend` takes them; child ids below their parent's,
        node 0 the text marker).  Raises :class:`ValueError` for a node
        stored twice and :class:`OverflowError` as ``extend`` does."""
        store = cls()
        store._skel = _EMPTY.extend(names, label, ptr, cid, cnt)
        runs, at = list(zip(cid.tolist(), cnt.tolist())), ptr.tolist()
        keys = store._keys = [(names[x], tuple(runs[lo:hi])) for x, lo, hi
                              in zip(label.tolist(), at, at[1:])]
        ids = store._intern = dict(zip(keys, range(len(keys))))
        if len(ids) < len(keys):
            nid = next(i for i, key in enumerate(keys) if ids[key] != i)
            raise ValueError(f"skeleton node {ids[keys[nid]]} is stored "
                             f"twice (first as node {nid})")
        return store

    # -- construction -----------------------------------------------------

    def _lookup(self, key: tuple[str, Runs]) -> int | None:
        nid = self._intern.get(key)
        if nid is None and self.base is not None:
            return self.base._lookup(key)
        return nid

    def intern(self, label: str, children: Runs) -> int:
        """Intern ``(label, children)``: a node of this store or of its
        (frozen) bases keeps its id, so each node is in one store only."""
        key = (label, children)
        nid = self._lookup(key)
        if nid is None:
            assert self._skel is None, "a read store is frozen"
            nid = self._intern[key] = len(self)
            self._keys.append(key)
        return nid

    def intern_list(self, label: str, child_ids: list[int]) -> int:
        return self.intern(label, collapse_runs(child_ids))

    # -- accessors --------------------------------------------------------

    def label(self, nid: int) -> str:
        if nid < self._start:
            return self.base.label(nid)
        return self._keys[nid - self._start][0]

    def children(self, nid: int) -> Runs:
        if nid < self._start:
            return self.base.children(nid)
        return self._keys[nid - self._start][1]

    def __len__(self) -> int:
        """Total nodes, the base's included."""
        return self._start + len(self._keys)

    def skeleton(self) -> Skeleton:
        """The array view of every node (built on first use unless loaded):
        an overlay's is its base's extended by its own nodes."""
        if self._skel is None:
            base = _EMPTY if self.base is None else self.base.skeleton()
            ids = dict(zip(base.names, range(len(base.names))))
            label = np.array([ids.setdefault(x, len(ids))
                              for x, _ in self._keys], np.int32)
            runs = [r for _, r in self._keys]
            ptr = np.cumsum([0, *map(len, runs)], dtype=np.int64)
            flat = np.fromiter(chain.from_iterable(chain.from_iterable(runs)),
                               np.int64).reshape(-1, 2)
            self._skel = base.extend(tuple(ids), label, ptr,
                                     flat[:, 0], flat[:, 1])
        return self._skel

    # -- statistics -------------------------------------------------------

    def occ_column(self, relpath: tuple[str, ...]) -> np.ndarray:
        """Bulk statistics: ``occ(n, relpath)`` for every node, as one int64
        column indexed by node id — per suffix (shortest first), the
        segment sum of ``count * previous column[child]`` over the CSR
        edges whose child carries the suffix's head label.  Columns are
        cached per suffix, so a document pays O(edges * |relpath|) once."""
        skel = self.skeleton()
        sub = np.ones(skel.n, dtype=np.int64)  # occ of the empty suffix
        for k in range(len(relpath) - 1, -1, -1):
            col = self._occ_cols.get(relpath[k:])
            if col is None:
                head = relpath[k]
                lab = skel.names.index(head) if head in skel.names else -1
                w = skel.child_count * sub[skel.child_id]
                w[skel.label[skel.child_id] != lab] = 0
                col = self._occ_cols[relpath[k:]] = \
                    segment_sums(skel.child_ptr, w)
            sub = col
        return sub

    def occ(self, nid: int, relpath: tuple[str, ...]) -> int:
        """Occurrences of ``relpath`` under one instance of ``nid``.

        ``occ(n, ())`` is 1; ``occ(n, (l, *rest))`` sums ``count *
        occ(child, rest)`` over child runs labelled ``l``.  Backed by the
        bulk columns of :meth:`occ_column`.
        """
        return int(self.occ_column(relpath)[nid])

    def node_count(self, nid: int) -> int:
        """Size of the *decompressed* tree rooted at ``nid``."""
        return int(self.skeleton().size[nid])

    def reachable(self, root: int) -> set[int]:
        """Skeleton node ids reachable from ``root`` (DAG nodes, not tree)."""
        seen: set[int] = set()
        stack = [root]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(c for c, _ in self.children(cur) if c not in seen)
        return seen
