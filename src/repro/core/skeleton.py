"""Compressed skeleton: a hash-consed DAG with run-length edges (paper §2.2).

A skeleton node is ``(label, children)`` where ``children`` is a tuple of
``(child_id, count)`` runs — maximal runs of consecutive identical children
collapsed into one edge annotated with a multiplicity, exactly the paper's
``#[3]`` notation.  Identical subtrees are interned to a single id
("folkloric hash-consing"), so the skeleton of a regular document is
exponentially smaller than the tree it represents.

The text marker is the unique node with label ``#`` and no children;
attributes appear as ``@name`` nodes whose single child is the text marker.

Per-node statistics ``occ(node, relative-label-path)`` — the number of
occurrences of a label path under *one* instance of the node — are the
basis of the run-length position algebra in :mod:`repro.core.paths`: all
occurrences in a run share a skeleton node and therefore share these
statistics, which is what makes position maps arithmetic progressions.
They are computed by :meth:`NodeStore.occ_column` as bulk passes over the
whole store in topological order (node ids are already topological: a
child is always interned before its parents), one numpy column per path
suffix — no recursion, so arbitrarily long relative paths are safe, and
the planner gets the statistics of *every* node for the cost of one.
"""

from __future__ import annotations

import threading

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


class NodeStore:
    """Interning store for skeleton nodes.

    Ids are dense ints; node 0 is always the text marker ``#``.  The store is
    append-only and may be shared between documents (input and output of a
    query share one store so result construction can reuse subtree ids).
    """

    def __init__(self) -> None:
        self._labels: list[str] = []
        self._children: list[Runs] = []
        self._intern: dict[tuple[str, Runs], int] = {}
        self._occ_cols: dict[tuple[str, ...], np.ndarray] = {}
        self._size_memo: dict[int, int] = {}
        self._intern_lock = threading.Lock()
        self.text_id = self.intern(TEXT_LABEL, ())

    # -- construction -----------------------------------------------------

    def intern(self, label: str, children: Runs) -> int:
        """Intern ``(label, children)``; safe under concurrent result
        construction (a repository member's store is shared by every
        request evaluating it).  The fast path is a lock-free dict hit; a
        miss appends under the lock, ``_children`` before ``_labels`` and
        the intern entry last, so lock-free readers iterating up to
        ``len(self._labels)`` never see a node whose children are missing.
        """
        key = (label, children)
        nid = self._intern.get(key)
        if nid is None:
            with self._intern_lock:
                nid = self._intern.get(key)
                if nid is None:
                    nid = len(self._labels)
                    self._children.append(children)
                    self._labels.append(label)
                    self._intern[key] = nid
        return nid

    def intern_list(self, label: str, child_ids: list[int]) -> int:
        return self.intern(label, collapse_runs(child_ids))

    # -- accessors --------------------------------------------------------

    def label(self, nid: int) -> str:
        return self._labels[nid]

    def children(self, nid: int) -> Runs:
        return self._children[nid]

    def __len__(self) -> int:
        """Total interned nodes (across all documents sharing the store)."""
        return len(self._labels)

    # -- statistics -------------------------------------------------------

    def occ_column(self, relpath: tuple[str, ...]) -> np.ndarray:
        """Bulk statistics: ``occ(n, relpath)`` for *every* interned node,
        as one int64 column indexed by node id.

        Computed iteratively, suffix by suffix (shortest first), each level
        one pass over the store in id order — which *is* topological order,
        because the store is append-only and children are interned before
        their parents.  Columns are cached per suffix and extended
        incrementally when new nodes are interned later (e.g. by result
        construction), so the total cost stays O(|S| * |relpath|).
        """
        n = len(self._labels)
        if not relpath:
            return np.ones(n, dtype=np.int64)
        children = self._children
        labels = self._labels
        sub = np.ones(n, dtype=np.int64)  # occ of the empty suffix
        for k in range(len(relpath) - 1, -1, -1):
            suffix = relpath[k:]
            col = self._occ_cols.get(suffix)
            if col is not None and len(col) == n:
                sub = col
                continue
            start = 0 if col is None else len(col)
            head = relpath[k]
            out = np.empty(n, dtype=np.int64)
            if start:
                out[:start] = col
            for nid in range(start, n):
                total = 0
                for child, count in children[nid]:
                    if labels[child] == head:
                        total += count * int(sub[child])
                out[nid] = total
            self._occ_cols[suffix] = out
            sub = out
        return sub

    def occ(self, nid: int, relpath: tuple[str, ...]) -> int:
        """Occurrences of ``relpath`` under one instance of ``nid``.

        ``occ(n, ())`` is 1; ``occ(n, (l, *rest))`` sums ``count *
        occ(child, rest)`` over child runs labelled ``l``.  Backed by the
        bulk columns of :meth:`occ_column`.
        """
        if not relpath:
            return 1
        return int(self.occ_column(relpath)[nid])

    def node_count(self, nid: int) -> int:
        """Size of the *decompressed* tree rooted at ``nid`` (iterative)."""
        memo = self._size_memo
        if nid in memo:
            return memo[nid]
        stack = [nid]
        while stack:
            cur = stack[-1]
            if cur in memo:
                stack.pop()
                continue
            missing = [c for c, _ in self._children[cur] if c not in memo]
            if missing:
                stack.extend(missing)
                continue
            memo[cur] = 1 + sum(k * memo[c] for c, k in self._children[cur])
            stack.pop()
        return memo[nid]

    def reachable(self, root: int) -> set[int]:
        """Skeleton node ids reachable from ``root`` (DAG nodes, not tree)."""
        seen: set[int] = set()
        stack = [root]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(c for c, _ in self._children[cur] if c not in seen)
        return seen

    def edge_count(self, root: int) -> int:
        """Run-length edges among nodes reachable from ``root``."""
        return sum(len(self._children[n]) for n in self.reachable(root))
