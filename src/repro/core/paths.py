"""Run-length position algebra over compressed skeletons.

For a root label path ``p``, the document nodes reachable by ``p`` are
numbered 0..n-1 in document order; when ``p`` ends at ``#`` these ordinals
are exactly the offsets into ``vector(p)``.  Occurrences of ``p`` are kept
in run-length form ``(skeleton node, count)`` obtained by traversing the
*compressed* skeleton — all occurrences in a run share a skeleton node and
therefore identical subtree statistics (``occ``).  Hence the map from an
occurrence of ``p`` to its contiguous range of ``p/q`` descendants is an
arithmetic progression per run, and positional joins between a path and its
extensions cost O(runs + |instantiation| log runs) — independent of |T|.
This module is the concrete realization of "querying without decompression".

Everything here is columnar: ordinal sets are int64 numpy arrays, range
maps are (starts, lengths) column pairs, and expansion uses
``np.searchsorted`` / prefix sums / ``np.repeat`` — no per-node Python
loops on hot paths (Python iteration is over *runs* only, which is the
compressed size).

The module also owns the **dataguide** — the sorted distinct label paths —
and :class:`Dataguide` is the only place query steps (``*``, ``//``),
prefixes and membership are tested against it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from .skeleton import NodeStore


def ranges_to_ordinals(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Materialize the union of ranges ``[starts[i], starts[i]+lengths[i])``.

    Classic prefix-sum expansion: O(total output), fully vectorized.
    For sorted, disjoint input ranges the output is sorted.
    """
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends_local = np.cumsum(lengths)
    first_local = ends_local - lengths
    return np.repeat(starts - first_local, lengths) + np.arange(total, dtype=np.int64)


def _alignments(tests: list[tuple], cpath: tuple) -> list[tuple]:
    """All ways the query steps — compiled to ``(child axis?, label
    predicate)`` pairs — can align with a concrete label path so the last
    step lands on the path's last position."""
    out: list[tuple] = []
    _align(tests, cpath, 0, 0, (), out)
    return out


def _align(tests: list[tuple], cpath: tuple, si: int, pos: int, acc: tuple,
           out: list[tuple]) -> None:
    """Place step ``si`` at or after ``pos``.  A module-level function, not
    a closure over ``out``: a recursive closure refers to itself, so every
    call would leave a reference cycle for the garbage collector — one per
    candidate path per query."""
    child, matches = tests[si]
    end = len(cpath) - 1
    if si == len(tests) - 1:
        # the last step lands on the last position or nowhere
        if (pos == end if child else pos <= end) and matches(cpath[end]):
            out.append((*acc, end))
        return
    for p in ((pos,) if child else range(pos, end)):
        if p < end and matches(cpath[p]):
            _align(tests, cpath, si + 1, p + 1, (*acc, p), out)


def _span(paths, prefix: tuple) -> tuple[int, int]:
    """Slice bounds of the proper extensions of ``prefix`` in sorted
    ``paths`` — contiguous, because any other path above ``prefix``
    differs from it *inside* the prefix and so sorts after all of them."""
    k = len(prefix)
    lo = bisect_right(paths, prefix)
    return lo, bisect_left(paths, True, lo, key=lambda p: p[:k] != prefix)


def no_checkpoint() -> None:
    """The checkpoint of a resolution no query owns (a caller that passes
    none): it never expires."""


class Dataguide:
    """The distinct root label paths of one document, sorted — built once
    per path list and consulted by every evaluator, the planner, the
    builder and repository pruning.  It is an index of its input, not a
    cache: nothing to bound or invalidate.

    ``paths`` is a sorted list (a document's catalog) or a ``{path:
    count}`` dict in sorted key order (a repository member's manifest
    entry).  Besides the list the guide holds a membership map (``path in
    guide``; ``guide[path]`` is the count) and a **final-label bucket**:
    per label, the sorted sub-list of the paths ending in it — the only
    paths a step sequence ending in that label can land on.  A ``base``
    prefix narrows a lookup to its contiguous range of a sorted list (the
    whole list or one bucket) by bisection."""

    __slots__ = ("paths", "_count", "_by_last")

    def __init__(self, paths):
        prev = None
        by_last: dict[str, list[tuple]] = {}
        for p in paths:
            # strict order is what makes the bisect ranges right
            if not p or (prev is not None and p <= prev):
                raise ValueError(
                    f"label path {p!r} is empty, duplicated or out of order")
            prev = p
            by_last.setdefault(p[-1], []).append(p)
        self.paths = list(paths)
        self._count = paths if isinstance(paths, dict) \
            else dict.fromkeys(paths)
        self._by_last = by_last

    @classmethod
    def of(cls, guide) -> "Dataguide":
        """``guide`` itself, or one built from what the constructor takes."""
        return guide if isinstance(guide, cls) else cls(guide)

    def __contains__(self, path: tuple) -> bool:
        return path in self._count

    def __getitem__(self, path: tuple):
        return self._count[path]

    def below(self, prefix: tuple) -> list[tuple]:
        """Every path properly extending ``prefix`` (all of them, for the
        empty prefix), sorted."""
        lo, hi = _span(self.paths, prefix)
        return self.paths[lo:hi]

    def resolve(self, steps: tuple, base: tuple = (),
                checkpoint=no_checkpoint) -> list[tuple]:
        """Expand ``*`` and ``//``: the paths below ``base`` (everything,
        for the empty base) whose remainder the query ``steps`` align
        with, sorted, as ``(path, alignments)`` — an alignment is one
        position in the remainder per step.  The matcher sees only the
        final-label bucket of the last step (every path for ``*``), and
        ``checkpoint`` is called once per path it sees."""
        # not at module level: xpath/__init__ imports vx_eval, which
        # imports this module
        from .xpath.ast import CHILD

        tests = [(s.axis == CHILD, s.matches) for s in steps]
        last = steps[-1].test
        cands = self.paths if last == "*" else self._by_last.get(last, [])
        lo, hi = _span(cands, base)
        k = len(base)
        out: list[tuple] = []
        for p in cands[lo:hi]:
            checkpoint()
            aligns = _alignments(tests, p[k:])
            if aligns:
                out.append((p, aligns))
        return out


class PathIndex:
    """Run-length occurrence index of one root label path."""

    __slots__ = ("path", "runs", "run_nodes", "run_counts", "run_start", "total")

    def __init__(self, path: tuple, runs: list[tuple[int, int]]):
        self.path = path
        self.runs = runs  # [(skeleton node id, count), ...] document order
        self.run_nodes = np.fromiter((r[0] for r in runs), dtype=np.int64,
                                     count=len(runs))
        self.run_counts = np.fromiter((r[1] for r in runs), dtype=np.int64,
                                      count=len(runs))
        cum = np.cumsum(self.run_counts)
        self.total = int(cum[-1]) if len(runs) else 0
        self.run_start = cum - self.run_counts  # first ordinal of each run

    def all_ordinals(self) -> np.ndarray:
        return np.arange(self.total, dtype=np.int64)

    def run_of(self, ids: np.ndarray) -> np.ndarray:
        """Run index of each ordinal (ids need not be sorted)."""
        return np.searchsorted(self.run_start, ids, side="right") - 1


def _merge_adjacent(runs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for node, count in runs:
        if out and out[-1][0] == node:
            out[-1] = (node, out[-1][1] + count)
        else:
            out.append((node, count))
    return out


class PathsCatalog:
    """Lazily built PathIndex per label path, plus extension statistics.

    ``extension_ranges(path, ids, rel)`` is the workhorse positional join:
    given occurrence ordinals of ``path``, return per-occurrence contiguous
    ranges in the ordinal space of ``path + rel``, computed per *run* as an
    arithmetic progression.
    """

    def __init__(self, store: NodeStore, root: int):
        self.store = store
        self.root = root
        root_path = (store.label(root),)
        self._idx: dict[tuple, PathIndex | None] = {
            root_path: PathIndex(root_path, [(root, 1)])
        }
        self._ext: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._guide: Dataguide | None = None
        self._order: dict[tuple, np.ndarray] = {
            root_path: np.zeros(1, dtype=np.int64)
        }
        self._loc: dict[tuple[int, str], np.ndarray] = {}

    # -- index construction ----------------------------------------------

    def index(self, path: tuple) -> PathIndex | None:
        """The run-length index of ``path`` (None if the path is absent)."""
        if path in self._idx:
            return self._idx[path]
        if len(path) <= 1:  # wrong root label
            self._idx[path] = None
            return None
        parent = self.index(path[:-1])
        if parent is None:
            self._idx[path] = None
            return None
        store = self.store
        label = path[-1]
        runs: list[tuple[int, int]] = []
        for node, count in parent.runs:
            matching = _merge_adjacent(
                [(c, k) for c, k in store.children(node) if store.label(c) == label]
            )
            if not matching:
                continue
            if len(matching) == 1:
                # The common, regular case: c copies of a single child run
                # collapse into one run — the index stays compressed.
                child, k = matching[0]
                runs.append((child, count * k))
            else:
                # Irregular interleaving (e.g. a<b/><c/><b/>): document
                # order forces the child-run sequence to repeat per copy.
                for _ in range(count):
                    runs.extend(matching)
        runs = _merge_adjacent(runs)
        idx = PathIndex(path, runs) if runs else None
        self._idx[path] = idx
        return idx

    # -- dataguide --------------------------------------------------------

    @property
    def guide(self) -> Dataguide:
        """The document's :class:`Dataguide` (elements, ``@`` attribute
        nodes and ``#`` text), walked off the skeleton once."""
        if self._guide is None:
            store = self.store
            paths: list[tuple] = []
            frontier: dict[tuple, set[int]] = {
                (store.label(self.root),): {self.root}}
            while frontier:
                nxt: dict[tuple, set[int]] = {}
                for path, nodes in frontier.items():
                    paths.append(path)
                    for n in nodes:
                        for child, _ in store.children(n):
                            cpath = (*path, store.label(child))
                            nxt.setdefault(cpath, set()).add(child)
                frontier = nxt
            paths.sort()
            self._guide = Dataguide(paths)
        return self._guide

    def dataguide(self) -> list[tuple]:
        """All distinct root label paths, lexicographically sorted."""
        return self.guide.paths

    # -- document order across paths ---------------------------------------

    def _local_offsets(self, node: int, label: str) -> np.ndarray:
        """Preorder offsets (within one instance of ``node``, whose own
        offset is 0) of its ``label``-children, in document order."""
        key = (node, label)
        cached = self._loc.get(key)
        if cached is not None:
            return cached
        store = self.store
        segs: list[np.ndarray] = []
        base = 1  # the first child starts right after the node itself
        for child, count in store.children(node):
            size = store.node_count(child)
            if store.label(child) == label:
                segs.append(base + np.arange(count, dtype=np.int64) * size)
            base += count * size
        out = (np.concatenate(segs) if segs
               else np.empty(0, dtype=np.int64))
        self._loc[key] = out
        return out

    def order_keys(self, path: tuple) -> np.ndarray:
        """Global preorder rank of every occurrence of ``path``.

        Ranks are the node's position in a preorder walk of the
        *decompressed* document (attributes first, as XPath sees them), but
        are computed entirely on the compressed skeleton: per parent run the
        child ranks are ``parent rank + local offset`` — one ``np.repeat``
        and tile per run.  Ranks of occurrences of *different* label paths
        are directly comparable, which is what lets ``//`` and ``*`` results
        be interleaved into true document order without decompression.
        """
        for depth in range(2, len(path) + 1):
            prefix = path[:depth]
            if prefix in self._order:
                continue
            pk = self._order[prefix[:-1]]
            pidx = self.index(prefix[:-1])
            assert pidx is not None, prefix
            label = prefix[-1]
            segs: list[np.ndarray] = []
            for i, (node, k) in enumerate(pidx.runs):
                loc = self._local_offsets(node, label)
                if len(loc) == 0:
                    continue
                start = int(pidx.run_start[i])
                pr = pk[start : start + k]
                segs.append((pr[:, None] + loc[None, :]).ravel())
            self._order[prefix] = (np.concatenate(segs) if segs
                                   else np.empty(0, dtype=np.int64))
        return self._order[path]

    # -- extension statistics (the position algebra) ----------------------

    def _ext_stats(self, path: tuple, rel: tuple):
        """Per-run occurrence counts of ``rel`` and per-run exclusive base
        offsets into the ordinal space of ``path + rel``."""
        key = (path, rel)
        cached = self._ext.get(key)
        if cached is not None:
            return cached
        pidx = self.index(path)
        assert pidx is not None
        # Bulk per-node statistics: one column lookup instead of per-run
        # memoized recursion.
        counts = self.store.occ_column(rel)[pidx.run_nodes]
        weighted = pidx.run_counts * counts
        base = np.cumsum(weighted) - weighted  # exclusive prefix sum
        self._ext[key] = (counts, base)
        return counts, base

    def extension_ranges(self, path: tuple, ids: np.ndarray | None, rel: tuple):
        """Contiguous descendant ranges of each occurrence in ``ids``.

        Returns ``(starts, lengths)`` into the ordinal space of
        ``path + rel``.  ``ids=None`` means *all* occurrences of ``path``
        (computed by run expansion, no searchsorted needed).
        """
        pidx = self.index(path)
        assert pidx is not None
        counts, base = self._ext_stats(path, rel)
        if ids is None:
            lengths = np.repeat(counts, pidx.run_counts)
            ends = np.cumsum(lengths)
            return ends - lengths, lengths
        runs = pidx.run_of(ids)
        lengths = counts[runs]
        starts = base[runs] + (ids - pidx.run_start[runs]) * lengths
        return starts, lengths
