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

Everything here is columnar — ordinal sets are int64 arrays, range maps
(starts, lengths) pairs — and the catalog is one level-synchronous pass
over the skeleton's CSR arrays: a fixed number of array operations per
depth, no Python loop per run, node or child.

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
    """Run-length occurrence index of one root label path: its runs
    ``(skeleton node, count)`` in document order, as arrays."""

    __slots__ = ("path", "run_nodes", "run_counts", "run_start", "total")

    def __init__(self, path: tuple, run_nodes: np.ndarray,
                 run_counts: np.ndarray):
        self.path = path
        self.run_nodes = run_nodes  # skeleton node ids, document order
        self.run_counts = run_counts
        self.total = int(run_counts.sum())
        self.run_start = np.cumsum(run_counts) - run_counts  # first ordinals

    def all_ordinals(self) -> np.ndarray:
        return np.arange(self.total, dtype=np.int64)

    def run_of(self, ids: np.ndarray) -> np.ndarray:
        """Run index of each ordinal (ids need not be sorted)."""
        return np.searchsorted(self.run_start, ids, side="right") - 1


def _starts(*cols: np.ndarray) -> np.ndarray:
    """Rows where any of the (non-empty) columns differs from the row
    before; the first row always counts."""
    diff = np.logical_or.reduce([col[1:] != col[:-1] for col in cols])
    return np.flatnonzero(np.concatenate([[True], diff]))


def _tile(width: np.ndarray, reps: np.ndarray):
    """Segment ``i`` of ``width[i]`` items written out ``reps[i]`` times
    in a row, all segments at once: per output position its segment, its
    item within the segment and its copy number."""
    tot = width * reps
    seg = np.repeat(np.arange(len(tot)), tot)
    t = np.arange(len(seg)) - np.repeat(np.cumsum(tot) - tot, tot)
    return seg, t % width[seg], t // width[seg]


class PathsCatalog:
    """Every label path of one document with its run-length occurrences
    (built at construction), plus lazily computed document order and
    extension statistics — the positional join :meth:`extension_ranges`,
    an arithmetic progression per *run*."""

    def __init__(self, store: NodeStore, root: int):
        self.store = store
        self.root = root
        self.skel = store.skeleton()
        self._idx: dict[tuple, PathIndex] = {}
        self._ext: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._order: dict[int, np.ndarray] = {0: np.zeros(1, np.int64)}
        self._guide: Dataguide | None = None
        self._level_pass()

    def _level_pass(self) -> None:
        """All paths, one depth at a time, from the frontier of that
        depth's runs as ``(path, node, count)`` arrays: one CSR gather,
        a stable sort by (parent path, child label) — one child path per
        group, numbered in sorted order — a run's group sequence tiled
        over its count where it interleaves with other labels (else the
        count multiplies), and a diff mask merging equal neighbours."""
        skel, root, names = self.skel, self.root, self.skel.names
        nl = len(names)
        rank = np.empty(nl, dtype=np.int64)
        rank[sorted(range(nl), key=names.__getitem__)] = np.arange(nl)
        level = [(names[skel.label[root]],)]
        paths, parent, totals = list(level), [-1], [1]
        fr_pid = np.zeros(1, np.int64)
        fr_node = np.array([root])
        fr_count = np.ones(1, np.int64)
        # per depth: its runs (node, count), and the edges gathered for
        # its paths with the parent run of each (for order_keys)
        levels = [(fr_node, fr_count, fr_node[:0], fr_node[:0])]
        run_ptr, sel_ptr = [0, 1], [0, 0]
        while True:
            lo = skel.child_ptr[fr_node]
            deg = skel.child_ptr[fr_node + 1] - lo
            edge = ranges_to_ordinals(lo, deg)
            if not len(edge):
                break
            run = np.repeat(np.arange(len(fr_node)), deg)
            key = fr_pid[run] * nl + rank[skel.label[skel.child_id[edge]]]
            order = np.argsort(key, kind="stable")
            key, run, edge = key[order], run[order], edge[order]
            base = run_ptr[-1]
            sel_base = sel_ptr[-1]
            sel_ptr += (sel_base + _starts(key)).tolist()[1:] + [sel_base + len(edge)]
            seg = _starts(key, run)
            width = np.add.reduceat(np.ones(len(key), np.int64), seg)
            copies = fr_count[run[seg]]
            if (single := width == 1).all():
                child = skel.child_id[edge]
                count = skel.child_count[edge] * copies
            else:
                s, item, _ = _tile(width, np.where(single, 1, copies))
                tiled = edge[seg[s] + item]
                key, child = key[seg[s] + item], skel.child_id[tiled]
                count = skel.child_count[tiled] * np.where(single, copies, 1)[s]
            cut = _starts(key, child)
            key, child = key[cut], child[cut]
            count = np.add.reduceat(count, cut)
            groups = _starts(key)
            ppid = (key[groups] // nl).tolist()
            first = len(paths) - len(level)
            level = [(*level[p], names[lab]) for p, lab in
                     zip(ppid, skel.label[child[groups]].tolist())]
            paths += level
            parent += [first + p for p in ppid]
            totals += np.add.reduceat(count, groups).tolist()
            run_ptr += (base + groups[1:]).tolist() + [base + len(child)]
            levels.append((child, count, edge, run + base - len(fr_node)))
            fr_pid = np.searchsorted(groups, np.arange(len(child)), "right") - 1
            fr_node, fr_count = child, count
        self._paths = paths
        self._parent = parent
        self._totals = totals
        self._pid = dict(zip(paths, range(len(paths))))
        self._run_ptr = run_ptr
        self._sel_ptr = sel_ptr
        self._run_node, self._run_count, self._edges, self._edge_runs = \
            map(np.concatenate, zip(*levels))

    def totals(self) -> dict[tuple, int]:
        """Every label path's total occurrences, in the pass's order."""
        return dict(zip(self._paths, self._totals))

    @property
    def guide(self) -> Dataguide:
        """The document's :class:`Dataguide`, counted (``guide[path]`` is
        the path's total) — sorted on first use, which an open that only
        checks or exports the document never makes."""
        if self._guide is None:
            self._guide = Dataguide(dict(sorted(self.totals().items())))
        return self._guide

    def index(self, path: tuple) -> PathIndex | None:
        """The run-length index of ``path`` (None if the path is absent),
        materialized from its slice of the run arrays."""
        idx = self._idx.get(path)
        if idx is None and (pid := self._pid.get(path)) is not None:
            lo, hi = self._run_ptr[pid], self._run_ptr[pid + 1]
            idx = self._idx[path] = PathIndex(
                path, self._run_node[lo:hi], self._run_count[lo:hi])
        return idx

    def dataguide(self) -> list[tuple]:
        """All distinct root label paths, lexicographically sorted."""
        return self.guide.paths

    def order_keys(self, path: tuple) -> np.ndarray:
        """Global preorder rank of every occurrence of ``path``.

        The position in a preorder walk of the *decompressed* document
        (attributes first, as XPath sees them), computed on the skeleton:
        the parent's rank plus the local offset ``offset + copy * size``
        of the child's run, one gather per prefix.  Ranks of *different*
        paths are comparable, which lets ``//`` and ``*`` results
        interleave in true document order without decompression."""
        todo = [self._pid[path]]
        while todo[-1] not in self._order:
            todo.append(self._parent[todo[-1]])
        skel = self.skel
        for pid in reversed(todo[:-1]):
            q = self._parent[pid]
            pidx = self.index(self._paths[q])
            lo, hi = self._sel_ptr[pid], self._sel_ptr[pid + 1]
            edge = self._edges[lo:hi]
            k = skel.child_count[edge]
            e, _, copy = _tile(np.ones_like(k), k)   # every copy of a run
            loc = skel.offset[edge][e] + copy * skel.size[skel.child_id[edge]][e]
            run = self._edge_runs[lo:hi] - self._run_ptr[q]
            first = _starts(run)
            run, width = run[first], np.add.reduceat(k, first)
            # per parent occurrence (copy-major): its rank + its run's offsets
            r, item, copy = _tile(width, pidx.run_counts[run])
            self._order[pid] = self._order[q][pidx.run_start[run][r] + copy] \
                + loc[(np.cumsum(width) - width)[r] + item]
        return self._order[todo[0]]

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
