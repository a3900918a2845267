"""Graph reduction over extended vectors (paper §4.2) — the XQ hot path.

The query graph ``Gq`` is evaluated collection-at-a-time: the state is a
*tuple table* — per instantiated variable, a *path-id* column (an index
into the plan's ``binding.var_paths[var]``) and an occurrence-ordinal
column on that path, all of equal length; a row is one candidate binding
tuple.  The plan binds ``Gq`` to the dataguide; this module runs what it
bound and resolves nothing.  The operations reduce ``Gq`` edge by edge,
each computing the entire instantiation of a variable at once:

* **instantiate** (tree edge) — a root variable comes from one vectorized
  evaluation of the alignments of *all* its bound paths, crossed with the
  rows; a relative variable is a positional join per (parent path, own
  path) pair of the binding: ``extension_ranges`` + prefix-sum
  materialization, the other columns gathered by the expanded row ids;
* **select** (constant edge) — one vectorized comparison over the text
  vector plus a prefix-sum existential per row (XPath's predicate kernel);
* **join** (equality edge) — existential set comparison, entirely
  columnar.  For ``=`` / ``!=`` each operand vector contributes its own
  value coding (its stored dictionary, or one coding of the reached
  values), merged into one code space.  An ``=`` join runs in one of two
  modes, both on the one equi-match primitive (:func:`_equi_match`: sort
  one side's integer keys, ``searchsorted`` bounds for the other's):
  *filter* mode (both variables instantiated) matches ``row · m + code``
  keys and keeps the rows with a match; *extend* mode (the plan's
  ``PlanOp.extends``: the join instantiates a root variable) matches the
  rows' value codes against the variable's occurrences on all its paths,
  and the distinct matching ``(row, occurrence)`` pairs become the new
  rows — the product of the two variables is never built.  ``!=`` counts
  distinct values per row; the ordering operators aggregate per-row
  min/max.

Variables range over *concrete* label paths — the paper's expansion of
``//`` against the skeleton binds one variable to many.  Rows carry
their paths: an operation groups its rows by the path-id column of the
variable it touches (:func:`_group_rows`, one stable sort), so every
full-column kernel (predicate mask, prefix sum) runs at most once per
plan operation per vector, and no work is proportional to the product
of the variables' path counts.  The
:class:`~repro.core.context.EvalContext` counts those sweeps and the
engine asserts the bound.

Each touched vector is loaded through the context's per-document cache
(scanned at most once for the whole query) and the skeleton is never
decompressed.  Only at the end are the surviving rows split by their
path-id tuple into the :class:`ComboRows` the builder reads, and
globally ordered by the catalog's preorder ranks: sorting rows by the
rank of each variable (outermost first) reproduces the nested-loop
document order of the naive evaluator exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..index import merge_codings
from ..index import select_keep as vindex_select_keep
from .context import EvalContext
from .paths import no_checkpoint, ranges_to_ordinals
from .planner import Plan
from .qgraph import ConstEdge, EqEdge, QueryGraph
from .xpath.vx_eval import evaluate_aligned, exists_in, pred_prefix

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class ComboRows:
    """Surviving rows of one variable→concrete-path assignment."""

    var_paths: dict[str, tuple]      # variable -> concrete label path
    cols: dict[str, np.ndarray]      # variable -> ordinal column
    rows_global: np.ndarray          # per-row index into the global order

    def __len__(self) -> int:
        return len(self.rows_global)


@dataclass
class ReducedTable:
    """The reduced table split by variable→concrete-path assignment,
    globally ordered."""

    variables: list[str]
    combos: list[ComboRows]
    n_rows: int


def _group_rows(keys: np.ndarray, n_keys: int, checkpoint):
    """The one group-by: ``(key, rows)`` for each key in ``range(n_keys)``
    that the integer column ``keys`` holds, keys and rows ascending — one
    stable sort and one ``searchsorted``, not a sweep of the column per
    key.  Each group is a ``checkpoint``: the work a caller does per group
    is not bounded (a path's first extension builds skeleton
    statistics)."""
    order = np.argsort(keys, kind="stable")
    bounds = np.searchsorted(keys[order], np.arange(n_keys + 1)).tolist()
    for g in range(n_keys):
        if bounds[g] < bounds[g + 1]:
            checkpoint()
            yield g, order[bounds[g]:bounds[g + 1]]


def _equi_match(k1: np.ndarray, k2: np.ndarray):
    """The one equi-match: every index pair ``(i, j)`` with
    ``k1[i] == k2[j]`` — a stable sort of ``k2``, the ``searchsorted``
    bounds of each ``k1`` key, the bounds expanded into positions.  Work
    is O((len(k1) + len(k2)) log len(k2) + pairs)."""
    order = np.argsort(k2, kind="stable")
    ks = k2[order]
    lo = np.searchsorted(ks, k1, side="left")
    hits = np.searchsorted(ks, k1, side="right") - lo
    return (np.repeat(np.arange(len(k1)), hits),
            order[ranges_to_ordinals(lo, hits)])


class _Reducer:
    """One plan execution over the whole tuple table.

    Rows carry a path id per variable; every operation groups rows by the
    concrete paths of the variable(s) it touches.  Full-column sweeps
    (mask + prefix sum) are keyed by (plan operation, vector path) and
    cached, so each data vector is swept at most once per plan operation
    — the invariant ``EvalContext.check_passes`` asserts."""

    def __init__(self, vdoc, gq: QueryGraph, plan: Plan, ctx: EvalContext):
        self.vdoc = vdoc
        self.catalog = vdoc.catalog
        self.gq = gq
        self.plan = plan
        self.bound = plan.binding
        self.operands = plan.binding.operands
        self.ctx = ctx
        self.cache = ctx.cache(vdoc)
        self._cums: dict[tuple, np.ndarray] = {}

    def _groups(self, var: str, pids: np.ndarray, ords: np.ndarray):
        """``(rows, concrete path, ordinals)`` per path of ``var`` that the
        path-id column ``pids`` holds."""
        paths = self.bound.var_paths[var]
        for g, rows in _group_rows(pids, len(paths), self.ctx.checkpoint):
            yield rows, paths[g], ords[rows]

    def _occurrences(self, v: str):
        """Root variable ``v`` over all its bound paths, as ``(path ids,
        ordinals)``: one vectorized evaluation of their alignments."""
        groups = evaluate_aligned(self.vdoc,
                                  self.gq.tree_edges[v].abs_path.steps,
                                  self.bound.roots[v], self.ctx).groups
        pid = {p: i for i, p in enumerate(self.bound.var_paths[v])}
        return (np.repeat(np.array([pid[p] for p, _ in groups],
                                   dtype=np.int64),
                          [len(o) for _, o in groups]),
                np.concatenate([_EMPTY, *(o for _, o in groups)]))

    def _side(self, var: str, rel: tuple, cpath: tuple, col: np.ndarray):
        """Operand ``$var/rel`` at ``cpath`` as per-row ranges over the
        text path the plan bound: ``(qpath, starts, lengths)`` — identity
        ranges for a text-bound variable; ``None`` when no such text
        exists (∃ fails for all rows)."""
        qpath = self.operands[var, rel].get(cpath)
        if qpath is None:
            return None
        if qpath == cpath:
            return qpath, col, np.ones(len(col), dtype=np.int64)
        starts, lengths = self.catalog.extension_ranges(cpath, col, rel)
        return qpath, starts, lengths

    def _join_codes(self, parts1, parts2):
        """Row ids + *shared-space* value codes of both join sides: per
        text path the vector's own coding at the ordinals either side
        reaches (:meth:`VectorCache.value_codes`), remapped through one
        dictionary merge — all row-proportional work is integer work."""
        reached: dict[tuple, list] = {}
        for _, q, o in (*parts1, *parts2):
            reached.setdefault(q, []).append(o)
        coded = {q: self.cache.value_codes(q, np.concatenate(os))
                 for q, os in reached.items()}
        remaps, m = merge_codings([keys for keys, _ in coded.values()])
        remap = dict(zip(coded, remaps))

        def side(parts):
            rs = [r for r, _, _ in parts]
            gs = [remap[q][coded[q][1][o]] for _, q, o in parts]
            return (np.concatenate(rs) if rs else _EMPTY,
                    np.concatenate(gs) if gs else _EMPTY)

        return (*side(parts1), *side(parts2), max(m, 1))

    def _prefix(self, op_idx: int, qpath: tuple, op: str,
                value: str) -> np.ndarray:
        """The predicate's full-column sweep, once per operation."""
        key = (qpath, op, value)
        cum = self._cums.get(key)
        if cum is None:
            self.ctx.note_pass(self.vdoc, (op_idx, qpath))
            cum = self._cums[key] = pred_prefix(self.cache, qpath, op, value)
        return cum

    # -- operations --------------------------------------------------------
    # instantiate and extend return the new table as ``(rows, path ids,
    # ordinals)``: the old row each new row extends, and the new
    # variable's columns; select and join return a keep mask

    def _instantiate(self, edge, n: int, pids, cols):
        v = edge.var
        if edge.parent is None:
            pid, ords = self._occurrences(v)
            return (np.repeat(np.arange(n), len(ords)),
                    np.tile(pid, n), np.tile(ords, n))
        # relative binding: a positional join per (parent path, own path)
        p = edge.parent
        own = {q: i for i, q in enumerate(self.bound.var_paths[v])}
        parts = [(_EMPTY, _EMPTY, _EMPTY, _EMPTY)]
        paths = self.bound.var_paths[p]
        for g, rows in _group_rows(pids[p], len(paths), no_checkpoint):
            pcp = paths[g]
            for q in self.bound.rels[v][pcp]:
                # per extension: a path's first one builds skeleton
                # statistics, and a `//` binding has hundreds
                self.ctx.checkpoint()
                starts, lengths = self.catalog.extension_ranges(
                    pcp, cols[p][rows], q[len(pcp):])
                parts.append((rows, np.full(len(rows), own[q]), starts,
                              lengths))
        rows, pid, starts, lengths = (np.concatenate(c) for c in zip(*parts))
        return (np.repeat(rows, lengths), np.repeat(pid, lengths),
                ranges_to_ordinals(starts, lengths))

    def _select(self, op_idx, sel: ConstEdge, n: int, pids, cols,
                access: str = "scan"):
        keep = np.zeros(n, dtype=bool)
        v = sel.var
        for rows, cpath, ords in self._groups(v, pids[v], cols[v]):
            side = self._side(v, sel.rel, cpath, ords)
            if side is None:
                continue
            qpath, starts, lengths = side
            # no handle: scan (also when a planned index is missing)
            vi = self.cache.vindex(qpath) if access == "index" else None
            if vi is not None:
                # IndexProbe: sorted matching rows from the index, two
                # searchsorted calls per row group — no column sweep
                keep[rows] = vindex_select_keep(vi, sel.op, sel.value,
                                                starts, lengths)
                continue
            cum = self._prefix(op_idx, qpath, sel.op, sel.value)
            keep[rows] = exists_in(cum, starts, lengths)
        return keep

    def _operand(self, var: str, rel: tuple, groups):
        """One join side, given ``(ids, concrete path, ordinals)`` groups:
        one ``(expanded ids, qpath, text ordinals)`` part per group whose
        operand text exists."""
        parts = []
        for ids, cpath, ords in groups:
            side = self._side(var, rel, cpath, ords)
            if side is not None:
                qpath, s, ln = side
                parts.append((np.repeat(ids, ln), qpath,
                              ranges_to_ordinals(s, ln)))
        return parts

    def _row_operand(self, var: str, rel: tuple, pids, cols):
        """:meth:`_operand` over the table's rows, grouped by ``var``'s
        concrete path."""
        return self._operand(var, rel, self._groups(var, pids[var],
                                                    cols[var]))

    def _extend(self, join: EqEdge, v: str, pids, cols):
        """The ``=`` join that instantiates root variable ``v``: pair each
        row with the occurrences of ``v``, on any of its paths, whose
        operand shares a value with the row's.  ``v``'s operand is built
        once per concrete path, and only the distinct matching ``(row,
        occurrence)`` pairs become rows."""
        if join.var1 == v:
            u, urel, vrel = join.var2, join.rel2, join.rel1
        else:
            u, urel, vrel = join.var1, join.rel1, join.rel2
        vpid, occs = self._occurrences(v)
        parts1 = self._row_operand(u, urel, pids, cols)
        parts2 = self._operand(v, vrel, self._groups(v, vpid, occs))
        r1, g1, r2, g2, _ = self._join_codes(parts1, parts2)
        i, j = _equi_match(g1, g2)
        n_occs = max(len(occs), 1)
        pairs = np.unique(r1[i] * n_occs + r2[j])
        occ = pairs % n_occs
        return pairs // n_occs, vpid[occ], occs[occ]

    def _join(self, join: EqEdge, n: int, pids, cols):
        parts1 = self._row_operand(join.var1, join.rel1, pids, cols)
        parts2 = self._row_operand(join.var2, join.rel2, pids, cols)
        op = join.op
        if op in ("=", "!="):
            r1, g1, r2, g2, m = self._join_codes(parts1, parts2)
            k1 = r1 * m + g1
            k2 = r2 * m + g2
            if op == "=":
                keep = np.zeros(n, dtype=bool)
                keep[r1[_equi_match(k1, k2)[0]]] = True
                return keep
            # ∃ a≠b  ⟺  both sides non-empty and the union holds ≥2 values
            distinct = np.bincount(
                np.unique(np.concatenate([k1, k2])) // m, minlength=n)
            return ((np.bincount(r1, minlength=n) > 0)
                    & (np.bincount(r2, minlength=n) > 0) & (distinct >= 2))

        # ordering operators: existential reduces to min/max of the numeric
        # values per row (fmin/fmax skip NaN = non-numeric text), aggregated
        # across all concrete paths in one accumulator pair
        lo1 = op in ("<", "<=")
        a1 = np.full(n, np.inf if lo1 else -np.inf)
        a2 = np.full(n, -np.inf if lo1 else np.inf)
        num1 = np.zeros(n, dtype=bool)
        num2 = np.zeros(n, dtype=bool)
        for r, q, o in parts1:
            v = self.cache.floats(q)[o]
            (np.fmin if lo1 else np.fmax).at(a1, r, v)
            num1 |= np.bincount(r[~np.isnan(v)], minlength=n) > 0
        for r, q, o in parts2:
            v = self.cache.floats(q)[o]
            (np.fmax if lo1 else np.fmin).at(a2, r, v)
            num2 |= np.bincount(r[~np.isnan(v)], minlength=n) > 0
        if op == "<":
            keep = a1 < a2
        elif op == "<=":
            keep = a1 <= a2
        elif op == ">":
            keep = a1 > a2
        else:
            keep = a1 >= a2
        return keep & num1 & num2

    # -- the one plan execution --------------------------------------------

    def run(self):
        """``(rows, path-id columns, ordinal columns)`` of the reduced
        table; before the first operation it holds the one empty tuple."""
        n, pids, cols = 1, {}, {}
        for op_idx, op in enumerate(self.plan.ops):
            if n == 0:
                break
            self.ctx.checkpoint()   # cancellation point between plan ops
            edge = op.payload
            if op.kind == "instantiate":
                v = edge.var
                rows, pid, ords = self._instantiate(edge, n, pids, cols)
            elif op.extends is not None:
                v = op.extends
                rows, pid, ords = self._extend(edge, v, pids, cols)
            else:
                v = None
                if op.kind == "select":
                    keep = self._select(op_idx, edge, n, pids, cols,
                                        op.access)
                else:
                    keep = self._join(edge, n, pids, cols)
                rows = np.flatnonzero(keep)
            pids = {u: c[rows] for u, c in pids.items()}
            cols = {u: c[rows] for u, c in cols.items()}
            if v is not None:
                pids[v], cols[v] = pid, ords
            n = len(rows)
        return n, pids, cols

    def table(self, n: int, pids, cols) -> ReducedTable:
        """The surviving rows split by their path-id tuple (one lexsort)
        into :class:`ComboRows`, in global nested-loop document order:
        lexicographic by the preorder rank of each variable's binding,
        outermost variable first.  Ranks are unique per node, so the
        order is total; they are gathered once per (variable, path)."""
        variables = self.gq.variables
        combos: list[ComboRows] = []
        if n:
            keys = []
            for v in variables:
                key = np.empty(n, dtype=np.int64)
                for rows, cpath, ords in self._groups(v, pids[v], cols[v]):
                    key[rows] = self.catalog.order_keys(cpath)[ords]
                keys.append(key)
            rank = np.empty(n, dtype=np.int64)
            rank[np.lexsort(keys[::-1])] = np.arange(n, dtype=np.int64)
            order = np.lexsort([pids[v] for v in reversed(variables)])
            ids = np.stack([pids[v][order] for v in variables])
            cuts = np.flatnonzero((ids[:, 1:] != ids[:, :-1]).any(axis=0))
            bounds = [0, *(cuts + 1).tolist(), n]
            for lo, hi in zip(bounds, bounds[1:]):
                self.ctx.checkpoint()
                rows = order[lo:hi]
                combos.append(ComboRows(
                    {v: self.bound.var_paths[v][ids[k, lo]]
                     for k, v in enumerate(variables)},
                    {v: cols[v][rows] for v in variables}, rank[rows]))
        return ReducedTable(list(variables), combos, n)


def reduce_query(vdoc, gq: QueryGraph, plan: Plan,
                 ctx: EvalContext) -> ReducedTable:
    """Reduce ``Gq`` to its binding-tuple table, globally ordered."""
    reducer = _Reducer(vdoc, gq, plan, ctx)
    return reducer.table(*reducer.run())
