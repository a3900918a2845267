"""Graph reduction over extended vectors (paper §4.2) — the XQ hot path.

The query graph ``Gq`` is evaluated collection-at-a-time: the state is a
*tuple table* — one int64 occurrence-ordinal column per instantiated
variable, all of equal length; a row is one candidate binding tuple.  The
plan binds ``Gq`` to the dataguide; this module runs what it bound and
resolves nothing.  The operations reduce ``Gq`` edge by edge:

* **instantiate** (tree edge) — root variables come from one vectorized
  evaluation of their bound alignments; relative variables are a
  positional join: ``extension_ranges`` + prefix-sum materialization,
  with the other columns replicated by ``np.repeat``;
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
  rows' ``path id · m + code`` keys against the variable's own
  occurrences, coded once per concrete path, and the distinct matching
  ``(row, occurrence)`` pairs become the new rows — the product of the
  two variables is never built.  ``!=`` counts distinct values per row;
  the ordering operators aggregate per-row min/max.

Variables range over *concrete* label paths, so a query with wildcard or
descendant bindings is a union over concrete-path *combos* — one per
assignment of variables to the plan's bound paths, exactly the paper's
expansion of ``//`` against the skeleton.  Execution is **batched**: the
plan runs *once* over the union table, with a per-row combo-id column
(``cid``) and one concrete path per (variable, combo).  Each operation
partitions its rows by the distinct concrete paths involved — not by
combo — so every full-column kernel (predicate mask, prefix sum) runs at
most once per plan operation per vector no matter how many combos the
binding yields; the :class:`~repro.core.context.EvalContext` counts
those sweeps and the engine asserts the bound.  Every partition, and the
final split of rows by combo, is one stable sort (:func:`_group_rows`):
O(rows log rows + keys) per operation, never O(keys × rows).

Each touched vector is loaded through the context's per-document cache
(scanned at most once for the whole query) and the skeleton is never
decompressed.  The final cross-combo ordering uses the catalog's global
preorder ranks: sorting rows by the rank of each variable (outermost
first) reproduces the nested-loop document order of the naive evaluator
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..index import merge_codings
from ..index import select_keep as vindex_select_keep
from .context import EvalContext
from .paths import ranges_to_ordinals
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
    """Union of all combination tables, globally ordered."""

    variables: list[str]
    combos: list[ComboRows]
    n_rows: int


def _enumerate_combos(gq: QueryGraph, vdoc, plan: Plan,
                      ctx: EvalContext) -> list[dict]:
    """All assignments ``{variable: (concrete path, ordinals or None)}``
    of the plan's bound paths, in nested-loop order.  Root variables carry
    their (already predicate-filtered) ordinals; a relative variable only
    fixes a path here — its ordinals come from positional expansion."""
    bound = plan.binding
    combos: list[dict] = [{}]
    for var in gq.variables:
        edge = gq.tree_edges[var]
        parent = edge.parent
        if parent is None:
            roots = evaluate_aligned(vdoc, edge.abs_path.steps,
                                     bound.roots[var], ctx).groups
        out: list[dict] = []
        for a in combos:
            ctx.checkpoint()   # combo enumeration can be combinatorial
            opts = roots if parent is None else \
                [(p, None) for p in bound.rels[var][a[parent][0]]]
            out.extend({**a, var: choice} for choice in opts)
        combos = out
    return combos


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


def _combo_groups(cid: np.ndarray, assigns: list[dict], checkpoint, key):
    """Partition row indices by ``key(assign)`` of their combo.

    Yields ``(rows, representative assignment)`` per distinct key with at
    least one surviving row — the reducer's unit of kernel work
    (distinct concrete paths, *not* combos), each group a
    ``checkpoint``."""
    by: dict = {}
    for ci, a in enumerate(assigns):
        by.setdefault(key(a), []).append(ci)
    gid = np.empty(len(assigns), dtype=np.int64)
    reps = []
    for g, cis in enumerate(by.values()):
        gid[cis] = g
        reps.append(assigns[cis[0]])
    for g, rows in _group_rows(gid[cid], len(reps), checkpoint):
        yield rows, reps[g]


class _Reducer:
    """One plan execution over the whole combo table.

    Rows carry a combo id; every operation groups rows by the distinct
    concrete path(s) it touches.  Full-column sweeps (mask + prefix sum)
    are keyed by (plan operation, vector path) and cached, so each data
    vector is swept at most once per plan operation across all combos —
    the invariant ``EvalContext.check_passes`` asserts."""

    def __init__(self, vdoc, plan: Plan, ctx: EvalContext):
        self.vdoc = vdoc
        self.catalog = vdoc.catalog
        self.plan = plan
        self.operands = plan.binding.operands
        self.ctx = ctx
        self.cache = ctx.cache(vdoc)
        self._cums: dict[tuple, np.ndarray] = {}

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

    def _instantiate(self, edge, assigns, cid, cols):
        v = edge.var
        if edge.parent is None:
            ids_list = [np.asarray(a[v][1], dtype=np.int64) for a in assigns]
            counts = np.array([len(x) for x in ids_list], dtype=np.int64)
            flat = (np.concatenate(ids_list) if ids_list
                    else np.empty(0, dtype=np.int64))
            offs = np.concatenate(
                (np.zeros(1, dtype=np.int64), np.cumsum(counts)))
            m = counts[cid]
            cols = {u: np.repeat(c, m) for u, c in cols.items()}
            cols[v] = flat[ranges_to_ordinals(offs[cid], m)]
            return np.repeat(cid, m), cols
        # relative binding: positional join, grouped by the distinct
        # (parent path, own path) pairs — not by combo
        p = edge.parent
        n = len(cid)
        starts_all = np.zeros(n, dtype=np.int64)
        lengths_all = np.zeros(n, dtype=np.int64)
        for rows, a in _combo_groups(cid, assigns, self.ctx.checkpoint,
                                     lambda a: (a[p][0], a[v][0])):
            pcp = a[p][0]
            rel = a[v][0][len(pcp):]
            starts, lengths = self.catalog.extension_ranges(
                pcp, cols[p][rows], rel)
            starts_all[rows] = starts
            lengths_all[rows] = lengths
        cols = {u: np.repeat(c, lengths_all) for u, c in cols.items()}
        cols[v] = ranges_to_ordinals(starts_all, lengths_all)
        return np.repeat(cid, lengths_all), cols

    def _select(self, op_idx, sel: ConstEdge, assigns, cid, cols,
                access: str = "scan"):
        keep = np.zeros(len(cid), dtype=bool)
        for rows, a in _combo_groups(cid, assigns, self.ctx.checkpoint,
                                     lambda a: a[sel.var][0]):
            side = self._side(sel.var, sel.rel, a[sel.var][0],
                              cols[sel.var][rows])
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

    def _row_operand(self, var: str, rel: tuple, assigns, cid, cols):
        """:meth:`_operand` over the table's rows, grouped by ``var``'s
        concrete path."""
        return self._operand(var, rel, (
            (rows, a[var][0], cols[var][rows])
            for rows, a in _combo_groups(cid, assigns, self.ctx.checkpoint,
                                         lambda a: a[var][0])))

    def _extend(self, join: EqEdge, v: str, assigns, cid, cols):
        """The ``=`` join that instantiates root variable ``v``: pair each
        row with the occurrences of ``v``'s concrete path in the row's
        combo whose operand shares a value with the row's.  ``v``'s operand
        is built once per concrete path, keys are ``path id · m + code``,
        and only the distinct matching ``(row, occurrence)`` pairs become
        rows."""
        if join.var1 == v:
            u, urel, vrel = join.var2, join.rel2, join.rel1
        else:
            u, urel, vrel = join.var1, join.rel1, join.rel2
        roots = {a[v][0]: np.asarray(a[v][1], dtype=np.int64)
                 for a in assigns}
        pid = {p: i for i, p in enumerate(roots)}
        sizes = [len(o) for o in roots.values()]
        offs = np.cumsum([0, *sizes])
        occs = np.concatenate(list(roots.values()))
        parts1 = self._row_operand(u, urel, assigns, cid, cols)
        parts2 = self._operand(v, vrel, (
            (np.arange(offs[i], offs[i + 1]), p, o)
            for i, (p, o) in enumerate(roots.items())))
        r1, g1, r2, g2, m = self._join_codes(parts1, parts2)
        row_pid = np.array([pid[a[v][0]] for a in assigns])[cid]
        occ_pid = np.repeat(np.arange(len(sizes)), sizes)
        i, j = _equi_match(row_pid[r1] * m + g1, occ_pid[r2] * m + g2)
        n_occs = max(len(occs), 1)
        pairs = np.unique(r1[i] * n_occs + r2[j])
        rows = pairs // n_occs
        cols = {w: c[rows] for w, c in cols.items()}
        cols[v] = occs[pairs % n_occs]
        return cid[rows], cols

    def _join(self, join: EqEdge, assigns, cid, cols):
        n = len(cid)
        parts1 = self._row_operand(join.var1, join.rel1, assigns, cid, cols)
        parts2 = self._row_operand(join.var2, join.rel2, assigns, cid, cols)
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
        # globally across all combos in one accumulator pair
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

    def run(self, assigns: list[dict]):
        cid = np.arange(len(assigns), dtype=np.int64)
        cols: dict[str, np.ndarray] = {}
        for op_idx, op in enumerate(self.plan.ops):
            if len(cid) == 0:
                break
            self.ctx.checkpoint()   # cancellation point between plan ops
            edge = op.payload
            if op.kind == "instantiate":
                cid, cols = self._instantiate(edge, assigns, cid, cols)
            elif op.extends is not None:
                cid, cols = self._extend(edge, op.extends, assigns, cid,
                                         cols)
            else:
                if op.kind == "select":
                    keep = self._select(op_idx, edge, assigns, cid, cols,
                                        op.access)
                else:
                    keep = self._join(edge, assigns, cid, cols)
                cid = cid[keep]
                cols = {v: c[keep] for v, c in cols.items()}
        return cid, cols


def _order_table(vdoc, gq: QueryGraph,
                 raw: list[tuple]) -> ReducedTable:
    """Global nested-loop document order across combinations: lexicographic
    by the preorder rank of each variable's binding, outermost variable
    first.  Ranks are unique per node, so the order is total."""
    catalog = vdoc.catalog
    total = sum(n for _, _, n in raw)
    combos: list[ComboRows] = []
    if total:
        keys = [
            np.concatenate([catalog.order_keys(var_paths[v])[cols[v]]
                            for var_paths, cols, _ in raw])
            for v in gq.variables
        ]
        order = np.lexsort(tuple(reversed(keys)))
        inv = np.empty(total, dtype=np.int64)
        inv[order] = np.arange(total, dtype=np.int64)
        off = 0
        for var_paths, cols, n in raw:
            combos.append(ComboRows(var_paths, cols, inv[off:off + n]))
            off += n
    return ReducedTable(list(gq.variables), combos, total)


def reduce_query(vdoc, gq: QueryGraph, plan: Plan,
                 ctx: EvalContext) -> ReducedTable:
    """Reduce ``Gq`` to its binding-tuple table, globally ordered."""
    assigns = _enumerate_combos(gq, vdoc, plan, ctx)
    cid, cols = _Reducer(vdoc, plan, ctx).run(assigns)
    raw = []
    for ci, rows in _group_rows(cid, len(assigns), ctx.checkpoint):
        a = assigns[ci]
        raw.append(({v: a[v][0] for v in gq.variables},
                    {v: cols[v][rows] for v in gq.variables},
                    len(rows)))
    return _order_table(vdoc, gq, raw)
