"""Binding and operation ordering for graph reduction (paper §4.1, step 3).

**Binding.** :func:`bind_query` is the one place an XQ query meets the
dataguide's step matcher, in one pass; the :class:`Plan` carries its
:class:`Binding` and the reduction runs what it bound.  Repository
pruning binds a member's manifest guide the same way.

**Ordering.** ``Gq`` is reduced one edge at a time; the order is a
topological sort of the operations (a variable must be instantiated
before anything that filters it) refined by the classic relational
heuristics the paper cites:

* **selections before joins** — constant edges are applied as soon as
  their variable is instantiated.  An ``=`` join between a placed
  variable and the next root variable to place *is* that variable's
  instantiation (``PlanOp.extends``): the variable is built from the
  matching pairs only, and its selections run on the rows that survive.
  Every other join (``!=``, the ordering operators, ``=`` between two
  placed variables) filters once both sides are instantiated;
* **cheapest vector first** — among ready selections (and ready joins)
  the one whose operand vector is smallest goes first, estimated from the
  index totals of the bound paths (no vector is touched to plan);
* projections that unlock selections are preferred over bare projections,
  tie-broken by smallest estimated instantiation.

Every tie is broken by a stable integer **op id** assigned from the query
graph (variables, then selections, then joins, each in graph order), so
repeated compiles of the same query against the same statistics produce
the *identical* plan — plan snapshots are reproducible.

**Index-aware access paths** — when the document carries persistent value
indexes (:mod:`repro.index`), each selection is priced twice: the scan
estimate (total matching text occurrences — the column sweep) against
the probe estimate (expected posting size ``n/u`` from the catalog's
distinct counts, plus the probe overhead).  The cheaper side wins and
the op is stamped ``access='index'`` or ``'scan'`` — the ``IndexProbe``
variant the reduction executes.  An op only becomes a probe when *every*
candidate concrete text path is indexed; the executor still degrades to
a scan per path if an index goes missing at run time.  Joins have one
kernel and always carry ``access='scan'``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .paths import Dataguide, no_checkpoint
from .qgraph import ConstEdge, EqEdge, QueryGraph, TreeEdge

#: probe cost floor: hash + two searchsorted calls have a fixed overhead
#: that a scan over a tiny vector does not
PROBE_OVERHEAD = 16.0
#: assumed selectivity of a range (ordering-operator) probe
RANGE_FRACTION = 1 / 3
#: relative cost of an integer sweep over dictionary codes vs a string
#: sweep over the column (no decode, fixed-width compares)
DICT_SWEEP_FRACTION = 0.25


@dataclass(frozen=True)
class PlanOp:
    kind: str      # 'instantiate' | 'select' | 'join'
    payload: TreeEdge | ConstEdge | EqEdge
    cost: float    # statistics estimate of the *chosen* access path
    op_id: int = 0           # stable id from the query graph (tie-breaks)
    access: str = "scan"     # 'scan' | 'index' | 'dict'
    scan_cost: float = 0.0   # the scan estimate (== cost when scanning)
    extends: str | None = None  # root variable an `=` join instantiates

    def __str__(self) -> str:
        est = f"est {self.cost:.0f}"
        if self.access != "scan":
            est += f", scan {self.scan_cost:.0f}"
        if self.extends is not None:
            est += f", extends ${self.extends}"
        return f"{self.kind:11s} [{self.access:5s}] {self.payload}  ({est})"


@dataclass
class Binding:
    """``Gq`` resolved against one dataguide (:func:`bind_query`).  An
    operand table holds only the paths whose text path exists: a missing
    entry *is* the proof that the existential fails there."""

    #: root variable -> ``[(concrete path, step alignments)]``, sorted
    roots: dict[str, list[tuple]]
    #: relative variable -> ``{parent's concrete path: [own paths]}``
    rels: dict[str, dict[tuple, list[tuple]]]
    #: ``(variable, rel)`` operand -> ``{variable's path: text path}``
    operands: dict[tuple, dict[tuple, tuple]]
    #: variable -> its distinct concrete paths
    var_paths: dict[str, list[tuple]]

    def can_match(self) -> bool:
        """``False`` proves no tuple: some variable has no concrete path,
        or some comparison operand no text path for any of them."""
        return all(self.var_paths.values()) and all(self.operands.values())

    def estimate(self, counts) -> float:
        """Crude upper-bound tuple count: the product over variables of
        their paths' total occurrences under ``counts[path]``."""
        est = 1.0
        for paths in self.var_paths.values():
            est *= float(max(sum(counts[cp] for cp in paths), 1))
        return est


def _text_paths(guide: Dataguide, cpaths: list[tuple],
                rel: tuple) -> dict[tuple, tuple]:
    """The one operand rule: per concrete path ``cp``, the text path the
    operand ``rel`` reaches — ``cp`` itself for a variable bound to text
    compared as ``#``, else ``cp/rel`` when the guide holds it."""
    out: dict[tuple, tuple] = {}
    for cp in cpaths:
        if cp[-1] == "#":
            if rel == ("#",):
                out[cp] = cp
        elif (q := (*cp, *rel)) in guide:
            out[cp] = q
    return out


def bind_query(gq: QueryGraph, guide,
               checkpoint=no_checkpoint) -> Binding:
    """Resolve every variable and comparison operand of ``gq`` against
    any dataguide (:meth:`Dataguide.of`) — the document's own, or a
    repository member's cataloged path list — one matcher pass per root
    variable and per (relative variable, parent path), each passing
    ``checkpoint`` (the owning query's deadline) to the resolver."""
    guide = Dataguide.of(guide)
    roots: dict[str, list[tuple]] = {}
    rels: dict[str, dict[tuple, list[tuple]]] = {}
    var_paths: dict[str, list[tuple]] = {}
    for var in gq.variables:
        edge = gq.tree_edges[var]
        if edge.parent is None:
            roots[var] = guide.resolve(edge.abs_path.steps,
                                       checkpoint=checkpoint)
            var_paths[var] = [p for p, _ in roots[var]]
        else:
            rels[var] = {
                base: [p for p, _ in guide.resolve(edge.steps, base,
                                                   checkpoint)]
                for base in var_paths[edge.parent]}
            # distinct paths (several bases may reach the same guide entry)
            var_paths[var] = list(dict.fromkeys(
                p for ps in rels[var].values() for p in ps))
    sides = [(s.var, s.rel) for s in gq.selections] \
        + [(j.var1, j.rel1) for j in gq.joins] \
        + [(j.var2, j.rel2) for j in gq.joins]
    operands = {(v, rel): _text_paths(guide, var_paths[v], rel)
                for v, rel in sides}
    return Binding(roots, rels, operands, var_paths)


@dataclass
class Plan:
    ops: list[PlanOp]
    binding: Binding

    @property
    def var_paths(self) -> dict[str, list[tuple]]:
        """Variable -> candidate concrete label paths."""
        return self.binding.var_paths

    def explain(self) -> str:
        return "\n".join(f"{i + 1}. {op}" for i, op in enumerate(self.ops))


def member_can_match(gq: QueryGraph, guide) -> bool:
    """Can a document whose dataguide is ``guide`` contribute *any* tuple
    to ``gq``?  ``False`` proves it cannot: skip it without reading a
    page."""
    return bind_query(gq, guide).can_match()


def match_estimate(gq: QueryGraph, guide_counts) -> float:
    """:meth:`Binding.estimate` from a member's manifest catalog (a
    ``{path: count}`` dict or a counted :class:`Dataguide`)."""
    return bind_query(gq, guide_counts).estimate(guide_counts)


def _cardinality(vdoc, paths) -> float:
    """Total occurrences over bound concrete paths — for an operand's
    text paths, the size of the vector(s) it would scan.  The counted
    guide holds every total: no path index is built."""
    guide = vdoc.catalog.guide
    return float(sum(guide[p] for p in paths))


def _probe_stats(vdoc, qpaths):
    """``(total n, total distinct)`` over the operand's text paths when
    *every* one carries a value index; ``None`` otherwise (no probe)."""
    if not qpaths:
        return None
    n_total, u_total = 0.0, 0.0
    for q in qpaths:
        stats = vdoc.vindex_stats(q)
        if stats is None:
            return None
        n_total += float(vdoc.catalog.guide[q])
        u_total += float(stats["distinct"])
    return n_total, u_total


def _dict_coded(vdoc, qpaths) -> bool:
    """Is *every* concrete text path of this operand stored
    dictionary-coded?  (Catalog lookup only — no page I/O.)  All paths
    must be coded: a mixed operand would decode the stragglers anyway,
    so it is priced as a plain scan."""
    return bool(qpaths) and \
        all(vdoc.codec_of(q) == "dict" for q in qpaths)


def _sel_access(vdoc, sel: ConstEdge, qpaths,
                scan_cost: float) -> tuple[str, float]:
    """Choose the access path of one selection:
    ``('scan'|'index'|'dict', cost)``.

    Three candidates compete on estimated cost: the column sweep, the
    value-index probe (when every operand path is indexed), and — for
    equality operators over all-dictionary-coded operands — the
    code-space sweep (integer compares over the stored codes, no
    decode).  Ties prefer index over dict over scan (a probe touches the
    fewest pages, a code sweep the fewest CPU cycles)."""
    candidates = [(scan_cost, 2, "scan")]
    stats = _probe_stats(vdoc, qpaths)
    if stats is not None:
        n_total, u_total = stats
        if sel.op in ("=", "!="):
            # expected posting size of one key
            probe = n_total / max(u_total, 1.0) + PROBE_OVERHEAD
        else:
            # range probe: gathers + sorts an assumed fraction of rows
            probe = n_total * RANGE_FRACTION + PROBE_OVERHEAD
        candidates.append((probe, 0, "index"))
    if sel.op in ("=", "!=") and _dict_coded(vdoc, qpaths):
        candidates.append(
            (scan_cost * DICT_SWEEP_FRACTION + PROBE_OVERHEAD, 1, "dict"))
    cost, _, access = min(candidates)
    return access, cost


def plan_query(gq: QueryGraph, vdoc, checkpoint=no_checkpoint) -> Plan:
    """Bind ``gq`` to the document's dataguide, then order its
    operations (topological + heuristic) for that document."""
    bound = bind_query(gq, vdoc.catalog.guide, checkpoint)
    texts = {side: list(table.values())
             for side, table in bound.operands.items()}
    var_card = {v: _cardinality(vdoc, bound.var_paths[v])
                for v in gq.variables}
    # stable op ids: variables, then selections, then joins, in graph order
    var_id = {v: i for i, v in enumerate(gq.variables)}
    sel_id = {id(s): len(gq.variables) + i
              for i, s in enumerate(gq.selections)}
    join_id = {id(j): len(gq.variables) + len(gq.selections) + i
               for i, j in enumerate(gq.joins)}

    sel_plan: dict[int, tuple[str, float, float]] = {}
    for s in gq.selections:
        scan = _cardinality(vdoc, texts[s.var, s.rel])
        access, cost = _sel_access(vdoc, s, texts[s.var, s.rel], scan)
        sel_plan[id(s)] = (access, cost, scan)
    join_cost = {
        id(j): (_cardinality(vdoc, texts[j.var1, j.rel1])
                + _cardinality(vdoc, texts[j.var2, j.rel2]))
        for j in gq.joins}

    placed: set[str] = set()
    pending_sel = list(gq.selections)
    pending_join = list(gq.joins)
    pending_var = list(gq.variables)
    ops: list[PlanOp] = []

    def flush_filters() -> None:
        """Apply every ready selection, then every ready join — cheapest
        first within each class, ties broken by op id."""
        while True:
            ready = [s for s in pending_sel if s.var in placed]
            if not ready:
                break
            ready.sort(key=lambda s: (sel_plan[id(s)][1], sel_id[id(s)]))
            s = ready[0]
            pending_sel.remove(s)
            access, cost, scan = sel_plan[id(s)]
            ops.append(PlanOp("select", s, cost, op_id=sel_id[id(s)],
                              access=access, scan_cost=scan))
        while True:
            ready = [j for j in pending_join
                     if j.var1 in placed and j.var2 in placed]
            if not ready:
                break
            ready.sort(key=lambda j: (join_cost[id(j)], join_id[id(j)]))
            j = ready[0]
            pending_join.remove(j)
            cost = join_cost[id(j)]
            ops.append(PlanOp("join", j, cost, op_id=join_id[id(j)],
                              scan_cost=cost))

    while pending_var:
        ready = [v for v in pending_var
                 if gq.tree_edges[v].parent is None
                 or gq.tree_edges[v].parent in placed]
        assert ready, "tree edges form a forest over earlier bindings"
        # prefer instantiating a variable some pending selection filters
        with_sel = [v for v in ready
                    if any(s.var == v for s in pending_sel)]
        pool = with_sel or ready
        pool.sort(key=lambda v: (var_card[v], var_id[v]))
        v = pool[0]
        pending_var.remove(v)
        # a root variable `=`-joined to a placed one is instantiated by
        # that join: from the matching pairs, never from the product
        extend = [j for j in pending_join
                  if j.op == "=" and gq.tree_edges[v].parent is None
                  and v in (j.var1, j.var2) and {j.var1, j.var2} & placed]
        placed.add(v)
        if extend:
            j = min(extend, key=lambda j: (join_cost[id(j)], join_id[id(j)]))
            pending_join.remove(j)
            cost = join_cost[id(j)]
            ops.append(PlanOp("join", j, cost, op_id=join_id[id(j)],
                              scan_cost=cost, extends=v))
        else:
            ops.append(PlanOp("instantiate", gq.tree_edges[v], var_card[v],
                              op_id=var_id[v], scan_cost=var_card[v]))
        flush_filters()

    assert not pending_sel and not pending_join
    return Plan(ops, bound)
