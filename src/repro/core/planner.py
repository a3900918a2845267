"""Heuristic operation ordering for graph reduction (paper §4.1, step 3).

``Gq`` is reduced one edge at a time; the order is a topological sort of
the operations (a variable must be instantiated before anything that
filters it) refined by the classic relational heuristics the paper cites:

* **selections before joins** — constant edges are applied as soon as
  their variable is instantiated, joins only once both sides are;
* **cheapest vector first** — among ready selections (and ready joins)
  the one whose operand vector is smallest goes first, estimated from the
  skeleton's bulk ``occ`` statistics (``extension_total`` — no vector is
  touched to plan);
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

The plan is computed once per query against aggregate dataguide
statistics and reused for every concrete-path combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .paths import Dataguide
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

    def __str__(self) -> str:
        est = f"est {self.cost:.0f}"
        if self.access != "scan":
            est += f", scan {self.scan_cost:.0f}"
        return f"{self.kind:11s} [{self.access:5s}] {self.payload}  ({est})"


@dataclass
class Plan:
    ops: list[PlanOp]
    #: variable -> candidate concrete label paths (dataguide matches)
    var_paths: dict[str, list[tuple]] = field(default_factory=dict)

    def explain(self) -> str:
        return "\n".join(f"{i + 1}. {op}" for i, op in enumerate(self.ops))


def candidate_var_paths(gq: QueryGraph, guide) -> dict[str, list[tuple]]:
    """Concrete label paths each variable may bind to, against any
    dataguide (:meth:`Dataguide.of`) — the document's own, or a repository
    member's cataloged path list (which is how pruning prices a member
    without opening it)."""
    guide = Dataguide.of(guide)
    out: dict[str, list[tuple]] = {}
    for var in gq.variables:
        edge = gq.tree_edges[var]
        if edge.parent is None:
            out[var] = [p for p, _ in guide.resolve(edge.abs_path.steps)]
        else:
            # distinct paths (several bases may reach the same guide entry)
            out[var] = list(dict.fromkeys(
                p for base in out[edge.parent]
                for p, _ in guide.resolve(edge.steps, base)))
    return out


def _side_qpaths(guide: Dataguide, cpaths: list[tuple],
                 rel: tuple) -> list[tuple]:
    """The concrete text paths one comparison operand can touch: the
    variable's candidates extended by the relative path, kept when the
    dataguide holds them (plus the identity case for text-bound
    variables)."""
    out: list[tuple] = []
    for cp in cpaths:
        if cp[-1] == "#":
            if rel == ("#",):
                out.append(cp)
            continue
        q = (*cp, *rel)
        if q in guide:
            out.append(q)
    return list(dict.fromkeys(out))


def member_can_match(gq: QueryGraph, guide) -> bool:
    """Can a document whose dataguide is ``guide`` contribute *any* tuple
    to ``gq``?  ``False`` is a proof of emptiness: some variable has no
    concrete path, or some selection/join operand resolves to no text path
    anywhere — the conjunctive existential then fails for every row (the
    reduction's ``_side() is None`` case), so the member can be skipped
    without reading a single page."""
    guide = Dataguide.of(guide)
    vp = candidate_var_paths(gq, guide)
    if any(not vp[v] for v in gq.variables):
        return False
    for s in gq.selections:
        if not _side_qpaths(guide, vp[s.var], s.rel):
            return False
    for j in gq.joins:
        if not _side_qpaths(guide, vp[j.var1], j.rel1) or \
                not _side_qpaths(guide, vp[j.var2], j.rel2):
            return False
    return True


def match_estimate(gq: QueryGraph, guide_counts) -> float:
    """Crude upper-bound tuple estimate from per-path occurrence counts
    alone (a member's manifest catalog, as a ``{path: count}`` dict or a
    counted :class:`Dataguide`): the product over variables of their
    candidates' total occurrences.  Used to order surviving repository
    members most-selective-first."""
    vp = candidate_var_paths(gq, guide_counts)
    est = 1.0
    for var in gq.variables:
        est *= float(max(sum(guide_counts[cp] for cp in vp[var]), 1))
    return est


def _cardinality(vdoc, cpaths: list[tuple]) -> float:
    """Total occurrences over all candidate concrete paths."""
    catalog = vdoc.catalog
    total = 0
    for cp in cpaths:
        idx = catalog.index(cp)
        if idx is not None:
            total += idx.total
    return float(total)


def _text_cardinality(vdoc, cpaths: list[tuple], rel: tuple) -> float:
    """Total matching text occurrences under the candidate paths — the size
    of the vector(s) a selection/join side would scan."""
    catalog = vdoc.catalog
    total = 0
    for cp in cpaths:
        use_rel = rel
        if cp and cp[-1] == "#":
            use_rel = rel[:-1] if rel and rel[-1] == "#" else rel
        total += catalog.extension_total(cp, use_rel)
    return float(total)


def _probe_stats(vdoc, cpaths: list[tuple], rel: tuple):
    """``(total n, total distinct)`` over the operand's text paths when
    *every* one carries a value index; ``None`` otherwise (no probe)."""
    qpaths = _side_qpaths(vdoc.catalog.guide, cpaths, rel)
    if not qpaths:
        return None
    n_total, u_total = 0.0, 0.0
    for q in qpaths:
        stats = vdoc.vindex_stats(q)
        if stats is None:
            return None
        idx = vdoc.catalog.index(q)
        n_total += float(idx.total if idx is not None else 0)
        u_total += float(stats["distinct"])
    return n_total, u_total


def _dict_coded(vdoc, cpaths, rel) -> bool:
    """Is *every* concrete text path of this operand stored
    dictionary-coded?  (Catalog lookup only — no page I/O.)  All paths
    must be coded: a mixed operand would decode the stragglers anyway,
    so it is priced as a plain scan."""
    qpaths = _side_qpaths(vdoc.catalog.guide, cpaths, rel)
    return bool(qpaths) and \
        all(vdoc.codec_of(q) == "dict" for q in qpaths)


def _sel_access(vdoc, sel: ConstEdge, cpaths,
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
    stats = _probe_stats(vdoc, cpaths, sel.rel)
    if stats is not None:
        n_total, u_total = stats
        if sel.op in ("=", "!="):
            # expected posting size of one key
            probe = n_total / max(u_total, 1.0) + PROBE_OVERHEAD
        else:
            # range probe: gathers + sorts an assumed fraction of rows
            probe = n_total * RANGE_FRACTION + PROBE_OVERHEAD
        candidates.append((probe, 0, "index"))
    if sel.op in ("=", "!=") and _dict_coded(vdoc, cpaths, sel.rel):
        candidates.append(
            (scan_cost * DICT_SWEEP_FRACTION + PROBE_OVERHEAD, 1, "dict"))
    cost, _, access = min(candidates)
    return access, cost


def plan_query(gq: QueryGraph, vdoc) -> Plan:
    """Topological + heuristic operation ordering for one document."""
    var_paths = candidate_var_paths(gq, vdoc.catalog.guide)
    var_card = {v: _cardinality(vdoc, var_paths[v]) for v in gq.variables}
    # stable op ids: variables, then selections, then joins, in graph order
    var_id = {v: i for i, v in enumerate(gq.variables)}
    sel_id = {id(s): len(gq.variables) + i
              for i, s in enumerate(gq.selections)}
    join_id = {id(j): len(gq.variables) + len(gq.selections) + i
               for i, j in enumerate(gq.joins)}

    sel_plan: dict[int, tuple[str, float, float]] = {}
    for s in gq.selections:
        scan = _text_cardinality(vdoc, var_paths[s.var], s.rel)
        access, cost = _sel_access(vdoc, s, var_paths[s.var], scan)
        sel_plan[id(s)] = (access, cost, scan)
    join_cost = {
        id(j): (_text_cardinality(vdoc, var_paths[j.var1], j.rel1)
                + _text_cardinality(vdoc, var_paths[j.var2], j.rel2))
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
        placed.add(v)
        ops.append(PlanOp("instantiate", gq.tree_edges[v], var_card[v],
                          op_id=var_id[v], scan_cost=var_card[v]))
        flush_filters()

    assert not pending_sel and not pending_join
    return Plan(ops, var_paths)
