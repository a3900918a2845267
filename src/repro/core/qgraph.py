"""Query graphs (paper §3.3): compile an XQ query into ``Gq`` + ``Gr``.

``Gq`` is a graph over the query's ``for`` variables:

* **tree edges** — each variable is reached from its parent variable by a
  relative path (projections); root variables carry an absolute XPath;
* **constant edges** — ``$x/p op 'c'`` qualifiers (selections);
* **equality edges** — ``$x/p1 op $y/p2`` qualifiers (joins; the paper's
  formal fragment has ``=`` only, the other comparators are the DESIGN.md
  extension).

``Gr`` is the result skeleton: the return-clause template with its
parameter slots (splices) flattened in template order, which is exactly
the order result construction emits values in.

The compiler also normalizes selection/join operand paths to text paths
(appending the ``#`` marker) and validates variable references, so the
planner and the reduction engine can assume a well-formed graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import XQCompileError
from .xquery.ast import (
    AbsSource,
    Const,
    TElem,
    TSplice,
    TText,
    XQuery,
)
from .xquery.rewrite import normalize


@dataclass(frozen=True)
class TreeEdge:
    """Projection: ``var`` is bound to ``parent``/steps (``parent`` is None
    for root variables, whose ``abs_path`` is an absolute XPath)."""

    var: str
    parent: str | None
    steps: tuple = ()      # tuple[Step, ...] for relative bindings
    abs_path: object = None  # xpath.ast.Path for root bindings

    def __str__(self) -> str:
        if self.parent is None:
            return f"${self.var} <- {self.abs_path}"
        rel = "".join(str(s) for s in self.steps)
        return f"${self.var} <- ${self.parent}{rel}"


@dataclass(frozen=True)
class ConstEdge:
    """Selection: existentially compare text at ``$var/rel`` to a constant.
    ``rel`` is normalized to end at the text marker ``#``."""

    var: str
    rel: tuple
    op: str
    value: str

    def __str__(self) -> str:
        rel = "/".join(c for c in self.rel)
        return f"${self.var}/{rel} {self.op} '{self.value}'"


@dataclass(frozen=True)
class EqEdge:
    """Join: existentially compare text at ``$var1/rel1`` with text at
    ``$var2/rel2`` (both rels normalized to ``#``)."""

    var1: str
    rel1: tuple
    op: str
    var2: str
    rel2: tuple

    def __str__(self) -> str:
        r1 = "/".join(self.rel1)
        r2 = "/".join(self.rel2)
        return f"${self.var1}/{r1} {self.op} ${self.var2}/{r2}"


@dataclass
class QueryGraph:
    """``Gq``: variables in declaration order plus the three edge kinds.

    ``collection`` is the repository collection every root variable ranges
    over (``None`` for single-document queries); the compiler rejects
    mixed-collection queries, so the repository layer can evaluate ``Gq``
    member by member."""

    variables: list[str] = field(default_factory=list)
    tree_edges: dict[str, TreeEdge] = field(default_factory=dict)
    selections: list[ConstEdge] = field(default_factory=list)
    joins: list[EqEdge] = field(default_factory=list)
    collection: str | None = None


@dataclass
class ResultSkeleton:
    """``Gr``: the return-clause template plus its flattened slots."""

    root_tag: str
    items: tuple  # template forest (TElem | TText | TSplice)
    slots: list[TSplice] = field(default_factory=list)


def _norm_text_rel(rel: tuple) -> tuple:
    """Normalize a comparison operand path to end at the text marker."""
    if not rel or rel[-1] != "#":
        return (*rel, "#")
    return rel


def _check_var(gq: QueryGraph, var: str, where: str) -> None:
    if var not in gq.tree_edges:
        raise XQCompileError(f"unknown variable ${var} in {where}")


def _collect_slots(item, gq: QueryGraph, slots: list) -> None:
    """Append the splices of one template item to ``slots`` in template
    order."""
    if isinstance(item, TSplice):
        _check_var(gq, item.var, "return template")
        slots.append(item)
    elif isinstance(item, TElem):
        for c in item.children:
            _collect_slots(c, gq, slots)
    else:
        assert isinstance(item, TText)


def compile_query(xq: XQuery) -> tuple[QueryGraph, ResultSkeleton]:
    """Compile a (possibly let-carrying) XQ query into ``(Gq, Gr)``."""
    xq = normalize(xq)
    gq = QueryGraph()
    for b in xq.bindings:
        if b.var in gq.tree_edges:
            raise XQCompileError(f"duplicate variable ${b.var}")
        if isinstance(b.source, AbsSource):
            if b.source.collection is not None:
                if gq.collection not in (None, b.source.collection):
                    raise XQCompileError(
                        f"for ${b.var}: a query may range over at most one "
                        f"collection ({gq.collection!r} vs "
                        f"{b.source.collection!r})")
                gq.collection = b.source.collection
            edge = TreeEdge(b.var, None, (), b.source.path)
        else:
            if b.source.var not in gq.tree_edges:
                raise XQCompileError(
                    f"for ${b.var}: unknown base variable ${b.source.var} "
                    "(variables may only reference earlier bindings)")
            edge = TreeEdge(b.var, b.source.var, b.source.steps)
        gq.variables.append(b.var)
        gq.tree_edges[b.var] = edge

    for comp in xq.where:
        left, right = comp.left, comp.right
        if isinstance(left, Const) and isinstance(right, Const):
            raise XQCompileError("constant-only comparison in where clause")
        if isinstance(left, Const):
            # flip so the variable is on the left; mirror the operator
            flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
            left, right = right, left
            comp_op = flip.get(comp.op, comp.op)
        else:
            comp_op = comp.op
        _check_var(gq, left.var, "where clause")
        if isinstance(right, Const):
            gq.selections.append(ConstEdge(
                left.var, _norm_text_rel(left.rel), comp_op, right.value))
        else:
            _check_var(gq, right.var, "where clause")
            gq.joins.append(EqEdge(
                left.var, _norm_text_rel(left.rel), comp_op,
                right.var, _norm_text_rel(right.rel)))

    gr = ResultSkeleton(xq.root_tag, xq.ret)
    for item in xq.ret:
        _collect_slots(item, gq, gr.slots)
    return gq, gr
