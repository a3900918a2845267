"""XQ rewrites: let-alias elimination.

A ``let $z := $y/rel`` binding names a (possibly empty) subsequence of a
bound variable; every use of ``$z`` — in ``where`` operands, in template
splices, or as the base of a ``for`` source — is equivalent to the use of
``$y`` with ``rel`` prefixed.  ``normalize`` folds all lets away, so the
query graph compiler and both evaluators only ever see ``for`` variables.
Existential ``where`` semantics and splice-all template semantics make
this rewriting exact (documented XQ fragment semantics, DESIGN.md).
"""

from __future__ import annotations

from ...errors import XQCompileError
from ..xpath.ast import CHILD, Step
from .ast import (
    Comparison,
    Const,
    ForBinding,
    RelSource,
    TElem,
    TSplice,
    TText,
    VarRel,
    XQuery,
)


def _resolve_lets(xq: XQuery) -> dict[str, tuple[str, tuple]]:
    """Map each let variable to its (for-variable base, relative labels),
    following alias chains; rejects cycles and unknown bases."""
    for_vars = {b.var for b in xq.bindings}
    raw = {}
    for let in xq.lets:
        if let.var in for_vars or let.var in raw:
            raise XQCompileError(f"duplicate variable ${let.var}")
        raw[let.var] = (let.base, let.rel)
    resolved: dict[str, tuple[str, tuple]] = {}
    for var in raw:
        _resolve_let(var, raw, for_vars, resolved, ())
    return resolved


def _resolve_let(var: str, raw: dict, for_vars: set, resolved: dict,
                 seen: tuple) -> tuple[str, tuple]:
    """One let variable's (base, rel), memoized in ``resolved``."""
    if var in resolved:
        return resolved[var]
    if var in seen:
        raise XQCompileError(f"cyclic let chain through ${var}")
    base, rel = raw[var]
    if base in for_vars:
        out = (base, rel)
    elif base in raw:
        bbase, brel = _resolve_let(base, raw, for_vars, resolved,
                                   (*seen, var))
        if brel and brel[-1] in ("#",) or (brel and brel[-1].startswith("@")):
            raise XQCompileError(
                f"let ${var}: base ${base} ends at a text/attribute node")
        out = (bbase, (*brel, *rel))
    else:
        raise XQCompileError(f"let ${var}: unknown base variable ${base}")
    resolved[var] = out
    return out


def normalize(xq: XQuery) -> XQuery:
    """Fold let aliases away; returns an equivalent let-free query."""
    if not xq.lets:
        return xq
    aliases = _resolve_lets(xq)
    for_vars = {b.var for b in xq.bindings}

    def base_of(var: str, rel: tuple, where: str) -> tuple[str, tuple]:
        if var in for_vars:
            return var, rel
        if var not in aliases:
            raise XQCompileError(f"unknown variable ${var} in {where}")
        base, brel = aliases[var]
        if brel and (brel[-1] == "#" or brel[-1].startswith("@")) and rel:
            raise XQCompileError(
                f"${var} is text/attribute-valued and cannot be extended")
        return base, (*brel, *rel)

    bindings = []
    for b in xq.bindings:
        src = b.source
        if isinstance(src, RelSource) and src.var not in for_vars:
            base, brel = base_of(src.var, (), f"for ${b.var}")
            prefix = tuple(Step(CHILD, label) for label in brel)
            src = RelSource(base, (*prefix, *src.steps))
        bindings.append(ForBinding(b.var, src))

    def map_operand(o, where):
        if isinstance(o, Const):
            return o
        return VarRel(*base_of(o.var, o.rel, where))

    where = tuple(
        Comparison(map_operand(c.left, "where"), c.op,
                   map_operand(c.right, "where"))
        for c in xq.where
    )

    ret = tuple(_map_template(t, base_of) for t in xq.ret)
    return XQuery(xq.root_tag, tuple(bindings), (), where, ret,
                  xq.source_text)


def _map_template(t, base_of):
    """Rewrite the splices of one template item through ``base_of``."""
    if isinstance(t, TText):
        return t
    if isinstance(t, TSplice):
        return TSplice(*base_of(t.var, t.rel, "return"))
    return TElem(t.tag, tuple(_map_template(c, base_of) for c in t.children))
