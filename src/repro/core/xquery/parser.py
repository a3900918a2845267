"""Recursive-descent parser for XQ / XQ[*,//].

Concrete grammar (see :mod:`repro.core.xquery.ast` for semantics)::

    query    := '<' NAME '>' '{' flwr '}' '</' NAME '>'  |  flwr
    flwr     := 'for' for_bind (',' for_bind)*
                ('let' let_bind (',' let_bind)*)?
                ('where' comparison ('and' comparison)*)?
                'return' titem+
    for_bind := VAR 'in' (abspath | VAR relsteps)
    let_bind := VAR ':=' VAR relpath
    abspath  := ("collection(" STRING ")")? (('/' | '//') test pred*)+
                                             -- P[*,//]: wildcards,
                                                descendants, predicates
    relsteps := (('/' | '//') test)+         -- test: NAME | '*' | '@' NAME
                                                     | 'text()'; no preds
    relpath  := ('/' ctest)*                 -- ctest: NAME | '@' NAME
                                                     | 'text()' (concrete)
    comparison := operand op operand         -- op: = != < <= > >=
    operand  := VAR relpath | STRING | NUMBER
    titem    := '<' NAME '>' tcontent* '</' NAME '>' | '<' NAME '/>'
              | '{' VAR relpath '}' | VAR relpath
    tcontent := titem | raw text             -- raw text is trimmed
    VAR      := '$' NAME

The absolute-path arm is what makes this the XQ[*,//] extension.  Paths
are parsed in place on the query's one scanner by the XPath parser's step
loop (:func:`repro.core.xpath.parser.parse_steps`), so a path ends at the
first token that is neither ``/`` nor ``//`` — the ``,``, ``let``,
``where`` or ``return`` after it, spaced or not — and every error, in a
path or not, is an ``XQSyntaxError`` positioned in the whole query.
"""

from __future__ import annotations

from ...errors import XQSyntaxError
from ..xpath.ast import OPS
from ..xpath.parser import (
    Scanner,
    parse_abspath,
    parse_literal,
    parse_op,
    parse_steps,
    parse_test,
)
from .ast import (
    AbsSource,
    Comparison,
    Const,
    ForBinding,
    LetBinding,
    RelSource,
    TElem,
    TSplice,
    TText,
    VarRel,
    XQuery,
)


def _parse_relpath(sc: Scanner) -> tuple:
    """Concrete child-axis relative path: ``('/' ctest)*`` -> label tuple."""
    rel: list[str] = []
    while sc.eat("/"):
        if sc.peek("/"):
            raise sc.err("'//' is not supported here (child axis only)")
        comp = parse_test(sc, allow_wild=False)
        if rel and rel[-1] == "#":
            raise sc.err("text() must be the last component")
        if rel and rel[-1].startswith("@") and comp != "#":
            raise sc.err("an attribute component may only be followed by text()")
        rel.append(comp)
    return tuple(rel)


def _parse_source(sc: Scanner) -> AbsSource | RelSource:
    if sc.peek("$"):
        var = sc.var()
        steps = parse_steps(sc, preds=False)
        if not steps:
            raise sc.err("a relative source needs at least one step")
        return RelSource(var, steps)
    collection = None
    if sc.eat_word("collection"):
        sc.expect("(")
        if not (sc.peek("'") or sc.peek('"')):
            raise sc.err("collection() takes a quoted name")
        collection = parse_literal(sc)
        sc.expect(")")
    elif not sc.peek("/"):
        raise sc.err("expected an absolute path, collection('name')/..., "
                     "or $var/...")
    return AbsSource(parse_abspath(sc), collection)


def _parse_operand(sc: Scanner) -> VarRel | Const:
    sc.ws()
    if sc.peek("$"):
        var = sc.var()
        return VarRel(var, _parse_relpath(sc))
    return Const(parse_literal(sc))


def _parse_comparison(sc: Scanner) -> Comparison:
    left = _parse_operand(sc)
    op = parse_op(sc)
    if op is None:
        raise sc.err(f"expected a comparison operator (one of {OPS})")
    right = _parse_operand(sc)
    if isinstance(left, Const) and isinstance(right, Const):
        raise sc.err("a comparison needs at least one variable operand")
    return Comparison(left, op, right)


def _parse_template_item(sc: Scanner):
    sc.ws()
    if sc.eat("{"):
        var = sc.var()
        rel = _parse_relpath(sc)
        sc.expect("}")
        return TSplice(var, rel)
    if sc.peek("$"):
        var = sc.var()
        return TSplice(var, _parse_relpath(sc))
    if sc.peek("<"):
        return _parse_constructor(sc)
    raise sc.err("expected '<tag>', '{$var...}' or '$var...' in template")


def _parse_constructor(sc: Scanner) -> TElem:
    sc.expect("<")
    tag = sc.name()
    if sc.eat("/>"):
        return TElem(tag, ())
    sc.expect(">")
    children: list = []
    while True:
        if sc.eat("</"):
            end = sc.name()
            if end != tag:
                raise sc.err(f"mismatched end tag </{end}> for <{tag}>")
            sc.expect(">")
            return TElem(tag, tuple(children))
        if sc.peek("<"):
            children.append(_parse_constructor(sc))
        elif sc.eat("{"):
            var = sc.var()
            rel = _parse_relpath(sc)
            sc.expect("}")
            children.append(TSplice(var, rel))
        else:
            # raw text up to the next markup character, trimmed
            i = sc.i
            while i < len(sc.s) and sc.s[i] not in "<{":
                i += 1
            if i == sc.i:
                raise sc.err("unterminated element constructor")
            text = sc.s[sc.i : i].strip()
            sc.i = i
            if text:
                children.append(TText(text))


def _parse_flwr(sc: Scanner, root_tag: str, source_text: str) -> XQuery:
    sc.expect_word("for")
    bindings: list[ForBinding] = []
    while True:
        var = sc.var()
        sc.expect_word("in")
        bindings.append(ForBinding(var, _parse_source(sc)))
        if not sc.eat(","):
            break
    lets: list[LetBinding] = []
    if sc.eat_word("let"):
        while True:
            var = sc.var()
            sc.expect(":=")
            base = sc.var()
            rel = _parse_relpath(sc)
            if not rel:
                raise sc.err("a let binding needs a non-empty relative path")
            lets.append(LetBinding(var, base, rel))
            if not sc.eat(","):
                break
    where: list[Comparison] = []
    if sc.eat_word("where"):
        while True:
            where.append(_parse_comparison(sc))
            if not sc.eat_word("and"):
                break
    sc.expect_word("return")
    ret: list = [_parse_template_item(sc)]
    while True:
        sc.ws()
        if sc.i < len(sc.s) and sc.s[sc.i] in "<{$" and not sc.peek("</"):
            ret.append(_parse_template_item(sc))
        else:
            break
    return XQuery(root_tag, tuple(bindings), tuple(lets), tuple(where),
                  tuple(ret), source_text)


DEFAULT_ROOT_TAG = "result"


def parse_xq(s: str) -> XQuery:
    """Parse an XQ query.  A bare FLWR expression is implicitly wrapped in
    a ``<result>`` element so the output is always a single document."""
    sc = Scanner(s, XQSyntaxError)
    sc.ws()
    if sc.peek("<"):
        sc.expect("<")
        root_tag = sc.name()
        sc.expect(">")
        sc.expect("{")
        xq = _parse_flwr(sc, root_tag, s)
        sc.expect("}")
        sc.expect("</")
        end = sc.name()
        if end != root_tag:
            raise sc.err(f"mismatched end tag </{end}> for <{root_tag}>")
        sc.expect(">")
    else:
        xq = _parse_flwr(sc, DEFAULT_ROOT_TAG, s)
    if not sc.eof():
        raise sc.err("unexpected trailing input")
    return xq
