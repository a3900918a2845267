"""XQ front end: parser AST shapes, let-elimination, query-graph
compilation and the heuristic planner's operation ordering."""

import re

import pytest

from repro.core.planner import plan_query
from repro.core.qgraph import ConstEdge, EqEdge, compile_query
from repro.core.vdoc import VectorizedDocument
from repro.core.xpath.ast import CHILD, DESCENDANT
from repro.core.xquery import (
    AbsSource,
    Const,
    RelSource,
    TElem,
    TSplice,
    TText,
    VarRel,
    normalize,
    parse_xq,
)
from repro.datasets.synth import xmark_like_xml
from repro.errors import XQCompileError, XQSyntaxError


def test_parse_minimal_flwr():
    xq = parse_xq("for $x in /a/b return {$x}")
    assert xq.root_tag == "result"
    assert len(xq.bindings) == 1
    b = xq.bindings[0]
    assert b.var == "x"
    assert isinstance(b.source, AbsSource)
    assert [s.test for s in b.source.path.steps] == ["a", "b"]
    assert xq.ret == (TSplice("x", ()),)


def test_parse_enclosing_constructor_and_template():
    xq = parse_xq(
        "<out>{ for $p in //person return "
        "<r><n>{$p/name}</n><t>hi</t></r> }</out>")
    assert xq.root_tag == "out"
    (item,) = xq.ret
    assert isinstance(item, TElem) and item.tag == "r"
    n, t = item.children
    assert n == TElem("n", (TSplice("p", ("name",)),))
    assert t == TElem("t", (TText("hi"),))


def test_parse_relative_bindings_axes():
    xq = parse_xq("for $x in //a, $y in $x//b/*, $z in $y/@id return {$z}")
    y = xq.bindings[1].source
    assert isinstance(y, RelSource) and y.var == "x"
    assert [(s.axis, s.test) for s in y.steps] == [(DESCENDANT, "b"),
                                                   (CHILD, "*")]
    z = xq.bindings[2].source
    assert [(s.axis, s.test) for s in z.steps] == [(CHILD, "@id")]


def test_parse_where_operands():
    text = ("for $x in /a, $y in /a/b[e='1'] where $x/c = 'v' "
            "and $x/@k != $y/d/text() and 3 < $y return {$x}")
    xq = parse_xq(text)
    c1, c2, c3 = xq.where
    assert c1.left == VarRel("x", ("c",)) and c1.right == Const("v")
    assert c2.left == VarRel("x", ("@k",)) and c2.op == "!="
    assert c2.right == VarRel("y", ("d", "#"))
    assert c3.left == Const("3") and c3.right == VarRel("y", ())
    # a path ends where its grammar does: a keyword may be glued to it
    glued = text.replace("] where", "]where").replace("'v' and", "'v'and")
    assert parse_xq(glued) == xq


@pytest.mark.parametrize("bad", [
    "for $x in return {$x}",
    "for $x in /a where return {$x}",
    "for $x in /a return",
    "for $x in /a where 'a' = 'b' return {$x}",
    "for $x in $y[c] return {$x}",          # no predicates in rel bindings
    "for $x in /a return <r>{$x}</s>",      # mismatched tags
    "for $x in /a, $y in $x return {$y}",   # rel source needs a step
    "for $x in /a return {$x/text()/b}",    # text() must be last
    "for $x in /a/text()/b return {$x}",    # ... also in a for path
    "for $x in /a[b = 1] foo return {$x}",  # junk after a for path
])
def test_parse_errors(bad):
    with pytest.raises(XQSyntaxError) as exc:
        parse_xq(bad)
    # the error is positioned in the whole query text
    offset, text = re.search(r"at offset (\d+) in (.*)$",
                             str(exc.value)).groups()
    assert text == repr(bad) and int(offset) <= len(bad)


def test_normalize_folds_let_chains():
    xq = parse_xq(
        "for $p in //person let $pr := $p/profile, $a := $pr/age "
        "where $a = '30' return <r>{$pr/interest}{$a}</r>")
    nx = normalize(xq)
    assert nx.lets == ()
    (comp,) = nx.where
    assert comp.left == VarRel("p", ("profile", "age"))
    (r,) = nx.ret
    assert r.children == (TSplice("p", ("profile", "interest")),
                          TSplice("p", ("profile", "age")))


def test_normalize_rejects_cycles_and_unknown():
    with pytest.raises(XQCompileError):
        normalize(parse_xq(
            "for $x in /a let $u := $v/b, $v := $u/c return {$u}"))
    with pytest.raises(XQCompileError):
        normalize(parse_xq("for $x in /a let $u := $nope/b return {$u}"))


def test_compile_query_graph_edges():
    gq, gr = compile_query(parse_xq(
        "for $x in /site//item, $p in //person "
        "where $x/payment = 'Cash' and '40' <= $p/profile/age "
        "and $x/location = $p/profile/interest "
        "return <r>{$x/name}{$p}</r>"))
    assert gq.variables == ["x", "p"]
    assert gq.tree_edges["x"].parent is None
    # operand paths are normalized to the text marker; flipped constant
    # comparisons mirror the operator
    assert gq.selections == [
        ConstEdge("x", ("payment", "#"), "=", "Cash"),
        ConstEdge("p", ("profile", "age", "#"), ">=", "40"),
    ]
    assert gq.joins == [EqEdge("x", ("location", "#"), "=",
                               "p", ("profile", "interest", "#"))]
    assert gr.root_tag == "result"
    assert [ (s.var, s.rel) for s in gr.slots ] == [("x", ("name",)),
                                                    ("p", ())]


def test_compile_rejects_forward_and_unknown_refs():
    with pytest.raises(XQCompileError):
        compile_query(parse_xq("for $y in $x/b, $x in /a return {$y}"))
    with pytest.raises(XQCompileError):
        compile_query(parse_xq("for $x in /a where $z = '1' return {$x}"))
    with pytest.raises(XQCompileError):
        compile_query(parse_xq("for $x in /a return {$nope}"))


def test_planner_selections_before_joins():
    vdoc = VectorizedDocument.from_xml(xmark_like_xml(30, seed=1))
    gq, _ = compile_query(parse_xq(
        "for $c in //closed_auction, $p in /site/people/person "
        "where $p/profile/age > '50' and $c/buyer = $p/@id "
        "return <r>{$p/name}</r>"))
    plan = plan_query(gq, vdoc)
    # $p carries the only selection, so it is instantiated first and
    # filtered at once; the `=` join then instantiates $c from the
    # matching pairs — there is no instantiate op for $c
    assert [op.kind for op in plan.ops] == ["instantiate", "select", "join"]
    assert plan.ops[0].payload.var == "p"
    assert plan.ops[1].payload.var == "p"
    assert plan.ops[2].extends == "c"
    assert [op.extends for op in plan.ops[:2]] == [None, None]
    explain = plan.explain().splitlines()
    assert "extends $c" in explain[2] and "join" in explain[2]
    assert "extends" not in explain[0] + explain[1]


def test_planner_non_equality_join_filters_the_product():
    """``!=`` and the ordering operators keep instantiate-then-filter."""
    vdoc = VectorizedDocument.from_xml(xmark_like_xml(30, seed=1))
    for op in ("!=", "<", ">="):
        gq, _ = compile_query(parse_xq(
            f"for $c in //closed_auction, $p in /site/people/person "
            f"where $c/buyer {op} $p/@id return <r>{{$p/name}}</r>"))
        plan = plan_query(gq, vdoc)
        assert [o.kind for o in plan.ops] == \
            ["instantiate", "instantiate", "join"], op
        assert all(o.extends is None for o in plan.ops)
        assert "extends" not in plan.explain()


def test_planner_prefers_selective_variable_first():
    vdoc = VectorizedDocument.from_xml(xmark_like_xml(30, seed=1))
    gq, _ = compile_query(parse_xq(
        "for $a in //person, $b in //item "
        "where $b/payment = 'Cash' return <r>{$a/name}</r>"))
    plan = plan_query(gq, vdoc)
    # $b carries the only pending selection: instantiate it first even
    # though $a may be comparable in size
    assert plan.ops[0].payload.var == "b"
    assert plan.ops[1].kind == "select"
