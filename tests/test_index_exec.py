"""Index-aware execution: the indexed and unindexed twins of one document
produce byte-identical results (each against the naive oracle), the
planner stamps the access path it actually priced cheaper, and repeated
compiles yield the identical plan.  Value indexes exist only in saved
files: the in-memory document plans exactly as its unindexed save."""

import pytest

from repro.core.engine import eval_xq
from repro.core.planner import plan_query
from repro.core.qgraph import compile_query
from repro.core.xquery.parser import parse_xq
from repro.datasets.synth import xmark_like_xml

N_PEOPLE = 60

QUERIES = {
    "eq-selection": (
        "for $p in /site/people/person where $p/name = 'name 3' "
        "return <r>{$p/emailaddress}</r>"),
    "attr-selection": (
        "for $p in /site/people/person where $p/@id = 'person5' "
        "return <r>{$p/name}</r>"),
    "neq-selection": (
        "for $p in /site/people/person where $p/name != 'name 3' "
        "return <r>{$p/name}</r>"),
    "range-selection": (
        "for $p in /site/people/person where $p/profile/age > '40' "
        "return <r>{$p/name}{$p/profile/age}</r>"),
    "eq-join": (
        "for $c in /site/closed_auctions/closed_auction, "
        "$p in /site/people/person where $c/buyer = $p/@id "
        "return <pair>{$c/price}{$p/name}</pair>"),
    "join-plus-selection": (
        "for $c in /site/closed_auctions/closed_auction, "
        "$p in /site/people/person "
        "where $p/name = 'name 7' and $c/buyer = $p/@id "
        "return <pair>{$c/price}</pair>"),
    "empty-selection": (
        "for $p in /site/people/person where $p/name = 'no such name' "
        "return <r>{$p/name}</r>"),
}


@pytest.fixture(scope="module")
def doc_twins(twins):
    return twins(xmark_like_xml(N_PEOPLE, seed=9))


@pytest.fixture(scope="module")
def indexed_vdoc(doc_twins):
    with doc_twins.open("indexed") as doc:
        yield doc


def _filters(plan):
    return [op for op in plan.ops if op.kind in ("select", "join")]


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_indexed_equals_scan_in_memory(doc_twins, indexed_vdoc, name):
    query = QUERIES[name]
    oracle = doc_twins.naive(query)
    ix = eval_xq(indexed_vdoc, query)
    # the memory document is the unindexed (``coded``) twin before its save
    scan = eval_xq(doc_twins.memory, query)
    assert ix.to_xml() == oracle
    assert scan.to_xml() == oracle
    assert all(op.access != "index" for op in scan.plan.ops)
    # selections on indexed vectors of this size must actually probe;
    # a join has one kernel whatever the file holds
    assert _filters(ix.plan)
    for op in _filters(ix.plan):
        assert op.access == ("index" if op.kind == "select" else "scan"), name


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_indexed_equals_scan_on_disk(doc_twins, name):
    query = QUERIES[name]
    oracle = doc_twins.naive(query)
    with doc_twins.open("indexed") as doc:
        ix = eval_xq(doc, query)
        assert ix.to_xml() == oracle
        assert any(op.access == "index" for op in ix.plan.ops) \
            == ("selection" in name)
    with doc_twins.open("coded") as doc:
        assert eval_xq(doc, query).to_xml() == oracle


def test_probe_skips_the_column_on_disk(doc_twins):
    """A selective probe must not materialize the indexed vector: the
    index segment is read, the name column itself is not."""
    with doc_twins.open("indexed") as doc:
        eval_xq(doc, QUERIES["eq-selection"])
        name_path = ("site", "people", "person", "name", "#")
        assert not doc.vectors[name_path].is_loaded()
        assert doc._vindexes[name_path].is_loaded()


def test_plan_reports_cost_estimates(indexed_vdoc):
    gq, _ = compile_query(parse_xq(QUERIES["join-plus-selection"]))
    plan = plan_query(gq, indexed_vdoc)
    text = plan.explain()
    assert "est" in text and "[index]" in text
    for op in plan.ops:
        assert op.cost >= 0 and op.scan_cost >= 0
        if op.access == "index":
            assert op.cost < op.scan_cost  # the probe won on estimate


def test_repeated_compiles_produce_identical_plans(indexed_vdoc):
    """Satellite: deterministic tie-breaking — the same query against the
    same statistics always yields the same op order, access stamps and
    estimates."""
    for query in QUERIES.values():
        plans = []
        for _ in range(3):
            gq, _ = compile_query(parse_xq(query))
            plans.append(plan_query(gq, indexed_vdoc))
        base = [(op.kind, str(op.payload), op.op_id, op.access, op.cost)
                for op in plans[0].ops]
        for plan in plans[1:]:
            assert [(op.kind, str(op.payload), op.op_id, op.access, op.cost)
                    for op in plan.ops] == base
        assert plans[0].explain() == plans[1].explain()


def test_unindexed_twin_plans_no_probe(doc_twins):
    """Whether a query probes is a property of its file: the plan over
    the unindexed twin has no ``[index]`` op, for any query."""
    with doc_twins.open("coded") as doc:
        assert doc._vindexes == {}
        for query in QUERIES.values():
            plan = eval_xq(doc, query).plan
            assert "[index]" not in plan.explain()
            assert all(op.access in ("scan", "dict") for op in plan.ops)
