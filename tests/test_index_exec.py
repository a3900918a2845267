"""Index-aware execution: indexed and scan access produce byte-identical
results (memory and disk), the planner stamps the access path it
actually priced cheaper, and repeated compiles yield the identical plan."""

import pytest

from repro.core.engine import eval_xq
from repro.core.planner import plan_query
from repro.core.qgraph import compile_query
from repro.core.vdoc import VectorizedDocument
from repro.core.xquery.parser import parse_xq
from repro.datasets.synth import xmark_like_xml
from repro.storage.vdocfile import open_vdoc, save_vdoc

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
def mem_vdoc():
    vdoc = VectorizedDocument.from_xml(xmark_like_xml(N_PEOPLE, seed=9))
    vdoc.build_indexes()
    return vdoc


@pytest.fixture(scope="module")
def disk_path(tmp_path_factory):
    vdoc = VectorizedDocument.from_xml(xmark_like_xml(N_PEOPLE, seed=9))
    path = str(tmp_path_factory.mktemp("ix") / "doc.vdoc")
    save_vdoc(vdoc, path, page_size=512, index_paths="all")
    return path


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_indexed_equals_scan_in_memory(mem_vdoc, name):
    query = QUERIES[name]
    ix = eval_xq(mem_vdoc, query, use_indexes=True)
    scan = eval_xq(mem_vdoc, query, use_indexes=False)
    assert ix.to_xml() == scan.to_xml()
    assert all(op.access == "scan" for op in scan.plan.ops)
    # filters on indexed vectors of this size must actually probe
    filters = [op for op in ix.plan.ops if op.kind in ("select", "join")]
    assert filters and all(op.access == "index" for op in filters), name


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_indexed_equals_scan_on_disk(disk_path, name):
    query = QUERIES[name]
    with open_vdoc(disk_path, pool_pages=64) as doc:
        ix = eval_xq(doc, query, use_indexes=True).to_xml()
        doc.drop_caches()
        scan = eval_xq(doc, query, use_indexes=False).to_xml()
    assert ix == scan


def test_probe_skips_the_column_on_disk(disk_path):
    """A selective probe must not materialize the indexed vector: the
    index segment is read, the name column itself is not."""
    with open_vdoc(disk_path, pool_pages=64) as doc:
        eval_xq(doc, QUERIES["eq-selection"], use_indexes=True)
        name_path = ("site", "people", "person", "name", "#")
        assert not doc.vectors[name_path].is_loaded()
        assert doc._vindexes[name_path].is_loaded()


def test_plan_reports_cost_estimates(mem_vdoc):
    gq, _ = compile_query(parse_xq(QUERIES["join-plus-selection"]))
    plan = plan_query(gq, mem_vdoc)
    text = plan.explain()
    assert "est" in text and "[index]" in text
    for op in plan.ops:
        assert op.cost >= 0 and op.scan_cost >= 0
        if op.access == "index":
            assert op.cost < op.scan_cost  # the probe won on estimate


def test_repeated_compiles_produce_identical_plans(mem_vdoc):
    """Satellite: deterministic tie-breaking — the same query against the
    same statistics always yields the same op order, access stamps and
    estimates."""
    for query in QUERIES.values():
        plans = []
        for _ in range(3):
            gq, _ = compile_query(parse_xq(query))
            plans.append(plan_query(gq, mem_vdoc))
        base = [(op.kind, str(op.payload), op.op_id, op.access, op.cost)
                for op in plans[0].ops]
        for plan in plans[1:]:
            assert [(op.kind, str(op.payload), op.op_id, op.access, op.cost)
                    for op in plan.ops] == base
        assert plans[0].explain() == plans[1].explain()


def test_use_indexes_false_never_probes(disk_path):
    with open_vdoc(disk_path, pool_pages=64) as doc:
        res = eval_xq(doc, QUERIES["eq-join"], use_indexes=False)
        assert all(op.access == "scan" for op in res.plan.ops)
        assert not any(h.is_loaded() for h in doc._vindexes.values())
