"""XQ cross-evaluator property tests (satellite): graph reduction over
extended vectors must produce results *byte-identical* (after
serialization) to the naive decompress-and-evaluate reference — over a
fixed corpus and over random documents with generated queries covering
wildcard and descendant bindings, constant selections and two-variable
joins.  Every ``vx`` run also exercises the machine-checked invariants
(no skeleton decompression, each vector scanned at most once), since
``eval_xq`` enforces both."""

import random

import pytest

from repro.core import reconstruct as reconstruct_mod
from repro.core.context import EvalContext
from repro.core.engine import eval_xq
from repro.core.vdoc import VectorizedDocument
from repro.datasets.synth import xmark_like_xml

from test_roundtrip_property import random_tree
from test_xpath_cross import DOCS

XQ_QUERIES = [
    # projections and nested constructors
    "for $b in /bib/book return <r>{$b/title}</r>",
    "for $b in //book, $a in $b/author return <r><who>{$a/text()}</who></r>",
    "<out>{ for $t in //title return {$t} }</out>",
    # constant selections (string and numeric, both orientations)
    "for $b in /bib/book where $b/publisher = 'SBP' return <r>{$b/title}</r>",
    "for $x in /r/x where $x/y > '4' return {$x}",
    "for $x in //x where '6' <= $x/y return <n>{$x/y/text()}</n>",
    "for $p in //person where $p/profile/age >= '60' return <r>{$p/name}</r>",
    # wildcard and descendant bindings
    "for $r in /site/regions/*, $i in $r/item where $i/quantity < '3' "
    "return <hit>{$i/name/text()}</hit>",
    "for $x in /r, $y in $x//y return <v>{$y/text()}</v>",
    "for $e in //*, $y in $e/y return <p>{$y}</p>",
    # text- and attribute-bound variables
    "for $t in //interest/text() where $t = 'databases' return <x>{$t}</x>",
    "for $i in //item, $a in $i/@id return <id>{$a}</id>",
    # two-variable joins (equality, inequality, ordering)
    "for $c in //closed_auction, $p in /site/people/person "
    "where $c/buyer = $p/@id return <pair>{$c/price}{$p/name}</pair>",
    "for $i in /site/regions/africa/item, $j in /site/regions/asia/item "
    "where $i/location != $j/location return <d>{$i/name/text()}</d>",
    "for $i in //item, $c in //closed_auction "
    "where $i/quantity < $c/price return <q>{$i/@id}</q>",
    # `=` joins that instantiate their second root variable (extend mode):
    # both sides over several concrete paths, with a selection on the
    # extended variable; a text-bound extended variable compared as `#`;
    # a relative child of the extended variable bound after the join
    "for $i in /site/regions/*/item, $j in //item "
    "where $i/quantity < '8' and $j/quantity > '5' "
    "and $i/location = $j/location return <m>{$i/@id}{$j/@id}</m>",
    "for $p in //person, $t in //interest/text() "
    "where $p/profile/age > '50' and $p/profile/interest = $t "
    "return <e>{$p/@id}{$t}</e>",
    "for $c in //closed_auction, $p in //person, "
    "$n in $p/profile/interest where $c/price > '300' "
    "and $c/buyer = $p/@id return <b>{$c/price}{$n}</b>",
    # let aliases and multiple comparisons
    "for $p in //person let $pr := $p/profile "
    "where $pr/age < '25' and $pr/interest = 'databases' "
    "return <y>{$p/@id}{$pr/interest}</y>",
    # whole-subtree and attribute splices, multiple template items
    "for $b in /bib/book where $b/author = 'B' return {$b}",
    "for $p in //person where $p/profile/education = 'Graduate School' "
    "return <r>{$p/@id}</r><sep/>",
]


def _assert_same(vdoc, query):
    vx = eval_xq(vdoc, query, mode="vx")
    naive = eval_xq(vdoc, query, mode="naive")
    assert vx.to_xml() == naive.to_xml(), query
    return vx


@pytest.mark.parametrize("query", XQ_QUERIES)
@pytest.mark.parametrize("doc", sorted(DOCS))
def test_xq_cross_corpus(doc, query):
    _assert_same(VectorizedDocument.from_xml(DOCS[doc]), query)


def _random_query(rng: random.Random) -> str:
    """A random XQ query over the label/text alphabet of ``random_tree``."""
    absolutes = ["//a", "//b", "//item", "//*", "/a/b", "/a//c", "//data"]
    rels = ["/b", "//c", "/*", "/@id", "/b/text()", "//item", "/data/b"]
    crels = ["", "/b", "/c", "/@k", "/@id", "/b/c"]
    consts = ["x", "42", "hello world", "-3.5"]
    ops = ["=", "!=", "<", "<=", ">", ">="]

    variables = ["x"]
    parts = [f"$x in {rng.choice(absolutes)}"]
    if rng.random() < 0.7:
        variables.append("y")
        parts.append(f"$y in $x{rng.choice(rels)}")
    wheres = []
    # a second root variable joined to an earlier one: an `=` join
    # instantiates it from the matching pairs (extend mode) instead of
    # filtering the product
    if rng.random() < 0.5:
        w = rng.choice(variables)
        variables.append("z")
        parts.append(f"$z in {rng.choice(absolutes)}")
        op = "=" if rng.random() < 0.6 else rng.choice(ops)
        wheres.append(f"$z{rng.choice(crels)} {op} ${w}{rng.choice(crels)}")
    for _ in range(rng.randrange(0, 3)):
        v = rng.choice(variables)
        if len(variables) > 1 and rng.random() < 0.4:
            w = rng.choice(variables)
            wheres.append(f"${v}{rng.choice(crels)} {rng.choice(ops)} "
                          f"${w}{rng.choice(crels)}")
        else:
            wheres.append(f"${v}{rng.choice(crels)} {rng.choice(ops)} "
                          f"'{rng.choice(consts)}'")
    splices = "".join(f"{{${rng.choice(variables)}{rng.choice(crels)}}}"
                      for _ in range(rng.randrange(1, 3)))
    q = "for " + ", ".join(parts)
    if wheres:
        q += " where " + " and ".join(wheres)
    return q + f" return <row>{splices}</row>"


@pytest.mark.parametrize("seed", range(25))
def test_xq_cross_random_docs(seed):
    rng = random.Random(seed + 900)
    vdoc = VectorizedDocument.from_tree(random_tree(rng))
    saw_join = False
    for _ in range(8):
        query = _random_query(rng)
        saw_join = saw_join or ("$x" in query.split("where")[-1]
                                and "$y" in query.split("where")[-1]
                                and "where" in query)
        _assert_same(vdoc, query)
    # fixed two-variable join on every random doc, so each seed exercises
    # a join even if the generator rolled none
    _assert_same(vdoc, "for $u in //*, $v in //* where $u/@id = $v/@k "
                       "return <j>{$u/@id}</j>")


#: (root binding, operand) pairs whose texts share a value domain, so an
#: `=` join between two of a domain's pairs has matches
_JOIN_DOMAINS = [
    [("//person", "/@id"), ("//closed_auction", "/buyer"),
     ("/site/people/*", "/@id")],
    [("/site/regions/*/item", "/location"), ("//item", "/location"),
     ("/site/regions/*/*", "/location")],
    [("//person", "/profile/interest"), ("//interest/text()", ""),
     ("//profile", "/interest")],
]


@pytest.mark.parametrize("seed", range(10))
def test_xq_cross_extend_mode(seed):
    """Random `=` joins between two root variables over several concrete
    paths: the second one placed is instantiated from the matching pairs,
    with or without its own selection and a relative child after it."""
    rng = random.Random(seed)
    vdoc = VectorizedDocument.from_xml(DOCS["xmark"])
    for _ in range(4):
        (r1, o1), (r2, o2) = (rng.choice(d)
                              for d in [rng.choice(_JOIN_DOMAINS)] * 2)
        binds = f"for $a in {r1}, $b in {r2}"
        wheres = [f"$a{o1} = $b{o2}"]
        if rng.random() < 0.5:
            wheres.append(f"${rng.choice('ab')}/@id != 'person3'")
        if rng.random() < 0.5:
            binds += f", $c in ${rng.choice('ab')}/*"
        res = _assert_same(vdoc, f"{binds} where {' and '.join(wheres)} "
                                 "return <r>{$a}{$b}</r>")
        assert [op.extends is not None for op in res.plan.ops
                if op.kind == "join"] == [True]


def test_xq_result_shares_store_and_compresses_stepwise():
    vdoc = VectorizedDocument.from_xml(xmark_like_xml(60, seed=5))
    before = len(vdoc.store)
    res = eval_xq(vdoc, "for $p in /site/people/person "
                        "return <r><tag/>{$p/profile/education}</r>")
    out = res.vdoc
    # the result's node store is an overlay over the input's (subtree
    # splices are id reuse, not copies), which it never writes ...
    assert out.store.base is vdoc.store
    assert len(vdoc.store) == before
    assert res.n_tuples == 60
    # ... and hash-consing during construction collapses the 60 structurally
    # similar rows to a handful of fresh skeleton nodes
    fresh = len(out.store) - len(vdoc.store)
    assert fresh < 12, fresh
    stats = out.stats()
    assert stats["document_nodes"] >= 60
    assert stats["skeleton_nodes"] < 20


def test_xq_over_an_xq_result_matches_naive():
    """A result is a document like any other: XQ over it (an overlay over
    an overlay once it constructs) agrees with naive evaluation."""
    vdoc = VectorizedDocument.from_xml(xmark_like_xml(40, seed=3))
    mid = _assert_same(vdoc, "for $p in /site/people/person "
                             "where $p/profile/age > '30' "
                             "return <r>{$p/@id}{$p/name}{$p/profile}</r>")
    res = _assert_same(mid.vdoc, "for $r in /result/r "
                                 "where $r/profile/age < '50' "
                                 "return <s>{$r/name}{$r/profile/interest}</s>")
    assert res.vdoc.store.base is mid.vdoc.store
    assert mid.vdoc.store.base is vdoc.store
    assert res.n_tuples > 0


def test_xq_vx_forbids_decompression_and_counts_scans():
    vdoc = VectorizedDocument.from_xml(xmark_like_xml(25, seed=2))
    base = reconstruct_mod.DECOMPRESSION_COUNT
    ctx = EvalContext.for_doc(vdoc)
    res = eval_xq(vdoc, "for $c in //closed_auction, $p in //person "
                        "where $c/buyer = $p/@id and $p/profile/age > '30' "
                        "return <r>{$p/name}{$c/price}</r>", ctx=ctx)
    # reduction + construction decompress nothing ...
    assert reconstruct_mod.DECOMPRESSION_COUNT == base
    # ... and no input vector was scanned more than once for the whole query
    counts = ctx.scan_counts(vdoc)
    assert all(c <= 1 for c in counts.values())
    assert any(c == 1 for c in counts.values())
    # serializing the *result* decompresses only the result document
    res.to_xml()
    assert reconstruct_mod.DECOMPRESSION_COUNT == base + 1


def test_xq_empty_result_is_bare_root():
    vdoc = VectorizedDocument.from_xml(DOCS["fig1"])
    res = eval_xq(vdoc, "<none>{ for $b in //book "
                        "where $b/title = 'no such' return {$b} }</none>")
    assert res.n_tuples == 0
    assert res.to_xml() == "<none/>"
    assert res.to_xml() == eval_xq(
        vdoc, "<none>{ for $b in //book where $b/title = 'no such' "
              "return {$b} }</none>", mode="naive").to_xml()
