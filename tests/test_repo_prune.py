"""Repository catalog pruning: members the manifest proves empty are
skipped with zero page I/O, survivors are evaluated
most-selective-first, and results stay byte-identical to evaluating every
member and concatenating in manifest order (XQ and XPath)."""

import pytest

from repro.core import paths as paths_mod
from repro.core.engine import eval_query, eval_xq
from repro.core.paths import no_checkpoint
from repro.core.planner import member_can_match, plan_query
from repro.core.qgraph import compile_query
from repro.core.xquery.parser import parse_xq
from repro.datasets.synth import xmark_like_xml
from repro.repo.repository import Repository

XQ = ("for $p in /site/people/person where $p/profile/age > '30' "
      "return <r>{$p/name}{$p/profile/age}</r>")
XQ_JOIN = ("for $c in /site/closed_auctions/closed_auction, "
           "$p in /site/people/person where $c/buyer = $p/@id "
           "return <pair>{$p/name}{$c/price}</pair>")
XPATH = "/site/people/person/name"


def _store_xml(n, seed):
    """Same synthetic shape, different vocabulary: no path aligns with
    /site queries."""
    xml = xmark_like_xml(n, seed=seed)
    return xml.replace("<site>", "<store>", 1).replace("</site>", "</store>")


@pytest.fixture()
def repo(tmp_path):
    """Two matching members (sizes 25 and 8) and two that cannot match."""
    specs = [("big", xmark_like_xml(25, seed=1)),
             ("small", xmark_like_xml(8, seed=2)),
             ("noise0", _store_xml(10, 3)),
             ("noise1", _store_xml(5, 4))]
    for name, xml in specs:
        (tmp_path / f"{name}.xml").write_text(xml, encoding="utf-8")
    with Repository.init(str(tmp_path / "r.repo"), name="r",
                         pool_pages=32) as repo:
        for name, _ in specs:
            repo.add(str(tmp_path / f"{name}.xml"), page_size=512)
        yield repo


def test_pruned_members_cost_zero_pages(repo):
    result = repo.xq(XQ)
    assert sorted(result.pruned) == ["noise0", "noise1"]
    stats = repo.io_stats()
    for name in ("noise0", "noise1"):
        # a pruned member is never even opened, let alone read
        assert name not in repo._open
        assert stats.get(f"{name}.pages_read", 0) == 0
    for name in ("big", "small"):
        assert stats[f"{name}.pages_read"] > 0


def _every_member_xq(repo, query):
    """The unpruned reference: *every* member evaluated on its own, the
    root-tag-free fragments concatenated in manifest order."""
    inner = "".join(eval_xq(repo.member(name), query).fragment()
                    for name in repo.members())
    return f"<result>{inner}</result>"


def test_pruning_preserves_bytes(repo):
    for query in (XQ, XQ_JOIN):
        pruned = repo.xq(query)
        assert sorted(pruned.pruned) == ["noise0", "noise1"]
        assert pruned.to_xml() == _every_member_xq(repo, query)


def test_one_matcher_pass_per_guide(repo, monkeypatch):
    """``Repository.xq`` binds each member's manifest guide once — pruning
    and ordering read the same binding — and each opened member's own
    guide once, in its plan; the reduction resolves nothing.  Each pass
    sees only the guide's paths ending in the last step's label."""
    seen = []
    real = paths_mod._alignments

    def spy(tests, cpath):
        seen.append(cpath)
        return real(tests, cpath)

    monkeypatch.setattr(paths_mod, "_alignments", spy)
    result = repo.xq(XQ)
    assert [name for name, _ in result.results] == ["big", "small"]
    manifest = [tuple(p) for m in repo.manifest["members"]
                for p, _ in m["paths"] if p[-1] == "person"]
    opened = [p for name in ("small", "big")
              for p in repo.member(name).catalog.dataguide()
              if p[-1] == "person"]
    assert len(manifest) == 4 and len(opened) == 2
    assert seen == manifest + opened


def test_results_come_back_in_manifest_order(repo):
    result = repo.xq(XQ)
    assert [name for name, _ in result.results] == ["big", "small"]


def test_survivors_ordered_most_selective_first(repo):
    gq, _ = compile_query(parse_xq(XQ))
    order, pruned = repo._member_order(gq, no_checkpoint)
    # "small" (8 people) has the lower occurrence estimate: goes first
    assert order == ["small", "big"]
    assert sorted(pruned) == ["noise0", "noise1"]


def test_all_members_survive_a_universal_query(repo):
    gq, _ = compile_query(parse_xq(
        "for $p in //person return <r>{$p/name}</r>"))
    order, pruned = repo._member_order(gq, no_checkpoint)
    assert pruned == [] and sorted(order) == ["big", "noise0", "noise1",
                                              "small"]
    # the noise members *do* hold //person paths under their own root
    result = repo.xq("for $p in //person return <r>{$p/name}</r>")
    assert result.pruned == []


def test_selection_path_absence_prunes(repo):
    """A member whose dataguide lacks the selection's text path cannot
    satisfy the conjunction — pruned even though the variable binds."""
    result = repo.xq("for $p in //person where $p/bogus = 'x' "
                     "return <r>{$p/name}</r>")
    assert sorted(result.pruned) == ["big", "noise0", "noise1", "small"]
    assert result.results == []


def test_xpath_pruning_skips_unalignable_members(repo):
    results = dict(repo.xpath(XPATH))
    assert results["noise0"].count() == 0
    assert results["noise1"].count() == 0
    assert "noise0" not in repo._open and "noise1" not in repo._open
    assert results["big"].count() == 25
    # identical answers when every member is opened and evaluated
    full = {n: eval_query(repo.member(n), XPATH) for n in repo.members()}
    assert {n: r.count() for n, r in results.items()} == \
        {n: r.count() for n, r in full.items()}
    assert results["big"].canonical() == full["big"].canonical()


def test_pruned_xq_member_count_matches(repo):
    result = repo.xq(XQ_JOIN)
    assert len(result.results) + len(result.pruned) == 4


def test_manifest_side_and_document_side_agree(repo):
    """``member_can_match`` over the ``repo.json`` paths says ``False``
    exactly where planning the opened member finds a variable without a
    candidate path or a comparison operand without a text path — the two
    sides resolve through the same structure, built from different
    inputs."""
    queries = [
        XQ, XQ_JOIN,
        "for $p in //person return <r>{$p/name}</r>",
        "for $p in //person where $p/bogus = 'x' return <r>{$p/name}</r>",
        "for $p in /site/*/person, $a in $p//age where $a > '30' "
        "return <r>{$a}</r>",
        "for $p in //people, $n in $p/*/name/text() where $n = 'name 3' "
        "return <r>{$n}</r>",
        "for $s in /store, $i in $s//item where $i/quantity > '2' "
        "return <r>{$i/name}</r>",
        "for $c in //closed_auction, $p in //person "
        "where $c/nope = $p/@id return <r>{$p/name}</r>",
    ]
    verdicts = set()
    for query in queries:
        gq, _ = compile_query(parse_xq(query))
        for m in repo.manifest["members"]:
            vdoc = repo.member(m["name"])
            index = vdoc.catalog.index
            plan = plan_query(gq, vdoc)

            def has_text(var, rel):
                return any(
                    rel == ("#",) if cp[-1] == "#"
                    else index((*cp, *rel)) is not None
                    for cp in plan.var_paths[var])

            empty = (
                any(not plan.var_paths[v] for v in gq.variables)
                or any(not has_text(s.var, s.rel) for s in gq.selections)
                or any(not has_text(j.var1, j.rel1)
                       or not has_text(j.var2, j.rel2) for j in gq.joins))
            can = member_can_match(gq, [tuple(p) for p, _ in m["paths"]])
            assert can == (not empty), (query, m["name"])
            if not can:
                assert eval_xq(vdoc, query).n_tuples == 0
            verdicts.add(can)
    assert verdicts == {True, False}
