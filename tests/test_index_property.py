"""Property test of the twin identity: random documents and random
queries (joins included) must produce the naive oracle's bytes on every
twin — index probes and column scans, code space and strings, memory
and disk — and the one equality-join kernel is pinned down on its own.
Plus the repository corollary: a query no member can match answers
empty with zero page I/O."""

import random

import numpy as np

from repro.core.context import EvalContext
from repro.core.engine import eval_xq
from repro.core.vdoc import VectorizedDocument
from repro.datasets.synth import xmark_like_xml
from repro.repo.repository import Repository

N_SEEDS = 25

VOCAB = ["alpha", "beta", "7", "-3.5", "0", "12e1", "nan",
         "name 3", "x y", "7.0", ""]
OPS = ["=", "!=", "<", "<=", ">", ">="]
CONSTS = VOCAB + ["zzz", "7.25", "-99"]


def _random_xml(rng, n):
    recs = []
    for _ in range(n):
        fields = [f"<a>{rng.choice(VOCAB)}</a>"]
        if rng.random() < 0.7:
            fields.append(f"<b>{rng.choice(VOCAB)}</b>")
        if rng.random() < 0.5:
            attr = f' t="{rng.choice(VOCAB)}"' if rng.random() < 0.5 else ""
            fields.append(f"<c{attr}>{rng.choice(VOCAB)}</c>")
        recs.append(f"<rec>{''.join(fields)}</rec>")
    return f"<db>{''.join(recs)}</db>"


def _random_query(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return (f"for $r in /db/rec where $r/a {rng.choice(OPS)} "
                f"'{rng.choice(CONSTS)}' return <o>{{$r/b}}</o>")
    if kind == 1:
        return (f"for $r in /db/rec where $r/a = '{rng.choice(CONSTS)}' "
                f"and $r/b {rng.choice(OPS)} '{rng.choice(CONSTS)}' "
                f"return <o>{{$r/c}}</o>")
    if kind == 2:
        return (f"for $r in /db/rec where $r/c/@t = '{rng.choice(CONSTS)}' "
                f"return <o>{{$r/a}}</o>")
    return ("for $r in /db/rec, $s in /db/rec where $r/a = $s/b "
            "return <o>{$r/a}{$s/c}</o>")


def test_random_docs_and_queries_indexed_equals_scan(twins):
    probed = 0
    for seed in range(N_SEEDS):
        rng = random.Random(seed)
        t = twins(_random_xml(rng, rng.randint(5, 40)))
        with t.open("indexed") as indexed, t.open("coded") as coded:
            for _ in range(6):
                query = _random_query(rng)
                oracle = t.naive(query)
                ix = eval_xq(indexed, query)
                scan = eval_xq(coded, query)
                assert ix.to_xml() == oracle, (seed, query)
                assert scan.to_xml() == oracle, (seed, query)
                assert all(op.access != "index" for op in scan.plan.ops)
                probed += sum(op.access == "index" for op in ix.plan.ops)
    # the property must not hold vacuously: plenty of plans chose a probe
    assert probed > N_SEEDS


def test_random_docs_indexed_equals_scan_on_disk(twins):
    for seed in (1, 5, 11):
        rng = random.Random(1000 + seed)
        t = twins(_random_xml(rng, rng.randint(20, 60)))
        for _ in range(4):
            query = _random_query(rng)
            oracle = t.naive(query)
            for name, doc in t.each(pool_pages=32):
                assert eval_xq(doc, query).to_xml() == oracle, \
                    (seed, query, name)


# -- the one equality-join kernel --------------------------------------------

#: few distinct values over many rows: stored dictionary-coded
LOW = [f"value-{i}" for i in range(6)]


def _join_xml(rng, n):
    """Both join operands resolve to two concrete paths under ``//``
    (``g1|g2/rec/k``, ``h1|h2/row/f``); ``k``/``f`` are missing on some
    rows and repeated on others; ``g1`` and ``h1`` draw from a small
    shared vocabulary (dict-coded on disk), ``g2`` and ``h2`` from
    mostly-distinct strings that only partly overlap it and each other."""
    def high(tag):
        return rng.choice(LOW) if rng.random() < 0.15 \
            else f"{tag}{rng.randrange(n)}"

    def group(outer, inner, field, value):
        rows = []
        for i in range(n):
            vals = [value() for _ in range(rng.choice((0, 1, 1, 2)))]
            rows.append(f"<{inner}><id>{outer}{i}</id>"
                        + "".join(f"<{field}>{v}</{field}>" for v in vals)
                        + f"</{inner}>")
        return f"<{outer}>{''.join(rows)}</{outer}>"

    return ("<db>"
            + group("g1", "rec", "k", lambda: rng.choice(LOW))
            + group("g2", "rec", "k", lambda: high("s"))
            + group("h1", "row", "f", lambda: rng.choice(LOW[2:] + ["value-w"]))
            + group("h2", "row", "f", lambda: high(rng.choice("st")))
            + "</db>")


def test_join_kernel_matches_naive_on_every_twin(twins):
    for seed in (3, 8):
        t = twins(_join_xml(random.Random(seed), 40))
        with t.open("coded") as doc:
            codecs = {g: doc.codec_of(("db", g, inner, field, "#"))
                      for g, inner, field in (("g1", "rec", "k"),
                                              ("g2", "rec", "k"),
                                              ("h1", "row", "f"),
                                              ("h2", "row", "f"))}
        # dict-coded and non-dict operands really meet in one join
        assert codecs["g1"] == codecs["h1"] == "dict", codecs
        assert "dict" not in (codecs["g2"], codecs["h2"]), codecs
        for op in ("=", "!="):
            query = (f"for $r in //rec, $s in //row where $r/k {op} $s/f "
                     "return <o>{$r/id}{$s/id}</o>")
            oracle = t.naive(query)
            assert oracle.count("<o>") > 10
            for name, doc in t.each(pool_pages=32):
                res = eval_xq(doc, query)
                assert res.to_xml() == oracle, (seed, op, name)
                assert [o.access for o in res.plan.ops
                        if o.kind == "join"] == ["scan"]


def test_join_of_dict_coded_vectors_decodes_nothing(twins):
    """Both operands dictionary-coded: the join runs on the stored codes
    and one dictionary merge — zero decoded values on either vector."""
    rng = random.Random(2)
    t = twins(_join_xml(rng, 60))
    k, f = ("db", "g1", "rec", "k", "#"), ("db", "h1", "row", "f", "#")
    query = ("for $r in /db/g1/rec, $s in /db/h1/row where $r/k = $s/f "
             "return <o>{$r/id}{$s/id}</o>")
    with t.open("coded") as doc:
        assert doc.codec_of(k) == doc.codec_of(f) == "dict"
        ctx = EvalContext.for_doc(doc)
        res = eval_xq(doc, query, ctx=ctx)
        assert res.n_tuples > 0 and res.to_xml() == t.naive(query)
        dec = ctx.decode_counts(doc)
        assert dec[k] == 0 and dec[f] == 0
        assert ctx.scan_counts(doc)[k] == ctx.scan_counts(doc)[f] == 1


def test_join_codes_only_the_values_it_reaches(monkeypatch):
    """A selective prefix leaves few rows at the join: the string work
    of coding a 20k-value operand is bounded by the rows that reach it
    (``VectorCache.value_codes`` uniques the distinct reached ordinals),
    not by the vector."""
    n = 20_000
    items = "".join(f"<it><id>i{i}</id><tag>t{i % 5000}</tag></it>"
                    for i in range(n))
    xml = f"<r>{items}<p><pid>i7</pid></p><p><pid>i5007</pid></p></r>"
    doc = VectorizedDocument.from_xml(xml)   # neither operand is dict-coded
    query = ("for $a in /r/it, $b in /r/p where $a/tag = 't7' "
             "and $a/id = $b/pid return <o>{$a/id}</o>")
    seen = []
    real = np.unique

    def spy(ar, *args, **kwargs):
        if np.asarray(ar).dtype.kind == "U":
            seen.append(len(ar))
        return real(ar, *args, **kwargs)

    assert len(doc.vectors[("r", "it", "id", "#")]) == n
    monkeypatch.setattr(np, "unique", spy)
    res = eval_xq(doc, query)
    monkeypatch.undo()
    assert res.n_tuples == 2
    rows_at_join = 4 * 2        # 4 items tagged t7 x 2 people
    assert seen and max(seen) <= rows_at_join


def test_repo_query_no_member_can_match_is_empty_and_free(tmp_path):
    """All members pruned by the catalog: the answer is the empty result
    and not one page of any member is read (they are never even opened)."""
    for i in range(2):
        xml = xmark_like_xml(6 + i, seed=40 + i)
        (tmp_path / f"m{i}.xml").write_text(xml, encoding="utf-8")
    with Repository.init(str(tmp_path / "r.repo"), name="r",
                         pool_pages=16) as repo:
        for i in range(2):
            repo.add(str(tmp_path / f"m{i}.xml"), page_size=512)
        before = repo.pool.stats.pages_read
        result = repo.xq(
            "for $x in /store/shelf where $x/tag = 'v' "
            "return <o>{$x/tag}</o>")
        assert sorted(result.pruned) == ["m0", "m1"]
        assert result.results == []
        assert "<result/>" in result.to_xml()
        assert repo.pool.stats.pages_read == before
        assert repo._open == {}
