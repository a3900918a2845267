"""Repository layer: multi-document collections over one shared buffer
pool — path catalog, collection() queries, eviction fairness, corruption
isolation, and the repository fsck."""

import json
import os

import pytest

from repro.core.engine import eval_xq
from repro.core.qgraph import compile_query
from repro.core.vdoc import VectorizedDocument
from repro.core.xquery.parser import parse_xq
from repro.datasets.synth import xmark_like_xml
from repro.errors import StorageError, XQCompileError, XQSyntaxError
from repro.repo import (
    MANIFEST,
    Repository,
    RepositoryError,
    member_paths,
    verify_repository,
)
from repro.storage.vdocfile import open_vdoc
from repro.xmldata.model import Element
from repro.xmldata.serializer import serialize

SIZES = (14, 23, 9)
COLL_XQ = (
    "for $p in collection('auctions')/site/people/person "
    "where $p/profile/age > '40' "
    "return <r>{$p/name}{$p/profile/age}</r>"
)
PLAIN_XQ = (
    "for $p in /site/people/person where $p/profile/age > '40' "
    "return <r>{$p/name}{$p/profile/age}</r>"
)


def _docs(tmp_path):
    files = []
    for i, n in enumerate(SIZES):
        f = tmp_path / f"doc{i}.xml"
        f.write_text(xmark_like_xml(n, seed=i), encoding="utf-8")
        files.append(f)
    return files


def make_repo(tmp_path, pool_pages=None, page_size=512, indexed=False):
    """The three-member repository; ``indexed=True`` builds its twin whose
    members carry a value index on every vector (saved first, then added
    as ``.vdoc`` files)."""
    d = str(tmp_path / ("repo-indexed" if indexed else "repo"))
    repo = Repository.init(d, "auctions")
    for f in _docs(tmp_path):
        if indexed:
            vdoc = VectorizedDocument.from_xml(f.read_text(encoding="utf-8"))
            f = f.with_suffix(".vdoc")
            vdoc.save(str(f), page_size=page_size, index_paths="all")
        repo.add(str(f), page_size=page_size)
    repo.close()
    return Repository.open(d, pool_pages=pool_pages)


def expected_concat(tmp_path, query):
    """Reference: per-document in-memory evaluation, results concatenated
    member-major under one root."""
    xq = parse_xq(query)
    kids = []
    for f in _docs(tmp_path):
        vdoc = VectorizedDocument.from_xml(f.read_text(encoding="utf-8"))
        res = eval_xq(vdoc, xq)
        kids.extend(res.vdoc.to_tree().children)
    return serialize(Element(xq.root_tag, children=kids))


# -- manifest and catalog ----------------------------------------------------


def test_init_add_reopen_catalog(tmp_path):
    with make_repo(tmp_path) as repo:
        assert repo.name == "auctions"
        assert repo.members() == ["doc0", "doc1", "doc2"]
        cat = repo.catalog_paths()
        age = cat[("site", "people", "person", "profile", "age", "#")]
        assert age == {"doc0": 14, "doc1": 23, "doc2": 9}
        # the persisted catalog matches a recomputation from each member
        for name in repo.members():
            entry = repo._entry(name)
            assert [(tuple(p), c) for p, c in entry["paths"]] == \
                member_paths(repo.member(name))


def test_add_existing_vdoc_and_errors(tmp_path):
    d = str(tmp_path / "repo")
    repo = Repository.init(d, "auctions")
    xml = tmp_path / "x.xml"
    xml.write_text(xmark_like_xml(6), encoding="utf-8")
    vdoc = VectorizedDocument.from_xml(xml.read_text(encoding="utf-8"))
    saved = str(tmp_path / "pre.vdoc")
    vdoc.save(saved)

    repo.add(saved, name="copied")          # .vdoc files are copied in
    repo.add(str(xml), name="parsed")       # .xml files are vectorized
    assert repo.members() == ["copied", "parsed"]
    with pytest.raises(RepositoryError, match="already exists"):
        repo.add(str(xml), name="copied")

    # a corrupt source is rejected and rolled back: no member, no file
    bad = tmp_path / "bad.vdoc"
    bad.write_bytes(open(saved, "rb").read()[:600])
    with pytest.raises(StorageError):
        repo.add(str(bad), name="broken")
    assert repo.members() == ["copied", "parsed"]
    assert not os.path.exists(os.path.join(d, "broken.vdoc"))

    with pytest.raises(RepositoryError, match="already a repository"):
        Repository.init(d, "again")
    repo.close()


def test_add_rejects_unsafe_member_names(tmp_path):
    """Member names are validated at the membership boundary: a traversal
    name must never be turned into a path outside the repository, and a
    comma or CR/LF must never reach the comma-joined X-Pruned header."""
    d = str(tmp_path / "repo")
    repo = Repository.init(d, "auctions")
    src = tmp_path / "ok.xml"
    src.write_text("<r><a>1</a></r>", encoding="utf-8")
    for bad in ("../evil", "a/b", "a\\b", "a,b", "a\r\nb", "a b",
                ".hidden", "..", "", 42):
        with pytest.raises(RepositoryError, match="invalid member name"):
            repo.add(str(src), name=bad)
    assert repo.members() == []
    # rejection happened before any file was written — in particular no
    # 'evil.vdoc' escaped into the parent directory
    assert os.listdir(d) == [MANIFEST]
    assert not os.path.exists(str(tmp_path / "evil.vdoc"))

    # names covering the full allowed alphabet still work, including an
    # *interior* dot
    repo.add(str(src), name="ok-1.2_X")
    assert repo.members() == ["ok-1.2_X"]
    repo.close()

    # a default name derived from the filename passes through the same check
    evil = tmp_path / "not a slug!.xml"
    evil.write_text("<r/>", encoding="utf-8")
    with Repository.open(d) as repo:
        with pytest.raises(RepositoryError, match="invalid member name"):
            repo.add(str(evil))


def test_manifest_rejects_unsafe_member_names(tmp_path):
    """A hand-edited manifest with a traversal member name is refused at
    open — the slug check guards both ends."""
    repo = make_repo(tmp_path)
    d = repo.dirpath
    repo.close()
    mpath = os.path.join(d, MANIFEST)
    man = json.load(open(mpath, encoding="utf-8"))
    man["members"][0]["name"] = "../evil"
    json.dump(man, open(mpath, "w", encoding="utf-8"))
    with pytest.raises(RepositoryError, match="not a safe slug"):
        Repository.open(d)


def test_manifest_schema_is_strict(tmp_path):
    repo = make_repo(tmp_path)
    d = repo.dirpath
    repo.close()
    mpath = os.path.join(d, MANIFEST)
    good = json.load(open(mpath, encoding="utf-8"))

    for mutate, msg in [
        (lambda m: m.update(format=99), "unsupported format"),
        (lambda m: m.update(name=""), "collection name"),
        (lambda m: m["members"][0].update(name=good["members"][1]["name"]),
         "duplicate member"),
        (lambda m: m["members"][0].update(file="../evil.vdoc"), "bad file"),
        (lambda m: m["members"][0]["paths"].append([["p"], -1]),
         "bad path entry"),
        # JSON booleans are not counts (Python's bool is an int)
        (lambda m: m["members"][0]["paths"][0].__setitem__(1, True),
         "bad path entry"),
    ]:
        broken = json.loads(json.dumps(good))
        mutate(broken)
        json.dump(broken, open(mpath, "w", encoding="utf-8"))
        with pytest.raises(RepositoryError, match=msg):
            Repository.open(d)
        findings = verify_repository(d)
        assert len(findings) == 1 and findings[0].code == "repo-manifest"

    json.dump(good, open(mpath, "w", encoding="utf-8"))
    assert verify_repository(d) == []


def test_manifest_paths_must_be_strictly_ordered(tmp_path):
    """Pruning bisects a member's cataloged paths, and a duplicated path
    would silently keep one of two counts: an empty, repeated or
    out-of-order path is a located manifest error, not a wrong answer."""
    repo = make_repo(tmp_path)
    d = repo.dirpath
    repo.close()
    mpath = os.path.join(d, MANIFEST)
    good = json.load(open(mpath, encoding="utf-8"))
    paths = good["members"][0]["paths"]
    assert len(paths) > 3

    for mutate, entry in [
        (lambda ps: ps.insert(0, [[], 1]), [[], 1]),
        (lambda ps: ps.insert(2, [ps[1][0], 5]), [paths[1][0], 5]),
        (lambda ps: ps.insert(1, ps.pop(2)), paths[1]),
    ]:
        broken = json.loads(json.dumps(good))
        mutate(broken["members"][0]["paths"])
        json.dump(broken, open(mpath, "w", encoding="utf-8"))
        with pytest.raises(RepositoryError) as err:
            Repository.open(d)
        assert "member 'doc0'" in str(err.value)
        assert repr(entry) in str(err.value)
        findings = verify_repository(d)
        assert len(findings) == 1 and findings[0].code == "repo-manifest"

    json.dump(good, open(mpath, "w", encoding="utf-8"))
    assert verify_repository(d) == []


def test_fsck_catalog_cross_check(tmp_path):
    repo = make_repo(tmp_path)
    d = repo.dirpath
    repo.close()
    mpath = os.path.join(d, MANIFEST)
    m = json.load(open(mpath, encoding="utf-8"))
    # tamper one member's cataloged count: a stale catalog is a finding
    m["members"][1]["paths"][0][1] += 7
    json.dump(m, open(mpath, "w", encoding="utf-8"))
    findings = verify_repository(d)
    assert [f.code for f in findings] == ["repo-catalog"]
    assert "member 'doc1'" in findings[0].message


# -- collection() queries ----------------------------------------------------


def test_collection_parse_and_compile():
    xq = parse_xq(COLL_XQ)
    src = xq.bindings[0].source
    assert src.collection == "auctions"
    assert str(src).startswith("collection('auctions')")
    gq, _ = compile_query(xq)
    assert gq.collection == "auctions"

    with pytest.raises(XQSyntaxError, match="quoted name"):
        parse_xq("for $p in collection(auctions)/site return <r>{$p}</r>")
    with pytest.raises(XQSyntaxError, match="absolute path"):
        parse_xq("for $p in collection('a') return <r>{$p}</r>")
    with pytest.raises(XQCompileError, match="at most one collection"):
        compile_query(parse_xq(
            "for $a in collection('x')/site, $b in collection('y')/site "
            "return <r>{$a}</r>"))


def test_collection_name_must_match_repository(tmp_path):
    with make_repo(tmp_path) as repo:
        with pytest.raises(XQCompileError, match="'other'.*'auctions'"):
            repo.xq(COLL_XQ.replace("'auctions'", "'other'"))


def test_collection_query_matches_concatenated_per_doc(tmp_path):
    """The acceptance bar: collection() results over a shared pool smaller
    than the total vector bytes are byte-identical to concatenated
    per-document in-memory evaluation, with zero leaked pins pool-wide."""
    with make_repo(tmp_path, pool_pages=8, page_size=512) as repo:
        total_pages = sum(
            os.path.getsize(os.path.join(repo.dirpath, m["file"])) // 512
            for m in repo.manifest["members"])
        assert repo.pool.capacity < total_pages  # genuine pool pressure

        res = repo.xq(COLL_XQ)
        assert res.to_xml() == expected_concat(tmp_path, COLL_XQ)
        assert res.n_tuples == sum(r.n_tuples for _, r in res.results)
        assert repo.pool.pinned_total() == 0
        assert repo.pool.resident() <= repo.pool.capacity

        # a query with no collection() source ranges over all members too
        res2 = repo.xq(PLAIN_XQ)
        assert res2.to_xml() == expected_concat(tmp_path, PLAIN_XQ)

    # the indexed twin of the repository agrees byte for byte, and on an
    # equality selection its largest member really probes
    eq_xq = COLL_XQ.replace("$p/profile/age > '40'", "$p/name = 'name 3'")
    with make_repo(tmp_path, pool_pages=8, page_size=512,
                   indexed=True) as twin:
        assert twin.xq(COLL_XQ).to_xml() == expected_concat(tmp_path, COLL_XQ)
        res3 = twin.xq(eq_xq)
        assert any(op.access == "index"
                   for _, r in res3.results for op in r.plan.ops)
        assert res3.n_tuples > 0
        assert res3.to_xml() == expected_concat(tmp_path, eq_xq)


def test_member_store_is_frozen_after_open(tmp_path):
    """A served member answers many distinct queries without its skeleton
    store growing: every result interns into its own overlay."""
    with make_repo(tmp_path) as repo:
        name = repo.members()[0]
        store = repo.member(name).store
        n, n_interned = len(store), len(store._intern)
        for i in range(100):
            repo.xq(f"for $p in //person where $p/profile/age > '{i % 60}' "
                    f"return <w{i}>{{$p/name}}<k{i % 7}/></w{i}>")
        assert repo.member(name).store is store
        assert (len(store), len(store._intern)) == (n, n_interned)


def test_collection_xpath(tmp_path):
    with make_repo(tmp_path) as repo:
        out = repo.xpath("/site/people/person")
        assert [(n, r.count()) for n, r in out] == \
            [("doc0", 14), ("doc1", 23), ("doc2", 9)]


# -- shared pool behaviour ---------------------------------------------------


def test_shared_pool_eviction_fairness_and_stats(tmp_path):
    """3 documents on one tiny pool: every member gets pages in and out of
    the pool (no member starves or monopolizes frames), per-member and
    pool-wide counters agree, and pins end at zero."""
    with make_repo(tmp_path, pool_pages=6, page_size=512) as repo:
        repo.xq(COLL_XQ)
        stats = repo.io_stats()
        assert stats["pinned"] == 0
        assert stats["pool_resident"] <= 6
        assert stats["pool_evictions"] > 0
        views = repo.pool.views()
        assert len(views) == 3
        for name in repo.members():
            # every member did real I/O through the shared pool...
            assert stats[f"{name}.pages_read"] > 0
        # ...and nobody holds more frames than the pool can ever give up
        assert sum(v.stats.evictions for v in views) == \
            stats["pool_evictions"]
        assert sum(stats[f"{n}.pages_read"] for n in repo.members()) == \
            stats["pool_pages_read"]

        # a second run under pressure still satisfies every invariant
        repo.xq(COLL_XQ)
        assert repo.pool.pinned_total() == 0


def test_pool_strict_pins_under_minimum_capacity(tmp_path):
    """The pool refuses capacities that cannot hold one pinned page plus a
    victim; at the minimum viable capacity queries still complete."""
    repo = make_repo(tmp_path, pool_pages=2, page_size=512)
    with pytest.raises(StorageError):
        Repository.open(repo.dirpath, pool_pages=1)
    with repo:
        res = repo.xq(COLL_XQ)
        assert res.to_xml() == expected_concat(tmp_path, COLL_XQ)
        assert repo.pool.pinned_total() == 0


# -- corruption isolation ----------------------------------------------------


def _vector_pages(path, vec_path):
    """Page ids a vector's chain occupies (found by recording pins)."""
    from repro.storage import buffer as B

    pages: list[int] = []
    orig = B.FileView.pin

    def rec(self, pid, *a, **k):
        pages.append(pid)
        return orig(self, pid, *a, **k)

    B.FileView.pin = rec
    try:
        with open_vdoc(path) as vd:
            pages.clear()
            vd.vectors[vec_path].tolist()
    finally:
        B.FileView.pin = orig
    return sorted(set(pages))


def test_member_corruption_is_isolated(tmp_path):
    """Corrupting one member's data pages: the collection query fails with
    a StorageError naming that member, the shared pool is left clean, and
    sibling members remain fully queryable."""
    repo = make_repo(tmp_path, pool_pages=8, page_size=512)
    victim = os.path.join(repo.dirpath, "doc1.vdoc")
    age = ("site", "people", "person", "profile", "age", "#")
    page = _vector_pages(victim, age)[0]
    with open(victim, "r+b") as f:
        f.seek(page * 512 + 64)
        f.write(b"\xee" * 32)

    with pytest.raises(StorageError, match="member 'doc1'"):
        repo.xq(COLL_XQ)
    assert repo.pool.pinned_total() == 0  # the failure leaked nothing

    # siblings are untouched: query them directly over the same pool
    for name in ("doc0", "doc2"):
        res = eval_xq(repo.member(name), PLAIN_XQ)
        ref = eval_xq(VectorizedDocument.from_xml(
            (tmp_path / f"doc{name[-1]}.xml").read_text(encoding="utf-8")),
            PLAIN_XQ)
        assert res.to_xml() == ref.to_xml()
    assert repo.pool.pinned_total() == 0

    # fsck pins the blame on the member, by name
    findings = verify_repository(repo.dirpath)
    assert findings and all("member 'doc1'" in f.message for f in findings)
    repo.close()


def test_missing_member_file(tmp_path):
    repo = make_repo(tmp_path)
    os.unlink(os.path.join(repo.dirpath, "doc2.vdoc"))
    findings = verify_repository(repo.dirpath)
    assert [f.code for f in findings] == ["repo-member"]
    with pytest.raises(StorageError, match="member 'doc2'"):
        repo.xq(COLL_XQ)
    repo.close()


# -- the one member loop under xq() and xpath() ------------------------------

AGE_XPATH = "/site/people/person[profile/age > 40]/name"


def _run_xq(repo):
    res = repo.xq(PLAIN_XQ)
    return res.to_xml(), res.quarantined


def _run_xpath(repo):
    skipped: list = []
    out = repo.xpath(AGE_XPATH, skipped=skipped)
    return [(n, r.count()) for n, r in out if n != "noise"], skipped


@pytest.mark.parametrize("run", [_run_xq, _run_xpath])
def test_member_loop_is_the_same_sequence_for_both_kinds(tmp_path, run):
    """Both query kinds walk one loop: pruned (never opened) -> cache miss
    -> cache hit -> quarantined skip -> StorageError naming the member,
    with identical cache and quarantine counters at every step."""
    make_repo(tmp_path).close()
    d = str(tmp_path / "repo")
    noise = tmp_path / "noise.xml"
    noise.write_text(xmark_like_xml(6, seed=9).replace("site>", "store>"),
                     encoding="utf-8")
    with Repository.open(d) as repo:
        repo.add(str(noise), page_size=512)

    with Repository.open(d, pool_pages=16,
                         result_cache_bytes=1 << 20) as repo:
        cache, quarantine = repo.result_cache, repo.quarantine
        full, skipped = run(repo)
        assert skipped == [] and "noise" not in repo._open     # pruned
        assert sorted(repo._open) == ["doc0", "doc1", "doc2"]
        s = cache.stats()
        assert (s["misses"], s["hits"], s["entries"]) == (3, 0, 3)

        assert run(repo) == (full, [])                         # all hits
        s = cache.stats()
        assert (s["misses"], s["hits"], s["uncacheable"]) == (3, 3, 0)

        quarantine.quarantine("doc1", "test")
        degraded, skipped = run(repo)
        assert skipped == ["doc1"] and degraded != full
        assert quarantine.skips == 1
        assert cache.stats()["hits"] == 5     # the skip never asked

    victim = os.path.join(d, "doc2.vdoc")
    age = ("site", "people", "person", "profile", "age", "#")
    with open(victim, "r+b") as f:
        f.seek(_vector_pages(victim, age)[0] * 512 + 64)
        f.write(b"\xee" * 32)
    with Repository.open(d, pool_pages=16,
                         result_cache_bytes=1 << 20) as repo:
        with pytest.raises(StorageError, match="member 'doc2'"):
            run(repo)
        assert repo.quarantine.active() == ["doc2"]
        assert repo.pool.pinned_total() == 0
        assert "doc2" not in repo._open       # retired, not served again
        assert run(repo)[1] == ["doc2"]


# -- io_stats surface --------------------------------------------------------


def test_io_stats_per_member_and_pool_wide(tmp_path):
    with make_repo(tmp_path, pool_pages=8, page_size=512) as repo:
        before = repo.io_stats()
        assert before["pool_pages_read"] == 0   # members open lazily
        repo.xq(COLL_XQ)
        stats = repo.io_stats()
        assert set(stats) >= {
            "pool_pages_read", "pool_hits", "pool_misses", "pool_evictions",
            "pool_capacity", "pool_resident", "pinned",
            "doc0.pages_read", "doc1.pages_read", "doc2.pages_read",
        }
        assert stats["pool_capacity"] == 8
