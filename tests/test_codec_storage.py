"""Compressed vector storage, end to end: byte-identical query results
across memory / identity-coded / codec-coded files (``v3`` / ``v4``
below, after the formats that introduced them) under tiny buffer pools, the
zero-decode machine assertion for code-space predicate evaluation, the
planner's ``dict`` access path against its identity-coded twin,
compression accounting in IOStats and the catalog, the repository
manifest summary, and a targeted corruption sweep over a codec-rich
file (exact answer or located StorageError, never wrong bytes)."""

import hashlib
import random
import shutil

import pytest

from repro.core.context import EvalContext
from repro.core.engine import eval_query, eval_xq
from repro.core.vdoc import VectorizedDocument
from repro.errors import StorageError
from repro.repo import Repository
from repro.repo.repository import RepositoryError, _check_manifest
from repro.storage.fsck import verify_vdoc

CAT = ("r", "items", "it", "cat", "#")
ID = ("r", "items", "it", "id", "#")
NOTE = ("r", "items", "it", "note", "#")

XPATHS = [
    "/r/items/it[cat = 'c2']/id",
    "//it[id > 1150]/cat",
    "/r/items/it/note/text()",
    "//p[pid <= 1300]",
]

XQ_SELECT = ("for $i in /r/items/it where $i/cat = 'c2' "
             "return <o>{$i/id}</o>")
XQ_JOIN = ("for $i in /r/items/it, $p in /r/people/p "
           "where $i/id = $p/pid return <pair>{$i/cat}{$p/pid}</pair>")


def _xml(n=300):
    items = "".join(
        f"<it><id>{1000 + i}</id><cat>c{i % 5}</cat>"
        f"<note>shared prose, distinct tail number {i} of many</note></it>"
        for i in range(n))
    people = "".join(f"<p><pid>{1000 + i * 3}</pid></p>"
                     for i in range(n // 3))
    return f"<r><items>{items}</items><people>{people}</people></r>"


@pytest.fixture(scope="module")
def mem():
    return VectorizedDocument.from_xml(_xml())


@pytest.fixture(scope="module")
def saved(tmp_path_factory, mem, identity_doc):
    d = tmp_path_factory.mktemp("codec")
    v4, v3 = str(d / "doc4.vdoc"), str(d / "doc3.vdoc")
    s4 = mem.save(v4, page_size=256)
    s3 = identity_doc(_xml()).save(v3, page_size=256)
    return v4, v3, s4, s3


def test_save_summary_and_codec_mix(saved, mem):
    v4, _, s4, s3 = saved
    assert s4["format"] == s3["format"] == 6
    assert s4["compression_ratio"] < 0.8        # the doc is compressible
    assert 0 < s4["physical_bytes"] < s4["logical_bytes"]
    assert s4["codecs"].get("dict") and s4["codecs"].get("delta") \
        and s4["codecs"].get("zlib")
    # the identity twin is the same format, every vector stored as text
    assert s3["codecs"] == {"identity": len(mem.vectors)}
    assert s3["physical_bytes"] == s3["logical_bytes"] == s4["logical_bytes"]
    assert s3["compression_ratio"] == 1.0
    with VectorizedDocument.open(v4) as disk:
        assert disk.codec_of(CAT) == "dict"
        assert disk.codec_of(ID) == "delta"
        assert disk.codec_of(NOTE) == "zlib"


def test_compression_stats_are_catalog_only(saved):
    v4, v3, s4, _ = saved
    with VectorizedDocument.open(v4) as disk:
        comp = disk.compression_stats()
        # pure catalog math: no vector page was materialized for it
        assert not any(v.is_loaded() for v in disk.vectors.values())
        assert comp["logical_bytes"] == s4["logical_bytes"]
        assert comp["physical_bytes"] == s4["physical_bytes"]
        by_path = {v["path"]: v for v in comp["vectors"]}
        assert by_path["/".join(CAT)]["codec"] == "dict"
    with VectorizedDocument.open(v3) as disk:
        comp = disk.compression_stats()
        assert comp["compression_ratio"] == 1.0
        assert comp["physical_bytes"] == comp["logical_bytes"] \
            == s4["logical_bytes"]


@pytest.mark.parametrize("query", XPATHS)
def test_xpath_identical_memory_v3_v4_small_pool(saved, mem, query):
    v4, v3, _, _ = saved
    base = eval_query(mem, query)
    for path in (v3, v4):
        with VectorizedDocument.open(path, pool_pages=8) as disk:
            ctx = EvalContext.for_doc(disk)
            res = eval_query(disk, query, ctx=ctx)
            assert res.count() == base.count()
            assert res.text_values() == base.text_values()
            assert res.canonical() == base.canonical()
            assert disk.pool.pinned_total() == 0
            for v in disk.vectors.values():
                assert ctx.pages_in_window(v) <= v.n_pages


@pytest.mark.parametrize("xq", [XQ_SELECT, XQ_JOIN])
def test_xq_identical_memory_v3_v4_small_pool(saved, mem, xq):
    v4, v3, _, _ = saved
    base = eval_xq(mem, xq).to_xml()
    for path in (v3, v4):
        with VectorizedDocument.open(path, pool_pages=8) as disk:
            assert eval_xq(disk, xq).to_xml() == base
            assert disk.pool.pinned_total() == 0


def test_v4_reconstructs_byte_identically(saved, mem):
    v4, _, _, _ = saved
    with VectorizedDocument.open(v4, pool_pages=8) as disk:
        assert disk.to_xml() == mem.to_xml()


def test_dict_selection_runs_without_decoding(saved):
    """THE acceptance assertion: an equality selection over a dict-coded
    vector is planned with access='dict' and evaluated entirely in code
    space — the machine-checked decode count of that vector is zero."""
    v4, _, _, _ = saved
    with VectorizedDocument.open(v4, pool_pages=8) as disk:
        ctx = EvalContext.for_doc(disk)
        res = eval_xq(disk, XQ_SELECT, ctx=ctx)
        assert "[dict ]" in res.plan.explain()
        dec = ctx.decode_counts(disk)
        assert dec[CAT] == 0, "dict-eq selection decoded the predicate vector"
        assert res.n_tuples == 60


def test_identity_twin_evaluates_on_strings_byte_identically(saved, mem):
    """Code space vs. strings, as twins: the identity-coded save of the
    same document has no dictionary to sweep, so the same query runs the
    string compare there — and answers with the same bytes."""
    v4, v3, _, _ = saved
    oracle = eval_xq(mem, XQ_SELECT, mode="naive").to_xml()
    with VectorizedDocument.open(v4, pool_pages=8) as disk:
        on = eval_xq(disk, XQ_SELECT)
        assert "[dict ]" in on.plan.explain()
    with VectorizedDocument.open(v3, pool_pages=8) as disk:
        ctx = EvalContext.for_doc(disk)
        off = eval_xq(disk, XQ_SELECT, ctx=ctx)
        assert "[dict ]" not in off.plan.explain()
        dec = ctx.decode_counts(disk)
        assert dec[CAT] > 0      # the twin really decodes the strings
    assert off.to_xml() == on.to_xml() == oracle


def test_xpath_dict_predicate_runs_without_decoding(saved):
    v4, _, _, _ = saved
    with VectorizedDocument.open(v4, pool_pages=8) as disk:
        ctx = EvalContext.for_doc(disk)
        res = eval_query(disk, "/r/items/it[cat = 'c2']", ctx=ctx)
        assert res.count() == 60
        assert ctx.decode_counts(disk)[CAT] == 0


def test_numeric_predicates_skip_decoding_on_coded_vectors(saved):
    """Ordering predicates over delta-coded vectors come from the int64
    state; the string column is never built."""
    v4, _, _, _ = saved
    with VectorizedDocument.open(v4, pool_pages=8) as disk:
        ctx = EvalContext.for_doc(disk)
        eval_query(disk, "//it[id > 1150]", ctx=ctx)
        assert ctx.decode_counts(disk)[ID] == 0


def test_iostats_compression_accounting(saved):
    v4, _, s4, _ = saved
    with VectorizedDocument.open(v4) as disk:
        for vec in disk.vectors.values():
            vec.tolist()
        st = disk.pool.stats
        assert st.logical_bytes == s4["logical_bytes"]
        assert st.physical_bytes == s4["physical_bytes"]
        assert st.compression_ratio() == pytest.approx(
            s4["compression_ratio"], abs=1e-4)
        # every value was handed out as a string at least once
        total = sum(len(v) for v in disk.vectors.values())
        assert st.decoded_values == total
        d = st.as_dict()
        for key in ("logical_bytes", "physical_bytes", "decoded_values",
                    "compression_ratio"):
            assert key in d


def _high_cardinality_xml(n=300):
    """Distinct high-entropy values: dict and delta coding are
    inapplicable, zlib gains little — v4's fallback edge."""
    items = "".join(
        f"<it><v>{hashlib.sha256(str(i).encode()).hexdigest()[:20]}</v></it>"
        for i in range(n))
    return f"<r><items>{items}</items></r>"


@pytest.mark.parametrize("xml, compressible", [
    (_xml(), True), (_high_cardinality_xml(), False)],
    ids=["low-cardinality", "high-cardinality"])
def test_v4_cold_pages_track_compression_ratio(tmp_path, xml, compressible,
                                               identity_doc):
    """The perf claim, asserted structurally: reading every vector cold
    from a codec-coded file (v4) costs fewer pages than from its
    identity-coded twin (v3), roughly in proportion to the byte-level
    compression ratio — and where compression fails, the file degrades
    to (almost) its identity twin, never worse."""
    doc = VectorizedDocument.from_xml(xml)
    v4, v3 = str(tmp_path / "doc4.vdoc"), str(tmp_path / "doc3.vdoc")
    s4 = doc.save(v4, page_size=256)
    s3 = identity_doc(xml).save(v3, page_size=256)

    def cold_vector_pages(path):
        with VectorizedDocument.open(path, pool_pages=8) as disk:
            before = disk.view.stats.pages_read   # catalog + skeleton
            assert disk.to_xml() == xml         # byte-identical round trip
            return disk.view.stats.pages_read - before

    p4, p3 = cold_vector_pages(v4), cold_vector_pages(v3)
    assert p4 <= 1.02 * p3 + 2
    assert s4["pages"] <= 1.02 * s3["pages"] + 2
    if compressible:
        assert p4 < p3
        # paging granularity is coarse (256B pages, per-chain rounding),
        # so allow generous slack around the exact byte ratio
        assert p4 / p3 < s4["compression_ratio"] + 0.25


def test_fsck_deep_verifies_codec_chains(saved):
    v4, _, _, _ = saved
    assert verify_vdoc(v4, deep=True) == []


def test_fsck_deep_catches_pbytes_lie(saved, tmp_path):
    """A catalog whose pbytes disagrees with the chain is a deep finding
    (shallow checks can't see it: pages and records are all valid)."""
    v4, _, _, _ = saved
    work = str(tmp_path / "lied.vdoc")
    shutil.copyfile(v4, work)
    with VectorizedDocument.open(work) as disk:
        vec = disk.vectors[CAT]
        vec._pbytes += 1
        with pytest.raises(StorageError, match="encoded bytes"):
            vec.tolist()


# -- repository manifest summary --------------------------------------------

def test_repo_manifest_records_compression(tmp_path, saved):
    v4, v3, s4, _ = saved
    repo_dir = str(tmp_path / "repo")
    with Repository.init(repo_dir, "col") as repo:
        repo.add(v4, name="m4")
        repo.add(v3, name="m3")
    with Repository.open(repo_dir) as repo:
        e4 = repo._entry("m4")
        comp = e4["compression"]
        assert comp["logical_bytes"] == s4["logical_bytes"]
        assert comp["physical_bytes"] == s4["physical_bytes"]
        assert comp["codecs"] == s4["codecs"]
        assert repo._entry("m3")["compression"]["codecs"] == \
            {"identity": s4["vectors"]}
        # the codec-coded member and its identity-coded twin answer
        # with the same bytes (code space vs. strings)
        by_member = dict(repo.xq(XQ_SELECT).results)
        assert by_member["m4"].fragment() == by_member["m3"].fragment() != ""


def test_manifest_rejects_bad_compression_entry():
    base = {"format": 1, "name": "c", "members": [
        {"name": "m", "file": "m.vdoc", "paths": [],
         "compression": {"logical_bytes": -1, "physical_bytes": 0,
                         "codecs": {}}}]}
    with pytest.raises(RepositoryError, match="compression"):
        _check_manifest(base)
    base["members"][0]["compression"] = {
        "logical_bytes": 1, "physical_bytes": 1, "codecs": {"dict": "x"}}
    with pytest.raises(RepositoryError, match="compression"):
        _check_manifest(base)
    # JSON booleans are not byte or codec counts (Python's bool is an int)
    for comp in ({"logical_bytes": True, "physical_bytes": 1, "codecs": {}},
                 {"logical_bytes": 1, "physical_bytes": False, "codecs": {}},
                 {"logical_bytes": 1, "physical_bytes": 1,
                  "codecs": {"dict": True}}):
        base["members"][0]["compression"] = comp
        with pytest.raises(RepositoryError, match="compression"):
            _check_manifest(base)
    base["members"][0]["compression"] = {
        "logical_bytes": 1, "physical_bytes": 1, "codecs": {"dict": 2}}
    assert _check_manifest(base)
    del base["members"][0]["compression"]    # every member records one
    with pytest.raises(RepositoryError, match="compression"):
        _check_manifest(base)


# -- corruption: exact answer or located StorageError ------------------------

N_SEEDS = 60


def test_bitflip_sweep_over_codec_rich_file(saved, tmp_path):
    """Single-bit corruption anywhere in a v4 file whose chains are
    dict/delta/zlib-coded: every query returns the exact clean answer or
    raises StorageError, and fsck flags the damage."""
    v4, _, _, _ = saved
    with VectorizedDocument.open(v4, pool_pages=8) as disk:
        base_x = eval_query(disk, XPATHS[0]).canonical()
    with VectorizedDocument.open(v4, pool_pages=8) as disk:
        base_q = eval_xq(disk, XQ_SELECT).to_xml()
    work = str(tmp_path / "flipped.vdoc")
    raised = correct = 0
    for seed in range(N_SEEDS):
        rng = random.Random(seed)
        shutil.copyfile(v4, work)
        with open(work, "r+b") as f:
            f.seek(0, 2)
            off = rng.randrange(f.tell())
            f.seek(off)
            byte = f.read(1)[0]
            f.seek(off)
            f.write(bytes([byte ^ (1 << rng.randrange(8))]))
        for run in (lambda d: eval_query(d, XPATHS[0]).canonical() == base_x,
                    lambda d: eval_xq(d, XQ_SELECT).to_xml() == base_q):
            try:
                with VectorizedDocument.open(work, pool_pages=8) as disk:
                    assert run(disk), "corrupted v4 returned WRONG bytes"
                correct += 1
            except StorageError:
                raised += 1
        assert verify_vdoc(work), f"seed {seed}: flip at {off} not found"
    assert raised and correct      # both outcomes must occur
