"""The repository result cache: LRU unit behavior, byte-identical hits,
invalidation on membership change, and structural staleness via the
file-identity cache key (mtime/size)."""

import os
import threading

import pytest

from repro.datasets.synth import xmark_like_xml
from repro.repo import Repository, ResultCache

XQ = ("for $p in /site/people/person where $p/profile/age > '30' "
      "return <r>{$p/name}{$p/profile/age}</r>")


# -- ResultCache unit behavior -----------------------------------------------


def test_put_get_roundtrip_and_counters():
    c = ResultCache(4096)
    assert c.get("k") is None
    c.put("k", ("frag", 3), 100)
    assert c.get("k") == ("frag", 3)
    s = c.stats()
    assert s["hits"] == 1 and s["misses"] == 1 and s["hit_rate"] == 0.5
    assert s["entries"] == 1 and 0 < s["bytes"] <= 4096


def test_lru_eviction_by_bytes():
    c = ResultCache(1100)    # fits two ~(400+overhead) entries, not three
    c.put("a", "A", 400)
    c.put("b", "B", 400)
    c.put("c", "C", 400)     # evicts the least recently used: "a"
    assert c.get("a") is None
    assert c.get("b") == "B" and c.get("c") == "C"
    assert c.stats()["evictions"] == 1


def test_get_refreshes_recency():
    c = ResultCache(1100)
    c.put("a", "A", 400)
    c.put("b", "B", 400)
    assert c.get("a") == "A"   # touch "a": now "b" is the LRU victim
    c.put("c", "C", 400)
    assert c.get("b") is None
    assert c.get("a") == "A" and c.get("c") == "C"


def test_oversized_value_is_not_cached():
    c = ResultCache(256)
    c.put("big", "X" * 1000, 1000)
    assert c.get("big") is None
    assert len(c) == 0 and c.stats()["bytes"] == 0


def test_replacing_a_key_updates_bytes():
    c = ResultCache(4096)
    c.put("k", "v1", 100)
    c.put("k", "v2", 200)
    assert c.get("k") == "v2"
    assert len(c) == 1
    s = c.stats()
    assert s["bytes"] == 200 + 128  # one entry, the new cost only


def test_clear_counts_invalidations():
    c = ResultCache(4096)
    c.put("a", 1, 10)
    c.put("b", 2, 10)
    assert c.clear() == 2
    assert len(c) == 0 and c.get("a") is None
    assert c.stats()["invalidations"] == 2


def test_max_bytes_must_be_positive():
    with pytest.raises(ValueError):
        ResultCache(0)


def test_cache_is_thread_safe():
    c = ResultCache(1 << 16)
    errors = []

    def worker(base):
        try:
            for i in range(200):
                k = (base + i) % 37
                c.put(k, k, 64)
                v = c.get(k)
                assert v is None or v == k
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i * 13,))
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert c.stats()["bytes"] <= 1 << 16


# -- repository integration --------------------------------------------------


def _make_repo(tmp_path, n_members=3, **open_kw):
    d = str(tmp_path / "repo")
    repo = Repository.init(d, "auctions")
    for i in range(n_members):
        f = tmp_path / f"doc{i}.xml"
        f.write_text(xmark_like_xml(8 + 4 * i, seed=i), encoding="utf-8")
        repo.add(str(f), page_size=512)
    repo.close()
    return Repository.open(d, **open_kw)


def test_repo_without_cache_has_none(tmp_path):
    with _make_repo(tmp_path) as repo:
        assert repo.result_cache is None
        repo.xq(XQ)   # still evaluates fine


def test_xq_hits_are_byte_identical(tmp_path):
    with _make_repo(tmp_path, result_cache_bytes=1 << 20) as repo:
        cold = repo.xq(XQ)
        cold_xml, cold_tuples = cold.to_xml(), cold.n_tuples
        assert repo.result_cache.stats()["hits"] == 0
        warm = repo.xq(XQ)
        assert warm.to_xml() == cold_xml
        assert warm.n_tuples == cold_tuples
        assert warm.pruned == cold.pruned
        s = repo.result_cache.stats()
        assert s["hits"] == 3 and s["entries"] == 3  # one per member
        # surrounding whitespace is normalized away; inner text is not
        assert repo.xq("  " + XQ + "\n").to_xml() == cold_xml
        assert repo.result_cache.stats()["hits"] == 6


def test_add_invalidates_cache(tmp_path):
    with _make_repo(tmp_path, result_cache_bytes=1 << 20) as repo:
        before = repo.xq(XQ).to_xml()
        assert len(repo.result_cache) > 0
        extra = tmp_path / "extra.xml"
        extra.write_text(xmark_like_xml(12, seed=9), encoding="utf-8")
        repo.add(str(extra), page_size=512)
        assert len(repo.result_cache) == 0
        assert repo.result_cache.stats()["invalidations"] >= 3
        after = repo.xq(XQ)
        assert "extra" in [n for n, _ in after.results]
        assert after.to_xml() != before      # the new member contributes


def test_mtime_change_misses_structurally(tmp_path):
    """The key embeds the member file's (mtime_ns, size): touching the
    file makes every cached entry for it unreachable — staleness is a
    property of the key, not of an invalidation hook someone must call."""
    with _make_repo(tmp_path, result_cache_bytes=1 << 20) as repo:
        repo.xq(XQ)
        s0 = repo.result_cache.stats()
        f = os.path.join(repo.dirpath, "doc1.vdoc")
        st = os.stat(f)
        os.utime(f, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
        warm = repo.xq(XQ)
        s1 = repo.result_cache.stats()
        # doc0/doc2 hit; doc1's old entry is unreachable under the new key
        assert s1["hits"] - s0["hits"] == 2
        assert s1["misses"] - s0["misses"] == 1
        assert warm.to_xml() == repo.xq(XQ).to_xml()


def test_tiny_cache_still_correct(tmp_path):
    """A cache too small to hold the fragments degrades to evaluation,
    never to wrong answers."""
    with _make_repo(tmp_path, result_cache_bytes=1) as repo:
        a = repo.xq(XQ).to_xml()
        b = repo.xq(XQ).to_xml()
        assert a == b
        assert len(repo.result_cache) == 0   # nothing fit


def test_concurrent_cached_queries_byte_identical(tmp_path):
    with _make_repo(tmp_path, pool_pages=64,
                    result_cache_bytes=1 << 20) as repo:
        expected = repo.xq(XQ).to_xml()
        errors = []

        def worker():
            try:
                for _ in range(4):
                    assert repo.xq(XQ).to_xml() == expected
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert repo.result_cache.stats()["hits"] > 0
        assert repo.pool.pinned_total() == 0
