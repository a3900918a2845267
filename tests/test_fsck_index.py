"""fsck over persistent index segments: structural corruption inside a
segment is an ``index`` finding, a vector edited behind its index is
flagged **stale** by ``--deep``, and random single-bit flips anywhere in
the index pages are always caught, never crash the checker, and never
let a probe return a wrong answer."""

import random
import shutil

import pytest

from repro.core.engine import eval_xq
from repro.core.vdoc import VectorizedDocument
from repro.datasets.synth import xmark_like_xml
from repro.errors import StorageError
from repro.storage.disk import FILE_HEADER
from repro.storage.fsck import verify_vdoc
from repro.storage.pages import SlottedPage, stamp_crc
from repro.storage.vdocfile import open_vdoc, save_vdoc

PAGE_SIZE = 256
NAME_PATH = ("site", "people", "person", "name", "#")
QUERY = ("for $p in /site/people/person where $p/name = 'name 3' "
         "return <r>{$p/emailaddress}</r>")


@pytest.fixture()
def indexed(tmp_path):
    """An indexed file plus the page layout of the name vector/index."""
    vdoc = VectorizedDocument.from_xml(xmark_like_xml(10, seed=13))
    path = str(tmp_path / "doc.vdoc")
    summary = save_vdoc(vdoc, path, page_size=PAGE_SIZE, index_paths="all")
    assert summary["indexes"] > 0
    with open_vdoc(path) as doc:
        handle = doc._vindexes[NAME_PATH]
        layout = {
            "index": handle._heap.pages(),
            "column": doc.vectors[NAME_PATH]._source.heap.pages(),
        }
        golden = eval_xq(doc, QUERY).to_xml()
    return path, layout, golden


def _patch_page(path, pid, mutate):
    """Mutate one page *and restamp its CRC* — the corruption the
    checksums cannot see, only the structural/semantic checks can."""
    off = FILE_HEADER + pid * PAGE_SIZE
    with open(path, "r+b") as f:
        f.seek(off)
        buf = bytearray(f.read(PAGE_SIZE))
        mutate(buf)
        stamp_crc(buf)
        f.seek(off)
        f.write(buf)


def _smash_slot(buf, slot=0, fill=0xFF):
    page = SlottedPage(buf, PAGE_SIZE)
    off, length, _ = page.slot_entry(slot)
    buf[off:off + length] = bytes([fill]) * length


def test_clean_indexed_file_passes_shallow_and_deep(indexed):
    path, _, _ = indexed
    assert verify_vdoc(path) == []
    assert verify_vdoc(path, deep=True) == []


def test_corrupt_itemsize_record_is_an_index_finding(indexed):
    path, layout, _ = indexed
    # record 0 of the chain is the <q> key itemsize: all-0xFF = -1
    _patch_page(path, layout["index"][0], _smash_slot)
    findings = verify_vdoc(path)
    assert any(f.code == "index" and "vindex" in f.message
               for f in findings)
    assert len(verify_vdoc(path, deep=True)) >= len(findings)


def test_corrupt_key_blob_is_an_index_finding(indexed):
    path, layout, _ = indexed
    # slot 1 of the head page starts record 1, the raw <U key buffer
    _patch_page(path, layout["index"][0],
                lambda buf: _smash_slot(buf, slot=1))
    assert any(f.code == "index" and "code points" in f.message
               for f in verify_vdoc(path))


def test_stale_index_flagged_by_deep_only(indexed):
    """Rewrite one value of the indexed column (same length, valid UTF-8,
    CRC restamped): structurally everything still checks out — only the
    deep cross-check of postings against the vector can catch it."""
    path, layout, _ = indexed
    _patch_page(path, layout["column"][0],
                lambda buf: _smash_slot(buf, fill=0x7E))  # '~' * length
    assert verify_vdoc(path) == []
    deep = verify_vdoc(path, deep=True)
    assert any(f.code == "index" and "stale" in f.message for f in deep)


def test_index_bitflip_fuzz(indexed, tmp_path):
    """Any single-bit flip inside the index pages: fsck reports it (the
    CRC layer at minimum) and a probing query either returns the golden
    answer or raises StorageError — never a silently wrong result."""
    path, layout, golden = indexed
    index_pages = layout["index"]
    rng = random.Random(99)
    for trial in range(40):
        work = str(tmp_path / f"fuzz{trial}.vdoc")
        shutil.copyfile(path, work)
        pid = rng.choice(index_pages)
        off = FILE_HEADER + pid * PAGE_SIZE + rng.randrange(PAGE_SIZE)
        with open(work, "r+b") as f:
            f.seek(off)
            byte = f.read(1)[0]
            f.seek(off)
            f.write(bytes([byte ^ (1 << rng.randrange(8))]))
        findings = verify_vdoc(work)
        assert findings, f"trial {trial}: flip at page {pid} undetected"
        try:
            with open_vdoc(work, pool_pages=16) as doc:
                result = eval_xq(doc, QUERY).to_xml()
        except StorageError:
            continue
        assert result == golden, f"trial {trial}: wrong answer, no error"
