"""Storage integrity units: page checksums, format-v2 header validation,
corrupt-slot bounds checks, heap-chain cycle guards, and StorageError
wrapping of every decode failure at the storage boundary."""

import struct

import pytest

from repro.core.engine import eval_query
from repro.core.vdoc import VectorizedDocument
from repro.datasets.synth import xmark_like_xml
from repro.errors import CorruptDataError, StorageError
from repro.storage import BufferPool, HeapFile, PageFile, SlottedPage
from repro.storage.disk import FILE_HEADER, MAGIC
from repro.storage.pages import (
    CRC_OFFSET,
    PAGE_HEADER,
    page_crc,
    stamp_crc,
    stored_crc,
)


def _flip(path, offset, mask=0x40):
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)[0]
        f.seek(offset)
        f.write(bytes([byte ^ mask]))


def _patch_page(path, pid, page_size, mutate):
    """Mutate one page's bytes and re-stamp its checksum (targets checks
    *behind* the crc: utf-8, chain links, slot entries)."""
    off = FILE_HEADER + pid * page_size
    with open(path, "r+b") as f:
        f.seek(off)
        buf = bytearray(f.read(page_size))
        mutate(buf)
        stamp_crc(buf)
        f.seek(off)
        f.write(buf)


@pytest.fixture()
def heap_file(tmp_path):
    """A flushed page file with one multi-page heap chain."""
    path = str(tmp_path / "h.pg")
    file = PageFile.create(path, 128)
    pool = BufferPool(file)
    heap = HeapFile.create(pool)
    recs = [f"record-{i:05d}".encode() for i in range(60)]
    for r in recs:
        heap.append(r)
    pool.flush()
    file.close()
    return path, heap.head, recs


def test_page_crc_stamp_and_verify():
    buf = bytearray(256)
    SlottedPage.init(buf, 256)
    buf[50:60] = b"payload---"
    stamp_crc(buf)
    assert stored_crc(buf) == page_crc(buf)
    buf[55] ^= 0x01
    assert stored_crc(buf) != page_crc(buf)


def test_bitflip_in_page_detected_on_read(heap_file):
    path, head, _ = heap_file
    _flip(path, FILE_HEADER + 2 * 128 + 40)  # payload byte of page 2
    file = PageFile.open(path)
    heap = HeapFile(BufferPool(file), head)
    with pytest.raises(CorruptDataError, match="page 2.*checksum"):
        list(heap.records(lambda: None))
    file.close()


def test_bitflip_in_crc_field_detected(heap_file):
    path, head, _ = heap_file
    _flip(path, FILE_HEADER + 1 * 128 + CRC_OFFSET)
    file = PageFile.open(path)
    with pytest.raises(CorruptDataError, match="page 1.*checksum"):
        list(HeapFile(BufferPool(file), head).records(lambda: None))
    file.close()


def test_allocated_never_written_page_reads_as_zeros(tmp_path):
    file = PageFile.create(str(tmp_path / "z.pg"), 128)
    pool = BufferPool(file)
    pid = file.allocate()
    file.flush()  # pads the sparse tail to the declared length
    assert pool.pin(pid) == bytearray(128)  # all-zero page passes verify
    pool.unpin(pid)
    file.close()


def test_v1_file_rejected_with_upgrade_hint(tmp_path):
    path = tmp_path / "v1.vdoc"
    v1 = MAGIC + struct.pack("<HIQq", 1, 4096, 0, -1)
    path.write_bytes(v1 + b"\x00" * (32 - len(v1)))
    with pytest.raises(StorageError, match="version 1.*re-save"):
        PageFile.open(str(path))


def test_garbage_and_future_versions_rejected(tmp_path):
    bad = tmp_path / "bad.vdoc"
    bad.write_bytes(b"definitely not a page file")
    with pytest.raises(StorageError, match="magic"):
        PageFile.open(str(bad))
    fut = tmp_path / "v9.vdoc"
    fut.write_bytes(MAGIC + struct.pack("<H", 9) + b"\x00" * 30)
    with pytest.raises(StorageError, match="version 9"):
        PageFile.open(str(fut))


def test_truncated_file_rejected(heap_file):
    path, _, _ = heap_file
    with PageFile.open(path) as pf:
        size = pf.size_bytes()
    with open(path, "r+b") as f:
        f.truncate(size - 77)
    with pytest.raises(CorruptDataError, match="truncated"):
        PageFile.open(path)


def test_header_declares_more_pages_than_file_holds(heap_file):
    """The old zero-fill path silently read truncation as empty pages."""
    path, _, _ = heap_file
    with open(path, "r+b") as f:
        f.truncate(FILE_HEADER + 128)  # keep the header and one page
    with pytest.raises(CorruptDataError, match="declares"):
        PageFile.open(path)


def test_header_bitflip_detected(heap_file):
    path, _, _ = heap_file
    _flip(path, 35)  # reserved header byte: only the header crc sees it
    with pytest.raises(CorruptDataError, match="header checksum"):
        PageFile.open(path)


def test_fragment_slot_bounds_checked():
    ps = 128
    buf = bytearray(ps)
    page = SlottedPage.init(buf, ps, pid=7)
    page.append_fragment(b"hello", continued=False)
    # corrupt the slot entry: length far beyond free_ptr
    struct.pack_into("<HH", buf, ps - 4, PAGE_HEADER, 900 & 0x7FFF)
    with pytest.raises(CorruptDataError, match=r"page 7, slot 0"):
        page.fragment(0)


def test_fragment_slot_index_and_directory_bounds():
    ps = 128
    buf = bytearray(ps)
    page = SlottedPage.init(buf, ps, pid=3)
    page.append_fragment(b"x", continued=False)
    with pytest.raises(CorruptDataError, match="slot 5"):
        page.fragment(5)
    # corrupt n_slots so the directory overruns the whole page
    struct.pack_into("<H", buf, 0, 1000)
    with pytest.raises(CorruptDataError, match="directory"):
        page.fragment(0)


def test_corrupt_free_ptr_detected():
    ps = 128
    buf = bytearray(ps)
    page = SlottedPage.init(buf, ps, pid=1)
    page.append_fragment(b"abc", continued=False)
    struct.pack_into("<H", buf, 2, ps)  # free_ptr past the slot directory
    with pytest.raises(CorruptDataError, match="free_ptr"):
        page.fragment(0)


def test_heap_chain_cycle_detected(heap_file):
    path, head, _ = heap_file
    file = PageFile.open(path)
    pool = BufferPool(file)
    heap = HeapFile(pool, head)
    chain = heap.pages()
    assert len(chain) > 2
    # point the tail back at the head: a classic corrupt link
    _patch_page(path, chain[-1], 128, lambda buf:
                SlottedPage(buf, 128).__setattr__("next_page", head))
    file.close()

    file = PageFile.open(path)
    heap = HeapFile(BufferPool(file), head)
    with pytest.raises(CorruptDataError, match="cycle"):
        list(heap.records(lambda: None))
    with pytest.raises(CorruptDataError, match="cycle"):
        heap.pages()
    file.close()


def test_heap_chain_link_out_of_range(heap_file):
    path, head, _ = heap_file
    _patch_page(path, head, 128, lambda buf:
                SlottedPage(buf, 128).__setattr__("next_page", 999))
    file = PageFile.open(path)
    with pytest.raises(CorruptDataError, match="outside the file"):
        list(HeapFile(BufferPool(file), head).records(lambda: None))
    file.close()


def test_heap_chain_longer_than_cataloged(heap_file):
    path, head, _ = heap_file
    file = PageFile.open(path)
    heap = HeapFile(BufferPool(file), head, n_pages=2)  # lies: chain is >2
    with pytest.raises(CorruptDataError, match="cataloged 2 pages"):
        list(heap.records(lambda: None))
    file.close()


# -- decode failures wrapped at the vdoc boundary --------------------------


@pytest.fixture()
def saved_vdoc(tmp_path):
    xml = xmark_like_xml(8, seed=11)
    mem = VectorizedDocument.from_xml(xml)
    path = str(tmp_path / "doc.vdoc")
    mem.save(path, page_size=256)
    return path, mem


def test_invalid_utf8_value_raises_storage_error(saved_vdoc):
    path, mem = saved_vdoc
    # a vector whose first value is non-empty, so slot 0 has payload bytes
    vpath = next(p for p in sorted(mem.vectors)
                 if mem.vectors[p].tolist()[0])
    with VectorizedDocument.open(path) as disk:
        pid = disk.vectors[vpath]._source.heap.head

    def smash(buf):  # first byte of the first value → invalid UTF-8
        off, _, _ = SlottedPage(buf, 256).slot_entry(0)
        buf[off] = 0xFF
    _patch_page(path, pid, 256, smash)
    with VectorizedDocument.open(path) as disk:
        with pytest.raises(CorruptDataError, match="UTF-8"):
            disk.vectors[vpath].tolist()


def test_corrupt_catalog_json_raises_storage_error(saved_vdoc):
    path, _ = saved_vdoc
    with PageFile.open(path) as pf:
        meta_page, ps = pf.meta_page, pf.page_size

    def smash(buf):
        off, _, _ = SlottedPage(buf, ps).slot_entry(0)
        buf[off] = 0xFF  # breaks both UTF-8 and JSON
    _patch_page(path, meta_page, ps, smash)
    with pytest.raises(StorageError, match="JSON"):
        VectorizedDocument.open(path)


def test_catalog_schema_violation_raises_storage_error(saved_vdoc):
    """Parseable JSON with a missing/invalid field must fail schema
    validation with a StorageError, never surface as KeyError/TypeError."""
    path, _ = saved_vdoc
    with PageFile.open(path) as pf:
        meta_page, ps = pf.meta_page, pf.page_size

    def smash(buf):  # same-length key rename keeps the JSON parseable
        off, length, _ = SlottedPage(buf, ps).slot_entry(0)
        frag = bytes(buf[off:off + length])
        assert b'"head":' in frag
        buf[off:off + length] = frag.replace(b'"head":', b'"hexd":', 1)
    _patch_page(path, meta_page, ps, smash)
    with pytest.raises(StorageError, match="head page"):
        VectorizedDocument.open(path)


def test_query_on_corrupted_vdoc_raises_not_hangs(saved_vdoc):
    path, mem = saved_vdoc
    query = "/site/people/person/profile/age/text()"
    baseline = eval_query(mem, query).text_values()
    with VectorizedDocument.open(path, pool_pages=8) as disk:
        assert eval_query(disk, query).text_values() == baseline
        age_pid = next(v for p, v in disk.vectors.items()
                       if "age" in p)._source.heap.head
    # raw flip (no crc restamp) in a page only the query will read:
    # open() succeeds, the scan fails
    _flip(path, FILE_HEADER + 256 * age_pid + 20)
    with VectorizedDocument.open(path, pool_pages=8) as disk:
        with pytest.raises(StorageError):
            eval_query(disk, query).text_values()  # the gather reads disk
        assert disk.pool.pinned_total() == 0  # failure leaked nothing
