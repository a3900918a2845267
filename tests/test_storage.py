"""Storage-layer property tests: slotted pages, heap files, buffer pool.

Random write/read-back over page boundaries, clock eviction under pools
smaller than the data, strict pin accounting, and persistence across
reopen."""

import random

import pytest

from repro.errors import StorageError
from repro.storage import BufferPool, HeapFile, PageFile, SlottedPage
from repro.storage.pages import PAGE_HEADER, check_page_size


def _random_records(rng, n, max_len):
    return [bytes(rng.randrange(256) for _ in range(rng.randrange(max_len)))
            for _ in range(n)]


def test_slotted_page_roundtrip_and_capacity():
    ps = 128
    buf = bytearray(ps)
    page = SlottedPage.init(buf, ps)
    assert page.n_slots == 0 and page.next_page == -1
    assert page.free_ptr == PAGE_HEADER

    written = []
    while page.free_capacity() >= 1:
        data = bytes([len(written)]) * min(11, page.free_capacity())
        page.append_fragment(data, continued=False)
        written.append(data)
    assert page.n_slots == len(written) > 1
    for i, data in enumerate(written):
        frag, cont = page.fragment(i)
        assert frag == data and cont is False

    page.next_page = 42
    assert page.next_page == 42
    # full page rejects further fragments
    with pytest.raises(StorageError):
        page.append_fragment(b"x" * ps, continued=False)


def test_page_size_bounds():
    with pytest.raises(StorageError):
        check_page_size(16)
    with pytest.raises(StorageError):
        check_page_size(1 << 20)


@pytest.mark.parametrize("page_size,capacity", [(64, 4), (128, 2), (256, None)])
def test_heap_random_write_read_back(tmp_path, page_size, capacity):
    """Records of random sizes (0 .. 4x page size) survive write/read-back
    across page boundaries, with interleaved heaps in one file."""
    rng = random.Random(page_size * 1000 + (capacity or 0))
    path = str(tmp_path / "heap.pg")
    file = PageFile.create(path, page_size)
    pool = BufferPool(file, capacity=capacity)

    heaps = [HeapFile.create(pool) for _ in range(3)]
    expect = [[], [], []]
    for _ in range(120):
        h = rng.randrange(3)
        rec = bytes(rng.randrange(256)
                    for _ in range(rng.randrange(4 * page_size)))
        heaps[h].append(rec)
        expect[h].append(rec)

    for h, heap in enumerate(heaps):
        assert list(heap.records(lambda: None)) == expect[h]
        assert len(heap.pages()) == heap.n_pages
    assert pool.pinned_total() == 0
    if capacity is not None:
        assert pool.resident() <= capacity
        assert pool.stats.evictions > 0  # data far exceeds the pool
    heads = [h.head for h in heaps]
    pool.flush()
    file.close()

    # reopen: everything must come back from disk alone
    file2 = PageFile.open(path)
    pool2 = BufferPool(file2, capacity=capacity)
    for h, head in enumerate(heads):
        assert list(HeapFile(pool2, head).records(lambda: None)) == expect[h]
    assert pool2.pinned_total() == 0
    file2.close()


def test_empty_and_huge_records(tmp_path):
    file = PageFile.create(str(tmp_path / "h.pg"), 64)
    pool = BufferPool(file, capacity=2)
    heap = HeapFile.create(pool)
    records = [b"", b"a", b"", b"x" * 5000, b"", b"tail"]
    for r in records:
        heap.append(r)
    assert list(heap.records(lambda: None)) == records
    assert heap.n_pages > 5000 // 64  # really fragmented across the chain
    assert pool.pinned_total() == 0
    file.close()


def test_pool_hits_vs_misses(tmp_path):
    file = PageFile.create(str(tmp_path / "h.pg"), 128)
    pool = BufferPool(file, capacity=None)
    heap = HeapFile.create(pool)
    for i in range(50):
        heap.append(f"record-{i}".encode())
    base_misses = pool.stats.misses
    list(heap.records(lambda: None))  # first pass: writer left everything resident
    assert pool.stats.misses == base_misses
    assert pool.stats.pages_read == 0  # nothing ever hit the disk
    assert pool.stats.hits > 0
    file.close()


def test_pool_eviction_writes_back_dirty_pages(tmp_path):
    path = str(tmp_path / "h.pg")
    file = PageFile.create(path, 64)
    pool = BufferPool(file, capacity=2)
    heap = HeapFile.create(pool)
    recs = [f"value-{i:04d}".encode() for i in range(200)]
    for r in recs:
        heap.append(r)
    assert pool.stats.evictions > 0
    assert pool.stats.pages_written > 0  # evicted dirty pages hit the disk
    pool.flush()
    file.close()
    file2 = PageFile.open(path)
    assert list(HeapFile(BufferPool(file2), heap.head).records(lambda: None)) == recs
    file2.close()


def test_pin_accounting_and_exhaustion(tmp_path):
    file = PageFile.create(str(tmp_path / "h.pg"), 64)
    pool = BufferPool(file, capacity=2)
    p0, _ = pool.new_page()
    p1, _ = pool.new_page()
    p2 = file.allocate()
    # both frames pinned: pinning a third page must fail loudly
    with pytest.raises(StorageError, match="pinned"):
        pool.pin(p2)
    pool.unpin(p0, dirty=True)
    buf = pool.pin(p2)  # now p0 can be evicted
    assert len(buf) == 64
    assert pool.stats.evictions == 1
    pool.unpin(p1, dirty=True)
    pool.unpin(p2)
    assert pool.pinned_total() == 0
    # double unpin is an error, not a silent no-op
    with pytest.raises(StorageError, match="not pinned"):
        pool.unpin(p2)
    file.close()


def test_pool_rejects_capacity_below_two(tmp_path):
    file = PageFile.create(str(tmp_path / "h.pg"), 64)
    with pytest.raises(StorageError):
        BufferPool(file, capacity=1)
    file.close()


def test_page_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.vdoc"
    bad.write_bytes(b"definitely not a page file")
    with pytest.raises(StorageError, match="magic"):
        PageFile.open(str(bad))
    assert not PageFile.is_page_file(str(bad))
    assert not PageFile.is_page_file(str(tmp_path / "missing"))


def test_read_page_out_of_range(tmp_path):
    file = PageFile.create(str(tmp_path / "h.pg"), 64)
    with pytest.raises(StorageError, match="out of range"):
        file.read_page(0)
    file.close()
