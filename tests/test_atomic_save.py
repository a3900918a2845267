"""Crash-safety of the atomic saver, exhaustively: a crash injected at
EVERY numbered I/O operation of ``save_vdoc`` leaves either the old file
or the complete new file at the destination — never a torn mix.  Also:
torn writes, transient OSErrors (with cleanup + retry), and in-transit
bit flips and silently short writes that the checksums must catch at the
next read."""

import errno
import os
import shutil

import pytest

from repro.core.engine import eval_query, eval_xq
from repro.core.vdoc import VectorizedDocument
from repro.datasets.synth import xmark_like_xml
from repro.errors import StorageError
from repro.storage import faults
from repro.storage.faults import CrashInjected, FaultPlan
from repro.storage.fsck import verify_vdoc
from repro.storage.vdocfile import open_vdoc

PAGE_SIZE = 512


@pytest.fixture(scope="module")
def docs():
    old = VectorizedDocument.from_xml(xmark_like_xml(4, seed=1))
    new = VectorizedDocument.from_xml(xmark_like_xml(6, seed=2))
    return old, new


def _tmp_leftovers(directory):
    return [n for n in os.listdir(directory) if n.endswith(".tmp")]


def test_clean_save_fires_no_faults(docs, tmp_path):
    _, new = docs
    dst = str(tmp_path / "doc.vdoc")
    with faults.inject(FaultPlan()) as plan:
        new.save(dst, page_size=PAGE_SIZE)
    assert plan.ops > 10  # the sweep below has real coverage
    assert plan.fired == []
    assert verify_vdoc(dst, deep=True) == []
    assert _tmp_leftovers(tmp_path) == []


def test_crash_sweep_leaves_old_or_new(docs, tmp_path):
    """The tentpole property: old-or-new at every possible crash point."""
    old, new = docs
    golden_old = str(tmp_path / "old.vdoc")
    old.save(golden_old, page_size=PAGE_SIZE)
    with open(golden_old, "rb") as f:
        old_bytes = f.read()

    with faults.inject(FaultPlan()) as plan:
        new.save(str(tmp_path / "count.vdoc"), page_size=PAGE_SIZE)
    total_ops = plan.ops

    n_old = n_new = 0
    for op in range(total_ops):
        run = tmp_path / f"crash{op}"
        run.mkdir()
        dst = str(run / "doc.vdoc")
        shutil.copyfile(golden_old, dst)
        with faults.inject(FaultPlan.crash_at(op)):
            with pytest.raises(CrashInjected):
                new.save(dst, page_size=PAGE_SIZE)
        with open(dst, "rb") as f:
            now = f.read()
        if now == old_bytes:
            n_old += 1
        else:
            # the rename must have completed: a fully valid NEW document
            assert verify_vdoc(dst, deep=True) == [], \
                f"crash at op {op} left a partial file at the destination"
            n_new += 1
    # the commit point (os.replace) is a single op: crashes before it keep
    # the old file, crashes after it (directory sync) expose the new one
    assert n_new >= 1
    assert n_old == total_ops - n_new


def test_crash_on_fresh_destination(docs, tmp_path):
    """No previous file: after a mid-save crash the destination either
    does not exist or is the complete new document."""
    _, new = docs
    for op in (0, 3, 10):
        run = tmp_path / f"fresh{op}"
        run.mkdir()
        dst = str(run / "doc.vdoc")
        with faults.inject(FaultPlan.crash_at(op)):
            with pytest.raises(CrashInjected):
                new.save(dst, page_size=PAGE_SIZE)
        if os.path.exists(dst):
            assert verify_vdoc(dst, deep=True) == []


def test_torn_write_keeps_old_file(docs, tmp_path):
    """Power-off mid-sector: half a page reaches the temp file, then the
    process dies — the destination still holds the old document."""
    old, new = docs
    dst = str(tmp_path / "doc.vdoc")
    old.save(dst, page_size=PAGE_SIZE)
    with open(dst, "rb") as f:
        old_bytes = f.read()
    with faults.inject(FaultPlan.torn_at(2, keep_bytes=100)):
        with pytest.raises(CrashInjected):
            new.save(dst, page_size=PAGE_SIZE)
    with open(dst, "rb") as f:
        assert f.read() == old_bytes
    assert verify_vdoc(dst) == []


def test_transient_oserror_cleans_up_and_retry_succeeds(docs, tmp_path):
    _, new = docs
    dst = str(tmp_path / "doc.vdoc")
    with faults.inject(FaultPlan.oserror_at(2, err=errno.EIO)):
        with pytest.raises(OSError):
            new.save(dst, page_size=PAGE_SIZE)
        assert not os.path.exists(dst)
        assert _tmp_leftovers(tmp_path) == []  # failed save cleaned up
        # the fault was transient (consumed on first fire): retry works
        new.save(dst, page_size=PAGE_SIZE)
    assert verify_vdoc(dst, deep=True) == []


def test_bitflip_in_transit_caught_by_checksum(docs, tmp_path):
    """A bit flipped between the checksum stamp and the platter: the save
    reports success, but fsck and the next read both catch it."""
    _, new = docs
    dst = str(tmp_path / "doc.vdoc")
    # op 0 is the temp file's header write; op 1 writes page 0 — a data
    # page of the first vector chain
    with faults.inject(FaultPlan.bitflip_at(1, byte=50)) as plan:
        new.save(dst, page_size=PAGE_SIZE)
    assert (1, "bitflip") in plan.fired
    findings = verify_vdoc(dst)
    assert any(f.code == "page-crc" and f.page == 0 for f in findings)
    with VectorizedDocument.open(dst, pool_pages=8) as disk:
        with pytest.raises(StorageError):
            for vec in disk.vectors.values():
                vec.tolist()


def _answers(vdoc):
    """What a reader sees: three queries and the whole document."""
    return (
        eval_query(vdoc, "/site/people/person/name").canonical(),
        eval_query(vdoc, "//item[quantity > 4]/location").canonical(),
        eval_xq(vdoc, "for $p in //person where $p/profile/age > '40' "
                      "return <r>{$p/name}</r>").to_xml(),
        vdoc.to_xml(),
    )


@pytest.mark.parametrize("keep_bytes", [0, 100])
def test_short_write_sweep_never_reads_back_wrong(docs, tmp_path,
                                                  keep_bytes):
    """A write that silently persists only a prefix — reported complete,
    the rest lost — at every I/O op of one save: the file reads back
    byte-identical, or reading it raises a StorageError (``open_vdoc``
    itself, or the first read of a lost page — vectors load lazily) *and*
    a deep fsck flags it.  Wrong bytes are never an outcome.  (Here, 43
    ops x 2 prefixes: 15 identical, 21 refused at open, 50 at the first
    read.)"""
    _, new = docs
    expected = _answers(new)
    with faults.inject(FaultPlan()) as plan:
        new.save(str(tmp_path / "count.vdoc"), page_size=PAGE_SIZE)
    identical = refused = 0
    for op in range(plan.ops):
        dst = str(tmp_path / f"short{op}.vdoc")
        with faults.inject(FaultPlan.short_at(op, keep_bytes)):
            new.save(dst, page_size=PAGE_SIZE)
        try:
            with open_vdoc(dst) as disk:
                got = _answers(disk)
        except StorageError:
            assert verify_vdoc(dst, deep=True), \
                f"short write at op {op}: refused but fsck is clean"
            refused += 1
            continue
        assert got == expected, f"short write at op {op}: wrong answers"
        identical += 1
    assert refused and identical
