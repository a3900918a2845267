"""``verify_vdoc`` / ``repro-xq check``: findings (not exceptions) with
locations, exit codes, and the deep-is-a-superset-of-shallow contract."""

import os
import re
import struct

import pytest

from repro.cli import main
from repro.core.vdoc import VectorizedDocument
from repro.datasets.synth import xmark_like_xml
from repro.errors import CorruptDataError, StorageError
from repro.repo import Repository
from repro.storage import PageFile, vdocfile
from repro.storage.disk import FILE_HEADER, _header_bytes
from repro.storage.fsck import verify_vdoc
from repro.storage.pages import SlottedPage, stamp_crc
from repro.storage.vdocfile import _check_catalog, open_vdoc

PAGE_SIZE = 256


@pytest.fixture()
def vdoc_path(tmp_path):
    xml = xmark_like_xml(8, seed=5)
    path = str(tmp_path / "doc.vdoc")
    VectorizedDocument.from_xml(xml).save(path, page_size=PAGE_SIZE)
    return path


def _patch_page(path, pid, mutate):
    off = FILE_HEADER + pid * PAGE_SIZE
    with open(path, "r+b") as f:
        f.seek(off)
        buf = bytearray(f.read(PAGE_SIZE))
        mutate(buf)
        stamp_crc(buf)
        f.seek(off)
        f.write(buf)


def test_clean_file_has_no_findings(vdoc_path):
    assert verify_vdoc(vdoc_path) == []
    assert verify_vdoc(vdoc_path, deep=True) == []


def test_flipped_page_named_in_finding(vdoc_path):
    pid = 4
    with open(vdoc_path, "r+b") as f:
        f.seek(FILE_HEADER + pid * PAGE_SIZE + 30)
        byte = f.read(1)[0]
        f.seek(FILE_HEADER + pid * PAGE_SIZE + 30)
        f.write(bytes([byte ^ 0x10]))
    findings = verify_vdoc(vdoc_path)
    assert any(f.code == "page-crc" and f.page == pid for f in findings)
    # deep reports at least everything shallow reports
    assert len(verify_vdoc(vdoc_path, deep=True)) >= len(findings)


def test_truncation_is_a_size_finding(vdoc_path):
    with open(vdoc_path, "r+b") as f:
        f.seek(0, 2)
        f.truncate(f.tell() - PAGE_SIZE // 2)
    findings = verify_vdoc(vdoc_path)
    assert any(f.code == "size" for f in findings)


def test_chain_cycle_is_a_chain_finding(vdoc_path):
    with PageFile.open(vdoc_path) as pf:
        meta_page = pf.meta_page
    # meta heap is a 1-page chain on this document; link it to itself
    def cycle(buf):
        SlottedPage(buf, PAGE_SIZE).next_page = meta_page
    _patch_page(vdoc_path, meta_page, cycle)
    findings = verify_vdoc(vdoc_path)
    assert any(f.code in ("chain", "catalog") and "cycle" in f.message
               for f in findings)


def test_catalog_schema_break_is_a_catalog_finding(vdoc_path):
    with PageFile.open(vdoc_path) as pf:
        meta_page = pf.meta_page

    def rename_key(buf):
        page = SlottedPage(buf, PAGE_SIZE)
        off, length, _ = page.slot_entry(0)
        frag = bytes(buf[off:off + length])
        assert b'"head":' in frag
        buf[off:off + length] = frag.replace(b'"head":', b'"hexd":', 1)
    _patch_page(vdoc_path, meta_page, rename_key)
    findings = verify_vdoc(vdoc_path)
    assert any(f.code == "catalog" and "head page" in f.message
               for f in findings)


def _edit_catalog(path, old: bytes, new: bytes):
    """Same-length byte substitution inside the catalog record (CRC
    restamped) — a catalog only a hand edit or a foreign writer makes."""
    assert len(old) == len(new)
    with PageFile.open(path) as pf:
        meta_page = pf.meta_page

    def substitute(buf):
        page = SlottedPage(buf, PAGE_SIZE)
        off, length, _ = page.slot_entry(0)
        frag = bytes(buf[off:off + length])
        assert old in frag
        buf[off:off + length] = frag.replace(old, new, 1)
    _patch_page(path, meta_page, substitute)


@pytest.mark.parametrize("fmt", [2, 3, 4, 5])
def test_older_format_catalog_is_rejected_as_unsupported(vdoc_path, fmt,
                                                         tmp_path, capsys):
    """Formats 2 to 5 have no writer and no reader any more: a real
    catalog re-stamped with one fails with the typed error on open, is a
    catalog finding for fsck and ``repro-xq check``, and cannot be added
    to a repository — never a silent best-effort read."""
    _edit_catalog(vdoc_path, b'"format":6', b'"format":%d' % fmt)
    unsupported = f"unsupported vdoc format {fmt}"
    with pytest.raises(StorageError, match=unsupported):
        open_vdoc(vdoc_path)
    findings = verify_vdoc(vdoc_path)
    assert any(f.code == "catalog" and unsupported in f.message
               for f in findings)
    assert main(["check", vdoc_path]) == 1
    assert unsupported in capsys.readouterr().out
    repo_dir = str(tmp_path / "repo")
    with Repository.init(repo_dir, "col") as repo:
        with pytest.raises(StorageError, match=unsupported):
            repo.add(vdoc_path, name="old")
        assert repo.members() == []
    assert os.listdir(repo_dir) == ["repo.json"]   # no member file left


def test_duplicate_vector_path_is_rejected(vdoc_path):
    """A catalog listing one vector path twice used to open with the last
    entry silently winning and pass fsck (both entries claim pages under
    the same name); it is a located schema error now."""
    entry = {"path": ["a", "#"], "n": 0, "head": 0, "pages": 1,
             "codec": "identity", "lbytes": 0, "pbytes": 0}
    meta = {"format": 6, "root": 1, "n_nodes": 2, "vectors": [entry]}
    _check_catalog(meta, "x.vdoc", 4)
    meta["vectors"].append(dict(entry))
    with pytest.raises(CorruptDataError, match="x.vdoc.*lists vector a/# twice"):
        _check_catalog(meta, "x.vdoc", 4)
    # on disk: rename one vector's last label so its path collides with
    # a sibling's (same length, so the record layout is untouched)
    _edit_catalog(vdoc_path, b'"buyer","#"]', b'"price","#"]')
    with pytest.raises(CorruptDataError, match="twice"):
        open_vdoc(vdoc_path)
    assert any(f.code == "catalog" and "twice" in f.message
               for f in verify_vdoc(vdoc_path))


@pytest.mark.parametrize("swap", ["short", "extra", "missing"])
def test_vectors_must_match_the_skeleton(tmp_path, swap):
    """A vector whose value count disagrees with the skeleton used to save,
    pass fsck (``--deep`` included: the chain holds what the catalog says)
    and then fail every reader with a bare ``IndexError``.  Open and fsck
    now check the vectors against the skeleton's text-path totals."""
    from repro.core.vectors import Vector

    doc = VectorizedDocument.from_xml(xmark_like_xml(8, seed=5))
    vpath = ("site", "people", "person", "name", "#")
    values = doc.vectors[vpath].tolist()
    if swap == "short":
        doc.vectors[vpath] = Vector.encode(vpath, values[:-1])
        want = r"vector site/people/person/name/# holds 7 values, the " \
            r"skeleton 8 text nodes"
    elif swap == "extra":
        doc.vectors[("site", "nope", "#")] = Vector.encode(
            ("site", "nope", "#"), ["x"])
        want = "vector site/nope/# is not a text path of the skeleton"
    else:
        del doc.vectors[vpath]
        want = "text path site/people/person/name/# has no vector"
    path = str(tmp_path / "bad.vdoc")
    doc.save(path, page_size=PAGE_SIZE)
    for deep in (False, True):
        findings = verify_vdoc(path, deep=deep)
        assert [f.code for f in findings] == ["vector"], findings
        assert want in findings[0].message
    with pytest.raises(CorruptDataError, match=f"bad.vdoc: {want}"):
        open_vdoc(path)


def _replace_bytes(path, old: bytes, new: bytes):
    """Same-length substitution of the one page span holding ``old``
    (CRC restamped)."""
    assert len(old) == len(new)
    with PageFile.open(path) as pf:
        n_pages = pf.n_pages
    found = []

    def substitute(buf):
        found.append(old in buf)
        buf[:] = bytes(buf).replace(old, new)
    for pid in range(n_pages):
        _patch_page(path, pid, substitute)
    assert found.count(True) == 1


@pytest.mark.parametrize("counts", [(1, 2 ** 63 - 1), (2 ** 32, 2 ** 32)])
def test_skeleton_size_overflow_is_corrupt(tmp_path, counts):
    """Run counts are an int64 array on disk, so crafted counts (CRCs
    restamped) can make a node stand for more than ``2**62`` nodes: the
    largest count wraps its parent's int64 size negative, and ``(2**32,
    2**32)`` wraps the root's back to a small, plausible size.  Open
    raises a located ``CorruptDataError`` and fsck reports a ``skeleton``
    finding, never a raw numpy error or a wrapped total."""
    path = str(tmp_path / "big.vdoc")
    doc = VectorizedDocument.from_xml(
        "<r>" + ("<b>" + "<a/>" * 5 + "</b>") * 3 + "</r>")
    store = doc.store
    (b, three), = store.children(doc.root)
    (a, five), = store.children(b)
    assert (three, five) == (3, 5)
    assert (a, b) == (1, 2)   # so child_count holds b's run, then the root's
    doc.save(path, page_size=PAGE_SIZE)
    _replace_bytes(path, struct.pack("<2q", 5, 3),
                   struct.pack("<2q", *counts[::-1]))
    node = b if counts[0] == 1 else doc.root
    want = f"skeleton node {node} stands for more than 2\\*\\*62 nodes"
    with pytest.raises(CorruptDataError, match=f"big.vdoc: {want}"):
        open_vdoc(path)
    for deep in (False, True):
        findings = verify_vdoc(path, deep=deep)
        assert [f.code for f in findings] == ["skeleton"], findings


def _set(field, i, value):
    return lambda skel, m: getattr(skel, field).__setitem__(i, value)


#: (edit, message): ``edit(skeleton, monkeypatch)`` runs before the save
#: and may return a same-length byte substitution to make after it
CRAFTED = {
    "forward-child": (_set("child_id", 0, 2),
                      r"skeleton node 1 has child run \(2, 1\) outside the "
                      r"already-interned prefix"),
    "self-child": (_set("child_id", 1, 2),
                   r"skeleton node 2 has child run \(2, 1\) outside"),
    "zero-count": (_set("child_count", 2, 0),
                   r"skeleton node 4 has child run \(1, 0\) outside"),
    "ptr-decreases": (_set("child_ptr", 2, 3),
                      "skeleton child_ptr decreases at node 2"),
    "ptr-start": (_set("child_ptr", 0, 1),
                  "skeleton child_ptr runs 1..5 over 5 child ids"),
    "ptr-end": (_set("child_ptr", 5, 4),
                "skeleton child_ptr runs 0..4 over 5 child ids"),
    "label-range": (_set("label", 3, 5),
                    "skeleton node 3 has label id 5, outside the 5 labels"),
    "node-0": (_set("label", 0, 1), "node 0 is not the text marker"),
    "stored-twice": (_set("label", 2, 1),
                     r"skeleton node 2 is stored twice \(first as node 1\)"),
    "torn-record": (lambda skel, m: m.setattr(vdocfile, "_ARRAYS", (
        *vdocfile._ARRAYS[:2], ("child_id", "<i4"), vdocfile._ARRAYS[3])),
        "skeleton child_id record of 20 bytes is not a whole number of "
        "<i8 items"),
    "record-count": (lambda skel, m: m.setattr(
        vdocfile, "_ARRAYS", vdocfile._ARRAYS[:3]),
        "catalog chain holds 4 skeleton records, expected 5"),
    "duplicate-label": (lambda skel, m: setattr(
        skel, "names", ("#", "a", "b", "a", "r")),
        "skeleton label table lists a label twice"),
    "label-utf8": (lambda skel, m: (b"b\0c\0r", b"b\0\xff\0r"),
                   "skeleton label table is not valid UTF-8"),
    "length": (lambda skel, m: setattr(skel, "label", skel.label[:-1]),
               "catalog says 5 skeleton nodes, file holds 4 labels and 6 "
               "child_ptr entries"),
}


@pytest.mark.parametrize("case", sorted(CRAFTED))
def test_crafted_skeleton_arrays_are_corrupt(tmp_path, monkeypatch, capsys,
                                             case):
    """Open reads the skeleton arrays with whole-array checks, not an
    interning replay; each crafted array (pages intact, CRCs valid) is a
    ``CorruptDataError`` naming the file, one ``skeleton`` finding
    (shallow and deep) and a failed ``repro-xq check``."""
    edit, want = CRAFTED[case]
    doc = VectorizedDocument.from_xml("<r><a>x</a><b>y</b><c/></r>")
    skel = doc.store.skeleton()
    assert skel.names == ("#", "a", "b", "c", "r")
    assert skel.label.tolist() == [0, 1, 2, 3, 4]
    assert skel.child_ptr.tolist() == [0, 0, 1, 2, 2, 5]
    assert skel.child_id.tolist() == [0, 0, 1, 2, 3]
    path = str(tmp_path / "bad.vdoc")
    with monkeypatch.context() as m:
        swap = edit(skel, m)
        doc.save(path, page_size=PAGE_SIZE)
    if swap:
        _replace_bytes(path, *swap)
    with pytest.raises(CorruptDataError, match=f"bad.vdoc: {want}"):
        open_vdoc(path)
    for deep in (False, True):
        findings = verify_vdoc(path, deep=deep)
        assert [f.code for f in findings] == ["skeleton"], findings
        assert re.search(want, findings[0].message)
    assert main(["check", path]) == 1
    assert "skeleton: " in capsys.readouterr().out


def test_invalid_utf8_value_is_deep_only(vdoc_path):
    """A non-UTF-8 byte inside a record (with a re-stamped checksum) is
    structurally sound — only --deep decodes values and reports it."""
    with VectorizedDocument.open(vdoc_path) as disk:
        vpath = next(p for p in sorted(disk.vectors)
                     if len(disk.vectors[p]) and disk.vectors[p].at(0))
        pid = disk.vectors[vpath]._source.heap.head

    def smash(buf):
        off, _, _ = SlottedPage(buf, PAGE_SIZE).slot_entry(0)
        buf[off] = 0xFF
    _patch_page(vdoc_path, pid, smash)
    assert verify_vdoc(vdoc_path) == []
    deep = verify_vdoc(vdoc_path, deep=True)
    assert any(f.code == "value" and "UTF-8" in f.message for f in deep)


def test_orphan_page_is_deep_only(vdoc_path):
    """A checksum-valid page outside every chain: shallow-clean, deep
    reports it — the superset relation with a strictly deeper check."""
    with open(vdoc_path, "r+b") as f:
        header = f.read(FILE_HEADER)
        _, page_size, n_pages, meta, _ = struct.unpack_from(
            "<HIQqI", header, 8)
        orphan = bytearray(PAGE_SIZE)
        SlottedPage.init(orphan, PAGE_SIZE)
        stamp_crc(orphan)
        f.seek(0, 2)
        f.write(orphan)
        f.seek(0)
        f.write(_header_bytes(page_size, n_pages + 1, meta))
    assert verify_vdoc(vdoc_path) == []
    deep = verify_vdoc(vdoc_path, deep=True)
    assert any(f.code == "orphan" and f.page == n_pages for f in deep)


# -- the CLI front end -----------------------------------------------------


def test_cli_check_ok(vdoc_path, capsys):
    assert main(["check", vdoc_path]) == 0
    out = capsys.readouterr().out
    assert "ok (shallow check, no findings)" in out
    assert main(["check", vdoc_path, "--deep"]) == 0
    assert "ok (deep check" in capsys.readouterr().out


def test_cli_check_reports_findings_and_exits_nonzero(vdoc_path, capsys):
    pid = 6
    with open(vdoc_path, "r+b") as f:
        f.seek(FILE_HEADER + pid * PAGE_SIZE + 40)
        byte = f.read(1)[0]
        f.seek(FILE_HEADER + pid * PAGE_SIZE + 40)
        f.write(bytes([byte ^ 0x20]))
    assert main(["check", vdoc_path]) == 1
    captured = capsys.readouterr()
    assert f"page-crc [page {pid}]" in captured.out
    assert "integrity finding(s)" in captured.err


def test_cli_check_missing_file(capsys):
    assert main(["check", "/no/such/file.vdoc"]) == 1
    assert capsys.readouterr().out.startswith("header")
