"""Value-index unit tests: probe semantics against naive references,
segment encode/decode roundtrip, and the decoder's structural validation
(every tampered record fails as ``CorruptDataError``, never as a wrong
probe answer)."""

import random
import struct

import numpy as np
import pytest

from repro.errors import CorruptDataError
from repro.index import N_SEGMENT_RECORDS
from repro.index.segment import check_segment, decode_segment, encode_segment
from repro.index.vindex import (
    ValueIndex,
    build_value_index,
    key_code,
    merge_codings,
    select_keep,
)
from repro.util import parse_float

VPATH = ("db", "rec", "a", "#")


def _column(rng, n):
    vocab = ["alpha", "beta", "näme", "7", "-3.5", "0", "12e1",
             "nan", "inf", "name 3", "7.0", "zz top"]
    return [rng.choice(vocab) for _ in range(n)]


def _naive_eq(col, value):
    return [i for i, v in enumerate(col) if v == value]


def _naive_range(col, op, const):
    try:
        c = parse_float(const)
    except ValueError:
        return None
    out = []
    for i, v in enumerate(col):
        try:
            x = parse_float(v)
        except ValueError:
            continue
        if x != x or c != c:
            continue
        if (op == "<" and x < c) or (op == "<=" and x <= c) or \
                (op == ">" and x > c) or (op == ">=" and x >= c):
            out.append(i)
    return out


def test_probes_match_naive_reference():
    rng = random.Random(7)
    col = _column(rng, 200)
    vi = build_value_index(VPATH, col)
    assert vi.n == 200
    assert list(vi.keys) == sorted(set(col))
    # eq probes, in- and out-of-vocabulary
    for value in set(col) | {"missing", "", "name 4"}:
        assert vi.eq_rows(value).tolist() == _naive_eq(col, value)
    # range probes over numeric and non-numeric constants
    for op in ("<", "<=", ">", ">="):
        for const in ("7", "-3.5", "0", "120", "999", "nan"):
            got = vi.range_rows(op, const)
            want = _naive_range(col, op, const)
            assert sorted(got.tolist()) == want, (op, const)
        assert vi.range_rows(op, "not a number") is None


@pytest.mark.parametrize("seed", range(25))
def test_code_of_equals_a_plain_dict_lookup(seed):
    """The sorted-key binary search answers exactly what a Python dict
    over the keys would: over random key sets (including the empty one),
    for stored keys, absent keys, strict prefixes and extensions of
    stored keys, non-BMP code points, and probes longer than the stored
    itemsize — which must not widen the dictionary to find out."""
    rng = random.Random(seed)
    alphabet = ["a", "b", "Z", "0", " ", "é", "\u4e2d", "\U0001F600",
                "\U00010000", "\uffff"]
    keyset = {"".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
              for _ in range(rng.choice([0, 1, 2, 7, 40]))}
    col = [rng.choice(sorted(keyset)) for _ in range(60)] if keyset else []
    vi = build_value_index(VPATH, col)
    want = {str(k): c for c, k in enumerate(vi.keys)}
    assert set(want) == set(col)
    width = vi.keys.dtype.itemsize // 4
    probes = set(want) | {"", "no such key", "\U0001F600", "x" * (width + 1),
                          "x" * 5000}
    for key in list(want):
        probes |= {key[:-1], key + "a", key + "\U0001F600", key + "\x00",
                   key + "x" * width}
    for probe in probes:
        got = vi.code_of(probe)
        assert got == want.get(probe, -1), (probe, got)
        assert type(got) is int
        assert key_code(vi.keys, probe) == got   # the scan path's helper


def test_select_keep_matches_scan_mask():
    rng = random.Random(11)
    col = _column(rng, 120)
    vi = build_value_index(VPATH, col)
    # random row ranges standing in for per-tuple extension ranges
    starts, lengths = [], []
    pos = 0
    while pos < len(col):
        ln = rng.randint(0, 4)
        starts.append(pos)
        lengths.append(min(ln, len(col) - pos))
        pos += max(ln, 1)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    for op, const in [("=", "7"), ("=", "missing"), ("!=", "alpha"),
                      (">", "0"), ("<=", "-3.5"), (">=", "bogus")]:
        keep = select_keep(vi, op, const, starts, lengths)
        for k, (s, ln) in enumerate(zip(starts, lengths)):
            window = col[s:s + ln]
            if op == "=":
                want = any(v == const for v in window)
            elif op == "!=":
                want = any(v != const for v in window)
            else:
                rows = _naive_range(col, op, const) or []
                want = any(s <= r < s + ln for r in rows)
            assert bool(keep[k]) == want, (op, const, k)


def test_empty_and_single_value_columns():
    empty = build_value_index(VPATH, [])
    assert empty.n == 0 and empty.distinct == 0
    assert empty.eq_rows("x").tolist() == []
    assert empty.range_rows(">", "1").tolist() == []
    one = build_value_index(VPATH, ["only"] * 5)
    assert one.distinct == 1
    assert one.eq_rows("only").tolist() == [0, 1, 2, 3, 4]


def test_numeric_subindex_excludes_nan_and_text():
    vi = build_value_index(VPATH, ["nan", "abc", "2", "10", "-1"])
    numeric = {str(vi.keys[c]) for c in vi.num_codes}
    assert numeric == {"2", "10", "-1"}
    assert np.all(np.diff(vi.num_vals) >= 0)


def test_merge_codings_shares_codes_for_equal_strings():
    """Raw sorted key arrays in (any source: an index, a ``dict`` codec,
    one ``np.unique``), of different widths, one of them empty."""
    a = np.array(["x", "y", "z"])
    b = np.array(["longer key", "w", "y", "z"])
    empty = np.empty(0, dtype="<U1")
    remaps, size = merge_codings([a, empty, b, a])
    assert [len(r) for r in remaps] == [3, 0, 4, 3]
    shared = {str(k): remaps[0][c] for c, k in enumerate(a)}
    other = {str(k): remaps[2][c] for c, k in enumerate(b)}
    assert shared["y"] == other["y"] and shared["z"] == other["z"]
    assert remaps[3].tolist() == remaps[0].tolist()
    all_codes = set(shared.values()) | set(other.values())
    assert len(all_codes) == size == 5  # 'longer key' w x y z
    assert merge_codings([]) == ([], 0)
    assert merge_codings([empty])[1] == 0


# -- persistent segment ----------------------------------------------------


def _roundtrip(col):
    vi = build_value_index(VPATH, col)
    records = encode_segment(vi)
    assert len(records) == N_SEGMENT_RECORDS
    return vi, decode_segment(VPATH, vi.n, records)


def test_segment_roundtrip_preserves_every_array():
    vi, back = _roundtrip(_column(random.Random(2), 90))
    assert list(back.keys) == list(vi.keys)
    for attr in ("offsets", "rows", "num_codes", "num_vals"):
        assert np.array_equal(getattr(back, attr), getattr(vi, attr)), attr
    assert check_segment(back) == []


def test_segment_roundtrip_empty_column():
    vi, back = _roundtrip([])
    assert back.n == 0 and back.distinct == 0
    assert check_segment(back) == []


# fixture column: 6 rows, keys {"42", "7", "a", "b", "c"} (u=5, two
# numeric), key itemsize 8 (<U2) — the byte counts below depend on it.
# Stream: 0 itemsize, 1 key blob, 2 header, 3 offsets, 4 rows,
# 5 num_codes, 6 num_vals
def _with(records, i, record):
    return records[:i] + [record] + records[i + 1:]


@pytest.mark.parametrize("mutate, msg", [
    (lambda r: r[:-1], "6 records"),
    (lambda r: r[1:], "6 records"),
    (lambda r: _with(r, 0, b"\x00" * 4), "malformed itemsize"),
    (lambda r: _with(r, 2, b"\x00" * 8), "malformed header"),
    (lambda r: _with(r, 2, struct.pack("<qq", 99, 5)), "header says"),
    (lambda r: _with(r, 0, struct.pack("<q", 6)), "key buffer"),
    (lambda r: _with(r, 1, r[1][:-4]), "key buffer"),
    (lambda r: _with(r, 1, b"\x00\xd8\x00\x00" * 10),
     "invalid code points"),
    (lambda r: _with(r, 3, r[3][::-1]), "CSR"),
    (lambda r: _with(r, 4, r[4][:8] * (len(r[4]) // 8)), "permutation"),
    (lambda r: _with(r, 5, r[5] + b"\x00" * 8), "disagree in length"),
    (lambda r: _with(r, 5, struct.pack("<qq", 0, 0)), "duplicated"),
    (lambda r: _with(r, 5, struct.pack("<qq", 0, 5)), "outside 0..4"),
    (lambda r: _with(r, 6, r[6][::-1]), "ascending"),
    (lambda r: _with(r, 6, struct.pack("<dd", 7.0, float("nan"))),
     "NaN-free"),
])
def test_decoder_rejects_tampered_records(mutate, msg):
    vi = build_value_index(VPATH, ["b", "a", "c", "a", "7", "42"])
    records = mutate(encode_segment(vi))
    with pytest.raises(CorruptDataError, match=msg):
        decode_segment(VPATH, vi.n, records)


def test_decoder_rejects_unsorted_keys():
    vi = build_value_index(VPATH, ["a", "b", "c"])
    # swap two keys in the raw buffer: still valid text, wrong order
    swapped = ValueIndex(VPATH, vi.n, vi.keys[::-1].copy(), vi.offsets,
                         vi.rows, vi.num_codes, vi.num_vals)
    with pytest.raises(CorruptDataError, match="strictly increasing"):
        decode_segment(VPATH, vi.n, encode_segment(swapped))


def test_check_segment_flags_stale_index():
    col = ["x", "y", "x", "z"]
    vi = build_value_index(VPATH, col)
    assert check_segment(vi, col) == []
    # a value the dictionary has never seen
    assert any("stale" in p for p in check_segment(vi, ["x", "y", "x", "q"]))
    # same dictionary, permuted rows: postings disagree with the vector
    assert any("stale" in p for p in check_segment(vi, ["y", "x", "x", "z"]))
    assert any("rows" in p or "holds" in p
               for p in check_segment(vi, ["x", "y", "x"]))
