"""(De)serialization of value-index segments as one plain record stream.

A persistent index is one ordered stream of exactly
:data:`N_SEGMENT_RECORDS` binary records — stored by the vdoc file layer
as one ordinary heap-file chain, but this module knows nothing about
pages or pools, only ``bytes`` records::

      0  itemsize  <q>                                 of one key, bytes
      1  keys      u keys as one raw little-endian <U buffer
      2  header    <qq>: n rows, u distinct keys
      3  offsets   (u+1) little-endian int64           CSR into rows
      4  rows      n int64                             permutation of 0..n-1
      5  num_codes m int64                             numeric keys
      6  num_vals  m float64                           ascending

The key dictionary is sorted (``np.unique`` order) and one
``np.frombuffer`` call rebuilds all ``u`` keys — loading an index is
*not* a per-record Python walk like materializing a column is, which is
exactly why a selective probe on a cold document is cheaper than
touching the vector (trailing-NUL padding is numpy's own ``U``
convention, and NUL never appears in parsed XML text).

``decode_segment`` is the one trust boundary for persistent indexes: it
re-validates every structural invariant (strictly increasing keys — what
makes the binary-search key lookup sound — CSR monotonicity, permutation
properties, ordering) before handing out a probe-able
:class:`~repro.index.vindex.ValueIndex`, so a corrupt or hand-edited
segment fails as :class:`~repro.errors.CorruptDataError` — never as a
wrong query answer or an out-of-bounds gather.  Deep fsck adds the
*semantic* checks on top (numeric-parse agreement, staleness against the
vector itself) via :func:`check_segment`.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import CorruptDataError
from ..util import parse_float
from .vindex import ValueIndex

_HEADER = struct.Struct("<qq")
_ITEMSIZE = struct.Struct("<q")

#: number of records in the stream (see module docstring)
N_SEGMENT_RECORDS = 7


def _int_bytes(a) -> bytes:
    return np.ascontiguousarray(a, dtype="<i8").tobytes()


def keys_to_blob(keys: np.ndarray) -> tuple[int, bytes]:
    """Canonical ``(itemsize, raw little-endian <U buffer)`` of a sorted
    key dictionary — shared by index segments and the ``dict`` storage
    codec, so the two persisted dictionary forms are byte-compatible."""
    if not len(keys):
        return 0, b""
    karr = np.ascontiguousarray(keys, dtype=f"<U{keys.itemsize // 4 or 1}")
    return karr.itemsize, karr.tobytes()


def keys_from_blob(name: str, u: int, itemsize: int,
                   blob: bytes) -> np.ndarray:
    """Rebuild (and validate) a ``u``-key dictionary from its raw ``<U``
    buffer; the trust-boundary counterpart of :func:`keys_to_blob`.
    ``name`` labels the owning structure in error messages."""
    if u == 0:
        if itemsize != 0 or blob:
            raise CorruptDataError(f"{name}: key buffer not empty for "
                                   f"0 keys")
        return np.empty(0, dtype="<U1")
    if itemsize <= 0 or itemsize % 4 or len(blob) != u * itemsize:
        raise CorruptDataError(
            f"{name}: key buffer is {len(blob)} bytes, expected {u} keys "
            f"of itemsize {itemsize}")
    cp = np.frombuffer(blob, dtype="<u4")
    if cp.size and (int(cp.max()) > 0x10FFFF
                    or bool(np.any((cp >= 0xD800) & (cp < 0xE000)))):
        raise CorruptDataError(f"{name}: key buffer holds invalid code "
                               f"points")
    keys = np.frombuffer(blob, dtype=f"<U{itemsize // 4}")
    return keys.astype(np.str_, copy=False)


def encode_segment(vi: ValueIndex) -> list[bytes]:
    """The record stream of one index."""
    itemsize, blob = keys_to_blob(vi.keys)
    return [
        _ITEMSIZE.pack(itemsize),
        blob,
        _HEADER.pack(vi.n, len(vi.keys)),
        _int_bytes(vi.offsets),
        _int_bytes(vi.rows),
        _int_bytes(vi.num_codes),
        np.ascontiguousarray(vi.num_vals, dtype="<f8").tobytes(),
    ]


def _ints(record: bytes, what: str, name: str, count: int) -> np.ndarray:
    if len(record) != count * 8:
        raise CorruptDataError(
            f"vindex {name}: {what} holds {len(record)} bytes, "
            f"expected {count * 8}")
    return np.frombuffer(record, dtype="<i8").astype(np.int64)


def _csr(offsets: np.ndarray, what: str, name: str, total: int) -> None:
    if offsets[0] != 0 or offsets[-1] != total or \
            np.any(np.diff(offsets) < 0):
        raise CorruptDataError(
            f"vindex {name}: {what} is not a monotone 0..{total} CSR")


def _permutation(a: np.ndarray, what: str, name: str, size: int) -> None:
    # bounds before bincount: a corrupt entry must not size an allocation
    if len(a) != size or (size and (
            int(a.min()) < 0 or int(a.max()) >= size
            or not np.all(np.bincount(a, minlength=size) == 1))):
        raise CorruptDataError(
            f"vindex {name}: {what} is not a permutation of 0..{size - 1}")


def decode_segment(vpath: tuple, n: int,
                   records: list[bytes]) -> ValueIndex:
    """Rebuild (and structurally validate) one index from its stream.

    ``n`` is the cataloged row count of the indexed vector; every
    violation raises :class:`CorruptDataError` naming the vector.
    """
    name = "/".join(vpath)
    if len(records) != N_SEGMENT_RECORDS:
        raise CorruptDataError(
            f"vindex {name}: {len(records)} records, "
            f"expected {N_SEGMENT_RECORDS}")
    if len(records[2]) != _HEADER.size:
        raise CorruptDataError(f"vindex {name}: malformed header record")
    hdr_n, u = _HEADER.unpack(records[2])
    if hdr_n != n:
        raise CorruptDataError(
            f"vindex {name}: header says {hdr_n} rows, vector has {n}")

    if len(records[0]) != _ITEMSIZE.size:
        raise CorruptDataError(f"vindex {name}: malformed itemsize record")
    (itemsize,) = _ITEMSIZE.unpack(records[0])
    keys = keys_from_blob(f"vindex {name}", u, itemsize, records[1])
    if u > 1 and not np.all(keys[1:] > keys[:-1]):
        raise CorruptDataError(
            f"vindex {name}: keys are not strictly increasing")

    offsets = _ints(records[3], "offsets", name, u + 1)
    _csr(offsets, "offsets", name, n)
    rows = _ints(records[4], "rows", name, n)
    _permutation(rows, "rows", name, n)
    # sorted-run monotonicity: ascending within every posting group
    if n:
        breaks = np.flatnonzero(np.diff(rows) < 0) + 1
        if not np.all(np.isin(breaks, offsets)):
            raise CorruptDataError(
                f"vindex {name}: posting rows not ascending within a group")

    if len(records[5]) % 8 or len(records[5]) != len(records[6]):
        raise CorruptDataError(
            f"vindex {name}: numeric sub-index records disagree in length")
    m = len(records[5]) // 8
    num_codes = _ints(records[5], "numeric codes", name, m)
    num_vals = np.frombuffer(records[6], dtype="<f8").astype(np.float64)
    if m:
        if num_codes.min() < 0 or num_codes.max() >= max(u, 1) or \
                len(np.unique(num_codes)) != m:
            raise CorruptDataError(
                f"vindex {name}: numeric codes outside 0..{u - 1} or "
                f"duplicated")
        if np.any(np.isnan(num_vals)) or np.any(np.diff(num_vals) < 0):
            raise CorruptDataError(
                f"vindex {name}: numeric values not ascending and NaN-free")
    return ValueIndex(vpath, n, keys, offsets, rows, num_codes, num_vals)


def check_segment(vi: ValueIndex, column=None) -> list[str]:
    """The *semantic* checks deep fsck layers on top of decoding: numeric
    sub-index agreement with ``parse_float``, and — when the materialized
    ``column`` is supplied — staleness of the whole index against the
    vector's actual values.
    Returns human-readable problem strings (empty = clean)."""
    problems: list[str] = []
    u = len(vi.keys)
    # the numeric sub-index must list exactly the parseable, non-NaN keys
    expect: dict[int, float] = {}
    for code in range(u):
        try:
            v = parse_float(str(vi.keys[code]))
        except ValueError:
            continue
        if v == v:
            expect[code] = v
    got = dict(zip(vi.num_codes.tolist(), vi.num_vals.tolist()))
    if got != expect:
        problems.append(
            f"numeric sub-index disagrees with parse_float over the keys "
            f"({len(got)} vs {len(expect)} entries)")
    if column is not None:
        col = np.asarray(column, dtype=np.str_)
        if len(col) != vi.n:
            problems.append(
                f"index built over {vi.n} rows, vector holds {len(col)}")
        else:
            pos = np.searchsorted(vi.keys, col) if u else \
                np.zeros(len(col), dtype=np.int64)
            ok = (pos < u)
            ok[ok] = vi.keys[pos[ok]] == col[ok]
            if not np.all(ok):
                problems.append(
                    "stale index: vector holds values absent from the key "
                    "dictionary")
            elif len(col) and not np.array_equal(pos[vi.rows], np.repeat(
                    np.arange(u, dtype=np.int64), np.diff(vi.offsets))):
                problems.append(
                    "stale index: posting lists disagree with the vector's "
                    "values")
    return problems
