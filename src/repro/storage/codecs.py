"""Per-vector storage codecs — the compression layer of the vdoc format.

The paper's design descends from XMILL: data vectors are *containers*
that compress far better per column than a document compresses as a
whole, and queries should touch the compressed form with minimal
decoding.  Every heap chain of a ``.vdoc`` holds the records of one of
these codecs:

* ``identity`` — one UTF-8 record per value (the uncompressed layout;
  also the universal fallback, so choosing a codec never makes a file
  *worse* than storing plain text);
* ``dict``     — dictionary coding for low-cardinality vectors: the
  sorted distinct keys (the exact ``np.unique`` order the value indexes
  use) plus one packed unsigned code per value.  The coded form is
  *queryable*: an equality predicate maps its constant into code space
  once and compares integers — the string column is never built;
* ``delta``    — delta-of-numeric for vectors of canonical integer text
  (ids, counts, prices-in-cents): a base plus per-value deltas in the
  narrowest signed width.  Numeric (ordering) predicates evaluate from
  the int64 state without building strings;
* ``zlib``     — general-purpose fallback: the NUL-joined UTF-8 payload
  deflated as one blob (NUL never appears in parsed XML text — the same
  argument the index segment layer relies on).

``choose_codec`` picks per vector from an evenly strided value sample:
the sampled encoded size must beat plain UTF-8 by at least 10%
(``MAX_RATIO``), dictionary coding additionally requires low sampled
cardinality and wins ties because its coded form is queryable; delta
beats zlib because its state is numeric-queryable.  The choice — plus
exact logical (UTF-8) and physical (encoded) byte counts — is recorded
in the file catalog, so planners and ``repo ls`` can reason about
compression with zero page I/O.

``decode`` is a **trust boundary** exactly like
:func:`repro.index.decode_segment`: every structural invariant of the
encoded records (header sanity, blob lengths, code bounds, strictly
increasing dictionaries, declared payload sizes) is re-validated before
any value is handed out, so a tampered chain fails as
:class:`~repro.errors.CorruptDataError` naming the vector — never as a
wrong answer, an out-of-bounds gather, or an unbounded allocation.  The
optional ``checkpoint`` callable is the cooperative-deadline hook: long
decode loops call it so an expired query stops inside a decode, not
after it.
"""

from __future__ import annotations

import re
import struct
import zlib

import numpy as np

from ..errors import CorruptDataError

__all__ = [
    "CODECS", "Codec", "CodecInapplicable", "choose_codec",
    "encode_column", "utf8_bytes",
]

#: values sampled (evenly strided) to price codecs before a full encode
SAMPLE_CAP = 1024
#: a non-identity codec must beat plain UTF-8 by >= 10% on the sample
MAX_RATIO = 0.9
#: dictionary coding requires at most this distinct/sampled ratio
DICT_MAX_DISTINCT = 0.5
#: call the deadline checkpoint every this many values in decode loops
CHECKPOINT_EVERY = 1024

_DICT_HEADER = struct.Struct("<qqqq")    # n, u, key itemsize, code width
_DELTA_HEADER = struct.Struct("<qqq")    # n, delta width, base value
_ZLIB_HEADER = struct.Struct("<qq")      # n, decompressed payload length

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
#: canonical integer text: what ``str(int(v)) == v`` accepts
_CANON_INT = re.compile(r"(0|-?[1-9][0-9]*)\Z")


class CodecInapplicable(Exception):
    """The column cannot be represented by this codec (internal: the
    encode falls back down the codec chain, it never surfaces)."""


def utf8_bytes(values) -> int:
    """Logical size of a column: the summed UTF-8 byte lengths."""
    return sum(len(v.encode("utf-8")) for v in values)


def _ucol(values) -> np.ndarray:
    col = np.asarray(list(values), dtype=np.str_)
    if col.dtype.kind != "U":  # e.g. empty input
        col = col.astype(np.str_)
    return col


def _uint_width(u: int) -> int:
    """Narrowest unsigned byte width whose range covers codes 0..u-1."""
    if u <= 1 << 8:
        return 1
    if u <= 1 << 16:
        return 2
    if u <= 1 << 32:
        return 4
    return 8


def _int_width(lo: int, hi: int) -> int:
    """Narrowest signed byte width covering [lo, hi]."""
    for width in (1, 2, 4, 8):
        bound = 1 << (8 * width - 1)
        if -bound <= lo and hi < bound:
            return width
    raise CodecInapplicable("delta outside int64")


def _header(name: str, path: tuple, records: list[bytes],
            st: struct.Struct, n_records: int) -> tuple:
    vname = "/".join(path)
    if len(records) != n_records:
        raise CorruptDataError(
            f"vector {vname}: {name} chain holds {len(records)} records, "
            f"expected {n_records}")
    if len(records[0]) != st.size:
        raise CorruptDataError(
            f"vector {vname}: malformed {name} header record")
    return st.unpack(records[0])


def _match_n(name: str, path: tuple, hdr_n: int, n: int) -> None:
    if hdr_n != n:
        raise CorruptDataError(
            f"vector {'/'.join(path)}: {name} header says {hdr_n} values, "
            f"catalog says {n}")


class Codec:
    """One storage codec: column values <-> heap-chain records.

    ``decode`` returns the codec's *state* — the cheapest validated form
    of the column (strings for identity/zlib, ``(keys, codes)`` for
    dict, an int64 array for delta).  ``column(state)`` derives the
    string column; ``codes``/``floats`` expose the decode-free query
    surfaces where the state supports them.
    """

    name = "?"
    #: the state *is* the string column (decoding happens at
    #: materialization, not lazily at first string access)
    eager_column = True

    def encode(self, values: list[str]) -> list[bytes]:
        raise NotImplementedError

    def decode(self, path: tuple, n: int, records: list[bytes],
               lbytes: int, checkpoint=None):
        raise NotImplementedError

    def n_records(self, n: int) -> int:
        """Record count of a chain holding ``n`` values."""
        raise NotImplementedError

    def column(self, state) -> np.ndarray:
        return state

    def codes(self, state) -> tuple[np.ndarray, np.ndarray] | None:
        """``(sorted keys, per-value codes)`` when the state is
        dictionary-coded, else ``None``."""
        return None

    def floats(self, state) -> np.ndarray | None:
        """The float64 column when the state is numeric, else ``None``."""
        return None


class IdentityCodec(Codec):
    name = "identity"

    def encode(self, values):
        return [v.encode("utf-8") for v in values]

    def decode(self, path, n, records, lbytes, checkpoint=None):
        if len(records) != n:
            raise CorruptDataError(
                f"vector {'/'.join(path)}: catalog says {n} values, "
                f"chain holds {len(records)}")
        out = []
        for i, rec in enumerate(records):
            if checkpoint is not None and i % CHECKPOINT_EVERY == 0:
                checkpoint()
            try:
                out.append(rec.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise CorruptDataError(
                    f"vector {'/'.join(path)}: value {i} is not valid "
                    f"UTF-8 ({exc})") from exc
        return _ucol(out)

    def n_records(self, n):
        return n


class DictCodec(Codec):
    name = "dict"
    eager_column = False

    def encode(self, values):
        col = _ucol(values)
        n = len(col)
        if n:
            keys, codes = np.unique(col, return_inverse=True)
            codes = codes.astype(np.int64, copy=False).ravel()
        else:
            keys = np.empty(0, dtype="<U1")
            codes = np.empty(0, dtype=np.int64)
        u = len(keys)
        width = _uint_width(u)
        if u:
            karr = np.ascontiguousarray(
                keys, dtype=f"<U{keys.itemsize // 4 or 1}")
            itemsize, blob = karr.itemsize, karr.tobytes()
        else:
            itemsize, blob = 0, b""
        return [
            _DICT_HEADER.pack(n, u, itemsize, width),
            blob,
            codes.astype(f"<u{width}").tobytes(),
        ]

    def decode(self, path, n, records, lbytes, checkpoint=None):
        name = "/".join(path)
        hdr_n, u, itemsize, width = _header(
            "dict", path, records, _DICT_HEADER, 3)
        _match_n("dict", path, hdr_n, n)
        if not 0 <= u <= n:
            raise CorruptDataError(
                f"vector {name}: dictionary of {u} keys over {n} values")
        if width not in (1, 2, 4, 8):
            raise CorruptDataError(
                f"vector {name}: dict code width {width} is not 1/2/4/8")
        if checkpoint is not None:
            checkpoint()
        from ..index.segment import keys_from_blob

        keys = keys_from_blob(f"vector {name}", u, itemsize, records[1])
        if u > 1 and not np.all(keys[1:] > keys[:-1]):
            raise CorruptDataError(
                f"vector {name}: dictionary keys are not strictly "
                f"increasing")
        if len(records[2]) != n * width:
            raise CorruptDataError(
                f"vector {name}: code array is {len(records[2])} bytes, "
                f"expected {n} codes of width {width}")
        codes = np.frombuffer(records[2],
                              dtype=f"<u{width}").astype(np.int64)
        # bounds before any gather: a corrupt code must fail here, not
        # index outside the dictionary
        if n and (u == 0 or int(codes.max()) >= u):
            raise CorruptDataError(
                f"vector {name}: value codes outside the dictionary "
                f"(0..{u - 1})")
        if checkpoint is not None:
            checkpoint()
        return keys, codes

    def n_records(self, n):
        return 3

    def column(self, state):
        keys, codes = state
        if not len(codes):
            return np.empty(0, dtype="<U1").astype(np.str_)
        return keys[codes]

    def codes(self, state):
        return state


class DeltaCodec(Codec):
    name = "delta"
    eager_column = False

    def encode(self, values):
        ints = []
        for v in values:
            if not _CANON_INT.match(v):
                raise CodecInapplicable(f"not canonical integer text: {v!r}")
            i = int(v)
            if not _INT64_MIN <= i <= _INT64_MAX:
                raise CodecInapplicable(f"outside int64: {v!r}")
            ints.append(i)
        n = len(ints)
        base = ints[0] if n else 0
        deltas = [ints[i + 1] - ints[i] for i in range(n - 1)]
        width = _int_width(min(deltas, default=0), max(deltas, default=0))
        return [
            _DELTA_HEADER.pack(n, width, base),
            np.asarray(deltas, dtype=f"<i{width}").tobytes(),
        ]

    def decode(self, path, n, records, lbytes, checkpoint=None):
        name = "/".join(path)
        hdr_n, width, base = _header(
            "delta", path, records, _DELTA_HEADER, 2)
        _match_n("delta", path, hdr_n, n)
        if width not in (1, 2, 4, 8):
            raise CorruptDataError(
                f"vector {name}: delta width {width} is not 1/2/4/8")
        if len(records[1]) != max(0, n - 1) * width:
            raise CorruptDataError(
                f"vector {name}: delta array is {len(records[1])} bytes, "
                f"expected {max(0, n - 1)} deltas of width {width}")
        if checkpoint is not None:
            checkpoint()
        vals = np.empty(n, dtype=np.int64)
        if n:
            deltas = np.frombuffer(records[1],
                                   dtype=f"<i{width}").astype(np.int64)
            vals[0] = base
            np.cumsum(deltas, out=vals[1:])
            vals[1:] += base
        return vals

    def n_records(self, n):
        return 2

    def column(self, state):
        if not len(state):
            return np.empty(0, dtype="<U1").astype(np.str_)
        return np.char.mod("%d", state).astype(np.str_, copy=False)

    def floats(self, state):
        return state.astype(np.float64)


class ZlibCodec(Codec):
    name = "zlib"

    def encode(self, values):
        for v in values:
            if "\x00" in v:
                raise CodecInapplicable("value contains NUL")
        payload = "\x00".join(values).encode("utf-8")
        return [
            _ZLIB_HEADER.pack(len(values), len(payload)),
            zlib.compress(payload, 6),
        ]

    def decode(self, path, n, records, lbytes, checkpoint=None):
        name = "/".join(path)
        hdr_n, payload_len = _header(
            "zlib", path, records, _ZLIB_HEADER, 2)
        _match_n("zlib", path, hdr_n, n)
        # the declared size bounds the decompression allocation; the
        # catalog's logical byte count bounds the declaration (values
        # plus n-1 NUL separators) — a crafted header cannot make this
        # a decompression bomb
        expected = lbytes + n - 1 if n else 0
        if payload_len != expected:
            raise CorruptDataError(
                f"vector {name}: declared payload of {payload_len} bytes, "
                f"catalog implies {expected}")
        if checkpoint is not None:
            checkpoint()
        d = zlib.decompressobj()
        try:
            payload = d.decompress(records[1], payload_len)
        except zlib.error as exc:
            raise CorruptDataError(
                f"vector {name}: zlib payload does not inflate "
                f"({exc})") from exc
        if len(payload) != payload_len or not d.eof \
                or d.unconsumed_tail or d.unused_data:
            raise CorruptDataError(
                f"vector {name}: inflated payload does not match its "
                f"declared {payload_len} bytes")
        if checkpoint is not None:
            checkpoint()
        try:
            text = payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptDataError(
                f"vector {name}: zlib payload is not valid UTF-8 "
                f"({exc})") from exc
        if n == 0:
            if text:
                raise CorruptDataError(
                    f"vector {name}: non-empty payload for 0 values")
            return _ucol([])
        parts = text.split("\x00")
        if len(parts) != n:
            raise CorruptDataError(
                f"vector {name}: payload splits into {len(parts)} values, "
                f"catalog says {n}")
        return _ucol(parts)

    def n_records(self, n):
        return 2


IDENTITY = IdentityCodec()
DICT = DictCodec()
DELTA = DeltaCodec()
ZLIB = ZlibCodec()

#: name -> codec, the registry the catalog names resolve through
CODECS: dict[str, Codec] = {
    c.name: c for c in (IDENTITY, DICT, DELTA, ZLIB)
}

#: when a sampled choice proves inapplicable on the full column, fall
#: back down this chain (dict never fails; identity always applies)
_FALLBACK = {"delta": ZLIB, "zlib": IDENTITY}


def _encoded_len(codec: Codec, values: list[str]) -> int:
    return sum(len(r) for r in codec.encode(values))


def choose_codec(values: list[str]) -> Codec:
    """Deterministic per-vector codec choice from an evenly strided
    sample of up to ``SAMPLE_CAP`` values.  Priority when the sampled
    ratio clears ``MAX_RATIO``: dict (queryable in code space, requires
    low sampled cardinality), then delta (numeric-queryable), then zlib;
    identity otherwise."""
    n = len(values)
    if n == 0:
        return IDENTITY
    stride = max(1, n // SAMPLE_CAP)
    sample = values[::stride][:SAMPLE_CAP]
    budget = MAX_RATIO * max(1, utf8_bytes(sample))
    if len(set(sample)) <= DICT_MAX_DISTINCT * len(sample) and \
            _encoded_len(DICT, sample) <= budget:
        return DICT
    for codec in (DELTA, ZLIB):
        try:
            if _encoded_len(codec, sample) <= budget:
                return codec
        except CodecInapplicable:
            pass
    return IDENTITY


def encode_column(values: list[str]):
    """Encode one column with its chosen codec.

    Returns ``(codec, records, logical bytes, physical bytes)``; when a
    sampled choice proves inapplicable over the full column (a late
    non-numeric value for delta, a NUL for zlib) the encode falls back
    down the chain, ending at identity, which always applies."""
    codec = choose_codec(values)
    while True:
        try:
            records = codec.encode(values)
            break
        except CodecInapplicable:
            codec = _FALLBACK[codec.name]
    return (codec, records, utf8_bytes(values),
            sum(len(r) for r in records))
