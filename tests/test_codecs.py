"""The format-v4 storage codecs in isolation: roundtrip identity over
random and adversarial columns, deterministic codec choice, fallback on
late-inapplicable columns, and the decode trust boundary — every
structural tamper of the encoded records raises a located
:class:`CorruptDataError`, never an arbitrary exception, a wrong-shape
result, or an unbounded allocation (bit-level *content* integrity is the
page-checksum layer's job, exercised by the file-level fuzz suites)."""

import random
import zlib

import numpy as np
import pytest

from repro.errors import CorruptDataError
from repro.storage.codecs import (
    CODECS,
    DELTA,
    DICT,
    IDENTITY,
    ZLIB,
    _ZLIB_HEADER,
    choose_codec,
    encode_column,
    utf8_bytes,
)

PATH = ("r", "it", "v", "#")


def _roundtrip(codec, values):
    records = codec.encode(list(values))
    assert len(records) == codec.n_records(len(values))
    state = codec.decode(PATH, len(values), records, utf8_bytes(values))
    col = codec.column(state)
    assert col.tolist() == list(values)
    return records, state


# -- roundtrip: crafted columns ---------------------------------------------

ADVERSARIAL = [
    [],
    [""],
    ["", "", ""],
    ["a", "", "a", "b", ""],
    ["same"] * 50,
    ["naïve", "日本語", "🜁🜂", "a\nb", "  spaced  ", "'quoted'"],
    [str(i) for i in range(-5, 5)],
    ["0", "-0" if False else "0", "9" * 18],          # near int64 text
    [f"k{i % 3}" for i in range(100)],
]


@pytest.mark.parametrize("values", ADVERSARIAL)
def test_identity_zlib_roundtrip_any_column(values):
    _roundtrip(IDENTITY, values)
    _roundtrip(ZLIB, values)


@pytest.mark.parametrize("values", [
    [], [""], ["x"] * 20, ["", "a", "", "a"],
    ["naïve", "日本語", "naïve", "🜁🜂", "日本語"] * 4,
    [f"c{i % 7}" for i in range(300)],
])
def test_dict_roundtrip_and_code_surface(values):
    _, state = _roundtrip(DICT, values)
    keys, codes = DICT.codes(state)
    # the dictionary is the value indexes' exact key order: sorted distinct
    assert keys.tolist() == sorted(set(values))
    assert [keys[c] for c in codes] == list(values)


@pytest.mark.parametrize("values", [
    [], ["0"], ["5", "5", "5"],
    [str(i) for i in range(1000, 1200)],
    [str(i * 997 - 50000) for i in range(80)],
    ["-9223372036854775808", "-9223372036854775807"],  # int64 floor
    ["9223372036854775806", "9223372036854775807"],    # int64 ceiling
])
def test_delta_roundtrip_and_float_surface(values):
    _, state = _roundtrip(DELTA, values)
    floats = DELTA.floats(state)
    assert floats.dtype == np.float64
    assert len(floats) == len(values)


def test_delta_rejects_non_canonical_integers():
    from repro.storage.codecs import CodecInapplicable

    # "-0" would decode as "0": not canonical (str(int(v)) != v)
    for bad in ["01", "+1", "1.0", " 1", "", "ten", "0x1", "-0", "-01"]:
        with pytest.raises(CodecInapplicable):
            DELTA.encode(["1", bad])


# -- roundtrip: randomized property -----------------------------------------

def _random_column(rng):
    kind = rng.randrange(4)
    n = rng.randrange(0, 400)
    if kind == 0:       # low cardinality -> dict territory
        pool = [f"v{i}" for i in range(rng.randrange(1, 6))]
        return [rng.choice(pool) for _ in range(n)]
    if kind == 1:       # near-sequential integers -> delta territory
        base = rng.randrange(-10**6, 10**6)
        return [str(base + i * rng.randrange(1, 9)) for i in range(n)]
    if kind == 2:       # repetitive text -> zlib territory
        return [f"the quick brown fox {i % 10}" for i in range(n)]
    alphabet = "abc déf🜁\n'\"<>&"
    return ["".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
            for _ in range(n)]


@pytest.mark.parametrize("seed", range(25))
def test_encode_column_roundtrips_any_column(seed):
    rng = random.Random(seed)
    values = _random_column(rng)
    codec, records, lbytes, pbytes = encode_column(values)
    assert lbytes == utf8_bytes(values)
    assert pbytes == sum(len(r) for r in records)
    state = codec.decode(PATH, len(values), records, lbytes)
    assert codec.column(state).tolist() == values
    # a non-identity choice must actually compress
    if codec is not IDENTITY and lbytes:
        assert pbytes < lbytes


def test_choose_codec_is_deterministic_and_sensible():
    low_card = [f"c{i % 4}" for i in range(500)]
    seq = [str(10_000 + i) for i in range(500)]
    prose = [f"some repetitive prose value number {i}" for i in range(200)]
    assert choose_codec(low_card) is DICT
    assert choose_codec(seq) is DELTA
    assert choose_codec(prose) is ZLIB
    assert choose_codec([]) is IDENTITY
    for col in (low_card, seq, prose):
        assert choose_codec(col) is choose_codec(list(col))


def test_encode_column_falls_back_on_late_inapplicable_values():
    # the strided sample sees only integers, so delta is chosen — the
    # full encode then hits the trailing prose and must fall back, not
    # fail, and still roundtrip exactly
    values = [str(i) for i in range(300)] + ["not a number"]
    codec, records, lbytes, _ = encode_column(values)
    assert codec in (ZLIB, IDENTITY)
    state = codec.decode(PATH, len(values), records, lbytes)
    assert codec.column(state).tolist() == values
    # a NUL defeats zlib's separator too: identity is the terminal fallback
    values = [str(i) for i in range(300)] + ["nul\x00here"]
    codec, records, lbytes, _ = encode_column(values)
    assert codec is IDENTITY
    state = codec.decode(PATH, len(values), records, lbytes)
    assert codec.column(state).tolist() == values


# -- the decode trust boundary ----------------------------------------------

def test_dict_decode_rejects_structural_damage():
    values = [f"k{i % 3}" for i in range(30)]
    records = DICT.encode(values)
    cases = [
        records[:2],                                     # missing record
        [records[0][:-1], records[1], records[2]],       # short header
        [records[0], records[1][:-4], records[2]],       # truncated keys
        [records[0], records[1], records[2][:-1]],       # truncated codes
        [records[0], records[1], b"\xff" * 30],          # codes out of range
    ]
    hdr = list(__import__("struct").unpack("<qqqq", records[0]))
    for field, value in ((0, 7), (1, 31), (2, 5), (3, 3)):
        bad = hdr[:]
        bad[field] = value
        cases.append([__import__("struct").pack("<qqqq", *bad),
                      records[1], records[2]])
    for case in cases:
        with pytest.raises(CorruptDataError, match="r/it/v/#"):
            DICT.decode(PATH, len(values), case, utf8_bytes(values))


def test_dict_decode_rejects_unsorted_dictionary():
    import struct

    # hand-build an otherwise-valid encoding whose keys are swapped: the
    # permutation check must refuse it (value indexes and code-space
    # equality both assume the sorted np.unique order)
    keys = np.asarray(["b", "a"], dtype="<U1")
    codes = np.asarray([0, 1, 0], dtype="<u1")
    records = [struct.pack("<qqqq", 3, 2, keys.itemsize, 1),
               keys.tobytes(), codes.tobytes()]
    with pytest.raises(CorruptDataError, match="increasing"):
        DICT.decode(PATH, 3, records, 3)


def test_delta_decode_rejects_structural_damage():
    values = [str(i) for i in range(50)]
    records = DELTA.encode(values)
    cases = [
        records[:1],
        [records[0][:-1], records[1]],
        [records[0], records[1][:-1]],                   # truncated deltas
        [records[0], records[1] + b"\x00"],              # oversized deltas
    ]
    for case in cases:
        with pytest.raises(CorruptDataError, match="r/it/v/#"):
            DELTA.decode(PATH, len(values), case, utf8_bytes(values))


def test_zlib_decode_rejects_bomb_and_damage():
    values = [f"text {i % 5}" for i in range(40)]
    lbytes = utf8_bytes(values)
    records = ZLIB.encode(values)
    # a crafted header declaring a huge payload must be refused *before*
    # decompression: the declaration is cross-checked against the
    # catalog's logical byte count, so it can never size the allocation
    bomb = [_ZLIB_HEADER.pack(len(values), 1 << 40),
            zlib.compress(b"\x00" * 4096)]
    with pytest.raises(CorruptDataError, match="catalog implies"):
        ZLIB.decode(PATH, len(values), bomb, lbytes)
    cases = [
        records[:1],
        [records[0][:-1], records[1]],
        [records[0], records[1][:-2]],                   # broken stream
        [records[0], b"\x00" + records[1]],
        [_ZLIB_HEADER.pack(len(values) + 1, lbytes + len(values)),
         records[1]],                                    # n mismatch
    ]
    for case in cases:
        with pytest.raises(CorruptDataError, match="r/it/v/#"):
            ZLIB.decode(PATH, len(values), case, lbytes)


def test_identity_decode_rejects_bad_utf8_and_count():
    values = ["a", "b"]
    records = IDENTITY.encode(values)
    with pytest.raises(CorruptDataError, match="UTF-8"):
        IDENTITY.decode(PATH, 2, [records[0], b"\xff\xfe"], 2)
    with pytest.raises(CorruptDataError, match="chain holds"):
        IDENTITY.decode(PATH, 3, records, 2)


@pytest.mark.parametrize("codec_name", sorted(CODECS))
@pytest.mark.parametrize("seed", range(15))
def test_record_tamper_never_escapes_the_boundary(codec_name, seed):
    """Random byte-level tampering of valid records: decode either raises
    CorruptDataError or returns a well-formed column of the cataloged
    length — never any other exception and never a wrong-shape result.
    (Whether a surviving decode matches the original bytes is the page
    checksum layer's guarantee, covered by the file-level fuzz.)"""
    codec = CODECS[codec_name]
    values = [f"k{i % 4}" if codec_name == "dict" else str(100 + i)
              for i in range(60)]
    if codec_name == "zlib":
        values = [f"prose value {i % 6}" for i in range(60)]
    base = codec.encode(values)
    lbytes = utf8_bytes(values)
    rng = random.Random(seed)
    records = [bytearray(r) for r in base]
    for _ in range(rng.randrange(1, 4)):
        target = rng.randrange(len(records))
        action = rng.randrange(3)
        if action == 0 and records[target]:
            off = rng.randrange(len(records[target]))
            records[target][off] ^= 1 << rng.randrange(8)
        elif action == 1:
            records[target] = records[target][:rng.randrange(
                len(records[target]) + 1)]
        else:
            records[target] += bytes([rng.randrange(256)])
    try:
        state = codec.decode(PATH, len(values), [bytes(r) for r in records],
                             lbytes)
    except CorruptDataError:
        return
    assert len(codec.column(state)) == len(values)
