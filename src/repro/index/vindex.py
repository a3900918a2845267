"""Value indexes over data vectors ("vindex", paper §6).

One :class:`ValueIndex` accelerates **constant selections** over one
text-path vector of ``n`` values with ``u`` distinct strings: instead of
a full-column predicate mask plus prefix sum, a probe returns the sorted
row ordinals matching the constant and the per-row existential becomes
two ``searchsorted`` calls.

The sorted key dictionary is the structure shared with everything else
that codes values — a ``dict``-coded vector stores the same kind, and
the equality join makes one for any other operand; :func:`key_code`
looks one key up in it and :func:`merge_codings` maps several of them
into one code space.

Structure (all numpy, all derivable from the column alone — the
persistent form in :mod:`repro.index.segment` stores exactly these
arrays):

* ``keys``      — the ``u`` distinct values, sorted (``np.unique`` order);
* ``offsets``/``rows`` — CSR postings: ``rows`` is a permutation of
  ``arange(n)`` grouped by key code, ascending within each group;
  ``rows[offsets[c]:offsets[c+1]]`` are the sorted row ordinals holding
  ``keys[c]``;
* an equality probe finds its key code by one binary search over
  ``keys`` (:func:`key_code` — the same lookup the scan path uses for a
  dictionary-coded vector, so the sorted dictionary is the only answer
  to "which code is this key");
* numeric sub-index — the codes of keys that parse as finite floats
  (through :func:`repro.util.parse_float`, the engine's *single*
  definition of numeric text), sorted by (value, code); a range probe is
  two ``searchsorted`` calls over ``num_vals``.

Probes are existentially *identical* to the scan path's
``pred_mask`` + prefix-sum semantics — NaN text never matches an ordering
operator, a non-numeric constant matches nothing — which is what lets the
engine assert byte-identical results between the two access paths.
"""

from __future__ import annotations

import numpy as np

from ..util import parse_float

_EMPTY = np.empty(0, dtype=np.int64)


def key_code(keys: np.ndarray, value: str) -> int:
    """Code of ``value`` in a strictly increasing key dictionary, or -1.
    A constant longer than the widest key cannot be one of them — and
    must not reach ``searchsorted``, which would widen a copy of the
    whole dictionary to the constant's length."""
    if not len(keys) or len(value) > keys.dtype.itemsize // 4:
        return -1
    pos = int(keys.searchsorted(value))
    return pos if pos < len(keys) and keys[pos] == value else -1


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``[start, start+length)`` ranges without a Python loop."""
    total = int(lengths.sum())
    if total == 0:
        return _EMPTY
    offs = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return np.repeat(starts - offs, lengths) + np.arange(total,
                                                         dtype=np.int64)


def count_in_ranges(matches: np.ndarray, starts: np.ndarray,
                    lengths: np.ndarray) -> np.ndarray:
    """Per range ``[start, start+length)``: how many of the *sorted*
    ordinals in ``matches`` fall inside — two searchsorted calls, no
    full-column pass."""
    return (np.searchsorted(matches, starts + lengths)
            - np.searchsorted(matches, starts))


class ValueIndex:
    """The probe form of one vector's value index (what a persistent
    segment decodes to)."""

    __slots__ = ("path", "n", "keys", "offsets", "rows", "num_codes",
                 "num_vals")

    def __init__(self, path: tuple, n: int, keys: np.ndarray,
                 offsets: np.ndarray, rows: np.ndarray,
                 num_codes: np.ndarray, num_vals: np.ndarray):
        self.path = path
        self.n = n
        self.keys = keys
        self.offsets = offsets
        self.rows = rows
        self.num_codes = num_codes
        self.num_vals = num_vals

    @property
    def distinct(self) -> int:
        return len(self.keys)

    # -- probes ------------------------------------------------------------

    def code_of(self, value: str) -> int:
        """The key code of ``value``, or -1."""
        return key_code(self.keys, value)

    def rows_of_code(self, code: int) -> np.ndarray:
        return self.rows[self.offsets[code]:self.offsets[code + 1]]

    def eq_rows(self, value: str) -> np.ndarray:
        """Sorted row ordinals whose value equals ``value`` exactly."""
        code = self.code_of(value)
        return _EMPTY if code < 0 else self.rows_of_code(code)

    def rows_of_codes(self, codes: np.ndarray) -> np.ndarray:
        """Sorted union of the posting lists of ``codes``."""
        if not len(codes):
            return _EMPTY
        lengths = self.offsets[codes + 1] - self.offsets[codes]
        slots = _concat_ranges(self.offsets[codes], lengths)
        return np.sort(self.rows[slots])

    def range_rows(self, op: str, const: str) -> np.ndarray | None:
        """Sorted row ordinals whose *numeric* value satisfies
        ``value op const`` — ``None`` when the constant itself is not
        numeric (the scan-path mask is all-False then)."""
        try:
            c = parse_float(const)
        except ValueError:
            return None
        if c != c:  # NaN constant: no ordering comparison ever holds
            return _EMPTY
        vals = self.num_vals
        if op == "<":
            sel = self.num_codes[:np.searchsorted(vals, c, side="left")]
        elif op == "<=":
            sel = self.num_codes[:np.searchsorted(vals, c, side="right")]
        elif op == ">":
            sel = self.num_codes[np.searchsorted(vals, c, side="right"):]
        elif op == ">=":
            sel = self.num_codes[np.searchsorted(vals, c, side="left"):]
        else:
            raise ValueError(f"not an ordering operator: {op!r}")
        return self.rows_of_codes(sel)


def select_keep(vi: ValueIndex, op: str, value: str, starts: np.ndarray,
                lengths: np.ndarray) -> np.ndarray:
    """Existential keep mask per row range — the index-probe equivalent of
    ``pred_mask`` + prefix sum, byte-identical by construction."""
    if op == "=":
        return count_in_ranges(vi.eq_rows(value), starts, lengths) > 0
    if op == "!=":
        # ∃ x ≠ value ⟺ the range holds more values than its `= value` hits
        return (lengths - count_in_ranges(vi.eq_rows(value), starts,
                                          lengths)) > 0
    matches = vi.range_rows(op, value)
    if matches is None:
        return np.zeros(len(starts), dtype=bool)
    return count_in_ranges(matches, starts, lengths) > 0


def build_value_index(path: tuple, column) -> ValueIndex:
    """Build the full index from one materialized column."""
    col = np.asarray(column, dtype=np.str_)
    n = len(col)
    if n:
        keys, inverse = np.unique(col, return_inverse=True)
        inverse = inverse.astype(np.int64, copy=False).ravel()
    else:
        keys = np.empty(0, dtype="<U1")
        inverse = _EMPTY
    return build_value_index_from_codes(path, keys, inverse)


def build_value_index_from_codes(path: tuple, keys: np.ndarray,
                                 codes: np.ndarray) -> ValueIndex:
    """Build the index from an existing dictionary coding — ``keys``
    sorted ascending (``np.unique`` order) and one key code per row.
    This is how the save path indexes a ``dict``-coded vector: the
    codec's own (keys, codes) feed the index directly, so the persisted
    segment and the compressed chain can never disagree within one save
    (and the string column is never rebuilt just to index it)."""
    n = len(codes)
    if n:
        inverse = np.asarray(codes, dtype=np.int64).ravel()
        counts = np.bincount(inverse,
                             minlength=len(keys)).astype(np.int64)
        rows = np.argsort(inverse, kind="stable").astype(np.int64)
    else:
        counts, rows = _EMPTY, _EMPTY
    u = len(keys)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)

    ncodes: list[int] = []
    nvals: list[float] = []
    for code in range(u):
        try:
            v = parse_float(str(keys[code]))
        except ValueError:
            continue
        if v == v:  # NaN text never matches an ordering operator: drop it
            ncodes.append(code)
            nvals.append(v)
    num_codes = np.asarray(ncodes, dtype=np.int64)
    num_vals = np.asarray(nvals, dtype=np.float64)
    order = np.lexsort((num_codes, num_vals))
    return ValueIndex(path, n, keys, offsets, rows, num_codes[order],
                      num_vals[order])


def merge_codings(dictionaries: list[np.ndarray]) -> tuple[list[np.ndarray], int]:
    """Map the local codes of several key dictionaries — each a strictly
    increasing string array, ``np.unique`` order — into one shared code
    space.

    Equal strings across dictionaries always share a code; distinct
    strings never collide.  Work is proportional to the *dictionaries*
    (sorted string arrays, merged via searchsorted), never to the row
    counts — this is what lets an equality join compare integers only.

    Returns ``(remaps, size)``: one ``local code -> shared code`` array
    per dictionary, and the shared space size.
    """
    remaps: list[np.ndarray] = []
    coded: list[tuple[np.ndarray, np.ndarray]] = []
    next_code = 0
    for keys in dictionaries:
        remap = np.full(len(keys), -1, dtype=np.int64)
        for prev_keys, prev_codes in coded:
            todo = np.flatnonzero(remap < 0)
            if not len(todo) or not len(prev_keys):
                continue
            pos = np.searchsorted(prev_keys, keys[todo])
            ok = pos < len(prev_keys)
            hit = np.zeros(len(todo), dtype=bool)
            hit[ok] = prev_keys[pos[ok]] == keys[todo[ok]]
            remap[todo[hit]] = prev_codes[pos[hit]]
        fresh = np.flatnonzero(remap < 0)
        remap[fresh] = next_code + np.arange(len(fresh), dtype=np.int64)
        next_code += len(fresh)
        remaps.append(remap)
        coded.append((keys, remap))
    return remaps, next_code
