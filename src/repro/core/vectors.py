"""Data vectors (paper §2.1): one vector per distinct root-to-text label path.

A :class:`Vector` is one coded column: ``path``, ``n``, the storage codec
(:mod:`repro.storage.codecs`) its values are encoded with, their logical
(UTF-8) and physical byte counts, a *source* of its encoded records, and
the codec *state* decoded from them on first touch.  The vectorizer
encodes each vector once (:meth:`Vector.encode`), so a vectorized
document holds exactly what ``save`` writes; ``open_vdoc`` builds the
same object with its heap chain as the source.  The source is the only
difference: records in hand (:class:`HeldRecords`, ``n_pages = 0``) or a
chain read through the buffer pool (``n_pages`` = chain length, reads
and codec traffic charged as they happen).

For identity and zlib the state *is* the string column; for ``dict`` and
``delta`` it is the coded form, and the column is derived — and the
decode charged — only when something asks for strings.  A dict-coded
vector queried through :meth:`Vector.dict_codes` or :meth:`Vector.floats`
therefore reports **zero decoded values**.

The **query** surface (``column``/``dict_codes``/``floats``) takes the
:class:`~repro.core.context.EvalContext` that reads, handed down by its
:class:`~repro.core.context.VectorCache` (one logical scan per touched
vector per query); the first touch charges its page reads and decoded
values to it.  The vector itself carries no per-query state, so
concurrent requests share it; concurrent first touches serialize on a
per-vector lock.  The **uncharged** surface (``at``/``gather``/``take``/
``slice``/``tolist``/``records``) serves reconstruction, result gathers,
save and fsck, which no query owns.  A result vector
(:meth:`Vector.of_column`) starts as its gathered column and is encoded
only when its codec, byte counts or records are asked for.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import CorruptDataError
from ..util import parse_float

PathKey = tuple  # tuple[str, ...] root label path, ending with '#'


def parse_float_column(col: np.ndarray) -> np.ndarray:
    """One string column parsed as float64 (NaN where non-numeric) — the
    engine's single numeric-text semantics (:func:`repro.util.parse_float`,
    which rejects underscore digit separators) applied in bulk.  Shared
    by :meth:`Vector.floats` and the dictionary-coded fast path, which
    parses the ``u`` distinct *keys* and gathers — same per-value
    semantics, so the two paths agree exactly."""
    under = np.char.find(col, "_") >= 0 if len(col) else \
        np.zeros(0, dtype=bool)
    try:
        floats = col.astype(np.float64)
        floats[under] = np.nan
    except ValueError:
        floats = np.full(len(col), np.nan)
        for i, v in enumerate(col):
            try:
                floats[i] = parse_float(v)
            except ValueError:
                pass
    return floats


class _Unowned:
    """The context of a read no query owns — reconstruct, save, fsck,
    result gathers, catalog and skeleton loads: nothing is charged to it
    and it never expires."""

    def checkpoint(self) -> None:
        pass

    def note_io(self, unit, pages: int) -> None:
        pass

    def note_decode(self, unit, count: int) -> None:
        pass


UNOWNED = _Unowned()


class HeldRecords:
    """The source of a vector whose encoded records are in hand (the
    vectorizer's output, or a result vector once encoded): reading them
    costs no page and their codec traffic is nobody's I/O."""

    __slots__ = ("records",)

    def __init__(self, records: list[bytes]):
        self.records = records

    def read(self, unit, ctx) -> list[bytes]:
        return self.records

    def note_decode(self, logical: int, physical: int, values: int) -> None:
        pass


class Vector:
    __slots__ = ("path", "n", "n_pages", "_codec", "_lbytes", "_pbytes",
                 "_source", "_state", "_values", "_floats", "_lock")

    def __init__(self, path: PathKey, n: int, codec, lbytes: int,
                 pbytes: int, source, n_pages: int = 0):
        self.path = path
        self.n = n
        #: pages of the source's chain: one query's physical-read bound
        self.n_pages = n_pages
        self._codec = codec
        self._lbytes = lbytes   # logical (UTF-8) bytes
        self._pbytes = pbytes   # encoded bytes
        #: ``read(unit, ctx) -> records`` + ``note_decode(...)``; ``None``
        #: only for a result vector not yet encoded
        self._source = source
        self._state = None
        self._values: np.ndarray | None = None
        self._floats: np.ndarray | None = None
        self._lock = threading.Lock()

    @classmethod
    def encode(cls, path: PathKey, values: list[str]) -> "Vector":
        """The vectorizer's vector: ``values`` encoded once, by the codec
        the chooser picks, into the records ``save`` will write."""
        from ..storage import codecs

        codec, records, lbytes, pbytes = codecs.encode_column(values)
        return cls(path, len(values), codec, lbytes, pbytes,
                   HeldRecords(records))

    @classmethod
    def of_column(cls, path: PathKey, col: np.ndarray) -> "Vector":
        """A result vector built from its gathered string column: the
        column is its (identity) state, and it has no records until
        something asks for them — most results are serialized, never
        saved."""
        from ..storage.codecs import IDENTITY

        vec = cls(path, len(col), IDENTITY, 0, 0, None)
        vec._state = vec._values = col
        return vec

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Vector({'/'.join(self.path)!r}, n={self.n})"

    # -- the stored form ---------------------------------------------------

    def _ensure_encoded(self) -> None:
        """Encode a result vector, once: it adopts the chosen codec and
        keeps its column; its coded state decodes from the new records."""
        if self._source is None:
            from ..storage import codecs

            encoded = codecs.encode_column(self.tolist())
            with self._lock:
                if self._source is None:
                    self._codec, records, self._lbytes, self._pbytes = encoded
                    self._state = None
                    self._source = HeldRecords(records)

    @property
    def codec(self):
        self._ensure_encoded()
        return self._codec

    @property
    def lbytes(self) -> int:
        self._ensure_encoded()
        return self._lbytes

    @property
    def pbytes(self) -> int:
        self._ensure_encoded()
        return self._pbytes

    def records(self) -> list[bytes]:
        """The encoded records, as ``save`` writes them: held records as
        they are, an opened vector's copied off its chain — never decoded
        and re-encoded."""
        self._ensure_encoded()
        return self._checked(self._source.read(self, UNOWNED))

    def _checked(self, records: list[bytes]) -> list[bytes]:
        enc = sum(len(r) for r in records)
        if enc != self._pbytes:
            raise CorruptDataError(
                f"vector {'/'.join(self.path)}: catalog says {self._pbytes}"
                f" encoded bytes, chain holds {enc}")
        return records

    # -- the decoded state -------------------------------------------------

    def _charge(self, ctx, logical: int = 0, physical: int = 0,
                values: int = 0) -> None:
        """Report codec traffic to the source (an opened file's
        ``--io-stats`` / ``/stats``) and decoded values to ``ctx`` (the
        zero-decode assertion)."""
        self._source.note_decode(logical, physical, values)
        ctx.note_decode(self, values)

    def _ensure_state(self, ctx):
        state = self._state
        if state is None:
            with self._lock:
                state = self._state
                if state is None:
                    state = self._materialize(ctx)
                    self._state = state
        return state

    def _materialize(self, ctx):
        records = self._checked(self._source.read(self, ctx))
        state = self._codec.decode(self.path, self.n, records, self._lbytes,
                                   checkpoint=ctx.checkpoint)
        self._charge(ctx, logical=self._lbytes, physical=self._pbytes,
                     values=self.n if self._codec.eager_column else 0)
        return state

    def is_loaded(self) -> bool:
        return self._state is not None

    def drop_cache(self) -> None:
        """Release the decoded state, column and float view: the next
        access decodes the records again (re-read through the pool for an
        opened vector — cold or warm depending on the pool).  A result
        vector not yet encoded keeps its column, its only copy."""
        if self._source is not None:
            self._state = self._values = self._floats = None

    # -- query access: charged to the reading context ---------------------

    def column(self, ctx) -> np.ndarray:
        """The full string column; its first build charges ``ctx``."""
        col = self._values
        if col is None:
            state = self._ensure_state(ctx)
            with self._lock:
                col = self._values
                if col is None:
                    col = self._codec.column(state)
                    if not self._codec.eager_column:
                        # the decode happens here, not at materialization
                        self._charge(ctx, values=self.n)
                    self._values = col
        return col

    def dict_codes(self, ctx):
        """``(sorted keys, per-value int64 codes)`` of a dictionary-coded
        vector — loads the coded state (charging its pages as usual) but
        never builds the string column; ``None`` for any other codec."""
        if self.codec.name != "dict":
            return None
        return self._codec.codes(self._ensure_state(ctx))

    def floats(self, ctx) -> np.ndarray:
        """The column parsed as float64 (NaN where non-numeric), cached,
        without decoding where the codec allows it: delta state *is*
        numeric; a dict state parses only the ``u`` distinct keys and
        gathers — same per-value semantics (:func:`parse_float_column`)
        as the column path, so results are byte-identical.  It does not
        count as an additional scan."""
        if self._floats is None:
            state = self._ensure_state(ctx)
            f = self._codec.floats(state)
            if f is None:
                dc = self._codec.codes(state)
                if dc is not None:
                    keys, codes = dc
                    f = parse_float_column(np.asarray(keys,
                                                      dtype=np.str_))[codes]
                else:
                    f = parse_float_column(self.column(ctx))
            self._floats = f
        return self._floats

    # -- uncharged access (reconstruction, result gathers, save) ---------

    def _col(self) -> np.ndarray:
        return self.column(UNOWNED)

    def at(self, i: int) -> str:
        return str(self._col()[i])

    def gather(self, ids: np.ndarray) -> np.ndarray:
        """Bulk positional gather as a numpy column (result construction
        copies source ranges into output vectors with this)."""
        return self._col()[ids]

    def take(self, ids: np.ndarray) -> list[str]:
        return [str(v) for v in self._col()[ids]]

    def slice(self, start: int, stop: int) -> list[str]:
        return [str(v) for v in self._col()[start:stop]]

    def tolist(self) -> list[str]:
        """Every value in document order."""
        return self._col().tolist()
