"""Data vectors (paper §2.1): one vector per distinct root-to-text label path.

Values are held as a numpy unicode column array so predicate evaluation is a
single vectorized comparison.  A cached float view supports the ordering
operators.

Two kinds of access.  The **query** surface — :meth:`Vector.column`,
:meth:`Vector.dict_codes`, :meth:`Vector.floats` — takes the
:class:`~repro.core.context.EvalContext` that reads; the query reaches it
only through that context's :class:`~repro.core.context.VectorCache`,
which reports one logical scan per touched vector per query (the paper's
"each data vector is scanned at most once") and hands the context down.
A disk-backed subclass (``repro.storage.vdocfile.LazyVector``) defers
materialization to the first touch and charges its page reads and
decoded values to the context it was handed; the shared ``Vector``
itself carries no per-query state, which is what lets two requests
evaluate the same document concurrently, each with its own scan-once
invariant machine-checked.  The **uncharged** surface — ``at``/
``gather``/``take``/``slice``/``tolist``, all through :meth:`Vector._col`
— serves reconstruction, result gathers, save and fsck, which no query
owns.  ``n_pages`` (the on-disk chain length, 0 in memory) bounds one
query's physical reads of the vector.
"""

from __future__ import annotations

import numpy as np

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


class Vector:
    __slots__ = ("path", "_values", "_floats", "n_pages")

    def __init__(self, path: PathKey, values):
        self.path = path
        if isinstance(values, np.ndarray) and values.dtype.kind == "U":
            self._values = values
        else:
            self._values = np.asarray(list(values), dtype=np.str_)
            if self._values.dtype.kind != "U":  # e.g. empty input
                self._values = self._values.astype(np.str_)
        self._floats: np.ndarray | None = None
        self.n_pages = 0      # pages of its on-disk chain (0 = in memory)

    def __len__(self) -> int:
        return len(self._col())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Vector({'/'.join(self.path)!r}, n={len(self)})"

    # -- materialization hook (overridden by disk-backed vectors) ---------

    def _col(self) -> np.ndarray:
        return self._values

    # -- query access: charged to the reading context ---------------------

    def column(self, ctx) -> np.ndarray:
        """The full column; a disk-backed vector charges its
        materialization to ``ctx``."""
        return self._values

    def dict_codes(self, ctx):
        """``(sorted keys, per-value int64 codes)`` when the vector is
        stored dictionary-coded and can be queried in code space without
        building the string column; ``None`` otherwise (always ``None``
        for in-memory vectors — there is nothing to avoid decoding)."""
        return None

    def floats(self, ctx) -> np.ndarray:
        """The column parsed as float64 (NaN where non-numeric), cached.

        Derived from the already-loaded column; it does not count as an
        additional scan.  Numeric-ness is decided by one parse —
        :func:`repro.util.parse_float`, which rejects underscore digit
        separators — on both the bulk and the per-element path, so a
        value's interpretation never depends on its sibling values (or on
        the numpy version's ``astype`` string parser).
        """
        if self._floats is None:
            self._floats = parse_float_column(self._values)
        return self._floats

    # -- uncharged access (reconstruction, result gathers, save) ---------

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
        """Every value in document order (used by the on-disk writer)."""
        return [str(v) for v in self._col()]
