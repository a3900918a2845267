"""Regression: one definition of "numeric" for the ordering operators.

Python's ``float()`` accepts underscore digit separators while numpy's
column ``astype(float)`` treats them version-dependently, so
the float view's fast and slow paths could disagree — the numeric
interpretation of ``"1_0"`` depended on whether a *sibling* value forced
the per-element fallback.  Everything now goes through
``repro.util.parse_float``, which rejects underscores outright."""

import numpy as np
import pytest

from repro.core.engine import eval_query
from repro.core.vdoc import VectorizedDocument
from repro.core.vectors import parse_float_column
from repro.util import parse_float


def test_parse_float_rejects_underscores():
    for bad in ("1_0", "1_000.5", "_1", "1_", "1e1_0"):
        with pytest.raises(ValueError):
            parse_float(bad)
    assert parse_float("10") == 10.0
    assert parse_float(" 2.5 ") == 2.5
    assert parse_float("-3e2") == -300.0


def test_underscore_is_nan_in_clean_column():
    # every sibling casts cleanly: the bulk path must still reject "1_0"
    f = parse_float_column(np.array(["1_0", "5", "7.5"]))
    assert np.isnan(f[0]) and f[1] == 5.0 and f[2] == 7.5


def test_underscore_is_nan_in_dirty_column():
    # a non-numeric sibling forces the per-element path: same answer
    f = parse_float_column(np.array(["1_0", "banana", "5"]))
    assert np.isnan(f[0]) and np.isnan(f[1]) and f[2] == 5.0


def test_ordering_results_do_not_depend_on_sibling_values():
    clean = "<r><p><v>1_0</v></p><p><v>7</v></p></r>"
    dirty = "<r><p><v>1_0</v></p><p><v>7</v></p><p><v>banana</v></p></r>"
    for doc in (clean, dirty):
        vdoc = VectorizedDocument.from_xml(doc)
        got = {
            mode: eval_query(vdoc, "/r/p[v > 5]", mode=mode).count()
            for mode in ("vx", "naive")
        }
        # only the literal 7 qualifies — "1_0" is not numeric anywhere
        assert got == {"vx": 1, "naive": 1}, doc


def test_underscore_constant_matches_nothing():
    vdoc = VectorizedDocument.from_xml("<r><p><v>7</v></p></r>")
    for mode in ("vx", "naive"):
        assert eval_query(vdoc, "/r/p[v > '1_0']", mode=mode).count() == 0
        # equality is still plain string comparison, untouched by the fix
        assert eval_query(vdoc, "/r/p[v = '7']", mode=mode).count() == 1
