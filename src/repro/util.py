"""Small shared helpers: numeric text parsing, table formatting."""

from __future__ import annotations


def parse_float(s: str) -> float:
    """The engine's *single* definition of "numeric text" for the ordering
    operators.

    Python's ``float()`` accepts underscore digit separators (``"1_0"`` →
    10.0) while numpy's column-wise ``astype(float)`` rejects them on some
    versions and accepts them on others — so a value's numeric
    interpretation could depend on which code path (and which numpy) parsed
    it, i.e. on its *sibling* values.  Every comparison path goes through
    this one parse instead: underscore literals are rejected outright.

    Raises ``ValueError`` for non-numeric text.
    """
    if "_" in s:
        raise ValueError(f"underscore digit separators rejected: {s!r}")
    return float(s)


def fmt_table(headers: list[str], rows: list[list[str]]) -> str:
    """Render a plain-text table with right-aligned columns."""
    cols = [headers] + rows
    widths = [max(len(str(r[i])) for r in cols) for i in range(len(headers))]
    lines = []
    for r in cols:
        lines.append("  ".join(str(v).rjust(w) for v, w in zip(r, widths)))
        if r is headers:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
