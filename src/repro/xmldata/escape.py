"""XML character escaping / entity resolution (no external XML library)."""

from __future__ import annotations

from ..errors import ParseError

_BUILTIN = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}


def escape_text(s: str) -> str:
    """Escape character data for element content."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attr(s: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    return (
        s.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


_HEX_DIGITS = set("0123456789abcdefABCDEF")
_DEC_DIGITS = set("0123456789")


def _char_ref(name: str, pos: int) -> str:
    """Resolve a numeric character reference ``#...`` / ``#x...``; any
    malformed or out-of-range reference is a :class:`ParseError` at the
    ``&`` position — never a raw ``ValueError`` out of ``int``/``chr``."""
    if name.startswith("#x") or name.startswith("#X"):
        digits, base, allowed = name[2:], 16, _HEX_DIGITS
    else:
        digits, base, allowed = name[1:], 10, _DEC_DIGITS
    if not digits or not all(c in allowed for c in digits):
        raise ParseError(f"malformed character reference &{name};", pos)
    code = int(digits, base)
    if code > 0x10FFFF:
        raise ParseError(
            f"character reference &{name}; out of range (> U+10FFFF)", pos)
    if 0xD800 <= code <= 0xDFFF:
        # a lone surrogate is no XML character, and no UTF-8 encodes it
        raise ParseError(
            f"character reference &{name}; is a surrogate code point", pos)
    return chr(code)


def unescape(s: str) -> str:
    """Resolve the five builtin entities and numeric character references."""
    if "&" not in s:
        return s
    out: list[str] = []
    i, n = 0, len(s)
    while i < n:
        amp = s.find("&", i)
        if amp < 0:
            out.append(s[i:])
            break
        out.append(s[i:amp])
        semi = s.find(";", amp + 1)
        if semi < 0:
            raise ParseError("unterminated entity reference", amp)
        name = s[amp + 1 : semi]
        if name.startswith("#"):
            out.append(_char_ref(name, amp))
        elif name in _BUILTIN:
            out.append(_BUILTIN[name])
        else:
            raise ParseError(f"unknown entity &{name};", amp)
        i = semi + 1
    return "".join(out)
