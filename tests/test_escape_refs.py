"""Regression: malformed numeric character references must raise
ParseError (the parser's error contract), never a raw ValueError, and
must carry the offending position."""

import pytest

from repro.errors import ParseError
from repro.xmldata import parse
from repro.xmldata.escape import unescape


@pytest.mark.parametrize("ref", [
    "&#xzz;",        # non-hex digits
    "&#;",           # empty reference
    "&#x;",          # empty hex reference
    "&#x110000;",    # beyond U+10FFFF
    "&#1114112;",    # beyond U+10FFFF, decimal
    "&#-3;",         # sign is not a digit
    "&#1_0;",        # underscore separators rejected
    "&#0x41;",       # hex prefix inside a decimal reference
    "&#xD800;",      # a lone surrogate is no XML character
    "&#57343;",      # U+DFFF, decimal
])
def test_malformed_char_refs_raise_parse_error(ref):
    with pytest.raises(ParseError):
        unescape("ab" + ref + "cd")
    # and never a bare ValueError escaping the contract
    try:
        unescape(ref)
    except ParseError:
        pass


@pytest.mark.parametrize("text,expected", [
    ("&#x41;", "A"),
    ("&#X41;", "A"),
    ("&#65;", "A"),
    ("&#x10FFFF;", "\U0010ffff"),
    ("&#xa9;&#169;", "©©"),
])
def test_wellformed_char_refs_resolve(text, expected):
    assert unescape(text) == expected


def test_position_is_reported():
    with pytest.raises(ParseError) as exc:
        unescape("abcd&#xzz;")
    assert exc.value.pos == 4
    assert "offset 4" in str(exc.value)


@pytest.mark.parametrize("doc", [
    "<a>&#xzz;</a>",
    "<a>&#;</a>",
    "<a>&#x110000;</a>",
    '<a b="&#xzz;"/>',
])
def test_parser_reports_parse_error_not_value_error(doc):
    with pytest.raises(ParseError):
        parse(doc)
