"""Mutation fuzz of the three parsers (ROADMAP §8): a malformed input
gives a result or the parser's own positioned error, never another
exception.  Seeded byte mutations (insert, delete, swap) of the queries in
the parser tests and of two small XML documents."""

import ast
import pathlib
import random

import pytest

from repro.core.xpath import Path, parse_xpath
from repro.core.xquery import XQuery, parse_xq
from repro.errors import ParseError, XPathSyntaxError, XQSyntaxError
from repro.xmldata import Element, parse

HERE = pathlib.Path(__file__).parent
ALPHABET = (list("/[]'\"$<>{}=!,@*()") + [" ", "\t", "\n"]
            + ["for", "in", "let", "where", "return", "and", "collection",
               "text()"])
XML_DOCS = [
    '<site><people><person id="p1"><name>Ann</name><profile age="3">'
    "<interest>x &amp; y</interest></profile></person></people></site>",
    '<?xml version="1.0"?><!-- c --><a x="1"><b>hi<![CDATA[<raw>]]></b>'
    "<c/>tail&#65;<?pi data?></a>",
]


def _queries(name: str) -> list[str]:
    """String constants of a parser test module that look like queries."""
    tree = ast.parse((HERE / name).read_text())
    return sorted({n.value for n in ast.walk(tree)
                   if isinstance(n, ast.Constant) and isinstance(n.value, str)
                   and n.value.lstrip().startswith(("/", "for", "<"))})


def _mutants(seeds: list[str], n: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        s = rng.choice(seeds)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(s) + 1)
            op = rng.randrange(3)
            if op == 0:
                s = s[:i] + rng.choice(ALPHABET) + s[i:]
            elif op == 1:
                s = s[:i] + s[i + rng.randint(1, 3):]
            elif len(s) > 1:
                i = min(i, len(s) - 2)
                s = s[:i] + s[i + 1] + s[i] + s[i + 2:]
        out.append(s)
    return out


QUERIES = (_queries("test_xquery_parser.py")
           + _queries("test_xpath_parser.py"))


@pytest.mark.parametrize("parser, result, error", [
    (parse_xq, XQuery, XQSyntaxError),
    (parse_xpath, Path, XPathSyntaxError),
])
def test_query_parser_mutants(parser, result, error):
    bad = []
    for text in _mutants(QUERIES, 20000, seed=1):
        try:
            assert isinstance(parser(text), result)
        except error:
            pass
        except Exception as e:  # noqa: BLE001 -- the property under test
            bad.append((text, type(e).__name__, str(e)))
    assert not bad, f"{len(bad)} mutants escaped {error.__name__}: {bad[:5]}"


def test_xml_parser_mutants():
    bad = []
    for text in _mutants(XML_DOCS, 4000, seed=2):
        try:
            assert isinstance(parse(text), Element)
        except ParseError:
            pass
        except Exception as e:  # noqa: BLE001 -- the property under test
            bad.append((text, type(e).__name__, str(e)))
    assert not bad, f"{len(bad)} mutants escaped ParseError: {bad[:5]}"
