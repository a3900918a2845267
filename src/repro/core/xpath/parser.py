"""Recursive-descent parser for the XPath fragment P[*,//].

The scanner, the step loop (:func:`parse_steps`), the node test and the
literal rule are also the XQ parser's: an XQ ``for`` source is parsed in
place by the same functions on a scanner that raises ``XQSyntaxError``.
"""

from __future__ import annotations

from ...errors import XPathSyntaxError
from .ast import CHILD, DESCENDANT, OPS, Path, Pred, Step

_NAME_START = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NAME_CHARS = _NAME_START | set("0123456789-.:")
#: two-character operators first, so ``<=`` is not read as ``<``
_OPS_LONGEST_FIRST = sorted(OPS, key=len, reverse=True)


class Scanner:
    """Tokenizer over the whole query text; every error it builds is an
    ``error`` (the caller's syntax-error class) positioned in that text."""

    def __init__(self, s: str, error: type):
        self.s = s
        self.i = 0
        self.error = error

    def err(self, msg: str) -> Exception:
        return self.error(f"{msg} at offset {self.i} in {self.s!r}")

    def ws(self) -> None:
        while self.i < len(self.s) and self.s[self.i] in " \t\r\n":
            self.i += 1

    def eof(self) -> bool:
        self.ws()
        return self.i >= len(self.s)

    def peek(self, tok: str) -> bool:
        self.ws()
        return self.s.startswith(tok, self.i)

    def eat(self, tok: str) -> bool:
        if self.peek(tok):
            self.i += len(tok)
            return True
        return False

    def expect(self, tok: str) -> None:
        if not self.eat(tok):
            raise self.err(f"expected {tok!r}")

    def name(self) -> str:
        self.ws()
        i = self.i
        if i >= len(self.s) or self.s[i] not in _NAME_START:
            raise self.err("expected a name")
        j = i + 1
        while j < len(self.s) and self.s[j] in _NAME_CHARS:
            j += 1
        self.i = j
        return self.s[i:j]

    def peek_word(self, word: str) -> bool:
        """True iff ``word`` appears next as a whole word."""
        self.ws()
        j = self.i + len(word)
        return (self.s.startswith(word, self.i)
                and (j >= len(self.s) or self.s[j] not in _NAME_CHARS))

    def eat_word(self, word: str) -> bool:
        if self.peek_word(word):
            self.i += len(word)
            return True
        return False

    def expect_word(self, word: str) -> None:
        if not self.eat_word(word):
            raise self.err(f"expected {word!r}")

    def var(self) -> str:
        self.expect("$")
        return self.name()


def parse_test(sc: Scanner, allow_wild: bool) -> str:
    """``NAME | '*' | '@' NAME | 'text()'`` as a skeleton label."""
    if sc.eat("*"):
        if not allow_wild:
            raise sc.err("'*' is not supported here")
        return "*"
    if sc.eat("@"):
        return "@" + sc.name()
    name = sc.name()
    if name == "text" and sc.eat("("):
        sc.expect(")")
        return "#"
    return name


def parse_literal(sc: Scanner) -> str:
    """A quoted string (quotes stripped) or a bare number."""
    sc.ws()
    if sc.i < len(sc.s) and sc.s[sc.i] in "\"'":
        quote = sc.s[sc.i]
        end = sc.s.find(quote, sc.i + 1)
        if end < 0:
            raise sc.err("unterminated string literal")
        value = sc.s[sc.i + 1 : end]
        sc.i = end + 1
        return value
    i = j = sc.i
    while j < len(sc.s) and (sc.s[j].isdigit() or sc.s[j] in "+-.eE"):
        j += 1
    if j == i:
        raise sc.err("expected a literal")
    sc.i = j
    return sc.s[i:j]


def parse_op(sc: Scanner) -> str | None:
    """A comparison operator of ``OPS``, or None if none is next."""
    for op in _OPS_LONGEST_FIRST:
        if sc.eat(op):
            return op
    return None


def _parse_pred(sc: Scanner) -> Pred:
    rel = [parse_test(sc, allow_wild=False)]
    while True:
        if sc.peek("//"):
            raise sc.err("'//' is not supported inside predicates")
        if not sc.eat("/"):
            break
        rel.append(parse_test(sc, allow_wild=False))
    for comp in rel[:-1]:
        if comp == "#" or comp.startswith("@"):
            raise sc.err(f"{comp!r} may only appear last in a predicate path")
    op = parse_op(sc)
    value = None if op is None else parse_literal(sc)
    sc.expect("]")
    return Pred(tuple(rel), op, value)


def parse_steps(sc: Scanner, preds: bool = True) -> tuple:
    """``(('/' | '//') test pred*)*``, ending at the first token that is
    neither ``/`` nor ``//``.  With ``preds=False`` (XQ relative
    bindings) a ``[`` after a step is an error."""
    steps: list[Step] = []
    while True:
        if sc.eat("//"):
            axis = DESCENDANT
        elif sc.eat("/"):
            axis = CHILD
        else:
            return tuple(steps)
        test = parse_test(sc, allow_wild=True)
        if steps and steps[-1].test == "#":
            raise sc.err("text() must be the last step")
        if steps and steps[-1].test.startswith("@") and test != "#":
            raise sc.err("an attribute step may only be followed by text()")
        if not preds and sc.peek("["):
            raise sc.err("predicates are not supported in relative "
                         "bindings; use a where clause")
        found: list[Pred] = []
        while sc.eat("["):
            found.append(_parse_pred(sc))
        steps.append(Step(axis, test, tuple(found)))


def parse_abspath(sc: Scanner) -> Path:
    """An absolute path; it ends where :func:`parse_steps` ends."""
    if not sc.peek("/"):
        raise sc.err("expected an absolute path ('/...' or '//...')")
    return Path(parse_steps(sc))


def parse_xpath(s: str) -> Path:
    """Parse an absolute XPath expression of the fragment P[*,//]."""
    sc = Scanner(s, XPathSyntaxError)
    path = parse_abspath(sc)
    if not sc.eof():
        raise sc.err("unexpected input")
    return path
