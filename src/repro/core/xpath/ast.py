"""AST for the XPath fragment P[*,//] (paper §3.1).

Grammar (absolute paths only)::

    path      := ('/' | '//') step (('/' | '//') step)*
    step      := test pred*
    test      := NAME | '*' | '@' NAME | 'text()'
    pred      := '[' relpath (op literal)? ']'
    relpath   := test ('/' test)*        -- concrete child-axis only
    op        := '=' | '!=' | '<' | '<=' | '>' | '>='

Tests are normalized to skeleton labels: ``text()`` -> ``#``, ``@x`` ->
``@x``.  A predicate with no operator asserts existence of the relative
path; a comparison predicate has existential semantics — it holds iff some
text value directly under the relative path compares true (the paper's
formal fragment has ``=`` only; the other comparators are the documented
extension of DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

CHILD = "child"
DESCENDANT = "descendant"

OPS = ("=", "!=", "<=", ">=", "<", ">")


@dataclass(frozen=True)
class Pred:
    relpath: tuple  # tuple[str, ...] concrete labels ('#'/@ allowed at end)
    op: str | None = None
    value: str | None = None

    def __str__(self) -> str:
        rel = "/".join("text()" if c == "#" else c for c in self.relpath)
        if self.op is None:
            return f"[{rel}]"
        return f"[{rel} {self.op} '{self.value}']"


@dataclass(frozen=True)
class Step:
    axis: str  # CHILD or DESCENDANT
    test: str  # label, '*', '@name' or '#'
    preds: tuple = ()

    def matches(self, label: str) -> bool:
        """Does the node test accept a node labelled ``label``?  ``*`` is
        any *element*: neither text (``#``) nor an attribute (``@x``)."""
        if self.test == "*":
            return label != "#" and not label.startswith("@")
        return self.test == label

    def __str__(self) -> str:
        sep = "//" if self.axis == DESCENDANT else "/"
        test = "text()" if self.test == "#" else self.test
        return sep + test + "".join(str(p) for p in self.preds)


@dataclass(frozen=True)
class Path:
    steps: tuple  # tuple[Step, ...]

    def __str__(self) -> str:
        return "".join(str(s) for s in self.steps)
