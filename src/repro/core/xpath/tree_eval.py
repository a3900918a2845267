"""Naive node-at-a-time XPath evaluator over the *decompressed* tree.

This is the correctness and speed baseline (paper §3.2's "naive
evaluation"): it walks Python node objects one at a time.  Semantics are
kept bit-identical to the vectorized evaluator so the cross-evaluator tests
can compare them on arbitrary documents.
"""

from __future__ import annotations

from ...util import parse_float
from ...xmldata.model import Element, Node, Text, node_label, preorder, xpath_children
from .ast import CHILD, Path, Pred


def _nodes_at_rel(n: Node, rel: tuple) -> list[Node]:
    cur = [n]
    for label in rel:
        cur = [c for x in cur for c in xpath_children(x)
               if node_label(c) == label]
        if not cur:
            break
    return cur


def _compare(value: str, op: str, const: str) -> bool:
    if op == "=":
        return value == const
    if op == "!=":
        return value != const
    try:
        a, b = parse_float(value), parse_float(const)
    except ValueError:
        return False
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


def _pred_holds(n: Node, pred: Pred) -> bool:
    if pred.op is None:
        return bool(_nodes_at_rel(n, pred.relpath))
    rel = pred.relpath if pred.relpath[-1] == "#" else (*pred.relpath, "#")
    return any(
        isinstance(t, Text) and _compare(t.value, pred.op, pred.value)
        for t in _nodes_at_rel(n, rel)
    )


def evaluate_tree(root: Element, path: Path) -> list[Node]:
    """Evaluate ``path`` against the document rooted at ``root``; returns
    the result node set in document order (deduplicated)."""
    order: dict[int, int] = {id(n): i for i, n in enumerate(preorder(root))}

    current: list[Node]
    first = path.steps[0]
    if first.axis == CHILD:
        current = [root] if first.matches(node_label(root)) else []
    else:
        current = [n for n in preorder(root) if first.matches(node_label(n))]
    current = [n for n in current if all(_pred_holds(n, p) for p in first.preds)]

    for step in path.steps[1:]:
        seen: set[int] = set()
        nxt: list[Node] = []
        for n in current:
            if step.axis == CHILD:
                candidates = xpath_children(n)
            else:
                candidates = [d for c in xpath_children(n) for d in preorder(c)]
            for c in candidates:
                if step.matches(node_label(c)) and id(c) not in seen:
                    if all(_pred_holds(c, p) for p in step.preds):
                        seen.add(id(c))
                        nxt.append(c)
        nxt.sort(key=lambda n: order[id(n)])
        current = nxt
        if not current:
            break
    return current


def node_path(root: Element, target_ids: set[int]) -> dict[int, tuple]:
    """Root label path of every node whose ``id()`` is in ``target_ids``."""
    out: dict[int, tuple] = {}
    stack: list[tuple[Node, tuple]] = [(root, (node_label(root),))]
    while stack:
        n, p = stack.pop()
        if id(n) in target_ids:
            out[id(n)] = p
        for c in xpath_children(n):
            stack.append((c, (*p, node_label(c))))
    return out


def canonical_item(n: Node) -> tuple:
    """Canonical content of a result node: sorted-by-path tuple of
    ``(relative text path, value)`` pairs, document order within a path.

    Matches exactly what the vectorized evaluator can produce from vectors
    (per-path ordering; see DESIGN.md deviations).
    """
    if isinstance(n, Text):
        return (((), n.value),)
    items: list[tuple[tuple, str]] = []
    stack: list[tuple[Node, tuple]] = [(n, ())]
    while stack:
        cur, rel = stack.pop()
        pending: list[tuple[Node, tuple]] = []
        for c in xpath_children(cur):
            if isinstance(c, Text):
                items.append(((*rel, "#"), c.value))
            else:
                pending.append((c, (*rel, node_label(c))))
        stack.extend(reversed(pending))
    # stable by path, preserving discovery (document) order within a path
    items_idx = sorted(range(len(items)), key=lambda i: (items[i][0], i))
    return tuple(items[i] for i in items_idx)
