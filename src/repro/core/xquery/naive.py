"""Naive XQ reference evaluator: nested loops over the *decompressed* tree.

This is the §3.2 baseline generalized to FLWR: reconstruct the document,
then evaluate the query node at a time — ``for`` clauses become nested
Python loops in document order, ``where`` comparisons are existential over
the text values reachable by their operand paths, and the return template
is instantiated once per surviving binding tuple.  Semantics are kept
bit-identical to the graph-reduction engine so the cross-evaluator tests
can compare serialized results byte for byte on arbitrary documents.
"""

from __future__ import annotations

from ...errors import XQCompileError
from ...xmldata.model import (
    Attr,
    Element,
    Node,
    Text,
    node_label,
    preorder,
    xpath_children,
)
from ..xpath.ast import CHILD
from ..xpath.tree_eval import _compare, evaluate_tree
from .ast import AbsSource, Const, TElem, TSplice, TText, VarRel, XQuery
from .rewrite import normalize


def _rel_step_nodes(nodes: list[Node], step, order: dict[int, int]) -> list[Node]:
    seen: set[int] = set()
    out: list[Node] = []
    for n in nodes:
        if step.axis == CHILD:
            candidates = xpath_children(n)
        else:
            candidates = [d for c in xpath_children(n) for d in preorder(c)]
        for c in candidates:
            if step.matches(node_label(c)) and id(c) not in seen:
                seen.add(id(c))
                out.append(c)
    out.sort(key=lambda n: order[id(n)])
    return out


def _concrete_nodes(n: Node, rel: tuple) -> list[Node]:
    """Nodes at a concrete child-label path under ``n``, document order."""
    cur = [n]
    for label in rel:
        cur = [c for x in cur for c in xpath_children(x)
               if node_label(c) == label]
        if not cur:
            break
    return cur


def _operand_texts(env: dict[str, Node], operand: VarRel) -> list[str]:
    n = env[operand.var]
    rel = operand.rel
    if not rel and isinstance(n, Text):
        return [n.value]
    if not rel or rel[-1] != "#":
        rel = (*rel, "#")
    return [t.value for t in _concrete_nodes(n, rel) if isinstance(t, Text)]


def _holds(env: dict[str, Node], comp) -> bool:
    if isinstance(comp.left, Const):
        lefts = [comp.left.value]
    else:
        lefts = _operand_texts(env, comp.left)
    if isinstance(comp.right, Const):
        rights = [comp.right.value]
    else:
        rights = _operand_texts(env, comp.right)
    return any(_compare(a, comp.op, b) for a in lefts for b in rights)


def _instantiate(item, env: dict[str, Node], out_parent: Element) -> None:
    if isinstance(item, TText):
        out_parent.append(Text(item.value))
    elif isinstance(item, TElem):
        elem = Element(item.tag)
        out_parent.append(elem)
        for child in item.children:
            _instantiate(child, env, elem)
    else:
        assert isinstance(item, TSplice)
        for n in _concrete_nodes(env[item.var], item.rel):
            if isinstance(n, Text):
                out_parent.append(Text(n.value))
            elif isinstance(n, Attr):
                out_parent.attrs[n.name] = n.value
            else:
                out_parent.append(n)  # whole subtree, shared read-only


def evaluate_xq_tree(root: Element, xq: XQuery) -> Element:
    """Evaluate a (normalized or not) XQ query over a document tree."""
    xq = normalize(xq)
    order = {id(n): i for i, n in enumerate(preorder(root))}
    result = Element(xq.root_tag)
    bound: set[str] = set()
    for b in xq.bindings:
        if b.var in bound:
            raise XQCompileError(f"duplicate variable ${b.var}")
        if not isinstance(b.source, AbsSource) and b.source.var not in bound:
            raise XQCompileError(
                f"for ${b.var}: unknown base variable ${b.source.var}")
        bound.add(b.var)

    def loop(i: int, env: dict[str, Node]) -> None:
        if i == len(xq.bindings):
            if all(_holds(env, c) for c in xq.where):
                for item in xq.ret:
                    _instantiate(item, env, result)
            return
        binding = xq.bindings[i]
        src = binding.source
        if isinstance(src, AbsSource):
            nodes = evaluate_tree(root, src.path)
        else:
            nodes = [env[src.var]]
            for step in src.steps:
                nodes = _rel_step_nodes(nodes, step, order)
                if not nodes:
                    break
        for n in nodes:
            env[binding.var] = n
            loop(i + 1, env)
        env.pop(binding.var, None)

    loop(0, {})
    return result
