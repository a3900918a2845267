"""Reconstruction: (skeleton, vectors) -> node tree, linear in the output
(Prop 2.2) — i.e. full skeleton *decompression*.

This is deliberately the only place the DAG is expanded back into a tree.
Every call bumps a module counter, and :func:`forbid_decompression` turns any
call inside its scope into an error: the engine wraps the vectorized
evaluator in that guard, making "querying without decompression" an enforced
invariant rather than a comment.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from ..errors import DecompressionForbiddenError
from ..xmldata.model import Element, Text
from .skeleton import NodeStore, TEXT_LABEL

#: Total number of skeleton decompressions performed (test/bench hook).
DECOMPRESSION_COUNT = 0

# The guard depth is *per thread*: one server request evaluating inside
# forbid_decompression() must not make an unrelated thread's (legal)
# result-tree reconstruction raise.
_FORBID = threading.local()


def _forbid_depth() -> int:
    return getattr(_FORBID, "depth", 0)


@contextmanager
def forbid_decompression():
    """Raise :class:`DecompressionForbiddenError` on any reconstruction
    attempted inside this context (on this thread)."""
    _FORBID.depth = _forbid_depth() + 1
    try:
        yield
    finally:
        _FORBID.depth -= 1


def reconstruct(store: NodeStore, root_id: int, vectors) -> Element:
    """Decompress ``(S, V)`` back into a document tree.

    Walks the skeleton in preorder, expanding run-length edges, and pulls
    text values from per-path cursors — each vector is consumed left to
    right exactly once, so the whole pass is linear in the output tree.
    """
    global DECOMPRESSION_COUNT
    if _forbid_depth():
        raise DecompressionForbiddenError(
            "skeleton decompression attempted inside forbid_decompression()"
        )
    DECOMPRESSION_COUNT += 1

    cursors: dict[tuple, int] = {}

    def read(path: tuple) -> str:
        i = cursors.get(path, 0)
        cursors[path] = i + 1
        return vectors[path].at(i)

    root_label = store.label(root_id)
    root = Element(root_label)
    # Frames: (node_id, element, label path); children are expanded in
    # document order, so per-path cursor order equals document order.
    stack: list[tuple[int, Element, tuple]] = [(root_id, root, (root_label,))]
    # a hash-consed node recurs: read its runs and their labels once
    runs: dict[int, list[tuple[int, int, str]]] = {}
    while stack:
        nid, elem, path = stack.pop()
        pending: list[tuple[int, Element, tuple]] = []
        if nid not in runs:
            runs[nid] = [(c, k, store.label(c)) for c, k in store.children(nid)]
        for child, count, label in runs[nid]:
            if label == TEXT_LABEL:
                for _ in range(count):
                    elem.append(Text(read((*path, "#"))))
            elif label.startswith("@"):
                for _ in range(count):
                    elem.attrs[label[1:]] = read((*path, label, "#"))
            else:
                child_path = (*path, label)
                for _ in range(count):
                    sub = Element(label)
                    elem.append(sub)
                    pending.append((child, sub, child_path))
        stack.extend(reversed(pending))
    return root
