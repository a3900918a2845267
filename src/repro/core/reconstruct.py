"""Decompression: (skeleton, vectors) -> XML text or a node tree, linear in
the output (Prop 2.2).

This is deliberately the only place the DAG is expanded.
:func:`write_xml` writes XML text straight from the skeleton and the
columns — every document and result written as text goes through it, and
no tree is built; :func:`reconstruct` builds an :class:`Element` tree and
serves only ``mode="naive"`` and ``to_tree()``.  Every call of either
bumps a module counter, and :func:`forbid_decompression` turns any call
inside its scope into an error: the engine wraps the vectorized evaluator
in that guard, making "querying without decompression" an enforced
invariant rather than a comment.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from ..errors import DecompressionForbiddenError
from ..xmldata.escape import escape_attr, escape_text
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


def _decompressing() -> None:
    """Count one decompression; raise inside :func:`forbid_decompression`."""
    global DECOMPRESSION_COUNT
    if _forbid_depth():
        raise DecompressionForbiddenError(
            "skeleton decompression attempted inside forbid_decompression()"
        )
    DECOMPRESSION_COUNT += 1


def reconstruct(store: NodeStore, root_id: int, vectors) -> Element:
    """Decompress ``(S, V)`` back into a document tree.

    Walks the skeleton in preorder, expanding run-length edges, and pulls
    text values from per-path cursors — each vector is consumed left to
    right exactly once, so the whole pass is linear in the output tree.
    """
    _decompressing()
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


class _PathIds(dict):
    """``(parent path id, label)`` -> path id, numbered on first use, with
    the label path of each id up to 256 labels deep; a deeper one walks up
    to such an ancestor, so a long chain keeps no quadratic memo."""

    def __init__(self):
        super().__init__()
        self.up, self.paths = [], {-1: ()}   # id -> (parent, label) / path

    def __missing__(self, key: tuple[int, str]) -> int:
        q = self[key] = len(self.up)
        self.up.append(key)
        base = self.paths.get(key[0])
        if base is not None and len(base) < 256:
            self.paths[q] = (*base, key[1])
        return q

    def path(self, q: int) -> tuple:
        labels = []
        while q not in self.paths:
            q, label = self.up[q]
            labels.append(label)
        return self.paths[q] + tuple(reversed(labels))


def write_xml(store: NodeStore, root: int, vectors, inner: bool = False) -> str:
    """Write ``(S, V)`` as XML text without a tree: the bytes of
    ``serialize(reconstruct(...))``, with ``inner`` those of the root's
    children.  The preorder walk of :func:`reconstruct` on an explicit
    stack, appending text where it appends nodes; an element with only
    text and attributes below it is written in one step.  Cursors and
    columns are keyed by integer path ids; each column is escaped once."""
    _decompressing()
    pids, cur, cols, shapes = _PathIds(), {}, {}, {}

    def read(q: int, k: int) -> list[str]:
        """The next ``k`` escaped text values below path id ``q``."""
        col = cols.get(q)
        if col is None:
            path = pids.path(q)
            col = vectors[(*path, TEXT_LABEL)].tolist()
            joined = "".join(col)
            if "&" in joined or "<" in joined or ">" in joined or '"' in joined:
                col = list(map(escape_attr if path[-1][0] == "@"
                               else escape_text, col))
            cols[q] = col
        i = cur.get(q, 0)
        cur[q] = i + k
        return col[i:i + k]

    def shape(nid: int) -> tuple:
        """``(tag, attribute runs, content runs, text values per instance
        or -1 with an element child, start tag if no attribute, end tag)``."""
        tag, attrs, content, n = store.label(nid), [], [], 0
        for c, k in store.children(nid):
            label = store.label(c)
            if label[0] == "@":
                attrs.append((label, k))
            else:
                content.append((c, k, label))
                n = n + k if n >= 0 and label == TEXT_LABEL else -1
        end = ">" if content else "/>"
        shapes[nid] = sh = (tag, attrs, content, n, f"<{tag}{end}",
                            f"</{tag}>" if content else "")
        return sh

    def start(sh: tuple, p: int) -> str:
        if not sh[1]:
            return sh[4]
        named = {}   # a repeated name keeps its first place, last value
        for label, k in sh[1]:
            named[label[1:]] = read(pids[p, label], k)[-1]
        return "".join([f"<{sh[0]}", *[f' {n}="{v}"' for n, v in named.items()],
                        ">" if sh[2] else "/>"])

    def leaf(sh: tuple, p: int) -> str:
        """An element with only text and attributes below it."""
        text = "".join(read(p, sh[3])) if sh[3] else ""
        return start(sh, p) + text + sh[5]

    # frames: [content runs, path id, next run, instances of the previous
    # run still to write, end tag]
    out, sh = [], shape(root)
    stack = [[sh[2], pids[-1, sh[0]], 0, 0, ""] if inner
             else [[(root, 1, sh[0])], -1, 0, 0, ""]]
    while stack:
        frame = stack[-1]
        content, p, i, left, end = frame
        if left:
            frame[3] = left - 1
            c, _, label = content[i - 1]
        elif i == len(content):
            stack.pop()
            out.append(end)
            continue
        else:
            frame[2] = i + 1
            c, k, label = content[i]
            if label == TEXT_LABEL:
                out += read(p, k)
                continue
            if (sh := shapes.get(c) or shape(c))[3] >= 0:
                q = pids[p, label]
                out += [leaf(sh, q) for _ in range(k)]
                continue
            frame[3] = k - 1
        sh, q = shapes[c], pids[p, label]
        out.append(start(sh, q))
        stack.append([sh[2], q, 0, 0, sh[5]])
    return "".join(out)
