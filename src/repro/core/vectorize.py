"""Vectorizer: event stream -> (skeleton, vectors) in one linear pass
(Prop 2.1).

The parser's event stream is consumed directly — the node tree is never
built.  A stack of open elements accumulates child ids bottom-up; on each
end event the children runs are collapsed and the node hash-consed.  Text
(and attribute) values are appended to the value list keyed by the
current root-to-text label path; each finished list is encoded once, by
its chosen storage codec, into the coded :class:`~repro.core.vectors.Vector`
that ``save`` writes as it is.
"""

from __future__ import annotations

from ..xmldata.parser import iterparse, tree_events
from .skeleton import NodeStore, collapse_runs
from .vectors import Vector


def vectorize_events(events):
    """Consume parse events; return ``(store, root_id, vectors)``."""
    store = NodeStore()
    text_id = store.text_id
    path: list[str] = []  # current label path (root .. open element)
    frames: list[list[int]] = []  # child-id accumulator per open element
    raw: dict[tuple, list[str]] = {}
    root_id: int | None = None

    for ev in events:
        kind = ev[0]
        if kind == "start":
            label = ev[1]
            path.append(label)
            children: list[int] = []
            for name, value in ev[2]:
                attr_path = (*path, "@" + name, "#")
                raw.setdefault(attr_path, []).append(value)
                children.append(store.intern("@" + name, ((text_id, 1),)))
            frames.append(children)
        elif kind == "text":
            raw.setdefault((*path, "#"), []).append(ev[1])
            frames[-1].append(text_id)
        else:  # end
            label = path.pop()
            child_ids = frames.pop()
            nid = store.intern(label, collapse_runs(child_ids))
            if frames:
                frames[-1].append(nid)
            else:
                root_id = nid

    if root_id is None:
        raise ValueError("empty event stream")
    vectors = {p: Vector.encode(p, vals) for p, vals in raw.items()}
    return store, root_id, vectors


def vectorize_xml(text: str):
    """Vectorize XML text directly from the streaming parser."""
    return vectorize_events(iterparse(text))


def vectorize_tree(root):
    """Vectorize an existing node tree (re-emits its event stream)."""
    return vectorize_events(tree_events(root))
