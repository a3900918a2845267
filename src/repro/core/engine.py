"""Top-level query engine: dispatch between the vectorized evaluator and
the naive decompress-evaluate baseline, enforcing the paper's invariants.

``mode="vx"`` (the default) evaluates directly over (skeleton, vectors)
inside an :class:`~repro.core.context.EvalContext` guard:

* the whole evaluation runs inside :func:`forbid_decompression`, so any
  skeleton decompression raises — "querying without decompression" is
  machine-checked on every query;
* after evaluation the context asserts every touched data vector was
  scanned at most once ("each data vector is scanned at most once"),
  logically and against physical page I/O, with zero leaked pins
  pool-wide;
* XQ runs the reduction plan once over the whole tuple table, whose
  rows carry a path id per variable, and the context additionally
  asserts at most one full-column sweep per plan operation per vector.

``mode="naive"`` is the baseline the paper argues against: reconstruct the
full document tree (linear in |T|, counted by the decompression hook), then
walk it node at a time.
"""

from __future__ import annotations

from ..xmldata.serializer import serialize
from .builder import build_result
from .context import EvalContext
from .planner import plan_query
from .qgraph import compile_query
from .reconstruct import reconstruct, write_xml
from .reduction import reduce_query
from .vdoc import VectorizedDocument
from .xpath.ast import Path
from .xpath.parser import parse_xpath
from .xpath.tree_eval import canonical_item, evaluate_tree
from .xpath.vx_eval import VXResult, evaluate_vx
from .xquery.ast import XQuery
from .xquery.naive import evaluate_xq_tree
from .xquery.parser import parse_xq

MODES = ("vx", "naive")


class TreeResult:
    """Result of the naive evaluator: actual nodes of the decompressed tree,
    exposing the same reporting surface as :class:`VXResult`."""

    def __init__(self, tree, nodes):
        self.tree = tree
        self.nodes = nodes

    def count(self) -> int:
        return len(self.nodes)

    def text_values(self) -> list[str]:
        from ..xmldata.model import Text

        return [n.value for n in self.nodes if isinstance(n, Text)]

    def canonical(self) -> list[tuple]:
        """Canonical items in document order — the same ordering contract as
        ``VXResult`` (which interleaves concrete paths by preorder rank)."""
        return [canonical_item(n) for n in self.nodes]


def eval_query(vdoc: VectorizedDocument, query: str | Path, mode: str = "vx",
               ctx: EvalContext | None = None):
    """Evaluate ``query`` (an XPath string or parsed :class:`Path`)."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    path = query if isinstance(query, Path) else parse_xpath(query)

    if mode == "naive":
        tree = reconstruct(vdoc.store, vdoc.root, vdoc.vectors)
        return TreeResult(tree, evaluate_tree(tree, path))

    if ctx is None:
        ctx = EvalContext.for_doc(vdoc)
    with ctx.guard(vdoc):
        result: VXResult = evaluate_vx(vdoc, path, ctx)
    return result


class XQTreeResult:
    """Naive XQ result: a constructed document tree."""

    def __init__(self, tree):
        self.tree = tree

    def to_xml(self) -> str:
        return serialize(self.tree)


class XQVXResult:
    """Vectorized XQ result: a result VectorizedDocument (its store overlays
    the input's), plus the plan and tuple table for inspection.  Its text
    is written straight from the result's skeleton and columns
    (:func:`~repro.core.reconstruct.write_xml`): no tree is built."""

    def __init__(self, out, plan, table):
        self.vdoc = out
        self.plan = plan
        self.table = table
        self.n_tuples = table.n_rows

    def to_xml(self) -> str:
        # writes the (typically small) *result*, outside the query
        return self.vdoc.to_xml()

    def fragment(self) -> str:
        """The written children of the result root, concatenated — the
        root-tag-free payload.  Because an element is written as
        ``<root>`` + its children's text + the end tag, fragments can be
        spliced under any shared root byte-identically to writing the
        assembled document; the repository result cache stores member
        results in this form."""
        return write_xml(self.vdoc.store, self.vdoc.root, self.vdoc.vectors,
                         inner=True)


def eval_xq(vdoc: VectorizedDocument, query: str | XQuery, mode: str = "vx",
            ctx: EvalContext | None = None):
    """Evaluate an XQ query (string or parsed :class:`XQuery`).

    ``vx`` compiles to (Gq, Gr), plans, reduces over extended vectors and
    constructs the result — all inside the context guard (no
    decompression, scan-at-most-once, one sweep per plan operation, zero
    leaked pins).  ``naive`` reconstructs the tree and runs the
    nested-loop reference evaluator.  How the query runs — index probe,
    code-space sweep or column scan per plan operation — is decided by
    what the document's file holds, never by the caller.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    xq = query if isinstance(query, XQuery) else parse_xq(query)
    gq, gr = compile_query(xq)

    if mode == "naive":
        tree = reconstruct(vdoc.store, vdoc.root, vdoc.vectors)
        out = evaluate_xq_tree(tree, xq)
        return XQTreeResult(out)

    if ctx is None:
        ctx = EvalContext.for_doc(vdoc)
    with ctx.guard(vdoc):
        plan = plan_query(gq, vdoc, ctx.checkpoint)
        table = reduce_query(vdoc, gq, plan, ctx)
        out = build_result(vdoc, gr, table, ctx)
    return XQVXResult(out, plan, table)
