"""Core of the vectorized store: skeletons, vectors, position algebra,
XPath evaluators and the query engine."""

from .engine import TreeResult, XQTreeResult, XQVXResult, eval_query, eval_xq
from .paths import PathIndex, PathsCatalog, ranges_to_ordinals
from .reconstruct import forbid_decompression
from .reconstruct import reconstruct as reconstruct_tree
from .skeleton import NodeStore, collapse_runs
from .vdoc import VectorizedDocument
from .vectorize import vectorize_events, vectorize_tree, vectorize_xml
from .vectors import Vector

__all__ = [
    "TreeResult",
    "XQTreeResult",
    "XQVXResult",
    "eval_query",
    "eval_xq",
    "PathIndex",
    "PathsCatalog",
    "ranges_to_ordinals",
    "forbid_decompression",
    "reconstruct_tree",
    "NodeStore",
    "collapse_runs",
    "VectorizedDocument",
    "vectorize_events",
    "vectorize_tree",
    "vectorize_xml",
    "Vector",
]
