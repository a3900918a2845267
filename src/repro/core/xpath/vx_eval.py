"""Vectorized XPath evaluation over (skeleton, vectors) — the hot path.

A collection at a time (paper §4): a query step is evaluated for *all*
occurrences of a path at once, as numpy column operations over the
run-length position algebra of :mod:`repro.core.paths`.  The skeleton DAG
is never decompressed; data vectors are loaded lazily and each touched
vector is scanned at most once per query (the engine asserts both).

Wildcard (``*``) and descendant (``//``) steps are resolved against the
*dataguide* — the set of distinct label paths, which is a property of the
compressed skeleton and is tiny for regular data — by
:meth:`~repro.core.paths.Dataguide.resolve`, producing a set of
(concrete path, step->position alignment) pairs; each alignment is then
evaluated with pure child-axis columnar kernels:

* step expansion   — ``extension_ranges`` + prefix-sum range materialization
  (``np.repeat``/``np.arange``), an arithmetic progression per run;
* existence filter — per-occurrence descendant counts ``> 0``, straight from
  skeleton statistics, touching no vector at all;
* value predicate  — one vectorized comparison over the vector column, one
  prefix sum, and a gather (:func:`pred_prefix` + :func:`exists_in`, the
  kernel the XQ reduction's selections share): ∃-semantics per occurrence
  without any per-node loop.
"""

from __future__ import annotations

import numpy as np

from ...index import key_code
from ...util import parse_float
from ..context import VectorCache
from ..paths import PathsCatalog, ranges_to_ordinals
from .ast import Path, Pred

__all__ = ["VectorCache", "VXResult", "evaluate_aligned", "evaluate_vx",
           "exists_in", "pred_mask", "pred_prefix"]


def pred_mask(cache: VectorCache, qpath: tuple, op: str, const: str) -> np.ndarray:
    """Boolean mask over the ordinals of text path ``qpath``.

    XPath predicates and the XQ reduction's selections both funnel through
    here, the one place code-space evaluation plugs in: on a
    dictionary-coded vector an equality predicate maps its constant into
    code space with one binary search over the ``u`` sorted keys
    (:func:`~repro.index.key_code`) and compares integers; the string
    column is never built.  An absent
    constant maps to code -1, which no value code equals — exactly the
    all-False (``=``) / all-True (``!=``) masks of the string compare, so
    results are byte-identical either way.  Ordering predicates use the
    float view, which a ``dict``/``delta``-coded vector also derives
    without building strings."""
    if op in ("=", "!="):
        dc = cache.dict_codes(qpath)
        if dc is not None:
            keys, codes = dc
            code = key_code(keys, const)
            return codes == code if op == "=" else codes != code
        if op == "=":
            return cache.column(qpath) == const
        return cache.column(qpath) != const
    try:
        c = parse_float(const)
    except ValueError:
        # all-False, sized off the float view (never forces a decode)
        n = len(cache.floats(qpath))
        return np.zeros(n, dtype=bool)
    f = cache.floats(qpath)
    if op == "<":
        return f < c
    if op == "<=":
        return f <= c
    if op == ">":
        return f > c
    return f >= c


def pred_prefix(cache: VectorCache, qpath: tuple, op: str,
                const: str) -> np.ndarray:
    """Prefix counts of :func:`pred_mask` (``cum[i]``: matches below
    ``i``) — a predicate's one full-column sweep."""
    mask = pred_mask(cache, qpath, op, const)
    return np.concatenate(([0], np.cumsum(mask, dtype=np.int64)))


def exists_in(cum: np.ndarray, starts: np.ndarray,
              lengths: np.ndarray) -> np.ndarray:
    """∃ per range: does ``[starts[i], starts[i]+lengths[i])`` hold a
    match under the :func:`pred_prefix` counts ``cum``?"""
    return cum[starts + lengths] > cum[starts]


def _apply_pred(catalog: PathsCatalog, cache: VectorCache, prefix: tuple,
                ids: np.ndarray, pred: Pred) -> np.ndarray:
    """Filter occurrence ordinals ``ids`` of ``prefix`` by one predicate."""
    if pred.op is None:
        if catalog.index((*prefix, *pred.relpath)) is None:
            return ids[:0]
        _, lengths = catalog.extension_ranges(prefix, ids, pred.relpath)
        return ids[lengths > 0]
    rel = pred.relpath if pred.relpath[-1] == "#" else (*pred.relpath, "#")
    qpath = (*prefix, *rel)
    if catalog.index(qpath) is None:
        return ids[:0]  # no such text anywhere: ∃ fails for every occurrence
    starts, lengths = catalog.extension_ranges(prefix, ids, rel)
    cum = pred_prefix(cache, qpath, pred.op, pred.value)
    return ids[exists_in(cum, starts, lengths)]


def _eval_alignment(catalog: PathsCatalog, cache: VectorCache, cpath: tuple,
                    align: tuple, steps: tuple) -> np.ndarray | None:
    """Occurrence ordinals of ``cpath`` selected by one alignment.

    ``None`` means "all occurrences" — kept symbolic (an implicit extended
    vector of cardinality |cpath|) until a predicate forces materialization.
    """
    ids: np.ndarray | None = None
    prev_pos = -1
    for si, pos in enumerate(align):
        prefix = cpath[: pos + 1]
        if ids is not None:
            rel = cpath[prev_pos + 1 : pos + 1]
            starts, lengths = catalog.extension_ranges(
                cpath[: prev_pos + 1], ids, rel)
            ids = ranges_to_ordinals(starts, lengths)
        preds = steps[si].preds
        if preds:
            if ids is None:
                ids = catalog.index(prefix).all_ordinals()
            for pred in preds:
                ids = _apply_pred(catalog, cache, prefix, ids, pred)
                if len(ids) == 0:
                    return ids
        prev_pos = pos
    return ids


class VXResult:
    """Result of a vectorized evaluation: per concrete path, the selected
    occurrence ordinals (a columnar node set — no nodes are materialized).

    Reporting methods interleave occurrences of *different* concrete paths
    into true global document order using the catalog's preorder rank
    columns (``order_keys``) — ``//`` and ``*`` results come out exactly as
    a document-order tree walk would emit them, still without touching the
    decompressed tree."""

    def __init__(self, vdoc, groups: list[tuple]):
        self.vdoc = vdoc
        self.groups = groups  # [(concrete path, int64 ordinal array)], sorted

    def count(self) -> int:
        return sum(len(ids) for _, ids in self.groups)

    def paths(self) -> list[tuple]:
        return [p for p, _ in self.groups]

    def _doc_order(self, groups: list[tuple]) -> np.ndarray:
        """Permutation putting the concatenation of ``groups`` ordinals in
        global document order."""
        catalog = self.vdoc.catalog
        ranks = [catalog.order_keys(cpath)[ids] for cpath, ids in groups]
        if not ranks:
            return np.empty(0, dtype=np.int64)
        return np.argsort(np.concatenate(ranks), kind="stable")

    def text_values(self) -> list[str]:
        """Values of text-path results, vector gathers only, interleaved in
        document order across paths."""
        text_groups = [(p, ids) for p, ids in self.groups if p[-1] == "#"]
        vals: list[str] = []
        for cpath, ids in text_groups:
            vals.extend(self.vdoc.vectors[cpath].take(ids))
        order = self._doc_order(text_groups)
        return [vals[i] for i in order]

    def canonical(self) -> list[tuple]:
        """Canonical content per result occurrence in global document order
        (for cross-evaluator comparison); matches
        :func:`tree_eval.canonical_item` exactly.  Uses the position algebra
        to locate each occurrence's contiguous source range in every
        descendant vector — still no decompression."""
        catalog = self.vdoc.catalog
        items: list[tuple] = []
        for cpath, ids in self.groups:
            if cpath[-1] == "#":
                vec = self.vdoc.vectors[cpath]
                items.extend((((), v),) for v in vec.take(ids))
                continue
            k = len(cpath)
            rels = [g[k:] for g in catalog.guide.below(cpath)
                    if g[-1] == "#"]
            per_id: list[list] = [[] for _ in range(len(ids))]
            for rel in rels:
                qpath = (*cpath, *rel)
                vec = self.vdoc.vectors[qpath]
                starts, lengths = catalog.extension_ranges(cpath, ids, rel)
                # one bulk gather over the run-length ranges (no per-row
                # slicing): materialize every value of every row at once,
                # then fan the flat column back out to its rows
                ords = ranges_to_ordinals(starts, lengths)
                if len(ords) == 0:
                    continue
                vals = vec.gather(ords)
                rows = np.repeat(np.arange(len(ids)), lengths)
                for row, v in zip(rows.tolist(), vals.tolist()):
                    per_id[row].append((rel, v))
            items.extend(tuple(it) for it in per_id)
        order = self._doc_order(self.groups)
        return [items[i] for i in order]


def evaluate_vx(vdoc, path: Path, ctx) -> VXResult:
    """Evaluate an XPath of the fragment P[*,//] over a vectorized document:
    resolve its steps, then :func:`evaluate_aligned`.  ``ctx`` (an
    :class:`~repro.core.context.EvalContext`) shares one per-document
    vector cache across a larger computation, so the scan-once invariant
    spans the whole query, and carries the pool-wide invariant guards."""
    resolved = vdoc.catalog.guide.resolve(path.steps,
                                          checkpoint=ctx.checkpoint)
    return evaluate_aligned(vdoc, path.steps, resolved, ctx)


def evaluate_aligned(vdoc, steps: tuple, resolved: list[tuple],
                     ctx) -> VXResult:
    """The evaluating half of :func:`evaluate_vx`, over ``steps`` already
    resolved to ``(concrete path, alignments)`` pairs — also what the XQ
    reduction runs for a root variable the plan bound."""
    catalog: PathsCatalog = vdoc.catalog
    cache = ctx.cache(vdoc)
    result: list[tuple] = []
    for cpath, aligns in resolved:
        ctx.checkpoint()   # per candidate path: a structural query may
        # select without ever scanning a value vector, and the
        # cooperative deadline must still be able to stop it
        parts: list = []
        for align in aligns:
            ids = _eval_alignment(catalog, cache, cpath, align, steps)
            if ids is None:
                # every occurrence selected; no need for more
                parts = [catalog.index(cpath).all_ordinals()]
                break
            if len(ids):
                parts.append(ids)
        if len(parts) == 1:
            result.append((cpath, parts[0]))
        elif parts:
            result.append((cpath, np.unique(np.concatenate(parts))))
    return VXResult(vdoc, result)
