"""Result construction (paper §4.3): instantiate ``Gr`` into a vectorized
result *without decompressing* either document.

The output document's :class:`NodeStore` overlays the input's, which it
never writes: splicing a source subtree into the result is a single id
reuse — the run-length index maps each spliced occurrence ordinal back to
its skeleton node (``run_nodes[run_of(ord)]``), uniformly for elements,
attributes and text. Fresh template elements are interned into the overlay
bottom-up once per *distinct* row (rows splicing the same node ids), so
identical rows collapse immediately — result compression happens
*stepwise during construction* (hash-consing), never as a separate pass
over a materialized tree.

Output data vectors are assembled columnar: for each spliced path, the
text paths below it are enumerated on the dataguide, their value ranges
located with the position algebra, and copied with bulk positional
gathers; a final lexicographic sort by (global row, template leaf,
source sequence) puts every output vector in output-document order.
"""

from __future__ import annotations

import numpy as np

from .paths import ranges_to_ordinals
from .qgraph import ResultSkeleton
from .reduction import ReducedTable
from .skeleton import NodeStore
from .vdoc import VectorizedDocument
from .vectors import Vector
from .xquery.ast import TElem, TSplice, TText


def _template_leaves(gr: ResultSkeleton) -> list[tuple]:
    """Text/splice leaves in template preorder, each with the label path of
    its enclosing output element (starting at the result root)."""
    leaves: list[tuple] = []
    for item in gr.items:
        _walk_leaves(item, (gr.root_tag,), leaves)
    return leaves


def _walk_leaves(item, opath: tuple, leaves: list) -> None:
    # module-level: a recursive closure is a reference cycle that keeps
    # the query alive until the collector runs
    if isinstance(item, TText):
        leaves.append(("text", item, opath))
    elif isinstance(item, TSplice):
        leaves.append(("splice", item, opath))
    else:
        assert isinstance(item, TElem)
        for c in item.children:
            _walk_leaves(c, (*opath, item.tag), leaves)


def _instantiate(item, r: int, store, splices: dict,
                 counter: list[int]) -> list[int]:
    """Node ids of one template item for result row ``r`` (``counter``:
    leaf number in template preorder, the key of ``splices``)."""
    if isinstance(item, TText):
        counter[0] += 1
        return [store.text_id]
    if isinstance(item, TSplice):
        li = counter[0]
        counter[0] += 1
        ids, offs = splices[li]
        return [int(x) for x in ids[offs[r]:offs[r + 1]]]
    kids = [cid for c in item.children
            for cid in _instantiate(c, r, store, splices, counter)]
    return [store.intern_list(item.tag, kids)]


def _row_keys(ids: np.ndarray, offsets: np.ndarray, checkpoint) -> list:
    """One hashable key per row of a splice leaf ``(ids, per-row
    offsets)``: the row's node id, or the bytes of its id slice when some
    row splices other than one node."""
    if (np.diff(offsets) == 1).all():
        return ids.tolist()
    buf, bounds, keys = ids.astype(np.int64).tobytes(), offsets.tolist(), []
    for r in range(len(bounds) - 1):
        if not r % 64:
            checkpoint()
        keys.append(buf[8 * bounds[r]:8 * bounds[r + 1]])
    return keys


def build_result(vdoc, gr: ResultSkeleton, table: ReducedTable,
                 ctx) -> VectorizedDocument:
    """Instantiate the result skeleton once per distinct binding tuple.

    ``ctx`` (an :class:`~repro.core.context.EvalContext`) shares the
    query's per-document vector cache, so value copies here and scans in
    the reduction count against the same scan-once budget."""
    store = NodeStore(base=vdoc.store)
    catalog = vdoc.catalog
    cache = ctx.cache(vdoc)
    leaves = _template_leaves(gr)
    n_rows = table.n_rows

    # output vector parts: path -> [(values, global rows, leaf idx, seq)]
    acc: dict[tuple, list] = {}

    def text_rels(scp: tuple) -> list[tuple]:
        """Text paths below a spliced path, relative to it."""
        if scp[-1] == "#":
            return [()]
        return [g[len(scp):] for g in catalog.guide.below(scp)
                if g[-1] == "#"]

    combos = [c for c in table.combos if len(c)]

    # resolve each splice leaf to (node ids sorted by global row, per-row
    # offsets), processing combos GROUPED BY CONCRETE PATH — one position-
    # algebra call per distinct path, not one per combo, mirroring the
    # batched reduction (global row ids are disjoint across combos, so
    # per-group results scatter straight into global arrays)
    splices: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for li, (kind, item, opath) in enumerate(leaves):
        ctx.checkpoint()       # per template leaf: each one may gather
        if kind == "text":     # value ranges for every combo group
            acc.setdefault((*opath, "#"), []).append((
                np.full(n_rows, item.value),
                np.arange(n_rows, dtype=np.int64),
                np.zeros(n_rows, dtype=np.int64) + li,
                np.zeros(n_rows, dtype=np.int64)))
            continue
        groups: dict[tuple, list] = {}
        for combo in combos:
            groups.setdefault(combo.var_paths[item.var], []).append(combo)
        ids_parts: list[np.ndarray] = []
        rows_parts: list[np.ndarray] = []
        lengths_row = np.zeros(n_rows, dtype=np.int64)
        for cp, group in groups.items():
            cols_g = np.concatenate([c.cols[item.var] for c in group])
            rowsg = np.concatenate([c.rows_global for c in group])
            if item.rel:
                scp = (*cp, *item.rel)
                if cp[-1] == "#" or catalog.index(scp) is None:
                    continue
                starts, lengths = catalog.extension_ranges(
                    cp, cols_g, item.rel)
                ords = ranges_to_ordinals(starts, lengths)
            else:
                scp = cp
                ords = cols_g
                lengths = np.ones(len(cols_g), dtype=np.int64)
            pidx = catalog.index(scp)
            node_ids = pidx.run_nodes[pidx.run_of(ords)]
            ids_parts.append(node_ids)
            rows_parts.append(np.repeat(rowsg, lengths))
            lengths_row[rowsg] = lengths

            # copy every text path below the spliced nodes into the output
            row_of_ord = np.repeat(
                np.arange(len(cols_g), dtype=np.int64), lengths)
            for rt in text_rels(scp):
                st, lt = catalog.extension_ranges(scp, ords, rt)
                ot = ranges_to_ordinals(st, lt)
                if len(ot) == 0:
                    continue
                vals = cache.column((*scp, *rt))[ot]
                acc.setdefault((*opath, scp[-1], *rt), []).append((
                    vals, rowsg[np.repeat(row_of_ord, lt)],
                    np.zeros(len(ot), dtype=np.int64) + li,
                    np.arange(len(ot), dtype=np.int64)))

        if ids_parts:
            ids_all = np.concatenate(ids_parts)
            rows_all = np.concatenate(rows_parts)
            # stable by-row sort keeps each row's ids in document order
            # (every row's ids come from exactly one group)
            ids_all = ids_all[np.argsort(rows_all, kind="stable")]
        else:
            ids_all = np.empty(0, dtype=np.int64)
        offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(lengths_row)))
        splices[li] = (ids_all, offsets)

    # assemble the skeleton bottom-up, once per distinct row: a row's
    # nodes depend only on the node ids its splice leaves take, so a row
    # is instantiated at its key's first occurrence and fresh template
    # elements are interned immediately — stepwise compression
    keys = [_row_keys(ids, offsets, ctx.checkpoint)
            for ids, offsets in splices.values()] if n_rows else []
    seen: dict[tuple, list[int]] = {}
    root_kids: list[int] = []
    for r, key in enumerate(zip(*keys) if keys else [()] * n_rows):
        if not r % 64:
            ctx.checkpoint()   # row assembly is the builder's long loop
        kids = seen.get(key)
        if kids is None:
            counter = [0]
            kids = seen[key] = [
                cid for item in gr.items
                for cid in _instantiate(item, r, store, splices, counter)]
        root_kids += kids
    root_id = store.intern_list(gr.root_tag, root_kids)

    out_vectors: dict[tuple, Vector] = {}
    for path, parts in acc.items():
        vals = np.concatenate([p[0] for p in parts])
        rows = np.concatenate([p[1] for p in parts])
        items = np.concatenate([p[2] for p in parts])
        seqs = np.concatenate([p[3] for p in parts])
        # output-document order: by result row, then template leaf (their
        # preorder is the constructed document order), then source sequence
        order = np.lexsort((seqs, items, rows))
        out_vectors[path] = Vector.of_column(path, vals[order])
    return VectorizedDocument(store, root_id, out_vectors)
