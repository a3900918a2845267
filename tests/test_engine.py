"""Engine invariants (acceptance criteria): the vectorized path performs
zero skeleton decompression, and scans each touched data vector at most
once per query."""

import gc
import weakref

import numpy as np
import pytest

import repro.core.reconstruct as reconstruct_mod
from repro.core.context import EvalContext
from repro.core.engine import eval_query, eval_xq
from repro.core.reconstruct import forbid_decompression
from repro.core.vdoc import VectorizedDocument
from repro.datasets.synth import xmark_like_xml
from repro.errors import DecompressionForbiddenError, EngineInvariantError
from repro.repo.repository import Repository


@pytest.fixture(scope="module")
def vdoc():
    return VectorizedDocument.from_xml(xmark_like_xml(60, seed=3))


QUERIES = [
    "/site/people/person[profile/age = '32']/name",
    "/site/people/person[profile/age >= 40][profile/education]/name/text()",
    "//item[location = 'Kenya']/name",
    "/site/regions/*/item/quantity/text()",
    "//person[phone]",
]


@pytest.mark.parametrize("query", QUERIES)
def test_vx_never_decompresses(vdoc, query):
    before = reconstruct_mod.DECOMPRESSION_COUNT
    eval_query(vdoc, query, mode="vx")
    assert reconstruct_mod.DECOMPRESSION_COUNT == before


@pytest.mark.parametrize("query", QUERIES)
def test_vx_scans_each_vector_at_most_once(vdoc, query):
    ctx = EvalContext.for_doc(vdoc)
    eval_query(vdoc, query, mode="vx", ctx=ctx)
    assert all(c <= 1 for c in ctx.scan_counts(vdoc).values())


def test_vx_touches_only_predicate_vectors(vdoc):
    ctx = EvalContext.for_doc(vdoc)
    eval_query(vdoc, "/site/people/person[profile/age = '32']/name",
               mode="vx", ctx=ctx)
    touched = {p for p, c in ctx.scan_counts(vdoc).items() if c}
    assert touched == {("site", "people", "person", "profile", "age", "#")}


def test_guard_never_enumerates_the_documents_units(vdoc, monkeypatch):
    """The accounting window holds the units the query touched: opening
    and checking it does not walk ``io_units()`` (thousands per
    TreeBank-shaped member); only the reporting surface does, on request."""
    walks = []
    units = vdoc.io_units()
    monkeypatch.setattr(vdoc, "io_units",
                        lambda: walks.append(1) or units)
    ctx = EvalContext.for_doc(vdoc)
    eval_query(vdoc, "/site/people/person[profile/age = '32']/name", ctx=ctx)
    assert not walks
    counts = ctx.scan_counts(vdoc)
    assert walks and len(counts) == len(units) and sum(counts.values()) == 1


def test_existence_predicate_touches_no_vector(vdoc):
    ctx = EvalContext.for_doc(vdoc)
    eval_query(vdoc, "//person[phone]/name", mode="vx", ctx=ctx)
    assert not any(ctx.scan_counts(vdoc).values())


def test_forbid_decompression_guard(vdoc):
    with forbid_decompression():
        with pytest.raises(DecompressionForbiddenError):
            vdoc.to_tree()
    vdoc.to_tree()  # allowed again outside the guard


def test_naive_mode_decompresses_exactly_once(vdoc):
    before = reconstruct_mod.DECOMPRESSION_COUNT
    eval_query(vdoc, "/site/people/person/name", mode="naive")
    assert reconstruct_mod.DECOMPRESSION_COUNT == before + 1


def test_engine_flags_double_scans(vdoc):
    # Simulate a buggy evaluator that scans a vector twice: seed the
    # context's fresh accounting window with extra scans right after the
    # guard opens it, so the post-query scan-once assertion trips.
    ctx = EvalContext.for_doc(vdoc)
    vec = vdoc.vectors[("site", "people", "person", "profile", "age", "#")]
    original_begin = ctx.begin

    def tampered_begin(doc):
        original_begin(doc)
        ctx.note_scan(vec)
        ctx.note_scan(vec)

    ctx.begin = tampered_begin
    with pytest.raises(EngineInvariantError):
        eval_query(vdoc, "/site/people/person[profile/age = '32']",
                   mode="vx", ctx=ctx)
    # the accounting lives on the context, not the document: a fresh
    # context over the same shared vectors is clean
    fresh = EvalContext.for_doc(vdoc)
    eval_query(vdoc, "/site/people/person[profile/age = '32']",
               mode="vx", ctx=fresh)
    assert all(c <= 1 for c in fresh.scan_counts(vdoc).values())


def test_unknown_mode_rejected(vdoc):
    with pytest.raises(ValueError):
        eval_query(vdoc, "/site", mode="turbo")


def test_result_ordinals_are_sorted_int64(vdoc):
    res = eval_query(vdoc, "//item[quantity > 2]", mode="vx")
    for _, ids in res.groups:
        assert ids.dtype == np.int64
        assert (np.diff(ids) > 0).all()


def test_query_context_dies_with_the_query(vdoc, tmp_path):
    """No evaluation step leaves a reference cycle holding the query: with
    the collector off, the context (and its per-document caches) is freed
    as soon as ``eval_xq`` / ``Repository.xq`` returns — reference
    counting alone, no wait for a full collection."""
    xq = ("for $p in //person where $p/profile/age > '30' "
          "return <r>{$p/name}</r>")
    (tmp_path / "m.xml").write_text(xmark_like_xml(12, seed=4),
                                    encoding="utf-8")
    with Repository.init(str(tmp_path / "r.repo"), name="r") as repo:
        repo.add(str(tmp_path / "m.xml"), page_size=512)
        runs = [(lambda ctx: eval_xq(vdoc, xq, ctx=ctx),
                 lambda: EvalContext.for_doc(vdoc)),
                (lambda ctx: repo.xq(xq, ctx=ctx), EvalContext)]
        for run, make in runs:
            run(make())          # warm: first-use state is not garbage
            gc.collect()
            gc.disable()
            try:
                ctx = make()
                alive = weakref.ref(ctx)
                result = run(ctx)
                del ctx
                assert alive() is None
                assert result.n_tuples > 0
            finally:
                gc.enable()
