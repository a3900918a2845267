"""Batched combo execution: one plan run over the whole combo table.

The invariant under test — each data vector is swept at most once per plan
*operation* regardless of how many concrete-path combos the dataguide
yields — is machine-asserted by ``EvalContext.check_passes``; these tests
exercise both sides of it: the executor satisfies it, and the assertion
itself has teeth and cannot be disarmed."""

import inspect

import pytest

from repro.core.context import EvalContext
from repro.core.engine import eval_query, eval_xq
from repro.core.vdoc import VectorizedDocument
from repro.datasets.synth import xmark_like_xml
from repro.errors import EngineInvariantError

# //item expands to one concrete path per region (4 combos for $i); the
# selection on $p's age vector is shared by every combo and must still
# be swept once in total.
MULTI_COMBO_XQ = (
    "for $i in /site//item, $p in /site/people/person "
    "where $i/quantity > '5' and $p/profile/age > '60' "
    "return <r>{$i/name}{$p/name}</r>"
)
JOIN_XQ = (
    "for $i in /site//item, $j in /site//item "
    "where $i/location = $j/location and $i/quantity > '7' "
    "return <r>{$i/name}{$j/name}</r>"
)


@pytest.fixture(scope="module")
def vdoc():
    return VectorizedDocument.from_xml(xmark_like_xml(20, seed=3))


def test_batched_matches_naive(vdoc):
    for q in (MULTI_COMBO_XQ, JOIN_XQ):
        batched = eval_xq(vdoc, q)
        naive = eval_xq(vdoc, q, mode="naive")
        assert batched.to_xml() == naive.to_xml()
        assert batched.n_tuples > 0


def test_batched_one_sweep_per_operation(vdoc):
    """Machine assertion of the acceptance bar: across all combos, batched
    execution sweeps every data vector at most once per plan operation
    (and the run completes under the unconditional assertion)."""
    ctx = EvalContext()
    eval_xq(vdoc, MULTI_COMBO_XQ, ctx=ctx)
    counts = ctx.pass_counts()
    assert counts and all(v == 1 for v in counts.values())


def test_check_passes_has_teeth(vdoc):
    ctx = EvalContext()
    key = (0, ("site", "people", "person", "name", "#"))
    ctx.note_pass(vdoc, key)
    ctx.check_passes()  # one sweep is fine
    ctx.note_pass(vdoc, key)
    with pytest.raises(EngineInvariantError, match="person/name"):
        ctx.check_passes()
    # the paper states the invariant without exceptions: the context has
    # nothing but documents to configure
    assert list(inspect.signature(EvalContext).parameters) == ["docs"]
    assert list(inspect.signature(EvalContext.for_doc).parameters) == ["vdoc"]


def test_begin_opens_a_fresh_window(vdoc):
    """Consecutive queries through one context (the repository pattern)
    must not see each other's pass counts or cached columns."""
    ctx = EvalContext()
    eval_xq(vdoc, MULTI_COMBO_XQ, ctx=ctx)
    first = ctx.pass_counts()
    eval_xq(vdoc, MULTI_COMBO_XQ, ctx=ctx)
    assert ctx.pass_counts() == first  # reset, not accumulated


def test_shared_context_xpath_and_xq(vdoc):
    """eval_query and eval_xq both accept an external context and keep the
    scan-once guarantee through its per-document cache."""
    ctx = EvalContext()
    res = eval_query(vdoc, "//person/profile/age/text()", ctx=ctx)
    assert res.count() == 20
    out = eval_xq(vdoc, MULTI_COMBO_XQ, ctx=ctx)
    assert out.n_tuples > 0


def test_canonical_is_vectorized_and_correct(vdoc):
    """VXResult.canonical() (now a bulk gather, not per-value .at calls)
    agrees with the naive tree evaluator on a multi-path result."""
    q = "//item[quantity > 5]/name"
    vx = eval_query(vdoc, q, mode="vx").canonical()
    tree = eval_query(vdoc, q, mode="naive").canonical()
    assert vx == tree and len(vx) > 0
