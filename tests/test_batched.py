"""Batched execution: one plan run over the whole tuple table.

The invariant under test — each data vector is swept at most once per plan
*operation* regardless of how many concrete paths the dataguide binds a
variable to — is machine-asserted by ``EvalContext.check_passes``; these tests
exercise both sides of it: the executor satisfies it, and the assertion
itself has teeth and cannot be disarmed."""

import inspect
import random

import numpy as np
import pytest

from repro.core import reduction
from repro.core.context import EvalContext
from repro.core.engine import eval_query, eval_xq
from repro.core.vdoc import VectorizedDocument
from repro.datasets.synth import xmark_like_xml
from repro.errors import EngineInvariantError

from test_paths import _deep_xml

# //item expands to one concrete path per region (4 paths for $i); the
# selection on $p's age vector is shared by every row and must still be
# swept once in total.
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
    """Machine assertion of the acceptance bar: across all paths, batched
    execution sweeps every data vector at most once per plan operation
    (and the run completes under the unconditional assertion)."""
    ctx = EvalContext()
    eval_xq(vdoc, MULTI_COMBO_XQ, ctx=ctx)
    counts = ctx.pass_counts()
    assert counts and all(v == 1 for v in counts.values())


def test_grouping_sweeps_rows_once_per_operation(monkeypatch):
    """Grouping rows by concrete path (per plan operation) passes over the
    row table a constant number of times, however many paths the binding
    yields — never once per path or per group — and the final split by
    path-id tuple a constant number of times per variable.  A sweep is a
    call through the reducer's numpy that takes a column as long as the
    table the operation runs over."""
    deep = VectorizedDocument.from_xml(_deep_xml(random.Random(5)))
    xq = "for $n in //NP, $m in $n//NN where $m = 'w1' return <r>{$m}</r>"
    n_rows = [0]
    sweeps = []      # per operation, then one for the final split
    real_np = reduction.np

    class CountingNumpy:
        def __getattr__(self, name):
            fn = getattr(real_np, name)
            if not callable(fn) or isinstance(fn, (type, np.ufunc)):
                return fn

            def call(*args, **kwargs):
                if any(isinstance(a, np.ndarray) and a.ndim == 1
                       and len(a) == n_rows[0] for a in args):
                    sweeps[-1] += 1
                return fn(*args, **kwargs)
            return call

    def table(n):
        n_rows[0] = n
        sweeps.append(0)

    for name in ("_instantiate", "_select", "_join"):
        real = getattr(reduction._Reducer, name)

        def op(self, *args, real=real):
            table(inspect.signature(real).bind(self, *args).arguments["n"])
            return real(self, *args)
        monkeypatch.setattr(reduction._Reducer, name, op)
    real_run = reduction._Reducer.run

    def run(self):
        out = real_run(self)
        table(out[0])
        return out
    monkeypatch.setattr(reduction._Reducer, "run", run)
    monkeypatch.setattr(reduction, "np", CountingNumpy())

    out = eval_xq(deep, xq)
    assert out.to_xml() == eval_xq(deep, xq, mode="naive").to_xml()
    # (parent path, own path) pairs the relative variable extends over
    pairs = sum(map(len, out.plan.binding.rels["m"].values()))
    assert pairs >= 100 and out.n_tuples > 0
    assert len(sweeps) == len(out.plan.ops) + 1
    # per operation: the group-by's sort and bounds, plus the replication
    # of the rows an instantiation extends
    assert max(sweeps[:-1]) <= 4, sweeps
    # the split: a group-by per variable to gather its order keys
    assert sweeps[-1] <= 2 * len(out.plan.var_paths), sweeps


def _spy_longest_array(monkeypatch) -> list:
    """``[n]``: the length of the longest 1-D array the reducer hands to
    numpy from now on (a spy on ``reduction.np``)."""
    longest = [0]
    real_np = reduction.np

    class LongestArgNumpy:
        def __getattr__(self, name):
            fn = getattr(real_np, name)
            if not callable(fn) or isinstance(fn, (type, np.ufunc)):
                return fn

            def call(*args, **kwargs):
                for a in (*args, *kwargs.values()):
                    if isinstance(a, np.ndarray) and a.ndim == 1:
                        longest[0] = max(longest[0], len(a))
                return fn(*args, **kwargs)
            return call

    monkeypatch.setattr(reduction, "np", LongestArgNumpy())
    return longest


def test_equality_join_never_builds_the_product(monkeypatch):
    """An ``=`` join instantiates its second root variable from the
    matching pairs: no 1-D array the reducer hands to numpy is as long as
    the product of the two variables' occurrences."""
    doc = VectorizedDocument.from_xml(xmark_like_xml(300))
    xq = ("for $c in //closed_auction, $p in //person "
          "where $c/buyer = $p/@id return <r>{$p/name}{$c/price}</r>")
    product = (eval_query(doc, "//closed_auction").count()
               * eval_query(doc, "//person").count())
    expected = eval_xq(doc, xq, mode="naive").to_xml()
    longest = _spy_longest_array(monkeypatch)
    out = eval_xq(doc, xq)
    assert out.to_xml() == expected
    assert product >= 2 * 10**4 and 0 < out.n_tuples < product // 50
    assert 0 < longest[0] < product, (longest[0], product)
    assert [op.extends for op in out.plan.ops if op.kind == "join"] == ["p"]


def test_reduction_never_enumerates_the_path_product(monkeypatch):
    """Rows carry their paths: the reducer's work is O(Σ bound paths),
    never O(Π bound paths).  Two ``//`` variables bind hundreds of
    concrete paths each, and the answer is a few tuples: no 1-D array the
    reducer hands to numpy is as long as the product of the path counts."""
    doc = VectorizedDocument.from_xml(_deep_xml(random.Random(6)))
    xq = ("for $a in //NP, $b in //VP where $a/NN = 'w1' and $b/DT = 'w2' "
          "and $a/JJ = $b/JJ return <r>{$a/NN}{$b/DT}</r>")
    expected = eval_xq(doc, xq, mode="naive").to_xml()
    longest = _spy_longest_array(monkeypatch)
    out = eval_xq(doc, xq)
    assert out.to_xml() == expected
    paths = out.plan.var_paths
    product = len(paths["a"]) * len(paths["b"])
    assert product >= 10**4 and 0 < out.n_tuples < 10
    assert 0 < longest[0] < product, (longest[0], product)


@pytest.mark.parametrize("xq, extends", [
    # a root variable whose predicate leaves no occurrence
    ("for $a in //NP[NN = 'w9'] return <r>{$a/NN}</r>", []),
    # the same kind of variable as the target of an extending join
    ("for $a in //NP, $b in //VP[DT = 'w9'] where $a/NN = 'w1' "
     "and $a/JJ = $b/JJ return <r>{$a/NN}{$b/JJ}</r>", ["b"]),
    # a relative variable with no path below any of its parent's
    ("for $a in //NP, $m in $a/ZZ return <r>{$m}</r>", []),
])
def test_empty_bindings_reach_their_operation(xq, extends):
    """An empty binding is instantiated by its operation like any other
    and yields no rows — it never raises on an empty concatenation."""
    deep = VectorizedDocument.from_xml(_deep_xml(random.Random(5)))
    out = eval_xq(deep, xq)
    assert out.to_xml() == eval_xq(deep, xq, mode="naive").to_xml()
    assert out.n_tuples == 0 and out.table.combos == []
    assert [op.extends for op in out.plan.ops if op.kind == "join"] \
        == extends


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


def test_builder_instantiates_each_distinct_row_once(monkeypatch):
    """``sel``-shaped queries: rows that splice the same nodes are
    instantiated once — the top-level ``_instantiate`` calls per build
    equal the distinct row signatures (with one template item, the
    distinct row nodes under the result root), not the rows.  Bytes and
    ``stats()`` are those of the naive answer's vectorization."""
    from repro.core import builder

    doc = VectorizedDocument.from_xml(xmark_like_xml(200, seed=5))
    depth, top = [0], [0]
    real = builder._instantiate

    def spy(*args):
        top[0] += not depth[0]
        depth[0] += 1
        try:
            return real(*args)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(builder, "_instantiate", spy)

    for ret in ("{$p/name}", "{$p/@id}{$p/name}", "{$p/profile/interest}"):
        xq = (f"for $p in /site/people/person where $p/profile/age > '30' "
              f"return <t>{ret}</t>")
        top[0] = 0
        res = eval_xq(doc, xq)
        out = res.vdoc
        distinct = {c for c, _ in out.store.children(out.root)}
        assert top[0] == len(distinct) < res.n_tuples // 4, (xq, top[0])
        naive = eval_xq(doc, xq, mode="naive").to_xml()
        assert res.to_xml() == naive
        assert out.stats() == VectorizedDocument.from_xml(naive).stats()


def test_keying_multi_node_rows_is_checkpointed():
    """Rows that splice several nodes are keyed by their id slices in a
    Python loop over the rows; that loop checks the deadline every 64
    rows, and equal slices get equal keys."""
    from repro.core import builder

    n_rows = 300
    offsets = np.arange(0, 2 * n_rows + 1, 2, dtype=np.int64)
    ids = np.arange(2 * n_rows, dtype=np.int64) % 6    # 3 distinct slices
    calls = [0]

    def checkpoint():
        calls[0] += 1
    keys = builder._row_keys(ids, offsets, checkpoint)
    assert calls[0] == -(-n_rows // 64)
    assert len(keys) == n_rows and len(set(keys)) == 3
    assert keys[:3] * 100 == keys
