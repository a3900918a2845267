import random

import numpy as np
import pytest

from repro.core import paths as paths_mod
from repro.core.engine import eval_query, eval_xq
from repro.core.paths import Dataguide, ranges_to_ordinals
from repro.core.vdoc import VectorizedDocument
from repro.core.xpath.ast import CHILD, DESCENDANT, Step


@pytest.fixture()
def vdoc():
    return VectorizedDocument.from_xml(
        "<r>"
        + "".join(
            f"<p><q>v{3 * i}</q><q>v{3 * i + 1}</q><q>v{3 * i + 2}</q></p>"
            for i in range(4)
        )
        + "<p><z/></p>"
        "</r>"
    )


def test_ranges_to_ordinals():
    starts = np.array([0, 10, 20], dtype=np.int64)
    lengths = np.array([3, 0, 2], dtype=np.int64)
    assert ranges_to_ordinals(starts, lengths).tolist() == [0, 1, 2, 20, 21]
    empty = ranges_to_ordinals(np.empty(0, np.int64), np.empty(0, np.int64))
    assert len(empty) == 0


def test_index_totals_and_runs(vdoc):
    cat = vdoc.catalog
    assert cat.index(("r",)).total == 1
    assert cat.index(("r", "p")).total == 5
    assert cat.index(("r", "p", "q")).total == 12
    assert cat.index(("r", "p", "q", "#")).total == 12
    assert cat.index(("r", "nope")) is None
    assert cat.index(("x",)) is None
    # 4 regular <p> share one skeleton node; the irregular 5th is its own run
    p = cat.index(("r", "p"))
    assert p.run_counts.tolist() == [4, 1] and len(set(p.run_nodes)) == 2


def test_extension_ranges_match_child_indexes(vdoc):
    cat = vdoc.catalog
    # consistency: extension ordinal space == the child path's own index
    ids = np.arange(5, dtype=np.int64)
    starts, lengths = cat.extension_ranges(("r", "p"), ids, ("q",))
    assert lengths.tolist() == [3, 3, 3, 3, 0]
    assert starts[:4].tolist() == [0, 3, 6, 9]
    # ids=None (all occurrences) gives the same ranges
    s2, l2 = cat.extension_ranges(("r", "p"), None, ("q",))
    assert s2.tolist() == starts.tolist() and l2.tolist() == lengths.tolist()
    assert l2.sum() == cat.index(("r", "p", "q")).total


def test_extension_ranges_multi_level(vdoc):
    cat = vdoc.catalog
    starts, lengths = cat.extension_ranges(
        ("r",), np.array([0], dtype=np.int64), ("p", "q", "#"))
    assert starts.tolist() == [0] and lengths.tolist() == [12]


def test_range_values_align_with_vectors(vdoc):
    cat = vdoc.catalog
    vec = vdoc.vectors[("r", "p", "q", "#")]
    ids = np.array([1, 3], dtype=np.int64)
    starts, lengths = cat.extension_ranges(("r", "p"), ids, ("q", "#"))
    got = [vec.slice(int(s), int(s + n)) for s, n in zip(starts, lengths)]
    assert got == [["v3", "v4", "v5"], ["v9", "v10", "v11"]]


def test_dataguide(vdoc):
    guide = vdoc.catalog.dataguide()
    assert ("r",) in guide
    assert ("r", "p", "q", "#") in guide
    assert ("r", "p", "z") in guide
    assert guide == sorted(guide)


def test_irregular_interleaving_preserves_document_order():
    # <p> children alternate b,c — runs cannot collapse, order must hold.
    vdoc = VectorizedDocument.from_xml(
        "<r>" + "".join(f"<p><b>b{i}</b><c>c{i}</c></p>" for i in range(3)) + "</r>"
    )
    cat = vdoc.catalog
    assert cat.index(("r", "p", "b")).total == 3
    ids = np.arange(3, dtype=np.int64)
    starts, lengths = cat.extension_ranges(("r", "p"), ids, ("b", "#"))
    vec = vdoc.vectors[("r", "p", "b", "#")]
    got = [vec.slice(int(s), int(s + n)) for s, n in zip(starts, lengths)]
    assert got == [["b0"], ["b1"], ["b2"]]


# -- the dataguide resolver ----------------------------------------------------


def _ref_alignments(steps, cpath):
    """The brute-force step matcher (the pre-resolver implementation,
    kept verbatim as the reference): every way ``steps`` align with one
    concrete label path, ending on its last position."""
    def match(test, label):
        if test == "*":
            return label != "#" and not label.startswith("@")
        return test == label

    out = []
    L = len(cpath)
    last = len(steps) - 1

    def rec(si, pos, acc):
        step = steps[si]
        candidates = (pos,) if step.axis == CHILD else range(pos, L)
        for p in candidates:
            if p >= L or not match(step.test, cpath[p]):
                continue
            if si == last:
                if p == L - 1:
                    out.append((*acc, p))
            else:
                rec(si + 1, p + 1, (*acc, p))

    rec(0, 0, ())
    return out


def _ref_resolve(guide, steps, base=()):
    """Whole-guide walk: prefix test + rematch per path."""
    k = len(base)
    out = []
    for g in guide:
        if len(g) > k and g[:k] == base:
            aligns = _ref_alignments(steps, g[k:])
            if aligns:
                out.append((g, aligns))
    return out


def _random_xml(rng, labels=("a", "b", "c"), max_depth=6):
    """Recursive labels (an ``a`` under an ``a``), attributes, text."""
    def elem(depth):
        tag = rng.choice(labels)
        attr = ' x="1"' if rng.random() < 0.3 else ""
        if depth >= max_depth or rng.random() < 0.25:
            return f"<{tag}{attr}>t</{tag}>"
        kids = "".join(elem(depth + 1) for _ in range(rng.randint(1, 3)))
        return f"<{tag}{attr}>{kids}</{tag}>"

    return f"<a>{elem(1)}{elem(1)}{elem(1)}</a>"


def _steps(*pairs):
    return tuple(Step(axis, test) for axis, test in pairs)


@pytest.mark.parametrize("seed", range(12))
def test_resolve_equals_the_brute_force_matcher(seed):
    rng = random.Random(seed)
    vdoc = VectorizedDocument.from_xml(_random_xml(rng))
    guide = vdoc.catalog.guide
    paths = vdoc.catalog.dataguide()
    assert paths == guide.paths == sorted(set(paths))

    fixed = [
        _steps((DESCENDANT, "a"), (DESCENDANT, "a")),      # //a//a
        _steps((DESCENDANT, "*")),
        _steps((CHILD, "a"), (CHILD, "*"), (DESCENDANT, "b")),
        _steps((DESCENDANT, "b"), (CHILD, "@x")),
        _steps((DESCENDANT, "c"), (CHILD, "#")),           # //c/text()
        _steps((CHILD, "a"), (CHILD, "b"), (CHILD, "c")),  # child-only
        _steps((CHILD, "zz"), (DESCENDANT, "a")),          # wrong root
        _steps((DESCENDANT, "zz")),                        # no such label
    ]
    tests = ("a", "b", "c", "*", "@x", "#")
    randoms = [
        tuple(Step(rng.choice((CHILD, DESCENDANT)), rng.choice(tests))
              for _ in range(rng.randint(1, 4)))
        for _ in range(40)
    ]
    bases = [()] + rng.sample(paths, min(8, len(paths))) + [("zz",)]
    # a repository member's manifest guide: the same paths, with counts
    counted = Dataguide({p: i + 1 for i, p in enumerate(paths)})
    for steps in fixed + randoms:
        for base in bases:
            ref = _ref_resolve(paths, steps, base)
            assert guide.resolve(steps, base) == ref, (steps, base)
            assert counted.resolve(steps, base) == ref, (steps, base)

    for base in bases:
        k = len(base)
        assert guide.below(base) == \
            [g for g in paths if len(g) > k and g[:k] == base]
        assert (base in guide) == (base in paths)


def test_dataguide_rejects_unsorted_paths():
    for bad in ([("a",), ("a",)], [("b",), ("a",)], [()]):
        with pytest.raises(ValueError, match="empty, duplicated or out of"):
            Dataguide(bad)
    with pytest.raises(ValueError, match="empty, duplicated or out of"):
        Dataguide({("b",): 1, ("a",): 2})
    counted = Dataguide.of({("a",): 1, ("a", "b"): 3})
    assert counted[("a", "b")] == 3 and ("a", "c") not in counted


def _deep_xml(rng, sentences=60, max_depth=9):
    """TreeBank-shaped (bench's ``deep`` dataset in small): recursively
    nested random phrase tags over part-of-speech leaves."""
    phrases = ("NP", "VP", "PP", "ADJP", "SBAR", "S")
    leaves = ("NN", "DT", "VB", "JJ", "IN")

    def phrase(tag, depth):
        kids = []
        for _ in range(rng.randint(1, 4)):
            if depth < max_depth and rng.random() < 0.5:
                kids.append(phrase(rng.choice(phrases), depth + 1))
            else:
                leaf = rng.choice(leaves)
                kids.append(f"<{leaf}>w{rng.randrange(5)}</{leaf}>")
        return f"<{tag}>{''.join(kids)}</{tag}>"

    return "<FILE>" + "".join(phrase("S", 2) for _ in range(sentences)) \
        + "</FILE>"


def test_matcher_scans_each_base_range_once(monkeypatch):
    """One resolver call is one pass over the final-label bucket of its
    last step (the whole guide for ``*``) — or, for a relative variable,
    over that bucket's range below each base — and operands and splices
    are membership tests and ranges, not matcher calls."""
    vdoc = VectorizedDocument.from_xml(_deep_xml(random.Random(5)))
    paths = vdoc.catalog.dataguide()
    np_paths = [p for p in paths if p[-1] == "NP"]
    nn_paths = [p for p in paths if p[-1] == "NN"]
    assert len(paths) > 1000 and len(np_paths) > 10

    seen = []
    real = paths_mod._alignments

    def spy(tests, cpath):
        seen.append(cpath)
        return real(tests, cpath)

    monkeypatch.setattr(paths_mod, "_alignments", spy)

    expected = eval_query(vdoc, "//NP/NN", mode="naive").count()
    assert eval_query(vdoc, "//NP/NN").count() == expected > 0
    assert seen == nn_paths

    # a last step of * keeps every path: still exactly one pass
    del seen[:]
    expected = eval_query(vdoc, "//NP/*", mode="naive").count()
    assert eval_query(vdoc, "//NP/*").count() == expected > 0
    assert seen == paths

    # the plan binds //NP once and the reduction evaluates what it bound;
    # the selection operand and the spliced $n/DT never reach the matcher
    del seen[:]
    xq = "for $n in //NP where $n/NN = 'w1' return <r>{$n/DT}</r>"
    assert eval_xq(vdoc, xq).to_xml() == eval_xq(vdoc, xq, mode="naive").to_xml()
    assert seen == np_paths

    # a relative variable scans the bucket's range *below each base*,
    # once, in the planner's binding — not |NP| x |NN| paths
    del seen[:]
    xq = "for $n in //NP, $m in $n/NN where $m = 'w1' return <r>{$m}</r>"
    assert eval_xq(vdoc, xq).to_xml() == eval_xq(vdoc, xq, mode="naive").to_xml()
    below = [g[len(b):] for b in np_paths for g in nn_paths
             if g[:len(b)] == b and len(g) > len(b)]
    assert seen == np_paths + below
    assert len(below) < len(np_paths) * len(nn_paths) // 10
