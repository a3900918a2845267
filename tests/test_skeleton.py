from repro.core.skeleton import NodeStore, collapse_runs
from repro.core.vectorize import vectorize_xml


def test_collapse_runs():
    assert collapse_runs([]) == ()
    assert collapse_runs([1, 1, 1]) == ((1, 3),)
    assert collapse_runs([1, 2, 2, 1]) == ((1, 1), (2, 2), (1, 1))


def test_hash_consing_shares_identical_subtrees():
    store, root, _ = vectorize_xml("<r><a><b/></a><a><b/></a></r>")
    runs = store.children(root)
    # the two <a><b/></a> subtrees intern to one id with multiplicity 2
    assert runs == ((runs[0][0], 2),)


def test_text_values_do_not_split_runs():
    # Different text values share the '#' marker: skeleton is value-blind.
    store, root, vectors = vectorize_xml("<r><a>x</a><a>y</a><a>z</a></r>")
    assert store.children(root) == ((store.children(root)[0][0], 3),)
    assert vectors[("r", "a", "#")].tolist() == ["x", "y", "z"]


def test_skeleton_never_larger_than_tree():
    xml = "<r>" + "".join(f"<p><q>v{i}</q></p>" for i in range(100)) + "</r>"
    store, root, _ = vectorize_xml(xml)
    assert store.node_count(root) == 1 + 100 * 3
    assert len(store.reachable(root)) == 4  # r, p, q, '#'


def test_occ_statistics():
    store, root, _ = vectorize_xml(
        "<r><p><q>a</q><q>b</q></p><p><q>c</q><q>d</q></p></r>"
    )
    assert store.occ(root, ()) == 1
    assert store.occ(root, ("p",)) == 2
    assert store.occ(root, ("p", "q")) == 4
    assert store.occ(root, ("p", "q", "#")) == 4
    assert store.occ(root, ("nope",)) == 0
    p = store.children(root)[0][0]
    assert store.occ(p, ("q",)) == 2


def test_attributes_become_labelled_nodes():
    store, root, vectors = vectorize_xml('<r><a id="1"/><a id="2"/></r>')
    a = store.children(root)[0][0]
    assert store.children(root)[0][1] == 2
    assert store.label(store.children(a)[0][0]) == "@id"
    assert vectors[("r", "a", "@id", "#")].tolist() == ["1", "2"]


def test_interning_is_idempotent():
    store = NodeStore()
    a1 = store.intern("a", ((store.text_id, 1),))
    a2 = store.intern("a", ((store.text_id, 1),))
    b = store.intern("a", ((store.text_id, 2),))
    assert a1 == a2 != b
