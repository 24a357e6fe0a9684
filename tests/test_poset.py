import json

import pytest
from hypothesis import example, given, settings, strategies as st

from bruhatspec import bruhat as br
from bruhatspec import coxeter as cx
from bruhatspec import poset as ps

A2 = cx.builtin_matrix("A", 2)
A3 = cx.builtin_matrix("A", 3)


def test_build_basics():
    single = ps.build(["a"], [])
    assert len(single) == 1 and single.hasse == ()
    chain = ps.build(["a", "b"], [("a", "b")])
    assert chain.leq("a", "b") and not chain.leq("b", "a")
    assert chain.hasse == ((0, 1),)


def test_build_cycle_error():
    with pytest.raises(ps.PosetError):
        ps.build(["a", "b"], [("a", "b"), ("b", "a")])


def test_build_duplicate_labels():
    with pytest.raises(ps.PosetError):
        ps.build(["a", "a"], [])


def test_transitive_closure_and_reduction():
    P = ps.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert P.leq("a", "c")
    assert P.hasse == ((0, 1), (1, 2))   # (a,c) reduced away


def test_product_diamond():
    d = ps.product(ps.two_chain(), ps.two_chain())
    assert len(d) == 4
    assert d.rank_profile() == (1, 2, 1)


def test_product_with_singleton():
    P = br.interval(A2, (1, 2)).to_poset()
    Q = ps.product(P, ps.singleton())
    assert ps.find_isomorphism(P, Q) is not None


def test_product_cor_times2():
    lhs = ps.product(br.interval(A2, (1,)).to_poset(), ps.two_chain())
    rhs = br.interval(A2, (1, 2)).to_poset()
    assert ps.find_isomorphism(lhs, rhs) is not None


def test_disjoint_union():
    u = ps.disjoint_union(ps.singleton("a"), ps.singleton("b"))
    assert len(u) == 2 and u.hasse == ()
    v = ps.disjoint_union(ps.two_chain(), ps.singleton("c"))
    assert len(v) == 3 and len(v.hasse) == 1
    # label collision gets a deterministic suffix
    w = ps.disjoint_union(ps.singleton("a"), ps.singleton("a"))
    assert sorted(w.labels) == ["a", "a (2)"]


def test_disjoint_union_qmatrices_sizes():
    part = br.partition(A3, (2, 1, 3), 2)
    w3 = ps.induced(part.interval_wbar.to_poset(),
                    [br.word_label(w) for w in part.W3])
    w2 = ps.induced(part.interval_wbar.to_poset(),
                    [br.word_label(w) for w in part.W2])
    assert len(ps.disjoint_union(w3, ps.product(w2, ps.two_chain()))) == 8


def test_find_isomorphism_basics():
    assert ps.find_isomorphism(ps.product(ps.two_chain(), ps.two_chain()),
                               ps.build(list("wxyz"),
                                        [("w", "x"), ("w", "y"),
                                         ("x", "z"), ("y", "z")])) is not None
    chain3 = ps.build(list("abc"), [("a", "b"), ("b", "c")])
    anti3 = ps.build(list("abc"), [])
    assert ps.find_isomorphism(chain3, anti3) is None


def test_find_isomorphism_b3():
    iv = br.interval(A3, (2, 1, 3)).to_poset()
    cube = ps.singleton("*")
    for _ in range(3):
        cube = ps.product(cube, ps.two_chain())
    f = ps.find_isomorphism(iv, cube)
    assert f is not None and f.is_isomorphism


def test_find_isomorphism_identity_exists():
    P = br.interval(A3, (2, 1, 3, 2)).to_poset()
    f = ps.find_isomorphism(P, P)
    assert f is not None and f.is_isomorphism


def test_find_isomorphism_constraints():
    chain2 = ps.two_chain()
    # force the blocks to cross: impossible
    assert ps.find_isomorphism(chain2, chain2,
                               [(["0"], ["1"]), (["1"], ["0"])]) is None
    assert ps.find_isomorphism(chain2, chain2,
                               [(["0"], ["0"])]) is not None


def test_find_isomorphism_deep_antichain():
    # one search level per element: deeper than Python's recursion limit
    n = 1100
    P = ps.build(["a%04d" % i for i in range(n)], [])
    Q = ps.build(["b%04d" % i for i in range(n)], [])
    f = ps.find_isomorphism(P, Q)
    assert f is not None and f.is_isomorphism
    assert f("a0000") == "b0000" and f("a1099") == "b1099"


def test_find_isomorphism_backtracks_several_levels():
    """A point, a V (1, 2 < 3) and an N (4 < 6, 4 < 7, 5 < 7), relabeled so
    that the first choices in label order must be undone more than one
    level up; the first isomorphism found is pinned."""
    rels = [(1, 3), (2, 3), (4, 6), (4, 7), (5, 7)]
    perm = [5, 7, 6, 4, 0, 2, 3, 1]
    P = ps.build(["p%d" % i for i in range(8)],
                 [("p%d" % a, "p%d" % b) for a, b in rels])
    Q = ps.build(["q%d" % perm[i] for i in range(8)],
                 [("q%d" % perm[a], "q%d" % perm[b]) for a, b in rels])
    f = ps.find_isomorphism(P, Q)
    assert f.is_isomorphism
    assert [f("p%d" % i) for i in range(8)] == \
        ["q5", "q6", "q7", "q4", "q0", "q2", "q3", "q1"]


def test_find_isomorphism_deterministic():
    P = br.interval(A3, (1, 3)).to_poset()
    f = ps.find_isomorphism(P, P)
    g = ps.find_isomorphism(P, P)
    assert f.assignment == g.assignment


def test_is_upper_set():
    chain = ps.two_chain()
    assert ps.is_upper_set(chain, ["1"])
    assert not ps.is_upper_set(chain, ["0"])
    part = br.partition(A3, (2, 1, 3), 2)
    P = part.interval_wbar.to_poset()
    assert ps.is_upper_set(P, [br.word_label(w) for w in part.W3])


def test_poset_map_flags():
    chain = ps.two_chain()
    ident = ps.PosetMap(chain, chain, {"0": "0", "1": "1"})
    assert ident.is_isomorphism
    collapse = ps.PosetMap(chain, chain, {"0": "0", "1": "0"})
    assert collapse.order_preserving and not collapse.injective
    flip = ps.PosetMap(chain, chain, {"0": "1", "1": "0"})
    assert not flip.order_preserving and not flip.is_isomorphism


def test_pushout_square_examples():
    assert ps.pushout_square(A2, (1,), 2)["ok"]
    rep = ps.pushout_square(A3, (2, 1, 3), 2)
    assert rep["ok"] and rep["sizes"]["interval_wbara"] == 14
    rep = ps.pushout_square(A3, (2, 1, 3, 2), 1)
    assert rep["ok"] and rep["sizes"]["interval_wbara"] == 18


def test_export_json_schema_and_roundtrip():
    P = br.interval(A3, (2, 1, 3)).to_poset()
    text = ps.export(P, "json")
    d = json.loads(text)
    assert [e["id"] for e in d["elements"]] == list(range(8))
    assert d["hasse"] == sorted(d["hasse"])
    Q = ps.from_json(text)
    assert ps.find_isomorphism(P, Q) is not None
    assert ps.export(P, "json") == text   # deterministic


def test_export_dot():
    single = ps.export(ps.singleton("a"), "dot")
    assert "->" not in single and 'label="a"' in single
    chain = ps.export(ps.two_chain(), "dot")
    assert chain.count("->") == 1
    with pytest.raises(ps.PosetError):
        ps.export(ps.two_chain(), "xml")


def test_labeled_poset_rejects_non_order():
    with pytest.raises(ps.PosetError, match="not <= itself"):
        ps.LabeledPoset("ab", [0b01, 0b00])
    with pytest.raises(ps.PosetError, match="cycle"):
        ps.LabeledPoset("ab", [0b11, 0b11])
    with pytest.raises(ps.PosetError, match="not transitive"):
        ps.LabeledPoset("abc", [0b011, 0b110, 0b100])
    with pytest.raises(ps.PosetError, match="do not match"):
        ps.LabeledPoset("a", [0b11])
    chain = ps.LabeledPoset("abc", [0b111, 0b110, 0b100])
    assert chain.hasse == ((0, 1), (1, 2))
    assert chain.down == (0b001, 0b011, 0b111)


def test_rank_validation():
    with pytest.raises(ps.PosetError):
        ps.build(["a", "b"], [("a", "b")], rank={0: 0, 1: 2})


@st.composite
def small_relations(draw):
    n = draw(st.integers(1, 6))
    labels = [chr(ord("a") + i) for i in range(n)]
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=10))
    # keep acyclic by orienting upward
    rels = [(labels[min(a, b)], labels[max(a, b)])
            for a, b in pairs if a != b]
    return labels, rels


@given(small_relations())
@settings(max_examples=60, deadline=None)
def test_closure_reduction_roundtrip(data):
    labels, rels = data
    P = ps.build(labels, rels)
    # rebuilding from the Hasse edges reproduces the same order
    Q = ps.build(labels, [(P.labels[a], P.labels[b]) for a, b in P.hasse])
    assert Q.up == P.up and Q.hasse == P.hasse


def _upper(data):
    labels, rels = data
    return [l.upper() for l in labels], [(a.upper(), b.upper())
                                         for a, b in rels]


def _brute_covers(R):
    leq = [[R.leq(x, y) for y in R.labels] for x in R.labels]
    n = len(R)
    return tuple((i, j) for i in range(n) for j in range(n)
                 if i != j and leq[i][j]
                 and not any(leq[i][k] and leq[k][j]
                             for k in range(n) if k not in (i, j)))


@given(small_relations(), small_relations(), st.data())
@settings(max_examples=30, deadline=None)
def test_product_union_induced_match_definitions(d1, d2, data):
    P = ps.build(*d1)
    Q = ps.build(*_upper(d2))
    prod = ps.product(P, Q)
    for p1 in P.labels:
        for q1 in Q.labels:
            for p2 in P.labels:
                for q2 in Q.labels:
                    assert prod.leq("(%s,%s)" % (p1, q1), "(%s,%s)" % (p2, q2)) \
                        == (P.leq(p1, p2) and Q.leq(q1, q2))
    union = ps.disjoint_union(P, Q)
    assert union.labels == P.labels + Q.labels
    for x in union.labels:
        for y in union.labels:
            same = P if x in P.labels and y in P.labels else \
                Q if x in Q.labels and y in Q.labels else None
            assert union.leq(x, y) == (same is not None and same.leq(x, y))
    keep = data.draw(st.lists(st.sampled_from(P.labels), unique=True))
    sub = ps.induced(P, keep)
    assert sorted(sub.labels) == sorted(keep)
    for x in keep:
        for y in keep:
            assert sub.leq(x, y) == P.leq(x, y)
    for R in (prod, union, sub):
        assert R.hasse == _brute_covers(R)
        assert all((R.down[j] >> i & 1) == (R.up[i] >> j & 1)
                   for i in range(len(R)) for j in range(len(R)))


@given(small_relations(), small_relations())
@example((list("abcdef"), []),
         (list("abcd"), [("a", "c"), ("b", "c"), ("c", "d")]))
@settings(max_examples=30, deadline=None)
def test_product_commutes_up_to_iso(d1, d2):
    P = ps.build(*d1)
    labels2 = [l.upper() for l in d2[0]]
    Q = ps.build(labels2, [(a.upper(), b.upper()) for a, b in d2[1]])
    assert ps.find_isomorphism(ps.product(P, Q),
                               ps.product(Q, P)) is not None
