import json
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from bruhatspec import bruhat as br
from bruhatspec import coxeter as cx
from bruhatspec import poset as ps

import reference

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
    with pytest.raises(ps.PosetError, match="^duplicate labels$"):
        ps.disjoint_union(ps.singleton("a"), ps.singleton("a"))


def test_disjoint_union_qmatrices_sizes():
    part = br.partition(A3, br.interval(A3, (2, 1, 3)), 2)
    labels = lambda S: [part.interval_wbar.labels[i] for i in ps._bits(S)]
    w3 = ps.induced(part.interval_wbar.to_poset(), labels(part.W3))
    w2 = ps.induced(part.interval_wbar.to_poset(), labels(part.W2))
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


def test_find_isomorphism_shares_live_bitsets():
    """On a 200-element antichain every level narrows all remaining
    candidate sets to equal values.  Keeping one int per value, the search
    peaks near 0.5 MB under tracemalloc; a fresh int per element and level
    (n^3/16 bytes of bits alone) peaks near 1.5 MB."""
    n = 200
    P = ps.build(["a%03d" % i for i in range(n)], [])
    Q = ps.build(["b%03d" % i for i in range(n)], [])
    tracemalloc.start()
    try:
        f = ps.find_isomorphism(P, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f is not None and f("a199") == "b199"
    assert peak < 800_000, peak


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
    assert ps.is_upper_set(chain, 1 << chain.index("1"))
    assert not ps.is_upper_set(chain, 1 << chain.index("0"))
    part = br.partition(A3, br.interval(A3, (2, 1, 3)), 2)
    assert ps.is_upper_set(part.interval_wbar, part.W3)


def test_poset_map_flags():
    chain = ps.two_chain()
    ident = ps.PosetMap(chain, chain, {"0": "0", "1": "1"})
    assert ident.is_isomorphism
    collapse = ps.PosetMap(chain, chain, {"0": "0", "1": "0"})
    assert collapse.order_preserving and not collapse.injective
    flip = ps.PosetMap(chain, chain, {"0": "1", "1": "0"})
    assert not flip.order_preserving and not flip.is_isomorphism


def test_poset_map_rejects_keys_outside_its_source():
    """An extra key would count towards injectivity, or be looked up in a
    target that lacks its image."""
    source = ps.build(["a", "b"], [])
    for target in (ps.build(["x", "y", "z"], []), ps.build(["x", "y"], [])):
        with pytest.raises(ps.PosetError, match=re.escape(
                "map has keys outside its source: ['c']")):
            ps.PosetMap(source, target, {"a": "x", "b": "x", "c": "y"})
    with pytest.raises(ps.PosetError, match=re.escape(
            "outside its source: ['c', 'd', 'e']")):
        ps.PosetMap(source, source, {l: "a" for l in "abcdef"})


def test_unknown_label_is_a_poset_error():
    """A label the poset lacks is named, whether it is a map's value or
    the member of a subset."""
    chain = ps.two_chain()
    with pytest.raises(ps.PosetError, match="^unknown label 'zzz'$"):
        ps.PosetMap(chain, chain, {"0": "zzz", "1": "1"})
    with pytest.raises(ps.PosetError, match="^unknown label 'zz'$"):
        ps.induced(chain, ["zz"])


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
    assert [e["label"] for e in d["elements"]] == list(P.labels)
    assert [e["rank"] for e in d["elements"]] == list(P.rank)
    assert d["hasse"] == [list(e) for e in P.hasse]
    assert ps.export(P, "json") == text   # deterministic


def test_export_dot():
    single = ps.export(ps.singleton("a"), "dot")
    assert "->" not in single and 'label="a"' in single
    chain = ps.export(ps.two_chain(), "dot")
    assert chain.count("->") == 1
    with pytest.raises(ps.PosetError):
        ps.export(ps.two_chain(), "xml")


def test_export_dot_labels_unescape_to_the_originals():
    """Each DOT label is one well-formed string that reads back, under DOT's
    escapes, as the label it came from."""
    labels = ["x\\", 'y"', 'a\\"b', '"\\', "\\\\", "plain"]
    text = ps.export(ps.build(labels, [(labels[0], labels[1])]), "dot")
    quoted = re.findall(r'^  n(\d+) \[label="((?:[^"\\]|\\.)*)"\];$', text,
                        re.MULTILINE)
    assert [int(i) for i, _ in quoted] == list(range(len(labels)))
    assert [re.sub(r"\\(.)", r"\1", q) for _, q in quoted] == labels


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
        ps.build(["a", "b"], [("a", "b")], rank=(0, 2))
    with pytest.raises(ps.PosetError,
                       match="^rank has 1 entries for the 2 labels$"):
        ps.build(["a", "b"], [("a", "b")], rank=(0,))
    with pytest.raises(ps.PosetError, match="^rank has 3 entries"):
        ps.build(["a", "b"], [("a", "b")], rank=[0, 1, 7])
    for rank in ({0: 0}, {0: 0, 1: 1}, {0: 0, 1: 1, 5: 7}):
        with pytest.raises(ps.PosetError, match="not a dict"):
            ps.build(["a", "b"], [("a", "b")], rank=rank)
    for rank, bad in (((-1, 0), -1), ((0, 2.5), 2.5), ((0, True), True),
                      ((0, "1"), "1")):
        with pytest.raises(ps.PosetError, match=re.escape(
                "must be a non-negative integer, got %r" % (bad,))):
            ps.LabeledPoset(["a", "b"], [1, 2], rank)
    with pytest.raises(ps.PosetError, match=re.escape(
            "rank of 'a' must be a non-negative integer, got -1")):
        ps.LabeledPoset(["a"], [1], rank=(-1,))
    P = ps.build(["a", "b"], [("a", "b")], rank=[0, 1])
    assert P.rank == (0, 1) and P.rank_profile() == (1, 1)


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


@st.composite
def up_set_lists(draw):
    """Up-set lists on n <= 10 labels: a drawn relation, its transitive
    closure or not, oriented along a random linear order (acyclic, but
    with the indices not a linear extension) or left as drawn (cycles
    possible), then maybe with a reflexive bit dropped or one bit flipped;
    with a rank that is random or absent."""
    n = draw(st.integers(1, 10))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=3 * n))
    if draw(st.booleans()):
        height = draw(st.permutations(range(n)))
        pairs = [(a, b) if height[a] < height[b] else (b, a)
                 for a, b in pairs]
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[a] |= 1 << b
    if draw(st.booleans()):
        for k in range(n):
            for i in range(n):
                if up[i] >> k & 1:
                    up[i] |= up[k]
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, n - 1))
        up[i] &= ~(1 << i)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        up[i] ^= 1 << j
    rank = draw(st.one_of(st.none(), st.lists(st.integers(0, 3), min_size=n,
                                              max_size=n)))
    labels = [chr(ord("a") + i) for i in range(n)]
    return labels, up, rank


def _verdict(make):
    try:
        return make()
    except ps.PosetError as e:
        return str(e)


@given(up_set_lists())
@example((list("abc"), [0b011, 0b000, 0b100], None))         # b !<= b
@example((list("abc"), [0b101, 0b110, 0b100], None))         # a, b < c
@example((list("abc"), [0b111, 0b110, 0b110], None))         # cycle b, c
@example((list("abcd"), [0b0001, 0b0010, 0b0101, 0b1101], None))  # d < c < a
@settings(max_examples=200, deadline=None)
def test_order_check_matches_the_relation_scan(data):
    labels, up, rank = data

    def fast():
        P = ps.LabeledPoset(labels, up, rank)
        return P.down, P.hasse
    assert _verdict(fast) == _verdict(
        lambda: reference.order_scan(labels, up, rank))


@given(small_relations(), small_relations(), st.data())
@settings(max_examples=100, deadline=None)
def test_cover_edge_map_check_matches_the_relation_scan(d1, d2, data):
    P = ps.build(*d1)
    Q = ps.build(*_upper(d2)) if data.draw(st.booleans()) else P
    images = data.draw(st.permutations(Q.labels)) if len(Q) == len(P) and \
        data.draw(st.booleans()) else \
        data.draw(st.lists(st.sampled_from(Q.labels), min_size=len(P),
                           max_size=len(P)))
    positions = [Q.index(l) for l in images]
    assert ps._preserves(P, Q, positions) == \
        reference.preserves_scan(P, Q, images)
    f = ps.PosetMap(P, Q, dict(zip(P.labels, images)))
    inverse = {v: k for k, v in f.assignment.items()}
    iso = f.injective and f.surjective and \
        reference.preserves_scan(P, Q, images) and \
        reference.preserves_scan(Q, P, [inverse[l] for l in Q.labels])
    assert f.is_isomorphism == iso
    assert ps.is_isomorphism(P, Q, positions) == iso
    assert f.order_preserving == reference.preserves_scan(P, Q, images)


def test_poset_checks_give_their_messages():
    """rank_profile needs a rank, a PosetMap a value for every source
    label, and find_isomorphism blocks that do not overlap on either
    side."""
    with pytest.raises(ps.PosetError, match="^poset has no rank function$"):
        ps.build(["a"], []).rank_profile()
    chain = ps.two_chain()
    with pytest.raises(ps.PosetError, match=re.escape(
            "map not total; missing ['1']")):
        ps.PosetMap(chain, chain, {"0": "0"})
    P, Q = ps.build(["a", "b"], []), ps.build(["x", "y"], [])
    with pytest.raises(ps.PosetError,
                       match="^constraint blocks overlap in source$"):
        ps.find_isomorphism(P, Q, [(["a"], ["x"]), (["a"], ["y"])])
    with pytest.raises(ps.PosetError,
                       match="^constraint blocks overlap in target$"):
        ps.find_isomorphism(P, Q, [(["a"], ["x"]), (["b"], ["x"])])


def test_like_lends_its_order_only_on_equal_down_sets_and_ranks():
    """A poset takes the checked up-sets and Hasse edges of `like` when its
    down-sets and ranks are those of `like`, and otherwise checks its own:
    another rank, another order, or up-sets equal to like's down-sets are
    not taken on trust."""
    iv = br.interval(A3, (2, 1, 3))
    labels = ["p%d" % i for i in range(len(iv))]
    same = ps.LabeledPoset(labels, rank=iv.rank, down=iv.down, like=iv)
    assert same.up is iv.up and same.hasse is iv.hasse
    with pytest.raises(ps.PosetError, match="not rank-increasing by 1"):
        ps.LabeledPoset(labels, rank=[0] * len(iv), down=iv.down, like=iv)
    flat = ps.LabeledPoset(labels, down=[1 << i for i in range(len(iv))],
                           like=iv)
    assert flat.hasse == () and flat.down == flat.up
    # up-sets equal to like's down-sets give the dual order, checked
    with pytest.raises(ps.PosetError, match="not rank-increasing by 1"):
        ps.LabeledPoset(labels, iv.down, iv.rank, like=iv)
