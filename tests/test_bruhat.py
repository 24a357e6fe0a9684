import pytest
from hypothesis import given, settings, strategies as st

from bruhatspec import bruhat as br
from bruhatspec import coxeter as cx

import oracle

A2 = cx.builtin_matrix("A", 2)
A3 = cx.builtin_matrix("A", 3)
AFF = cx.builtin_matrix("affineA2")
D4 = cx.builtin_matrix("D", 4)


def el(m, word):
    return cx.element_from_word(m, word)


def test_leq_trivials():
    e = cx.identity_element(A2)
    for w in cx.elements_up_to_length(A2, 3):
        assert br.bruhat_leq(e, w)
    assert not br.bruhat_leq(el(A2, (1,)), el(A2, (2,)))


def test_leq_subword_example():
    assert br.bruhat_leq(el(A3, (1, 3)), el(A3, (2, 1, 3, 2)))


def test_leq_group_mismatch():
    with pytest.raises(cx.CoxeterError):
        br.bruhat_leq(el(A2, (1,)), el(A3, (1,)))


def test_leq_agrees_with_permutation_oracle_s4():
    """Full 576-pair comparison against an independent implementation."""
    elems = cx.elements_up_to_length(A3, 6)
    assert len(elems) == 24
    perms = {w: oracle.perm_of_word(4, w.word) for w in elems}
    for u in elems:
        for v in elems:
            expect = oracle.bruhat_leq_oracle(perms[u], perms[v])
            assert br.bruhat_leq(u, v) == expect, (u.word, v.word)


def test_interval_a2():
    iv = br.interval(A2, (1, 2))
    words = {w.word for w in iv.elements}
    assert words == {(), (1,), (2,), (1, 2)}
    assert br.bruhat_leq(el(A2, (1,)), iv.base)
    assert not br.bruhat_leq(el(A2, (2, 1)), iv.base)


def test_interval_figure_counts():
    assert len(br.interval(A3, (3, 2, 1, 2, 3))) == 20
    assert br.interval(A3, (3, 2, 1, 2, 3)).rank_profile() == (1, 3, 5, 6, 4, 1)
    assert len(br.interval(A3, (2, 1, 3, 2))) == 14
    assert len(br.interval(A3, (2, 1, 3, 2, 1))) == 18
    assert len(br.interval(AFF, (3, 2, 1, 3, 2))) == 22


def test_interval_rejects_non_reduced():
    with pytest.raises(br.BruhatError):
        br.interval(A2, (1, 1))
    with pytest.raises(br.BruhatError, match="input word is not reduced"):
        br.interval(A2, (1, 2, 1, 2))
    with pytest.raises(br.BruhatError, match="input word is not reduced"):
        br.partition(A3, (1, 1), 2)
    with pytest.raises(br.BruhatError, match="input word is not reduced"):
        br.is_decomposable(A2, (1, 1))


@pytest.mark.parametrize("m, word, of_word", [
    (cx.builtin_matrix("A", 4), (1, 2, 1, 3, 2, 1, 4, 3, 2, 1),
     lambda w: oracle.perm_of_word(5, w)),
    (cx.builtin_matrix("D", 5), (5, 4, 3, 2, 1, 3, 4, 5),
     lambda w: oracle.d_of_word(5, w)),
], ids=["A4-w0", "D5"])
def test_interval_order_matches_subword_oracle(m, word, of_word):
    """Every pair of [1, w] is ordered as the independent subword model
    orders it (A4 w0: 120 elements, 14,400 pairs)."""
    P = br.interval(m, word).to_poset()
    order = oracle.interval_order(word, of_word)
    model = {lab: of_word(() if lab == "e" else
                          tuple(int(x) for x in lab.split(".")))
             for lab in P.labels}
    assert sorted(model.values()) == sorted(order)
    for x in P.labels:
        for y in P.labels:
            assert P.leq(x, y) == (model[x] in order[model[y]]), (x, y)


def test_interval_order_matches_bruhat_leq_affine():
    word = (1, 2, 3, 1, 2, 3, 1, 2, 3, 1)
    iv = br.interval(AFF, word)
    assert iv.base.length == len(word)
    P = iv.to_poset()
    for u in iv.elements:
        for v in iv.elements:
            assert P.leq(br.word_label(u), br.word_label(v)) == \
                br.bruhat_leq(u, v), (u.word, v.word)


def test_partition_qmatrices_example():
    part = br.partition(A3, (2, 1, 3), 2)
    assert {w.word for w in part.W2} == {()}
    assert {w.word for w in part.W1} == {(2,)}
    assert len(part.W3) == 6
    assert len(part.W4) == 6


def test_partition_delta0_shape():
    part = br.partition(A2, (1,), 2)
    assert not part.W1 and not part.W2
    assert {w.word for w in part.W3} == {(), (1,)}
    assert {w.word for w in part.W4} == {(2,), (1, 2)}


def test_partition_21321_example():
    part = br.partition(A3, (2, 1, 3, 2), 1)
    w2 = {(), (2,), (3,), (2, 3), (1, 2)}
    w1 = {(1,), (2, 1), (1, 3), (2, 1, 3), (2, 1, 2)}
    assert {w.word for w in part.W2} == w2
    assert {br.word_label(w) for w in part.W1} == \
        {br.word_label(el(A3, w)) for w in w1}
    # W3 is the upper set generated by s3s2 inside [1, wbar]
    gen = el(A3, (3, 2))
    expect_w3 = {w for w in part.interval_wbar.elements
                 if br.bruhat_leq(gen, w)}
    assert set(part.W3) == expect_w3


def test_partition_precondition():
    with pytest.raises(br.BruhatError):
        br.partition(A2, (1,), 1)   # wbar*a < wbar


@pytest.mark.parametrize("m,bound", [(A3, 5), (D4, 4), (AFF, 5)])
def test_left_partition_inverts_right_partition(m, bound):
    """Inversion is a Bruhat automorphism, so the left partition of [1, a*w]
    is the right partition of [1, w^-1 * a] inverted, block by block."""
    inv = lambda S: {x.inverse() for x in S}
    count = 0
    for w in cx.elements_up_to_length(m, bound):
        for a in m.generators:
            if cx.left_descent(w, a):
                continue
            left = br.partition(m, w.word, a, side="left")
            right = br.partition(m, w.inverse().word, a)
            assert left.interval_wbara.base == el(m, (a,) + w.word)
            assert {x.times_gen(a, "left") for x in left.W1} == left.W2
            assert {x.times_gen(a, "left") for x in left.W4} == left.W3
            for k in ("W1", "W2", "W3", "W4"):
                assert getattr(left, k) == inv(getattr(right, k)), (w, a, k)
            assert left.phi == {x.inverse(): y.inverse()
                                for x, y in right.phi.items()}
            count += 1
    assert count >= 30


def test_left_partition_checks_its_laws():
    part = br.partition(A3, (2, 1), 1, side="left")
    assert part.W1 and part.W2      # 1 is in supp(wbar): all four blocks
    part.W1, part.W2 = part.W2, part.W1
    with pytest.raises(br.BruhatError, match="W2 != m_a\\(W1\\)"):
        br._check_partition(part)
    with pytest.raises(br.BruhatError, match="left descent"):
        br.partition(A3, (1, 2), 1, side="left")
    with pytest.raises(br.BruhatError, match="side must be"):
        br.partition(A3, (1, 2), 3, side="up")


def test_phi_properties():
    part = br.partition(A3, (2, 1, 3, 2), 1)
    f = part.phi
    e = cx.identity_element(A3)
    assert f[e] == e
    assert f[el(A3, (1,))] == e
    assert f[el(A3, (2, 1, 3, 2, 1))] == el(A3, (2, 1, 3, 2))
    img = set(f.values())
    assert img == set(part.W2 | part.W3)
    for w in part.interval_wbara.elements:
        assert f[f[w]] == f[w]
        # 2-1: each image has exactly two preimages
    from collections import Counter
    assert set(Counter(f.values()).values()) == {2}


def test_phi2_comparison_law():
    part = br.partition(A3, (2, 1, 3, 2), 1)
    f = part.phi
    wa = [w for w in part.interval_wbara.elements if cx.right_descent(w, 1)]
    wap = [w for w in part.interval_wbara.elements
           if not cx.right_descent(w, 1)]
    for w in wa:
        for wp in wap:
            assert br.bruhat_leq(wp, w) == br.bruhat_leq(f[wp], f[w])


def test_lemma_ignore_w1_instance():
    part = br.partition(A3, (2, 1, 3, 2), 1)
    for w in part.W2:
        for wp in part.W4:
            if br.bruhat_leq(w, wp):
                z = wp.times_gen(1)
                assert z in part.W3
                assert br.bruhat_leq(w, z) and br.bruhat_leq(z, wp)


def test_is_decomposable_examples():
    assert br.is_decomposable(A3, (1, 3)) == ((1,), (3,))
    assert br.is_decomposable(A2, (1, 2)) == ((1,), (2,))
    assert br.is_decomposable(A2, (2, 1, 2)) is None


def test_is_decomposable_long_word():
    # l(w) = 9: w = s5 * (1,2,1,3,2,1,4,3), supports {5} and {1,2,3,4}
    A5 = cx.builtin_matrix("A", 5)
    u, v = br.is_decomposable(A5, (1, 2, 1, 3, 2, 1, 5, 4, 3))
    assert u == (5,)
    assert cx.multiply(el(A5, u), el(A5, v)) == \
        el(A5, (1, 2, 1, 3, 2, 1, 5, 4, 3))
    assert len(u) + len(v) == 9


@pytest.mark.parametrize("m, bound", [(A3, 6), (D4, 4), (AFF, 5)],
                         ids=["A3", "D4", "affineA2"])
def test_is_decomposable_matches_brute_force(m, bound):
    """w decomposes iff some length-additive w = u*v, u, v != e, has
    [1,u] & [1,v] = {e}; any factorization returned must be one."""
    elems = cx.elements_up_to_length(m, bound)
    below = {w: set(br.interval(m, w.word).elements) for w in elems}
    e = cx.identity_element(m)
    split = set()
    for u in elems:
        for v in elems:
            if u == e or v == e or u.length + v.length > bound:
                continue
            w = cx.multiply(u, v)
            if w.length == u.length + v.length and below[u] & below[v] == {e}:
                split.add(w)
    for w in elems:
        got = br.is_decomposable(m, w.word)
        assert (got is not None) == (w in split), w
        if got is not None:
            u, v = el(m, got[0]), el(m, got[1])
            assert cx.multiply(u, v) == w
            assert u.length + v.length == w.length
            assert below[u] & below[v] == {e}


def test_check_lifting():
    assert br.check_lifting(A2, 3) == (True, None)
    assert br.check_lifting(A3, 4) == (True, None)
    assert br.check_lifting(AFF, 4) == (True, None)


def test_interval_to_poset_graded():
    P = br.interval(A3, (2, 1, 3, 2)).to_poset()
    assert P.rank_profile() == (1, 3, 5, 4, 1)
    for a, b in P.hasse:
        assert P.rank[b] == P.rank[a] + 1


@given(st.lists(st.integers(1, 3), max_size=6),
       st.lists(st.integers(1, 3), max_size=6))
@settings(max_examples=60, deadline=None)
def test_leq_matches_oracle_random_a3(uw, vw):
    u, v = el(A3, tuple(uw)), el(A3, tuple(vw))
    expect = oracle.bruhat_leq_oracle(oracle.perm_of_word(4, u.word),
                                      oracle.perm_of_word(4, v.word))
    assert br.bruhat_leq(u, v) == expect


@given(st.lists(st.integers(1, 3), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_partition_invariants_random_affine(word):
    w = cx.element_from_word(AFF, tuple(word))
    for a in AFF.generators:
        if cx.right_descent(w, a):
            continue
        part = br.partition(AFF, w.word, a)   # raises if any identity fails
        assert len(part.W1) == len(part.W2)
        assert len(part.W3) == len(part.W4)
