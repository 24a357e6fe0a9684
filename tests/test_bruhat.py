import re

import pytest
from hypothesis import given, settings, strategies as st

from bruhatspec import bruhat as br
from bruhatspec import coxeter as cx
from bruhatspec import poset as ps

import oracle

A2 = cx.builtin_matrix("A", 2)
A3 = cx.builtin_matrix("A", 3)
AFF = cx.builtin_matrix("affineA2")
D4 = cx.builtin_matrix("D", 4)


def el(m, word):
    return cx.element_from_word(m, word)


def block(part, S):
    """The elements of [1, wbar*a] at the positions in the bitset S."""
    return {part.interval_wbara.elements[i] for i in ps._bits(S)}


def words(part, S):
    return {w.word for w in block(part, S)}


def phi_map(part):
    """Phi, a tuple of positions, as a dict of elements."""
    E = part.interval_wbara.elements
    return {E[k]: E[v] for k, v in enumerate(part.phi)}


def in_rank_label_order(P):
    """P's elements, labels, ranks and Hasse edges with its positions
    renumbered in (rank, label) order."""
    order = sorted(range(len(P)), key=lambda i: (P.rank[i], P.labels[i]))
    ids = {p: k for k, p in enumerate(order)}
    return ([P.elements[p] for p in order], [P.labels[p] for p in order],
            [P.rank[p] for p in order],
            sorted((ids[a], ids[b]) for a, b in P.hasse))


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
        br.partition(A3, br.interval(A3, (1, 1)), 2)


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


@pytest.mark.parametrize("m,bound", [(A3, 5), (D4, 4), (AFF, 5)])
def test_grow_matches_interval_from_scratch(m, bound):
    """[1, w] grown by a on the right or left by partition equals [1, wa] or
    [1, aw] built from the empty word: elements, labels, ranks and Hasse
    edges, in (rank, label) order, since a left step appends in another
    order than a build from the right."""
    count = 0
    for w in cx.elements_up_to_length(m, bound):
        iv = br.interval(m, w.word)
        for a in m.generators:
            for side, word, descent in (
                    ("right", w.word + (a,), cx.right_descent),
                    ("left", (a,) + w.word, cx.left_descent)):
                if descent(w, a):
                    continue
                grown = br.partition(m, iv, a, side).interval_wbara
                ref = br.interval(m, word)
                assert grown.base == ref.base
                assert in_rank_label_order(grown) == \
                    in_rank_label_order(ref), (w, a, side)
                count += 1
    assert count >= 60


def test_grow_leaves_its_input_alone():
    """partition grows a copy of iv and leaves iv untouched."""
    iv = br.interval(A3, (2, 1))
    before = (iv.elements, dict(iv.position), iv.down)
    with pytest.raises(br.BruhatError,
                       match="wbar must not have a as right descent"):
        br.partition(A3, iv, 1, "right")
    with pytest.raises(br.BruhatError, match="side must be"):
        br.partition(A3, iv, 3, "up")
    grown = br.partition(A3, iv, 3, "left").interval_wbara
    assert (iv.elements, iv.position, iv.down) == before
    assert len(grown) == 2 * len(iv) and grown.position is not iv.position


@pytest.mark.parametrize("down, message", [
    ([0b11, 0b11], "cycle"),
    ([0b001, 0b011, 0b110], "not transitive"),
], ids=["cyclic", "not-transitive"])
def test_interval_rejects_a_non_order_when_built(down, message):
    """A BruhatInterval is a LabeledPoset, so its order is checked as it is
    built, whatever down-sets it is given."""
    elems = [el(A2, w) for w in ((), (1,), (1, 2))][:len(down)]
    with pytest.raises(ps.PosetError, match=message):
        br.BruhatInterval(A2, elems[-1], elems, down,
                          {w: k for k, w in enumerate(elems)})


def _count_products(monkeypatch):
    """Records (element, generator, side) for each times_gen call from here
    on."""
    calls = []
    times_gen = cx.GroupElement.times_gen

    def counted(self, i, side="right"):
        calls.append((self, i, side))
        return times_gen(self, i, side)

    monkeypatch.setattr(cx.GroupElement, "times_gen", counted)
    return calls


def test_partition_reads_products_off_its_letter_step(monkeypatch):
    """partition forms each product with a once, in its letter step: one
    per x in [1, w] without a as a descent, plus the new base.  A right
    step reads every new element's word off its table with no left
    product.  A left step does so for a new x = a*u whose least left
    descent i is a, or commutes with a and is u's least; each other new
    element costs one left product, which finds the element below it."""
    calls = _count_products(monkeypatch)
    least = lambda x: min(i for i in A3.generators if cx.left_descent(x, i))
    count = 0
    for w in cx.elements_up_to_length(A3, 5):
        iv = br.interval(A3, w.word)
        for a in A3.generators:
            for side, descent in (("right", cx.right_descent),
                                  ("left", cx.left_descent)):
                if descent(w, a):
                    continue
                calls.clear()
                part = br.partition(A3, iv, a, side)
                ascents = sum(not descent(x, a) for x in iv.elements)
                old = [c for c in calls if c[0] in iv.position]
                assert len(old) == 1 + ascents, (w, a, side)
                new = [c for c in calls if c[0] not in iv.position]
                phi = phi_map(part)
                served = set() if side == "right" else {
                    x for x in block(part, part.W4) if least(x) != a and not (
                        A3.entries[least(x) - 1][a - 1] == 2
                        and least(phi[x]) == least(x))}
                assert len(new) == len(served), (w, a, side)
                assert {x for x, _, d in new if d == "left"} == served
                count += 1
    assert count >= 60


def test_partition_qmatrices_example():
    part = br.partition(A3, br.interval(A3, (2, 1, 3)), 2)
    assert words(part, part.W2) == {()}
    assert words(part, part.W1) == {(2,)}
    assert part.W3.bit_count() == 6
    assert part.W4.bit_count() == 6


def test_partition_delta0_shape():
    part = br.partition(A2, br.interval(A2, (1,)), 2)
    assert not part.W1 and not part.W2
    assert words(part, part.W3) == {(), (1,)}
    assert words(part, part.W4) == {(2,), (1, 2)}


def test_partition_21321_example():
    part = br.partition(A3, br.interval(A3, (2, 1, 3, 2)), 1)
    w2 = {(), (2,), (3,), (2, 3), (1, 2)}
    w1 = {(1,), (2, 1), (1, 3), (2, 1, 3), (2, 1, 2)}
    assert words(part, part.W2) == w2
    assert {br.word_label(w) for w in block(part, part.W1)} == \
        {br.word_label(el(A3, w)) for w in w1}
    # W3 is the upper set generated by s3s2 inside [1, wbar]
    gen = el(A3, (3, 2))
    expect_w3 = {w for w in part.interval_wbar.elements
                 if br.bruhat_leq(gen, w)}
    assert block(part, part.W3) == expect_w3


def test_partition_precondition():
    with pytest.raises(br.BruhatError):
        br.partition(A2, br.interval(A2, (1,)), 1)   # wbar*a < wbar
    with pytest.raises(br.BruhatError, match="not in the given Coxeter"):
        br.partition(A2, br.interval(A3, (1,)), 2)


@pytest.mark.parametrize("m,bound", [(A3, 5), (D4, 4), (AFF, 5)])
def test_left_partition_inverts_right_partition(m, bound):
    """Inversion is a Bruhat automorphism, so the left partition of [1, a*w]
    is the right partition of [1, w^-1 * a] inverted, block by block; the
    reversed canonical word gives the inverse."""
    inverse = {x: el(m, x.word[::-1])
               for x in cx.elements_up_to_length(m, bound + 1)}
    inv = lambda S: {inverse[x] for x in S}
    count = 0
    for w in cx.elements_up_to_length(m, bound):
        for a in m.generators:
            if cx.left_descent(w, a):
                continue
            left = br.partition(m, br.interval(m, w.word), a, side="left")
            right = br.partition(m, br.interval(m, w.word[::-1]), a)
            assert left.interval_wbara.base == el(m, (a,) + w.word)
            W = lambda part, k: block(part, getattr(part, k))
            assert {x.times_gen(a, "left") for x in W(left, "W1")} == \
                W(left, "W2")
            assert {x.times_gen(a, "left") for x in W(left, "W4")} == \
                W(left, "W3")
            for k in ("W1", "W2", "W3", "W4"):
                assert W(left, k) == inv(W(right, k)), (w, a, k)
            assert phi_map(left) == {inverse[x]: inverse[y]
                                     for x, y in phi_map(right).items()}
            count += 1
    assert count >= 30


def test_left_partition_checks_its_laws():
    part = br.partition(A3, br.interval(A3, (2, 1)), 1, side="left")
    assert part.W1 and part.W2      # 1 is in supp(wbar): all four blocks
    part.W1, part.W2 = part.W2, part.W1
    with pytest.raises(br.BruhatError, match="W2 != m_a\\(W1\\)"):
        br._check_partition(part)
    with pytest.raises(br.BruhatError, match="left descent"):
        br.partition(A3, br.interval(A3, (1, 2)), 1, side="left")
    with pytest.raises(br.BruhatError, match="side must be"):
        br.partition(A3, br.interval(A3, (1, 2)), 3, side="up")


def _bit(part, word):
    return 1 << part.interval_wbara.position[el(A3, word)]


def _set_phi(part, pairs):
    """Phi sent to new images, given as (word, image word) pairs."""
    pos = lambda word: part.interval_wbara.position[el(A3, word)]
    f = list(part.phi)
    for w, v in pairs:
        f[pos(w)] = pos(v)
    part.phi = tuple(f)


def _swap_e_and_1(part):
    """Swap e (W2) with 1 (W3), and their Phi preimages with them, so that
    the image laws still hold but W3 holds the bottom."""
    e, one = _bit(part, ()), _bit(part, (1,))
    part.W2, part.W3 = part.W2 & ~e | one, part.W3 & ~one | e
    _set_phi(part, [((2,), (1,)), ((1, 2), ())])


def _e_also_in_w4(part):
    # with Phi(e) = 1, Phi(W4) is still W3 and the unions are unchanged
    part.W4 = part.W4 | _bit(part, ())
    _set_phi(part, [((), (1,))])


def _w3_w4_not_upper(part):
    # a [1,wbar] with no relations hides the swap from the W3 clause, but
    # not from the W3|W4 clause, which reads the order of [1,wbar*a]
    _swap_e_and_1(part)
    iv = part.interval_wbar
    part.interval_wbar = br.BruhatInterval(
        iv.cox, iv.base, iv.elements, [1 << i for i in range(len(iv))],
        iv.position)


def _1_in_w1(part):
    # 1 is minimal in W3 and has no descent 2: put it in W1 and W2 (Phi
    # fixes it), and send Phi(1.2) to 3, which 3.2 also goes to
    one = _bit(part, (1,))
    part.W1, part.W2, part.W3 = part.W1 | one, part.W2 | one, \
        part.W3 & ~one
    _set_phi(part, [((1, 2), (3,))])


# One broken partition of [1, 2.1.3.2] in A3 (W1 = {2}, W2 = {e}, W3 =
# [1, 2.1.3] - {e, 2}) per clause of _check_partition after the first, in
# the order it checks them, each breaking no clause checked before it.  The
# W3|W4 clause follows from the clauses before it when [1,wbar] carries the
# order of [1,wbar*a], so its case changes that order.
PARTITION_MUTANTS = [
    (lambda part: _set_phi(part, [((3, 2), ())]), "W3 != m_a(W4)"),
    (lambda part: setattr(part, "interval_wbar", br.interval(A3, (2, 1))),
     "W1|W2|W3 != [1,wbar]"),
    (lambda part: setattr(part, "interval_wbara", part.interval_wbar),
     "W1|..|W4 != [1,wbar*a]"),
    (_swap_e_and_1, "W3 not upper in [1,wbar]"),
    (_e_also_in_w4, "W4 not upper in [1,wbar*a]"),
    (_w3_w4_not_upper, "W3|W4 not upper in [1,wbar*a]"),
    (_1_in_w1, "W1|W4 != [1,wbar*a] cap W_a"),
]


@pytest.mark.parametrize("mutate, message", PARTITION_MUTANTS,
                         ids=[m for _, m in PARTITION_MUTANTS])
def test_each_broken_partition_clause_gives_its_message(mutate, message):
    part = br.partition(A3, br.interval(A3, (2, 1, 3)), 2)
    br._check_partition(part)
    mutate(part)
    with pytest.raises(br.BruhatError, match="^%s$" % re.escape(message)):
        br._check_partition(part)


def test_phi_properties():
    part = br.partition(A3, br.interval(A3, (2, 1, 3, 2)), 1)
    f = part.phi
    pos = lambda word: part.interval_wbara.position[el(A3, word)]
    assert f[pos(())] == pos(())
    assert f[pos((1,))] == pos(())
    assert f[pos((2, 1, 3, 2, 1))] == pos((2, 1, 3, 2))
    assert set(f) == set(ps._bits(part.W2 | part.W3))
    for k in range(len(part.interval_wbara)):
        assert f[f[k]] == f[k]
    # 2-1: each image has exactly two preimages
    from collections import Counter
    assert set(Counter(f).values()) == {2}


def test_phi2_comparison_law():
    part = br.partition(A3, br.interval(A3, (2, 1, 3, 2)), 1)
    f = phi_map(part)
    wa = [w for w in part.interval_wbara.elements if cx.right_descent(w, 1)]
    wap = [w for w in part.interval_wbara.elements
           if not cx.right_descent(w, 1)]
    for w in wa:
        for wp in wap:
            assert br.bruhat_leq(wp, w) == br.bruhat_leq(f[wp], f[w])


def test_lemma_ignore_w1_instance():
    part = br.partition(A3, br.interval(A3, (2, 1, 3, 2)), 1)
    for w in block(part, part.W2):
        for wp in block(part, part.W4):
            if br.bruhat_leq(w, wp):
                z = wp.times_gen(1)
                assert z in block(part, part.W3)
                assert br.bruhat_leq(w, z) and br.bruhat_leq(z, wp)


def test_check_lifting():
    assert br.check_lifting(A2, 3) == (True, None)
    assert br.check_lifting(A3, 4) == (True, None)
    assert br.check_lifting(AFF, 4) == (True, None)


def test_interval_to_poset_graded():
    iv = br.interval(A3, (2, 1, 3, 2))
    P = iv.to_poset()
    assert P is iv
    assert P.rank_profile() == (1, 3, 5, 4, 1)
    for a, b in P.hasse:
        assert P.rank[b] == P.rank[a] + 1
    # positions in the letter steps' append order, a linear extension;
    # in (rank, label) order the elements are in (length, canonical word)
    # order; labelled by the word
    assert all(a < b for a, b in P.hasse)
    keys = [(iv.elements[i].length, iv.elements[i].word) for i in
            sorted(range(len(iv)), key=lambda i: (iv.rank[i], iv.labels[i]))]
    assert keys == sorted(keys) and len(keys) == len(iv)
    assert iv.labels == tuple(map(br.word_label, iv.elements))
    assert all(iv.position[w] == i and iv.rank[i] == w.length
               for i, w in enumerate(iv.elements))


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
        # raises if any identity fails
        part = br.partition(AFF, br.interval(AFF, w.word), a)
        assert part.W1.bit_count() == part.W2.bit_count()
        assert part.W3.bit_count() == part.W4.bit_count()


def _count_words(monkeypatch):
    """Records the carried length of each greedy canonical word computed
    from here on."""
    calls = []
    real = cx._canonical_word
    monkeypatch.setattr(cx, "_canonical_word",
                        lambda *args: calls.append(args[3]) or real(*args))
    return calls


def test_interval_computes_one_word_per_element(monkeypatch):
    """A product that lands on an element the interval already has costs no
    word, and a word is read off the element below: [1, w0] in A4 computes
    one greedy word, the identity's in 0 steps, and derives the other 119
    with no left product, since each letter step records the element below
    each element it makes."""
    words = _count_words(monkeypatch)
    products = _count_products(monkeypatch)
    iv = br.interval(cx.builtin_matrix("A", 4),
                     (1, 2, 1, 3, 2, 1, 4, 3, 2, 1))
    assert len(iv) == 120 and words == [0]
    assert sum(side == "left" for _, _, side in products) == 0


B3 = cx.CoxeterMatrix(3, ((1, 4, 2), (4, 1, 3), (2, 3, 1)))
G2 = cx.CoxeterMatrix(2, ((1, 6), (6, 1)))
INF3 = cx.CoxeterMatrix(3, ((1, cx.INF, 3), (cx.INF, 1, 3), (3, 3, 1)))


@pytest.mark.parametrize("m, word, size", [
    (cx.builtin_matrix("A", 4), (1, 2, 1, 3, 2, 1, 4, 3, 2, 1), 120),
    (cx.builtin_matrix("D", 5), (5, 4, 3, 2, 1, 3, 4, 5), 164),
    (AFF, (1, 2, 3) * 4, 114),
    (B3, (1, 2, 3) * 3, 48),
    (G2, (1, 2) * 3, 12),
    (INF3, (3, 1, 2, 1, 2, 3, 1, 2), 74),
], ids=["A4-w0", "D5", "affineA2", "B3", "G2", "inf3"])
def test_derived_words_are_the_greedy_words(monkeypatch, m, word, size):
    """Every word an interval derives from the element below equals the
    greedy word of the same matrix, read with no carried length; only the
    identity's word is greedy."""
    words = _count_words(monkeypatch)
    iv = br.interval(m, word)
    assert len(iv) == size and words == [0]
    monkeypatch.undo()
    for w in iv.elements:
        assert w.word == cx._canonical_word(m, w.matrix, w.matrix_inv, None)
        assert len(w.word) == w.length


@pytest.mark.parametrize("off", [-1, 1])
def test_derived_word_checks_the_carried_length_below(off):
    """A letter step reads a word off the element below only if that
    element carries one letter less: one off either way raises.  The right
    step by 2 from [1, 1.2.3.2.1] makes 2.1.3.2 from 2.1.3 and reads it
    off 1.3.2 = (s_2 * 2.1.3) * s_2, an old element."""
    iv = br.interval(A3, (1, 2, 3, 2, 1))
    below = iv.elements[iv.position[el(A3, (1, 3, 2))]]
    below._length += off
    with pytest.raises(cx.CoxeterError, match="s_2 w is found with carried "
                       "length %d, but w carries 4" % (3 + off)):
        br.partition(A3, iv, 2)


def _is_greedy(w):
    return w.word == cx._canonical_word(w.cox, w.matrix, w.matrix_inv, None)


@pytest.mark.parametrize("m, bound, parts", [
    (A3, 5, 72), (D4, 4, 264), (B3, 6, 126), (G2, 5, 24), (INF3, 4, 138),
], ids=["A3", "D4", "B3", "G2", "inf3"])
def test_letter_step_words_are_the_greedy_words(m, bound, parts):
    """The word each letter step's element reads off the element it records
    below equals the greedy word, for every partition on either side."""
    count = 0
    for w in cx.elements_up_to_length(m, bound):
        iv = br.interval(m, w.word)
        assert all(map(_is_greedy, iv.elements)), w
        for a in m.generators:
            for side, descent in (("right", cx.right_descent),
                                  ("left", cx.left_descent)):
                if not descent(w, a):
                    part = br.partition(m, iv, a, side)
                    assert all(map(_is_greedy, block(part, part.W4))), \
                        (w, a, side)
                    count += 1
    assert count == parts


def test_letter_step_checks_the_descent_recorded_below():
    """D_L(u) is in D_L(us), so u's recorded least left descent bounds
    us's: a u recorded with a smaller descent than its own makes the step
    raise."""
    iv = br.interval(A3, (2,))
    u = iv.elements[-1]                         # s_2, recorded (2, e)
    assert u._below == (2, iv.elements[0])
    u._below = (1, iv.elements[0])
    with pytest.raises(cx.CoxeterError, match="u is recorded with least "
                       "left descent s_1, but u\\*s_3 has s_2"):
        br.partition(A3, iv, 3)


def test_leq_walks_without_words(monkeypatch):
    """The lifting walk reads lengths and descents, which times_gen
    carries, so it computes no word."""
    u, v = el(AFF, (1, 2, 3) * 4), el(AFF, (1, 2, 3) * 5)
    calls = _count_words(monkeypatch)
    assert br.bruhat_leq(u, v) and not br.bruhat_leq(v, u)
    assert calls == []


@pytest.mark.parametrize("bound", [0, -1])
def test_check_lifting_rejects_a_bound_below_1(bound):
    """Without the check a bound of 0 would pass on [e] alone."""
    with pytest.raises(br.BruhatError, match="^bound must be >= 1$"):
        br.check_lifting(A2, bound)
