import pytest
from hypothesis import given, settings, strategies as st

from bruhatspec import bruhat as br
from bruhatspec import coxeter as cx

A2 = cx.builtin_matrix("A", 2)
A3 = cx.builtin_matrix("A", 3)
D4 = cx.builtin_matrix("D", 4)
AFF = cx.builtin_matrix("affineA2")


def test_builtin_a2_entries():
    assert A2.entries == ((1, 3), (3, 1))


def test_builtin_a3_entries():
    assert A3.entries == ((1, 3, 2), (3, 1, 3), (2, 3, 1))


def test_builtin_d4_entries():
    edges = {(1, 3), (2, 3), (3, 4)}
    for i in D4.generators:
        for j in D4.generators:
            if i < j:
                want = 3 if (i, j) in edges else 2
                assert D4.entries[i - 1][j - 1] == want


def test_affine_a2_is_triangle():
    assert AFF.entries == ((1, 3, 3), (3, 1, 3), (3, 3, 1))


def test_builtin_errors():
    with pytest.raises(cx.CoxeterError):
        cx.builtin_matrix("D", 3)
    with pytest.raises(cx.CoxeterError):
        cx.builtin_matrix("E", 8)
    with pytest.raises(cx.CoxeterError):
        cx.builtin_matrix("A", 0)


def test_builtin_rank_cap():
    assert cx.builtin_matrix("A", cx.MAX_BUILTIN_RANK).n == 64
    assert cx.matrix_by_name("D064").n == 64
    for family in ("A", "D"):
        with pytest.raises(cx.CoxeterError, match="rank at most 64"):
            cx.builtin_matrix(family, cx.MAX_BUILTIN_RANK + 1)


def test_non_crystallographic_rejected():
    with pytest.raises(cx.CoxeterError):
        cx.CoxeterMatrix(2, ((1, 5), (5, 1)))


def test_matrix_validation():
    with pytest.raises(cx.CoxeterError):
        cx.CoxeterMatrix(2, ((2, 3), (3, 1)))   # bad diagonal
    with pytest.raises(cx.CoxeterError):
        cx.CoxeterMatrix(2, ((1, 3), (4, 1)))   # asymmetric


def test_json_round_trip():
    d = {"rank": 4, "m": [list(row) for row in D4.entries]}
    assert cx.CoxeterMatrix.from_json_dict(d) == D4
    inf = cx.CoxeterMatrix(2, ((1, cx.INF), (cx.INF, 1)))
    assert cx.CoxeterMatrix.from_json_dict(
        {"rank": 2, "m": [[1, 0], [0, 1]]}) == inf


@pytest.mark.parametrize("n, entries, message", [
    (2, ((True, False), (False, True)), r"entry \(1,1\) .* got True"),
    (2, ((1, 0), (0, True)), r"entry \(2,2\) .* got True"),
    (2, ((1, 3.0), (3.0, 1)), r"entry \(1,2\) .* got 3\.0"),
    (2, ((1, 3), (3.0, 1)), r"entry \(2,1\) .* got 3\.0"),
    (2, ((1, 3), (3, 1.0)), r"entry \(2,2\) .* got 1\.0"),
    (True, ((1,),), "rank must be an integer, got True"),
    (2.0, ((1, 3), (3, 1)), "rank must be an integer, got 2.0"),
    (2, ((1, 3), ()), "entries must be square"),
], ids=["bools", "bool-diagonal", "float", "float-below", "float-diagonal",
        "bool-rank", "float-rank", "short-row"])
def test_matrix_entries_must_be_plain_integers(n, entries, message):
    """JSON true/false and 3.0 compare equal to 1/0 and 3, so without a type
    check a false bond would pass as the infinite bond INF = 0."""
    with pytest.raises(cx.CoxeterError, match=message):
        cx.CoxeterMatrix(n, entries)


def test_matrix_is_immutable_and_compares_by_entries():
    """A matrix cannot be changed once built, and == and hash read only
    (n, entries): filling the reflection cache changes neither."""
    b3 = ((1, 4, 2), (4, 1, 3), (2, 3, 1))
    for n, entries in ((3, b3), (2, ((1, 6), (6, 1))),
                       (3, ((1, cx.INF, 3), (cx.INF, 1, 2), (3, 2, 1)))):
        m, fresh = (cx.CoxeterMatrix(n, entries) for _ in range(2))
        for name in ("n", "entries", "_reflections", "other"):
            with pytest.raises(AttributeError):
                setattr(m, name, None)
            with pytest.raises(AttributeError):
                delattr(m, name)
        assert m == fresh and hash(m) == hash(fresh)
        m.reflection(1)
        assert m == fresh and hash(m) == hash(fresh)
        assert fresh == m and hash(m) == hash((n, entries))
        assert cx.CoxeterMatrix.from_json_dict({"rank": n, "m": entries}) == m
        assert (m.n, m.entries) == (n, entries)
        assert m != (n, entries) and m != cx.builtin_matrix("A", n)


def test_element_from_word_examples():
    assert cx.element_from_word(A2, (1, 1)).length == 0
    assert cx.element_from_word(A2, (1, 1)) == cx.identity_element(A2)
    assert cx.element_from_word(A2, (2, 1, 2)).word == (1, 2, 1)
    assert cx.element_from_word(A2, (1, 2, 1, 2)).word == (2, 1)


def test_element_invalid_index():
    with pytest.raises(cx.CoxeterError):
        cx.element_from_word(A2, (3,))


@pytest.mark.parametrize("i", [0, -1, -3, 4])
def test_bad_generator_is_rejected_not_wrapped(i):
    # negative indices must not reach tuple indexing (0 would give s3)
    e = cx.identity_element(A3)
    for call in (lambda: A3.reflection(i), lambda: e.times_gen(i),
                 lambda: e.times_gen(i, "left"),
                 lambda: cx.element_from_word(A3, (i,))):
        with pytest.raises(cx.CoxeterError, match="invalid generator index"):
            call()


def test_times_gen_rejects_unknown_side():
    s1 = cx.element_from_word(A3, (1,))
    assert s1.times_gen(2, "left") == cx.element_from_word(A3, (2, 1))
    with pytest.raises(cx.CoxeterError, match="side must be"):
        s1.times_gen(2, side="up")


def test_right_descent_examples():
    e = cx.identity_element(A2)
    s1 = cx.element_from_word(A2, (1,))
    assert not cx.right_descent(e, 1)
    assert cx.right_descent(s1, 1)
    assert not cx.right_descent(s1, 2)


def test_multiply_examples():
    """Products are built by times_gen, one generator at a time."""
    s1 = cx.element_from_word(A2, (1,))
    assert s1.times_gen(1).length == 0
    assert s1.times_gen(2).word == (1, 2)
    s1s2 = s1.times_gen(2)
    assert s1s2.times_gen(1).word == (1, 2, 1)
    assert s1s2.times_gen(1) == cx.element_from_word(A2, (1, 2, 1))


def test_multiply_mismatch():
    """Elements of different groups never compare equal, and comparing them
    in Bruhat order is an error."""
    s1, t1 = cx.element_from_word(A2, (1,)), cx.element_from_word(A3, (1,))
    assert s1 != t1 and cx.identity_element(A2) != cx.identity_element(A3)
    with pytest.raises(cx.CoxeterError, match="different Coxeter groups"):
        br.bruhat_leq(s1, t1)


def test_canonical_word_affine():
    w = cx.element_from_word(AFF, (3, 2, 1, 3, 2))
    assert len(w.word) == 5
    assert cx.element_from_word(AFF, w.word).length == len(w.word)


def test_is_reduced_examples():
    """A word is reduced iff its element's length is the word's length."""
    reduced = lambda m, w: cx.element_from_word(m, w).length == len(w)
    assert reduced(A2, (1, 2, 1))
    assert not reduced(A2, (1, 2, 1, 2))
    assert reduced(A3, (2, 1, 3, 2))


def test_braid_relations_all_builtins():
    for m in (A2, A3, D4, AFF):
        for i in m.generators:
            for j in m.generators:
                bond = m.entries[i - 1][j - 1]
                if i == j or bond == cx.INF:
                    continue
                assert cx.element_from_word(m, (i, j) * bond).length == 0


def test_dihedral_reflections():
    """For each bond m, the reflections kept on the matrix generate the
    dihedral group of order 2m: alternating words are reduced up to length
    m and (s1 s2)^m is the identity (an infinite bond has no such m)."""
    for bond in (2, 3, 4, 6, cx.INF):
        m = cx.CoxeterMatrix(2, ((1, bond), (bond, 1)))
        alternating = lambda k: (1, 2) * (k // 2) + (1,) * (k % 2)
        length = lambda w: cx.element_from_word(m, w).length
        for k in range((bond or 8) + 1):
            assert length(alternating(k)) == k, (bond, k)
        if bond:
            assert length(alternating(bond + 1)) == bond - 1
            assert length((1, 2) * bond) == 0
        same = cx.CoxeterMatrix(2, ((1, bond), (bond, 1)))
        assert same == m and hash(same) == hash(m)
        assert repr(m) == "CoxeterMatrix(n=2, entries=((1, %d), (%d, 1)))" \
            % (bond, bond)


def test_length_changes_by_one():
    for w in cx.elements_up_to_length(A3, 4):
        for i in A3.generators:
            ws = w.times_gen(i)
            assert abs(ws.length - w.length) == 1
            assert (ws.length < w.length) == cx.right_descent(w, i)


def test_inverse_and_left_descent():
    """The reversed word gives w^-1; the left descents of w are the right
    descents of w^-1."""
    w = cx.element_from_word(A3, (2, 1, 3, 2, 1))
    inv = cx.element_from_word(A3, w.word[::-1])
    assert cx.element_from_word(A3, w.word + inv.word).length == 0
    assert (inv.matrix, inv.matrix_inv) == (w.matrix_inv, w.matrix)
    assert inv != w
    assert [i for i in A3.generators if cx.left_descent(w, i)] == [2, 3]
    for i in A3.generators:
        assert cx.left_descent(w, i) == cx.right_descent(inv, i)


def test_affine_lengths_exist_up_to_8():
    elems = cx.elements_up_to_length(AFF, 8)
    lengths = {w.length for w in elems}
    assert lengths == set(range(9))


@given(st.lists(st.integers(1, 3), max_size=8))
@settings(max_examples=80, deadline=None)
def test_roundtrip_and_idempotence_a3(word):
    w = cx.element_from_word(A3, tuple(word))
    again = cx.element_from_word(A3, w.word)
    assert again == w
    assert again.word == w.word          # canonical form is stable
    assert again.length == len(w.word)   # the canonical word is reduced


@given(st.lists(st.integers(1, 3), max_size=8))
@settings(max_examples=60, deadline=None)
def test_roundtrip_affine(word):
    w = cx.element_from_word(AFF, tuple(word))
    assert cx.element_from_word(AFF, w.word) == w
    assert len(w.word) <= len(word)


@given(st.lists(st.integers(1, 4), max_size=7))
@settings(max_examples=60, deadline=None)
def test_roundtrip_d4(word):
    w = cx.element_from_word(D4, tuple(word))
    assert cx.element_from_word(D4, w.word) == w


@pytest.mark.parametrize("m, bound", [(A3, 6), (D4, 5), (AFF, 6)],
                         ids=["A3", "D4", "affineA2"])
def test_carried_length_is_the_word_length(m, bound):
    """times_gen carries each length from its descent test; the word,
    computed later, has that many letters and gives back the element."""
    for w in cx.elements_up_to_length(m, bound):
        length = w.length
        assert length == len(w.word) and w.length == length
        assert cx.element_from_word(m, w.word) == w


def test_non_group_matrix_fails_at_first_read():
    """Building an element checks nothing; its word, or its length, which
    an element built directly reads off its word, raises on first read."""
    bad = ((2, 0), (0, 1))
    for read in (lambda w: w.word, lambda w: w.length):
        w = cx.GroupElement(A2, bad, bad)
        with pytest.raises(cx.CoxeterError, match="no descent"):
            read(w)


@pytest.mark.parametrize("off", [-1, 1])
def test_wrong_carried_length_fails_on_word(off):
    """The greedy steps must end at the identity after exactly the carried
    length: one too few or one too many is an error."""
    w = cx.element_from_word(A3, (2, 1, 3, 2))
    bad = cx.GroupElement(A3, w.matrix, w.matrix_inv)
    bad._length = w.length + off
    with pytest.raises(cx.CoxeterError, match="carried length %d"
                       % (w.length + off)):
        bad.word
    assert w.word == (2, 1, 3, 2) and w.length == 4


@pytest.mark.parametrize("make, message", [
    (lambda: cx.CoxeterMatrix(2, ((1, 3),)), "rank/entry shape mismatch"),
    (lambda: cx.CoxeterMatrix(0, ()), "rank/entry shape mismatch"),
    (lambda: cx.builtin_matrix("A", 0), "type A requires rank >= 1"),
    (lambda: cx.builtin_matrix("A"), "type A requires rank >= 1"),
    (lambda: cx.builtin_matrix("affineA2", 4), "affine A2 has rank 3"),
], ids=["rows", "rank0", "A0", "A-no-rank", "affineA2-rank"])
def test_matrix_checks_give_their_messages(make, message):
    """Each check is pinned by its own message: without the type A one, A0
    would still fail, but later, as a shape mismatch."""
    with pytest.raises(cx.CoxeterError, match="^%s$" % message.replace(
            ".", r"\.")):
        make()
