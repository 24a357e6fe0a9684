import pytest
from hypothesis import given, settings, strategies as st

from bruhatspec import coxeter as cx

A2 = cx.builtin_matrix("A", 2)
A3 = cx.builtin_matrix("A", 3)
D4 = cx.builtin_matrix("D", 4)
AFF = cx.builtin_matrix("affineA2")


def test_builtin_a2_entries():
    assert A2.entries == ((1, 3), (3, 1))


def test_builtin_a3_entries():
    assert A3.m(1, 2) == 3 and A3.m(2, 3) == 3 and A3.m(1, 3) == 2


def test_builtin_d4_entries():
    edges = {(1, 3), (2, 3), (3, 4)}
    for i in D4.generators:
        for j in D4.generators:
            if i < j:
                want = 3 if (i, j) in edges else 2
                assert D4.m(i, j) == want


def test_affine_a2_is_triangle():
    assert AFF.entries == ((1, 3, 3), (3, 1, 3), (3, 3, 1))


def test_builtin_errors():
    with pytest.raises(cx.CoxeterError):
        cx.builtin_matrix("D", 3)
    with pytest.raises(cx.CoxeterError):
        cx.builtin_matrix("E", 8)
    with pytest.raises(cx.CoxeterError):
        cx.builtin_matrix("A", 0)


def test_non_crystallographic_rejected():
    with pytest.raises(cx.CoxeterError):
        cx.CoxeterMatrix(2, ((1, 5), (5, 1)))


def test_matrix_validation():
    with pytest.raises(cx.CoxeterError):
        cx.CoxeterMatrix(2, ((2, 3), (3, 1)))   # bad diagonal
    with pytest.raises(cx.CoxeterError):
        cx.CoxeterMatrix(2, ((1, 3), (4, 1)))   # asymmetric


def test_json_round_trip():
    d = D4.to_json_dict()
    assert cx.CoxeterMatrix.from_json_dict(d) == D4
    inf = cx.CoxeterMatrix(2, ((1, cx.INF), (cx.INF, 1)))
    assert inf.to_json_dict()["m"] == [[1, 0], [0, 1]]
    assert cx.CoxeterMatrix.from_json_dict(inf.to_json_dict()) == inf


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
        assert cx.CoxeterMatrix.from_json_dict(m.to_json_dict()) == m
        assert (m.n, m.entries) == (n, entries)
        assert m != (n, entries) and m != cx.builtin_matrix("A", n)


def test_element_from_word_examples():
    assert cx.element_from_word(A2, (1, 1)).is_identity()
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
                 lambda: cx.generator_element(A3, i)):
        with pytest.raises(cx.CoxeterError, match="invalid generator index"):
            call()


def test_times_gen_rejects_unknown_side():
    s1 = cx.generator_element(A3, 1)
    assert s1.times_gen(2, "left") == cx.element_from_word(A3, (2, 1))
    with pytest.raises(cx.CoxeterError, match="side must be"):
        s1.times_gen(2, side="up")


def test_right_descent_examples():
    e = cx.identity_element(A2)
    s1 = cx.generator_element(A2, 1)
    assert not cx.right_descent(e, 1)
    assert cx.right_descent(s1, 1)
    assert not cx.right_descent(s1, 2)


def test_multiply_examples():
    s1 = cx.generator_element(A2, 1)
    s2 = cx.generator_element(A2, 2)
    assert cx.multiply(s1, s1).is_identity()
    assert cx.multiply(s1, s2).word == (1, 2)
    s1s2 = cx.multiply(s1, s2)
    assert cx.multiply(s1s2, s1).word == (1, 2, 1)


def test_multiply_mismatch():
    with pytest.raises(cx.CoxeterError):
        cx.multiply(cx.generator_element(A2, 1), cx.generator_element(A3, 1))


def test_canonical_word_affine():
    w = cx.element_from_word(AFF, (3, 2, 1, 3, 2))
    assert len(w.word) == 5
    assert cx.is_reduced(AFF, w.word)


def test_is_reduced_examples():
    assert cx.is_reduced(A2, (1, 2, 1))
    assert not cx.is_reduced(A2, (1, 2, 1, 2))
    assert cx.is_reduced(A3, (2, 1, 3, 2))


def test_braid_relations_all_builtins():
    for m in (A2, A3, D4, AFF):
        for i in m.generators:
            for j in m.generators:
                if i == j or m.m(i, j) == cx.INF:
                    continue
                assert cx.element_from_word(
                    m, ((i, j) * m.m(i, j))).is_identity()


def test_dihedral_reflections():
    """For each bond m, the reflections kept on the matrix generate the
    dihedral group of order 2m: alternating words are reduced up to length
    m and (s1 s2)^m is the identity (an infinite bond has no such m)."""
    for bond in (2, 3, 4, 6, cx.INF):
        m = cx.CoxeterMatrix(2, ((1, bond), (bond, 1)))
        alternating = lambda k: (1, 2) * (k // 2) + (1,) * (k % 2)
        for k in range((bond or 8) + 1):
            assert cx.is_reduced(m, alternating(k)), (bond, k)
        if bond:
            assert not cx.is_reduced(m, alternating(bond + 1))
            assert cx.element_from_word(m, (1, 2) * bond).is_identity()
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
    w = cx.element_from_word(A3, (2, 1, 3, 2))
    assert cx.multiply(w, w.inverse()).is_identity()
    # left descents of w are right descents of w^-1
    for i in A3.generators:
        assert cx.left_descent(w, i) == cx.right_descent(w.inverse(), i)


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
    assert cx.is_reduced(A3, w.word)


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
