"""The benchmark's Coxeter model reproduces known group and interval data."""

import random

import pytest

import model


def _order(group, i, j):
    """Order of s_i s_j in the model group."""
    w, k = group.identity, 0
    while True:
        w = group.times_gen(group.times_gen(w, i), j)
        k += 1
        if w == group.identity:
            return k


# Coxeter matrices written out from the Dynkin diagrams: A_n is a chain,
# the repository's D_n forks at node 3 (edges 1-3, 2-3, 3-4, ...), and
# affine A2 is a triangle.
def _bonds(name, rank):
    if name.startswith("A"):
        edges = {(i, i + 1) for i in range(1, rank)}
    elif name.startswith("D"):
        edges = {(1, 3), (2, 3)} | {(i, i + 1) for i in range(3, rank)}
    else:
        edges = {(1, 2), (2, 3), (1, 3)}
    return {(i, j): 3 if (i, j) in edges else 2
            for i in range(1, rank + 1) for j in range(i + 1, rank + 1)}


@pytest.mark.parametrize("name", ["A3", "A4", "D4", "D5", "affineA2"])
def test_generators_satisfy_the_coxeter_relations(name):
    g = model.Group(name)
    for i in g.generators:
        assert g.length(g.times_gen(g.identity, i)) == 1
        assert g.times_gen(g.times_gen(g.identity, i), i) == g.identity
    for (i, j), m in _bonds(name, g.rank).items():
        assert _order(g, i, j) == m


@pytest.mark.parametrize("name,size,top", [("A4", 120, 10), ("D5", 1920, 20)])
def test_group_orders(name, size, top):
    layers = model.elements_by_length(model.Group(name), top + 1)
    assert sum(map(len, layers)) == size
    assert len(layers[top]) == 1 and layers[top + 1] == []


@pytest.mark.parametrize("name,word,profile", [
    ("A3", (3, 2, 1, 2, 3), (1, 3, 5, 6, 4, 1)),
    ("A3", (2, 1, 3, 2, 1), (1, 3, 5, 5, 3, 1)),
    ("affineA2", (3, 2, 1, 3, 2), (1, 3, 6, 7, 4, 1)),
    ("D4", (4, 3, 2, 1, 3, 4), (1, 4, 9, 14, 13, 6, 1)),
])
def test_shipped_figure_profiles(name, word, profile):
    iv = model.Interval(model.Group(name), word)
    assert iv.rank_profile() == profile
    assert len(iv) == sum(profile)


def test_covers_of_a_boolean_interval():
    # [1, s1 s3] in A3 is a square: four elements, four covers
    iv = model.Interval(model.Group("A3"), (1, 3))
    assert len(iv) == 4 and len(iv.covers()) == 4


def test_covers_form_a_graded_order():
    # every non-identity element covers something, every cover raises
    # the length by one, and the top is the only maximal element
    iv = model.Interval(model.Group("affineA2"), (1, 2, 3, 1, 2, 3))
    covers = iv.covers()
    assert all(iv.length[v] == iv.length[u] + 1 for u, v in covers)
    assert {v for _, v in covers} == set(iv.length) - {iv.group.identity}
    assert set(iv.length) - {u for u, _ in covers} == {iv.top}


def test_rejects_non_reduced_word():
    with pytest.raises(ValueError):
        model.Interval(model.Group("A3"), (1, 1))


@pytest.mark.parametrize("name,length", [("A4", 10), ("D5", 12),
                                         ("affineA2", 13)])
def test_random_reduced_words(name, length):
    g = model.Group(name)
    rng = random.Random(7)
    distinct = 0
    for w in model.elements_by_length(g, length)[length][:4]:
        words = {model.random_reduced_word(g, w, rng) for _ in range(10)}
        assert all(len(x) == length and g.element(x) == w for x in words)
        distinct = max(distinct, len(words))
    assert distinct > 1
