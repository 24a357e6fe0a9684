"""The acceptance suite: one callable per criterion, shared by the CLI
selftest verb and the test suite.  Each criterion returns a detail string on
success and raises AssertionError (or a domain error) on failure."""

import time
from itertools import combinations

from . import bruhat as br
from . import coxeter as cx
from . import extension as ext
from . import poset as ps
from . import spectra as sp

FIGURE1_WORD = (3, 2, 1, 2, 3)
FIGURE1_PROFILE = (1, 3, 5, 6, 4, 1)
FIGURE3_WORD = (2, 1, 3, 2, 1)
FIGURE3_PROFILE = (1, 3, 5, 5, 3, 1)
FIGURE4_WORD = (3, 2, 1, 3, 2)
FIGURE4_PROFILE = (1, 3, 6, 7, 4, 1)
HORTON3_WORD = (4, 3, 2, 1, 3, 4)
HORTON3_SIZE = 48          # frozen from an independent subword enumeration
HORTON3_PROFILE = (1, 4, 9, 14, 13, 6, 1)


def pipeline(name):
    return sp.run_pipeline(sp.builtin(name))


def criterion_1():
    """interval() and bruhat_leq agree with subword products on all of A3."""
    m = cx.builtin_matrix("A", 3)
    elems = cx.elements_up_to_length(m, 6)
    assert len(elems) == 24
    pairs = 0
    for v in elems:
        below = {cx.element_from_word(m, sub) for k in range(v.length + 1)
                 for sub in combinations(v.word, k)}
        assert set(br.interval(m, v.word).elements) == below, \
            "interval disagrees at %r" % (v.word,)
        for u in elems:
            assert br.bruhat_leq(u, v) == (u in below), \
                "disagreement at %r <= %r" % (u.word, v.word)
            pairs += 1
    return "%d ordered pairs agree" % pairs


def criterion_2():
    """Weyl pipeline in 6 variables reproduces the 20-element interval."""
    m = cx.builtin_matrix("A", 3)
    iv = br.interval(m, FIGURE1_WORD)
    assert len(iv) == 20 and iv.rank_profile() == FIGURE1_PROFILE
    res = pipeline("weyl3")
    assert res.word == FIGURE1_WORD
    assert len(res.final_poset) == 20
    assert res.final_poset.rank_profile() == FIGURE1_PROFILE
    assert res.nabla.is_isomorphism
    assert res.nabla("3") == "Omega3", res.nabla("3")
    return "20 elements, profile %s, s3-prime = Omega3" % (FIGURE1_PROFILE,)


def criterion_3():
    res = pipeline("m2-ext-A3")
    assert res.word == FIGURE3_WORD
    assert len(res.final_poset) == 18
    assert res.final_poset.rank_profile() == FIGURE3_PROFILE
    assert res.nabla.is_isomorphism
    return "18 elements, profile %s" % (FIGURE3_PROFILE,)


def criterion_4():
    res = pipeline("m2-ext-affineA2")
    assert res.word == FIGURE4_WORD
    assert len(res.final_poset) == 22
    assert res.final_poset.rank_profile() == FIGURE4_PROFILE
    assert res.nabla.is_isomorphism
    return "22 elements, profile %s" % (FIGURE4_PROFILE,)


def criterion_5():
    res = pipeline("horton3")
    assert res.word == HORTON3_WORD
    assert len(res.final_poset) == HORTON3_SIZE
    assert res.final_poset.rank_profile() == HORTON3_PROFILE
    assert res.nabla.is_isomorphism
    return "%d elements, profile %s" % (HORTON3_SIZE, HORTON3_PROFILE)


def _sweep():
    for name, bound in (("A3", 5), ("D4", 4), ("affineA2", 4)):
        m = cx.matrix_by_name(name)
        for w in cx.elements_up_to_length(m, bound):
            for a in m.generators:
                if not cx.right_descent(w, a):
                    yield name, m, w, a


def criterion_6():
    count = 0
    for name, m, w, a in _sweep():
        rep = ps.pushout_square(m, w.word, a)
        assert rep["ok"], "pushout fails for %s, wbar=%r, a=%d: %r" \
            % (name, w.word, a, rep)
        count += 1
    return "%d pushout squares verified" % count


def criterion_7():
    count = 0
    for name, m, w, a in _sweep():
        if a in set(w.word):     # need a not below wbar
            continue
        iva = br.interval(m, w.word + (a,))
        prod = ps.product(br.interval(m, w.word), ps.two_chain())
        found = ps.find_isomorphism(iva, prod)
        assert found is not None and found.is_isomorphism, \
            "no product isomorphism for %s, wbar=%r, a=%d" % (name, w.word, a)
        count += 1
    return "%d product isomorphisms found" % count


def criterion_8():
    for n in range(1, 6):
        res = pipeline("qaffine%d" % n)
        assert len(res.final_poset) == 2 ** n
        assert res.word == tuple(range(1, n + 1))
        cube = ps.singleton("*")
        for _ in range(n):
            cube = ps.product(cube, ps.two_chain())
        assert ps.find_isomorphism(res.final_poset, cube) is not None
    return "Boolean lattices B1..B5 reproduced"


def criterion_9():
    for n in (1, 2, 3):
        assert sp.height(pipeline("weyl%d" % n).final_poset) == 2 * n - 1
    for n in range(1, 6):
        assert sp.height(pipeline("qaffine%d" % n).final_poset) == n
    return "heights 2n-1 (weyl) and n (qaffine) confirmed"


ALL_PIPELINES = ("qaffine1", "qaffine2", "qaffine3", "qaffine4", "qaffine5",
                 "qmatrix2", "weyl1", "weyl2", "weyl3", "horton3",
                 "m2-ext-A3", "m2-ext-affineA2")


def criterion_10():
    # run_pipeline checks the square of every step with a Bruhat letter and
    # raises at the first that fails
    checked = sum(rep["kind"] != "none"
                  for name in ALL_PIPELINES for rep in pipeline(name).steps)
    return "%d steps: square commutes, x-prime fibers sit over P3" % checked


def criterion_11():
    count = 0
    for name, m, w, a in _sweep():
        # partition validates its laws internally; recheck them here
        part = br.partition(m, br.interval(m, w.word), a)
        iva = part.interval_wbara
        # the blocks are positions of [1,wbar*a]; the products are formed
        # here by the group, not read off the letter step's table
        elems = lambda S: {iva.elements[i] for i in ps._bits(S)}
        assert {x.times_gen(a) for x in elems(part.W1)} == elems(part.W2)
        assert {x.times_gen(a) for x in elems(part.W4)} == elems(part.W3)
        assert ps.is_upper_set(part.interval_wbar, part.W3)
        assert ps.is_upper_set(iva, part.W4)
        assert ps.is_upper_set(iva, part.W3 | part.W4)
        w23 = {x for x in iva.elements if not cx.right_descent(x, a)}
        assert w23 == elems(part.W2 | part.W3)
        count += 1
    return "partition laws hold on %d partitions" % count


def criterion_12():
    for name, bound in (("A3", 5), ("affineA2", 5)):
        ok, cex = br.check_lifting(cx.matrix_by_name(name), bound)
        assert ok, "lifting fails in %s: %r" % (name, cex)
    return "lifting property exhaustive to length 5 in A3 and affine A2"


CRITERIA = [
    (1, "bruhat_leq vs subword oracle on A3", criterion_1),
    (2, "20-element interval / weyl(3) pipeline", criterion_2),
    (3, "18-element interval / m2-ext-A3 pipeline", criterion_3),
    (4, "22-element interval / m2-ext-affineA2 pipeline", criterion_4),
    (5, "48-element interval / horton(3) pipeline", criterion_5),
    (6, "pushout square sweep", criterion_6),
    (7, "interval(wbar*a) = interval(wbar) x 2 when a not below wbar",
     criterion_7),
    (8, "quantum affine space gives Boolean lattices", criterion_8),
    (9, "height checks", criterion_9),
    (10, "commuting square / fiber structure on every pipeline step",
     criterion_10),
    (11, "partition identity suite", criterion_11),
    (12, "lifting-property fuzz", criterion_12),
]


def run_all(emit=print):
    ok = True
    for num, title, func in CRITERIA:
        start = time.monotonic()
        try:
            detail = func()
            status = "PASS"
        except Exception as e:  # report and continue
            detail = "%s: %s" % (type(e).__name__, e)
            status = "FAIL"
            ok = False
        emit("%s %2d  %s :: %s (%.2fs)"
             % (status, num, title, detail, time.monotonic() - start))
    return ok
