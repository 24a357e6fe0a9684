import os
import re
import subprocess
import sys

import pytest

from bruhatspec import bruhat as br
from bruhatspec import coxeter as cx
from bruhatspec import extension as ext
from bruhatspec import poset as ps
from bruhatspec import spectra

A2 = cx.builtin_matrix("A", 2)
A3 = cx.builtin_matrix("A", 3)


def chain2(lo="0", hi="x1"):
    return ps.build([lo, hi], [(lo, hi)])


def mask(P, labels):
    """The bitset over P's positions of the given labels."""
    return sum(1 << P.index(l) for l in labels)


def blocks(P, P1, P2, P3, partner):
    """A SpectrumPartition given by labels."""
    return ext.SpectrumPartition(
        P, mask(P, P1), mask(P, P2), mask(P, P3),
        {P.index(p): P.index(q) for p, q in partner.items()})


def sp_all_p3(P):
    return ext.SpectrumPartition(P, 0, 0, (1 << len(P)) - 1, {})


def as_dict(source, target):
    """The identity on positions from source to target, as a label dict."""
    assert len(source) == len(target)
    return dict(zip(source.labels, target.labels))


def is_identity_iso(source, target):
    return ps.is_isomorphism(source, target, range(len(source)))


def minimal_setup():
    """Ptilde = {p < q}, P = {p}, Px = {q}, PhiTilde constant p: the step
    over the one-prime poset {p}, all of it in P3."""
    T = ps.build(["p", "q"], [("p", "q")])
    return ext.SetupData(Ptilde=T, phi=(0, 0),
                         source=sp_all_p3(ps.singleton("p")))


def test_validate_setup_pass():
    assert ext.validate_setup(minimal_setup()) is None


def test_setup_data_requires_a_source():
    """commuting_square reads the source's P3, so a setup has one."""
    s = minimal_setup()
    with pytest.raises(TypeError, match="source"):
        ext.SetupData(Ptilde=s.Ptilde, phi=s.phi)


def test_validate_setup_upper_set_fail():
    """The minimal setup with the roles of p and q swapped: the old copy
    is q, and the x-prime p lies below it."""
    s = _setup([("p", "q")], {"q"}, {"p"}, {"p": "q", "q": "q"})
    with pytest.raises(ext.ExtensionError,
                       match="^Px is not an upper set of Ptilde$"):
        ext.validate_setup(s)


def test_validate_setup_phi_above_fail():
    T = ps.build(["p", "q", "r"], [("p", "q"), ("p", "r")])
    s = ext.SetupData(Ptilde=T, phi=(0, 1, 1),
                      source=sp_all_p3(ps.build(["p", "q"], [])))
    with pytest.raises(ext.ExtensionError, match="^PhiTilde\\(q\\) !<= r$"):
        ext.validate_setup(s)


def _setup(relations, P, Px, phi):
    """Ptilde on the old primes P, then the x-primes Px, each in label
    order, with PhiTilde given by labels; a key of phi that Ptilde lacks
    adds an entry past Ptilde's last position.  validate_setup reads only
    the size of the source."""
    T = ps.build(sorted(P) + sorted(Px), relations)
    keys = list(T.labels) + sorted(set(phi) - set(T.labels))
    return ext.SetupData(Ptilde=T, phi=tuple(T.index(phi[l]) for l in keys),
                         source=sp_all_p3(ps.build(sorted(P), [])))


# One SetupData per clause of validate_setup, in the order it checks them,
# each breaking that clause and no clause checked before it, with the
# message it must give.  Most break only their own clause.  A failing
# "PhiTilde(p) <= p" always breaks the mixed or the idempotence clause as
# well (take the mixed clause at (PhiTilde(p), p)).  The injectivity clause
# never fails first: two x-primes over one prime would each lie below the
# other by the Px-isomorphism clause, which antisymmetry forbids, so its
# case is caught by that clause.
CLAUSE_MUTANTS = [
    (_setup([("c", "a"), ("a", "b")], {"c", "b"}, {"a"},
            {"c": "c", "b": "b", "a": "c"}),
     "Px is not an upper set of Ptilde"),
    (_setup([("a", "b"), ("b", "bx")], {"a", "b"}, {"bx"},
            {"a": "a", "b": "b", "bx": "b", "ghost": "a"}),
     "PhiTilde is not total on Ptilde"),
    (_setup([("a", "b"), ("b", "bx")], {"a", "b"}, {"bx"},
            {"a": "a", "b": "b", "bx": "bx"}),
     "PhiTilde image must lie in P"),
    (_setup([("a", "x")], {"a", "b"}, {"x"}, {"a": "a", "b": "b", "x": "b"}),
     "PhiTilde(b) !<= x"),
    (_setup([("a", "b"), ("a", "ax"), ("b", "bx")], {"a", "b"},
            {"ax", "bx"}, {"a": "a", "b": "b", "ax": "a", "bx": "b"}),
     "PhiTilde not an isomorphism on Px at (ax,bx)"),
    (_setup([("a", "x"), ("a", "y")], {"a"}, {"x", "y"},
            {"a": "a", "x": "a", "y": "a"}),
     "PhiTilde not an isomorphism on Px at (x,y)"),
    (_setup([("a", "bx"), ("b", "bx")], {"a", "b"}, {"bx"},
            {"a": "a", "b": "b", "bx": "b"}),
     "mixed comparison clause fails at (a,bx)"),
    (_setup([("a", "b"), ("b", "bx")], {"a", "b"}, {"bx"},
            {"a": "a", "b": "a", "bx": "b"}),
     "PhiTilde not idempotent at bx"),
]


# The ids count from 1 so that each case keeps the id it had while the list
# began with the "P, Px must partition Ptilde" case, a clause that the
# fixed layout (old copy first, x-primes after it) can no longer break.
@pytest.mark.parametrize("setup, message", CLAUSE_MUTANTS, ids=[
    "setup%d-%s" % (k, m) for k, (_, m) in enumerate(CLAUSE_MUTANTS, 1)])
def test_each_broken_setup_clause_gives_its_message(setup, message):
    with pytest.raises(ext.ExtensionError, match="^%s$" % re.escape(message)):
        ext.validate_setup(setup)


def test_derive_partners():
    """The partner of a P1 prime is the P2 prime it covers: an error when
    there is none or more than one, unless the override names one."""
    delta = {"a": (("c",),)}       # a is P1, c is P3, 0 and 1 are P2
    P = ps.build(["0", "a", "c"], [("0", "a"), ("0", "c")])
    sp = spectra.classify(P, delta)
    assert (sp.P1, sp.P2, sp.partner) == (mask(P, ["a"]), mask(P, ["0"]), {1: 0})
    C = ps.build(["c", "a"], [("c", "a")])
    with pytest.raises(spectra.SpectraError, match=re.escape(
            "partner of 'a' is ambiguous or missing (candidates [])")):
        spectra.classify(C, delta)
    D = ps.build(["0", "1", "a"], [("0", "a"), ("1", "a")])
    with pytest.raises(spectra.SpectraError, match=re.escape(
            "partner of 'a' is ambiguous or missing (candidates "
            "['0', '1'])")):
        spectra.classify(D, delta)
    assert spectra.classify(D, delta,
                            partner_override={"a": "1"}).partner == {2: 1}


def ore(sp, label_of_new, relabel=()):
    """ore_step with the new label of each P3 prime q given as a function
    of q's label, and relabel keyed by label."""
    P = sp.P
    return ext.ore_step(
        sp, {q: label_of_new(P.labels[q]) for q in ps._bits(sp.P3)},
        {P.index(l): new for l, new in dict(relabel).items()})


def test_ore_step_delta0_gives_product():
    P = chain2()
    setup = ore(sp_all_p3(P), lambda q: q + "+x")
    assert len(setup.Ptilde) == 4
    prod = ps.product(P, ps.two_chain())
    assert ps.find_isomorphism(setup.Ptilde, prod) is not None
    # the old copy keeps P's positions and order
    old = (1 << len(P)) - 1
    assert [u & old for u in setup.Ptilde.up[:len(P)]] == list(P.up)
    ext.validate_setup(setup)


def test_ore_step_unit_delta_weyl_base():
    # first quantized Weyl step: P3 empty, the x1-prime projects to 0
    P = chain2()
    sp = blocks(P, ["x1"], ["0"], [], {"x1": "0"})
    setup = ext.ore_step(sp, {}, {P.index("x1"): "Omega1"})
    T = setup.Ptilde
    assert len(T) == 2
    assert sorted(T.labels) == ["0", "Omega1"]
    # projection through the partner
    assert T.labels[setup.phi[T.index("Omega1")]] == "0"
    ext.validate_setup(setup)


def test_ore_step_qmatrix_sizes():
    # cube on x1,x2,x3; P1 = {x1}, P2 = {0}, P3 = primes meeting {x2,x3}
    labels, rels = [], []
    import itertools
    subsets = [frozenset(c) for k in range(4)
               for c in itertools.combinations(["x1", "x2", "x3"], k)]
    lab = lambda s: "0" if not s else ",".join(sorted(s))
    for s in subsets:
        labels.append(lab(s))
        for t in subsets:
            if s < t:
                rels.append((lab(s), lab(t)))
    P = ps.build(labels, rels)
    P3 = [lab(s) for s in subsets if s & {"x2", "x3"}]
    sp = blocks(P, ["x1"], ["0"], P3, {"x1": "0"})
    setup = ore(sp, lambda q: q + ",x4", relabel={"x1": "Dq"})
    assert len(setup.Ptilde) == 14
    iv = br.interval(A3, (2, 1, 3, 2)).to_poset()
    assert ps.find_isomorphism(setup.Ptilde, iv) is not None


def test_ore_step_partner_missing():
    P = chain2()
    sp = blocks(P, ["x1"], ["0"], [], {})
    with pytest.raises(ext.ExtensionError):
        ext.ore_step(sp, {})


def test_extend_iso_trivial():
    part = br.partition(A2, br.interval(A2, ()), 1)
    setup = ore(sp_all_p3(ps.build(["0"], [])), lambda q: "x1")
    ext.extend_iso(part, setup)
    iva = part.interval_wbara
    assert is_identity_iso(iva, setup.Ptilde)
    assert as_dict(iva, setup.Ptilde) == {"e": "0", "1": "x1"}
    ext.commuting_square(part, setup)


def test_extend_iso_hypothesis_a_failure():
    # wrong block: pretend everything is already above delta(R)
    part = br.partition(A2, br.interval(A2, (1,)), 2)
    P = chain2()
    sp = sp_all_p3(P)
    setup = ore(sp, lambda q: q + "+x")
    # nabla maps W3 onto P, but PhiTilde(x1+x) = 0, so PhiTilde(Px) = {0}
    # != nabla(W3)
    bad_setup = _with(setup, phi={"x1+x": "0"})
    assert as_dict(part.interval_wbar, P) == {"e": "0", "1": "x1"}
    with pytest.raises(ext.ExtensionError, match="hypothesis \\(a\\)"):
        ext.extend_iso(part, bad_setup)


def test_extend_iso_left_step():
    # [1, 2*1] in A2 by left multiplication: W3 = [1, 1], W4 = 2*[1, 1]
    part = br.partition(A2, br.interval(A2, (1,)), 2, side="left")
    P = chain2()
    setup = ore(sp_all_p3(P), lambda q: q + ",x2")
    assert as_dict(part.interval_wbar, P) == {"e": "0", "1": "x1"}
    ext.extend_iso(part, setup)
    iva = part.interval_wbara
    assert is_identity_iso(iva, setup.Ptilde)
    named = as_dict(iva, setup.Ptilde)
    assert named["2"] == "0,x2" and named["2.1"] == "x1,x2"
    ext.commuting_square(part, setup)
    bad = _with(setup, phi={"x1,x2": "0"})  # PhiTilde(Px) = {0} != nabla(W3)
    with pytest.raises(ext.ExtensionError, match="hypothesis \\(a\\)"):
        ext.extend_iso(part, bad)


def test_ore_step_ranks_new_primes():
    P = ps.build(["0", "x1"], [("0", "x1")], rank=(0, 1))
    setup = ore(sp_all_p3(P), lambda q: q + ",x2")
    T = setup.Ptilde
    assert (T.labels, T.rank) == (("0", "x1", "0,x2", "x1,x2"), (0, 1, 1, 2))
    assert ore(sp_all_p3(chain2()), lambda q: q + "+").Ptilde.rank \
        is None


def test_ore_step_rejects_non_transitive_order():
    """p < p' and pi(p') = t <= q, but pi(p) = u is not below q: the cross
    relations p' <= q_x without p <= q_x are not an order."""
    P = ps.build(["z", "u", "t", "p", "p'", "q"],
                 [("z", "u"), ("z", "t"), ("u", "p"), ("p", "p'"),
                  ("t", "p'"), ("t", "q")])
    sp = blocks(P, ["p", "p'"], ["z", "u", "t"], ["q"],
                {"p": "u", "p'": "t"})
    sp.validate()
    with pytest.raises(ps.PosetError, match="order not transitive"):
        ore(sp, lambda q: q + "x")


def test_extend_iso_delta0_step():
    # quantum affine step n=2: extend the 2-chain across s2
    part = br.partition(A2, br.interval(A2, (1,)), 2)
    P = chain2()
    setup = ore(sp_all_p3(P), lambda q: q + ",x2")
    assert as_dict(part.interval_wbar, P) == {"e": "0", "1": "x1"}
    ext.extend_iso(part, setup)
    iva = part.interval_wbara
    assert is_identity_iso(iva, setup.Ptilde)
    assert as_dict(iva, setup.Ptilde)["2"] == "0,x2"
    ext.commuting_square(part, setup)


def test_extend_iso_restriction_formula():
    part = br.partition(A2, br.interval(A2, (1,)), 2)
    P = chain2()
    setup = ore(sp_all_p3(P), lambda q: q + ",x2")
    iv, iva = part.interval_wbar, part.interval_wbara
    ext.extend_iso(part, setup)
    # [1,wbar*a] keeps [1,wbar]'s positions and the old copy P's, so the
    # identity nablat restricts to the identity nabla
    for w in iv.elements:
        assert iva.position[w] == iv.position[w]
    assert setup.Ptilde.labels[:len(P)] == P.labels


def test_commuting_square_weyl_fiber_over_partner():
    """With P1 nonempty and P3 empty the contraction has a 2-element fiber
    over the partner, and no fibers containing new primes at all."""
    P = chain2()
    sp = blocks(P, ["x1"], ["0"], [], {"x1": "0"})
    setup = ext.ore_step(sp, {}, {P.index("x1"): "Omega1"})
    fibers = {}
    for t, b in enumerate(setup.phi):
        fibers.setdefault(P.labels[b], set()).add(setup.Ptilde.labels[t])
    assert fibers == {"0": {"0", "Omega1"}}


def test_first_failing_x_prime_does_not_depend_on_the_hash_seed():
    """Two x-primes fail "PhiTilde(p) <= p"; the one named is the first in
    label order, in every process."""
    code = ("from bruhatspec import extension as ext, poset as ps\n"
            "T = ps.build(['a', 'b', 'x', 'y'], [('a', 'x'), ('b', 'y')])\n"
            "src = ext.SpectrumPartition(ps.build(['a', 'b'], []),\n"
            "                            0, 0, 0b11, {})\n"
            "s = ext.SetupData(Ptilde=T, source=src, phi=(0, 1, 1, 0))\n"
            "try:\n"
            "    ext.validate_setup(s)\n"
            "except ext.ExtensionError as e:\n"
            "    print(e)\n")
    src = os.path.dirname(os.path.dirname(ext.__file__))
    outs = {subprocess.run([sys.executable, "-c", code], check=True,
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": src,
                                "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "1")}
    assert outs == {"PhiTilde(b) !<= x\n"}


@pytest.mark.parametrize("sp, message", [
    (blocks(chain2(), [], ["0"], [], {}),
     "P1|P2|P3 does not cover P"),
    (blocks(chain2(), ["x1"], ["0", "x1"], [], {"x1": "0"}),
     "P1/P2/P3 not disjoint"),
    (blocks(chain2(), ["x1"], ["0"], [], {"x1": "x1"}),
     "partner of 'x1' must be a P2 prime it covers"),
    # 0 is a P2 prime below x2, but x2 covers x1, not 0
    (blocks(ps.build(["0", "x1", "x2"], [("0", "x1"), ("x1", "x2")]),
            ["x2"], ["0", "x1"], [], {"x2": "0"}),
     "partner of 'x2' must be a P2 prime it covers"),
], ids=["cover", "disjoint", "partner", "partner-not-covered"])
def test_each_broken_spectrum_partition_gives_its_message(sp, message):
    with pytest.raises(ext.ExtensionError, match="^%s$" % re.escape(message)):
        sp.validate()


@pytest.fixture
def qmatrix2_last_step(monkeypatch):
    """(part, setup) as run_pipeline hands them to extend_iso at the last
    step of qmatrix2: W1 = {2}, W2 = {e}, and nabla, the identity on
    positions, sends 2 to x1, whose copy in Ptilde is Dq, and e to 0."""
    seen, extend_iso = [], ext.extend_iso
    monkeypatch.setattr(ext, "extend_iso",
                        lambda *args: seen.append(args) or extend_iso(*args))
    spectra.run_pipeline(spectra.builtin("qmatrix2"))
    part, setup = seen[-1]
    P, T = setup.source.P, setup.Ptilde
    named = as_dict(part.interval_wbar, P)
    assert named["2"] == "x1" and T.labels[P.index("x1")] == "Dq"
    assert named["e"] == "0" and T.labels[setup.phi[T.index("Dq")]] == "0"
    return part, setup


def _with(setup, phi=(), **changes):
    """setup with some fields replaced, and PhiTilde sent to new images at
    the primes named in phi, a dict of labels."""
    T = changes.get("Ptilde", setup.Ptilde)
    f = list(setup.phi)
    for p, q in dict(phi).items():
        f[T.index(p)] = T.index(q)
    fields = dict(Ptilde=setup.Ptilde, phi=tuple(f), source=setup.source)
    return ext.SetupData(**{**fields, **changes})


def test_extend_iso_rejects_a_nabla_that_is_no_isomorphism(
        qmatrix2_last_step):
    """A source P whose order is not [1,wbar]'s: the identity nabla is no
    isomorphism."""
    part, setup = qmatrix2_last_step
    src = setup.source
    flat = ps.LabeledPoset(src.P.labels, [1 << i for i in range(len(src.P))])
    bad = ext.SpectrumPartition(flat, src.P1, src.P2, src.P3, src.partner)
    with pytest.raises(ext.ExtensionError,
                       match="^nabla is not an isomorphism$"):
        ext.extend_iso(part, _with(setup, source=bad))


def test_extend_iso_hypothesis_b_failure(qmatrix2_last_step):
    """PhiTilde(Dq) = Dq leaves PhiTilde(Px) alone, so (a) holds, but
    PhiTilde(nabla(2)) is no longer nabla(Phi(2)) = nabla(e) = 0."""
    part, setup = qmatrix2_last_step
    bad = _with(setup, phi={"Dq": "Dq"})
    with pytest.raises(ext.ExtensionError, match=re.escape(
            "hypothesis (b) fails at 2: PhiTilde(nabla(w))=Dq, "
            "nabla(Phi(w))=0")):
        ext.extend_iso(part, bad)


def test_extend_iso_rejects_an_extension_that_is_no_isomorphism(
        qmatrix2_last_step):
    """Hypotheses (a) and (b) read only labels and PhiTilde; a Ptilde with
    the right labels and no order passes them, and the extension is then
    checked as a map."""
    part, setup = qmatrix2_last_step
    T = setup.Ptilde
    bad = _with(setup, Ptilde=ps.LabeledPoset(
        T.labels, [1 << i for i in range(len(T))]))
    with pytest.raises(ext.ExtensionError,
                       match="^extended map is not an isomorphism$"):
        ext.extend_iso(part, bad)


def test_commuting_square_reports_each_failure(qmatrix2_last_step):
    part, setup = qmatrix2_last_step
    ext.extend_iso(part, setup)
    ext.commuting_square(part, setup)

    def fails(*clauses):
        return pytest.raises(ext.ExtensionError, match="^%s$" % re.escape(
            "commuting square fails: " + ", ".join(clauses)))

    # PhiTilde with the images of the x-primes over 1 and 3 (both in W3)
    # swapped: each fiber keeps two elements, one of them its base
    T, n = setup.Ptilde, len(setup.source.P)
    i, j = map(part.interval_wbar.index, ("1", "3"))
    xi, xj = (T.labels[n + setup.phi[n:].index(k)] for k in (i, j))
    swapped = _with(setup, phi={xi: T.labels[j], xj: T.labels[i]})
    with fails("square_commutes"):
        ext.commuting_square(part, swapped)
    # PhiTilde(x2) = 0 puts 0, Dq and x2 in one fiber, and leaves the
    # x-prime over x2 without x2 in its fiber
    three = _with(setup, phi={"x2": "0"})
    with fails("square_commutes", "at_most_2_1", "new_fibers_over_P3"):
        ext.commuting_square(part, three)
    # a source partition whose P3 misses x2 no longer matches the fibers
    # that hold an x-prime
    src = setup.source
    short = ext.SpectrumPartition(src.P, src.P1, src.P2,
                                  src.P3 & ~mask(src.P, ["x2"]), src.partner)
    with fails("new_fibers_over_P3"):
        ext.commuting_square(part, _with(setup, source=short))
