import pytest

from bruhatspec import bruhat as br
from bruhatspec import coxeter as cx
from bruhatspec import extension as ext
from bruhatspec import poset as ps

A2 = cx.builtin_matrix("A", 2)
A3 = cx.builtin_matrix("A", 3)


def chain2(lo="0", hi="x1"):
    return ps.build([lo, hi], [(lo, hi)])


def minimal_setup():
    """Ptilde = {p < q}, P = {p}, Px = {q}, PhiTilde constant p."""
    T = ps.build(["p", "q"], [("p", "q")])
    return ext.SetupData(Ptilde=T, P=frozenset(["p"]), Px=frozenset(["q"]),
                         phi={"p": "p", "q": "p"}, iota={"p": "p"})


def test_validate_setup_pass():
    assert ext.validate_setup(minimal_setup())["ok"]


def test_validate_setup_upper_set_fail():
    s = minimal_setup()
    s.P, s.Px = s.Px, s.P
    rep = ext.validate_setup(s)
    assert not rep["ok"] and "upper set" in rep["failed"]


def test_validate_setup_phi_above_fail():
    T = ps.build(["p", "q", "r"], [("p", "q"), ("p", "r")])
    s = ext.SetupData(Ptilde=T, P=frozenset(["p", "q"]), Px=frozenset(["r"]),
                      phi={"p": "p", "q": "q", "r": "q"}, iota={})
    rep = ext.validate_setup(s)
    assert not rep["ok"]


def _setup(relations, P, Px, phi):
    labels = sorted(set(P) | set(Px) | {x for r in relations for x in r})
    return ext.SetupData(Ptilde=ps.build(labels, relations),
                         P=frozenset(P), Px=frozenset(Px), phi=phi, iota={})


# One SetupData per clause of validate_setup, in the order it checks them,
# each breaking that clause and no clause checked before it, with the
# message it must give.  Most break only their own clause.  A failing
# "PhiTilde(p) <= p" always breaks the mixed or the idempotence clause as
# well (take the mixed clause at (PhiTilde(p), p)).  The injectivity clause
# never fails first: two x-primes over one prime would each lie below the
# other by the Px-isomorphism clause, which antisymmetry forbids, so its
# case is caught by that clause.
CLAUSE_MUTANTS = [
    (_setup([], {"t"}, {"t"}, {"t": "t"}),
     "P, Px must partition Ptilde"),
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


@pytest.mark.parametrize("setup, message", CLAUSE_MUTANTS)
def test_each_broken_setup_clause_gives_its_message(setup, message):
    assert ext.validate_setup(setup) == {"ok": False, "failed": message}


def test_derive_partners():
    P = ps.build(["0", "a", "b"], [("0", "a"), ("0", "b")])
    assert ext.derive_partners(P, {"a"}, {"0"}) == {"a": "0"}
    with pytest.raises(ext.ExtensionError):
        ext.derive_partners(P, {"a"}, set())      # no candidate
    D = ps.build(["0", "1", "a"], [("0", "a"), ("1", "a")])
    with pytest.raises(ext.ExtensionError):
        ext.derive_partners(D, {"a"}, {"0", "1"})  # ambiguous
    assert ext.derive_partners(D, {"a"}, {"0", "1"},
                               override={"a": "0"}) == {"a": "0"}


def sp_all_p3(P):
    return ext.SpectrumPartition(P, frozenset(), frozenset(),
                                 frozenset(P.labels), {})


def test_ore_step_delta0_gives_product():
    P = chain2()
    setup = ext.ore_step(sp_all_p3(P), lambda q: q + "+x")
    assert len(setup.Ptilde) == 4
    prod = ps.product(P, ps.two_chain())
    assert ps.find_isomorphism(setup.Ptilde, prod) is not None
    iota = setup.iota
    assert len(set(iota.values())) == len(P)
    assert all(setup.Ptilde.leq(iota[p], iota[q])
               for p in P.labels for q in P.labels if P.leq(p, q))
    assert ext.validate_setup(setup)["ok"]


def test_ore_step_unit_delta_weyl_base():
    # first quantized Weyl step: P3 empty, the x1-prime projects to 0
    P = chain2()
    sp = ext.SpectrumPartition(P, frozenset(["x1"]), frozenset(["0"]),
                               frozenset(), {"x1": "0"})
    setup = ext.ore_step(sp, {}, relabel={"x1": "Omega1"})
    assert len(setup.Ptilde) == 2
    assert sorted(setup.Ptilde.labels) == ["0", "Omega1"]
    assert setup.phi["Omega1"] == "0"   # projection through the partner
    assert ext.validate_setup(setup)["ok"]


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
    P3 = frozenset(lab(s) for s in subsets if s & {"x2", "x3"})
    sp = ext.SpectrumPartition(P, frozenset(["x1"]), frozenset(["0"]), P3,
                               {"x1": "0"})
    setup = ext.ore_step(sp, lambda q: q + ",x4", relabel={"x1": "Dq"})
    assert len(setup.Ptilde) == 14
    iv = br.interval(A3, (2, 1, 3, 2)).to_poset()
    assert ps.find_isomorphism(setup.Ptilde, iv) is not None


def test_ore_step_partner_missing():
    P = chain2()
    sp = ext.SpectrumPartition(P, frozenset(["x1"]), frozenset(["0"]),
                               frozenset(), {})
    with pytest.raises(ext.ExtensionError):
        ext.ore_step(sp, {})


def test_extend_iso_trivial():
    part = br.partition(A2, br.interval(A2, ()), 1)
    setup = ext.ore_step(sp_all_p3(ps.build(["0"], [])),
                         lambda q: "x1")
    nabla = ps.PosetMap(part.interval_wbar.to_poset(), ps.build(["0"], []),
                        {"e": "0"})
    nablat = ext.extend_iso(nabla, part, setup)
    assert nablat.is_isomorphism
    assert nablat("e") == "0" and nablat("1") == "x1"
    rep = ext.commuting_square(nabla, nablat, part, setup)
    assert rep["ok"]


def test_extend_iso_hypothesis_a_failure():
    # wrong block: pretend everything is already above delta(R)
    part = br.partition(A2, br.interval(A2, (1,)), 2)
    P = chain2()
    sp = ext.SpectrumPartition(P, frozenset(), frozenset(),
                               frozenset(P.labels), {})
    setup = ext.ore_step(sp, lambda q: q + "+x")
    # nabla maps W3 onto P, but swap labels so nabla(W3) != PhiTilde(Px)
    bad_setup = ext.SetupData(
        Ptilde=setup.Ptilde, P=setup.P, Px=setup.Px,
        phi=dict(setup.phi), iota={"0": "0", "x1": "x1"},
        source=sp)
    bad_setup.phi["x1+x"] = "0"   # now PhiTilde(Px) = {0} != nabla(W3)
    nabla = ps.PosetMap(part.interval_wbar.to_poset(), P,
                        {"e": "0", "1": "x1"})
    with pytest.raises(ext.ExtensionError, match="hypothesis \\(a\\)"):
        ext.extend_iso(nabla, part, bad_setup)


def test_extend_iso_left_step():
    # [1, 2*1] in A2 by left multiplication: W3 = [1, 1], W4 = 2*[1, 1]
    part = br.partition(A2, br.interval(A2, (1,)), 2, side="left")
    P = chain2()
    setup = ext.ore_step(sp_all_p3(P), lambda q: q + ",x2")
    nabla = ps.PosetMap(part.interval_wbar.to_poset(), P,
                        {"e": "0", "1": "x1"})
    nablat = ext.extend_iso(nabla, part, setup)
    assert nablat.is_isomorphism
    assert nablat("2") == "0,x2" and nablat("2.1") == "x1,x2"
    assert ext.commuting_square(nabla, nablat, part, setup)["ok"]
    bad = ext.SetupData(Ptilde=setup.Ptilde, P=setup.P, Px=setup.Px,
                        phi=dict(setup.phi), iota=setup.iota,
                        source=setup.source)
    bad.phi["x1,x2"] = "0"    # PhiTilde(Px) = {0} != nabla(W3)
    with pytest.raises(ext.ExtensionError, match="hypothesis \\(a\\)"):
        ext.extend_iso(nabla, part, bad)


def test_ore_step_ranks_new_primes():
    P = ps.build(["0", "x1"], [("0", "x1")], rank={0: 0, 1: 1})
    setup = ext.ore_step(sp_all_p3(P), lambda q: q + ",x2")
    T = setup.Ptilde
    assert {T.labels[i]: r for i, r in T.rank.items()} == \
        {"0": 0, "x1": 1, "0,x2": 1, "x1,x2": 2}
    assert ext.ore_step(sp_all_p3(chain2()), lambda q: q + "+").Ptilde.rank \
        is None


def test_ore_step_rejects_non_transitive_order():
    """p < p' and pi(p') = t <= q, but pi(p) = u is not below q: the cross
    relations p' <= q_x without p <= q_x are not an order."""
    P = ps.build(["z", "u", "t", "p", "p'", "q"],
                 [("z", "u"), ("z", "t"), ("u", "p"), ("p", "p'"),
                  ("t", "p'"), ("t", "q")])
    sp = ext.SpectrumPartition(P, frozenset(["p", "p'"]),
                               frozenset(["z", "u", "t"]), frozenset(["q"]),
                               {"p": "u", "p'": "t"})
    sp.validate()
    with pytest.raises(ps.PosetError, match="order not transitive"):
        ext.ore_step(sp, lambda q: q + "x")


def test_extend_iso_delta0_step():
    # quantum affine step n=2: extend the 2-chain across s2
    part = br.partition(A2, br.interval(A2, (1,)), 2)
    P = chain2()
    setup = ext.ore_step(sp_all_p3(P), lambda q: q + ",x2")
    nabla = ps.PosetMap(part.interval_wbar.to_poset(), P,
                        {"e": "0", "1": "x1"})
    nablat = ext.extend_iso(nabla, part, setup)
    assert nablat.is_isomorphism
    assert nablat("2") == "0,x2"
    rep = ext.commuting_square(nabla, nablat, part, setup)
    assert rep["ok"] and rep["at_most_2_1"] and rep["new_fibers_over_P3"]


def test_extend_iso_restriction_formula():
    part = br.partition(A2, br.interval(A2, (1,)), 2)
    P = chain2()
    setup = ext.ore_step(sp_all_p3(P), lambda q: q + ",x2")
    nabla = ps.PosetMap(part.interval_wbar.to_poset(), P,
                        {"e": "0", "1": "x1"})
    nablat = ext.extend_iso(nabla, part, setup)
    for w in part.interval_wbar.elements:
        assert nablat(br.word_label(w)) == setup.iota[nabla(br.word_label(w))]


def test_commuting_square_weyl_fiber_over_partner():
    """With P1 nonempty and P3 empty the contraction has a 2-element fiber
    over the partner, and no fibers containing new primes at all."""
    P = chain2()
    sp = ext.SpectrumPartition(P, frozenset(["x1"]), frozenset(["0"]),
                               frozenset(), {"x1": "0"})
    setup = ext.ore_step(sp, {}, relabel={"x1": "Omega1"})
    fibers = {}
    inv_iota = {v: k for k, v in setup.iota.items()}
    for t in setup.Ptilde.labels:
        fibers.setdefault(inv_iota[setup.phi[t]], set()).add(t)
    assert fibers == {"0": {"0", "Omega1"}}
