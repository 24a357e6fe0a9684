import itertools
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from bruhatspec import bruhat as br
from bruhatspec import cli
from bruhatspec import coxeter as cx
from bruhatspec import extension as ext
from bruhatspec import poset as ps
from bruhatspec import spectra as sp

import oracle
import reference

A3 = cx.builtin_matrix("A", 3)


def mon(*factors):
    return tuple(factors)


def test_monomial_unit_invariant():
    """The unit is the empty product; a unit object with factors is
    rejected where it is parsed."""
    with pytest.raises(sp.SpectraError,
                       match="^unit monomial cannot have factors$"):
        sp.parse_monomial({"unit": True, "factors": ["x"]})
    assert sp.parse_monomial([]) == sp.parse_monomial({"unit": True}) \
        == () == mon()


def test_parse_monomial_forms():
    assert sp.parse_monomial(["y1", "x1"]) == mon("y1", "x1")
    assert sp.parse_monomial({"unit": True, "factors": []}) == ()


def test_in_ideal_basics():
    assert sp.in_ideal(mon("x2", "x3"), {"x2"})
    assert not sp.in_ideal((), {"x1", "x2"})
    assert not sp.in_ideal(mon("x2", "x3"), {"x1"})


def test_in_ideal_expansions():
    exp = {"Omega1": ((), mon("y1", "x1"))}
    # the unit summand keeps Omega1 out of every ideal not listing it
    assert not sp.in_ideal(mon("Omega1"), {"y1", "x1"}, exp)
    assert sp.in_ideal(mon("Omega1"), {"Omega1"}, exp)
    horton = {"Omega1": (mon("y1", "x1"),)}
    assert sp.in_ideal(mon("Omega1"), {"y1"}, horton)
    assert sp.in_ideal(mon("Omega1"), {"x1"}, horton)
    assert not sp.in_ideal(mon("Omega1"), {"x2"}, horton)


def test_in_ideal_nested_expansions():
    exp = {"Omega1": (mon("y1", "x1"),),
           "Omega2": (mon("Omega1"), mon("y2", "x2"))}
    assert sp.in_ideal(mon("Omega2"), {"y1", "y2"}, exp)
    assert not sp.in_ideal(mon("Omega2"), {"y1"}, exp)
    assert sp.in_ideal(mon("Omega2"), {"Omega2"}, exp)


def test_in_ideal_cyclic_expansion_terminates():
    exp = {"a": (mon("a"),)}
    assert not sp.in_ideal(mon("a"), {"b"}, exp)


SYMBOLS = ["x1", "x2", "y1", "A", "B", "C", "D"]
monomials = st.lists(st.lists(st.sampled_from(SYMBOLS), max_size=3)
                     .map(tuple), max_size=3).map(tuple)


@given(st.lists(st.sampled_from(SYMBOLS), max_size=3).map(tuple),
       st.sets(st.sampled_from(SYMBOLS), max_size=3),
       st.dictionaries(st.sampled_from(SYMBOLS), monomials, max_size=5))
@settings(max_examples=300, deadline=None)
def test_in_ideal_matches_the_recursive_reference(m, gens, expansions):
    """The iterative closure agrees with the recursive definition, whose
    cycles (A -> B -> A, or A -> A) count as outside the ideal."""
    assert sp.in_ideal(m, gens, expansions) == \
        reference.in_ideal(m, gens, expansions)


def test_in_ideal_cyclic_and_deep_expansions():
    cyc = {"A": (mon("B"),), "B": (mon("A"), mon("x1")),
           "C": (mon("A", "x1"),)}
    for gens, inside in (({"x1"}, {"C"}), ({"A"}, {"A", "C"}),
                         ({"B"}, {"A", "B", "C"}), ((), set())):
        for sym in "ABC":
            assert sp.in_ideal(mon(sym), gens, cyc) == (sym in inside)
            assert reference.in_ideal(mon(sym), gens, cyc) == (sym in inside)
    # chains listed root-first, so a symbol enters only after every symbol
    # listed after it
    for depth in (400, 2000):
        deep = {"E%d" % k: (mon("E%d" % (k + 1)),) for k in range(depth)}
        deep["E%d" % depth] = (mon("x1"),)
        assert sp.in_ideal(mon("E0"), {"x1"}, deep)
        assert not sp.in_ideal(mon("E0"), {"x2"}, deep)


@given(st.sets(st.sampled_from(["x1", "x2", "x3", "y1"])),
       st.sets(st.sampled_from(["x1", "x2", "x3", "y1"])))
@settings(max_examples=50, deadline=None)
def test_in_ideal_monotone(small, extra):
    m = mon("x1", "y1")
    if sp.in_ideal(m, small):
        assert sp.in_ideal(m, small | extra)


def cube_model():
    """Boolean lattice on x1,x2,x3, each prime labelled by its generator
    set."""
    subsets = [frozenset(c) for k in range(4)
               for c in itertools.combinations(["x1", "x2", "x3"], k)]
    labels = [sp.label_of(s) for s in subsets]
    rels = [(sp.label_of(s), sp.label_of(t))
            for s in subsets for t in subsets if s < t]
    return ps.build(labels, rels)


def names(P, S):
    """The labels of the bitset S over P's positions."""
    return {P.labels[i] for i in ps._bits(S)}


def test_gens_of_inverts_label_of():
    for g in (frozenset(), frozenset(["x1"]), frozenset(["Dq", "x2", "y1"])):
        assert sp.gens_of(sp.label_of(g)) == g


def test_classify_qmatrices():
    P = cube_model()
    part = sp.classify(P, {"x1": (mon("x2", "x3"),)})
    assert names(P, part.P1) == {"x1"}
    assert names(P, part.P2) == {"0"}
    assert part.P3.bit_count() == 6
    assert part.partner == {P.index("x1"): P.index("0")}


def test_classify_delta_zero():
    part = sp.classify(cube_model(), {})
    assert not part.P1 and not part.P2 and part.P3.bit_count() == 8


def test_classify_weyl_unit():
    P = ps.build(["0", "x1"], [("0", "x1")])
    part = sp.classify(P, {"x1": ((),)})
    assert names(P, part.P3) == set()
    assert names(P, part.P2) == {"0"}
    assert names(P, part.P1) == {"x1"}


def test_builtin_names_and_errors():
    assert sp.builtin("qaffine(3)").name == "qaffine3"
    with pytest.raises(sp.SpectraError):
        sp.builtin("nonsense")
    with pytest.raises(sp.SpectraError):
        sp.builtin("horton2")     # fork diagram needs >= 4 nodes
    with pytest.raises(sp.SpectraError):
        sp.builtin("qaffine9")


def test_run_pipeline_qaffine2():
    res = sp.run_pipeline(sp.builtin("qaffine2"))
    assert res.word == (1, 2)
    assert sorted(res.final_poset.labels) == ["0", "x1", "x1,x2", "x2"]
    assert res.final_poset.rank_profile() == (1, 2, 1)
    assert res.nabla.is_isomorphism


def test_run_pipeline_weyl2_labels():
    res = sp.run_pipeline(sp.builtin("weyl2"))
    assert len(res.final_poset) == 6
    assert res.nabla("2") == "Omega2"
    assert res.nabla("1") == "Omega1"
    assert "Omega1,y2" in res.final_poset.labels


def test_run_pipeline_qmatrix2_labels():
    res = sp.run_pipeline(sp.builtin("qmatrix2"))
    expect = {"0", "Dq", "x2", "x3", "x1,x2", "x1,x3", "x2,x3", "x1,x2,x3",
              "x2,x4", "x3,x4", "x2,x3,x4", "x1,x2,x4", "x1,x3,x4",
              "x1,x2,x3,x4"}
    assert set(res.final_poset.labels) == expect
    assert sp.height(res.final_poset) == 4


def test_height():
    res = sp.run_pipeline(sp.builtin("qaffine3"))
    assert sp.height(res.final_poset) == 3
    with pytest.raises(sp.SpectraError):
        sp.height(ps.build(["a"], []))   # no rank


def test_step_reports_shape():
    res = sp.run_pipeline(sp.builtin("weyl2"))
    kinds = [r["kind"] for r in res.steps]
    assert kinds == ["right", "none", "left", "right"]
    for r in res.steps:
        assert r["sizes"]["new"] == r["sizes"]["P"] + r["sizes"]["P3"]


@pytest.mark.parametrize("name", ["qmatrix2", "weyl3"])
def test_step_report_keys_and_final_poset(name):
    """A step reports only what varies from step to step, and the final
    poset is the target of the final nabla."""
    res = sp.run_pipeline(sp.builtin(name))
    for r in res.steps:
        assert set(r) == {"step", "var", "kind", "gen", "sizes"}
    assert res.final_poset is res.nabla.target


def test_pipeline_builds_one_interval_and_grows_it(monkeypatch):
    """Each lettered step grows the previous step's [1, wbar] by one letter,
    so a run builds an interval from a word only once, for ()."""
    calls, interval = [], br.interval
    monkeypatch.setattr(br, "interval",
                        lambda m, word: calls.append(word) or interval(m, word))
    res = sp.run_pipeline(sp.builtin("horton4"))
    assert calls == [()]
    assert len(res.final_poset) == 164


def test_pipeline_interval_is_nablas_source():
    """The interval a run grows is a BruhatInterval, the source of the final
    nabla, and its own poset."""
    res = sp.run_pipeline(sp.builtin("horton4"))
    iv = res.nabla.source
    assert isinstance(iv, br.BruhatInterval)
    assert iv.base == cx.element_from_word(cx.builtin_matrix("D", 5), res.word)
    assert iv.to_poset() is iv


def test_pipeline_from_file(tmp_path):
    d = {"coxeter": "A2",
         "steps": [{"var": "x1", "gen": 1}, {"var": "x2", "gen": 2}],
         "expect": {"size": 4}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(d))
    res = sp.run_pipeline(sp.load_pipeline(json.loads(path.read_text())))
    assert len(res.final_poset) == 4


def test_pipeline_expect_mismatch():
    d = {"coxeter": "A2",
         "steps": [{"var": "x1", "gen": 1}],
         "expect": {"size": 3}}
    with pytest.raises(sp.SpectraError, match="expected 3"):
        sp.run_pipeline(sp.load_pipeline(d))


def test_pipeline_rank_profile_mismatch():
    d = {"coxeter": "A2",
         "steps": [{"var": "x1", "gen": 1}, {"var": "x2", "gen": 2}],
         "expect": {"size": 4, "rank_profile": [1, 1, 2]}}
    with pytest.raises(sp.SpectraError, match=re.escape(
            "pipeline 'pipeline': rank profile [1, 2, 1], expected "
            "[1, 1, 2]")):
        sp.run_pipeline(sp.load_pipeline(d))


def test_failed_commuting_square_stops_the_step(monkeypatch):
    """extend_iso's hypotheses imply the square, so no schedule makes it
    fail; a square that fails must still stop the run."""
    def fails(*args):
        raise ext.ExtensionError("commuting square fails: square_commutes")
    monkeypatch.setattr(ext, "commuting_square", fails)
    with pytest.raises(sp.SpectraError) as e:
        sp.run_pipeline(sp.builtin("qaffine1"))
    assert type(e.value) is sp.SpectraError
    assert str(e.value) == ("pipeline 'qaffine1', step 1 (x1): commuting "
                            "square fails: square_commutes")


def test_pipeline_failure_names_step():
    # a unit-valued delta forces P1 nonempty, so a plain right step must fail
    d = {"coxeter": "A2",
         "steps": [{"var": "x1", "gen": 1},
                   {"var": "x2", "gen": 2,
                    "delta": {"x1": [{"unit": True}]}}]}
    with pytest.raises(sp.SpectraError, match="step 2 \\(x2\\)"):
        sp.run_pipeline(sp.load_pipeline(d))


def test_first_step_must_be_polynomial():
    d = {"coxeter": "A2",
         "steps": [{"var": "x1", "gen": 1,
                    "delta": {"x1": [["x1"]]}}]}
    with pytest.raises(sp.SpectraError):
        sp.run_pipeline(sp.load_pipeline(d))


def test_delta0_schedule_gives_boolean_lattice():
    # independent of the builtin: any all-delta-0 schedule is a cube
    d = {"coxeter": "A3",
         "steps": [{"var": "a", "gen": 2}, {"var": "b", "gen": 1},
                   {"var": "c", "gen": 3}]}
    res = sp.run_pipeline(sp.load_pipeline(d))
    cube = ps.singleton("*")
    for _ in range(3):
        cube = ps.product(cube, ps.two_chain())
    assert ps.find_isomorphism(res.final_poset, cube) is not None


def test_final_poset_matches_interval():
    res = sp.run_pipeline(sp.builtin("m2-ext-A3"))
    iv = br.interval(A3, res.word).to_poset()
    f = ps.find_isomorphism(res.final_poset, iv)
    assert f is not None and f.is_isomorphism


@pytest.mark.parametrize("steps, message", [
    ([{"var": "x1", "gen": 1}, {"var": "x2", "gen": 1, "side": "left"}],
     "step 2 \\(x2\\): left step generator 1 already occurs in wbar"),
    ([{"var": "x1", "gen": 1},
      {"var": "x2", "gen": 2, "side": "left", "delta": {"x1": [["x1"]]}}],
     "step 2 \\(x2\\): left steps require delta = 0"),
    ([{"var": "x1", "gen": 1}, {"var": "y1", "gen": None}],
     "step 2 \\(y1\\): a step without a Bruhat letter requires P3 = \\{\\}"),
])
def test_step_guards(steps, message):
    """The left-step rules are checked as the schedule loads, the P3 rule
    of a step without a letter as it runs."""
    with pytest.raises(sp.SpectraError, match=message):
        sp.run_pipeline(sp.load_pipeline({"coxeter": "A2", "steps": steps}))


def schedule_word(spec):
    """The word a schedule builds: right steps append, left steps prepend."""
    word = ()
    for st in spec.steps:
        if st.gen is not None:
            word = (st.gen,) + word if st.side == "left" else word + (st.gen,)
    return word


def s_n(n):
    return lambda w: oracle.perm_of_word(n, w)


def d_n(n):
    return lambda w: oracle.d_of_word(n, w)


def affine_n(n):
    return lambda w: oracle.affine_of_word(n, w)


@pytest.mark.parametrize("name, word, of_word, length", [
    ("weyl3", (3, 2, 1, 2, 3), s_n(4), oracle.inversions),
    ("weyl4", (4, 3, 2, 1, 2, 3, 4), s_n(5), oracle.inversions),
    ("horton3", (4, 3, 2, 1, 3, 4), d_n(4), oracle.d_length),
    ("horton4", (5, 4, 3, 2, 1, 3, 4, 5), d_n(5), oracle.d_length),
    ("m2-ext-affineA2", (3, 2, 1, 3, 2), affine_n(3), oracle.affine_length),
])
def test_expect_matches_oracle(name, word, of_word, length):
    """The frozen expect block equals [e, w] in an independent model, for
    the word the schedule builds; the pipeline itself is not run."""
    spec = sp.builtin(name)
    assert schedule_word(spec) == word
    assert length(of_word(word)) == len(word)
    prof = oracle.interval_profile(word, of_word, length)
    assert spec.expect == {"size": sum(prof), "rank_profile": prof}


@pytest.mark.parametrize("word", [(1, 3, 2), (2, 3, 4, 1, 3), (3, 1, 2, 3, 4)])
def test_d_oracle_matches_package(word):
    D5 = cx.builtin_matrix("D", 5)
    iv = br.interval(D5, word)
    prof = oracle.interval_profile(word, d_n(5), oracle.d_length)
    assert list(iv.rank_profile()) == prof


# every shipped pipeline, with its group in an independent model
BUILTINS = {**{"qaffine%d" % n: s_n(n + 1) for n in range(1, 6)},
            **{"weyl%d" % n: s_n(n + 1) for n in range(1, 5)},
            "horton3": d_n(4), "horton4": d_n(5),
            "qmatrix2": s_n(4), "m2-ext-A3": s_n(4),
            "m2-ext-affineA2": affine_n(3)}


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_final_interval_words_are_the_greedy_words(name):
    """Every word of a builtin's final interval, read off the element its
    letter step recorded below, equals the greedy word."""
    P = sp.run_pipeline(sp.builtin(name)).nabla.source
    for w in P.elements:
        assert w.word == cx._canonical_word(w.cox, w.matrix, w.matrix_inv,
                                            None), name


def test_builtins_keep_the_nabla_they_carry(monkeypatch):
    """At every step of every builtin W1, W2, W3 are P1, P2, P3 on the
    shared positions, so nabla is the identity and no step searches."""
    def search(*args):
        raise AssertionError("a step searched for nabla")
    monkeypatch.setattr(sp.ps, "find_isomorphism", search)
    for name in BUILTINS:
        sp.run_pipeline(sp.builtin(name))


RESCUE = {"coxeter": "affineA2", "steps": [
    {"var": "x1", "gen": 1},
    {"var": "x2", "gen": 3, "side": "left"},
    {"var": "x3", "gen": 3, "side": "right", "delta": {"x1": [["x2"]]}}]}
RESCUE_THEN_STEP = {**RESCUE,
                    "steps": RESCUE["steps"] + [{"var": "x4", "gen": 2}]}


def run_counting_searches(schedule, monkeypatch, capsys, tmp_path):
    """`pipeline --file` on schedule; returns its last output line and the
    var of each step that searched for an isomorphism."""
    steps, searched = [], []
    step, search = sp._step, ps.find_isomorphism
    monkeypatch.setattr(sp, "_step",
                        lambda *a: steps.append(a[-1].var) or step(*a))
    monkeypatch.setattr(sp.ps, "find_isomorphism",
                        lambda *a: searched.append(steps[-1]) or search(*a))
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(schedule))
    assert cli.main(["pipeline", "--file", str(path)]) == 0
    return capsys.readouterr().out.splitlines()[-1], searched


def test_search_rescues_a_step_whose_carried_nabla_breaks_a_block(
        monkeypatch, capsys, tmp_path):
    """At step 3 the identity on positions breaks a block; the search finds
    an isomorphism that does not, and the run goes through."""
    last, searched = run_counting_searches(RESCUE, monkeypatch, capsys,
                                           tmp_path)
    assert last == "final: 6 elements, ranks 1,2,2,1, word 3.1.3"
    assert searched == ["x3"]


def test_a_step_after_a_search_runs_on_the_reindexed_poset(
        monkeypatch, capsys, tmp_path):
    """RESCUE, then a right step by 2.  The search at x3 reindexes P, so
    its positions are the interval's again and step 4 does not search.
    The final rank profile is [e, 3.1.3.2]'s in an independent model."""
    last, searched = run_counting_searches(RESCUE_THEN_STEP, monkeypatch,
                                           capsys, tmp_path)
    assert last == "final: 12 elements, ranks 1,3,4,3,1, word 3.1.3.2"
    assert searched == ["x3"]
    prof = oracle.interval_profile((3, 1, 3, 2), affine_n(3),
                                   oracle.affine_length)
    assert " ranks %s, " % ",".join(map(str, prof)) in last


@pytest.mark.parametrize("schedule", [RESCUE, RESCUE_THEN_STEP],
                         ids=["rescue", "rescue-then-step"])
def test_an_export_after_a_search_lists_the_primes_step_by_step(
        schedule, capsys, tmp_path):
    """`pipeline --format json` ids follow the steps: the primes a step
    adds come after the older ones, by the labels of the primes below
    them.  The search at x3 reindexes P, and the order goes with it.  No
    step rewrites a label, so a prime is born at the last step whose var
    it holds, over the prime named by its other vars."""
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(schedule))
    assert cli.main(["pipeline", "--file", str(path), "--format", "json"]) \
        == 0
    out = capsys.readouterr().out
    elements = json.loads(out[out.index("{"):])["elements"]
    labels = [e["label"] for e in sorted(elements, key=lambda e: e["id"])]
    step_of = {st["var"]: k for k, st in enumerate(schedule["steps"], 1)}

    def born(label):
        gens = sp.gens_of(label)
        k = max(map(step_of.get, gens), default=0)
        return k, sp.label_of({g for g in gens if step_of[g] != k})
    assert len(set(map(born, labels))) == len(labels)
    assert labels == sorted(labels, key=born)


def run_recording_setups(spec, monkeypatch):
    """Run spec; returns the result and the SetupData of every step."""
    setups, ore_step = [], ext.ore_step
    monkeypatch.setattr(ext, "ore_step",
                        lambda *a: setups.append(ore_step(*a)) or setups[-1])
    res = sp.run_pipeline(spec)
    assert len(setups) == len(spec.steps)
    return res, setups


def prime_lineage(spec, monkeypatch):
    """Run spec and label each final prime J with D(J), the steps at which
    J's ancestors were new x-primes: an old prime keeps its position and
    its D across a step, and the x-prime over q gets D(q) | {k}.  Steps
    count from 1, letterless ones included."""
    res, setups = run_recording_setups(spec, monkeypatch)
    D = [frozenset()]           # by position
    for k, s in enumerate(setups, 1):
        D += [D[s.phi[x]] | {k} for x in range(len(D), len(s.Ptilde))]
    return res, dict(zip(res.final_poset.labels, D))


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_old_copy_keeps_the_positions_of_P(name, monkeypatch):
    """At every step, Ptilde's first |P| positions carry P's order and
    ranks, P1 primes under their rewritten names and the rest under P's,
    and PhiTilde sends each of them to its partner or to itself."""
    spec = sp.builtin(name)
    res, setups = run_recording_setups(spec, monkeypatch)
    for s, st in zip(setups, spec.steps):
        P, T, src = s.source.P, s.Ptilde, s.source
        n = len(P)
        assert [u & (1 << n) - 1 for u in T.up[:n]] == list(P.up)
        assert T.rank[:n] == P.rank
        for i, lab in enumerate(P.labels):
            rewritten = {st.rewrite.get(g, g) for g in sp.gens_of(lab)}
            assert T.labels[i] == (sp.label_of(rewritten)
                                   if src.P1 >> i & 1 else lab)
            assert s.phi[i] == src.partner.get(i, i)
    assert setups[-1].Ptilde is res.final_poset


def group_lineage(spec, of_word):
    """The word spec builds and D on [1, w] from subword products alone: v
    first lies in the interval of step k, and D(v) = {k} | D(v a_k), or
    D(a_k v) on a left step."""
    word, D = (), {of_word(()): frozenset()}
    for k, step in enumerate(spec.steps, 1):
        a = step.gen
        if a is None:
            continue
        left = step.side == "left"
        word = (a,) + word if left else word + (a,)
        for mask in range(1 << len(word)):
            sub = tuple(x for i, x in enumerate(word) if mask >> i & 1)
            v = of_word(sub)
            if v not in D:
                D[v] = D[of_word((a,) + sub if left else sub + (a,))] | {k}
    return word, D


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_nabla_keeps_the_lineage(name, monkeypatch):
    """D(nabla(v)) = D(v) for every v in [1, w].  D is injective on the
    group side, so this pins the final nabla, not only its target."""
    spec, of_word = sp.builtin(name), BUILTINS[name]
    res, D_prime = prime_lineage(spec, monkeypatch)
    word, D_group = group_lineage(spec, of_word)
    assert res.word == word
    elem = {l: of_word(tuple(map(int, l.split("."))) if l != "e" else ())
            for l in res.nabla.source.labels}
    assert set(elem.values()) == set(D_group)
    assert len(set(D_group.values())) == len(D_group)
    bad = [l for l, v in elem.items() if D_prime[res.nabla(l)] != D_group[v]]
    assert not bad, "%d of %d elements" % (len(bad), len(elem))


@pytest.mark.parametrize("name", ["weyl0", "weyl5"])
def test_weyl_cap(name):
    with pytest.raises(sp.SpectraError, match=re.escape(
            "weyl(n) supported for 1 <= n <= 4")):
        sp.builtin(name)


@pytest.mark.parametrize("name, step", [
    ("horton3", "step 4 (y2)"), ("weyl3", "step 5 (x3)"),
    ("qmatrix2", "step 4 (x4)")])
def test_a_wrong_interval_is_not_hidden_by_the_shared_order(
        name, step, monkeypatch):
    """A letter step that drops the highest lower cover from the last
    down-set it makes, at its 4th call, still makes a graded order (each
    Bruhat interval of length 2 is a diamond), so the interval passes its
    own check.  Ptilde, read off the primes, then has other up-sets: it
    takes the interval's order only when they are equal, so it checks its
    own, and the extended map is found not to be an isomorphism."""
    calls, letter_step = [], br._letter_step

    def dropping(base, elems, position, down, s, side):
        out = letter_step(base, elems, position, down, s, side)
        calls.append(s)
        if len(calls) == 4:
            top = len(down) - 1
            below = down[top] & ~(1 << top)
            covers = [j for j in ps._bits(below) if not any(
                down[k] >> j & 1 for k in ps._bits(below & ~(1 << j)))]
            down[top] &= ~(1 << max(covers))
        return out
    monkeypatch.setattr(br, "_letter_step", dropping)
    with pytest.raises(sp.SpectraError, match="^%s$" % re.escape(
            "pipeline %r, %s: extended map is not an isomorphism"
            % (name, step))):
        sp.run_pipeline(sp.builtin(name))


def test_a_none_step_checks_its_poset_against_the_interval(monkeypatch):
    """With P3 empty ore_step copies P's up-sets as they are, so the
    isomorphism check of a step without a letter cannot fail on its own;
    an ore_step that returns the right labels with no order must stop the
    run there."""
    ore_step = ext.ore_step

    def orderless(sp_, *args):
        s = ore_step(sp_, *args)
        if sp_.P3:
            return s
        T = s.Ptilde
        flat = ps.LabeledPoset(T.labels, [1 << i for i in range(len(T))])
        return ext.SetupData(Ptilde=flat, phi=s.phi, source=s.source)
    monkeypatch.setattr(ext, "ore_step", orderless)
    with pytest.raises(sp.SpectraError, match="^%s$" % re.escape(
            "pipeline 'weyl2', step 2 (y1): none-step extension is not an "
            "isomorphism")):
        sp.run_pipeline(sp.builtin("weyl2"))
