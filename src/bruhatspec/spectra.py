"""Declarative combinatorial spectrum models and iterated pipelines.

Primes are sets of normal-generator symbols; a step's skew derivation is
declared as monomial images of symbols.  Named normal elements (Dq, Omega_k)
may carry an expansion: a list of monomials whose joint membership in an
ideal stands in for membership of the named element itself.  run_pipeline
walks a schedule of variable adjunctions, at each step matching the prime
poset against a Bruhat interval and extending the isomorphism.
"""

import re
from importlib import resources

from . import bruhat as br
from . import coxeter as cx
from . import extension as ext
from . import poset as ps


class SpectraError(ValueError):
    pass


class SpectraInputError(SpectraError):
    """A pipeline names something that does not exist, or its letters do
    not form a reduced word: bad input, not a failed check."""


def parse_monomial(obj):
    """A list of symbol strings, or a {"unit", "factors"} object, read as
    the tuple of its symbols: a product, the empty one being the unit."""
    unit, factors = False, obj
    if isinstance(obj, dict) and set(obj) <= {"unit", "factors"}:
        unit, factors = obj.get("unit", False), obj.get("factors", [])
    if not isinstance(unit, bool) or not isinstance(factors, list) or \
            not all(isinstance(f, str) for f in factors):
        raise SpectraError("a monomial is a list of strings or a "
                           "{unit, factors} object, got %r" % (obj,))
    if unit and factors:
        raise SpectraError("unit monomial cannot have factors")
    return tuple(factors)


def parse_monomials(items):
    if not isinstance(items, list):
        raise SpectraError("expected a list of monomials, got %r" % (items,))
    return tuple(parse_monomial(x) for x in items)


def label_of(gens):
    return "0" if not gens else ",".join(sorted(gens))


def gens_of(label):
    """The generator set a prime's label names: label_of's inverse, which
    _check_symbol makes one-to-one."""
    return frozenset() if label == "0" else frozenset(label.split(","))


def _ideal_symbols(expansions):
    """gens -> the symbols in <gens>: the least set holding gens and every
    symbol whose declared expansion has a factor of each summand monomial
    in the set.  Per call a worklist runs: a symbol entering the set marks
    each summand it is a factor of, and an expansion whose summands are all
    marked enters in turn.  So the work is linear in the expansions, a
    chain of any depth is safe and a cycle adds nothing."""
    summands_of = {}        # symbol -> the (sym, i) summands it is a factor of
    for sym, exp in expansions.items():
        for i, m in enumerate(exp):
            for f in set(m):
                summands_of.setdefault(f, []).append((sym, i))
    empty = [sym for sym, exp in expansions.items() if not exp]

    def symbols(gens):
        inside, unmarked, todo = set(), {}, list(gens) + empty
        while todo:
            s = todo.pop()
            if s not in inside:
                inside.add(s)
                for sym, i in summands_of.get(s, ()):
                    rest = unmarked.setdefault(
                        sym, set(range(len(expansions[sym]))))
                    rest.discard(i)
                    if not rest:
                        todo.append(sym)
        return inside
    return symbols


def in_ideal(m, gens, expansions=None):
    """Monomial membership in the ideal generated by `gens`: some factor must
    lie in the ideal, so the unit (no factors) is in no proper ideal."""
    return not _ideal_symbols(expansions or {})(gens).isdisjoint(m)


def classify(P, delta, expansions=None, partner_override=None):
    """Split the primes of P, each named by label_of of its generators, into
    P3 (contain every delta image), P2 (delta-invariant), and P1 (the rest),
    as bitsets over P's positions.  The partner of a P1 prime is the P2
    prime it covers, unique unless an override (by label) names one; an
    override that is not such a prime is bad input (SpectraInputError).
    ore_step validates the split."""
    expansions = expansions or {}
    override = partner_override or {}
    all_images = [m for ms in delta.values() for m in ms]
    symbols = _ideal_symbols(expansions)
    P1 = P2 = P3 = 0
    for i, lab in enumerate(P.labels):
        g = gens_of(lab)
        inside = symbols(g)
        if all(not inside.isdisjoint(m) for m in all_images):
            P3 |= 1 << i
        elif all(not inside.isdisjoint(m)
                 for s in g for m in delta.get(s, ())):
            P2 |= 1 << i
        else:
            P1 |= 1 << i
    lab = P.labels
    below = {lab[p]: [] for p in ps._bits(P1)}  # the P2 primes each covers
    for a, b in P.hasse:
        if P1 >> b & 1 and P2 >> a & 1:
            below[lab[b]].append(lab[a])
    for p, q in sorted(override.items()):
        if p not in below:
            raise SpectraInputError("partner override key %r is not a P1 "
                                    "prime" % (p,))
        if q not in below[p]:
            raise SpectraInputError(
                "partner override %r -> %r: the value must be a P2 prime "
                "that the key covers" % (p, q))
    partner = {}
    for p in sorted(below):
        cands = [override[p]] if p in override else below[p]
        if len(cands) != 1:
            raise SpectraError(
                "partner of %r is ambiguous or missing (candidates %r)"
                % (p, sorted(cands)))
        partner[P.index(p)] = P.index(cands[0])
    return ext.SpectrumPartition(P, P1, P2, P3, partner)


class Step:
    """One variable of a schedule; gen None means no Bruhat letter."""

    def __init__(self, var, gen, side, delta, rewrite, expansions, partner):
        self.var, self.gen, self.side = var, gen, side
        self.delta, self.rewrite = delta, rewrite
        self.expansions, self.partner = expansions, partner


class PipelineSpec:
    def __init__(self, name, cox, steps, expect):
        self.name = name
        self.cox = cox          # cx.CoxeterMatrix
        self.steps = steps      # list of Step
        self.expect = expect


class PipelineResult:
    def __init__(self, name, word, final_poset, nabla, steps, order):
        self.name = name
        self.word = word
        self.final_poset = final_poset  # ps.LabeledPoset
        self.nabla = nabla              # ps.PosetMap onto final_poset
        self.steps = steps              # the step reports
        self.order = order  # positions in export order (see run_pipeline)


def _load_step(k, sd, cox):
    """Step k of a pipeline file, rejected before anything runs if bad."""
    if not isinstance(sd, dict):
        raise SpectraError("step %d: expected an object, got %r" % (k, sd))
    var = sd.get("var")
    if not isinstance(var, str):
        raise SpectraError("step %d: var must be a string, got %r" % (k, var))
    where = "step %d (%s)" % (k, var)
    _check_symbol(where, "var", var)
    gen = sd.get("gen")
    if gen is not None:
        if isinstance(gen, bool) or not isinstance(gen, int):
            raise SpectraError("%s: gen must be null or an integer, got %r"
                               % (where, gen))
        try:
            cox.check_word((gen,))
        except cx.CoxeterError as e:
            raise SpectraError("%s: %s" % (where, e)) from e
    side = sd.get("side", "right")
    if side not in ("left", "right"):
        raise SpectraError('%s: side must be "left" or "right", got %r'
                           % (where, side))
    maps = {}
    for key in ("delta", "rewrite", "expansions", "partner"):
        maps[key] = sd.get(key) or {}
        if not isinstance(maps[key], dict):
            raise SpectraError("%s: %s must be an object" % (where, key))
    for key in ("rewrite", "partner"):
        if not all(isinstance(x, str) for kv in maps[key].items() for x in kv):
            raise SpectraError("%s: %s must map strings to strings, got %r"
                               % (where, key, maps[key]))
    for sym in maps["rewrite"].values():
        _check_symbol(where, "rewrite value", sym)
    try:
        delta = {sym: parse_monomials(ms) for sym, ms in maps["delta"].items()}
        expansions = {sym: parse_monomials(ms)
                      for sym, ms in maps["expansions"].items()}
    except SpectraError as e:
        raise SpectraError("%s: %s" % (where, e)) from e
    return Step(var, gen, side, delta, dict(maps["rewrite"]), expansions,
                dict(maps["partner"]))


def _check_symbol(where, what, sym):
    """Prime labels join symbols with "," and call no symbols "0" (label_of),
    so a symbol that is empty, holds "," or is "0" could label two primes."""
    if not sym or "," in sym or sym == "0":
        raise SpectraError('%s: %s must be a non-empty symbol without "," '
                           'other than "0", got %r' % (where, what, sym))


def _load_expect(expect):
    """The expect block: at most a size (an integer) and a rank_profile (a
    list of integers); null means no expectations."""
    is_int = lambda x: isinstance(x, int) and not isinstance(x, bool)
    expect = {} if expect is None else expect
    prof = expect.get("rank_profile", []) if isinstance(expect, dict) else 0
    if not isinstance(expect, dict) or set(expect) - {"size", "rank_profile"} \
            or not is_int(expect.get("size", 0)) \
            or not isinstance(prof, list) or not all(map(is_int, prof)):
        raise SpectraError("expect must be an object with at most an integer "
                           "size and a list of integers rank_profile, got %r"
                           % (expect,))
    return dict(expect)


def load_pipeline(d, name=None):
    """A PipelineSpec from its JSON dict.  Every rule that depends only on
    the schedule is checked here, so run_pipeline meets only checks of the
    mathematics."""
    cm = d["coxeter"]
    cox = cx.matrix_by_name(cm) if isinstance(cm, str) \
        else cx.CoxeterMatrix.from_json_dict(cm)
    steps = [_load_step(k, sd, cox) for k, sd in enumerate(d["steps"], 1)]
    if not steps:
        raise SpectraError("empty schedule")
    letters = set()
    for k, st in enumerate(steps, 1):
        where = "step %d (%s): " % (k, st.var)
        if any(st.var == prev.var for prev in steps[:k - 1]):
            raise SpectraError(where + "var repeats an earlier step's")
        if k == 1 and (st.delta or st.gen is None):
            raise SpectraError(where + "first step must adjoin a polynomial "
                               "variable (delta = 0, with a Bruhat letter)")
        if st.gen is None:
            continue
        if st.side == "left" and st.gen in letters:
            raise SpectraError(where + "left step generator %d already "
                               "occurs in wbar" % st.gen)
        if st.side == "left" and st.delta:
            raise SpectraError(where + "left steps require delta = 0")
        letters.add(st.gen)
    return PipelineSpec(name=name or d.get("name", "pipeline"),
                        cox=cox, steps=steps,
                        expect=_load_expect(d.get("expect")))


def run_pipeline(spec):
    """Iterate the schedule; returns a PipelineResult or raises SpectraError
    at the first step whose hypotheses cannot be met.

    The interval [1, wbar] is built once, for the empty word, and each
    lettered step grows it by one letter.  P has its positions, so nabla is
    the identity, made a PosetMap once, for the result.  The export order
    is, step by step, the old copy (remapped if a search reindexed P), then
    the x-primes by the labels of their P3 primes."""
    cox = spec.cox
    word, iv, P = (), br.interval(cox, ()), ps.singleton("0")
    expans, reports, order = {}, [], (0,)
    for idx, st in enumerate(spec.steps):
        expans = dict(expans)
        expans.update(st.expansions)
        try:
            word, iv, s, rep = _step(cox, word, iv, P, expans, st)
        except (ext.ExtensionError, br.BruhatError, ps.PosetError,
                cx.CoxeterError, SpectraError) as e:
            err = SpectraInputError if isinstance(e, SpectraInputError) \
                else SpectraError
            raise err("pipeline %r, step %d (%s): %s"
                      % (spec.name, idx + 1, st.var, e)) from e
        Q = s.source.P          # P, or P reindexed by a search
        if Q is not P:
            order = tuple(Q.index(P.labels[p]) for p in order)
        order += tuple(sorted(range(len(Q), len(s.Ptilde)),
                              key=lambda x: Q.labels[s.phi[x]]))
        P = s.Ptilde
        reports.append({"step": idx + 1, "var": st.var, **rep})
    exp = spec.expect
    if "size" in exp and len(P) != exp["size"]:
        raise SpectraError("pipeline %r: expected %d elements, got %d"
                           % (spec.name, exp["size"], len(P)))
    if "rank_profile" in exp and \
            list(P.rank_profile()) != list(exp["rank_profile"]):
        raise SpectraError("pipeline %r: rank profile %r, expected %r"
                           % (spec.name, list(P.rank_profile()),
                              list(exp["rank_profile"])))
    nabla = ps.PosetMap(iv, P, dict(zip(iv.labels, P.labels)))
    return PipelineResult(spec.name, word, P, nabla, reports, order)


def _step(cox, word, iv, P, expans, st):
    """One Ore step from P, at the positions of the BruhatInterval iv =
    [1,wbar], to (word, iv, setup, report): the next word, interval,
    SetupData and report.  Every step classifies P and builds the next
    poset by ore_step.  A step with a letter a partitions [1, wbar*a] (or
    [1, a*wbar]); if W1,W2,W3 are not P1,P2,P3 it searches for a
    block-respecting isomorphism [1,wbar] -> P and reindexes P by it
    (setup.source.P).  extend_iso and commuting_square then check the step.
    A step without a letter compares the next poset's order with iv's.
    load_pipeline has checked that a left letter is outside supp(wbar),
    with delta = 0, so W3 = [1,wbar] and P3 = P.  A letter that is already
    a descent of wbar on its side is bad input (SpectraInputError), found
    here because it takes group arithmetic; so is a rewrite or var that
    gives two primes of the next poset one label, found here because the
    split decides which primes are renamed."""
    a = st.gen
    kind = "none" if a is None else st.side
    part = None
    if kind != "none":
        if br._DESCENT[kind](iv.base, a):
            raise SpectraInputError("wbar*a < wbar: wbar must not have a as "
                                    "%s descent" % kind)
        part = br.partition(cox, iv, a, kind)
    sp = classify(P, st.delta, expans, st.partner)
    if kind == "none" and sp.P3:
        raise SpectraError("a step without a Bruhat letter requires P3 = {}")
    if part and (part.W1, part.W2, part.W3) != (sp.P1, sp.P2, sp.P3):
        blocks = [(part.W1, sp.P1), (part.W2, sp.P2), (part.W3, sp.P3)]
        names = lambda Q, S: sorted(Q.labels[i] for i in ps._bits(S))
        found = ps.find_isomorphism(
            iv, P, [(names(iv, w), names(P, q)) for w, q in blocks])
        if found is None:
            raise SpectraError(
                "no block-respecting isomorphism [1,wbar] -> P "
                "(|W1,W2,W3| = %d,%d,%d vs |P1,P2,P3| = %d,%d,%d)"
                % tuple(b.bit_count() for bs in zip(*blocks) for b in bs))
        P = ps.reindexed(P, [P.index(found(l)) for l in iv.labels])
        sp = classify(P, st.delta, expans, st.partner)
    gens = lambda i: gens_of(P.labels[i])
    new_label = {q: label_of(gens(q) | {st.var}) for q in ps._bits(sp.P3)}
    relabel = {p: label_of({st.rewrite.get(s, s) for s in gens(p)})
               for p in ps._bits(sp.P1)}
    labels = [relabel.get(i, l) for i, l in enumerate(P.labels)]
    labels += new_label.values()
    if len(set(labels)) < len(labels):
        dup = next(l for k, l in enumerate(labels) if l in labels[:k])
        raise SpectraInputError("the rewrite or var gives two primes the "
                                "label %r" % (dup,))
    setup = ext.ore_step(sp, new_label, relabel,
                         part.interval_wbara if part else iv)
    rep = {"kind": kind, "gen": a,
           "sizes": {"P": len(P), "P1": sp.P1.bit_count(),
                     "P2": sp.P2.bit_count(), "P3": sp.P3.bit_count(),
                     "new": len(setup.Ptilde)}}
    if part is None:
        if setup.Ptilde.down != iv.down:
            raise SpectraError("none-step extension is not an isomorphism")
    else:
        word = word + (a,) if kind == "right" else (a,) + word
        ext.extend_iso(part, setup)
        ext.commuting_square(part, setup)
        iv = part.interval_wbara
    return word, iv, setup, rep


# ---------------------------------------------------------------------------
# shipped pipelines

def _qaffine(n):
    if not 1 <= n <= 5:
        raise SpectraError("qaffine(n) supported for 1 <= n <= 5")
    return {"name": "qaffine%d" % n, "coxeter": "A%d" % n,
            "steps": [{"var": "x%d" % k, "gen": k} for k in range(1, n + 1)],
            "expect": {"size": 2 ** n}}


def _weyl(n):
    if not 1 <= n <= 4:
        raise SpectraError("weyl(n) supported for 1 <= n <= 4")
    steps = [{"var": "x1", "gen": 1},
             {"var": "y1", "gen": None,
              "delta": {"x1": [[]]},
              "rewrite": {"x1": "Omega1"},
              "expansions": {"Omega1": [[], ["y1", "x1"]]}}]
    for k in range(2, n + 1):
        om, om_prev = "Omega%d" % k, "Omega%d" % (k - 1)
        xk, yk = "x%d" % k, "y%d" % k
        steps.append({"var": xk, "gen": k, "side": "left"})
        steps.append({"var": yk, "gen": k,
                      "delta": {xk: [[om_prev]]},
                      "rewrite": {xk: om},
                      "expansions": {om: [[om_prev], [yk, xk]]}})
    expect = {1: {"size": 2}, 2: {"size": 6},
              3: {"size": 20, "rank_profile": [1, 3, 5, 6, 4, 1]},
              4: {"size": 68,
                  "rank_profile": [1, 4, 9, 15, 18, 14, 6, 1]}}[n]
    return {"name": "weyl%d" % n, "coxeter": "A%d" % n,
            "steps": steps, "expect": expect}


def _horton(n):
    # the fork diagram needs >= 4 nodes, so the smallest shipped case is n=3
    if not 3 <= n <= 4:
        raise SpectraError("horton(n) supported for 3 <= n <= 4")
    steps = [{"var": "x1", "gen": 2},
             {"var": "y1", "gen": 1}]
    for k in range(2, n + 1):
        om, om_prev = "Omega%d" % k, "Omega%d" % (k - 1)
        xk, yk = "x%d" % k, "y%d" % k
        exp = {om: [[om_prev], [yk, xk]]}
        if k == 2:
            exp["Omega1"] = [["y1", "x1"]]
        steps.append({"var": xk, "gen": k + 1, "side": "left"})
        steps.append({"var": yk, "gen": k + 1,
                      "delta": {xk: [[om_prev]]},
                      "rewrite": {xk: om},
                      "expansions": exp})
    expect = {3: {"size": 48,
                  "rank_profile": [1, 4, 9, 14, 13, 6, 1]},
              4: {"size": 164,
                  "rank_profile": [1, 5, 14, 28, 41, 41, 25, 8, 1]}}[n]
    return {"name": "horton%d" % n, "coxeter": "D%d" % (n + 1),
            "steps": steps, "expect": expect}


_GENERATED = {"qaffine": _qaffine, "weyl": _weyl, "horton": _horton}
_DATA_FILES = ("qmatrix2", "m2-ext-A3", "m2-ext-affineA2")


def _normalize_name(name):
    return name.strip().replace("(", "").replace(")", "")


def builtin(name):
    """Shipped pipeline by name: qaffine(n), weyl(n), horton(n), qmatrix2,
    m2-ext-A3, m2-ext-affineA2."""
    name = _normalize_name(name)
    if name in _DATA_FILES:
        import json
        text = resources.files(__package__).joinpath(
            "data", name + ".json").read_text()
        return load_pipeline(json.loads(text), name=name)
    m = re.fullmatch(r"(qaffine|weyl|horton)(\d+)", name)
    if m:
        return load_pipeline(_GENERATED[m.group(1)](int(m.group(2))),
                             name=name)
    raise SpectraError("unknown builtin pipeline %r" % (name,))


def height(P):
    """Length of the longest chain of a graded poset (= top rank)."""
    if P.rank is None:
        raise SpectraError("height requires a graded poset")
    return len(P.rank_profile()) - 1
