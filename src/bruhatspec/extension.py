"""The isomorphism-extension engine.

Given a poset P of "primes" split into blocks P1/P2/P3 by a declared skew
derivation, ore_step builds the next poset Ptilde (old copy of P plus new
x-primes over P3) together with the projection PhiTilde.  extend_iso then
extends an isomorphism nabla: [1,wbar] -> P across a Bruhat partition to
nablatilde: [1,wbar*a] -> Ptilde, and commuting_square verifies the
contraction diagram PsiTilde . nablatilde = nabla . Phi.
"""

from dataclasses import dataclass

from . import bruhat as br
from . import coxeter as cx
from . import poset as ps


class ExtensionError(ValueError):
    pass


@dataclass
class SpectrumPartition:
    """P split into non-delta-invariant (P1), delta-invariant (P2), and
    delta(R)-containing (P3) primes, with the P2-partner of each P1 prime."""

    P: ps.LabeledPoset
    P1: frozenset
    P2: frozenset
    P3: frozenset
    partner: dict

    def validate(self):
        blocks = [self.P1, self.P2, self.P3]
        all_labels = set(self.P.labels)
        if set().union(*blocks) != all_labels:
            raise ExtensionError("P1|P2|P3 does not cover P")
        if sum(map(len, blocks)) != len(all_labels):
            raise ExtensionError("P1/P2/P3 not disjoint")
        covers = {(self.P.labels[a], self.P.labels[b]) for a, b in self.P.hasse}
        for p in self.P1:
            q = self.partner.get(p)
            if q is None:
                raise ExtensionError("no partner for %r" % (p,))
            if q not in self.P2 or (q, p) not in covers:
                raise ExtensionError("partner of %r must be a P2 prime it covers"
                                     % (p,))


def derive_partners(P, P1, P2, override=None):
    """partner(p) = the unique P2 prime covered by p; override wins per label."""
    override = override or {}
    covers = {}
    for a, b in P.hasse:
        covers.setdefault(P.labels[b], []).append(P.labels[a])
    out = {}
    for p in sorted(P1):
        if p in override:
            out[p] = override[p]
            continue
        cands = [q for q in covers.get(p, []) if q in P2]
        if len(cands) != 1:
            raise ExtensionError(
                "partner of %r is ambiguous or missing (candidates %r)"
                % (p, sorted(cands)))
        out[p] = cands[0]
    return out


@dataclass
class SetupData:
    """A poset Ptilde = P | Px with the projection PhiTilde, plus the
    embedding iota of the previous poset's labels into the old copy."""

    Ptilde: ps.LabeledPoset
    P: frozenset            # labels of the old copy
    Px: frozenset           # labels of the new x-primes
    phi: dict               # PhiTilde at label level, Ptilde -> P
    iota: dict              # previous label -> old-copy label
    source: SpectrumPartition = None


def validate_setup(s):
    """Check every SetupData clause; returns {'ok': bool, 'failed': str|None}."""
    def fail(msg):
        return {"ok": False, "failed": msg}

    T = s.Ptilde
    labels = set(T.labels)
    if s.P | s.Px != labels or s.P & s.Px:
        return fail("P, Px must partition Ptilde")
    if not ps.is_upper_set(T, s.Px):
        return fail("Px is not an upper set of Ptilde")
    if set(s.phi) != labels:
        return fail("PhiTilde is not total on Ptilde")
    if not set(s.phi.values()) <= s.P:
        return fail("PhiTilde image must lie in P")
    for p in s.Px:
        if not T.leq(s.phi[p], p):
            return fail("PhiTilde(%s) !<= %s" % (s.phi[p], p))
    px = sorted(s.Px)
    for p in px:
        for q in px:
            if T.leq(p, q) != T.leq(s.phi[p], s.phi[q]):
                return fail("PhiTilde not an isomorphism on Px at (%s,%s)"
                            % (p, q))
    if len({s.phi[p] for p in px}) != len(px):
        return fail("PhiTilde not injective on Px")
    for p in sorted(s.P):
        for q in px:
            if T.leq(p, q) != T.leq(s.phi[p], s.phi[q]):
                return fail("mixed comparison clause fails at (%s,%s)" % (p, q))
    for p in sorted(labels):
        if s.phi[s.phi[p]] != s.phi[p]:
            return fail("PhiTilde not idempotent at %s" % (p,))
    return {"ok": True, "failed": None}


def ore_step(sp, new_label, relabel=None):
    """One Ore-extension step at the poset level.

    Ptilde = (copy of P, labels passed through `relabel`) together with a new
    prime for each P3 element (label from `new_label`).  Cross relations:
    old p <= new q_x iff pi(p) <= q, where pi is the identity on P2|P3 and
    partner() on P1; no new <= old relations.  Returns the SetupData.
    """
    sp.validate()
    relabel = relabel or {}
    if callable(new_label):
        new_label = {q: new_label(q) for q in sp.P3}
    old = {l: relabel.get(l, l) for l in sp.P.labels}
    new = {q: new_label[q] for q in sorted(sp.P3)}
    pi = {l: sp.partner.get(l, l) for l in sp.P.labels}
    labels = [old[l] for l in sp.P.labels] + [new[q] for q in sorted(sp.P3)]
    rels = []
    for p in sp.P.labels:
        for q in sp.P.labels:
            if p != q and sp.P.leq(p, q):
                rels.append((old[p], old[q]))
        for q in sorted(sp.P3):
            if sp.P.leq(pi[p], q):
                rels.append((old[p], new[q]))
    for p in sorted(sp.P3):
        for q in sorted(sp.P3):
            if p != q and sp.P.leq(p, q):
                rels.append((new[p], new[q]))
    Ptilde = ps.build(labels, rels)
    phi = {old[l]: old[pi[l]] for l in sp.P.labels}
    phi.update({new[q]: old[q] for q in sp.P3})
    setup = SetupData(Ptilde=Ptilde,
                      P=frozenset(old.values()),
                      Px=frozenset(new.values()),
                      phi=phi, iota=dict(old), source=sp)
    rep = validate_setup(setup)
    if not rep["ok"]:
        raise ExtensionError("ore_step produced invalid setup: %s" % rep["failed"])
    return setup


def extend_iso(nabla, part, s):
    """Extend nabla: [1,wbar] -> P across the partition to [1,wbar*a] -> Ptilde.

    Hypotheses checked: (a) nabla(W3) = PhiTilde(Px); (b) PhiTilde.nabla =
    nabla.Phi on W1|W2.  New words w in W4 go to the unique x-prime over
    nabla(wa).
    """
    if not nabla.is_isomorphism:
        raise ExtensionError("nabla is not an isomorphism")
    a = part.a
    wl = br.word_label
    nab = lambda w: s.iota[nabla(wl(w))]
    img_w3 = {nab(w) for w in part.W3}
    img_px = {s.phi[p] for p in s.Px}
    if img_w3 != img_px:
        raise ExtensionError(
            "hypothesis (a) fails: nabla(W3) = %r but PhiTilde(Px) = %r"
            % (sorted(img_w3), sorted(img_px)))
    for w in sorted(part.W1 | part.W2, key=lambda x: (x.length, x.word)):
        pw = w.times_gen(a) if cx.right_descent(w, a) else w
        if s.phi[nab(w)] != nab(pw):
            raise ExtensionError(
                "hypothesis (b) fails at %s: PhiTilde(nabla(w))=%s, nabla(Phi(w))=%s"
                % (wl(w), s.phi[nab(w)], nab(pw)))
    inv_px = {s.phi[p]: p for p in s.Px}
    assign = {}
    for w in part.interval_wbara.elements:
        if w in part.W4:
            assign[wl(w)] = inv_px[nab(w.times_gen(a))]
        else:
            assign[wl(w)] = nab(w)
    nablat = ps.PosetMap(part.interval_wbara.to_poset(), s.Ptilde, assign)
    if not nablat.is_isomorphism:
        raise ExtensionError("extended map is not an isomorphism")
    return nablat


def commuting_square(nabla, nablat, part, s, phi_elems=None):
    """Verify PsiTilde . nablatilde = nabla . Phi elementwise, that PsiTilde
    is at most 2-1, and that the fibers containing an x-prime sit exactly
    over P3, each of size exactly 2.

    PsiTilde is PhiTilde read back through iota into the previous poset's
    labels.  phi_elems may override the Bruhat-side projection (used by
    left-multiplication steps); default is Phi for the partition's generator.
    """
    wl = br.word_label
    if phi_elems is None:
        phi_elems = {wl(w): wl(v)
                     for w, v in br.phi(part.interval_wbara, part.a).items()}
    inv_iota = {v: k for k, v in s.iota.items()}
    psi = {t: inv_iota[s.phi[t]] for t in s.Ptilde.labels}
    square = all(psi[nablat(l)] == nabla(phi_elems[l]) for l in phi_elems)
    fibers = {}
    for t in s.Ptilde.labels:
        fibers.setdefault(psi[t], set()).add(t)
    at_most_2 = all(len(f) <= 2 for f in fibers.values())
    p3 = set(s.source.P3) if s.source is not None else None
    if p3 is None:
        new_fibers_ok = None
    else:
        with_new = {b for b, f in fibers.items() if f & s.Px}
        new_fibers_ok = (with_new == p3 and
                         all(fibers[b] == {s.iota[b], _the(fibers[b] & s.Px)}
                             for b in with_new))
    ok = square and at_most_2 and (new_fibers_ok is not False)
    return {"ok": ok, "square_commutes": square, "at_most_2_1": at_most_2,
            "new_fibers_over_P3": new_fibers_ok}


def _the(single):
    (x,) = single
    return x
