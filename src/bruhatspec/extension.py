"""The isomorphism-extension engine.

Given a poset P of "primes" split into blocks P1/P2/P3 by a declared skew
derivation, ore_step builds the next poset Ptilde (old copy of P plus new
x-primes over P3), reading its order and ranks off P's bitsets, together
with the projection PhiTilde.  extend_iso then extends an isomorphism
nabla: [1,wbar] -> P across a Bruhat partition (bruhat.partition, right or
left) to nablatilde: [1,wbar*a] -> Ptilde, and commuting_square verifies
the contraction diagram PsiTilde . nablatilde = nabla . Phi, with Phi the
partition's.  Right and left steps take the same path.
"""

from dataclasses import dataclass

from . import bruhat as br
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
    prime q_x for each q in P3 (label from `new_label`), its up-sets read off
    P's: old p <= new q_x iff pi(p) <= q, where pi is the identity on P2|P3
    and partner() on P1; q_x <= q'_x iff q <= q'; no new <= old relations.
    A ranked P gives q_x rank(q) + 1.  LabeledPoset rejects a result that is
    not an order; validate_setup checks the rest.  Returns the SetupData.
    """
    sp.validate()
    P = sp.P
    relabel = relabel or {}
    if callable(new_label):
        new_label = {q: new_label(q) for q in sp.P3}
    old = {l: relabel.get(l, l) for l in P.labels}
    p3 = sorted(sp.P3)
    new = {q: new_label[q] for q in p3}
    n = len(P)
    # bit n+k of Ptilde is p3[k]'s new prime; lift(u) is the new primes
    # over the P3 members of the bitset u
    x_bit = {P.index(q): 1 << (n + k) for k, q in enumerate(p3)}
    lift = lambda u: sum(x_bit.get(i, 0) for i in ps._bits(u))
    up = [u | lift(P.up[P.index(sp.partner.get(l, l))])
          for l, u in zip(P.labels, P.up)] + [lift(P.up[i]) for i in x_bit]
    rank = None if P.rank is None else {
        **P.rank, **{n + k: P.rank[i] + 1 for k, i in enumerate(x_bit)}}
    Ptilde = ps.LabeledPoset([old[l] for l in P.labels] + [new[q] for q in p3],
                             up, rank)
    phi = {old[l]: old[sp.partner.get(l, l)] for l in P.labels}
    phi.update({new[q]: old[q] for q in p3})
    setup = SetupData(Ptilde=Ptilde,
                      P=frozenset(old.values()),
                      Px=frozenset(new.values()),
                      phi=phi, iota=dict(old), source=sp)
    rep = validate_setup(setup)
    if not rep["ok"]:
        raise ExtensionError("ore_step produced invalid setup: %s" % rep["failed"])
    return setup


def extend_iso(nabla, part, s):
    """Extend nabla: [1,wbar] -> P across the partition of [1,wbar*a] (or
    [1,a*wbar]) to nablatilde: [1,wbar*a] -> Ptilde.

    Hypotheses checked: (a) nabla(W3) = PhiTilde(Px); (b) PhiTilde.nabla =
    nabla.Phi on W1|W2.  New words w in W4 go to the unique x-prime over
    nabla(Phi(w)).
    """
    if not nabla.is_isomorphism:
        raise ExtensionError("nabla is not an isomorphism")
    phi = part.phi
    wl = br.word_label
    nab = lambda w: s.iota[nabla(wl(w))]
    img_w3 = {nab(w) for w in part.W3}
    img_px = {s.phi[p] for p in s.Px}
    if img_w3 != img_px:
        raise ExtensionError(
            "hypothesis (a) fails: nabla(W3) = %r but PhiTilde(Px) = %r"
            % (sorted(img_w3), sorted(img_px)))
    for w in sorted(part.W1 | part.W2, key=lambda x: (x.length, x.word)):
        if s.phi[nab(w)] != nab(phi[w]):
            raise ExtensionError(
                "hypothesis (b) fails at %s: PhiTilde(nabla(w))=%s, nabla(Phi(w))=%s"
                % (wl(w), s.phi[nab(w)], nab(phi[w])))
    inv_px = {s.phi[p]: p for p in s.Px}
    assign = {}
    for w in part.interval_wbara.elements:
        if w in part.W4:
            assign[wl(w)] = inv_px[nab(phi[w])]
        else:
            assign[wl(w)] = nab(w)
    nablat = ps.PosetMap(part.interval_wbara.to_poset(), s.Ptilde, assign)
    if not nablat.is_isomorphism:
        raise ExtensionError("extended map is not an isomorphism")
    return nablat


def commuting_square(nabla, nablat, part, s):
    """Verify PsiTilde . nablatilde = nabla . Phi elementwise, that PsiTilde
    is at most 2-1, and that the fibers containing an x-prime sit exactly
    over P3, each of size exactly 2.

    PsiTilde is PhiTilde read back through iota into the previous poset's
    labels; Phi is the partition's.
    """
    wl = br.word_label
    inv_iota = {v: k for k, v in s.iota.items()}
    psi = {t: inv_iota[s.phi[t]] for t in s.Ptilde.labels}
    square = all(psi[nablat(wl(w))] == nabla(wl(v))
                 for w, v in part.phi.items())
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
