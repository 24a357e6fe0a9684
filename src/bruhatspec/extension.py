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

from . import bruhat as br
from . import poset as ps


class ExtensionError(ValueError):
    pass


class SpectrumPartition:
    """P split into non-delta-invariant (P1), delta-invariant (P2), and
    delta(R)-containing (P3) primes, with the P2-partner of each P1 prime."""

    def __init__(self, P, P1, P2, P3, partner):
        self.P = P              # ps.LabeledPoset
        self.P1 = P1            # frozensets of labels
        self.P2 = P2
        self.P3 = P3
        self.partner = partner  # P1 label -> P2 label

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


class SetupData:
    """A poset Ptilde = P | Px with the projection PhiTilde, plus the
    embedding iota of the previous poset's labels into the old copy, and
    the SpectrumPartition of the previous poset it was built from."""

    def __init__(self, Ptilde, P, Px, phi, iota, source):
        self.Ptilde = Ptilde    # ps.LabeledPoset
        self.P = P              # labels of the old copy
        self.Px = Px            # labels of the new x-primes
        self.phi = phi          # PhiTilde at label level, Ptilde -> P
        self.iota = iota        # previous label -> old-copy label
        self.source = source    # SpectrumPartition


def validate_setup(s):
    """Check every SetupData clause; raises ExtensionError naming the first
    that fails."""
    T = s.Ptilde
    labels = set(T.labels)
    if s.P | s.Px != labels or s.P & s.Px:
        raise ExtensionError("P, Px must partition Ptilde")
    if not ps.is_upper_set(T, s.Px):
        raise ExtensionError("Px is not an upper set of Ptilde")
    if set(s.phi) != labels:
        raise ExtensionError("PhiTilde is not total on Ptilde")
    if not set(s.phi.values()) <= s.P:
        raise ExtensionError("PhiTilde image must lie in P")
    px = sorted(s.Px)
    for p in px:
        if not T.leq(s.phi[p], p):
            raise ExtensionError("PhiTilde(%s) !<= %s" % (s.phi[p], p))
    # The Px-isomorphism and mixed clauses ask, for every q in Px and every
    # p, whether p <= q iff PhiTilde(p) <= PhiTilde(q): down(q) must be the
    # preimage of down(PhiTilde(q)).  The pair scans run only on a mismatch,
    # to name the first failing pair.
    f = [T.index(s.phi[l]) for l in T.labels]
    fiber = [0] * len(T)
    for i, k in enumerate(f):
        fiber[k] |= 1 << i
    mismatch = any(
        T.down[q] != sum(fiber[k] for k in ps._bits(T.down[f[q]]))
        for q in map(T.index, px))
    if mismatch:
        for p in px:
            for q in px:
                if T.leq(p, q) != T.leq(s.phi[p], s.phi[q]):
                    raise ExtensionError(
                        "PhiTilde not an isomorphism on Px at (%s,%s)" % (p, q))
    if len({s.phi[p] for p in px}) != len(px):
        raise ExtensionError("PhiTilde not injective on Px")
    if mismatch:
        for p in sorted(s.P):
            for q in px:
                if T.leq(p, q) != T.leq(s.phi[p], s.phi[q]):
                    raise ExtensionError(
                        "mixed comparison clause fails at (%s,%s)" % (p, q))
    for p in sorted(labels):
        if s.phi[s.phi[p]] != s.phi[p]:
            raise ExtensionError("PhiTilde not idempotent at %s" % (p,))


def ore_step(sp, new_label, relabel=None):
    """One Ore-extension step at the poset level.

    Ptilde = (copy of P, labels passed through `relabel`) together with a new
    prime q_x for each q in P3 (label new_label[q]), its up-sets read off
    P's: old p <= new q_x iff pi(p) <= q, where pi is the identity on P2|P3
    and partner() on P1; q_x <= q'_x iff q <= q'; no new <= old relations.
    A ranked P gives q_x rank(q) + 1.  LabeledPoset rejects a result that is
    not an order; validate_setup checks the rest.  Returns the SetupData.
    """
    sp.validate()
    P = sp.P
    relabel = relabel or {}
    old = {l: relabel.get(l, l) for l in P.labels}
    p3 = sorted(sp.P3)
    new = {q: new_label[q] for q in p3}
    n = len(P)
    # bit n+k of Ptilde is p3[k]'s new prime; lift(u) is the new primes
    # over the P3 members of the bitset u
    x_bit = {P.index(q): 1 << (n + k) for k, q in enumerate(p3)}
    p3_mask = sum(1 << i for i in x_bit)
    lift = lambda u: sum(x_bit[i] for i in ps._bits(u & p3_mask))
    up = [u | lift(P.up[P.index(sp.partner.get(l, l))])
          for l, u in zip(P.labels, P.up)] + [lift(P.up[i]) for i in x_bit]
    rank = None if P.rank is None else \
        P.rank + tuple(P.rank[i] + 1 for i in x_bit)
    Ptilde = ps.LabeledPoset([old[l] for l in P.labels] + [new[q] for q in p3],
                             up, rank)
    phi = {old[l]: old[sp.partner.get(l, l)] for l in P.labels}
    phi.update({new[q]: old[q] for q in p3})
    setup = SetupData(Ptilde=Ptilde,
                      P=frozenset(old.values()),
                      Px=frozenset(new.values()),
                      phi=phi, iota=dict(old), source=sp)
    validate_setup(setup)
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
    for w in part.interval_wbar.elements:   # W1|W2|W3 by (length, word)
        if w not in part.W3 and s.phi[nab(w)] != nab(phi[w]):
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
    nablat = ps.PosetMap(part.interval_wbara, s.Ptilde, assign)
    if not nablat.is_isomorphism:
        raise ExtensionError("extended map is not an isomorphism")
    return nablat


def commuting_square(nabla, nablat, part, s):
    """Verify PsiTilde . nablatilde = nabla . Phi elementwise, that PsiTilde
    is at most 2-1, and that the fibers containing an x-prime sit exactly
    over the source's P3, each of size exactly 2; raises ExtensionError
    naming every clause that fails.

    PsiTilde is PhiTilde read back through iota into the previous poset's
    labels; Phi is the partition's.
    """
    wl = br.word_label
    inv_iota = {v: k for k, v in s.iota.items()}
    psi = {t: inv_iota[s.phi[t]] for t in s.Ptilde.labels}
    fibers = {}
    for t in s.Ptilde.labels:
        fibers.setdefault(psi[t], set()).add(t)
    with_new = {b for b, f in fibers.items() if f & s.Px}
    checks = {
        "square_commutes": all(psi[nablat(wl(w))] == nabla(wl(v))
                               for w, v in part.phi.items()),
        "at_most_2_1": all(len(f) <= 2 for f in fibers.values()),
        # an old label is never an x-prime, so a fiber that holds one and
        # has two elements is {iota(b), the x-prime over b}
        "new_fibers_over_P3": with_new == s.source.P3 and
        all(len(fibers[b]) == 2 and s.iota[b] in fibers[b] for b in with_new),
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise ExtensionError("commuting square fails: " + ", ".join(failed))
