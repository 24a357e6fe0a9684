"""The isomorphism-extension engine.

Given a poset P of "primes" split into blocks P1/P2/P3 by a declared skew
derivation, ore_step builds the next poset Ptilde (old copy of P at P's
positions, then new x-primes over P3), reading its order and ranks off P's
bitsets, together with the projection PhiTilde.  P has the positions of
[1,wbar], so nabla: [1,wbar] -> P is the identity; extend_iso checks that
it extends to the identity [1,wbar*a] -> Ptilde across a Bruhat partition
(bruhat.partition, right or left), and commuting_square checks the
contraction square.  Blocks are bitsets and maps tuples over positions;
labels appear only in messages.
"""

from . import poset as ps


class ExtensionError(ValueError):
    pass


class SpectrumPartition:
    """P split into non-delta-invariant (P1), delta-invariant (P2), and
    delta(R)-containing (P3) primes, with the P2-partner of each P1 prime."""

    def __init__(self, P, P1, P2, P3, partner):
        self.P = P              # ps.LabeledPoset
        self.P1 = P1            # int bitsets over P's positions
        self.P2 = P2
        self.P3 = P3
        self.partner = partner  # P1 position -> P2 position

    def validate(self):
        P, blocks = self.P, (self.P1, self.P2, self.P3)
        if self.P1 | self.P2 | self.P3 != (1 << len(P)) - 1:
            raise ExtensionError("P1|P2|P3 does not cover P")
        if sum(b.bit_count() for b in blocks) != len(P):
            raise ExtensionError("P1/P2/P3 not disjoint")
        for p in ps._bits(self.P1):
            q = self.partner.get(p)
            if q is None:
                raise ExtensionError("no partner for %r" % (P.labels[p],))
            # q is covered by p iff [q, p] is the two-element set {q, p}
            if not self.P2 >> q & 1 or P.up[q] & P.down[p] != 1 << q | 1 << p:
                raise ExtensionError("partner of %r must be a P2 prime it covers"
                                     % (P.labels[p],))


class SetupData:
    """A poset Ptilde with the projection PhiTilde, and the
    SpectrumPartition of the previous poset P it was built from.  Ptilde's
    first len(P) positions are the old copy of P, under P's positions and
    order; the new x-primes follow them."""

    def __init__(self, Ptilde, phi, source):
        self.Ptilde = Ptilde    # ps.LabeledPoset
        self.phi = phi          # tuple of old-copy positions, by position
        self.source = source    # SpectrumPartition


def validate_setup(s):
    """Check every SetupData clause; raises ExtensionError naming the first
    that fails.  Each clause visits primes in label order, so the prime it
    names does not depend on where ore_step put it."""
    T, phi, n = s.Ptilde, s.phi, len(s.source.P)
    lab = T.labels
    px_mask = (1 << len(T)) - (1 << n)
    if not ps.is_upper_set(T, px_mask):
        raise ExtensionError("Px is not an upper set of Ptilde")
    if len(phi) != len(T):
        raise ExtensionError("PhiTilde is not total on Ptilde")
    if not all(0 <= k < n for k in phi):
        raise ExtensionError("PhiTilde image must lie in P")
    order = sorted(range(len(T)), key=lab.__getitem__)
    old, px = [p for p in order if p < n], [p for p in order if p >= n]
    for p in px:
        if not T.up[phi[p]] >> p & 1:
            raise ExtensionError("PhiTilde(%s) !<= %s" % (lab[phi[p]], lab[p]))
    # The Px-isomorphism and mixed clauses ask, for every q in Px and every
    # p, whether p <= q iff PhiTilde(p) <= PhiTilde(q): down(q) must be the
    # preimage of down(PhiTilde(q)).  The pair scans run only on a mismatch,
    # to name the first failing pair.
    fiber = [0] * len(T)
    for i, k in enumerate(phi):
        fiber[k] |= 1 << i
    mismatch = any(
        T.down[q] != sum(fiber[k] for k in ps._bits(T.down[phi[q]]))
        for q in px)
    leq = lambda p, q: T.up[p] >> q & 1
    if mismatch:
        for p in px:
            for q in px:
                if leq(p, q) != leq(phi[p], phi[q]):
                    raise ExtensionError("PhiTilde not an isomorphism on Px "
                                         "at (%s,%s)" % (lab[p], lab[q]))
    # cannot fail: with or without a mismatch the clause above makes
    # PhiTilde(p) = PhiTilde(q) give p <= q <= p, so p = q
    if len({phi[p] for p in px}) != len(px):
        raise ExtensionError("PhiTilde not injective on Px")
    if mismatch:
        for p in old:
            for q in px:
                if leq(p, q) != leq(phi[p], phi[q]):
                    raise ExtensionError("mixed comparison clause fails "
                                         "at (%s,%s)" % (lab[p], lab[q]))
    for p in order:
        if phi[phi[p]] != phi[p]:
            raise ExtensionError("PhiTilde not idempotent at %s" % (lab[p],))


def ore_step(sp, new_label, relabel=None, like=None):
    """One Ore-extension step at the poset level.

    Ptilde = (copy of P at P's positions, labels of the positions in
    `relabel` replaced) then a new prime q_x for each q in P3, in the
    position order of q (label new_label[q]), its down-sets read off P's:
    old p <= new q_x iff pi(p) <= q, where pi is the identity on P2|P3 and
    partner() on P1; q_x <= q'_x iff q <= q'; no new <= old relations.  A
    ranked P gives q_x rank(q) + 1.  LabeledPoset checks that this is an
    order, unless it is that of `like` (see LabeledPoset), and
    validate_setup checks the rest.  Returns the SetupData.
    """
    sp.validate()
    P = sp.P
    relabel = relabel or {}
    n = len(P)
    p3 = list(ps._bits(sp.P3))
    # PhiTilde is pi on the old copy, q_x -> q; down(q_x) is down(q)'s preimage
    phi = tuple(sp.partner.get(i, i) for i in range(n)) + tuple(p3)
    fiber = [0] * n
    for t, k in enumerate(phi):
        fiber[k] |= 1 << t
    down = list(P.down) + [sum(fiber[k] for k in ps._bits(P.down[q]))
                           for q in p3]
    rank = None if P.rank is None else \
        P.rank + tuple(P.rank[q] + 1 for q in p3)
    Ptilde = ps.LabeledPoset(
        [relabel.get(i, l) for i, l in enumerate(P.labels)] +
        [new_label[q] for q in p3], rank=rank, down=down, like=like)
    setup = SetupData(Ptilde=Ptilde, phi=phi, source=sp)
    validate_setup(setup)
    return setup


def extend_iso(part, s):
    """Check that nabla, the identity [1,wbar] -> P, extends across the
    partition to the identity [1,wbar*a] (or [1,a*wbar]) -> Ptilde, which is
    an isomorphism of two checked orders exactly when their down-sets agree.
    The letter step appends w*a (a*w) over each w in W3 in position order,
    as ore_step the x-primes over P3.  Hypotheses checked: (a) nabla(W3) =
    PhiTilde(Px); (b) PhiTilde.nabla = nabla.Phi on W1|W2, naming the first
    failure by (length, word)."""
    iv, T, phi, n = part.interval_wbar, s.Ptilde, s.phi, len(s.source.P)
    if s.source.P.down != iv.down:
        raise ExtensionError("nabla is not an isomorphism")
    img_px = sum({1 << k for k in phi[n:]})
    if part.W3 != img_px:
        names = lambda S: sorted(T.labels[i] for i in ps._bits(S))
        raise ExtensionError(
            "hypothesis (a) fails: nabla(W3) = %r but PhiTilde(Px) = %r"
            % (names(part.W3), names(img_px)))
    # a mismatch on W3 alone is not (b); the square then fails
    if phi[:n] != part.phi[:n]:
        for i in iv.by_length_word():
            if not part.W3 >> i & 1 and phi[i] != part.phi[i]:
                raise ExtensionError(
                    "hypothesis (b) fails at %s: PhiTilde(nabla(w))=%s, "
                    "nabla(Phi(w))=%s" % (iv.labels[i], T.labels[phi[i]],
                                          T.labels[part.phi[i]]))
    if T.down != part.interval_wbara.down:
        raise ExtensionError("extended map is not an isomorphism")


def commuting_square(part, s):
    """Verify PsiTilde . nablatilde = nabla . Phi, that PsiTilde is at most
    2-1, and that the fibers containing an x-prime sit exactly over the
    source's P3, each of size exactly 2; raises ExtensionError naming every
    clause that fails.  PsiTilde is PhiTilde read as a map into P, whose
    positions the old copy keeps, and Phi is the partition's; nabla and
    nablatilde are the identity, so the square is PhiTilde = Phi."""
    psi, n = s.phi, len(s.source.P)
    fibers = [0] * n
    for t, b in enumerate(psi):
        fibers[b] |= 1 << t
    with_new = sum(1 << b for b, f in enumerate(fibers) if f >> n)
    checks = {
        "square_commutes": psi == part.phi,
        "at_most_2_1": all(f.bit_count() <= 2 for f in fibers),
        # an old-copy position is never an x-prime, so a fiber that holds
        # one and has two elements is {b, the x-prime over b}
        "new_fibers_over_P3": with_new == s.source.P3 and
        all(fibers[b].bit_count() == 2 and fibers[b] >> b & 1
            for b in ps._bits(with_new)),
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise ExtensionError("commuting square fails: " + ", ".join(failed))
