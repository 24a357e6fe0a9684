"""Bruhat order: comparison via the lifting property, lower intervals [1, w]
built one letter at a time together with their order, the W1-W4 partition
of [1, wbar*a] (or [1, a*wbar]) with its projection Phi, decomposability,
and an exhaustive lifting-property checker."""

from itertools import combinations

from . import coxeter as cx
from . import poset as ps


class BruhatError(ValueError):
    pass


def bruhat_leq(u, v):
    """u <= v in Bruhat order.

    Lifting property: take a right descent s of v (the largest index); if s
    is also a descent of u, compare (us, vs), otherwise (u, vs).  Once
    l(u) >= l(v), u <= v iff u = v.
    """
    if u.cox != v.cox:
        raise cx.CoxeterError("elements from different Coxeter groups")
    while u.length < v.length:
        i = max(j for j in v.cox.generators if cx.right_descent(v, j))
        if cx.right_descent(u, i):
            u = u.times_gen(i)
        v = v.times_gen(i)
    return u == v


class BruhatInterval:
    """The interval [1, base] with its order.

    `elements` is a tuple in build order and `index` maps each element to its
    position there.  `down[i]` is the down-set of elements[i] as an int
    bitset over positions: bit j is set iff elements[j] <= elements[i].
    """

    __slots__ = ("cox", "base", "elements", "index", "down")

    def __init__(self, cox, base, elements, index, down):
        self.cox = cox
        self.base = base
        self.elements = elements
        self.index = index
        self.down = down

    def __len__(self):
        return len(self.elements)

    def rank_profile(self):
        top = max(w.length for w in self.elements)
        prof = [0] * (top + 1)
        for w in self.elements:
            prof[w.length] += 1
        return tuple(prof)

    def to_poset(self, label=None):
        """LabeledPoset view, elements sorted by (length, canonical word);
        labels default to dotted canonical words."""
        if label is None:
            label = word_label
        elems = self.elements
        order = sorted(range(len(elems)),
                       key=lambda i: (elems[i].length, elems[i].word))
        pos = {i: k for k, i in enumerate(order)}
        up = [0] * len(elems)
        for i, d in enumerate(self.down):
            for j in ps._bits(d):
                up[pos[j]] |= 1 << pos[i]
        rank = {k: elems[i].length for k, i in enumerate(order)}
        return ps.LabeledPoset([label(elems[i]) for i in order], up, rank)


def word_label(w):
    return ".".join(map(str, w.word)) or "e"


def interval(m, word):
    """[1, w] for a reduced word w, with its order (see BruhatInterval).

    Built one letter s at a time: for u < us, [1, us] = [1, u] | [1, u]s
    (Bjorner-Brenti 2.2.7).  With u the current base this gives the new
    elements us; with each u whose us is new it gives that element's
    down-set, down(u) | down(u)s.  Works in infinite groups.
    """
    word = m.check_word(word)
    base = cx.identity_element(m)
    elems, index, down = [base], {base: 0}, [1]
    for s in word:
        if cx.right_descent(base, s):
            raise BruhatError("input word is not reduced")
        base = base.times_gen(s)
        n = len(elems)
        times_s = [None] * n    # times_s[i]: the position of elems[i]*s
        for i in range(n):
            if cx.right_descent(elems[i], s):
                continue        # filled in from elems[i]*s, which is below
            us = elems[i].times_gen(s)
            j = times_s[i] = index.setdefault(us, len(elems))
            if j == len(elems):
                elems.append(us)
            else:
                times_s[j] = i
        for i in range(n):
            if times_s[i] >= n:     # a new element, over elems[i]
                ds = down[i]
                for k in range(n):
                    if down[i] >> k & 1:
                        ds |= 1 << times_s[k]
                down.append(ds)
    return BruhatInterval(m, base, tuple(elems), index, tuple(down))


class BruhatPartition:
    """The blocks W1-W4 of [1, wbar*a] (side "right") or [1, a*wbar] (side
    "left"), and Phi as a dict: w -> wa (resp. aw) on W1|W4, w on W2|W3."""

    __slots__ = ("cox", "wbar", "a", "side", "W1", "W2", "W3", "W4", "phi",
                 "interval_wbar", "interval_wbara")

    def __init__(self, cox, wbar, a, side, W1, W2, W3, W4, phi, iv, iva):
        self.cox = cox
        self.wbar = wbar
        self.a = a
        self.side = side
        self.W1, self.W2, self.W3, self.W4 = W1, W2, W3, W4
        self.phi = phi
        self.interval_wbar = iv
        self.interval_wbara = iva


_DESCENT = {"right": cx.right_descent, "left": cx.left_descent}


def partition(m, wbar_word, a, side="right"):
    """The four blocks of [1, wbar*a] for a right multiplier a, or with
    side="left" of [1, a*wbar], by left products and left descents.

    Requires wbar < wbar*a (the standing hypothesis wbar in W_a'); the stated
    block identities and upper-set facts are verified before returning.
    """
    if side not in _DESCENT:
        raise BruhatError('side must be "left" or "right", got %r' % (side,))
    descent = _DESCENT[side]
    iv = interval(m, wbar_word)
    wbar = iv.base
    if descent(wbar, a):
        raise BruhatError("wbar*a < wbar: wbar must not have a as %s descent"
                          % side)
    letters = tuple(wbar_word)
    iva = interval(m, letters + (a,) if side == "right" else (a,) + letters)
    W1, W2, W3, W4, phi = set(), set(), set(), set(), {}
    for w in iva.elements:
        down = descent(w, a)
        phi[w] = w.times_gen(a, side) if down else w
        if w not in iv.index:
            W4.add(w)
        elif down:
            W1.add(w)
        elif w.times_gen(a, side) in iv.index:
            W2.add(w)
        else:
            W3.add(w)
    part = BruhatPartition(m, wbar, a, side, frozenset(W1), frozenset(W2),
                           frozenset(W3), frozenset(W4), phi, iv, iva)
    _check_partition(part)
    return part


def _check_partition(part):
    a, phi, descent = part.a, part.phi, _DESCENT[part.side]
    iv, iva = part.interval_wbar, part.interval_wbara
    if {phi[w] for w in part.W1} != part.W2:
        raise BruhatError("W2 != m_a(W1)")
    if {phi[w] for w in part.W4} != part.W3:
        raise BruhatError("W3 != m_a(W4)")
    old = part.W1 | part.W2 | part.W3
    if old != set(iv.elements):
        raise BruhatError("W1|W2|W3 != [1,wbar]")
    if old | part.W4 != set(iva.elements):
        raise BruhatError("W1|..|W4 != [1,wbar*a]")
    for name, S, ivs in (("W3", part.W3, iv), ("W4", part.W4, iva),
                         ("W3|W4", part.W3 | part.W4, iva)):
        # S is upper iff nothing outside S lies above a member of S
        mask = sum(1 << ivs.index[w] for w in S)
        if any(d & mask for i, d in enumerate(ivs.down) if not mask >> i & 1):
            raise BruhatError("%s not upper in %s" % (
                name, "[1,wbar]" if ivs is iv else "[1,wbar*a]"))
    w14 = part.W1 | part.W4
    for w in iva.elements:
        if (w in w14) != descent(w, a):
            raise BruhatError("W1|W4 != [1,wbar*a] cap W_a")


def is_decomposable(m, word):
    """A length-additive factorization w = u*v with only the identity below
    both factors, or None.

    [1,u] and [1,v] meet only in the identity iff u and v have disjoint
    supports (the atoms of [1,u] are the generators in supp(u)).  So w
    decomposes iff for some nonempty proper K of supp(w), with J the rest,
    the parabolic factorization w = w^J * w_J (Bjorner-Brenti 2.4.4) has
    both factors nontrivial and supp(w^J) inside K.  Candidate supports K
    of u are tried in combinations order; the factors come back as
    canonical words.
    """
    w = cx.element_from_word(m, word)
    if w.length != len(word):
        raise BruhatError("input word is not reduced")
    supp = sorted(set(w.word))
    for k in range(1, len(supp)):
        for K in combinations(supp, k):
            J = [j for j in supp if j not in K]
            u, v = w, ()        # strip right descents in J: w = u * v
            while True:
                s = next((j for j in J if cx.right_descent(u, j)), None)
                if s is None:
                    break
                u, v = u.times_gen(s), (s,) + v
            if v and set(u.word).isdisjoint(J):
                return (u.word, cx.element_from_word(m, v).word)
    return None


def check_lifting(m, bound):
    """Exhaustive lifting-property check on all pairs w < w' with
    l(w') <= bound.

    For every such pair and every generator a with w < wa and w'a < w',
    verifies w <= w'a and wa <= w'.  Returns (ok, counterexample).
    """
    if bound < 1:
        raise BruhatError("bound must be >= 1")
    elems = cx.elements_up_to_length(m, bound)
    for w in elems:
        for wp in elems:
            if w.length >= wp.length or not bruhat_leq(w, wp):
                continue
            for a in m.generators:
                if cx.right_descent(w, a) or not cx.right_descent(wp, a):
                    continue
                wa = w.times_gen(a)
                wpa = wp.times_gen(a)
                if not bruhat_leq(w, wpa) or not bruhat_leq(wa, wp):
                    return False, (w.word, wp.word, a)
    return True, None
