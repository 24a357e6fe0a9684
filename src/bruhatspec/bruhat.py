"""Bruhat order: comparison via the lifting property, interval generation by
subword enumeration, the W1-W4 partition of [1, wbar*a], the projection Phi,
decomposability, and an exhaustive lifting-property checker."""

from itertools import combinations

from . import coxeter as cx
from . import poset as ps


class BruhatError(ValueError):
    pass


_leq_cache = {}


def bruhat_leq(u, v):
    """u <= v in Bruhat order.

    Recursion on the lifting property: take a right descent s of v (we always
    take the largest index, for a deterministic memo key); if s is also a
    descent of u, compare (us, vs), otherwise (u, vs).
    """
    if u.cox != v.cox:
        raise cx.CoxeterError("elements from different Coxeter groups")
    if u.length > v.length:
        return False
    key = (u.cox, u.matrix, v.matrix)
    hit = _leq_cache.get(key)
    if hit is not None:
        return hit
    if v.is_identity():
        res = u.is_identity()
    else:
        i = max(j for j in v.cox.generators if cx.right_descent(v, j))
        vs = v.times_gen(i)
        if cx.right_descent(u, i):
            res = bruhat_leq(u.times_gen(i), vs)
        else:
            res = bruhat_leq(u, vs)
    _leq_cache[key] = res
    return res


class BruhatInterval:
    """The interval [1, base], elements keyed by canonical word."""

    __slots__ = ("cox", "base", "elements")

    def __init__(self, cox, base, elements):
        self.cox = cox
        self.base = base
        self.elements = elements

    def __len__(self):
        return len(self.elements)

    def rank_profile(self):
        top = max(w.length for w in self.elements)
        prof = [0] * (top + 1)
        for w in self.elements:
            prof[w.length] += 1
        return tuple(prof)

    def sorted_elements(self):
        return sorted(self.elements, key=lambda w: (w.length, w.word))

    def to_poset(self, label=None):
        """LabeledPoset view; labels default to dotted canonical words."""
        if label is None:
            label = word_label
        elems = self.sorted_elements()
        labels = [label(w) for w in elems]
        rels = []
        for u in elems:
            for v in elems:
                if u is not v and u.length < v.length and bruhat_leq(u, v):
                    rels.append((label(u), label(v)))
        rank = {i: elems[i].length for i in range(len(elems))}
        return ps.build(labels, rels, rank=rank)


def word_label(w):
    return ".".join(map(str, w.word)) or "e"


def interval(m, word):
    """[1, w] as the set of canonical forms of all subwords of the reduced
    word w (subword property).  Works in infinite groups."""
    word = m.check_word(word)
    if not cx.is_reduced(m, word):
        raise BruhatError("input word is not reduced")
    k = len(word)
    seen = {}
    for mask in range(1 << k):
        sub = tuple(word[i] for i in range(k) if mask >> i & 1)
        w = cx.element_from_word(m, sub)
        seen.setdefault(w.word, w)
    base = cx.element_from_word(m, word)
    return BruhatInterval(m, base, set(seen.values()))


class BruhatPartition:
    __slots__ = ("cox", "wbar", "a", "W1", "W2", "W3", "W4",
                 "interval_wbar", "interval_wbara")

    def __init__(self, cox, wbar, a, W1, W2, W3, W4, iv, iva):
        self.cox = cox
        self.wbar = wbar
        self.a = a
        self.W1, self.W2, self.W3, self.W4 = W1, W2, W3, W4
        self.interval_wbar = iv
        self.interval_wbara = iva


def partition(m, wbar_word, a):
    """The four blocks of [1, wbar*a] for a right multiplier a.

    Requires wbar < wbar*a (the standing hypothesis wbar in W_a'); the stated
    block identities and upper-set facts are verified before returning.
    """
    wbar_word = m.check_word(wbar_word)
    if not cx.is_reduced(m, wbar_word):
        raise BruhatError("wbar is not reduced")
    wbar = cx.element_from_word(m, wbar_word)
    if cx.right_descent(wbar, a):
        raise BruhatError("wbar*a < wbar: wbar must not have a as right descent")
    iv = interval(m, wbar_word)
    iva = interval(m, wbar_word + (a,))
    wbara = iva.base
    W1, W2, W3, W4 = set(), set(), set(), set()
    for w in iva.elements:
        in_old = bruhat_leq(w, wbar)
        wa = w.times_gen(a)
        if not in_old:
            W4.add(w)
        elif cx.right_descent(w, a):
            W1.add(w)
        elif bruhat_leq(wa, wbar):
            W2.add(w)
        else:
            W3.add(w)
    part = BruhatPartition(m, wbar, a, frozenset(W1), frozenset(W2),
                           frozenset(W3), frozenset(W4), iv, iva)
    _check_partition(part)
    return part


def _check_partition(part):
    a = part.a
    ma1 = {w.times_gen(a) for w in part.W1}
    if ma1 != set(part.W2):
        raise BruhatError("W2 != m_a(W1)")
    ma4 = {w.times_gen(a) for w in part.W4}
    if ma4 != set(part.W3):
        raise BruhatError("W3 != m_a(W4)")
    old = part.W1 | part.W2 | part.W3
    if old != set(part.interval_wbar.elements):
        raise BruhatError("W1|W2|W3 != [1,wbar]")
    if old | part.W4 != set(part.interval_wbara.elements):
        raise BruhatError("W1|..|W4 != [1,wbar*a]")
    if not _upper_in(part.W3, part.interval_wbar):
        raise BruhatError("W3 not upper in [1,wbar]")
    if not _upper_in(part.W4, part.interval_wbara):
        raise BruhatError("W4 not upper in [1,wbar*a]")
    if not _upper_in(part.W3 | part.W4, part.interval_wbara):
        raise BruhatError("W3|W4 not upper in [1,wbar*a]")
    for w in part.interval_wbara.elements:
        desc = cx.right_descent(w, a)
        if (w in part.W1 | part.W4) != desc:
            raise BruhatError("W1|W4 != [1,wbar*a] cap W_a")


def _upper_in(S, iv):
    return all(v in S
               for u in S for v in iv.elements
               if u is not v and bruhat_leq(u, v))


def phi(iva, a):
    """Phi(w) = w if a is not a right descent of w, else wa; maps [1, wbar*a]
    onto W2 | W3 two-to-one, order preserving, idempotent."""
    out = {}
    for w in iva.elements:
        out[w] = w.times_gen(a) if cx.right_descent(w, a) else w
    return out


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
    word = m.check_word(word)
    if not cx.is_reduced(m, word):
        raise BruhatError("input word is not reduced")
    w = cx.element_from_word(m, word)
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
    """Exhaustive lifting-property check on all intervals [1, v], l(v) <= bound.

    For every pair w < w' in [1, v] and every generator a with w < wa and
    w'a < w', verifies w <= w'a and wa <= w'.  Returns (ok, counterexample).
    """
    if bound < 1:
        raise BruhatError("bound must be >= 1")
    elems = cx.elements_up_to_length(m, bound)
    tested = set()
    for v in elems:
        iv = interval(m, v.word)
        pool = sorted(iv.elements, key=lambda w: (w.length, w.word))
        for w in pool:
            for wp in pool:
                if w.length >= wp.length or (w.word, wp.word) in tested:
                    continue
                if not bruhat_leq(w, wp):
                    continue
                tested.add((w.word, wp.word))
                for a in m.generators:
                    if cx.right_descent(w, a) or not cx.right_descent(wp, a):
                        continue
                    wa = w.times_gen(a)
                    wpa = wp.times_gen(a)
                    if not bruhat_leq(w, wpa) or not bruhat_leq(wa, wp):
                        return False, (w.word, wp.word, a)
    return True, None
