"""Bruhat order: comparison via the lifting property, lower intervals [1, w]
as checked, ranked posets labelled by canonical words, grown only by the
letter step from [1, u] to [1, us] or [1, su], the W1-W4 partition of
[1, wbar*a] (or [1, a*wbar]) and its projection Phi, both read off one
letter step's product table, and an exhaustive lifting-property
checker."""

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


class BruhatInterval(ps.LabeledPoset):
    """The interval [1, base] as a checked, ranked LabeledPoset.

    Built from the elements and down-sets the letter steps made, in the
    order they were appended, a linear extension (bit j of down[i] set iff
    elements[j] <= elements[i]).  LabeledPoset gets the dotted canonical
    words, which the letter steps set, as labels, the down-sets, and the
    lengths as ranks, and checks the order.  `elements[i]` is the element
    labelled `labels[i]`, and `position` maps each element to its i.
    """

    __slots__ = ("cox", "base", "elements", "position")

    def __init__(self, cox, base, elements, down, position):
        self.cox, self.base, self.position = cox, base, position
        self.elements = tuple(elements)
        super().__init__(map(word_label, self.elements),
                         rank=[w.length for w in self.elements], down=down)

    def by_length_word(self):
        """The positions by (length, canonical word), as output lists them."""
        return sorted(range(len(self)),
                      key=lambda i: (self.rank[i], self.elements[i].word))

    def to_poset(self):
        """The interval itself: it is already a LabeledPoset."""
        return self


def word_label(w):
    return ".".join(map(str, w.word)) or "e"


_DESCENT = {"right": cx.right_descent, "left": cx.left_descent}


def interval(m, word):
    """[1, w] for a reduced word w, with its order (see BruhatInterval):
    the identity grown by one letter step per letter of the word."""
    word = m.check_word(word)
    base = cx.identity_element(m)
    elems, position, down = [base], {base: 0}, [1]
    for s in word:
        base, _ = _letter_step(base, elems, position, down, s, "right")
    return BruhatInterval(m, base, elems, down, position)


def _letter_step(base, elems, position, down, s, side):
    """Grow [1, u] = (elems, position, down) in place to [1, us] (side
    "right") or [1, su] (side "left"), where u = base; returns the new base
    and the table `times`: times[k] is the position of elems[k]*s (or
    s*elems[k]) for every position k of the grown interval.

    For u < us, [1, us] = [1, u] | [1, u]s (Bjorner-Brenti 2.2.7).  With u
    the base this gives the new elements us; with each u whose us is new it
    gives that element's down-set, down(u) | down(u)s.  Inversion is a
    Bruhat automorphism, so on the left [1, su] = [1, u] | s[1, u] and
    down(su) = down(u) | s down(u).  Each new element gets its canonical
    word as it is made, read off the element below it, which u and the
    table give with no further product in most cases (cx.record_below).
    Works in infinite groups.
    """
    descent = _DESCENT[side]
    if descent(base, s):
        raise BruhatError("input word is not reduced")
    n = len(elems)
    times = [None] * n
    for i in range(n):
        if descent(elems[i], s):
            continue        # filled in from its product with s, which is below
        us = elems[i].times_gen(s, side)
        j = times[i] = position.setdefault(us, len(elems))
        if j == len(elems):
            elems.append(us)
        else:
            times[j] = i
    find = lambda x: elems[position[x]]
    image = lambda x: elems[times[position[x]]]
    for i in range(n):
        if times[i] >= n:       # a new element, over elems[i]
            ds = down[i]
            for k in ps._bits(down[i]):
                ds |= 1 << times[k]
            down.append(ds)
            times.append(i)
            cx.record_below(elems[times[i]], elems[i], s, side, image,
                            find)
    return base.times_gen(s, side), times


class BruhatPartition:
    """The blocks W1-W4 of [1, wbar*a] (side "right") or [1, a*wbar] (side
    "left") as int bitsets over its positions, [1, wbar] first, and Phi as
    a tuple of positions: w -> wa (resp. aw) on W1|W4, w on W2|W3."""

    __slots__ = ("a", "side", "W1", "W2", "W3", "W4", "phi",
                 "interval_wbar", "interval_wbara")

    def __init__(self, a, side, W1, W2, W3, W4, phi, iv, iva):
        self.a, self.side, self.phi = a, side, phi
        self.W1, self.W2, self.W3, self.W4 = W1, W2, W3, W4
        self.interval_wbar, self.interval_wbara = iv, iva


def partition(m, iv, a, side="right"):
    """The four blocks of [1, wbar*a] for a right multiplier a, or with
    side="left" of [1, a*wbar], by left products and left descents, where
    iv = [1, wbar] (a BruhatInterval in m).

    A copy of iv's elements and down-sets is grown by one letter step to
    [1, wbar*a], so W4, the new elements, is that list past len(iv); Phi,
    the descents and the W2/W3 split are read off the step's product
    table.  Requires wbar < wbar*a (the standing hypothesis wbar in W_a');
    the stated block identities and upper-set facts are verified.
    """
    if side not in _DESCENT:
        raise BruhatError('side must be "left" or "right", got %r' % (side,))
    if iv.cox != m:
        raise BruhatError("the interval is not in the given Coxeter group")
    if _DESCENT[side](iv.base, a):
        raise BruhatError("wbar*a < wbar: wbar must not have a as %s descent"
                          % side)
    elems, position, down = list(iv.elements), dict(iv.position), list(iv.down)
    base, times = _letter_step(iv.base, elems, position, down, a, side)
    iva = BruhatInterval(m, base, elems, down, position)
    n, rank = len(iv), iva.rank
    phi = tuple(t if rank[t] < rank[k] else k for k, t in enumerate(times))
    W1 = sum(1 << k for k in range(n) if phi[k] != k)
    W2 = sum(1 << k for k in range(n) if phi[k] == k and times[k] < n)
    part = BruhatPartition(a, side, W1, W2, (1 << n) - 1 ^ W1 ^ W2,
                           (1 << len(elems)) - (1 << n), phi, iv, iva)
    _check_partition(part)
    return part


def _check_partition(part):
    a, phi, descent = part.a, part.phi, _DESCENT[part.side]
    iv, iva = part.interval_wbar, part.interval_wbara
    image = lambda S: sum({1 << phi[i] for i in ps._bits(S)})
    if image(part.W1) != part.W2:
        raise BruhatError("W2 != m_a(W1)")
    if image(part.W4) != part.W3:
        raise BruhatError("W3 != m_a(W4)")
    old = part.W1 | part.W2 | part.W3
    if old != (1 << len(iv)) - 1 or iva.elements[:len(iv)] != iv.elements:
        raise BruhatError("W1|W2|W3 != [1,wbar]")
    if old | part.W4 != (1 << len(iva)) - 1:
        raise BruhatError("W1|..|W4 != [1,wbar*a]")
    for name, S, ivs in (("W3", part.W3, iv), ("W4", part.W4, iva),
                         ("W3|W4", part.W3 | part.W4, iva)):
        if not ps.is_upper_set(ivs, S):
            raise BruhatError("%s not upper in %s" % (
                name, "[1,wbar]" if ivs is iv else "[1,wbar*a]"))
    w14 = part.W1 | part.W4
    for i, w in enumerate(iva.elements):
        if (w14 >> i & 1) != descent(w, a):
            raise BruhatError("W1|W4 != [1,wbar*a] cap W_a")


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
