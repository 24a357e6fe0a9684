"""Reference versions of checks the package does a faster way.

`poset.LabeledPoset` checks an order and reads its covers in about one step
per cover edge, and `poset._preserves` and `poset.is_isomorphism` test a
map, given as positions, on cover edges only.  The functions here do the
same jobs the plain way, one step per relation and on labels, so property
tests can hold the fast checks to the same verdicts, messages and results.  `in_ideal` is the recursive ideal membership that
`spectra.in_ideal` replaced by an iterative closure.
"""

from bruhatspec.poset import PosetError


def _bits(x):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def order_scan(labels, up, rank=None):
    """(down, hasse) of the order on `labels` given by the int bitsets `up`,
    or PosetError naming its first fault.  Each row is checked in index
    order: i <= i, then for every j above i no cycle and up(j) inside
    up(i); the covers of i are the j above i lying above no other such j,
    and a rank must rise by 1 along each cover."""
    labels = tuple(labels)
    n = len(labels)
    if len(set(labels)) != n:
        raise PosetError("duplicate labels")
    if len(up) != n or any(not 0 <= u < 1 << n for u in up):
        raise PosetError("up-sets do not match the %d labels" % n)
    down = [0] * n
    hasse = []
    for i, u in enumerate(up):
        if not u >> i & 1:
            raise PosetError("%r is not <= itself" % (labels[i],))
        strict = u & ~(1 << i)
        above = 0
        for j in _bits(strict):
            if up[j] >> i & 1:
                raise PosetError("cycle through %r and %r"
                                 % (labels[i], labels[j]))
            if up[j] & ~u:
                raise PosetError("order not transitive through %r"
                                 % (labels[j],))
            above |= up[j] & ~(1 << j)
        for j in _bits(u):
            down[j] |= 1 << i
        hasse.extend((i, j) for j in _bits(strict & ~above))
    if rank is not None:
        for a, b in hasse:
            if rank[b] != rank[a] + 1:
                raise PosetError("cover edge %r->%r not rank-increasing by 1"
                                 % (labels[a], labels[b]))
    return tuple(down), tuple(hasse)


def preserves_scan(P, Q, images):
    """True iff every relation i <= j of P has images[i] <= images[j] in Q
    (images are Q's labels)."""
    f = [Q.index(l) for l in images]
    return all(Q.up[f[i]] >> f[j] & 1
               for i, u in enumerate(P.up) for j in _bits(u))


def symbol_in_ideal(sym, gens, expansions, seen=frozenset()):
    """A symbol lies in <gens> if it is listed, or if its declared expansion
    has every summand monomial in the ideal; a symbol met again on the same
    path counts as outside."""
    if sym in gens:
        return True
    if sym in seen or sym not in expansions:
        return False
    return all(in_ideal(m, gens, expansions, seen | {sym})
               for m in expansions[sym])


def in_ideal(m, gens, expansions=None, seen=frozenset()):
    """Some factor of the monomial m lies in <gens>."""
    return any(symbol_in_ideal(s, gens, expansions or {}, seen) for s in m)
