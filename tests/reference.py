"""Reference order checks that walk every relation.

`poset.LabeledPoset` checks an order and reads its covers in about one step
per cover edge, and `poset._preserves` tests a map on cover edges only.
The functions here do the same jobs the plain way, one step per relation,
so property tests can hold the fast checks to the same verdicts, messages
and results.
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
