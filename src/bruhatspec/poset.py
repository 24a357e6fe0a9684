"""Finite labeled posets: construction, Hasse reduction, products, unions,
upper sets, constrained isomorphism search, exports, and the pushout square
relating an interval [1, wbar*a] to copies of [1, wbar]."""

from collections import Counter


class PosetError(ValueError):
    pass


def _bits(x):
    """Positions of the set bits of the int x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class LabeledPoset:
    """Finite poset over opaque string labels.

    Elements are dense indices 0..n-1.  `up[i]` is an int bitset whose bit j
    is set iff i <= j; `down[i]` is its transpose.  The order, given by
    `up` or `down`, is checked to be reflexive, antisymmetric and
    transitive, and `hasse` (the cover pairs (i, j), sorted) is read off
    it, or all three are taken from `like`, a checked poset with these
    down-sets and ranks.  `rank` is optional: a tuple indexed by position,
    like `labels`, that every cover edge must raise by exactly 1.
    """

    __slots__ = ("labels", "up", "down", "hasse", "rank", "_index")

    def __init__(self, labels, up=None, rank=None, down=None, like=None):
        self.labels = tuple(labels)
        sets = tuple(up if down is None else down)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        n = len(self.labels)
        if len(self._index) != n:
            raise PosetError("duplicate labels")
        if len(sets) != n or any(not 0 <= u < 1 << n for u in sets):
            raise PosetError("%s-sets do not match the %d labels"
                             % ("up" if down is None else "down", n))
        if isinstance(rank, dict):
            raise PosetError("rank must be a sequence by position, not a dict")
        self.rank = None if rank is None else tuple(rank)
        if self.rank is not None and len(self.rank) != n:
            raise PosetError("rank has %d entries for the %d labels"
                             % (len(self.rank), n))
        for lab, r in zip(self.labels, self.rank or ()):
            if type(r) is not int or r < 0:
                raise PosetError("rank of %r must be a non-negative integer, "
                                 "got %r" % (lab, r))
        if like is not None and down is not None and \
                (sets, self.rank) == (like.down, like.rank):
            self.up, self.down, self.hasse = like.up, like.down, like.hasse
            return
        found = _checked_covers(sets)
        if found is None:
            _raise_order_fault(self.labels, sets)
        other, covers = found
        self.up, self.down = (sets, other) if down is None else (other, sets)
        self.hasse = tuple(sorted((i, j)[::1 if down is None else -1]
                                  for i, c in enumerate(covers)
                                  for j in _bits(c)))
        if self.rank is not None:
            for a, b in self.hasse:
                if self.rank[b] != self.rank[a] + 1:
                    raise PosetError("cover edge %r->%r not rank-increasing by 1"
                                     % (self.labels[a], self.labels[b]))

    def __len__(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise PosetError("unknown label %r" % (label,)) from None

    def leq(self, a, b):
        """Compare by label."""
        return bool(self.up[self._index[a]] >> self._index[b] & 1)

    def rank_profile(self):
        if self.rank is None:
            raise PosetError("poset has no rank function")
        prof = [0] * (max(self.rank, default=0) + 1)
        for r in self.rank:
            prof[r] += 1
        return tuple(prof)


def reindexed(P, f):
    """P with position i holding P's element f[i], f a permutation of P's
    positions; the order is checked again."""
    inv = {j: i for i, j in enumerate(f)}
    down = [sum(1 << inv[k] for k in _bits(P.down[j])) for j in f]
    return LabeledPoset([P.labels[j] for j in f], down=down,
                        rank=P.rank and [P.rank[j] for j in f])


def _checked_covers(down):
    """(up, covers) of the order given by the down-sets `down`, covers[i]
    the lower covers of i; None unless the order is reflexive,
    antisymmetric and transitive.  Those are self-dual: given up-sets it
    returns the down-sets and upper covers.  In row i the highest j left in
    down(i) - {i} is taken, checked (i not in down(j), down(j) inside
    down(i)) and all of down(j) removed: its down-set is smaller, so by
    induction its own row vouches for it.  Taken j below no other taken j
    are the covers.  In a linear extension, such as the letter step's
    order, each taken j is a cover, so a row costs a few int operations
    per cover rather than one per relation."""
    n = len(down)
    if any(not d >> i & 1 for i, d in enumerate(down)):
        return None
    covers = [0] * n
    for i, d in enumerate(down):
        rest = d ^ 1 << i
        taken = below = 0
        while rest:
            j = rest.bit_length() - 1
            dj, high = down[j], 1 << j
            if dj >> i & 1 or dj & ~d:
                return None
            taken |= high
            below |= dj ^ high
            rest &= ~dj
        covers[i] = taken & ~below
    up = [1 << i for i in range(n)]
    for i in sorted(range(n), key=lambda i: -down[i].bit_count()):
        for j in _bits(covers[i]):
            up[j] |= up[i]
    return tuple(up), covers


def _raise_order_fault(labels, up):
    """Raise the first fault of the up-sets (or down-sets) `up`, scanning
    every relation row by row: i <= i, then for each j above i no cycle
    and up(j) inside up(i).  Run only once _checked_covers has found a
    fault, so that the message names the same fault whatever it met."""
    for i, u in enumerate(up):
        if not u >> i & 1:
            raise PosetError("%r is not <= itself" % (labels[i],))
        for j in _bits(u & ~(1 << i)):
            if up[j] >> i & 1:
                raise PosetError("cycle through %r and %r"
                                 % (labels[i], labels[j]))
            if up[j] & ~u:
                raise PosetError("order not transitive through %r"
                                 % (labels[j],))


def build(elements, relations, rank=None):
    """Poset from labels and generating relations (pairs of labels, a <= b):
    their reflexive-transitive closure, by Warshall's algorithm on bitsets.
    LabeledPoset rejects duplicate labels and cycles, and derives the
    Hasse edges."""
    labels = list(elements)
    index = {lab: i for i, lab in enumerate(labels)}
    down = [1 << i for i in range(len(labels))]
    for a, b in relations:
        down[index[b]] |= 1 << index[a]
    for k in range(len(down)):
        bit = 1 << k
        for i, d in enumerate(down):
            if d & bit:
                down[i] = d | down[k]
    return LabeledPoset(labels, rank=rank, down=down)


def product(P, Q):
    """Componentwise order on pairs; labels formatted '(p,q)'.  The pair
    (i, j) sits at position i*len(Q) + j."""
    m = len(Q)
    labels = ["(%s,%s)" % (lp, lq) for lp in P.labels for lq in Q.labels]
    down = [sum(dq << k * m for k in _bits(dp))
            for dp in P.down for dq in Q.down]
    rank = None
    if P.rank is not None and Q.rank is not None:
        rank = [rp + rq for rp in P.rank for rq in Q.rank]
    return LabeledPoset(labels, rank=rank, down=down)


def disjoint_union(P, Q):
    """Side-by-side union, no cross relations.  The labels of P and Q must
    be disjoint (LabeledPoset rejects duplicate labels)."""
    labels = P.labels + Q.labels
    off = len(P)
    down = list(P.down) + [d << off for d in Q.down]
    rank = None
    if P.rank is not None and Q.rank is not None:
        rank = P.rank + Q.rank
    return LabeledPoset(labels, rank=rank, down=down)


def two_chain():
    return build(["0", "1"], [("0", "1")], rank=(0, 1))


def singleton(label="*"):
    return build([label], [], rank=(0,))


def induced(P, labels):
    """Subposet on the given labels with the restricted order (no rank)."""
    keep = sorted({P.index(l) for l in labels})
    pos = {i: k for k, i in enumerate(keep)}
    down = [sum(1 << pos[j] for j in _bits(P.down[i]) if j in pos)
            for i in keep]
    return LabeledPoset([P.labels[i] for i in keep], down=down)


def is_upper_set(P, S):
    """True iff S, a set of P's positions as an int bitset, is closed under
    going up."""
    return not any(P.up[i] & ~S for i in _bits(S))


class PosetMap:
    """Map between posets with recomputed structural flags."""

    __slots__ = ("source", "target", "assignment",
                 "order_preserving", "injective", "surjective", "is_isomorphism")

    def __init__(self, source, target, assignment):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)
        missing = set(source.labels) - set(self.assignment)
        if missing:
            raise PosetError("map not total; missing %r" % (sorted(missing)[:3],))
        extra = set(self.assignment) - set(source.labels)
        if extra:
            raise PosetError("map has keys outside its source: %r"
                             % (sorted(extra, key=str)[:3],))
        # index() looks up every image, so an unknown target label raises
        f = [target.index(self.assignment[l]) for l in source.labels]
        image = set(f)
        self.injective = len(image) == len(source)
        self.surjective = len(image) == len(target)
        self.is_isomorphism = is_isomorphism(source, target, f)
        self.order_preserving = self.is_isomorphism or \
            _preserves(source, target, f)

    def __call__(self, label):
        return self.assignment[label]


def _preserves(P, Q, f):
    """True iff i <= j in P implies f[i] <= f[j] in Q (positions).  P's
    order is the reflexive-transitive closure of its cover edges and Q's is
    reflexive and transitive, so the cover edges suffice."""
    return all(Q.up[f[i]] >> f[j] & 1 for i, j in P.hasse)


def is_isomorphism(P, Q, f):
    """True iff f, a sequence of Q's positions indexed by P's, is a
    bijection onto Q that sends P's cover edges into Q's order and whose
    inverse sends Q's cover edges into P's order."""
    n = len(P)
    if len(Q) != n or len(f) != n or set(f) != set(range(n)):
        return False
    inv = [0] * n
    for i, j in enumerate(f):
        inv[j] = i
    return _preserves(P, Q, f) and _preserves(Q, P, inv)


def _signatures(P, block_of):
    covers_up, covers_dn = [0] * len(P), [0] * len(P)
    for a, b in P.hasse:
        covers_up[a] += 1
        covers_dn[b] += 1
    return [(block_of.get(i, -1), P.down[i].bit_count(), P.up[i].bit_count(),
             covers_dn[i], covers_up[i]) for i in range(len(P))]


def find_isomorphism(P, Q, constraints=()):
    """Isomorphism P -> Q mapping each constraint block onto its partner block,
    or None.  Deterministic: elements assigned in a fixed order, candidates
    tried in label-lexicographic order.

    Each unassigned element keeps a bitset of the targets still open to it:
    its signature class, minus the used targets, narrowed on each assignment
    i -> j to those related to j as the element is related to i.  A branch
    ends as soon as some element has no target left.  The search keeps its
    own stack, so its depth is not limited by Python's recursion limit.
    """
    n = len(P)
    if n != len(Q):
        return None
    pblock, qblock = {}, {}
    for b, (ps, qs) in enumerate(constraints):
        ps_idx = {P.index(l) for l in ps}
        qs_idx = {Q.index(l) for l in qs}
        if len(ps_idx) != len(qs_idx):
            return None
        for i in ps_idx:
            if pblock.setdefault(i, b) != b:
                raise PosetError("constraint blocks overlap in source")
        for j in qs_idx:
            if qblock.setdefault(j, b) != b:
                raise PosetError("constraint blocks overlap in target")
    psig = _signatures(P, pblock)
    qsig = _signatures(Q, qblock)
    if Counter(psig) != Counter(qsig):
        return None
    # assign elements ordered by candidate-set scarcity proxy: |down| then label
    order = sorted(range(n), key=lambda i: (psig[i][1], P.labels[i]))
    # one candidate list per signature class, shared by its elements
    by_sig = {}
    for j in sorted(range(n), key=lambda j: Q.labels[j]):
        by_sig.setdefault(qsig[j], []).append(j)
    cands = [by_sig[psig[i]] for i in range(n)]
    masks = {sig: sum(1 << j for j in c) for sig, c in by_sig.items()}
    # targets strictly above, strictly below and incomparable to each j
    rel = [(u & ~d, d & ~u, ~(u | d)) for u, d in zip(Q.up, Q.down)]
    # depth-first over an explicit stack: stack[pos] holds the next
    # candidate index for order[pos] and the live bitsets it is tried with.
    # Equal live bitsets within one frame are one int object, so a frame
    # costs a list of references rather than n fresh n-bit ints.
    assign = {}
    stack = [[0, [masks[psig[i]] for i in range(n)]]]
    while stack and len(stack) <= n:
        pos = len(stack) - 1
        frame, i = stack[pos], order[pos]
        k, live = frame
        if k == len(cands[i]):
            stack.pop()
            continue
        frame[0] = k + 1
        j = cands[i][k]
        if not live[i] >> j & 1:
            continue
        above, below, apart = rel[j]
        up_i, down_i = P.up[i], P.down[i]
        nxt, same = list(live), {}
        for i2 in order[pos + 1:]:
            v = nxt[i2] & (above if up_i >> i2 & 1 else
                           below if down_i >> i2 & 1 else apart)
            if not v:
                break
            nxt[i2] = same.setdefault(v, v)
        else:
            assign[i] = j
            stack.append([0, nxt])
    if not stack:
        return None
    return PosetMap(P, Q, {P.labels[i]: Q.labels[j] for i, j in assign.items()})


def export(P, fmt, order=None):
    """Render to 'json' (schema with dense ids) or 'dot' (rank-layered);
    id k is P's position order[k] (by default k), so that ids can follow
    another order than the one P was grown in (see cli)."""
    order = range(len(P)) if order is None else order
    ids = {p: k for k, p in enumerate(order)}
    hasse = sorted((ids[a], ids[b]) for a, b in P.hasse)
    if fmt == "json":
        import json
        elems = [{"id": k, "label": P.labels[p],
                  "rank": P.rank[p] if P.rank is not None else None}
                 for k, p in enumerate(order)]
        return json.dumps({"elements": elems,
                           "hasse": [list(e) for e in hasse]},
                          indent=2, sort_keys=True)
    if fmt == "dot":
        lines = ["digraph poset {", "  rankdir=BT;",
                 '  node [shape=box, fontsize=10];']
        for k, p in enumerate(order):
            esc = P.labels[p].replace("\\", r"\\").replace('"', r'\"')
            lines.append('  n%d [label="%s"];' % (k, esc))
        if P.rank is not None:
            layers = {}
            for k, p in enumerate(order):
                layers.setdefault(P.rank[p], []).append(k)
            for r in sorted(layers):
                lines.append("  { rank=same; %s }"
                             % " ".join("n%d;" % k for k in layers[r]))
        for a, b in hasse:
            lines.append("  n%d -> n%d;" % (a, b))
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise PosetError("unknown export format %r" % (fmt,))


def pushout_square(m, wbar, a):
    """Instance check of the pushout square for [1, wbar*a].

    Builds W3 | (W2 x 2), (W2|W3) x 2, [1,wbar], [1,wbar*a] and the maps
    nu1, nu2, top, inclusion; verifies the bijectivity/order-preservation
    claims, commutativity, and that the inverse of top is order-preserving
    on each descent class.  Returns a report dict.
    """
    from . import bruhat as br
    from . import coxeter as cx

    part = br.partition(m, br.interval(m, wbar), a)
    wl = br.word_label
    Pw, Pwa = part.interval_wbar, part.interval_wbara
    by_label = dict(zip(Pwa.labels, Pwa.elements))
    labels = lambda S: [Pw.labels[i] for i in _bits(S)]
    I2, I3 = induced(Pw, labels(part.W2)), induced(Pw, labels(part.W3))
    I23 = induced(Pw, labels(part.W2 | part.W3))
    A = disjoint_union(I3, product(I2, two_chain()))
    B = product(I23, two_chain())
    # w*a for each w in W2|W3, formed once, by the group's own product
    wa = {l: wl(by_label[l].times_gen(a)) for l in I23.labels}
    # product(Q, two_chain()) puts (w, eps) at 2*Q.index(w) + eps, so the
    # images of its labels under (w,0) -> w, (w,1) -> w*a are, in order:
    images = lambda Q: [x for l in Q.labels for x in (l, wa[l])]
    # nu1: identity on W3, then W2 x 2 -> [1,wbar]; nu2: w in W3 -> (w,0),
    # identity on W2 x 2; top: (W2|W3) x 2 -> [1,wbar*a]
    nu1 = PosetMap(A, Pw, dict(zip(A.labels, I3.labels + tuple(images(I2)))))
    w3_0 = [B.labels[2 * I23.index(l)] for l in I3.labels]
    nu2 = PosetMap(A, B, dict(zip(A.labels, w3_0 + list(A.labels[len(I3):]))))
    t = dict(zip(B.labels, images(I23)))
    top = PosetMap(B, Pwa, t)
    incl = PosetMap(Pw, Pwa, {l: l for l in Pw.labels})

    square = all(top(nu2(l)) == incl(nu1(l)) for l in A.labels)
    tinv = {v: k for k, v in t.items()}
    desc = [cx.right_descent(by_label[u], a) for u in Pwa.labels]
    restr_ok = all(B.leq(tinv[Pwa.labels[i]], tinv[Pwa.labels[j]])
                   for i, u in enumerate(Pwa.up)
                   for j in _bits(u & ~(1 << i)) if desc[i] == desc[j])
    checks = {
        "nu1_bijective_op": nu1.injective and nu1.surjective and nu1.order_preserving,
        "nu2_injective_op": nu2.injective and nu2.order_preserving,
        "top_bijective_op": top.injective and top.surjective and top.order_preserving,
        "square_commutes": square,
        "top_inverse_restrictions_op": restr_ok,
    }
    checks["ok"] = all(checks.values())
    checks["sizes"] = {"A": len(A), "B": len(B),
                       "interval_wbar": len(Pw), "interval_wbara": len(Pwa)}
    return checks

