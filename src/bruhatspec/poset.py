"""Finite labeled posets: construction, Hasse reduction, products, unions,
upper sets, constrained isomorphism search, exports, and the pushout square
relating an interval [1, wbar*a] to copies of [1, wbar]."""

import json
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
    is set iff i <= j; `down[i]` is its transpose.  The order is checked to
    be reflexive, antisymmetric and transitive, and `hasse` (the cover pairs
    (i, j), sorted) is read off `up`.  `rank` is optional; when present
    every cover edge must raise it by exactly 1.
    """

    __slots__ = ("labels", "up", "down", "hasse", "rank", "_index")

    def __init__(self, labels, up, rank=None):
        self.labels = tuple(labels)
        self.up = tuple(up)
        self.rank = dict(rank) if rank is not None else None
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        n = len(self.labels)
        if len(self._index) != n:
            raise PosetError("duplicate labels")
        if len(self.up) != n or any(not 0 <= u < 1 << n for u in self.up):
            raise PosetError("up-sets do not match the %d labels" % n)
        down = [0] * n
        hasse = []
        for i, u in enumerate(self.up):
            if not u >> i & 1:
                raise PosetError("%r is not <= itself" % (self.labels[i],))
            strict = u & ~(1 << i)
            above = 0       # everything strictly above some j > i
            for j in _bits(strict):
                if self.up[j] >> i & 1:
                    raise PosetError("cycle through %r and %r"
                                     % (self.labels[i], self.labels[j]))
                if self.up[j] & ~u:
                    raise PosetError("order not transitive through %r"
                                     % (self.labels[j],))
                above |= self.up[j] & ~(1 << j)
            for j in _bits(u):
                down[j] |= 1 << i
            hasse.extend((i, j) for j in _bits(strict & ~above))
        self.down = tuple(down)
        self.hasse = tuple(hasse)
        if self.rank is not None:
            for a, b in self.hasse:
                if self.rank[b] != self.rank[a] + 1:
                    raise PosetError("cover edge %r->%r not rank-increasing by 1"
                                     % (self.labels[a], self.labels[b]))

    def __len__(self):
        return len(self.labels)

    def index(self, label):
        return self._index[label]

    def leq(self, a, b):
        """Compare by label."""
        return bool(self.up[self._index[a]] >> self._index[b] & 1)

    def rank_profile(self):
        if self.rank is None:
            raise PosetError("poset has no rank function")
        top = max(self.rank.values(), default=0)
        prof = [0] * (top + 1)
        for i in range(len(self.labels)):
            prof[self.rank[i]] += 1
        return tuple(prof)


def build(elements, relations, rank=None):
    """Poset from labels and generating relations (pairs of labels, a <= b):
    their reflexive-transitive closure, by Warshall's algorithm on bitsets.
    LabeledPoset rejects cycles and derives the Hasse edges."""
    labels = list(elements)
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise PosetError("duplicate labels")
    up = [1 << i for i in range(len(labels))]
    for a, b in relations:
        up[index[a]] |= 1 << index[b]
    for k in range(len(up)):
        bit = 1 << k
        for i, u in enumerate(up):
            if u & bit:
                up[i] = u | up[k]
    return LabeledPoset(labels, up, rank)


def product(P, Q):
    """Componentwise order on pairs; labels formatted '(p,q)'.  The pair
    (i, j) sits at position i*len(Q) + j."""
    m = len(Q)
    labels = ["(%s,%s)" % (lp, lq) for lp in P.labels for lq in Q.labels]
    up = [sum(uq << k * m for k in _bits(up_p))
          for up_p in P.up for uq in Q.up]
    rank = None
    if P.rank is not None and Q.rank is not None:
        rank = {i * m + j: P.rank[i] + Q.rank[j]
                for i in range(len(P)) for j in range(m)}
    return LabeledPoset(labels, up, rank)


def disjoint_union(P, Q):
    """Side-by-side union, no cross relations.  Colliding labels from Q get a
    deterministic ' (2)' suffix."""
    labels = list(P.labels)
    taken = set(labels)
    for l in Q.labels:
        while l in taken:
            l = l + " (2)"
        taken.add(l)
        labels.append(l)
    off = len(P)
    up = list(P.up) + [u << off for u in Q.up]
    rank = None
    if P.rank is not None and Q.rank is not None:
        rank = dict(P.rank)
        for j, r in Q.rank.items():
            rank[off + j] = r
    return LabeledPoset(labels, up, rank)


def two_chain():
    return build(["0", "1"], [("0", "1")], rank={0: 0, 1: 1})


def singleton(label="*"):
    return build([label], [], rank={0: 0})


def induced(P, labels):
    """Subposet on the given labels with the restricted order (no rank)."""
    keep = sorted({P.index(l) for l in labels})
    pos = {i: k for k, i in enumerate(keep)}
    up = [sum(1 << pos[j] for j in _bits(P.up[i]) if j in pos) for i in keep]
    return LabeledPoset([P.labels[i] for i in keep], up)


def is_upper_set(P, labels):
    """True iff the labeled subset is closed under going up."""
    mask = sum(1 << i for i in {P.index(l) for l in labels})
    return not any(P.up[i] & ~mask for i in _bits(mask))


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
        for v in self.assignment.values():
            target.index(v)  # raises on unknown target label
        self.order_preserving = _preserves(
            source, target, [self.assignment[l] for l in source.labels])
        image = set(self.assignment.values())
        self.injective = len(image) == len(source)
        self.surjective = len(image) == len(target)
        iso = self.injective and self.surjective and self.order_preserving
        if iso:
            inv = {v: k for k, v in self.assignment.items()}
            iso = _preserves(target, source, [inv[l] for l in target.labels])
        self.is_isomorphism = iso

    def __call__(self, label):
        return self.assignment[label]


def _preserves(P, Q, images):
    """True iff i <= j in P implies images[i] <= images[j] in Q (labels)."""
    f = [Q.index(l) for l in images]
    return all(Q.up[f[i]] >> f[j] & 1
               for i, u in enumerate(P.up) for j in _bits(u))


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
    cands = [sorted((j for j in range(n) if qsig[j] == psig[i]),
                    key=lambda j: Q.labels[j]) for i in range(n)]
    # targets strictly above, strictly below and incomparable to each j
    rel = [(u & ~d, d & ~u, ~(u | d)) for u, d in zip(Q.up, Q.down)]
    # depth-first over an explicit stack: stack[pos] holds the next
    # candidate index for order[pos] and the live bitsets it is tried with
    assign = {}
    stack = [[0, [sum(1 << j for j in c) for c in cands]]]
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
        nxt = list(live)
        for i2 in order[pos + 1:]:
            nxt[i2] &= (above if up_i >> i2 & 1 else
                        below if down_i >> i2 & 1 else apart)
            if not nxt[i2]:
                break
        else:
            assign[i] = j
            stack.append([0, nxt])
    if not stack:
        return None
    return PosetMap(P, Q, {P.labels[i]: Q.labels[j] for i, j in assign.items()})


def export(P, fmt):
    """Render to 'json' (schema with dense ids) or 'dot' (rank-layered)."""
    if fmt == "json":
        elems = [{"id": i, "label": P.labels[i],
                  "rank": P.rank[i] if P.rank is not None else None}
                 for i in range(len(P))]
        return json.dumps({"elements": elems,
                           "hasse": [list(e) for e in sorted(P.hasse)]},
                          indent=2, sort_keys=True)
    if fmt == "dot":
        lines = ["digraph poset {", "  rankdir=BT;",
                 '  node [shape=box, fontsize=10];']
        for i, lab in enumerate(P.labels):
            lines.append('  n%d [label="%s"];' % (i, lab.replace('"', r'\"')))
        if P.rank is not None:
            layers = {}
            for i in range(len(P)):
                layers.setdefault(P.rank[i], []).append(i)
            for r in sorted(layers):
                lines.append("  { rank=same; %s }"
                             % " ".join("n%d;" % i for i in layers[r]))
        for a, b in sorted(P.hasse):
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

    part = br.partition(m, wbar, a)
    wl = br.word_label
    Pw = part.interval_wbar.to_poset()
    Pwa = part.interval_wbara.to_poset()
    w2 = sorted(wl(w) for w in part.W2)
    w3 = sorted(wl(w) for w in part.W3)
    by_label = {wl(w): w for w in part.interval_wbara.elements}

    A = disjoint_union(induced(Pw, w3), product(induced(Pw, w2), two_chain()))
    B = product(induced(Pw, w2 + w3), two_chain())

    def times_a(label):
        return wl(by_label[label].times_gen(a))

    # nu1: identity on W3; (w,0) -> w; (w,1) -> w*a
    def unpair(label):
        base, eps = label[1:-1].rsplit(",", 1)
        return base, eps
    n1 = {}
    n2 = {}
    for l in A.labels:
        if l in set(w3):
            n1[l] = l
            n2[l] = "(%s,0)" % l
        else:
            base, eps = unpair(l)
            n1[l] = base if eps == "0" else times_a(base)
            n2[l] = l
    nu1 = PosetMap(A, Pw, n1)
    nu2 = PosetMap(A, B, n2)
    t = {}
    for l in B.labels:
        base, eps = unpair(l)
        t[l] = base if eps == "0" else times_a(base)
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


def from_json(text):
    d = json.loads(text)
    labels = [None] * len(d["elements"])
    rank = {}
    has_rank = True
    for e in d["elements"]:
        labels[e["id"]] = e["label"]
        if e.get("rank") is None:
            has_rank = False
        else:
            rank[e["id"]] = e["rank"]
    rels = [(labels[a], labels[b]) for a, b in d["hasse"]]
    return build(labels, rels, rank=rank if has_rank else None)
