"""An independent model of the benchmark's Coxeter groups.

Nothing here imports ``bruhatspec``.  Elements are windows of signed or
affine permutations (Bjorner-Brenti, *Combinatorics of Coxeter Groups*,
GTM 231, ch. 1-2 and sections 8.1-8.3):

- A_n: permutations of 1..n+1; s_i swaps positions i and i+1; the length
  is the inversion count.
- D_n: even signed permutations of 1..n (BB 8.2); the length is
  inv(w) + #{i < j : w(i) + w(j) < 0}.  The repository's D_n puts the fork
  at node 3, so its generator 1 is BB's s_0 = [-2, -1, 3, ..., n] and its
  generator k >= 2 is BB's s_{k-1}, the swap of positions k-1 and k.
- affine A2: bijections u of Z with u(i + 3) = u(i) + 3 and
  u(1) + u(2) + u(3) = 6, stored as the window (u(1), u(2), u(3)) (BB 8.3);
  the length is sum_{i<j} |floor((u(j) - u(i)) / 3)|.  The repository's
  triangle diagram is symmetric, so its generators 1, 2, 3 are taken as
  BB's s_1, s_2 and s_0.

Right multiplication by a generator acts on window positions.  [1, w] is
the set of subword products of a reduced word (subword property, BB 2.2.2),
and u is covered by v iff v = u t for a reflection t and l(v) = l(u) + 1
(BB 2.1 and 2.2.8).
"""

from itertools import combinations


class Group:
    """One of the model groups: 'A<n>', 'D<n>' or 'affineA2'."""

    def __init__(self, name):
        self.name = name
        if name == "affineA2":
            self.kind, self.rank, size = "affine", 3, 3
        elif name[:1] in ("A", "D") and name[1:].isdigit():
            self.kind, self.rank = name[0], int(name[1:])
            size = self.rank + 1 if self.kind == "A" else self.rank
            if self.rank < (4 if self.kind == "D" else 1):
                raise ValueError("unsupported group %r" % name)
        else:
            raise ValueError("unsupported group %r" % name)
        self.identity = tuple(range(1, size + 1))

    @property
    def generators(self):
        return range(1, self.rank + 1)

    def times_gen(self, w, i):
        """w * s_i for the repository's 1-based generator index i."""
        if not 1 <= i <= self.rank:
            raise ValueError("generator %r out of range" % (i,))
        w = list(w)
        if self.kind == "A":
            w[i - 1], w[i] = w[i], w[i - 1]
        elif self.kind == "D":
            if i == 1:
                w[0], w[1] = -w[1], -w[0]
            else:
                w[i - 2], w[i - 1] = w[i - 1], w[i - 2]
        elif i == 3:
            w[0], w[2] = w[2] - 3, w[0] + 3
        else:
            w[i - 1], w[i] = w[i], w[i - 1]
        return tuple(w)

    def length(self, w):
        pairs = list(combinations(range(len(w)), 2))
        if self.kind == "affine":
            return sum(abs((w[j] - w[i]) // 3) for i, j in pairs)
        inv = sum(1 for i, j in pairs if w[i] > w[j])
        if self.kind == "D":
            inv += sum(1 for i, j in pairs if w[i] + w[j] < 0)
        return inv

    def element(self, word):
        w = self.identity
        for i in word:
            w = self.times_gen(w, i)
        return w

    def is_reduced(self, word):
        return self.length(self.element(word)) == len(word)

    def differ_by_reflection(self, u, v):
        """True iff v = u t for some reflection t."""
        pos = [k for k in range(len(u)) if u[k] != v[k]]
        if len(pos) != 2:
            return False
        p, q = pos
        if self.kind == "A":
            return v[p] == u[q] and v[q] == u[p]
        if self.kind == "D":
            return (v[p], v[q]) in ((u[q], u[p]), (-u[q], -u[p]))
        shift = v[p] - u[q]
        return shift % 3 == 0 and u[p] - v[q] == shift


def parse_label(label):
    """The word of a label in the repository's format: dotted letters, or
    'e' for the empty word."""
    return () if label == "e" else tuple(int(t) for t in label.split("."))


class Interval:
    """[1, w] for a reduced word of the model group."""

    def __init__(self, group, word):
        if not group.is_reduced(word):
            raise ValueError("word %r is not reduced in %s" % (word, group.name))
        self.group = group
        self.word = tuple(word)
        elems = {group.identity}
        for i in word:
            elems |= {group.times_gen(x, i) for x in elems}
        self.length = {x: group.length(x) for x in elems}
        self.top = group.element(word)

    def __len__(self):
        return len(self.length)

    def rank_profile(self):
        prof = [0] * (self.length[self.top] + 1)
        for r in self.length.values():
            prof[r] += 1
        return tuple(prof)

    def covers(self):
        """All pairs (u, v) of the interval with u covered by v."""
        by_rank = {}
        for x, r in self.length.items():
            by_rank.setdefault(r, []).append(x)
        g = self.group
        return {(u, v)
                for r in range(self.length[self.top])
                for u in by_rank[r] for v in by_rank[r + 1]
                if g.differ_by_reflection(u, v)}


def elements_by_length(group, bound):
    """Lists of the elements of each length 0..bound, each list sorted."""
    layers = [[group.identity]]
    seen = {group.identity}
    for length in range(1, bound + 1):
        nxt = set()
        for w in layers[-1]:
            for i in group.generators:
                x = group.times_gen(w, i)
                if x not in seen and group.length(x) == length:
                    nxt.add(x)
        seen |= nxt
        layers.append(sorted(nxt))
    return layers


def random_reduced_word(group, w, rng):
    """A reduced word for w, read off a walk down from w that strips a
    right descent chosen uniformly at each step."""
    word = []
    for cur in range(group.length(w), 0, -1):
        i, w = rng.choice([(i, x) for i, x in
                           ((i, group.times_gen(w, i)) for i in group.generators)
                           if group.length(x) < cur])
        word.append(i)
    return tuple(reversed(word))
