"""Independent Bruhat-order oracle for symmetric groups and type D.

Deliberately avoids the package under test: elements are permutations of
{0..n-1}, s_i is the transposition (i-1, i), length is inversion count, and
u <= v is decided by enumerating all subwords of a reduced word for v.

Type D_n elements are even signed permutations of 1..n, stored as windows
(Bjorner-Brenti, Combinatorics of Coxeter Groups, 8.2), with the package's
fork at node 3: generator 1 is [-2, -1, 3, ..., n] and generator k >= 2
swaps positions k-1 and k.  The length is
inv(w) + #{i < j : w(i) + w(j) < 0}.

Affine type A_{n-1} elements are affine permutations of the integers, with
w(i + n) = w(i) + n, stored as windows [w(1), ..., w(n)] (Bjorner-Brenti
8.3): generator k < n swaps positions k and k+1, and generator n is s_0,
which swaps positions 0 and 1.  The length is the sum over i < j of
|floor((w(j) - w(i)) / n)|.  For n = 3 this is the package's affineA2,
whose three generators pairwise have m = 3.
"""

from itertools import permutations


def compose(p, q):
    """(p . q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def gen(n, i):
    """The transposition s_i (1-based) as a permutation of {0..n-1}."""
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def perm_of_word(n, word):
    p = tuple(range(n))
    for i in word:
        p = compose(p, gen(n, i))
    return p


def inversions(p):
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
               if p[i] > p[j])


def reduced_word(p):
    """Any reduced word, by greedily removing right descents."""
    p = list(p)
    word = []
    while inversions(tuple(p)) > 0:
        for i in range(1, len(p)):
            if p[i - 1] > p[i]:
                p[i - 1], p[i] = p[i], p[i - 1]
                word.append(i)
                break
    word.reverse()
    return tuple(word)


def bruhat_leq_oracle(u, v):
    """u <= v iff u equals the product of some subword of a reduced word of v."""
    word = reduced_word(v)
    n = len(v)
    k = len(word)
    for mask in range(1 << k):
        sub = tuple(word[i] for i in range(k) if mask >> i & 1)
        if perm_of_word(n, sub) == u:
            return True
    return False


def all_perms(n):
    return list(permutations(range(n)))


def d_times_gen(w, i):
    """w * s_i for an even signed permutation window w."""
    w = list(w)
    if i == 1:
        w[0], w[1] = -w[1], -w[0]
    else:
        w[i - 2], w[i - 1] = w[i - 1], w[i - 2]
    return tuple(w)


def d_of_word(n, word):
    w = tuple(range(1, n + 1))
    for i in word:
        w = d_times_gen(w, i)
    return w


def d_length(w):
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n)
               if w[i] > w[j]) + \
        sum(1 for i in range(n) for j in range(i + 1, n) if w[i] + w[j] < 0)


def affine_times_gen(w, k):
    """w * s_k for an affine permutation window w; k = len(w) is s_0."""
    n = len(w)
    w = list(w)
    if k < n:
        w[k - 1], w[k] = w[k], w[k - 1]
    else:
        w[0], w[n - 1] = w[n - 1] - n, w[0] + n
    return tuple(w)


def affine_of_word(n, word):
    w = tuple(range(1, n + 1))
    for k in word:
        w = affine_times_gen(w, k)
    return w


def affine_length(w):
    n = len(w)
    return sum(abs((w[j] - w[i]) // n)
               for i in range(n) for j in range(i + 1, n))


def interval_profile(word, of_word, length):
    """Rank profile of [e, w] for a reduced word of w: the distinct subword
    products (subword property), counted by length."""
    k = len(word)
    elems = {of_word(tuple(word[i] for i in range(k) if mask >> i & 1))
             for mask in range(1 << k)}
    prof = [0] * (k + 1)
    for u in elems:
        prof[length(u)] += 1
    return prof


def interval_order(word, of_word):
    """Bruhat order on [e, w] for a reduced word of w, by the subword
    property alone: each subword product y maps to the products of the
    subwords of a shortest subword giving y.  That subword is a reduced word
    of y, so its subword products are exactly the elements below y."""
    shortest = {}
    for mask in range(1 << len(word)):
        sub = tuple(x for i, x in enumerate(word) if mask >> i & 1)
        y = of_word(sub)
        if y not in shortest or len(sub) < len(shortest[y]):
            shortest[y] = sub
    return {y: {of_word(tuple(x for i, x in enumerate(sub) if mask >> i & 1))
                for mask in range(1 << len(sub))}
            for y, sub in shortest.items()}
