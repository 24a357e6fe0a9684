"""Exact crystallographic Coxeter groups via the integer reflection representation.

Elements are stored as integer matrices acting on the root lattice, together
with their length; the canonical (lexicographically least) reduced word is
set inside an interval by the letter step that makes the element, from the
element below it, and otherwise computed when first read.  All arithmetic
is exact, so finite and affine groups are handled uniformly.
"""

INF = 0  # Coxeter matrix entry m_ij = infinity (also the JSON encoding)

_ALLOWED_OFFDIAG = {2, 3, 4, 6, INF}

# Cartan integer pairs (c_ij, c_ji) for each bond label; the reflection is
# s_i(alpha_j) = alpha_j - c_ij * alpha_i.  Crystallographic labels only.
_CARTAN_PAIR = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3), INF: (-2, -2)}


class CoxeterError(ValueError):
    pass


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a, b):
    n = len(a)
    rng = range(n)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in rng) for j in rng) for i in rng
    )


class CoxeterMatrix:
    """Symmetric matrix of bond labels m_ij in {1,2,3,4,6,INF}, 1-based
    generators.  Immutable; equality and hashing read (n, entries)."""

    def __init__(self, n, entries):
        if type(n) is not int:
            raise CoxeterError("rank must be an integer, got %r" % (n,))
        if n < 1 or len(entries) != n:
            raise CoxeterError("rank/entry shape mismatch")
        for i, row in enumerate(entries):
            if len(row) != n:
                raise CoxeterError("entries must be square")
            if set(map(type, row)) != {int}:
                j = next(j for j, x in enumerate(row) if type(x) is not int)
                raise CoxeterError("entry (%d,%d) must be an integer, got %r"
                                   % (i + 1, j + 1, row[j]))
            if row[i] != 1:
                raise CoxeterError("diagonal entries must be 1")
            for j in range(i):      # row j is checked; symmetry covers j > i
                if row[j] != entries[j][i]:
                    raise CoxeterError("Coxeter matrix must be symmetric")
                if row[j] not in _ALLOWED_OFFDIAG:
                    raise CoxeterError(
                        "non-crystallographic bond label %r at (%d,%d)"
                        % (row[j], j + 1, i + 1)
                    )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_reflections", None)

    def __setattr__(self, name, value):
        raise AttributeError("CoxeterMatrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("CoxeterMatrix is immutable")

    # GroupElement's == and hash call these on every comparison
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.entries) == (other.n, other.entries)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.entries))

    def __repr__(self):
        return "CoxeterMatrix(n=%r, entries=%r)" % (self.n, self.entries)

    @property
    def generators(self):
        return range(1, self.n + 1)

    def reflection(self, i):
        """Matrix of the simple reflection s_i on the root lattice (i is
        1-based).  All n are built on the first call and kept on the matrix,
        so that making a matrix costs no more than checking it."""
        if not 1 <= i <= self.n:
            raise CoxeterError("invalid generator index %r" % (i,))
        if self._reflections is None:
            # s_i(alpha_j) = alpha_j - c_ij alpha_i, c_ii = 2: only row i moves
            n = self.n
            rows = [[-1 if a == b else 0 for b in range(n)] for a in range(n)]
            for a in range(n):
                for b in range(a + 1, n):
                    cab, cba = _CARTAN_PAIR[self.entries[a][b]]
                    rows[a][b] = -cab
                    rows[b][a] = -cba
            ident = _identity(n)
            object.__setattr__(self, "_reflections", tuple(
                ident[:a] + (tuple(rows[a]),) + ident[a + 1:]
                for a in range(n)))
        return self._reflections[i - 1]

    def check_word(self, word):
        for letter in word:
            if not 1 <= letter <= self.n:
                raise CoxeterError("invalid generator index %r" % (letter,))
        return tuple(word)

    @classmethod
    def from_json_dict(cls, d):
        """The matrix of a JSON object {"rank": n, "m": rows}."""
        if not isinstance(d, dict) or not {"rank", "m"} <= d.keys():
            raise CoxeterError("a Coxeter matrix is an object with rank "
                               "and m")
        if not isinstance(d["m"], (list, tuple)):
            raise CoxeterError("m must be a list of rows")
        for k, row in enumerate(d["m"], 1):
            if not isinstance(row, (list, tuple)):
                raise CoxeterError("row %d of m must be a list" % k)
        return cls(d["rank"], tuple(map(tuple, d["m"])))


# The largest rank builtin_matrix makes: its n reflection matrices hold n^3
# entries, so a larger rank is refused before anything is allocated.
MAX_BUILTIN_RANK = 64


def builtin_matrix(family, rank=None):
    """The shipped Dynkin types: A_n (chain), D_k (fork at node 3), affine A2,
    of rank at most MAX_BUILTIN_RANK."""
    if rank is not None and rank > MAX_BUILTIN_RANK:
        raise CoxeterError("a builtin matrix has rank at most %d"
                           % MAX_BUILTIN_RANK)
    if family == "A":
        if rank is None or rank < 1:
            raise CoxeterError("type A requires rank >= 1")
        ent = [[2] * rank for _ in range(rank)]
        for i in range(rank):
            ent[i][i] = 1
        for i in range(rank - 1):
            ent[i][i + 1] = ent[i + 1][i] = 3
        return CoxeterMatrix(rank, tuple(tuple(r) for r in ent))
    if family == "D":
        if rank is None or rank < 4:
            raise CoxeterError("type D requires at least 4 nodes")
        ent = [[2] * rank for _ in range(rank)]
        for i in range(rank):
            ent[i][i] = 1
        edges = [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, rank)]
        for a, b in edges:
            ent[a - 1][b - 1] = ent[b - 1][a - 1] = 3
        return CoxeterMatrix(rank, tuple(tuple(r) for r in ent))
    if family == "affineA2":
        if rank not in (None, 3):
            raise CoxeterError("affine A2 has rank 3")
        return CoxeterMatrix(3, ((1, 3, 3), (3, 1, 3), (3, 3, 1)))
    raise CoxeterError("unknown family %r" % (family,))


def matrix_by_name(name):
    """Parse builtin names 'A<k>', 'D<k>', 'affineA2'."""
    if name == "affineA2":
        return builtin_matrix("affineA2")
    if len(name) >= 2 and name[0] in "AD" and name[1:].isdecimal():
        digits = name[1:].lstrip("0")
        # more digits than the cap has is over it (and int() refuses a
        # string of more than 4300 digits)
        if len(digits) > len(str(MAX_BUILTIN_RANK)):
            return builtin_matrix(name[0], MAX_BUILTIN_RANK + 1)
        return builtin_matrix(name[0], int(digits or "0"))
    raise CoxeterError("unknown builtin matrix name %r" % (name,))


class GroupElement:
    """A Coxeter group element: its reflection-representation matrix and
    that matrix's inverse.  Hashable; == and hash read (cox, matrix).

    `word`, the lexicographically least reduced word, is set by
    `record_below` for an element a letter step makes, and otherwise
    computed on first read and kept on the element.  `length` is carried:
    `identity_element` starts at 0 and `times_gen` moves it by one, down
    when s_i is a descent on its side, so reading it forces no word.  An
    element made by calling GroupElement itself carries no length, and
    reads it off its word.  `_below` is (i, s_i*w) for w's least left
    descent i, recorded with the word; None until then."""

    __slots__ = ("cox", "matrix", "matrix_inv", "_length", "_word", "_below")

    def __init__(self, cox, matrix, matrix_inv):
        self.cox = cox
        self.matrix = matrix
        self.matrix_inv = matrix_inv
        self._length = None
        self._word = None
        self._below = None

    @property
    def word(self):
        if self._word is None:
            self._word = _canonical_word(self.cox, self.matrix,
                                         self.matrix_inv, self._length)
            self._length = len(self._word)
        return self._word

    @property
    def length(self):
        if self._length is None:
            return len(self.word)
        return self._length

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.cox == other.cox
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.cox, self.matrix))

    def __repr__(self):
        return "GroupElement(%s)" % (".".join(map(str, self.word)) or "e")

    def times_gen(self, i, side="right"):
        """Product with a simple reflection on the given side, carrying the
        length: one less if s_i is a descent of self on that side."""
        S = self.cox.reflection(i)
        if side == "right":
            down = _nonpositive_column(self.matrix, i - 1)
            w = GroupElement(
                self.cox, _mat_mul(self.matrix, S), _mat_mul(S, self.matrix_inv)
            )
        elif side == "left":
            down = _nonpositive_column(self.matrix_inv, i - 1)
            w = GroupElement(
                self.cox, _mat_mul(S, self.matrix), _mat_mul(self.matrix_inv, S)
            )
        else:
            raise CoxeterError('side must be "left" or "right", got %r'
                               % (side,))
        w._length = self.length - 1 if down else self.length + 1
        return w


def _nonpositive_column(M, col):
    """True iff column col of M has no positive entry: for a group
    element's matrix, iff that column's root is negative."""
    return all(row[col] <= 0 for row in M)


def _canonical_word(cox, matrix, matrix_inv, length):
    # Greedy leftmost-smallest-descent extraction: the smallest i with s_i w < w
    # (read off w^{-1}(alpha_i) <= 0, i.e. column i of the inverse matrix).
    # It takes exactly `length` steps, the carried length, or while a descent
    # is left if none is carried; either way they must end at the identity.
    n = cox.n
    word = []
    M, Minv = matrix, matrix_inv
    while len(word) != length:
        for i in range(n):
            if _nonpositive_column(Minv, i):
                break
        else:       # no left descent: only the identity has none
            break
        word.append(i + 1)
        S = cox.reflection(i + 1)
        M = _mat_mul(S, M)
        Minv = _mat_mul(Minv, S)
    if M != _identity(n):
        if len(word) == length:
            raise CoxeterError("carried length %d, but %d descents do not "
                               "reach the identity" % (length, length))
        raise CoxeterError("matrix has no descent but is not the identity")
    if length is not None and len(word) != length:
        raise CoxeterError("carried length %d, but the identity is reached "
                           "after %d descents" % (length, len(word)))
    return tuple(word)


def _least_left_descent(w):
    """The least i with s_i w < w (w^{-1}(alpha_i) <= 0, column i of the
    inverse matrix), or None for the identity."""
    for i in w.cox.generators:
        if _nonpositive_column(w.matrix_inv, i - 1):
            return i
    return None


def record_below(w, u, s, side, times, find):
    """Give w = u*s_s (side "right") or s_s*u (side "left"), a new element
    of a letter step from u, its canonical word, read off the element below
    it, and record that element; times(x) is x*s_s (or s_s*x) for each x of
    the step's old interval, which holds every element below u, and find(x)
    is the step's own element equal to x.

    The greedy extraction takes w's least left descent i first, so
    word(w) = (i,) + word(s_i w).  Let i' be the descent recorded on u.  On
    the right D_L(u) is in D_L(us), so i <= i'.  If u is the identity or
    i < i', s_i is a left descent of us but not of u, so s_i us = u by the
    exchange property; if i = i', s_i us = (s_i u)s = times(below(u)); and
    i > i' raises CoxeterError.  On the left, s_i su = u when i = s, and
    s_i su = s(s_i u) = times(below(u)) when i = i' and s_i commutes with
    s.  Otherwise, or when u carries no record, s_i w is formed by one left
    product and found.  Either way s_i w must carry length l(w) - 1, or
    CoxeterError is raised.  The step visits its old elements in a linear
    extension, so s_i w, old or made from an element below u, has its word.
    """
    i, below = _least_left_descent(w), None
    if u._length == 0 or (side == "left" and i == s):
        below = u
    elif u._below is not None:
        j, ub = u._below
        if side == "left":
            if i == j and w.cox.entries[i - 1][s - 1] == 2:
                below = times(ub)
        elif i < j:
            below = u
        elif i == j:
            below = times(ub)
        else:
            raise CoxeterError("u is recorded with least left descent s_%d,"
                               " but u*s_%d has s_%d" % (j, s, i))
    if below is None:
        below = find(w.times_gen(i, "left"))
    if below.length != w._length - 1:
        raise CoxeterError("s_%d w is found with carried length %d, "
                           "but w carries %d" % (i, below.length, w._length))
    w._below = (i, below)
    w._word = (i,) + below.word


def identity_element(cox):
    ident = _identity(cox.n)
    e = GroupElement(cox, ident, ident)
    e._length = 0
    return e


def element_from_word(cox, word):
    """The group element equal to the product of the listed simple
    reflections, built from the identity one letter at a time."""
    w = identity_element(cox)
    for letter in cox.check_word(word):
        w = w.times_gen(letter)
    return w


def right_descent(w, i):
    """True iff l(w s_i) < l(w); sign of the root-lattice column w(alpha_i)."""
    w.cox.check_word((i,))
    return _nonpositive_column(w.matrix, i - 1)


def left_descent(w, i):
    w.cox.check_word((i,))
    return _nonpositive_column(w.matrix_inv, i - 1)


def elements_up_to_length(cox, bound):
    """All group elements of length <= bound (breadth-first; finite even in
    infinite groups)."""
    frontier = [identity_element(cox)]
    seen = {frontier[0]}
    out = [frontier[0]]
    for _ in range(bound):
        nxt = []
        for w in frontier:
            for i in cox.generators:
                if not right_descent(w, i):
                    ws = w.times_gen(i)
                    if ws not in seen:
                        seen.add(ws)
                        nxt.append(ws)
        out.extend(nxt)
        frontier = nxt
    return out
