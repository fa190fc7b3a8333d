"""Truncated deformed Fock space with exact Gram data.

Basis vectors are indexed by words over the alphabet {1..d}. A word is a
tuple whose first entry is the leftmost tensor factor, so creation with
letter i prepends i, and annihilation scans the word from the left while
accumulating one deformation factor per letter it passes:

    annihilate(i): e_w  ->  sum over positions t with w[t] = i of
                            (prod_{s<t} q(i, w[s])) e_{w without t}

With a constant deformation the accumulated factor is q^t, the familiar
single-parameter rule. The level-n inner product <e_u, e_v> = G_n[u, v] is
the one making creation adjoint to annihilation. For every deformation
matrix its Gram matrix obeys one recursion, the right-handed form
G_n = (G_{n-1} (x) 1) R_n of the Bozejko-Speicher factorization, which
peels the last letter j of the row word:

    G_n[u'j, v] = sum over positions t with v[t] = j of
                  (prod_{s>t} q(j, v[s])) G_{n-1}[u', v without t]

Removing one j from both words keeps equal letter contents (the sorted
letters) equal, so G_n is block-diagonal over contents: entries between
words of different content are exactly 0. Each level is stored as its
content blocks, the forward product G_n = (R_2 (x) 1) ... (R_{n-1} (x) 1)
R_n of the peeling factors (encoded once, in ``_Peeling``) on its unit
vectors; ``blocks(n)`` is the only view of G_n, with no dense matrix over
the whole word basis. A block is one read-only numpy array, float64 for
float entries and Python objects otherwise.

For rational entries the blocks are integers. With s the common
denominator of the entries and A = s q their numerators, s^(k-1) R_k moves
w_t with the integer weight s^t prod_{r>t} A(w_t, w_r), so the forward
product gives Ĝ_n = s^(n(n-1)/2) G_n in Python ints. A block stores Ĝ_n
with that scale, and its readers (``inner``, the right-hand sides of the
conjugate variables) divide by it once. Float and formal entries take
s = 1 through the same code, so their blocks are the Gram entries
themselves.

No Gram block is solved: ``inverse_peel`` applies G_n^-1 (G_m (x) 1) by
the explicit inverses of the peeling factors (see ``_Peeling``). Their
moves keep each word's letter content, so exact numerators are carried
over one denominator per content, which takes in only the 1 - c(w) of
that content's own windows, and a level's contents are peeled together
in runs of up to ``PEEL_ENTRIES`` words.

A letter permutation pi with q(pi a, pi b) = q(a, b) for all letters, at
constant q every one, commutes with every peeling factor: R_n pi e_w moves
the letter (pi w)_t to the end with weight prod_{s>t} q(pi w_t, pi w_s) =
prod_{s>t} q(w_t, w_s), which is pi R_n e_w term by term. So it commutes
with their inverses too, and the inverse of a vector that every pi leaves
unchanged is itself unchanged. For such a vector at constant q
``_peeled`` peels only the content that represents each orbit, the one
whose letter counts do not increase from letter 1 on (``_orbit``), and
gives every other content its representative's coefficients at the
relabelled words. Float entries relabel bit for bit: at constant q a
move of any window weighs with the same power of q and a division is by
the same 1 - c(w), so a relabelled entry meets the same operations in the
same order.

Blocks are read by ``inner``, the Fisher pairing and the float
eigenproblems of :mod:`qfock.norms`, factored by ``gram_cholesky``. For
|q_ij| < 1 the
Gram form is positive (M. Bozejko and R. Speicher, Comm. Math. Phys. 137,
1991; Math. Ann. 300, 1994); a float block that is not positive definite,
and a window with 1 - c(w) = 0, raise ``GramSingularError`` naming the
level and the content. With constant q the recursion reproduces the permutation sum of
q^inversions; the tests check both that and the left-peeling recursion
for mixed q.

The field operators read the same integer numerators. Annihilation's
running weight prod_{s<t} q(i, w[s]) is A-products over s^t, so it is kept
as an integer numerator, letter by letter, and each output term forms one
``Fraction`` from it and the input coefficient. Float and formal entries
(s = 1) take the entries themselves through the same loop, multiplied in
the same order as the single-parameter rule reads them. ``gaussian`` sums
annihilation and creation into one map.

Everything is exact when the deformation entries are exact; plain floats
flow through the same recursion and readers for numerical work. The
truncation level is explicit and overflowing it is a hard error, never a
silent projection.

Vectors are word maps: ``WordMap`` is the one algebra of immutable sparse
combinations of words (sums, scalar multiples, and ``combination``, which
sums a whole linear extension into one map). ``FockVector`` here and the
polynomials of :mod:`qfock.ncpoly` are its subclasses.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from math import gcd, lcm, prod
from typing import NamedTuple

import numpy as np

from .scalars import Deformation, QPoly, QRat, magnitude, nan_safe

__all__ = [
    "FockVector",
    "FockSpace",
    "TruncationError",
    "GramSingularError",
    "gram_cholesky",
]


# the most entries (words times columns) one peeling holds; a larger content
# is peeled alone. The inverse peels one column, so its runs hold up to
# 2^13 words: long arrays of big numerators run slower, and d=3 level 11 at
# q = 1/2 took 7 s in such runs and 12 s with every content at once. The
# float blocks of d=5 levels 0-6 took 48 ms with this limit and 62 ms with
# 2^17 entries (on a 2-core x86-64 box)
PEEL_ENTRIES = 2**13


class TruncationError(RuntimeError):
    """An operator tried to leave the truncated space."""


class GramSingularError(RuntimeError):
    """A level Gram matrix or peeling factor is singular or not factorable."""


def gram_cholesky(gram, what):
    """The lower Cholesky factor of a float Gram matrix, by numpy.

    This is the one factorization of float Gram data, for the norm checks
    of :mod:`qfock.norms`. A matrix that is not positive definite raises
    ``GramSingularError`` naming ``what``."""
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise GramSingularError(f"{what} is not positive definite") from None


def _block_name(n, content):
    return f"level-{n} Gram block of content {content}"


def _div(a, b):
    """Division that keeps int/int exact instead of decaying to float."""
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def _add_to(acc, word, value):
    if not value:
        return
    cur = acc.get(word)
    if cur is None:
        acc[word] = value
    else:
        cur = cur + value
        if cur:
            acc[word] = cur
        else:
            del acc[word]


class WordMap:
    """Immutable finitely supported map key -> coefficient, zeros dropped.

    The one algebra behind Fock vectors and (tensor) polynomials: sums,
    differences, scalar multiples and linear combinations, with equality
    strict by type. Subclasses say what a key is and add their own
    operations.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            for k, c in coeffs.items():
                if c:
                    data[self._key(k)] = c
        object.__setattr__(self, "_c", data)

    @staticmethod
    def _key(k):
        return tuple(k)

    @classmethod
    def _wrap(cls, data):
        """An instance owning ``data``, already canonical (no zeros)."""
        out = cls.__new__(cls)
        object.__setattr__(out, "_c", data)
        return out

    @classmethod
    def combination(cls, terms):
        """The sum of s * m over the (m, s) pairs, accumulated in one map.
        A scale that is the int 1 adds m's coefficients as they are, which
        is what multiplying each by it would give."""
        acc = {}
        for m, s in terms:
            if type(s) is int and s == 1:
                for k, c in m._c.items():
                    _add_to(acc, k, c)
            elif s:
                for k, c in m._c.items():
                    _add_to(acc, k, c * s)
        return cls._wrap(acc)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def items(self):
        return self._c.items()

    def coeff(self, key):
        return self._c.get(self._key(key), 0)

    def is_zero(self):
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def __len__(self):
        return len(self._c)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        acc = dict(self._c)
        for k, c in other._c.items():
            _add_to(acc, k, c)
        return self._wrap(acc)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._wrap({k: -c for k, c in self._c.items()})

    def scaled(self, s):
        return self.combination(((self, s),))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def max_coeff_magnitude(self):
        """Largest coefficient magnitude; zero exactly for the zero map, and
        NaN when any coefficient is NaN, so that no gate ``size <= tol``
        passes it."""
        return nan_safe(lambda sizes: max(sizes, default=Fraction(0)), map(magnitude, self._c.values()))

    def __repr__(self):
        name = type(self).__name__
        if not self._c:
            return f"{name}(0)"
        # shorter words first; pair keys all have length 2, so pairs sort
        # lexicographically
        ordered = sorted(self._c.items(), key=lambda t: (len(t[0]), t[0]))
        return f"{name}(" + ", ".join(f"{self._label(k)}: {c!r}" for k, c in ordered) + ")"


class FockVector(WordMap):
    """Finitely supported map word -> coefficient, graded by word length."""

    __slots__ = ()

    @classmethod
    def basis(cls, word):
        return cls({tuple(word): 1})

    @classmethod
    def zero(cls):
        return cls()

    def support(self):
        return sorted(self._c, key=lambda w: (len(w), w))

    def level(self, n):
        return FockVector({w: c for w, c in self._c.items() if len(w) == n})

    @staticmethod
    def _label(w):
        return f"e{''.join(map(str, w)) or '0'}"


# ---------------------------------------------------------------------------
# the space
# ---------------------------------------------------------------------------


def _content(word):
    """The letter content of a word: its letters in sorted order."""
    return tuple(sorted(word))


def _all_words(d, n):
    """The words of length n over d letters, in lexicographic order."""
    return list(product(range(1, d + 1), repeat=n))


class _Block(NamedTuple):
    """Gram matrix of the level-n words of one letter content, stored as
    ``rows`` = ``scale`` times it, one read-only numpy array: Python ints
    (dtype object) for a rational deformation, and the Gram entries
    themselves (scale 1) for float (float64) and formal (object) ones."""

    words: list  # in lexicographic order
    index: dict  # word -> position in words
    rows: np.ndarray  # rows[a, b] = scale * <e_{words[a]}, e_{words[b]}>, read-only
    scale: int  # s^(n(n-1)/2), s the common denominator of the entries


def _cleared(deformation):
    """(s, A) for rational entries: their common denominator s and their
    integer numerators A = s q."""
    entries = deformation.entries
    s = lcm(*(Fraction(v).denominator for row in entries for v in row))
    return s, tuple(tuple(int(v * s) for v in row) for row in entries)


def _entry_labels(entries):
    """labels[i][j], one int per distinct entry: entries equal in value and
    type share a label, so two letter assignments with equal labels read
    identical entries."""
    seen = []

    def label(v):
        for k, u in enumerate(seen):
            if type(u) is type(v) and u == v:
                return k
        seen.append(v)
        return len(seen) - 1

    return tuple(tuple(label(v) for v in row) for row in entries)


def _over_one_denominator(terms):
    """Integer numerators of rational coefficients over their common
    denominator, with that denominator."""
    den = lcm(*(c.denominator for _, c in terms))
    return [c.numerator * (den // c.denominator) for _, c in terms], den


class FockSpace:
    """Fock space over d letters, truncated at an explicit word length.

    All operator applications are pure. The per-level words and Gram
    blocks, and the memos of the annihilated basis words, the dual
    operators, Wick polynomials, conjugate-variable levels, diagram tables
    with their weights and the window tables of the peeling factors are
    write-once tables (see ``_memo``), so a space can be shared freely
    between threads. Every key stays within the truncation level, so the
    tables are bounded by it; a diagram table holds at most one set of
    weights per letter assignment of its pattern.
    """

    def __init__(self, deformation: Deformation, level: int):
        if level < 0:
            raise ValueError("truncation level must be nonnegative")
        self.deformation = deformation
        self.d = deformation.d
        self.level = level
        self._rational = not (deformation.is_float or deformation.is_symbolic)
        self._cleared = _cleared(deformation) if self._rational else (1, deformation.entries)
        self._labels = _entry_labels(deformation.entries)
        # diagram weights are stored for sharing only if two letters have
        # equal diagonal entries; otherwise no two words share a key (dual)
        diagonal = [row[k] for k, row in enumerate(self._labels)]
        self._shares_labels = len(set(diagonal)) < self.d
        self._memos = {
            name: {} for name in ("words", "blocks", "annihilated", "dual", "wick", "xi", "diagrams", "peel")
        }

    @classmethod
    def with_scalar_q(cls, d, q, level):
        return cls(Deformation.constant(d, q), level)

    def _memo(self, table, key, build, *args):
        """The value ``build(*args)`` stored once under ``key`` in the named
        table. ``build`` runs only on a miss, and callers pass it with its
        arguments rather than as a closure, so a hit builds no function
        object. Threads racing on a missing key may each build it, since
        builds recurse into the tables, but ``setdefault`` stores only the
        first value and hands it to every caller. A read and a store are
        each one atomic dict operation on keys of ints, strings and tuples,
        so no lock is taken."""
        memo = self._memos[table]
        got = memo.get(key)
        if got is None:
            got = memo.setdefault(key, build(*args))
        return got

    # -- basis -------------------------------------------------------------

    def words(self, n):
        self._check_level(n)
        return self._memo("words", n, _all_words, self.d, n)

    def vacuum(self):
        return FockVector.basis(())

    # -- the basic operators ------------------------------------------------

    def create(self, i, v: FockVector) -> FockVector:
        """Left creation: prepend letter i. Overflow is a hard error."""
        self._check_letter(i)
        return FockVector._wrap(self._created(i, v))

    def _created(self, i, v):
        """The map of create(i, v): prepending i keeps the words distinct."""
        top = max(map(len, v._c), default=-1)
        if top >= self.level:
            raise TruncationError(f"create on a level-{top} component exceeds level {self.level}")
        return {(i,) + w: c for w, c in v.items()}

    def annihilate(self, i, v: FockVector) -> FockVector:
        """Left annihilation with cumulative deformation weights; the
        running weight stops at the last occurrence of the letter. The
        coefficients of v may be of any type that multiplies the entries;
        each term is the coefficient times its exact weight."""
        self._check_letter(i)
        return FockVector._wrap(self._annihilated(i, v))

    def annihilate_word(self, i, word) -> FockVector:
        """a_i e_word, the ``annihilate`` of a basis word, memoized per space
        under (i, word): at most d entries per word up to the level."""
        return self._memo("annihilated", (i, word), FockSpace._annihilated_word, self, i, word)

    def _annihilated_word(self, i, word):
        self._check_letter(i)
        self._check_level(len(word))
        return FockVector._wrap(self._annihilated(i, FockVector._wrap({word: 1})))

    def gaussian(self, i, v: FockVector) -> FockVector:
        """The field operator, creation plus annihilation, summed into the
        creation's map with no intermediate vector to build or re-validate.
        The created words come first and the annihilation terms are summed
        apart and then added, so every float coefficient is the
        c + (a_1 + a_2 + ...) of ``create(i, v) + annihilate(i, v)``, in
        the same order. The zero vector maps to a new zero vector at once."""
        self._check_letter(i)
        if not v._c:
            return FockVector._wrap({})
        acc = self._created(i, v)
        for w, c in self._annihilated(i, v).items():
            _add_to(acc, w, c)
        return FockVector._wrap(acc)

    def _annihilated(self, i, v):
        """The map of annihilate(i, v).

        The running weight prod_{s<t} q(i, w[s]) is kept as its numerator
        prod_{s<t} A(i, w[s]) over the cleared entries (s, A), and each term
        forms one ``Fraction`` over s^t from a rational coefficient, and
        multiplies any other coefficient (a float, say) by the exact weight
        n / s^t; with s = 1 (integer, float and formal entries) the term is
        the coefficient times the product of the entries, multiplied left
        to right."""
        s, a = self._cleared
        row = a[i - 1]
        acc = {}
        for w, cv in v.items():
            if i not in w:
                continue
            last = len(w) - 1 - w[::-1].index(i)
            n = 1
            for t, letter in enumerate(w):
                if letter == i:
                    if s == 1:
                        c = cv * n
                    elif isinstance(cv, (int, Fraction)):
                        c = Fraction(cv.numerator * n, cv.denominator * s**t)
                    else:
                        c = cv * Fraction(n, s**t)
                    _add_to(acc, w[:t] + w[t + 1 :], c)
                    if t == last:
                        break
                n = n * row[letter - 1]
        return acc

    def gaussian_word(self, word, v: FockVector) -> FockVector:
        """Apply the product of field operators indexed by the word.

        The word reads left to right as operator factors, so the rightmost
        letter acts first.
        """
        for letter in reversed(tuple(word)):
            v = self.gaussian(letter, v)
        return v

    def trace(self, v: FockVector):
        """Vacuum expectation of the operator whose vacuum vector is v."""
        return v.coeff(())

    def _check_level(self, n):
        if n > self.level:
            raise TruncationError(f"level {n} beyond truncation {self.level}")

    def _check_letter(self, i):
        if not 1 <= i <= self.d:
            raise ValueError(f"letter {i} outside 1..{self.d}")

    # -- inner product -------------------------------------------------------

    def inner(self, u: FockVector, v: FockVector):
        """Twisted inner product, read off the content blocks; words of
        different content (in particular of different length) are orthogonal.
        With a rational deformation each block pairs integer numerators and
        divides by its denominators and its scale once."""
        right = {}
        for b, cb in v.items():
            right.setdefault(_content(b), []).append((b, cb))
        if self._rational:
            left = {}
            for a, ca in u.items():
                left.setdefault(_content(a), []).append((a, ca))
            total = 0
            for content, terms in left.items():
                same = right.get(content)
                if not same:
                    continue
                blk = self.blocks(len(content))[content]
                nums_u, den_u = _over_one_denominator(terms)
                nums_v, den_v = _over_one_denominator(same)
                cols = [blk.index[b] for b, _ in same]
                part = 0
                for (a, _), na in zip(terms, nums_u):
                    row = blk.rows[blk.index[a]].tolist()
                    part = part + na * sum(nb * row[c] for nb, c in zip(nums_v, cols))
                total = total + _div(part, den_u * den_v * blk.scale)
            return total
        total = 0
        for a, ca in u.items():
            content = _content(a)
            same = right.get(content)
            if not same:
                continue
            blk = self.blocks(len(a))[content]
            row = blk.rows[blk.index[a]].tolist()
            for b, cb in same:
                total = total + ca * cb * row[blk.index[b]]
        return total

    # -- Gram data ------------------------------------------------------------

    def blocks(self, n):
        """The content blocks of G_n as {content: block with ``words``,
        ``index``, ``rows`` and ``scale``} in content order, built once by
        the forward product of the peeling factors; every thread gets the
        same object."""
        return self._memo("blocks", n, FockSpace._build_blocks, self, n)

    def _build_blocks(self, n):
        """The level-n blocks by ``_Peeling.forward`` on the unit vectors in
        rank form (column r of a word's row is the word of rank r in its
        content), one identity per content; contents of one size share a
        peeling, up to ``PEEL_ENTRIES`` entries. Its scale, s^(n(n-1)/2),
        is the blocks' own."""
        groups = _by_content(self.d, n)[1]
        by_size = {}
        for k, g in enumerate(groups):
            by_size.setdefault(len(g), []).append(k)
        built = {}
        for size, contents in by_size.items():
            for run in _runs(contents, groups, PEEL_ENTRIES // size):
                peeling = _Peeling(self, n, run)
                gram, scale = peeling.forward(np.tile(np.eye(size, dtype=peeling.dtype), (len(run), 1)), n, 0)
                for k, (lo, hi) in zip(run, peeling.slices):
                    words = peeling.words[lo:hi]
                    index = {w: r for r, w in enumerate(words)}
                    built[k] = _Block(words, index, _frozen(gram[lo:hi]), scale)
        return {_content(built[k].words[0]): built[k] for k in range(len(groups))}

    def inverse_peel(self, v: FockVector, below: int) -> FockVector:
        """R_n^-1 (R_{n-1}^-1 (x) 1) ... (R_{below+1}^-1 (x) 1) v for v on one
        level n: the x with G_n x = (G_below (x) 1) v, by ``_Peeling``."""
        return FockVector._wrap({w: c for words, coeffs in self._peeled(v, below) for w, c in zip(words, coeffs) if c})

    def _peeled(self, v, below, orbits=False):
        """``inverse_peel`` as one (words, coefficients) pair per content,
        in content order, the contents taken in runs of at most
        ``PEEL_ENTRIES`` words. With ``orbits``, for a v that is unchanged
        by relabelling its letters, a constant deformation peels only the
        content that represents each orbit of letter permutations and
        relabels its answer onto the others (see ``_orbit``); v's own
        invariance is checked on the way in."""
        if not v:
            return []
        (n,) = {len(w) for w in v._c}
        self._check_level(n)
        _, groups, content = _by_content(self.d, n)
        parts = {}
        for w, c in v._c.items():
            parts.setdefault(int(content[_number(w, self.d)]), {})[w] = c

        def solve(contents):
            return chain.from_iterable(
                _Peeling(self, n, run).solve({w: c for k in run for w, c in parts[k].items()}, below)
                for run in _runs(contents, groups, PEEL_ENTRIES)
            )

        if not (orbits and self.deformation.is_constant):
            return solve(sorted(parts))
        orbit = {k: _orbit(self.d, n, k) for k in parts}
        for k, (r, relabel, _) in orbit.items():
            if {tuple(relabel[x - 1] for x in w): c for w, c in parts[k].items()} != parts.get(r):
                raise ValueError(f"the level-{n} vector is not invariant under relabelling its letters")
        reps = sorted(k for k, (r, _, _) in orbit.items() if k == r)
        peeled = dict(zip(reps, solve(reps)))
        return (
            peeled[k] if k == r else _relabelled(self.d, n, k, peeled[r][1], rank) for k, (r, _, rank) in sorted(orbit.items())
        )


class _Peeling:
    """The right-peeling factors of one level and their explicit inverse.

    R_n e_w is the sum over the places t of w of T_t e_w: w_t moved to the
    end, with weight prod_{s>t} q(w_t, w_s). On a window of length n,
    U = T_0 moves the first letter to the end, with weight
    D_U(w) = prod_{s>0} q(w_0, w_s), and V moves it to the next-to-last
    place, with weight D_V(w) = D_U(w) q(w_0, w_{n-1}). Then
    R_n = D_U U + (1 (x) R_{n-1}), the terms t >= 1 being R_{n-1} on the
    last n - 1 places, and

        R_n (1 - D_U U) = (1 - D_V V) (1 (x) R_{n-1}).

    Proof. With B = 1 (x) R_{n-1} = sum_{t>=1} T_t and R_n = T_0 + B, the
    identity says B T_0 + T_0^2 - T_0 = D_V V B. In B T_0 the term
    t = n-1 of B is the identity and cancels -T_0. Every other term, and
    T_0^2, moves w_0 to the end and then one letter w_u, 1 <= u <= n-1,
    behind it: the word w_1 .. (w_u left out) .. w_{n-1} w_0 w_u, with
    weight D_U(w) q(w_u, w_0) prod_{s>u} q(w_u, w_s). On the right, T_u
    moves w_u to the end with weight prod_{s>u} q(w_u, w_s), and D_V V
    puts w_0 just before it: the same word, with weight D_U(w) q(w_0, w_u),
    since the letters after w_0 are still w_1 .. w_{n-1}. The weights agree
    because q is symmetric. QED.

    V rotates the first n - 1 places, so (D_V V)^(n-1) = c, the diagonal
    of the products of D_V over the V-orbits: c(w) = prod_{a<b}
    q(w_a, w_b)^2, a function of the window's letter content, and also
    (D_U U)^n. Where c != 1, (1 - D_V V)^-1 = sum_{j<n-1} (D_V V)^j
    (1 - c)^-1 and

        R_n^-1 = (1 - D_U U) (1 (x) R_{n-1}^-1) sum_{j<n-1} (D_V V)^j (1 - c)^-1,

    about n^2/2 weighted moves. For |q_ij| < 1 every 1 - c(w) > 0; at
    constant q they are Zagier's 1 - q^(n(n-1)) (D. Zagier, Comm. Math.
    Phys. 147, 1992). No positivity is needed.

    A peeling lives on the words of the given contents, ordered by
    content, which moves keep; the window [j, k) of word number i is
    (i // d^(n-k)) % d^(k-j). One ``forward`` serves the exact check of
    ``solve`` and the Gram blocks. Exact entries are numerators over one
    denominator per content: with the cleared entries (s, A), D_U and D_V
    are A-products over s^(L-1) and s^L and 1 - c = e(w) / s^(L(L-1)).
    Since a move keeps a word's content, the numerators of a content only
    ever meet the e(w) of its own windows, so each content takes in the lcm
    of those alone, and the (polynomial, for a formal q) gcd is divided out
    per content and R_k. Floats divide; the forward product never does, so
    only the inverse needs a constant formal q.
    """

    def __init__(self, space, n, contents):
        self.space, self.n, self.d = space, n, space.d
        self.kind = "rational" if space._rational else "float" if space.deformation.is_float else "formal"
        self.s, a = space._cleared
        self.dtype = float if self.kind == "float" else object
        self.a = a[0][0] if space.deformation.is_constant else np.array(a, dtype=self.dtype)
        letters, groups, _ = _by_content(self.d, n)
        touched = [groups[k] for k in contents]
        self.idx = np.concatenate(touched)
        sizes = [len(g) for g in touched]
        bounds = np.cumsum([0, *sizes]).tolist()
        self.slices = list(zip(bounds, bounds[1:]))
        self.part = np.repeat(np.arange(len(sizes)), sizes)  # content number of each entry
        self.pos = np.full(self.d**n, -1)
        self.pos[self.idx] = np.arange(len(self.idx))
        self.words = [tuple(w) for w in (letters[:, self.idx].T + 1).tolist()]

    def _table(self, L):
        """Per window of length L: where U and V send it, the numerators of
        D_U and D_V (scalars at constant q), its content class, e(w) per
        class and a window of each class. The table depends only on the
        space and L, so a space builds it once for all levels and letters."""
        return self.space._memo("peel", L, _Peeling._build_table, self, L)

    def _build_table(self, L):
        d, a = self.d, self.a
        lw = np.array(np.unravel_index(np.arange(d**L), (d,) * L))
        place = d ** np.arange(L - 1, -1, -1)
        u_to = np.dot(np.roll(lw, -1, axis=0).T, place)
        v_to = np.dot(np.concatenate([lw[1 : L - 1], lw[:1], lw[L - 1 :]]).T, place)
        du = a ** (L - 1) if np.ndim(a) == 0 else np.prod([a[lw[0], lw[t]] for t in range(1, L)], axis=0)
        dv = a**L if np.ndim(a) == 0 else du * a[lw[0], lw[L - 1]]
        _, first, cls = np.unique(_content_key(lw, d), return_index=True, return_inverse=True)
        entries = self.space._cleared[1]
        es = [self.s ** (L * (L - 1)) - prod(entries[x][y] ** 2 for x, y in combinations(lw[:, w], 2)) for w in first]
        return u_to, v_to, du, dv, cls, es, lw[:, first]

    def _window(self, j, k):
        unit = self.d ** (self.n - k)
        return (self.idx // unit) % self.d ** (k - j), unit

    def _move(self, x, j, k, which, times=1):
        """D_U U (which = 0) or D_V V (1) on the window [j, k), with weight
        numerators over s^(L-1) and s^L times ``times``, on the rows of x."""
        table = self._table(k - j)
        to, weight = table[which], table[2 + which]
        wnd, unit = self._window(j, k)
        if np.ndim(weight):
            weight = weight[wnd].reshape((-1,) + (1,) * (x.ndim - 1))
        out = np.empty_like(x)
        out[self.pos[self.idx + (to[wnd] - wnd) * unit]] = x * _scaled(weight, times)
        return out

    def _divide(self, x, j, k):
        """x / (1 - c(w)) on the window [j, k), times s^L for the sum that
        follows; exact entries move, per content, the lcm of the e(w) present
        into that content's denominator."""
        L = k - j
        *_, cls, es, reps = self._table(L)
        present = cls[self._window(j, k)[0]]
        used = np.flatnonzero(np.bincount(present, minlength=len(es)))
        singular = [tuple(sorted(int(y) + 1 for y in reps[:, c])) for c in used if not es[c]]
        if singular:
            raise GramSingularError(f"level-{L} Gram factor R_{L} on the window content {min(singular)} has 1 - c(w) = 0")
        if self.kind == "float":
            return x / np.array(es)[present]
        scale, values = self.s**L, {es[c] for c in used.tolist()}
        if len(values) == 1:  # e(w) itself, which may be negative for |q| > 1
            (e,) = values
            self.den = [den * e for den in self.den]
            return _scaled(x, scale)
        # factor[c * len(es) + k]: the multiple of content c over the e(w)
        # of class k, times s^L
        codes = self.part * len(es) + present
        classes = {}
        for code in np.flatnonzero(np.bincount(codes)).tolist():
            classes.setdefault(code // len(es), []).append(code % len(es))
        factor = [scale] * (len(self.slices) * len(es))
        for c, ks in classes.items():
            values = {es[k] for k in ks}
            multiple = values.pop() if len(values) == 1 else lcm(*values)
            self.den[c] = self.den[c] * multiple
            for k in ks:
                factor[c * len(es) + k] = multiple // es[k] * scale
        return x * np.array(factor, dtype=object)[codes]

    def _inverse(self, x, k):
        """R_k^-1 on the first k places, with the common factor of each
        content's numerators and denominator divided out."""
        s = self.s
        for j in range(k - 1):
            y = x = self._divide(x, j, k)
            for t in range(1, k - j - 1):
                x = self._move(x, j, k, 1) + _scaled(y, s ** ((k - j) * t))
        for j in range(k - 2, -1, -1):
            x = _scaled(x, s ** (k - j - 1)) - self._move(x, j, k, 0)
            self.den = [den * s ** (k - j - 1) for den in self.den]
        if self.kind == "float":
            return x
        x = x.copy()  # for k = 1 it is the source, which the check reads
        for c, (lo, hi) in enumerate(self.slices):
            if self.kind == "rational":
                g = gcd(self.den[c], *x[lo:hi])
                if g != 1:
                    self.den[c] //= g
                    x[lo:hi] //= g
            elif isinstance(self.den[c], QPoly):
                g = self.den[c].common_factor(*(v for v in x[lo:hi] if v))
                if g:
                    self.den[c] = self.den[c].exact_quotient(g)
                    x[lo:hi] = [v.exact_quotient(g) if v else v for v in x[lo:hi]]
        return x

    def forward(self, x, top, below):
        """(R_{below+1} (x) 1) ... R_top x, each R_k on the first k places
        and times s^(k-1), with the product of the s^(k-1) as its scale; x
        is one vector on the peeling's words or a matrix of them (columns)."""
        scale = 1
        for k in range(top, below, -1):
            total = _scaled(x, self.s ** (k - 1))
            for t in range(k - 1):
                total = total + self._move(x, t, k, 0, self.s**t)
            x, scale = total, scale * self.s ** (k - 1)
        return x, scale

    def solve(self, v, below):
        """The inverse on v, a map from the peeling's words to coefficients,
        as one (words, coefficients) pair per content, made as it is read;
        exact entries only once ``forward`` gives v back."""
        if self.kind == "formal" and not self.space.deformation.is_constant:
            raise ValueError("formal conjugate variables need one constant q")
        source = np.zeros(len(self.idx), dtype=self.dtype)
        given = self.pos[[_number(w, self.d) for w in v]]
        if self.kind == "rational":
            source[given], den0 = _over_one_denominator(list(v.items()))
        else:
            source[given], den0 = list(v.values()), 1
        self.den = [den0] * len(self.slices)
        x = source
        for k in range(below + 1, self.n + 1):
            x = self._inverse(x, k)
        if self.kind == "float":
            return ((self.words[lo:hi], x[lo:hi].tolist()) for lo, hi in self.slices)
        check, scale = self.forward(x, self.n, below)
        for den, (lo, hi) in zip(self.den, self.slices):
            den = den * scale
            if any(a * den0 != b * den for a, b in zip(check[lo:hi], source[lo:hi])):
                raise ArithmeticError(f"the level-{self.n} solve failed its exact check")
        return self._parts(x)

    def _parts(self, x):
        for den, (lo, hi) in zip(self.den, self.slices):
            # a formal level above 1 stays a ratio even where its denominator cancels
            div = QRat if isinstance(den, QPoly) else _div
            yield self.words[lo:hi], [div(c, den) for c in x[lo:hi]]


def _scaled(x, c):
    return x if np.ndim(c) == 0 and c == 1 else x * c


def _runs(contents, groups, limit):
    """The content numbers, in order, in runs of at most ``limit`` words
    (a larger content alone): the one rule for sharing a ``_Peeling``."""
    runs, size = [], limit
    for k in contents:
        if size + len(groups[k]) > limit:
            runs.append([])
            size = 0
        runs[-1].append(k)
        size += len(groups[k])
    return runs


def _orbit(d, n, k):
    """(r, relabel, rank) for the level-n content number k: r the content
    that represents its orbit under letter permutations, the one whose
    letter counts do not increase from letter 1 on; relabel[x - 1] the
    letter that x becomes, the letters taken by decreasing count and then
    in order; and rank[p] the place in content r of the relabelled p-th
    word of k. A representative is its own, relabel and rank the identity."""
    letters, groups, content = _by_content(d, n)
    g = groups[k]
    relabel = np.empty(d, dtype=np.intp)
    relabel[np.argsort(-np.bincount(letters[:, g[0]], minlength=d), kind="stable")] = np.arange(d)
    numbers = np.dot(relabel[letters[:, g]].T, d ** np.arange(n - 1, -1, -1))
    r = int(content[numbers[0]])
    return r, (relabel + 1).tolist(), np.searchsorted(groups[r], numbers)


def _relabelled(d, n, k, coeffs, rank):
    """The words of the level-n content number k, each with the coefficient
    at the rank of its relabelled word in its representative's ``coeffs``."""
    letters, groups, _ = _by_content(d, n)
    return [tuple(w) for w in (letters[:, groups[k]].T + 1).tolist()], [coeffs[p] for p in rank.tolist()]


def _frozen(rows):
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=32)
def _by_content(d, n):
    """The level-n words grouped by letter content: their letters (0-based,
    one column per word in lexicographic order), the word numbers of each
    content in increasing order, contents ordered as their sorted words,
    and the number of each word's content. Shared and read-only."""
    letters = np.indices((d,) * n).reshape(n, d**n)
    key = _content_key(letters, d)
    order = np.argsort(key, kind="stable")
    groups = tuple(map(_frozen, np.split(order, np.flatnonzero(np.diff(key[order])) + 1)))
    content = np.empty(d**n, dtype=np.intp)
    for k, g in enumerate(groups):
        content[g] = k
    return _frozen(letters), groups, _frozen(content)


def _number(word, d):
    """The number of a word among the words of its length, lexicographically."""
    return sum((x - 1) * d ** (len(word) - 1 - p) for p, x in enumerate(word))


def _content_key(letters, d):
    """One integer per word naming its letter content: the index of its
    sorted letters, so contents sort as their sorted words."""
    return np.dot(np.sort(letters, axis=0).T, d ** np.arange(len(letters) - 1, -1, -1))
