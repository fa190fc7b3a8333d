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
content blocks, built from the blocks of the level below; ``blocks(n)`` is
the only view of G_n, with no dense matrix over the whole word basis.

For rational entries the blocks are integers. With s the common
denominator of the entries and A = s q their numerators, s^(n-1) times a
peeling weight is the integer s^t prod_{r>t} A(j, v[r]), so the same
recursion run on A gives Ĝ_n = s^(n(n-1)/2) G_n in Python ints. A block
stores Ĝ_n with that scale, and its readers (``inner``, the right-hand
sides of the conjugate variables) divide by it once. Float and formal
entries take s = 1 through the same code, so their blocks are the Gram
entries themselves.

``solve`` is the one Gram solve: it finds x with G x = v block by block.
A rational block is solved exactly by p-adic lifting on Ĝ_n (Dixon, Numer.
Math. 40, 1982) with v cleared to integers b over one denominator D, so
that x = scale Ĝ_n^-1 b / D. The lifting reconstructs x itself, with the
known factor scale / D and the gcd of Ĝ_n's entries folded into the
p-adic digits, so its steps follow the size of x rather than that of
Ĝ_n^-1 b: one factorization modulo a word-size prime, a few numpy calls
per lifting step, rational reconstruction of every entry (Wang, Guy and
Davenport, SIGSAM Bull. 16, 1982) at geometrically spaced steps, and an
exact integer check against Ĝ_n before the answer is accepted; see
:mod:`qfock.lifting`. A float block is factored by ``gram_cholesky``, the
one float factorization, which the norm checks of :mod:`qfock.norms` use
for their eigenproblems too. A formal block is factored as L·D·Lᵀ without
pivoting.

Every factorization here relies on positivity: for |q_ij| < 1 the Gram
form is strictly positive (M. Bozejko and R. Speicher, Comm. Math. Phys.
137, 1991; Math. Ann. 300, 1994), so every block is symmetric positive
definite. A float block that is not positive definite, a zero pivot of a
formal block, and a leading minor of a rational block that is singular
over the integers all raise ``GramSingularError`` naming the level and the
content. For |q_ij| >= 1 the blocks may be indefinite, and then a block
that is itself invertible may be refused. With constant q the
recursion reproduces the permutation sum of q^inversions; the tests check
both that and the left-peeling recursion for mixed q.

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
from itertools import product
from math import lcm
from typing import NamedTuple

import numpy as np

from .lifting import SingularMinor, solve_integer
from .scalars import Deformation, magnitude

__all__ = [
    "FockVector",
    "FockSpace",
    "TruncationError",
    "GramSingularError",
    "gram_cholesky",
]


class TruncationError(RuntimeError):
    """An operator tried to leave the truncated space."""


class GramSingularError(RuntimeError):
    """A level Gram matrix could not be factorized."""


def gram_cholesky(gram, what):
    """The lower Cholesky factor of a float Gram matrix, by numpy.

    This is the one factorization of float Gram data: ``FockSpace.solve``
    and the norm checks both factor through it. A matrix that is not
    positive definite raises ``GramSingularError`` naming ``what``."""
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
        """The sum of s * m over the (m, s) pairs, accumulated in one map."""
        acc = {}
        for m, s in terms:
            if s:
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
        """Largest coefficient magnitude; zero exactly for the zero map."""
        best = Fraction(0)
        for c in self._c.values():
            m = magnitude(c)
            if m > best:
                best = m
        return best

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


class _Block(NamedTuple):
    """Gram matrix of the level-n words of one letter content, stored as
    ``rows`` = ``scale`` times it: integers for a rational deformation, and
    the Gram entries themselves (scale 1) for float and formal ones."""

    words: list  # in lexicographic order
    index: dict  # word -> position in words
    rows: list  # rows[a][b] = scale * <e_{words[a]}, e_{words[b]}>
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
    blocks, and the memos of the dual operators, Wick polynomials,
    conjugate-variable levels and diagram tables with their weights are
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
        self._memos = {name: {} for name in ("words", "blocks", "dual", "wick", "xi", "diagrams")}

    @classmethod
    def with_scalar_q(cls, d, q, level):
        return cls(Deformation.constant(d, q), level)

    def _memo(self, table, key, build):
        """The value ``build()`` stored once under ``key`` in the named
        table. Threads racing on a missing key may each build it, since
        builds recurse into the tables, but ``setdefault`` stores only the
        first value and hands it to every caller. A read and a store are
        each one atomic dict operation on keys of ints, strings and tuples,
        so no lock is taken."""
        memo = self._memos[table]
        got = memo.get(key)
        if got is None:
            got = memo.setdefault(key, build())
        return got

    # -- basis -------------------------------------------------------------

    def words(self, n):
        self._check_level(n)
        return self._memo("words", n, lambda: list(product(range(1, self.d + 1), repeat=n)))

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

    def gaussian(self, i, v: FockVector) -> FockVector:
        """The field operator, creation plus annihilation, summed into the
        creation's map with no intermediate vector to build or re-validate.
        The created words come first and the annihilation terms are summed
        apart and then added, so every float coefficient is the
        c + (a_1 + a_2 + ...) of ``create(i, v) + annihilate(i, v)``, in
        the same order."""
        self._check_letter(i)
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
                    row = blk.rows[blk.index[a]]
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
            row = blk.rows[blk.index[a]]
            for b, cb in same:
                total = total + ca * cb * row[blk.index[b]]
        return total

    # -- Gram data ------------------------------------------------------------

    def blocks(self, n):
        """The content blocks of G_n as {content: block with ``words``,
        ``index`` and ``rows``}, built once by the right-peeling recursion
        from the blocks of G_{n-1}; every thread gets the same object."""
        return self._memo("blocks", n, lambda: self._build_blocks(n))

    def _build_blocks(self, n):
        s, a = self._cleared
        if n == 0:
            # a float unit keeps float-mode data out of int/int Fractions
            one = 1.0 if self.deformation.is_float else 1
            blocks = {(): _Block([()], {(): 0}, [[one]], 1)}
        else:
            below = self.blocks(n - 1)
            scale = s ** (n * (n - 1) // 2)
            grouped = {}
            for w in self.words(n):
                grouped.setdefault(_content(w), []).append(w)
            blocks = {}
            for content, words in grouped.items():
                # peel[b][j]: (position of v without t below, weight) over
                # the positions t of v = words[b] with v[t] = j; the weight
                # s^t prod_{r>t} A(j, v[r]) is s^(n-1) times the one for G_n
                peel = []
                for v in words:
                    by_letter = {}
                    for t, j in enumerate(v):
                        weight = s**t
                        for r in v[t + 1 :]:
                            weight = weight * a[j - 1][r - 1]
                        if not weight:
                            continue
                        rest = v[:t] + v[t + 1 :]
                        sub = below[_content(rest)]
                        by_letter.setdefault(j, []).append((sub.index[rest], weight))
                    peel.append(by_letter)
                rows = []
                for u in words:
                    head, j = u[:-1], u[-1]
                    sub = below[_content(head)]
                    row_below = sub.rows[sub.index[head]]
                    row = []
                    for by_letter in peel:
                        total = 0
                        for pos, weight in by_letter.get(j, ()):
                            total = total + weight * row_below[pos]
                        row.append(total)
                    rows.append(row)
                blocks[content] = _Block(words, {w: k for k, w in enumerate(words)}, rows, scale)
        return blocks

    def solve(self, v: FockVector) -> FockVector:
        """The x with G x = v, block by block over the contents v touches.

        With a rational deformation a block's rows are the integer matrix
        Ĝ = scale * G_n. The block's part of v is cleared to integers b over
        one denominator D, so x = scale Ĝ^-1 b / D, and
        ``lifting.solve_integer`` finds that x directly, with scale / D as
        its known factor, by p-adic lifting (Dixon): one L·U factorization
        of Ĝ over the gcd of its entries modulo a word-size prime, a few
        numpy calls per lifting step, and a rational reconstruction of every
        entry of x (Wang, Guy and Davenport). It accepts x only after
        checking Ĝ x = scale b / D exactly, in integers. The factorization
        shows the determinant nonzero modulo the prime, so the block is
        nonsingular and an x passing that check is the solution, whatever
        the reconstruction guessed. A leading minor that is singular over
        the integers raises ``GramSingularError``.

        A float block is factored as L·Lᵀ by ``gram_cholesky`` and solved
        through L and Lᵀ; a formal one is factored as L·D·Lᵀ by ``_ldl``
        and solved through L, D and Lᵀ. No factor is kept: each block is
        solved once.
        """
        groups = {}
        for w, c in v.items():
            groups.setdefault(_content(w), []).append((w, c))
        acc = {}
        for content, terms in groups.items():
            n = len(content)
            blk = self.blocks(n)[content]
            if self._rational:
                x = self._solve_rational(n, content, blk, terms)
            elif self.deformation.is_float:
                x = self._solve_float(n, content, blk, terms)
            else:
                x = self._solve_ldl(n, content, blk, terms)
            for word, c in zip(blk.words, x):
                _add_to(acc, word, c)
        return FockVector._wrap(acc)

    @staticmethod
    def _solve_rational(n, content, blk, terms):
        nums, den = _over_one_denominator(terms)
        b = [0] * len(blk.words)
        for (w, _), c in zip(terms, nums):
            b[blk.index[w]] = c
        try:
            x, x_den = solve_integer(blk.rows, b, Fraction(blk.scale, den))
        except SingularMinor:
            raise GramSingularError(f"{_block_name(n, content)} has a zero pivot") from None
        return [Fraction(c, x_den) for c in x]

    @staticmethod
    def _solve_float(n, content, blk, terms):
        chol = gram_cholesky(np.array(blk.rows, dtype=float), _block_name(n, content))
        b = np.zeros(len(blk.words))
        for w, c in terms:
            b[blk.index[w]] = c
        # numpy has no triangular solver; its LU on the factor stands in
        return np.linalg.solve(chol.T, np.linalg.solve(chol, b)).tolist()

    @classmethod
    def _solve_ldl(cls, n, content, blk, terms):
        rows = cls._ldl(n, content, blk.rows)
        x = [0] * len(rows)
        for w, c in terms:
            x[blk.index[w]] = c
        for r, row in enumerate(rows):
            for l, y in zip(row, x[:r]):
                if l and y:
                    x[r] = x[r] - l * y
        for r, row in enumerate(rows):
            x[r] = _div(x[r], row[r])
        for c in range(len(rows) - 1, 0, -1):
            xc = x[c]
            if xc:
                for r, l in enumerate(rows[c][:c]):
                    if l:
                        x[r] = x[r] - l * xc
        return x

    @staticmethod
    def _ldl(n, content, mat):
        """Factor a formal block as L·D·Lᵀ, L unit lower triangular,
        without pivoting. Row r of the result holds L[r][:r] followed by
        the pivot D[r]. Float blocks never come here: they are factored by
        ``gram_cholesky``.

        The blocks are positive definite for |q_ij| < 1 (Bozejko and
        Speicher; see the module docstring), so every pivot is positive.
        For |q_ij| >= 1 a zero pivot means a singular block or an
        indefinite one with a singular leading minor.
        """
        rows = []
        for r, a in enumerate(mat):
            scaled, row = [], []  # scaled[c] = L[r][c] * D[c]
            for c, lc in enumerate(rows):
                acc = a[c]
                for s, l in zip(scaled, lc):
                    if s and l:
                        acc = acc - s * l
                scaled.append(acc)
                row.append(_div(acc, lc[c]))
            pivot = a[r]
            for s, l in zip(scaled, row):
                if s and l:
                    pivot = pivot - s * l
            if not pivot:
                raise GramSingularError(f"{_block_name(n, content)} has a zero pivot")
            row.append(pivot)
            rows.append(row)
        return rows
