"""Noncommutative polynomial calculus over the deformed Gaussian family.

An ``NCPoly`` is a finitely supported map word -> coefficient read as the
sum of coefficient times the product of field operators along the word; an
``NCTensorPoly`` is the two-sided analogue supported on pairs of words.
Both are word maps over the one algebra of :class:`qfock.fock.WordMap`
that Fock vectors use too: sums, scalar multiples and linear combinations
are shared, and only the products and flips live here. A polynomial acts
on a vector by Horner's scheme over the prefix trie of its monomials (see
:func:`poly_apply`): one field-operator application per distinct nonempty
prefix, so O(deg * d^deg) word operations on the vacuum.

The module provides, each in two independent ways where a closed form
exists:

* the Wick transform: the unique polynomial sending the vacuum to a given
  basis vector, via the peeling recursion and via the singleton/pair
  diagram family D; a whole vector is expanded by one pass over the
  prefix trie of its words, from e_a (x) y = X_a y - l_a y, in integers
  scaled by s^E for a rational deformation (see :func:`vector_to_poly`);
* the free difference quotient: the Leibniz derivation with
  d_i(letter j) = delta_ij 1 (x) 1, via Leibniz on monomials and via the
  C-family diagram sum (whose weight skips crossings between right-area
  singletons and the string through vertex 0);
* the cyclic derivative (flip, then multiply);
* the duality pairing between a monomial and a truncated conjugate
  variable, which must vanish exactly;
* the potential whose cyclic gradient reproduces the conjugate variables
  degree by degree, and the commutator criterion that the conjugate
  variables form a cyclic gradient at all.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .dual import _diagram_terms, conjugate_series
from .fock import FockSpace, FockVector, TruncationError, WordMap, _add_to
from .scalars import magnitude

__all__ = [
    "NCPoly",
    "NCTensorPoly",
    "wick_recursive",
    "wick_partition",
    "vector_to_poly",
    "poly_apply",
    "diff_quotient",
    "diff_partition",
    "cyclic_derivative",
    "duality_residual",
    "conjugate_expansions",
    "gibbs_potential",
    "gibbs_gradient_residuals",
    "cyclic_commutator",
]


class NCPoly(WordMap):
    """Finitely supported word -> coefficient map, in canonical form."""

    __slots__ = ()

    @classmethod
    def one(cls):
        return cls({(): 1})

    @classmethod
    def letter(cls, i):
        return cls({(i,): 1})

    def degree(self):
        return max((len(w) for w in self._c), default=-1)

    def degree_part(self, k):
        return NCPoly({w: c for w, c in self._c.items() if len(w) == k})

    def __mul__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        acc = {}
        for u, cu in self._c.items():
            for v, cv in other._c.items():
                _add_to(acc, u + v, cu * cv)
        return NCPoly(acc)

    def prepend(self, i):
        """Multiply by the letter-i generator on the left."""
        return NCPoly({(i,) + w: c for w, c in self._c.items()})

    @staticmethod
    def _label(w):
        return f"A{''.join(map(str, w)) or '^0'}"


class NCTensorPoly(WordMap):
    """Finitely supported (word, word) -> coefficient map, canonical form."""

    __slots__ = ()

    @staticmethod
    def _key(k):
        u, v = k
        return (tuple(u), tuple(v))

    def coeff(self, u, v):
        return super().coeff((u, v))

    def flip(self):
        return NCTensorPoly({(v, u): c for (u, v), c in self._c.items()})

    def flip_multiply(self) -> NCPoly:
        """Send each a (x) b to the product b a."""
        acc = {}
        for (u, v), c in self._c.items():
            _add_to(acc, v + u, c)
        return NCPoly(acc)

    @staticmethod
    def _label(k):
        u, v = k
        return f"{NCPoly._label(u)}(x){NCPoly._label(v)}"


# ---------------------------------------------------------------------------
# Wick transform
# ---------------------------------------------------------------------------


def wick_recursive(space: FockSpace, word) -> NCPoly:
    """The unique polynomial with poly(vacuum) = basis word, by peeling.

    One step removes the leftmost letter a: the polynomial for a word aw is
    the letter-a generator times the polynomial for w, minus the polynomial
    of each word produced by annihilating a in w, with the matching letter
    constraint and cumulative deformation weight that annihilation carries.
    """
    word = tuple(word)
    space._check_level(len(word))
    return space._memo("wick", word, _wick_build, space, word)


def _wick_build(space: FockSpace, word) -> NCPoly:
    if not word:
        return NCPoly.one()
    a, rest = word[0], word[1:]
    head = wick_recursive(space, rest).prepend(a)
    lowered = space.annihilate_word(a, rest)
    return NCPoly.combination([(head, 1)] + [(wick_recursive(space, u), -c) for u, c in lowered.items()])


def wick_partition(space: FockSpace, word) -> NCPoly:
    """The same polynomial by the singleton/pair diagram sum (family D)."""
    # D has no right singletons, so the terms' left words are distinct
    return NCPoly._wrap({monomial: weight for weight, monomial, _ in _diagram_terms(space, "D", tuple(word))})


def vector_to_poly(space: FockSpace, v: FockVector) -> NCPoly:
    """Exact inverse of applying a polynomial to the vacuum, by one pass
    over the prefix trie of the words of v.

    With v = c_0 vacuum + sum_a e_a (x) v_a and e_a (x) y = X_a y - l_a y,
    P(v) = c_0 + sum_a X_a P(v_a) - P(sum_a l_a v_a). So the trie node p
    holds the tails still to expand after the prefix p, longest first: a
    tail a y moves y to the node pa and puts -l_a y back into p, and the
    constant left at p is the coefficient of the monomial p.

    Rational entries and coefficients run on integers, each value held
    times s^E D: (s, A) are the cleared entries, D the coefficients' common
    denominator and E = n(n-1)/2 for the top length n. Annihilating at
    place t <= L - 2 of a tail of length L divides by s^t, and the places
    along any chain of ever shorter tails sum to less than E, so every
    division is exact and each monomial forms one ``Fraction``. Other
    entries take s = 1 through the same loop, as ``FockSpace.annihilate``
    does.
    """
    terms = list(v.items())
    exact = space._rational and all(isinstance(c, (int, Fraction)) for _, c in terms)
    s, a = space._cleared if exact else (1, space.deformation.entries)
    top = max((len(w) for w, _ in terms), default=0)
    den = lcm(*(c.denominator for _, c in terms)) * s ** (top * (top - 1) // 2) if exact else 1
    powers = [s**t for t in range(top)]
    out = {}
    stack = [((), {w: c.numerator * (den // c.denominator) if exact else c for w, c in terms})]
    while stack:
        prefix, tails = stack.pop()
        by_length, below = {}, {}
        for w, c in tails.items():
            by_length.setdefault(len(w), {})[w] = c
        for n in range(top, 0, -1):
            lower = by_length.setdefault(n - 2, {}) if n > 1 else None
            for w, c in by_length.get(n, {}).items():
                first, rest = w[0], w[1:]
                below.setdefault(first, {})[rest] = c
                if first not in rest:
                    continue
                row, weight = a[first - 1], 1
                last = len(rest) - 1 - rest[::-1].index(first)
                for t, letter in enumerate(rest[: last + 1]):
                    if letter == first:
                        _add_to(lower, rest[:t] + rest[t + 1 :], -(c // powers[t] if s != 1 else c) * weight)
                    weight = weight * row[letter - 1]
        constant = by_length.get(0, {}).get(())
        if constant:
            out[prefix] = Fraction(constant, den) if exact else constant
        stack += ((prefix + (letter,), sub) for letter, sub in below.items())
    return NCPoly._wrap(out)


def poly_apply(space: FockSpace, p: NCPoly, v: FockVector) -> FockVector:
    """Evaluate the polynomial in the field operators on a vector, by
    Horner's scheme over the prefix trie of its monomials.

    Writing p = c_0 + sum_a X_a p^(a), where p^(a) collects the monomials
    that start with the letter a with that letter removed, gives
    p(v) = c_0 v + sum_a X_a p^(a)(v). So each distinct nonempty prefix of
    a monomial costs one field-operator application, where applying every
    monomial separately costs one per letter; on the vacuum a polynomial of
    degree k in d letters takes O(k d^k) word operations. A result that
    would leave the truncation (degree plus the top level of v above the
    space's level) is refused before any work.
    """
    top = max((len(w) for w, _ in v.items()), default=0)
    if p.degree() + top > space.level:
        raise TruncationError(
            f"degree-{p.degree()} polynomial on a level-{top} vector exceeds level {space.level}"
        )
    return _horner(space, list(p.items()), 0, v)


def _horner(space: FockSpace, terms, depth, v):
    """Sum of c X_{w[depth:]} v over the (w, c) terms, which all share the
    prefix w[:depth]: the constant, plus one field operator per next letter
    applied to the sum over the terms continuing with that letter."""
    constant = 0
    below = {}
    for w, c in terms:
        if len(w) == depth:
            constant = c
        else:
            below.setdefault(w[depth], []).append((w, c))
    parts = [space.gaussian(a, _horner(space, sub, depth + 1, v)) for a, sub in below.items()]
    if constant:
        parts.append(v.scaled(constant))
    return sum(parts[1:], parts[0]) if parts else FockVector.zero()


# ---------------------------------------------------------------------------
# free difference quotient and cyclic derivative
# ---------------------------------------------------------------------------


def diff_quotient(i, p: NCPoly) -> NCTensorPoly:
    """Leibniz derivation splitting each occurrence of the letter i."""
    acc = {}
    for w, c in p.items():
        for t, letter in enumerate(w):
            if letter == i:
                _add_to(acc, (w[:t], w[t + 1 :]), c)
    return NCTensorPoly(acc)


def diff_partition(space: FockSpace, i, word) -> NCTensorPoly:
    """Difference quotient of a Wick-transformed basis word via family C.

    Left-area singletons feed the left tensor factor, right-area singletons
    the right one (both Wick-expanded); the sign is (-1)^(pairs - 1) and
    the weight collects deformation factors over the crossings, except the
    crossings of right singletons with the string through vertex 0.
    """
    word = tuple(word)
    if not word:
        return NCTensorPoly()
    acc = {}
    for weight, left_word, right_word in _diagram_terms(space, "C", word, i):
        left_poly = wick_recursive(space, left_word)
        right_poly = wick_recursive(space, right_word)
        for u, cu in left_poly.items():
            left = weight * cu
            for v, cv in right_poly.items():
                _add_to(acc, (u, v), left * cv)
    return NCTensorPoly._wrap(acc)


def cyclic_derivative(i, p: NCPoly) -> NCPoly:
    """Flip the difference quotient and multiply the legs back together."""
    return diff_quotient(i, p).flip_multiply()


# ---------------------------------------------------------------------------
# duality with the conjugate variables
# ---------------------------------------------------------------------------


def duality_residual(space: FockSpace, word_u, i, xi: FockVector):
    """tau(A^u xi_i) minus (tau (x) tau)(d_i A^u) for a truncated conjugate
    variable xi = conjugate_series(space, i, M); exactly zero whenever the
    monomial length stays within the truncated series' reach."""
    word_u = tuple(word_u)
    # tau(A^u X) = <xi, A^{reversed u} vacuum> by self-adjointness.
    v = space.vacuum()
    for letter in word_u:
        v = space.gaussian(letter, v)
    lhs = space.inner(xi, v)
    rhs = 0
    for t, letter in enumerate(word_u):
        if letter == i:
            left = space.gaussian_word(word_u[:t], space.vacuum())
            right = space.gaussian_word(word_u[t + 1 :], space.vacuum())
            rhs = rhs + space.trace(left) * space.trace(right)
    return lhs - rhs


# ---------------------------------------------------------------------------
# the potential with cyclic gradient equal to the conjugate variables
# ---------------------------------------------------------------------------


def conjugate_expansions(space: FockSpace, source_length: int):
    """{i: monomial expansion of the truncated conjugate variable xi_i} for
    every letter i, each series Wick-expanded once."""
    return {
        i: vector_to_poly(space, conjugate_series(space, i, source_length))
        for i in range(1, space.d + 1)
    }


def gibbs_potential(expansions) -> NCPoly:
    """Sum over i and words w of coeff(w, i)/(2(1+|w|)) (A^{iw} + A^{wi}),
    where coeff(w, i) is the monomial expansion of the truncated conjugate
    variable with index i, as given by :func:`conjugate_expansions`. A
    constant term in that expansion would make the grading operator
    non-invertible and is a hard error.
    """
    acc = {}
    for i, poly in expansions.items():
        if poly.coeff(()):
            raise ValueError("conjugate expansion has a constant term")
        for w, alpha in poly.items():
            scale = alpha / (2 * (1 + len(w)))
            _add_to(acc, (i,) + w, scale)
            _add_to(acc, w + (i,), scale)
    return NCPoly(acc)


def gibbs_gradient_residuals(space: FockSpace, source_length: int, potential, expansions):
    """Per-degree largest |coefficient| of (cyclic gradient of the
    potential) minus (conjugate expansion), for degrees up to twice the
    source length, from the potential and the expansions it was built from.

    Every even degree is exactly zero, since the expansions have odd degree
    only, and so is every degree for one letter, where the gradient of
    alpha/(k+1) x^(k+1) is alpha x^k. For d >= 2 the degree-k part of xi_i
    collects contributions from every odd level >= k, which the truncated
    series cannot complete: degrees 1 and 3 come out zero as measured at
    M = 2, 3, 4, degree 5 does not (2.1e-3 for q = 1/2, M = 3).
    :func:`cyclic_commutator` is the exact statement.
    """
    zero = space.deformation.zero_magnitude()
    out = {}
    for i, xi_poly in expansions.items():
        diff = cyclic_derivative(i, potential) - xi_poly
        for k in range(2 * source_length + 1):
            worst = out.get(k, zero)
            for w, c in diff.degree_part(k).items():
                m = magnitude(c)
                if m > worst:
                    worst = m
            out[k] = worst
    return out


def cyclic_commutator(space: FockSpace, source_length: int, expansions) -> FockVector:
    """Sum over i of (X_i P_i - P_i X_i) on the vacuum, for the conjugate
    expansions P_i, on levels up to 2 * source_length + 2.

    The full conjugate variables form a cyclic gradient, so the sum of
    their commutators [X_i, xi_i] vanishes (G.-C. Rota, B. Sagan and P. R.
    Stein, J. Algebra 64, 1980; D. Voiculescu, Indiana Univ. Math. J. 49,
    2000). Truncation drops the levels of xi_i above 2M+1, and by the Wick
    product formula a level-k Wick polynomial sends e_i to levels k +- 1,
    so every level up to 2M+1 of the result is exactly zero. Only field
    operators act, so the level-(2M+2) space builds no Gram block.

    The commutators are summed as polynomials first, and the sum, of
    degree 2M+2, is applied once to the vacuum: one field operator per
    distinct prefix, O(deg * d^deg) word operations (see :func:`poly_apply`).
    """
    top = FockSpace(space.deformation, 2 * source_length + 2)
    terms = []
    for i, poly in expansions.items():
        x = NCPoly.letter(i)
        terms += [(x * poly, 1), (poly * x, -1)]
    return poly_apply(top, NCPoly.combination(terms), top.vacuum())
