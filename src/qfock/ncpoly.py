"""Noncommutative polynomial calculus over the deformed Gaussian family.

An ``NCPoly`` is a finitely supported map word -> coefficient read as the
sum of coefficient times the product of field operators along the word; an
``NCTensorPoly`` is the two-sided analogue supported on pairs of words.

The module provides, each in two independent ways where a closed form
exists:

* the Wick transform: the unique polynomial sending the vacuum to a given
  basis vector, via the peeling recursion and via the singleton/pair
  diagram family D;
* the free difference quotient: the Leibniz derivation with
  d_i(letter j) = delta_ij 1 (x) 1, via Leibniz on monomials and via the
  C-family diagram sum (whose weight skips crossings between right-area
  singletons and the string through vertex 0);
* the cyclic derivative (flip, then multiply);
* the duality pairing between a monomial and a truncated conjugate
  variable, which must vanish exactly;
* the potential whose cyclic gradient reproduces the conjugate variables
  degree by degree.
"""

from __future__ import annotations

from .dual import conjugate_series, crossing_weight
from .fock import FockSpace, FockVector, _add_to
from .partitions import enumerate_family

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
]


class NCPoly:
    """Finitely supported word -> coefficient map, in canonical form."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            for w, c in coeffs.items():
                if c:
                    data[tuple(w)] = c
        object.__setattr__(self, "_c", data)

    def __setattr__(self, name, value):
        raise AttributeError("NCPoly is immutable")

    @classmethod
    def one(cls):
        return cls({(): 1})

    @classmethod
    def letter(cls, i):
        return cls({(i,): 1})

    def items(self):
        return self._c.items()

    def coeff(self, word):
        return self._c.get(tuple(word), 0)

    def is_zero(self):
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def degree(self):
        return max((len(w) for w in self._c), default=-1)

    def degree_part(self, k):
        return NCPoly({w: c for w, c in self._c.items() if len(w) == k})

    def __add__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        acc = dict(self._c)
        for w, c in other._c.items():
            _add_to(acc, w, c)
        return NCPoly(acc)

    def __sub__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return NCPoly({w: -c for w, c in self._c.items()})

    def scaled(self, s):
        if not s:
            return NCPoly()
        return NCPoly({w: c * s for w, c in self._c.items()})

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

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __repr__(self):
        if not self._c:
            return "NCPoly(0)"
        bits = [
            f"A{''.join(map(str, w)) or '^0'}: {c!r}"
            for w, c in sorted(self._c.items(), key=lambda t: (len(t[0]), t[0]))
        ]
        return "NCPoly(" + ", ".join(bits) + ")"


class NCTensorPoly:
    """Finitely supported (word, word) -> coefficient map, canonical form."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            for (u, v), c in coeffs.items():
                if c:
                    data[(tuple(u), tuple(v))] = c
        object.__setattr__(self, "_c", data)

    def __setattr__(self, name, value):
        raise AttributeError("NCTensorPoly is immutable")

    def items(self):
        return self._c.items()

    def coeff(self, u, v):
        return self._c.get((tuple(u), tuple(v)), 0)

    def is_zero(self):
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def __add__(self, other):
        if not isinstance(other, NCTensorPoly):
            return NotImplemented
        acc = dict(self._c)
        for k, c in other._c.items():
            _add_to(acc, k, c)
        return NCTensorPoly(acc)

    def __sub__(self, other):
        if not isinstance(other, NCTensorPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return NCTensorPoly({k: -c for k, c in self._c.items()})

    def scaled(self, s):
        if not s:
            return NCTensorPoly()
        return NCTensorPoly({k: c * s for k, c in self._c.items()})

    def flip(self):
        return NCTensorPoly({(v, u): c for (u, v), c in self._c.items()})

    def flip_multiply(self) -> NCPoly:
        """Send each a (x) b to the product b a."""
        acc = {}
        for (u, v), c in self._c.items():
            _add_to(acc, v + u, c)
        return NCPoly(acc)

    def __eq__(self, other):
        if not isinstance(other, NCTensorPoly):
            return NotImplemented
        return self._c == other._c

    def __repr__(self):
        if not self._c:
            return "NCTensorPoly(0)"
        bits = [
            f"A{''.join(map(str, u)) or '^0'}(x)A{''.join(map(str, v)) or '^0'}: {c!r}"
            for (u, v), c in sorted(self._c.items())
        ]
        return "NCTensorPoly(" + ", ".join(bits) + ")"


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
    memo = space._wick_memo
    got = memo.get(word)
    if got is not None:
        return got
    if not word:
        result = NCPoly.one()
    else:
        a, rest = word[0], word[1:]
        result = wick_recursive(space, rest).prepend(a)
        for u, c in space.annihilate(a, FockVector.basis(rest)).items():
            result = result - wick_recursive(space, u).scaled(c)
    with space._lock:
        memo.setdefault(word, result)
    return memo[word]


def wick_partition(space: FockSpace, word) -> NCPoly:
    """The same polynomial by the singleton/pair diagram sum (family D)."""
    word = tuple(word)
    n = len(word)

    def letter(v):
        return word[n - v]

    acc = {}
    for part in enumerate_family("D", n):
        if any(letter(a) != letter(b) for a, b in part.pairs):
            continue
        coeff = crossing_weight(space, part, lambda blk: letter(blk[0]))
        if part.num_pairs % 2 == 1:
            coeff = -coeff
        monomial = tuple(letter(s) for s in sorted(part.singletons, reverse=True))
        _add_to(acc, monomial, coeff)
    return NCPoly(acc)


def vector_to_poly(space: FockSpace, v: FockVector) -> NCPoly:
    """Exact inverse of applying a polynomial to the vacuum."""
    out = NCPoly()
    for w, c in v.items():
        out = out + wick_recursive(space, w).scaled(c)
    return out


def poly_apply(space: FockSpace, p: NCPoly, v: FockVector) -> FockVector:
    """Evaluate the polynomial in the field operators on a vector."""
    out = FockVector.zero()
    for w, c in p.items():
        out = out + space.gaussian_word(w, v).scaled(c)
    return out


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
    n = len(word)
    if n == 0:
        return NCTensorPoly()

    def letter(v):
        return i if v == 0 else word[n - v]

    acc = {}
    for part in enumerate_family("C", n + 1):
        if any(letter(a) != letter(b) for a, b in part.pairs):
            continue
        zero_block = part.zero_block()
        exclude = {frozenset((zero_block, (s,))) for s in part.s_right}
        coeff = crossing_weight(space, part, lambda blk: letter(blk[0]), exclude)
        if part.num_pairs % 2 == 0:
            coeff = -coeff
        left_word = tuple(letter(s) for s in sorted(part.s_left, reverse=True))
        right_word = tuple(letter(s) for s in sorted(part.s_right, reverse=True))
        left_poly = wick_recursive(space, left_word)
        right_poly = wick_recursive(space, right_word)
        for u, cu in left_poly.items():
            for v, cv in right_poly.items():
                _add_to(acc, (u, v), coeff * cu * cv)
    return NCTensorPoly(acc)


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
    series cannot complete. Degrees 1 and 3 still come out exactly zero
    (as measured at M = 2, 3, 4); degrees 5 and up are small but not zero
    (about 2.1e-3 at degree 5 for q = 1/2, M = 3).
    """
    from .scalars import magnitude

    entry = space.deformation.entries[0][0]
    # a zero of the data's own type, so float reports stay all floats
    zero = magnitude(entry - entry)
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
