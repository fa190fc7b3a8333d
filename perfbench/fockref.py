"""The benchmark's own deformed Fock arithmetic, written apart from qfock.

Everything here follows from the q-Wick formula: the vacuum expectation of
a product of field operators X_{u_1} ... X_{u_k} is the sum, over pairings
of equal letters, of the product of q(a, b) over every crossing of a pair
with letter a and a pair with letter b. Scanning the product from the
right, the pairs that are still open form a word (leftmost position
first). A position either opens a strand in front of that word, or closes
the t-th open strand, which then crosses exactly the t strands in front of
it. Summing the pairings strand by strand is the transfer below; it never
forms a Gram matrix, a factorization or a permutation count.

Scalars are whatever the deformation entries are (Fraction or float).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


class Deform:
    """A symmetric deformation matrix over letters 1..d."""

    def __init__(self, entries):
        self.d = len(entries)
        self.entries = [list(row) for row in entries]

    @classmethod
    def constant(cls, d, q):
        return cls([[q] * d for _ in range(d)])

    def q(self, a, b):
        return self.entries[a - 1][b - 1]


def words(d, n):
    return [tuple(w) for w in product(range(1, d + 1), repeat=n)]


def words_upto(d, n):
    return [w for k in range(n + 1) for w in words(d, k)]


def add_term(acc, word, value):
    if value:
        total = acc.get(word, 0) + value
        if total:
            acc[word] = total
        else:
            acc.pop(word, None)


def field(dq: Deform, letter, vec):
    """X_letter on a vector {open-strand word: coefficient}: open a strand,
    or close one, weighted by the strands in front of it."""
    out = {}
    for w, c in vec.items():
        add_term(out, (letter,) + w, c)
        weight = 1
        for t, other in enumerate(w):
            if other == letter:
                add_term(out, w[:t] + w[t + 1 :], c * weight)
            weight = weight * dq.q(letter, other)
    return out


class Monomials:
    """X^u applied to the vacuum, for every word u up to a length."""

    def __init__(self, dq: Deform, top):
        self.dq = dq
        self.vec = {(): {(): 1}}
        for n in range(1, top + 1):
            for u in words(dq.d, n):
                self.vec[u] = field(dq, u[0], self.vec[u[1:]])

    def tau(self, u):
        """Vacuum expectation of X^u: the pairings that close every strand."""
        return self.vec[tuple(u)].get((), 0)

    def tau_tensor_tau_derivative(self, i, u):
        """(tau (x) tau)(d_i X^u) for the free difference quotient d_i."""
        total = 0
        for t, letter in enumerate(u):
            if letter == i:
                total = total + self.tau(u[:t]) * self.tau(u[t + 1 :])
        return total


class Pairing:
    """The twisted inner product <e_w, e_v>: close the strands of v one by one
    against the letters of w, leftmost letter of w first."""

    def __init__(self, dq: Deform):
        self.dq = dq
        self._memo = {}

    def basis(self, w, v):
        if len(w) != len(v):
            return 0
        if not w:
            return 1
        key = (w, v)
        got = self._memo.get(key)
        if got is None:
            first = w[0]
            got = 0
            weight = 1
            for t, other in enumerate(v):
                if other == first:
                    got = got + weight * self.basis(w[1:], v[:t] + v[t + 1 :])
                weight = weight * self.dq.q(first, other)
            self._memo[key] = got
        return got

    def functional(self, vec):
        """v -> <vec, e_v> as a dict over the words v that can pair with vec."""
        out = {}
        by_content = {}
        for w in vec:
            by_content.setdefault(tuple(sorted(w)), []).append(w)
        for content, group in by_content.items():
            for v in _arrangements(content):
                total = sum(vec[w] * self.basis(w, v) for w in group)
                if total:
                    out[v] = total
        return out

    def inner(self, a, b):
        phi = self.functional(a)
        return sum(phi.get(v, 0) * c for v, c in b.items())


def _arrangements(content):
    """Distinct words with the given sorted letter multiset."""
    if not content:
        yield ()
        return
    done = set()
    for k, letter in enumerate(content):
        if letter in done:
            continue
        done.add(letter)
        for rest in _arrangements(content[:k] + content[k + 1 :]):
            yield (letter,) + rest


def wick_transform(mono: Monomials, vec):
    """The polynomial P with P(X) vacuum = vec, top level first: X^w vacuum
    is e_w plus lower levels, so each level's coefficients are read off and
    their monomials' lower terms subtracted."""
    rest = dict(vec)
    poly = {}
    for n in range(max((len(w) for w in rest), default=-1), -1, -1):
        for w in [w for w in rest if len(w) == n]:
            c = rest.get(w)
            if not c:
                continue
            poly[w] = c
            for v, cv in mono.vec[w].items():
                add_term(rest, v, -c * cv)
    return poly


def cyclic_derivative(i, poly):
    out = {}
    for w, c in poly.items():
        for t, letter in enumerate(w):
            if letter == i:
                add_term(out, w[t + 1 :] + w[:t], c)
    return out


def q_int(n, q):
    return sum((q**k for k in range(n)), Fraction(0) * q)


def q_fact(n, q):
    out = q**0
    for k in range(1, n + 1):
        out = out * q_int(k, q)
    return out


def one_variable_xi(m, q):
    """Level-(2m+1) coefficient of the one-letter conjugate variable."""
    return (-1) ** m * q ** (m * (m + 1) // 2) * q_fact(m, q) / q_fact(2 * m + 1, q)


def one_variable_fisher(top, q):
    """sum_{m<=top} q^{m(m+1)} ([m]_q!)^2 / [2m+1]_q!."""
    return sum(
        q ** (m * (m + 1)) * q_fact(m, q) ** 2 / q_fact(2 * m + 1, q)
        for m in range(top + 1)
    )
