"""Oracles for applying noncommutative polynomials to Fock vectors.

The library applies a polynomial by Horner's scheme over the prefix trie of
its monomials and sums the cyclic commutators as one polynomial. These
oracles take the direct routes instead:

* ``apply_by_monomials`` runs one chain of field operators per monomial,
  the rightmost letter first, and sums the chains;
* ``commutator_by_letters`` applies each conjugate expansion twice per
  letter, X_i (P_i vacuum) and P_i e_i, and sums the differences;
* ``annihilate_by_letters`` builds each running weight q(i, .) as a chain
  of entry products, letter by letter, and ``gaussian_by_letters`` adds it
  to the creation as two separate vectors.
"""

from qfock import FockSpace, FockVector


def apply_by_monomials(space, p, v):
    """The sum over monomials w of c_w X_w v."""
    return FockVector.combination((space.gaussian_word(w, v), c) for w, c in p.items())


def commutator_by_letters(space, source_length, expansions):
    """The sum over i of (X_i P_i - P_i X_i) on the vacuum, on levels up to
    2 * source_length + 2."""
    top = FockSpace(space.deformation, 2 * source_length + 2)
    terms = []
    for i, poly in expansions.items():
        terms.append((top.gaussian(i, apply_by_monomials(top, poly, top.vacuum())), 1))
        terms.append((apply_by_monomials(top, poly, FockVector.basis((i,))), -1))
    return FockVector.combination(terms)


def annihilate_by_letters(space, i, v):
    """Left annihilation with the running weight a product of entries: the
    sum over positions t with w[t] = i of (prod_{s<t} q(i, w[s])) e_{w
    without t}, the weights multiplied left to right from the int 1."""
    q = space.deformation.q
    acc = {}
    for w, cv in v.items():
        c = 1
        for t, letter in enumerate(w):
            if letter == i:
                key = w[:t] + w[t + 1 :]
                acc[key] = acc.get(key, 0) + cv * c
                if not acc[key]:
                    del acc[key]
            c = c * q(i, letter)
    return FockVector(acc)


def gaussian_by_letters(space, i, v):
    """The field operator as the sum of two vectors, the creation and
    ``annihilate_by_letters``."""
    return space.create(i, v) + annihilate_by_letters(space, i, v)
