"""Oracles for applying noncommutative polynomials to Fock vectors.

The library applies a polynomial by Horner's scheme over the prefix trie of
its monomials and sums the cyclic commutators as one polynomial. These
oracles take the direct routes instead:

* ``apply_by_monomials`` runs one chain of field operators per monomial,
  the rightmost letter first, and sums the chains;
* ``commutator_by_letters`` applies each conjugate expansion twice per
  letter, X_i (P_i vacuum) and P_i e_i, and sums the differences.
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
