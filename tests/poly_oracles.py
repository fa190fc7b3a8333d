"""Independent polynomial oracles over the rationals.

The library multiplies and reduces polynomials in integers (Kronecker
substitution and the heuristic GCD). These oracles work on plain tuples of
Fractions, lowest degree first, with no trailing zeros, by the textbook
routes instead:

* ``schoolbook_mul`` forms every pairwise coefficient product;
* ``euclid_gcd`` runs Euclid's remainder sequence over the rationals and
  returns the monic gcd;
* ``reduce_ratio`` divides a numerator and a denominator by that gcd and
  makes the denominator monic.
"""

from fractions import Fraction


def trim(coeffs):
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def schoolbook_mul(a, b):
    a, b = trim(a), trim(b)
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return trim(out)


def poly_divmod(a, b):
    """(quotient, remainder) of a by a nonzero b."""
    rem, b = list(trim(a)), trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db, lead = len(b) - 1, b[-1]
    quot = [Fraction(0)] * max(len(rem) - db, 0)
    while len(rem) - 1 >= db:
        shift = len(rem) - 1 - db
        f = rem[-1] / lead
        quot[shift] = f
        for k, c in enumerate(b):
            rem[shift + k] -= f * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return trim(quot), trim(rem)


def euclid_gcd(a, b):
    """Monic gcd of a and b; the gcd of two zero polynomials is 1."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return (Fraction(1),)
    return tuple(c / a[-1] for c in a)


def reduce_ratio(num, den):
    """(num, den) divided by their gcd, with den monic; zero is 0 / 1."""
    num, den = trim(num), trim(den)
    if not num:
        return (), (Fraction(1),)
    g = euclid_gcd(num, den)
    num, den = poly_divmod(num, g)[0], poly_divmod(den, g)[0]
    lead = den[-1]
    return tuple(c / lead for c in num), tuple(c / lead for c in den)
