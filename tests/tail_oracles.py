"""Oracles for the majorant terms and tails of ``qfock.norms.series_tail``.

``closed_form_terms`` evaluates every term on its own from its closed form
(powers, factorials and q-factorials), as the library did before it shared
the term sequences; evaluate it under ``mp.workprec`` to get the exact terms
to that precision.

``context_tail`` builds the terms by the closed-form ratios and sums them in
mpf arithmetic of a private 113-bit context, as the library did before it
worked on raw libmp values: the library must reproduce it bit for bit. Its
results are kept, so tests that ask for the same tail sum it once.

``fisher_remainder_above`` bounds the true one-letter Fisher remainder from
above in exact rationals, for checking that a reported tail covers it.
"""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from qfock import analytic_constants

_WIDE = mp.MPContext()
_WIDE.prec = 113


@lru_cache(maxsize=2)
def context_terms(series, x, d, op_norm_bound):
    """(m0, terms) of the named majorant at |q| = x in the 113-bit context:
    terms(k) is t(m0 + k), each term the one before times its ratio."""
    w, haag = analytic_constants(x)
    x, haag = _WIDE.mpf(x), _WIDE.mpf(haag)
    r = 1 / _WIDE.sqrt(w)
    dr = d * r

    def bracket(k):  # the q-integer [k]_x
        return (1 - x**k) / (1 - x)

    def root_bracket(k):
        return _WIDE.sqrt(bracket(k))

    if series == "fisher":
        m0, first = 1, r

        def ratio(m):
            return x**m * dr * root_bracket(m)

    elif series == "xi":
        m0, first = 0, 2 * haag * _WIDE.sqrt(haag) * r

        def ratio(m):
            return x ** (m + 1) * _WIDE.mpf(2 * m + 4) / (2 * m + 2) * dr * root_bracket(m + 1)

    elif series == "lipschitz":
        m0, first, dr3 = 0, 2 * d * haag**3 * r**2, dr**3

        def ratio(m):
            factorials = _WIDE.mpf((2 * m + 3) ** 3 * (2 * m + 4)) / (2 * m + 1) ** 2
            return x ** (m + 1) * factorials * dr3 * root_bracket(m + 1) * bracket(2 * m + 1) * bracket(2 * m + 2)

    elif series == "gibbs":
        a = _WIDE.mpf(op_norm_bound)
        m0, first, step = 0, a * dr**2, dr**3 * a**2

        def ratio(m):
            return x ** (m + 1) * step * root_bracket(m + 1) * ((2 * m + 2) * (2 * m + 3))

    else:
        raise ValueError(f"unknown series {series!r}")
    built = [first]

    def terms(k):
        while len(built) <= k:
            built.append(built[-1] * ratio(m0 + len(built) - 1))
        return built[k]

    return m0, terms


@lru_cache(maxsize=512)
def context_tail(series, truncation, q0, d, op_norm_bound=None):
    """(bound, terms summed) of the tail beyond the truncation: the terms
    summed in the 113-bit context until, beyond m_safe, the next term is
    below half the last one (then added twice) or a term is 0, and the sum
    rounded once into the global context."""
    x = abs(float(q0))
    if series == "gibbs" and op_norm_bound is None:
        op_norm_bound = 2.0 / math.sqrt(1.0 - x)
    m0, terms = context_terms(series, x, d, op_norm_bound if series == "gibbs" else None)
    start = truncation + m0 + 1
    m_safe = start + (0 if x == 0.0 else int(math.ceil(8.0 / (1.0 - x))))
    m = start
    prev = total = terms(m - m0)
    count = 1
    while prev != 0:
        nxt = terms(m + 1 - m0)
        if m >= m_safe and nxt < prev / 2:
            total += 2 * nxt
            count += 1
            break
        total += nxt
        prev = nxt
        m += 1
        count += 1
    return mp.mpf(total), count


def closed_form_terms(series, x, d, op_norm_bound=None):
    """Term function m -> t(m) of the named majorant at |q| = x, with its
    inputs taken at the current mpmath precision."""
    x = abs(float(x))
    w, haag = analytic_constants(x)
    x, r_bound, haag = mp.mpf(x), 1 / mp.sqrt(mp.mpf(w)), mp.mpf(haag)
    qfact_memo = [mp.mpf(1)]

    def qfact(k):
        while len(qfact_memo) <= k:
            j = len(qfact_memo)
            qfact_memo.append(qfact_memo[-1] * (1 - mp.power(x, j)) / (1 - x))
        return qfact_memo[k]

    if series == "fisher":
        def term(m):
            return (
                mp.power(x, m * (m - 1) // 2)
                * mp.power(d, m - 1)
                * mp.power(r_bound, m)
                * mp.sqrt(qfact(m - 1))
            )
    elif series == "xi":
        def term(m):
            return (
                mp.power(d, m)
                * mp.power(x, m * (m + 1) // 2)
                * (2 * m + 2)
                * mp.power(haag, mp.mpf(3) / 2)
                * mp.power(r_bound, m + 1)
                * mp.sqrt(qfact(m))
            )
    elif series == "lipschitz":
        lead = d * mp.power(haag, 3) * mp.power(r_bound, 2)

        def term(m):
            return (
                lead
                * mp.power(x, m * (m + 1) // 2)
                * (2 * m + 1) ** 2
                * mp.factorial(2 * m + 2)
                * mp.power(d * r_bound, 3 * m)
                * mp.sqrt(qfact(m))
                * qfact(2 * m)
            )
    elif series == "gibbs":
        a = mp.mpf(op_norm_bound)

        def term(m):
            return (
                mp.power(x, m * (m + 1) // 2)
                * mp.power(d * r_bound, 3 * m + 2)
                * mp.sqrt(qfact(m))
                * mp.factorial(2 * m + 1)
                * mp.power(a, 2 * m + 1)
            )
    else:
        raise ValueError(f"unknown series {series!r}")
    return term


def fisher_remainder_above(q, truncation):
    """An exact rational upper bound of the d = 1 Fisher remainder beyond
    the truncation M, sum over m >= M + 2 of t_m = |q|^(m(m-1)) ([m-1]_q!)^2
    / [2m-1]_q!, at a rational q in (-1, 1).

    The ratio t_(m+1)/t_m = |q|^(2m) [m]_q^2 / ([2m]_q [2m+1]_q) is at
    most |q|^(2m) c with c = ((1+|q|)/(1-|q|)^2)^2, since (1-|q|)/(1+|q|)
    <= [n]_q <= 1/(1-|q|) for n >= 1. The terms are summed exactly up to the
    first m with |q|^(2m) c <= 1/2; every later ratio is then at most 1/2,
    so the rest is at most t_m, which is added once more."""
    q = Fraction(q)
    a = abs(q)

    def bracket(n):
        return sum((q**k for k in range(n)), Fraction(0))

    def factorial(n):
        out = Fraction(1)
        for k in range(1, n + 1):
            out *= bracket(k)
        return out

    c = ((1 + a) / (1 - a) ** 2) ** 2
    m = truncation + 2
    term = a ** (m * (m - 1)) * factorial(m - 1) ** 2 / factorial(2 * m - 1)
    total = Fraction(0)
    while True:
        total += term
        if a ** (2 * m) * c <= Fraction(1, 2):
            return total + term
        term = term * a ** (2 * m) * bracket(m) ** 2 / (bracket(2 * m) * bracket(2 * m + 1))
        m += 1
