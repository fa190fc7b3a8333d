"""Closed-form oracle for the majorant terms of ``qfock.norms.series_tail``.

The library builds each majorant's terms from the one before by their
closed-form ratio; here every term is evaluated on its own from its closed
form (powers, factorials and q-factorials), as the library did before it
shared the term sequences. Evaluate under ``mp.workprec`` to get the exact
terms to that precision.
"""

import mpmath as mp

from qfock import analytic_constants


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
