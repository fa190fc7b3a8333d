"""One-variable structure: deformed Hermite and Chebyshev polynomials.

With a single letter the Wick transform of the level-n basis vector is the
degree-n deformed Hermite polynomial H_n (M. Bozejko, B. Kuemmerer and R.
Speicher, Comm. Math. Phys. 185, 1997), generated by

    H_0 = 1,  H_1 = x,  H_{n+1} = x H_n - [n]_q H_{n-1}.

Chebyshev polynomials of the second kind follow the same recurrence with
[n]_q replaced by 1, and the first kind is reduced to the second by
C_1 = U_1 and C_n = U_n - U_{n-2} for n >= 2. Both families are returned
as one-letter ``NCPoly``s, x the letter 1, so H_n is the very polynomial
that ``wick_recursive`` gives for the word (1,) * n; the coefficient of
x^k is ``coeff((1,) * k)``.

Three classical identities tie the two families together after rescaling
the variable by sqrt(1-q); the square root is handled numerically only,
except where even powers make everything exact (the moment identities).
"""

from __future__ import annotations

import math
from itertools import count, islice
from typing import NamedTuple

from .fock import FockSpace
from .ncpoly import NCPoly
from .scalars import FORMAL_Q, q_binom, q_factorial, q_int

__all__ = [
    "hermite",
    "hermites",
    "cheb",
    "moments",
    "trace_cheb",
    "trace_cheb_odd",
    "rescale_identity_residual",
    "IdentityCheck",
    "q_identity_residual",
]


def _three_term(one, step):
    """P_0 = 1, P_1 = x and P_{m+1} = x P_m - step(m) P_{m-1}, one after
    another, as one-letter polynomials with the unit ``one``."""
    prev, cur = NCPoly({(): one}), NCPoly({(1,): one})
    yield prev
    for m in count(1):
        yield cur
        prev, cur = cur, NCPoly.combination([(cur.prepend(1), 1), (prev, -step(m))])


def hermites(q=FORMAL_Q):
    """H_0, H_1, ... at the given q scalar, each built from the two before."""
    return _three_term(q**0, lambda m: q_int(m, q))


def hermite(n, q=FORMAL_Q) -> NCPoly:
    """Deformed Hermite polynomial of degree n at the given q scalar."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return next(islice(hermites(q), n, None))


def cheb(kind, n) -> NCPoly:
    """Chebyshev polynomial: kind 'U' (second) or 'C' (first, via U)."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if kind == "U":
        return next(islice(_three_term(1, lambda m: 1), n, None))
    if kind == "C":
        if n == 0:
            raise ValueError("first-kind reduction starts at degree 1")
        if n == 1:
            return cheb("U", 1)
        return cheb("U", n) - cheb("U", n - 2)
    raise ValueError(f"unknown kind {kind!r}")


def moments(top, q=FORMAL_Q):
    """Vacuum moments of the one-variable field operator up to degree top."""
    space = FockSpace.with_scalar_q(1, q, level=top)
    out = [1]
    v = space.vacuum()
    for _ in range(top):
        v = space.gaussian(1, v)
        out.append(space.trace(v))
    return out


def _rescaled_trace(k, q):
    """Vacuum trace of U_k in the sqrt(1-q)-rescaled operator, divided by
    sqrt(1-q) when k is odd: U_k has only terms x^j with j = k mod 2, and
    the term c_j x^j contributes c_j (1-q)^(j//2) m_j, m_j the vacuum
    moments."""
    u = cheb("U", k)
    m = moments(k, q)
    one_minus_q = 1 - q
    value = 0
    for j in range(k % 2, k + 1, 2):
        c = u.coeff((1,) * j)
        if c:
            value = value + c * one_minus_q ** (j // 2) * m[j]
    return value


def trace_cheb(n, q=FORMAL_Q):
    """Vacuum trace of U_{2n} evaluated in the sqrt(1-q)-rescaled operator.

    Only integer powers of (1-q) appear, so the value is exact; the
    identity says it equals (-1)^n q^{n(n+1)/2}.
    """
    return _rescaled_trace(2 * n, q)


def trace_cheb_odd(n, q=FORMAL_Q):
    """Vacuum trace of U_{2n-1} in the rescaled operator divided by
    sqrt(1-q), the sum over t of c_{2t+1} (1-q)^t m_{2t+1}.

    Every term carries an odd moment of the field operator, and those
    vanish identically, so the value is exactly zero.
    """
    if n < 1:
        raise ValueError("odd index must be positive")
    return _rescaled_trace(2 * n - 1, q)


def rescale_identity_residual(n, q0):
    """Max coefficient residual of expanding U_n(x sqrt(1-q)) against the
    alternating Gaussian-binomial combination of rescaled Hermites."""
    if not -1 < q0 < 1:
        raise ValueError("needs |q0| < 1")
    q0 = float(q0)
    s = math.sqrt(1.0 - q0)
    u = cheb("U", n)
    lhs = [float(u.coeff((1,) * k)) * s**k for k in range(n + 1)]
    rhs = [0.0] * (n + 1)
    for k in range(n // 2 + 1):
        factor = (
            (-1.0) ** k
            * q0 ** (k * (k + 1) // 2)
            * float(q_binom(n - k, k, q0))
            * s ** (n - 2 * k)
        )
        h = hermite(n - 2 * k, q0)
        for t in range(n - 2 * k + 1):
            rhs[t] += factor * float(h.coeff((1,) * t))
    return max(abs(a - b) for a, b in zip(lhs, rhs))


class IdentityCheck(NamedTuple):
    residual: float
    tail_bound: float
    noise_bound: float


def _summation_tail(m, q0, N):
    """Geometric bound on the dropped terms of the binomial summation
    (1-q)^{m+1} sum_{n>N} q^{(n+1)(n-m)} (1+q^{n+1}) binom(n+m+1, n-m)_q."""
    x = abs(q0)
    if x == 0.0:
        return 0.0
    pref = abs(1.0 - q0) ** (m + 1) * 2.0
    gap = 1.0 - x

    def term_bound(n):
        # Gaussian binomial at |q| is at most (1-|q|)^-(n-m)
        return pref * (x ** (n + 1) / gap) ** (n - m)

    ratio = x ** (2 * N + 4 - m) / gap
    if ratio >= 0.5:
        raise ValueError("truncation too small for a geometric tail bound")
    return term_bound(N + 1) / (1.0 - ratio)


def q_identity_truncation(q0):
    """The least truncation N >= 200 with |q|^(N+2) <= (1-|q|)/2, which
    ``q_identity_residual`` needs at every m for a tail bound that means
    something: beyond N each term bound of ``_summation_tail`` is at most
    half the one before, and the geometric ratio is below 1/2. A weaker N
    that only met that ratio would leave the bound huge (about 1e212 at
    |q| = 0.99, N = 264). N is 200 up to |q| ~ 0.978, 526 at 0.99 and
    7,596 at 0.999. Above 10^6 terms (about 3.5 s for four m), a
    ValueError naming the |q| from which that holds."""
    least, most = 200, 10**6
    x = abs(float(q0))

    def reached(x, N):
        return x ** (N + 2) <= (1.0 - x) / 2.0

    if x == 0.0:
        return least
    # closed form, corrected by the loop for rounding
    N = max(least, math.ceil(math.log((1.0 - x) / 2.0) / math.log(x)) - 3)
    while not reached(x, N):
        N += 1
    if N > most:
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-9:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if reached(mid, most) else (lo, mid)
        raise ValueError(
            f"the q-identity at |q| = {x!r} needs a truncation of {N:,} terms, above {most:,}: "
            f"that fails from |q| ~ {hi:.7f}"
        )
    return N


def _q_identity_terms(m, q0, N):
    """The float terms q^{(n+1)(n-m)} (1+q^{n+1}) binom(n+m+1, n-m)_q for
    n = m..N. The Gaussian binomial starts at binom(2m+1, 0)_q = 1 and is
    carried from term to term by the ratio
    binom(n+m+2, n+1-m)_q = binom(n+m+1, n-m)_q (1-q^{n+m+2}) / (1-q^{n+1-m}),
    whose denominator stays at least 1-|q| > 0."""
    binom = 1.0
    for n in range(m, N + 1):
        yield q0 ** ((n + 1) * (n - m)) * (1.0 + q0 ** (n + 1)) * binom
        binom *= (1.0 - q0 ** (n + m + 2)) / (1.0 - q0 ** (n + 1 - m))


def q_identity_residual(m, q0, N) -> IdentityCheck:
    """Residual of the binomial summation identity against the ratio of
    deformed factorials, truncated at n = N.

    Reports the residual together with a geometric bound on the dropped
    terms and a forward-error bound on the float summation itself: at large
    N the truncation tail underflows while rounding noise does not, so both
    components matter when judging the residual.
    """
    if not -1 < q0 < 1:
        raise ValueError("needs |q0| < 1")
    if N < m:
        raise ValueError("truncation must reach the first term")
    q0 = float(q0)
    total = 0.0
    total_abs = 0.0
    for term in _q_identity_terms(m, q0, N):
        total += term
        total_abs += abs(term)
    pref = (1.0 - q0) ** (m + 1)
    lhs = pref * total
    rhs = float(q_factorial(m, q0)) / float(q_factorial(2 * m + 1, q0))
    eps = 2.0**-52
    noise = (N - m + 4) * eps * (abs(pref) * total_abs + abs(rhs))
    return IdentityCheck(abs(lhs - rhs), _summation_tail(m, q0, N), noise)
