"""Exact scalar arithmetic in the deformation parameter.

Every computation in this package is driven by coefficients in one of three
interchangeable modes:

* a plain :class:`fractions.Fraction` -- the deformation parameter pinned to
  an exact rational value,
* :class:`QPoly` -- a dense polynomial in the formal parameter ``q`` with
  rational coefficients,
* :class:`QRat` -- a reduced ratio of two such polynomials, which is where a
  division lands when it cannot stay polynomial.

Plain Python floats are accepted throughout the package for numerical work.
The exact types refuse to mix with floats so that an exact code path cannot
silently degrade to floating point.

Polynomial products and reductions run in integers. A rational polynomial
is written as a rational content times a primitive integer polynomial; a
product is one big-integer multiplication by Kronecker substitution, and a
ratio is reduced by the heuristic integer GCD of Char, Geddes and Gonnet,
whose exact division check also yields the reduced numerator and
denominator. No Euclidean remainder sequence over the rationals is run.

The module also provides the standard q-deformed integer quantities
([n]_q, [n]_q!, falling products, Gaussian binomials) and the two analytic
constants controlling the operator-norm estimates.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

__all__ = [
    "QPoly",
    "QRat",
    "FORMAL_Q",
    "Deformation",
    "q_int",
    "q_factorial",
    "q_falling",
    "q_binom",
    "gauss_binom_coeffs",
    "analytic_constants",
    "float_eval",
    "magnitude",
    "parse_scalar",
]

_EXACT_NUMBER = (int, Fraction)


# ---------------------------------------------------------------------------
# integer polynomial kernels
# ---------------------------------------------------------------------------
# An integer polynomial is a sequence of ints, lowest degree first, whose
# last entry is nonzero.


def _eval_int(ints, x):
    """Horner value of an integer polynomial at x."""
    acc = 0
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def _kronecker_mul(a, b):
    """Product of two integer polynomials by Kronecker substitution.

    Every product coefficient is at most min(len a, len b) * |a|_max *
    |b|_max in size, which is below 2^(bits-1). So a(2^bits) * b(2^bits),
    one big-integer multiplication, holds the product's coefficients as its
    signed base-2^bits digits, read off with masks and shifts.
    """
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    bits = bound.bit_length() + 1
    base = 1 << bits
    packed = _eval_int(a, base) * _eval_int(b, base)
    mask, half = base - 1, base >> 1
    out = []
    for _ in range(len(a) + len(b) - 1):
        digit = packed & mask
        if digit >= half:
            digit -= base
        out.append(digit)
        packed = (packed - digit) >> bits
    return out


def _xi_adic(h, xi):
    """The integer polynomial whose value at xi is h, read off h's symmetric
    base-xi digits (each in (-xi/2, xi/2])."""
    out = []
    while h:
        digit = h % xi
        if digit > xi // 2:
            digit -= xi
        out.append(digit)
        h = (h - digit) // xi
    return out


def _primitive_part(ints):
    """ints divided by the gcd of its entries, with a positive last entry."""
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return tuple(c // g for c in ints)


def _exact_quotient(f, h):
    """f / h when the integer polynomial h divides f over Z, else None."""
    dh, lead = len(h) - 1, h[-1]
    rem = list(f)
    quot = [0] * (len(f) - dh)
    for k in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[k + dh], lead)
        if r:
            return None
        quot[k] = c
        if c:
            for j in range(dh):
                rem[k + j] -= c * h[j]
    return None if any(rem[:dh]) else tuple(quot)


def _heu_gcd(f, g):
    """(h, f / h, g / h) for h the gcd of two primitive integer polynomials
    with positive leading entries; h and both cofactors have positive
    leading entries too.

    This is GCDHEU (B. W. Char, K. O. Geddes and G. H. Gonnet, "GCDHEU:
    heuristic polynomial GCD algorithm based on integer GCD computation",
    J. Symbolic Comput. 7, 1989). Evaluate both at an integer xi, take the
    integer gcd of the values, read it back as a polynomial in xi (symmetric
    digits) and take its primitive part h. Accept h only when it divides f
    and g exactly; the two quotients are the cofactors. By the paper's
    theorem, for xi >= 2 min(|f|_max, |g|_max) + 2 a primitive h that
    divides both is the gcd, so the division check is the proof.

    Otherwise xi grows, and that ends. Write f = G F and g = G H with G the
    true gcd and F, H coprime. Then gcd(f(xi), g(xi)) = |G(xi)| * delta
    with delta = gcd(F(xi), H(xi)), and delta divides the resultant
    R = res(F, H), a nonzero integer, because R = s F + t H for integer
    polynomials s and t. Once xi > 2 |R| |G|_max, the digits of
    delta * G(xi) are delta times G's coefficients, whose primitive part is
    G itself, and the check passes.
    """
    if len(f) == 1 or len(g) == 1:
        return (1,), f, g
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    while True:
        vf, vg = _eval_int(f, xi), _eval_int(g, xi)
        if vf and vg:
            h = _primitive_part(_xi_adic(math.gcd(vf, vg), xi))
            if len(h) == 1:
                return h, f, g
            cf = _exact_quotient(f, h)
            if cf is not None:
                cg = _exact_quotient(g, h)
                if cg is not None:
                    return h, cf, cg
        # a factor near 2.73 that keeps successive points unrelated
        xi = xi * 73794 // 27011


class QPoly:
    """Polynomial in the formal deformation parameter over the rationals.

    It is held as a rational content times a primitive integer polynomial:
    the integer coefficients, lowest degree first, have gcd 1 and a positive
    leading entry, and the zero polynomial has content 0 and no integer
    coefficients. That form is unique, so structural equality is semantic
    equality. ``coeffs``, the tuple of Fraction coefficients with no
    trailing zeros, is derived from it on first use. Division by another
    polynomial promotes to :class:`QRat`.
    """

    __slots__ = ("_content", "_ints", "_coeffs")

    def __init__(self, coeffs=()):
        coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        self._set(*QPoly._over([c.numerator * (den // c.denominator) for c in coeffs], den))

    def _set(self, content, ints):
        object.__setattr__(self, "_content", content)
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_coeffs", None)

    @staticmethod
    def _over(ints, den):
        """(content, primitive ints) of the polynomial sum_k ints[k]/den q^k."""
        while ints and not ints[-1]:
            ints.pop()
        if not ints:
            return Fraction(0), ()
        prim = _primitive_part(ints)
        return Fraction(ints[-1], den * prim[-1]), prim

    @staticmethod
    def _make(content, ints):
        """The polynomial content * ints, for ints already primitive with a
        positive leading entry (or empty, with content 0)."""
        out = object.__new__(QPoly)
        out._set(content, ints)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self):
        """Fraction coefficients, lowest degree first, no trailing zeros."""
        if self._coeffs is None:
            content = self._content
            object.__setattr__(self, "_coeffs", tuple(content * c for c in self._ints))
        return self._coeffs

    @property
    def degree(self):
        """Degree, with the zero polynomial at -1."""
        return len(self._ints) - 1

    def is_zero(self):
        return not self._ints

    def __bool__(self):
        return bool(self._ints)

    def constant_value(self):
        """The value as a Fraction; only valid for degree <= 0."""
        if len(self._ints) > 1:
            raise ValueError("not a constant polynomial")
        return self._content

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, QPoly):
            return value
        if isinstance(value, _EXACT_NUMBER):
            value = Fraction(value)
            return QPoly._make(value, (1,) if value else ())
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, QRat):
            return NotImplemented
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other._ints:
            return self
        if not self._ints:
            return other
        ca, cb = self._content, other._content
        den = math.lcm(ca.denominator, cb.denominator)
        sa = ca.numerator * (den // ca.denominator)
        sb = cb.numerator * (den // cb.denominator)
        a, b = self._ints, other._ints
        if len(a) < len(b):
            a, b, sa, sb = b, a, sb, sa
        out = [sa * c for c in a]
        for k, c in enumerate(b):
            out[k] += sb * c
        return QPoly._make(*QPoly._over(out, den))

    __radd__ = __add__

    def __neg__(self):
        return QPoly._make(-self._content, self._ints)

    def __sub__(self, other):
        if isinstance(other, QRat):
            return NotImplemented
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, QRat):
            return NotImplemented
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._ints or not other._ints:
            return QPoly()
        # Gauss's lemma: the product of primitive polynomials is primitive
        content = self._content * other._content
        a, b = self._ints, other._ints
        if len(b) > len(a):
            a, b = b, a
        if b[-1] == 1 and not any(b[:-1]):
            # a monomial factor only shifts the coefficients
            return QPoly._make(content, (0,) * (len(b) - 1) + a)
        return QPoly._make(content, tuple(_kronecker_mul(a, b)))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("QPoly power requires a nonnegative integer")
        result = QPoly((Fraction(1),))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def common_factor(self, *others):
        """The primitive integer gcd of this polynomial and the nonzero
        others, coefficients lowest first, or None when it is constant."""
        g = self._ints
        for p in others:
            g = _heu_gcd(g, p._ints)[0] if len(g) > 1 and isinstance(p, QPoly) else (1,)
        return g if len(g) > 1 else None

    def exact_quotient(self, factor):
        """This polynomial over a primitive integer factor of it."""
        return QPoly._make(self._content, _exact_quotient(self._ints, factor)) if self._ints else self

    def __truediv__(self, other):
        if isinstance(other, _EXACT_NUMBER):
            if other == 0:
                raise ZeroDivisionError("division by zero scalar")
            return QPoly._make(self._content / other, self._ints)
        if isinstance(other, QPoly):
            if other.degree <= 0:
                return self / other.constant_value()
            return QRat(self, other)
        if isinstance(other, QRat):
            return NotImplemented
        return NotImplemented

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QRat):
            return NotImplemented
        if isinstance(other, QPoly):
            return self._content == other._content and self._ints == other._ints
        if isinstance(other, _EXACT_NUMBER):
            return self.degree <= 0 and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        if self.degree <= 0:
            return hash(self.constant_value())
        return hash(self.coeffs)

    # -- evaluation --------------------------------------------------------

    def eval_at(self, x):
        """Horner evaluation; exact for Fraction input, float for float."""
        if isinstance(x, float):
            acc = 0.0
            for c in reversed(self.coeffs):
                acc = acc * x + float(c)
            return acc
        return self._content * _eval_int(self._ints, x)

    def __repr__(self):
        if not self._ints:
            return "QPoly(0)"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*q" if c != 1 else "q")
            else:
                parts.append(f"{c}*q^{k}" if c != 1 else f"q^{k}")
        return "QPoly(" + " + ".join(parts) + ")"


#: The formal deformation parameter itself.
FORMAL_Q = QPoly((Fraction(0), Fraction(1)))


class QRat:
    """Reduced ratio of two rational-coefficient polynomials.

    The denominator is kept monic and coprime to the numerator, so equality
    is plain structural comparison. Reducing num / den takes one GCDHEU
    call (:func:`_heu_gcd`) on the two primitive integer parts; its
    cofactors, rescaled by the two contents, are the reduced numerator and
    denominator. See :func:`_heu_gcd` for the citation and for why the
    heuristic always ends, with the true gcd.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=QPoly((Fraction(1),))):
        num = QPoly._coerce(num)
        den = QPoly._coerce(den)
        if num is None or den is None:
            raise TypeError("QRat requires polynomial or exact numeric parts")
        if den.is_zero():
            raise ZeroDivisionError("QRat with zero denominator")
        if num.is_zero():
            num, den = QPoly(), QPoly((Fraction(1),))
        else:
            _, f, g = _heu_gcd(num._ints, den._ints)
            # g's leading entry is positive; dividing by it makes den monic
            lead = g[-1]
            num = QPoly._make(num._content / (den._content * lead), f)
            den = QPoly._make(Fraction(1, lead), g)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("QRat is immutable")

    @staticmethod
    def _coerce(value):
        if isinstance(value, QRat):
            return value
        if isinstance(value, QPoly):
            return QRat(value)
        if isinstance(value, _EXACT_NUMBER):
            return QRat(QPoly((Fraction(value),)))
        return None

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def is_polynomial(self):
        return self.den.degree <= 0

    def as_poly(self) -> QPoly:
        if not self.is_polynomial():
            raise ValueError("denominator is not constant")
        return self.num / self.den.constant_value()

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QRat(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(QRat)
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return QRat(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("QRat power requires a nonnegative integer")
        return QRat(self.num**n, self.den**n)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.is_polynomial():
            return hash(self.as_poly())
        return hash((self.num.coeffs, self.den.coeffs))

    def eval_at(self, x):
        return self.num.eval_at(x) / self.den.eval_at(x)

    def __repr__(self):
        return f"QRat({self.num!r} / {self.den!r})"


# ---------------------------------------------------------------------------
# q-deformed integer quantities
# ---------------------------------------------------------------------------


def q_int(n, q):
    """[n]_q as the division-free sum 1 + q + ... + q^(n-1), in q's ring."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("q_int requires a nonnegative integer")
    # q - q rather than q * 0: a negative float q must not seed -0.0
    total = q - q
    power = q**0
    for _ in range(n):
        total = total + power
        power = power * q
    return total


def q_factorial(n, q):
    """[n]_q! = [n]_q [n-1]_q ... [1]_q, empty product for n = 0."""
    return q_falling(n, n, q)


def q_falling(n, k, q):
    """[n]_q [n-1]_q ... [n-k+1]_q, the k-term falling product."""
    if not isinstance(n, int) or not isinstance(k, int) or k < 0 or k > n:
        raise ValueError("q_falling requires 0 <= k <= n")
    total = q**0
    for t in range(k):
        total = total * q_int(n - t, q)
    return total


def gauss_binom_coeffs(n, k):
    """Integer coefficient tuple of the Gaussian binomial (n choose k)_q.

    Built row by row from the shift recurrence
    (r, j) = (r-1, j-1) + q^j (r-1, j), so no division is ever performed.
    """
    if k < 0 or k > n:
        raise ValueError("gauss_binom_coeffs requires 0 <= k <= n")
    k = min(k, n - k)
    # row[j] = (r choose j)_q for the row r reached so far; (0 choose j) = [j == 0]
    row = [[1]] + [[] for _ in range(k)]
    for r in range(1, n + 1):
        for j in range(min(r, k), 0, -1):
            a, b = row[j - 1], row[j]
            out = a + [0] * (j + len(b) - len(a)) if b else list(a)
            for t, c in enumerate(b):
                out[j + t] += c
            row[j] = out
    return tuple(row[k])


def q_binom(n, k, q):
    """Gaussian binomial (n choose k)_q, polynomial in q by construction."""
    total = q - q
    power = q**0
    for c in gauss_binom_coeffs(n, k):
        if c:
            total = total + c * power
        power = power * q
    return total


# ---------------------------------------------------------------------------
# analytic constants
# ---------------------------------------------------------------------------


_RESCALE_BELOW = 2.0**-900  # analytic_constants rescales its products below this


def analytic_constants(q0):
    """Return (w, C) for |q0| < 1.

    ``w`` satisfies w^2 = (1-|q|^2)^(-1) prod_k (1-|q|^k)(1+|q|^k)^(-1) and
    controls the level-to-level Gram domination; ``C`` is the Haagerup-type
    constant with 1/C = prod_m (1-|q|^m). Both infinite products are
    truncated once a log-series estimate bounds the remaining multiplicative
    tail below 1e-15.

    Each running product is rescaled by a power of two whenever it falls
    below 2^-900, with the exponent kept apart, so it cannot underflow;
    scaling by a power of two is exact, so wherever the plain product stays
    a normal double the result is the same to the bit. Near |q| = 1 the
    constants leave the double range (C first, from |q| ~ 0.99768), and a
    ValueError says so.
    """
    x = abs(float(q0))
    if x >= 1.0:
        raise ValueError("analytic constants require |q| < 1")
    if x == 0.0:
        return 1.0, 1.0

    inv_gap = 1.0 / (1.0 - x)

    out_of_range = ValueError(
        f"analytic constants at |q| = {x!r} are not normal doubles: C = 1/prod_m (1 - |q|^m) "
        "overflows from |q| ~ 0.99768"
    )
    c_prod, c_exp = 1.0, 0
    m = 1
    while True:
        c_prod *= 1.0 - x**m
        if c_prod < _RESCALE_BELOW:  # every factor is at least 2^-53
            c_prod, e = math.frexp(c_prod)
            c_exp += e
            if c_exp <= -1024:  # the product only falls, and C > 2^1024 already
                raise out_of_range
        # remaining |log| tail <= sum_{j>m} x^j/(1-x) = x^(m+1)/(1-x)^2
        if x ** (m + 1) * inv_gap * inv_gap < 1e-15:
            break
        m += 1

    w_prod, w_exp = 1.0, 0
    k = 1
    while True:
        w_prod *= (1.0 - x**k) / (1.0 + x**k)
        if w_prod < _RESCALE_BELOW:
            w_prod, e = math.frexp(w_prod)
            w_exp += e
        # |log factor_j| <= x^j (1 + 1/(1-x)); geometric tail over j > k
        if x ** (k + 1) * (1.0 + inv_gap) * inv_gap < 1e-15:
            break
        k += 1
    # w = sqrt(w_prod 2^r / (1 - x^2)) 2^half with w_exp = 2 half + r: the
    # quotient and the root round as they would on the plain product
    half = w_exp // 2
    w = math.ldexp(math.sqrt(math.ldexp(w_prod, w_exp - 2 * half) / (1.0 - x * x)), half)
    try:
        C = math.ldexp(1.0 / c_prod, -c_exp)
    except OverflowError:
        raise out_of_range from None
    if w < sys.float_info.min:
        raise out_of_range
    return w, C


# ---------------------------------------------------------------------------
# generic helpers over all scalar modes
# ---------------------------------------------------------------------------


def float_eval(s, q0=0.0):
    """Evaluate any scalar at the float (or exact) point q0.

    A rational payload is converted with a single rounding; polynomial and
    rational-function payloads are evaluated exactly first whenever q0 is
    itself exact.
    """
    if isinstance(s, float):
        return s
    if isinstance(s, _EXACT_NUMBER):
        return float(s)
    if isinstance(s, (QPoly, QRat)):
        if isinstance(q0, _EXACT_NUMBER):
            return float(s.eval_at(Fraction(q0)))
        return s.eval_at(float(q0))
    raise TypeError(f"not a scalar: {s!r}")


def magnitude(s):
    """A nonnegative size with magnitude(s) == 0 if and only if s == 0.

    Rationals and floats report |s|; polynomials report the largest absolute
    coefficient, rational functions the largest absolute numerator
    coefficient (the denominator is never zero).
    """
    if isinstance(s, float):
        return abs(s)
    if isinstance(s, _EXACT_NUMBER):
        return abs(Fraction(s))
    if isinstance(s, QPoly):
        return abs(s._content) * max(map(abs, s._ints), default=0)
    if isinstance(s, QRat):
        return magnitude(s.num)
    raise TypeError(f"not a scalar: {s!r}")


def nan_safe(reduce, values):
    """reduce(values) for max or min, or the first NaN among the values:
    max and min keep a number over a NaN that follows it, and a gate
    ``value <= tol`` would then read the number."""
    values = list(values)
    nans = [v for v in values if v != v]
    return nans[0] if nans else reduce(values)


def parse_scalar(value):
    """Parse a JSON/CLI scalar: 'p/q' strings and ints exact, floats float."""
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, bool):
        raise TypeError("boolean is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    if isinstance(value, (Fraction, QPoly, QRat)):
        return value
    raise TypeError(f"cannot parse scalar from {value!r}")


# ---------------------------------------------------------------------------
# deformation matrices
# ---------------------------------------------------------------------------


def _float_rows(rows, q0=None):
    """The rows with every entry evaluated as a float, formal ones at q0."""
    if q0 is None and any(isinstance(v, (QPoly, QRat)) for row in rows for v in row):
        raise ValueError("symbolic deformation needs a point q0")
    return [[float_eval(v, q0) for v in row] for row in rows]


class Deformation:
    """Symmetric d x d matrix of deformation parameters.

    The constant matrix with every entry equal to the same scalar recovers
    the single-parameter case, and every operator in the package runs on the
    matrix form, so the scalar and the mixed case share one code path.
    """

    __slots__ = ("d", "entries")

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        d = len(entries)
        if d == 0 or any(len(row) != d for row in entries):
            raise ValueError("deformation matrix must be square and nonempty")
        for i in range(d):
            for j in range(i + 1, d):
                if not entries[i][j] == entries[j][i]:
                    raise ValueError("deformation matrix must be symmetric")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "entries", tuple(tuple(row) for row in entries))

    def __setattr__(self, name, value):
        raise AttributeError("Deformation is immutable")

    @classmethod
    def constant(cls, d, q):
        return cls([[q] * d for _ in range(d)])

    @classmethod
    def from_json(cls, source):
        """Load from {'d': int, 'entries': [[...]]} with 'p/q' or float entries."""
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as fh:
                source = json.load(fh)
        d = source["d"]
        rows = source["entries"]
        if len(rows) != d:
            raise ValueError("entry rows do not match d")
        parsed = [[parse_scalar(v) for v in row] for row in rows]
        if any(isinstance(v, float) for row in parsed for v in row):
            parsed = _float_rows(parsed)
        return cls(parsed)

    def q(self, i, j):
        """Entry for letters i, j (1-based)."""
        return self.entries[i - 1][j - 1]

    @property
    def is_constant(self):
        first = self.entries[0][0]
        return all(v == first for row in self.entries for v in row)

    @property
    def constant_value(self):
        if not self.is_constant:
            raise ValueError("deformation is not constant")
        return self.entries[0][0]

    @property
    def is_float(self):
        return any(isinstance(v, float) for row in self.entries for v in row)

    @property
    def is_symbolic(self):
        return any(isinstance(v, (QPoly, QRat)) for row in self.entries for v in row)

    def as_float(self, q0=None):
        """The matrix with every entry a float: rationals rounded once,
        formal entries evaluated at the point q0."""
        return Deformation(_float_rows(self.entries, q0))

    def zero_magnitude(self):
        """The magnitude of a zero entry: a maximum of coefficient
        magnitudes starts from it, so that float reports stay all floats."""
        entry = self.entries[0][0]
        return magnitude(entry - entry)

    def max_abs_float(self, q0=None):
        """Largest |entry| after float evaluation (at q0 for symbolic ones)."""
        return max(abs(v) for row in self.as_float(q0).entries for v in row)

    def __eq__(self, other):
        return isinstance(other, Deformation) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Deformation(d={self.d}, entries={self.entries!r})"
