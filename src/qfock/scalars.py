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

The module also provides the standard q-deformed integer quantities
([n]_q, [n]_q!, falling products, Gaussian binomials) and the two analytic
constants controlling the operator-norm estimates.
"""

from __future__ import annotations

import json
import math
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


def _as_fraction_tuple(coeffs):
    out = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class QPoly:
    """Polynomial in the formal deformation parameter over the rationals.

    Coefficients are stored dense, lowest degree first, with no trailing
    zeros, so structural equality is semantic equality. Division by another
    polynomial promotes to :class:`QRat`.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _as_fraction_tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def constant_value(self):
        """The value as a Fraction; only valid for degree <= 0."""
        if len(self.coeffs) > 1:
            raise ValueError("not a constant polynomial")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, QPoly):
            return value
        if isinstance(value, _EXACT_NUMBER):
            return QPoly((Fraction(value),))
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, QRat):
            return NotImplemented
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return QPoly(tuple(-c for c in self.coeffs))

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
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return QPoly(out)

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

    def __truediv__(self, other):
        if isinstance(other, _EXACT_NUMBER):
            if other == 0:
                raise ZeroDivisionError("division by zero scalar")
            inv = Fraction(1, 1) / Fraction(other)
            return QPoly(tuple(c * inv for c in self.coeffs))
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
            return self.coeffs == other.coeffs
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
        acc = 0 if not isinstance(x, float) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + (float(c) if isinstance(x, float) else c)
        return acc

    def __repr__(self):
        if not self.coeffs:
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


def _poly_divmod(a: QPoly, b: QPoly):
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    db, lead = b.degree, b.coeffs[-1]
    quot = [Fraction(0)] * max(len(rem) - db, 0)
    while len(rem) - 1 >= db and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db:
            break
        shift = len(rem) - 1 - db
        f = rem[-1] / lead
        quot[shift] = f
        for k, c in enumerate(b.coeffs):
            rem[shift + k] -= f * c
        rem.pop()
    return QPoly(quot), QPoly(rem)


def _poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    while not b.is_zero():
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a.is_zero():
        return QPoly((Fraction(1),))
    return QPoly(tuple(c / a.coeffs[-1] for c in a.coeffs))


class QRat:
    """Reduced ratio of two rational-coefficient polynomials.

    The denominator is kept monic and coprime to the numerator, so equality
    is plain structural comparison.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=QPoly((Fraction(1),))):
        num = QPoly._coerce(num) if not isinstance(num, QPoly) else num
        den = QPoly._coerce(den) if not isinstance(den, QPoly) else den
        if num is None or den is None:
            raise TypeError("QRat requires polynomial or exact numeric parts")
        if den.is_zero():
            raise ZeroDivisionError("QRat with zero denominator")
        if num.is_zero():
            num, den = QPoly(), QPoly((Fraction(1),))
        else:
            g = _poly_gcd(num, den)
            if g.degree > 0:
                num, _ = _poly_divmod(num, g)
                den, _ = _poly_divmod(den, g)
            lead = den.coeffs[-1]
            if lead != 1:
                num = num / lead
                den = den / lead
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


def analytic_constants(q0):
    """Return (w, C) for |q0| < 1.

    ``w`` satisfies w^2 = (1-|q|^2)^(-1) prod_k (1-|q|^k)(1+|q|^k)^(-1) and
    controls the level-to-level Gram domination; ``C`` is the Haagerup-type
    constant with 1/C = prod_m (1-|q|^m). Both infinite products are
    truncated once a log-series estimate bounds the remaining multiplicative
    tail below 1e-15.
    """
    x = abs(float(q0))
    if x >= 1.0:
        raise ValueError("analytic constants require |q| < 1")
    if x == 0.0:
        return 1.0, 1.0

    inv_gap = 1.0 / (1.0 - x)

    c_prod = 1.0
    m = 1
    while True:
        c_prod *= 1.0 - x**m
        # remaining |log| tail <= sum_{j>m} x^j/(1-x) = x^(m+1)/(1-x)^2
        if x ** (m + 1) * inv_gap * inv_gap < 1e-15:
            break
        m += 1
    C = 1.0 / c_prod

    w_prod = 1.0
    k = 1
    while True:
        w_prod *= (1.0 - x**k) / (1.0 + x**k)
        # |log factor_j| <= x^j (1 + 1/(1-x)); geometric tail over j > k
        if x ** (k + 1) * (1.0 + inv_gap) * inv_gap < 1e-15:
            break
        k += 1
    w = math.sqrt(w_prod / (1.0 - x * x))
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
        return max((abs(c) for c in s.coeffs), default=Fraction(0))
    if isinstance(s, QRat):
        return magnitude(s.num)
    raise TypeError(f"not a scalar: {s!r}")


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
            parsed = [[float_eval(v) for v in row] for row in parsed]
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

    def max_abs_float(self, q0=None):
        """Largest |entry| after float evaluation (at q0 for symbolic ones)."""
        vals = []
        for row in self.entries:
            for v in row:
                if isinstance(v, (QPoly, QRat)):
                    if q0 is None:
                        raise ValueError("symbolic deformation needs a point q0")
                    vals.append(abs(float_eval(v, q0)))
                else:
                    vals.append(abs(float_eval(v)))
        return max(vals)

    def __eq__(self, other):
        return isinstance(other, Deformation) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Deformation(d={self.d}, entries={self.entries!r})"
