"""Exact solution of nonsingular integer systems by p-adic lifting.

``solve_integer(rows, rhs, factor)`` returns the rational x = factor A^-1 b
for an integer matrix A (a list of rows of Python ints), an integer vector
b and a known rational factor, as integer numerators over one common
denominator. It is Dixon's method (J. D. Dixon, "Exact solution of linear
equations using p-adic expansions", Numer. Math. 40, 1982):

* The target is the answer x itself, not the integer system's own
  solution. The gcd g of A's entries and the gcd of b's are divided out,
  A = g A' and b = c b', and with the factor they make one known rational
  u/v = factor c / g, so x = u y / v with A' y = b'. Lifting solves A' y = b'
  and reconstructs u y from its p-adic digits; v is a plain denominator.
  When A' y has large denominators that u cancels (the scale of a Gram
  block, say), the modulus needed, and so the number of steps, follows the
  size of x rather than that of y.
* A' is factored once as L·U modulo a word-size prime p, without pivoting,
  in numpy ``int64``. The prime depends only on the size of A, so it is
  searched (deterministic Miller-Rabin, largest first) once per size and
  kept in a small bounded cache. A prime that meets a zero pivot is
  replaced by the next prime below it. If the leading minor that ends at
  that pivot is singular over the integers (tested exactly by
  fraction-free elimination), every prime would meet it, and
  ``SingularMinor`` is raised with its size.
* The diagonal panels of L and U, ``PANEL`` rows each, are inverted modulo
  p once (as in FFLAS-FFPACK: J.-G. Dumas, P. Giorgi and C. Pernet, ACM
  TOMS 35, 2008), so a triangular solve is one product with the strip left
  (or right) of each panel and one with its inverse: a few numpy calls per
  panel instead of one per row. A matrix of at most one panel keeps the
  whole inverse U^-1 L^-1, and its solve is one mat-vec.
* Lifting: with r_0 = b', each step solves A' y_k = r_k modulo p through
  those panels and sets r_{k+1} = (r_k - A' y_k) / p, which is an exact
  integer division. Then Y = sum_k y_k p^k solves A' Y = b' modulo p^K. A
  step costs O(N^2) in a fixed few numpy calls per panel: the two
  triangular solves and the exact product A' y_k, done as a few int64
  products with A' cut into signed limbs.
* Rational reconstruction (P. S. Wang, M. J. T. Guy and J. H. Davenport,
  "P-adic reconstruction of rational numbers", SIGSAM Bull. 16, 1982)
  turns u Y mod P into fractions n/d with |n|, d <= sqrt(P/2), all over
  one denominator that grows entry by entry, so most entries cost a single
  product. It is tried only once the modulus has grown by the factor
  ``GROWTH`` in bits since the last try, and at the Hadamard end below, so
  a solve of K steps makes at most log(K) / log(GROWTH) + 2 tries, and
  lifts the modulus at most a factor ``GROWTH`` in bits, plus one step,
  past the size at which the answer first reconstructs.
* A candidate (n, d) is accepted only if A' n = d u b' holds exactly in
  integers. A' is nonsingular (its determinant is nonzero mod p), so that
  identity makes n/d = u y: the check, not the modulus or any bound, is
  what makes the result exact. A wrong early candidate fails it and
  lifting goes on. By Cramer's rule the numerators of y and its
  denominator are determinants, at most the Hadamard bound H, so those of
  u y are at most u H; once P > 2 (u H)^2 the reconstruction is u y, so the
  loop ends there, and going past that bound raises instead of looping on.

Every int64 product and sum stays below 2^63: p is chosen with
(N + 1) p^2 < 2^63, and the limbs of A' are at most 2^k with N 2^k p < 2^63.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from operator import mul

import numpy as np

__all__ = ["SingularMinor", "solve_integer"]

_WORD = 2**63 - 1

# rows per diagonal panel of the triangular solves (see CHANGES.md for the
# measurement that chose it)
PANEL = 64

# the bit length of the modulus grows by this factor between two
# reconstruction tries
GROWTH = 1.25


class SingularMinor(ArithmeticError):
    """A leading principal minor of the matrix is singular."""

    def __init__(self, size):
        super().__init__(f"leading {size} x {size} minor is singular")
        self.size = size


def _is_prime(n):
    """Deterministic Miller-Rabin; the bases 2, 3, 5, 7 decide every n
    below 3,215,031,751."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=256)
def _largest_prime(size):
    """The largest prime p with (size + 1) p^2 < 2^63, searched once per
    size."""
    p = isqrt(_WORD // (size + 1))
    while not _is_prime(p):
        p -= 1
    return p


def _primes(size):
    """The primes p with (size + 1) p^2 < 2^63, largest first."""
    p = _largest_prime(size)
    while p >= 2:
        if _is_prime(p):
            yield p
        p -= 1


def _factor_mod(mat, p):
    """L·U of an int64 matrix modulo p without pivoting, packed in one array
    (L unit lower below the diagonal, U on and above it), with the inverses
    of the pivots; or the position of the first zero pivot. Columns beyond
    the square take the same row operations, so [A | I] becomes
    [L·U packed | L^-1].

    The trailing block is reduced lazily: after t updates its entries lie in
    (-t p^2, p), and only the pivot row and column are reduced before use.
    """
    a = mat.copy()
    n = len(a)
    inverses = np.empty(n, dtype=np.int64)
    for k in range(n):
        a[k, k:] %= p
        pivot = int(a[k, k])
        if not pivot:
            return k
        inv = pow(pivot, -1, p)
        inverses[k] = inv
        if k + 1 < n:
            col = a[k + 1 :, k] % p * inv % p
            a[k + 1 :, k] = col
            a[k + 1 :, k + 1 :] -= np.outer(col, a[k, k + 1 :])
    return a, inverses


def _forward(a, rhs, p):
    """L^-1 rhs modulo p, row by row, for the unit lower triangular L below
    the diagonal of a; rhs is a vector or a matrix with entries in [0, p)."""
    x = rhs.copy()
    for i in range(1, len(a)):
        x[i] = (x[i] - a[i, :i] @ x[:i]) % p
    return x


def _backward(a, inverses, rhs, p):
    """U^-1 rhs modulo p, row by row, for the upper triangular U on and above
    the diagonal of a, whose diagonal entries have the given inverses."""
    n = len(a)
    x = rhs.copy()
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - a[i, i + 1 : n] @ x[i + 1 :]) % p * inverses[i] % p
    return x


def _panels(lu, p):
    """What a solve modulo p needs of the packed factors: (a, inverse), with
    the whole inverse U^-1 L^-1 of a matrix that was factored beside the
    identity (which elimination turns into L^-1), else (a, panels) with
    (start, end, L panel inverse, U panel inverse) for each diagonal panel."""
    a, inverses = lu
    n = len(a)
    if a.shape[1] > n:
        return a, _backward(a, inverses, a[:, n:], p)
    panels = []
    for s in range(0, n, PANEL):
        e = min(s + PANEL, n)
        eye = np.eye(e - s, dtype=np.int64)
        panels.append((s, e, _forward(a[s:e, s:e], eye, p), _backward(a[s:e, s:e], inverses[s:e], eye, p)))
    return a, panels


def _solve_mod(factors, r, p):
    """x with L U x = r modulo p, entries in [0, p): one product with the
    inverse, or forward through the L panels and backward through the U
    panels, each panel one product with the strip beside it and one with
    its inverse."""
    a, panels = factors
    if isinstance(panels, np.ndarray):
        return panels @ r % p
    n = len(a)
    y = r.copy()
    for s, e, low, _ in panels:
        t = y[s:e] - a[s:e, :s] @ y[:s] if s else y[s:e]
        y[s:e] = low @ (t % p) % p
    for s, e, _, up in reversed(panels):
        t = y[s:e] - a[s:e, e:] @ y[e:] if e < n else y[s:e]
        y[s:e] = up @ (t % p) % p
    return y


def _split(rows, content, top, p):
    """A' = A / content, whose entries are below 2^top in magnitude, read a
    band of ``PANEL`` rows at a time: modulo p, beside the identity when it
    fits one panel (see ``_panels``), and as limbs (k, [D_j]) with
    A' = sum_j D_j 2^(k j), int64 digit matrices D_j of magnitude at most
    2^k and N 2^k p < 2^63."""
    n = len(rows)
    k = (_WORD // (n * p)).bit_length() - 1
    count = max(1, -(-top // k))
    mask = (1 << k) - 1
    reduced = np.empty((n, n), dtype=np.int64)
    digits = np.empty((count, n, n), dtype=np.int64)
    for s in range(0, n, PANEL):
        band = np.array(rows[s : s + PANEL], dtype=object)
        if content > 1:
            band = band // content
        reduced[s : s + PANEL] = band % p
        for digit in digits[:-1]:
            digit[s : s + PANEL] = band & mask
            band = band >> k
        digits[-1, s : s + PANEL] = band
    if n <= PANEL:
        reduced = np.hstack((reduced, np.eye(n, dtype=np.int64)))
    return reduced, (k, digits)


def _times(limbs, x):
    """The exact product A' x from the limbs of A', as an object array of
    Python ints."""
    k, digits = limbs
    total = (digits[-1] @ x).astype(object)
    for d in reversed(digits[:-1]):
        total = (total << k) + (d @ x).astype(object)
    return total


def _recon_one(u, modulus, num_bound, den_bound):
    """Wang's reconstruction of u mod modulus as (a, b) with |a| <= num_bound,
    0 < b <= den_bound and a = u b mod modulus, or None."""
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > num_bound:
        quo = r0 // r1
        r0, r1 = r1, r0 - quo * r1
        t0, t1 = t1, t0 - quo * t1
    if t1 == 0 or abs(t1) > den_bound:
        return None
    if t1 < 0:
        r1, t1 = -r1, -t1
    return r1, t1


def _reconstruct(residues, modulus):
    """Integer numerators over one common denominator, each |n| and the
    denominator at most sqrt(modulus / 2), matching the residues mod
    modulus; or None where no such fractions exist."""
    bound = isqrt(modulus // 2)
    half = modulus // 2
    den = 1
    for x in residues:
        y = x * den % modulus
        if y <= bound or modulus - y <= bound:
            continue
        found = _recon_one(y, modulus, bound, bound // den)
        if found is None:
            return None
        den *= found[1]
    nums = []
    for x in residues:
        y = x * den % modulus
        if y > half:
            y -= modulus
        if abs(y) > bound:
            return None
        nums.append(y)
    return nums, den


def _singular_minor(rows, size):
    """Whether the leading size x size minor is singular, by fraction-free
    (Bareiss) elimination with row exchanges, in exact integers."""
    m = [list(row[:size]) for row in rows[:size]]
    prev = 1
    for k in range(size):
        piv = next((r for r in range(k, size) if m[r][k]), None)
        if piv is None:
            return True
        m[k], m[piv] = m[piv], m[k]
        for r in range(k + 1, size):
            for c in range(k + 1, size):
                m[r][c] = (m[r][c] * m[k][k] - m[r][k] * m[k][c]) // prev
        prev = m[k][k]
    return False


def solve_integer(rows, rhs, factor=1):
    """(numerators, denominator) of x = factor A^-1 b, for a nonsingular
    integer matrix A given as rows, an integer vector b and a rational
    factor; raises ``SingularMinor`` when a leading minor of A is singular,
    since the factorization runs without pivoting."""
    n = len(rows)
    content = 0
    for row in rows:
        content = gcd(content, *row)
    # a zero matrix keeps content 1 and meets a zero pivot below
    content = content or 1
    top = (max(max(max(row), -min(row)) for row in rows) // content).bit_length()
    rhs_content = gcd(*rhs) or 1
    b = np.array([c // rhs_content for c in rhs], dtype=object)
    for p in _primes(n):
        reduced, limbs = _split(rows, content, top, p)
        lu = _factor_mod(reduced, p)
        if not isinstance(lu, int):
            break
        if _singular_minor(rows, lu + 1):
            raise SingularMinor(lu + 1)
    factors = _panels(lu, p)
    known = Fraction(factor) * Fraction(rhs_content, content)
    u, v = known.numerator, known.denominator
    # Hadamard: |det A'| and the Cramer numerators det(A' with column k
    # replaced by b') are at most prod_i |(row_i, b'_i)| < 2^bits; those of
    # u y are at most u times that, and the reconstruction is u y once the
    # modulus exceeds 2^(2 (bits + bits of u) + 1)
    bits = n * (max(top, max(abs(c) for c in b).bit_length()) + ((n + 1).bit_length() + 1) // 2)
    end = 2 * (bits + abs(u).bit_length()) + 2
    r = b
    solution = np.zeros(n, dtype=object)
    modulus = 1
    tried = 0
    while modulus.bit_length() <= end:
        y = _solve_mod(factors, (r % p).astype(np.int64), p)
        solution = solution + y.astype(object) * modulus
        modulus *= p
        r = (r - _times(limbs, y)) // p
        size = modulus.bit_length()
        if size >= GROWTH * tried or size > end:
            tried = size
            found = _reconstruct(solution * u % modulus, modulus)
            if found is not None:
                nums, den = found
                # A n = content den u b', checked row by row in integers
                scaled = content * den * u
                if all(sum(map(mul, row, nums)) == c * scaled for row, c in zip(rows, b)):
                    return nums, den * v
    raise ArithmeticError("p-adic lifting passed the Hadamard bound without a certified solution")
