"""Exact solution of nonsingular integer systems by p-adic lifting.

``solve_integer(rows, rhs)`` returns the rational x with A x = b for an
integer matrix A (a list of rows of Python ints) and an integer vector b,
as integer numerators over one common denominator. It is Dixon's method
(J. D. Dixon, "Exact solution of linear equations using p-adic
expansions", Numer. Math. 40, 1982):

* A is factored once as L·U modulo a word-size prime p, without pivoting,
  in numpy ``int64``. A prime that meets a zero pivot is replaced by the
  next prime below it. If the leading minor that ends at that pivot is
  singular over the integers (tested exactly by fraction-free
  elimination), every prime would meet it, and ``SingularMinor`` is raised
  with its size.
* Lifting: with r_0 = b, each step solves A x_k = r_k modulo p through L
  and U and sets r_{k+1} = (r_k - A x_k) / p, which is an exact integer
  division. Then X = sum_k x_k p^k solves A X = b modulo p^K. A step costs
  O(N^2): two triangular solves mod p and the exact product A x_k, done as
  a few int64 products with A cut into signed limbs.
* Rational reconstruction (P. S. Wang, M. J. T. Guy and J. H. Davenport,
  "P-adic reconstruction of rational numbers", SIGSAM Bull. 16, 1982)
  turns X mod P into fractions n/d with |n|, d <= sqrt(P/2), all over one
  denominator that grows entry by entry, so most entries cost a single
  product. A reconstruction is tried after every step.
* A candidate (n, d) is accepted only if A n = d b holds exactly in
  integers. A is nonsingular (its determinant is nonzero mod p), so that
  identity makes n/d the solution: the check, not the modulus or any bound,
  is what makes the result exact. A wrong early candidate fails it and
  lifting goes on. By Cramer's rule the numerators and the denominator
  are determinants, at most the Hadamard bound H; once P > 2 H^2 the
  reconstruction is the solution, so the loop ends there, and going past
  that bound raises instead of looping on.

Every int64 product and sum stays below 2^63: p is chosen with
(N + 1) p^2 < 2^63, and the limbs of A are at most 2^k with N 2^k p < 2^63.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

__all__ = ["SingularMinor", "solve_integer"]

_WORD = 2**63 - 1


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


def _primes(size):
    """The primes p with (size + 1) p^2 < 2^63, largest first."""
    p = isqrt(_WORD // (size + 1))
    while p >= 2:
        if _is_prime(p):
            yield p
        p -= 1


def _factor_mod(mat, p):
    """L·U of an int64 matrix modulo p without pivoting, packed in one array
    (L unit lower below the diagonal, U on and above it), with the inverses
    of the pivots; or the position of the first zero pivot.

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


def _solve_mod(lu, r, p):
    """x with L U x = r modulo p, entries in [0, p)."""
    a, inverses = lu
    n = len(a)
    y = r.copy()
    for k in range(1, n):
        y[k] = (y[k] - a[k, :k] @ y[:k]) % p
    x = y
    x[n - 1] = x[n - 1] * inverses[n - 1] % p
    for k in range(n - 2, -1, -1):
        x[k] = (x[k] - a[k, k + 1 :] @ x[k + 1 :]) % p * inverses[k] % p
    return x


def _limbs(mat, top, p):
    """The matrix, with entries below 2^top in magnitude, as sum_j D_j 2^(k j)
    with int64 digit matrices D_j of magnitude at most 2^k, where
    N 2^k p < 2^63; returns (k, [D_j])."""
    n = len(mat)
    k = (_WORD // (n * p)).bit_length() - 1
    count = max(1, -(-top // k))
    mask = (1 << k) - 1
    digits = [((mat >> (k * j)) & mask).astype(np.int64) for j in range(count - 1)]
    digits.append((mat >> (k * (count - 1))).astype(np.int64))
    return k, digits


def _times(limbs, x):
    """The exact product A x, as an object array of Python ints."""
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


def solve_integer(rows, rhs):
    """(numerators, denominator) of the x with A x = b, for a nonsingular
    integer matrix A given as rows and an integer vector b; raises
    ``SingularMinor`` when a leading minor of A is singular, since the
    factorization runs without pivoting."""
    mat = np.array(rows, dtype=object).reshape(len(rows), len(rows))
    for p in _primes(len(rows)):
        lu = _factor_mod((mat % p).astype(np.int64), p)
        if not isinstance(lu, int):
            break
        if _singular_minor(rows, lu + 1):
            raise SingularMinor(lu + 1)
    top = int(np.abs(mat).max()).bit_length()
    limbs = _limbs(mat, top, p)
    # Hadamard: |det A| and the Cramer numerators det(A with column k
    # replaced by b) are at most prod_i |(row_i, b_i)| < 2^bits, and the
    # reconstruction is the solution once the modulus exceeds 2^(2 bits + 1)
    n = len(rows)
    bits = n * (max(top, max(abs(v) for v in rhs).bit_length()) + ((n + 1).bit_length() + 1) // 2)
    b = np.array(rhs, dtype=object)
    r = b
    solution = np.zeros(n, dtype=object)
    modulus = 1
    while modulus.bit_length() <= 2 * bits + 2:
        x = _solve_mod(lu, (r % p).astype(np.int64), p)
        solution = solution + x.astype(object) * modulus
        modulus *= p
        r = (r - _times(limbs, x)) // p
        found = _reconstruct(solution, modulus)
        if found is not None:
            nums, den = found
            if list(mat.dot(np.array(nums, dtype=object))) == list(b * den):
                return nums, den
    raise ArithmeticError("p-adic lifting passed the Hadamard bound without a certified solution")
