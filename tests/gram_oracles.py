"""Independent Gram-matrix oracles for the level inner products.

Two of them build the dense level-n Gram matrix over the lexicographic word
basis {1..d}^n without the library's right-peeling content blocks:

* ``permutation_gram`` sums q^inversions(pi) over all permutations pi that
  carry one word to the other (constant q only; n! terms per word, so keep
  n <= 6);
* ``left_peeling_gram`` peels the first letter of the row word against
  left annihilation, for any deformation matrix.

``dense_gram`` lays the library's content blocks into that dense matrix, and
the norm oracles below solve the float norm checks of ``qfock.norms`` on the
dense d^n x d^n matrices (a kron product, a selection matrix, a Schur
complement), as a check on the library's per-block eigenproblems.
"""

from itertools import permutations, product

import numpy as np
import scipy.linalg

from qfock import FockSpace, analytic_constants


def _words(d, n):
    return [tuple(w) for w in product(range(1, d + 1), repeat=n)]


def permutation_gram(n, d, q):
    """G[target][source] = sum over pi with pi(source) = target of q^inv(pi)."""
    words = _words(d, n)
    index = {w: k for k, w in enumerate(words)}
    powers = [q**0]
    for _ in range(n * (n - 1) // 2):
        powers.append(powers[-1] * q)
    mat = [[0] * len(words) for _ in words]
    for pi in permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if pi[a] > pi[b])
        for k, source in enumerate(words):
            target = tuple(source[pi[t]] for t in range(n))
            mat[index[target]][k] = mat[index[target]][k] + powers[inv]
    return mat


def left_peeling_gram(n, deformation):
    """<e_u, e_v> = sum over t with v[t] = u[0] of
    (prod_{s<t} q(u[0], v[s])) <e_{u[1:]}, e_{v without t}>."""
    q = deformation.q
    memo = {}

    def ip(u, v):
        if not u:
            return 1
        key = (u, v)
        if key not in memo:
            i = u[0]
            total = 0
            c = 1
            for t, letter in enumerate(v):
                if letter == i:
                    total = total + c * ip(u[1:], v[:t] + v[t + 1 :])
                c = c * q(i, letter)
            memo[key] = total
        return memo[key]

    words = _words(deformation.d, n)
    return [[ip(u, v) for v in words] for u in words]


def dense_gram(space, n):
    """Level-n Gram matrix of the space as a dense list of rows in the
    lexicographic word basis: its content blocks placed on their words,
    and 0 between them."""
    idx = {w: k for k, w in enumerate(space.words(n))}
    mat = [[0] * len(idx) for _ in idx]
    for blk in space.blocks(n).values():
        pos = [idx[w] for w in blk.words]
        for r, row in zip(pos, blk.rows):
            for c, value in zip(pos, row):
                mat[r][c] = value
    return mat


def _float_grams(q0, d, level):
    space = FockSpace.with_scalar_q(d, float(q0), level=level)
    return [np.array(dense_gram(space, n), dtype=float) for n in range(level + 1)]


def dense_domination_residual(m, q0, d):
    """Smallest eigenvalue of w(q)^-1 G_{m+1} - G_m (x) identity."""
    w, _ = analytic_constants(q0)
    grams = _float_grams(q0, d, m + 1)
    return float(scipy.linalg.eigvalsh(grams[m + 1] / w - np.kron(grams[m], np.eye(d)))[0])


def dense_right_annihilation_norm(i, q0, d, level):
    """Norm of right annihilation by letter i: per level, the largest
    generalized eigenvalue of (S^T G_{n-1} S, G_n) with S selecting the
    words that end in i."""
    grams = _float_grams(q0, d, level)
    best = 0.0
    for n in range(1, level + 1):
        rows = np.arange(d ** (n - 1))
        sel = np.zeros((d ** (n - 1), d**n))
        sel[rows, rows * d + (i - 1)] = 1.0
        quad = sel.T @ grams[n - 1] @ sel
        best = max(best, float(scipy.linalg.eigh(quad, grams[n], eigvals_only=True)[-1]))
    return best**0.5


def projected_domination_sharp(m, q0, d):
    """Sharp constant for the rank-one-projected comparison: the largest c
    with c * (G_m (x) P_1) <= G_{m+1}, via a Schur complement on the
    block of words ending in letter 1."""
    grams = _float_grams(q0, d, m + 1)
    big, small = grams[m + 1], grams[m]
    keep = [k for k in range(d ** (m + 1)) if k % d == 0]
    drop = [k for k in range(d ** (m + 1)) if k % d != 0]
    if drop:
        schur = big[np.ix_(keep, keep)] - big[np.ix_(keep, drop)] @ np.linalg.solve(
            big[np.ix_(drop, drop)], big[np.ix_(drop, keep)]
        )
    else:
        schur = big
    return float(scipy.linalg.eigh(schur, small, eigvals_only=True)[0])
