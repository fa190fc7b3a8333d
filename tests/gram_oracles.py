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
complement, a block-diagonal Gram over several levels), as a check on the
library's per-block eigenproblems.

``gram_rows`` reads a content block back as the Gram entries themselves:
the library stores rational blocks as integers, scale times G_n. Two
oracles build those scaled blocks without it: ``peeled_blocks`` by the
right-peeling recursion entry by entry from the level below, a route the
library does not take, and ``forward_blocks`` by the library's forward
product of the peeling factors written word by word, in its order of
operations, so that float blocks agree bit for bit.

``ldl`` factors one block as L·D·Lᵀ without pivoting, and ``ldl_solve``
is the Gram solve built on it: each touched block factored, then
substituted through L, D and Lᵀ. The library solves no Gram block: its
conjugate variables come from the explicit inverse of the peeling factors,
and these solves are its oracle.

``ChainedAdjoints`` builds the conjugate variables the way the paper writes
them, as chains of right-creation adjoints with one Gram solve per adjoint,
against the library's explicit inverse per level.
"""

import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import scipy.linalg

from qfock import FockVector, GramSingularError, analytic_constants, poly_apply, wick_recursive


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


def gram_rows(blk):
    """The Gram entries of a content block: its rows divided by its scale."""
    rows = blk.rows.tolist()
    if blk.scale == 1:
        return rows
    return [[Fraction(g, blk.scale) for g in row] for row in rows]


def peeled_blocks(space, n):
    """{content: (words, rows)} of level n by the right-peeling recursion
    written entry by entry, on the space's cleared entries (s, A): row
    u'j, column v is the sum, over the places t of v with v[t] = j and a
    nonzero weight s^t prod_{r>t} A(j, v[r]), in increasing t, of the
    weight times the level-(n-1) entry at (u', v without t). The library
    builds its blocks by the forward product instead, so this shares no
    code with it. Rows are lists of the scaled entries, ints for rational
    entries; a row entry with no term is the int 0."""
    s, a = space._cleared
    if n == 0:
        return {(): ([()], [[1.0 if space.deformation.is_float else 1]])}
    below = {c: (words, {w: k for k, w in enumerate(words)}, rows) for c, (words, rows) in peeled_blocks(space, n - 1).items()}
    grouped = {}
    for w in _words(space.d, n):
        grouped.setdefault(tuple(sorted(w)), []).append(w)
    blocks = {}
    for content, words in grouped.items():
        peel = []  # peel[b][j]: (position of v without t below, weight)
        for v in words:
            by_letter = {}
            for t, j in enumerate(v):
                weight = s**t
                for r in v[t + 1 :]:
                    weight = weight * a[j - 1][r - 1]
                if not weight:
                    continue
                rest = v[:t] + v[t + 1 :]
                by_letter.setdefault(j, []).append((below[tuple(sorted(rest))][1][rest], weight))
            peel.append(by_letter)
        rows = []
        for u in words:
            head, j = u[:-1], u[-1]
            _, index, sub_rows = below[tuple(sorted(head))]
            row_below = sub_rows[index[head]]
            row = []
            for by_letter in peel:
                total = 0
                for pos, weight in by_letter.get(j, ()):
                    total = total + weight * row_below[pos]
                row.append(total)
            rows.append(row)
        blocks[content] = (words, rows)
    return blocks


def forward_blocks(space, n):
    """{content: (words, rows)} of level n as G_n e_v = (R_2 (x) 1) ...
    (R_{n-1} (x) 1) R_n e_v, word by word on the space's cleared entries
    (s, A): row u, column r is entry u of that product on the unit vector
    of the content's word of rank r. s^(k-1) R_k sends x to s^(k-1) x plus,
    in increasing t = 0 .. k-2, s^t times the move of the letter at place t
    to place k-1: entry u takes x at u[:t] + u[k-1] + u[t:k-1] + u[k:]
    times the weight prod_{t<r<k} A(letter moved, letter r), multiplied
    left to right, or A^(k-1-t) at constant q. The units are 1.0 for float
    entries and the int 1 otherwise."""
    s, a = space._cleared
    constant = space.deformation.is_constant
    one = 1.0 if space.deformation.is_float else 1
    grouped = {}
    for w in _words(space.d, n):
        grouped.setdefault(tuple(sorted(w)), []).append(w)

    def weight(letter, rest):
        if constant:
            return a[0][0] ** len(rest)
        out = a[letter - 1][rest[0] - 1]
        for r in rest[1:]:
            out = out * a[letter - 1][r - 1]
        return out

    blocks = {}
    for content, words in grouped.items():
        columns = []
        for v in words:
            x = {u: one if u == v else one - one for u in words}
            for k in range(n, 1, -1):
                moved = {}
                for u in words:
                    total = x[u] * s ** (k - 1)
                    for t in range(k - 1):
                        w = u[:t] + u[k - 1 : k] + u[t : k - 1] + u[k:]
                        total = total + x[w] * weight(w[t], w[t + 1 : k]) * s**t
                    moved[u] = total
                x = moved
            columns.append(x)
        blocks[content] = (words, [[x[u] for x in columns] for u in words])
    return blocks


def dense_gram(space, n):
    """Level-n Gram matrix of the space as a dense list of rows in the
    lexicographic word basis: its content blocks placed on their words,
    and 0 between them."""
    idx = {w: k for k, w in enumerate(space.words(n))}
    mat = [[0] * len(idx) for _ in idx]
    for blk in space.blocks(n).values():
        pos = [idx[w] for w in blk.words]
        for r, row in zip(pos, gram_rows(blk)):
            for c, value in zip(pos, row):
                mat[r][c] = value
    return mat


def _float_grams(space, level):
    return [np.array(dense_gram(space, n), dtype=float) for n in range(level + 1)]


def dense_domination_residual(space, m):
    """Smallest eigenvalue of w(q0)^-1 G_{m+1} - G_m (x) identity, with
    q0 = max |q_ij|."""
    w, _ = analytic_constants(space.deformation.max_abs_float())
    grams = _float_grams(space, m + 1)
    return float(scipy.linalg.eigvalsh(grams[m + 1] / w - np.kron(grams[m], np.eye(space.d)))[0])


def dense_right_annihilation_norm(space, i, level):
    """Norm of right annihilation by letter i: per level, the largest
    generalized eigenvalue of (S^T G_{n-1} S, G_n) with S selecting the
    words that end in i."""
    d = space.d
    grams = _float_grams(space, level)
    best = 0.0
    for n in range(1, level + 1):
        rows = np.arange(d ** (n - 1))
        sel = np.zeros((d ** (n - 1), d**n))
        sel[rows, rows * d + (i - 1)] = 1.0
        quad = sel.T @ grams[n - 1] @ sel
        best = max(best, float(scipy.linalg.eigh(quad, grams[n], eigvals_only=True)[-1]))
    return best**0.5


def projected_domination_sharp(space, m, i):
    """Sharp constant for the rank-one-projected comparison: the largest c
    with c * (G_m (x) P_i) <= G_{m+1}, via a Schur complement on the
    block of words ending in letter i."""
    d = space.d
    grams = _float_grams(space, m + 1)
    big, small = grams[m + 1], grams[m]
    keep = [k for k in range(d ** (m + 1)) if k % d == i - 1]
    drop = [k for k in range(d ** (m + 1)) if k % d != i - 1]
    if drop:
        schur = big[np.ix_(keep, keep)] - big[np.ix_(keep, drop)] @ np.linalg.solve(
            big[np.ix_(drop, drop)], big[np.ix_(drop, keep)]
        )
    else:
        schur = big
    return float(scipy.linalg.eigh(schur, small, eigvals_only=True)[0])


def dense_haagerup_residual(space, m, trials, seed):
    """``haagerup_residual`` on dense matrices: the Gram of levels 0..m+2 as
    one block-diagonal matrix over the lexicographic words, the action as a
    dense words x codomain x domain tensor, and the same seeded level-m
    coefficients in the same order."""
    _, haag = analytic_constants(space.deformation.max_abs_float())

    def basis(levels):
        words = [w for n in levels for w in space.words(n)]
        gram = scipy.linalg.block_diag(*(np.array(dense_gram(space, n), dtype=float) for n in levels))
        return {w: k for k, w in enumerate(words)}, gram

    dom, g_dom = basis(range(3))
    cod, g_cod = basis(range(m + 3))
    level_words = space.words(m)
    action = np.zeros((len(level_words), len(cod), len(dom)))
    for wi, w in enumerate(level_words):
        poly = wick_recursive(space, w)
        for v, col in dom.items():
            for word, c in poly_apply(space, poly, FockVector.basis(v)).items():
                action[wi, cod[word], col] = c
    g_level = np.array(dense_gram(space, m), dtype=float)
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(trials):
        coeffs = rng.standard_normal(len(level_words))
        op = np.tensordot(coeffs, action, axes=1)
        top = scipy.linalg.eigh(op.T @ g_cod @ op, g_dom, eigvals_only=True)[-1]
        vec_norm = math.sqrt(coeffs @ g_level @ coeffs)
        worst = max(worst, math.sqrt(max(top, 0.0)) - (m + 1) * haag**1.5 * vec_norm)
    return worst


def right_annihilate(i, v):
    """Strip the rightmost letter when it equals i; kill the vacuum."""
    return FockVector({w[:-1]: c for w, c in v.items() if w and w[-1] == i})


def _div(a, b):
    """Division that keeps int/int exact instead of decaying to float."""
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def ldl(n, content, mat):
    """Factor a symmetric block as L·D·Lᵀ, L unit lower triangular, without
    pivoting. Row r of the result holds L[r][:r] followed by the pivot
    D[r]. Inside the disk every pivot is positive (the Gram form is
    positive definite for |q_ij| < 1: M. Bozejko and R. Speicher, Math.
    Ann. 300, 1994); a zero pivot raises ``GramSingularError`` naming the
    level and the content."""
    rows = []
    for r, a in enumerate(mat):
        scaled, row = [], []  # scaled[c] = L[r][c] * D[c]
        for c, lc in enumerate(rows):
            acc = a[c]
            for s, l in zip(scaled, lc):
                if s and l:
                    acc = acc - s * l
            scaled.append(acc)
            row.append(_div(acc, lc[c]))
        pivot = a[r]
        for s, l in zip(scaled, row):
            if s and l:
                pivot = pivot - s * l
        if not pivot:
            raise GramSingularError(f"level-{n} Gram block of content {content} has a zero pivot")
        row.append(pivot)
        rows.append(row)
    return rows


def _substitute(factors, rhs):
    """x with L·D·Lᵀ x = rhs, from the rows of ``ldl``."""
    x = list(rhs)
    for r, row in enumerate(factors):
        for c in range(r):
            if row[c] and x[c]:
                x[r] = x[r] - row[c] * x[c]
    x = [(Fraction(y) if isinstance(y, int) else y) / row[r] for r, (y, row) in enumerate(zip(x, factors))]
    for c in range(len(factors) - 1, 0, -1):
        for r in range(c):
            if factors[c][r] and x[c]:
                x[r] = x[r] - factors[c][r] * x[c]
    return x


def ldl_solve(space, v):
    """The x with G x = v: each content block v touches is factored from
    its Gram entries as L·D·Lᵀ without pivoting, which raises
    ``GramSingularError`` on a zero pivot, and substituted."""
    groups = {}
    for w, c in v.items():
        groups.setdefault(tuple(sorted(w)), []).append((w, c))
    acc = FockVector()
    for content, terms in groups.items():
        n = len(content)
        blk = space.blocks(n)[content]
        rhs = [0] * len(blk.words)
        for w, c in terms:
            rhs[blk.index[w]] = c
        x = _substitute(ldl(n, content, gram_rows(blk)), rhs)
        acc = acc + FockVector(dict(zip(blk.words, x)))
    return acc


class ChainedAdjoints:
    """Right-creation adjoints r*_i, each its own Gram solve, and the
    conjugate variables as sums of their chains. The L·D·Lᵀ factors of a
    block are kept for the next solve on it."""

    def __init__(self, space):
        self.space = space
        self._factors = {}

    def adjoint(self, i, v):
        """r*_i v: each level-n content block of v gives the one-block solve
        G_{n+1} x = (G_n v) (x) e_i."""
        groups = {}
        for w, c in v.items():
            groups.setdefault(tuple(sorted(w)), []).append((w, c))
        acc = FockVector()
        for content, terms in groups.items():
            n = len(content)
            blk = self.space.blocks(n)[content]
            rows = gram_rows(blk)
            up_content = tuple(sorted(content + (i,)))
            up = self.space.blocks(n + 1)[up_content]
            rhs = [0] * len(up.words)
            for k, y in enumerate(blk.words):
                total = 0
                for w, c in terms:
                    total = total + c * rows[blk.index[w]][k]
                rhs[up.index[y + (i,)]] = total
            x = self._solve(n + 1, up_content, rhs)
            acc = acc + FockVector(dict(zip(up.words, x)))
        return acc

    def _solve(self, n, content, rhs):
        key = (n, content)
        if key not in self._factors:
            self._factors[key] = ldl(n, content, gram_rows(self.space.blocks(n)[content]))
        return _substitute(self._factors[key], rhs)

    def sign_weight(self, i, w):
        """(-1)^m times q(j_k, j_l) over 1 <= k <= m, 0 <= l < k, with j_0 = i
        and j_k the k-th letter of w from the right."""
        q = self.space.deformation.q
        letters = (i,) + tuple(reversed(w))
        weight = (-1) ** len(w)
        for k in range(1, len(letters)):
            for l in range(k):
                weight = weight * q(letters[k], letters[l])
        return weight

    def conjugate_series(self, i, source_length):
        """Sum over source words w of length up to ``source_length`` of the
        weighted chain r*_{w_m} ... r*_{w_1} r*_i e_w."""
        acc = FockVector()
        for m in range(source_length + 1):
            for w in self.space.words(m):
                v = self.adjoint(i, FockVector.basis(w))
                for letter in w:
                    v = self.adjoint(letter, v)
                acc = acc + v.scaled(self.sign_weight(i, w))
        return acc
