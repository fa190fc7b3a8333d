"""Numerical verification of the operator-norm inequalities and tail bounds.

Everything here is floating point on the truncated space. Operator norms
with respect to the twisted inner product are generalized symmetric
eigenproblems against the level Gram matrices, solved with numpy through
the Cholesky factor of the Gram. That factor comes from
``fock.gram_cholesky``, the one factorization of float Gram data, and a
Gram that is not positive definite raises ``GramSingularError``, the
error the explicit inverse of ``FockSpace.inverse_peel`` raises on a
singular window. Truncation makes
every computed norm a lower bound on the true one, which is the
conservative direction when checking an upper-bound inequality.

Every operator checked here keeps letter content: G_{m+1} and G_m (x) 1
map each level-(m+1) content block to itself, and right annihilation by
letter i maps the block of content c+i to the block of content c. So each
check is a min or max over small per-block eigenproblems on the blocks of
``FockSpace.blocks``; none of them depends on the order of the word basis.
Their max and min over blocks, levels and trials return a NaN wherever
one occurs (``scalars.nan_safe``), so that no gate reads a number past it.

The norm engines read the blocks of the float space they are given, so a
mixed q_ij space is checked on its own Gram blocks, against the constants
w and C at q0 = max |q_ij|, the same q0 as its series tails. The paper
indicates that both estimates carry over to mixed q_ij relations (M.
Bożejko and R. Speicher, Math. Ann. 300, 1994); the projected comparison
reads letter 1. A space over rational or formal entries is refused, since
its blocks do not hold G_n itself (rational blocks hold scale * G_n in
integers).

Series tails are summed in arbitrary-precision floats: at strong
deformation the majorant terms pass through astronomically large magnitudes
before the quadratic exponent wins, far beyond double range, yet the sums
stay finite. Each majorant's terms are built once per process, each from
the one before by its closed-form ratio, and kept in a small memo shared by
every truncation (``_majorant``). The ratios of the four majorants at one
|q| read x^k, [k]_x and sqrt([k]_x) from one bounded per-|q| table
(``_powers``), so each power is formed once. Each majorant records, as its
terms grow, the indices k where t(k) < t(k-1) / 2, so a tail finds its stop
by bisection; and it keeps one running chain of partial sums, which a tail
from any other start meets once its own rounded partial sum equals the
chain's at the same index. From there the two are bit-identical, since
every later step is the same addition of the same term. Terms and
sums are raw ``mpmath.libmp`` values at 113 bits, with the operations and
roundings of mpf arithmetic at that precision, so a reported bound is the
exact truncated sum rounded once to double precision. Near |q| = 1 a tail
may take more than ``TAIL_TERMS`` terms to start halving, and the Haagerup
bound C^(3/2) may overflow; both are refused up front with the |q| from
which they fail (``check_tail``, ``haagerup_factor``).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath as mp
import numpy as np
from mpmath.libmp import (
    fone, from_float, from_int, fzero, mpf_add, mpf_div, mpf_lt, mpf_mul, mpf_mul_int, mpf_pow_int,
    mpf_rdiv_int, mpf_shift, mpf_sqrt, mpf_sub, round_nearest,
)

from .fock import FockVector, _block_name, gram_cholesky
from .ncpoly import poly_apply, wick_recursive
from .scalars import analytic_constants, nan_safe

__all__ = [
    "TailReport",
    "gram_domination_residual",
    "projected_domination",
    "right_annihilation_norm",
    "right_gains",
    "haagerup_factor",
    "haagerup_residual",
    "check_tail",
    "series_tail",
]

SERIES_IDS = ("xi", "gibbs", "fisher", "lipschitz")


@dataclass(frozen=True)
class TailReport:
    """Tail bound for one of the truncated series the package reports."""

    series: str
    truncation: int
    bound: object  # mpmath float; may exceed double range while finite
    terms_summed: int
    formula: str
    params: dict = field(default_factory=dict)

    @property
    def bound_float(self):
        try:
            return float(self.bound)
        except OverflowError:
            return math.inf

    def is_finite(self):
        return mp.isfinite(self.bound)

    def __repr__(self):
        return (
            f"TailReport({self.series}, M={self.truncation}, "
            f"bound={mp.nstr(self.bound, 6)})"
        )


def _top_eigenvalue(quad, chol):
    """Largest generalized eigenvalue of (quad, L Lᵀ), as the largest
    eigenvalue of L^-1 quad L^-T, for the Cholesky factor L of a Gram."""
    half = np.linalg.solve(chol, quad)
    return float(np.linalg.eigvalsh(np.linalg.solve(chol, half.T))[-1])


def _lift(below, blk, j):
    """r_j* G_{n-1} r_j on one level-n content block: the level-(n-1) Gram
    block of the heads of its words that end in letter j, placed on those
    words, and 0 on the rest. Those heads are the words of their block in
    its own order, so the whole block is placed."""
    pos = [k for k, w in enumerate(blk.words) if w[-1] == j]
    out = np.zeros((len(blk.words), len(blk.words)))
    out[np.ix_(pos, pos)] = below[tuple(sorted(blk.words[pos[0]][:-1]))].rows
    return out


def right_gains(space, n, letters):
    """{i: squared norm of right annihilation by letter i on level n} for
    each of the letters.

    r_i maps the level-n block of content c to the level-(n-1) block of
    c without i, so its gain is the largest generalized eigenvalue of
    (r_i* G_{n-1} r_i, G_n[c]), maximized over the blocks c holding i.
    Each block is factored once for all the letters it holds.
    """
    for i in letters:
        space._check_letter(i)
    _require_float(space)
    below = space.blocks(n - 1)
    gains = {i: [0.0] for i in letters}
    for content, blk in space.blocks(n).items():
        held = [i for i in letters if i in content]
        if held:
            chol = gram_cholesky(blk.rows, _block_name(n, content))
            for i in held:
                gains[i].append(_top_eigenvalue(_lift(below, blk, i), chol))
    return {i: nan_safe(max, gains[i]) for i in letters}


def _require_float(space):
    """Refuse a space whose blocks do not hold the float Gram entries:
    rational blocks hold scale * G_n in integers."""
    if not space.deformation.is_float:
        raise ValueError("norm checks need a float deformation; see Deformation.as_float")


def gram_domination_residual(space, m):
    """Smallest eigenvalue of w(q)^-1 G_{m+1} - G_m (x) identity.

    This full-tensor domination, with the identity factor on the last
    letter, is informational: it is genuinely violated at q = 1/2 (negative
    from m = 3 on), while the right-annihilation estimate only needs the
    projected comparison of ``projected_domination``. Both operators keep
    letter content, so the minimum runs over the level-(m+1) content
    blocks, each solved on its own.
    """
    _require_float(space)
    w, _ = analytic_constants(space.deformation.max_abs_float())
    lows = []
    for content, blk in space.blocks(m + 1).items():
        diff = blk.rows / w
        for j in sorted(set(content)):
            diff -= _lift(space.blocks(m), blk, j)
        lows.append(float(np.linalg.eigvalsh(diff)[0]))
    return nan_safe(min, [math.inf, *lows])


def projected_domination(space, m, i):
    """Sharp constant c_m of the projected comparison c (G_m (x) P_i) <= G_{m+1}.

    P_i projects the last letter onto letter i, so G_m (x) P_i = r_i* G_m r_i
    and the largest such c is the inverse of the squared norm of r_i on
    level m+1. Hence ||r_i||^2 = 1 / min_m c_m on the truncated space, and
    the estimate ||r_i|| <= w(q)^(-1/2) is the statement c_m >= w(q).
    """
    return 1.0 / right_gains(space, m + 1, [i])[i]


def right_annihilation_norm(space, i, level):
    """Norm of right annihilation on the truncated space, by level.

    Each level contributes the largest generalized singular value against
    the Gram weights; the result must stay below w(q)^(-1/2) plus noise.
    """
    space._check_letter(i)
    _require_float(space)
    return math.sqrt(nan_safe(max, [0.0, *(right_gains(space, n, [i])[i] for n in range(1, level + 1))]))


LEVEL_MARGIN = 2  # haagerup_residual's domain holds levels 0..LEVEL_MARGIN


def haagerup_factor(q0):
    """C^(3/2) at q0, the factor of the Haagerup bound (m+1) C^(3/2).

    It leaves the double range from |q| ~ 0.99656 (C ~ 3.2e205 there),
    before C itself does, and a ValueError says so."""
    _, haag = analytic_constants(q0)
    try:
        return haag**1.5
    except OverflowError:
        raise ValueError(
            f"Haagerup bound at |q| = {abs(float(q0))!r} is not a double: C^(3/2) overflows from |q| ~ 0.99656"
        ) from None


def _block_basis(space, levels):
    """The words of the given levels numbered block by block, as {word:
    position}, and each content block's range of positions with its Gram
    matrix."""
    index, blocks = {}, []
    for n in levels:
        for blk in space.blocks(n).values():
            start = len(index)
            index.update((w, start + k) for k, w in enumerate(blk.words))
            blocks.append((slice(start, len(index)), blk.rows))
    return index, blocks


def haagerup_residual(space, m, trials=50, seed=0):
    """Randomized check of the level-m norm comparison.

    Draws level-m coefficient vectors, forms the operator with that vacuum
    vector, and compares its truncated operator norm (a lower bound on the
    true one) against (m+1) C^{3/2} times the twisted vector norm. The
    returned maximum over trials must not be positive.

    The action of each level-m Wick word is kept as its nonzero entries
    only, and the quadratic form op^T G op of the codomain Gram is summed
    over its content blocks, so no dense codomain Gram or words x codomain x
    domain tensor is formed.
    """
    _require_float(space)
    bound_factor = (m + 1) * haagerup_factor(space.deformation.max_abs_float())
    dom_index, dom_blocks = _block_basis(space, range(LEVEL_MARGIN + 1))
    cod_index, cod_blocks = _block_basis(space, range(m + LEVEL_MARGIN + 1))
    g_dom = np.zeros((len(dom_index), len(dom_index)))
    for at, gram in dom_blocks:
        g_dom[at, at] = gram
    chol_dom = gram_cholesky(g_dom, f"domain Gram of levels 0..{LEVEL_MARGIN}")

    # the seeded coefficients fill the level-m words in lexicographic order;
    # entry k of the action adds value[k] * coeffs[word_of[k]] to the
    # operator at the flat (codomain, domain) position cell[k]
    level_words = space.words(m)
    word_of, cell, value = [], [], []
    for wi, w in enumerate(level_words):
        poly = wick_recursive(space, w)
        for v, col in dom_index.items():
            for word, c in poly_apply(space, poly, FockVector.basis(v)).items():
                word_of.append(wi)
                cell.append(cod_index[word] * len(dom_index) + col)
                value.append(c)
    word_of, cell, value = np.array(word_of), np.array(cell), np.array(value, dtype=float)
    shape = (len(cod_index), len(dom_index))

    rng = np.random.default_rng(seed)
    excess = []
    for _ in range(trials):
        coeffs = rng.standard_normal(len(level_words))
        vec = FockVector(dict(zip(level_words, coeffs)))
        vec_norm = math.sqrt(space.inner(vec, vec))
        op = np.bincount(cell, weights=coeffs[word_of] * value, minlength=shape[0] * shape[1]).reshape(shape)
        quad = sum(op[at].T @ gram @ op[at] for at, gram in cod_blocks)
        op_norm = math.sqrt(max(_top_eigenvalue(quad, chol_dom), 0.0))
        excess.append(op_norm - bound_factor * vec_norm)
    return nan_safe(max, [-math.inf, *excess])


# ---------------------------------------------------------------------------
# series tails
# ---------------------------------------------------------------------------

# The majorant terms and the tail sums are raw mpmath values (``mpf._mpf_``
# tuples) worked on by ``mpmath.libmp`` at 113 bits, 60 beyond double
# precision, rounding to nearest: the operations and roundings of mpf
# arithmetic in a context of that precision, without its wrapper objects.
# Each bound is rounded once into the global context. ``_WIDE`` is that
# context, used only to hand raw values out as mpfs; its precision is never
# changed, so threads can share it.
_PREC, _RND = 113, round_nearest
_WIDE = mp.MPContext()
_WIDE.prec = _PREC
_HALF = mpf_shift(fone, -1)
TAIL_TERMS = 100000  # the most terms a tail sums before its terms must halve
_MEMO_LOCK = threading.Lock()


def _mul(*factors):
    """The product of raw values, multiplied left to right and each
    product rounded, as a chain of mpf products is."""
    out = factors[0]
    for f in factors[1:]:
        out = mpf_mul(out, f, _PREC, _RND)
    return out


class _Powers:
    """x^k, the q-integer [k]_x = (1 - x^k) / (1 - x) and its square root
    at one |q| = x, each formed once, on first read, x^k by one
    ``mpf_pow_int``: the factors the ratios of every majorant at x read.
    An entry never changes once stored, so no lock is taken; threads that
    miss at once form the same value and ``setdefault`` keeps one."""

    def __init__(self, x):
        self.x, self._x = x, from_float(x)
        self._gap = mpf_sub(fone, self._x, _PREC, _RND)
        self._power, self._bracket, self._root = {}, {}, {}

    def power(self, k):
        got = self._power.get(k)
        return self._power.setdefault(k, mpf_pow_int(self._x, k, _PREC, _RND)) if got is None else got

    def bracket(self, k):
        got = self._bracket.get(k)
        if got is None:
            got = self._bracket.setdefault(k, mpf_div(mpf_sub(fone, self.power(k), _PREC, _RND), self._gap, _PREC, _RND))
        return got

    def root(self, k):
        got = self._root.get(k)
        return self._root.setdefault(k, mpf_sqrt(self.bracket(k), _PREC, _RND)) if got is None else got


_powers = lru_cache(maxsize=8)(_Powers)


class _Majorant:
    """The raw terms t(m0), t(m0+1), ... of one majorant series, grown on
    demand, with their halving indices and one chain of partial sums.

    t(m0) is the last term that every truncation keeps: the tail beyond
    truncation M starts at t(m0 + 1 + M). Each new term is the one before it
    times the closed-form ratio ``ratio(m, powers) = t(m+1) / t(m)``. The
    lists only grow, and only under the lock, so concurrent callers extend
    one set of lists and read the same values; an entry once there never
    changes, so it can be read without the lock.
    """

    def __init__(self, m0, first, ratio, formula, powers):
        self.m0 = m0
        self.formula = formula
        self._ratio, self._powers = ratio, powers
        self._terms = [first]
        self._halving = []  # every k with t(k) < t(k-1) / 2, ascending
        self._zero = 0 if first == fzero else math.inf  # the first k with t(k) = 0, if any
        self._base, self._sums = None, []  # _sums[j] = t(base) + ... + t(base + j)
        self._lock = threading.Lock()

    def _grow(self, k):
        """The term list, extended through index k; the lock is held."""
        terms = self._terms
        while len(terms) <= k:
            prev, at = terms[-1], len(terms)
            term = mpf_mul(prev, self._ratio(self.m0 + at - 1, self._powers), _PREC, _RND)
            # halving is exact, so this is the test t(k) < t(k-1) / 2
            if mpf_lt(term, mpf_shift(prev, -1)):
                self._halving.append(at)
            if term == fzero:
                self._zero = min(self._zero, at)
            terms.append(term)
        return terms

    def term(self, m):
        with self._lock:
            return _WIDE.make_mpf(self._grow(m - self.m0)[m - self.m0])

    def stops_in_reach(self, start, m_safe):
        """Whether ``tail(start, m_safe)`` stops within TAIL_TERMS terms
        past t(start), read off one ratio, formed on a table of its own so
        that the shared one keeps no entry that far out: from m_safe on the
        ratio is strictly decreasing, so the tail stops in reach exactly
        when m_safe is in reach and the ratio of the last step in reach is
        below one half."""
        last = start + TAIL_TERMS - 1
        return m_safe <= last and mpf_lt(self._ratio(last, _Powers(self._powers.x)), _HALF)

    def _stop(self, lo, safe):
        """The index of the last term of the tail from index lo: lo if
        t(lo) = 0, else the first zero term or the first halving index
        past safe, whichever comes first. The list grows that far, and
        never beyond TAIL_TERMS past lo; the lock is held."""
        terms, halving = self._grow(lo), self._halving
        while self._zero > len(terms) and (not halving or halving[-1] <= safe) and len(terms) <= lo + TAIL_TERMS:
            self._grow(len(terms))
        at = bisect_right(halving, safe)
        k = min(halving[at : at + 1] + [max(lo, self._zero)])
        if k - lo > TAIL_TERMS:
            raise RuntimeError("series tail failed to enter geometric decay")
        return k

    def _chain(self, lo, k):
        """The chain of partial sums, extended through index k, and its
        start, set to lo by the first call; the lock is held."""
        if self._base is None:
            self._base = lo
        sums, terms, base = self._sums, self._terms, self._base
        while base + len(sums) <= k:
            at = base + len(sums)
            sums.append(mpf_add(sums[-1], terms[at], _PREC, _RND) if sums else terms[at])
        return sums, base

    def tail(self, start, m_safe):
        """(raw sum, count) of the terms from t(start) by the stop rule of
        ``series_tail``: summed left to right until a term is 0, or until,
        at some m >= m_safe, t(m+1) < t(m) / 2, and then t(m+1) is added
        twice. The stop is found and the chain extended to the term before
        it under the lock, taken once. The sum runs on its own only until
        its rounded partial sum equals the chain's at the same index: from
        there every step of both is the same ``mpf_add`` of the same term."""
        lo, safe = start - self.m0, m_safe - self.m0
        with self._lock:
            k = self._stop(lo, safe)
            sums, base = self._chain(lo, k - 1)
        terms = self._terms
        total, j = terms[lo], lo
        while j < k - 1 and not (j >= base and total == sums[j - base]):
            j += 1
            total = mpf_add(total, terms[j], _PREC, _RND)
        if j < k - 1:
            total = sums[k - 1 - base]
        if k > lo:
            total = mpf_add(total, mpf_shift(terms[k], 1) if k > safe else terms[k], _PREC, _RND)
        return total, k - lo + 1


@lru_cache(maxsize=32)
def _majorant(series, x, d, op_norm_bound, powers=None):
    """The shared raw term sequence of the named majorant at |q| = x.

    Each ratio reads x^k, the q-integer [k]_x and its square root for one
    power k (lipschitz also [2m+1]_x and [2m+2]_x) from the table of
    ``_powers(x)``, which the four series at x share, or from ``powers``;
    every factor is formed and multiplied in the order of the closed-form
    ratio, so each term is the one mpf arithmetic at 113 bits gives.

    The cache holds the four series at a few (x, d) pairs, which is what
    one verification run or one Fisher scan asks for; the longest sequence
    (lipschitz at x = 0.95) has about 1,200 terms.
    """
    powers = _powers(x) if powers is None else powers
    w, haag = analytic_constants(x)
    haag = from_float(haag)
    r = mpf_rdiv_int(1, mpf_sqrt(from_float(w), _PREC, _RND), _PREC, _RND)
    dr = mpf_mul_int(r, d, _PREC, _RND)

    if series == "fisher":

        def ratio(m, p):
            return _mul(p.power(m), dr, p.root(m))

        return _Majorant(1, r, ratio, "x^(m(m-1)/2) d^(m-1) r^m sqrt([m-1]!)", powers)
    if series == "xi":

        def ratio(m, p):
            grow = mpf_div(mpf_mul(p.power(m + 1), from_int(2 * m + 4), _PREC, _RND), from_int(2 * m + 2), _PREC, _RND)
            return _mul(grow, dr, p.root(m + 1))

        first = _mul(mpf_mul_int(haag, 2, _PREC, _RND), mpf_sqrt(haag, _PREC, _RND), r)
        return _Majorant(0, first, ratio, "d^m x^(m(m+1)/2) (2m+2) C^(3/2) r^(m+1) sqrt([m]!)", powers)
    if series == "lipschitz":
        dr3 = mpf_pow_int(dr, 3, _PREC, _RND)

        def ratio(m, p):
            factorials = mpf_div(from_int((2 * m + 3) ** 3 * (2 * m + 4)), from_int((2 * m + 1) ** 2), _PREC, _RND)
            return _mul(p.power(m + 1), factorials, dr3, p.root(m + 1), p.bracket(2 * m + 1), p.bracket(2 * m + 2))

        first = _mul(mpf_mul_int(mpf_pow_int(haag, 3, _PREC, _RND), 2 * d, _PREC, _RND), mpf_pow_int(r, 2, _PREC, _RND))
        return _Majorant(0, first, ratio, "C' x^(m(m+1)/2) (2m+1)^2 (2m+2)! (d r)^(3m) sqrt([m]!) [2m]!", powers)
    if series == "gibbs":
        a = _WIDE.mpf(op_norm_bound)._mpf_
        step = _mul(mpf_pow_int(dr, 3, _PREC, _RND), mpf_pow_int(a, 2, _PREC, _RND))

        def ratio(m, p):
            return mpf_mul_int(_mul(p.power(m + 1), step, p.root(m + 1)), (2 * m + 2) * (2 * m + 3), _PREC, _RND)

        first = _mul(a, mpf_pow_int(dr, 2, _PREC, _RND))
        return _Majorant(0, first, ratio, "x^(m(m+1)/2) (d r)^(3m+2) sqrt([m]!) (2m+1)! A^(2m+1)", powers)
    raise ValueError(f"unknown series {series!r}; expected one of {SERIES_IDS}")


def _tail_start(series, truncation, x, d, op_norm_bound, build=_majorant):
    """(majorant, start, m_safe, A) for the tail beyond the truncation at
    |q| = x: the tail's majorant, the index of its first term, the index
    from which its term ratio is strictly decreasing, and the operator-norm
    bound A of the gibbs series (2 / sqrt(1 - x) unless given; None for
    the others)."""
    if x >= 1.0:
        raise ValueError("series tails require |q| < 1")
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    if series != "gibbs":
        op_norm_bound = None
    elif op_norm_bound is None:
        op_norm_bound = 2.0 / math.sqrt(1.0 - x)
    with _MEMO_LOCK:  # threads that miss the memos at once share one majorant
        majorant = build(series, x, d, op_norm_bound)
    start = truncation + majorant.m0 + 1
    # beyond m_safe the ratio of consecutive terms is strictly decreasing
    m_safe = start + (0 if x == 0.0 else int(math.ceil(8.0 / (1.0 - x))))
    return majorant, start, m_safe, op_norm_bound


def _reach_limit(series, truncation, d, op_norm_bound):
    """The |q| from which the tail beyond the truncation does not stop in
    reach, by bisection to 1e-6 on majorants built outside the memos. It
    depends on the series, d and M: at d = 2, M = 2 it is about 0.9955
    for gibbs and lipschitz and 0.9975 for xi and fisher."""
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-6:
        mid = (lo + hi) / 2
        try:
            majorant, start, m_safe, _ = _tail_start(
                series, truncation, mid, d, op_norm_bound, lambda *key: _majorant.__wrapped__(*key, _Powers(key[1]))
            )
            reached = majorant.stops_in_reach(start, m_safe)
        except ValueError:  # the constants leave double range first
            reached = False
        lo, hi = (mid, hi) if reached else (lo, mid)
    return hi


def check_tail(series, truncation, q0, d, op_norm_bound=None):
    """The ``_tail_start`` of a tail that ``series_tail`` can sum, found
    without summing a term. Otherwise a ValueError: for |q| >= 1, a
    negative truncation, analytic constants out of double range, or terms
    that would not start halving within TAIL_TERMS terms, naming the |q|
    from which that fails at this d and truncation."""
    got = majorant, start, m_safe, _ = _tail_start(series, truncation, abs(float(q0)), d, op_norm_bound)
    if not majorant.stops_in_reach(start, m_safe):
        raise ValueError(
            f"series tail {series} at |q| = {abs(float(q0))!r} does not halve its terms within {TAIL_TERMS:,} terms: "
            f"at d = {d}, M = {truncation} that fails from |q| ~ {_reach_limit(series, truncation, d, op_norm_bound):.5f}"
        )
    return got


def series_tail(series, truncation, q0, d, op_norm_bound=None) -> TailReport:
    """Exact-direction tail of the named majorant beyond the truncation.

    Terms are summed in arbitrary precision until the term ratio is safely
    below one half in the regime where it is provably decreasing, then the
    remainder is bounded geometrically. The quadratic exponent on |q|
    guarantees this terminates for every |q| < 1.

    The terms come from one sequence per (series, |q|, d, A) in a bounded
    process-wide memo, built by the closed-form ratios from the per-|q|
    table of powers and q-integers, so the calls for truncations M, M+2, ...
    share every term and power. The stop is the first recorded halving
    index past m_safe. The sum runs forward from its start on raw 113-bit
    values only until its partial sum equals the sequence's chain at the
    same index and then reads the chain, which adds the same terms from
    there: bit for bit a full left-to-right sum, in any order of calls.

    Accuracy: term m is a product of m ratios, each formed with at most a
    dozen roundings, so in double precision the longest sequences (about
    1,200 terms at |q| = 0.95) could drift by 1,200 x 12 x 2^-53, about
    1.6e-12. Carried at 113 bits the same count of roundings is below
    2e-30; the cancellation in 1 - x^k adds at most a factor x/(1-x) per
    bracket, and only for small k. So each term is within 1e-27 relative
    of its exact value, and the one rounding of the sum into the global
    context leaves each bound within half an ulp (2^-53 relative) of the
    exact truncated sum.
    """
    majorant, start, m_safe, op_norm_bound = check_tail(series, truncation, q0, d, op_norm_bound)
    params = {"q0": float(q0), "d": d}
    if op_norm_bound is not None:
        params["op_norm_bound"] = float(op_norm_bound)
    total, count = majorant.tail(start, m_safe)
    return TailReport(
        series=series,
        truncation=truncation,
        bound=mp.mpf(_WIDE.make_mpf(total)),
        terms_summed=count,
        formula=majorant.formula,
        params=params,
    )
