"""Numerical verification of the operator-norm inequalities and tail bounds.

Everything here is floating point on the truncated space. Operator norms
with respect to the twisted inner product are generalized symmetric
eigenproblems against the level Gram matrices; truncation makes every
computed norm a lower bound on the true one, which is the conservative
direction when checking an upper-bound inequality.

Every operator checked here keeps letter content: G_{m+1} and G_m (x) 1
map each level-(m+1) content block to itself, and right annihilation by
letter i maps the block of content c+i to the block of content c. So each
check is a min or max over small per-block eigenproblems on the blocks of
``FockSpace.blocks``; none of them depends on the order of the word basis.

Series tails are summed in arbitrary-precision floats: at strong
deformation the majorant terms pass through astronomically large magnitudes
before the quadratic exponent wins, far beyond double range, yet the sums
stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np
import scipy.linalg

from .fock import FockSpace, FockVector, GramSingularError
from .ncpoly import poly_apply, wick_recursive
from .scalars import analytic_constants

__all__ = [
    "TailReport",
    "gram_domination_residual",
    "projected_domination",
    "right_annihilation_norm",
    "haagerup_residual",
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


def _top_eigenvalue(quad, gram, what):
    """Largest generalized eigenvalue of (quad, gram); a Gram that cannot
    be factorized is reported as singular."""
    try:
        return float(scipy.linalg.eigh(quad, gram, eigvals_only=True)[-1])
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise GramSingularError(f"{what} not factorizable") from exc


def _lift(below, blk, j):
    """r_j* G_{n-1} r_j on one level-n content block: the level-(n-1) Gram
    block of the heads of its words that end in letter j, placed on those
    words, and 0 on the rest."""
    pos = [k for k, w in enumerate(blk.words) if w[-1] == j]
    sub = below[tuple(sorted(blk.words[pos[0]][:-1]))]
    at = [sub.index[blk.words[k][:-1]] for k in pos]
    out = np.zeros((len(blk.words), len(blk.words)))
    out[np.ix_(pos, pos)] = np.array(sub.rows, dtype=float)[np.ix_(at, at)]
    return out


def _right_gain(space, i, n):
    """Squared norm of right annihilation by letter i on level n.

    r_i maps the level-n block of content c to the level-(n-1) block of
    c without i, so this is the largest generalized eigenvalue of
    (r_i* G_{n-1} r_i, G_n[c]), maximized over the blocks c holding i.
    """
    best = 0.0
    for content, blk in space.blocks(n).items():
        if i in content:
            quad = _lift(space.blocks(n - 1), blk, i)
            gram = np.array(blk.rows, dtype=float)
            best = max(best, _top_eigenvalue(quad, gram, f"level-{n} Gram block {content}"))
    return best


def gram_domination_residual(m, q0, d):
    """Smallest eigenvalue of w(q)^-1 G_{m+1} - G_m (x) identity.

    This full-tensor domination, with the identity factor on the last
    letter, is informational: it is genuinely violated at q = 1/2 (negative
    from m = 3 on), while the right-annihilation estimate only needs the
    projected comparison of ``projected_domination``. Both operators keep
    letter content, so the minimum runs over the level-(m+1) content
    blocks, each solved on its own.
    """
    w, _ = analytic_constants(q0)
    space = FockSpace.with_scalar_q(d, float(q0), level=m + 1)
    worst = math.inf
    for content, blk in space.blocks(m + 1).items():
        diff = np.array(blk.rows, dtype=float) / w
        for j in sorted(set(content)):
            diff -= _lift(space.blocks(m), blk, j)
        worst = min(worst, float(scipy.linalg.eigvalsh(diff)[0]))
    return worst


def projected_domination(m, q0, d):
    """Sharp constant c_m of the projected comparison c (G_m (x) P_1) <= G_{m+1}.

    P_1 projects the last letter onto letter 1, so G_m (x) P_1 = r_1* G_m r_1
    and the largest such c is the inverse of the squared norm of r_1 on
    level m+1. Hence ||r_1||^2 = 1 / min_m c_m on the truncated space, and
    the estimate ||r_i|| <= w(q)^(-1/2) is the statement c_m >= w(q).
    """
    return 1.0 / _right_gain(FockSpace.with_scalar_q(d, float(q0), level=m + 1), 1, m + 1)


def right_annihilation_norm(i, q0, d, level):
    """Norm of right annihilation on the truncated space, by level.

    Each level contributes the largest generalized singular value against
    the Gram weights; the result must stay below w(q)^(-1/2) plus noise.
    """
    if not 1 <= i <= d:
        raise ValueError(f"letter {i} outside 1..{d}")
    space = FockSpace.with_scalar_q(d, float(q0), level=level)
    return math.sqrt(max((_right_gain(space, i, n) for n in range(1, level + 1)), default=0.0))


LEVEL_MARGIN = 2  # haagerup_residual's domain holds levels 0..LEVEL_MARGIN


def _block_basis(space, levels):
    """The words of the given levels numbered block by block, as {word:
    position}, and the Gram matrix in that numbering: block diagonal."""
    words, grams = [], []
    for n in levels:
        for blk in space.blocks(n).values():
            words.extend(blk.words)
            grams.append(np.array(blk.rows, dtype=float))
    return {w: k for k, w in enumerate(words)}, scipy.linalg.block_diag(*grams)


def haagerup_residual(m, q0, d, trials=50, seed=0):
    """Randomized check of the level-m norm comparison.

    Draws level-m coefficient vectors, forms the operator with that vacuum
    vector, and compares its truncated operator norm (a lower bound on the
    true one) against (m+1) C^{3/2} times the twisted vector norm. The
    returned maximum over trials must not be positive.
    """
    _, haag = analytic_constants(q0)
    space = FockSpace.with_scalar_q(d, float(q0), level=m + LEVEL_MARGIN)
    dom_index, g_dom = _block_basis(space, range(LEVEL_MARGIN + 1))
    cod_index, g_cod = _block_basis(space, range(m + LEVEL_MARGIN + 1))

    # the seeded coefficients fill the level-m words in lexicographic order
    level_words = space.words(m)
    action = np.zeros((len(level_words), len(cod_index), len(dom_index)))
    for wi, w in enumerate(level_words):
        poly = wick_recursive(space, w)
        for v, col in dom_index.items():
            for word, c in poly_apply(space, poly, FockVector.basis(v)).items():
                action[wi, cod_index[word], col] = c

    rng = np.random.default_rng(seed)
    worst = -math.inf
    bound_factor = (m + 1) * haag**1.5
    for _ in range(trials):
        coeffs = rng.standard_normal(len(level_words))
        vec = FockVector(dict(zip(level_words, coeffs)))
        vec_norm = math.sqrt(space.inner(vec, vec))
        op = np.tensordot(coeffs, action, axes=1)
        quad = op.T @ g_cod @ op
        op_norm = math.sqrt(max(_top_eigenvalue(quad, g_dom, f"domain Gram at q0={q0}"), 0.0))
        worst = max(worst, op_norm - bound_factor * vec_norm)
    return worst


# ---------------------------------------------------------------------------
# series tails
# ---------------------------------------------------------------------------


def _tail_terms(series, x, d, r_bound, haag, op_norm_bound):
    """Term function and start offset (relative to the truncation M)."""
    qfact_memo = [mp.mpf(1)]

    def qfact(k):
        while len(qfact_memo) <= k:
            j = len(qfact_memo)
            bracket = (1 - mp.power(x, j)) / (1 - x) if x != 1 else mp.mpf(j)
            qfact_memo.append(qfact_memo[-1] * bracket)
        return qfact_memo[k]

    if series == "fisher":
        def term(m):
            return (
                mp.power(x, m * (m - 1) // 2)
                * mp.power(d, m - 1)
                * mp.power(r_bound, m)
                * mp.sqrt(qfact(m - 1))
            )

        return term, 2, "x^(m(m-1)/2) d^(m-1) r^m sqrt([m-1]!)"
    if series == "xi":
        def term(m):
            return (
                mp.power(d, m)
                * mp.power(x, m * (m + 1) // 2)
                * (2 * m + 2)
                * mp.power(haag, mp.mpf(3) / 2)
                * mp.power(r_bound, m + 1)
                * mp.sqrt(qfact(m))
            )

        return term, 1, "d^m x^(m(m+1)/2) (2m+2) C^(3/2) r^(m+1) sqrt([m]!)"
    if series == "lipschitz":
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

        return term, 1, "C' x^(m(m+1)/2) (2m+1)^2 (2m+2)! (d r)^(3m) sqrt([m]!) [2m]!"
    if series == "gibbs":
        a = mp.mpf(op_norm_bound)

        def term(m):
            return (
                mp.power(x, m * (m + 1) // 2)
                * mp.power(d * r_bound, 3 * m + 2)
                * mp.sqrt(qfact(m))
                * mp.factorial(2 * m + 1)
                * mp.power(a, 2 * m + 1)
            )

        return term, 1, "x^(m(m+1)/2) (d r)^(3m+2) sqrt([m]!) (2m+1)! A^(2m+1)"
    raise ValueError(f"unknown series {series!r}; expected one of {SERIES_IDS}")


def series_tail(series, truncation, q0, d, op_norm_bound=None) -> TailReport:
    """Exact-direction tail of the named majorant beyond the truncation.

    Terms are summed in arbitrary precision until the term ratio is safely
    below one half in the regime where it is provably decreasing, then the
    remainder is bounded geometrically. The quadratic exponent on |q|
    guarantees this terminates for every |q| < 1.
    """
    x = abs(float(q0))
    if x >= 1.0:
        raise ValueError("series tails require |q| < 1")
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    w, haag = analytic_constants(x)
    params = {"q0": float(q0), "d": d}
    if series == "gibbs":
        if op_norm_bound is None:
            op_norm_bound = 2.0 / math.sqrt(1.0 - x)
        params["op_norm_bound"] = float(op_norm_bound)
    term, offset, formula = _tail_terms(
        series, mp.mpf(x), d, 1 / mp.sqrt(mp.mpf(w)), mp.mpf(haag), op_norm_bound
    )
    start = truncation + offset
    # beyond m_safe the ratio of consecutive terms is strictly decreasing
    m_safe = start + (0 if x == 0.0 else int(math.ceil(8.0 / (1.0 - x))))
    total = mp.mpf(0)
    m = start
    prev = term(m)
    total += prev
    count = 1
    while prev != 0:
        nxt = term(m + 1)
        if m >= m_safe and nxt < prev / 2:
            total += 2 * nxt
            count += 1
            break
        total += nxt
        prev = nxt
        m += 1
        count += 1
        if count > 100000:
            raise RuntimeError("series tail failed to enter geometric decay")
    return TailReport(
        series=series,
        truncation=truncation,
        bound=total,
        terms_summed=count,
        formula=formula,
        params=params,
    )
