"""Numerical verification of the operator-norm inequalities and tail bounds.

Everything here is floating point on the truncated space. Operator norms
with respect to the twisted inner product are generalized symmetric
eigenproblems against the level Gram matrices; truncation makes every
computed norm a lower bound on the true one, which is the conservative
direction when checking an upper-bound inequality.

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
from .scalars import analytic_constants

__all__ = [
    "TailReport",
    "gram_domination_residual",
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


def _float_gram(space, n):
    """Level-n Gram matrix of a float space as a dense array."""
    return np.array(space.gram(n), dtype=float)


def gram_domination_residual(m, q0, d):
    """Smallest eigenvalue of w(q)^-1 G_{m+1} - G_m (x) identity.

    Nonnegative up to eigensolver noise whenever the level-to-level
    domination holds; the identity factor sits on the last letter.
    """
    w, _ = analytic_constants(q0)
    space = FockSpace.with_scalar_q(d, float(q0), level=m + 1)
    upper = _float_gram(space, m + 1) / w
    lower = np.kron(_float_gram(space, m), np.eye(d))
    vals = scipy.linalg.eigvalsh(upper - lower)
    return float(vals[0])


def right_annihilation_norm(i, q0, d, level):
    """Norm of right annihilation on the truncated space, by level.

    Each level contributes the largest generalized singular value against
    the Gram weights; the result must stay below w(q)^(-1/2) plus noise.
    """
    if not 1 <= i <= d:
        raise ValueError(f"letter {i} outside 1..{d}")
    space = FockSpace.with_scalar_q(d, float(q0), level=level)
    grams = [_float_gram(space, n) for n in range(level + 1)]
    best = 0.0
    for n in range(1, level + 1):
        g_to, g_from = grams[n - 1], grams[n]
        size_to, size_from = d ** (n - 1), d**n
        sel = np.zeros((size_to, size_from))
        rows = np.arange(size_to)
        sel[rows, rows * d + (i - 1)] = 1.0
        quad = sel.T @ g_to @ sel
        try:
            vals = scipy.linalg.eigh(quad, g_from, eigvals_only=True)
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
            raise GramSingularError(
                f"level-{n} Gram not factorizable at q0={q0}"
            ) from exc
        best = max(best, float(vals[-1]))
    return math.sqrt(best)


def _basis_offsets(d, levels):
    offsets, total = {}, 0
    for n in levels:
        offsets[n] = total
        total += d**n
    return offsets, total


def _block_gram(space, levels):
    d = space.d
    offsets, total = _basis_offsets(d, levels)
    out = np.zeros((total, total))
    for n in levels:
        g = _float_gram(space, n)
        o = offsets[n]
        out[o : o + d**n, o : o + d**n] = g
    return out


def haagerup_residual(m, q0, d, trials=50, seed=0, level_margin=2):
    """Randomized check of the level-m norm comparison.

    Draws level-m coefficient vectors, forms the operator with that vacuum
    vector, and compares its truncated operator norm (a lower bound on the
    true one) against (m+1) C^{3/2} times the twisted vector norm. The
    returned maximum over trials must not be positive.
    """
    from .ncpoly import poly_apply, wick_recursive

    _, haag = analytic_constants(q0)
    space = FockSpace.with_scalar_q(d, float(q0), level=m + level_margin)
    dom_levels = list(range(level_margin + 1))
    cod_levels = list(range(m + level_margin + 1))
    dom_off, dom_dim = _basis_offsets(d, dom_levels)
    cod_off, cod_dim = _basis_offsets(d, cod_levels)
    cod_index = {}
    for n in cod_levels:
        for k, w in enumerate(space.words(n)):
            cod_index[w] = cod_off[n] + k

    level_words = space.words(m)
    action = np.zeros((len(level_words), cod_dim, dom_dim))
    for wi, w in enumerate(level_words):
        poly = wick_recursive(space, w)
        for n in dom_levels:
            for k, v in enumerate(space.words(n)):
                image = poly_apply(space, poly, FockVector.basis(v))
                col = dom_off[n] + k
                for word, c in image.items():
                    action[wi, cod_index[word], col] = c

    g_dom = _block_gram(space, dom_levels)
    g_cod = _block_gram(space, cod_levels)
    g_level = _float_gram(space, m)

    rng = np.random.default_rng(seed)
    worst = -math.inf
    bound_factor = (m + 1) * haag**1.5
    for _ in range(trials):
        coeffs = rng.standard_normal(len(level_words))
        vec_norm = math.sqrt(float(coeffs @ g_level @ coeffs))
        op = np.tensordot(coeffs, action, axes=1)
        quad = op.T @ g_cod @ op
        try:
            vals = scipy.linalg.eigh(quad, g_dom, eigvals_only=True)
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
            raise GramSingularError(
                f"domain Gram not factorizable at q0={q0}"
            ) from exc
        op_norm = math.sqrt(max(float(vals[-1]), 0.0))
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
