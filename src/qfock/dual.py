"""The normalized dual system and the conjugate variables.

The dual operator with index i kills the vacuum and satisfies the exact
commutation rule [D_i, A_j] = delta_ij P with P the vacuum projection. Two
independent implementations are provided:

* a memoized recursion, obtained by peeling the leftmost letter with the
  commutation rule itself, and
* a closed form summing over the B-family diagrams: vertex 0 carries the
  operator index, vertex k the k-th letter from the right, the sign is
  (-1)^(partner of 0 minus 1), and the weight collects one deformation
  factor per crossing of the two strings involved.

The two strategies agree word for word and the test suite pins that down.

Applying the adjoint of D_i to the vacuum yields the conjugate variable:
a graded series whose level-(2m+1) part sums, over all source words w of
length m, the right-creation chains r*_{w_m} ... r*_{w_1} r*_i e_w with
weight (-1)^m times the product of deformation entries q(j_k, j_l) over
1 <= k <= m, 0 <= l < k (the pure power q^{m(m+1)/2} in the constant
case). Each level depends only on the index and m, so a space builds it
once. Partial sums are truncated by source-word length and every report
carries an analytic tail bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fock import FockSpace, FockVector, TruncationError, _add_to
from .partitions import enumerate_family
from .scalars import float_eval

__all__ = [
    "DualOperator",
    "dual_recursive",
    "dual_partition",
    "crossing_weight",
    "commutator_residual",
    "conjugate_series",
    "fisher_info",
    "FisherReport",
]


def dual_recursive(space: FockSpace, i, word) -> FockVector:
    """D_i on a basis word by the commutation-rule recursion, memoized."""
    word = tuple(word)
    key = (i, word)
    memo = space._dual_memo
    got = memo.get(key)
    if got is not None:
        return got
    if not word:
        result = FockVector.zero()
    else:
        j, rest = word[0], word[1:]
        # e_{j rest} = A_j e_rest - l_j e_rest, then commute D_i past A_j.
        result = space.gaussian(j, dual_recursive(space, i, rest))
        if i == j and not rest:
            result = result + space.vacuum()
        for u, c in space.annihilate(j, FockVector.basis(rest)).items():
            result = result - dual_recursive(space, i, u).scaled(c)
    with space._lock:
        memo.setdefault(key, result)
    return memo[key]


def crossing_weight(space: FockSpace, part, letter_of, exclude=None):
    """Product over crossings of the deformation entry of the two
    crossing strings; block pairs listed in ``exclude`` contribute nothing."""
    weight = 1
    q = space.deformation.q
    for bpair, count in part.crossing_pairs().items():
        if exclude is not None and bpair in exclude:
            continue
        a, b = tuple(bpair)
        weight = weight * q(letter_of(a), letter_of(b)) ** count
    return weight


def dual_partition(space: FockSpace, i, word) -> FockVector:
    """D_i on a basis word by the B-family diagram sum."""
    word = tuple(word)
    n = len(word)
    if n == 0:
        return FockVector.zero()

    def letter(v):
        return i if v == 0 else word[n - v]

    acc = {}
    for part in enumerate_family("B", n + 1):
        if any(letter(a) != letter(b) for a, b in part.pairs):
            continue
        coeff = crossing_weight(space, part, lambda blk: letter(blk[0]))
        if part.partner0 % 2 == 0:
            coeff = -coeff
        out_word = tuple(letter(s) for s in sorted(part.singletons, reverse=True))
        _add_to(acc, out_word, coeff)
    return FockVector(acc)


_STRATEGIES = {"recursive": dual_recursive, "partition": dual_partition}


@dataclass(frozen=True)
class DualOperator:
    """One member of the normalized dual system, with a chosen strategy."""

    space: FockSpace
    index: int
    strategy: str = "partition"

    def __post_init__(self):
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")

    def apply_word(self, word) -> FockVector:
        return _STRATEGIES[self.strategy](self.space, self.index, word)

    def apply(self, v: FockVector) -> FockVector:
        out = FockVector.zero()
        for w, c in v.items():
            out = out + self.apply_word(w).scaled(c)
        return out


def commutator_residual(space: FockSpace, i, j, level_limit, strategy="partition"):
    """Largest coefficient magnitude of (D_i A_j - A_j D_i - delta P) e_w
    over all basis words of length up to level_limit. Exact zero expected."""
    if level_limit > space.level - 1:
        raise ValueError("level_limit must stay one below the truncation")
    op = DualOperator(space, i, strategy)
    worst = 0
    for n in range(level_limit + 1):
        for w in space.words(n):
            ew = FockVector.basis(w)
            lhs = op.apply(space.gaussian(j, ew)) - space.gaussian(j, op.apply_word(w))
            if i == j and n == 0:
                lhs = lhs - space.vacuum()
            m = lhs.max_coeff_magnitude()
            if m > worst:
                worst = m
    return worst


def _series_sign_weight(space: FockSpace, i, word):
    """(-1)^|w| times the product of q(j_k, j_l) over 1<=k<=m, 0<=l<k,
    reading j_k as the k-th letter from the right and j_0 as i."""
    m = len(word)
    letters = [i] + [word[m - k] for k in range(1, m + 1)]
    weight = 1
    q = space.deformation.q
    for k in range(1, m + 1):
        for l in range(k):
            weight = weight * q(letters[k], letters[l])
    if m % 2 == 1:
        weight = -weight
    return weight


def _series_level(space: FockSpace, i, m) -> FockVector:
    """The level-(2m+1) part of the conjugate variable with index i: the
    source words of length m. Memoized per space, keyed (i, m)."""
    key = (i, m)
    memo = space._xi_memo
    got = memo.get(key)
    if got is not None:
        return got
    out = FockVector.zero()
    for w in space.words(m):
        weight = _series_sign_weight(space, i, w)
        if not weight:
            continue
        v = FockVector.basis(w)
        v = space.right_annihilate_adjoint(i, v)
        for letter in w:
            v = space.right_annihilate_adjoint(letter, v)
        out = out + v.scaled(weight)
    with space._lock:
        memo.setdefault(key, out)
    return memo[key]


def conjugate_series(space: FockSpace, i, source_length: int) -> FockVector:
    """Partial sum of the conjugate variable over source words up to the
    given length; the level-(2m+1) component comes from words of length m."""
    if 2 * source_length + 1 > space.level:
        raise TruncationError(
            f"conjugate series to source length {source_length} needs level "
            f">= {2 * source_length + 1}, space has {space.level}"
        )
    out = FockVector.zero()
    for m in range(source_length + 1):
        out = out + _series_level(space, i, m)
    return out


@dataclass(frozen=True)
class FisherReport:
    """Partial Fisher information with its analytic tail bound."""

    source_length: int
    value: object
    value_float: float
    tail_bound: float
    tail_heuristic: bool

    def __repr__(self):
        flag = " (heuristic tail)" if self.tail_heuristic else ""
        return (
            f"FisherReport(M={self.source_length}, value={self.value_float!r}, "
            f"tail<={self.tail_bound!r}{flag})"
        )


def fisher_info(space: FockSpace, source_length: int) -> FisherReport:
    """Sum over indices of the squared twisted norm of the truncated
    conjugate variables, plus the tail bound of the remainder functional."""
    from .norms import series_tail

    if space.deformation.is_symbolic:
        raise ValueError(
            "fisher_info needs a numeric deformation for its tail bound; "
            "use conjugate_series directly in symbolic mode"
        )
    total = 0
    for i in range(1, space.d + 1):
        xi = conjugate_series(space, i, source_length)
        total = total + space.inner(xi, xi)
    heuristic = not space.deformation.is_constant
    q0 = space.deformation.max_abs_float()
    tail = series_tail("fisher", source_length, q0, space.d)
    return FisherReport(
        source_length=source_length,
        value=total,
        value_float=float_eval(total),
        tail_bound=tail.bound_float,
        tail_heuristic=heuristic,
    )
