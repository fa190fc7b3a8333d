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
Both the recursion and the commutator check ``commutator_residual`` read
a_j e_w for a basis word from the space's ``annihilated`` memo
(``FockSpace.annihilate_word``): the commutator's lift
A_j e_w = e_{jw} + a_j e_w of each (j, w) shares that one annihilation
with every index i and with the recursion for D_i, and the Wick recursion
(``ncpoly.wick_recursive``) reads the same memo.
The diagram sums here and in ``ncpoly`` (families C and D) read the
combinatorics from ``partitions.diagram_table``: one table per family and
letter pattern, the word's vertex letters relabelled by first occurrence,
so (3,1,3) and (2,1,2) share the table of (0,1,0). Each entry weighs as
its signed count times the deformation entry of each class pair to its
crossing exponent.

A space keeps one entry per (family, pattern) in its ``diagrams`` memo:
the table, read once, and the weights evaluated from it, keyed by the
entry labels. The labels give, for every class pair a <= b, the space's
int label of the entry q(letter a, letter b), equal labels meaning entries
equal in value and type (see ``FockSpace._labels``); two words with equal
labels read the same entries, so they get the same weights. The weights
are summed per (left, right) class word in table order, and a word only
relabels those class words back to its letters. At constant q every word
of a pattern shares one evaluation, the letter index i of B and C
included. The labels hold the diagonal entry q(x, x) of each class letter
x, so where the diagonal entries are pairwise distinct the labels name
the word itself and no two words can share; such a space forms no labels,
evaluates the weights per word and stores only the tables, as many as the
patterns.

Applying the adjoint of D_i to the vacuum yields the conjugate variable:
a graded series whose level-(2m+1) part sums, over all source words w of
length m, the right-creation chains r*_{w_m} ... r*_{w_1} r*_i e_w with
weight sigma(i, w): (-1)^m times the product of deformation entries
q(j_k, j_l) over 1 <= k <= m, 0 <= l < k (q^{m(m+1)/2} for constant q).
Each adjoint is a Gram solve, G_{n+1} r*_j x = (G_n x) (x) e_j, and the
next adjoint multiplies that solution back by G_{n+1}, so a chain
telescopes and the whole level is one solve:

    xi_i^(2m+1) = G_{2m+1}^{-1} b_i,
    b_i = sum over |w| = m of sigma(i, w) (G_m e_w) (x) e_{iw} = (G_m (x) 1) c_i,
    c_i = sum over |w| = m of sigma(i, w) e_{w i w}.

Since G_{2m+1} = (G_m (x) 1) (R_{m+1} (x) 1) ... R_{2m+1} by the
right-peeling factors of :mod:`qfock.fock`, the level is the explicit

    xi_i^(2m+1) = R_{2m+1}^-1 (R_{2m}^-1 (x) 1) ... (R_{m+1}^-1 (x) 1) c_i,

computed by ``FockSpace.inverse_peel`` with no Gram block at all. In a
word w i w of c_i every letter of w appears twice and i once more, so i
is the one letter it holds an odd number of times: the c_i of different
letters sit on disjoint letter contents. Every peeling factor keeps
contents, so one peeling of the sum of the c_i (in groups of contents on
large levels) solves every letter at once, and each content's part of the
answer belongs to its odd letter. A space builds each level once, for all
letters; partial sums are truncated by source-word length and every
report carries an analytic tail bound.

At constant q a level needs one content per orbit of letter permutations.
Let pi permute the letters, acting on words letter by letter. sigma(i, w)
is then (-1)^m q^(m(m+1)/2) for every w, and pi maps the words w i w
one to one onto the words (pi w) (pi i) (pi w), so pi c_i = c_{pi i}.
Every peeling factor commutes with pi (see :mod:`qfock.fock`), so

    xi_{pi i} = R^-1 ... c_{pi i} = R^-1 ... pi c_i = pi xi_i.

The sum of the c_i is unchanged by every pi, and only the contents that
represent their orbits are peeled; each other content's coefficients are
its representative's, read at the relabelled words (28,909 of the 132,861
words of d=3 level 11 are peeled). A mixed matrix is peeled whole.

Levels of different length are orthogonal, so the Fisher information of
the truncation M is the sum over levels m <= M of the squared norms of the
level-(2m+1) parts, each the plain sum xi_i . b_i, which reads no block
above level m. ``fisher_reports`` pairs each level once and keeps a
running sum over M.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fock import FockSpace, FockVector, TruncationError, _add_to, _div
from .partitions import diagram_table
from .scalars import float_eval

__all__ = [
    "dual_recursive",
    "dual_partition",
    "commutator_residual",
    "conjugate_series",
    "fisher_info",
    "fisher_reports",
    "FisherReport",
]


def dual_recursive(space: FockSpace, i, word) -> FockVector:
    """D_i on a basis word by the commutation-rule recursion, memoized."""
    word = tuple(word)
    space._check_level(len(word))
    return space._memo("dual", (i, word), _dual_build, space, i, word)


def _dual_build(space: FockSpace, i, word) -> FockVector:
    if not word:
        return FockVector.zero()
    j, rest = word[0], word[1:]
    # e_{j rest} = A_j e_rest - l_j e_rest, then commute D_i past A_j.
    terms = [(space.gaussian(j, dual_recursive(space, i, rest)), 1)]
    if i == j and not rest:
        terms.append((space.vacuum(), 1))
    lowered = space.annihilate_word(j, rest)
    return FockVector.combination(terms + [(dual_recursive(space, i, u), -c) for u, c in lowered.items()])


def _diagram_terms(space: FockSpace, family, word, i=None):
    """The terms of one family's diagram sum on a word, as (signed weight,
    left word, right word), for the diagram sums of D_i (B), of the
    difference quotient (C) and of the Wick transform (D), one term per
    distinct (left word, right word).

    Vertex k >= 1 carries the k-th letter of the word from the right and
    vertex 0, in B and C, the index i. The word's letter pattern keys the
    diagram table (see ``partitions.diagram_table``), which holds the
    diagrams pairing equal letters only, grouped by their left and right
    class words and their crossing exponent per class pair into a signed
    count. The sign is (-1) to the number of pairs not through vertex 0:
    (-1)^(partner of 0 - 1) in B, where every vertex left of the partner of
    0 is paired, (-1)^(pairs - 1) in C and (-1)^pairs in D. The weight is
    count times q(a, b)^e over the class pairs; the crossings of the block
    through 0 with the singletons below its partner take no factor. The
    left word is read off the singletons above the partner of 0 (all of
    them in B and D), the right word off those below it, right to left.
    The table and the weights come from the space's ``diagrams`` memo
    (see the module docstring).
    """
    space._check_level(len(word))
    classes = {}
    vertex_letters = ((i,) if family != "D" else ()) + word[::-1]
    pattern = tuple([classes.setdefault(x, len(classes)) for x in vertex_letters])
    letter = tuple(classes)
    table, evaluated = space._memo("diagrams", (family, pattern), _new_pattern_entry, family, pattern)
    if space._shares_labels:
        labels = tuple([space._labels[x - 1][y - 1] for k, x in enumerate(letter) for y in letter[k:]])
        weights = evaluated.get(labels)
        if weights is None:
            weights = evaluated.setdefault(labels, _pattern_weights(space, table, letter))
    else:
        weights = _pattern_weights(space, table, letter)
    relabel = letter.__getitem__
    for left, right, weight in weights:
        yield weight, tuple(map(relabel, left)), tuple(map(relabel, right))


def _new_pattern_entry(family, pattern):
    """A ``diagrams`` memo entry: the pattern's table, no weights yet."""
    return diagram_table(family, pattern), {}


def _pattern_weights(space: FockSpace, table, letter):
    """A diagram table evaluated at the deformation entries of the class
    letters, as (left, right, weight) with the weights summed per (left,
    right) class word in table order. Each factor ((a, b), e) is raised to
    its power once per table, and the entries share it."""
    q = space.deformation.q
    powers = {}
    acc = {}
    for count, left, right, exponents in table:
        weight = count
        for factor in exponents:
            power = powers.get(factor)
            if power is None:
                (a, b), e = factor
                power = powers[factor] = q(letter[a], letter[b]) ** e
            weight = weight * power
        _add_to(acc, (left, right), weight)
    return tuple((left, right, weight) for (left, right), weight in acc.items())


def dual_partition(space: FockSpace, i, word) -> FockVector:
    """D_i on a basis word by the B-family diagram sum."""
    word = tuple(word)
    if not word:
        return FockVector.zero()
    # B has no right singletons, so the terms' left words are distinct
    return FockVector._wrap({out_word: weight for weight, out_word, _ in _diagram_terms(space, "B", word, i)})


def commutator_residual(space: FockSpace, i, level_limit):
    """{j: largest coefficient magnitude of (D_i A_j - A_j D_i - delta_ij P)
    e_w over all basis words w of length up to level_limit}, for every
    letter j, with D_i the B-family diagram sum, so that an exact zero
    checks the paper's closed form; NaN if any difference holds a NaN.
    Each D_i e_u is summed once per call, for all j, and each lift
    A_j e_w reads a_j e_w from the space's memo, formed once per (j, w)
    for every i. The two sides
    D_i A_j e_w and A_j D_i e_w + delta_ij P e_w are compared first: word
    maps are canonical, so equal sides have the zero map as difference,
    and the difference is formed and measured only where they differ."""
    if level_limit > space.level - 1:
        raise ValueError("level_limit must stay one below the truncation")
    duals = {}

    def dual(u):
        got = duals.get(u)
        if got is None:
            got = duals[u] = dual_partition(space, i, u)
        return got

    letters = range(1, space.d + 1)
    worst = dict.fromkeys(letters, space.deformation.zero_magnitude())
    for n in range(level_limit + 1):
        for w in space.words(n):
            for j in letters:
                # the lift A_j e_w = e_{jw} + a_j e_w, its words in that order
                lowered = space.annihilate_word(j, w)
                left = FockVector.combination([(dual((j,) + w), 1)] + [(dual(u), c) for u, c in lowered.items()])
                right = space.gaussian(j, dual(w))
                if i == j and n == 0:
                    right = right + space.vacuum()
                if left == right:
                    continue
                m = (left - right).max_coeff_magnitude()
                if m > worst[j] or m != m:
                    worst[j] = m
    return worst


def _series_sign_weight(a, i, word):
    """(-1)^|w| times the product of a(j_k, j_l) over 1<=k<=m, 0<=l<k,
    reading j_k as the k-th letter from the right and j_0 as i; with a the
    deformation matrix this is sigma(i, w), with its integer numerators it
    is s^(m(m+1)/2) sigma(i, w)."""
    m = len(word)
    letters = [i] + [word[m - k] for k in range(1, m + 1)]
    weight = 1
    for k in range(1, m + 1):
        for l in range(k):
            weight = weight * a[letters[k] - 1][letters[l] - 1]
    if m % 2 == 1:
        weight = -weight
    return weight


def _series_level(space: FockSpace, i, m) -> FockVector:
    """The level-(2m+1) part of xi_i, G_{2m+1}^-1 (G_m (x) 1) c_i by the
    explicit inverse. One solve makes the level of every letter, memoized
    per space under the key m."""
    return space._memo("xi", m, _series_build, space, m)[i]


def _series_build(space: FockSpace, m):
    """The level-(2m+1) part of xi_i for every letter i: one peeling of the
    sum of the c_i, each content's part given to the letter it holds an odd
    number of times. The sum is unchanged by relabelling letters, so at
    constant q only one content per orbit is peeled, with the exact check
    on each, and the rest are relabelled from it (xi_{pi i} = pi xi_i; see
    the module docstring); contents and words come in the same order
    either way, and float coefficients are the same bits, the relabelled
    entries having met the same operations."""
    letters = range(1, space.d + 1)
    source = FockVector._wrap({w: c for i in letters for w, c in _series_source(space, i, m).items()})
    levels = {i: {} for i in letters}
    for words, coeffs in space._peeled(source, m, orbits=True):
        # the letter of a content: the one it holds an odd number of times
        w = words[0]
        levels[next(x for x in w if w.count(x) % 2)].update((w, c) for w, c in zip(words, coeffs) if c)
    return {i: FockVector._wrap(acc) for i, acc in levels.items()}


def _series_source(space: FockSpace, i, m) -> FockVector:
    """c_i = sum over |w| = m of sigma(i, w) e_{w i w}, so b_i = (G_m (x) 1) c_i."""
    s, a = space._cleared
    weights = {w + (i,) + w: _series_sign_weight(a, i, w) for w in space.words(m)}
    return FockVector._wrap({w: _div(c, s ** (m * (m + 1) // 2)) for w, c in weights.items() if c})


def _series_rhs(space: FockSpace, i, m) -> FockVector:
    """b_i = sum over |w| = m of sigma(i, w) (G_m e_w) (x) e_{iw}, read
    off the rows of the level-m blocks. Those rows are s^(m(m-1)/2) G_m and
    the weights s^(m(m+1)/2) sigma, so the sum is formed over the single
    denominator s^(m^2), in integers for a rational deformation, and
    divided by it once."""
    s, a = space._cleared
    acc = {}
    for blk in space.blocks(m).values():
        for w, row in zip(blk.words, blk.rows.tolist()):
            weight = _series_sign_weight(a, i, w)
            if not weight:
                continue
            tail = (i,) + w
            for y, g in zip(blk.words, row):
                _add_to(acc, y + tail, weight * g)
    den = s ** (m * m)
    if den != 1:
        acc = {y: Fraction(c, den) for y, c in acc.items()}
    return FockVector._wrap(acc)


def _check_source_length(space: FockSpace, source_length):
    if 2 * source_length + 1 > space.level:
        raise TruncationError(
            f"conjugate series to source length {source_length} needs level "
            f">= {2 * source_length + 1}, space has {space.level}"
        )


def conjugate_series(space: FockSpace, i, source_length: int) -> FockVector:
    """Partial sum of the conjugate variable over source words up to the
    given length; the level-(2m+1) component comes from words of length m,
    so the levels' maps are disjoint and joined as they are."""
    _check_source_length(space, source_length)
    return FockVector._wrap({w: c for m in range(source_length + 1) for w, c in _series_level(space, i, m).items()})


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


def fisher_reports(space: FockSpace, source_length: int):
    """The ``FisherReport`` of every truncation M = 0..source_length, from
    one running sum. Levels of different length are orthogonal, so
    truncation M adds the squared twisted norms of the level-(2M+1) parts
    of the conjugate variables, and each level is paired once."""
    from .norms import series_tail

    if space.deformation.is_symbolic:
        raise ValueError(
            "fisher_info needs a numeric deformation for its tail bound; "
            "use conjugate_series directly in symbolic mode"
        )
    _check_source_length(space, source_length)
    heuristic = not space.deformation.is_constant
    q0 = space.deformation.max_abs_float()
    total = 0
    for m in range(source_length + 1):
        for i in range(1, space.d + 1):
            rhs = _series_rhs(space, i, m)  # <xi, xi> = xi . b_i, since G_{2m+1} xi = b_i
            total = total + sum(c * rhs.coeff(w) for w, c in _series_level(space, i, m).items())
        yield FisherReport(
            source_length=m,
            value=total,
            value_float=float_eval(total),
            tail_bound=series_tail("fisher", m, q0, space.d).bound_float,
            tail_heuristic=heuristic,
        )


def fisher_info(space: FockSpace, source_length: int) -> FisherReport:
    """Sum over indices of the squared twisted norm of the truncated
    conjugate variables, plus the tail bound of the remainder functional."""
    *_, report = fisher_reports(space, source_length)
    return report
