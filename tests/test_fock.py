import random
from fractions import Fraction

import numpy as np
import pytest
from apply_oracles import annihilate_by_letters, gaussian_by_letters
from gram_oracles import (
    ChainedAdjoints,
    dense_gram,
    forward_blocks,
    gram_rows,
    ldl,
    left_peeling_gram,
    peeled_blocks,
    permutation_gram,
    right_annihilate,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from threads import together

from qfock import (
    FORMAL_Q,
    Deformation,
    FockSpace,
    FockVector,
    GramSingularError,
    QPoly,
    TruncationError,
    conjugate_series,
    diff_partition,
    dual_partition,
    dual_recursive,
    q_factorial,
    q_int,
    right_annihilation_norm,
    wick_partition,
    wick_recursive,
)
from qfock.dual import _series_rhs

Q = FORMAL_Q
e = FockVector.basis


def pair_partition_moment(k, q):
    """Vacuum moment of the field operator as a crossing-weighted sum over
    all pair partitions of 2k points (independent of the operator code)."""

    def pairings(points):
        if not points:
            yield []
            return
        a, rest = points[0], points[1:]
        for idx, b in enumerate(rest):
            for tail in pairings(rest[:idx] + rest[idx + 1 :]):
                yield [(a, b)] + tail

    total = 0
    for pairing in pairings(list(range(2 * k))):
        cross = 0
        for x, (a1, b1) in enumerate(pairing):
            for a2, b2 in pairing[x + 1 :]:
                if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
                    cross += 1
        total = total + q**cross
    return total


class TestOperators:
    def test_annihilate_two_letter(self, sym2):
        assert sym2.annihilate(1, e((2, 1))) == FockVector({(2,): Q})

    def test_annihilate_vacuum(self, sym2):
        assert sym2.annihilate(1, e(())).is_zero()

    def test_annihilate_free_case(self):
        sp = FockSpace.with_scalar_q(2, Fraction(0), level=4)
        assert sp.annihilate(1, e((1, 2, 1))) == e((2, 1))

    def test_annihilate_weights_each_occurrence_mixed(self):
        third, fifth, seventh = Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)
        defm = Deformation([[third, fifth, seventh], [fifth, 0, 0], [seventh, 0, 0]])
        sp = FockSpace(defm, level=4)
        got = sp.annihilate(1, FockVector({(1, 2, 1, 3): 2, (2, 3): 5, (3, 1): 1}))
        assert got == FockVector({(2, 1, 3): 2, (1, 2, 3): 2 * third * fifth, (3,): seventh})

    def test_create_prepends(self, sym2):
        assert sym2.create(1, e(())) == e((1,))

    def test_gaussian_vacuum(self, sym2):
        assert sym2.gaussian(1, e(())) == e((1,))

    def test_gaussian_one_variable(self, sym1):
        for n in range(1, 6):
            got = sym1.gaussian(1, e((1,) * n))
            want = FockVector({(1,) * (n + 1): 1, (1,) * (n - 1): q_int(n, Q)})
            assert got == want

    def test_create_overflow_is_hard_error(self):
        sp = FockSpace.with_scalar_q(1, Q, level=2)
        with pytest.raises(TruncationError):
            sp.create(1, e((1, 1)))

    def test_trace(self, sym1):
        assert sym1.trace(e(())) == 1
        assert sym1.trace(e((1, 1))) == 0

    def test_fourth_moment_matches_pairing_sum(self, sym1):
        v = e(())
        for _ in range(4):
            v = sym1.gaussian(1, v)
        expected = pair_partition_moment(2, Q)
        assert sym1.trace(v) == expected == QPoly([2, 1])

    def test_sixth_moment_matches_pairing_sum(self, sym1):
        v = e(())
        for _ in range(6):
            v = sym1.gaussian(1, v)
        assert sym1.trace(v) == pair_partition_moment(3, Q)


# integer numerators over s = 21 on the rational spaces; equal and distinct
# entries, a zero and an integral one on the mixed ones
FIELD_SPACES = {
    "constant": lambda: FockSpace.with_scalar_q(3, Fraction(-3, 7), level=6),
    "mixed": lambda: FockSpace(
        Deformation(
            [
                [Fraction(1, 3), Fraction(-2, 7), Fraction(0)],
                [Fraction(-2, 7), Fraction(1, 3), Fraction(1)],
                [Fraction(0), Fraction(1), Fraction(5, 21)],
            ]
        ),
        level=6,
    ),
    "symbolic": lambda: FockSpace.with_scalar_q(2, FORMAL_Q, level=6),
    "float-constant": lambda: FockSpace.with_scalar_q(3, 0.3, level=6),
    "float-mixed": lambda: FockSpace(Deformation([[0.3, -0.7, 0.1], [-0.7, 0.45, 0.0], [0.1, 0.0, -0.9]]), level=6),
}


def field_vectors(space, seed):
    """Random vectors over levels 0..4: words two levels apart make created
    and annihilated words coincide."""
    rng = random.Random(seed)
    words = [w for n in range(5) for w in space.words(n)]
    out = [FockVector.basis(w) for w in rng.sample(words, 12)]
    for _ in range(6):
        picked = rng.sample(words, 20)
        if space.deformation.is_float:
            out.append(FockVector({w: rng.uniform(-2, 2) for w in picked}))
        else:
            out.append(FockVector({w: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for w in picked}))
    return out


def exact_items(v):
    """The items in order, floats by their bits."""
    return [(w, c.hex() if isinstance(c, float) else c) for w, c in v.items()]


class TestFieldOperatorsAgainstOracle:
    """The running weights on the cleared numerators and the one-pass field
    operator give the per-letter entry products: equal values on exact
    spaces, the same bits in the same order on float ones."""

    @pytest.mark.parametrize("name", sorted(FIELD_SPACES))
    def test_annihilate_and_gaussian(self, name):
        space = FIELD_SPACES[name]()
        for v in field_vectors(space, seed=len(name)):
            for i in range(1, space.d + 1):
                got, want = space.annihilate(i, v), annihilate_by_letters(space, i, v)
                assert exact_items(got) == exact_items(want), (i, v)
                got, want = space.gaussian(i, v), gaussian_by_letters(space, i, v)
                assert exact_items(got) == exact_items(want), (i, v)

    @pytest.mark.parametrize("name", ["constant", "mixed"])
    def test_float_coefficients_on_rational_spaces(self, name):
        # a coefficient with no numerator takes its exact weight as a factor
        space = FIELD_SPACES[name]()
        rng = random.Random(5)
        words = [w for n in range(5) for w in space.words(n)]
        for _ in range(4):
            v = FockVector({w: rng.uniform(-2, 2) for w in rng.sample(words, 20)})
            for i in range(1, space.d + 1):
                got, want = space.annihilate(i, v), annihilate_by_letters(space, i, v)
                assert exact_items(got) == exact_items(want), (i, v)
                assert all(isinstance(c, float) for _, c in got.items())
                got, want = space.gaussian(i, v), gaussian_by_letters(space, i, v)
                assert exact_items(got) == exact_items(want), (i, v)

    def test_rational_terms_over_the_cleared_denominator(self):
        sp = FIELD_SPACES["mixed"]()
        assert sp._cleared == (21, ((7, -6, 0), (-6, 7, 21), (0, 21, 5)))
        # e_{1 2 1}: the second 1 passes q(1, 1) q(1, 2) = 7 * -6 / 21^2
        got = sp.annihilate(1, FockVector({(1, 2, 1): Fraction(3, 4)}))
        assert got == FockVector({(2, 1): Fraction(3, 4), (1, 2): Fraction(3, 4) * Fraction(-42, 441)})

    def test_gaussian_refuses_the_top_level(self):
        sp = FockSpace.with_scalar_q(2, Fraction(1, 2), level=2)
        with pytest.raises(TruncationError):
            sp.gaussian(1, FockVector({(1,): 1, (2, 1): 1}))


class TestInnerProduct:
    def test_one_variable_factorial(self, sym1):
        for n in range(7):
            assert sym1.inner(e((1,) * n), e((1,) * n)) == q_factorial(n, Q)

    def test_transposition_weight(self, sym2):
        assert sym2.inner(e((1, 2)), e((2, 1))) == Q

    def test_free_case_orthonormal(self):
        sp = FockSpace.with_scalar_q(2, Fraction(0), level=4)
        for n in range(4):
            for u in sp.words(n):
                for v in sp.words(n):
                    assert sp.inner(e(u), e(v)) == (1 if u == v else 0)

    def test_levels_orthogonal_by_grading(self, sym2):
        assert sym2.inner(e((1,)), e((1, 1))) == 0

    def test_creation_adjoint_to_annihilation(self, half2):
        rng = random.Random(7)
        words3 = half2.words(3)
        words4 = half2.words(4)
        for _ in range(5):
            u = FockVector({w: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for w in words3})
            v = FockVector({w: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for w in words4})
            for i in (1, 2):
                assert half2.inner(half2.create(i, u), v) == half2.inner(
                    u, half2.annihilate(i, v)
                )

    def test_recursive_matches_permutation_sum(self, half2):
        for n in range(7):
            oracle = permutation_gram(n, 2, Fraction(1, 2))
            words = half2.words(n)
            for a, u in enumerate(words):
                eu = e(u)
                for b, v in enumerate(words):
                    assert half2.inner(eu, e(v)) == oracle[a][b]

    def test_mixed_gram_symmetric(self):
        defm = Deformation([[Fraction(1, 3), Fraction(1, 5)], [Fraction(1, 5), Fraction(-1, 4)]])
        sp = FockSpace(defm, level=5)
        for n in range(5):
            g = dense_gram(sp, n)
            for a in range(len(g)):
                for b in range(len(g)):
                    assert g[a][b] == g[b][a]


class TestCommutationRelation:
    def check(self, space, levels):
        d = space.d
        q = space.deformation.q
        for n in range(levels + 1):
            for w in space.words(n):
                v = e(w)
                for i in range(1, d + 1):
                    for j in range(1, d + 1):
                        lhs = space.annihilate(i, space.create(j, v)) - space.create(
                            j, space.annihilate(i, v)
                        ).scaled(q(i, j))
                        want = v if i == j else FockVector.zero()
                        assert lhs == want, (i, j, w)

    def test_scalar_symbolic(self, sym2):
        self.check(sym2, 4)

    def test_mixed_matrix(self):
        defm = Deformation([[Fraction(1, 3), Fraction(1, 5)], [Fraction(1, 5), Fraction(-1, 4)]])
        self.check(FockSpace(defm, level=5), 4)


class TestRightAdjoint:
    """The right-creation adjoints of the chained oracle, which the
    conjugate-variable tests compare the library's one solve per level
    against."""

    def test_right_annihilate(self):
        assert right_annihilate(1, e((2, 1))) == e((2,))
        assert right_annihilate(2, e((2, 1))).is_zero()
        assert right_annihilate(1, e(())).is_zero()

    def test_one_variable_closed_form(self, sym1):
        chains = ChainedAdjoints(sym1)
        for m in range(5):
            got = chains.adjoint(1, e((1,) * m))
            assert len(got) == 1
            assert got.coeff((1,) * (m + 1)) == 1 / q_int(m + 1, Q)

    def test_free_case_right_creation(self):
        chains = ChainedAdjoints(FockSpace.with_scalar_q(2, Fraction(0), level=4))
        for n in range(3):
            for w in chains.space.words(n):
                for i in (1, 2):
                    assert chains.adjoint(i, e(w)) == e(w + (i,))

    def test_adjoint_identity(self, half2):
        chains = ChainedAdjoints(half2)
        for n in range(3):
            for w in half2.words(n):
                for i in (1, 2):
                    up = chains.adjoint(i, e(w))
                    for x in half2.words(n + 1):
                        lhs = half2.inner(up, e(x))
                        rhs = half2.inner(e(w), right_annihilate(i, e(x)))
                        assert lhs == rhs


MIXED_2 = Deformation([[Fraction(1, 3), Fraction(2, 5)], [Fraction(2, 5), Fraction(-3, 7)]])
MIXED_3 = Deformation(
    [
        [Fraction(-1, 3), Fraction(2, 5), Fraction(1, 7)],
        [Fraction(2, 5), Fraction(3, 7), Fraction(-1, 5)],
        [Fraction(1, 7), Fraction(-1, 5), Fraction(2, 3)],
    ]
)


class TestGramOracles:
    @pytest.mark.parametrize("q", [Fraction(1, 2), FORMAL_Q], ids=["half", "formal"])
    def test_constant_matches_permutation_sum(self, q):
        sp = FockSpace.with_scalar_q(2, q, level=6)
        for n in range(7):
            assert dense_gram(sp, n) == permutation_gram(n, 2, q), n

    @pytest.mark.parametrize(
        "defm,top",
        [(MIXED_2, 6), (MIXED_3, 4), (Deformation([[Q, Q * Q], [Q * Q, Q]]), 4)],
        ids=["2x2", "3x3", "formal-2x2"],
    )
    def test_mixed_matches_left_peeling(self, defm, top):
        # a formal matrix that is not constant has no inverse peeling, but
        # its blocks, a forward product, never divide
        sp = FockSpace(defm, level=top)
        for n in range(top + 1):
            want = left_peeling_gram(n, defm)
            assert dense_gram(sp, n) == want, n
            words = sp.words(n)
            for a, u in enumerate(words):
                assert [sp.inner(e(u), e(v)) for v in words] == want[a], (n, u)


FLOAT_BLOCKS = [
    pytest.param(Deformation.constant(2, 0.9), 6, id="d2-0.9"),
    pytest.param(Deformation.constant(3, -0.9), 5, id="d3--0.9"),
    pytest.param(Deformation([[0.7, 0.0], [0.0, -0.4]]), 6, id="d2-mixed-zero"),
    pytest.param(Deformation([[1 / 2, -1 / 3, 0.0], [-1 / 3, -1 / 5, 2 / 7], [0.0, 2 / 7, 3 / 4]]), 5, id="d3-mixed-zero"),
]


class TestBlocksAgainstEntryByEntry:
    """The blocks of ``_build_blocks``, the forward product of the peeling
    factors on whole arrays: float blocks bit for bit against the same
    product written word by word, rational and formal ones exactly against
    the recursion entry by entry from the level below, in the same order of
    contents."""

    @pytest.mark.parametrize("defm,top", FLOAT_BLOCKS)
    def test_float_blocks_bit_for_bit(self, defm, top):
        sp = FockSpace(defm, level=top)
        for n in range(top + 1):
            want = forward_blocks(sp, n)
            assert list(sp.blocks(n)) == list(want), n
            for content, (words, rows) in want.items():
                blk = sp.blocks(n)[content]
                assert blk.words == words and blk.rows.dtype == np.float64
                assert blk.rows.tobytes() == np.array(rows, dtype=float).tobytes(), (n, content)

    @pytest.mark.parametrize(
        "defm,top", [(MIXED_2, 6), (MIXED_3, 4), (Deformation.constant(2, FORMAL_Q), 5)], ids=["2x2", "3x3", "formal"]
    )
    def test_exact_blocks_equal(self, defm, top):
        # rational entries are Python ints; a formal entry above level 1 is
        # a QPoly even where it is free of q, since it sums moves weighted
        # by q, and levels 0 and 1 are the identity in ints
        sp = FockSpace(defm, level=top)
        kind = QPoly if defm.is_symbolic else int
        for n in range(top + 1):
            want = peeled_blocks(sp, n)
            assert list(sp.blocks(n)) == list(want), n
            for content, (words, rows) in want.items():
                got = sp.blocks(n)[content].rows.tolist()
                assert got == rows, (n, content)
                assert {type(g) for row in got for g in row} == {kind if n > 1 else int}, (n, content)

    def test_blocks_are_read_only(self):
        blk = FockSpace.with_scalar_q(2, 0.5, level=3).blocks(3)[(1, 1, 2)]
        with pytest.raises(ValueError):
            blk.rows[0, 0] = 0.0


def _ldl_product(rows):
    """L·D·Lᵀ from the factor rows: row r holds L[r][:r], then D[r]."""

    def lower(a, k):
        return 1 if k == a else rows[a][k]

    size = len(rows)
    return [
        [sum((lower(a, k) * rows[k][k] * lower(b, k) for k in range(min(a, b) + 1)), 0) for b in range(size)]
        for a in range(size)
    ]


class TestFactorization:
    """The oracle's L·D·Lᵀ without pivoting rebuilds every block; inside
    the disk every pivot of the Gram form is positive."""

    @pytest.mark.parametrize(
        "defm,top",
        [(Deformation.constant(2, FORMAL_Q), 4)],
        ids=["formal"],
    )
    def test_rebuilds_every_block(self, defm, top):
        sp = FockSpace(defm, level=top)
        for n in range(top + 1):
            for content, blk in sp.blocks(n).items():
                rows = blk.rows.tolist()
                assert _ldl_product(ldl(n, content, rows)) == rows, (n, content)

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(1, 3),
        level=st.integers(0, 5),
        q=st.fractions(min_value=-1, max_value=1, max_denominator=12).filter(lambda q: abs(q) < 1),
    )
    def test_pivots_positive_inside_disk(self, d, level, q):
        sp = FockSpace.with_scalar_q(d, q, level)
        for n in range(level + 1):
            for content, blk in sp.blocks(n).items():
                assert blk.scale == q.denominator ** (n * (n - 1) // 2)
                assert all(row[-1] > 0 for row in ldl(n, content, gram_rows(blk)))


def _weight(q, letter, others):
    weight = 1
    for b in others:
        weight = weight * q(letter, b)
    return weight


def _apply(op, v):
    """The linear extension of op (word -> {word: weight}) to v."""
    acc = {}
    for w, c in v.items():
        for u, g in op(w).items():
            acc[u] = acc.get(u, 0) + c * g
    return {u: c for u, c in acc.items() if c}


def _peel(q):
    """The operators of the peeling identity as maps word -> {word: weight}:
    T_t moves w_t to the end past the letters behind it, R = sum_t T_t, and
    V moves w_0 to the next-to-last place, with weight D_V."""

    def move_to_end(w, t):
        return w[:t] + w[t + 1 :] + (w[t],), _weight(q, w[t], w[t + 1 :])

    def r(w):
        acc = {}
        for t in range(len(w)):
            u, g = move_to_end(w, t)
            acc[u] = acc.get(u, 0) + g
        return acc

    def du_u(w):
        u, g = move_to_end(w, 0)
        return {u: g}

    def dv_v(w):
        return {w[1:-1] + (w[0], w[-1]): _weight(q, w[0], w[1:]) * q(w[0], w[-1])}

    def tail_r(w):
        return {w[:1] + u: g for u, g in r(w[1:]).items()}

    return r, du_u, dv_v, tail_r


def _random_matrix(rng, d):
    """A symmetric matrix with rational entries in (-1, 1), about a fifth of
    them 0."""
    m = [[Fraction(0)] * d for _ in range(d)]
    for a in range(d):
        for b in range(a, d):
            if rng.random() > 0.2:
                den = rng.randint(2, 9)
                m[a][b] = m[b][a] = Fraction(rng.randint(-den + 1, den - 1), den)
    return Deformation(m)


class TestPeelingIdentity:
    """R_n (1 - D_U U) = (1 - D_V V) (1 (x) R_{n-1}), the identity the
    explicit inverse rests on, and (D_V V)^(n-1) = c with c(w) the product
    of q(w_a, w_b)^2 over the pairs of places, checked exactly on every
    word, independently of the library's moves."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_identity_on_every_word(self, d):
        rng = random.Random(d)
        for trial in range(2):
            defm = _random_matrix(rng, d)
            r, du_u, dv_v, tail_r = _peel(defm.q)
            for n in range(2, 7):
                for w in FockSpace(defm, n).words(n):
                    e_w = {w: Fraction(1)}
                    left = _apply(r, e_w)
                    for u, g in _apply(r, _apply(du_u, e_w)).items():
                        left[u] = left.get(u, 0) - g
                    right = _apply(tail_r, e_w)
                    for u, g in _apply(dv_v, _apply(tail_r, e_w)).items():
                        right[u] = right.get(u, 0) - g
                    assert {u: c for u, c in left.items() if c} == {u: c for u, c in right.items() if c}, (trial, w)
                    orbit = e_w
                    for _ in range(n - 1):
                        orbit = _apply(dv_v, orbit)
                    c = Fraction(1)
                    for a in range(n):
                        for b in range(a + 1, n):
                            c = c * defm.q(w[a], w[b]) ** 2
                    assert orbit == ({w: c} if c else {}), (trial, w)


def sp_one():
    """The float space at q = 1, where 1 - c(w) = 0 on every window."""
    return FockSpace.with_scalar_q(2, 1.0, level=3)


class TestSolve:
    """The conjugate variables solve G_{2m+1} xi = b_i level by level, with
    no Gram block built; a window with 1 - c(w) = 0 names its level and its
    content."""

    def test_inverts_the_gram_form(self, half2):
        for m in range(3):
            for i in (1, 2):
                xi = conjugate_series(half2, i, m).level(2 * m + 1)
                b = _series_rhs(half2, i, m)
                for w in half2.words(2 * m + 1):
                    assert half2.inner(xi, e(w)) == b.coeff(w), (m, i, w)

    def test_beyond_level_is_truncation_error(self):
        sp = FockSpace.with_scalar_q(1, Fraction(1, 2), level=2)
        with pytest.raises(TruncationError):
            sp.inverse_peel(e((1, 1, 1)), 1)

    def test_exact_q_minus_one_is_singular(self):
        sp = FockSpace.with_scalar_q(2, Fraction(-1), level=3)
        with pytest.raises(GramSingularError, match=r"level-2 .*\(1, 1\)"):
            conjugate_series(sp, 1, 1)

    def test_unit_mixed_entry_is_singular(self):
        half = Fraction(1, 2)
        sp = FockSpace(Deformation([[half, 1], [1, half]]), level=3)
        # c_1 touches the words 111 and 212: the window 21 has c = q_12^2 = 1
        with pytest.raises(GramSingularError, match=r"level-2 .*\(1, 2\)"):
            conjugate_series(sp, 1, 1)

    def test_float_singular_block_detected(self):
        # at q = 1 float xi factors nothing and meets 1 - c(w) = 0 on every
        # window; level 1 has no window, and 1.0 stays a float
        xi = conjugate_series(sp_one(), 1, 0)
        assert xi == e((1,)).scaled(1.0) and type(xi.coeff((1,))) is float
        with pytest.raises(GramSingularError, match=r"level-2 .*\(1, 1\)"):
            conjugate_series(sp_one(), 1, 1)

    def test_float_singular_block_same_error_in_solve_and_norms(self):
        # the explicit inverse and the norm engines refuse q = 1 with the
        # same error type, each naming a level-2 content: the inverse the
        # first window content it meets, the Cholesky factor of the norm
        # checks the first block that is not positive definite
        with pytest.raises(GramSingularError) as solved:
            conjugate_series(sp_one(), 1, 1)
        with pytest.raises(GramSingularError) as normed:
            right_annihilation_norm(sp_one(), 1, 3)
        assert str(normed.value) == "level-2 Gram block of content (1, 2) is not positive definite"
        assert str(solved.value) == "level-2 Gram factor R_2 on the window content (1, 1) has 1 - c(w) = 0"


class TestFloatGram:
    @pytest.mark.parametrize("q0", [0.9, -0.9])
    def test_positive_definite_inside_disk(self, q0):
        sp = FockSpace.with_scalar_q(2, q0, level=6)
        for n in range(7):
            np.linalg.cholesky(np.array(dense_gram(sp, n), dtype=float))

    def test_matches_exact_at_rational_point(self, half2):
        g = dense_gram(half2, 3)
        f = dense_gram(FockSpace.with_scalar_q(2, 0.5, level=3), 3)
        oracle = permutation_gram(3, 2, 0.5)
        for a in range(8):
            for b in range(8):
                assert abs(float(g[a][b]) - f[a][b]) < 1e-12
                assert abs(oracle[a][b] - f[a][b]) < 1e-12


def _max_float_gap(exact_space, float_space, i, m, relative=False):
    """max |float - exact| over the coefficients of xi_i, each divided by
    max(1, |exact|) when relative."""
    exact = conjugate_series(exact_space, i, m)
    approx = conjugate_series(float_space, i, m)
    words = set(w for w, _ in exact.items()) | set(w for w, _ in approx.items())
    scale = (lambda c: max(1.0, abs(c))) if relative else (lambda c: 1.0)
    return max(abs(float(exact.coeff(w)) - float(approx.coeff(w))) / scale(float(exact.coeff(w))) for w in words)


class TestFloatConjugateSeries:
    """Float mode runs the same explicit inverse as exact mode, with plain
    division by 1 - c(w); its conjugate variables must stay within 1e-9 of
    the exact ones, and at |q| = 9/10, where the coefficients reach
    several hundred, within 1e-8 relative to max(1, |exact|)."""

    @pytest.mark.parametrize("q", [Fraction(4, 5), Fraction(-4, 5)], ids=["+4/5", "-4/5"])
    def test_constant_close_to_exact(self, q):
        exact = FockSpace.with_scalar_q(2, q, level=7)
        approx = FockSpace.with_scalar_q(2, float(q), level=7)
        for i in (1, 2):
            assert _max_float_gap(exact, approx, i, 3) < 1e-9

    @pytest.mark.parametrize("q", [Fraction(9, 10), Fraction(-9, 10)], ids=["+9/10", "-9/10"])
    def test_strong_constant_close_to_exact(self, q):
        exact = FockSpace.with_scalar_q(2, q, level=7)
        approx = FockSpace.with_scalar_q(2, float(q), level=7)
        for i in (1, 2):
            assert _max_float_gap(exact, approx, i, 3, relative=True) < 1e-8

    def test_mixed_close_to_exact(self):
        floats = Deformation([[float(v) for v in row] for row in MIXED_2.entries])
        exact = FockSpace(MIXED_2, level=7)
        approx = FockSpace(floats, level=7)
        for i in (1, 2):
            assert _max_float_gap(exact, approx, i, 3) < 1e-9


class TestThreadSafety:
    """One fresh space shared by concurrent callers: the write-once Gram
    blocks and memos hand every thread the same data."""

    def test_blocks_are_one_object(self):
        sp = FockSpace.with_scalar_q(2, Fraction(1, 2), level=6)
        got = together(lambda _: sp.blocks(6), range(4))
        assert all(g is got[0] for g in got)
        assert sp.blocks(6) is got[0]

    def test_conjugate_series_match_serial(self):
        q = Fraction(1, 2)
        serial_space = FockSpace.with_scalar_q(2, q, level=5)
        serial = {i: conjugate_series(serial_space, i, 2) for i in (1, 2)}
        sp = FockSpace.with_scalar_q(2, q, level=5)
        letters = [1, 2, 1, 2]
        assert together(lambda i: conjugate_series(sp, i, 2), letters) == [serial[i] for i in letters]

    def test_diagram_sums_and_recursions_match_serial(self):
        # the memos take no lock: four threads race on the same missing
        # keys, each from its own end of the word list
        def run(space, order):
            words = [w for n in range(5) for w in space.words(n)]
            if order % 2:
                words.reverse()
            out = {}
            for w in words[order // 2 :] + words[: order // 2]:
                out["D", w] = (wick_partition(space, w), wick_recursive(space, w))
                for i in range(1, space.d + 1):
                    out["B", i, w] = (dual_partition(space, i, w), dual_recursive(space, i, w))
                    out["C", i, w] = diff_partition(space, i, w)
            return out

        half, third, seventh = Fraction(1, 2), Fraction(-1, 3), Fraction(2, 7)
        defm = Deformation([[half, third, half], [third, half, seventh], [half, seventh, Fraction(3, 4)]])
        serial = run(FockSpace(defm, level=5), 0)
        sp = FockSpace(defm, level=5)
        got = together(lambda order: run(sp, order), [0, 1, 2, 3])
        assert all(g == serial for g in got)
        # first stored wins: every thread got the memo's own objects
        for g in got:
            assert all(g["D", w][1] is sp._memos["wick"][w] for w in sp._memos["wick"])
            assert all(g["B", i, w][1] is v for (i, w), v in sp._memos["dual"].items())
