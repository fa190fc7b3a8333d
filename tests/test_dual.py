from fractions import Fraction
from itertools import product

import pytest
from gram_oracles import ChainedAdjoints

import qfock.dual
import qfock.fock
from qfock import (
    FORMAL_Q,
    Deformation,
    FockSpace,
    FockVector,
    QPoly,
    TruncationError,
    commutator_residual,
    conjugate_series,
    dual_partition,
    dual_recursive,
    fisher_info,
    magnitude,
    q_factorial,
    q_falling,
)

Q = FORMAL_Q
e = FockVector.basis


def poly(*coeffs):
    return QPoly([Fraction(c) for c in coeffs])


def one_variable_closed_form(n, q):
    """Alternating falling-product expansion of the dual operator on the
    one-letter level-n vector."""
    acc = {}
    for k in range(1, (n + 1) // 2 + 1):
        coeff = (-1) ** (k - 1) * q ** (k * (k - 1) // 2) * q_falling(n - k, k - 1, q)
        acc[(1,) * (n - 2 * k + 1)] = coeff
    return FockVector(acc)


def xi_closed_form(source_length, q):
    acc = {}
    for m in range(1, source_length + 2):
        coeff = (
            (-1) ** (m - 1)
            * q ** (m * (m - 1) // 2)
            * q_factorial(m - 1, q)
            / q_factorial(2 * m - 1, q)
        )
        acc[(1,) * (2 * m - 1)] = coeff
    return FockVector(acc)


class TestExamples:
    def test_two_letter_word(self, sym2):
        for j1 in (1, 2):
            for j2 in (1, 2):
                for i in (1, 2):
                    got = dual_recursive(sym2, i, (j2, j1))
                    want = e((j2,)) if i == j1 else FockVector.zero()
                    assert got == want

    def test_one_variable_list(self, sym1):
        # degree 2..6 expansion; the degree-6 line's middle coefficient is
        # -q[4]_q, forced identically by the recursion, the diagram sum and
        # the closed form
        want = {
            2: FockVector({(1,): 1}),
            3: FockVector({(1, 1): 1, (): poly(0, -1)}),
            4: FockVector({(1,) * 3: 1, (1,): poly(0, -1, -1)}),
            5: FockVector(
                {(1,) * 4: 1, (1, 1): poly(0, -1, -1, -1), (): poly(0, 0, 0, 1, 1)}
            ),
            6: FockVector(
                {
                    (1,) * 5: 1,
                    (1,) * 3: poly(0, -1, -1, -1, -1),
                    (1,): poly(0, 0, 0, 1, 2, 2, 1),
                }
            ),
        }
        for n, expected in want.items():
            assert dual_recursive(sym1, 1, (1,) * n) == expected
            assert dual_partition(sym1, 1, (1,) * n) == expected

    def test_vacuum_killed(self, sym2):
        assert dual_recursive(sym2, 1, ()).is_zero()
        assert dual_partition(sym2, 1, ()).is_zero()


class TestStrategyAgreement:
    def test_two_letters_symbolic(self, sym2):
        for n in range(8):
            for w in product((1, 2), repeat=n):
                for i in (1, 2):
                    assert dual_partition(sym2, i, w) == dual_recursive(sym2, i, w)

    def test_one_letter_symbolic(self, sym1):
        for n in range(8):
            w = (1,) * n
            assert dual_partition(sym1, 1, w) == dual_recursive(sym1, 1, w)

    def test_recursion_refuses_words_beyond_level(self):
        sp = FockSpace.with_scalar_q(2, Fraction(1, 2), level=2)
        with pytest.raises(TruncationError):
            dual_recursive(sp, 1, (1, 2, 1))
        assert not sp._memos["dual"]


def recursive_commutator_residual(space, i, level_limit):
    """commutator_residual with D_i applied by the commutation-rule
    recursion instead of the B-family diagram sum."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qfock.dual, "dual_partition", dual_recursive)
        return commutator_residual(space, i, level_limit)


def one_commutator_residual(space, dual, i, j, level_limit):
    """max |(D_i A_j - A_j D_i - delta_ij P) e_w| for one pair (i, j), with
    D_i e_u = dual(u), one word at a time."""
    worst = 0
    for n in range(level_limit + 1):
        for w in space.words(n):
            lifted = space.gaussian(j, e(w))
            lhs = FockVector.combination((dual(u), c) for u, c in lifted.items())
            lhs = lhs - space.gaussian(j, dual(w))
            if i == j and n == 0:
                lhs = lhs - space.vacuum()
            worst = max(worst, lhs.max_coeff_magnitude())
    return worst


class TestCommutator:
    def test_exact_rational(self):
        sp = FockSpace.with_scalar_q(2, Fraction(1, 2), level=6)
        for i in (1, 2):
            assert commutator_residual(sp, i, 5) == {1: 0, 2: 0}

    def test_symbolic_one_variable(self, sym1):
        assert commutator_residual(sym1, 1, 6) == {1: 0}

    def test_mixed_matrix(self):
        defm = Deformation(
            [[Fraction(1, 3), Fraction(1, 5)], [Fraction(1, 5), Fraction(-1, 4)]]
        )
        sp = FockSpace(defm, level=6)
        for i in (1, 2):
            assert commutator_residual(sp, i, 4) == {1: 0, 2: 0}
            assert recursive_commutator_residual(sp, i, 4) == {1: 0, 2: 0}

    def test_residuals_sorted_by_j(self):
        # D_i of another deformation breaks the rule by different amounts
        # for each j; the shared duals must land on the right letter
        sp = FockSpace(Deformation([[Fraction(1, 3), Fraction(1, 5)], [Fraction(1, 5), Fraction(-1, 4)]]), level=5)
        wrong = FockSpace.with_scalar_q(2, Fraction(1, 2), level=5)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qfock.dual, "dual_partition", lambda _, i, u: dual_partition(wrong, i, u))
            for i in (1, 2):
                got = commutator_residual(sp, i, 4)
                want = {j: one_commutator_residual(sp, lambda u: dual_partition(wrong, i, u), i, j, 4) for j in (1, 2)}
                assert got == want and got[1] != got[2] and all(got.values())

    def test_level_guard(self, sym1):
        with pytest.raises(ValueError):
            commutator_residual(sym1, 1, sym1.level)


class TestConjugateSeries:
    def test_free_case_is_the_letter(self):
        sp = FockSpace.with_scalar_q(2, Fraction(0), level=7)
        for i in (1, 2):
            for m in range(4):
                assert conjugate_series(sp, i, m) == e((i,))

    def test_one_variable_first_terms(self, sym1):
        xi = conjugate_series(sym1, 1, 1)
        assert xi.coeff((1,)) == 1
        assert xi.coeff((1, 1, 1)) == -Q / (poly(1, 1) * poly(1, 1, 1))

    @pytest.mark.parametrize("source_length", range(4))
    def test_matches_closed_form_symbolic(self, sym1, source_length):
        assert conjugate_series(sym1, 1, source_length) == xi_closed_form(
            source_length, Q
        )

    @pytest.mark.parametrize("q0", [Fraction(1, 2), Fraction(-1, 3), Fraction(9, 10)])
    def test_matches_closed_form_rational_m4(self, q0):
        sp = FockSpace.with_scalar_q(1, q0, level=9)
        assert conjugate_series(sp, 1, 4) == xi_closed_form(4, q0)

    def test_truncation_guard(self, sym1):
        with pytest.raises(TruncationError):
            conjugate_series(sym1, 1, sym1.level)

    def test_symbolic_two_letters_evaluates_to_exact(self):
        # d=2, level 5, M=2: every symbolic coefficient, evaluated at q0,
        # equals the exact-mode coefficient at q0 as a Fraction
        sym = FockSpace.with_scalar_q(2, Q, level=5)
        for q0 in (Fraction(1, 2), Fraction(-1, 3)):
            exact = FockSpace.with_scalar_q(2, q0, level=5)
            for i in (1, 2):
                xi_sym = conjugate_series(sym, i, 2)
                xi_q = conjugate_series(exact, i, 2)
                assert set(xi_q.support()) <= set(xi_sym.support())
                for w in xi_sym.support():
                    c = xi_sym.coeff(w)
                    at_q0 = c.eval_at(q0) if hasattr(c, "eval_at") else c
                    assert isinstance(at_q0, (int, Fraction))
                    assert Fraction(at_q0) == Fraction(xi_q.coeff(w)), (q0, i, w)

    def test_levels_are_shared_between_lengths_and_calls(self):
        defm = Deformation(
            [[Fraction(1, 3), Fraction(1, 5)], [Fraction(1, 5), Fraction(-1, 4)]]
        )
        shared = FockSpace(defm, level=7)
        for i in (1, 2):
            full = conjugate_series(FockSpace(defm, level=7), i, 3)
            for M in (3, 0, 2, 1, 3):
                pieces = FockVector.zero()
                for m in range(M + 1):
                    pieces = pieces + full.level(2 * m + 1)
                assert conjugate_series(shared, i, M) == pieces
        # one memoized level per index and source length
        assert len(shared._memos["xi"]) == 2 * 4


MIXED_2 = Deformation([[Fraction(1, 3), Fraction(2, 5)], [Fraction(2, 5), Fraction(-3, 7)]])
MIXED_3 = Deformation(
    [
        [Fraction(-1, 3), Fraction(2, 5), Fraction(1, 7)],
        [Fraction(2, 5), Fraction(3, 7), Fraction(-1, 5)],
        [Fraction(1, 7), Fraction(-1, 5), Fraction(2, 3)],
    ]
)


class TestOneSolvePerLevel:
    """Each level of the conjugate variable is one solve, G_{2m+1}^-1 b_i,
    by the explicit inverse of the peeling factors; the chains of
    right-creation adjoints it telescopes, one Gram solve per adjoint, are
    the oracle. A constant q is invariant under relabelling the letters,
    so there xi_1 stands for the others on the larger spaces."""

    @pytest.mark.parametrize(
        "defm,level,letters",
        [
            (Deformation.constant(2, Fraction(1, 2)), 9, (1,)),
            (Deformation.constant(3, Fraction(-1, 3)), 7, (1,)),
            (Deformation.constant(1, Fraction(2, 5)), 9, (1,)),
            (MIXED_2, 7, (1, 2)),
            (MIXED_3, 5, (1, 2, 3)),
            (Deformation.constant(2, Q), 5, (1, 2)),
            (Deformation.constant(2, Q), 7, (1,)),
        ],
        ids=["half-d2-L9", "third-d3-L7", "2/5-d1-L9", "mixed-d2-L7", "mixed-d3-L5", "formal-d2-L5", "formal-d2-L7"],
    )
    def test_equals_chained_adjoints(self, defm, level, letters):
        sp = FockSpace(defm, level)
        chains = ChainedAdjoints(sp)
        M = (level - 1) // 2
        for i in letters:
            assert conjugate_series(sp, i, M) == chains.conjugate_series(i, M), i

    def test_float_mixed_within_relative_1e12(self):
        # relative to the largest coefficient: single coefficients near
        # 1e-8 come out of cancellation and differ in their last bits
        floats = Deformation([[float(v) for v in row] for row in MIXED_2.entries])
        sp = FockSpace(floats, level=7)
        chains = ChainedAdjoints(sp)
        for i in (1, 2):
            got, want = conjugate_series(sp, i, 3), chains.conjugate_series(i, 3)
            assert got.support() == want.support()
            assert (got - want).max_coeff_magnitude() <= 1e-12 * want.max_coeff_magnitude(), i

    @pytest.mark.parametrize("q", [0.5, Fraction(1, 2)], ids=["float", "exact"])
    def test_builds_no_block_above_level_m(self, monkeypatch, q):
        # the explicit inverse builds no Gram block, and the Fisher pairing
        # xi . b_i reads the blocks of level M at most; no float Gram is
        # factored
        factored = []
        monkeypatch.setattr(qfock.fock, "gram_cholesky", lambda *args: factored.append(args))
        xi_space = FockSpace.with_scalar_q(3, q, level=7)
        conjugate_series(xi_space, 1, 3)
        assert xi_space._memos["blocks"] == {}
        fisher_space = FockSpace.with_scalar_q(3, q, level=7)
        fisher_info(fisher_space, 3)
        assert sorted(fisher_space._memos["blocks"]) == [0, 1, 2, 3]
        assert factored == []


class TestFisher:
    @pytest.mark.parametrize("defm", [Deformation.constant(2, Fraction(9, 10)), MIXED_2], ids=["9/10", "mixed"])
    def test_running_sum_pairs_each_level_once(self, monkeypatch, defm):
        # the report for M equals the squared norms of the whole partial
        # series, while each level is paired once, as xi . b_i with
        # G_{2m+1} xi = b_i, and no inner product is taken
        reference = FockSpace(defm, level=7)
        want = [
            sum(reference.inner(xi, xi) for xi in (conjugate_series(reference, i, M) for i in (1, 2)))
            for M in range(4)
        ]
        sp = FockSpace(defm, level=7)
        pairs, inners = [], []
        rhs = qfock.dual._series_rhs

        def counted(space, i, m):
            pairs.append((i, m))
            return rhs(space, i, m)

        monkeypatch.setattr(qfock.dual, "_series_rhs", counted)
        monkeypatch.setattr(FockSpace, "inner", lambda *args: inners.append(args))
        reports = list(qfock.dual.fisher_reports(sp, 3))
        assert [r.source_length for r in reports] == [0, 1, 2, 3]
        assert [r.value for r in reports] == want
        assert pairs == [(i, m) for m in range(4) for i in (1, 2)]
        assert inners == []
        assert fisher_info(sp, 3) == reports[-1]

    def test_free_case_counts_letters(self):
        sp = FockSpace.with_scalar_q(2, Fraction(0), level=7)
        rep = fisher_info(sp, 3)
        assert rep.value == 2
        assert rep.tail_bound == 0.0

    def test_one_variable_series(self):
        q0 = Fraction(1, 2)
        sp = FockSpace.with_scalar_q(1, q0, level=9)
        rep = fisher_info(sp, 4)
        series = sum(
            (
                abs(q0) ** (m * (m - 1))
                * q_factorial(m - 1, q0) ** 2
                / q_factorial(2 * m - 1, q0)
                for m in range(1, 6)
            ),
            Fraction(0),
        )
        assert rep.value == series
        assert rep.tail_bound > 0.0

    def test_negative_q_computed_as_stated(self):
        # no sign symmetry is asserted; the partial sum simply evaluates the
        # series at the signed parameter
        q0 = Fraction(-1, 2)
        sp = FockSpace.with_scalar_q(1, q0, level=9)
        rep = fisher_info(sp, 4)
        series = sum(
            (
                abs(q0) ** (m * (m - 1))
                * q_factorial(m - 1, q0) ** 2
                / q_factorial(2 * m - 1, q0)
                for m in range(1, 6)
            ),
            Fraction(0),
        )
        assert rep.value == series

    def test_positive_terms_for_positive_q(self):
        q0 = Fraction(1, 2)
        for m in range(1, 6):
            term = (
                abs(q0) ** (m * (m - 1))
                * q_factorial(m - 1, q0) ** 2
                / q_factorial(2 * m - 1, q0)
            )
            assert term > 0

    def test_symbolic_mode_rejected(self, sym1):
        with pytest.raises(ValueError):
            fisher_info(sym1, 1)


class TestDualityPairing:
    def test_proof_pairing_formula(self, half2):
        # tau(A^u xi_i) must equal the alternating splitting sum
        # sum_k delta(i, u_k) tau(left) tau(right) for short monomials
        for n in range(5):
            for u in product((1, 2), repeat=n):
                for i in (1, 2):
                    xi = conjugate_series(half2, i, 2)
                    v = half2.vacuum()
                    for letter in u:
                        v = half2.gaussian(letter, v)
                    lhs = half2.inner(xi, v)
                    rhs = 0
                    for k, letter in enumerate(u):
                        if letter == i:
                            left = half2.gaussian_word(u[:k], half2.vacuum())
                            right = half2.gaussian_word(u[k + 1 :], half2.vacuum())
                            rhs = rhs + half2.trace(left) * half2.trace(right)
                    assert lhs == rhs, (i, u)
