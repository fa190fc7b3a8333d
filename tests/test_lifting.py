"""The p-adic lifting solve of rational Gram blocks against the Fraction
L·D·Lᵀ solve it replaced (``gram_oracles.ldl_solve``), and its handling
of unlucky primes, early reconstructions and singular minors. The
singular Gram blocks at exact q = -1 and q_12 = 1 are in ``test_fock``."""

import math
import random
import re
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from gram_oracles import ldl_solve, ldl_solve_rows
from hypothesis import given, settings
from hypothesis import strategies as st

import qfock.fock
import qfock.lifting as lifting
from qfock import Deformation, FockSpace, FockVector, GramSingularError
from qfock.dual import _series_rhs, conjugate_series


def _random_vector(space, top, seed):
    """Rational coefficients on every word up to level ``top``."""
    rng = random.Random(seed)
    return FockVector(
        {w: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for n in range(top + 1) for w in space.words(n)}
    )


def _right_hand_sides(space):
    """b_i of every letter and every level 2m+1 the space holds."""
    return [_series_rhs(space, i, m) for i in range(1, space.d + 1) for m in range((space.level - 1) // 2 + 1)]


MIXED_ZERO_NEGATIVE = [
    Deformation([[Fraction(0), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(1, 3)]]),
    Deformation(
        [
            [Fraction(-2, 3), Fraction(0), Fraction(1, 4)],
            [Fraction(0), Fraction(0), Fraction(-3, 5)],
            [Fraction(1, 4), Fraction(-3, 5), Fraction(5, 7)],
        ]
    ),
]


class TestAgainstFractionSolve:
    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(-1, 2), Fraction(9, 10), Fraction(0), Fraction(3, 7)], ids=str)
    @pytest.mark.parametrize("d,level", [(2, 7), (3, 5)], ids=["d2-L7", "d3-L5"])
    def test_constant(self, q, d, level):
        sp = FockSpace.with_scalar_q(d, q, level)
        for v in _right_hand_sides(sp) + [_random_vector(sp, level, seed=d)]:
            assert sp.solve(v) == ldl_solve(sp, v)

    @pytest.mark.parametrize("defm,level", list(zip(MIXED_ZERO_NEGATIVE, (7, 5))), ids=["d2", "d3"])
    def test_mixed_with_zero_and_negative_entries(self, defm, level):
        sp = FockSpace(defm, level)
        for v in _right_hand_sides(sp) + [_random_vector(sp, level, seed=level)]:
            assert sp.solve(v) == ldl_solve(sp, v)

    @settings(max_examples=25, deadline=None)
    @given(
        q=st.fractions(min_value=-2, max_value=2, max_denominator=10**6),
        d=st.integers(1, 3),
        level=st.integers(0, 5),
        seed=st.integers(0, 2**16),
    )
    def test_sweep(self, q, d, level, seed):
        # both solves raise on the same singular blocks (q = -1 and q = 1
        # among them), or both return the same vector
        sp = FockSpace.with_scalar_q(d, q, level)
        v = _random_vector(sp, level, seed)
        try:
            want = ldl_solve(sp, v)
        except GramSingularError as err:
            with pytest.raises(GramSingularError, match=re.escape(str(err))):
                sp.solve(v)
        else:
            assert sp.solve(v) == want


class TestRobustness:
    # at q = 1/2 the level-5 block of content (1, 1, 1, 2, 2) has a leading
    # 6 x 6 minor divisible by 13, so elimination mod 13 meets a zero pivot
    # at position 5 of a block that is nonsingular
    CONTENT = (1, 1, 1, 2, 2)

    def test_prime_dividing_a_pivot_is_replaced(self, monkeypatch):
        # the block of 10 words fits one panel: its whole inverse is kept
        self._unlucky_prime(monkeypatch)

    def test_prime_dividing_a_pivot_is_replaced_in_panels(self, monkeypatch):
        monkeypatch.setattr(lifting, "PANEL", 3)
        self._unlucky_prime(monkeypatch)

    def _unlucky_prime(self, monkeypatch):
        sp = FockSpace.with_scalar_q(2, Fraction(1, 2), level=5)
        v = FockVector({w: Fraction(k - 4, k + 1) for k, w in enumerate(sp.blocks(5)[self.CONTENT].words)})
        want = ldl_solve(sp, v)
        primes, factored = lifting._primes, []
        factor = lifting._factor_mod

        def unlucky_first(size):
            yield 13
            yield from primes(size)

        def recorded(mat, p):
            factored.append((p, factor(mat, p)))
            return factored[-1][1]

        monkeypatch.setattr(lifting, "_primes", unlucky_first)
        monkeypatch.setattr(lifting, "_factor_mod", recorded)
        assert sp.solve(v) == want
        assert factored[0] == (13, 5)
        assert len(factored) == 2 and factored[1][0] == next(primes(len(sp.blocks(5)[self.CONTENT].words)))

    def test_early_reconstruction_is_rejected(self, monkeypatch):
        # the first reconstruction is forced on the residues of the scaled
        # target as they stand, as integers over denominator 1; the exact
        # check must turn it down
        sp = FockSpace.with_scalar_q(2, Fraction(1, 2), level=5)
        v = _series_rhs(sp, 1, 2)
        want = ldl_solve(sp, v)
        reconstruct, calls = lifting._reconstruct, []

        def forced_first(residues, modulus):
            calls.append(modulus)
            if len(calls) == 1:
                return [int(x) if 2 * x < modulus else int(x) - modulus for x in residues], 1
            return reconstruct(residues, modulus)

        monkeypatch.setattr(lifting, "_reconstruct", forced_first)
        got = sp.solve(v)
        assert got == want
        assert any(c.denominator != 1 for _, c in got.items())
        assert len(calls) > 1


class TestSolveInteger:
    def test_large_entries_and_many_limbs(self):
        # entries far above 2^63, of both signs, and a dense solution
        rng = random.Random(3)
        n = 12
        base = [[rng.randint(-(2**120), 2**120) for _ in range(n)] for _ in range(n)]
        mat = [[sum(base[k][a] * base[k][b] for k in range(n)) + (a == b) for b in range(n)] for a in range(n)]
        rhs = [rng.randint(-(2**90), 2**90) for _ in range(n)]
        nums, den = lifting.solve_integer(mat, rhs)
        assert den > 0
        assert [sum(g * x for g, x in zip(row, nums)) for row in mat] == [den * b for b in rhs]

    def test_uncertified_lifting_stops_at_the_hadamard_bound(self, monkeypatch):
        # with the exact product A x off by one, only the first lifting
        # digit is right; this solution needs more, so no candidate passes
        # the check, and the loop ends at the bound instead of running on
        big = 10**20
        mat, rhs = [[5 * big, 2, 1], [2, 7 * big, 3], [1, 3, 9 * big]], [1, -2, 4]
        nums, den = lifting.solve_integer(mat, rhs)
        assert den > 2**64
        times, solve_mod, steps = lifting._times, lifting._solve_mod, []

        def counted(*args):
            steps.append(1)
            return solve_mod(*args)

        monkeypatch.setattr(lifting, "_times", lambda limbs, x: times(limbs, x) + 1)
        monkeypatch.setattr(lifting, "_solve_mod", counted)
        with pytest.raises(ArithmeticError, match="Hadamard"):
            lifting.solve_integer(mat, rhs)
        # the Hadamard bound has 3 * (70 + 2) = 216 bits, and p about 2^30.5:
        # p^15 is the first power with more than 2 * (216 + 1) + 2 = 436 bits
        assert len(steps) == 15
        steps.clear()
        with pytest.raises(ArithmeticError, match="Hadamard"):
            lifting.solve_integer(mat, rhs, Fraction(2**40, 3))
        # a factor u = 2^40 moves the end to 2 * (216 + 41) + 2 = 516 bits
        assert len(steps) == 17

    def test_singular_leading_minor_is_reported(self):
        with pytest.raises(lifting.SingularMinor) as err:
            lifting.solve_integer([[2, 3, 1], [4, 6, 5], [1, 1, 1]], [1, 2, 3])
        assert err.value.size == 2

    def test_mod_p_factors_rebuild_the_matrix(self):
        rng = random.Random(5)
        n = 9
        mat = [[rng.randint(-(10**30), 10**30) for _ in range(n)] for _ in range(n)]
        p = next(lifting._primes(n))
        packed, inverses = lifting._factor_mod(np.array([[g % p for g in row] for row in mat], dtype=np.int64), p)
        lower = np.tril(packed, -1) + np.eye(n, dtype=np.int64)
        upper = np.triu(packed)
        assert ((lower @ upper) % p).tolist() == [[g % p for g in row] for row in mat]
        assert all(int(u) * int(i) % p == 1 for u, i in zip(np.diag(upper), inverses))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 9),
        seed=st.integers(0, 2**16),
        shift=st.integers(0, 300),
        prime_power=st.integers(0, 3),
        factor=st.fractions(max_denominator=10**9).filter(bool),
        prime_in_factor=st.integers(-2, 2),
        rhs_content=st.integers(1, 10**12),
        panel=st.sampled_from([2, 3, lifting.PANEL]),
    )
    def test_scaled_systems_match_the_fraction_solve(
        self, n, seed, shift, prime_power, factor, prime_in_factor, rhs_content, panel
    ):
        # A = g S with S symmetric positive definite and a large content g,
        # which may hold powers of the prime the solve uses first, as may
        # the rational factor; x = factor A^-1 b against Fractions
        rng = random.Random(seed)
        base = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        spd = [[sum(row[a] * row[b] for row in base) + (a == b) for b in range(n)] for a in range(n)]
        p = next(lifting._primes(n))
        content = 2**shift * 3 ** (shift % 5) * p**prime_power
        rows = [[content * g for g in row] for row in spd]
        rhs = [rng.randint(-(10**6), 10**6) * rhs_content for _ in range(n)]
        factor = factor * Fraction(p) ** prime_in_factor
        with patch.object(lifting, "PANEL", panel):
            nums, den = lifting.solve_integer(rows, rhs, factor)
        assert den > 0
        assert [Fraction(c, den) for c in nums] == [factor * x for x in ldl_solve_rows(rows, rhs)]

    def test_content_and_factor_leave_the_steps_unchanged(self, monkeypatch):
        # the target is the answer: lifting c A against b with the factor c
        # takes the steps of lifting A alone
        rng = random.Random(11)
        n = 30
        base = [[rng.randint(-(10**9), 10**9) for _ in range(n)] for _ in range(n)]
        mat = [[sum(row[a] * row[b] for row in base) + (a == b) for b in range(n)] for a in range(n)]
        rhs = [rng.randint(-(10**9), 10**9) for _ in range(n)]
        solve_mod, steps = lifting._solve_mod, []

        def counted(*args):
            steps[-1] += 1
            return solve_mod(*args)

        monkeypatch.setattr(lifting, "_solve_mod", counted)
        content = 3**200
        answers = []
        for rows, factor in ((mat, 1), ([[content * g for g in row] for row in mat], content)):
            steps.append(0)
            nums, den = lifting.solve_integer(rows, rhs, factor)
            answers.append([Fraction(c, den) for c in nums])
        assert answers[0] == answers[1]
        assert steps[0] == steps[1]


class TestLiftingCounts:
    def test_mixed_level7_export(self, monkeypatch):
        # the 20 block solves of export xi --d 2 --level 7 --series-m 3 on
        # a fixed mixed matrix; lifting the integer systems' own solutions
        # took 167 steps, with a reconstruction tried at each
        counts = []
        solve, solve_mod, reconstruct = lifting.solve_integer, lifting._solve_mod, lifting._reconstruct

        def solved(*args):
            counts.append([0, 0])
            return solve(*args)

        def stepped(*args):
            counts[-1][0] += 1
            return solve_mod(*args)

        def tried(*args):
            counts[-1][1] += 1
            return reconstruct(*args)

        monkeypatch.setattr(qfock.fock, "solve_integer", solved)
        monkeypatch.setattr(lifting, "_solve_mod", stepped)
        monkeypatch.setattr(lifting, "_reconstruct", tried)
        sp = FockSpace(Deformation([[Fraction(1, 3), Fraction(2, 5)], [Fraction(2, 5), Fraction(-3, 7)]]), 7)
        for i in (1, 2):
            conjugate_series(sp, i, 3)
        assert len(counts) == 20
        assert sum(steps for steps, _ in counts) == 97
        # tries at most once per growth of the modulus by GROWTH in bits,
        # and at the end: 2 + log(K) / log(GROWTH) for K steps
        for steps, tries in counts:
            assert 1 <= tries <= 2 + math.log(steps) / math.log(lifting.GROWTH)
        assert sum(tries for _, tries in counts) == 71
