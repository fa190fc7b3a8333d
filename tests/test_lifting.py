"""The conjugate variables by the explicit inverse of the peeling factors
against the Fraction L·D·Lᵀ solve of ``gram_oracles.ldl_solve``, level by
level, and the exact check that guards the inverse. (The file kept its
name from the p-adic lifting solve it replaced.) The singular windows at
exact q = -1 and q_12 = 1 are in ``test_fock``."""

import pytest
from fractions import Fraction

from gram_oracles import ldl_solve
from hypothesis import given, settings
from hypothesis import strategies as st

import qfock.fock
from qfock import FORMAL_Q, Deformation, FockSpace, GramSingularError
from qfock.dual import _series_level, _series_rhs, _series_source


def _levels(space):
    """(engine level, oracle level) of every letter and level 2m+1 the
    space holds: xi_i^(2m+1) and the Fraction solve of G_{2m+1} x = b_i."""
    return [
        (_series_level(space, i, m), ldl_solve(space, _series_rhs(space, i, m)))
        for i in range(1, space.d + 1)
        for m in range((space.level - 1) // 2 + 1)
    ]


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
        for got, want in _levels(sp):
            assert got == want

    @pytest.mark.parametrize("defm,level", list(zip(MIXED_ZERO_NEGATIVE, (7, 5))), ids=["d2", "d3"])
    def test_mixed_with_zero_and_negative_entries(self, defm, level):
        sp = FockSpace(defm, level)
        for got, want in _levels(sp):
            assert got == want

    @settings(max_examples=25, deadline=None)
    @given(
        q=st.fractions(min_value=-2, max_value=2, max_denominator=10**6),
        d=st.integers(1, 3),
        level=st.integers(0, 5),
    )
    def test_sweep(self, q, d, level):
        # at q = 1 or -1, 1 - c(w) = 0 on every window, and from level 3 on
        # the inverse refuses; elsewhere, |q| > 1 included, it is exact, and
        # equals the Fraction solve wherever that one meets no zero pivot
        sp = FockSpace.with_scalar_q(d, q, level)
        if abs(q) == 1 and level >= 3:
            with pytest.raises(GramSingularError, match="level-2 Gram factor R_2"):
                _levels(sp)
            return
        for m in range((level - 1) // 2 + 1):
            for i in range(1, d + 1):
                got = _series_level(sp, i, m)
                try:
                    want = ldl_solve(sp, _series_rhs(sp, i, m))
                except GramSingularError:
                    continue
                assert got == want

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(2, 3),
        entries=st.lists(
            st.fractions(min_value=-1, max_value=1, max_denominator=9).filter(lambda v: abs(v) < 1),
            min_size=6,
            max_size=6,
        ),
        zeros=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_random_mixed_matrices(self, d, entries, zeros):
        # random symmetric matrices with entries in (-1, 1), some of them 0
        values = iter(Fraction(0) if zero else v for v, zero in zip(entries, zeros))
        m = [[None] * d for _ in range(d)]
        for a in range(d):
            for b in range(a, d):
                m[a][b] = m[b][a] = next(values)
        sp = FockSpace(Deformation(m), 7 if d == 2 else 5)
        for got, want in _levels(sp):
            assert got == want


class TestExactCheck:
    @pytest.mark.parametrize(
        "defm",
        [Deformation.constant(2, Fraction(1, 2)), MIXED_ZERO_NEGATIVE[0], Deformation.constant(2, FORMAL_Q)],
        ids=["half", "mixed", "formal"],
    )
    def test_a_wrong_inverse_is_refused(self, monkeypatch, defm):
        # one numerator of R_k^-1 moved by 1: the forward product no longer
        # gives c_i back, and the level is refused, not returned
        inverse = qfock.fock._Peeling._inverse

        def corrupted(self, x, k):
            x = inverse(self, x, k)
            x[0] = x[0] + 1
            return x

        monkeypatch.setattr(qfock.fock._Peeling, "_inverse", corrupted)
        with pytest.raises(ArithmeticError, match="level-5 solve failed its exact check"):
            _series_level(FockSpace(defm, 5), 1, 2)


MIXED_2 = Deformation([[Fraction(1, 3), Fraction(2, 5)], [Fraction(2, 5), Fraction(-3, 7)]])
MIXED_3 = Deformation(
    [
        [Fraction(-1, 3), Fraction(2, 5), Fraction(1, 7)],
        [Fraction(2, 5), Fraction(3, 7), Fraction(-1, 5)],
        [Fraction(1, 7), Fraction(-1, 5), Fraction(2, 3)],
    ]
)
DIAGONAL_3 = Deformation([[Fraction(1, 2), 0, 0], [0, Fraction(-1, 3), 0], [0, 0, Fraction(2, 5)]])


def _floats(defm):
    return Deformation([[float(v) for v in row] for row in defm.entries])


class TestOneSolveForEveryLetter:
    """A level of the conjugate variables is one peeling of the sum of the
    c_i of every letter, split back by the letter each content holds an
    odd number of times. Each letter's part equals a peeling of its c_i
    alone, and the Fraction solve of G_{2m+1} x = b_i."""

    @pytest.mark.parametrize(
        "defm,level",
        [
            *((Deformation.constant(d, q), 7 if d < 3 else 5) for q in (Fraction(1, 2), Fraction(-1, 2)) for d in (1, 2, 3)),
            (MIXED_2, 7),
            (MIXED_3, 5),
            (Deformation([[Fraction(1, 2), 0], [0, Fraction(-1, 3)]]), 7),
            (DIAGONAL_3, 7),
            (Deformation.constant(2, FORMAL_Q), 5),
            (Deformation.constant(3, FORMAL_Q), 3),
            (Deformation.constant(2, 0.5), 7),
            (_floats(MIXED_2), 7),
            (_floats(MIXED_3), 7),
        ],
        ids=[
            *(f"{q}-d{d}" for q in ("1/2", "-1/2") for d in (1, 2, 3)),
            "mixed-d2",
            "mixed-d3",
            "diagonal-d2",
            "diagonal-d3",
            "formal-d2",
            "formal-d3",
            "float-d2",
            "float-mixed-d2",
            "float-mixed-d3",
        ],
    )
    def test_equals_a_lone_peeling_and_the_fraction_solve(self, defm, level):
        sp = FockSpace(defm, level)
        for m in range((level - 1) // 2 + 1):
            for i in range(1, sp.d + 1):
                got = _series_level(sp, i, m)
                assert got == FockSpace(defm, level).inverse_peel(_series_source(sp, i, m), m), (i, m)
                want = ldl_solve(sp, _series_rhs(sp, i, m))
                if defm.is_float:
                    assert got.support() == want.support()
                    assert (got - want).max_coeff_magnitude() <= 1e-12 * want.max_coeff_magnitude(), (i, m)
                else:
                    assert got == want, (i, m)

    @pytest.mark.parametrize("q", [MIXED_3, Fraction(1, 2), Fraction(-1, 2)], ids=["mixed", "1/2", "-1/2"])
    def test_level_7_d3_equals_a_lone_peeling(self, q):
        # the Fraction solve of the level-7 blocks takes seconds at d = 3
        defm = q if isinstance(q, Deformation) else Deformation.constant(3, q)
        sp = FockSpace(defm, 7)
        for i in range(1, 4):
            assert _series_level(sp, i, 3) == FockSpace(defm, 7).inverse_peel(_series_source(sp, i, 3), 3), i

    @pytest.mark.parametrize("defm", [MIXED_3, Deformation.constant(3, Fraction(1, 2)), _floats(MIXED_3)], ids=["mixed", "1/2", "float-mixed"])
    def test_groups_of_contents_change_no_coefficient(self, monkeypatch, defm):
        # moves keep contents, so peeling each content alone, or a few at a
        # time, gives every coefficient of one peeling of the whole level
        def levels(words):
            monkeypatch.setattr(qfock.fock, "PEEL_WORDS", words)
            sp = FockSpace(defm, 7)
            return [_series_level(sp, i, m).items() for m in range(4) for i in range(1, 4)]

        whole = levels(3**7)
        assert levels(1) == whole
        assert levels(100) == whole
