import math

import mpmath as mp
import pytest
from gram_oracles import (
    dense_domination_residual,
    dense_right_annihilation_norm,
    projected_domination_sharp,
)

from qfock import (
    GramSingularError,
    analytic_constants,
    gram_domination_residual,
    haagerup_residual,
    projected_domination,
    right_annihilation_norm,
    series_tail,
)


class TestGramDomination:
    def test_free_point_exactly_flat(self):
        for m in range(4):
            assert abs(gram_domination_residual(m, 0.0, 2)) < 1e-12

    def test_half_holds_at_low_levels(self):
        for m in range(3):
            assert gram_domination_residual(m, 0.5, 2) >= -1e-9

    def test_strong_negative_holds_through_level_six(self):
        for m in range(6):
            assert gram_domination_residual(m, -0.9, 2) >= -1e-9

    def test_half_fails_from_level_three(self):
        # The full tensor comparison with this constant is genuinely violated
        # here: G_{m+1} >= w(q) (G_m (x) 1) would bound every vector, while the
        # annihilation-norm argument only needs it after projecting the last
        # letter onto one index. That projected comparison holds with a wide
        # margin (test_projected_comparison_holds).
        assert gram_domination_residual(3, 0.5, 2) < -1e-3

    @pytest.mark.parametrize("q0", [0.5, -0.9])
    def test_projected_comparison_holds(self, q0):
        w, _ = analytic_constants(q0)
        for m in range(6):
            assert projected_domination_sharp(m, q0, 2) >= w - 1e-9


AGREE = [
    pytest.param(d, q0, id=f"d{d}-q{q0}") for d in (2, 3) for q0 in (0.5, -0.9, 0.9)
]


@pytest.mark.parametrize("d,q0", AGREE)
class TestBlockwiseAgainstDense:
    """The per-block eigenproblems against the same checks solved on the
    dense d^n x d^n Gram matrices."""

    def test_full_tensor_residual(self, d, q0):
        for m in range(5):
            got = gram_domination_residual(m, q0, d)
            assert got == pytest.approx(dense_domination_residual(m, q0, d), rel=1e-10), m

    def test_right_annihilation_norm(self, d, q0):
        level = 6 if d == 2 else 5
        for i in (1, d):
            got = right_annihilation_norm(i, q0, d, level)
            assert got == pytest.approx(dense_right_annihilation_norm(i, q0, d, level), rel=1e-10), i

    def test_projected_domination_is_the_schur_complement_constant(self, d, q0):
        for m in range(5):
            got = projected_domination(m, q0, d)
            assert got == pytest.approx(projected_domination_sharp(m, q0, d), rel=1e-10), m

    def test_norm_squared_is_inverse_of_smallest_projected_constant(self, d, q0):
        level = 5
        smallest = min(projected_domination(m, q0, d) for m in range(level))
        assert right_annihilation_norm(1, q0, d, level) ** 2 == pytest.approx(1 / smallest, rel=1e-10)


class TestRightAnnihilationNorm:
    def test_free_point_partial_isometry(self):
        assert abs(right_annihilation_norm(1, 0.0, 2, 5) - 1.0) < 1e-9

    @pytest.mark.parametrize("q0", [0.5, -0.9])
    def test_bound_respected(self, q0):
        w, _ = analytic_constants(q0)
        assert right_annihilation_norm(1, q0, 2, 6) <= 1.0 / math.sqrt(w) + 1e-9

    def test_monotone_in_truncation(self):
        values = [right_annihilation_norm(1, 0.5, 2, L) for L in (3, 4, 5)]
        assert values[0] <= values[1] + 1e-12
        assert values[1] <= values[2] + 1e-12

    def test_singular_gram_reported_distinctly(self):
        with pytest.raises(GramSingularError):
            right_annihilation_norm(1, 1.0, 2, 3)

    def test_letter_guard(self):
        with pytest.raises(ValueError):
            right_annihilation_norm(3, 0.5, 2, 3)


class TestHaagerup:
    def test_level_zero_is_tight_at_free_point(self):
        assert abs(haagerup_residual(0, 0.0, 2, trials=5, seed=0)) < 1e-9

    def test_level_zero_negative_otherwise(self):
        assert haagerup_residual(0, 0.5, 2, trials=5, seed=0) < 0

    def test_free_point_level_two(self):
        assert haagerup_residual(2, 0.0, 2, trials=20, seed=1) <= 1e-12

    def test_desk_scale(self):
        assert haagerup_residual(3, 0.5, 2, trials=50, seed=0) <= 1e-12

    def test_deterministic_given_seed(self):
        a = haagerup_residual(2, 0.5, 2, trials=10, seed=3)
        b = haagerup_residual(2, 0.5, 2, trials=10, seed=3)
        assert a == b


class TestSeriesTails:
    def test_free_point_vanishes(self):
        for series in ("xi", "fisher", "gibbs", "lipschitz"):
            rep = series_tail(series, 2, 0.0, 2)
            assert rep.bound == 0

    def test_monotone_in_truncation(self):
        t6 = series_tail("xi", 6, 0.5, 2)
        t8 = series_tail("xi", 8, 0.5, 2)
        assert t8.bound < t6.bound

    def test_strong_deformation_finite(self):
        rep = series_tail("xi", 20, 0.9, 2)
        assert rep.is_finite()
        assert rep.bound > 0

    @pytest.mark.parametrize("series", ["xi", "fisher", "gibbs", "lipschitz"])
    @pytest.mark.parametrize("q0", [0.5, -0.9])
    def test_all_series_finite_and_monotone(self, series, q0):
        lo = series_tail(series, 3, q0, 2)
        hi = series_tail(series, 5, q0, 2)
        assert lo.is_finite() and hi.is_finite()
        assert hi.bound <= lo.bound

    def test_gibbs_norm_parameter_recorded(self):
        rep = series_tail("gibbs", 3, 0.5, 2)
        assert rep.params["op_norm_bound"] == pytest.approx(2.0 / math.sqrt(0.5))
        custom = series_tail("gibbs", 3, 0.5, 2, op_norm_bound=3.0)
        assert custom.params["op_norm_bound"] == 3.0

    def test_unknown_series_rejected(self):
        with pytest.raises(ValueError):
            series_tail("nope", 2, 0.5, 2)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            series_tail("xi", 2, 1.0, 2)

    def test_huge_but_finite_tail_is_representable(self):
        rep = series_tail("lipschitz", 0, 0.9, 2)
        assert rep.is_finite()
        assert rep.bound > mp.mpf(10) ** 300  # far beyond double range
        assert rep.bound_float == math.inf
