import math

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg

from qfock import (
    FockSpace,
    GramSingularError,
    analytic_constants,
    gram_domination_residual,
    haagerup_residual,
    right_annihilation_norm,
    series_tail,
)


def projected_domination_sharp(m, q0, d):
    """Sharp constant for the rank-one-projected comparison: the largest c
    with c * (G_m (x) P_letter) <= G_{m+1}, via a Schur complement on the
    block of words ending in the projected letter."""
    space = FockSpace.with_scalar_q(d, float(q0), level=m + 1)
    big = np.array(space.gram(m + 1), dtype=float)
    small = np.array(space.gram(m), dtype=float)
    keep = [k for k in range(d ** (m + 1)) if k % d == 0]
    drop = [k for k in range(d ** (m + 1)) if k % d != 0]
    if drop:
        schur = big[np.ix_(keep, keep)] - big[np.ix_(keep, drop)] @ np.linalg.solve(
            big[np.ix_(drop, drop)], big[np.ix_(drop, keep)]
        )
    else:
        schur = big
    return float(scipy.linalg.eigh(schur, small, eigvals_only=True)[0])


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
