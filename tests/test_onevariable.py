import math
from fractions import Fraction

import pytest

from qfock import (
    FORMAL_Q,
    FockSpace,
    NCPoly,
    Poly1,
    cheb,
    conjugate_series,
    hermite,
    moments,
    poly_apply,
    q_identity_residual,
    rescale_identity_residual,
    trace_cheb,
    trace_cheb_odd,
)
from qfock.onevariable import _q_identity_terms, _summation_tail, q_identity_truncation
from qfock.scalars import q_binom

Q = FORMAL_Q


class TestPolynomials:
    def test_hermite_two(self):
        assert hermite(2, Q) == Poly1([-1, 0, 1])

    def test_cheb_u_two(self):
        assert cheb("U", 2) == Poly1([-1, 0, 1])

    def test_cheb_c_two(self):
        assert cheb("C", 2) == Poly1([-2, 0, 1])

    def test_cheb_c_zero_rejected(self):
        with pytest.raises(ValueError):
            cheb("C", 0)

    def test_cheb_c_one(self):
        assert cheb("C", 1) == cheb("U", 1) == Poly1([0, 1])

    def test_free_case_hermite_is_chebyshev(self):
        for n in range(9):
            assert hermite(n, 0) == cheb("U", n)

    def test_hermite_symbolic_three(self):
        # x^3 - (1 + [2]) x
        h = hermite(3, Q)
        assert h.coeffs == Poly1([0, -(1 + (1 + Q)), 0, 1]).coeffs

    @pytest.mark.parametrize("q", [0.5, -0.5, Fraction(1, 2), Q], ids=["0.5", "-0.5", "1/2", "formal"])
    def test_hermite_stays_in_q_ring(self, q):
        # every coefficient, the zeros included, has q's own type
        for n in range(7):
            coeffs = hermite(n, q).coeffs
            assert len(coeffs) == n + 1
            assert all(type(c) is type(q) for c in coeffs), (n, coeffs)
        if isinstance(q, float):
            assert all(math.copysign(1.0, c) == 1.0 for c in hermite(3, q).coeffs if c == 0)

    def test_shifted_zero_in_coefficient_ring(self):
        assert Poly1([0.5]).shifted().coeffs == (0.0, 0.5)
        assert type(Poly1([Fraction(1, 3)]).shifted().coeffs[0]) is Fraction


class TestMoments:
    def test_odd_moments_vanish(self):
        m = moments(7, Q)
        assert all(m[k] == 0 for k in range(1, 8, 2))

    def test_fourth_moment(self):
        m = moments(4, Q)
        assert m[4] == 2 + Q


class TestTraceIdentities:
    @pytest.mark.parametrize("n", range(5))
    def test_even_rescaled_trace(self, n):
        value = trace_cheb(n)
        assert value == (-1) ** n * Q ** (n * (n + 1) // 2)

    @pytest.mark.parametrize("n", range(1, 4))
    def test_odd_rescaled_trace(self, n):
        assert trace_cheb_odd(n) == 0

    def test_rational_point(self):
        assert trace_cheb(2, Fraction(1, 3)) == Fraction(1, 27)


class TestRescaleIdentity:
    def test_degree_one_exact(self):
        for q0 in (0.3, -0.7, 0.0):
            assert rescale_identity_residual(1, q0) < 1e-15

    def test_free_point(self):
        for n in range(1, 9):
            assert rescale_identity_residual(n, 0.0) < 1e-12

    @pytest.mark.parametrize("q0", [0.5, -0.5, 0.9, -0.9])
    def test_desk_scale(self, q0):
        for n in range(1, 9):
            assert rescale_identity_residual(n, q0) < 1e-10


class TestSummationIdentity:
    def test_free_point_first_term_only(self):
        chk = q_identity_residual(0, 0.0, 5)
        assert chk.residual == 0.0
        assert chk.tail_bound == 0.0

    @pytest.mark.parametrize("q0", [0.5, -0.5])
    def test_desk_scale(self, q0):
        for m in range(6):
            chk = q_identity_residual(m, q0, 200)
            assert chk.residual < 1e-12

    def test_strong_deformation_within_reported_bounds(self):
        for m in range(4):
            chk = q_identity_residual(m, 0.9, 2000)
            assert chk.residual <= chk.tail_bound + chk.noise_bound

    def test_truncation_guard(self):
        with pytest.raises(ValueError):
            q_identity_residual(3, 0.5, 2)

    @pytest.mark.parametrize("q0", [0.0, 0.5, -0.97, 0.99, -0.999, 0.9999])
    def test_truncation_is_the_least_with_halving_terms(self, q0):
        # beyond N each term bound is at most half the one before, so the
        # tail bound is negligible; N - 1 would not do unless N = 200
        N, x = q_identity_truncation(q0), abs(q0)
        assert N >= 200
        assert x ** (N + 2) <= (1 - x) / 2
        assert N == 200 or x ** (N + 1) > (1 - x) / 2
        for m in range(4):
            chk = q_identity_residual(m, q0, N)
            assert chk.tail_bound < 1e-50
            assert chk.residual <= chk.tail_bound + chk.noise_bound

    @pytest.mark.parametrize("q0", [0.99999, -0.99999, math.nextafter(1.0, 0.0)])
    def test_truncation_refused_above_its_cap(self, q0):
        # refused at once, with its size and the |q| from which it fails
        with pytest.raises(ValueError, match=r"terms, above 1,000,000: that fails from \|q\| ~ 0\.99998"):
            q_identity_truncation(q0)

    @pytest.mark.parametrize("q0", [0.9, -0.9, 0.7, -0.7])
    def test_terms_match_exact_gaussian_binomials(self, q0):
        # the binomial carried by its ratio against the coefficient sum
        # evaluated exactly at the float's rational value; |q0| >= 0.7 keeps
        # every term to n = 40 a normal float
        q = Fraction(q0)
        for m in (0, 1, 3):
            terms = list(_q_identity_terms(m, q0, 40))
            for n, got in zip(range(m, 41), terms):
                want = q ** ((n + 1) * (n - m)) * (1 + q ** (n + 1)) * q_binom(n + m + 1, n - m, q)
                assert math.isclose(got, float(want), rel_tol=1e-12, abs_tol=0.0), (m, n)


def conjugate_cheb_series(M, q0) -> Poly1:
    """Partial sum of the first-kind Chebyshev expansion of the conjugate
    variable: sqrt(1-q) sum_{n<=M} (-1)^n q^{n(n+1)/2} C_{2n+1}(x sqrt(1-q)),
    returned as a float polynomial in the unrescaled variable."""
    if not -1 < q0 < 1:
        raise ValueError("needs |q0| < 1")
    q0 = float(q0)
    s = math.sqrt(1.0 - q0)
    out = [0.0] * (2 * M + 2)
    for n in range(M + 1):
        factor = (-1.0) ** n * q0 ** (n * (n + 1) // 2)
        c = cheb("C", 2 * n + 1)
        for k in range(2 * n + 2):
            ck = c.coeff(k)
            if ck:
                out[k] += factor * float(ck) * s ** (k + 1)
    return Poly1(out)


class TestChebyshevConjugateSeries:
    def test_free_point_is_the_variable(self):
        for M in (0, 2, 5):
            assert conjugate_cheb_series(M, 0.0) == Poly1([0.0, 1.0])

    def test_matches_graded_series_within_identity_tails(self):
        # The two partial sums truncate different expansions: the Chebyshev
        # sum carries, on each level, the binomial summation truncated at
        # n = M instead of its closed-form value, so the per-level gap is
        # bounded by the summation tail at that level.
        q0, M = 0.5, 4
        sp = FockSpace.with_scalar_q(1, q0, level=2 * M + 2)
        p = conjugate_cheb_series(M, q0)
        as_poly = NCPoly({(1,) * k: c for k, c in enumerate(p.coeffs) if c})
        gns = poly_apply(sp, as_poly, sp.vacuum())
        xi = conjugate_series(sp, 1, M)
        for m in range(M + 1):
            word = (1,) * (2 * m + 1)
            gap = abs(gns.coeff(word) - float(xi.coeff(word)))
            assert gap <= _summation_tail(m, q0, M) + 1e-10, m

    def test_leading_coefficient_approaches_one(self):
        M = 7
        q0 = 0.5
        sp = FockSpace.with_scalar_q(1, q0, level=2 * M + 2)
        p = conjugate_cheb_series(M, q0)
        as_poly = NCPoly({(1,) * k: c for k, c in enumerate(p.coeffs) if c})
        gns = poly_apply(sp, as_poly, sp.vacuum())
        assert abs(gns.coeff((1,)) - 1.0) < 1e-10

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            conjugate_cheb_series(2, 1.0)
