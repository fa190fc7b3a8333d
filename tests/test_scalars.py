import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poly_oracles import euclid_gcd, reduce_ratio, schoolbook_mul
from qfock import (
    FORMAL_Q,
    Deformation,
    QPoly,
    QRat,
    analytic_constants,
    float_eval,
    gauss_binom_coeffs,
    magnitude,
    q_binom,
    q_factorial,
    q_falling,
    q_int,
)
from qfock.scalars import _eval_int, _heu_gcd, _kronecker_mul, _xi_adic

Q = FORMAL_Q


def poly(*coeffs):
    return QPoly([Fraction(c) for c in coeffs])


class TestQInt:
    def test_empty_sum(self):
        assert q_int(0, Q) == 0

    def test_one(self):
        assert q_int(1, Q) == 1

    def test_three(self):
        assert q_int(3, Q) == poly(1, 1, 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            q_int(-1, Q)

    def test_classical_and_free_specializations(self):
        for n in range(13):
            assert q_int(n, Q).eval_at(Fraction(1)) == n if n else q_int(n, Q) == 0
            if n >= 1:
                assert q_int(n, Q).eval_at(Fraction(0)) == 1

    def test_splitting_law(self):
        # [m+n] = [m] + q^m [n]
        for m in range(6):
            for n in range(6):
                assert q_int(m + n, Q) == q_int(m, Q) + Q**m * q_int(n, Q)


class TestFactorialFamily:
    def test_factorial_two(self):
        assert q_factorial(2, Q) == poly(1, 1)

    def test_falling(self):
        assert q_falling(4, 2, Q) == q_int(4, Q) * q_int(3, Q)

    def test_binom_basic(self):
        assert q_binom(2, 1, Q) == poly(1, 1)

    def test_falling_rejects_bad_k(self):
        with pytest.raises(ValueError):
            q_falling(3, 4, Q)

    def test_binom_rejects_bad_k(self):
        with pytest.raises(ValueError):
            q_binom(3, 5, Q)

    def test_binom_matches_factorial_ratio(self):
        q0 = Fraction(1, 3)
        for n in range(8):
            for k in range(n + 1):
                expect = q_factorial(n, q0) / (q_factorial(k, q0) * q_factorial(n - k, q0))
                assert q_binom(n, k, q0) == expect

    def test_gaussian_positivity(self):
        for n in range(11):
            for k in range(n + 1):
                assert all(
                    isinstance(c, int) and c >= 0 for c in gauss_binom_coeffs(n, k)
                )


SCALAR_MODES = [
    FORMAL_Q,
    QRat(poly(0, 1), poly(1, 1)),  # q / (1 + q)
    Fraction(1, 3),
    -0.5,
]


class TestStaysInQRing:
    """The q-integer quantities carry q's own type, even for empty sums and products."""

    @given(st.sampled_from(SCALAR_MODES), st.integers(0, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_result_type_is_q_type(self, q, n, data):
        k = data.draw(st.sampled_from(sorted({0, n, n // 2})))
        for value in (
            q_int(n, q),
            q_factorial(n, q),
            q_falling(n, k, q),
            q_binom(n, k, q),
        ):
            assert type(value) is type(q)

    def test_negative_float_empty_sum_is_positive_zero(self):
        assert math.copysign(1.0, q_int(0, -0.5)) == 1.0


class TestPolyRing:
    def test_promotion_roundtrip(self):
        a = poly(1, 2, 0, 3)
        b = poly(-1, 1)
        ratio = a / b
        assert isinstance(ratio, QRat)
        assert ratio * b == a

    def test_division_by_constant_stays_polynomial(self):
        assert poly(2, 4) / 2 == poly(1, 2)

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            poly(1) / QPoly()

    def test_qrat_reduction_canonical(self):
        r1 = QRat(poly(0, 1, 1), poly(0, 0, 1, 1))  # (q+q^2)/(q^2+q^3) = 1/q
        r2 = QRat(poly(1), poly(0, 1))
        assert r1 == r2

    @given(
        st.lists(st.integers(-4, 4), max_size=4),
        st.lists(st.integers(-4, 4), max_size=4),
        st.lists(st.integers(-4, 4), max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, a, b, c):
        pa, pb, pc = poly(*a), poly(*b), poly(*c)
        assert pa * (pb + pc) == pa * pb + pa * pc
        assert (pa + pb) * pc == pa * pc + pb * pc
        assert pa * pb == pb * pa
        assert (pa - pa).is_zero()

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=4),
           st.lists(st.integers(-4, 4), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_field_inverse(self, a, b):
        pa, pb = poly(*a), poly(*b)
        if pa.is_zero() or pb.is_zero():
            return
        r = pa / pb
        assert r * pb == pa
        assert (r / r) == 1

    def test_refuses_floats(self):
        with pytest.raises(TypeError):
            poly(1, 1) + 0.5  # type: ignore[operator]


def _fraction_polys(max_degree):
    """Integer or Fraction coefficient lists, lowest degree first: zero,
    constants, negative leading coefficients and up to max_degree."""
    ints = st.integers(-(2**10), 2**10)
    fracs = st.fractions(min_value=-64, max_value=64, max_denominator=48)
    return st.one_of(
        st.lists(ints, max_size=max_degree + 1),
        st.lists(fracs, max_size=max_degree + 1),
    ).map(lambda cs: [Fraction(c) for c in cs])


def _monic(ints):
    return tuple(Fraction(c, ints[-1]) for c in ints)


class TestIntegerKernels:
    """Kronecker products and GCDHEU against the Fraction oracles in
    poly_oracles (schoolbook product, Euclid's remainder sequence)."""

    @given(_fraction_polys(60), _fraction_polys(60))
    @settings(max_examples=150, deadline=None)
    def test_kronecker_product_matches_schoolbook(self, a, b):
        pa, pb = QPoly(a), QPoly(b)
        assert (pa * pb).coeffs == schoolbook_mul(a, b)
        if pa and pb:
            assert tuple(_kronecker_mul(pa._ints, pb._ints)) == tuple(
                int(c) for c in schoolbook_mul(pa._ints, pb._ints)
            )

    @given(_fraction_polys(30), _fraction_polys(30), _fraction_polys(30))
    @settings(max_examples=100, deadline=None)
    def test_gcd_and_cofactors_match_euclid(self, a, b, c):
        f, g = QPoly(schoolbook_mul(a, c)), QPoly(schoolbook_mul(b, c))
        assume(f and g)
        h, cf, cg = _heu_gcd(f._ints, g._ints)
        assert _monic(h) == euclid_gcd(f.coeffs, g.coeffs)
        assert schoolbook_mul(h, cf) == tuple(map(Fraction, f._ints))
        assert schoolbook_mul(h, cg) == tuple(map(Fraction, g._ints))
        assert h[-1] > 0 and cf[-1] > 0 and cg[-1] > 0

    @given(_fraction_polys(30), _fraction_polys(30), _fraction_polys(30))
    @settings(max_examples=100, deadline=None)
    def test_qrat_matches_euclid_reduction(self, a, b, c):
        num, den = schoolbook_mul(a, c), schoolbook_mul(b, c)
        assume(den)
        r = QRat(QPoly(num), QPoly(den))
        assert (r.num.coeffs, r.den.coeffs) == reduce_ratio(num, den)

    def test_common_factor_is_cancelled(self):
        # (q^2 - 1) / (q^2 + 2q + 1) = (q - 1) / (q + 1)
        r = QRat(poly(-1, 0, 1), poly(1, 2, 1))
        assert (r.num, r.den) == (poly(-1, 1), poly(1, 1))

    @pytest.mark.parametrize(
        "f, g, value_gcd, read_back",
        [
            # 3 - 2q (primitive form 2q - 3) and 2q + q^2: at the first point
            # xi = 2 * min(3, 2) + 29 = 33 the values share 21, which reads
            # back as q - 12 and divides neither
            ((-3, 2), (0, 2, 1), 21, [-12, 1]),
            # q - 3 and 3q^2 + 3q - 4 at xi = 35: the values share 32, which
            # reads back as q - 3; it divides the first but not the second
            ((-3, 1), (-4, 3, 3), 32, [-3, 1]),
        ],
    )
    def test_spurious_integer_factor_makes_xi_grow(self, f, g, value_gcd, read_back):
        xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
        assert math.gcd(_eval_int(f, xi), _eval_int(g, xi)) == value_gcd
        assert _xi_adic(value_gcd, xi) == read_back
        # the pairs are coprime: the grown point finds gcd 1
        assert _heu_gcd(f, g) == ((1,), f, g)
        r = QRat(QPoly(f), QPoly(g))
        assert (r.num, r.den) == (QPoly(f) / g[-1], QPoly(g) / g[-1])


class TestFloatEval:
    def test_rational_single_rounding(self):
        x = Fraction(1, 3)
        assert float_eval(x) == float(x)

    def test_poly_exact_point(self):
        p = poly(1, 1, 1)
        assert float_eval(p, Fraction(1, 2)) == float(Fraction(7, 4))

    def test_magnitude_zero_iff_zero(self):
        assert magnitude(QPoly()) == 0
        assert magnitude(poly(0, -3, 2)) == 3
        assert magnitude(QRat(poly(0, 1), poly(1, 1))) > 0


class TestAnalyticConstants:
    def test_free_point(self):
        assert analytic_constants(0.0) == (1.0, 1.0)

    def test_against_direct_products(self):
        w, c_const = analytic_constants(0.5)
        prod_w = 1.0
        prod_c = 1.0
        for k in range(1, 201):
            prod_w *= (1 - 0.5**k) / (1 + 0.5**k)
            prod_c *= 1 - 0.5**k
        assert abs(w * w * (1 - 0.25) - prod_w) < 1e-12
        assert abs(1.0 / c_const - prod_c) < 1e-12

    def test_sign_independence(self):
        assert analytic_constants(-0.5) == analytic_constants(0.5)
        assert analytic_constants(-0.9) == analytic_constants(0.9)

    def test_rejects_unit_disk_boundary(self):
        with pytest.raises(ValueError):
            analytic_constants(1.0)
        with pytest.raises(ValueError):
            analytic_constants(-1.2)

    @pytest.mark.parametrize(
        "x, w, c_const",
        [
            (0.5, "0x1.9b83a102d9b6cp-2", "0x1.bb3b47fe72704p+1"),
            (0.9, "0x1.0549eca50b0a5p-14", "0x1.7bab8681ebf57p+19"),
            (0.99, "0x1.3bf71902e3dd2p-172", "0x1.653462606279ap+231"),
            # the w product passes below 2^-900 and is rescaled
            (0.9965, "0x1.db73ae9fbdef1p-502", "0x1.5d4c9dcfff890p+671"),
        ],
    )
    def test_bits_of_the_plain_running_products(self, x, w, c_const):
        # where the plain products stay normal doubles the rescaled ones give
        # the same bits; pinned from the plain products
        assert analytic_constants(x) == (float.fromhex(w), float.fromhex(c_const))

    @pytest.mark.parametrize("x", [0.9966, 0.9967, 0.9968, 0.997, 0.9976, 0.99767])
    def test_no_underflow_near_one(self, x):
        # the plain product of the w factors underflows from |q| ~ 0.9967;
        # w(0.9967) = 7.82e-161 (2.26e-160 from the plain product)
        with mp.workprec(120):
            q = mp.mpf(x)
            c_prod, w_prod, qk = mp.mpf(1), mp.mpf(1), q
            while qk > mp.mpf(2) ** -125:
                c_prod *= 1 - qk
                w_prod *= (1 - qk) / (1 + qk)
                qk *= q
            w_exact, c_exact = mp.sqrt(w_prod / (1 - q * q)), 1 / c_prod
        w, c_const = analytic_constants(x)
        assert w == pytest.approx(float(w_exact), rel=1e-12)
        assert c_const == pytest.approx(float(c_exact), rel=1e-12)
        if x == 0.9967:
            assert w == pytest.approx(7.82e-161, rel=1e-3)

    @pytest.mark.parametrize("x", [0.9977, 0.998, -0.999, 1 - 2.0**-40])
    def test_out_of_double_range_rejected(self, x):
        with pytest.raises(ValueError, match="0.99768"):
            analytic_constants(x)


class TestDeformation:
    def test_symmetry_required(self):
        with pytest.raises(ValueError):
            Deformation([[0, Fraction(1, 2)], [Fraction(1, 3), 0]])

    def test_constant_detection(self):
        m = Deformation.constant(3, Fraction(1, 2))
        assert m.is_constant
        assert m.constant_value == Fraction(1, 2)
        assert m.q(2, 3) == Fraction(1, 2)

    def test_from_json_fractions(self):
        m = Deformation.from_json(
            {"d": 2, "entries": [["1/3", "1/5"], ["1/5", "-1/4"]]}
        )
        assert m.q(1, 2) == Fraction(1, 5)
        assert m.q(2, 2) == Fraction(-1, 4)
        assert not m.is_constant

    def test_from_json_floats_coerce_whole_matrix(self):
        m = Deformation.from_json({"d": 2, "entries": [[0.5, 0.1], [0.1, 0.5]]})
        assert all(isinstance(v, float) for row in m.entries for v in row)

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"d": 1, "entries": [["2/3"]]}')
        assert Deformation.from_json(str(path)).q(1, 1) == Fraction(2, 3)

    def test_max_abs_float_symbolic_needs_point(self):
        m = Deformation.constant(2, FORMAL_Q)
        with pytest.raises(ValueError):
            m.max_abs_float()
        assert m.max_abs_float(0.25) == 0.25

    def test_as_float_formal_entry_needs_point(self):
        m = Deformation.constant(2, FORMAL_Q)
        with pytest.raises(ValueError):
            m.as_float()
        assert m.as_float(0.25) == Deformation.constant(2, 0.25)

    def test_as_float_rounds_rationals_once(self):
        entries = [[Fraction(1, 3), Fraction(-2, 7)], [Fraction(-2, 7), Fraction(0)]]
        floats = Deformation(entries).as_float()
        assert floats.entries == ((1 / 3, -2 / 7), (-2 / 7, 0.0))
        assert all(type(v) is float for row in floats.entries for v in row)
        assert floats.as_float() == floats

    def test_max_abs_float_values(self):
        assert Deformation([[Fraction(1, 3), Fraction(-3, 4)], [Fraction(-3, 4), Fraction(1, 2)]]).max_abs_float() == 0.75
        assert Deformation.constant(3, -0.9).max_abs_float() == 0.9
        assert Deformation.constant(2, Fraction(0)).max_abs_float() == 0.0
        assert Deformation.constant(1, FORMAL_Q**2).max_abs_float(Fraction(1, 3)) == 1 / 9
