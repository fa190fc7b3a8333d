import random
from fractions import Fraction
from itertools import product

import pytest
from apply_oracles import apply_by_monomials, commutator_by_letters, wick_by_words
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock import (
    FORMAL_Q,
    Deformation,
    FockSpace,
    FockVector,
    NCPoly,
    NCTensorPoly,
    QPoly,
    QRat,
    TruncationError,
    conjugate_expansions,
    conjugate_series,
    cyclic_commutator,
    cyclic_derivative,
    diff_partition,
    diff_quotient,
    duality_residual,
    gibbs_gradient_residuals,
    gibbs_potential,
    hermite,
    poly_apply,
    vector_to_poly,
    wick_partition,
    wick_recursive,
)

Q = FORMAL_Q
e = FockVector.basis


class TestWick:
    def test_unit_and_letters(self, sym2):
        assert wick_recursive(sym2, ()) == NCPoly.one()
        assert wick_recursive(sym2, (1,)) == NCPoly.letter(1)
        assert wick_partition(sym2, ()) == NCPoly.one()

    def test_two_letters(self, sym2):
        for j2 in (1, 2):
            for j1 in (1, 2):
                want = NCPoly({(j2, j1): 1})
                if j2 == j1:
                    want = want + NCPoly({(): -1})
                assert wick_recursive(sym2, (j2, j1)) == want

    def test_three_letters(self, sym2):
        for j3 in (1, 2):
            for j2 in (1, 2):
                for j1 in (1, 2):
                    want = NCPoly({(j3, j2, j1): 1})
                    if j2 == j1:
                        want = want - NCPoly.letter(j3)
                    if j3 == j2:
                        want = want - NCPoly.letter(j1)
                    if j3 == j1:
                        want = want - NCPoly.letter(j2).scaled(Q)
                    assert wick_recursive(sym2, (j3, j2, j1)) == want

    def test_strategies_agree_symbolic(self, sym2):
        for n in range(7):
            for w in product((1, 2), repeat=n):
                assert wick_partition(sym2, w) == wick_recursive(sym2, w)

    def test_one_variable_is_hermite(self, sym1):
        for n in range(9):
            assert wick_recursive(sym1, (1,) * n) == hermite(n, Q)

    def test_free_case_degree_four(self):
        sp = FockSpace.with_scalar_q(2, Fraction(0), level=5)
        got = wick_partition(sp, (1, 1, 1, 1))
        assert got == NCPoly({(1,) * 4: 1, (1, 1): -3, (): 1})

    def test_recursion_refuses_words_beyond_level(self):
        sp = FockSpace.with_scalar_q(2, Fraction(1, 2), level=2)
        with pytest.raises(TruncationError):
            wick_recursive(sp, (1, 2, 1, 2, 1, 2, 1))
        assert not sp._memos["wick"]

    def test_vacuum_evaluation_inverts(self, sym2):
        for n in range(5):
            for w in product((1, 2), repeat=n):
                assert poly_apply(sym2, wick_recursive(sym2, w), sym2.vacuum()) == e(w)


MIXED = Deformation([[Fraction(1, 3), Fraction(2, 5)], [Fraction(2, 5), Fraction(-3, 7)]])


class TestVectorToPoly:
    def test_single_letter(self, sym2):
        assert vector_to_poly(sym2, e((2,))) == NCPoly.letter(2)

    def test_round_trip_random(self, half2):
        rng = random.Random(11)
        words = [w for n in range(5) for w in half2.words(n)]
        for _ in range(6):
            p = NCPoly(
                {
                    w: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for w in rng.sample(words, 8)
                }
            )
            v = poly_apply(half2, p, half2.vacuum())
            assert vector_to_poly(half2, v) == p

    def test_one_variable_hermite(self, sym1):
        for n in range(9):
            assert vector_to_poly(sym1, e((1,) * n)) == hermite(n, Q)

    @staticmethod
    def _vectors(space, coeff):
        """The zero vector, the conjugate variable xi_1 to M = 2 (odd
        words), and random vectors of even words and of both parities, each
        with a vacuum coefficient."""
        rng = random.Random(17)
        xi = conjugate_series(space, 1, 2)
        yield FockVector()
        yield FockVector({w: coeff(c) for w, c in xi.items()}) if space.deformation.is_float else xi
        for lengths in ((0, 2, 4, 6), range(7)):
            words = [w for n in lengths if n for w in space.words(n)]
            picked = rng.sample(words, 24)
            yield FockVector({(): coeff(Fraction(3, 7)), **{w: coeff(Fraction(rng.randint(-9, 9), rng.randint(1, 6))) for w in picked}})

    @pytest.mark.parametrize(
        "defm",
        [Deformation.constant(2, Fraction(1, 2)), MIXED, Deformation.constant(2, Q)],
        ids=["half", "mixed", "formal"],
    )
    def test_trie_pass_equals_word_by_word(self, defm):
        sp = FockSpace(defm, 6)
        for v in self._vectors(sp, lambda c: c):
            assert vector_to_poly(sp, v) == wick_by_words(sp, v)

    @pytest.mark.parametrize("entries", [[[0.9, 0.9], [0.9, 0.9]], [[float(x) for x in row] for row in MIXED.entries]], ids=["0.9", "mixed"])
    def test_float_trie_pass_within_relative_1e12(self, entries):
        sp = FockSpace(Deformation(entries), 6)
        for v in self._vectors(sp, float):
            got, want = vector_to_poly(sp, v), wick_by_words(sp, v)
            assert (got - want).max_coeff_magnitude() <= 1e-12 * want.max_coeff_magnitude()
            assert bool(got) == bool(want)


COMMUTATOR_CASES = [
    (Deformation.constant(2, Fraction(1, 2)), 2),
    (MIXED, 3),
    (Deformation.constant(3, Fraction(-1, 3)), 2),
]


def random_poly(rng, d, degree, size, coeff):
    words = [w for n in range(degree + 1) for w in product(range(1, d + 1), repeat=n)]
    return NCPoly({w: coeff(rng) for w in rng.sample(words, min(size, len(words)))})


def random_vector(rng, d, top, size, coeff):
    words = [w for n in range(top + 1) for w in product(range(1, d + 1), repeat=n)]
    return FockVector({w: coeff(rng) for w in rng.sample(words, min(size, len(words)))})


def rational(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def formal(rng):
    return rational(rng) * rng.choice([1, Q, 1 - Q * Q])


def counting_gaussian(monkeypatch):
    """Patch FockSpace.gaussian to count its calls; returns the counter."""
    calls = []
    original = FockSpace.gaussian

    def gaussian(self, i, v):
        calls.append(i)
        return original(self, i, v)

    monkeypatch.setattr(FockSpace, "gaussian", gaussian)
    return calls


class TestPolyApply:
    """Horner's scheme against one chain of field operators per monomial."""

    @pytest.mark.parametrize(
        "defm, coeff",
        [
            (Deformation.constant(2, Fraction(1, 2)), rational),
            (Deformation.constant(3, Fraction(-1, 3)), rational),
            (MIXED, rational),
            (Deformation.constant(2, Q), formal),
        ],
        ids=["half-d2", "third-d3", "mixed-d2", "symbolic-d2"],
    )
    def test_matches_monomial_oracle(self, defm, coeff):
        sp = FockSpace(defm, level=6)
        rng = random.Random(17)
        for degree, top in ((0, 3), (2, 0), (3, 2), (4, 2), (5, 1)):
            for _ in range(3):
                p = random_poly(rng, defm.d, degree, 12, coeff)
                v = random_vector(rng, defm.d, top, 5, coeff)
                assert poly_apply(sp, p, v) == apply_by_monomials(sp, p, v)
                assert poly_apply(sp, p, sp.vacuum()) == apply_by_monomials(sp, p, sp.vacuum())

    @pytest.mark.parametrize("defm", [Deformation.constant(2, 0.5), MIXED.as_float()], ids=["half-d2", "mixed-d2"])
    def test_float_close_to_monomial_oracle(self, defm):
        sp = FockSpace(defm, level=7)
        rng = random.Random(5)
        for degree, top in ((3, 2), (5, 2), (7, 0)):
            for _ in range(3):
                p = random_poly(rng, defm.d, degree, 20, lambda r: r.uniform(-1, 1))
                v = random_vector(rng, defm.d, top, 5, lambda r: r.uniform(-1, 1))
                want = apply_by_monomials(sp, p, v)
                gap = (poly_apply(sp, p, v) - want).max_coeff_magnitude()
                assert gap <= 1e-12 * want.max_coeff_magnitude()

    def test_one_field_operator_per_distinct_prefix(self, monkeypatch):
        sp = FockSpace.with_scalar_q(2, Fraction(1, 2), level=6)
        rng = random.Random(3)
        calls = counting_gaussian(monkeypatch)
        for degree in range(6):
            p = random_poly(rng, 2, degree, 15, rational)
            prefixes = {w[:k] for w, _ in p.items() for k in range(1, len(w) + 1)}
            calls.clear()
            poly_apply(sp, p, e((1,)))
            assert len(calls) == len(prefixes)
        # the gibbs polynomial at d=2, M=3: 318 prefixes, where one chain
        # per monomial made 2,166 applications
        sp = FockSpace.with_scalar_q(2, Fraction(1, 2), level=7)
        expansions = conjugate_expansions(sp, 3)
        calls.clear()
        cyclic_commutator(sp, 3, expansions)
        assert len(calls) == 318

    def test_refuses_up_front_beyond_truncation(self, monkeypatch):
        sp = FockSpace.with_scalar_q(2, Fraction(1, 2), level=5)
        p = NCPoly({(1, 2, 1): 1, (2,): Fraction(1, 3), (): 2})
        calls = counting_gaussian(monkeypatch)
        with pytest.raises(TruncationError, match="degree-3 polynomial on a level-3 vector exceeds level 5"):
            poly_apply(sp, p, FockVector({(2, 2, 1): 1, (): 1}))
        assert not calls
        # degree plus top level equal to the truncation is the largest allowed
        v = FockVector({(2, 1): 1, (1,): Fraction(-1, 2)})
        got = poly_apply(sp, p, v)
        assert max(len(w) for w, _ in got.items()) == 5
        assert got == apply_by_monomials(sp, p, v)


class TestDiffQuotient:
    def test_letter(self):
        assert diff_quotient(1, NCPoly.letter(1)) == NCTensorPoly({((), ()): 1})
        assert diff_quotient(1, NCPoly.letter(2)).is_zero()

    def test_leibniz_single_match(self):
        got = diff_quotient(1, NCPoly({(2, 1): 1}))
        assert got == NCTensorPoly({(((2,), ())): 1})

    def test_leibniz_two_matches(self):
        got = diff_quotient(1, NCPoly({(1, 1): 1}))
        assert got == NCTensorPoly({((), (1,)): 1, ((1,), ()): 1})

    def test_printed_three_letter_formula(self, sym2):
        for i in (1, 2):
            for j3 in (1, 2):
                for j2 in (1, 2):
                    for j1 in (1, 2):
                        want = NCTensorPoly()
                        if i == j3:
                            for u, c in wick_recursive(sym2, (j2, j1)).items():
                                want = want + NCTensorPoly({((), u): c})
                        if i == j2:
                            want = want + NCTensorPoly({((j3,), (j1,)): 1})
                        if i == j1:
                            for u, c in wick_recursive(sym2, (j3, j2)).items():
                                want = want + NCTensorPoly({(u, ()): c})
                        if i == j2 and j3 == j1:
                            want = want + NCTensorPoly({((), ()): -Q})
                        assert diff_partition(sym2, i, (j3, j2, j1)) == want

    def test_strategies_agree_symbolic(self, sym2):
        for n in range(7):
            for w in product((1, 2), repeat=n):
                for i in (1, 2):
                    lhs = diff_partition(sym2, i, w)
                    rhs = diff_quotient(i, wick_recursive(sym2, w))
                    assert lhs == rhs, (i, w)

    def test_free_case_matches_leibniz(self):
        sp = FockSpace.with_scalar_q(2, Fraction(0), level=4)
        for w in product((1, 2), repeat=2):
            for i in (1, 2):
                assert diff_partition(sp, i, w) == diff_quotient(
                    i, wick_recursive(sp, w)
                )


class TestCyclicDerivative:
    def test_square(self):
        assert cyclic_derivative(1, NCPoly({(1, 1): 1})) == NCPoly({(1,): 2})

    def test_mixed_product(self):
        assert cyclic_derivative(1, NCPoly({(1, 2): 1})) == NCPoly.letter(2)

    def test_rotation(self):
        got = cyclic_derivative(2, NCPoly({(1, 2, 1): 1}))
        assert got == NCPoly({(1, 1): 1})


class TestDuality:
    def test_empty_word(self, half2):
        assert duality_residual(half2, (), 1, conjugate_series(half2, 1, 2)) == 0

    def test_single_letter_pairs_to_one(self, half2):
        xi = conjugate_series(half2, 1, 2)
        v = half2.gaussian(1, half2.vacuum())
        assert half2.inner(xi, v) == 1
        assert duality_residual(half2, (1,), 1, xi) == 0

    def test_all_short_monomials(self, half2):
        xis = {i: conjugate_series(half2, i, 3) for i in (1, 2)}
        for n in range(5):
            for u in product((1, 2), repeat=n):
                for i in (1, 2):
                    assert duality_residual(half2, u, i, xis[i]) == 0, (i, u)


def gibbs_residuals(space, m):
    expansions = conjugate_expansions(space, m)
    return gibbs_gradient_residuals(space, m, gibbs_potential(expansions), expansions)


class TestGibbs:
    def test_free_case_quadratic(self):
        sp = FockSpace.with_scalar_q(2, Fraction(0), level=7)
        V = gibbs_potential(conjugate_expansions(sp, 2))
        assert V == NCPoly({(1, 1): Fraction(1, 2), (2, 2): Fraction(1, 2)})

    def test_gradient_matches_one_variable(self):
        sp = FockSpace.with_scalar_q(1, Fraction(1, 2), level=9)
        residuals = gibbs_residuals(sp, 2)
        assert set(residuals) == set(range(5))
        assert all(v == 0 for v in residuals.values())

    def test_gradient_matches_two_variables(self, half2):
        residuals = gibbs_residuals(half2, 2)
        assert all(v == 0 for v in residuals.values())

    @pytest.mark.parametrize("defm,m", COMMUTATOR_CASES, ids=["half-d2", "mixed-d2", "third-d3"])
    def test_cyclic_commutator_exact_below_truncation(self, defm, m):
        sp = FockSpace(defm, level=2 * m + 1)
        commutator = cyclic_commutator(sp, m, conjugate_expansions(sp, m))
        assert {len(w) for w, _ in commutator.items()} == {2 * m + 2}

    @pytest.mark.parametrize("defm,m", COMMUTATOR_CASES, ids=["half-d2", "mixed-d2", "third-d3"])
    def test_cyclic_commutator_matches_oracle(self, defm, m):
        sp = FockSpace(defm, level=2 * m + 1)
        expansions = conjugate_expansions(sp, m)
        assert cyclic_commutator(sp, m, expansions) == commutator_by_letters(sp, m, expansions)

    def test_cyclic_commutator_matches_oracle_off_the_gradient(self, half2):
        # xi_1 bent by e_222 / 10 is no cyclic gradient, so low levels survive
        expansions = conjugate_expansions(half2, 3)
        expansions[1] = expansions[1] + vector_to_poly(half2, FockVector({(2, 2, 2): Fraction(1, 10)}))
        got = cyclic_commutator(half2, 3, expansions)
        assert got == commutator_by_letters(half2, 3, expansions)
        assert any(len(w) <= 7 for w, _ in got.items())

    def test_degree_grading(self, half2):
        xi_degrees = set()
        for i in (1, 2):
            p = vector_to_poly(half2, conjugate_series(half2, i, 2))
            assert p.coeff(()) == 0  # no constant term ever appears
            xi_degrees |= {len(w) for w, _ in p.items()}
        V = gibbs_potential(conjugate_expansions(half2, 2))
        v_degrees = {len(w) for w, _ in V.items()}
        assert v_degrees == {k + 1 for k in xi_degrees}


class TestAlgebra:
    def test_ncpoly_product_concatenates(self):
        a = NCPoly({(1,): 1, (): 2})
        b = NCPoly({(2,): 1})
        assert a * b == NCPoly({(1, 2): 1, (2,): 2})

    def test_tensor_flip(self):
        t = NCTensorPoly({((1,), (2,)): 1})
        assert t.flip() == NCTensorPoly({((2,), (1,)): 1})
        assert t.flip_multiply() == NCPoly({(2, 1): 1})

    def test_canonical_prunes_zeros(self):
        assert NCPoly({(1,): 0}).is_zero()
        assert NCTensorPoly({((), ()): 0}).is_zero()


WORDS = st.lists(st.integers(1, 2), max_size=3).map(tuple)
KEYS = {FockVector: WORDS, NCPoly: WORDS, NCTensorPoly: st.tuples(WORDS, WORDS)}
# small integers among the floats make cancelling sums likely
COEFFS = {
    "fraction": st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    "float": st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3, allow_nan=False)),
}


def word_maps(kind, field):
    return st.dictionaries(KEYS[kind], COEFFS[field], max_size=6).map(kind)


@pytest.mark.parametrize("field", sorted(COEFFS))
@pytest.mark.parametrize("kind", list(KEYS), ids=lambda k: k.__name__)
class TestWordMapAlgebra:
    """The algebra that Fock vectors, polynomials and tensor polynomials
    share, on exact and on float coefficients."""

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_combination_is_the_chain_of_sums(self, kind, field, data):
        terms = data.draw(st.lists(st.tuples(word_maps(kind, field), COEFFS[field]), max_size=5))
        chain = kind()
        for m, s in terms:
            chain = chain + m.scaled(s)
        got = kind.combination(terms)
        assert type(got) is kind
        # the same coefficients, bit for bit, in the same order
        assert list(got.items()) == list(chain.items())

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_cancelled_keys_are_dropped(self, kind, field, data):
        m = data.draw(word_maps(kind, field))
        s = data.draw(COEFFS[field].filter(bool))
        for zero in (m - m, m + (-m), kind.combination([(m, s), (m, -s)]), m.scaled(0)):
            assert zero.is_zero() and not zero and len(zero) == 0
            assert zero == kind()
        for key, c in m.items():
            rest = m + kind({key: -c})
            assert dict(rest.items()) == {k: v for k, v in m.items() if k != key}

    def test_rejects_attribute_assignment(self, kind, field):
        x = kind()
        for name in ("_c", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, {})
        assert not hasattr(x, "__dict__")


_POLYS = st.lists(COEFFS["fraction"], max_size=3).map(lambda cs: QPoly(tuple(cs)))
# every coefficient field a word map meets: exact, float and formal
FIELDS = {**COEFFS, "qpoly": _POLYS, "qrat": st.builds(QRat, _POLYS, _POLYS.filter(bool))}


@pytest.mark.parametrize("field", sorted(FIELDS))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_equal_exactly_when_the_difference_is_zero(field, data):
    """The agreement gates rest on this: two canonical word maps are equal
    exactly when their difference is the zero map."""
    coeffs = FIELDS[field]
    a = data.draw(st.dictionaries(WORDS, coeffs, max_size=5))
    b = dict(data.draw(st.dictionaries(WORDS, coeffs, max_size=2)))
    for w, c in a.items():
        how = data.draw(st.sampled_from(("keep", "cancel", "change", "drop")))
        if how == "keep":
            b[w] = c
        elif how == "cancel":  # the same value again, through a cancelling pair
            x = data.draw(coeffs)
            b[w] = (c + x) - x
        elif how == "change":
            b[w] = data.draw(coeffs)
        else:
            b.pop(w, None)
    left, right = FockVector(a), FockVector(b)
    assert (left == right) == (left - right).is_zero() == (not left != right)


def test_nan_coefficient_has_nan_magnitude():
    nan = float("nan")
    for coeffs in ({(1,): nan, (2,): 1e-3}, {(2,): 1e-3, (1,): nan}, {(1,): 1e-3, (2,): nan, (3,): 2.0}):
        m = FockVector(coeffs).max_coeff_magnitude()
        assert m != m and not m <= 1e-10


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_types_are_unequal_on_the_same_dict(data):
    words = data.draw(st.dictionaries(WORDS, COEFFS["fraction"], max_size=4))
    v, p = FockVector(words), NCPoly(words)
    assert dict(v.items()) == dict(p.items())
    assert v != p and not v == p
    with pytest.raises(TypeError):
        v + p
    pairs = data.draw(st.dictionaries(KEYS[NCTensorPoly], COEFFS["fraction"], max_size=4))
    t, p = NCTensorPoly(pairs), NCPoly(pairs)
    assert dict(t.items()) == dict(p.items())
    assert t != p and not t == p
