import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from gram_oracles import (
    dense_domination_residual,
    dense_haagerup_residual,
    dense_right_annihilation_norm,
    projected_domination_sharp,
)
from tail_oracles import closed_form_terms, context_tail, context_terms, fisher_remainder_above
from threads import together

import qfock
from qfock import (
    FORMAL_Q,
    Deformation,
    FockSpace,
    GramSingularError,
    analytic_constants,
    gram_domination_residual,
    haagerup_residual,
    projected_domination,
    q_factorial,
    right_annihilation_norm,
    series_tail,
)
from qfock.norms import SERIES_IDS, TAIL_TERMS, _majorant, _powers, check_tail, haagerup_factor


def scalar_space(q0, d, level):
    return FockSpace.with_scalar_q(d, float(q0), level)


class TestGramDomination:
    def test_free_point_exactly_flat(self):
        for m in range(4):
            assert abs(gram_domination_residual(scalar_space(0.0, 2, m + 1), m)) < 1e-12

    def test_half_holds_at_low_levels(self):
        for m in range(3):
            assert gram_domination_residual(scalar_space(0.5, 2, m + 1), m) >= -1e-9

    def test_strong_negative_holds_through_level_six(self):
        for m in range(6):
            assert gram_domination_residual(scalar_space(-0.9, 2, m + 1), m) >= -1e-9

    def test_half_fails_from_level_three(self):
        # The full tensor comparison with this constant is genuinely violated
        # here: G_{m+1} >= w(q) (G_m (x) 1) would bound every vector, while the
        # annihilation-norm argument only needs it after projecting the last
        # letter onto one index. That projected comparison holds with a wide
        # margin (test_projected_comparison_holds).
        assert gram_domination_residual(scalar_space(0.5, 2, 4), 3) < -1e-3

    @pytest.mark.parametrize("q0", [0.5, -0.9])
    def test_projected_comparison_holds(self, q0):
        w, _ = analytic_constants(q0)
        for m in range(6):
            assert projected_domination_sharp(scalar_space(q0, 2, m + 1), m, 1) >= w - 1e-9


# a zero entry, negative entries and distinct off-diagonal values, so a
# mix-up of letters or contents between blocks changes the numbers
MIXED = [[1 / 2, -1 / 3, 0.0], [-1 / 3, -1 / 5, 2 / 7], [0.0, 2 / 7, 3 / 4]]

AGREE = [
    pytest.param(Deformation.constant(d, q0), id=f"d{d}-q{q0}") for d in (2, 3) for q0 in (0.5, -0.9, 0.9)
] + [pytest.param(Deformation(MIXED), id="d3-mixed")]


@pytest.mark.parametrize("deformation", AGREE)
class TestBlockwiseAgainstDense:
    """The per-block eigenproblems against the same checks solved on the
    dense d^n x d^n Gram matrices."""

    def test_full_tensor_residual(self, deformation):
        space = FockSpace(deformation, 5)
        for m in range(5):
            got = gram_domination_residual(space, m)
            assert got == pytest.approx(dense_domination_residual(space, m), rel=1e-10), m

    def test_right_annihilation_norm(self, deformation):
        d = deformation.d
        level = 6 if d == 2 else 5
        space = FockSpace(deformation, level)
        for i in (1, d):
            got = right_annihilation_norm(space, i, level)
            assert got == pytest.approx(dense_right_annihilation_norm(space, i, level), rel=1e-10), i

    def test_projected_domination_is_the_schur_complement_constant(self, deformation):
        space = FockSpace(deformation, 5)
        for m in range(5):
            got = projected_domination(space, m, 1)
            assert got == pytest.approx(projected_domination_sharp(space, m, 1), rel=1e-10), m

    def test_projected_domination_per_letter(self, deformation):
        space = FockSpace(deformation, 5)
        for i in range(2, deformation.d + 1):
            for m in range(5):
                got = projected_domination(space, m, i)
                assert got == pytest.approx(projected_domination_sharp(space, m, i), rel=1e-10), (i, m)
            smallest = min(projected_domination(space, m, i) for m in range(5))
            assert right_annihilation_norm(space, i, 5) ** 2 == pytest.approx(1 / smallest, rel=1e-10), i

    def test_norm_squared_is_inverse_of_smallest_projected_constant(self, deformation):
        level = 5
        space = FockSpace(deformation, level)
        smallest = min(projected_domination(space, m, 1) for m in range(level))
        assert right_annihilation_norm(space, 1, level) ** 2 == pytest.approx(1 / smallest, rel=1e-10)


class TestRightAnnihilationNorm:
    def test_free_point_partial_isometry(self):
        assert abs(right_annihilation_norm(scalar_space(0.0, 2, 5), 1, 5) - 1.0) < 1e-9

    @pytest.mark.parametrize("q0", [0.5, -0.9])
    def test_bound_respected(self, q0):
        w, _ = analytic_constants(q0)
        assert right_annihilation_norm(scalar_space(q0, 2, 6), 1, 6) <= 1.0 / math.sqrt(w) + 1e-9

    def test_monotone_in_truncation(self):
        values = [right_annihilation_norm(scalar_space(0.5, 2, L), 1, L) for L in (3, 4, 5)]
        assert values[0] <= values[1] + 1e-12
        assert values[1] <= values[2] + 1e-12

    def test_singular_gram_reported_distinctly(self):
        with pytest.raises(GramSingularError):
            right_annihilation_norm(scalar_space(1.0, 2, 3), 1, 3)

    def test_letter_guard(self):
        with pytest.raises(ValueError):
            right_annihilation_norm(scalar_space(0.5, 2, 3), 3, 3)


@pytest.mark.parametrize(
    "engine",
    [
        lambda space: gram_domination_residual(space, 2),
        lambda space: projected_domination(space, 2, 1),
        lambda space: right_annihilation_norm(space, 1, 3),
        lambda space: haagerup_residual(space, 1, trials=2),
    ],
    ids=["gram-domination", "projected", "right-annihilation", "haagerup"],
)
@pytest.mark.parametrize("q", [Fraction(1, 2), FORMAL_Q], ids=["rational", "formal"])
def test_engines_refuse_a_space_without_float_blocks(engine, q):
    # rational blocks hold scale * G_n in integers, formal ones polynomials
    with pytest.raises(ValueError):
        engine(FockSpace.with_scalar_q(2, q, 3))


def _poisoned(monkeypatch, owner, name, engine, at, nan):
    """engine() with ``owner.name`` answering ``nan(value)`` on one call,
    the first (at = 0) or the last (at = -1) of the calls it makes."""
    real, calls = getattr(owner, name), []

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    engine()
    hit, seen = at % len(calls), []

    def poisoned(*args):
        seen.append(None)
        value = real(*args)
        return nan(value) if len(seen) - 1 == hit else value

    monkeypatch.setattr(owner, name, poisoned)
    return engine()


@pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
class TestNanComesOut:
    """A NaN from one block or one trial is what the engine's max or min
    returns, first or last: the built-ins keep a number over a NaN that
    follows it, and the CLI gates would read that number."""

    space = FockSpace(Deformation(MIXED), 5)

    def test_right_gain(self, monkeypatch, at):
        got = _poisoned(
            monkeypatch, qfock.norms, "_top_eigenvalue", lambda: projected_domination(self.space, 3, 2), at, lambda v: math.nan
        )
        assert math.isnan(got)

    def test_right_annihilation_over_levels(self, monkeypatch, at):
        got = _poisoned(
            monkeypatch, qfock.norms, "_top_eigenvalue", lambda: right_annihilation_norm(self.space, 1, 4), at, lambda v: math.nan
        )
        assert math.isnan(got)

    def test_gram_domination(self, monkeypatch, at):
        got = _poisoned(
            monkeypatch, qfock.norms.np.linalg, "eigvalsh", lambda: gram_domination_residual(self.space, 3), at, lambda v: v * math.nan
        )
        assert math.isnan(got)

    def test_haagerup(self, monkeypatch, at):
        got = _poisoned(
            monkeypatch, qfock.norms, "_top_eigenvalue", lambda: haagerup_residual(self.space, 1, trials=4), at, lambda v: math.nan
        )
        assert math.isnan(got)


class TestHaagerup:
    def test_level_zero_is_tight_at_free_point(self):
        assert abs(haagerup_residual(scalar_space(0.0, 2, 2), 0, trials=5, seed=0)) < 1e-9

    def test_level_zero_negative_otherwise(self):
        assert haagerup_residual(scalar_space(0.5, 2, 2), 0, trials=5, seed=0) < 0

    def test_free_point_level_two(self):
        assert haagerup_residual(scalar_space(0.0, 2, 4), 2, trials=20, seed=1) <= 1e-12

    def test_desk_scale(self):
        assert haagerup_residual(scalar_space(0.5, 2, 5), 3, trials=50, seed=0) <= 1e-12

    def test_deterministic_given_seed(self):
        a = haagerup_residual(scalar_space(0.5, 2, 4), 2, trials=10, seed=3)
        b = haagerup_residual(scalar_space(0.5, 2, 4), 2, trials=10, seed=3)
        assert a == b

    @pytest.mark.parametrize(
        "m,q0,d,trials,seed",
        [(2, 0.5, 2, 10, 3), (3, 0.5, 2, 20, 0), (3, -0.9, 2, 10, 4), (2, 0.9, 3, 10, 7), (3, 0.5, 3, 5, 1)],
    )
    def test_blockwise_matches_dense(self, m, q0, d, trials, seed):
        space = scalar_space(q0, d, m + 2)
        got = haagerup_residual(space, m, trials=trials, seed=seed)
        assert got == pytest.approx(dense_haagerup_residual(space, m, trials, seed), rel=1e-9, abs=1e-9)


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


class TestFisherTailCovers:
    """At d = 1 the Fisher remainder beyond M is known in closed form (see
    ``fisher_remainder_above``): the reported tail must be at least that,
    compared exactly on the raw mpf bound, not on its rounded double."""

    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(-1, 2), Fraction(9, 10), Fraction(-9, 10)])
    @pytest.mark.parametrize("truncation", [1, 2, 3, 4])
    def test_bound_covers_closed_form_remainder(self, q, truncation):
        bound = series_tail("fisher", truncation, abs(float(q)), 1).bound
        man, exp = bound.man_exp
        assert fisher_remainder_above(q, truncation) <= Fraction(man) * Fraction(2) ** exp

    @pytest.mark.parametrize("q, terms", [(Fraction(1, 2), 20), (Fraction(-9, 10), 60)])
    def test_remainder_above_brackets_a_long_sum(self, q, terms):
        # more exact terms of the remainder than the oracle sums (it stops
        # at m = 4 and m = 54 here), against its bound, which adds at most
        # one term to a partial sum
        truncation = 2
        long_sum = sum(
            abs(q) ** (m * (m - 1)) * q_factorial(m - 1, q) ** 2 / q_factorial(2 * m - 1, q)
            for m in range(truncation + 2, truncation + 2 + terms)
        )
        assert long_sum <= fisher_remainder_above(q, truncation) <= 2 * long_sum


class TestReach:
    """A tail whose terms would not start halving within TAIL_TERMS terms
    is refused up front, naming the |q| from which that fails; the rule
    reads one ratio and is the summing loop's own stop."""

    @pytest.mark.parametrize("series", SERIES_IDS)
    def test_rule_is_the_loops_stop(self, monkeypatch, series):
        # with a cap of 2,000 terms the limit lies near |q| = 0.97, where
        # the loop is quick to run on both sides of it
        monkeypatch.setattr(qfock.norms, "TAIL_TERMS", 2000)
        limit = qfock.norms._reach_limit(series, 2, 2, None)
        assert 0.9 < limit < 0.99
        assert series_tail(series, 2, limit - 2e-6, 2).terms_summed <= 2001
        with pytest.raises(ValueError, match=rf"series tail {series} .* fails from \|q\| ~ {limit:.5f}"):
            series_tail(series, 2, limit, 2)
        majorant, start, m_safe, _ = qfock.norms._tail_start(series, 2, limit, 2, None)
        with pytest.raises(RuntimeError, match="geometric decay"):
            majorant.tail(start, m_safe)

    def test_limits_at_full_reach(self):
        # measured: at d = 2 and M = 2 the gibbs tail sums 79,570 terms at
        # |q| = 0.995, and the xi tail 68,987 at 0.997
        check_tail("gibbs", 2, 0.995, 2)
        check_tail("xi", 2, -0.997, 2)
        with pytest.raises(ValueError, match=r"at d = 2, M = 2 that fails from \|q\| ~ 0.99555"):
            check_tail("gibbs", 2, 0.9966, 2)
        with pytest.raises(ValueError, match=r"at d = 2, M = 2 that fails from \|q\| ~ 0.99751"):
            check_tail("xi", 2, 0.9976, 2)

    def test_limit_depends_on_d(self):
        assert qfock.norms._reach_limit("gibbs", 2, 1, None) > qfock.norms._reach_limit("gibbs", 2, 10, None)


class TestHaagerupFactor:
    def test_is_c_to_three_halves(self):
        assert haagerup_factor(0.9965) == analytic_constants(0.9965)[1] ** 1.5

    def test_overflow_named(self):
        # C ~ 3.2e205 at |q| = 0.996557, where C^(3/2) leaves double range
        with pytest.raises(ValueError, match=r"C\^\(3/2\) overflows from \|q\| ~ 0.99656"):
            haagerup_factor(-0.9966)
        with pytest.raises(ValueError, match="Haagerup bound"):
            haagerup_residual(scalar_space(0.997, 2, 2), 0, trials=1)


def _oracle_tail(series, truncation, q0, d, op_norm_bound):
    """(bound, terms summed) by the stopping rule of ``series_tail``, from
    the closed-form terms at 300 bits: sum from the first term past the
    truncation until, beyond m_safe, the next term is below half the last
    one, and bound the rest by twice that term."""
    x = abs(q0)
    start = truncation + (2 if series == "fisher" else 1)
    m_safe = start + (0 if x == 0 else math.ceil(8 / (1 - x)))
    with mp.workprec(300):
        term = closed_form_terms(series, q0, d, op_norm_bound)
        m, prev = start, term(start)
        total, count = prev, 1
        while prev != 0:
            nxt = term(m + 1)
            count += 1
            if m >= m_safe and nxt < prev / 2:
                return total + 2 * nxt, count
            total, prev, m = total + nxt, nxt, m + 1
        return total, count


ORACLE_CASES = [
    pytest.param(series, q0, d, None, id=f"{series}-q{q0}-d{d}")
    for series in SERIES_IDS
    for q0 in (0.0, 0.5, -0.9, 0.95)
    for d in (1, 2, 3)
] + [
    pytest.param("gibbs", q0, d, 3.0, id=f"gibbs-A3-q{q0}-d{d}") for q0 in (0.0, 0.5, -0.9, 0.95) for d in (1, 2, 3)
]


class TestRatioBuiltTerms:
    """The shared term sequences, built by the closed-form ratios, against
    every term evaluated on its own from the closed form."""

    @pytest.mark.parametrize("series,q0,d,op_norm_bound", ORACLE_CASES)
    def test_every_summed_term_matches_closed_form(self, series, q0, d, op_norm_bound):
        x = abs(q0)
        if series == "gibbs" and op_norm_bound is None:
            op_norm_bound = 2.0 / math.sqrt(1.0 - x)
        majorant = _majorant(series, x, d, op_norm_bound)
        last = max(
            majorant.m0 + M + series_tail(series, M, q0, d, op_norm_bound).terms_summed for M in range(7)
        )
        got = [majorant.term(m) for m in range(majorant.m0 + 1, last + 1)]
        with mp.workprec(300):
            term = closed_form_terms(series, q0, d, op_norm_bound)
            for m, value in zip(range(majorant.m0 + 1, last + 1), got):
                exact = term(m)
                assert abs(value - exact) <= 1e-12 * exact, (m, value, exact)

    @pytest.mark.parametrize("series", SERIES_IDS)
    @pytest.mark.parametrize("q0,d", [(0.5, 2), (3 / 7, 2), (-0.9, 3), (0.95, 3)])
    def test_bound_is_the_rounded_exact_sum(self, series, q0, d):
        # within half an ulp of the exact truncated sum: a bound summed in
        # double precision misses by up to 5e-13 at q0 = 0.95
        for M in (0, 3, 6):
            rep = series_tail(series, M, q0, d)
            exact, count = _oracle_tail(series, M, q0, d, rep.params.get("op_norm_bound"))
            assert rep.terms_summed == count, M
            assert abs(rep.bound - exact) <= 2.0**-53 * exact, (M, rep.bound, exact)

    def test_memo_stays_within_maxsize(self):
        maxsize = _majorant.cache_info().maxsize
        for k in range(maxsize + 8):
            series_tail("xi", 0, 0.01 * (k + 1), 2)
        assert _majorant.cache_info().currsize <= maxsize

    def test_concurrent_calls_see_the_same_terms(self):
        truncations = [0, 3, 6, 1]
        serial = [series_tail("lipschitz", M, 0.95, 3) for M in truncations]
        for _ in range(3):
            _majorant.cache_clear()
            assert together(lambda M: series_tail("lipschitz", M, 0.95, 3), truncations) == serial

    def test_powers_memo_stays_within_maxsize(self):
        maxsize = _powers.cache_info().maxsize
        for k in range(maxsize + 4):
            series_tail("fisher", 0, 0.01 * (k + 1), 2)
        assert _powers.cache_info().currsize <= maxsize

    def test_reach_limit_adds_no_memo_entry(self, monkeypatch):
        monkeypatch.setattr(qfock.norms, "TAIL_TERMS", 2000)
        _majorant.cache_clear()
        _powers.cache_clear()
        qfock.norms._reach_limit("lipschitz", 2, 2, None)
        assert (_majorant.cache_info().currsize, _powers.cache_info().currsize) == (0, 0)

    def test_reach_check_grows_no_list(self):
        # the check reads the ratio TAIL_TERMS terms past the start, with
        # powers at up to twice that index: no kept list or table grows
        majorant, start, m_safe, _ = check_tail("lipschitz", 2, 0.95, 3)
        series_tail("lipschitz", 2, 0.95, 3)
        powers = majorant._powers
        lists = (majorant._terms, majorant._halving, majorant._sums, powers._power, powers._bracket, powers._root)
        before = [len(kept) for kept in lists]
        assert majorant.stops_in_reach(start, m_safe)
        assert [len(kept) for kept in lists] == before
        assert max(before) < TAIL_TERMS // 10


CHAIN_CASES = [(q0, d) for q0 in (0.95, 0.99, -0.9) for d in (1, 3)]


@pytest.mark.parametrize("q0,d", CHAIN_CASES, ids=[f"q{q0}-d{d}" for q0, d in CHAIN_CASES])
def test_shared_chain_is_order_independent(q0, d):
    """Each tail sums on its own only until it meets its majorant's one
    chain of partial sums, whichever tails came first: in descending,
    shuffled and concurrent order of truncations, from empty memos, every
    report equals the 113-bit context sum bit for bit."""
    truncations = [0, 1, 3, 6]  # rows of TestRawArithmetic too, whose context sums are kept
    want = {(series, M): context_tail(series, M, q0, d, None) for series in SERIES_IDS for M in truncations}
    shuffled = truncations[:]
    random.Random(f"{q0}/{d}").shuffle(shuffled)

    def report(series, M):
        rep = series_tail(series, M, q0, d)
        return rep.bound, rep.terms_summed

    for order in (truncations[::-1], shuffled):
        _majorant.cache_clear()
        _powers.cache_clear()
        got = {(series, M): report(series, M) for series in SERIES_IDS for M in order}
        assert got == want, order
    # two truncations each of two series, which share one powers table
    jobs = [("lipschitz", shuffled[0]), ("xi", shuffled[1]), ("lipschitz", shuffled[2]), ("xi", shuffled[3])]
    _majorant.cache_clear()
    _powers.cache_clear()
    assert together(lambda job: report(*job), jobs) == [want[job] for job in jobs]


CONTEXT_SERIES = [
    pytest.param(series, a, id=series if a is None else f"{series}-A{a}")
    for series, a in [("xi", None), ("fisher", None), ("gibbs", None), ("lipschitz", None), ("gibbs", 3.0)]
]


class TestRawArithmetic:
    """The terms and sums on raw libmp values against the same ratios and
    sums in mpf arithmetic of a 113-bit context: bit-identical, term by term
    and report by report."""

    @pytest.mark.parametrize("q0", [0.0, 0.5, -0.5, 3 / 7, 0.9, -0.9, 0.95, 0.99])
    @pytest.mark.parametrize("series,op_norm_bound", CONTEXT_SERIES)
    def test_reports_equal_the_context_sums(self, series, op_norm_bound, q0):
        for d in (1, 2, 3, 5):
            for M in (0, 1, 3, 6, 13):
                rep = series_tail(series, M, q0, d, op_norm_bound)
                assert (rep.bound, rep.terms_summed) == context_tail(series, M, q0, d, op_norm_bound), (d, M)

    @pytest.mark.parametrize("series,op_norm_bound", CONTEXT_SERIES)
    def test_first_terms_equal_the_context_terms(self, series, op_norm_bound):
        if series == "gibbs" and op_norm_bound is None:
            op_norm_bound = 2.0 / math.sqrt(1.0 - 0.95)
        for d in (1, 2, 3, 5):
            majorant = _majorant(series, 0.95, d, op_norm_bound)
            m0, terms = context_terms(series, 0.95, d, op_norm_bound)
            got = [majorant.term(m0 + k)._mpf_ for k in range(300)]
            assert got == [terms(k)._mpf_ for k in range(300)], d


class TestBenchmarkTailProperty:
    """The property the benchmark checks on its tails workload: at d = 3
    every series is non-increasing in M = 0..6, and at q0 = 1/2 it falls
    from M = 0 to M = 6. Equal neighbours are allowed: where the sum peaks
    far beyond M (gibbs and lipschitz, and every series at 0.95), dropping a
    leading term is below the rounding of the sum."""

    @pytest.mark.parametrize("series", SERIES_IDS)
    @pytest.mark.parametrize("q0", [0.5, 0.95])
    def test_monotone_in_truncation(self, series, q0):
        bounds = [series_tail(series, M, q0, 3).bound for M in range(7)]
        assert all(mp.isfinite(b) and b > 0 for b in bounds)
        assert all(hi <= lo for lo, hi in zip(bounds, bounds[1:]))
        if q0 == 0.5:
            assert bounds[-1] < bounds[0]


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(qfock.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, qfock.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert out.stdout.strip() == "[]"
