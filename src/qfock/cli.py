"""Command-line front end: verification suites and data exports.

Exit codes are the contract: 0 when every check passes, 1 when a check
fails (the report names the first counterexample), 2 on invalid
configuration. Every exit 2 happens before any space is built: the
arguments are parsed, and ``_require`` makes every refusal, first, among
them a run predicted (``_price``) to take more than ``TIME_LIMIT_S`` or
``MEMORY_LIMIT_MB``. Reports are deterministic: the same configuration and
seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from json.encoder import encode_basestring_ascii as _json_str
from contextlib import nullcontext
from fractions import Fraction
from itertools import repeat
from math import comb, factorial, inf, isfinite, log2, sqrt

import mpmath as mp

from .dual import commutator_residual, conjugate_series, dual_partition, dual_recursive, fisher_reports
from .fock import FockSpace, FockVector, _cleared
from .ncpoly import (
    conjugate_expansions,
    cyclic_commutator,
    diff_partition,
    diff_quotient,
    duality_residual,
    gibbs_gradient_residuals,
    gibbs_potential,
    wick_partition,
    wick_recursive,
)
from .onevariable import (
    cheb,
    hermite,
    q_identity_residual,
    q_identity_truncation,
    rescale_identity_residual,
    trace_cheb,
    trace_cheb_odd,
)
from .norms import (
    SERIES_IDS, check_tail, gram_domination_residual, haagerup_factor, haagerup_residual, right_gains, series_tail,
)
from .partitions import enumerate_family
from .scalars import FORMAL_Q, Deformation, QPoly, QRat, analytic_constants, magnitude, nan_safe

class ConfigError(Exception):
    pass


def _scalar_json(value):
    if isinstance(value, (bool, float, int)):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return value.numerator
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, QPoly):
        return {"poly": [_scalar_json(c) for c in value.coeffs]}
    if isinstance(value, QRat):
        return {
            "num": [_scalar_json(c) for c in value.num.coeffs],
            "den": [_scalar_json(c) for c in value.den.coeffs],
        }
    if isinstance(value, mp.mpf):
        return mp.nstr(value, 12)
    return str(value)


def _parse_config(args):
    mode = args.mode
    if args.d < 1:
        raise ConfigError("d must be at least 1")
    if args.level < 0:
        raise ConfigError("level must be nonnegative")
    if args.series_m < 0:
        raise ConfigError("series length must be nonnegative")

    if args.q_matrix is not None:
        if mode == "symbolic":
            raise ConfigError("symbolic mode requires the scalar parameter left formal")
        try:
            deformation = Deformation.from_json(args.q_matrix)
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot read a deformation matrix from {args.q_matrix!r}: {exc!r}") from exc
        if mode == "exact" and deformation.is_float:
            raise ConfigError("exact mode requires rational matrix entries")
        if mode == "float":
            deformation = deformation.as_float()
        if deformation.d != args.d:
            raise ConfigError("matrix dimension disagrees with --d")
        if not deformation.max_abs_float() < 1.0:
            raise ConfigError("matrix entries must have absolute value below 1")
    elif mode == "symbolic":
        if args.q is not None:
            raise ConfigError("symbolic mode requires the scalar parameter left formal")
        deformation = Deformation.constant(args.d, FORMAL_Q)
    else:
        text = args.q if args.q is not None else "1/2"
        try:
            q_exact = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot parse q: {text!r}") from exc
        if not abs(q_exact) < 1:
            raise ConfigError("q must satisfy |q| < 1")
        q_value = float(q_exact) if mode == "float" else q_exact
        deformation = Deformation.constant(args.d, q_value)
    return deformation


# the longest a run may be predicted to take, and the most memory; see
# ``_price`` for the fit behind both predictions
TIME_LIMIT_S = 20
MEMORY_LIMIT_MB = 1500


def _gram_size(d, n):
    """(entries, largest block) of the level-n Gram matrix over d letters:
    the pairs of words with equal letter content, sum over contents of the
    squared multinomial, and the largest multinomial, at letter counts as
    equal as possible. Pairs over one more letter pick the positions of
    its k copies in both words: e(n) = sum_k C(n, k)^2 e'(n - k)."""
    pairs = [1] * (n + 1)
    for _ in range(d - 1):
        pairs = [sum(comb(m, k) ** 2 * pairs[m - k] for k in range(m + 1)) for m in range(n + 1)]
    even, extra = divmod(n, d)
    return pairs[n], factorial(n) // (factorial(even + 1) ** extra * factorial(even) ** (d - extra))


def _source_words(d, n):
    """The level-n words holding exactly one letter an odd number of times,
    the words of the contents of the c_i: d n! [x^n] sinh(x) cosh(x)^(d-1).
    An exponential generating function is kept as its word counts, so a
    product is the binomial convolution, and the power is taken by
    squaring."""

    def times(a, b):
        return [sum(comb(t, k) * a[k] * b[t - k] for k in range(t + 1)) for t in range(n + 1)]

    power, total, k = [1 - t % 2 for t in range(n + 1)], [t % 2 for t in range(n + 1)], d - 1
    while k:
        if k & 1:
            total = times(total, power)
        k >>= 1
        if k:
            power = times(power, power)
    return d * total[n]


def _orbit_words(d, n):
    """The words of those contents of the c_i at level n that represent
    their orbits under letter permutations: one per partition of n into at
    most d parts with exactly one part odd, holding n! / prod(parts!)
    words. With the odd part n - 2t and the even ones 2 mu for mu a
    partition of t into c parts, g[t][c] is (2t)! times the sum of
    1 / prod (2 mu_j)!, built one part size at a time."""
    half, most = n // 2, min(d - 1, n // 2)
    g = [[1] + [0] * most] + [[0] * (most + 1) for _ in range(half)]
    for v in range(1, half + 1 if most else 1):
        for t in range(v, half + 1):
            for c in range(1, most + 1):
                g[t][c] += g[t - v][c - 1] * comb(2 * t, 2 * v)
    return sum(comb(n, 2 * t) * sum(g[t]) for t in range(half + 1)) if n % 2 else 0


def _price(deformation, args, names):
    """The seconds and peak MB a run of the named suites or export is
    predicted to take, and each name's seconds: 0.2 s and 35 MB to start,
    and per name a rate times each quantity its work grows with, at level
    n = 2M+1. The seconds add up; the memory is the largest.

    - Conjugate variables (duality, gibbs, xi, fisher): 5.8 ns w n^4 per
      word peeled (``_orbit_words`` at constant q, ``_source_words`` when
      mixed), 0.77 us per word of the level, which ``fock._by_content``
      indexes whole, and 3.0 us per word of the answer (``_source_words``).
      The weight w is log2 s for rational entries over the common
      denominator s (at least 1), 0.2 for floats and 2^(n/2 + 4) for a
      formal q, whose coefficients grow with n.
    - xi writes each word of the answer in 6.9 us.
    - gibbs Wick-expands the answer, forms the potential and its gradient
      residuals in 2.1 us w n^2 per word of it; the suite also applies the
      degree-(n+1) commutator polynomial, whose top words are the answer's
      with a letter appended (about 2.5 prefixes each), in 20 ns w (n+1)^4
      per top word.
    - The deepest Gram level built (M+2 for duality, up to 6 for bounds):
      0.21 us per entry (``_gram_size``).
    - A per-word suite weighs a case of length k as 2^k, at ``_CASE_S``
      seconds per weighted case; each duality case also pairs xi_i, cut to
      the case length, in 0.48 us per word of it.
    - Memory is the conjugate variables' word table, 120 + 20 n bytes per
      word of the level; the time limit bounds every other peak (bounds
      at d=8 level 9, 70 million Gram entries: 12 s and 739 MB).

    Fitted stage by stage (xi and fisher, gibbs, duality, each per-word
    suite, bounds) on 89 runs, the float weight on 3 more, by least squares
    on relative error, one process at a time, OPENBLAS_NUM_THREADS=1, on a
    2-core x86-64 box. At q = 1/2, measured -> predicted
    seconds: export xi d=2 level 15 4.5 -> 5.4, d=3 level 11 4.3 -> 4.1,
    d=5 level 9 11.1 -> 9.3, formal d=2 level 9 3.6 -> 3.7, d=2 level 17
    44 -> 33, d=3 level 13 63 -> 55; verify gibbs d=3 level 9 6.2 -> 5.8,
    level 11 72 -> 92; verify duality d=3 level 11 7.8 -> 7.8, d=7 level 7
    56 -> 45; verify commutator d=7 level 6 15 -> 12; verify bounds d=7
    level 9 6.8 -> 5.9. Peak MB: export xi d=10 level 7 2,179 -> 2,635,
    d=9 level 7 1,071 -> 1,279, d=200 level 3 1,371 -> 1,475.

    Far past any limit (n above 255, or d^n above 2^200) the price is
    infinite, its words not counted."""
    d, n = deformation.d, 2 * args.series_m + 1
    seconds, mb = dict.fromkeys(names, 0.0), 0.0
    for name in names:
        if name in ("duality", "gibbs", "xi", "fisher"):
            if n > 255 or n * log2(d) > 200:
                seconds[name] = mb = inf
                continue
            exact = not (deformation.is_symbolic or deformation.is_float)
            weight = max(1.0, log2(_cleared(deformation)[0])) if exact else 2 ** (n / 2 + 4) if deformation.is_symbolic else 0.2
            peeled = _orbit_words(d, n) if deformation.is_constant else _source_words(d, n)
            answer = _source_words(d, n)
            seconds[name] += 5.8e-9 * weight * peeled * n**4 + 7.7e-7 * d**n + 3.0e-6 * answer
            mb = (120 + 20 * n) * d**n / 1e6
            if name == "xi":
                seconds[name] += 6.9e-6 * answer
            if name == "gibbs":
                seconds[name] += 2.1e-6 * weight * answer * n**2
                if args.command == "verify":
                    seconds[name] += 2.0e-8 * weight * answer * (n + 1) ** 4
        if name in _CASE_S:
            seconds[name] += _CASE_S[name] * _cases(name, d, args, 2)
            if name == "duality":
                cut = sum(_source_words(d, k) for k in range(1, _case_length(name, args) + 1, 2)) // d
                seconds[name] += 4.8e-7 * _cases(name, d, args) * cut
        if name in ("duality", "bounds"):
            seconds[name] += 2.1e-7 * _gram_size(d, _case_length(name, args) if name == "duality" else min(args.level, 6))[0]
    return 0.2 + sum(seconds.values()), 35 + mb, seconds


def _require(deformation, args, names):
    """Refuse a configuration that one of the named suites or exports cannot
    run, before any space is built, with the message of its first unmet
    need. The analytic constants w and C at q0 must be normal doubles,
    since the norm gates and every series tail are built from them. The
    needs come in one order: those constants for the bounds suite; then
    each name's own needs, in the order of the names; then the run's
    price (``_price``: its seconds summed over the names, its memory the
    largest name's) within ``TIME_LIMIT_S`` and ``MEMORY_LIMIT_MB``; then
    for the xi and fisher exports those constants, and each (series,
    truncation) tail a name sums, which must start halving its terms in
    reach; and for the bounds suite the Haagerup bound C^(3/2), which must
    not overflow. Fisher reads the level-M Gram, which within the limits
    holds at most 35,169 entries (M=6, d=3)."""
    m, level = args.series_m, args.level
    q0 = _q_float(_float_deformation(deformation))
    tails = {
        "bounds": [(series, k) for series in SERIES_IDS for k in (m, m + 2)],
        "xi": [] if deformation.is_symbolic else [("xi", m)],
        "fisher": [("fisher", k) for k in range(m + 1)],
    }
    try:
        if "bounds" in names:
            analytic_constants(q0)
        kind = "suite" if args.command == "verify" else "export"
        for name in names:
            label = f"{name} {kind}"
            if name == "commutator" and level < 1:
                raise ConfigError(f"{label} needs level >= 1")
            if name in ("duality", "gibbs", "xi", "fisher") and 2 * m + 1 > level:
                raise ConfigError(f"{label} needs level >= 2*series_m + 1")
            if name == "bounds" and level < 2:
                raise ConfigError(f"{label} needs level >= 2")
            if name == "univar":
                q_identity_truncation(q0)
            if name == "fisher" and deformation.is_symbolic:
                raise ConfigError(f"{label} needs numeric entries")
            if name == "hermite" and not deformation.is_constant:
                raise ConfigError(f"{label} needs a constant deformation")
            if name == "partitions" and args.n < (lowest := 0 if args.family == "D" else 1):
                raise ConfigError(f"family {args.family} needs --n >= {lowest}")
            if args.command == "export" and args.format == "csv" and name not in _CSVABLE:
                raise ConfigError(f"{label} has no tabular form; use json")
        total, peak, seconds = _price(deformation, args, names)
        if total > TIME_LIMIT_S or peak > MEMORY_LIMIT_MB:
            parts = " (" + ", ".join(f"{name} {s:.2g} s" for name, s in seconds.items()) + ")" if len(names) > 1 else ""
            run = args.suite if kind == "suite" else args.what
            limit = f"{TIME_LIMIT_S} s" if total > TIME_LIMIT_S else f"{MEMORY_LIMIT_MB:,} MB"
            raise ConfigError(f"{run} {kind} is predicted to take {total:.3g} s and {peak:,.0f} MB{parts}, above the limit of {limit}")
        for name in names:
            if name in ("xi", "fisher"):
                analytic_constants(q0)
            for series, k in tails.get(name, ()):
                check_tail(series, k, q0, deformation.d)
        if "bounds" in names:
            haagerup_factor(q0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _tolerance(mode):
    return 1e-10 if mode == "float" else 0


def _float_deformation(deformation):
    """The deformation the float checks run on: every entry a float, with
    a formal q evaluated at 1/2."""
    return deformation.as_float(0.5)


def _q_float(deformation):
    """The float parameter of the tail and one-variable checks, read off a
    float deformation: its signed q when constant, else max |q_ij|."""
    if deformation.is_constant:
        return deformation.constant_value
    return deformation.max_abs_float()


def _check(name, value, passed, **params):
    return {
        "check": name,
        "params": params,
        "value": _scalar_json(value) if not isinstance(value, str) else value,
        "pass": bool(passed),
    }


# the longest word each per-word suite checks, at a level and series length
_CASE_LENGTH = {
    "commutator": lambda level, m: min(level - 1, 5),
    "dual-agree": lambda level, m: min(level, 6),
    "wick-agree": lambda level, m: min(level, 6),
    "derivative-agree": lambda level, m: min(level, 5),
    "duality": lambda level, m: min(level, m + 2),
}


def _case_length(name, args):
    return _CASE_LENGTH[name](args.level, args.series_m)


def _cases(name, d, args, weight=1):
    """The cases a per-word suite checks: every word up to its length, each
    with every letter but in wick-agree; a case of length k counts
    weight^k times."""
    return (1 if name == "wick-agree" else d) * sum((weight * d) ** n for n in range(_case_length(name, args) + 1))


# the seconds of a case of length k in each per-word suite over 2^k (``_price``)
_CASE_S = {"commutator": 2.8e-6, "dual-agree": 3.0e-7, "wick-agree": 5.2e-7, "derivative-agree": 5.4e-7, "duality": 1.6e-6}


def _suite_commutator(space, args, tol):
    limit = _case_length("commutator", args)
    return [
        _check(f"commutator/i={i},j={j}", magnitude(res), magnitude(res) <= tol, level_limit=limit)
        for i in range(1, space.d + 1)
        for j, res in commutator_residual(space, i, limit).items()
    ]


def _agreement(space, check, limit, unit, tol, label, residuals, size=lambda diff: diff.max_coeff_magnitude(), **params):
    """One check that two sides agree on every word up to the length limit:
    ``residuals(w)`` yields (case, left, right) for each case of the word w.
    A case passes when left == right, or else when ``size(left - right)``
    is at most tol; word maps are canonical (zeros dropped, ``QRat``
    reduced), so equal sides are exactly those whose difference is the
    zero map, and the difference is formed only where the sides differ. A
    NaN size fails. The value counts the cases, or names the first
    counterexample, ``label`` formatted with its case."""
    bad = None
    count = 0
    for n in range(limit + 1):
        for w in space.words(n):
            for case, left, right in residuals(w):
                count += 1
                if bad is None and left != right and not size(left - right) <= tol:
                    bad = label.format(*case)
    value = f"{count} {unit}" if bad is None else f"counterexample {bad}"
    return [_check(check, value, bad is None, max_length=limit, **params)]


def _suite_dual_agree(space, args, tol):
    letters = range(1, space.d + 1)
    return _agreement(
        space, "dual-agree/strategies", _case_length("dual-agree", args), "words", tol, "i={} w={}",
        lambda w: (((i, w), dual_partition(space, i, w), dual_recursive(space, i, w)) for i in letters),
    )


def _suite_wick_agree(space, args, tol):
    return _agreement(
        space, "wick-agree/strategies", _case_length("wick-agree", args), "words", tol, "w={}",
        lambda w: [((w,), wick_partition(space, w), wick_recursive(space, w))],
    )


def _suite_derivative_agree(space, args, tol):
    letters = range(1, space.d + 1)
    return _agreement(
        space, "derivative-agree/strategies", _case_length("derivative-agree", args), "pairs", tol, "i={} w={}",
        lambda w: (((i, w), diff_partition(space, i, w), diff_quotient(i, wick_recursive(space, w))) for i in letters),
    )


def _suite_duality(space, args, tol):
    m, limit = args.series_m, _case_length("duality", args)
    # A^u Omega has no component longer than u, so each xi_i pairs only its
    # words up to the longest monomial checked
    xis = {
        i: FockVector({w: c for w, c in conjugate_series(space, i, m).items() if len(w) <= limit})
        for i in range(1, space.d + 1)
    }
    return _agreement(
        space, "duality/pairing", limit, "monomials", tol, "i={} u={}",
        lambda u: (((i, u), duality_residual(space, u, i, xi), 0) for i, xi in xis.items()),
        size=magnitude, series_m=m,
    )


def _suite_gibbs(space, args, tol):
    m = args.series_m
    expansions, _, residuals = _gibbs(space, m)
    # the degree residuals are exact for even degrees and for one letter;
    # the truncated ones ride along with the exact cyclic-gradient criterion
    exact = {k: magnitude(r) for k, r in residuals.items() if k % 2 == 0 or space.d == 1}
    checks = [_check(f"gibbs/degree={k}", r, r <= tol, series_m=m) for k, r in sorted(exact.items())]
    truncated = {str(k): _scalar_json(magnitude(r)) for k, r in sorted(residuals.items()) if k not in exact}
    commutator = cyclic_commutator(space, m, expansions)
    zero = space.deformation.zero_magnitude()
    worst = nan_safe(
        lambda sizes: max(sizes, default=zero), (magnitude(c) for w, c in commutator.items() if len(w) <= 2 * m + 1)
    )
    params = {"series_m": m, "max_level": 2 * m + 1, "truncated_degree_residuals": truncated}
    return checks + [_check("gibbs/cyclic-gradient", worst, worst <= tol, **params)]


def _suite_bounds(space, args, tol):
    # one float space for every norm engine, the one handed in when it is
    # float: a matrix is checked on its own blocks, against w and C at q0
    floats = space if space.deformation.is_float else FockSpace(_float_deformation(space.deformation), args.level)
    q0 = _q_float(floats.deformation)
    d = space.d
    checks = []
    w, _ = analytic_constants(q0)
    # relabelling letters is an isometry at constant q, so letter 1 stands
    # for every letter there; a mixed space gates the worst letter
    letters = [1] if floats.deformation.is_constant else range(1, d + 1)
    # one squared norm of r_i per level and letter: c_m of the projected
    # comparison is 1 / gains[m][i], and ||r_i|| the root of the largest
    gains = [right_gains(floats, n, letters) for n in range(1, min(args.level, 6) + 1)]
    for m in range(min(4, args.level - 1) + 1):
        # gated on the projected comparison the norm estimate needs; the
        # full-tensor residual is reported beside it and may be negative
        c_m = nan_safe(min, (1.0 / gains[m][i] for i in letters))
        full = gram_domination_residual(floats, m)
        name = f"bounds/gram-domination m={m}"
        checks.append(_check(name, c_m, c_m >= w - 1e-9, q0=q0, bound=w, full_tensor_residual=full))
    norm = sqrt(nan_safe(max, [0.0, *(g[i] for g in gains for i in letters)]))
    bound = 1.0 / (w**0.5)
    checks.append(
        _check("bounds/right-annihilation-norm", norm, norm <= bound + 1e-9, bound=bound)
    )
    res = haagerup_residual(floats, min(3, args.level - 2), trials=20, seed=args.seed)
    checks.append(_check("bounds/haagerup", res, res <= 1e-12, trials=20))
    for series in ("xi", "fisher", "gibbs", "lipschitz"):
        t1 = series_tail(series, args.series_m, q0, d)
        t2 = series_tail(series, args.series_m + 2, q0, d)
        ok = t1.is_finite() and t2.is_finite() and t2.bound <= t1.bound
        checks.append(
            _check(
                f"bounds/tail-{series}",
                t1.bound,
                ok,
                truncation=args.series_m,
            )
        )
    return checks


def _suite_univar(space, args, tol):
    checks = []
    for n in range(4):
        value = trace_cheb(n)
        expected = (-1) ** n * FORMAL_Q ** (n * (n + 1) // 2)
        checks.append(_check(f"univar/trace-even n={n}", value, value == expected))
    for n in range(1, 3):
        value = magnitude(trace_cheb_odd(n))
        checks.append(_check(f"univar/trace-odd n={n}", value, value == 0))
    q0 = _q_float(_float_deformation(space.deformation))
    for n in range(1, 7):
        res = rescale_identity_residual(n, q0)
        checks.append(_check(f"univar/rescale n={n}", res, res < 1e-10, q0=q0))
    top = q_identity_truncation(q0)
    for m in range(4):
        chk = q_identity_residual(m, q0, top)
        checks.append(
            _check(
                f"univar/q-identity m={m}",
                chk.residual,
                chk.residual <= chk.tail_bound + chk.noise_bound,
                tail=chk.tail_bound,
                noise=chk.noise_bound,
            )
        )
    ok = all(hermite(n, 0) == cheb("U", n) for n in range(9))
    checks.append(_check("univar/free-case-hermite", "n<=8", ok))
    return checks


_SUITE_FN = {
    "commutator": _suite_commutator,
    "dual-agree": _suite_dual_agree,
    "wick-agree": _suite_wick_agree,
    "derivative-agree": _suite_derivative_agree,
    "duality": _suite_duality,
    "gibbs": _suite_gibbs,
    "bounds": _suite_bounds,
    "univar": _suite_univar,
}
SUITES = (*_SUITE_FN, "all")


def run_verify(args) -> int:
    deformation = _parse_config(args)
    names = list(_SUITE_FN) if args.suite == "all" else [args.suite]
    _require(deformation, args, names)
    space = FockSpace(deformation, args.level)
    tol = _tolerance(args.mode)
    checks = []
    for name in names:
        checks.extend(_SUITE_FN[name](space, args, tol))
    checks.sort(key=lambda c: c["check"])
    report = {
        "command": "verify",
        "suite": args.suite,
        "config": _config_json(args),
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    _emit(args, report)
    return 0 if report["pass"] else 1


def _config_json(args):
    return {
        "d": args.d,
        "q": args.q,
        "q_matrix": args.q_matrix,
        "level": args.level,
        "series_m": args.series_m,
        "mode": args.mode,
        "seed": args.seed,
    }


def _export_xi(space, args):
    rows = []
    tail = None
    if not space.deformation.is_symbolic:
        tail = series_tail("xi", args.series_m, _q_float(space.deformation.as_float()), space.d).bound_float
    for i in range(1, space.d + 1):
        xi = conjugate_series(space, i, args.series_m)
        terms = []
        for w in xi.support():
            c = xi.coeff(w)
            entry = {"word": list(w)}
            if isinstance(c, Fraction):
                entry["coeff_num"] = c.numerator
                entry["coeff_den"] = c.denominator
            else:
                entry["coeff"] = _scalar_json(c)
            terms.append(entry)
        rows.append({"i": i, "M": args.series_m, "terms": terms, "tail_bound": tail})
    return {"xi": rows}


def _gibbs(space, m):
    """The Wick expansion of each conjugate variable, made once, with the
    Gibbs potential built from them and its gradient residuals."""
    expansions = conjugate_expansions(space, m)
    potential = gibbs_potential(expansions)
    return expansions, potential, gibbs_gradient_residuals(space, m, potential, expansions)


def _export_gibbs(space, args):
    _, potential, residuals = _gibbs(space, args.series_m)
    return {
        "terms": [
            {"word": list(w), "coeff": _scalar_json(c)}
            for w, c in sorted(potential.items(), key=lambda t: (len(t[0]), t[0]))
        ],
        "gradient_residuals": {
            str(k): _scalar_json(magnitude(v)) for k, v in sorted(residuals.items())
        },
    }


def _export_partitions(space, args):
    rows = []
    for part in enumerate_family(args.family, args.n):
        rows.append(
            {
                "family": part.family,
                "n": part.n_vertices,
                "blocks": [list(b) for b in part.blocks()],
                "crossings": part.crossings(),
            }
        )
    return {"partitions": rows}


def _export_hermite(space, args):
    q = space.deformation.constant_value
    rows = []
    for n in range(args.n + 1):
        rows.append({"n": n, "coeffs": [_scalar_json(c) for c in hermite(n, q).coeffs]})
    return {"hermite": rows}


def _export_fisher(space, args):
    rows = []
    for rep in fisher_reports(space, args.series_m):
        rows.append(
            {
                "M": rep.source_length,
                "value": _scalar_json(rep.value),
                "value_float": rep.value_float,
                "tail_bound": rep.tail_bound,
            }
        )
    return {"fisher": rows}


_EXPORT_FN = {
    "xi": _export_xi,
    "gibbs": _export_gibbs,
    "partitions": _export_partitions,
    "hermite": _export_hermite,
    "fisher": _export_fisher,
}
EXPORTS = tuple(_EXPORT_FN)

_CSVABLE = {"partitions", "hermite", "fisher"}


def run_export(args) -> int:
    deformation = _parse_config(args)
    _require(deformation, args, [args.what])
    space = FockSpace(deformation, args.level)
    payload = _EXPORT_FN[args.what](space, args)
    if args.format == "csv":
        key = next(iter(payload))
        rows = payload[key]
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            for row in rows:
                writer.writerow({k: json.dumps(v, sort_keys=True, default=_scalar_json) if isinstance(v, (list, dict)) else v for k, v in row.items()})
        # a family with no diagram writes one empty line
        _emit(args, buf.getvalue() or "\n")
    else:
        report = {"command": "export", "what": args.what, "config": _config_json(args)}
        report.update(payload)
        _emit(args, report)
    return 0


# parts of a JSON report per write: an xi term is 9 parts, so a write holds
# about 230 terms, 110 KB at d=3 level 11; stdout may be unbuffered
EMIT_BATCH_CHUNKS = 1 << 11


def _json_float(value):
    """A float as ``json.dumps`` writes it, NaN and the infinities included."""
    if isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


def _json_scalar_text(value):
    """The JSON text of a value that is not a list, tuple or dict, as
    ``json.dumps`` writes it (its type tests in its order)."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_key(key):
    """A dict key as ``json.dumps`` writes it: a string, or a float, bool,
    None or int turned into one."""
    text = _json_scalar_text(key)
    return text if isinstance(key, str) else _json_str(text)


def _ints_text(value, newline):
    """The JSON text of a nonempty list of ints (bools excluded) at the
    indent that ``newline`` ends with, joined in one pass."""
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(map(repr, value)) + newline + "]"


def _write_json(fh, value, parts=None, newline="\n"):
    """Write a report to the file fh as ``json.dumps(value, sort_keys=True,
    indent=2)`` writes it, and a newline, with no one string of the whole
    report (the stdlib's writer for an indent is its pure-Python one).

    The text of a value at the indent that ``newline`` ends with is
    appended to ``parts``, one part per scalar, bracket and element head
    (its indent and, in a dict, its key, the keys sorted as
    ``sorted(value.items())`` sorts them); a nonempty list of ints is one
    part. The parts go to fh, in one write, whenever ``EMIT_BATCH_CHUNKS``
    of them have gathered after an element of a list or dict."""
    if parts is None:
        parts = []
        _write_json(fh, value, parts)
        parts.append("\n")
        fh.write("".join(parts))
        return
    if not isinstance(value, (list, tuple, dict)):
        parts.append(_json_scalar_text(value))
        return
    if type(value) is list and value and set(map(type, value)) == {int}:
        parts.append(_ints_text(value, newline))
        return
    inner = newline + "  "
    if isinstance(value, dict):
        opening, closing = "{", "}"
        items = ((inner + _json_key(k) + ": ", v) for k, v in sorted(value.items()))
    else:
        opening, closing = "[", "]"
        items = zip(repeat(inner), value)
    if not value:
        parts.append(opening + closing)
        return
    parts.append(opening)
    sep = ""
    for head, element in items:
        parts.append(sep + head)
        _write_json(fh, element, parts, inner)
        sep = ","
        if len(parts) >= EMIT_BATCH_CHUNKS:
            fh.write("".join(parts))
            parts.clear()
    parts.append(newline + closing)


def _emit(args, report):
    """Write a report to stdout or the ``--out`` file: text as it is, any
    other value as JSON."""
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        if isinstance(report, str):
            fh.write(report)
        else:
            _write_json(fh, report)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qfock",
        description="Verification suites and exports for deformed Gaussian computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--d", type=int, default=2, help="number of letters")
        p.add_argument("--q", type=str, default=None, help="scalar parameter, 'p/q' or decimal")
        p.add_argument("--q-matrix", type=str, default=None, help="path to a matrix JSON file")
        p.add_argument("--level", type=int, default=6, help="truncation level")
        p.add_argument("--series-m", dest="series_m", type=int, default=2, help="series truncation")
        p.add_argument("--mode", choices=("exact", "symbolic", "float"), default="exact")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=SUITES)
    common(pv)

    pe = sub.add_parser("export", help="export computed objects")
    pe.add_argument("what", choices=EXPORTS)
    common(pe)
    pe.add_argument("--format", choices=("json", "csv"), default="json")
    pe.add_argument("--family", choices=("B", "C", "D"), default="B")
    pe.add_argument("--n", type=int, default=4, help="vertex count / table size")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify":
            return run_verify(args)
        return run_export(args)
    except ConfigError as exc:
        sys.stderr.write(f"invalid configuration: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
