"""Checks of qfock's outputs, computed apart from qfock.

Every check takes a parsed report and raises CheckFailed with the first
disagreement. Reference values come from fockref (the q-Wick formula), from
closed forms, or from properties the method must have; none of them reads
a stored copy of an earlier output.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import fockref
from fockref import Deform, Monomials, Pairing

FLOAT_TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def scalar(value):
    """A JSON scalar of a report as an exact Fraction (or a float)."""
    if isinstance(value, bool):
        raise CheckFailed(f"boolean where a number belongs: {value!r}")
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        return Fraction(value)
    raise CheckFailed(f"not a scalar: {value!r}")


def _poly_at(coeffs, x):
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + scalar(c)
    return total


def symbolic_at(value, x):
    """Evaluate a symbolic report scalar ({"num", "den"} or {"poly"}) at x."""
    if isinstance(value, dict) and "num" in value:
        return _poly_at(value["num"], x) / _poly_at(value["den"], x)
    if isinstance(value, dict) and "poly" in value:
        return _poly_at(value["poly"], x)
    return scalar(value)


def xi_vectors(report, x=None):
    """{i: {word: coefficient}} from an ``export xi`` report."""
    out = {}
    for row in report["xi"]:
        vec = {}
        for term in row["terms"]:
            if "coeff_num" in term:
                c = Fraction(term["coeff_num"], term["coeff_den"])
            elif x is not None:
                c = symbolic_at(term["coeff"], x)
            else:
                c = scalar(term["coeff"])
            word = tuple(term["word"])
            expect(word not in vec, f"xi_{row['i']}: word {word} listed twice")
            vec[word] = c
        out[row["i"]] = vec
    return out


def levels_upto(vec, top):
    return {w: c for w, c in vec.items() if len(w) <= top}


# -- the conjugate variables ------------------------------------------------


def check_xi_shape(report, d, top_level):
    expect(sorted(report["xi"], key=lambda r: r["i"]) == report["xi"], "xi rows out of order")
    expect([r["i"] for r in report["xi"]] == list(range(1, d + 1)), "xi rows are not i = 1..d")
    for i, vec in xi_vectors(report, Fraction(1, 2)).items():
        for w in vec:
            expect(len(w) % 2 == 1 and len(w) <= top_level, f"xi_{i}: word {w} at a level it cannot reach")
            expect(all(1 <= a <= d for a in w), f"xi_{i}: letter outside 1..{d} in {w}")


def check_conjugate_relation(report, dq: Deform, series_m):
    """<xi_i, X^u vacuum> = (tau (x) tau)(d_i X^u) for every |u| <= 2M+1."""
    top = 2 * series_m + 1
    mono = Monomials(dq, top)
    pair = Pairing(dq)
    for i, vec in xi_vectors(report).items():
        phi = pair.functional(vec)
        for u in fockref.words_upto(dq.d, top):
            lhs = sum(phi.get(v, 0) * c for v, c in mono.vec[u].items())
            rhs = mono.tau_tensor_tau_derivative(i, u)
            expect(lhs == rhs, f"<xi_{i}, X^{u} vacuum> = {lhs}, (tau x tau)(d_{i} X^u) = {rhs}")


def check_one_variable_xi(report, dq: Deform, series_m):
    """With q_ij = 0 off the diagonal each xi_i is the one-letter conjugate
    variable at q_ii, in the letter i alone."""
    for i, vec in xi_vectors(report).items():
        q = dq.q(i, i)
        want = {(i,) * (2 * m + 1): fockref.one_variable_xi(m, q) for m in range(series_m + 1)}
        want = {w: c for w, c in want.items() if c}
        expect(vec == want, f"xi_{i} is not the one-variable series at q={q}: {vec}")


def check_symbolic_matches(symbolic, exact, x):
    """The formal-q export evaluated at x equals the exact export at x,
    on the levels the formal one reaches."""
    top = 2 * symbolic["config"]["series_m"] + 1
    sym = xi_vectors(symbolic, x)
    ref = xi_vectors(exact)
    expect(set(sym) == set(ref), "symbolic and exact exports have different indices")
    for i in sym:
        want = levels_upto(ref[i], top)
        got = {w: c for w, c in sym[i].items() if c}
        expect(got == want, f"symbolic xi_{i} at q={x} differs from the exact export")


def check_float_matches(floating, exact):
    """Float coefficients agree with the exact ones to FLOAT_TOL."""
    got, want = xi_vectors(floating), xi_vectors(exact)
    expect(set(got) == set(want), "float and exact exports have different indices")
    for i in got:
        for w in set(got[i]) | set(want[i]):
            g = float(got[i].get(w, 0.0))
            e = want[i].get(w, Fraction(0))
            expect(
                abs(g - float(e)) <= FLOAT_TOL * max(1.0, abs(float(e))),
                f"float xi_{i}[{w}] = {g!r}, exact {e}",
            )


# -- Fisher information and the Gibbs potential ----------------------------


def fisher_values(report):
    rows = report["fisher"]
    expect([r["M"] for r in rows] == list(range(len(rows))), "fisher rows are not M = 0..")
    for r in rows:
        expect(r["tail_bound"] > 0 and math.isfinite(r["tail_bound"]), f"fisher tail at M={r['M']}")
    return [scalar(r["value"]) for r in rows]


def check_fisher_one_variable(report, q):
    for m, value in enumerate(fisher_values(report)):
        want = fockref.one_variable_fisher(m, q)
        expect(value == want, f"fisher M={m}: {value}, closed form {want}")
        expect(abs(report["fisher"][m]["value_float"] - float(want)) <= 1e-12 * float(want), f"fisher M={m} float value")


def check_fisher_from_xi(report, xi_report, dq: Deform):
    """Fisher at M is sum_i <xi_i, xi_i> over the levels up to 2M+1."""
    pair = Pairing(dq)
    xi = xi_vectors(xi_report)
    for m, value in enumerate(fisher_values(report)):
        want = sum(pair.inner(levels_upto(v, 2 * m + 1), levels_upto(v, 2 * m + 1)) for v in xi.values())
        expect(value == want, f"fisher M={m}: {value}, sum of <xi_i, xi_i> {want}")


def check_gibbs(report, xi_report, dq: Deform, series_m):
    """The potential is sum_i sum_w P_i[w]/(2(1+|w|)) (X^{iw} + X^{wi}) for
    the Wick polynomials P_i of xi_i, and the reported residuals are the
    per-degree largest |D_i V - P_i|."""
    mono = Monomials(dq, 2 * series_m + 1)
    polys = {i: fockref.wick_transform(mono, v) for i, v in xi_vectors(xi_report).items()}
    want = {}
    for i, poly in polys.items():
        for w, c in poly.items():
            scale = c / (2 * (1 + len(w)))
            fockref.add_term(want, (i,) + w, scale)
            fockref.add_term(want, w + (i,), scale)
    got = {}
    for term in report["terms"]:
        word = tuple(term["word"])
        expect(word not in got, f"potential term {word} listed twice")
        got[word] = scalar(term["coeff"])
    expect(got == want, "Gibbs potential differs from the one built from xi")
    worst = {k: Fraction(0) for k in range(2 * series_m + 1)}
    for i, poly in polys.items():
        diff = fockref.cyclic_derivative(i, want)
        for w, c in poly.items():
            fockref.add_term(diff, w, -c)
        for w, c in diff.items():
            if len(w) in worst:
                worst[len(w)] = max(worst[len(w)], abs(c))
    reported = {int(k): scalar(v) for k, v in report["gradient_residuals"].items()}
    expect(reported == worst, f"gradient residuals {reported}, recomputed {worst}")


# -- verification reports --------------------------------------------------


def check_verify(report, names, values=None):
    """A passing report with exactly the named checks, and the given values."""
    got = [c["check"] for c in report["checks"]]
    expect(sorted(got) == sorted(names), f"checks {got}, expected {sorted(names)}")
    for c in report["checks"]:
        expect(c["pass"] is True, f"check {c['check']} did not pass: {c['value']!r}")
        if values and c["check"] in values:
            expect(c["value"] == values[c["check"]], f"check {c['check']}: {c['value']!r}, expected {values[c['check']]!r}")
    expect(report["pass"] is True, "report does not pass")


def word_count(d, top):
    return sum(d**n for n in range(top + 1))


def check_duality_report(report, d, level, series_m):
    top = min(level, series_m + 2)
    check_verify(report, ["duality/pairing"], {"duality/pairing": f"{word_count(d, top) * d} monomials"})


def check_commutator_report(report, d):
    names = [f"commutator/i={i},j={j}" for i in range(1, d + 1) for j in range(1, d + 1)]
    check_verify(report, names, {n: 0 for n in names})


def check_agree_report(report, suite, d, level):
    if suite == "dual-agree":
        value = f"{word_count(d, min(level, 6)) * d} words"
    elif suite == "wick-agree":
        value = f"{word_count(d, min(level, 6))} words"
    else:
        value = f"{word_count(d, min(level, 5)) * d} pairs"
    name = f"{suite}/strategies"
    check_verify(report, [name], {name: value})


def check_bounds_report(report, level):
    names = [f"bounds/gram-domination m={m}" for m in range(min(4, level - 1) + 1)]
    names += ["bounds/right-annihilation-norm", "bounds/haagerup"]
    names += [f"bounds/tail-{s}" for s in ("xi", "fisher", "gibbs", "lipschitz")]
    check_verify(report, names)
    for c in report["checks"]:
        if c["check"].startswith("bounds/tail-"):
            # an arbitrary-precision float written as text; it may be far beyond double range
            expect(isinstance(c["value"], str) and Decimal(c["value"]).is_finite() and Decimal(c["value"]) > 0, f"{c['check']} = {c['value']!r}")
        if c["check"] == "bounds/right-annihilation-norm":
            expect(0 < c["value"] <= c["params"]["bound"] + 1e-9, "right-annihilation norm above its bound")


def check_univar_report(report):
    names = [f"univar/trace-even n={n}" for n in range(4)]
    names += [f"univar/trace-odd n={n}" for n in range(1, 3)]
    names += [f"univar/rescale n={n}" for n in range(1, 7)]
    names += [f"univar/q-identity m={m}" for m in range(4)]
    names += ["univar/free-case-hermite"]
    values = {f"univar/trace-even n={n}": {"poly": [0] * (n * (n + 1) // 2) + [(-1) ** n]} for n in range(4)}
    check_verify(report, names, values)


# -- diagrams ----------------------------------------------------------------


def involutions(n):
    a, b = 1, 1
    for k in range(1, n):
        a, b = b, b + k * a
    return b if n else 1


def family_count(family, n_vertices):
    """Diagram counts from the family rules: vertex 0 pairs with k, each of
    1..k-1 pairs with a distinct vertex above k (B), or may stay single (C)."""
    if family == "D":
        return involutions(n_vertices)
    n = n_vertices - 1
    if family == "B":
        return sum(math.perm(n - k, k - 1) for k in range(1, n + 1))
    return sum(
        math.comb(k - 1, j) * math.perm(n - k, j) for k in range(1, n + 1) for j in range(k)
    )


def _height(family, pair):
    a = pair[0]
    if family == "D":
        return a
    return 1 if a == 0 else a + 1


def interval_crossings(family, blocks):
    """A higher pair meets a lower one once per endpoint strictly inside the
    lower one's span; a singleton meets every pair whose span holds it."""
    pairs = [tuple(b) for b in blocks if len(b) == 2]
    singles = [b[0] for b in blocks if len(b) == 1]
    total = 0
    for low in pairs:
        a, b = min(low), max(low)
        for high in pairs:
            if _height(family, high) > _height(family, low):
                total += sum(1 for v in high if a < v < b)
        total += sum(1 for s in singles if a < s < b)
    return total


def _valid_blocks(family, n_vertices, blocks):
    verts = sorted(v for b in blocks for v in b)
    first = 1 if family == "D" else 0
    if verts != list(range(first, first + n_vertices)):
        return False
    if any(len(b) not in (1, 2) for b in blocks):
        return False
    if family == "D":
        return True
    partner = {b[0]: b[1] for b in blocks if len(b) == 2}
    k = partner.get(0)
    if k is None:
        return False
    for low in range(1, k):
        if low in partner:
            if partner[low] <= k:
                return False
        elif family == "B":
            return False
    return all(v < k for v in partner if v != 0) and all(t > k for v, t in partner.items() if v != 0)


def check_partitions(report, family, n_vertices):
    rows = report["partitions"]
    want = family_count(family, n_vertices)
    expect(len(rows) == want, f"family {family}, n={n_vertices}: {len(rows)} diagrams, expected {want}")
    seen = set()
    for row in rows:
        blocks = tuple(tuple(b) for b in row["blocks"])
        expect(row["family"] == family and row["n"] == n_vertices, f"row {row} has the wrong family or size")
        expect(_valid_blocks(family, n_vertices, blocks), f"blocks {blocks} break the family-{family} rules")
        key = frozenset(blocks)
        expect(key not in seen, f"diagram {blocks} listed twice")
        seen.add(key)
        want_cross = interval_crossings(family, blocks)
        expect(row["crossings"] == want_cross, f"{blocks}: {row['crossings']} crossings, interval rule {want_cross}")


# -- float series ------------------------------------------------------------


def check_tails(result):
    """Every tail bound is finite and positive (its log10 is a finite float)
    and does not grow with M; over M = 0..top it falls strictly unless the
    bound sits at a peak far beyond top (strong deformation), where the
    values agree to working precision."""
    for series, logs in result["log10_tails"].items():
        expect(len(logs) >= 2, f"{series}: fewer than two truncations")
        for m, b in enumerate(logs):
            expect(isinstance(b, float) and math.isfinite(b), f"{series} tail at M={m} is not finite and positive: log10 {b!r}")
        for m in range(1, len(logs)):
            expect(logs[m] <= logs[m - 1], f"{series} tail grows at M={m}")
        if series.endswith("q0=0.5"):
            expect(logs[-1] < logs[0], f"{series} tail does not fall from M=0 to M={len(logs) - 1}")


def _gauss_binom(n, k, q):
    """Gaussian binomial by its product form, in floats."""
    out = 1.0
    for j in range(1, k + 1):
        out *= (1.0 - q ** (n - k + j)) / (1.0 - q**j)
    return out


def check_q_identity(result):
    """The binomial summation (1-q)^{m+1} sum_{m<=n<=N} q^{(n+1)(n-m)}
    (1+q^{n+1}) binom(n+m+1, n-m)_q against [m]!/[2m+1]!: the reported tail
    bound and rounding bound are recomputed here from their stated forms,
    and both the reported residual and the one summed here stay within them."""
    m, q, n_top = result["m"], result["q"], result["N"]
    terms = [
        q ** ((n + 1) * (n - m)) * (1.0 + q ** (n + 1)) * _gauss_binom(n + m + 1, n - m, q)
        for n in range(m, n_top + 1)
    ]
    pref = (1.0 - q) ** (m + 1)
    rhs = float(fockref.q_fact(m, Fraction(q)) / fockref.q_fact(2 * m + 1, Fraction(q)))
    noise = (n_top - m + 4) * 2.0**-52 * (abs(pref) * sum(abs(t) for t in terms) + abs(rhs))
    x, gap = abs(q), 1.0 - abs(q)
    tail = 2.0 * abs(1.0 - q) ** (m + 1) * (x ** (n_top + 2) / gap) ** (n_top + 1 - m)
    tail /= 1.0 - x ** (2 * n_top + 4 - m) / gap
    expect(math.isclose(result["tail_bound"], tail, rel_tol=1e-9, abs_tol=1e-300), f"tail bound {result['tail_bound']!r}, recomputed {tail!r}")
    expect(math.isclose(result["noise_bound"], noise, rel_tol=1e-6), f"rounding bound {result['noise_bound']!r}, recomputed {noise!r}")
    limit = tail + noise
    expect(0 <= result["residual"] <= limit, f"residual {result['residual']!r} beyond {limit!r}")
    own = abs(pref * sum(terms) - rhs)
    expect(own <= limit, f"the identity itself misses by {own!r}, beyond {limit!r}")
