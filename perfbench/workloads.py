"""The four workloads: their operations, seeded inputs and output checks.

A workload is a round of operations that every run repeats whole. Inputs
that depend on the seed are chosen so that the cost of an operation does
not: a seed flips signs and permutes letters, and leaves the magnitudes of
the deformation entries alone. The two operations that fail today
(``verify gibbs`` and ``verify bounds --d 2 --q 1/2``) take no seeded input.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import checks
from fockref import Deform


@dataclass
class Op:
    name: str
    kind: str  # "cli" or "lib"
    argv: list = field(default_factory=list)
    call: str = ""
    params: dict = field(default_factory=dict)
    check: object = None  # check(outputs of the round) -> None, or raises
    reference: bool = False  # run once per run to feed a check; not measured


def cli(name, argv, check=None, reference=False):
    return Op(name, "cli", argv=argv, check=check, reference=reference)


def _sign(rng):
    return rng.choice((1, -1))


def _q_text(q):
    # argparse reads "--q -1/2" as an option, so the value is glued on
    return f"--q={q}"


def exact_constant(rng, tmp):
    q_xi2 = Fraction(_sign(rng), 2)
    q_xi3 = Fraction(_sign(rng), 2)
    q_dual = Fraction(_sign(rng), 2)

    def xi_check(name, q, d, m):
        def check(out):
            checks.check_xi_shape(out[name], d, 2 * m + 1)
            checks.check_conjugate_relation(out[name], Deform.constant(d, q), m)
        return check

    def fisher_check(name, q):
        return lambda out: checks.check_fisher_one_variable(out[name], q)

    return [
        cli("xi-d2", ["export", "xi", "--d", "2", "--level", "7", "--series-m", "3", _q_text(q_xi2)], xi_check("xi-d2", q_xi2, 2, 3)),
        cli("xi-d3", ["export", "xi", "--d", "3", "--level", "5", "--series-m", "2", _q_text(q_xi3)], xi_check("xi-d3", q_xi3, 3, 2)),
        cli("fisher-d1+", ["export", "fisher", "--d", "1", "--level", "9", "--series-m", "4", "--q=1/2"], fisher_check("fisher-d1+", Fraction(1, 2))),
        cli("fisher-d1-", ["export", "fisher", "--d", "1", "--level", "9", "--series-m", "4", "--q=-1/2"], fisher_check("fisher-d1-", Fraction(-1, 2))),
        cli(
            "xi-symbolic",
            ["export", "xi", "--mode", "symbolic", "--d", "2", "--level", "5", "--series-m", "2"],
            lambda out: checks.check_symbolic_matches(out["xi-symbolic"], out["xi-d2"], q_xi2),
        ),
        cli(
            "duality",
            ["verify", "duality", "--d", "2", "--level", "5", "--series-m", "2", _q_text(q_dual)],
            lambda out: checks.check_duality_report(out["duality"], 2, 5, 2),
        ),
        cli("gibbs-d2-failing", ["verify", "gibbs", "--d", "2", "--level", "7", "--series-m", "3"]),
    ]


# magnitudes of the mixed entries; a seed only flips signs and permutes letters
DIAG = (Fraction(1, 3), Fraction(3, 7), Fraction(2, 3))
OFF = (Fraction(2, 5), Fraction(1, 7), Fraction(1, 5))


def mixed_matrix(rng, d, off=True):
    letters = list(range(d))
    rng.shuffle(letters)
    m = [[Fraction(0)] * d for _ in range(d)]
    for k, a in enumerate(letters):
        m[a][a] = _sign(rng) * DIAG[k]
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    for k, (a, b) in enumerate(pairs):
        m[a][b] = m[b][a] = _sign(rng) * OFF[k] if off else Fraction(0)
    return m


def _write_matrix(tmp, name, m):
    path = tmp / f"{name}.json"
    path.write_text(json.dumps({"d": len(m), "entries": [[str(v) for v in row] for row in m]}))
    return str(path)


def exact_mixed(rng, tmp):
    a, b, z = mixed_matrix(rng, 2), mixed_matrix(rng, 3), mixed_matrix(rng, 2, off=False)
    pa, pb, pz = (_write_matrix(tmp, n, m) for n, m in (("mixed-a", a), ("mixed-b", b), ("mixed-z", z)))
    da, db, dz = Deform(a), Deform(b), Deform(z)

    def xi_check(name, dq, m, zero_off=False):
        def check(out):
            checks.check_xi_shape(out[name], dq.d, 2 * m + 1)
            checks.check_conjugate_relation(out[name], dq, m)
            if zero_off:
                checks.check_one_variable_xi(out[name], dq, m)
        return check

    l7 = ["--level", "7", "--series-m", "3"]
    return [
        cli("xi-a", ["export", "xi", "--d", "2", *l7, "--q-matrix", pa], xi_check("xi-a", da, 3)),
        cli("fisher-a", ["export", "fisher", "--d", "2", *l7, "--q-matrix", pa], lambda out: checks.check_fisher_from_xi(out["fisher-a"], out["xi-a"], da)),
        cli("gibbs-a", ["export", "gibbs", "--d", "2", *l7, "--q-matrix", pa], lambda out: checks.check_gibbs(out["gibbs-a"], out["xi-a"], da, 3)),
        cli("xi-b", ["export", "xi", "--d", "3", "--level", "5", "--series-m", "2", "--q-matrix", pb], xi_check("xi-b", db, 2)),
        cli("xi-z", ["export", "xi", "--d", "2", *l7, "--q-matrix", pz], xi_check("xi-z", dz, 3, zero_off=True)),
        cli(
            "duality-a",
            ["verify", "duality", "--d", "2", "--level", "5", "--series-m", "2", "--q-matrix", pa],
            lambda out: checks.check_duality_report(out["duality-a"], 2, 5, 2),
        ),
    ]


def diagrams(rng, tmp):
    q = _q_text(Fraction(_sign(rng), 2))

    def parts(family, n):
        name = f"partitions-{family}{n}"
        return cli(name, ["export", "partitions", "--family", family, "--n", str(n)], lambda out: checks.check_partitions(out[name], family, n))

    def suite(name, check):
        return cli(name, ["verify", name, "--d", "3", "--level", "6", q], lambda out: check(out[name]))

    return [
        parts("D", 8),
        parts("C", 10),
        parts("B", 11),
        suite("commutator", lambda r: checks.check_commutator_report(r, 3)),
        suite("dual-agree", lambda r: checks.check_agree_report(r, "dual-agree", 3, 6)),
        suite("wick-agree", lambda r: checks.check_agree_report(r, "wick-agree", 3, 6)),
        suite("derivative-agree", lambda r: checks.check_agree_report(r, "derivative-agree", 3, 6)),
    ]


def float_numerics(rng, tmp):
    # at |q| = 9/10 float mode misses the exact xi by 3.3e-9 (see CHANGES.md)
    q = Fraction(_sign(rng) * 4, 5)
    q_id = _sign(rng) * 0.9
    xi_args = ["export", "xi", "--d", "2", "--level", "7", "--series-m", "3", _q_text(q)]
    return [
        cli("xi-exact-reference", xi_args, reference=True),
        cli("xi-float", xi_args[:2] + ["--mode", "float"] + xi_args[2:], lambda out: checks.check_float_matches(out["xi-float"], out["xi-exact-reference"])),
        cli("bounds-d3", ["verify", "bounds", "--d", "3", "--q", "9/10", "--seed", str(rng.randrange(1000))], lambda out: checks.check_bounds_report(out["bounds-d3"], 6)),
        cli("univar", ["verify", "univar", "--q", "9/10"], lambda out: checks.check_univar_report(out["univar"])),
        Op("q-identity", "lib", call="q_identity", params={"m": 3, "q": q_id, "N": 600}, check=lambda out: checks.check_q_identity(out["q-identity"])),
        Op("tails", "lib", call="tails", params={"q0s": [0.5, 0.95], "d": 3, "top": 6}, check=lambda out: checks.check_tails(out["tails"])),
        cli("bounds-d2-failing", ["verify", "bounds", "--d", "2", "--q", "1/2"]),
    ]


WORKLOADS = {
    "exact-constant": exact_constant,
    "exact-mixed": exact_mixed,
    "diagrams": diagrams,
    "float-numerics": float_numerics,
}


def build(name, seed, tmp):
    return WORKLOADS[name](random.Random(f"{name}/{seed}"), tmp)
