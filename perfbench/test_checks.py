"""Tests of the benchmark's own checks: each passes on qfock's real output
and fails once a single value of that output is perturbed.

    python3 -m pytest -q perfbench
"""

import contextlib
import copy
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import fockref  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from fockref import Deform  # noqa: E402

import qfock.cli  # noqa: E402

MIXED = [[Fraction(1, 3), Fraction(-2, 5)], [Fraction(-2, 5), Fraction(3, 7)]]
DIAGONAL = [[Fraction(-1, 3), Fraction(0)], [Fraction(0), Fraction(3, 7)]]


def qfock_json(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        qfock.cli.main(list(argv))
    return json.loads(buf.getvalue())


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("matrices")
    files = {}
    for name, m in (("mixed", MIXED), ("diagonal", DIAGONAL)):
        path = tmp / f"{name}.json"
        path.write_text(json.dumps({"d": 2, "entries": [[str(v) for v in row] for row in m]}))
        files[name] = str(path)
    return files


def fails(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)


def bump_xi(report, k=1, delta=Fraction(1, 1000)):
    """Add delta to the k-th term of xi_1."""
    out = copy.deepcopy(report)
    term = out["xi"][0]["terms"][k]
    if "coeff_num" in term:
        c = Fraction(term["coeff_num"], term["coeff_den"]) + delta
        term["coeff_num"], term["coeff_den"] = c.numerator, c.denominator
    else:
        term["coeff"] = term["coeff"] * (1 + float(delta))
    return out


class TestConjugateVariables:
    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(-1, 2)])
    def test_conjugate_relation_constant(self, q):
        rep = qfock_json("export", "xi", "--d", "2", "--level", "5", "--series-m", "2", f"--q={q}")
        dq = Deform.constant(2, q)
        checks.check_xi_shape(rep, 2, 5)
        checks.check_conjugate_relation(rep, dq, 2)
        for k in range(len(rep["xi"][0]["terms"])):
            fails(checks.check_conjugate_relation, bump_xi(rep, k), dq, 2)

    def test_conjugate_relation_mixed(self, matrix_files):
        rep = qfock_json("export", "xi", "--d", "2", "--level", "5", "--series-m", "2", "--q-matrix", matrix_files["mixed"])
        checks.check_conjugate_relation(rep, Deform(MIXED), 2)
        fails(checks.check_conjugate_relation, bump_xi(rep, 2), Deform(MIXED), 2)

    def test_shape_rejects_a_word_out_of_reach(self):
        rep = qfock_json("export", "xi", "--d", "2", "--level", "3", "--series-m", "1")
        bad = copy.deepcopy(rep)
        bad["xi"][0]["terms"][0]["word"] = [1, 1]
        fails(checks.check_xi_shape, bad, 2, 3)

    def test_diagonal_matrix_gives_one_variable_series(self, matrix_files):
        rep = qfock_json("export", "xi", "--d", "2", "--level", "5", "--series-m", "2", "--q-matrix", matrix_files["diagonal"])
        checks.check_one_variable_xi(rep, Deform(DIAGONAL), 2)
        fails(checks.check_one_variable_xi, bump_xi(rep, 1), Deform(DIAGONAL), 2)

    def test_symbolic_matches_exact(self):
        sym = qfock_json("export", "xi", "--mode", "symbolic", "--d", "2", "--level", "3", "--series-m", "1")
        exact = qfock_json("export", "xi", "--d", "2", "--level", "5", "--series-m", "2", "--q=-1/2")
        checks.check_symbolic_matches(sym, exact, Fraction(-1, 2))
        bad = copy.deepcopy(sym)
        for term in bad["xi"][0]["terms"]:
            if "coeff" in term:
                term["coeff"]["num"][0] = str(Fraction(term["coeff"]["num"][0]) + 1)
                break
        fails(checks.check_symbolic_matches, bad, exact, Fraction(-1, 2))
        fails(checks.check_symbolic_matches, sym, bump_xi(exact, 0), Fraction(-1, 2))

    def test_float_matches_exact(self):
        args = ["export", "xi", "--d", "2", "--level", "5", "--series-m", "2", "--q=4/5"]
        exact = qfock_json(*args)
        flt = qfock_json(*args, "--mode", "float")
        checks.check_float_matches(flt, exact)
        fails(checks.check_float_matches, bump_xi(flt, 3, Fraction(1, 10**7)), exact)


class TestFisherAndGibbs:
    @pytest.mark.parametrize("q", ["1/2", "-1/2"])
    def test_one_variable_fisher(self, q):
        rep = qfock_json("export", "fisher", "--d", "1", "--level", "7", "--series-m", "3", f"--q={q}")
        checks.check_fisher_one_variable(rep, Fraction(q))
        for field in ("value", "value_float"):
            bad = copy.deepcopy(rep)
            row = bad["fisher"][2]
            row[field] = str(Fraction(row[field]) + Fraction(1, 10**6)) if field == "value" else row[field] * (1 + 1e-9)
            fails(checks.check_fisher_one_variable, bad, Fraction(q))

    def test_fisher_from_xi(self, matrix_files):
        args = ["--d", "2", "--level", "5", "--series-m", "2", "--q-matrix", matrix_files["mixed"]]
        fisher, xi = qfock_json("export", "fisher", *args), qfock_json("export", "xi", *args)
        checks.check_fisher_from_xi(fisher, xi, Deform(MIXED))
        bad = copy.deepcopy(fisher)
        bad["fisher"][1]["value"] = str(Fraction(bad["fisher"][1]["value"]) * Fraction(1001, 1000))
        fails(checks.check_fisher_from_xi, bad, xi, Deform(MIXED))

    def test_gibbs(self, matrix_files):
        args = ["--d", "2", "--level", "5", "--series-m", "2", "--q-matrix", matrix_files["mixed"]]
        gibbs, xi = qfock_json("export", "gibbs", *args), qfock_json("export", "xi", *args)
        checks.check_gibbs(gibbs, xi, Deform(MIXED), 2)
        bad = copy.deepcopy(gibbs)
        bad["terms"][3]["coeff"] = str(Fraction(bad["terms"][3]["coeff"]) + 1)
        fails(checks.check_gibbs, bad, xi, Deform(MIXED), 2)
        bad = copy.deepcopy(gibbs)
        bad["gradient_residuals"]["2"] = "1/1000"
        fails(checks.check_gibbs, bad, xi, Deform(MIXED), 2)


class TestReports:
    def test_duality(self):
        rep = qfock_json("verify", "duality", "--d", "2", "--level", "5", "--series-m", "2")
        checks.check_duality_report(rep, 2, 5, 2)
        bad = copy.deepcopy(rep)
        bad["checks"][0]["value"] = "61 monomials"
        fails(checks.check_duality_report, bad, 2, 5, 2)

    def test_strategy_agreement(self):
        for suite in ("dual-agree", "wick-agree", "derivative-agree"):
            rep = qfock_json("verify", suite, "--d", "2", "--level", "4")
            checks.check_agree_report(rep, suite, 2, 4)
            bad = copy.deepcopy(rep)
            bad["checks"][0]["pass"] = False
            fails(checks.check_agree_report, bad, suite, 2, 4)
        rep = qfock_json("verify", "commutator", "--d", "2", "--level", "4")
        checks.check_commutator_report(rep, 2)
        bad = copy.deepcopy(rep)
        bad["checks"][1]["value"] = "1/3"
        fails(checks.check_commutator_report, bad, 2)

    def test_bounds(self):
        rep = qfock_json("verify", "bounds", "--d", "3", "--q", "9/10", "--level", "4")
        checks.check_bounds_report(rep, 4)
        for name, value in (("bounds/tail-xi", "-2.5"), ("bounds/right-annihilation-norm", 1e3)):
            bad = copy.deepcopy(rep)
            next(c for c in bad["checks"] if c["check"] == name)["value"] = value
            fails(checks.check_bounds_report, bad, 4)

    def test_univar(self):
        rep = qfock_json("verify", "univar", "--q", "9/10")
        checks.check_univar_report(rep)
        bad = copy.deepcopy(rep)
        next(c for c in bad["checks"] if c["check"] == "univar/trace-even n=2")["value"] = {"poly": [0, 0, 0, 2]}
        fails(checks.check_univar_report, bad)


class TestDiagrams:
    def test_involution_numbers(self):
        assert [checks.involutions(n) for n in range(10)] == [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620]

    @pytest.mark.parametrize("family,n", [("B", 7), ("C", 7), ("D", 6)])
    def test_partitions(self, family, n):
        rep = qfock_json("export", "partitions", "--family", family, "--n", str(n))
        checks.check_partitions(rep, family, n)
        crossing = next(k for k, row in enumerate(rep["partitions"]) if row["crossings"])
        for change in ("crossings", "drop", "blocks"):
            bad = copy.deepcopy(rep)
            if change == "crossings":
                bad["partitions"][crossing]["crossings"] += 1
            elif change == "drop":
                bad["partitions"].pop()
            else:
                bad["partitions"][1]["blocks"] = bad["partitions"][0]["blocks"]
            fails(checks.check_partitions, bad, family, n)


class TestFloatSeries:
    def test_tails(self):
        res = worker.LIB_CALLS["tails"]({"q0s": [0.5, 0.95], "d": 3, "top": 6})
        checks.check_tails(res)
        for key, m, value in (("xi q0=0.5", 2, 10.0), ("gibbs q0=0.95", 1, None), ("fisher q0=0.5", 3, None)):
            bad = copy.deepcopy(res)
            bad["log10_tails"][key][m] = value if value is not None else bad["log10_tails"][key][m - 1] + 1e-6
            fails(checks.check_tails, bad)

    def test_q_identity(self):
        res = worker.LIB_CALLS["q_identity"]({"m": 3, "q": -0.9, "N": 200})
        checks.check_q_identity(res)
        for field, factor in (("tail_bound", 2.0), ("noise_bound", 1.001), ("residual", 1e6)):
            bad = dict(res)
            bad[field] = res[field] * factor if res[field] else 1e-3
            fails(checks.check_q_identity, bad)


class TestFockReference:
    def test_moments_of_one_letter_are_touchard_riordan(self):
        q = Fraction(1, 3)
        mono = fockref.Monomials(Deform.constant(1, q), 6)
        # tau(X^4) = 2 + q, tau(X^6) = 5 + 6q + 3q^2 + q^3
        assert mono.tau((1,) * 4) == 2 + q
        assert mono.tau((1,) * 6) == 5 + 6 * q + 3 * q**2 + q**3

    def test_pairing_is_symmetric(self):
        pair = fockref.Pairing(Deform(MIXED))
        for w in fockref.words(2, 4):
            for v in fockref.words(2, 4):
                assert pair.basis(w, v) == pair.basis(v, w)


class TestTracing:
    def test_rebinds_every_module_and_reports_absent_names(self, monkeypatch):
        import qfock.dual
        import qfock.ncpoly

        original = qfock.dual.conjugate_series
        monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [("fock", "FockSpace.no_such_method", "fock.none")])
        tracer = tracing.Tracer()
        try:
            tracer.install()
            assert qfock.cli.conjugate_series is qfock.ncpoly.conjugate_series is qfock.dual.conjugate_series
            assert qfock.cli.conjugate_series is not original
            tracer.span("op", lambda: qfock.cli.main(["export", "xi", "--d", "1", "--level", "3", "--series-m", "1", "--out", "/dev/null"]))
        finally:
            tracer.uninstall()
        assert qfock.cli.conjugate_series is original
        summary = tracer.summary()
        assert summary["absent"] == ["qfock.fock.FockSpace.no_such_method"]
        assert summary["names"]["dual.conjugate_series"]["calls"] == 1
        assert summary["names"]["fock.adjoint"]["calls"] > 0
        assert summary["names"]["op"]["self_s"] >= 0


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "diagrams", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
