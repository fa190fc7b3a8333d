import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfock.cli
import qfock.fock
import qfock.ncpoly
import qfock.norms
import qfock.onevariable
from qfock import (
    Deformation,
    FockSpace,
    FockVector,
    gram_domination_residual,
    enumerate_family,
    hermite,
    projected_domination,
    q_factorial,
    right_annihilation_norm,
)
from qfock.cli import main


# a mixed matrix with a zero entry, whose letters give distinct norm checks
BOUNDS_MATRIX = [["1/2", "-1/3", "0"], ["-1/3", "-1/5", "2/7"], ["0", "2/7", "3/4"]]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# the refusals of runs that exit 2 before any space is built, each with the
# start of its message
REFUSALS = [
    ("verify commutator --level 0", "commutator suite needs level >= 1"),
    ("verify all --d 2 --level 3 --series-m 2", "duality suite needs level >= 2*series_m + 1"),
    ("verify gibbs --d 2 --level 3 --series-m 2", "gibbs suite needs level >= 2*series_m + 1"),
    ("verify all --d 2 --level 5 --q 997/1000", "series tail gibbs at |q| = 0.997"),
    ("verify univar --q=9999999/10000000", "the q-identity at |q| = 0.9999999 needs a truncation of"),
    # an export's own needs come before the constants, which fail from |q| ~ 0.99768
    ("export xi --level 3 --series-m 2 --q 999/1000", "xi export needs level >= 2*series_m + 1"),
    ("export xi --format csv --q 0 --level 7 --series-m 3", "xi export has no tabular form; use json"),
    ("export gibbs --format csv", "gibbs export has no tabular form; use json"),
    ("export partitions --family B --n 0", "family B needs --n >= 1"),
    ("export fisher --mode symbolic", "fisher export needs numeric entries"),
    ("export xi --level 3 --series-m 2", "xi export needs level >= 2*series_m + 1"),
    # no letters: the deformation matrix would be empty
    ("export xi --d 0 --level 5", "d must be at least 1"),
    ("verify bounds --d 0", "d must be at least 1"),
    # runs predicted to take too long, with their predicted seconds and peak
    ("export xi --d 2 --level 17 --series-m 8", "xi export is predicted to take 33.3 s and 95 MB, above the limit of 20 s"),
    ("export fisher --d 2 --level 17 --series-m 8", "fisher export is predicted to take 32.4 s and 95 MB, above the limit of 20 s"),
    ("export xi --mode symbolic --d 2 --level 11 --series-m 5", "xi export is predicted to take 63.2 s and 36 MB, above the limit of 20 s"),
    ("verify all --d 3 --level 13 --series-m 6", "all suite is predicted to take 1.46e+03 s and 641 MB (commutator 0.078 s, "),
    ("export xi --d 3 --level 13 --series-m 6", "xi export is predicted to take 55.1 s and 641 MB, above the limit of 20 s"),
    ("verify gibbs --d 3 --level 11 --series-m 5", "gibbs suite is predicted to take 92 s and 95 MB, above the limit of 20 s"),
    # every word of the level is charged, not only the written ones
    ("export xi --d 40 --level 5 --series-m 2", "xi export is predicted to take 88.1 s and 22,563 MB, above the limit of 20 s"),
    # far past the limit the price is not formed in full, and is never a traceback
    ("export xi --d 2 --level 2001 --series-m 1000", "xi export is predicted to take inf s and inf MB, above the limit of 20 s"),
    # per-word suites with too many cases
    ("verify commutator --d 12 --level 6", "commutator suite is predicted to take 279 s and 35 MB, above the limit of 20 s"),
    ("verify duality --d 40 --level 5 --series-m 1", "duality suite is predicted to take 184 s and 47 MB, above the limit of 20 s"),
    # a Gram level too large to build
    ("verify bounds --d 9 --level 9", "bounds suite is predicted to take 33.7 s and 35 MB, above the limit of 20 s"),
    # within the time, but its word table would not fit in memory
    ("export xi --d 10 --level 7 --series-m 3", "xi export is predicted to take 14.7 s and 2,635 MB, above the limit of 1,500 MB"),
    # every suite is within the limit on its own, but not all of them in one run
    ("verify all --d 7 --level 6 --series-m 2", "all suite is predicted to take 41.7 s and 39 MB (commutator 11 s, dual-agree 17 s, "),
    # integers of n^2/2 log2 s bits at s = 999,999, which measures 24-26 s
    ("export xi --d 2 --level 13 --series-m 6 --q=-123457/999999", "xi export is predicted to take 29.5 s and 38 MB, above the limit of 20 s"),
    ("export hermite --n -1", "hermite export needs --n >= 0"),
    # coefficients past 4,300 digits, which measures 51 s and 372 MB
    ("export hermite --n 400 --q 1/2", "hermite export is predicted to take 57.5 s and 517 MB, above the limit of 20 s"),
    ("export hermite --n 100 --mode symbolic", "hermite export is predicted to take 89.1 s and 185 MB, above the limit of 20 s"),
    # 442,194 diagrams, which measures 69 s and 4,771 MB
    ("export partitions --family B --n 18", "partitions export is predicted to take 67.5 s and 4,620 MB, above the limit of 20 s"),
    ("export partitions --family D --n 13", "partitions export is predicted to take 45.4 s and 3,109 MB, above the limit of 20 s"),
]


class TestVerify:
    def test_commutator_suite_passes(self, capsys):
        code, out = run(
            capsys, "verify", "commutator", "--d", "2", "--q", "1/2", "--level", "5"
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert len(report["checks"]) == 4

    def test_bad_q_exits_two(self, capsys):
        assert main(["verify", "all", "--q", "3/2"]) == 2

    def test_float_q_in_exact_mode_is_parsed_exactly(self, capsys):
        code, out = run(
            capsys, "verify", "commutator", "--q", "0.5", "--level", "4"
        )
        assert code == 0

    def test_symbolic_dual_agree(self, capsys):
        code, out = run(
            capsys,
            "verify",
            "dual-agree",
            "--mode",
            "symbolic",
            "--d",
            "2",
            "--level",
            "5",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_symbolic_with_explicit_q_rejected(self, capsys):
        assert main(["verify", "commutator", "--mode", "symbolic", "--q", "1/2"]) == 2

    def test_unknown_suite_rejected(self, capsys):
        assert main(["verify", "nonsense"]) == 2

    @pytest.mark.parametrize(
        "suite, strategy, expected",
        [
            ("dual-agree", "dual_recursive", "counterexample i=2 w=(1, 2)"),  # D_1 e_12 = 0
            ("wick-agree", "wick_partition", "counterexample w=(1, 2)"),
            ("derivative-agree", "diff_partition", "counterexample i=1 w=(1, 2)"),
        ],
    )
    def test_agreement_names_the_first_counterexample(self, capsys, monkeypatch, suite, strategy, expected):
        right = getattr(qfock.cli, strategy)

        def bent(space, *key):
            value = right(space, *key)
            return value.scaled(2) if key[-1] == (1, 2) else value

        monkeypatch.setattr(qfock.cli, strategy, bent)
        code, out = run(capsys, "verify", suite, "--d", "2", "--level", "4")
        assert code == 1
        (check,) = json.loads(out)["checks"]
        assert (check["value"], check["pass"]) == (expected, False)

    def test_commutator_names_the_broken_letter(self, capsys, monkeypatch):
        right = qfock.dual.dual_partition

        def bent(space, i, w):
            value = right(space, i, w)
            return value.scaled(2) if w == (1, 2) else value  # D_1 e_12 = 0

        monkeypatch.setattr(qfock.dual, "dual_partition", bent)
        code, out = run(capsys, "verify", "commutator", "--d", "2", "--level", "4")
        assert code == 1
        checks = {c["check"]: c for c in json.loads(out)["checks"]}
        assert {name: c["pass"] for name, c in checks.items()} == {
            "commutator/i=1,j=1": True,
            "commutator/i=1,j=2": True,
            "commutator/i=2,j=1": False,
            "commutator/i=2,j=2": False,
        }
        assert all(Fraction(c["value"]) > 0 for c in checks.values() if not c["pass"])

    @pytest.mark.parametrize("suite", ["dual-agree", "commutator"])
    def test_float_nan_fails_its_gate(self, capsys, monkeypatch, suite):
        # a NaN next to a difference within tolerance must not read as a pass
        module, strategy = (qfock.cli, "dual_recursive") if suite == "dual-agree" else (qfock.dual, "dual_partition")
        right = getattr(module, strategy)

        def poisoned(space, i, w):
            value = right(space, i, w)
            return value + FockVector({(): float("nan"), (2,): 1e-13}) if w == (1, 2) else value

        monkeypatch.setattr(module, strategy, poisoned)
        code, out = run(capsys, "verify", suite, "--mode", "float", "--d", "2", "--level", "4")
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        if suite == "dual-agree":
            assert report["checks"][0]["value"] == "counterexample i=1 w=(1, 2)"

    @pytest.mark.parametrize("at", [0, -1], ids=["nan-first", "nan-last"])
    def test_gibbs_nan_fails_its_gate(self, capsys, monkeypatch, at):
        # max keeps a number over a NaN that follows it
        sizes = [1e-13, 1e-13]
        sizes[at] = float("nan")
        monkeypatch.setattr(qfock.cli, "cyclic_commutator", lambda *args: FockVector({(1,): sizes[0], (2,): sizes[1]}))
        code, out = run(capsys, "verify", "gibbs", "--mode", "float", "--d", "2", "--level", "5", "--series-m", "2")
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        checks = {c["check"]: c for c in report["checks"]}
        assert checks["gibbs/cyclic-gradient"]["pass"] is False

    @pytest.mark.parametrize("at", [0, -1], ids=["nan-first", "nan-last"])
    @pytest.mark.parametrize(
        "level,check",
        [(1, "bounds/gram-domination m=0"), (6, "bounds/right-annihilation-norm")],
        ids=["projected", "norm"],
    )
    def test_bounds_nan_fails_its_gate(self, capsys, monkeypatch, tmp_path, level, check, at):
        # a mixed matrix gates the min or max over its three letters; the
        # level-1 gains give c_0, and the level-6 ones only the norm
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"d": 3, "entries": BOUNDS_MATRIX}))
        real, poisoned_letter = qfock.cli.right_gains, [1, 2, 3][at]

        def poisoned(space, n, letters):
            gains = real(space, n, letters)
            return {i: float("nan") if (n, i) == (level, poisoned_letter) else g for i, g in gains.items()}

        monkeypatch.setattr(qfock.cli, "right_gains", poisoned)
        code, out = run(capsys, "verify", "bounds", "--d", "3", "--q-matrix", str(path))
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        checks = {c["check"]: c for c in report["checks"]}
        assert checks[check]["pass"] is False

    @pytest.mark.parametrize("matrix, gains", [(False, 6), (True, 18)], ids=["constant", "float-matrix"])
    def test_bounds_form_one_gain_per_level_and_letter(self, capsys, monkeypatch, tmp_path, matrix, gains):
        # levels 1-6 of letter 1 at constant q, and of all three letters on
        # a matrix; each Gram block is factored once for all its letters
        formed, factored = [], []
        real_gains, real_cholesky = qfock.norms.right_gains, qfock.norms.gram_cholesky

        def counted_gains(space, n, letters):
            formed.extend((n, i) for i in letters)
            return real_gains(space, n, letters)

        def counted_cholesky(rows, what):
            factored.append(what)
            return real_cholesky(rows, what)

        for owner in (qfock.cli, qfock.norms):
            monkeypatch.setattr(owner, "right_gains", counted_gains)
        monkeypatch.setattr(qfock.norms, "gram_cholesky", counted_cholesky)
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"d": 3, "entries": BOUNDS_MATRIX}))
        config = ["--mode", "float", "--q-matrix", str(path)] if matrix else ["--q", "9/10"]
        code, _ = run(capsys, "verify", "bounds", "--d", "3", *config)
        assert code == 0
        assert len(formed) == len(set(formed)) == gains
        assert len(factored) == len(set(factored))

    @pytest.mark.parametrize("suite", ["dual-agree", "wick-agree", "commutator"])
    def test_passing_agreement_forms_no_difference(self, capsys, monkeypatch, suite):
        calls = []
        sub = qfock.fock.WordMap.__sub__

        def counted(self, other):
            calls.append(type(self))
            return sub(self, other)

        monkeypatch.setattr(qfock.fock.WordMap, "__sub__", counted)
        code, _ = run(capsys, "verify", suite, "--d", "2", "--level", "4")
        assert code == 0
        assert calls == []
        FockVector.basis((1,)) - FockVector.basis((2,))
        assert calls == [FockVector]

    def test_univar_odd_trace_gates(self, capsys, monkeypatch):
        # a nonzero odd moment must fail its check, not end the run
        moments = qfock.onevariable.moments

        def skewed(top, q):
            m = moments(top, q)
            if top:
                m[1] = m[1] + 1
            return m

        monkeypatch.setattr(qfock.onevariable, "moments", skewed)
        code, out = run(capsys, "verify", "univar", "--q", "9/10")
        assert code == 1
        checks = {c["check"]: c for c in json.loads(out)["checks"]}
        assert checks["univar/trace-odd n=1"]["pass"] is False
        assert checks["univar/trace-even n=1"]["pass"] is True

    def test_univar_suite(self, capsys):
        code, out = run(capsys, "verify", "univar", "--q", "1/2", "--level", "4")
        assert code == 0

    def test_wick_and_derivative_suites(self, capsys):
        code, _ = run(capsys, "verify", "wick-agree", "--q", "1/3", "--level", "5")
        assert code == 0
        code, _ = run(capsys, "verify", "derivative-agree", "--q", "1/3", "--level", "4")
        assert code == 0

    def test_duality_suite(self, capsys):
        code, out = run(
            capsys, "verify", "duality", "--q", "1/2", "--level", "5", "--series-m", "2"
        )
        assert code == 0

    def test_duality_pairs_only_the_levels_it_reaches(self, capsys, monkeypatch):
        # A^u Omega has no component longer than u, so xi_i is cut to the
        # longest monomial, M+2 = 4, before it is paired: its level-5 words
        # never reach the pairing
        longest = []
        inner = qfock.fock.FockSpace.inner

        def recorded(space, u, v):
            longest.append(max(len(w) for x in (u, v) for w, _ in x.items()))
            return inner(space, u, v)

        monkeypatch.setattr(qfock.fock.FockSpace, "inner", recorded)
        code, _ = run(capsys, *"verify duality --d 2 --level 7 --series-m 2".split())
        assert code == 0
        assert max(longest) == 4

    def test_duality_level_guard(self, capsys):
        assert (
            main(["verify", "duality", "--q", "1/2", "--level", "4", "--series-m", "2"])
            == 2
        )

    def test_gibbs_suite(self, capsys):
        code, out = run(
            capsys, "verify", "gibbs", "--q", "1/2", "--level", "5", "--series-m", "2"
        )
        assert code == 0

    @pytest.mark.parametrize("q", ["1/2", "4/5"])
    def test_gibbs_gates_the_cyclic_gradient(self, capsys, q):
        # the degree-5 residual is truncated (2.07e-3 at q = 1/2, 11.1 at
        # q = 4/5) and rides along in the params; the criterion is exact
        code, out = run(capsys, "verify", "gibbs", "--d", "2", "--q", q, "--level", "7", "--series-m", "3")
        assert code == 0
        checks = {c["check"]: c for c in json.loads(out)["checks"]}
        assert sorted(checks) == ["gibbs/cyclic-gradient"] + [f"gibbs/degree={k}" for k in (0, 2, 4, 6)]
        cyclic = checks["gibbs/cyclic-gradient"]
        assert cyclic["value"] == 0
        assert cyclic["params"]["max_level"] == 7
        assert sorted(cyclic["params"]["truncated_degree_residuals"]) == ["1", "3", "5"]
        assert Fraction(cyclic["params"]["truncated_degree_residuals"]["5"]) > Fraction(1, 1000)

    def test_gibbs_rejects_a_non_cyclic_xi(self, capsys, monkeypatch):
        original = qfock.ncpoly.conjugate_series

        def bent(space, i, source_length):
            xi = original(space, i, source_length)
            return xi + FockVector({(2, 2, 2): Fraction(1, 10)}) if i == 1 else xi

        monkeypatch.setattr(qfock.ncpoly, "conjugate_series", bent)
        code, out = run(capsys, "verify", "gibbs", "--d", "2", "--level", "7", "--series-m", "3")
        assert code == 1
        failed = [c["check"] for c in json.loads(out)["checks"] if not c["pass"]]
        assert failed == ["gibbs/cyclic-gradient"]

    @pytest.mark.parametrize(
        "argv",
        [
            "verify gibbs --mode float --d 2 --level 5 --series-m 2 --q 0",
            "verify commutator --mode float --d 2 --level 4 --q 0.5",
        ],
    )
    def test_float_zero_maxima_are_floats(self, capsys, argv):
        # a maximum over exact zeros is written 0.0 like every float value
        code, out = run(capsys, *argv.split())
        assert code == 0
        checks = json.loads(out)["checks"]
        values = [c["value"] for c in checks]
        values += [v for c in checks for v in c["params"].get("truncated_degree_residuals", {}).values()]
        assert 0.0 in values
        assert all(type(v) is float for v in values)

    def test_bounds_d4_passes(self, capsys):
        code, out = run(capsys, "verify", "bounds", "--d", "4", "--q", "1/2")
        assert code == 0
        names = [f"bounds/gram-domination m={m}" for m in range(5)]
        names += ["bounds/haagerup", "bounds/right-annihilation-norm"]
        names += [f"bounds/tail-{s}" for s in ("fisher", "gibbs", "lipschitz", "xi")]
        assert [c["check"] for c in json.loads(out)["checks"]] == names

    def test_all_passes_at_defaults(self, capsys):
        # the gram-domination gate is the projected comparison; the
        # full-tensor residual beside it is negative from m = 3 at q = 1/2
        code, out = run(capsys, "verify", "all")
        assert code == 0
        full_tensor = {
            c["check"]: c["params"]["full_tensor_residual"]
            for c in json.loads(out)["checks"]
            if c["check"].startswith("bounds/gram-domination")
        }
        assert len(full_tensor) == 5
        assert full_tensor["bounds/gram-domination m=3"] < 0
        assert full_tensor["bounds/gram-domination m=4"] < 0

    def test_bounds_keep_the_sign_of_q(self, capsys):
        # at q = -1/2 the full-tensor residual stays positive; the q = +1/2
        # value at m = 3 is -0.0279
        code, out = run(capsys, "verify", "bounds", "--d", "2", "--q=-1/2")
        assert code == 0
        checks = {c["check"]: c for c in json.loads(out)["checks"]}
        m3 = checks["bounds/gram-domination m=3"]["params"]
        assert m3["q0"] == -0.5
        assert m3["full_tensor_residual"] == gram_domination_residual(FockSpace.with_scalar_q(2, -0.5, 4), 3)
        assert m3["full_tensor_residual"] > 0.04

    @pytest.mark.parametrize("level", ["0", "1"])
    def test_bounds_level_guard(self, capsys, level):
        assert main(["verify", "bounds", "--level", level]) == 2

    @pytest.mark.parametrize("q", ["998/1000", "999/1000"])
    @pytest.mark.parametrize(
        "argv",
        ["export xi --d 1 --level 3 --series-m 1", "export fisher --d 2 --level 3 --series-m 1", "verify bounds", "verify all"],
    )
    def test_constants_out_of_double_range_exit_two(self, capsys, argv, q):
        # C = 1/prod_m (1 - q^m) overflows from q ~ 0.99768
        assert main([*argv.split(), "--q", q]) == 2
        assert capsys.readouterr().err.startswith("invalid configuration: analytic constants at |q| = 0.99")

    @staticmethod
    def _spaces_built(capsys, monkeypatch, *argv):
        built = []
        init = FockSpace.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(FockSpace, "__init__", counted)
        code, _ = run(capsys, *argv)
        assert code == 0
        return len(built)

    def test_bounds_build_one_float_space(self, capsys, monkeypatch):
        # the run's own space and one float space shared by the four engines
        assert self._spaces_built(capsys, monkeypatch, "verify", "bounds", "--d", "3", "--q", "9/10") <= 2

    def test_float_bounds_reuse_the_run_space(self, capsys, monkeypatch):
        argv = ("verify", "bounds", "--d", "3", "--q", "0.9", "--mode", "float")
        assert self._spaces_built(capsys, monkeypatch, *argv) == 1

    @pytest.mark.parametrize("q", ["9966/10000", "997/1000"])
    def test_tails_out_of_reach_exit_two(self, capsys, q):
        # the gibbs and lipschitz majorants stop halving their terms within
        # 100,000 terms from |q| ~ 0.9955 at d = 2, and C^(3/2) overflows
        # from |q| ~ 0.99656; the suite used to end in an OverflowError
        assert main(["verify", "bounds", "--d", "2", "--q", q]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: series tail gibbs at |q| = 0.99")
        assert "at d = 2, M = 2 that fails from |q| ~ 0.9955" in err

    @pytest.mark.parametrize("what", ["xi", "fisher"])
    def test_export_tails_out_of_reach_exit_two(self, capsys, what):
        # xi and fisher sum 68,987 terms at |q| = 0.997, d = 2 and stop
        # halving theirs within 100,000 from |q| ~ 0.99751
        assert main(["export", what, "--d", "2", "--level", "5", "--q", "9976/10000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid configuration: series tail {what} at |q| = 0.9976")
        assert "that fails from |q| ~ 0.99751" in err

    @staticmethod
    def refusal(capsys, monkeypatch, argv):
        """The last stderr line of a run that must exit 2 before any space
        is built and before any suite runs."""
        ran = []

        def refused(*args):
            raise AssertionError("a space was built before the refusal")

        for name in list(qfock.cli._SUITE_FN):
            monkeypatch.setitem(qfock.cli._SUITE_FN, name, lambda *args, name=name: ran.append(name) or [])
        monkeypatch.setattr(qfock.cli, "FockSpace", refused)
        assert main(argv) == 2
        assert ran == []
        return capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("argv,message", REFUSALS)
    def test_refuses_before_any_suite_runs(self, capsys, monkeypatch, argv, message):
        assert self.refusal(capsys, monkeypatch, argv.split()).startswith(f"invalid configuration: {message}")

    @staticmethod
    def admitted(monkeypatch, argv):
        """Whether a run passes every requirement and gets as far as its
        space."""

        class Built(Exception):
            pass

        def built(*args):
            raise Built

        monkeypatch.setattr(qfock.cli, "FockSpace", built)
        try:
            main(argv)
        except Built:
            return True
        return False

    @pytest.mark.parametrize(
        "argv",
        [
            "export xi --d 2 --level 13 --series-m 6",
            "export gibbs --d 2 --level 14 --series-m 6",
            "verify bounds --d 6 --level 9",
            "verify bounds --d 7 --level 9",
            "export xi --d 3 --level 9 --series-m 4",
            "export xi --d 3 --level 11 --series-m 5",
            "export fisher --d 2 --level 15 --series-m 7",
            "verify all --d 3 --level 9 --series-m 4",
            "export xi --d 4 --level 9 --series-m 4",
            "export xi --d 5 --level 9 --series-m 4",
            "export xi --mode symbolic --d 2 --level 9 --series-m 4",
            "verify all --d 3 --level 6",
            "verify commutator --d 6 --level 6",
            "verify duality --d 3 --level 11 --series-m 5",
            "export xi --d 2 --level 11 --series-m 5 --q=-123457/999999",
            "export hermite --n 200 --q 1/2",
            "export hermite --n 1200 --mode float --q=-0.5",
            "export partitions --family D --n 8",
            "export partitions --family C --n 10",
            "export partitions --family B --n 11",
        ],
    )
    def test_gram_size_under_the_limit_runs(self, monkeypatch, argv):
        # predicted at 0.97 s (d=2 level 13), 3.8 s (gibbs, d=2 level 14),
        # 2.1 and 5.9 s (bounds, d=6 and d=7), 0.48 and 4.1 s (d=3 levels 9
        # and 11), 5.1 s (fisher, d=2 level 15), 6.6 s (all, d=3 level 9),
        # 2.3 and 9.3 s (d=4 and d=5 level 9, the latter with 621 MB), 3.7 s
        # (formal d=2 level 9), 0.41 s (all, d=3 level 6), 4.8 s (commutator,
        # d=6 level 6), 7.8 s (duality, d=3 level 11), 2.4 s (d=2 level 11
        # at s = 999,999), 1.1 and 11 s (hermite, exact to degree 200 and
        # float to 1,200) and 0.2 s (the partitions of the diagrams
        # workload), each within the limits of 20 s and 1,500 MB
        assert self.admitted(monkeypatch, argv.split())

    def test_a_run_is_priced_whole(self, capsys, monkeypatch):
        # at d=7 level 6 every suite is admitted on its own (dual-agree,
        # the dearest, is predicted at 17 s), and all of them in one run are
        # refused
        config = "--d 7 --level 6 --series-m 2".split()
        for name in qfock.cli._SUITE_FN:
            assert self.admitted(monkeypatch, ["verify", name, *config]), name
        err = self.refusal(capsys, monkeypatch, ["verify", "all", *config])
        assert err.startswith("invalid configuration: all suite is predicted to take 41.7 s")

    @pytest.mark.parametrize("argv,message", [row for row in REFUSALS if " is predicted " in row[1]])
    def test_size_refusals_state_their_prediction_and_limit(self, capsys, monkeypatch, argv, message):
        # one message for every size refusal: the run's predicted seconds
        # and peak, and the limit the prediction passes
        err = self.refusal(capsys, monkeypatch, argv.split())
        pattern = r"invalid configuration: \S+ (suite|export) is predicted to take (\S+) s and (\S+) MB( \(.*\))?, above the limit of (.*)"
        _, seconds, mb, parts, limit = re.fullmatch(pattern, err).groups()
        seconds, mb = float(seconds), float(mb.replace(",", ""))
        assert (parts is not None) == argv.startswith("verify all")
        if limit == f"{qfock.cli.TIME_LIMIT_S} s":
            assert seconds > qfock.cli.TIME_LIMIT_S
        else:
            assert limit == f"{qfock.cli.MEMORY_LIMIT_MB:,} MB"
            assert seconds <= qfock.cli.TIME_LIMIT_S and mb > qfock.cli.MEMORY_LIMIT_MB

    def test_fisher_within_the_limits_reads_a_small_gram(self):
        # at the largest d whose fisher export is admitted (a constant float
        # deformation weighs the least: weight 0.2, one content peeled per
        # orbit), the level-M Gram fisher reads is far below any Gram level
        # the price refuses; at M=0 it reads the vacuum alone, at any d
        def price(d, m, name, level):
            fake = SimpleNamespace(d=d, is_float=True, is_symbolic=False, is_constant=True)
            return qfock.cli._price(fake, SimpleNamespace(series_m=m, level=level, command="export"), [name])

        def admitted(d, m):
            seconds, mb, _ = price(d, m, "fisher", 2 * m + 1)
            return seconds <= qfock.cli.TIME_LIMIT_S and mb <= qfock.cli.MEMORY_LIMIT_MB

        largest = {}
        for m in range(1, 9):
            lo, hi = 1, 10**4
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if admitted(mid, m) else (lo, mid)
            largest[m] = (lo, qfock.cli._gram_size(lo, m)[0])
        # the largest is level 6 at d=3 (the float level-13 export is
        # predicted at 13 s), which the bounds suite would build in 7 ms
        assert max(largest.values(), key=lambda de: de[1]) == (3, 35_169) == largest[6]
        gram_seconds = price(3, 0, "bounds", 6)[0] - price(1, 0, "bounds", 6)[0]
        assert gram_seconds < qfock.cli.TIME_LIMIT_S / 1000

    @pytest.mark.parametrize("family", ["B", "C", "D"])
    def test_diagrams_counts_the_enumeration(self, family):
        for n in range(0 if family == "D" else 1, 12):
            assert qfock.cli._diagrams(family, n) == len(enumerate_family(family, n)), n

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_gram_size_counts_the_blocks(self, d):
        for n in range(7):
            sizes = [len(blk.words) for blk in FockSpace.with_scalar_q(d, Fraction(1, 2), n).blocks(n).values()]
            assert qfock.cli._gram_size(d, n) == (sum(k * k for k in sizes), max(sizes))

    def test_verify_takes_no_format(self, capsys, monkeypatch):
        # only exports have a tabular form
        argv = "verify all --format csv".split()
        assert self.refusal(capsys, monkeypatch, argv) == "qfock: error: unrecognized arguments: --format csv"

    def test_hermite_refuses_a_mixed_matrix(self, capsys, monkeypatch, tmp_path):
        # the one-variable polynomials take one q; a mixed matrix has none
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"d": 2, "entries": [["1/3", "1/5"], ["1/5", "-1/4"]]}))
        err = self.refusal(capsys, monkeypatch, ["export", "hermite", "--q-matrix", str(path)])
        assert err == "invalid configuration: hermite export needs a constant deformation"

    @pytest.mark.parametrize(
        "text",
        [
            None,
            "not json",
            '{"d": 2}',
            '{"d": 2, "entries": [["1/3", "1/5"]]}',
            '{"d": 2, "entries": [["1/3", "1/5"], ["1/7", "1/4"]]}',
            '{"d": 2, "entries": [["1/3", "x"], ["x", "1/4"]]}',
            '{"d": 2, "entries": [["1/3", true], [true, "1/4"]]}',
            '{"d": 2, "entries": [["1/3", "1/0"], ["1/0", "1/4"]]}',
        ],
    )
    def test_malformed_matrix_files_exit_two(self, capsys, monkeypatch, tmp_path, text):
        # each used to end in a traceback and exit 1, the code of a failed check
        path = tmp_path / "m.json"
        if text is not None:
            path.write_text(text)
        err = self.refusal(capsys, monkeypatch, ["verify", "commutator", "--q-matrix", str(path)])
        assert err.startswith(f"invalid configuration: cannot read a deformation matrix from {str(path)!r}")

    def test_nan_matrix_entry_exits_two(self, capsys, monkeypatch, tmp_path):
        # NaN compares false against the bound, so it used to pass the range check
        path = tmp_path / "m.json"
        path.write_text('{"d": 1, "entries": [[NaN]]}')
        argv = ["verify", "commutator", "--d", "1", "--mode", "float", "--q-matrix", str(path)]
        err = self.refusal(capsys, monkeypatch, argv)
        assert err == "invalid configuration: matrix entries must have absolute value below 1"

    def test_symbolic_two_letter_suites_pass(self, capsys):
        # the duality relation and the cyclic-gradient criterion hold
        # identically in q (their reports are pinned in TestGolden)
        code, out = run(capsys, *"verify all --mode symbolic --d 2 --level 5 --series-m 2".split())
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize("q", ["99/100", "-99/100"])
    def test_univar_near_one(self, capsys, q):
        # the truncation grows with |q| so that the dropped terms shrink
        # geometrically; at a fixed N = 200 it ended in a ValueError
        code, out = run(capsys, "verify", "univar", f"--q={q}")
        assert code == 0
        checks = [c for c in json.loads(out)["checks"] if c["check"].startswith("univar/q-identity")]
        assert len(checks) == 4
        assert all(c["value"] <= c["params"]["tail"] + c["params"]["noise"] for c in checks)

    def test_float_xi_never_calls_cholesky(self, capsys, monkeypatch):
        # float conjugate variables come from the explicit inverse with no
        # factorization; only the norm checks factor float Gram blocks
        calls = []
        cholesky = qfock.norms.gram_cholesky

        def counted(gram, what):
            calls.append(what)
            return cholesky(gram, what)

        monkeypatch.setattr(qfock.norms, "gram_cholesky", counted)
        monkeypatch.setattr(qfock.fock, "gram_cholesky", counted)
        config = "--mode float --d 2 --level 5 --series-m 2 --q 0.5".split()
        for argv in ("export xi", "export fisher", "export gibbs", "verify duality", "verify gibbs"):
            assert main([*argv.split(), *config]) == 0, argv
            capsys.readouterr()
        assert calls == []
        assert main(["verify", "bounds", *config]) == 0
        assert calls


class TestExport:
    def test_partitions_contains_printed_example(self, capsys):
        code, out = run(capsys, "export", "partitions", "--family", "B", "--n", "6")
        assert code == 0
        rows = json.loads(out)["partitions"]
        match = [
            r
            for r in rows
            if r["blocks"][:3] == [[0, 3], [1, 5], [2, 4]] and len(r["blocks"]) == 3
        ]
        assert match and match[0]["crossings"] == 4

    def test_xi_d3_level9_is_exact(self, capsys):
        # refused by the Gram size before the explicit inverse: 19,683 words
        # at level 9, each level accepted only after its exact check
        code, out = run(capsys, *"export xi --d 3 --level 9 --series-m 4".split())
        assert code == 0
        rows = json.loads(out)["xi"]
        assert [row["i"] for row in rows] == [1, 2, 3]
        for row in rows:
            assert all("coeff_num" in t and "coeff_den" in t for t in row["terms"])
            assert max(len(t["word"]) for t in row["terms"]) == 9

    def test_xi_free_case_single_terms(self, capsys):
        code, out = run(
            capsys,
            "export",
            "xi",
            "--d",
            "2",
            "--q",
            "0",
            "--level",
            "7",
            "--series-m",
            "3",
        )
        assert code == 0
        rows = json.loads(out)["xi"]
        for row in rows:
            assert row["terms"] == [
                {"coeff_den": 1, "coeff_num": 1, "word": [row["i"]]}
            ]
            assert row["tail_bound"] == 0.0

    @pytest.mark.parametrize("what", ["xi", "fisher", "gibbs"])
    def test_float_mode_writes_only_floats(self, capsys, what):
        code, out = run(
            capsys, "export", what, "--mode", "float", "--d", "2", "--q", "0.5",
            "--level", "3", "--series-m", "1",
        )
        assert code == 0
        payload = json.loads(out)
        if what == "xi":
            values = [term["coeff"] for row in payload["xi"] for term in row["terms"]]
        elif what == "fisher":
            values = [row[key] for row in payload["fisher"] for key in ("value", "value_float")]
        else:
            values = [term["coeff"] for term in payload["terms"]]
            values += list(payload["gradient_residuals"].values())
        assert values and all(type(v) is float for v in values)

    def test_gibbs_expands_each_xi_once(self, capsys, monkeypatch):
        calls = []
        original = qfock.ncpoly.vector_to_poly

        def counted(space, v):
            calls.append(v)
            return original(space, v)

        monkeypatch.setattr(qfock.ncpoly, "vector_to_poly", counted)
        code, out = run(
            capsys, "export", "gibbs", "--d", "2", "--q", "1/2", "--level", "5",
            "--series-m", "2",
        )
        assert code == 0
        assert len(calls) == 2

    def test_fisher_matches_series(self, capsys):
        code, out = run(
            capsys,
            "export",
            "fisher",
            "--d",
            "1",
            "--q",
            "1/2",
            "--level",
            "11",
            "--series-m",
            "5",
        )
        assert code == 0
        rows = json.loads(out)["fisher"]
        q0 = Fraction(1, 2)
        for row in rows:
            m_top = row["M"] + 1
            series = sum(
                (
                    q0 ** (m * (m - 1))
                    * q_factorial(m - 1, q0) ** 2
                    / q_factorial(2 * m - 1, q0)
                    for m in range(1, m_top + 1)
                ),
                Fraction(0),
            )
            # integral values are JSON integers, the rest "p/q" strings
            assert Fraction(str(row["value"])) == series

    def test_hermite_csv(self, capsys):
        code, out = run(
            capsys, "export", "hermite", "--format", "csv", "--n", "4", "--q", "0"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,coeffs"
        assert len(lines) == 6

    @pytest.mark.parametrize(
        "argv,q,zero",
        [(["--mode", "float", "--q=-0.5"], -0.5, 0.0), (["--q=-3/7"], Fraction(-3, 7), 0), (["--mode", "symbolic"], None, {"poly": []})],
        ids=["float", "exact", "symbolic"],
    )
    def test_hermite_rows_are_dense_in_q_ring(self, capsys, argv, q, zero):
        # row n holds every power up to n, one pass of the recurrence giving
        # hermite(n, q); a power of the wrong parity is written as q - q,
        # typed as q is and never -0.0
        code, out = run(capsys, "export", "hermite", "--n", "9", *argv)
        assert code == 0 and "-0.0" not in out
        rows = json.loads(out)["hermite"]
        assert [row["n"] for row in rows] == list(range(10))
        for n, row in enumerate(rows):
            assert len(row["coeffs"]) == n + 1
            for k, c in enumerate(row["coeffs"]):
                if (n - k) % 2:
                    assert c == zero and type(c) is type(zero), (n, k)
                else:
                    assert c != zero, (n, k)
                    if q is not None:
                        assert Fraction(str(c)) == Fraction(hermite(n, q).coeff((1,) * k)), (n, k)

    def test_csv_of_no_diagram_is_one_empty_line(self, capsys):
        # B on one vertex has no diagram, so the table has no header either
        assert run(capsys, "export", "partitions", "--family", "B", "--n", "1", "--format", "csv") == (0, "\n")

    def test_gibbs_export(self, capsys):
        code, out = run(
            capsys,
            "export",
            "gibbs",
            "--d",
            "2",
            "--q",
            "0",
            "--level",
            "6",
            "--series-m",
            "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["terms"] == [
            {"coeff": "1/2", "word": [1, 1]},
            {"coeff": "1/2", "word": [2, 2]},
        ]
        assert all(v == 0 for v in payload["gradient_residuals"].values())

    @pytest.mark.parametrize("family", ["B", "C"])
    def test_partitions_without_vertices_rejected(self, capsys, family):
        assert main(["export", "partitions", "--family", family, "--n", "0"]) == 2

    def test_partitions_negative_count_rejected(self, capsys):
        assert main(["export", "partitions", "--family", "D", "--n", "-1"]) == 2

    def test_csv_rejected_for_xi(self, capsys):
        assert (
            main(
                ["export", "xi", "--format", "csv", "--q", "0", "--level", "7",
                 "--series-m", "3"]
            )
            == 2
        )

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code = main(
                ["export", "partitions", "--family", "C", "--n", "5", "--out", str(target)]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    def test_report_streams_the_bytes_of_one_dumps(self, capsys, monkeypatch, tmp_path, to_file):
        argv = ["export", "xi", "--d", "2", "--level", "5", "--series-m", "2"]
        code, whole = run(capsys, *argv)
        monkeypatch.setattr(qfock.cli, "EMIT_BATCH_CHUNKS", 7)
        target = tmp_path / "xi.json"
        code_small, small = run(capsys, *argv, *(["--out", str(target)] if to_file else []))
        if to_file:
            assert small == ""
            small = target.read_text()
        assert (code, code_small) == (0, 0)
        assert small == whole == json.dumps(json.loads(whole), sort_keys=True, indent=2) + "\n"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "xi.json"
        code = main(
            ["export", "xi", "--q", "0", "--level", "7", "--series-m", "1", "--out", str(target)]
        )
        assert code == 0
        assert json.loads(target.read_text())["what"] == "xi"


class TestNoTraceback:
    """Every command ends in an exit code over a grid near |q| = 1, and the
    hermite and partitions exports at any size: 0 or 1 from the checks, 2
    from a refusal, never an exception."""

    # left out, though they pass: the xi and fisher tails at |q| = 997/1000
    # (about 3 s a run). The bounds suite is left out whole: at 99/100 it
    # passes in about 4 s a run, and at 997/1000 its series tails refuse it
    # after a slow bisection for the message, the refusal that
    # TestVerify::test_tails_out_of_reach_exit_two pins
    SLOW = {("xi", "997/1000"), ("fisher", "997/1000")}

    @pytest.mark.parametrize(
        "command,name",
        [("verify", s) for s in qfock.cli.SUITES if s not in ("all", "bounds")]
        + [("export", e) for e in qfock.cli.EXPORTS],
    )
    def test_exit_codes(self, capsys, tmp_path, command, name):
        out = str(tmp_path / "out")
        raised = []
        for mode, d, level, q in itertools.product(
            ("exact", "float"), (1, 2), range(6), ("99/100", "-99/100", "997/1000", "-997/1000")
        ):
            if (name, q.lstrip("-")) in self.SLOW:
                continue
            value = q if mode == "exact" else str(float(Fraction(q)))
            argv = [command, name, "--mode", mode, "--d", str(d), "--level", str(level), f"--q={value}", "--out", out]
            try:
                assert main(argv) in (0, 1, 2), argv
            except Exception as exc:
                raised.append((" ".join(argv), repr(exc)))
            capsys.readouterr()
        assert raised == []

    @pytest.mark.parametrize("what", ["hermite", "partitions"])
    def test_any_size_is_refused_up_front_or_written(self, capsys, tmp_path, what):
        # from a negative size to far past the limits; of the sizes above 9
        # only the float Hermite table to degree 400 is admitted (0.6 s)
        out = str(tmp_path / "out")
        kinds = ("exact", "float", "symbolic") if what == "hermite" else ("B", "C", "D")
        for kind, n in itertools.product(kinds, (-2, -1, 0, 1, 2, 9, 400, 10**9)):
            option = "--mode" if what == "hermite" else "--family"
            argv = ["export", what, option, kind, "--n", str(n), "--out", out]
            refused = n < (1 if kind in ("B", "C") else 0) or n > (400 if kind == "float" else 9)
            assert main(argv) == (2 if refused else 0), argv
            capsys.readouterr()

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit before Python 3.10.7")
    def test_coefficients_past_the_digit_limit_are_written(self, capsys):
        # at CPython's least digit limit, 640, hermite(100, 1/2) has longer
        # numerators: the run writes them and restores the limit, and
        # reading --q keeps the limit
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out = run(capsys, "export", "hermite", "--n", "100", "--q", "1/2")
            assert code == 0 and sys.get_int_max_str_digits() == 640
            assert main(["export", "hermite", "--q", "1/" + "7" * 700]) == 2
            assert capsys.readouterr().err.startswith("invalid configuration: cannot parse q")
        finally:
            sys.set_int_max_str_digits(limit)
        row = json.loads(out)["hermite"][100]
        assert max(len(c.partition("/")[0]) for c in row["coeffs"] if isinstance(c, str)) > 640
        assert Fraction(row["coeffs"][0]) == hermite(100, Fraction(1, 2)).coeff(())


class TestNearOne:
    """Float conjugate variables factor nothing, so they end in exit 0 near
    |q| = 1 at levels the sweep above does not reach; the Cholesky solve
    they replaced raised ``GramSingularError`` on the level-9 block of
    content (1, 1, 1, 1, 1, 1, 1, 2, 2) at q = 0.99."""

    @pytest.mark.parametrize("what", ["xi", "fisher"])
    def test_float_level_9_at_099(self, capsys, what):
        code, out = run(capsys, "export", what, "--mode", "float", "--q=0.99", "--d", "2", "--level", "9", "--series-m", "4")
        assert code == 0
        assert json.loads(out)[what]


class TestMatrixConfig:
    def test_matrix_json_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps({"d": 2, "entries": [["1/3", "1/5"], ["1/5", "-1/4"]]})
        )
        code, out = run(
            capsys, "verify", "commutator", "--q-matrix", str(path), "--level", "5"
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_float_matrix_rejected_in_exact_mode(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"d": 2, "entries": [[0.5, 0.1], [0.1, 0.5]]}))
        assert main(["verify", "commutator", "--q-matrix", str(path)]) == 2

    def test_matrix_dimension_mismatch(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"d": 1, "entries": [["1/3"]]}))
        assert main(["verify", "commutator", "--q-matrix", str(path), "--d", "2"]) == 2

    def test_matrix_entry_out_of_range(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"d": 1, "entries": [["3/2"]]}))
        assert main(["verify", "commutator", "--q-matrix", str(path), "--d", "1"]) == 2

    def test_constant_matrix_bounds_match_scalar_q(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"d": 3, "entries": [["9/10"] * 3] * 3}))
        code, out = run(capsys, "verify", "bounds", "--d", "3", "--q-matrix", str(path))
        assert code == 0
        scalar_code, scalar_out = run(capsys, "verify", "bounds", "--d", "3", "--q", "9/10")
        assert scalar_code == 0
        assert json.loads(out)["checks"] == json.loads(scalar_out)["checks"]

    def test_mixed_bounds_read_the_matrix_blocks(self, capsys, tmp_path):
        # max |q_ij| = 3/4 as a constant gives c_4 = 0.1319 and ||r_1|| = 3.037
        entries = BOUNDS_MATRIX
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"d": 3, "entries": entries}))
        code, out = run(capsys, "verify", "bounds", "--d", "3", "--q-matrix", str(path))
        assert code == 0
        checks = {c["check"]: c for c in json.loads(out)["checks"]}
        space = FockSpace(Deformation([[float(Fraction(v)) for v in row] for row in entries]), 6)
        # the gate reads the smallest letter: 0.8201, 0.7731 and 0.8086 for i = 1, 2, 3
        c_4 = checks["bounds/gram-domination m=4"]
        assert c_4["value"] == min(projected_domination(space, 4, i) for i in (1, 2, 3))
        assert c_4["value"] == projected_domination(space, 4, 2)
        assert c_4["value"] == pytest.approx(0.7731, abs=1e-4)
        assert c_4["params"]["q0"] == 0.75
        # the gate reads the largest letter: 1.1071, 1.1387 and 1.1240 for i = 1, 2, 3
        norm = checks["bounds/right-annihilation-norm"]["value"]
        assert norm == max(right_annihilation_norm(space, i, 6) for i in (1, 2, 3))
        assert norm == right_annihilation_norm(space, 2, 6)
        assert norm == pytest.approx(1.1387, abs=1e-4)


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]),
    st.text(),
    st.sampled_from(['"', "\\", "\n", "\x00", "\x7f", "\u00e9", "\u2028", "\U0001f600"]),
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids),
        st.lists(kids).map(tuple),
        st.lists(st.integers(), min_size=1),
        st.lists(st.lists(st.integers())),
        st.lists(st.lists(st.booleans())),
        st.lists(st.lists(st.one_of(st.integers(), st.booleans()))),
        st.dictionaries(st.text(), kids),
        st.dictionaries(st.integers(), kids),
    ),
    max_leaves=100,
)


class TestJsonWriter:
    @staticmethod
    def written(value):
        buf = io.StringIO()
        qfock.cli._write_json(buf, value)
        return buf.getvalue()

    @settings(max_examples=300, deadline=None)
    @given(tree=_JSON_TREES)
    def test_joined_chunks_equal_one_dumps(self, tree):
        # at the writer's own batch size, and with the parts written out in
        # batches of one or three
        want = json.dumps(tree, sort_keys=True, indent=2) + "\n"
        for batch in (qfock.cli.EMIT_BATCH_CHUNKS, 1, 3):
            with mock.patch.object(qfock.cli, "EMIT_BATCH_CHUNKS", batch):
                assert self.written(tree) == want

    @pytest.mark.parametrize("value", [{1: 2, "a": 3}, {"a": {1j: 0}}, [object()], {"a": [1, 2, {3}]}])
    def test_refuses_what_json_dumps_refuses(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            self.written(value)


# fixed mixed matrices with signed entries of distinct denominators
MIXED_2 = [["1/3", "2/5"], ["2/5", "-3/7"]]
MIXED_3 = [["1/3", "-2/5", "1/7"], ["-2/5", "-3/7", "1/5"], ["1/7", "1/5", "2/3"]]


class TestGolden:
    """Exact and symbolic reports are byte-identical across refactors: the
    sha1 of stdout is pinned. Float reports are left out, since libm may
    change their last bits."""

    @pytest.mark.parametrize(
        "argv, sha1",
        [
            ("export xi --d 2 --level 5 --series-m 2", "ae50201169138297ab4762bd1d27cbeab5453a7d"),
            ("export xi --d 2 --level 5 --series-m 2 --mode symbolic", "91368c5c2d4ffb0cd6974393ebad61ff938360e6"),
            # four letters: contents whose orbits under letter permutations
            # hold up to 24 contents, most of them relabelled
            ("export xi --d 4 --level 5 --series-m 2", "a2c891b58c023ba8e8d227391bd058e95077b5f3"),
            ("export xi --mode symbolic --d 3 --level 5 --series-m 2", "b4299e9889d15a342b3f32b5ecb32040a8c27a8b"),
            ("export gibbs --d 2 --level 5 --series-m 2", "a8b7ca4369b68d40a6742b5e03f081ff7051a788"),
            ("verify dual-agree --d 2 --level 5", "d73aa3182fc87b610762a642e391c599cbf369e4"),
            ("verify wick-agree --d 2 --level 5", "b876a34c41d3e4d619a6335a73c11d0e4e9921c3"),
            ("verify derivative-agree --d 2 --level 5", "cb7d2fb976c7471a6b01e0d10e27839bbeda57be"),
            ("export partitions --family C --n 7", "46e9c122d063c3121b9fe60929944fedf70cbddd"),
            ("export partitions --family B --n 11", "04dbf9700a5889feca08032e83c896b186273453"),
            ("export partitions --family D --n 8", "b129f6864ba354435c6b4b03931a97fafd61afa5"),
            ("verify commutator --d 2 --level 5", "cc2619fba8ae9d3bab22fb80ad266f8e00648c49"),
            # three letter classes: d=3 words reach patterns d=2 cannot
            ("verify commutator --d 3 --level 5 --q=-1/2", "58ec77247d02a802b66da56043bc2d50e1cebd98"),
            ("verify dual-agree --d 3 --level 5 --q=-1/2", "871a0ae067908f5b7d789d4c07e352063f1121c6"),
            ("verify wick-agree --d 3 --level 5 --q=-1/2", "a2a5ee754e2c634e5ca0040b14e4e3e2323786b0"),
            ("verify derivative-agree --d 3 --level 5 --q=-1/2", "3ea7f9fd6f84c30cbd52e78a383adace17aec561"),
            # exact reports carrying series tails, whose floats come from mpmath alone
            ("export fisher --d 2 --level 9 --series-m 4 --q 9/10", "759dd70ae46326c926e6820aee3260c278fc7830"),
            ("export xi --d 3 --level 5 --series-m 2 --q 9/10", "db7332edd878f7b042aaea8e1e6353891b2dc0a0"),
            ("export fisher --d 2 --level 7 --series-m 3 --q 99/100", "bb66ba70673ee724423fde1e09da9f2e5a94ee84"),
            # the cyclic-gradient criterion applies one polynomial to the vacuum
            ("verify gibbs --d 2 --level 7 --series-m 3", "4a01c89140f003ee775fdbc3b8c6bae775178144"),
            ("verify gibbs --d 3 --level 5 --series-m 2 --q=-1/3", "f45784ebe4fdc869952447dd837696e9df1f8a4c"),
            # both hold identically in q, so the formal reports are exact
            ("verify duality --mode symbolic --d 2 --level 5 --series-m 2", "5a7916278ab6a4b41563b92b29cfd877f1cb0587"),
            ("verify gibbs --mode symbolic --d 2 --level 5 --series-m 2", "cfd17f2f03531c26c2700ad75445c4129a089599"),
        ],
    )
    def test_report_digest(self, capsys, argv, sha1):
        code, out = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha1(out.encode()).hexdigest() == sha1

    def test_mixed_xi_digest(self, capsys, tmp_path):
        # only the xi payload: the config holds the matrix file's path
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"d": 2, "entries": [["1/3", "2/5"], ["2/5", "-3/7"]]}))
        code, out = run(capsys, *"export xi --d 2 --level 5 --series-m 2 --q-matrix".split(), str(path))
        assert code == 0
        xi = json.dumps(json.loads(out)["xi"], sort_keys=True, indent=2)
        assert hashlib.sha1(xi.encode()).hexdigest() == "9a8832871925713b46fbaf7c1a1c7ee8b32c9a84"

    @pytest.mark.parametrize(
        "argv, entries, sha1",
        [
            ("export xi --d 2 --level 7 --series-m 3", MIXED_2, "9bdee49000d5babb6a14cb2a8678c076e056700e"),
            ("export fisher --d 2 --level 7 --series-m 3", MIXED_2, "a6516b43b768d4ce7ac269572cfc1522301556fa"),
            ("export gibbs --d 2 --level 7 --series-m 3", MIXED_2, "8a39cff3eef2b1b9a5806b7f05d2e74c77d3ee27"),
            ("export xi --d 3 --level 5 --series-m 2", MIXED_3, "3e071546e4faa270abf5d4a70312153f111ca6c2"),
        ],
    )
    def test_mixed_payload_digest(self, capsys, tmp_path, argv, entries, sha1):
        # the payload without the config, which holds the matrix file's path;
        # the level-7 blocks carry scales with large common factors
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"d": len(entries), "entries": entries}))
        code, out = run(capsys, *argv.split(), "--q-matrix", str(path))
        assert code == 0
        payload = {k: v for k, v in json.loads(out).items() if k not in ("command", "what", "config")}
        assert hashlib.sha1(json.dumps(payload, sort_keys=True, indent=2).encode()).hexdigest() == sha1

    def test_mixed_wick_agree_digest(self, capsys, tmp_path):
        # a zero entry, negative entries and distinct off-diagonal values
        path = tmp_path / "m.json"
        entries = [["1/2", "-1/3", "0"], ["-1/3", "-1/5", "2/7"], ["0", "2/7", "3/4"]]
        path.write_text(json.dumps({"d": 3, "entries": entries}))
        code, out = run(capsys, *"verify wick-agree --d 3 --level 5 --q-matrix".split(), str(path))
        assert code == 0
        checks = json.dumps(json.loads(out)["checks"], sort_keys=True, indent=2)
        assert hashlib.sha1(checks.encode()).hexdigest() == "3c1eaa87278bb7b534eed7176d513e6bd53f9ef1"


# the level a memo key reaches, per table of FockSpace._memos
_KEY_LEVEL = {
    "words": lambda n: n,
    "blocks": lambda n: n,
    # (letter, word): the word annihilated
    "annihilated": lambda key: len(key[1]),
    "dual": lambda key: len(key[1]),
    "wick": len,
    "xi": lambda m: 2 * m + 1,
    # (family, pattern): B and C patterns carry vertex 0 as well
    "diagrams": lambda key: len(key[1]) - (key[0] != "D"),
    # the window length of the inverse peeling's move tables
    "peel": lambda n: n,
}


class TestMemoBounds:
    @pytest.mark.parametrize(
        "suite,table",
        [("commutator", "annihilated"), ("dual-agree", "dual"), ("wick-agree", "wick"), ("derivative-agree", "diagrams")],
    )
    def test_memos_within_level(self, capsys, monkeypatch, suite, table):
        spaces = []

        class Recorded(FockSpace):
            def __init__(self, *args):
                super().__init__(*args)
                spaces.append(self)

        monkeypatch.setattr(qfock.cli, "FockSpace", Recorded)
        code, _ = run(capsys, "verify", suite, "--d", "2", "--level", "4")
        assert code == 0
        (sp,) = spaces
        assert sp._memos[table]
        assert set(sp._memos) == set(_KEY_LEVEL)
        for name, memo in sp._memos.items():
            assert all(_KEY_LEVEL[name](key) <= sp.level for key in memo), name


# run in a fresh interpreter: the commands, then every module that main
# imported, one name a line
_FRESH_RUN = """
import contextlib, io, sys
import qfock.cli
before = set(sys.modules)
extra = sys.argv[1:]
for argv in ("export xi", "export fisher", "export gibbs", "verify duality", "verify gibbs"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = qfock.cli.main(argv.split() + "--d 2 --level 5 --series-m 2".split() + extra)
    assert code == 0, argv
print("\\n".join(sorted(set(sys.modules) - before)))
"""


class TestColdImports:
    @pytest.mark.parametrize("mixed", [False, True], ids=["constant", "mixed"])
    def test_exact_series_commands_import_no_numpy_module(self, tmp_path, mixed):
        # a lazily imported numpy module (numpy.ma, loaded by a plain
        # np.unique, takes about 30 ms) is paid by every command-line run
        extra = []
        if mixed:
            path = tmp_path / "m.json"
            path.write_text(json.dumps({"d": 2, "entries": [["1/3", "2/5"], ["2/5", "-3/7"]]}))
            extra = ["--q-matrix", str(path)]
        src = os.path.dirname(os.path.dirname(qfock.cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _FRESH_RUN, *extra], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        loaded = done.stdout.split()
        assert [name for name in loaded if name == "numpy" or name.startswith("numpy.")] == []
