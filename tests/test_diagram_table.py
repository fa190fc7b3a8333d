"""The diagram sums read one term table per (family, letter pattern):
the grouped terms equal the per-diagram oracle word for word, and words of
one pattern share a table, which a space reads once. A space evaluates
each table into weights once per sharing key, and words of one key share
the weights."""

import hashlib
import io
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product

import pytest
from diagram_oracles import per_diagram_terms, per_word_table_terms

import qfock.cli
import qfock.dual
import qfock.ncpoly
import qfock.partitions
from qfock import (
    FORMAL_Q, Deformation, FockSpace, commutator_residual, dual_partition, dual_recursive, wick_partition, wick_recursive,
)
from qfock.cli import main
from qfock.dual import _diagram_terms
from qfock.partitions import diagram_table

# a zero entry, negative entries and distinct off-diagonal values, so that
# a factor taken from the wrong class pair changes the sum
MIXED3 = [
    [Fraction(1, 2), Fraction(-1, 3), Fraction(0)],
    [Fraction(-1, 3), Fraction(-1, 5), Fraction(2, 7)],
    [Fraction(0), Fraction(2, 7), Fraction(3, 4)],
]

SPACES = {
    "formal-d2": lambda: FockSpace.with_scalar_q(2, FORMAL_Q, level=5),
    "minus-half-d3": lambda: FockSpace.with_scalar_q(3, Fraction(-1, 2), level=5),
    "mixed-d3": lambda: FockSpace(Deformation(MIXED3), level=5),
}


def summed(terms):
    """Weights summed per (left word, right word), zero sums dropped."""
    acc = {}
    for weight, left, right in terms:
        acc[left, right] = acc.get((left, right), 0) + weight
    return {key: c for key, c in acc.items() if c}


class TestAgainstPerDiagramOracle:
    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_every_word_to_length_five(self, name):
        space = SPACES[name]()
        letters = range(1, space.d + 1)
        for n in range(6):
            for w in product(letters, repeat=n):
                cases = [("D", None)] + [(family, i) for family in "BC" for i in letters]
                for family, i in cases:
                    got = summed(_diagram_terms(space, family, w, i))
                    assert got == summed(per_diagram_terms(space, family, w, i)), (family, i, w)


# some entries equal, some distinct: letters 1 and 2 share their diagonal
# and their entry with 3, so they swap freely in words without a 3
SHARED_SPACES = {
    "constant": lambda: FockSpace.with_scalar_q(3, Fraction(2, 5), level=5),
    "q-matrix": lambda: FockSpace(
        Deformation.from_json({"d": 3, "entries": [["1/2", "-1/3", "2/7"], ["-1/3", "1/2", "2/7"], ["2/7", "2/7", "3/4"]]}),
        level=5,
    ),
    "float": lambda: FockSpace.with_scalar_q(3, -0.3, level=5),
    "symbolic": lambda: FockSpace.with_scalar_q(2, FORMAL_Q, level=5),
}


def all_cases(space):
    letters = range(1, space.d + 1)
    for n in range(6):
        for w in product(letters, repeat=n):
            yield "D", w, None
            for family in "BC":
                for i in letters:
                    yield family, w, i


class TestPatternSharedWeights:
    @pytest.mark.parametrize("name", sorted(SHARED_SPACES))
    def test_equal_the_per_diagram_sums(self, name):
        space = SHARED_SPACES[name]()
        for family, w, i in all_cases(space):
            got = summed(_diagram_terms(space, family, w, i))
            want = summed(per_diagram_terms(space, family, w, i))
            if space.deformation.is_float:
                # a product of powers rounds apart from a product of factors
                assert got.keys() == want.keys(), (family, i, w)
                assert all(abs(got[k] - want[k]) <= 1e-14 * (1 + abs(want[k])) for k in got), (family, i, w)
                # and the shared weights are bit for bit the per-word ones
                assert got == summed(per_word_table_terms(space, family, w, i)), (family, i, w)
            else:
                assert got == want, (family, i, w)

    @pytest.mark.parametrize("name", sorted(SHARED_SPACES))
    def test_one_term_per_left_and_right_word(self, name):
        space = SHARED_SPACES[name]()
        for family, w, i in all_cases(space):
            keys = [(left, right) for _, left, right in _diagram_terms(space, family, w, i)]
            assert len(keys) == len(set(keys))

    def test_sharing_keys(self):
        constant, matrix = SHARED_SPACES["constant"](), SHARED_SPACES["q-matrix"]()
        for space in (constant, matrix):
            for w in ((1, 2, 1), (2, 1, 2), (3, 1, 3), (1, 3, 1)):
                wick_partition(space, w)
        # one table for the pattern (0, 1, 0); constant q: one key for it.
        # On the matrix (1, 2, 1) and (2, 1, 2) read the same entries and
        # share a key, while (3, 1, 3) and (1, 3, 1) swap q(1, 1) and q(3, 3)
        for space, keys in ((constant, 1), (matrix, 3)):
            assert space._shares_labels
            ((key, (_, evaluated)),) = space._memos["diagrams"].items()
            assert key == ("D", (0, 1, 0)) and len(evaluated) == keys
        assert matrix._labels == ((0, 1, 2), (1, 0, 2), (2, 2, 3))

    def test_distinct_diagonal_entries_store_no_weights(self):
        # the diagonal labels name each class letter, so no key is shared
        space = FockSpace(Deformation(MIXED3), level=5)
        assert not space._shares_labels
        for w in ((1, 2, 1), (2, 1, 2), (3, 1, 3), (1, 3, 1)):
            wick_partition(space, w)
        dual_partition(space, 2, (2, 3, 2))
        memo = space._memos["diagrams"]
        assert sorted(memo) == [("B", (0, 0, 1, 0)), ("D", (0, 1, 0))]
        assert all(not evaluated for _, evaluated in memo.values())
        assert not FockSpace.with_scalar_q(1, Fraction(1, 2), level=3)._shares_labels

    def test_labels_tell_types_apart(self):
        space = FockSpace(Deformation([[Fraction(1, 2), 0.5], [0.5, Fraction(1, 2)]]), level=2)
        assert space._labels == ((0, 1), (1, 0))

    def test_each_pattern_evaluated_once_per_space_at_d3_level6(self, monkeypatch):
        build = qfock.dual._pattern_weights
        calls = []
        spaces = []

        class Recorded(FockSpace):
            def __init__(self, *args):
                super().__init__(*args)
                spaces.append(self)

        def counted(space, table, letter):
            calls.append(letter)
            return build(space, table, letter)

        monkeypatch.setattr(qfock.cli, "FockSpace", Recorded)
        monkeypatch.setattr(qfock.dual, "_pattern_weights", counted)
        pinned = {"commutator": 549, "dual-agree": 549, "wick-agree": 186, "derivative-agree": 184}
        for suite, patterns in pinned.items():
            calls.clear()
            spaces.clear()
            with redirect_stdout(io.StringIO()):
                assert main(["verify", suite, "--d", "3", "--level", "6", "--q=1/2"]) == 0
            ((space,),) = (spaces,)
            memo = space._memos["diagrams"]
            # one evaluation per table, stored under the one key of q = 1/2
            assert len(memo) == len(calls) == patterns, suite
            assert all(len(evaluated) == 1 for _, evaluated in memo.values()), suite


def letter_patterns(n):
    """The letter patterns on n vertices, classes numbered by first
    occurrence, in lexicographic order."""
    patterns = [()]
    for _ in range(n):
        patterns = [p + (c,) for p in patterns for c in range(max(p, default=-1) + 2)]
    return patterns


class TestPatternTable:
    def test_words_of_one_pattern_share_an_entry(self, monkeypatch):
        built = []

        def recorded(family, pattern):
            built.append((family, pattern))
            return diagram_table(family, pattern)

        monkeypatch.setattr(qfock.dual, "diagram_table", recorded)
        space = FockSpace(Deformation(MIXED3), level=5)
        wick_partition(space, (3, 1, 3))
        wick_partition(space, (2, 1, 2))
        # vertex 0 carries i: both read (0, 0, 1, 0)
        dual_partition(space, 3, (3, 2, 3))
        dual_partition(space, 2, (2, 3, 2))
        assert built == [("D", (0, 1, 0)), ("B", (0, 0, 1, 0))]
        assert sorted(space._memos["diagrams"]) == sorted(built)

    def test_hand_counted_d_table(self):
        # vertices 1..4 carry the classes 0, 1, 0, 1; only (1, 3) and (2, 4)
        # pair equal classes, and each of them crosses the other class once
        cross = (((0, 1), 1),)
        assert sorted(diagram_table("D", (0, 1, 0, 1))) == sorted(
            [
                (1, (1, 0, 1, 0), (), ()),
                (-1, (1, 1), (), cross),
                (-1, (0, 0), (), cross),
                (1, (), (), cross),
            ]
        )

    @pytest.mark.parametrize(
        "family,digest",
        [
            ("B", "1991d513f6331b90e80a116f6e53bec42efaf6c9"),
            ("C", "1b617662ab048ecfde7c8aa5e3c3f39d30588408"),
            ("D", "adb2da23fc2d12612e1cc6d8ad0e8ee9ceb2a603"),
        ],
    )
    def test_tables_of_every_pattern_to_seven_vertices_are_pinned(self, family, digest):
        # digests taken before the tables read the diagrams' records; the
        # entries count in order, since float weights are summed in table order
        sha = hashlib.sha1()
        for n in range(0 if family == "D" else 1, 8):
            for p in letter_patterns(n):
                sha.update(repr(diagram_table(family, p)).encode())
        assert sha.hexdigest() == digest

    def test_one_space_reads_every_pattern_of_a_d3_level6_run_once(self, monkeypatch):
        families = Counter()
        enumerate_family = qfock.partitions.enumerate_family

        def recorded(family, n_vertices):
            families[family] += 1
            return enumerate_family(family, n_vertices)

        monkeypatch.setattr(qfock.partitions, "enumerate_family", recorded)
        space = FockSpace.with_scalar_q(3, Fraction(1, 2), level=6)
        # the words the four suites read: to level 6, below it for C
        for w in (w for n in range(7) for w in space.words(n)):
            wick_partition(space, w)
            for i in (1, 2, 3):
                dual_partition(space, i, w)
                if len(w) < 6:
                    qfock.ncpoly.diff_partition(space, i, w)
        assert families == {"B": 549, "C": 184, "D": 186}
        assert len(space._memos["diagrams"]) == 919

    def test_wick_agree_enumerates_each_pattern_once(self, monkeypatch):
        diagrams = []
        enumerate_family = qfock.partitions.enumerate_family

        def counted(family, n_vertices):
            out = enumerate_family(family, n_vertices)
            diagrams.append(len(out))
            return out

        monkeypatch.setattr(qfock.partitions, "enumerate_family", counted)
        with redirect_stdout(io.StringIO()):
            assert main(["verify", "wick-agree", "--d", "3", "--level", "6", "--q=1/2"]) == 0
        assert sum(diagrams) <= 10_504


def test_commutator_sums_each_dual_once_per_call(monkeypatch):
    # one call per i serves every j: each D_1 e_u is summed once in all
    space = FockSpace.with_scalar_q(2, Fraction(1, 2), level=5)
    calls = []

    def recorded(sp, i, u):
        calls.append((i, tuple(u)))
        return dual_partition(sp, i, u)

    monkeypatch.setattr(qfock.dual, "dual_partition", recorded)
    assert commutator_residual(space, 1, 4) == {1: 0, 2: 0}
    assert len(calls) == len(set(calls))
    assert set(calls) == {(1, u) for n in range(6) for u in space.words(n)}


def test_each_basis_word_annihilated_once_per_letter(monkeypatch):
    # the Wick recursion, the commutator's lifts A_j e_w and the recursion
    # for D_i read one memo of a_j e_w: every i, and every strategy, share
    # each (j, w)
    space = FockSpace.with_scalar_q(2, Fraction(1, 2), level=5)
    calls = []
    build = FockSpace._annihilated_word

    def recorded(sp, j, w):
        calls.append((j, w))
        return build(sp, j, w)

    monkeypatch.setattr(FockSpace, "_annihilated_word", recorded)
    for n in range(6):
        for w in space.words(n):
            wick_recursive(space, w)
    # the Wick recursion annihilates the first letter of each word in the rest
    assert sorted(calls) == sorted((w[0], w[1:]) for n in range(1, 6) for w in space.words(n))
    for i in (1, 2):
        assert commutator_residual(space, i, 4) == {1: 0, 2: 0}
    for n in range(6):
        for w in space.words(n):
            for i in (1, 2):
                dual_recursive(space, i, w)
    assert len(calls) == len(set(calls))
    assert set(calls) == {(j, w) for n in range(5) for w in space.words(n) for j in (1, 2)}
