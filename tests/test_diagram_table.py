"""The diagram sums read one term table per (family, letter pattern):
the grouped terms equal the per-diagram oracle word for word, words of
one pattern share a table, and the table cache stays bounded."""

import io
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product

import pytest
from diagram_oracles import per_diagram_terms

import qfock.dual
import qfock.partitions
from qfock import FORMAL_Q, Deformation, FockSpace, commutator_residual, dual_partition, wick_partition
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


class TestPatternTable:
    def test_words_of_one_pattern_share_an_entry(self):
        space = FockSpace(Deformation(MIXED3), level=5)
        diagram_table.cache_clear()
        wick_partition(space, (3, 1, 3))
        wick_partition(space, (2, 1, 2))
        # vertex 0 carries i: both read (0, 0, 1, 0)
        dual_partition(space, 3, (3, 2, 3))
        dual_partition(space, 2, (2, 3, 2))
        info = diagram_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 2, 2)

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

    def test_bounded_cache_holds_every_pattern_of_a_d3_level6_run(self, monkeypatch):
        families = Counter()
        enumerate_family = qfock.partitions.enumerate_family

        def recorded(family, n_vertices):
            families[family] += 1
            return enumerate_family(family, n_vertices)

        monkeypatch.setattr(qfock.partitions, "enumerate_family", recorded)
        diagram_table.cache_clear()
        for suite in ("commutator", "dual-agree", "wick-agree", "derivative-agree"):
            with redirect_stdout(io.StringIO()):
                assert main(["verify", suite, "--d", "3", "--level", "6", "--q=1/2"]) == 0
        info = diagram_table.cache_info()
        assert families == {"B": 549, "C": 184, "D": 186}
        assert info.maxsize is not None and info.currsize == info.misses == 919 <= info.maxsize

    def test_wick_agree_enumerates_each_pattern_once(self, monkeypatch):
        diagrams = []
        enumerate_family = qfock.partitions.enumerate_family

        def counted(family, n_vertices):
            out = enumerate_family(family, n_vertices)
            diagrams.append(len(out))
            return out

        monkeypatch.setattr(qfock.partitions, "enumerate_family", counted)
        diagram_table.cache_clear()
        with redirect_stdout(io.StringIO()):
            assert main(["verify", "wick-agree", "--d", "3", "--level", "6", "--q=1/2"]) == 0
        assert sum(diagrams) <= 10_504


def test_commutator_sums_each_dual_once_per_call(monkeypatch):
    space = FockSpace.with_scalar_q(2, Fraction(1, 2), level=5)
    calls = []

    def recorded(sp, i, u):
        calls.append((i, tuple(u)))
        return dual_partition(sp, i, u)

    monkeypatch.setattr(qfock.dual, "dual_partition", recorded)
    assert commutator_residual(space, 1, 2, 4) == 0
    assert calls and len(calls) == len(set(calls))
