"""Partition families checked against independent brute force.

The enumeration oracle builds every partition of the vertex row into pairs
and singletons and filters by the drawing rules written out verbatim; the
crossing oracle (``partition_geometry``) draws each diagram and intersects
its polylines in exact rational coordinates, where the library counts
crossings by the interval rule. Both are kept deliberately separate from
the library code paths.
"""

import hashlib

import pytest

import partition_geometry as geometry
from qfock import DrawnPartition, enumerate_family


def inversions(seq):
    """Number of inversions of a sequence of comparable items."""
    return sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq)) if seq[a] > seq[b])


def induced_permutation(part: DrawnPartition):
    """Permutation of {1..m-1} induced by a full pairing in B(2m).

    Requires partner0 == m and no singletons. The pair through l < m lands
    at partner - m; the diagram's crossing number then splits as
    m(m-1)/2 plus the inversion count of the returned permutation. A valid
    B(2m) diagram without singletons always has partner0 == m, so that guard
    only catches malformed input.
    """
    if part.family != "B":
        raise ValueError("induced permutation is defined for family B")
    if part.singletons:
        raise ValueError("partition has singletons")
    if part.n_vertices % 2 != 0:
        raise ValueError("full pairings need an even vertex count")
    m = part.n_vertices // 2
    if geometry.partner0(part) != m:
        raise ValueError("vertex 0 must be paired with the middle vertex")
    partner = {}
    for a, b in part.pairs:
        partner[a] = b
        partner[b] = a
    return tuple(partner[l] - m for l in range(1, m))


def all_pair_singleton_partitions(vertices):
    """Every partition of the list into pairs and singletons."""
    vertices = list(vertices)
    if not vertices:
        yield ([], [])
        return
    v, rest = vertices[0], vertices[1:]
    for pairs, singles in all_pair_singleton_partitions(rest):
        yield pairs, [v] + singles
    for k, u in enumerate(rest):
        remaining = rest[:k] + rest[k + 1 :]
        for pairs, singles in all_pair_singleton_partitions(remaining):
            yield [(v, u)] + pairs, singles


def satisfies_b_rules(pairs, singles, n):
    partner = {a: b for a, b in pairs} | {b: a for a, b in pairs}
    if 0 not in partner:
        return False
    k = partner[0]
    for l in range(1, k):
        if l not in partner or not (k + 1 <= partner[l] <= n):
            return False
    for s in singles:
        if 1 <= s <= k - 1:
            return False
    # nothing else may be paired
    for a, b in pairs:
        lo = min(a, b)
        if lo != 0 and not (1 <= lo <= k - 1):
            return False
    return True


def satisfies_c_rules(pairs, singles, n):
    partner = {a: b for a, b in pairs} | {b: a for a, b in pairs}
    if 0 not in partner:
        return False
    k = partner[0]
    for l in range(1, k):
        if l in partner and not (k + 1 <= partner[l] <= n):
            return False
    for a, b in pairs:
        lo = min(a, b)
        if lo != 0 and not (1 <= lo <= k - 1):
            return False
    return True


class TestCounts:
    def test_family_b_four_vertices(self):
        assert len(enumerate_family("B", 4)) == 2

    def test_family_c_four_vertices(self):
        assert len(enumerate_family("C", 4)) == 4

    def test_family_d_three_vertices(self):
        assert len(enumerate_family("D", 3)) == 4

    def test_family_d_empty(self):
        parts = enumerate_family("D", 0)
        assert len(parts) == 1
        assert parts[0].pairs == () and parts[0].singletons == ()

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            enumerate_family("E", 3)


class TestBruteForceAgreement:
    @pytest.mark.parametrize("n_vertices", range(2, 9))
    def test_family_b(self, n_vertices):
        n = n_vertices - 1
        expected = {
            (tuple(sorted(map(tuple, map(sorted, pairs)))), tuple(sorted(singles)))
            for pairs, singles in all_pair_singleton_partitions(range(n_vertices))
            if satisfies_b_rules([tuple(sorted(p)) for p in pairs], singles, n)
        }
        got = {(p.pairs, p.singletons) for p in enumerate_family("B", n_vertices)}
        assert got == expected

    @pytest.mark.parametrize("n_vertices", range(2, 9))
    def test_family_c(self, n_vertices):
        n = n_vertices - 1
        expected = {
            (tuple(sorted(map(tuple, map(sorted, pairs)))), tuple(sorted(singles)))
            for pairs, singles in all_pair_singleton_partitions(range(n_vertices))
            if satisfies_c_rules([tuple(sorted(p)) for p in pairs], singles, n)
        }
        got = {(p.pairs, p.singletons) for p in enumerate_family("C", n_vertices)}
        assert got == expected

    @pytest.mark.parametrize("n_vertices", range(0, 9))
    def test_family_d(self, n_vertices):
        expected = {
            (tuple(sorted(map(tuple, map(sorted, pairs)))), tuple(sorted(singles)))
            for pairs, singles in all_pair_singleton_partitions(range(1, n_vertices + 1))
        }
        got = {(p.pairs, p.singletons) for p in enumerate_family("D", n_vertices)}
        assert got == expected

    def test_no_duplicates(self):
        for family, n in (("B", 8), ("C", 7), ("D", 7)):
            parts = enumerate_family(family, n)
            assert len({(p.pairs, p.singletons) for p in parts}) == len(parts)


class TestCrossings:
    def test_printed_four(self):
        assert DrawnPartition("B", 6, [(0, 3), (1, 5), (2, 4)], []).crossings() == 4

    def test_printed_thirteen(self):
        p = DrawnPartition("B", 10, [(0, 4), (1, 8), (3, 6), (2, 9)], [5, 7])
        assert p.crossings() == 13

    def test_printed_seven(self):
        p = DrawnPartition("B", 8, [(0, 3), (1, 7), (2, 5)], [4, 6])
        assert p.crossings() == 7

    def test_printed_five_family_c(self):
        p = DrawnPartition("C", 7, [(0, 3), (1, 6)], [2, 4, 5])
        assert p.crossings() == 5
        assert geometry.s_left(p) == (4, 5)
        assert geometry.s_right(p) == (2,)

    @pytest.mark.parametrize(
        "family,n",
        [("B", n) for n in range(2, 10)]
        + [("C", n) for n in range(2, 10)]
        + [("D", n) for n in range(0, 9)],
    )
    def test_geometry_matches_interval_oracle(self, family, n):
        # per block pair, not just the totals: the operator weights take one
        # factor per crossing of two strings. The oracle raises
        # DegenerateLayoutError if two polylines touch, so passing here also
        # shows that every drawing of these diagrams is transversal.
        for part in enumerate_family(family, n):
            assert part.crossing_pairs() == geometry.crossing_pairs(part)

    def test_oracle_rejects_touching_segments(self):
        origin = (0, 0)
        with pytest.raises(geometry.DegenerateLayoutError):
            geometry._segment_crossing(origin, (0, 2), origin, (2, 0))

    def test_nested_arcs_count_twice(self):
        p = DrawnPartition("D", 4, [(1, 4), (2, 3)], [])
        assert p.crossings() == 2

    def test_singleton_removal_step(self):
        # dropping a singleton s from a family-B diagram costs exactly one
        # crossing per paired vertex to the left of s
        for n_vertices in range(2, 8):
            for part in enumerate_family("B", n_vertices):
                paired = {v for p in part.pairs for v in p}
                for s in part.singletons:
                    smaller_pairs = [
                        tuple(v - 1 if v > s else v for v in p) for p in part.pairs
                    ]
                    smaller_singles = [
                        v - 1 if v > s else v for v in part.singletons if v != s
                    ]
                    smaller = DrawnPartition(
                        "B", n_vertices - 1, smaller_pairs, smaller_singles
                    )
                    left_of_s = sum(1 for v in paired if v > s)
                    assert part.crossings() - smaller.crossings() == left_of_s


class TestInducedPermutation:
    def test_single_pair(self):
        p = DrawnPartition("B", 2, [(0, 1)], [])
        assert induced_permutation(p) == ()
        assert p.crossings() == 0

    def test_printed_full_pairing(self):
        p = DrawnPartition("B", 8, [(0, 4), (1, 6), (2, 5), (3, 7)], [])
        sigma = induced_permutation(p)
        assert sigma == (2, 1, 3)
        assert p.crossings() == 6 + inversions(sigma) == 7

    @pytest.mark.parametrize("m", range(1, 6))
    def test_identity_all_full_pairings(self, m):
        parts = [
            p
            for p in enumerate_family("B", 2 * m)
            if not p.singletons and geometry.partner0(p) == m
        ]
        assert parts, "full pairings must exist"
        for p in parts:
            sigma = induced_permutation(p)
            assert sorted(sigma) == list(range(1, m))
            assert p.crossings() == m * (m - 1) // 2 + inversions(sigma)

    def test_crossing_numbers_b6(self):
        parts = [
            p
            for p in enumerate_family("B", 6)
            if not p.singletons and geometry.partner0(p) == 3
        ]
        assert sorted(p.crossings() for p in parts) == [3, 4]

    def test_rejects_singletons(self):
        p = DrawnPartition("B", 4, [(0, 1)], [2, 3])
        with pytest.raises(ValueError):
            induced_permutation(p)

    def test_rejects_off_center_partner(self):
        # (0,2),(1,3) is the only full pairing in B(4) and pairs 0 with the
        # middle vertex; (0,1),(2,3) pairs it with vertex 1 instead.
        p = DrawnPartition("B", 4, [(0, 1), (2, 3)], [])
        with pytest.raises(ValueError, match="middle vertex"):
            induced_permutation(p)


ORDER_DIGESTS = [
    ("B", 1, "97d170e1550eee4afc0af065b78cda302a97674c"),
    ("B", 2, "fee0e7686d68de99bc32a325632e21d1dffe79d0"),
    ("B", 3, "302733f6b6261e7fc0edcec1d225b56a8293d1d2"),
    ("B", 4, "8bba3cf3a400c57828e17ea0911abe0b55a5010b"),
    ("B", 5, "aef14cd2caa358643df45117ba05e360c310f462"),
    ("B", 6, "f7c61f4798b92c61effa4daa1ead0943345f2d03"),
    ("B", 7, "d9459e97ccd34ed027a7fa276b2b8ec6744da6ea"),
    ("B", 8, "f45f5907910a05f234aa28dfd94338d2b9ebaf94"),
    ("B", 9, "f1a47af3f6f88a5246615d618c40b0ba9bf69362"),
    ("B", 10, "18decfbb80b715af779056ed0b22f177ec728f7f"),
    ("B", 11, "c9a64b4ac542f3d0458e9129c582e6419b700657"),
    ("C", 1, "97d170e1550eee4afc0af065b78cda302a97674c"),
    ("C", 2, "fee0e7686d68de99bc32a325632e21d1dffe79d0"),
    ("C", 3, "b9470bdf81ec0d3cb0e69c5cadd335e02c7884f6"),
    ("C", 4, "4a3d31b077631367d2bf37599346f5fab7b2aaa4"),
    ("C", 5, "068079b35dc7db82c6be3bfa52cea2f9df27c93b"),
    ("C", 6, "1c56639e294d8b056d85a94d8b1b6ce76172772d"),
    ("C", 7, "0236a3a7c6d1b5bd4ddb2c1c0ce0f61897015f83"),
    ("C", 8, "3008f282c4b3b25fe981a8ffea64375d330d3334"),
    ("C", 9, "4a834cbd4b783b6cef23ca6d7d5f8be1b7153f3b"),
    ("C", 10, "2f492e1ad40afed8fd253e57561678757f00e032"),
    ("D", 0, "4e9274d6dc11931d0219299b91937d3338c4c1c2"),
    ("D", 1, "6b9e2aea3e84c2ef276f8e21bbfced1c83e0a708"),
    ("D", 2, "7b23807aa78b228a37acccddd24b93e4d878ff4b"),
    ("D", 3, "73ca3fd02c79e21b4c3751a6eb05b3733b3c6d38"),
    ("D", 4, "746a6ff7e5c5669f1bb5ef2463bfcad8fcfc413d"),
    ("D", 5, "eaa39ea7f951984c04025a53a46a98c6e30f73f9"),
    ("D", 6, "d77018e4d13928a0a891b9987f59ee24ad6ff403"),
    ("D", 7, "2c5078c15ae35869c9018a737e7ca5b2320f8b56"),
    ("D", 8, "73295c16c779dc4c5db97e58520fc75d2b2f5a81"),
    ("D", 9, "d820caad4837f746db4dbc8f087a564131eaedb7"),
]


class TestStructure:
    def test_blocks_partition_vertices(self):
        with pytest.raises(ValueError):
            DrawnPartition("B", 4, [(0, 1)], [2])  # vertex 3 missing

    def test_enumeration_order_deterministic(self):
        parts = enumerate_family("B", 6)
        partners = [geometry.partner0(p) for p in parts]
        assert partners == sorted(partners)
        again = enumerate_family("B", 6)
        assert [(p.pairs, p.singletons) for p in parts] == [
            (p.pairs, p.singletons) for p in again
        ]

    @pytest.mark.parametrize("family, n_vertices, sha1", ORDER_DIGESTS)
    def test_enumeration_order_pinned(self, family, n_vertices, sha1):
        # the sha1 of the (pairs, singletons) sequence, in enumeration order
        seq = [(p.pairs, p.singletons) for p in enumerate_family(family, n_vertices)]
        assert hashlib.sha1(repr(seq).encode()).hexdigest() == sha1

    def test_heights_distinct(self):
        for part in enumerate_family("C", 7):
            heights = [geometry.height(part, p) for p in part.pairs]
            assert len(set(heights)) == len(heights)
