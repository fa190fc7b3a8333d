"""Partition families checked against independent brute force.

The enumeration oracle builds every partition of the vertex row into pairs
and singletons and filters by the drawing rules written out verbatim; the
crossing oracle (``partition_geometry``) draws each diagram and intersects
its polylines in exact rational coordinates, where the library counts
crossings by the interval rule. Both are kept deliberately separate from
the library code paths.
"""

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

    def test_heights_distinct(self):
        for part in enumerate_family("C", 7):
            heights = [geometry.height(part, p) for p in part.pairs]
            assert len(set(heights)) == len(heights)
