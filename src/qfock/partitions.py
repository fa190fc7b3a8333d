"""Crossing partitions and their crossing counts.

Three families of partition diagrams supply the combinatorics behind the
closed-form operator formulas in this package. All of them live on a row of
vertices and are made of pair blocks and singleton blocks, and one pairing
rule generates each: the lowest free vertex stays a singleton or pairs with
a later free vertex, as its family allows.

* Family D on vertices {1, ..., n}: any vertex may stay single or pair
  with any later one, so D holds every partition into singletons and
  pairs; a pair (a, b) with a < b is drawn at height a.
* Family B on vertices {0, ..., n}: vertex 0 pairs with some k in {1..n}
  at height 1, every l in {1..k-1} pairs with an element of {k+1..n} at
  height l+1, and every vertex above k left free stays a singleton drawn
  straight up to the top.
* Family C on vertices {0, ..., n}: as B, except each l in {1..k-1} may
  instead stay a singleton. Singletons split into a left group (above k)
  and a right group (below k).

A pair (a, b) is drawn as two vertical legs joined by a horizontal bar at
the pair's height; a singleton is a vertical line to above the highest
bar. In all three families a pair's height increases with its left
endpoint, and the crossings of two blocks follow from their intervals
alone (the interval rule):

* a pair (a2, b2) with a2 > a1 crosses the pair (a1, b1) once for each of
  a2, b2 strictly inside (a1, b1): its legs pass through the lower bar,
  while the lower legs stop below the higher bar;
* a singleton s crosses each pair with a < s < b, through its bar;
* singletons never cross each other.

Nested arcs therefore cross a spanning pair twice and are counted twice.
The crossings of a diagram are counted per block pair, because the
operator weights take one deformation factor per crossing of two strings.

A diagram sum over a word only sees which vertices carry equal letters:
its letter pattern, the vertex letters relabelled 0, 1, 2, ... by first
occurrence. ``diagram_table`` groups the diagrams of a family that pair
equal classes of a pattern into signed integer counts, so the sums for
all words of one pattern share one enumeration.

What is cached where:

* each diagram caches, on itself and on first use, its crossing map
  (``crossing_pairs``) and the record derived from that map once
  (``record``): its pairs, its singletons in reading order, its sign and
  its crossings by block vertex, with the crossings ``diagram_table``
  leaves out already dropped;
* one process-wide ``lru_cache`` holds the enumeration, not the
  deformation: ``enumerate_family``, at most 32 entries, one tuple of
  diagrams per (family, vertex count), so the diagrams keep their maps and
  records for as long as their tuple stays cached;
* ``diagram_table`` itself is not cached here: a ``FockSpace`` keeps each
  table it reads in its ``diagrams`` memo, beside the weights evaluated
  from it (see :mod:`qfock.dual`).

``diagram_table`` reads only the records, so a table costs one pass over
the family's diagrams and no crossing map is walked again. A d=3 level-6
verification of every diagram sum meets 919 patterns: 549 in B, 184 in C
and 186 in D.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache

__all__ = [
    "DrawnPartition",
    "diagram_table",
    "enumerate_family",
]

FAMILIES = ("B", "C", "D")


class DrawnPartition:
    """One diagram: its pair and singleton blocks and their crossings.

    Blocks are identified by their sorted vertex tuple: ``(a, b)`` for a
    pair, ``(s,)`` for a singleton.
    """

    __slots__ = ("family", "n_vertices", "pairs", "singletons", "_cross", "_record")

    def __init__(self, family, n_vertices, pairs, singletons):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        pairs = tuple(sorted(tuple(sorted(p)) for p in pairs))
        singletons = tuple(sorted(singletons))
        seen = [v for p in pairs for v in p] + list(singletons)
        lo = 0 if family in ("B", "C") else 1
        if sorted(seen) != list(range(lo, lo + n_vertices)):
            raise ValueError("blocks do not partition the vertex set")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "singletons", singletons)
        object.__setattr__(self, "_cross", None)
        object.__setattr__(self, "_record", None)

    def __setattr__(self, name, value):
        raise AttributeError("DrawnPartition is immutable")

    # -- block structure ---------------------------------------------------

    @property
    def num_pairs(self):
        return len(self.pairs)

    def blocks(self):
        return [tuple(p) for p in self.pairs] + [(s,) for s in self.singletons]

    def zero_block(self):
        for a, b in self.pairs:
            if a == 0:
                return (a, b)
        return None

    # -- crossings ---------------------------------------------------------

    def crossing_pairs(self):
        """Map frozenset{block_a, block_b} -> crossing count, by the interval
        rule of the module docstring; block pairs that do not cross are absent."""
        if self._cross is None:
            counts = {}
            # sorted by left endpoint, so each pair sits below the later ones
            for k, low in enumerate(self.pairs):
                a, b = low
                for high in self.pairs[k + 1 :]:
                    c = (a < high[0] < b) + (a < high[1] < b)
                    if c:
                        counts[frozenset((low, high))] = c
                for s in self.singletons:
                    if a < s < b:
                        counts[frozenset((low, (s,)))] = 1
            object.__setattr__(self, "_cross", counts)
        return self._cross

    def crossings(self):
        """Total number of crossings between blocks."""
        return sum(self.crossing_pairs().values())

    def record(self):
        """(pairs, left, right, sign, crossings), what ``diagram_table``
        reads, derived once from ``crossing_pairs`` and cached:

        * left and right are the singletons above and below the partner of
          0 (all of them are left in B and D), each right to left;
        * sign is (-1) to the number of pairs not through vertex 0;
        * crossings holds (u, v, count) per crossing block pair, u and v
          the first vertices of the two blocks, leaving out the crossings of
          the block through 0 with the right singletons.
        """
        if self._record is None:
            zero = self.zero_block()
            # singletons are sorted, so those below the partner of 0 come first
            cut = bisect(self.singletons, zero[1]) if zero else 0
            right, left = self.singletons[:cut], self.singletons[cut:]
            skipped = {frozenset((zero, (s,))) for s in right}
            crossings = []
            for bpair, n in self.crossing_pairs().items():
                if bpair not in skipped:
                    u, v = bpair
                    crossings.append((u[0], v[0], n))
            sign = -1 if (self.num_pairs - (zero is not None)) % 2 else 1
            record = (self.pairs, left[::-1], right[::-1], sign, tuple(crossings))
            object.__setattr__(self, "_record", record)
        return self._record

    def __repr__(self):
        return (
            f"DrawnPartition({self.family}, n={self.n_vertices}, "
            f"pairs={self.pairs}, singletons={self.singletons})"
        )


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def enumerate_family(family, n_vertices):
    """All diagrams of the family on n_vertices vertices, deterministically.

    Families B and C use vertices {0..n_vertices-1}; family D uses
    {1..n_vertices} and accepts n_vertices = 0 (the empty diagram). One
    recursion builds all three: the lowest free vertex v stays a singleton
    if its family allows that, and then pairs with each free later vertex
    it may reach, in increasing order. In D, v may stay single or pair
    with any later vertex. In B and C, vertex 0 must pair, and its partner
    k splits the rest: a vertex below k pairs with a vertex above k (in C
    it may also stay single), and a vertex above k stays single. Output
    order is lexicographic in (partner of 0, pairing assignment), the
    singleton first. The cache holds the three families at every vertex
    count up to ten, enough for a whole verification run; the diagrams
    keep their crossing maps.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    lo = 1 if family == "D" else 0
    if n_vertices < 1 - lo:
        raise ValueError(f"family {family} needs n_vertices >= {1 - lo}")
    out = []

    def walk(free, pairs, singles, k):
        if not free:
            out.append(DrawnPartition(family, n_vertices, pairs, singles))
            return
        v, rest = free[0], free[1:]
        if family == "D":
            single, reach = True, rest
        elif v == 0:
            single, reach = False, rest
        elif v < k:
            single, reach = family == "C", [u for u in rest if u > k]
        else:
            single, reach = True, ()
        if single:
            walk(rest, pairs, singles + [v], k)
        for u in reach:
            walk([w for w in rest if w != u], pairs + [(v, u)], singles, u if v == 0 else k)

    walk(list(range(lo, lo + n_vertices)), [], [], None)
    return tuple(out)


def diagram_table(family, pattern):
    """The diagrams of the family on len(pattern) vertices that pair equal
    classes of the letter pattern, grouped by what their terms depend on.

    ``pattern[k]`` is the class of the k-th vertex (vertex 0 first in B
    and C, vertex 1 first in D). Returns a tuple of entries
    (count, left, right, exponents):

    * left and right are the class words read off the singletons above
      and below the partner of 0 (all singletons are left in B and D),
      each right to left;
    * exponents is a sorted tuple of ((a, b), e) with a <= b: the number
      of crossings between strings of classes a and b, leaving out the
      crossings of the block through 0 with the right singletons;
    * count is the number of such diagrams, each signed by (-1) to the
      number of pairs not through vertex 0; entries whose signs cancel
      are dropped.
    """
    # at[v] is the class of vertex v
    at = tuple(pattern) if family in ("B", "C") else (None,) + tuple(pattern)
    groups = {}
    for part in enumerate_family(family, len(pattern)):
        pairs, left, right, sign, crossings = part.record()
        for a, b in pairs:
            if at[a] != at[b]:
                break
        else:
            exponents = {}
            for u, v, n in crossings:
                a, b = at[u], at[v]
                key = (a, b) if a <= b else (b, a)
                exponents[key] = exponents.get(key, 0) + n
            key = (tuple([at[v] for v in left]), tuple([at[v] for v in right]), tuple(sorted(exponents.items())))
            groups[key] = groups.get(key, 0) + sign
    return tuple((count,) + key for key, count in groups.items() if count)
