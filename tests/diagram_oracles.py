"""The diagram sums one diagram at a time, as an oracle for the pattern
tables of ``qfock.partitions.diagram_table``.

``per_diagram_terms`` enumerates every diagram of the family for the word,
drops those pairing unequal letters and weighs each survivor on its own,
with one deformation factor per crossing of two strings.

``per_word_table_terms`` reads the same pattern table as the library but
evaluates it afresh for every word, entry by entry at the word's own
letters, with no sharing between words.
"""

from bisect import bisect

from qfock import enumerate_family
from qfock.partitions import diagram_table


def crossing_weight(space, part, letter_of, exclude=None):
    """Product over crossings of the deformation entry of the two
    crossing strings; block pairs listed in ``exclude`` contribute nothing."""
    weight = 1
    q = space.deformation.q
    for bpair, count in part.crossing_pairs().items():
        if exclude is not None and bpair in exclude:
            continue
        a, b = tuple(bpair)
        weight = weight * q(letter_of(a), letter_of(b)) ** count
    return weight


def per_diagram_terms(space, family, word, i=None):
    """(signed weight, left word, right word) per diagram, with the vertex,
    sign and exclusion conventions of ``qfock.dual._diagram_terms``."""
    n = len(word)

    def letter(v):
        return i if v == 0 else word[n - v]

    def read(vertices):
        return tuple(map(letter, reversed(vertices)))

    for part in enumerate_family(family, n + (family != "D")):
        if any(letter(a) != letter(b) for a, b in part.pairs):
            continue
        zero_block = part.zero_block()
        # singletons are sorted, so those below the partner of 0 come first
        cut = bisect(part.singletons, zero_block[1]) if zero_block else 0
        right, left = part.singletons[:cut], part.singletons[cut:]
        exclude = {frozenset((zero_block, (s,))) for s in right} if right else None
        weight = crossing_weight(space, part, lambda blk: letter(blk[0]), exclude)
        if (part.num_pairs - (zero_block is not None)) % 2:
            weight = -weight
        yield weight, read(left), read(right)


def per_word_table_terms(space, family, word, i=None):
    """(signed weight, left word, right word) per entry of the word's
    pattern table, each weight count * q(a, b)^e over its class pairs."""
    classes = {}
    vertex_letters = ((i,) if family != "D" else ()) + tuple(word)[::-1]
    pattern = tuple(classes.setdefault(x, len(classes)) for x in vertex_letters)
    letter = tuple(classes)
    q = space.deformation.q
    for count, left, right, exponents in diagram_table(family, pattern):
        weight = count
        for (a, b), e in exponents:
            weight = weight * q(letter[a], letter[b]) ** e
        yield weight, tuple(letter[c] for c in left), tuple(letter[c] for c in right)
