"""Geometric crossing oracle for the partition diagrams.

Each diagram is drawn on a row of vertices right-to-left (vertex v sits at
x = max_vertex - v). A pair (a, b) with a < b is two vertical legs joined
by a horizontal bar at the pair's height: in families B and C the pair
(0, k) sits at height 1 and (a, b) at a + 1, in family D (a, b) sits at a.
A singleton is a vertical line to one unit above the highest bar. Distinct
blocks get distinct heights, so polylines of distinct blocks can only meet
transversally, and the crossings of two blocks are the intersection points
of their polylines, found segment by segment in exact rational
coordinates.

This is the library's former crossing engine, kept here as the independent
oracle for the interval rule in ``qfock.partitions``, with the block
geometry that only the tests read: the partner of vertex 0 and the
singletons on either side of it.
"""

from fractions import Fraction


class DegenerateLayoutError(RuntimeError):
    """Raised when block polylines touch non-transversally.

    The drawing rules make this impossible; seeing it means a layout bug.
    """


def partner0(part):
    """The vertex paired with 0 (families B and C)."""
    if part.family not in ("B", "C"):
        raise ValueError("family D has no 0 vertex")
    for a, b in part.pairs:
        if a == 0:
            return b
    raise ValueError("vertex 0 is not paired")


def s_left(part):
    """Singletons above the partner of 0 (family C's left area)."""
    k = partner0(part)
    return tuple(s for s in part.singletons if s > k)


def s_right(part):
    """Singletons below the partner of 0 (family C's right area)."""
    k = partner0(part)
    return tuple(s for s in part.singletons if s < k)


def max_vertex(part):
    return part.n_vertices - 1 if part.family in ("B", "C") else part.n_vertices


def height(part, pair):
    a, _ = pair
    if part.family in ("B", "C"):
        return 1 if a == 0 else a + 1
    return a


def layout(part):
    """Map block id -> polyline (list of exact rational points)."""
    n = max_vertex(part)

    def x(v):
        return Fraction(n - v)

    heights = {p: height(part, p) for p in part.pairs}
    if len(set(heights.values())) != len(heights):
        raise DegenerateLayoutError("pair heights collide")
    top = Fraction(max(heights.values(), default=0) + 1)
    lines = {}
    for p in part.pairs:
        a, b = p
        h = Fraction(heights[p])
        lines[p] = [(x(a), Fraction(0)), (x(a), h), (x(b), h), (x(b), Fraction(0))]
    for s in part.singletons:
        lines[(s,)] = [(x(s), Fraction(0)), (x(s), top)]
    return lines


def crossing_pairs(part):
    """Map frozenset{block_a, block_b} -> geometric intersection count."""
    lines = layout(part)
    ids = list(lines)
    counts = {}
    for ia in range(len(ids)):
        for ib in range(ia + 1, len(ids)):
            c = _polyline_crossings(lines[ids[ia]], lines[ids[ib]])
            if c:
                counts[frozenset((ids[ia], ids[ib]))] = c
    return counts


def _orient(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _on_segment(p, q, r):
    # r assumed collinear with pq
    return (
        min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
        and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])
    )


def _segment_crossing(p1, p2, p3, p4):
    """1 if the open interiors cross transversally, 0 if disjoint.

    Any touching configuration (shared endpoint, endpoint on interior,
    collinear overlap) raises; the drawing rules exclude them.
    """
    d1 = _orient(p3, p4, p1)
    d2 = _orient(p3, p4, p2)
    d3 = _orient(p1, p2, p3)
    d4 = _orient(p1, p2, p4)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return 1
    for d, seg, pt in ((d1, (p3, p4), p1), (d2, (p3, p4), p2), (d3, (p1, p2), p3), (d4, (p1, p2), p4)):
        if d == 0 and _on_segment(seg[0], seg[1], pt):
            raise DegenerateLayoutError(f"blocks touch at {pt}")
    return 0


def _polyline_crossings(line_a, line_b):
    total = 0
    for sa in range(len(line_a) - 1):
        for sb in range(len(line_b) - 1):
            total += _segment_crossing(
                line_a[sa], line_a[sa + 1], line_b[sb], line_b[sb + 1]
            )
    return total
