"""The point functions served by the integer kernel agree with the Fraction
oracles in tests/oracles.py.

Points are snapped to a small half-integer lattice, so collinear overlaps,
T-junctions, shared endpoints, vertical and zero-length segments, points
on the polyline or on a vertex's vertical, and distances exactly equal to
a half-integer radius all occur often.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ripshadow.geometry import (
    closed_segments,
    from_triple,
    pair_bands,
    to_triple,
    tr_locate,
    tr_on_segment,
    tr_orient,
    tr_point_in_triangle,
    tr_segment_meet,
)
from ripshadow.lifting import loop_word

from oracles import (
    frac_loop_word,
    frac_on_segment,
    frac_orient,
    frac_pair_bands,
    frac_point_in_triangle,
    frac_segment_intersection,
    frac_winding_number,
)

coord = st.integers(-4, 4).map(lambda k: Fraction(k, 2))
point = st.tuples(coord, coord)
segment = st.tuples(point, point)
# the second segment starts at the first one's midpoint: a T-junction, or
# a collinear overlap or touch when it runs along the first
t_junction = st.tuples(segment, point).map(
    lambda sr: (sr[0], (centroid(sr[0]), sr[1]))
)
polyline = st.tuples(st.lists(point, min_size=1, max_size=8), st.booleans()).map(
    lambda pc: pc[0] + pc[0][:1] if pc[1] else pc[0]
)
# a lattice point, or the vertex centroid, which a closed polyline tends
# to wind around
polyline_and_point = polyline.flatmap(
    lambda line: st.tuples(st.just(line), st.one_of(point, st.just(centroid(line))))
)

# 1-, 2- and 4-D point sets (the 4-D fixture is audited through pair_bands)
# and half-integer radii, which lattice distances often hit exactly
point_set = st.sampled_from([1, 2, 4]).flatmap(
    lambda dim: st.lists(st.tuples(*[coord] * dim), max_size=8)
)
radius = st.sampled_from([Fraction(k, 2) for k in range(1, 6)])

examples = settings(max_examples=400, deadline=None, derandomize=True, database=None)


def centroid(points):
    n = len(points)
    return (sum(p[0] for p in points) / n, sum(p[1] for p in points) / n)


def outcome(fn, *args):
    """fn's result, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def meet(s, t):
    """tr_segment_meet as the oracle's (kind, point, segment)."""
    kind, pts = tr_segment_meet(*map(to_triple, (*s, *t)))
    pts = tuple(from_triple(p, 1) for p in pts)
    return (kind, pts[0] if len(pts) == 1 else None, pts if len(pts) == 2 else None)


@examples
@given(point, point, point)
def test_orient_and_on_segment_match_oracle(p, q, r):
    assert tr_orient(*map(to_triple, (p, q, r))) == frac_orient(p, q, r)
    assert tr_on_segment(*map(to_triple, (p, q, r))) == frac_on_segment(p, q, r)


@examples
@given(st.one_of(st.tuples(segment, segment), t_junction))
def test_segment_intersection_matches_oracle(st_pair):
    s, t = st_pair
    assert outcome(meet, s, t) == outcome(frac_segment_intersection, s, t)


@examples
@given(point, point, point, point)
def test_point_in_triangle_matches_oracle(x, a, b, c):
    got = tr_point_in_triangle(*map(to_triple, (x, a, b, c)))
    assert got == frac_point_in_triangle(x, a, b, c)


@examples
@given(polyline_and_point)
def test_winding_number_matches_oracle(line_x):
    line, x = line_x
    try:
        want = frac_winding_number(line, x)
    except ValueError:
        want = None  # x is on the polyline
    assert tr_locate(closed_segments([to_triple(p) for p in line]), to_triple(x)) == want


@examples
@given(polyline_and_point, st.lists(point, max_size=3))
def test_loop_word_matches_oracle(line_x, more):
    line, x = line_x
    anchors = list(dict.fromkeys([x, *more]))
    got = outcome(lambda: loop_word(line, anchors).letters)
    assert got == outcome(frac_loop_word, line, anchors)


@examples
@given(point_set, radius, radius)
def test_pair_bands_matches_oracle(points, r1, r2):
    lo, hi = min(r1, r2), max(r1, r2)  # lo == hi comes up too
    bands, den = pair_bands(points, lo, hi)
    got = [(i, j, band, Fraction(slack, den)) for i, j, band, slack in bands]
    assert got == frac_pair_bands(points, lo, hi)
