import random
from fractions import Fraction

import pytest

from ripshadow.geometry import (
    DimensionMismatch,
    dist2,
    make_point,
    orient,
    segment_intersection,
    to_triple,
    tr_point_in_triangle,
)

from oracles import cells_intersect, frac_on_segment

F = Fraction


def P(*coords):
    return make_point(coords)


def rand_point(rng, span=4, den=12):
    return (F(rng.randrange(-span * den, span * den + 1), den),
            F(rng.randrange(-span * den, span * den + 1), den))


def test_dist2_scaled_345():
    assert dist2(P(0, 0), P("3/5", "4/5")) == 1


def test_dist2_identity():
    p = P("1/3", "2/7")
    assert dist2(p, p) == 0


def test_dist2_unit_axis_4d():
    assert dist2(P(0, 0, 0, 0), P(1, 0, 0, 0)) == 1


def test_dist2_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dist2(P(0, 0), P(0, 0, 0))


def test_orient_ccw_collinear_cw():
    assert orient(P(0, 0), P(1, 0), P(0, 1)) == 1
    assert orient(P(0, 0), P(1, 0), P(2, 0)) == 0
    assert orient(P(0, 0), P(0, 1), P(1, 0)) == -1


def test_orient_antisymmetry_random():
    rng = random.Random(7)
    for _ in range(300):
        p, q, r = (rand_point(rng) for _ in range(3))
        assert orient(p, q, r) == -orient(p, r, q)


def test_dist2_symmetry_random():
    rng = random.Random(8)
    for _ in range(300):
        p, q = rand_point(rng), rand_point(rng)
        assert dist2(p, q) == dist2(q, p)
        assert (dist2(p, q) == 0) == (p == q)


def test_segment_intersection_cross():
    res = segment_intersection((P(0, 0), P(1, 1)), (P(0, 1), P(1, 0)))
    assert res.kind == "point"
    assert res.point == (F(1, 2), F(1, 2))


def test_segment_intersection_disjoint():
    res = segment_intersection((P(0, 0), P(1, 0)), (P(0, 1), P(1, 1)))
    assert res.kind == "disjoint"


def test_segment_intersection_collinear_overlap():
    res = segment_intersection((P(0, 0), P(2, 0)), (P(1, 0), P(3, 0)))
    assert res.kind == "overlap"
    assert res.segment == ((F(1), F(0)), (F(2), F(0)))


def test_segment_intersection_shared_endpoint():
    res = segment_intersection((P(0, 0), P(1, 0)), (P(1, 0), P(1, 1)))
    assert res.kind == "shared_endpoint"
    assert res.point == (F(1), F(0))


def test_segment_intersection_t_junction_is_point():
    res = segment_intersection((P(0, 0), P(2, 0)), (P(1, 0), P(1, 1)))
    assert res.kind == "point"
    assert res.point == (F(1), F(0))


def test_segment_intersection_collinear_touch_is_shared_endpoint():
    res = segment_intersection((P(0, 0), P(1, 0)), (P(1, 0), P(2, 0)))
    assert res.kind == "shared_endpoint"
    assert res.point == (F(1), F(0))


def test_segment_intersection_symmetric_random():
    rng = random.Random(9)
    for _ in range(400):
        s = (rand_point(rng, 2, 6), rand_point(rng, 2, 6))
        t = (rand_point(rng, 2, 6), rand_point(rng, 2, 6))
        if s[0] == s[1] or t[0] == t[1]:
            continue
        a = segment_intersection(s, t)
        b = segment_intersection(t, s)
        assert a.kind == b.kind
        assert a.point == b.point
        if a.segment is not None:
            assert set(a.segment) == set(b.segment)


def test_transversal_point_on_both_lines_random():
    rng = random.Random(10)
    checked = 0
    while checked < 200:
        s = (rand_point(rng, 2, 6), rand_point(rng, 2, 6))
        t = (rand_point(rng, 2, 6), rand_point(rng, 2, 6))
        if s[0] == s[1] or t[0] == t[1]:
            continue
        res = segment_intersection(s, t)
        if res.kind != "point":
            continue
        p = res.point
        assert orient(s[0], s[1], p) == 0
        assert orient(t[0], t[1], p) == 0
        assert frac_on_segment(p, *s) and frac_on_segment(p, *t)
        checked += 1


def point_in_triangle(x, a, b, c):
    return tr_point_in_triangle(*map(to_triple, (x, a, b, c)))


def test_point_in_triangle_cases():
    a, b, c = P(0, 0), P(1, 0), P(0, 1)
    assert point_in_triangle(P("1/3", "1/3"), a, b, c) == "inside"
    assert point_in_triangle(P("1/2", 0), a, b, c) == "boundary"
    assert point_in_triangle(P(2, 2), a, b, c) == "outside"


def test_point_in_triangle_degenerate():
    a, b, c = P(0, 0), P(1, 0), P(2, 0)
    assert point_in_triangle(P("1/2", 0), a, b, c) == "boundary"
    assert point_in_triangle(P(0, 1), a, b, c) == "outside"


def test_cells_intersect_mixed():
    tri = [P(0, 0), P(1, 0), P(0, 1)]
    assert cells_intersect([P("1/4", "1/4")], tri)
    assert not cells_intersect([P(2, 2)], tri)
    assert cells_intersect([P(-1, "1/4"), P(2, "1/4")], tri)
    assert cells_intersect(tri, [P("1/2", "1/2"), P(1, 1), P(2, 0)])
    assert not cells_intersect(tri, [P(5, 5), P(6, 5), P(5, 6)])
    # one triangle strictly inside another
    small = [P("1/8", "1/8"), P("1/4", "1/8"), P("1/8", "1/4")]
    assert cells_intersect(small, tri)
