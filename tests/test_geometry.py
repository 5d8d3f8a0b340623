import random
import sys
from fractions import Fraction

import pytest

from ripshadow.geometry import (
    DimensionMismatch,
    dist2,
    from_triple,
    make_point,
    tr_locate,
    tr_orient,
    tr_segment_meet,
)

from oracles import cells_intersect, frac_on_segment, to_triple

F = Fraction


def P(*coords):
    return make_point(coords)


def orient(p, q, r):
    return tr_orient(*map(to_triple, (p, q, r)))


def segment_meet(s, t):
    kind, meet = tr_segment_meet(*map(to_triple, (*s, *t)))
    return kind, tuple(from_triple(p, 1) for p in meet)


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


def test_make_point_refuses_an_exponent_beyond_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert P(f"1e{limit}", f"1E-{limit}", "2.5e+1") == (F(10) ** limit, F(1, 10**limit), 25)
    for text in (f"1e{limit + 1}", f"1e-{limit + 1}", "3.5E+100000000"):
        with pytest.raises(ValueError, match=f"exceeds the {limit}-digit integer limit"):
            P("0", text)


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
    kind, meet = segment_meet((P(0, 0), P(1, 1)), (P(0, 1), P(1, 0)))
    assert kind == "point"
    assert meet == ((F(1, 2), F(1, 2)),)


def test_segment_intersection_disjoint():
    kind, meet = segment_meet((P(0, 0), P(1, 0)), (P(0, 1), P(1, 1)))
    assert kind == "disjoint"
    assert meet == ()


def test_segment_intersection_collinear_overlap():
    kind, meet = segment_meet((P(0, 0), P(2, 0)), (P(1, 0), P(3, 0)))
    assert kind == "overlap"
    assert meet == ((F(1), F(0)), (F(2), F(0)))


def test_segment_intersection_shared_endpoint():
    kind, meet = segment_meet((P(0, 0), P(1, 0)), (P(1, 0), P(1, 1)))
    assert kind == "shared_endpoint"
    assert meet == ((F(1), F(0)),)


def test_segment_intersection_t_junction_is_point():
    kind, meet = segment_meet((P(0, 0), P(2, 0)), (P(1, 0), P(1, 1)))
    assert kind == "point"
    assert meet == ((F(1), F(0)),)


def test_segment_intersection_collinear_touch_is_shared_endpoint():
    kind, meet = segment_meet((P(0, 0), P(1, 0)), (P(1, 0), P(2, 0)))
    assert kind == "shared_endpoint"
    assert meet == ((F(1), F(0)),)


def test_segment_intersection_symmetric_random():
    rng = random.Random(9)
    for _ in range(400):
        s = (rand_point(rng, 2, 6), rand_point(rng, 2, 6))
        t = (rand_point(rng, 2, 6), rand_point(rng, 2, 6))
        if s[0] == s[1] or t[0] == t[1]:
            continue
        kind_a, meet_a = segment_meet(s, t)
        kind_b, meet_b = segment_meet(t, s)
        assert kind_a == kind_b
        # an overlap is ordered along each segment's own direction
        assert set(meet_a) == set(meet_b)
        if kind_a != "overlap":
            assert meet_a == meet_b


def test_transversal_point_on_both_lines_random():
    rng = random.Random(10)
    checked = 0
    while checked < 200:
        s = (rand_point(rng, 2, 6), rand_point(rng, 2, 6))
        t = (rand_point(rng, 2, 6), rand_point(rng, 2, 6))
        if s[0] == s[1] or t[0] == t[1]:
            continue
        kind, meet = segment_meet(s, t)
        if kind != "point":
            continue
        (p,) = meet
        assert orient(s[0], s[1], p) == 0
        assert orient(t[0], t[1], p) == 0
        assert frac_on_segment(p, *s) and frac_on_segment(p, *t)
        checked += 1


def point_in_triangle(x, a, b, c):
    """tr_locate of x against the ring of triangle abc: None on a side, the
    winding number (0 outside) off them."""
    x, a, b, c = map(to_triple, (x, a, b, c))
    return tr_locate(((a, b), (b, c), (c, a)), x)


def test_point_in_triangle_cases():
    a, b, c = P(0, 0), P(1, 0), P(0, 1)
    assert point_in_triangle(P("1/3", "1/3"), a, b, c) == 1
    assert point_in_triangle(P("1/3", "1/3"), a, c, b) == -1
    assert point_in_triangle(P("1/2", 0), a, b, c) is None
    assert point_in_triangle(P(2, 2), a, b, c) == 0


def test_point_in_triangle_degenerate():
    a, b, c = P(0, 0), P(1, 0), P(2, 0)
    assert point_in_triangle(P("1/2", 0), a, b, c) is None
    assert point_in_triangle(P(0, 1), a, b, c) == 0


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
