from fractions import Fraction

import pytest

from ripshadow.complexes import build_rips
from ripshadow.errors import AuditError
from ripshadow.fixtures import (
    annulus_ring_points,
    audit_crossing_triangle,
    audit_hexagon,
    cross_polytope_points,
    crossing_triangle_fixture,
    four_d_points,
    hexagon_points,
    rational_sqrt,
)
from ripshadow.geometry import dist2
from ripshadow.homology import betti_numbers, integer_h1
from ripshadow.shadow import build_shadow, shadow_betti

F = Fraction


def test_rational_sqrt_accuracy():
    x = F(3) / 4
    s = rational_sqrt(x)
    assert abs(s * s - x) < F(1, 2**30)


def test_hexagon_exact_relations():
    pts = hexagon_points(F(11, 20))
    x1, x2, x3, x4, x5, x6 = pts
    assert x4 == (-x1[0], -x1[1])
    assert x5 == (-x2[0], -x2[1])
    assert x6 == (-x3[0], -x3[1])
    assert x2 == (x1[0] + x3[0], x1[1] + x3[1])
    assert (x1[0] + x3[0] + x5[0], x1[1] + x3[1] + x5[1]) == (0, 0)


def test_hexagon_is_octahedron():
    pts = hexagon_points(F(11, 20))
    c = build_rips(pts, F(1), dim_cap=3)
    assert c.counts() == (6, 12, 8, 0)
    assert betti_numbers(c, 2).q == (1, 0, 1)
    s = build_shadow(c)
    assert shadow_betti(s) == (1, 0)


def test_hexagon_precondition():
    with pytest.raises(ValueError):
        hexagon_points(F(1, 2))  # r^2 = 1/4 violates 1/4 < r^2
    with pytest.raises(ValueError):
        hexagon_points(F(3, 5))  # 3 r^2 > 1


def test_hexagon_report_margins_positive():
    pts = hexagon_points(F(11, 20))
    assert all(m > 0 for m in audit_hexagon(pts).values())
    assert build_rips(pts, F(1)).counts()[1] == 12


def test_cross_polytope_k3_matches_hexagon_combinatorics():
    pts = cross_polytope_points(3)
    c = build_rips(pts, F(1), dim_cap=3)
    assert c.counts() == (6, 12, 8, 0)
    assert betti_numbers(c, 2).q == (1, 0, 1)


def test_cross_polytope_k4_sphere():
    pts = cross_polytope_points(4)
    c = build_rips(pts, F(1), dim_cap=4)
    assert c.counts()[:5] == (8, 24, 32, 16, 0)
    assert betti_numbers(c, 3).q == (1, 0, 0, 1)


def test_cross_polytope_antipodal_sums():
    for k in (2, 3, 4):
        pts = cross_polytope_points(k)
        for i in range(k):
            assert (pts[i][0] + pts[i + k][0], pts[i][1] + pts[i + k][1]) == (0, 0)


def _hexagon_unchecked(r):
    """hexagon_points(r) without its radius precondition or audit."""
    x1, x3 = (r, F(0)), (-r / 2, rational_sqrt(3 * r * r / 4))
    x2 = (x1[0] + x3[0], x1[1] + x3[1])
    return [x1, x2, x3] + [(-x, -y) for x, y in (x1, x2, x3)]


def _crossing_with_second_point(p):
    pts, _, _ = crossing_triangle_fixture()
    return [pts[0], p, *pts[2:]]


@pytest.mark.parametrize(
    "build, pair",
    [
        # too wide: a non-antipodal pair exceeds 1
        pytest.param(lambda: cross_polytope_points(4, F(3, 5)), "0,3", id="cross_polytope"),
        # the long diagonal is exactly 1, inside the closed ball
        pytest.param(lambda: audit_hexagon(_hexagon_unchecked(F(1, 2))), "0,3", id="hexagon"),
        # the second chord is about 4/5, below 9/10
        pytest.param(lambda: annulus_ring_points(12, F(4, 5)), "0,2", id="ring"),
        # the band (1, 3) is open at both ends
        pytest.param(
            lambda: audit_crossing_triangle(_crossing_with_second_point((F(-11, 25), F(0)))),
            "0,1",
            id="crossing_at_1",
        ),
        pytest.param(
            lambda: audit_crossing_triangle(_crossing_with_second_point((F(39, 25), F(0)))),
            "0,1",
            id="crossing_at_3",
        ),
    ],
)
def test_fixture_audits_reject_band_violations(build, pair):
    with pytest.raises(AuditError, match=rf"\b{pair}\b"):
        build()


def test_four_d_rips_census_and_betti():
    pts = four_d_points()
    assert all(len(p) == 4 for p in pts)
    c = build_rips(pts, F(1), dim_cap=3)
    assert c.counts() == (6, 12, 8, 0)
    b = betti_numbers(c, 2).q
    assert b == (1, 0, 1)
    assert b[1] == 0  # simply connected at homology level


def test_four_d_barycenters_coincide_exactly():
    pts = four_d_points()
    b_odd = tuple(sum(pts[v][c] for v in (0, 2, 4)) for c in range(4))
    b_even = tuple(sum(pts[v][c] for v in (1, 3, 5)) for c in range(4))
    assert b_odd == b_even == (0, 0, 0, 0)


def test_crossing_triangle_quasi_and_shadow():
    from ripshadow.quasi import build_quasi

    pts, interval, policy = crossing_triangle_fixture()
    rq = build_quasi(pts, interval, policy, dim_cap=2)
    assert betti_numbers(rq, 1).q == (3, 0)
    s = build_shadow(rq)
    assert shadow_betti(s) == (1, 1)
    # removing the uncertainty restores the certificate
    r3 = build_rips(pts, F(3), dim_cap=3)
    rb = betti_numbers(r3, 1).q
    sb = shadow_betti(build_shadow(r3))
    assert (rb[0], rb[1]) == sb
    assert integer_h1(r3).torsion == ()


def test_crossing_triangle_band_margins():
    pts, _, _ = crossing_triangle_fixture()
    margins = audit_crossing_triangle(pts)
    assert min(margins.values()) > F(1, 10)


def test_annulus_ring_chord_structure():
    pts = annulus_ring_points()
    n = len(pts)
    for i in range(n):
        d2 = dist2(pts[i], pts[(i + 1) % n])
        assert d2 <= F(49, 100)
    c = build_rips(pts, F(7, 10))
    assert betti_numbers(c, 1).q == (1, 1)
