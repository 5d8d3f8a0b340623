"""Exact-rational generators for the named benchmark configurations.

Regular polygons are replaced by rational points that satisfy the exact
linear symmetries the constructions actually use (antipodality, the hexagon
relation x2 = x1 + x3), and every threshold comparison is audited exactly.
A fixture either realizes its intended edge census with positive slack or
raises AuditError; nothing drifts silently.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, List, Sequence, Tuple

from .errors import AuditError
from .geometry import Point, audit_bands, rational_sqrt, scale_points, tr_orient, tr_segment_meet
from .quasi import EdgePolicy, UncertaintyInterval

F = Fraction


def _audit_bands(
    pts: Sequence[Point], lo: Fraction, hi: Fraction, want: Callable[[int, int], int]
) -> Dict[str, Fraction]:
    """`audit_bands` of the radii (lo, hi): every pair i < j in band
    want(i, j), with its exact slack keyed d2(i,j)."""
    audited, den = audit_bands(pts, lo, hi, want)
    return {f"d2({i},{j})": F(slack, den) for i, j, slack in audited}


def _approx(value: float, max_den: int = 10**6) -> Fraction:
    return F(value).limit_denominator(max_den)


def hexagon_points(r: Fraction) -> Tuple[Point, ...]:
    """Six rational points with the exact relations of a regular hexagon.

    x4 = -x1, x5 = -x2, x6 = -x3 and x2 = x1 + x3, so x1 + x3 + x5 = 0
    exactly.  The height s is a rational surrogate for r*sqrt(3)/2; the
    audit then certifies that the Rips complex at scale 1 is exactly the
    octahedron (sides and short diagonals in, long diagonals out).
    """
    r = F(r)
    if not (r * r > F(1, 4) and 3 * r * r <= 1):
        raise ValueError("need 1/4 < r^2 and 3 r^2 <= 1")
    s = rational_sqrt(3 * r * r / 4)
    x1 = (r, F(0))
    x3 = (-r / 2, s)
    x2 = (x1[0] + x3[0], x1[1] + x3[1])
    pts = [x1, x2, x3, (-x1[0], -x1[1]), (-x2[0], -x2[1]), (-x3[0], -x3[1])]
    audit_hexagon(pts)
    return tuple(pts)


def audit_hexagon(pts: Sequence[Point]) -> Dict[str, Fraction]:
    """Sides and short diagonals at d <= 1, long diagonals at d > 1."""
    return _audit_bands(pts, F(1), F(1), lambda i, j: 2 if j - i == 3 else 0)


def _default_cross_polytope_radius(k: int) -> Fraction:
    upper = 1 / (2 * math.cos(math.pi / (2 * k)))
    return _approx((0.5 + upper) / 2, 1000)


def cross_polytope_points(k: int, r: Fraction | None = None) -> Tuple[Point, ...]:
    """2k rational points on a circle whose Rips complex at scale 1 is the
    boundary of the k-dimensional cross-polytope.

    Points come in exact antipodal pairs (p_{i+k} = -p_i); only those k
    pairs exceed unit distance.  Rational points are taken exactly on the
    circle via the tangent half-angle parametrization.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    r = F(r) if r is not None else _default_cross_polytope_radius(k)
    half: List[Point] = []
    for i in range(k):
        t = _approx(math.tan(math.pi * i / (2 * k)))
        den = 1 + t * t
        half.append((r * (1 - t * t) / den, r * 2 * t / den))
    pts = half + [(-x, -y) for x, y in half]
    audit_cross_polytope(pts, k)
    return tuple(pts)


def audit_cross_polytope(pts: Sequence[Point], k: int) -> Dict[str, Fraction]:
    """Antipodal pairs at d > 1, every other pair at d <= 1."""
    return _audit_bands(pts, F(1), F(1), lambda i, j: 2 if j - i == k else 0)


def four_d_points(
    r: Fraction = F(11, 20), eps4: Fraction = F(1, 100)
) -> Tuple[Point, ...]:
    """Six points in R^4 whose Rips complex is still the octahedron but whose
    planar projection identifies the two big-triangle barycenters.

    Alternate hexagon vertices are lifted by eps4 in the second coordinate
    plane; the audit re-certifies the octahedron census in R^4 and the exact
    coincidence of the {0,2,4} and {1,3,5} barycenters at the origin.
    """
    hex_pts = hexagon_points(r)
    scale = F(eps4) / F(r)
    pts: List[Point] = []
    for i, (x, y) in enumerate(hex_pts):
        if i % 2 == 0:
            pts.append((x, y, scale * x, scale * y))
        else:
            pts.append((x, y, F(0), F(0)))
    audit_four_d(pts)
    return tuple(pts)


def audit_four_d(pts: Sequence[Point]) -> Dict[str, Fraction]:
    margins = audit_hexagon(pts)
    for tri in ((0, 2, 4), (1, 3, 5)):
        sums = tuple(sum(pts[v][c] for v in tri) for c in range(4))
        if any(x != 0 for x in sums):
            raise AuditError(f"barycenter of {tri} is not the origin: {sums}")
    return margins


def crossing_triangle_fixture():
    """Three long quasi-edges whose images pairwise cross around a central
    triangle: each component is contractible but the shadow has a hole.

    The segments have length 12/5, inside the uncertainty band of the
    interval (1, 3), and are selected explicitly as quasi links; all twelve
    cross-segment endpoint distances are audited to lie strictly inside the
    band, so no forced edge ever joins two segments.  (Unit-length segments
    cannot do this: if two of them crossed, one endpoint of each would land
    within distance 1 of the other, forcing a link.)

    Returns (points, interval, policy) ready for build_quasi.
    """
    pts = [
        (F(-36, 25), F(0)),
        (F(36, 25), F(0)),
        (F(-33, 50), F(-26, 25)),
        (F(39, 50), F(22, 25)),
        (F(33, 50), F(-26, 25)),
        (F(-39, 50), F(22, 25)),
    ]
    interval = UncertaintyInterval(F(1), F(3))
    policy = EdgePolicy.explicit([(0, 1), (2, 3), (4, 5)])
    audit_crossing_triangle(pts)
    return tuple(pts), interval, policy


def audit_crossing_triangle(pts: Sequence[Point]) -> Dict[str, Fraction]:
    """Every pair strictly inside the band 1 < d < 3, and the three segments
    pairwise crossing around a nondegenerate central triangle."""
    margins = _audit_bands(pts, F(1), F(3), lambda i, j: 1)
    segments = [(0, 1), (2, 3), (4, 5)]
    triples = [(*p, 1) for p in scale_points(pts)[0]]
    crossings = set()
    for (a, b), (x, y) in combinations(segments, 2):
        kind, meet = tr_segment_meet(*(triples[v] for v in (a, b, x, y)))
        if kind != "point":
            raise AuditError(f"segments {(a,b)} and {(x,y)} do not cross: {kind}")
        crossings.update(meet)
    if len(crossings) != 3:
        raise AuditError("crossings are not three distinct points")
    if tr_orient(*crossings) == 0:
        raise AuditError("central triangle is degenerate")
    return margins


def annulus_ring_points(n: int = 12, radius: Fraction = F(13, 10)) -> Tuple[Point, ...]:
    """n rational points around a circle, exactly antipodally symmetric,
    whose consecutive gaps are audited short and all other chords long.

    With radius 13/10 and n = 12: adjacent chords fall below 7/10, the
    second chord is about 13/10, so at scales between those the complex is
    the bare 12-cycle and its hole persists well beyond scale 19/10.
    """
    if n % 2 != 0:
        raise ValueError("n must be even for exact antipodal symmetry")
    radius = F(radius)
    half: List[Point] = []
    for i in range(n // 2):
        t = _approx(math.tan(math.pi * i / n))
        den = 1 + t * t
        half.append((radius * (1 - t * t) / den, radius * 2 * t / den))
    pts = half + [(-x, -y) for x, y in half]
    audit_annulus_ring(pts)
    return tuple(pts)


def audit_annulus_ring(pts: Sequence[Point]) -> Dict[str, Fraction]:
    """Adjacent chords <= 7/10 and every other chord >= 9/10."""
    n = len(pts)
    return _audit_bands(
        pts, F(7, 10), F(9, 10), lambda i, j: 0 if (j - i) % n in (1, n - 1) else 2
    )
