"""Exact geometry: one integer kernel decides every planar predicate.

A planar point is carried as an integer triple (X, Y, D), meaning
(X/D, Y/D) with D > 0.  `tr_reduce` gives the reduced triple,
gcd(X, Y, D) = 1, so equal points have equal triples; but the predicates
take any D > 0 and answer alike for every triple of a point.
Orientation, point location and the meet of two segments are all decided
on triples by integer cross-multiplication; nothing here touches floating
point.  The hot ones, `tr_locate` and the first two orientations of
`tr_segment_meet`, compute their determinants inline, on coordinates taken
relative to one of the points.  Lexicographic and angular order sort on
integer keys: each fraction times 2**s, floored, with 2**s above the
square of every denominator sorted together.  Fractions with such
denominators are 0 or at least 2**-s apart, so the floors keep their order
and tie equal values.

`tr_locate` is the one point-location rule: None for a point on a
polyline, else the winding number around it, counted by one vertical-ray
crossing rule.  It settles a segment whose x-range misses the ray by an
exact x comparison, so one pass over a ring both finds a point on it and
winds around a point off it.  Its one-segment form is the on-segment
test and the signed ray crossing loop words count: x lies on [a, b] iff
`tr_locate(((a, b),), x) is None`.  Its three-segment form is the
point-in-triangle test: the closed triangle abc holds x iff
`tr_locate(((a, b), (b, c), (c, a)), x) != 0`, which for a collinear or
repeated-vertex triangle is the union of its sides.

`scale_points` is the one way a rational point reaches the kernel: it
rescales a set of points by the lcm of their denominators (it takes an int
or Fraction as it is and converts only other scalars; a point that is
already a tuple of them is not rebuilt), and on that one integer scale the
rescaled point (X, Y) is the triple (X, Y, 1).  A complex is rescaled once,
and `SimplicialComplex.scaled` keeps the result for the shadow and the
lifts; a free polyline and its anchors given to `lifting.loop_word` are
rescaled together by one call, and so are the crossing fixture's points.  A
triple goes back to a rational point with `from_triple`.

Input text is read by `parse_rational`: a plain ASCII "[-]digits[/digits]",
the form every written point document uses, goes straight to `int`, and
every other string (a sign +, whitespace, underscores, decimals, exponents,
non-ASCII digits) to Fraction's own parse, with the same values and the
same errors.
`dist2` sums a planar pair inline, dx*dx + dy*dy, and any other dimension
as a sum over the coordinates.

`pair_distances` is the one proximity pass, in any dimension, and the one
judge of point coincidence: the complexes are built on a set of points, so
it refuses the first pair, in lexicographic order, at squared distance 0.
It is output-sensitive: each point is filed under the cell of a uniform
grid whose side is the largest radius asked for, and only pairs in the
3 x 3 neighbouring cells are tested.  A point's cell is
(x // side, y // side) on its first two rescaled coordinates, padded with
y = 0 for a 1-D point and (0, 0) for a 0-D one, which loses no pair in any
dimension: a pair at distance d <= r has |dx| <= d and |dy| <= d, so floor
division by r puts the two points in the same or next cells.  Coincident
points share a cell, so the pass still finds every coincident pair.  It
yields only the pairs within the largest radius; pairs beyond it are
never produced.
`audit_bands` is the one band audit, for the embedding and the fixtures:
it asks the pass for one more radius, the sum of the coordinate spans,
which bounds every distance, so the pass yields every pair, and it refuses
the first pair outside its wanted band.  Links are decided elsewhere: Rips
edges are the pairs the pass yields at the one radius eps
(`complexes.build_rips`), and quasi-Rips links, forced below eps and picked
by a policy inside the open band, are resolved by `quasi._resolve_links`
alone.
"""

from __future__ import annotations

import bisect
import math
import re
import sys
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import AuditError

Scalar = Fraction  # or int; the two mix freely
Point = Tuple[Scalar, ...]
Triple = Tuple[int, int, int]  # (X, Y, D): the point (X/D, Y/D), D > 0


class DimensionMismatch(ValueError):
    pass


class DuplicatePointError(ValueError):
    """Two input points coincide: the complexes are built on a set of points."""


def _exact(p: Iterable) -> Point:
    """p as a tuple with each coordinate other than an int or Fraction made
    a Fraction; a tuple of ints and Fractions is returned as it is."""
    p = p if type(p) is tuple else tuple(p)
    for c in p:
        if not isinstance(c, (int, Fraction)):
            return tuple([c if isinstance(c, (int, Fraction)) else Fraction(c) for c in p])
    return p


# a plain ASCII [-]digits[/digits] string, read with int alone
_PLAIN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# a well-formed decimal exponent closing a string, as Fraction reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_rational(x) -> Fraction:
    """x as an exact Fraction: a string is a rational ("11/20") or a
    decimal ("0.55", "1e-3").  An exponent beyond the interpreter's limit
    on an integer's digits (`sys.get_int_max_str_digits`; 0 is none) is
    refused with ValueError before any Fraction is built, like a number
    written out with that many digits.  A plain "[-]digits[/digits]" in
    ASCII is read by `int`, with the same value, errors and messages as
    Fraction's own parse; every other string takes that parse."""
    m = isinstance(x, str) and _PLAIN.fullmatch(x)
    if m:
        num, den = m.groups()
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # Python >= 3.10.7
    m = isinstance(x, str) and _EXPONENT.search(x)
    if m and limit and abs(int(m[1])) > limit:
        raise ValueError(f"exponent {m[1]} exceeds the {limit}-digit integer limit")
    return Fraction(x)


def make_point(coords: Iterable) -> Point:
    """Build a point of exact rationals from strings, ints, or Fractions,
    each read by `parse_rational`."""
    return tuple(parse_rational(c) for c in coords)


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def dist2(p: Point, q: Point) -> Scalar:
    """Exact squared Euclidean distance; a planar pair is summed inline."""
    if len(p) != len(q):
        raise DimensionMismatch(f"dimension mismatch: {len(p)} vs {len(q)}")
    if len(p) == 2:
        dx = p[0] - q[0]
        dy = p[1] - q[1]
        return dx * dx + dy * dy
    return sum([(a - b) * (a - b) for a, b in zip(p, q)])


def scale_points(coords: Sequence[Point]) -> Tuple[List[Tuple[int, ...]], int]:
    """Rescale points by the lcm of all their coordinate denominators.

    Returns the integer points and that common scale; exact comparisons on
    the rescaled points then need no rational arithmetic.
    """
    exact = [_exact(p) for p in coords]
    scale = math.lcm(*{c.denominator for p in exact for c in p})
    return [tuple([c.numerator * (scale // c.denominator) for c in p]) for p in exact], scale


def pair_distances(
    points: Sequence[Point], radii: Sequence[Scalar]
) -> Tuple[Iterator[Tuple[int, int, int]], List[int], int]:
    """An iterator over (i, j, d2) for every pair i < j within the largest
    radius, in lexicographic order, the squared radii, and the common
    denominator den of both: d2 / den and r2 / den are the true squares.

    Only pairs in neighbouring cells of the grid of side the largest radius
    are tested (module docstring).  Points of unequal dimension are a
    DimensionMismatch before the pass, and the iterator raises
    DuplicatePointError at the first pair with d2 = 0."""
    dim = len(points[0]) if points else 0
    for q in points:
        if len(q) != dim:
            raise DimensionMismatch(f"dimension mismatch: {dim} vs {len(q)}")
    # the radii are rescaled with the points, so every comparison is on integers
    ipts, scale = scale_points([*points, tuple(radii)])
    iradii = ipts.pop()
    reach = max(iradii, default=0)
    limit = reach * reach
    # with no positive radius the side is 1: no pair is yielded, but
    # coincident points still share a cell and are refused
    side = max(reach, 1)
    # the cell (x // side, y // side); a 1-D point has y = 0, a 0-D one (0, 0)
    if dim >= 2:
        keys = [(p[0] // side, p[1] // side) for p in ipts]
    else:
        keys = [(p[0] // side if dim else 0, 0) for p in ipts]
    cells: Dict[Tuple[int, int], List[int]] = {}
    for i, key in enumerate(keys):
        cells.setdefault(key, []).append(i)
    # each cell's neighbours, itself included, in ascending index
    near: Dict[Tuple[int, int], List[int]] = {}
    for kx, ky in cells:
        js: List[int] = []
        for x in (kx - 1, kx, kx + 1):
            for y in (ky - 1, ky, ky + 1):
                js += cells.get((x, y), ())
        js.sort()
        near[kx, ky] = js

    def pairs() -> Iterator[Tuple[int, int, int]]:
        for i, p in enumerate(ipts):
            js = near[keys[i]]
            for j in js[bisect.bisect_right(js, i):]:
                d2 = dist2(p, ipts[j])
                if not d2:
                    raise DuplicatePointError(
                        f"points {i} and {j} coincide; distinct points required"
                    )
                if d2 <= limit:
                    yield i, j, d2

    return pairs(), [r * r for r in iradii], scale * scale


def audit_bands(
    points: Sequence[Point], lo: Scalar, hi: Scalar, want: Callable[[int, int], int]
) -> Tuple[List[Tuple[int, int, int]], int]:
    """(i, j, slack) for every pair i < j, in lexicographic order, and the
    common denominator of the slacks, once each pair is found in band
    want(i, j) of the radii lo <= hi; the first pair that is not is an
    AuditError naming it.

    Band 0 is d <= lo, band 2 is d >= hi (and not band 0), band 1 the open
    band between.  The slack is the squared-distance gap to the radius
    bounding the band: lo^2 - d^2, d^2 - hi^2, or the nearer of the two.
    The pass gets a third radius, the sum of the coordinate spans, which no
    distance exceeds, so it yields every pair.
    """
    span = sum(max(c) - min(c) for c in zip(*map(_exact, points)))
    pairs, (lo2, hi2, _), den = pair_distances(points, (lo, hi, span))
    audited: List[Tuple[int, int, int]] = []
    for i, j, d2 in pairs:
        if d2 <= lo2:
            band, slack = 0, lo2 - d2
        elif d2 < hi2:
            band, slack = 1, min(d2 - lo2, hi2 - d2)
        else:
            band, slack = 2, d2 - hi2
        if band != want(i, j):
            raise AuditError(f"pair {i},{j} is in band {band} of ({lo}, {hi}), want {want(i, j)}")
        audited.append((i, j, slack))
    return audited, den


def rational_sqrt(x: Fraction, bits: int = 32) -> Fraction:
    """Rational approximation of sqrt(x) with error below 2**-bits-ish."""
    if x < 0:
        raise ValueError("negative radicand")
    scale = 1 << bits
    n = math.isqrt((x.numerator * scale * scale) // x.denominator)
    return Fraction(n, scale)


# ---------------------------------------------------------------------------
# the integer-triple kernel
# ---------------------------------------------------------------------------


def from_triple(t: Triple, scale: int) -> Point:
    """The rational point of t, divided by the scale it was built at."""
    d = t[2] * scale
    return (Fraction(t[0], d), Fraction(t[1], d))


def tr_reduce(x: int, y: int, d: int) -> Triple:
    if d < 0:
        x, y, d = -x, -y, -d
    g = math.gcd(x, y, d)
    if g > 1:
        x, y, d = x // g, y // g, d // g
    return (x, y, d)


def cmp_frac(x1: int, d1: int, x2: int, d2: int) -> int:
    """sign(x1/d1 - x2/d2) for positive denominators."""
    s = x1 * d2 - x2 * d1
    return (s > 0) - (s < 0)


def tr_orient(p: Triple, q: Triple, r: Triple) -> int:
    """Sign of det(q-p, r-p): +1 counterclockwise, 0 collinear, -1 clockwise."""
    # u = q - p over den dp*dq, v = r - p over den dp*dr; cross(u, v) then
    # has the single positive denominator dp*dq*dp*dr on both products
    ux = q[0] * p[2] - p[0] * q[2]
    uy = q[1] * p[2] - p[1] * q[2]
    vx = r[0] * p[2] - p[0] * r[2]
    vy = r[1] * p[2] - p[1] * r[2]
    s = ux * vy - uy * vx
    return (s > 0) - (s < 0)


def tr_segment_meet(
    a: Triple, b: Triple, x: Triple, y: Triple
) -> Tuple[str, Tuple[Triple, ...]]:
    """How the closed segments [a, b] and [x, y] meet.

    Returns ("disjoint", ()), ("point", (p,)), ("shared_endpoint", (p,))
    when p is an endpoint of both, or ("overlap", (lo, hi)) for a collinear
    overlap ordered along b - a.  A T-junction is an ordinary "point".
    """
    # o1, o2: orient(a, b, x) and orient(a, b, y), on b, x and y minus a
    ad = a[2]
    dx = b[0] * ad - a[0] * b[2]
    dy = b[1] * ad - a[1] * b[2]
    o1 = dx * (x[1] * ad - a[1] * x[2]) - dy * (x[0] * ad - a[0] * x[2])
    o2 = dx * (y[1] * ad - a[1] * y[2]) - dy * (y[0] * ad - a[0] * y[2])
    if (o1 > 0 and o2 > 0) or (o1 < 0 and o2 < 0):
        return ("disjoint", ())
    o3 = tr_orient(x, y, a)
    o4 = tr_orient(x, y, b)
    if o1 == 0 and o2 == 0 and o3 == 0 and o4 == 0:
        # collinear: order points by their projection onto b - a
        if dx == 0 and dy == 0:
            raise ValueError("degenerate segment")

        def cmp(p: Triple, q: Triple) -> int:
            return cmp_frac(p[0] * dx + p[1] * dy, p[2], q[0] * dx + q[1] * dy, q[2])

        lo_t, hi_t = (x, y) if cmp(x, y) <= 0 else (y, x)
        lo = lo_t if cmp(lo_t, a) > 0 else a
        hi = hi_t if cmp(hi_t, b) < 0 else b
        order = cmp(lo, hi)
        if order > 0:
            return ("disjoint", ())
        if order == 0:
            return ("shared_endpoint", (lo,))
        return ("overlap", (lo, hi))
    if o3 * o4 > 0:
        return ("disjoint", ())
    # the supporting lines are not parallel and meet inside both segments:
    # intersect them as homogeneous lines a x b and x x y.  They meet at
    # an endpoint of [a, b] iff a or b is on the line xy, and alike for x, y.
    l1 = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
    l2 = (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])
    p = tr_reduce(
        l1[1] * l2[2] - l1[2] * l2[1],
        l1[2] * l2[0] - l1[0] * l2[2],
        l1[0] * l2[1] - l1[1] * l2[0],
    )
    shared = (o1 == 0 or o2 == 0) and (o3 == 0 or o4 == 0)
    return ("shared_endpoint" if shared else "point", (p,))


def _lex_keys(points: Sequence[Triple]) -> List[Tuple[int, int]]:
    """Integer keys of the points' lexicographic order: (X, Y, D) has the
    key ((X << s) // D, (Y << s) // D) with 2**s > max(D)**2."""
    s = 2 * max((p[2] for p in points), default=1).bit_length()
    return [((x << s) // d, (y << s) // d) for x, y, d in points]


def _angle_keys(dirs: Sequence[Tuple[int, int]]) -> List[int]:
    """Integer keys of nonzero directions, counterclockwise from +x: the
    diamond angle in [0, 4), (n - dx) / n on the upper half-plane with the
    +x axis and (3n + dx) / n on the rest, n = |dx| + |dy|, scaled by
    2**s > max(n)**2 and floored."""
    s = 2 * max((abs(dx) + abs(dy) for dx, dy in dirs), default=1).bit_length()
    keys = []
    for dx, dy in dirs:
        n = abs(dx) + abs(dy)
        keys.append(((n - dx if dy > 0 or (dy == 0 and dx > 0) else 3 * n + dx) << s) // n)
    return keys


def closed_segments(points: Sequence[Triple]) -> List[Tuple[Triple, Triple]]:
    """Directed nonzero segments of the polyline through the points, closed
    back to its start unless it already ends there."""
    pts = list(points)
    if pts and pts[0] != pts[-1]:
        pts.append(pts[0])
    return [(p, q) for p, q in zip(pts, pts[1:]) if p != q]


def tr_locate(segments: Sequence[Tuple[Triple, Triple]], a: Triple) -> Optional[int]:
    """Winding number around a of a closed polyline given by its segments,
    or None when a lies on the polyline: the one point-location rule (see
    the module docstring for the segment and triangle forms).

    Each segment p -> q adds its signed crossing of the upward vertical ray
    from a: -1 passing above a rightward, +1 leftward.  Ties at the ray's
    x resolve as if the ray were nudged infinitesimally to +x (half-open
    rule), so vertices on the ray need no special casing.  A segment whose
    x-range misses a's x is settled without an orientation.
    """
    ax, ay, ad = a
    total = 0
    for p, q in segments:
        # p and q minus a, over the positive denominators p.D * a.D, q.D * a.D
        px = p[0] * ad - ax * p[2]
        qx = q[0] * ad - ax * q[2]
        if (px > 0 and qx > 0) or (px < 0 and qx < 0):
            continue
        py = p[1] * ad - ay * p[2]
        qy = q[1] * ad - ay * q[2]
        if px == 0 and qx == 0:  # vertical, on the ray's line: a on it or not
            if py * qy <= 0:
                return None
            continue
        o = px * qy - py * qx  # sign of orient(p, q, a)
        if o == 0:
            return None
        if px <= 0 < qx:
            if o < 0:
                total -= 1
        elif qx <= 0 < px:
            if o > 0:
                total += 1
    return total
