"""The point functions served by the integer kernel agree with the Fraction
oracles in tests/oracles.py.

Points are snapped to a small half-integer lattice, so collinear overlaps,
T-junctions, shared endpoints, vertical and zero-length segments, points
on the polyline or on a vertex's vertical, and distances exactly equal to
a half-integer radius all occur often.

Every predicate answers alike for any triple (kX, kY, kD) of a point,
k >= 1, not only for the reduced one: the shadow tests its witness
candidates unreduced.

The integer sort keys are checked against `Fraction` sorting and the
`dir_cmp` oracle on denominators up to 2**40 and components up to 2**60,
with Farey neighbours (the closest values those sizes allow), ties and
axis directions; the coordinate conversions, and a complex's integer view
of its coordinates, against `Fraction` wrapping on mixed int, Fraction,
bool and float scalars.
"""

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ripshadow.complexes import flag_complex
from ripshadow.fixtures import four_d_points
from ripshadow.geometry import (
    DimensionMismatch,
    DuplicatePointError,
    _angle_keys,
    _exact,
    _lex_keys,
    audit_bands,
    closed_segments,
    dist2,
    from_triple,
    pair_distances,
    parse_rational,
    scale_points,
    tr_locate,
    tr_orient,
    tr_segment_meet,
)
from ripshadow.errors import AuditError
from ripshadow.lifting import loop_word

from oracles import (
    dir_cmp,
    frac_loop_word,
    frac_on_segment,
    frac_orient,
    frac_pair_bands,
    frac_point_in_triangle,
    frac_segment_intersection,
    frac_winding_number,
    to_triple,
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

# 1-, 2- and 4-D point sets (the 4-D fixture is audited through audit_bands)
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


# tr_locate's answer as the oracle's location in a closed triangle
LOCATION = {None: "boundary", 0: "outside", 1: "inside", -1: "inside"}


def triangle(a, b, c):
    """The ring tr_locate reads a triangle abc as."""
    return ((a, b), (b, c), (c, a))


def meet(s, t):
    """tr_segment_meet as the oracle's (kind, point, segment)."""
    kind, pts = tr_segment_meet(*map(to_triple, (*s, *t)))
    pts = tuple(from_triple(p, 1) for p in pts)
    return (kind, pts[0] if len(pts) == 1 else None, pts if len(pts) == 2 else None)


O, X = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))


@examples
@given(point, point, point)
@example(O, O, O)  # x on a zero-length segment
@example(X, O, O)  # x off a zero-length segment
@example((Fraction(0), Fraction(1)), O, O)  # off it, on its vertical
def test_orient_and_on_segment_match_oracle(p, q, r):
    p3, q3, r3 = map(to_triple, (p, q, r))
    assert tr_orient(p3, q3, r3) == frac_orient(p, q, r)
    assert (tr_locate(((q3, r3),), p3) is None) == frac_on_segment(p, q, r)


@examples
@given(st.one_of(st.tuples(segment, segment), t_junction))
def test_segment_intersection_matches_oracle(st_pair):
    s, t = st_pair
    assert outcome(meet, s, t) == outcome(frac_segment_intersection, s, t)


@examples
@given(point, point, point, point)
@example(O, O, O, O)  # a == b == c == x
@example(X, O, O, O)  # a == b == c, x elsewhere
@example(O, O, O, X)  # a repeated vertex, x on it
@example((Fraction(1, 2), Fraction(0)), X, O, O)  # a repeated vertex, x on the side
@example((Fraction(1, 2), Fraction(1, 2)), O, X, O)  # a repeated vertex, x off the side
@example((Fraction(1, 2), Fraction(0)), O, X, (Fraction(2), Fraction(0)))  # collinear, on
@example((Fraction(3, 2), Fraction(0)), O, (Fraction(2), Fraction(0)), X)  # collinear, on
@example((Fraction(1), Fraction(1)), O, X, (Fraction(2), Fraction(0)))  # collinear, off
@example((Fraction(3), Fraction(0)), O, X, (Fraction(2), Fraction(0)))  # collinear, beyond
def test_point_in_triangle_matches_oracle(x, a, b, c):
    x3, a3, b3, c3 = map(to_triple, (x, a, b, c))
    assert LOCATION[tr_locate(triangle(a3, b3, c3), x3)] == frac_point_in_triangle(x, a, b, c)


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
def test_audit_bands_matches_oracle(points, r1, r2):
    lo, hi = min(r1, r2), max(r1, r2)  # lo == hi comes up too

    def band(i, j):
        """The oracle's band of one pair; a coincident pair has none."""
        if points[i] == points[j]:
            return 0
        return frac_pair_bands([points[i], points[j]], lo, hi)[0][2]

    def got(want):
        audited, den = audit_bands(points, lo, hi, want)
        return [(i, j, Fraction(slack, den)) for i, j, slack in audited]

    want = outcome(frac_pair_bands, points, lo, hi)
    if isinstance(want, str):
        # a set with repeats is refused at its first coincident pair by both
        assert outcome(got, band) == want
        return
    # the oracle's bands are accepted, every pair with its slack
    assert got(band) == [(i, j, slack) for i, j, _, slack in want]
    # a flipped band is refused, naming its pair
    for i, j, b, _ in want[-1:]:
        with pytest.raises(AuditError, match=rf"^pair {i},{j} is in band {b} "):
            got(lambda p, q: (b + 1) % 3 if (p, q) == (i, j) else band(p, q))


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_audit_bands_yields_every_pair_of_a_spread_set(dim):
    # points on the diagonal, 100 apart on every axis: far wider than hi
    points = [(Fraction(100 * k),) * dim for k in range(-3, 4)]
    audited, den = audit_bands(points, Fraction(1), Fraction(2), lambda i, j: 2)
    assert [(i, j) for i, j, _ in audited] == list(itertools.combinations(range(7), 2))
    assert min(slack for _, _, slack in audited) == (100**2 * dim - 4) * den


# -- any triple of a point -------------------------------------------------

# 1 keeps a triple reduced; any other k scales all three of its integers
multiplier = st.one_of(st.just(1), st.integers(2, 2**64))


def scaled(t, k):
    return (k * t[0], k * t[1], k * t[2])


def meet_kind(*ends):
    return tr_segment_meet(*ends)[0]


@examples
@given(point, point, point, point, st.lists(multiplier, min_size=4, max_size=4))
def test_point_predicates_take_any_triple(x, a, b, c, ks):
    t = [to_triple(p) for p in (x, a, b, c)]
    s = [scaled(p, k) for p, k in zip(t, ks)]
    assert tr_orient(*s[1:]) == tr_orient(*t[1:])
    # on [a, b] or the signed crossing of a -> b with the ray from x
    assert tr_locate((s[1:3],), s[0]) == tr_locate((t[1:3],), t[0])
    assert tr_locate(triangle(*s[1:]), s[0]) == tr_locate(triangle(*t[1:]), t[0])


@examples
@given(
    st.one_of(st.tuples(segment, segment), t_junction),
    st.lists(multiplier, min_size=4, max_size=4),
)
def test_segment_meet_kind_takes_any_triple(st_pair, ks):
    t = [to_triple(p) for p in (*st_pair[0], *st_pair[1])]
    s = [scaled(p, k) for p, k in zip(t, ks)]
    assert outcome(meet_kind, *s) == outcome(meet_kind, *t)


@examples
@given(polyline_and_point, st.lists(multiplier, min_size=1, max_size=18))
def test_locate_takes_any_triple(line_x, ks):
    line, x = line_x
    segments = closed_segments([to_triple(p) for p in line])
    k = itertools.cycle(ks)
    scaled_segments = [(scaled(p, next(k)), scaled(q, next(k))) for p, q in segments]
    a = to_triple(x)
    assert tr_locate(scaled_segments, scaled(a, ks[0])) == tr_locate(segments, a)


# -- exact sort keys ---------------------------------------------------------


def farey_pair(b, d):
    """a/b < c/d in [0, 1) with bc - ad = 1: two fractions as close as any
    with these denominators, 1/(bd) apart."""
    c = pow(b, -1, d)
    return Fraction((b * c - 1) // d, b), Fraction(c, d)


coprime_dens = st.tuples(st.integers(2, 2**20), st.integers(2, 2**20)).filter(
    lambda bd: math.gcd(*bd) == 1
)
# rationals with denominators up to 2**20, so triples have D up to 2**40;
# a Farey pair gives two values as close as those denominators allow
rationals = st.one_of(
    st.integers(-8, 8).map(lambda k: [Fraction(k)]),
    st.builds(Fraction, st.integers(-(2**30), 2**30), st.integers(1, 2**20)).map(
        lambda q: [q]
    ),
    st.tuples(coprime_dens, st.integers(-8, 8)).map(
        lambda t: [q + t[1] for q in farey_pair(*t[0])]
    ),
)
value_pool = st.lists(rationals, min_size=1, max_size=3).map(lambda groups: sum(groups, []))
# points drawn from small pools of x and y values, so x-ties and equal
# points are common
lattice_points = st.tuples(value_pool, value_pool).flatmap(
    lambda pools: st.lists(
        st.tuples(st.sampled_from(pools[0]), st.sampled_from(pools[1])), max_size=12
    )
)


def by_key(items, keys):
    return [items[k] for k in sorted(range(len(items)), key=keys.__getitem__)]


# 1/N and 1/(N - 1) are 1/(N(N - 1)) apart, just over 2**-40: keys scaled
# by one bit less than 2 * bit_length(N) tie them
N = 2**20 - 2


@examples
@given(lattice_points)
@example([(Fraction(1, N - 1), 0), (Fraction(1, N), 1)])
def test_lex_keys_sort_as_fractions(points):
    triples = [to_triple(p) for p in points]
    want = sorted(triples, key=lambda t: (Fraction(t[0], t[2]), Fraction(t[1], t[2])))
    assert by_key(triples, _lex_keys(triples)) == want


def rotate(d, quarter_turns):
    for _ in range(quarter_turns):
        d = (-d[1], d[0])
    return d


component = st.integers(-(2**60), 2**60)
axis = st.tuples(st.integers(1, 2**60), st.integers(0, 3)).map(
    lambda kq: rotate((kq[0], 0), kq[1])
)
# the diamond angle of (b - a, a) is a / b: Farey pairs give directions
# whose keys are as close as their components allow
farey_dirs = st.tuples(coprime_dens, st.integers(0, 3)).map(
    lambda t: [rotate((q.denominator - q.numerator, q.numerator), t[1])
               for q in farey_pair(*t[0])]
)
direction = st.one_of(
    axis, st.tuples(component, component).filter(lambda d: d != (0, 0))
)
# directions and positive multiples of them, which tie in angle
directions = st.tuples(
    st.lists(direction, max_size=10),
    st.lists(farey_dirs, max_size=2),
    st.lists(st.integers(2, 5), max_size=3),
).map(lambda t: t[0] + sum(t[1], []) + [(k * dx, k * dy) for k, (dx, dy) in zip(t[2], t[0])])


@examples
@given(directions)
@example([(N - 2, 1), (N - 1, 1)])
def test_angle_keys_sort_as_dir_cmp(dirs):
    want = sorted(dirs, key=functools.cmp_to_key(dir_cmp))
    assert by_key(dirs, _angle_keys(dirs)) == want


# -- int and Fraction coordinates are used as they are -----------------------

# equal values of different types: ints, Fractions, bools and floats
scalar = st.one_of(
    st.integers(-3, 3),
    st.integers(-6, 6).map(lambda k: Fraction(k, 2)),
    st.booleans(),
    st.integers(-6, 6).map(lambda k: k / 2),
)
mixed_point = st.tuples(scalar, scalar)


def frac_point(p):
    return tuple(Fraction(c) for c in p)


@examples
@given(st.lists(mixed_point, max_size=6))
@example([(Fraction(-1, 3), Fraction(5, 4)), (2, Fraction(-7, 6)), (-3, 0)])
def test_scale_points_matches_fraction_oracle(points):
    fracs = [frac_point(p) for p in points]
    scale = math.lcm(*(c.denominator for p in fracs for c in p))
    got = scale_points(points)
    assert got == ([tuple(int(c * scale) for c in p) for p in fracs], scale)
    assert all(type(c) is int for p in got[0] for c in p)
    # a complex's integer view is that rescaling, and gives back every vertex
    view, view_scale = flag_complex(len(points), (), 1, coords=points).scaled
    assert (list(view), view_scale) == got
    assert [tuple(Fraction(c, view_scale) for c in p) for p in view] == fracs


@st.composite
def proximity_case(draw):
    """Points of dimension 1 to 4 and one to three radii.  Coordinates lie
    on the grid lines (multiples of the largest radius) or on a finer
    lattice, negative ones included; the sets are clustered or spread, and
    some repeat a point."""
    dim = draw(st.integers(1, 4))
    radii = draw(st.lists(st.sampled_from([Fraction(1, 3), Fraction(1, 2), 1, Fraction(5, 2)]),
                          min_size=1, max_size=3))
    spread = draw(st.sampled_from([1, 3, 12]))
    on_line = st.integers(-spread, spread).map(lambda k: k * max(radii))
    fine = st.integers(-6 * spread, 6 * spread).map(lambda k: Fraction(k, 6))
    c = st.one_of(on_line, fine)
    points = draw(st.lists(st.tuples(*[c] * dim), max_size=14))
    if points and draw(st.booleans()):
        points.insert(draw(st.integers(0, len(points))), draw(st.sampled_from(points)))
    return points, radii


@examples
@given(proximity_case())
# 0-D points share the one cell (0, 0), 1-D points pad their cells with
# y = 0, and the 4-D fixture is cut on its first two coordinates
@example(([(), ()], [Fraction(1, 2)]))
@example(([()], [1]))
@example(([(Fraction(-7, 6),), (0,), (Fraction(1, 3),), (Fraction(5, 2),), (-3,)], [Fraction(1, 2), 1]))
@example((four_d_points(), [Fraction(11, 20), 1]))
def test_grid_pass_equals_every_pair_pass_within_reach(case):
    points, radii = case
    # a reach no distance exceeds, whose denominator the points already use
    cover = 1 + 2 * len(points[0] if points else ()) * max(
        (abs(c) for p in points for c in p), default=0
    )

    def run(radii):
        pairs, r2, den = pair_distances(points, radii)
        return list(pairs), r2, den

    full = outcome(run, [*radii, cover])
    if isinstance(full, str):  # both name the same first coincident pair
        assert outcome(run, radii) == full
    else:
        pairs, r2, den = full
        assert run(radii) == ([p for p in pairs if p[2] <= max(r2[:-1])], r2[:-1], den)


# ints, Fractions and bools, which dist2 and the grid take as they are
exact_point = st.tuples(*[scalar.filter(lambda c: not isinstance(c, float))] * 2)


@examples
@given(exact_point, exact_point)
def test_planar_dist2_equals_the_generic_sum(p, q):
    want = sum([(a - b) * (a - b) for a, b in zip(p, q)])
    got = dist2(p, q)
    assert got == want and type(got) is type(want)
    assert dist2(list(p), list(q)) == want
    for other in (q[:1], (*q, 0)):
        with pytest.raises(DimensionMismatch) as exc:
            dist2(p, other)
        assert str(exc.value) == f"dimension mismatch: 2 vs {len(other)}"


def test_exact_returns_a_tuple_and_keeps_one():
    p = (1, Fraction(1, 2), True)
    assert _exact(p) is p
    got = _exact([1, Fraction(1, 2), 0.5, "3/4"])
    assert type(got) is tuple and got == (1, Fraction(1, 2), Fraction(1, 2), Fraction(3, 4))
    assert type(_exact([1, 2])) is tuple


def read(parse, text):
    """parse(text) with its type, or the type and message of its error."""
    try:
        value = parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return type(value), value


# strings that Fraction reads or refuses: plain [-]digits[/digits], and
# near misses over the characters of its grammar.  Exponents keep to three
# digits, far below the digit limit parse_rational checks before parsing.
digit_run = st.text("0123456789", min_size=1, max_size=6)
plain_text = st.tuples(
    st.sampled_from(["", "-"]), digit_run, st.one_of(st.just(""), digit_run.map("/{}".format))
).map("".join)
grammar_text = st.text("0123456789-+/ _.\t\n٣²", max_size=10)
exponent_text = st.tuples(
    grammar_text, st.sampled_from("eE"), st.text("0123456789+-_", max_size=3)
).map("".join)
LONG = "7" * 4301  # one digit past the interpreter's default limit


@examples
@given(st.one_of(plain_text, grammar_text, exponent_text))
@example("-0")
@example("007/020")
@example("1/0")
@example("-0/0")
@example("+3")
@example(" 3/4")
@example("3/ 4")
@example("3/4\n")
@example("1_000")
@example("٣")
@example("²")
@example("3/4/5")
@example("-3/-4")
@example("")
@example("-")
@example("0.55")
@example("-1.5e-3")
@example("2.5E+1")
@example(LONG)
@example("-" + LONG)
@example("1/" + LONG)
@example(LONG + "/0")
def test_parse_rational_reads_like_fraction(text):
    assert read(parse_rational, text) == read(Fraction, text)


@examples
@given(mixed_point)
def test_to_triple_matches_fraction_oracle(p):
    # a single point reaches the kernel through a one-point scale_points,
    # whose (X, Y) over its scale is the reduced triple of the point
    x, y = frac_point(p)
    d = math.lcm(x.denominator, y.denominator)
    (point,), scale = scale_points([p])
    assert (*point, scale) == (int(x * d), int(y * d), d) == to_triple(p)
    assert all(type(c) is int for c in point)


@examples
@given(st.lists(mixed_point, max_size=5))
def test_pair_distances_refuses_coincidence_like_fraction_oracle(points):
    fracs = [frac_point(p) for p in points]
    first = next(
        ((i, j) for i, j in itertools.combinations(range(len(fracs)), 2) if fracs[i] == fracs[j]),
        None,
    )
    try:
        list(pair_distances(points, ())[0])
    except DuplicatePointError as exc:
        assert str(exc) == f"points {first[0]} and {first[1]} coincide; distinct points required"
    else:
        assert first is None


@pytest.mark.parametrize(
    "points",
    [
        [(1, 2), (Fraction(1), Fraction(2))],
        [(True, 2), (1, Fraction(2))],
        [(Fraction(1, 2), 0), (0.5, False)],
    ],
)
def test_equal_values_of_different_types_coincide(points):
    with pytest.raises(DuplicatePointError, match="points 0 and 1 coincide"):
        list(pair_distances(points, ())[0])
