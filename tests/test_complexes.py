import random
from fractions import Fraction
from itertools import combinations

import pytest

from ripshadow.complexes import (
    DuplicatePointError,
    build_rips,
    explicit_complex,
    flag_complex,
    induced_span,
)
from ripshadow.geometry import dist2, make_point
from ripshadow.quasi import (
    EdgePolicy,
    UncertaintyInterval,
    blowup,
    build_quasi,
    flag_blowup,
)

from oracles import NonFlagError, brute_force_cliques, build_cech_1d, cone_apex

F = Fraction


def P(*coords):
    return make_point(coords)


def grid_points(rng, n, span=3, den=20, dim=2):
    pts = set()
    while len(pts) < n:
        pts.add(tuple(F(rng.randrange(0, span * den + 1), den) for _ in range(dim)))
    return [tuple(p) for p in sorted(pts)]


def test_rips_edge_at_exact_threshold():
    c = build_rips([P(0, 0), P(1, 0)], F(1))
    assert c.edges == ((0, 1),)


def test_rips_unit_triangle():
    pts = [P(0, 0), P(1, 0), P("1/2", "6/7")]  # within unit of each other
    assert dist2(pts[1], pts[2]) <= 1
    c = build_rips(pts, F(1))
    assert c.k_simplices(2) == ((0, 1, 2),)


def test_rips_duplicate_points_rejected():
    with pytest.raises(DuplicatePointError):
        build_rips([P(0, 0), P(1, 0), P(0, 0)], F(1))


# one edge, which every constructor below keeps at dim_cap >= 1
HALF = [P(0, 0), P("1/2", 0)]
EDGE = explicit_complex(2, [[(0,), (1,)], [(0, 1)]], dim_cap=1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: flag_complex(2, [(0, 1)], 0),
        lambda: build_rips(HALF, F(1), dim_cap=0),
        lambda: build_quasi(HALF, UncertaintyInterval(F(1), F(2)), EdgePolicy.all(), dim_cap=0),
        lambda: flag_blowup(blowup(EDGE, (0, 1)), 0),
    ],
    ids=["flag_complex", "build_rips", "build_quasi", "flag_blowup"],
)
def test_dim_cap_zero_rejected(build):
    with pytest.raises(ValueError, match="dim_cap must be >= 1"):
        build()


def test_rips_edge_criterion_random():
    rng = random.Random(21)
    for _ in range(25):
        pts = grid_points(rng, rng.randrange(4, 10))
        c = build_rips(pts, F(1))
        edges = set(c.edges)
        for i, j in combinations(range(len(pts)), 2):
            assert ((i, j) in edges) == (dist2(pts[i], pts[j]) <= 1)


def test_flag_property_vs_bruteforce():
    rng = random.Random(22)
    for _ in range(20):
        n = rng.randrange(3, 8)
        edges = {
            (i, j)
            for i, j in combinations(range(n), 2)
            if rng.random() < 0.55
        }
        c = flag_complex(n, edges, dim_cap=4)
        expect = brute_force_cliques(n, edges, max_size=5)
        for k in range(5):
            assert set(c.k_simplices(k)) == expect[k]
        # deterministic lexicographic order
        for level in c.simplices:
            assert list(level) == sorted(level)


def test_cech_1d_examples():
    pts = [P(0), P("1/2"), P(1)]
    c = build_cech_1d(pts, F(1))
    assert c.k_simplices(2) == ((0, 1, 2),)

    pts = [P(0), P(1), P("5/2")]
    c = build_cech_1d(pts, F(1))
    assert c.edges == ((0, 1),)
    assert c.k_simplices(2) == ()


def test_cech_1d_rejects_2d():
    with pytest.raises(ValueError):
        build_cech_1d([P(0, 0)], F(1))


def test_cech_equals_rips_1d_random():
    rng = random.Random(23)
    for _ in range(40):
        pts = grid_points(rng, rng.randrange(2, 9), dim=1)
        cech = build_cech_1d(pts, F(1))
        rips = build_rips(pts, F(1))
        assert cech.simplices == rips.simplices


def test_induced_span_identity_and_point():
    pts = grid_points(random.Random(24), 6)
    c = build_rips(pts, F(1))
    assert induced_span(c, range(6)).simplices == c.simplices
    single = induced_span(c, [3])
    assert single.k_simplices(0) == ((3,),)
    assert single.edges == ()


def test_induced_span_unknown_vertex():
    c = build_rips([P(0, 0), P(1, 0)], F(1))
    with pytest.raises(KeyError):
        induced_span(c, [0, 5])


def test_induced_span_octahedron_equator():
    # drop one antipodal pair from the octahedron: the four remaining
    # vertices span a 4-cycle (their crossing chords are long diagonals)
    from ripshadow.fixtures import hexagon_points

    pts = hexagon_points(F(11, 20))
    c = build_rips(pts, F(1), dim_cap=3)
    span = induced_span(c, [0, 1, 3, 4])
    assert len(span.edges) == 4
    assert span.k_simplices(2) == ()
    assert set(span.edges) == {(0, 1), (0, 4), (1, 3), (3, 4)}


def test_cone_apex_triangle_and_square():
    tri = flag_complex(3, [(0, 1), (0, 2), (1, 2)], dim_cap=2)
    assert cone_apex(tri) == 0
    square = flag_complex(4, [(0, 1), (1, 2), (2, 3), (0, 3)], dim_cap=2)
    assert cone_apex(square) is None


def test_cone_apex_abyz_configuration():
    pts = [P(0, 0), P(1, 0), P("1/2", "1/2"), P("1/2", "-1/2")]
    for i, j in combinations(range(4), 2):
        assert dist2(pts[i], pts[j]) <= 1
    c = build_rips(pts, F(1))
    assert cone_apex(c) == 0


def test_cone_apex_requires_flag():
    hollow = explicit_complex(3, [[(0,), (1,), (2,)], [(0, 1), (1, 2), (0, 2)]])
    with pytest.raises(NonFlagError):
        cone_apex(hollow)


def test_single_vertex_is_its_own_apex():
    c = flag_complex(1, [], dim_cap=1)
    assert cone_apex(c) == 0


def test_public_names_sorted_unique_and_bound():
    import ripshadow

    names = ripshadow.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(ripshadow, n)] == []
