import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ripshadow.shadow
from ripshadow.complexes import build_rips, flag_complex
from ripshadow.fixtures import annulus_ring_points, crossing_triangle_fixture, hexagon_points
from ripshadow.geometry import dist2
from ripshadow.homology import betti_numbers, integer_h1
from ripshadow.lifting import RipsWalk, is_contractible, lift_loop
from ripshadow.shadow import (
    ShadowError,
    build_shadow,
    hole_anchors,
    render_svg,
    shadow_betti,
)

from oracles import (
    frac_arrangement,
    frac_covered,
    frac_face_witness,
    frac_on_segment,
    frac_orient,
)
from test_golden_reports import DENSE_20

F = Fraction


def P(x, y):
    return (F(x), F(y))


SQUARE = [P(0, 0), P(1, 0), P(1, 1), P(0, 1)]


def grid_points(rng, n, span=3, den=20):
    pts = set()
    while len(pts) < n:
        pts.add((F(rng.randrange(0, span * den + 1), den),
                 F(rng.randrange(0, span * den + 1), den)))
    return sorted(pts)


def test_square_outline():
    c = build_rips(SQUARE, F(1))
    assert dist2(SQUARE[0], SQUARE[2]) == 2  # diagonals absent
    s = build_shadow(c)
    assert len(s.points) == 4
    assert len(s.edges) == 4
    assert len(s.faces) == 1
    assert not s.faces[0].covered
    assert shadow_betti(s) == (1, 1)
    assert len(hole_anchors(s)) == 1


def test_two_crossing_edges():
    pts = [P(0, 0), P(1, 1), P(0, 1), P(1, 0)]
    c = flag_complex(4, [(0, 1), (2, 3)], dim_cap=2, coords=pts)
    s = build_shadow(c)
    assert len(s.points) == 5
    assert len(s.edges) == 4
    assert len(s.faces) == 0
    assert [p for p in s.points if p not in pts] == [P("1/2", "1/2")]


def test_hexagon_shadow_is_filled():
    c = build_rips(hexagon_points(F(11, 20)), F(1), dim_cap=3)
    s = build_shadow(c)
    assert all(f.covered for f in s.faces)
    assert shadow_betti(s) == (1, 0)
    assert hole_anchors(s) == []


def test_three_crossing_segments_central_hole():
    from ripshadow.fixtures import crossing_triangle_fixture
    from ripshadow.quasi import build_quasi

    pts, interval, policy = crossing_triangle_fixture()
    rq = build_quasi(pts, interval, policy, dim_cap=2)
    s = build_shadow(rq)
    assert shadow_betti(s) == (1, 1)
    assert len(hole_anchors(s)) == 1


@pytest.mark.parametrize(
    "pts, edges, expected",
    [
        ([P(0, 0), P(2, 0), P(1, 0), P(3, 0)], [(0, 1), (2, 3)], [(0,), (0, 1), (1,)]),
        # the edges share vertex 0; the overlap ends at vertex 2, a T-junction
        ([P(0, 0), P(2, 0), P(1, 0)], [(0, 1), (0, 2)], [(0,), (0, 1)]),
    ],
    ids=["disjoint_ends", "shared_vertex"],
)
def test_collinear_overlap_multiprovenance(pts, edges, expected):
    c = flag_complex(len(pts), edges, dim_cap=2, coords=pts)
    s = build_shadow(c)
    provs = sorted(tuple(sorted(e.provenance)) for e in s.edges)
    assert provs == expected
    assert shadow_betti(s) == (1, 0)


def test_isolated_vertices_count_in_b0():
    pts = [P(0, 0), P(1, 0), P(5, 5), P(9, 0)]
    c = build_rips(pts, F(1))
    s = build_shadow(c)
    assert shadow_betti(s)[0] == 3
    assert s.n_unbounded_walks == 1  # only one component has edges


def test_unbounded_walk_count_random():
    rng = random.Random(54)
    for _ in range(10):
        pts = grid_points(rng, rng.randrange(5, 12))
        c = build_rips(pts, F(1))
        s = build_shadow(c)
        comps_with_edges = set()
        parent = list(range(len(s.points)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in s.edges:
            parent[find(e.u)] = find(e.v)
        for e in s.edges:
            comps_with_edges.add(find(e.u))
        assert s.n_unbounded_walks == len(comps_with_edges)


def test_two_disjoint_square_outlines():
    pts = SQUARE + [P(10, 0), P(11, 0), P(11, 1), P(10, 1)]
    c = build_rips(pts, F(1))
    s = build_shadow(c)
    assert shadow_betti(s) == (2, 2)
    assert len(hole_anchors(s)) == 2


@pytest.mark.parametrize(
    "inner, b1",
    [
        ([P("-1/10", 0), P("1/10", 0)], 1),  # a single edge
        ([P("-1/10", 0), P("1/10", 0), P(0, "1/10")], 1),  # a covered triangle
        # a square ring with its own hole: sides 3/5, diagonals about 0.85
        ([P("-3/10", "-3/10"), P("3/10", "-3/10"), P("3/10", "3/10"),
          P("-3/10", "3/10")], 2),
        ([P(0, 0)], 1),  # an isolated point
    ],
    ids=["edge", "triangle", "ring", "point"],
)
def test_nested_component_inside_hole(inner, b1):
    # a 12-gon ring with a separate component inside its hole: the inner
    # component must not confuse face coverage or the Euler cross-check
    pts = list(annulus_ring_points()) + inner
    c = build_rips(pts, F("7/10"))
    s = build_shadow(c)
    assert shadow_betti(s) == shadow_betti(build_shadow(c, boundary_only=True)) == (2, b1)
    assert len(hole_anchors(s)) == b1
    rb = betti_numbers(c, 1).q
    assert (rb[0], rb[1]) == (2, b1)


# lattice sets at half-integer scales, and the annulus ring with lattice
# points inside its hole (at scale 7/10 they never reach the ring)
lattice_case = st.tuples(
    st.sets(st.tuples(*[st.integers(0, 6).map(lambda k: F(k, 2))] * 2),
            min_size=1, max_size=12),
    st.sampled_from([F(1, 2), F(1), F(3, 2)]),
)
ring_case = st.sets(
    st.tuples(*[st.integers(-2, 2).map(lambda k: F(k, 5))] * 2), min_size=1, max_size=10
).map(lambda inner: (set(annulus_ring_points()) | inner, F(7, 10)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(lattice_case, ring_case))
def test_witnesses_match_global_oracle(case):
    pts, eps = case
    s = build_shadow(build_rips(sorted(pts), eps))
    for f in s.faces:
        assert s.witness(f) == frac_face_witness(s, f)


# Inputs for the grid, whose cell side is the largest |dx| or |dy| of an
# edge (at most eps for the Rips sets).  Points at multiples of the side, and
# crossings such as (0, 0) of the segments (-1/2, 0)-(1/2, 0) and
# (0, -1/2)-(0, 1/2), lie on cell boundaries.
lattice = st.integers(-4, 4).map(F)
half_lattice = st.integers(-4, 4).map(lambda k: F(k, 2))
rips_on_lattice = st.builds(
    lambda pts, eps: build_rips(sorted(pts), eps),
    st.sets(st.tuples(half_lattice, half_lattice), min_size=1, max_size=16),
    st.sampled_from([F(1), F(3, 2), F(2)]),
)
# collinear points: overlapping edges chain across several cells
collinear_rips = st.builds(
    lambda ks, d, eps: build_rips([(k * d[0], k * d[1]) for k in sorted(ks)], eps),
    st.sets(st.integers(-6, 6).map(F), min_size=2, max_size=10),
    st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1)]),
    st.sampled_from([F(1), F(2), F(3), F(9, 2)]),
)


@st.composite
def explicit_complexes(draw):
    """Any edges on lattice points: T-junctions, long edges, isolated
    points (one of them maybe on an edge's midpoint), or no edge at all."""
    pts = sorted(draw(st.sets(st.tuples(lattice, lattice), min_size=1, max_size=9)))
    pairs = list(combinations(range(len(pts)), 2))
    edges = sorted(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))) if pairs else []
    if edges and draw(st.booleans()):
        i, j = edges[0]
        mid = ((pts[i][0] + pts[j][0]) / 2, (pts[i][1] + pts[j][1]) / 2)
        if mid not in pts:
            pts.append(mid)
    return flag_complex(len(pts), edges, dim_cap=2, coords=pts)


@st.composite
def rips_plus_long_edge(draw):
    """A Rips complex at eps 1 and one long edge, which sets the side."""
    pts = sorted(draw(st.sets(st.tuples(lattice, lattice), min_size=2, max_size=14)))
    i, j = draw(st.sampled_from(list(combinations(range(len(pts)), 2))))
    edges = set(build_rips(pts, F(1)).edges) | {(i, j)}
    return flag_complex(len(pts), sorted(edges), dim_cap=2, coords=pts)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(st.one_of(rips_on_lattice, collinear_rips, explicit_complexes(), rips_plus_long_edge()))
def test_grid_arrangement_matches_all_pairs_oracle(c):
    s = build_shadow(c)
    points, edges = frac_arrangement(c)
    assert s.points == points
    assert tuple((e.u, e.v, e.provenance) for e in s.edges) == edges
    for f in s.faces:
        ring = f.vertex_ids[1:] + f.vertex_ids[:1]
        for eid, u, v in zip(f.edge_ids, f.vertex_ids, ring):
            assert edges[eid][:2] == (min(u, v), max(u, v))
        assert f.covered == frac_covered(c, s.witness(f))
    shadow_betti(s)  # Euler count against uncovered faces


# A 7 x 7 block of the unit lattice less some of its middle 3 x 3.  Between
# scales sqrt 2 and 2 the edges through the block are interior, so the
# boundary arrangement holds the rims of the holes apart from the outer
# square, nested in the covered face between them.
square_annulus = st.builds(
    lambda holes, eps: build_rips(
        [(F(x), F(y)) for x in range(7) for y in range(7) if (x, y) not in holes], eps
    ),
    st.sets(st.tuples(st.integers(2, 4), st.integers(2, 4)), min_size=1),
    st.sampled_from([F(3, 2), F(7, 4), F(2)]),
)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.one_of(lattice_case, ring_case).map(lambda case: build_rips(sorted(case[0]), case[1])),
    collinear_rips, rips_plus_long_edge(), explicit_complexes(), square_annulus,
))
def test_boundary_arrangement_gives_the_shadow_betti(c):
    assert shadow_betti(build_shadow(c, boundary_only=True)) == shadow_betti(build_shadow(c))


@pytest.mark.parametrize(
    "pts, eps, betti, n_edges, nested",
    [
        (annulus_ring_points(), F(1), (1, 1), 12, 0),  # the bare 12-cycle
        (annulus_ring_points(), F(2), (1, 1), 72, 0),  # thick, its chords crossing
        # the square annulus: its inner boundary nests in the covered face
        ([P(x, y) for x in range(5) for y in range(5) if (x, y) != (2, 2)], F(3, 2), (1, 1), 20, 1),
        # three collinear points within eps: the flat triangle is on no side
        ([P(0, 0), P("1/2", 0), P(1, 0)], F(1), (1, 0), 2, 0),
    ],
    ids=["ring", "thick-ring", "square-annulus", "collinear"],
)
def test_boundary_arrangement_cases(pts, eps, betti, n_edges, nested):
    c = build_rips(pts, eps)
    full, part = build_shadow(c), build_shadow(c, boundary_only=True)
    assert shadow_betti(full) == shadow_betti(part) == betti
    assert (len(part.edges), part.n_nested_covered, full.n_nested_covered) == (n_edges, nested, 0)


@pytest.mark.parametrize(
    "inner, inner_edges",
    [
        ([P(1, 1), P(2, 3)], [(3, 4)]),
        ([P(1, 1)], []),
        ([P(1, 1), P(3, 1), P(3, 3), P(1, 3)], [(3, 4), (4, 5), (5, 6), (3, 6)]),
    ],
    ids=["edge", "vertex", "square"],
)
def test_component_in_a_covered_face_joins_it(inner, inner_edges):
    # one triangle holding a separate edge, vertex or bare square: two
    # components of the arrangement, one shadow component
    pts = [P(0, 0), P(8, 0), P(0, 8)] + inner
    c = flag_complex(len(pts), [(0, 1), (0, 2), (1, 2)] + inner_edges, dim_cap=2, coords=pts)
    for s in (build_shadow(c), build_shadow(c, boundary_only=True)):
        assert (s.n_components, s.n_nested_covered) == (2, 1)
        assert shadow_betti(s) == (1, 0)


def test_grid_bounds_kernel_calls(monkeypatch):
    # the 200-point quarter-lattice set at eps 1: all-pairs loops would make
    # E(E-1)/2 segment meets and about F*T triangle tests
    calls = Counter()
    for name in ("tr_segment_meet", "tr_locate"):
        fn = getattr(ripshadow.shadow, name)

        def counted(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(ripshadow.shadow, name, counted)
    rng = random.Random(7)
    pts = set()
    while len(pts) < 200:
        pts.add((F(rng.randrange(0, 33), 4), F(rng.randrange(0, 33), 4)))
    c = build_rips(sorted(pts), F(1))
    s = build_shadow(c)
    n_edges, n_tris = len(c.edges), len(c.k_simplices(2))
    assert (n_edges, n_tris, len(s.faces)) == (785, 1184, 1105)
    assert calls["tr_segment_meet"] <= n_edges * n_edges // 16
    # every point location: triangle tests, witness candidates, T-junctions
    assert calls["tr_locate"] <= len(s.faces) * n_tris // 8


@pytest.mark.parametrize("shift", [0, -16], ids=["positive", "negative"])
@pytest.mark.parametrize(
    "square, covered",
    [([(5, 5), (7, 5), (7, 7), (5, 7)], True), ([(1, 1), (3, 1), (3, 3), (1, 3)], False)],
    ids=["inside", "beside"],
)
def test_complete_coverage_search(monkeypatch, square, covered, shift):
    # One triangle and a square of bare edges: no diagonal, no edge to the
    # triangle.  No dart of the square's face has an inward triangle, so both
    # its witnesses go to the complete search.  Inside the triangle it finds
    # the triangle; beside it, it tests the triangle and finds a hole.  The
    # side is 8 and the triangle's vertices lie on multiples of it; its
    # first vertex, (8, 8) shifted, under whose cell it is filed, lies in the
    # cell diagonal to the witnesses' cell.
    searches = Counter()
    search = ripshadow.shadow._grid_holds

    def counted(w, *args):
        found = search(w, *args)
        searches[found] += 1
        return found

    monkeypatch.setattr(ripshadow.shadow, "_grid_holds", counted)
    pts = [P(x + shift, y + shift) for x, y in [(8, 8), (8, 0), (0, 8)] + square]
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (5, 6), (3, 6)]
    c = flag_complex(len(pts), edges, dim_cap=2, coords=pts)
    s = build_shadow(c)
    assert c.k_simplices(2) == ((0, 1, 2),)
    for f in s.faces:
        assert f.covered == frac_covered(c, s.witness(f))
    (inner,) = [f for f in s.faces if {s.points[v] for v in f.vertex_ids} == set(pts[3:])]
    assert inner.covered == covered
    assert searches == Counter({covered: 2})
    # inside, the covered triangle joins the square to it: one component
    assert shadow_betti(s) == ((1, 0) if covered else (2, 1))


@pytest.mark.parametrize(
    "inner, inner_edges",
    [
        ([P(1, 1), P(1, 3)], [(4, 5)]),
        ([P("1/2", 1), P("3/2", 1), P("3/2", 3), P("1/2", 3)],
         [(4, 5), (5, 6), (6, 7), (4, 7)]),
        ([P(1, 2)], []),
    ],
    ids=["edge", "square", "vertex"],
)
def test_witness_skips_nested_component_at_first_candidate(inner, inner_edges):
    # the outer square's first candidate (1, 2) lies on the nested edge,
    # inside the nested square, or on the nested isolated vertex, a
    # one-point hole; its witness is the next one, (1/4, 2)
    pts = [P(0, 0), P(4, 0), P(4, 4), P(0, 4)] + inner
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)] + inner_edges
    s = build_shadow(flag_complex(len(pts), edges, dim_cap=2, coords=pts))
    assert P("1/4", 2) in [s.witness(f) for f in s.faces]
    for f in s.faces:
        assert s.witness(f) == frac_face_witness(s, f)


@pytest.mark.parametrize("boundary_only", [False, True])
def test_depth_two_nesting(boundary_only):
    # A bare square A holds a covered triangle B, which holds a bare square C.
    # C lies in B's face, not A's: A's first candidate (1, 2), C's centre, is
    # no witness of A's face, nor B's first candidate (5/4, 2), on C, one of
    # B's.  C joins B through B's triangle; A's face stays a hole.
    pts = [P(0, 0), P(4, 0), P(4, 4), P(0, 4),
           P("1/2", "1/2"), P(3, 2), P("1/2", "7/2"),
           P("3/4", "7/4"), P("5/4", "7/4"), P("5/4", "9/4"), P("3/4", "9/4")]
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6),
             (7, 8), (8, 9), (9, 10), (7, 10)]
    c = flag_complex(len(pts), edges, dim_cap=2, coords=pts)
    s = build_shadow(c, boundary_only=boundary_only)
    assert c.k_simplices(2) == ((4, 5, 6),)
    assert (s.n_components, s.n_nested_covered) == (3, 1)
    assert shadow_betti(s) == (2, 1)
    assert [s.witness(f) for f in s.faces] == [P("1/4", 2), P("11/16", 2), P("7/8", 2)]
    for f in s.faces:
        assert s.witness(f) == frac_face_witness(s, f)
        assert f.covered == frac_covered(c, s.witness(f))


def test_witness_interiority():
    rng = random.Random(50)
    for _ in range(10):
        pts = grid_points(rng, rng.randrange(5, 12))
        c = build_rips(pts, F(1))
        s = build_shadow(c)
        for f in s.faces:
            # witness on no shadow edge, strictly inside the walk polygon
            assert all(
                not frac_on_segment(s.witness(f), s.points[e.u], s.points[e.v])
                for e in s.edges
            )


def test_arrangement_edges_interior_disjoint_random():
    from ripshadow.geometry import tr_segment_meet

    from oracles import to_triple

    rng = random.Random(51)
    for _ in range(8):
        pts = grid_points(rng, rng.randrange(5, 10))
        c = build_rips(pts, F(1))
        s = build_shadow(c)
        segs = [(s.points[e.u], s.points[e.v]) for e in s.edges]
        for (i, a), (j, b) in combinations(enumerate(segs), 2):
            kind, _ = tr_segment_meet(*map(to_triple, (*a, *b)))
            assert kind in ("disjoint", "shared_endpoint"), (i, j, kind)


def test_rips_edges_concatenate_from_shadow_edges_random():
    rng = random.Random(52)
    for _ in range(8):
        pts = grid_points(rng, rng.randrange(5, 10))
        c = build_rips(pts, F(1))
        s = build_shadow(c)
        for e in s.edges:
            # strictly ascending indices into c.edges
            assert list(e.provenance) == sorted(set(e.provenance))
            assert 0 <= e.provenance[0] and e.provenance[-1] < len(c.edges)
        for idx, (i, j) in enumerate(c.edges):
            pieces = [e for e in s.edges if idx in e.provenance]
            assert pieces
            # pieces chain from one endpoint of the Rips edge to the other
            endpoints = {}
            for e in pieces:
                for v in (e.u, e.v):
                    endpoints[v] = endpoints.get(v, 0) + 1
            odd = sorted(v for v, k in endpoints.items() if k % 2 == 1)
            assert len(odd) == 2
            assert {s.points[odd[0]], s.points[odd[1]]} == {c.coords[i], c.coords[j]}


def test_theorem_certificate_random_planar():
    rng = random.Random(53)
    for _ in range(25):
        pts = grid_points(rng, rng.randrange(5, 14))
        c = build_rips(pts, F(1))
        s = build_shadow(c)
        rb = betti_numbers(c, 1).q
        sb = shadow_betti(s)
        assert (rb[0], rb[1]) == sb
        assert integer_h1(c).torsion == ()


def test_shadow_rejects_wrong_dimension():
    c = build_rips([(F(0),), (F(1),)], F(1))
    with pytest.raises(ShadowError):
        build_shadow(c)


@pytest.mark.parametrize("boundary_only", [False, True])
def test_zero_length_edge_is_refused(boundary_only):
    # the edge (1, 2) joins two copies of the centre of a filled square
    pts = [P(0, 0), P(1, 1), P(1, 1), P(2, 0), P(2, 2), P(0, 2)]
    c = flag_complex(len(pts), list(combinations(range(6), 2)), dim_cap=2, coords=pts)
    with pytest.raises(ShadowError, match=r"zero-length edge \(1, 2\)"):
        build_shadow(c, boundary_only=boundary_only)


def test_render_svg_element_counts():
    c = build_rips(SQUARE, F(1))
    s = build_shadow(c)
    svg = render_svg(s)
    assert svg.count("<polygon") == 1
    assert 'class="face-uncovered"' in svg
    assert svg.count('class="edge"') == 4
    assert svg.count("<circle") == 1

    hexc = build_rips(hexagon_points(F(11, 20)), F(1), dim_cap=3)
    sh = build_shadow(hexc)
    svg = render_svg(sh, overlay=[hexc.coords[v] for v in (0, 1, 2, 3, 4, 5, 0)])
    assert svg.count('class="face-covered"') == len(sh.faces)
    assert svg.count('class="face-uncovered"') == 0
    assert svg.count("<circle") == 0
    assert svg.count("<polyline") == 1
    # determinism
    assert svg == render_svg(sh, overlay=[hexc.coords[v] for v in (0, 1, 2, 3, 4, 5, 0)])


@pytest.mark.parametrize(
    "name, grid_searches",
    [("dense_20", 4), ("ring", 2)],
)
def test_inward_triangles_settle_covered_faces(monkeypatch, name, grid_searches):
    """Each covered face here has an inward triangle, which holds both its
    witnesses, so the grid search runs only on the two witnesses of each
    hole.  With the left and right side tables swapped, the grid would
    still decide every face right; only this count shows it."""
    pts = {
        "dense_20": [(F(x, 20), F(y, 20)) for x, y in DENSE_20],
        "ring": annulus_ring_points(),
    }[name]
    searched, grid_holds = [], ripshadow.shadow._grid_holds

    def counted(w, *rest):
        searched.append(w)
        return grid_holds(w, *rest)

    monkeypatch.setattr(ripshadow.shadow, "_grid_holds", counted)
    s = build_shadow(build_rips(pts, F(1), dim_cap=3))
    assert len(searched) == grid_searches == 2 * shadow_betti(s)[1]


def test_second_witness_tries_the_last_darts_inward_triangle(monkeypatch):
    """The boundary arrangement here has one face, covered by several
    triangles: the first dart's inward triangle misses the second witness,
    which sits by the last dart, and that dart's inward triangle holds it.
    So neither arrangement runs the grid search."""
    pts = [P(0, "3/2"), P(0, "7/4"), P(0, 2), P("1/4", "7/4"), P("3/4", 1)]
    c = build_rips(pts, F(1), dim_cap=2)
    searched, grid_holds = [], ripshadow.shadow._grid_holds

    def counted(w, *rest):
        searched.append(w)
        return grid_holds(w, *rest)

    monkeypatch.setattr(ripshadow.shadow, "_grid_holds", counted)
    for boundary_only in (False, True):
        assert shadow_betti(build_shadow(c, boundary_only=boundary_only)) == (1, 0)
    assert searched == []


@pytest.mark.parametrize("name", ["ring", "crossing"])
def test_shadow_decisions_build_no_fractions(monkeypatch, name):
    """The arrangement, its counts, Betti numbers and coverage come from the
    integer triples alone; only the points and hole anchors, read after,
    build rational points, and they equal the Fraction oracles'."""
    pts, eps = {
        "ring": (annulus_ring_points(), F(1)),
        "crossing": (crossing_triangle_fixture()[0], F(12, 5)),
    }[name]
    c = build_rips(pts, eps, dim_cap=2)

    def refuse(*args):
        raise AssertionError("from_triple called")

    monkeypatch.setattr(ripshadow.shadow, "from_triple", refuse)
    s = build_shadow(c)
    betti = shadow_betti(s)
    n_edges, n_covered = len(s.edges), len(s.covered_faces())
    monkeypatch.undo()
    points, edges = frac_arrangement(c)
    assert (n_edges, betti) == (len(edges), tuple(betti_numbers(c, 1).q))
    assert n_covered == sum(frac_covered(c, s.witness(f)) for f in s.faces)
    assert s.points == points
    anchors = hole_anchors(s)
    assert len(anchors) == betti[1]
    assert anchors == sorted(frac_face_witness(s, f) for f in s.faces if not f.covered)


def _lattice_shadow_cases(rng):
    """Sets on the 1/5 lattice at a realised distance eps >= 1.  Each holds a
    3 x 2 block whose long diagonals (length 1) and middle column cross at
    (2/5, 3/10), no point of the set; the block's rows are collinear
    overlaps, their middle points T-junctions under the column.  An 8-point
    outline of a 2 x 2 square adds a hole; a few lattice points vary both."""
    for _ in range(5):
        ox, oy = F(rng.randrange(3), 5), F(rng.randrange(3), 5)
        block = [(ox + F(x, 5), oy + F(y, 5)) for x in (0, 2, 4) for y in (0, 3)]
        ring = [P(x, y) for x in range(3, 6) for y in range(3) if (x, y) != (4, 1)]
        extra = [(F(rng.randrange(26), 5), F(rng.randrange(11), 5)) for _ in range(3)]
        pts = sorted(set(block + ring + extra))
        dists = {dist2(p, q) for p, q in combinations(pts, 2)}
        eps = rng.choice(sorted(F(k, 5) for k in range(5, 7) if F(k * k, 25) in dists))
        yield pts, eps


def _shadow_numbers(c, s):
    h1 = integer_h1(c)
    bq = betti_numbers(c, 2)
    return (
        tuple(len(level) for level in c.simplices), bq.q, bq.gf2, (h1.rank, h1.torsion),
        (len(s.triples), len(s.edges), len(s.faces), len(s.covered_faces())),
        len(hole_anchors(s)),
    )


def _has_features(c, s):
    """(collinear overlap, T-junction, three-way crossing) in the shadow."""
    pts = c.coords
    degree = Counter(v for e in s.edges for v in (e.u, e.v))
    t_junction = any(
        v not in (i, j) and frac_on_segment(pts[v], pts[i], pts[j])
        and any(frac_orient(pts[i], pts[j], pts[w]) for e in c.edges if v in e for w in e)
        for v in range(len(pts)) for i, j in c.edges
    )
    return (
        any(len(e.provenance) > 1 for e in s.edges),
        t_junction,
        any(p not in pts and degree[k] >= 6 for k, p in enumerate(s.points)),
    )


def test_rips_and_shadow_metamorphic():
    """Relabelling, translating, scaling with eps and rotating by (3/5, 4/5)
    keep the census, Betti numbers over Q and GF(2), H1 over Z, the shadow's
    V / E / F / covered counts, its hole count, and whether each lifted
    face loop, mapped along, is contractible."""
    rng = random.Random(76)
    cs, sn = F(3, 5), F(4, 5)
    verdicts = Counter()
    for pts, eps in _lattice_shadow_cases(rng):
        c = build_rips(pts, eps)
        s = build_shadow(c)
        assert _has_features(c, s) == (True, True, True)
        numbers = _shadow_numbers(c, s)
        holes = [f for f in s.faces if not f.covered]
        loops = [lift_loop(list(f.edge_ids), s, c) for f in holes + list(s.covered_faces()[:3])]
        verdict = [is_contractible(loop, c, s) for loop in loops]
        assert verdict == [False] * len(holes) + [True] * (len(loops) - len(holes))
        verdicts.update(verdict)
        n = len(pts)
        same = list(range(n))
        perm = rng.sample(same, n)
        dx, dy, t = F(-5, 7), F(2, 3), F(7, 3)
        for moved, moved_eps, relabel in [
            ([pts[v] for v in sorted(same, key=perm.__getitem__)], eps, perm),
            ([(x + dx, y + dy) for x, y in pts], eps, same),
            ([(t * x, t * y) for x, y in pts], t * eps, same),
            ([(cs * x - sn * y, sn * x + cs * y) for x, y in pts], eps, same),
        ]:
            c2 = build_rips(moved, moved_eps)
            s2 = build_shadow(c2)
            assert _shadow_numbers(c2, s2) == numbers
            mapped = [RipsWalk(tuple(relabel[v] for v in loop.vertices)) for loop in loops]
            assert [is_contractible(loop, c2, s2) for loop in mapped] == verdict
    assert verdicts[True] and verdicts[False]
