import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ripshadow import geometry
from ripshadow.complexes import (
    DuplicatePointError,
    build_rips,
    collapse_core,
    component_counts,
    explicit_complex,
    flag_complex,
    induced_span,
)
from ripshadow.fixtures import hexagon_points
from ripshadow.geometry import DimensionMismatch, dist2, make_point
from ripshadow.quasi import (
    EdgePolicy,
    UncertaintyInterval,
    blowup,
    build_quasi,
    pair_image_analysis,
)

from oracles import (
    NonFlagError,
    bfs_component_count,
    brute_force_cliques,
    build_cech_1d,
    cone_apex,
    flag_blowup,
)

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


@pytest.mark.parametrize(
    "build",
    [
        lambda pts: build_rips(pts, F(1)),
        lambda pts: build_quasi(pts, UncertaintyInterval(F(1), F(2)), EdgePolicy.all()),
        lambda pts: pair_image_analysis(
            pts,
            (UncertaintyInterval(F(1, 4), F(1, 2)), EdgePolicy.none()),
            (UncertaintyInterval(F(1), F(2)), EdgePolicy.all()),
        ),
    ],
    ids=["build_rips", "build_quasi", "pair_image_analysis"],
)
@pytest.mark.parametrize("odd", [P(10), P(10, 10, 10)], ids=["1d", "3d"])
def test_a_point_of_another_dimension_far_from_the_rest_is_refused(build, odd):
    # no pair with the odd point is within any radius, so the grid pass
    # would never measure it: the dimensions are checked before the pass
    pts = [P(0, 0), P("1/2", 0), P(0, "1/2"), odd]
    with pytest.raises(DimensionMismatch, match=f"^dimension mismatch: 2 vs {len(odd)}$"):
        build(pts)


def test_rips_pass_measures_only_pairs_in_neighbouring_cells(monkeypatch):
    # a spread 20 x 20 lattice of spacing 7/10 around the origin, at eps 1:
    # the grid's cells have side 1
    side, eps = 20, F(1)
    pts = [(F(7 * i, 10) - 7, F(7 * j, 10) - 7) for i in range(side) for j in range(side)]
    n = len(pts)
    calls = 0

    def counting_dist2(p, q):
        nonlocal calls
        calls += 1
        return dist2(p, q)

    monkeypatch.setattr(geometry, "dist2", counting_dist2)
    c = build_rips(pts, eps, dim_cap=2)
    cells = [(x // eps, y // eps) for x, y in pts]
    near = sum(
        1 for a, b in combinations(cells, 2) if abs(a[0] - b[0]) <= 1 and abs(a[1] - b[1]) <= 1
    )
    assert calls == near
    assert near < n * (n - 1) // 2 // 10
    # the edges are the lattice's axis and diagonal neighbours (d^2 = 0.49, 0.98)
    assert set(c.edges) == {
        (a, b)
        for a, b in combinations(range(n), 2)
        if max(abs(a // side - b // side), abs(a % side - b % side)) == 1
    }


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
    cases = []
    for _ in range(40):
        n = rng.randrange(3, 13)
        edges = {
            (i, j)
            for i, j in combinations(range(n), 2)
            if rng.random() < 0.55
        }
        # some edges written (j, i), some given twice
        given_edges = [(j, i) if rng.random() < 0.3 else (i, j) for i, j in sorted(edges)]
        given_edges += rng.sample(given_edges, len(given_edges) // 4)
        rng.shuffle(given_edges)
        cases.append((n, edges, given_edges))
    k9 = set(combinations(range(9), 2))
    cases.append((9, k9, sorted(k9)))
    for n, edges, given_edges in cases:
        c = flag_complex(n, given_edges, dim_cap=4)
        expect = brute_force_cliques(n, edges, max_size=5)
        # level 1 is the edges as given, written i < j and sorted, repeats kept
        assert list(c.k_simplices(1)) == sorted(tuple(sorted(e)) for e in given_edges)
        for k in (0, 2, 3, 4):
            assert set(c.k_simplices(k)) == expect[k]
            assert len(c.k_simplices(k)) == len(expect[k])
        # deterministic lexicographic order
        for level in c.simplices:
            assert list(level) == sorted(level)
    assert c.k_simplices(4) == tuple(combinations(range(9), 5))  # the K_9: 126 4-simplices
    assert len(c.k_simplices(4)) == 126


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


@st.composite
def staged_graphs(draw):
    """Distinct, non-contiguous vertex ids and edge stages over them; an
    edge may recur within a stage or in a later one."""
    vertices = draw(st.lists(st.integers(-5, 60), unique=True, max_size=12))
    pairs = list(combinations(vertices, 2))
    stage = st.lists(st.sampled_from(pairs), max_size=8) if pairs else st.just([])
    stages = draw(st.lists(stage, max_size=4))
    return vertices, stages


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(staged_graphs())
def test_component_counts_match_bfs_at_every_stage(graph):
    vertices, stages = graph
    counts = component_counts(vertices, stages)
    assert len(counts) == len(stages)
    union = []
    for stage, count in zip(stages, counts):
        union += stage
        assert count == bfs_component_count(vertices, union)
    assert all(a >= b for a, b in zip([len(vertices)] + counts, counts))


def test_component_counts_isolated_vertices():
    assert component_counts(range(5), [[]]) == [5]
    assert component_counts(range(5), []) == []
    assert component_counts([], [[]]) == [0]
    assert component_counts(range(5), [[(0, 1)], [], [(3, 4), (1, 0)], [(2, 4)]]) == [4, 4, 3, 2]


def test_n_components_of_explicit_complexes_matches_bfs():
    # explicit complexes keep only the vertex ids their simplices name
    c = explicit_complex(10, [[(2,), (7,), (9,)], [(7, 2)]])
    assert c.vertices == (2, 7, 9)
    assert c.n_components == 2
    rng = random.Random(11)
    for _ in range(40):
        ids = rng.sample(range(30), rng.randrange(1, 9))
        edges = [e for e in combinations(sorted(ids), 2) if rng.random() < 0.25]
        tris = [t for t in combinations(sorted(ids), 3) if rng.random() < 0.05]
        c = explicit_complex(30, [[(v,) for v in ids], edges, tris])
        assert c.n_components == bfs_component_count(c.vertices, c.edges)


# -- the collapse core ---------------------------------------------------------


def test_octahedron_is_its_own_core():
    # every edge's two common neighbours are antipodal, and no closed
    # neighbourhood holds another vertex's: nothing is dominated
    c = build_rips(hexagon_points(F(11, 20)), F(1))
    assert c.counts() == (6, 12, 8, 0)
    assert c.core is c


def test_octahedron_core_builds_no_cliques(monkeypatch):
    # a collapse that removes nothing hands back the complex itself, so its
    # cliques are not listed a second time
    from ripshadow import complexes

    c = build_rips(hexagon_points(F(11, 20)), F(1))
    listed = []
    cliques_from_graph = complexes._cliques_from_graph

    def counted(vertices, edges, dim_cap):
        levels = cliques_from_graph(vertices, edges, dim_cap)
        listed.append(tuple(map(len, levels)))
        return levels

    monkeypatch.setattr(complexes, "_cliques_from_graph", counted)
    assert c.core is c
    assert listed == []


def test_explicit_complex_is_its_own_core():
    assert EDGE.core is EDGE


@pytest.mark.parametrize(
    "n, edges, core",
    [
        (1, [], (1, 0, 0)),  # an isolated vertex stays
        (2, [(0, 1)], (1, 0, 0)),  # one end dominates the other
        (3, [(1, 2)], (2, 0, 0)),
        (4, [(0, 1), (1, 2), (2, 3)], (1, 0, 0)),  # a path
        (4, [(0, 1), (1, 2), (2, 3), (0, 3)], (4, 4, 0)),  # a 4-cycle: no common neighbour
        (5, [(i, 4) for i in range(4)] + [(0, 1), (1, 2), (2, 3), (0, 3)], (1, 0, 0)),  # its cone
    ],
    ids=["vertex", "edge", "vertex_and_edge", "path", "four_cycle", "cone"],
)
def test_core_census_of_small_graphs(n, edges, core):
    c = flag_complex(n, edges, dim_cap=2)
    assert c.core.counts() == core
    assert (c.core is c) == (core == c.counts())
    assert c.core.n_components == c.n_components


def test_core_is_a_flag_subcomplex_and_ignores_edge_order():
    rng = random.Random(63)
    for _ in range(40):
        n = rng.randrange(2, 12)
        edges = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < rng.random()]
        core = collapse_core(range(n), edges, 3)
        assert core.flag and core.dim_cap == 3
        assert set(core.vertices) <= set(range(n)) and set(core.edges) <= set(edges)
        # the clique complex of its own graph
        assert core.simplices[1:] == flag_complex(n, core.edges, 3).simplices[1:]
        shuffled = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in edges]
        rng.shuffle(shuffled)
        assert collapse_core(reversed(range(n)), shuffled, 3).simplices == core.simplices


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
