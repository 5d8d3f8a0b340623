import random
from fractions import Fraction

import pytest

from ripshadow.complexes import build_rips
from ripshadow.fixtures import hexagon_points
from ripshadow.lifting import (
    LiftError,
    RipsWalk,
    chaining_sequence,
    free_reduce,
    is_contractible,
    lift_loop,
    lift_path,
    loop_word,
    walk_word,
)
from ripshadow.shadow import build_shadow, hole_anchors

from oracles import (
    abelianization,
    cyclic_reduce,
    frac_segment_intersection,
    frac_winding_number,
    is_null_homologous,
    word_concat,
    word_inverse,
)

F = Fraction


def P(x, y):
    return (F(x), F(y))


SQUARE = [P(0, 0), P(1, 0), P(1, 1), P(0, 1)]
SQUARE_LOOP = [P(0, 0), P(1, 0), P(1, 1), P(0, 1), P(0, 0)]


def grid_points(rng, n, span=3, den=20):
    pts = set()
    while len(pts) < n:
        pts.add((F(rng.randrange(0, span * den + 1), den),
                 F(rng.randrange(0, span * den + 1), den)))
    return sorted(pts)


def test_free_reduction():
    assert free_reduce([1, -1]) == ()
    assert free_reduce([1, 2, -2, -1]) == ()
    assert free_reduce([1, 2, -1]) == (1, 2, -1)
    assert cyclic_reduce([1, 2, -1]) == (2,)
    assert word_inverse((1, -2)) == (2, -1)
    assert word_concat((1, 2), (-2, 3)) == (1, 3)
    assert abelianization((1, 1, -2), 2) == (2, -1)


def test_loop_word_square():
    w = loop_word(SQUARE_LOOP, [P("1/2", "1/2")])
    assert w.letters == (1,)
    w = loop_word(list(reversed(SQUARE_LOOP)), [P("1/2", "1/2")])
    assert w.letters == (-1,)


def test_loop_word_no_anchor_inside():
    w = loop_word(SQUARE_LOOP, [P(5, 5)])
    assert w.is_identity


def test_loop_word_figure_eight():
    fig8 = [P(0, 0), P(1, 0), P(1, 1), P(0, 1), P(0, 0),
            P(-1, 0), P(-1, 1), P(0, 1), P(0, 0)]
    w = loop_word(fig8, [P("1/2", "1/2"), P("-1/2", "1/2")])
    assert w.letters == (1, -2)


def test_loop_word_through_anchor_raises():
    with pytest.raises(ValueError):
        loop_word(SQUARE_LOOP, [P("1/2", 0)])


def test_loop_word_winding_consistency_random():
    rng = random.Random(60)
    anchors = [P("1/2", "1/2"), P("3/2", "1/2"), P("1/2", "3/2")]
    for _ in range(60):
        # random lattice loop around the anchors
        steps = rng.randrange(4, 9)
        verts = [(F(rng.randrange(-1, 4)), F(rng.randrange(-1, 4))) for _ in range(steps)]
        verts.append(verts[0])
        try:
            w = loop_word(verts, anchors)
            winds = [frac_winding_number(verts, a) for a in anchors]
        except ValueError:
            continue
        assert abelianization(w.letters, 3) == tuple(winds)


def test_loop_word_cyclic_rotation_conjugate():
    rng = random.Random(61)
    anchors = [P("1/2", "1/2"), P("5/2", "1/2")]
    loop = [P(0, 0), P(1, 0), P(2, 0), P(3, 0), P(3, 1), P(2, 1),
            P(1, 1), P(0, 1), P(0, 0)]
    base = loop_word(loop, anchors)
    for r in range(1, len(loop) - 1):
        rot = loop[r:-1] + loop[: r + 1]
        w = loop_word(rot, anchors)
        assert sorted(cyclic_reduce(w.letters)) == sorted(cyclic_reduce(base.letters))
        assert abelianization(w.letters, 2) == abelianization(base.letters, 2)


def test_loop_word_concatenation_homomorphism():
    anchors = [P("1/2", "1/2"), P("-1/2", "1/2")]
    left = [P(0, 0), P(1, 0), P(1, 1), P(0, 1), P(0, 0)]
    right = [P(0, 0), P(-1, 0), P(-1, 1), P(0, 1), P(0, 0)]
    both = left[:-1] + right
    wl = loop_word(left, anchors)
    wr = loop_word(right, anchors)
    wb = loop_word(both, anchors)
    assert wb.letters == word_concat(wl.letters, wr.letters)


def test_chaining_requires_edges_and_intersection():
    c = build_rips(SQUARE, F(1))
    with pytest.raises(LiftError):
        chaining_sequence((0, 2), (1, 3), c)  # diagonals are not edges
    with pytest.raises(LiftError):
        chaining_sequence((0, 1), (2, 3), c)  # opposite sides do not meet
    sides = ((SQUARE[0], SQUARE[1]), (SQUARE[2], SQUARE[3]))
    assert frac_segment_intersection(*sides)[0] == "disjoint"
    # projections meeting only at a shared endpoint, a T-junction or along a
    # collinear overlap still chain
    t_pts = [P(0, 0), P(1, 0), P("1/2", 0), P("1/2", "1/2")]
    line_pts = [P(0, 0), P(1, 0), P("1/2", 0), P("3/2", 0)]
    for pts, ab, cd, kind in (
        (SQUARE, (0, 1), (1, 2), "shared_endpoint"),
        (t_pts, (0, 1), (2, 3), "point"),
        (line_pts, (0, 1), (2, 3), "overlap"),
    ):
        c = build_rips(pts, F(1))
        ends = [(pts[u], pts[v]) for u, v in (ab, cd)]
        assert frac_segment_intersection(*ends)[0] == kind
        walk = chaining_sequence(ab, cd, c)
        assert walk.is_valid(c)
        assert walk.vertices[:2] == ab
        assert walk.vertices[-2:] == cd


def test_chaining_bc_absent_detours():
    # BC absent: the chaining walk cannot go directly B->C, so it detours
    # through the span (the shortest form homotopic to the A,B,A,D,C,D path;
    # a length-3 route is never shortest because a crossing always forces
    # one endpoint of one edge within distance 1 of both opposite endpoints)
    pts = [P(0, 0), P(1, 0), P("3/20", "-11/20"), P("-1/10", "2/5")]
    c = build_rips(pts, F(1))
    a, b, cc, d = 0, 1, 2, 3
    from ripshadow.geometry import dist2

    assert dist2(pts[b], pts[cc]) > 1  # BC missing
    assert dist2(pts[b], pts[d]) > 1  # BD missing too
    assert dist2(pts[a], pts[d]) <= 1  # AD present
    assert frac_segment_intersection((pts[a], pts[b]), (pts[cc], pts[d]))[0] == "point"
    walk = chaining_sequence((a, b), (cc, d), c)
    assert walk.is_valid(c)
    assert walk.vertices[:2] == (a, b)
    assert walk.vertices[-2:] == (cc, d)
    assert walk.vertices == (0, 1, 0, 2, 3)


def test_lift_single_edge_path():
    c = build_rips(SQUARE, F(1))
    s = build_shadow(c)
    walk = lift_path([0], s, c)
    e = s.edges[0]
    assert len(walk.vertices) == 2
    assert walk.is_valid(c)


def test_lift_path_spec_example_two_edges():
    pts = [P(0, 0), P(1, 0), P("1/2", "1/2"), P("1/2", "-1/2")]
    c = build_rips(pts, F(1))
    s = build_shadow(c)
    # walk across two shadow edges covered by different Rips edges
    by_prov = {}
    for idx, e in enumerate(s.edges):
        for p in e.provenance:
            by_prov.setdefault(p, []).append(idx)
    eid_ab = c.edges.index((0, 1))
    eid_cd = c.edges.index((2, 3))
    first = by_prov[eid_ab][0]
    # find a piece of CD sharing a vertex with it
    second = next(
        i
        for i in by_prov[eid_cd]
        if {s.edges[i].u, s.edges[i].v} & {s.edges[first].u, s.edges[first].v}
    )
    walk = lift_path([first, second], s, c)
    assert walk.is_valid(c)
    assert set(walk.vertices[:2]) == {0, 1}
    assert set(walk.vertices[-2:]) == {2, 3}


def test_covered_face_loops_contractible_uncovered_not():
    from ripshadow.fixtures import annulus_ring_points

    rng = random.Random(62)
    cases = [sorted(SQUARE), list(annulus_ring_points())]
    for _ in range(12):
        cases.append(grid_points(rng, rng.randrange(6, 12)))
    eps_for = {0: F(1), 1: F(7, 10)}
    done_cov = done_unc = 0
    for idx, pts in enumerate(cases):
        c = build_rips(pts, eps_for.get(idx, F(1)))
        s = build_shadow(c)
        for f in s.faces:
            loop = lift_loop(list(f.edge_ids), s, c)
            assert loop.closed and loop.is_valid(c)
            verdict = is_contractible(loop, c, s)
            if f.covered:
                assert verdict, (pts, f)
                done_cov += 1
            else:
                assert not verdict, (pts, f)
                done_unc += 1
    assert done_cov >= 5 and done_unc >= 2


def test_hole_words_read_witness_triples(monkeypatch):
    # the ray word takes the uncovered faces' witnesses as kernel triples,
    # so a contractibility query builds no rational anchor point
    from ripshadow import shadow
    from ripshadow.fixtures import annulus_ring_points

    c = build_rips(list(annulus_ring_points()), F(1))
    s = build_shadow(c)

    def no_rational_points(*args):
        raise AssertionError("a rational point was built")

    monkeypatch.setattr(shadow, "from_triple", no_rational_points)
    assert not is_contractible(RipsWalk(tuple(range(12)) + (0,)), c, s)
    assert is_contractible(RipsWalk((0, 1, 0)), c, s)


def test_two_lifts_same_word():
    rng = random.Random(63)
    count = 0
    tries = 0
    while count < 8 and tries < 60:
        tries += 1
        pts = grid_points(rng, rng.randrange(6, 12))
        c = build_rips(pts, F(1))
        s = build_shadow(c)
        for f in s.faces:
            l1 = lift_loop(list(f.edge_ids), s, c, edge_choice="min")
            l2 = lift_loop(list(f.edge_ids), s, c, edge_choice="max")
            w1 = walk_word(l1, c, s)
            w2 = walk_word(l2, c, s)
            assert w1.letters == w2.letters, (pts, f.edge_ids)
            count += 1


def test_unique_lift_certificate_open_paths():
    # two lifts of the same open shadow path, endpoints joined, bound a
    # contractible loop (empty hole word)
    rng = random.Random(64)
    checked = 0
    tries = 0
    while checked < 10 and tries < 80:
        tries += 1
        pts = grid_points(rng, rng.randrange(6, 11))
        c = build_rips(pts, F(1))
        s = build_shadow(c)
        if len(s.edges) < 3:
            continue
        # random short shadow path
        eid = rng.randrange(len(s.edges))
        path = [eid]
        cur = set((s.edges[eid].u, s.edges[eid].v))
        for _ in range(3):
            nxt = [
                i
                for i, e in enumerate(s.edges)
                if i not in path and ({e.u, e.v} & cur)
            ]
            if not nxt:
                break
            nid = rng.choice(nxt)
            shared = {s.edges[nid].u, s.edges[nid].v} & cur
            cur = {s.edges[nid].u, s.edges[nid].v} - shared
            path.append(nid)
        try:
            w1 = lift_path(path, s, c, "min").vertices
            w2 = lift_path(path, s, c, "max").vertices
        except LiftError:
            continue
        edges = set(c.edges)

        def ok_join(a, b):
            return a == b or (min(a, b), max(a, b)) in edges

        if not (ok_join(w1[0], w2[0]) and ok_join(w1[-1], w2[-1])):
            continue
        loop = list(w1)
        if w1[-1] != w2[-1]:
            loop.append(w2[-1])
        loop.extend(reversed(w2[:-1] if loop[-1] == w2[-1] else w2))
        if loop[-1] != w1[0]:
            loop.append(w1[0])
        walk = RipsWalk(tuple(loop))
        if not walk.is_valid(c):
            continue
        assert walk_word(walk, c, s).is_identity, (pts, path)
        checked += 1
    assert checked >= 10


def test_lifted_loop_word_matches_shadow_loop_word():
    # word-level lifting lemma: a closed shadow loop and the projection of
    # its lift read off the same hole word
    rng = random.Random(65)
    checked = 0
    cases = [sorted(SQUARE)]
    for _ in range(10):
        cases.append(grid_points(rng, rng.randrange(6, 12)))
    for pts in cases:
        c = build_rips(pts, F(1))
        s = build_shadow(c)
        anchors = hole_anchors(s)
        for f in s.faces:
            shadow_poly = [s.points[v] for v in f.vertex_ids]
            shadow_poly.append(shadow_poly[0])
            w_shadow = loop_word(shadow_poly, anchors)
            lifted = lift_loop(list(f.edge_ids), s, c)
            w_lift = walk_word(lifted, c, s)
            assert w_shadow.letters == w_lift.letters, (pts, f.edge_ids)
            checked += 1
    assert checked >= 10


def test_is_contractible_requires_rips():
    from ripshadow.fixtures import crossing_triangle_fixture
    from ripshadow.quasi import build_quasi

    pts, interval, policy = crossing_triangle_fixture()
    rq = build_quasi(pts, interval, policy, dim_cap=2)
    s = build_shadow(rq)
    with pytest.raises(LiftError):
        is_contractible(RipsWalk((0, 1, 0)), rq, s)


def test_null_homologous_weaker():
    c = build_rips(SQUARE, F(1))
    s = build_shadow(c)
    loop = RipsWalk((0, 1, 2, 3, 0))
    assert not is_null_homologous(loop, c, s)
    # traversing forward then backward is null-homologous and contractible
    loop2 = RipsWalk((0, 1, 2, 3, 0, 3, 2, 1, 0))
    assert is_null_homologous(loop2, c, s)
    assert is_contractible(loop2, c, s)


def test_hexagon_equator_loop():
    c = build_rips(hexagon_points(F(11, 20)), F(1), dim_cap=3)
    s = build_shadow(c)
    assert is_contractible(RipsWalk((0, 1, 2, 3, 4, 5, 0)), c, s)


BROKEN = "broken shadow path: consecutive edges share no vertex"


def _crossing_quasi():
    from ripshadow.fixtures import crossing_triangle_fixture
    from ripshadow.quasi import build_quasi

    pts, interval, policy = crossing_triangle_fixture()
    return build_quasi(pts, interval, policy, dim_cap=2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda c, s: loop_word(SQUARE_LOOP, [P(5, 5), P(5, 5)]), ValueError,
         "anchors must be pairwise distinct"),
        # the crossing segments (0, 1) and (2, 3) span no other edge
        (lambda c, s: chaining_sequence((0, 1), (2, 3), _crossing_quasi()), LiftError,
         "no path between the edges inside their span; for a genuine planar "
         "Rips complex with intersecting images this cannot happen"),
        (lambda c, s: lift_path([], s, c), LiftError, "empty shadow path"),
        (lambda c, s: lift_loop([], s, c), LiftError, "empty shadow path"),
        (lambda c, s: lift_path([0, 3], s, c), LiftError, BROKEN),
        (lambda c, s: lift_path([0, 2, 1], s, c), LiftError, BROKEN),
        (lambda c, s: lift_path([0], s, c, edge_choice="first"), ValueError,
         "edge_choice must be 'min' or 'max'"),
        (lambda c, s: lift_loop([0, 2], s, c), LiftError, "shadow path is not closed"),
        (lambda c, s: walk_word(RipsWalk((0, 1)), c, s), LiftError, "walk must be closed"),
        (lambda c, s: is_contractible(RipsWalk((0, 1)), c, s), LiftError,
         "loop must be closed"),
        (lambda c, s: is_contractible(RipsWalk((0, 2, 0)), c, s), LiftError,
         "loop is not a walk in the complex"),
    ],
    ids=["duplicate_anchors", "no_path_in_span", "empty_path", "empty_loop",
         "broken_first_pair", "broken_later_pair", "bad_edge_choice", "open_loop_path",
         "open_walk_word", "open_contractible", "non_walk_contractible"],
)
def test_lifting_errors(call, error, message):
    c = build_rips(SQUARE, F(1))
    s = build_shadow(c)
    # the paths above are read off these shadow edge ids
    assert [(e.u, e.v) for e in s.edges] == [(0, 1), (0, 2), (1, 3), (2, 3)]
    with pytest.raises(error) as info:
        call(c, s)
    assert type(info.value) is error
    assert str(info.value) == message
