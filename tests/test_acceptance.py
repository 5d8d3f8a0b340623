"""Acceptance suite: one test per criterion, each printing a PASS line.

Every random family is seeded, every expected value is exact, and every
tolerance is zero: these are structural certificates, not approximations.
Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.
"""

import random
from fractions import Fraction
from itertools import combinations

from ripshadow import complexes
from ripshadow.complexes import build_rips
from ripshadow.fixtures import (
    annulus_ring_points,
    cross_polytope_points,
    crossing_triangle_fixture,
    four_d_points,
    hexagon_points,
)
from ripshadow.geometry import dist2, tr_orient, tr_segment_meet
from ripshadow.homology import betti_numbers, integer_h1
from ripshadow.lifting import lift_loop, lift_path, is_contractible, walk_word
from ripshadow.quasi import (
    EdgePolicy,
    GroupPresentation,
    UncertaintyInterval,
    build_quasi,
    cross_edges_and_triangles,
    pair_image_analysis,
    preset_presentation,
    run_pipeline,
)
from ripshadow.shadow import build_shadow, hole_anchors, shadow_betti

from oracles import (
    build_cech_1d,
    cells_intersect,
    cone_apex,
    euler_characteristic,
    filtration_h1,
    frac_point_in_triangle,
    has_simplex,
    to_triple,
    verify_chain_property,
)

F = Fraction


def grid_points(rng, n, span=3, den=20):
    pts = set()
    while len(pts) < n:
        pts.add((F(rng.randrange(0, span * den + 1), den),
                 F(rng.randrange(0, span * den + 1), den)))
    return sorted(pts)


def rand_frac(rng, lo, hi, den=60):
    return F(rng.randrange(int(lo * den), int(hi * den) + 1), den)


def test_criterion_1_theorem_certificate():
    """Shadow/Rips Betti agreement and torsion-freeness, 500 random sets."""
    rng = random.Random(101)
    n_sets = 500
    for trial in range(n_sets):
        pts = grid_points(rng, rng.randrange(5, 26))
        c = build_rips(pts, F(1))
        s = build_shadow(c)
        rb = betti_numbers(c, 1).q
        sb = shadow_betti(s)
        assert (rb[0], rb[1]) == sb, (trial, pts)
        assert integer_h1(c).torsion == (), (trial, pts)
    print(f"\nACCEPTANCE 1: PASS - b0/b1 agreement and empty torsion on {n_sets} "
          f"random planar sets (tolerance 0)")


def _random_simplex_pair(rng, pts, c):
    cells = []
    for k in (0, 1, 2):
        cells.extend(c.k_simplices(k))
    if len(cells) < 2:
        return None
    sa = cells[rng.randrange(len(cells))]
    sb = cells[rng.randrange(len(cells))]
    if set(sa) & set(sb):
        return None
    return sa, sb


def test_criterion_2_zero_connected():
    """Intersecting simplex shadows imply a connecting edge of length <= 1."""
    rng = random.Random(102)
    found = 0
    target = 500
    while found < target:
        pts = grid_points(rng, rng.randrange(5, 16))
        c = build_rips(pts, F(1))
        for _ in range(20):
            pair = _random_simplex_pair(rng, pts, c)
            if pair is None:
                continue
            sa, sb = pair
            if not cells_intersect([pts[v] for v in sa], [pts[v] for v in sb]):
                continue
            assert any(
                dist2(pts[x], pts[y]) <= 1 for x in sa for y in sb
            ), (sa, sb, pts)
            found += 1
            if found >= target:
                break
    print(f"\nACCEPTANCE 2: PASS - connecting edge of squared length <= 1 for "
          f"{target} intersecting simplex pairs")


def _make_abyz(rng):
    """A, B within 1; YZ built to cross AB, all exact."""
    den = 48
    ax, ay = rand_frac(rng, 0, 3, den), rand_frac(rng, 0, 3, den)
    for _ in range(30):
        bx = ax + F(rng.randrange(-den, den + 1), den)
        by = ay + F(rng.randrange(-den, den + 1), den)
        if 0 < dist2((ax, ay), (bx, by)) <= 1:
            break
    else:
        return None
    t = F(rng.randrange(1, 8), 8)
    mx, my = ax + t * (bx - ax), ay + t * (by - ay)
    ux = F(rng.randrange(-den, den + 1), den)
    uy = F(rng.randrange(-den, den + 1), den)
    if (ux, uy) == (F(0), F(0)):
        return None
    s1 = F(rng.randrange(1, 5), 10)
    s2 = F(rng.randrange(1, 5), 10)
    y = (mx - s1 * ux, my - s1 * uy)
    z = (mx + s2 * ux, my + s2 * uy)
    pts = [(ax, ay), (bx, by), y, z]
    if len(set(pts)) != 4:
        return None
    if dist2(y, z) > 1:
        return None
    if tr_segment_meet(*map(to_triple, (pts[0], pts[1], y, z)))[0] == "disjoint":
        return None
    return pts


def _make_triangle_near(rng, center, radius_num=5, den=40):
    """Small triangle with pairwise distances <= 1 around a center."""
    cx, cy = center
    for _ in range(30):
        tri = [
            (cx + F(rng.randrange(-radius_num, radius_num + 1), den),
             cy + F(rng.randrange(-radius_num, radius_num + 1), den))
            for _ in range(3)
        ]
        if len(set(tri)) != 3:
            continue
        if tr_orient(*map(to_triple, tri)) == 0:
            continue
        if all(dist2(a, b) <= 1 for a, b in combinations(tri, 2)):
            return tri
    return None


def test_criterion_3_prop_and_lemma_properties():
    """Cone/edge conclusions for abyz, abxyz, bxyz, abcxyz; abcdxyz b1 = 0."""
    rng = random.Random(103)
    target = 500

    # Prop abyz
    done = 0
    while done < target:
        pts = _make_abyz(rng)
        if pts is None:
            continue
        c = build_rips(pts, F(1))
        assert cone_apex(c) is not None, pts
        done += 1

    # Prop abxyz: edge AB crossing triangle XYZ
    done = 0
    while done < target:
        center = (rand_frac(rng, 1, 2), rand_frac(rng, 1, 2))
        tri = _make_triangle_near(rng, center)
        if tri is None:
            continue
        ux = F(rng.randrange(-40, 41), 40)
        uy = F(rng.randrange(-40, 41), 40)
        if (ux, uy) == (F(0), F(0)):
            continue
        s1, s2 = F(rng.randrange(1, 5), 10), F(rng.randrange(1, 5), 10)
        a = (center[0] - s1 * ux, center[1] - s1 * uy)
        b = (center[0] + s2 * ux, center[1] + s2 * uy)
        pts = [a, b] + tri
        if len(set(pts)) != 5 or dist2(a, b) > 1 or dist2(a, b) == 0:
            continue
        if not cells_intersect([a, b], tri):
            continue
        c = build_rips(pts, F(1))
        if not has_simplex(c, (2, 3, 4)):
            continue
        assert cone_apex(c) is not None, pts
        done += 1

    # Lemma bxyz: point M in XYZ with |BM| <= 1/2 forces an edge to a corner
    done = 0
    while done < target:
        center = (rand_frac(rng, 1, 2), rand_frac(rng, 1, 2))
        tri = _make_triangle_near(rng, center, radius_num=16, den=40)
        if tri is None:
            continue
        w = [F(rng.randrange(1, 5)) for _ in range(3)]
        tot = sum(w)
        m = (
            sum(wi * p[0] for wi, p in zip(w, tri)) / tot,
            sum(wi * p[1] for wi, p in zip(w, tri)) / tot,
        )
        bx = m[0] + F(rng.randrange(-20, 21), 60)
        by = m[1] + F(rng.randrange(-20, 21), 60)
        if dist2((bx, by), m) > F(1, 4):
            continue
        pts = tri + [(bx, by)]
        if len(set(pts)) != 4:
            continue
        assert min(dist2((bx, by), p) for p in tri) <= 1, (pts, m)
        done += 1

    # Lemma abcxyz: ABC triangle, AB crosses XYZ, BC and AC do not
    done = 0
    attempts = 0
    while done < target and attempts < 200000:
        attempts += 1
        mx, my = rand_frac(rng, 1, 2), rand_frac(rng, 1, 2)
        tri = _make_triangle_near(rng, (mx, my), radius_num=3, den=40)
        if tri is None:
            continue
        dx = F(rng.randrange(10, 40), 80)
        dy = F(rng.randrange(-10, 11), 80)
        a = (mx - dx, my - dy)
        b = (mx + dx, my + dy)
        cx = (a[0] + b[0]) / 2 + F(rng.randrange(-10, 11), 80)
        cy = max(a[1], b[1]) + F(rng.randrange(20, 40), 80)
        cpt = (cx, cy)
        pts = [a, b, cpt] + tri
        if len(set(pts)) != 6:
            continue
        if any(dist2(u, v) > 1 for u, v in combinations((a, b, cpt), 2)):
            continue
        if not cells_intersect([a, b], tri):
            continue
        if cells_intersect([a, cpt], tri) or cells_intersect([b, cpt], tri):
            continue
        c = build_rips(pts, F(1))
        if not (has_simplex(c, (0, 1, 2)) and has_simplex(c, (3, 4, 5))):
            continue
        assert cone_apex(c) is not None, pts
        done += 1
    assert done == target

    # Prop abcdxyz: AB, CD, XYZ share a point, no segment endpoint interior
    # to XYZ: the span has trivial b1 over both fields
    done = 0
    while done < target:
        mx, my = rand_frac(rng, 1, 2), rand_frac(rng, 1, 2)
        tri = _make_triangle_near(rng, (mx, my), radius_num=4, den=40)
        if tri is None:
            continue
        if frac_point_in_triangle((mx, my), *tri) == "outside":
            continue
        segs = []
        ok = True
        for _ in range(2):
            ux = F(rng.randrange(-40, 41), 40)
            uy = F(rng.randrange(-40, 41), 40)
            if (ux, uy) == (F(0), F(0)):
                ok = False
                break
            s1, s2 = F(rng.randrange(2, 5), 10), F(rng.randrange(2, 5), 10)
            p = (mx - s1 * ux, my - s1 * uy)
            q = (mx + s2 * ux, my + s2 * uy)
            if dist2(p, q) > 1 or dist2(p, q) == 0:
                ok = False
                break
            segs.extend([p, q])
        if not ok:
            continue
        pts = segs + tri
        if len(set(pts)) != 7:
            continue
        if any(frac_point_in_triangle(p, *tri) == "inside" for p in segs):
            continue
        c = build_rips(pts, F(1))
        if not has_simplex(c, (4, 5, 6)):
            continue
        assert betti_numbers(c, 1).q[1] == 0, pts
        assert betti_numbers(c, 1).gf2[1] == 0, pts
        done += 1

    print(f"\nACCEPTANCE 3: PASS - abyz/abxyz/bxyz/abcxyz conclusions and "
          f"abcdxyz trivial b1 on {target} configurations each")


def test_criterion_4_one_dimensional():
    """Cech = Rips in 1-D, and their Betti counts the interval components."""
    rng = random.Random(104)
    n_sets = 200
    for _ in range(n_sets):
        n = rng.randrange(2, 12)
        vals = set()
        while len(vals) < n:
            vals.add(F(rng.randrange(0, 200), 20))
        pts = [(v,) for v in sorted(vals)]
        cech = build_cech_1d(pts, F(1))
        rips = build_rips(pts, F(1))
        assert cech.simplices == rips.simplices
        svals = sorted(v[0] for v in pts)
        comps = 1 + sum(1 for a, b in zip(svals, svals[1:]) if b - a > 1)
        top = max(0, min(cech.dim(), cech.dim_cap - 1))
        b = betti_numbers(cech, top).q
        assert b[0] == comps
        assert all(x == 0 for x in b[1:])
    print(f"\nACCEPTANCE 4: PASS - Cech/Rips identity and component counts on "
          f"{n_sets} 1-D sets")


def test_criterion_5_planar_fixtures():
    hexc = build_rips(hexagon_points(F(11, 20)), F(1), dim_cap=3)
    assert betti_numbers(hexc, 2).q == (1, 0, 1)
    assert shadow_betti(build_shadow(hexc)) == (1, 0)
    cross = build_rips(cross_polytope_points(4), F(1), dim_cap=4)
    assert betti_numbers(cross, 3).q == (1, 0, 0, 1)
    print("\nACCEPTANCE 5: PASS - hexagon Betti (1,0,1)/shadow (1,0); "
          "cross-polytope k=4 Betti (1,0,0,1)")


def test_criterion_6_four_d_fixture():
    pts = four_d_points()
    c = build_rips(pts, F(1), dim_cap=3)
    b = betti_numbers(c, 2).q
    assert b == (1, 0, 1)
    b_odd = tuple(sum(pts[v][k] for v in (0, 2, 4)) for k in range(4))
    b_even = tuple(sum(pts[v][k] for v in (1, 3, 5)) for k in range(4))
    assert b_odd == b_even
    print("\nACCEPTANCE 6: PASS - 4-D Rips Betti (1,0,1) with exactly "
          "coinciding triangle barycenters")


def test_criterion_7_quasi_pipeline(monkeypatch):
    iv = UncertaintyInterval(F(1), F(3, 2))
    want = {"torus": ((), 2), "rp2": ((2,), 0), "klein": ((2,), 1)}
    for name, (torsion, min_rank) in want.items():
        res = run_pipeline(preset_presentation(name), iv, seed=7)
        assert res.h1_rq.torsion == torsion, name
        assert res.h1_rq.rank >= min_rank, name
        assert res.betti_k == res.betti_flag_blowup, name
        assert res.mono_violations == 0, name
        assert res.torsion_transported, name

    # free group of rank 100: the blowup's flag completion would list
    # C(201, 4) tetrahedra on the base point's copies; every clique
    # enumeration of the run stays small
    largest = []

    def cliques(vertices, edges, dim_cap):
        levels = cliques_from_graph(vertices, edges, dim_cap)
        largest.append(max(map(len, levels[2:]), default=0))
        return levels

    cliques_from_graph = complexes._cliques_from_graph
    monkeypatch.setattr(complexes, "_cliques_from_graph", cliques)
    res = run_pipeline(GroupPresentation.parse(100, []), iv, seed=7)
    assert str(res.h1_rq) == "Z^298"
    assert res.betti_k == res.betti_flag_blowup == (1, 100, 0)
    assert res.mono_violations == 0
    assert largest and max(largest) < 10_000
    print("\nACCEPTANCE 7: PASS - pipeline presets: torus free rank >= 2, "
          "rp2 torsion [2], klein torsion [2] rank >= 1; free rank 100 gives "
          "Z^298; blowup Betti agreement and monochromatic claim hold")


def test_criterion_8_pair_bound():
    # fixture: annulus ring with equality
    ring = annulus_ring_points()
    rep = pair_image_analysis(
        ring,
        (UncertaintyInterval(F(7, 10), F(9, 10)), EdgePolicy.none()),
        (UncertaintyInterval(F(19, 10), F(11, 5)), EdgePolicy.all()),
    )
    assert rep.image_rank == 1 and rep.mid_b1 == 1 and rep.bound_ok

    # fixture: crossing triangle as the lower complex
    pts, interval, policy = crossing_triangle_fixture()
    rep = pair_image_analysis(
        pts, (interval, policy), (UncertaintyInterval(F(4), F(5)), EdgePolicy.all())
    )
    assert rep.image_rank == 0 and rep.bound_ok

    rng = random.Random(108)
    n_pairs = 100
    for t in range(n_pairs):
        pts = grid_points(rng, rng.randrange(5, 11))
        e1 = F(rng.randrange(6, 11), 10)
        e1p = e1 + F(rng.randrange(1, 4), 10)
        e2 = e1p + F(rng.randrange(0, 3), 10)
        e2p = e2 + F(rng.randrange(1, 4), 10)
        policies = [EdgePolicy.none(), EdgePolicy.all(),
                    EdgePolicy.seeded_random(t, F(1, 2))]
        rep = pair_image_analysis(
            pts,
            (UncertaintyInterval(e1, e1p), policies[rng.randrange(3)]),
            (UncertaintyInterval(e2, e2p), policies[rng.randrange(3)]),
        )
        assert rep.bound_ok, (t, pts)
    print(f"\nACCEPTANCE 8: PASS - image rank <= intermediate b1 on both "
          f"fixtures (ring equality at rank 1) and {n_pairs} random pairs")


def test_criterion_9_lifting():
    rng = random.Random(109)
    n_paths = 0
    loops_checked = 0
    word_pairs = 0
    pool = [sorted([(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]),
            list(annulus_ring_points())]
    while len(pool) < 40:
        pool.append(grid_points(rng, rng.randrange(6, 14)))
    eps_for = {1: F(7, 10)}
    for idx, pts in enumerate(pool):
        c = build_rips(pts, eps_for.get(idx, F(1)))
        s = build_shadow(c)
        if not s.edges:
            continue
        # random open shadow paths
        for _ in range(6):
            eid = rng.randrange(len(s.edges))
            path = [eid]
            cur = {s.edges[eid].u, s.edges[eid].v}
            for _ in range(rng.randrange(1, 5)):
                nxt = [
                    i for i, e in enumerate(s.edges)
                    if i != path[-1] and ({e.u, e.v} & cur)
                ]
                if not nxt:
                    break
                nid = rng.choice(sorted(nxt))
                shared = {s.edges[nid].u, s.edges[nid].v} & cur
                cur = {s.edges[nid].u, s.edges[nid].v} - shared or shared
                path.append(nid)
            walk = lift_path(path, s, c)
            assert walk.is_valid(c), (pts, path)
            first_cov = s.edges[path[0]].provenance
            last_cov = s.edges[path[-1]].provenance
            w0 = tuple(sorted(walk.vertices[:2]))
            w1 = tuple(sorted(walk.vertices[-2:]))
            assert c.edges.index(w0) in first_cov
            assert c.edges.index(w1) in last_cov
            n_paths += 1
        # face-boundary loops: covered contractible, uncovered not
        for f in s.faces:
            loop = lift_loop(list(f.edge_ids), s, c)
            assert loop.closed and loop.is_valid(c)
            assert is_contractible(loop, c, s) == f.covered, (pts, f.edge_ids)
            loops_checked += 1
            wa = walk_word(lift_loop(list(f.edge_ids), s, c, "min"), c, s)
            wb = walk_word(lift_loop(list(f.edge_ids), s, c, "max"), c, s)
            assert wa.letters == wb.letters, (pts, f.edge_ids)
            word_pairs += 1
    assert n_paths >= 200, n_paths
    assert loops_checked >= 30
    print(f"\nACCEPTANCE 9: PASS - {n_paths} random lifts valid with covering "
          f"end edges; {loops_checked} face loops decided by coverage; "
          f"{word_pairs} double-lift word agreements")


def test_criterion_10_internal_consistency():
    rng = random.Random(110)
    # chain property and Euler identity on fully materialized random complexes
    for _ in range(25):
        n = rng.randrange(4, 9)
        pts = grid_points(rng, n)
        c = build_rips(pts, F(1), dim_cap=n)
        assert verify_chain_property(c)
        top = c.dim()
        b = betti_numbers(c, top).q
        chi = sum((-1) ** k * bk for k, bk in enumerate(b))
        assert chi == euler_characteristic(c)
    # shadow Euler formula vs uncovered-face count on varied inputs
    # (shadow_betti itself raises on mismatch; assert it runs everywhere)
    cases = [grid_points(rng, rng.randrange(5, 20)) for _ in range(60)]
    for pts in cases:
        c = build_rips(pts, F(1))
        s = build_shadow(c)
        b0, b1 = shadow_betti(s)
        assert b1 == len(hole_anchors(s))
    pts, interval, policy = crossing_triangle_fixture()
    rq = build_quasi(pts, interval, policy, dim_cap=2)
    s = build_shadow(rq)
    assert shadow_betti(s)[1] == len(hole_anchors(s))
    print("\nACCEPTANCE 10: PASS - boundary-squared zero, Euler-Poincare "
          "identity, and shadow Euler/uncovered-face agreement")


def test_criterion_11_pair_filters_quasi_noise():
    # the rp2 pipeline's quasi-Rips complex plants a Z/2 and free noise
    # classes; a distant ring adds one genuine loop
    iv = UncertaintyInterval(F(1), F(3, 2))
    eq = run_pipeline(preset_presentation("rp2"), iv, seed=7).embedded
    pts = eq.complex.coords + tuple((x + 10, y) for x, y in annulus_ring_points())
    cross, _ = cross_edges_and_triangles(eq)
    low = build_quasi(pts, iv, EdgePolicy.explicit(cross), dim_cap=2)
    high = build_quasi(
        pts, UncertaintyInterval(F(19, 10), F(11, 5)), EdgePolicy.all(), dim_cap=2
    )
    # a genuine Rips complex between the intervals: R_Q in R_mid in R_Q'
    mid = build_rips(pts, F(17, 10), dim_cap=2)
    h_low = integer_h1(low)
    (_, mid_b1, _), rank = filtration_h1([low, mid, high])
    h_mid = integer_h1(mid)
    assert h_low.torsion != ()
    # planar Rips H1 is torsion-free, and the inclusion factors through it,
    # so the planted torsion dies; only the ring's loop survives
    assert h_mid.torsion == ()
    assert h_low.rank > rank == h_mid.rank == mid_b1 >= 1
    print(f"\nACCEPTANCE 11: PASS - pair filter: H1(R_Q) = {h_low} maps with "
          f"rank {rank} = b1(R_mid), H1(R_mid) = {h_mid} torsion-free")
