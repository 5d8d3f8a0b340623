import math
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

from ripshadow import geometry, quasi
from ripshadow.complexes import build_rips, explicit_complex, flag_complex
from ripshadow.errors import AuditError
from ripshadow.fixtures import annulus_ring_points, crossing_triangle_fixture
from ripshadow.geometry import audit_bands, dist2
from ripshadow.homology import betti_numbers, integer_h1
from ripshadow.quasi import (
    EdgePolicy,
    GroupPresentation,
    UncertaintyInterval,
    blowup,
    build_quasi,
    cross_edges_and_triangles,
    embed_blowup,
    monochromatic_violations,
    pair_image_analysis,
    presentation_to_colored_complex,
    preset_presentation,
    quasi_integer_h1,
    run_pipeline,
)

from ripshadow.shadow import build_shadow

from oracles import explicit_copy, frac_pair_bands, oracle_pair_report

F = Fraction


def P(x, y):
    return (F(x), F(y))


def grid_points(rng, n, span=3, den=20):
    pts = set()
    while len(pts) < n:
        pts.add((F(rng.randrange(0, span * den + 1), den),
                 F(rng.randrange(0, span * den + 1), den)))
    return sorted(pts)


def test_interval_validation():
    with pytest.raises(ValueError):
        UncertaintyInterval(F(2), F(1))
    with pytest.raises(ValueError):
        UncertaintyInterval(F(0), F(1))


def test_quasi_band_conventions():
    want = {(0, 1): 0, (0, 2): 2, (0, 3): 1, (1, 2): 2, (1, 3): 0, (2, 3): 1}
    audited, den = audit_bands([P(0, 0), P(1, 0), P(0, 2), P(1, 1)], F(1), F(2),
                               lambda i, j: want[i, j])
    got = {(i, j): F(slack, den) for i, j, slack in audited}
    assert got[0, 1] == 0  # d = 1 exactly: closed, forced
    assert got[0, 2] == 0  # d = 2 exactly: no edge
    assert got[0, 3] == 1  # d^2 = 2 strictly inside: min(2 - 1, 4 - 2)


def test_quasi_all_below_eps_ignores_policy():
    pts = [P(0, 0), P("1/4", 0), P(0, "1/4")]
    iv = UncertaintyInterval(F(1), F(2))
    a = build_quasi(pts, iv, EdgePolicy.none())
    b = build_quasi(pts, iv, EdgePolicy.all())
    assert a.simplices == b.simplices
    assert a.simplices == build_rips(pts, F(1)).simplices


def test_quasi_policy_all_is_strict_sub_epsilon_prime():
    rng = random.Random(70)
    for _ in range(15):
        pts = grid_points(rng, rng.randrange(4, 9))
        iv = UncertaintyInterval(F(1), F(3, 2))
        c = build_quasi(pts, iv, EdgePolicy.all())
        for i, j in combinations(range(len(pts)), 2):
            d2 = dist2(pts[i], pts[j])
            has = (i, j) in set(c.edges)
            assert has == (d2 < iv.eps_prime**2), (i, j)


def test_quasi_edge_constraints_random_policies():
    rng = random.Random(71)
    for t in range(15):
        pts = grid_points(rng, rng.randrange(4, 9))
        iv = UncertaintyInterval(F(1), F(2))
        c = build_quasi(pts, iv, EdgePolicy.seeded_random(t, F(1, 2)))
        edges = set(c.edges)
        for i, j in combinations(range(len(pts)), 2):
            d2 = dist2(pts[i], pts[j])
            if d2 <= iv.eps**2:
                assert (i, j) in edges
            if d2 >= iv.eps_prime**2:
                assert (i, j) not in edges


def test_quasi_seeded_policy_deterministic():
    pts = grid_points(random.Random(72), 8)
    iv = UncertaintyInterval(F(1), F(2))
    a = build_quasi(pts, iv, EdgePolicy.seeded_random(5, F(1, 2)))
    b = build_quasi(pts, iv, EdgePolicy.seeded_random(5, F(1, 2)))
    assert a.simplices == b.simplices


def test_explicit_policy_rejects_out_of_band():
    pts = [P(0, 0), P(1, 0), P(5, 0)]
    iv = UncertaintyInterval(F(2), F(3))
    with pytest.raises(ValueError):
        build_quasi(pts, iv, EdgePolicy.explicit([(0, 1)]))  # forced pair
    with pytest.raises(ValueError):
        build_quasi(pts, iv, EdgePolicy.explicit([(1, 2)]))  # forbidden pair


def test_presentation_parsing_and_validation():
    p = GroupPresentation.parse(2, ["aba'b'"])
    assert p.relators == ((1, 2, -1, -2),)
    with pytest.raises(ValueError):
        GroupPresentation.parse(1, ["b"])
    # only the letters a..z name generators, however many there are
    for word in ["{|", "a{", "A", "a1", "a b", "`"]:
        with pytest.raises(ValueError, match="unknown generator"):
            GroupPresentation.parse(30, [word])
    with pytest.raises(ValueError):
        GroupPresentation(1, ((1, -1),))  # not freely reduced
    with pytest.raises(ValueError):
        GroupPresentation(1, ((),))  # empty relator
    # a letter is exactly an int: a float, a bool or an integral float is refused
    for rel in [(1.5,), (True, 2), (1, 2.0)]:
        with pytest.raises(ValueError, match="uses an unknown generator"):
            GroupPresentation(2, (rel,))
    GroupPresentation(2, [[1, 2]])  # a relator given as a list is accepted


def test_presentation_complex_h1_oracle_values():
    cases = [
        (1, [], (1, ())),  # free group Z
        (1, ["aa"], (0, (2,))),  # Z/2: projective plane type
        (2, ["aba'b'"], (2, ())),  # torus relator
        (2, ["abab'"], (1, (2,))),  # Klein bottle relator
        (1, ["aaa"], (0, (3,))),
    ]
    for gens, words, (rank, torsion) in cases:
        k, colors = presentation_to_colored_complex(
            GroupPresentation.parse(gens, words)
        )
        assert all(colors[i] != colors[j] for i, j in k.edges)
        h = integer_h1(k)
        assert (h.rank, h.torsion) == (rank, torsion), (gens, words)


def test_blowup_vertex_count_single_triangle():
    tri = explicit_complex(
        3, [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)]], dim_cap=2
    )
    fb, colors = blowup(tri, (0, 1, 2))
    assert fb.n_vertices == len(colors) == 12  # 3 vertex copies + 6 edge copies + 3 triangle copy
    assert fb.flag and fb.dim_cap == 3
    assert betti_numbers(fb, 2).gf2 == (1, 0, 0)


def test_blowup_single_edge_contractible():
    edge = explicit_complex(2, [[(0,), (1,)], [(0, 1)]], dim_cap=1)
    fb, _ = blowup(edge, (0, 1))
    assert betti_numbers(fb, 1).gf2 == (1, 0)


def test_blowup_rejects_improper_coloring():
    edge = explicit_complex(2, [[(0,), (1,)], [(0, 1)]], dim_cap=1)
    with pytest.raises(ValueError, match="coloring is not proper on the complex"):
        blowup(edge, (0, 0))


def test_blowup_betti_agreement_torus():
    p = preset_presentation("torus")
    k, colors = presentation_to_colored_complex(p)
    fb, _ = blowup(k, colors)
    # the whole flag completion, reduced as an explicit complex, against its core
    whole = betti_numbers(explicit_copy(fb), 2).gf2
    assert whole == betti_numbers(fb, 2).gf2 == betti_numbers(k, 2).gf2 == (1, 2, 1)


def test_torus_pipeline_builds_its_core_cliques_once(monkeypatch):
    # run_pipeline hands the blowup to betti_numbers, which lists the
    # cliques of its collapse core only, never those of the blowup itself
    from ripshadow import complexes

    torus = preset_presentation("torus")
    b, _ = blowup(*presentation_to_colored_complex(torus))
    core = b.core.counts()
    assert core == (102, 306, 204, 0)
    listed = []
    cliques_from_graph = complexes._cliques_from_graph

    def counted(vertices, edges, dim_cap):
        levels = cliques_from_graph(vertices, edges, dim_cap)
        listed.append(tuple(map(len, levels)))
        return levels

    monkeypatch.setattr(complexes, "_cliques_from_graph", counted)
    res = run_pipeline(torus, UncertaintyInterval(F(1), F(3, 2)), seed=0)
    assert res.betti_flag_blowup == (1, 2, 1)
    assert listed == [core]


def test_embed_blowup_audit_and_determinism():
    p = preset_presentation("rp2")
    k, colors = presentation_to_colored_complex(p)
    b, colors = blowup(k, colors)
    iv = UncertaintyInterval(F(1), F(3, 2))
    e1 = embed_blowup(b, colors, iv, seed=11)
    e2 = embed_blowup(b, colors, iv, seed=11)
    assert e1.complex.coords == e2.complex.coords
    assert e1.audit_margin > 0
    with pytest.raises(ValueError, match=f"^{len(colors) - 1} colours for the blowup's"):
        embed_blowup(b, colors[:-1], iv)
    # every same-color pair forced, every cross pair strictly in the band;
    # R_Q links exactly the same-color pairs and the blowup's edges
    edges, blow = set(e1.complex.edges), set(b.edges)
    for i in range(b.n_vertices):
        for j in range(i + 1, b.n_vertices):
            d2 = dist2(e1.complex.coords[i], e1.complex.coords[j])
            same = colors[i] == colors[j]
            if same:
                assert d2 <= iv.eps**2
            else:
                assert iv.eps**2 < d2 < iv.eps_prime**2
            assert ((i, j) in edges) == (same or (i, j) in blow), (i, j)


def _fail_attempts(monkeypatch, failure, failing):
    """Make the embedding attempts numbered in `failing` fail, by a band
    audit that wants band 2 of every pair or by drawing every point at its
    ball's centre; return the seeds the placements are drawn from, one per
    attempt."""
    seeds = []

    class Draws(random.Random):
        def __init__(self, seed):
            seeds.append(seed)
            self.centre = failure == "coincident" and len(seeds) - 1 in failing
            super().__init__(seed)

        def randrange(self, *args):
            return 0 if self.centre else super().randrange(*args)

    def failing_audit(points, lo, hi, want):
        if failure == "audit" and len(seeds) - 1 in failing:
            want = lambda i, j: 2  # noqa: E731
        return audit_bands(points, lo, hi, want)

    monkeypatch.setattr(quasi, "random", SimpleNamespace(Random=Draws))
    monkeypatch.setattr(quasi, "audit_bands", failing_audit)
    return seeds


# the blowup of one triangle: 12 simplex copies, 4 of each color
TRIANGLE = explicit_complex(3, [[], [], [(0, 1, 2)]], dim_cap=2)
EMBED_IV = UncertaintyInterval(F(1), F(3, 2))


@pytest.mark.parametrize("failure", ["audit", "coincident"])
def test_embedding_moves_to_the_next_seed_after_a_failed_attempt(monkeypatch, failure):
    b = blowup(TRIANGLE, (0, 1, 2))
    first_try = embed_blowup(*b, EMBED_IV, seed=7)
    seeds = _fail_attempts(monkeypatch, failure, {0})
    eq = embed_blowup(*b, EMBED_IV, seed=7)
    assert seeds == [7 * 1000003, 7 * 1000003 + 1]
    assert eq.complex.coords != first_try.complex.coords
    assert eq.audit_margin > 0


@pytest.mark.parametrize(
    "failure, last",
    [("audit", "pair 0,1 is in band 1 of (1, 3/2), want 2"),
     ("coincident", "coincide; distinct points required")],
)
def test_embedding_names_the_attempts_and_the_last_failure(monkeypatch, failure, last):
    seeds = _fail_attempts(monkeypatch, failure, range(quasi.EMBED_ATTEMPTS))
    with pytest.raises(AuditError) as exc:
        embed_blowup(*blowup(TRIANGLE, (0, 1, 2)), EMBED_IV, seed=7)
    assert str(exc.value).startswith(f"embedding failed after {quasi.EMBED_ATTEMPTS} seeds: ")
    assert str(exc.value).endswith(last)
    assert len(seeds) == quasi.EMBED_ATTEMPTS


def _rebuilt_quasi(eq, points, interval, relabel):
    """R_Q of moved points, rebuilt by build_quasi with the relabelled cross
    edges as the explicit policy, as an EmbeddedQuasi."""
    colors = [0] * len(eq.colors)
    for v, c in enumerate(eq.colors):
        colors[relabel[v]] = c
    cross = [(relabel[i], relabel[j]) for i, j in eq.complex.edges if eq.colors[i] != eq.colors[j]]
    rq = build_quasi(points, interval, EdgePolicy.explicit(cross), dim_cap=1)
    return replace(eq, complex=rq, colors=tuple(colors))


@pytest.mark.parametrize("name", ["rp2", "klein"])
def test_embedded_quasi_metamorphic(name):
    """Translating, rotating by (3/5, 4/5), scaling with the interval and
    relabelling the embedded points map R_Q's edges and keep H1(R_Q; Z)."""
    k, colors = presentation_to_colored_complex(preset_presentation(name))
    iv = UncertaintyInterval(F(1), F(3, 2))
    eq = embed_blowup(*blowup(k, colors), iv, seed=7)
    h1 = quasi_integer_h1(eq)
    n = len(eq.complex.coords)
    same = list(range(n))
    perm = random.Random(75).sample(same, n)
    c, s, t = F(3, 5), F(4, 5), F(7, 3)
    cases = [
        ([(x + F(-5, 7), y + F(2, 3)) for x, y in eq.complex.coords], iv, same),
        ([(c * x - s * y, s * x + c * y) for x, y in eq.complex.coords], iv, same),
        ([(t * x, t * y) for x, y in eq.complex.coords],
         UncertaintyInterval(t * iv.eps, t * iv.eps_prime), same),
        ([eq.complex.coords[v] for v in sorted(same, key=perm.__getitem__)], iv, perm),
    ]
    for points, interval, relabel in cases:
        moved = _rebuilt_quasi(eq, points, interval, relabel)
        mapped = sorted(tuple(sorted((relabel[i], relabel[j]))) for i, j in eq.complex.edges)
        assert list(moved.complex.edges) == mapped
        assert quasi_integer_h1(moved) == h1


def test_relative_h1_matches_literal_small():
    tri = explicit_complex(
        3, [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)]], dim_cap=2
    )
    eq = embed_blowup(*blowup(tri, (0, 1, 2)), UncertaintyInterval(F(1), F(3, 2)), seed=3)
    lit = flag_complex(
        eq.complex.n_vertices, eq.complex.edges, dim_cap=2, coords=eq.complex.coords
    )
    h_lit = integer_h1(lit)
    h_rel = quasi_integer_h1(eq)
    assert (h_lit.rank, h_lit.torsion) == (h_rel.rank, h_rel.torsion)


def test_pipeline_presets():
    iv = UncertaintyInterval(F(1), F(3, 2))
    res = run_pipeline(preset_presentation("rp2"), iv, seed=7)
    assert res.h1_rq.torsion == (2,)
    assert res.blowup_betti_agrees
    assert res.mono_violations == 0
    assert res.torsion_transported

    res = run_pipeline(preset_presentation("torus"), iv, seed=7)
    assert res.h1_rq.torsion == ()
    assert res.h1_rq.rank >= 2
    assert res.blowup_betti_agrees and res.mono_violations == 0

    res = run_pipeline(preset_presentation("klein"), iv, seed=7)
    assert res.h1_rq.torsion == (2,)
    assert res.h1_rq.rank >= 1
    assert res.blowup_betti_agrees and res.mono_violations == 0


def test_pipeline_small_interval():
    # the construction works for arbitrarily small uncertainty intervals
    iv = UncertaintyInterval(F(1), F(21, 20))
    res = run_pipeline(preset_presentation("rp2"), iv, seed=1)
    assert res.h1_rq.torsion == (2,)
    assert res.embedded.audit_margin > 0


def test_pair_annulus_ring_equality():
    ring = annulus_ring_points()
    rep = pair_image_analysis(
        ring,
        (UncertaintyInterval(F(7, 10), F(9, 10)), EdgePolicy.none()),
        (UncertaintyInterval(F(19, 10), F(11, 5)), EdgePolicy.all()),
    )
    assert rep.image_rank == 1
    assert rep.mid_b1 == 1
    assert rep.bound_ok
    assert rep.shadow_mid_betti == (1, 1)
    assert rep.image_rank == rep.shadow_mid_betti[1]


def test_pair_certifies_a_dense_cluster_on_its_boundary_edges(monkeypatch):
    # 30 points of the 1/100 lattice in [0, 2/5]^2: every level is a full
    # simplex, so the midpoint shadow's boundary is its convex hull.  The
    # arrangement of all 435 edges makes 38,796 segment meets.
    import ripshadow.shadow

    calls = Counter()
    meet = ripshadow.shadow.tr_segment_meet

    def counted(*args):
        calls["tr_segment_meet"] += 1
        return meet(*args)

    monkeypatch.setattr(ripshadow.shadow, "tr_segment_meet", counted)
    rng = random.Random(3)
    pts = set()
    while len(pts) < 30:
        pts.add((F(rng.randrange(41), 100), F(rng.randrange(41), 100)))
    rep = pair_image_analysis(
        sorted(pts),
        (UncertaintyInterval(F(1), F(2)), EdgePolicy.all()),
        (UncertaintyInterval(F(3), F(4)), EdgePolicy.all()),
    )
    assert rep.shadow_mid_betti == (1, 0)
    assert calls["tr_segment_meet"] <= 100


def test_pair_reads_its_ranks_off_one_reduction(monkeypatch):
    from ripshadow import homology, quasi

    calls = {"boundary_matrix": 0, "snf_diagonal": 0, "betti_numbers": 0, "_reduce_filtration": 0}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("boundary_matrix", "snf_diagonal", "betti_numbers"):
        count(homology, name)
    for name in ("snf_diagonal", "betti_numbers", "_reduce_filtration"):
        count(quasi, name)
    rep = pair_image_analysis(
        annulus_ring_points(),
        (UncertaintyInterval(F(7, 10), F(9, 10)), EdgePolicy.none()),
        (UncertaintyInterval(F(19, 10), F(11, 5)), EdgePolicy.all()),
    )
    assert (rep.lower_b1, rep.mid_b1, rep.upper_b1, rep.image_rank) == (1, 1, 1, 1)
    assert calls == {"boundary_matrix": 0, "snf_diagonal": 0, "betti_numbers": 0, "_reduce_filtration": 1}


def test_pair_contractible_cluster():
    pts = [P(0, 0), P("1/5", 0), P(0, "1/5"), P("1/5", "1/5")]
    rep = pair_image_analysis(
        pts,
        (UncertaintyInterval(F(1, 2), F(3, 5)), EdgePolicy.none()),
        (UncertaintyInterval(F(7, 10), F(4, 5)), EdgePolicy.all()),
    )
    assert rep.image_rank == 0
    assert rep.bound_ok


def test_pair_crossing_triangle_lower():
    pts, interval, policy = crossing_triangle_fixture()
    rep = pair_image_analysis(
        pts,
        (interval, policy),
        (UncertaintyInterval(F(4), F(5)), EdgePolicy.all()),
    )
    assert rep.image_rank == 0
    assert rep.bound_ok


def test_pair_rejects_overlapping_intervals():
    ring = annulus_ring_points()
    with pytest.raises(ValueError):
        pair_image_analysis(
            ring,
            (UncertaintyInterval(F(1), F(2)), EdgePolicy.none()),
            (UncertaintyInterval(F(3, 2), F(3)), EdgePolicy.all()),
        )


def realised_distances(pts):
    """The rational distances between pairs of pts, ascending."""
    out = set()
    for p, q in combinations(pts, 2):
        d2 = dist2(p, q)
        num, den = math.isqrt(d2.numerator), math.isqrt(d2.denominator)
        if num * num == d2.numerator and den * den == d2.denominator:
            out.add(F(num, den))
    return sorted(out)


def test_pair_bound_random():
    rng = random.Random(73)
    cases = []
    for t in range(12):
        pts = grid_points(rng, rng.randrange(5, 10))
        e1 = F(rng.randrange(6, 10), 10)
        e1p = e1 + F(rng.randrange(1, 4), 10)
        e2 = e1p + F(rng.randrange(0, 3), 10)
        e2p = e2 + F(rng.randrange(1, 4), 10)
        cases.append((pts, e1, e1p, e2, e2p, t))
    # radii that pairs realise: d == eps, d == mid, and, on touching
    # intervals (ui.eps == li.eps' == mid), d == eps'
    for t in range(12, 24):
        pts, radii = [], []
        while len(radii) < 3:
            pts = grid_points(rng, rng.randrange(6, 10), den=2)
            radii = realised_distances(pts)
        a, b, c = sorted(rng.sample(radii, 3))
        h = 0 if t % 2 else (b - a) / 2
        cases.append((pts, a, b - h, b + h, c + h, t))
    for pts, e1, e1p, e2, e2p, t in cases:
        lower = (UncertaintyInterval(e1, e1p), EdgePolicy.seeded_random(t, F(1, 2)))
        upper = (UncertaintyInterval(e2, e2p), EdgePolicy.seeded_random(t + 99, F(1, 2)))
        rep = pair_image_analysis(pts, lower, upper)
        assert rep == oracle_pair_report(pts, lower, upper)
        assert rep.bound_ok
        assert rep.image_rank <= min(rep.lower_b1, rep.upper_b1)


def _pair_numbers(points, radii, policies):
    e1, e1p, e2, e2p = radii
    lp, up = policies
    rep = pair_image_analysis(
        points, (UncertaintyInterval(e1, e1p), lp), (UncertaintyInterval(e2, e2p), up)
    )
    return (rep.image_rank, rep.mid_b1, rep.lower_b1, rep.upper_b1,
            rep.lower_forced_components, rep.shadow_mid_betti, rep.bound_ok)


def _metamorphic_pair_cases(rng):
    yield list(annulus_ring_points()), (F(7, 10), F(9, 10), F(19, 10), F(11, 5))
    # lattice sets, half of them around the hole of the square [0, 4]^2
    square = [P(x, y) for x in range(5) for y in range(5) if {x, y} & {0, 4}]
    for t in range(6):
        pts, radii = [], []
        while len(radii) < 4:
            pts = grid_points(rng, rng.randrange(6, 10), den=2)
            if t % 2:
                pts = sorted(set(rng.sample(square, 14) + pts[:2]))
            radii = realised_distances(pts)
        # every radius is a distance some pair realises
        yield pts, tuple(sorted(rng.sample(radii, 4)))


def test_pair_report_metamorphic():
    """Translating the points, or scaling them with all four radii, keeps
    every number of the report; so does relabelling them when the
    uncertain pairs resolve without coins."""
    rng = random.Random(74)
    none, every = EdgePolicy.none(), EdgePolicy.all()
    for t, (pts, radii) in enumerate(_metamorphic_pair_cases(rng)):
        coins = (EdgePolicy.seeded_random(t, F(1, 2)), EdgePolicy.seeded_random(t + 99, F(1, 2)))
        for policies in [(none, every), (every, none), coins]:
            numbers = _pair_numbers(pts, radii, policies)
            dx, dy = F(rng.randrange(-9, 10), 7), F(rng.randrange(-9, 10), 3)
            moved = [(x + dx, y + dy) for x, y in pts]
            assert _pair_numbers(moved, radii, policies) == numbers
            k = F(rng.randrange(1, 9), rng.randrange(1, 9))
            scaled = [(k * x, k * y) for x, y in pts]
            assert _pair_numbers(scaled, tuple(k * r for r in radii), policies) == numbers
            if policies is not coins:  # coins are drawn in (i, j) order
                shuffled = rng.sample(pts, len(pts))
                assert _pair_numbers(shuffled, radii, policies) == numbers


def test_pair_analysis_measures_each_pair_once(monkeypatch):
    calls = []  # one proximity pass serves all four complexes of the analysis

    def counting_dist2(p, q):
        calls.append((p, q))
        return dist2(p, q)

    ring = annulus_ring_points()  # the fixture audits its own distances
    monkeypatch.setattr(geometry, "dist2", counting_dist2)
    pair_image_analysis(
        ring,
        (UncertaintyInterval(F(7, 10), F(9, 10)), EdgePolicy.none()),
        (UncertaintyInterval(F(19, 10), F(11, 5)), EdgePolicy.all()),
    )
    n = len(ring)
    assert len(calls) == n * (n - 1) // 2


def test_embedding_audit_refuses_a_point_beyond_every_radius():
    colors = (0, 0, 1, 1)
    pts = [P(0, 0), P("1/4", 0), P("3/2", 0)]

    def embedding_want(i, j):  # what embed_blowup wants: same colour forced
        return 0 if colors[i] == colors[j] else 1

    audited, den = audit_bands(pts, F(1), F(2), embedding_want)
    assert [(i, j) for i, j, _ in audited] == [(0, 1), (0, 2), (1, 2)]
    assert F(min(slack for _, _, slack in audited), den) == F(9, 16)
    # a far point: the audit still reaches its pairs and refuses the first
    with pytest.raises(AuditError, match=r"^pair 0,3 is in band 2 of \(1, 2\), want 1$"):
        audit_bands(pts + [P(100, 0)], F(1), F(2), embedding_want)


def test_embedding_refuses_a_blowup_of_fewer_than_two_vertices():
    for n in (0, 1):
        point = explicit_complex(n, [[(v,) for v in range(n)]], dim_cap=2)
        with pytest.raises(ValueError, match=f"two vertices to embed, not {n}$"):
            embed_blowup(*blowup(point, (0,) * n), EMBED_IV)


def _policy_modes(rng, pts, interval, seed):
    """A policy of each mode for `interval` on pts; the explicit one picks
    half of the band's pairs."""
    bands = frac_pair_bands(pts, interval.eps, interval.eps_prime)
    band = [(i, j) for i, j, b, _ in bands if b == 1]
    return [
        EdgePolicy.none(),
        EdgePolicy.all(),
        EdgePolicy.seeded_random(seed, F(1, 2)),
        EdgePolicy.explicit(rng.sample(band, len(band) // 2)),
    ]


def _chain_cases(rng, count):
    """Most of the lattice ring around the square [0, 3]^2 plus a stray
    point, with radii 1 < b < c that pairs realise: odd cases get the
    touching intervals (1, b) and (b, c), even ones a gap around b."""
    square = [P(x, y) for x in range(4) for y in range(4) if {x, y} & {0, 3}]
    for t in range(count):
        pts = sorted(set(rng.sample(square, rng.randrange(9, 13)) + grid_points(rng, 1, den=2)))
        radii = realised_distances(pts)
        b = rng.choice([r for r in radii if 1 < r <= 2])
        c = rng.choice([r for r in radii if b < r <= 3])
        h = 0 if t % 2 else (b - 1) / 2
        yield t, pts, UncertaintyInterval(F(1), b - h), UncertaintyInterval(b + h, c + h)


def test_pair_chain_matches_oracle_under_every_policy_mode():
    rng = random.Random(75)
    for t, pts, li, ui in _chain_cases(rng, 6):
        for lp in _policy_modes(rng, pts, li, t):
            for up in _policy_modes(rng, pts, ui, t + 99):
                lower, upper = (li, lp), (ui, up)
                assert pair_image_analysis(pts, lower, upper) == oracle_pair_report(
                    pts, lower, upper, dim_cap=2
                )


def test_pair_gives_the_shadow_the_midpoint_rips_complex(monkeypatch):
    from ripshadow import quasi

    seen = []

    def capture(c, **options):
        seen.append(c)
        return build_shadow(c, **options)

    monkeypatch.setattr(quasi, "build_shadow", capture)
    rng = random.Random(76)
    for t, pts, li, ui in _chain_cases(rng, 8):
        lower = (li, EdgePolicy.seeded_random(t, F(1, 2)))
        rep = pair_image_analysis(pts, lower, (ui, EdgePolicy.all()))
        (mid,) = seen
        seen.clear()
        want = build_rips(pts, rep.mid_eps, 2)
        # flag or explicit is how a complex is stored, not what it is
        assert (mid.simplices, mid.coords, mid.provenance, mid.n_vertices, mid.dim_cap) == (
            want.simplices, want.coords, want.provenance, want.n_vertices, want.dim_cap
        )


class _Picks(EdgePolicy):
    """A policy that picks the whole band and its own pairs besides."""

    def select(self, band_pairs):
        return list(band_pairs) + sorted(self.edges - set(band_pairs))


def test_pick_outside_its_band_is_refused_at_either_interval():
    pts = [P(0, 0), P(1, 0), P(3, 0), P(10, 0)]
    lower = UncertaintyInterval(F(1, 2), F(3, 2))  # band: (0, 1)
    upper = UncertaintyInterval(F(5, 2), F(4))  # forced (0, 1), (1, 2); band (0, 2)
    none, every = EdgePolicy.none(), EdgePolicy.all()
    # (1, 2) lies in R_mid (midpoint 2), (0, 2) only in R_Q', (0, 3) in neither;
    # a band of the resolver admits none of them, so the chain stays nested
    cases = [(lower, pair, (upper, every)) for pair in [(1, 2), (0, 2), (0, 3)]]
    cases += [(upper, pair, (lower, none)) for pair in [(0, 1), (1, 2), (0, 3)]]
    for interval, pair, other in cases:
        picks = _Picks(edges=frozenset([pair]))
        message = re.escape(f"outside the uncertain band: [{pair}]")
        with pytest.raises(ValueError, match=message):
            build_quasi(pts, interval, picks)
        with pytest.raises(ValueError, match=message):
            if interval is lower:
                pair_image_analysis(pts, (lower, picks), other)
            else:
                pair_image_analysis(pts, other, (upper, picks))
    # picks inside the band pass: the whole band is the `all` policy
    whole = _Picks(edges=frozenset())
    assert pair_image_analysis(pts, (lower, whole), (upper, whole)) == pair_image_analysis(
        pts, (lower, every), (upper, every)
    )


def test_none_and_all_are_the_coins_of_probability_0_and_1():
    rng = random.Random(77)
    for t, pts, li, ui in _chain_cases(rng, 8):
        none, every = EdgePolicy.none(), EdgePolicy.all()
        zero, one = EdgePolicy.seeded_random(t, 0), EdgePolicy.seeded_random(t, 1)
        wide = UncertaintyInterval(F(1, 2), F(5))  # nearly every pair in the band
        for interval in (li, ui, wide):
            assert build_quasi(pts, interval, none) == build_quasi(pts, interval, zero)
            assert build_quasi(pts, interval, every) == build_quasi(pts, interval, one)
        for (lp, up), (lq, uq) in [((none, every), (zero, one)), ((every, none), (one, zero))]:
            assert pair_image_analysis(pts, (li, lp), (ui, up)) == pair_image_analysis(
                pts, (li, lq), (ui, uq)
            )


def test_pair_enumerates_the_cliques_of_the_upper_complex_only(monkeypatch):
    from ripshadow import complexes

    ring = annulus_ring_points()
    lower = (UncertaintyInterval(F(7, 10), F(9, 10)), EdgePolicy.none())
    upper = (UncertaintyInterval(F(19, 10), F(11, 5)), EdgePolicy.all())
    high_edges = list(build_quasi(ring, *upper, dim_cap=2).edges)
    enumerate_cliques = complexes._cliques_from_graph
    enumerated = []

    def counted(vertices, edges, dim_cap):
        edges = list(edges)
        enumerated.append((sorted(edges), dim_cap))
        return enumerate_cliques(vertices, edges, dim_cap)

    monkeypatch.setattr(complexes, "_cliques_from_graph", counted)
    pair_image_analysis(ring, lower, upper)
    assert enumerated == [(high_edges, 2)]


def test_mono_claim_on_presets():
    for name in ("rp2", "torus"):
        p = preset_presentation(name)
        k, colors = presentation_to_colored_complex(p)
        b, blowup_colors = blowup(k, colors)
        eq = embed_blowup(b, blowup_colors, UncertaintyInterval(F(1), F(3, 2)), seed=5)
        assert monochromatic_violations(eq, b) == []
        cross, tris = cross_edges_and_triangles(eq)
        assert cross and tris
