import json
import math
import os
import random
import tempfile
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ripshadow import cli
from ripshadow.cli import points_to_document
from ripshadow.complexes import build_rips, explicit_complex, flag_complex
from ripshadow.homology import (
    InsufficientDimCap,
    betti_numbers,
    boundary_matrix,
    _reduce_filtration,
    integer_h1,
    snf_diagonal,
)
from ripshadow.shadow import build_shadow, shadow_betti

from oracles import (
    KLEIN_TRIANGLES,
    MOORE3_TRIANGLES,
    RP2_TRIANGLES,
    ContainmentError,
    cycle_basis_columns,
    dense_boundary,
    dense_rank_gf2,
    dense_rank_q,
    dense_snf,
    euler_characteristic,
    explicit_copy,
    filtration_h1,
    homology_order_reduction,
    homology_profile,
    oracle_induced_h1_rank,
    rips_h1_barcode,
    verify_chain_property,
)

F = Fraction


def random_flag(rng, n_max=8, p=0.5, dim_cap=4):
    n = rng.randrange(3, n_max)
    edges = {(i, j) for i, j in combinations(range(n), 2) if rng.random() < p}
    return flag_complex(n, edges, dim_cap=dim_cap)


def cols_to_dense(columns, nrows):
    mat = [[0] * len(columns) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for r, v in col.items():
            mat[r][j] = v
    return mat


def test_rank_engines_match_dense_random():
    rng = random.Random(31)
    for _ in range(40):
        nrows = rng.randrange(1, 7)
        ncols = rng.randrange(1, 7)
        cols = []
        for _ in range(ncols):
            col = {
                r: rng.randrange(-4, 5)
                for r in range(nrows)
                if rng.random() < 0.6
            }
            cols.append({r: v for r, v in col.items() if v})
        dense = cols_to_dense(cols, nrows)
        diag = snf_diagonal(cols)
        assert sum(d % 2 for d in diag) == dense_rank_gf2(dense)
        assert len(diag) == dense_rank_q(dense)


def rp2_plus_cells_d2(rng):
    """d2 of RP2 plus random extra triangles, each meeting RP2 in at most one
    vertex so that its Z/2 survives: +-1 columns whose Z/2 is left to the
    dense finish."""
    n = rng.randrange(10, 13)
    free = [t for t in combinations(range(n), 3) if t[1] >= 6]
    extra = rng.sample(free, rng.randrange(5, 31))
    c = explicit_complex(n, [[], [], sorted(RP2_TRIANGLES + extra)])
    return boundary_matrix(c, 2), len(c.k_simplices(1))


def unimodular_column_mix(rng, cols):
    """The same lattice after random column additions, which create fill."""
    for _ in range(2 * len(cols)):
        a, b = rng.sample(range(len(cols)), 2)
        k = rng.choice((-2, -1, 1, 2))
        for r, v in cols[b].items():
            cols[a][r] = cols[a].get(r, 0) + k * v
        cols[a] = {r: v for r, v in cols[a].items() if v}
    return cols


def test_snf_matches_dense_oracle_random():
    rng = random.Random(32)
    cases = []
    for _ in range(30):
        nrows = rng.randrange(1, 6)
        ncols = rng.randrange(1, 6)
        cols = []
        for _ in range(ncols):
            col = {r: rng.randrange(-6, 7) for r in range(nrows)}
            cols.append({r: v for r, v in col.items() if v})
        cases.append((cols, nrows))
    # larger sparse inputs where both the unit sweep and the dense finish run
    for _ in range(15):
        cols, nrows = rp2_plus_cells_d2(rng)
        cases.append((cols, nrows))
        cases.append((unimodular_column_mix(rng, [dict(c) for c in cols]), nrows))
    for cols, nrows in cases:
        dense = cols_to_dense(cols, nrows)
        assert snf_diagonal(cols) == dense_snf(dense)


def planted_torsion(rng, nrows, ncols):
    """A matrix whose Smith diagonal is a random divisibility chain, hidden
    by random unimodular row and column additions; returns it and the chain."""
    planted, d = [], 1
    for _ in range(rng.randrange(1, min(nrows, ncols) + 1)):
        d *= rng.choice((1, 1, 2, 3))
        planted.append(d)
    m = [[0] * ncols for _ in range(nrows)]
    for i, d in enumerate(planted):
        m[i][i] = d
    for _ in range(2 * nrows):
        a, b = rng.sample(range(nrows), 2)
        k = rng.choice((-1, 1))
        m[a] = [x + k * y for x, y in zip(m[a], m[b])]
    for _ in range(2 * ncols):
        a, b = rng.sample(range(ncols), 2)
        k = rng.choice((-1, 1))
        for row in m:
            row[a] += k * row[b]
    return m, planted


def assert_planted_snf(m, planted):
    cols = [{r: v for r, v in enumerate(row) if v} for row in zip(*m)]
    diag = snf_diagonal(cols)
    assert diag == dense_snf(m) == planted
    # even planted factors make GF(2) and Q disagree: over GF(2) only the
    # odd invariant factors count
    assert sum(d % 2 for d in diag) == dense_rank_gf2(m)


# the chain [2, 6, 6, 18, 36] after 14 row and 10 column additions; the dense
# oracle's Euclidean loop used to grow its entries past 4,000 digits here
PLANTED_7X5 = [
    [-58, 30, -34, -20, -54],
    [-6, 6, 0, 0, -6],
    [42, -18, 36, 0, 78],
    [24, -30, 0, 18, -12],
    [36, 0, 36, 0, 72],
    [-6, 12, 0, 0, -6],
    [-18, 0, -36, 18, -90],
]


def test_snf_planted_torsion_matches_dense_oracle_random():
    # columns then hold several units, in rows of different weights, so the
    # pivot choice is exercised, and the torsion stays
    rng = random.Random(33)
    for _ in range(60):
        nrows, ncols = rng.randrange(2, 6), rng.randrange(2, 6)
        assert_planted_snf(*planted_torsion(rng, nrows, ncols))
    assert_planted_snf(PLANTED_7X5, [2, 6, 6, 18, 36])
    rng = random.Random(46)
    for _ in range(30):
        nrows, ncols = rng.randrange(6, 8), rng.randrange(6, 8)
        assert_planted_snf(*planted_torsion(rng, nrows, ncols))


def test_snf_clique_d2_is_all_units():
    # d2 of the full simplex on n vertices has rank C(n-1, 2) and no torsion.
    # Every triangle (0, 1, k) holds the row (0, 1), the smallest row of its
    # column: pivoting on the smallest unit row filled the other columns in.
    n = 50
    c = flag_complex(n, list(combinations(range(n), 2)), dim_cap=2)
    assert snf_diagonal(boundary_matrix(c, 2)) == [1] * math.comb(n - 1, 2)


def test_chain_property_random_complexes():
    rng = random.Random(33)
    for _ in range(15):
        c = random_flag(rng)
        assert verify_chain_property(c)


def test_betti_four_cycle():
    c = flag_complex(4, [(0, 1), (1, 2), (2, 3), (0, 3)], dim_cap=2)
    assert betti_numbers(c, 1).q == (1, 1)
    assert betti_numbers(c, 1).gf2 == (1, 1)


def test_betti_single_simplex_is_cone():
    c = flag_complex(5, list(combinations(range(5), 2)), dim_cap=5)
    assert betti_numbers(c, 3).q == (1, 0, 0, 0)


def test_betti_insufficient_cap():
    c = flag_complex(3, [(0, 1), (1, 2), (0, 2)], dim_cap=2)
    with pytest.raises(InsufficientDimCap):
        betti_numbers(c, 2)


def test_betti_matches_dense_oracle_random():
    # at top_dim 3, d2, d3 and d4 are each reduced
    rng = random.Random(34)
    for _ in range(20):
        c = random_flag(rng, dim_cap=4)
        for top in (2, 3):
            b = betti_numbers(c, top)
            for field, got in (("Q", b.q), ("GF2", b.gf2)):
                want = homology_profile(c.simplices, top, field)
                assert got == want, (c.counts(), top, field)


def _coned_surfaces(rng):
    """Torsion surfaces plus cones over sets of their triangles, one new
    apex per cone, and twice over a cone on all tetrahedra (4-simplices)."""
    for n, tris in ((6, RP2_TRIANGLES), (9, KLEIN_TRIANGLES), (13, MOORE3_TRIANGLES)):
        picks = [[tris], [tris[:1]], [tris[1:]], [tris[:1], tris[2:5]]]
        picks += [[rng.sample(tris, rng.randrange(1, len(tris) + 1))
                   for _ in range(rng.randrange(1, 3))] for _ in range(6)]
        for p, subsets in enumerate(picks):
            apex = n + len(subsets)
            tets = [t + (n + i,) for i, sub in enumerate(subsets) for t in sub]
            yield explicit_complex(apex, [[], [], tris, tets])
            if p in (1, 3):
                yield explicit_complex(apex + 1, [[], [], tris, tets, [t + (apex,) for t in tets]])


def test_coned_surfaces_match_the_dense_oracles():
    """Each d_k's Smith diagonal and the Betti numbers of torsion surfaces
    with cones on them match the dense oracles, factors 2 and 3 among
    the diagonals."""
    rng = random.Random(41)
    torsion = set()
    for c in _coned_surfaces(rng):
        for k in range(2, c.dim_cap + 1):
            diag = snf_diagonal(boundary_matrix(c, k))
            dense = dense_boundary(c.k_simplices(k), c.k_simplices(k - 1))
            assert diag == dense_snf(dense), (c.counts(), k)
            torsion.update(d for d in diag if d > 1)
        top = c.dim_cap - 1
        b = betti_numbers(c, top)
        for field, got in (("Q", b.q), ("GF2", b.gf2)):
            assert got == homology_profile(c.simplices, top, field), (c.counts(), field)
    assert torsion == {2, 3}


def test_gf2_betti_dominates_rational_random():
    rng = random.Random(35)
    for _ in range(20):
        c = random_flag(rng, dim_cap=4)
        q = betti_numbers(c, 2).q
        g = betti_numbers(c, 2).gf2
        assert all(gk >= qk for gk, qk in zip(g, q))


def test_euler_poincare_identity_random():
    rng = random.Random(36)
    for _ in range(15):
        n = rng.randrange(3, 7)
        edges = {(i, j) for i, j in combinations(range(n), 2) if rng.random() < 0.5}
        c = flag_complex(n, edges, dim_cap=n)  # fully materialized
        top = c.dim()
        b = betti_numbers(c, top if top + 1 <= c.dim_cap else top).q
        chi = sum((-1) ** k * bk for k, bk in enumerate(b))
        assert chi == euler_characteristic(c)


def test_integer_h1_four_cycle():
    c = flag_complex(4, [(0, 1), (1, 2), (2, 3), (0, 3)], dim_cap=2)
    h = integer_h1(c)
    assert h.rank == 1 and h.torsion == ()


def test_integer_h1_projective_plane():
    c = explicit_complex(6, [[], [], RP2_TRIANGLES])
    # closed-surface sanity on the frozen fixture
    from collections import Counter

    edge_use = Counter()
    for t in RP2_TRIANGLES:
        for e in combinations(t, 2):
            edge_use[e] += 1
    assert all(v == 2 for v in edge_use.values()) and len(edge_use) == 15
    assert euler_characteristic(c) == 1

    h = integer_h1(c)
    assert h.rank == 0
    assert h.torsion == (2,)
    # the invariant factor 2 is a unit over Q and zero over GF(2), which
    # leaves H1 = H2 = GF(2)
    b = betti_numbers(c, 2)
    assert b.q == (1, 0, 0)
    assert b.gf2 == (1, 1, 1)


def test_integer_h1_matches_snf_oracle_random():
    rng = random.Random(37)
    for _ in range(15):
        c = random_flag(rng)
        h = integer_h1(c)
        d2 = dense_boundary(c.k_simplices(2), c.k_simplices(1))
        diag = dense_snf(d2) if c.k_simplices(2) else []
        n1 = len(c.k_simplices(1))
        r1 = len(c.vertices) - c.n_components
        assert h.rank == n1 - r1 - len(diag)
        assert list(h.torsion) == [d for d in diag if d > 1]


# -- homology on the collapse core ---------------------------------------------


def _subdivision(c):
    """Flag complex of the barycentric subdivision of an explicit complex:
    a vertex per simplex, an edge per pair of nested simplices."""
    faces = [set(s) for level in c.simplices for s in level]
    edges = [(i, j) for (i, f), (j, g) in combinations(enumerate(faces), 2) if f < g or g < f]
    return flag_complex(len(faces), edges, dim_cap=3)


SURFACES = ((RP2_TRIANGLES, 6, "Z^0 + Z/2"), (KLEIN_TRIANGLES, 9, "Z^1 + Z/2"),
            (MOORE3_TRIANGLES, 13, "Z^0 + Z/3"))


def _core_cases(rng):
    for p in (0.3, 0.5, 0.7, 0.9):
        for _ in range(10):
            yield random_flag(rng, n_max=11, p=p, dim_cap=3)
    for pts, scales in _lattice_sets(rng):
        for eps in scales:
            yield build_rips(pts, eps, dim_cap=3)
    for triangles, n, _ in SURFACES:
        yield _subdivision(explicit_complex(n, [[], [], triangles]))
    # subdivided surfaces with cones over some of their triangles
    for p, c in enumerate(_coned_surfaces(rng)):
        if p % 5 == 0:
            yield _subdivision(c)


def test_core_keeps_betti_numbers_and_integer_h1():
    rng = random.Random(64)
    shrunk, torsion = 0, set()
    for c in _core_cases(rng):
        whole = explicit_copy(c)  # an explicit copy is its own core
        assert whole.core is whole
        assert betti_numbers(c, 2) == betti_numbers(whole, 2), c.counts()
        h1 = integer_h1(c)
        assert h1 == integer_h1(whole), c.counts()
        shrunk += c.core.counts() < c.counts()
        torsion.update(h1.torsion)
    assert shrunk > 50 and torsion == {2, 3}


def test_subdivided_surfaces_keep_their_torsion_on_the_core():
    # no face of these is free (the Moore space's three edges of 0-1-2 are
    # on three triangles each), so each is its own core; a cone over some
    # of their triangles collapses
    rng = random.Random(66)
    for triangles, n, h1 in SURFACES:
        c = _subdivision(explicit_complex(n, [[], [], triangles]))
        assert c.core is c
        assert str(integer_h1(c)) == h1
        coned = _subdivision(explicit_complex(n + 1, [[], [], triangles, [
            t + (n,) for t in rng.sample(triangles, len(triangles) // 2)]]))
        assert len(coned.core.vertices) < len(coned.vertices)
        assert integer_h1(coned) == integer_h1(explicit_copy(coned))


def test_core_homology_ignores_vertex_ids():
    # another labelling visits the vertices and edges in another order and
    # may keep another core, but never other homology
    rng = random.Random(65)
    for c in _core_cases(rng):
        perm = list(range(c.n_vertices))
        rng.shuffle(perm)
        moved = flag_complex(c.n_vertices, [(perm[i], perm[j]) for i, j in c.edges], 3)
        assert betti_numbers(moved, 2) == betti_numbers(c, 2)
        assert integer_h1(moved) == integer_h1(c)


def test_cycle_basis_is_made_of_cycles():
    rng = random.Random(38)
    for _ in range(15):
        c = random_flag(rng)
        edge_index = {e: i for i, e in enumerate(c.edges)}
        d1 = boundary_matrix(c, 1)
        for col in cycle_basis_columns(c, edge_index):
            acc = {}
            for e_row, coeff in col.items():
                for r, v in d1[e_row].items():
                    acc[r] = acc.get(r, 0) + coeff * v
            assert all(v == 0 for v in acc.values())
        assert len(cycle_basis_columns(c, edge_index)) == len(c.edges) - len(
            c.vertices
        ) + c.n_components


def test_induced_rank_cone_kills():
    square = flag_complex(4, [(0, 1), (1, 2), (2, 3), (0, 3)], dim_cap=2)
    coned = flag_complex(
        5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)], dim_cap=2
    )
    assert filtration_h1([square, coned])[1] == 0


def test_induced_rank_identity_is_b1():
    rng = random.Random(39)
    for _ in range(10):
        c = random_flag(rng)
        assert filtration_h1([c, c])[1] == betti_numbers(c, 1).q[1]


def test_induced_rank_containment_error():
    a = flag_complex(3, [(0, 1), (1, 2), (0, 2)], dim_cap=2)
    b = flag_complex(3, [(0, 1), (1, 2)], dim_cap=2)
    with pytest.raises(ContainmentError):
        filtration_h1([a, b])


def test_induced_rank_bound_and_monotone_random():
    rng = random.Random(40)
    for _ in range(12):
        n = rng.randrange(4, 8)
        all_edges = sorted(
            (i, j) for i, j in combinations(range(n), 2) if rng.random() < 0.7
        )
        rng.shuffle(all_edges)
        cut1 = rng.randrange(0, len(all_edges) + 1)
        cut2 = rng.randrange(cut1, len(all_edges) + 1)
        sub = flag_complex(n, all_edges[:cut1], dim_cap=3)
        mid = flag_complex(n, all_edges[:cut2], dim_cap=3)
        sup = flag_complex(n, all_edges, dim_cap=3)
        r_sub_sup = filtration_h1([sub, sup])[1]
        b1s = betti_numbers(sub, 1).q[1]
        b1t = betti_numbers(sup, 1).q[1]
        assert r_sub_sup <= min(b1s, b1t)
        assert r_sub_sup <= filtration_h1([sub, mid])[1]
        assert r_sub_sup <= filtration_h1([mid, sup])[1]


def test_induced_rank_ring_hole_survives():
    from ripshadow.fixtures import annulus_ring_points

    ring = annulus_ring_points()
    low = build_rips(ring, F(7, 10), dim_cap=3)
    high = build_rips(ring, F(19, 10), dim_cap=3)
    assert betti_numbers(low, 1).q[1] == 1
    assert betti_numbers(high, 1).q[1] == 1
    assert filtration_h1([low, high])[1] == 1


def test_induced_rank_torsion_class_dies_in_cone():
    # an RP2-like lower complex maps into its cone with zero H1 image
    rp2 = explicit_complex(6, [[], [], RP2_TRIANGLES])
    cone_tris = list(RP2_TRIANGLES) + [
        (i, j, 6) for i, j in combinations(range(6), 2)
    ]
    cone = explicit_complex(7, [[], [], cone_tris])
    assert integer_h1(cone).rank == 0 and integer_h1(cone).torsion == ()
    assert filtration_h1([rp2, cone])[1] == 0


def _random_flag_pairs(rng):
    for _ in range(25):
        n = rng.randrange(3, 9)
        edges = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < 0.5]
        rng.shuffle(edges)
        cut = rng.randrange(len(edges) + 1)
        yield flag_complex(n, edges[:cut], dim_cap=2), flag_complex(n, edges, dim_cap=2)


def _torsion_pairs(rng):
    rp2 = explicit_complex(6, [[], [], RP2_TRIANGLES])
    cone = explicit_complex(7, [[], [], list(RP2_TRIANGLES) + [
        (i, j, 6) for i, j in combinations(range(6), 2)
    ]])
    moebius = explicit_complex(6, [[], [], RP2_TRIANGLES[1:]])
    graph = explicit_complex(6, [[], rp2.edges], dim_cap=2)
    return [(rp2, cone), (rp2, rp2), (moebius, rp2), (moebius, moebius), (graph, moebius),
            (graph, rp2), (graph, cone)]


def _fewer_vertex_pairs(rng):
    for _ in range(20):
        n = rng.randrange(4, 9)
        k = rng.randrange(1, n)
        edges = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < 0.6]
        inner = [(i, j) for i, j in edges if j < k and rng.random() < 0.8]
        yield flag_complex(k, inner, dim_cap=2), flag_complex(n, edges, dim_cap=2)


def _triangle_free_pairs(rng):
    hexagon = [(i, (i + 1) % 6) for i in range(6)]
    yield flag_complex(6, hexagon[:5], dim_cap=2), flag_complex(6, hexagon, dim_cap=2)
    for _ in range(15):
        n = rng.randrange(4, 9)
        a = rng.randrange(1, n)
        edges = [(i, j) for i in range(a) for j in range(a, n) if rng.random() < 0.6]
        sub = [e for e in edges if rng.random() < 0.7]
        yield flag_complex(n, sub, dim_cap=2), flag_complex(n, edges, dim_cap=2)


def _lattice_sets(rng):
    # the boundary of [0, 3]^2 has a hole at scales 1 and 2
    ring = [(F(x), F(y)) for x in range(4) for y in range(4) if {x, y} & {0, 3}]
    inside = [(F(x), F(y)) for x in (1, 2) for y in (1, 2)]
    for _ in range(4):
        pts = sorted(rng.sample(ring, rng.randrange(10, 13)) + rng.sample(inside, rng.randrange(3)))
        # scales that some pair realises exactly, so d == eps is on the boundary
        scales = sorted({
            F(math.isqrt(d2)) for p, q in combinations(pts, 2)
            for d2 in [int((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2)]
            if math.isqrt(d2) ** 2 == d2
        })
        yield pts, scales


def _lattice_pairs(rng):
    for pts, scales in _lattice_sets(rng):
        for lo, hi in combinations(scales, 2):
            yield build_rips(pts, lo, dim_cap=2), build_rips(pts, hi, dim_cap=2)


@pytest.mark.parametrize(
    "pairs, seed",
    [
        (_random_flag_pairs, 41),
        (_torsion_pairs, 42),
        (_fewer_vertex_pairs, 43),
        (_triangle_free_pairs, 44),
        (_lattice_pairs, 45),
    ],
    ids=["random_flag", "torsion", "fewer_vertices", "no_triangles", "lattice_rips"],
)
def test_induced_rank_matches_cycle_basis_oracle(pairs, seed):
    ranks = []
    for sub, sup in pairs(random.Random(seed)):
        (_, b1), rank = filtration_h1([sub, sup])
        assert rank == oracle_induced_h1_rank(sub, sup)
        assert b1 == oracle_induced_h1_rank(sup, sup)
        ranks.append(rank)
    assert any(ranks)


def _flag_chains(rng):
    for _ in range(25):
        n = rng.randrange(3, 9)
        edges = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < 0.6]
        rng.shuffle(edges)
        a = rng.randrange(len(edges) + 1)
        b = rng.randrange(a, len(edges) + 1)
        yield [flag_complex(n, edges[:cut], dim_cap=2) for cut in (a, b, len(edges))]


def _surface_chains(rng):
    # RP2, the Moebius band and the Klein bottle leave pivots +-2 in the
    # reduced d2; on the Z/3 Moore space over two of its centre triangles a
    # column also reduces against one, which takes a non-unit step
    tops = ((6, RP2_TRIANGLES), (6, RP2_TRIANGLES[1:]), (9, KLEIN_TRIANGLES), (13, MOORE3_TRIANGLES))
    for n, tris in tops:
        top = explicit_complex(n, [[], [], tris])
        yield [explicit_complex(n, [[], top.edges], dim_cap=2), top, top]
        yield [explicit_complex(n, [[], [], tris[2:15:12]], dim_cap=2), top, top]
        for _ in range(8):
            order = rng.sample(tris, len(tris))
            a = rng.randrange(len(tris) + 1)
            b = rng.randrange(a, len(tris) + 1)
            # the lower complexes keep the whole 1-skeleton or only their triangles' edges
            skeleton = top.edges if rng.random() < 0.5 else []
            yield [explicit_complex(n, [[], skeleton, order[:a]], dim_cap=2),
                   explicit_complex(n, [[], skeleton, order[:b]], dim_cap=2), top]


def _lattice_chains(rng):
    # every strict triple of realised scales, and repeats below the largest
    # (the oracle is slow on the near-clique at the largest scale)
    for pts, scales in _lattice_sets(rng):
        for chain in [*combinations(scales, 3), *combinations_with_replacement(scales[:-1], 3)]:
            yield [build_rips(pts, eps, dim_cap=2) for eps in chain]


@pytest.mark.parametrize(
    "chains, seed",
    [(_flag_chains, 46), (_lattice_chains, 47), (_surface_chains, 48)],
    ids=["random_flag", "lattice_rips", "surfaces"],
)
def test_filtration_h1_matches_betti_and_oracle(chains, seed):
    ranks = []
    for chain in chains(random.Random(seed)):
        b1, rank = filtration_h1(chain)
        assert b1 == tuple(betti_numbers(c, 1).q[1] for c in chain)
        assert rank == oracle_induced_h1_rank(chain[0], chain[-1])
        ranks.append(rank)
    assert any(ranks)


def test_filtration_h1_rejects_bad_chains():
    path = flag_complex(3, [(0, 1), (1, 2)], dim_cap=2)
    triangle = flag_complex(3, [(0, 1), (1, 2), (0, 2)], dim_cap=2)
    with pytest.raises(ContainmentError):
        filtration_h1([path, triangle, path])
    with pytest.raises(InsufficientDimCap):
        filtration_h1([path, flag_complex(3, [(0, 1), (1, 2), (0, 2)], dim_cap=1)])


@st.composite
def _filtered_tops(draw):
    """A complex with a birth level on each edge and triangle, a triangle
    born no earlier than its edges: a random flag complex, or RP2, the
    Klein bottle or the Z/3 Moore space, whose reductions take non-unit
    steps."""
    levels = draw(st.integers(1, 6))
    surface = draw(st.sampled_from([None, (6, RP2_TRIANGLES), (9, KLEIN_TRIANGLES),
                                    (13, MOORE3_TRIANGLES)]))
    if surface is None:
        n = draw(st.integers(3, 8))
        pairs = list(combinations(range(n), 2))
        # dense, for many triangles: each pair is an edge with odds 3 to 1
        keep = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
        top = flag_complex(n, [e for e, k in zip(pairs, keep) if k], dim_cap=2)
    else:  # relabelled, so that other orders meet the non-unit steps
        perm = draw(st.permutations(range(surface[0])))
        top = explicit_complex(surface[0], [[], [], [[perm[v] for v in t] for t in surface[1]]])
    level = st.integers(0, levels - 1)
    births = draw(st.lists(level, min_size=len(top.edges), max_size=len(top.edges)))
    birth = dict(zip(top.edges, births))
    triangle_birth = [
        max(birth[a, b], birth[a, c], birth[b, c], draw(level)) for a, b, c in top.k_simplices(2)
    ]
    return top, births, triangle_birth, levels


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_filtered_tops())
def test_coboundary_reduction_matches_homology_order_oracle(filtered):
    assert _reduce_filtration(*filtered) == homology_order_reduction(*filtered)


def _relabel(c, perm):
    levels = [[tuple(perm[v] for v in s) for s in level] for level in c.simplices]
    return explicit_complex(c.n_vertices, levels, dim_cap=c.dim_cap)


@pytest.mark.parametrize(
    "chains, seed",
    [(_flag_chains, 49), (_lattice_chains, 50), (_surface_chains, 51)],
    ids=["random_flag", "lattice_rips", "surfaces"],
)
def test_filtration_h1_ignores_vertex_ids(chains, seed):
    # relabelling reorders the edges and triangles within each level, so
    # the union-find keeps another forest and the reduction runs in
    # another order; the ranks stay
    rng = random.Random(seed)
    for chain in chains(rng):
        perm = rng.sample(range(chain[-1].n_vertices), chain[-1].n_vertices)
        assert filtration_h1([_relabel(c, perm) for c in chain]) == filtration_h1(chain)


def _eps_at(value, scale):
    """A rational eps whose R_eps is the Rips complex at squared distance
    value / scale**2: eps itself when the value is a square (d == eps),
    else just above sqrt(value), below the next integer value."""
    r = math.isqrt(value)
    if r * r == value:
        return F(r, scale)
    n = 2 * r + 3  # (sqrt(value) + 1/n)^2 < value + 1
    return F(math.isqrt(value * n * n) + 1, n * scale)


HALF_GRID = st.tuples(st.integers(0, 4), st.integers(0, 4))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(st.lists(HALF_GRID, min_size=2, max_size=12, unique=True))
# the boundary of [0, 3/2]^2: a hole from d = 1/2 to d = 3/2
@example([(x, y) for x in range(4) for y in range(4) if {x, y} & {0, 3}])
def test_filtration_h1_matches_rips_barcode(cells):
    points = [(F(x, 2), F(y, 2)) for x, y in cells]
    values, scale, bars = rips_h1_barcode(points)
    rips = []
    for v, above in zip(values, values[1:] + [None]):
        eps = _eps_at(v, scale)
        assert v <= (eps * scale) ** 2 and (above is None or (eps * scale) ** 2 < above)
        rips.append(build_rips(points, eps, dim_cap=2))

    def alive(a, b):  # bars holding every value in [a, b]
        return sum(1 for birth, death in bars if birth <= a and (death is None or death > b))

    for i, j, k in combinations_with_replacement(range(len(values)), 3):
        b1, rank = filtration_h1([rips[i], rips[j], rips[k]])
        assert b1 == tuple(alive(values[t], values[t]) for t in (i, j, k))
        assert rank == alive(values[i], values[k])


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(st.lists(HALF_GRID, min_size=2, max_size=12, unique=True))
@example([(x, y) for x in range(4) for y in range(4) if {x, y} & {0, 3}])
def test_shadow_certificate_at_every_critical_scale(cells):
    # the shadow half of the barcode check: at each critical scale the
    # shadow counts the components and the bars alive there, H1 over Z is
    # free, and the CLI's certificate passes
    points = [(F(x, 2), F(y, 2)) for x, y in cells]
    values, scale, bars = rips_h1_barcode(points)
    with tempfile.TemporaryDirectory() as tmp:
        fx, out = os.path.join(tmp, "points.json"), os.path.join(tmp, "shadow.json")
        with open(fx, "w") as fh:
            json.dump(points_to_document(points), fh)
        for v in values:
            eps = _eps_at(v, scale)
            c = build_rips(points, eps, dim_cap=2)
            b0 = homology_profile(c.simplices, 0, "Q")[0]
            alive = sum(1 for birth, death in bars if birth <= v and (death is None or death > v))
            assert shadow_betti(build_shadow(c)) == (b0, alive)
            assert integer_h1(c).torsion == ()
            argv = ["shadow", "--points", fx, "--epsilon", str(eps), "--out", out]
            assert cli.main(argv) == 0
            with open(out) as fh:
                assert json.load(fh)["certificate"]["pass"] is True
