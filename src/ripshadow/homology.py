"""Boundary matrices, Betti numbers, integer Smith normal form, induced maps.

Everything is exact: ranks and torsion come from the integer Smith normal
form (arbitrary precision, no modular shortcuts).  One diagonal gives both
fields: the rank over Q is its length, the rank over GF(2) its count of odd
invariant factors, because unimodular operations stay invertible mod 2.
Matrices are stored column-sparse.  The Smith form runs in two phases: one
sweep splits off every +-1 pivot it meets, then a dense
Euclidean reduction diagonalizes the small remainder.  Both use only
integer unimodular row and column operations, which keep the invariant
factors, so the result is exact.

A flag complex's Betti numbers and integer H1 are read on its collapse
core (`SimplicialComplex.core`).  Removing a dominated edge uv from the
graph, one where some w outside {u, v} is adjacent to all of N[u] & N[v],
is a sequence of elementary collapses of the flag complex (Boissonnat &
Pritam, "Edge collapse and persistence of flag complexes", SoCG 2020);
removing a dominated vertex v, N[v] inside N[u], is a strong collapse
(Barmak & Minian, DCG 47, 2012).  Collapses keep the simple-homotopy type,
so the core has the same Betti numbers over Q and GF(2) and the same
integer H1, torsion included; the dimension cap is checked on the whole
complex.

Betti numbers clear (Chen & Kerber 2011): d_{k+1} is reduced before d_k,
and d_k loses the columns of the rows d_{k+1}'s unit sweep pivoted on.
When the sweep visits a pivot column, it is the boundary of an integer
chain, with a unit on its pivot row and no earlier pivot row in its
support.  Its boundary is zero, so d_k's column on the pivot row is an
integer combination of d_k's columns on the rest of that support: kept
rows, or pivot rows of later columns.  The dependency runs in reverse
sweep order, ending on kept columns, so dropping the pivot rows' columns
keeps the column lattice of d_k, and with it its Smith diagonal and the
ranks over Q and GF(2).

Ranks of H1 over Q along a nested chain K_0 c ... c K_m -- each b1(K_i) and
the rank of H1(K_0) -> H1(K_m), a persistent Betti number -- come from the
persistence pairs of the filtration (Edelsbrunner, Letscher & Zomorodian
2002; Zomorodian & Carlsson 2005).  Reducing the coboundary of the edges,
last edge first, gives the same pairs as reducing d2(K_m) in filtration
order (de Silva, Morozov & Vejdemo-Johansson 2011, persistent homology and
cohomology pair alike), and needs no column for an edge that joins two
components: such an edge kills an H0 class, so its coboundary reduces to
zero and is cleared up front (clearing, as in Bauer's Ripser, 2021).  What
is left is one column per independent cycle, fewer than the triangles, and
its columns reduce with few eliminations, all by one rule: with pivot
entries a g and b g, g their gcd, b col - a other, its content divided out.
`_reduce_filtration` is that reduction: it takes only K_m and each edge's
and triangle's birth level, so its caller, the pair analysis, tags the
births while it resolves its pairs and builds no complex below K_m and no
boundary matrix.
The Smith form stays the routine for what needs the integer diagonal:
torsion and GF(2) ranks; `_h1` reads integer H1 off d2's diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from .complexes import Simplex, SimplicialComplex, component_counts

SparseCol = Dict[int, int]


class InsufficientDimCap(ValueError):
    pass


@dataclass(frozen=True)
class BoundaryMatrix:
    """Signed boundary operator from k-simplices to (k-1)-simplices.

    Column j holds the boundary of the j-th k-simplex; the sign convention
    alternates over the increasing-vertex-order faces.
    """

    k: int
    rows: Tuple[Simplex, ...]
    cols: Tuple[Simplex, ...]
    columns: Tuple[SparseCol, ...]


def _columns(cells: Sequence[Simplex], index: Dict[Simplex, int]) -> List[SparseCol]:
    """Each cell's signed boundary over the faces index numbers; a face it
    does not number is dropped, as in a relative chain."""
    columns: List[SparseCol] = []
    for s in cells:
        col: SparseCol = {}
        for i in range(len(s)):
            row = index.get(s[:i] + s[i + 1 :])
            if row is not None:
                col[row] = 1 if i % 2 == 0 else -1
        columns.append(col)
    return columns


def boundary_matrix(c: SimplicialComplex, k: int) -> BoundaryMatrix:
    rows = c.k_simplices(k - 1)
    cols = c.k_simplices(k)
    index = {s: i for i, s in enumerate(rows)} if cols else {}
    return BoundaryMatrix(k=k, rows=rows, cols=cols, columns=tuple(_columns(cols, index)))


def snf_diagonal(columns: Sequence[SparseCol]) -> List[int]:
    """Invariant factors (ascending, divisibility chain) of an integer
    matrix; their count is its rank over the rationals.

    Unit sweep: each column, visited once in index order, that holds a +-1
    pivots on such a row, the one in fewest columns (smallest index on a
    tie).  Column operations clear that row from every other column, after
    which row operations would clear the pivot's column without touching
    anything else, so the pivot row and column split off as a factor 1.
    Columns without a unit when visited stay, and later pivots keep
    operating on them; what is left after the sweep goes to a dense
    Euclidean finish.
    """
    return _snf_pivots(columns)[0]


def _snf_pivots(columns: Sequence[SparseCol]) -> Tuple[List[int], List[int]]:
    """`snf_diagonal` of the columns, and the rows its unit sweep pivoted
    on, in sweep order."""
    cols = {j: dict(col) for j, col in enumerate(columns) if col}
    rows: Dict[int, Set[int]] = {}
    for j, col in cols.items():
        for r in col:
            rows.setdefault(r, set()).add(j)
    pivot_rows: List[int] = []
    for c in range(len(columns)):
        col = cols.get(c)
        unit_rows = [r for r, v in col.items() if v == 1 or v == -1] if col else ()
        if not unit_rows:
            continue
        # the unit row in fewest columns: its elimination touches the
        # fewest other columns and makes the least fill-in
        r = unit_rows[0] if len(unit_rows) == 1 else min(
            unit_rows, key=lambda r: (len(rows[r]), r)
        )
        p = col.pop(r)
        for j in rows.pop(r):
            if j == c:
                continue
            other = cols[j]
            q = other.pop(r) * p  # p is a unit, so this is other[r] / p
            for rr, v in col.items():
                w = other.get(rr, 0) - q * v
                if w:
                    if rr not in other:
                        rows[rr].add(j)
                    other[rr] = w
                else:
                    del other[rr]
                    rows[rr].discard(j)
        for rr in col:
            rows[rr].discard(c)
        del cols[c]
        pivot_rows.append(r)
    diag = [1] * len(pivot_rows) + _dense_snf([col for col in cols.values() if col])
    return diag, pivot_rows


def _dense_snf(columns: List[SparseCol]) -> List[int]:
    """Invariant factors of a small matrix, diagonalized densely by
    Euclidean row and column operations on its smallest entry."""
    index = {r: i for i, r in enumerate(sorted({r for col in columns for r in col}))}
    m = [[0] * len(columns) for _ in index]
    for j, col in enumerate(columns):
        for r, v in col.items():
            m[index[r]][j] = v
    diag: List[int] = []
    while True:
        nonzero = [(abs(v), i, j) for i, row in enumerate(m) for j, v in enumerate(row) if v]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        prow = m[i]
        p = prow[j]
        for k, v in enumerate(prow):  # column operations on row i
            q = v // p
            if k != j and q:
                for row in m:
                    row[k] -= q * row[j]
        for row in m:  # row operations on column j
            q = row[j] // p
            if row is not prow and q:
                for k, v in enumerate(prow):
                    row[k] -= q * v
        # a nonzero remainder is smaller than p and becomes the next pivot
        if sum(1 for v in prow if v) == 1 and sum(1 for row in m if row[j]) == 1:
            diag.append(abs(p))
            del m[i]
            for row in m:
                del row[j]
    # divisibility fix-up; units divide everything, so only entries > 1
    big = [d for d in diag if d > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(big)):
            for j in range(i + 1, len(big)):
                if big[j] % big[i] != 0:
                    g = math.gcd(big[i], big[j])
                    big[i], big[j] = g, big[i] // g * big[j]
                    changed = True
    return [1] * (len(diag) - len(big)) + big


@dataclass(frozen=True)
class SmithDecomposition:
    """Free rank and torsion coefficients of H1 = ker d1 / im d2."""

    rank: int
    torsion: Tuple[int, ...]

    def __str__(self) -> str:
        parts = [f"Z^{self.rank}"] + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts)


@dataclass(frozen=True)
class BettiProfile:
    q: Tuple[int, ...]
    gf2: Tuple[int, ...]


def betti_numbers(c: SimplicialComplex, top_dim: int = 1) -> BettiProfile:
    """Betti numbers b_0..b_top_dim over the rationals and over GF(2),
    exactly, from one Smith diagonal per boundary matrix, each d_k cleared
    by d_{k+1} (module docstring).

    Requires the complex to be materialized one dimension above top_dim so
    that the last image rank is honest.  A flag complex is read on its core.
    """
    if c.flag and top_dim + 1 > c.dim_cap:
        # a flag complex may truncate real cliques at dim_cap; an explicit
        # complex has nothing above its stored levels
        raise InsufficientDimCap(
            f"need dim_cap >= {top_dim + 1}, complex has {c.dim_cap}"
        )
    c = c.core
    # a graph's d1 has rank |V| - b0 over every field
    rank_d1 = len(c.vertices) - c.n_components
    q: List[int] = [0, rank_d1] + [0] * top_dim
    gf2: List[int] = [0, rank_d1] + [0] * top_dim
    cleared: List[int] = []
    for k in range(top_dim + 1, 1, -1):
        columns = boundary_matrix(c, k).columns
        if cleared:  # d_{k+1} pivoted on these k-simplices: drop their columns
            drop = set(cleared)
            columns = [col for j, col in enumerate(columns) if j not in drop]
        diag, cleared = _snf_pivots(columns)
        q[k] = len(diag)
        gf2[k] = sum(d % 2 for d in diag)

    def betti(ranks: List[int]) -> Tuple[int, ...]:
        return tuple(
            len(c.k_simplices(k)) - ranks[k] - ranks[k + 1] for k in range(top_dim + 1)
        )

    return BettiProfile(q=betti(q), gf2=betti(gf2))


def integer_h1(c: SimplicialComplex) -> SmithDecomposition:
    """H1(c; Z) as free rank plus torsion, via Smith normal form of (d1, d2),
    read on the core of a flag complex."""
    if c.dim_cap < 2:
        raise InsufficientDimCap("integer_h1 needs dim_cap >= 2")
    c = c.core
    cycles = len(c.edges) - len(c.vertices) + c.n_components
    return _h1(cycles, snf_diagonal(boundary_matrix(c, 2).columns))


def _h1(cycles: int, d2_diagonal: Sequence[int]) -> SmithDecomposition:
    """H1 from the rank of its cycle group and the Smith diagonal of d2:
    free rank the cycles less the diagonal's length, torsion its factors
    above 1."""
    return SmithDecomposition(
        rank=cycles - len(d2_diagonal), torsion=tuple(d for d in d2_diagonal if d > 1)
    )


def _reduce_filtration(
    top: SimplicialComplex,
    edge_birth: Sequence[int],
    triangle_birth: Sequence[int],
    levels: int,
) -> Tuple[Tuple[int, ...], int]:
    """b1 over Q of each level K_0 c ... c K_m of a filtered complex
    (m = levels - 1), and the rank of H1(K_0) -> H1(K_m), from one
    coboundary reduction with clearing.

    `top` is K_m; level i holds the edges and triangles whose birth (listed
    in `top`'s order) is at most i.  Edges and triangles go in filtration
    order: by birth, lexicographic within it.  A union-find pass over the
    edges in that order clears each edge that joins two components (it
    kills an H0 class, so its coboundary reduces to zero); the others each
    add one to dim Z1 of their level and after.  Their coboundaries (the
    triangles on the edge, signed as in d2), reduced from the last edge back
    with the pivot at the earliest triangle, leave nonzero columns whose
    pairs (edge, pivot) are the pairs (pivot, triangle) that reducing d2(K_m)
    in filtration order would keep.  Those with the triangle in K_i are a
    basis of B1(K_i), and those with the edge in K_0 one of B1(K_m)
    restricted to K_0's edges, which is B1(K_m) meet Z1(K_0) because
    boundaries are cycles.
    """
    order = sorted(zip(edge_birth, top.edges))
    vertices = top.vertices
    counts = component_counts(vertices, ([e] for _, e in order))
    # an edge that leaves the count as it was closes a cycle; the rest are cleared
    cycles = [be for be, k, before in zip(order, counts, [len(vertices), *counts]) if k == before]
    triangles = sorted(zip(triangle_birth, top.k_simplices(2)))
    cob: Dict[Simplex, SparseCol] = {e: {} for _, e in cycles}
    for p, (_, (i, j, k)) in enumerate(triangles):
        for face, sign in (((j, k), 1), ((i, k), -1), ((i, j), 1)):
            if face in cob:
                cob[face][p] = sign
    pivots: Dict[int, SparseCol] = {}
    kept: List[Tuple[int, int]] = []  # (birth of the triangle, of the edge) per nonzero column
    for birth, e in reversed(cycles):
        col = cob[e]
        while col:
            p = min(col)
            other = pivots.get(p)
            if other is None:
                pivots[p] = col
                kept.append((triangles[p][0], birth))
                break
            g = math.gcd(col[p], other[p])
            a, b = col[p] // g, other[p] // g
            # b col - a other, then divide out the content
            col = {r: w for r in col.keys() | other.keys()
                   if (w := b * col.get(r, 0) - a * other.get(r, 0))}
            if col:
                g = math.gcd(*col.values())
                col = {r: v // g for r, v in col.items()}

    z1 = [sum(b <= i for b, _ in cycles) for i in range(levels)]
    b1 = tuple(z - sum(t <= i for t, _ in kept) for i, z in enumerate(z1))
    return b1, z1[0] - sum(b == 0 for _, b in kept)
