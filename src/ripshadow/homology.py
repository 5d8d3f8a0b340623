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

The rank of H1(sub) -> H1(sup) induced by an inclusion is a persistent Betti
number and needs only d2(sup): its rank, and the rank of its restriction to
the rows of the edges of sup that are not in sub.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from .complexes import Simplex, SimplicialComplex

SparseCol = Dict[int, int]


class InsufficientDimCap(ValueError):
    pass


class ContainmentError(ValueError):
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


def boundary_matrix(c: SimplicialComplex, k: int) -> BoundaryMatrix:
    rows = c.k_simplices(k - 1)
    cols = c.k_simplices(k)
    index = {s: i for i, s in enumerate(rows)} if cols else {}
    columns: List[SparseCol] = []
    for s in cols:
        col: SparseCol = {}
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            col[index[face]] = 1 if i % 2 == 0 else -1
        columns.append(col)
    return BoundaryMatrix(k=k, rows=rows, cols=cols, columns=tuple(columns))


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
    cols = {j: dict(col) for j, col in enumerate(columns) if col}
    rows: Dict[int, Set[int]] = {}
    for j, col in cols.items():
        for r in col:
            rows.setdefault(r, set()).add(j)
    units = 0
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
        units += 1
    return [1] * units + _dense_snf([col for col in cols.values() if col])


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
    exactly, from one Smith diagonal per boundary matrix.

    Requires the complex to be materialized one dimension above top_dim so
    that the last image rank is honest.
    """
    if c.flag and top_dim + 1 > c.dim_cap:
        # a flag complex may truncate real cliques at dim_cap; an explicit
        # complex has nothing above its stored levels
        raise InsufficientDimCap(
            f"need dim_cap >= {top_dim + 1}, complex has {c.dim_cap}"
        )
    # a graph's d1 has rank |V| - b0 over every field
    rank_d1 = len(c.vertices) - len(c.components())
    q: List[int] = [0, rank_d1]
    gf2: List[int] = [0, rank_d1]
    for k in range(2, top_dim + 2):
        diag = snf_diagonal(boundary_matrix(c, k).columns)
        q.append(len(diag))
        gf2.append(sum(d % 2 for d in diag))

    def betti(ranks: List[int]) -> Tuple[int, ...]:
        return tuple(
            len(c.k_simplices(k)) - ranks[k] - ranks[k + 1] for k in range(top_dim + 1)
        )

    return BettiProfile(q=betti(q), gf2=betti(gf2))


def integer_h1(c: SimplicialComplex) -> SmithDecomposition:
    """H1(c; Z) as free rank plus torsion, via Smith normal form of (d1, d2)."""
    if c.dim_cap < 2:
        raise InsufficientDimCap("integer_h1 needs dim_cap >= 2")
    n1 = len(c.k_simplices(1))
    rank_d1 = len(c.vertices) - len(c.components())
    diag = snf_diagonal(boundary_matrix(c, 2).columns)
    rank_d2 = len(diag)
    torsion = tuple(d for d in diag if d > 1)
    return SmithDecomposition(rank=n1 - rank_d1 - rank_d2, torsion=torsion)


def _check_containment(sub: SimplicialComplex, sup: SimplicialComplex) -> None:
    for k in range(len(sub.simplices)):
        sup_level = set(sup.k_simplices(k))
        for s in sub.k_simplices(k):
            if s not in sup_level:
                raise ContainmentError(f"simplex {s} of sub missing from sup")


def induced_h1_rank(sub: SimplicialComplex, sup: SimplicialComplex) -> int:
    """Rank over Q of H1(sub) -> H1(sup) induced by inclusion.

    dim image = dim Z1(sub) - dim I, with I the intersection of B1(sup) and
    Z1(sub).  Every boundary of sup is a cycle, so it lies in Z1(sub)
    exactly when it vanishes on the edges of sup outside sub: I is the
    kernel of restricting B1(sup) to those rows, of dimension
    rank d2(sup) - rank(d2(sup) restricted to those rows).
    """
    return _induced_h1(sub, sup)[0]


def _induced_h1(sub: SimplicialComplex, sup: SimplicialComplex) -> Tuple[int, int]:
    """`induced_h1_rank` and b1(sup) over Q, from d2(sup) alone."""
    _check_containment(sub, sup)
    if sup.dim_cap < 2:
        raise InsufficientDimCap("sup needs its 2-skeleton materialized")
    d2_cols = boundary_matrix(sup, 2).columns
    rank_d2 = len(snf_diagonal(d2_cols))
    outside = {i for i, e in enumerate(sup.edges) if e not in sub.edge_set}
    restricted = ({r: v for r, v in col.items() if r in outside} for col in d2_cols)
    rank_restricted = len(snf_diagonal([col for col in restricted if col]))
    z1_sub = len(sub.edges) - len(sub.vertices) + len(sub.components())
    z1_sup = len(sup.edges) - len(sup.vertices) + len(sup.components())
    return z1_sub - rank_d2 + rank_restricted, z1_sup - rank_d2
