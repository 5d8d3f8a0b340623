"""Independent reference implementations used only to freeze expected values.

These stay deliberately naive and dense (textbook row/column reduction on
full matrices, brute-force enumeration, all-pairs loops) so they share no
code path with the production algorithms they check.  The last section
holds checks on package objects that only tests call.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ripshadow.complexes import Simplex, SimplicialComplex, flag_complex
from ripshadow.geometry import scale_points
from ripshadow.homology import (
    InsufficientDimCap,
    SparseCol,
    _reduce_filtration,
    betti_numbers,
    boundary_matrix,
)
from ripshadow.lifting import LiftError, loop_word
from ripshadow.quasi import EdgePolicy, PairReport
from ripshadow.shadow import build_shadow, hole_anchors, shadow_betti


def dense_boundary(simplices_k: Sequence[tuple], simplices_km1: Sequence[tuple]) -> List[List[int]]:
    index = {s: i for i, s in enumerate(simplices_km1)}
    mat = [[0] * len(simplices_k) for _ in range(len(simplices_km1))]
    for j, s in enumerate(simplices_k):
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            mat[index[face]][j] = 1 if i % 2 == 0 else -1
    return mat


def dense_rank_q(mat: Sequence[Sequence]) -> int:
    """Plain fraction Gaussian elimination, first nonzero pivot."""
    m = [[Fraction(x) for x in row] for row in mat]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                f = m[r][col] / pv
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def dense_rank_gf2(mat: Sequence[Sequence[int]]) -> int:
    m = [[x % 2 for x in row] for row in mat]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(nrows):
            if r != row and m[r][col]:
                m[r] = [(a + b) % 2 for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def dense_snf(mat: Sequence[Sequence[int]]) -> List[int]:
    """Textbook dense Smith normal form; returns the diagonal (abs values)."""
    m = [list(map(int, row)) for row in mat]
    if not m or not m[0]:
        return []
    nrows, ncols = len(m), len(m[0])
    diag: List[int] = []
    top = 0
    while top < min(nrows, ncols):
        # find smallest nonzero entry in the trailing block
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        while True:
            # reduce the pivot's column and row by the pivot, then re-pick
            # the smallest nonzero entry of that row and column; a remainder
            # is smaller than the pivot, so the pivot shrinks every pass
            p = m[top][top]
            for i in range(top + 1, nrows):
                q = m[i][top] // p
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[top])]
            for j in range(top + 1, ncols):
                q = m[top][j] // p
                if q:
                    for row in m:
                        row[j] -= q * row[top]
            line = [(abs(m[i][top]), i, top) for i in range(top + 1, nrows) if m[i][top]]
            line += [(abs(m[top][j]), top, j) for j in range(top + 1, ncols) if m[top][j]]
            if not line:
                break
            _, bi, bj = min(line)
            m[top], m[bi] = m[bi], m[top]
            for row in m:
                row[top], row[bj] = row[bj], row[top]
        diag.append(abs(m[top][top]))
        top += 1
    # enforce the divisibility chain
    import math

    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[i] and diag[j] % diag[i] != 0:
                    g = math.gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, diag[i] // g * diag[j]
                    changed = True
    return sorted(d for d in diag if d != 0)


def brute_force_cliques(n: int, edges: set, max_size: int) -> Dict[int, set]:
    """All cliques by raw subset enumeration (exponential; tiny inputs only)."""
    adj = {v: set() for v in range(n)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    out: Dict[int, set] = {k: set() for k in range(max_size)}
    for size in range(1, max_size + 1):
        for sub in combinations(range(n), size):
            if all(b in adj[a] for a, b in combinations(sub, 2)):
                out[size - 1].add(sub)
    return out


def bfs_component_count(vertices, edges) -> int:
    """Connected components of a graph, isolated vertices included, by
    breadth-first search from each unvisited vertex in turn."""
    vertices = list(vertices)
    seen: Set[int] = set()
    count = 0
    for start in vertices:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        frontier = [start]
        while frontier:
            reached = []
            for u in frontier:
                for a, b in edges:
                    for x, y in ((a, b), (b, a)):
                        if x == u and y not in seen:
                            seen.add(y)
                            reached.append(y)
            frontier = reached
    return count


def homology_profile(
    simplices: Sequence[Sequence[tuple]], top_dim: int, field: str
) -> Tuple[int, ...]:
    """Betti numbers from dense matrices, independent of the package."""
    ranks = {0: 0}
    for k in range(1, top_dim + 2):
        cols = simplices[k] if k < len(simplices) else []
        rows = simplices[k - 1] if k - 1 < len(simplices) else []
        mat = dense_boundary(cols, rows) if cols else []
        if not cols:
            ranks[k] = 0
        elif field == "Q":
            ranks[k] = dense_rank_q(mat)
        else:
            ranks[k] = dense_rank_gf2(mat)
    counts = [len(simplices[k]) if k < len(simplices) else 0 for k in range(top_dim + 1)]
    return tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(top_dim + 1))


def cycle_basis_columns(
    c: SimplicialComplex, edge_index: Dict[Simplex, int]
) -> List[SparseCol]:
    """Integer basis of the cycle space Z1(c), one fundamental cycle per
    non-forest edge, expressed in the given edge coordinates.

    Edge (i, j) with i < j contributes +1 when traversed from i to j.
    """
    adj: Dict[int, List[Tuple[int, Simplex]]] = {v: [] for v in c.vertices}
    for e in c.edges:
        i, j = e
        adj[i].append((j, e))
        adj[j].append((i, e))
    parent: Dict[int, Optional[Tuple[int, Simplex]]] = {}
    tree_edges: Set[Simplex] = set()
    for root in c.vertices:
        if root in parent:
            continue
        parent[root] = None
        queue = [root]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for w, e in sorted(adj[u]):
                if w not in parent:
                    parent[w] = (u, e)
                    tree_edges.add(e)
                    queue.append(w)

    def path_to_root(v: int) -> List[Tuple[int, Simplex, int]]:
        """(edge_row, edge, sign) steps from v up to its root, as traversed."""
        out = []
        while parent[v] is not None:
            u, e = parent[v]  # type: ignore[misc]
            sign = 1 if v == e[0] else -1  # e = (min, max); +1 means min -> max
            out.append((edge_index[e], e, sign))
            v = u
        return out

    basis: List[SparseCol] = []
    for e in c.edges:
        if e in tree_edges:
            continue
        i, j = e
        col: SparseCol = {edge_index[e]: 1}  # traverse i -> j
        for row, _, sgn in path_to_root(j):  # j up to root: adds j->root
            col[row] = col.get(row, 0) + sgn
        for row, _, sgn in path_to_root(i):  # minus (i up to root)
            col[row] = col.get(row, 0) - sgn
        basis.append({r: v for r, v in col.items() if v != 0})
    return basis


def oracle_induced_h1_rank(sub: SimplicialComplex, sup: SimplicialComplex) -> int:
    """Rank over Q of H1(sub) -> H1(sup) as rank [cycles of sub | d2(sup)]
    minus rank d2(sup), on dense matrices over sup's edges: the image is
    (Z1(sub) + B1(sup)) / B1(sup)."""
    edge_index = {e: i for i, e in enumerate(sup.edges)}
    cycles = cycle_basis_columns(sub, edge_index)
    d2 = dense_boundary(sup.k_simplices(2), sup.edges)
    rows = [[col.get(r, 0) for col in cycles] + d2[r] for r in range(len(sup.edges))]
    return dense_rank_q(rows) - dense_rank_q(d2)


def homology_order_reduction(
    top: SimplicialComplex,
    edge_birth: Sequence[int],
    triangle_birth: Sequence[int],
    levels: int,
) -> Tuple[Tuple[int, ...], int]:
    """b1 over Q of each level of a filtered complex and the rank of
    H1(K_0) -> H1(K_m), by reducing d2(K_m) in homology order.

    Rows and columns go in filtration order (by birth, lexicographic
    within it); columns are reduced left to right with the pivot at the
    last nonzero row, a step against a +-1 pivot in place and any other by
    b col - a other with the content divided out.  b1(K_i) is dim Z1(K_i),
    counted by breadth-first search, minus the nonzero columns among K_i's
    triangles; the rank is dim Z1(K_0) minus those whose pivot is an edge
    of K_0.
    """
    d2 = boundary_matrix(top, 2)
    rows = sorted(range(len(top.k_simplices(1))), key=edge_birth.__getitem__)
    pos = {r: p for p, r in enumerate(rows)}
    pivots: Dict[int, SparseCol] = {}
    kept: List[Tuple[int, int]] = []  # (birth of the triangle, pivot) per nonzero column
    for j in sorted(range(len(top.k_simplices(2))), key=triangle_birth.__getitem__):
        col = {pos[r]: v for r, v in d2[j].items()}
        while col:
            p = max(col)
            other = pivots.get(p)
            if other is None:
                pivots[p] = col
                kept.append((triangle_birth[j], p))
                break
            g = gcd(col[p], other[p])
            a, b = col[p] // g, other[p] // g
            if b == 1 or b == -1:
                q = a * b
                for r, v in other.items():
                    w = col.get(r, 0) - q * v
                    if w:
                        col[r] = w
                    else:
                        del col[r]
            else:
                col = {r: w for r in col.keys() | other.keys()
                       if (w := b * col.get(r, 0) - a * other.get(r, 0))}
                if col:
                    g = gcd(*col.values())
                    col = {r: v // g for r, v in col.items()}

    z1 = []
    for i in range(levels):
        edges = [e for e, b in zip(top.edges, edge_birth) if b <= i]
        z1.append(len(edges) - len(top.vertices) + bfs_component_count(top.vertices, edges))
    b1 = tuple(z - sum(t <= i for t, _ in kept) for i, z in enumerate(z1))
    n0 = sum(1 for b in edge_birth if b == 0)  # K_0's edges are the first rows
    return b1, z1[0] - sum(p < n0 for _, p in kept)


def rips_h1_barcode(points) -> Tuple[List[int], int, List[Tuple[int, Optional[int]]]]:
    """Exact H1 barcode over Q of the Rips filtration of planar points.

    Values are integer squared distances after one `scale_points` (true
    squared distance = value / scale**2).  Returns the critical values (the
    distinct pair distances, ascending), the scale, and one (birth, death)
    per H1 bar, death None for a bar that never dies.  A simplex enters at
    its longest edge; the dense Fraction boundary matrix of every vertex,
    edge and triangle is reduced column by column in filtration order (by
    value, then dimension, then lexicographically), and each triangle whose
    column keeps a pivot kills the edge bar born at that pivot.  R_eps at
    value v holds the bars with birth <= v < death.
    """
    ipts, scale = scale_points(points)
    n = len(ipts)

    def value(s):
        return max(
            ((ipts[a][0] - ipts[b][0]) ** 2 + (ipts[a][1] - ipts[b][1]) ** 2
             for a, b in combinations(s, 2)),
            default=0,
        )

    simplices = [s for k in (1, 2, 3) for s in combinations(range(n), k)]
    simplices.sort(key=lambda s: (value(s), len(s), s))
    index = {s: i for i, s in enumerate(simplices)}
    m = [[Fraction(0)] * len(simplices) for _ in simplices]  # m[column][row]
    for j, s in enumerate(simplices):
        if len(s) > 1:  # a vertex has no boundary
            for i in range(len(s)):
                m[j][index[s[:i] + s[i + 1 :]]] = Fraction(1 if i % 2 == 0 else -1)

    def low(col):
        return max((r for r, v in enumerate(col) if v), default=None)

    owner: Dict[int, int] = {}  # pivot row -> reduced column
    for j in range(len(simplices)):
        col = m[j]
        while (r := low(col)) is not None and r in owner:
            other = m[owner[r]]
            q = col[r] / other[r]
            col = m[j] = [a - q * b if b else a for a, b in zip(col, other)]
        if r is not None:
            owner[r] = j
    negative = set(owner.values())
    bars = []
    for i, s in enumerate(simplices):
        # a positive edge (its own column reduced to zero) opens a bar
        if len(s) == 2 and i not in negative:
            j = owner.get(i)
            bars.append((value(s), None if j is None else value(simplices[j])))
    values = sorted({value(s) for s in simplices if len(s) == 2})
    return values, scale, bars


# Minimal 6-vertex triangulation of the projective plane: 10 triangles on
# K6, every edge in exactly two of them, Euler characteristic 1.
RP2_TRIANGLES = [
    (0, 1, 2),
    (0, 1, 3),
    (0, 2, 4),
    (0, 3, 5),
    (0, 4, 5),
    (1, 2, 5),
    (1, 3, 4),
    (1, 4, 5),
    (2, 3, 4),
    (2, 3, 5),
]


# The 3 x 3 grid on the square with (x, 3) glued to (-x, 0) and (3, y) to
# (0, y): 9 vertices, 27 edges, 18 triangles, H1 = Z + Z/2.
KLEIN_TRIANGLES = [
    (0, 1, 4),
    (0, 1, 8),
    (0, 2, 3),
    (0, 2, 6),
    (0, 3, 4),
    (0, 6, 8),
    (1, 2, 5),
    (1, 2, 7),
    (1, 4, 5),
    (1, 7, 8),
    (2, 3, 5),
    (2, 6, 7),
    (3, 4, 7),
    (3, 5, 6),
    (3, 6, 7),
    (4, 5, 8),
    (4, 7, 8),
    (5, 6, 8),
]

# A disk whose boundary, nine edges, winds three times around the triangle
# 0-1-2 (inner ring 3..11, centre 12): 27 triangles, H1 = Z/3.
MOORE3_TRIANGLES = [
    t
    for i in range(9)
    for t in ((i % 3, (i + 1) % 3, 3 + i), ((i + 1) % 3, 3 + i, 3 + (i + 1) % 9), (3 + i, 3 + (i + 1) % 9, 12))
]

# ---------------------------------------------------------------------------
# distance bands and planar predicates on Fraction points, by direct
# rational arithmetic
# ---------------------------------------------------------------------------


def to_triple(p) -> Tuple[int, int, int]:
    """The reduced kernel triple (X, Y, D) of a planar point, by Fractions:
    D is the lcm of the coordinates' denominators."""
    x, y = (Fraction(c) for c in p)
    d = lcm(x.denominator, y.denominator)
    return (x.numerator * (d // x.denominator), y.numerator * (d // y.denominator), d)


def frac_pair_bands(points, lo, hi) -> List[Tuple[int, int, int, Fraction]]:
    """(i, j, band, slack) per pair i < j: squared Fraction distances
    compared against lo^2 and hi^2, slack a Fraction.  The first pair at
    distance 0 is a ValueError."""
    lo2, hi2 = Fraction(lo) ** 2, Fraction(hi) ** 2
    out = []
    for i, j in combinations(range(len(points)), 2):
        d2 = sum((Fraction(a) - b) ** 2 for a, b in zip(points[i], points[j]))
        if d2 == 0:
            raise ValueError(f"points {i} and {j} coincide; distinct points required")
        if d2 <= lo2:
            out.append((i, j, 0, lo2 - d2))
        elif d2 >= hi2:
            out.append((i, j, 2, d2 - hi2))
        else:
            out.append((i, j, 1, min(d2 - lo2, hi2 - d2)))
    return out


def _sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def dir_cmp(d1: Tuple[int, int], d2: Tuple[int, int]) -> int:
    """Exact CCW comparison of nonzero integer direction vectors, from the
    +x axis round: the half-plane first, then the sign of the cross product."""
    h1 = 0 if (d1[1] > 0 or (d1[1] == 0 and d1[0] > 0)) else 1
    h2 = 0 if (d2[1] > 0 or (d2[1] == 0 and d2[0] > 0)) else 1
    if h1 != h2:
        return -1 if h1 < h2 else 1
    crossv = d1[0] * d2[1] - d1[1] * d2[0]
    return (crossv < 0) - (crossv > 0)


def frac_orient(p, q, r) -> int:
    """Sign of det(q-p, r-p)."""
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (d > 0) - (d < 0)


def frac_on_segment(x, a, b) -> bool:
    lo0, hi0 = (a[0], b[0]) if a[0] <= b[0] else (b[0], a[0])
    if not lo0 <= x[0] <= hi0:
        return False
    lo1, hi1 = (a[1], b[1]) if a[1] <= b[1] else (b[1], a[1])
    if not lo1 <= x[1] <= hi1:
        return False
    return frac_orient(a, b, x) == 0


def frac_segment_intersection(s, t) -> Tuple[str, Optional[tuple], Optional[tuple]]:
    """(kind, point, segment) of two segments: kind as in geometry.tr_segment_meet,
    point set for "point"/"shared_endpoint", segment for "overlap"."""
    a, b = s
    x, y = t
    o1 = frac_orient(a, b, x)
    o2 = frac_orient(a, b, y)
    o3 = frac_orient(x, y, a)
    o4 = frac_orient(x, y, b)

    if o1 == 0 and o2 == 0 and o3 == 0 and o4 == 0:
        # collinear: order along the line by a dot product with the direction
        d = _sub(b, a)
        if d == (0, 0):
            raise ValueError("degenerate segment")
        lo_s, hi_s = sorted((a, b), key=lambda p: (_dot(p, d), p))
        lo_t, hi_t = sorted((x, y), key=lambda p: (_dot(p, d), p))
        lo = max(lo_s, lo_t, key=lambda p: (_dot(p, d), p))
        hi = min(hi_s, hi_t, key=lambda p: (_dot(p, d), p))
        if _dot(lo, d) > _dot(hi, d):
            return ("disjoint", None, None)
        if lo == hi:
            return ("shared_endpoint", lo, None)
        return ("overlap", None, (lo, hi))

    if o1 * o2 > 0 or o3 * o4 > 0:
        return ("disjoint", None, None)

    # transversal (possibly at endpoints); supporting lines are not parallel
    r = _sub(b, a)
    sv = _sub(y, x)
    t_par = Fraction(_cross(_sub(x, a), sv), 1) / _cross(r, sv)
    p = (a[0] + t_par * r[0], a[1] + t_par * r[1])
    if not (frac_on_segment(p, a, b) and frac_on_segment(p, x, y)):
        return ("disjoint", None, None)
    if p in (a, b) and p in (x, y):
        return ("shared_endpoint", p, None)
    return ("point", p, None)


def frac_point_in_triangle(x, a, b, c) -> str:
    w = frac_orient(a, b, c)
    if w == 0:
        if frac_on_segment(x, a, b) or frac_on_segment(x, b, c) or frac_on_segment(x, a, c):
            return "boundary"
        return "outside"
    s1 = frac_orient(a, b, x) * w
    s2 = frac_orient(b, c, x) * w
    s3 = frac_orient(c, a, x) * w
    if s1 < 0 or s2 < 0 or s3 < 0:
        return "outside"
    if s1 == 0 or s2 == 0 or s3 == 0:
        return "boundary"
    return "inside"


def frac_winding_number(polyline, point) -> int:
    """Crossings of the upward vertical ray from the point, half-open in x;
    raises ValueError if the polyline passes through the point."""
    ax, ay = point[0], point[1]
    total = 0
    n = len(polyline)
    closed = polyline[0] == polyline[-1]
    m = n - 1 if closed else n
    for idx in range(m):
        p = polyline[idx]
        q = polyline[(idx + 1) % n]
        if p == q:
            continue
        if frac_on_segment(point, p, q):
            raise ValueError("point lies on the polyline")
        if p[0] <= ax < q[0]:
            sign = -1
        elif q[0] <= ax < p[0]:
            sign = 1
        else:
            continue
        y_at = p[1] + (q[1] - p[1]) * Fraction(ax - p[0], 1) / (q[0] - p[0])
        if y_at > ay:
            total += sign
    return total


def frac_loop_word(polyline, anchors) -> Tuple[int, ...]:
    """Freely reduced signed crossing word of a closed polyline against the
    anchors' upward rays; crossings on one segment are ordered by their
    parameter along it, exact ties by the per-anchor nudge."""
    pts = list(polyline)
    if pts and pts[0] != pts[-1]:
        pts.append(pts[0])
    letters: List[int] = []
    for p, q in zip(pts, pts[1:]):
        if p == q:
            continue
        rightward = q[0] > p[0]
        hits = []
        for idx, a in enumerate(anchors):
            if frac_on_segment(a, p, q):
                raise ValueError("polyline passes through an anchor")
            if p[0] <= a[0] < q[0]:
                sign = -1
            elif q[0] <= a[0] < p[0]:
                sign = 1
            else:
                continue
            t = Fraction(a[0] - p[0], 1) / (q[0] - p[0])
            if p[1] + (q[1] - p[1]) * t > a[1]:
                hits.append((t, idx if rightward else -idx, sign * (idx + 1)))
        letters.extend(letter for _, _, letter in sorted(hits))
    return _free_reduce(letters)


def _segment_hits_triangle(p, q, a, b, c) -> bool:
    if frac_point_in_triangle(p, a, b, c) != "outside":
        return True
    if frac_point_in_triangle(q, a, b, c) != "outside":
        return True
    for e in ((a, b), (b, c), (a, c)):
        if frac_segment_intersection((p, q), e)[0] != "disjoint":
            return True
    return False


def cells_intersect(cell_a, cell_b) -> bool:
    """Do the convex hulls of two simplex vertex lists (0/1/2-dim) meet?

    Cells are given by 1, 2, or 3 points in the plane.  Exact.
    """
    if len(cell_a) > len(cell_b):
        cell_a, cell_b = cell_b, cell_a
    na, nb = len(cell_a), len(cell_b)
    if na == 1 and nb == 1:
        return cell_a[0] == cell_b[0]
    if na == 1 and nb == 2:
        return frac_on_segment(cell_a[0], *cell_b)
    if na == 1 and nb == 3:
        return frac_point_in_triangle(cell_a[0], *cell_b) != "outside"
    if na == 2 and nb == 2:
        return frac_segment_intersection(tuple(cell_a), tuple(cell_b))[0] != "disjoint"
    if na == 2 and nb == 3:
        return _segment_hits_triangle(cell_a[0], cell_a[1], *cell_b)
    if na == 3 and nb == 3:
        for x in cell_a:
            if frac_point_in_triangle(x, *cell_b) != "outside":
                return True
        for x in cell_b:
            if frac_point_in_triangle(x, *cell_a) != "outside":
                return True
        ea = [(cell_a[0], cell_a[1]), (cell_a[1], cell_a[2]), (cell_a[0], cell_a[2])]
        eb = [(cell_b[0], cell_b[1]), (cell_b[1], cell_b[2]), (cell_b[0], cell_b[2])]
        return any(
            frac_segment_intersection(u, v)[0] != "disjoint" for u in ea for v in eb
        )
    raise ValueError("cells must have 1, 2, or 3 vertices")


def _twice_area(ring) -> Fraction:
    return sum(
        (p[0] * q[1] - q[0] * p[1] for p, q in zip(ring, ring[1:] + ring[:1])),
        Fraction(0),
    )


def frac_face_witness(s, face):
    """The witness of a bounded shadow face by the global rule: shrink from
    the first dart's midpoint toward its left, mid + rot90(h - t) / 4^(k+1),
    and take the first candidate that is no shadow vertex, on no shadow
    edge, inside the face's ring and outside every other face's ring of no
    larger area.  Fractions throughout; None if none of 200 passes."""
    ring = [s.points[v] for v in face.vertex_ids]
    area = _twice_area(ring)
    smaller = [
        [s.points[v] for v in f.vertex_ids]
        for f in s.faces
        if f is not face and _twice_area([s.points[v] for v in f.vertex_ids]) <= area
    ]
    t, h = ring[0], ring[1]
    mid = ((t[0] + h[0]) / 2, (t[1] + h[1]) / 2)
    left = (t[1] - h[1], h[0] - t[0])
    for k in range(200):
        step = Fraction(1, 4 ** (k + 1))
        cand = (mid[0] + left[0] * step, mid[1] + left[1] * step)
        if cand in s.points:
            continue
        if any(frac_on_segment(cand, s.points[e.u], s.points[e.v]) for e in s.edges):
            continue
        if frac_winding_number(ring, cand) == 0:
            continue
        if all(frac_winding_number(other, cand) == 0 for other in smaller):
            return cand
    return None


def frac_arrangement(c):
    """The shadow arrangement by all-pairs loops on Fraction points: every
    pair of edges, every vertex against every edge.  Returns the points in
    lexicographic order and the edges as (u, v, provenance) triples, each
    provenance the sorted tuple of the edge indices."""
    pts = [tuple(Fraction(x) for x in p) for p in c.coords]
    edges = list(c.edges)
    splits = [{pts[i], pts[j]} for i, j in edges]
    for a, b in combinations(range(len(edges)), 2):
        ends_a = (pts[edges[a][0]], pts[edges[a][1]])
        ends_b = (pts[edges[b][0]], pts[edges[b][1]])
        kind, point, segment = frac_segment_intersection(ends_a, ends_b)
        meet = segment if kind == "overlap" else (point,) if point else ()
        splits[a].update(meet)
        splits[b].update(meet)
    for v, p in enumerate(pts):
        for a, (i, j) in enumerate(edges):
            if v not in (i, j) and frac_on_segment(p, pts[i], pts[j]):
                splits[a].add(p)
    points = sorted(set(pts).union(*splits))
    pid = {p: k for k, p in enumerate(points)}
    pieces: Dict[Tuple[int, int], set] = {}
    for a, split in enumerate(splits):
        ids = sorted(pid[p] for p in split)
        for u, w in zip(ids, ids[1:]):
            pieces.setdefault((u, w), set()).add(a)
    return (
        tuple(points),
        tuple((u, w, tuple(sorted(pieces[(u, w)]))) for u, w in sorted(pieces)),
    )


def frac_covered(c, point) -> bool:
    """Is the point in some triangle of c?  Tests every triangle."""
    return any(
        frac_point_in_triangle(point, *(c.coords[v] for v in t)) != "outside"
        for t in c.k_simplices(2)
    )


# ---------------------------------------------------------------------------
# free-group words over the hole alphabet
# ---------------------------------------------------------------------------


def _free_reduce(letters) -> Tuple[int, ...]:
    out: List[int] = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def word_inverse(word) -> Tuple[int, ...]:
    return tuple(-x for x in reversed(word))


def word_concat(a, b) -> Tuple[int, ...]:
    return _free_reduce(tuple(a) + tuple(b))


def cyclic_reduce(word) -> Tuple[int, ...]:
    w = list(_free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def abelianization(word: Sequence[int], n_letters: int) -> Tuple[int, ...]:
    counts = [0] * n_letters
    for letter in word:
        counts[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(counts)


# ---------------------------------------------------------------------------
# simplex queries on a SimplicialComplex
# ---------------------------------------------------------------------------


def has_simplex(c, simplex) -> bool:
    s = tuple(sorted(simplex))
    return s in set(c.k_simplices(len(s) - 1))


def euler_characteristic(c) -> int:
    return sum((-1) ** k * len(level) for k, level in enumerate(c.simplices))


# ---------------------------------------------------------------------------
# checks on package objects that only tests call
# ---------------------------------------------------------------------------


class NonFlagError(ValueError):
    pass


def verify_chain_property(c) -> bool:
    """Exactly check boundary-of-boundary = 0 in every materialized degree."""
    for k in range(2, len(c.simplices)):
        dk = boundary_matrix(c, k)
        dk1 = boundary_matrix(c, k - 1)
        for col in dk:
            acc: Dict[int, int] = {}
            for r, v in col.items():
                for r2, v2 in dk1[r].items():
                    acc[r2] = acc.get(r2, 0) + v * v2
            if any(val != 0 for val in acc.values()):
                return False
    return True


def build_cech_1d(points, eps, dim_cap: int = 3):
    """Cech complex of 1-D points: a simplex iff the subset spans at most eps.

    Implemented by direct window enumeration (max - min <= eps), independent
    of the clique machinery, so it can cross-check build_rips in 1-D.
    """
    if any(len(p) != 1 for p in points):
        raise ValueError("build_cech_1d requires 1-dimensional points")
    for i, j in combinations(range(len(points)), 2):
        if Fraction(points[i][0]) == Fraction(points[j][0]):
            raise ValueError(f"points {i} and {j} coincide; distinct points required")
    eps = Fraction(eps)
    n = len(points)
    order = sorted(range(n), key=lambda i: points[i][0])
    levels: List[set] = [set((i,) for i in range(n))] + [set() for _ in range(dim_cap)]
    # every valid simplex lies in the maximal window starting at its minimum
    for a in range(n):
        b = a
        while b + 1 < n and points[order[b + 1]][0] - points[order[a]][0] <= eps:
            b += 1
        window = [order[i] for i in range(a + 1, b + 1)]
        for size in range(1, min(len(window), dim_cap) + 1):
            for rest in combinations(window, size):
                levels[size].add(tuple(sorted((order[a],) + rest)))
    # stored level by level, so no clique of the package's is listed
    out = tuple(tuple(sorted(level)) for level in levels)
    return SimplicialComplex(n, out, dim_cap, False, tuple(points), "cech1d")


def explicit_copy(c: SimplicialComplex) -> SimplicialComplex:
    """c as an explicit complex carrying every level: its own core."""
    return SimplicialComplex(c.n_vertices, c.simplices, c.dim_cap, False, c.coords, c.provenance)


def cone_apex(c) -> Optional[int]:
    """Smallest vertex adjacent to every other vertex, or None.

    For a flag complex this is exactly the cone condition: a maximal clique
    missing such a vertex could be extended by it.
    """
    if not c.flag:
        raise NonFlagError("cone_apex is only meaningful on flag complexes")
    verts = c.vertices
    if len(verts) == 1:
        return verts[0]
    adj = c.adjacency()
    want = len(verts) - 1
    for v in verts:
        if len(adj[v]) == want:
            return v
    return None


class ContainmentError(ValueError):
    pass


def filtration_h1(chain: Sequence[SimplicialComplex]) -> Tuple[Tuple[int, ...], int]:
    """b1 over Q of each complex of a nested chain K_0 c ... c K_m, and the
    rank of H1(K_0) -> H1(K_m), by `homology._reduce_filtration`: the chain
    is checked, and each edge and triangle tagged with the first complex
    holding it.  The pair analysis tags its births as it links its pairs;
    this front end lets the tests hand the reduction any chain."""
    for sub, sup in zip(chain, chain[1:]):
        for k in range(len(sub.simplices)):
            sup_level = set(sup.k_simplices(k))
            for s in sub.k_simplices(k):
                if s not in sup_level:
                    raise ContainmentError(f"simplex {s} of sub missing from sup")
    top = chain[-1]
    if top.dim_cap < 2:
        raise InsufficientDimCap("sup needs its 2-skeleton materialized")
    birth: Dict[Simplex, int] = {}
    for i in range(len(chain) - 1, -1, -1):
        birth.update(dict.fromkeys(chain[i].edges + chain[i].k_simplices(2), i))
    return _reduce_filtration(
        top, [birth[e] for e in top.edges], [birth[t] for t in top.k_simplices(2)], len(chain)
    )


def oracle_pair_report(points, lower, upper, dim_cap: int = 3) -> PairReport:
    """`pair_image_analysis` composed from single-complex functions, one
    proximity pass per complex: both quasi complexes, the midpoint Rips
    complex and the forced Rips complex at the lower eps.  The image rank
    comes from the dense cycle-basis route, `oracle_induced_h1_rank`.

    Links are decided by `frac_pair_bands`, not by the package's band rule,
    so a change to that rule shows here as well.
    """
    (li, lp), (ui, up) = lower, upper
    if li.eps_prime > ui.eps:
        raise ValueError("uncertainty intervals overlap")

    def complex_at(lo, hi, policy, cap, provenance):
        bands = frac_pair_bands(points, lo, hi)
        forced = [(i, j) for i, j, band, _ in bands if band == 0]
        picks = policy.select([(i, j) for i, j, band, _ in bands if band == 1])
        return flag_complex(len(points), forced + picks, cap, points, provenance)

    low = complex_at(li.eps, li.eps_prime, lp, dim_cap, "quasi")
    high = complex_at(ui.eps, ui.eps_prime, up, dim_cap, "quasi")
    rank = oracle_induced_h1_rank(low, high)
    mid_eps = (li.eps_prime + ui.eps) / 2
    mid = complex_at(mid_eps, mid_eps, EdgePolicy.none(), dim_cap, "rips")
    mid_b1 = betti_numbers(mid, 1).q[1]
    shadow_mid = None
    if all(len(p) == 2 for p in points):
        shadow_mid = shadow_betti(build_shadow(mid))
    forced_only = complex_at(li.eps, li.eps, EdgePolicy.none(), 1, "rips")
    return PairReport(
        image_rank=rank,
        mid_eps=mid_eps,
        mid_b1=mid_b1,
        bound_ok=rank <= mid_b1,
        lower_b1=betti_numbers(low, 1).q[1],
        upper_b1=betti_numbers(high, 1).q[1],
        lower_forced_components=forced_only.n_components,
        shadow_mid_betti=shadow_mid,
    )


def is_null_homologous(loop, c, s) -> bool:
    """Weaker necessary condition: the abelianized hole word vanishes.

    Commutator loops are null-homologous without being contractible; use
    is_contractible for the full decision.
    """
    if not loop.closed:
        raise LiftError("loop must be closed")
    anchors = hole_anchors(s)
    word = loop_word([c.coords[v] for v in loop.vertices], anchors)
    return all(x == 0 for x in abelianization(word.letters, len(anchors)))
