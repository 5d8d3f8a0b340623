"""Exact planar shadow complexes: arrangement, faces, coverage, holes, SVG.

The shadow of a planar complex is the image of its 2-skeleton.  We build the
exact arrangement of the projected edges (crossings, T-junctions, collinear
overlaps all split exactly), trace its faces by half-edge walking with exact
angular order, and mark each bounded face covered or uncovered by testing an
exact interior witness against the projected triangles.  A face is its
boundary walk plus its holes, the outer walks of the components it holds
directly, and a witness must lie inside the walk, outside every hole and
on none of their segments.

The arrangement holds every edge, or with `boundary_only` only the edges
that can carry a point of the shadow's boundary; the pair analysis
certifies its midpoint complex on that one.  An edge is interior when the
side tables (below) hold a non-degenerate triangle on both its left and
its right: the two cover a neighbourhood of its open segment.  A vertex
whose edges are all interior is surrounded by its triangles, so it is an
interior point too.  The boundary arrangement drops both, keeping the
vertices that touch a kept edge or have no edge at all.  Every boundary
point of the shadow then lies on a kept edge or vertex, so each face of
the partial arrangement lies wholly inside or wholly outside the shadow,
and its witness decides it as on the full one.  The zero-length edge check
still covers every edge, and the grid side (below) every edge too.

Components can nest in a face: an edge drawn inside a triangle of an
explicit complex, or the inner rim of an annulus in its boundary
arrangement.  One rule finds each component's parent, the face that holds
it directly, before any witness is sought.  A component's
lexicographically least vertex lies on its outer walk.  It is screened
against the other components' outer walks, so a component nested in
nothing costs one pass over them; otherwise its parent is the smallest
bounded walk winding around that vertex.  A face's holes are the outer
walks of the components it is parent of, an isolated vertex being a
one-point hole, the zero-length segment on it.  The parents give both the
holes of each face and the shadow's b0: a component whose parent is covered
joins the one around it, so b0 is C - N_cov, with C the components of the
arrangement and N_cov those with a covered parent; b1 is the uncovered
face count, and the Euler cross-check b1 = C - V + E - F_cov holds either
way.  The full arrangement of a Rips complex has N_cov = 0: a triangle
holding the covered points next to a component's least vertex holds that
vertex, and its sides, at most eps, then link the triangle into that
component.

Arrangement vertices are integer triples of the `geometry` kernel, built on
the complex's integer view `SimplicialComplex.scaled`, its coordinates
rescaled once by `geometry.scale_points` (which converts only scalars other
than int and Fraction) and shared with the lifts.  Vertex ids and face
order follow the lexicographic order of the points and witnesses, and the
darts at a vertex go counterclockwise from +x: plain sorts on exact integer
keys, a point (X, Y, D) by ((X << s) // D, (Y << s) // D) with
2**s > max(D)**2, a dart by its diamond angle scaled alike
(`geometry._lex_keys`, `_angle_keys`).

A `ShadowComplex` keeps those triples and the one `scale` of that view,
and a `ShadowFace` its witness triple; a triple over the scale is the
rational point.  `ShadowComplex.points` and `ShadowComplex.witness(f)` are
views that build the rational points only when read, so the counts, Betti
numbers and coverage flags never build a `Fraction`.  The shadow keeps no
copy of its source complex: a `ShadowEdge`'s provenance is the ascending
tuple of indices into the complex's `edges`, whose `coords` give the source
points, and the lifts read both from the complex they are given.

Edge pairs and vertices against edges are tested only where they share a
cell of one uniform grid, whose side is the largest |dx| or |dy| of any edge
(at most eps for a Rips complex).  Each edge is filed under every cell its
closed bounding box meets, a point under the one cell that holds it.
Nothing is lost: two closed sets that meet share a point, and since floor
division is monotone, that point's cell lies in the cell range of both
boxes.  The grid only picks candidates; the kernel decides every predicate
exactly, and every point location is one `geometry.tr_locate` pass: a
vertex against an edge's one-segment ring (None: it lies on the edge), a
witness candidate against its face's walk plus holes (1: it is in the
face), and a witness against a triangle's three-segment ring (nonzero: the
triangle holds it).

Cheaper exact tests settle most candidates first.  Edges whose integer
bounding boxes are apart cannot meet.  Edges sharing a vertex meet only
there, or overlap up to the nearer other endpoint, a vertex the T-junction
scan adds; so neither pair goes to the kernel.  The crossing scan keeps one
record per edge, its box and its endpoints' indices and triples, so both
screens are plain integer compares.  A vertex goes to the kernel
only against the edges whose box holds it.

A face's witness candidates are unreduced integer triples: the kernel
takes any D > 0, so each is tested as it is, in one pass over the face's
walk (winding +1 around a point inside it) and its holes (-1 each), which
gives 1 exactly in the face: a point inside a hole's own nested component
is inside the hole too.  That one test also keeps every shadow vertex out:
a vertex on or inside the face's walk lies on the walk, on a hole or inside
one, where the pass gives None or 0.  The witness is the first candidate
that passes, reduced.

A witness is covered iff some triangle holds it.  Each witness of a face
is first tested against an inward triangle: a triangle on the Rips edge
under a dart of the face's ring, with its third vertex left of the dart,
taken at the first dart that has one.  The second witness sits by the last
dart, so it then tries the triangle at the last dart that has one.  On the
full arrangement an inward triangle's sides are unions of arrangement
edges, which no face crosses, and the face lies left of the dart, inside
it; so it holds the whole face.  On the boundary arrangement it is only a first try, as a
face there can span many triangles.  Side tables give it without a
search: each triangle is filed once under each of its three Rips edges
i < j, on the left or right of i -> j as its third vertex lies (a
collinear triangle on neither), and one orientation per triangle decides
all three.  The dart runs along i -> j iff it runs the same way in
lexicographic order, so the first triangle on the dart's side of a
provenance edge is the inward one.  A witness it does not hold, or of
a face without one, goes to the complete search: each triangle's ring is
filed only under the cell of its first vertex, the one of lowest index, and
the rings filed in the 3 x 3 cells around the witness's cell are tested.
That search is exact: the side bounds every edge's |dx| and |dy|, so each
vertex of a triangle holding w lies within one side of w in x and in y,
and floor division puts it in w's cell or a cell next to it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .complexes import SimplicialComplex, component_counts
from .errors import ConsistencyError
from .geometry import (
    Point,
    Triple,
    _angle_keys,
    _lex_keys,
    from_triple,
    tr_locate,
    tr_orient,
    tr_reduce,
    tr_segment_meet,
)

F = Fraction


class ShadowEdge(NamedTuple):
    u: int  # shadow vertex ids, u < v
    v: int
    provenance: Tuple[int, ...]  # ascending indices into c.edges of the edges holding it


class ShadowFace(NamedTuple):
    edge_ids: Tuple[int, ...]  # boundary walk, face on the left (CCW)
    vertex_ids: Tuple[int, ...]  # walk tails, same order and length
    witness_triple: Triple  # interior point on the complex's integer scale
    covered: bool


@dataclass(frozen=True)
class ShadowComplex:
    triples: Tuple[Triple, ...]  # shadow vertices, kernel triples on the integer scale
    scale: int  # the complex's `scaled` scale: a triple over it is the source point
    edges: Tuple[ShadowEdge, ...]
    faces: Tuple[ShadowFace, ...]  # bounded faces only
    n_components: int  # components of the 1-skeleton, isolated vertices included
    n_unbounded_walks: int  # one per component with edges; the outer face
    n_nested_covered: int  # components whose parent, the face holding them, is covered

    @functools.cached_property
    def points(self) -> Tuple[Point, ...]:
        """Shadow vertex coordinates as rational points, built on first read."""
        return tuple(from_triple(p, self.scale) for p in self.triples)

    def witness(self, f: ShadowFace) -> Point:
        """A face's witness as a rational point, built on each read."""
        return from_triple(f.witness_triple, self.scale)

    def covered_faces(self) -> Tuple[ShadowFace, ...]:
        return tuple(f for f in self.faces if f.covered)


class ShadowError(ValueError):
    pass


def _cell(t: Triple, side: int) -> Tuple[int, int]:
    """The grid cell of the point t: floor of its coordinates over side."""
    k = t[2] * side
    return (t[0] // k, t[1] // k)


def _grid_holds(w: Triple, tris_in: Dict[Tuple[int, int], List[Tuple]], side: int) -> bool:
    """Does some triangle hold the point w?  tris_in files each triangle's
    ring, with its integer bounding box, under the cell of its vertex of
    lowest index.  Every vertex of a triangle that holds w lies within side
    of w in x and in y, so in one of the 3 x 3 cells around w's."""
    cx, cy = _cell(w, side)
    x, y, d = w
    return any(
        tr_locate(ring, w) != 0
        for cell in [(cx + i, cy + j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
        for x0, x1, y0, y1, ring in tris_in.get(cell, ())
        if x0 * d <= x <= x1 * d and y0 * d <= y <= y1 * d
    )


def build_shadow(c: SimplicialComplex, *, boundary_only: bool = False) -> ShadowComplex:
    """Exact shadow complex of a planar complex with materialized 2-skeleton.

    Each component's parent face is found once and read twice: by the
    witnesses, as the face's holes, and by n_nested_covered.

    With boundary_only the arrangement holds only the edges that are not
    interior and the vertices that touch one or have no edge (module
    docstring).  Its Betti numbers are still the shadow's, but its vertices,
    edges and faces are those of that partial arrangement: the report, the
    SVG and the lifts need the full one.
    """
    if c.coords is None or any(len(p) != 2 for p in c.coords):
        raise ShadowError("build_shadow needs 2-dimensional coordinates")
    if c.dim_cap < 2:
        raise ShadowError("2-skeleton must be materialized (dim_cap >= 2)")
    coords, scale = c.scaled
    tcoords: List[Triple] = [(x, y, 1) for x, y in coords]
    rips_edges = c.edges
    for i, j in rips_edges:
        if coords[i] == coords[j]:
            raise ShadowError(f"degenerate zero-length edge {(i, j)}")

    # -- side tables: sides[0][i, j] and sides[1][i, j] are the third vertex
    # of the first triangle left and right of Rips edge i -> j, i < j.  A
    # triangle p < q < r has r and p on the side of p -> q and q -> r that its
    # orientation gives, and q on the other side of p -> r.
    triangles = c.k_simplices(2)
    sides: Tuple[Dict[Tuple[int, int], int], ...] = ({}, {})
    for p, q, r in triangles:
        o = tr_orient(tcoords[p], tcoords[q], tcoords[r])
        if o:
            left, right = sides if o > 0 else sides[::-1]
            left.setdefault((p, q), r)
            right.setdefault((p, r), q)
            left.setdefault((q, r), p)
    # the edges and vertices arranged
    keep = [True] * len(rips_edges)
    vertices: Sequence[int] = range(len(tcoords))
    if boundary_only:
        # an edge with a triangle on both sides is interior, and so is a
        # vertex whose every edge is
        keep = [e not in sides[0] or e not in sides[1] for e in rips_edges]
        ends = {v for e, k in zip(rips_edges, keep) if k for v in e}
        inner = {v for e in rips_edges for v in e} - ends
        vertices = [v for v in vertices if v not in inner]

    # -- one uniform grid: cell side the largest |dx| or |dy| of any edge --
    # (kept or not, so that it bounds the triangles' sides too); each edge's
    # integer bounding box, and the cells a kept edge meets (D = 1 here)
    boxes = [
        (min(coords[i][0], coords[j][0]), max(coords[i][0], coords[j][0]),
         min(coords[i][1], coords[j][1]), max(coords[i][1], coords[j][1]))
        for i, j in rips_edges
    ]
    side = max((max(x1 - x0, y1 - y0) for x0, x1, y0, y1 in boxes), default=1)
    edge_cells = [
        [(cx, cy) for cx in range(x0 // side, x1 // side + 1)
         for cy in range(y0 // side, y1 // side + 1)] if k else []
        for (x0, x1, y0, y1), k in zip(boxes, keep)
    ]
    edges_in: Dict[Tuple[int, int], List[int]] = {}
    for a, cells in enumerate(edge_cells):
        for cell in cells:
            edges_in.setdefault(cell, []).append(a)

    # -- split every projected edge at crossings, junctions, overlaps --
    # Pairs sharing a vertex meet only there, or overlap up to the nearer
    # other endpoint, which is a vertex on the other edge: the T-junction
    # scan adds it.
    splits: List[Set[Triple]] = [
        {tcoords[i], tcoords[j]} if k else set() for (i, j), k in zip(rips_edges, keep)
    ]
    # one record per edge: its box, its endpoints' indices and triples
    records = [(*box, i, j, tcoords[i], tcoords[j]) for box, (i, j) in zip(boxes, rips_edges)]
    for a, cells in enumerate(edge_cells):
        x0, x1, y0, y1, i, j, ta, ha = records[a]
        for b in {b for cell in cells for b in edges_in[cell] if b > a}:
            bx0, bx1, by0, by1, k, m, tb, hb = records[b]
            if (bx1 < x0 or x1 < bx0 or by1 < y0 or y1 < by0
                    or i == k or i == m or j == k or j == m):
                continue
            kind, meet = tr_segment_meet(ta, ha, tb, hb)
            if kind == "disjoint":
                continue
            splits[a].update(meet)
            splits[b].update(meet)
    for v in vertices:
        tv, (x, y) = tcoords[v], coords[v]
        for a in edges_in.get(_cell(tv, side), ()):
            i, j = rips_edges[a]
            x0, x1, y0, y1 = boxes[a]
            if (x0 <= x <= x1 and y0 <= y <= y1 and v not in (i, j)
                    and tr_locate(((tcoords[i], tcoords[j]),), tv) is None):
                splits[a].add(tv)

    # -- shadow vertices: deterministic ids in lexicographic point order --
    all_points = list({tcoords[v] for v in vertices}.union(*splits))
    spoints = [p for _, p in sorted(zip(_lex_keys(all_points), all_points))]
    pid = {p: idx for idx, p in enumerate(spoints)}

    # -- shadow edges with multi-edge provenance --
    # Ids follow lexicographic point order, which runs monotonically along
    # any one segment, so consecutive ids are consecutive split points.
    # Each edge a meets a piece once, in ascending a: provenance ascends.
    edge_prov: Dict[Tuple[int, int], List[int]] = {}
    for a, split in enumerate(splits):
        ids = sorted([pid[p] for p in split])
        for key in zip(ids, ids[1:]):
            edge_prov.setdefault(key, []).append(a)
    sedges = tuple(
        ShadowEdge(u, v, tuple(edge_prov[(u, v)])) for u, v in sorted(edge_prov)
    )

    # -- connected components of the 1-skeleton (isolated vertices count) --
    n_components = component_counts(range(len(spoints)), [edge_prov])[0]

    # -- per-dart tables: dart 2e runs u -> v along edge e, dart 2e + 1 back --
    # Around each vertex its outgoing darts sorted CCW; a walk leaves the
    # head of dart d by the CCW-predecessor of d's reversal there.
    n_darts = 2 * len(sedges)
    tail = [0] * n_darts
    dirs: List[Tuple[int, int]] = [(0, 0)] * n_darts
    out_at: List[List[int]] = [[] for _ in spoints]
    for eid, e in enumerate(sedges):
        t, h = spoints[e.u], spoints[e.v]
        dx, dy = h[0] * t[2] - t[0] * h[2], h[1] * t[2] - t[1] * h[2]
        tail[2 * eid], tail[2 * eid + 1] = e.u, e.v
        dirs[2 * eid], dirs[2 * eid + 1] = (dx, dy), (-dx, -dy)
        out_at[e.u].append(2 * eid)
        out_at[e.v].append(2 * eid + 1)
    nxt = [0] * n_darts
    angles = _angle_keys(dirs)
    for darts in out_at:
        darts.sort(key=angles.__getitem__)
        for k, d in enumerate(darts):
            nxt[d ^ 1] = darts[k - 1]

    # each walk: its darts, twice its signed area as (numerator, denominator),
    # and its closed ring of segments for winding tests (segment k runs along
    # dart k, tail to head); the area puts every point over the lcm of the
    # ring's D once
    walks: List[Tuple[List[int], Tuple[int, int], List]] = []
    seen = bytearray(n_darts)
    for start in range(n_darts):
        if seen[start]:
            continue
        darts = []
        d = start
        while not seen[d]:
            seen[d] = 1
            darts.append(d)
            d = nxt[d]
        pts = [spoints[tail[d]] for d in darts]
        den = math.lcm(*[p[2] for p in pts])
        ring = []
        num = 0
        p = pts[0]
        px, py = p[0] * (den // p[2]), p[1] * (den // p[2])
        for q in pts[1:] + pts[:1]:
            k = den // q[2]
            qx, qy = q[0] * k, q[1] * k
            ring.append((p, q))
            num += px * qy - qx * py
            p, px, py = q, qx, qy
        walks.append((darts, (num, den * den), ring))

    positive = [w for w in walks if w[1][0] > 0]
    expected = len(edge_prov) - len(spoints) + n_components
    if len(positive) != expected:
        raise ConsistencyError(
            f"face tracer found {len(positive)} bounded walks, expected {expected}"
        )

    # -- each component's parent: the bounded face it lies in directly --
    # A component's least vertex (ids follow lexicographic order) lies on
    # its outer walk, so no ring of its own winds around it.  A component
    # nested in no other's outer walk lies in the unbounded face; any other
    # in the smallest bounded walk winding around its least vertex, and its
    # outer walk (one per component with edges) is a hole of that face.
    outer = [(darts, ring) for darts, (num, _), ring in walks if num <= 0]
    parents: List[int] = []
    holes: List[List] = [[] for _ in positive]
    if n_components > 1:  # a lone component nests in nothing
        comps = [(min(tail[d] for d in darts), ring) for darts, ring in outer]
        # an isolated vertex is a one-point hole: tr_locate is None on it
        comps += [(v, [(spoints[v], spoints[v])]) for v, darts in enumerate(out_at) if not darts]
        for v, hole in comps:
            tv = spoints[v]
            if not any(tr_locate(r, tv) for _, r in outer):
                continue
            parent = None
            for k, (_, (num, den), ring) in enumerate(positive):
                if tr_locate(ring, tv) and (parent is None or num * pden < pnum * den):
                    parent, pnum, pden = k, num, den
            parents.append(parent)
            holes[parent] += hole

    # -- witnesses and coverage --
    # Candidates shrink toward a boundary-edge midpoint on the face side;
    # each is an exact integer triple, reduced only when accepted.
    def witness(d: int, seg: Tuple[Triple, Triple], bounds: List) -> Triple:
        t, h = seg
        dirv = dirs[d]
        normal = (-dirv[1], dirv[0])  # left of the dart
        dd = t[2] * h[2]
        midx, midy = t[0] * h[2] + h[0] * t[2], t[1] * h[2] + h[1] * t[2]
        s_shift = 2
        for _ in range(200):
            cand = (midx * s_shift + normal[0], midy * s_shift + normal[1], 2 * dd * s_shift)
            s_shift *= 4
            # 1 in the face; 0 outside it or in a hole, None on a segment
            if tr_locate(bounds, cand):
                return tr_reduce(*cand)
        raise ConsistencyError("no interior witness found for a bounded face")

    # A witness is covered iff some triangle holds it.  The inward triangle,
    # read off the side tables, is tried first (module docstring); the rest
    # go to the grid search over each triangle's first vertex.  upward[a]:
    # does Rips edge a run up in lexicographic order, as the even darts do?
    upward = [coords[i] < coords[j] for i, j in rips_edges]

    @functools.cache  # filed once, on the first witness no inward triangle holds
    def tris_in() -> Dict[Tuple[int, int], List[Tuple]]:
        grid: Dict[Tuple[int, int], List[Tuple]] = {}
        for i, j, k in triangles:
            p, q, r = tcoords[i], tcoords[j], tcoords[k]
            xs, ys = (p[0], q[0], r[0]), (p[1], q[1], r[1])
            box = (min(xs), max(xs), min(ys), max(ys), ((p, q), (q, r), (r, p)))
            grid.setdefault(_cell(p, side), []).append(box)
        return grid

    def inward_holds(darts: Iterable[int], w: Triple) -> bool:
        # does the inward triangle of the first dart that has one hold w?
        # The face lies left of each dart: left of i -> j when the dart runs
        # along it, right of it when the dart runs j -> i
        for d in darts:
            for a in sedges[d >> 1].provenance:
                i, j = rips_edges[a]
                v = sides[upward[a] == (d & 1)].get((i, j))  # index 1: runs j -> i
                if v is not None:
                    p, q, r = tcoords[i], tcoords[j], tcoords[v]
                    return tr_locate(((p, q), (q, r), (r, p)), w) != 0
        return False

    faces: List[ShadowFace] = []
    for (darts, _, ring), hole in zip(positive, holes):
        bounds = ring + hole
        w1 = witness(darts[0], ring[0], bounds)
        w2 = witness(darts[-1], ring[-1], bounds)
        # w2 sits by the last dart: its inward triangle is the second try
        cov1 = inward_holds(darts, w1) or _grid_holds(w1, tris_in(), side)
        cov2 = (inward_holds(darts, w2) or inward_holds(reversed(darts), w2)
                or _grid_holds(w2, tris_in(), side))
        if cov1 != cov2:
            raise ConsistencyError(
                "coverage flag depends on the witness; arrangement is inconsistent"
            )
        faces.append(ShadowFace(
            tuple([d >> 1 for d in darts]), tuple([tail[d] for d in darts]), w1, cov1
        ))
    # a component nested in a covered face joins the component around it
    n_nested_covered = sum(faces[k].covered for k in parents)

    # disjoint faces have distinct witnesses, so no two keys tie
    keys = _lex_keys([f.witness_triple for f in faces])
    faces = [f for _, f in sorted(zip(keys, faces))]

    return ShadowComplex(
        triples=tuple(spoints),
        scale=scale,
        edges=sedges,
        faces=tuple(faces),
        n_components=n_components,
        n_unbounded_walks=len(outer),
        n_nested_covered=n_nested_covered,
    )


def shadow_betti(s: ShadowComplex) -> Tuple[int, int]:
    """(b0, b1) of the shadow: its components, and holes.

    b0 is C - N_cov: the C components of the 1-skeleton, less the N_cov
    whose parent (the face holding them directly) is covered, which joins
    each to the component around it.
    b1 comes from the Euler formula C - V + E - F_cov and is cross-checked
    against the count of uncovered bounded faces; a mismatch would mean the
    arrangement itself is broken, so it raises.
    """
    f_cov = sum(1 for f in s.faces if f.covered)
    b1 = s.n_components - len(s.triples) + len(s.edges) - f_cov
    uncovered = sum(1 for f in s.faces if not f.covered)
    if b1 != uncovered:
        raise ConsistencyError(
            f"Euler b1={b1} disagrees with uncovered face count {uncovered}"
        )
    return (s.n_components - s.n_nested_covered, b1)


def hole_anchors(s: ShadowComplex) -> List[Point]:
    """One exact interior point per uncovered bounded face, in face order."""
    return [s.witness(f) for f in s.faces if not f.covered]


def _svg_num(x) -> str:
    return f"{float(x):.12g}"


def svg_view_box(points: Sequence[Point]) -> Tuple[Fraction, ...]:
    """The SVG's view box (x, y, width, height) in its flipped frame: the
    points' bounding box padded by a tenth of its larger side (at least
    1/10)."""
    xs = [p[0] for p in points] or [F(0)]
    ys = [p[1] for p in points] or [F(0)]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    pad = max(x1 - x0, y1 - y0, F(1)) / 10
    return (x0 - pad, -y1 - pad, x1 - x0 + 2 * pad, y1 - y0 + 2 * pad)


def render_svg(
    s: ShadowComplex,
    overlay: Optional[Sequence[Point]] = None,
) -> str:
    """Deterministic SVG 1.1 of the shadow: covered faces filled, edges
    stroked, uncovered faces hatched, hole anchors marked, optional overlay.

    All geometry was decided exactly upstream; coordinates are emitted as
    12-significant-digit decimals of the exact rationals.
    """
    box = svg_view_box([*s.points, *(overlay or ())])

    lines: List[str] = []
    lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{" ".join(_svg_num(v) for v in box)}">'
    )
    lines.append(
        "<defs><pattern id=\"hatch\" width=\"0.08\" height=\"0.08\" "
        "patternUnits=\"userSpaceOnUse\" patternTransform=\"rotate(45)\">"
        "<rect width=\"0.08\" height=\"0.08\" fill=\"#ffffff\"/>"
        "<line x1=\"0\" y1=\"0\" x2=\"0\" y2=\"0.08\" stroke=\"#b03030\" "
        "stroke-width=\"0.02\"/></pattern></defs>"
    )
    lines.append('<g transform="scale(1,-1)">')
    for f in s.faces:
        pts = " ".join(
            f"{_svg_num(s.points[v][0])},{_svg_num(s.points[v][1])}"
            for v in f.vertex_ids
        )
        kind, fill = ("covered", "#9ec9e8") if f.covered else ("uncovered", "url(#hatch)")
        lines.append(f'<polygon class="face-{kind}" points="{pts}" fill="{fill}" stroke="none"/>')
    for e in s.edges:
        p, q = s.points[e.u], s.points[e.v]
        lines.append(
            f'<line class="edge" x1="{_svg_num(p[0])}" y1="{_svg_num(p[1])}" '
            f'x2="{_svg_num(q[0])}" y2="{_svg_num(q[1])}" '
            f'stroke="#1a1a1a" stroke-width="0.02"/>'
        )
    for a in hole_anchors(s):
        lines.append(
            f'<circle class="anchor" cx="{_svg_num(a[0])}" cy="{_svg_num(a[1])}" '
            f'r="0.05" fill="#b03030"/>'
        )
    if overlay:
        pts = " ".join(f"{_svg_num(p[0])},{_svg_num(p[1])}" for p in overlay)
        lines.append(
            f'<polyline class="overlay" points="{pts}" fill="none" '
            f'stroke="#2a7a2a" stroke-width="0.035"/>'
        )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
