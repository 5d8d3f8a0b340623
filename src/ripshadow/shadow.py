"""Exact planar shadow complexes: arrangement, faces, coverage, holes, SVG.

The shadow of a planar complex is the image of its 2-skeleton.  We build the
exact arrangement of the projected edges (crossings, T-junctions, collinear
overlaps all split exactly), trace its faces by half-edge walking with exact
angular order, and mark each bounded face covered or uncovered by testing an
exact interior witness against the projected triangles.  A witness is
decided locally: it must lie inside the face's own ring, on none of its
segments, and outside (and off) the outer walk of every component that
could nest in the face, that is, every one enclosing less area.  Arrangement
vertices are integer triples of the `geometry` kernel, built on the source
coordinates rescaled once to integers by `scale_points` (which converts
only scalars other than int and Fraction).  Vertex ids and face order follow
the lexicographic order of the points and witnesses, and the darts at a
vertex go counterclockwise from +x: plain sorts on exact integer keys, a
point (X, Y, D) by ((X << s) // D, (Y << s) // D) with 2**s > max(D)**2, a
dart by its diamond angle scaled alike (`geometry._lex_keys`, `_angle_keys`).

A `ShadowComplex` keeps those triples and the one `scale` of `scale_points`,
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
exactly.

Cheaper exact tests settle most candidates first.  Edges whose integer
bounding boxes are apart cannot meet.  Edges sharing a vertex meet only
there, or overlap up to the nearer other endpoint, a vertex the T-junction
scan adds; so neither pair goes to the kernel.  A vertex goes to the kernel
only against the edges whose box holds it.

A witness is covered iff some triangle holds it.  Both witnesses of a face
are first tested against one inward triangle: a triangle on the Rips edge
under any dart of the face's ring, with its third vertex left of the dart.
Its sides are unions of arrangement edges, which no face crosses, and the
face lies left of the dart, inside it; so it holds the whole face.  A
witness it does not hold, or of a face without one, goes to the complete
search: each triangle is filed only under the cell of its first vertex, the
one of lowest index, and the triangles filed in the 3 x 3 cells around the
witness's cell are tested.  That search is exact: the side bounds every
edge's |dx| and |dy|, so each vertex of a triangle holding w lies within one
side of w in x and in y, and floor division puts it in w's cell or a cell
next to it.  Each ring a witness is tested against costs one `tr_locate`
pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .complexes import SimplicialComplex, graph_components
from .errors import ConsistencyError
from .geometry import (
    Point,
    Triple,
    _angle_keys,
    _lex_keys,
    cmp_frac,
    from_triple,
    scale_points,
    tr_locate,
    tr_on_segment,
    tr_orient,
    tr_point_in_triangle,
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
    scale: int  # from scale_points: a triple over this scale is the source point
    vertex_provenance: Tuple[Tuple, ...]  # ("original", i) | ("crossing", (e, f))
    edges: Tuple[ShadowEdge, ...]
    faces: Tuple[ShadowFace, ...]  # bounded faces only
    n_components: int  # components of the 1-skeleton, isolated vertices included
    n_unbounded_walks: int  # one per component with edges; the outer face

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
    """Does some triangle hold the point w?  tris_in files each triangle,
    with its integer bounding box, under the cell of tri[0], its vertex of
    lowest index.  Every vertex of a triangle that holds w lies within side
    of w in x and in y, so in one of the 3 x 3 cells around w's."""
    cx, cy = _cell(w, side)
    x, y, d = w
    return any(
        tr_point_in_triangle(w, *tri) != "outside"
        for cell in [(cx + i, cy + j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
        for x0, x1, y0, y1, tri in tris_in.get(cell, ())
        if x0 * d <= x <= x1 * d and y0 * d <= y <= y1 * d
    )


def _twice_area(ring: Sequence[Tuple[Triple, Triple]]) -> Tuple[int, int]:
    """Twice the signed area a closed ring encloses, as (numerator,
    denominator): every point is put over the lcm of the ring's D."""
    d = math.lcm(*(p[2] for p, _ in ring))
    num = sum((p[0] * q[1] - q[0] * p[1]) * (d // p[2]) * (d // q[2]) for p, q in ring)
    return num, d * d


def build_shadow(c: SimplicialComplex) -> ShadowComplex:
    """Exact shadow complex of a planar complex with materialized 2-skeleton."""
    if c.coords is None or any(len(p) != 2 for p in c.coords):
        raise ShadowError("build_shadow needs 2-dimensional coordinates")
    if c.dim_cap < 2:
        raise ShadowError("2-skeleton must be materialized (dim_cap >= 2)")
    coords, scale = scale_points(c.coords)
    tcoords: List[Triple] = [(x, y, 1) for x, y in coords]
    rips_edges = c.edges
    for i, j in rips_edges:
        if coords[i] == coords[j]:
            raise ShadowError(f"degenerate zero-length edge {(i, j)}")

    # -- one uniform grid: cell side the largest |dx| or |dy| of any edge --
    # each edge's integer bounding box, and the cells it meets (D = 1 here)
    boxes = [
        (min(coords[i][0], coords[j][0]), max(coords[i][0], coords[j][0]),
         min(coords[i][1], coords[j][1]), max(coords[i][1], coords[j][1]))
        for i, j in rips_edges
    ]
    side = max((max(x1 - x0, y1 - y0) for x0, x1, y0, y1 in boxes), default=1)
    edge_cells = [
        [(cx, cy) for cx in range(x0 // side, x1 // side + 1)
         for cy in range(y0 // side, y1 // side + 1)]
        for x0, x1, y0, y1 in boxes
    ]
    edges_in: Dict[Tuple[int, int], List[int]] = {}
    for a, cells in enumerate(edge_cells):
        for cell in cells:
            edges_in.setdefault(cell, []).append(a)

    # -- split every projected edge at crossings, junctions, overlaps --
    # Each crossing keeps its least pair (a, b).  Pairs sharing a vertex
    # meet only there, or overlap up to the nearer other endpoint, which is
    # a vertex on the other edge: the T-junction scan adds it.
    splits: List[Set[Triple]] = [{tcoords[i], tcoords[j]} for i, j in rips_edges]
    crossing_pairs: Dict[Triple, Tuple[int, int]] = {}
    for a, cells in enumerate(edge_cells):
        i, j = rips_edges[a]
        x0, x1, y0, y1 = boxes[a]
        ends_a = (tcoords[i], tcoords[j])
        for b in {b for cell in cells for b in edges_in[cell] if b > a}:
            k, m = rips_edges[b]
            bx0, bx1, by0, by1 = boxes[b]
            if bx1 < x0 or x1 < bx0 or by1 < y0 or y1 < by0 or i in (k, m) or j in (k, m):
                continue
            ends_b = (tcoords[k], tcoords[m])
            kind, meet = tr_segment_meet(*ends_a, *ends_b)
            if kind == "disjoint":
                continue
            splits[a].update(meet)
            splits[b].update(meet)
            if kind == "point" and meet[0] not in ends_a + ends_b:
                first = crossing_pairs.get(meet[0])
                if first is None or (a, b) < first:
                    crossing_pairs[meet[0]] = (a, b)
    for v, tv in enumerate(tcoords):
        x, y = coords[v]
        for a in edges_in.get(_cell(tv, side), ()):
            i, j = rips_edges[a]
            x0, x1, y0, y1 = boxes[a]
            if (x0 <= x <= x1 and y0 <= y <= y1 and v not in (i, j)
                    and tr_on_segment(tv, tcoords[i], tcoords[j])):
                splits[a].add(tv)

    # -- shadow vertices: deterministic ids in lexicographic point order --
    all_points = list(set(tcoords).union(*splits))
    spoints = [p for _, p in sorted(zip(_lex_keys(all_points), all_points))]
    pid = {p: idx for idx, p in enumerate(spoints)}

    provenance_of_vertex: Dict[int, Tuple] = {}
    for v, tv in enumerate(tcoords):
        provenance_of_vertex.setdefault(pid[tv], ("original", v))
    for p, pair in crossing_pairs.items():
        provenance_of_vertex.setdefault(pid[p], ("crossing", pair))
    missing = set(range(len(spoints))) - set(provenance_of_vertex)
    if missing:
        raise ConsistencyError(f"shadow vertices without provenance: {missing}")

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
    n_components = len(
        graph_components(range(len(spoints)), [(e.u, e.v) for e in sedges])
    )

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

    # each walk: its darts, twice its signed area, and its closed ring of
    # segments for winding tests (segment k runs along dart k, tail to head)
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
        ring = [(spoints[tail[d]], spoints[tail[d ^ 1]]) for d in darts]
        walks.append((darts, _twice_area(ring), ring))

    positive = [w for w in walks if w[1][0] > 0]
    n_unbounded = len(walks) - len(positive)
    expected = len(edge_prov) - len(spoints) + n_components
    if len(positive) != expected:
        raise ConsistencyError(
            f"face tracer found {len(positive)} bounded walks, expected {expected}"
        )

    # -- witnesses and coverage --
    # Candidates shrink toward a boundary-edge midpoint on the face side;
    # each candidate is itself an exact integer triple.
    outer_walks = [(-w[1][0], w[1][1], w[2]) for w in walks if w[1][0] <= 0]

    def witness(d: int, seg: Tuple[Triple, Triple], ring: List, nested: List) -> Triple:
        t, h = seg
        dirv = dirs[d]
        normal = (-dirv[1], dirv[0])  # left of the dart
        dd = t[2] * h[2]
        midx, midy = t[0] * h[2] + h[0] * t[2], t[1] * h[2] + h[1] * t[2]
        s_shift = 2
        for _ in range(200):
            cand = tr_reduce(
                midx * s_shift + normal[0],
                midy * s_shift + normal[1],
                2 * dd * s_shift,
            )
            s_shift *= 4
            # Inside the ring and off every edge is in the face unless inside a
            # nested component: its outer walk winds around the point and encloses
            # less area, while the face's own and enclosing ones enclose no less.
            # tr_locate is None on the ring, so one pass per ring decides both.
            if cand in pid or not tr_locate(ring, cand):
                continue
            if not nested or all(tr_locate(r, cand) == 0 for r in nested):
                return cand
        raise ConsistencyError("no interior witness found for a bounded face")

    # A witness is covered iff some triangle holds it.  An inward triangle
    # holds the whole face (module docstring), so it settles most witnesses;
    # the rest go to the grid search over each triangle's first vertex.
    triangles = c.k_simplices(2)
    third: Dict[Tuple[int, int], List[int]] = {}
    for t in triangles:
        for k in range(3):
            third.setdefault(t[:k] + t[k + 1:], []).append(t[k])

    @functools.cache  # filed once, on the first witness no inward triangle holds
    def tris_in() -> Dict[Tuple[int, int], List[Tuple]]:
        grid: Dict[Tuple[int, int], List[Tuple]] = {}
        for t in triangles:
            tri = tuple(tcoords[v] for v in t)
            xs = [p[0] for p in tri]
            ys = [p[1] for p in tri]
            box = (min(xs), max(xs), min(ys), max(ys), tri)
            grid.setdefault(_cell(tri[0], side), []).append(box)
        return grid

    def inward_triangle(darts: List[int], ring: List) -> Optional[Tuple[Triple, ...]]:
        for d, seg in zip(darts, ring):
            for a in sedges[d >> 1].provenance:
                i, j = rips_edges[a]
                for v in third.get((i, j), ()):
                    if tr_orient(*seg, tcoords[v]) > 0:
                        return (tcoords[i], tcoords[j], tcoords[v])
        return None

    faces: List[ShadowFace] = []
    for darts, (num, den), ring in positive:
        nested = [r for n, d, r in outer_walks if cmp_frac(n, d, num, den) < 0]
        w1 = witness(darts[0], ring[0], ring, nested)
        w2 = witness(darts[-1], ring[-1], ring, nested)
        tri = inward_triangle(darts, ring)
        cov1 = ((tri is not None and tr_point_in_triangle(w1, *tri) != "outside")
                or _grid_holds(w1, tris_in(), side))
        cov2 = ((tri is not None and tr_point_in_triangle(w2, *tri) != "outside")
                or _grid_holds(w2, tris_in(), side))
        if cov1 != cov2:
            raise ConsistencyError(
                "coverage flag depends on the witness; arrangement is inconsistent"
            )
        faces.append(ShadowFace(
            tuple(d >> 1 for d in darts), tuple(tail[d] for d in darts), w1, cov1
        ))
    # disjoint faces have distinct witnesses, so no two keys tie
    keys = _lex_keys([f.witness_triple for f in faces])
    faces = [f for _, f in sorted(zip(keys, faces))]

    return ShadowComplex(
        triples=tuple(spoints),
        scale=scale,
        vertex_provenance=tuple(
            provenance_of_vertex[i] for i in range(len(spoints))
        ),
        edges=sedges,
        faces=tuple(faces),
        n_components=n_components,
        n_unbounded_walks=n_unbounded,
    )


def shadow_betti(s: ShadowComplex) -> Tuple[int, int]:
    """(b0, b1) of the shadow: components of the 1-skeleton, and holes.

    b1 comes from the Euler formula b0 - V + E - F_cov and is cross-checked
    against the count of uncovered bounded faces; a mismatch would mean the
    arrangement itself is broken, so it raises.
    """
    b0 = s.n_components
    f_cov = sum(1 for f in s.faces if f.covered)
    b1 = b0 - len(s.triples) + len(s.edges) - f_cov
    uncovered = sum(1 for f in s.faces if not f.covered)
    if b1 != uncovered:
        raise ConsistencyError(
            f"Euler b1={b1} disagrees with uncovered face count {uncovered}"
        )
    return (b0, b1)


def hole_anchors(s: ShadowComplex) -> List[Point]:
    """One exact interior point per uncovered bounded face, in face order."""
    return [s.witness(f) for f in s.faces if not f.covered]


def _svg_num(x) -> str:
    return f"{float(x):.12g}"


def render_svg(
    s: ShadowComplex,
    overlay: Optional[Sequence[Point]] = None,
) -> str:
    """Deterministic SVG 1.1 of the shadow: covered faces filled, edges
    stroked, uncovered faces hatched, hole anchors marked, optional overlay.

    All geometry was decided exactly upstream; coordinates are emitted as
    12-significant-digit decimals of the exact rationals.
    """
    xs = [p[0] for p in s.points] or [F(0)]
    ys = [p[1] for p in s.points] or [F(0)]
    if overlay:
        xs += [p[0] for p in overlay]
        ys += [p[1] for p in overlay]
    pad = max(max(xs) - min(xs), max(ys) - min(ys), F(1)) / 10
    x0, y0 = min(xs) - pad, min(ys) - pad
    w, h = max(xs) - x0 + pad, max(ys) - y0 + pad

    lines: List[str] = []
    lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_svg_num(x0)} {_svg_num(-y0 - h)} {_svg_num(w)} {_svg_num(h)}">'
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
        if f.covered:
            lines.append(
                f'<polygon class="face-covered" points="{pts}" '
                f'fill="#9ec9e8" stroke="none"/>'
            )
        else:
            lines.append(
                f'<polygon class="face-uncovered" points="{pts}" '
                f'fill="url(#hatch)" stroke="none"/>'
            )
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
