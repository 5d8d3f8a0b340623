"""Chaining sequences, shadow-path lifting, and free-group loop words.

A loop in a finite planar set is null-homotopic iff its signed crossing
word against one vertical ray per hole reduces to the identity; that fact
(inclusion into the punctured plane is a homotopy equivalence for such
sets) turns the fundamental-group isomorphism into a decision procedure.
Rays are perturbed symbolically: ties at a ray's x-coordinate resolve as if
each ray were nudged by its own infinitesimal, ordered by anchor index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import SimplicialComplex, induced_span
from .geometry import (
    Point,
    Triple,
    _lex_keys,
    closed_segments,
    cmp_frac,
    ray_hit,
    to_triple,
    tr_reduce,
    tr_segment_meet,
)
from .shadow import ShadowComplex


class LiftError(ValueError):
    pass


@dataclass(frozen=True)
class RipsWalk:
    """A vertex walk whose consecutive pairs are edges of a complex."""

    vertices: Tuple[int, ...]

    @property
    def closed(self) -> bool:
        return len(self.vertices) > 0 and self.vertices[0] == self.vertices[-1]

    def is_valid(self, c: SimplicialComplex) -> bool:
        return all(
            a != b and (min(a, b), max(a, b)) in c.edge_set
            for a, b in zip(self.vertices, self.vertices[1:])
        )


Word = Tuple[int, ...]  # letters +i / -i, 1-based anchor index


def free_reduce(letters: Sequence[int]) -> Word:
    out: List[int] = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


@dataclass(frozen=True)
class HoleWord:
    """Freely reduced word over the hole-anchor alphabet."""

    letters: Word

    def __bool__(self) -> bool:
        return bool(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(
            f"a{abs(l)}" if l > 0 else f"a{abs(l)}^-1" for l in self.letters
        )


def loop_word(polyline: Sequence[Point], anchors: Sequence[Point]) -> HoleWord:
    """Signed crossing word of a closed polyline against upward anchor rays.

    Letters appear in traversal order; crossings of a single segment are
    ordered along it, with the symbolic per-anchor nudge breaking exact
    ties.  The result is freely reduced.
    """
    return _ray_word([to_triple(v) for v in polyline], [to_triple(a) for a in anchors])


def _ray_word(polyline: Sequence[Triple], rays: Sequence[Triple]) -> HoleWord:
    """`loop_word` on kernel triples: the polyline's vertices and the anchors."""
    if len(set(rays)) != len(rays):
        raise ValueError("anchors must be pairwise distinct")
    # a segment meets the rays in the order of their x-coordinates
    xs = [x for x, _ in _lex_keys(rays)]
    letters: List[int] = []
    for p, q in closed_segments(polyline):
        step = 1 if cmp_frac(q[0], q[2], p[0], p[2]) > 0 else -1
        seg_hits: List[Tuple[int, int, int]] = []
        for idx, a in enumerate(rays):
            sign = ray_hit(p, q, a)
            if sign is None:
                raise ValueError("polyline passes through an anchor")
            if sign:
                seg_hits.append((step * xs[idx], step * idx, sign * (idx + 1)))
        for _, _, letter in sorted(seg_hits):
            letters.append(letter)
    return HoleWord(letters=free_reduce(letters))


def chaining_sequence(
    ab: Tuple[int, int], cd: Tuple[int, int], c: SimplicialComplex
) -> RipsWalk:
    """Walk A,B,...,C,D inside the span of {A,B,C,D}: the edge AB, a
    shortest B-to-C path in the span's 1-skeleton, then the edge CD.

    Requires the projections of the two edges to intersect; breadth-first
    search ties break toward smaller vertex index.
    """
    a, b = ab
    cc, d = cd
    for e in (ab, cd):
        if (min(e), max(e)) not in c.edge_set:
            raise LiftError(f"{e} is not an edge of the complex")
    if c.coords is not None:
        kind, _ = tr_segment_meet(*(to_triple(c.coords[v]) for v in (a, b, cc, d)))
        if kind == "disjoint":
            raise LiftError("projections of the two edges are disjoint")
    adj = induced_span(c, {a, b, cc, d}).adjacency()
    parent: Dict[int, Optional[int]] = {b: None}
    queue = [b]
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        for w in sorted(adj[u]):
            if w not in parent:
                parent[w] = u
                queue.append(w)
    if cc not in parent:
        raise LiftError(
            "no path between the edges inside their span; for a genuine "
            "planar Rips complex with intersecting images this cannot happen"
        )
    path = [cc]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])  # type: ignore[arg-type]
    path.reverse()  # b ... cc
    return RipsWalk(vertices=(a,) + tuple(path) + (d,))


def _oriented_covering_edge(
    c: SimplicialComplex, s: ShadowComplex, eid: int, tail: int, head: int, choice: str
) -> Tuple[int, int]:
    """Pick the covering Rips edge of shadow edge eid and orient it along the
    traversal direction tail -> head (shadow vertex ids)."""
    prov = s.edges[eid].provenance
    i, j = c.edges[prov[0] if choice == "min" else prov[-1]]
    # the piece lies on the edge, and shadow vertex ids follow the
    # lexicographic order of their points, which collinear directions keep
    forward = (c.coords[i] < c.coords[j]) == (tail < head)
    return (i, j) if forward else (j, i)


def _directed_vertices(s: ShadowComplex, path: Sequence[int]) -> List[Tuple[int, int]]:
    """Orient a shadow-edge id path into (tail, head) shadow vertex pairs."""
    if not path:
        raise LiftError("empty shadow path")
    ends = [(s.edges[e].u, s.edges[e].v) for e in path]
    # the first edge points toward the vertex it shares with the second
    u, v = ends[0]
    cur = u if len(ends) == 1 or v in ends[1] else v
    out: List[Tuple[int, int]] = []
    for u, v in ends:
        if cur not in (u, v):
            raise LiftError("broken shadow path: consecutive edges share no vertex")
        out.append((cur, v if cur == u else u))
        cur = out[-1][1]
    return out


def lift_path(
    path: Sequence[int],
    s: ShadowComplex,
    c: SimplicialComplex,
    edge_choice: str = "min",
) -> RipsWalk:
    """Lift a shadow-edge path (ids into s.edges) to a Rips walk.

    One covering Rips edge is chosen per shadow edge (smallest provenance
    index by default, largest with edge_choice="max"), oriented along the
    traversal; consecutive distinct covering edges are glued by chaining
    sequences.  The walk starts with the first covering edge and ends with
    the last.
    """
    if edge_choice not in ("min", "max"):
        raise ValueError("edge_choice must be 'min' or 'max'")
    directed = _directed_vertices(s, path)
    covering: List[Tuple[int, int]] = []
    for eid, (tail, head) in zip(path, directed):
        if not s.edges[eid].provenance:
            raise LiftError(f"shadow edge {eid} has empty provenance")
        ce = _oriented_covering_edge(c, s, eid, tail, head, edge_choice)
        if not covering or covering[-1] != ce:
            covering.append(ce)
    walk = list(covering[0])
    for prev, nxt in zip(covering, covering[1:]):
        seq = chaining_sequence(prev, nxt, c).vertices
        walk.extend(seq[2:])
    return RipsWalk(vertices=tuple(walk))


def lift_loop(
    path: Sequence[int],
    s: ShadowComplex,
    c: SimplicialComplex,
    edge_choice: str = "min",
) -> RipsWalk:
    """Lift a closed shadow-edge path to a closed Rips walk.

    The final chaining sequence returns to the first covering edge; its last
    vertex duplicates the walk's start edge, so the walk closes at the first
    covering edge's tail.
    """
    directed = _directed_vertices(s, path)
    if directed[0][0] != directed[-1][1]:
        raise LiftError("shadow path is not closed")
    # repeating the first shadow edge chains the last covering edge back to
    # the first, so the walk ends with the oriented start edge
    verts = lift_path([*path, path[0]], s, c, edge_choice).vertices
    if verts[-2:] != verts[:2]:
        raise LiftError("loop closure failed to reproduce the start edge")
    # drop the start edge's head to close the walk at its tail
    return RipsWalk(vertices=verts[:-1])


def walk_word(walk: RipsWalk, c: SimplicialComplex, s: ShadowComplex) -> HoleWord:
    """Hole word of a closed Rips walk's projection."""
    if not walk.closed:
        raise LiftError("walk must be closed")
    # the anchors are the uncovered faces' witnesses in face order, the order
    # of hole_anchors, brought from the shadow's scale to the source's
    holes = [f.witness_triple for f in s.faces if not f.covered]
    rays = [tr_reduce(x, y, d * s.scale) for x, y, d in holes]
    return _ray_word([to_triple(c.coords[v]) for v in walk.vertices], rays)


def is_contractible(
    loop: RipsWalk, c: SimplicialComplex, s: ShadowComplex
) -> bool:
    """Is a closed Rips walk null-homotopic in its planar Rips complex?

    True iff the projected loop's hole word is the identity.  Only defined
    for genuine Rips inputs; quasi-Rips complexes are refused because the
    shadow no longer certifies the fundamental group.
    """
    if c.provenance != "rips":
        raise LiftError(
            "contractibility via the shadow requires a genuine planar Rips "
            f"complex; got provenance {c.provenance!r}"
        )
    if not loop.closed:
        raise LiftError("loop must be closed")
    if not loop.is_valid(c):
        raise LiftError("loop is not a walk in the complex")
    return walk_word(loop, c, s).is_identity
