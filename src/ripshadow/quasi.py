"""Quasi-Rips complexes and the arbitrary-group pipeline.

A quasi-Rips complex forces links below eps, forbids them at eps' and
beyond, and lets a policy decide inside the open band.  One resolver,
`_resolve_links`, applies that rule to a proximity pass and refuses any
pick outside its band; `build_quasi` and both intervals of the pair
analysis call it.  A pair analysis resolves the chain R_Q c R_mid c R_Q'
in one pass over the pairs, with one clique enumeration (of R_Q'; R_mid is
its filtered levels, stored as an explicit complex, and R_Q is never
built) and one coboundary reduction, with clearing, of its filtration.
The pipeline turns a finite group presentation into a properly 3-colored
2-complex, blows it up so gluings become joins, and embeds the blowup in
the plane with one small ball per color.  The blowup is a flag complex
stored as its graph, handed on with its vertices' colours; homology reads
it on its collapse core, so its cliques are never listed.
`geometry.audit_bands` finds every same-colour pair forced and every
other pair inside the band; those forced pairs plus the bichromatic
blowup edges, the band pairs the construction picks, are the quasi-Rips
complex.  It carries the group's H1 (plus free rank), which integer Smith
normal form certifies.

H1 of an embedded quasi complex is computed relative to the three color
cliques: each clique spans a full simplex, so collapsing them is a homotopy
equivalence up to a known free-rank shift, and the relative chain complex
only involves bichromatic cells.  This keeps the computation exact while
avoiding the cubically many monochromatic triangles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .complexes import SimplicialComplex, component_counts, explicit_complex, flag_complex
from .errors import AuditError
from .geometry import DuplicatePointError, Point, audit_bands, pair_distances, rational_sqrt
from .homology import (
    SmithDecomposition,
    _columns,
    _h1,
    _reduce_filtration,
    betti_numbers,
    integer_h1,
    snf_diagonal,
)
from .shadow import build_shadow, shadow_betti

F = Fraction

# placement seeds tried by embed_blowup before it gives up
EMBED_ATTEMPTS = 32
# most blowup vertices run_pipeline builds; the blowup and its embedding
# audit are quadratic in them (the free group of rank 100 has 801)
BLOWUP_VERTEX_LIMIT = 2_000


@dataclass(frozen=True)
class UncertaintyInterval:
    """Open band (eps, eps') of unreliable links: forced below, banned above."""

    eps: Fraction
    eps_prime: Fraction

    def __post_init__(self):
        if not (0 < self.eps < self.eps_prime):
            raise ValueError("need 0 < eps < eps'")


@dataclass(frozen=True)
class EdgePolicy:
    """How uncertain-band pairs resolve: an explicit list of picks, or a
    seeded coin tossed for each band pair in (i, j) order.  `all` and
    `none` are the coins of probability 1 and 0: `random()` lies in [0, 1)."""

    edges: Optional[FrozenSet[Tuple[int, int]]] = None
    seed: int = 0
    probability: Fraction = F(0)

    @classmethod
    def explicit(cls, edges) -> "EdgePolicy":
        return cls(edges=frozenset((min(i, j), max(i, j)) for i, j in edges))

    @classmethod
    def seeded_random(cls, seed: int, probability) -> "EdgePolicy":
        p = F(probability)
        if not 0 <= p <= 1:
            raise ValueError(f"coin probability must lie in [0, 1], got {p}")
        return cls(seed=seed, probability=p)

    @classmethod
    def all(cls) -> "EdgePolicy":
        return cls(probability=F(1))

    @classmethod
    def none(cls) -> "EdgePolicy":
        return cls()

    def select(self, band_pairs: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
        if self.edges is not None:
            return sorted(self.edges)
        rng = random.Random(self.seed)
        p = float(self.probability)
        return [e for e in band_pairs if rng.random() < p]


def _resolve_links(
    pairs: Iterable[Tuple[int, int, int]], lo2: int, hi2: int, policy: EdgePolicy
) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """The forced pairs of a proximity pass's (i, j, d2), d2 <= lo2, and the
    links: the forced pairs plus the policy's picks from the open band
    lo2 < d2 < hi2, offered in (i, j) order.  Any pick outside that band is
    a ValueError, whatever the policy."""
    forced: List[Tuple[int, int]] = []
    band: List[Tuple[int, int]] = []
    for i, j, d2 in pairs:
        if d2 <= lo2:
            forced.append((i, j))
        elif d2 < hi2:
            band.append((i, j))
    picks = policy.select(band)
    outside = set(picks).difference(band)
    if outside:
        raise ValueError(f"policy picks pairs outside the uncertain band: {sorted(outside)}")
    return forced, forced + picks


def build_quasi(
    points: Sequence[Point],
    interval: UncertaintyInterval,
    policy: EdgePolicy,
    dim_cap: int = 3,
) -> SimplicialComplex:
    """Flag complex of forced edges plus the policy's picks in the band."""
    pairs, (lo2, hi2), _ = pair_distances(points, (interval.eps, interval.eps_prime))
    _, links = _resolve_links(pairs, lo2, hi2, policy)
    return flag_complex(len(points), links, dim_cap, coords=points, provenance="quasi")


# ---------------------------------------------------------------------------
# group presentations and their 3-colored complexes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupPresentation:
    """Generators 1..n and relators as signed generator sequences."""

    n_generators: int
    relators: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.n_generators) is not int or self.n_generators < 1:
            raise ValueError(f"generators must be an int >= 1, not {self.n_generators!r}")
        for rel in self.relators:
            if not rel:
                raise ValueError("relators must be nonempty")
            for a, b in zip(rel, rel[1:]):
                if a == -b:
                    raise ValueError(f"relator {rel} is not freely reduced")
            if any(abs(g) < 1 or abs(g) > self.n_generators for g in rel):
                raise ValueError(f"relator {rel} uses an unknown generator")

    @classmethod
    def parse(cls, generators: int, relator_words: Sequence[str]) -> "GroupPresentation":
        """Parse words like "aba'b'": letters a..z, apostrophe for inverse."""
        if not isinstance(relator_words, (list, tuple)) or not all(
            isinstance(word, str) for word in relator_words
        ):
            raise ValueError(f"relators must be a list of strings, not {relator_words!r}")
        rels = []
        for word in relator_words:
            rel: List[int] = []
            for ch in word:
                if ch == "'":
                    if not rel:
                        raise ValueError(f"dangling inverse mark in {word!r}")
                    rel[-1] = -rel[-1]
                else:
                    idx = ord(ch) - ord("a") + 1
                    if not ("a" <= ch <= "z" and idx <= generators):
                        raise ValueError(f"unknown generator {ch!r} in {word!r}")
                    rel.append(idx)
            rels.append(tuple(rel))
        return cls(n_generators=generators, relators=tuple(rels))


def _third(a: int, b: int) -> int:
    return 3 - a - b


def _is_proper(k: SimplicialComplex, colors: Sequence[int]) -> bool:
    """Do the two ends of every edge of k have different colors?"""
    return all(colors[i] != colors[j] for i, j in k.edges)


def presentation_to_colored_complex(
    p: GroupPresentation,
) -> Tuple[SimplicialComplex, Tuple[int, ...]]:
    """Properly 3-colored simplicial 2-complex with the presentation's
    homotopy type, and the color of each vertex.

    The wedge of generator circles is built as 3-cycles through the base
    point; each relator attaches a disk as an annulus glued to its word
    walk (fresh inner ring, so repeated letters never identify interior
    cells) plus a colored ear-fill of the ring.  Vertex colors come out of
    the construction directly, one color class per circle position, and
    properness is asserted before returning.
    """
    colors: List[int] = [0]  # base point
    circle: Dict[int, Tuple[int, int]] = {}
    for g in range(1, p.n_generators + 1):
        a = len(colors)
        colors.append(1)
        b = len(colors)
        colors.append(2)
        circle[g] = (a, b)
    # the circles' edges; explicit_complex closes each triangle under its faces
    edges = [e for a, b in circle.values() for e in ((0, a), (a, b), (0, b))]
    triangles: Set[Tuple[int, int, int]] = set()

    def new_vertex(color: int) -> int:
        colors.append(color)
        return len(colors) - 1

    def add_triangle(u: int, v: int, w: int) -> None:
        if len({u, v, w}) != 3 or len({colors[u], colors[v], colors[w]}) != 3:
            raise AuditError(f"triangle {(u, v, w)} is not rainbow")
        tri = tuple(sorted((u, v, w)))
        if tri in triangles:
            raise AuditError(f"duplicate triangle {tri}")
        triangles.add(tri)

    for rel in p.relators:
        walk: List[int] = [0]
        for g in rel:
            a, b = circle[abs(g)]
            walk.extend([a, b, 0] if g > 0 else [b, a, 0])
        walk.pop()  # cyclic: final base point equals walk[0]
        m = len(walk)

        ring: List[int] = []
        v_cur = -1
        for k in range(m):
            wk, wk1 = walk[k], walk[(k + 1) % m]
            t = _third(colors[wk], colors[wk1])
            if v_cur < 0:
                v_cur = new_vertex(t)
                ring.append(v_cur)
            elif colors[v_cur] != t:
                v_new = new_vertex(t)
                add_triangle(v_cur, v_new, wk)
                ring.append(v_new)
                v_cur = v_new
            add_triangle(wk, wk1, v_cur)
        v_first = ring[0]
        if len(ring) < 3:
            raise AuditError("inner ring degenerated; relator walk too short")
        if colors[v_cur] != colors[v_first]:
            add_triangle(v_cur, v_first, walk[0])
        else:
            filler = new_vertex(_third(colors[v_cur], colors[walk[0]]))
            add_triangle(v_cur, filler, walk[0])
            add_triangle(filler, v_first, walk[0])
            ring.append(filler)

        # ear-fill the fresh inner ring
        poly = ring[:]
        while len(poly) > 3:
            for i in range(len(poly)):
                a = poly[(i - 1) % len(poly)]
                b = poly[i]
                cc = poly[(i + 1) % len(poly)]
                if colors[a] != colors[cc]:
                    add_triangle(a, b, cc)
                    poly.pop(i)
                    break
            else:
                present = sorted({colors[v] for v in poly})
                z = new_vertex(_third(*present))
                for i in range(len(poly)):
                    add_triangle(z, poly[i], poly[(i + 1) % len(poly)])
                poly = []
                break
        if len(poly) == 3:
            add_triangle(*poly)

    n = len(colors)
    k = explicit_complex(
        n, [[(v,) for v in range(n)], edges, sorted(triangles)], dim_cap=2
    )
    if not _is_proper(k, colors):
        raise AuditError("construction produced an improper coloring")
    return k, tuple(colors)


# ---------------------------------------------------------------------------
# blowup
# ---------------------------------------------------------------------------


def blowup(
    k: SimplicialComplex, colors: Sequence[int]
) -> Tuple[SimplicialComplex, Tuple[int, ...]]:
    """The flag completion, at dim_cap 3, of the blowup graph of a properly
    coloured 2-complex: disjoint simplex copies, faces connected by joins;
    and the colour of each of its vertices, inherited.

    Vertices are (simplex of K, vertex of that simplex).  Two vertices
    (s1, v), (s2, w) are adjacent iff v lies in s2 and w lies in s1: each
    copy is a clique, a face copy joins the matching corner of every
    coface copy, and two copies sharing a face join along that face's
    corners.  This is the join structure whose collapse recovers the
    gluing maps: the fiber over a point in an open k-cell is the simplex
    on the copies containing that cell, so the flag completion is
    homotopy equivalent to the source complex, and every bichromatic
    triangle of the quasi-Rips complex already lives in it.  Joining
    entire copies pairwise instead creates bichromatic 2-simplices outside
    the flag completion and wrecks the construction.
    """
    if k.dim() > 2:
        raise ValueError("blowup expects a 2-dimensional complex")
    if not _is_proper(k, colors):
        raise ValueError("coloring is not proper on the complex")
    copies = [(s, v) for level in k.simplices for s in level for v in s]
    edges: List[Tuple[int, int]] = []
    for a, (s1, v) in enumerate(copies):
        for b in range(a + 1, len(copies)):
            s2, w = copies[b]
            if v in s2 and w in s1:
                edges.append((a, b))
    return flag_complex(len(copies), edges, 3), tuple(colors[v] for _, v in copies)


# ---------------------------------------------------------------------------
# planar embedding of a blowup
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddedQuasi:
    """A blowup realized as a planar quasi-Rips complex.

    `complex` is the quasi-Rips complex's graph, a flag complex at dim_cap
    1 (monochromatic cliques are huge, and H1 is read relative to them):
    the same-colour pairs, which the band audit found forced, plus the
    bichromatic blowup edges.  Its `coords` are the embedded points.
    `colors` is the blowup's color of each vertex.
    """

    complex: SimplicialComplex
    colors: Tuple[int, ...]
    audit_margin: Fraction  # the least slack of any pair's band


def embed_blowup(
    b: SimplicialComplex,
    colors: Sequence[int],
    interval: UncertaintyInterval,
    seed: int = 0,
) -> EmbeddedQuasi:
    """Place the vertices of a blowup b, coloured by colors, in three small
    balls at the corners of a near-equilateral rational triangle of side
    (eps+eps')/2.

    Each vertex gets one seeded draw in its ball.  Ball radius is
    (eps'-eps)/8, half the construction's upper bound, so
    different-color distances land strictly inside the open band; one
    `audit_bands` over every pair checks that exactly, same-colour pairs
    forced and the rest in the band.  A coincident draw or a pair outside
    its band fails the attempt, and the placement retries with the next
    derived seed; after EMBED_ATTEMPTS failures it is an AuditError naming
    the last one.  A blowup of fewer than two vertices, a colour count
    other than its vertex count, an interval too wide for that radius, or
    one too narrow for the rational height, is a ValueError before any
    point is placed.
    """
    if b.n_vertices < 2:
        raise ValueError(f"a blowup needs two vertices to embed, not {b.n_vertices}")
    if len(colors) != b.n_vertices:
        raise ValueError(f"{len(colors)} colours for the blowup's {b.n_vertices} vertices")
    eps, eps_p = interval.eps, interval.eps_prime
    rho = (eps_p - eps) / 8
    if 2 * rho > eps:
        raise ValueError(
            "ball radius too large for the interval: need (eps'-eps)/4 <= eps"
        )
    side = (eps + eps_p) / 2
    height = rational_sqrt(3 * side * side / 4, bits=40)
    if abs(height * height - 3 * side * side / 4) > rho * rho / 16:
        raise ValueError("rational height approximation too coarse")
    corners = [
        (F(0), F(0)),
        (side, F(0)),
        (side / 2, height),
    ]
    colors = tuple(colors)
    grid = 1 << 16
    last_error: Optional[str] = None
    for attempt in range(EMBED_ATTEMPTS):
        rng = random.Random(seed * 1000003 + attempt)
        pts: List[Point] = []
        for v in range(b.n_vertices):
            cx, cy = corners[colors[v]]
            dx = rho * F(rng.randrange(-grid, grid + 1), 2 * grid)
            dy = rho * F(rng.randrange(-grid, grid + 1), 2 * grid)
            pts.append((cx + dx, cy + dy))
        try:
            audited, den = audit_bands(
                pts, eps, eps_p, lambda i, j: 0 if colors[i] == colors[j] else 1
            )
        except (AuditError, DuplicatePointError) as exc:
            last_error = str(exc)
            continue
        forced = [(i, j) for i, j, _ in audited if colors[i] == colors[j]]
        margin = F(min(slack for _, _, slack in audited), den)
        cross = [e for e in b.edges if colors[e[0]] != colors[e[1]]]
        rq = flag_complex(len(pts), forced + cross, 1, coords=pts, provenance="quasi")
        return EmbeddedQuasi(complex=rq, colors=colors, audit_margin=margin)
    raise AuditError(f"embedding failed after {EMBED_ATTEMPTS} seeds: {last_error}")


# ---------------------------------------------------------------------------
# H1 of an embedded quasi complex, relative to the color cliques
# ---------------------------------------------------------------------------


def cross_edges_and_triangles(
    eq: EmbeddedQuasi,
) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int, int]]]:
    """Bichromatic edges of R_Q and every triangle that contains one.

    Those triangles are exactly the non-monochromatic 2-simplices of the
    quasi-Rips flag complex.
    """
    adj = eq.complex.adjacency()
    cross = [e for e in eq.complex.edges if eq.colors[e[0]] != eq.colors[e[1]]]
    tris: Set[Tuple[int, int, int]] = set()
    for i, j in cross:
        for w in adj[i] & adj[j]:
            tris.add(tuple(sorted((i, j, w))))  # type: ignore[arg-type]
    return cross, sorted(tris)


def quasi_integer_h1(eq: EmbeddedQuasi) -> SmithDecomposition:
    """H1(R_Q; Z) via the chain complex relative to the three color cliques.

    Each color class spans a full simplex of the flag complex, so the pair
    (R_Q, cliques) is good: H1(R_Q) injects into H1(R_Q, A) with free
    cokernel Z^(components(A) - components(R_Q)).  Relative 1-chains are
    the bichromatic edges, relative 2-chains the non-monochromatic
    triangles, so no monochromatic simplex is ever materialized.  Torsion
    is untouched by the shift; the free rank drops by the component count
    difference.
    """
    cross, tris = cross_edges_and_triangles(eq)
    shift = len(set(eq.colors)) - eq.complex.n_components
    # each triangle holds a cross edge, so no column is empty
    cols = _columns(tris, {e: i for i, e in enumerate(cross)})
    return _h1(len(cross) - shift, snf_diagonal(cols))


def monochromatic_violations(
    eq: EmbeddedQuasi, b: SimplicialComplex
) -> List[Tuple[int, int, int]]:
    """Non-monochromatic R_Q triangles that are NOT already in the blowup b.

    The construction predicts this list is empty: every extra 2-simplex of
    the quasi complex has all vertices of the same color.
    """
    blow = b.edge_set
    _, tris = cross_edges_and_triangles(eq)
    bad = []
    for t in tris:
        pairs = [(t[0], t[1]), (t[0], t[2]), (t[1], t[2])]
        if not all(p in blow for p in pairs):
            bad.append(t)
    return bad


# ---------------------------------------------------------------------------
# presets and the full pipeline
# ---------------------------------------------------------------------------

PRESETS: Dict[str, Tuple[int, Tuple[str, ...]]] = {
    "torus": (2, ("aba'b'",)),
    "rp2": (1, ("aa",)),
    "klein": (2, ("abab'",)),
}


def preset_presentation(name: str) -> GroupPresentation:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    gens, words = PRESETS[name]
    return GroupPresentation.parse(gens, words)


@dataclass(frozen=True)
class PipelineResult:
    k: SimplicialComplex
    h1_k: SmithDecomposition
    blowup: SimplicialComplex
    betti_k: Tuple[int, ...]
    betti_flag_blowup: Tuple[int, ...]
    embedded: EmbeddedQuasi
    h1_rq: SmithDecomposition
    mono_violations: int

    @property
    def blowup_betti_agrees(self) -> bool:
        return self.betti_k == self.betti_flag_blowup

    @property
    def torsion_transported(self) -> bool:
        return self.h1_rq.torsion == self.h1_k.torsion


def run_pipeline(
    p: GroupPresentation,
    interval: UncertaintyInterval,
    seed: int = 0,
) -> PipelineResult:
    k, colors = presentation_to_colored_complex(p)
    # one blowup vertex per vertex of each simplex
    size = sum((d + 1) * len(level) for d, level in enumerate(k.simplices))
    if size > BLOWUP_VERTEX_LIMIT:
        raise ValueError(
            f"the blowup would have {size} vertices, above the limit of {BLOWUP_VERTEX_LIMIT}"
        )
    h1_k = integer_h1(k)
    b, blowup_colors = blowup(k, colors)
    betti_k = betti_numbers(k, 2).gf2
    # read on the collapse core: the base point's copies alone form a
    # (2g + 1)-clique, whose cliques b itself never lists
    betti_fb = betti_numbers(b, 2).gf2
    eq = embed_blowup(b, blowup_colors, interval, seed)
    h1_rq = quasi_integer_h1(eq)
    bad = monochromatic_violations(eq, b)
    return PipelineResult(
        k=k,
        h1_k=h1_k,
        blowup=b,
        betti_k=betti_k,
        betti_flag_blowup=betti_fb,
        embedded=eq,
        h1_rq=h1_rq,
        mono_violations=len(bad),
    )


# ---------------------------------------------------------------------------
# persistence-style pair analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairReport:
    image_rank: int
    mid_eps: Fraction
    mid_b1: int
    bound_ok: bool
    lower_b1: int
    upper_b1: int
    lower_forced_components: int  # connectivity of R_eps, reported not fixed
    shadow_mid_betti: Optional[Tuple[int, int]]


def pair_image_analysis(
    points: Sequence[Point],
    lower: Tuple[UncertaintyInterval, EdgePolicy],
    upper: Tuple[UncertaintyInterval, EdgePolicy],
) -> PairReport:
    """Rank of H1(R_Q) -> H1(R_Q') for disjoint uncertainty intervals,
    against the b1 of the intermediate genuine Rips complex.

    Disjointness gives R_Q subset R_eps'' subset R_Q' for any eps'' between
    the intervals, so the image rank is bounded by b1 at the midpoint; the
    report carries the verified bound.  One proximity pass is read once and
    resolved for each interval by `_resolve_links` (each policy draws over
    its own band in (i, j) order); every pick lies inside its band and
    eps'_low <= eps'' <= eps_high, so the chain R_Q c R_eps'' c R_Q' is
    nested by construction, and each edge is tagged with the first level
    holding it.
    All three are flag complexes, so a triangle is born with its last edge:
    the cliques of R_Q' are enumerated once, at dim_cap 2 since nothing
    here reads a 3-simplex, R_eps'' is an explicit complex, the simplices
    of R_Q' born by level 1, and R_Q is never built.
    A union-find counts the components of the forced R_eps, and one
    coboundary reduction of R_Q' with clearing gives the image rank and the
    three b1 (`homology._reduce_filtration`).
    The shadow certifies the (b0, b1) of R_eps'' on the arrangement of its
    boundary edges only (`build_shadow(mid, boundary_only=True)`): an edge
    with a triangle on each side, or a vertex with only such edges, is
    interior to the shadow, and on a dense cluster nearly every one is.
    """
    li, lp = lower
    ui, up = upper
    if li.eps_prime > ui.eps:
        raise ValueError("uncertainty intervals overlap")
    n = len(points)
    mid_eps = (li.eps_prime + ui.eps) / 2
    radii = (li.eps, li.eps_prime, ui.eps, ui.eps_prime, mid_eps)
    pairs, (l2, lp2, u2, up2, m2), _ = pair_distances(points, radii)
    pairs = list(pairs)
    forced, low_edges = _resolve_links(pairs, l2, lp2, lp)
    _, high_edges = _resolve_links(pairs, u2, up2, up)
    mid_edges = [(i, j) for i, j, d2 in pairs if d2 <= m2]
    high = flag_complex(n, high_edges, 2, coords=points, provenance="quasi")
    birth = dict.fromkeys(high.edges, 2)
    birth.update(dict.fromkeys(mid_edges, 1))
    birth.update(dict.fromkeys(low_edges, 0))
    edge_birth = [birth[e] for e in high.edges]
    triangles = high.k_simplices(2)
    triangle_birth = [max(birth[a, b], birth[a, c], birth[b, c]) for a, b, c in triangles]
    mid_triangles = tuple(t for t, b in zip(triangles, triangle_birth) if b <= 1)
    mid_levels = (high.k_simplices(0), tuple(mid_edges), mid_triangles)
    mid = SimplicialComplex(n, mid_levels, 2, False, high.coords, "rips")
    (lower_b1, mid_b1, upper_b1), rank = _reduce_filtration(high, edge_birth, triangle_birth, 3)
    shadow_mid = None
    if all(len(p) == 2 for p in points):
        shadow_mid = shadow_betti(build_shadow(mid, boundary_only=True))
    return PairReport(
        image_rank=rank,
        mid_eps=mid_eps,
        mid_b1=mid_b1,
        bound_ok=rank <= mid_b1,
        lower_b1=lower_b1,
        upper_b1=upper_b1,
        lower_forced_components=component_counts(range(n), [forced])[0],
        shadow_mid_betti=shadow_mid,
    )
