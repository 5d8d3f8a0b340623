"""Rips and general flag complexes.

A SimplicialComplex stores what defines it: an explicit complex its
levels, a flag complex (Rips, quasi-Rips, a blowup) its graph, checked
once by `flag_complex`.  Every level is a sorted tuple of sorted simplices,
so every downstream matrix and report is reproducible run to run.  A flag
complex's levels above the edges are listed on first read and kept, as are
`vertices`, `edge_set`, `n_components` (of the 1-skeleton), `scaled`, the
integer view of the coordinates that the shadow and the lifts read, and
`core`, the flag complex of the graph's collapse core, on which homology
reads it: so only the core's cliques are listed for homology, and a
collapse that removes nothing hands back the complex itself.  `_collapse`
is the one collapse routine: given a birth level per edge it collapses a
filtration of flag complexes, every level at once, keeping each level's b1
and the rank of H1 from the first level to the last, which the pair
analysis reads; with every edge born at 0 it is the core's collapse.

A flag complex's cliques grow on higher neighbours: each vertex keeps the
set of its neighbours above it, and a clique's extensions are the
intersection of its members' sets, carried along as it grows.  Every
extension found is a clique of the next level, so no candidate is built
and then dropped.  Rips edges are the pairs the grid proximity pass
`geometry.pair_distances` yields at the one radius eps: it tests only pairs
in neighbouring cells and yields only those within eps.

`component_counts` is the one component routine: a union-find that counts
the components of a growing graph after each of a sequence of nested edge
stages, so a single graph is one stage and a filtration is counted in one
pass.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

# DuplicatePointError is re-exported
from .geometry import DuplicatePointError, Point, pair_distances, scale_points

Simplex = Tuple[int, ...]


@dataclass(frozen=True)
class SimplicialComplex:
    """`stored` is levels 0..dim_cap of an explicit complex, or levels 0
    and 1 of a flag complex, edges written i < j and sorted; its cliques
    above them are listed when `simplices`, `counts`, `dim` or a level
    k >= 2 is first read."""

    n_vertices: int
    stored: Tuple[Tuple[Simplex, ...], ...]
    dim_cap: int
    flag: bool
    coords: Optional[Tuple[Point, ...]] = None
    provenance: str = "explicit"  # "rips" | "quasi" | "explicit"; test oracles add "cech1d"

    @functools.cached_property
    def simplices(self) -> Tuple[Tuple[Simplex, ...], ...]:
        """Every level: simplices[k] = k-simplices, sorted."""
        if not self.flag:
            return self.stored
        return _cliques_from_graph(self.vertices, self.edges, self.dim_cap)

    def k_simplices(self, k: int) -> Tuple[Simplex, ...]:
        if 0 <= k < len(self.stored):
            return self.stored[k]
        return self.simplices[k] if 1 < k <= self.dim_cap else ()

    @functools.cached_property
    def vertices(self) -> Tuple[int, ...]:
        return tuple(s[0] for s in self.stored[0])

    @property
    def edges(self) -> Tuple[Simplex, ...]:
        return self.k_simplices(1)

    @functools.cached_property
    def edge_set(self) -> FrozenSet[Simplex]:
        """The edges as a set, built on first read."""
        return frozenset(self.edges)

    def dim(self) -> int:
        for k in range(self.dim_cap, -1, -1):
            if self.k_simplices(k):
                return k
        return -1

    def counts(self) -> Tuple[int, ...]:
        return tuple(len(level) for level in self.simplices)

    def adjacency(self) -> Dict[int, Set[int]]:
        """Neighbour set of every vertex, isolated vertices included."""
        adj: Dict[int, Set[int]] = {v: set() for v in self.vertices}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    @functools.cached_property
    def scaled(self) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
        """`geometry.scale_points` of the coords, built on first read: the
        integer points and their one scale, on which the kernel triple of a
        planar vertex v is (*points[v], 1)."""
        points, scale = scale_points(self.coords)
        return tuple(points), scale

    @functools.cached_property
    def n_components(self) -> int:
        """Connected components of the 1-skeleton, counted on first read."""
        return component_counts(self.vertices, [self.edges])[0]

    @property
    def core(self) -> "SimplicialComplex":
        """A flag complex's collapse core (`_collapse`), the flag complex of
        the graph it leaves, built on first read; an explicit complex, or a
        flag complex the collapse leaves whole, is its own."""
        core = self._proper_core
        return self if core is None else core

    @functools.cached_property
    def _proper_core(self) -> Optional["SimplicialComplex"]:
        """The core when it is not the complex itself, else None: a complex
        that kept a reference to itself would be a cycle, which reference
        counting never frees."""
        if not self.flag:
            return None
        adj = _collapse(self.vertices, self.edges)
        # the collapse only removes: equal counts mean it removed nothing
        if len(adj) == len(self.vertices) and sum(map(len, adj.values())) == 2 * len(self.edges):
            return None
        return collapsed_complex(self.n_vertices, adj, self.dim_cap)


def component_counts(
    vertices: Iterable[int], stages: Iterable[Iterable[Tuple[int, int]]]
) -> List[int]:
    """Connected components of a growing graph, isolated vertices included:
    the count after each stage's edges join those of the stages before.

    One union-find serves every stage, so a chain of nested graphs is
    counted in one pass over its edges; an edge may recur in later stages.
    """
    parent = {v: v for v in vertices}
    count = len(parent)
    out: List[int] = []
    for edges in stages:
        for i, j in edges:
            while parent[i] != i:  # path halving
                parent[i] = i = parent[parent[i]]
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            if i != j:
                parent[i] = j
                count -= 1
        out.append(count)
    return out


def _cliques_from_graph(
    vertices: Sequence[int], edges: Sequence[Simplex], dim_cap: int
) -> Tuple[Tuple[Simplex, ...], ...]:
    """All cliques of size <= dim_cap+1, per dimension, lexicographically
    sorted, of a graph on sorted vertices whose edges are written i < j and
    sorted, as a flag complex stores them.

    Levels 0 and 1 are the vertices and the edges as given.  Above them,
    cliques grow on higher neighbours: each vertex keeps the set of its
    neighbours above it, and a clique carries its extensions, the
    intersection of its members' sets, as an ascending tuple.  Each
    extension lies above the clique's top vertex, so every clique is
    produced exactly once, and extending the cliques in order, each by its
    extensions in order, keeps every level lexicographic.
    """
    higher: Dict[int, Set[int]] = {v: set() for v in vertices}
    for i, j in edges:
        higher[i].add(j)
    levels: List[Sequence[Simplex]] = [[(v,) for v in vertices], edges]
    # (clique, its extensions): ascending tuples need no sort, and the many
    # empty ones share one object, where empty sets would each take memory
    grown = [((v,), tuple(sorted(higher[v]))) for v in vertices]
    for k in range(1, dim_cap):
        grown = [
            (clique + (v,), tuple([w for w in ext if w in higher[v]]))
            for clique, ext in grown
            for v in ext
        ]
        if k > 1:
            levels.append([clique for clique, _ in grown])
    if dim_cap >= 2:
        levels.append([clique + (v,) for clique, ext in grown for v in ext])
    return tuple(tuple(level) for level in levels)


def flag_complex(
    n_vertices: int,
    edges: Iterable[Tuple[int, int]],
    dim_cap: int,
    coords: Optional[Sequence[Point]] = None,
    provenance: str = "explicit",
) -> SimplicialComplex:
    """Clique completion up to dim_cap of a graph on range(n_vertices),
    stored as its graph.  An edge may come in either orientation and more
    than once; it is kept once.  A loop, or an end outside range(n_vertices),
    is a ValueError naming the edge."""
    if dim_cap < 1:
        raise ValueError("dim_cap must be >= 1")
    # sorting first keeps repeats adjacent; dict.fromkeys keeps one of each
    level = tuple(dict.fromkeys(sorted((i, j) if i < j else (j, i) for i, j in edges)))
    for i, j in level:
        if not 0 <= i < j < n_vertices:
            raise ValueError(f"edge {(i, j)} is a loop or leaves range({n_vertices})")
    return SimplicialComplex(
        n_vertices=n_vertices,
        stored=(tuple((v,) for v in range(n_vertices)), level),
        dim_cap=dim_cap,
        flag=True,
        coords=tuple(coords) if coords is not None else None,
        provenance=provenance,
    )


def _collapse(
    vertices: Iterable[int],
    edges: Iterable[Tuple[int, int]],
    births: Optional[Sequence[int]] = None,
) -> Dict[int, Dict[int, int]]:
    """The collapse core of a filtered graph: each kept vertex's neighbours,
    each with the level its edge is born at.

    `births` gives each edge the level it enters, the filtration being
    K_0 c ... c K_m with K_s the flag complex of the edges born by s; every
    vertex is born at 0.  Without births every edge is born at 0, and the
    core is that of the one graph, whose flag complex
    `SimplicialComplex.core` is.

    A vertex v is dominated at a level when N[v] is inside N[u] for a
    neighbour u, and an edge uv when some w outside {u, v} is adjacent to
    all of N[u] & N[v], N[x] being x's closed neighbourhood at that level.
    A vertex dominated at every level is removed.  An edge dominated at
    every level from its birth up is trimmed; one dominated only below
    level t is shifted to t.  Each step replaces each level K_s it touches
    by K_s less a vertex or an edge dominated in K_s, a sequence of
    collapses of K_s (homology module docstring), and keeps the levels
    nested.  So each new level is a subcomplex of the old one with its
    homotopy type, and all the maps, new levels into old and level into
    level, are inclusions, so they commute: every b1(K_s) and the rank of
    H1(K_0) -> H1(K_m) are those of the filtration given.

    One vertex pass runs, then edge passes until one changes nothing, then
    a vertex pass again, each in sorted order, so the core depends neither
    on set order nor on the order or orientation of the edges.  Each
    closed neighbourhood is an int bitset, one per vertex and level.
    """
    levels = 1 if births is None else max(births, default=0) + 1
    # N[v], v's closed neighbourhood, at each level
    adj = [{v: 1 << v for v in vertices} for _ in range(levels)]
    for (i, j), b in zip(edges, itertools.repeat(0) if births is None else births):
        a = adj[b]
        a[i] |= 1 << j
        a[j] |= 1 << i
    for below, a in zip(adj, adj[1:]):  # each level holds the one below
        for v, near in below.items():
            a[v] |= near
    top = adj[-1]

    def dominated(near: int, others: int, a: Dict[int, int]) -> bool:
        """Is near inside N[w] for some w in others?"""
        # `_members`' loop, inlined: any() over it takes 1.5 times as long
        while others:
            bit = others & -others
            if near & a[bit.bit_length() - 1] == near:
                return True
            others ^= bit
        return False

    def strip_vertices() -> None:
        for v in sorted(top):
            bit = 1 << v
            for a in adj:
                if not dominated(a[v], a[v] ^ bit, a):
                    break
            else:
                for a in adj:
                    for u in _members(a.pop(v) ^ bit):
                        a[u] ^= bit

    strip_vertices()
    changed = True
    while changed:
        changed = False
        for u in sorted(top):
            # u's higher neighbours: an edge's step changes only that edge
            for v in _members(top[u] & -(2 << u)):
                ends = 1 << u | 1 << v
                b = 0
                while not adj[b][u] >> v & 1:  # the edge's birth
                    b += 1
                t = b
                while t < levels:
                    a = adj[t]
                    common = a[u] & a[v]
                    if not dominated(common, common ^ ends, a):
                        break
                    t += 1
                if t > b:
                    for a in adj[b:t]:
                        a[u] ^= 1 << v
                        a[v] ^= 1 << u
                    changed = True
    strip_vertices()
    out: Dict[int, Dict[int, int]] = {}
    for v in top:
        out[v] = near = {}
        below = 1 << v
        for s, a in enumerate(adj):  # the neighbours v gains at each level
            near.update(dict.fromkeys(_members(a[v] ^ below), s))
            below = a[v]
    return out


def collapsed_complex(
    n_vertices: int, adj: Dict[int, Dict[int, int]], dim_cap: int
) -> SimplicialComplex:
    """The flag complex, up to dim_cap, of the graph `_collapse` leaves."""
    vertices = sorted(adj)
    edges = tuple((u, v) for u in vertices for v in sorted(adj[u]) if u < v)
    return SimplicialComplex(n_vertices, (tuple((v,) for v in vertices), edges), dim_cap, True)


def _members(bits: int) -> Iterator[int]:
    """The members of an int bitset, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def explicit_complex(
    n_vertices: int,
    simplices_by_dim: Sequence[Iterable[Simplex]],
    dim_cap: Optional[int] = None,
) -> SimplicialComplex:
    """A non-flag complex from explicit k-simplex lists; faces are closed
    off.  A simplex above dim_cap, at the wrong level, or with a repeated
    vertex or one outside range(n_vertices), is a ValueError naming it."""
    cap = dim_cap if dim_cap is not None else max(1, len(simplices_by_dim) - 1)
    levels: List[Set[Simplex]] = [set() for _ in range(cap + 1)]
    for k, level in enumerate(simplices_by_dim):
        for s in level:
            t = tuple(sorted(s))
            if k > cap:
                raise ValueError(f"simplex {s} lies above dim_cap {cap}")
            if len(set(t)) != len(t):
                raise ValueError(f"repeated vertex in simplex {s}")
            if len(t) != k + 1:
                raise ValueError(f"simplex {s} given at level {k}")
            if not 0 <= t[0] <= t[-1] < n_vertices:
                raise ValueError(f"simplex {s} leaves range({n_vertices})")
            levels[k].add(t)
    # close under faces
    for k in range(cap, 0, -1):
        for s in list(levels[k]):
            for i in range(len(s)):
                levels[k - 1].add(s[:i] + s[i + 1 :])
    return SimplicialComplex(
        n_vertices, tuple(tuple(sorted(level)) for level in levels), cap, False
    )


def build_rips(points: Sequence[Point], eps: Fraction, dim_cap: int = 3) -> SimplicialComplex:
    """Vietoris-Rips complex at scale eps (closed threshold: d <= eps).

    Edges are the pairs `pair_distances` yields at the radius eps, every
    one within it; the pass refuses coincident points.  Simplices are
    exactly the cliques of the proximity graph up to dim_cap.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    pairs, _, _ = pair_distances(points, (eps,))
    edges = [(i, j) for i, j, _ in pairs]
    return flag_complex(len(points), edges, dim_cap, coords=points, provenance="rips")


def induced_span(c: SimplicialComplex, verts: Iterable[int]) -> SimplicialComplex:
    """Smallest subcomplex of c on a vertex subset (all simplices inside it),
    as an explicit complex: every level of c is filtered.

    Vertex indices are preserved, so spans embed in their parent complex.
    """
    vset = set(verts)
    unknown = vset - set(c.vertices)
    if unknown:
        raise KeyError(f"unknown vertex ids: {sorted(unknown)}")
    levels = tuple(
        tuple(s for s in level if all(v in vset for v in s)) for level in c.simplices
    )
    return SimplicialComplex(c.n_vertices, levels, c.dim_cap, False, c.coords, c.provenance)
