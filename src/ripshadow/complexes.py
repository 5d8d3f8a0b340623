"""Rips and general flag complexes.

A SimplicialComplex stores its simplices per dimension as sorted tuples of
vertex indices, in lexicographic order, so every downstream matrix and
report is reproducible run to run.  The stored levels are the only record of
the dimension cap: `dim_cap` is the top level's index, so a level beyond the
complex's dimension is stored empty.  `edge_set` (the edges as a set) and
`n_components` (the components of the 1-skeleton) are built on first read
and kept with the complex, as is `core`, the clique complex of the graph's
collapse core (`collapse_core`), on which homology reads a flag complex.
A collapse that removes nothing lists no cliques: the complex is its own
core, as is every core `collapse_core` returns.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .geometry import DuplicatePointError, Point, pair_distances  # the error is re-exported

Simplex = Tuple[int, ...]


@dataclass(frozen=True)
class SimplicialComplex:
    n_vertices: int
    simplices: Tuple[Tuple[Simplex, ...], ...]  # simplices[k] = k-simplices, sorted
    flag: bool
    coords: Optional[Tuple[Point, ...]] = None
    provenance: str = "explicit"  # "rips" | "quasi" | "explicit"; test oracles add "cech1d"

    def k_simplices(self, k: int) -> Tuple[Simplex, ...]:
        if k < 0 or k >= len(self.simplices):
            return ()
        return self.simplices[k]

    @property
    def vertices(self) -> Tuple[int, ...]:
        return tuple(s[0] for s in self.k_simplices(0))

    @property
    def dim_cap(self) -> int:
        return len(self.simplices) - 1

    @property
    def edges(self) -> Tuple[Simplex, ...]:
        return self.k_simplices(1)

    @functools.cached_property
    def edge_set(self) -> FrozenSet[Simplex]:
        """The edges as a set, built on first read."""
        return frozenset(self.edges)

    def dim(self) -> int:
        for k in range(len(self.simplices) - 1, -1, -1):
            if self.simplices[k]:
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
    def n_components(self) -> int:
        """Connected components of the 1-skeleton, counted on first read."""
        return component_counts(self.vertices, [self.edges])[0]

    @functools.cached_property
    def core(self) -> "SimplicialComplex":
        """A flag complex's collapse core, built on first read; an explicit
        complex, or a flag complex the collapse leaves whole, is its own."""
        if not self.flag:
            return self
        n_vertices, adj = _collapse(self.vertices, self.edges)
        # the collapse only removes: equal counts mean it removed nothing
        if len(adj) == len(self.vertices) and sum(map(len, adj.values())) == 2 * len(self.edges):
            return self
        return _clique_core(n_vertices, adj, self.dim_cap)


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
    vertices: Sequence[int], edges: Iterable[Tuple[int, int]], dim_cap: int
) -> Tuple[Tuple[Simplex, ...], ...]:
    """All cliques of size <= dim_cap+1, per dimension, lexicographically sorted.

    Level 1 is the edges as given, each written i < j, sorted.  Above it,
    cliques grow on higher neighbours: each vertex keeps the set of its
    neighbours above it, and a clique carries its extensions, the
    intersection of its members' sets, as an ascending tuple.  Each
    extension lies above the clique's top vertex, so every clique is
    produced exactly once, and extending the cliques in order, each by its
    extensions in order, keeps every level lexicographic.
    """
    edges = list(edges)
    higher: Dict[int, Set[int]] = {v: set() for v in vertices}
    for i, j in edges:
        if i < j:
            higher[i].add(j)
        else:
            higher[j].add(i)
    levels: List[Sequence[Simplex]] = [[(v,) for v in sorted(vertices)]]
    if dim_cap >= 1:
        levels.append(sorted((i, j) if i < j else (j, i) for i, j in edges))
    # (clique, its extensions): ascending tuples need no sort, and the many
    # empty ones share one object, where empty sets would each take memory
    grown = [((v,), tuple(sorted(higher[v]))) for v in sorted(vertices)]
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
    """Clique completion of a graph up to dim_cap."""
    if dim_cap < 1:
        raise ValueError("dim_cap must be >= 1")
    return SimplicialComplex(
        n_vertices=n_vertices,
        simplices=_cliques_from_graph(range(n_vertices), edges, dim_cap),
        flag=True,
        coords=tuple(coords) if coords is not None else None,
        provenance=provenance,
    )


def collapse_core(
    vertices: Iterable[int], edges: Iterable[Tuple[int, int]], dim_cap: int
) -> SimplicialComplex:
    """Clique completion up to dim_cap of a graph's collapse core, which is
    its own `core`: homology reads it as it is.

    A vertex v is dominated when N[v] is inside N[u] for a neighbour u, and
    an edge uv when some w outside {u, v} is adjacent to all of
    N[u] & N[v], N[x] being x's closed neighbourhood.  Removing either is a
    sequence of collapses of the flag complex (homology module docstring),
    so the core keeps its homotopy type.  One vertex pass runs, then edge
    passes until one removes nothing, then a vertex pass again, each in
    sorted order, so the core does not depend on set order.
    """
    return _clique_core(*_collapse(vertices, edges), dim_cap)


def _collapse(
    vertices: Iterable[int], edges: Iterable[Tuple[int, int]]
) -> Tuple[int, Dict[int, Set[int]]]:
    """The vertex count of the graph (its largest vertex + 1) and the
    neighbour sets of its collapse core (`collapse_core`)."""
    adj: Dict[int, Set[int]] = {v: set() for v in vertices}
    n_vertices = max(adj, default=-1) + 1
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)

    def strip_vertices() -> None:
        for v in sorted(adj):
            near = adj[v]
            # u is in N[v] but not in N(u): N[v] <= N[u] iff they share the rest
            if any(len(near & adj[u]) + 1 == len(near) for u in near):
                for u in adj.pop(v):
                    adj[u].discard(v)

    strip_vertices()
    removed = True
    while removed:
        removed = False
        for u, v in sorted((u, v) for u in adj for v in adj[u] if u < v):
            common = adj[u] & adj[v]  # N[u] & N[v] without u and v
            if any(len(common & adj[w]) + 1 == len(common) for w in common):
                adj[u].discard(v)
                adj[v].discard(u)
                removed = True
    strip_vertices()
    return n_vertices, adj


def _clique_core(n_vertices: int, adj: Dict[int, Set[int]], dim_cap: int) -> SimplicialComplex:
    """The clique complex of a collapsed graph, marked as its own core."""
    core = SimplicialComplex(
        n_vertices=n_vertices,
        simplices=_cliques_from_graph(
            list(adj), [(u, v) for u in adj for v in adj[u] if u < v], dim_cap
        ),
        flag=True,
    )
    core.__dict__["core"] = core  # the cached `core`: collapsing again is wasted
    return core


def explicit_complex(
    n_vertices: int,
    simplices_by_dim: Sequence[Iterable[Simplex]],
    dim_cap: Optional[int] = None,
) -> SimplicialComplex:
    """A non-flag complex from explicit simplex lists; faces are closed off."""
    cap = dim_cap if dim_cap is not None else max(1, len(simplices_by_dim) - 1)
    levels: List[Set[Simplex]] = [set() for _ in range(cap + 1)]
    for k, level in enumerate(simplices_by_dim):
        for s in level:
            t = tuple(sorted(s))
            if len(set(t)) != len(t):
                raise ValueError(f"repeated vertex in simplex {s}")
            levels[k].add(t)
    # close under faces
    for k in range(cap, 0, -1):
        for s in list(levels[k]):
            for i in range(len(s)):
                levels[k - 1].add(s[:i] + s[i + 1 :])
    return SimplicialComplex(
        n_vertices=n_vertices,
        simplices=tuple(tuple(sorted(level)) for level in levels),
        flag=False,
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
    """Smallest subcomplex of c on a vertex subset (all simplices inside it).

    Vertex indices are preserved, so spans embed in their parent complex.
    """
    vset = set(verts)
    unknown = vset - set(c.vertices)
    if unknown:
        raise KeyError(f"unknown vertex ids: {sorted(unknown)}")
    levels = tuple(
        tuple(s for s in level if all(v in vset for v in s)) for level in c.simplices
    )
    return SimplicialComplex(
        n_vertices=c.n_vertices,
        simplices=levels,
        flag=c.flag,
        coords=c.coords,
        provenance=c.provenance,
    )
