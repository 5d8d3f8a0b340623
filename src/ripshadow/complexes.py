"""Rips, Cech (1-D), and general flag complexes.

A SimplicialComplex stores its simplices per dimension as sorted tuples of
vertex indices, in lexicographic order, so every downstream matrix and
report is reproducible run to run.  The stored levels are the only record of
the dimension cap: `dim_cap` is the top level's index, so a level beyond the
complex's dimension is stored empty.  `edge_set` is the edges as a set,
built on first read and kept with the complex.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .geometry import Point, _exact, pair_bands

Simplex = Tuple[int, ...]


class DuplicatePointError(ValueError):
    """Two identical points make the shadow projection degenerate on an edge."""


@dataclass(frozen=True)
class SimplicialComplex:
    n_vertices: int
    simplices: Tuple[Tuple[Simplex, ...], ...]  # simplices[k] = k-simplices, sorted
    flag: bool
    coords: Optional[Tuple[Point, ...]] = None
    provenance: str = "explicit"  # "rips" | "quasi" | "cech1d" | "explicit"

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
        return graph_adjacency(self.vertices, self.edges)

    def components(self) -> List[Set[int]]:
        return graph_components(self.vertices, self.edges)


def graph_adjacency(
    vertices: Iterable[int], edges: Iterable[Tuple[int, int]]
) -> Dict[int, Set[int]]:
    """Neighbour set of every vertex, isolated vertices included."""
    adj: Dict[int, Set[int]] = {v: set() for v in vertices}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def graph_components(
    vertices: Iterable[int], edges: Iterable[Tuple[int, int]]
) -> List[Set[int]]:
    """Vertex sets of a graph's connected components, isolated vertices
    included, ordered by each component's first vertex in `vertices`."""
    vertices = list(vertices)
    adj = graph_adjacency(vertices, edges)
    seen: Set[int] = set()
    out: List[Set[int]] = []
    for v in vertices:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        out.append(comp)
    return out


def _cliques_from_graph(
    vertices: Sequence[int], edges: Iterable[Tuple[int, int]], dim_cap: int
) -> Tuple[Tuple[Simplex, ...], ...]:
    """All cliques of size <= dim_cap+1, per dimension, lexicographically sorted.

    Ordered extension: a k-clique is grown only by vertices larger than its
    maximum, so each clique is produced exactly once and the output order is
    deterministic.
    """
    adj = graph_adjacency(vertices, edges)
    levels: List[List[Simplex]] = [[(v,) for v in sorted(vertices)]]
    if dim_cap >= 1:
        level1 = sorted((i, j) if i < j else (j, i) for i, j in edges)
        levels.append(level1)
    k = 1
    while k < dim_cap and levels[k]:
        nxt: List[Simplex] = []
        for clique in levels[k]:
            common = set.intersection(*(adj[v] for v in clique))
            top = clique[-1]
            for v in sorted(common):
                if v > top:
                    nxt.append(clique + (v,))
            # sorted(common) with v > top keeps lexicographic order per prefix
        levels.append(tuple(nxt))  # type: ignore[arg-type]
        k += 1
    while len(levels) < dim_cap + 1:
        levels.append([])
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


def explicit_complex(
    n_vertices: int,
    simplices_by_dim: Sequence[Iterable[Simplex]],
    dim_cap: Optional[int] = None,
    coords: Optional[Sequence[Point]] = None,
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
        coords=tuple(coords) if coords is not None else None,
    )


def check_distinct_points(points: Sequence[Point]) -> None:
    seen: Dict[Point, int] = {}
    for idx, p in enumerate(points):
        key = _exact(p)
        if key in seen:
            raise DuplicatePointError(
                f"points {seen[key]} and {idx} coincide; distinct points required"
            )
        seen[key] = idx


def build_rips(points: Sequence[Point], eps: Fraction, dim_cap: int = 3) -> SimplicialComplex:
    """Vietoris-Rips complex at scale eps (closed threshold: d <= eps).

    Edges are the pairs in band 0 of `pair_bands`; simplices are exactly the
    cliques of the proximity graph up to dim_cap.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    check_distinct_points(points)
    bands, _ = pair_bands(points, eps, eps)
    edges = [(i, j) for i, j, band, _ in bands if band == 0]
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
