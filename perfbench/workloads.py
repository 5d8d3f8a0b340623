"""The four seeded workloads: input generators, requests and their checks.

Each workload has a pure generator (seed -> inputs, no ripshadow code), a
`prepare` step that turns the inputs into requests (writing files, and for
`loop_queries` building the shadows the queries read), an `execute` step
that is the timed request, and a `check` that compares the output with a
route independent of the timed code path.  Requests come in blocks; a
block is the unit the run repeats, and each block holds the same mix of
request costs, so a run's figures do not hinge on where it stopped.

Geometry in this file is the benchmark's own: integer coordinates, exact
integer predicates, and its own union-find, so checks built on it do not
share code with the program.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

IntPoint = Tuple[int, int]
SCHEMA = "rips-shadow/1"


# ---------------------------------------------------------------------------
# the benchmark's own exact geometry
# ---------------------------------------------------------------------------


def lattice_points(rng: random.Random, n: int, cells: int) -> List[IntPoint]:
    """n distinct points of the integer grid [0, cells]^2, sorted."""
    pts = set()
    while len(pts) < n:
        pts.add((rng.randrange(cells + 1), rng.randrange(cells + 1)))
    return sorted(pts)


def eps_edges(pts: Sequence[IntPoint], r2: int) -> List[Tuple[int, int]]:
    """Pairs at squared distance <= r2 (the Rips edges at that scale)."""
    n = len(pts)
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2 <= r2
    ]


def components(n: int, edges: Sequence[Tuple[int, int]]) -> int:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        parent[find(i)] = find(j)
    return len({find(v) for v in range(n)})


def _orient(p: IntPoint, q: IntPoint, r: IntPoint) -> int:
    s = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (s > 0) - (s < 0)


def proper_crossings(pts: Sequence[IntPoint], edges: Sequence[Tuple[int, int]]) -> int:
    """Edge pairs whose interiors cross at one point (no shared endpoint)."""
    segs = sorted(
        (min(pts[i][0], pts[j][0]), max(pts[i][0], pts[j][0]),
         min(pts[i][1], pts[j][1]), max(pts[i][1], pts[j][1]), i, j)
        for i, j in edges
    )
    count = 0
    for a, (ax0, ax1, ay0, ay1, i, j) in enumerate(segs):
        p, q = pts[i], pts[j]
        for bx0, bx1, by0, by1, k, l in segs[a + 1 :]:
            if bx0 > ax1:
                break  # sorted by left end: no later segment reaches back
            if by0 > ay1 or by1 < ay0 or k in (i, j) or l in (i, j):
                continue
            r, s = pts[k], pts[l]
            if _orient(p, q, r) * _orient(p, q, s) < 0 and _orient(r, s, p) * _orient(r, s, q) < 0:
                count += 1
    return count


def faces_proxy(pts: Sequence[IntPoint], r2: int) -> int:
    """Bounded faces the shadow arrangement would have if every crossing were
    proper (Euler: E - V + C with crossings as extra vertices).  It tracks
    the real face count, and face count sets the cost of build_shadow."""
    edges = eps_edges(pts, r2)
    return len(edges) - len(pts) + proper_crossings(pts, edges) + components(len(pts), edges)


def stratified(rng: random.Random, draw, cost, bands: Sequence[int], blocks: int) -> List[List]:
    """`blocks` blocks, each holding one draw per cost band.

    bands are increasing inclusive upper edges of cost; a draw fills its
    band if that band still needs one, and a draw above the last edge is
    discarded.  Every block then holds the same spread of costs whatever
    the seed, so runs on different seeds measure the same mix.
    """
    pending: List[List] = [[] for _ in bands]
    while any(len(p) < blocks for p in pending):
        item = draw(rng)
        c = cost(item)
        band = next((b for b, edge in enumerate(bands) if c <= edge), None)
        if band is not None and len(pending[band]) < blocks:
            pending[band].append(item)
    return [[slot[i] for slot in pending] for i in range(blocks)]


def point_document(pts: Sequence[IntPoint], den: int) -> Dict:
    return {
        "schema": SCHEMA,
        "dimension": 2,
        "points": [[f"{x}/{den}", f"{y}/{den}"] for x, y in pts],
    }


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, sort_keys=True))
    return str(path)


@dataclass
class Request:
    kind: str  # "cli", "loop" or "path"
    payload: object
    expect: Dict = field(default_factory=dict)


class CliWorkload:
    """A workload whose request is one in-process CLI call; its report is
    the bytes the call writes to stdout."""

    def execute(self, pkg, req: Request) -> bytes:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pkg.cli.main(list(req.payload))
        if code != 0:
            raise RuntimeError(f"rips-shadow exited with code {code}")
        return buf.getvalue().encode()

    def report(self, req: Request, out: bytes, error: Optional[str]) -> bytes:
        return out


# ---------------------------------------------------------------------------
# shadow_cert: the headline certificate through the CLI
# ---------------------------------------------------------------------------

# Twenty cost bands of faces_proxy: ventiles of 3000 draws of the two
# families below, after dropping draws above their 95th percentile (364
# faces, about 2.6 s per request).  Past it one request can take 10 s, and a
# run's figures would hinge on whether it drew one.  Request cost climbs
# steeply across the bands, so twenty, not ten, keep enough requests near
# the median and the tail percentile to hold them in place.
SHADOW_BANDS = (46, 63, 74, 84, 92, 101, 110, 121, 134, 145, 158, 169, 181, 192, 206, 226, 244, 272, 304, 364)
SHADOW_BLOCKS = 4


def _shadow_draw(rng: random.Random) -> List[IntPoint]:
    if rng.random() < 0.5:
        return lattice_points(rng, rng.randint(20, 32), 3 * 20)
    return lattice_points(rng, rng.randint(33, 45), 4 * 20)


class ShadowCert(CliWorkload):
    name = "shadow_cert"
    tail_pct = Fraction(3, 4)

    def generate(self, seed: int) -> List[List[List[IntPoint]]]:
        rng = random.Random(f"{self.name}:{seed}")
        return stratified(rng, _shadow_draw, lambda p: faces_proxy(p, 400), SHADOW_BANDS, SHADOW_BLOCKS)

    def prepare(self, pkg, inputs, workdir: Path) -> List[List[Request]]:
        blocks = []
        for bi, block in enumerate(inputs):
            reqs = []
            for si, pts in enumerate(block):
                path = _write_json(workdir / f"shadow_{bi}_{si}.json", point_document(pts, 20))
                edges = eps_edges(pts, 400)
                reqs.append(
                    Request(
                        "cli",
                        ["shadow", "--points", path, "--epsilon", "1"],
                        {"n": len(pts), "edges": len(edges), "b0": components(len(pts), edges)},
                    )
                )
            blocks.append(reqs)
        return blocks

    def check(self, req: Request, out: bytes) -> Optional[str]:
        r = json.loads(out)
        cert, sh, e = r["certificate"], r["shadow"], req.expect
        if not cert["pass"]:
            return "certificate did not pass"
        if r["census"]["0"] != e["n"] or r["census"]["1"] != e["edges"]:
            return "census disagrees with the benchmark's edge count"
        if cert["b0_rips"] != e["b0"]:
            return "b0 disagrees with the benchmark's components"
        if sh["betti"] != [cert["b0_rips"], cert["b1_rips"]]:
            return "shadow Betti numbers differ from Rips Betti numbers"
        euler_b1 = sh["betti"][0] - sh["vertices"] + sh["edges"] - sh["covered_faces"]
        if not euler_b1 == sh["holes"] == sh["bounded_faces"] - sh["covered_faces"] == cert["b1_rips"]:
            return "Euler b1, hole count and Rips b1 disagree"
        if r["integer_h1"] != {"rank": cert["b1_rips"], "torsion": []}:
            return "integer H1 is not free of rank b1"
        return None


# ---------------------------------------------------------------------------
# quasi_pipeline: torsion carried by planar quasi-Rips complexes
# ---------------------------------------------------------------------------

# Run it by hand (`--workload quasi_pipeline`); BENCHMARK.json leaves it out.
# Its requests take 0.3-2.2 s, so the 40 samples a p75 tail with ten beyond
# it needs take about a minute, more than a run of the benchmark may last.
#
# Torsion of each group's abelianization, worked out by hand.  Multi-relator
# presentations stay out: <a,b | a^2, b^2, abab> spends minutes in the
# flag-blowup Betti step alone.
QUASI_GROUPS = (
    ("rp2", None, ["2"]),
    ("torus", None, []),
    ("a3", {"generators": 1, "relators": ["aaa"]}, ["3"]),
    ("klein", None, ["2"]),
    ("a2b2", {"generators": 2, "relators": ["aabb"]}, ["2"]),
)
QUASI_BLOCKS = 4


class QuasiPipeline(CliWorkload):
    name = "quasi_pipeline"
    tail_pct = Fraction(3, 4)

    def generate(self, seed: int) -> List[List[Tuple[str, Optional[Dict], int]]]:
        rng = random.Random(f"{self.name}:{seed}")
        return [
            [(name, doc, rng.randrange(10**6)) for name, doc, _ in QUASI_GROUPS]
            for _ in range(QUASI_BLOCKS)
        ]

    def prepare(self, pkg, inputs, workdir: Path) -> List[List[Request]]:
        torsion = {name: t for name, _, t in QUASI_GROUPS}
        blocks = []
        for block in inputs:
            reqs = []
            for name, doc, seed in block:
                if doc is None:
                    source = ["--preset", name]
                else:
                    source = ["--presentation", _write_json(workdir / f"{name}.json", doc)]
                argv = ["quasi", *source, "--interval", "1,3/2", "--seed", str(seed)]
                reqs.append(Request("cli", argv, {"torsion": torsion[name]}))
            blocks.append(reqs)
        return blocks

    def check(self, req: Request, out: bytes) -> Optional[str]:
        r = json.loads(out)
        if r["h1_quasi"]["torsion"] != req.expect["torsion"]:
            return f"quasi H1 torsion {r['h1_quasi']['torsion']} != {req.expect['torsion']}"
        if not (r["torsion_transported"] and r["blowup_betti_agree"]):
            return "torsion not transported or blowup Betti numbers disagree"
        if r["monochromatic_violations"] != 0:
            return "monochromatic violations"
        return None


# ---------------------------------------------------------------------------
# pair_bound: rank of H1 between two quasi complexes vs the midpoint b1
# ---------------------------------------------------------------------------

PAIR_LOWER = ((5, 7), (6, 8), (7, 9), (5, 9))  # tenths, inside [1/2, 9/10]
PAIR_UPPER = ((9, 11), (10, 12), (11, 13))  # tenths, above every lower band
PAIR_POLICIES = ("none", "all", "random:1/2")
# Ventiles of faces_proxy at the midpoint scale, chosen as for shadow_cert.
PAIR_BANDS = (8, 11, 14, 17, 21, 25, 28, 33, 37, 42, 48, 54, 60, 66, 73, 82, 94, 109, 126, 160)
PAIR_BLOCKS = 10
RING_REQUEST = ("7/10,9/10,none", "19/10,11/5,all")


def _pair_draw(rng: random.Random):
    pts = lattice_points(rng, rng.randint(20, 40), 4 * 20)
    lo = PAIR_LOWER[rng.randrange(len(PAIR_LOWER))]
    up = PAIR_UPPER[rng.randrange(len(PAIR_UPPER))]
    pols = (PAIR_POLICIES[rng.randrange(3)], PAIR_POLICIES[rng.randrange(3)])
    return pts, lo, up, pols, rng.randrange(10**6)


def _mid_r2(lo, up) -> int:
    """Squared midpoint scale in 1/20 units: (20 * (lo' + up) / 2)^2."""
    return (lo[1] + up[0]) ** 2


class PairBound(CliWorkload):
    name = "pair_bound"
    tail_pct = Fraction(9, 10)

    def generate(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        return stratified(
            rng, _pair_draw, lambda d: faces_proxy(d[0], _mid_r2(d[1], d[2])), PAIR_BANDS, PAIR_BLOCKS
        )

    def prepare(self, pkg, inputs, workdir: Path) -> List[List[Request]]:
        ring = pkg.fixtures.annulus_ring_points()
        ring_path = _write_json(workdir / "ring.json", pkg.cli.points_to_document(ring))
        blocks = []
        for bi, block in enumerate(inputs):
            reqs = [
                Request(
                    "cli",
                    ["pair", "--points", ring_path, "--lower", RING_REQUEST[0], "--upper", RING_REQUEST[1]],
                    {"ring": True},
                )
            ]
            for si, (pts, lo, up, pols, seed) in enumerate(block):
                path = _write_json(workdir / f"pair_{bi}_{si}.json", point_document(pts, 20))
                lower = f"{lo[0]}/10,{lo[1]}/10,{pols[0]}"
                upper = f"{up[0]}/10,{up[1]}/10,{pols[1]}"
                mid_edges = eps_edges(pts, _mid_r2(lo, up))
                expect = {
                    "ring": False,
                    "forced_components": components(len(pts), eps_edges(pts, (2 * lo[0]) ** 2)),
                    "mid_components": components(len(pts), mid_edges),
                }
                argv = ["pair", "--points", path, "--lower", lower, "--upper", upper, "--seed", str(seed)]
                reqs.append(Request("cli", argv, expect))
            blocks.append(reqs)
        return blocks

    def check(self, req: Request, out: bytes) -> Optional[str]:
        r = json.loads(out)
        if not r["bound_ok"] or r["image_rank"] > r["mid_b1"]:
            return "pair bound violated"
        if r["shadow_mid_betti"][1] != r["mid_b1"]:
            return "midpoint shadow b1 differs from midpoint Rips b1"
        if req.expect["ring"]:
            if not r["image_rank"] == r["mid_b1"] == 1:
                return "ring fixture: expected image rank = midpoint b1 = 1"
            return None
        if r["lower_forced_components"] != req.expect["forced_components"]:
            return "forced components disagree with the benchmark's count"
        if r["shadow_mid_betti"][0] != req.expect["mid_components"]:
            return "midpoint shadow b0 disagrees with the benchmark's count"
        return None


# ---------------------------------------------------------------------------
# loop_queries: the read side of a shadow, built once and queried many times
# ---------------------------------------------------------------------------

# Lattice side and disk count of each set: every seed gets the same shapes,
# since query cost follows set size and a seed drawing only large sets
# would otherwise run a quarter slower.  Sixteen sets, so that the cost of
# any one seed's hole layouts averages out.
LOOP_SHAPES = ((7, 3), (7, 4), (8, 3), (8, 4)) * 4
LOOP_BLOCKS = 12
# Per set and block: three loop forms on an uncovered and on a covered face,
# then two lifted paths.  Half the loop queries use uncovered faces.
LOOP_PLAN = (
    ("loop", False), ("loop", True), ("conj", False), ("conj", True),
    ("square", False), ("square", True), ("path", None), ("path", None),
)


def holey_lattice(rng: random.Random, m: int, disks: int) -> List[IntPoint]:
    """Jittered m x m lattice of spacing 7/10 (coordinates in 1/100) with
    `disks` disks of radius 7/10 removed, each centred in an interior cell.

    A disk so placed removes the four corners of its cell and no other
    point.  Every point left is more than eps = 1 from the cell's centre,
    so no Rips triangle covers the centre, and the lattice's outer frame,
    which no disk reaches, encloses it: every set has a hole.  The cells
    lie at least three cells apart, so lattice points remain between any
    two of them and the disks' holes never merge into one long hole: a
    shape's sets have the same size on every seed, and the costliest
    queries, the loops around holes, cost about the same.
    """
    while True:
        cells = [(rng.randint(1, m - 3), rng.randint(1, m - 3)) for _ in range(disks)]
        if all(max(abs(a - c), abs(b - d)) >= 3 for (a, b), (c, d) in itertools.combinations(cells, 2)):
            break
    centres = [(70 * i + 35, 70 * j + 35) for i, j in cells]
    pts = []
    for i in range(m):
        for j in range(m):
            x, y = 70 * i + rng.randint(-5, 5), 70 * j + rng.randint(-5, 5)
            if all((x - cx) ** 2 + (y - cy) ** 2 > 70**2 for cx, cy in centres):
                pts.append((x, y))
    return pts


class LoopQueries:
    name = "loop_queries"
    tail_pct = Fraction(19, 20)

    def generate(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        sets = [holey_lattice(rng, m, disks) for m, disks in LOOP_SHAPES]
        plan = [
            [
                (s, kind, covered, rng.randrange(10**9), [rng.randrange(10**9) for _ in range(12)])
                for s in range(len(LOOP_SHAPES))
                for kind, covered in LOOP_PLAN
            ]
            for _ in range(LOOP_BLOCKS)
        ]
        return {"sets": sets, "plan": plan}

    def prepare(self, pkg, inputs, workdir: Path) -> List[List[Request]]:
        eps = Fraction(1)
        built = []
        for pts in inputs["sets"]:
            c = pkg.complexes.build_rips([(Fraction(x, 100), Fraction(y, 100)) for x, y in pts], eps, 2)
            s = pkg.shadow.build_shadow(c)
            adj: Dict[int, List[int]] = {v: [] for v in range(len(pts))}
            for i, j in eps_edges(pts, 100**2):
                adj[i].append(j)
                adj[j].append(i)
            # faces in an order fixed by their vertices, not by the witness
            # points the shadow happens to sort them by
            faces = sorted(s.faces, key=lambda f: sorted(f.vertex_ids))
            by_cover = {
                cov: [f for f in faces if f.covered == cov] for cov in (False, True)
            }
            if not by_cover[False]:
                raise RuntimeError("a loop_queries set has no hole")
            darts: Dict[int, List[int]] = {}
            for eid, e in enumerate(s.edges):
                darts.setdefault(e.u, []).append(eid)
                darts.setdefault(e.v, []).append(eid)
            built.append(({"pts": pts, "c": c, "s": s}, adj, by_cover, darts))
        blocks = []
        for block in inputs["plan"]:
            reqs = []
            for set_idx, kind, covered, pick, steps in block:
                ctx, adj, by_cover, darts = built[set_idx]
                s = ctx["s"]
                if kind == "path":
                    reqs.append(Request("path", (ctx, self._shadow_path(s, darts, pick, steps))))
                    continue
                pool = by_cover[covered] or by_cover[not covered]
                face = pool[pick % len(pool)]
                conj_steps = steps[: 1 + steps[0] % 3] if kind == "conj" else None
                reqs.append(
                    Request("loop", (ctx, adj, kind, face.edge_ids, conj_steps), {"contractible": face.covered})
                )
            blocks.append(reqs)
        return blocks

    @staticmethod
    def _shadow_path(s, darts, pick, steps) -> Tuple[int, ...]:
        """A walk of shadow edges: a start edge, then up to 11 edges each
        sharing the previous edge's head."""
        eid = pick % len(s.edges)
        path = [eid]
        head = s.edges[eid].v
        for r in steps[1:]:
            options = [e for e in darts[head] if e != path[-1]]
            if not options:
                break
            nxt = options[r % len(options)]
            path.append(nxt)
            e = s.edges[nxt]
            head = e.u if e.v == head else e.v
        return tuple(path)

    def execute(self, pkg, req: Request):
        lifting = pkg.lifting
        if req.kind == "path":
            ctx, path = req.payload
            return lifting.lift_path(path, ctx["s"], ctx["c"])
        ctx, adj, kind, face_path, conj_steps = req.payload
        c, s = ctx["c"], ctx["s"]
        verts = lifting.lift_loop(face_path, s, c).vertices
        if kind == "square":
            verts = verts + verts[1:]
        elif kind == "conj":
            tail = [verts[0]]
            for r in conj_steps:
                nbrs = adj[tail[-1]]
                tail.append(nbrs[r % len(nbrs)])
            prefix = tail[::-1]  # a walk ending at the loop's base vertex
            verts = tuple(prefix) + verts[1:] + tuple(tail[1:])
        verdict = lifting.is_contractible(lifting.RipsWalk(tuple(verts)), c, s)
        return b"contractible" if verdict else b"essential"

    def check(self, req: Request, out) -> Optional[str]:
        if req.kind == "loop":
            want = b"contractible" if req.expect["contractible"] else b"essential"
            return None if out == want else f"loop verdict {out.decode()} != face coverage"
        ctx = req.payload[0]
        pts, c = ctx["pts"], ctx["c"]
        if not out.is_valid(c):
            return "lifted path is not a Rips walk"
        for a, b in zip(out.vertices, out.vertices[1:]):
            if a == b or (pts[a][0] - pts[b][0]) ** 2 + (pts[a][1] - pts[b][1]) ** 2 > 100**2:
                return "lifted path steps farther than eps"
        return None

    def report(self, req: Request, out, error: Optional[str]) -> bytes:
        """Verdict strings: the loop verdict, or whether a lifted path held."""
        if req.kind == "loop":
            return out
        return b"invalid" if error else b"valid"


WORKLOADS = {w.name: w for w in (ShadowCert(), QuasiPipeline(), LoopQueries(), PairBound())}
