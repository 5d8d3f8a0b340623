"""Command-line interface: ingest point sets, run analyses, emit reports.

Reports are JSON with a fixed key order and rationals serialized as exact
strings, so identical inputs and seeds produce identical bytes.  Figures
are SVG, written next to the reports.  Exit codes: 0 success, 2 parse or
validation error, 3 audit/consistency failure, 4 wrong ambient dimension.

`main` pauses CPython's cyclic garbage collector while one command runs
and then restores the state it found, so a caller that had it off keeps
it off.  Reference counting frees what a command builds; the passes the
collector would run on its allocations only re-walk live containers, the
arrangement's above all.  On the `shadow` certificate of 1/20-lattice
sets of 20-45 points at eps 1 (240 requests, each followed by a check of
its report, Python 3.11 on a shared 2-vCPU host), the collector ran 2.9
times and took 0.45 ms per request, about 6 % of it, to free about 33
objects; with the pause it runs 0.07 times and takes 0.005 ms.  Those 33
objects are the one cycle a command leaves, the closures `json.dumps`
builds for `indent`, which a later pass frees.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import SimplicialComplex, build_rips
from .errors import AuditError, ConsistencyError
from .fixtures import (
    annulus_ring_points,
    cross_polytope_points,
    crossing_triangle_fixture,
    four_d_points,
    hexagon_points,
)
from .geometry import Point, format_rational, make_point, parse_rational
from .homology import SmithDecomposition, betti_numbers, integer_h1
from .lifting import RipsWalk, walk_word
from .quasi import (
    EdgePolicy,
    UncertaintyInterval,
    pair_image_analysis,
    preset_presentation,
    run_pipeline,
)
from .shadow import ShadowError, build_shadow, hole_anchors, render_svg, shadow_betti, svg_view_box
from .words import GroupPresentation

SCHEMA = "rips-shadow/1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_AUDIT = 3
EXIT_DIMENSION = 4


class CLIError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# point-set documents
# ---------------------------------------------------------------------------


def points_to_document(points: Sequence[Point]) -> Dict:
    return {
        "schema": SCHEMA,
        "dimension": len(points[0]) if points else 0,
        "points": [[format_rational(c) for c in p] for p in points],
    }


def document_to_points(doc: Dict) -> List[Point]:
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise CLIError(EXIT_PARSE, f"not a {SCHEMA} point document")
    dim = doc.get("dimension")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise CLIError(EXIT_PARSE, f"dimension must be a positive integer, not {dim!r}")
    rows = doc.get("points", [])
    if not isinstance(rows, list):
        raise CLIError(EXIT_PARSE, "points must be a list of coordinate lists")
    pts = []
    for row in rows:
        if not isinstance(row, list) or len(row) != dim:
            raise CLIError(EXIT_PARSE, f"point {row!r} is not a list of {dim} coordinates")
        # JSON floats are binary (0.1 is not 1/10) and bools are not numbers
        bad = [x for x in row if isinstance(x, bool) or not isinstance(x, (str, int))]
        if bad:
            hint = "; quote decimals as strings" if isinstance(bad[0], float) else ""
            raise CLIError(
                EXIT_PARSE, f"coordinate {bad[0]!r} is not a string or an integer{hint}"
            )
        try:
            pts.append(make_point(row))
        except (ValueError, ZeroDivisionError) as exc:
            raise CLIError(EXIT_PARSE, f"bad coordinate in {row}: {exc}")
    if not pts:
        raise CLIError(EXIT_PARSE, "no points in document")
    return pts


def load_points(path: str) -> List[Point]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CLIError(EXIT_PARSE, f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CLIError(EXIT_PARSE, f"{path} is not valid JSON: {exc}")
    return document_to_points(doc)


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CLIError(EXIT_PARSE, f"cannot parse {what} {text!r} as a rational: {exc}")


def _parse_interval(text: str) -> UncertaintyInterval:
    parts = text.split(",")
    if len(parts) != 2:
        raise CLIError(EXIT_PARSE, f"interval must be 'eps,eps_prime', got {text!r}")
    eps = _parse_rational(parts[0], "eps")
    eps_p = _parse_rational(parts[1], "eps_prime")
    return UncertaintyInterval(eps, eps_p)


def _parse_policy(text: str, seed: int) -> EdgePolicy:
    if text == "none":
        return EdgePolicy.none()
    if text == "all":
        return EdgePolicy.all()
    if text.startswith("random:"):
        prob = _parse_rational(text.split(":", 1)[1], "probability")
        return EdgePolicy.seeded_random(seed, prob)
    raise CLIError(
        EXIT_PARSE, f"unknown policy {text!r}; use none, all, or random:P"
    )


def _parse_bound_spec(text: str, seed: int) -> Tuple[UncertaintyInterval, EdgePolicy]:
    parts = text.split(",")
    if len(parts) != 3:
        raise CLIError(
            EXIT_PARSE, f"bound must be 'eps,eps_prime,policy', got {text!r}"
        )
    interval = _parse_interval(",".join(parts[:2]))
    return interval, _parse_policy(parts[2], seed)


def _check_dim_cap(dim_cap: int, n_points: int) -> None:
    # the H1 and shadow decisions all read the 2-skeleton.  Every level from
    # n_points up is empty, yet the flag complex stores one per unit of the
    # cap and the report lists each: time and memory grow with the cap.
    if dim_cap < 2:
        raise CLIError(EXIT_PARSE, f"--dim-cap must be at least 2, got {dim_cap}")
    limit = max(3, n_points)
    if dim_cap > limit:
        raise CLIError(
            EXIT_PARSE, f"--dim-cap must be at most max(3, n_points) = {limit}, got {dim_cap}"
        )


def _check_svg_range(points: Sequence[Point]) -> None:
    # the points are shadow vertices and every other vertex, anchor and
    # overlay point lies between them, so the figure's view box is theirs
    try:
        for v in (*(x for p in points for x in p), *svg_view_box(points)):
            float(v)
    except OverflowError:
        raise CLIError(EXIT_PARSE, "coordinates beyond float range cannot be drawn in an SVG")


def _parse_loop(text: str, n_points: int) -> RipsWalk:
    try:
        verts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CLIError(EXIT_PARSE, f"loop must be comma-separated vertex ids: {text!r}")
    if len(verts) < 2:
        raise CLIError(EXIT_PARSE, "loop needs at least two vertices")
    if any(v < 0 or v >= n_points for v in verts):
        raise CLIError(EXIT_PARSE, "loop vertex id out of range")
    walk = RipsWalk(vertices=verts)
    if not walk.closed:
        raise CLIError(EXIT_PARSE, "loop must start and end at the same vertex")
    return walk


# ---------------------------------------------------------------------------
# report fragments
# ---------------------------------------------------------------------------


def _census(c: SimplicialComplex) -> Dict[str, int]:
    return {str(k): len(level) for k, level in enumerate(c.simplices)}


def _betti_block(c: SimplicialComplex) -> Dict:
    b = betti_numbers(c, max(0, min(c.dim(), c.dim_cap - 1)))
    return {"Q": list(b.q), "GF2": list(b.gf2)}


def _h1_block(h: SmithDecomposition) -> Dict:
    return {"rank": h.rank, "torsion": [str(d) for d in h.torsion]}


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CLIError(EXIT_PARSE, f"cannot write {path}: {exc}")


def _write_report(report: Dict, path: Optional[str]) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        _write_text(path, text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_rips(args) -> int:
    points = load_points(args.points)
    _check_dim_cap(args.dim_cap, len(points))
    c = build_rips(points, _parse_rational(args.epsilon, "epsilon"), args.dim_cap)
    report = {
        "schema": SCHEMA,
        "command": "rips",
        "epsilon": args.epsilon,
        "dim_cap": args.dim_cap,
        "n_points": len(points),
        "census": _census(c),
        "betti": _betti_block(c),
        "integer_h1": _h1_block(integer_h1(c)),
    }
    _write_report(report, args.out)
    return EXIT_OK


def cmd_shadow(args) -> int:
    points = load_points(args.points)
    _check_dim_cap(args.dim_cap, len(points))
    if any(len(p) != 2 for p in points):
        raise CLIError(EXIT_DIMENSION, "shadow analysis needs 2-dimensional points")
    eps = _parse_rational(args.epsilon, "epsilon")
    walk = _parse_loop(args.loop, len(points)) if args.loop else None
    if args.svg:
        _check_svg_range(points)
    c = build_rips(points, eps, args.dim_cap)
    if walk is not None and not walk.is_valid(c):
        raise CLIError(EXIT_PARSE, "loop is not a walk in the Rips complex")
    s = build_shadow(c)
    b0, b1 = shadow_betti(s)
    betti = _betti_block(c)
    h = integer_h1(c)
    # b1 over Q is the free rank of H1 over Z
    rb0, rb1 = betti["Q"][0], h.rank
    anchors = hole_anchors(s)
    certificate = {
        "b0_rips": rb0,
        "b0_shadow": b0,
        "b1_rips": rb1,
        "b1_shadow": b1,
        "b0_match": rb0 == b0,
        "b1_match": rb1 == b1,
        "h1_torsion_free": not h.torsion,
    }
    certificate["pass"] = (
        certificate["b0_match"]
        and certificate["b1_match"]
        and certificate["h1_torsion_free"]
    )
    report = {
        "schema": SCHEMA,
        "command": "shadow",
        "epsilon": args.epsilon,
        "dim_cap": args.dim_cap,
        "census": _census(c),
        "betti": betti,
        "integer_h1": _h1_block(h),
        "shadow": {
            "vertices": len(s.triples),
            "edges": len(s.edges),
            "bounded_faces": len(s.faces),
            "covered_faces": len(s.covered_faces()),
            "betti": [b0, b1],
            "holes": len(anchors),
            "anchors": [[format_rational(a[0]), format_rational(a[1])] for a in anchors],
        },
        "certificate": certificate,
    }
    overlay = None
    if walk is not None:
        word = walk_word(walk, c, s)
        report["loop"] = {
            "vertices": list(walk.vertices),
            "word": str(word),
            "contractible": word.is_identity,
        }
        overlay = [c.coords[v] for v in walk.vertices]
    if args.svg:
        _write_text(args.svg, render_svg(s, overlay=overlay))
    _write_report(report, args.out)
    return EXIT_OK


def cmd_quasi(args) -> int:
    if bool(args.preset) == bool(args.presentation):
        raise CLIError(EXIT_PARSE, "give exactly one of --preset / --presentation")
    if args.preset:
        pres = preset_presentation(args.preset)
        source = {"preset": args.preset}
    else:
        try:
            with open(args.presentation) as fh:
                doc = json.load(fh)
            pres = GroupPresentation.parse(doc["generators"], doc["relators"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise CLIError(EXIT_PARSE, f"bad presentation file: {exc}")
        source = {"presentation_file": args.presentation}
    interval = _parse_interval(args.interval)
    res = run_pipeline(pres, interval, seed=args.seed)
    report = {
        "schema": SCHEMA,
        "command": "quasi",
        **source,
        "generators": pres.n_generators,
        "relators": len(pres.relators),
        "interval": [format_rational(interval.eps), format_rational(interval.eps_prime)],
        "seed": args.seed,
        "k_census": _census(res.k),
        "betti_k": list(res.betti_k),
        "betti_flag_blowup": list(res.betti_flag_blowup),
        "blowup_betti_agree": res.blowup_betti_agrees,
        "blowup_vertices": res.blowup.n_vertices,
        "quasi_vertices": res.embedded.complex.n_vertices,
        "quasi_edges": len(res.embedded.complex.edges),
        "h1_k": _h1_block(res.h1_k),
        "h1_quasi": _h1_block(res.h1_rq),
        "torsion_transported": res.torsion_transported,
        "monochromatic_violations": res.mono_violations,
        "distance_audit_margin": format_rational(res.embedded.audit_margin),
    }
    _write_report(report, args.out)
    return EXIT_OK


def cmd_pair(args) -> int:
    points = load_points(args.points)
    lower = _parse_bound_spec(args.lower, args.seed)
    upper = _parse_bound_spec(args.upper, args.seed + 1)
    rep = pair_image_analysis(points, lower, upper)
    report = {
        "schema": SCHEMA,
        "command": "pair",
        "lower": args.lower,
        "upper": args.upper,
        "seed": args.seed,
        "image_rank": rep.image_rank,
        "mid_eps": format_rational(rep.mid_eps),
        "mid_b1": rep.mid_b1,
        "bound_ok": rep.bound_ok,
        "lower_b1": rep.lower_b1,
        "upper_b1": rep.upper_b1,
        "lower_forced_components": rep.lower_forced_components,
    }
    if rep.shadow_mid_betti is not None:
        report["shadow_mid_betti"] = list(rep.shadow_mid_betti)
    _write_report(report, args.out)
    return EXIT_OK


FIXTURES = {
    "hexagon": lambda: hexagon_points(Fraction(11, 20)),
    "cross4": lambda: cross_polytope_points(4),
    "fourd": four_d_points,
    "crossing": lambda: crossing_triangle_fixture()[0],
    "ring": annulus_ring_points,
}


def cmd_fixture(args) -> int:
    pts = FIXTURES[args.name]()
    _write_report(points_to_document(pts), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache  # parsing does not change a parser
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rips-shadow",
        description="Exact Rips/quasi-Rips complexes, planar shadows, homology certificates",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rips", help="build a Rips complex and report its homology")
    p.add_argument("--points", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--dim-cap", dest="dim_cap", type=int, default=3)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_rips)

    p = sub.add_parser("shadow", help="build the planar shadow and verify the certificate")
    p.add_argument("--points", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--dim-cap", dest="dim_cap", type=int, default=3)
    p.add_argument("--svg")
    p.add_argument("--loop", help="closed vertex walk, e.g. 0,1,2,0")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_shadow)

    p = sub.add_parser("quasi", help="run the presentation-to-quasi-Rips pipeline")
    p.add_argument("--preset", choices=["torus", "rp2", "klein"])
    p.add_argument("--presentation", help="JSON file {generators, relators}")
    p.add_argument("--interval", required=True, help="eps,eps_prime")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_quasi)

    p = sub.add_parser("pair", help="persistence-style analysis of two quasi complexes")
    p.add_argument("--points", required=True)
    p.add_argument("--lower", required=True, help="eps,eps_prime,policy")
    p.add_argument("--upper", required=True, help="eps,eps_prime,policy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("fixture", help="export a named fixture as a point-set document")
    p.add_argument("--name", required=True, choices=sorted(FIXTURES))
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_fixture)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    # the cyclic collector pauses while the command runs (module docstring)
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse has printed the usage or the help
            return exc.code
        try:
            return args.func(args)
        except CLIError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.code
        except ShadowError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DIMENSION
        except (AuditError, ConsistencyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_AUDIT
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
