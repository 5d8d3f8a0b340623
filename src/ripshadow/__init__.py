"""Exact-arithmetic Rips complexes, planar shadows, and homology certificates."""

from .complexes import (
    SimplicialComplex,
    build_rips,
    flag_complex,
    induced_span,
)
from .fixtures import (
    annulus_ring_points,
    cross_polytope_points,
    crossing_triangle_fixture,
    four_d_points,
    hexagon_points,
)
from .geometry import (
    Point,
    dist2,
    make_point,
)
from .homology import (
    BettiProfile,
    SmithDecomposition,
    betti_numbers,
    boundary_matrix,
    integer_h1,
)
from .lifting import (
    HoleWord,
    RipsWalk,
    chaining_sequence,
    is_contractible,
    lift_loop,
    lift_path,
    loop_word,
    walk_word,
)
from .quasi import (
    EdgePolicy,
    GroupPresentation,
    UncertaintyInterval,
    blowup,
    build_quasi,
    embed_blowup,
    pair_image_analysis,
    presentation_to_colored_complex,
    preset_presentation,
    quasi_integer_h1,
    run_pipeline,
)
from .shadow import (
    ShadowComplex,
    build_shadow,
    hole_anchors,
    render_svg,
    shadow_betti,
)

__version__ = "0.1.0"

__all__ = [
    "BettiProfile",
    "EdgePolicy",
    "GroupPresentation",
    "HoleWord",
    "Point",
    "RipsWalk",
    "ShadowComplex",
    "SimplicialComplex",
    "SmithDecomposition",
    "UncertaintyInterval",
    "annulus_ring_points",
    "betti_numbers",
    "blowup",
    "boundary_matrix",
    "build_quasi",
    "build_rips",
    "build_shadow",
    "chaining_sequence",
    "cross_polytope_points",
    "crossing_triangle_fixture",
    "dist2",
    "embed_blowup",
    "flag_complex",
    "four_d_points",
    "hexagon_points",
    "hole_anchors",
    "induced_span",
    "integer_h1",
    "is_contractible",
    "lift_loop",
    "lift_path",
    "loop_word",
    "make_point",
    "pair_image_analysis",
    "presentation_to_colored_complex",
    "preset_presentation",
    "quasi_integer_h1",
    "render_svg",
    "run_pipeline",
    "shadow_betti",
    "walk_word",
]
