"""Per-module spans and counters for ripshadow, recorded from outside it.

The program has no trace hooks of its own, so the tracer replaces the
public functions of each layer module with wrappers, in every
``ripshadow`` namespace that binds them (``ripshadow.cli.build_shadow``
and ``ripshadow.shadow.build_shadow`` are the same function reached through
two names).  Wrappers are installed for one traced request at a time and
removed afterwards, so untraced requests run the unmodified code.

Spans carry a name, start, end, parent span and request id; they stay in
memory and are written out once when the run ends.  Functions too small to
span are only counted.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Dict, List, NamedTuple

# The package's modules, one layer each; `fixtures` only supplies inputs.
LAYERS = ("cli", "complexes", "geometry", "shadow", "homology", "lifting", "quasi")
# geometry predicates run hundreds of thousands of times per request: count them.
COUNTED = {"geometry": ("dist2", "segment_intersection", "on_segment")}
# cli helpers (parsing, report assembly) are part of cli.main's own time.
SPANNED_ONLY = {"cli": ("main",)}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level span
    request: int


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name: each span's duration minus its child
    spans' durations.  Spans come from one call stack, so children run one
    after another inside their parent."""
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.end - s.start
        if s.parent >= 0:
            out[spans[s.parent].name] -= s.end - s.start
    return dict(out)


class Tracer:
    """Wraps the layer functions of one imported ``ripshadow`` package."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._open: Counter = Counter()  # span names currently on the stack
        self._request = -1
        self._built: Dict[tuple, object] = {}  # (id(complex), k) -> complex
        self._patches = self._plan()
        self._installed = False

    # -- wrapping -----------------------------------------------------------

    def _plan(self):
        namespaces = [
            m
            for name, m in sorted(sys.modules.items())
            if name == "ripshadow" or name.startswith("ripshadow.")
        ]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"ripshadow.{layer}"]
            for fname, fn in vars(mod).items():
                if fname.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                if layer in COUNTED:
                    if fname in COUNTED[layer]:
                        wrappers[fn] = self._counter(f"{layer}.{fname}", fn)
                elif fname in SPANNED_ONLY.get(layer, (fname,)):
                    wrappers[fn] = self._spanner(f"{layer}.{fname}", fn)
        patches = []
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    patches.append((ns, attr, value, wrappers[value]))
        return patches

    def _spanner(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, 0.0, 0.0, parent, self._request))
            self._stack.append(idx)
            self._open[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open[name] -= 1
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent, self._request)
            self.counts[name + ".calls"] += 1
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"
        if name == "geometry.dist2":
            opened = self._open

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                if opened["quasi.embed_blowup"]:
                    counts["quasi.embed_blowup.pairs_audited"] += 1
                return fn(*args, **kwargs)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)
        self._installed = False

    @contextlib.contextmanager
    def request(self, request_id: int):
        """Trace one request: wrappers are in place only inside the block."""
        self._request = request_id
        self._built.clear()
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self._built.clear()
            self._request = -1

    # -- output ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def _args_of(fn, args, kwargs) -> Dict[str, object]:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _shadow_sizes(tr: Tracer, fn, args, kwargs, result) -> None:
    tr.counts["shadow.arrangement_edges"] += len(result.edges)
    tr.counts["shadow.arrangement_faces"] += len(result.faces)


def _boundary_repeat(tr: Tracer, fn, args, kwargs, result) -> None:
    # the complex is kept referenced until the request ends, so its id
    # cannot be reused by another complex built in the same request
    bound = _args_of(fn, args, kwargs)
    key = (id(bound["c"]), bound["k"])
    if key in tr._built:
        tr.counts["homology.boundary_matrix.repeats"] += 1
    else:
        tr._built[key] = bound["c"]


def _columns_reduced(tr: Tracer, fn, args, kwargs, result) -> None:
    tr.counts["homology.columns_reduced"] += len(_args_of(fn, args, kwargs)["columns"])


def _simplices(counter: str):
    def hook(tr: Tracer, fn, args, kwargs, result) -> None:
        tr.counts[counter] += sum(len(level) for level in result.simplices)

    return hook


_HOOKS = {
    "shadow.build_shadow": _shadow_sizes,
    "homology.boundary_matrix": _boundary_repeat,
    "homology.rank_gf2": _columns_reduced,
    "homology.rank_int": _columns_reduced,
    "homology.snf_diagonal": _columns_reduced,
    "complexes.flag_complex": _simplices("complexes.simplices"),
    "quasi.flag_blowup": _simplices("quasi.flag_blowup.simplices"),
}

# Per-layer metrics.  Self times and counts are averaged per traced request;
# the two ratios have their own base (boundary_matrix builds, loop queries).
SELF_TIMES = (
    "shadow.build_shadow",
    "shadow.shadow_betti",
    "shadow.hole_anchors",
    "homology.betti_numbers",
    "homology.integer_h1",
    "homology.rank_gf2",
    "homology.rank_int",
    "homology.snf_diagonal",
    "homology.induced_h1_rank",
    "homology.boundary_matrix",
    "quasi.presentation_to_colored_complex",
    "quasi.blowup",
    "quasi.flag_blowup",
    "quasi.embed_blowup",
    "quasi.quasi_integer_h1",
    "quasi.monochromatic_violations",
    "quasi.build_quasi",
    "quasi.pair_image_analysis",
    "complexes.build_rips",
    "complexes.flag_complex",
    "complexes.induced_span",
    "lifting.lift_loop",
    "lifting.lift_path",
    "lifting.chaining_sequence",
    "lifting.walk_word",
    "lifting.loop_word",
    "lifting.is_contractible",
    "cli.main",
)
PER_REQUEST_COUNTS = (
    "shadow.build_shadow.calls",
    "shadow.arrangement_edges",
    "shadow.arrangement_faces",
    "shadow.hole_anchors.calls",
    "homology.boundary_matrix.calls",
    "homology.columns_reduced",
    "quasi.flag_blowup.simplices",
    "quasi.embed_blowup.pairs_audited",
    "complexes.simplices",
    "complexes.induced_span.calls",
    "lifting.chaining_sequence.calls",
    "geometry.dist2.calls",
    "geometry.segment_intersection.calls",
    "geometry.on_segment.calls",
    "cli.report_bytes",
)


def per_layer_metrics(
    tracer: Tracer, n_requests: int, n_loop_queries: int, overhead_s: float
) -> Dict[str, Dict[str, object]]:
    """Per-layer figures of a traced run, averaged per traced request."""
    own = self_times(tracer.spans)
    c = tracer.counts
    out: Dict[str, Dict[str, object]] = {}
    for name in SELF_TIMES:
        out[name + ".self_s"] = {"value": own.get(name, 0.0) / n_requests, "unit": "s"}
    for name in PER_REQUEST_COUNTS:
        out[name] = {"value": c[name] / n_requests, "unit": "count"}
    builds = c["homology.boundary_matrix.calls"]
    out["homology.boundary_matrix.repeat_ratio"] = {
        "value": c["homology.boundary_matrix.repeats"] / builds if builds else 0.0,
        "unit": "ratio",
    }
    out["shadow.hole_anchors.calls_per_loop_query"] = {
        "value": c["shadow.hole_anchors.calls"] / n_loop_queries if n_loop_queries else 0.0,
        "unit": "count",
    }
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    out["trace.requests"] = {"value": n_requests, "unit": "count"}
    return out
