"""Tests of the benchmark itself (not of ripshadow).

    python -m pytest -q perfbench/tests
"""

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, self_times  # noqa: E402
from workloads import LOOP_SHAPES, SHADOW_BANDS, WORKLOADS, Request, holey_lattice  # noqa: E402


# -- tail percentile ----------------------------------------------------------


def test_tail_is_nearest_rank_with_count_beyond():
    samples = list(range(40, 0, -1))  # order must not matter
    assert run.tail(samples, Fraction(3, 4)) == (30, 10)
    assert run.tail(samples, Fraction(99, 100)) == (40, 0)
    assert run.tail([5.0], Fraction(1, 3)) == (5.0, 0)


@pytest.mark.parametrize(
    "pct, n", [(Fraction(1, 3), 15), (Fraction(3, 4), 40), (Fraction(9, 10), 100), (Fraction(99, 100), 1000)]
)
def test_min_samples_leaves_ten_beyond(pct, n):
    assert run.min_samples(pct) == n
    assert run.tail(range(n), pct)[1] == 10
    assert run.tail(range(n - 1), pct)[1] < 10


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("leaf", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 6.0, 0, 0),
        Span("a", 7.0, 8.5, 0, 0),  # a second call of the same function
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 3.0 - 1.0 - 1.5)
    assert own["a"] == pytest.approx((3.0 - 1.0) + 1.5)
    assert own["leaf"] == pytest.approx(1.0)
    assert own["b"] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


# -- host-speed normalisation --------------------------------------------------


def test_timeline_brackets_every_request(monkeypatch):
    readings = iter([1, 2, 3, 4])
    monkeypatch.setattr(hostspeed, "calibrate", lambda: next(readings) * hostspeed.REF_S)
    monkeypatch.setattr(hostspeed, "EVERY_S", 0.0)  # calibrate before every request
    timeline = hostspeed.Timeline()
    for wall in (0.3, 0.5):
        timeline.before_request()
        timeline.record(wall)
    assert timeline.finish() == pytest.approx([0.3 * 2 / (2 + 3), 0.5 * 2 / (3 + 4)])
    assert timeline.calibrations == pytest.approx([r * hostspeed.REF_S for r in (1, 2, 3, 4)])


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    w = WORKLOADS[name]
    assert w.generate(7) == w.generate(7)
    assert w.generate(7) != w.generate(8)
    assert run.inputs_digest(w.generate(7)) == run.inputs_digest(w.generate(7))


def test_shadow_cert_blocks_hold_one_set_per_cost_band():
    blocks = WORKLOADS["shadow_cert"].generate(3)
    for block in blocks:
        assert len(block) == len(SHADOW_BANDS)
        for pts in block:
            assert len(set(pts)) == len(pts)
            side = 60 if len(pts) <= 32 else 80
            assert 20 <= len(pts) <= 45
            assert all(0 <= x <= side and 0 <= y <= side for x, y in pts)


def test_loop_sets_keep_thirty_to_sixty_points():
    rng = random.Random(0)
    for _ in range(50):
        for m, disks in LOOP_SHAPES:
            assert 30 <= len(holey_lattice(rng, m, disks)) <= 60


# -- wrappers -----------------------------------------------------------------


def _bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "ripshadow" or name.startswith("ripshadow.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_wrappers_are_removed_after_a_traced_request(tmp_path):
    pkg = run.import_program()
    before = _bindings()
    tracer = tracing.Tracer()
    hexagon = tmp_path / "hexagon.json"
    points = pkg.fixtures.hexagon_points(Fraction(11, 20))
    hexagon.write_text(json.dumps(pkg.cli.points_to_document(points)))
    w = WORKLOADS["shadow_cert"]
    req = Request("cli", ["shadow", "--points", str(hexagon), "--epsilon", "1"])
    with tracer.request(0):
        # one wrapper, reached through every namespace that binds the function
        assert pkg.cli.build_shadow is pkg.shadow.build_shadow
        assert pkg.cli.build_shadow is not before[("ripshadow.shadow", "build_shadow")]
        w.execute(pkg, req)
    assert _bindings() == before
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "shadow.build_shadow", "complexes.build_rips", "homology.integer_h1"} <= names
    assert all(s.request == 0 for s in tracer.spans)
    assert tracer.counts["shadow.build_shadow.calls"] == 1
    assert tracer.counts["geometry.dist2.calls"] == 15  # 6 points, all pairs
    # the shadow command builds d2 of the Rips complex more than once
    assert tracer.counts["homology.boundary_matrix.repeats"] >= 1


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    res = run.Result()
    for t in (0.2, 0.1, 0.3) * 20:
        res.record(t, b"report", None)
    _, e2e = run.end_to_end(WORKLOADS["shadow_cert"], [0.5, 0.4, 0.6], res, res.times)
    run.import_program()
    layers = tracing.per_layer_metrics(tracing.Tracer(), n_requests=1, n_loop_queries=0, overhead_s=0.0)
    for key, printed in (("end_to_end", e2e), ("per_layer", layers)):
        assert {m["name"]: m["unit"] for m in spec[key]} == {k: v["unit"] for k, v in printed.items()}
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


# -- checks -------------------------------------------------------------------


def test_checks_reject_a_wrong_report(tmp_path):
    w = WORKLOADS["shadow_cert"]
    pkg = run.import_program()
    req = w.prepare(pkg, w.generate(1)[:1], tmp_path)[0][0]
    out = w.execute(pkg, req)
    assert w.check(req, out) is None
    report = json.loads(out)
    report["shadow"]["holes"] += 1
    assert w.check(req, json.dumps(report).encode()) is not None


# -- whole runs in fresh processes ---------------------------------------------


def _run(cwd, *args, hashseed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def _copy_tree(dest):
    skip = shutil.ignore_patterns("work", "__pycache__")
    for part in ("src", "perfbench"):
        shutil.copytree(BENCH.parent / part, dest / part, ignore=skip)
    return dest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_report_digests_match_across_hash_seeds_and_checkouts(name, tmp_path):
    # quasi_pipeline's third request reads a presentation file whose name
    # the program copies into its report
    args = ["--workload", name, "--seed", "5", "--seconds", "1", "--requests", "3"]
    digests = []
    for checkout, hashseed in (("a", "0"), ("deeper/b", "4242")):
        proc = _run(_copy_tree(tmp_path / checkout), *args, hashseed=hashseed)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] and result["attempted"] == 3 and result["failed"] == 0
        digests.append([l for l in lines if l.startswith(("inputs_sha256", "reports_sha256"))])
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "shadow_cert", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
