"""Report bytes pinned across processes and hash seeds.

Every case runs the CLI in a fresh interpreter under each PYTHONHASHSEED
value below, and the sha256 of every file it writes must equal the digest
recorded here.  A change to any report's bytes therefore has to update
this table on purpose; a report that depends on set or dict iteration
order under string hashing fails on one of the two seeds.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HASH_SEEDS = ("0", "4242")

# fixture -> Rips scale; the crossing fixture's pairs all lie in (1, 3),
# so it gets a scale inside that band to have edges at all
FIXTURE_EPS = {
    "hexagon": "1",
    "cross4": "1",
    "fourd": "1",
    "crossing": "12/5",
    "ring": "1",
}
PLANAR = ("hexagon", "cross4", "crossing", "ring")
# closed walks whose hole words and SVG overlays are pinned too
LOOPS = {
    "hexagon": "0,1,2,3,4,5,0",
    "ring": ",".join(str(v) for v in list(range(12)) + [0]),
}
# A crossing-heavy arrangement: 40 points of the 1/20 lattice in [0, 4]^2
# (numerators below) at eps 1 give 160 Rips edges, 374 crossings and 496
# bounded faces, 2 of them holes, so the shadow's vertex, edge and face
# orders are pinned on many exact crossings.
DENSE_20 = [
    (3, 22), (3, 46), (4, 74), (7, 11), (10, 46), (17, 65), (20, 55), (21, 39),
    (23, 57), (27, 77), (30, 29), (32, 77), (34, 4), (38, 64), (41, 21), (41, 22),
    (44, 72), (45, 46), (46, 75), (47, 69), (48, 54), (50, 65), (51, 59), (53, 67),
    (56, 64), (57, 20), (58, 59), (59, 40), (61, 39), (62, 28), (62, 35), (63, 64),
    (65, 45), (65, 46), (65, 71), (67, 21), (67, 31), (71, 22), (71, 58), (78, 34),
]

GOLDEN = {
    "hexagon.json": "2e21715957f22dfea006397f605ddbddcbb841fa9839829564c1a4c391353446",
    "rips-hexagon.json": "345330e0669b861aab71a0cccc1338abd86faaed1ec92db4b0e07b1249f1270d",
    "rips-hexagon-cap6.json": "1751303ce51c3968d9806da1ace2c13db6983c460579f79d6d0e60d6bd1004fc",
    "shadow-hexagon.json": "0bb1bfbd20c32c8e8e540fb93f97d63b9c4fae08d0a7817c0da695f2da7661a5",
    "shadow-hexagon.svg": "c3007bc893b5b6c29853625d6d5089f576457e7aee3c436ea2307a148ccb48c6",
    "cross4.json": "3400c31da3f61261bb64316d57417ac1651c89d3925185b521b8a2b7892a4761",
    "rips-cross4.json": "433656e864252ee6995609f084e877ff4b4314c3fecf093d3ba7d461d44b0d1f",
    "shadow-cross4.json": "b86e91137ddad6efc580ea70f45102790442601b00c0cfc44d7a64fdc00b0cec",
    "shadow-cross4.svg": "e7e10cf36b1ce42f82a87b7e6fc3f50e45ce471f43adeefc62010b453fa09f98",
    "fourd.json": "2f29869e76ff035a34d497091be87404673eedb136508142d60965128915ea9e",
    "rips-fourd.json": "345330e0669b861aab71a0cccc1338abd86faaed1ec92db4b0e07b1249f1270d",
    "crossing.json": "48c0877d8f7f04cc19fa745dd82e87b29ff7221241b03784a5870c839b8a0c61",
    "rips-crossing.json": "b14f65d9e9c127453201960da5dd2192197e52a57badd34ae5eef15a053c3678",
    "shadow-crossing.json": "9da7f5e1b5cbbe8d12184b980a86774128576241eb35676665445f01134cb54d",
    "shadow-crossing.svg": "57f94d144c06ca63f7624ee4d99c3fd195399de14ba2fe7e37e5352b6e2f986b",
    "ring.json": "e11be490e1b086fed8652302e6fbd2569216862c37ade75c2ae9234df0017633",
    "rips-ring.json": "c29d1cf565a37220fb37ad52f4bfe4e2a8f515dfc87d0727acef95ef0a1db6d5",
    "shadow-ring.json": "cdbc3328cb2c3a9912e89efbea7e6301a78009d737ad9ef2a354a642bc0eb8d7",
    "shadow-ring.svg": "012104ab694a27b193ac1a78bcae611df21d27fb0d628685d32d4e18b8f80efb",
    "quasi-rp2.json": "c91474defa21c93c5da2a0dd0654a5cd12f5bad45372c96de1cc764b64aa40eb",
    "quasi-klein.json": "f1132e50fcc57ee66b08a7143cf29387e59584ee20a4f9e79fb385197fa9b28e",
    "quasi-rp2-seed3.json": "6f59feca151792690653f16c0f0e66ee7b56351f3c2a0f02dbb039a2b03f9053",
    "quasi-z3.json": "27a80aca6f554a770a24cd1a0f606616cce97372d7c4376db9eab539e6102cd7",
    "shadow-dense.json": "2a69d9ab9166a6efd8f826bd497e67fc3c12c566dca3530d54e8bf16ddb204b4",
    "shadow-dense.svg": "dabf415ed07eea3bf79391c09765ab0d05c86df925a5e95837ea8d4afa5ea629",
    "pair-ring.json": "d7f11363c204022d46220246ca158ae648b0bbcdd0016c4d9c4a4884a6d39278",
    "pair-ring-random.json": "2b3a4ade99342313fa54207b9eba0d35c9ed3656988c99bd9a12767c53193e8b",
}


def _cli(args, cwd, hash_seed):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    subprocess.run(
        [sys.executable, "-m", "ripshadow.cli", *args],
        cwd=cwd,
        env=env,
        check=True,
        capture_output=True,
    )


def _run_cases(workdir: Path, hash_seed: str):
    outputs = []

    def run(args, *written):
        _cli(args, workdir, hash_seed)
        outputs.extend(written)

    for name, eps in FIXTURE_EPS.items():
        fx = f"{name}.json"
        run(["fixture", "--name", name, "--out", fx], fx)
        run(["rips", "--points", fx, "--epsilon", eps, "--out", f"rips-{name}.json"],
            f"rips-{name}.json")
        if name in PLANAR:
            loop = ["--loop", LOOPS[name]] if name in LOOPS else []
            run(["shadow", "--points", fx, "--epsilon", eps, *loop,
                 "--svg", f"shadow-{name}.svg", "--out", f"shadow-{name}.json"],
                f"shadow-{name}.json", f"shadow-{name}.svg")
    # the census at the highest cap the hexagon allows: levels 3 to 6 empty
    run(["rips", "--points", "hexagon.json", "--epsilon", "1", "--dim-cap", "6",
         "--out", "rips-hexagon-cap6.json"], "rips-hexagon-cap6.json")
    run(["quasi", "--preset", "rp2", "--interval", "1,3/2", "--seed", "7",
         "--out", "quasi-rp2.json"], "quasi-rp2.json")
    run(["quasi", "--preset", "klein", "--interval", "1,3/2", "--seed", "7",
         "--out", "quasi-klein.json"], "quasi-klein.json")
    run(["quasi", "--preset", "rp2", "--interval", "1,3/2", "--seed", "3",
         "--out", "quasi-rp2-seed3.json"], "quasi-rp2-seed3.json")
    # Z/3 read from a presentation file; its relative path is in the report
    (workdir / "z3.json").write_text('{"generators": 1, "relators": ["aaa"]}')
    run(["quasi", "--presentation", "z3.json", "--interval", "1,3/2", "--seed", "7",
         "--out", "quasi-z3.json"], "quasi-z3.json")
    (workdir / "dense.json").write_text(json.dumps({
        "schema": "rips-shadow/1",
        "dimension": 2,
        "points": [[f"{x}/20", f"{y}/20"] for x, y in DENSE_20],
    }))
    run(["shadow", "--points", "dense.json", "--epsilon", "1",
         "--svg", "shadow-dense.svg", "--out", "shadow-dense.json"],
        "shadow-dense.json", "shadow-dense.svg")
    run(["pair", "--points", "ring.json", "--lower", "7/10,9/10,none",
         "--upper", "19/10,11/5,all", "--out", "pair-ring.json"], "pair-ring.json")
    run(["pair", "--points", "ring.json", "--lower", "7/10,9/10,random:1/2",
         "--upper", "19/10,11/5,random:1/2", "--seed", "5",
         "--out", "pair-ring-random.json"], "pair-ring-random.json")
    return {
        f: hashlib.sha256((workdir / f).read_bytes()).hexdigest() for f in outputs
    }


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
def test_reports_match_golden_digests(tmp_path, hash_seed):
    assert _run_cases(tmp_path, hash_seed) == GOLDEN
