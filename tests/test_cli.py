import json
from fractions import Fraction

import pytest

from ripshadow import cli, complexes, quasi
from ripshadow.cli import main, points_to_document, document_to_points
from ripshadow.complexes import DuplicatePointError, build_rips
from ripshadow.fixtures import hexagon_points
from ripshadow.quasi import EdgePolicy, UncertaintyInterval, build_quasi, pair_image_analysis

F = Fraction


def run(args):
    return main(args)


def test_roundtrip_points_document():
    pts = hexagon_points(F(11, 20))
    doc = points_to_document(pts)
    back = document_to_points(doc)
    assert tuple(back) == tuple(pts)
    # re-ingested points build the identical complex
    assert build_rips(back, F(1)).simplices == build_rips(pts, F(1)).simplices


def test_fixture_and_rips_roundtrip(tmp_path, capsys):
    fx = tmp_path / "hex.json"
    out = tmp_path / "r.json"
    assert run(["fixture", "--name", "hexagon", "--out", str(fx)]) == 0
    assert run(["rips", "--points", str(fx), "--epsilon", "1", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["schema"] == "rips-shadow/1"
    assert rep["betti"]["Q"] == [1, 0, 1]
    assert rep["census"] == {"0": 6, "1": 12, "2": 8, "3": 0}
    assert rep["integer_h1"] == {"rank": 0, "torsion": []}


def test_rips_single_point(tmp_path):
    fx = tmp_path / "one.json"
    fx.write_text(json.dumps({"schema": "rips-shadow/1", "dimension": 2,
                              "points": [["0", "0"]]}))
    out = tmp_path / "r.json"
    assert run(["rips", "--points", str(fx), "--epsilon", "1", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["betti"]["Q"] == [1]


def test_rips_duplicate_points_exit_2(tmp_path, capsys):
    fx = tmp_path / "dup.json"
    fx.write_text(json.dumps({"schema": "rips-shadow/1", "dimension": 2,
                              "points": [["0", "0"], ["0", "0"]]}))
    assert run(["rips", "--points", str(fx), "--epsilon", "1"]) == 2
    assert "coincide" in capsys.readouterr().err


# A B B A: the pairs (0, 3) and (1, 2) both coincide, and (0, 3) comes first
# in the lexicographic order of the proximity pass
ABBA = [(F(0), F(0)), (F(1, 2), F(0)), (F(1, 2), F(0)), (F(0), F(0))]
LOWER = (UncertaintyInterval(F(7, 10), F(9, 10)), EdgePolicy.none())
UPPER = (UncertaintyInterval(F(19, 10), F(11, 5)), EdgePolicy.all())


def _refusal(fn, *args):
    with pytest.raises(DuplicatePointError) as exc:
        fn(*args)
    return str(exc.value)


def _cli_refusal(tmp_path, capsys, *args):
    fx = tmp_path / "abba.json"
    fx.write_text(json.dumps(points_to_document(ABBA)))
    assert run([args[0], "--points", str(fx), *args[1:]]) == 2
    return capsys.readouterr().err.removeprefix("error: ").rstrip("\n")


@pytest.mark.parametrize(
    "refusal",
    [
        lambda tmp_path, capsys: _refusal(build_rips, ABBA, F(1)),
        lambda tmp_path, capsys: _refusal(build_quasi, ABBA, LOWER[0], EdgePolicy.all()),
        lambda tmp_path, capsys: _refusal(pair_image_analysis, ABBA, LOWER, UPPER),
        lambda tmp_path, capsys: _cli_refusal(tmp_path, capsys, "rips", "--epsilon", "1"),
        lambda tmp_path, capsys: _cli_refusal(tmp_path, capsys, "shadow", "--epsilon", "1"),
        lambda tmp_path, capsys: _cli_refusal(
            tmp_path, capsys, "pair", "--lower", "7/10,9/10,none", "--upper", "19/10,11/5,all"
        ),
    ],
    ids=["build_rips", "build_quasi", "pair_image_analysis", "cli_rips", "cli_shadow", "cli_pair"],
)
def test_every_entry_point_names_the_first_coincident_pair(refusal, tmp_path, capsys, monkeypatch):
    def no_complex(*args, **kwargs):
        raise AssertionError("a complex was built on coincident points")

    monkeypatch.setattr(complexes, "flag_complex", no_complex)
    monkeypatch.setattr(quasi, "flag_complex", no_complex)
    assert refusal(tmp_path, capsys) == "points 0 and 3 coincide; distinct points required"


def test_shadow_certificate_and_loop(tmp_path):
    fx = tmp_path / "sq.json"
    fx.write_text(json.dumps({"schema": "rips-shadow/1", "dimension": 2,
                              "points": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]}))
    out = tmp_path / "s.json"
    svg = tmp_path / "s.svg"
    code = run(["shadow", "--points", str(fx), "--epsilon", "1",
                "--svg", str(svg), "--loop", "0,1,2,3,0", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["certificate"]["pass"] is True
    assert rep["shadow"]["betti"] == [1, 1]
    assert rep["shadow"]["holes"] == 1
    assert rep["loop"]["contractible"] is False
    assert rep["loop"]["word"] == "a1"
    text = svg.read_text()
    assert text.count("<polyline") == 1
    assert text.count('class="edge"') == 4


def test_shadow_wrong_dimension_exit_4(tmp_path):
    fx = tmp_path / "d1.json"
    fx.write_text(json.dumps({"schema": "rips-shadow/1", "dimension": 1,
                              "points": [["0"], ["1"]]}))
    assert run(["shadow", "--points", str(fx), "--epsilon", "1"]) == 4


@pytest.mark.parametrize(
    "command",
    [
        ["fixture", "--name", "ring", "--out"],
        ["shadow", "--points", "RING", "--epsilon", "1", "--out"],
        ["shadow", "--points", "RING", "--epsilon", "1", "--svg"],
    ],
    ids=["fixture_out", "shadow_out", "shadow_svg"],
)
def test_unwritable_output_exit_2(tmp_path, capsys, command):
    fx = tmp_path / "ring.json"
    assert run(["fixture", "--name", "ring", "--out", str(fx)]) == 0
    bad = tmp_path / "missing" / "out"
    assert run([str(fx) if a == "RING" else a for a in command] + [str(bad)]) == 2
    assert f"cannot write {bad}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["rips", "--epsilon", "1"],
        ["shadow", "--epsilon", "1"],
        ["pair", "--lower", "7/10,9/10,none", "--upper", "19/10,11/5,all"],
    ],
)
def test_dim_cap_below_two_exit_2_before_building(tmp_path, capsys, monkeypatch, command):
    fx = tmp_path / "ring.json"
    assert run(["fixture", "--name", "ring", "--out", str(fx)]) == 0

    def no_build(*args, **kwargs):
        raise AssertionError("a complex was built")

    monkeypatch.setattr(cli, "build_rips", no_build)
    monkeypatch.setattr(cli, "pair_image_analysis", no_build)
    assert run([*command, "--points", str(fx), "--dim-cap", "1"]) == 2
    assert "--dim-cap" in capsys.readouterr().err


@pytest.fixture
def rips_builds(monkeypatch):
    """The dim_cap of each `cli.build_rips` call."""
    caps, build_rips = [], cli.build_rips

    def counted(points, eps, dim_cap):
        caps.append(dim_cap)
        return build_rips(points, eps, dim_cap)

    monkeypatch.setattr(cli, "build_rips", counted)
    return caps


@pytest.mark.parametrize("command", ["rips", "shadow"])
def test_dim_cap_above_points_exit_2_before_building(tmp_path, capsys, rips_builds, command):
    # every level from n_points = 6 up is empty; a cap of 10^12 would store
    # that many empty levels
    fx, out = tmp_path / "hex.json", tmp_path / "r.json"
    assert run(["fixture", "--name", "hexagon", "--out", str(fx)]) == 0
    argv = [command, "--points", str(fx), "--epsilon", "1", "--out", str(out)]
    assert run([*argv, "--dim-cap", "1000000000000"]) == 2
    assert capsys.readouterr().err == (
        "error: --dim-cap must be at most max(3, n_points) = 6, got 1000000000000\n"
    )
    assert run([*argv, "--dim-cap", "7"]) == 2
    assert rips_builds == [] and not out.exists()
    assert run([*argv, "--dim-cap", "6"]) == 0
    assert rips_builds == [6]


def test_quasi_presets(tmp_path):
    out = tmp_path / "q.json"
    assert run(["quasi", "--preset", "rp2", "--interval", "1,3/2",
                "--seed", "7", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["h1_quasi"]["torsion"] == ["2"]
    assert rep["blowup_betti_agree"] is True
    assert rep["monochromatic_violations"] == 0

    assert run(["quasi", "--preset", "torus", "--interval", "1,3/2",
                "--seed", "7", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["h1_quasi"]["torsion"] == []
    assert rep["h1_quasi"]["rank"] >= 2


def test_quasi_presentation_file(tmp_path):
    pf = tmp_path / "pres.json"
    pf.write_text(json.dumps({"generators": 2, "relators": ["aba'b'"]}))
    out = tmp_path / "q.json"
    assert run(["quasi", "--presentation", str(pf), "--interval", "1,3/2",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["h1_k"] == {"rank": 2, "torsion": []}


def test_quasi_free_group_of_30_generators(tmp_path):
    # the base point's 61 blowup copies form one clique, whose C(61, 4)
    # tetrahedra the collapse core of the blowup graph never lists
    pf = tmp_path / "free.json"
    pf.write_text(json.dumps({"generators": 30, "relators": []}))
    out = tmp_path / "q.json"
    assert run(["quasi", "--presentation", str(pf), "--interval", "1,3/2",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["betti_flag_blowup"] == rep["betti_k"] == [1, 30, 0]
    assert rep["h1_quasi"] == {"rank": 88, "torsion": []}
    assert rep["monochromatic_violations"] == 0


def test_quasi_over_the_blowup_limit_exit_2_before_the_blowup(tmp_path, monkeypatch, capsys):
    built = []
    blowup = quasi.blowup
    monkeypatch.setattr(quasi, "blowup", lambda *a: built.append(a) or blowup(*a))
    # 30 free generators make 241 blowup vertices, one per vertex of each simplex
    monkeypatch.setattr(quasi, "BLOWUP_VERTEX_LIMIT", 240)
    pf = tmp_path / "free.json"
    pf.write_text(json.dumps({"generators": 30, "relators": []}))
    out = tmp_path / "q.json"
    assert run(["quasi", "--presentation", str(pf), "--interval", "1,3/2",
                "--out", str(out)]) == 2
    assert "the blowup would have 241 vertices, above the limit of 240" in capsys.readouterr().err
    assert built == [] and not out.exists()
    # a count at the limit passes: rp2's blowup has 105 vertices
    monkeypatch.setattr(quasi, "BLOWUP_VERTEX_LIMIT", 105)
    assert run(["quasi", "--preset", "rp2", "--interval", "1,3/2", "--out", str(out)]) == 0
    assert len(built) == 1 and json.loads(out.read_text())["h1_quasi"]["torsion"] == ["2"]


def test_pair_ring_and_overlap_exit(tmp_path):
    fx = tmp_path / "ring.json"
    assert run(["fixture", "--name", "ring", "--out", str(fx)]) == 0
    out = tmp_path / "p.json"
    assert run(["pair", "--points", str(fx), "--lower", "7/10,9/10,none",
                "--upper", "19/10,11/5,all", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["image_rank"] == 1
    assert rep["bound_ok"] is True
    assert run(["pair", "--points", str(fx), "--lower", "1,2,none",
                "--upper", "3/2,3,all", "--out", str(out)]) == 2


@pytest.mark.parametrize(
    "lower, code, message",
    [
        ("7/10,9/10,random:0", 0, ""),
        ("7/10,9/10,random:1", 0, ""),
        ("7/10,9/10,random:3/2", 2, "coin probability"),
        ("7/10,9/10,random:-1", 2, "coin probability"),
        ("7/10,9/10,coin", 2, "unknown policy"),
        ("9/10,7/10,none", 2, "need 0 < eps < eps'"),
        ("7/10,9/10", 2, "bound must be 'eps,eps_prime,policy', got '7/10,9/10'"),
    ],
    ids=["p_zero", "p_one", "p_above_one", "p_negative", "unknown_policy", "reversed_interval",
         "two_fields"],
)
def test_pair_bound_spec_exit_code(tmp_path, capsys, lower, code, message):
    fx = tmp_path / "ring.json"
    assert run(["fixture", "--name", "ring", "--out", str(fx)]) == 0
    out = tmp_path / "p.json"
    assert run(["pair", "--points", str(fx), "--lower", lower,
                "--upper", "19/10,11/5,all", "--out", str(out)]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"generators": 2.5, "relators": ["ab"]}, "generators must be an int >= 1"),
        ({"generators": 0, "relators": []}, "generators must be an int >= 1"),
        ({"generators": True, "relators": ["a"]}, "generators must be an int >= 1"),
        ({"generators": 2, "relators": "ab"}, "relators must be a list of strings"),
        ({"generators": 2, "relators": ["ab", 3]}, "relators must be a list of strings"),
        ({"generators": 30, "relators": ["{|"]}, "unknown generator"),
    ],
    ids=["float_generators", "no_generators", "bool_generators", "relator_string",
         "relator_int", "non_letter"],
)
def test_quasi_bad_presentation_exit_2(tmp_path, capsys, doc, message):
    pf = tmp_path / "pres.json"
    pf.write_text(json.dumps(doc))
    assert run(["quasi", "--presentation", str(pf), "--interval", "1,3/2"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "interval, message",
    [
        ("1,6", "ball radius too large"),
        ("1,1.000000000000000000000001", "height approximation too coarse"),
        ("1,3/2,2", "interval must be 'eps,eps_prime', got '1,3/2,2'"),
    ],
    ids=["radius_too_large", "height_too_coarse", "three_fields"],
)
def test_quasi_unsupported_interval_exit_2(tmp_path, capsys, interval, message):
    # both are decided from the interval alone, before any point is placed
    out = tmp_path / "q.json"
    assert run(["quasi", "--preset", "rp2", "--interval", interval, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bad_epsilon_exit_2(tmp_path):
    fx = tmp_path / "hex.json"
    run(["fixture", "--name", "hexagon", "--out", str(fx)])
    assert run(["rips", "--points", str(fx), "--epsilon", "zebra"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rips", "--points", "HEX", "--epsilon", "1e-100000000"],
         "cannot parse epsilon '1e-100000000'"),
        (["shadow", "--points", "HEX", "--epsilon", "1E+100000000"],
         "cannot parse epsilon '1E+100000000'"),
        (["quasi", "--preset", "rp2", "--interval", "1,1.5e100000000"],
         "cannot parse eps_prime '1.5e100000000'"),
        (["pair", "--points", "HEX", "--lower", "1e-100000000,2,none", "--upper", "3,4,all"],
         "cannot parse eps '1e-100000000'"),
        (["pair", "--points", "HEX", "--lower", "1,2,random:1e-100000000", "--upper", "3,4,all"],
         "cannot parse probability '1e-100000000'"),
    ],
    ids=["rips_epsilon", "shadow_epsilon", "quasi_interval", "pair_bound", "pair_policy"],
)
def test_exponent_beyond_the_digit_limit_exit_2(tmp_path, capsys, argv, message):
    # refused before any Fraction of 10**100000000 is built
    fx = tmp_path / "hex.json"
    assert run(["fixture", "--name", "hexagon", "--out", str(fx)]) == 0
    assert run([str(fx) if a == "HEX" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert message in err and "exceeds the" in err


@pytest.fixture
def shadow_builds(monkeypatch):
    """The complexes `cli.build_shadow` is called on: a refused loop builds none."""
    built, build_shadow = [], cli.build_shadow

    def counted(c):
        built.append(c)
        return build_shadow(c)

    monkeypatch.setattr(cli, "build_shadow", counted)
    return built


def test_bad_loop_exit_2(tmp_path, capsys, shadow_builds):
    fx = tmp_path / "hex.json"
    run(["fixture", "--name", "hexagon", "--out", str(fx)])
    assert run(["shadow", "--points", str(fx), "--epsilon", "1",
                "--loop", "0,1,2"]) == 2
    assert "loop must start and end at the same vertex" in capsys.readouterr().err
    assert run(["shadow", "--points", str(fx), "--epsilon", "1",
                "--loop", "0,3,0"]) == 2  # long diagonal is not an edge
    assert "loop is not a walk in the Rips complex" in capsys.readouterr().err
    assert shadow_builds == []


SHADOW_HEX = ["shadow", "--points", "HEX", "--epsilon", "1"]
QUASI = ["quasi", "--interval", "1,3/2"]


@pytest.mark.parametrize(
    "argv, message",
    [
        ([*SHADOW_HEX, "--loop", "0,a,0"], "loop must be comma-separated vertex ids: '0,a,0'"),
        ([*SHADOW_HEX, "--loop", "0"], "loop needs at least two vertices"),
        ([*SHADOW_HEX, "--loop", "0,6,0"], "loop vertex id out of range"),
        ([*QUASI, "--preset", "rp2", "--presentation", "HEX"],
         "give exactly one of --preset / --presentation"),
        (QUASI, "give exactly one of --preset / --presentation"),
    ],
    ids=["loop_not_integers", "loop_one_vertex", "loop_out_of_range", "quasi_both_sources",
         "quasi_no_source"],
)
def test_bad_arguments_exit_2(tmp_path, capsys, shadow_builds, argv, message):
    fx = tmp_path / "hex.json"  # HEX: the six-point hexagon fixture
    assert run(["fixture", "--name", "hexagon", "--out", str(fx)]) == 0
    assert run([str(fx) if a == "HEX" else a for a in argv]) == 2
    assert message in capsys.readouterr().err
    assert shadow_builds == []


def _points_doc(points):
    return {"schema": "rips-shadow/1", "dimension": 2, "points": points}


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "not a rips-shadow/1 point document"),
        (_points_doc(5), "points must be a list"),
        (_points_doc([3]), "point 3 is not a list"),
        (_points_doc(["12"]), "point '12' is not a list"),
        (_points_doc([[True, False]]), "coordinate True is not a string or an integer"),
        (_points_doc([[0.1, "0"]]), "quote decimals as strings"),
        (_points_doc([[None, "0"]]), "coordinate None is not a string or an integer"),
        ({"schema": "rips-shadow/1", "points": [["0", "0"]]},
         "dimension must be a positive integer, not None"),
        ({**_points_doc([["0"]]), "dimension": True},
         "dimension must be a positive integer, not True"),
        ({**_points_doc([["0", "0"]]), "dimension": "2"},
         "dimension must be a positive integer, not '2'"),
        ({**_points_doc([["0", "0"]]), "dimension": 2.0},
         "dimension must be a positive integer, not 2.0"),
        ({**_points_doc([[]]), "dimension": 0},
         "dimension must be a positive integer, not 0"),
        (_points_doc([["x", "0"]]), "bad coordinate in ['x', '0']"),
        (_points_doc([["1e100000000", "0"]]), "exponent 100000000 exceeds the"),
        (_points_doc([]), "no points in document"),
        # a string is the file's raw text, None leaves the file unwritten
        (None, "cannot read"),
        ('{"schema": ', "is not valid JSON"),
    ],
    ids=["top_level_list", "points_not_list", "row_int", "row_string", "bools",
         "float", "null", "dimension_missing", "dimension_bool", "dimension_string",
         "dimension_float", "dimension_zero", "bad_coordinate", "huge_exponent", "no_points",
         "unreadable", "invalid_json"],
)
def test_malformed_point_document_exit_2(tmp_path, capsys, doc, message):
    fx = tmp_path / "bad.json"
    if doc is not None:
        fx.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert run(["rips", "--points", str(fx), "--epsilon", "1"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "points",
    [
        [["1e400", "0"], ["1e400", "1/2"], ["1e400", "1"]],
        # each coordinate fits a float, the padded view box does not
        [["0", "1.7e308"], ["0", "1.79e308"]],
    ],
    ids=["coordinate", "view_box"],
)
def test_svg_beyond_float_range_exit_2(tmp_path, capsys, shadow_builds, points):
    fx = tmp_path / "far.json"
    fx.write_text(json.dumps(_points_doc(points)))
    svg, out = tmp_path / "s.svg", tmp_path / "s.json"
    argv = ["shadow", "--points", str(fx), "--epsilon", "1", "--out", str(out)]
    assert run([*argv, "--svg", str(svg)]) == 2
    assert capsys.readouterr().err == (
        "error: coordinates beyond float range cannot be drawn in an SVG\n"
    )
    assert not svg.exists() and not out.exists()
    assert shadow_builds == []
    # the exact analysis itself takes them
    assert run(argv) == 0
    assert json.loads(out.read_text())["certificate"]["pass"] is True
