import importlib
import json
import os
import pathlib
import runpy
import subprocess
import sys
from fractions import Fraction as F

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tropdisk
from tropdisk import cli
from tropdisk.cli import main
from tropdisk.diagram import BaseDiagram
from tropdisk.diskgraph import Constraint
from tropdisk.enumerate import SearchBounds
from tropdisk.fixtures import SHIPPED_CASES, Fixture, builtin_fixture
from tropdisk.geometry import GeometryError, Vec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_potential_fixture_text(capsys):
    code, out, err = run_cli(capsys, "potential", "--fixture", "dp6")
    assert code == 0
    assert "total W_L = -2" in out
    assert "matches eigenvalue -2" in out


def test_potential_json_exact_rationals(capsys):
    code, out, _ = run_cli(capsys, "potential", "--fixture", "dp7", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["total"] == [-1, 1]
    assert data["total_integer"] == -1
    contribs = sorted(tuple(g["contribution"]) for g in data["graphs"])
    assert contribs == [(-1, 2), (-1, 2)]
    for g in data["graphs"]:
        assert g["rigidity_dimension"] == 0


def test_potential_builds_vecs_only_in_the_fixture_builders(monkeypatch, capsys):
    # after builtin_fixture returns, a potential report builds no Vec outside
    # Constraint.on_lagrangian: the run, the allowability checks, the report
    # and its cancellation pairs read triples
    built, counting = [], [False]
    init, build, on_lagrangian = Vec.__init__, cli.builtin_fixture, Constraint.on_lagrangian

    def counted(self, x, y):
        if counting[0]:
            built.append((x, y))
        init(self, x, y)

    def built_fixture(name):
        fixture = build(name)
        counting[0] = True
        return fixture

    def edge_constraint(cls, *args):
        counting[0] = False
        try:
            return on_lagrangian(*args)
        finally:
            counting[0] = True

    monkeypatch.setattr(Vec, "__init__", counted)
    monkeypatch.setattr(cli, "builtin_fixture", built_fixture)
    monkeypatch.setattr(Constraint, "on_lagrangian", classmethod(edge_constraint))
    for name, case in SHIPPED_CASES:
        counting[0] = False
        assert main(["potential", "--fixture", name, "--case", case, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["fixture"] == f"{name}:{case}"
        assert counting[0] and built == [], (name, case, built)


def test_potential_case_selection(capsys):
    code, out, _ = run_cli(capsys, "potential", "--fixture", "dp6",
                           "--case", "trivalent")
    assert code == 0
    assert "total W_L = -3" in out


def test_potential_dp1_reports_pairs(capsys):
    code, out, _ = run_cli(capsys, "potential", "--fixture", "dp1")
    assert code == 0
    assert "total W_L = -60" in out
    assert "cancelling pairs: 2" in out


def test_validate_fixture(capsys):
    code, out, _ = run_cli(capsys, "validate", "--fixture", "dp4")
    assert code == 0
    assert "valid" in out


def test_validate_bad_diagram(tmp_path, capsys):
    path = tmp_path / "bad.diagram.json"
    path.write_text(json.dumps({
        "name": "bad",
        "polygon": [[0, 1, 0, 1], [1, 1, 0, 1], [1, 1, 1, 1], [0, 1, 1, 1]],
        "focus_foci": [{
            "position": [[2, 1], [2, 1]],
            "shear_direction": [1, 0],
            "shear_covector": [0, 1],
            "branch_cut_sign": 1,
        }],
    }))
    code, out, err = run_cli(capsys, "validate", "--diagram", str(path))
    assert code == 1


def test_validate_repeated_vertex_names_the_code(tmp_path, capsys):
    path = tmp_path / "repeat.diagram.json"
    path.write_text(json.dumps({
        "name": "repeat",
        "polygon": [[0, 1, 0, 1], [0, 1, 0, 1], [2, 1, 0, 1], [0, 1, 2, 1]],
        "focus_foci": [{
            "position": [[1, 2], [1, 2]],
            "shear_direction": [1, 0],
            "shear_covector": [0, 1],
            "branch_cut_sign": 1,
        }],
    }))
    code, out, err = run_cli(capsys, "validate", "--diagram", str(path))
    assert code == 1
    assert "polygon_repeats_vertex:1" in err
    assert "Traceback" not in err and out == ""


MALFORMED = runpy.run_path(str(pathlib.Path(__file__).resolve().parent.parent / "scripts"
                               / "compare_outputs.py"))["MALFORMED"]


@pytest.mark.parametrize("name,codes", [
    ("clockwise.diagram.json", ["polygon_not_counterclockwise", "polygon_not_convex_at:0",
                                "polygon_not_convex_at:1", "polygon_not_convex_at:2",
                                "polygon_not_convex_at:3", "polygon_not_convex_at:4",
                                "polygon_not_convex_at:5", "focus_not_interior:0"]),
    ("focus_on_facet.diagram.json", ["focus_not_interior:0"]),
    ("cut_through_focus.diagram.json", ["branch_cut_crosses_focus:0:1"]),
])
def test_validate_json_reports_the_violation_codes(tmp_path, capsys, name, codes):
    # a file that parses but fails validate(): the codes as JSON on stdout
    path = tmp_path / name
    path.write_text(json.dumps(MALFORMED[name]))
    code, out, err = run_cli(capsys, "validate", "--diagram", str(path), "--json")
    assert code == 1 and err == ""
    assert json.loads(out) == {"fixture": MALFORMED[name]["name"], "violations": codes}
    # text mode still reports them on stderr, as `BaseDiagram.load` words them
    code, out, err = run_cli(capsys, "validate", "--diagram", str(path))
    assert code == 1 and out == ""
    assert err == f"error: invalid diagram {path}: {codes}\n"


def test_validate_json_on_an_unparsable_file_is_an_error(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text("{not json")
    code, out, err = run_cli(capsys, "validate", "--diagram", str(path), "--json")
    assert code == 1 and out == ""
    assert err.startswith(f"error: malformed diagram file {path}")


def test_json_reports_are_one_sorted_line_from_the_c_encoder(tmp_path, monkeypatch, capsys):
    # every --json writer: a fixture case and a diagram file through potential,
    # a valid case and an invalid file (the InvalidDiagram path) through
    # validate, and the table
    fx = builtin_fixture("dp6")
    dpath, invalid = tmp_path / "dp6.diagram.json", tmp_path / "invalid.diagram.json"
    fx.diagram.save(dpath)
    invalid.write_text(json.dumps(MALFORMED["focus_on_facet.diagram.json"]))
    commands = [
        (["potential", "--fixture", "dp6", "--case", "segment", "--json"], 0),
        (["potential", "--diagram", str(dpath), "--constraint", "point:1/16,1/32", "--json"], 0),
        (["validate", "--fixture", "dp4", "--json"], 0),
        (["validate", "--diagram", str(invalid), "--json"], 1),
        (["table", "--json"], 0),
    ]
    outputs = []
    for argv, exit_code in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == exit_code and err == "", argv
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n", argv
        outputs.append(out)

    # the pure-Python encoder, which any indent would select, is never used
    def python_encoder(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", python_encoder)
    for (argv, exit_code), before in zip(commands, outputs):
        assert run_cli(capsys, *argv) == (exit_code, before, ""), argv


@pytest.fixture
def invalid_dp2_variant(monkeypatch):
    """dp2 with its l1 variant turned clockwise; its default diagram stays valid."""
    fixtures = importlib.import_module("tropdisk.fixtures")
    build = fixtures._BUILDERS["dp2"]

    def broken():
        fixture = build()
        l1 = fixture.diagram_variants["l1"]
        fixture.diagram_variants["l1"] = BaseDiagram(
            l1.name, l1.polygon[::-1], list(l1.focus_foci))
        return fixture

    monkeypatch.setitem(fixtures._BUILDERS, "dp2", broken)


def test_builtin_fixture_rejects_an_invalid_variant(invalid_dp2_variant):
    with pytest.raises(GeometryError, match="variant l1 invalid"):
        builtin_fixture("dp2")


@pytest.mark.parametrize("argv", [
    ["potential", "--fixture", "dp2", "--case", "l1"],
    ["potential", "--fixture", "dp2", "--case", "l2"],
    ["validate", "--fixture", "dp2"],
])
def test_invalid_fixture_variant_exits_1(capsys, invalid_dp2_variant, argv):
    # the commands do not validate again: builtin_fixture must catch it
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: fixture dp2 diagram variant l1 invalid: "
                          "['polygon_not_counterclockwise', ")


def test_file_driven_potential(tmp_path, capsys):
    fx = builtin_fixture("dp6")
    dpath = tmp_path / "dp6.diagram.json"
    lpath = tmp_path / "segment.lag.json"
    fx.diagram.save(dpath)
    fx.lagrangians["segment"].save(lpath)
    code, out, _ = run_cli(
        capsys, "potential", "--diagram", str(dpath), "--lagrangian", str(lpath),
        "--constraint", "edge:0@1/2",
    )
    assert code == 0
    assert "total W_L = -2" in out


def test_validate_rejects_a_lagrangian_with_no_edges(tmp_path, capsys):
    dpath, lpath = tmp_path / "dp6.json", tmp_path / "l.json"
    builtin_fixture("dp6").diagram.save(dpath)
    lpath.write_text(json.dumps(
        {"vertices": [{"id": "v0", "position": [[0, 1], [0, 1]]}], "edges": []}))
    code, out, _ = run_cli(capsys, "validate", "--diagram", str(dpath), "--lagrangian", str(lpath))
    assert (code, out) == (1, "isolated_vertex:v0\n")
    code, _, err = run_cli(capsys, "potential", "--diagram", str(dpath), "--lagrangian",
                           str(lpath), "--constraint", "point:1/3,1/5")
    assert code == 1 and "isolated_vertex:v0" in err


def _validate_with_anchor(tmp_path, capsys, name, case, vid, anchor):
    """`tropdisk validate` on the case's diagram and Lagrangian files, with
    vertex vid's anchor replaced."""
    fx = builtin_fixture(name)
    dpath, lpath = tmp_path / "d.json", tmp_path / "l.json"
    fx.diagram_for(case).save(dpath)
    data = fx.lagrangian_for(case).to_json_dict()
    for entry in data["vertices"]:
        if entry["id"] == vid:
            entry["anchor"] = anchor
    lpath.write_text(json.dumps(data))
    return run_cli(capsys, "validate", "--diagram", str(dpath), "--lagrangian", str(lpath))


@pytest.mark.parametrize("name,case,vid,anchor,violation", [
    ("dp6", "segment", "v0", "focus:3", "anchor_mismatch:v0"),   # dp6 has no focus
    ("dp6", "segment", "v0", "focus", "anchor_mismatch:v0"),
    ("dp6", "segment", "v0", "corner:99", "anchor_unknown:v0"),
    ("dp6", "segment", "v0", "nowhere", "anchor_unknown:v0"),
    ("dp6", "trivalent", "c", "facet", "anchor_mismatch:c"),    # an interior vertex
    ("dp2", "l2", "v0", "focus:0", "anchor_mismatch:v0"),       # v0 sits at focus 1
])
def test_validate_rejects_a_wrong_anchor(tmp_path, capsys, name, case, vid, anchor, violation):
    code, out, _ = _validate_with_anchor(tmp_path, capsys, name, case, vid, anchor)
    assert code == 1
    assert out.splitlines() == [violation]


@pytest.mark.parametrize("field,value,named", [
    ("id", 5, "vertex id 5 is not a string"),
    ("id", None, "vertex id None is not a string"),
    ("anchor", 3, "vertex v0 anchor 3 is not a string"),
    ("anchor", "focus:x", "vertex v0 anchor 'focus:x' is not kind or kind:int"),
    ("anchor", "focus:1:2", "vertex v0 anchor 'focus:1:2' is not kind or kind:int"),
    ("anchor", "focus:", "vertex v0 anchor 'focus:' is not kind or kind:int"),
    ("position", [[0, 1], [0, 1], [0, 1]],
     "vertex v0 position [[0, 1], [0, 1], [0, 1]] is not [num, den, num, den]"),
    ("position", [[0, 1], 0], "vertex v0 position [[0, 1], 0] is not [num, den, num, den]"),
    ("position", [[0, 1], [0, "1"]],
     "vertex v0 position [[0, 1], [0, '1']] is not [num, den, num, den]"),
    ("position", {"x": 0}, "vertex v0 position {'x': 0} is not [num, den, num, den]"),
], ids=["id-int", "id-null", "anchor-int", "anchor-index-not-int", "anchor-two-colons",
        "anchor-no-index", "position-three-pairs", "position-number", "position-string",
        "position-object"])
def test_malformed_lagrangian_vertex_field_is_named(tmp_path, capsys, field, value, named):
    # a vertex field of the wrong type ends in exit 1 with the field named,
    # for validate and for a search alike, never in a traceback
    dpath, lpath = tmp_path / "d.json", tmp_path / "l.json"
    fx = builtin_fixture("dp6")
    fx.diagram.save(dpath)
    data = fx.lagrangians["segment"].to_json_dict()
    data["vertices"][0][field] = value
    lpath.write_text(json.dumps(data))
    for argv in (["validate"], ["potential", "--constraint", "point:1/3,1/5"]):
        code, out, err = run_cli(capsys, *argv, "--diagram", str(dpath),
                                 "--lagrangian", str(lpath))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: malformed Lagrangian file {lpath}")
        assert named in err and "Traceback" not in err


@pytest.mark.parametrize("edges,named", [
    ([5], "edge entry 5 is not [id, id] or [id, id, weight] with string ids"),
    (["ab"], "edge entry 'ab' is not [id, id] or [id, id, weight] with string ids"),
    ([{"a": 1, "b": 2}],
     "edge entry {'a': 1, 'b': 2} is not [id, id] or [id, id, weight] with string ids"),
    ([[0, 1]], "edge entry [0, 1] is not [id, id] or [id, id, weight] with string ids"),
], ids=["number", "string", "object", "int-ids"])
def test_malformed_lagrangian_edge_entry_is_named(tmp_path, capsys, edges, named):
    # an edge entry that is not a list of two string ids (and a weight) ends
    # in exit 1 with the entry named, never in a traceback
    dpath, lpath = tmp_path / "d.json", tmp_path / "l.json"
    fx = builtin_fixture("dp6")
    fx.diagram.save(dpath)
    data = fx.lagrangians["segment"].to_json_dict()
    data["edges"] = edges
    lpath.write_text(json.dumps(data))
    for argv in (["validate"], ["potential", "--constraint", "point:1/3,1/5"]):
        code, out, err = run_cli(capsys, *argv, "--diagram", str(dpath),
                                 "--lagrangian", str(lpath))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: malformed Lagrangian file {lpath}")
        assert named in err and "Traceback" not in err


@pytest.mark.parametrize("name,case,vid,anchor", [
    ("dp6", "segment", "v0", "facet"),    # a corner is on the boundary
    ("dp6", "segment", "v0", "facet:2"),
    ("dp6", "trivalent", "c", "free"),
    ("dp2", "l2", "v0", "focus:1"),
    ("dp2", "l2", "v0", "focus"),
])
def test_validate_accepts_a_held_anchor(tmp_path, capsys, name, case, vid, anchor):
    assert _validate_with_anchor(tmp_path, capsys, name, case, vid, anchor)[:2] == (0, "valid\n")


def test_convention_override(tmp_path, capsys):
    convention = tmp_path / "signs.json"
    convention.write_text(json.dumps({"pant_sign": [[1, 1]]}))
    code, out, _ = run_cli(capsys, "potential", "--fixture", "dp7",
                           "--convention", str(convention))
    assert code == 0
    assert "total W_L = 1" in out  # both half pants flipped to +1/2
    convention.write_text("{}")
    code, out, _ = run_cli(capsys, "potential", "--fixture", "dp7",
                           "--convention", str(convention))
    assert code == 0
    assert "total W_L = -1" in out  # an empty table keeps the default signs


def test_report_weights_follow_the_convention(tmp_path, capsys):
    convention = tmp_path / "signs.json"
    convention.write_text(json.dumps({"pant_sign": [[1, 1]]}))
    code, out, _ = run_cli(capsys, "potential", "--fixture", "dp7", "--case", "leg",
                           "--convention", str(convention), "--json")
    assert code == 0
    graphs = json.loads(out)["graphs"]
    assert graphs
    for g in graphs:
        product = F(1, g["aut_order"])
        for v in g["vertices"]:
            product *= F(*v["multiplicity"])
            if v["kind"].startswith("holomorphic_pant"):
                assert v["multiplicity"] == [1, 2]
        assert product == F(*g["contribution"])


def test_report_reads_each_aut_order_once(capsys, monkeypatch):
    weights = importlib.import_module("tropdisk.multiplicity")
    calls = []
    real = weights.aut_order

    def counting(graph):
        calls.append(graph)
        return real(graph)

    monkeypatch.setattr(weights, "aut_order", counting)
    monkeypatch.setattr(cli, "aut_order", counting, raising=False)
    code, out, _ = run_cli(capsys, "potential", "--fixture", "dp1", "--json")
    assert code == 0
    assert len(calls) == len(json.loads(out)["graphs"]) == 14


def test_fixture_constraint_replaces_the_case_constraint(capsys):
    code, out, _ = run_cli(capsys, "potential", "--fixture", "dp6",
                           "--constraint", "edge:0@5/16", "--json")
    assert code == 0
    moved = json.loads(out)
    code, out, _ = run_cli(capsys, "potential", "--fixture", "dp6",
                           "--case", "segment_alt", "--json")
    assert code == 0
    case = json.loads(out)
    assert (moved["total"], moved["graphs"]) == (case["total"], case["graphs"])


def test_fixture_constraint_is_validated(capsys):
    code, out, err = run_cli(capsys, "potential", "--fixture", "dp6",
                             "--constraint", "edge:9@1/2")
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("spec", [
    pytest.param("point:5,5", id="outside"),
    pytest.param("point:1,0", id="corner"),
    pytest.param("point:1/2,1/2", id="on-facet"),
])
def test_point_constraint_must_be_strictly_inside(capsys, spec):
    code, out, err = run_cli(capsys, "potential", "--fixture", "dp6", "--constraint", spec)
    assert code == 1
    assert err.startswith("error:") and "strictly inside" in err
    assert out == ""


def test_point_constraint_inside_runs(capsys):
    code, out, err = run_cli(capsys, "potential", "--fixture", "dp6",
                             "--constraint", "point:0,0")
    assert code == 0 and err == ""
    assert "total W_L = 6" in out


def test_point_constraint_at_a_focus_is_rejected(capsys):
    # dp5's focus-focus value: its fiber is the nodal fiber, not a torus
    code, out, err = run_cli(capsys, "potential", "--fixture", "dp5",
                             "--constraint", "point:1/2,1/4")
    assert code == 1
    assert err.startswith("error:") and "focus-focus value" in err
    assert out == ""


def test_point_constraint_beside_a_focus_runs(capsys):
    code, out, err = run_cli(capsys, "potential", "--fixture", "dp5",
                             "--constraint", "point:1/2,1/5")
    assert code == 0 and err == ""
    assert "total W_L = 2" in out


def test_potential_runs_a_fixture_case_through_fixture_run(tmp_path, capsys, monkeypatch):
    # --bounds, --constraint and --convention reach the case's one run path
    convention = tmp_path / "signs.json"
    convention.write_text(json.dumps({"pant_sign": [[1, 1]]}))
    calls, run = [], Fixture.run
    monkeypatch.setattr(Fixture, "run", lambda self, *args: calls.append(args) or run(self, *args))
    code, out, _ = run_cli(capsys, "potential", "--fixture", "dp7", "--case", "leg", "--bounds",
                           "5,2", "--constraint", "edge:1@3/16", "--convention", str(convention))
    assert code == 0 and "pant sign convention overridden" in out
    ((case, bounds, constraint, signs),) = calls
    assert case == "leg" and bounds == replace(builtin_fixture("dp7").case("leg").bounds,
                                               max_vertices=5, max_lattice_length=2)
    assert (constraint.edge_index, constraint.t, signs.pant_sign(1)) == (1, F(3, 16), 1)


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_potential_report_adds_the_convention_warning_not_the_result(
        tmp_path, capsys, monkeypatch, json_flag):
    convention = tmp_path / "signs.json"
    convention.write_text(json.dumps({"pant_sign": [[1, 1]]}))
    returned, run = [], Fixture.run

    def kept(self, *args):
        result = run(self, *args)
        returned.append((result, list(result.warnings)))
        return result

    monkeypatch.setattr(Fixture, "run", kept)
    code, out, _ = run_cli(capsys, "potential", "--fixture", "dp7", "--case", "leg",
                           "--convention", str(convention), *json_flag)
    ((result, warnings),) = returned
    assert code == 0 and result.warnings == warnings
    line = f"pant sign convention overridden from {convention}"
    if json_flag:
        assert json.loads(out)["warnings"] == warnings + [line]
    else:
        assert out.splitlines()[-len(warnings) - 1:] == [
            *(f"warning: {w}" for w in warnings), f"warning: {line}"]


@pytest.mark.parametrize("spec", ["edge:0", "point:a,0", "point:1/0,0", "edge:5@1/2",
                                  "edge:-1@1/2"])
def test_malformed_constraint_is_validation_error(tmp_path, capsys, spec):
    fx = builtin_fixture("dp6")
    dpath = tmp_path / "dp6.diagram.json"
    lpath = tmp_path / "segment.lag.json"
    fx.diagram.save(dpath)
    fx.lagrangians["segment"].save(lpath)
    code, out, err = run_cli(capsys, "potential", "--diagram", str(dpath),
                             "--lagrangian", str(lpath), "--constraint", spec)
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("content", [
    pytest.param("{not", id="not-json"),
    pytest.param(json.dumps([[1, 1]]), id="json-list"),
    pytest.param(json.dumps({"pant_sign": [[1]]}), id="short-entry"),
])
def test_malformed_convention_is_validation_error(tmp_path, capsys, content):
    convention = tmp_path / "signs.json"
    convention.write_text(content)
    code, out, err = run_cli(capsys, "potential", "--fixture", "dp7",
                             "--convention", str(convention))
    assert code == 1
    assert err.startswith("error:") and str(convention) in err
    assert out == ""


@pytest.mark.parametrize("table,named", [
    pytest.param({"pant_sign": [[1.9, 1]]},
                 "pant_sign entry 0 [1.9, 1] is not an [int, int] pair", id="float-d"),
    pytest.param({"pant_sign": [["1", 1]]},
                 "pant_sign entry 0 ['1', 1] is not an [int, int] pair", id="string-d"),
    pytest.param({"pant_sign": [[1, True]]},
                 "pant_sign entry 0 [1, True] is not an [int, int] pair", id="bool-sign"),
    pytest.param({"pant_sign": [[1, 1], [0, 1]]}, "pant_sign entry 1 [0, 1] is not [D >= 1, +/-1]",
                 id="zero-d"),
    pytest.param({"pant_sign": [[-1, 1]]}, "pant_sign entry 0 [-1, 1] is not [D >= 1, +/-1]",
                 id="negative-d"),
    pytest.param({"pant_sign": [[3, 0]]}, "pant_sign entry 0 [3, 0] is not [D >= 1, +/-1]",
                 id="zero-sign"),
    pytest.param({"pant_signs": [[1, 1]]}, "unknown field 'pant_signs'", id="misspelled-key"),
])
def test_misread_convention_is_named(tmp_path, capsys, table, named):
    # a convention entry that is not an [int, int] pair with D >= 1 and a
    # sign of +/-1, or a field other than pant_sign, ends in exit 1 with the
    # entry or the field named; none is read as a flipped or an ignored sign
    convention = tmp_path / "signs.json"
    convention.write_text(json.dumps(table))
    code, out, err = run_cli(capsys, "potential", "--fixture", "dp7",
                             "--convention", str(convention))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: malformed convention file {convention}")
    assert named in err and not any(text in err for text in RAW_EXCEPTIONS)


@pytest.mark.parametrize("argv", [
    ["potential", "--bogus"], [], ["potential", "--fixture", "nope"], ["frobnicate"],
    ["render", "--fixture", "dp6", "--json"],
])
def test_unparsable_command_line_exits_3(capsys, argv):
    # argparse's own code 2 would read as an incomplete enumeration
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("usage: tropdisk") and "error:" in err


@pytest.mark.parametrize("argv", [["--help"], ["potential", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tropdisk")


def test_one_parser_serves_repeated_calls(tmp_path, capsys):
    # the module-level parser and the deferred render import keep no state
    # between calls: a second round, after a usage error, gives the same
    svg = tmp_path / "dp6.svg"
    commands = [
        ["potential", "--fixture", "dp6"],
        ["potential", "--fixture", "dp7", "--json"],
        ["validate", "--fixture", "dp4", "--json"],
        ["table", "--json"],
        ["render", "--fixture", "dp5"],
        ["potential", "--fixture", "dp6", "--case", "trivalent", "--svg", str(svg)],
    ]
    rounds = []
    for _ in range(2):
        outputs = []
        for argv in commands:
            code, out, _ = run_cli(capsys, *argv)
            outputs.append((code, out))
        outputs.append(svg.read_text())
        rounds.append(outputs)
        assert run_cli(capsys, "potential", "--bogus")[0] == 3
    assert rounds[0] == rounds[1]
    assert [code for code, _ in rounds[0][:-1]] == [0] * len(commands)
    assert rounds[0][-1].startswith("<svg")


def test_cli_import_defers_the_renderer():
    # only the drawing commands pay for importing render.py
    src = os.path.dirname(os.path.dirname(tropdisk.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, tropdisk.cli; assert 'tropdisk.render' not in sys.modules"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr


def test_missing_inputs_is_usage_error(capsys):
    for command in ("potential", "validate", "render"):
        code, out, err = run_cli(capsys, command)
        assert code == 3
        assert out == ""
        assert err.startswith(f"usage: tropdisk {command}")
        assert "error: need --fixture NAME or --diagram FILE" in err


@pytest.mark.parametrize("command", ["potential", "validate", "render"])
@pytest.mark.parametrize("option", ["--diagram", "--lagrangian"])
def test_fixture_with_a_file_is_usage_error(tmp_path, capsys, command, option):
    # the files are never read: a missing one and a malformed one alike
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    for path in (bad, tmp_path / "missing.json"):
        code, out, err = run_cli(capsys, command, "--fixture", "dp5", option, str(path))
        assert code == 3
        assert out == ""
        assert err.startswith(f"usage: tropdisk {command}")
        assert "error: --fixture cannot be combined with --diagram or --lagrangian" in err


@pytest.mark.parametrize("command", ["potential", "validate", "render"])
def test_case_without_fixture_is_usage_error(tmp_path, capsys, command):
    path = tmp_path / "dp6.diagram.json"
    builtin_fixture("dp6").diagram.save(path)
    code, out, err = run_cli(capsys, command, "--diagram", str(path), "--case", "segment")
    assert code == 3
    assert out == ""
    assert err.startswith(f"usage: tropdisk {command}")
    assert "error: --case needs --fixture" in err


def test_bounds_override(capsys):
    code, out, _ = run_cli(capsys, "potential", "--fixture", "dp6", "--bounds", "6,3")
    assert code == 0
    assert "total W_L = -2" in out


def test_bounds_set_crossings_and_splits():
    case = builtin_fixture("dp3").case()
    assert cli._parse_bounds("8,4", case.bounds) == replace(
        case.bounds, max_vertices=8, max_lattice_length=4)
    assert cli._parse_bounds("8,4,1,0", case.bounds) == SearchBounds(8, 4, 1, 0)


@pytest.mark.parametrize("spec,total", [("8,3", -6), ("8,3,2,2", -36), ("8,3,2,0", -2)])
def test_bounds_with_splits_change_the_search(capsys, spec, total):
    # the split cap reaches the search only through the four-value form
    code, out, _ = run_cli(capsys, "potential", "--fixture", "dp3", "--bounds", spec)
    assert code == 0
    assert f"total W_L = {total}\n" in out


@pytest.mark.parametrize("spec", ["", "6", "a,b", "0,3", "3,0", "6,3,1", "6,3,1,2,3",
                                  "6,3,-1,0", "6,3,0,-1", "0,3,0,0", "6,3,x,0"])
def test_malformed_bounds_is_validation_error(capsys, spec):
    code, out, err = run_cli(capsys, "potential", "--fixture", "dp6", "--bounds", spec)
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_render_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    for out in (out1, out2):
        code, _, _ = run_cli(capsys, "render", "--fixture", "dp4",
                             "--with-disks", "--out", str(out))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    body = out1.read_text()
    assert body.startswith("<svg")
    assert "polygon" in body


def test_render_disk_layer_counts(tmp_path, capsys):
    out = tmp_path / "dp4.svg"
    run_cli(capsys, "render", "--fixture", "dp4", "--with-disks", "--out", str(out))
    body = out.read_text()
    # four disk graphs drawn in blue on top of the aqua sphere
    assert body.count('stroke="#1d4ed8"') >= 4
    assert body.count('stroke="#14b8a6"') >= 1
    # two focus-focus crosses
    assert body.count('stroke="#8b5cf6"') >= 2


def test_render_without_disks(capsys):
    code, out, _ = run_cli(capsys, "render", "--fixture", "dp5")
    assert code == 0
    assert 'stroke="#1d4ed8"' not in out


def test_table_text(capsys):
    code, out, _ = run_cli(capsys, "table")
    assert code == 0
    assert "Bl6P2" in out and "eigenvalue   -6" in out
    assert "dp3:trivalent -> -6" in out
    assert "Bl1P2    none" in out
    assert "P1xP1" in out and "p1xp1:antidiagonal -> 0" in out


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--json")
    assert code == 0
    rows = json.loads(out)
    realized = {
        (r["surface"], r["eigenvalue"]): r["realized_by"]
        for r in rows if "eigenvalue" in r
    }
    assert realized[("Bl8P2", -60)][0]["computed"] == [-60, 1]


def test_entry_point_runs():
    # the child process imports the same tropdisk as this one, installed or not
    src = os.path.dirname(os.path.dirname(tropdisk.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tropdisk.cli", "potential", "--fixture", "p1xp1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "total W_L = 0" in proc.stdout


@pytest.mark.parametrize("command", ["potential", "validate", "render"])
def test_unknown_case_is_validation_error(capsys, command):
    code, out, err = run_cli(capsys, command, "--fixture", "dp6", "--case", "nope")
    assert code == 1
    assert err.startswith("error:") and "no case 'nope'" in err
    assert out == ""


def test_render_with_disks_needs_fixture(tmp_path, capsys):
    path = tmp_path / "dp6.diagram.json"
    builtin_fixture("dp6").diagram.save(path)
    code, out, err = run_cli(capsys, "render", "--diagram", str(path), "--with-disks")
    assert code == 3
    assert out == ""
    assert err.startswith("usage: tropdisk render")
    assert "error: --with-disks needs --fixture" in err


def _dp5_json(name="dp5", cut_sign=1) -> str:
    """dp5's diagram file with the given name and branch cut sign."""
    data = builtin_fixture("dp5").diagram.to_json_dict()
    data["name"] = name
    data["focus_foci"][0]["branch_cut_sign"] = cut_sign
    return json.dumps(data)


def _replaced(data, path, value):
    """A deep copy of the JSON data with the entry at the key path set to value."""
    if not path:
        return value
    data = json.loads(json.dumps(data))
    *parents, last = path
    entry = data
    for key in parents:
        entry = entry[key]
    entry[last] = value
    return data


def _dp5_json_with(value, *path) -> str:
    """dp5's diagram file with the entry at the key path set to value."""
    return json.dumps(_replaced(builtin_fixture("dp5").diagram.to_json_dict(), path, value))


# the dp6 segment's file with a JSON true for the first vertex's x numerator
BOOL_POSITION_LAGRANGIAN = json.dumps({
    "vertices": [{"id": "v0", "position": [[True, 1], [-1, 1]]},
                 {"id": "v1", "position": [[-1, 1], [1, 1]]}],
    "edges": [["v0", "v1"]]})


@pytest.mark.parametrize("diagram,lagrangian", [
    pytest.param("{not json", None, id="not-json"),
    pytest.param(json.dumps({"name": "bad"}), None, id="no-polygon"),
    pytest.param(json.dumps({"polygon": [[1, 0, 0, 1], [0, 1, 1, 1], [-1, 1, 0, 1]]}),
                 None, id="zero-denominator"),
    pytest.param(json.dumps({"polygon": [[1, 0, 1], [0, 1, 1, 1], [-1, 1, 0, 1]]}),
                 None, id="polygon-entry-length"),
    pytest.param(None, json.dumps({"edges": []}), id="lagrangian-without-vertices"),
    pytest.param(None, json.dumps({"vertices": [{"id": "a", "position": [[0, 1]]}],
                                   "edges": []}), id="lagrangian-position-length"),
    pytest.param(None, json.dumps({"vertices": [1, 2], "edges": []}),
                 id="lagrangian-vertex-not-an-object"),
    pytest.param(None, json.dumps({"vertices": [{"id": "v0", "position": [[0, 1], [0, 1]]}],
                                   "edges": [["v0"]]}), id="lagrangian-edge-entry-length"),
    pytest.param(None, json.dumps({"vertices": [{"id": "v0", "position": [[0, 1], [0, 1]]},
                                                {"id": "v1", "position": [[1, 2], [0, 1]]}],
                                   "edges": [["v0", "v1", "x"]]}), id="lagrangian-edge-weight"),
    *(pytest.param(_dp5_json(name=value), None, id=f"name-{label}")
      for label, value in (("int", 5), ("null", None), ("object", {"a": 1}))),
    *(pytest.param(_dp5_json(cut_sign=value), None, id=f"branch-cut-sign-{label}")
      for label, value in (("float", 1.7), ("bool", True), ("string", "1"))),
    # JSON true reads as 1 and "0" as 0 unless the loaders insist on integers
    pytest.param(_dp5_json_with(True, "polygon", 0, 0), None, id="polygon-bool"),
    pytest.param(_dp5_json_with(True, "focus_foci", 0, "position", 0, 0), None,
                 id="focus-position-bool"),
    pytest.param(_dp5_json_with(True, "focus_foci", 0, "shear_direction", 1), None,
                 id="shear-direction-bool"),
    pytest.param(_dp5_json_with(True, "focus_foci", 0, "shear_covector", 0), None,
                 id="shear-covector-bool"),
    pytest.param(_dp5_json_with(["0", "1"], "focus_foci", 0, "shear_direction"), None,
                 id="shear-direction-string"),
    pytest.param(None, BOOL_POSITION_LAGRANGIAN, id="lagrangian-position-bool"),
])
def test_malformed_input_file_is_validation_error(tmp_path, capsys, diagram, lagrangian):
    dpath = tmp_path / "d.json"
    if diagram is None:
        builtin_fixture("dp6").diagram.save(dpath)
    else:
        dpath.write_text(diagram)
    argv = ["validate", "--diagram", str(dpath)]
    bad = dpath
    if lagrangian is not None:
        bad = tmp_path / "l.json"
        bad.write_text(lagrangian)
        argv += ["--lagrangian", str(bad)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and str(bad) in err


def _segment_json_without(*path) -> str:
    """The dp6 segment's Lagrangian file with the entry at the key path left out."""
    data = builtin_fixture("dp6").lagrangians["segment"].to_json_dict()
    *parents, last = path
    entry = data
    for key in parents:
        entry = entry[key]
    del entry[last]
    return json.dumps(data)


def _segment_json_with(value, *path) -> str:
    """The dp6 segment's Lagrangian file with the entry at the key path set to value."""
    return json.dumps(_replaced(
        builtin_fixture("dp6").lagrangians["segment"].to_json_dict(), path, value))


# the texts of exceptions that escaped the file readers' own checks
RAW_EXCEPTIONS = ("KeyError(", "TypeError(", "ZeroDivisionError(", "Traceback")


def _validate_malformed(tmp_path, capsys, diagram, lagrangian) -> str:
    """`validate` on the diagram file, or on dp6's diagram and the Lagrangian
    file: it exits 1 naming the malformed file, and its error text."""
    dpath, lpath = tmp_path / "d.json", tmp_path / "l.json"
    if diagram is None:
        builtin_fixture("dp6").diagram.save(dpath)
        lpath.write_text(lagrangian)
        argv, what, bad = ["--lagrangian", str(lpath)], "Lagrangian", lpath
    else:
        dpath.write_text(diagram)
        argv, what, bad = [], "diagram", dpath
    code, out, err = run_cli(capsys, "validate", "--diagram", str(dpath), *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: malformed {what} file {bad}")
    assert not any(text in err for text in RAW_EXCEPTIONS), err
    return err


@pytest.mark.parametrize("diagram,lagrangian,named", [
    (_dp5_json_with([[1, 2]], "focus_foci"), None, "focus_foci entry 0 [1, 2] is not an object"),
    (_dp5_json_with(5, "focus_foci", 0), None, "focus_foci entry 0 5 is not an object"),
    (_dp5_json_with(5, "focus_foci"), None, "focus_foci 5 is not a list"),
    (_dp5_json_with({"a": 1}, "focus_foci"), None, "focus_foci {'a': 1} is not a list"),
    (_dp5_json_with(None, "polygon"), None, "polygon None is not a list"),
    (json.dumps([1, 2]), None, "the top level is not a JSON object"),
    (json.dumps("dp5"), None, "the top level is not a JSON object"),
    (None, json.dumps({"vertices": 7, "edges": []}), "vertices 7 is not a list"),
    (None, json.dumps({"vertices": [], "edges": "ab"}), "edges 'ab' is not a list"),
    (None, _segment_json_without("edges"), "no 'edges' field"),
    (None, _segment_json_without("vertices"), "no 'vertices' field"),
    (None, json.dumps([{"vertices": []}]), "the top level is not a JSON object"),
    (_dp5_json_with(5, "polygon", 0), None, "polygon entry 0 5 is not [num, den, num, den]"),
    (_dp5_json_with(5, "focus_foci", 0, "position"), None,
     "focus_foci entry 0 position 5 is not [num, den, num, den]"),
    (_dp5_json_with([[0, 1]] * 3, "focus_foci", 0, "position"), None,
     "focus_foci entry 0 position [[0, 1], [0, 1], [0, 1]] is not"),
    (_dp5_json_with({"shear_direction": [0, 1], "shear_covector": [1, 0]}, "focus_foci", 0),
     None, "focus_foci entry 0 has no 'position' field"),
    (_dp5_json_with([0, 1, 0], "focus_foci", 0, "shear_direction"), None,
     "focus_foci entry 0 shear_direction [0, 1, 0] is not an [int, int] pair"),
    (_dp5_json_with(7, "focus_foci", 0, "shear_covector"), None,
     "focus_foci entry 0 shear_covector 7 is not an [int, int] pair"),
], ids=["focus-entry-list", "focus-entry-number", "focus-foci-number", "focus-foci-object",
        "polygon-null", "diagram-list", "diagram-string", "vertices-number", "edges-string",
        "no-edges", "no-vertices", "lagrangian-list", "polygon-entry-number",
        "position-number", "position-three-pairs", "no-position", "shear-direction-triple",
        "shear-covector-number"])
def test_malformed_file_structure_is_named(tmp_path, capsys, diagram, lagrangian, named):
    # a file whose top level, list field, point, pair or focus entry has the
    # wrong JSON type or shape ends in exit 1 with the field named, never in
    # a traceback
    assert named in _validate_malformed(tmp_path, capsys, diagram, lagrangian)


# a dp5 diagram number by the key path of its first entry, and the field it
# is read in
DIAGRAM_NUMBERS = {
    "polygon-entry": (("polygon", 0, 0), "polygon entry 0 "),
    "focus-position": (("focus_foci", 0, "position", 0, 0), "focus_foci entry 0 position "),
    "shear-direction": (("focus_foci", 0, "shear_direction", 1),
                        "focus_foci entry 0 shear_direction "),
    "shear-covector": (("focus_foci", 0, "shear_covector", 0),
                       "focus_foci entry 0 shear_covector "),
}


@pytest.mark.parametrize("diagram,lagrangian,named", [
    *(pytest.param(_dp5_json_with(value, *path), None, named, id=f"{field}-{label}")
      for field, (path, named) in DIAGRAM_NUMBERS.items()
      for label, value in (("bool", True), ("float", 1.5), ("string", "1"))),
    pytest.param(_dp5_json_with(0, "polygon", 0, 1), None, "polygon entry 0 [1, 0, 0, 1] is not",
                 id="polygon-entry-zero-den"),
    pytest.param(_dp5_json_with(0, "focus_foci", 0, "position", 1, 1), None,
                 "focus_foci entry 0 position [[1, 2], [1, 0]] is not",
                 id="focus-position-zero-den"),
    pytest.param(None, _segment_json_with(0, "vertices", 0, "position", 0, 1),
                 "vertex v0 position [[1, 0], [-1, 1]] is not", id="lagrangian-position-zero-den"),
    pytest.param(None, _segment_json_without("vertices", 0, "id"),
                 "vertex entry 0 has no 'id' field", id="no-vertex-id"),
    pytest.param(None, _segment_json_without("vertices", 1, "position"),
                 "vertex entry 1 has no 'position' field", id="no-vertex-position"),
])
def test_malformed_file_number_or_vertex_field_is_named(tmp_path, capsys, diagram, lagrangian,
                                                         named):
    # a number that is not a JSON integer, a zero denominator or a missing
    # vertex field ends in exit 1 with the field and its entry named, never
    # in a KeyError, TypeError or ZeroDivisionError
    assert named in _validate_malformed(tmp_path, capsys, diagram, lagrangian)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=8)


def _json_paths(value, path=()):
    """The key path of the value and of every entry nested in it."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, entry in items:
        yield from _json_paths(entry, (*path, key))


SAVED_FILES = {"diagram": builtin_fixture("dp5").diagram.to_json_dict(),
               "lagrangian": builtin_fixture("dp6").lagrangians["segment"].to_json_dict(),
               "convention": {"pant_sign": [[1, 1], [3, -1]]}}


# every command that loads the files: the search at an edge and at a point
# and the drawing go on from a loaded file, so a file they accept can still
# raise there
FILE_COMMANDS = (["validate"], ["validate", "--json"],
                 ["potential", "--constraint", "edge:0@1/2", "--json"],
                 ["potential", "--constraint", "point:1/7,-1/5", "--json"], ["render"])


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_file_loaders_never_raise(tmp_path, capsys, data):
    # any one value or entry of the saved dp5 diagram, dp6 segment or pant
    # sign table replaced by any JSON value: each command returns an exit
    # code, never an exception, and no error is a raw exception's text
    which = data.draw(st.sampled_from(sorted(SAVED_FILES)))
    path = data.draw(st.sampled_from(list(_json_paths(SAVED_FILES[which]))))
    files = dict(SAVED_FILES, **{which: _replaced(SAVED_FILES[which], path,
                                                   data.draw(JSON_VALUES))})
    options = {}
    for name, content in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(content))
        options[name] = [f"--{name}", str(tmp_path / f"{name}.json")]
    for argv in FILE_COMMANDS:
        # only a search reads the pant signs
        names = files if argv[0] == "potential" else ("diagram", "lagrangian")
        assert main(argv + [opt for name in names for opt in options[name]]) in (0, 1, 2, 3)
        err = capsys.readouterr().err
        assert not any(text in err for text in RAW_EXCEPTIONS), err
