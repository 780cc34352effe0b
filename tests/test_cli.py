import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import tropdisk
from tropdisk import cli
from tropdisk.cli import main
from tropdisk.fixtures import builtin_fixture


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


def test_convention_override(tmp_path, capsys):
    convention = tmp_path / "signs.json"
    convention.write_text(json.dumps({"pant_sign": [[1, 1]]}))
    code, out, _ = run_cli(capsys, "potential", "--fixture", "dp7",
                           "--convention", str(convention))
    assert code == 0
    assert "total W_L = 1" in out  # both half pants flipped to +1/2


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
    # the package re-exports the function `multiplicity` under the module's name
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


def test_missing_inputs_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "potential")
    assert code == 1
    assert "error" in err


def test_bounds_override(capsys):
    code, out, _ = run_cli(capsys, "potential", "--fixture", "dp6", "--bounds", "6,3")
    assert code == 0
    assert "total W_L = -2" in out


@pytest.mark.parametrize("spec", ["6", "a,b", "0,3", "3,0"])
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
    code, _, err = run_cli(capsys, "render", "--diagram", str(path), "--with-disks")
    assert code == 1
    assert err.startswith("error:") and "--with-disks needs --fixture" in err


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
