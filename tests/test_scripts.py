"""The experiment scripts, loaded from their paths and run in process."""

import json
import pathlib
import re
import runpy
import shutil
import subprocess
import sys
from fractions import Fraction as F

import pytest

from tropdisk.cli import main
from tropdisk.diagram import BaseDiagram
from tropdisk.diskgraph import Constraint
from tropdisk.fixtures import SHIPPED_CASES, builtin_fixture
from tropdisk.geometry import Vec
from tropdisk.lagrangian import LagGraph

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    return runpy.run_path(str(SCRIPTS / name))


def test_run_potentials_matches_every_shipped_case(capsys):
    assert load_script("run_potentials.py")["main"](["--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["fixture"] for row in rows] == [f"{n}:{c}" for n, c in SHIPPED_CASES]
    for row, (name, case) in zip(rows, SHIPPED_CASES):
        assert row["verdict"].startswith("matches"), row
        areas = [g.graph.area() for g in builtin_fixture(name).run(case).graphs]
        assert row["areas"] == [[a.numerator, a.denominator] for a in areas], row
    assert {row["fixture"]: row for row in rows}["p1xp1:antidiagonal"]["areas"] == []


def _score_rows(report):
    keys = ("oracle", "diagram", "sphere", "edge", "t")
    return {tuple(row.get(k) for k in keys): row for row in report["rows"]}


def test_scorecard_keeps_every_passing_row(tmp_path, capsys):
    # the ratchet: each row that passes in the newest SCORE_*.json still
    # passes; a failing row may change either way
    out = tmp_path / "score.json"
    assert load_script("scorecard.py")["main"](["--out", str(out)]) == 0
    assert load_script("scorecard.py")["main"]([]) == 0
    assert capsys.readouterr().out == out.read_text()  # no timings: the same file twice
    now = _score_rows(json.loads(out.read_text()))
    newest = max(SCRIPTS.parent.glob("SCORE_*.json"), key=lambda p: int(p.stem[6:]))
    passing = [key for key, row in _score_rows(json.loads(newest.read_text())).items()
               if row["verdict"] == "pass"]
    assert passing
    for key in passing:
        assert now[key]["verdict"] == "pass", key


def test_render_figures_writes_one_svg_per_shipped_case(tmp_path, capsys):
    assert load_script("render_figures.py")["main"]([str(tmp_path)]) == 0
    written = sorted(path.name for path in tmp_path.glob("*.svg"))
    assert written == sorted(f"{n}_{c}.svg" for n, c in SHIPPED_CASES)
    for name in written:
        assert (tmp_path / name).read_text().startswith("<svg")


def _canned_run(wall_s, digest="sha256:de21d787aa", failed=0, attempted=12):
    """The stdout of one perfbench run, trimmed to the lines the summary reads."""
    metrics = {"wall_s": {"value": wall_s, "unit": "s"},
               "peak_rss_mb": {"value": 24.0, "unit": "MB"}}
    return "\n".join([
        "workload grid  seed 0 (not used)",
        f"digest  {digest}  (3 timed passes compared)",
        f"wall_s         {wall_s:.6f} s",
        json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                    "metrics": metrics}),
    ])


def test_bench_pairs_summary_of_canned_runs():
    bench = load_script("bench_pairs.py")
    parse = bench["parse_run"]
    parent = [0.30 + 0.01 * k for k in range(10)]
    change = [0.20 + 0.01 * k for k in range(10)]
    pairs = [(k, parse(_canned_run(p)), parse(_canned_run(c)))
             for k, (p, c) in enumerate(zip(parent, change))]
    # the traced pass's layer metrics: where a saving sits, per side
    layers = {"parent": {"enumerate.rigidity.self_s": 0.040, "classify.calls": 922,
                         "classify.self_s": 0.061, "multiplicity.self_s": 0.012,
                         "fixtures.calls": 270, "fixtures.self_s": 0.0033,
                         "cli.self_s": 0.0026},
              "change": {"enumerate.rigidity.self_s": 0.019, "classify.calls": 922,
                         "classify.self_s": 0.035, "multiplicity.self_s": 0.012,
                         "fixtures.calls": 270, "fixtures.self_s": 0.0029,
                         "cli.self_s": 0.0025}}
    summary = bench["summarise_workload"](
        pairs, {side: {"metrics": metrics} for side, metrics in layers.items()})
    traced = summary["traced_seed0"]
    for name in layers["parent"]:
        assert traced[name] == {side: layers[side][name] for side in layers}
    assert traced["geometry.vec_new"] == {"parent": None, "change": None}
    wall = summary["metrics"]["wall_s"]
    assert wall["unit"] == "s"
    assert wall["parent"]["runs"] == parent and wall["change"]["runs"] == change
    assert wall["parent"]["median"] == pytest.approx(0.345)
    assert wall["parent"]["q1"] == pytest.approx(0.3225)
    assert wall["parent"]["q3"] == pytest.approx(0.3675)
    assert wall["parent_iqr"] == pytest.approx(0.045)
    assert wall["change_over_parent"] == pytest.approx(0.245 / 0.345)
    assert wall["change_lower_in_pairs"] == "10/10"
    assert summary["metrics"]["peak_rss_mb"]["change_lower_in_pairs"] == "0/10"
    assert summary["pairs"] == 10 and summary["seeds"] == list(range(10))
    assert summary["correct"] and summary["failed"] == {"parent": 0, "change": 0}
    assert summary["attempted"] == {"parent": 120, "change": 120}
    assert summary["digests"] == {"equal_on_every_pair": True, "seed0": "sha256:de21d787aa",
                                  "distinct_prefixes": ["sha256:de21d787"]}
    assert bench["claim_met"](wall)


def test_bench_pairs_names_a_checkout_outside_git_by_its_src_digest(tmp_path):
    bench = load_script("bench_pairs.py")
    commit = bench["_commit"]
    checkout = tmp_path / "archive"
    (checkout / "src" / "pkg").mkdir(parents=True)
    (checkout / "src" / "pkg" / "a.py").write_text("A = 1\n")
    name = commit(checkout)
    assert name.startswith("src-sha256:") and len(name) == len("src-sha256:") + 12
    assert name == f"src-sha256:{bench['src_digest'](checkout)[:12]}"
    # compiled caches do not count; a source edit does
    (checkout / "src" / "pkg" / "__pycache__").mkdir()
    (checkout / "src" / "pkg" / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\0")
    assert commit(checkout) == name
    (checkout / "src" / "pkg" / "a.py").write_text("A = 2\n")
    assert commit(checkout) != name
    # a git work tree is named by its commit
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(checkout)]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "c"]):
        subprocess.run(git + args, check=True, capture_output=True)
    head = subprocess.run(git + ["rev-parse", "--short", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    assert commit(checkout) == head
    # a directory inside that work tree is not its top: named by its own src/
    inner = checkout / "src" / "pkg"
    (inner / "src").mkdir()
    assert commit(inner).startswith("src-sha256:")


def test_bench_pairs_keeps_each_runs_attempted_count_in_seed_order():
    # a faster change fits more timed passes into each run; peak_rss_mb is
    # read against these counts
    bench = load_script("bench_pairs.py")
    parse = bench["parse_run"]
    parent = [1200 + k for k in range(10)]
    change = [1500 - k for k in range(10)]
    pairs = [(k, parse(_canned_run(0.3, attempted=p)), parse(_canned_run(0.2, attempted=c)))
             for k, (p, c) in enumerate(zip(parent, change))]
    summary = bench["summarise_workload"](pairs)
    assert summary["attempted_runs"] == {"parent": parent, "change": change}
    assert summary["attempted"] == {"parent": sum(parent), "change": sum(change)}
    # beside the metrics, in the order of the report
    keys = list(summary)
    assert keys.index("attempted_runs") == keys.index("attempted") + 1 < keys.index("metrics")


def test_bench_pairs_claim_needs_nine_pairs_and_a_gap_beyond_the_iqr():
    bench = load_script("bench_pairs.py")
    parse = bench["parse_run"]

    def wall_summary(parent, change, digests=None):
        digests = digests or ["sha256:de21d787aa"] * len(parent)
        pairs = [(k, parse(_canned_run(p)), parse(_canned_run(c, digest)))
                 for k, (p, c, digest) in enumerate(zip(parent, change, digests))]
        return bench["summarise_workload"](pairs)

    parent = [0.30 + 0.01 * k for k in range(10)]
    # lower in 8 of 10 pairs: not met, however large the gap
    eight = [0.20] * 8 + [0.50, 0.50]
    assert not bench["claim_met"](wall_summary(parent, eight)["metrics"]["wall_s"])
    # lower in every pair but by less than the parent's IQR: not met
    close = [p - 0.01 for p in parent]
    assert not bench["claim_met"](wall_summary(parent, close)["metrics"]["wall_s"])
    # another digest on one pair is reported
    other = ["sha256:de21d787aa"] * 9 + ["sha256:0badc0deff"]
    digests = wall_summary(parent, close, other)["digests"]
    assert digests["equal_on_every_pair"] is False
    assert digests["distinct_prefixes"] == ["sha256:0badc0de", "sha256:de21d787"]


def _summary(bench, parent, change, digests=None):
    parse = bench["parse_run"]
    digests = digests or ["sha256:de21d787aa"] * len(parent)
    pairs = [(k, parse(_canned_run(p)), parse(_canned_run(c, digest)))
             for k, (p, c, digest) in enumerate(zip(parent, change, digests))]
    bounds = bench["load_bounds"](SCRIPTS.parent / "BENCHMARK.json")
    return bench["summarise_workload"](pairs, None, bounds)


def test_bench_pairs_flags_a_metric_worse_than_its_bound():
    bench = load_script("bench_pairs.py")
    bounds = bench["load_bounds"](SCRIPTS.parent / "BENCHMARK.json")
    assert bounds["wall_s"] == ("lower", 0.25) and bounds["peak_rss_mb"] == ("lower", 0.1)
    parent = [0.30 + 0.01 * k for k in range(10)]
    # medians 0.345 and 1.3 * 0.345: beyond the 25% bound
    slower = _summary(bench, parent, [p * 1.3 for p in parent])["metrics"]
    assert slower["wall_s"]["regressed"] is True
    assert slower["peak_rss_mb"]["regressed"] is False
    # 1.2 times the parent: worse, but inside the bound
    assert _summary(bench, parent, [p * 1.2 for p in parent])["metrics"]["wall_s"][
        "regressed"] is False
    # without bounds nothing counts as regressed
    parse = bench["parse_run"]
    pairs = [(k, parse(_canned_run(p)), parse(_canned_run(2 * p)))
             for k, p in enumerate(parent)]
    assert bench["summarise_workload"](pairs)["metrics"]["wall_s"]["regressed"] is False


def test_bench_pairs_reports_a_metric_noisier_than_its_bound_as_unresolved():
    bench = load_script("bench_pairs.py")
    # quartiles 0.1625 and 0.3375 about a median of 0.25: 70% of it, wider than 25%
    noisy = [0.10 + 0.05 * k for k in range(7)] * 2
    narrow = [0.30 + 0.01 * k for k in range(10)]
    same = _summary(bench, noisy, list(noisy))["metrics"]["wall_s"]
    assert same["unresolved"] is True and same["regressed"] is False
    # every change run better than every parent run: resolved, however noisy
    assert _summary(bench, noisy, [0.05] * 14)["metrics"]["wall_s"]["unresolved"] is False
    # one change run no better than the best parent run: unresolved again
    assert _summary(bench, noisy, [0.05] * 13 + [0.10])["metrics"]["wall_s"]["unresolved"]
    # a narrow parent, or no bound: never unresolved
    assert _summary(bench, narrow, [p * 1.2 for p in narrow])["metrics"]["wall_s"][
        "unresolved"] is False
    parse = bench["parse_run"]
    pairs = [(k, parse(_canned_run(p)), parse(_canned_run(p))) for k, p in enumerate(noisy)]
    assert bench["summarise_workload"](pairs)["metrics"]["wall_s"]["unresolved"] is False
    # listed beside the regressions, which it leaves alone
    workloads = {"grid": _summary(bench, narrow, narrow),
                 "sweep": _summary(bench, noisy, [p * 1.3 for p in noisy])}
    assert bench["unresolved"](workloads) == ["sweep:wall_s"]
    assert bench["regressions"](workloads) == ["sweep:wall_s"]


def test_bench_pairs_claim_fails_on_a_regression_or_a_digest_mismatch():
    bench = load_script("bench_pairs.py")
    parent = [0.30 + 0.01 * k for k in range(10)]
    faster = [p - 0.1 for p in parent]
    flat = list(parent)
    workloads = {"grid": _summary(bench, parent, faster), "sweep": _summary(bench, parent, flat)}
    assert bench["regressions"](workloads) == []
    assert bench["claim_report"](workloads, "grid:wall_s") == {
        "workload": "grid", "metric": "wall_s", "met": True}
    # a regression on another workload
    workloads["sweep"] = _summary(bench, parent, [p * 1.3 for p in parent])
    assert bench["regressions"](workloads) == ["sweep:wall_s"]
    assert bench["claim_report"](workloads, "grid:wall_s")["met"] is False
    # digests that differ on one pair of another workload
    other = ["sha256:de21d787aa"] * 9 + ["sha256:0badc0deff"]
    workloads["sweep"] = _summary(bench, parent, flat, other)
    assert bench["regressions"](workloads) == []
    assert bench["claim_report"](workloads, "grid:wall_s")["met"] is False


def test_compare_outputs_reports_each_differing_command():
    compare = load_script("compare_outputs.py")
    argvs = compare["commands"]([("dp6", "segment"), ("dp6", "fiber")], ["dp6"],
                                builtin_fixture)
    malformed = [command for name in compare["MALFORMED"] for command in (
        f"validate --diagram {name}",
        f"potential --diagram {name} --constraint {compare['POINT']}")]
    # one file each JSON reader refuses
    unreadable = ["validate --diagram bool_shear.diagram.json",
                  "validate --diagram zero_denominator.diagram.json",
                  "validate --diagram dp5.diagram.json --lagrangian no_vertex_id.lagrangian.json",
                  "potential --fixture dp7 --convention float_d.convention.json"]
    # a Lagrangian whose focus leg leaves the shear line, in both forms
    off_shear = "validate --diagram dp5.diagram.json --lagrangian off_shear.lagrangian.json"
    focus_leg = [f"{off_shear} --json", off_shear]
    # the dp6 segment with a weight-2 edge and with a zero-length edge, in both
    # validate forms and through potential
    edge_codes = [f"{command} --diagram dp6_segment.diagram.json --lagrangian {path}{flags}"
                  for path in ("weighted.lagrangian.json", "zero_length.lagrangian.json")
                  for command, flags in (("validate", " --json"), ("validate", ""),
                                         ("potential", " --constraint edge:0@1/2 --json"))]
    # the grid cells at each case's own vertex and crossing caps
    grid = [f"potential --fixture {name} --case {case} --json --bounds {v},{length},2,{splits}"
            for name, case, v in (("dp1", "vertical", 8), ("dp2", "l2", 8),
                                  ("dp3", "trivalent", 6))
            for length in (3, 4) for splits in (1, 2)]
    # both cases at their own V and L, with no crossing and no split
    unbudgeted = [f"potential --fixture dp6 --case {case} --json --bounds 6,3,0,0"
                  for case in ("segment", "fiber")]
    # the one edge of the dp6 segment; the fiber case has no Lagrangian
    edges = [f"potential --fixture dp6 --case segment --json --constraint edge:0@{t}"
             for t in ("3/16", "1/2", "13/16")]
    # the interior points, on both dp6 cases
    points = [f"potential --fixture dp6 --case {case} --json --constraint point:{xy}"
              for case in ("segment", "fiber")
              for xy in ("1/16,1/32", "-1/5,1/7", "1/7,-1/5", "1/3,1/5", "-1/3,-1/9")]
    # both cases under the flipped pant signs
    conventions = [f"potential --fixture dp6 --case {case} --json --convention "
                   f"{compare['CONVENTION']}" for case in ("segment", "fiber")]
    # the interior points on each saved noded diagram
    fibers = [f"potential --diagram {path} --json --constraint point:{xy}"
              for path in ("dp5.diagram.json", "dp4.diagram.json", "dp3.diagram.json",
                           "dp2.diagram.json", "dp1.diagram.json", "dp2_l1.diagram.json")
              for xy in ("1/16,1/32", "-1/5,1/7", "1/7,-1/5", "1/3,1/5", "-1/3,-1/9")]
    # the dp3 fiber one vertex over the default cap, where item 5's error remains
    coincident = ["potential --diagram dp3.diagram.json --json --constraint point:1/16,1/32 "
                  "--bounds 7,3,2,3"]
    # the saved files of the segment case, at its own edge and t
    files = "--diagram dp6_segment.diagram.json --lagrangian dp6_segment.lagrangian.json --json"
    case_files = [f"validate {files}", f"potential {files} --constraint edge:0@1/2"]
    renders = [f"render --fixture dp6 --case {case}{flag}"
               for case in ("segment", "fiber") for flag in ("", " --with-disks")]
    # each saved noded diagram, whose cuts are built after its validation
    diagram_renders = [f"render --diagram {path}"
                       for path in ("dp5.diagram.json", "dp4.diagram.json", "dp3.diagram.json",
                                    "dp2.diagram.json", "dp1.diagram.json", "dp2_l1.diagram.json")]
    assert [" ".join(argv) for argv in argvs] == [
        "potential --fixture dp6 --case segment", "potential --fixture dp6 --case segment --json",
        "potential --fixture dp6 --case fiber", "potential --fixture dp6 --case fiber --json",
        "validate --fixture dp6", "validate --fixture dp6 --json", "table", "table --json",
        *malformed, *unreadable, *focus_leg, *edge_codes, *grid, *unbudgeted, *edges, *points,
        *conventions, *fibers, *coincident, *case_files, *renders, *diagram_renders]
    # the in-process section, on one fixture object per name: each edge case
    # at each t, t major with the cases interleaved, then case major with
    # each edge's positions in a row, then the fibers at the five points
    cases = [("dp7", "leg"), ("dp7", "diag"), ("dp6", "fiber"), ("dp5", "segment")]
    positions = ("3/16", "1/2", "13/16")
    points = ("1/16,1/32", "-1/5,1/7", "1/7,-1/5", "1/3,1/5", "-1/3,-1/9")
    runs = compare["reuse_runs"](cases, builtin_fixture)
    case_major = compare["case_major_runs"](cases, builtin_fixture)
    fibers = compare["fiber_runs"](cases, builtin_fixture)
    assert [label for label, *_ in runs] == [
        label for t in positions for label in
        [f"dp7:{case}#{k}@{t}" for case in ("leg", "diag") for k in range(3)]
        + [f"dp5:segment#0@{t}"]]
    assert [label for label, *_ in case_major] == [
        f"case-major dp7:{case}#{k}@{t}" for case in ("leg", "diag") for k in range(3)
        for t in positions] + [f"case-major dp5:segment#0@{t}" for t in positions]
    assert [label for label, *_ in fibers] == [
        f"fiber dp7:{case}@{xy}" for case in ("leg", "diag") for xy in points] + [
        f"fiber dp6:fiber@{xy}" for xy in points]
    for section in (runs, case_major, fibers):
        assert len({id(fixture) for _, fixture, *_ in section}) == len(
            {label.split(":")[0] for label, *_ in section})
    assert [c.edge_index for *_, c in case_major[:3]] == [0, 0, 0]
    assert [c.t for *_, c in case_major[:4]] == [F(3, 16), F(1, 2), F(13, 16), F(3, 16)]
    assert fibers[-1][3] == Constraint.interior_point(Vec(F(-1, 3), F(-1, 9)))
    picked = [runs[0], runs[1], case_major[-1], fibers[0]]
    outputs = compare["reuse_outputs"](picked)
    assert list(outputs) == ["in-process dp7:leg#0@3/16", "in-process dp7:leg#1@3/16",
                             "in-process case-major dp5:segment#0@13/16",
                             "in-process fiber dp7:leg@1/16,1/32"]
    for (label, fixture, case, constraint), output in zip(picked, outputs.values()):
        assert output["exit"] == 0 and output["stderr"] == ""
        line = json.loads(output["stdout"])
        result = fixture.run(case, None, constraint)
        assert line == [label, [result.total().numerator, result.total().denominator],
                        sorted(repr(g.graph.signature()) for g in result.graphs)]
    parent = {"table": {"exit": 0, "stdout": "P2  none\nP1xP1 eigenvalue 0\n", "stderr": ""},
              "validate --fixture dp6": {"exit": 0, "stdout": "valid\n", "stderr": ""}}
    assert compare["diff_outputs"](parent, parent) == []
    change = {"table": {"exit": 1, "stdout": "P2  none\nP1xP1 eigenvalue 4\n", "stderr": ""},
              "validate --fixture dp6": {"exit": 0, "stdout": "valid\n", "stderr": ""},
              "table --json": {"exit": 0, "stdout": "[]\n", "stderr": ""}}
    differences = dict(compare["diff_outputs"](parent, change))
    assert list(differences) == ["table", "table --json"]
    report = differences["table"].splitlines()
    assert report[0] == "exit 0 -> 1"
    assert "-P1xP1 eigenvalue 0" in report and "+P1xP1 eigenvalue 4" in report
    assert " P2  none" in report
    assert differences["table --json"] == "runs on the change only"
    # a one-line JSON report diffs key by key; a rewrite of the same value
    # still differs, since equality is on the raw text
    report = {"fixture": "dp6:segment", "total_integer": -1, "verdict": "matches"}
    parent = {"potential --json": {"exit": 0, "stdout": json.dumps(report) + "\n",
                                   "stderr": ""},
              "validate --json": {"exit": 0, "stdout": '{"violations": []}\n', "stderr": ""}}
    change = {"potential --json": {"exit": 0, "stdout": json.dumps(
                  dict(report, total_integer=2), sort_keys=True) + "\n", "stderr": ""},
              "validate --json": {"exit": 0, "stdout": '{\n  "violations": []\n}\n',
                                  "stderr": ""}}
    differences = dict(compare["diff_outputs"](parent, change))
    assert list(differences) == ["potential --json", "validate --json"]
    report = differences["potential --json"].splitlines()
    assert '-  "total_integer": -1,' in report and '+  "total_integer": 2,' in report
    assert '   "fixture": "dp6:segment",' in report
    assert differences["validate --json"] == "stdout: the same JSON value, written differently"


def test_compare_outputs_convention_flips_the_pant_signs(tmp_path, monkeypatch, capsys):
    # the convention commands read a table that turns dp7 leg's two pants
    # of D = 1 from -1/2 to 1/2
    compare = load_script("compare_outputs.py")
    (tmp_path / compare["CONVENTION"]).write_text(json.dumps(compare["CONVENTION_TABLE"]))
    monkeypatch.chdir(tmp_path)
    (argv,) = [argv for argv in compare["commands"]([("dp7", "leg")], [], builtin_fixture)
               if "--convention" in argv and argv not in compare["UNREADABLE_COMMANDS"]]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    pants = [v for g in report["graphs"] for v in g["vertices"]
             if v["kind"].startswith("holomorphic_pant")]
    assert [(v["kind"], v["multiplicity"]) for v in pants] == [
        ("holomorphic_pant(D=1)", [1, 2])] * 2


def test_compare_outputs_malformed_files_exit_1_with_their_codes(tmp_path, monkeypatch, capsys):
    compare = load_script("compare_outputs.py")
    codes = {"clockwise.diagram.json": "'polygon_not_counterclockwise', "
                                       "'polygon_not_convex_at:0'",
             "focus_on_facet.diagram.json": "['focus_not_interior:0']",
             "cut_through_focus.diagram.json": "['branch_cut_crosses_focus:0:1']"}
    assert list(compare["MALFORMED"]) == list(codes)
    for name, data in compare["MALFORMED"].items():
        (tmp_path / name).write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    for argv in compare["commands"]([], [], builtin_fixture):
        if "--diagram" in argv and argv[argv.index("--diagram") + 1] in codes:
            assert main(argv) == 1
            captured = capsys.readouterr()
            name = argv[argv.index("--diagram") + 1]
            assert captured.out == ""
            assert captured.err.startswith(f"error: invalid diagram {name}: ")
            assert codes[name] in captured.err


def test_compare_outputs_unreadable_files_exit_1_naming_the_field(tmp_path, monkeypatch,
                                                                 capsys):
    # each JSON reader refuses its file with exit 1 and names the field
    compare = load_script("compare_outputs.py")
    for name, data in compare["UNREADABLE"].items():
        (tmp_path / name).write_text(json.dumps(data))
    compare["save_fiber_diagrams"](builtin_fixture, tmp_path)
    monkeypatch.chdir(tmp_path)
    named = ["malformed diagram file bool_shear.diagram.json: ValueError('focus_foci entry 0 "
             "shear_direction [True, 0] is not an [int, int] pair')",
             "malformed diagram file zero_denominator.diagram.json: ValueError('polygon entry 0 "
             "[1, 0, 0, 1] is not",
             "malformed Lagrangian file no_vertex_id.lagrangian.json: ValueError(\"vertex entry 0 "
             "has no 'id' field\")",
             "malformed convention file float_d.convention.json: ValueError('pant_sign entry 0 "
             "[1.9, 1] is not an [int, int] pair')"]
    for argv, field in zip(compare["UNREADABLE_COMMANDS"], named, strict=True):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {field}")


def test_compare_outputs_off_shear_lagrangian_fails_its_focus_leg(tmp_path, monkeypatch,
                                                                 capsys):
    # the leg from dp5's focus runs along (2, -1), off the shear (0, 1)
    compare = load_script("compare_outputs.py")
    for name, data in compare["OFF_SHEAR"].items():
        (tmp_path / name).write_text(json.dumps(data))
    compare["save_fiber_diagrams"](builtin_fixture, tmp_path)
    monkeypatch.chdir(tmp_path)
    json_argv, text_argv = compare["FOCUS_LEG_COMMANDS"]
    assert main(json_argv) == 1
    assert json.loads(capsys.readouterr().out)["violations"] == [
        "focus_leg_not_along_shear:v0", "not_bisectrice:v1"]
    assert main(text_argv) == 1
    assert capsys.readouterr().out == "focus_leg_not_along_shear:v0\nnot_bisectrice:v1\n"


def test_compare_outputs_bad_edge_lagrangians_name_their_codes(tmp_path, monkeypatch, capsys):
    # on the saved dp6 segment diagram: a weight-2 edge, which the search
    # would count as primitive, and a zero-length edge, which has no
    # direction; `potential` answers with the same code before any search
    compare = load_script("compare_outputs.py")
    for name, data in compare["BAD_EDGES"].items():
        (tmp_path / name).write_text(json.dumps(data))
    compare["save_case_files"]([("dp6", "segment")], builtin_fixture, tmp_path)
    monkeypatch.chdir(tmp_path)
    codes = ["edge_weight_not_one:0", "zero_length_edge:1"]
    argvs = compare["EDGE_CODE_COMMANDS"]
    assert len(argvs) == 3 * len(codes)
    for (json_argv, text_argv, potential_argv), code in zip(
            zip(argvs[::3], argvs[1::3], argvs[2::3]), codes):
        assert main(json_argv) == 1
        assert json.loads(capsys.readouterr().out) == {"fixture": "dp6", "violations": [code]}
        assert main(text_argv) == 1
        assert capsys.readouterr().out == f"{code}\n"
        assert potential_argv[0] == "potential"
        assert main(potential_argv) == 1
        assert capsys.readouterr() == ("", f"validation failed: {code}\n")


def test_compare_outputs_saves_the_fiber_diagrams(tmp_path, monkeypatch, capsys):
    # each saved file loads back as its fixture's diagram, and a fiber
    # command on it runs from the directory it was saved in
    compare = load_script("compare_outputs.py")
    compare["save_fiber_diagrams"](builtin_fixture, tmp_path)
    for path, (name, variant) in compare["FIBER_DIAGRAMS"].items():
        fixture = builtin_fixture(name)
        diagram = fixture.diagram if variant is None else fixture.diagram_variants[variant]
        assert BaseDiagram.load(tmp_path / path).to_json_dict() == diagram.to_json_dict()
    monkeypatch.chdir(tmp_path)
    failing = compare["UNREADABLE_COMMANDS"] + compare["FOCUS_LEG_COMMANDS"]
    argv = next(argv for argv in compare["commands"]([], [], builtin_fixture)
                if "dp5.diagram.json" in argv and argv not in failing)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["graphs"]


def test_compare_outputs_saves_the_case_files(tmp_path, monkeypatch, capsys):
    # each shipped case with a Lagrangian is saved as two files that load
    # back as its diagram and Lagrangian, and its file commands run on them
    compare = load_script("compare_outputs.py")
    compare["save_case_files"](SHIPPED_CASES, builtin_fixture, tmp_path)
    saved = [case for case in SHIPPED_CASES
             if builtin_fixture(case[0]).lagrangian_for(case[1]) is not None]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        path for case in saved for path in compare["case_files"](*case))
    monkeypatch.chdir(tmp_path)
    for name, case in saved:
        fixture = builtin_fixture(name)
        diagram_path, lag_path = compare["case_files"](name, case)
        assert BaseDiagram.load(diagram_path).to_json_dict() \
            == fixture.diagram_for(case).to_json_dict()
        assert LagGraph.load(lag_path).to_json_dict() \
            == fixture.lagrangian_for(case).to_json_dict()
    failing = (compare["UNREADABLE_COMMANDS"] + compare["FOCUS_LEG_COMMANDS"]
               + compare["EDGE_CODE_COMMANDS"])
    for argv in compare["commands"](saved, [], builtin_fixture):
        if "--lagrangian" in argv and argv not in failing:
            assert main(argv) == 0
            report = json.loads(capsys.readouterr().out)
            assert report.get("violations", []) == []


def test_paired_ops_refuses_two_trees_whose_outputs_differ(tmp_path):
    # a copy of src/ whose totals are off by one gives another sweep digest:
    # the script exits 1 naming both before it times anything
    shutil.copytree(SCRIPTS.parent / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    enumerate_py = tmp_path / "src" / "tropdisk" / "enumerate.py"
    text = enumerate_py.read_text()
    total = "        return Fraction(num, den)\n"   # the last line of EnumerationResult.total
    assert text.count(total) == 1
    enumerate_py.write_text(text.replace(total, total.replace("num, den", "num + den, den")))

    refused = subprocess.run(
        [sys.executable, str(SCRIPTS / "paired_ops.py"), "--parent", str(SCRIPTS.parent),
         "--change", str(tmp_path), "--workload", "sweep"],
        capture_output=True, text=True)
    assert refused.returncode == 1 and refused.stdout == ""
    assert "error: the outputs differ: parent sha256:" in refused.stderr
    assert ", change sha256:" in refused.stderr
    assert "change/parent" not in refused.stderr


def test_paired_ops_times_one_checkout_against_itself():
    # the same tree on both sides: equal digests, so the script times the
    # rounds and prints the summed ratio, the percentile ratios with their
    # quartiles over the rounds and the operations nearest each side's
    # percentiles; their values are the harness's own bias
    ran = subprocess.run(
        [sys.executable, str(SCRIPTS / "paired_ops.py"), "--parent", str(SCRIPTS.parent),
         "--change", str(SCRIPTS.parent), "--workload", "fixtures"],
        capture_output=True, text=True)
    assert ran.returncode == 0, ran.stderr
    assert "change/parent process time over 15 rounds: median " in ran.stdout
    (line,) = [ln for ln in ran.stdout.splitlines()
               if ln.startswith("change/parent percentiles over the rounds: ")]
    spread = r"median \d+\.\d{3}, quartiles \d+\.\d{3}-\d+\.\d{3}"
    assert re.fullmatch(rf".*: op_p50 {spread}; op_p90 {spread}", line), line
    # every fixtures label is name:case; each side names one per percentile
    (line,) = [ln for ln in ran.stdout.splitlines() if ln.startswith("operations nearest op_p50: ")]
    p50, p90 = line[len("operations nearest "):].split("; ")
    for part, percentile in ((p50, "op_p50"), (p90, "op_p90")):
        head, parent, change = re.fullmatch(r"(\w+): parent (\S+), change (\S+)", part).groups()
        assert head == percentile and ":" in parent and ":" in change
