#!/usr/bin/env python3
"""Run the CLI's user-facing commands on two checkouts and diff their outputs.

Usage, from anywhere:

    python3 scripts/compare_outputs.py --parent ../parent --change .

`--parent` and `--change` are two checkouts of the repository.  In each, one
fresh interpreter imports `tropdisk` from the checkout's `src/` and runs, in
process through `tropdisk.cli.main`:

* `potential --fixture F --case C` and the same with `--json`, for every
  entry of `SHIPPED_CASES`;
* `validate --fixture F` and the same with `--json`, for every fixture;
* `table` and `table --json`;
* `validate --diagram F` and `potential --diagram F --constraint point:X,Y`
  for each of three malformed diagram files in `MALFORMED`: a clockwise
  polygon, a focus on a facet and a branch cut through another focus;
* `UNREADABLE_COMMANDS`, one per JSON reader, on files that fail to parse:
  a diagram with a `true` shear direction entry and one with a zero
  denominator, a Lagrangian vertex without an `id`, and a pant sign table
  with a float D;
* `FOCUS_LEG_COMMANDS`: `validate --diagram dp5.diagram.json --lagrangian
  L --json` and its text form on the `OFF_SHEAR` Lagrangian file, whose
  leg leaves dp5's focus off its shear line, so the allowability code
  `focus_leg_not_along_shear` is compared too;
* `EDGE_CODE_COMMANDS`: the same two forms on the saved dp6 segment case
  diagram with each Lagrangian file of `BAD_EDGES`, the dp6 segment with
  its edge of weight 2 and with a zero-length edge at its end, so the
  codes `edge_weight_not_one` and `zero_length_edge` are compared too,
  and `potential --diagram D --lagrangian L --constraint edge:0@1/2
  --json` on each, which the CLI refuses with the same code before the
  search would refuse the weighted edge itself;
* `potential --fixture F --case C --json --bounds V,L,C,S` on the cells of
  the benchmark's bound grid (`GRID_CASES`, each case's own V and C, L in
  `GRID_LENGTHS`, S in `GRID_SPLITS`), bounds the shipped cases never reach;
* `potential --fixture F --case C --json --bounds V,L,0,0` for every entry of
  `SHIPPED_CASES`, with the case's own V and L: no cut crossing and no split,
  so that no ray is redirected;
* `potential --fixture F --case C --json --constraint edge:K@T` at every T
  of `EDGE_POSITIONS` on every edge of every shipped case with a Lagrangian;
* `potential --fixture F --case C --json --constraint point:X,Y` at every
  X,Y of `INTERIOR_POINTS` for every shipped case of the node-free fixtures
  `INTERIOR_FIXTURES`; through dp7 `leg` these reach corner caps from
  interior origins, which no shipped case does;
* `potential --fixture F --case C --json --convention CONVENTION` for every
  entry of `SHIPPED_CASES`, under the non-default pant sign table
  `CONVENTION_TABLE`, so pant labels and multiplicities are compared under
  an override too;
* `potential --diagram F --json --constraint point:X,Y` at every X,Y of
  `INTERIOR_POINTS` for each noded diagram file of `FIBER_DIAGRAMS`, so
  fibers on diagrams with focus-focus values are compared too; under the
  default bounds each of them finishes;
* `COINCIDENT_FIBER`, a dp3 fiber at one vertex over the default cap,
  where the search builds a graph with two vertices at one focus, so the
  error it ends in (ROADMAP item 5) is compared too;
* `validate --diagram D --lagrangian L --json` and `potential --diagram D
  --lagrangian L --json --constraint edge:K@T`, at the case's own K and T,
  on the files `case_files` names for every shipped case with a
  Lagrangian, so the Lagrangian file loader is compared too;
* `render --fixture F --case C` and the same with `--with-disks`, for
  every entry of `SHIPPED_CASES`;
* `render --diagram F` for each noded diagram file of `FIBER_DIAGRAMS`, so
  the branch cuts of a loaded diagram, built on the first read after its
  validation, are compared too.

Every command builds its fixture afresh, so none of them runs two searches on
one diagram.  After the commands, the same interpreter runs an in-process
section of three passes, each through `Fixture.run` on one fixture object
per name:

* `reuse_runs`: every edge of every shipped case with a Lagrangian at every
  T of `EDGE_POSITIONS`, T major and the cases interleaved, so switching
  cases (dp7 `leg` to `diag`, dp2 `l1` to `l2`) makes the search build what
  it keeps across calls on the same diagram, Lagrangian and flags again;
* `case_major_runs`: the same searches case major, each case's edges and
  positions in a row, as a run of positions on one case (a sweep of T)
  asks them, so every search after a case's first reuses what it keeps;
* `fiber_runs`: every shipped case of `INTERIOR_FIXTURES` at every X,Y of
  `INTERIOR_POINTS`, case major, so the fiber root reuses it too.

Each search's `[label, total, sorted signatures]` line is compared like a
command's standard output, under the key `in-process LABEL`.

The malformed, unreadable, off-shear and bad-edge files and the convention
file are written to a temporary directory that each side's interpreter runs
in, and each side saves its own `FIBER_DIAGRAMS` and case files there, so the
file names in the error text are the same on both sides.  Each command's exit
code, standard output and standard error are compared.  The command lists
come from each checkout's own `SHIPPED_CASES`, `FIXTURE_NAMES` and fixtures,
so a command that runs on one side only is a difference too.  The exit code
is 0 when every output is byte-identical and 1 otherwise.  A differing
standard output that parses as JSON on both sides is shown as a diff of its
indented, key-sorted form, so a one-line `--json` report still diffs key by
key.  Whether it differs is still decided on the raw text: a report that
parses to the same value but is written differently is listed as such.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

STREAMS = ("exit", "stdout", "stderr")

# the dp6 hexagon, counterclockwise, as [x.num, x.den, y.num, y.den] corners
HEXAGON = [[1, 1, 0, 1], [0, 1, 1, 1], [-1, 1, 1, 1], [-1, 1, 0, 1], [0, 1, -1, 1],
           [1, 1, -1, 1]]


def _focus(x, y, pi, sigma, sign=1):
    return {"position": [x, y], "shear_direction": pi, "shear_covector": sigma,
            "branch_cut_sign": sign}


# Diagram files that `BaseDiagram.load` rejects, by file name.
MALFORMED = {
    "clockwise.diagram.json": {
        "name": "clockwise", "polygon": HEXAGON[::-1],
        "focus_foci": [_focus([0, 1], [0, 1], [1, 0], [0, 1])]},
    "focus_on_facet.diagram.json": {
        "name": "focus_on_facet", "polygon": HEXAGON,
        "focus_foci": [_focus([1, 2], [1, 2], [1, 0], [0, 1])]},
    # the cut of the focus at (0, 0) runs along +x through the one at (1/2, 0)
    "cut_through_focus.diagram.json": {
        "name": "cut_through_focus", "polygon": HEXAGON,
        "focus_foci": [_focus([0, 1], [0, 1], [1, 0], [0, 1]),
                       _focus([1, 2], [0, 1], [0, 1], [1, 0])]},
}
POINT = "point:1/4,1/4"

# Files that a JSON reader refuses before any geometry is checked, by file
# name, and the commands that read them.
UNREADABLE = {
    "bool_shear.diagram.json": {
        "name": "bool_shear", "polygon": HEXAGON,
        "focus_foci": [_focus([0, 1], [0, 1], [True, 0], [0, 1])]},
    "zero_denominator.diagram.json": {
        "name": "zero_denominator", "polygon": [[1, 0, 0, 1], *HEXAGON[1:]]},
    "no_vertex_id.lagrangian.json": {
        "vertices": [{"position": [[0, 1], [0, 1]]}], "edges": []},
    "float_d.convention.json": {"pant_sign": [[1.9, 1]]},
}
UNREADABLE_COMMANDS = [
    ["validate", "--diagram", "bool_shear.diagram.json"],
    ["validate", "--diagram", "zero_denominator.diagram.json"],
    ["validate", "--diagram", "dp5.diagram.json", "--lagrangian", "no_vertex_id.lagrangian.json"],
    ["potential", "--fixture", "dp7", "--convention", "float_d.convention.json"],
]

# A Lagrangian segment on the saved dp5 diagram from its focus (1/2, 1/4) to
# the corner (1, 0): the leg runs along (2, -1), off the shear direction
# (0, 1), and meets the corner off its bisectrice.
OFF_SHEAR = {
    "off_shear.lagrangian.json": {
        "vertices": [{"id": "v0", "position": [[1, 2], [1, 4]]},
                     {"id": "v1", "position": [[1, 1], [0, 1]]}],
        "edges": [["v0", "v1"]]},
}
FOCUS_LEG_COMMANDS = [
    ["validate", "--diagram", "dp5.diagram.json", "--lagrangian", "off_shear.lagrangian.json",
     *flag] for flag in (["--json"], [])]

# The dp6 segment from the corner (1, -1) to (-1, 1), on the saved diagram of
# the dp6 segment case: with its edge of weight 2, which the search would
# read as primitive, and with a second vertex at (-1, 1), whose edge has no
# direction.
_SEGMENT_ENDS = [{"id": "v0", "position": [[1, 1], [-1, 1]]},
                 {"id": "v1", "position": [[-1, 1], [1, 1]]}]
BAD_EDGES = {
    "weighted.lagrangian.json": {"vertices": _SEGMENT_ENDS, "edges": [["v0", "v1", 2]]},
    "zero_length.lagrangian.json": {
        "vertices": [*_SEGMENT_ENDS, {"id": "v2", "position": [[-1, 1], [1, 1]]}],
        "edges": [["v0", "v1"], ["v1", "v2"]]},
}
EDGE_CODE_COMMANDS = [
    [command, "--diagram", "dp6_segment.diagram.json", "--lagrangian", path, *flags]
    for path in BAD_EDGES
    for command, flags in (("validate", ["--json"]), ("validate", []),
                           ("potential", ["--constraint", "edge:0@1/2", "--json"]))]

# a pant sign table that differs from the default at D = 1, 2 and 3
CONVENTION = "flipped.convention.json"
CONVENTION_TABLE = {"pant_sign": [[1, 1], [2, 1], [3, -1]]}

# the cells of the benchmark's `grid` workload
GRID_CASES = [("dp1", "vertical"), ("dp2", "l2"), ("dp3", "trivalent")]
GRID_LENGTHS = (3, 4)
GRID_SPLITS = (1, 2)
# constraint positions on each Lagrangian edge
EDGE_POSITIONS = ("3/16", "1/2", "13/16")
# interior constraint points, for the fixtures without focus-focus values
INTERIOR_FIXTURES = ("p1xp1", "dp6", "dp7")
INTERIOR_POINTS = ("1/16,1/32", "-1/5,1/7", "1/7,-1/5", "1/3,1/5", "-1/3,-1/9")
# diagram files of the noded fixtures, by file name: (fixture, diagram variant)
FIBER_DIAGRAMS = {
    "dp5.diagram.json": ("dp5", None),
    "dp4.diagram.json": ("dp4", None),
    "dp3.diagram.json": ("dp3", None),
    "dp2.diagram.json": ("dp2", None),
    "dp1.diagram.json": ("dp1", None),
    "dp2_l1.diagram.json": ("dp2", "l1"),
}


# a dp3 fiber at V = 7, whose search reaches one focus twice in one graph
COINCIDENT_FIBER = ["potential", "--diagram", "dp3.diagram.json", "--json",
                    "--constraint", "point:1/16,1/32", "--bounds", "7,3,2,3"]


def commands(shipped_cases, fixture_names, builtin_fixture) -> list:
    """The argv of every compared command, in run order; `builtin_fixture`
    supplies the grid and shipped cases' bounds and the shipped cases'
    Lagrangians and constraints."""
    out = []
    for name, case in shipped_cases:
        out += [["potential", "--fixture", name, "--case", case, *flag] for flag in ([], ["--json"])]
    for name in fixture_names:
        out += [["validate", "--fixture", name, *flag] for flag in ([], ["--json"])]
    out += [["table"], ["table", "--json"]]
    for path in MALFORMED:
        out += [["validate", "--diagram", path],
                ["potential", "--diagram", path, "--constraint", POINT]]
    out += UNREADABLE_COMMANDS + FOCUS_LEG_COMMANDS + EDGE_CODE_COMMANDS
    for name, case in GRID_CASES:
        bounds = builtin_fixture(name).case(case).bounds
        for length in GRID_LENGTHS:
            for splits in GRID_SPLITS:
                spec = (f"{bounds.max_vertices},{length},{bounds.max_cut_crossings},"
                        f"{splits}")
                out.append(["potential", "--fixture", name, "--case", case, "--json",
                            "--bounds", spec])
    for name, case in shipped_cases:
        bounds = builtin_fixture(name).case(case).bounds
        out.append(["potential", "--fixture", name, "--case", case, "--json", "--bounds",
                    f"{bounds.max_vertices},{bounds.max_lattice_length},0,0"])
    for name, case in shipped_cases:
        lag = builtin_fixture(name).lagrangian_for(case)
        for k in range(len(lag.edges) if lag is not None else 0):
            out += [["potential", "--fixture", name, "--case", case, "--json",
                     "--constraint", f"edge:{k}@{t}"] for t in EDGE_POSITIONS]
    for name, case in shipped_cases:
        if name in INTERIOR_FIXTURES:
            out += [["potential", "--fixture", name, "--case", case, "--json",
                     "--constraint", f"point:{xy}"] for xy in INTERIOR_POINTS]
    out += [["potential", "--fixture", name, "--case", case, "--json", "--convention", CONVENTION]
            for name, case in shipped_cases]
    for path in FIBER_DIAGRAMS:
        out += [["potential", "--diagram", path, "--json", "--constraint", f"point:{xy}"]
                for xy in INTERIOR_POINTS]
    out.append(COINCIDENT_FIBER)
    for name, case in shipped_cases:
        fixture = builtin_fixture(name)
        if fixture.lagrangian_for(case) is not None:
            constraint = fixture.constraint(case)
            diagram_path, lag_path = case_files(name, case)
            files = ["--diagram", diagram_path, "--lagrangian", lag_path, "--json"]
            out += [["validate", *files],
                    ["potential", *files, "--constraint",
                     f"edge:{constraint.edge_index}@{constraint.t}"]]
    for name, case in shipped_cases:
        out += [["render", "--fixture", name, "--case", case, *flag]
                for flag in ([], ["--with-disks"])]
    out += [["render", "--diagram", path] for path in FIBER_DIAGRAMS]
    return out


def _edge_runs(shipped_cases, builtin_fixture, prefix, t_major) -> list:
    """(label, fixture, case, constraint) of every edge of every shipped case
    with a Lagrangian at each t of `EDGE_POSITIONS`, on one fixture object
    per name: t major, or case major with each edge's positions in a row.
    Each label starts with prefix."""
    from tropdisk.diskgraph import Constraint

    fixtures, cells = {}, []
    for name, case in shipped_cases:
        if name not in fixtures:
            fixtures[name] = builtin_fixture(name)
        lag = fixtures[name].lagrangian_for(case)
        cells += [(i, t, name, case, lag, k)
                  for k in range(len(lag.edges) if lag is not None else 0)
                  for i, t in enumerate(EDGE_POSITIONS)]
    if t_major:
        cells.sort(key=lambda cell: cell[0])
    return [(f"{prefix}{name}:{case}#{k}@{t}", fixtures[name], case,
             Constraint.on_lagrangian(lag, k, Fraction(t)))
            for _, t, name, case, lag, k in cells]


def reuse_runs(shipped_cases, builtin_fixture) -> list:
    """(label, fixture, case, constraint) of the first in-process pass, in
    run order: every edge of every shipped case with a Lagrangian at each t
    of `EDGE_POSITIONS`, t major, on one fixture object per name."""
    return _edge_runs(shipped_cases, builtin_fixture, "", t_major=True)


def case_major_runs(shipped_cases, builtin_fixture) -> list:
    """The searches of `reuse_runs`, case major: each case's edges in turn,
    each at every t in a row, on one fixture object per name."""
    return _edge_runs(shipped_cases, builtin_fixture, "case-major ", t_major=False)


def fiber_runs(shipped_cases, builtin_fixture) -> list:
    """(label, fixture, case, constraint) of every shipped case of
    `INTERIOR_FIXTURES` at each point of `INTERIOR_POINTS`, case major, on
    one fixture object per name."""
    from tropdisk.diskgraph import Constraint
    from tropdisk.geometry import Vec

    fixtures, out = {}, []
    for name, case in shipped_cases:
        if name not in INTERIOR_FIXTURES:
            continue
        if name not in fixtures:
            fixtures[name] = builtin_fixture(name)
        for xy in INTERIOR_POINTS:
            x, y = xy.split(",")
            out.append((f"fiber {name}:{case}@{xy}", fixtures[name], case,
                        Constraint.interior_point(Vec(Fraction(x), Fraction(y)))))
    return out


def reuse_outputs(runs) -> dict:
    """{"in-process LABEL": {"exit", "stdout", "stderr"}} for in-process
    runs, from the `tropdisk` that built their fixtures: stdout is the
    search's `[label, [num, den], sorted signatures]` line, or stderr a
    GeometryError's text with exit 1."""
    from tropdisk.geometry import GeometryError

    outputs = {}
    for label, fixture, case, constraint in runs:
        try:
            result = fixture.run(case, None, constraint)
        except GeometryError as error:
            outputs[f"in-process {label}"] = {"exit": 1, "stdout": "", "stderr": str(error)}
            continue
        total = result.total()
        line = [label, [total.numerator, total.denominator],
                sorted(repr(g.graph.signature()) for g in result.graphs)]
        outputs[f"in-process {label}"] = {"exit": 0, "stdout": json.dumps(line) + "\n",
                                          "stderr": ""}
    return outputs


def case_files(name, case) -> tuple:
    """The file names of a shipped case's diagram and Lagrangian."""
    return f"{name}_{case}.diagram.json", f"{name}_{case}.lagrangian.json"


def save_fiber_diagrams(builtin_fixture, directory) -> None:
    """Save each diagram of `FIBER_DIAGRAMS` under its file name in directory."""
    for path, (name, variant) in FIBER_DIAGRAMS.items():
        fixture = builtin_fixture(name)
        diagram = fixture.diagram if variant is None else fixture.diagram_variants[variant]
        diagram.save(Path(directory, path))


def save_case_files(shipped_cases, builtin_fixture, directory) -> None:
    """Save the diagram and the Lagrangian of every shipped case with a
    Lagrangian under its `case_files` names in directory."""
    for name, case in shipped_cases:
        fixture = builtin_fixture(name)
        lag = fixture.lagrangian_for(case)
        if lag is not None:
            diagram_path, lag_path = case_files(name, case)
            fixture.diagram_for(case).save(Path(directory, diagram_path))
            lag.save(Path(directory, lag_path))


def collect(src: str) -> None:
    """Run every command with `tropdisk` from `src`, then the in-process
    section, and print one JSON object: {command line or "in-process LABEL":
    {"exit": code, "stdout": text, "stderr": text}}."""
    sys.path.insert(0, src)
    import tropdisk
    from tropdisk.cli import main
    from tropdisk.fixtures import FIXTURE_NAMES, SHIPPED_CASES, builtin_fixture

    if not Path(tropdisk.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"tropdisk imported from {tropdisk.__file__}, not {src}")

    save_fiber_diagrams(builtin_fixture, ".")
    save_case_files(SHIPPED_CASES, builtin_fixture, ".")
    outputs = {}
    for argv in commands(SHIPPED_CASES, FIXTURE_NAMES, builtin_fixture):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        outputs[" ".join(argv)] = {"exit": code, "stdout": out.getvalue(),
                                   "stderr": err.getvalue()}
    for runs in (reuse_runs, case_major_runs, fiber_runs):
        outputs.update(reuse_outputs(runs(SHIPPED_CASES, builtin_fixture)))
    print(json.dumps(outputs))


def run_checkout(checkout: Path) -> dict:
    """`collect` in a fresh interpreter on the sources of `checkout`, run in a
    temporary directory that holds the `MALFORMED`, `UNREADABLE`,
    `OFF_SHEAR` and `BAD_EDGES` files and `CONVENTION`, where `collect` saves
    the `FIBER_DIAGRAMS` and the case files."""
    code = (f"import runpy; runpy.run_path({str(Path(__file__).resolve())!r})"
            f"['collect']({str(checkout / 'src')!r})")
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in {**MALFORMED, **UNREADABLE, **OFF_SHEAR, **BAD_EDGES,
                           CONVENTION: CONVENTION_TABLE}.items():
            Path(tmp, name).write_text(json.dumps(data))
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp,
                              capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"collecting outputs in {checkout} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return json.loads(done.stdout)


def _json_forms(before: str, after: str):
    """Both texts indented with sorted keys when both parse as JSON, else as
    they are."""
    try:
        return tuple(json.dumps(json.loads(text), indent=2, sort_keys=True)
                     for text in (before, after))
    except ValueError:
        return before, after


def diff_outputs(parent: dict, change: dict) -> list:
    """(command, report) for every command whose outputs differ, in order;
    the report names the differing streams with a unified diff of each, of
    a JSON stdout in its `_json_forms`."""
    out = []
    for command in list(parent) + [c for c in change if c not in parent]:
        if command not in parent or command not in change:
            side = "parent" if command in parent else "change"
            out.append((command, f"runs on the {side} only"))
            continue
        lines = []
        for stream in STREAMS:
            before, after = parent[command][stream], change[command][stream]
            if before == after:
                continue
            if stream == "exit":
                lines.append(f"exit {before} -> {after}")
                continue
            if stream == "stdout":
                before, after = _json_forms(before, after)
                if before == after:
                    lines.append("stdout: the same JSON value, written differently")
                    continue
            lines += difflib.unified_diff(
                before.splitlines(), after.splitlines(),
                f"parent {stream}", f"change {stream}", lineterm="")
        if lines:
            out.append((command, "\n".join(lines)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    args = parser.parse_args(argv)
    parent = run_checkout(args.parent.resolve())
    change = run_checkout(args.change.resolve())
    differences = diff_outputs(parent, change)
    for command, report in differences:
        print(f"differs: {command}\n{report}")
    print(f"{len(parent)} commands on the parent, {len(change)} on the change, "
          f"{len(differences)} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
