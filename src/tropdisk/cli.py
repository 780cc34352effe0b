"""Command line driver: potential, validate, render, table.

Exit codes: 0 success, 1 validation failure, 2 incomplete enumeration,
3 I/O or usage error.  Rationals are printed as exact integer pairs in JSON
mode ([numerator, denominator]); integer totals are additionally printed as
plain integers.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction
from typing import List, Optional

from .diagram import BaseDiagram
from .diskgraph import Constraint
from .eigentable import EIGENVALUE_TABLE, eigenvalue_verdict, nonmaximal_integers
from .enumerate import (
    NO_FLAGS,
    EnumerationResult,
    SearchBounds,
    cancellation_report,
    enumerate_disks,
)
from .fixtures import FIXTURE_NAMES, builtin_fixture
from .geometry import GeometryError, Vec, frac
from .lagrangian import LagGraph
from .multiplicity import DEFAULT_CONVENTION, SignConvention
from .render import render_svg

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCOMPLETE = 2
EXIT_IO = 3


def _rat(value: Fraction):
    return [value.numerator, value.denominator]


def _load_inputs(args):
    """Resolve (fixture, case name, diagram, lagrangian, label) from the arguments.

    --fixture/--case name a built-in case; otherwise --diagram and
    --lagrangian name files, and fixture and case name are None.
    """
    if args.fixture:
        fixture = builtin_fixture(args.fixture)
        case_name = args.case or fixture.default_case
        return (fixture, case_name, fixture.diagram_for(case_name),
                fixture.lagrangian_for(case_name), f"{fixture.name}:{case_name}")
    if not args.diagram:
        raise GeometryError("need --fixture NAME or --diagram FILE")
    diagram = BaseDiagram.load(args.diagram)
    lag = LagGraph.load(args.lagrangian) if args.lagrangian else None
    return None, None, diagram, lag, diagram.name


def _parse_bounds(spec: str):
    """V,L: two positive integers (vertex cap, lattice length cap)."""
    parts = spec.split(",")
    try:
        values = [int(part) for part in parts]
    except ValueError:
        values = []
    if len(values) != 2 or min(values) < 1:
        raise GeometryError(f"--bounds takes two positive integers V,L, not {spec!r}")
    return values


def _parse_constraint(spec: Optional[str], lag: Optional[LagGraph]) -> Constraint:
    """edge:K@T (edge index K, rational T in (0, 1)) or point:X,Y (rationals)."""
    if spec is None:
        raise GeometryError("a constraint is required: edge:K@T or point:X,Y")
    kind, _, body = spec.partition(":")
    try:
        if kind == "edge":
            index, t = body.split("@")
            index, t = int(index), frac(t)
        elif kind == "point":
            x, y = body.split(",")
            point = Vec(frac(x), frac(y))
        else:
            raise ValueError(kind)
    except (ValueError, ZeroDivisionError):
        raise GeometryError(
            f"cannot parse constraint {spec!r}: expected edge:K@T or point:X,Y") from None
    if kind == "point":
        return Constraint.interior_point(point)
    if lag is None:
        raise GeometryError("edge constraints need a Lagrangian")
    return Constraint.on_lagrangian(lag, index, t)


def _load_convention(path) -> SignConvention:
    """DEFAULT_CONVENTION merged with a JSON file {"pant_sign": [[D, sign], ...]}."""
    with open(path) as fh:
        try:
            data = json.load(fh)
            if not isinstance(data, dict):
                raise TypeError(f"expected a JSON object, got {type(data).__name__}")
            return DEFAULT_CONVENTION.merged(data.get("pant_sign", []))
        except (ValueError, TypeError) as exc:
            raise GeometryError(f"malformed convention file {path}: {exc!r}") from exc


def _report_dict(label, result: EnumerationResult, verdict: str) -> dict:
    graphs = []
    for g in result.graphs:
        graphs.append({
            "vertices": [
                {
                    "kind": v.kind.label(),
                    "position": [_rat(v.position.x), _rat(v.position.y)],
                    "multiplicity": _rat(weight),
                }
                for v, weight in zip(g.graph.vertices, g.weights)
            ],
            "aut_order": g.aut_order,
            "contribution": _rat(g.contribution),
            "rigidity_dimension": g.rigidity,
        })
    total = result.total()
    out = {
        "fixture": label,
        "graphs": graphs,
        "total": _rat(total),
        "verdict": verdict,
        "warnings": list(result.warnings),
        "unresolved": list(result.unresolved),
    }
    if total.denominator == 1:
        out["total_integer"] = total.numerator
    return out


def _print_text_report(report: dict) -> None:
    print(f"fixture: {report['fixture']}")
    print(f"graphs: {len(report['graphs'])}")
    for i, g in enumerate(report["graphs"]):
        kinds = ", ".join(v["kind"] for v in g["vertices"])
        num, den = g["contribution"]
        contrib = f"{num}" if den == 1 else f"{num}/{den}"
        print(f"  [{i}] contribution {contrib:>6}  aut {g['aut_order']}  ({kinds})")
    num, den = report["total"]
    total = f"{num}" if den == 1 else f"{num}/{den}"
    print(f"total W_L = {total}")
    print(f"verdict: {report['verdict']}")
    for w in report["warnings"]:
        print(f"warning: {w}")
    for u in report["unresolved"]:
        print(f"unresolved: {u}")


def cmd_potential(args) -> int:
    fixture, case_name, diagram, lag, label = _load_inputs(args)
    if fixture is not None:
        case = fixture.case(case_name)
        bounds, flags = case.bounds, case.flags
        constraint = (fixture.constraint(case_name) if args.constraint is None
                      else _parse_constraint(args.constraint, lag))
    else:
        constraint = _parse_constraint(args.constraint, lag)
        bounds, flags = SearchBounds(), NO_FLAGS
    if args.bounds:
        v, l = _parse_bounds(args.bounds)
        bounds = replace(bounds, max_vertices=v, max_lattice_length=l)
    convention = _load_convention(args.convention) if args.convention else DEFAULT_CONVENTION
    problems = diagram.validate()
    if lag is not None:
        problems += lag.is_allowable(diagram)
    if problems:
        print("validation failed:", "; ".join(problems), file=sys.stderr)
        return EXIT_INVALID
    result = enumerate_disks(diagram, lag, constraint, bounds, convention, flags)
    if args.convention:
        result.warnings.append(f"pant sign convention overridden from {args.convention}")
    fixture_family = label.split(":")[0]
    verdict = eigenvalue_verdict(fixture_family, result.total())
    report = _report_dict(label, result, verdict)
    pairs = cancellation_report(result)
    report["cancelling_pairs"] = len(pairs)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_text_report(report)
        if pairs:
            print(f"cancelling pairs: {len(pairs)} (net zero)")
    if args.svg:
        svg = render_svg(diagram, lag, [g.graph for g in result.graphs], constraint)
        with open(args.svg, "w") as fh:
            fh.write(svg)
    return EXIT_OK if result.complete else EXIT_INCOMPLETE


def cmd_validate(args) -> int:
    _fixture, _case, diagram, lag, label = _load_inputs(args)
    problems = diagram.validate()
    if lag is not None:
        problems += lag.is_allowable(diagram)
    if args.json:
        print(json.dumps({"fixture": label, "violations": problems}, indent=2))
    else:
        if problems:
            for p in problems:
                print(p)
        else:
            print("valid")
    return EXIT_INVALID if problems else EXIT_OK


def cmd_render(args) -> int:
    if args.with_disks and not args.fixture:
        raise GeometryError("--with-disks needs --fixture")
    fixture, case_name, diagram, lag, _label = _load_inputs(args)
    graphs = []
    constraint = None
    if args.with_disks:
        constraint = fixture.constraint(case_name)
        graphs = [g.graph for g in fixture.run(case_name).graphs]
    svg = render_svg(diagram, lag, graphs, constraint)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(svg)
    else:
        print(svg)
    return EXIT_OK


def cmd_table(args) -> int:
    rows = []
    for entry in EIGENVALUE_TABLE:
        integers = nonmaximal_integers(entry)
        if not integers:
            rows.append({"surface": entry.surface, "eigenvalues": "none"})
            if not args.json:
                excluded = [
                    f"{v} (maximal)" for v, _, m in entry.integer_eigenvalues if m
                ]
                extra = f"; excluded: {', '.join(excluded)}" if excluded else ""
                print(f"{entry.surface:8s} none{extra}")
            continue
        excluded = [v for v, _, is_max in entry.integer_eigenvalues if is_max]
        if excluded and not args.json:
            print(f"{entry.surface:8s} excluded (maximal modulus): "
                  f"{', '.join(str(v) for v in excluded)}")
        for value in integers:
            realized = [
                (fx, case) for v, fx, case in entry.realizations if v == value
            ]
            status = [
                (fx, case_name, builtin_fixture(fx).run(case_name).total())
                for fx, case_name in realized
            ]
            rows.append({
                "surface": entry.surface,
                "eigenvalue": value,
                "realized_by": [
                    {"fixture": fx, "case": c, "computed": _rat(total)}
                    for fx, c, total in status
                ],
            })
            if not args.json:
                detail = ", ".join(
                    f"{fx}:{c} -> {total}" for fx, c, total in status
                ) or "no fixture shipped"
                print(f"{entry.surface:8s} eigenvalue {value:4d}  {detail}")
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropdisk",
        description="exact tropical disk potentials on almost toric base diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--fixture", choices=FIXTURE_NAMES)
        p.add_argument("--case", help="fixture case name (default per fixture)")
        p.add_argument("--diagram", help="diagram JSON file")
        p.add_argument("--lagrangian", help="Lagrangian JSON file")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("potential", help="enumerate disks and sum the potential")
    add_common(p)
    p.add_argument("--constraint", help="edge:K@T or point:X,Y; with --fixture it replaces "
                   "the case's constraint (same diagram, Lagrangian, bounds, flags)")
    p.add_argument("--bounds", help="V,L search bounds")
    p.add_argument("--convention", help="pant sign override JSON file")
    p.add_argument("--svg", help="also write an SVG rendering here")
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("validate", help="check diagram and Lagrangian validity")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("render", help="render a fixture or files to SVG")
    add_common(p)
    p.add_argument("--out", help="output SVG path (stdout otherwise)")
    p.add_argument("--with-disks", action="store_true",
                   help="also enumerate and draw the disk graphs")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("table", help="eigenvalue table with realization status")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
