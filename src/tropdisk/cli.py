"""Command line driver: potential, validate, render, table.

Exit codes: 0 success, 1 validation failure, 2 incomplete enumeration,
3 I/O or usage error.  Rationals are printed as exact integer pairs in JSON
mode ([numerator, denominator]); integer totals are additionally printed as
plain integers.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from fractions import Fraction
from typing import List, Optional

from .diagram import BaseDiagram, InvalidDiagram
from .diskgraph import Constraint
from .eigentable import EIGENVALUE_TABLE, eigenvalue_verdict, nonmaximal_integers
from .enumerate import EnumerationResult, SearchBounds, cancellation_report, enumerate_disks
from .fixtures import FIXTURE_NAMES, builtin_fixture
from .geometry import GeometryError, Vec, frac, json_list, json_pair, load_json
from .lagrangian import LagGraph
from .multiplicity import DEFAULT_CONVENTION, SignConvention

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCOMPLETE = 2
EXIT_IO = 3


def _print_json(value) -> None:
    """One line with sorted keys: with no indent, `json` encodes through its C
    encoder, not the pure-Python one.  The value is a tree built here: no
    cycle to check for."""
    print(json.dumps(value, sort_keys=True, check_circular=False))


def _rat(value: Fraction):
    return [value.numerator, value.denominator]


def _point(triple):
    """The homogeneous point (X, Y, W) as `_rat` pairs [[x, w], [y, w']] in lowest terms."""
    X, Y, W = triple
    gx, gy = math.gcd(X, W), math.gcd(Y, W)
    return [[X // gx, W // gx], [Y // gy, W // gy]]


def _load_inputs(args):
    """Resolve (fixture, case name, diagram, lagrangian, label) from the arguments.

    --fixture/--case name a built-in case; otherwise --diagram and
    --lagrangian name files, and fixture and case name are None.  Mixing
    the two, or --case without --fixture, is a usage error.
    """
    if args.fixture:
        if args.diagram or args.lagrangian:
            args.parser.error("--fixture cannot be combined with --diagram or --lagrangian")
        fixture = builtin_fixture(args.fixture)
        case_name = args.case or fixture.default_case
        return (fixture, case_name, fixture.diagram_for(case_name),
                fixture.lagrangian_for(case_name), f"{fixture.name}:{case_name}")
    if args.case:
        args.parser.error("--case needs --fixture")
    if not args.diagram:
        args.parser.error("need --fixture NAME or --diagram FILE")
    diagram = BaseDiagram.load(args.diagram)
    lag = LagGraph.load(args.lagrangian) if args.lagrangian else None
    return None, None, diagram, lag, diagram.name


def _parse_bounds(spec: str, bounds: SearchBounds) -> SearchBounds:
    """V,L[,C,S] over `bounds`: vertex cap and lattice length cap, then
    optionally the cut-crossing and split caps, each at least its
    `SearchBounds.MINIMA`."""
    try:
        values = [int(part) for part in spec.split(",")]
    except ValueError:
        values = []
    minima = SearchBounds.MINIMA
    if len(values) not in (2, 4) or any(v < least for v, least in zip(values, minima.values())):
        raise GeometryError(
            f"--bounds takes V,L or V,L,C,S: V and L positive, C and S "
            f"non-negative integers, not {spec!r}")
    return replace(bounds, **dict(zip(minima, values)))


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
    def parse(data) -> SignConvention:
        entries = json_list(data, "pant_sign", [])
        for key in data:
            if key != "pant_sign":
                raise ValueError(f"unknown field {key!r}")
        return DEFAULT_CONVENTION.merged(
            json_pair(f"pant_sign entry {i}", entry) for i, entry in enumerate(entries))

    return load_json(path, "convention", parse)


def _report_dict(label, result: EnumerationResult, total: Fraction, verdict: str) -> dict:
    """The report of a run: its graphs, `total` (the run's `result.total()`)
    and the verdict on it."""
    graphs = []
    for g in result.graphs:
        graphs.append({
            "vertices": [
                {
                    "kind": v.kind.label(),
                    "position": _point(v.triple),
                    "multiplicity": weight,
                }
                for v, weight in zip(g.graph.vertices, g.weights)
            ],
            "aut_order": g.aut_order,
            "contribution": _rat(g.contribution),
            "rigidity_dimension": g.rigidity,
        })
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
        bounds = fixture.case(case_name).bounds
        constraint = (fixture.constraint(case_name) if args.constraint is None
                      else _parse_constraint(args.constraint, lag))
    else:
        constraint = _parse_constraint(args.constraint, lag)
        bounds = SearchBounds()
    if args.bounds is not None:
        bounds = _parse_bounds(args.bounds, bounds)
    convention = _load_convention(args.convention) if args.convention else DEFAULT_CONVENTION
    # the diagram is valid: BaseDiagram.load and builtin_fixture raise otherwise
    problems = lag.is_allowable(diagram) if lag is not None else []
    if problems:
        print("validation failed:", "; ".join(problems), file=sys.stderr)
        return EXIT_INVALID
    # enumerate_disks refuses a point constraint off a regular fiber
    if fixture is not None:
        result = fixture.run(case_name, bounds, constraint, convention)
    else:
        result = enumerate_disks(diagram, lag, constraint, bounds, convention)
    fixture_family = label.split(":")[0]
    total = result.total()
    report = _report_dict(label, result, total, eigenvalue_verdict(fixture_family, total))
    if args.convention:
        report["warnings"].append(f"pant sign convention overridden from {args.convention}")
    pairs = cancellation_report(result)
    report["cancelling_pairs"] = len(pairs)
    if args.json:
        _print_json(report)
    else:
        _print_text_report(report)
        if pairs:
            print(f"cancelling pairs: {len(pairs)} (net zero)")
    if args.svg:
        from .render import render_svg

        svg = render_svg(diagram, lag, [g.graph for g in result.graphs], constraint)
        with open(args.svg, "w") as fh:
            fh.write(svg)
    return EXIT_OK if result.complete else EXIT_INCOMPLETE


def cmd_validate(args) -> int:
    try:
        _fixture, _case, diagram, lag, label = _load_inputs(args)
    except InvalidDiagram as exc:
        if not args.json:
            raise
        _print_json({"fixture": exc.diagram.name, "violations": exc.violations})
        return EXIT_INVALID
    # the diagram is valid: BaseDiagram.load and builtin_fixture raise otherwise
    problems = lag.is_allowable(diagram) if lag is not None else []
    if args.json:
        _print_json({"fixture": label, "violations": problems})
    else:
        if problems:
            for p in problems:
                print(p)
        else:
            print("valid")
    return EXIT_INVALID if problems else EXIT_OK


def cmd_render(args) -> int:
    if args.with_disks and not args.fixture:
        args.parser.error("--with-disks needs --fixture")
    fixture, case_name, diagram, lag, _label = _load_inputs(args)
    graphs = []
    constraint = None
    if args.with_disks:
        constraint = fixture.constraint(case_name)
        graphs = [g.graph for g in fixture.run(case_name).graphs]
    from .render import render_svg

    svg = render_svg(diagram, lag, graphs, constraint)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(svg)
    else:
        print(svg)
    return EXIT_OK


def cmd_table(args) -> int:
    rows, lines = [], []
    fixtures = {}  # each fixture built once per call

    def computed(name, case_name):
        if name not in fixtures:
            fixtures[name] = builtin_fixture(name)
        return fixtures[name].run(case_name).total()

    for entry in EIGENVALUE_TABLE:
        excluded = [v for v, _, is_max in entry.integer_eigenvalues if is_max]
        integers = nonmaximal_integers(entry)
        if not integers:
            rows.append({"surface": entry.surface, "eigenvalues": "none"})
            extra = ", ".join(f"{v} (maximal)" for v in excluded)
            lines.append(f"{entry.surface:8s} none" + (f"; excluded: {extra}" if extra else ""))
        elif excluded:
            lines.append(f"{entry.surface:8s} excluded (maximal modulus): "
                         f"{', '.join(str(v) for v in excluded)}")
        for value in integers:
            status = [(fx, c, computed(fx, c)) for v, fx, c in entry.realizations if v == value]
            rows.append({"surface": entry.surface, "eigenvalue": value, "realized_by": [
                {"fixture": fx, "case": c, "computed": _rat(total)} for fx, c, total in status]})
            detail = ", ".join(f"{fx}:{c} -> {total}" for fx, c, total in status)
            lines.append(f"{entry.surface:8s} eigenvalue {value:4d}  "
                         f"{detail or 'no fixture shipped'}")
    if args.json:
        _print_json(rows)
    else:
        print("\n".join(lines))
    return EXIT_OK


class _UsageError(Exception):
    """A command line that does not parse; `main` returns EXIT_IO for it."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reports a usage error to `main` instead of
    exiting with argparse's code 2, which here means an incomplete
    enumeration.  Subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tropdisk",
        description="exact tropical disk potentials on almost toric base diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        # `_load_inputs` and `cmd_render` report usage errors through the subcommand's parser
        p.set_defaults(parser=p)
        p.add_argument("--fixture", choices=FIXTURE_NAMES)
        p.add_argument("--case", help="fixture case name (default per fixture)")
        p.add_argument("--diagram", help="diagram JSON file")
        p.add_argument("--lagrangian", help="Lagrangian JSON file")

    p = sub.add_parser("potential", help="enumerate disks and sum the potential")
    add_common(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--constraint", help="edge:K@T or point:X,Y; with --fixture it replaces "
                   "the case's constraint (same diagram, Lagrangian, bounds, flags)")
    p.add_argument("--bounds", help="V,L[,C,S] search bounds: vertex cap, lattice "
                   "length cap, and optionally cut-crossing and split caps")
    p.add_argument("--convention", help="pant sign override JSON file")
    p.add_argument("--svg", help="also write an SVG rendering here")
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("validate", help="check diagram and Lagrangian validity")
    add_common(p)
    p.add_argument("--json", action="store_true")
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


# Built once per process: parsing keeps no state in the parser, and the
# subcommands' `func` defaults bind the cmd_* functions at import.
PARSER = build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = PARSER.parse_args(argv)
        return args.func(args)
    except _UsageError:
        return EXIT_IO  # the parser printed the usage and the message
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
