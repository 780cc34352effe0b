"""Built-in base diagrams and Lagrangian graphs for the del Pezzo surfaces.

Coordinates for the degree-6/7 diagrams follow the printed hulls; lower
degrees are reconstructions: the polygon is a reflexive model of the surface
and the focus-focus data is placed so that the enumeration reproduces the
published disk potentials.  A comment above each builder records the
fixture's provenance, and says so where the node inventory deviates from the
classical almost toric picture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from .diagram import BaseDiagram, FocusFocus
from .diskgraph import Constraint
from .enumerate import (
    EnumerationResult,
    FixtureFlags,
    NO_FLAGS,
    SearchBounds,
    enumerate_disks,
)
from .geometry import GeometryError, Vec
from .lagrangian import LagGraph, segment_graph, star_graph
from .multiplicity import DEFAULT_CONVENTION, SignConvention

F = Fraction


@dataclass(frozen=True)
class FixtureCase:
    """One canonical enumeration run: a Lagrangian (or fiber) plus constraint."""

    lagrangian: Optional[str]          # key into Fixture.lagrangians; None = fiber
    edge_index: Optional[int] = None   # constraint on this Lagrangian edge ...
    t: Optional[Fraction] = None       # ... at this parameter
    point: Optional[Vec] = None        # or an interior point constraint
    flags: FixtureFlags = NO_FLAGS
    bounds: SearchBounds = SearchBounds()
    diagram: Optional[str] = None      # diagram variant key (default otherwise)


@dataclass
class Fixture:
    name: str
    diagram: BaseDiagram
    lagrangians: Dict[str, LagGraph]
    cases: Dict[str, FixtureCase]
    default_case: str
    diagram_variants: Dict[str, BaseDiagram] = field(default_factory=dict)

    def case(self, case_name: Optional[str] = None) -> FixtureCase:
        """The named case, or the default one; unknown names raise GeometryError."""
        name = case_name or self.default_case
        if name not in self.cases:
            raise GeometryError(
                f"fixture {self.name} has no case {name!r}; known: {', '.join(self.cases)}"
            )
        return self.cases[name]

    def diagram_for(self, case_name: Optional[str] = None) -> BaseDiagram:
        case = self.case(case_name)
        if case.diagram is not None:
            return self.diagram_variants[case.diagram]
        return self.diagram

    def constraint(self, case_name: Optional[str] = None) -> Constraint:
        case = self.case(case_name)
        if case.lagrangian is None:
            return Constraint.interior_point(case.point)
        lag = self.lagrangians[case.lagrangian]
        return Constraint.on_lagrangian(lag, case.edge_index, case.t)

    def lagrangian_for(self, case_name: Optional[str] = None) -> Optional[LagGraph]:
        case = self.case(case_name)
        if case.lagrangian is None:
            return None
        return self.lagrangians[case.lagrangian]

    def run(self, case_name: Optional[str] = None,
            bounds: Optional[SearchBounds] = None,
            constraint: Optional[Constraint] = None,
            convention: SignConvention = DEFAULT_CONVENTION) -> EnumerationResult:
        """Enumerate one case with its own inputs, bounds and flags.

        `bounds` replaces the case's bounds (the saturation checks pass
        `case.bounds.bumped()`); `tropdisk potential` also passes the
        constraint and the pant sign convention of its options.
        """
        case = self.case(case_name)
        return enumerate_disks(
            self.diagram_for(case_name), self.lagrangian_for(case_name),
            constraint or self.constraint(case_name), bounds or case.bounds, convention,
            case.flags,
        )


def _hexagon1() -> List[Vec]:
    # Ex. 1.6 hull: Bl^2(P1xP1), boundary lattice points 6
    return [Vec(1, 0), Vec(0, 1), Vec(-1, 1), Vec(-1, 0), Vec(0, -1), Vec(1, -1)]


def _hexagon2() -> List[Vec]:
    # the same hexagon in the P2-triangle chart
    return [Vec(1, 0), Vec(1, 1), Vec(0, 1), Vec(-1, 0), Vec(-1, -1), Vec(0, -1)]


def _pentagon() -> List[Vec]:
    # dp7: the square chopped at (1,1); 7 boundary lattice points
    return [Vec(1, 0), Vec(0, 1), Vec(-1, 1), Vec(-1, -1), Vec(1, -1)]


def _square() -> List[Vec]:
    return [Vec(1, 1), Vec(-1, 1), Vec(-1, -1), Vec(1, -1)]


# The Ex. 1.6 hull, the hexagon printed in the degree-6 example; the trivalent
# graph sits on the (1,0)/(-1,1)/(0,-1) corner triple (a coordinate change of
# the three-fixed-point sphere).
def _dp6() -> Fixture:
    diagram = BaseDiagram("dp6", _hexagon1())
    segment = segment_graph(Vec(1, -1), Vec(-1, 1))
    trivalent = star_graph(Vec(0, 0), [Vec(1, 0), Vec(-1, 1), Vec(0, -1)])
    cases = {
        "segment": FixtureCase("segment", edge_index=0, t=F(1, 2)),
        "segment_alt": FixtureCase("segment", edge_index=0, t=F(5, 16)),
        "trivalent": FixtureCase("trivalent", edge_index=1, t=F(1, 4)),
        "fiber": FixtureCase(None, point=Vec(0, 0)),
    }
    return Fixture("dp6", diagram, {"segment": segment, "trivalent": trivalent}, cases,
                   "segment")


# The degree-7 trivalent sphere.  The printed hull repeats (-1,1); the fifth
# vertex is reconstructed as (-1,-1) to host the third leg.  Corner caps on
# the two free corners realize the rim continuation of the boundary-collision
# lemma.
def _dp7() -> Fixture:
    diagram = BaseDiagram("dp7", _pentagon())
    trivalent = star_graph(Vec(0, 0), [Vec(1, 0), Vec(0, 1), Vec(-1, -1)])
    corner = FixtureFlags(
        corner_caps=(Vec(-1, 1), Vec(1, -1)), corner_limit=Vec(0, 0)
    )
    cases = {
        # constraint on the vertical leg at (0, 1/8)
        "leg": FixtureCase("trivalent", edge_index=1, t=F(1, 8), flags=corner),
        "leg_alt": FixtureCase("trivalent", edge_index=1, t=F(3, 16), flags=corner),
        # constraint on the diagonal leg at (-1/8,-1/8); plain cutting data
        "diag": FixtureCase("trivalent", edge_index=2, t=F(1, 8)),
    }
    return Fixture("dp7", diagram, {"trivalent": trivalent}, cases, "leg")


# The A4-chain segment sphere on the hexagon plus one node (an almost toric
# blow-up of the degree-6 chart; Euler count 6 corners + 1 node = 7, degree
# 5); one split station pinned by the node reproduces the third disk.
def _dp5() -> Fixture:
    foci = [
        FocusFocus(Vec(F(1, 2), F(1, 4)), pi=Vec(0, 1), sigma=Vec(1, 0), cut_sign=1),
    ]
    diagram = BaseDiagram("dp5", _hexagon1(), foci)
    segment = segment_graph(Vec(1, -1), Vec(-1, 1))
    cases = {
        "segment": FixtureCase("segment", edge_index=0, t=F(3, 8)),
        "segment_alt": FixtureCase("segment", edge_index=0, t=F(5, 16)),
    }
    return Fixture("dp5", diagram, {"segment": segment}, cases, "segment")


# A corner-to-corner sphere on the hexagon chart with two nodes (Euler 6+2 =
# 8, degree 4), standing in for the quadrilateral Vianna picture; the two
# nodes pin the two split disks of the four-disk count.
def _dp4() -> Fixture:
    foci = [
        FocusFocus(Vec(F(1, 2), F(-1, 4)), pi=Vec(0, 1), sigma=Vec(1, 0), cut_sign=-1),
        FocusFocus(Vec(F(-1, 4), F(1, 2)), pi=Vec(1, 0), sigma=Vec(0, 1), cut_sign=-1),
    ]
    diagram = BaseDiagram("dp4", _hexagon2(), foci)
    segment = segment_graph(Vec(-1, -1), Vec(1, 1))
    cases = {
        "sphere": FixtureCase("sphere", edge_index=0, t=F(11, 16)),
        "sphere_alt": FixtureCase("sphere", edge_index=0, t=F(23, 32)),
    }
    return Fixture("dp4", diagram, {"sphere": segment}, cases, "sphere")


# The anti-diagonal sphere in the product square; it bounds no Maslov-two
# disks (minimal Maslov 4).
def _p1xp1() -> Fixture:
    diagram = BaseDiagram("p1xp1", _square())
    antidiag = segment_graph(Vec(-1, 1), Vec(1, -1))
    cases = {
        "antidiagonal": FixtureCase("antidiagonal", edge_index=0, t=F(1, 2)),
        "fiber": FixtureCase(None, point=Vec(0, 0)),
    }
    return Fixture("p1xp1", diagram, {"antidiagonal": antidiag}, cases, "antidiagonal")


# The cubic surface's trivalent sphere (E6 system); it reproduces the
# {3/2 x2, -1 x6, -1/2 x6} contribution multiset.  The node inventory is
# chosen for enumeration fidelity and exceeds the cubic's fibration budget.
def _dp3() -> Fixture:
    # hexagon chart of the cubic with ten nodes: two D=3 pant stations (A, B),
    # four perpendicular split stations (C, D, E, F) and four D=1 pant
    # stations (P1..P4).  All are pinned to the canonical constraint point
    # (-1/4, 1/4) on the (-1,1) leg.
    foci = [
        FocusFocus(Vec(0, F(3, 4)), pi=Vec(1, 2), sigma=Vec(2, -1), cut_sign=1),     # A
        FocusFocus(Vec(F(-3, 4), 0), pi=Vec(2, 1), sigma=Vec(1, -2), cut_sign=-1),   # B
        FocusFocus(Vec(F(1, 8), F(3, 8)), pi=Vec(1, 0), sigma=Vec(0, 1), cut_sign=1),    # C
        FocusFocus(Vec(F(1, 16), F(5, 16)), pi=Vec(1, 0), sigma=Vec(0, 1), cut_sign=1),  # D
        FocusFocus(Vec(F(-3, 8), F(-1, 8)), pi=Vec(0, 1), sigma=Vec(1, 0), cut_sign=-1), # E
        FocusFocus(Vec(F(-5, 16), F(-1, 16)), pi=Vec(0, 1), sigma=Vec(1, 0), cut_sign=-1),  # F
        FocusFocus(Vec(F(-3, 8), F(1, 2)), pi=Vec(-1, 2), sigma=Vec(2, 1), cut_sign=1),  # P1
        FocusFocus(Vec(F(-1, 2), F(3, 8)), pi=Vec(-2, 1), sigma=Vec(1, 2), cut_sign=1),  # P2
        FocusFocus(Vec(F(-1, 2), F(5, 8)), pi=Vec(-2, 3), sigma=Vec(3, 2), cut_sign=1),  # P3
        FocusFocus(Vec(F(-5, 8), F(1, 2)), pi=Vec(-3, 2), sigma=Vec(2, 3), cut_sign=1),  # P4
    ]
    diagram = BaseDiagram("dp3", _hexagon1(), foci)
    trivalent = star_graph(Vec(0, 0), [Vec(1, 0), Vec(-1, 1), Vec(0, -1)])
    cases = {
        "trivalent": FixtureCase(
            "trivalent", edge_index=1, t=F(1, 4),
            bounds=SearchBounds(max_vertices=6, max_lattice_length=3,
                                max_cut_crossings=2, max_splits=1),
        ),
    }
    return Fixture("dp3", diagram, {"trivalent": trivalent}, cases, "trivalent")


# The degree-two spheres, long segments in the Vianna diagram: a vertical
# sphere on a variant with eight focus-focus entries and a horizontal one on a
# variant with four.  Station stacks model the Vianna node multiplicities.
def _dp2() -> Fixture:
    # Two diagram variants on the square chart, one per sphere class.  Each
    # station is a node stack (stack size = gcd of the shear covector) pinned
    # to the canonical constraint; the break-down is
    #   L1: 2 sides x (straight -1 + one weight-5 station) = -12
    #   L2: 2 sides x (straight -1 + weight-6 + weight-1 stations) = -16
    #       plus 2 sides x (one length-2 determinant-2 split) = +4.
    l2_foci = [
        FocusFocus(Vec(0, F(1, 2)), pi=Vec(0, 1), sigma=Vec(1, 0), cut_sign=1),
        FocusFocus(Vec(0, F(-1, 2)), pi=Vec(0, 1), sigma=Vec(1, 0), cut_sign=-1),
        # right: M1 (stack 6), M2 (stack 1, the length-2 anchor), S*
        FocusFocus(Vec(F(5, 16), F(-1, 16)), pi=Vec(1, -1), sigma=Vec(6, 6), cut_sign=1),
        FocusFocus(Vec(F(7, 16), F(-1, 16)), pi=Vec(1, -1), sigma=Vec(1, 1), cut_sign=1),
        FocusFocus(Vec(F(9, 16), F(3, 16)), pi=Vec(1, 1), sigma=Vec(1, -1), cut_sign=1),
        # left mirrors
        FocusFocus(Vec(F(-5, 16), F(1, 16)), pi=Vec(1, -1), sigma=Vec(6, 6), cut_sign=-1),
        FocusFocus(Vec(F(-7, 16), F(1, 16)), pi=Vec(1, -1), sigma=Vec(1, 1), cut_sign=-1),
        FocusFocus(Vec(F(-9, 16), F(-3, 16)), pi=Vec(1, 1), sigma=Vec(1, -1), cut_sign=-1),
    ]
    l1_foci = [
        FocusFocus(Vec(F(-1, 2), 0), pi=Vec(1, 0), sigma=Vec(0, 1), cut_sign=-1),
        FocusFocus(Vec(F(1, 2), 0), pi=Vec(1, 0), sigma=Vec(0, 1), cut_sign=1),
        FocusFocus(Vec(F(1, 16), F(5, 16)), pi=Vec(1, 1), sigma=Vec(5, -5), cut_sign=1),
        FocusFocus(Vec(F(-1, 16), F(-5, 16)), pi=Vec(1, 1), sigma=Vec(5, -5), cut_sign=-1),
    ]
    l2_diagram = BaseDiagram("dp2", _square(), l2_foci)
    l1_diagram = BaseDiagram("dp2_l1", _square(), l1_foci)
    vertical = segment_graph(Vec(0, F(-1, 2)), Vec(0, F(1, 2)))
    horizontal = segment_graph(Vec(F(-1, 2), 0), Vec(F(1, 2), 0))
    bounds = SearchBounds(max_vertices=8, max_lattice_length=3,
                          max_cut_crossings=2, max_splits=1)
    cases = {
        "l2": FixtureCase("vertical", edge_index=0, t=F(1, 2), bounds=bounds),
        "l1": FixtureCase("horizontal", edge_index=0, t=F(1, 2), bounds=bounds,
                          diagram="l1"),
    }
    return Fixture("dp2", l2_diagram, {"vertical": vertical, "horizontal": horizontal},
                   cases, "l2", diagram_variants={"l1": l1_diagram})


# The degree-one sphere on the square chart.  Stacks of 15 model the large
# node multiplicities of the degree-one diagram, and cover pairs are enabled
# so the cancelling double-cover graphs appear in the report.
def _dp1() -> Fixture:
    # One sphere, both perpendicular families; station stacks of size 15 plus
    # unit stations U (on the ray, hosting the double-cover pair), M3 and S*
    # (the determinant-two split):  per side -(1 + 15 + 15 + 1) + 2 = -30.
    foci = [
        FocusFocus(Vec(0, F(1, 2)), pi=Vec(0, 1), sigma=Vec(1, 0), cut_sign=1),
        FocusFocus(Vec(0, F(-1, 2)), pi=Vec(0, 1), sigma=Vec(1, 0), cut_sign=-1),
        # right side
        FocusFocus(Vec(F(5, 16), F(-1, 16)), pi=Vec(1, -1), sigma=Vec(15, 15), cut_sign=1),
        FocusFocus(Vec(F(7, 16), F(-1, 16)), pi=Vec(1, -1), sigma=Vec(15, 15), cut_sign=1),
        FocusFocus(Vec(F(9, 16), F(-1, 16)), pi=Vec(1, -1), sigma=Vec(1, 1), cut_sign=1),
        FocusFocus(Vec(F(13, 16), F(5, 16)), pi=Vec(1, 1), sigma=Vec(1, -1), cut_sign=1),
        FocusFocus(Vec(F(3, 4), 0), pi=Vec(1, 0), sigma=Vec(0, 1), cut_sign=1),
        # left mirrors
        FocusFocus(Vec(F(-5, 16), F(1, 16)), pi=Vec(1, -1), sigma=Vec(15, 15), cut_sign=-1),
        FocusFocus(Vec(F(-7, 16), F(1, 16)), pi=Vec(1, -1), sigma=Vec(15, 15), cut_sign=-1),
        FocusFocus(Vec(F(-9, 16), F(1, 16)), pi=Vec(1, -1), sigma=Vec(1, 1), cut_sign=-1),
        FocusFocus(Vec(F(-13, 16), F(-5, 16)), pi=Vec(1, 1), sigma=Vec(1, -1), cut_sign=-1),
        FocusFocus(Vec(F(-3, 4), 0), pi=Vec(1, 0), sigma=Vec(0, 1), cut_sign=-1),
    ]
    diagram = BaseDiagram("dp1", _square(), foci)
    vertical = segment_graph(Vec(0, F(-1, 2)), Vec(0, F(1, 2)))
    cases = {
        "vertical": FixtureCase(
            "vertical", edge_index=0, t=F(1, 2),
            bounds=SearchBounds(max_vertices=8, max_lattice_length=2,
                                max_cut_crossings=2, max_splits=1),
        ),
    }
    return Fixture("dp1", diagram, {"vertical": vertical}, cases, "vertical")


_BUILDERS = {
    "p1xp1": _p1xp1,
    "dp7": _dp7,
    "dp6": _dp6,
    "dp5": _dp5,
    "dp4": _dp4,
    "dp3": _dp3,
    "dp2": _dp2,
    "dp1": _dp1,
}

FIXTURE_NAMES = tuple(_BUILDERS)

# Every shipped (fixture, case) pair whose potential is checked against the
# eigenvalue table: the fixture runs, the figures and the stability tests.
SHIPPED_CASES = (
    ("p1xp1", "antidiagonal"), ("p1xp1", "fiber"),
    ("dp7", "leg"), ("dp7", "diag"),
    ("dp6", "segment"), ("dp6", "trivalent"), ("dp6", "fiber"),
    ("dp5", "segment"), ("dp4", "sphere"), ("dp3", "trivalent"),
    ("dp2", "l1"), ("dp2", "l2"), ("dp1", "vertical"),
)


def builtin_fixture(name: str) -> Fixture:
    """The named fixture, with its default diagram and every diagram variant
    validated once; an invalid one raises GeometryError."""
    if name not in _BUILDERS:
        raise GeometryError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    fixture = _BUILDERS[name]()
    labelled = [("diagram", fixture.diagram)] + [
        (f"diagram variant {key}", diagram) for key, diagram in fixture.diagram_variants.items()]
    for label, diagram in labelled:
        problems = diagram.validate()
        if problems:
            raise GeometryError(f"fixture {name} {label} invalid: {problems}")
    return fixture
