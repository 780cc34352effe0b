"""Tropical graphs of Lagrangians: allowability, invariants, nodal slides.

A Lagrangian graph lives inside a base diagram.  Edges are stored by vertex
ids; directions are always derived from the endpoint positions, never stored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .diagram import (
    AT_FOCUS_FOCUS,
    BaseDiagram,
    FocusFocus,
    ON_FACET,
    ON_POLYGON_VERTEX,
)
from .geometry import (
    GeometryError,
    Vec,
    det2,
    lines_intersect,
    point_on_segment,
    primitive,
    segment_parameter,
)

ANCHOR_FREE = "free"
ANCHOR_FACET = "facet"          # at a polygon vertex or on the boundary
ANCHOR_FOCUS = "focus"


@dataclass(frozen=True)
class LagVertex:
    id: str
    position: Vec
    anchor: str = ANCHOR_FREE
    anchor_index: Optional[int] = None


@dataclass(frozen=True)
class LagEdge:
    endpoints: Tuple[str, str]
    weight: int = 1          # tropical edge multiplicity; primitive graphs use 1


@dataclass
class LagGraph:
    vertices: List[LagVertex]
    edges: List[LagEdge]
    name: str = "lagrangian"

    def __post_init__(self):
        self._by_id: Dict[str, LagVertex] = {v.id: v for v in self.vertices}
        if len(self._by_id) != len(self.vertices):
            raise GeometryError("duplicate vertex ids")
        for e in self.edges:
            for vid in e.endpoints:
                if vid not in self._by_id:
                    raise GeometryError(f"edge endpoint {vid!r} not a vertex")

    # -- basic combinatorics --------------------------------------------------

    def vertex(self, vid: str) -> LagVertex:
        return self._by_id[vid]

    def position(self, vid: str) -> Vec:
        return self._by_id[vid].position

    def valence(self, vid: str) -> int:
        return sum(1 for e in self.edges if vid in e.endpoints)

    def adjacent_edges(self, vid: str) -> List[LagEdge]:
        return [e for e in self.edges if vid in e.endpoints]

    def edge_vector(self, edge: LagEdge, from_id: Optional[str] = None) -> Vec:
        a, b = edge.endpoints
        if from_id is not None and from_id == b:
            a, b = b, a
        return self.position(b) - self.position(a)

    def edge_direction(self, edge: LagEdge, from_id: Optional[str] = None) -> Vec:
        """Primitive integer direction of an edge, oriented away from from_id."""
        v = self.edge_vector(edge, from_id)
        return primitive(v)

    def edge_integral_vector(self, edge: LagEdge, from_id: Optional[str] = None) -> Vec:
        """The tropical direction: weight times the primitive direction."""
        return self.edge_direction(edge, from_id) * edge.weight

    def leg_directions(self, vid: str) -> List[Vec]:
        return [self.edge_direction(e, from_id=vid) for e in self.adjacent_edges(vid)]

    def leg_integral_vectors(self, vid: str) -> List[Vec]:
        return [self.edge_integral_vector(e, from_id=vid) for e in self.adjacent_edges(vid)]

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        seen = {self.vertices[0].id}
        frontier = [self.vertices[0].id]
        while frontier:
            current = frontier.pop()
            for e in self.adjacent_edges(current):
                for vid in e.endpoints:
                    if vid not in seen:
                        seen.add(vid)
                        frontier.append(vid)
        return len(seen) == len(self.vertices)

    # -- spec operations --------------------------------------------------------

    def is_balanced(self, vid: str) -> bool:
        legs = self.leg_integral_vectors(vid)
        if len(legs) < 2:
            raise GeometryError("balancing is not defined at univalent vertices")
        total = Vec(0, 0)
        for d in legs:
            total = total + d
        return not total

    def mikhalkin_det(self, vid: str) -> int:
        legs = self.leg_integral_vectors(vid)
        if len(legs) != 3:
            raise GeometryError("Mikhalkin determinant needs a trivalent vertex")
        return abs(int(det2(legs[0], legs[1])))

    def genus(self) -> int:
        if not self.is_connected():
            raise GeometryError("genus requires a connected graph")
        return len(self.edges) - len(self.vertices) + 1

    def self_intersection(self) -> Fraction:
        total = Fraction(0)
        for v in self.vertices:
            if self.valence(v.id) == 3:
                total += Fraction(self.mikhalkin_det(v.id) - 1, 2)
        return total

    def is_primitive(self) -> bool:
        for e in self.edges:
            if not self.edge_vector(e):
                return False
            if e.weight != 1:
                return False
        for v in self.vertices:
            if self.valence(v.id) > 3:
                return False
        return True

    def is_allowable(self, diagram: BaseDiagram) -> List[str]:
        """Violation codes for Def.-style allowability; empty means allowable."""
        violations = []
        if not self.is_connected():
            violations.append("not_connected")
        for v in self.vertices:
            val = self.valence(v.id)
            cls = diagram.classify_point(v.position)
            if val == 1:
                if cls.kind == ON_POLYGON_VERTEX:
                    violations.extend(self._check_bisectrice(diagram, v, cls))
                elif cls.kind == AT_FOCUS_FOCUS:
                    violations.extend(self._check_focus_leg(diagram, v, cls))
                elif cls.kind == ON_FACET:
                    violations.append(f"univalent_on_facet:{v.id}")
                else:
                    violations.append(f"univalent_not_anchored:{v.id}")
            else:
                if val > 3:
                    violations.append(f"valence_exceeds_three:{v.id}")
                if val >= 2 and not self.is_balanced(v.id):
                    violations.append(f"unbalanced:{v.id}")
                if val == 3 and self.is_balanced(v.id) and self.mikhalkin_det(v.id) != 1:
                    violations.append(f"mikhalkin_det_not_one:{v.id}")
        for k, e in enumerate(self.edges):
            a = self.position(e.endpoints[0])
            b = self.position(e.endpoints[1])
            for ff in diagram.focus_foci:
                if point_on_segment(ff.position, a, b, closed=False):
                    violations.append(f"edge_contains_focus:{k}")
            for m, other in enumerate(self.edges):
                if m <= k:
                    continue
                if self._edges_cross(e, other):
                    violations.append(f"edges_cross:{k}:{m}")
        return violations

    def _check_bisectrice(self, diagram, v, cls) -> List[str]:
        edge = self.adjacent_edges(v.id)[0]
        direction = self.edge_direction(edge, from_id=v.id)
        facets = [
            f
            for i, f in enumerate(diagram.facets())
            if v.position in f.endpoints
        ]
        if len(facets) != 2:
            return [f"corner_facets_missing:{v.id}"]
        for f in facets:
            if direction.dot(f.inward_normal) != 1:
                return [f"not_bisectrice:{v.id}"]
        return []

    def _check_focus_leg(self, diagram, v, cls) -> List[str]:
        edge = self.adjacent_edges(v.id)[0]
        direction = self.edge_direction(edge, from_id=v.id)
        ff = diagram.focus_foci[cls.index]
        if direction != ff.pi and direction != -ff.pi:
            return [f"focus_leg_not_along_shear:{v.id}"]
        return []

    def _edges_cross(self, e1: LagEdge, e2: LagEdge) -> bool:
        if set(e1.endpoints) & set(e2.endpoints):
            return False
        a, b = (self.position(x) for x in e1.endpoints)
        c, d = (self.position(x) for x in e2.endpoints)
        hit = lines_intersect(a, b - a, c, d - c)
        if hit is None:
            return False
        t = segment_parameter(hit, a, b)
        s = segment_parameter(hit, c, d)
        return t is not None and s is not None and 0 < t < 1 and 0 < s < 1

    # -- nodal slide mutation ---------------------------------------------------

    def mutate_nodal_slide(
        self, diagram: BaseDiagram, focus_index: int, new_position: Vec
    ) -> Tuple["LagGraph", BaseDiagram]:
        """Slide focus value j to new_position (along its shear line).

        If the slide segment crosses an edge of the graph, the mutated graph
        gains a spur from the crossing point to the new focus position, in the
        shear direction.
        """
        ff = diagram.focus_foci[focus_index]
        slide = new_position - ff.position
        if slide and det2(slide, ff.pi) != 0:
            raise GeometryError("nodal slide must move the focus along its shear line")
        crossings = []
        for k, e in enumerate(self.edges):
            a = self.position(e.endpoints[0])
            b = self.position(e.endpoints[1])
            hit = lines_intersect(a, b - a, ff.position, slide) if slide else None
            if hit is None:
                continue
            t = segment_parameter(hit, a, b)
            s = segment_parameter(hit, ff.position, new_position)
            if t is not None and s is not None and 0 < t < 1 and 0 <= s <= 1:
                crossings.append((k, hit))
        new_foci = list(diagram.focus_foci)
        new_foci[focus_index] = FocusFocus(
            position=new_position, pi=ff.pi, sigma=ff.sigma, cut_sign=ff.cut_sign
        )
        new_diagram = BaseDiagram(
            name=diagram.name, polygon=list(diagram.polygon), focus_foci=new_foci,
            metadata=dict(diagram.metadata),
        )
        if not crossings:
            return (
                LagGraph(list(self.vertices), list(self.edges), name=self.name),
                new_diagram,
            )
        if len(crossings) > 1:
            raise GeometryError("slide crosses more than one edge")
        k, hit = crossings[0]
        edge = self.edges[k]
        a_id, b_id = edge.endpoints
        mid_id = f"slide{focus_index}"
        spur_id = f"focus{focus_index}"
        new_vertices = list(self.vertices) + [
            LagVertex(mid_id, hit, ANCHOR_FREE),
            LagVertex(spur_id, new_position, ANCHOR_FOCUS, focus_index),
        ]
        new_edges = [e for i, e in enumerate(self.edges) if i != k] + [
            LagEdge((a_id, mid_id)),
            LagEdge((mid_id, b_id)),
            LagEdge((mid_id, spur_id)),
        ]
        return LagGraph(new_vertices, new_edges, name=self.name), new_diagram

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {
            "vertices": [],
            "edges": [
                list(e.endpoints) if e.weight == 1 else [*e.endpoints, e.weight]
                for e in self.edges
            ],
        }
        for v in self.vertices:
            anchor = v.anchor
            if v.anchor_index is not None:
                anchor = f"{v.anchor}:{v.anchor_index}"
            out["vertices"].append(
                {"id": v.id, "position": v.position.as_rational_pairs(), "anchor": anchor}
            )
        return out

    @classmethod
    def from_json_dict(cls, data: dict, name: str = "lagrangian") -> "LagGraph":
        vertices = []
        for entry in data["vertices"]:
            anchor = entry.get("anchor", ANCHOR_FREE)
            index = None
            if ":" in anchor:
                anchor, idx = anchor.split(":")
                index = int(idx)
            (xn, xd), (yn, yd) = entry["position"]
            vertices.append(
                LagVertex(
                    entry["id"],
                    Vec(Fraction(xn, xd), Fraction(yn, yd)),
                    anchor,
                    index,
                )
            )
        edges = [
            LagEdge((entry[0], entry[1]), entry[2] if len(entry) > 2 else 1)
            for entry in data["edges"]
        ]
        return cls(vertices, edges, name=name)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "LagGraph":
        with open(path) as fh:
            try:
                return cls.from_json_dict(json.load(fh))
            except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
                raise GeometryError(f"malformed Lagrangian file {path}: {exc!r}") from exc


def segment_graph(a: Vec, b: Vec, name: str = "segment") -> LagGraph:
    return LagGraph(
        [LagVertex("v0", a), LagVertex("v1", b)],
        [LagEdge(("v0", "v1"))],
        name=name,
    )


def star_graph(center: Vec, tips: List[Vec], name: str = "star") -> LagGraph:
    vertices = [LagVertex("c", center)]
    edges = []
    for i, tip in enumerate(tips):
        vid = f"t{i}"
        vertices.append(LagVertex(vid, tip))
        edges.append(LagEdge(("c", vid)))
    return LagGraph(vertices, edges, name=name)
