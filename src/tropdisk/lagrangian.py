"""Tropical graphs of Lagrangians: allowability, invariants, nodal slides.

A Lagrangian graph lives inside a base diagram.  Edges are stored by vertex
ids; directions are always derived from the endpoint positions, never stored.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .diagram import (
    AT_FOCUS_FOCUS,
    BaseDiagram,
    ON_FACET,
    ON_POLYGON_VERTEX,
)
from .geometry import (
    GeometryError,
    Vec,
    det2,
    from_homogeneous,
    homogeneous,
    integer_rows,
    json_list,
    json_object,
    json_point,
    load_json,
    point_on_row,
    primitive_pair,
    ray_point,
    ray_segment_hit,
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
    """Its tuples refuse in-place edits; a reassigned field would outdate its tables."""
    vertices: Tuple[LagVertex, ...]
    edges: Tuple[LagEdge, ...]

    def __post_init__(self):
        self.vertices, self.edges = tuple(self.vertices), tuple(self.edges)
        self._by_id: Dict[str, LagVertex] = {v.id: v for v in self.vertices}
        if len(self._by_id) != len(self.vertices):
            raise GeometryError("duplicate vertex ids")
        for e in self.edges:
            for vid in e.endpoints:
                if vid not in self._by_id:
                    raise GeometryError(f"edge endpoint {vid!r} not a vertex")
        # the integer picture every edge and location question reads: the
        # edge rows, each edge's primitive direction (None for a zero-length
        # edge) and the first vertex at each homogeneous point
        triples = {v.id: homogeneous(v.position) for v in self.vertices}
        self._edge_rows = integer_rows([tuple(map(triples.get, e.endpoints))
                                        for e in self.edges])
        self._directions = [primitive_pair(ex, ey)[:2] if ex or ey else None
                            for _, _, ex, ey in self._edge_rows[0]]
        self._by_point: Dict[Tuple[int, int, int], LagVertex] = {}
        for v in self.vertices:
            self._by_point.setdefault(triples[v.id], v)
        # the weight codes, which `weight_violations` copies
        self._weight_codes = {k: f"edge_weight_not_one:{k}"
                              for k, e in enumerate(self.edges) if e.weight != 1}

    # -- basic combinatorics --------------------------------------------------

    def position(self, vid: str) -> Vec:
        return self._by_id[vid].position

    def valence(self, vid: str) -> int:
        return sum(1 for e in self.edges if vid in e.endpoints)

    def adjacent_edges(self, vid: str) -> List[LagEdge]:
        return [e for e in self.edges if vid in e.endpoints]

    def edge_rows(self) -> Tuple[List[Tuple[int, int, int, int]], int]:
        """The edges as `integer_rows`, over the graph's own scale."""
        return self._edge_rows

    def edge_through(self, point) -> Optional[int]:
        """Index of the first edge whose open segment contains the
        homogeneous point, or None."""
        rows, scale = self.edge_rows()
        return next((i for i, row in enumerate(rows)
                     if point_on_row(point, row, scale, closed=False)), None)

    def vertex_at(self, point) -> Optional[LagVertex]:
        """The first vertex at the homogeneous point, or None."""
        return self._by_point.get(point)

    def edge_direction(self, k: int, from_id: Optional[str] = None) -> Tuple[int, int]:
        """Primitive integer direction of edge k, oriented away from from_id:
        its `edge_rows()` row divided by the row's gcd."""
        direction = self._directions[k]
        if direction is None:
            raise GeometryError("zero vector has no primitive direction")
        lx, ly = direction
        return (-lx, -ly) if from_id == self.edges[k].endpoints[1] else (lx, ly)

    def edge_normal(self, k: int) -> Tuple[int, int]:
        """Edge k's primitive direction (lx, ly) turned left to (-ly, lx): the
        direction a perpendicular collision's legs run along, either way.
        The search and `classify_vertex` both read the perpendicular here."""
        lx, ly = self.edge_direction(k)
        return -ly, lx

    def leg_directions(self, vid: str) -> List[Tuple[int, int]]:
        return [self.edge_direction(k, from_id=vid)
                for k, e in enumerate(self.edges) if vid in e.endpoints]

    def leg_integral_vectors(self, vid: str) -> List[Tuple[int, int]]:
        """Each leg's tropical direction: weight times the primitive direction."""
        return [(e.weight * dx, e.weight * dy)
                for e, (dx, dy) in zip(self.adjacent_edges(vid), self.leg_directions(vid))]

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
        return sum(x for x, _ in legs) == 0 and sum(y for _, y in legs) == 0

    def mikhalkin_det(self, vid: str) -> int:
        legs = self.leg_integral_vectors(vid)
        if len(legs) != 3:
            raise GeometryError("Mikhalkin determinant needs a trivalent vertex")
        (x1, y1), (x2, y2), _ = legs
        return abs(x1 * y2 - y1 * x2)

    def genus(self) -> int:
        if not self.is_connected():
            raise GeometryError("genus requires a connected graph")
        return len(self.edges) - len(self.vertices) + 1

    def tropical_double_points(self) -> Fraction:
        """The number of tropical double points: (det - 1)/2 summed over the
        trivalent vertices, det the Mikhalkin determinant.  It is not the
        homological self-intersection of the sphere, which is -2."""
        return sum((Fraction(self.mikhalkin_det(v.id) - 1, 2)
                    for v in self.vertices if self.valence(v.id) == 3), Fraction(0))

    def is_primitive(self) -> bool:
        for e, (_, _, ex, ey) in zip(self.edges, self.edge_rows()[0]):
            if not (ex or ey) or e.weight != 1:
                return False
        for v in self.vertices:
            if self.valence(v.id) > 3:
                return False
        return True

    def weight_violations(self) -> Dict[int, str]:
        """The code `edge_weight_not_one:<k>` of each edge k of weight other
        than 1, by k, found at construction: the search reads every edge as
        primitive, so `is_allowable` reports these codes and `enumerate_disks`
        refuses them."""
        return dict(self._weight_codes)

    def is_allowable(self, diagram: BaseDiagram) -> List[str]:
        """Violation codes for Def.-style allowability; empty means allowable.
        The diagram must pass `validate()`.  A zero-length edge has no
        direction, so its code ends the checks."""
        violations = []
        if not self.is_connected():
            violations.append("not_connected")
        rows, scale = self.edge_rows()
        zero = [f"zero_length_edge:{k}" for k, d in enumerate(self._directions) if d is None]
        if zero:
            return violations + zero
        for v in self.vertices:
            val = self.valence(v.id)
            cls = diagram.classify_point(homogeneous(v.position))
            violations.extend(self._check_anchor(v, cls))
            if val == 0:
                violations.append(f"isolated_vertex:{v.id}")
            elif val == 1:
                if cls.kind == ON_POLYGON_VERTEX:
                    violations.extend(self._check_bisectrice(diagram, v, cls.index))
                elif cls.kind == AT_FOCUS_FOCUS:
                    # the leg is primitive, as pi is: parallel means equal to +/- pi
                    if not diagram.along_shear(cls.index, self.leg_directions(v.id)[0]):
                        violations.append(f"focus_leg_not_along_shear:{v.id}")
                elif cls.kind == ON_FACET:
                    violations.append(f"univalent_on_facet:{v.id}")
                else:
                    violations.append(f"univalent_not_anchored:{v.id}")
            else:
                if val > 3:
                    violations.append(f"valence_exceeds_three:{v.id}")
                if not self.is_balanced(v.id):
                    violations.append(f"unbalanced:{v.id}")
                elif val == 3 and self.mikhalkin_det(v.id) != 1:
                    violations.append(f"mikhalkin_det_not_one:{v.id}")
        foci = diagram.homogeneous_points()[0]
        heavy = self.weight_violations()
        for k, row in enumerate(rows):
            if k in heavy:
                violations.append(heavy[k])
            for focus in foci:
                if point_on_row(focus, row, scale, closed=False):
                    violations.append(f"edge_contains_focus:{k}")
            for m in range(k + 1, len(rows)):
                if self._edges_cross(k, m):
                    violations.append(f"edges_cross:{k}:{m}")
        return violations

    @staticmethod
    def _check_anchor(v: LagVertex, cls) -> List[str]:
        """A `focus:J` vertex sits at focus J (any focus without J), a
        `facet` vertex on the boundary; a `free` vertex may sit anywhere."""
        if v.anchor not in (ANCHOR_FREE, ANCHOR_FACET, ANCHOR_FOCUS):
            return [f"anchor_unknown:{v.id}"]
        if v.anchor == ANCHOR_FOCUS:
            held = cls.kind == AT_FOCUS_FOCUS and v.anchor_index in (None, cls.index)
        else:
            held = v.anchor == ANCHOR_FREE or cls.kind in (ON_FACET, ON_POLYGON_VERTEX)
        return [] if held else [f"anchor_mismatch:{v.id}"]

    def _check_bisectrice(self, diagram, v, i: int) -> List[str]:
        """The leg from corner i pairs to 1 with both normals there, of facets i - 1 and i."""
        dx, dy = self.leg_directions(v.id)[0]
        normals = diagram.normals()
        if any(nx * dx + ny * dy != 1 for nx, ny in (normals[i - 1], normals[i])):
            return [f"not_bisectrice:{v.id}"]
        return []

    def _edges_cross(self, k: int, m: int) -> bool:
        """Whether edges k and m meet at a point interior to both: a ray from
        edge k's start along the edge meets edge m at 0 < s < 1 before it
        leaves edge k (t < 1 / scale).  Parallel edges never cross."""
        if set(self.edges[k].endpoints) & set(self.edges[m].endpoints):
            return False
        rows, scale = self.edge_rows()
        ax, ay, ex, ey = rows[k]
        hit = ray_segment_hit((ax, ay, scale), (ex, ey), rows[m], scale)
        return (hit is not None and hit[0] * scale < hit[1]
                and 0 < hit[2] < hit[3])

    # -- nodal slide mutation ---------------------------------------------------

    def mutate_nodal_slide(
        self, diagram: BaseDiagram, focus_index: int, new_position: Vec
    ) -> Tuple["LagGraph", BaseDiagram]:
        """Slide focus value j to new_position (along its shear line).

        If the slide segment crosses an edge of the graph, the mutated graph
        gains a spur from the crossing point to the new focus position, in the
        shear direction.  Raises `GeometryError` naming the violation codes
        when the new diagram fails `BaseDiagram.validate()`.
        """
        ff = diagram.focus_foci[focus_index]
        slide = new_position - ff.position
        if slide and det2(slide, ff.pi) != 0:
            raise GeometryError("nodal slide must move the focus along its shear line")
        # a ray from each edge's start along the edge meets the closed slide
        # row before it leaves the open edge; parallel edges (and a zero
        # slide or edge) never cross
        rows, scale = integer_rows(
            [tuple(homogeneous(self.position(vid)) for vid in e.endpoints) for e in self.edges]
            + [(homogeneous(ff.position), homogeneous(new_position))])
        slide_row = rows.pop()
        crossings = []
        for k, (ax, ay, ex, ey) in enumerate(rows):
            if ex * slide_row[3] == ey * slide_row[2]:
                continue
            hit = ray_segment_hit((ax, ay, scale), (ex, ey), slide_row, scale)
            if hit is not None and hit[0] * scale < hit[1]:
                point = ray_point((ax, ay, scale), (ex, ey), hit[0], hit[1])
                crossings.append((k, from_homogeneous(point)))
        new_foci = list(diagram.focus_foci)
        new_foci[focus_index] = replace(ff, position=new_position)
        new_diagram = BaseDiagram(diagram.name, diagram.polygon, new_foci)
        if len(crossings) > 1:
            raise GeometryError("slide crosses more than one edge")
        problems = new_diagram.validate()
        if problems:
            raise GeometryError(f"nodal slide to {new_position!r} gives an invalid "
                                f"diagram: {problems}")
        if not crossings:
            return LagGraph(self.vertices, self.edges), new_diagram
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
        return LagGraph(new_vertices, new_edges), new_diagram

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
    def from_json_dict(cls, data: dict) -> "LagGraph":
        vertices = []
        for i, entry in enumerate(json_list(data, "vertices")):
            entry = json_object(f"vertex entry {i}", entry, ("id", "position"))
            vid = entry["id"]
            if not isinstance(vid, str):
                raise ValueError(f"vertex id {vid!r} is not a string")
            anchor, index = _json_anchor(vid, entry.get("anchor", ANCHOR_FREE))
            position = json_point(f"vertex {vid} position", entry["position"])
            vertices.append(LagVertex(vid, position, anchor, index))
        edges = []
        for entry in json_list(data, "edges"):
            if not (isinstance(entry, list) and len(entry) in (2, 3)
                    and all(isinstance(vid, str) for vid in entry[:2])):
                raise ValueError(f"edge entry {entry!r} is not [id, id] or [id, id, weight] "
                                 "with string ids")
            weight = entry[2] if len(entry) > 2 else 1
            if type(weight) is not int or weight < 1:
                raise ValueError(f"edge weight {weight!r} is not a positive integer")
            edges.append(LagEdge((entry[0], entry[1]), weight))
        return cls(vertices, edges)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "LagGraph":
        return load_json(path, "Lagrangian", cls.from_json_dict)


def _json_anchor(vid: str, anchor) -> Tuple[str, Optional[int]]:
    """(kind, index) of a vertex's anchor string `kind` or `kind:int`."""
    if not isinstance(anchor, str):
        raise ValueError(f"vertex {vid} anchor {anchor!r} is not a string")
    kind, sep, index = anchor.partition(":")
    if not sep:
        return kind, None
    if not re.fullmatch(r"-?[0-9]+", index):
        raise ValueError(f"vertex {vid} anchor {anchor!r} is not kind or kind:int")
    return kind, int(index)


def segment_graph(a: Vec, b: Vec) -> LagGraph:
    return LagGraph([LagVertex("v0", a), LagVertex("v1", b)], [LagEdge(("v0", "v1"))])


def star_graph(center: Vec, tips: List[Vec]) -> LagGraph:
    vertices = [LagVertex("c", center)]
    edges = []
    for i, tip in enumerate(tips):
        vid = f"t{i}"
        vertices.append(LagVertex(vid, tip))
        edges.append(LagEdge(("c", vid)))
    return LagGraph(vertices, edges)
