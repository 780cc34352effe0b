"""Disk graph data model: solved tropical graphs of broken Maslov-two disks."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .geometry import GeometryError, Vec, frac
from .multiplicity import CORNER_CAP, VertexKind

CONSTRAINT_LAGRANGIAN = "lagrangian"
CONSTRAINT_INTERIOR = "interior"


@dataclass(frozen=True)
class Constraint:
    kind: str
    point: Vec
    edge_index: Optional[int] = None
    t: Optional[Fraction] = None

    @classmethod
    def on_lagrangian(cls, lag, edge_index: int, t) -> "Constraint":
        t = frac(t)
        if not (0 < t < 1):
            raise GeometryError("constraint parameter must be strictly inside the edge")
        if not (0 <= edge_index < len(lag.edges)):
            raise GeometryError(
                f"constraint edge {edge_index} out of range: the Lagrangian has "
                f"{len(lag.edges)} edge(s)")
        edge = lag.edges[edge_index]
        a = lag.position(edge.endpoints[0])
        b = lag.position(edge.endpoints[1])
        return cls(CONSTRAINT_LAGRANGIAN, a + (b - a) * t, edge_index, t)

    @classmethod
    def interior_point(cls, point: Vec) -> "Constraint":
        return cls(CONSTRAINT_INTERIOR, point)


@dataclass(frozen=True)
class DiskVertex:
    id: str
    position: Vec
    kind: VertexKind


@dataclass(frozen=True)
class DiskEdge:
    endpoints: Tuple[str, str]
    direction: Vec           # oriented endpoints[0] -> endpoints[1]
    open: bool = False


@dataclass
class DiskGraph:
    vertices: List[DiskVertex]
    edges: List[DiskEdge]
    constraint: Optional[Constraint] = None

    def __post_init__(self):
        self._index: Dict[str, int] = {v.id: i for i, v in enumerate(self.vertices)}

    @property
    def corner_mode(self) -> bool:
        """The graph ends in a corner cap (a rim continuation into a corner)."""
        return any(v.kind.tag == CORNER_CAP for v in self.vertices)

    def index_of(self, vid: str) -> int:
        return self._index[vid]

    def vertex(self, vid: str) -> DiskVertex:
        return self.vertices[self._index[vid]]

    def position_of(self, vid: str) -> Vec:
        return self.vertex(vid).position

    def adjacent(self, vid: str) -> List[Tuple[DiskEdge, Vec]]:
        """Adjacent edges with directions oriented away from vid."""
        out = []
        for e in self.edges:
            if e.endpoints[0] == vid:
                out.append((e, e.direction))
            elif e.endpoints[1] == vid:
                out.append((e, -e.direction))
        return out

    def signature(self):
        """Canonical hashable form for dedup and deterministic ordering."""
        verts = sorted(
            (v.kind.tag, tuple(v.position), v.kind.ell,
             tuple(v.kind.d1) if v.kind.d1 else None,
             tuple(v.kind.d2) if v.kind.d2 else None,
             tuple(v.kind.e_black) if v.kind.e_black else None)
            for v in self.vertices
        )
        edges = sorted(
            tuple(sorted([tuple(self.position_of(e.endpoints[0])),
                          tuple(self.position_of(e.endpoints[1]))]))
            + (tuple(e.direction), e.open)
            for e in self.edges
        )
        return (tuple(verts), tuple(edges))
