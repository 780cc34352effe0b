"""Exact tropical enumeration of Maslov-two disks on tropical Lagrangians."""

from .geometry import Vec, det2, primitive, primitive_and_length, reflect_over, shear_apply
from .diagram import BaseDiagram, Facet, FocusFocus
from .lagrangian import LagGraph, LagEdge, LagVertex, segment_graph, star_graph
from .multiplicity import (
    DEFAULT_CONVENTION,
    SignConvention,
    VertexKind,
    aut_order,
    graph_contribution,
    multiplicity,
)
from .diskgraph import Constraint, DiskEdge, DiskGraph, DiskVertex
from .enumerate import (
    EnumerationResult,
    FixtureFlags,
    SearchBounds,
    cancellation_report,
    corner_projection,
    enumerate_disks,
    enumerate_maslov4,
    potential,
    rigidity_dimension,
)
from .fixtures import FIXTURE_NAMES, Fixture, FixtureCase, builtin_fixture

__version__ = "0.1.0"
