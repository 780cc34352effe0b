"""Exact tropical enumeration of Maslov-two disks on tropical Lagrangians."""

from .geometry import Vec, det2, primitive, primitive_and_length, shear_apply
from .diagram import BaseDiagram, FocusFocus
from .lagrangian import LagGraph, LagEdge, LagVertex, segment_graph, star_graph
from .multiplicity import (
    DEFAULT_CONVENTION,
    SignConvention,
    VertexKind,
    aut_order,
    graph_contribution,
)
from .diskgraph import Constraint, DiskEdge, DiskGraph, DiskVertex
from .enumerate import (
    EnumerationResult,
    FixtureFlags,
    SearchBounds,
    cancellation_report,
    enumerate_disks,
    potential,
    rigidity_dimension,
)
from .fixtures import FIXTURE_NAMES, Fixture, FixtureCase, builtin_fixture

__version__ = "0.1.0"
