import json
from fractions import Fraction as F

import pytest

from tropdisk.classify import classify_vertex
from tropdisk.diagram import BaseDiagram, FocusFocus
from tropdisk.diskgraph import Constraint
from tropdisk.enumerate import SearchBounds, enumerate_disks
from tropdisk.fixtures import builtin_fixture
from tropdisk.geometry import GeometryError, Vec
from tropdisk.lagrangian import LagEdge, LagGraph, LagVertex


def test_fixture_directory_override(tmp_path, monkeypatch):
    fx = builtin_fixture("dp6")
    stretched = BaseDiagram(
        "dp6", [v * 2 for v in fx.diagram.polygon], [], dict(fx.diagram.metadata)
    )
    stretched.save(tmp_path / "dp6.diagram.json")
    monkeypatch.setenv("TROPDISK_FIXTURES", str(tmp_path))
    loaded = builtin_fixture("dp6")
    assert loaded.diagram.polygon[0] == Vec(2, 0)
    monkeypatch.delenv("TROPDISK_FIXTURES")
    assert builtin_fixture("dp6").diagram.polygon[0] == Vec(1, 0)


def test_genus_requires_connected():
    g = LagGraph(
        [LagVertex("a", Vec(0, 0)), LagVertex("b", Vec(1, 0)),
         LagVertex("c", Vec(0, 1)), LagVertex("d", Vec(1, 1))],
        [LagEdge(("a", "b")), LagEdge(("c", "d"))],
    )
    with pytest.raises(GeometryError):
        g.genus()


def test_fiber_ray_through_branch_cut_is_a_cylinder():
    # hexagon with one node whose cut is crossed by a Cho-Oh ray; the
    # direction shears at the crossing and the bookkeeping vertex classifies
    # as a cylinder once the monodromy is taken into account
    hexagon = builtin_fixture("dp6").diagram
    diagram = BaseDiagram(
        "cut-crossing", list(hexagon.polygon),
        [FocusFocus(Vec(F(1, 4), F(1, 4)), pi=Vec(0, 1), sigma=Vec(-1, 0), cut_sign=1)],
    )
    assert diagram.validate() == []
    constraint = Constraint.interior_point(Vec(0, F(3, 8)))
    result = enumerate_disks(diagram, None, constraint, SearchBounds())
    crossing = [
        g for g in result.graphs
        if any(v.kind.tag == "cylinder" for v in g.graph.vertices)
    ]
    assert crossing, "expected a sheared Cho-Oh disk through the cut"
    for g in crossing:
        for v in g.graph.vertices:
            if v.kind.tag == "cylinder":
                rederived = classify_vertex(g.graph, v.id, diagram, None)
                assert rederived.tag == "cylinder"


def test_incomplete_result_raises_in_potential():
    from tropdisk.enumerate import EnumerationResult, potential

    # the structured incomplete path: unresolved graphs flag the result
    res = EnumerationResult([], unresolved=["higher valence vertex"])
    assert not res.complete


def test_signature_distinguishes_open_flag():
    res = builtin_fixture("dp7").run("leg")
    sigs = {g.graph.signature() for g in res.graphs}
    assert len(sigs) == len(res.graphs)
    opens = [e for g in res.graphs for e in g.graph.edges if e.open]
    assert opens, "pant strips are open edges"
    for e in opens:
        assert not e.direction.is_integral() or e.direction  # half-integral allowed


def test_open_edge_directions_half_integral_on_diagonal_legs():
    res = builtin_fixture("dp3").run()
    halves = [
        e.direction
        for g in res.graphs
        for e in g.graph.edges
        if e.open and e.direction.x.denominator == 2
    ]
    assert halves, "diagonal-leg pants carry half-integral strip directions"
