import ast
import copy
import pathlib
import runpy
import types
from fractions import Fraction as F

import pytest

import tropdisk
from tropdisk.classify import classify_vertex
from tropdisk.diagram import BaseDiagram, FocusFocus
from tropdisk.diskgraph import Constraint, DiskEdge, DiskGraph, DiskVertex
from tropdisk.enumerate import SearchBounds, enumerate_disks
from tropdisk.fixtures import SHIPPED_CASES, builtin_fixture
from tropdisk.geometry import GeometryError, Vec, homogeneous
from tropdisk.lagrangian import LagEdge, LagGraph, LagVertex, segment_graph
from tropdisk.multiplicity import UnclassifiableVertex, holomorphic_pant


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


def test_incomplete_result_raises_in_potential(monkeypatch):
    from tropdisk.enumerate import EnumerationResult, potential

    # the structured incomplete path: unresolved graphs flag the result
    res = EnumerationResult([], unresolved=["higher valence vertex"])
    assert not res.complete
    # and potential() refuses to sum an incomplete result
    monkeypatch.setattr("tropdisk.enumerate.enumerate_disks",
                        lambda *args, **kwargs: EnumerationResult([], unresolved=["x"]))
    fx = builtin_fixture("dp6")
    with pytest.raises(GeometryError, match="enumeration incomplete"):
        potential(fx.diagram_for("fiber"), None, fx.constraint("fiber"))


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


def test_multiplicity_submodule_is_a_module():
    import tropdisk.multiplicity as M
    from tropdisk.multiplicity import multiplicity

    assert isinstance(M, types.ModuleType)
    assert tropdisk.multiplicity is M
    assert multiplicity is M.multiplicity


def _pant_vertex(open_d):
    """A vertex at the origin with a closed leg (1, -3) and an open leg
    open_d, on a Lagrangian edge of slope (1, 2) inside the dp6 hexagon."""
    e_black = Vec(1, -3)
    pant = holomorphic_pant(homogeneous(e_black), (1, 2, 1))
    graph = DiskGraph(
        [DiskVertex("p", homogeneous(Vec(0, 0)), pant),
         DiskVertex("q", homogeneous(e_black), pant),
         DiskVertex("r", homogeneous(open_d), pant)],
        [DiskEdge(("p", "q"), homogeneous(e_black)),
         DiskEdge(("p", "r"), homogeneous(open_d), open=True)],
    )
    lag = segment_graph(Vec(F(-1, 4), F(-1, 2)), Vec(F(1, 4), F(1, 2)))
    return graph, builtin_fixture("dp6").diagram, lag


def test_classify_pant_balancing_on_a_non_axis_slope():
    # 2 w + e + r(e) = 0 with r the reflection fixing (1, 2): w = (1, 2)
    graph, diagram, lag = _pant_vertex(Vec(1, 2))
    assert classify_vertex(graph, "p", diagram, lag) == holomorphic_pant((1, -3, 1), (1, 2, 1))
    for off in (Vec(1, 0), Vec(0, -1), Vec(-1, -2)):
        graph, diagram, lag = _pant_vertex(Vec(1, 2) + off)
        with pytest.raises(UnclassifiableVertex, match="fails pant balancing"):
            classify_vertex(graph, "p", diagram, lag)


# math attributes that compute or name a float
FLOAT_MATH = {
    "sqrt", "cbrt", "exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "pow",
    "pi", "e", "tau", "inf", "nan", "sin", "cos", "tan", "asin", "acos", "atan",
    "atan2", "sinh", "cosh", "tanh", "asinh", "acosh", "atanh", "hypot", "dist",
    "isclose", "fsum", "fabs", "fmod", "degrees", "radians",
}


def test_core_has_no_floats():
    src = pathlib.Path(tropdisk.__file__).parent
    paths = sorted(p for p in src.glob("*.py") if p.name != "render.py")
    assert len(paths) > 10
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{where} literal {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append(f"{where} float(...)")
            elif (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
                  and isinstance(node.value, ast.Name) and node.value.id == "math"):
                found.append(f"{where} math.{node.attr}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "math"
                  and any(alias.name in FLOAT_MATH for alias in node.names)):
                found.append(f"{where} from math import")
    assert found == []


def test_core_reads_no_environment():
    # a run depends on its command line and files alone: no environment
    # variable swaps a fixture or a setting without notice
    src = pathlib.Path(tropdisk.__file__).parent
    paths = sorted(src.glob("*.py"))
    assert len(paths) > 10
    reads = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if (isinstance(node, ast.Attribute) and node.attr in reads
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{where} os.{node.attr}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "os"
                  and any(alias.name in reads for alias in node.names)):
                found.append(f"{where} from os import")
    assert found == []


def test_only_geometry_reads_json():
    # each JSON shape has one reader, in geometry.py: no other module parses
    # JSON text itself
    src = pathlib.Path(tropdisk.__file__).parent
    paths = sorted(p for p in src.glob("*.py") if p.name != "geometry.py")
    assert len(paths) > 10
    reads = {"load", "loads"}
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if (isinstance(node, ast.Attribute) and node.attr in reads
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                found.append(f"{where} json.{node.attr}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "json"
                  and any(alias.name in reads for alias in node.names)):
                found.append(f"{where} from json import")
    assert found == []


def test_only_the_diagram_reads_shear_covectors():
    # a direction crosses a branch cut through `BaseDiagram.cross_cut` alone:
    # no other module reads a focus's sigma
    src = pathlib.Path(tropdisk.__file__).parent
    paths = sorted(p for p in src.glob("*.py") if p.name != "diagram.py")
    assert len(paths) > 10
    found = [f"{path.name}:{node.lineno}"
             for path in paths for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "sigma"]
    assert found == []


def test_only_the_diagram_and_the_tracer_read_shear_pairs():
    # a leg ends at a focus by `BaseDiagram.along_shear` alone: besides the
    # diagram, only the tracer reads `shears()`, for its split points and
    # leg tables
    src = pathlib.Path(tropdisk.__file__).parent
    paths = sorted(p for p in src.glob("*.py") if p.name not in ("diagram.py", "enumerate.py"))
    assert len(paths) > 9
    found = [f"{path.name}:{node.lineno}"
             for path in paths for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "shears"]
    assert found == []


def test_only_their_modules_call_the_diagram_and_lagrangian_private_methods():
    # every other module asks `BaseDiagram` and `LagGraph` through their
    # public methods, one per question
    src = pathlib.Path(tropdisk.__file__).parent
    private = set()
    for module, cls in (("diagram.py", "BaseDiagram"), ("lagrangian.py", "LagGraph")):
        tree = ast.parse((src / module).read_text(), module)
        (body,) = [node.body for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == cls]
        private |= {node.name for node in body if isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_") and not node.name.endswith("__")}
    assert private
    paths = sorted(p for p in src.glob("*.py") if p.name not in ("diagram.py", "lagrangian.py"))
    assert len(paths) > 9
    found = [f"{path.name}:{node.lineno} {node.attr}"
             for path in paths for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr in private]
    assert found == []


@pytest.mark.parametrize("name,case", SHIPPED_CASES)
def test_enumerate_disks_leaves_its_inputs_as_they_were(name, case):
    # a search's tables (per origin, per direction, per ray) live for one
    # call: kept on the diagram or the Lagrangian, they would turn a repeated
    # search into cache hits.  The first call may fill the diagram's lazy
    # geometry (normals, shear pairs), which `validate()` must be able to
    # refuse, but adds no attribute; it leaves the Lagrangian, whose integer
    # picture is built with it, as it was.  A second call changes nothing.
    fx = builtin_fixture(name)
    lag = fx.lagrangian_for(case)
    objects = [o for o in (fx.diagram_for(case), lag) if o is not None]
    keys = [set(vars(o)) for o in objects]
    lag_before = copy.deepcopy(vars(lag)) if lag is not None else None
    fx.run(case)
    assert [set(vars(o)) for o in objects] == keys
    assert (vars(lag) if lag is not None else None) == lag_before
    before = [copy.deepcopy(vars(o)) for o in objects]
    fx.run(case)
    assert [vars(o) for o in objects] == before


def test_the_benchmark_counters_see_the_constructors_they_hook():
    # perfbench/tracing.py counts Vec and Fraction constructions through
    # `Vec.__init__` and `Fraction.__new__`, and candidate graphs through
    # `DiskGraph.__post_init__`, each read from its class dict: a refactor
    # that moves one of them would leave `--trace 1` reading zeros
    assert "__init__" in vars(Vec) and "__post_init__" in vars(DiskGraph)
    tracing = runpy.run_path(str(pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"))
    tracer = tracing["Tracer"]()
    tracer.install()
    try:
        fx = builtin_fixture("dp6")
        Constraint.on_lagrangian(fx.lagrangian_for("segment"), 0, F(1, 3))
        fx.run("segment")
    finally:
        tracer.remove()
    counts = tracer.counts
    assert counts["geometry.vec_new"] > 0 and counts["geometry.fraction_new"] > 0
    assert counts["enumerate.candidates"] > 0
    # removed: the classes hold their own methods again
    assert vars(Vec)["__init__"].__qualname__ == "Vec.__init__"
    assert vars(DiskGraph)["__post_init__"].__qualname__ == "DiskGraph.__post_init__"


def test_enumerate_rebinds_one_module_name():
    # a search keeps one thing for the next, the last tracer: no function in
    # enumerate.py rebinds any other module-level name or reaches the
    # module's namespace through `globals()`, and the module binds each of
    # its names once
    path = pathlib.Path(tropdisk.__file__).parent / "enumerate.py"
    tree = ast.parse(path.read_text(), str(path))
    rebound = {name for node in ast.walk(tree) if isinstance(node, ast.Global)
               for name in node.names}
    assert rebound == {"_last_tracer"}
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "globals"]
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, ast.Assign):
            bound += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            bound.append(node.target.id)
    assert "_last_tracer" in bound
    assert sorted(bound) == sorted(set(bound))
