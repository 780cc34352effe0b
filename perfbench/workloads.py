"""The benchmark's four workloads: inputs, operations and output checks.

All four run in one process with one thread, as a closed loop with a single
caller: each operation starts when the previous one has returned.  The
machine the benchmark was sized on has two cores shared with other jobs, so
nothing here runs in parallel.

Each workload's ``setup(seed)`` builds and validates the fixtures it uses,
generates its inputs and returns a ``Workload``.  An ``Op`` has a ``run``
callable, which is the timed part, and a ``check`` callable, applied to
``run``'s result after the pass, which returns ``(failed, record)``.  The
records of one pass form the output digest: exact totals as ``[num, den]``
pairs and sorted graph signatures, so two commits can be compared
bit for bit.

Every call into ``tropdisk`` goes through a module attribute looked up at
call time (``E.enumerate_disks``), so that the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, List

# import_module, because the package rebinds ``tropdisk.multiplicity`` to the
# function of that name
C = importlib.import_module("tropdisk.classify")
CLI = importlib.import_module("tropdisk.cli")
D = importlib.import_module("tropdisk.diskgraph")
E = importlib.import_module("tropdisk.enumerate")
FX = importlib.import_module("tropdisk.fixtures")
M = importlib.import_module("tropdisk.multiplicity")

# The cases of scripts/run_potentials.py: what `tropdisk potential` users run.
# A copy, so that the benchmark's inputs stay put when that script changes.
FIXTURE_CASES = [
    ("p1xp1", "antidiagonal"), ("p1xp1", "fiber"),
    ("dp7", "leg"), ("dp7", "diag"),
    ("dp6", "segment"), ("dp6", "trivalent"), ("dp6", "fiber"),
    ("dp5", "segment"), ("dp4", "sphere"), ("dp3", "trivalent"),
    ("dp2", "l1"), ("dp2", "l2"), ("dp1", "vertical"),
]

GRID_CASES = [("dp1", "vertical"), ("dp2", "l2"), ("dp3", "trivalent")]
GRID_LENGTHS = (3, 4)   # max_lattice_length; L = 5 takes 17-19 s a cell
GRID_SPLITS = (1, 2)    # max_splits

# Sweep positions are t = k/64 on each Lagrangian edge, evenly spaced: the
# seed draws one offset per edge and the positions follow it in steps of
# SWEEP_STEP.  Even spacing keeps the cost of a pass close to the same for
# every seed, although the search cost changes by up to 8x along a dp3 edge.
SWEEP_DENOMINATOR = 64
SWEEP_STEP = 8

# Vertex kinds that classify_vertex does not re-derive, and graphs it does
# not apply to; the same exclusions as tests/test_enumerate.py.
UNCLASSIFIED_KINDS = (M.FIBER_ROOT, M.CORNER_CAP, M.FOCUS_COVER_PAIR)


@dataclass
class Op:
    label: str
    case: str   # the fixture case whose objects the operation uses
    run: Callable[[], Any]
    check: Callable[[Any], tuple]


@dataclass
class Workload:
    ops: List[Op]

    def fingerprint(self) -> str:
        """Hash of the operation labels, which name every input."""
        return digest([op.label for op in self.ops])

    def warm_up_ops(self) -> List[Op]:
        """The first operation on each fixture case.

        One call per case fills what lives on the case's objects (a
        diagram's facets and branch cuts) and lets the interpreter
        specialise the code; a whole pass of ``grid`` or ``sweep`` would
        cost another 10-13 s a run.
        """
        first = {}
        for op in self.ops:
            first.setdefault(op.case, op)
        return list(first.values())


def digest(obj) -> str:
    """SHA-256 of the canonical JSON form of obj."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def evaluate(ops, results):
    """Check one pass's results; returns (failed operations, digest)."""
    failed, records = 0, []
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            failed += 1
            records.append([op.label, "raised", f"{type(result).__name__}: {result}"])
            print(f"failed: {op.label} raised {result!r}", file=sys.stderr)
            continue
        op_failed, record = op.check(result)
        if op_failed:
            failed += 1
            print(f"failed: {op.label}", file=sys.stderr)
        records.append(record)
    return failed, digest(records)


def _rat(value: Fraction):
    return [value.numerator, value.denominator]


def _signatures(result) -> List[str]:
    return sorted(repr(g.graph.signature()) for g in result.graphs)


def _load_case(name, case):
    """Build and validate one fixture case; returns (fixture, diagram, lag)."""
    fixture = FX.builtin_fixture(name)   # validates the diagram
    diagram = fixture.diagram_for(case)
    lag = fixture.lagrangian_for(case)
    if lag is not None:
        problems = lag.is_allowable(diagram)
        if problems:
            raise RuntimeError(f"{name}:{case} Lagrangian not allowable: {problems}")
    return fixture, diagram, lag


def _enumeration_op(label, case, diagram, lag, constraint, bounds, flags) -> Op:
    def run():
        return E.enumerate_disks(diagram, lag, constraint, bounds, flags=flags)

    def check(result):
        return False, [label, _rat(result.total()), _signatures(result)]

    return Op(label, case, run, check)


# -- fixtures -------------------------------------------------------------------


def _cli_op(label, argv, needs_match) -> Op:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = CLI.main(list(argv))
        return code, out.getvalue()

    def check(result):
        code, text = result
        if code != 0:
            return True, [label, "exit", code]
        report = json.loads(text)
        if not needs_match:
            return False, [label, report]
        failed = not report["verdict"].startswith("matches")
        graphs = sorted(json.dumps(g, sort_keys=True) for g in report["graphs"])
        return failed, [label, report["total"], report["verdict"], graphs]

    return Op(label, label, run, check)


def setup_fixtures(seed) -> Workload:
    """Every shipped case through the CLI in process, then `tropdisk table`.

    Loads the cli and fixtures layers: each call rebuilds and re-validates its
    fixture and builds the JSON report.  The seed is not used: the shipped
    cases are the fixed inputs that users run.
    """
    ops = []
    for name, case in FIXTURE_CASES:
        _load_case(name, case)
        argv = ["potential", "--fixture", name, "--case", case, "--json"]
        ops.append(_cli_op(f"{name}:{case}", argv, needs_match=True))
    ops.append(_cli_op("table", ["table", "--json"], needs_match=False))
    return Workload(ops)


# -- grid -----------------------------------------------------------------------


def setup_grid(seed) -> Workload:
    """Long searches over the bound grid L x S on dp1, dp2 l2 and dp3.

    Loads the exact kernel, the branch-cut data and the split recursion;
    bypasses the CLI, fixture rebuilding and re-validation.  The seed is not
    used, so the grid stays comparable with the baseline that ROADMAP item 3
    records for the same cells.
    """
    ops = []
    for name, case in GRID_CASES:
        fixture, diagram, lag = _load_case(name, case)
        spec = fixture.case(case)
        constraint = fixture.constraint(case)
        for length in GRID_LENGTHS:
            for splits in GRID_SPLITS:
                bounds = E.SearchBounds(spec.bounds.max_vertices, length,
                                        spec.bounds.max_cut_crossings, splits)
                ops.append(_enumeration_op(f"{name}:{case}@L{length}S{splits}",
                                           f"{name}:{case}", diagram, lag,
                                           constraint, bounds, spec.flags))
    return Workload(ops)


# -- sweep ----------------------------------------------------------------------


def _lagrangian_cases():
    """{(name, case): (fixture, diagram, lag)} for every shipped case with a Lagrangian."""
    loaded = {}
    for name in FX.FIXTURE_NAMES:
        for case, spec in FX.builtin_fixture(name).cases.items():
            if spec.lagrangian is not None:
                loaded[(name, case)] = _load_case(name, case)
    return loaded


def _draw_positions(seed, loaded):
    """(name, case, edge, k) with t = k/64, every SWEEP_STEP-th k on each edge."""
    rng = random.Random(seed)
    out = []
    for (name, case), (_, _, lag) in loaded.items():
        for edge in range(len(lag.edges)):
            offset = rng.randint(1, SWEEP_STEP - 1)
            out.extend((name, case, edge, k)
                       for k in range(offset, SWEEP_DENOMINATOR, SWEEP_STEP))
    return out


def sweep_positions(seed):
    """The constraint positions that ``sweep`` and ``revalidate`` use for a seed."""
    return _draw_positions(seed, _lagrangian_cases())


def _sweep_runs(seed):
    """(label, case, diagram, lag, constraint, case spec) at every drawn position."""
    loaded = _lagrangian_cases()
    runs = []
    for name, case, edge, k in _draw_positions(seed, loaded):
        fixture, diagram, lag = loaded[(name, case)]
        constraint = D.Constraint.on_lagrangian(lag, edge, Fraction(k, SWEEP_DENOMINATOR))
        runs.append((f"{name}:{case}#{edge}@{k}/{SWEEP_DENOMINATOR}", f"{name}:{case}",
                     diagram, lag, constraint, fixture.case(case)))
    return runs


def setup_sweep(seed) -> Workload:
    """Short enumerations at seeded constraint positions on every Lagrangian edge.

    The position-invariance check of ROADMAP item 1.  Each case keeps its own
    bounds and flags and one diagram object for all its positions, so caches
    that live on a diagram across calls show here (``fixtures`` rebuilds its
    objects on every call).
    """
    ops = [_enumeration_op(label, case, diagram, lag, constraint, spec.bounds, spec.flags)
           for label, case, diagram, lag, constraint, spec in _sweep_runs(seed)]
    return Workload(ops)


# -- revalidate -----------------------------------------------------------------


def _revalidate_op(label, case, graph, diagram, lag, constraint) -> Op:
    classified = [] if graph.corner_mode else [
        v for v in graph.vertices if v.kind.tag not in UNCLASSIFIED_KINDS]

    def run():
        rigidity = E.rigidity_dimension(graph, diagram, lag, constraint)
        contribution = M.graph_contribution(graph)
        index = M.graph_index_diagnostic(graph)
        signature = graph.signature()
        kinds = [C.classify_vertex(graph, v.id, diagram, lag) for v in classified]
        return rigidity, contribution, index, signature, kinds

    def check(result):
        rigidity, contribution, index, signature, kinds = result
        failed = rigidity != 0 or index != 2
        for v, kind in zip(classified, kinds):
            if kind.tag != v.kind.tag or (kind.tag == M.FOCUS_COVER and (
                    kind.ell != v.kind.ell or kind.weight != v.kind.weight)):
                failed = True
        return failed, [label, rigidity, _rat(contribution), index,
                        repr(signature), [kind.tag for kind in kinds]]

    return Op(label, case, run, check)


def setup_revalidate(seed) -> Workload:
    """Re-validate solved graphs one by one, as tests/test_enumerate.py does.

    Loads the rigidity solve, the weights and the re-derivation of vertex
    kinds, which do at most 3% of the work in the other workloads; the
    exact kernel does little here.  Set-up solves the graphs at the fixture
    positions and at the sweep positions the seed draws.
    """
    runs = []
    for name, case in FIXTURE_CASES:
        fixture, diagram, lag = _load_case(name, case)
        spec = fixture.case(case)
        runs.append((f"{name}:{case}", f"{name}:{case}", diagram, lag,
                     fixture.constraint(case), spec))
    runs += _sweep_runs(seed)
    ops = []
    for label, case, diagram, lag, constraint, spec in runs:
        result = E.enumerate_disks(diagram, lag, constraint, spec.bounds, flags=spec.flags)
        for i, g in enumerate(result.graphs):
            ops.append(_revalidate_op(f"{label}/g{i}", case, g.graph, diagram, lag,
                                      constraint))
    return Workload(ops)


SETUPS = {
    "fixtures": setup_fixtures,
    "grid": setup_grid,
    "sweep": setup_sweep,
    "revalidate": setup_revalidate,
}

# workloads whose inputs depend on the seed
SEEDED = ("sweep", "revalidate")
