#!/usr/bin/env python3
"""Op-by-op paired timing of two checkouts in one process.

Usage, from anywhere:

    python3 scripts/paired_ops.py --parent ../parent --change . --workload revalidate

`--parent` and `--change` are two checkouts of the repository.  Each one's
`src/tropdisk` is loaded under a package name of its own (`tropdisk_parent`,
`tropdisk_change`), and the workload of `perfbench/workloads.py`, read from
the checkout that holds this script, is set up at seed 0 once per side,
bound to that side's modules.  One untimed pass per side checks the
outputs: when the two digests differ the script prints both and exits 1
before timing anything.  Then each of 15 rounds runs each operation once
per side under `time.process_time`, the two sides alternating op by op
(which side goes first flips from one operation to the next and from one
round to the next), and the script prints the median and the quartiles
over the rounds of the change's summed time over the parent's.  It also
prints the median and the quartiles over the rounds of the change's
`op_p50` and `op_p90` over the parent's, each side's read in each round as
perfbench/run.py reads them (`statistics.median` and
`statistics.quantiles(n=10)[8]`) over that round's operation times, so
that it shows which percentile a change moves before a claim names one: a
summed gain can leave the median operation where it was, and on a
workload of few operations the quartiles show how much one operation's
noise moves a percentile.  A last line names, for each side, the operation
whose median time over the rounds is nearest the `op_p50` of those
medians and the one nearest their `op_p90`, so that a claim can name the
operation that moves.  Timing in
one process cancels most of the drift of a shared machine that separate
runs of `perfbench/run.py` see, but `scripts/bench_pairs.py` is the
harness of record: a gain is claimed from a `BENCH_*.json`, not from this
script.  `--parent` and `--change` may name one checkout: the ratio then
reads the harness's own bias (a median of 1.004 on `revalidate` and 1.002
on `sweep` for a16cd39 against itself).
"""

from __future__ import annotations

import argparse
import importlib.util
import runpy
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"
SIDES = ("parent", "change")
SEED = 0
ROUNDS = 15


def load_tree(checkout: Path, alias: str):
    """The package under `checkout/src/tropdisk`, imported as `alias`."""
    init = checkout / "src" / "tropdisk" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no tropdisk sources under {checkout / 'src'}")
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return package


def bound_workloads(alias: str) -> dict:
    """The namespace of perfbench/workloads.py with `tropdisk` standing for
    the package loaded as `alias`; sys.modules is restored afterwards."""
    names = [n for n in sys.modules if n == alias or n.startswith(alias + ".")]
    saved = {n: m for n, m in sys.modules.items() if n == "tropdisk" or n.startswith("tropdisk.")}
    for n in saved:
        del sys.modules[n]
    sys.modules.update({"tropdisk" + n[len(alias):]: sys.modules[n] for n in names})
    try:
        return runpy.run_path(str(WORKLOADS_PY))
    finally:
        for n in names:
            sys.modules.pop("tropdisk" + n[len(alias):], None)
        sys.modules.update(saved)


def run_pass(ops) -> list:
    """Each operation's result, or the exception it raised."""
    results = []
    for op in ops:
        try:
            results.append(op.run())
        except Exception as exc:  # a raising operation counts as failed
            results.append(exc)
    return results


def timed_rounds(ops_of: dict) -> dict:
    """Each side's process times, per operation, then per round."""
    n = len(ops_of["parent"])
    times = {side: [[] for _ in range(n)] for side in SIDES}
    for r in range(ROUNDS):
        for i in range(n):
            for side in (SIDES if (i + r) % 2 == 0 else SIDES[::-1]):
                start = time.process_time()
                try:
                    ops_of[side][i].run()
                except Exception:  # the checked pass counted it already
                    pass
                times[side][i].append(time.process_time() - start)
    return times


def percentiles(times: list) -> tuple:
    """(op_p50, op_p90) of one time per operation, by perfbench/run.py's
    definitions."""
    p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
    return statistics.median(times), p90


def nearest(op_times: list) -> list:
    """The indices of the operations whose median times are nearest the
    `op_p50` and the `op_p90` of those medians."""
    medians = [statistics.median(t) for t in op_times]
    return [min(range(len(medians)), key=lambda i: abs(medians[i] - p))
            for p in percentiles(medians)]


def spread(ratios: list) -> str:
    """The median and the quartiles of ratios."""
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return f"median {median:.3f}, quartiles {q1:.3f}-{q3:.3f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", default=ROOT, type=Path)
    parser.add_argument("--workload", required=True,
                        choices=("fixtures", "grid", "sweep", "revalidate"))
    args = parser.parse_args(argv)

    ops_of, digests = {}, {}
    for side in SIDES:
        alias = f"tropdisk_{side}"
        load_tree(getattr(args, side).resolve(), alias)
        workloads = bound_workloads(alias)
        ops = workloads["SETUPS"][args.workload](SEED).ops
        _, digests[side] = workloads["evaluate"](ops, run_pass(ops))
        ops_of[side] = ops
    if digests["parent"] != digests["change"]:
        print(f"error: the outputs differ: parent sha256:{digests['parent']}, "
              f"change sha256:{digests['change']}", file=sys.stderr)
        return 1

    times = timed_rounds(ops_of)
    rounds = list(zip(zip(*times["change"]), zip(*times["parent"])))
    summed = [sum(c) / sum(p) for c, p in rounds]
    p50s, p90s = zip(*[[x / y for x, y in zip(percentiles(c), percentiles(p))]
                       for c, p in rounds])
    c_at, p_at = nearest(times["change"]), nearest(times["parent"])
    parent_ops, change_ops = ops_of["parent"], ops_of["change"]
    print(f"{args.workload} seed {SEED}: {len(ops_of['change'])} operations, "
          f"digest sha256:{digests['change'][:8]}…")
    print(f"change/parent process time over {len(summed)} rounds: {spread(summed)}")
    print(f"change/parent percentiles over the rounds: op_p50 {spread(p50s)}; "
          f"op_p90 {spread(p90s)}")
    print(f"operations nearest op_p50: parent {parent_ops[p_at[0]].label}, "
          f"change {change_ops[c_at[0]].label}; op_p90: parent {parent_ops[p_at[1]].label}, "
          f"change {change_ops[c_at[1]].label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
