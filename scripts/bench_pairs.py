#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, summarised as a BENCH_*.json.

Usage, from anywhere:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --pairs 10 --out BENCH_8.json \\
        --label "what the change does" --claim grid:wall_s

`--parent` and `--change` are two checkouts of the repository (for example
the parent commit as a `git worktree` or a clone).  For every workload and
every seed 0..pairs-1 the script runs `perfbench/run.py --seconds 8 --trace 0`
once in each checkout, the parent first on even seeds and the change first on odd
seeds, then one `--trace 1` pass per checkout at seed 0.  Each summary
metric gets its runs per side in seed order, their median and quartiles
(`statistics.quantiles`, inclusive), `change_over_parent` (ratio of the medians),
`change_lower_in_pairs`, `parent_iqr` and `regressed`: whether the change's
median is worse than the parent's by more than the metric's bound in
`BENCHMARK.json` (of the change checkout), and `unresolved`: whether the
parent's own spread, (q3 - q1) / median, is wider than that bound while
some change run is no better than some parent run, so that the medians
cannot tell a change within the bound from noise.  `parent` names the parent
checkout's commit, or a digest of its `src/` files when it is not a git
work tree.  Beside the metrics, each side's `attempted` operations are
kept summed and per run (`attempted_runs`, in seed order): perfbench
keeps every timed pass's intervals, so `peak_rss_mb` grows with the
number of passes a faster side fits into a run.  The report lists every
regressed `W:M` under `regressions` and every unresolved one under
`unresolved`.  A claim `W:M` is met when the
change reads lower in at least nine of ten pairs (the same share of any
other count), its median is below the parent's by more than the parent's
distance between quartiles, the digests agree on every pair of every
workload and no metric regressed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fixtures", "grid", "sweep", "revalidate")
SECONDS = 8        # length of each timed run
TRACED_SECONDS = 1  # length of the traced pass at seed 0
# traced counters copied into "traced_seed0"
TRACED = (
    "geometry.vec_new", "geometry.fraction_new", "geometry.calls", "geometry.self_s",
    "diagram.self_s", "lagrangian.calls", "lagrangian.self_s", "enumerate.self_s",
    "enumerate.rigidity.calls", "enumerate.rigidity.self_s", "enumerate.candidates",
    "enumerate.unique", "enumerate.counted", "classify.calls", "classify.self_s",
    "multiplicity.self_s", "diskgraph.calls", "diskgraph.self_s", "fixtures.calls",
    "fixtures.self_s", "cli.self_s",
)
SIDES = ("parent", "change")


def parse_run(stdout: str) -> dict:
    """The digest line and the closing JSON object of one perfbench run."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((line.split()[1] for line in lines if line.startswith("digest ")), None)
    return {
        "digest": digest,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "units": {name: m["unit"] for name, m in result["metrics"].items()},
    }


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def load_bounds(path: Path) -> dict:
    """{metric: (better, bound)} for the end-to-end metrics of a BENCHMARK.json."""
    spec = json.loads(path.read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def regressed(parent_median: float, change_median: float, better: str, bound: float) -> bool:
    """The change's median worse than the parent's by more than the bound."""
    if better == "lower":
        return change_median > parent_median * (1 + bound)
    return change_median < parent_median * (1 - bound)


def too_noisy(entry: dict, better: str, bound: float) -> bool:
    """The parent's (q3 - q1) / median wider than the bound, unless every
    change run is better than every parent run."""
    parent, change = entry["parent"]["runs"], entry["change"]["runs"]
    if better == "lower":
        apart = max(change) < min(parent)
    else:
        apart = min(change) > max(parent)
    return entry["parent_iqr"] > bound * entry["parent"]["median"] and not apart


def summarise_workload(pairs, traced=None, bounds=None) -> dict:
    """Summary of one workload: `pairs` lists (seed, parent run, change run)
    with runs as `parse_run` returns them; `traced` maps each side to its
    traced run at seed 0, or is None; `bounds` is `load_bounds`'s map, and a
    metric without a bound never counts as regressed or unresolved."""
    seeds = [seed for seed, *_ in pairs]
    runs = {"parent": [p[1] for p in pairs], "change": [p[2] for p in pairs]}
    metrics = {}
    for name, unit in runs["parent"][0]["units"].items():
        values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        entry = {"unit": unit}
        for side in SIDES:
            q1, median, q3 = _quartiles(values[side])
            entry[side] = {"median": median, "q1": q1, "q3": q3, "runs": values[side]}
        lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
        entry["change_over_parent"] = entry["change"]["median"] / entry["parent"]["median"]
        entry["change_lower_in_pairs"] = f"{lower}/{len(pairs)}"
        entry["parent_iqr"] = entry["parent"]["q3"] - entry["parent"]["q1"]
        bound = (bounds or {}).get(name)
        entry["regressed"] = bound is not None and regressed(
            entry["parent"]["median"], entry["change"]["median"], *bound)
        entry["unresolved"] = bound is not None and too_noisy(entry, *bound)
        metrics[name] = entry
    digests = [r["digest"] for side in SIDES for r in runs[side]]
    out = {
        "pairs": len(pairs),
        "seeds": seeds,
        "order": "parent first on even seeds, change first on odd seeds",
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "attempted_runs": {side: [r["attempted"] for r in runs[side]] for side in SIDES},
    }
    if traced is not None:
        out["traced_seed0"] = {
            name: {side: traced[side]["metrics"].get(name) for side in SIDES}
            for name in TRACED
        }
    out["metrics"] = metrics
    out["digests"] = {
        "equal_on_every_pair": all(p[1]["digest"] == p[2]["digest"] for p in pairs),
        "seed0": next(p[1]["digest"] for p in pairs if p[0] == seeds[0]),
        "distinct_prefixes": sorted({d[:15] for d in digests if d}),
    }
    return out


def claim_met(entry: dict) -> bool:
    """The change lower in >= 9/10 of the pairs, and its median below the
    parent's by more than the parent's distance between quartiles."""
    lower, n = map(int, entry["change_lower_in_pairs"].split("/"))
    gap = entry["parent"]["median"] - entry["change"]["median"]
    return 10 * lower >= 9 * n and gap > entry["parent_iqr"]


def regressions(workloads: dict) -> list:
    """Every `W:M` whose metric regressed, in report order."""
    return [f"{workload}:{name}" for workload, summary in workloads.items()
            for name, entry in summary["metrics"].items() if entry["regressed"]]


def unresolved(workloads: dict) -> list:
    """Every `W:M` whose metric is unresolved, in report order."""
    return [f"{workload}:{name}" for workload, summary in workloads.items()
            for name, entry in summary["metrics"].items() if entry["unresolved"]]


def claim_report(workloads: dict, claim: str) -> dict:
    """The claim `W:M` and whether it is met: `claim_met` on its metric, the
    digests equal on every pair of every workload and no metric regressed."""
    workload, metric = claim.split(":")
    digests_equal = all(s["digests"]["equal_on_every_pair"] for s in workloads.values())
    met = (claim_met(workloads[workload]["metrics"][metric]) and digests_equal
           and not regressions(workloads))
    return {"workload": workload, "metric": metric, "met": met}


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        raise SystemExit(f"{' '.join(argv)} in {checkout} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return parse_run(done.stdout)


def src_digest(checkout: Path) -> str:
    """sha256 over the checkout's src/ files in path order, each as its path
    relative to src/ and its bytes; compiled caches are left out."""
    src = checkout / "src"
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        for part in (path.relative_to(src).as_posix().encode(), path.read_bytes()):
            digest.update(len(part).to_bytes(8, "big") + part)
    return digest.hexdigest()


def _commit(checkout: Path) -> str:
    """The short commit of a checkout at the top of a git work tree; else
    `src-sha256:` and the first 12 hex digits of `src_digest`, so that a
    checkout made with `git archive` still names what it ran."""
    done = subprocess.run(["git", "rev-parse", "--show-toplevel", "--short", "HEAD"],
                          cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.split()
    at_top = len(lines) == 2 and Path(lines[0]).resolve() == checkout.resolve()
    if done.returncode == 0 and at_top:
        return lines[1]
    return f"src-sha256:{src_digest(checkout)[:12]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--label", default="", help="one line: what the change does")
    parser.add_argument("--claim", help="W:M, the workload and metric claimed to improve")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bounds = load_bounds(checkouts["change"] / "BENCHMARK.json")

    workloads = {}
    for workload in WORKLOADS:
        pairs = []
        for seed in range(args.pairs):
            order = SIDES if seed % 2 == 0 else SIDES[::-1]
            runs = {side: run_once(checkouts[side], workload, seed, SECONDS, 0)
                    for side in order}
            pairs.append((seed, runs["parent"], runs["change"]))
            print(f"{workload} seed {seed}: wall_s parent "
                  f"{runs['parent']['metrics']['wall_s']:.4f} change "
                  f"{runs['change']['metrics']['wall_s']:.4f}", file=sys.stderr)
        traced = {side: run_once(checkouts[side], workload, 0, TRACED_SECONDS, 1) for side in SIDES}
        workloads[workload] = summarise_workload(pairs, traced, bounds)

    report = {
        "change": args.label,
        "parent": _commit(checkouts["parent"]),
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {SECONDS} "
                   f"--trace 0 (timed); --seed 0 --seconds {TRACED_SECONDS} --trace 1 (traced)",
        "machine": f"{os.cpu_count()} CPUs, Python {platform.python_version()}; times scaled "
                   "by perfbench/reference.py, traced self times unscaled",
        "method": f"{args.pairs} pairs per workload (seeds 0-{args.pairs - 1}), parent and "
                  "change alternating which runs first; median and quartiles "
                  "(statistics.quantiles, inclusive) of the runs per side; "
                  "change_lower_in_pairs counts pairs where the change reads lower",
    }
    if args.claim:
        report["claim"] = claim_report(workloads, args.claim)
    report["regressions"] = regressions(workloads)
    report["unresolved"] = unresolved(workloads)
    report["workloads"] = workloads
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
