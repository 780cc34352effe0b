"""The experiment scripts, loaded from their paths and run in process."""

import json
import pathlib
import runpy

import pytest

from tropdisk.fixtures import SHIPPED_CASES

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    return runpy.run_path(str(SCRIPTS / name))


def test_run_potentials_matches_every_shipped_case(capsys):
    assert load_script("run_potentials.py")["main"](["--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["fixture"] for row in rows] == [f"{n}:{c}" for n, c in SHIPPED_CASES]
    for row in rows:
        assert row["verdict"].startswith("matches"), row


def test_render_figures_writes_one_svg_per_shipped_case(tmp_path, capsys):
    assert load_script("render_figures.py")["main"]([str(tmp_path)]) == 0
    written = sorted(path.name for path in tmp_path.glob("*.svg"))
    assert written == sorted(f"{n}_{c}.svg" for n, c in SHIPPED_CASES)
    for name in written:
        assert (tmp_path / name).read_text().startswith("<svg")


def _canned_run(wall_s, digest="sha256:de21d787aa", failed=0):
    """The stdout of one perfbench run, trimmed to the lines the summary reads."""
    metrics = {"wall_s": {"value": wall_s, "unit": "s"},
               "peak_rss_mb": {"value": 24.0, "unit": "MB"}}
    return "\n".join([
        "workload grid  seed 0 (not used)",
        f"digest  {digest}  (3 timed passes compared)",
        f"wall_s         {wall_s:.6f} s",
        json.dumps({"correct": failed == 0, "attempted": 12, "failed": failed,
                    "metrics": metrics}),
    ])


def test_bench_pairs_summary_of_canned_runs():
    bench = load_script("bench_pairs.py")
    parse = bench["parse_run"]
    parent = [0.30 + 0.01 * k for k in range(10)]
    change = [0.20 + 0.01 * k for k in range(10)]
    pairs = [(k, parse(_canned_run(p)), parse(_canned_run(c)))
             for k, (p, c) in enumerate(zip(parent, change))]
    summary = bench["summarise_workload"](pairs)
    wall = summary["metrics"]["wall_s"]
    assert wall["unit"] == "s"
    assert wall["parent"]["median"] == pytest.approx(0.345)
    assert wall["parent"]["q1"] == pytest.approx(0.3225)
    assert wall["parent"]["q3"] == pytest.approx(0.3675)
    assert wall["parent_iqr"] == pytest.approx(0.045)
    assert wall["change_over_parent"] == pytest.approx(0.245 / 0.345)
    assert wall["change_lower_in_pairs"] == "10/10"
    assert summary["metrics"]["peak_rss_mb"]["change_lower_in_pairs"] == "0/10"
    assert summary["pairs"] == 10 and summary["seeds"] == list(range(10))
    assert summary["correct"] and summary["failed"] == {"parent": 0, "change": 0}
    assert summary["attempted"] == {"parent": 120, "change": 120}
    assert summary["digests"] == {"equal_on_every_pair": True, "seed0": "sha256:de21d787aa",
                                  "distinct_prefixes": ["sha256:de21d787"]}
    assert bench["claim_met"](wall)


def test_bench_pairs_claim_needs_nine_pairs_and_a_gap_beyond_the_iqr():
    bench = load_script("bench_pairs.py")
    parse = bench["parse_run"]

    def wall_summary(parent, change, digests=None):
        digests = digests or ["sha256:de21d787aa"] * len(parent)
        pairs = [(k, parse(_canned_run(p)), parse(_canned_run(c, digest)))
                 for k, (p, c, digest) in enumerate(zip(parent, change, digests))]
        return bench["summarise_workload"](pairs)

    parent = [0.30 + 0.01 * k for k in range(10)]
    # lower in 8 of 10 pairs: not met, however large the gap
    eight = [0.20] * 8 + [0.50, 0.50]
    assert not bench["claim_met"](wall_summary(parent, eight)["metrics"]["wall_s"])
    # lower in every pair but by less than the parent's IQR: not met
    close = [p - 0.01 for p in parent]
    assert not bench["claim_met"](wall_summary(parent, close)["metrics"]["wall_s"])
    # another digest on one pair is reported
    other = ["sha256:de21d787aa"] * 9 + ["sha256:0badc0deff"]
    digests = wall_summary(parent, close, other)["digests"]
    assert digests["equal_on_every_pair"] is False
    assert digests["distinct_prefixes"] == ["sha256:0badc0de", "sha256:de21d787"]
