"""The experiment scripts, loaded from their paths and run in process."""

import json
import pathlib
import runpy

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
