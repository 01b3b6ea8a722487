"""Each demo script runs to completion with nothing on stderr.

Each runs from its own copy of ``demos/``, so a run leaves the checkout as
it was; the figures demo 04 draws must equal the committed ``demos/output/``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
FIGURES = sorted((ROOT / "demos" / "output").glob("*.svg"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    demos = tmp_path / "demos"
    shutil.copytree(ROOT / "demos", demos, ignore=shutil.ignore_patterns("output"))
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, str(demos / demo.name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    if demo.stem == "04_reports_and_figures":
        drawn = sorted((demos / "output").iterdir())
        assert [path.name for path in drawn] == [path.name for path in FIGURES]
        for path, committed in zip(drawn, FIGURES):
            assert path.read_bytes() == committed.read_bytes(), path.name
