"""The behaviour contract as a committed table of sha256 digests.

``contract_digests.json`` maps each benchmark workload and seed to the
sha256 of every file its ``generate -> run -> metrics -> report``
pipeline writes, ``manifest.json`` excepted (it holds a timestamp). The
test rebuilds the table in-process through ``cli_main`` and compares. One
more leg runs ensemble_refit at seed 11 as stage processes with one BLAS
thread, where ``run`` may fit in forked workers, against the same entry.

A change that means to change bytes rewrites the table, so its diff names
every file that changed:

    PYTHONPATH=src python tests/test_contract_table.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("contract_digests.json")
SEEDS = (11, 23, 20261017)
STAGES = (
    ["generate", "--config", "synth.json", "--out", "data.csv"],
    ["run", "--config", "experiment.json", "--out", "runs"],
    ["metrics", "--runs", "runs"],
    ["report", "--runs", "runs", "--format", "all"],
)


def _perfbench():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import checks
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return checks, workloads


def build_table(work: Path) -> dict[str, dict[str, dict[str, str]]]:
    """Every workload at every seed, each pipeline run in this process."""
    from forecast_stability.cli import cli_main

    checks, workloads = _perfbench()
    table: dict[str, dict[str, dict[str, str]]] = {}
    previous = Path.cwd()
    for name, workload in sorted(workloads.WORKLOADS.items()):
        for seed in SEEDS:
            pipeline = work / f"{name}-{seed}"
            workload.write_inputs(seed, pipeline)
            os.chdir(pipeline)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    codes = [cli_main(argv) for argv in STAGES]
            finally:
                os.chdir(previous)
            assert codes == [0] * len(STAGES), f"{name} seed {seed}: exit codes {codes}"
            table.setdefault(name, {})[str(seed)] = checks.contract_digests(
                checks.digests(pipeline)
            )
    return table


def _flat(table: dict) -> dict[str, str]:
    return {
        f"{name} seed {seed}: {path}": digest
        for name, seeds in table.items()
        for seed, files in seeds.items()
        for path, digest in files.items()
    }


def test_contract_digests_match_the_committed_table(tmp_path):
    expected = _flat(json.loads(TABLE.read_text(encoding="utf-8")))
    built = _flat(build_table(tmp_path))
    differ = sorted(k for k in expected.keys() | built.keys() if expected.get(k) != built.get(k))
    assert not differ, differ


def test_stage_processes_with_fit_workers_match_the_table(tmp_path):
    checks, workloads = _perfbench()
    workloads.WORKLOADS["ensemble_refit"].write_inputs(11, tmp_path)
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "OPENBLAS_NUM_THREADS": "1"}
    for argv in STAGES:
        done = subprocess.run(
            [sys.executable, "-m", "forecast_stability.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
    expected = json.loads(TABLE.read_text(encoding="utf-8"))["ensemble_refit"]["11"]
    assert checks.contract_digests(checks.digests(tmp_path)) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        table = build_table(Path(work))
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {TABLE}")
