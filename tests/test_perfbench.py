"""The benchmark's traced pass, with its tracer self-test, runs clean.

A change that moves ``Rng.permutation`` out from under ``forecasters.fit``,
or drops a module binding the tracer wraps, fails the benchmark's
``--trace 1`` self-test. This runs that pass on a panel small enough for
tier-1.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_SGD = {"lags": 7, "epochs": 3, "learning_rate": 0.05, "batch_size": 32}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import bench
    import workloads

    return bench, workloads


def test_traced_pass_on_a_small_workload_has_no_failed_checks(perfbench, tmp_path):
    bench, workloads = perfbench
    # Plain deterministic entries and an SGD-only ensemble. On a panel this
    # small, an ensemble with deterministic components can pick only those
    # on some runs, whose forecasts then repeat, and the benchmark's "seed
    # reaches the model" check fails although the program is right.
    workload = workloads.Workload(
        name="tiny",
        why="tracer self-test in tier-1",
        n_series=6,
        length=90,
        train_length=76,
        horizon=7,
        models=(
            {"label": "global_mean", "kind": {"kind": "global_mean", "params": {}}},
            {"label": "seasonal_naive", "kind": {"kind": "seasonal_naive", "params": {"period": 7}}},
            {
                "label": "ensemble",
                "ensemble": {
                    "components": [
                        {"kind": "linear_ar", "params": _SGD},
                        {"kind": "tiny_mlp", "params": {**_SGD, "hidden_dim": 8}},
                    ],
                    "n_windows": 2,
                },
            },
        ),
    )
    run = bench.Bench(workload, 11, tmp_path / "work", ROOT / "src")
    record = run.traced(0.5)
    assert record is not None, run.checks.failures
    assert run.checks.failures == []
    assert run.checks.attempted >= 20
    assert record["metrics"]["seeding.permutation.calls"] > 0


def test_setup_probe_loads_neither_the_csv_nor_the_report_module(perfbench, tmp_path):
    # The benchmark's setup_s probe imports the package and parses a config;
    # neither needs the CSV or report code, whose compiling it would time.
    bench, workloads = perfbench
    probe = bench.SETUP_CODE + "import sys\nprint(sorted(sys.modules))\n"
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    for workload in workloads.WORKLOADS.values():
        work = tmp_path / workload.name
        workload.write_inputs(11, work)
        done = subprocess.run(
            [sys.executable, "-c", probe], cwd=work, env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        loaded = set(ast.literal_eval(done.stdout.splitlines()[-1]))
        assert "forecast_stability.harness" in loaded
        assert not loaded & {"forecast_stability.tabular", "forecast_stability.report"}
