"""Seeded fits in CPU-pinned forked workers give the in-process bits and errors.

``forecasters._fit_jobs`` forks only from a process with one thread, so
each test runs in a child interpreter with one BLAS thread. The same
child restricted to one CPU takes the in-process path, which is the
reference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="fit workers need at least 2 CPUs",
)

# Runs the CLI with ``sys.argv[2:]``, on one CPU when ``sys.argv[1]`` is
# "one", and prints how many children it forked as the last stdout line.
CLI = """\
import os, sys
forks = 0
real_fork = os.fork
def fork():
    global forks
    pid = real_fork()
    forks += pid > 0
    return pid
os.fork = fork
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from forecast_stability.cli import cli_main
code = cli_main(sys.argv[2:])
print("forks", forks)
sys.exit(code)
"""

_SGD = {"lags": 5, "epochs": 2, "learning_rate": 0.05, "batch_size": 16}
SYNTH = {"n_series": 12, "length": 120, "season_period": 7, "season_amplitude": 10, "seed": 3}


def _python(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True
    )


def _run_cli(cpus: str, work: Path, models: list[dict]) -> tuple[subprocess.CompletedProcess, int]:
    """generate, then run; returns run's process and its fork count."""
    work.mkdir()
    (work / "synth.json").write_text(json.dumps(SYNTH))
    experiment = {
        "dataset": {"csv": "data.csv"},
        "split": {"train_length": 106, "horizon": 14},
        "models": models,
        "run_count": 4,
        "master_seed": 7,
    }
    (work / "experiment.json").write_text(json.dumps(experiment))
    done = _python(["-c", CLI, cpus, "generate", "--config", "synth.json", "--out", "data.csv"], work)
    assert done.returncode == 0, done.stderr
    done = _python(["-c", CLI, cpus, "run", "--config", "experiment.json", "--out", "runs"], work)
    return done, int(done.stdout.split()[-1])


def test_workers_write_the_in_process_runs(tmp_path):
    models = [
        {
            "label": "ens",
            "ensemble": {
                "components": [
                    {"kind": "seasonal_naive", "params": {"period": 7}},
                    {"kind": "linear_ar", "params": _SGD},
                    {"kind": "tiny_mlp", "params": {**_SGD, "hidden_dim": 4}},
                ],
                "n_windows": 2,
            },
        },
        {"label": "lar", "kind": {"kind": "linear_ar", "params": _SGD}},
        {"label": "mlp", "kind": {"kind": "tiny_mlp", "params": {**_SGD, "hidden_dim": 4}}},
    ]
    alone, forks_alone = _run_cli("one", tmp_path / "one", models)
    shared, forks_shared = _run_cli("all", tmp_path / "all", models)
    assert alone.returncode == shared.returncode == 0, alone.stderr + shared.stderr
    assert forks_alone == 0 and forks_shared > 0
    for name in ("runs.csv", "actuals.csv"):
        assert (tmp_path / "all" / "runs" / name).read_bytes() == (
            tmp_path / "one" / "runs" / name
        ).read_bytes()


def test_a_diverging_worker_fails_the_run_as_in_process(tmp_path):
    # The second entry's fit goes to the worker; every run of it diverges.
    models = [
        {"label": "lar", "kind": {"kind": "linear_ar", "params": _SGD}},
        {"label": "mlp", "kind": {"kind": "tiny_mlp", "params": {**_SGD, "learning_rate": 1e6}}},
    ]
    alone, forks_alone = _run_cli("one", tmp_path / "one", models)
    shared, forks_shared = _run_cli("all", tmp_path / "all", models)
    assert forks_alone == 0 and forks_shared == 1
    assert alone.returncode == shared.returncode == 2
    assert shared.stderr == alone.stderr
    assert shared.stderr.startswith("error: model 'mlp', run 0 (seed ")
    assert not (tmp_path / "all" / "runs").exists()


# Fits two seeded jobs with a fit that ends any process but this one, and
# prints what came back and whether a child is left.
SILENT_WORKER = """\
import json, os
from forecast_stability import LinearAR, SynthConfig, fit, synth_generate
from forecast_stability.forecasters import ForecasterError, _fit_jobs
parent = os.getpid()
def dying_fit(kind, panel, seeds):
    if os.getpid() != parent:
        os._exit(3)
    return fit(kind, panel, seeds)
panel = synth_generate(SynthConfig(n_series=3, length=40, seed=1))
kind = LinearAR(lags=3, epochs=1)
mask = os.sched_getaffinity(0)
first, second = _fit_jobs(dying_fit, [(kind, panel, (1, 2)), (kind, panel, (3,))])
try:
    left = os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    left = None
print(json.dumps({
    "first": len(first),
    "second": [type(second).__name__, isinstance(second, ForecasterError), str(second)],
    "left": left,
    "mask": os.sched_getaffinity(0) == mask,
}))
"""


def test_a_worker_that_sends_nothing_is_a_typed_error_and_is_reaped(tmp_path):
    done = _python(["-c", SILENT_WORKER], tmp_path)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["first"] == 2
    assert out["second"] == [
        "ForecasterError", True, "a fit worker exited with status 3 and sent no result"
    ]
    assert out["left"] is None
    assert out["mask"] is True


# Fits three seeded jobs; a child reports its CPU set through its error. A
# wrapped fit, as a tracer's is, sees every call in this process.
CPU_SETS = """\
import functools, json, os
from forecast_stability import LinearAR, SynthConfig, fit, synth_generate
from forecast_stability.forecasters import ForecasterError, _fit_jobs
parent = os.getpid()
def probing_fit(kind, panel, seeds):
    if os.getpid() != parent:
        raise ForecasterError(json.dumps(sorted(os.sched_getaffinity(0))))
    return fit(kind, panel, seeds)
calls = []
@functools.wraps(fit)
def wrapped_fit(kind, panel, seeds):
    calls.append(os.getpid())
    return fit(kind, panel, seeds)
panel = synth_generate(SynthConfig(n_series=3, length=40, seed=1))
kind = LinearAR(lags=3, epochs=1)
jobs = [(kind, panel, (seed,)) for seed in (1, 2, 3)]
mask = os.sched_getaffinity(0)
first, second, third = _fit_jobs(probing_fit, jobs)
wrapped = _fit_jobs(wrapped_fit, jobs)
print(json.dumps({
    "mask": sorted(mask),
    "child": json.loads(str(second)),
    "fitted": [len(first), len(third)],
    "unchanged": os.sched_getaffinity(0) == mask,
    "wrapped": [len(models) for models in wrapped],
    "wrapped_here": calls == [parent] * 3,
}))
"""


def test_a_worker_runs_off_this_process_cpu_and_leaves_its_cpu_set(tmp_path):
    done = _python(["-c", CPU_SETS], tmp_path)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert set(out["child"]) < set(out["mask"])
    assert len(out["child"]) == len(out["mask"]) - 1
    assert out["fitted"] == [1, 1]
    assert out["unchanged"] is True
    assert out["wrapped"] == [1, 1, 1]
    assert out["wrapped_here"] is True


# A child that cannot set its CPU set still fits; an exception that does
# not survive a pickle round trip comes back as a ForecasterError, and a
# child stops at its first failure.
WORKER_FAULTS = """\
import json, os
from forecast_stability import LinearAR, SynthConfig, fit, synth_generate
from forecast_stability.forecasters import ForecasterError, _fit_jobs
parent = os.getpid()
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
def refuse(pid, cpus):
    raise OSError("CPU not in cpuset")
os.sched_setaffinity = refuse
class Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")
def failing_fit(kind, panel, seeds):
    if os.getpid() != parent and seeds == (2,):
        raise Unpicklable("one", "two")
    return fit(kind, panel, seeds)
panel = synth_generate(SynthConfig(n_series=3, length=40, seed=1))
kind = LinearAR(lags=3, epochs=1)
# On two CPUs, this process fits seeds 1 and 3, the child 2 and 4.
jobs = [(kind, panel, (seed,)) for seed in (1, 2, 3, 4)]
out = _fit_jobs(failing_fit, jobs)
print(json.dumps([
    r if r is None else [type(r).__name__, str(r)] if isinstance(r, Exception) else len(r)
    for r in out
]))
"""


def test_a_worker_fault_outside_the_fit_keeps_the_fit_error(tmp_path):
    done = _python(["-c", WORKER_FAULTS], tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [
        1, ["ForecasterError", "Unpicklable: one and two"], 1, None
    ]
