"""Measurement passes: the CLI pipeline as processes, and traced in-process.

Imported by run.py once it has put the checkout's ``src`` on the path.
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from forecast_stability import cli

from checks import Checks, check_outputs, contract_digests, digests
from tracing import Tracer, layer_metrics, self_times
from workloads import (
    DATA_FILE,
    EXPERIMENT_FILE,
    RUNS_DIR,
    SGD_KINDS,
    SYNTH_FILE,
    Workload,
)

MIN_REPS = 2
# Wall time of reference_s() on the 2-vCPU Intel Xeon virtual machine the
# benchmark was built on, when not slowed by other tenants. End-to-end times
# are scaled to a host on which it takes this long.
REFERENCE_NOMINAL_S = 0.045
STAGES = ("generate", "run", "metrics", "report")
STAGE_ARGV = {
    "generate": ["generate", "--config", SYNTH_FILE, "--out", DATA_FILE],
    "run": ["run", "--config", EXPERIMENT_FILE, "--out", RUNS_DIR],
    "metrics": ["metrics", "--runs", RUNS_DIR],
    "report": ["report", "--runs", RUNS_DIR, "--format", "all"],
}
REPORT_OUTPUTS = frozenset({"cv.csv", "rmse.csv", "table.csv", "report.json"})

# Runs in a fresh interpreter whose working directory holds the configs.
SETUP_CODE = f"""\
import time
start = time.perf_counter()
import json
import forecast_stability
from forecast_stability.harness import config_from_json
with open({EXPERIMENT_FILE!r}, encoding="utf-8") as fh:
    config_from_json(json.load(fh))
print(time.perf_counter() - start)
"""

# Functions every workload calls, and caller -> callee pairs that are only
# seen when a wrapper sits at the caller's own binding of the callee.
EXPECTED_ALWAYS = (
    "cli.generate", "cli.run", "cli.metrics", "cli.report",
    "seeding.Rng.normals", "seeding.derive_seed", "seeding.fnv1a64", "seeding.splitmix64",
    "dataset.synth_generate", "dataset.write_long_csv", "dataset.load_long_csv", "dataset.split",
    "forecasters.fit", "forecasters.predict", "forecasters.kind_from_json",
    "forecasters.kind_to_json",
    "harness.synth_from_json", "harness.config_from_json", "harness.config_to_json",
    "harness.run_experiment", "harness.run_seed", "harness.load_panel",
    "harness.persist_runs", "harness.load_runs",
    "metrics.postprocess", "metrics.rmse", "metrics.cv_grid", "metrics.accuracy_report",
    "metrics.quantiles", "metrics.histogram",
    "report.write_metrics_files", "report.load_metrics_files", "report.build_report_bundle",
    "report.emit_quantile_table", "report.report_to_json", "report.emit_plots", "report.slugify",
)
EXPECTED_EDGES = (
    ("cli.generate", "harness.synth_from_json"),
    ("cli.generate", "dataset.synth_generate"),
    ("cli.generate", "dataset.write_long_csv"),
    ("cli.run", "harness.config_from_json"),
    ("cli.run", "harness.run_experiment"),
    ("cli.run", "harness.persist_runs"),
    ("cli.metrics", "harness.load_runs"),
    ("cli.metrics", "metrics.cv_grid"),
    ("cli.metrics", "metrics.accuracy_report"),
    ("cli.metrics", "report.write_metrics_files"),
    ("cli.report", "report.load_metrics_files"),
    ("cli.report", "report.build_report_bundle"),
    ("cli.report", "report.emit_plots"),
    ("harness.run_experiment", "metrics.postprocess"),
    ("harness.load_panel", "dataset.load_long_csv"),
    ("dataset.synth_generate", "seeding.Rng.normals"),
)
EXPECTED_PLAIN_EDGES = (
    ("harness.run_experiment", "forecasters.fit"),
    ("harness.run_experiment", "forecasters.predict"),
)
EXPECTED_SGD_EDGES = (("forecasters.fit", "seeding.Rng.permutation"),)
EXPECTED_ENSEMBLE_EDGES = (
    ("harness.run_experiment", "ensemble.fit_ensemble"),
    ("harness.run_experiment", "ensemble.component_seed"),
    ("harness.run_experiment", "ensemble.predict_ensemble"),
    ("ensemble.fit_ensemble", "ensemble.make_validation_windows"),
    ("ensemble.fit_ensemble", "forecasters.fit"),
    ("ensemble.fit_ensemble", "forecasters.predict"),
    ("ensemble.fit_ensemble", "metrics.postprocess"),
    ("ensemble.fit_ensemble", "metrics.rmse"),
    ("ensemble.predict_ensemble", "forecasters.predict"),
)


class Bench:
    """One benchmark invocation: a workload, a seed and a working directory."""

    def __init__(self, workload: Workload, seed: int, work: Path, src: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.checks = Checks()
        paths = [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}

    # ------------------------------------------------------------ processes

    def _spawn(self, argv: list[str], cwd: Path, log: Path) -> tuple[int, float, float]:
        """Run one interpreter to completion: (exit code, wall s, max RSS MB)."""
        with log.open("wb") as out:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=cwd, env=self.env, stdout=out, stderr=out
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def _setup_probe(self) -> float | None:
        log = self.work / "setup.log"
        code, _, _ = self._spawn(["-c", SETUP_CODE], self.work, log)
        text = log.read_text().strip()
        if not self.checks.record("setup probe exits 0", code == 0, text[-500:]):
            return None
        return float(text.splitlines()[-1])

    def _pipeline(self, rep_dir: Path) -> dict | None:
        """generate -> run -> metrics -> report, each stage its own process.

        The reference loop runs before the first stage and after each one;
        ``scaled`` holds each stage's wall time calibrated by the two
        reference times around it.
        """
        self.workload.write_inputs(self.seed, rep_dir)
        walls, scaled, rss, refs = {}, {}, [], [reference_s()]
        for stage in STAGES:
            log = rep_dir / f"{stage}.log"
            code, wall, peak = self._spawn(
                ["-m", "forecast_stability.cli", *STAGE_ARGV[stage]], rep_dir, log
            )
            if not self.checks.record(f"{stage} exits 0", code == 0, log.read_text()[-500:]):
                return None
            refs.append(reference_s())
            walls[stage] = wall
            scaled[stage] = calibrate(wall, refs[-2], refs[-1])
            rss.append(peak)
        return {"walls": walls, "scaled": scaled, "refs": refs, "peak_rss_mb": max(rss)}

    def _in_process(self, pass_dir: Path) -> float | None:
        """The same four stages through ``cli_main`` in this process."""
        self.workload.write_inputs(self.seed, pass_dir)
        previous = Path.cwd()
        os.chdir(pass_dir)
        try:
            started = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                for stage in STAGES:
                    code = cli.cli_main(STAGE_ARGV[stage])
                    if not self.checks.record(f"in-process {stage} exits 0", code == 0):
                        return None
            return time.perf_counter() - started
        finally:
            os.chdir(previous)

    def _same_bytes(self, name: str, reference: dict, run_dir: Path) -> None:
        a, b = contract_digests(reference), contract_digests(digests(run_dir))
        differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        self.checks.record(name, not differ, f"files differ: {differ}")

    # ---------------------------------------------------------------- modes

    def untraced(self, seconds: float) -> dict | None:
        """End-to-end metrics: repeat setup probes and the pipeline for ``seconds``.

        A setup probe runs before each pipeline, so both samples span the run.
        Only the first pass is read back and checked in full, after the
        timed window; every later pass must match it byte for byte.
        """
        deadline = time.perf_counter() + seconds
        self.workload.write_inputs(self.seed, self.work)
        setup, setup_wall, reps, elapsed, reference = [], [], [], [], None
        first_dir = self.work / "rep0"
        while len(reps) < MIN_REPS or _fits(deadline, elapsed):
            started = time.perf_counter()
            before = reference_s()
            probe = self._setup_probe()
            rep_dir = self.work / f"rep{len(reps)}"
            rep = self._pipeline(rep_dir)
            if rep is None:
                break
            if probe is not None:
                setup_wall.append(probe)
                setup.append(calibrate(probe, before, rep["refs"][0]))
            if reference is None:
                reference = digests(rep_dir)
            else:
                self._same_bytes("outputs byte-identical across repetitions", reference, rep_dir)
                shutil.rmtree(rep_dir)
            reps.append(rep)
            elapsed.append(time.perf_counter() - started)
        if not (setup and reps):
            return None
        quality = check_outputs(self.workload, first_dir / RUNS_DIR, self.checks)
        if not quality:
            return None

        samples = {
            "setup_s": setup,
            "pipeline_s": [sum(r["scaled"].values()) for r in reps],
            "refits_per_s": [self.workload.cells / r["scaled"]["run"] for r in reps],
            "analyze_s": [r["scaled"]["metrics"] + r["scaled"]["report"] for r in reps],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
            "setup_wall_s": setup_wall,
            "pipeline_wall_s": [sum(r["walls"].values()) for r in reps],
            "reference_s": [ref for r in reps for ref in r["refs"]],
            **{f"cli.{s}.wall_s": [r["walls"][s] for r in reps] for s in STAGES},
        }
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        metrics.update(quality)
        metrics["error_rate"] = self.checks.failed / self.checks.attempted
        metrics["success_rate"] = 1.0 - metrics["error_rate"]
        return {"metrics": metrics, "samples": samples, "digests": reference}

    def traced(self, seconds: float) -> dict | None:
        """Per-layer metrics: untraced and traced in-process passes by turns."""
        deadline = time.perf_counter() + seconds
        ref_dir = self.work / "processes"
        rep = self._pipeline(ref_dir)
        if rep is None:
            return None
        runs_dir = ref_dir / RUNS_DIR
        quality = check_outputs(self.workload, runs_dir, self.checks)
        reference = digests(ref_dir)
        sizes = {
            "dataset.csv_bytes": (ref_dir / DATA_FILE).stat().st_size,
            "harness.runs_csv_bytes": (runs_dir / "runs.csv").stat().st_size,
            "report.bytes_written": sum(
                p.stat().st_size
                for p in runs_dir.iterdir()
                if p.name in REPORT_OUTPUTS or p.suffix == ".svg"
            ),
        }
        shutil.rmtree(ref_dir)

        tracer = Tracer()
        untraced_walls, traced_walls, per_pass = [], [], []
        called: set[str] = set()
        edges: set[tuple[str, str]] = set()
        while not per_pass or _fits(deadline, [a + b for a, b in zip(untraced_walls, traced_walls)]):
            # Alternate which pass of a pair runs first, so drift cancels.
            k = len(per_pass)
            untraced_first = k % 2 == 0
            if untraced_first:
                untraced_walls.append(self._untraced_pass(k, reference))
            spans = self._traced_pass(tracer, k, reference)
            if not untraced_first:
                untraced_walls.append(self._untraced_pass(k, reference))
            if spans is None or untraced_walls[-1] is None:
                return None
            traced_walls.append(spans[0].duration)
            per_pass.append(layer_metrics(spans))
            called.update(s.name for s in spans)
            edges.update((spans[s.parent].name, s.name) for s in spans if s.parent >= 0)

        self._self_test(called, edges)
        metrics = {name: _combine([p[name] for p in per_pass]) for name in per_pass[0]}
        metrics.update(sizes)
        metrics["metrics.cv_q90"] = quality.get("cv_q90", 0.0)
        for stage in STAGES:
            metrics[f"cli.{stage}.wall_s"] = rep["walls"][stage]
        metrics["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced_walls, untraced_walls)
        )
        return {
            "metrics": metrics,
            "samples": {"traced_s": traced_walls, "untraced_s": untraced_walls},
            "digests": reference,
            "wrapped_bindings": tracer.wrapped,
        }

    def _untraced_pass(self, k: int, reference: dict) -> float | None:
        pass_dir = self.work / f"untraced{k}"
        wall = self._in_process(pass_dir)
        if wall is not None:
            self._same_bytes("untraced in-process outputs match processes", reference, pass_dir)
        shutil.rmtree(pass_dir)
        return wall

    def _traced_pass(self, tracer: Tracer, k: int, reference: dict) -> list | None:
        """One traced pass; returns its spans, the root first."""
        pass_dir = self.work / f"traced{k}"
        tracer.install()
        try:
            missed = tracer.unpatched_bindings()
            self.checks.record("wrappers at every module binding", not missed, f"missed {missed}")
            with tracer.root():
                wall = self._in_process(pass_dir)
        finally:
            tracer.uninstall()
        if wall is not None:
            self._same_bytes("traced outputs match untraced", reference, pass_dir)
        shutil.rmtree(pass_dir)
        if wall is None:
            return None
        spans = list(tracer.spans)
        root = spans[0].duration
        total_self = sum(self_times(spans))
        self.checks.record(
            "span self times add up to traced wall time",
            abs(total_self - root) <= 1e-6 and 0 <= root - wall <= 1e-3 + 0.01 * wall,
            f"self sum {total_self}, root {root}, wall {wall}",
        )
        return spans

    def _self_test(self, called: set[str], edges: set[tuple[str, str]]) -> None:
        """Every function the workload uses recorded calls through each binding."""
        kinds = {k for ks in self.workload.model_kinds().values() for k in ks}
        expected_edges = set(EXPECTED_EDGES)
        if any("kind" in m for m in self.workload.models):
            expected_edges.update(EXPECTED_PLAIN_EDGES)
        if kinds & SGD_KINDS:
            expected_edges.update(EXPECTED_SGD_EDGES)
        if any("ensemble" in m for m in self.workload.models):
            expected_edges.update(EXPECTED_ENSEMBLE_EDGES)
        expected = set(EXPECTED_ALWAYS) | {name for edge in expected_edges for name in edge}
        missing = sorted(expected - called)
        self.checks.record("every used function records a call", not missing, f"no spans for {missing}")
        missing_edges = sorted(expected_edges - edges)
        self.checks.record("calls seen through every importing module", not missing_edges, f"{missing_edges}")


def reference_s() -> float:
    """Wall time of a fixed loop of interpreter work and small numpy products.

    It stands for the kind of work the program does, so it slows down with
    the host when the host slows the program down.
    """
    start = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i
    w = numpy.zeros(8)
    x = numpy.ones((32, 8))
    for _ in range(4000):
        w = w - 0.001 * (x.T @ (x @ w - 1.0))
    return time.perf_counter() - start


def calibrate(wall: float, ref_before: float, ref_after: float) -> float:
    """A wall time scaled to a host on which reference_s() takes the nominal time."""
    return wall * REFERENCE_NOMINAL_S / ((ref_before + ref_after) / 2)


def _combine(values: list):
    """Counts repeat exactly across passes and stay as they are; times take the median."""
    return values[0] if all(v == values[0] for v in values) else statistics.median(values)


def _fits(deadline: float, durations: list[float]) -> bool:
    """Whether one more pass of the typical duration ends before the deadline."""
    return time.perf_counter() + statistics.median(durations) <= deadline


def provenance(root: Path) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
            capture_output=True,
            text=True,
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:  # no git on this machine
        commit = None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()
