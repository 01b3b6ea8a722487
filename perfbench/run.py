"""Benchmark of the forecast_stability CLI pipeline.

    python3 perfbench/run.py --workload sgd_refit [--seed 11] [--seconds 40] [--trace 0]

With ``--trace 0`` it drives generate -> run -> metrics -> report, each
stage a fresh ``python -m forecast_stability.cli`` process, one at a time
(a closed loop with one client), repeating the pipeline until ``--seconds``
have passed, and reports the end-to-end metrics. With ``--trace 1`` it runs
the pipeline once as processes and then in this process, untraced and
traced by turns, and reports the per-layer metrics. Both modes check the
outputs. The last line of standard output is one JSON object; a longer
record with samples, digests and provenance goes to ``perfbench/out/``.
README.md describes the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread in this process and every process it starts. Otherwise each
# stage process starts a BLAS thread pool at import, which on 2 cores adds
# 50-100 ms of set-up that varies from run to run. The program's matrix
# products are at most a few hundred rows by 8 columns, too small for BLAS
# threads to share.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "refits_per_s": "1/s",
    "analyze_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "rmse_p50": "demand",
}
PER_LAYER_UNITS = {
    "seeding.permutation.calls": "count",
    "forecasters.fit.calls.seasonal_naive": "count",
    "forecasters.fit.calls.global_mean": "count",
    "forecasters.fit.calls.linear_ar": "count",
    "forecasters.fit.calls.tiny_mlp": "count",
    "forecasters.fit.self_s": "s",
    "forecasters.sgd.steps": "count",
    "forecasters.fit.useful_ratio": "ratio",
    "forecasters.predict.calls": "count",
    "forecasters.predict.self_s": "s",
    "ensemble.fit_ensemble.calls": "count",
    "ensemble.score_calls": "count",
    "ensemble.validation_fit_share": "ratio",
    "dataset.synth_generate.s": "s",
    "dataset.write_long_csv.s": "s",
    "dataset.load_long_csv.s": "s",
    "dataset.csv_bytes": "B",
    "harness.run_experiment.self_s": "s",
    "harness.persist_runs.s": "s",
    "harness.load_runs.s": "s",
    "harness.runs_csv_bytes": "B",
    "harness.config_from_json.s": "s",
    "metrics.postprocess.calls": "count",
    "metrics.cv_grid.s": "s",
    "metrics.accuracy_report.s": "s",
    "metrics.cv_q90": "ratio",
    "report.write_metrics_files.s": "s",
    "report.load_metrics_files.s": "s",
    "report.build_report_bundle.s": "s",
    "report.emit_plots.s": "s",
    "report.bytes_written": "B",
    **{f"cli.{stage}.self_s": "s" for stage in ("generate", "run", "metrics", "report")},
    **{f"cli.{stage}.wall_s": "s" for stage in ("generate", "run", "metrics", "report")},
    "trace.overhead_s": "s",
}
# Printed and saved in the record, but not in the result line. error_rate and
# cv_q90 read 0 on correct code or on wide_io, so they cannot carry a bound;
# the per-layer times read exactly 0 on the workload that bypasses their layer.
EXTRA_UNITS = {
    0: {
        "error_rate": "ratio",
        "cv_q90": "ratio",
        **{f"cli.{stage}.wall_s": "s" for stage in ("generate", "run", "metrics", "report")},
    },
    1: {
        "seeding.permutation.self_s": "s",
        "forecasters.fit.self_s.seasonal_naive": "s",
        "forecasters.fit.self_s.global_mean": "s",
        "forecasters.fit.self_s.linear_ar": "s",
        "forecasters.fit.self_s.tiny_mlp": "s",
        "forecasters.sgd.us_per_step": "us",
        "ensemble.fit_ensemble.self_s": "s",
    },
}


def main(argv=None) -> int:
    if not (SRC / "forecast_stability" / "__init__.py").is_file():
        print(f"error: no forecast_stability package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]
    import forecast_stability
    import workloads

    if Path(forecast_stability.__file__).resolve().parent != SRC / "forecast_stability":
        print(f"error: imported {forecast_stability.__file__}, not {SRC}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from bench import Bench, provenance

    workload = workloads.WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(workload, args.seed, work, SRC)
    try:
        record = bench.traced(args.seconds) if args.trace else bench.untraced(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if record is None:
        print("error: no pipeline completed; failures:", file=sys.stderr)
        for failure in bench.checks.failures:
            print(f"  {failure}", file=sys.stderr)
        return 1

    record.update(
        workload=workload.name,
        seed=args.seed,
        trace=args.trace,
        attempted=bench.checks.attempted,
        failed=bench.checks.failed,
        failures=bench.checks.failures,
        provenance=provenance(ROOT),
    )
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print_summary(record, {**units, **EXTRA_UNITS[args.trace]})
    result = {
        "correct": bench.checks.failed == 0,
        "attempted": bench.checks.attempted,
        "failed": bench.checks.failed,
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


def print_summary(record: dict, units: dict) -> None:
    """Every metric by name and unit; timed ones with their sample count and max."""
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    samples = record["samples"]
    for name, unit in units.items():
        line = f"  {name:<38} {record['metrics'][name]:<12.6g} {unit}"
        if name in samples:
            values = samples[name]
            line += f"  (median of {len(values)}, max {max(values):.6g})"
        print(line)
    for name in sorted(samples.keys() - units.keys()):
        values = samples[name]
        print(f"  {name:<38} median {statistics.median(values):.6g} s of {len(values)}")
    print(f"  operations: {record['attempted']} attempted, {record['failed']} failed")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


if __name__ == "__main__":
    sys.exit(main())
