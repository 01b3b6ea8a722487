"""Command-line pipeline: generate -> run -> metrics -> report.

Exit codes: 0 success, 1 usage error, 2 data error. Diagnostics go to
stderr. ``metrics`` and ``report`` read and write only the directory named
by ``--runs``. ``run`` refuses, before any fit, an ``--out`` that cannot be
a directory or already holds a file a stage writes, and creates nothing
before its fits succeed. ``report`` checks the metrics files' models and
run count against the run's manifest, so a directory never mixes two
experiments. ``report`` composes every output it
was asked for before it writes any, in one loop, so a failing ``report``
writes no file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import Sequence

# First of the package: compiling the largest module before the others fill
# the heap keeps each stage's peak RSS lower.
from .tabular import _not_utf8
from . import codec
from .dataset import synth_generate, write_long_csv
from .errors import ForecastStabilityError
from .harness import (
    ACTUALS_FILE,
    MANIFEST_FILE,
    RUNS_FILE,
    ExperimentConfig,
    config_from_json,
    load_runs,
    persist_runs,
    run_experiment,
    synth_from_json,
)
from .metrics import DEFAULT_QUANTILES, MetricsError, accuracy_report, cv_grid
from .report import (
    CV_FILE,
    DEFAULT_BINS,
    DEFAULT_CLIP,
    REPORT_FILE,
    RMSE_FIGURE,
    RMSE_FILE,
    TABLE_FILE,
    ReportError,
    build_report_bundle,
    emit_plots,
    emit_quantile_table,
    load_metrics_files,
    report_to_json,
    write_metrics_files,
)

# What the stages write into a runs directory, besides each cv_hist_*.svg.
PIPELINE_FILES = (
    RUNS_FILE, ACTUALS_FILE, MANIFEST_FILE, CV_FILE, RMSE_FILE,
    TABLE_FILE, REPORT_FILE, RMSE_FIGURE,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forecast-stability",
        description="Measure seed-induced forecast variance and report on it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="synthesize a demand panel CSV")
    p_gen.add_argument("--config", required=True, help="synthetic panel JSON")
    p_gen.add_argument("--out", required=True, help="output dataset CSV path")
    p_gen.set_defaults(func=_cmd_generate)

    p_run = sub.add_parser("run", help="execute the seeded refit experiment")
    p_run.add_argument("--config", required=True, help="experiment config JSON")
    p_run.add_argument("--out", required=True, help="runs directory")
    p_run.set_defaults(func=_cmd_run)

    p_met = sub.add_parser("metrics", help="compute cv.csv and rmse.csv from runs")
    p_met.add_argument("--runs", required=True, help="directory with runs.csv")
    p_met.set_defaults(func=_cmd_metrics)

    p_rep = sub.add_parser("report", help="emit tables, JSON, and SVG figures")
    p_rep.add_argument("--runs", required=True, help="directory with cv.csv/rmse.csv")
    p_rep.add_argument(
        "--format",
        choices=("csv", "json", "svg", "all"),
        default="all",
        help="which outputs to emit (default all)",
    )
    p_rep.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p_rep.add_argument("--clip", type=float, default=DEFAULT_CLIP)
    p_rep.add_argument(
        "--quantiles",
        default=",".join(str(p) for p in DEFAULT_QUANTILES),
        help="comma-separated probabilities for the quantile table",
    )
    p_rep.set_defaults(func=_cmd_report)
    return parser


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, nonzero for usage problems
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ForecastStabilityError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # A stage process ends with its command, so collecting what the imports
    # built only slows its exit.
    gc.freeze()
    sys.exit(cli_main())


def _read_json(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except UnicodeDecodeError:
        raise _not_utf8(ValueError, Path(path)) from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object that refuses a key written twice rather than keep its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _cmd_generate(args: argparse.Namespace) -> int:
    cfg = synth_from_json(_read_json(args.config))
    panel = synth_generate(cfg)
    write_long_csv(panel, args.out)
    print(f"wrote {args.out} ({panel.n_series} series x {panel.length} days)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = config_from_json(_read_json(args.config))
    out = Path(args.out)
    held = [out / name for name in PIPELINE_FILES if (out / name).exists()]
    held += sorted(out.glob("cv_hist_*.svg"))
    if held:
        raise FileExistsError(f"{held[0]}: --out already holds the output of a run")
    # persist_runs makes --out once the run succeeds; until then, check
    # without creating anything that it can.
    existing = next((path for path in (out, *out.parents) if path.exists()), out)
    if not existing.is_dir():
        raise OSError(f"{out}: --out cannot be a directory: {existing} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise OSError(f"{out}: --out cannot be a directory: {existing} is not writable")
    result = run_experiment(cfg)
    persist_runs(result, args.out)
    print(
        f"wrote {args.out}: {len(cfg.models) * cfg.run_count} runs "
        f"({len(cfg.models)} models x {cfg.run_count} seeds)"
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    forecast_sets, actuals = load_runs(args.runs)
    grids = {}
    accuracy = {}
    for label, fs in forecast_sets.items():
        try:
            grids[label] = (cv_grid(fs.values), fs.series_ids)
            accuracy[label] = accuracy_report(fs.values, actuals)
        except MetricsError as exc:
            raise type(exc)(f"{Path(args.runs) / RUNS_FILE}: model {label!r}: {exc}") from exc
    write_metrics_files(grids, accuracy, args.runs)
    print(f"wrote {args.runs}/cv.csv and rmse.csv for {len(grids)} models")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    runs_dir = Path(args.runs)
    probs = _parse_probs(args.quantiles)
    grids, accuracy = load_metrics_files(runs_dir)
    cfg = _manifest_config(runs_dir)
    if cfg is not None:
        _check_against_manifest(runs_dir, cfg, grids, accuracy)
    report = build_report_bundle(
        {label: grid for label, (grid, _) in grids.items()},
        accuracy,
        probs=probs,
        bins=args.bins,
        clip_upper=args.clip,
        train_length=None if cfg is None else cfg.split.train_length,
    )
    outputs = {}
    if args.format in ("csv", "all"):
        outputs[TABLE_FILE] = emit_quantile_table(report)
    if args.format in ("json", "all"):
        outputs[REPORT_FILE] = report_to_json(report)
    if args.format in ("svg", "all"):
        outputs.update(emit_plots(report))
    for name, text in outputs.items():
        (runs_dir / name).write_text(text, encoding="utf-8")
    print(f"wrote {runs_dir}: {', '.join(outputs)}")
    return 0


def _parse_probs(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad --quantiles value {text!r}") from exc


def _manifest_config(runs_dir: Path) -> ExperimentConfig | None:
    manifest = runs_dir / MANIFEST_FILE
    if not manifest.exists():
        return None
    obj = _read_json(manifest)
    try:
        (config,), _ = codec.take(obj, "", "config")
        return config_from_json(config)
    except ValueError as exc:
        raise ValueError(f"{manifest}: {exc}") from exc


def _check_against_manifest(runs_dir: Path, cfg: ExperimentConfig, grids, accuracy) -> None:
    """Raise :class:`ReportError` unless the metrics files hold the manifest's
    models and, in ``rmse.csv``, its run count per model."""
    manifest, labels = runs_dir / MANIFEST_FILE, sorted(entry.label for entry in cfg.models)
    for name, models in ((CV_FILE, grids), (RMSE_FILE, accuracy)):
        if sorted(models) != labels:
            raise ReportError(
                f"{runs_dir / name}: models {sorted(models)} are not those of {manifest}: {labels}"
            )
    runs = {len(report.rmse_per_run) for report in accuracy.values()}
    if runs != {cfg.run_count}:
        raise ReportError(
            f"{runs_dir / RMSE_FILE}: {min(runs)} runs per model, "
            f"but {manifest} has run_count {cfg.run_count}"
        )


if __name__ == "__main__":
    main()
