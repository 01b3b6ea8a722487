"""Command-line pipeline: generate -> run -> metrics -> report.

Exit codes: 0 success, 1 usage error, 2 data error. Diagnostics go to
stderr. ``report`` composes every output it was asked for before it writes
any, in one loop, so a failing ``report`` writes no file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from . import codec
from .dataset import write_long_csv
from .errors import ForecastStabilityError
from .harness import (
    MANIFEST_FILE,
    RUNS_FILE,
    config_from_json,
    load_runs,
    persist_runs,
    run_experiment,
    synth_from_json,
)
from .metrics import DEFAULT_QUANTILES, MetricsError, accuracy_report, cv_grid
from .report import (
    DEFAULT_BINS,
    DEFAULT_CLIP,
    REPORT_FILE,
    TABLE_FILE,
    build_report_bundle,
    emit_plots,
    emit_quantile_table,
    load_metrics_files,
    report_to_json,
    write_metrics_files,
)
from .tabular import _not_utf8


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
    p_met.add_argument("--out", help="output directory (default: --runs)")
    p_met.set_defaults(func=_cmd_metrics)

    p_rep = sub.add_parser("report", help="emit tables, JSON, and SVG figures")
    p_rep.add_argument("--runs", required=True, help="directory with cv.csv/rmse.csv")
    p_rep.add_argument("--out", help="output directory (default: --runs)")
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
    sys.exit(cli_main())


def _read_json(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except UnicodeDecodeError:
        raise _not_utf8(ValueError, Path(path)) from None


def _cmd_generate(args: argparse.Namespace) -> int:
    cfg = synth_from_json(_read_json(args.config))
    from .dataset import synth_generate

    panel = synth_generate(cfg)
    write_long_csv(panel, args.out)
    print(f"wrote {args.out} ({panel.n_series} series x {panel.length} days)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = config_from_json(_read_json(args.config))
    result = run_experiment(cfg)
    persist_runs(result, args.out)
    print(
        f"wrote {args.out}: {len(cfg.models) * cfg.run_count} runs "
        f"({len(cfg.models)} models x {cfg.run_count} seeds)"
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    out_dir = args.out or args.runs
    forecast_sets, actuals = load_runs(args.runs)
    grids = {}
    accuracy = {}
    for label, fs in forecast_sets.items():
        try:
            grids[label] = (cv_grid(fs.values), fs.series_ids)
            accuracy[label] = accuracy_report(fs.values, actuals, label)
        except MetricsError as exc:
            raise type(exc)(f"{Path(args.runs) / RUNS_FILE}: model {label!r}: {exc}") from exc
    write_metrics_files(grids, accuracy, out_dir)
    print(f"wrote {out_dir}/cv.csv and rmse.csv for {len(grids)} models")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    out_dir = Path(args.out or args.runs)
    probs = _parse_probs(args.quantiles)
    grids, accuracy = load_metrics_files(args.runs)
    bundle = build_report_bundle(
        {label: grid for label, (grid, _) in grids.items()},
        accuracy,
        probs=probs,
        bins=args.bins,
        clip_upper=args.clip,
        train_length=_train_length_from_manifest(Path(args.runs)),
    )
    outputs = {}
    if args.format in ("csv", "all"):
        outputs[TABLE_FILE] = emit_quantile_table(bundle)
    if args.format in ("json", "all"):
        outputs[REPORT_FILE] = report_to_json(bundle)
    if args.format in ("svg", "all"):
        outputs.update(emit_plots(bundle))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in outputs.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    print(f"wrote {out_dir}: {', '.join(outputs)}")
    return 0


def _parse_probs(text: str) -> tuple[float, ...]:
    try:
        probs = tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad --quantiles value {text!r}") from exc
    if not probs:
        raise ValueError("--quantiles needs at least one probability")
    return probs


def _train_length_from_manifest(runs_dir: Path) -> int | None:
    manifest = runs_dir / MANIFEST_FILE
    if not manifest.exists():
        return None
    obj = _read_json(manifest)
    try:
        (config,), _ = codec.take(obj, "", "config")
        return config_from_json(config).split.train_length
    except ValueError as exc:
        raise ValueError(f"{manifest}: {exc}") from exc


if __name__ == "__main__":
    main()
