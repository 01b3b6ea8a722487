"""Benchmark model-induced stochasticity of time series forecasters.

Retrain a forecaster repeatedly on fixed inputs, varying only the random
seed, and quantify how much its delivered forecasts move: a per-cell
coefficient-of-variation grid for stability, RMSE per run for accuracy,
and a convex-combination ensemble as the mitigation baseline.

Modules load on first use: ``import forecast_stability`` imports none of
them, and reading a public name or a submodule of the package imports the
module that defines it, so parsing a config never loads the CSV or report
code.
"""

import importlib

__version__ = "0.1.0"

# Each submodule, by name, with the public names the package reads from it.
_EXPORTS = {
    "cli": (),
    "codec": (),
    "dataset": (
        "SplitSpec", "SynthConfig", "TimeSeriesDataset", "load_long_csv", "split",
        "synth_generate", "write_long_csv",
    ),
    "ensemble": ("fit_ensemble", "make_validation_windows", "predict_ensemble"),
    "errors": (),
    "forecasters": (
        "FittedForecaster", "ForecasterKind", "GlobalMean", "LinearAR", "SeasonalNaive",
        "TinyMLP", "fit", "predict",
    ),
    "harness": (
        "CsvSource", "EnsembleRequest", "ExperimentConfig", "ModelEntry", "load_runs",
        "persist_runs", "run_experiment",
    ),
    "metrics": (
        "AccuracyReport", "CvGrid", "accuracy_report", "cv_grid", "histogram", "postprocess",
        "quantiles", "rmse",
    ),
    "report": ("build_report_bundle", "emit_plots", "emit_quantile_table"),
    "seeding": ("derive_seed", "fnv1a64", "splitmix64"),
    "tabular": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    # Read from the defining module each time and never stored here, so a
    # binding replaced in that module is the one every reader gets.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    return module if name in _EXPORTS else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
