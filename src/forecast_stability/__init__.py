"""Benchmark model-induced stochasticity of time series forecasters.

Retrain a forecaster repeatedly on fixed inputs, varying only the random
seed, and quantify how much its delivered forecasts move: a per-cell
coefficient-of-variation grid for stability, RMSE per run for accuracy,
and a convex-combination ensemble as the mitigation baseline.
"""

from .dataset import (
    SplitSpec,
    SynthConfig,
    TimeSeriesDataset,
    load_long_csv,
    split,
    synth_generate,
    write_long_csv,
)
from .ensemble import (
    fit_ensemble,
    make_validation_windows,
    predict_ensemble,
)
from .forecasters import (
    FittedForecaster,
    ForecasterKind,
    GlobalMean,
    LinearAR,
    SeasonalNaive,
    TinyMLP,
    fit,
    predict,
)
from .harness import (
    CsvSource,
    EnsembleRequest,
    ExperimentConfig,
    ModelEntry,
    load_runs,
    persist_runs,
    run_experiment,
)
from .metrics import (
    AccuracyReport,
    CvGrid,
    accuracy_report,
    cv_grid,
    histogram,
    postprocess,
    quantiles,
    rmse,
)
from .report import build_report_bundle, emit_plots, emit_quantile_table
from .seeding import derive_seed, fnv1a64, splitmix64

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "CsvSource",
    "CvGrid",
    "EnsembleRequest",
    "ExperimentConfig",
    "FittedForecaster",
    "ForecasterKind",
    "GlobalMean",
    "LinearAR",
    "ModelEntry",
    "SeasonalNaive",
    "SplitSpec",
    "SynthConfig",
    "TimeSeriesDataset",
    "TinyMLP",
    "accuracy_report",
    "build_report_bundle",
    "cv_grid",
    "derive_seed",
    "emit_plots",
    "emit_quantile_table",
    "fit",
    "fit_ensemble",
    "fnv1a64",
    "histogram",
    "load_long_csv",
    "load_runs",
    "make_validation_windows",
    "persist_runs",
    "postprocess",
    "predict",
    "predict_ensemble",
    "quantiles",
    "rmse",
    "run_experiment",
    "split",
    "splitmix64",
    "synth_generate",
    "write_long_csv",
]
