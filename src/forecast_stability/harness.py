"""Experiment orchestration: seeded refit runs on fixed inputs.

An experiment fixes a dataset, a train/test split, and a roster of models,
then fits every model R times varying nothing but the seed. Per-run seeds
are ``derive_seed(master_seed, fnv1a64(label) XOR run_id)``, so each
model's seed stream is independent of roster order and the whole
experiment is a pure function of its config. The R runs of an entry are
fit in one batched call per model. Forecasts are post-processed
(clipped, rounded) before they are recorded: stability and accuracy both
describe the numbers a planner would actually receive.

Persistence is plain CSV plus a JSON manifest; see ``persist_runs``.
"""

from __future__ import annotations

import datetime as dt
import json
import time
from dataclasses import dataclass
from functools import partial
from itertools import product
from pathlib import Path
from typing import Mapping

import numpy as np

from . import tabular
from .dataset import (
    SplitSpec,
    SynthConfig,
    TimeSeriesDataset,
    load_long_csv,
    split,
    synth_generate,
)
from .ensemble import (
    DEFAULT_ITERATIONS,
    DEFAULT_WINDOWS,
    component_seed,
    fit_ensemble,
    predict_ensemble,
)
from .errors import ForecastStabilityError
from .forecasters import (
    Diverged,
    ForecasterKind,
    fit,
    kind_from_json,
    kind_to_json,
    predict,
)
from .metrics import ForecastSet, MetricsError, postprocess
from .seeding import derive_seed, fnv1a64

DEFAULT_RUN_COUNT = 10

RUNS_FILE = "runs.csv"
ACTUALS_FILE = "actuals.csv"
MANIFEST_FILE = "manifest.json"


class HarnessError(ForecastStabilityError):
    pass


class EmptyExperiment(HarnessError):
    pass


class SchemaMismatch(HarnessError):
    pass


class RaggedRuns(HarnessError):
    pass


_CSV_ERRORS = tabular.Errors(
    SchemaMismatch, SchemaMismatch, EmptyExperiment, SchemaMismatch, RaggedRuns
)


@dataclass(frozen=True)
class CsvSource:
    """Panel loaded from a long-format CSV file."""

    path: str
    fill_missing: bool = False


@dataclass(frozen=True)
class EnsembleRequest:
    """Roster entry asking the harness to fit an ensemble each run."""

    components: tuple[ForecasterKind, ...]
    n_windows: int = DEFAULT_WINDOWS

    def __post_init__(self):
        if not self.components:
            raise ValueError("ensemble request needs at least one component")
        object.__setattr__(self, "components", tuple(self.components))


@dataclass(frozen=True)
class ModelEntry:
    """One labelled model in the experiment roster."""

    label: str
    forecaster: ForecasterKind | None = None
    ensemble: EnsembleRequest | None = None

    def __post_init__(self):
        if (self.forecaster is None) == (self.ensemble is None):
            raise ValueError(
                f"model {self.label!r} must set exactly one of forecaster/ensemble"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce an experiment bit-for-bit.

    Raises ValueError when two (label, run) cells would get the same seed.
    """

    dataset: CsvSource | SynthConfig
    split: SplitSpec
    models: tuple[ModelEntry, ...]
    run_count: int = DEFAULT_RUN_COUNT
    master_seed: int = 0
    ensemble_iterations: int = DEFAULT_ITERATIONS
    output_dir: str | None = None

    def __post_init__(self):
        if self.run_count < 2:
            raise ValueError("run_count must be >= 2")
        labels = [entry.label for entry in self.models]
        if not labels:
            raise ValueError("experiment needs at least one model")
        if len(set(labels)) != len(labels):
            raise ValueError("model labels must be unique")
        object.__setattr__(self, "models", tuple(self.models))
        # Two labels whose hashes differ only in low bits would share seeds.
        cells: dict[int, tuple[str, int]] = {}
        for label, run_id in product(labels, range(self.run_count)):
            seed = run_seed(self.master_seed, label, run_id)
            other = cells.setdefault(seed, (label, run_id))
            if other != (label, run_id):
                raise ValueError(
                    f"model {other[0]!r} run {other[1]} and model {label!r} "
                    f"run {run_id} share seed {seed}"
                )


@dataclass(frozen=True, eq=False)
class RunRecord:
    """One seeded fit+predict cycle: post-processed forecasts and timing.

    The R runs of an entry are fit together, so ``duration_s`` is the
    entry's wall time divided by R.
    """

    model_label: str
    run_id: int
    seed: int
    forecast: np.ndarray
    duration_s: float

    def __post_init__(self):
        forecast = np.asarray(self.forecast)
        if forecast.dtype != np.int64 or np.any(forecast < 0):
            raise ValueError("forecast must be post-processed nonnegative integers")
        forecast = forecast.copy()
        forecast.flags.writeable = False
        object.__setattr__(self, "forecast", forecast)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """All run records plus the held-out actuals they are judged against."""

    records: tuple[RunRecord, ...]
    actuals: np.ndarray
    series_ids: tuple[str, ...]
    config: ExperimentConfig


def run_seed(master_seed: int, label: str, run_id: int) -> int:
    """Per-run seed: label hash keeps model streams apart, run id varies."""
    return derive_seed(master_seed, fnv1a64(label) ^ run_id)


def load_panel(source: CsvSource | SynthConfig) -> TimeSeriesDataset:
    if isinstance(source, SynthConfig):
        return synth_generate(source)
    return load_long_csv(source.path, fill_missing=source.fill_missing)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute every (model, run) cell of the experiment grid.

    Training data, split, and hyperparameters are identical across the R
    runs of a label; only the seed changes. All R runs of an entry are fit
    in one call per model (per component for an ensemble), with results
    bit-identical to fitting each seed alone; each record's ``duration_s``
    is the entry's wall time divided by R. Runs that share fitted state, as
    a deterministic kind's do, are predicted and post-processed once; so
    are an ensemble's runs that share weights and component states. Raises
    on the first failure without emitting partial results; a
    :class:`Diverged` error names the label, run ids and seeds of the runs
    that blew up.
    """
    panel = load_panel(cfg.dataset)
    train, actuals = split(panel, cfg.split)
    horizon = cfg.split.horizon
    records = []
    for entry in cfg.models:
        seeds = tuple(
            run_seed(cfg.master_seed, entry.label, run_id)
            for run_id in range(cfg.run_count)
        )
        started = time.perf_counter()
        try:
            # Per run, a key equal for runs that share fitted state, and the
            # call that forecasts it: each key is forecast once.
            if entry.forecaster is not None:
                fitted = fit(entry.forecaster, train, seeds)
                jobs = [(id(model.state), partial(predict, model, horizon)) for model in fitted]
            else:
                request = entry.ensemble
                specs = fit_ensemble(
                    request.components,
                    train,
                    horizon,
                    request.n_windows,
                    seeds,
                    cfg.ensemble_iterations,
                )
                by_component = [
                    fit(kind, train, tuple(component_seed(seed, index) for seed in seeds))
                    for index, kind in enumerate(request.components)
                ]
                jobs = [
                    (
                        (spec, tuple(id(model.state) for model in models)),
                        partial(predict_ensemble, spec, models, horizon),
                    )
                    for spec, models in zip(specs, zip(*by_component))
                ]
            delivered: dict = {}
            for run_id, (key, forecast) in enumerate(jobs):
                if key not in delivered:
                    try:
                        delivered[key] = postprocess(forecast())
                    except MetricsError as exc:
                        raise Diverged(
                            f"forecast cannot be delivered: {exc}", (run_id,)
                        ) from exc
            forecasts = [delivered[key] for key, _ in jobs]
        except Diverged as exc:
            runs = ", ".join(f"run {r} (seed {seeds[r]})" for r in exc.runs)
            raise Diverged(f"model {entry.label!r}, {runs}: {exc}", exc.runs) from exc
        duration = (time.perf_counter() - started) / len(seeds)
        records.extend(
            RunRecord(
                model_label=entry.label,
                run_id=run_id,
                seed=seed,
                forecast=forecast,
                duration_s=duration,
            )
            for run_id, (seed, forecast) in enumerate(zip(seeds, forecasts))
        )
    return ExperimentResult(
        records=tuple(records),
        actuals=actuals,
        series_ids=train.series_ids,
        config=cfg,
    )


def persist_runs(result: ExperimentResult, out_dir: str | Path) -> None:
    """Write runs.csv, actuals.csv, and manifest.json into a directory.

    runs.csv rows are ``model,run_id,item_id,h,value`` sorted by that key;
    forecast values are integer literals. actuals.csv is ``item_id,h,value``
    with round-trip precision (actual demand may be fractional). The
    manifest echoes the config and the seed of every run.
    """
    if not result.records:
        raise EmptyExperiment("refusing to persist an experiment with no runs")
    records = sorted(result.records, key=lambda r: (r.model_label, r.run_id))
    labels = sorted({record.model_label for record in records})
    run_ids = range(len(records) // len(labels))
    if [(r.model_label, r.run_id) for r in records] != list(product(labels, run_ids)):
        raise RaggedRuns("every model needs exactly one run of each id 0..R-1")
    forecasts = np.stack([record.forecast for record in records]).reshape(
        len(labels), len(run_ids), *result.actuals.shape
    )
    steps = range(1, result.actuals.shape[1] + 1)

    seeds: dict[str, list[int]] = {}
    for record in result.records:
        seeds.setdefault(record.model_label, []).append(record.seed)
    manifest = {
        "config": config_to_json(result.config),
        "seeds": seeds,
        "created_at": dt.datetime.now(dt.timezone.utc).isoformat(),
    }

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tabular.write_csv(
        out_dir / RUNS_FILE,
        tabular.RUNS,
        (labels, run_ids, result.series_ids, steps),
        (forecasts,),
    )
    tabular.write_csv(
        out_dir / ACTUALS_FILE,
        tabular.ACTUALS,
        (result.series_ids, steps),
        (result.actuals,),
    )
    (out_dir / MANIFEST_FILE).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_runs(path: str | Path) -> tuple[dict[str, ForecastSet], np.ndarray]:
    """Reconstruct per-model forecast tensors and actuals from a directory.

    Validates that every run of a model covers the same full (item, step)
    grid and that actuals align with the forecasts.
    """
    runs_path = Path(path) / RUNS_FILE
    actuals_path = Path(path) / ACTUALS_FILE
    (models, _, ids, steps), (forecasts,) = tabular.read_csv(
        runs_path, tabular.RUNS, _CSV_ERRORS
    )
    axes, (actuals,) = tabular.read_csv(actuals_path, tabular.ACTUALS, _CSV_ERRORS)
    if (ids, steps) != axes:
        raise RaggedRuns(
            f"{runs_path}: the (item, h) grid does not match that of {actuals_path}"
        )
    sets = {
        model: ForecastSet(series_ids=ids, values=forecasts[m])
        for m, model in enumerate(models)
    }
    return sets, actuals


def config_to_json(cfg: ExperimentConfig) -> dict:
    if isinstance(cfg.dataset, SynthConfig):
        dataset = {
            "synth": {
                "n_series": cfg.dataset.n_series,
                "length": cfg.dataset.length,
                "level_range": list(cfg.dataset.level_range),
                "season_period": cfg.dataset.season_period,
                "season_amplitude": cfg.dataset.season_amplitude,
                "noise_std": cfg.dataset.noise_std,
                "intermittency": cfg.dataset.intermittency,
                "seed": cfg.dataset.seed,
            }
        }
    else:
        dataset = {"csv": cfg.dataset.path, "fill_missing": cfg.dataset.fill_missing}
    models = []
    for entry in cfg.models:
        if entry.forecaster is not None:
            models.append({"label": entry.label, "kind": kind_to_json(entry.forecaster)})
        else:
            models.append(
                {
                    "label": entry.label,
                    "ensemble": {
                        "components": [
                            kind_to_json(k) for k in entry.ensemble.components
                        ],
                        "n_windows": entry.ensemble.n_windows,
                    },
                }
            )
    out = {
        "dataset": dataset,
        "split": {
            "train_length": cfg.split.train_length,
            "horizon": cfg.split.horizon,
        },
        "models": models,
        "run_count": cfg.run_count,
        "master_seed": cfg.master_seed,
        "ensemble_iterations": cfg.ensemble_iterations,
    }
    if cfg.output_dir is not None:
        out["output_dir"] = cfg.output_dir
    return out


def synth_from_json(obj: Mapping) -> SynthConfig:
    """Parse a synthetic-panel recipe from its JSON object form."""
    try:
        return SynthConfig(
            n_series=int(obj["n_series"]),
            length=int(obj["length"]),
            level_range=tuple(obj.get("level_range", (50.0, 150.0))),
            season_period=int(obj.get("season_period", 7)),
            season_amplitude=float(obj.get("season_amplitude", 0.0)),
            noise_std=float(obj.get("noise_std", 0.0)),
            intermittency=float(obj.get("intermittency", 0.0)),
            seed=int(obj.get("seed", 0)),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad synthetic panel config: {exc}") from exc


def config_from_json(obj: Mapping) -> ExperimentConfig:
    """Parse an experiment config from its JSON object form.

    Raises ValueError on schema problems so the CLI reports them as data
    errors rather than crashes.
    """
    try:
        dataset_obj = obj["dataset"]
        if "synth" in dataset_obj:
            dataset: CsvSource | SynthConfig = synth_from_json(dataset_obj["synth"])
        elif "csv" in dataset_obj:
            dataset = CsvSource(
                path=str(dataset_obj["csv"]),
                fill_missing=bool(dataset_obj.get("fill_missing", False)),
            )
        else:
            raise ValueError("dataset must specify either 'csv' or 'synth'")
        models = []
        for entry in obj["models"]:
            label = str(entry["label"])
            if "kind" in entry:
                models.append(
                    ModelEntry(label=label, forecaster=kind_from_json(entry["kind"]))
                )
            elif "ensemble" in entry:
                ens = entry["ensemble"]
                models.append(
                    ModelEntry(
                        label=label,
                        ensemble=EnsembleRequest(
                            components=tuple(
                                kind_from_json(k) for k in ens["components"]
                            ),
                            n_windows=int(ens.get("n_windows", DEFAULT_WINDOWS)),
                        ),
                    )
                )
            else:
                raise ValueError(f"model {label!r} must specify 'kind' or 'ensemble'")
        return ExperimentConfig(
            dataset=dataset,
            split=SplitSpec(
                train_length=int(obj["split"]["train_length"]),
                horizon=int(obj["split"]["horizon"]),
            ),
            models=tuple(models),
            run_count=int(obj.get("run_count", DEFAULT_RUN_COUNT)),
            master_seed=int(obj.get("master_seed", 0)),
            ensemble_iterations=int(
                obj.get("ensemble_iterations", DEFAULT_ITERATIONS)
            ),
            output_dir=obj.get("output_dir"),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad experiment config: {exc}") from exc
