"""Experiment orchestration: seeded refit runs on fixed inputs.

An experiment fixes a dataset, a train/test split, and a roster of models,
then fits every model R times varying nothing but the seed. Each roster
entry, a ``ModelEntry``, labels one model: a forecaster kind or an ensemble
request. Per-run seeds are ``derive_seed(master_seed, fnv1a64(label) XOR
run_id)``, so each model's seed stream is independent of roster order and
the whole experiment is a pure function of its config. The R runs of an
entry are fit in one batched call per model. Forecasts are post-processed
(clipped, rounded) before they are recorded: stability and accuracy both
describe the numbers a planner would actually receive. A result holds them
as one (models, R, M, H) grid in roster order, the grid ``runs.csv`` stores.

Persistence is plain CSV plus a JSON manifest; see ``persist_runs``.
"""

from __future__ import annotations

import datetime as dt
import json
import platform
from dataclasses import asdict, dataclass
from itertools import product
from pathlib import Path
from typing import Mapping

import numpy as np

from . import codec
from .dataset import (
    MAX_PANEL_CELLS,
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
    EnsembleError,
    _history_needed,
    component_seed,
    fit_ensemble,
    predict_ensemble,
)
from .errors import ForecastStabilityError
from .forecasters import (
    Diverged,
    ForecasterError,
    ForecasterKind,
    _fit_jobs,
    fit,
    kind_from_json,
    kind_to_json,
    predict,
)
from .metrics import MetricsError, postprocess
from .seeding import derive_seed, fnv1a64

DEFAULT_RUN_COUNT = 10
# 1000 times the default; the seed check builds one cell per (label, run).
MAX_RUN_COUNT = 10_000

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
        if self.n_windows < 1:
            raise ValueError("n_windows must be >= 1")
        object.__setattr__(self, "components", tuple(self.components))


@dataclass(frozen=True)
class ModelEntry:
    """One labelled model in the experiment roster: a forecaster kind or an ensemble."""

    label: str
    model: ForecasterKind | EnsembleRequest

    def __post_init__(self):
        if not isinstance(self.model, ForecasterKind | EnsembleRequest):
            raise ValueError(f"model {self.label!r} must be a forecaster kind or an ensemble")


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

    def __post_init__(self):
        if self.run_count < 2:
            raise ValueError("run_count must be >= 2")
        if self.run_count > MAX_RUN_COUNT:
            raise ValueError(f"run_count must be <= {MAX_RUN_COUNT}")
        if self.ensemble_iterations < 1:
            raise ValueError("ensemble_iterations must be >= 1")
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
class ForecastSet:
    """One model's (R, M, H) forecast grid as ``load_runs`` reads it back.

    ``values[r, i, t]`` is run r's forecast for series ``series_ids[i]`` at
    horizon step t+1.
    """

    series_ids: tuple[str, ...]
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Each model's delivered forecasts plus the held-out actuals they are judged against.

    ``forecasts`` is one read-only (models, run_count, M, H) int64 grid in
    roster order, stacked here once; ``actuals`` is a read-only, finite
    (M, H) float64 grid. Raises :class:`RaggedRuns` when either does not fit.
    """

    forecasts: np.ndarray
    actuals: np.ndarray
    series_ids: tuple[str, ...]
    config: ExperimentConfig

    def __post_init__(self):
        cfg = self.config
        shape = (len(cfg.models), cfg.run_count, len(self.series_ids), cfg.split.horizon)
        actuals = np.array(self.actuals, dtype=np.float64)
        if actuals.shape != shape[2:]:
            raise RaggedRuns(f"actuals must be a {shape[2:]} grid, not a {actuals.shape} grid")
        if not np.isfinite(actuals).all():
            raise RaggedRuns("actuals must be finite")
        actuals.flags.writeable = False
        object.__setattr__(self, "actuals", actuals)
        try:
            grid = np.array(self.forecasts)
        except ValueError as exc:
            raise RaggedRuns(f"forecasts do not stack into one grid: {exc}") from None
        if grid.shape != shape or grid.dtype != np.int64:
            raise RaggedRuns(f"forecasts must be {shape} int64, not {grid.shape} {grid.dtype}")
        if (negative := np.flatnonzero((grid < 0).any(axis=(1, 2, 3)))).size:
            raise RaggedRuns(f"model {cfg.models[negative[0]].label!r}: negative forecasts")
        grid.flags.writeable = False
        object.__setattr__(self, "forecasts", grid)


def run_seed(master_seed: int, label: str, run_id: int) -> int:
    """Per-run seed: label hash keeps model streams apart, run id varies."""
    return derive_seed(master_seed, fnv1a64(label) ^ run_id)


def _run_seeds(cfg: ExperimentConfig, label: str) -> tuple[int, ...]:
    return tuple(run_seed(cfg.master_seed, label, r) for r in range(cfg.run_count))


def load_panel(source: CsvSource | SynthConfig) -> TimeSeriesDataset:
    if isinstance(source, SynthConfig):
        return synth_generate(source)
    return load_long_csv(source.path, fill_missing=source.fill_missing)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute every (model, run) cell of the experiment grid.

    Training data, split, and hyperparameters are identical across the R
    runs of a label; only the seed changes. All R runs of an entry are fit
    in one call per model (per component for an ensemble), with results
    bit-identical to fitting each seed alone. Fits on train are keyed by
    request, (kind, seeds), with no seeds for a deterministic kind, whose
    requests share one fit; run and component seeds are distinct, so no
    two seeded requests share a seed. All are made up front in one
    ``_fit_jobs`` call, which may share them among forked workers; a
    failed fit is raised where the entries reach it, so errors and their
    order are those of fitting one by one. An entry predicts each distinct
    model once and post-processes each distinct forecast once. The panel
    is freed after the split; the result stacks the forecast grid once.
    Raises ValueError, before any fit, when that grid would hold more than
    ``MAX_PANEL_CELLS`` cells. Raises on the first failure without
    emitting partial results; a fit or ensemble error names the label, and
    a :class:`Diverged` error also the run ids and seeds of the runs that
    blew up.
    """
    train, actuals = split(load_panel(cfg.dataset), cfg.split)
    horizon = cfg.split.horizon
    cells = len(cfg.models) * cfg.run_count * train.n_series * horizon
    if cells > MAX_PANEL_CELLS:
        raise ValueError(
            f"run_count {cfg.run_count} x {len(cfg.models)} models x {train.n_series} series "
            f"x {horizon} steps is {cells} forecast cells, more than {MAX_PANEL_CELLS}"
        )

    def requests(entry: ModelEntry, seeds: tuple[int, ...]) -> list[tuple]:
        if isinstance(entry.model, EnsembleRequest):
            return [
                (kind, tuple(component_seed(seed, index) for seed in seeds))
                for index, kind in enumerate(entry.model.components)
            ]
        return [(entry.model, seeds)]

    # Every fit the loop below makes, one job per request, made up front in
    # one call; a failed fit is raised where the loop reaches it. A
    # deterministic kind has one key, so its requests share one fit.
    jobs: dict[tuple, tuple] = {}
    for entry in cfg.models:
        model = entry.model
        if isinstance(model, EnsembleRequest) and train.length < _history_needed(
            horizon, model.n_windows
        ):
            break  # the loop stops here: fit_ensemble raises InsufficientHistory
        for kind, seeds in requests(entry, _run_seeds(cfg, entry.label)):
            jobs.setdefault((kind, seeds if kind.seeded else None), (kind, train, seeds))
    done = dict(zip(jobs, _fit_jobs(fit, list(jobs.values()))))

    def fit_on_train(kind: ForecasterKind, seeds: tuple[int, ...]) -> tuple:
        if isinstance(fitted := done[kind, seeds if kind.seeded else None], Exception):
            raise fitted
        return fitted

    forecasts = []
    for entry in cfg.models:
        seeds = _run_seeds(cfg, entry.label)
        try:
            # keys[r] is equal for runs with the same forecast; raw maps each
            # key to its raw forecast.
            if isinstance(entry.model, EnsembleRequest):
                components = entry.model.components
                weights = fit_ensemble(
                    components,
                    train,
                    horizon,
                    entry.model.n_windows,
                    seeds,
                    cfg.ensemble_iterations,
                )
                fitted = list(zip(*(fit_on_train(*request) for request in requests(entry, seeds))))
                keys = [(tuple(row), models) for row, models in zip(weights, fitted)]
                raw = dict(zip(keys, predict_ensemble(components, weights, fitted, horizon)))
            else:
                keys = fit_on_train(entry.model, seeds)
                raw = {model: predict(model, horizon) for model in dict.fromkeys(keys)}
            delivered: dict = {}
            for run_id, key in enumerate(keys):
                if key not in delivered:
                    try:
                        delivered[key] = postprocess(raw[key])
                    except MetricsError as exc:
                        raise Diverged(
                            f"forecast cannot be delivered: {exc}", (run_id,)
                        ) from exc
        except Diverged as exc:
            runs = ", ".join(f"run {r} (seed {seeds[r]})" for r in exc.runs)
            raise Diverged(f"model {entry.label!r}, {runs}: {exc}", exc.runs) from exc
        except (ForecasterError, EnsembleError) as exc:
            raise type(exc)(f"model {entry.label!r}: {exc}") from exc
        forecasts.append([delivered[key] for key in keys])
    return ExperimentResult(
        forecasts=forecasts,
        actuals=actuals,
        series_ids=train.series_ids,
        config=cfg,
    )


def persist_runs(result: ExperimentResult, out_dir: str | Path) -> None:
    """Write runs.csv, actuals.csv, and manifest.json into a directory.

    runs.csv rows are ``model,run_id,item_id,h,value`` sorted by that key;
    forecast values are integer literals. actuals.csv is ``item_id,h,value``
    with round-trip precision (actual demand may be fractional). The
    manifest echoes the config and the seed of every run, derived from it,
    and the provenance of the run: the package, numpy and Python versions,
    numpy's BLAS (name and version) and the SIMD extensions it found, the
    system and machine, and the sha256 of the config's canonical JSON text.
    ``created_at`` is its only field that a rerun does not reproduce.
    """
    # Here, not at the top: parsing a config need not pay for the CSV module.
    from . import __version__, tabular

    # The interpreter's own sha256 (named _sha2 from Python 3.12): hashlib
    # loads OpenSSL, about 3.7 MB more of the run stage's peak RSS.
    for module in ("_sha2", "_sha256", "hashlib"):
        try:
            sha256 = __import__(module).sha256
            break
        except ImportError:
            continue

    build = np.show_config(mode="dicts")
    blas = build["Build Dependencies"]["blas"]
    simd = build["SIMD Extensions"]["found"]

    cfg = result.config
    labels = [entry.label for entry in cfg.models]
    steps = range(1, result.actuals.shape[1] + 1)
    config = config_to_json(cfg)
    manifest = {
        "config": config,
        "seeds": {label: list(_run_seeds(cfg, label)) for label in labels},
        "provenance": {
            "package": __version__,
            "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "simd": simd,
            "python": platform.python_version(),
            "system": platform.system(),
            "machine": platform.machine(),
            "config_sha256": sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest(),
        },
        "created_at": dt.datetime.now(dt.timezone.utc).isoformat(),
    }

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tabular.write_csv(
        out_dir / RUNS_FILE,
        tabular.RUNS,
        (labels, range(cfg.run_count), result.series_ids, steps),
        (result.forecasts,),
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
    """Reconstruct per-model read-only forecast grids and actuals from a directory.

    Validates that every run of a model covers the same full (item, step)
    grid, that every forecast is a nonnegative whole number, as
    ``persist_runs`` writes them, and that actuals align with the forecasts.
    """
    from . import tabular

    errors = tabular.Errors(
        SchemaMismatch, SchemaMismatch, EmptyExperiment, SchemaMismatch, RaggedRuns
    )
    runs_path = Path(path) / RUNS_FILE
    actuals_path = Path(path) / ACTUALS_FILE
    (models, run_ids, ids, steps), (forecasts,) = tabular.read_csv(runs_path, tabular.RUNS, errors)
    # One run at a time keeps the temporaries small.
    for (m, model), r in product(enumerate(models), run_ids):
        block = forecasts[m, r]
        bad = np.argwhere((block < 0) | (block != np.floor(block)))
        if bad.size:
            i, t = bad[0]
            raise SchemaMismatch(
                f"{runs_path}: cell {model},{r},{ids[i]},{steps[t]}: "
                f"forecast {float(block[i, t])!r} is not a nonnegative whole number"
            )
    axes, (actuals,) = tabular.read_csv(actuals_path, tabular.ACTUALS, errors)
    if (ids, steps) != axes:
        raise RaggedRuns(
            f"{runs_path}: the (item, h) grid does not match that of {actuals_path}"
        )
    forecasts.flags.writeable = False
    sets = {model: ForecastSet(ids, forecasts[m]) for m, model in enumerate(models)}
    return sets, actuals


def config_to_json(cfg: ExperimentConfig) -> dict:
    """JSON object form of an experiment config."""
    out = asdict(cfg)
    if isinstance(cfg.dataset, SynthConfig):
        out["dataset"] = {"synth": out["dataset"]}
    else:
        out["dataset"] = {"csv": out["dataset"].pop("path"), **out["dataset"]}
    out["models"] = [_model_to_json(entry) for entry in cfg.models]
    return out


def _model_to_json(entry: ModelEntry) -> dict:
    if isinstance(entry.model, EnsembleRequest):
        ensemble = asdict(entry.model)
        ensemble["components"] = [kind_to_json(kind) for kind in entry.model.components]
        return {"label": entry.label, "ensemble": ensemble}
    return {"label": entry.label, "kind": kind_to_json(entry.model)}


def synth_from_json(obj: Mapping, where: str = "") -> SynthConfig:
    """Parse a synthetic-panel recipe; raises ValueError naming the key path."""
    return codec.from_json(SynthConfig, obj, where)


def config_from_json(obj: Mapping) -> ExperimentConfig:
    """Parse an experiment config from its JSON object form.

    Raises ValueError naming the key path of an unknown key, a missing key
    or a wrong value, which the CLI reports as a data error.
    """
    (dataset, models), rest = codec.take(obj, "", "dataset", "models")
    dataset = _dataset_from_json(dataset, "dataset")
    models = tuple(_model_from_json(entry, at) for at, entry in codec.items(models, "models"))
    return codec.from_json(ExperimentConfig, rest, "", dataset=dataset, models=models)


def _dataset_from_json(obj: object, where: str) -> CsvSource | SynthConfig:
    # {"csv": path, "fill_missing": flag} or {"synth": {...}}
    tag, value, rest = codec.tagged(obj, where, "csv", "synth")
    if tag == "csv":
        path = codec.read(str, value, f"{where}.csv")
        return codec.from_json(CsvSource, rest, where, path=path)
    codec.take(rest, where, only=True)
    return synth_from_json(value, f"{where}.synth")


def _model_from_json(obj: object, where: str) -> ModelEntry:
    # {"label": ..., "kind": {...}} or {"label": ..., "ensemble": {...}}
    tag, value, rest = codec.tagged(obj, where, "kind", "ensemble")
    read = kind_from_json if tag == "kind" else _ensemble_from_json
    return codec.from_json(ModelEntry, rest, where, model=read(value, f"{where}.{tag}"))


def _ensemble_from_json(obj: object, where: str) -> EnsembleRequest:
    (components,), rest = codec.take(obj, where, "components")
    paths = codec.items(components, f"{where}.components")
    kinds = tuple(kind_from_json(kind, path) for path, kind in paths)
    return codec.from_json(EnsembleRequest, rest, where, components=kinds)
