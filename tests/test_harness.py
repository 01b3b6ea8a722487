from __future__ import annotations

import copy
import hashlib
import json
import math
import platform
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forecast_stability
import forecast_stability.ensemble as ensemble
import forecast_stability.harness as harness
from forecast_stability import (
    CsvSource,
    EnsembleRequest,
    ExperimentConfig,
    GlobalMean,
    LinearAR,
    ModelEntry,
    SeasonalNaive,
    SplitSpec,
    SynthConfig,
    TinyMLP,
    cv_grid,
    derive_seed,
    fnv1a64,
    load_runs,
    persist_runs,
    run_experiment,
    synth_generate,
    write_long_csv,
)
from forecast_stability.cli import cli_main
from forecast_stability.dataset import MAX_PANEL_CELLS
from forecast_stability.forecasters import (
    MAX_BATCH_SIZE,
    MAX_EPOCHS,
    MAX_HIDDEN_DIM,
    MAX_LAGS,
    MAX_PERIOD,
    Diverged,
    InsufficientHistory,
)
from forecast_stability.harness import (
    EmptyExperiment,
    ExperimentResult,
    RaggedRuns,
    SchemaMismatch,
    config_from_json,
    config_to_json,
    run_seed,
)

SYNTH = SynthConfig(
    n_series=3,
    length=40,
    level_range=(20.0, 60.0),
    season_period=7,
    season_amplitude=5.0,
    noise_std=3.0,
    intermittency=0.0,
    seed=17,
)


def small_config(models, run_count=3, master_seed=5):
    return ExperimentConfig(
        dataset=SYNTH,
        split=SplitSpec(train_length=33, horizon=7),
        models=tuple(models),
        run_count=run_count,
        master_seed=master_seed,
    )


def test_run_seed_is_label_hash_xor_run():
    assert run_seed(9, "deepish", 3) == derive_seed(9, fnv1a64("deepish") ^ 3)


def test_deterministic_model_runs_are_identical():
    cfg = small_config([ModelEntry(label="sn", model=SeasonalNaive(period=7))])
    result = run_experiment(cfg)
    runs = result.forecasts[0]
    assert len(runs) == 3
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[0], runs[2])


def test_experiment_is_pure_function_of_config():
    cfg = small_config(
        [
            ModelEntry(label="sn", model=SeasonalNaive(period=7)),
            ModelEntry(
                label="lar",
                model=LinearAR(lags=4, epochs=4, learning_rate=0.05, batch_size=8),
            ),
        ]
    )
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert first.forecasts.shape == (2, 3, 3, 7)
    assert np.array_equal(first.forecasts, second.forecasts)
    assert np.array_equal(first.actuals, second.actuals)


def test_stochastic_model_shows_variance_across_runs():
    noisy = SynthConfig(
        n_series=8,
        length=60,
        level_range=(40.0, 120.0),
        season_period=7,
        season_amplitude=10.0,
        noise_std=6.0,
        intermittency=0.0,
        seed=23,
    )
    cfg = ExperimentConfig(
        dataset=noisy,
        split=SplitSpec(train_length=53, horizon=7),
        models=(
            ModelEntry(
                label="lar",
                model=LinearAR(lags=4, epochs=4, learning_rate=0.05, batch_size=8),
            ),
        ),
        run_count=10,
        master_seed=1,
    )
    result = run_experiment(cfg)
    grid = cv_grid(result.forecasts[0])
    assert np.any(grid.cv > 0)


def test_fixed_input_contract_across_runs(monkeypatch):
    digests = []
    fitted_seeds = {}
    real_fit = harness.fit

    def recording_fit(kind, train, seeds):
        digests.append(hashlib.sha256(train.values.tobytes()).hexdigest())
        fitted_seeds.setdefault(type(kind), []).extend(seeds)
        return real_fit(kind, train, seeds)

    monkeypatch.setattr(harness, "fit", recording_fit)
    cfg = small_config(
        [
            ModelEntry(label="sn", model=SeasonalNaive(period=7)),
            ModelEntry(
                label="lar",
                model=LinearAR(lags=4, epochs=2, learning_rate=0.05, batch_size=8),
            ),
        ]
    )
    run_experiment(cfg)
    # each run's seed is fitted exactly once, and every fit sees the same bytes
    for kind, label in ((SeasonalNaive, "sn"), (LinearAR, "lar")):
        assert fitted_seeds[kind] == [run_seed(5, label, r) for r in range(3)]
    assert len(digests) == 2
    assert len(set(digests)) == 1


def test_run_experiment_fits_once_per_entry_and_component(monkeypatch, tmp_path):
    # One line per call, appended to a file, so that fits made in forked
    # workers are counted too.
    log = tmp_path / "fits.log"

    def counting(module):
        real_fit = module.fit

        def counting_fit(kind, train, seeds):
            with log.open("a") as out:
                out.write(f"{module.__name__},{type(kind).__name__},{train.length},{len(seeds)}\n")
            return real_fit(kind, train, seeds)

        monkeypatch.setattr(module, "fit", counting_fit)

    counting(harness)
    counting(ensemble)
    lar = LinearAR(lags=4, epochs=2, learning_rate=0.05, batch_size=8)
    cfg = small_config(
        [
            ModelEntry(label="sn", model=SeasonalNaive(period=7)),
            ModelEntry(label="lar", model=lar),
            ModelEntry(
                label="ens",
                model=EnsembleRequest(
                    components=(SeasonalNaive(period=7), GlobalMean(), lar), n_windows=2
                ),
            ),
            ModelEntry(
                label="ens2",
                model=EnsembleRequest(
                    components=(GlobalMean(), SeasonalNaive(period=7), GlobalMean()),
                    n_windows=2,
                ),
            ),
        ]
    )
    run_experiment(cfg)
    calls = [
        (module, name, int(length), int(runs))
        for module, name, length, runs in (line.split(",") for line in log.read_text().splitlines())
    ]
    run_fits = [c for c in calls if c[0] == harness.__name__]
    window_fits = [c for c in calls if c[0] == ensemble.__name__]
    # train is 33 days; the two validation windows leave 19 and 26. The
    # ensembles' SeasonalNaive is the plain entry's fit, and the second
    # ensemble's GlobalMean the first's; the first's LinearAR has other
    # seeds, so it is fit again. fit_ensemble fits each listed component,
    # so ens2's GlobalMean twice per window.
    assert sorted(run_fits) == sorted(
        (harness.__name__, name, 33, 3)
        for name in ("SeasonalNaive", "LinearAR", "GlobalMean", "LinearAR")
    )
    assert sorted(window_fits) == sorted(
        (ensemble.__name__, name, length, 3)
        for name in ("SeasonalNaive", "GlobalMean", "LinearAR")
        + ("GlobalMean", "SeasonalNaive", "GlobalMean")
        for length in (19, 26)
    )


def test_run_experiment_fits_nothing_past_the_first_failure(monkeypatch, tmp_path):
    # One line per call, appended to a file, so that fits made in forked
    # workers are counted too.
    log = tmp_path / "fits.log"
    real_fit = harness.fit

    def counting_fit(kind, train, seeds):
        with log.open("a") as out:
            out.write(f"{type(kind).__name__}\n")
        return real_fit(kind, train, seeds)

    monkeypatch.setattr(harness, "fit", counting_fit)
    lar = ModelEntry(label="lar", model=LinearAR(lags=4, epochs=1, batch_size=8))
    mlp = ModelEntry(label="mlp", model=TinyMLP(lags=4, hidden_dim=3, epochs=1, batch_size=8))
    # The ensemble's 10 windows of 7 days need 77 of train's 33 days:
    # fit_ensemble fails before any fit of it or of the entries after it.
    short = EnsembleRequest(components=(GlobalMean(), lar.model), n_windows=10)
    cfg = small_config([lar, ModelEntry(label="ens", model=short), mlp])
    with pytest.raises(InsufficientHistory, match=r"^model 'ens': 10 validation windows"):
        run_experiment(cfg)
    assert log.read_text().split() == ["LinearAR"]
    # A failed fit stops this process's fits; only a forked worker may
    # have fit the other seeded entry meanwhile.
    log.unlink()
    cfg = small_config([ModelEntry(label="sn", model=SeasonalNaive(period=1000)), lar, mlp])
    with pytest.raises(InsufficientHistory, match=r"^model 'sn': need at least 1000"):
        run_experiment(cfg)
    assert log.read_text().split() in (["SeasonalNaive"], ["SeasonalNaive", "TinyMLP"])


def test_run_experiment_predicts_once_per_distinct_state(monkeypatch):
    calls = {"predict": [], "postprocess": 0, "predict_ensemble": 0, "component": []}
    real_predict, real_postprocess = harness.predict, harness.postprocess
    real_predict_ensemble = harness.predict_ensemble

    def counting_predict(model, horizon):
        calls["predict"].append(type(model.kind).__name__)
        return real_predict(model, horizon)

    def counting_component_predict(model, horizon):
        calls["component"].append(type(model.kind).__name__)
        return real_predict(model, horizon)

    def counting_postprocess(raw):
        calls["postprocess"] += 1
        return real_postprocess(raw)

    def counting_predict_ensemble(components, weights, fitted, horizon):
        calls["predict_ensemble"] += 1
        # only the component predictions, not those of validation windows
        with monkeypatch.context() as patch:
            patch.setattr(ensemble, "predict", counting_component_predict)
            return real_predict_ensemble(components, weights, fitted, horizon)

    monkeypatch.setattr(harness, "predict", counting_predict)
    monkeypatch.setattr(harness, "postprocess", counting_postprocess)
    monkeypatch.setattr(harness, "predict_ensemble", counting_predict_ensemble)
    lar = LinearAR(lags=4, epochs=2, learning_rate=0.05, batch_size=8)
    deterministic = EnsembleRequest(components=(SeasonalNaive(period=7), GlobalMean()))
    mixed = EnsembleRequest(components=(SeasonalNaive(period=7), lar))
    cfg = small_config(
        [
            ModelEntry(label="sn", model=SeasonalNaive(period=7)),
            ModelEntry(label="lar", model=lar),
            ModelEntry(label="det", model=deterministic),
            ModelEntry(label="mix", model=mixed),
        ]
    )
    result = run_experiment(cfg)
    # sn's 3 runs share one model; lar has 3; det's runs share weights and
    # models; mix's runs share their SeasonalNaive but not their LinearAR.
    assert sorted(calls["predict"]) == ["LinearAR"] * 3 + ["SeasonalNaive"]
    assert calls["predict_ensemble"] == 2
    assert sorted(calls["component"]) == sorted(
        ["SeasonalNaive", "GlobalMean"] + ["SeasonalNaive"] + ["LinearAR"] * 3
    )
    assert calls["postprocess"] == 1 + 3 + 1 + 3
    # every run's forecast is that of its own fitted model
    panel = synth_generate(SYNTH)
    train = harness.split(panel, cfg.split)[0]
    for m, (label, kind) in enumerate((("sn", SeasonalNaive(period=7)), ("lar", lar))):
        seeds = tuple(run_seed(5, label, r) for r in range(3))
        for run, model in enumerate(harness.fit(kind, train, seeds)):
            expected = real_postprocess(real_predict(model, 7))
            assert np.array_equal(result.forecasts[m, run], expected)


def test_seed_collisions_are_rejected(monkeypatch, tmp_path, capsys):
    # Hashes 0 and 1 differ in the lowest bit: run 1 of "a" is run 0 of "b".
    monkeypatch.setattr(harness, "fnv1a64", {"a": 0, "b": 1}.__getitem__)
    models = [ModelEntry(label, model=GlobalMean()) for label in ("a", "b")]
    seed = derive_seed(5, 1)
    message = rf"^model 'a' run 1 and model 'b' run 0 share seed {seed}$"
    with pytest.raises(ValueError, match=message):
        small_config(models)
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(config_to_json(small_config(models[:1]))))
    obj = json.loads(config.read_text())
    obj["models"].append({"label": "b", "kind": obj["models"][0]["kind"]})
    config.write_text(json.dumps(obj))
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 2
    assert "model 'a' run 1 and model 'b' run 0 share seed" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_model_names_label_run_and_seed():
    # finite but huge weights: predict overflows and postprocess rejects it
    cfg = small_config([ModelEntry(label="lar", model=LinearAR(learning_rate=50))])
    seeds = [run_seed(5, "lar", r) for r in range(3)]
    with pytest.raises(Diverged, match=rf"^model 'lar', run 0 \(seed {seeds[0]}\): ") as info:
        run_experiment(cfg)
    assert info.value.runs == (0,)
    # non-finite weights: the batched fit names every run
    cfg = small_config(
        [ModelEntry(label="mlp", model=TinyMLP(learning_rate=50, batch_size=8))]
    )
    seeds = [run_seed(5, "mlp", r) for r in range(3)]
    with pytest.raises(Diverged) as info:
        run_experiment(cfg)
    assert info.value.runs == (0, 1, 2)
    runs = ", ".join(f"run {r} (seed {seed})" for r, seed in enumerate(seeds))
    assert str(info.value).startswith(f"model 'mlp', {runs}: tiny_mlp diverged")
    # in an ensemble, a component's validation forecasts cannot be scored
    request = EnsembleRequest(components=(SeasonalNaive(period=7), LinearAR(learning_rate=50)))
    cfg = small_config([ModelEntry(label="ens", model=request)])
    seed = run_seed(5, "ens", 0)
    with pytest.raises(Diverged, match=rf"^model 'ens', run 0 \(seed {seed}\): validation"):
        run_experiment(cfg)


def test_fit_and_ensemble_errors_name_the_model(monkeypatch):
    cfg = small_config([ModelEntry(label="sn", model=SeasonalNaive(period=1000))])
    with pytest.raises(InsufficientHistory, match=r"^model 'sn': need at least 1000 .* have 33$"):
        run_experiment(cfg)
    request = EnsembleRequest(components=(SeasonalNaive(period=1000), GlobalMean()))
    cfg = small_config([ModelEntry(label="ens", model=request)])
    with pytest.raises(InsufficientHistory, match=r"^model 'ens': need at least 1000 .* have 19$"):
        run_experiment(cfg)

    def dominated(*args):
        raise ensemble.DominanceViolation("selection scored worse than its best member")

    monkeypatch.setattr(harness, "fit_ensemble", dominated)
    with pytest.raises(ensemble.DominanceViolation, match="^model 'ens': selection scored"):
        run_experiment(cfg)


def test_seed_isolation_under_model_reordering():
    entry_a = ModelEntry(label="sn", model=SeasonalNaive(period=7))
    entry_b = ModelEntry(
        label="lar",
        model=LinearAR(lags=4, epochs=4, learning_rate=0.05, batch_size=8),
    )
    forward = run_experiment(small_config([entry_a, entry_b])).forecasts
    reverse = run_experiment(small_config([entry_b, entry_a])).forecasts
    assert np.array_equal(forward, reverse[::-1])


def test_ensemble_entry_runs_end_to_end():
    cfg = small_config(
        [
            ModelEntry(
                label="ens",
                model=EnsembleRequest(
                    components=(
                        SeasonalNaive(period=7),
                        GlobalMean(),
                        LinearAR(lags=4, epochs=3, learning_rate=0.05, batch_size=8),
                    ),
                    n_windows=2,
                ),
            )
        ],
        run_count=2,
    )
    result = run_experiment(cfg)
    assert result.forecasts.shape == (1, 2, 3, 7)
    assert np.all(result.forecasts >= 0)


def test_csv_dataset_source(tmp_path):
    panel = synth_generate(SYNTH)
    path = tmp_path / "panel.csv"
    write_long_csv(panel, path)
    cfg = ExperimentConfig(
        dataset=CsvSource(path=str(path)),
        split=SplitSpec(train_length=33, horizon=7),
        models=(ModelEntry(label="gm", model=GlobalMean()),),
        run_count=2,
        master_seed=0,
    )
    result = run_experiment(cfg)
    assert result.forecasts.shape == (1, 2, 3, 7)


def test_forecast_grid_is_bounded_before_any_fit(monkeypatch, tmp_path, capsys):
    # 5 models x 10 000 runs x 100 series x 2500 steps of int64 is 100 GB of
    # forecasts from a 2 MB panel; a fit would mean the bound came too late.
    monkeypatch.setattr(harness, "fit", lambda *args: pytest.fail("a fit ran"))
    panel = SynthConfig(n_series=100, length=2600, seed=3)
    cfg = ExperimentConfig(
        dataset=panel,
        split=SplitSpec(train_length=100, horizon=2500),
        models=tuple(ModelEntry(f"m{i}", GlobalMean()) for i in range(5)),
        run_count=10_000,
    )
    cells = 5 * 10_000 * 100 * 2500
    assert cells * 8 == 10**11
    message = (
        f"run_count 10000 x 5 models x 100 series x 2500 steps is {cells} forecast cells, "
        f"more than {MAX_PANEL_CELLS}"
    )
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * panel.n_series * panel.length * 8
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(config_to_json(cfg)))
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 2
    assert message in capsys.readouterr().err


# ------------------------------------------------------------- persistence

def test_persist_and_load_round_trip(tmp_path):
    cfg = small_config(
        [
            ModelEntry(label="sn", model=SeasonalNaive(period=7)),
            ModelEntry(
                label="lar",
                model=LinearAR(lags=4, epochs=3, learning_rate=0.05, batch_size=8),
            ),
        ]
    )
    result = run_experiment(cfg)
    persist_runs(result, tmp_path)
    sets, actuals = load_runs(tmp_path)
    assert set(sets) == {"sn", "lar"}
    assert np.array_equal(actuals, result.actuals)
    for fs in sets.values():
        assert fs.series_ids == result.series_ids  # synth ids are already sorted
    # The sets, stacked in roster order, are the result's one grid.
    stacked = np.stack([sets[entry.label].values for entry in cfg.models])
    assert np.array_equal(stacked, result.forecasts.astype(float))


def test_runs_csv_row_count(tmp_path):
    panel_cfg = SynthConfig(n_series=1, length=12, seed=2)
    cfg = ExperimentConfig(
        dataset=panel_cfg,
        split=SplitSpec(train_length=10, horizon=2),
        models=(
            ModelEntry(label="a", model=GlobalMean()),
            ModelEntry(label="b", model=SeasonalNaive(period=2)),
        ),
        run_count=2,
        master_seed=0,
    )
    persist_runs(run_experiment(cfg), tmp_path)
    lines = (tmp_path / "runs.csv").read_text().strip().splitlines()
    assert lines[0] == "model,run_id,item_id,h,value"
    assert len(lines) - 1 == 2 * 2 * 1 * 2  # models x runs x items x steps


def test_runs_csv_is_sorted(tmp_path):
    cfg = small_config(
        [
            ModelEntry(label="zeta", model=GlobalMean()),
            ModelEntry(label="alpha", model=SeasonalNaive(period=7)),
        ],
        run_count=2,
    )
    persist_runs(run_experiment(cfg), tmp_path)
    rows = (tmp_path / "runs.csv").read_text().strip().splitlines()[1:]
    keys = []
    for row in rows:
        model, run_id, item, h, _ = row.split(",")
        keys.append((model, int(run_id), item, int(h)))
    assert keys == sorted(keys)


def test_persist_empty_experiment_rejected(tmp_path):
    cfg = small_config([ModelEntry(label="sn", model=SeasonalNaive(period=7))])
    result = run_experiment(cfg)
    with pytest.raises(RaggedRuns):
        ExperimentResult([], result.actuals, result.series_ids, cfg)
    # nor does a runs.csv with no rows read back
    persist_runs(result, tmp_path)
    (tmp_path / "runs.csv").write_text("model,run_id,item_id,h,value\n")
    with pytest.raises(EmptyExperiment):
        load_runs(tmp_path)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda grid: grid[:1], r"not \(1, 3, 2, 7\) int64"),
        (lambda grid: np.concatenate([grid, grid[:1]]), r"not \(3, 3, 2, 7\) int64"),
        (lambda grid: grid[:, :2], r"not \(2, 2, 2, 7\) int64"),
        (lambda grid: grid[:, :, :1], r"not \(2, 3, 1, 7\) int64"),
        (lambda grid: grid.astype(float), "float64$"),
        (lambda grid: np.stack([grid[0], grid[1] - 1]), "^model 'b': negative forecasts$"),
        # Lists of runs, as run_experiment passes them: model b has a run
        # fewer, or run 1 of model a a step fewer.
        (lambda grid: [list(grid[0]), list(grid[1, :2])], "do not stack into one grid"),
        (lambda grid: [[grid[0, 0], grid[0, 1, :, :6], grid[0, 2]], list(grid[1])], "do not stack"),
    ],
    ids=["missing-model", "extra-model", "run-count", "series", "float", "negative",
         "ragged-runs", "ragged-steps"],
)
def test_result_grids_must_match_the_config(change, message):
    cfg = small_config([ModelEntry(label, model=GlobalMean()) for label in "ab"])
    grid = np.zeros((2, 3, 2, 7), np.int64)
    actuals = np.zeros((2, 7))
    result = ExperimentResult(grid, actuals, ("x", "y"), cfg)
    assert not result.forecasts.flags.writeable
    grid[0, 0, 0, 0] = 1  # the result holds a copy
    assert result.forecasts[0, 0, 0, 0] == 0
    assert not result.actuals.flags.writeable
    actuals[0, 0] = 1
    assert result.actuals[0, 0] == 0
    with pytest.raises(RaggedRuns, match=message):
        ExperimentResult(change(grid), actuals, ("x", "y"), cfg)


@pytest.mark.parametrize(
    "actuals",
    [np.zeros((3, 7)), np.zeros((2, 6)), np.zeros(14), np.array([[np.nan] * 7, [0.0] * 7])],
    ids=["series", "horizon", "flat", "nan"],
)
def test_result_actuals_must_be_a_finite_series_by_horizon_grid(tmp_path, actuals):
    cfg = small_config([ModelEntry("a", GlobalMean())])
    grid = np.zeros((1, 3, 2, 7), np.int64)
    with pytest.raises(RaggedRuns, match="actuals"):
        persist_runs(ExperimentResult(grid, actuals, ("x", "y"), cfg), tmp_path)
    assert not any(tmp_path.iterdir())


def test_load_runs_missing_actuals(tmp_path):
    cfg = small_config([ModelEntry(label="sn", model=SeasonalNaive(period=7))])
    persist_runs(run_experiment(cfg), tmp_path)
    (tmp_path / "actuals.csv").unlink()
    with pytest.raises(FileNotFoundError):
        load_runs(tmp_path)


def test_load_runs_detects_missing_cell(tmp_path):
    cfg = small_config([ModelEntry(label="sn", model=SeasonalNaive(period=7))])
    persist_runs(run_experiment(cfg), tmp_path)
    runs_path = tmp_path / "runs.csv"
    lines = runs_path.read_text().strip().splitlines()
    runs_path.write_text("\n".join(lines[:-1]) + "\n")  # drop one cell
    with pytest.raises(RaggedRuns):
        load_runs(tmp_path)


def test_load_runs_rejects_bad_header(tmp_path):
    (tmp_path / "runs.csv").write_text("a,b,c\n")
    (tmp_path / "actuals.csv").write_text("item_id,h,value\nx,1,1\n")
    with pytest.raises(SchemaMismatch):
        load_runs(tmp_path)


def test_manifest_contents(tmp_path):
    cfg = small_config([ModelEntry(label="sn", model=SeasonalNaive(period=7))])
    persist_runs(run_experiment(cfg), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest) == {"config", "seeds", "provenance", "created_at"}
    assert manifest["seeds"]["sn"] == [run_seed(5, "sn", r) for r in range(3)]
    assert manifest["config"]["run_count"] == 3
    assert config_from_json(manifest["config"]) == cfg
    canonical = json.dumps(config_to_json(cfg), sort_keys=True).encode("utf-8")
    build = np.show_config(mode="dicts")
    blas = build["Build Dependencies"]["blas"]
    assert manifest["provenance"] == {
        "package": forecast_stability.__version__,
        "numpy": np.__version__,
        "blas": {"name": blas["name"], "version": blas["version"]},
        "simd": build["SIMD Extensions"]["found"],
        "python": platform.python_version(),
        "system": platform.system(),
        "machine": platform.machine(),
        "config_sha256": hashlib.sha256(canonical).hexdigest(),
    }


# ------------------------------------------------------------------ config

def test_config_json_round_trip():
    cfg = ExperimentConfig(
        dataset=SYNTH,
        split=SplitSpec(train_length=33, horizon=7),
        models=(
            ModelEntry(label="sn", model=SeasonalNaive(period=7)),
            ModelEntry(
                label="ens",
                model=EnsembleRequest(
                    components=(SeasonalNaive(period=7), GlobalMean()), n_windows=2
                ),
            ),
        ),
        run_count=4,
        master_seed=11,
        ensemble_iterations=40,
    )
    assert config_from_json(config_to_json(cfg)) == cfg
    assert json.loads(json.dumps(config_to_json(cfg))) == {
        "dataset": {
            "synth": {
                "n_series": 3,
                "length": 40,
                "level_range": [20.0, 60.0],
                "season_period": 7,
                "season_amplitude": 5.0,
                "noise_std": 3.0,
                "intermittency": 0.0,
                "seed": 17,
            }
        },
        "split": {"train_length": 33, "horizon": 7},
        "models": [
            {"label": "sn", "kind": {"kind": "seasonal_naive", "params": {"period": 7}}},
            {
                "label": "ens",
                "ensemble": {
                    "components": [
                        {"kind": "seasonal_naive", "params": {"period": 7}},
                        {"kind": "global_mean", "params": {}},
                    ],
                    "n_windows": 2,
                },
            },
        ],
        "run_count": 4,
        "master_seed": 11,
        "ensemble_iterations": 40,
    }


def test_config_json_round_trip_csv_source():
    cfg = ExperimentConfig(
        dataset=CsvSource(path="panel.csv", fill_missing=True),
        split=SplitSpec(train_length=10, horizon=2),
        models=(ModelEntry(label="gm", model=GlobalMean()),),
        run_count=2,
    )
    assert config_from_json(config_to_json(cfg)) == cfg
    assert json.loads(json.dumps(config_to_json(cfg))) == {
        "dataset": {"csv": "panel.csv", "fill_missing": True},
        "split": {"train_length": 10, "horizon": 2},
        "models": [{"label": "gm", "kind": {"kind": "global_mean", "params": {}}}],
        "run_count": 2,
        "master_seed": 0,
        "ensemble_iterations": 100,
    }


def test_config_validation():
    with pytest.raises(ValueError):
        small_config([ModelEntry(label="sn", model=SeasonalNaive())], run_count=1)
    with pytest.raises(ValueError):
        small_config(
            [
                ModelEntry(label="dup", model=SeasonalNaive()),
                ModelEntry(label="dup", model=GlobalMean()),
            ]
        )
    with pytest.raises(ValueError, match="model 'x' must be a forecaster kind or an ensemble"):
        ModelEntry("x", None)
    with pytest.raises(ValueError, match="^ensemble request needs at least one component$"):
        EnsembleRequest(components=())
    with pytest.raises(ValueError, match="^experiment needs at least one model$"):
        small_config([])
    with pytest.raises(ValueError):
        config_from_json({"dataset": {}, "split": {}, "models": []})


# A config every fault case below breaks in one place; it reads as is.
VALID_JSON = {
    "dataset": {"synth": {"n_series": 3, "length": 40, "seed": 17}},
    "split": {"train_length": 33, "horizon": 7},
    "models": [
        {"label": "sn", "kind": {"kind": "seasonal_naive", "params": {"period": 7}}},
        {"label": "lar", "kind": {"kind": "linear_ar", "params": {"lags": 4, "epochs": 2}}},
        {
            "label": "ens",
            "ensemble": {"components": [{"kind": "global_mean"}], "n_windows": 2},
        },
    ],
    "run_count": 2,
}
CSV_DATASET = {"csv": "data.csv", "fill_missing": False}


def _set(*path, value):
    def fault(obj):
        *parents, last = path
        inner = obj
        for key in parents:
            inner = inner[key]
        inner[last] = value
        return obj

    return fault


def _with_csv(fault):
    return lambda obj: fault({**obj, "dataset": copy.deepcopy(CSV_DATASET)})


CONFIG_FAULTS = {
    "unknown-top": (_set("run_cont", value=3), "run_cont: unknown key"),
    "output-dir": (_set("output_dir", value="runs"), "output_dir: unknown key"),
    "unknown-split": (_set("split", "horizn", value=7), "split.horizn: unknown key"),
    "unknown-csv": (
        _with_csv(_set("dataset", "fill_mising", value=True)),
        "dataset.fill_mising: unknown key",
    ),
    "unknown-synth": (
        _set("dataset", "synth", "intermitency", value=0.5),
        "dataset.synth.intermitency: unknown key",
    ),
    "unknown-beside-synth": (
        _set("dataset", "fill_missing", value=False),
        "dataset.fill_missing: unknown key",
    ),
    "unknown-entry": (_set("models", 0, "lable", value="x"), "models[0].lable: unknown key"),
    "field-name-as-key": (
        _set("models", 0, "forecaster", value=None),
        "models[0].forecaster: unknown key",
    ),
    "unknown-ensemble": (
        _set("models", 2, "ensemble", "n_window", value=2),
        "models[2].ensemble.n_window: unknown key",
    ),
    "zero-windows": (
        _set("models", 2, "ensemble", "n_windows", value=0),
        "models[2].ensemble: n_windows must be >= 1",
    ),
    "zero-iterations": (
        _set("ensemble_iterations", value=0),
        "config: ensemble_iterations must be >= 1",
    ),
    "unknown-kind": (
        _set("models", 1, "kind", "param", value={}),
        "models[1].kind.param: unknown key",
    ),
    "unknown-params": (
        _set("models", 1, "kind", "params", "lag", value=4),
        "models[1].kind.params.lag: unknown key",
    ),
    "fractional-run-count": (
        _set("run_count", value=3.9),
        "run_count: expected int, got 3.9",
    ),
    "fractional-n-series": (
        _set("dataset", "synth", "n_series", value=200.7),
        "dataset.synth.n_series: expected int, got 200.7",
    ),
    "bool-seed": (
        _set("dataset", "synth", "seed", value=True),
        "dataset.synth.seed: expected int, got True",
    ),
    "string-flag": (
        _with_csv(_set("dataset", "fill_missing", value="false")),
        "dataset.fill_missing: expected bool, got 'false'",
    ),
    "fractional-lags": (
        _set("models", 1, "kind", "params", "lags", value=7.5),
        "models[1].kind.params.lags: expected int, got 7.5",
    ),
    "int-label": (_set("models", 0, "label", value=5), "models[0].label: expected str, got 5"),
    "kind-and-ensemble": (
        _set("models", 0, "ensemble", value=VALID_JSON["models"][2]["ensemble"]),
        "models[0]: expected exactly one of 'kind' and 'ensemble'",
    ),
    "missing-split": (
        lambda obj: {key: value for key, value in obj.items() if key != "split"},
        "split: missing",
    ),
    "not-an-object": (lambda obj: [obj], "config: expected an object, got [{"),
    **{
        f"{name}-{value}": (
            _set(*path, value=float(value)),
            f"{where}: expected a finite float, got {float(value)!r}",
        )
        for name, path, where in (
            ("noise", ("dataset", "synth", "noise_std"), "dataset.synth.noise_std"),
            (
                "rate",
                ("models", 1, "kind", "params", "learning_rate"),
                "models[1].kind.params.learning_rate",
            ),
        )
        for value in ("nan", "inf", "-inf")
    },
}


def test_valid_config_json_reads():
    cfg = config_from_json(copy.deepcopy(VALID_JSON))
    assert cfg.dataset == SynthConfig(n_series=3, length=40, seed=17)
    assert cfg.models[1].model == LinearAR(lags=4, epochs=2)
    assert cfg.models[2].model == EnsembleRequest(components=(GlobalMean(),), n_windows=2)
    assert config_from_json(_with_csv(dict)(VALID_JSON)).dataset == CsvSource("data.csv")


@pytest.mark.parametrize(("fault", "message"), CONFIG_FAULTS.values(), ids=CONFIG_FAULTS)
def test_config_faults_name_their_key_path(fault, message):
    obj = fault(copy.deepcopy(VALID_JSON))
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        config_from_json(obj)


def test_ints_read_as_floats_and_bools_as_nothing_else():
    synth = {"n_series": 2, "length": 5, "noise_std": 5, "level_range": [40, 110]}
    cfg = harness.synth_from_json(synth)
    assert cfg.noise_std == 5.0 and type(cfg.noise_std) is float
    assert cfg.level_range == (40.0, 110.0)
    for key, value, message in [
        ("noise_std", True, "expected float, got True"),
        ("noise_std", "5", "expected float, got '5'"),
        ("noise_std", 10**400, "expected float, got 1000"),
        ("level_range", [40], "expected 2 items, got 1"),
        ("level_range", {"lo": 40}, "expected an array, got {"),
    ]:
        with pytest.raises(ValueError, match=f"^{key}: " + re.escape(message)):
            harness.synth_from_json({**synth, key: value})


@pytest.mark.parametrize(
    ("fault", "message"),
    [
        CONFIG_FAULTS["fractional-lags"],
        CONFIG_FAULTS["unknown-top"],
        (_set("run_count", value=1), "config: run_count must be >= 2"),
        (_set("run_count", value=10_001), "config: run_count must be <= 10000"),
        (_set("run_count", value=10**400), "config: run_count must be <= 10000"),
        (
            _set("models", 1, "kind", "params", "lags", value=10**9),
            "models[1].kind.params: LinearAR.lags must be <= 1000",
        ),
        (
            _set(
                "models", 1, "kind", value={"kind": "tiny_mlp", "params": {"hidden_dim": 10**11}}
            ),
            "models[1].kind.params: TinyMLP.hidden_dim must be <= 256",
        ),
        (
            _set(
                "models", 1, "kind", value={"kind": "tiny_mlp", "params": {"batch_size": 10**9}}
            ),
            "models[1].kind.params: TinyMLP.batch_size must be <= 1024",
        ),
        (
            _set("models", 0, "kind", "params", "period", value=2**63 - 1),
            "models[0].kind.params: SeasonalNaive.period must be <= 10000",
        ),
        (
            _set("dataset", "synth", "noise_std", value=1e308),
            "dataset.synth: level_range max + season_amplitude + 9 * noise_std must be finite",
        ),
    ],
    ids=[
        "lags", "top-key", "run-count", "run-count-above-bound", "run-count-huge",
        "lags-above-bound", "hidden-dim-above-bound", "batch-size-above-bound",
        "period-above-bound", "panel-beyond-float-range",
    ],
)
def test_cli_run_rejects_bad_config(tmp_path, capsys, fault, message):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(fault(copy.deepcopy(VALID_JSON))))
    out = tmp_path / "runs"
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_cli_generate_rejects_bad_config(tmp_path, capsys):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"n_series": 200.7, "length": 40}))
    out = tmp_path / "data.csv"
    assert cli_main(["generate", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: n_series: expected int, got 200.7\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "synth",
    [
        {"noise_std": 1e308},
        {"level_range": [0, 1e308], "season_amplitude": 1e308},
    ],
    ids=["noise", "level-and-season"],
)
def test_cli_generate_rejects_a_panel_beyond_float_range(tmp_path, capsys, synth):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"n_series": 3, "length": 40, **synth}))
    out = tmp_path / "data.csv"
    assert cli_main(["generate", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: config: level_range max + season_amplitude + 9 * noise_std must be finite\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "run"])
def test_cli_names_a_config_that_is_not_json(tmp_path, capsys, command):
    config = tmp_path / "config.json"
    config.write_text('{"n_series": 2,')
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {config}: Expecting property name")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "run"])
def test_cli_names_a_config_that_is_not_utf8(tmp_path, capsys, command):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"n_series": 2,\n "length": "\x93"}')
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {config}:2: not UTF-8: byte 0x93 at column 13\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: LinearAR(learning_rate=x),
        lambda x: TinyMLP(learning_rate=x),
        lambda x: SynthConfig(n_series=1, length=1, noise_std=x),
        lambda x: SynthConfig(n_series=1, length=1, season_amplitude=x),
        lambda x: SynthConfig(n_series=1, length=1, level_range=(0.0, x)),
    ],
    ids=["linear_ar", "tiny_mlp", "noise_std", "season_amplitude", "level_range"],
)
def test_constructors_reject_non_finite_floats(build, value):
    with pytest.raises(ValueError, match="finite|inf"):
        build(value)


def test_readme_experiment_config_reads():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"`experiment.json`\):\n\n```json\n(.*?)```", readme, re.S)
    cfg = config_from_json(json.loads(block.group(1)))
    assert [entry.label for entry in cfg.models] == ["seasonal_naive", "linear_ar", "ensemble"]
    assert config_from_json(json.loads(json.dumps(config_to_json(cfg)))) == cfg


def test_readme_quickstart_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S)
    exec(block.group(1), {})
    q25, q50, q75, q90 = map(float, re.findall(r"[\d.]+", capsys.readouterr().out))
    assert 0 <= q25 <= q50 <= q75 <= q90
    assert q90 > 0


TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
POSITIVE = st.integers(1, 2**40)
EPOCHS = st.integers(1, MAX_EPOCHS)
LAGS = st.integers(1, MAX_LAGS)
BATCHES = st.integers(1, MAX_BATCH_SIZE)
RATES = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
KINDS = st.one_of(
    st.builds(SeasonalNaive, period=st.integers(1, MAX_PERIOD)),
    st.builds(GlobalMean),
    st.builds(
        LinearAR, lags=LAGS, epochs=EPOCHS, learning_rate=RATES, batch_size=BATCHES
    ),
    st.builds(
        TinyMLP,
        lags=LAGS,
        hidden_dim=st.integers(1, MAX_HIDDEN_DIM),
        epochs=EPOCHS,
        learning_rate=RATES,
        batch_size=BATCHES,
    ),
)


@st.composite
def synth_configs(draw):
    size = st.floats(min_value=0.0, max_value=1e12)
    low = draw(size)
    n_series = draw(st.integers(1, MAX_PANEL_CELLS))
    return SynthConfig(
        n_series=n_series,
        length=draw(st.integers(1, MAX_PANEL_CELLS // n_series)),
        level_range=(low, low + draw(size)),
        season_period=draw(POSITIVE),
        season_amplitude=draw(size),
        noise_std=draw(size),
        intermittency=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@st.composite
def experiment_configs(draw):
    labels = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    ensembles = st.builds(
        EnsembleRequest, components=st.lists(KINDS, min_size=1, max_size=4), n_windows=POSITIVE
    )
    models = [ModelEntry(label, draw(KINDS | ensembles)) for label in labels]
    csv_sources = st.builds(CsvSource, path=TEXT, fill_missing=st.booleans())
    return ExperimentConfig(
        dataset=draw(synth_configs() | csv_sources),
        split=SplitSpec(train_length=draw(POSITIVE), horizon=draw(POSITIVE)),
        models=tuple(models),
        run_count=draw(st.integers(2, 5)),
        master_seed=draw(st.integers(-(2**63), 2**64 - 1)),
        ensemble_iterations=draw(st.integers(1, 10**6)),
    )


@settings(max_examples=150, deadline=None)
@given(experiment_configs())
def test_config_json_text_round_trip(cfg):
    assert config_from_json(json.loads(json.dumps(config_to_json(cfg)))) == cfg
