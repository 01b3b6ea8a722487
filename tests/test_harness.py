from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

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
from forecast_stability.forecasters import Diverged
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


def forecasts_by_label(result):
    out = {}
    for record in result.records:
        out.setdefault(record.model_label, {})[record.run_id] = record.forecast
    return out


def test_run_seed_is_label_hash_xor_run():
    assert run_seed(9, "deepish", 3) == derive_seed(9, fnv1a64("deepish") ^ 3)


def test_deterministic_model_runs_are_identical():
    cfg = small_config([ModelEntry(label="sn", forecaster=SeasonalNaive(period=7))])
    result = run_experiment(cfg)
    runs = forecasts_by_label(result)["sn"]
    assert len(runs) == 3
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[0], runs[2])


def test_experiment_is_pure_function_of_config():
    cfg = small_config(
        [
            ModelEntry(label="sn", forecaster=SeasonalNaive(period=7)),
            ModelEntry(
                label="lar",
                forecaster=LinearAR(lags=4, epochs=4, learning_rate=0.05, batch_size=8),
            ),
        ]
    )
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert len(first.records) == len(second.records)
    for a, b in zip(first.records, second.records):
        assert a.model_label == b.model_label
        assert a.run_id == b.run_id
        assert a.seed == b.seed
        assert np.array_equal(a.forecast, b.forecast)
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
                forecaster=LinearAR(lags=4, epochs=4, learning_rate=0.05, batch_size=8),
            ),
        ),
        run_count=10,
        master_seed=1,
    )
    result = run_experiment(cfg)
    runs = forecasts_by_label(result)["lar"]
    tensor = np.stack([runs[r] for r in range(10)]).astype(float)
    grid = cv_grid(
        __import__("forecast_stability").ForecastSet(result.series_ids, tensor)
    )
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
            ModelEntry(label="sn", forecaster=SeasonalNaive(period=7)),
            ModelEntry(
                label="lar",
                forecaster=LinearAR(lags=4, epochs=2, learning_rate=0.05, batch_size=8),
            ),
        ]
    )
    run_experiment(cfg)
    # each run's seed is fitted exactly once, and every fit sees the same bytes
    for kind, label in ((SeasonalNaive, "sn"), (LinearAR, "lar")):
        assert fitted_seeds[kind] == [run_seed(5, label, r) for r in range(3)]
    assert len(digests) == 2
    assert len(set(digests)) == 1


def test_run_experiment_fits_once_per_entry_and_component(monkeypatch):
    calls = []

    def counting(module):
        real_fit = module.fit

        def counting_fit(kind, train, seeds):
            calls.append((module.__name__, type(kind).__name__, train.length, len(seeds)))
            return real_fit(kind, train, seeds)

        monkeypatch.setattr(module, "fit", counting_fit)

    counting(harness)
    counting(ensemble)
    lar = LinearAR(lags=4, epochs=2, learning_rate=0.05, batch_size=8)
    cfg = small_config(
        [
            ModelEntry(label="sn", forecaster=SeasonalNaive(period=7)),
            ModelEntry(label="lar", forecaster=lar),
            ModelEntry(
                label="ens",
                ensemble=EnsembleRequest(
                    components=(SeasonalNaive(period=7), GlobalMean(), lar), n_windows=2
                ),
            ),
        ]
    )
    run_experiment(cfg)
    run_fits = [c for c in calls if c[0] == harness.__name__]
    window_fits = [c for c in calls if c[0] == ensemble.__name__]
    # train is 33 days; the two validation windows leave 19 and 26
    assert sorted(run_fits) == sorted(
        (harness.__name__, name, 33, 3)
        for name in ("SeasonalNaive", "LinearAR", "SeasonalNaive", "GlobalMean", "LinearAR")
    )
    assert sorted(window_fits) == sorted(
        (ensemble.__name__, name, length, 3)
        for name in ("SeasonalNaive", "GlobalMean", "LinearAR")
        for length in (19, 26)
    )


def test_run_experiment_predicts_once_per_distinct_state(monkeypatch):
    calls = {"predict": [], "postprocess": 0, "predict_ensemble": 0}
    real_predict, real_postprocess = harness.predict, harness.postprocess
    real_predict_ensemble = harness.predict_ensemble

    def counting_predict(model, horizon):
        calls["predict"].append(type(model.kind).__name__)
        return real_predict(model, horizon)

    def counting_postprocess(raw):
        calls["postprocess"] += 1
        return real_postprocess(raw)

    def counting_predict_ensemble(spec, fitted, horizon):
        calls["predict_ensemble"] += 1
        return real_predict_ensemble(spec, fitted, horizon)

    monkeypatch.setattr(harness, "predict", counting_predict)
    monkeypatch.setattr(harness, "postprocess", counting_postprocess)
    monkeypatch.setattr(harness, "predict_ensemble", counting_predict_ensemble)
    lar = LinearAR(lags=4, epochs=2, learning_rate=0.05, batch_size=8)
    deterministic = EnsembleRequest(components=(SeasonalNaive(period=7), GlobalMean()))
    mixed = EnsembleRequest(components=(SeasonalNaive(period=7), lar))
    cfg = small_config(
        [
            ModelEntry(label="sn", forecaster=SeasonalNaive(period=7)),
            ModelEntry(label="lar", forecaster=lar),
            ModelEntry(label="det", ensemble=deterministic),
            ModelEntry(label="mix", ensemble=mixed),
        ]
    )
    result = run_experiment(cfg)
    # sn shares one state across its 3 runs; lar has 3; det's runs share
    # weights and states; mix's runs differ in their LinearAR component.
    assert sorted(calls["predict"]) == ["LinearAR"] * 3 + ["SeasonalNaive"]
    assert calls["predict_ensemble"] == 1 + 3
    assert calls["postprocess"] == 1 + 3 + 1 + 3
    # every run's forecast is that of its own fitted model
    panel = synth_generate(SYNTH)
    train = harness.split(panel, cfg.split)[0]
    got = forecasts_by_label(result)
    for label, kind in (("sn", SeasonalNaive(period=7)), ("lar", lar)):
        seeds = tuple(run_seed(5, label, r) for r in range(3))
        for run, model in enumerate(harness.fit(kind, train, seeds)):
            expected = real_postprocess(real_predict(model, 7))
            assert np.array_equal(got[label][run], expected)


def test_seed_collisions_are_rejected(monkeypatch, tmp_path, capsys):
    # Hashes 0 and 1 differ in the lowest bit: run 1 of "a" is run 0 of "b".
    monkeypatch.setattr(harness, "fnv1a64", {"a": 0, "b": 1}.__getitem__)
    models = [ModelEntry(label, forecaster=GlobalMean()) for label in ("a", "b")]
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
    cfg = small_config([ModelEntry(label="lar", forecaster=LinearAR(learning_rate=50))])
    seeds = [run_seed(5, "lar", r) for r in range(3)]
    with pytest.raises(Diverged, match=rf"^model 'lar', run 0 \(seed {seeds[0]}\): ") as info:
        run_experiment(cfg)
    assert info.value.runs == (0,)
    # non-finite weights: the batched fit names every run
    cfg = small_config(
        [ModelEntry(label="mlp", forecaster=TinyMLP(learning_rate=50, batch_size=8))]
    )
    seeds = [run_seed(5, "mlp", r) for r in range(3)]
    with pytest.raises(Diverged) as info:
        run_experiment(cfg)
    assert info.value.runs == (0, 1, 2)
    runs = ", ".join(f"run {r} (seed {seed})" for r, seed in enumerate(seeds))
    assert str(info.value).startswith(f"model 'mlp', {runs}: tiny_mlp diverged")
    # in an ensemble, a component's validation forecasts cannot be scored
    request = EnsembleRequest(components=(SeasonalNaive(period=7), LinearAR(learning_rate=50)))
    cfg = small_config([ModelEntry(label="ens", ensemble=request)])
    seed = run_seed(5, "ens", 0)
    with pytest.raises(Diverged, match=rf"^model 'ens', run 0 \(seed {seed}\): validation"):
        run_experiment(cfg)


def test_seed_isolation_under_model_reordering():
    entry_a = ModelEntry(label="sn", forecaster=SeasonalNaive(period=7))
    entry_b = ModelEntry(
        label="lar",
        forecaster=LinearAR(lags=4, epochs=4, learning_rate=0.05, batch_size=8),
    )
    forward = forecasts_by_label(run_experiment(small_config([entry_a, entry_b])))
    reverse = forecasts_by_label(run_experiment(small_config([entry_b, entry_a])))
    for label in ("sn", "lar"):
        for run_id in range(3):
            assert np.array_equal(forward[label][run_id], reverse[label][run_id])


def test_ensemble_entry_runs_end_to_end():
    cfg = small_config(
        [
            ModelEntry(
                label="ens",
                ensemble=EnsembleRequest(
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
    assert len(result.records) == 2
    for record in result.records:
        assert record.forecast.shape == (3, 7)
        assert np.all(record.forecast >= 0)


def test_csv_dataset_source(tmp_path):
    panel = synth_generate(SYNTH)
    path = tmp_path / "panel.csv"
    write_long_csv(panel, path)
    cfg = ExperimentConfig(
        dataset=CsvSource(path=str(path)),
        split=SplitSpec(train_length=33, horizon=7),
        models=(ModelEntry(label="gm", forecaster=GlobalMean()),),
        run_count=2,
        master_seed=0,
    )
    result = run_experiment(cfg)
    assert result.records[0].forecast.shape == (3, 7)


# ------------------------------------------------------------- persistence

def test_persist_and_load_round_trip(tmp_path):
    cfg = small_config(
        [
            ModelEntry(label="sn", forecaster=SeasonalNaive(period=7)),
            ModelEntry(
                label="lar",
                forecaster=LinearAR(lags=4, epochs=3, learning_rate=0.05, batch_size=8),
            ),
        ]
    )
    result = run_experiment(cfg)
    persist_runs(result, tmp_path)
    sets, actuals = load_runs(tmp_path)
    assert set(sets) == {"sn", "lar"}
    assert np.array_equal(actuals, result.actuals)
    in_memory = forecasts_by_label(result)
    for label, fs in sets.items():
        assert fs.run_count == 3
        assert fs.series_ids == result.series_ids  # synth ids are already sorted
        for run_id in range(3):
            assert np.array_equal(
                fs.values[run_id], in_memory[label][run_id].astype(float)
            )


def test_runs_csv_row_count(tmp_path):
    panel_cfg = SynthConfig(n_series=1, length=12, seed=2)
    cfg = ExperimentConfig(
        dataset=panel_cfg,
        split=SplitSpec(train_length=10, horizon=2),
        models=(
            ModelEntry(label="a", forecaster=GlobalMean()),
            ModelEntry(label="b", forecaster=SeasonalNaive(period=2)),
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
            ModelEntry(label="zeta", forecaster=GlobalMean()),
            ModelEntry(label="alpha", forecaster=SeasonalNaive(period=7)),
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
    cfg = small_config([ModelEntry(label="sn", forecaster=SeasonalNaive(period=7))])
    result = run_experiment(cfg)
    empty = ExperimentResult(
        records=(), actuals=result.actuals, series_ids=result.series_ids, config=cfg
    )
    with pytest.raises(EmptyExperiment):
        persist_runs(empty, tmp_path)


def test_load_runs_missing_actuals(tmp_path):
    cfg = small_config([ModelEntry(label="sn", forecaster=SeasonalNaive(period=7))])
    persist_runs(run_experiment(cfg), tmp_path)
    (tmp_path / "actuals.csv").unlink()
    with pytest.raises(FileNotFoundError):
        load_runs(tmp_path)


def test_load_runs_detects_missing_cell(tmp_path):
    cfg = small_config([ModelEntry(label="sn", forecaster=SeasonalNaive(period=7))])
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
    cfg = small_config([ModelEntry(label="sn", forecaster=SeasonalNaive(period=7))])
    persist_runs(run_experiment(cfg), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest) == {"config", "seeds", "created_at"}
    assert manifest["seeds"]["sn"] == [run_seed(5, "sn", r) for r in range(3)]
    assert manifest["config"]["run_count"] == 3


# ------------------------------------------------------------------ config

def test_config_json_round_trip():
    cfg = ExperimentConfig(
        dataset=SYNTH,
        split=SplitSpec(train_length=33, horizon=7),
        models=(
            ModelEntry(label="sn", forecaster=SeasonalNaive(period=7)),
            ModelEntry(
                label="ens",
                ensemble=EnsembleRequest(
                    components=(SeasonalNaive(period=7), GlobalMean()), n_windows=2
                ),
            ),
        ),
        run_count=4,
        master_seed=11,
        ensemble_iterations=40,
        output_dir="runs",
    )
    assert config_from_json(config_to_json(cfg)) == cfg


def test_config_json_round_trip_csv_source():
    cfg = ExperimentConfig(
        dataset=CsvSource(path="panel.csv", fill_missing=True),
        split=SplitSpec(train_length=10, horizon=2),
        models=(ModelEntry(label="gm", forecaster=GlobalMean()),),
        run_count=2,
    )
    assert config_from_json(config_to_json(cfg)) == cfg


def test_config_validation():
    with pytest.raises(ValueError):
        small_config([ModelEntry(label="sn", forecaster=SeasonalNaive())], run_count=1)
    with pytest.raises(ValueError):
        small_config(
            [
                ModelEntry(label="dup", forecaster=SeasonalNaive()),
                ModelEntry(label="dup", forecaster=GlobalMean()),
            ]
        )
    with pytest.raises(ValueError):
        ModelEntry(label="both", forecaster=GlobalMean(), ensemble=None) and ModelEntry(
            label="neither"
        )
    with pytest.raises(ValueError):
        config_from_json({"dataset": {}, "split": {}, "models": []})
