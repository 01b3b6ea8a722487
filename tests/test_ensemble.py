from __future__ import annotations

import numpy as np
import pytest

from forecast_stability import (
    EnsembleSpec,
    GlobalMean,
    LinearAR,
    SeasonalNaive,
    SynthConfig,
    TinyMLP,
    fit,
    fit_ensemble,
    make_validation_windows,
    predict,
    predict_ensemble,
    synth_generate,
)
import forecast_stability.ensemble as ensemble
from forecast_stability.ensemble import DominanceViolation, LengthMismatch, component_seed
from forecast_stability.forecasters import InsufficientHistory
from forecast_stability.metrics import postprocess, rmse
from conftest import make_panel


def constant_panel(value, length=20):
    return make_panel(np.full(length, float(value)))


# ---------------------------------------------------------------- windows

def test_validation_window_arithmetic():
    panel = make_panel(np.arange(100, dtype=float))
    windows = make_validation_windows(panel, horizon=10, n=2)
    assert len(windows) == 2
    inner0, held0 = windows[0]
    inner1, held1 = windows[1]
    assert inner0.length == 80
    assert inner1.length == 90
    # held-out blocks are columns 81..90 and 91..100 (1-indexed)
    assert held0.tolist() == [list(range(80, 90))]
    assert held1.tolist() == [list(range(90, 100))]


def test_single_window():
    panel = make_panel(np.arange(30, dtype=float))
    windows = make_validation_windows(panel, horizon=10, n=1)
    assert len(windows) == 1
    assert windows[0][0].length == 20


def test_insufficient_history_for_windows():
    panel = make_panel(np.arange(25, dtype=float))
    with pytest.raises(InsufficientHistory):
        make_validation_windows(panel, horizon=10, n=2)


# ------------------------------------------------------------------ fitting

def test_single_component_gets_weight_one():
    panel = make_panel(np.arange(1, 31, dtype=float))
    spec = fit_ensemble([GlobalMean()], panel, horizon=5, n_windows=2, seeds=(0,))[0]
    assert spec.weights == (1.0,)


def test_perfect_component_dominates():
    # seasonal naive reproduces a pure period-2 cycle exactly; the mean does not
    panel = make_panel(np.array([4.0, 10.0] * 12))
    spec = fit_ensemble(
        [SeasonalNaive(period=2), GlobalMean()], panel, horizon=2, n_windows=2, seeds=(0,)
    )[0]
    assert spec.weights == (1.0, 0.0)


def test_greedy_weights_match_brute_force_grid():
    # one series, one window, horizon 2; component validation forecasts are
    # exactly [10, 0] (seasonal naive) and [5, 5] (mean), actuals [7, 3]
    panel = make_panel(np.array([10.0, 0.0, 7.0, 3.0]))
    components = [SeasonalNaive(period=2), GlobalMean()]
    spec = fit_ensemble(components, panel, horizon=2, n_windows=1, seeds=(0,))[0]

    forecast_a = np.array([[10.0, 0.0]])
    forecast_b = np.array([[5.0, 5.0]])
    actual = np.array([[7.0, 3.0]])
    best_w, best_score = None, None
    for k in range(21):
        w = k * 0.05
        score = rmse(postprocess(w * forecast_a + (1 - w) * forecast_b), actual)
        if best_score is None or score < best_score:
            best_w, best_score = w, score
    assert abs(spec.weights[0] - best_w) <= 0.05 + 1e-12


def _pooled_validation_scores(components, panel, horizon, n_windows, seed, spec):
    """Independent recomputation of pooled validation RMSE for the learned
    weights and for each single component, via the public fit/predict API."""
    windows = make_validation_windows(panel, horizon, n_windows)
    actual = np.stack([held for _, held in windows])
    raw = []
    for j, kind in enumerate(components):
        seed_j = component_seed(seed, j)
        raw.append(
            np.stack([predict(fit(kind, inner, (seed_j,))[0], horizon) for inner, _ in windows])
        )
    singles = [rmse(postprocess(fc), actual) for fc in raw]
    combined = sum(w * fc for w, fc in zip(spec.weights, raw))
    return rmse(postprocess(combined), actual), singles


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_simplex_and_dominance_on_random_panels(seed):
    panel = synth_generate(
        SynthConfig(
            n_series=5,
            length=60,
            level_range=(10.0, 120.0),
            season_period=7,
            season_amplitude=10.0,
            noise_std=6.0,
            intermittency=0.1,
            seed=seed + 100,
        )
    )
    components = [
        SeasonalNaive(period=7),
        GlobalMean(),
        LinearAR(lags=4, epochs=5, learning_rate=0.05, batch_size=8),
        TinyMLP(lags=4, hidden_dim=4, epochs=5, learning_rate=0.05, batch_size=8),
    ]
    spec = fit_ensemble(components, panel, horizon=7, n_windows=2, seeds=(seed,))[0]
    assert all(w >= 0 for w in spec.weights)
    assert abs(sum(spec.weights) - 1.0) <= 1e-12
    ensemble_score, single_scores = _pooled_validation_scores(
        components, panel, 7, 2, seed, spec
    )
    assert ensemble_score <= min(single_scores) + 1e-9


def test_batched_specs_equal_fitting_each_seed_alone():
    panel = synth_generate(
        SynthConfig(n_series=5, length=60, noise_std=6.0, season_amplitude=10.0, seed=104)
    )
    components = [
        SeasonalNaive(period=7),
        GlobalMean(),
        LinearAR(lags=4, epochs=3, learning_rate=0.05, batch_size=8),
        TinyMLP(lags=4, hidden_dim=4, epochs=3, learning_rate=0.05, batch_size=8),
    ]
    seeds = (0, 1, 2, 3, 4)
    specs = fit_ensemble(components, panel, horizon=7, n_windows=2, seeds=seeds)
    assert specs == tuple(
        fit_ensemble(components, panel, horizon=7, n_windows=2, seeds=(seed,))[0]
        for seed in seeds
    )


def test_dominance_violation_is_a_typed_error(monkeypatch):
    # a scorer that never ranks anything: the greedy result cannot be shown
    # to match the best single component, so selection must refuse it
    monkeypatch.setattr(ensemble, "rmse", lambda forecast, actual: float("nan"))
    panel = make_panel(np.arange(1, 31, dtype=float))
    with pytest.raises(DominanceViolation):
        fit_ensemble(
            [GlobalMean(), SeasonalNaive(period=7)], panel, horizon=5, iterations=3
        )


# --------------------------------------------------------------- predicting

def test_weight_one_recovers_component():
    fitted = [
        fit(GlobalMean(), constant_panel(2), (0,))[0],
        fit(GlobalMean(), constant_panel(4), (0,))[0],
    ]
    spec = EnsembleSpec(
        components=(GlobalMean(), GlobalMean()), weights=(1.0, 0.0)
    )
    out = predict_ensemble(spec, fitted, 3)
    assert np.array_equal(out, predict(fitted[0], 3))


def test_even_weights_average():
    fitted = [
        fit(GlobalMean(), constant_panel(2), (0,))[0],
        fit(GlobalMean(), constant_panel(4), (0,))[0],
    ]
    spec = EnsembleSpec(components=(GlobalMean(), GlobalMean()), weights=(0.5, 0.5))
    assert predict_ensemble(spec, fitted, 1).tolist() == [[3.0]]


def test_uneven_weights_arithmetic():
    fitted = [
        fit(GlobalMean(), constant_panel(0), (0,))[0],
        fit(GlobalMean(), constant_panel(8), (0,))[0],
    ]
    spec = EnsembleSpec(components=(GlobalMean(), GlobalMean()), weights=(0.25, 0.75))
    assert predict_ensemble(spec, fitted, 1).tolist() == [[6.0]]


def test_convexity_bound_on_cells():
    panel = synth_generate(
        SynthConfig(n_series=4, length=40, noise_std=5.0, season_amplitude=6.0, seed=9)
    )
    components = (
        SeasonalNaive(period=7),
        GlobalMean(),
        LinearAR(lags=3, epochs=4, learning_rate=0.05, batch_size=8),
    )
    spec = fit_ensemble(list(components), panel, horizon=5, n_windows=2, seeds=(3,))[0]
    fitted = [
        fit(kind, panel, (component_seed(3, j),))[0] for j, kind in enumerate(components)
    ]
    stacked = np.stack([predict(f, 5) for f in fitted])
    out = predict_ensemble(spec, fitted, 5)
    assert np.all(out >= stacked.min(axis=0) - 1e-9)
    assert np.all(out <= stacked.max(axis=0) + 1e-9)


def test_misaligned_fitted_models_rejected():
    fitted = [fit(GlobalMean(), constant_panel(2), (0,))[0]]
    spec = EnsembleSpec(components=(GlobalMean(), GlobalMean()), weights=(0.5, 0.5))
    with pytest.raises(LengthMismatch):
        predict_ensemble(spec, fitted, 2)
    wrong_kind = [
        fit(SeasonalNaive(period=2), constant_panel(2), (0,))[0],
        fit(GlobalMean(), constant_panel(2), (0,))[0],
    ]
    with pytest.raises(LengthMismatch):
        predict_ensemble(spec, wrong_kind, 2)


# -------------------------------------------------------------------- spec

def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(components=(GlobalMean(),), weights=(0.5,))  # not convex
    with pytest.raises(ValueError):
        EnsembleSpec(
            components=(GlobalMean(), GlobalMean()), weights=(-1.0, 2.0)
        )
    with pytest.raises(LengthMismatch):
        EnsembleSpec(components=(GlobalMean(),), weights=(0.5, 0.5))


def test_spec_json_round_trip():
    spec = EnsembleSpec(
        components=(SeasonalNaive(period=7), GlobalMean()),
        weights=(0.75, 0.25),
        n_validation_windows=2,
    )
    obj = spec.to_json()
    assert set(obj) == {"components", "weights", "n_validation_windows"}
    assert EnsembleSpec.from_json(obj) == spec
