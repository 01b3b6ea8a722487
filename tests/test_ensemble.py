from __future__ import annotations

import itertools

import numpy as np
import pytest

from forecast_stability import (
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


@pytest.mark.parametrize(
    "horizon, n, message",
    [(10, 0, "^window count must be >= 1$"), (0, 2, "^horizon must be >= 1$"),
     (-1, 2, "^horizon must be >= 1$")],
    ids=["no-windows", "horizon-0", "horizon-negative"],
)
def test_validation_window_arguments(horizon, n, message):
    panel = make_panel(np.arange(100, dtype=float))
    with pytest.raises(ValueError, match=message):
        make_validation_windows(panel, horizon=horizon, n=n)


# ------------------------------------------------------------------ fitting

@pytest.mark.parametrize(
    "components, seeds, iterations, message",
    [
        ((), (0,), 1, "^ensemble needs at least one component$"),
        ((GlobalMean(),), (), 1, "^fit_ensemble needs at least one seed$"),
        ((GlobalMean(),), (0,), 0, "^iterations must be >= 1$"),
    ],
    ids=["no-components", "no-seeds", "no-iterations"],
)
def test_fit_ensemble_arguments(components, seeds, iterations, message):
    panel = make_panel(np.arange(1, 31, dtype=float))
    with pytest.raises(ValueError, match=message):
        fit_ensemble(components, panel, horizon=5, seeds=seeds, iterations=iterations)


def test_selection_runs_round_one_and_at_most_iterations_more(monkeypatch):
    # A scorer whose every score beats the one before: no round stops early.
    scores = itertools.count(0, -1)
    monkeypatch.setattr(ensemble, "rmse", lambda forecast, actual: float(next(scores)))
    panel = make_panel(np.arange(1, 31, dtype=float))
    weights = fit_ensemble([GlobalMean(), SeasonalNaive(period=7)], panel, horizon=5, iterations=3)
    assert weights.tolist() == [[0.0, 1.0]]
    assert next(scores) == -8  # two components scored in each of 1 + 3 rounds


def test_single_component_gets_weight_one():
    panel = make_panel(np.arange(1, 31, dtype=float))
    weights = fit_ensemble([GlobalMean()], panel, horizon=5, n_windows=2, seeds=(0,))[0]
    assert tuple(weights) == (1.0,)


def test_perfect_component_dominates():
    # seasonal naive reproduces a pure period-2 cycle exactly; the mean does not
    panel = make_panel(np.array([4.0, 10.0] * 12))
    weights = fit_ensemble(
        [SeasonalNaive(period=2), GlobalMean()], panel, horizon=2, n_windows=2, seeds=(0,)
    )[0]
    assert tuple(weights) == (1.0, 0.0)


def test_greedy_weights_match_brute_force_grid():
    # one series, one window, horizon 2; component validation forecasts are
    # exactly [10, 0] (seasonal naive) and [5, 5] (mean), actuals [7, 3]
    panel = make_panel(np.array([10.0, 0.0, 7.0, 3.0]))
    components = [SeasonalNaive(period=2), GlobalMean()]
    weights = fit_ensemble(components, panel, horizon=2, n_windows=1, seeds=(0,))[0]

    forecast_a = np.array([[10.0, 0.0]])
    forecast_b = np.array([[5.0, 5.0]])
    actual = np.array([[7.0, 3.0]])
    best_w, best_score = None, None
    for k in range(21):
        w = k * 0.05
        score = rmse(postprocess(w * forecast_a + (1 - w) * forecast_b), actual)
        if best_score is None or score < best_score:
            best_w, best_score = w, score
    assert abs(weights[0] - best_w) <= 0.05 + 1e-12


def _pooled_validation_scores(components, panel, horizon, n_windows, seed, weights):
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
    combined = sum(w * fc for w, fc in zip(weights, raw))
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
    weights = fit_ensemble(components, panel, horizon=7, n_windows=2, seeds=(seed,))[0]
    assert all(w >= 0 for w in weights)
    assert abs(sum(weights) - 1.0) <= 1e-12
    ensemble_score, single_scores = _pooled_validation_scores(
        components, panel, 7, 2, seed, weights
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
    weights = fit_ensemble(components, panel, horizon=7, n_windows=2, seeds=seeds)
    assert weights.shape == (len(seeds), len(components))
    assert weights.dtype == np.float64
    assert not weights.flags.writeable
    alone = [fit_ensemble(components, panel, horizon=7, n_windows=2, seeds=(seed,)) for seed in seeds]
    assert np.array_equal(weights, np.vstack(alone))
    # Without a seeded component, every run selects the same weights.
    deterministic = fit_ensemble(components[:2], panel, horizon=7, n_windows=2, seeds=seeds)
    assert all(np.array_equal(row, deterministic[0]) for row in deterministic)


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
    (out,) = predict_ensemble((GlobalMean(), GlobalMean()), [[1.0, 0.0]], [fitted], 3)
    assert np.array_equal(out, predict(fitted[0], 3))


def test_even_weights_average():
    fitted = [
        fit(GlobalMean(), constant_panel(2), (0,))[0],
        fit(GlobalMean(), constant_panel(4), (0,))[0],
    ]
    components = (GlobalMean(), GlobalMean())
    assert predict_ensemble(components, [[0.5, 0.5]], [fitted], 1)[0].tolist() == [[3.0]]


def test_uneven_weights_arithmetic():
    fitted = [
        fit(GlobalMean(), constant_panel(0), (0,))[0],
        fit(GlobalMean(), constant_panel(8), (0,))[0],
    ]
    components = (GlobalMean(), GlobalMean())
    assert predict_ensemble(components, [[0.25, 0.75]], [fitted], 1)[0].tolist() == [[6.0]]


def test_convexity_bound_on_cells():
    panel = synth_generate(
        SynthConfig(n_series=4, length=40, noise_std=5.0, season_amplitude=6.0, seed=9)
    )
    components = (
        SeasonalNaive(period=7),
        GlobalMean(),
        LinearAR(lags=3, epochs=4, learning_rate=0.05, batch_size=8),
    )
    weights = fit_ensemble(list(components), panel, horizon=5, n_windows=2, seeds=(3,))
    fitted = [
        fit(kind, panel, (component_seed(3, j),))[0] for j, kind in enumerate(components)
    ]
    stacked = np.stack([predict(f, 5) for f in fitted])
    (out,) = predict_ensemble(components, weights, [fitted], 5)
    assert np.all(out >= stacked.min(axis=0) - 1e-9)
    assert np.all(out <= stacked.max(axis=0) + 1e-9)


def test_misaligned_fitted_models_rejected():
    fitted = [fit(GlobalMean(), constant_panel(2), (0,))[0]]
    components, row = (GlobalMean(), GlobalMean()), [0.5, 0.5]
    with pytest.raises(LengthMismatch):
        predict_ensemble(components, [row], [fitted], 2)
    with pytest.raises(LengthMismatch):
        predict_ensemble(components, [row, row], [fitted * 2], 2)
    wrong_kind = [
        fit(SeasonalNaive(period=2), constant_panel(2), (0,))[0],
        fit(GlobalMean(), constant_panel(2), (0,))[0],
    ]
    with pytest.raises(LengthMismatch):
        predict_ensemble(components, [row], [wrong_kind], 2)


# ----------------------------------------------------------------- weights

def test_spec_validation():
    fitted = [fit(GlobalMean(), constant_panel(2), (0,))[0]]
    with pytest.raises(ValueError):
        predict_ensemble((GlobalMean(),), [[0.5]], [fitted], 2)  # not convex
    with pytest.raises(ValueError):
        predict_ensemble((GlobalMean(), GlobalMean()), [[-1.0, 2.0]], [fitted * 2], 2)
    with pytest.raises(LengthMismatch):
        predict_ensemble((GlobalMean(),), [[0.5, 0.5]], [fitted], 2)
