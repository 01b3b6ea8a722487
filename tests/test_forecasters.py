from __future__ import annotations


import numpy as np
import pytest

from forecast_stability import (
    GlobalMean,
    LinearAR,
    SeasonalNaive,
    SynthConfig,
    TinyMLP,
    fit,
    predict,
    synth_generate,
)
from forecast_stability.forecasters import (
    MAX_BATCH_SIZE,
    MAX_HIDDEN_DIM,
    MAX_LAGS,
    Diverged,
    FittedForecaster,
    InsufficientHistory,
    kind_from_json,
    kind_to_json,
)
from forecast_stability.seeding import Rng
from conftest import make_panel

STOCHASTIC_KINDS = (
    LinearAR(lags=4, epochs=6, learning_rate=0.05, batch_size=8),
    TinyMLP(lags=4, hidden_dim=5, epochs=6, learning_rate=0.05, batch_size=8),
)


def noisy_panel(seed=1):
    return synth_generate(
        SynthConfig(
            n_series=6,
            length=50,
            level_range=(30.0, 90.0),
            season_period=7,
            season_amplitude=8.0,
            noise_std=4.0,
            intermittency=0.0,
            seed=seed,
        )
    )


# ------------------------------------------------------------ determinism

def test_deterministic_kinds_ignore_the_seed():
    panel = noisy_panel()
    for kind in (SeasonalNaive(period=7), GlobalMean()):
        a = predict(fit(kind, panel, (7,))[0], 10)
        b = predict(fit(kind, panel, (99,))[0], 10)
        assert np.array_equal(a, b)


def test_stochastic_fit_is_bitwise_reproducible():
    panel = noisy_panel()
    for kind in STOCHASTIC_KINDS:
        first = fit(kind, panel, (7,))[0]
        second = fit(kind, panel, (7,))[0]
        for key in first.state:
            assert np.array_equal(first.state[key], second.state[key]), key
        assert np.array_equal(predict(first, 8), predict(second, 8))


def test_stochastic_kinds_vary_across_seeds():
    panel = noisy_panel()
    for kind in STOCHASTIC_KINDS:
        differs = []
        for seed_a, seed_b in ((0, 1), (2, 3), (4, 5)):
            a = predict(fit(kind, panel, (seed_a,))[0], 8)
            b = predict(fit(kind, panel, (seed_b,))[0], 8)
            differs.append(not np.array_equal(a, b))
        assert any(differs), f"{kind} produced identical forecasts on all seed pairs"


# ---------------------------------------------------------- batched runs

# noisy_panel has 6 x (50 - 4) = 276 training rows: batches of 8 leave a
# short last batch of 4, and batches of 1 take the scalar BLAS paths.
BATCHED_SGD_KINDS = (
    LinearAR(lags=4, epochs=3, learning_rate=0.05, batch_size=8),
    LinearAR(lags=4, epochs=2, learning_rate=0.05, batch_size=1),
    TinyMLP(lags=4, hidden_dim=5, epochs=3, learning_rate=0.05, batch_size=8),
    TinyMLP(lags=4, hidden_dim=5, epochs=2, learning_rate=0.05, batch_size=1),
)


@pytest.mark.parametrize("seeds", [(11,), (11, 2**64 - 1, 0)])
@pytest.mark.parametrize("kind", BATCHED_SGD_KINDS)
def test_batched_fit_equals_fitting_each_seed_alone(kind, seeds):
    panel = noisy_panel()
    batched = fit(kind, panel, seeds)
    for seed, model in zip(seeds, batched):
        alone = fit(kind, panel, (seed,))[0]
        assert model.state.keys() == alone.state.keys()
        for key in alone.state:
            assert np.array_equal(model.state[key], alone.state[key]), key


def reference_sgd(kind, values, seed):
    """One seed's SGD as a plain per-run loop over a copied window matrix.

    Each row of the matrix holds a window's lags, then its target, as the
    fit reads them. A batch's lags are a view of its rows: for lags <= 3,
    OpenBLAS sums ``xb.T @ err`` over a contiguous (batch, lags) copy in
    another order than over rows of lags + 1 values, so the last bits of
    some runs would differ from the fit's.
    """
    scales = values.mean(axis=1)
    scales[scales == 0.0] = 1.0
    scaled = values / scales[:, None]
    windows = np.lib.stride_tricks.sliding_window_view(scaled, kind.lags + 1, axis=1)
    rows = windows.reshape(-1, kind.lags + 1).copy()
    rng = Rng(seed)
    if isinstance(kind, LinearAR):
        w = rng.normals(kind.lags) * (0.1 / np.sqrt(kind.lags))
        b = 0.0
    else:
        w1 = rng.normals(kind.lags * kind.hidden_dim).reshape(
            kind.lags, kind.hidden_dim
        ) * np.sqrt(1.0 / kind.lags)
        b1 = np.zeros(kind.hidden_dim)
        w2 = rng.normals(kind.hidden_dim) * np.sqrt(1.0 / kind.hidden_dim)
        b2 = 0.0
    for _ in range(kind.epochs):
        perm = np.argsort(rng.u64_array(len(rows)), kind="stable")
        for start in range(0, len(rows), kind.batch_size):
            idx = perm[start : start + kind.batch_size]
            batch = rows[idx]
            xb, yb = batch[:, :-1], batch[:, -1]
            if isinstance(kind, LinearAR):
                err = xb @ w + b - yb
                scale = 2.0 * kind.learning_rate / idx.size
                w = w - scale * (xb.T @ err)
                b = b - scale * err.sum()
            else:
                hidden = np.tanh(xb @ w1 + b1)
                err = hidden @ w2 + b2 - yb
                d_out = (2.0 / idx.size) * err
                d_hidden = np.outer(d_out, w2) * (1.0 - hidden * hidden)
                lr = kind.learning_rate
                w2 = w2 - lr * (hidden.T @ d_out)
                b2 = b2 - lr * d_out.sum()
                w1 = w1 - lr * (xb.T @ d_hidden)
                b1 = b1 - lr * d_hidden.sum(axis=0)
    if isinstance(kind, LinearAR):
        return {"weights": w, "bias": np.array(b)}
    return {"w1": w1, "b1": b1, "w2": w2, "b2": np.array(b2)}


@pytest.mark.parametrize("kind", BATCHED_SGD_KINDS)
def test_batched_fit_equals_the_per_run_reference_loop(kind):
    panel = noisy_panel()
    # R = 3, and R = 10 as in the benchmark workloads.
    for seeds in ((11, 2**64 - 1, 0), tuple(range(100, 110))):
        for seed, model in zip(seeds, fit(kind, panel, seeds)):
            for key, want in reference_sgd(kind, panel.values, seed).items():
                assert np.array_equal(model.state[key], want), key


# Record gathers at their edges, as (lags, panel length, batch size) over
# noisy_panel's 6 series. Batches of 8 make chunks of 64 rows.
RECORD_EDGES = {
    "16-byte records": (1, 50, 8),
    "one window per series": (4, 5, 8),
    "fewer rows than one chunk": (3, 12, 8),
    "328-byte records": (40, 50, 4),
}


@pytest.mark.parametrize("seeds", [(11,), tuple(range(100, 110))], ids=["R=1", "R=10"])
@pytest.mark.parametrize("edge", RECORD_EDGES.values(), ids=RECORD_EDGES.keys())
@pytest.mark.parametrize("cls", [LinearAR, TinyMLP])
def test_record_gather_edges_equal_the_per_run_reference_loop(cls, edge, seeds):
    lags, length, batch_size = edge
    kind = cls(lags=lags, epochs=3, learning_rate=0.05, batch_size=batch_size)
    panel = make_panel(noisy_panel().values[:, :length])
    for seed, model in zip(seeds, fit(kind, panel, seeds)):
        for key, want in reference_sgd(kind, panel.values, seed).items():
            assert np.array_equal(model.state[key], want), key


def test_deterministic_kinds_share_one_state_across_seeds():
    panel = noisy_panel()
    for kind in (SeasonalNaive(period=7), GlobalMean()):
        fitted = fit(kind, panel, (1, 2, 3))
        assert len(fitted) == 3
        assert all(model is fitted[0] for model in fitted)


def test_fit_takes_a_nonempty_tuple_of_seeds():
    panel = noisy_panel()
    with pytest.raises(TypeError):
        fit(GlobalMean(), panel, 7)
    with pytest.raises(ValueError):
        fit(GlobalMean(), panel, ())
    with pytest.raises(TypeError):
        fit("global_mean", panel, (0,))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_runs_are_named_by_seed():
    # at this rate seeds 2, 5, 6 and 7 of 0..7 blow up and the rest do not
    kind = TinyMLP(lags=4, hidden_dim=5, epochs=6, learning_rate=0.55, batch_size=8)
    panel = noisy_panel()
    with pytest.raises(Diverged, match="^tiny_mlp diverged: .* seeds 2, 5, 6, 7$") as info:
        fit(kind, panel, tuple(range(8)))
    assert info.value.runs == (2, 5, 6, 7)
    for seed in (0, 1, 3, 4):
        fit(kind, panel, (seed,))
    with pytest.raises(Diverged) as info:
        fit(kind, panel, (5,))
    assert info.value.runs == (0,)


# ------------------------------------------------------------- baselines

def test_seasonal_naive_repeats_last_season():
    panel = make_panel([1.0, 2.0, 3.0, 4.0])
    fitted = fit(SeasonalNaive(period=2), panel, (0,))[0]
    assert predict(fitted, 2).tolist() == [[3.0, 4.0]]
    assert predict(fitted, 4).tolist() == [[3.0, 4.0, 3.0, 4.0]]


def test_seasonal_naive_index_formula():
    # y[T+h] = x[T + h - period * (floor((h-1)/period) + 1)], hand-applied
    series = [5.0, 1.0, 8.0, 2.0, 9.0, 3.0]
    panel = make_panel(series)
    fitted = fit(SeasonalNaive(period=3), panel, (0,))[0]
    out = predict(fitted, 7)[0].tolist()
    assert out == [2.0, 9.0, 3.0, 2.0, 9.0, 3.0, 2.0]


def test_global_mean_is_constant_across_horizon():
    panel = make_panel([2.0, 4.0, 6.0])
    fitted = fit(GlobalMean(), panel, (0,))[0]
    assert predict(fitted, 3).tolist() == [[4.0, 4.0, 4.0]]


def test_insufficient_history_errors():
    panel = make_panel([1.0, 2.0, 3.0])
    with pytest.raises(InsufficientHistory):
        fit(SeasonalNaive(period=4), panel, (0,))
    with pytest.raises(InsufficientHistory):
        fit(LinearAR(lags=3, epochs=1, learning_rate=0.1, batch_size=1), panel, (0,))


# ---------------------------------------------------------- learned models

def test_linear_ar_converges_on_constant_series():
    panel = make_panel(np.full(30, 5.0))
    kind = LinearAR(lags=3, epochs=60, learning_rate=0.1, batch_size=8)
    one_step = predict(fit(kind, panel, (7,))[0], 1)[0, 0]
    # exact least-squares oracle for the same pooled regression
    scaled = panel.values[0] / panel.values[0].mean()
    x = np.stack([scaled[i : i + 3] for i in range(27)])
    design = np.hstack([x, np.ones((27, 1))])
    beta, *_ = np.linalg.lstsq(design, scaled[3:], rcond=None)
    oracle = (scaled[-3:] @ beta[:3] + beta[3]) * panel.values[0].mean()
    assert one_step == pytest.approx(5.0, abs=0.1)
    assert one_step == pytest.approx(oracle, abs=0.1)


def test_recursive_prediction_fixed_point_is_exact():
    # weights summing to 1, zero bias, constant history: constant forever
    state = {
        "weights": np.array([0.25, 0.25, 0.25, 0.25]),
        "bias": np.array(0.0),
        "scales": np.array([7.0]),
        "window": np.ones((1, 4)),
    }
    fitted = FittedForecaster(
        kind=LinearAR(lags=4, epochs=1, learning_rate=0.1, batch_size=1),
        state=state,
    )
    assert predict(fitted, 6).tolist() == [[7.0] * 6]


def test_all_zero_series_stay_zero():
    panel = make_panel(np.zeros(20))
    for kind in STOCHASTIC_KINDS:
        fitted = fit(kind, panel, (3,))[0]
        out = predict(fitted, 5)
        assert np.all(np.isfinite(out))
        # zero-scale guard: predictions collapse to the zero level scale-free
        assert np.all(np.abs(out) < 1.0)


def test_predict_rejects_bad_horizon():
    panel = make_panel([1.0, 2.0, 3.0, 4.0])
    fitted = fit(GlobalMean(), panel, (0,))[0]
    with pytest.raises(ValueError):
        predict(fitted, 0)


# ------------------------------------------------------------------- json

def test_kind_json_round_trip():
    kinds = [
        SeasonalNaive(period=7),
        GlobalMean(),
        LinearAR(lags=3, epochs=9, learning_rate=0.01, batch_size=16),
        TinyMLP(lags=5, hidden_dim=4, epochs=2, learning_rate=0.2, batch_size=8),
    ]
    for kind in kinds:
        obj = kind_to_json(kind)
        assert set(obj) == {"kind", "params"}
        assert kind_from_json(obj) == kind


def test_kind_from_json_rejects_unknown():
    with pytest.raises(ValueError):
        kind_from_json({"kind": "prophet", "params": {}})


def test_hyperparameters_must_be_positive():
    with pytest.raises(ValueError):
        SeasonalNaive(period=0)
    with pytest.raises(ValueError):
        LinearAR(lags=1, epochs=1, learning_rate=0.0, batch_size=1)
    with pytest.raises(ValueError):
        TinyMLP(lags=1, hidden_dim=0, epochs=1, learning_rate=0.1, batch_size=1)
    with pytest.raises(ValueError, match="epochs must be <= 10000"):
        LinearAR(epochs=2**63)


def test_learned_sizes_are_bounded():
    # One run's parameters at both bounds: 1000 * 256 + 2 * 256 + 1 float64s.
    TinyMLP(lags=MAX_LAGS, hidden_dim=MAX_HIDDEN_DIM)
    with pytest.raises(ValueError, match="LinearAR.lags must be <= 1000"):
        LinearAR(lags=MAX_LAGS + 1)
    with pytest.raises(ValueError, match="TinyMLP.lags must be <= 1000"):
        TinyMLP(lags=MAX_LAGS + 1)
    with pytest.raises(ValueError, match="TinyMLP.hidden_dim must be <= 256"):
        TinyMLP(hidden_dim=10**11)
    TinyMLP(hidden_dim=MAX_HIDDEN_DIM, batch_size=MAX_BATCH_SIZE)
    with pytest.raises(ValueError, match="LinearAR.batch_size must be <= 1024"):
        LinearAR(batch_size=MAX_BATCH_SIZE + 1)
