"""Stabilize forecasts with a convex-combination ensemble.

Components are fit on trailing validation windows; greedy forward selection
(with replacement) picks convex weights that never score worse than the
best single component. Because the pool contains deterministic models, the
selected mixture damps seed-to-seed variance.

Run: python3 demos/03_ensemble_mitigation.py
"""

from forecast_stability import (
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
    fit_ensemble,
    quantiles,
    run_experiment,
    split,
    synth_generate,
)

panel_cfg = SynthConfig(
    n_series=40,
    length=200,
    level_range=(50.0, 150.0),
    season_period=7,
    season_amplitude=20.0,
    noise_std=5.0,
    seed=3,
)
split_spec = SplitSpec(train_length=186, horizon=14)
linear = LinearAR(lags=2, epochs=2, learning_rate=0.1, batch_size=32)
mlp = TinyMLP(lags=2, hidden_dim=8, epochs=4, learning_rate=0.05, batch_size=32)
components = (SeasonalNaive(period=7), GlobalMean(), linear, mlp)

# What do the learned weights look like? One call fits three seeds at once,
# with the same weights each seed would get on its own.
train, _ = split(synth_generate(panel_cfg), split_spec)
seeds = (0, 1, 2)
specs = fit_ensemble(components, train, split_spec.horizon, n_windows=2, seeds=seeds)
print("learned convex weights, one column per seed:")
print(f"  {'':<14} " + " ".join(f"seed {seed:<2}" for seed in seeds))
for index, kind in enumerate(components):
    weights = " ".join(f"{spec.weights[index]:>7.3f}" for spec in specs)
    print(f"  {type(kind).__name__:<14} {weights}")

# Now the stability comparison: every model refit 10 times, seeds varying.
cfg = ExperimentConfig(
    dataset=panel_cfg,
    split=split_spec,
    models=(
        ModelEntry(label="linear_ar", forecaster=linear),
        ModelEntry(label="tiny_mlp", forecaster=mlp),
        ModelEntry(label="ensemble", ensemble=EnsembleRequest(components=components)),
    ),
    run_count=10,
    master_seed=0,
)
result = run_experiment(cfg)

print("\nmedian CV over 10 seeded refits (lower = more stable):")
for label in ("linear_ar", "tiny_mlp", "ensemble"):
    grid = cv_grid(result.forecasts[label])
    q50 = quantiles(grid.cv.reshape(-1), [0.5])[0]
    print(f"  {label:<10} {q50:.4f}")
