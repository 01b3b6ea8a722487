"""Stabilize forecasts with a convex-combination ensemble.

Components are fit on trailing validation windows; greedy forward selection
(with replacement) picks convex weights that never score worse than the
best single component. The demo measures whether the selected mixture damps
seed-to-seed variance; it does not show that it does. On this panel selection
puts all the weight on SeasonalNaive, a deterministic model, for every seed,
so the ensemble's median CV of 0 comes from selection, not from averaging.

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
weights = fit_ensemble(components, train, split_spec.horizon, n_windows=2, seeds=seeds)
print("learned convex weights, one column per seed:")
print(f"  {'':<14} " + " ".join(f"seed {seed:<2}" for seed in seeds))
for index, kind in enumerate(components):
    column = " ".join(f"{weight:>7.3f}" for weight in weights[:, index])
    print(f"  {type(kind).__name__:<14} {column}")

# Now the stability comparison: every model refit 10 times, seeds varying.
cfg = ExperimentConfig(
    dataset=panel_cfg,
    split=split_spec,
    models=(
        ModelEntry(label="linear_ar", model=linear),
        ModelEntry(label="tiny_mlp", model=mlp),
        ModelEntry(label="ensemble", model=EnsembleRequest(components=components)),
    ),
    run_count=10,
    master_seed=0,
)
result = run_experiment(cfg)

print("\nmedian CV over 10 seeded refits (lower = more stable):")
for entry, runs in zip(cfg.models, result.forecasts):
    grid = cv_grid(runs)
    q50 = quantiles(grid.cv.reshape(-1), [0.5])[0]
    print(f"  {entry.label:<10} {q50:.4f}")
