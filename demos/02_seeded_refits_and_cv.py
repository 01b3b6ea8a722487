"""Measure model-induced stochasticity: refit on fixed inputs, vary the seed.

A deterministic baseline lands on a CV grid of exact zeros; an SGD-trained
model shows per-cell variance even though nothing but the seed changed.

Run: python3 demos/02_seeded_refits_and_cv.py
"""

import numpy as np

from forecast_stability import (
    ExperimentConfig,
    LinearAR,
    ModelEntry,
    SeasonalNaive,
    SplitSpec,
    SynthConfig,
    cv_grid,
    quantiles,
    run_experiment,
)

cfg = ExperimentConfig(
    dataset=SynthConfig(
        n_series=40,
        length=200,
        level_range=(50.0, 150.0),
        season_period=7,
        season_amplitude=15.0,
        noise_std=5.0,
        seed=11,
    ),
    split=SplitSpec(train_length=186, horizon=14),
    models=(
        ModelEntry(label="seasonal_naive", forecaster=SeasonalNaive(period=7)),
        ModelEntry(
            label="linear_ar",
            forecaster=LinearAR(lags=7, epochs=3, learning_rate=0.05, batch_size=32),
        ),
    ),
    run_count=10,
    master_seed=0,
)

result = run_experiment(cfg)
runs = len(result.forecasts) * cfg.run_count
print(f"executed {runs} seeded runs on a fixed 40x186 training panel\n")

for label, tensor in result.forecasts.items():
    grid = cv_grid(tensor)
    q25, q50, q75, q90 = quantiles(grid.cv.reshape(-1))
    cells = grid.cv.size
    nonzero = int((grid.cv > 0).sum())
    print(f"{label}")
    print(f"  CV quantiles: q25={q25:.3f} q50={q50:.3f} q75={q75:.3f} q90={q90:.3f}")
    print(f"  cells with any seed-variance: {nonzero}/{cells}")
    # one concrete cell: the same (series, step) across the 10 runs
    i, t = np.unravel_index(np.argmax(grid.cv), grid.cv.shape)
    sample = tensor[:, i, t]
    print(f"  most unstable cell {result.series_ids[i]} step {t + 1}: {sample.tolist()}\n")
