"""Emit the reporting artifacts: quantile table, JSON report, SVG figures.

Outputs land in demos/output/. The SVGs are self-contained static files:
per-model CV histograms on a log-like count axis with a dashed median
marker, plus an RMSE box/strip chart across models.

Run: python3 demos/04_reports_and_figures.py
"""

from pathlib import Path

from forecast_stability import (
    ExperimentConfig,
    LinearAR,
    ModelEntry,
    SeasonalNaive,
    SplitSpec,
    SynthConfig,
    TinyMLP,
    accuracy_report,
    build_report_bundle,
    cv_grid,
    emit_plots,
    emit_quantile_table,
    run_experiment,
)

out_dir = Path(__file__).parent / "output"

cfg = ExperimentConfig(
    dataset=SynthConfig(
        n_series=60,
        length=250,
        level_range=(40.0, 140.0),
        season_period=7,
        season_amplitude=18.0,
        noise_std=5.0,
        intermittency=0.05,
        seed=42,
    ),
    split=SplitSpec(train_length=236, horizon=14),
    models=(
        ModelEntry(label="seasonal_naive", model=SeasonalNaive(period=7)),
        ModelEntry(
            label="linear_ar",
            model=LinearAR(lags=7, epochs=3, learning_rate=0.05, batch_size=32),
        ),
        ModelEntry(
            label="tiny_mlp",
            model=TinyMLP(lags=7, hidden_dim=8, epochs=3, learning_rate=0.05, batch_size=32),
        ),
    ),
    run_count=10,
    master_seed=1,
)
result = run_experiment(cfg)

grids, accuracy = {}, {}
for entry, forecasts in zip(cfg.models, result.forecasts):
    grids[entry.label] = cv_grid(forecasts)
    accuracy[entry.label] = accuracy_report(forecasts, result.actuals)

report = build_report_bundle(grids, accuracy, bins=40, clip_upper=0.5)
print("CV quantile table (the report's headline summary):\n")
print(emit_quantile_table(report))

figures = emit_plots(report)
out_dir.mkdir(exist_ok=True)
print(f"figures written to {out_dir}/:")
for name, svg in figures.items():
    (out_dir / name).write_text(svg, encoding="utf-8")
    print(f"  {name}")
