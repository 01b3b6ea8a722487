from __future__ import annotations

import html
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from forecast_stability import build_report_bundle, emit_plots, emit_quantile_table
from forecast_stability.cli import cli_main
from forecast_stability.metrics import (
    AccuracyReport,
    CvGrid,
    EmptyInput,
    histogram,
)
from forecast_stability.report import ReportBundle, ReportError, load_metrics_files

SVG_NS = "{http://www.w3.org/2000/svg}"


def grid_from_cv(cv):
    cv = np.asarray(cv, dtype=float)
    mean = np.where(cv > 0, 1.0, 1.0)  # nonzero means keep the type invariant loose
    return CvGrid(cv=cv, mean=mean, std=cv * mean)


def write_experiment_config(tmp_path, run_count=2, models=None):
    if models is None:
        models = [
            {"label": "sn", "kind": {"kind": "seasonal_naive", "params": {"period": 7}}}
        ]
    cfg = {
        "dataset": {
            "synth": {
                "n_series": 3,
                "length": 40,
                "level_range": [20, 60],
                "season_period": 7,
                "season_amplitude": 5,
                "noise_std": 3,
                "seed": 17,
            }
        },
        "split": {"train_length": 33, "horizon": 7},
        "models": models,
        "run_count": run_count,
        "master_seed": 5,
    }
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(cfg))
    return path


# -------------------------------------------------------------- exit codes

def test_unknown_subcommand_is_usage_error(capsys):
    assert cli_main(["frobnicate"]) == 1
    assert cli_main([]) == 1


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert cli_main(["run", "--help"]) == 0


def test_metrics_on_missing_runs_is_data_error(tmp_path, capsys):
    assert cli_main(["metrics", "--runs", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_without_out_is_usage_error(tmp_path, capsys):
    assert cli_main(["run", "--config", str(write_experiment_config(tmp_path))]) == 1


def test_run_with_missing_config_is_data_error(tmp_path, capsys):
    assert cli_main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_generate_with_bad_json_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["generate", "--config", str(bad), "--out", str(tmp_path / "d.csv")]) == 2


# ---------------------------------------------------------------- pipeline

def test_run_deterministic_model_produces_identical_blocks(tmp_path, capsys):
    cfg_path = write_experiment_config(tmp_path, run_count=2)
    out = tmp_path / "runs"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = (out / "runs.csv").read_text().strip().splitlines()[1:]
    run0 = [r.split(",", 2)[2] for r in rows if r.split(",")[1] == "0"]
    run1 = [r.split(",", 2)[2] for r in rows if r.split(",")[1] == "1"]
    assert run0 == run1


def test_generate_then_run_from_csv(tmp_path, capsys):
    synth = tmp_path / "synth.json"
    synth.write_text(
        json.dumps({"n_series": 2, "length": 30, "noise_std": 1.0, "seed": 4})
    )
    data = tmp_path / "data.csv"
    assert cli_main(["generate", "--config", str(synth), "--out", str(data)]) == 0
    cfg = {
        "dataset": {"csv": str(data)},
        "split": {"train_length": 25, "horizon": 5},
        "models": [{"label": "gm", "kind": {"kind": "global_mean", "params": {}}}],
        "run_count": 2,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "runs"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "runs.csv").exists()


def test_full_pipeline_and_metrics_round_trip(tmp_path, capsys):
    cfg_path = write_experiment_config(
        tmp_path,
        run_count=3,
        models=[
            {"label": "sn", "kind": {"kind": "seasonal_naive", "params": {"period": 7}}},
            {
                "label": "lar",
                "kind": {
                    "kind": "linear_ar",
                    "params": {"lags": 4, "epochs": 3, "learning_rate": 0.05, "batch_size": 8},
                },
            },
        ],
    )
    out = tmp_path / "runs"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert cli_main(["metrics", "--runs", str(out)]) == 0
    assert cli_main(["report", "--runs", str(out)]) == 0

    table = (out / "table.csv").read_text().strip().splitlines()
    assert table[0] == "model,q25,q50,q75,q90"
    assert len(table) == 3  # two models
    for row in table[1:]:
        values = [float(v) for v in row.split(",")[1:]]
        assert values == sorted(values)  # quantile monotonicity

    report = json.loads((out / "report.json").read_text())
    assert set(report["models"]) == {"sn", "lar"}

    grids, accuracy = load_metrics_files(out)
    assert set(grids) == {"sn", "lar"}
    assert all(len(a.rmse_per_run) == 3 for a in accuracy.values())


def test_report_outputs_are_byte_deterministic(tmp_path, capsys):
    cfg_path = write_experiment_config(tmp_path, run_count=2)
    out = tmp_path / "runs"
    cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
    cli_main(["metrics", "--runs", str(out)])
    rep_a = tmp_path / "report_a"
    rep_b = tmp_path / "report_b"
    assert cli_main(["report", "--runs", str(out), "--out", str(rep_a)]) == 0
    assert cli_main(["report", "--runs", str(out), "--out", str(rep_b)]) == 0
    for name in ("table.csv", "report.json", "cv_hist_sn.svg", "rmse_distribution.svg"):
        assert (rep_a / name).read_bytes() == (rep_b / name).read_bytes()


# ------------------------------------------------------------ table format

def table_of(grids, **options):
    """The quantile table of ``grids``, each with one run's RMSE."""
    accuracy = {label: AccuracyReport(label, (1.0,)) for label in grids}
    return emit_quantile_table(build_report_bundle(grids, accuracy, **options))


def test_all_zero_grid_row_format():
    grids = {"label": grid_from_cv(np.zeros((2, 3)))}
    text = table_of(grids)
    assert text.splitlines()[1] == "label,0.000,0.000,0.000,0.000"


def test_quantile_table_hand_checked_median():
    grids = {"m": grid_from_cv(np.array([[0.0, 0.1], [0.2, 0.3]]))}
    lines = table_of(grids).splitlines()
    assert lines[0] == "model,q25,q50,q75,q90"
    q50 = lines[1].split(",")[2]
    assert q50 == "0.150"


def test_quantile_table_rows_sorted_by_label():
    grids = {
        "zeta": grid_from_cv(np.zeros((1, 2))),
        "alpha": grid_from_cv(np.zeros((1, 2))),
    }
    lines = table_of(grids).splitlines()
    assert [row.split(",")[0] for row in lines[1:]] == ["alpha", "zeta"]


def test_quantile_table_custom_probs():
    grids = {"m": grid_from_cv(np.array([[0.0, 1.0]]))}
    lines = table_of(grids, probs=(0.5, 0.9)).splitlines()
    assert lines[0] == "model,q50,q90"


def test_empty_table_rejected():
    with pytest.raises(EmptyInput):
        emit_quantile_table(ReportBundle(models=(), probs=(0.5,), run_count=0))


# ------------------------------------------------------------------- plots

def make_bundle(cv_values, rmse_values=(1.0, 2.0, 3.0), bins=4, clip=1.0):
    grid = grid_from_cv(cv_values)
    return build_report_bundle(
        {"m": grid},
        {"m": AccuracyReport(model_label="m", rmse_per_run=tuple(rmse_values))},
        bins=bins,
        clip_upper=clip,
    )


def test_svg_bar_counts_match_histogram():
    cv = np.array([[0.05, 0.3, 0.3], [0.8, 0.9, 2.0]])
    bundle = make_bundle(cv, bins=4, clip=1.0)
    figures = emit_plots(bundle)
    assert list(figures) == ["cv_hist_m.svg", "rmse_distribution.svg"]
    root = ET.fromstring(figures["cv_hist_m.svg"])
    bars = [
        el
        for el in root.iter(f"{SVG_NS}rect")
        if el.get("class") == "bar"
    ]
    counts = [int(el.get("data-count")) for el in bars]
    expected = histogram(cv.reshape(-1), 4, 1.0)
    assert counts == [c for _, _, c in expected.bins]
    assert sum(counts) + expected.excluded == cv.size


def test_svg_median_line_at_left_edge_for_all_zero_cv():
    bundle = make_bundle(np.zeros((2, 3)))
    root = ET.fromstring(emit_plots(bundle)["cv_hist_m.svg"])
    median = next(
        el for el in root.iter(f"{SVG_NS}line") if el.get("class") == "median"
    )
    assert float(median.get("data-median")) == 0.0
    assert float(median.get("x1")) == 60.0  # left edge of the plot area


def test_rmse_plot_has_point_per_run():
    bundle = make_bundle(np.zeros((1, 2)), rmse_values=(1.0, 1.5, 2.0, 4.0))
    root = ET.fromstring(emit_plots(bundle)["rmse_distribution.svg"])
    points = [el for el in root.iter(f"{SVG_NS}circle") if el.get("class") == "pt"]
    assert len(points) == 4
    assert sorted(float(p.get("data-rmse")) for p in points) == [1.0, 1.5, 2.0, 4.0]


def test_svg_text_is_escaped_as_html_escape_does():
    label = "a<b&c>"
    bundle = build_report_bundle(
        {label: grid_from_cv(np.zeros((1, 2)))},
        {label: AccuracyReport(model_label=label, rmse_per_run=(1.0, 2.0))},
    )
    figures = emit_plots(bundle)
    title = f"CV distribution: {label} (excluded tail: 0)"
    assert f">{html.escape(title, quote=False)}</text>" in figures["cv_hist_a_b_c_.svg"]
    assert f">{html.escape(label, quote=False)}</text>" in figures["rmse_distribution.svg"]


def test_bundle_conservation_enforced():
    cv = np.array([[0.1, 0.5, 3.0]])
    bundle = make_bundle(cv, bins=5, clip=1.0)
    model = bundle.models[0]
    assert model.cv_histogram.total_count + model.cv_histogram.excluded == 3


def test_empty_bundle_rejected():
    with pytest.raises(EmptyInput):
        build_report_bundle({}, {})
    with pytest.raises(EmptyInput):
        emit_plots(ReportBundle(models=(), probs=(0.5,), run_count=0))


def metrics_dir(tmp_path):
    """A run directory after ``run`` and ``metrics``, with its manifest."""
    config, out = write_experiment_config(tmp_path), tmp_path / "runs"
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert cli_main(["metrics", "--runs", str(out)]) == 0
    return out


@pytest.mark.parametrize("clip", ["nan", "inf"])
def test_report_rejects_a_clip_that_is_not_finite(tmp_path, capsys, clip):
    runs = metrics_dir(tmp_path)
    rep = tmp_path / "report"
    assert cli_main(["report", "--runs", str(runs), "--out", str(rep), "--clip", clip]) == 2
    message = f"clip_upper must be positive and finite, got {float(clip)!r}"
    assert message in capsys.readouterr().err
    assert not rep.exists()


@pytest.mark.parametrize("bins", ["561", str(10**8)])
def test_report_rejects_more_bins_than_plot_pixels(tmp_path, capsys, bins):
    runs = metrics_dir(tmp_path)
    rep = tmp_path / "report"
    assert cli_main(["report", "--runs", str(runs), "--out", str(rep), "--bins", bins]) == 2
    assert "bin_count must be <= 560" in capsys.readouterr().err
    assert not rep.exists()


@pytest.mark.parametrize(
    "probs, pair",
    [("0.5,0.5,0.25", "0.5 and 0.5"), ("0.5,0.25,0.5000001", "0.5 and 0.5000001")],
)
def test_report_rejects_quantiles_that_share_a_column(tmp_path, capsys, probs, pair):
    runs = metrics_dir(tmp_path)
    rep = tmp_path / "report"
    assert cli_main(["report", "--runs", str(runs), "--out", str(rep), "--quantiles", probs]) == 2
    assert f"quantile probabilities {pair} share the column q50" in capsys.readouterr().err
    assert not rep.exists()
    with pytest.raises(ReportError, match="share the column q50"):
        build_report_bundle(
            {"m": grid_from_cv([[0.1, 0.2]])},
            {"m": AccuracyReport("m", (1.0,))},
            probs=[float(p) for p in probs.split(",")],
        )


@pytest.mark.parametrize(
    "text", ["[1, 2]", "{}", '{"config": {"dataset"'], ids=["array", "empty", "truncated"]
)
def test_report_rejects_a_corrupt_manifest(tmp_path, capsys, text):
    runs = metrics_dir(tmp_path)
    (runs / "manifest.json").write_text(text, encoding="utf-8")
    rep = tmp_path / "report"
    assert cli_main(["report", "--runs", str(runs), "--out", str(rep)]) == 2
    assert f"error: {runs / 'manifest.json'}: " in capsys.readouterr().err
    assert not rep.exists()


def test_report_names_a_manifest_that_is_not_utf8(tmp_path, capsys):
    runs = metrics_dir(tmp_path)
    manifest = runs / "manifest.json"
    manifest.write_bytes(manifest.read_bytes().replace(b"{", b"{\x93", 1))
    rep = tmp_path / "report"
    assert cli_main(["report", "--runs", str(runs), "--out", str(rep)]) == 2
    assert capsys.readouterr().err == f"error: {manifest}:1: not UTF-8: byte 0x93 at column 2\n"
    assert not rep.exists()


def test_report_rejects_labels_whose_figures_share_a_file(tmp_path, capsys):
    kind = {"kind": "seasonal_naive", "params": {"period": 7}}
    models = [{"label": label, "kind": kind} for label in ("a b", "a_b")]
    config = write_experiment_config(tmp_path, models=models)
    runs = tmp_path / "runs"
    assert cli_main(["run", "--config", str(config), "--out", str(runs)]) == 0
    assert cli_main(["metrics", "--runs", str(runs)]) == 0
    rep = tmp_path / "report"
    assert cli_main(["report", "--runs", str(runs), "--out", str(rep)]) == 2
    assert "'a b' and 'a_b' would both write cv_hist_a_b.svg" in capsys.readouterr().err
    assert not rep.exists()
    # Without figures, nothing collides.
    assert cli_main(["report", "--runs", str(runs), "--out", str(rep), "--format", "csv"]) == 0
    assert [path.name for path in rep.iterdir()] == ["table.csv"]


def test_report_reads_train_length_from_an_optional_manifest(tmp_path):
    runs = metrics_dir(tmp_path)
    assert cli_main(["report", "--runs", str(runs), "--format", "json"]) == 0
    report = json.loads((runs / "report.json").read_text())
    assert report["metadata"]["train_length"] == 33
    (runs / "manifest.json").unlink()
    assert cli_main(["report", "--runs", str(runs), "--format", "json"]) == 0
    report = json.loads((runs / "report.json").read_text())
    assert report["metadata"]["train_length"] is None


def test_report_single_format_writes_only_that_file(tmp_path):
    cfg_path = write_experiment_config(tmp_path, run_count=2)
    out = tmp_path / "runs"
    cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
    cli_main(["metrics", "--runs", str(out)])
    rep = tmp_path / "table_only"
    assert cli_main(["report", "--runs", str(out), "--out", str(rep), "--format", "csv"]) == 0
    assert (rep / "table.csv").exists()
    assert not (rep / "report.json").exists()
    assert not list(rep.glob("*.svg"))
