from __future__ import annotations

import gc
import html
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from forecast_stability import build_report_bundle, emit_plots, emit_quantile_table
from forecast_stability import cli
from forecast_stability.cli import cli_main
from forecast_stability.dataset import write_long_csv
from forecast_stability.metrics import (
    AccuracyReport,
    CvGrid,
    EmptyInput,
    histogram,
)
from forecast_stability.report import ReportError, load_metrics_files
from conftest import make_panel

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
    names = ("table.csv", "report.json", "cv_hist_sn.svg", "rmse_distribution.svg")
    assert cli_main(["report", "--runs", str(out)]) == 0
    first = {name: (out / name).read_bytes() for name in names}
    assert cli_main(["report", "--runs", str(out)]) == 0
    for name in names:
        assert (out / name).read_bytes() == first[name]



def test_cli_main_leaves_the_caller_heap_unfrozen(tmp_path, capsys):
    # Only a stage process's main() freezes its heap; tests, demos and the
    # benchmark's traced pass call cli_main in their own process.
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps({"n_series": 3, "length": 40, "seed": 17}))
    cfg_path = write_experiment_config(tmp_path)
    out = tmp_path / "runs"
    frozen = gc.get_freeze_count()
    for argv, code in (
        (["generate", "--config", str(synth), "--out", str(tmp_path / "data.csv")], 0),
        (["run", "--config", str(cfg_path), "--out", str(out)], 0),
        (["metrics", "--runs", str(out)], 0),
        (["report", "--runs", str(out)], 0),
        (["metrics", "--runs", str(tmp_path / "missing")], 2),
    ):
        assert cli_main(argv) == code, argv
        assert gc.get_freeze_count() == frozen, argv

# ------------------------------------------------------------ table format

def table_of(grids, **options):
    """The quantile table of ``grids``, each with one run's RMSE."""
    accuracy = {label: AccuracyReport((1.0,)) for label in grids}
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
        emit_quantile_table(build_report_bundle({}, {}))


def test_no_quantile_probabilities_rejected():
    # With no value column the table would read "model\na," and could not be read back.
    grids = {"a": grid_from_cv(np.zeros((1, 2)))}
    with pytest.raises(ReportError, match="no quantile probabilities"):
        table_of(grids, probs=())


# ------------------------------------------------------------------- plots

def make_bundle(cv_values, rmse_values=(1.0, 2.0, 3.0), bins=4, clip=1.0):
    grid = grid_from_cv(cv_values)
    return build_report_bundle(
        {"m": grid},
        {"m": AccuracyReport(rmse_per_run=tuple(rmse_values))},
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
    assert counts == [b["count"] for b in expected["bins"]]
    assert sum(counts) + expected["excluded"] == cv.size


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


def test_rmse_plot_of_equal_values_past_float_integers():
    # 1e24 + 1.0 == 1e24, so equal values this large once left the plot no span.
    bundle = make_bundle(np.zeros((1, 2)), rmse_values=(1e24, 1e24))
    root = ET.fromstring(emit_plots(bundle)["rmse_distribution.svg"])
    points = [el for el in root.iter(f"{SVG_NS}circle") if el.get("class") == "pt"]
    assert [float(p.get("data-rmse")) for p in points] == [1e24, 1e24]


def test_svg_text_is_escaped_as_html_escape_does():
    label = "a<b&c>"
    bundle = build_report_bundle(
        {label: grid_from_cv(np.zeros((1, 2)))},
        {label: AccuracyReport(rmse_per_run=(1.0, 2.0))},
    )
    figures = emit_plots(bundle)
    title = f"CV distribution: {label} (excluded tail: 0)"
    assert f">{html.escape(title, quote=False)}</text>" in figures["cv_hist_a_b_c_.svg"]
    assert f">{html.escape(label, quote=False)}</text>" in figures["rmse_distribution.svg"]


def test_bundle_conservation_enforced():
    cv = np.array([[0.1, 0.5, 3.0]])
    bundle = make_bundle(cv, bins=5, clip=1.0)
    cv_histogram = bundle["models"]["m"]["cv_histogram"]
    assert sum(b["count"] for b in cv_histogram["bins"]) + cv_histogram["excluded"] == 3


def test_zero_count_histogram_draws_flat_bars():
    # Every CV lies above the clip, so every bin is empty.
    root = ET.fromstring(emit_plots(make_bundle(np.full((1, 3), 2.0)))["cv_hist_m.svg"])
    bars = [el for el in root.iter(f"{SVG_NS}rect") if el.get("class") == "bar"]
    assert [(el.get("data-count"), float(el.get("height"))) for el in bars] == [("0", 0.0)] * 4
    assert not [el for el in root.iter(f"{SVG_NS}line") if el.get("class") == "grid"]


def test_rmse_plot_of_a_model_with_no_runs():
    bundle = make_bundle(np.zeros((1, 2)), rmse_values=())
    root = ET.fromstring(emit_plots(bundle)["rmse_distribution.svg"])
    assert not [el for el in root.iter(f"{SVG_NS}circle") if el.get("class") == "pt"]
    ticks = [el.text for el in root.iter(f"{SVG_NS}text") if el.get("text-anchor") == "end"]
    assert ticks == ["0.00", "0.50", "1.00"]


def test_bundle_rejects_cv_and_rmse_of_other_models():
    with pytest.raises(ReportError, match=r"^cv models \['a'\] != rmse models \['b'\]$"):
        build_report_bundle(
            {"a": grid_from_cv(np.zeros((1, 2)))}, {"b": AccuracyReport(rmse_per_run=(1.0,))}
        )


def test_empty_bundle_rejected():
    with pytest.raises(EmptyInput):
        build_report_bundle({}, {})
    with pytest.raises(EmptyInput):
        emit_plots(build_report_bundle({}, {}))


def metrics_dir(tmp_path):
    """A run directory after ``run`` and ``metrics``, with its manifest."""
    config, out = write_experiment_config(tmp_path), tmp_path / "runs"
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert cli_main(["metrics", "--runs", str(out)]) == 0
    return out


def contents(directory):
    """Each file of ``directory`` by name, with its bytes."""
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.mark.parametrize("clip", ["nan", "inf"])
def test_report_rejects_a_clip_that_is_not_finite(tmp_path, capsys, clip):
    runs = metrics_dir(tmp_path)
    before = contents(runs)
    assert cli_main(["report", "--runs", str(runs), "--clip", clip]) == 2
    message = f"clip_upper must be positive and finite, got {float(clip)!r}"
    assert message in capsys.readouterr().err
    assert contents(runs) == before


@pytest.mark.parametrize("bins", ["561", str(10**8)])
def test_report_rejects_more_bins_than_plot_pixels(tmp_path, capsys, bins):
    runs = metrics_dir(tmp_path)
    before = contents(runs)
    assert cli_main(["report", "--runs", str(runs), "--bins", bins]) == 2
    assert "bin_count must be <= 560" in capsys.readouterr().err
    assert contents(runs) == before


@pytest.mark.parametrize(
    "probs, pair",
    [("0.5,0.5,0.25", "0.5 and 0.5"), ("0.5,0.25,0.5000001", "0.5 and 0.5000001")],
)
def test_report_rejects_quantiles_that_share_a_column(tmp_path, capsys, probs, pair):
    runs = metrics_dir(tmp_path)
    before = contents(runs)
    assert cli_main(["report", "--runs", str(runs), "--quantiles", probs]) == 2
    assert f"quantile probabilities {pair} share the column q50" in capsys.readouterr().err
    assert contents(runs) == before
    with pytest.raises(ReportError, match="share the column q50"):
        build_report_bundle(
            {"m": grid_from_cv([[0.1, 0.2]])},
            {"m": AccuracyReport((1.0,))},
            probs=[float(p) for p in probs.split(",")],
        )


@pytest.mark.parametrize(
    "text", ["[1, 2]", "{}", '{"config": {"dataset"'], ids=["array", "empty", "truncated"]
)
def test_report_rejects_a_corrupt_manifest(tmp_path, capsys, text):
    runs = metrics_dir(tmp_path)
    (runs / "manifest.json").write_text(text, encoding="utf-8")
    before = contents(runs)
    assert cli_main(["report", "--runs", str(runs)]) == 2
    assert f"error: {runs / 'manifest.json'}: " in capsys.readouterr().err
    assert contents(runs) == before


def test_report_names_a_manifest_that_is_not_utf8(tmp_path, capsys):
    runs = metrics_dir(tmp_path)
    manifest = runs / "manifest.json"
    manifest.write_bytes(manifest.read_bytes().replace(b"{", b"{\x93", 1))
    before = contents(runs)
    assert cli_main(["report", "--runs", str(runs)]) == 2
    assert capsys.readouterr().err == f"error: {manifest}:1: not UTF-8: byte 0x93 at column 2\n"
    assert contents(runs) == before


@pytest.mark.parametrize("command", ["generate", "run", "report"])
def test_cli_refuses_a_json_key_written_twice(tmp_path, capsys, command):
    # Read with the last value of each key, every file here would run.
    if command == "generate":
        path, key = tmp_path / "synth.json", "seed"
        path.write_text('{"n_series": 2, "length": 30, "seed": 1, "seed": 2}')
        argv = ["generate", "--config", str(path), "--out", str(tmp_path / "data.csv")]
    elif command == "run":
        path, key = write_experiment_config(tmp_path), "master_seed"
        path.write_text(path.read_text().replace('"master_seed": 5', '"master_seed": 6, "master_seed": 5'))
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "runs")]
    else:
        runs = metrics_dir(tmp_path)
        path, key = runs / "manifest.json", "run_count"
        path.write_text(path.read_text().replace('"run_count": 2', '"run_count": 9, "run_count": 2'))
        argv = ["report", "--runs", str(runs)]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert cli_main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {path}: duplicate key {key!r}\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_report_rejects_labels_whose_figures_share_a_file(tmp_path, capsys):
    kind = {"kind": "seasonal_naive", "params": {"period": 7}}
    models = [{"label": label, "kind": kind} for label in ("a b", "a_b")]
    config = write_experiment_config(tmp_path, models=models)
    runs = tmp_path / "runs"
    assert cli_main(["run", "--config", str(config), "--out", str(runs)]) == 0
    assert cli_main(["metrics", "--runs", str(runs)]) == 0
    before = contents(runs)
    assert cli_main(["report", "--runs", str(runs)]) == 2
    assert "'a b' and 'a_b' would both write cv_hist_a_b.svg" in capsys.readouterr().err
    assert contents(runs) == before
    # Without figures, nothing collides.
    assert cli_main(["report", "--runs", str(runs), "--format", "csv"]) == 0
    assert set(contents(runs)) - set(before) == {"table.csv"}


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
    assert cli_main(["report", "--runs", str(out), "--format", "csv"]) == 0
    assert (out / "table.csv").exists()
    assert not (out / "report.json").exists()
    assert not list(out.glob("*.svg"))


def test_run_refuses_a_directory_that_holds_a_run(tmp_path, capsys):
    config, out = write_experiment_config(tmp_path), tmp_path / "runs"
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
    before = contents(out)
    capsys.readouterr()
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {out / 'runs.csv'}: ")
    assert contents(out) == before


@pytest.mark.parametrize("name", ["table.csv", "cv_hist_sn.svg", "rmse_distribution.svg"])
def test_run_refuses_a_directory_that_holds_a_report(tmp_path, capsys, name):
    out = tmp_path / "runs"
    out.mkdir()
    (out / name).write_text("")
    config = write_experiment_config(tmp_path)
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {out / name}: ")
    assert [path.name for path in out.iterdir()] == [name]


def test_run_accepts_a_directory_of_other_files(tmp_path):
    out = tmp_path / "runs"
    out.mkdir()
    for name in ("notes.txt", "cv.csv.bak", "hist.svg"):
        (out / name).write_text("kept")
    config = write_experiment_config(tmp_path)
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "runs.csv").exists()
    assert (out / "notes.txt").read_text() == "kept"


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-a-file"])
def test_run_refuses_an_out_that_cannot_be_a_directory_before_any_fit(
    tmp_path, capsys, monkeypatch, sub
):
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out = afile / sub
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail("a fit ran"))
    config = write_experiment_config(tmp_path)
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {out}: --out cannot be a directory: ")
    assert afile.read_text() == "kept"


KINDS = {
    "naive": {"kind": "seasonal_naive", "params": {"period": 7}},
    "mean": {"kind": "global_mean", "params": {}},
}


def grid_bound_config(tmp_path):
    # 5 models x 10 000 runs x 100 series x 2500 steps: refused before any fit.
    models = [{"label": f"m{i}", "kind": KINDS["mean"]} for i in range(5)]
    path = write_experiment_config(tmp_path, run_count=10_000, models=models)
    cfg = json.loads(path.read_text())
    cfg["dataset"]["synth"].update(n_series=100, length=2600)
    cfg["split"] = {"train_length": 100, "horizon": 2500}
    path.write_text(json.dumps(cfg))
    return path


def too_long_a_period_config(tmp_path):
    naive = {"kind": "seasonal_naive", "params": {"period": 1000}}
    return write_experiment_config(tmp_path, models=[{"label": "sn", "kind": naive}])


@pytest.mark.parametrize("make_config", [too_long_a_period_config, grid_bound_config])
def test_a_failed_run_leaves_no_out_directory(tmp_path, capsys, make_config):
    config, out = make_config(tmp_path), tmp_path / "out" / "runs"
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def huge_demand_config(tmp_path, day, models=None):
    """A config on one series of 40 days of demand 10, but 1e200 on ``day``;
    the split is 33/7."""
    values = np.full(40, 10.0)
    values[day] = 1e200
    data = tmp_path / "data.csv"
    write_long_csv(make_panel(values, ids=("a",)), data)
    path = write_experiment_config(tmp_path, models=models)
    cfg = json.loads(path.read_text())
    cfg["dataset"] = {"csv": str(data)}
    path.write_text(json.dumps(cfg))
    return path


def test_run_refuses_validation_scores_past_the_float_range(tmp_path, capsys):
    # Day 26 opens the last validation block: every component's validation
    # RMSE overflows, while the periods 1 and 2 forecast from days 31 and 32.
    naive = [{"kind": "seasonal_naive", "params": {"period": p}} for p in (1, 2)]
    config = huge_demand_config(tmp_path, 26, [{"label": "ens", "ensemble": {"components": naive}}])
    out = tmp_path / "runs"
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model 'ens', run 0 (seed ")
    assert "validation forecasts cannot be scored: rmse is inf" in err
    assert not out.exists()


def test_metrics_refuses_an_rmse_past_the_float_range(tmp_path, capsys):
    # Day 35 lies in the test block, which only the metrics stage scores.
    config = huge_demand_config(tmp_path, 35)
    out = tmp_path / "runs"
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli_main(["metrics", "--runs", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {out / 'runs.csv'}: model 'sn': rmse is inf, beyond the float64 range"
    )
    assert not (out / "rmse.csv").exists()


def test_report_json_renders_the_table_and_figures_written_beside_it(tmp_path):
    # The default probabilities' column names sort in probability order;
    # those of 0.05 and 0.25, q5 and q25, do not.
    models = [
        {"label": "sn", "kind": KINDS["naive"]},
        {"label": "lar", "kind": {"kind": "linear_ar", "params": {"lags": 4, "epochs": 2}}},
    ]
    config, runs = write_experiment_config(tmp_path, models=models), tmp_path / "runs"
    assert cli_main(["run", "--config", str(config), "--out", str(runs)]) == 0
    assert cli_main(["metrics", "--runs", str(runs)]) == 0
    for quantiles in ([], ["--quantiles", "0.05,0.25"]):
        assert cli_main(["report", "--runs", str(runs), *quantiles]) == 0
        report = json.loads((runs / "report.json").read_text(encoding="utf-8"))
        figures = emit_plots(report)
        assert sorted(figures) == sorted(path.name for path in runs.glob("*.svg"))
        for name, svg in figures.items():
            assert (runs / name).read_bytes() == svg.encode("utf-8"), name
        table = emit_quantile_table(report)
        assert (runs / "table.csv").read_bytes() == table.encode("utf-8")
    assert table.startswith("model,q5,q25\n")


@pytest.mark.parametrize(
    ("label_b", "runs_b", "name"),
    [("mean", 4, "cv.csv"), ("naive", 4, "rmse.csv")],
    ids=["other-model", "other-run-count"],
)
def test_report_rejects_metrics_of_another_run(tmp_path, capsys, label_b, runs_b, name):
    # Metrics of run A, then run B's files copied over A's: report must not
    # describe A's numbers under B's manifest.
    runs = {}
    for side, label, run_count, seed in (("a", "naive", 3, 5), ("b", label_b, runs_b, 9)):
        (tmp_path / side).mkdir()
        config = write_experiment_config(
            tmp_path / side, run_count, [{"label": label, "kind": KINDS[label]}]
        )
        config.write_text(config.read_text().replace('"master_seed": 5', f'"master_seed": {seed}'))
        runs[side] = tmp_path / side / "runs"
        assert cli_main(["run", "--config", str(config), "--out", str(runs[side])]) == 0
    assert cli_main(["metrics", "--runs", str(runs["a"])]) == 0
    for copied in ("runs.csv", "actuals.csv", "manifest.json"):
        (runs["a"] / copied).write_bytes((runs["b"] / copied).read_bytes())
    before = sorted(path.name for path in runs["a"].iterdir())
    capsys.readouterr()
    assert cli_main(["report", "--runs", str(runs["a"])]) == 2
    message = capsys.readouterr().err
    assert message.startswith(f"error: {runs['a'] / name}: ")
    assert str(runs["a"] / "manifest.json") in message
    assert sorted(path.name for path in runs["a"].iterdir()) == before


@pytest.mark.parametrize("command", ["metrics", "report"])
def test_a_stage_writes_only_into_the_run_directory_it_reads(tmp_path, capsys, command):
    # metrics and report take no --out, so b's numbers never land beside a's manifest.
    runs = {}
    for side, label in (("a", "naive"), ("b", "mean")):
        (tmp_path / side).mkdir()
        models = [{"label": label, "kind": KINDS[label]}]
        config = write_experiment_config(tmp_path / side, models=models)
        runs[side] = tmp_path / side / "runs"
        assert cli_main(["run", "--config", str(config), "--out", str(runs[side])]) == 0
        assert cli_main(["metrics", "--runs", str(runs[side])]) == 0
        assert cli_main(["report", "--runs", str(runs[side])]) == 0
    before = contents(runs["a"])
    capsys.readouterr()
    assert cli_main([command, "--help"]) == 0
    assert "--out" not in capsys.readouterr().out
    assert cli_main([command, "--runs", str(runs["b"]), "--out", str(runs["a"])]) == 1
    assert contents(runs["a"]) == before


@pytest.mark.parametrize("text", ["", "0.5,x"])
def test_report_rejects_quantiles_that_are_not_numbers(tmp_path, capsys, text):
    runs = metrics_dir(tmp_path)
    before = contents(runs)
    assert cli_main(["report", "--runs", str(runs), "--quantiles", text]) == 2
    assert capsys.readouterr().err == f"error: bad --quantiles value {text!r}\n"
    assert contents(runs) == before
