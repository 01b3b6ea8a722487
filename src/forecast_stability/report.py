"""Report emission: quantile tables, histograms, and SVG figures.

Everything here is a deterministic, pure transformation of metric outputs:
identical inputs produce byte-identical CSV, JSON, and SVG. Figures are
self-contained static SVG composed by hand, with no external assets, so
outputs stay diffable and golden-testable. Histogram count axes use a
log-like scale (bar length proportional to log10(1 + count)) because CV
distributions concentrate near zero with long sparse tails.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import tabular
from .errors import ForecastStabilityError
from .metrics import (
    AccuracyReport,
    CvGrid,
    DEFAULT_QUANTILES,
    EmptyInput,
    Histogram,
    histogram,
    quantiles,
)

DEFAULT_BINS = 60
DEFAULT_CLIP = 1.0

CV_FILE = "cv.csv"
RMSE_FILE = "rmse.csv"
TABLE_FILE = "table.csv"
REPORT_FILE = "report.json"


class ReportError(ForecastStabilityError):
    pass


_CSV_ERRORS = tabular.Errors(*(ReportError,) * 5)


@dataclass(frozen=True)
class ModelReport:
    """Summary of one model: CV quantiles, CV histogram, per-run RMSE."""

    label: str
    quantile_probs: tuple[float, ...]
    quantile_values: tuple[float, ...]
    cv_median: float
    cv_histogram: Histogram
    rmse_per_run: tuple[float, ...]
    n_series: int
    horizon: int

    def __post_init__(self):
        qs = self.quantile_values
        if any(b < a for a, b in zip(qs, qs[1:])):
            raise ValueError(f"{self.label}: quantile row is not non-decreasing")
        covered = self.cv_histogram.total_count + self.cv_histogram.excluded
        if covered != self.n_series * self.horizon:
            raise ValueError(
                f"{self.label}: histogram covers {covered} cells, "
                f"expected {self.n_series * self.horizon}"
            )


@dataclass(frozen=True)
class ReportBundle:
    """Per-model reports plus the experiment shape they came from."""

    models: tuple[ModelReport, ...]
    run_count: int
    train_length: int | None = None


def build_report_bundle(
    grids: Mapping[str, CvGrid],
    accuracy: Mapping[str, AccuracyReport],
    probs: Sequence[float] = DEFAULT_QUANTILES,
    bins: int = DEFAULT_BINS,
    clip_upper: float = DEFAULT_CLIP,
    train_length: int | None = None,
) -> ReportBundle:
    """Assemble the full report state from per-model grids and accuracy."""
    if not grids:
        raise EmptyInput("no models to report on")
    if set(grids) != set(accuracy):
        raise ReportError(
            f"cv models {sorted(grids)} != rmse models {sorted(accuracy)}"
        )
    sorted_probs = _sorted_probs(probs)
    models = []
    run_count = 0
    for label in sorted(grids):
        grid = grids[label]
        flat = grid.cv.reshape(-1)
        models.append(
            ModelReport(
                label=label,
                quantile_probs=sorted_probs,
                quantile_values=tuple(quantiles(flat, sorted_probs)),
                cv_median=quantiles(flat, [0.5])[0],
                cv_histogram=histogram(flat, bins, clip_upper),
                rmse_per_run=accuracy[label].rmse_per_run,
                n_series=grid.shape[0],
                horizon=grid.shape[1],
            )
        )
        run_count = max(run_count, len(accuracy[label].rmse_per_run))
    return ReportBundle(
        models=tuple(models), run_count=run_count, train_length=train_length
    )


def emit_quantile_table(
    grids: Mapping[str, CvGrid], probs: Sequence[float] = DEFAULT_QUANTILES
) -> str:
    """CSV table of CV quantiles, one row per model, 3-decimal values.

    Default columns are the 25/50/75/90 percent points; rows are sorted by
    model label. Two probabilities whose column names are equal raise
    :class:`ReportError`.
    """
    if not grids:
        raise EmptyInput("no models to tabulate")
    sorted_probs = _sorted_probs(probs)
    table = [quantiles(grid.cv.reshape(-1), sorted_probs) for grid in grids.values()]
    columns = tuple(_prob_column(p) for p in sorted_probs)
    schema = tabular.Schema((tabular.MODEL,), columns, "{:.3f}".format)
    return tabular.csv_text(schema, (list(grids),), tuple(np.array(table).T))


def _prob_column(p: float) -> str:
    return f"q{100 * p:g}"


def _sorted_probs(probs: Sequence[float]) -> tuple[float, ...]:
    """The probabilities in ascending order; their column names must differ."""
    named: dict[str, float] = {}
    for p in sorted(probs):
        column = _prob_column(p)
        if column in named:
            raise ReportError(
                f"quantile probabilities {named[column]!r} and {p!r} share the column {column}"
            )
        named[column] = p
    return tuple(named.values())


def write_metrics_files(
    grids: Mapping[str, tuple[CvGrid, Sequence[str]]],
    accuracy: Mapping[str, AccuracyReport],
    out_dir: str | Path,
) -> None:
    """Write cv.csv and rmse.csv for a whole experiment.

    cv.csv is ``model,item_id,h,cv,mean,std`` (the per-grid schema keyed by
    model); rmse.csv is ``model,run_id,rmse``. Floats carry round-trip
    precision so reports rebuilt from these files match in-memory results
    exactly. All models share one (item, h) grid and one run count.
    """
    if not grids or not accuracy:
        raise EmptyInput("no models to write")
    labels = list(grids)
    ids = tuple(grids[labels[0]][1])
    if any(tuple(grid_ids) != ids for _, grid_ids in grids.values()):
        raise ReportError("every model's cv grid must cover the same items")
    stats = [
        np.stack([getattr(grids[label][0], stat) for label in labels])
        for stat in tabular.CV.values
    ]
    rmse = np.array([report.rmse_per_run for report in accuracy.values()])

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    steps = range(1, stats[0].shape[2] + 1)
    tabular.write_csv(out_dir / CV_FILE, tabular.CV, (labels, ids, steps), stats)
    rmse_axes = (list(accuracy), range(rmse.shape[1]))
    tabular.write_csv(out_dir / RMSE_FILE, tabular.RMSE, rmse_axes, (rmse,))


def load_metrics_files(
    metrics_dir: str | Path,
) -> tuple[dict[str, tuple[CvGrid, tuple[str, ...]]], dict[str, AccuracyReport]]:
    """Rebuild per-model CV grids and accuracy reports from metrics files."""
    metrics_dir = Path(metrics_dir)
    (models, ids, _), (cv, mean, std) = tabular.read_csv(
        metrics_dir / CV_FILE, tabular.CV, _CSV_ERRORS
    )
    (rmse_models, _), (rmse,) = tabular.read_csv(
        metrics_dir / RMSE_FILE, tabular.RMSE, _CSV_ERRORS
    )
    grids = {
        model: (CvGrid(cv=cv[m], mean=mean[m], std=std[m]), ids)
        for m, model in enumerate(models)
    }
    accuracy = {
        model: AccuracyReport(model_label=model, rmse_per_run=tuple(rmse[m].tolist()))
        for m, model in enumerate(rmse_models)
    }
    return grids, accuracy


def report_to_json(bundle: ReportBundle) -> str:
    """Full-precision JSON form of a report bundle; key order is fixed."""
    obj = {
        "metadata": {
            "run_count": bundle.run_count,
            "train_length": bundle.train_length,
        },
        "models": {
            m.label: {
                "n_series": m.n_series,
                "horizon": m.horizon,
                "cv_quantiles": {
                    _prob_column(p): v
                    for p, v in zip(m.quantile_probs, m.quantile_values)
                },
                "cv_median": m.cv_median,
                "cv_histogram": {
                    "bins": [
                        {"lower": lo, "upper": hi, "count": count}
                        for lo, hi, count in m.cv_histogram.bins
                    ],
                    "excluded": m.cv_histogram.excluded,
                },
                "rmse_per_run": list(m.rmse_per_run),
            }
            for m in bundle.models
        },
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def slugify(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label)


def emit_plots(bundle: ReportBundle, out_dir: str | Path) -> list[Path]:
    """Write one CV histogram SVG per model plus an RMSE distribution SVG.

    Histogram bars carry their count in a ``data-count`` attribute, the
    median sits on a dashed marker line, and the count axis is log-like.
    Returns the written paths.
    """
    if not bundle.models:
        raise EmptyInput("no models to plot")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for model in bundle.models:
        path = out_dir / f"cv_hist_{slugify(model.label)}.svg"
        path.write_text(_cv_histogram_svg(model), encoding="utf-8")
        written.append(path)
    rmse_path = out_dir / "rmse_distribution.svg"
    rmse_path.write_text(_rmse_distribution_svg(bundle), encoding="utf-8")
    written.append(rmse_path)
    return written


_SVG_STYLE = (
    "text{font-family:Helvetica,Arial,sans-serif;font-size:11px;fill:#333}"
    ".title{font-size:14px;font-weight:bold}"
    ".axis{stroke:#888;stroke-width:1}"
    ".grid{stroke:#ddd;stroke-width:0.5}"
    ".bar{fill:#4878a8}"
    ".median{stroke:#c0392b;stroke-width:1.5;stroke-dasharray:5,3}"
    ".box{fill:#a8c4dc;stroke:#33597f;stroke-width:1}"
    ".whisker{stroke:#33597f;stroke-width:1}"
    ".pt{fill:#c0392b}"
)


def _svg_open(width: int, height: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f"<style>{_SVG_STYLE}</style>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text class="title" x="{width / 2:.2f}" y="18" '
        f'text-anchor="middle">{_escape(title)}</text>',
    ]


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _log_height(count: int, max_count: int, plot_height: float) -> float:
    if max_count < 1:
        return 0.0
    return plot_height * math.log10(1 + count) / math.log10(1 + max_count)


def _cv_histogram_svg(model: ModelReport) -> str:
    width, height = 640, 400
    left, right, top, bottom = 60, 20, 34, 50
    plot_w = width - left - right
    plot_h = height - top - bottom
    bins = model.cv_histogram.bins
    clip_upper = bins[-1][1]
    max_count = max(count for _, _, count in bins)

    parts = _svg_open(
        width,
        height,
        f"CV distribution: {model.label} "
        f"(excluded tail: {model.cv_histogram.excluded})",
    )
    # log-like count gridlines at 1, 10, 100, ...
    level = 1
    while level <= max_count:
        y = top + plot_h - _log_height(level, max_count, plot_h)
        parts.append(
            f'<line class="grid" x1="{left}" y1="{y:.2f}" '
            f'x2="{left + plot_w}" y2="{y:.2f}"/>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{y + 4:.2f}" text-anchor="end">{level}</text>'
        )
        level *= 10
    for lo, hi, count in bins:
        x = left + plot_w * lo / clip_upper
        bar_w = plot_w * (hi - lo) / clip_upper
        bar_h = _log_height(count, max_count, plot_h)
        y = top + plot_h - bar_h
        parts.append(
            f'<rect class="bar" data-count="{count}" x="{x:.2f}" y="{y:.2f}" '
            f'width="{max(bar_w - 0.5, 0.5):.2f}" height="{bar_h:.2f}"/>'
        )
    median_x = left + plot_w * min(model.cv_median, clip_upper) / clip_upper
    parts.append(
        f'<line class="median" data-median="{model.cv_median!r}" '
        f'x1="{median_x:.2f}" y1="{top}" x2="{median_x:.2f}" y2="{top + plot_h}"/>'
    )
    parts.append(
        f'<line class="axis" x1="{left}" y1="{top + plot_h}" '
        f'x2="{left + plot_w}" y2="{top + plot_h}"/>'
    )
    parts.append(
        f'<line class="axis" x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = left + plot_w * frac
        parts.append(
            f'<text x="{x:.2f}" y="{top + plot_h + 16}" '
            f'text-anchor="middle">{frac * clip_upper:g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 12}" '
        f'text-anchor="middle">coefficient of variation</text>'
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.2f})">cell count (log scale)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _rmse_distribution_svg(bundle: ReportBundle) -> str:
    width, height = 640, 400
    left, right, top, bottom = 60, 20, 34, 60
    plot_w = width - left - right
    plot_h = height - top - bottom
    models = bundle.models
    all_values = [v for m in models for v in m.rmse_per_run]
    vmax = max(all_values) if all_values else 1.0
    vmin = min(all_values) if all_values else 0.0
    if vmax == vmin:
        vmax = vmin + 1.0
    span = vmax - vmin

    def y_of(value: float) -> float:
        return top + plot_h * (1.0 - (value - vmin) / span)

    parts = _svg_open(width, height, "RMSE per run, by model")
    slot_w = plot_w / len(models)
    for k, model in enumerate(models):
        center = left + slot_w * (k + 0.5)
        values = sorted(model.rmse_per_run)
        if not values:
            continue
        q1, q2, q3 = quantiles(values, (0.25, 0.5, 0.75))
        lo, hi = values[0], values[-1]
        box_w = slot_w * 0.4
        parts.append(
            f'<line class="whisker" x1="{center:.2f}" y1="{y_of(lo):.2f}" '
            f'x2="{center:.2f}" y2="{y_of(hi):.2f}"/>'
        )
        parts.append(
            f'<rect class="box" x="{center - box_w / 2:.2f}" y="{y_of(q3):.2f}" '
            f'width="{box_w:.2f}" height="{max(y_of(q1) - y_of(q3), 0.5):.2f}"/>'
        )
        parts.append(
            f'<line class="whisker" x1="{center - box_w / 2:.2f}" '
            f'y1="{y_of(q2):.2f}" x2="{center + box_w / 2:.2f}" y2="{y_of(q2):.2f}"/>'
        )
        for run_id, value in enumerate(model.rmse_per_run):
            # deterministic strip: spread points by run id
            offset = (
                (run_id / (len(model.rmse_per_run) - 1) - 0.5)
                if len(model.rmse_per_run) > 1
                else 0.0
            )
            x = center + offset * box_w * 0.8
            parts.append(
                f'<circle class="pt" data-rmse="{value!r}" cx="{x:.2f}" '
                f'cy="{y_of(value):.2f}" r="2"/>'
            )
        parts.append(
            f'<text x="{center:.2f}" y="{top + plot_h + 16}" '
            f'text-anchor="middle">{_escape(model.label)}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        value = vmin + span * frac
        parts.append(
            f'<text x="{left - 6}" y="{y_of(value) + 4:.2f}" '
            f'text-anchor="end">{value:.2f}</text>'
        )
    parts.append(
        f'<line class="axis" x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}"/>'
    )
    parts.append(
        f'<line class="axis" x1="{left}" y1="{top + plot_h}" '
        f'x2="{left + plot_w}" y2="{top + plot_h}"/>'
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.2f})">RMSE (demand units)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
