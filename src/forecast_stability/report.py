"""Report composition: quantile tables, histograms, and SVG figures.

:func:`build_report_bundle` computes everything a report shows, once per
model, as the report.json document ``{"metadata": {...}, "models": {label:
{...}}}``; :func:`emit_quantile_table`, :func:`report_to_json` and
:func:`emit_plots` render it as text, reading it by key, and write no file,
so a caller can compose every output before writing any. Each is a
deterministic, pure transformation: identical inputs produce byte-identical
CSV, JSON, and SVG, and so does report.json read back.
Figures are self-contained static SVG composed by hand, with no external
assets, so outputs stay diffable and golden-testable. Histogram count axes
use a log-like scale (bar length proportional to log10(1 + count)) because
CV distributions concentrate near zero with long sparse tails.
"""

from __future__ import annotations

import json
import math
import re
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
    histogram,
    quantiles,
)

DEFAULT_BINS = 60
DEFAULT_CLIP = 1.0

CV_FILE = "cv.csv"
RMSE_FILE = "rmse.csv"
TABLE_FILE = "table.csv"
REPORT_FILE = "report.json"
RMSE_FIGURE = "rmse_distribution.svg"


class ReportError(ForecastStabilityError):
    pass


_CSV_ERRORS = tabular.Errors(*(ReportError,) * 5)


def build_report_bundle(
    grids: Mapping[str, CvGrid],
    accuracy: Mapping[str, AccuracyReport],
    probs: Sequence[float] = DEFAULT_QUANTILES,
    bins: int = DEFAULT_BINS,
    clip_upper: float = DEFAULT_CLIP,
    train_length: int | None = None,
) -> dict:
    """The report.json document of per-model grids and accuracy.

    ``models`` maps each label, in sorted order, to its grid's shape, its CV
    quantiles by column name (probabilities ascending), CV median and CV
    histogram, and the RMSE of each run; ``metadata`` holds the most runs of
    any model and ``train_length``. No model raises :class:`EmptyInput`; no
    probability, or two whose column names are equal, raise :class:`ReportError`.
    """
    if set(grids) != set(accuracy):
        raise ReportError(f"cv models {sorted(grids)} != rmse models {sorted(accuracy)}")
    columns = _columns(probs)
    if not grids:
        raise EmptyInput("no models to report on")
    models = {}
    for label in sorted(grids):
        flat = grids[label].cv.reshape(-1)
        # One sort of the grid gives the quantile row and the median.
        *values, median = quantiles(flat, (*columns.values(), 0.5))
        n_series, horizon = grids[label].shape
        models[label] = {
            "n_series": n_series,
            "horizon": horizon,
            "cv_quantiles": dict(zip(columns, values)),
            "cv_median": median,
            "cv_histogram": histogram(flat, bins, clip_upper),
            "rmse_per_run": list(accuracy[label].rmse_per_run),
        }
    run_count = max(len(model["rmse_per_run"]) for model in models.values())
    return {"metadata": {"run_count": run_count, "train_length": train_length}, "models": models}


def emit_quantile_table(report: Mapping) -> str:
    """CSV table of CV quantiles, one row per model, 3-decimal values.

    Default columns are the 25/50/75/90 percent points, in ascending
    probability order; rows are sorted by model label.
    """
    models = report["models"]
    columns = tuple(sorted(next(iter(models.values()))["cv_quantiles"], key=lambda c: float(c[1:])))
    schema = tabular.Schema((tabular.MODEL,), columns, "{:.3f}".format)
    table = np.array([[model["cv_quantiles"][c] for c in columns] for model in models.values()])
    return tabular.csv_text(schema, (list(models),), tuple(table.T))


def _columns(probs: Sequence[float]) -> dict[str, float]:
    """Each probability by its column name, ascending; at least one, and no two names equal."""
    named: dict[str, float] = {}
    for p in sorted(probs):
        column = f"q{100 * p:g}"
        if column in named:
            raise ReportError(
                f"quantile probabilities {named[column]!r} and {p!r} share the column {column}"
            )
        named[column] = p
    if not named:
        raise ReportError("no quantile probabilities to report")
    return named


def write_metrics_files(
    grids: Mapping[str, tuple[CvGrid, Sequence[str]]],
    accuracy: Mapping[str, AccuracyReport],
    out_dir: str | Path,
) -> None:
    """Write cv.csv and rmse.csv for a whole experiment.

    cv.csv is ``model,item_id,h,cv,mean,std`` (the per-grid schema keyed by
    model); rmse.csv is ``model,run_id,rmse``. Floats carry round-trip
    precision so reports rebuilt from these files match in-memory results
    exactly. All models share one (item, h) grid and one run count of at
    least 1, and both mappings hold the same models; else
    :class:`ReportError` is raised before any write.
    """
    if not grids or not accuracy:
        raise EmptyInput("no models to write")
    if set(grids) != set(accuracy):
        raise ReportError(f"cv models {sorted(grids)} != rmse models {sorted(accuracy)}")
    runs = {label: len(report.rmse_per_run) for label, report in accuracy.items()}
    if 0 in runs.values() or len(set(runs.values())) != 1:
        raise ReportError(
            f"{RMSE_FILE}: every model needs at least one run and the same run count, got {runs}"
        )
    labels = list(grids)
    first, ids = grids[labels[0]][0], tuple(grids[labels[0]][1])
    for label, (grid, grid_ids) in grids.items():
        if grid.shape != first.shape:
            raise ReportError(
                f"{CV_FILE}: model {labels[0]!r} has a {first.shape} cv grid, "
                f"but model {label!r} a {grid.shape} one"
            )
        if tuple(grid_ids) != ids:
            raise ReportError("every model's cv grid must cover the same items")
    stats = [
        np.stack([getattr(grids[label][0], stat) for label in labels])
        for stat in tabular.CV.values
    ]
    rmse = np.array([report.rmse_per_run for report in accuracy.values()])

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    steps = range(1, first.shape[1] + 1)
    tabular.write_csv(out_dir / CV_FILE, tabular.CV, (labels, ids, steps), stats)
    rmse_axes = (list(accuracy), range(rmse.shape[1]))
    tabular.write_csv(out_dir / RMSE_FILE, tabular.RMSE, rmse_axes, (rmse,))


def load_metrics_files(
    metrics_dir: str | Path,
) -> tuple[dict[str, tuple[CvGrid, tuple[str, ...]]], dict[str, AccuracyReport]]:
    """Rebuild per-model CV grids and accuracy reports from metrics files.

    A grid or report that fails its checks raises :class:`ReportError`
    naming the file and the model.
    """
    cv_path, rmse_path = Path(metrics_dir) / CV_FILE, Path(metrics_dir) / RMSE_FILE
    (models, ids, _), (cv, mean, std) = tabular.read_csv(cv_path, tabular.CV, _CSV_ERRORS)
    (rmse_models, _), (rmse,) = tabular.read_csv(rmse_path, tabular.RMSE, _CSV_ERRORS)
    grids = {
        model: (_named(cv_path, model, CvGrid, cv[m], mean[m], std[m]), ids)
        for m, model in enumerate(models)
    }
    accuracy = {
        model: _named(rmse_path, model, AccuracyReport, tuple(rmse[m].tolist()))
        for m, model in enumerate(rmse_models)
    }
    return grids, accuracy


def _named(path: Path, model: str, build, *args):
    """``build(*args)``; its ValueError is raised again naming the file and the model."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ReportError(f"{path}: model {model!r}: {exc}") from exc


def report_to_json(report: Mapping) -> str:
    """The report.json text of a report document: full precision, keys sorted."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def slugify(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label)


def emit_plots(report: Mapping) -> dict[str, str]:
    """One CV histogram SVG per model plus an RMSE distribution SVG, by file name.

    Histogram bars carry their count in a ``data-count`` attribute, the
    median sits on a dashed marker line, and the count axis is log-like.
    Two labels whose histograms would share a file name raise
    :class:`ReportError` naming the file.
    """
    figures: dict[str, str] = {}
    owners: dict[str, str] = {}
    for label, model in report["models"].items():
        name = f"cv_hist_{slugify(label)}.svg"
        owner = owners.setdefault(name, label)
        if owner != label:
            raise ReportError(f"models {owner!r} and {label!r} would both write {name}")
        figures[name] = _cv_histogram_svg(label, model)
    figures[RMSE_FIGURE] = _rmse_distribution_svg(report["models"])
    return figures


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
# Every figure's size and the left, right and top margins of its plot area;
# each figure sets its own bottom margin.
_WIDTH, _HEIGHT = 640, 400
_LEFT, _RIGHT, _TOP = 60, 20, 34
_PLOT_W = _WIDTH - _LEFT - _RIGHT
# Text content escapes as html.escape(text, quote=False) does.
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _element(tag: str, text: object = None, **attrs: object) -> str:
    """One SVG element, with ``text`` as its escaped content if given.

    A float attribute is written with 2 decimals, any other as ``str``
    writes it; ``class_`` names ``class`` and ``data_count`` ``data-count``.
    """
    shown = {name: f"{v:.2f}" if isinstance(v, float) else v for name, v in attrs.items()}
    fields = "".join(f' {name.rstrip("_").replace("_", "-")}="{v}"' for name, v in shown.items())
    if text is None:
        return f"<{tag}{fields}/>"
    return f"<{tag}{fields}>{str(text).translate(_ESCAPES)}</{tag}>"


def _svg(title: str, body: list[str], plot_h: int, y_label: str) -> str:
    """A whole figure: its frame and title, ``body``, then the y-axis label."""
    middle = _TOP + plot_h / 2
    rotate = f"rotate(-90 16 {middle:.2f})"
    frame = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f"<style>{_SVG_STYLE}</style>",
        _element("rect", width=_WIDTH, height=_HEIGHT, fill="white"),
        _element("text", title, class_="title", x=_WIDTH / 2, y=18, text_anchor="middle"),
    ]
    label = _element("text", y_label, x=16, y=middle, text_anchor="middle", transform=rotate)
    return "\n".join([*frame, *body, label, "</svg>\n"])


def _axes(plot_h: int) -> tuple[str, str]:
    """The plot area's horizontal and vertical axis lines."""
    base = _TOP + plot_h
    return (
        _element("line", class_="axis", x1=_LEFT, y1=base, x2=_LEFT + _PLOT_W, y2=base),
        _element("line", class_="axis", x1=_LEFT, y1=_TOP, x2=_LEFT, y2=base),
    )


def _log_height(count: int, max_count: int, plot_height: float) -> float:
    if max_count < 1:
        return 0.0
    return plot_height * math.log10(1 + count) / math.log10(1 + max_count)


def _cv_histogram_svg(label: str, model: Mapping) -> str:
    plot_h = _HEIGHT - _TOP - 50
    base = _TOP + plot_h
    bins = [(b["lower"], b["upper"], b["count"]) for b in model["cv_histogram"]["bins"]]
    clip_upper = bins[-1][1]
    max_count = max(count for _, _, count in bins)

    body = []
    # log-like count gridlines at 1, 10, 100, ...
    level = 1
    while level <= max_count:
        y = base - _log_height(level, max_count, plot_h)
        body.append(_element("line", class_="grid", x1=_LEFT, y1=y, x2=_LEFT + _PLOT_W, y2=y))
        body.append(_element("text", level, x=_LEFT - 6, y=y + 4, text_anchor="end"))
        level *= 10
    for lo, hi, count in bins:
        x = _LEFT + _PLOT_W * lo / clip_upper
        bar_w = _PLOT_W * (hi - lo) / clip_upper
        bar_h = _log_height(count, max_count, plot_h)
        body.append(
            _element("rect", class_="bar", data_count=count, x=x, y=base - bar_h,
                     width=max(bar_w - 0.5, 0.5), height=bar_h)
        )
    median = model["cv_median"]
    median_x = _LEFT + _PLOT_W * min(median, clip_upper) / clip_upper
    body.append(
        _element("line", class_="median", data_median=repr(median),
                 x1=median_x, y1=_TOP, x2=median_x, y2=base)
    )
    body.extend(_axes(plot_h))
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x, tick = _LEFT + _PLOT_W * frac, f"{frac * clip_upper:g}"
        body.append(_element("text", tick, x=x, y=base + 16, text_anchor="middle"))
    body.append(_element("text", "coefficient of variation", x=_LEFT + _PLOT_W / 2,
                         y=_HEIGHT - 12, text_anchor="middle"))
    title = f"CV distribution: {label} (excluded tail: {model['cv_histogram']['excluded']})"
    return _svg(title, body, plot_h, "cell count (log scale)")


def _rmse_distribution_svg(models: Mapping[str, Mapping]) -> str:
    plot_h = _HEIGHT - _TOP - 60
    base = _TOP + plot_h
    all_values = [v for model in models.values() for v in model["rmse_per_run"]]
    vmax = max(all_values) if all_values else 1.0
    vmin = min(all_values) if all_values else 0.0
    if vmax == vmin:
        vmax = vmin + 1.0
    # Past 2**53, vmin + 1.0 rounds back to vmin.
    span = vmax - vmin or 1.0

    def y_of(value: float) -> float:
        return _TOP + plot_h * (1.0 - (value - vmin) / span)

    body = []
    slot_w = _PLOT_W / len(models)
    for k, (label, model) in enumerate(models.items()):
        center = _LEFT + slot_w * (k + 0.5)
        rmse = model["rmse_per_run"]
        runs = len(rmse)
        if not runs:
            continue
        lo, q1, q2, q3, hi = quantiles(rmse, (0.0, 0.25, 0.5, 0.75, 1.0))
        box_w = slot_w * 0.4
        left, right = center - box_w / 2, center + box_w / 2
        body += [
            _element("line", class_="whisker", x1=center, y1=y_of(lo), x2=center, y2=y_of(hi)),
            _element("rect", class_="box", x=left, y=y_of(q3), width=box_w,
                     height=max(y_of(q1) - y_of(q3), 0.5)),
            _element("line", class_="whisker", x1=left, y1=y_of(q2), x2=right, y2=y_of(q2)),
        ]
        for run_id, value in enumerate(rmse):
            # deterministic strip: spread points by run id
            offset = (run_id / (runs - 1) - 0.5) if runs > 1 else 0.0
            x, y = center + offset * box_w * 0.8, y_of(value)
            body.append(_element("circle", class_="pt", data_rmse=repr(value), cx=x, cy=y, r=2))
        body.append(_element("text", label, x=center, y=base + 16, text_anchor="middle"))
    for frac in (0.0, 0.5, 1.0):
        value = vmin + span * frac
        body.append(
            _element("text", f"{value:.2f}", x=_LEFT - 6, y=y_of(value) + 4, text_anchor="end")
        )
    body += reversed(_axes(plot_h))  # the vertical axis first
    return _svg("RMSE per run, by model", body, plot_h, "RMSE (demand units)")
