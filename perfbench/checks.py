"""Output checks on one pipeline's run directory, plus the quality metrics.

Each check is one operation of the benchmark: it passes or it counts as a
failure in ``error_rate``. They read the program's files back with the
program's own loaders.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from forecast_stability.harness import load_runs
from forecast_stability.report import load_metrics_files

from workloads import RUN_COUNT, SGD_KINDS, Workload

RMSE_TOLERANCE = 1e-12
# manifest.json carries a creation timestamp; every other output is part of
# the determinism contract.
NOT_DIGESTED = frozenset({"manifest.json"})


def digests(run_dir: Path) -> dict[str, str]:
    """sha256 of every output file under a pipeline's working directory."""
    return {
        str(path.relative_to(run_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file() and path.suffix in (".csv", ".json", ".svg")
    }


def contract_digests(all_digests: dict[str, str]) -> dict[str, str]:
    return {k: v for k, v in all_digests.items() if Path(k).name not in NOT_DIGESTED}


class Checks:
    """Counts attempted and failed operations and keeps failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def check_outputs(workload: Workload, runs_dir: Path, checks: Checks) -> dict[str, float]:
    """Run every output check on one ``runs`` directory.

    Returns the quality metrics ``rmse_p50`` and ``cv_q90`` read from the
    outputs, or an empty dict when they cannot be read back.
    """
    kinds = workload.model_kinds()
    shape = (RUN_COUNT, workload.n_series, workload.horizon)
    try:
        forecast_sets, actuals = load_runs(runs_dir)
        grids, accuracy = load_metrics_files(runs_dir)
    except Exception as exc:  # any failure to read back is a failed check
        checks.record("read back runs and metrics", False, repr(exc))
        return {}
    runs_ok = set(forecast_sets) == set(kinds) and all(
        fs.values.shape == shape for fs in forecast_sets.values()
    )
    checks.record("load_runs covers the full grid", runs_ok and actuals.shape == shape[1:])
    metrics_ok = set(grids) == set(kinds) == set(accuracy) and all(
        grid.shape == shape[1:] and len(accuracy[label].rmse_per_run) == RUN_COUNT
        for label, (grid, _) in grids.items()
    )
    checks.record("load_metrics_files covers the full grid", metrics_ok)
    if not (runs_ok and metrics_ok):
        return {}

    for label, label_kinds in sorted(kinds.items()):
        cv = grids[label][0].cv
        if SGD_KINDS.intersection(label_kinds):
            runs = forecast_sets[label].values
            distinct = len({runs[r].tobytes() for r in range(RUN_COUNT)})
            checks.record(
                f"{label}: seed reaches the model",
                bool(np.any(cv != 0)) and distinct == RUN_COUNT,
                f"{distinct} distinct runs of {RUN_COUNT}, cv all zero: {not np.any(cv != 0)}",
            )
        else:
            checks.record(f"{label}: deterministic cv grid is zero", not np.any(cv != 0))

    worst = 0.0
    for label, fs in forecast_sets.items():
        recomputed = np.sqrt(np.mean((fs.values - actuals) ** 2, axis=(1, 2)))
        worst = max(worst, float(np.max(np.abs(recomputed - accuracy[label].rmse_per_run))))
    checks.record("rmse.csv matches runs.csv and actuals.csv", worst <= RMSE_TOLERANCE, f"max diff {worst!r}")

    pooled_rmse = [v for report in accuracy.values() for v in report.rmse_per_run]
    pooled_cv = np.concatenate([grid.cv.reshape(-1) for grid, _ in grids.values()])
    return {
        "rmse_p50": float(np.median(pooled_rmse)),
        "cv_q90": float(np.quantile(pooled_cv, 0.9)),
    }

