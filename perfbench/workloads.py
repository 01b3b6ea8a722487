"""The three benchmark workloads and the inputs they generate from a seed.

Each workload is a synthetic panel recipe plus an experiment roster. The
workload seed becomes both the panel seed and the experiment's master
seed, so one seed fixes every input. The program under test sees only the
two JSON configs and the CSV the ``generate`` stage writes from them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 11

RUN_COUNT = 10

SYNTH_FILE = "synth.json"
EXPERIMENT_FILE = "experiment.json"
DATA_FILE = "data.csv"
RUNS_DIR = "runs"

SGD_KINDS = frozenset({"linear_ar", "tiny_mlp"})


def _sgd(kind: str, **extra) -> dict:
    params = {"lags": 7, "epochs": 3, "learning_rate": 0.05, "batch_size": 32}
    params.update(extra)
    return {"kind": kind, "params": params}


_SEASONAL_NAIVE = {"kind": "seasonal_naive", "params": {"period": 7}}
_GLOBAL_MEAN = {"kind": "global_mean", "params": {}}
_LINEAR_AR = _sgd("linear_ar")
_TINY_MLP = _sgd("tiny_mlp", hidden_dim=8)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_series: int
    length: int
    train_length: int
    horizon: int
    models: tuple[dict, ...]
    intermittency: float = 0.0

    def synth_config(self, seed: int) -> dict:
        return {
            "n_series": self.n_series,
            "length": self.length,
            "season_period": 7,
            "season_amplitude": 15,
            "noise_std": 5,
            "intermittency": self.intermittency,
            "seed": seed,
        }

    def experiment_config(self, seed: int) -> dict:
        return {
            "dataset": {"csv": DATA_FILE},
            "split": {"train_length": self.train_length, "horizon": self.horizon},
            "models": list(self.models),
            "run_count": RUN_COUNT,
            "master_seed": seed,
        }

    def write_inputs(self, seed: int, work_dir: Path) -> None:
        """Write the two configs; paths inside them are relative to work_dir."""
        work_dir.mkdir(parents=True, exist_ok=True)
        (work_dir / SYNTH_FILE).write_text(json.dumps(self.synth_config(seed)))
        (work_dir / EXPERIMENT_FILE).write_text(
            json.dumps(self.experiment_config(seed))
        )

    @property
    def cells(self) -> int:
        """Seeded (model, run) cells one ``run`` stage completes."""
        return len(self.models) * RUN_COUNT

    def model_kinds(self) -> dict[str, tuple[str, ...]]:
        """Label -> forecaster kinds it trains (one, or an ensemble's components)."""
        kinds = {}
        for entry in self.models:
            if "kind" in entry:
                kinds[entry["label"]] = (entry["kind"]["kind"],)
            else:
                kinds[entry["label"]] = tuple(
                    c["kind"] for c in entry["ensemble"]["components"]
                )
        return kinds


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sgd_refit",
            why="SGD fits of linear_ar and tiny_mlp with no ensemble: where a faster "
            "_fit_sgd, permutation or batching must win",
            n_series=200,
            length=400,
            train_length=386,
            horizon=14,
            models=(
                {"label": "linear_ar", "kind": _LINEAR_AR},
                {"label": "tiny_mlp", "kind": _TINY_MLP},
            ),
        ),
        Workload(
            name="ensemble_refit",
            why="two thirds of fits run inside fit_ensemble on validation windows, "
            "plus greedy scoring: where ensemble refit waste shows",
            n_series=100,
            length=400,
            train_length=386,
            horizon=14,
            models=(
                {
                    "label": "ensemble",
                    "ensemble": {
                        "components": [_SEASONAL_NAIVE, _GLOBAL_MEAN, _LINEAR_AR, _TINY_MLP],
                        "n_windows": 2,
                    },
                },
            ),
        ),
        Workload(
            name="wide_io",
            why="CSV writes and reads on a wide intermittent panel with no SGD: where "
            "CSV work shows and SGD work predicts no change",
            n_series=800,
            length=730,
            train_length=702,
            horizon=28,
            intermittency=0.3,
            models=(
                {"label": "seasonal_naive", "kind": _SEASONAL_NAIVE},
                {"label": "global_mean", "kind": _GLOBAL_MEAN},
                {
                    "label": "ensemble",
                    "ensemble": {"components": [_SEASONAL_NAIVE, _GLOBAL_MEAN], "n_windows": 2},
                },
            ),
        ),
    )
}
