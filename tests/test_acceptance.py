"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The benchmark panel is desk-scale (100 series x 400 days, horizon 28,
noise std 5, levels in [50, 150]) with a weekly seasonal pattern; the
stochastic stand-ins use deliberately short lag windows so their seed
sensitivity is visible while the seasonal baseline stays the stronger
validation model, mirroring the qualitative regime the toolkit targets.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import forecast_stability as fs
from forecast_stability.cli import cli_main
from forecast_stability.ensemble import component_seed, make_validation_windows
from forecast_stability.metrics import EmptySample, postprocess, rmse

BENCH_PANEL = fs.SynthConfig(
    n_series=100,
    length=400,
    level_range=(50.0, 150.0),
    season_period=7,
    season_amplitude=20.0,
    noise_std=5.0,
    intermittency=0.0,
    seed=2026,
)
BENCH_SPLIT = fs.SplitSpec(train_length=372, horizon=28)
BENCH_LAR = fs.LinearAR(lags=2, epochs=2, learning_rate=0.1, batch_size=32)
BENCH_MLP = fs.TinyMLP(lags=2, hidden_dim=8, epochs=4, learning_rate=0.05, batch_size=32)
BENCH_COMPONENTS = (fs.SeasonalNaive(period=7), fs.GlobalMean(), BENCH_LAR, BENCH_MLP)
RUNS = 10


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE C{number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE C{number} PASS: {description}")


def _grids_by_label(result):
    return {
        entry.label: fs.cv_grid(runs)
        for entry, runs in zip(result.config.models, result.forecasts)
    }


@pytest.fixture(scope="module")
def deterministic_experiment():
    cfg = fs.ExperimentConfig(
        dataset=BENCH_PANEL,
        split=BENCH_SPLIT,
        models=(
            fs.ModelEntry(label="seasonal_naive", model=fs.SeasonalNaive(period=7)),
            fs.ModelEntry(label="global_mean", model=fs.GlobalMean()),
        ),
        run_count=RUNS,
        master_seed=0,
    )
    started = time.perf_counter()
    result = fs.run_experiment(cfg)
    elapsed = time.perf_counter() - started
    return result, elapsed


@pytest.fixture(scope="module")
def stochastic_experiment():
    cfg = fs.ExperimentConfig(
        dataset=BENCH_PANEL,
        split=BENCH_SPLIT,
        models=(
            fs.ModelEntry(label="linear_ar", model=BENCH_LAR),
            fs.ModelEntry(label="tiny_mlp", model=BENCH_MLP),
            fs.ModelEntry(
                label="ensemble",
                model=fs.EnsembleRequest(components=BENCH_COMPONENTS, n_windows=2),
            ),
        ),
        run_count=RUNS,
        master_seed=0,
    )
    started = time.perf_counter()
    result = fs.run_experiment(cfg)
    elapsed = time.perf_counter() - started
    return result, elapsed


def test_c1_deterministic_models_have_zero_variance(deterministic_experiment):
    result, elapsed = deterministic_experiment
    with criterion(1, "deterministic models yield an all-zero CV grid in < 5 s"):
        grids = _grids_by_label(result)
        for label in ("seasonal_naive", "global_mean"):
            assert np.all(grids[label].cv == 0.0), label
            assert np.all(grids[label].std == 0.0), label
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_c2_stochastic_models_show_variance(stochastic_experiment):
    result, _ = stochastic_experiment
    with criterion(2, "stochastic models: median CV > 0 and q90 > 0.02"):
        grids = _grids_by_label(result)
        for label in ("linear_ar", "tiny_mlp"):
            flat = grids[label].cv.reshape(-1)
            q50, q90 = fs.quantiles(flat, [0.5, 0.9])
            assert q50 > 0.0, f"{label} median CV {q50}"
            assert q90 > 0.02, f"{label} q90 CV {q90}"


def test_c3_ensemble_stabilizes(stochastic_experiment):
    result, elapsed = stochastic_experiment
    with criterion(3, "ensemble median CV <= 0.7 x best stochastic median, < 3 min"):
        grids = _grids_by_label(result)
        medians = {
            label: fs.quantiles(grids[label].cv.reshape(-1), [0.5])[0]
            for label in ("linear_ar", "tiny_mlp", "ensemble")
        }
        best_stochastic = min(medians["linear_ar"], medians["tiny_mlp"])
        assert medians["ensemble"] <= 0.7 * best_stochastic, medians
        # the mitigation invariant: strictly below every stochastic component
        assert medians["ensemble"] < medians["linear_ar"]
        assert medians["ensemble"] < medians["tiny_mlp"]
        assert elapsed < 180.0, f"took {elapsed:.1f}s"


def test_c4_ensemble_validation_dominance():
    with criterion(4, "ensemble validation RMSE <= best component + 1e-9"):
        panel = fs.synth_generate(
            fs.SynthConfig(
                n_series=20,
                length=120,
                level_range=(30.0, 120.0),
                season_period=7,
                season_amplitude=12.0,
                noise_std=6.0,
                intermittency=0.1,
                seed=31,
            )
        )
        horizon, n_windows = 14, 2
        for seed in (0, 1, 2, 3, 4):
            (weights,) = fs.fit_ensemble(
                list(BENCH_COMPONENTS), panel, horizon, n_windows=n_windows, seeds=(seed,)
            )
            # independent recomputation through the public fit/predict API
            windows = make_validation_windows(panel, horizon, n_windows)
            actual = np.stack([held for _, held in windows])
            raw = []
            for j, kind in enumerate(BENCH_COMPONENTS):
                seed_j = component_seed(seed, j)
                raw.append(
                    np.stack(
                        [fs.predict(fs.fit(kind, inner, (seed_j,))[0], horizon) for inner, _ in windows]
                    )
                )
            singles = [rmse(postprocess(fc), actual) for fc in raw]
            combined = sum(w * fc for w, fc in zip(weights, raw))
            ensemble_score = rmse(postprocess(combined), actual)
            assert ensemble_score <= min(singles) + 1e-9, (seed, ensemble_score, singles)


def test_c5_cv_grid_matches_brute_force_oracle():
    with criterion(5, "cv_grid equals brute-force recomputation exactly"):

        def oracle_cell(sample):
            n = len(sample)
            total = 0.0
            for v in sample:
                total += float(v)
            mean = total / n
            ssq = 0.0
            for v in sample:
                d = float(v) - mean
                ssq += d * d
            std = math.sqrt(ssq / (n - 1)) if n > 1 else 0.0
            cv = std / mean if mean != 0.0 else 0.0
            return cv, mean, std

        # exhaustive: all post-processed samples with R <= 4, values in {0..3}
        for r in (2, 3, 4):
            for sample in itertools.product(range(4), repeat=r):
                grid = fs.cv_grid(np.array(sample, dtype=float).reshape(r, 1, 1))
                cv, mean, std = oracle_cell(sample)
                assert grid.cv[0, 0] == cv
                assert grid.mean[0, 0] == mean
                assert grid.std[0, 0] == std

        # randomized: 1000 tensors with R, M, H <= 4
        rng = np.random.default_rng(777)
        for _ in range(1000):
            r = int(rng.integers(2, 5))
            m = int(rng.integers(1, 5))
            h = int(rng.integers(1, 5))
            runs = rng.uniform(-4, 12, size=(r, m, h))
            grid = fs.cv_grid(runs)
            processed = postprocess(runs)
            for i in range(m):
                for t in range(h):
                    cv, mean, std = oracle_cell(processed[:, i, t].tolist())
                    assert grid.cv[i, t] == cv
                    assert grid.mean[i, t] == mean
                    assert grid.std[i, t] == std


def test_c6_postprocessing_closure():
    with criterion(6, "mu = 0 implies sigma = 0 implies CV = 0; CV total and finite"):
        with pytest.raises(EmptySample):
            fs.cv_grid(np.ones((1, 1, 1)))
        for r in (2, 3, 4):
            for sample in itertools.product(range(4), repeat=r):
                grid = fs.cv_grid(np.array(sample, dtype=float).reshape(r, 1, 1))
                cv, mean, std = grid.cv[0, 0], grid.mean[0, 0], grid.std[0, 0]
                assert math.isfinite(cv) and cv >= 0.0
                if mean == 0.0:
                    assert all(v == 0 for v in sample)
                    assert std == 0.0
                    assert cv == 0.0


def test_c7_rmse_hand_checks():
    with criterion(7, "RMSE sqrt(10) example to 1e-12; constant offset exact"):
        value = rmse(np.array([[3.0, 5.0]]), np.array([[1.0, 1.0]]))
        assert abs(value - math.sqrt(10.0)) <= 1e-12
        base = np.array([[4.0, 9.0, 1.0], [2.0, 6.0, 8.0]])
        assert rmse(base + 2.0, base) == 2.0
        assert rmse(base, base) == 0.0


_C8_LINEAR_AR = {
    "kind": "linear_ar",
    "params": {"lags": 4, "epochs": 3, "learning_rate": 0.05, "batch_size": 16},
}
C8_SYNTH = {
    "n_series": 12,
    "length": 120,
    "level_range": [40, 110],
    "season_period": 7,
    "season_amplitude": 12,
    "noise_std": 4,
    "intermittency": 0.05,
    "seed": 9,
}
C8_EXPERIMENT = {
    "split": {"train_length": 113, "horizon": 7},
    "models": [
        {
            "label": "seasonal_naive",
            "kind": {"kind": "seasonal_naive", "params": {"period": 7}},
        },
        {"label": "linear_ar", "kind": _C8_LINEAR_AR},
        {
            "label": "ensemble",
            "ensemble": {
                "components": [
                    {"kind": "seasonal_naive", "params": {"period": 7}},
                    {"kind": "global_mean", "params": {}},
                    _C8_LINEAR_AR,
                ],
                "n_windows": 2,
            },
        },
    ],
    "run_count": 3,
    "master_seed": 12,
}
C8_RUN_OUTPUTS = (
    "runs.csv",
    "actuals.csv",
    "cv.csv",
    "rmse.csv",
    "table.csv",
    "report.json",
    "cv_hist_seasonal_naive.svg",
    "cv_hist_linear_ar.svg",
    "cv_hist_ensemble.svg",
    "rmse_distribution.svg",
)


def run_pipeline(base, run_cli, synth, experiment, run_outputs):
    """Run generate -> run -> metrics -> report on one config under ``base``.

    Returns the bytes of data.csv and of every contract output in the runs
    directory (manifest.json carries a timestamp and is left out).
    """
    synth_path = base / "synth.json"
    synth_path.write_text(json.dumps(synth))
    data_path = base / "data.csv"
    run_cli("generate", "--config", str(synth_path), "--out", str(data_path))
    cfg_path = base / "experiment.json"
    cfg_path.write_text(json.dumps({"dataset": {"csv": str(data_path)}, **experiment}))
    runs_dir = base / "runs"
    run_cli("run", "--config", str(cfg_path), "--out", str(runs_dir))
    run_cli("metrics", "--runs", str(runs_dir))
    run_cli("report", "--runs", str(runs_dir))
    outputs = {name: (runs_dir / name).read_bytes() for name in run_outputs}
    outputs["data.csv"] = data_path.read_bytes()
    return outputs


def run_c8_pipeline(base, run_cli):
    return run_pipeline(base, run_cli, C8_SYNTH, C8_EXPERIMENT, C8_RUN_OUTPUTS)


def test_c8_cli_pipeline_is_byte_deterministic(tmp_path):
    with criterion(8, "full CLI pipeline twice yields byte-identical outputs"):

        # pytest puts src/ on sys.path, but a child process needs it on PYTHONPATH.
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def run_cli(*argv):
            proc = subprocess.run(
                [sys.executable, "-m", "forecast_stability.cli", *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": pythonpath},
            )
            assert proc.returncode == 0, proc.stderr
            return proc

        outputs = {}
        for attempt in ("first", "second"):
            base = tmp_path / attempt
            base.mkdir()
            outputs[attempt] = run_c8_pipeline(base, run_cli)
        for name, payload in outputs["first"].items():
            assert payload == outputs["second"][name], f"{name} differs between runs"


# sha256 of every contract output of the C8 pipeline. These pin the bytes
# the CLI writes; a change to any of them is a change of behaviour.
C8_GOLDEN_SHA256 = {
    "actuals.csv": "f751dd7eceae566e9bbb100b828bfeadae1f577928c8abc75dafe8a3858a003f",
    "cv.csv": "15d57145c417b137a27319df701202bb99253cc054eaf29ffc2f5e873660eaaf",
    "cv_hist_ensemble.svg": "846034ad6b45564a06ea0990c9d235692ac3b6de5a928357444de2b282655876",
    "cv_hist_linear_ar.svg": "b620ef51830ff6e8a3c3253ccd546b372492e9de8715234ad96c14629253c878",
    "cv_hist_seasonal_naive.svg": "24ce30e653870bff2bdb5662b7122d472a99f9a3bceeb3623c28c84b12ad010b",
    "data.csv": "104fcef9cdd5faf76055f41f66e9bb0e09c65316407a8d0d18beeba91ea533d5",
    "report.json": "b1ea0ce959a5c7705854ff330d9d05fce7656bef2d504ddfbfa057e69dd89f5f",
    "rmse.csv": "64130545b6a31cdd80d5a06bb0be4501fab324f5468e93f2749cbceffaf3b8ed",
    "rmse_distribution.svg": "8561ed29ea7d3f0a0408409ffc9ad46627b9e4c5b714f7fefa0dc7de5c0b4ea8",
    "runs.csv": "e5d5de3fe2bd50b7747df6cdfa084d63c5348b32aeb3f622f1700727b696afd1",
    "table.csv": "6e3577424e980e43e01f377215f201f4d1a20cf2aab897066394e87efe40f548",
}


def test_c8_outputs_match_golden_digests(tmp_path, capsys):
    def run_cli(*argv):
        assert cli_main(list(argv)) == 0, capsys.readouterr().err

    outputs = run_c8_pipeline(tmp_path, run_cli)
    digests = {name: hashlib.sha256(payload).hexdigest() for name, payload in outputs.items()}
    assert digests == C8_GOLDEN_SHA256


# A config whose bytes depend on every SGD code path: tiny_mlp, a linear_ar
# whose 790 training rows are not a multiple of its batch size (a short last
# batch each epoch), and an ensemble holding both SGD kinds, so validation
# fits on shorter panels and the greedy selection are pinned too. At this
# master seed the three ensemble runs pick a 2:1 mix, linear_ar alone and
# tiny_mlp alone.
_SGD_LINEAR_AR = {
    "kind": "linear_ar",
    "params": {"lags": 4, "epochs": 3, "learning_rate": 0.05, "batch_size": 16},
}
_SGD_TINY_MLP = {
    "kind": "tiny_mlp",
    "params": {"lags": 3, "hidden_dim": 4, "epochs": 3, "learning_rate": 0.05, "batch_size": 12},
}
SGD_SYNTH = {
    "n_series": 10,
    "length": 90,
    "level_range": [30, 120],
    "season_period": 7,
    "season_amplitude": 10,
    "noise_std": 5,
    "intermittency": 0.1,
    "seed": 21,
}
SGD_EXPERIMENT = {
    "split": {"train_length": 83, "horizon": 7},
    "models": [
        {"label": "tiny_mlp", "kind": _SGD_TINY_MLP},
        {"label": "linear_ar", "kind": _SGD_LINEAR_AR},
        {
            "label": "ensemble",
            "ensemble": {
                "components": [
                    {"kind": "seasonal_naive", "params": {"period": 7}},
                    _SGD_LINEAR_AR,
                    _SGD_TINY_MLP,
                ],
                "n_windows": 2,
            },
        },
    ],
    "run_count": 3,
    "master_seed": 2,
}
SGD_RUN_OUTPUTS = (
    "runs.csv",
    "actuals.csv",
    "cv.csv",
    "rmse.csv",
    "table.csv",
    "report.json",
    "cv_hist_tiny_mlp.svg",
    "cv_hist_linear_ar.svg",
    "cv_hist_ensemble.svg",
    "rmse_distribution.svg",
)
# sha256 of every contract output of the SGD pipeline, pinned like C8's.
SGD_GOLDEN_SHA256 = {
    "actuals.csv": "2b2607cba1ce9ca42d174ddf8768ed5c51338e81e726bf5a7aebd233baf340d3",
    "cv.csv": "321c0ecbf1dbe72b214476b5606f82414a58ab3abac82032671e5bdd2196423f",
    "cv_hist_ensemble.svg": "aefa659487f64cc37f24df86bfa13fd987d6111a6cbc42eaa1c7e494f5ec1aac",
    "cv_hist_linear_ar.svg": "21e6f105e6b4d5f05b9ee1c045488732a82fd64c652b6c1152f10280187c7384",
    "cv_hist_tiny_mlp.svg": "6a57fa6106b6446db327f8e449e4703a9a4f23ba31e851ba11f7c66de7bb3c25",
    "data.csv": "d25fb5f8cc072283e66a81e04cf07927a25f3fd86681967e05852dc47211b349",
    "report.json": "1c0358f5511a2ffe63e402f1e377805e5f62f4f8b00f114afa52e4252e90f442",
    "rmse.csv": "d8b0d2402e6e907b074ce63f2a71ade5049f071da7be51519441b82e6a626669",
    "rmse_distribution.svg": "c33823f407ca9a0ddf0da6777448b1b2a2cec66906f5ddc976facb114a9566ba",
    "runs.csv": "31092a44e0458b95e33c9a576ef92151654f22240950fca0d748debf44941f38",
    "table.csv": "d16542456f93ab1755262472156e6d4e38e10cd0eb8f011f78b013cc180ac242",
}


def test_sgd_outputs_match_golden_digests(tmp_path, capsys):
    def run_cli(*argv):
        assert cli_main(list(argv)) == 0, capsys.readouterr().err

    outputs = run_pipeline(tmp_path, run_cli, SGD_SYNTH, SGD_EXPERIMENT, SGD_RUN_OUTPUTS)
    digests = {name: hashlib.sha256(payload).hexdigest() for name, payload in outputs.items()}
    assert digests == SGD_GOLDEN_SHA256


def _blas_dynamic_arch() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernel at run time."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _blas_dynamic_arch(), reason="needs a DYNAMIC_ARCH OpenBLAS")
def test_goldens_hold_under_other_blas_kernels(tmp_path):
    # Raw SGD forecasts differ in their last bits between kernels; the
    # delivered, rounded outputs must not.
    goldens = [
        f"{__file__}::{test.__name__}"
        for test in (test_c8_outputs_match_golden_digests, test_sgd_outputs_match_golden_digests)
    ]
    cores = set()
    for kernel in ("Prescott", "SkylakeX"):
        env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "OPENBLAS_VERBOSE": "2"}
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
             f"--basetemp={tmp_path / kernel}", *goldens],
            cwd=Path(__file__).parents[1], env=env, capture_output=True, text=True,
        )
        output = child.stdout + child.stderr
        assert child.returncode == 0, f"{kernel}:\n{output}"
        assert "2 passed" in child.stdout, f"{kernel}:\n{output}"
        cores.update(line for line in output.splitlines() if line.startswith("Core: "))
    assert len(cores) == 2, cores  # each forced kernel was the one in use


def test_c9_quantile_table_fidelity():
    with criterion(9, "table columns are the 25/50/75/90 points at 3 decimals"):
        cv = np.array([[0.0, 0.1], [0.2, 0.3]])
        grid = fs.CvGrid(cv=cv, mean=np.ones_like(cv), std=cv.copy())
        accuracy = {"model_a": fs.AccuracyReport((1.0,))}
        text = fs.emit_quantile_table(fs.build_report_bundle({"model_a": grid}, accuracy))
        lines = text.strip().splitlines()
        assert lines[0] == "model,q25,q50,q75,q90"
        cells = lines[1].split(",")
        assert cells[0] == "model_a"
        assert cells[1] == "0.075"
        assert cells[2] == "0.150"
        assert cells[3] == "0.225"
        assert cells[4] == "0.270"
        # hand-computed linear interpolation to 1e-12
        expected = [0.075, 0.15, 0.225, 0.27]
        computed = fs.quantiles(cv.reshape(-1), [0.25, 0.5, 0.75, 0.9])
        for got, want in zip(computed, expected):
            assert abs(got - want) <= 1e-12
