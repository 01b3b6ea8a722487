"""The CLI exits 0 or 2 on a mutated config or run directory, and never raises.

Configs start from the benchmark workloads' own, on a panel small enough
for tier-1, with one key dropped or renamed or one value swapped for one of
another type, NaN, infinity or a huge int. Run directories start from a
complete pipeline's outputs with one byte or one comma-separated field
changed. Where a stage exits 0, what it wrote reads back.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forecast_stability import load_long_csv, load_runs
from forecast_stability.cli import cli_main
from forecast_stability.report import REPORT_FILE, load_metrics_files

ROOT = Path(__file__).resolve().parents[1]

ODD_VALUES = [
    None, True, "x", [], {}, 1.5, -1, 0, math.nan, math.inf, -math.inf,
    10**9, 10**11, 2**63, 2**64, -(2**63) - 1, 10**400,
]
ODD_FIELDS = [b"", b"x", b"-1", b"0", b"2.5", b"nan", b"inf", b"1e400", b"9" * 25, b'"', b"\xff"]


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads
    return workloads.WORKLOADS


def tiny_configs(workload, data_path: Path) -> dict[str, dict]:
    """A workload's two configs on a 4 x 40 panel with two runs."""
    synth = {**workload.synth_config(seed=11), "n_series": 4, "length": 40}
    experiment = workload.experiment_config(seed=11)
    experiment.update(
        dataset={"csv": str(data_path)}, split={"train_length": 33, "horizon": 7}, run_count=2
    )
    return {"synth.json": synth, "experiment.json": experiment}


def places(node):
    """Every (container, key) of a JSON tree."""
    members = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(members):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from places(value)


@st.composite
def mutated(draw, config):
    config = copy.deepcopy(config)
    node, key = draw(st.sampled_from(list(places(config))))
    how = draw(st.sampled_from(["drop", "rename", "swap"]))
    if how == "swap" or isinstance(node, list):
        node[key] = draw(st.sampled_from(ODD_VALUES))
    elif how == "drop":
        del node[key]
    else:
        node[key + "_"] = node.pop(key)
    return config


def stage(argv, reads_back) -> int:
    """Run one CLI stage; on exit 0, read back what it wrote."""
    code = cli_main([str(arg) for arg in argv])
    assert code in (0, 2)
    if code == 0:
        reads_back()
    return code


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_survives_a_mutated_config(workloads, data):
    workload = workloads[data.draw(st.sampled_from(sorted(workloads)))]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        configs = tiny_configs(workload, tmp / "data.csv")
        name = data.draw(st.sampled_from(sorted(configs)))
        configs[name] = data.draw(mutated(configs[name]))
        for name, config in configs.items():
            (tmp / name).write_text(json.dumps(config))
        runs = tmp / "runs"
        stages = [
            (["generate", "--config", tmp / "synth.json", "--out", tmp / "data.csv"],
             lambda: load_long_csv(tmp / "data.csv")),
            (["run", "--config", tmp / "experiment.json", "--out", runs],
             lambda: load_runs(runs)),
            (["metrics", "--runs", runs], lambda: load_metrics_files(runs)),
            (["report", "--runs", runs], lambda: json.loads((runs / REPORT_FILE).read_text())),
        ]
        for argv, reads_back in stages:
            if stage(argv, reads_back) != 0:
                break


@pytest.fixture(scope="module")
def run_dir(workloads, tmp_path_factory):
    """A complete run directory of the ensemble workload's tiny pipeline."""
    tmp = tmp_path_factory.mktemp("contract")
    for name, config in tiny_configs(workloads["ensemble_refit"], tmp / "data.csv").items():
        (tmp / name).write_text(json.dumps(config))
    runs = tmp / "runs"
    for argv in (
        ["generate", "--config", tmp / "synth.json", "--out", tmp / "data.csv"],
        ["run", "--config", tmp / "experiment.json", "--out", runs],
        ["metrics", "--runs", runs],
        ["report", "--runs", runs],
    ):
        assert cli_main([str(arg) for arg in argv]) == 0
    return runs


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_survives_a_mutated_run_directory(run_dir, data):
    with tempfile.TemporaryDirectory() as tmp:
        runs = shutil.copytree(run_dir, Path(tmp) / "runs")
        name = data.draw(
            st.sampled_from(["runs.csv", "actuals.csv", "manifest.json", "cv.csv", "rmse.csv"])
        )
        raw = bytearray((runs / name).read_bytes())
        if data.draw(st.booleans()):
            raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        else:
            lines = bytes(raw).split(b"\n")
            line = data.draw(st.integers(0, len(lines) - 1))
            fields = lines[line].split(b",")
            fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(
                st.sampled_from(ODD_FIELDS)
            )
            lines[line] = b",".join(fields)
            raw = b"\n".join(lines)
        (runs / name).write_bytes(raw)
        stage(["metrics", "--runs", runs, "--out", runs / "metrics"],
              lambda: load_metrics_files(runs / "metrics"))
        stage(["report", "--runs", runs, "--out", runs / "report"],
              lambda: json.loads((runs / "report" / REPORT_FILE).read_text()))
