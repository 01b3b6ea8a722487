"""The CLI exits 0 or 2 on a mutated config or run directory, and never raises.

Configs start from the benchmark workloads' own, on a panel small enough
for tier-1, with one key dropped or renamed or one value swapped for one of
another type, NaN, infinity or a huge int. Run directories start from a
complete pipeline's outputs with one byte or one comma-separated field
changed. Where a stage exits 0, what it wrote reads back; where it exits 2,
its message says where the fault is. The stages also run in any order, with
two configs, over one directory, and a report always names the models of
the run its directory holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from forecast_stability import load_long_csv, load_runs
from forecast_stability.cli import cli_main
from forecast_stability.report import REPORT_FILE, load_metrics_files

ROOT = Path(__file__).resolve().parents[1]

ODD_VALUES = [
    None, True, "x", [], {}, 1.5, -1, 0, math.nan, math.inf, -math.inf,
    10**9, 10**11, 2**63, 2**64, -(2**63) - 1, 10**400,
]
ODD_FIELDS = [b"", b"x", b"-1", b"0", b"2.5", b"nan", b"inf", b"1e400", b"9" * 25, b'"', b"\xff"]
# A config key path at the start of a message, as in "models[0].kind.params.lags: ".
KEY_PATH = re.compile(r"(\w+(\[\d+\])?)(\.\w+(\[\d+\])?)*: ")
# An OSError naming the file it could not open.
OS_ERROR = re.compile(r"\[Errno \d+\] .*: '.+'")


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


def cli(argv) -> tuple[int, str]:
    """One CLI stage's exit code and its error message, if any."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main([str(arg) for arg in argv])
    return code, err.getvalue().removeprefix("error: ")


def stage(argv, reads_back, names_where) -> int:
    """Run one CLI stage; on exit 0, read back what it wrote, and on exit 2
    check that ``names_where`` holds of its message."""
    code, message = cli(argv)
    assert code in (0, 2)
    if code == 0:
        reads_back()
    else:
        assert names_where(message), message
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

        def names_where(message):
            # A file under tmp: a config, or one that a stage could not read.
            return bool(
                str(tmp) in message
                or KEY_PATH.match(message)
                or "model '" in message
                or OS_ERROR.match(message)
            )

        stages = [
            (["generate", "--config", tmp / "synth.json", "--out", tmp / "data.csv"],
             lambda: load_long_csv(tmp / "data.csv")),
            (["run", "--config", tmp / "experiment.json", "--out", runs],
             lambda: load_runs(runs)),
            (["metrics", "--runs", runs], lambda: load_metrics_files(runs)),
            (["report", "--runs", runs], lambda: json.loads((runs / REPORT_FILE).read_text())),
        ]
        for argv, reads_back in stages:
            if stage(argv, reads_back, names_where) != 0:
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


def set_field(raw: bytes, line: int, field: int, value: bytes) -> bytes:
    """``raw`` with one comma-separated field of one line replaced."""
    lines = raw.split(b"\n")
    fields = lines[line].split(b",")
    fields[field] = value
    lines[line] = b",".join(fields)
    return b"\n".join(lines)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_survives_a_mutated_run_directory(run_dir, data):
    with tempfile.TemporaryDirectory() as tmp:
        runs = shutil.copytree(run_dir, Path(tmp) / "runs")
        name = data.draw(
            st.sampled_from(["runs.csv", "actuals.csv", "manifest.json", "cv.csv", "rmse.csv"])
        )
        raw = (runs / name).read_bytes()
        if data.draw(st.booleans()):
            raw = bytearray(raw)
            raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        else:
            line = data.draw(st.integers(0, raw.count(b"\n")))
            field = data.draw(st.integers(0, raw.split(b"\n")[line].count(b",")))
            raw = set_field(raw, line, field, data.draw(st.sampled_from(ODD_FIELDS)))
        (runs / name).write_bytes(raw)

        def names_where(message):
            return name in message

        # metrics would overwrite a mutated cv.csv or rmse.csv before report reads it.
        if name in ("runs.csv", "actuals.csv"):
            stage(["metrics", "--runs", runs], lambda: load_metrics_files(runs), names_where)
        stage(["report", "--runs", runs],
              lambda: json.loads((runs / REPORT_FILE).read_text()), names_where)


@pytest.mark.parametrize(
    ("command", "name", "field", "value"),
    [
        ("report", "rmse.csv", 2, b"-1"),
        ("report", "cv.csv", 3, b"-0.5"),
        ("metrics", "runs.csv", 4, b"9" * 25),
    ],
    ids=["negative-rmse", "negative-cv", "forecast-beyond-int64"],
)
def test_a_bad_value_names_its_file_and_model(run_dir, tmp_path, command, name, field, value):
    runs = shutil.copytree(run_dir, tmp_path / "runs")
    raw = (runs / name).read_bytes()
    label = raw.split(b"\n")[1].split(b",")[0].decode()
    (runs / name).write_bytes(set_field(raw, 1, field, value))
    code, message = cli([command, "--runs", runs])
    assert code == 2
    assert message.startswith(f"{runs / name}: model {label!r}: "), message


def test_stages_in_any_order_never_mix_two_runs(workloads):
    """generate, run with two configs by turns, metrics and report over one
    directory, in any order: every file in it names exactly the models of
    the manifest beside it, and a report that exits 0 wrote its files."""

    class Stages(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.tmp = Path(tempfile.mkdtemp())
            self.runs = self.tmp / "runs"
            configs = tiny_configs(workloads["sgd_refit"], self.tmp / "data.csv")
            other = tiny_configs(workloads["wide_io"], self.tmp / "data.csv")["experiment.json"]
            configs["other.json"] = {**other, "master_seed": 23}
            for name, config in configs.items():
                (self.tmp / name).write_text(json.dumps(config))
            self.turns = itertools.cycle(["experiment.json", "other.json"])

        def step(self, argv, reads_back):
            def names_where(message):
                return str(self.tmp) in message or bool(KEY_PATH.match(message))

            stage(argv, reads_back, names_where)

        @initialize()
        def panel(self):
            self.generate()

        @rule()
        def generate(self):
            data = self.tmp / "data.csv"
            self.step(["generate", "--config", self.tmp / "synth.json", "--out", data],
                      lambda: load_long_csv(data))

        @rule()
        def run(self):
            self.step(["run", "--config", self.tmp / next(self.turns), "--out", self.runs],
                      lambda: load_runs(self.runs))

        @rule()
        def metrics(self):
            self.step(["metrics", "--runs", self.runs], lambda: load_metrics_files(self.runs))

        @rule()
        def report(self):
            def wrote_its_files():
                assert (self.runs / "table.csv").exists() and (self.runs / REPORT_FILE).exists()

            self.step(["report", "--runs", self.runs], wrote_its_files)

        @invariant()
        def one_experiment(self):
            if not (self.runs / "manifest.json").exists():
                return
            manifest = json.loads((self.runs / "manifest.json").read_text())
            labels = sorted(entry["label"] for entry in manifest["config"]["models"])
            for name in ("runs.csv", "cv.csv", "rmse.csv", "table.csv"):
                if (self.runs / name).exists():
                    rows = (self.runs / name).read_text().splitlines()[1:]
                    assert sorted({row.split(",")[0] for row in rows}) == labels, name
            if (self.runs / REPORT_FILE).exists():
                assert sorted(json.loads((self.runs / REPORT_FILE).read_text())["models"]) == labels

        def teardown(self):
            shutil.rmtree(self.tmp)

    run_state_machine_as_test(
        Stages, settings=settings(max_examples=50, stateful_step_count=12, deadline=None)
    )
