"""The benchmark's own tests: determinism of the measured program, neutrality
of the tracer, and agreement between BENCHMARK.json and the harness."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ipsmf import model, optim
from ipsmf.cli import cmd_sweep_gamma, load_config

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent

TINY_SWEEP = """
[simulation]
num_users = 40
num_items = 30
seed = 5
unbiased_per_user = 8

[experiment]
methods = mf, mf_ips_mul
seeds = 0, 1
gammas = 0.0, 1.0

[train]
learning_rate = 0.01
batch_size = 64
max_epochs = 4
patience = 4
embedding_dim = 4
schedule = alternating
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_SWEEP)
    return load_config(path)


def test_two_workers_and_tracing_leave_the_sweep_tables_unchanged(tiny_cfg, tmp_path):
    serial = cmd_sweep_gamma(tiny_cfg, tmp_path / "serial", threads=1)
    parallel = cmd_sweep_gamma(tiny_cfg, tmp_path / "parallel", threads=2)
    original = model.predict_many
    tracer = tracing.install(tmp_path / "spans")
    try:
        assert optim.predict_many is not original  # rebound in every module
        traced = cmd_sweep_gamma(tiny_cfg, tmp_path / "traced", threads=2)
    finally:
        tracer.uninstall()
    assert optim.predict_many is original and model.predict_many is original
    for table in ("sweep_results.csv", "sweep_summary.csv"):
        expected = (serial.parent / table).read_bytes()
        assert (parallel.parent / table).read_bytes() == expected
        assert (traced.parent / table).read_bytes() == expected

    spans = tracer.collect()
    cells = [s for s in spans if s[3] == "cli.cell"]
    assert len(cells) == 4 and all(s[0] != tracer.main_pid for s in cells)
    metrics, _ = tracing.layer_metrics(spans, wall_s=1.0, workers=2)
    assert metrics["optim.fit.calls"] == metrics["cli.run_method.calls"] == 8
    assert metrics["optim.epochs"] == 8 * 4
    assert metrics["cli.propensity_fits_per_distinct"] == 1.0
    assert metrics["sim.cells"] == 4 * 40 * 30
    assert 0 < metrics["optim.fit.self_s"] < metrics["optim.fit.s"]
    assert metrics["optim.adam_step.calls"] > 0 and metrics["model.predict_many.calls"] > 0


def test_tail_has_ten_samples_above_it():
    assert tracing.tail(list(range(100)))[0] == 89
    assert tracing.tail(list(range(21)))[0] == 10
    assert tracing.tail([3.0, 1.0, 2.0])[0] == 3.0


def test_raw_inputs_depend_only_on_the_seed(tmp_path):
    def files(seed, name):
        workloads.write_inputs("raw-tune", seed, tmp_path / name)
        return [(tmp_path / name / f).read_bytes() for f in ("biased.txt", "unbiased.txt")]

    assert files(3, "a") == files(3, "b")
    assert files(3, "a") != files(4, "c")


def test_failed_and_mismatched_calls_count_their_models(tmp_path):
    runner = run.Runner(tmp_path, "yahoo-train", 0, 0)
    good = {"error": None, "table_sha256": "x", "problems": []}
    assert run.account(runner, [good, dict(good)])[:3] == (True, 2, 0)
    assert run.account(runner, [good, {"error": "TrainingDivergedError"}])[:3] == (True, 2, 1)
    assert run.account(runner, [good, dict(good, table_sha256="y")])[:3] == (True, 2, 1)
    assert run.account(runner, [dict(good, problems=["bad"])])[0] is False


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in tracing.LAYER_METRICS]


def test_exits_nonzero_without_a_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "raw-tune", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
