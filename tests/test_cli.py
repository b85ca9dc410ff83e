import ast
import contextlib
import inspect
import io
import logging
import os
import textwrap
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from ipsmf import cli, optim
from ipsmf.cli import (
    ConfigError,
    cmd_simulate,
    cmd_sweep_gamma,
    cmd_train,
    cmd_tune,
    load_config,
    main,
)
from ipsmf.data import RatingDataset, load_ratings, save_ratings
from ipsmf.metrics import bootstrap_interval, evaluate
from ipsmf.model import fit_avg, load_checkpoint, predict_many
from ipsmf.optim import TrainConfig, train
from ipsmf.propensity import (
    PipelineConfig, PropensityModel, load_propensity, save_propensity, score_dataset,
)
from ipsmf.sim import SimulationSpec

import cli_cases
from cli_cases import BASE_CONFIG, CASES, SINGLE_POINT_TUNE, check
from helpers import read_manifest
from oracles import bootstrap_interval_oracle


def run_main(argv, cwd):
    """`main(argv)` run in `cwd`: (exit status, stderr); an argparse usage
    error's SystemExit gives its status. pytest's settings make a
    RuntimeWarning an error, so one fails the row."""
    err, home = io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
    finally:
        os.chdir(home)
    return status, err.getvalue()


def run_row(case, tmp_path):
    assert check(case, tmp_path, run_main) == []


def table_test(group):
    """A test of the CLI error table's rows of `group`, one per row. A test
    class holds it as a staticmethod."""
    @pytest.mark.parametrize(
        "case", [pytest.param(case, id=case.name) for case in CASES if case.group == group])
    def test(case, tmp_path):
        run_row(case, tmp_path)
    return test


def table_row(group):
    """The one row of `group`, for a test that runs only it."""
    (case,) = [case for case in CASES if case.group == group]
    return case


def write_config(tmp_path, text=BASE_CONFIG, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_bytes(path):
    return path.read_bytes()


class TestConfigParsing:
    def test_basic_fields(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.methods == ["avg", "mf", "mf_ips_mul"]
        assert cfg.seeds == [0, 1]
        assert cfg.simulation["gamma"] == 0.5
        assert cfg.train_settings("mf", seed=7).learning_rate == 0.01
        assert cfg.pipeline_settings("mf_ips_mul")["alpha1"] == 2.0
        assert len(cfg.config_hash) == 12

    def test_hash_tracks_content(self, tmp_path):
        a = load_config(write_config(tmp_path))
        b = load_config(write_config(tmp_path, BASE_CONFIG.replace("gamma = 0.5", "gamma = 0.25"),
                                     name="other.ini"))
        assert a.config_hash != b.config_hash

    def test_unknown_method_rejected(self, tmp_path):
        bad = BASE_CONFIG.replace("avg, mf, mf_ips_mul", "avg, shiny_new")
        with pytest.raises(ConfigError, match="shiny_new"):
            load_config(write_config(tmp_path, bad))

    def test_requires_data_or_simulation(self, tmp_path):
        text = "[experiment]\nmethods = mf\nseeds = 0\n"
        with pytest.raises(ConfigError, match="simulation"):
            load_config(write_config(tmp_path, text))

    def test_gt_method_requires_simulation_or_table(self, tmp_path):
        text = BASE_CONFIG.replace("[simulation]", "[ignored_sim]", 1)
        text = text.replace("avg, mf, mf_ips_mul", "mf_ips_gt")
        text += "\n[data]\ntrain = t.csv\nvalidation = v.csv\nmcar = m.csv\ntest = s.csv\n"
        text = text.replace("[ignored_sim]\nnum_users = 30\nnum_items = 25\ngamma = 0.5\nseed = 3\nunbiased_per_user = 8\n", "")
        with pytest.raises(ConfigError, match="mf_ips_gt"):
            load_config(write_config(tmp_path, text))

    test_experiment_and_tune_keys_checked = staticmethod(table_test(cli_cases.KEYS))

    test_malformed_file_names_the_path = staticmethod(table_test(cli_cases.MALFORMED))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # before the first section header it made the file have none
        text = BASE_CONFIG.lstrip()
        path = tmp_path / "bom.ini"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_config(path) == load_config(write_config(tmp_path, text))

    def test_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "[simulation]\nnum_users = 5\n"))
        assert (cfg.methods, cfg.seeds, cfg.gammas) == (["mf"], [0], [0.0, 0.25, 0.5, 0.75, 1.0])
        assert cfg.output_dir == Path("out") and cfg.clamp_predictions is False
        grid = {k: [repr(v) for v in values] for k, values in cfg.tune.items() if k != "budget"}
        assert grid == {
            "learning_rate": ["0.001", "0.0001", "1e-05"],
            "l2_weight": ["1e-07", "1e-06", "1e-05", "0.0001", "0.001", "0.01"],
            "embedding_dim": ["16", "32", "64", "128"],
            "alpha1": [f"{a}.0" for a in range(1, 11)],
            "alpha2": [f"{a}.0" for a in range(1, 11)],
        }
        assert cfg.tune["budget"] == 0


DATA_ONLY_CONFIG = """
[experiment]
methods = mf

[data]
{key} = {path}
"""
# the split paths that complete a [data] section holding only `train`
OTHER_SPLIT_PATHS = "validation = v.csv\nmcar = m.csv\ntest = s.csv\n"


@pytest.mark.parametrize("key, name", [
    ("biased", "yahoo,r3.txt"),
    ("train", "train,v2.csv"),
    ("biased", "yahoo\n  r3.txt"),  # a continuation line puts a newline in the value
    ("train", "train\n  v2.csv"),
], ids=["biased-comma", "train-comma", "biased-newline", "train-newline"])
def test_dataset_label_with_comma_or_newline_rejected(tmp_path, key, name):
    text = DATA_ONLY_CONFIG.format(key=key, path=tmp_path / name)
    with pytest.raises(ConfigError, match=rf"\[data\] {key}: .*dataset label"):
        load_config(write_config(tmp_path, text))


def test_comma_outside_the_label_is_fine(tmp_path):
    # only the stem becomes the label: a comma in a directory is harmless
    text = DATA_ONLY_CONFIG.format(key="train", path=tmp_path / "a,b" / "train.csv")
    load_config(write_config(tmp_path, text + OTHER_SPLIT_PATHS))
    # with raw input the biased file names the dataset, not the unbiased file
    text = DATA_ONLY_CONFIG.format(key="unbiased", path=tmp_path / "unbiased,v2.csv")
    load_config(write_config(tmp_path, text + f"biased = {tmp_path / 'biased.csv'}\n"))


def test_percent_in_a_path_is_literal(tmp_path):
    # `%` is an ordinary character in a value, not an interpolation
    splits = tmp_path / "r3%20splits"
    cmd_simulate(load_config(write_config(tmp_path)), splits)
    text = "[data]\n" + "".join(f"{n} = {splits / n}.csv\n" for n in cli.SPLIT_KEYS)
    cfg = load_config(write_config(tmp_path, text, name="percent.ini"))
    assert cfg.data["train"] == str(splits / "train.csv")
    assert len(cli.load_experiment_data(cfg, run_seed=0).bundle.train) > 0


class TestSimulateCommand:
    def test_writes_splits_and_manifest(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        out = tmp_path / "simout"
        cmd_simulate(cfg, out)
        for name in ("train", "validation", "mcar", "test"):
            ds = load_ratings(out / f"{name}.csv")
            assert len(ds) > 0
        gt = load_propensity(out / "gt_propensities.csv")
        assert gt.family == "ground_truth"
        manifest = read_manifest(out / "manifest.txt")
        assert manifest["gamma"] == "0.5"
        assert manifest["seed"] == "3"
        assert int(manifest["n_train"]) > 0
        # every simulation setting, the defaults too
        assert set(manifest) == {"config_hash", "capped_item_propensities", *cli.SPLIT_SIZES,
                                 *(f.name for f in fields(SimulationSpec))}
        assert manifest["target_rating_distribution"] == "0.5148,0.2525,0.1496,0.0554,0.0277"
        assert (manifest["engagement_rank"], manifest["engagement_noise"]) == ("4", "0.6")
        assert (manifest["engagement_path"], manifest["engagement_format"]) == ("", "dense")

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        out = tmp_path / "simout"
        cmd_simulate(cfg, out)
        first = {p.name: read_bytes(p) for p in sorted(out.iterdir())}
        cmd_simulate(cfg, out)
        second = {p.name: read_bytes(p) for p in sorted(out.iterdir())}
        assert first == second

    def test_invalid_gamma_is_config_error(self, tmp_path):
        bad = BASE_CONFIG.replace("gamma = 0.5", "gamma = 1.3")
        cfg = load_config(write_config(tmp_path, bad))
        with pytest.raises(ConfigError, match="gamma"):
            cmd_simulate(cfg, tmp_path / "x")


class TestTrainCommand:
    def test_rows_and_artifacts(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        out = tmp_path / "trainout"
        results = cmd_train(cfg, out)
        lines = results.read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        assert len(rows) == 3 * 2  # methods x seeds
        mul = [r for r in rows if r["method"] == "mf_ips_mul"][0]
        assert float(mul["mse"]) > 0 and np.isfinite(float(mul["mse"]))
        assert mul["alpha1"] == "2.0" and mul["alpha2"] == "2.0"
        assert mul["schedule"] == "alternating"
        assert mul["gamma"] == "0.5"
        avg = [r for r in rows if r["method"] == "avg"][0]
        assert avg["schedule"] == "" and avg["best_epoch"] == ""
        assert (out / "summary.csv").exists()
        assert (out / "history_mf_ips_mul_seed0.csv").exists()
        assert (out / "checkpoint_mf_seed1.bin").exists()
        # provenance tuple present on every row
        for row in rows:
            assert row["config_hash"] == cfg.config_hash
            assert int(row["n_train"]) > 0 and int(row["n_test"]) > 0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        out = tmp_path / "trainout"
        cmd_train(cfg, out)
        first = {p.name: read_bytes(p) for p in sorted(out.iterdir())}
        cmd_train(cfg, out)
        second = {p.name: read_bytes(p) for p in sorted(out.iterdir())}
        assert first == second

    def test_missing_mcar_rejected_for_positivity(self, tmp_path):
        run_row(table_row("test_missing_mcar_rejected_for_positivity"), tmp_path)

    def raw_pair_config(self, tmp_path, seeds="0", biased_name="biased.csv"):
        # two-file ingestion: filter to test users, split 4:1 and mcar/test
        rng = np.random.default_rng(8)
        biased = tmp_path / biased_name
        unbiased = tmp_path / "unbiased.csv"
        with open(biased, "w") as fh:
            fh.write("user_id,item_id,rating\n")
            for u in range(12):
                for i in range(10):
                    if rng.random() < 0.5:
                        fh.write(f"u{u},i{i},{rng.integers(1, 6)}\n")
        with open(unbiased, "w") as fh:
            fh.write("user_id,item_id,rating\n")
            for u in range(10):  # users u10, u11 never appear unbiased
                for i in range(10, 14):
                    fh.write(f"u{u},i{i},{rng.integers(1, 6)}\n")
        text = f"""
[data]
biased = {biased}
unbiased = {unbiased}
mcar_fraction = 0.25
split_seed = 1

[experiment]
methods = avg, mf_ips_pos
seeds = {seeds}

[train]
learning_rate = 0.01
max_epochs = 5
patience = 5
embedding_dim = 4
"""
        return load_config(write_config(tmp_path, text, name="raw.ini"))

    def test_train_from_raw_file_pair(self, tmp_path):
        cfg = self.raw_pair_config(tmp_path)
        results = cmd_train(cfg, tmp_path / "rawout")
        lines = results.read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]
        assert len(rows) == 2
        assert all(np.isfinite(float(r["mse"])) for r in rows)
        manifest = read_manifest(tmp_path / "rawout" / "split_manifest.txt")
        assert int(manifest["n_train"]) + int(manifest["n_validation"]) > 0
        assert manifest["split_seed"] == "1"

    def test_filter_users_off_keeps_users_without_unbiased_ratings(self, tmp_path):
        filtered = self.raw_pair_config(tmp_path)
        path = tmp_path / "raw.ini"
        path.write_text(path.read_text().replace("split_seed = 1",
                                                 "split_seed = 1\nfilter_users = no"))
        kept = load_config(path)
        assert (filtered.data["filter_users"], kept.data["filter_users"]) == (True, False)
        # u10 and u11 hold biased ratings only
        sizes = [cli.load_experiment_data(cfg, run_seed=0).bundle.train.num_users
                 for cfg in (filtered, kept)]
        assert sizes == [10, 12]

    def test_comma_in_dataset_label_rejected_before_training(self, tmp_path, capsys):
        # the biased file's stem is the unquoted `dataset` cell of every table;
        # a comma in it used to shift summary.csv so mse_mean read best_epoch
        with pytest.raises(ConfigError, match=r"\[data\] biased: .*yahoo,r3\.csv"):
            self.raw_pair_config(tmp_path, biased_name="yahoo,r3.csv")
        out = tmp_path / "out"
        assert main(["train", "--config", str(tmp_path / "raw.ini"), "--out", str(out)]) == 2
        assert "[data] biased" in capsys.readouterr().err
        assert not out.exists()

    test_data_errors_reported = staticmethod(table_test(cli_cases.DATA))

    def test_tune_accepts_an_empty_test_split(self, tmp_path, capsys):
        # tune selects on the validation split and never reads the test split,
        # which train evaluates on
        self.raw_pair_config(tmp_path)
        path = tmp_path / "raw.ini"
        path.write_text(path.read_text().replace("mcar_fraction = 0.25", "mcar_fraction = 0.99")
                        + SINGLE_POINT_TUNE)
        assert len(cli.load_experiment_data(load_config(path), run_seed=0).bundle.test) == 0
        out = tmp_path / "out"
        assert main(["tune", "--config", str(path), "--out", str(out), "--threads", "1"]) == 0
        assert (out / "tuned.csv").exists()
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "trained")]) == 2
        assert "too few ratings to fill the test split" in capsys.readouterr().err

    def test_result_mse_is_the_history_test_mse_at_the_best_epoch(self, tmp_path):
        # unclamped, both are the mean of the best parameters' squared errors
        # on the test split
        cfg = load_config(write_config(tmp_path))
        assert not cfg.clamp_predictions
        out = tmp_path / "trainout"
        rows = [r for r in cli._read_rows(cmd_train(cfg, out)) if r["method"] != "avg"]
        assert len(rows) == 2 * 2
        for row in rows:
            history = cli._read_rows(out / f"history_{row['method']}_seed{row['seed']}.csv",
                                     numbers=("test_mse",))
            best = [h for h in history if h["epoch"] == row["best_epoch"]]
            assert len(best) == 1 and best[0]["test_mse"] == float(row["mse"])

    def test_ground_truth_table_widens_the_item_space(self, tmp_path):
        # a ground-truth table covers every simulated item, including items
        # that appear in no split; the splits take its item count
        splits = tmp_path / "splits"
        splits.mkdir()
        for k, name in enumerate(("train", "validation", "mcar", "test")):
            save_ratings(RatingDataset(3, 3, [k % 3, (k + 1) % 3], [0, 2], [4, 5]),
                         splits / f"{name}.csv")
        save_propensity(PropensityModel("ground_truth", table=np.full((7, 5), 0.2)),
                        splits / "gt.csv")
        text = "".join(f"{n} = {splits / n}.csv\n" for n in ("train", "validation", "mcar", "test"))
        cfg = load_config(write_config(tmp_path, name="gt.ini", text=(
            f"[data]\n{text}ground_truth_propensities = {splits / 'gt.csv'}\n"
            "[experiment]\nmethods = mf_ips_gt\n"
        )))
        bundle = cli.load_experiment_data(cfg, run_seed=0).bundle
        for split in (bundle.train, bundle.validation, bundle.mcar, bundle.test):
            assert (split.num_users, split.num_items) == (3, 7)

    test_ground_truth_table_smaller_than_the_id_space_rejected = staticmethod(
        table_test(cli_cases.SMALL_TABLE))

    def test_failed_tune_leaves_no_output_dir(self, tmp_path):
        run_row(table_row("test_failed_tune_leaves_no_output_dir"), tmp_path)

    def test_split_manifest_bytes_pinned(self, tmp_path):
        # the split sizes come from the result rows; they must equal a fresh
        # load of the same files, and the bytes stay as they were
        cfg = self.raw_pair_config(tmp_path, seeds="0, 1")
        cmd_train(cfg, tmp_path / "rawout")
        bundle = cli.load_experiment_data(cfg, run_seed=0).bundle
        sizes = [len(bundle.train), len(bundle.validation), len(bundle.mcar), len(bundle.test)]
        assert sizes == [43, 10, 10, 30]
        expected = (
            f"config_hash={cfg.config_hash}\n"
            "mcar_fraction=0.25\n"
            "n_mcar=10\n"
            "n_test=30\n"
            "n_train=43\n"
            "n_validation=10\n"
            "split_seed=1\n"
            "train_fraction=0.8\n"
        )
        assert (tmp_path / "rawout" / "split_manifest.txt").read_text() == expected

    def test_train_from_simulated_files_with_gt(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        out = tmp_path / "splits"
        cmd_simulate(cfg, out)
        text = f"""
[data]
train = {out}/train.csv
validation = {out}/validation.csv
mcar = {out}/mcar.csv
test = {out}/test.csv
ground_truth_propensities = {out}/gt_propensities.csv

[experiment]
methods = mf_ips_gt
seeds = 0

[train]
learning_rate = 0.01
max_epochs = 5
patience = 5
embedding_dim = 4
"""
        cfg2 = load_config(write_config(tmp_path, text, name="gt.ini"))
        results = cmd_train(cfg2, tmp_path / "gtout")
        rows = results.read_text().splitlines()
        assert len(rows) == 2  # header + one row
        assert "mf_ips_gt" in rows[1]


class TestSweepCommand:
    def sweep_config(self, tmp_path):
        text = BASE_CONFIG.replace("methods = avg, mf, mf_ips_mul", "methods = mf, mf_ips_gt")
        text = text.replace("max_epochs = 12", "max_epochs = 6")
        return load_config(write_config(tmp_path, text, name="sweep.ini"))

    def test_cardinality_and_schema(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        out = tmp_path / "sweep"
        results = cmd_sweep_gamma(cfg, out, gammas=[0.0, 0.5, 1.0])
        lines = results.read_text().splitlines()
        assert len(lines) == 1 + 3 * 2 * 2  # header + gammas x methods x seeds
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        assert sorted({r["gamma"] for r in rows}) == ["0.0", "0.5", "1.0"]
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        assert "mse_ci_low" in summary[0] and "mse_ci_high" in summary[0]

    def test_parallel_matches_serial(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        serial = cmd_sweep_gamma(cfg, tmp_path / "s1", gammas=[0.0, 1.0], threads=1)
        parallel = cmd_sweep_gamma(cfg, tmp_path / "s2", gammas=[0.0, 1.0], threads=2)
        assert serial.read_text() == parallel.read_text()

    def test_summary_intervals_match_bootstrap(self, tmp_path):
        text = BASE_CONFIG.replace("methods = avg, mf, mf_ips_mul", "methods = mf")
        text = text.replace("max_epochs = 12", "max_epochs = 6")
        text = text.replace("seeds = 0, 1", "seeds = 0, 1, 2, 3, 4, 5")
        cfg = load_config(write_config(tmp_path, text, name="ci.ini"))
        out = tmp_path / "sweep"
        results = cmd_sweep_gamma(cfg, out, gammas=[0.5])
        lines = results.read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        mf_mse = [float(r["mse"]) for r in rows if r["method"] == "mf"]
        slines = (out / "sweep_summary.csv").read_text().splitlines()
        srow = dict(zip(slines[0].split(","), slines[1].split(",")))
        reported = (float(srow["mse_ci_low"]), float(srow["mse_ci_high"]))
        # reported interval reproduces the deterministic 1000-resample bootstrap
        # of the per-seed values
        low, high = bootstrap_interval(np.array(mf_mse), num_resamples=1000, seed=0)
        assert reported[0] == pytest.approx(low, abs=1e-12)
        assert reported[1] == pytest.approx(high, abs=1e-12)
        # and agrees with an independent stdlib bootstrap up to resampling noise
        o_low, o_high = bootstrap_interval_oracle(mf_mse)
        width = max(o_high - o_low, 1e-9)
        assert abs(reported[0] - o_low) < 0.5 * width
        assert abs(reported[1] - o_high) < 0.5 * width
        assert reported[0] <= np.mean(mf_mse) <= reported[1]


class TestTuneCommand:
    def tune_config(self, tmp_path, tune_section):
        text = BASE_CONFIG.replace("methods = avg, mf, mf_ips_mul", "methods = mf")
        text = text.replace("max_epochs = 12", "max_epochs = 5")
        text += tune_section
        return load_config(write_config(tmp_path, text, name="tune.ini"))

    def test_single_point_grid_returns_it(self, tmp_path):
        cfg = self.tune_config(tmp_path, """
[tune]
learning_rate = 0.01
l2_weight = 1e-6
embedding_dim = 4
""")
        path = cmd_tune(cfg, tmp_path / "tuned")
        lines = path.read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["method"] == "mf"
        assert float(row["learning_rate"]) == 0.01
        assert row["points_evaluated"] == "1"
        assert np.isfinite(float(row["validation_score"]))

    def test_divergent_point_skipped(self, tmp_path):
        cfg = self.tune_config(tmp_path, """
[tune]
learning_rate = 1e200, 0.01
l2_weight = 1e-6
embedding_dim = 4
""")
        path = cmd_tune(cfg, tmp_path / "tuned")
        lines = path.read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["learning_rate"]) == 0.01

    def test_budget_caps_grid(self, tmp_path):
        cfg = self.tune_config(tmp_path, """
[tune]
learning_rate = 0.01, 0.02
l2_weight = 1e-6, 1e-5
embedding_dim = 4
budget = 3
""")
        path = cmd_tune(cfg, tmp_path / "tuned")
        lines = path.read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["points_evaluated"] == "3"


    def test_budget_samples_across_the_grid(self, tmp_path):
        cfg = self.tune_config(tmp_path, """
[tune]
learning_rate = 0.01, 0.02
l2_weight = 1e-6, 1e-5
embedding_dim = 4
alpha1 = 1, 2, 3, 4
alpha2 = 1, 2, 3, 4
""")
        grid = cli._grid_points(cfg, "mf_ips_mul")
        prefix = grid[:16]
        # the nested-loop prefix holds one (lr, l2, dim) and only varies alpha
        assert len({(p["learning_rate"], p["l2_weight"], p["embedding_dim"])
                    for p in prefix}) == 1
        sample = cli._budget_points(grid, 16, seed=0)
        assert sample == cli._budget_points(grid, 16, seed=0)
        assert len(sample) == 16
        assert len({tuple(sorted(p.items())) for p in sample}) == 16
        assert sample != prefix
        assert sorted(sample, key=grid.index) == sample
        assert cli._budget_points(grid, 0, seed=0) == grid
        assert cli._budget_points(grid, len(grid), seed=0) == grid

    def test_budget_trains_the_sampled_points(self, tmp_path, monkeypatch):
        cfg = self.tune_config(tmp_path, """
[tune]
learning_rate = 0.01, 0.02
l2_weight = 1e-6, 1e-5
embedding_dim = 4
budget = 2
""")
        trained = []
        real = cli.train

        def recording(data, propensity_model, config):
            trained.append((config.learning_rate, config.l2_weight))
            return real(data, propensity_model, config)

        monkeypatch.setattr(cli, "train", recording)
        cmd_tune(cfg, tmp_path / "tuned", threads=1)
        expected = cli._budget_points(cli._grid_points(cfg, "mf"), 2, cfg.seeds[0])
        assert trained == [(p["learning_rate"], p["l2_weight"]) for p in expected]


MEMO_TUNE_CONFIG = BASE_CONFIG.replace(
    "methods = avg, mf, mf_ips_mul", "methods = avg, mf, mf_ips_mf, mf_ips_mul"
).replace("max_epochs = 12", "max_epochs = 3") + """
[method mf_ips_mf]
propensity_steps = 40

[tune]
learning_rate = 0.01, 0.02
l2_weight = 1e-6
embedding_dim = 4, 8
alpha1 = 1, 3
alpha2 = 1, 2
"""


def reference_tune(cfg, path, build):
    """The tune loop with a freshly built propensity model and a freshly
    merged train config at every grid point; returns the configs trained."""
    seed = cfg.seeds[0]
    loaded = cli.load_experiment_data(cfg, run_seed=seed)
    bundle = loaded.bundle
    rows, configs = [], []
    for method in cfg.methods:
        points = cli._grid_points(cfg, method)
        best = None
        for point in points:
            if method == "avg":
                score, floor = evaluate(fit_avg(bundle.train), bundle.validation).mse, None
            else:
                pipeline = cfg.pipeline_settings(method)
                pipeline.update({k: v for k, v in point.items() if k in cli.PIPELINE_KEYS})
                prop = build(method, bundle, pipeline, loaded.ground_truth, seed=seed)
                merged = dict(cfg.train)
                merged.update({k: v for k, v in cfg.method_overrides.get(method, {}).items()
                               if k in cli.TRAIN_KEYS})
                merged.update({k: v for k, v in point.items() if k in cli.TRAIN_KEYS})
                config = TrainConfig(seed=seed, **merged)
                configs.append(config)
                result = train(bundle, prop, config)
                if method == "mf":
                    score = evaluate(result.params, bundle.validation).mse
                else:
                    # self-normalized weighted MSE under the method's propensities
                    w = 1.0 / score_dataset(prop, bundle.validation)
                    preds = predict_many(result.params, bundle.validation.users,
                                         bundle.validation.items)
                    score = float(np.sum(w * (preds - bundle.validation.ratings) ** 2)
                                  / np.sum(w))
                floor = prop.clip_floor
            if best is None or score < best[0]:
                best = (score, point, floor)
        score, point, floor = best
        rows.append({"method": method, "validation_score": score, "clip_floor": floor,
                     "points_evaluated": len(points), **point})
    columns = ("method", "learning_rate", "l2_weight", "embedding_dim",
               "alpha1", "alpha2", "clip_floor", "validation_score", "points_evaluated")
    cli._write_rows(path, columns, rows)
    return configs


def test_tune_builds_each_propensity_model_once(tmp_path, monkeypatch):
    cfg = load_config(write_config(tmp_path, MEMO_TUNE_CONFIG, name="memo.ini"))
    build, run = cli.build_propensity_model, cli.train
    calls, configs = [], []

    def counting(method, bundle, pipeline, ground_truth=None, seed=0):
        calls.append((method, tuple(sorted(pipeline.items()))))
        return build(method, bundle, pipeline, ground_truth, seed=seed)

    def recording(data, propensity_model, config):
        configs.append(config)
        return run(data, propensity_model, config)

    monkeypatch.setattr(cli, "build_propensity_model", counting)
    monkeypatch.setattr(cli, "train", recording)
    tuned = cmd_tune(cfg, tmp_path / "tuned", threads=1)

    # one call per distinct (method, pipeline): avg, mf and mf_ips_mf have one
    # pipeline each, mf_ips_mul one per (alpha1, alpha2)
    assert len(calls) == len(set(calls)) == 1 + 1 + 1 + 4
    assert sorted({(m, dict(p)["alpha1"], dict(p)["alpha2"]) for m, p in calls
                   if m == "mf_ips_mul"}) == [
        ("mf_ips_mul", a1, a2) for a1 in (1.0, 3.0) for a2 in (1.0, 2.0)]
    reference = tmp_path / "reference.csv"
    assert configs == reference_tune(cfg, reference, build)
    assert tuned.read_bytes() == reference.read_bytes()
    lines = tuned.read_text().splitlines()
    assert [line.split(",")[-1] for line in lines[1:]] == ["1", "4", "4", "16"]


def test_tune_fits_a_learned_model_in_the_worker_that_trains_its_points(tmp_path, monkeypatch):
    text = MEMO_TUNE_CONFIG.replace(
        "methods = avg, mf, mf_ips_mf, mf_ips_mul", "methods = mf, mf_ips_mf"
    ).replace("embedding_dim = 4, 8", "embedding_dim = 4")
    cfg = load_config(write_config(tmp_path, text, name="learned.ini"))
    serial = cmd_tune(cfg, tmp_path / "serial", threads=1).read_bytes()
    build, run = cli.build_propensity_model, cli.train
    log = tmp_path / "calls.txt"

    def record(method):
        # appended by whichever process makes the call: forked workers
        # inherit these patches
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {method}\n")

    def building(method, bundle, pipeline, ground_truth=None, seed=0):
        record(f"build {method}")
        return build(method, bundle, pipeline, ground_truth, seed=seed)

    def training(data, propensity_model, config):
        record(f"train {propensity_model.family}")
        return run(data, propensity_model, config)

    monkeypatch.setattr(cli, "build_propensity_model", building)
    monkeypatch.setattr(cli, "train", training)
    parallel = cmd_tune(cfg, tmp_path / "parallel", threads=2).read_bytes()

    calls = [line.split(" ", 1) for line in log.read_text().splitlines()]
    builds = [int(pid) for pid, call in calls if call == "build mf_ips_mf"]
    trainings = [int(pid) for pid, call in calls if call == "train mf_learned"]
    assert len(builds) == 1 and builds[0] != os.getpid()
    assert trainings == builds * 2
    assert parallel == serial


def test_tune_dispatches_the_learned_task_first(tmp_path, monkeypatch):
    # the learned task fits before it trains; listed last, it is still
    # submitted first, and the table does not depend on the dispatch
    text = MEMO_TUNE_CONFIG.replace(
        "methods = avg, mf, mf_ips_mf, mf_ips_mul", "methods = avg, mf, mf_ips_mul, mf_ips_mf"
    )
    cfg = load_config(write_config(tmp_path, text, name="last.ini"))
    real, submitted = cli._map, []

    def recording(fn, items, workers, state=None):
        submitted.append(list(items))
        return real(fn, items, workers, state)

    monkeypatch.setattr(cli, "_map", recording)
    tables = [cmd_tune(cfg, tmp_path / f"tuned{threads}", threads=threads).read_bytes()
              for threads in (1, 2, 8)]
    # avg: 1 task, mf: 4, mf_ips_mul: 16, then mf_ips_mf's one task of 4 points
    tasks = 1 + 4 + 16 + 1
    assert submitted == [[tasks - 1, *range(tasks - 1)]] * 3
    assert tables[1] == tables[0] and tables[2] == tables[0]


def test_only_train_predicts_the_test_split_every_epoch(tmp_path, monkeypatch):
    # sweep cells and tune grid points keep no history, so the training loop
    # has no use for the per-epoch test MSE
    cfg = load_config(write_config(tmp_path, BASE_CONFIG + """
[tune]
learning_rate = 0.01
l2_weight = 1e-6, 1e-5
embedding_dim = 4
alpha1 = 2
alpha2 = 2
"""))
    predicted = []
    real = optim.predict_many

    def spying(params, users, items):
        predicted.append((users, items))
        return real(params, users, items)

    monkeypatch.setattr(optim, "predict_many", spying)

    def test_split_predictions(gamma=None):
        """(calls that predicted a test split, all calls) since the last check."""
        config = cfg if gamma is None else replace(
            cfg, simulation={**cfg.simulation, "gamma": gamma})
        tests = [cli.load_experiment_data(config, run_seed=s).bundle.test for s in cfg.seeds]
        count = sum(any(np.array_equal(users, t.users) and np.array_equal(items, t.items)
                        for t in tests) for users, items in predicted)
        total = len(predicted)
        predicted.clear()
        return count, total

    cmd_train(cfg, tmp_path / "train")
    epochs = [len(p.read_text().splitlines()) - 1
              for p in (tmp_path / "train").glob("history_*.csv")]
    assert len(epochs) == 2 * 2
    assert test_split_predictions()[0] == sum(epochs)

    cmd_sweep_gamma(cfg, tmp_path / "sweep", gammas=[0.0])
    count, total = test_split_predictions(gamma=0.0)
    assert count == 0 and total > 0

    cmd_tune(cfg, tmp_path / "tune", threads=1)
    count, total = test_split_predictions()
    assert count == 0 and total > 0


def test_sweep_rows_equal_train_rows(tmp_path):
    # train keeps the per-epoch test MSE and the sweep does not; the fitted
    # models and the result rows are the same
    cfg = load_config(write_config(tmp_path))
    trained = cmd_train(cfg, tmp_path / "train")
    swept = cmd_sweep_gamma(cfg, tmp_path / "sweep", gammas=[cfg.simulation["gamma"]])
    assert swept.read_bytes() == trained.read_bytes()


def test_run_method_returns_an_outcome_when_training_diverges(tmp_path):
    cfg = load_config(write_config(tmp_path))
    bundle = cli.load_experiment_data(cfg, run_seed=0).bundle
    prop = cli.build_propensity_model("mf", bundle, cfg.pipeline_settings("mf"))
    diverging = cfg.train_settings("mf", 0, {"learning_rate": 1e200})
    outcome = cli.run_method("mf", bundle, bundle.validation, diverging, prop)
    assert outcome.diverged.startswith("non-finite loss at epoch 1")
    assert outcome.report is None and outcome.result is None
    assert (outcome.method, outcome.config, outcome.prop) == ("mf", diverging, prop)

    finished = cli.run_method("mf", bundle, bundle.validation, cfg.train_settings("mf", 0), prop)
    assert finished.diverged is None
    assert finished.report == evaluate(finished.result.params, bundle.validation)
    avg = cli.run_method("avg", bundle, bundle.test, cfg.train_settings("avg", 0), None)
    assert avg.result is None and avg.report == evaluate(fit_avg(bundle.train), bundle.test)


def test_main_entrypoint(tmp_path):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "mainout"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "manifest.txt").exists()
    assert main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--seeds", "0"]) == 0
    results = out / "results.csv"
    assert results.exists()
    assert main(["summarize", "--results", str(results)]) == 0


@pytest.mark.parametrize("how", ["config", "option"])
def test_clamped_rows_carry_the_clamped_mse(tmp_path, how):
    text = BASE_CONFIG.replace("seeds = 0, 1", "seeds = 0").replace("avg, mf, mf_ips_mul", "mf")
    text = text.replace("learning_rate = 0.01", "learning_rate = 0.2")
    option = []
    if how == "config":
        text = text.replace("output_dir = out", "output_dir = out\nclamp_predictions = yes")
    else:
        option = ["--clamp-predictions"]
    path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out), *option]) == 0
    header, line = (out / "results.csv").read_text().splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    params, _ = load_checkpoint(out / "checkpoint_mf_seed0.bin")
    test = cli.load_experiment_data(load_config(path), run_seed=0).bundle.test
    clamped, plain = (evaluate(params, test, clamp=c).mse for c in (True, False))
    assert row["clamped"] == "True"
    assert row["mse"] == repr(clamped) and clamped != plain


def test_normalize_off_keeps_the_propensities_unnormalized(tmp_path):
    text = BASE_CONFIG.replace("seeds = 0, 1", "seeds = 0")
    text = text.replace("[train]", "[propensity]\nnormalize = off\n\n[train]")
    out = tmp_path / "out"
    cmd_train(load_config(write_config(tmp_path, text)), out)
    rows = cli._read_rows(out / "results.csv")
    assert {r["method"]: r["normalization"] for r in rows} == {
        "avg": "", "mf": "none", "mf_ips_mul": "none"}


test_command_config_error_leaves_no_output_dir = table_test(cli_cases.COMMAND)
test_pipeline_and_data_keys_checked = table_test(cli_cases.PIPELINE)
test_output_dir_that_is_a_file_is_rejected_at_start = table_test(cli_cases.OUT_IS_FILE)
test_cell_config_error_leaves_no_output_dir = table_test(cli_cases.CELL)
test_diverged_cell_is_a_training_error = table_test(cli_cases.DIVERGED)
test_unsimulatable_spec_is_a_config_error = table_test(cli_cases.SPEC)
test_threads_below_one_is_a_usage_error = table_test(cli_cases.THREADS)
test_malformed_option_is_a_usage_error = table_test(cli_cases.OPTION)


def test_main_reports_config_errors(tmp_path):
    run_row(table_row("test_main_reports_config_errors"), tmp_path)


def test_pipeline_keys_are_the_pipeline_config_fields():
    assert cli.PIPELINE_KEYS == tuple(f.name for f in fields(PipelineConfig))


def test_pipeline_settings_are_a_checked_pipeline_config(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.pipeline_settings("mf") == vars(PipelineConfig())
    assert cfg.pipeline_settings("mf_ips_mul", {"alpha1": 3.0}) == vars(
        PipelineConfig(alpha1=3.0, alpha2=2.0))


@pytest.mark.parametrize("method", ["mf_ips_mul", "mf_ips_mf"])
def test_partial_pipeline_mapping_takes_the_defaults(tmp_path, method):
    # a library caller's mapping is read through PipelineConfig
    bundle = cli.load_experiment_data(load_config(write_config(tmp_path)), run_seed=0).bundle
    full = cli.build_propensity_model(
        method, bundle, {**vars(PipelineConfig()), "clip_floor": 1e-3}, seed=0)
    partial = cli.build_propensity_model(method, bundle, {"clip_floor": 1e-3}, seed=0)
    np.testing.assert_array_equal(partial.table, full.table)
    assert {**vars(partial), "table": None} == {**vars(full), "table": None}
    with pytest.raises(ValueError, match=r"^alpha1 must be nonnegative, got nan$"):
        cli.build_propensity_model(method, bundle, {"alpha1": float("nan")}, seed=0)


def test_unread_tune_list_may_be_empty(tmp_path):
    # no configured method reads the alphas; mf_ips_mul would need them
    text = BASE_CONFIG.replace("avg, mf, mf_ips_mul", "avg, mf") + "\n[tune]\nalpha1 =\n"
    cfg = load_config(write_config(tmp_path, text))
    assert cfg.tune["alpha1"] == () and len(cli._grid_points(cfg, "mf")) == 3 * 6 * 4


def test_summary_path_that_is_a_directory_is_rejected(tmp_path, capsys):
    # it used to end in an IsADirectoryError traceback
    results = tmp_path / "results.csv"
    results.write_text("dataset,gamma,method,seed,mse,mae,rmse,rmse_per_user,rmse_per_item\n"
                       "simulation,0.5,mf,0,1.0,0.8,1.0,1.1,1.2\n")
    (tmp_path / "taken").mkdir()
    assert main(["summarize", "--results", str(results), "--out", str(tmp_path / "taken")]) == 2
    assert capsys.readouterr().err == (
        f"config error: output file {tmp_path / 'taken'} is a directory\n")
    assert list((tmp_path / "taken").iterdir()) == []
    results.with_suffix(".txt").write_text("")
    out = results.with_suffix(".txt") / "summary.csv"
    assert main(["summarize", "--results", str(results), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: output file {out}: {results.with_suffix('.txt')} is not a directory\n")
    # missing directories are made, as the other commands make theirs
    out = tmp_path / "new" / "dir" / "summary.csv"
    assert main(["summarize", "--results", str(results), "--out", str(out)]) == 0
    assert out.read_text().startswith("dataset,gamma,method,n_runs,")


def test_unknown_log_level_is_a_usage_error(tmp_path, capsys):
    # an unknown level used to run silently at INFO
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--log-level", "LOUD", "simulate", "--config", str(write_config(tmp_path)),
              "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--log-level: invalid choice: 'LOUD'" in err
    assert all(level in err for level in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"))
    assert not out.exists()


def test_log_level_is_case_insensitive(tmp_path):
    out = tmp_path / "out"
    assert main(["--log-level", "warning", "simulate", "--config", str(write_config(tmp_path)),
                 "--out", str(out)]) == 0
    assert (out / "manifest.txt").exists()


def test_sweep_checks_every_gamma_before_any_cell(tmp_path, capsys, monkeypatch):
    # gamma 0 is valid and comes first: no cell of it may be simulated
    monkeypatch.setattr(cli, "simulate", lambda spec: pytest.fail("a cell was simulated"))
    path = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0, 1", "gammas = 0, 1.5"))
    out = tmp_path / "out"
    assert main(["sweep-gamma", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: simulation: gamma must be in [0, 1], got 1.5")
    with pytest.raises(ConfigError, match="without repeats"):
        cmd_sweep_gamma(load_config(path), out, gammas=[0.5, 0.5])
    assert not out.exists()


def test_missing_simulation_key_named(tmp_path, capsys):
    # sweep-gamma sets each cell's gamma; the other commands read it from
    # [simulation]
    path = write_config(tmp_path, BASE_CONFIG.replace("gamma = 0.5\n", ""))
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: [simulation] missing key(s) gamma\n"
    assert not out.exists()
    assert main(["sweep-gamma", "--config", str(path), "--out", str(out),
                 "--gammas", "0.5", "--seeds", "0"]) == 0
    assert (out / "sweep_results.csv").exists()


def test_main_reports_propensity_errors(tmp_path):
    run_row(table_row("test_main_reports_propensity_errors"), tmp_path)


@pytest.mark.parametrize("invoke", [cmd_train, cmd_tune, cmd_sweep_gamma])
def test_commands_reject_threads_below_one(tmp_path, invoke):
    path = write_config(tmp_path, BASE_CONFIG + SINGLE_POINT_TUNE)
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads must be at least 1"):
            invoke(load_config(path), tmp_path / "out", threads=threads)
    assert not (tmp_path / "out").exists()


def test_workers_default_to_the_usable_cores_capped_at_the_units(tmp_path, monkeypatch):
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    monkeypatch.setattr(cli, "_CPU_MAX", tmp_path / "absent")
    assert cli._workers(None, 1000) == cores
    assert cli._workers(None, 1) == 1
    assert cli._workers(8, 3) == 3
    assert cli._workers(2, 5) == 2
    assert cli._workers(1, 5) == 1


@pytest.mark.parametrize("limit, expected", [
    ("max 100000\n", 64), ("200000 100000\n", 2), ("150000 100000\n", 2),
    ("50000 100000\n", 1), ("garbled\n", 64),
])
def test_usable_cores_follow_a_cgroup_cpu_quota(tmp_path, monkeypatch, limit, expected):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    monkeypatch.setattr(cli, "_CPU_MAX", tmp_path / "cpu.max")
    (tmp_path / "cpu.max").write_text(limit)
    assert cli._usable_cores() == expected


def test_no_pool_starts_more_workers_than_it_has_units(tmp_path, monkeypatch):
    started = []
    real = cli.ProcessPoolExecutor

    def recording(max_workers, **kwargs):
        started.append(max_workers)
        return real(max_workers, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", recording)
    cfg = load_config(write_config(tmp_path, BASE_CONFIG.replace(
        "max_epochs = 12", "max_epochs = 2") + SINGLE_POINT_TUNE))
    cmd_train(replace(cfg, seeds=[0]), tmp_path / "one-seed", threads=8)
    assert started == []  # one cell runs in this process
    cmd_train(cfg, tmp_path / "default")
    cmd_sweep_gamma(cfg, tmp_path / "default-sweep", gammas=[0.5])
    assert started == []  # train and sweep-gamma default to this process
    cmd_sweep_gamma(cfg, tmp_path / "sweep", gammas=[0.5], threads=8)
    assert started == [2]  # one gamma x two seeds
    cmd_tune(cfg, tmp_path / "tune", threads=8)
    assert started == [2, 3]  # one grid point per method
    learned = replace(cfg, methods=["mf_ips_mf"],
                      tune={**cfg.tune, "learning_rate": (0.01, 0.02)})
    cmd_tune(learned, tmp_path / "tune-learned", threads=8)
    assert started == [2, 3]  # one task fits the model and trains both points


DIVERGING_TUNE_CONFIG = BASE_CONFIG.replace(
    "methods = avg, mf, mf_ips_mul", "methods = mf_ips_pop, mf_ips_pos, mf_ips_mul, mf_ips_mf"
).replace("max_epochs = 12", "max_epochs = 3") + """
[method mf_ips_mf]
propensity_steps = 40

[tune]
learning_rate = 0.01, 1e200
l2_weight = 1e-6
embedding_dim = 4
alpha1 = 1, 2
alpha2 = 2
budget = 2
"""


def test_tune_table_and_divergence_log_do_not_depend_on_the_workers(tmp_path, caplog):
    cfg = load_config(write_config(tmp_path, DIVERGING_TUNE_CONFIG))
    seed = cfg.seeds[0]
    # every point at the huge learning rate diverges, in grid order
    expected_log = [
        (method, point)
        for method in cfg.methods
        for point in cli._budget_points(cli._grid_points(cfg, method), 2, seed)
        if point["learning_rate"] == 1e200
    ]
    assert len(expected_log) == 1 + 1 + 2 + 1
    tables = []
    for threads in (1, 2, 3):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="ipsmf.cli"):
            path = cmd_tune(cfg, tmp_path / f"tuned{threads}", threads=threads)
        assert [r.args[:2] for r in caplog.records if "diverged" in r.msg] == expected_log
        tables.append(path.read_bytes())
    assert tables[0] == tables[1]
    assert tables[2] == tables[0]

    rows = {r["method"]: r for r in cli._read_rows(tmp_path / "tuned1" / "tuned.csv")}
    # the budget keeps both learning rates of the two-point grids, and only
    # diverging points of mf_ips_mul's four
    assert rows["mf_ips_mul"]["validation_score"] == "inf"
    assert rows["mf_ips_mul"]["clip_floor"] == ""
    for method in ("mf_ips_pop", "mf_ips_pos", "mf_ips_mf"):
        assert np.isfinite(float(rows[method]["validation_score"]))
        assert rows[method]["learning_rate"] == "0.01"


def test_every_outcome_of_main_has_a_table_row():
    # each `except` branch of main prints "<kind> error: <message>" and
    # returns the exit status; an argparse usage error exits 2
    outcomes = {(": error: argument ", 2)}
    for handler in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(main)))):
        if isinstance(handler, ast.ExceptHandler):
            text = next(n for n in ast.walk(handler) if isinstance(n, ast.JoinedStr))
            status = next(n for n in ast.walk(handler) if isinstance(n, ast.Return))
            outcomes.add((text.values[0].value, status.value.value))
    assert {text for text, _ in outcomes} >= {
        "config error: ", "propensity error: ", "data error: ", "training error: "}
    assert [(text, status) for text, status in outcomes
            if not any(case.status == status and text in case.stderr for case in CASES)] == []


def test_every_table_row_has_a_test():
    tests = {name for scope in (globals(), vars(TestConfigParsing), vars(TestTrainCommand))
             for name in scope if name.startswith("test_")}
    assert {case.group for case in CASES} <= tests
