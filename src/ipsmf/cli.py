"""Experiment orchestration: config files, subcommands, sweeps, result tables.

Config files are INI-style key=value text with one section per concern
([simulation] or [data], [experiment], [train], optional [method X] overrides,
and [tune] grids); the full schema is documented in the README. Subcommands:

    simulate     write simulated train/validation/mcar/test files + manifest
    train        fit and evaluate each (method, seed), write result tables
    tune         grid-search hyperparameters per method on the validation set
    sweep-gamma  simulate/train/evaluate across a list of gamma values
    summarize    aggregate a results table into per-method mean/std/CI rows

Every result row carries (config hash, dataset, gamma, method, seed, split
sizes); reruns with identical config and seeds reproduce output files byte for
byte.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import itertools
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    RatingDataError,
    RatingDataset,
    SplitBundle,
    SplitError,
    _open_input,
    load_ratings,
    load_rating_pair,
    reindex_users,
    save_ratings,
    split_biased,
    split_unbiased,
    write_manifest,
)
from .metrics import METRIC_FIELDS, MetricReport, bootstrap_interval, evaluate, summarize_runs
from .model import fit_avg, save_checkpoint
from .optim import SCHEDULES, HistoryRow, TrainConfig, TrainingDivergedError, TrainResult, train
from .propensity import (
    AXES,
    PropensityError,
    PropensityModel,
    estimate_mf_propensity,
    estimate_multifactorial,
    estimate_popularity,
    estimate_positivity,
    load_propensity,
    prepare,
    save_propensity,
    uniform_propensities,
)
from .sim import SimulationSpec, simulate

logger = logging.getLogger(__name__)

METHODS = ("avg", "mf", "mf_ips_pop", "mf_ips_pos", "mf_ips_mul", "mf_ips_mf", "mf_ips_gt")

# the four splits of a bundle, in the order files and tables list them
SPLIT_KEYS = ("train", "validation", "mcar", "test")
SPLIT_SIZES = tuple(f"n_{k}" for k in SPLIT_KEYS)
# the columns a trained method's row reads off its TrainConfig and its propensity model
CONFIG_COLUMNS = ("schedule", "learning_rate", "l2_weight", "embedding_dim", "batch_size")
PROPENSITY_COLUMNS = ("alpha1", "alpha2", "clip_floor", "normalization")
RESULT_COLUMNS = (
    "config_hash", "dataset", "gamma", "method", "seed", *CONFIG_COLUMNS, *PROPENSITY_COLUMNS,
    "clamped", *SPLIT_SIZES, "epochs_run", "best_epoch", *METRIC_FIELDS,
)
HISTORY_COLUMNS = tuple(f.name for f in fields(HistoryRow))


class ConfigError(ValueError):
    """An experiment config is missing or misusing a field."""


class TrainingError(RuntimeError):
    """A method's training diverged in a train or sweep cell."""


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_list(text: str, cast):
    return [cast(part.strip()) for part in text.split(",") if part.strip()]


def _parse_delimiter(text: str) -> str:
    return {"\\t": "\t", "tab": "\t"}.get(text.strip(), text.strip())


def _checked(cast, bad, rule: str):
    """A parser that casts its text and rejects a value for which `bad`
    holds: the check the value's constructor makes, run at load time."""
    def parse(text: str):
        value = cast(text)
        if bad(value):
            raise ConfigError(f"must be {rule}, got {value!r}")
        return value
    return parse


# written so that NaN, which fails every comparison, is rejected too
_parse_positive = _checked(int, lambda v: not v > 0, "positive")
_parse_positive_float = _checked(float, lambda v: not v > 0, "positive")
_parse_nonnegative_float = _checked(float, lambda v: not v >= 0, "nonnegative")
# an [experiment] list, or the command-line option that overrides it
_distinct = _checked(list, lambda v: not v or len(set(v)) < len(v), "nonempty without repeats")

# The checks of TrainConfig, estimate_multifactorial (alphas), propensity.clip
# (clip_floor), init_params (propensity_dim) and estimate_mf_propensity
# (propensity_learning_rate, propensity_steps).
_TRAIN_CASTS = {
    "learning_rate": _parse_positive_float, "l2_weight": _parse_nonnegative_float,
    "batch_size": _parse_positive, "max_epochs": _parse_positive, "patience": _parse_positive,
    "schedule": _checked(str, lambda v: v not in SCHEDULES, " or ".join(SCHEDULES)),
    "embedding_dim": _parse_positive, "init_scale": _parse_nonnegative_float,
}
_PIPELINE_CASTS = {
    "normalize": _parse_bool,
    "clip_floor": _checked(float, lambda v: not 0.0 < v <= 1.0, "in (0, 1]"),
    "alpha1": _parse_nonnegative_float, "alpha2": _parse_nonnegative_float,
    "propensity_dim": _parse_positive, "propensity_learning_rate": _parse_positive_float,
    "propensity_steps": _parse_positive,
}
_METHOD_CASTS = {**_TRAIN_CASTS, **_PIPELINE_CASTS}
_PIPELINE_DEFAULTS = {
    "normalize": True, "clip_floor": None, "alpha1": 1.0, "alpha2": 1.0,
    "propensity_dim": 8, "propensity_learning_rate": 0.05, "propensity_steps": 300,
}
TRAIN_KEYS = tuple(_TRAIN_CASTS)
PIPELINE_KEYS = tuple(_PIPELINE_CASTS)


@dataclass
class ExperimentConfig:
    config_hash: str
    methods: list[str]
    seeds: list[int]
    output_dir: Path
    clamp_predictions: bool
    train: dict
    method_overrides: dict[str, dict]
    simulation: dict | None
    data: dict | None
    gammas: list[float]
    tune: dict

    def _merged(self, base: dict, keys: tuple, method: str, point: dict | None) -> dict:
        """`base` overridden by [propensity], then [method X], then a tune
        grid point, each restricted to `keys`."""
        merged = dict(base)
        for source in (
            self.method_overrides.get("*", {}), self.method_overrides.get(method, {}), point or {}
        ):
            merged.update({k: v for k, v in source.items() if k in keys})
        return merged

    def train_settings(self, method: str, seed: int, point: dict | None = None) -> TrainConfig:
        return TrainConfig(seed=seed, **self._merged(self.train, TRAIN_KEYS, method, point))

    def pipeline_settings(self, method: str, point: dict | None = None) -> dict:
        return self._merged(_PIPELINE_DEFAULTS, PIPELINE_KEYS, method, point)


_SIMULATION_CASTS = {
    "num_users": int, "num_items": int, "gamma": float, "seed": int,
    "powerlaw_eta": float, "k_min": int, "unbiased_per_user": int,
    "mcar_fraction": float, "train_fraction": float,
    "engagement_rank": int, "engagement_noise": float, "engagement_path": str,
    "engagement_format": str,
}
_SIMULATION_LISTS = {"rating_propensities": float, "target_rating_distribution": float}
# the two [data] layouts: a raw pair that is split here, or the four splits
RAW_KEYS = ("biased", "unbiased")
_DATA_CASTS = {
    "train": str, "validation": str, "mcar": str, "test": str,
    "biased": str, "unbiased": str, "ground_truth_propensities": str,
    "delimiter": _parse_delimiter, "filter_users": _parse_bool,
    "train_fraction": float, "mcar_fraction": float, "split_seed": int,
    "num_users": int, "num_items": int,
}
_DATA_DEFAULTS = {
    "delimiter": ",", "filter_users": True,
    "train_fraction": 0.8, "mcar_fraction": 0.05, "split_seed": 0,
}


_EXPERIMENT_CASTS = {"output_dir": Path, "clamp_predictions": _parse_bool}
_EXPERIMENT_LISTS = {"methods": str, "seeds": int, "gammas": float}
_EXPERIMENT_DEFAULTS = {
    "methods": ("mf",), "seeds": (0,), "gammas": (0.0, 0.25, 0.5, 0.75, 1.0),
    "output_dir": Path("out"), "clamp_predictions": False,
}
_TUNE_CASTS = {"budget": _checked(int, lambda v: v < 0, "nonnegative")}
_TUNE_LISTS = {
    k: _METHOD_CASTS[k] for k in ("learning_rate", "l2_weight", "embedding_dim", "alpha1", "alpha2")
}
_TUNE_DEFAULTS = {
    "learning_rate": (1e-3, 1e-4, 1e-5),
    "l2_weight": (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2),
    "embedding_dim": (16, 32, 64, 128),
    "alpha1": tuple(float(a) for a in range(1, 11)),
    "alpha2": tuple(float(a) for a in range(1, 11)),
    "budget": 0,
}


def _parse_section(parser: configparser.ConfigParser, name: str, casts: dict, lists=None) -> dict:
    """The keys of section `name`, each cast by `casts`, or parsed as a
    comma-separated tuple whose elements `lists` casts. An empty scalar value
    leaves its key out (the default applies); an empty list value is ``()``.
    Raises ConfigError naming the section and key for an unknown key or a
    value that does not parse."""
    lists = lists or {}
    out: dict = {}
    if not parser.has_section(name):
        return out
    for key, value in parser.items(name):
        if key not in casts and key not in lists:
            raise ConfigError(f"[{name}] unknown key {key!r}")
        if key in casts and value.strip() == "":
            continue
        try:
            out[key] = (
                tuple(_parse_list(value, lists[key])) if key in lists else casts[key](value)
            )
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"[{name}] {key}: {exc}") from None
    return out


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    with _open_input(path, ConfigError) as fh:
        text = fh.read()
    # no interpolation: a `%` in a value (a path, say) is literal
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:  # no section header, a repeated section or key
        raise ConfigError(f"{path}: {exc}") from None

    exp = {
        **_EXPERIMENT_DEFAULTS,
        **_parse_section(parser, "experiment", _EXPERIMENT_CASTS, _EXPERIMENT_LISTS),
    }
    methods, seeds = list(exp["methods"]), list(exp["seeds"])
    for method in methods:
        if method not in METHODS:
            raise ConfigError(f"[experiment] methods: unknown method {method!r}")
    for key in _EXPERIMENT_LISTS:
        try:
            _distinct(exp[key])
        except ConfigError as exc:
            raise ConfigError(f"[experiment] {key}: {exc}") from None

    train = _parse_section(parser, "train", _TRAIN_CASTS)
    overrides: dict[str, dict] = {}
    pipeline_common = _parse_section(parser, "propensity", _PIPELINE_CASTS)
    if pipeline_common:
        overrides["*"] = pipeline_common
    for section in parser.sections():
        if section.startswith("method "):
            method = section[len("method "):].strip()
            if method not in METHODS:
                raise ConfigError(f"[{section}] unknown method")
            overrides[method] = _parse_section(parser, section, _METHOD_CASTS)

    simulation = _parse_section(
        parser, "simulation", _SIMULATION_CASTS, lists=_SIMULATION_LISTS
    ) if parser.has_section("simulation") else None
    data = None
    if parser.has_section("data"):
        data = {**_DATA_DEFAULTS, **_parse_section(parser, "data", _DATA_CASTS)}
        # the stem of this file is the `dataset` cell of the result tables,
        # which are written unquoted
        key = "biased" if "biased" in data else "train"
        if key in data and any(c in Path(data[key]).stem for c in ",\r\n"):
            raise ConfigError(
                f"[data] {key}: file name of {data[key]!r} is the dataset label "
                "and must not contain a comma or a line break"
            )
        layout = RAW_KEYS if any(k in data for k in RAW_KEYS) else SPLIT_KEYS
        given = tuple(k for k in RAW_KEYS + SPLIT_KEYS if k in data)
        if given != layout:
            raise ConfigError(f"[data] needs the paths biased and unbiased, or train, "
                              f"validation, mcar and test; got {', '.join(given) or 'none'}")
    if (simulation is None) == (data is None):
        raise ConfigError("config needs exactly one of a [simulation] and a [data] section")

    tune = {**_TUNE_DEFAULTS, **_parse_section(parser, "tune", _TUNE_CASTS, _TUNE_LISTS)}

    if "mf_ips_gt" in methods and simulation is None and not (data or {}).get("ground_truth_propensities"):
        raise ConfigError(
            "[experiment] methods: mf_ips_gt requires simulation input or a "
            "ground_truth_propensities file"
        )

    return ExperimentConfig(
        config_hash=hashlib.sha256(text.encode("utf-8")).hexdigest()[:12],
        methods=methods,
        seeds=seeds,
        output_dir=exp["output_dir"],
        clamp_predictions=exp["clamp_predictions"],
        train=train,
        method_overrides=overrides,
        simulation=simulation,
        data=data,
        gammas=list(exp["gammas"]),
        tune=tune,
    )


def _simulation_spec(cfg: ExperimentConfig, seed_offset: int = 0) -> SimulationSpec:
    kwargs = dict(cfg.simulation)
    base_seed = kwargs.pop("seed", 0)
    missing = [k for k in ("num_users", "num_items", "gamma") if k not in kwargs]
    if missing:
        raise ConfigError(f"[simulation] missing key(s) {', '.join(missing)}")
    try:
        return SimulationSpec(seed=base_seed + seed_offset, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"simulation: {exc}") from None


@dataclass
class LoadedData:
    bundle: SplitBundle
    ground_truth: PropensityModel | None
    label: str
    gamma: float | None


def _load_split_files(data_cfg: dict) -> LoadedData:
    delim = data_cfg["delimiter"]
    num_users = data_cfg.get("num_users")
    num_items = data_cfg.get("num_items")
    parts = {
        split: load_ratings(
            data_cfg[split], delimiter=delim, num_users=num_users, num_items=num_items
        )
        for split in SPLIT_KEYS
    }
    gt = None
    gt_path = data_cfg.get("ground_truth_propensities")
    if gt_path:
        gt = load_propensity(gt_path, delimiter=delim)
    counts_u = max(p.num_users for p in parts.values())
    counts_i = max(p.num_items for p in parts.values())
    if gt is not None:
        if gt.family in ("multifactorial", "ground_truth"):
            # the table covers the full simulated item space, including items
            # that happen to be unobserved in every split
            counts_i = max(counts_i, gt.table.shape[0])
        # a rating axis always has NUM_RATINGS entries, checked at load
        sizes = {"user_index": counts_u, "item_index": counts_i}
        for axis, length in zip(AXES[gt.family], gt.table.shape):
            if length < sizes.get(axis, length):
                raise PropensityError(
                    f"{gt_path}: {axis} axis has {length} entries, fewer than "
                    f"the {sizes[axis]} of the split files"
                )
    parts = {
        k: RatingDataset(counts_u, counts_i, p.users, p.items, p.ratings)
        for k, p in parts.items()
    }
    label = Path(data_cfg["train"]).stem
    return LoadedData(SplitBundle(**parts), gt, label, None)


def _load_raw_files(data_cfg: dict) -> LoadedData:
    biased, unbiased = load_rating_pair(
        data_cfg["biased"], data_cfg["unbiased"], delimiter=data_cfg["delimiter"]
    )
    if data_cfg["filter_users"]:
        # the users with an unbiased rating, ascending: np.unique gives the
        # same, but imports numpy.ma (about 20 ms) on tune's serial path
        test_users = np.flatnonzero(np.bincount(unbiased.users, minlength=unbiased.num_users))
        biased, unbiased = reindex_users([biased, unbiased], test_users)
    split_seed = data_cfg["split_seed"]
    train, validation = split_biased(biased, data_cfg["train_fraction"], [split_seed, 0])
    mcar, test = split_unbiased(unbiased, data_cfg["mcar_fraction"], [split_seed, 1])
    bundle = SplitBundle(train=train, validation=validation, mcar=mcar, test=test)
    return LoadedData(bundle, None, Path(data_cfg["biased"]).stem, None)


def load_experiment_data(cfg: ExperimentConfig, run_seed: int) -> LoadedData:
    """Build the split bundle for one run.

    With [simulation], every run draws an independent simulated dataset from
    seed ``simulation.seed + run_seed``. With [data], files are loaded once per
    run but are identical across runs (only training randomness varies).
    """
    if cfg.simulation is not None:
        spec = _simulation_spec(cfg, seed_offset=run_seed)
        result = simulate(spec)
        return LoadedData(
            result.bundle, result.ground_truth_propensities, "simulation", spec.gamma
        )
    data_cfg = cfg.data or {}
    if "biased" in data_cfg:
        return _load_raw_files(data_cfg)
    return _load_split_files(data_cfg)


def build_propensity_model(
    method: str,
    bundle: SplitBundle,
    pipeline: dict,
    ground_truth: PropensityModel | None = None,
    seed: int = 0,
) -> PropensityModel | None:
    """Estimate, normalize, and clip the propensity model a method trains with."""
    train = bundle.train
    if method == "avg":
        return None
    if method in ("mf_ips_pos", "mf_ips_mul") and len(bundle.mcar) == 0:
        raise ConfigError(f"{method} requires a nonempty mcar split")
    if method == "mf_ips_gt":
        if ground_truth is None:
            raise ConfigError("mf_ips_gt requires ground-truth propensities")
        return ground_truth  # exact table: no normalization or clipping
    if method == "mf":
        model = uniform_propensities(train)
    elif method == "mf_ips_pop":
        model = estimate_popularity(train)
    elif method == "mf_ips_pos":
        model = estimate_positivity(train, bundle.mcar)
    elif method == "mf_ips_mul":
        model = estimate_multifactorial(train, bundle.mcar, pipeline["alpha1"], pipeline["alpha2"])
    elif method == "mf_ips_mf":
        model = estimate_mf_propensity(
            train,
            dim=pipeline["propensity_dim"],
            learning_rate=pipeline["propensity_learning_rate"],
            max_steps=pipeline["propensity_steps"],
            seed=seed,
        )
    else:
        raise ConfigError(f"unknown method {method!r}")
    return prepare(
        model, train,
        do_normalize=pipeline["normalize"],
        clip_floor=pipeline["clip_floor"],
    )


@dataclass
class Outcome:
    """One method trained at one (seed, point) and scored on one split."""
    method: str
    config: TrainConfig  # its seed is the run's seed
    prop: PropensityModel | None  # the prepared model; None for avg
    report: MetricReport | None  # None when training diverged
    result: TrainResult | None  # None for avg, or when training diverged
    diverged: str | None = None  # the divergence message; None when training finished


def run_method(
    method: str,
    bundle: SplitBundle,
    split: RatingDataset,
    train_config: TrainConfig,
    prop: PropensityModel | None,
    clamp: bool = False,
) -> Outcome:
    """Train one method on `bundle` with a built propensity model and evaluate
    on `split`: the second of a run's two stages, after
    :func:`build_propensity_model`. `prop` is None for avg. A training run
    that diverges gives an outcome with its message and no report."""
    try:
        result = None if method == "avg" else train(bundle, prop, train_config)
    except TrainingDivergedError as exc:
        return Outcome(method, train_config, prop, None, None, str(exc))
    params = fit_avg(bundle.train) if result is None else result.params
    return Outcome(method, train_config, prop, evaluate(params, split, clamp=clamp), result)


def _without_test(bundle: SplitBundle) -> SplitBundle:
    """`bundle` with an empty test split. Training on it gives the same
    parameters and history, except that the history has no test MSE, which
    spares the loop predicting the test split every epoch."""
    return replace(bundle, test=bundle.test.subset([]))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_rows(path: Path, columns, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row.get(c)) for c in columns) + "\n")


def _read_rows(path: Path, needed=(), numbers=()) -> list[dict]:
    """The rows of a comma-separated table, each a dict keyed by the header,
    with the `numbers` columns parsed by ``float``. Raises RatingDataError
    naming the file, and the line for a row, when a `needed` column is
    missing, a row's field count differs from the header's, or a `numbers`
    cell does not parse."""
    with _open_input(path) as fh:
        header = fh.readline().strip().split(",")
        missing = [c for c in needed if c not in header]
        if missing:
            raise RatingDataError(f"{path}: missing column(s) {', '.join(missing)}")
        rows = []
        for number, line in enumerate(fh, start=2):
            fields = line.strip().split(",")
            if fields == [""]:
                continue
            if len(fields) != len(header):
                raise RatingDataError(
                    f"{path}: line {number}: {len(fields)} fields, the header has {len(header)}")
            row = dict(zip(header, fields))
            for name in numbers:
                try:
                    row[name] = float(row[name])
                except ValueError:
                    raise RatingDataError(
                        f"{path}: line {number}: {name} {row[name]!r} is not a number") from None
            rows.append(row)
        return rows


def _result_row(cfg, loaded, outcome: Outcome) -> dict:
    row = {
        "config_hash": cfg.config_hash,
        "dataset": loaded.label,
        "gamma": loaded.gamma,
        "method": outcome.method,
        "seed": outcome.config.seed,
        "clamped": cfg.clamp_predictions,
        **{n: len(getattr(loaded.bundle, k)) for n, k in zip(SPLIT_SIZES, SPLIT_KEYS)},
        **{name: getattr(outcome.report, name) for name in METRIC_FIELDS},
    }
    if outcome.result is not None:
        row.update({
            **{name: getattr(outcome.config, name) for name in CONFIG_COLUMNS},
            **{name: getattr(outcome.prop, name) for name in PROPENSITY_COLUMNS},
            "epochs_run": len(outcome.result.history),
            "best_epoch": outcome.result.best_epoch,
        })
    return row


def _run_cell(args) -> list[tuple[dict, TrainResult | None]]:
    """One worker cell: simulate/load the bundle of (config, seed), run all methods.

    Returns a (result row, TrainResult) pair per method, the TrainResult
    (history and fitted parameters, for artifact files; None for avg) only
    when requested. Without it the methods train without the test split: a
    discarded history needs no per-epoch test MSE. Raises TrainingError
    naming the first method that diverges."""
    cfg, seed, keep_artifacts = args
    loaded = load_experiment_data(cfg, run_seed=seed)
    train_on = loaded.bundle if keep_artifacts else _without_test(loaded.bundle)
    pairs = []
    for method in cfg.methods:
        prop = build_propensity_model(
            method, loaded.bundle, cfg.pipeline_settings(method), loaded.ground_truth, seed=seed
        )
        outcome = run_method(
            method, train_on, loaded.bundle.test, cfg.train_settings(method, seed), prop,
            clamp=cfg.clamp_predictions,
        )
        if outcome.diverged is not None:
            gamma = "" if loaded.gamma is None else f", gamma {loaded.gamma!r}"
            raise TrainingError(f"{method}, seed {seed}{gamma}: {outcome.diverged}")
        row = _result_row(cfg, loaded, outcome)
        pairs.append((row, outcome.result if keep_artifacts else None))
    return pairs


def _run_cells(configs, seeds, keep_artifacts: bool, threads: int, out_dir: Path, prefix: str):
    """Run the cells (config, seed) of `configs` x `seeds` on `threads`
    worker processes, then write `<prefix>results.csv`, sorted by (gamma,
    method, seed), and `<prefix>summary.csv`. Returns the sorted pairs."""
    for config in configs:
        if config.simulation is not None:
            _simulation_spec(config)  # a bad spec is rejected before any cell runs
    cells = [(config, seed, keep_artifacts) for config in configs for seed in seeds]
    pairs = [p for cell in _map(_run_cell, cells, _workers(threads, len(cells))) for p in cell]
    pairs.sort(key=lambda p: (p[0]["gamma"], p[0]["method"], p[0]["seed"]))
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / f"{prefix}results.csv"
    _write_rows(results_path, RESULT_COLUMNS, [row for row, _ in pairs])
    cmd_summarize(results_path, out_dir / f"{prefix}summary.csv")
    return pairs


def _workers(threads: int | None, units: int) -> int:
    """Worker processes for `units` independent tasks: `threads`, or
    :func:`_usable_cores` when None, capped at `units`. 1 means the tasks run
    in this process."""
    if threads is None:
        threads = _usable_cores()
    elif threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    return max(1, min(threads, units))


# a cgroup v2 CPU limit, "<quota> <period>" or "max <period>"
_CPU_MAX = Path("/sys/fs/cgroup/cpu.max")


def _usable_cores() -> int:
    """The cores this process may run on (its CPU affinity, or the machine's
    count where there is none), lowered to its cgroup's CPU quota if one is
    set: affinity alone would count every core of a quota-limited host."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cores = os.cpu_count() or 1
    try:
        quota, period = _CPU_MAX.read_text().split()
        cores = min(cores, math.ceil(int(quota) / int(period)))
    except (OSError, ValueError):  # no cgroup v2 limit file, or no quota
        pass
    return max(1, cores)


# what the task functions of the running pool read; set in each worker by
# the pool initializer, or in this process for the in-process path
_worker_state = None


def _set_worker_state(state) -> None:
    global _worker_state
    _worker_state = state


def _map(fn, items, workers: int, state=None) -> list:
    """``[fn(x) for x in items]`` in order, on `workers` processes (1: in this
    one), with `state` handed once to each process as `_worker_state`."""
    if workers == 1:
        _set_worker_state(state)
        try:
            return [fn(x) for x in items]
        finally:
            _set_worker_state(None)
    with ProcessPoolExecutor(
        workers, initializer=_set_worker_state, initargs=(state,)
    ) as pool:
        return list(pool.map(fn, items))


# --------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> None:
    if cfg.simulation is None:
        raise ConfigError("simulate requires a [simulation] section")
    spec = _simulation_spec(cfg)
    result = simulate(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle = result.bundle
    for name in SPLIT_KEYS:
        save_ratings(getattr(bundle, name), out_dir / f"{name}.csv")
    save_propensity(result.ground_truth_propensities, out_dir / "gt_propensities.csv")
    manifest = {
        "config_hash": cfg.config_hash,
        "num_users": spec.num_users,
        "num_items": spec.num_items,
        "gamma": repr(spec.gamma),
        "seed": spec.seed,
        "powerlaw_eta": repr(spec.powerlaw_eta),
        "k_min": spec.k_min,
        "unbiased_per_user": spec.unbiased_per_user,
        "mcar_fraction": repr(spec.mcar_fraction),
        "train_fraction": repr(spec.train_fraction),
        "rating_propensities": ",".join(repr(p) for p in spec.rating_propensities),
        "capped_item_propensities": result.capped_items,
        **{n: len(getattr(bundle, k)) for n, k in zip(SPLIT_SIZES, SPLIT_KEYS)},
    }
    write_manifest(out_dir / "manifest.txt", manifest)
    logger.info("wrote simulated splits to %s", out_dir)


def cmd_train(cfg: ExperimentConfig, out_dir: Path, threads: int = 1) -> Path:
    pairs = _run_cells([cfg], cfg.seeds, True, threads, out_dir, "")
    for row, result in pairs:
        if result is None:
            continue
        tag = f"{row['method']}_seed{row['seed']}"
        _write_rows(
            out_dir / f"history_{tag}.csv", HISTORY_COLUMNS, [vars(h) for h in result.history]
        )
        save_checkpoint(result.params, out_dir / f"checkpoint_{tag}.bin", seed=row["seed"])

    if cfg.data and "biased" in cfg.data:
        # raw two-file input: record how it was split (identical for every
        # run, so any result row carries the split sizes)
        write_manifest(out_dir / "split_manifest.txt", {
            "config_hash": cfg.config_hash,
            "split_seed": cfg.data["split_seed"],
            "train_fraction": repr(cfg.data["train_fraction"]),
            "mcar_fraction": repr(cfg.data["mcar_fraction"]),
            **{k: pairs[0][0][k] for k in SPLIT_SIZES},
        })
    return out_dir / "results.csv"


def cmd_sweep_gamma(cfg: ExperimentConfig, out_dir: Path, gammas=None, threads: int = 1) -> Path:
    if cfg.simulation is None:
        raise ConfigError("sweep-gamma requires a [simulation] section")
    configs = [replace(cfg, simulation={**cfg.simulation, "gamma": g})
               for g in (cfg.gammas if gammas is None else _distinct(gammas))]
    _run_cells(configs, cfg.seeds, False, threads, out_dir, "sweep_")
    return out_dir / "sweep_results.csv"


def cmd_summarize(results_path: Path, summary_path: Path) -> Path:
    """Aggregate per-run rows into per-(dataset, gamma, method) summary rows
    with mean, standard deviation, and 95% bootstrap intervals (1000 resamples)."""
    rows = _read_rows(Path(results_path), needed=("dataset", "gamma", "method", *METRIC_FIELDS),
                      numbers=METRIC_FIELDS)
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["dataset"], row["gamma"], row["method"]), []).append(row)

    columns = ["dataset", "gamma", "method", "n_runs"]
    for name in METRIC_FIELDS:
        columns += [f"{name}_mean", f"{name}_std"]
    for name in ("mse", "mae"):
        columns += [f"{name}_ci_low", f"{name}_ci_high"]

    out_rows = []
    for key in sorted(groups):
        group = groups[key]
        row = {"dataset": key[0], "gamma": key[1], "method": key[2], **summarize_runs(group)}
        for name in ("mse", "mae"):
            values = np.array([r[name] for r in group])
            low, high = bootstrap_interval(values, num_resamples=1000, seed=0)
            row[f"{name}_ci_low"] = low
            row[f"{name}_ci_high"] = high
        out_rows.append(row)
    _write_rows(Path(summary_path), columns, out_rows)
    return Path(summary_path)


# methods whose propensity model is an iterative fit, not a table of counts:
# tune fits each such model in the pool task that trains its grid points, and
# starts those tasks first
_FITTED_METHODS = ("mf_ips_mf",)


def cmd_tune(cfg: ExperimentConfig, out_dir: Path, threads: int | None = None) -> Path:
    """Grid search per method, selected on the validation split.

    A grid point runs as a method in a train cell does: its settings, with
    the point as the last override, its propensity model, then
    :func:`run_method` on the validation split. avg and mf score the plain
    validation MSE, weighted methods the self-normalized weighted validation
    MSE under their own propensities at their best epoch; a diverged point
    scores inf. A nonzero [tune] budget caps the grid points per method (see
    :func:`_budget_points`). Each distinct (method, pipeline) propensity model
    is built once per call, as the seed and data are fixed, and shared by the
    points that need it. Tasks follow the grid: each point of a table model
    is one task, carrying the model, which is built here in grid order; each
    run of consecutive points sharing a learned model (see `_FITTED_METHODS`;
    `mf_ips_mf`'s whole grid, which varies train keys only) is one task that
    fits it and then trains the points, so its "did not converge" warning
    comes from that task's process, in completion order. The tasks train,
    without the test split, on `threads` worker processes, by default the
    usable cores, capped at the tasks (see :func:`_workers`). The learned
    tasks are dispatched first, then the others, each kind in grid order.
    Each task reduces its points' outcomes to scores in its worker; the
    scores are put back in grid order, and the best points chosen and the
    divergence warnings logged here, so neither depends on the worker count
    or the dispatch order.
    """
    seed = cfg.seeds[0]
    grids = []
    for method in cfg.methods:
        points = _grid_points(cfg, method)
        if not points:
            raise ConfigError(f"empty tuning grid for {method}")
        grids.append((method, _budget_points(points, cfg.tune["budget"], seed)))

    loaded = load_experiment_data(cfg, run_seed=seed)
    bundle = _without_test(loaded.bundle)
    tasks = []  # (method, pipeline, table model or None, points), in grid order
    props: dict[tuple, PropensityModel | None] = {}  # the table models
    for method, points in grids:
        fitted = method in _FITTED_METHODS
        for point in points:
            pipeline = cfg.pipeline_settings(method, point)
            if fitted and tasks and tasks[-1][:2] == (method, pipeline):
                tasks[-1][3].append(point)
                continue
            key = (method, tuple(sorted(pipeline.items())))
            if not fitted and key not in props:
                props[key] = build_propensity_model(
                    method, bundle, pipeline, loaded.ground_truth, seed=seed
                )
            tasks.append((method, pipeline, props.get(key), [point]))
    # a learned task, which fits before it trains, is the longest: started
    # last, it ran alone while the other workers sat idle
    order = sorted(range(len(tasks)), key=lambda k: tasks[k][0] not in _FITTED_METHODS)
    workers = _workers(threads, len(tasks))
    done = dict(zip(order, _map(_tune_task, order, workers, state=(cfg, bundle, tasks))))
    scores = itertools.chain.from_iterable(done[k] for k in range(len(tasks)))  # in grid order

    tuned_rows = []
    for method, points in grids:
        scored = [(next(scores), point) for point in points]
        for (_, _, diverged), point in scored:
            if diverged is not None:
                logger.warning("%s diverged at %s: %s", method, point, diverged)
        # the first of the lowest scores
        (score, clip_floor, _), point = min(scored, key=lambda s: s[0][0])
        tuned_rows.append({"method": method, "validation_score": score, "clip_floor": clip_floor,
                           "points_evaluated": len(points), **point})

    columns = ("method", *_TUNE_LISTS, "clip_floor", "validation_score", "points_evaluated")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "tuned.csv"
    _write_rows(path, columns, tuned_rows)
    return path


def _tune_task(index: int) -> list[tuple[float, float | None, str | None]]:
    """Train and score the grid points of task `index` of the running
    :func:`cmd_tune`, whose (config, bundle, tasks) is `_worker_state`, with
    the task's table model, or first fitting its learned one. Returns
    (validation score, clip floor, divergence message or None) per point, in
    grid order: a diverged point scores inf with no clip floor."""
    cfg, bundle, tasks = _worker_state
    method, pipeline, prop, points = tasks[index]
    seed = cfg.seeds[0]
    if method in _FITTED_METHODS:
        prop = build_propensity_model(method, bundle, pipeline, seed=seed)
    plain = method in ("avg", "mf")  # scored by the unweighted validation MSE
    scores = []
    for point in points:
        outcome = run_method(
            method, bundle, bundle.validation, cfg.train_settings(method, seed, point), prop
        )
        if outcome.diverged is not None:
            scores.append((float("inf"), None, outcome.diverged))
        else:
            score = outcome.report.mse if plain else outcome.result.best_validation
            scores.append((score, (prop.clip_floor if prop is not None else None), None))
    return scores


def _grid_points(cfg: ExperimentConfig, method: str) -> list[dict]:
    """Every combination of the [tune] keys `method` reads, the last key
    varying fastest (nested-loop order): none for avg, the alphas only for
    mf_ips_mul."""
    keys = () if method == "avg" else tuple(k for k in _TUNE_LISTS if k in TRAIN_KEYS)
    if method == "mf_ips_mul":
        keys += tuple(k for k in _TUNE_LISTS if k in PIPELINE_KEYS)
    return [dict(zip(keys, values)) for values in itertools.product(*(cfg.tune[k] for k in keys))]


def _budget_points(points: list[dict], budget: int, seed: int) -> list[dict]:
    """`budget` grid points drawn without replacement over the whole grid with
    the tune seed, kept in grid order; the full grid when `budget` is 0 or
    covers it."""
    if budget <= 0 or budget >= len(points):
        return points
    chosen = np.random.default_rng(seed).choice(len(points), size=budget, replace=False)
    return [points[i] for i in np.sort(chosen)]


# --------------------------------------------------------------------------
# entry point


def _option(parse):
    """An argparse type that reports the ValueError of `parse` as a usage error."""
    def option(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return option


def _list_option(cast):
    return _option(lambda text: _distinct(_parse_list(text, cast)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ipsmf", description="Debiased rating-prediction experiments."
    )
    parser.add_argument("--log-level", default="INFO", type=str.upper,
                        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"))
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=(name != "summarize"))
        p.add_argument("--out", default=None, help="output directory override")
        return p

    def add_threads(p, default, default_text):
        p.add_argument(
            "--threads", type=_option(_checked(int, lambda v: v < 1, "at least 1")),
            default=default,
            help=f"worker processes, capped at the cells or tune tasks (default: "
                 f"{default_text}); every count writes the same bytes",
        )

    add("simulate", "write simulated dataset splits and a manifest")
    p_train = add("train", "fit and evaluate configured methods and seeds")
    p_train.add_argument("--seeds", type=_list_option(int), help="comma-separated seed override")
    add_threads(p_train, 1, "1, in this process")
    p_train.add_argument("--clamp-predictions", action="store_true")
    p_tune = add("tune", "grid-search hyperparameters per method")
    add_threads(p_tune, None, "the usable cores")
    p_sweep = add("sweep-gamma", "simulate/train across gamma values")
    p_sweep.add_argument("--gammas", type=_list_option(float),
                         help="comma-separated gamma override")
    p_sweep.add_argument("--seeds", type=_list_option(int))
    add_threads(p_sweep, 1, "1, in this process")
    p_sum = sub.add_parser("summarize", help="aggregate a results table")
    p_sum.add_argument("--results", required=True)
    p_sum.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    logging.basicConfig(level=args.log_level)

    try:
        if args.command == "summarize":
            results = Path(args.results)
            out = Path(args.out) if args.out else results.parent / "summary.csv"
            cmd_summarize(results, out)
            return 0

        cfg = load_config(args.config)
        if getattr(args, "seeds", None):
            cfg = replace(cfg, seeds=args.seeds)
        if getattr(args, "clamp_predictions", False):
            cfg = replace(cfg, clamp_predictions=True)
        out_dir = Path(args.out) if args.out else cfg.output_dir

        if args.command == "simulate":
            cmd_simulate(cfg, out_dir)
        elif args.command == "train":
            cmd_train(cfg, out_dir, threads=args.threads)
        elif args.command == "tune":
            cmd_tune(cfg, out_dir, threads=args.threads)
        elif args.command == "sweep-gamma":
            cmd_sweep_gamma(cfg, out_dir, gammas=args.gammas, threads=args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PropensityError as exc:
        print(f"propensity error: {exc}", file=sys.stderr)
        return 2
    except (RatingDataError, SplitError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
