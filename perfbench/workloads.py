"""The benchmark's workloads: config text, generated inputs, and output checks.

Every workload is one closed-loop, single-client call of one ``ipsmf.cli``
``cmd_*`` function on a config written here from the workload seed. This
module imports only numpy and the standard library, so the parent process of
the benchmark can read workload facts without importing ``ipsmf``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DESK_METHODS = ("mf", "mf_ips_pop", "mf_ips_pos", "mf_ips_mul", "mf_ips_gt")
DESK_GAMMAS = (0.0, 0.25, 0.5, 0.75, 1.0)
DESK_SEEDS_PER_RUN = 4
DESK_MAX_EPOCHS = 300

TUNE_METHODS = ("mf", "mf_ips_mf", "mf_ips_mul")
TUNE_DIMS = (8, 16)
TUNE_ALPHA1 = (1.0, 10.0)
TUNE_ALPHA2 = (1.0, 2.0)

# raw-tune input shape: biased-log users (a third have no unbiased ratings and
# are filtered out), items, and unbiased ratings per test user (as in Yahoo R3)
RAW_BIASED_USERS = 1500
RAW_TEST_USERS = 1000
RAW_ITEMS = 500
RAW_UNBIASED_PER_USER = 10

YAHOO_USERS, YAHOO_ITEMS, YAHOO_EPOCHS = 15400, 1000, 3


@dataclass(frozen=True)
class Workload:
    name: str
    table: str         # result table whose bytes must repeat
    workers: int       # pool workers requested (capped by the core count)
    models: int        # models trained per call
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "desk-sweep", "sweep_results.csv", 2,
            len(DESK_GAMMAS) * DESK_SEEDS_PER_RUN * len(DESK_METHODS),
            "many small models: per-batch gradient work, per-epoch evaluation "
            "and pool balance dominate (optim.fit self time, predict_many, adam_step)",
        ),
        Workload(
            "yahoo-train", "results.csv", 1, 1,
            "Yahoo-shaped 15400x1000 tables: simulation (convert_to_ratings, "
            "sample_unbiased) and dense adam_step dominate; checkpoints written",
        ),
        Workload(
            "raw-tune", "tuned.csv", 1,
            len(TUNE_DIMS) * (2 + len(TUNE_ALPHA1) * len(TUNE_ALPHA2)),
            "raw two-file ingestion plus grid search: the mf_learned propensity "
            "refit at every grid point (estimate_mf_propensity) dominates",
        ),
    )
}


# --------------------------------------------------------------------------
# config and input files


def write_inputs(name: str, seed: int, inputs_dir: Path) -> Path:
    """Write the workload's config (and raw input files) for `seed`; returns the
    config path. Paths inside the config are relative to the working directory
    of the call, so the config bytes, and its hash in the result tables, are
    the same for every repeat of one seed."""
    inputs_dir.mkdir(parents=True, exist_ok=True)
    if name == "desk-sweep":
        text = _desk_config(seed)
    elif name == "yahoo-train":
        text = _yahoo_config(seed)
    elif name == "raw-tune":
        biased, unbiased = _write_raw_files(seed, inputs_dir)
        text = _tune_config(seed, biased, unbiased)
    else:
        raise KeyError(name)
    path = inputs_dir / "config.ini"
    path.write_text(text, encoding="utf-8")
    return path


def _desk_config(seed: int) -> str:
    # the c6 acceptance setup (300x500, DESK_TRAIN, clip floor 1e-3); each
    # benchmark seed takes the next block of experiment seeds, so seed 0 runs
    # experiment seeds 0..DESK_SEEDS_PER_RUN-1 of the c6 grid
    seeds = ", ".join(str(seed * DESK_SEEDS_PER_RUN + k) for k in range(DESK_SEEDS_PER_RUN))
    return f"""\
[experiment]
methods = {", ".join(DESK_METHODS)}
seeds = {seeds}
gammas = {", ".join(repr(g) for g in DESK_GAMMAS)}

[simulation]
num_users = 300
num_items = 500
gamma = 0.5
seed = 1000

[train]
learning_rate = 0.01
l2_weight = 1e-5
batch_size = 512
max_epochs = {DESK_MAX_EPOCHS}
patience = 20
embedding_dim = 16
schedule = alternating

[propensity]
clip_floor = 0.001
"""


def _yahoo_config(seed: int) -> str:
    # patience >= max_epochs: the epoch count is fixed, whatever the data
    return f"""\
[experiment]
methods = mf_ips_mul
seeds = {seed}

[simulation]
num_users = {YAHOO_USERS}
num_items = {YAHOO_ITEMS}
gamma = 0.5
seed = 1

[train]
learning_rate = 0.001
l2_weight = 1e-5
batch_size = 1024
max_epochs = {YAHOO_EPOCHS}
patience = {YAHOO_EPOCHS}
embedding_dim = 16
schedule = alternating
"""


def _tune_config(seed: int, biased: Path, unbiased: Path) -> str:
    # patience >= max_epochs, and a propensity step budget that ends before
    # the mf_learned fit converges on any seed: the work of a call is then
    # nearly the same for every seed
    return f"""\
[experiment]
methods = {", ".join(TUNE_METHODS)}
seeds = {seed}

[data]
biased = {biased.as_posix()}
unbiased = {unbiased.as_posix()}
delimiter = \\t
filter_users = true
mcar_fraction = 0.2
split_seed = {seed}

[train]
batch_size = 1024
max_epochs = 8
patience = 8
schedule = alternating

[propensity]
clip_floor = 0.001

[method mf_ips_mf]
propensity_steps = 90

[tune]
learning_rate = 0.01
l2_weight = 1e-5
embedding_dim = {", ".join(str(d) for d in TUNE_DIMS)}
alpha1 = {", ".join(repr(a) for a in TUNE_ALPHA1)}
alpha2 = {", ".join(repr(a) for a in TUNE_ALPHA2)}
"""


def _write_raw_files(seed: int, inputs_dir: Path) -> tuple[Path, Path]:
    """Yahoo-format (tab-separated, 1-based ids, sorted by user then item)
    biased and unbiased rating files, drawn with the benchmark's own generator
    so that the cost of writing them does not depend on ``ipsmf.sim``.

    True ratings come from a low-rank score with item offsets, cut at fixed
    quantiles into 1..5 stars. The biased log keeps each cell with a
    probability that mixes a rating-value and an item-popularity factor (both
    kinds of selection bias); the unbiased file holds RAW_UNBIASED_PER_USER
    uniformly chosen items for each of the first RAW_TEST_USERS users of a
    random order. The remaining biased users have no unbiased ratings, so the
    ingestion path filters them out and re-indexes the rest."""
    rng = np.random.default_rng([seed, 20240429])
    n_users, n_items, rank = RAW_BIASED_USERS, RAW_ITEMS, 4
    affinity = (
        rng.normal(size=(n_users, rank)) @ rng.normal(size=(rank, n_items)) / math.sqrt(rank)
        + rng.normal(size=n_items)[None, :]
        + rng.normal(0.0, 0.6, size=(n_users, n_items))
    )
    cuts = np.quantile(affinity, np.cumsum((0.5148, 0.2525, 0.1496, 0.0554)))
    truth = 1 + np.searchsorted(cuts, affinity)

    rating_p = np.array([0.012, 0.010, 0.021, 0.057, 0.180])
    # popularity follows item quality, ranked by mean affinity
    item_rank = np.empty(n_items)
    item_rank[np.argsort(-affinity.mean(axis=0), kind="stable")] = np.arange(1, n_items + 1)
    item_p = np.minimum(0.2 * (item_rank / 50.0) ** -1.0, 1.0)
    keep = rng.random(truth.shape) < 0.5 * rating_p[truth - 1] + 0.5 * item_p[None, :]

    test_users = np.sort(rng.permutation(n_users)[:RAW_TEST_USERS])
    chosen = np.argsort(rng.random((RAW_TEST_USERS, n_items)), axis=1)[:, :RAW_UNBIASED_PER_USER]
    unbiased = np.zeros_like(keep)
    unbiased[np.repeat(test_users, RAW_UNBIASED_PER_USER), chosen.ravel()] = True

    paths = []
    for label, mask in (("biased", keep), ("unbiased", unbiased)):
        users, items = np.nonzero(mask)  # row-major: sorted by user, then item
        lines = [f"{u}\t{i}\t{r}" for u, i, r in zip(
            (users + 1).tolist(), (items + 1).tolist(), truth[users, items].tolist())]
        path = inputs_dir / f"{label}.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return paths[0], paths[1]


# --------------------------------------------------------------------------
# running and checking


def run(name: str, cfg, out_dir: Path, threads: int) -> Path:
    """Call the workload's cmd_* function; returns the result table path."""
    from ipsmf import cli

    if name == "desk-sweep":
        return cli.cmd_sweep_gamma(cfg, out_dir, threads=threads)
    if name == "yahoo-train":
        return cli.cmd_train(cfg, out_dir, threads=threads)
    if name == "raw-tune":
        return cli.cmd_tune(cfg, out_dir)
    raise KeyError(name)


def _read_table(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite_positive(text: str) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return math.isfinite(value) and value > 0.0


def check_outputs(name: str, out_dir: Path, seed: int) -> tuple[float, list[str]]:
    """Check the call's output files; returns (mse_mean, problems).

    mse_mean is the mean test MSE over the result rows, or for raw-tune the
    mean best validation score over the tuned rows."""
    problems: list[str] = []
    table = out_dir / WORKLOADS[name].table
    if not table.exists():
        return math.nan, [f"{table.name} missing"]
    rows = _read_table(table)

    if name == "desk-sweep":
        seeds = [seed * DESK_SEEDS_PER_RUN + k for k in range(DESK_SEEDS_PER_RUN)]
        expected = {(repr(g), m, str(s)) for g in DESK_GAMMAS for m in DESK_METHODS for s in seeds}
        got = [(r["gamma"], r["method"], r["seed"]) for r in rows]
        if sorted(got) != sorted(expected):
            problems.append("sweep rows are not one per (gamma, method, seed)")
        if len(_read_table(out_dir / "sweep_summary.csv")) != len(DESK_GAMMAS) * len(DESK_METHODS):
            problems.append("sweep summary is not one row per (gamma, method)")
        problems += _check_rows(rows, max_epochs=DESK_MAX_EPOCHS)
        scores = [r["mse"] for r in rows]
    elif name == "yahoo-train":
        if len(rows) != 1:
            problems.append(f"expected one result row, got {len(rows)}")
            return math.nan, problems
        problems += _check_rows(rows, max_epochs=YAHOO_EPOCHS)
        row = rows[0]
        if row["epochs_run"] != str(YAHOO_EPOCHS):
            problems.append(f"epochs_run {row['epochs_run']} != {YAHOO_EPOCHS}")
        tag = f"{row['method']}_seed{row['seed']}"
        history = _read_table(out_dir / f"history_{tag}.csv")
        best = [h for h in history if h["epoch"] == row["best_epoch"]]
        # the test MSE the training loop tracked at the best epoch is the one
        # evaluate() reports for the returned parameters
        if len(best) != 1 or not math.isclose(
                float(best[0]["test_mse"]), float(row["mse"]), rel_tol=1e-12):
            problems.append("results mse differs from the history's best-epoch test_mse")
        checkpoint = out_dir / f"checkpoint_{tag}.bin"
        header = checkpoint.read_bytes().split(b"\n", 1)[0]
        dim = int(row["embedding_dim"])
        params = (YAHOO_USERS + YAHOO_ITEMS) * (dim + 1) + 1
        if checkpoint.stat().st_size != len(header) + 1 + 8 * params:
            problems.append("checkpoint size does not match the parameter count")
        scores = [row["mse"]]
    else:
        if [r["method"] for r in rows] != list(TUNE_METHODS):
            problems.append("tuned rows are not one per method, in config order")
        for r in rows:
            points = len(TUNE_DIMS) * (len(TUNE_ALPHA1) * len(TUNE_ALPHA2)
                                       if r["method"] == "mf_ips_mul" else 1)
            if r["points_evaluated"] != str(points):
                problems.append(f"{r['method']}: {r['points_evaluated']} points, expected {points}")
            if int(r["embedding_dim"]) not in TUNE_DIMS:
                problems.append(f"{r['method']}: selected dim outside the grid")
        scores = [r["validation_score"] for r in rows]

    # on a 1..5 scale an MSE above 25 means predictions far off the scale
    bad = [s for s in scores if not _finite_positive(s) or float(s) > 25.0]
    if bad:
        problems.append(f"scores outside (0, 25]: {bad[:3]}")
        return math.nan, problems
    return sum(float(s) for s in scores) / len(scores), problems


def _check_rows(rows: list[dict], max_epochs: int) -> list[str]:
    problems = []
    for r in rows:
        best, ran = int(r["best_epoch"]), int(r["epochs_run"])
        if not 1 <= best <= ran <= max_epochs:
            problems.append(f"{r['method']} seed {r['seed']}: best_epoch {best}, epochs_run {ran}")
    return problems
