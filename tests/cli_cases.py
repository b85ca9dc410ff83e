"""The CLI's error cases as one table, and the runner that checks a row.

A row holds its input files (``{tmp}`` in their text, argv and stderr is
the run directory), its argv, its exit status and the stderr it must print.
`check` runs a row in a fresh directory and reports another exit status,
the expected stderr missing, a ``Traceback`` or ``RuntimeWarning`` in
stderr, or any change to the directory (so no ``--out`` and no default
``out`` was made). tests/test_cli.py runs every row through ``cli.main``
in the test its `group` names; ``python tests/cli_cases.py`` runs every row
through the ``ipsmf`` executable on PATH, RuntimeWarnings as errors. A new
input check adds a row here.
"""

import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Case:
    group: str  # the test in tests/test_cli.py that runs the row
    name: str
    argv: str  # split on whitespace
    status: int
    stderr: str
    files: dict = field(default_factory=dict)  # path relative to the run directory -> text


BASE_CONFIG = """
[simulation]
num_users = 30
num_items = 25
gamma = 0.5
seed = 3
unbiased_per_user = 8

[experiment]
methods = avg, mf, mf_ips_mul
seeds = 0, 1
output_dir = out

[train]
learning_rate = 0.01
l2_weight = 1e-6
batch_size = 128
max_epochs = 12
patience = 12
embedding_dim = 4
schedule = alternating

[method mf_ips_mul]
alpha1 = 2
alpha2 = 2
"""

SINGLE_POINT_TUNE = """
[tune]
learning_rate = 0.01
l2_weight = 1e-6
embedding_dim = 4
alpha1 = 2
alpha2 = 2
"""

SMALL_SIMULATION = (
    "[simulation]\nnum_users = 10\nnum_items = 10\ngamma = 0.5\nunbiased_per_user = 5\n"
)
RATINGS_HEADER = "user_id,item_id,rating\n"
SPLITS = ("train", "validation", "mcar", "test")
RESULTS_HEADER = "dataset,gamma,method,seed,mse,mae,rmse,rmse_per_user,rmse_per_item\n"
RESULT_ROW = "simulation,0.5,mf,0,1.0,0.8,1.0,1.1,1.2\n"
TABLE_HEADER = ("# family=popularity tau=0.0 alpha1= alpha2= scale=1.0 normalization=none "
                "rating_min=1 rating_max=5\n")
POPULARITY_TABLE = TABLE_HEADER + "item_index,propensity\n0,0.5\n1,0.5\n2,0.5\n3,0.5\n"
DATA_LAYOUT_ERROR = (
    "[data] needs the paths biased and unbiased, or train, validation, mcar and test; "
)
BOTH_SOURCES_ERROR = "config needs exactly one of a [simulation] and a [data] section"


def edited(old, new, text=BASE_CONFIG):
    """`text` with its one `old` replaced by `new`."""
    if text.count(old) != 1:
        raise ValueError(f"{old!r} is not in the text once")
    return text.replace(old, new)


def args(command, config="c.ini", extra=""):
    return f"{command} --config {{tmp}}/{config} --out {{tmp}}/out {extra}"


def one_item_per_split(k):
    return f"0,{k},4\n"


def split_files(lines=one_item_per_split, folder="", data="", after="", paths=()):
    """A [data] config c.ini that reads four split files from `folder`;
    split k holds the rating lines `lines(k)` below the header. `paths`
    points splits at other files, `data` adds [data] keys and `after` more
    sections."""
    files = {f"{folder}{s}.csv": RATINGS_HEADER + lines(k) for k, s in enumerate(SPLITS)}
    paths = {**{s: f"{{tmp}}/{folder}{s}.csv" for s in SPLITS}, **dict(paths)}
    keys = "".join(f"{s} = {path}\n" for s, path in paths.items())
    return {**files, "c.ini": f"[data]\n{keys}{data}{after}"}


GT_METHOD = "\n[experiment]\nmethods = mf_ips_gt\n"


def with_table(name, text, lines=one_item_per_split):
    """Split files whose mf_ips_gt run reads the propensity table `name`."""
    return {**split_files(lines, data=f"ground_truth_propensities = {{tmp}}/{name}\n",
                          after=GT_METHOD),
            name: text}


RAW_PAIR = {
    "biased.csv": RATINGS_HEADER + "u0,i0,4\nu0,i1,2\nu1,i0,5\nu1,i1,3\nu0,i3,1\n",
    "unbiased.csv": RATINGS_HEADER + "u0,i2,3\nu1,i2,1\n",
    "c.ini": "[data]\nbiased = {tmp}/biased.csv\nunbiased = {tmp}/unbiased.csv\n",
}
BAD_HEADER_PAIR = {**RAW_PAIR, "unbiased.csv": "user,item,rating\nu0,i2,3\nu1,i2,1\n"}


def raw_pair(data=""):
    return {**RAW_PAIR, "c.ini": RAW_PAIR["c.ini"] + data}


def base(old=None, new=None, text=BASE_CONFIG):
    return {"c.ini": text if old is None else edited(old, new, text)}


def table_cases(group, command, prefix, rows):
    """Rows that run `command` on BASE_CONFIG with one edit each:
    (name, old, new, message) expects `prefix` + message."""
    return [Case(group, name, args(command), 2, prefix + message, base(old, new))
            for name, old, new, message in rows]


def out_is_file(command, how):
    """`command` with an output directory that is, or lies below, a file:
    rejected when the command starts, before any cell trains."""
    out = "{tmp}/taken/sub" if how == "below-a-file" else "{tmp}/taken"
    config = edited("seeds = 0, 1", "seeds = 0")
    if how == "config":
        config = edited("output_dir = out", f"output_dir = {out}", config)
    option = "" if how == "config" else f" --out {out}"
    return Case(OUT_IS_FILE, f"{how}-{command}", f"{command} --config {{tmp}}/c.ini{option}", 2,
                f"config error: output directory {out}: {{tmp}}/taken is not a directory\n",
                {"taken": "kept\n", "c.ini": config})


KEYS = "test_experiment_and_tune_keys_checked"
MALFORMED = "test_malformed_file_names_the_path"
DATA = "test_data_errors_reported"
SMALL_TABLE = "test_ground_truth_table_smaller_than_the_id_space_rejected"
PIPELINE = "test_pipeline_and_data_keys_checked"
COMMAND = "test_command_config_error_leaves_no_output_dir"
OUT_IS_FILE = "test_output_dir_that_is_a_file_is_rejected_at_start"
CELL = "test_cell_config_error_leaves_no_output_dir"
DIVERGED = "test_diverged_cell_is_a_training_error"
SPEC = "test_unsimulatable_spec_is_a_config_error"
THREADS = "test_threads_below_one_is_a_usage_error"
OPTION = "test_malformed_option_is_a_usage_error"


CASES = [
    *table_cases(KEYS, "tune", "config error: ", [
        ("seeds-not-int", "seeds = 0, 1", "seeds = two", "[experiment] seeds: invalid literal"),
        ("budget-not-int", "[train]", "[tune]\nbudget = two\n[train]",
         "[tune] budget: invalid literal"),
        ("budget-negative", "[train]", "[tune]\nbudget = -3\n[train]",
         "[tune] budget: must be nonnegative, got -3"),
        ("experiment-typo", "seeds = 0, 1", "sedes = 3", "[experiment] unknown key 'sedes'"),
        ("tune-typo", "[train]", "[tune]\nbudgt = 2\n[train]", "[tune] unknown key 'budgt'"),
        ("tune-learning-rate-zero", "[train]", "[tune]\nlearning_rate = 0.01, 0\n[train]",
         "[tune] learning_rate: must be positive, got 0.0"),
        ("tune-dim-zero", "[train]", "[tune]\nembedding_dim = 0\n[train]",
         "[tune] embedding_dim: must be positive, got 0"),
        ("methods-repeated", "avg, mf, mf_ips_mul", "mf, mf",
         "[experiment] methods: must be nonempty without repeats, got ['mf', 'mf']"),
        ("seeds-repeated", "seeds = 0, 1", "seeds = 1, 0, 1",
         "[experiment] seeds: must be nonempty without repeats, got [1, 0, 1]"),
        ("seeds-empty", "seeds = 0, 1", "seeds =",
         "[experiment] seeds: must be nonempty without repeats, got []"),
        ("gammas-repeated", "seeds = 0, 1", "gammas = 0.5, 0.50",
         "[experiment] gammas: must be nonempty without repeats, got [0.5, 0.5]"),
        ("gammas-empty", "seeds = 0, 1", "gammas = ,",
         "[experiment] gammas: must be nonempty without repeats, got []"),
        ("percent-in-value", "num_users = 30", "num_users = 10%",
         "[simulation] num_users: invalid literal for int() with base 10: '10%'"),
        ("seeds-negative", "seeds = 0, 1", "seeds = 0, -1",
         "[experiment] seeds: must be nonnegative, got -1"),
        ("simulation-seed-negative", "seed = 3", "seed = -5",
         "[simulation] seed: must be nonnegative, got -5"),
        ("tune-learning-rate-repeated", "[train]", "[tune]\nlearning_rate = 0.01, 0.01\n[train]",
         "[tune] learning_rate: must be without repeats, got [0.01, 0.01]"),
        ("tune-alpha1-repeated", "[train]", "[tune]\nalpha1 = 1, 2, 1.0\n[train]",
         "[tune] alpha1: must be without repeats, got [1.0, 2.0, 1.0]"),
    ]),

    # a file configparser cannot read is named, not given as <string>
    Case(MALFORMED, "key-before-section", args("train"), 2,
         "config error: {tmp}/c.ini: File contains no section headers.\n"
         "file: '{tmp}/c.ini', line: 1",
         base(text="num_users = 30\n" + BASE_CONFIG)),
    Case(MALFORMED, "repeated-section", args("train"), 2,
         "config error: {tmp}/c.ini: While reading from '{tmp}/c.ini' [line 27]: "
         "section 'simulation' already exists",
         base(text=BASE_CONFIG + "\n[simulation]\nnum_items = 25\n")),
    Case(MALFORMED, "repeated-key", args("train", "repeated-key.ini"), 2,
         "config error: {tmp}/repeated-key.ini: While reading from '{tmp}/repeated-key.ini' "
         "[line  3]: option 'num_users' in section 'simulation' already exists",
         {"repeated-key.ini": "[simulation]\nnum_users = 10\nnum_users = 20\n"}),

    # a missing or malformed input file, an impossible split or an empty
    # split that training or evaluation needs names the file
    Case(DATA, "bad-header", args("train"), 2,
         "data error: {tmp}/unbiased.csv: line 1: ", BAD_HEADER_PAIR),
    Case(DATA, "missing-biased", args("train"), 2,
         "data error: {tmp}/absent.csv: No such file or directory",
         {**RAW_PAIR, "c.ini": edited("/biased.csv", "/absent.csv", RAW_PAIR["c.ini"])}),
    Case(DATA, "missing-train", args("train"), 2,
         "data error: {tmp}/absent.csv: No such file or directory",
         split_files(paths={"train": "{tmp}/absent.csv"})),
    Case(DATA, "string-id-in-split", args("train"), 2, "data error: {tmp}/test.csv: line 2: ",
         split_files(lambda k: "u0,3,4\n" if SPLITS[k] == "test" else one_item_per_split(k))),
    Case(DATA, "nan-rating-in-split", args("train"), 2,
         "data error: {tmp}/test.csv: line 2: rating nan outside scale [1, 5]",
         split_files(lambda k: "0,0,nan\n" if SPLITS[k] == "test" else one_item_per_split(k))),
    Case(DATA, "nan-rating-in-train", args("train"), 2,
         "data error: {tmp}/nan/train.csv: line 3: rating nan outside scale [1, 5]",
         split_files(lambda k: "0,0,4\n1,1,nan\n", folder="nan/")),
    Case(DATA, "gt-header-key-missing", args("train"), 2,
         "propensity error: {tmp}/bad-gt.csv:1: header is missing key(s) tau, alpha1, alpha2, "
         "scale, normalization, rating_min, rating_max",
         with_table("bad-gt.csv",
                    "# family=ground_truth\nitem_index,rating,propensity\n0,1,0.5\n")),
    Case(DATA, "gt-rating-scale-from-zero", args("train"), 2,
         "propensity error: {tmp}/zero-gt.csv:1: rating_min=0 rating_max=5 is not the rating "
         "scale (1, 5)",
         with_table("zero-gt.csv", edited("rating_min=1", "rating_min=0", TABLE_HEADER).replace(
             "popularity", "ground_truth") + "item_index,rating,propensity\n0,1,0.5\n")),
    Case(DATA, "missing-gt-table", args("train"), 2,
         "propensity error: {tmp}/absent.csv: No such file or directory",
         split_files(data="ground_truth_propensities = {tmp}/absent.csv\n", after=GT_METHOD)),
    *(Case(DATA, name, args("train"), 2, f"propensity error: {{tmp}}/{file}{message}",
           with_table(file, edited(old, new, POPULARITY_TABLE)))
      for name, file, old, new, message in [
          ("gt-scale-nan", "nan-gt.csv", "scale=1.0", "scale=nan",
           ":1: scale=nan is not finite and positive"),
          ("gt-normalization-not-a-name", "gt.csv", "normalization=none", "normalization=a,b",
           ":1: normalization=a,b is not none or mean-inverse"),
          ("gt-zero-at-a-train-triple", "zero-train-gt.csv", "0,0.5", "0,0.0",
           ": propensity 0.0 at train triple (user 0, item 0, rating 4)"),
          ("gt-alpha-negative", "alpha-gt.csv", "alpha1=", "alpha1=-3.0",
           ":1: alpha1=-3.0 is not empty or nonnegative"),
          ("gt-wrong-column-line", "columns-gt.csv", "item_index", "user_index",
           ":2: column line 'user_index,propensity' is not 'item_index,propensity'"),
      ]),
    *(Case(DATA, name, args("train"), 2, f"data error: {{tmp}}/{file}: {message}",
           {**base("[simulation]\n", f"[simulation]\nengagement_path = {{tmp}}/{file}\n{keys}"),
            "engagement.csv": text})
      for name, file, keys, text, message in [
          ("missing-engagement", "absent.csv", "", "", "No such file or directory"),
          ("engagement-not-numbers", "engagement.csv", "", "0.5,high\n",
           "could not convert string 'high' to float64"),
          ("engagement-wrong-shape", "engagement.csv", "", "1,1\n1,1\n",
           "engagement matrix shape (2, 2) does not match (30, 25)"),
          ("engagement-triples-two-columns", "engagement.csv", "engagement_format = triples\n",
           "0,0\n0,1\n", "triples engagement file needs (user, item, value) columns"),
      ]),
    Case(DATA, "missing-results", "summarize --results {tmp}/absent.csv", 2,
         "data error: {tmp}/absent.csv: No such file or directory"),
    *(Case(DATA, name, "summarize --results {tmp}/results.csv --out {tmp}/out/summary.csv", 2,
           "data error: {tmp}/results.csv: " + message,
           {"results.csv": edited(old, new, RESULTS_HEADER) + RESULT_ROW})
      for name, old, new, message in [
          ("results-without-metrics", "seed,mse,mae,rmse,rmse_per_user,rmse_per_item\n", "seed\n",
           "missing column(s) mse, mae, rmse, rmse_per_user, rmse_per_item"),
          ("results-without-keys", "dataset,gamma,", "", "missing column(s) dataset, gamma"),
          ("results-without-seed", "method,seed,", "method,", "missing column(s) seed"),
      ]),
    *(Case(DATA, name, f"summarize --results {{tmp}}/{file} --out {{tmp}}/out/summary.csv", 2,
           f"data error: {{tmp}}/{file}: {message}", {file: RESULTS_HEADER + rows})
      for name, file, rows, message in [
          ("results-metric-not-a-number", "bad-results.csv",
           "simulation,0.5,mf,0,abc,0.8,1.0,1.1,1.2\n", "line 2: mse 'abc' is not a number"),
          ("results-short-row", "short-results.csv", "simulation,0.5,mf,0,1.0\n",
           "line 2: 5 fields, the header has 9"),
          ("results-repeated-run", "dup-results.csv",
           RESULT_ROW + "simulation,0.5,mf,0,2.0,0.9,1.4,1.5,1.6\n",
           "lines 2 and 3 both hold dataset=simulation, gamma=0.5, method=mf, seed=0"),
      ]),
    Case(DATA, "id-outside-declared-users", args("train"), 2,
         "data error: {tmp}/ids/train.csv: line 3: user_id 2 is outside the declared "
         "num_users = 2",
         split_files(lambda k: "0,0,4\n2,1,3\n", folder="ids/", data="num_users = 2\n")),
    *(Case(DATA, f"{'tune-' if command == 'tune' else ''}empty-{split}-file", args(command), 2,
           f"data error: {{tmp}}/empty.csv: the {split} split holds no ratings",
           {**split_files(paths={split: "{tmp}/empty.csv"}),
            "empty.csv": RATINGS_HEADER})
      for command, split in [("train", "train"), ("train", "test"), ("tune", "validation")]),
    Case(DATA, "empty-validation-file", args("train"), 2,
         "data error: {tmp}/empty/validation.csv: the validation split holds no ratings",
         {**split_files(folder="empty/"),
          "empty/validation.csv": RATINGS_HEADER}),
    Case(DATA, "raw-pair-empty-validation", args("train"), 2,
         "data error: {tmp}/biased.csv: too few ratings to fill the validation split",
         raw_pair("train_fraction = 0.99\n")),
    Case(DATA, "raw-pair-empty-test", args("train"), 2,
         "data error: {tmp}/unbiased.csv: too few ratings to fill the test split",
         raw_pair("mcar_fraction = 0.99\n")),
    *(Case(DATA, name, args(command), 2,
           "data error: {tmp}/unbiased.csv: too few ratings to fill the mcar split",
           raw_pair("mcar_fraction = 0.01\n\n[experiment]\nmethods = avg, mf_ips_pos\n"))
      for name, command in [("raw-pair-empty-mcar", "train"),
                            ("tune-raw-pair-empty-mcar", "tune")]),
    Case(DATA, "simulation-empty-validation", args("train"), 2,
         "data error: simulation at run seed 0: too few ratings to fill the validation split",
         base("num_users = 30\nnum_items = 25\ngamma = 0.5\nseed = 3\nunbiased_per_user = 8",
              "num_users = 2\nnum_items = 2\ngamma = 0.5\nseed = 3\nunbiased_per_user = 1")),
    Case(DATA, "sweep-simulation-empty-mcar", args("sweep-gamma"), 2,
         "data error: simulation at run seed 0: too few ratings to fill the mcar split",
         base("unbiased_per_user = 8", "unbiased_per_user = 8\nmcar_fraction = 0.001")),

    # a table that does not cover the split files' users or items
    Case(SMALL_TABLE, "popularity", args("train"), 2,
         "propensity error: {tmp}/small-gt.csv: item_index axis has 2 entries, fewer than the 4 "
         "of the split files",
         with_table("small-gt.csv", TABLE_HEADER + "item_index,propensity\n0,0.5\n1,0.5\n")),
    *(Case(SMALL_TABLE, family, args("train"), 2,
           f"propensity error: {{tmp}}/gt.csv: {message}\n",
           with_table("gt.csv", edited("popularity", family, TABLE_HEADER) + table,
                      lines=lambda k: f"{k % 3},0,4\n{(k + 1) % 3},5,5\n"))
      for family, table, message in [
          ("ground_truth", "item_index,rating,propensity\n" + "".join(
              f"{i},{r},0.2\n" for i in range(3) for r in range(1, 6)),
           "item_index axis has 3 entries, fewer than the 6 of the split files"),
          ("mf_learned", "user_index,item_index,propensity\n" + "".join(
              f"{u},{i},0.2\n" for u in range(2) for i in range(6)),
           "user_index axis has 2 entries, fewer than the 3 of the split files"),
      ]),

    *table_cases(PIPELINE, "train", "config error: ", [
        ("steps-zero", "[method mf_ips_mul]",
         "[method mf_ips_mf]\npropensity_steps = 0\n[method mf_ips_mul]",
         "[method mf_ips_mf] propensity_steps: must be positive, got 0"),
        ("steps-negative", "[train]", "[propensity]\npropensity_steps = -2\n[train]",
         "[propensity] propensity_steps: must be positive, got -2"),
        ("dense-ids-removed", "[train]", "[data]\ndense_ids = false\n[train]",
         "[data] unknown key 'dense_ids'"),
        ("split-seed-negative", "[train]", "[data]\nsplit_seed = -1\n[train]",
         "[data] split_seed: must be nonnegative, got -1"),
        ("data-biased-alone", "[train]", "[data]\nbiased = b.csv\n[train]",
         DATA_LAYOUT_ERROR + "got biased"),
        ("data-unbiased-alone", "[train]", "[data]\nunbiased = u.csv\n[train]",
         DATA_LAYOUT_ERROR + "got unbiased"),
        ("data-splits-incomplete", "[train]", "[data]\ntrain = t.csv\nmcar = m.csv\n[train]",
         DATA_LAYOUT_ERROR + "got train, mcar"),
        ("data-layouts-mixed", "[train]",
         "[data]\nbiased = b.csv\nunbiased = u.csv\ntest = s.csv\n[train]",
         DATA_LAYOUT_ERROR + "got biased, unbiased, test"),
        ("data-no-paths", "[train]", "[data]\ndelimiter = ;\n[train]",
         DATA_LAYOUT_ERROR + "got none"),
        ("raw-data-and-simulation", "[train]", "[data]\nbiased = b.csv\nunbiased = u.csv\n[train]",
         BOTH_SOURCES_ERROR),
        ("split-data-and-simulation", "[train]",
         "[data]\ntrain = t.csv\nvalidation = v.csv\nmcar = m.csv\ntest = s.csv\n[train]",
         BOTH_SOURCES_ERROR),
        ("max-epochs-zero", "max_epochs = 12", "max_epochs = 0",
         "[train] max_epochs: must be positive, got 0"),
        ("learning-rate-negative", "learning_rate = 0.01", "learning_rate = -1",
         "[train] learning_rate: must be positive, got -1.0"),
        # NaN fails every comparison; the load-time checks still reject it
        ("learning-rate-nan", "learning_rate = 0.01", "learning_rate = nan",
         "[train] learning_rate: must be positive, got nan"),
        ("schedule-unknown", "schedule = alternating", "schedule = sideways",
         "[train] schedule: must be concurrent or alternating, got 'sideways'"),
        ("clip-floor-zero", "[train]", "[propensity]\nclip_floor = 0\n[train]",
         "[propensity] clip_floor: must be in (0, 1], got 0.0"),
        ("alpha1-negative", "alpha1 = 2", "alpha1 = -1",
         "[method mf_ips_mul] alpha1: must be nonnegative, got -1.0"),
        ("alpha1-nan", "alpha1 = 2", "alpha1 = nan",
         "[method mf_ips_mul] alpha1: must be nonnegative, got nan"),
        ("propensity-dim-zero", "[method mf_ips_mul]",
         "[method mf_ips_mf]\npropensity_dim = 0\n[method mf_ips_mul]",
         "[method mf_ips_mf] propensity_dim: must be positive, got 0"),
        ("propensity-learning-rate-zero", "[train]",
         "[propensity]\npropensity_learning_rate = 0\n[train]",
         "[propensity] propensity_learning_rate: must be positive, got 0.0"),
        ("propensity-learning-rate-negative", "[train]",
         "[propensity]\npropensity_learning_rate = -0.05\n[train]",
         "[propensity] propensity_learning_rate: must be positive, got -0.05"),
        ("unknown-method-section", "[method mf_ips_mul]",
         "[method foo]\nalpha1 = 1\n[method mf_ips_mul]",
         "[method foo] unknown method"),
        ("normalize-not-a-boolean", "[train]", "[propensity]\nnormalize = maybe\n[train]",
         "[propensity] normalize: expected a boolean, got 'maybe'"),
        ("clamp-not-a-boolean", "output_dir = out", "output_dir = out\nclamp_predictions = 2",
         "[experiment] clamp_predictions: expected a boolean, got '2'"),
        ("filter-users-not-a-boolean", "[train]", "[data]\nfilter_users = perhaps\n[train]",
         "[data] filter_users: expected a boolean, got 'perhaps'"),
        ("mcar-fraction-above-one", "[train]", "[data]\nmcar_fraction = 1.5\n[train]",
         "[data] mcar_fraction: must be in (0, 1), got 1.5"),
        ("train-fraction-zero", "[train]", "[data]\ntrain_fraction = 0\n[train]",
         "[data] train_fraction: must be in (0, 1), got 0.0"),
        ("train-fraction-nan", "[train]", "[data]\ntrain_fraction = nan\n[train]",
         "[data] train_fraction: must be in (0, 1), got nan"),
        ("num-users-negative", "[train]", "[data]\nnum_users = -1\n[train]",
         "[data] num_users: must be at least 1, got -1"),
        ("num-items-zero", "[train]", "[data]\nnum_items = 0\n[train]",
         "[data] num_items: must be at least 1, got 0"),
    ]),
    Case(PIPELINE, "train-fraction-above-one", args("train"), 2,
         "config error: [data] train_fraction: must be in (0, 1), got 1.5",
         raw_pair("train_fraction = 1.5\n")),

    # checks that need the command: they fail before any output is made
    Case(COMMAND, "tune-simulation-empty tuning grid for mf", args("tune"), 2,
         "config error: empty tuning grid for mf\n",
         base(text=BASE_CONFIG + "\n[tune]\nlearning_rate =\n")),
    *(Case(COMMAND, f"{command}-data-{command} requires a [simulation] section", args(command), 2,
           f"config error: {command} requires a [simulation] section\n",
           {"c.ini": "[experiment]\nmethods = mf\n\n[data]\ntrain = {tmp}/t.csv\n"
                     "validation = v.csv\nmcar = m.csv\ntest = s.csv\n"})
      for command in ("simulate", "sweep-gamma")),
    *(out_is_file(command, how) for command in ("simulate", "train", "tune", "sweep-gamma")
      for how in ("option", "config", "below-a-file")),
    Case(OUT_IS_FILE, "option-names-an-input-file",
         "train --config {tmp}/c.ini --out {tmp}/biased.csv", 2,
         "config error: output directory {tmp}/biased.csv: {tmp}/biased.csv is not a directory",
         RAW_PAIR),
    # the default unbiased_per_user (40) exceeds num_items (25); the spec is
    # built, and rejected, before the first cell runs
    *(Case(CELL, command, args(command), 2, "config error: simulation: ",
           base("unbiased_per_user = 8\n", ""))
      for command in ("train", "sweep-gamma")),

    # the first method to diverge in the first such cell, the seeds and gammas
    # taken as listed, at any worker count
    Case(DIVERGED, "train", args("train"), 1,
         "training error: mf, seed 0, gamma 0.5: non-finite loss at epoch 1 "
         "(train nan, validation nan)\n",
         {"c.ini": SMALL_SIMULATION + "\n[train]\nlearning_rate = 1e200\nmax_epochs = 2\n"}),
    *(Case(DIVERGED, name, args(command, extra=extra), 1,
           f"training error: {where}: non-finite loss at epoch 1 (train nan, validation nan)\n",
           base("learning_rate = 0.01", "learning_rate = 1e200"))
      for name, command, extra, where in [
          ("train-pool", "train", "--seeds 1,0 --threads 2", "mf, seed 1, gamma 0.5"),
          ("sweep-pool", "sweep-gamma", "--gammas 0.25,0.75 --threads 2", "mf, seed 0, gamma 0.25"),
      ]),

    # a spec that cannot be simulated is a config error before any output
    *table_cases(SPEC, "simulate", "config error: simulation: ", [
        ("six-ratings", "seed = 3",
         "seed = 3\ntarget_rating_distribution = 0.5, 0.2, 0.1, 0.1, 0.05, 0.05",
         "target_rating_distribution needs one entry per rating 1..5, got 6\n"),
        ("three-propensities", "seed = 3", "seed = 3\nrating_propensities = 0.1, 0.2, 0.3",
         "rating_propensities needs one entry per rating 1..5, got 3\n"),
        ("no-users", "num_users = 30", "num_users = 0", "num_users must be at least 1, got 0\n"),
        ("negative-rank", "seed = 3", "seed = 3\nengagement_rank = -1",
         "engagement_rank must be nonnegative, got -1\n"),
        *((name, "seed = 3", f"seed = 3\nengagement_noise = {v}",
           f"engagement_noise must be finite and nonnegative, got {v}\n")
          for name, v in [("negative-noise", "-1.0"), ("nan-noise", "nan"), ("inf-noise", "inf")]),
        *((name, "seed = 3", f"seed = 3\npowerlaw_eta = {v}",
           f"powerlaw_eta must be finite and above 1, got {v}\n")
          for name, v in [("inf-eta", "inf"), ("nan-eta", "nan")]),
        ("negative-rating-share", "seed = 3",
         "seed = 3\ntarget_rating_distribution = 1.2, -0.2, 0, 0, 0",
         "target_rating_distribution must be nonnegative and sum to 1, "
         "got (1.2, -0.2, 0.0, 0.0, 0.0)\n"),
        ("nan-rating-share", "seed = 3",
         "seed = 3\ntarget_rating_distribution = nan, 0.2, 0.1, 0.1, 0.1",
         "target_rating_distribution must be nonnegative and sum to 1, "
         "got (nan, 0.2, 0.1, 0.1, 0.1)\n"),
    ]),
    Case(SPEC, "sweep-gamma-above-one", args("sweep-gamma", extra="--gammas 0,1.5"), 2,
         "config error: simulation: gamma must be in [0, 1]", {"c.ini": SMALL_SIMULATION}),

    *(Case(THREADS, f"{threads}-{command}", args(command, extra=f"--threads {threads}"), 2,
           f"ipsmf {command}: error: argument --threads: must be at least 1",
           base(text=BASE_CONFIG + SINGLE_POINT_TUNE))
      for command in ("train", "tune", "sweep-gamma") for threads in ("0", "-3")),
    *(Case(OPTION, name, args(command, extra=f"{option} {value}"), 2,
           f"ipsmf {command}: error: argument {option}: {message}", base())
      for name, command, option, value, message in [
          ("threads-not-int", "train", "--threads", "x",
           "invalid literal for int() with base 10: 'x'"),
          ("seeds-not-int", "train", "--seeds", "1,x",
           "invalid literal for int() with base 10: 'x'"),
          ("seeds-repeated", "train", "--seeds", "1,2,1",
           "must be nonempty without repeats, got [1, 2, 1]"),
          ("seeds-negative", "train", "--seeds", "0,-1", "must be nonnegative, got -1"),
          ("sweep-seeds-negative", "sweep-gamma", "--seeds", "-2", "must be nonnegative, got -2"),
          ("seeds-empty", "sweep-gamma", "--seeds", ",",
           "must be nonempty without repeats, got []"),
          ("gammas-not-float", "sweep-gamma", "--gammas", "0.5,abc",
           "could not convert string to float: 'abc'"),
          ("gammas-repeated", "sweep-gamma", "--gammas", "0,0.0",
           "must be nonempty without repeats, got [0.0, 0.0]"),
          ("gammas-empty", "sweep-gamma", "--gammas", ",",
           "must be nonempty without repeats, got []"),
      ]),
    Case(OPTION, "log-level-unknown", "--log-level LOUD " + args("simulate"), 2,
         "ipsmf: error: argument --log-level: invalid choice: 'LOUD'", {"c.ini": SMALL_SIMULATION}),

    Case("test_missing_mcar_rejected_for_positivity", "empty-mcar", args("train"), 2,
         "data error: {tmp}/empty-mcar.csv: the mcar split holds no ratings\n",
         {**split_files(paths={"mcar": "{tmp}/empty-mcar.csv"},
                        after="\n[experiment]\nmethods = mf_ips_pos\n"),
          "empty-mcar.csv": RATINGS_HEADER}),
    Case("test_failed_tune_leaves_no_output_dir", "bad-header", args("tune"), 2,
         "data error: {tmp}/unbiased.csv: line 1: ", BAD_HEADER_PAIR),
    Case("test_main_reports_config_errors", "gamma-above-one", args("simulate"), 2,
         "config error: simulation: gamma must be in [0, 1], got 1.3\n",
         base("gamma = 0.5", "gamma = 1.3")),
    # without smoothing, (item, rating) cells unseen in the small mcar sample
    # give the joint estimator a zero prior
    Case("test_main_reports_propensity_errors", "alpha2-zero", args("train", extra="--seeds 0"), 2,
         "propensity error: alpha2=0 with (item, rating) cells unseen",
         base("alpha2 = 2", "alpha2 = 0")),
]


def snapshot(directory):
    """Every path below `directory`, with the bytes of each file."""
    return {p.relative_to(directory): p.read_bytes() if p.is_file() else None
            for p in sorted(Path(directory).rglob("*"))}


def check(case, directory, run_argv):
    """Run `case` in the empty `directory` through run_argv(argv, cwd), which
    returns (exit status, stderr); return a list of what went wrong."""
    directory = Path(directory)

    def fill(text):
        return text.replace("{tmp}", str(directory))

    for name, text in case.files.items():
        path = directory / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(fill(text))
    before = snapshot(directory)
    status, stderr = run_argv([fill(arg) for arg in case.argv.split()], directory)
    problems = [
        f"exit status {status}, expected {case.status}" if status != case.status else None,
        f"no {fill(case.stderr)!r} in stderr" if fill(case.stderr) not in stderr else None,
        *(f"{word} in stderr" for word in ("Traceback", "RuntimeWarning") if word in stderr),
        "the run changed its directory" if snapshot(directory) != before else None,
    ]
    problems = [p for p in problems if p]
    return problems + [f"stderr was:\n{stderr}"] if problems else []


def run_ipsmf(argv, cwd):
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"}
    done = subprocess.run(["ipsmf", *argv], cwd=cwd, env=env, capture_output=True, text=True)
    return done.returncode, done.stderr


def main():
    failed = 0
    for case in CASES:
        with tempfile.TemporaryDirectory() as directory:
            problems = check(case, directory, run_ipsmf)
        print(f"{'FAIL' if problems else 'ok'} {case.group}[{case.name}]")
        for problem in problems:
            print("    " + problem.replace("\n", "\n    "))
        failed += bool(problems)
    print(f"{len(CASES) - failed} of {len(CASES)} rows passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
