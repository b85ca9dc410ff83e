"""End-to-end acceptance suite.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion. The real-data reproduction is optional and runs only when the
dataset paths are supplied through environment variables (see its docstring).
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from ipsmf import optim
from ipsmf.cli import _read_rows, build_propensity_model, cmd_simulate, \
    cmd_summarize, cmd_sweep_gamma, cmd_train, cmd_tune, load_config
from ipsmf.data import RatingDataset
from ipsmf.metrics import evaluate
from ipsmf.model import PARAM_GROUPS, init_params, predict_many
from ipsmf.optim import (
    ITEM_PHASE_GROUPS,
    USER_PHASE_GROUPS,
    TrainConfig,
    ips_gradient,
    ips_loss,
)
from ipsmf.propensity import (
    SmoothingConfig,
    estimate_multifactorial,
    estimate_popularity,
    estimate_positivity,
    smoothed_item_given_rating,
    smoothed_joint_conditional,
)
from ipsmf.sim import SimulationSpec, simulate

from oracles import multifactorial_oracle, popularity_oracle, positivity_oracle

# shared desk-scale experiment configuration
DESK_TRAIN = dict(learning_rate=0.01, l2_weight=1e-5, batch_size=512,
                  max_epochs=300, patience=20, embedding_dim=16)
DESK_PIPELINE = {"normalize": True, "clip_floor": 1e-3, "alpha1": 1.0,
                 "alpha2": 1.0, "propensity_dim": 8,
                 "propensity_learning_rate": 0.05, "propensity_steps": 300}


def train_section(settings):
    return "[train]\nschedule = alternating\n" + "".join(
        f"{key} = {value!r}\n" for key, value in settings.items())


def desk_simulation(gamma, seed):
    spec = SimulationSpec(num_users=300, num_items=500, gamma=gamma,
                          seed=1000 + seed)
    return simulate(spec)


def fit_and_score(method, sim, seed, schedule="alternating"):
    config = TrainConfig(schedule=schedule, seed=seed, **DESK_TRAIN)
    prop = build_propensity_model(
        method, sim.bundle, DESK_PIPELINE, sim.ground_truth_propensities, seed=seed
    )
    result = optim.train(sim.bundle, prop, config)
    return evaluate(result.params, sim.bundle.test).mse, result


def test_c1_ips_estimator_unbiasedness():
    """Criterion 1: with known propensities skewed 10:1 the weighted estimator
    tracks the full-matrix loss within 2% over 2000 resamples while the naive
    mean drifts by more than 10%."""
    start = time.time()
    rng = np.random.default_rng(42)
    n_users, n_items = 50, 40
    truth = rng.integers(1, 6, size=(n_users, n_items))
    params = init_params(n_users, n_items, 4, seed=7, scale=0.4, global_offset=3.0)
    uu, ii = np.meshgrid(np.arange(n_users), np.arange(n_items), indexing="ij")
    preds = predict_many(params, uu.ravel(), ii.ravel()).reshape(truth.shape)
    delta = (preds - truth) ** 2
    full_loss = float(delta.mean())
    propensity = np.where(truth >= 4, 0.4, 0.04)  # 10:1, correlated with error

    ips_estimates, naive_estimates = [], []
    for _ in range(2000):
        mask = rng.random(truth.shape) < propensity
        users, items = np.nonzero(mask)
        observed = RatingDataset(n_users, n_items, users, items, truth[mask])
        ips_estimates.append(ips_loss(
            params, observed, propensity[mask], 0.0, normalization="population",
        ))
        naive_estimates.append(float(delta[mask].mean()))

    ips_err = abs(np.mean(ips_estimates) - full_loss) / full_loss
    naive_err = abs(np.mean(naive_estimates) - full_loss) / full_loss
    assert ips_err < 0.02
    assert naive_err > 0.10
    assert time.time() - start < 60.0


def test_c2_propensity_estimators_match_brute_force_oracle():
    """Criterion 2: all three counting estimators agree with an independent
    brute-force script on a 3-user/3-item/2-rating fixture, cell by cell."""
    scale = (1, 2)
    train = RatingDataset(3, 3,
                          np.array([0, 0, 1, 1, 2]),
                          np.array([0, 1, 0, 2, 1]),
                          np.array([1, 2, 1, 1, 2]), scale)
    mcar = RatingDataset(3, 3,
                         np.array([0, 1, 2, 2]),
                         np.array([2, 1, 0, 2]),
                         np.array([2, 1, 1, 2]), scale)
    values = [1, 2]

    pos = estimate_positivity(train, mcar)
    pos_oracle = positivity_oracle(train.triples(), mcar.triples(), 3, 3, values)
    for r in values:
        assert pos.table[r - 1] == pytest.approx(
            min(pos_oracle[r], 1.0), abs=1e-12
        )

    pop = estimate_popularity(train)
    pop_oracle = popularity_oracle(train.triples(), 3, 3)
    for i in range(3):
        assert pop.table[i] == pytest.approx(pop_oracle[i], abs=1e-12)

    mul = estimate_multifactorial(train, mcar, SmoothingConfig(2.0, 3.0))
    mul_oracle = multifactorial_oracle(
        train.triples(), mcar.triples(), 3, 3, values, 2.0, 3.0
    )
    for i in range(3):
        for r in values:
            assert mul.table[i, r - 1] == pytest.approx(
                min(mul_oracle[(i, r)], 1.0), abs=1e-12
            )


def test_c3_smoothing_normalization_random_pairs():
    """Criterion 3: for 20 random smoothing pairs the smoothed joint table sums
    to 1 over all (item, rating) cells and each smoothed item-given-rating
    distribution sums to 1, both at 1e-9."""
    sim = desk_simulation(gamma=0.5, seed=0)
    train, mcar = sim.bundle.train, sim.bundle.mcar
    rng = np.random.default_rng(5)
    for _ in range(20):
        a1, a2 = rng.uniform(0.05, 12.0, size=2)
        joint = smoothed_joint_conditional(train, a1)
        assert abs(joint.sum() - 1.0) < 1e-9
        conditional = smoothed_item_given_rating(mcar, a2)
        np.testing.assert_allclose(conditional.sum(axis=0), 1.0, atol=1e-9)


def test_c4_analytic_gradient_matches_finite_differences():
    """Criterion 4: analytic weighted-loss gradient vs central differences on a
    6x6, dim-4 instance with random propensities; max relative coordinate
    error below 1e-4."""
    rng = np.random.default_rng(2)
    n = 6
    users = np.repeat(np.arange(n), n)
    items = np.tile(np.arange(n), n)
    ratings = rng.integers(1, 6, size=n * n)
    data = RatingDataset(n, n, users, items, ratings)
    params = init_params(n, n, 4, seed=3, scale=0.3, global_offset=3.0)
    propensities = rng.uniform(0.05, 1.0, size=n * n)
    lam = 1e-3

    grads = ips_gradient(params, data, propensities, lam)
    h = 1e-6
    worst = 0.0
    for name in PARAM_GROUPS:
        arr = params.group(name)
        flat = arr.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = ips_loss(params, data, propensities, lam)
            flat[k] = orig - h
            down = ips_loss(params, data, propensities, lam)
            flat[k] = orig
            numeric = (up - down) / (2 * h)
            rel = abs(grads.group(name).reshape(-1)[k] - numeric) / max(abs(numeric), 1e-6)
            worst = max(worst, rel)
    assert worst < 1e-4


def test_c5_alternating_schedule_contract_and_stability():
    """Criterion 5: (a) user-phase epochs leave item parameters bit-identical
    and vice versa on an instrumented run; (b) across 10 training seeds on the
    canonical gamma=0.5 dataset, the validation curve variance over the first
    50 evaluations is lower for the alternating schedule; (c) paired over 10
    independent simulations, alternating test MSE is no worse than concurrent
    plus 0.01."""
    sim = desk_simulation(gamma=0.5, seed=0)
    prop = build_propensity_model(
        "mf_ips_mul", sim.bundle, DESK_PIPELINE, sim.ground_truth_propensities, seed=0
    )

    # (a) instrumented phase-freezing contract
    snapshots = []
    config = TrainConfig(schedule="alternating", seed=0,
                         **{**DESK_TRAIN, "max_epochs": 5, "patience": 5})
    optim.train(sim.bundle, prop, config,
                lambda phase, epoch, params: snapshots.append(
                    (phase, epoch, params.copy())))
    previous_item_state = None
    for phase, epoch, params in snapshots:
        if phase == "user":
            if previous_item_state is not None:
                for g in ITEM_PHASE_GROUPS:
                    np.testing.assert_array_equal(
                        params.group(g), previous_item_state.group(g)
                    )
        else:
            previous_item_state = params
    for after_user, after_item in zip(snapshots[::2], snapshots[1::2]):
        for g in USER_PHASE_GROUPS:
            np.testing.assert_array_equal(
                after_item[2].group(g), after_user[2].group(g)
            )

    # (b) curve variance across training seeds, 50 fixed evaluations
    curves = {}
    for schedule in ("alternating", "concurrent"):
        per_seed = []
        for seed in range(10):
            cfg = TrainConfig(schedule=schedule, seed=seed,
                              **{**DESK_TRAIN, "max_epochs": 50, "patience": 50})
            result = optim.train(sim.bundle, prop, cfg)
            per_seed.append([r.validation_snips_mse for r in result.history])
        curves[schedule] = np.array(per_seed)
    var_alt = curves["alternating"].var(axis=0, ddof=1).mean()
    var_conc = curves["concurrent"].var(axis=0, ddof=1).mean()
    assert var_alt < var_conc

    # (c) paired comparison over independent simulations
    alt_mse, conc_mse = [], []
    for seed in range(10):
        paired_sim = desk_simulation(gamma=0.5, seed=seed)
        alt_mse.append(fit_and_score("mf_ips_mul", paired_sim, seed,
                                     schedule="alternating")[0])
        conc_mse.append(fit_and_score("mf_ips_mul", paired_sim, seed,
                                      schedule="concurrent")[0])
    assert np.mean(alt_mse) <= np.mean(conc_mse) + 0.01


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# the c6 grid as a config: simulation seed 1000 + run seed, the desk train
# settings, and the desk pipeline (whose other keys are the defaults)
C6_CONFIG = """
[simulation]
num_users = 300
num_items = 500
seed = 1000

[experiment]
methods = mf, mf_ips_pop, mf_ips_pos, mf_ips_mul, mf_ips_gt
seeds = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9
gammas = 0.0, 0.25, 0.5, 0.75, 1.0

[propensity]
clip_floor = 0.001

""" + train_section(DESK_TRAIN)


def test_c6_bias_sweep_trend_reproduction(tmp_path):
    """Criterion 6: 300x500 simulation, gamma in {0, 0.25, 0.5, 0.75, 1}, 10
    seeds per cell. Mean test MSE must reproduce the qualitative trend: the
    rating-value correction is the worst weighted variant under pure item bias
    and vice versa, while the joint correction stays within 0.05 of the best
    single-factor method and within 0.08 of the exact-propensity skyline
    everywhere. The grid runs as one `sweep-gamma` over two workers. Runtime
    under 30 minutes."""
    start = time.time()
    gammas = (0.0, 0.25, 0.5, 0.75, 1.0)
    cfg = load_config(write_text(tmp_path / "c6.ini", C6_CONFIG))
    out = tmp_path / "c6"
    cmd_sweep_gamma(cfg, out, threads=2)
    mean_mse = {(float(row["gamma"]), row["method"]): float(row["mse_mean"])
                for row in _read_rows(out / "sweep_summary.csv")}

    def mse(gamma, method):
        return mean_mse[(gamma, method)]

    # pure item-popularity bias: the rating-value correction is the worst
    # weighted variant; the joint correction matches the item correction
    assert mse(0.0, "mf_ips_pos") > max(
        mse(0.0, "mf_ips_pop"), mse(0.0, "mf_ips_mul"), mse(0.0, "mf_ips_gt")
    )
    assert abs(mse(0.0, "mf_ips_mul") - mse(0.0, "mf_ips_pop")) <= 0.05

    # pure rating-value bias: the unweighted model and the item correction are
    # worst by a clear margin; the joint correction matches the rating
    # correction
    assert min(mse(1.0, "mf"), mse(1.0, "mf_ips_pop")) >= 0.1 + max(
        mse(1.0, "mf_ips_pos"), mse(1.0, "mf_ips_mul"), mse(1.0, "mf_ips_gt")
    )
    assert mse(1.0, "mf_ips_mul") <= mse(1.0, "mf_ips_pos") + 0.08

    # everywhere: the joint correction is never much worse than the best
    # single-factor method and tracks the exact-propensity skyline
    for gamma in gammas:
        best_single = min(mse(gamma, "mf_ips_pop"), mse(gamma, "mf_ips_pos"))
        assert mse(gamma, "mf_ips_mul") <= best_single + 0.05
        assert mse(gamma, "mf_ips_mul") <= mse(gamma, "mf_ips_gt") + 0.08

    assert time.time() - start < 1800.0


YAHOO_BIASED = os.environ.get("IPSMF_YAHOO_BIASED")
YAHOO_UNBIASED = os.environ.get("IPSMF_YAHOO_UNBIASED")
COAT_BIASED = os.environ.get("IPSMF_COAT_BIASED")
COAT_UNBIASED = os.environ.get("IPSMF_COAT_UNBIASED")


# the paper's real-data protocol: per seed s, the raw files are split with
# [data] split_seed = s and run seed s trains on that split
REAL_DATA_CONFIG = """
[data]
biased = {biased}
unbiased = {unbiased}
delimiter = {delimiter}
mcar_fraction = {mcar_fraction!r}
split_seed = {seed}

[experiment]
methods = mf_ips_pop, mf_ips_pos, mf_ips_mul
seeds = {seed}

[method mf_ips_mul]
alpha1 = 10
alpha2 = 2

"""


def real_data_mse(out_dir, biased_path, unbiased_path, mcar_fraction, delimiter,
                  seeds=range(10), max_epochs=500):
    """Test MSE per method, one per seed, from `ipsmf train` runs of the
    real-data protocol."""
    train = dict(learning_rate=1e-3, l2_weight=1e-6, batch_size=1024,
                 max_epochs=max_epochs, patience=10, embedding_dim=32)
    mse = {}
    for seed in seeds:
        text = REAL_DATA_CONFIG.format(
            biased=Path(biased_path).as_posix(), unbiased=Path(unbiased_path).as_posix(),
            delimiter={"\t": "\\t"}.get(delimiter, delimiter),
            mcar_fraction=mcar_fraction, seed=seed,
        ) + train_section(train)
        cfg = load_config(write_text(out_dir / f"seed{seed}.ini", text))
        for row in _read_rows(cmd_train(cfg, out_dir / f"seed{seed}")):
            mse.setdefault(row["method"], []).append(float(row["mse"]))
    return mse


def real_data_mean_mse(*args, **kwargs):
    return {m: float(np.mean(v)) for m, v in real_data_mse(*args, **kwargs).items()}


def test_c7_protocol_smoke(tmp_path):
    """The real-data protocol runs end to end on Coat-shaped raw files that
    `simulate` writes: a finite test MSE per method and seed. No MSE bound."""
    write_text(tmp_path / "sim.ini", """
[simulation]
num_users = 290
num_items = 300
gamma = 0.5
seed = 4
unbiased_per_user = 16
""")
    cmd_simulate(load_config(tmp_path / "sim.ini"), tmp_path / "raw")
    mse = real_data_mse(tmp_path, tmp_path / "raw" / "train.csv",
                        tmp_path / "raw" / "test.csv", mcar_fraction=0.2,
                        delimiter=",", seeds=(0, 1), max_epochs=3)
    assert sorted(mse) == ["mf_ips_mul", "mf_ips_pop", "mf_ips_pos"]
    assert all(len(v) == 2 and np.all(np.isfinite(v)) for v in mse.values())


@pytest.mark.skipif(
    not (YAHOO_BIASED and YAHOO_UNBIASED),
    reason="optional: set IPSMF_YAHOO_BIASED and IPSMF_YAHOO_UNBIASED to the "
           "user-supplied rating files",
)
def test_c7_real_data_reproduction_yahoo(tmp_path):
    """Criterion 7 (optional): user-supplied Yahoo!R3 copies; joint-correction
    MSE within 0.9629 +/- 0.05 and ordering mul < pos < pop."""
    mse = real_data_mean_mse(tmp_path, YAHOO_BIASED, YAHOO_UNBIASED,
                             mcar_fraction=0.05, delimiter="\t")
    assert abs(mse["mf_ips_mul"] - 0.9629) <= 0.05
    assert mse["mf_ips_mul"] < mse["mf_ips_pos"] < mse["mf_ips_pop"]


@pytest.mark.skipif(
    not (COAT_BIASED and COAT_UNBIASED),
    reason="optional: set IPSMF_COAT_BIASED and IPSMF_COAT_UNBIASED to the "
           "user-supplied rating files",
)
def test_c7_real_data_reproduction_coat(tmp_path):
    """Criterion 7 (optional): user-supplied Coat copies; joint-correction MSE
    within 1.1020 +/- 0.05 and ordering mul < pos < pop."""
    mse = real_data_mean_mse(tmp_path, COAT_BIASED, COAT_UNBIASED,
                             mcar_fraction=0.20, delimiter=",")
    assert abs(mse["mf_ips_mul"] - 1.1020) <= 0.05
    assert mse["mf_ips_mul"] < mse["mf_ips_pos"] < mse["mf_ips_pop"]


ACCEPTANCE_CONFIG = """
[simulation]
num_users = 25
num_items = 20
gamma = 0.5
seed = 9
unbiased_per_user = 6

[experiment]
methods = avg, mf, mf_ips_mul
seeds = 0, 1
output_dir = out

[train]
learning_rate = 0.01
l2_weight = 1e-6
batch_size = 128
max_epochs = 8
patience = 8
embedding_dim = 4
schedule = alternating

[tune]
learning_rate = 0.01
l2_weight = 1e-6
embedding_dim = 4
alpha1 = 1
alpha2 = 1
"""


def test_c8_subcommand_determinism(tmp_path):
    """Criterion 8: every subcommand rerun with identical config and seeds
    produces byte-identical output files."""
    config_path = tmp_path / "config.ini"
    config_path.write_text(ACCEPTANCE_CONFIG)
    cfg = load_config(config_path)

    def snapshot(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    runs = {}
    for name, invoke in (
        ("simulate", lambda d: cmd_simulate(cfg, d)),
        ("train", lambda d: cmd_train(cfg, d)),
        ("tune", lambda d: cmd_tune(cfg, d)),
        ("sweep", lambda d: cmd_sweep_gamma(cfg, d, gammas=[0.0, 1.0])),
    ):
        first_dir = tmp_path / f"{name}_a"
        second_dir = tmp_path / f"{name}_b"
        invoke(first_dir)
        invoke(second_dir)
        assert snapshot(first_dir) == snapshot(second_dir), name
        runs[name] = first_dir

    # summarize twice over the same results table
    out_a = tmp_path / "summary_a.csv"
    out_b = tmp_path / "summary_b.csv"
    cmd_summarize(runs["train"] / "results.csv", out_a)
    cmd_summarize(runs["train"] / "results.csv", out_b)
    assert out_a.read_bytes() == out_b.read_bytes()


def test_c8_outputs_do_not_depend_on_the_worker_count(tmp_path):
    """The determinism contract's second half: parallel output equals serial
    output, for every output file of train, tune and sweep-gamma."""
    config_path = tmp_path / "config.ini"
    config_path.write_text(ACCEPTANCE_CONFIG)
    cfg = load_config(config_path)

    def snapshot(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    for name, invoke in (
        ("train", lambda d, n: cmd_train(cfg, d, threads=n)),
        ("tune", lambda d, n: cmd_tune(cfg, d, threads=n)),
        ("sweep", lambda d, n: cmd_sweep_gamma(cfg, d, gammas=[0.0, 1.0], threads=n)),
    ):
        outputs = []
        for threads in (1, 2, 3):
            invoke(tmp_path / f"{name}_{threads}", threads)
            outputs.append(snapshot(tmp_path / f"{name}_{threads}"))
        assert outputs[0] and outputs[1] == outputs[0] and outputs[2] == outputs[0], name
