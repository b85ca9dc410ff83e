import numpy as np
import pytest

from ipsmf import optim
from ipsmf.data import RatingDataset, SplitBundle
from ipsmf.model import PARAM_GROUPS, _PACKED_ORDER, init_params, predict_many
from ipsmf.optim import (
    ITEM_PHASE_GROUPS,
    TrainConfig,
    TrainingDivergedError,
    USER_PHASE_GROUPS,
    _empty_like,
    _masked_gradient,
    adam_step,
    init_adam_state,
    ips_gradient,
    ips_loss,
    train,
)
from ipsmf.propensity import score_dataset, uniform_propensities
from ipsmf.sim import SimulationSpec, simulate
from oracles import adam_step_reference, fit_reference, masked_gradient_reference


def make_dataset(n_users, n_items, triples, scale=(1, 5)):
    u, i, r = (np.array(x) for x in zip(*triples))
    return RatingDataset(n_users, n_items, u, i, r, scale)


def random_instance(n_users=6, n_items=6, dim=4, seed=0, density=1.0):
    rng = np.random.default_rng(seed)
    triples = [(u, i, int(rng.integers(1, 6)))
               for u in range(n_users) for i in range(n_items)
               if rng.random() <= density]
    data = make_dataset(n_users, n_items, triples)
    params = init_params(n_users, n_items, dim, seed=seed + 1, scale=0.3,
                         global_offset=3.0)
    propensities = rng.uniform(0.1, 1.0, size=len(data))
    return data, params, propensities


class TestIpsLoss:
    def test_perfect_predictions_zero_loss(self):
        data = make_dataset(2, 2, [(0, 0, 3), (1, 1, 3)])
        params = init_params(2, 2, 2, seed=0, scale=0.0, global_offset=3.0)
        p = np.array([0.3, 0.9])
        assert ips_loss(params, data, p, 0.0, 2, 2) == 0.0

    def test_unit_propensities_reduce_to_mse(self):
        data, params, _ = random_instance(seed=3)
        p = np.ones(len(data))
        preds = predict_many(params, data.users, data.items)
        mse = float(np.mean((preds - data.ratings) ** 2))
        assert ips_loss(params, data, p, 0.0, 6, 6) == pytest.approx(mse, rel=1e-12)

    def test_forced_arithmetic_single_triple(self):
        data = make_dataset(1, 1, [(0, 0, 1)])
        params = init_params(1, 1, 2, seed=0, scale=0.0, global_offset=3.0)
        # residual 2, propensity 0.5 -> 4 / 0.5 = 8
        assert ips_loss(params, data, np.array([0.5]), 0.0, 1, 1) == pytest.approx(8.0)

    def test_propensity_scaling_inverse(self):
        data, params, p = random_instance(seed=5)
        base = ips_loss(params, data, p, 0.0, 6, 6)
        assert ips_loss(params, data, p * 0.5, 0.0, 6, 6) == pytest.approx(
            2.0 * base, rel=1e-12
        )

    def test_population_normalization(self):
        data, params, p = random_instance(seed=7, density=0.5)
        observed = ips_loss(params, data, p, 0.0, 6, 6, normalization="observed")
        population = ips_loss(params, data, p, 0.0, 6, 6, normalization="population")
        assert population == pytest.approx(observed * len(data) / 36, rel=1e-12)

    def test_regularizer_added(self):
        data, params, p = random_instance(seed=9)
        lam = 0.01
        diff = ips_loss(params, data, p, lam, 6, 6) - ips_loss(params, data, p, 0.0, 6, 6)
        assert diff == pytest.approx(lam * params.squared_norm(), rel=1e-9)

    def test_rejects_nonpositive_propensity(self):
        data = make_dataset(1, 2, [(0, 0, 3), (0, 1, 4)])
        params = init_params(1, 2, 2, seed=0)
        with pytest.raises(ValueError):
            ips_loss(params, data, np.array([0.0, 0.5]), 0.0, 1, 2)


def flatten_params(params):
    return np.concatenate([params.group(g).ravel() for g in PARAM_GROUPS])


def finite_difference(params, data, propensities, lam, h=1e-6):
    """Central-difference gradient of the observed-normalization weighted loss."""
    grads = []
    for name in PARAM_GROUPS:
        arr = params.group(name)
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        grad_flat = grad.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = ips_loss(params, data, propensities, lam, data.num_users, data.num_items)
            flat[k] = orig - h
            down = ips_loss(params, data, propensities, lam, data.num_users, data.num_items)
            flat[k] = orig
            grad_flat[k] = (up - down) / (2 * h)
        grads.append(grad)
    return grads


class TestIpsGradient:
    def test_zero_residual_zero_gradient(self):
        data = make_dataset(2, 2, [(0, 0, 3), (1, 1, 3)])
        params = init_params(2, 2, 2, seed=0, scale=0.0, global_offset=3.0)
        grads = ips_gradient(params, data, np.array([0.5, 0.25]), 0.0)
        for g in PARAM_GROUPS:
            assert not grads.group(g).any()

    def test_matches_central_finite_differences(self):
        data, params, p = random_instance(n_users=6, n_items=6, dim=4, seed=1)
        lam = 1e-3
        grads = ips_gradient(params, data, p, lam)
        fd = finite_difference(params, data, p, lam)
        for g_analytic, g_numeric in zip(
            (grads.group(g) for g in PARAM_GROUPS), fd
        ):
            rel = np.abs(g_analytic - g_numeric) / np.maximum(np.abs(g_numeric), 1e-6)
            assert rel.max() < 1e-4

    def test_pure_regularizer_case(self):
        data = make_dataset(2, 2, [(0, 0, 3), (1, 1, 3)])
        params = init_params(2, 2, 2, seed=4, scale=0.2, global_offset=3.0)
        # force zero residuals by zeroing embeddings but keep offsets nonzero
        params.user_emb[:] = 0.0
        params.item_emb[:] = 0.0
        lam = 0.05
        grads = ips_gradient(params, data, np.array([1.0, 1.0]), lam)
        for g in PARAM_GROUPS:
            np.testing.assert_allclose(
                grads.group(g), 2.0 * lam * params.group(g), atol=1e-15
            )

    def test_untouched_rows_zero_without_regularizer(self):
        data = make_dataset(3, 3, [(0, 0, 5)])
        params = init_params(3, 3, 2, seed=2, scale=0.3)
        grads = ips_gradient(params, data, np.array([0.5]), 0.0)
        assert not grads.user_emb[1:].any()
        assert not grads.item_emb[1:].any()
        assert not grads.user_off[1:].any()


class TestAdam:
    def test_zero_gradient_leaves_params_and_counts_step(self):
        params = init_params(3, 3, 2, seed=0, scale=0.1)
        before = params.copy()
        state = init_adam_state(params)
        zeros = params.copy()
        for g in PARAM_GROUPS:
            zeros.group(g)[...] = 0.0
        adam_step(params, zeros, state, PARAM_GROUPS, lr=0.1)
        for g in PARAM_GROUPS:
            np.testing.assert_array_equal(params.group(g), before.group(g))
            assert state.steps[g] == 1

    def test_constant_gradient_step_size(self):
        # with zero-initialized moments and a constant gradient g, bias
        # correction makes every update exactly lr * g / (|g| + eps)
        params = init_params(2, 2, 2, seed=1, scale=0.1)
        state = init_adam_state(params)
        grads = params.copy()
        for g in PARAM_GROUPS:
            grads.group(g)[...] = 0.37
        lr = 0.05
        for step in range(1, 40):
            before = params.user_emb.copy()
            adam_step(params, grads, state, PARAM_GROUPS, lr)
            delta = params.user_emb - before
            expected = -lr * 0.37 / (0.37 + state.eps)
            np.testing.assert_allclose(delta, expected, rtol=1e-10)

    def test_mask_keeps_other_groups_bit_identical(self):
        params = init_params(4, 4, 3, seed=2, scale=0.2)
        state = init_adam_state(params)
        grads = params.copy()
        for g in PARAM_GROUPS:
            grads.group(g)[...] = 1.0
        before = params.copy()
        adam_step(params, grads, state, ITEM_PHASE_GROUPS, lr=0.1)
        for g in USER_PHASE_GROUPS:
            np.testing.assert_array_equal(params.group(g), before.group(g))
            assert state.steps[g] == 0
        for g in ITEM_PHASE_GROUPS:
            assert not np.array_equal(params.group(g), before.group(g))
            assert state.steps[g] == 1


def duplicate_heavy_batch(kind, num_users, num_items, n=300, seed=0):
    """(users, items) with many repeated rows: one user across the whole
    batch, Zipf-skewed items, or a single row."""
    rng = np.random.default_rng(seed)
    if kind == "one-user":
        return np.full(n, 3), rng.integers(0, num_items, n)
    if kind == "zipf-items":
        return rng.integers(0, num_users, n), np.minimum(rng.zipf(1.3, n) - 1, num_items - 1)
    return np.array([num_users - 1]), np.array([num_items - 2])


@pytest.mark.parametrize("mask", [USER_PHASE_GROUPS, ITEM_PHASE_GROUPS, PARAM_GROUPS],
                         ids=["user", "item", "all"])
@pytest.mark.parametrize("kind", ["one-user", "zipf-items", "single-row"])
def test_masked_gradient_bit_equal_to_reference(kind, mask):
    num_users, num_items = 20, 40
    users, items = duplicate_heavy_batch(kind, num_users, num_items)
    rng = np.random.default_rng(1)
    ratings = rng.integers(1, 6, len(users)).astype(float)
    propensities = rng.uniform(0.05, 1.0, len(users))
    params = init_params(num_users, num_items, 8, seed=2, scale=0.3, global_offset=3.0)
    grads = _empty_like(params)
    for g in PARAM_GROUPS:
        grads.group(g)[...] = np.nan
    _masked_gradient(grads, params, users, items, ratings, propensities, 1e-3, mask)
    expected = masked_gradient_reference(params, users, items, ratings, propensities,
                                         1e-3, mask)
    for g in mask:
        assert grads.group(g).tobytes() == expected.group(g).tobytes(), g


def test_adam_step_bit_equal_to_reference_over_mixed_masks():
    # ("user_emb", "item_off") is not adjacent in the packed layout, and the
    # second mask leaves user_emb one step ahead of user_off and global_off
    masks = [("user_emb",), USER_PHASE_GROUPS, ("user_emb", "item_off"), PARAM_GROUPS,
             ("global_off", "user_emb"), ITEM_PHASE_GROUPS, PARAM_GROUPS]
    params = init_params(7, 9, 3, seed=5, scale=0.3, global_offset=2.0)
    reference = params.copy()
    state = init_adam_state(params)
    m = {g: np.zeros_like(params.group(g)) for g in PARAM_GROUPS}
    v = {g: np.zeros_like(params.group(g)) for g in PARAM_GROUPS}
    steps = dict.fromkeys(PARAM_GROUPS, 0)
    rng = np.random.default_rng(6)
    uneven = 0
    for mask in masks:
        uneven += len({steps[g] for g in mask}) > 1
        grads = params.copy()
        for g in PARAM_GROUPS:
            grads.group(g)[...] = rng.normal(size=grads.group(g).shape)
        adam_step(params, grads, state, mask, lr=0.05)
        adam_step_reference(reference, grads, m, v, steps, mask, lr=0.05)
        assert state.steps == steps
        for g in PARAM_GROUPS:
            assert params.group(g).tobytes() == reference.group(g).tobytes(), (mask, g)
            assert state.m.group(g).tobytes() == m[g].tobytes(), (mask, g)
            assert state.v.group(g).tobytes() == v[g].tobytes(), (mask, g)
    assert uneven >= 3


@pytest.mark.parametrize("mask", [USER_PHASE_GROUPS, ITEM_PHASE_GROUPS, PARAM_GROUPS],
                         ids=["user", "item", "all"])
def test_adam_step_updates_each_phase_in_one_call(monkeypatch, mask):
    sizes = []
    real = optim._adam_update

    def counting(p, *rest):
        sizes.append(p.size)
        real(p, *rest)

    monkeypatch.setattr(optim, "_adam_update", counting)
    params = init_params(4, 5, 3, seed=0)
    adam_step(params, params.copy(), init_adam_state(params), mask, lr=0.1)
    assert sizes == [sum(params.group(g).size for g in mask)]


def test_adam_step_rejects_repeated_group_and_misshaped_gradient():
    params = init_params(3, 4, 2, seed=0)
    state = init_adam_state(params)
    before = params.copy()
    with pytest.raises(ValueError, match="twice"):
        adam_step(params, params.copy(), state, ("item_off", "item_off"), lr=0.1)
    with pytest.raises(ValueError, match="shaped like the parameters"):
        adam_step(params, init_params(3, 4, 3, seed=0), state, PARAM_GROUPS, lr=0.1)
    assert state.steps == dict.fromkeys(PARAM_GROUPS, 0)
    for g in PARAM_GROUPS:
        np.testing.assert_array_equal(params.group(g), before.group(g))


def test_packed_layout_is_phase_order():
    assert _PACKED_ORDER == USER_PHASE_GROUPS + ITEM_PHASE_GROUPS


def test_phase_masks_partition_parameters():
    assert set(USER_PHASE_GROUPS) | set(ITEM_PHASE_GROUPS) == set(PARAM_GROUPS)
    assert not set(USER_PHASE_GROUPS) & set(ITEM_PHASE_GROUPS)
    assert "global_off" in USER_PHASE_GROUPS


def separable_bundle():
    """Ratings determined by user and item offsets alone, split 20/5.

    Validation holds out one cell per user on rotating items so every user and
    item still appears in training.
    """
    triples = [(u, i, (u % 2) + 2 * (i % 2) + 1) for u in range(5) for i in range(5)]
    full = make_dataset(5, 5, triples)
    val_idx = [u * 5 + (u + 2) % 5 for u in range(5)]
    train_idx = [k for k in range(25) if k not in val_idx]
    train = full.subset(np.array(train_idx))
    validation = full.subset(np.array(val_idx))
    empty = RatingDataset(5, 5, np.array([], int), np.array([], int), np.array([], int))
    return SplitBundle(train=train, validation=validation, mcar=empty,
                       test=validation)


class TestTraining:
    def config(self, **kw):
        base = dict(learning_rate=0.02, l2_weight=1e-8, batch_size=32,
                    max_epochs=200, patience=200, embedding_dim=4, seed=0)
        base.update(kw)
        return TrainConfig(**base)

    def test_overfits_separable_fixture(self):
        bundle = separable_bundle()
        prop = uniform_propensities(bundle.train, 5, 5)
        result = train(bundle, prop, self.config())
        preds = predict_many(result.params, bundle.train.users, bundle.train.items)
        train_mse = float(np.mean((preds - bundle.train.ratings) ** 2))
        assert train_mse < 0.05

    def test_fixed_seed_reproduces_loss_curve(self):
        bundle = separable_bundle()
        prop = uniform_propensities(bundle.train, 5, 5)
        config = self.config(max_epochs=30)
        a = train(bundle, prop, config)
        b = train(bundle, prop, config)
        assert [r.train_ips_loss for r in a.history] == [r.train_ips_loss for r in b.history]
        assert [r.validation_snips_mse for r in a.history] == [
            r.validation_snips_mse for r in b.history
        ]

    def test_alternating_freezes_out_of_phase_groups(self):
        bundle = separable_bundle()
        prop = uniform_propensities(bundle.train, 5, 5)
        snapshots = []

        def callback(phase, epoch, params):
            snapshots.append((phase, epoch, params.copy()))

        train(bundle, prop, self.config(schedule="alternating", max_epochs=4), callback)
        # within an epoch: the user phase must not move item parameters
        by_epoch = {}
        for phase, epoch, params in snapshots:
            by_epoch.setdefault(epoch, {})[phase] = params
        prev_item = None
        prev_user = None
        for epoch in sorted(by_epoch):
            after_user = by_epoch[epoch]["user"]
            after_item = by_epoch[epoch]["item"]
            if prev_item is not None:
                for g in ITEM_PHASE_GROUPS:
                    np.testing.assert_array_equal(
                        after_user.group(g), prev_item.group(g)
                    )
            for g in USER_PHASE_GROUPS:
                np.testing.assert_array_equal(
                    after_item.group(g), after_user.group(g)
                )
            prev_item = after_item

    def test_alternating_history_counts_phase_pairs(self):
        bundle = separable_bundle()
        prop = uniform_propensities(bundle.train, 5, 5)
        result = train(bundle, prop, self.config(schedule="alternating", max_epochs=7))
        assert len(result.history) == 7

    def test_best_checkpoint_contract(self):
        bundle = separable_bundle()
        prop = uniform_propensities(bundle.train, 5, 5)
        result = train(bundle, prop, self.config(max_epochs=60, patience=5))
        best_in_history = min(r.validation_snips_mse for r in result.history)
        assert result.best_validation == best_in_history
        # the returned parameters are the ones that scored it
        p_val = score_dataset(prop, bundle.validation)
        assert optim._snips(result.params, bundle.validation, p_val) == best_in_history
        assert result.best_epoch <= len(result.history)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        # a step size large enough to overflow float64 predictions must abort
        # with a diagnostic instead of returning garbage parameters
        bundle = separable_bundle()
        prop = uniform_propensities(bundle.train, 5, 5)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train(bundle, prop, self.config(learning_rate=1e200, max_epochs=5))

    def test_empty_train_rejected(self):
        bundle = separable_bundle()
        empty = RatingDataset(5, 5, np.array([], int), np.array([], int),
                              np.array([], int))
        broken = SplitBundle(train=empty, validation=bundle.validation,
                             mcar=bundle.mcar, test=bundle.test)
        prop = uniform_propensities(bundle.train, 5, 5)
        with pytest.raises(ValueError):
            train(broken, prop, self.config())

    def test_empty_validation_rejected(self):
        bundle = separable_bundle()
        empty = RatingDataset(5, 5, np.array([], int), np.array([], int),
                              np.array([], int))
        broken = SplitBundle(train=bundle.train, validation=empty,
                             mcar=bundle.mcar, test=bundle.test)
        prop = uniform_propensities(bundle.train, 5, 5)
        with pytest.raises(ValueError, match="validation"):
            train(broken, prop, self.config())


@pytest.mark.parametrize("schedule", ["concurrent", "alternating"])
def test_fit_bit_equal_to_allocating_reference(schedule):
    # c5-shaped: gamma=0.5 simulation, ground-truth IPS weights, desk settings
    # with a patience short enough that early stopping picks the best epoch
    sim = simulate(SimulationSpec(num_users=120, num_items=150, gamma=0.5, seed=1005))
    config = TrainConfig(learning_rate=0.01, l2_weight=1e-5, batch_size=256,
                         max_epochs=12, patience=3, embedding_dim=16,
                         schedule=schedule, seed=3)
    result = train(sim.bundle, sim.ground_truth_propensities, config)
    best, history = fit_reference(sim.bundle, sim.ground_truth_propensities, config)
    assert [(r.epoch, r.train_ips_loss, r.validation_snips_mse, r.test_mse)
            for r in result.history] == history
    for g in PARAM_GROUPS:
        np.testing.assert_array_equal(result.params.group(g), best.group(g))


class TestEvaluateValidation:
    """The self-normalized validation score that training computes each epoch
    and returns for its best one (``optim._snips``)."""

    def test_uniform_propensities_give_plain_mse(self):
        data, params, _ = random_instance(seed=13)
        preds = predict_many(params, data.users, data.items)
        mse = float(np.mean((preds - data.ratings) ** 2))
        p = np.full(len(data), 0.4)
        assert optim._snips(params, data, p) == pytest.approx(mse, rel=1e-12)

    def test_perfect_predictions_zero(self):
        data = make_dataset(2, 2, [(0, 0, 3), (1, 1, 3)])
        params = init_params(2, 2, 2, seed=0, scale=0.0, global_offset=3.0)
        assert optim._snips(params, data, np.full(2, 0.7)) == 0.0

    def test_two_triple_arithmetic(self):
        # residual^2 of (1, 4) with propensities (0.5, 1.0) -> (2 + 4) / (2 + 1)
        data = make_dataset(2, 2, [(0, 0, 2), (1, 1, 5)])
        params = init_params(2, 2, 2, seed=0, scale=0.0, global_offset=3.0)
        assert optim._snips(params, data, np.array([0.5, 1.0])) == pytest.approx(2.0)


class TestUnbiasedness:
    def test_ips_estimate_tracks_full_matrix_loss(self):
        # fixed predictor, known propensities skewed 10:1 and correlated with
        # the error size; the weighted estimate stays near the full-matrix MSE
        # while the naive mean drifts far off
        rng = np.random.default_rng(21)
        n_users, n_items = 12, 10
        truth = rng.integers(1, 6, size=(n_users, n_items))
        params = init_params(n_users, n_items, 3, seed=1, scale=0.3,
                             global_offset=3.0)
        uu, ii = np.meshgrid(np.arange(n_users), np.arange(n_items), indexing="ij")
        preds = predict_many(params, uu.ravel(), ii.ravel()).reshape(truth.shape)
        delta = (preds - truth) ** 2
        full_loss = float(delta.mean())

        p = np.where(truth >= 4, 0.8, 0.08)
        ips_estimates, naive_estimates = [], []
        for _ in range(2000):
            mask = rng.random(truth.shape) < p
            d = delta[mask]
            ips_estimates.append(np.sum(d / p[mask]) / (n_users * n_items))
            naive_estimates.append(d.mean())
        ips_err = abs(np.mean(ips_estimates) - full_loss) / full_loss
        naive_err = abs(np.mean(naive_estimates) - full_loss) / full_loss
        assert ips_err < 0.02
        assert naive_err > 5 * ips_err
