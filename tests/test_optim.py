import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from ipsmf import model, optim
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
from ipsmf.propensity import PropensityModel, score_dataset, uniform_propensities
from ipsmf.sim import SimulationSpec, simulate
from helpers import train_with_pass_snapshots
from oracles import adam_step_reference, fit_reference, masked_gradient_reference


def make_dataset(n_users, n_items, triples):
    u, i, r = (np.array(x) for x in zip(*triples))
    return RatingDataset(n_users, n_items, u, i, r)


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
        assert ips_loss(params, data, p, 0.0) == 0.0

    def test_unit_propensities_reduce_to_mse(self):
        data, params, _ = random_instance(seed=3)
        p = np.ones(len(data))
        preds = predict_many(params, data.users, data.items)
        mse = float(np.mean((preds - data.ratings) ** 2))
        assert ips_loss(params, data, p, 0.0) == pytest.approx(mse, rel=1e-12)

    def test_forced_arithmetic_single_triple(self):
        data = make_dataset(1, 1, [(0, 0, 1)])
        params = init_params(1, 1, 2, seed=0, scale=0.0, global_offset=3.0)
        # residual 2, propensity 0.5 -> 4 / 0.5 = 8
        assert ips_loss(params, data, np.array([0.5]), 0.0) == pytest.approx(8.0)

    def test_propensity_scaling_inverse(self):
        data, params, p = random_instance(seed=5)
        base = ips_loss(params, data, p, 0.0)
        assert ips_loss(params, data, p * 0.5, 0.0) == pytest.approx(
            2.0 * base, rel=1e-12
        )

    def test_population_normalization(self):
        data, params, p = random_instance(seed=7, density=0.5)
        observed = ips_loss(params, data, p, 0.0, normalization="observed")
        population = ips_loss(params, data, p, 0.0, normalization="population")
        assert population == pytest.approx(observed * len(data) / 36, rel=1e-12)

    def test_regularizer_added(self):
        data, params, p = random_instance(seed=9)
        lam = 0.01
        diff = ips_loss(params, data, p, lam) - ips_loss(params, data, p, 0.0)
        assert diff == pytest.approx(lam * params.squared_norm(), rel=1e-9)

    def test_rejects_nonpositive_propensity(self):
        data = make_dataset(1, 2, [(0, 0, 3), (0, 1, 4)])
        params = init_params(1, 2, 2, seed=0)
        with pytest.raises(ValueError):
            ips_loss(params, data, np.array([0.0, 0.5]), 0.0)


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
            up = ips_loss(params, data, propensities, lam)
            flat[k] = orig - h
            down = ips_loss(params, data, propensities, lam)
            flat[k] = orig
            grad_flat[k] = (up - down) / (2 * h)
        grads.append(grad)
    return grads


class TestPropensityRange:
    """ips_loss, ips_gradient and train reject a propensity outside (0, 1],
    NaN included: it fails both bounds' comparisons."""

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, np.nan], ids=["zero", "negative",
                                                                  "above-one", "nan"])
    def test_loss_and_gradient_reject(self, bad):
        data, params, p = random_instance(seed=4)
        p[3] = bad
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            ips_loss(params, data, p, 0.0)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            ips_gradient(params, data, p, 0.0)

    def test_two_triples_with_nan(self):
        data = make_dataset(2, 2, [(0, 0, 3), (1, 1, 4)])
        params = init_params(2, 2, 2, seed=0)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            ips_loss(params, data, np.array([np.nan, 0.5]), 0.0)

    def test_train_rejects_nan_scores(self):
        # a positivity table with NaN for rating 3, which the train split holds
        bundle = separable_bundle()
        assert 3 in bundle.train.ratings
        prop = PropensityModel("positivity", table=[0.5, 0.5, np.nan, 0.5, 0.5])
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            train(bundle, prop, TrainConfig(max_epochs=2))


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


# groups apart in the packed layout (user_emb, user_off, global_off, item_emb,
# item_off): not one slice of it, so no mask that a step accepts
SPLIT_MASK = ("user_emb", "item_off")


@pytest.mark.parametrize("mask", [USER_PHASE_GROUPS, ITEM_PHASE_GROUPS, PARAM_GROUPS,
                                  ("global_off", "item_emb"), SPLIT_MASK],
                         ids=["user", "item", "all", "middle", "split"])
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
    args = (users, items, ratings, propensities, 1e-3, mask)
    if mask == SPLIT_MASK:
        # rejected before any group of the gradient is written
        with pytest.raises(ValueError, match=r"mask \('user_emb', 'item_off'\) is not one "
                                             r"contiguous run"):
            _masked_gradient(grads, params, *args)
        assert np.isnan(grads._buffer).all()
        return
    _masked_gradient(grads, params, *args)
    expected = masked_gradient_reference(params, *args)
    for g in mask:
        assert grads.group(g).tobytes() == expected.group(g).tobytes(), g
    for g in set(PARAM_GROUPS) - set(mask):
        assert np.isnan(grads.group(g)).all(), g


def assert_adam_state(params, state, reference, m, v, steps, context):
    assert state.steps == steps, context
    for g in PARAM_GROUPS:
        assert params.group(g).tobytes() == reference.group(g).tobytes(), (context, g)
        assert state.m.group(g).tobytes() == m[g].tobytes(), (context, g)
        assert state.v.group(g).tobytes() == v[g].tobytes(), (context, g)


def test_adam_step_bit_equal_to_reference_over_mixed_masks():
    # phases, a contiguous part of one and single groups step like the
    # reference; a mask that is not one slice of the packed layout, or whose
    # groups have taken different numbers of steps, raises and changes
    # nothing (("global_off", "item_emb") leaves the rest of PARAM_GROUPS a
    # step behind)
    masks = [
        (USER_PHASE_GROUPS, None),
        (SPLIT_MASK, "not one contiguous run"),
        (ITEM_PHASE_GROUPS, None),
        (PARAM_GROUPS, None),
        (("global_off", "item_emb"), None),
        (PARAM_GROUPS, "different step counts"),
        (("user_emb", "user_off"), None),
        (("item_off",), None),
        (PARAM_GROUPS, None),
    ]
    params = init_params(7, 9, 3, seed=5, scale=0.3, global_offset=2.0)
    reference = params.copy()
    state = init_adam_state(params)
    m = {g: np.zeros_like(params.group(g)) for g in PARAM_GROUPS}
    v = {g: np.zeros_like(params.group(g)) for g in PARAM_GROUPS}
    steps = dict.fromkeys(PARAM_GROUPS, 0)
    rng = np.random.default_rng(6)
    for mask, error in masks:
        grads = params.copy()
        for g in PARAM_GROUPS:
            grads.group(g)[...] = rng.normal(size=grads.group(g).shape)
        if error:
            with pytest.raises(ValueError, match=error):
                adam_step(params, grads, state, mask, lr=0.05)
        else:
            adam_step(params, grads, state, mask, lr=0.05)
            adam_step_reference(reference, grads, m, v, steps, mask, lr=0.05)
        assert_adam_state(params, state, reference, m, v, steps, mask)
    assert steps == dict.fromkeys(PARAM_GROUPS, 4)


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


@pytest.mark.parametrize("block", [1, 7, 64])
def test_blocked_adam_step_bit_equal_to_reference(monkeypatch, block):
    # 6 users, 9 items, dim 4: the user phase is elements 0-30, the item
    # phase 31-75 and ("global_off", "item_emb") 30-66, so at 7 each ends in
    # a partial block; each step is one run of blocks from its slice's start
    monkeypatch.setattr(optim, "_ADAM_BLOCK", block)
    sizes = []
    real = optim._adam_update

    def recording(p, *rest):
        sizes.append(p.size)
        real(p, *rest)

    monkeypatch.setattr(optim, "_adam_update", recording)
    masks = [USER_PHASE_GROUPS, ITEM_PHASE_GROUPS, PARAM_GROUPS, ("global_off", "item_emb"),
             ("user_emb", "user_off"), ("item_off",), PARAM_GROUPS]
    params = init_params(6, 9, 4, seed=3, scale=0.3, global_offset=2.5)
    reference = params.copy()
    state = init_adam_state(params)
    assert all(s.shape == (min(block, params._buffer.size),) for s in state.scratch)
    m = {g: np.zeros_like(params.group(g)) for g in PARAM_GROUPS}
    v = {g: np.zeros_like(params.group(g)) for g in PARAM_GROUPS}
    steps = dict.fromkeys(PARAM_GROUPS, 0)
    rng = np.random.default_rng(4)
    for mask in masks:
        grads = params.copy()
        for g in PARAM_GROUPS:
            grads.group(g)[...] = rng.normal(size=grads.group(g).shape)
        sizes.clear()
        adam_step(params, grads, state, mask, lr=0.05)
        adam_step_reference(reference, grads, m, v, steps, mask, lr=0.05)
        size = sum(params.group(g).size for g in mask)
        assert sizes == [min(block, size - low) for low in range(0, size, block)], mask
        assert_adam_state(params, state, reference, m, v, steps, mask)


@pytest.mark.parametrize("num_users, num_items, dim, over_a_block", [
    (2, 3, 1, False), (2000, 100, 8, True)])
def test_adam_scratch_is_one_block(num_users, num_items, dim, over_a_block):
    # two parameter-shaped scratch buffers were 2 * 8 bytes per parameter;
    # a block is at most 128 KB each, however many parameters there are
    params = init_params(num_users, num_items, dim, seed=0)
    count = params._buffer.size
    assert (count > optim._ADAM_BLOCK) == over_a_block
    for scratch in init_adam_state(params).scratch:
        assert scratch.dtype == np.float64 and scratch.shape == (min(optim._ADAM_BLOCK, count),)


@pytest.mark.parametrize("field, message", [
    ("learning_rate", "learning_rate must be positive"),
    ("l2_weight", "l2_weight must be nonnegative"),
    ("init_scale", "init_scale must be nonnegative"),
])
def test_train_config_rejects_nan(field, message):
    # NaN fails every comparison, so a check written as `v <= 0` passes it
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{field: float("nan")})


@pytest.mark.parametrize("field, value, rule", [
    ("learning_rate", 0.0, "positive"), ("l2_weight", -1e-6, "nonnegative"),
    ("batch_size", 0, "positive"), ("max_epochs", -1, "positive"), ("patience", 0, "positive"),
    ("schedule", "sideways", "concurrent or alternating"), ("embedding_dim", 0, "positive"),
    ("init_scale", -0.1, "nonnegative"),
])
def test_train_config_names_the_field_and_value(field, value, rule):
    # one rule per field but the seed, the same that the [train] parsers apply
    assert set(optim.TRAIN_RULES) == {f.name for f in fields(TrainConfig)} - {"seed"}
    with pytest.raises(ValueError, match=re.escape(f"{field} must be {rule}, got {value!r}")):
        TrainConfig(**{field: value})


def test_adam_step_rejects_repeated_group_and_misshaped_gradient():
    # a mask must be distinct groups that form one slice of the packed
    # layout, with one step count, and the gradient must be shaped like the
    # parameters; a rejected step changes nothing
    params = init_params(3, 4, 2, seed=0)
    state = init_adam_state(params)
    before = params.copy()
    for mask in [("item_off", "item_off"), SPLIT_MASK, ("user_emb", "global_off"),
                 ("item_emb", "user_off"), (), ("user_emb", "bias")]:
        with pytest.raises(ValueError, match=re.escape(f"mask {mask} is not one contiguous run")):
            adam_step(params, params.copy(), state, mask, lr=0.1)
    with pytest.raises(ValueError, match="shaped like the parameters"):
        adam_step(params, init_params(3, 4, 3, seed=0), state, PARAM_GROUPS, lr=0.1)
    state.steps["user_emb"] = 1
    with pytest.raises(ValueError, match=re.escape(
            "different step counts: {'user_emb': 1, 'user_off': 0, 'global_off': 0}")):
        adam_step(params, params.copy(), state, USER_PHASE_GROUPS, lr=0.1)
    assert state.steps == {**dict.fromkeys(PARAM_GROUPS, 0), "user_emb": 1}
    for g in PARAM_GROUPS:
        np.testing.assert_array_equal(params.group(g), before.group(g))
        np.testing.assert_array_equal(state.m.group(g), 0.0)


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
        prop = uniform_propensities(bundle.train)
        result = train(bundle, prop, self.config())
        preds = predict_many(result.params, bundle.train.users, bundle.train.items)
        train_mse = float(np.mean((preds - bundle.train.ratings) ** 2))
        assert train_mse < 0.05

    def test_fixed_seed_reproduces_loss_curve(self):
        bundle = separable_bundle()
        prop = uniform_propensities(bundle.train)
        config = self.config(max_epochs=30)
        a = train(bundle, prop, config)
        b = train(bundle, prop, config)
        assert [r.train_ips_loss for r in a.history] == [r.train_ips_loss for r in b.history]
        assert [r.validation_snips_mse for r in a.history] == [
            r.validation_snips_mse for r in b.history
        ]

    def test_alternating_freezes_out_of_phase_groups(self):
        bundle = separable_bundle()
        prop = uniform_propensities(bundle.train)
        _, snapshots = train_with_pass_snapshots(
            bundle, prop, self.config(schedule="alternating", max_epochs=4)
        )
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
        prop = uniform_propensities(bundle.train)
        result = train(bundle, prop, self.config(schedule="alternating", max_epochs=7))
        assert len(result.history) == 7

    def test_best_checkpoint_contract(self):
        bundle = separable_bundle()
        prop = uniform_propensities(bundle.train)
        result = train(bundle, prop, self.config(max_epochs=60, patience=5))
        best_in_history = min(r.validation_snips_mse for r in result.history)
        assert result.best_validation == best_in_history
        # the returned parameters are the ones that scored it
        p_val = score_dataset(prop, bundle.validation)
        assert optim._snips(result.params, bundle.validation, p_val) == best_in_history
        assert result.best_epoch <= len(result.history)

    def test_divergence_raises(self):
        # a step size large enough to overflow float64 predictions must abort
        # with a diagnostic instead of returning garbage parameters
        bundle = separable_bundle()
        prop = uniform_propensities(bundle.train)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train(bundle, prop, self.config(learning_rate=1e200, max_epochs=5))

    def test_empty_train_rejected(self):
        bundle = separable_bundle()
        empty = RatingDataset(5, 5, np.array([], int), np.array([], int),
                              np.array([], int))
        broken = SplitBundle(train=empty, validation=bundle.validation,
                             mcar=bundle.mcar, test=bundle.test)
        prop = uniform_propensities(bundle.train)
        with pytest.raises(ValueError):
            train(broken, prop, self.config())

    def test_empty_validation_rejected(self):
        bundle = separable_bundle()
        empty = RatingDataset(5, 5, np.array([], int), np.array([], int),
                              np.array([], int))
        broken = SplitBundle(train=bundle.train, validation=empty,
                             mcar=bundle.mcar, test=bundle.test)
        prop = uniform_propensities(bundle.train)
        with pytest.raises(ValueError, match="validation"):
            train(broken, prop, self.config())


# the desk settings on each schedule, then the edges of a training pass's
# batch layout: the split has 1,431 triples, so a batch of 2,048 is the whole
# pass and batches of 286 leave a last batch of one triple
FIT_CASES = [pytest.param(s, {}, id=s) for s in ("concurrent", "alternating")] + [
    pytest.param(s, overrides, id=f"{s}-{name}")
    for name, overrides in (("one-batch", {"batch_size": 2048}),
                            ("last-batch-of-one", {"batch_size": 286}),
                            ("dim-1", {"embedding_dim": 1}))
    for s in ("concurrent", "alternating")
]


@pytest.mark.parametrize("schedule, overrides", FIT_CASES)
def test_fit_bit_equal_to_allocating_reference(schedule, overrides):
    # c5-shaped: gamma=0.5 simulation, ground-truth IPS weights, desk settings
    # with a patience short enough that early stopping picks the best epoch
    sim = simulate(SimulationSpec(num_users=120, num_items=150, gamma=0.5, seed=1005))
    assert len(sim.bundle.train) == 1431
    settings = dict(learning_rate=0.01, l2_weight=1e-5, batch_size=256,
                    max_epochs=12, patience=3, embedding_dim=16,
                    schedule=schedule, seed=3)
    config = TrainConfig(**{**settings, **overrides})
    result = train(sim.bundle, sim.ground_truth_propensities, config)
    best, history = fit_reference(sim.bundle, sim.ground_truth_propensities, config)
    assert [(r.epoch, r.train_ips_loss, r.validation_snips_mse, r.test_mse)
            for r in result.history] == history
    for g in PARAM_GROUPS:
        np.testing.assert_array_equal(result.params.group(g), best.group(g))


@pytest.mark.parametrize("pass_chunk", [100, 600])
@pytest.mark.parametrize("schedule, overrides", FIT_CASES)
def test_fit_bit_equal_when_a_pass_spans_chunks(monkeypatch, schedule, overrides, pass_chunk):
    # a chunk is whole batches, at least one: at 100 each batch is a chunk;
    # at 600 two batches of 256 (or 286) are, and the last chunk ends in the
    # pass's short last batch
    monkeypatch.setattr(optim, "_PASS_CHUNK", pass_chunk)
    test_fit_bit_equal_to_allocating_reference(schedule, overrides)


def test_fit_peak_memory_is_the_arrays_it_needs():
    # what a fit must hold: five parameter-sized arrays (parameters,
    # gradient, both moments, best parameters), the embedding tables' flat
    # indices, the train and validation propensities, the pass's int64
    # permutation or one split's predictions, one chunk of the pass (int32
    # ids staged for their intp copies, uint8 ratings, float64 propensities:
    # 33 bytes an entry), predict_many's gathered rows and the Adam block
    # scratch. Measured at 1.01 times that; with four pass-length columns of
    # 8 bytes per train triple it was 1.29
    num_users, num_items, dim = 6000, 1000, 16
    sim = simulate(SimulationSpec(num_users=num_users, num_items=num_items, gamma=0.5, seed=0))
    bundle = sim.bundle
    n_train, n_val = len(bundle.train), len(bundle.validation)
    largest = max(len(getattr(bundle, s)) for s in ("train", "validation", "test"))
    config = TrainConfig(max_epochs=2, embedding_dim=dim, schedule="alternating")
    chunk = min(n_train, config.batch_size * (optim._PASS_CHUNK // config.batch_size))
    assert n_train > 3 * chunk
    tracemalloc.start()
    try:
        train(bundle, sim.ground_truth_propensities, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_params = (num_users + num_items) * (dim + 1) + 1
    needed = 8 * (
        5 * n_params
        + (num_users + num_items) * dim
        + n_train + n_val
        + max(n_train, largest)
        + 2 * model._PREDICT_BLOCK * dim
        + 2 * min(optim._ADAM_BLOCK, n_params)
    ) + 33 * chunk
    assert peak < 1.1 * needed, peak / needed


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
