import logging
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ipsmf import optim, propensity
from ipsmf.blas import one_blas_thread
from ipsmf.data import ID_LIMIT, NUM_RATINGS, RATING_SCALE, RatingDataset
from ipsmf.sim import (
    DEFAULT_RATING_PROPENSITIES,
    SimulationSpec,
    build_item_propensities,
    convert_to_ratings,
    generate_engagement,
    sample_observations,
    simulate,
)
from ipsmf.propensity import (
    AXES,
    FAMILIES,
    PIPELINE_RULES,
    PipelineConfig,
    PropensityError,
    PropensityModel,
    clip,
    estimate_mf_propensity,
    estimate_multifactorial,
    estimate_popularity,
    estimate_positivity,
    load_propensity,
    normalize,
    prepare,
    save_propensity,
    score_dataset,
    score_many,
    smoothed_item_given_rating,
    smoothed_joint_conditional,
    uniform_propensities,
)

from oracles import (
    estimate_mf_propensity_reference,
    estimate_multifactorial_table_reference,
    mf_learned_scores_reference,
    multifactorial_oracle,
    popularity_oracle,
    positivity_oracle,
    save_propensity_reference,
    score_many_reference,
    triples,
)
from helpers import score_one


def make_dataset(n_users, n_items, triples):
    u, i, r = (np.array(x) for x in zip(*triples))
    return RatingDataset(n_users, n_items, u, i, r)


class TestPositivity:
    def test_hand_counted_example(self):
        train = make_dataset(2, 2, [(0, 0, 5), (0, 1, 1), (1, 0, 5)])
        mcar = make_dataset(2, 2, [(0, 0, 5), (1, 1, 1)])
        model = estimate_positivity(train, mcar)
        # p(r) = |M| * count_D(r) / (|U| |I| * count_M(r))
        assert model.table[4] == pytest.approx(1.0, abs=1e-12)   # (2*2)/(4*1)
        assert model.table[0] == pytest.approx(0.5, abs=1e-12)   # (2*1)/(4*1)

    def test_no_bias_gives_all_ones(self):
        # full 2x2 observation, identical rating distributions in train and
        # mcar: each observed rating scores (2 * 2) / (4 * 1) = 1; ratings 3-5
        # are never observed, so their conditional is 0 whatever the prior
        train = make_dataset(2, 2, [(0, 0, 1), (0, 1, 2), (1, 0, 1), (1, 1, 2)])
        mcar = make_dataset(2, 2, [(0, 0, 1), (0, 1, 2)])
        model = estimate_positivity(train, mcar)
        np.testing.assert_allclose(model.table[:2], 1.0, atol=1e-12)
        np.testing.assert_array_equal(model.table[2:], 0.0)

    def test_all_fives_with_uniform_mcar(self, caplog):
        train = make_dataset(2, 3, [(0, 0, 5), (0, 1, 5), (1, 2, 5)])
        mcar = make_dataset(2, 3, [(0, 0, 1), (0, 1, 2), (0, 2, 3), (1, 0, 4), (1, 1, 5)])
        model = estimate_positivity(train, mcar)
        # raw value for rating 5 is (5*3)/(6*1) = 2.5, capped at 1
        assert model.table[4] == 1.0
        assert model.table[4] == model.table.max()
        np.testing.assert_array_equal(model.table[:4], 0.0)
        # unseen-in-train ratings rely on the clip floor
        clipped = clip(model, 0.01)
        assert score_one(clipped, 0, 0, 1) == 0.01

    def test_missing_mcar_rating_falls_back(self, caplog):
        train = make_dataset(2, 2, [(0, 0, 5), (0, 1, 1), (1, 0, 3)])
        mcar = make_dataset(2, 2, [(0, 0, 5), (1, 1, 1)])  # rating 3 unseen
        with caplog.at_level(logging.WARNING):
            model = estimate_positivity(train, mcar)
        assert "unseen" in caplog.text
        # fallback prior equals the smallest nonzero mcar prior (1/2)
        assert model.table[2] == pytest.approx((2 * 1) / (4 * 1), abs=1e-12)

    def test_empty_mcar_rejected(self):
        train = make_dataset(2, 2, [(0, 0, 5), (0, 1, 1)])
        empty = RatingDataset(2, 2, np.array([], int), np.array([], int), np.array([], int))
        with pytest.raises(PropensityError):
            estimate_positivity(train, empty)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        train = make_dataset(4, 5, [(u, i, int(rng.integers(1, 6)))
                                    for u in range(4) for i in range(5)])
        mcar = make_dataset(4, 5, [(u, i, int(rng.integers(1, 6)))
                                   for u in range(4) for i in range(3)])
        model = estimate_positivity(train, mcar)
        oracle = positivity_oracle(triples(train), triples(mcar), 4, 5, range(1, 6))
        for r in range(1, 6):
            expected = min(oracle[r], 1.0)
            assert model.table[r - 1] == pytest.approx(expected, abs=1e-12)


class TestPopularity:
    def test_raw_frequencies_and_rescale(self):
        train = make_dataset(2, 2, [(0, 0, 3), (1, 0, 4), (0, 1, 5)])
        model = estimate_popularity(train)
        raw = model.table * 2 / len(train)  # undo the |D|/num_users rescale
        np.testing.assert_allclose(raw, [2 / 3, 1 / 3], atol=1e-12)
        np.testing.assert_allclose(model.table, [1.0, 0.5], atol=1e-12)

    def test_equal_counts_give_uniform(self):
        train = make_dataset(3, 3, [(u, i, 3) for u in range(3) for i in range(3)])
        model = estimate_popularity(train)
        np.testing.assert_allclose(model.table, model.table[0])

    def test_unobserved_item_gets_clip_floor(self):
        train = make_dataset(2, 3, [(0, 0, 3), (1, 1, 4)])
        model = clip(estimate_popularity(train), 0.05)
        assert score_one(model, 0, 2, 3) == 0.05

    def test_item_relabeling_equivariance(self):
        rng = np.random.default_rng(3)
        triples = [(u, i, int(rng.integers(1, 6)))
                   for u in range(5) for i in range(4) if rng.random() < 0.6]
        train = make_dataset(5, 4, triples)
        perm = np.array([2, 0, 3, 1])  # new index of each old item
        relabeled = make_dataset(5, 4, [(u, int(perm[i]), r) for u, i, r in triples])
        base = estimate_popularity(train).table
        moved = estimate_popularity(relabeled).table
        np.testing.assert_allclose(moved[perm], base, atol=1e-15)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        rows = [(u, i, int(rng.integers(1, 6)))
                for u in range(4) for i in range(6) if rng.random() < 0.7]
        train = make_dataset(4, 6, rows)
        model = estimate_popularity(train)
        oracle = popularity_oracle(triples(train), 4, 6)
        for i in range(6):
            assert model.table[i] == pytest.approx(oracle[i], abs=1e-12)


class TestMultifactorial:
    def small_fixture(self):
        train = make_dataset(2, 2, [(0, 0, 1), (0, 1, 2), (1, 0, 1)])
        mcar = make_dataset(2, 2, [(0, 0, 1), (1, 1, 2)])
        return train, mcar

    def test_hand_counted_cells(self):
        # exact fractions, computed independently from the three formulas:
        # joint conditional (count_D + 1) / (3 + 1 * 2 * 5), P(o=1) = 3/4,
        # rating prior 1/2 for r = 1, 2 and the fallback 1/2 for the unseen
        # r = 3..5, item-given-rating (count_M + 1) / (count_M(r) + 2), which
        # is 2/3 or 1/3 for r = 1, 2 and 1/2 for r = 3..5
        train, mcar = self.small_fixture()
        model = estimate_multifactorial(train, mcar, 1, 1)
        np.testing.assert_allclose(
            model.table,
            [[27 / 52, 9 / 26, 3 / 13, 3 / 13, 3 / 13],
             [9 / 26, 9 / 26, 3 / 13, 3 / 13, 3 / 13]],
            atol=1e-12,
        )

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        train = make_dataset(5, 3, [(u, i, int(rng.integers(1, 6)))
                                    for u in range(5) for i in range(3)])
        # every rating value appears in the unbiased sample
        mcar = make_dataset(5, 3, [(u, u % 3, u + 1) for u in range(5)]
                            + [(0, 1, 3), (1, 2, 5)])
        model = estimate_multifactorial(train, mcar, 2.0, 3.0)
        oracle = multifactorial_oracle(
            triples(train), triples(mcar), 5, 3, range(1, 6), 2.0, 3.0
        )
        for i in range(3):
            for r in range(1, 6):
                expected = min(oracle[(i, r)], 1.0)
                assert model.table[i, r - 1] == pytest.approx(
                    expected, abs=1e-12
                )

    def test_smoothed_tables_normalize(self):
        train, mcar = self.small_fixture()
        rng = np.random.default_rng(7)
        for _ in range(5):
            a1, a2 = rng.uniform(0.1, 10, size=2)
            joint = smoothed_joint_conditional(train, a1)
            assert joint.sum() == pytest.approx(1.0, abs=1e-9)
            cond = smoothed_item_given_rating(mcar, a2)
            np.testing.assert_allclose(cond.sum(axis=0), 1.0, atol=1e-9)

    def test_large_alpha_flattens(self):
        train, mcar = self.small_fixture()
        spread = lambda t: float(t.max() - t.min())
        weak = smoothed_joint_conditional(train, 1.0)
        strong = smoothed_joint_conditional(train, 100.0)
        assert spread(strong) < spread(weak)
        weak_c = smoothed_item_given_rating(mcar, 1.0)
        strong_c = smoothed_item_given_rating(mcar, 100.0)
        assert spread(strong_c) < spread(weak_c)

    def test_alpha2_zero_with_zero_counts_rejected(self):
        train, mcar = self.small_fixture()
        with pytest.raises(PropensityError, match="alpha2"):
            estimate_multifactorial(train, mcar, 1.0, 0.0)

    @pytest.mark.parametrize("alpha1, alpha2, message", [
        (-1.0, 1.0, "alpha1 must be nonnegative, got -1.0"),
        (1.0, -0.5, "alpha2 must be nonnegative, got -0.5"),
        (np.nan, 1.0, "alpha1 must be nonnegative, got nan"),
    ], ids=["-1.0-1.0", "1.0--0.5", "nan-1.0"])
    def test_negative_smoothing_rejected(self, alpha1, alpha2, message):
        train, mcar = self.small_fixture()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_multifactorial(train, mcar, alpha1, alpha2)

    def test_integer_strengths_stored_as_floats(self, tmp_path):
        train, mcar = self.small_fixture()
        model = estimate_multifactorial(train, mcar, 2, 1)
        assert (type(model.alpha1), type(model.alpha2)) == (float, float)
        save_propensity(model, tmp_path / "joint.csv")
        assert " alpha1=2.0 alpha2=1.0 " in (tmp_path / "joint.csv").read_text().splitlines()[0]

    @pytest.mark.parametrize("mcar_items", [1, 3])
    def test_mcar_item_space_must_match_train(self, mcar_items):
        # a larger mcar item space used to fail inside numpy's reshape, a
        # smaller one to be padded with zero counts
        train, _ = self.small_fixture()
        mcar = make_dataset(2, mcar_items, [(0, 0, 1), (1, 0, 2)])
        with pytest.raises(PropensityError, match=f"mcar sample has {mcar_items} items "
                                                  "but train has 2"):
            estimate_multifactorial(train, mcar, 1, 1)

    @pytest.mark.parametrize("alpha1, alpha2", [
        (0.0, 1.0), (0.0, 7.5), (1.0, 1.0), (2.0, 0.5), (10.0, 3.0), (0.3, 12.0),
    ])
    def test_table_matches_inline_smoothing_bit_for_bit(self, alpha1, alpha2):
        bundle = simulate(SimulationSpec(
            num_users=60, num_items=40, gamma=0.5, seed=4, unbiased_per_user=10)).bundle
        train, mcar = bundle.train, bundle.mcar
        model = estimate_multifactorial(train, mcar, alpha1, alpha2)
        expected = estimate_multifactorial_table_reference(
            train, mcar, 60, 40, alpha1, alpha2)
        assert model.table.tobytes() == expected.tobytes()

    def test_alpha1_zero_with_unobserved_cells_warns(self, caplog):
        train, mcar = self.small_fixture()  # (item 1, rating 1) is never observed
        with caplog.at_level(logging.WARNING):
            model = estimate_multifactorial(train, mcar, 0.0, 1.0)
        assert "alpha1=0" in caplog.text
        assert model.table[1, 0] == 0.0

    def test_mcar_rating_gap_falls_back(self, caplog):
        train = make_dataset(2, 2, [(0, 0, 1), (0, 1, 2), (1, 0, 1)])
        mcar = make_dataset(2, 2, [(0, 0, 1), (1, 0, 1)])  # no rating 2
        with caplog.at_level(logging.WARNING):
            model = estimate_multifactorial(train, mcar, 1, 1)
        assert "unseen" in caplog.text
        assert np.all(model.table > 0)


def test_item_rating_codes_are_int64_past_the_int32_range(monkeypatch):
    # an int32 item times NUM_RATINGS wraps past 429,496,729 items; counting
    # over a table that wide would take GBs, so the codes are caught on their
    # way into bincount
    item = ID_LIMIT // NUM_RATINGS + 1
    data = RatingDataset(1, ID_LIMIT - 1, [0], [item], [RATING_SCALE[1]])

    class Counted(Exception):
        pass

    def catch(codes, minlength=0):
        raise Counted(codes)

    monkeypatch.setattr(propensity.np, "bincount", catch)
    with pytest.raises(Counted) as caught:
        propensity._counts_by_item_rating(data)
    codes = caught.value.args[0]
    assert codes.dtype == np.int64
    assert codes.tolist() == [item * NUM_RATINGS + NUM_RATINGS - 1]


def weighted_log_error(est, sim):
    """Mean of (log est - log truth)^2 over (item, rating) cells, each cell
    weighted by the number of (user, item) cells of the simulated truth that
    hold that item and rating."""
    truth = sim.ground_truth_propensities.table
    num_items, num_ratings = truth.shape
    cells = np.arange(num_items) * num_ratings + (sim.truth.astype(np.int64) - RATING_SCALE[0])
    weight = np.bincount(cells.ravel(), minlength=truth.size).reshape(truth.shape)
    held = weight > 0
    sq = (np.log(est[held]) - np.log(truth[held])) ** 2
    return float(np.sum(weight[held] * sq) / np.sum(weight[held]))


@pytest.mark.parametrize("seed", range(1000, 1010))
def test_smoothing_reduces_joint_table_error(seed):
    # Recovery contract B, the paper's variance claim: at the desk bias-sweep
    # shape, the joint table with unit smoothing is far closer to the true
    # propensities than a nearly unsmoothed one. Measured on these seeds: a
    # score of 6.01-7.10 at alpha (0.01, 0.01) against 0.50-0.56 at (1, 1),
    # a worst ratio of 0.086.
    sim = simulate(SimulationSpec(num_users=300, num_items=500, gamma=0.5, seed=seed))
    train, mcar = sim.bundle.train, sim.bundle.mcar
    score = {
        alphas: weighted_log_error(
            estimate_multifactorial(train, mcar, *alphas).table, sim)
        for alphas in ((0.01, 0.01), (1.0, 1.0))
    }
    assert score[(1.0, 1.0)] / score[(0.01, 0.01)] < 0.25


@pytest.mark.parametrize("seed", [5, 6])
def test_each_estimator_recovers_the_truth_where_its_bias_model_holds(seed):
    # Recovery contract A, the paper's thesis that the popularity and
    # positivity corrections are special cases of the joint one. The biased
    # log is the full sample (a train split would estimate a fraction of p)
    # and the unbiased sample is every cell of the true ratings, so with
    # alpha1 = 0 and a vanishing alpha2 the joint table is the binomial rate
    # count_D(i, r) / n(i, r), n(i, r) being the truth cells with item i and
    # rating r. Over cells with n >= 50 and a truth p below 1 (capped items
    # have no variance), z = (estimate - p) / sqrt(p (1 - p) / n). Measured
    # on seeds 0-19, the share of cells with |z| > 3 was at most 0.7% where an
    # estimator's bias model holds (joint at every gamma, popularity at
    # gamma 0, positivity at gamma 1) and at least 23% where it does not
    # (popularity at gamma 1, positivity at gamma 0 and 0.5). Popularity at
    # gamma 0.5, 2.5-4.1%, is too close to call and left unasserted.
    truth = convert_to_ratings(generate_engagement(3000, 500, seed=[seed, 0]))
    rho_i, _ = build_item_propensities(truth)
    users, items = (a.ravel() for a in np.indices(truth.shape))
    ratings = truth.ravel().astype(np.int64)
    everything = RatingDataset(3000, 500, users, items, ratings)
    n = np.bincount(items * 5 + ratings - 1, minlength=500 * 5).reshape(500, 5)

    share_off = {}
    for gamma in (0.0, 0.5, 1.0):
        biased, gt = sample_observations(
            truth, np.asarray(DEFAULT_RATING_PROPENSITIES), rho_i, gamma, seed=[seed, 1])
        p = gt.table
        keep = (n >= 50) & (p < 1)
        sd = np.sqrt(p[keep] * (1 - p[keep]) / n[keep])
        tables = {
            "joint": estimate_multifactorial(
                biased, everything, 0.0, 1e-9).table,
            "popularity": estimate_popularity(biased).table[:, None],
            "positivity": estimate_positivity(biased, everything).table[None, :],
        }
        for name, table in tables.items():
            z = (np.broadcast_to(table, p.shape)[keep] - p[keep]) / sd
            share_off[name, gamma] = float(np.mean(np.abs(z) > 3))

    holds, fails = 0.02, 0.10
    for gamma in (0.0, 0.5, 1.0):
        assert share_off["joint", gamma] < holds
    assert share_off["popularity", 0.0] < holds
    assert share_off["popularity", 1.0] > fails
    assert share_off["positivity", 1.0] < holds
    assert share_off["positivity", 0.0] > fails
    assert share_off["positivity", 0.5] > fails


class TestMFLearned:
    def test_fully_observed_matrix_fits_near_one(self):
        triples = [(u, i, 3) for u in range(10) for i in range(10)]
        train = make_dataset(10, 10, triples)
        model = estimate_mf_propensity(train, dim=2, max_steps=400, seed=0)
        scores = score_dataset(model, train)
        assert np.all(scores > 0.95)

    def test_recovers_known_logistic_structure(self):
        # strong rank-1 signal plus item intercepts: a single observation draw
        # carries enough information to pin the propensity ordering
        rng = np.random.default_rng(11)
        n = 50
        true_logits = (
            3.0 * rng.normal(0, 1, size=(n, 1)) @ rng.normal(0, 1, size=(1, n))
            + rng.normal(-0.5, 1.0, size=(1, n))
        )
        true_p = 1.0 / (1.0 + np.exp(-true_logits))
        obs = rng.random((n, n)) < true_p
        users, items = np.nonzero(obs)
        train = RatingDataset(n, n, users, items, np.full(len(users), 3))
        model = estimate_mf_propensity(
            train, dim=2, learning_rate=0.1, max_steps=4000, seed=1
        )
        uu, ii = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        fitted = score_many(model, uu.ravel(), ii.ravel(), np.full(n * n, 3))

        def ranks(x):
            r = np.empty(len(x))
            r[np.argsort(x)] = np.arange(len(x))
            return r

        rho = np.corrcoef(ranks(fitted), ranks(true_p.ravel()))[0, 1]
        assert rho > 0.9

    def test_empty_row_user_scores_near_base_rate(self):
        # an empty row over only 6 items is weak evidence, so shrinkage keeps
        # the cold user near the overall observation rate
        rng = np.random.default_rng(2)
        obs = rng.random((40, 6)) < 0.3
        obs[0, :] = False
        users, items = np.nonzero(obs)
        train = RatingDataset(40, 6, users, items, np.full(len(users), 3))
        model = estimate_mf_propensity(
            train, dim=2, l2_weight=1e-2, max_steps=800, seed=3
        )
        cold = score_many(model, np.zeros(6, int), np.arange(6), np.full(6, 3))
        assert abs(cold.mean() - obs.mean()) < 0.15

    def test_overflowing_logits_leave_no_zero_score(self):
        # without L2, steps of 5 drive some logits below -709, where exp
        # overflowed and the cell's score became an exact 0
        train = random_observations(8, 6, 0.5, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = estimate_mf_propensity(train, dim=2, learning_rate=5.0,
                                           l2_weight=0.0, max_steps=60)
        assert np.all(model.table > 0.0)
        assert model.table.min() < 1e-300

    def test_diverging_learning_rate_returns_the_best_parameters_seen(self, caplog,
                                                                       monkeypatch):
        # the first step at 1e200 overflows the parameters, so no later loss
        # beats the initial one; the fit stops once a step leaves a parameter
        # non-finite (the second, not the 500th) and ends with its "did not
        # converge" warning and the initial parameters' finite table, raising
        # no numpy overflow warning (an error under pytest's filter)
        train = random_observations(20, 15, 0.3, seed=1)
        calls = []
        real = propensity.adam_step

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(propensity, "adam_step", counting)
        with caplog.at_level(logging.WARNING):
            model = estimate_mf_propensity(train, dim=2, learning_rate=1e200)
        assert len(calls) <= 2
        assert re.search(r"did not converge \(its parameters are non-finite after step "
                         rf"{len(calls)}\);", caplog.text)
        assert np.all(np.isfinite(model.table))
        initial = estimate_mf_propensity(train, dim=2, max_steps=1)
        np.testing.assert_array_equal(model.table, initial.table)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_no_steps_rejected(self, steps):
        train = random_observations(8, 6, 0.5, seed=1)
        with pytest.raises(ValueError, match=f"max_steps must be positive, got {steps}"):
            estimate_mf_propensity(train, dim=2, max_steps=steps)

    @pytest.mark.parametrize("key, value, message", [
        ("learning_rate", 0.0, "learning_rate must be positive, got 0.0"),
        ("learning_rate", -0.05, "learning_rate must be positive, got -0.05"),
        ("learning_rate", np.nan, "learning_rate must be positive, got nan"),
        ("l2_weight", np.nan, "l2_weight must be nonnegative, got nan"),
        ("l2_weight", -1.0, "l2_weight must be nonnegative, got -1.0"),
        ("tol", np.nan, "tol must be nonnegative, got nan"),
        ("tol", -1.0, "tol must be nonnegative, got -1.0"),
    ], ids=["0.0", "-0.05", "learning_rate=nan", "l2_weight=nan", "l2_weight=-1",
            "tol=nan", "tol=-1"])
    def test_nonpositive_learning_rate_rejected(self, key, value, message):
        # such a rate never moves the fit off its initial parameters; a NaN
        # L2 weight made every loss NaN, so no best parameters were kept
        train = random_observations(30, 20, 0.3, seed=1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_mf_propensity(train, dim=2, **{key: value})


def random_observations(n_users, n_items, density, seed):
    rng = np.random.default_rng(seed)
    users, items = np.nonzero(rng.random((n_users, n_items)) < density)
    return RatingDataset(n_users, n_items, users, items, rng.integers(1, 6, size=len(users)))


def test_observation_fit_steps_through_adam_step(monkeypatch, caplog):
    # a fit that never converges steps once per iteration, each step one
    # update over the whole packed buffer
    sizes = []
    real = optim._adam_update

    def counting(p, *rest):
        sizes.append(p.size)
        real(p, *rest)

    monkeypatch.setattr(optim, "_adam_update", counting)
    n_users, n_items, dim, steps = 9, 7, 3, 12
    train = random_observations(n_users, n_items, 0.4, seed=2)
    with caplog.at_level(logging.WARNING):
        estimate_mf_propensity(train, dim=dim, max_steps=steps, tol=0.0)
    assert "did not converge" in caplog.text
    assert sizes == [n_users * dim + n_items * dim + n_users + n_items + 1] * steps


class TestMFLearnedMatchesReference:
    """The in-place, one-log fit stepped by ``adam_step`` returns a table
    that holds, bit for bit at every (user, item), the per-pair scores of the
    factors fitted by the allocating two-log fit with its own Adam loop."""

    def fit_both(self, train, **kwargs):
        # the fit runs its matrix products at one OpenBLAS thread, and a
        # threaded product can differ in the last bit, so the reference's
        # products run at one thread too
        with one_blas_thread():
            factors, losses, converged = estimate_mf_propensity_reference(
                train, train.num_users, train.num_items, **kwargs)
        model = estimate_mf_propensity(train, **kwargs)
        users, items = (a.ravel() for a in np.meshgrid(
            np.arange(train.num_users), np.arange(train.num_items), indexing="ij"))
        want = mf_learned_scores_reference(factors, users, items)
        assert model.table.shape == (train.num_users, train.num_items)
        assert model.table.tobytes() == want.tobytes()
        return losses, converged

    def test_converging_fit(self):
        train = random_observations(10, 10, 0.3, seed=0)
        losses, converged = self.fit_both(
            train, dim=2, learning_rate=0.2, max_steps=400, seed=0)
        assert converged and len(losses) < 400

    def test_non_converging_fit(self, caplog):
        # the benchmark's tune shape (1000 x 500, dim 8, 90 steps), scaled down
        train = random_observations(100, 50, 0.1, seed=1)
        with caplog.at_level(logging.WARNING):
            losses, converged = self.fit_both(
                train, dim=8, learning_rate=0.05, max_steps=60, seed=1)
        assert not converged and len(losses) == 60
        assert "did not converge" in caplog.text

    def test_tune_shape_fit(self):
        # the benchmark's tune shape at full size: 1000 x 500, dim 8, 90 steps
        train = random_observations(1000, 500, 0.05, seed=4)
        losses, converged = self.fit_both(
            train, dim=8, learning_rate=0.05, max_steps=90, seed=4)
        assert not converged and len(losses) == 90

    def test_memorizing_fit_keeps_scores_outside_the_loss_clip(self):
        # without L2, large steps drive logits past +-27.6, where the loss
        # buffer is clipped to [1e-12, 1 - 1e-12]; the returned table is not
        train = random_observations(8, 6, 0.5, seed=1)
        kwargs = dict(dim=2, learning_rate=2.0, l2_weight=0.0, max_steps=20, seed=0)
        self.fit_both(train, **kwargs)
        table = estimate_mf_propensity(train, **kwargs).table
        assert table.min() < 1e-12 and table.max() > 1.0 - 1e-12

    @pytest.mark.parametrize("block_cells, shape, empty_rows, full_rows", [
        (12, (7, 5), (), ()),
        (4, (5, 6), (), ()),
        (10, (8, 5), (2, 3), ()),
        (10, (6, 5), (), (1,)),
        (propensity._FIT_BLOCK_CELLS, (1, 1), (), (0,)),
    ], ids=["partial-last-block", "one-row-blocks", "block-without-observations",
            "fully-observed-row", "one-cell"])
    def test_row_block_edges(self, monkeypatch, block_cells, shape, empty_rows, full_rows):
        # the elementwise passes run on blocks of block_cells // num_items
        # rows (at least one), writing each block's observed cells through
        # their offsets in the block
        monkeypatch.setattr(propensity, "_FIT_BLOCK_CELLS", block_cells)
        observed = np.random.default_rng(5).random(shape) < 0.3
        observed[list(empty_rows)] = False
        observed[list(full_rows)] = True
        users, items = np.nonzero(observed)
        train = RatingDataset(*shape, users, items, np.full(len(users), 3))
        losses, converged = self.fit_both(
            train, dim=2, learning_rate=0.1, max_steps=30, seed=0)
        assert len(losses) > 1

    @pytest.mark.parametrize("adam_block", [1, 7])
    def test_small_adam_block(self, monkeypatch, adam_block):
        # 30 users, 20 items, dim 3: 151 parameters, so each step's Adam
        # update runs in many blocks, the last one partial
        monkeypatch.setattr(optim, "_ADAM_BLOCK", adam_block)
        sizes = []
        real = optim._adam_update

        def recording(p, *rest):
            sizes.append(p.size)
            real(p, *rest)

        monkeypatch.setattr(optim, "_adam_update", recording)
        train = random_observations(30, 20, 0.3, seed=4)
        losses, converged = self.fit_both(
            train, dim=3, learning_rate=0.1, max_steps=25, seed=2)
        assert len(losses) > 1 and max(sizes) == adam_block

    def test_best_loss_before_the_last_step(self):
        # a large step size makes the loss oscillate: the best parameters are
        # neither the initial nor the final ones
        train = random_observations(12, 10, 0.3, seed=3)
        losses, converged = self.fit_both(
            train, dim=3, learning_rate=1.5, max_steps=34, seed=3)
        best = int(np.argmin(losses))
        assert not converged and 0 < best < len(losses) - 1


class TestClipNormalizeScore:
    def test_clip_floors_scores(self):
        model = PropensityModel(family="positivity",
                                table=np.array([0.001, 0.5, 0.5, 0.5, 0.5]))
        clipped = clip(model, 0.01)
        assert score_one(clipped, 0, 0, 1) == 0.01
        assert score_one(clipped, 0, 0, 2) == 0.5

    def test_clip_one_recovers_unweighted(self):
        model = PropensityModel(family="positivity",
                                table=np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
        clipped = clip(model, 1.0)
        data = make_dataset(1, 5, [(0, i, i + 1) for i in range(5)])
        np.testing.assert_array_equal(score_dataset(clipped, data), 1.0)

    def test_clip_below_min_is_identity(self):
        model = PropensityModel(family="positivity",
                                table=np.array([0.2, 0.3, 0.4, 0.5, 0.6]))
        data = make_dataset(1, 5, [(0, i, i + 1) for i in range(5)])
        np.testing.assert_array_equal(
            score_dataset(clip(model, 0.1), data), score_dataset(model, data)
        )

    def test_clip_rejects_bad_tau(self):
        model = uniform_propensities(make_dataset(1, 2, [(0, 0, 3), (0, 1, 4)]))
        for tau in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                clip(model, tau)

    @pytest.mark.parametrize("tau", [None, np.nan])
    def test_clip_rejects_none_and_nan(self, tau):
        # only PipelineConfig reads a None floor, as the default heuristic
        model = uniform_propensities(make_dataset(1, 2, [(0, 0, 3), (0, 1, 4)]))
        with pytest.raises(ValueError, match=f"^clip_floor must be in \\(0, 1\\], got {tau}$"):
            clip(model, tau)

    def test_normalize_fixed_point(self):
        # full coverage popularity: mean inverse already equals |U||I|/|D|
        train = make_dataset(3, 3, [(u, i, 3) for u in range(3) for i in range(3)])
        model = estimate_popularity(train)
        normalized = normalize(model, train)
        assert normalized.scale == pytest.approx(1.0, abs=1e-9)

    def test_normalize_undoes_uniform_rescale(self):
        train = make_dataset(2, 3, [(0, 0, 2), (0, 1, 4), (1, 0, 5), (1, 2, 1)])
        base = estimate_popularity(train)
        halved = PropensityModel(family="popularity", table=base.table * 0.5)
        renormalized = normalize(halved, train)
        np.testing.assert_allclose(
            score_dataset(renormalized, train),
            score_dataset(normalize(base, train), train),
            atol=1e-12,
        )

    def test_normalize_postcondition_on_random_table(self):
        # sparse data and a narrow score range keep the rescaled values below
        # the cap at 1, so the mean-inverse identity is exact
        rng = np.random.default_rng(13)
        triples = [(u, i, int(rng.integers(1, 6)))
                   for u in range(6) for i in range(7) if rng.random() < 0.12]
        train = make_dataset(6, 7, triples)
        model = PropensityModel(
            family="multifactorial",
            table=rng.uniform(0.2, 0.4, size=(7, 5)),
        )
        normalized = normalize(model, train)
        scores = score_dataset(normalized, train)
        assert scores.max() < 1.0  # cap not binding
        assert (1.0 / scores).mean() == pytest.approx(6 * 7 / len(train), abs=1e-9)

    def test_normalize_rejects_a_score_too_small_to_invert(self):
        # 1 / 5e-324 overflows; an infinite scale would score the positive
        # entries 1 and the unobserved zero entry nan (0 * inf)
        train = make_dataset(2, 3, [(0, 0, 3), (1, 1, 4)])
        model = PropensityModel(family="popularity", table=np.array([5e-324, 0.5, 0.0]))
        with pytest.raises(PropensityError, match="overflow"):
            normalize(model, train)
        with pytest.raises(PropensityError, match="overflow"):
            prepare(model, train)

    def test_normalize_rejects_an_empty_train_split(self):
        train = make_dataset(2, 3, [(0, 0, 3)])
        with pytest.raises(PropensityError, match="^cannot normalize on an empty train split$"):
            normalize(estimate_popularity(train), train.subset([]))

    def test_prepare_orders_normalize_then_clip(self):
        train = make_dataset(2, 3, [(0, 0, 2), (0, 1, 4), (1, 0, 5), (1, 2, 1)])
        model = prepare(estimate_popularity(train), train, clip_floor=0.2)
        assert model.clip_floor == 0.2
        assert model.normalization == "mean-inverse"

    def test_uniform_family_value(self):
        train = make_dataset(2, 3, [(0, 0, 2), (1, 1, 4), (1, 2, 5)])
        model = uniform_propensities(train)
        assert score_one(model, 0, 0, 1) == pytest.approx(3 / 6)

    def test_popularity_ignores_rating(self):
        train = make_dataset(2, 2, [(0, 0, 1), (1, 0, 5), (0, 1, 3)])
        model = estimate_popularity(train)
        assert score_one(model, 0, 0, 1) == score_one(model, 0, 0, 5)

    def test_positivity_ignores_user_and_item(self):
        train = make_dataset(2, 2, [(0, 0, 5), (0, 1, 1), (1, 0, 5)])
        mcar = make_dataset(2, 2, [(0, 0, 5), (1, 1, 1)])
        model = estimate_positivity(train, mcar)
        assert score_one(model, 0, 0, 5) == score_one(model, 1, 1, 5)

    def test_ground_truth_returns_stored_value(self):
        table = np.array([[0.1, 0.2, 0.3, 0.4, 0.5], [0.05, 0.1, 0.15, 0.2, 0.25]])
        model = PropensityModel(family="ground_truth", table=table)
        assert score_one(model, 7, 1, 3) == table[1, 2]

    def test_out_of_range_index_rejected(self):
        model = PropensityModel(family="popularity", table=np.array([0.5, 0.5]))
        with pytest.raises(IndexError):
            score_one(model, 0, 2, 3)

    def test_scores_in_unit_interval_after_clip(self):
        rng = np.random.default_rng(17)
        train = make_dataset(4, 4, [(u, i, int(rng.integers(1, 6)))
                                    for u in range(4) for i in range(4)])
        mcar = make_dataset(4, 4, [(u, i, int(rng.integers(1, 6)))
                                   for u in range(4) for i in range(2)])
        models = [
            uniform_propensities(train),
            estimate_popularity(train),
            estimate_positivity(train, mcar),
            estimate_multifactorial(train, mcar, 1, 1),
            estimate_mf_propensity(train, dim=2, max_steps=50, seed=0),
        ]
        for model in models:
            scores = score_dataset(prepare(model, train, clip_floor=0.01), train)
            assert np.all(scores > 0) and np.all(scores <= 1)


class TestPipelineConfig:
    def test_defaults(self):
        assert vars(PipelineConfig()) == {
            "normalize": True, "clip_floor": None, "alpha1": 1.0, "alpha2": 1.0,
            "propensity_dim": 8, "propensity_learning_rate": 0.05, "propensity_steps": 300}

    @pytest.mark.parametrize("key, value, message", [
        ("alpha1", np.nan, "alpha1 must be nonnegative, got nan"),
        ("alpha2", -1.0, "alpha2 must be nonnegative, got -1.0"),
        ("clip_floor", 0.0, "clip_floor must be in (0, 1], got 0.0"),
        ("clip_floor", np.nan, "clip_floor must be in (0, 1], got nan"),
        ("propensity_dim", 0, "propensity_dim must be positive, got 0"),
        ("propensity_learning_rate", np.nan, "propensity_learning_rate must be positive, got nan"),
        ("propensity_steps", 0, "propensity_steps must be positive, got 0"),
    ])
    def test_field_rules_name_the_field(self, key, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PipelineConfig(**{key: value})

    def test_rules_are_the_estimators_own(self):
        # each rule is written once, beside the function that applies it
        assert PIPELINE_RULES["alpha1"] is propensity._SMOOTHING_RULES["alpha1"]
        assert PIPELINE_RULES["alpha2"] is propensity._SMOOTHING_RULES["alpha2"]
        assert PIPELINE_RULES["propensity_learning_rate"] is propensity._FIT_RULES["learning_rate"]
        assert PIPELINE_RULES["propensity_steps"] is propensity._FIT_RULES["max_steps"]
        holds, text = PIPELINE_RULES["clip_floor"]
        assert text == propensity._CLIP_FLOOR[1]
        assert [holds(v) for v in (None, 1e-3, 1.0, 0.0, 1.5)] == [True, True, True, False, False]


class TestSerialization:
    def roundtrip(self, model, tmp_path):
        path = tmp_path / "prop.csv"
        save_propensity(model, path)
        return load_propensity(path)

    def test_table_families_roundtrip(self, tmp_path):
        rng = np.random.default_rng(23)
        train = make_dataset(3, 4, [(u, i, int(rng.integers(1, 6)))
                                    for u in range(3) for i in range(4)])
        mcar = make_dataset(3, 4, [(u, i, int(rng.integers(1, 6)))
                                   for u in range(3) for i in range(2)])
        models = [
            uniform_propensities(train),
            clip(estimate_popularity(train), 0.05),
            estimate_positivity(train, mcar),
            normalize(
                estimate_multifactorial(train, mcar, 2, 1), train
            ),
        ]
        for model in models:
            back = self.roundtrip(model, tmp_path)
            assert back.family == model.family
            assert back.clip_floor == model.clip_floor
            assert back.scale == model.scale
            np.testing.assert_array_equal(
                score_dataset(back, train), score_dataset(model, train)
            )

    def test_ground_truth_roundtrip_exact(self, tmp_path):
        table = np.random.default_rng(29).uniform(0.01, 1.0, size=(5, 5))
        model = PropensityModel(family="ground_truth", table=table)
        back = self.roundtrip(model, tmp_path)
        np.testing.assert_array_equal(back.table, table)

    def test_mf_learned_roundtrip(self, tmp_path):
        train = make_dataset(3, 3, [(0, 0, 3), (1, 1, 2), (2, 2, 4), (0, 1, 5)])
        model = estimate_mf_propensity(train, dim=2, max_steps=30, seed=0)
        back = self.roundtrip(model, tmp_path)
        np.testing.assert_array_equal(
            score_dataset(back, train), score_dataset(model, train)
        )

    def test_prepared_mf_learned_roundtrip_scores_bit_equal(self, tmp_path):
        # the saved file is the fitted model's own table, so a reloaded model
        # scores every train triple exactly as the one in memory
        train = random_observations(50, 40, 0.2, seed=2)
        model = prepare(
            estimate_mf_propensity(train, dim=3, max_steps=60, seed=2), train)
        back = self.roundtrip(model, tmp_path)
        assert score_dataset(back, train).tobytes() == score_dataset(model, train).tobytes()
        assert back.table.tobytes() == model.table.tobytes()

    def test_header_records_family_and_smoothing(self, tmp_path):
        train = make_dataset(2, 2, [(0, 0, 1), (0, 1, 2), (1, 0, 1)])
        mcar = make_dataset(2, 2, [(0, 0, 1), (1, 1, 2)])
        model = clip(
            estimate_multifactorial(train, mcar, 10, 2), 0.05
        )
        path = tmp_path / "prop.csv"
        save_propensity(model, path)
        header = path.read_text().splitlines()[0]
        for expected in ("family=multifactorial", "tau=0.05", "alpha1=10.0", "alpha2=2.0"):
            assert expected in header



GOOD_HEADER = (
    "# family=multifactorial tau=0.05 alpha1=1.0 alpha2=1.0 scale=1.0 "
    "normalization=none rating_min=1 rating_max=5\n"
)


def item_rows(item, ratings=range(1, 6)):
    """Rows of propensity 0.5 for `item` at each of `ratings`."""
    return [f"{item},{r},0.5" for r in ratings]


class TestLoadValidation:
    def write(self, tmp_path, text):
        path = tmp_path / "prop.csv"
        path.write_text(text)
        return path

    def table(self, rows):
        return GOOD_HEADER + "item_index,rating,propensity\n" + "".join(r + "\n" for r in rows)

    def test_complete_table_loads(self, tmp_path):
        rows = ["0,1,0.5", "0,2,0.0", "1,1,1.0", "1,2,0.25"]
        rows += [f"{i},{r},0.75" for i in (0, 1) for r in (3, 4, 5)]
        model = load_propensity(self.write(tmp_path, self.table(rows)))
        np.testing.assert_array_equal(
            model.table, [[0.5, 0.0, 0.75, 0.75, 0.75], [1.0, 0.25, 0.75, 0.75, 0.75]])

    @pytest.mark.parametrize("lo, hi", [(0, 1), (0, 5), (1, 4), (1, 6), (5, 1)],
                             ids=["from-zero-two-values", "from-zero", "to-four", "to-six",
                                  "max-below-min"])
    def test_other_rating_scale_rejected(self, tmp_path, lo, hi):
        header = GOOD_HEADER.replace("family=multifactorial", "family=positivity")
        header = header.replace("rating_min=1 rating_max=5", f"rating_min={lo} rating_max={hi}")
        rows = "".join(f"{r},0.5\n" for r in range(lo, hi + 1))
        path = self.write(tmp_path, header + "rating,propensity\n" + rows)
        with pytest.raises(PropensityError, match=rf"prop.csv:1: rating_min={lo} rating_max={hi} "
                                                  r"is not the rating scale \(1, 5\)"):
            load_propensity(path)

    def test_popularity_zero_for_unobserved_item_roundtrips(self, tmp_path):
        train = make_dataset(3, 4, [(0, 0, 3), (1, 0, 4), (2, 2, 5)])
        model = estimate_popularity(train)
        assert np.any(model.table == 0)
        path = tmp_path / "prop.csv"
        save_propensity(model, path)
        np.testing.assert_array_equal(load_propensity(path).table, model.table)

    @pytest.mark.parametrize("text, match", [
        (GOOD_HEADER.replace(" tau=0.05", "") + "item_index,rating,propensity\n0,1,0.5\n",
         r"prop.csv:1: header is missing key\(s\) tau"),
        (GOOD_HEADER.replace("scale=1.0", "scale") + "item_index,rating,propensity\n0,1,0.5\n",
         r"prop.csv:1: header field 'scale' is not key=value"),
        (GOOD_HEADER.replace("rating_min=1", "rating_min=one"), r"prop.csv:1: bad header value"),
        *((GOOD_HEADER.replace("scale=1.0", f"scale={v}"),
           rf"prop.csv:1: scale={v} is not finite and positive$")
          for v in ("nan", "-1.0", "0.0", "inf")),
        *((GOOD_HEADER.replace("tau=0.05", f"tau={v}"),
           rf"prop.csv:1: tau={v} is not in \[0, 1\]$") for v in ("2.0", "nan", "-0.1")),
        (GOOD_HEADER.replace("normalization=none", "normalization=a,b"),
         r"prop.csv:1: normalization=a,b is not none or mean-inverse$"),
        (GOOD_HEADER.replace("alpha1=1.0", "alpha1=-3.0"),
         r"prop.csv:1: alpha1=-3.0 is not empty or nonnegative$"),
        (GOOD_HEADER.replace("alpha2=1.0", "alpha2=nan"),
         r"prop.csv:1: alpha2=nan is not empty or nonnegative$"),
        ("family=multifactorial tau=0.05\nitem_index,rating,propensity\n0,1,0.5\n",
         r"prop.csv: missing propensity table header$"),
        (GOOD_HEADER.replace("family=multifactorial", "family=bespoke")
         + "item_index,rating,propensity\n0,1,0.5\n",
         r"prop.csv: unknown family 'bespoke' "
         r"\(columns \['item_index', 'rating', 'propensity'\]\)$"),
    ], ids=["missing-key", "not-key-value", "bad-header-value", "scale-nan", "scale-negative",
            "scale-zero", "scale-inf", "tau-above-one", "tau-nan", "tau-negative",
            "normalization-not-a-name", "alpha1-negative", "alpha2-nan", "no-header",
            "unknown-family"])
    def test_bad_header(self, tmp_path, text, match):
        with pytest.raises(ValueError, match=match):
            load_propensity(self.write(tmp_path, text))

    @pytest.mark.parametrize("family, columns", [
        ("multifactorial", "user_index,whatever,foo"),
        ("multifactorial", "rating,item_index,propensity"),
        ("popularity", "item_index,rating,propensity"),
        ("uniform", ""),
    ])
    def test_column_line_must_name_the_family_axes(self, tmp_path, family, columns):
        # the rows are read by position, so a table whose column line names
        # other axes used to load as if it named the family's own
        header = GOOD_HEADER.replace("family=multifactorial", f"family={family}")
        expected = ",".join((*AXES[family], "propensity"))
        with pytest.raises(PropensityError, match=re.escape(
                f"prop.csv:2: column line {columns!r} is not {expected!r}")):
            load_propensity(self.write(tmp_path, header + columns + "\n0,1,0.5\n"))

    @pytest.mark.parametrize("rows, match", [
        (["0,1,0.5", "0,2", "1,1,0.5", "1,2,0.5"], r"prop.csv:4: expected 3 field\(s\), got 2"),
        (["0,1,0.5", "0,2,0.5,9", "1,1,0.5", "1,2,0.5"], r"prop.csv:4: expected 3 field\(s\), got 4"),
        (["0,1,0.5", "0,2,high", "1,1,0.5", "1,2,0.5"], r"prop.csv:4: propensity 'high' is not a number"),
        (["0,1,0.5", "0,2,nan", "1,1,0.5", "1,2,0.5"], r"prop.csv:4: propensity nan outside \[0, 1\]"),
        (["0,1,0.5", "0,2,inf", "1,1,0.5", "1,2,0.5"], r"prop.csv:4: propensity inf outside"),
        (["0,1,0.5", "0,2,-0.1", "1,1,0.5", "1,2,0.5"], r"prop.csv:4: propensity -0.1 outside"),
        (["0,1,0.5", "0,2,1.5", "1,1,0.5", "1,2,0.5"], r"prop.csv:4: propensity 1.5 outside"),
        (["0,1,0.5", "x,2,0.5", "1,1,0.5", "1,2,0.5"], r"prop.csv:4: item_index 'x' is not an integer"),
        (["0,1,0.5", "-1,2,0.5", "1,1,0.5", "1,2,0.5"], r"prop.csv:4: item_index -1 is negative"),
        (["0,1,0.5", "0,6,0.5", "1,1,0.5", "1,2,0.5"], r"prop.csv:4: rating 6 outside the header's scale"),
        (["0,1,0.5", "0,2,0.5", "1,1,0.5", "0,2,0.25", "1,2,0.5"],
         r"prop.csv:6: duplicate of the row on line 4"),
        (item_rows(0) + item_rows(2),
         r"prop.csv: no row for item_index 1, rating 1 \(gap in the index range\)"),
        (["0,1,0.5"] + item_rows(1), r"no row for item_index 0, rating 2"),
        (item_rows(0) + item_rows(1, range(1, 5)), r"no row for item_index 1, rating 5"),
        ([], r"prop.csv: no propensity rows"),
    ], ids=["too-few-fields", "too-many-fields", "not-a-number", "nan", "inf", "negative",
            "above-one", "bad-index", "negative-index", "rating-off-scale", "duplicate",
            "gap-row", "gap-first-cell", "gap-last-cell", "empty"])
    def test_bad_rows(self, tmp_path, rows, match):
        with pytest.raises(ValueError, match=match):
            load_propensity(self.write(tmp_path, self.table(rows)))

    @pytest.mark.parametrize("family, columns, rows, match", [
        ("popularity", "item_index,propensity", ["0,0.1", "2,0.3"], r"no row for item_index 1"),
        ("positivity", "rating,propensity", ["1,0.1"], r"no row for rating 2"),
        ("mf_learned", "user_index,item_index,propensity", ["0,0,0.1", "0,1,0.1", "1,1,0.1"],
         r"no row for user_index 1, item_index 0"),
        ("uniform", "propensity", ["0.1", "0.2"], r"prop.csv:4: duplicate of the row on line 3"),
    ], ids=["popularity", "positivity", "mf_learned", "uniform"])
    def test_other_family_layouts(self, tmp_path, family, columns, rows, match):
        header = GOOD_HEADER.replace("family=multifactorial", f"family={family}")
        text = header + columns + "\n" + "".join(r + "\n" for r in rows)
        with pytest.raises(ValueError, match=match):
            load_propensity(self.write(tmp_path, text))


@pytest.fixture(scope="module")
def every_form(tmp_path_factory):
    """(train, [(label, model)]): each family raw and prepared, mf_learned as
    fitted and as loaded from its saved (user, item) table."""
    sim = simulate(SimulationSpec(num_users=30, num_items=25, gamma=0.5, seed=7,
                                  unbiased_per_user=10))
    train, mcar = sim.bundle.train, sim.bundle.mcar
    fitted = estimate_mf_propensity(train, dim=3, max_steps=25, seed=0)
    path = tmp_path_factory.mktemp("mf") / "mf.csv"
    save_propensity(fitted, path)
    raw = {
        "uniform": uniform_propensities(train),
        "popularity": estimate_popularity(train),
        "positivity": estimate_positivity(train, mcar),
        "multifactorial": estimate_multifactorial(train, mcar, 2.0, 3.0),
        "mf_learned-fitted": fitted,
        "mf_learned-loaded": load_propensity(path),
        "ground_truth": sim.ground_truth_propensities,
    }
    forms = list(raw.items())
    forms += [(label + "-prepared", prepare(m, train)) for label, m in raw.items()]
    return train, forms


def outcome(fn, *args):
    try:
        return fn(*args).tobytes()
    except IndexError as exc:
        return f"IndexError: {exc}"


class TestTableMatchesPerFamilyReference:
    """One table per family scores and saves exactly as the per-family code."""

    def test_scores_bit_equal(self, every_form):
        train, forms = every_form
        n_u, n_i = train.num_users, train.num_items
        users, items, ratings = (a.ravel() for a in np.meshgrid(
            np.arange(n_u), np.arange(n_i), np.arange(1, 6), indexing="ij"))
        bad = {"user": ([n_u], [0], [1]), "item": ([0], [n_i], [1]),
               "negative-item": ([0], [-1], [1]), "rating": ([0], [0], [6]),
               "empty": ([], [], [])}
        for label, model in forms:
            assert (score_many(model, users, items, ratings).tobytes()
                    == score_many_reference(model, users, items, ratings).tobytes()), label
            for case, args in bad.items():
                args = [np.array(a, dtype=np.int64) for a in args]
                assert (outcome(score_many, model, *args)
                        == outcome(score_many_reference, model, *args)), (label, case)

    @pytest.mark.parametrize("delimiter", [",", "\t"], ids=["comma", "tab"])
    def test_files_byte_equal(self, every_form, tmp_path, delimiter):
        train, forms = every_form
        for label, model in forms:
            ours, theirs, again = (tmp_path / f"{label}-{k}.csv" for k in ("a", "b", "c"))
            save_propensity(model, ours, delimiter=delimiter)
            save_propensity_reference(model, theirs, delimiter=delimiter)
            assert ours.read_bytes() == theirs.read_bytes(), label
            loaded = load_propensity(ours, delimiter=delimiter)
            save_propensity(loaded, again, delimiter=delimiter)
            assert again.read_bytes() == ours.read_bytes(), label
            assert (score_dataset(loaded, train).tobytes()
                    == score_many_reference(loaded, train.users, train.items,
                                            train.ratings).tobytes()), label


class TestConstructionChecks:
    @pytest.mark.parametrize("kwargs, match", [
        (dict(family="mystery", table=0.5), "unknown propensity family 'mystery'"),
        (dict(family="popularity"), "popularity model needs a table"),
        (dict(family="uniform", table=[0.5]), r"uniform table needs 0 axes \(\), got shape \(1,\)"),
        (dict(family="multifactorial", table=np.full(4, 0.5)),
         r"multifactorial table needs 2 axes \('item_index', 'rating'\), got shape \(4,\)"),
        (dict(family="positivity", table=np.full(3, 0.5)),
         r"positivity table has 3 rating entries for the rating scale \(1, 5\)"),
        (dict(family="ground_truth", table=np.full((4, 6), 0.5)),
         r"ground_truth table has 6 rating entries for the rating scale \(1, 5\)"),
    ], ids=["unknown-family", "neither", "uniform-axes", "joint-axes", "positivity-rating-axis", "joint-rating-axis"])
    def test_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            PropensityModel(**kwargs)

    def test_table_coerced_to_float(self):
        model = PropensityModel(family="popularity", table=[0, 1])
        assert model.table.dtype == np.float64
        assert PropensityModel(family="uniform", table=0.25).table.shape == ()


# --------------------------------------------------------------------------
# properties over generated datasets and tables


@st.composite
def rating_data(draw, n_users=st.integers(1, 8), n_items=st.integers(1, 8), max_density=1.0):
    """A nonempty dataset on the 1..5 scale observing at most `max_density`
    of its (user, item) pairs."""
    n_users, n_items = draw(n_users), draw(n_items)
    max_pairs = max(1, int(max_density * n_users * n_items))
    codes = draw(st.lists(st.integers(0, n_users * n_items - 1), min_size=1,
                          max_size=max_pairs, unique=True))
    ratings = draw(st.lists(st.integers(1, 5), min_size=len(codes), max_size=len(codes)))
    return make_dataset(n_users, n_items, [
        (code // n_items, code % n_items, r) for code, r in zip(codes, ratings)])


def table_model(draw, family, data, elements):
    """A `family` model whose table covers the id space of `data`."""
    length = {"user_index": data.num_users, "item_index": data.num_items,
              "rating": NUM_RATINGS}
    shape = tuple(length[axis] for axis in AXES[family])
    table = draw(arrays(np.float64, shape, elements=elements))
    return PropensityModel(family=family, table=table)


ANY_FAMILY = st.sampled_from(FAMILIES)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), alpha1=st.floats(0.0, 20.0), alpha2=st.floats(1e-3, 20.0))
    def test_smoothed_tables_sum_to_one(self, data, alpha1, alpha2):
        train = data.draw(rating_data())
        mcar = data.draw(rating_data(st.just(train.num_users), st.just(train.num_items)))
        joint = smoothed_joint_conditional(train, alpha1)
        assert joint.sum() == pytest.approx(1.0, abs=1e-9)
        conditional = smoothed_item_given_rating(mcar, alpha2)
        np.testing.assert_allclose(conditional.sum(axis=0), 1.0, atol=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), family=ANY_FAMILY)
    def test_normalize_hits_the_mean_inverse_target_when_nothing_is_capped(
            self, data, family):
        # at most a tenth of the pairs observed puts the target at or above
        # 10, and entries within a factor 10 of each other keep every
        # rescaled score at or below 1
        train = data.draw(rating_data(st.integers(4, 12), st.integers(4, 12), max_density=0.1))
        model = table_model(data.draw, family, train, st.floats(0.01, 0.1))
        normalized = normalize(model, train)
        raw = model._raw(train.users, train.items, train.ratings)
        assert np.all(raw * normalized.scale <= 1.0)
        target = train.num_users * train.num_items / len(train)
        scores = score_dataset(normalized, train)
        assert float(np.mean(1.0 / scores)) == pytest.approx(target, rel=1e-9)
        assert normalized.normalization == "mean-inverse"

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), family=ANY_FAMILY, do_normalize=st.booleans(),
           clip_floor=st.none() | st.floats(1e-4, 1.0))
    def test_prepared_scores_lie_between_the_floor_and_one(
            self, data, family, do_normalize, clip_floor):
        train = data.draw(rating_data())
        # zero entries exercise the clip-before-normalize path; subnormal
        # ones make normalize raise
        model = table_model(data.draw, family, train,
                            st.just(0.0) | st.floats(1e-6, 1.0))
        assume(np.any(score_dataset(model, train) > 0))
        prepared = prepare(model, train, do_normalize=do_normalize, clip_floor=clip_floor)
        if clip_floor is not None:
            assert prepared.clip_floor == clip_floor
        users, items, ratings = (a.reshape(-1) for a in np.meshgrid(
            np.arange(train.num_users), np.arange(train.num_items), np.arange(1, 6)))
        scores = score_many(prepared, users, items, ratings)
        assert np.all(scores >= prepared.clip_floor) and np.all(scores <= 1.0)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), family=ANY_FAMILY, scale=st.floats(1e-3, 1e3), clip_floor=st.floats(0.0, 1.0),
           normalization=st.sampled_from(("none", "mean-inverse")),
           alphas=st.tuples(st.none() | st.floats(0.0, 20.0),
                            st.none() | st.floats(0.0, 20.0)))
    def test_save_load_round_trips(self, tmp_path_factory, data, family, scale, clip_floor,
                                   normalization, alphas):
        ids = data.draw(rating_data(st.integers(1, 5), st.integers(1, 5)))
        fields = dict(scale=scale, clip_floor=clip_floor, normalization=normalization,
                         alpha1=alphas[0], alpha2=alphas[1])
        model = replace(table_model(data.draw, family, ids, st.floats(0.0, 1.0)), **fields)
        path = tmp_path_factory.mktemp("roundtrip") / "prop.csv"
        save_propensity(model, path)
        back = load_propensity(path)
        for name in ("family", "scale", "clip_floor", "normalization", "alpha1", "alpha2"):
            assert getattr(back, name) == getattr(model, name), name
        assert back.table.tobytes() == model.table.tobytes()
        again = path.with_name("again.csv")
        save_propensity(back, again)
        assert again.read_bytes() == path.read_bytes()
