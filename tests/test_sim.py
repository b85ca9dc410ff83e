import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipsmf import sim
from ipsmf.propensity import score_many
from ipsmf.sim import (
    BLOCK_ROWS,
    DEFAULT_RATING_DISTRIBUTION,
    DEFAULT_RATING_PROPENSITIES,
    SimulationSpec,
    build_item_propensities,
    convert_to_ratings,
    generate_engagement,
    sample_observations,
    sample_unbiased,
    simulate,
)
from oracles import (
    build_item_propensities_reference,
    convert_to_ratings_reference,
    convert_to_ratings_selection_reference,
    generate_engagement_reference,
    sample_observations_reference,
    sample_unbiased_reference,
    simulate_reference,
    triples,
)
from helpers import score_one


class TestConvertToRatings:
    def test_default_distribution_constants(self):
        assert sum(DEFAULT_RATING_DISTRIBUTION) == pytest.approx(1.0, abs=1e-9)
        assert DEFAULT_RATING_DISTRIBUTION[0] == 0.5148
        assert DEFAULT_RATING_DISTRIBUTION[4] == 0.0277

    def test_hundred_distinct_cells_bucket_counts(self):
        # floor of cumulative fractions (51.48, 76.73, 91.69, 97.23) gives
        # boundaries 51, 76, 91, 97; the remainder joins the top bucket
        rng = np.random.default_rng(0)
        engagement = rng.permutation(100).reshape(10, 10).astype(float)
        ratings = convert_to_ratings(engagement, DEFAULT_RATING_DISTRIBUTION)
        counts = np.bincount(ratings.ravel(), minlength=6)[1:]
        np.testing.assert_array_equal(counts, [51, 25, 15, 6, 3])

    def test_order_respected(self):
        engagement = np.array([[0.9, 0.1, 0.5, 0.3]])
        ratings = convert_to_ratings(engagement, (0.5, 0.25, 0.15, 0.05, 0.05))
        # lowest half -> rating 1, and the global maximum gets the top bucket
        assert ratings[0, 1] == 1 and ratings[0, 3] == 1
        assert ratings[0, 0] == ratings.max()

    def test_constant_matrix_stable_ties(self):
        engagement = np.zeros((2, 5))
        ratings = convert_to_ratings(engagement, (0.5, 0.2, 0.1, 0.1, 0.1))
        # stable sort keeps array order, so the first flattened half gets 1
        np.testing.assert_array_equal(ratings.ravel(), [1, 1, 1, 1, 1, 2, 2, 3, 4, 5])

    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError):
            convert_to_ratings(np.zeros((2, 2)), (0.5, 0.2, 0.1, 0.1, 0.2))

    def test_rejects_negative_distribution_entry(self):
        with pytest.raises(ValueError, match="nonnegative"):
            convert_to_ratings(np.zeros((2, 2)), (0.6, -0.1, 0.3, 0.1, 0.1))

    def test_rejects_nan_distribution_entry(self):
        # it used to pass both checks and rate every cell 5
        message = ("target_rating_distribution must be nonnegative and sum to 1, "
                   "got (nan, 0.2, 0.1, 0.1, 0.1)")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            convert_to_ratings(np.zeros((2, 2)), (math.nan, 0.2, 0.1, 0.1, 0.1))

    def test_rejects_nan_engagement_with_count(self):
        engagement = np.arange(12.0).reshape(3, 4)
        engagement[0, 1] = engagement[2, 3] = np.nan
        with pytest.raises(ValueError, match="2 NaN"):
            convert_to_ratings(engagement)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("distribution", [
        DEFAULT_RATING_DISTRIBUTION,
        (0.2, 0.2, 0.2, 0.2, 0.2),
        (0.5, 0.0, 0.25, 0.25, 0.0),  # zero-mass buckets repeat a boundary
    ])
    def test_tie_heavy_grid_matches_stable_argsort(self, seed, distribution):
        # 3 distinct values over 40 x 30 cells: every boundary falls in a tie
        engagement = np.random.default_rng(seed).integers(0, 3, size=(40, 30)).astype(float)
        np.testing.assert_array_equal(
            convert_to_ratings(engagement, distribution),
            convert_to_ratings_reference(engagement, distribution),
        )

    @pytest.mark.parametrize("shape, distribution", [
        ((7, 9), DEFAULT_RATING_DISTRIBUTION),  # all cells equal
        ((2, 2), (0.1, 0.1, 0.1, 0.1, 0.6)),  # boundaries at 0
        ((3, 3), (0.0, 0.0, 0.5, 0.5, 0.0)),  # boundaries at 0 and at n
        ((2, 2), (1.0, 0.0, 0.0, 0.0, 0.0)),  # every boundary at n
        ((3, 3), (0.0, 0.0, 0.0, 0.0, 1.0)),  # every boundary at 0
    ])
    def test_constant_and_edge_boundaries_match_stable_argsort(self, shape, distribution):
        engagement = np.full(shape, 0.5)
        np.testing.assert_array_equal(
            convert_to_ratings(engagement, distribution),
            convert_to_ratings_reference(engagement, distribution),
        )

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.integers(-2, 2), min_size=1, max_size=60),
        weights=st.lists(st.integers(0, 5), min_size=5, max_size=5).filter(any),
    )
    def test_property_matches_stable_argsort(self, values, weights):
        engagement = np.array(values, dtype=float).reshape(1, -1)
        distribution = tuple(w / sum(weights) for w in weights)
        ratings = convert_to_ratings(engagement, distribution)
        np.testing.assert_array_equal(
            ratings, convert_to_ratings_reference(engagement, distribution)
        )


def spy_on_selection(monkeypatch):
    """Record the size of every array ``convert_to_ratings`` partitions."""
    sizes = []
    select = sim._select_ranks

    def spy(cells, ranks):
        sizes.append(cells.size)
        return select(cells, ranks)

    monkeypatch.setattr(sim, "_select_ranks", spy)
    return sizes


class TestBracketedSelection:
    """The sampled brackets decide only the cost of the conversion: where they
    hold, only a small candidate set is partitioned, and where they fail the
    full partition gives the same ratings."""

    def engagement(self, distinct):
        # 400 x 300 cells exceed the sample; with few distinct values every
        # boundary falls inside a run of ties that spans many row blocks
        rng = np.random.default_rng(5)
        if distinct is None:
            return rng.normal(size=(400, 300))
        return rng.integers(0, distinct, size=(400, 300)).astype(float)

    @pytest.mark.parametrize("distinct", [None, 500, 50])
    @pytest.mark.parametrize("distribution", [
        DEFAULT_RATING_DISTRIBUTION,
        (0.5, 0.0, 0.25, 0.25, 0.0),  # zero-mass buckets repeat a boundary
    ])
    @pytest.mark.parametrize("block_rows", [7, BLOCK_ROWS])
    def test_matches_stable_argsort_without_full_partition(
            self, monkeypatch, distinct, distribution, block_rows):
        # at 50 values a bracket mostly lies inside one run of ties, so both
        # of its ends are the boundary value
        monkeypatch.setattr(sim, "BLOCK_ROWS", block_rows)
        engagement = self.engagement(distinct)
        sizes = spy_on_selection(monkeypatch)
        got = convert_to_ratings(engagement, distribution)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(
            got, convert_to_ratings_reference(engagement, distribution))
        assert sizes and max(sizes) <= engagement.size // 4

    @pytest.mark.parametrize("block_rows", [7, BLOCK_ROWS])
    def test_rejects_nan_with_count(self, monkeypatch, block_rows):
        # counted in the pass that rates the blocks, before any selection
        monkeypatch.setattr(sim, "BLOCK_ROWS", block_rows)
        engagement = self.engagement(None)
        engagement[3, 5] = engagement[399, 299] = np.nan
        sizes = spy_on_selection(monkeypatch)
        with pytest.raises(ValueError, match="2 NaN cells of 120000"):
            convert_to_ratings(engagement)
        assert sizes == []

    def test_ties_over_a_quarter_of_the_cells_fall_back(self, monkeypatch):
        # at 10 values the four boundary runs hold about 40% of the cells:
        # collecting them would cost more than the one partitioned copy
        engagement = self.engagement(10)
        sizes = spy_on_selection(monkeypatch)
        got = convert_to_ratings(engagement)
        assert sizes == [engagement.size]
        np.testing.assert_array_equal(
            got, convert_to_ratings_reference(engagement, DEFAULT_RATING_DISTRIBUTION))

    @pytest.mark.parametrize("shape, seeds", [((3000, 1000), [0, 1, 2]), ((15400, 1000), [1])])
    def test_no_fallback_at_benchmark_shapes(self, monkeypatch, shape, seeds):
        n = shape[0] * shape[1]
        sizes = spy_on_selection(monkeypatch)
        for seed in seeds:
            engagement = generate_engagement(*shape, seed=[seed, 0])
            sizes.clear()
            ratings = convert_to_ratings(engagement)
            assert len(sizes) == 4 and max(sizes) < n // 16, sizes
            counts = np.bincount(ratings.ravel(), minlength=6)[1:]
            cuts = np.floor(np.cumsum(DEFAULT_RATING_DISTRIBUTION) * n + 1e-9)
            np.testing.assert_array_equal(counts, np.diff(cuts, prepend=0))

    @pytest.mark.parametrize("sample_size", [2, 64])
    def test_too_small_a_sample_falls_back(self, monkeypatch, sample_size):
        # brackets this wide hold more than a quarter of the cells
        monkeypatch.setattr(sim, "_SAMPLE_SIZE", sample_size)
        engagement = generate_engagement_reference(40, 30, [3, 0])
        sizes = spy_on_selection(monkeypatch)
        got = convert_to_ratings(engagement)
        assert sizes == [engagement.size]
        want = convert_to_ratings_selection_reference(engagement, DEFAULT_RATING_DISTRIBUTION)
        assert got.astype(np.int64).tobytes() == want.tobytes()

    def test_unrepresentative_sample_falls_back(self, monkeypatch):
        # every sampled cell lies far above every other cell, so the boundary
        # ranks fall outside the brackets the sample gives
        monkeypatch.setattr(sim, "BLOCK_ROWS", 50)
        shape = (200, 500)
        n = shape[0] * shape[1]
        rng = np.random.default_rng(8)
        flat = rng.random(n)
        sampled = np.random.default_rng(sim._SAMPLE_SEED).integers(0, n, size=sim._SAMPLE_SIZE)
        flat[sampled] += 10.0
        engagement = flat.reshape(shape)
        sizes = spy_on_selection(monkeypatch)
        got = convert_to_ratings(engagement)
        assert sizes[-1] == n
        want = convert_to_ratings_selection_reference(engagement, DEFAULT_RATING_DISTRIBUTION)
        assert got.astype(np.int64).tobytes() == want.tobytes()

    @pytest.mark.parametrize("sample_size", [2, 64, 1 << 16])
    @pytest.mark.parametrize("shape, distribution", [
        ((7, 9), DEFAULT_RATING_DISTRIBUTION),  # all cells equal
        ((20, 30), (0.0, 0.0, 0.5, 0.5, 0.0)),  # boundaries at 0 and at n
        ((20, 30), (1.0, 0.0, 0.0, 0.0, 0.0)),  # every boundary at n
        ((20, 30), (0.0, 0.0, 0.0, 0.0, 1.0)),  # every boundary at 0
    ])
    def test_constant_grid_any_sample_size(self, monkeypatch, sample_size, shape,
                                           distribution):
        monkeypatch.setattr(sim, "_SAMPLE_SIZE", sample_size)
        engagement = np.full(shape, 0.5)
        np.testing.assert_array_equal(
            convert_to_ratings(engagement, distribution),
            convert_to_ratings_reference(engagement, distribution),
        )


class TestItemPropensities:
    def test_rank_at_k_min(self):
        # one item per rank; ranks follow average rating descending
        truth = np.tile(np.arange(30, 0, -1), (3, 1))  # item 0 highest avg
        truth = np.clip(truth % 5 + 1, 1, 5)
        rho, _ = build_item_propensities(truth, eta=1.4, k_min=20)
        ranks = np.argsort(-truth.mean(axis=0), kind="stable")
        item_at_rank_20 = ranks[19]
        assert rho[item_at_rank_20] == pytest.approx(0.4 * 1.0, abs=1e-12)

    def test_top_rank_capped_at_one(self):
        raw_rank1 = 0.4 * (1 / 20) ** -1.4
        assert raw_rank1 == pytest.approx(0.4 * math.pow(20, 1.4))
        assert raw_rank1 > 1.0
        truth = np.ones((2, 25), dtype=int)
        truth[:, 0] = 5  # item 0 takes rank 1
        rho, capped = build_item_propensities(truth, eta=1.4, k_min=20)
        assert rho[0] == 1.0
        assert capped >= 1

    def test_deep_rank_below_threshold(self):
        value = 0.4 * (3327 / 20) ** -1.4
        assert value < 0.001
        n_items = 3327
        truth = np.ones((2, n_items), dtype=int)
        rho, _ = build_item_propensities(truth, eta=1.4, k_min=20)
        # with all-equal averages, ranks follow item index; the last item has
        # rank 3327
        assert rho[-1] == pytest.approx(value, abs=1e-12)

    def test_ranks_by_average_rating_with_index_ties(self):
        truth = np.array([[5, 1, 5], [5, 1, 5]])  # items 0 and 2 tie
        rho, _ = build_item_propensities(truth, eta=1.4, k_min=2)
        assert rho[0] >= rho[2] > rho[1]

    def test_rejects_bad_parameters(self):
        truth = np.ones((2, 2), dtype=int)
        with pytest.raises(ValueError):
            build_item_propensities(truth, eta=1.0)
        with pytest.raises(ValueError):
            build_item_propensities(truth, eta=1.4, k_min=0)
        for eta in (math.nan, math.inf):  # both passed a check written `eta <= 1`
            with pytest.raises(ValueError, match="powerlaw_eta must be finite and above 1"):
                build_item_propensities(truth, eta=eta)


class TestSampleObservations:
    def fixture(self):
        rng = np.random.default_rng(3)
        truth = rng.integers(1, 6, size=(6, 4))
        rho_r = np.array(DEFAULT_RATING_PROPENSITIES)
        rho_i = np.array([0.9, 0.5, 0.2, 0.05])
        return truth, rho_r, rho_i

    def test_gamma_zero_depends_only_on_item(self):
        truth, rho_r, rho_i = self.fixture()
        _, model = sample_observations(truth, rho_r, rho_i, gamma=0.0, seed=0)
        table = model.table
        np.testing.assert_allclose(table, np.tile(rho_i[:, None], (1, 5)), atol=1e-15)

    def test_gamma_one_depends_only_on_rating(self):
        truth, rho_r, rho_i = self.fixture()
        _, model = sample_observations(truth, rho_r, rho_i, gamma=1.0, seed=0)
        table = model.table
        np.testing.assert_allclose(table, np.tile(rho_r[None, :], (4, 1)), atol=1e-15)
        assert table[0, 4] == pytest.approx(0.1795)

    def test_midpoint_interpolation_arithmetic(self):
        truth = np.full((2, 1), 5)
        _, model = sample_observations(
            truth, np.array(DEFAULT_RATING_PROPENSITIES), np.array([0.05]),
            gamma=0.5, seed=0,
        )
        assert score_one(model, 0, 0, 5) == pytest.approx(0.11475, abs=1e-12)

    def test_ground_truth_model_matches_sampling_probability(self):
        truth, rho_r, rho_i = self.fixture()
        gamma = 0.35
        _, model = sample_observations(truth, rho_r, rho_i, gamma=gamma, seed=1)
        for u in range(truth.shape[0]):
            for i in range(truth.shape[1]):
                expected = gamma * rho_r[truth[u, i] - 1] + (1 - gamma) * rho_i[i]
                assert score_one(model, u, i, truth[u, i]) == pytest.approx(
                    expected, abs=1e-15
                )

    def test_empirical_frequency_converges(self):
        # 10^4 repeats; every cell's observation count stays within 4 sigma of
        # its binomial expectation
        truth = np.array([[1, 3, 5], [5, 1, 2], [2, 4, 1], [3, 5, 4]])
        rho_r = np.array([0.05, 0.1, 0.2, 0.4, 0.8])
        rho_i = np.array([0.3, 0.6, 0.1])
        gamma = 0.5
        p = gamma * rho_r[truth - 1] + (1 - gamma) * rho_i[None, :]
        repeats = 10_000
        counts = np.zeros_like(p)
        root = np.random.default_rng(7)
        for _ in range(repeats):
            counts += root.random(truth.shape) < p
        sigma = np.sqrt(repeats * p * (1 - p))
        assert np.all(np.abs(counts - repeats * p) <= 4 * sigma)

    def test_deterministic_per_seed(self):
        truth, rho_r, rho_i = self.fixture()
        a, _ = sample_observations(truth, rho_r, rho_i, gamma=0.4, seed=9)
        b, _ = sample_observations(truth, rho_r, rho_i, gamma=0.4, seed=9)
        assert triples(a) == triples(b)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    @pytest.mark.parametrize("bad", [0, 6])
    def test_rejects_rating_outside_scale(self, dtype, bad):
        # unchecked, a uint8 0 wraps to index 255 and an int64 0 is sampled
        # with rating 5's propensity
        truth, rho_r, rho_i = self.fixture()
        truth = truth.astype(dtype)
        truth[2, 3] = bad
        with pytest.raises(ValueError, match=rf"true rating {bad} outside .* \(1, 5\)"):
            sample_observations(truth, rho_r, rho_i, gamma=0.4, seed=0)

    @pytest.mark.parametrize("gamma, rho_i", [
        (1.5, [1.0, 0.5, 0.0, 0.0]),  # 1.5 * 1 - 0.5 * 0 at rating 5
        (-0.5, [1.0, 0.5, 0.0, 0.0]),  # -0.5 * 0 + 1.5 * 1 at item 0
        (0.0, [1.2, 0.5, 0.2, 0.05]),
    ])
    def test_rejects_propensity_outside_unit_interval(self, gamma, rho_i):
        # a ValueError, not an assert, so that python -O keeps the check
        truth, _, _ = self.fixture()
        rho_r = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            sample_observations(truth, rho_r, np.array(rho_i), gamma=gamma, seed=0)


class TestSampleUnbiased:
    def test_pool_and_split_sizes(self):
        truth = np.random.default_rng(0).integers(1, 6, size=(1411, 50))
        mcar, test = sample_unbiased(truth, per_user=40, mcar_fraction=0.2, seed=2)
        assert len(mcar) + len(test) == 1411 * 40 == 56_440
        assert (len(mcar), len(test)) == (11_288, 45_152)

    def test_per_user_all_items(self):
        truth = np.random.default_rng(1).integers(1, 6, size=(5, 8))
        mcar, test = sample_unbiased(truth, per_user=8, mcar_fraction=0.25, seed=0)
        merged_users = np.concatenate([mcar.users, test.users])
        assert np.all(np.bincount(merged_users, minlength=5) == 8)

    def test_sampling_without_replacement(self):
        truth = np.random.default_rng(2).integers(1, 6, size=(7, 10))
        mcar, test = sample_unbiased(truth, per_user=6, mcar_fraction=0.3, seed=4)
        pairs = set(zip(mcar.users.tolist(), mcar.items.tolist()))
        pairs |= set(zip(test.users.tolist(), test.items.tolist()))
        assert len(pairs) == 7 * 6

    def test_ratings_come_from_truth(self):
        truth = np.random.default_rng(3).integers(1, 6, size=(4, 5))
        mcar, test = sample_unbiased(truth, per_user=3, mcar_fraction=0.3, seed=5)
        for ds in (mcar, test):
            for u, i, r in triples(ds):
                assert truth[u, i] == r

    @pytest.mark.parametrize("seed", [0, 7, 31])
    @pytest.mark.parametrize("per_user", [1, 3, 100, 300])
    def test_matches_full_argsort(self, seed, per_user):
        # more users than one block of keys, so the draw spans two blocks;
        # at 100 of 300 items argpartition leaves the chosen keys unsorted
        truth = np.random.default_rng(seed).integers(1, 6, size=(1100, 300))
        got = sample_unbiased(truth, per_user, mcar_fraction=0.2, seed=seed)
        want = sample_unbiased_reference(truth, per_user, mcar_fraction=0.2, seed=seed)
        for a, b in zip(got, want):
            assert triples(a) == triples(b)

    def test_rejects_per_user_above_item_count(self):
        truth = np.ones((3, 4), dtype=int)
        with pytest.raises(ValueError):
            sample_unbiased(truth, per_user=5, mcar_fraction=0.2, seed=0)

    def test_pool_memory_is_compact(self, monkeypatch):
        # 65 row blocks of 32 users, so the 81,960-triple pool and its split,
        # not a block's keys, set the peak: about 40 bytes per pool triple,
        # against 70 while the pool and its copies were int64
        monkeypatch.setattr(sim, "BLOCK_ROWS", 32)
        num_users, num_items, per_user = 2049, 2000, 40
        truth = np.random.default_rng(0).integers(1, 6, size=(num_users, num_items))
        truth = truth.astype(np.uint8)
        tracemalloc.start()
        try:
            sample_unbiased(truth, per_user, mcar_fraction=0.2, seed=[0, 2])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 45 * num_users * per_user, peak / (num_users * per_user)


class TestSimulationSpec:
    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError, match="gamma"):
            SimulationSpec(num_users=10, num_items=10, gamma=1.3)

    def test_bad_rating_propensities(self):
        with pytest.raises(ValueError):
            SimulationSpec(num_users=10, num_items=10, gamma=0.5,
                           rating_propensities=(0.1, 0.2, 0.0, 0.3, 0.4))

    def test_bad_distribution(self):
        with pytest.raises(ValueError):
            SimulationSpec(num_users=10, num_items=10, gamma=0.5,
                           target_rating_distribution=(0.5, 0.2, 0.2, 0.2, 0.1))

    @pytest.mark.parametrize("field, value", [
        ("target_rating_distribution", (0.5, 0.2, 0.1, 0.1, 0.05, 0.05)),
        ("rating_propensities", (0.1, 0.2, 0.3)),
    ])
    def test_rating_lists_need_one_entry_per_rating(self, field, value):
        # a sixth rating used to fail only in sample_observations, and three
        # propensities with an IndexError
        with pytest.raises(ValueError, match=f"{field} needs one entry per rating 1..5, "
                                             f"got {len(value)}"):
            SimulationSpec(num_users=10, num_items=10, gamma=0.5, **{field: value})

    @pytest.mark.parametrize("num_users, num_items", [(0, 10), (10, 0), (-1, 10)])
    def test_id_space_must_be_nonempty(self, num_users, num_items):
        field, value = ("num_users", num_users) if num_users < 1 else ("num_items", num_items)
        with pytest.raises(ValueError, match=f"^{field} must be at least 1, got {value}$"):
            SimulationSpec(num_users=num_users, num_items=num_items, gamma=0.5)

    @pytest.mark.parametrize("field, value, rule", [
        ("gamma", math.nan, r"in \[0, 1\]"),
        ("powerlaw_eta", math.nan, "finite and above 1"),
        ("powerlaw_eta", math.inf, "finite and above 1"),
        ("powerlaw_eta", 1.0, "finite and above 1"),
        ("k_min", 0, "at least 1"),
        ("unbiased_per_user", 0, "at least 1"),
        ("mcar_fraction", math.nan, r"in \(0, 1\)"),
        ("train_fraction", 1.0, r"in \(0, 1\)"),
        ("engagement_rank", -1, "nonnegative"),
        ("engagement_noise", -1.0, "finite and nonnegative"),
        ("engagement_noise", math.nan, "finite and nonnegative"),
        ("engagement_noise", math.inf, "finite and nonnegative"),
        ("engagement_format", "sparse", "dense or triples"),
        ("rating_propensities", (0.1, 0.2, math.nan, 0.3, 0.4), r"in \(0, 1\] at every rating"),
        ("target_rating_distribution", (math.nan, 0.2, 0.1, 0.1, 0.1),
         "nonnegative and sum to 1"),
        ("target_rating_distribution", (1.2, -0.2, 0.0, 0.0, 0.0), "nonnegative and sum to 1"),
    ])
    def test_field_rules_reject_nan_and_bounds(self, field, value, rule):
        # each rule is `not holds(value)`, so NaN, which fails every
        # comparison, is rejected with the rest
        with pytest.raises(ValueError, match=f"^{field} must be {rule}, got "):
            SimulationSpec(**{**dict(num_users=10, num_items=10, gamma=0.5,
                                     unbiased_per_user=5), field: value})

    def test_unbiased_per_user_at_most_num_items(self):
        with pytest.raises(ValueError, match="unbiased_per_user must be at most num_items = 10, "
                                             "got 11"):
            SimulationSpec(num_users=10, num_items=10, gamma=0.5, unbiased_per_user=11)

    def test_rank_zero_engagement_is_valid(self):
        # rank 0 leaves the item quality and the noise
        spec = SimulationSpec(num_users=10, num_items=10, gamma=0.5, unbiased_per_user=5,
                              engagement_rank=0)
        assert simulate(spec).truth.shape == (10, 10)


class TestSimulate:
    def spec(self, **kw):
        base = dict(num_users=40, num_items=30, gamma=0.5, seed=11,
                    unbiased_per_user=10)
        base.update(kw)
        return SimulationSpec(**base)

    def test_bundle_shapes_and_sizes(self):
        result = simulate(self.spec())
        bundle = result.bundle
        pool = 40 * 10
        assert len(bundle.mcar) == int(0.2 * pool)
        assert len(bundle.test) == pool - len(bundle.mcar)
        n_biased = len(bundle.train) + len(bundle.validation)
        assert len(bundle.validation) == int(np.floor(0.2 * n_biased + 1e-9))
        assert result.truth.shape == (40, 30)
        assert result.truth.min() >= 1 and result.truth.max() <= 5

    def test_deterministic(self):
        a = simulate(self.spec())
        b = simulate(self.spec())
        assert triples(a.bundle.train) == triples(b.bundle.train)
        assert triples(a.bundle.test) == triples(b.bundle.test)
        np.testing.assert_array_equal(
            a.ground_truth_propensities.table,
            b.ground_truth_propensities.table,
        )

    def test_ground_truth_scores_all_train_triples(self):
        result = simulate(self.spec())
        train = result.bundle.train
        scores = score_many(result.ground_truth_propensities, train.users,
                            train.items, train.ratings)
        assert np.all(scores > 0) and np.all(scores <= 1)

    def test_marginal_rating_distribution_matches_target(self):
        result = simulate(self.spec(num_users=60, num_items=50))
        counts = np.bincount(result.truth.ravel(), minlength=6)[1:]
        fractions = counts / counts.sum()
        np.testing.assert_allclose(fractions, DEFAULT_RATING_DISTRIBUTION, atol=0.001)

    def test_engagement_generator_shapes(self):
        eng = generate_engagement(12, 9, seed=4)
        assert eng.shape == (12, 9)
        assert np.isfinite(eng).all()

    def test_engagement_file_input(self, tmp_path):
        eng = generate_engagement(8, 6, seed=1)
        path = tmp_path / "eng.csv"
        np.savetxt(path, eng, delimiter=",")
        result = simulate(self.spec(num_users=8, num_items=6, unbiased_per_user=4,
                                    engagement_path=str(path)))
        expected = convert_to_ratings(np.loadtxt(path, delimiter=","))
        np.testing.assert_array_equal(result.truth, expected)

    def test_engagement_triples_input(self, tmp_path):
        eng = generate_engagement(8, 6, seed=1)
        path = tmp_path / "eng_triples.csv"
        with open(path, "w") as fh:
            for u in range(8):
                for i in range(6):
                    fh.write(f"{u},{i},{float(eng[u, i])!r}\n")
        result = simulate(self.spec(num_users=8, num_items=6, unbiased_per_user=4,
                                    engagement_path=str(path),
                                    engagement_format="triples"))
        np.testing.assert_array_equal(result.truth, convert_to_ratings(eng))

    def test_engagement_file_with_nan_names_the_file(self, tmp_path):
        eng = generate_engagement(4, 3, seed=1)
        eng[1, 2] = np.nan
        path = tmp_path / "eng_nan.csv"
        np.savetxt(path, eng, delimiter=",")
        with pytest.raises(ValueError, match=r"eng_nan\.csv.*1 NaN"):
            simulate(self.spec(num_users=4, num_items=3, unbiased_per_user=2,
                               engagement_path=str(path)))

    def test_engagement_triples_with_nan_name_the_file(self, tmp_path):
        path = tmp_path / "nan_triples.csv"
        path.write_text("0,0,1.5\n0,1,nan\n1,0,0.5\n1,1,2.0\n")
        with pytest.raises(ValueError, match=r"nan_triples\.csv.*1 NaN"):
            simulate(self.spec(num_users=2, num_items=2, unbiased_per_user=1,
                               engagement_path=str(path),
                               engagement_format="triples"))

    def test_engagement_triples_must_cover_all_cells(self, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text("0,0,1.5\n0,1,0.5\n")
        with pytest.raises(ValueError, match="uncovered"):
            simulate(self.spec(num_users=2, num_items=2, unbiased_per_user=1,
                               engagement_path=str(path),
                               engagement_format="triples"))


def dataset_bytes(data):
    return tuple((a.dtype.str, a.tobytes()) for a in (data.users, data.items, data.ratings))


def bundle_bytes(bundle):
    return tuple(dataset_bytes(getattr(bundle, name))
                 for name in ("train", "validation", "mcar", "test"))


# one row, one block short of full, one full block, one row over, and a
# partial third block
BLOCK_USER_COUNTS = [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]
# the same user counts with an int64 truth, then with the uint8 truth that
# convert_to_ratings writes; the references always read the int64 one
TRUTH_CASES = (
    [pytest.param(n, np.int64, id=str(n)) for n in BLOCK_USER_COUNTS]
    + [pytest.param(n, np.uint8, id=f"{n}-uint8") for n in BLOCK_USER_COUNTS]
)


class TestBlockedStagesMatchWholeMatrix:
    """The row-blocked stages equal the whole-matrix bodies they replaced, bit
    for bit, whatever the user count's position relative to the block size."""

    @pytest.mark.parametrize("num_users", BLOCK_USER_COUNTS)
    def test_generate_engagement(self, num_users):
        got = generate_engagement(num_users, 23, seed=[num_users, 0], rank=3, noise=0.7)
        want = generate_engagement_reference(num_users, 23, [num_users, 0], 3, 0.7)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("num_users", BLOCK_USER_COUNTS)
    @pytest.mark.parametrize("ties", [False, True])
    def test_convert_to_ratings(self, num_users, ties):
        engagement = generate_engagement_reference(num_users, 23, [num_users, 1])
        if ties:
            engagement = np.round(engagement)
        got = convert_to_ratings(engagement)
        want = convert_to_ratings_selection_reference(engagement, DEFAULT_RATING_DISTRIBUTION)
        assert got.dtype == np.uint8 and got.shape == want.shape
        assert got.astype(np.int64).tobytes() == want.tobytes()

    @pytest.mark.parametrize("num_users, dtype", TRUTH_CASES)
    def test_build_item_propensities(self, num_users, dtype):
        truth = np.random.default_rng(num_users).integers(1, 6, size=(num_users, 60))
        got, got_capped = build_item_propensities(truth.astype(dtype), eta=1.3, k_min=5)
        want, want_capped = build_item_propensities_reference(truth, eta=1.3, k_min=5)
        assert got.tobytes() == want.tobytes() and got_capped == want_capped

    @pytest.mark.parametrize("num_users, dtype", TRUTH_CASES)
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_sample_observations(self, num_users, gamma, dtype):
        rng = np.random.default_rng(num_users)
        truth = rng.integers(1, 6, size=(num_users, 23))
        rho_r = np.array(DEFAULT_RATING_PROPENSITIES) * 3
        rho_i = rng.random(23)
        got, got_model = sample_observations(truth.astype(dtype), rho_r, rho_i, gamma,
                                             seed=[7, 1])
        want, want_model = sample_observations_reference(truth, rho_r, rho_i, gamma, [7, 1])
        assert dataset_bytes(got) == dataset_bytes(want)
        assert got_model.table.tobytes() == want_model.table.tobytes()

    def assert_simulate_matches(self, spec):
        result = simulate(spec)
        truth, bundle, model = simulate_reference(spec)
        assert result.truth.dtype == np.uint8
        assert result.truth.astype(np.int64).tobytes() == truth.tobytes()
        assert bundle_bytes(result.bundle) == bundle_bytes(bundle)
        assert result.ground_truth_propensities.table.tobytes() == model.table.tobytes()

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_simulate(self, gamma):
        self.assert_simulate_matches(SimulationSpec(
            num_users=2 * BLOCK_ROWS + 3, num_items=40, gamma=gamma, seed=5,
            unbiased_per_user=10,
        ))

    @pytest.mark.parametrize("block_rows", [1, 7, 50, 10_000])
    def test_simulate_does_not_depend_on_block_size(self, monkeypatch, block_rows):
        monkeypatch.setattr(sim, "BLOCK_ROWS", block_rows)
        self.assert_simulate_matches(SimulationSpec(
            num_users=50, num_items=30, gamma=0.5, seed=2, unbiased_per_user=10,
        ))

    @pytest.mark.parametrize("num_users, num_items, rank, seed", [
        (5000, 300, 8, 0),
        (1500, 500, 4, 2),  # the shape and seeds of the CI BLAS thread-count step
        (1500, 500, 4, 3),
        (1025, 1000, 4, 0),  # a one-row tail block
    ])
    def test_simulate_where_block_products_may_differ(self, num_users, num_items, rank, seed):
        # OpenBLAS picks its kernel by the product's shape, so a row block's
        # product can differ from the one-call product in the last bit (tens
        # of cells at the first three shapes); the ratings depend on the
        # engagement only through its rank order
        self.assert_simulate_matches(SimulationSpec(
            num_users=num_users, num_items=num_items, gamma=0.5, seed=seed,
            engagement_rank=rank,
        ))

    def test_simulate_after_a_pilot_miss(self, monkeypatch):
        # the first 7-row block (70,000 cells, more than the sample) holds
        # too few users to represent the whole matrix, so the brackets from
        # its sample miss; the second pass brackets the ranks from the
        # whole-matrix sample that the first one gathered
        monkeypatch.setattr(sim, "BLOCK_ROWS", 7)
        made = []
        brackets = sim._brackets

        def spy(*args):
            made.append(brackets(*args))
            return made[-1]

        monkeypatch.setattr(sim, "_brackets", spy)
        sizes = spy_on_selection(monkeypatch)
        num_users, num_items = 40, 10_000
        self.assert_simulate_matches(SimulationSpec(
            num_users=num_users, num_items=num_items, gamma=0.5, seed=0,
        ))
        assert len(made) == 2
        assert sizes and max(sizes) <= num_users * num_items // 4


class TestDrawPieces:
    """The random draws run on pieces of whole rows, at most ``_DRAW_CELLS``
    cells and BLOCK_ROWS rows each, and equal the whole-matrix draws bit for
    bit: a block splits into several pieces, the last one partial."""

    @pytest.mark.parametrize("num_rows, num_items, draw_cells, block_rows", [
        (2051, 23, 74, BLOCK_ROWS),  # 3 rows a piece, 1 row in the last
        (10, 23, 1, BLOCK_ROWS),  # fewer cells than a row: one row a piece
        (1000, 4, 1 << 18, 32),  # BLOCK_ROWS binds before the cell count
        (0, 23, 74, BLOCK_ROWS),
    ])
    def test_pieces_cover_the_rows(self, monkeypatch, num_rows, num_items, draw_cells,
                                   block_rows):
        monkeypatch.setattr(sim, "_DRAW_CELLS", draw_cells)
        monkeypatch.setattr(sim, "BLOCK_ROWS", block_rows)
        pieces = list(sim._draw_pieces(num_rows, num_items))
        assert [row for a, b in pieces for row in range(a, b)] == list(range(num_rows))
        for a, b in pieces:
            assert 1 <= b - a <= block_rows
            assert b - a == 1 or (b - a) * num_items <= draw_cells

    @pytest.mark.parametrize("draw_cells", [1, 74])
    @pytest.mark.parametrize("num_users", [BLOCK_ROWS - 1, 2 * BLOCK_ROWS + 3])
    def test_generate_engagement(self, monkeypatch, num_users, draw_cells):
        monkeypatch.setattr(sim, "_DRAW_CELLS", draw_cells)
        got = generate_engagement(num_users, 23, seed=[num_users, 0], rank=3, noise=0.7)
        want = generate_engagement_reference(num_users, 23, [num_users, 0], 3, 0.7)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("draw_cells", [1, 74])
    @pytest.mark.parametrize("num_users", [1, 100, BLOCK_ROWS + 1])
    def test_sample_observations(self, monkeypatch, num_users, draw_cells):
        monkeypatch.setattr(sim, "_DRAW_CELLS", draw_cells)
        rng = np.random.default_rng(num_users)
        truth = rng.integers(1, 6, size=(num_users, 23))
        rho_r = np.array(DEFAULT_RATING_PROPENSITIES) * 3
        rho_i = rng.random(23)
        got, got_model = sample_observations(truth.astype(np.uint8), rho_r, rho_i, 0.5,
                                             seed=[7, 1])
        want, want_model = sample_observations_reference(truth, rho_r, rho_i, 0.5, [7, 1])
        assert dataset_bytes(got) == dataset_bytes(want)
        assert got_model.table.tobytes() == want_model.table.tobytes()

    @pytest.mark.parametrize("draw_cells", [1, 7 * 300 + 1])
    @pytest.mark.parametrize("per_user", [1, 100])
    def test_sample_unbiased(self, monkeypatch, per_user, draw_cells):
        # 1,100 users in pieces of 1 or 7 rows: the last 7-row piece is 1 row
        monkeypatch.setattr(sim, "_DRAW_CELLS", draw_cells)
        truth = np.random.default_rng(per_user).integers(1, 6, size=(1100, 300))
        got = sample_unbiased(truth.astype(np.uint8), per_user, mcar_fraction=0.2, seed=3)
        want = sample_unbiased_reference(truth, per_user, mcar_fraction=0.2, seed=3)
        for a, b in zip(got, want):
            assert triples(a) == triples(b)

    @pytest.mark.parametrize("draw_cells", [1, 100])
    def test_simulate(self, monkeypatch, draw_cells):
        monkeypatch.setattr(sim, "_DRAW_CELLS", draw_cells)
        monkeypatch.setattr(sim, "BLOCK_ROWS", 7)
        TestBlockedStagesMatchWholeMatrix().assert_simulate_matches(SimulationSpec(
            num_users=50, num_items=30, gamma=0.5, seed=2, unbiased_per_user=10,
        ))


def test_every_split_takes_nine_bytes_per_triple():
    result = simulate(SimulationSpec(num_users=300, num_items=200, gamma=0.5, seed=4))
    for name in ("train", "validation", "mcar", "test"):
        split = getattr(result.bundle, name)
        assert len(split) > 0, name
        nbytes = split.users.nbytes + split.items.nbytes + split.ratings.nbytes
        assert nbytes == 9 * len(split), name


def test_simulate_peak_memory_is_about_two_dense_matrices():
    # the dense stages hold at most two user x item 8-byte matrices plus one
    # row block; whole-matrix temporaries pushed this past four
    num_users, num_items = 3000, 1000
    spec = SimulationSpec(num_users=num_users, num_items=num_items, gamma=0.5, seed=0)
    tracemalloc.start()
    try:
        simulate(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * num_users * num_items * 8, peak / (num_users * num_items * 8)


def test_simulate_peak_memory_is_one_dense_matrix_and_a_block():
    # no full-size 8-byte array is live: the engagement is made and rated a
    # row block (a third of a matrix at this shape) at a time, beside
    # one-byte-per-cell arrays; the bound dates from the whole engagement
    # matrix
    num_users, num_items = 3000, 1000
    spec = SimulationSpec(num_users=num_users, num_items=num_items, gamma=0.5, seed=0)
    tracemalloc.start()
    try:
        simulate(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * num_users * num_items * 8, peak / (num_users * num_items * 8)


def test_simulate_peak_memory_is_under_half_a_dense_matrix(monkeypatch):
    # 17 row blocks: what is live is one-byte-per-cell arrays (the ratings,
    # the observation mask), the rating candidates (about 0.6 byte per cell)
    # and two blocks; 0.39 of a dense 8-byte matrix, against 1.14 while the
    # engagement was one such matrix. At 2,000 items the copies that
    # sample_unbiased makes of its 40-per-user pool stay near 0.2 of one.
    monkeypatch.setattr(sim, "BLOCK_ROWS", 128)
    num_users, num_items = 16 * 128 + 1, 2000
    spec = SimulationSpec(num_users=num_users, num_items=num_items, gamma=0.5, seed=0)
    tracemalloc.start()
    try:
        simulate(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * num_users * num_items * 8, peak / (num_users * num_items * 8)
