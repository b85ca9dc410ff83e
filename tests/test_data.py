import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipsmf import optim, propensity
from ipsmf.data import (
    ID_LIMIT,
    RatingDataError,
    RatingDataset,
    SplitBundle,
    SplitError,
    load_rating_pair,
    load_ratings,
    reindex_users,
    save_ratings,
    split_biased,
    split_unbiased,
    write_manifest,
    _index_dtype,
    _split_sizes,
)
from ipsmf.model import fit_avg
from helpers import observed_pairs, read_manifest
from oracles import triples


def make_dataset(n_users, n_items, triples):
    u, i, r = (np.array(x) for x in zip(*triples)) if triples else (
        np.array([], dtype=int),) * 3
    return RatingDataset(n_users, n_items, u, i, r)


def grid_dataset(n_users, n_items, rng=None):
    """One triple per (user, item) cell with pseudo-random ratings."""
    users = np.repeat(np.arange(n_users), n_items)
    items = np.tile(np.arange(n_items), n_users)
    rng = rng or np.random.default_rng(0)
    ratings = rng.integers(1, 6, size=n_users * n_items)
    return RatingDataset(n_users, n_items, users, items, ratings)


def load_string_ids(path, delimiter=","):
    """The dataset of a file with string ids: the first of a pair loaded with
    an empty second file."""
    empty = path.with_name("empty-companion.csv")
    empty.write_text("")
    return load_rating_pair(path, empty, delimiter=delimiter)[0]


class TestLoadRatings:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("user_id,item_id,rating\nu1,i1,5\nu1,i2,1\nu2,i1,5\n")
        ds = load_string_ids(path)
        assert (ds.num_users, ds.num_items, len(ds)) == (2, 2, 3)
        assert triples(ds) == [(0, 0, 5), (0, 1, 1), (1, 0, 5)]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        ds = load_ratings(path)
        assert (ds.num_users, ds.num_items, len(ds)) == (0, 0, 0)
        ds2 = load_ratings(path, num_users=4, num_items=7)
        assert (ds2.num_users, ds2.num_items) == (4, 7)

    @pytest.mark.parametrize("sizes, message", [
        (dict(num_users=3), "line 5: user_id 5 is outside the declared num_users = 3"),
        (dict(num_items=4), "line 6: item_id 4 is outside the declared num_items = 4"),
        (dict(num_users=6, num_items=3), "line 5: item_id 3 is outside the declared num_items = 3"),
    ])
    def test_id_outside_declared_space_names_file_line_and_key(self, tmp_path, sizes, message):
        path = tmp_path / "ids.csv"
        path.write_text("user_id,item_id,rating\n0,1,4\n\n2,0,3\n5,3,1\n3,4,2\n")
        with pytest.raises(RatingDataError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_ratings(path, **sizes)
        assert len(load_ratings(path, num_users=6, num_items=5)) == 4

    def test_declared_space_is_checked_after_the_rows_parse(self, tmp_path):
        # an id past a declared bound is reported only when no row is malformed
        path = tmp_path / "ids.csv"
        path.write_text("user_id,item_id,rating\n5,0,4\n0,1,4\n1,1,nine\n")
        with pytest.raises(RatingDataError, match=re.escape(f"{path}: line 4: rating 'nine'")):
            load_ratings(path, num_users=3)

    def test_rating_out_of_scale_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u1,i1,7\n")
        with pytest.raises(RatingDataError, match="line 1"):
            load_string_ids(path)

    def test_out_of_scale_after_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,item_id,rating\nu1,i1,0\n")
        with pytest.raises(RatingDataError, match="line 2"):
            load_string_ids(path)

    @pytest.mark.parametrize("rating", ["nan", "inf", "-inf"])
    def test_non_finite_rating_names_line(self, tmp_path, rating):
        # int() of nan or inf raises, so the range test must come first
        path = tmp_path / "bad.tsv"
        path.write_text(f"u0\ti0\t4\nu0\ti1\t{rating}\n")
        message = f"{path}: line 2: rating {rating} outside scale [1, 5]"
        with pytest.raises(RatingDataError, match=f"^{re.escape(message)}$"):
            load_string_ids(path, delimiter="\t")

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u1,i1,5\nu2,i2\n")
        with pytest.raises(RatingDataError, match="line 2"):
            load_string_ids(path)

    def test_whole_float_rating_text_is_read(self, tmp_path):
        # text other than the plain digits takes the checked float parse
        path = tmp_path / "r.csv"
        path.write_text("user_id,item_id,rating\n0,0,4.0\n1,0,2e0\n")
        assert triples(load_ratings(path)) == [(0, 0, 4), (1, 0, 2)]

    def test_non_numeric_rating(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u1,i1,five\n")
        with pytest.raises(RatingDataError, match="not a number"):
            load_string_ids(path)

    def test_duplicate_pair(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("u1,i1,5\nu1,i1,4\n")
        with pytest.raises(RatingDataError, match="duplicate"):
            load_string_ids(path)

    def test_roundtrip(self, tmp_path):
        ds = make_dataset(3, 4, [(0, 0, 5), (1, 3, 1), (2, 2, 3)])
        path = tmp_path / "out.csv"
        save_ratings(ds, path)
        back = load_ratings(path)
        assert triples(back) == triples(ds)

    def test_dense_ids_preserve_indices(self, tmp_path):
        path = tmp_path / "dense.csv"
        path.write_text("user_id,item_id,rating\n5,9,3\n")
        ds = load_ratings(path)
        assert ds.num_users == 6 and ds.num_items == 10
        assert triples(ds) == [(5, 9, 3)]

    @pytest.mark.parametrize("row, problem", [
        ("u1,2,3", "is not an integer index"),
        ("1,2.5,3", "is not an integer index"),
        ("1,-2,3", "negative index"),
        ("-1,2,3", "negative index"),
    ], ids=["string-user", "fractional-item", "negative-item", "negative-user"])
    def test_rejects_ids_that_are_not_indices(self, tmp_path, row, problem):
        # split files hold 0-based integer indices; anything else names the
        # file and line instead of being remapped
        path = tmp_path / "split.csv"
        path.write_text(f"user_id,item_id,rating\n0,0,5\n{row}\n")
        with pytest.raises(RatingDataError, match=re.escape(f"{path}: line 3: ") + ".*" + problem):
            load_ratings(path)

    def test_id_past_the_limit_names_line(self, tmp_path):
        # an id space of 2**31 ids or more cannot be stored as int32
        path = tmp_path / "split.csv"
        path.write_text(f"user_id,item_id,rating\n0,0,5\n0,{ID_LIMIT - 1},3\n")
        message = (f"{path}: line 3: index (0, {ID_LIMIT - 1}) is past the largest "
                   f"index {ID_LIMIT - 2} (id limit 2**31)")
        with pytest.raises(RatingDataError, match=f"^{re.escape(message)}$"):
            load_ratings(path)
        path.write_text(f"user_id,item_id,rating\n0,0,5\n0,{ID_LIMIT - 2},3\n")
        assert load_ratings(path).num_items == ID_LIMIT - 1

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # before a header it made line 1 a row whose rating 'rating' is not a
        # number; before a string id, an id unequal to the same id elsewhere
        bom = b"\xef\xbb\xbf"
        path = tmp_path / "bom.csv"
        path.write_bytes(bom + b"user_id,item_id,rating\n0,1,4\n")
        assert triples(load_ratings(path)) == [(0, 1, 4)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_bytes(bom + b"u1,i1,5\n")
        b.write_text("u1,i2,3\n")
        ds_a, ds_b = load_rating_pair(a, b)
        assert ds_a.num_users == 1 and ds_b.users.tolist() == [0]

    def test_missing_file_named(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(RatingDataError, match=re.escape(f"{path}: ")):
            load_ratings(path)
        present = tmp_path / "present.csv"
        present.write_text("u1,i1,5\n")
        with pytest.raises(RatingDataError, match=re.escape(f"{path}: ")):
            load_rating_pair(present, path)

    def test_tsv_delimiter(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("a\tb\t4\n")
        ds = load_string_ids(path, delimiter="\t")
        assert triples(ds) == [(0, 0, 4)]

    def test_id_remap_is_bijection(self, tmp_path):
        path = tmp_path / "r.csv"
        rows = [f"user{u},item{i},{(u + i) % 5 + 1}" for u in range(7) for i in range(5)]
        path.write_text("\n".join(rows))
        ds = load_string_ids(path)
        assert len(set(ds.users.tolist())) == ds.num_users == 7
        assert len(set(ds.items.tolist())) == ds.num_items == 5
        # indices follow first appearance, so the original ids are recoverable
        assert ds.users.tolist() == [u for u in range(7) for _ in range(5)]
        assert ds.items.tolist() == list(range(5)) * 7

    def test_pair_loading_shares_id_space(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("u1,i1,5\nu2,i2,3\n")
        b.write_text("u2,i3,1\nu3,i1,2\n")
        ds_a, ds_b = load_rating_pair(a, b)
        assert ds_a.num_users == ds_b.num_users == 3
        assert ds_a.num_items == ds_b.num_items == 3
        # u1, u2, u3 are indexed in order of first appearance, through a then b
        assert ds_a.users.tolist() == [0, 1] and ds_b.users.tolist() == [1, 2]
        # u2 has the same index in both datasets
        assert ds_a.users[1] == ds_b.users[0]


class TestDatasetInvariants:
    def test_rejects_out_of_range_user(self):
        with pytest.raises(RatingDataError):
            make_dataset(1, 2, [(1, 0, 3)])

    def test_rejects_duplicate_pair(self):
        with pytest.raises(RatingDataError):
            make_dataset(2, 2, [(0, 0, 3), (0, 0, 4)])

    def test_rejects_duplicate_pair_not_adjacent(self):
        with pytest.raises(RatingDataError, match="duplicate"):
            make_dataset(2, 2, [(0, 0, 3), (1, 1, 2), (0, 0, 4)])

    def test_rejects_bad_rating(self):
        with pytest.raises(RatingDataError):
            make_dataset(2, 2, [(0, 0, 6)])

    @pytest.mark.parametrize("users, items, message", [
        ([0, 1], [0], "users, items, and ratings must be equal length"),
        ([0], [2], "item index out of range"),
        ([0], [-1], "item index out of range"),
    ], ids=["unequal-lengths", "item-past-the-space", "negative-item"])
    def test_rejects_misshapen_columns(self, users, items, message):
        with pytest.raises(RatingDataError, match=f"^{message}$"):
            RatingDataset(2, 2, np.array(users), np.array(items), np.array([3]))

    def test_arrays_read_only(self):
        ds = make_dataset(2, 2, [(0, 0, 3)])
        with pytest.raises(ValueError):
            ds.users[0] = 1

    def test_pair_count_matches_triples(self):
        ds = grid_dataset(5, 6)
        assert len(observed_pairs(ds)) == len(ds)


class TestCompactStorage:
    """Triples are stored in 9 bytes: int32 ids and a uint8 rating."""

    def test_columns_are_compact(self):
        ds = make_dataset(3, 4, [(0, 0, 5), (2, 3, 1)])
        assert (ds.users.dtype, ds.items.dtype, ds.ratings.dtype) == (
            np.int32, np.int32, np.uint8)
        assert ds.users.nbytes + ds.items.nbytes + ds.ratings.nbytes == 9 * len(ds)
        assert triples(ds) == [(0, 0, 5), (2, 3, 1)]

    def test_compact_arrays_are_kept(self):
        users, items = np.array([0, 1], np.int32), np.array([1, 0], np.int32)
        ratings = np.array([3, 4], np.uint8)
        ds = RatingDataset(2, 2, users, items, ratings)
        assert ds.users is users and ds.items is items and ds.ratings is ratings

    def test_whole_floats_are_accepted(self):
        ds = RatingDataset(2, 3, np.array([0.0, 1.0]), [2.0, 0.0], [5.0, 1.0])
        assert triples(ds) == [(0, 2, 5), (1, 0, 1)]

    @pytest.mark.parametrize("field, values, shown", [
        ("users", [0.5, 1.7], "0.5"),
        ("items", [0.0, 1.25], "1.25"),
        ("ratings", [4.9, 3.0], "4.9"),
        ("users", [np.nan, 0.0], "nan"),
        ("items", [0.0, np.inf], "inf"),
        ("ratings", [3.0, -np.inf], "-inf"),
    ], ids=["fractional-user", "fractional-item", "fractional-rating", "nan-user",
            "inf-item", "minus-inf-rating"])
    def test_rejects_values_a_cast_would_change(self, field, values, shown):
        # a cast truncates 4.9 to 4 and turns NaN into an arbitrary integer
        columns = {"users": [0.0, 1.0], "items": [0.0, 1.0], "ratings": [3.0, 4.0]}
        columns[field] = values
        message = f"{field} holds {shown}, not a whole number"
        with pytest.raises(RatingDataError, match=f"^{re.escape(message)}$"):
            RatingDataset(2, 2, **columns)

    def test_rejects_non_numeric_arrays(self):
        with pytest.raises(RatingDataError, match="^items must hold numbers"):
            RatingDataset(2, 2, [0], np.array(["1"]), [3])

    @pytest.mark.parametrize("key", ["num_users", "num_items"])
    def test_rejects_an_id_space_at_the_limit(self, key):
        sizes = {"num_users": 1, "num_items": 1, key: ID_LIMIT}
        message = f"{key} = {ID_LIMIT} is not below the id limit 2**31"
        with pytest.raises(RatingDataError, match=f"^{re.escape(message)}$"):
            RatingDataset(**sizes, users=[], items=[], ratings=[])
        sizes[key] = ID_LIMIT - 1
        assert len(RatingDataset(**sizes, users=[0], items=[0], ratings=[5])) == 1

    def test_pair_codes_are_int32_when_every_code_fits(self):
        ds = RatingDataset(3, 4, [2, 0, 1], [3, 1, 0], [1, 2, 3])
        codes = ds.pair_codes()
        assert codes.dtype == np.int32
        assert codes.tolist() == [11, 1, 4]

    def test_index_dtype_widens_past_the_id_limit(self):
        # indices 0 .. ID_LIMIT - 1 fit int32, one more does not
        assert _index_dtype(ID_LIMIT) is np.int32
        assert _index_dtype(ID_LIMIT + 1) is np.int64

    def test_pair_codes_are_int64_past_the_int32_range(self):
        # int32 user * num_items wraps past 2**31 - 1
        num_items = ID_LIMIT - 1
        ds = RatingDataset(3, num_items, [2, 0, 1], [num_items - 1, 5, 7], [1, 2, 3])
        codes = ds.pair_codes()
        assert codes.dtype == np.int64
        assert codes.tolist() == [2 * num_items + num_items - 1, 5, num_items + 7]

    def test_duplicate_pair_found_past_the_int32_range(self):
        # two pairs whose codes collide when computed in int32
        num_items = ID_LIMIT - 1
        ds = RatingDataset(3, num_items, [0, 2], [0, 2], [1, 1])
        assert len(set(ds.pair_codes().tolist())) == 2
        with pytest.raises(RatingDataError, match="duplicate"):
            RatingDataset(3, num_items, [2, 2], [9, 9], [1, 2])

    def test_duplicate_check_on_either_side_of_the_int32_codes(self):
        # at num_users * num_items == 2**31 every code fits int32; past it the
        # codes are int64, where pairs 2**16 users apart at 2**16 items would
        # collide in int32
        num_items = ID_LIMIT // 2
        RatingDataset(2, num_items, [1, 0], [num_items - 1, num_items - 1], [1, 1])
        with pytest.raises(RatingDataError, match="duplicate"):
            RatingDataset(2, num_items, [1, 1], [num_items - 1, num_items - 1], [1, 2])
        RatingDataset(2**17, 2**16, [0, 2**16], [5, 5], [1, 1])
        with pytest.raises(RatingDataError, match="duplicate"):
            RatingDataset(2**17, 2**16, [2**16, 2**16], [5, 5], [1, 1])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_input_dtype_gives_bit_equal_results(self, data):
        """Datasets made from int64, float64 and compact arrays store the same
        columns, and every consumer of them returns the same bits."""
        n_users, n_items = data.draw(st.integers(2, 7)), data.draw(st.integers(2, 7))
        cells = n_users * n_items
        codes = data.draw(st.lists(st.integers(0, cells - 1), min_size=4, max_size=cells,
                                   unique=True))
        ratings = data.draw(st.lists(st.integers(1, 5), min_size=len(codes),
                                     max_size=len(codes)))
        users, items = [c // n_items for c in codes], [c % n_items for c in codes]
        seed = data.draw(st.integers(0, 2**16))

        def results(types):
            user_type, rating_type = types
            ds = RatingDataset(n_users, n_items, np.array(users, user_type),
                               np.array(items, user_type), np.array(ratings, rating_type))
            half = len(ds) // 2
            biased, unbiased = ds.subset(np.arange(half)), ds.subset(np.arange(half, len(ds)))
            train, validation = split_biased(biased, 0.5, seed)
            mcar, test = split_unbiased(unbiased, 0.5, seed)
            models = [
                propensity.uniform_propensities(train),
                propensity.estimate_popularity(train),
                propensity.estimate_positivity(train, mcar),
                propensity.estimate_multifactorial(train, mcar, alpha1=2.0, alpha2=0.5),
                propensity.estimate_mf_propensity(train, dim=2, max_steps=5, seed=seed),
                propensity.PropensityModel(
                    "ground_truth", np.linspace(0.1, 1.0, n_items * 5).reshape(n_items, 5)),
            ]
            out = [np.stack([ds.users, ds.items]).tobytes(), ds.ratings.tobytes()]
            out += [m.table.tobytes() for m in models]
            out += [propensity.score_dataset(propensity.prepare(m, train), ds).tobytes()
                    for m in models]
            out.append(fit_avg(train)._buffer.tobytes())
            result = optim.train(
                SplitBundle(train, validation, mcar, test), propensity.clip(models[3], 0.05),
                optim.TrainConfig(learning_rate=0.05, batch_size=2, max_epochs=3,
                                  embedding_dim=2, schedule="alternating", seed=seed))
            out.append(result.params._buffer.tobytes())
            out.append([vars(row) for row in result.history])
            return out

        wide = results((np.int64, np.int64))
        assert results((np.int32, np.uint8)) == wide
        assert results((np.float64, np.float64)) == wide

class TestSplits:
    def test_ratio_point8_on_ten(self):
        ds = grid_dataset(2, 5)
        train, val = split_biased(ds, 0.8, seed=7)
        assert (len(train), len(val)) == (8, 2)
        assert set(train.pair_codes()).isdisjoint(val.pair_codes())

    def test_deterministic(self):
        ds = grid_dataset(4, 25)
        a = split_biased(ds, 0.8, seed=3)
        b = split_biased(ds, 0.8, seed=3)
        assert triples(a[0]) == triples(b[0])
        assert triples(a[1]) == triples(b[1])
        c = split_biased(ds, 0.8, seed=4)
        assert triples(a[0]) != triples(c[0])

    def test_100k_counts_within_one(self):
        ds = grid_dataset(100, 1000)
        train, val = split_biased(ds, 0.8, seed=0)
        assert abs(len(train) - 0.8 * len(ds)) <= 1
        assert abs(len(val) - 0.2 * len(ds)) <= 1

    def test_union_preserved(self):
        ds = grid_dataset(9, 11)
        train, val = split_biased(ds, 0.7, seed=5)
        merged = sorted(triples(train) + triples(val))
        assert merged == sorted(triples(ds))

    def test_unbiased_sizes_five_percent(self):
        ds = grid_dataset(54, 1000)
        mcar, test = split_unbiased(ds, 0.05, seed=1)
        assert (len(mcar), len(test)) == (2700, 51300)

    def test_unbiased_sizes_twenty_percent(self):
        ds = grid_dataset(29, 160)  # 4640 triples
        mcar, test = split_unbiased(ds, 0.20, seed=1)
        assert (len(mcar), len(test)) == (928, 3712)

    def test_half_of_two(self):
        ds = make_dataset(1, 2, [(0, 0, 3), (0, 1, 4)])
        mcar, test = split_unbiased(ds, 0.5, seed=0)
        assert (len(mcar), len(test)) == (1, 1)

    @pytest.mark.parametrize("split, fraction", [(split_biased, 0.7), (split_unbiased, 0.2)])
    def test_halves_are_subsets_of_the_permutation(self, split, fraction):
        # each side keeps its permutation positions in ascending order, as
        # subset does
        ds = grid_dataset(9, 11)
        perm = np.random.default_rng(5).permutation(len(ds))
        n_first = _split_sizes(len(ds), fraction)[0]
        first, second = split(ds, fraction, seed=5)
        assert triples(first) == triples(ds.subset(perm[:n_first]))
        assert triples(second) == triples(ds.subset(perm[n_first:]))

    def test_halves_match_the_int64_permutation_at_scale(self):
        # the split shuffles int32 positions, which a Generator moves as it
        # moves the int64 ones of permutation(n), here past 2**16 and 2**19
        ds = grid_dataset(700, 900)
        perm = np.random.default_rng([1, 2]).permutation(len(ds))
        n_first = _split_sizes(len(ds), 0.2)[0]
        for side, positions in zip(split_unbiased(ds, 0.2, seed=[1, 2]),
                                   (perm[:n_first], perm[n_first:])):
            positions = np.sort(positions)
            for name in ("users", "items", "ratings"):
                np.testing.assert_array_equal(getattr(side, name),
                                              getattr(ds, name)[positions])

    def test_too_small_to_split(self):
        ds = make_dataset(1, 1, [(0, 0, 3)])
        with pytest.raises(SplitError):
            split_biased(ds, 0.8, seed=0)

    def test_bad_fraction(self):
        ds = grid_dataset(2, 3)
        with pytest.raises(SplitError):
            split_biased(ds, 1.0, seed=0)


class TestFilterAndReindex:
    def test_filter_keeps_only_test_users(self):
        biased = make_dataset(3, 2, [(0, 0, 5), (1, 0, 4), (2, 1, 3)])
        test = make_dataset(3, 2, [(0, 1, 2), (1, 1, 5)])
        kept = reindex_users([biased], np.unique(test.users))[0]
        assert sorted(set(kept.users.tolist())) == [0, 1]
        assert len(kept) == 2

    def test_filter_identity_when_superset(self):
        biased = make_dataset(2, 2, [(0, 0, 5), (1, 1, 4)])
        test = make_dataset(2, 2, [(0, 1, 2), (1, 0, 5)])
        assert triples(reindex_users([biased], np.unique(test.users))[0]) == triples(biased)

    def test_filter_hand_count(self):
        # 5 users with 2, 1, 3, 1, 2 biased triples; users 1 and 3 in test
        triples = [(0, 0, 1), (0, 1, 2), (1, 2, 3), (2, 0, 4), (2, 1, 5),
                   (2, 3, 1), (3, 3, 2), (4, 0, 3), (4, 2, 4)]
        biased = make_dataset(5, 4, triples)
        test = make_dataset(5, 4, [(1, 0, 1), (3, 0, 2)])
        assert len(reindex_users([biased], np.unique(test.users))[0]) == 2  # 1 + 1 triples

    def test_reindex_users(self):
        a = make_dataset(4, 2, [(0, 0, 1), (2, 1, 3), (3, 0, 5)])
        b = make_dataset(4, 2, [(2, 0, 4)])
        new_a, new_b = reindex_users([a, b], np.array([2, 3]))
        assert new_a.num_users == 2
        assert triples(new_a) == [(0, 1, 3), (1, 0, 5)]
        assert triples(new_b) == [(0, 0, 4)]


class TestBundle:
    def test_rejects_overlapping_train_validation(self):
        ds = make_dataset(2, 2, [(0, 0, 1)])
        with pytest.raises(SplitError):
            SplitBundle(train=ds, validation=ds, mcar=ds, test=make_dataset(2, 2, []))

    def test_rejects_overlapping_mcar_test(self):
        train = make_dataset(2, 2, [(0, 0, 1)])
        validation = make_dataset(2, 2, [(1, 1, 2)])
        mcar = make_dataset(2, 2, [(0, 1, 3), (1, 0, 4)])
        test = make_dataset(2, 2, [(1, 1, 5), (1, 0, 4)])
        with pytest.raises(SplitError, match="mcar and test"):
            SplitBundle(train=train, validation=validation, mcar=mcar, test=test)

    # 2**17 x 2**16 cells: past 2**31 the pair codes are int64, where user
    # 2**16's item 5 and user 0's item 5 would share an int32 code
    WIDE = (2**17, 2**16)

    def test_rejects_overlapping_train_validation_with_int64_codes(self):
        ds = make_dataset(*self.WIDE, [(2**17 - 1, 2**16 - 1, 1), (0, 5, 2)])
        other = make_dataset(*self.WIDE, [(2**16, 5, 3)])
        empty = make_dataset(*self.WIDE, [])
        SplitBundle(train=ds, validation=other, mcar=ds, test=empty)
        with pytest.raises(SplitError, match="train and validation"):
            SplitBundle(train=ds, validation=ds, mcar=ds, test=empty)

    def test_rejects_overlapping_mcar_test_with_int64_codes(self):
        train = make_dataset(*self.WIDE, [(0, 0, 1)])
        validation = make_dataset(*self.WIDE, [(1, 1, 2)])
        mcar = make_dataset(*self.WIDE, [(0, 5, 3), (2**17 - 1, 2**16 - 1, 4)])
        SplitBundle(train=train, validation=validation, mcar=mcar,
                    test=make_dataset(*self.WIDE, [(2**16, 5, 4)]))
        test = make_dataset(*self.WIDE, [(1, 1, 5), (2**17 - 1, 2**16 - 1, 4)])
        with pytest.raises(SplitError, match="mcar and test"):
            SplitBundle(train=train, validation=validation, mcar=mcar, test=test)

    def test_split_and_bundle_memory_is_compact(self):
        # a 40-per-user pool over 3,000 x 1,000 cells. The split holds the
        # two sides' 9-byte triples, its mask and that mask negated, and the
        # larger side's 4-byte codes and duplicate flags: 15 bytes per pool
        # triple. The bundle's overlap check holds the sides' 4-byte codes
        # and their sorted concatenation beside the triples: 18 bytes. With
        # an int64 permutation and int64 codes they were 21 and 26
        num_users, num_items, per_user = 3000, 1000, 40
        rng = np.random.default_rng(0)
        items = np.argsort(rng.random((num_users, num_items)), axis=1)[:, :per_user]
        n = num_users * per_user
        pool = RatingDataset(num_users, num_items, np.repeat(np.arange(num_users), per_user),
                             items.ravel(), rng.integers(1, 6, n))
        cells = rng.permutation(num_users * num_items)[:n // 2]
        biased = RatingDataset(num_users, num_items, cells // num_items, cells % num_items,
                               rng.integers(1, 6, len(cells)))
        train, validation = split_biased(biased, 0.8, seed=1)
        tracemalloc.start()
        try:
            mcar, test = split_unbiased(pool, 0.2, seed=2)
            _, split_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            SplitBundle(train=train, validation=validation, mcar=mcar, test=test)
            _, bundle_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert split_peak < 16 * n, split_peak / n
        assert bundle_peak < 19 * n, bundle_peak / n

    def test_rejects_mismatched_id_spaces(self):
        a = make_dataset(2, 2, [(0, 0, 1)])
        b = make_dataset(3, 2, [(2, 1, 4)])
        empty = make_dataset(2, 2, [])
        with pytest.raises(SplitError, match="id space"):
            SplitBundle(train=a, validation=b, mcar=empty, test=empty)


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "manifest.txt"
    write_manifest(path, {"seed": 3, "n_train": 80, "gamma": repr(0.5)})
    assert read_manifest(path) == {"seed": "3", "n_train": "80", "gamma": "0.5"}
    # sorted keys give reproducible bytes
    text = path.read_text()
    assert text.splitlines() == sorted(text.splitlines())
