import re

import numpy as np
import pytest

from ipsmf.data import (
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
)
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

    def test_arrays_read_only(self):
        ds = make_dataset(2, 2, [(0, 0, 3)])
        with pytest.raises(ValueError):
            ds.users[0] = 1

    def test_pair_count_matches_triples(self):
        ds = grid_dataset(5, 6)
        assert len(observed_pairs(ds)) == len(ds)


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
