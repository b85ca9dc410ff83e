"""Loading, validation, splitting, and indexing of logged rating data."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

HEADER_FIELDS = ("user_id", "item_id", "rating")


class RatingDataError(ValueError):
    """A rating file or dataset violates the format contract."""


class SplitError(ValueError):
    """A dataset cannot be partitioned as requested."""


@dataclass(frozen=True)
class RatingDataset:
    """Immutable set of observed (user, item, rating) triples with dense indices.

    Args:
        num_users: Number of users in the index space (indices 0..num_users-1).
        num_items: Number of items in the index space.
        users, items, ratings: Parallel 1-d integer arrays, one entry per
            observed triple. A (user, item) pair may appear at most once.
        rating_scale: Inclusive integer range of valid rating values.
    """

    num_users: int
    num_items: int
    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    rating_scale: tuple[int, int] = (1, 5)

    def __post_init__(self):
        for name in ("users", "items", "ratings"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, arr)
        if not (len(self.users) == len(self.items) == len(self.ratings)):
            raise RatingDataError("users, items, and ratings must be equal length")
        lo, hi = self.rating_scale
        if lo > hi:
            raise RatingDataError(f"invalid rating scale {self.rating_scale}")
        if len(self.users) > 0:
            if self.users.min() < 0 or self.users.max() >= self.num_users:
                raise RatingDataError("user index out of range")
            if self.items.min() < 0 or self.items.max() >= self.num_items:
                raise RatingDataError("item index out of range")
            if self.ratings.min() < lo or self.ratings.max() > hi:
                raise RatingDataError(
                    f"rating outside scale [{lo}, {hi}]"
                )
            codes = np.sort(self.users * self.num_items + self.items)
            if np.any(codes[1:] == codes[:-1]):
                raise RatingDataError("duplicate (user, item) pair")
        for name in ("users", "items", "ratings"):
            getattr(self, name).setflags(write=False)

    def __len__(self) -> int:
        return len(self.users)

    @property
    def num_rating_values(self) -> int:
        lo, hi = self.rating_scale
        return hi - lo + 1

    def triples(self) -> list[tuple[int, int, int]]:
        return list(zip(self.users.tolist(), self.items.tolist(), self.ratings.tolist()))

    def pair_codes(self) -> np.ndarray:
        """Unique int64 code per (user, item) pair, for set operations."""
        return self.users * self.num_items + self.items

    def subset(self, indices: np.ndarray) -> "RatingDataset":
        """New dataset keeping the given triple positions, in ascending order."""
        idx = np.sort(np.asarray(indices, dtype=np.int64))
        return RatingDataset(
            num_users=self.num_users,
            num_items=self.num_items,
            users=self.users[idx],
            items=self.items[idx],
            ratings=self.ratings[idx],
            rating_scale=self.rating_scale,
        )


@dataclass(frozen=True)
class SplitBundle:
    """Train/validation splits from the biased log plus mcar/test unbiased splits."""

    train: RatingDataset
    validation: RatingDataset
    mcar: RatingDataset
    test: RatingDataset

    def __post_init__(self):
        shapes = {(s.num_users, s.num_items) for s in
                  (self.train, self.validation, self.mcar, self.test)}
        if len(shapes) != 1:
            raise SplitError(f"splits disagree on the id space: {sorted(shapes)}")
        # every RatingDataset has unique pair codes, checked at construction
        train_val = np.intersect1d(
            self.train.pair_codes(), self.validation.pair_codes(), assume_unique=True
        )
        if len(train_val) > 0:
            raise SplitError("train and validation overlap as (user, item) sets")
        mcar_test = np.intersect1d(
            self.mcar.pair_codes(), self.test.pair_codes(), assume_unique=True
        )
        if len(mcar_test) > 0:
            raise SplitError("mcar and test overlap as (user, item) sets")


def _parse_triples(path: str | Path, delimiter: str, rating_scale: tuple[int, int]):
    """Yield (user_id, item_id, rating, lineno) from a rating file, skipping an
    optional header line and validating ratings against the scale."""
    path = Path(path)
    lo, hi = rating_scale
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(delimiter)]
            if lineno == 1 and tuple(f.lower() for f in fields) == HEADER_FIELDS:
                continue
            if len(fields) != 3:
                raise RatingDataError(
                    f"{path}: line {lineno}: expected 3 fields, got {len(fields)}"
                )
            try:
                rating = float(fields[2])
            except ValueError:
                raise RatingDataError(
                    f"{path}: line {lineno}: rating {fields[2]!r} is not a number"
                ) from None
            if rating != int(rating) or not (lo <= int(rating) <= hi):
                raise RatingDataError(
                    f"{path}: line {lineno}: rating {fields[2]} outside scale [{lo}, {hi}]"
                )
            yield fields[0], fields[1], int(rating), lineno


def _index_triples(parsed, path, user_index, item_index, dense_ids):
    seen: set[tuple[int, int]] = set()
    users, items, ratings = [], [], []
    for uid, iid, rating, lineno in parsed:
        if dense_ids:
            try:
                u, i = int(uid), int(iid)
            except ValueError:
                raise RatingDataError(
                    f"{path}: line {lineno}: non-integer id with dense_ids"
                ) from None
            if u < 0 or i < 0:
                raise RatingDataError(f"{path}: line {lineno}: negative index")
        else:
            u = user_index.setdefault(uid, len(user_index))
            i = item_index.setdefault(iid, len(item_index))
        if (u, i) in seen:
            raise RatingDataError(
                f"{path}: line {lineno}: duplicate pair ({uid}, {iid})"
            )
        seen.add((u, i))
        users.append(u)
        items.append(i)
        ratings.append(rating)
    return users, items, ratings


def _build(users, items, ratings, num_users, num_items, rating_scale) -> RatingDataset:
    observed_u = max(users) + 1 if users else 0
    observed_i = max(items) + 1 if items else 0
    n_users = observed_u if num_users is None else num_users
    n_items = observed_i if num_items is None else num_items
    if n_users < observed_u or n_items < observed_i:
        raise RatingDataError("declared num_users/num_items smaller than observed ids")
    return RatingDataset(
        num_users=n_users,
        num_items=n_items,
        users=np.array(users, dtype=np.int64),
        items=np.array(items, dtype=np.int64),
        ratings=np.array(ratings, dtype=np.int64),
        rating_scale=rating_scale,
    )


def load_ratings(
    path: str | Path,
    delimiter: str = ",",
    rating_scale: tuple[int, int] = (1, 5),
    num_users: int | None = None,
    num_items: int | None = None,
    dense_ids: bool = False,
) -> tuple[RatingDataset, dict[str, list[str]]]:
    """Load a delimiter-separated rating file and remap ids to dense indices.

    The expected layout is one `user_id,item_id,rating` triple per line with an
    optional header line. Ids may be arbitrary strings; they are remapped to
    0-based indices in first-appearance order. With ``dense_ids=True`` the ids
    are taken to already be 0-based integer indices and are used verbatim
    (needed when a companion file, such as a propensity table, refers to the
    same index space).

    Returns:
        The validated dataset and a sidecar map ``{"users": [...], "items": [...]}``
        giving the original id at each dense index (empty when dense_ids).

    Raises:
        RatingDataError: on malformed rows, duplicate (user, item) pairs, or
            ratings outside the scale, naming the offending line.
    """
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    users, items, ratings = _index_triples(
        _parse_triples(path, delimiter, rating_scale), path, user_index, item_index,
        dense_ids,
    )
    dataset = _build(users, items, ratings, num_users, num_items, rating_scale)
    return dataset, {"users": list(user_index), "items": list(item_index)}


def load_rating_pair(
    path_a: str | Path,
    path_b: str | Path,
    delimiter: str = ",",
    rating_scale: tuple[int, int] = (1, 5),
) -> tuple[RatingDataset, RatingDataset, dict[str, list[str]]]:
    """Load two rating files over one shared id space (for example a biased log
    plus an unbiased sample). Both returned datasets use the union index space."""
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    triples_a = _index_triples(
        _parse_triples(path_a, delimiter, rating_scale), path_a, user_index,
        item_index, dense_ids=False,
    )
    triples_b = _index_triples(
        _parse_triples(path_b, delimiter, rating_scale), path_b, user_index,
        item_index, dense_ids=False,
    )
    n_users, n_items = len(user_index), len(item_index)
    ds_a = _build(*triples_a, n_users, n_items, rating_scale)
    ds_b = _build(*triples_b, n_users, n_items, rating_scale)
    return ds_a, ds_b, {"users": list(user_index), "items": list(item_index)}


def reindex_users(
    datasets: list[RatingDataset], keep: np.ndarray
) -> list[RatingDataset]:
    """Restrict the user index space to `keep` (sorted unique user indices),
    renumbering users 0..len(keep)-1. Triples of dropped users are removed."""
    keep = np.asarray(keep, dtype=np.int64)
    remap = np.full(max(ds.num_users for ds in datasets), -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    out = []
    for ds in datasets:
        new_users = remap[ds.users]
        mask = new_users >= 0
        out.append(RatingDataset(
            num_users=len(keep),
            num_items=ds.num_items,
            users=new_users[mask],
            items=ds.items[mask],
            ratings=ds.ratings[mask],
            rating_scale=ds.rating_scale,
        ))
    return out


def save_ratings(
    data: RatingDataset,
    path: str | Path,
    delimiter: str = ",",
    id_maps: dict[str, list[str]] | None = None,
) -> None:
    """Write a dataset back to the load_ratings format (header included)."""
    user_ids = id_maps["users"] if id_maps else None
    item_ids = id_maps["items"] if id_maps else None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(delimiter.join(HEADER_FIELDS) + "\n")
        for u, i, r in zip(data.users, data.items, data.ratings):
            uid = user_ids[u] if user_ids else str(int(u))
            iid = item_ids[i] if item_ids else str(int(i))
            fh.write(f"{uid}{delimiter}{iid}{delimiter}{int(r)}\n")


def _floor_count(fraction: float, n: int) -> int:
    # epsilon guards against float noise (0.2 * 10 -> 1.9999...)
    return int(np.floor(fraction * n + 1e-9))


def _split_sizes(n: int, first_fraction: float) -> tuple[int, int]:
    """Partition n as (first, second); the smaller side is floored, the larger
    side takes the remainder."""
    if first_fraction <= 0.5:
        n_first = _floor_count(first_fraction, n)
    else:
        n_first = n - _floor_count(1.0 - first_fraction, n)
    return n_first, n - n_first


def _split(data: RatingDataset, first_fraction: float, seed: int):
    if not 0.0 < first_fraction < 1.0:
        raise SplitError(f"fraction must be in (0, 1), got {first_fraction}")
    n = len(data)
    if n < 2:
        raise SplitError(f"cannot split a dataset with {n} triples")
    n_first, _ = _split_sizes(n, first_fraction)
    perm = np.random.default_rng(seed).permutation(n)
    return data.subset(perm[:n_first]), data.subset(perm[n_first:])


def split_biased(
    data: RatingDataset, ratio: float, seed: int
) -> tuple[RatingDataset, RatingDataset]:
    """Uniform-random disjoint (train, validation) partition; `ratio` is the
    train fraction (0.8 reproduces a 4:1 split). Deterministic per seed."""
    return _split(data, ratio, seed)


def split_unbiased(
    data: RatingDataset, mcar_fraction: float, seed: int
) -> tuple[RatingDataset, RatingDataset]:
    """Uniform-random disjoint (mcar, test) partition of an unbiased sample."""
    return _split(data, mcar_fraction, seed)


def filter_to_test_users(biased: RatingDataset, test: RatingDataset) -> RatingDataset:
    """Restrict biased triples to users that appear in the test set."""
    keep = np.isin(biased.users, np.unique(test.users))
    return biased.subset(np.flatnonzero(keep))


def write_manifest(path: str | Path, entries: dict) -> None:
    """Plain-text key=value manifest, sorted by key for reproducible bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(entries):
            fh.write(f"{key}={entries[key]}\n")
