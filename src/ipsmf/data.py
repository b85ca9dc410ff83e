"""Loading, validation, splitting, and indexing of logged rating data."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

HEADER_FIELDS = ("user_id", "item_id", "rating")
# the inclusive range of rating values of every file, simulation, dataset and
# propensity table, and the number of values in it
RATING_SCALE = (1, 5)
NUM_RATINGS = RATING_SCALE[1] - RATING_SCALE[0] + 1
# users and items are stored as int32, so an id space holds fewer ids than this
ID_LIMIT = 2**31
# the dtype that RatingDataset stores each column in
_COLUMNS = {"users": np.int32, "items": np.int32, "ratings": np.uint8}


class RatingDataError(ValueError):
    """A rating file or dataset violates the format contract."""


class SplitError(ValueError):
    """A dataset cannot be partitioned as requested."""


@dataclass(frozen=True)
class RatingDataset:
    """Immutable set of observed (user, item, rating) triples with dense indices.

    Args:
        num_users: Number of users in the index space (indices 0..num_users-1),
            below ID_LIMIT.
        num_items: Number of items in the index space, below ID_LIMIT.
        users, items, ratings: Parallel 1-d arrays of whole numbers, one entry
            per observed triple. A (user, item) pair may appear at most once,
            and every rating lies in RATING_SCALE.

    Once checked, users and items are stored as int32 and ratings as uint8,
    9 bytes per triple; an array already of that dtype is kept, not copied.
    Arithmetic on the ids that can pass the int32 range, such as
    :meth:`pair_codes` past it, is done in int64.
    """

    num_users: int
    num_items: int
    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray

    def __post_init__(self):
        for key in ("num_users", "num_items"):
            if getattr(self, key) >= ID_LIMIT:
                raise RatingDataError(
                    f"{key} = {getattr(self, key)} is not below the id limit 2**31"
                )
        arrays = {name: _whole_numbers(name, getattr(self, name)) for name in _COLUMNS}
        users, items, ratings = arrays.values()
        if not (len(users) == len(items) == len(ratings)):
            raise RatingDataError("users, items, and ratings must be equal length")
        if len(users) > 0:
            if users.min() < 0 or users.max() >= self.num_users:
                raise RatingDataError("user index out of range")
            if items.min() < 0 or items.max() >= self.num_items:
                raise RatingDataError("item index out of range")
            lo, hi = RATING_SCALE
            if ratings.min() < lo or ratings.max() > hi:
                raise RatingDataError(f"rating outside scale [{lo}, {hi}]")
        for name, dtype in _COLUMNS.items():
            arr = arrays[name].astype(dtype, copy=False)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(self) > 1:
            codes = self.pair_codes()
            codes.sort()
            if np.any(codes[1:] == codes[:-1]):
                raise RatingDataError("duplicate (user, item) pair")

    def __len__(self) -> int:
        return len(self.users)

    def pair_codes(self) -> np.ndarray:
        """Unique code ``user * num_items + item`` per triple, for set
        operations, in a new array: int32 when every code of the id space
        fits, int64 past that, so datasets over one id space share a dtype."""
        codes = self.users.astype(_index_dtype(self.num_users * self.num_items))
        codes *= self.num_items
        codes += self.items
        return codes

    def subset(self, indices: np.ndarray) -> "RatingDataset":
        """New dataset keeping the given triple positions, in ascending order."""
        return self._rows(np.sort(np.asarray(indices, dtype=np.int64)))

    def _rows(self, positions: np.ndarray) -> "RatingDataset":
        """New dataset of the triples at `positions`, in that order."""
        return RatingDataset(
            num_users=self.num_users,
            num_items=self.num_items,
            users=self.users[positions],
            items=self.items[positions],
            ratings=self.ratings[positions],
        )


def _index_dtype(count: int) -> type:
    """The dtype of an array of the indices ``0 .. count - 1``: int32 when
    they all fit, int64 past that."""
    return np.int32 if count <= ID_LIMIT else np.int64


def _whole_numbers(name: str, values) -> np.ndarray:
    """`values` as an array, unchanged, after checking that its entries are
    whole numbers: a cast would truncate a fraction and turn NaN into an
    arbitrary integer."""
    arr = np.asarray(values)
    if arr.dtype.kind in "biu":
        return arr
    if arr.dtype.kind != "f":
        raise RatingDataError(f"{name} must hold numbers, got dtype {arr.dtype}")
    whole = np.isfinite(arr) & (arr == np.floor(arr))
    if not whole.all():
        raise RatingDataError(f"{name} holds {float(arr[~whole][0])}, not a whole number")
    return arr


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
        # every RatingDataset has unique pair codes, checked at construction;
        # the splits share an id space, so their codes share a dtype
        for first, second in (("train", "validation"), ("mcar", "test")):
            common = np.intersect1d(getattr(self, first).pair_codes(),
                                    getattr(self, second).pair_codes(),
                                    assume_unique=True)
            if len(common) > 0:
                raise SplitError(f"{first} and {second} overlap as (user, item) sets")


# A settings rule is a pair (holds, text) that rejects a value when
# `not holds(value)`, so NaN, which fails every comparison, is rejected too.
_POSITIVE, _NONNEGATIVE = (lambda v: v > 0, "positive"), (lambda v: v >= 0, "nonnegative")
_AT_LEAST_ONE, _FRACTION = (lambda v: v >= 1, "at least 1"), (lambda v: 0.0 < v < 1.0, "in (0, 1)")


def _check_rules(values, rules: dict) -> None:
    """Raise ValueError ``<name> must be <text>, got <value>`` for the first
    entry of the mapping `values`, in `rules` order, that breaks its rule;
    a dataclass passes ``vars(self)``, a function the settings it checks."""
    for name, (holds, text) in rules.items():
        if name in values and not holds(value := values[name]):
            raise ValueError(f"{name} must be {text}, got {value!r}")


def _open_input(path: str | Path, error: type[Exception] = RatingDataError):
    """Open an input file as UTF-8 text, dropping a leading byte-order mark,
    raising `error` naming the path when it cannot be opened (for example a
    missing file)."""
    try:
        return open(path, "r", encoding="utf-8-sig")
    except OSError as exc:
        raise error(f"{path}: {exc.strerror}") from None


# the text of each rating value as save_ratings writes it, read without a
# float parse; any other text takes the checked parse
_RATING_TEXT = {str(r): r for r in range(RATING_SCALE[0], RATING_SCALE[1] + 1)}


def _parse_rating(text: str, path, lineno: int) -> int:
    lo, hi = RATING_SCALE
    try:
        rating = float(text)
    except ValueError:
        raise RatingDataError(f"{path}: line {lineno}: rating {text!r} is not a number") from None
    # the range test comes first: int() of nan or inf raises
    if not lo <= rating <= hi or rating != int(rating):
        raise RatingDataError(f"{path}: line {lineno}: rating {text} outside scale [{lo}, {hi}]")
    return int(rating)


def _index_triples(path, delimiter, user_index=None, item_index=None, declared=(None, None)):
    """Parallel (users, items, ratings) index lists of the triples of a rating
    file, in one pass: blank lines and an optional header line are skipped,
    and ratings checked against RATING_SCALE. With the id maps, ids are
    remapped to indices in first-appearance order, extending the maps;
    without them, ids are 0-based integer indices used verbatim, and the
    first that is not below its `declared` (num_users, num_items) bound is
    reported once the whole file has parsed, users first. Every error names
    the file and line."""
    seen: set[tuple[int, int]] = set()
    users, items, ratings = [], [], []
    # ids below these need no further check
    user_limit, item_limit = (ID_LIMIT - 1 if d is None else min(d, ID_LIMIT - 1) for d in declared)
    past: dict[int, tuple[int, str]] = {}  # column -> (line, id) of its first id past `declared`
    with _open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(delimiter)
            if len(fields) != 3:
                raise RatingDataError(
                    f"{path}: line {lineno}: expected 3 fields, got {len(fields)}"
                )
            uid, iid, text = fields
            uid, iid = uid.strip(), iid.strip()
            if lineno == 1 and (uid.lower(), iid.lower(), text.strip().lower()) == HEADER_FIELDS:
                continue
            rating = _RATING_TEXT.get(text)
            if rating is None:
                rating = _parse_rating(text.strip(), path, lineno)
            if user_index is None:
                try:
                    u, i = int(uid), int(iid)
                except ValueError:
                    raise RatingDataError(
                        f"{path}: line {lineno}: id ({uid}, {iid}) is not an integer index"
                    ) from None
                if not (0 <= u < user_limit and 0 <= i < item_limit):
                    if u < 0 or i < 0:
                        raise RatingDataError(f"{path}: line {lineno}: negative index ({u}, {i})")
                    if max(u, i) >= ID_LIMIT - 1:
                        raise RatingDataError(
                            f"{path}: line {lineno}: index ({u}, {i}) is past the largest "
                            f"index {ID_LIMIT - 2} (id limit 2**31)"
                        )
                    for column, index, limit, id_text in ((0, u, user_limit, uid),
                                                          (1, i, item_limit, iid)):
                        if index >= limit:
                            past.setdefault(column, (lineno, id_text))
            else:
                u = user_index.setdefault(uid, len(user_index))
                i = item_index.setdefault(iid, len(item_index))
            if (u, i) in seen:
                raise RatingDataError(f"{path}: line {lineno}: duplicate pair ({uid}, {iid})")
            seen.add((u, i))
            users.append(u)
            items.append(i)
            ratings.append(rating)
    for column in sorted(past):
        lineno, text = past[column]
        key = ("num_users", "num_items")[column]
        raise RatingDataError(f"{path}: line {lineno}: {HEADER_FIELDS[column]} {text} "
                              f"is outside the declared {key} = {declared[column]}")
    return users, items, ratings


def _build(users, items, ratings, num_users, num_items) -> RatingDataset:
    """The dataset of parallel index lists over a `num_users` by `num_items`
    id space, each None meaning one past the largest index."""
    return RatingDataset(
        num_users=max(users, default=-1) + 1 if num_users is None else num_users,
        num_items=max(items, default=-1) + 1 if num_items is None else num_items,
        users=np.array(users, dtype=_COLUMNS["users"]),
        items=np.array(items, dtype=_COLUMNS["items"]),
        ratings=np.array(ratings, dtype=_COLUMNS["ratings"]),
    )


def load_ratings(
    path: str | Path,
    delimiter: str = ",",
    num_users: int | None = None,
    num_items: int | None = None,
) -> RatingDataset:
    """Load a delimiter-separated rating file whose ids are 0-based integer
    indices, used verbatim, so that companion files (the other splits, a
    propensity table) share its index space.

    The layout is one `user_id,item_id,rating` triple per line with an
    optional header line, as :func:`save_ratings` writes. The id space is
    `num_users` by `num_items`, by default one past the largest id seen.

    Raises:
        RatingDataError: naming the file, and the line where there is one, for
            a file that cannot be opened, a malformed row, an id that is not a
            nonnegative integer, a duplicate (user, item) pair, a rating
            outside RATING_SCALE, or an id that is not below the declared
            `num_users` or `num_items`.
    """
    users, items, ratings = _index_triples(path, delimiter, declared=(num_users, num_items))
    return _build(users, items, ratings, num_users, num_items)


def load_rating_pair(
    path_a: str | Path,
    path_b: str | Path,
    delimiter: str = ",",
) -> tuple[RatingDataset, RatingDataset]:
    """Load two rating files over one shared id space (for example a biased log
    plus an unbiased sample). Ids may be arbitrary strings; they are remapped
    to 0-based indices in first-appearance order, through `path_a` and then
    `path_b`, and both datasets use the union index space. Raises
    RatingDataError as :func:`load_ratings` does."""
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    triples = [
        _index_triples(path, delimiter, user_index, item_index)
        for path in (path_a, path_b)
    ]
    return tuple(_build(*t, len(user_index), len(item_index)) for t in triples)


def reindex_users(
    datasets: list[RatingDataset], keep: np.ndarray
) -> list[RatingDataset]:
    """Restrict the user index space to `keep` (sorted unique user indices),
    renumbering users 0..len(keep)-1. Triples of dropped users are removed."""
    keep = np.asarray(keep, dtype=np.int64)
    remap = np.full(max(ds.num_users for ds in datasets), -1, dtype=_COLUMNS["users"])
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
        ))
    return out


def save_ratings(data: RatingDataset, path: str | Path, delimiter: str = ",") -> None:
    """Write a dataset back to the load_ratings format (header included)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(delimiter.join(HEADER_FIELDS) + "\n")
        for u, i, r in zip(data.users, data.items, data.ratings):
            fh.write(f"{int(u)}{delimiter}{int(i)}{delimiter}{int(r)}\n")


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
    """The triples at the first ``_split_sizes(n, first_fraction)[0]``
    positions of a seeded permutation of `data`, and the rest, each in
    ascending position order (as :meth:`RatingDataset.subset` keeps them)."""
    first = _split_mask(len(data), first_fraction, seed)
    return data._rows(first), data._rows(~first)


def _split_mask(n: int, first_fraction: float, seed: int) -> np.ndarray:
    """Whether each of `n` positions is on the first side of :func:`_split`.

    The permutation is of int32 positions when they fit (a Generator
    shuffles an array in the same order whatever its integer dtype), and is
    dropped once the mask is set: a side gathered through the mask comes in
    ascending position order, with no sorted or intp copy of its positions.
    """
    holds, text = _FRACTION
    if not holds(first_fraction):
        raise SplitError(f"fraction must be {text}, got {first_fraction}")
    if n < 2:
        raise SplitError(f"cannot split a dataset with {n} triples")
    n_first, _ = _split_sizes(n, first_fraction)
    # shuffled in place, as permutation(n) shuffles its arange
    perm = np.arange(n, dtype=_index_dtype(n))
    np.random.default_rng(seed).shuffle(perm)
    first = np.zeros(n, dtype=bool)
    first[perm[:n_first]] = True
    return first


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


def write_manifest(path: str | Path, entries: dict) -> None:
    """Plain-text key=value manifest, sorted by key for reproducible bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(entries):
            fh.write(f"{key}={entries[key]}\n")
