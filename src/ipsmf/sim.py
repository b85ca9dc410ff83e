"""Semi-synthetic generator for rating data under controllable selection bias.

The pipeline converts a dense engagement matrix into 1..5 star ratings with a
fixed marginal distribution, builds per-rating and per-item observation
propensities, interpolates them with a weight gamma, Bernoulli-samples a biased
observation log, and uniform-randomly samples an unbiased mcar/test pool. A
built-in low-rank engagement generator makes the pipeline self-contained; a
real dense matrix can be supplied instead.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .blas import one_blas_thread
from .data import (
    _AT_LEAST_ONE, _FRACTION, _NONNEGATIVE, NUM_RATINGS, RATING_SCALE, RatingDataError,
    RatingDataset, SplitBundle, _check_rules, _index_dtype, _open_input, _split_mask, split_biased,
)
from .propensity import PropensityModel

logger = logging.getLogger(__name__)

# Default marginal rating distribution for the converted engagement values and
# default per-rating observation propensities for ratings 1..5.
DEFAULT_RATING_DISTRIBUTION = (0.5148, 0.2525, 0.1496, 0.0554, 0.0277)
DEFAULT_RATING_PROPENSITIES = (0.0123, 0.0102, 0.0213, 0.0568, 0.1795)
# Rows of the dense user x item matrices that the simulation handles at once
# (the engagement product, rating conversion); bounds each stage's scratch
# memory (8 MB per float block at 1,000 items) independently of the user
# count. The Generator yields the same stream in pieces, so outputs do not
# depend on it.
BLOCK_ROWS = 1024
# Cells of one random draw (the engagement noise, the observation uniforms
# and their cell propensities, the unbiased sort keys): 2 MB of float64, 256
# rows at 1,000 items. A piece is whole rows, at most BLOCK_ROWS of them and
# at least one.
_DRAW_CELLS = 1 << 18
# Cells that rating conversion samples, at fixed random positions, to bracket
# the rating boundaries before its exact pass; they decide its cost, not its
# output.
_SAMPLE_SIZE = 1 << 16
_SAMPLE_SEED = 0


@dataclass(frozen=True)
class SimulationSpec:
    """Parameters of one simulated dataset.

    gamma interpolates between per-rating propensities (gamma=1, pure
    rating-value bias) and per-item power-law propensities (gamma=0, pure
    item-popularity bias).
    """

    num_users: int
    num_items: int
    gamma: float
    seed: int = 0
    rating_propensities: tuple[float, ...] = DEFAULT_RATING_PROPENSITIES
    powerlaw_eta: float = 1.4
    k_min: int = 20
    unbiased_per_user: int = 40
    mcar_fraction: float = 0.2
    train_fraction: float = 0.8
    target_rating_distribution: tuple[float, ...] = DEFAULT_RATING_DISTRIBUTION
    engagement_rank: int = 4
    engagement_noise: float = 0.6
    engagement_path: str | None = None
    engagement_format: str = "dense"  # dense grid or (user, item, value) triples

    def __post_init__(self):
        lo, hi = RATING_SCALE
        for name in ("rating_propensities", "target_rating_distribution"):
            if len(getattr(self, name)) != NUM_RATINGS:
                raise ValueError(f"{name} needs one entry per rating {lo}..{hi}, "
                                 f"got {len(getattr(self, name))}")
        _check_rules(vars(self), _SPEC_RULES)
        if self.unbiased_per_user > self.num_items:
            raise ValueError(f"unbiased_per_user must be at most num_items = {self.num_items}, "
                             f"got {self.unbiased_per_user}")


# the rule of each single SimulationSpec field (see data._check_rules)
_SPEC_RULES = {
    "num_users": _AT_LEAST_ONE, "num_items": _AT_LEAST_ONE, "k_min": _AT_LEAST_ONE,
    "unbiased_per_user": _AT_LEAST_ONE, "mcar_fraction": _FRACTION, "train_fraction": _FRACTION,
    "gamma": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "powerlaw_eta": (lambda v: 1.0 < v < math.inf, "finite and above 1"),
    "rating_propensities": (lambda v: all(0.0 < p <= 1.0 for p in v), "in (0, 1] at every rating"),
    "target_rating_distribution": (lambda v: all(p >= 0.0 for p in v)
                                   and abs(sum(v) - 1.0) <= 1e-6, "nonnegative and sum to 1"),
    "engagement_rank": _NONNEGATIVE,
    "engagement_noise": (lambda v: 0.0 <= v < math.inf, "finite and nonnegative"),
    "engagement_format": (lambda v: v in ("dense", "triples"), "dense or triples"),
}


@dataclass
class SimulationResult:
    bundle: SplitBundle
    ground_truth_propensities: PropensityModel
    truth: np.ndarray  # (user, item) ratings, uint8 as convert_to_ratings writes them
    capped_items: int


def _row_blocks(num_rows: int, height: int | None = None):
    """(start, stop) bounds of consecutive blocks of at most `height` rows,
    by default BLOCK_ROWS."""
    height = BLOCK_ROWS if height is None else height
    for start in range(0, num_rows, height):
        yield start, min(start + height, num_rows)


def _draw_pieces(num_rows: int, num_items: int):
    """(start, stop) bounds of consecutive pieces of a `num_rows` by
    `num_items` draw: whole rows, at most ``_DRAW_CELLS`` cells and
    BLOCK_ROWS rows each, and at least one row."""
    return _row_blocks(num_rows, max(1, min(BLOCK_ROWS, _DRAW_CELLS // max(num_items, 1))))


class _Engagement(NamedTuple):
    """A real matrix that rating conversion reads one row block at a time.

    Each call of ``blocks()`` yields the matrix's row blocks of at most
    BLOCK_ROWS rows in order, from the first; a block may be overwritten once
    the next is asked for. ``whole()`` gives all of its cells in flat
    (row-major) order, for the conversion's last resort.
    """

    shape: tuple[int, ...]
    blocks: Callable[[], Iterator[np.ndarray]]
    whole: Callable[[], np.ndarray]


def _array_engagement(engagement) -> _Engagement:
    """The row slices of a real array: an engagement file or a caller's matrix."""
    shape = np.shape(engagement)
    flat = np.asarray(engagement, dtype=float).reshape(-1)
    rows = shape[0] if shape else 1
    width = flat.size // max(rows, 1)
    return _Engagement(
        shape, lambda: (flat[a * width:b * width] for a, b in _row_blocks(rows)), lambda: flat
    )


def _generated_engagement(num_users, num_items, seed, rank, noise) -> _Engagement:
    """The matrix of ``generate_engagement``, made again at each call of its
    ``blocks()``, one row block at a time."""
    args = (num_users, num_items, seed, rank, noise)
    return _Engagement((num_users, num_items), lambda: _engagement_blocks(*args),
                       lambda: generate_engagement(*args).reshape(-1))


def _engagement_blocks(num_users, num_items, seed, rank, noise):
    """The row blocks of ``generate_engagement``'s matrix, each made as it is
    asked for, in one buffer: a block is overwritten by the next."""
    rng = np.random.default_rng(seed)
    user_f = rng.normal(0.0, 1.0, size=(num_users, rank)) / np.sqrt(rank)
    item_f = rng.normal(0.0, 1.0, size=(num_items, rank))
    item_quality = rng.normal(0.0, 1.0, size=num_items)
    # every product has the first block's shape, so a short tail block is
    # computed at full block height: OpenBLAS picks its kernel by shape, and a
    # one-row product (gemv) differs in the last bit from the rows of a matrix
    product = np.empty((min(BLOCK_ROWS, num_users), num_items))
    for start, stop in _row_blocks(num_users):
        low = stop - len(product)
        with one_blas_thread():  # a threaded product may sum in another order
            np.matmul(user_f[low:stop], item_f.T, out=product)
        block = product[start - low:]
        # the additions of one full-size noise draw, in the same order, the
        # noise drawn a piece at a time
        block += item_quality
        for a, b in _draw_pieces(len(block), num_items):
            block[a:b] += rng.normal(0.0, noise, size=(b - a, num_items))
        yield block


def generate_engagement(
    num_users: int,
    num_items: int,
    seed: int,
    rank: int = 4,
    noise: float = 0.6,
) -> np.ndarray:
    """Low-rank user-item affinities plus a per-item quality offset and noise.

    The item offset spreads item averages (so item popularity ranks are
    meaningful) while the low-rank term carries user-specific structure that a
    factorized predictor can learn. The matrix is made one row block at a
    time; ``simulate`` rates those blocks as they are made instead of holding
    the matrix.
    """
    engagement = np.empty((num_users, num_items))
    blocks = _engagement_blocks(num_users, num_items, seed, rank, noise)
    for (start, stop), block in zip(_row_blocks(num_users), blocks):
        engagement[start:stop] = block
    return engagement


def convert_to_ratings(
    engagement: np.ndarray | _Engagement,
    target_distribution: tuple[float, ...] = DEFAULT_RATING_DISTRIBUTION,
) -> np.ndarray:
    """Quantile-convert a dense real matrix into integer ratings.

    Cells are ranked ascending, ties ranked by flat (row-major) index, and
    assigned ratings by cumulative fractions of the target distribution: the
    lowest block becomes rating 1, the next block rating 2, and so on. Block
    boundaries are floor(cumulative fraction * cell count); leftover cells
    beyond the last boundary join the top rating bucket.

    `engagement` is a real array, or the generated engagement that
    ``simulate`` passes as an ``_Engagement``, whose row blocks are made as
    they are read. Only the cells at the inner boundaries are selected (see
    ``_classify``), not the whole ranking: a cell lies at or above boundary
    ``b`` with value ``v`` when it exceeds ``v``, or when it equals ``v`` and
    is not among the first ``b - count(cells < v)`` cells equal to ``v`` in
    flat-index order. This is the rank a stable sort gives. The ratings are
    the smallest unsigned dtype that holds the number of ratings (uint8 for up
    to 255) and are written as each row block is read, so unless the
    selection falls back to a partitioned copy, no full-size array other than
    the ratings (and an array passed in) is allocated.

    Raises:
        ValueError: if the distribution breaks ``SimulationSpec``'s rule for
            ``target_rating_distribution`` (nonnegative entries that sum to
            1), or if the engagement matrix holds NaN (NaN has no rank).
    """
    _check_rules({"target_rating_distribution": target_distribution}, _SPEC_RULES)
    if not isinstance(engagement, _Engagement):
        engagement = _array_engagement(engagement)
    n = math.prod(engagement.shape)
    cumulative = np.cumsum(target_distribution)
    # epsilon guards against float noise in the cumulative sums
    boundaries = np.floor(cumulative[:-1] * n + 1e-9).astype(np.int64)
    ranks = boundaries[(boundaries > 0) & (boundaries < n)]
    # a cell's rating is 1 plus the number of boundaries at or below its rank;
    # boundaries at 0 count for every cell, boundaries at n for none
    base = 1 + np.count_nonzero(boundaries <= 0)
    ratings = np.empty(n, dtype=np.min_scalar_type(len(target_distribution)))
    if n > _SAMPLE_SIZE:
        # brackets from a sample of the first row block, then, if they miss,
        # from the sample of the whole matrix that the first pass gathered
        exact, sample = _classify(engagement, ranks, ratings, base)
        if not exact and sample is not None:
            exact, _ = _classify(engagement, ranks, ratings, base, sample)
        if exact:
            return ratings.reshape(engagement.shape)
        logger.debug("the sampled brackets do not isolate the rating boundaries; "
                     "partitioning all %d cells", n)
    flat = engagement.whole()
    _reject_nan(np.count_nonzero(np.isnan(flat)), n)
    values, less = _select_ranks(flat, ranks)
    ratings.fill(base)
    for v, left in zip(values, ranks - less):
        ratings += flat > v
        ratings[np.flatnonzero(flat == v)[left:]] += 1
    return ratings.reshape(engagement.shape)


def _reject_nan(missing, n):
    """Raise for `missing` NaN cells of `n`: NaN has no rank."""
    if missing:
        raise ValueError(f"engagement holds {missing} NaN cells of {n}")


def _classify(engagement, ranks, ratings, base, sample=None):
    """Rate the cells of `engagement` in one pass over its row blocks, each
    boundary rank bracketed by the order statistics of a sorted sample of
    ``_SAMPLE_SIZE`` cells: `sample` when given, else one drawn from the
    first block, when that holds more cells than the sample.

    Each block is read once, while it is in cache: its NaN cells are counted,
    and so are its cells below each bracket; its cells inside a bracket are
    kept as (value, flat index) candidates; and each cell is given the
    provisional rating `base` plus the number of brackets it lies above. Only
    the candidates are then partitioned for the exact boundary values, and
    their ratings fixed by the rule of ``convert_to_ratings``. The brackets
    decide the cost, never the answer: a rank outside its bracket, or more
    than ``n // 4`` candidates in all (heavy ties), leaves `ratings`
    unfinished.

    Returns whether `ratings` is exact, and the sorted values of the cells at
    ``_sample_positions(n)``, which the pass gathers, for the next brackets;
    None in place of them for a matrix of one block, whose own sample that is.

    Raises:
        ValueError: if the matrix holds NaN.
    """
    n = ratings.size
    positions = _sample_positions(n)
    positions.sort()
    gathered = np.empty(_SAMPLE_SIZE)
    brackets = None if sample is None else _brackets(sample, ranks, n)
    below = np.zeros(ranks.size, dtype=np.int64)
    found = [([], []) for _ in ranks]
    missing = collected = start = 0
    for read, block in enumerate(engagement.blocks(), start=1):
        cells = block.ravel()
        stop = start + cells.size
        missing += np.count_nonzero(np.isnan(cells))
        i, j = np.searchsorted(positions, (start, stop))
        gathered[i:j] = cells[positions[i:j] - start]
        if brackets is None and read == 1 and cells.size > _SAMPLE_SIZE:
            pilot = cells[_sample_positions(cells.size)]
            pilot.sort()
            brackets = _brackets(pilot, ranks, n)
        if brackets is not None and collected <= n // 4:
            out = ratings[start:stop]
            out.fill(base)
            for k, ((lo, hi), (values, index)) in enumerate(zip(brackets, found)):
                under, over = cells < lo, cells > hi
                below[k] += np.count_nonzero(under)
                out += over
                inside = np.flatnonzero(~(under | over))  # and NaN, rejected below
                values.append(cells[inside])
                index.append(inside.astype(_index_dtype(n)) + start)
                collected += inside.size
        start = stop
    _reject_nan(missing, n)
    exact = brackets is not None and collected <= n // 4 and _settle(ratings, ranks - below, found)
    return exact, (np.sort(gathered) if read > 1 else None)


def _settle(ratings, offsets, found):
    """Fix the ratings of the candidates `found` inside each bracket, given
    each rank's `offsets` among its candidates, emptying `found` as it goes;
    False, and nothing changed, when an offset lies outside them."""
    if not all(0 <= r < sum(map(len, values)) for r, (values, _) in zip(offsets, found)):
        return False
    for r, (values, index) in zip(offsets, found):
        cells, where = np.concatenate(values), np.concatenate(index)
        values.clear()
        index.clear()
        (v,), (less,) = _select_ranks(cells, r[None])
        ratings[where[cells > v]] += 1
        ratings[where[cells == v][r - less:]] += 1
    return True


def _sample_positions(size):
    """Flat positions of ``_SAMPLE_SIZE`` of `size` cells, drawn with
    replacement from a fixed seed."""
    return np.random.default_rng(_SAMPLE_SEED).integers(0, size, size=_SAMPLE_SIZE)


def _brackets(sample, ranks, n):
    """(low, high) value brackets of the ascending `ranks` of `n` cells from a
    sorted sample of them: the sample's order statistics about 4 standard
    deviations to either side of each rank's expected position, infinite past
    the sample's ends."""
    expected = ranks / n * _SAMPLE_SIZE
    spread = 4.0 * np.sqrt(expected * (1.0 - ranks / n)) + 1.0
    return [
        (sample[lo] if lo >= 0 else -np.inf, sample[hi] if hi < _SAMPLE_SIZE else np.inf)
        for lo, hi in zip(np.floor(expected - spread).astype(np.int64),
                          np.ceil(expected + spread).astype(np.int64))
    ]


def _select_ranks(cells, ranks):
    """Values at the ascending `ranks` of `cells` by one partitioned copy, and
    the number of cells strictly below each value."""
    part = np.partition(cells, np.unique(ranks))
    values = part[ranks]
    less = np.array([np.count_nonzero(part[:r] < v) for r, v in zip(ranks, values)],
                    dtype=np.int64)
    return values, less


def build_item_propensities(
    truth: np.ndarray, eta: float = 1.4, k_min: int = 20
) -> tuple[np.ndarray, int]:
    """Power-law observation propensities over items ranked by average rating.

    Items are ranked 1..num_items by descending average true rating (ties
    broken by ascending item index), and assigned
    ``(eta - 1) * (rank / k_min) ** (-eta)``. The top ranks exceed 1 for the
    default eta and k_min, so values are capped at 1; the cap count is returned
    and logged. Raises ValueError for an eta or k_min that breaks
    ``SimulationSpec``'s rule for ``powerlaw_eta`` or ``k_min``.
    """
    _check_rules({"powerlaw_eta": eta, "k_min": k_min}, _SPEC_RULES)
    # exact without a float copy: the column sums are small integers
    avg_rating = np.asarray(truth).mean(axis=0, dtype=float)
    num_items = len(avg_rating)
    # lexsort uses the last key as primary: descending average, then index
    order = np.lexsort((np.arange(num_items), -avg_rating))
    ranks = np.empty(num_items, dtype=np.int64)
    ranks[order] = np.arange(1, num_items + 1)
    raw = (eta - 1.0) * (ranks / k_min) ** (-eta)
    capped = int(np.sum(raw > 1.0))
    if capped:
        logger.info("capped %d of %d item propensities at 1", capped, num_items)
    return np.minimum(raw, 1.0), capped


def sample_observations(
    truth: np.ndarray,
    rating_propensities: np.ndarray,
    item_propensities: np.ndarray,
    gamma: float,
    seed: int,
) -> tuple[RatingDataset, PropensityModel]:
    """Bernoulli-sample a biased log from interpolated propensities.

    Each cell (u, i) with true rating y is kept independently with probability
    ``gamma * rating_propensities[y] + (1 - gamma) * item_propensities[i]``.
    Also returns the exact propensity table as a ground_truth model, which
    reproduces the sampling probability of every cell. Raises ValueError
    when an interpolated propensity lies outside [0, 1] or a true rating
    outside RATING_SCALE.

    The uniforms are drawn, and the cell propensities looked up, a piece of
    at most ``_DRAW_CELLS`` cells at a time (see ``_draw_pieces``); the
    stream is that of one full-size draw, so the sample does not depend on
    the piece size. The kept triples are int32 ids and ratings in the
    truth's dtype, in row-major order.
    """
    truth = np.asarray(truth)
    num_users, num_items = truth.shape
    lo, hi = RATING_SCALE
    rho_r = np.asarray(rating_propensities, dtype=float)
    rho_i = np.asarray(item_propensities, dtype=float)
    table = gamma * rho_r[None, :] + (1.0 - gamma) * rho_i[:, None]  # (I, R)
    if not np.all((table >= 0.0) & (table <= 1.0)):
        raise ValueError(f"interpolated propensity outside [0, 1] at gamma={gamma}")
    if truth.size:
        for value in (truth.min(), truth.max()):
            if not lo <= value <= hi:
                raise ValueError(f"true rating {value} outside the rating scale {RATING_SCALE}")

    # the same uniform stream as one full-size draw, compared a piece of rows
    # at a time so that no full-size float temporary or mask is live; each
    # piece's observed cells are kept in the dataset's compact dtypes
    rng = np.random.default_rng(seed)
    item_index = np.arange(num_items)
    users, items = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
    ratings = [np.empty(0, truth.dtype)]
    for start, stop in _draw_pieces(num_users, num_items):
        rows = truth[start:stop]
        cell_p = table[item_index, rows - lo]
        # row-major like a 2-D nonzero, from one flat index array
        u, i = divmod(np.flatnonzero(rng.random(cell_p.shape) < cell_p), num_items)
        users.append((u + start).astype(np.int32))
        items.append(i.astype(np.int32))
        ratings.append(rows[u, i])
    dataset = RatingDataset(
        num_users=num_users,
        num_items=num_items,
        users=np.concatenate(users),
        items=np.concatenate(items),
        ratings=np.concatenate(ratings),
    )
    return dataset, PropensityModel(family="ground_truth", table=table)


def sample_unbiased(
    truth: np.ndarray,
    per_user: int,
    mcar_fraction: float,
    seed: int,
) -> tuple[RatingDataset, RatingDataset]:
    """Uniform-random unbiased ratings: `per_user` items per user without
    replacement, pooled, then split into (mcar, test) with the mcar side
    floored at ``mcar_fraction`` of the pool.

    Each user's items are the `per_user` smallest of a row of uniform sort
    keys, in ascending key order. The keys are drawn and partitioned a piece
    of at most ``_DRAW_CELLS`` cells at a time, from the stream of one
    full-size draw, so the pool does not depend on the piece size.
    """
    truth = np.asarray(truth)
    num_users, num_items = truth.shape
    if per_user > num_items:
        raise ValueError("per_user cannot exceed the number of items")
    rng = np.random.default_rng(seed)
    # the same key stream as one (num_users, num_items) draw, a piece of rows
    # at a time; each row keeps its per_user smallest keys in ascending order,
    # and their ratings, in the dataset's compact dtypes
    chosen = np.empty((num_users, per_user), dtype=np.int32)
    rated = np.empty((num_users, per_user), dtype=truth.dtype)
    for start, stop in _draw_pieces(num_users, num_items):
        keys = rng.random((stop - start, num_items))
        top = np.argpartition(keys, per_user - 1, axis=1)[:, :per_user]
        order = np.argsort(np.take_along_axis(keys, top, axis=1), axis=1, kind="stable")
        picked = np.take_along_axis(top, order, axis=1)
        chosen[start:stop] = picked
        rated[start:stop] = np.take_along_axis(truth[start:stop], picked, axis=1)
    # the pool holds each user's row of chosen items in turn, so each side of
    # its split is gathered from chosen and rated through a mask of their
    # shape, with a user column of the row counts: no pool dataset is made
    mcar = _split_mask(num_users * per_user, mcar_fraction, seed).reshape(num_users, per_user)
    user_ids = np.arange(num_users, dtype=np.int32)
    return tuple(
        RatingDataset(num_users=num_users, num_items=num_items,
                      users=np.repeat(user_ids, np.count_nonzero(side, axis=1)),
                      items=chosen[side], ratings=rated[side])
        for side in (mcar, ~mcar)
    )


def simulate(spec: SimulationSpec) -> SimulationResult:
    """Run the full pipeline for one spec; deterministic per seed.

    Sub-streams are derived from the spec seed: [seed, 0] engagement, [seed, 1]
    biased observation sampling, [seed, 2] unbiased sampling, [seed, 3] the
    train/validation split.
    """
    if spec.engagement_path is not None:
        engagement = _load_engagement(spec)
    else:
        # rated block by block as it is made: no dense 8-byte matrix is live
        engagement = _generated_engagement(
            spec.num_users,
            spec.num_items,
            [spec.seed, 0],
            spec.engagement_rank,
            spec.engagement_noise,
        )
    truth = convert_to_ratings(engagement, spec.target_rating_distribution)
    del engagement  # a loaded file is one dense 8-byte user x item matrix
    rho_i, capped = build_item_propensities(truth, spec.powerlaw_eta, spec.k_min)
    biased, gt_model = sample_observations(
        truth,
        np.asarray(spec.rating_propensities),
        rho_i,
        spec.gamma,
        seed=[spec.seed, 1],
    )
    mcar, test = sample_unbiased(
        truth,
        spec.unbiased_per_user,
        spec.mcar_fraction,
        seed=[spec.seed, 2],
    )
    train, validation = split_biased(
        biased, spec.train_fraction, seed=[spec.seed, 3]
    )
    bundle = SplitBundle(train=train, validation=validation, mcar=mcar, test=test)
    return SimulationResult(
        bundle=bundle,
        ground_truth_propensities=gt_model,
        truth=truth,
        capped_items=capped,
    )


def _load_engagement(spec: SimulationSpec) -> np.ndarray:
    """Read the dense engagement source, either as a grid or as fully covering
    (user_index, item_index, value) triples. Raises RatingDataError naming the
    file for one that cannot be opened or parsed, a wrong shape, NaN values
    (a NaN cell has no rating rank) and uncovered cells."""
    path = spec.engagement_path
    shape = (spec.num_users, spec.num_items)
    dense = spec.engagement_format == "dense"
    with _open_input(path) as fh:
        try:
            values = np.loadtxt(fh, delimiter=",", ndmin=0 if dense else 2)
        except ValueError as exc:
            raise RatingDataError(f"{path}: {exc}") from None
    if dense:
        if values.shape != shape:
            raise RatingDataError(
                f"{path}: engagement matrix shape {values.shape} does not match {shape}"
            )
        missing = int(np.count_nonzero(np.isnan(values)))
        if missing:
            raise RatingDataError(f"{path}: engagement matrix holds {missing} NaN cells")
        return values
    if values.shape[1] != 3:
        raise RatingDataError(f"{path}: triples engagement file needs (user, item, value) columns")
    missing = int(np.count_nonzero(np.isnan(values[:, 2])))
    if missing:
        raise RatingDataError(f"{path}: engagement triples hold {missing} NaN values")
    engagement = np.full(shape, np.nan)
    engagement[values[:, 0].astype(int), values[:, 1].astype(int)] = values[:, 2]
    if np.isnan(engagement).any():
        missing = int(np.isnan(engagement).sum())
        raise RatingDataError(f"{path}: engagement triples leave {missing} cells uncovered")
    return engagement
