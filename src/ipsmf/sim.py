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
from dataclasses import dataclass

import numpy as np

from .blas import one_blas_thread
from .data import (
    RATING_SCALE, RatingDataError, RatingDataset, SplitBundle, _open_input, split_biased,
    split_unbiased,
)
from .propensity import PropensityModel

logger = logging.getLogger(__name__)

# Default marginal rating distribution for the converted engagement values and
# default per-rating observation propensities for ratings 1..5.
DEFAULT_RATING_DISTRIBUTION = (0.5148, 0.2525, 0.1496, 0.0554, 0.0277)
DEFAULT_RATING_PROPENSITIES = (0.0123, 0.0102, 0.0213, 0.0568, 0.1795)
# Rows of the dense user x item matrices that the simulation handles at once
# (engagement noise, rating conversion, observation draws, unbiased sort keys);
# bounds each stage's scratch memory (8 MB per float block at 1,000 items)
# independently of the user count. The Generator yields the same stream in
# pieces, so outputs do not depend on it.
BLOCK_ROWS = 1024
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
        if self.num_users < 1 or self.num_items < 1:
            raise ValueError("num_users and num_items must be at least 1")
        lo, hi = RATING_SCALE
        for name in ("rating_propensities", "target_rating_distribution"):
            if len(getattr(self, name)) != hi - lo + 1:
                raise ValueError(f"{name} needs one entry per rating {lo}..{hi}, "
                                 f"got {len(getattr(self, name))}")
        if self.engagement_format not in ("dense", "triples"):
            raise ValueError(
                f"engagement_format must be dense or triples, got {self.engagement_format}"
            )
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if any(not 0.0 < p <= 1.0 for p in self.rating_propensities):
            raise ValueError("rating propensities must lie in (0, 1]")
        if abs(sum(self.target_rating_distribution) - 1.0) > 1e-6:
            raise ValueError("target rating distribution must sum to 1")
        if self.powerlaw_eta <= 1.0:
            raise ValueError("powerlaw_eta must exceed 1")
        if self.k_min < 1:
            raise ValueError("k_min must be at least 1")
        if not 0 < self.unbiased_per_user <= self.num_items:
            raise ValueError("unbiased_per_user must be in [1, num_items]")
        if not 0.0 < self.mcar_fraction < 1.0 or not 0.0 < self.train_fraction < 1.0:
            raise ValueError("fractions must be in (0, 1)")


@dataclass
class SimulationResult:
    bundle: SplitBundle
    ground_truth_propensities: PropensityModel
    truth: np.ndarray  # (user, item) ratings, uint8 as convert_to_ratings writes them
    capped_items: int


def _row_blocks(num_rows: int):
    """(start, stop) bounds of consecutive blocks of at most BLOCK_ROWS rows."""
    for start in range(0, num_rows, BLOCK_ROWS):
        yield start, min(start + BLOCK_ROWS, num_rows)


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
    factorized predictor can learn.
    """
    rng = np.random.default_rng(seed)
    user_f = rng.normal(0.0, 1.0, size=(num_users, rank)) / np.sqrt(rank)
    item_f = rng.normal(0.0, 1.0, size=(num_items, rank))
    item_quality = rng.normal(0.0, 1.0, size=num_items)
    with one_blas_thread():  # a threaded product may sum in another order
        engagement = user_f @ item_f.T
    # the same additions, in the same order, as one full-size noise draw
    engagement += item_quality
    for start, stop in _row_blocks(num_users):
        engagement[start:stop] += rng.normal(0.0, noise, size=(stop - start, num_items))
    return engagement


def convert_to_ratings(
    engagement: np.ndarray,
    target_distribution: tuple[float, ...] = DEFAULT_RATING_DISTRIBUTION,
) -> np.ndarray:
    """Quantile-convert a dense real matrix into integer ratings.

    Cells are ranked ascending, ties ranked by flat (row-major) index, and
    assigned ratings by cumulative fractions of the target distribution: the
    lowest block becomes rating 1, the next block rating 2, and so on. Block
    boundaries are floor(cumulative fraction * cell count); leftover cells
    beyond the last boundary join the top rating bucket.

    Only the cells at the inner boundaries are selected (see
    ``_boundary_values``), not the whole ranking: a cell lies at or above
    boundary ``b`` with value ``v`` when it exceeds ``v``, or when it equals
    ``v`` and is not among the first ``b - count(cells < v)`` cells equal to
    ``v`` in flat-index order. This is the rank a stable sort gives. The
    ratings are the smallest unsigned dtype that holds the number of ratings
    (uint8 for up to 255) and are written a row block at a time, so unless
    the selection falls back to a partitioned copy, no other full-size array
    is allocated.

    Raises:
        ValueError: if the distribution has a negative entry or does not sum
            to 1, or if the engagement matrix holds NaN (NaN has no rank).
    """
    if abs(sum(target_distribution) - 1.0) > 1e-6:
        raise ValueError("target distribution must sum to 1")
    if any(p < 0 for p in target_distribution):
        raise ValueError("target distribution entries must be nonnegative")
    shape = np.shape(engagement)
    flat = np.asarray(engagement, dtype=float).ravel()
    n = flat.size
    # row blocks of the first axis, as offsets into `flat`
    rows = shape[0] if shape else 1
    width = n // max(rows, 1)
    blocks = [(a * width, b * width) for a, b in _row_blocks(rows)]
    missing = sum(int(np.count_nonzero(np.isnan(flat[a:b]))) for a, b in blocks)
    if missing:
        raise ValueError(f"engagement holds {missing} NaN cells of {n}")
    cumulative = np.cumsum(target_distribution)
    # epsilon guards against float noise in the cumulative sums
    boundaries = np.floor(cumulative[:-1] * n + 1e-9).astype(np.int64)
    inner = boundaries[(boundaries > 0) & (boundaries < n)]
    values, less = _boundary_values(flat, inner, blocks)
    # ties still to be left below each boundary, consumed in flat-index order
    left = inner - less
    # a cell's rating is 1 plus the number of boundaries at or below its rank;
    # boundaries at 0 count for every cell, boundaries at n for none
    ratings = np.full(n, 1 + np.count_nonzero(boundaries <= 0),
                      dtype=np.min_scalar_type(len(target_distribution)))
    for a, b in blocks:
        cells, out = flat[a:b], ratings[a:b]
        for k, v in enumerate(values):
            out += cells > v
            ties = np.flatnonzero(cells == v)
            out[ties[left[k]:]] += 1
            left[k] -= min(left[k], ties.size)
    return ratings.reshape(shape)


def _boundary_values(flat, ranks, blocks):
    """Values at the ascending `ranks` of `flat`, and the number of cells
    strictly below each value; exact.

    From a sample of ``_SAMPLE_SIZE`` cells at fixed random positions, each
    rank is bracketed by the sample's order statistics about 4 standard
    deviations to either side of the rank's expected position. One pass over
    `blocks` counts the cells below each bracket and collects the cells inside
    it, and only those candidates are partitioned. The sample decides the
    cost, never the answer: a rank outside its bracket, or more than
    ``n // 4`` candidates in all (heavy ties), falls back to partitioning a
    full copy of `flat`, as does a matrix no larger than the sample.
    """
    n = flat.size
    if not ranks.size:
        return np.empty(0), np.zeros(0, dtype=np.int64)
    if n > _SAMPLE_SIZE:
        positions = np.random.default_rng(_SAMPLE_SEED).integers(0, n, size=_SAMPLE_SIZE)
        sample = np.sort(flat[positions])
        expected = ranks / n * _SAMPLE_SIZE
        spread = 4.0 * np.sqrt(expected * (1.0 - ranks / n)) + 1.0
        brackets = [
            (sample[lo] if lo >= 0 else -np.inf, sample[hi] if hi < _SAMPLE_SIZE else np.inf)
            for lo, hi in zip(np.floor(expected - spread).astype(np.int64),
                              np.ceil(expected + spread).astype(np.int64))
        ]
        below = np.zeros(ranks.size, dtype=np.int64)
        found = [[] for _ in brackets]
        collected = 0
        for a, b in blocks:
            cells = flat[a:b]
            for k, (lo, hi) in enumerate(brackets):
                below[k] += np.count_nonzero(cells < lo)
                found[k].append(cells[(cells >= lo) & (cells <= hi)])
                collected += found[k][-1].size
            if collected > n // 4:
                break
        else:
            candidates = [np.concatenate(f) for f in found]
            offsets = ranks - below
            if all(0 <= r < m.size for r, m in zip(offsets, candidates)):
                picks = [_select_ranks(m, r[None]) for r, m in zip(offsets, candidates)]
                values, less = (np.concatenate(x) for x in zip(*picks))
                return values, below + less
        logger.debug("the sampled brackets do not isolate the rating boundaries; "
                     "partitioning all %d cells", n)
    return _select_ranks(flat, ranks)


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
    and logged.
    """
    if eta <= 1.0 or k_min < 1:
        raise ValueError("require eta > 1 and k_min >= 1")
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

    # the same uniform stream as one full-size draw, compared a row block at a
    # time so that no full-size float temporary is live
    rng = np.random.default_rng(seed)
    item_index = np.arange(num_items)
    mask = np.empty(truth.shape, dtype=bool)
    for start, stop in _row_blocks(num_users):
        cell_p = table[item_index, truth[start:stop] - lo]
        np.less(rng.random(cell_p.shape), cell_p, out=mask[start:stop])
    users, items = np.nonzero(mask)
    dataset = RatingDataset(
        num_users=num_users,
        num_items=num_items,
        users=users,
        items=items,
        ratings=truth[users, items],
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
    floored at ``mcar_fraction`` of the pool."""
    truth = np.asarray(truth)
    num_users, num_items = truth.shape
    if per_user > num_items:
        raise ValueError("per_user cannot exceed the number of items")
    rng = np.random.default_rng(seed)
    # the same key stream as one (num_users, num_items) draw, a block of rows
    # at a time; each row keeps its per_user smallest keys in ascending order
    chosen = np.empty((num_users, per_user), dtype=np.int64)
    for start, stop in _row_blocks(num_users):
        keys = rng.random((stop - start, num_items))
        top = np.argpartition(keys, per_user - 1, axis=1)[:, :per_user]
        order = np.argsort(np.take_along_axis(keys, top, axis=1), axis=1, kind="stable")
        chosen[start:stop] = np.take_along_axis(top, order, axis=1)
    users = np.repeat(np.arange(num_users), per_user)
    items = chosen.ravel()
    pool = RatingDataset(
        num_users=num_users,
        num_items=num_items,
        users=users,
        items=items,
        ratings=truth[users, items],
    )
    return split_unbiased(pool, mcar_fraction, seed)


def simulate(spec: SimulationSpec) -> SimulationResult:
    """Run the full pipeline for one spec; deterministic per seed.

    Sub-streams are derived from the spec seed: [seed, 0] engagement, [seed, 1]
    biased observation sampling, [seed, 2] unbiased sampling, [seed, 3] the
    train/validation split.
    """
    if spec.engagement_path is not None:
        engagement = _load_engagement(spec)
    else:
        engagement = generate_engagement(
            spec.num_users,
            spec.num_items,
            seed=[spec.seed, 0],
            rank=spec.engagement_rank,
            noise=spec.engagement_noise,
        )
    truth = convert_to_ratings(engagement, spec.target_rating_distribution)
    del engagement  # the one dense 8-byte user x item matrix
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
