"""Observation-propensity estimation, clipping, normalization, and scoring.

Five estimator families are supported. Popularity scores depend only on the
item, positivity scores only on the rating value, and the joint (multifactorial)
family on the (item, rating) combination. The mf_learned family fits a
factorized logistic model of the observation matrix, and ground_truth wraps an
exact per-(item, rating) table from a simulator.

Every family is one lookup table whose axes :data:`AXES` names; a fitted
mf_learned model is its (user, item) table of observation probabilities.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .blas import one_blas_thread
from .data import (
    _NONNEGATIVE, _POSITIVE, NUM_RATINGS, RATING_SCALE, RatingDataset, _check_rules, _open_input,
)
from .model import _INIT_RULES, PARAM_GROUPS, init_params
from .optim import adam_step, init_adam_state

logger = logging.getLogger(__name__)

# The axes of each family's propensity table, in order; these are also the
# index columns of its table file. A "rating" axis has NUM_RATINGS entries, one
# per value of RATING_SCALE (file columns hold rating values); the others run
# over 0-based indices.
AXES = {
    "uniform": (),
    "popularity": ("item_index",),
    "positivity": ("rating",),
    "multifactorial": ("item_index", "rating"),
    "mf_learned": ("user_index", "item_index"),
    "ground_truth": ("item_index", "rating"),
}
FAMILIES = tuple(AXES)


class PropensityError(ValueError):
    """An estimator cannot produce valid propensities from the given data."""


@dataclass(frozen=True)
class PropensityModel:
    """A scoring object mapping (user, item, rating) to an observation probability.

    `table` has one axis per name in ``AXES[family]`` (a 0-d array for
    uniform). Scores are computed as ``min(raw * scale, 1)`` floored at
    `clip_floor`; `scale` is adjusted by :func:`normalize` and `clip_floor`
    by :func:`clip`.

    Raises ValueError for an unknown family, a missing table, and a table
    whose axis count or rating-axis length does not fit the family and
    RATING_SCALE.
    """

    family: str
    table: np.ndarray | None = None
    scale: float = 1.0
    clip_floor: float = 0.0
    normalization: str = "none"
    alpha1: float | None = None
    alpha2: float | None = None

    def __post_init__(self):
        if self.family not in AXES:
            raise ValueError(f"unknown propensity family {self.family!r}")
        if self.table is None:
            raise ValueError(f"{self.family} model needs a table")
        table = np.asarray(self.table, dtype=float)
        object.__setattr__(self, "table", table)
        axes = AXES[self.family]
        if table.ndim != len(axes):
            raise ValueError(
                f"{self.family} table needs {len(axes)} axes {axes}, got shape {table.shape}"
            )
        for name, length in zip(axes, table.shape):
            if name == "rating" and length != NUM_RATINGS:
                raise ValueError(
                    f"{self.family} table has {length} rating entries for the "
                    f"rating scale {RATING_SCALE}"
                )

    def _raw(self, users: np.ndarray, items: np.ndarray, ratings: np.ndarray) -> np.ndarray:
        lo, hi = RATING_SCALE
        if np.any(ratings < lo) or np.any(ratings > hi):
            raise IndexError("rating outside the model's rating scale")
        columns = {"user_index": users, "item_index": items, "rating": ratings - lo}
        idx = tuple(columns[name] for name in AXES[self.family])
        for name, i, bound in zip(AXES[self.family], idx, self.table.shape):
            self._check_range(i, bound, name.removesuffix("_index"))
        return np.broadcast_to(self.table[idx], users.shape)

    @staticmethod
    def _check_range(idx: np.ndarray, bound: int, what: str) -> None:
        if len(idx) and (idx.min() < 0 or idx.max() >= bound):
            raise IndexError(f"{what} index out of range [0, {bound})")


def score_many(
    model: PropensityModel,
    users: np.ndarray,
    items: np.ndarray,
    ratings: np.ndarray,
) -> np.ndarray:
    """Vectorized propensity scores for parallel (user, item, rating) arrays
    of integers, in any integer dtype."""
    # the product is a new array, so the cap and floor go in place
    scores = model._raw(np.asarray(users), np.asarray(items), np.asarray(ratings)) * model.scale
    np.minimum(scores, 1.0, out=scores)
    return np.maximum(scores, model.clip_floor, out=scores)


def score_dataset(model: PropensityModel, data: RatingDataset) -> np.ndarray:
    return score_many(model, data.users, data.items, data.ratings)


def _counts_by_rating(data: RatingDataset) -> np.ndarray:
    return np.bincount(data.ratings - RATING_SCALE[0], minlength=NUM_RATINGS).astype(float)


def _counts_by_item_rating(data: RatingDataset) -> np.ndarray:
    # int64 codes: int32 items times NUM_RATINGS overflow past 2**31 / NUM_RATINGS
    flat = data.items.astype(np.int64)
    flat *= NUM_RATINGS
    flat += data.ratings - RATING_SCALE[0]
    counts = np.bincount(flat, minlength=data.num_items * NUM_RATINGS)
    return counts.reshape(data.num_items, NUM_RATINGS).astype(float)


def _fallback_prior(prior: np.ndarray, what: str) -> np.ndarray:
    """Replace zero entries of a prior vector by its smallest positive entry."""
    zero = prior <= 0
    if not np.any(zero):
        return prior
    positive = prior[~zero]
    if len(positive) == 0:
        raise PropensityError(f"all {what} prior mass is zero; cannot estimate")
    fallback = positive.min()
    logger.warning(
        "%d %s value(s) unseen in the unbiased sample; falling back to the "
        "minimum nonzero prior %.6g", int(zero.sum()), what, fallback,
    )
    out = prior.copy()
    out[zero] = fallback
    return out


def _cap_at_one(table: np.ndarray, family: str) -> np.ndarray:
    over = table > 1.0
    if np.any(over):
        logger.debug("%s estimator: capped %d propensities at 1", family, int(over.sum()))
    return np.minimum(table, 1.0)


def uniform_propensities(train: RatingDataset) -> PropensityModel:
    """Constant propensity equal to the overall observation frequency."""
    value = len(train) / (train.num_users * train.num_items)
    return PropensityModel(family="uniform", table=value)


def estimate_positivity(train: RatingDataset, mcar: RatingDataset) -> PropensityModel:
    """Rating-value propensities via Bayes' rule on observed vs. unbiased frequencies.

    For rating value r, the estimate is
    ``P(o=1 | y=r) = P(y=r | o=1) P(o=1) / P(y=r)`` with the conditional taken
    from the biased log, the observation prior from the log density, and the
    rating prior from the small unbiased (mcar) sample. Rating values missing
    from the mcar sample fall back to the smallest nonzero prior, with a warning.
    """
    if len(mcar) == 0:
        raise PropensityError("positivity estimation requires a nonempty mcar sample")
    count_d = _counts_by_rating(train)
    count_m = _counts_by_rating(mcar)
    prior = _fallback_prior(count_m / len(mcar), "rating")
    p_obs = len(train) / (train.num_users * train.num_items)
    conditional = count_d / len(train)
    table = _cap_at_one(conditional * p_obs / prior, "positivity")
    return PropensityModel(family="positivity", table=table)


def estimate_popularity(train: RatingDataset) -> PropensityModel:
    """Per-item propensities from observation counts.

    The raw item frequency ``count_i / |D|`` is a distribution over items; it is
    rescaled by ``|D| / U`` (giving the fraction of users that rated the
    item) so the values are usable as per-pair observation probabilities. Items
    never observed keep propensity zero and rely on the clip floor.
    """
    if len(train) == 0:
        raise PropensityError("popularity estimation requires a nonempty train set")
    counts = np.bincount(train.items, minlength=train.num_items).astype(float)
    table = counts / train.num_users
    return PropensityModel(family="popularity", table=table)


def estimate_multifactorial(
    train: RatingDataset,
    mcar: RatingDataset,
    alpha1: float = 1.0,
    alpha2: float = 1.0,
) -> PropensityModel:
    """Joint (item, rating) propensities via Bayes' rule with additive smoothing.

    The estimate decomposes as
    ``P(o=1 | y=r, i) = P(y=r, i | o=1) P(o=1) / P(y=r, i)`` where:

    - the conditional joint frequency from the biased log is smoothed by alpha1:
      ``(count_D(i, r) + a1) / (|D| + a1 * I * R)``, which sums to 1 over all
      (item, rating) cells;
    - the joint prior is factored as ``P(y=r) * P(i | y=r)`` over the unbiased
      sample, smoothing only the item-given-rating part by alpha2:
      ``(count_M(i, r) + a2) / (count_M(r) + a2 * I)``; item sparsity is much
      more severe than rating-value sparsity, so the rating prior is left raw
      (with the same zero-count fallback as the positivity estimator);
    - ``P(o=1) = |D| / (U * I)``, with the id space (U, I) of `train`.

    The smoothing strengths are stored as floats on the model. Raises
    ValueError for a strength that is negative or NaN, and PropensityError
    for an empty mcar sample or a different item space.
    """
    a1, a2 = float(alpha1), float(alpha2)
    _check_rules({"alpha1": a1, "alpha2": a2}, _SMOOTHING_RULES)
    if len(mcar) == 0:
        raise PropensityError("joint estimation requires a nonempty mcar sample")
    if mcar.num_items != train.num_items:
        raise PropensityError(
            f"mcar sample has {mcar.num_items} items but train has {train.num_items}"
        )
    joint_conditional = smoothed_joint_conditional(train, a1)
    if a1 == 0.0 and np.any(joint_conditional == 0):
        logger.warning(
            "alpha1=0 with unobserved (item, rating) cells yields zero propensities; "
            "they will rely on the clip floor"
        )
    if a2 == 0.0 and np.any(_counts_by_item_rating(mcar) == 0):
        raise PropensityError(
            "alpha2=0 with (item, rating) cells unseen in the mcar sample gives a "
            "zero-denominator prior; use alpha2 > 0"
        )

    rating_prior = _fallback_prior(_counts_by_rating(mcar) / len(mcar), "rating")
    item_given_rating = smoothed_item_given_rating(mcar, a2)
    prior = rating_prior[None, :] * item_given_rating
    p_obs = len(train) / (train.num_users * train.num_items)
    table = _cap_at_one(joint_conditional * p_obs / prior, "multifactorial")
    return PropensityModel(family="multifactorial", table=table, alpha1=a1, alpha2=a2)


def smoothed_joint_conditional(train: RatingDataset, alpha1: float) -> np.ndarray:
    """The alpha1-smoothed (item, rating) frequency table; sums to 1 over cells."""
    count = _counts_by_item_rating(train)
    return (count + alpha1) / (len(train) + alpha1 * train.num_items * NUM_RATINGS)


def smoothed_item_given_rating(mcar: RatingDataset, alpha2: float) -> np.ndarray:
    """The alpha2-smoothed item distribution per rating; each column sums to 1."""
    count_r = _counts_by_rating(mcar)
    count_ir = _counts_by_item_rating(mcar)
    return (count_ir + alpha2) / (count_r + alpha2 * mcar.num_items)


def estimate_mf_propensity(
    train: RatingDataset,
    *,
    dim: int = 8,
    learning_rate: float = 0.05,
    l2_weight: float = 5e-4,
    max_steps: int = 500,
    tol: float = 1e-8,
    seed: int = 0,
) -> PropensityModel:
    """Fit a factorized logistic model of the binary observation matrix.

    Minimizes the full-matrix binary cross-entropy of
    ``sigmoid(P_u . Q_i + a_u + b_i + c)`` against the observation indicator
    with full-batch adaptive-moment updates; every (user, item) cell
    contributes, so no negative sampling is involved. The default L2 weight is
    deliberately firm: it shrinks sparsely observed entities toward the global
    rate instead of letting a single binary matrix be memorized. On
    non-convergence, or at the first step that leaves a parameter non-finite,
    the best parameters seen are returned with a warning. Raises ValueError
    for a step count or learning rate that is not positive, or an L2 weight
    or tolerance that is negative or NaN (see ``_FIT_RULES``).

    The model has the rating model's structure, so the fit is an
    :class:`~ipsmf.model.MFParameters` stepped by :func:`~ipsmf.optim.adam_step`
    over all groups at once.

    The observation matrix is never built: the observed cells are their
    sorted flat indices (the sorted pair codes), and the base rate is their
    count over the cells. Each step works in two preallocated (U, I)
    buffers: the clipped scores ``s`` and a work buffer that first holds the
    per-cell log-likelihood and then the logit gradient. One ``P @ Q.T``
    fills ``s``; the elementwise passes then run on row blocks of about
    ``_FIT_BLOCK_CELLS`` cells, which stay in cache between passes, and
    write the observed cells of each block through their indices. ``s`` lies
    in ``[1e-12, 1 - 1e-12]``, so both logs are finite and
    ``obs * log(s) + (1 - obs) * log(1 - s)`` equals the log of ``s`` at an
    observed cell and of ``1 - s`` elsewhere bit for bit (the zero-weighted
    term adds -0.0): one log per cell is taken instead of two. The gradient
    ``(s - obs) / (U * I)`` is ``s / (U * I)``, with ``(s - 1) / (U * I)`` at
    the observed cells. The loss mean, the gradient sums and products run
    over the whole (U, I) buffers; the L2 term (one multiply and one add)
    and the Adam step over the whole packed parameter buffers.

    The loop's matrix products run with OpenBLAS at one thread (see
    :mod:`ipsmf.blas`), so the fit does not depend on the host's cores. The
    returned table holds the unclipped sigmoid scores of the best
    parameters, built in ``s``; its dot products use the per-pair ``einsum``
    reduction, not ``P @ Q.T``, whose BLAS sums can differ in the last bit.
    """
    _check_rules(dict(max_steps=max_steps, learning_rate=learning_rate, l2_weight=l2_weight,
                      tol=tol), _FIT_RULES)
    n_users, n_items = train.num_users, train.num_items
    n_cells = n_users * n_items
    # the flat indices of the observed cells, as intp for put and take
    cells = np.sort(train.pair_codes()).astype(np.intp)
    base_rate = np.clip(len(cells) / n_cells, 1e-6, 1.0 - 1e-6)
    c = float(np.log(base_rate / (1.0 - base_rate)))
    params = init_params(n_users, n_items, dim, seed, scale=0.1, global_offset=c)
    state = init_adam_state(params)
    grads = params.copy()  # every group is overwritten each step
    s = np.empty((n_users, n_items))
    w = np.empty_like(s)
    block_rows = max(1, _FIT_BLOCK_CELLS // n_items)
    blocks = []  # (rows, their observed cells as flat indices into s[rows])
    for r in range(0, n_users, block_rows):
        lo, hi = np.searchsorted(cells, [r * n_items, (r + block_rows) * n_items])
        blocks.append((slice(r, r + block_rows), cells[lo:hi] - r * n_items))
    best_loss, best, prev_loss, converged = np.inf, None, np.inf, False

    # a diverging step overflows to inf or NaN, which no loss is below: the
    # fit stops at the first step that leaves a parameter non-finite and
    # returns the best parameters seen, not a floating-point warning, even
    # where warnings are errors; no later step could make them finite again
    with one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, max_steps + 1):  # the three products go through BLAS
            np.matmul(params.user_emb, params.item_emb.T, out=s)
            for rows, obs in blocks:
                sb = _sigmoid_of_logits(s, params, rows)
                np.clip(sb, 1e-12, 1.0 - 1e-12, out=sb)
                wb = np.subtract(1.0, sb, out=w[rows])
                wb.put(obs, sb.take(obs))
                np.log(wb, out=wb)
            loss = float(-np.mean(w) + l2_weight * params.squared_norm())
            if loss < best_loss:
                best_loss, best = loss, params.copy()
            if np.isfinite(prev_loss) and abs(prev_loss - loss) <= tol * max(abs(prev_loss), 1.0):
                converged = True
                break
            prev_loss = loss

            for rows, obs in blocks:
                sb = s[rows]
                wb = np.divide(sb, n_cells, out=w[rows])
                wb.put(obs, (sb.take(obs) - 1.0) / n_cells)
            np.matmul(w, params.item_emb, out=grads.user_emb)
            np.matmul(w.T, params.user_emb, out=grads.item_emb)
            np.sum(w, axis=1, out=grads.user_off)
            np.sum(w, axis=0, out=grads.item_off)
            np.sum(w, out=grads.global_off)
            grads._buffer += np.multiply(params._buffer, 2 * l2_weight)
            adam_step(params, grads, state, PARAM_GROUPS, learning_rate)
            finite = np.isfinite(params._buffer).all()
            if not finite:  # inf moments give a NaN update, and NaN sticks
                break

    if not converged:
        logger.warning(
            "observation-model fit did not converge %s; returning the best parameters "
            "seen (loss %.6g)", f"in {max_steps} steps" if finite else
            f"(its parameters are non-finite after step {step})", best_loss,
        )
    np.einsum("ud,id->ui", best.user_emb, best.item_emb, out=s)
    for rows, _ in blocks:
        _sigmoid_of_logits(s, best, rows)
    return PropensityModel(family="mf_learned", table=s)


# the largest float64 whose exp is finite
_MAX_EXP_ARG = float(np.log(np.finfo(float).max))

# The cells of one row block of the observation-model fit's elementwise
# passes: 64k float64 cells are 512 KB in each of the two (U, I) buffers, so
# a block stays in a 2 MB L2 cache from its first pass to its last. On a
# 2-vCPU Xeon VM (2 MB L2 per core) at 1,000 x 500, dimension 8 and 90
# steps, blocks of 16k to 1M cells wrote the same table bytes; 32k-131k
# took 0.65-0.68 s, 16k 0.74 s and one block of the whole matrix 0.81 s.
_FIT_BLOCK_CELLS = 1 << 16


def _sigmoid_of_logits(s, params, rows):
    """Overwrite the row block ``s[rows]`` of the (user, item) dot products
    of `params` with ``1 / (1 + exp(-(s + a[:, None] + b[None, :] + c)))``,
    where ``a, b, c`` are its offset groups, and return the block. The sums
    are taken in that order; ``-c - x`` is the negated ``x + c`` bit for bit.

    ``exp`` is taken of at most ``_MAX_EXP_ARG``, so a logit below about -709
    gives a tiny positive score instead of an overflow to 0; every other cell
    is unchanged."""
    block = s[rows]
    block += params.user_off[rows, None]
    block += params.item_off[None, :]
    np.subtract(-params.global_off, block, out=block)
    np.minimum(block, _MAX_EXP_ARG, out=block)
    np.exp(block, out=block)
    np.add(1.0, block, out=block)
    np.divide(1.0, block, out=block)
    return block


def clip(model: PropensityModel, tau: float) -> PropensityModel:
    """Floor every score at tau; tau=1 makes every propensity 1. Raises
    ValueError for a tau, None included, outside (0, 1]."""
    _check_rules({"clip_floor": tau}, {"clip_floor": _CLIP_FLOOR})
    return replace(model, clip_floor=tau)


def normalize(model: PropensityModel, train: RatingDataset) -> PropensityModel:
    """Rescale scores by one constant so the mean inverse propensity over the
    train triples equals ``num_users * num_items / |D|``; scores stay capped at 1.

    The constant is computed on the training split only, which must hold a
    triple. A train score too small to invert (a subnormal float) makes it
    overflow, and is rejected rather than turned into an infinite scale.
    """
    if len(train) == 0:
        raise PropensityError("cannot normalize on an empty train split")
    scores = score_dataset(model, train)
    if np.any(scores <= 0):
        raise PropensityError("cannot normalize a model with zero scores on train")
    target = train.num_users * train.num_items / len(train)
    with np.errstate(over="ignore"):
        k = float(np.mean(1.0 / scores)) / target
    if not np.isfinite(k):
        raise PropensityError(
            f"cannot normalize: the smallest train score {scores.min():.3g} "
            "makes the normalization constant overflow"
        )
    return replace(model, scale=model.scale * k, normalization="mean-inverse")


def default_clip_floor(model: PropensityModel, train: RatingDataset) -> float:
    """Heuristic floor: 5% of the mean propensity over the train triples."""
    return 0.05 * float(score_dataset(model, train).mean())


def prepare(
    model: PropensityModel,
    train: RatingDataset,
    do_normalize: bool = True,
    clip_floor: float | None = None,
) -> PropensityModel:
    """Standard variance-control pipeline: normalize, then clip.

    With ``clip_floor=None`` the default heuristic floor is used. Zero raw
    scores (for example items never observed) make normalization impossible,
    so such models are clipped at the floor first, then normalized.
    """
    if do_normalize:
        if np.any(score_dataset(model, train) <= 0):
            model = clip(model, clip_floor or default_clip_floor(model, train))
        model = normalize(model, train)
    tau = clip_floor if clip_floor is not None else default_clip_floor(model, train)
    return clip(model, tau)


# the settings rules (see data._check_rules) of estimate_multifactorial,
# estimate_mf_propensity and clip
_SMOOTHING_RULES = {"alpha1": _NONNEGATIVE, "alpha2": _NONNEGATIVE}
_FIT_RULES = {"max_steps": _POSITIVE, "learning_rate": _POSITIVE, "l2_weight": _NONNEGATIVE,
              "tol": _NONNEGATIVE}
_CLIP_FLOOR = (lambda v: v is not None and 0.0 < v <= 1.0, "in (0, 1]")


@dataclass(frozen=True)
class PipelineConfig:
    """The propensity pipeline's settings, with the CLI's defaults; a None
    clip floor is :func:`default_clip_floor`'s. Raises ValueError for a
    value that breaks its rule in PIPELINE_RULES."""

    normalize: bool = True
    clip_floor: float | None = None
    alpha1: float = 1.0
    alpha2: float = 1.0
    propensity_dim: int = 8
    propensity_learning_rate: float = 0.05
    propensity_steps: int = 300

    def __post_init__(self):
        _check_rules(vars(self), PIPELINE_RULES)


# the rule of each PipelineConfig field but normalize: its function's rule,
# None also allowed as a clip floor; cli reads [propensity] with them
PIPELINE_RULES = {
    "clip_floor": (lambda v: v is None or _CLIP_FLOOR[0](v), _CLIP_FLOOR[1]),
    **_SMOOTHING_RULES,
    "propensity_dim": _INIT_RULES["dim"],
    "propensity_learning_rate": _FIT_RULES["learning_rate"],
    "propensity_steps": _FIT_RULES["max_steps"],
}


# Table files: one "# key=value ..." header line, a column-name line (the
# family's AXES, then "propensity"), then one row per table entry in row-major order.


def save_propensity(model: PropensityModel, path: str | Path, delimiter: str = ",") -> None:
    lo, hi = RATING_SCALE
    meta = {
        "family": model.family,
        "tau": repr(model.clip_floor),
        "alpha1": "" if model.alpha1 is None else repr(model.alpha1),
        "alpha2": "" if model.alpha2 is None else repr(model.alpha2),
        "scale": repr(model.scale),
        "normalization": model.normalization,
        "rating_min": lo,
        "rating_max": hi,
    }
    header = "# " + " ".join(f"{k}={v}" for k, v in meta.items())
    axes = AXES[model.family]
    offsets = [lo if name == "rating" else 0 for name in axes]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write(delimiter.join((*axes, "propensity")) + "\n")
        for index in np.ndindex(model.table.shape):
            fields = [str(i + off) for i, off in zip(index, offsets)]
            fh.write(delimiter.join((*fields, repr(float(model.table[index])))) + "\n")


_HEADER_KEYS = (
    "family", "tau", "alpha1", "alpha2", "scale", "normalization", "rating_min", "rating_max",
)


def load_propensity(path: str | Path, delimiter: str = ",") -> PropensityModel:
    """Read a table written by :func:`save_propensity`.

    Raises PropensityError (a ValueError) naming the file, and the line where
    there is one, for a file that cannot be opened, a missing header key, a
    header rating range other than RATING_SCALE, a header scale that is not
    finite and positive, a tau outside [0, 1], a normalization other than
    none or mean-inverse, an alpha that is neither empty nor nonnegative, a
    column line other than the family's axes and ``propensity``, a row with
    the wrong number of fields, an index or propensity that does not parse,
    a propensity that is not finite or lies outside [0, 1], an index outside
    its range, a duplicate index, or an index range with a gap.
    """
    with _open_input(path, PropensityError) as fh:
        header = fh.readline().strip()
        if not header.startswith("# "):
            raise PropensityError(f"{path}: missing propensity table header")
        pairs = [kv.split("=", 1) for kv in header[2:].split()]
        bad = [kv[0] for kv in pairs if len(kv) != 2]
        if bad:
            raise PropensityError(f"{path}:1: header field {bad[0]!r} is not key=value")
        meta = dict(pairs)
        missing = [k for k in _HEADER_KEYS if k not in meta]
        if missing:
            raise PropensityError(f"{path}:1: header is missing key(s) {', '.join(missing)}")
        columns = fh.readline().strip().split(delimiter)
        rows = [
            (lineno, line.strip().split(delimiter))
            for lineno, line in enumerate(fh, start=3) if line.strip()
        ]

    family = meta["family"]
    if family not in AXES:
        raise PropensityError(f"{path}: unknown family {family!r} (columns {columns})")
    try:
        lo, hi = int(meta["rating_min"]), int(meta["rating_max"])
        kwargs = dict(
            family=family,
            scale=float(meta["scale"]),
            clip_floor=float(meta["tau"]),
            normalization=meta["normalization"],
            alpha1=float(meta["alpha1"]) if meta["alpha1"] else None,
            alpha2=float(meta["alpha2"]) if meta["alpha2"] else None,
        )
    except ValueError as exc:
        raise PropensityError(f"{path}:1: bad header value: {exc}") from None
    if (lo, hi) != RATING_SCALE:
        raise PropensityError(
            f"{path}:1: rating_min={lo} rating_max={hi} is not the rating scale {RATING_SCALE}"
        )
    # negated comparisons, so that NaN is rejected too
    for key, bad, rule in (
        ("scale", not 0.0 < kwargs["scale"] < np.inf, "finite and positive"),
        ("tau", not 0.0 <= kwargs["clip_floor"] <= 1.0, "in [0, 1]"),
        ("normalization", meta["normalization"] not in ("none", "mean-inverse"),
         "none or mean-inverse"),
        *((key, not (kwargs[key] is None or kwargs[key] >= 0.0), "empty or nonnegative")
          for key in ("alpha1", "alpha2")),
    ):
        if bad:
            raise PropensityError(f"{path}:1: {key}={meta[key]} is not {rule}")
    expected = (*AXES[family], "propensity")
    if tuple(columns) != expected:
        raise PropensityError(f"{path}:2: column line {delimiter.join(columns)!r} is not "
                              f"{delimiter.join(expected)!r}")

    return PropensityModel(table=_read_table(path, rows, AXES[family]), **kwargs)


def _read_table(path, rows, index_columns) -> np.ndarray:
    """The dense table that `rows` (pairs of line number and fields) fill, with
    one axis per index column; rating columns span RATING_SCALE, the other
    axes 0 through the largest index seen."""
    if not rows:
        raise PropensityError(f"{path}: no propensity rows")
    lo, hi = RATING_SCALE
    n_fields = len(index_columns) + 1
    offsets = [lo if name == "rating" else 0 for name in index_columns]
    indices = np.empty((len(rows), len(index_columns)), dtype=np.int64)
    values = np.empty(len(rows))
    for k, (lineno, fields) in enumerate(rows):
        if len(fields) != n_fields:
            raise PropensityError(
                f"{path}:{lineno}: expected {n_fields} field(s), got {len(fields)}"
            )
        for j, (name, text) in enumerate(zip(index_columns, fields)):
            try:
                index = int(text)
            except ValueError:
                raise PropensityError(f"{path}:{lineno}: {name} {text!r} is not an integer") from None
            if name == "rating":
                if not lo <= index <= hi:
                    raise PropensityError(
                        f"{path}:{lineno}: rating {index} outside the header's scale [{lo}, {hi}]"
                    )
            elif index < 0:
                raise PropensityError(f"{path}:{lineno}: {name} {index} is negative")
            indices[k, j] = index - offsets[j]
        try:
            value = float(fields[-1])
        except ValueError:
            raise PropensityError(
                f"{path}:{lineno}: propensity {fields[-1]!r} is not a number"
            ) from None
        if not 0.0 <= value <= 1.0:  # also false for NaN
            raise PropensityError(f"{path}:{lineno}: propensity {value!r} outside [0, 1]")
        values[k] = value

    shape = tuple(
        NUM_RATINGS if name == "rating" else int(indices[:, j].max()) + 1
        for j, name in enumerate(index_columns)
    )
    flat = np.ravel_multi_index(tuple(indices.T), shape) if shape else np.zeros(len(rows), np.int64)
    order = np.argsort(flat, kind="stable")
    ordered = flat[order]
    repeated = np.flatnonzero(ordered[1:] == ordered[:-1])
    if len(repeated):
        first, again = order[repeated[0]], order[repeated[0] + 1]
        raise PropensityError(
            f"{path}:{rows[again][0]}: duplicate of the row on line {rows[first][0]}"
        )
    size = int(np.prod(shape, dtype=np.int64))
    if len(rows) != size:
        # distinct sorted flat indices: the first that differs from its rank is
        # the first one missing
        skipped = np.flatnonzero(ordered != np.arange(len(rows)))
        gap = np.unravel_index(int(skipped[0]) if len(skipped) else len(rows), shape)
        where = ", ".join(
            f"{name} {int(i) + off}" for name, i, off in zip(index_columns, gap, offsets)
        )
        raise PropensityError(f"{path}: no row for {where} (gap in the index range)")
    table = np.zeros(size)
    table[flat] = values
    return table.reshape(shape)
