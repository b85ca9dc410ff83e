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

from .data import RatingDataset
from .model import _adam_update

logger = logging.getLogger(__name__)

# The axes of each family's propensity table, in order; these are also the
# index columns of its table file. "rating" axes run over the rating scale
# (file columns hold rating values), the others over 0-based indices.
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
class SmoothingConfig:
    """Additive-count smoothing strengths for the joint estimator.

    alpha1 smooths the observed (item, rating) frequency table; alpha2 smooths
    the item-given-rating distribution estimated from the unbiased sample.
    """

    alpha1: float = 1.0
    alpha2: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alpha1", float(self.alpha1))
        object.__setattr__(self, "alpha2", float(self.alpha2))
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ValueError("smoothing strengths must be nonnegative")


@dataclass(frozen=True)
class PropensityModel:
    """A scoring object mapping (user, item, rating) to an observation probability.

    `table` has one axis per name in ``AXES[family]`` (a 0-d array for
    uniform). Scores are computed as ``min(raw * scale, 1)`` floored at
    `clip_floor`; `scale` is adjusted by :func:`normalize` and `clip_floor`
    by :func:`clip`.

    Raises ValueError for an unknown family, a missing table, and a table
    whose axis count or rating-axis length does not fit the family and scale.
    """

    family: str
    rating_scale: tuple[int, int] = (1, 5)
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
            if name == "rating" and length != self.num_rating_values:
                raise ValueError(
                    f"{self.family} table has {length} rating entries for the "
                    f"rating scale {self.rating_scale}"
                )

    @property
    def num_rating_values(self) -> int:
        lo, hi = self.rating_scale
        return hi - lo + 1

    def _raw(self, users: np.ndarray, items: np.ndarray, ratings: np.ndarray) -> np.ndarray:
        lo, hi = self.rating_scale
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
    """Vectorized propensity scores for parallel (user, item, rating) arrays."""
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    ratings = np.asarray(ratings, dtype=np.int64)
    raw = model._raw(users, items, ratings) * model.scale
    return np.maximum(np.minimum(raw, 1.0), model.clip_floor)


def score(model: PropensityModel, user: int, item: int, rating: int) -> float:
    """Propensity of observing the given rating for one (user, item) pair."""
    return float(
        score_many(model, np.array([user]), np.array([item]), np.array([rating]))[0]
    )


def score_dataset(model: PropensityModel, data: RatingDataset) -> np.ndarray:
    return score_many(model, data.users, data.items, data.ratings)


def _counts_by_rating(data: RatingDataset) -> np.ndarray:
    lo, _ = data.rating_scale
    return np.bincount(data.ratings - lo, minlength=data.num_rating_values).astype(float)


def _counts_by_item_rating(data: RatingDataset, num_items: int) -> np.ndarray:
    lo, _ = data.rating_scale
    flat = data.items * data.num_rating_values + (data.ratings - lo)
    counts = np.bincount(flat, minlength=num_items * data.num_rating_values)
    return counts.reshape(num_items, data.num_rating_values).astype(float)


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


def uniform_propensities(
    train: RatingDataset, num_users: int, num_items: int
) -> PropensityModel:
    """Constant propensity equal to the overall observation frequency."""
    value = len(train) / (num_users * num_items)
    return PropensityModel(
        family="uniform", rating_scale=train.rating_scale, table=value
    )


def estimate_positivity(
    train: RatingDataset,
    mcar: RatingDataset,
    num_users: int,
    num_items: int,
) -> PropensityModel:
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
    p_obs = len(train) / (num_users * num_items)
    conditional = count_d / len(train)
    table = _cap_at_one(conditional * p_obs / prior, "positivity")
    return PropensityModel(
        family="positivity", rating_scale=train.rating_scale, table=table
    )


def estimate_popularity(
    train: RatingDataset, num_users: int, num_items: int
) -> PropensityModel:
    """Per-item propensities from observation counts.

    The raw item frequency ``count_i / |D|`` is a distribution over items; it is
    rescaled by ``|D| / num_users`` (giving the fraction of users that rated the
    item) so the values are usable as per-pair observation probabilities. Items
    never observed keep propensity zero and rely on the clip floor.
    """
    if len(train) == 0:
        raise PropensityError("popularity estimation requires a nonempty train set")
    counts = np.bincount(train.items, minlength=num_items).astype(float)
    table = counts / num_users
    return PropensityModel(
        family="popularity", rating_scale=train.rating_scale, table=table
    )


def estimate_multifactorial(
    train: RatingDataset,
    mcar: RatingDataset,
    num_users: int,
    num_items: int,
    smoothing: SmoothingConfig = SmoothingConfig(),
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
    - ``P(o=1) = |D| / (num_users * num_items)``.
    """
    if len(mcar) == 0:
        raise PropensityError("joint estimation requires a nonempty mcar sample")
    a1, a2 = smoothing.alpha1, smoothing.alpha2
    joint_conditional = smoothed_joint_conditional(train, num_items, a1)
    if a1 == 0.0 and np.any(joint_conditional == 0):
        logger.warning(
            "alpha1=0 with unobserved (item, rating) cells yields zero propensities; "
            "they will rely on the clip floor"
        )
    if a2 == 0.0 and np.any(_counts_by_item_rating(mcar, num_items) == 0):
        raise PropensityError(
            "alpha2=0 with (item, rating) cells unseen in the mcar sample gives a "
            "zero-denominator prior; use alpha2 > 0"
        )

    rating_prior = _fallback_prior(_counts_by_rating(mcar) / len(mcar), "rating")
    item_given_rating = smoothed_item_given_rating(mcar, num_items, a2)
    prior = rating_prior[None, :] * item_given_rating
    p_obs = len(train) / (num_users * num_items)
    table = _cap_at_one(joint_conditional * p_obs / prior, "multifactorial")
    return PropensityModel(
        family="multifactorial",
        rating_scale=train.rating_scale,
        table=table,
        alpha1=a1,
        alpha2=a2,
    )


def smoothed_joint_conditional(
    train: RatingDataset, num_items: int, alpha1: float
) -> np.ndarray:
    """The alpha1-smoothed (item, rating) frequency table; sums to 1 over cells."""
    count = _counts_by_item_rating(train, num_items)
    return (count + alpha1) / (len(train) + alpha1 * num_items * train.num_rating_values)


def smoothed_item_given_rating(
    mcar: RatingDataset, num_items: int, alpha2: float
) -> np.ndarray:
    """The alpha2-smoothed item distribution per rating; each column sums to 1."""
    count_r = _counts_by_rating(mcar)
    count_ir = _counts_by_item_rating(mcar, num_items)
    return (count_ir + alpha2) / (count_r + alpha2 * num_items)


def estimate_mf_propensity(
    train: RatingDataset,
    num_users: int,
    num_items: int,
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
    non-convergence the best parameters seen are returned with a warning.

    Each step works in two preallocated (U, I) buffers: the clipped scores
    ``s`` and a work buffer that first holds the per-cell log-likelihood and
    then the logit gradient. The observation matrix is 0/1 and ``s`` lies in
    ``[1e-12, 1 - 1e-12]``, so both logs are finite and
    ``obs * log(s) + (1 - obs) * log(1 - s)`` equals
    ``log(where(obs, s, 1 - s))`` bit for bit (the zero-weighted term adds
    -0.0): one log per cell is taken instead of two.

    The returned table holds the unclipped sigmoid scores of the best
    parameters, built in ``s``; its dot products use the per-pair ``einsum``
    reduction, not ``P @ Q.T``, whose BLAS sums can differ in the last bit.
    """
    observed = np.zeros((num_users, num_items), dtype=bool)
    observed[train.users, train.items] = True
    rng = np.random.default_rng(seed)
    P = rng.normal(0.0, 0.1, size=(num_users, dim))
    Q = rng.normal(0.0, 0.1, size=(num_items, dim))
    a = np.zeros(num_users)
    b = np.zeros(num_items)
    base_rate = np.clip(observed.mean(), 1e-6, 1.0 - 1e-6)
    c = float(np.log(base_rate / (1.0 - base_rate)))

    params = [P, Q, a, b, np.array(c)]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    n_cells = num_users * num_items
    s = np.empty((num_users, num_items))
    w = np.empty_like(s)
    best_loss, best_params, prev_loss, converged = np.inf, None, np.inf, False

    for step in range(1, max_steps + 1):
        _sigmoid_of_logits(np.matmul(P, Q.T, out=s), a, b, params[4])
        np.clip(s, 1e-12, 1.0 - 1e-12, out=s)
        np.subtract(1.0, s, out=w)
        np.copyto(w, s, where=observed)
        np.log(w, out=w)
        loss = float(-np.mean(w) + l2_weight * sum(np.sum(p**2) for p in params))
        if loss < best_loss:
            best_loss = loss
            best_params = [p.copy() for p in params]
        if np.isfinite(prev_loss) and abs(prev_loss - loss) <= tol * max(abs(prev_loss), 1.0):
            converged = True
            break
        prev_loss = loss

        g = np.subtract(s, observed, out=w)
        g /= n_cells
        grads = [
            g @ Q + 2 * l2_weight * P,
            g.T @ P + 2 * l2_weight * Q,
            g.sum(axis=1) + 2 * l2_weight * a,
            g.sum(axis=0) + 2 * l2_weight * b,
            np.array(g.sum()) + 2 * l2_weight * params[4],
        ]
        for p, grad, (m, v), (sa, sb) in zip(params, grads, moments, scratch):
            _adam_update(p, grad, m, v, sa, sb, step, learning_rate, beta1, beta2, eps)

    if not converged:
        logger.warning(
            "observation-model fit did not converge in %d steps; returning the "
            "best parameters seen (loss %.6g)", max_steps, best_loss,
        )
    P, Q, a, b, c = best_params
    table = _sigmoid_of_logits(np.einsum("ud,id->ui", P, Q, out=s), a, b, c)
    return PropensityModel(family="mf_learned", rating_scale=train.rating_scale, table=table)


def _sigmoid_of_logits(s, a, b, c):
    """Overwrite the (user, item) dot products `s` with
    ``1 / (1 + exp(-(s + a[:, None] + b[None, :] + c)))``, in that operation
    order, and return `s`."""
    s += a[:, None]
    s += b[None, :]
    s += c
    np.negative(s, out=s)
    np.exp(s, out=s)
    np.add(1.0, s, out=s)
    np.divide(1.0, s, out=s)
    return s


def clip(model: PropensityModel, tau: float) -> PropensityModel:
    """Floor every score at tau; tau=1 makes every propensity 1."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"clip floor must be in (0, 1], got {tau}")
    return replace(model, clip_floor=tau)


def normalize(model: PropensityModel, train: RatingDataset) -> PropensityModel:
    """Rescale scores by one constant so the mean inverse propensity over the
    train triples equals ``num_users * num_items / |D|``; scores stay capped at 1.

    The constant is computed on the training split only. A train score too
    small to invert (a subnormal float) makes it overflow, and is rejected
    rather than turned into an infinite scale.
    """
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


# Table files: one "# key=value ..." header line, a column-name line (the
# family's AXES, then "propensity"), then one row per table entry in row-major order.


def save_propensity(model: PropensityModel, path: str | Path, delimiter: str = ",") -> None:
    lo, hi = model.rating_scale
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

    Raises ValueError naming the file, and the line where there is one, for a
    missing header key, a row with the wrong number of fields, an index or
    propensity that does not parse, a propensity that is not finite or lies
    outside [0, 1], an index outside its range, a duplicate index, or an index
    range with a gap.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# "):
            raise ValueError(f"{path}: missing propensity table header")
        pairs = [kv.split("=", 1) for kv in header[2:].split()]
        bad = [kv[0] for kv in pairs if len(kv) != 2]
        if bad:
            raise ValueError(f"{path}:1: header field {bad[0]!r} is not key=value")
        meta = dict(pairs)
        missing = [k for k in _HEADER_KEYS if k not in meta]
        if missing:
            raise ValueError(f"{path}:1: header is missing key(s) {', '.join(missing)}")
        columns = fh.readline().strip().split(delimiter)
        rows = [
            (lineno, line.strip().split(delimiter))
            for lineno, line in enumerate(fh, start=3) if line.strip()
        ]

    family = meta["family"]
    if family not in AXES:
        raise ValueError(f"{path}: unknown family {family!r} (columns {columns})")
    try:
        scale_range = (int(meta["rating_min"]), int(meta["rating_max"]))
        kwargs = dict(
            family=family,
            rating_scale=scale_range,
            scale=float(meta["scale"]),
            clip_floor=float(meta["tau"]),
            normalization=meta["normalization"],
            alpha1=float(meta["alpha1"]) if meta["alpha1"] else None,
            alpha2=float(meta["alpha2"]) if meta["alpha2"] else None,
        )
    except ValueError as exc:
        raise ValueError(f"{path}:1: bad header value: {exc}") from None
    lo, hi = scale_range
    if hi < lo:
        raise ValueError(f"{path}:1: rating_max {hi} is below rating_min {lo}")

    return PropensityModel(table=_read_table(path, rows, AXES[family], lo, hi), **kwargs)


def _read_table(path, rows, index_columns, lo, hi) -> np.ndarray:
    """The dense table that `rows` (pairs of line number and fields) fill, with
    one axis per index column; rating columns span the rating scale, the
    other axes 0 through the largest index seen."""
    if not rows:
        raise ValueError(f"{path}: no propensity rows")
    n_fields = len(index_columns) + 1
    offsets = [lo if name == "rating" else 0 for name in index_columns]
    indices = np.empty((len(rows), len(index_columns)), dtype=np.int64)
    values = np.empty(len(rows))
    for k, (lineno, fields) in enumerate(rows):
        if len(fields) != n_fields:
            raise ValueError(
                f"{path}:{lineno}: expected {n_fields} field(s), got {len(fields)}"
            )
        for j, (name, text) in enumerate(zip(index_columns, fields)):
            try:
                index = int(text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {name} {text!r} is not an integer") from None
            if name == "rating":
                if not lo <= index <= hi:
                    raise ValueError(
                        f"{path}:{lineno}: rating {index} outside the header's scale [{lo}, {hi}]"
                    )
            elif index < 0:
                raise ValueError(f"{path}:{lineno}: {name} {index} is negative")
            indices[k, j] = index - offsets[j]
        try:
            value = float(fields[-1])
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: propensity {fields[-1]!r} is not a number"
            ) from None
        if not 0.0 <= value <= 1.0:  # also false for NaN
            raise ValueError(f"{path}:{lineno}: propensity {value!r} outside [0, 1]")
        values[k] = value

    shape = tuple(
        hi - lo + 1 if name == "rating" else int(indices[:, j].max()) + 1
        for j, name in enumerate(index_columns)
    )
    flat = np.ravel_multi_index(tuple(indices.T), shape) if shape else np.zeros(len(rows), np.int64)
    order = np.argsort(flat, kind="stable")
    ordered = flat[order]
    repeated = np.flatnonzero(ordered[1:] == ordered[:-1])
    if len(repeated):
        first, again = order[repeated[0]], order[repeated[0] + 1]
        raise ValueError(
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
        raise ValueError(f"{path}: no row for {where} (gap in the index range)")
    table = np.zeros(size)
    table[flat] = values
    return table.reshape(shape)
