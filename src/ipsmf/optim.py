"""Inverse-propensity-weighted loss, Adam stepping, and training.

:func:`train` runs one loop for both schedules, chosen by
``TrainConfig.schedule``. The concurrent schedule updates every parameter
group on each mini-batch. The alternating schedule runs one full epoch
updating only the user-side groups (user embeddings, user offsets, global
offset), then one full epoch updating only the item-side groups (item
embeddings, item offsets), which damps the update noise caused by widely
varying inverse-propensity weights.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .data import _NONNEGATIVE, _POSITIVE, RatingDataset, SplitBundle, _check_rules
from . import propensity
from .model import (
    _INIT_RULES, ITEM_PHASE_GROUPS, PARAM_GROUPS, USER_PHASE_GROUPS, MFParameters, _predict_rows,
    init_params, predict_many,
)

logger = logging.getLogger(__name__)

SCHEDULES = ("concurrent", "alternating")


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer hyperparameters and schedule for fitting the rating model."""

    learning_rate: float = 1e-3
    l2_weight: float = 1e-5
    batch_size: int = 1024
    max_epochs: int = 500
    patience: int = 10
    schedule: str = "concurrent"
    seed: int = 0
    embedding_dim: int = 16
    init_scale: float = 0.1

    def __post_init__(self):
        _check_rules(vars(self), TRAIN_RULES)


# the rule of each field but the seed (see data._check_rules); cli reads [train] with them
TRAIN_RULES = {
    "learning_rate": _POSITIVE, "l2_weight": _NONNEGATIVE, "batch_size": _POSITIVE,
    "max_epochs": _POSITIVE, "patience": _POSITIVE,
    "schedule": (lambda v: v in SCHEDULES, " or ".join(SCHEDULES)),
    "embedding_dim": _INIT_RULES["dim"], "init_scale": _NONNEGATIVE,
}


# Elements of a phase's slice that adam_step updates at once: 128 KB per array,
# so the parameter, gradient, moment and scratch blocks of one update stay in
# a 2 MB L2 cache across its 14 passes. On the Yahoo-shaped user phase
# (261,801 elements, a 2-vCPU Xeon VM) blocks of 16k-24k elements were
# fastest; blocks of 4k lost to per-call overhead.
_ADAM_BLOCK = 16_384

# Train triples that a training pass gathers at once, in whole batches: the
# chunk's columns take about 1 MB, against 17 bytes per train triple for a
# pass-length copy of the columns (5.4 MB at the Yahoo shape).
_PASS_CHUNK = 1 << 15


@dataclass
class AdamState:
    """First/second moment accumulators shaped like the parameters, with one
    update counter per parameter group (groups frozen in a phase do not age).

    ``scratch`` holds two work arrays of ``min(_ADAM_BLOCK, parameter
    count)`` elements, sized when the state is made, that :func:`adam_step`
    overwrites block by block, so a step allocates no temporaries. The decay
    rates and ``eps`` are the usual Adam constants, fixed for every fit.
    """

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8
    m: MFParameters
    v: MFParameters
    steps: dict[str, int]
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        size = min(_ADAM_BLOCK, self.m._buffer.size)
        self.scratch = (np.empty(size), np.empty(size))


def _empty_like(params: MFParameters) -> MFParameters:
    return MFParameters(*(np.empty_like(params.group(g)) for g in PARAM_GROUPS))


def init_adam_state(params: MFParameters) -> AdamState:
    zeros = lambda: MFParameters(
        *(np.zeros_like(params.group(g)) for g in PARAM_GROUPS)
    )
    return AdamState(m=zeros(), v=zeros(), steps={g: 0 for g in PARAM_GROUPS})


def adam_step(
    params: MFParameters,
    grads: MFParameters,
    state: AdamState,
    mask: Sequence[str],
    lr: float,
) -> tuple[MFParameters, AdamState]:
    """Bias-corrected adaptive-moment update applied in place to the groups in
    `mask`; all other groups (and their moments) stay bit-identical.

    Per group, with ``t`` its step count::

        m <- beta1 * m + (1 - beta1) * g
        v <- beta2 * v + (1 - beta2) * g**2
        theta <- theta - (lr * m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)

    evaluated in this operation order in the state's scratch arrays (see
    :func:`_adam_update`). `mask` must be one contiguous slice of the packed
    buffers (see :func:`_mask_span`) whose groups share one step count: a
    training phase or a contiguous part of one; any other mask raises
    ValueError before anything changes. The update runs over that slice one
    block of at most ``len(state.scratch[0])`` elements at a time; every
    element gets the same operations whatever the block.
    """
    spans = params._spans
    for other in (grads, state.m, state.v):
        if other._spans != spans:
            raise ValueError("gradient and optimizer state must be shaped like the parameters")
    start, stop = _mask_span(spans, mask)
    steps = state.steps
    counts = {name: steps[name] for name in mask}
    if len(set(counts.values())) != 1:
        raise ValueError(f"mask {tuple(mask)} has groups at different step counts: {counts}")
    t = steps[mask[0]] + 1
    steps.update(dict.fromkeys(mask, t))
    buffers = (params._buffer, grads._buffer, state.m._buffer, state.v._buffer)
    scratch_a, scratch_b = state.scratch
    block = len(scratch_a)
    for low in range(start, stop, block):
        high = min(low + block, stop)
        _adam_update(*(b[low:high] for b in buffers),
                     scratch_a[:high - low], scratch_b[:high - low], t, lr)
    return params, state


def _adam_update(p, g, m, v, a, b, t, lr) -> None:
    """The update of :func:`adam_step` on the array `p` with gradient `g`,
    moments `m`, `v` and step count `t`, in place. It is evaluated in that
    operation order in the scratch arrays `a` and `b` (shaped like `p`), so
    no temporary is allocated."""
    beta1, beta2, eps = AdamState.beta1, AdamState.beta2, AdamState.eps
    np.multiply(m, beta1, out=m)
    np.multiply(g, 1.0 - beta1, out=a)
    np.add(m, a, out=m)
    np.multiply(v, beta2, out=v)
    np.square(g, out=a)
    np.multiply(a, 1.0 - beta2, out=a)
    np.add(v, a, out=v)
    np.divide(m, 1.0 - beta1**t, out=a)
    np.multiply(a, lr, out=a)
    np.divide(v, 1.0 - beta2**t, out=b)
    np.sqrt(b, out=b)
    np.add(b, eps, out=b)
    np.divide(a, b, out=a)
    np.subtract(p, a, out=p)


def _mask_span(spans, mask):
    """The (start, stop) of the packed buffer holding the groups in `mask`,
    which must be distinct and adjacent in the packed order, the order of
    the `spans` keys (``model._PACKED_ORDER``); raises ValueError naming any
    other mask."""
    order, names = tuple(spans), set(mask)
    first = next((k for k, g in enumerate(order) if g in names), 0)
    run = order[first:first + len(mask)]
    if not mask or len(names) != len(mask) or names != set(run):
        raise ValueError(f"mask {tuple(mask)} is not one contiguous run of the groups {order}")
    return spans[run[0]][0], spans[run[-1]][1]


def _check_propensities(propensities: np.ndarray, n: int) -> np.ndarray:
    propensities = np.asarray(propensities, dtype=float)
    if propensities.shape != (n,):
        raise ValueError("propensities must align with the batch triples")
    # written so that NaN, which fails every comparison, is rejected too
    if not np.all((propensities > 0) & (propensities <= 1)):
        raise ValueError("propensities must lie in (0, 1]")
    return propensities


def ips_loss(
    params: MFParameters,
    batch: RatingDataset,
    propensities: np.ndarray,
    l2_weight: float,
    normalization: str = "observed",
) -> float:
    """Inverse-propensity-weighted squared error plus L2 penalty.

    With ``normalization="observed"`` the weighted sum is divided by the number
    of triples in `batch` (the training objective). With ``"population"`` it is
    divided by ``batch.num_users * batch.num_items``, which makes it an unbiased
    estimate of the full-matrix mean squared error under the true propensities.
    """
    propensities = _check_propensities(propensities, len(batch))
    errors = _squared_errors(params, batch)
    np.divide(errors, propensities, out=errors)
    weighted = np.sum(errors)
    if normalization == "observed":
        denom = len(batch)
    elif normalization == "population":
        denom = batch.num_users * batch.num_items
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    return float(weighted / denom + l2_weight * params.squared_norm())


def ips_gradient(
    params: MFParameters,
    batch: RatingDataset,
    propensities: np.ndarray,
    l2_weight: float,
) -> MFParameters:
    """Analytic gradient of :func:`ips_loss` (observed normalization).

    The data term only touches rows indexed by the batch; the L2 term
    contributes ``2 * l2_weight * theta`` to every parameter.
    """
    propensities = _check_propensities(propensities, len(batch))
    grads = _empty_like(params)
    _masked_gradient(
        grads, params, batch.users, batch.items, batch.ratings, propensities,
        l2_weight, PARAM_GROUPS,
    )
    return grads


def _masked_gradient(grads, params, users, items, ratings, propensities, l2_weight, mask,
                     flat_index=None):
    """Overwrite the `mask` groups of `grads` with the mini-batch gradient; the
    other groups of `grads` are left as they are and must not be read.

    `mask` must be one contiguous slice of the packed buffer, as for
    :func:`adam_step` (any other raises ValueError), so the L2 term is one
    multiply over that slice. The data term gathers the batch's embedding
    and offset rows and scatters into the embedding rows, so it costs
    O(batch * dim) whatever the table sizes. `flat_index` is
    :func:`_flat_index` of `params`, which a fit builds once for all its
    batches; it is built here when not given.
    """
    start, stop = _mask_span(params._spans, mask)
    np.multiply(params._buffer[start:stop], 2.0 * l2_weight, out=grads._buffer[start:stop])
    user_rows = params.user_emb.take(users, axis=0)
    item_rows = params.item_emb.take(items, axis=0)
    preds = _predict_rows(params, users, items, user_rows, item_rows)
    coef = 2.0 * (preds - ratings) / (propensities * len(users))
    user_index, item_index = _flat_index(params) if flat_index is None else flat_index
    if "user_emb" in mask:
        _scatter_add_rows(grads.user_emb, user_index, users, coef[:, None] * item_rows)
    if "item_emb" in mask:
        _scatter_add_rows(grads.item_emb, item_index, items, coef[:, None] * user_rows)
    if "user_off" in mask:
        grads.user_off += np.bincount(users, weights=coef, minlength=len(grads.user_off))
    if "item_off" in mask:
        grads.item_off += np.bincount(items, weights=coef, minlength=len(grads.item_off))
    if "global_off" in mask:
        grads.global_off += coef.sum()


def _flat_index(params):
    """For the user and the item embedding table, the flat index of each
    element, shaped like the table."""
    return tuple(np.arange(t.size).reshape(t.shape) for t in (params.user_emb, params.item_emb))


def _scatter_add_rows(out, index, rows, values):
    """``out[rows[k]] += values[k]`` for each k in order, like
    ``np.add.at(out, rows, values)``: every element receives its additions in
    the same order, so the sums are bit-equal, but the flat indices of the
    rows' elements, gathered from `index` (each element's flat index in
    `out`, shaped like it), take numpy's faster 1-D ``np.add.at`` path."""
    np.add.at(out.reshape(-1), index.take(rows, axis=0).reshape(-1), values.reshape(-1))


def _squared_errors(params, data) -> np.ndarray:
    """The squared error of each prediction of `params` on the triples of
    `data`, computed in the array of predictions: the one pass behind
    :func:`ips_loss`, :func:`_snips` and the per-epoch test MSE."""
    errors = predict_many(params, data.users, data.items)
    np.subtract(errors, data.ratings, out=errors)
    return np.square(errors, out=errors)


def _snips(params, data, propensities) -> float:
    """Self-normalized inverse-propensity-weighted MSE of `params` on `data`."""
    errors = _squared_errors(params, data)
    w = 1.0 / propensities
    np.multiply(w, errors, out=errors)
    return float(np.sum(errors) / np.sum(w))


@dataclass
class HistoryRow:
    epoch: int
    train_ips_loss: float
    validation_snips_mse: float
    test_mse: float | None = None


@dataclass
class TrainResult:
    params: MFParameters
    history: list[HistoryRow]
    best_epoch: int
    best_validation: float


def train(
    data: SplitBundle,
    propensity_model: propensity.PropensityModel,
    config: TrainConfig,
) -> TrainResult:
    """Mini-batch IPS training on the schedule ``config.schedule``.

    Batches are reshuffled every pass. ``"concurrent"`` updates all parameter
    groups each batch; ``"alternating"`` runs, per outer epoch, one full pass
    updating only {user_emb, user_off, global_off}, then one full pass
    updating only {item_emb, item_off}. Validation is scored once per outer
    epoch and the parameters from the best validation epoch are returned.
    """
    return _fit(data, propensity_model, config)


def _fit(data, propensity_model, config):
    """The loop of :func:`train`, under the name perfbench/tracing.py times as
    the optim.fit span.

    Each pass gathers the train triples and their propensities in the order
    of its permutation, ``_PASS_CHUNK`` triples (whole batches) at a time,
    into buffers made once per fit; its batches are slices of these, and the
    permutation is dropped before the epoch is scored. The embedding tables'
    flat indices (:func:`_flat_index`) are built once per fit, so a batch's
    scatter indices are a row gather too. A step then costs O(batch * dim)
    in gathers and scatters, plus the L2 term and the Adam update over the
    phase's slice of the packed buffer, in L2-sized blocks. Each split is
    scored inside its array of predictions, so the fit holds five
    parameter-sized arrays (the parameters, the gradient, both moments and
    the best parameters) beside the embedding tables' flat indices, the
    chunk buffers, the propensities, and the pass's permutation or one
    scoring buffer at a time. ``adam_step``, ``ips_loss``, ``_snips`` and
    ``predict_many`` are looked up as module globals on every call, so that a
    caller can wrap them.
    """
    train, validation = data.train, data.validation
    if len(train) == 0:
        raise ValueError("train set is empty")
    if len(validation) == 0:
        raise ValueError("validation set is empty (needed for early stopping)")
    p_train = _check_propensities(
        propensity.score_dataset(propensity_model, train), len(train)
    )
    p_val = _check_propensities(
        propensity.score_dataset(propensity_model, validation), len(validation)
    )
    track_test = len(data.test) > 0

    params = init_params(
        train.num_users,
        train.num_items,
        config.embedding_dim,
        seed=config.seed,
        scale=config.init_scale,
        global_offset=float(train.ratings.mean()),
    )
    state = init_adam_state(params)
    grads = _empty_like(params)
    flat_index = _flat_index(params)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    phases = (
        [PARAM_GROUPS] if config.schedule == "concurrent"
        else [USER_PHASE_GROUPS, ITEM_PHASE_GROUPS]
    )

    n, batch_size = len(train), config.batch_size
    # each pass gathers the train triples in its permutation's order a chunk
    # of whole batches at a time, into buffers made once per fit: the
    # columns in their own dtypes, then the int32 ids copied to intp ones,
    # since a step's gathers and counts would convert int32 ids on every
    # call. The gradient widens a batch's uint8 ratings to float64 exactly.
    chunk = min(n, batch_size * max(1, _PASS_CHUNK // batch_size))
    columns = (train.users, train.items, train.ratings, p_train)
    gathered = [np.empty(chunk, dtype=column.dtype) for column in columns]
    batch_columns = [np.empty(chunk, dtype=np.intp), np.empty(chunk, dtype=np.intp),
                     *gathered[2:]]
    history: list[HistoryRow] = []
    best_val, best_params, best_epoch, bad_evals = np.inf, params.copy(), 0, 0

    for epoch in range(1, config.max_epochs + 1):
        # a diverging step overflows to inf or NaN (in the Adam update, the
        # scores or the L2 norm), which reaches both scores: their finiteness
        # check ends the fit with TrainingDivergedError, not a floating-point
        # warning, even where warnings are errors
        with np.errstate(over="ignore", invalid="ignore"):
            for mask in phases:
                perm = shuffle_rng.permutation(n)
                for low in range(0, n, chunk):
                    order = perm[low:low + chunk]
                    size = len(order)
                    # mode="clip" gathers without a copy of the output; a
                    # permutation's indices are all in range, so nothing is
                    # clipped
                    for column, out in zip(columns, gathered):
                        np.take(column, order, out=out[:size], mode="clip")
                    for out, ids in zip(batch_columns, gathered[:2]):
                        np.copyto(out[:size], ids[:size])
                    users, items, ratings, p = (c[:size] for c in batch_columns)
                    for start in range(0, size, batch_size):
                        stop = start + batch_size
                        _masked_gradient(
                            grads, params, users[start:stop], items[start:stop],
                            ratings[start:stop], p[start:stop], config.l2_weight, mask,
                            flat_index,
                        )
                        adam_step(params, grads, state, mask, config.learning_rate)
                del perm, order  # not live while the epoch is scored
            train_loss = ips_loss(params, train, p_train, config.l2_weight)
            val_score = _snips(params, validation, p_val)
        if not np.isfinite(train_loss) or not np.isfinite(val_score):
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch} "
                f"(train {train_loss}, validation {val_score})"
            )
        test_mse = float(np.mean(_squared_errors(params, data.test))) if track_test else None
        history.append(HistoryRow(epoch, train_loss, val_score, test_mse))

        if val_score < best_val:
            # into the buffer made once per fit, not a new copy per epoch
            np.copyto(best_params._buffer, params._buffer)
            best_val, best_epoch, bad_evals = val_score, epoch, 0
        else:
            bad_evals += 1
            if bad_evals >= config.patience:
                break

    return TrainResult(
        params=best_params,
        history=history,
        best_epoch=best_epoch,
        best_validation=float(best_val),
    )

