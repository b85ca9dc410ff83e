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
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import RatingDataset, SplitBundle
from .model import MFParameters, PARAM_GROUPS, _adam_update, init_params, predict_many
from .propensity import PropensityModel, score_dataset

logger = logging.getLogger(__name__)

USER_PHASE_GROUPS = ("user_emb", "user_off", "global_off")
ITEM_PHASE_GROUPS = ("item_emb", "item_off")


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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.l2_weight < 0:
            raise ValueError("l2_weight must be nonnegative")
        if self.batch_size <= 0 or self.max_epochs <= 0 or self.patience <= 0:
            raise ValueError("batch_size, max_epochs, and patience must be positive")
        if self.embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if self.init_scale < 0:
            raise ValueError("init_scale must be nonnegative")
        if self.schedule not in ("concurrent", "alternating"):
            raise ValueError(f"unknown schedule {self.schedule!r}")


@dataclass
class AdamState:
    """First/second moment accumulators shaped like the parameters, with one
    update counter per parameter group (groups frozen in a phase do not age).

    ``scratch`` holds two parameter-shaped work buffers that :func:`adam_step`
    overwrites on every call, so a step allocates no full-size temporaries.
    """

    m: MFParameters
    v: MFParameters
    steps: dict[str, int]
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    scratch: tuple[MFParameters, MFParameters] = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (_empty_like(self.m), _empty_like(self.m))


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

    evaluated in this operation order in the state's scratch buffers (see
    :func:`ipsmf.model._adam_update`). The update is elementwise, so it runs
    once over each slice of the packed buffers that holds masked groups
    adjacent in the layout with equal step counts: one call per training
    phase.
    """
    if len(set(mask)) != len(mask):
        raise ValueError(f"mask names a group twice: {tuple(mask)}")
    scratch_a, scratch_b = state.scratch
    buffers = (params, grads, state.m, state.v, scratch_a, scratch_b)
    if any(b._spans != params._spans for b in buffers[1:]):
        raise ValueError("gradient and optimizer state must be shaped like the parameters")
    for name in mask:
        state.steps[name] += 1
    for start, stop, t in _update_runs(params._spans, mask, state.steps):
        _adam_update(
            *(b._buffer[start:stop] for b in buffers),
            t, lr, state.beta1, state.beta2, state.eps,
        )
    return params, state


def _update_runs(spans, mask, steps):
    """(start, stop, step count) of each maximal run of `mask` groups that are
    contiguous in the packed buffer and share a step count."""
    runs = []
    for name in sorted(mask, key=lambda g: spans[g]):
        start, stop = spans[name]
        if runs and runs[-1][1] == start and runs[-1][2] == steps[name]:
            runs[-1][1] = stop
        else:
            runs.append([start, stop, steps[name]])
    return runs


def _check_propensities(propensities: np.ndarray, n: int) -> np.ndarray:
    propensities = np.asarray(propensities, dtype=float)
    if propensities.shape != (n,):
        raise ValueError("propensities must align with the batch triples")
    if np.any(propensities <= 0) or np.any(propensities > 1):
        raise ValueError("propensities must lie in (0, 1]")
    return propensities


def ips_loss(
    params: MFParameters,
    batch: RatingDataset,
    propensities: np.ndarray,
    l2_weight: float,
    num_users: int,
    num_items: int,
    normalization: str = "observed",
) -> float:
    """Inverse-propensity-weighted squared error plus L2 penalty.

    With ``normalization="observed"`` the weighted sum is divided by the number
    of triples in `batch` (the training objective). With ``"population"`` it is
    divided by ``num_users * num_items``, which makes the statistic an unbiased
    estimate of the full-matrix mean squared error under the true propensities.
    """
    propensities = _check_propensities(propensities, len(batch))
    preds = predict_many(params, batch.users, batch.items)
    weighted = np.sum((preds - batch.ratings) ** 2 / propensities)
    if normalization == "observed":
        denom = len(batch)
    elif normalization == "population":
        denom = num_users * num_items
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


def _masked_gradient(grads, params, users, items, ratings, propensities, l2_weight, mask):
    """Overwrite the `mask` groups of `grads` with the mini-batch gradient; the
    other groups of `grads` are left as they are and must not be read."""
    for g in mask:
        np.multiply(params.group(g), 2.0 * l2_weight, out=grads.group(g))
    n = len(users)
    user_rows = params.user_emb[users]
    item_rows = params.item_emb[items]
    preds = (
        np.einsum("nd,nd->n", user_rows, item_rows)
        + params.user_off[users]
        + params.item_off[items]
        + params.global_off
    )
    coef = 2.0 * (preds - ratings) / (propensities * n)
    if "user_emb" in mask:
        _scatter_add_rows(grads.user_emb, users, coef[:, None] * item_rows)
    if "item_emb" in mask:
        _scatter_add_rows(grads.item_emb, items, coef[:, None] * user_rows)
    if "user_off" in mask:
        grads.user_off += np.bincount(users, weights=coef, minlength=len(grads.user_off))
    if "item_off" in mask:
        grads.item_off += np.bincount(items, weights=coef, minlength=len(grads.item_off))
    if "global_off" in mask:
        grads.global_off += coef.sum()


def _scatter_add_rows(out, rows, values):
    """``out[rows[k]] += values[k]`` for each k in order, like
    ``np.add.at(out, rows, values)``: every element receives its additions in
    the same order, so the sums are bit-equal, but the flat indices
    ``row * dim + col`` take numpy's faster 1-D ``np.add.at`` path."""
    dim = out.shape[1]
    flat = (rows[:, None] * dim + np.arange(dim)).reshape(-1)
    np.add.at(out.reshape(-1), flat, values.reshape(-1))


def _snips(params, data, propensities) -> float:
    """Self-normalized inverse-propensity-weighted MSE of `params` on `data`."""
    preds = predict_many(params, data.users, data.items)
    w = 1.0 / propensities
    return float(np.sum(w * (preds - data.ratings) ** 2) / np.sum(w))


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


def save_history(rows: list[HistoryRow], path: str | Path, delimiter: str = ",") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(delimiter.join(
            ("epoch", "train_ips_loss", "validation_snips_mse", "test_mse")) + "\n")
        for row in rows:
            test = "" if row.test_mse is None else repr(float(row.test_mse))
            fh.write(
                f"{row.epoch}{delimiter}{float(row.train_ips_loss)!r}{delimiter}"
                f"{float(row.validation_snips_mse)!r}{delimiter}{test}\n"
            )


def train(
    data: SplitBundle,
    propensity_model: PropensityModel,
    config: TrainConfig,
    epoch_callback: Callable[[str, int, MFParameters], None] | None = None,
) -> TrainResult:
    """Mini-batch IPS training on the schedule ``config.schedule``.

    Batches are reshuffled every pass. ``"concurrent"`` updates all parameter
    groups each batch; ``"alternating"`` runs, per outer epoch, one full pass
    updating only {user_emb, user_off, global_off}, then one full pass
    updating only {item_emb, item_off}. `epoch_callback(phase, epoch, params)`
    is called after each pass (phase "all", or "user" and "item"). Validation
    is scored once per outer epoch and the parameters from the best
    validation epoch are returned.
    """
    return _fit(data, propensity_model, config, epoch_callback)


def _fit(data, propensity_model, config, epoch_callback):
    """The loop of :func:`train`, under the name perfbench/tracing.py times as
    the optim.fit span."""
    train, validation = data.train, data.validation
    if len(train) == 0:
        raise ValueError("train set is empty")
    if len(validation) == 0:
        raise ValueError("validation set is empty (needed for early stopping)")
    users, items = train.users, train.items
    ratings = train.ratings.astype(float)
    p_train = _check_propensities(score_dataset(propensity_model, train), len(train))
    p_val = _check_propensities(
        score_dataset(propensity_model, validation), len(validation)
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
    shuffle_rng = np.random.default_rng([config.seed, 1])
    phases = (
        [("all", PARAM_GROUPS)]
        if config.schedule == "concurrent"
        else [("user", USER_PHASE_GROUPS), ("item", ITEM_PHASE_GROUPS)]
    )

    n = len(train)
    history: list[HistoryRow] = []
    best_val, best_params, best_epoch, bad_evals = np.inf, params.copy(), 0, 0

    for epoch in range(1, config.max_epochs + 1):
        for phase_name, mask in phases:
            perm = shuffle_rng.permutation(n)
            for start in range(0, n, config.batch_size):
                idx = perm[start:start + config.batch_size]
                _masked_gradient(
                    grads, params, users[idx], items[idx], ratings[idx], p_train[idx],
                    config.l2_weight, mask,
                )
                adam_step(params, grads, state, mask, config.learning_rate)
            if epoch_callback is not None:
                epoch_callback(phase_name, epoch, params)

        train_loss = ips_loss(
            params, train, p_train, config.l2_weight,
            train.num_users, train.num_items,
        )
        val_score = _snips(params, validation, p_val)
        if not np.isfinite(train_loss) or not np.isfinite(val_score):
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch} "
                f"(train {train_loss}, validation {val_score})"
            )
        test_mse = None
        if track_test:
            preds = predict_many(params, data.test.users, data.test.items)
            test_mse = float(np.mean((preds - data.test.ratings) ** 2))
        history.append(HistoryRow(epoch, train_loss, val_score, test_mse))

        if val_score < best_val:
            best_val, best_params, best_epoch, bad_evals = (
                val_score, params.copy(), epoch, 0,
            )
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

