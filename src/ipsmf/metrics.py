"""Evaluation metrics on the unbiased test set."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .data import RATING_SCALE, RatingDataset
from .model import MFParameters, predict_many


@dataclass(frozen=True)
class MetricReport:
    """Pointwise errors plus per-entity RMSE averages.

    mse/mae/rmse are over all test triples; rmse_per_user (rmse_per_item) is
    the mean over users (items) with at least one test triple of their
    individual RMSE.
    """

    mse: float
    mae: float
    rmse: float
    rmse_per_user: float
    rmse_per_item: float
    num_triples: int
    num_users: int
    num_items: int


def _per_entity_rmse(indices: np.ndarray, sq_err: np.ndarray, minlength: int) -> tuple[float, int]:
    # bincount counts intp ids: widen int32 ones once, not in each call
    indices = indices.astype(np.intp, copy=False)
    counts = np.bincount(indices, minlength=minlength)
    sums = np.bincount(indices, weights=sq_err, minlength=minlength)
    observed = counts > 0
    per_entity = np.sqrt(sums[observed] / counts[observed])
    return float(per_entity.mean()), int(observed.sum())


def evaluate(
    model: MFParameters,
    test: RatingDataset,
    clamp: bool = False,
) -> MetricReport:
    """Score a model's predictions on held-out triples.

    `model` is any MFParameters, the avg baseline of :func:`~ipsmf.model.fit_avg`
    included. With ``clamp=True`` predictions are clipped to RATING_SCALE
    before scoring; the default reports raw errors.
    """
    if len(test) == 0:
        raise ValueError("test set is empty")
    preds = predict_many(model, test.users, test.items)
    if clamp:
        np.clip(preds, *RATING_SCALE, out=preds)
    # the errors, their absolute values and then their squares (|e|**2 is
    # e**2 bit for bit) all in the array of predictions
    err = np.subtract(preds, test.ratings, out=preds)
    mae = float(np.abs(err, out=err).mean())
    sq = np.square(err, out=err)
    mse = float(sq.mean())
    rmse_u, n_users = _per_entity_rmse(test.users, sq, test.num_users)
    rmse_i, n_items = _per_entity_rmse(test.items, sq, test.num_items)
    return MetricReport(
        mse=mse,
        mae=mae,
        rmse=float(np.sqrt(mse)),
        rmse_per_user=rmse_u,
        rmse_per_item=rmse_i,
        num_triples=len(test),
        num_users=n_users,
        num_items=n_items,
    )


METRIC_FIELDS = ("mse", "mae", "rmse", "rmse_per_user", "rmse_per_item")


def summarize_runs(runs: list[Mapping[str, float | str]]) -> dict[str, float]:
    """Mean and standard deviation of each metric over independent runs.

    Each run is a mapping from metric name to value, such as a results-table
    row (values are parsed with ``float``) or ``vars(report)`` of a
    :class:`MetricReport`.
    """
    out: dict[str, float] = {"n_runs": len(runs)}
    for name in METRIC_FIELDS:
        values = np.array([float(r[name]) for r in runs])
        out[f"{name}_mean"] = float(values.mean())
        out[f"{name}_std"] = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    return out


def bootstrap_interval(
    values: np.ndarray,
    num_resamples: int = 1000,
    confidence: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap confidence interval for the mean of `values`."""
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        raise ValueError("cannot bootstrap an empty sample")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(values), size=(num_resamples, len(values)))
    means = values[idx].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(means, alpha)),
        float(np.quantile(means, 1.0 - alpha)),
    )
