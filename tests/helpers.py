"""Small readers the tests use to inspect library output and training runs."""

from pathlib import Path

import numpy as np
import pytest

from ipsmf import optim
from ipsmf.data import RatingDataset
from ipsmf.propensity import PropensityModel, score_many


def observed_pairs(data: RatingDataset) -> set[tuple[int, int]]:
    """Set of observed (user, item) pairs; its size equals the triple count."""
    return set(zip(data.users.tolist(), data.items.tolist()))


def read_manifest(path: str | Path) -> dict[str, str]:
    """Parse a key=value manifest as written by ``data.write_manifest``."""
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                key, _, value = line.partition("=")
                entries[key] = value
    return entries


def score_one(model: PropensityModel, user: int, item: int, rating: int) -> float:
    """The propensity of one (user, item, rating) triple, from score_many."""
    return float(score_many(model, np.array([user]), np.array([item]), np.array([rating]))[0])


def train_with_pass_snapshots(data, propensity_model, config):
    """Run ``optim.train`` and return its result with ``(phase, epoch,
    params)`` after every pass over the train split: phase "user" then "item"
    on the alternating schedule, "all" on the concurrent one.

    For the run, ``optim.adam_step`` and ``optim.ips_loss`` are wrapped: a
    pass ends where the step mask changes or where the loop scores the
    epoch's train loss, and only ``adam_step`` moves the parameters.
    """
    phases = {tuple(optim.PARAM_GROUPS): "all", optim.USER_PHASE_GROUPS: "user",
              optim.ITEM_PHASE_GROUPS: "item"}
    adam_step, ips_loss = optim.adam_step, optim.ips_loss
    snapshots = []
    running = {"phase": None, "epoch": 1}

    def end_pass(params):
        snapshots.append((running["phase"], running["epoch"], params.copy()))

    def step(params, grads, state, mask, lr):
        phase = phases[tuple(mask)]
        if running["phase"] not in (None, phase):
            end_pass(params)
        running["phase"] = phase
        return adam_step(params, grads, state, mask, lr)

    def loss(params, *args, **kwargs):
        end_pass(params)
        running["phase"] = None
        running["epoch"] += 1
        return ips_loss(params, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optim, "adam_step", step)
        patch.setattr(optim, "ips_loss", loss)
        result = optim.train(data, propensity_model, config)
    per_epoch = 1 if config.schedule == "concurrent" else 2
    assert len(snapshots) == per_epoch * len(result.history)
    return result, snapshots
