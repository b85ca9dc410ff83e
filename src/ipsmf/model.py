"""Rating predictors: factorized model with offsets and the per-item-average baseline."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import _POSITIVE, RatingDataset, _check_rules

# Parameter group names, used for masked optimizer updates and checkpoints.
PARAM_GROUPS = ("user_emb", "item_emb", "user_off", "item_off", "global_off")


# The groups that each phase of the alternating schedule updates.
USER_PHASE_GROUPS = ("user_emb", "user_off", "global_off")
ITEM_PHASE_GROUPS = ("item_emb", "item_off")
# Order of the groups in the packed buffer: phase by phase, so a phase is one
# contiguous slice. optim.adam_step and the gradient's L2 term take only masks
# that are such a slice, a run of adjacent groups here.
_PACKED_ORDER = USER_PHASE_GROUPS + ITEM_PHASE_GROUPS

# (user, item) pairs that predict_many scores at once: its gathered embedding
# rows are 256 KB per block and group at dim 16. On a desk-shaped fit (a
# 2-vCPU Xeon VM), blocks of 2,048 made the fit about 3% faster than blocks
# of 16,384 that held each split's per-epoch predictions (4,812 train and
# 1,202 validation pairs) in one block.
_PREDICT_BLOCK = 2048

# init_params' settings rule (see data._check_rules); optim's TRAIN_RULES and
# propensity's PIPELINE_RULES check their embedding dimensions with it
_INIT_RULES = {"dim": _POSITIVE}


@dataclass
class MFParameters:
    """Factorization parameters: embeddings plus user/item/global offsets.

    The prediction for (u, i) is ``user_emb[u] . item_emb[i] + user_off[u]
    + item_off[i] + global_off``. ``global_off`` is a 0-d array so that all
    groups share the optimizer code path.

    The constructor copies the five inputs into one contiguous float64 buffer
    and the fields are views of it, laid out in ``_PACKED_ORDER``;
    ``_spans[name]`` is the (start, stop) of a group in ``_buffer``. Write
    into the groups in place; rebinding a field detaches it from the buffer.
    """

    user_emb: np.ndarray
    item_emb: np.ndarray
    user_off: np.ndarray
    item_off: np.ndarray
    global_off: np.ndarray

    def __post_init__(self):
        groups = {g: np.asarray(getattr(self, g), dtype=np.float64) for g in PARAM_GROUPS}
        for g, ndim in (("user_emb", 2), ("item_emb", 2), ("user_off", 1),
                        ("item_off", 1), ("global_off", 0)):
            if groups[g].ndim != ndim:
                raise ValueError(f"{g} must have {ndim} dimensions, got {groups[g].ndim}")
        if groups["user_emb"].shape[1] != groups["item_emb"].shape[1]:
            raise ValueError("user and item embedding dimensions differ")
        if groups["user_emb"].shape[0] != groups["user_off"].shape[0]:
            raise ValueError("user_off length does not match user_emb")
        if groups["item_emb"].shape[0] != groups["item_off"].shape[0]:
            raise ValueError("item_off length does not match item_emb")
        self._buffer = np.empty(sum(groups[g].size for g in PARAM_GROUPS))
        self._spans = {}
        start = 0
        for g in _PACKED_ORDER:
            stop = start + groups[g].size
            view = self._buffer[start:stop].reshape(groups[g].shape)
            view[...] = groups[g]
            setattr(self, g, view)
            self._spans[g] = (start, stop)
            start = stop

    def __reduce__(self):
        # pickle the groups, not the views: unpickled views would not share
        # one buffer
        return MFParameters, tuple(self.group(g) for g in PARAM_GROUPS)

    @property
    def num_users(self) -> int:
        return self.user_emb.shape[0]

    @property
    def num_items(self) -> int:
        return self.item_emb.shape[0]

    @property
    def dim(self) -> int:
        return self.user_emb.shape[1]

    def group(self, name: str) -> np.ndarray:
        return getattr(self, name)

    def copy(self) -> "MFParameters":
        return MFParameters(*(self.group(g) for g in PARAM_GROUPS))

    def squared_norm(self) -> float:
        return float(sum(np.sum(self.group(g) ** 2) for g in PARAM_GROUPS))


def init_params(
    num_users: int,
    num_items: int,
    dim: int,
    seed: int,
    scale: float = 0.1,
    global_offset: float = 0.0,
) -> MFParameters:
    """Gaussian embeddings with the given scale, zero offsets, fixed global offset.

    Training harnesses pass the mean train rating as ``global_offset`` so the
    model starts centered. Deterministic per seed.
    """
    _check_rules({"dim": dim}, _INIT_RULES)
    rng = np.random.default_rng(seed)
    return MFParameters(
        user_emb=rng.normal(0.0, 1.0, size=(num_users, dim)) * scale,
        item_emb=rng.normal(0.0, 1.0, size=(num_items, dim)) * scale,
        user_off=np.zeros(num_users),
        item_off=np.zeros(num_items),
        global_off=np.array(float(global_offset)),
    )


def predict_many(params: MFParameters, users: np.ndarray, items: np.ndarray) -> np.ndarray:
    """Vectorized predictions for parallel index arrays.

    Works ``_PREDICT_BLOCK`` pairs at a time, so the gathered embedding rows
    stay a few MB however many pairs are scored; each prediction is computed
    as in one whole-array pass, so the result does not depend on the block.
    Rows are gathered with ``take``, which would wrap a negative index, so
    every index is range-checked first.
    """
    users = np.asarray(users)
    items = np.asarray(items)
    if len(users) != len(items):
        raise ValueError(f"{len(users)} user indices but {len(items)} item indices")
    if len(users) and (users.min() < 0 or users.max() >= params.num_users):
        raise IndexError("user index out of range")
    if len(items) and (items.min() < 0 or items.max() >= params.num_items):
        raise IndexError("item index out of range")
    preds = np.empty(len(users))
    for start in range(0, len(users), _PREDICT_BLOCK):
        u = users[start:start + _PREDICT_BLOCK]
        i = items[start:start + _PREDICT_BLOCK]
        preds[start:start + _PREDICT_BLOCK] = _predict_rows(
            params, u, i, params.user_emb.take(u, axis=0), params.item_emb.take(i, axis=0)
        )
    return preds


def _predict_rows(params, users, items, user_rows, item_rows) -> np.ndarray:
    """The predictions of `params` for the pairs (`users`, `items`), whose
    embedding rows are already gathered as `user_rows` and `item_rows`:
    the prediction expression of :class:`MFParameters`, in this order."""
    return (
        np.einsum("nd,nd->n", user_rows, item_rows)
        + params.user_off.take(users)
        + params.item_off.take(items)
        + params.global_off
    )


def fit_avg(train: RatingDataset) -> MFParameters:
    """The per-item-average baseline as a model with no latent factors.

    ``item_off`` holds each item's mean train rating, or the global train
    mean for an item without train ratings; every other group is zero, so
    :func:`predict_many` returns the item mean exactly.
    """
    if len(train) == 0:
        raise ValueError("cannot fit the average baseline on an empty dataset")
    counts = np.bincount(train.items, minlength=train.num_items)
    sums = np.bincount(train.items, weights=train.ratings.astype(float), minlength=train.num_items)
    means = np.full(train.num_items, float(train.ratings.mean()))
    observed = counts > 0
    means[observed] = sums[observed] / counts[observed]
    return MFParameters(
        user_emb=np.zeros((train.num_users, 0)),
        item_emb=np.zeros((train.num_items, 0)),
        user_off=np.zeros(train.num_users),
        item_off=means,
        global_off=np.array(0.0),
    )


# Checkpoint layout (documented in README): one ASCII header line
#   "ipsmf-checkpoint v1 num_users=U num_items=I dim=D seed=S\n"
# followed by row-major little-endian float64 blocks in PARAM_GROUPS order.

_CHECKPOINT_MAGIC = "ipsmf-checkpoint v1"


def save_checkpoint(params: MFParameters, path: str | Path, seed: int = 0) -> None:
    header = (
        f"{_CHECKPOINT_MAGIC} num_users={params.num_users} "
        f"num_items={params.num_items} dim={params.dim} seed={seed}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for name in PARAM_GROUPS:
            fh.write(np.ascontiguousarray(params.group(name), dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[MFParameters, dict[str, int]]:
    """Read a checkpoint written by :func:`save_checkpoint`; returns the
    parameters and the integer header fields.

    Raises ValueError naming the file for a missing magic, a header token that
    is not ``key=integer``, a missing or negative size (num_users, num_items,
    dim), a truncated block, or bytes after the last block.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").strip()
        if not header.startswith(_CHECKPOINT_MAGIC):
            raise ValueError(f"{path}: not an ipsmf checkpoint")
        meta = {}
        for token in header[len(_CHECKPOINT_MAGIC):].split():
            key, sep, value = token.partition("=")
            if not sep:
                raise ValueError(f"{path}: header token {token!r} is not key=value")
            try:
                meta[key] = int(value)
            except ValueError:
                raise ValueError(f"{path}: header {key}={value!r} is not an integer") from None
        for key in ("num_users", "num_items", "dim"):
            if key not in meta:
                raise ValueError(f"{path}: header is missing {key}")
            if meta[key] < 0:
                raise ValueError(f"{path}: header {key}={meta[key]} is negative")
        n_u, n_i, dim = meta["num_users"], meta["num_items"], meta["dim"]
        shapes = {
            "user_emb": (n_u, dim),
            "item_emb": (n_i, dim),
            "user_off": (n_u,),
            "item_off": (n_i,),
            "global_off": (),
        }
        arrays = {}
        for name in PARAM_GROUPS:
            count = int(np.prod(shapes[name], dtype=np.int64)) if shapes[name] else 1
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise ValueError(f"{path}: truncated checkpoint block {name}")
            arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shapes[name])
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the global_off block")
    return MFParameters(**arrays), meta
