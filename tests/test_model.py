import pickle
import tracemalloc

import numpy as np
import pytest

from ipsmf import model
from ipsmf.data import RatingDataset
from ipsmf.model import (
    PARAM_GROUPS,
    _PACKED_ORDER,
    MFParameters,
    fit_avg,
    init_params,
    load_checkpoint,
    predict_many,
    save_checkpoint,
)
from ipsmf.optim import init_adam_state
from oracles import predict_many_reference


def predict_one(params, user, item):
    """The prediction for one (user, item) pair, from predict_many."""
    return float(predict_many(params, np.array([user]), np.array([item]))[0])


def test_constant_model_predicts_global_offset():
    params = init_params(3, 4, dim=2, seed=0, scale=0.0, global_offset=3.0)
    for u in range(3):
        for i in range(4):
            assert predict_one(params, u, i) == 3.0


def test_forced_arithmetic():
    params = MFParameters(
        user_emb=np.array([[1.0, 1.0]]),
        item_emb=np.array([[1.0, 1.0]]),
        user_off=np.array([0.1]),
        item_off=np.array([0.2]),
        global_off=np.array(1.0),
    )
    assert predict_one(params, 0, 0) == pytest.approx(3.3, abs=1e-12)


def test_prediction_matches_manual_recomputation():
    rng = np.random.default_rng(42)
    params = init_params(6, 7, dim=5, seed=1, scale=0.3, global_offset=2.5)
    params.user_off[:] = rng.normal(size=6)
    params.item_off[:] = rng.normal(size=7)
    for u in range(6):
        for i in range(7):
            manual = (
                sum(float(params.user_emb[u, k]) * float(params.item_emb[i, k])
                    for k in range(5))
                + float(params.user_off[u]) + float(params.item_off[i])
                + float(params.global_off)
            )
            assert predict_one(params, u, i) == pytest.approx(manual, abs=1e-12)


def test_predict_many_matches_scalar():
    params = init_params(5, 5, dim=3, seed=2, scale=0.2, global_offset=1.0)
    users = np.array([0, 4, 2, 2])
    items = np.array([1, 3, 0, 4])
    batch = predict_many(params, users, items)
    for k in range(len(users)):
        want = predict_many_reference(params, users[k:k + 1], items[k:k + 1])[0]
        assert batch[k] == pytest.approx(want, abs=1e-12)


def test_index_out_of_range():
    params = init_params(2, 2, dim=2, seed=0)
    with pytest.raises(IndexError):
        predict_many(params, np.array([2]), np.array([0]))
    with pytest.raises(IndexError):
        predict_many(params, np.array([0]), np.array([5]))


@pytest.mark.parametrize("users, items, side", [([1, -1], [0, 1], "user"),
                                                 ([0, 1], [-2, 0], "item")])
def test_negative_index_raises(users, items, side):
    # the rows are gathered with take, which would read row n-1 for index -1
    params = init_params(2, 2, dim=2, seed=0)
    with pytest.raises(IndexError, match=side):
        predict_many(params, np.array(users), np.array(items))


B = model._PREDICT_BLOCK


class TestPredictManyBlocks:
    """Blocked predictions equal the whole-array gather bit for bit, wherever
    the pair count falls relative to the block size."""

    def pairs(self, n, num_users=300, num_items=200):
        rng = np.random.default_rng(n)
        return rng.integers(0, num_users, size=n), rng.integers(0, num_items, size=n)

    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
    def test_matches_whole_array(self, n):
        params = init_params(300, 200, dim=5, seed=n, scale=0.3, global_offset=3.2)
        params.user_off[...] = np.random.default_rng(1).normal(size=300)
        params.item_off[...] = np.random.default_rng(2).normal(size=200)
        users, items = self.pairs(n)
        got = predict_many(params, users, items)
        want = predict_many_reference(params, users, items)
        assert got.dtype == want.dtype and got.shape == want.shape == (n,)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [1, 7])
    def test_does_not_depend_on_block_size(self, monkeypatch, block):
        params = init_params(300, 200, dim=4, seed=3, scale=0.3, global_offset=2.0)
        users, items = self.pairs(2 * 7 + 3)
        want = predict_many(params, users, items)
        monkeypatch.setattr(model, "_PREDICT_BLOCK", block)
        assert predict_many(params, users, items).tobytes() == want.tobytes()

    def test_out_of_range_index_in_a_later_block_raises(self, monkeypatch):
        monkeypatch.setattr(model, "_PREDICT_BLOCK", 2)
        params = init_params(3, 3, dim=2, seed=0)
        with pytest.raises(IndexError, match="user"):
            predict_many(params, np.array([0, 1, 2, 3]), np.array([0, 1, 2, 0]))
        with pytest.raises(IndexError, match="item"):
            predict_many(params, np.array([0, 1, 2, 0]), np.array([0, 1, 2, -1]))

    def test_unequal_lengths_rejected(self):
        # a whole-array gather broadcast a length-1 side; blocks cannot
        params = init_params(3, 4, dim=2, seed=0)
        for users, items in (([0, 1, 2], [1]), ([0], [1, 2, 3])):
            with pytest.raises(ValueError, match="user indices but"):
                predict_many(params, np.array(users), np.array(items))

    def test_peak_memory_is_a_few_blocks(self):
        # a whole-array gather of 200,000 pairs at dim 16 holds two 25.6 MB
        # row matrices; blocked, the gathers are one block's rows each
        n, dim = 200_000, 16
        params = init_params(2000, 1000, dim=dim, seed=0)
        users, items = self.pairs(n, 2000, 1000)
        tracemalloc.start()
        try:
            predict_many(params, users, items)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        gathered_block = 2 * B * dim * 8
        assert peak <= n * 8 + 2 * gathered_block, (peak, n * 8, gathered_block)


def test_init_deterministic_per_seed():
    a = init_params(4, 5, dim=3, seed=9)
    b = init_params(4, 5, dim=3, seed=9)
    assert np.array_equal(a.user_emb, b.user_emb)
    assert np.array_equal(a.item_emb, b.item_emb)
    c = init_params(4, 5, dim=3, seed=10)
    assert not np.array_equal(a.user_emb, c.user_emb)


def test_init_scale_zero_gives_zero_embeddings():
    params = init_params(3, 3, dim=4, seed=0, scale=0.0)
    assert not params.user_emb.any()
    assert not params.item_emb.any()


def test_init_variance_near_scale_squared():
    # 10_000 embedding entries at scale 0.1 -> sample variance close to 0.01
    params = init_params(300, 325, dim=16, seed=5, scale=0.1)
    entries = np.concatenate([params.user_emb.ravel(), params.item_emb.ravel()])
    assert entries.size == 10_000
    assert abs(entries.var() - 0.01) < 0.002


def test_offset_linearity_by_perturbation():
    params = init_params(3, 3, dim=2, seed=3, scale=0.1, global_offset=2.0)
    base = predict_one(params, 1, 2)
    for group, idx, bump in (("user_off", 1, 0.25), ("item_off", 2, -0.5)):
        arr = getattr(params, group).copy()
        getattr(params, group)[idx] += bump
        assert predict_one(params, 1, 2) == pytest.approx(base + bump, abs=1e-12)
        getattr(params, group)[:] = arr
    params.global_off += 0.75
    assert predict_one(params, 1, 2) == pytest.approx(base + 0.75, abs=1e-12)


def test_rotation_invariance_dim2():
    params = init_params(4, 4, dim=2, seed=7, scale=0.5, global_offset=1.0)
    before = predict_many(params, np.arange(4), np.arange(4))
    theta = 0.83
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    params.user_emb[:] = params.user_emb @ rot
    params.item_emb[:] = params.item_emb @ rot
    after = predict_many(params, np.arange(4), np.arange(4))
    np.testing.assert_allclose(after, before, atol=1e-12)


def test_init_rejects_bad_dim():
    with pytest.raises(ValueError):
        init_params(2, 2, dim=0, seed=0)


class TestAvg:
    """The avg baseline is an MFParameters with no factors whose item offsets
    are the per-item train means."""

    def make_train(self):
        # item 3 is in the id space but has no train ratings
        return RatingDataset(
            num_users=3, num_items=4,
            users=np.array([0, 1, 2, 0]),
            items=np.array([0, 0, 1, 2]),
            ratings=np.array([5, 1, 4, 2]),
        )

    @staticmethod
    def item_means(train):
        """Each item's mean train rating, the global mean for an unrated item."""
        ratings = train.ratings.astype(float)
        return np.array([
            ratings[train.items == i].mean() if np.any(train.items == i) else ratings.mean()
            for i in range(train.num_items)
        ])

    def predict_all(self, params, train):
        users, items = np.meshgrid(np.arange(train.num_users), np.arange(train.num_items),
                                   indexing="ij")
        return predict_many(params, users.ravel(), items.ravel()).reshape(users.shape)

    def test_item_mean(self):
        train = self.make_train()
        preds = self.predict_all(fit_avg(train), train)
        expected = np.broadcast_to(self.item_means(train), preds.shape)
        np.testing.assert_array_equal(preds, expected)

    def test_unseen_item_falls_back_to_global_mean(self):
        train = self.make_train()
        params = fit_avg(train)
        assert predict_many(params, np.arange(3), np.full(3, 3)).tolist() == [3.0] * 3
        # an item index outside the train id space is an error, as for any model
        with pytest.raises(IndexError):
            predict_many(params, np.array([1]), np.array([99]))

    def test_exact_means_on_fixture(self):
        params = fit_avg(self.make_train())
        assert params.dim == 0
        assert (params.num_users, params.num_items) == (3, 4)
        assert params.item_off.tolist() == [3.0, 4.0, 2.0, 3.0]
        assert params.user_off.tolist() == [0.0, 0.0, 0.0]
        assert float(params.global_off) == 0.0

    def test_vectorized_matches_scalar(self):
        params = fit_avg(self.make_train())
        users = np.array([0, 1, 2, 1])
        items = np.array([0, 1, 2, 3])
        batch = predict_many(params, users, items)
        assert batch.tolist() == [
            predict_many_reference(params, users[k:k + 1], items[k:k + 1])[0]
            for k in range(len(users))
        ]

    def test_random_ratings_bit_for_bit(self):
        rng = np.random.default_rng(4)
        # items 50..59 have no train ratings
        pairs = rng.choice(40 * 50, size=700, replace=False)
        train = RatingDataset(
            num_users=40, num_items=60, users=pairs // 50, items=pairs % 50,
            ratings=rng.integers(1, 6, size=700),
        )
        preds = self.predict_all(fit_avg(train), train)
        np.testing.assert_array_equal(preds, np.broadcast_to(self.item_means(train), preds.shape))

    def test_pickles_exactly(self):
        params = fit_avg(self.make_train())
        restored = pickle.loads(pickle.dumps(params))
        for group in PARAM_GROUPS:
            np.testing.assert_array_equal(restored.group(group), params.group(group))


def test_checkpoint_roundtrip_exact(tmp_path):
    params = init_params(5, 6, dim=3, seed=11, scale=0.2, global_offset=3.3)
    path = tmp_path / "params.bin"
    save_checkpoint(params, path, seed=11)
    loaded, meta = load_checkpoint(path)
    assert meta == {"num_users": 5, "num_items": 6, "dim": 3, "seed": 11}
    for group in ("user_emb", "item_emb", "user_off", "item_off", "global_off"):
        np.testing.assert_array_equal(loaded.group(group), params.group(group))


@pytest.mark.parametrize("edit, match", [
    (lambda h, body: (h.replace(b"dim=3", b"dim3"), body),
     r"params.bin: header token 'dim3' is not key=value"),
    (lambda h, body: (h.replace(b" dim=3", b""), body), r"params.bin: header is missing dim"),
    (lambda h, body: (h.replace(b"num_items=6", b"num_items=six"), body),
     r"params.bin: header num_items='six' is not an integer"),
    (lambda h, body: (h.replace(b"num_users=5", b"num_users=-5"), body),
     r"params.bin: header num_users=-5 is negative"),
    (lambda h, body: (h, body + b"\0"), r"params.bin: trailing bytes after the global_off block"),
    (lambda h, body: (h, body[:-1]), r"params.bin: truncated checkpoint block global_off"),
    (lambda h, body: (b"ipsmf-weights v1\n", body), r"params.bin: not an ipsmf checkpoint"),
], ids=["not-key-value", "missing-key", "non-integer-size", "negative-size",
        "trailing-bytes", "truncated", "bad-magic"])
def test_checkpoint_defects_rejected(tmp_path, edit, match):
    path = tmp_path / "params.bin"
    save_checkpoint(init_params(5, 6, dim=3, seed=11), path, seed=11)
    header, _, body = path.read_bytes().partition(b"\n")
    header, body = edit(header + b"\n", body)
    path.write_bytes(header + body)
    with pytest.raises(ValueError, match=match):
        load_checkpoint(path)


def assert_packed(params):
    """All five groups are contiguous views of one float64 buffer, laid out
    back to back in _PACKED_ORDER."""
    buf = params._buffer
    assert buf.dtype == np.float64 and buf.ndim == 1 and buf.flags.c_contiguous
    start = 0
    for g in _PACKED_ORDER:
        group = params.group(g)
        assert group.dtype == np.float64 and group.flags.c_contiguous, g
        assert group.ctypes.data == buf.ctypes.data + 8 * start, g
        assert np.shares_memory(group, buf), g
        assert params._spans[g] == (start, start + group.size), g
        start += group.size
    assert start == buf.size


def test_every_constructor_path_packs_the_groups(tmp_path):
    params = init_params(5, 6, dim=3, seed=11, scale=0.2, global_offset=3.3)
    save_checkpoint(params, tmp_path / "params.bin")
    loaded, _ = load_checkpoint(tmp_path / "params.bin")
    state = init_adam_state(params)
    copied = params.copy()
    unpickled = pickle.loads(pickle.dumps(params))
    for packed in (params, copied, loaded, unpickled, state.m, state.v):
        assert_packed(packed)
    for other in (copied, loaded, unpickled, state.m, state.v):
        assert not np.shares_memory(other._buffer, params._buffer)
        for g in PARAM_GROUPS:
            assert other.group(g).shape == params.group(g).shape
    for g in PARAM_GROUPS:
        assert copied.group(g).tobytes() == params.group(g).tobytes()
        assert unpickled.group(g).tobytes() == params.group(g).tobytes()
        assert not state.m.group(g).any() and not state.v.group(g).any()


def test_constructor_copies_its_inputs():
    arrays = {
        "user_emb": np.arange(6.0).reshape(2, 3),
        "item_emb": np.arange(12.0).reshape(4, 3),
        "user_off": np.array([0.5, -0.5]),
        "item_off": np.arange(4),  # integer input is stored as float64
        "global_off": 3.5,
    }
    params = MFParameters(**arrays)
    assert_packed(params)
    for g, arr in arrays.items():
        np.testing.assert_array_equal(params.group(g), arr)
        if isinstance(arr, np.ndarray):
            assert not np.shares_memory(params.group(g), arr)
            arr += 1
    np.testing.assert_array_equal(params.user_emb, np.arange(6.0).reshape(2, 3))
    np.testing.assert_array_equal(params.item_off, np.arange(4.0))


@pytest.mark.parametrize("group, value, match", [
    ("user_emb", np.zeros(3), "user_emb must have 2 dimensions"),
    ("item_off", np.zeros((4, 1)), "item_off must have 1 dimensions"),
    ("global_off", np.zeros(1), "global_off must have 0 dimensions"),
    ("item_emb", np.zeros((4, 2)), "embedding dimensions differ"),
    ("user_off", np.zeros(3), "user_off length"),
    ("item_off", np.zeros(5), "item_off length"),
])
def test_constructor_rejects_misshaped_groups(group, value, match):
    arrays = {"user_emb": np.zeros((2, 3)), "item_emb": np.zeros((4, 3)),
              "user_off": np.zeros(2), "item_off": np.zeros(4), "global_off": 0.0}
    arrays[group] = value
    with pytest.raises(ValueError, match=match):
        MFParameters(**arrays)


def test_init_params_names_a_nonpositive_dimension():
    with pytest.raises(ValueError, match=r"^dim must be positive, got 0$"):
        init_params(3, 4, 0, seed=0)
