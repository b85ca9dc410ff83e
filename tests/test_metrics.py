import tracemalloc

import numpy as np
import pytest

from ipsmf.data import RatingDataset
from ipsmf.metrics import MetricReport, bootstrap_interval, evaluate, summarize_runs
from ipsmf.model import MFParameters, fit_avg, init_params, predict_many

from oracles import per_user_rmse_oracle, triples


def make_dataset(n_users, n_items, triples):
    u, i, r = (np.array(x) for x in zip(*triples))
    return RatingDataset(n_users, n_items, u, i, r)


def constant_predictor(value, test):
    """A zero-factor model over `test`'s id space that predicts `value`, as
    fit_avg builds one: 0 + 0 + 0 + value."""
    return MFParameters(
        user_emb=np.zeros((test.num_users, 0)),
        item_emb=np.zeros((test.num_items, 0)),
        user_off=np.zeros(test.num_users),
        item_off=np.zeros(test.num_items),
        global_off=np.array(float(value)),
    )


def pairwise_predictor(test, preds):
    """A model whose prediction for the k-th (user, item) pair of `test` is
    exactly ``preds[k]``: one factor per pair, 1 on the pair's user and
    ``preds[k]`` on its item, so every other term of the dot product is 0."""
    k = np.arange(len(test))
    user_emb = np.zeros((test.num_users, len(test)))
    item_emb = np.zeros((test.num_items, len(test)))
    user_emb[test.users, k] = 1.0
    item_emb[test.items, k] = preds
    return MFParameters(user_emb, item_emb, np.zeros(test.num_users),
                        np.zeros(test.num_items), np.array(0.0))


@pytest.mark.parametrize("clamp", [False, True])
def test_evaluate_works_inside_its_predictions(clamp):
    # the errors, their absolute values and their squares are all taken in
    # the prediction array, and each int32 id column is widened to intp once
    # for bincount: the peak is the predictions and one id copy, 8 bytes per
    # triple each; a separate array of squares read 3x, and new arrays for
    # the errors and their absolute values 4x
    n_users, n_items, per_user = 2000, 1000, 100
    rng = np.random.default_rng(0)
    items = np.argsort(rng.random((n_users, n_items)), axis=1)[:, :per_user].ravel()
    test = RatingDataset(n_users, n_items, np.repeat(np.arange(n_users), per_user), items,
                         rng.integers(1, 6, len(items)))
    params = init_params(n_users, n_items, 16, seed=0)
    tracemalloc.start()
    try:
        report = evaluate(params, test, clamp=clamp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 8 * len(test), peak / (8 * len(test))
    preds = predict_many(params, test.users, test.items)
    if clamp:
        preds = np.clip(preds, 1, 5)
    err = preds - test.ratings
    assert (report.mse, report.mae) == (float((err**2).mean()), float(np.abs(err).mean()))


def test_perfect_predictions_all_zero():
    test = make_dataset(2, 2, [(0, 0, 3), (1, 1, 3)])
    report = evaluate(constant_predictor(3.0, test), test)
    assert report.mse == report.mae == report.rmse == 0.0
    assert report.rmse_per_user == report.rmse_per_item == 0.0


def test_forced_arithmetic_two_users():
    # residuals (+1, -1) split across two users
    test = make_dataset(2, 2, [(0, 0, 2), (1, 1, 4)])
    report = evaluate(constant_predictor(3.0, test), test)
    assert report.mse == 1.0
    assert report.mae == 1.0
    assert report.rmse == 1.0
    assert report.rmse_per_user == 1.0


def test_unequal_per_user_counts_match_oracle():
    test = make_dataset(3, 4, [(0, 0, 1), (0, 1, 5), (0, 2, 3), (1, 0, 4), (2, 3, 2)])
    preds = np.array([2.0, 2.0, 3.5, 3.0, 2.0])
    report = evaluate(pairwise_predictor(test, preds), test)
    expected_u = per_user_rmse_oracle(triples(test), preds)
    assert report.rmse_per_user == pytest.approx(expected_u, abs=1e-12)
    assert report.rmse_per_user != pytest.approx(report.rmse)


def test_rmse_is_sqrt_mse_and_mae_bounded():
    rng = np.random.default_rng(4)
    test = make_dataset(6, 6, [(u, i, int(rng.integers(1, 6)))
                               for u in range(6) for i in range(6)])
    preds = rng.normal(3.0, 1.0, size=len(test))
    report = evaluate(pairwise_predictor(test, preds), test)
    assert report.rmse == pytest.approx(np.sqrt(report.mse), abs=1e-12)
    assert report.mae <= report.rmse + 1e-12


def test_rmse_per_user_equals_rmse_with_one_triple_each():
    # per-user RMSE of a singleton is |residual|, so the identity with the
    # pooled RMSE needs equal-magnitude residuals
    test = make_dataset(4, 4, [(u, u, 2 if u % 2 else 4) for u in range(4)])
    report = evaluate(constant_predictor(3.0, test), test)
    assert report.rmse_per_user == pytest.approx(report.rmse, abs=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(7)
    triples = [(u, i, int(rng.integers(1, 6))) for u in range(5) for i in range(3)]
    base = make_dataset(5, 3, triples)
    perm = rng.permutation(len(triples))
    shuffled = make_dataset(5, 3, [triples[k] for k in perm])
    params = init_params(5, 3, 2, seed=0, scale=0.2, global_offset=3.0)
    a = evaluate(params, base)
    b = evaluate(params, shuffled)
    assert (a.mse, a.mae, a.rmse_per_user, a.rmse_per_item) == pytest.approx(
        (b.mse, b.mae, b.rmse_per_user, b.rmse_per_item), abs=1e-12
    )


def test_empty_test_rejected():
    empty = RatingDataset(2, 2, np.array([], int), np.array([], int), np.array([], int))
    with pytest.raises(ValueError):
        evaluate(constant_predictor(3.0, empty), empty)


def test_clamp_restricts_to_scale():
    test = make_dataset(1, 2, [(0, 0, 5), (0, 1, 1)])
    report_raw = evaluate(constant_predictor(7.0, test), test)
    report_clamped = evaluate(constant_predictor(7.0, test), test, clamp=True)
    assert report_clamped.mse < report_raw.mse
    assert report_clamped.mse == pytest.approx((0.0 + 16.0) / 2)


def test_avg_model_path():
    train = make_dataset(2, 2, [(0, 0, 5), (1, 0, 1), (0, 1, 3)])
    test = make_dataset(2, 2, [(1, 1, 3)])
    report = evaluate(fit_avg(train), test)
    assert report.mse == 0.0  # item 1 mean is exactly 3


def test_counts_reported():
    test = make_dataset(5, 4, [(0, 0, 1), (0, 1, 5), (1, 0, 4), (2, 3, 2)])
    report = evaluate(constant_predictor(3.0, test), test)
    assert report.num_triples == 4
    assert report.num_users == 3
    assert report.num_items == 3


def test_summarize_runs():
    reports = [
        MetricReport(mse=1.0, mae=0.5, rmse=1.0, rmse_per_user=1.0,
                     rmse_per_item=1.0, num_triples=4, num_users=2, num_items=2),
        MetricReport(mse=3.0, mae=1.5, rmse=np.sqrt(3), rmse_per_user=2.0,
                     rmse_per_item=2.0, num_triples=4, num_users=2, num_items=2),
    ]
    summary = summarize_runs([vars(r) for r in reports])
    assert summary["n_runs"] == 2
    assert summary["mse_mean"] == pytest.approx(2.0)
    assert summary["mse_std"] == pytest.approx(np.std([1.0, 3.0], ddof=1))


def test_bootstrap_interval_brackets_mean():
    rng = np.random.default_rng(11)
    values = rng.normal(5.0, 0.3, size=10)
    low, high = bootstrap_interval(values, num_resamples=1000, seed=0)
    assert low < values.mean() < high
    # interval width shrinks as confidence drops
    low50, high50 = bootstrap_interval(values, num_resamples=1000,
                                       confidence=0.5, seed=0)
    assert high50 - low50 < high - low
