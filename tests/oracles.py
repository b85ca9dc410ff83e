"""Independent brute-force oracles used to cross-check estimator output.

The estimator oracles are computed with plain Python loops and dicts,
deliberately avoiding the vectorized code paths under test. The reference
implementations at the end are the plain full-sort and allocating versions of
the simulator, prediction and optimizer hot paths, the joint estimator with
its smoothing written inline, the per-pair scoring of fitted observation-model
factors, and the per-family scoring and saving of propensity tables; the code
under test must match them bit for bit.
"""

import numpy as np

from ipsmf.data import (
    NUM_RATINGS, RATING_SCALE, RatingDataset, SplitBundle, split_biased, split_unbiased,
)
from ipsmf.model import MFParameters, PARAM_GROUPS, init_params, predict_many
from ipsmf.optim import ITEM_PHASE_GROUPS, USER_PHASE_GROUPS, ips_loss
from ipsmf.propensity import (
    PropensityModel,
    _cap_at_one,
    _counts_by_item_rating,
    _counts_by_rating,
    _fallback_prior,
    score_dataset,
)


def triples(data: RatingDataset) -> list[tuple[int, int, int]]:
    """The (user, item, rating) triples of a dataset, in its order."""
    return list(zip(data.users.tolist(), data.items.tolist(), data.ratings.tolist()))


def rating_counts(triples, rating_values):
    counts = {r: 0 for r in rating_values}
    for _, _, r in triples:
        counts[r] += 1
    return counts


def item_counts(triples, num_items):
    counts = {i: 0 for i in range(num_items)}
    for _, i, _ in triples:
        counts[i] += 1
    return counts


def item_rating_counts(triples, num_items, rating_values):
    counts = {(i, r): 0 for i in range(num_items) for r in rating_values}
    for _, i, r in triples:
        counts[(i, r)] += 1
    return counts


def prior_counts(mcar, rating_values):
    """Per-rating counts of the unbiased sample for its rating prior; a rating
    it never holds takes the smallest count of those it does."""
    counts = rating_counts(mcar, rating_values)
    smallest = min(c for c in counts.values() if c > 0)
    return {r: counts[r] or smallest for r in rating_values}


def positivity_oracle(train, mcar, num_users, num_items, rating_values):
    """Per-rating observation probability from observed vs unbiased frequencies."""
    count_d = rating_counts(train, rating_values)
    count_m = prior_counts(mcar, rating_values)
    out = {}
    for r in rating_values:
        out[r] = (len(mcar) * count_d[r]) / (num_users * num_items * count_m[r])
    return out


def popularity_oracle(train, num_users, num_items):
    """Per-item observation probability: fraction of users that rated the item."""
    counts = item_counts(train, num_items)
    return {i: counts[i] / num_users for i in range(num_items)}


def multifactorial_oracle(train, mcar, num_users, num_items, rating_values, alpha1, alpha2):
    """Per-(item, rating) observation probability with additive smoothing.

    p(i, r) = smoothed joint conditional * observation prior / joint prior,
    with the joint prior factored as P(y=r) * smoothed P(i | y=r).
    """
    n_r = len(rating_values)
    count_d_ir = item_rating_counts(train, num_items, rating_values)
    count_m_r = rating_counts(mcar, rating_values)
    count_m_ir = item_rating_counts(mcar, num_items, rating_values)
    prior_m_r = prior_counts(mcar, rating_values)
    p_obs = len(train) / (num_users * num_items)
    out = {}
    for i in range(num_items):
        for r in rating_values:
            joint_cond = (count_d_ir[(i, r)] + alpha1) / (
                len(train) + alpha1 * num_items * n_r
            )
            rating_prior = prior_m_r[r] / len(mcar)
            item_given_rating = (count_m_ir[(i, r)] + alpha2) / (
                count_m_r[r] + alpha2 * num_items
            )
            out[(i, r)] = joint_cond * p_obs / (rating_prior * item_given_rating)
    return out


def snips_oracle(residual_sq, propensities):
    num = sum(d / p for d, p in zip(residual_sq, propensities))
    den = sum(1.0 / p for p in propensities)
    return num / den


def per_user_rmse_oracle(triples, predictions):
    """Mean over users (with >= 1 triple) of per-user root mean squared error."""
    by_user = {}
    for (u, _, y), pred in zip(triples, predictions):
        by_user.setdefault(u, []).append((pred - y) ** 2)
    rmses = [(sum(v) / len(v)) ** 0.5 for v in by_user.values()]
    return sum(rmses) / len(rmses)


def bootstrap_interval_oracle(values, num_resamples=4000, confidence=0.95, seed=123):
    """Percentile bootstrap of the mean with stdlib randomness only."""
    import random
    import statistics

    rng = random.Random(seed)
    n = len(values)
    means = sorted(
        sum(values[rng.randrange(n)] for _ in range(n)) / n
        for _ in range(num_resamples)
    )
    alpha = (1.0 - confidence) / 2.0
    quantiles = statistics.quantiles(means, n=10_000, method="inclusive")
    low = quantiles[max(0, int(round(alpha * 10_000)) - 1)]
    high = quantiles[min(len(quantiles) - 1, int(round((1 - alpha) * 10_000)) - 1)]
    return low, high


# --------------------------------------------------------------------------
# reference implementations of the simulator and optimizer hot paths


def convert_to_ratings_reference(engagement, target_distribution):
    """Quantile conversion by a full stable argsort of every cell."""
    flat = np.asarray(engagement, dtype=float).ravel()
    n = flat.size
    order = np.argsort(flat, kind="stable")
    ratings = np.empty(n, dtype=np.int64)
    cumulative = np.cumsum(target_distribution)
    boundaries = np.floor(cumulative[:-1] * n + 1e-9).astype(np.int64)
    start = 0
    for value, stop in enumerate(list(boundaries) + [n], start=1):
        ratings[order[start:stop]] = value
        start = stop
    return ratings.reshape(np.asarray(engagement).shape)


def generate_engagement_reference(num_users, num_items, seed, rank=4, noise=0.6):
    """Low-rank engagement with the noise drawn as one full-size matrix."""
    rng = np.random.default_rng(seed)
    user_f = rng.normal(0.0, 1.0, size=(num_users, rank)) / np.sqrt(rank)
    item_f = rng.normal(0.0, 1.0, size=(num_items, rank))
    item_quality = rng.normal(0.0, 1.0, size=num_items)
    return user_f @ item_f.T + item_quality[None, :] + rng.normal(
        0.0, noise, size=(num_users, num_items)
    )


def convert_to_ratings_selection_reference(engagement, target_distribution):
    """Quantile conversion by boundary selection, with the partitioned copy and
    the ratings allocated side by side."""
    flat = np.asarray(engagement, dtype=float).ravel()
    n = flat.size
    cumulative = np.cumsum(target_distribution)
    boundaries = np.floor(cumulative[:-1] * n + 1e-9).astype(np.int64)
    ratings = np.full(n, 1 + np.count_nonzero(boundaries <= 0), dtype=np.int64)
    inner = boundaries[(boundaries > 0) & (boundaries < n)]
    if inner.size:
        selected = np.partition(flat, np.unique(inner))
        for b in inner:
            v = selected[b]
            ratings += flat > v
            ties = np.flatnonzero(flat == v)
            ratings[ties[b - np.count_nonzero(flat < v):]] += 1
    return ratings.reshape(np.asarray(engagement).shape)


def build_item_propensities_reference(truth, eta=1.4, k_min=20):
    """Power-law item propensities from a float copy of the whole truth."""
    avg_rating = np.asarray(truth, dtype=float).mean(axis=0)
    num_items = len(avg_rating)
    order = np.lexsort((np.arange(num_items), -avg_rating))
    ranks = np.empty(num_items, dtype=np.int64)
    ranks[order] = np.arange(1, num_items + 1)
    raw = (eta - 1.0) * (ranks / k_min) ** (-eta)
    return np.minimum(raw, 1.0), int(np.sum(raw > 1.0))


def sample_observations_reference(truth, rating_propensities, item_propensities, gamma, seed):
    """Biased log from one full-size uniform draw against a full-size table of
    cell propensities."""
    truth = np.asarray(truth)
    num_users, num_items = truth.shape
    lo, _ = RATING_SCALE
    rho_r = np.asarray(rating_propensities, dtype=float)
    rho_i = np.asarray(item_propensities, dtype=float)
    table = gamma * rho_r[None, :] + (1.0 - gamma) * rho_i[:, None]
    cell_p = table[np.arange(num_items)[None, :], truth - lo]
    mask = np.random.default_rng(seed).random(truth.shape) < cell_p
    users, items = np.nonzero(mask)
    dataset = RatingDataset(num_users, num_items, users, items, truth[users, items])
    model = PropensityModel(family="ground_truth", table=table)
    return dataset, model


def simulate_reference(spec):
    """The whole generated-engagement pipeline through the references above;
    returns (truth, bundle, ground-truth model)."""
    engagement = generate_engagement_reference(
        spec.num_users, spec.num_items, [spec.seed, 0],
        spec.engagement_rank, spec.engagement_noise,
    )
    truth = convert_to_ratings_selection_reference(
        engagement, spec.target_rating_distribution
    )
    rho_i, _ = build_item_propensities_reference(truth, spec.powerlaw_eta, spec.k_min)
    biased, model = sample_observations_reference(
        truth, spec.rating_propensities, rho_i, spec.gamma, [spec.seed, 1]
    )
    mcar, test = sample_unbiased_reference(
        truth, spec.unbiased_per_user, spec.mcar_fraction, [spec.seed, 2]
    )
    train, validation = split_biased(biased, spec.train_fraction, [spec.seed, 3])
    return truth, SplitBundle(train, validation, mcar, test), model


def sample_unbiased_reference(truth, per_user, mcar_fraction, seed):
    """Unbiased pool from a full per-row argsort of one random key matrix."""
    truth = np.asarray(truth)
    num_users, num_items = truth.shape
    rng = np.random.default_rng(seed)
    chosen = np.argsort(rng.random((num_users, num_items)), axis=1)[:, :per_user]
    users = np.repeat(np.arange(num_users), per_user)
    items = chosen.ravel()
    pool = RatingDataset(num_users, num_items, users, items, truth[users, items])
    return split_unbiased(pool, mcar_fraction, seed)


def predict_many_reference(params, users, items):
    """Predictions for parallel index arrays from one whole-array gather."""
    return (
        np.einsum("nd,nd->n", params.user_emb[users], params.item_emb[items])
        + params.user_off[users]
        + params.item_off[items]
        + params.global_off
    )


def adam_step_reference(params, grads, m, v, steps, mask, lr,
                        beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam update through freshly allocated temporaries; `m`, `v` and `steps`
    are dicts keyed by group name."""
    for name in mask:
        steps[name] += 1
        t = steps[name]
        g = grads.group(name)
        m[name][...] = beta1 * m[name] + (1.0 - beta1) * g
        v[name][...] = beta2 * v[name] + (1.0 - beta2) * g**2
        m_hat = m[name] / (1.0 - beta1**t)
        v_hat = v[name] / (1.0 - beta2**t)
        params.group(name)[...] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def masked_gradient_reference(params, users, items, ratings, propensities, l2_weight, mask):
    """Mini-batch gradient in new arrays, zeros for the groups not in `mask`."""
    grads = MFParameters(*(
        2.0 * l2_weight * params.group(g) if g in mask else np.zeros_like(params.group(g))
        for g in PARAM_GROUPS
    ))
    n = len(users)
    preds = (
        np.einsum("nd,nd->n", params.user_emb[users], params.item_emb[items])
        + params.user_off[users]
        + params.item_off[items]
        + params.global_off
    )
    coef = 2.0 * (preds - ratings) / (propensities * n)
    if "user_emb" in mask:
        np.add.at(grads.user_emb, users, coef[:, None] * params.item_emb[items])
    if "item_emb" in mask:
        np.add.at(grads.item_emb, items, coef[:, None] * params.user_emb[users])
    if "user_off" in mask:
        grads.user_off += np.bincount(users, weights=coef, minlength=len(grads.user_off))
    if "item_off" in mask:
        grads.item_off += np.bincount(items, weights=coef, minlength=len(grads.item_off))
    if "global_off" in mask:
        grads.global_off += coef.sum()
    return grads


def fit_reference(data, propensity_model, config):
    """The training loop of ``ipsmf.optim`` driven by the reference gradient
    and Adam step; returns (best params, [(epoch, train, validation, test)])."""
    train, validation, test = data.train, data.validation, data.test
    users, items = train.users, train.items
    ratings = train.ratings.astype(float)
    p_train = np.asarray(score_dataset(propensity_model, train), dtype=float)
    p_val = np.asarray(score_dataset(propensity_model, validation), dtype=float)
    params = init_params(train.num_users, train.num_items, config.embedding_dim,
                         seed=config.seed, scale=config.init_scale,
                         global_offset=float(train.ratings.mean()))
    m = {g: np.zeros_like(params.group(g)) for g in PARAM_GROUPS}
    v = {g: np.zeros_like(params.group(g)) for g in PARAM_GROUPS}
    steps = {g: 0 for g in PARAM_GROUPS}
    shuffle_rng = np.random.default_rng([config.seed, 1])
    phases = ([PARAM_GROUPS] if config.schedule == "concurrent"
              else [USER_PHASE_GROUPS, ITEM_PHASE_GROUPS])
    history = []
    best_val, best_params, bad_evals = np.inf, params.copy(), 0
    for epoch in range(1, config.max_epochs + 1):
        for mask in phases:
            perm = shuffle_rng.permutation(len(train))
            for start in range(0, len(train), config.batch_size):
                idx = perm[start:start + config.batch_size]
                grads = masked_gradient_reference(
                    params, users[idx], items[idx], ratings[idx], p_train[idx],
                    config.l2_weight, mask,
                )
                adam_step_reference(params, grads, m, v, steps, mask,
                                    config.learning_rate)
        train_loss = ips_loss(params, train, p_train, config.l2_weight)
        w = 1.0 / p_val
        val_preds = predict_many(params, validation.users, validation.items)
        val_score = float(np.sum(w * (val_preds - validation.ratings) ** 2) / np.sum(w))
        test_preds = predict_many(params, test.users, test.items)
        test_mse = float(np.mean((test_preds - test.ratings) ** 2))
        history.append((epoch, train_loss, val_score, test_mse))
        if val_score < best_val:
            best_val, best_params, bad_evals = val_score, params.copy(), 0
        else:
            bad_evals += 1
            if bad_evals >= config.patience:
                break
    return best_params, history


def estimate_mf_propensity_reference(train, num_users, num_items, *, dim, learning_rate,
                                     max_steps, seed, l2_weight=5e-4, tol=1e-8):
    """The observation-model fit through full-matrix temporaries, two logs per
    cell and its own Adam loop. Returns ((P, Q, a, b, c), losses, converged),
    where `losses` holds the loss of every step evaluated."""
    obs = np.zeros((num_users, num_items))
    obs[train.users, train.items] = 1.0
    rng = np.random.default_rng(seed)
    P = rng.normal(0.0, 0.1, size=(num_users, dim))
    Q = rng.normal(0.0, 0.1, size=(num_items, dim))
    a = np.zeros(num_users)
    b = np.zeros(num_items)
    base_rate = np.clip(obs.mean(), 1e-6, 1.0 - 1e-6)
    c = float(np.log(base_rate / (1.0 - base_rate)))

    params = [P, Q, a, b, np.array(c)]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    n_cells = num_users * num_items
    best_loss, best_params, prev_loss, converged = np.inf, None, np.inf, False
    losses = []

    for step in range(1, max_steps + 1):
        logits = params[0] @ params[1].T + params[2][:, None] + params[3][None, :] + params[4]
        s = 1.0 / (1.0 + np.exp(-logits))
        s = np.clip(s, 1e-12, 1.0 - 1e-12)
        loss = float(
            -np.mean(obs * np.log(s) + (1.0 - obs) * np.log(1.0 - s))
            + l2_weight * sum(np.sum(p**2) for p in params)
        )
        losses.append(loss)
        if loss < best_loss:
            best_loss = loss
            best_params = [p.copy() for p in params]
        if np.isfinite(prev_loss) and abs(prev_loss - loss) <= tol * max(abs(prev_loss), 1.0):
            converged = True
            break
        prev_loss = loss

        g = (s - obs) / n_cells
        grads = [
            g @ params[1] + 2 * l2_weight * params[0],
            g.T @ params[0] + 2 * l2_weight * params[1],
            g.sum(axis=1) + 2 * l2_weight * params[2],
            g.sum(axis=0) + 2 * l2_weight * params[3],
            np.array(g.sum()) + 2 * l2_weight * params[4],
        ]
        for k, (grad, (m, v)) in enumerate(zip(grads, moments)):
            m[...] = beta1 * m + (1.0 - beta1) * grad
            v[...] = beta2 * v + (1.0 - beta2) * grad**2
            m_hat = m / (1.0 - beta1**step)
            v_hat = v / (1.0 - beta2**step)
            params[k] -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)

    P, Q, a, b, c = best_params
    return (P, Q, a, b, float(c)), losses, converged


def mf_learned_scores_reference(factors, users, items):
    """Per-pair sigmoid scores of fitted logistic factors ``(P, Q, a, b, c)``,
    computed pair by pair as a fitted mf_learned model used to score them."""
    P, Q, a, b, c = factors
    logits = np.einsum("nd,nd->n", P[users], Q[items]) + a[users] + b[items] + c
    return 1.0 / (1.0 + np.exp(-logits))


def estimate_multifactorial_table_reference(train, mcar, num_users, num_items, alpha1, alpha2):
    """The joint (item, rating) table with both smoothed factors written out
    inline rather than taken from the smoothing helpers."""
    n_r = NUM_RATINGS
    count_d_ir = _counts_by_item_rating(train)
    count_m_r = _counts_by_rating(mcar)
    count_m_ir = _counts_by_item_rating(mcar)
    joint_conditional = (count_d_ir + alpha1) / (len(train) + alpha1 * num_items * n_r)
    rating_prior = _fallback_prior(count_m_r / len(mcar), "rating")
    item_given_rating = (count_m_ir + alpha2) / (count_m_r + alpha2 * num_items)
    prior = rating_prior[None, :] * item_given_rating
    p_obs = len(train) / (num_users * num_items)
    return _cap_at_one(joint_conditional * p_obs / prior, "multifactorial")


# --------------------------------------------------------------------------
# per-family propensity scoring and table writing, one branch per family


def raw_propensity_reference(model, users, items, ratings):
    """Unscaled, unclipped scores with one branch per family."""
    lo, hi = RATING_SCALE
    if np.any(ratings < lo) or np.any(ratings > hi):
        raise IndexError("rating outside the model's rating scale")
    r_idx = ratings - lo

    def check_range(idx, bound, what):
        if len(idx) and (idx.min() < 0 or idx.max() >= bound):
            raise IndexError(f"{what} index out of range [0, {bound})")

    if model.family == "uniform":
        return np.full(len(users), float(model.table), dtype=float)
    if model.family == "popularity":
        check_range(items, len(model.table), "item")
        return model.table[items]
    if model.family == "positivity":
        return model.table[r_idx]
    if model.family in ("multifactorial", "ground_truth"):
        check_range(items, model.table.shape[0], "item")
        return model.table[items, r_idx]
    if model.family == "mf_learned":
        check_range(users, model.table.shape[0], "user")
        check_range(items, model.table.shape[1], "item")
        return model.table[users, items]
    raise AssertionError(model.family)


def score_many_reference(model, users, items, ratings):
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    ratings = np.asarray(ratings, dtype=np.int64)
    raw = raw_propensity_reference(model, users, items, ratings) * model.scale
    return np.maximum(np.minimum(raw, 1.0), model.clip_floor)


def save_propensity_reference(model, path, delimiter=","):
    """Write a propensity table file with one layout branch per family."""
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        if model.family == "uniform":
            fh.write("propensity\n")
            fh.write(f"{float(model.table)!r}\n")
        elif model.family == "popularity":
            fh.write(delimiter.join(("item_index", "propensity")) + "\n")
            for i, p in enumerate(model.table):
                fh.write(f"{i}{delimiter}{float(p)!r}\n")
        elif model.family == "positivity":
            fh.write(delimiter.join(("rating", "propensity")) + "\n")
            for r, p in zip(range(lo, hi + 1), model.table):
                fh.write(f"{r}{delimiter}{float(p)!r}\n")
        elif model.family in ("multifactorial", "ground_truth"):
            fh.write(delimiter.join(("item_index", "rating", "propensity")) + "\n")
            for i in range(model.table.shape[0]):
                for k, r in enumerate(range(lo, hi + 1)):
                    fh.write(f"{i}{delimiter}{r}{delimiter}{float(model.table[i, k])!r}\n")
        elif model.family == "mf_learned":
            table = model.table
            fh.write(delimiter.join(("user_index", "item_index", "propensity")) + "\n")
            for u in range(table.shape[0]):
                for i in range(table.shape[1]):
                    fh.write(f"{u}{delimiter}{i}{delimiter}{float(table[u, i])!r}\n")
        else:
            raise AssertionError(model.family)
