import contextlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argn.audit import _FOLD_DOMAIN, N_FOLDS, _cross_fit_scores
from argn.linear import LOGISTIC_L2, LOGISTIC_TOL, LogisticModel, fit_logistic_stack, one_hot, softmax_class_major
from argn.nn import Param, adam_step
from argn.util import class_ranks


def row_major_fit(x, y, k, l2=1e-4, lr=0.05, iters=400):
    """The reference: softmax regression by full-batch Adam from zero with
    (rows, classes) logits, in float64, one problem at a time."""
    n, f = x.shape
    mu, sd = x.mean(axis=0), x.std(axis=0)
    sd[sd < 1e-12] = 1.0
    xs = (x - mu) / sd
    wb = Param("reference", np.zeros(k * f + k))
    w, b = wb.value[: k * f].reshape(k, f), wb.value[k * f :]
    gw, gb = wb.grad[: k * f].reshape(k, f), wb.grad[k * f :]
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0
    for t in range(1, iters + 1):
        logits = xs @ w.T + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / n
        gw[...] = g.T @ xs + l2 * w
        gb[...] = g.sum(axis=0)
        adam_step(wb, lr, t)
    return w, b, mu, sd


def row_major_terms(x, y, w, b, mu, sd):
    """The objective (mean cross-entropy plus (l2 / 2)·|w|²) and the largest
    absolute gradient entry of weights ``w`` (k, f) and biases ``b`` (k,) on
    rows ``x`` standardized by ``mu`` and ``sd``, in float64, row-major."""
    n = len(y)
    xs = (x - mu) / sd
    logits = xs @ w.T + b
    top = logits.max(axis=1, keepdims=True)
    lse = top[:, 0] + np.log(np.exp(logits - top).sum(axis=1))
    objective = np.mean(lse - logits[np.arange(n), y]) + LOGISTIC_L2 / 2 * np.sum(w * w)
    g = np.exp(logits - lse[:, None])
    g[np.arange(n), y] -= 1.0
    g /= n
    gradient = max(np.abs(g.T @ xs + LOGISTIC_L2 * w).max(initial=0.0), np.abs(g.sum(axis=0)).max())
    return objective, gradient


def classification_problem(rng, n, f, k):
    x = rng.normal(size=(n, f)) * rng.uniform(0.5, 20.0, size=f) + rng.normal(size=f)
    x[:, 2] = 3.25  # a constant feature
    logits = x[:, :2] @ rng.normal(size=(2, k)) + rng.normal(size=(n, k))
    return x, logits.argmax(axis=1)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_the_fit_meets_the_tolerance_below_the_adam_reference(k):
    rng = np.random.default_rng(10 + k)
    x, y = classification_problem(rng, 240, 7, k)
    w, b, mu, sd = row_major_fit(x, y, k)
    clf = LogisticModel().fit(x, y, n_classes=k)
    assert clf.w.shape == (k, 7)
    assert np.array_equal(clf.mu, mu) and np.array_equal(clf.sd, sd)
    assert np.all(clf.w[:, 2] == 0.0)  # a constant feature standardizes to 0 and is only penalized
    objective, gradient = row_major_terms(x, y, clf.w, clf.b, mu, sd)
    assert gradient <= LOGISTIC_TOL
    assert objective <= row_major_terms(x, y, w, b, mu, sd)[0] + 1e-12

    proba = clf.predict_proba(x)
    xs = (x - mu) / sd
    logits = xs @ clf.w.T + clf.b
    expected = np.exp(logits - logits.max(axis=1, keepdims=True))
    expected /= expected.sum(axis=1, keepdims=True)
    assert proba.shape == (240, k)
    np.testing.assert_allclose(proba, expected, rtol=0, atol=1e-12)


@st.composite
def small_problems(draw):
    """Rows, labels and class count: k 2-5, with fewer features than rows
    or at least as many; some features constant, some classes absent."""
    k, n = draw(st.integers(2, 5)), draw(st.integers(4, 30))
    f = draw(st.integers(n, n + 12)) if draw(st.booleans()) else draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, f)) * rng.uniform(0.5, 20.0, size=f) + rng.normal(size=f)
    x[:, rng.random(f) < 0.1] = 3.25
    signal = draw(st.sampled_from([0.0, 1.0, 10.0]))
    y = (signal * x[:, :1] @ rng.normal(size=(1, k)) + rng.normal(size=(n, k))).argmax(axis=1)
    return x, y, k


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(small_problems())
def test_the_fit_meets_the_tolerance_and_beats_400_adam_steps(problem):
    x, y, k = problem
    clf = LogisticModel().fit(x, y, n_classes=k)
    objective, gradient = row_major_terms(x, y, clf.w, clf.b, clf.mu, clf.sd)
    assert gradient <= LOGISTIC_TOL
    w, b, mu, sd = row_major_fit(x, y, k)
    assert objective <= row_major_terms(x, y, w, b, mu, sd)[0] + 1e-12


@pytest.mark.parametrize("k, f, n", [(2, 6, 40), (3, 6, 40), (2, 30, 12), (4, 30, 12)])
def test_features_zero_on_every_weighted_row_are_dropped_exactly(k, f, n):
    """A stack of two problems with some rows weighted 0. Inserting features
    that are zero everywhere, or nonzero only on rows of weight 0, leaves the
    other weights and the biases unchanged bit for bit and the probabilities
    unchanged to rounding, and leaves exact zeros in their slots."""
    rng = np.random.default_rng(k * f + n)
    xt = rng.normal(size=(2, f, n))
    y = one_hot(rng.integers(0, k, size=n), k)[None]
    weight = np.where(rng.random((2, n)) < 0.25, 0.0, 1.0 / n)
    weight[:, :2] = 0.0  # rows 0 and 1 weigh 0 in both problems
    extra = np.zeros((2, 5, n))
    extra[:, 2:, :2] = rng.normal(size=(2, 3, 2))  # nonzero only where both problems weigh 0
    slots = np.sort(rng.choice(f + 5, size=5, replace=False))
    kept = np.setdiff1d(np.arange(f + 5), slots)
    wide = np.empty((2, f + 5, n))
    wide[:, kept], wide[:, slots] = xt, extra
    w, b = fit_logistic_stack(xt, y, weight)
    w_wide, b_wide = fit_logistic_stack(wide, y, weight)
    assert np.array_equal(w_wide[..., kept], w) and np.array_equal(b_wide, b)
    assert np.all(w_wide[..., slots] == 0.0)
    # the same probabilities, up to the order in which the product sums the inserted zero terms
    np.testing.assert_allclose(softmax_class_major(w_wide, b_wide, wide), softmax_class_major(w, b, xt),
                               rtol=1e-14, atol=0)


def test_a_feature_nonzero_on_a_weighted_row_of_one_problem_is_fitted():
    rng = np.random.default_rng(3)
    xt = rng.normal(size=(2, 3, 20))
    weight = np.full((2, 20), 1 / 20)
    weight[0, :5] = 0.0
    xt[:, 2] = 0.0
    xt[1, 2, 0] = 1.0  # weighted in problem 1 only
    w, _ = fit_logistic_stack(xt, one_hot(np.arange(20) % 2, 2)[None], weight)
    assert np.all(w[1, :, 2] != 0.0) and np.all(w[0, :, 2] == 0.0)


@pytest.mark.parametrize("x, y, k", [
    (np.arange(12.0).reshape(6, 2), [0] * 6, 2),  # class 1 absent
    (np.arange(12.0).reshape(6, 2), [0, 1, 0, 1, 0, 1], 3),  # class 2 absent
    (np.arange(12.0).reshape(6, 2), [0, 0, 0, 1, 1, 1], 2),  # perfectly separable
    (np.arange(12.0).reshape(6, 2), [0, 0, 1, 1, 2, 2], 3),
    (np.random.default_rng(0).normal(size=(6, 20)), [0, 1, 2, 3, 1, 0], 4),  # separable, f > n
    (np.ones((6, 3)), [0, 1, 0, 1, 1, 1], 2),  # every feature constant
    (np.ones((6, 3)), [0, 1, 2, 1, 1, 1], 3),
    (np.zeros((6, 0)), [0, 1, 1, 0, 1, 1], 2),  # no features at all
    (np.zeros((6, 0)), [0, 1, 1, 0, 1, 2], 3),
])
def test_degenerate_designs_end_within_the_cap_with_finite_fits(x, y, k):
    clf = LogisticModel().fit(x, y, n_classes=k)
    assert np.isfinite(clf.w).all() and np.isfinite(clf.b).all()
    proba = clf.predict_proba(x)
    assert np.isfinite(proba).all() and np.allclose(proba.sum(axis=1), 1.0)
    assert row_major_terms(x, np.asarray(y), clf.w, clf.b, clf.mu, clf.sd)[1] <= LOGISTIC_TOL


def test_classes_default_to_the_largest_label_and_at_least_two():
    x = np.arange(12.0).reshape(6, 2)
    assert LogisticModel().fit(x, [0, 0, 0, 0, 0, 0]).n_classes == 2
    assert LogisticModel().fit(x, [0, 1, 3, 0, 1, 3]).n_classes == 4


@pytest.mark.parametrize("labels, n_classes", [
    ([0, 1, -1, 0], None),
    ([0, 1, -1, 0], 2),
    ([0, 1, 2, 0], 2),
    ([0, 5, 1, 0], 3),
])
def test_labels_outside_the_classes_are_rejected(labels, n_classes):
    x = np.arange(8.0).reshape(4, 2)
    with pytest.raises(ValueError, match="labels"):
        LogisticModel().fit(x, labels, n_classes=n_classes)


def per_fold_scores(features, labels, seed, n_folds=4):
    """The reference: one separate LogisticModel per fold, on its training
    trials only, scoring its held-out trials."""
    n = len(labels)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_FOLD_DOMAIN,)))
    fold_of = np.zeros(n, dtype=np.int64)
    for cls in (False, True):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        fold_of[idx] = np.arange(len(idx)) % n_folds
    scores = np.zeros(n)
    for f in range(n_folds):
        fold = np.flatnonzero(fold_of == f)
        train_idx = np.flatnonzero(fold_of != f)
        if fold.size == 0:
            continue
        if len(np.unique(labels[train_idx])) < 2:
            scores[fold] = 0.5
            continue
        clf = LogisticModel().fit(features[train_idx], labels[train_idx].astype(np.int64), 2)
        scores[fold] = clf.predict_proba(features[fold])[:, 1]
    return scores


@pytest.mark.parametrize("seed", range(4))
def test_lockstep_cross_fit_matches_separate_fold_fits(seed):
    rng = np.random.default_rng(seed)
    labels = np.arange(22) % 2 == 0
    features = rng.normal(size=(22, 9)) + 0.8 * labels[:, None] * rng.normal(size=9)
    features[:, 4] = -1.5  # constant everywhere
    features[labels, 5] = 2.0  # constant on one class only
    scores = _cross_fit_scores(features, labels, seed)
    np.testing.assert_allclose(scores, per_fold_scores(features, labels, seed), rtol=0, atol=1e-12)
    assert np.all((scores > 0) & (scores < 1))


def test_lockstep_cross_fit_scores_a_one_class_fold_one_half():
    rng = np.random.default_rng(5)
    labels = np.zeros(13, dtype=bool)
    labels[7] = True  # the one member's fold trains on non-members only
    features = rng.normal(size=(13, 4))
    scores = _cross_fit_scores(features, labels, 3)
    expected = per_fold_scores(features, labels, 3)
    np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12)
    assert np.sum(expected == 0.5) >= 2 and scores[7] == 0.5
    assert np.sum(scores != 0.5) >= 2  # the other folds were fitted


def test_cross_fit_with_every_fold_one_class_scores_one_half():
    labels = np.array([True, False])
    assert np.array_equal(_cross_fit_scores(np.eye(2), labels, 0), [0.5, 0.5])


@contextlib.contextmanager
def argn_threads(count):
    saved = os.environ.get("ARGN_THREADS")
    os.environ["ARGN_THREADS"] = str(count)
    try:
        yield
    finally:
        if saved is None:
            del os.environ["ARGN_THREADS"]
        else:
            os.environ["ARGN_THREADS"] = saved


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(8, 40), st.integers(1, 50), st.integers(0, 2**32 - 1))
def test_lockstep_folds_equal_separate_fits_at_any_thread_count(trials, features, seed):
    rng = np.random.default_rng(seed)
    labels = rng.permutation(trials) % 2 == 0
    x = rng.normal(size=(trials, features)) + 0.8 * labels[:, None] * rng.normal(size=features)
    with argn_threads(1):
        scores = _cross_fit_scores(x, labels, seed)
    with argn_threads(2):
        assert _cross_fit_scores(x, labels, seed).tobytes() == scores.tobytes()
    np.testing.assert_allclose(scores, per_fold_scores(x, labels, seed), rtol=0, atol=1e-9)


def test_folds_without_signal_score_exactly_one_half_in_any_feature_order():
    """Criterion 9's query counts, where in every fold the held-out members'
    count rows are the held-out non-members' rows reordered: each fold's
    training gradient at zero is 0 in exact arithmetic, so each fold keeps
    weights 0 whatever the summation order, and scores every trial 0.5."""
    labels = np.arange(64) % 2 == 1
    rng = np.random.default_rng(np.random.SeedSequence(entropy=9, spawn_key=(_FOLD_DOMAIN,)))
    fold_of = class_ranks(labels, rng) % N_FOLDS
    counts = np.random.default_rng(1).integers(0, 8, size=(64, 12)).astype(np.float64)
    for fold in range(N_FOLDS):
        members = np.flatnonzero((fold_of == fold) & labels)
        counts[np.flatnonzero((fold_of == fold) & ~labels)] = counts[members[::-1]]
    for order in (np.arange(12), np.arange(12)[::-1], np.random.default_rng(2).permutation(12)):
        scores = _cross_fit_scores(counts[:, order], labels, 9)
        assert np.all(scores == 0.5)
