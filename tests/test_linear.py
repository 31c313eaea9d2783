import numpy as np
import pytest

from argn.audit import _FOLD_DOMAIN, _cross_fit_scores
from argn.linear import LogisticModel
from argn.nn import Param, adam_step


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


def classification_problem(rng, n, f, k):
    x = rng.normal(size=(n, f)) * rng.uniform(0.5, 20.0, size=f) + rng.normal(size=f)
    x[:, 2] = 3.25  # a constant feature
    logits = x[:, :2] @ rng.normal(size=(2, k)) + rng.normal(size=(n, k))
    return x, logits.argmax(axis=1)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_class_major_fit_matches_the_row_major_reference(k):
    rng = np.random.default_rng(10 + k)
    x, y = classification_problem(rng, 240, 7, k)
    w, b, mu, sd = row_major_fit(x, y, k)
    clf = LogisticModel().fit(x, y, n_classes=k)
    assert clf.w.shape == (k, 7)
    np.testing.assert_allclose(clf.w, w, rtol=0, atol=1e-12)
    np.testing.assert_allclose(clf.b.ravel(), b, rtol=0, atol=1e-12)
    assert np.array_equal(clf.mu, mu) and np.array_equal(clf.sd, sd)
    assert np.all(clf.w[:, 2] == 0.0)  # a constant feature standardizes to 0 and only decays

    proba = clf.predict_proba(x)
    xs = (x - mu) / sd
    logits = xs @ w.T + b
    expected = np.exp(logits - logits.max(axis=1, keepdims=True))
    expected /= expected.sum(axis=1, keepdims=True)
    assert proba.shape == (240, k)
    np.testing.assert_allclose(proba, expected, rtol=0, atol=1e-12)


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
