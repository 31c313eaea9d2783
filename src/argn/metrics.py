"""Fidelity metrics and the DCR overfitting analysis.

Columns are compared on their empirical distributions: JSD (base 2) for
categoricals, 1-Wasserstein on min-max scaled values for numerics, and the
Frobenius norm of mixed association-matrix differences. Detection and
ML-efficiency use the built-in logistic/ridge models. DCR is an exact
nearest-record scan in row blocks under a mixed per-column distance (an l1
sum over columns); the CDF-difference
integral up to the holdout curve's 0.98 quantile flags generative
overfitting (positive = risk).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .linear import LogisticModel, MixedFeatureMap, fit_ridge, ridge_predict
from .tables import RawTable, concat
from .util import mann_whitney_auc, scan_rows

MISSING_LABEL = "__MISSING__"


def _category_codes(cells) -> np.ndarray:
    """Codes 0..k-1 in sorted category order; missing cells form their own
    category."""
    labels = np.array([MISSING_LABEL if v is None else str(v) for v in cells], dtype=object)
    return np.unique(labels, return_inverse=True)[1].reshape(-1)


def jsd(real_column, syn_column) -> float:
    """Jensen-Shannon divergence (base 2) between empirical category
    distributions over the union of categories; 0 = identical, 1 = disjoint."""
    real, syn = list(real_column), list(syn_column)
    if not real or not syn:
        raise ValueError("jsd needs non-empty columns")
    codes = _category_codes(real + syn)
    k = int(codes.max()) + 1
    p = np.bincount(codes[: len(real)], minlength=k) / len(real)
    q = np.bincount(codes[len(real) :], minlength=k) / len(syn)
    m = (p + q) / 2.0
    div = 0.0
    for dist in (p, q):
        nz = dist > 0
        div += 0.5 * float(np.sum(dist[nz] * np.log2(dist[nz] / m[nz])))
    return div


def wasserstein1(real_column, syn_column) -> float:
    """1-Wasserstein distance between empirical distributions after min-max
    scaling to [0,1] over the combined range (degenerate range -> 0).
    Non-finite values (missing cells) are dropped."""
    a = np.asarray(real_column, dtype=np.float64)
    b = np.asarray(syn_column, dtype=np.float64)
    a, b = a[np.isfinite(a)], b[np.isfinite(b)]
    if a.size == 0 or b.size == 0:
        raise ValueError("wasserstein1 needs non-empty numeric columns")
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if hi <= lo:
        return 0.0
    a = np.sort((a - lo) / (hi - lo))
    b = np.sort((b - lo) / (hi - lo))
    grid = np.union1d(a, b)
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    widths = np.diff(grid)
    return float(np.sum(np.abs(cdf_a - cdf_b)[:-1] * widths))


# ---------------------------------------------------------------------------
# association matrix
# ---------------------------------------------------------------------------


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    ok = np.isfinite(x) & np.isfinite(y)
    x, y = x[ok], y[ok]
    if x.size < 2:
        return 0.0
    sx, sy = x.std(), y.std()
    if sx < 1e-12 or sy < 1e-12:
        return 0.0
    return float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))


def _correlation_ratio(codes: np.ndarray, values: np.ndarray) -> float:
    """Correlation ratio of ``values`` grouped by the category ``codes``.
    Groups are summed in code order, so the result is reproducible."""
    ok = np.isfinite(values)
    if ok.sum() < 2:
        return 0.0
    values, codes = values[ok], codes[ok]
    total_mean = values.mean()
    ss_total = float(np.sum((values - total_mean) ** 2))
    if ss_total < 1e-12:
        return 0.0
    counts = np.bincount(codes)
    groups = np.split(values[np.argsort(codes, kind="stable")], np.cumsum(counts)[:-1])
    ss_between = 0.0
    for count, group in zip(counts, groups):
        if count:
            ss_between += count * (group.mean() - total_mean) ** 2
    return float(np.sqrt(ss_between / ss_total))


def _cramers_v(a: np.ndarray, b: np.ndarray) -> float:
    """Cramer's V of two columns of category codes 0..k-1."""
    k_a, k_b = (int(codes.max()) + 1 if codes.size else 0 for codes in (a, b))
    if k_a < 2 or k_b < 2:
        return 0.0
    table = np.bincount(a * k_b + b, minlength=k_a * k_b).reshape(k_a, k_b).astype(np.float64)
    n = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        chi2 = np.nansum(np.where(expected > 0, (table - expected) ** 2 / expected, 0.0))
    denom = n * (min(k_a, k_b) - 1)
    return float(np.sqrt(chi2 / denom)) if denom > 0 else 0.0


def mixed_association_matrix(table: RawTable) -> np.ndarray:
    """Pairwise association over the table's categorical/numeric/datetime
    columns: Pearson (num-num), correlation ratio (cat-num), Cramer's V
    (cat-cat). Constant columns contribute zero associations."""
    cols = [c for c in table.schema.columns if c.kind in ("categorical", "numeric", "datetime")]
    k = len(cols)
    numeric = {}
    cats = {}
    for c in cols:
        if c.kind == "categorical":
            cats[c.name] = _category_codes(table.column_values(c.name))
        else:
            numeric[c.name] = table.values(c.name, c.kind)
    mat = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            a, b = cols[i], cols[j]
            if a.name in numeric and b.name in numeric:
                val = _pearson(numeric[a.name], numeric[b.name]) if i != j else 1.0
            elif a.name in cats and b.name in cats:
                val = _cramers_v(cats[a.name], cats[b.name]) if i != j else 1.0
            elif a.name in cats:
                val = _correlation_ratio(cats[a.name], numeric[b.name])
            else:
                val = _correlation_ratio(cats[b.name], numeric[a.name])
            mat[i, j] = mat[j, i] = val
    return mat


def association_l2(real: RawTable, syn: RawTable) -> float:
    """Frobenius norm of the difference between the two association matrices."""
    if real.schema.names != syn.schema.names:
        raise ValueError("tables must share a schema")
    return float(np.linalg.norm(mixed_association_matrix(real) - mixed_association_matrix(syn)))


# ---------------------------------------------------------------------------
# detection and ML efficiency
# ---------------------------------------------------------------------------


def _stratified_split(labels: np.ndarray, train_frac: float, rng: np.random.Generator):
    train_idx, test_idx = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        cut = int(round(train_frac * len(idx)))
        train_idx.extend(idx[:cut])
        test_idx.extend(idx[cut:])
    return np.array(sorted(train_idx)), np.array(sorted(test_idx))


def detection_score(real: RawTable, syn: RawTable, seed: int = 0) -> float:
    """Held-out AUC of the built-in logistic classifier separating real (0)
    from synthetic (1) rows; 0.5 means indistinguishable."""
    if real.row_count < 100 or syn.row_count < 100:
        raise ValueError("detection_score needs at least 100 rows per table")
    stacked = concat([real, syn])
    fmap = MixedFeatureMap(stacked)
    x = fmap.transform(stacked)
    y = np.array([0] * real.row_count + [1] * syn.row_count)
    rng = np.random.default_rng(seed)
    train_idx, test_idx = _stratified_split(y, 0.8, rng)
    if len(np.unique(y[train_idx])) < 2 or len(np.unique(y[test_idx])) < 2:
        raise ValueError("degenerate real/synthetic split")
    clf = LogisticModel().fit(x[train_idx], y[train_idx], n_classes=2)
    scores = clf.predict_proba(x[test_idx])[:, 1]
    return mann_whitney_auc(scores, y[test_idx])


def macro_f1(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int) -> float:
    f1s = []
    for c in range(n_classes):
        tp = np.sum((y_pred == c) & (y_true == c))
        fp = np.sum((y_pred == c) & (y_true != c))
        fn = np.sum((y_pred != c) & (y_true == c))
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(f1s))


def _classification_auc(proba: np.ndarray, y: np.ndarray) -> float:
    classes_present = np.unique(y)
    if proba.shape[1] == 2:
        return mann_whitney_auc(proba[:, 1], y == 1)
    aucs = []
    for c in classes_present:
        if 0 < np.sum(y == c) < len(y):
            aucs.append(mann_whitney_auc(proba[:, c], y == c))
    return float(np.mean(aucs)) if aucs else 0.5


def ml_efficiency(real_train: RawTable, syn_train: RawTable, real_test: RawTable,
                  target_column: str) -> dict:
    """Train-on-synthetic / test-on-real scores, with the train-on-real
    baseline alongside. Categorical target -> classification (AUC, macro-F1);
    numeric target -> ridge regression (RMSE). Rows whose target is missing
    (or, for a numeric target, unparseable) are left out of fitting and
    scoring."""
    spec = real_train.schema.column(target_column)
    feature_cols = [n for n in real_train.schema.names if n != target_column]

    def with_target(tbl: RawTable, side: str) -> RawTable:
        if spec.kind == "categorical":
            keep = np.array([v is not None for v in tbl.column_values(target_column)], dtype=bool)
        else:
            keep = ~np.isnan(tbl.values(target_column, spec.kind))
        if not keep.any():
            raise ValueError(f"ml_efficiency: no {side} row has a {target_column!r} value")
        return tbl.subset(np.flatnonzero(keep).tolist())

    real_train = with_target(real_train, "real train")
    syn_train = with_target(syn_train, "synthetic")
    real_test = with_target(real_test, "real test")

    if spec.kind == "categorical":
        vocab = sorted({v for t in (real_train, syn_train, real_test)
                        for v in t.column_values(target_column)})
        index = {v: i for i, v in enumerate(vocab)}

        def labels(tbl: RawTable) -> np.ndarray:
            return np.array([index[v] for v in tbl.column_values(target_column)], dtype=np.int64)

        out = {}
        for tag, train_tbl in (("synthetic", syn_train), ("baseline", real_train)):
            fmap = MixedFeatureMap(train_tbl, feature_cols)
            clf = LogisticModel().fit(
                fmap.transform(train_tbl), labels(train_tbl), n_classes=len(vocab)
            )
            proba = clf.predict_proba(fmap.transform(real_test))
            y_test = labels(real_test)
            out[tag] = {
                "auc": _classification_auc(proba, y_test),
                "macro_f1": macro_f1(y_test, proba.argmax(axis=1), len(vocab)),
            }
        return {"task": "classification", **out["synthetic"],
                "baseline_auc": out["baseline"]["auc"],
                "baseline_macro_f1": out["baseline"]["macro_f1"]}

    out = {}
    for tag, train_tbl in (("synthetic", syn_train), ("baseline", real_train)):
        fmap = MixedFeatureMap(train_tbl, feature_cols)
        w, b = fit_ridge(fmap.transform(train_tbl), train_tbl.values(target_column, spec.kind))
        pred = ridge_predict(fmap.transform(real_test), w, b)
        out[tag] = float(np.sqrt(np.mean((pred - real_test.values(target_column, spec.kind)) ** 2)))
    return {"task": "regression", "rmse": out["synthetic"], "baseline_rmse": out["baseline"]}


# ---------------------------------------------------------------------------
# DCR
# ---------------------------------------------------------------------------


def _dcr_columns(fmap: MixedFeatureMap, train: RawTable, other: RawTable):
    """Per column (kind, train side, other side, span) for the DCR scan:
    category codes, or parsed values with the train range as span."""
    blocks = []
    for name, kind in fmap.kinds.items():
        if kind == "categorical":
            blocks.append(("cat", fmap.codes(train, name), fmap.codes(other, name), 1.0))
        else:
            lo, hi = fmap.ranges[name]
            span = hi - lo
            blocks.append(("num", train.values(name, kind), other.values(name, kind),
                           span if span > 0 else 1.0))
    return blocks


def _dcr_chunk(blocks, sl: slice, n_train: int) -> np.ndarray:
    acc = np.zeros((sl.stop - sl.start, n_train))
    for kind, a, b, span in blocks:
        bb = b[sl]
        if kind == "cat":
            d = (bb[:, None] != a[None, :]).astype(np.float64)
        else:
            miss_b = ~np.isfinite(bb)
            miss_a = ~np.isfinite(a)
            d = np.abs(np.nan_to_num(bb)[:, None] - np.nan_to_num(a)[None, :]) / span
            either = miss_b[:, None] | miss_a[None, :]
            both = miss_b[:, None] & miss_a[None, :]
            d = np.where(both, 0.0, np.where(either, 1.0, d))
        acc += d
    return acc.min(axis=1)


def dcr(train: RawTable, other: RawTable) -> np.ndarray:
    """For each row of ``other``, the exact minimum mixed distance to any
    ``train`` row: the sum over columns of a 0/1 mismatch for categoricals
    and |a-b| scaled by the train range for numerics (a missing side costs
    1, both missing 0). Full O(n*m) scan in row blocks across worker threads."""
    if train.schema.names != other.schema.names:
        raise ValueError("tables must share a schema")
    blocks = _dcr_columns(MixedFeatureMap(train), train, other)
    return scan_rows(other.row_count, lambda sl: _dcr_chunk(blocks, sl, train.row_count))


def _empirical_cdf(sample: np.ndarray, grid: np.ndarray) -> np.ndarray:
    s = np.sort(np.asarray(sample, dtype=np.float64))
    return np.searchsorted(s, grid, side="right") / s.size


def dcr_cdf_curves(dcr_syn, dcr_test):
    """Merged grid plus both empirical CDFs (plot data for the CLI)."""
    grid = np.unique(np.concatenate([[0.0], np.asarray(dcr_syn), np.asarray(dcr_test)]))
    return grid, _empirical_cdf(dcr_syn, grid), _empirical_cdf(dcr_test, grid)


def dcr_cdf_integral(dcr_train_syn, dcr_train_test) -> float:
    """Trapezoidal integral of CDF_syn - CDF_test from 0 up to the point where
    the train/test CDF reaches 0.98. Positive values flag privacy risk."""
    syn = np.asarray(dcr_train_syn, dtype=np.float64)
    test = np.asarray(dcr_train_test, dtype=np.float64)
    if syn.size == 0 or test.size == 0:
        raise ValueError("dcr_cdf_integral needs non-empty samples")
    grid, cdf_syn, cdf_test = dcr_cdf_curves(syn, test)
    reach = np.flatnonzero(cdf_test >= 0.98)
    q98 = grid[reach[0]] if reach.size else grid[-1]
    mask = grid <= q98
    if mask.sum() < 2:
        return 0.0
    return float(np.trapezoid(cdf_syn[mask] - cdf_test[mask], grid[mask]))


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def evaluate_tables(real: RawTable, syn: RawTable, holdout: Optional[RawTable] = None,
                    target: Optional[str] = None, seed: int = 0) -> dict:
    """The fidelity report: per-column JSD and Wasserstein with their means,
    the association-matrix distance, the detection AUC, and ML efficiency
    (with ``target``) and the DCR integral (with ``holdout``)."""
    jsd_cols, wd_cols = {}, {}
    for spec in real.schema.columns:
        if spec.kind == "categorical":
            jsd_cols[spec.name] = jsd(real.column_values(spec.name), syn.column_values(spec.name))
        elif spec.kind in ("numeric", "datetime"):
            wd_cols[spec.name] = wasserstein1(real.values(spec.name, spec.kind),
                                              syn.values(spec.name, spec.kind))
    ml = ml_efficiency(real, syn, holdout if holdout is not None else real, target) if target else None
    integral = None
    if holdout is not None:
        integral = dcr_cdf_integral(dcr(real, syn), dcr(real, holdout))
    return {
        "jsd": {"per_column": jsd_cols,
                "mean": float(np.mean(list(jsd_cols.values()))) if jsd_cols else None},
        "wasserstein": {"per_column": wd_cols,
                        "mean": float(np.mean(list(wd_cols.values()))) if wd_cols else None},
        "association_l2": association_l2(real, syn),
        "detection_auc": detection_score(real, syn, seed),
        "ml_efficiency": ml,
        "dcr_integral": integral,
    }
