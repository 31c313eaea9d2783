"""Fidelity metrics and the DCR overfitting analysis.

Columns are compared on their empirical distributions: JSD (base 2) for
categoricals, 1-Wasserstein on min-max scaled values for numerics, and the
Frobenius norm of mixed association-matrix differences. Detection and
ML-efficiency use the built-in logistic/ridge models. DCR is an exact
nearest-record scan in tiles of query rows x train rows under a mixed
per-column distance (an l1 sum over columns); the CDF-difference
integral up to the holdout curve's 0.98 quantile flags generative
overfitting (positive = risk). An exact-match pre-pass first scans each
query row against its own categorical group alone, the train rows with
equal codes in every categorical column. That is exact: a distance is
never smaller than its number of categorical mismatches (each adds
exactly 1.0 to a float sum of non-negative terms, which never
decreases), so a group minimum <= 1 is the global minimum, bit for bit.
Only groups of at most n_train // 16 rows enter it, so when nothing
resolves it adds at most 1/16 of the full scan's pairs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .linear import LogisticModel, MixedFeatureMap, finite_span, fit_ridge, ridge_predict
from .tables import RawTable, concat, factorize
from .util import SCAN_BLOCK, class_ranks, mann_whitney_auc, scan_rows

SCAN_BYTES = 1 << 20  # per DCR or Achilles tile buffer; a DCR worker's three fit one L2: 512 x 256 to 1 x 131,072
PREPASS_SHARE = 16  # DCR's pre-pass takes a group of at most n_train // 16 train rows: at most 1/16 extra pairs
MOMENT_BYTES = 8 << 20  # per row-block buffer of the association's pairwise moments; sets their rounding


def jsd(real_column, syn_column) -> float:
    """Jensen-Shannon divergence (base 2) between empirical category
    distributions over the union of categories, missing one of its own;
    0 = identical, 1 = disjoint."""
    real, syn = list(real_column), list(syn_column)
    if not real or not syn:
        raise ValueError("jsd needs non-empty columns")
    vocab, codes = factorize(real + syn)
    k = len(vocab)
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
    lo = float(min(a.min(), b.min()))
    hi = float(max(a.max(), b.max()))
    if hi <= lo:
        return 0.0
    lo, span, a, b = finite_span(lo, hi, a, b)
    a = np.sort((a - lo) / span)
    b = np.sort((b - lo) / span)
    grid = np.union1d(a, b)
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    widths = np.diff(grid)
    return float(np.sum(np.abs(cdf_a - cdf_b)[:-1] * widths))


# ---------------------------------------------------------------------------
# association matrix
# ---------------------------------------------------------------------------


def _pairwise_correlation(centred: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Pearson correlation of each numeric pair over the rows where both are
    present: counts and means from GEMMs of the masked centred values, then a
    corrected pass around each pair's means in MOMENT_BYTES row blocks (a column
    constant where its partner is present gets std 0, not rounding noise)."""
    n, p = centred.shape
    mask = present.astype(np.float64)
    pairs = mask.T @ mask
    means = np.divide(centred.T @ mask, pairs, out=np.zeros((p, p)), where=pairs > 0)  # [j, l]: mean of j
    dev_sum, sq_sum, co_sum = np.zeros((3, p, p))
    rows = max(1, MOMENT_BYTES // (8 * max(p * p, 1)))
    for s in range(0, n, rows):
        both = mask[s : s + rows, :, None] * mask[s : s + rows, None, :]
        dev = (centred[s : s + rows, :, None] - means) * both
        dev_sum += dev.sum(axis=0)
        sq_sum += (dev * dev).sum(axis=0)
        co_sum += (dev * dev.transpose(0, 2, 1)).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        std = np.sqrt(np.maximum(sq_sum - dev_sum**2 / pairs, 0.0) / pairs)
        cov = (co_sum - dev_sum * dev_sum.T / pairs) / pairs
        ok = (pairs >= 2) & (std >= 1e-12) & (std.T >= 1e-12)
        return np.where(ok, cov / (std * std.T), 0.0)


def mixed_association_matrix(table: RawTable) -> np.ndarray:
    """Pairwise association over the table's categorical/numeric/datetime
    columns: Pearson (num-num), correlation ratio (cat-num), Cramer's V
    (cat-cat). Missing is a category of its own; numeric pairs use the rows
    where both are present. Constant columns contribute zero associations.
    Per categorical column, bincounts give its contingency tables with all
    later ones and its group sums and counts of every centred numeric."""
    cols = [c for c in table.schema.columns if c.kind in ("categorical", "numeric", "datetime")]
    cat = [i for i, c in enumerate(cols) if c.kind == "categorical"]
    num = [i for i, c in enumerate(cols) if c.kind != "categorical"]
    n, kc, p = table.row_count, len(cat), len(num)
    codes = np.zeros((n, kc), dtype=np.int64)
    for j, i in enumerate(cat):
        codes[:, j] = table.categories(cols[i].name)[1]
    sizes = codes.max(axis=0) + 1 if n else np.zeros(kc, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    offset = codes + starts[:-1]

    # numeric columns centred on their finite mean, missing cells zeroed
    centred, present = np.zeros((n, p)), np.zeros((n, p), dtype=bool)
    ss_total = np.zeros(p)
    for j, i in enumerate(num):
        x = table.values(cols[i].name, cols[i].kind)
        present[:, j] = ok = np.isfinite(x)
        if ok.any():
            centred[ok, j] = dev = x[ok] - x[ok].mean()
            ss_total[j] = np.sum(dev**2)

    counts = np.bincount(offset.ravel(), minlength=int(starts[-1]))
    chi2, between = np.zeros((kc, kc)), np.zeros((kc, p))
    for j in range(kc):
        k, later, width = int(sizes[j]), int(starts[j + 1]), int(starts[-1] - starts[j + 1])
        if width:
            table_j = np.bincount((codes[:, j, None] * width + offset[:, j + 1 :] - later).ravel(),
                                  minlength=k * width).reshape(k, width)
            expected = np.outer(counts[starts[j] : later], counts[later:]) / n
            cells = ((table_j - expected) ** 2 / expected).sum(axis=0)
            chi2[j, j + 1 :] = np.add.reduceat(cells, starts[j + 1 : -1] - later)
        groups = (codes[:, j, None] * p + np.arange(p)).ravel()
        sums = np.bincount(groups, weights=centred.ravel(), minlength=k * p).reshape(k, p)
        group_n = np.bincount(groups, weights=present.ravel(), minlength=k * p).reshape(k, p)
        between[j] = np.sum(np.divide(sums**2, group_n, out=np.zeros((k, p)), where=group_n > 0), axis=0)

    mat = np.zeros((len(cols), len(cols)))
    with np.errstate(divide="ignore", invalid="ignore"):
        dof = n * (np.minimum.outer(sizes, sizes) - 1)
        mat[np.ix_(cat, cat)] = np.where(dof > 0, np.sqrt((chi2 + chi2.T) / dof), 0.0)
        eta = np.where((present.sum(axis=0) >= 2) & (ss_total >= 1e-12), np.sqrt(between / ss_total), 0.0)
    mat[np.ix_(cat, num)], mat[np.ix_(num, cat)] = eta, eta.T
    mat[np.ix_(num, num)] = _pairwise_correlation(centred, present)
    np.fill_diagonal(mat, 1.0)
    return np.clip(mat, -1.0, 1.0)


def association_l2(real: RawTable, syn: RawTable) -> float:
    """Frobenius norm of the difference between the two association matrices."""
    if real.schema.names != syn.schema.names:
        raise ValueError("tables must share a schema")
    return float(np.linalg.norm(mixed_association_matrix(real) - mixed_association_matrix(syn)))


# ---------------------------------------------------------------------------
# detection and ML efficiency
# ---------------------------------------------------------------------------


def detection_score(real: RawTable, syn: RawTable, seed: int = 0) -> float:
    """Held-out AUC of the built-in logistic classifier separating real (0)
    from synthetic (1) rows; 0.5 means indistinguishable."""
    if real.row_count < 100 or syn.row_count < 100:
        raise ValueError("detection_score needs at least 100 rows per table")
    stacked = concat([real, syn])
    fmap = MixedFeatureMap(stacked)
    x = fmap.transform(stacked)
    y = np.array([0] * real.row_count + [1] * syn.row_count)
    # stratified: the first round(0.8 * class size) rows of each class's permutation train
    train = class_ranks(y, np.random.default_rng(seed)) < np.round(0.8 * np.bincount(y)[y])
    train_idx, test_idx = np.flatnonzero(train), np.flatnonzero(~train)
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
        tables = (syn_train, real_train, real_test)
        vocab, codes = factorize([v for t in tables for v in t.column_values(target_column)])
        y_syn, y_real, y_test = np.split(codes, np.cumsum([t.row_count for t in tables])[:-1])

        out = {}
        for tag, train_tbl, y_train in (("synthetic", syn_train, y_syn), ("baseline", real_train, y_real)):
            fmap = MixedFeatureMap(train_tbl, feature_cols)
            clf = LogisticModel().fit(fmap.transform(train_tbl), y_train, n_classes=len(vocab))
            proba = clf.predict_proba(fmap.transform(real_test))
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
    """Per column (kind, train side, other side, span, missing train rows,
    missing other rows): category codes in the smallest unsigned dtype that
    holds MISSING, or values with non-finite cells 0."""
    blocks = []
    for name, kind in fmap.kinds.items():
        if kind == "categorical":
            code = np.min_scalar_type(len(fmap.vocabs[name]) + 1)  # MISSING is the largest code
            blocks.append(("cat", fmap.codes(train, name).astype(code), fmap.codes(other, name).astype(code),
                           1.0, None, None))
            continue
        _, span, a, b = finite_span(*fmap.ranges[name], train.values(name, kind), other.values(name, kind))
        ok_a, ok_b = np.isfinite(a), np.isfinite(b)
        blocks.append(("num", np.where(ok_a, a, 0.0), np.where(ok_b, b, 0.0),
                       span if span > 0 else 1.0, np.flatnonzero(~ok_a), ~ok_b))
    return blocks


def _dcr_take(blocks, train_rows, other_rows):
    """``blocks`` over the train rows ``train_rows`` and the other rows
    ``other_rows``, in those orders (a slice takes views)."""
    taken = []
    for kind, a, b, span, miss_a, miss_b in blocks:
        if kind == "num":
            missing = np.zeros(len(a), dtype=bool)
            missing[miss_a] = True
            miss_a, miss_b = np.flatnonzero(missing[train_rows]), miss_b[other_rows]
        taken.append((kind, a[train_rows], b[other_rows], span, miss_a, miss_b))
    return taken


def _dcr_prepass(blocks, n_train: int):
    """The exact-match pre-pass plan. One int64 mixed-radix key per row over
    its category codes (OTHER and MISSING are codes like any other) is
    re-densified before it could overflow. Sorting the train rows by key
    (``order``) puts each group, the train rows with one key, in a range
    [lo, hi). Returns ``order``; the other rows whose group is non-empty and
    holds at most n_train // PREPASS_SHARE rows, in runs of one key; and per
    run its lo, hi and length. None when no other row qualifies or when no
    column is categorical."""
    cats = [(a, b) for kind, a, b, *_ in blocks if kind == "cat"]
    if not cats or not len(cats[0][1]):
        return None
    keys, radix = np.zeros(n_train + len(cats[0][1]), dtype=np.int64), 1
    for a, b in cats:
        base = int(max(a.max(), b.max())) + 1
        if radix * base > 2**63:  # re-densify: each key becomes the sorted position of its first copy
            keys, radix = np.searchsorted(np.sort(keys, kind="stable"), keys), len(keys)
        keys *= base
        keys[:n_train] += a
        keys[n_train:] += b
        radix *= base
    order = np.argsort(keys[:n_train], kind="stable")
    other = np.argsort(keys[n_train:], kind="stable")
    other_keys = keys[n_train:][other]
    starts = np.flatnonzero(np.concatenate([[True], other_keys[1:] != other_keys[:-1]]))
    lengths = np.diff(starts, append=len(other))
    lo, hi = (np.searchsorted(keys[:n_train][order], other_keys[starts], side=side) for side in ("left", "right"))
    keep = (lo < hi) & (hi - lo <= n_train // PREPASS_SHARE)
    if not keep.any():
        return None
    return order, other[np.repeat(keep, lengths)], lo[keep], hi[keep], lengths[keep]


def _dcr_chunk(blocks, rows: slice, train: slice,
               buffers: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Minimum over the train rows in ``train`` of the summed column
    distances, for the ``other`` rows in ``rows``: one tile of train rows at
    a time, as many as the three flat work ``buffers`` hold at this row
    count, each viewed as one contiguous (rows, tile width) array. The
    running minimum over tiles is exact, and each distance sums its columns
    in schema order. A numeric column with no missing cell among these rows
    on either side skips the missing-cell fix-ups."""
    n_rows = rows.stop - rows.start
    width = min(train.stop - train.start, buffers[0].size // n_rows)
    fixes = []
    for kind, _, _, _, miss_a, miss_b in blocks:
        if kind == "num":
            miss_rows = np.flatnonzero(miss_b[rows])
            miss_cols = miss_a[np.searchsorted(miss_a, train.start) : np.searchsorted(miss_a, train.stop)]
            fixes.append((miss_rows, miss_cols) if miss_rows.size or miss_cols.size else None)
        else:
            fixes.append(None)
    best = None
    for c0 in range(train.start, train.stop, width):
        c1 = min(c0 + width, train.stop)
        acc, work, unequal = (buf[: n_rows * (c1 - c0)].reshape(n_rows, c1 - c0) for buf in buffers)
        acc.fill(0.0)
        for (kind, a, b, span, _, _), fix in zip(blocks, fixes):
            if kind == "cat":
                acc += np.not_equal(b[rows, None], a[None, c0:c1], out=unequal)
                continue
            np.subtract(b[rows, None], a[None, c0:c1], out=work)
            np.abs(work, out=work)
            np.divide(work, span, out=work)
            if fix is not None:
                miss_rows, miss_cols = fix
                miss_cols = miss_cols[np.searchsorted(miss_cols, c0) : np.searchsorted(miss_cols, c1)] - c0
                work[miss_rows] = 1.0
                work[:, miss_cols] = 1.0
                work[np.ix_(miss_rows, miss_cols)] = 0.0
            acc += work
        tile = acc.min(axis=1)
        best = tile if best is None else np.minimum(best, tile, out=best)
    return best


def dcr(train: RawTable, other: RawTable) -> np.ndarray:
    """For each row of ``other``, the exact minimum mixed distance to any
    ``train`` row: the sum over columns of a 0/1 mismatch for categoricals
    and |a-b| scaled by the train range for numerics (a missing side costs
    1, both missing 0). An O(n*m) scan across worker threads, in tiles of up
    to SCAN_BLOCK other rows by SCAN_BYTES / 8 train rows whose buffers stay
    within SCAN_BYTES each, whatever the table sizes; a worker that finds no
    free set of buffers allocates one, so there is at most one set per
    worker.

    Pass 1, the exact-match pre-pass (module docstring), scans each other
    row against its categorical group alone, in tiles that end at key
    boundaries; pass 2 scans the rows it leaves above 1, or that have no
    group of at most n_train // PREPASS_SHARE rows, against every train
    row."""
    if train.schema.names != other.schema.names:
        raise ValueError("tables must share a schema")
    if train.row_count == 0:
        raise ValueError("dcr needs a non-empty train table: it has no rows to measure distances to")
    n_train, n_other = train.row_count, other.row_count
    blocks = _dcr_columns(MixedFeatureMap(train), train, other)
    cols = min(n_train, SCAN_BYTES // 8)
    rows = max(1, min(SCAN_BLOCK, SCAN_BYTES // (8 * cols), n_other))
    free: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # buffer sets no worker is using

    def scan(columns, n_rows: int, block: int, train_range, breaks=()) -> np.ndarray:
        def chunk(sl: slice) -> np.ndarray:
            try:
                mine = free.pop()
            except IndexError:
                mine = (np.empty(rows * cols), np.empty(rows * cols), np.empty(rows * cols, dtype=bool))
            try:
                return _dcr_chunk(columns, sl, train_range(sl), mine)
            finally:
                free.append(mine)

        return scan_rows(n_rows, chunk, block, breaks)

    everything = slice(0, n_train)
    prepass = _dcr_prepass(blocks, n_train)
    if prepass is None:
        return scan(blocks, n_other, rows, lambda sl: everything)
    order, pre, lo, hi, lengths = prepass
    ends = np.cumsum(lengths)

    def group(sl: slice) -> slice:
        run = np.searchsorted(ends, sl.start, side="right")
        return slice(int(lo[run]), int(hi[run]))

    near = scan(_dcr_take(blocks, order, pre), pre.size,
                max(1, min(SCAN_BLOCK, rows * cols // int((hi - lo).max()))), group, ends[:-1].tolist())
    out = np.empty(n_other)
    resolved = pre[near <= 1.0]
    out[resolved] = near[near <= 1.0]
    rest = np.ones(n_other, dtype=bool)
    rest[resolved] = False
    rest = np.flatnonzero(rest)
    if rest.size:
        out[rest] = scan(_dcr_take(blocks, slice(None), rest), rest.size, rows, lambda sl: everything)
    return out


def _empirical_cdf(sample: np.ndarray, grid: np.ndarray) -> np.ndarray:
    s = np.sort(np.asarray(sample, dtype=np.float64))
    return np.searchsorted(s, grid, side="right") / s.size


def dcr_cdf_curves(dcr_syn, dcr_test):
    """Merged grid plus both empirical CDFs: the CLI's plot data and the
    input of ``dcr_curves_integral``."""
    syn = np.asarray(dcr_syn, dtype=np.float64)
    test = np.asarray(dcr_test, dtype=np.float64)
    if syn.size == 0 or test.size == 0:
        raise ValueError("DCR CDFs need non-empty samples")
    grid = np.unique(np.concatenate([[0.0], syn, test]))
    return grid, _empirical_cdf(syn, grid), _empirical_cdf(test, grid)


def dcr_curves_integral(grid: np.ndarray, cdf_syn: np.ndarray, cdf_test: np.ndarray) -> float:
    """Trapezoidal integral of cdf_syn - cdf_test over ``dcr_cdf_curves``'
    grid, from 0 up to the point where cdf_test reaches 0.98."""
    reach = np.flatnonzero(cdf_test >= 0.98)
    q98 = grid[reach[0]] if reach.size else grid[-1]
    mask = grid <= q98
    if mask.sum() < 2:
        return 0.0
    return float(np.trapezoid(cdf_syn[mask] - cdf_test[mask], grid[mask]))


def dcr_cdf_integral(dcr_train_syn, dcr_train_test) -> float:
    """Integral of CDF_syn - CDF_test from 0 up to the point where the
    train/test CDF reaches 0.98. Positive values flag privacy risk."""
    return dcr_curves_integral(*dcr_cdf_curves(dcr_train_syn, dcr_train_test))


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
