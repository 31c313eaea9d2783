"""Fidelity metrics and the DCR overfitting analysis.

Columns are compared on their empirical distributions: JSD (base 2) for
categoricals, 1-Wasserstein on min-max scaled values for numerics, and the
Frobenius norm of mixed association-matrix differences. Detection and
ML-efficiency use the built-in logistic/ridge models. DCR is an exact
nearest-record search under a mixed per-column distance (an l1 sum over
columns); the CDF-difference integral up to the holdout curve's 0.98
quantile flags generative overfitting (positive = risk).

DCR rests on one bound: a distance is never smaller than its number of
categorical mismatches C, since each mismatch adds exactly 1.0 to a float
sum of non-negative terms, which never decreases. Both of its passes
compute every exact distance they need with the dense scan's arithmetic,
column by column in schema order, so each DCR equals the dense scan's bit
for bit. Pass 1, the exact-match pre-pass, measures each query row against
its categorical group alone, the train rows with equal codes in every
categorical column, gathered pair by pair in a few batched calls: every
other train row has C >= 1, so a group minimum <= 1 is the global minimum.
Only groups of at most n_train // 16 rows (and a quarter tile) enter it,
so when nothing resolves it adds at most 1/16 of the full scan's pairs. Pass 2 bounds and
verifies the rows left, one tile of query rows x train rows at a time: it
counts C in a uint8 tile (uint16 from 256 categorical columns), bounds each
row by its pass-1 minimum or else by the exact distance of the tile's
fewest-mismatch train row, and computes exact distances only for the pairs
with C below the bound. A tile where more than a quarter of the pairs stay
candidates is scanned densely instead (a gathered pair costs about two
dense ones), as is every tile of a table without a categorical column.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .linear import LogisticModel, MixedFeatureMap, finite_span, fit_ridge, ridge_predict
from .tables import RawTable, concat, factorize
from .util import SCAN_BLOCK, class_ranks, mann_whitney_auc, scan_rows

SCAN_BYTES = 1 << 20  # per DCR or Achilles tile buffer: 512 x 256 to 1 x 131,072 cells; DCR's three
# (two float64, one bool) take about 2.1 MiB, a little over one core's 2 MiB L2 on the 2-vCPU bench host
PREPASS_SHARE = 16  # DCR's pre-pass takes a group of at most n_train // 16 train rows: at most 1/16 extra pairs
MOMENT_BYTES = 8 << 20  # per row-block buffer of the association's pairwise moments; sets their rounding


def jsd(real_column, syn_column) -> float:
    """Jensen-Shannon divergence (base 2) between empirical category
    distributions over the union of categories, missing one of its own;
    0 = identical, 1 = disjoint."""
    return coded_jsd(factorize(list(real_column)), factorize(list(syn_column)))


def _union_codes(columns) -> tuple[np.ndarray, list[np.ndarray]]:
    """The union vocabulary of coded columns (``factorize`` or
    ``RawTable.categories`` pairs: missing first, then the sorted texts) and
    each column's codes into it."""
    vocab, union = factorize([v for column_vocab, _ in columns for v in column_vocab.tolist()])
    lookups = np.split(union, np.cumsum([len(column_vocab) for column_vocab, _ in columns])[:-1])
    return vocab, [lookup[codes] for lookup, (_, codes) in zip(lookups, columns)]


def coded_jsd(real: tuple[np.ndarray, np.ndarray], syn: tuple[np.ndarray, np.ndarray]) -> float:
    """``jsd`` of two coded columns, each a (vocabulary, codes) pair."""
    vocab, (a, b) = _union_codes([real, syn])
    if not a.size or not b.size:
        raise ValueError("jsd needs non-empty columns")
    k = len(vocab)
    p = np.bincount(a, minlength=k) / a.size
    q = np.bincount(b, minlength=k) / b.size
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
    """One-vs-rest AUC averaged over the classes that split the test rows
    (class 1's AUC for a binary target), 0.5 when one class holds them all."""
    split = [c for c in np.unique(y) if np.sum(y == c) < len(y)]
    if not split:
        return 0.5
    if proba.shape[1] == 2:
        return mann_whitney_auc(proba[:, 1], y == 1)
    return float(np.mean([mann_whitney_auc(proba[:, c], y == c) for c in split]))


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
            vocab, codes = tbl.categories(target_column)
            keep = np.array([v is not None for v in vocab.tolist()], dtype=bool)[codes]
        else:
            keep = ~np.isnan(tbl.values(target_column, spec.kind))
        if not keep.any():
            raise ValueError(f"ml_efficiency: no {side} row has a {target_column!r} value")
        return tbl.subset(np.flatnonzero(keep).tolist())

    real_train = with_target(real_train, "real train")
    syn_train = with_target(syn_train, "synthetic")
    real_test = with_target(real_test, "real test")

    if spec.kind == "categorical":
        vocab, (y_syn, y_real, y_test) = _union_codes([t.categories(target_column)
                                                      for t in (syn_train, real_train, real_test)])

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
    """Per column (kind, train side, other side, span, missing train cells,
    missing other cells): category codes in the smallest unsigned dtype that
    holds MISSING, or values with non-finite cells 0 and a boolean mask of
    those cells per side (None for a categorical, or for a side without
    one)."""
    blocks = []
    for name, kind in fmap.kinds.items():
        if kind == "categorical":
            code = np.min_scalar_type(len(fmap.vocabs[name]) + 1)  # MISSING is the largest code
            blocks.append(("cat", fmap.codes(train, name).astype(code), fmap.codes(other, name).astype(code),
                           1.0, None, None))
            continue
        _, span, a, b = finite_span(*fmap.ranges[name], train.values(name, kind), other.values(name, kind))
        ok_a, ok_b = np.isfinite(a), np.isfinite(b)
        blocks.append(("num", np.where(ok_a, a, 0.0), np.where(ok_b, b, 0.0), span if span > 0 else 1.0,
                       None if ok_a.all() else ~ok_a, None if ok_b.all() else ~ok_b))
    return blocks


def _dcr_rows(blocks, rows: np.ndarray):
    """``blocks`` with their other side taken at ``rows``, in that order."""
    return [(kind, a, b[rows], span, miss_a, None if miss_b is None else miss_b[rows])
            for kind, a, b, span, miss_a, miss_b in blocks]


def _dcr_prepass(blocks, n_train: int, limit: int):
    """The exact-match pre-pass plan. One int64 mixed-radix key per row over
    its category codes (OTHER and MISSING are codes like any other) is
    re-densified before it could overflow. Sorting the train rows by key
    (``order``) puts each group, the train rows with one key, in a range
    [lo, hi) of it. Returns ``order``, the other rows whose group is
    non-empty and holds at most ``limit`` rows, and their lo and hi; None
    when no other row qualifies."""
    cats = [(a, b) for kind, a, b, *_ in blocks if kind == "cat"]
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
    lo, hi = (np.searchsorted(keys[:n_train][order], keys[n_train:], side=side) for side in ("left", "right"))
    pre = np.flatnonzero((lo < hi) & (hi - lo <= limit))
    return (order, pre, lo[pre], hi[pre]) if pre.size else None


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
    fixes, none = [], np.zeros(0, dtype=np.intp)
    for *_, miss_a, miss_b in blocks:
        miss_rows = none if miss_b is None else np.flatnonzero(miss_b[rows])
        miss_cols = none if miss_a is None else np.flatnonzero(miss_a[train]) + train.start
        fixes.append((miss_rows, miss_cols) if miss_rows.size or miss_cols.size else None)
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


def _dcr_pairs(blocks, other_rows: np.ndarray, repeats, train_rows: np.ndarray, work: np.ndarray,
               unequal: np.ndarray) -> np.ndarray:
    """The distance of each pair of an other row, ``other_rows`` each
    repeated ``repeats`` times, and a train row, ``train_rows`` in step:
    the cells of both rows are gathered one column at a time, in schema
    order, and meet ``_dcr_chunk``'s arithmetic, so each distance equals its
    dense value bit for bit (a cell missing on both sides costs |0 - 0| /
    span = 0). Works in the first 2 x pairs entries of the flat float buffer
    ``work`` and the first pairs entries of the flat bool buffer
    ``unequal``, and returns a view of ``work``."""
    p = len(train_rows)
    acc, y, u = work[:p], work[p : 2 * p], unequal[:p]
    acc.fill(0.0)
    for kind, a, b, span, miss_a, miss_b in blocks:
        if kind == "cat":
            acc += np.not_equal(np.take(a, train_rows, out=y.view(a.dtype)[:p], mode="clip"),
                                b[other_rows].repeat(repeats), out=u)
            continue
        x = b[other_rows].repeat(repeats)
        np.subtract(x, np.take(a, train_rows, out=y, mode="clip"), out=x)
        np.abs(x, out=x)
        np.divide(x, span, out=x)
        one_missing = None if miss_b is None else miss_b[other_rows].repeat(repeats)
        if miss_a is not None:
            train_missing = np.take(miss_a, train_rows, out=u, mode="clip")
            one_missing = train_missing if one_missing is None else np.not_equal(one_missing, train_missing, out=u)
        if one_missing is not None:
            np.copyto(x, 1.0, where=one_missing)
        acc += x
    return acc


def dcr(train: RawTable, other: RawTable) -> np.ndarray:
    """For each row of ``other``, the exact minimum mixed distance to any
    ``train`` row: the sum over columns of a 0/1 mismatch for categoricals
    and |a-b| scaled by the train range for numerics (a missing side costs
    1, both missing 0). An O(n*m) scan in tiles of up to SCAN_BLOCK other
    rows by SCAN_BYTES / 8 train rows, through one set of three buffers
    that stay within SCAN_BYTES each, whatever the table sizes; a gathered
    call's index arrays hold at most a quarter tile of pairs.

    With a categorical column (module docstring): pass 1, the exact-match
    pre-pass, sends every pair of an other row and its categorical group
    through ``_dcr_pairs``, in calls of at most a quarter tile of pairs;
    pass 2 bounds and verifies the rows it leaves above 1, or that have no
    group of at most n_train // PREPASS_SHARE rows, against every train
    row. Without one, or with a single train row per tile, every row takes
    the dense scan of ``_dcr_chunk``."""
    if train.schema.names != other.schema.names:
        raise ValueError("tables must share a schema")
    if train.row_count == 0:
        raise ValueError("dcr needs a non-empty train table: it has no rows to measure distances to")
    n_train, n_other = train.row_count, other.row_count
    blocks = _dcr_columns(MixedFeatureMap(train), train, other)
    cols = min(n_train, SCAN_BYTES // 8)
    rows = max(1, min(SCAN_BLOCK, SCAN_BYTES // (8 * cols), n_other))
    quarter = rows * cols // 4  # pairs a gathered call may take; its two float arrays fit in one buffer
    buffers = acc, work, unequal = np.empty(rows * cols), np.empty(rows * cols), np.empty(rows * cols, dtype=bool)

    kc = sum(kind == "cat" for kind, *_ in blocks)
    if not kc or cols < 2 or not n_other:  # a seed call's pairs fill half a tile at most when cols >= 2
        return scan_rows(n_other, lambda sl: _dcr_chunk(blocks, sl, slice(0, n_train), buffers), rows)

    best = np.full(n_other, np.inf)
    prepass = _dcr_prepass(blocks, n_train, min(n_train // PREPASS_SHARE, quarter))
    if prepass is not None:
        order, pre, lo, hi = prepass

        def group_minima(sl: slice) -> np.ndarray:
            size = hi[sl] - lo[sl]
            first = np.cumsum(size) - size
            train_rows = order[np.repeat(lo[sl] - first, size) + np.arange(first[-1] + size[-1])]
            return np.minimum.reduceat(_dcr_pairs(blocks, pre[sl], size, train_rows, work, unequal), first)

        best[pre] = scan_rows(pre.size, group_minima, max(1, quarter // int((hi - lo).max())))

    rest = np.flatnonzero(best > 1.0)
    taken, seed = _dcr_rows(blocks, rest), best[rest]
    cats = [(a, b) for kind, a, b, *_ in taken if kind == "cat"]
    count_type = np.min_scalar_type(kc)

    def verify(sl: slice) -> np.ndarray:
        n_rows, bound = sl.stop - sl.start, seed[sl].copy()
        for c0 in range(0, n_train, cols):
            tile = slice(c0, min(c0 + cols, n_train))
            width = tile.stop - c0
            count = acc.view(count_type)[: n_rows * width].reshape(n_rows, width)
            mask = unequal[: count.size].reshape(count.shape)
            count.fill(0)
            for a, b in cats:
                count += np.not_equal(a[None, tile], b[sl, None], out=mask)
            fresh = np.flatnonzero(bound == np.inf)
            if fresh.size:  # seed from the pair with the fewest mismatches
                near = count.argmin(axis=1)[fresh] + c0
                bound[fresh] = _dcr_pairs(taken, fresh + sl.start, 1, near, work, unequal)
            # a pair whose mismatch count is at least the bound is never nearer
            np.less_equal(count, np.clip(np.ceil(bound) - 1, 0, kc).astype(count_type)[:, None], out=mask)
            pairs = np.count_nonzero(mask)
            if 4 * pairs > count.size:
                np.minimum(bound, _dcr_chunk(taken, sl, tile, buffers), out=bound)
            elif pairs:
                train_rows = np.flatnonzero(mask)
                per_row = np.diff(np.searchsorted(train_rows, np.arange(0, count.size + 1, width)))
                np.remainder(train_rows, width, out=train_rows)
                train_rows += c0
                hit = np.flatnonzero(per_row)
                distances = _dcr_pairs(taken, hit + sl.start, per_row[hit], train_rows, work, unequal)
                nearest = np.minimum.reduceat(distances, np.cumsum(per_row)[hit] - per_row[hit])
                bound[hit] = np.minimum(bound[hit], nearest)
        return bound

    if rest.size:
        best[rest] = scan_rows(rest.size, verify, rows)
    return best


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
            jsd_cols[spec.name] = coded_jsd(real.categories(spec.name), syn.categories(spec.name))
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
