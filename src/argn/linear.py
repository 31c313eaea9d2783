"""Built-in classifiers/regressors used by the metric suite and the audit
harness: multinomial logistic regression trained by full-batch Adam (zero
init, fixed iteration count, fully deterministic) and closed-form ridge
regression. Also MixedFeatureMap, the one per-column view of a mixed table
that the metrics and the audit read columns through.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .nn import Param, adam_step
from .tables import RawTable


class LogisticModel:
    """Softmax regression; binary problems are the 2-class special case."""

    def __init__(self, l2: float = 1e-4, lr: float = 0.05, iters: int = 400):
        self.l2 = l2
        self.lr = lr
        self.iters = iters
        self.w: Optional[np.ndarray] = None  # (classes, features)
        self.b: Optional[np.ndarray] = None
        self.mu: Optional[np.ndarray] = None
        self.sd: Optional[np.ndarray] = None
        self.n_classes = 0

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mu) / self.sd

    def fit(self, x: np.ndarray, y: np.ndarray, n_classes: Optional[int] = None) -> "LogisticModel":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n, f = x.shape
        k = int(n_classes if n_classes is not None else y.max() + 1)
        k = max(k, 2)
        self.n_classes = k
        self.mu = x.mean(axis=0)
        self.sd = x.std(axis=0)
        self.sd[self.sd < 1e-12] = 1.0
        xs = self._standardize(x)
        wb = Param("logistic", np.zeros(k * f + k))  # w (classes, features), then b
        w, b = wb.value[: k * f].reshape(k, f), wb.value[k * f :]
        gw, gb = wb.grad[: k * f].reshape(k, f), wb.grad[k * f :]
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y] = 1.0
        for t in range(1, self.iters + 1):
            logits = xs @ w.T + b
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            g = (p - onehot) / n
            gw[...] = g.T @ xs + self.l2 * w
            gb[...] = g.sum(axis=0)
            adam_step(wb, self.lr, t)
        self.w, self.b = w, b
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        xs = self._standardize(np.asarray(x, dtype=np.float64))
        logits = xs @ self.w.T + self.b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        return p / p.sum(axis=1, keepdims=True)


def fit_ridge(x: np.ndarray, y: np.ndarray, l2: float = 1e-6) -> tuple[np.ndarray, float]:
    """Closed-form ridge with an unpenalized intercept; returns (weights, bias)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, f = x.shape
    xa = np.hstack([x, np.ones((n, 1))])
    reg = l2 * np.eye(f + 1)
    reg[-1, -1] = 0.0
    beta = np.linalg.solve(xa.T @ xa + reg, xa.T @ y)
    return beta[:-1], float(beta[-1])


def ridge_predict(x: np.ndarray, w: np.ndarray, b: float) -> np.ndarray:
    return np.asarray(x, dtype=np.float64) @ w + b


class MixedFeatureMap:
    """The per-column view of a mixed table, fitted on a reference table.

    ``codes`` gives a categorical column's one-hot index: the sorted
    reference vocabulary, then OTHER for unseen values, then MISSING.
    ``ranges`` holds the finite (min, max) of each numeric or datetime
    column's ``RawTable.values`` on the reference (datetimes as epoch
    seconds).
    ``transform`` one-hots the categoricals and min-max scales the numerics
    (missing -> the midpoint 0.5). Latlong parents are skipped; their
    decoded sources are numeric columns already.
    """

    def __init__(self, reference: RawTable, columns: Optional[Sequence[str]] = None):
        schema = reference.schema
        use = list(columns) if columns is not None else schema.names
        self.kinds: dict[str, str] = {}
        self.vocabs: dict[str, list[str]] = {}
        self.ranges: dict[str, tuple[float, float]] = {}
        for name in use:
            kind = schema.column(name).kind
            if kind == "latlong":
                continue
            self.kinds[name] = kind
            if kind == "categorical":
                self.vocabs[name] = [v for v in reference.categories(name)[0].tolist() if v is not None]
            else:
                nums = reference.values(name, kind)
                finite = nums[np.isfinite(nums)]
                lo = float(finite.min()) if finite.size else 0.0
                hi = float(finite.max()) if finite.size else 1.0
                self.ranges[name] = (lo, hi)

    def codes(self, table: RawTable, name: str) -> np.ndarray:
        index = {v: i for i, v in enumerate(self.vocabs[name])}
        other = len(index)
        vocab, codes = table.categories(name)
        return np.array([other + 1 if v is None else index.get(v, other) for v in vocab.tolist()],
                        dtype=np.int64)[codes]

    def transform(self, table: RawTable) -> np.ndarray:
        n = table.row_count
        blocks = []
        for name, kind in self.kinds.items():
            if kind == "categorical":
                block = np.zeros((n, len(self.vocabs[name]) + 2))
                block[np.arange(n), self.codes(table, name)] = 1.0
            else:
                lo, hi = self.ranges[name]
                span = hi - lo
                nums = table.values(name, kind)
                scaled = (nums - lo) / span if span > 0 else np.zeros(n)
                block = np.where(np.isnan(nums), 0.5, scaled)[:, None]
            blocks.append(block)
        return np.hstack(blocks) if blocks else np.zeros((n, 0))
