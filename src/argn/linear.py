"""Built-in classifiers/regressors used by the metric suite and the audit
harness: multinomial logistic regression trained by full-batch Adam (zero
init, fixed iteration count, fully deterministic) and closed-form ridge
regression. Also the shared one-hot + min-max feature map for mixed tables.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .nn import Param, adam_step
from .tables import RawTable, parse_datetime, parse_number

OTHER_BUCKET = "__OTHER__"
MISSING_BUCKET = "__MISSING__"


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
    """One-hot categoricals + min-max scaled numerics, fitted on a reference
    table. Unseen categories hit a dedicated OTHER bucket, missing cells a
    MISSING bucket (categorical) or the scaled midpoint 0.5 (numeric).
    Datetime columns are treated numerically via epoch seconds; latlong
    sources are numeric columns already.
    """

    def __init__(self, reference: RawTable, columns: Optional[Sequence[str]] = None):
        schema = reference.schema
        use = list(columns) if columns is not None else schema.names
        self.columns: list[tuple[str, str]] = []  # (name, kind)
        self.vocabs: dict[str, list[str]] = {}
        self.ranges: dict[str, tuple[float, float]] = {}
        for name in use:
            spec = schema.column(name)
            if spec.kind == "categorical":
                vocab = sorted({v for v in reference.column_values(name) if v is not None})
                self.vocabs[name] = vocab
                self.columns.append((name, "categorical"))
            elif spec.kind in ("numeric", "datetime"):
                nums = self._numeric_values(reference.column_values(name), spec.kind)
                finite = nums[np.isfinite(nums)]
                lo = float(finite.min()) if finite.size else 0.0
                hi = float(finite.max()) if finite.size else 1.0
                self.ranges[name] = (lo, hi)
                self.columns.append((name, spec.kind))
            # latlong parents are skipped; their decoded sources are numeric
        self.width = sum(
            len(self.vocabs[n]) + 2 if k == "categorical" else 1 for n, k in self.columns
        )

    @staticmethod
    def _numeric_values(cells, kind: str) -> np.ndarray:
        if kind == "datetime":
            out = []
            for c in cells:
                d = parse_datetime(c)
                out.append(d.timestamp() if d is not None else np.nan)
            return np.array(out, dtype=np.float64)
        return np.array(
            [x if (x := parse_number(c)) is not None else np.nan for c in cells],
            dtype=np.float64,
        )

    def transform(self, table: RawTable) -> np.ndarray:
        n = table.row_count
        blocks = []
        for name, kind in self.columns:
            cells = table.column_values(name)
            if kind == "categorical":
                vocab = self.vocabs[name]
                index = {v: i for i, v in enumerate(vocab)}
                block = np.zeros((n, len(vocab) + 2))
                for r, c in enumerate(cells):
                    if c is None:
                        block[r, len(vocab) + 1] = 1.0  # MISSING
                    else:
                        block[r, index.get(c, len(vocab))] = 1.0  # OTHER when unseen
                blocks.append(block)
            else:
                lo, hi = self.ranges[name]
                span = hi - lo
                nums = self._numeric_values(cells, kind)
                scaled = (nums - lo) / span if span > 0 else np.zeros(n)
                scaled = np.where(np.isnan(nums), 0.5, scaled)
                blocks.append(scaled[:, None])
        return np.hstack(blocks) if blocks else np.zeros((n, 0))
