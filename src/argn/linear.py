"""Built-in classifiers/regressors used by the metric suite and the audit
harness: multinomial logistic regression trained by full-batch Adam (zero
init, fully deterministic) and closed-form ridge regression, their
penalties, step size and step count fixed as module constants. Also
MixedFeatureMap, the one per-column view of a mixed table that the metrics
and the audit read columns through.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .nn import Param, adam_step
from .tables import RawTable

LOGISTIC_L2, LOGISTIC_LR, LOGISTIC_ITERS = 1e-4, 0.05, 400  # penalty, Adam step size and steps
RIDGE_L2 = 1e-6


def standardizer(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and standard deviation; a constant feature gets sd 1."""
    mu, sd = x.mean(axis=0), x.std(axis=0)
    sd[sd < 1e-12] = 1.0
    return mu, sd


def feature_major(x: np.ndarray, mu: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """The standardized design (features, rows) of rows ``x``."""
    return np.ascontiguousarray(((np.asarray(x, dtype=np.float64) - mu) / sd).T)


def one_hot(y: np.ndarray, k: int) -> np.ndarray:
    """Class-major one-hot (k, n) of labels in [0, k)."""
    out = np.zeros((k, len(y)))
    out[y, np.arange(len(y))] = 1.0
    return out


def softmax_class_major(w: np.ndarray, b: np.ndarray, xt: np.ndarray, out: Optional[np.ndarray] = None,
                        top: Optional[np.ndarray] = None) -> np.ndarray:
    """Class probabilities ``out`` (B, k, n) of weights ``w`` (B, k, f) and
    biases ``b`` (B, k, 1) on the feature-major designs ``xt`` (B, f, n);
    ``top`` (B, 1, n) is work space. The max and the sum run over the short
    class axis, each an elementwise pass over rows of length n."""
    out = np.matmul(w, xt, out=out)
    out += b
    out -= out.max(axis=1, keepdims=True, out=top)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True, out=top)
    return out


def fit_logistic_stack(xt: np.ndarray, onehot: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax regressions on a stack of B standardized feature-major designs
    ``xt`` (B, f, n), fitted in lockstep by full-batch Adam from zero, with
    class-major targets ``onehot`` (B or 1, k, n) and row weights ``weight``
    (B, n) that scale each row's loss gradient (1/n for a plain fit, 0 for a
    row the fit must not see). Returns weights (B, k, f) and biases (B, k, 1)."""
    stack, f, n = xt.shape
    k = onehot.shape[1]
    size = stack * k * f
    wb = Param("logistic", np.zeros(size + stack * k))  # all weights, then all biases
    w, b = wb.value[:size].reshape(stack, k, f), wb.value[size:].reshape(stack, k, 1)
    gw, gb = wb.grad[:size].reshape(stack, k, f), wb.grad[size:].reshape(stack, k, 1)
    g, top, decay = np.empty((stack, k, n)), np.empty((stack, 1, n)), np.empty_like(w)
    x, weight = xt.transpose(0, 2, 1), weight[:, None, :]
    for t in range(1, LOGISTIC_ITERS + 1):
        softmax_class_major(w, b, xt, g, top)
        g -= onehot
        g *= weight
        np.matmul(g, x, out=gw)
        gw += np.multiply(w, LOGISTIC_L2, out=decay)
        g.sum(axis=2, keepdims=True, out=gb)
        adam_step(wb, LOGISTIC_LR, t)
    return w, b


class LogisticModel:
    """Softmax regression; binary problems are the 2-class special case.
    ``fit`` is the one-problem case of ``fit_logistic_stack``."""

    def __init__(self):
        self.w: Optional[np.ndarray] = None  # (classes, features)
        self.b: Optional[np.ndarray] = None
        self.mu: Optional[np.ndarray] = None
        self.sd: Optional[np.ndarray] = None
        self.n_classes = 0

    def fit(self, x: np.ndarray, y: np.ndarray, n_classes: Optional[int] = None) -> "LogisticModel":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n = len(x)
        k = max(int(n_classes if n_classes is not None else y.max() + 1), 2)
        if ((y < 0) | (y >= k)).any():
            raise ValueError(f"labels must lie in [0, {k})")
        self.n_classes = k
        self.mu, self.sd = standardizer(x)
        xt = feature_major(x, self.mu, self.sd)[None]
        w, b = fit_logistic_stack(xt, one_hot(y, k)[None], np.full((1, n), 1.0 / n))
        self.w, self.b = w[0], b[0, :, 0]
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """(rows, classes) probabilities."""
        xt = feature_major(x, self.mu, self.sd)[None]
        return softmax_class_major(self.w[None], self.b[None, :, None], xt)[0].T


def fit_ridge(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Closed-form ridge with an unpenalized intercept; returns (weights, bias)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, f = x.shape
    xa = np.hstack([x, np.ones((n, 1))])
    reg = RIDGE_L2 * np.eye(f + 1)
    reg[-1, -1] = 0.0
    beta = np.linalg.solve(xa.T @ xa + reg, xa.T @ y)
    return beta[:-1], float(beta[-1])


def ridge_predict(x: np.ndarray, w: np.ndarray, b: float) -> np.ndarray:
    return np.asarray(x, dtype=np.float64) @ w + b


def finite_span(lo: float, hi: float, *values: np.ndarray):
    """``lo``, the span ``hi - lo`` and ``values``, all halved when the widest
    difference among ``lo``, ``hi`` and the finite values overflows: a span
    from -1e308 to 1e308, or a value of -1e308 against a range of 1e308 to
    1.1e308. Halving is exact above the subnormals, so (x - lo) / span and
    |x - y| / span keep their values and stay finite, and a column whose
    differences are all finite keeps every bit."""
    top = max([hi] + [float(np.max(v, initial=hi, where=np.isfinite(v))) for v in values])
    bottom = min([lo] + [float(np.min(v, initial=lo, where=np.isfinite(v))) for v in values])
    if math.isinf(top - bottom):
        return (lo / 2, hi / 2 - lo / 2, *(v / 2 for v in values))
    return (lo, hi - lo, *values)


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
                lo, span, nums = finite_span(*self.ranges[name], table.values(name, kind))
                scaled = (nums - lo) / span if span > 0 else np.zeros(n)
                block = np.where(np.isnan(nums), 0.5, scaled)[:, None]
            blocks.append(block)
        return np.hstack(blocks) if blocks else np.zeros((n, 0))
