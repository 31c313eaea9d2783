"""Built-in classifiers/regressors used by the metric suite and the audit
harness: multinomial logistic regression solved to a gradient tolerance by
Newton's method (for more than two classes through conjugate gradients
preconditioned by a scaled Böhning bound; zero start, fully deterministic) and
closed-form ridge regression, their penalties, tolerance and step cap fixed
as module constants. Also MixedFeatureMap, the one per-column view of a
mixed table that the metrics and the audit read columns through.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .tables import RawTable

LOGISTIC_L2 = 1e-4  # penalty (l2 / 2)·|W|² on the weights; the biases are unpenalized
LOGISTIC_TOL, LOGISTIC_CAP = 1e-10, 50  # a fit stops at this max |gradient| or after this many steps
SCALINGS = 60  # halvings (or doublings) a step may take in its line search
CONJUGATE_CAP = 200  # Hessian products a Newton step's conjugate-gradient solve may take
CURVATURE_BLOCK = 2 ** 20  # entries of the design scaled at a time when a curvature matrix is formed
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


def softmax_class_major(w: np.ndarray, b: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """Class probabilities (B, k, n) of weights ``w`` (B, k, f) and biases
    ``b`` (B, k, 1) on the feature-major designs ``xt`` (B, f, n). The max
    and the sum run over the short class axis, each an elementwise pass over
    rows of length n."""
    out = np.matmul(w, xt)
    out += b
    out -= out.max(axis=1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def _cross_entropy(eta: np.ndarray, y: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Per problem, the weighted cross-entropy sum of logits ``eta`` (B, r, n)
    against targets ``y``: one row of binary logits (log-odds of class 1)
    against class 1's indicator, or class-major logits against the one-hot.
    Each row's loss is computed relative to its own class's logit, so a
    confidently right row keeps its small loss to full precision."""
    if eta.shape[1] == 1:
        loss = np.logaddexp(0.0, eta[:, 0] * (1.0 - 2.0 * y[:, 0]))
    else:
        u = eta - (eta * y).sum(axis=1, keepdims=True)
        top = u.max(axis=1, keepdims=True)
        loss = (top + np.log(np.exp(u - top).sum(axis=1, keepdims=True)))[:, 0]
    return (weight * loss).sum(axis=1)


def _curvature(xt: np.ndarray, d: np.ndarray, mu: float) -> np.ndarray:
    """The (m+1)² matrix [[X·diag(d)·Xᵀ + mu·I, X·d], [dᵀ·Xᵀ, Σd]] (B, m+1,
    m+1) of feature-major designs X = ``xt`` (B, m, n) and row curvatures
    ``d`` (B, n): the curvature of weights and bias, the bias unpenalized.
    X·diag(d)·Xᵀ sums A·Aᵀ over column blocks A of X·diag(√d) of at most
    CURVATURE_BLOCK entries, so no scaled copy of a large design is held."""
    stack, m, n = xt.shape
    out = np.empty((stack, m + 1, m + 1))
    gram, root, width = out[:, :m, :m], np.sqrt(d)[:, None, :], max(1, CURVATURE_BLOCK // max(m, 1))
    for j in range(0, n, width):
        a = xt[:, :, j:j + width] * root[:, :, j:j + width]
        if j:
            gram += np.matmul(a, a.transpose(0, 2, 1))
        else:
            np.matmul(a, a.transpose(0, 2, 1), out=gram)
    np.matmul(xt, d[:, :, None], out=out[:, :m, m:])
    out[:, m, :m] = out[:, :m, m]
    out[:, m, m] = d.sum(axis=1)
    diagonal = np.arange(m)
    out[:, diagonal, diagonal] += mu
    return out


def _conjugate_gradient(product, inverse_t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The Newton step s of ``product(s) = -g`` (B, k, m+1) by conjugate
    gradients preconditioned with the inverse ``inverse_t`` (its transpose,
    applied to each class row), until each problem's max |residual| is at
    most max(min(½, |g|^¼)·|g|, LOGISTIC_TOL / 4) (max norms) or after
    CONJUGATE_CAP products. The floor stops the last steps short of solving
    into rounding: a residual below a quarter of the tolerance already
    leaves the next gradient within it, up to second-order terms."""
    tol = np.abs(g).max(axis=(1, 2))
    tol = np.maximum(tol * np.minimum(0.5, tol ** 0.25), LOGISTIC_TOL / 4)
    s, res = np.zeros_like(g), -g
    pres = np.matmul(res, inverse_t)
    d, rz = pres, (res * pres).sum(axis=(1, 2))
    for _ in range(CONJUGATE_CAP):
        live = np.abs(res).max(axis=(1, 2)) > tol
        if not live.any():
            break
        hd = product(d)
        a = np.where(live, rz / np.where(live, (d * hd).sum(axis=(1, 2)), 1.0), 0.0)[:, None, None]
        s += a * d
        res = res - a * hd
        pres = np.matmul(res, inverse_t)
        rz, old = (res * pres).sum(axis=(1, 2)), rz
        d = pres + np.where(live, rz / np.where(live, old, 1.0), 0.0)[:, None, None] * d
    return s


def fit_logistic_stack(xt: np.ndarray, onehot: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax regressions on a stack of B standardized feature-major designs
    ``xt`` (B, f, n) with class-major targets ``onehot`` (B or 1, k, n) and
    row weights ``weight`` (B, n) on each row's loss (1/n for a plain fit,
    0 for a row the fit must not see). Each minimizes the weighted
    cross-entropy plus (LOGISTIC_L2 / 2)·|W|², biases unpenalized, from zero,
    and stops once its largest absolute gradient entry (weights and biases)
    is at most LOGISTIC_TOL or after LOGISTIC_CAP steps. A problem whose
    gradient at zero is within the tolerance keeps weights and biases
    exactly 0. Each step is a Newton step. It halves until the objective
    does not rise (beyond a rounding slack of 1e-12 of it), and is dropped
    if SCALINGS halvings do not get there; a full step doubles while that
    lowers the objective by more than that slack (the first steps on nearly
    separable rows, where each full step lowers the gradient only about
    e-fold).

    Two classes: the symmetric softmax is a logistic regression on
    v = w₁ - w₀ with penalty (l2 / 4)·|v|², returned as w = (-v/2, v/2),
    and each step solves its (m+1)² Hessian exactly, so the last step lands
    far inside the tolerance and a fit does not depend on the order of its
    sums (a stack of folds equals separate fits to rounding). More classes:
    each step is solved by conjugate gradients (Hessian products only,
    never a (k·f)² matrix), preconditioned on each class row by the fixed
    matrix k⁻²·Xᵀ·diag(weight)·X + l2 (its bias unpenalized), inverted once
    per design: the shape of Böhning's Hessian bound ½·Xᵀ·diag(weight)·X,
    scaled towards the curvature of rows the fit already predicts well.

    When f < n the coefficients are the weights and the bias, and each
    matrix is (f+1)². Otherwise they live in the rows' span: with
    Xᵀ = Q·R (Q orthonormal, formed once per design) the design is R, each
    matrix is (n+1)², and the weights are Q times the coefficients; the
    objective is the same, since Rᵀ·c = X·Q·c and |c| = |Q·c|.

    A feature that is zero on every row of nonzero weight in every problem
    (a one-hot OTHER or MISSING column that the reference table never
    holds) has zero gradient and no curvature coupling, so its weights stay
    exactly 0: the rest are fitted without it, and zeros fill its slots.
    Returns weights (B, k, f) and biases (B, k, 1)."""
    keep = ((xt != 0) & (weight != 0)[:, None, :]).any(axis=(0, 2))
    if not keep.all():
        xt = np.ascontiguousarray(xt[:, keep])  # a caller that keeps no reference frees the full design
    stack, f, n = xt.shape
    k = onehot.shape[1]
    binary = k == 2
    y, mu = (onehot[:, 1:], LOGISTIC_L2 / 2) if binary else (onehot, LOGISTIC_L2)
    basis, design = None, xt
    if f >= n:
        basis, design = np.linalg.qr(xt)
    design_t = design.transpose(0, 2, 1)
    theta = np.zeros((stack, y.shape[1], design.shape[1] + 1))  # each class row: weights, then the bias

    def logits(c: np.ndarray) -> np.ndarray:
        return np.matmul(c[..., :-1], design) + c[..., -1:]

    def pullback(r: np.ndarray) -> np.ndarray:
        return np.concatenate([np.matmul(r, design_t), r.sum(axis=2, keepdims=True)], axis=2)

    def objective(c: np.ndarray) -> np.ndarray:
        return _cross_entropy(logits(c), y, weight) + mu / 2 * (c[..., :-1] ** 2).sum(axis=(1, 2))

    inverse_t = None if binary else np.linalg.inv(_curvature(design, weight / k ** 2, mu)).transpose(0, 2, 1)
    obj = objective(theta)
    for _ in range(LOGISTIC_CAP):
        eta = logits(theta)
        if binary:
            p, q = np.exp(-np.logaddexp(0.0, -eta)), np.exp(-np.logaddexp(0.0, eta))  # p and 1 - p
        else:
            p = np.exp(eta - eta.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
        g = pullback(weight[:, None, :] * (p - y))
        g[..., :-1] += mu * theta[..., :-1]
        w_g = g[..., :-1] if basis is None else np.matmul(g[..., :-1], basis.transpose(0, 2, 1))
        gradient = np.maximum(np.abs(w_g).max(axis=(1, 2), initial=0.0), np.abs(g[..., -1]).max(axis=1))
        active = gradient > LOGISTIC_TOL
        if not active.any():
            break
        g[~active] = 0.0
        if binary:
            step = -np.linalg.solve(_curvature(design, weight * p[:, 0] * q[:, 0], mu), g.transpose(0, 2, 1))
            step = step.transpose(0, 2, 1)
        else:
            def product(s: np.ndarray) -> np.ndarray:
                e = logits(s)
                out = pullback(weight[:, None, :] * p * (e - (p * e).sum(axis=1, keepdims=True)))
                out[..., :-1] += mu * s[..., :-1]
                return out
            step = _conjugate_gradient(product, inverse_t, g)
        t = np.ones(stack)
        for _ in range(SCALINGS):
            new = objective(theta + t[:, None, None] * step)
            rise = active & ~(new <= obj + 1e-12 * obj)
            if not rise.any():
                break
            t[rise] /= 2
        t[rise] = 0.0  # no halving kept the objective from rising: the problem stays put
        grow = active & (t == 1.0)
        for _ in range(SCALINGS):
            if not grow.any():
                break
            trial = objective(theta + 2 * t[:, None, None] * step)
            grow &= trial < new - 1e-12 * obj  # by more than rounding: near the optimum a doubled step only reflects
            t[grow] *= 2
            new = np.where(grow, trial, new)
        theta += t[:, None, None] * step
        obj = np.where(active & ~rise, new, obj)
    v = np.zeros(theta.shape[:2] + keep.shape)
    v[..., keep] = theta[..., :-1] if basis is None else np.matmul(theta[..., :-1], basis.transpose(0, 2, 1))
    c = theta[..., -1:]
    if binary:
        return np.concatenate([-v / 2, v / 2], axis=1), np.concatenate([-c / 2, c / 2], axis=1)
    return v, c


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
        # the design is passed on without a name here, so a fit that drops features can free it
        w, b = fit_logistic_stack(feature_major(x, self.mu, self.sd)[None], one_hot(y, k)[None],
                                  np.full((1, n), 1.0 / n))
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
