"""Minimal deterministic numerical kernel.

Dense layers, softmax cross-entropy, inverted dropout, Adam, and a DP-SGD
step. Everything is plain numpy with hand-written backward passes; the dense
forward returns a cache that the paired backward consumes. Inputs are
batches only, one (rows, width) array, and any other shape is a ValueError.
The dense backward returns per-row gradients and leaves their weighting and
summing to the caller. A model's weights live in one flat ``Param`` store;
the kernels get views into it, and Adam and DP-SGD update the whole store
at once. Embedding lookups and their scatter-add (one ``np.bincount``) are
in ``argn.model``.

Parameters default to float32. Tests run the same kernels in float64 to
check analytic gradients against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

ADAM_BLOCK = 1 << 16  # elements per pass of adam_step: bounds its work buffer
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Param:
    """A trainable tensor with a same-shape gradient accumulator. ``value``
    and ``grad`` may be views into a larger store."""

    __slots__ = ("name", "value", "grad", "m", "v")

    def __init__(self, name: str, value: np.ndarray, grad: Optional[np.ndarray] = None):
        self.name = name
        self.value = np.asarray(value)
        self.grad = np.zeros_like(self.value) if grad is None else grad
        self.m: Optional[np.ndarray] = None  # Adam first moment
        self.v: Optional[np.ndarray] = None  # Adam second moment


@dataclass
class DpConfig:
    enabled: bool = False
    clip_norm: float = 1.0
    noise_multiplier: float = 0.0

    def __post_init__(self):
        if not isinstance(self.enabled, bool):  # the string "false" would turn DP on
            raise TypeError("enabled must be true or false")
        # min(1, C / norm) is 1 for a NaN C: a NaN must not silently turn clipping off
        if not (math.isfinite(self.clip_norm) and self.clip_norm > 0):
            raise ValueError("clip_norm must be finite and positive")
        if not (math.isfinite(self.noise_multiplier) and self.noise_multiplier >= 0):
            raise ValueError("noise_multiplier must be finite and non-negative")


def _check_batch(x: np.ndarray, what: str) -> None:
    if np.ndim(x) != 2:
        raise ValueError(f"{what}: expected a (rows, width) batch, got shape {np.shape(x)}")


def dense_forward(x, w: Param, b: Param, activation: str = "relu"):
    """y = act(x W^T + b) per row. Returns (y, cache) for the paired backward."""
    if activation not in ("relu", "none"):
        raise ValueError(f"unknown activation {activation!r}")
    _check_batch(x, "dense_forward")
    if x.shape[1] != w.value.shape[1]:
        raise ValueError(
            f"dense {w.name}: input width {x.shape[1]} != weight width {w.value.shape[1]}"
        )
    pre = x @ w.value.T
    pre += b.value
    y = np.maximum(pre, 0) if activation == "relu" else pre
    return y, (x, pre, activation)


def dense_backward(dy, cache, w: Param):
    """Returns (dL/dpre, dL/dx) and accumulates nothing: per row,
    dL/dW = outer(dpre, x) and dL/db = dpre."""
    _, pre, activation = cache
    _check_batch(dy, "dense_backward")
    dpre = dy * (pre > 0) if activation == "relu" else dy
    return dpre, dpre @ w.value


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a (rows, classes) batch, in a new array.

    Computed class-major: the max and the sum run across the rows of the
    (classes, rows) transpose, whole rows at a time, which is the cheap
    direction when ``logits`` is the transpose view ``column_logits``
    returns. The result is the (rows, classes) transpose of a C-ordered
    (classes, rows) buffer; exp and divide run in that buffer.
    """
    _check_batch(logits, "softmax")
    by_class = logits.T
    p = np.subtract(by_class, by_class.max(axis=0), order="C")
    np.exp(p, out=p)
    p /= p.sum(axis=0)
    return p.T


def softmax_cross_entropy(logits, target):
    """Per-row losses and the grad matrix softmax(logits) - onehot(target)
    of (rows, classes) logits and one target class per row. The grad is the
    softmax's own buffer, laid out as ``softmax`` returns it; ``logits`` is
    never written."""
    _check_batch(logits, "softmax_cross_entropy")
    targets = np.asarray(target, dtype=np.int64)
    if targets.shape != logits.shape[:1]:
        raise ValueError("target count does not match logits batch")
    if targets.min() < 0 or targets.max() >= logits.shape[1]:
        raise ValueError("target class out of range")
    grad = softmax(logits)
    rows = np.arange(logits.shape[0])
    # clip only guards the log; the gradient stays exact
    losses = -np.log(np.maximum(grad[rows, targets], np.finfo(grad.dtype).tiny))
    grad[rows, targets] -= 1
    return losses, grad


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted dropout mask: 0 with probability ``rate``, else 1/(1-rate)."""
    if not 0 <= rate < 1:
        raise ValueError("dropout rate must be in [0, 1)")
    if rate == 0:
        return np.ones(shape, dtype=np.float32)
    keep = rng.random(shape) >= rate
    return keep.astype(np.float32) / np.float32(1.0 - rate)


def adam_step(p: Param, lr: float, step: int) -> None:
    """Standard Adam with bias correction; zeroes the gradient afterwards.

    In place, block by block: the moments are allocated on the first step,
    and besides the finiteness mask the only temporary is one block-sized
    work buffer (the gradient doubles as a second one); a full-size buffer
    would raise the peak memory of every training by a copy of the weights.
    The rounding equals ``value -= lr * (m / c1) / (sqrt(v / c2) + ADAM_EPS)``.
    A non-finite gradient rejects the step before any state is touched.
    """
    if step < 1:
        raise ValueError("step must be >= 1")
    if not np.isfinite(p.grad).all():
        raise FloatingPointError(f"non-finite gradient in {p.name}; step rejected")
    if p.m is None:
        p.m = np.zeros_like(p.value)
        p.v = np.zeros_like(p.value)
    c1 = 1.0 - ADAM_BETA1**step
    c2 = 1.0 - ADAM_BETA2**step
    value, grad, first, second = (a.reshape(-1) for a in (p.value, p.grad, p.m, p.v))
    work = np.empty(min(value.size, ADAM_BLOCK), dtype=value.dtype)
    for start in range(0, value.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        g, m, v = grad[block], first[block], second[block]
        s = work[: g.size]
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=s)
        v *= ADAM_BETA2
        v += np.multiply(np.square(g, out=s), 1.0 - ADAM_BETA2, out=s)
        denom = np.sqrt(np.divide(v, c2, out=s), out=s)
        denom += ADAM_EPS
        update = np.multiply(np.divide(m, c1, out=g), lr, out=g)
        update /= denom
        value[block] -= update
    grad[...] = 0


def dp_sgd_step(p: Param, batch_size: int, dp: DpConfig, lr: float,
                rng: np.random.Generator) -> None:
    """Add N(0, (sigma*C)^2) noise per coordinate to ``p.grad``, which holds
    the batch's sum of per-example gradients each clipped to norm <= C,
    divide by the batch size, and take an SGD step."""
    if not dp.enabled:
        raise ValueError("dp_sgd_step called with dp.enabled = False")
    if batch_size < 1:
        raise ValueError("empty batch")
    std = dp.noise_multiplier * dp.clip_norm
    noisy = rng.normal(0.0, std, size=p.grad.shape) if std > 0 else np.zeros(p.grad.shape)
    noisy += p.grad
    noisy *= lr
    noisy /= batch_size
    p.value -= noisy.astype(p.value.dtype)
    p.grad[...] = 0


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape, dtype=np.float32) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)
