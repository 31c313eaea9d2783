"""Any-order autoregressive network over discrete sub-columns.

A model is built from a table's fitted encoders alone: its sub-columns are
``encoders.sub_columns``, in canonical order. Each sub-column i owns an
embedding table E_i, a ReLU regressor (W_i, b_i) and a softmax predictor
(V_i, c_i) whose output width equals the sub-column's cardinality; all are
views into one flat store, in that order per sub-column. Every pass takes
a batch of rows: ``embed_rows`` indexes the E_i, the training pass
scatter-adds their gradients, and a sub-column's probabilities for a batch
of contexts are ``nn.softmax`` of its ``column_logits``. A regressor reads
only the slots of the sub-columns that precede its target in the current
order: the training and validation passes lay a batch's embeddings out in
that order, so each target's context is a prefix of the row, and its
regressor's GEMMs run over the matching columns of W_i alone. The slots of
later sub-columns never enter, so a sub-column's output does not depend on
them.

Training teacher-forces ground-truth embeddings, sums the cross-entropy over
all sub-columns, and draws a fresh permutation per batch in any-order mode
(fixed mode keeps the canonical order). Validation loss (canonical order,
dropout off) drives learning-rate halving and early stopping; the
best-validation epoch's weights are restored at the end, and
``training_meta`` records the run and its ``TrainConfig``: a model is
trained once it is set.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import nn
from .encoders import EncodedTable, TableEncoders
from .nn import DpConfig, Param

NLL_ROWS = 4096  # rows per pass of negative_log_likelihood: bounds its activations
ORDER_MODES = ("any_order", "fixed")  # fixed: the canonical order only


@dataclass(frozen=True)
class LayerSizes:
    embed_dims: tuple[int, ...]
    regressor_dims: tuple[int, ...]
    cardinalities: tuple[int, ...]

    @property
    def context_width(self) -> int:
        return sum(self.embed_dims)


def compute_layer_sizes(cardinalities: Sequence[int]) -> LayerSizes:
    """Embedding ceil(3*d^0.25), regressor ceil(16*max(1, ln d)), predictor d."""
    embeds, regs = [], []
    for d in cardinalities:
        if d < 1:
            raise ValueError("cardinalities must be >= 1")
        embeds.append(math.ceil(3.0 * d**0.25))
        regs.append(math.ceil(16.0 * max(1.0, math.log(d))))
    return LayerSizes(tuple(embeds), tuple(regs), tuple(int(d) for d in cardinalities))


@dataclass
class TrainConfig:
    batch_size: int = 256
    initial_lr: float = 1e-3
    patience_stop: int = 5
    patience_lr: int = 3
    max_epochs: int = 200
    dropout_rate: float = 0.25
    val_fraction: float = 0.10
    order_mode: str = "any_order"  # one of ORDER_MODES
    dp: DpConfig = field(default_factory=DpConfig)
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience_stop", "patience_lr"):
            if operator.index(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
        if operator.index(self.seed) < 0:
            raise ValueError("seed must be >= 0")
        if not (math.isfinite(self.initial_lr) and self.initial_lr > 0):
            raise ValueError("initial_lr must be finite and positive")
        if not 0 <= self.dropout_rate < 1:
            raise ValueError("dropout_rate must be in [0, 1)")
        if not 0 < self.val_fraction < 0.5:
            raise ValueError("val_fraction must be in (0, 0.5)")
        if self.order_mode not in ORDER_MODES:
            raise ValueError(f"order_mode must be one of {ORDER_MODES}")
        if self.patience_stop <= self.patience_lr:
            warnings.warn("patience_stop <= patience_lr: learning rate will never halve before stopping")


@dataclass
class PatienceDecision:
    new_best: bool
    halve_lr: bool
    stop: bool


class PatienceController:
    """Validation-loss bookkeeping: halve the LR after K stale epochs, stop
    after N, and remember which epoch was best."""

    def __init__(self, patience_stop: int, patience_lr: int):
        self.patience_stop = patience_stop
        self.patience_lr = patience_lr
        self.best_loss = math.inf
        self.best_epoch = 0
        self.epochs_seen = 0
        self.stale = 0

    def update(self, val_loss: float) -> PatienceDecision:
        self.epochs_seen += 1
        if val_loss < self.best_loss:
            self.best_loss = val_loss
            self.best_epoch = self.epochs_seen
            self.stale = 0
            return PatienceDecision(True, False, False)
        self.stale += 1
        stop = self.stale >= self.patience_stop
        halve = (not stop) and self.stale % self.patience_lr == 0
        return PatienceDecision(False, halve, stop)


class ArgnModel:
    """Parameters and topology for the sub-columns of one table's encoders;
    ``training_meta`` is ``{}`` until ``train`` records its run and config."""

    def __init__(self, encoders: TableEncoders):
        if not encoders.sub_columns:
            raise ValueError("model needs at least one sub-column")
        self.encoders = encoders
        self.sub_columns = encoders.sub_columns
        self.sizes = compute_layer_sizes([s.cardinality for s in self.sub_columns])
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes.embed_dims)]).astype(np.int64)
        self.store: Optional[Param] = None  # every weight, flat; see allocate_params
        self.params: Optional[dict[str, Param]] = None  # named views into the store
        self.training_meta: dict = {}

    @property
    def d_total(self) -> int:
        return len(self.sub_columns)

    def slot(self, i: int) -> slice:
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def allocate_params(self, dtype=np.float32) -> None:
        """Zeroed weights as views into one flat store (``self.store``), in
        canonical order: per sub-column E, W, b, V, c."""
        width = self.sizes.context_width
        shapes = []
        for i, sc in enumerate(self.sub_columns):
            e_i, r_i, d_i = self.sizes.embed_dims[i], self.sizes.regressor_dims[i], sc.cardinality
            shapes += [(f"E{i}", (d_i, e_i)), (f"W{i}", (r_i, width)), (f"b{i}", (r_i,)),
                       (f"V{i}", (d_i, r_i)), (f"c{i}", (d_i,))]
        total = sum(math.prod(shape) for _, shape in shapes)
        self.store = Param("store", np.zeros(total, dtype=dtype))
        self.params = {}
        offset = 0
        for name, shape in shapes:
            part = slice(offset, offset + math.prod(shape))
            self.params[name] = Param(name, self.store.value[part].reshape(shape),
                                      self.store.grad[part].reshape(shape))
            offset = part.stop

    def init_params(self, rng: np.random.Generator, dtype=np.float32) -> None:
        """Glorot-uniform E, W and V (drawn in canonical order); zero biases."""
        self.allocate_params(dtype)
        for p in self.params.values():
            if p.value.ndim == 2:  # the Glorot limit is symmetric in fan-in and fan-out
                p.value[...] = nn.glorot_uniform(rng, *p.value.shape, p.value.shape, dtype)

    # -- forward pieces -----------------------------------------------------

    def embed_rows(self, codes: np.ndarray, order: Optional[Sequence[int]] = None) -> np.ndarray:
        """Concatenated embedding matrix (n, sum of e_j) for encoded rows, the
        slots laid out in ``order`` (canonical by default)."""
        n = codes.shape[0]
        full = np.empty((n, self.sizes.context_width), dtype=self.store.value.dtype)
        start = 0
        for j in range(self.d_total) if order is None else order:
            table = self.params[f"E{j}"].value
            full[:, start : start + table.shape[1]] = table[codes[:, j]]
            start += table.shape[1]
        return full

    def column_logits(self, context: np.ndarray, i: int, dropout: Optional[tuple] = None, cols=None):
        """Regressor + predictor for sub-column i; returns (logits, cache).
        ``context`` holds the embedding columns ``cols`` (a slice or index
        array into the canonical layout, in the context's order), all of them
        by default; the regressor then reads the window W_i[:, cols], views
        for a slice and gathered copies of value and gradient for an index
        array. The cache's last entry is that window. ``dropout`` is None (off)
        or (rate, rng): at a positive rate one (n, r_i) mask is drawn from rng."""
        w, b = self.params[f"W{i}"], self.params[f"b{i}"]
        v, c = self.params[f"V{i}"], self.params[f"c{i}"]
        if cols is not None:
            w = Param(w.name, w.value[:, cols], w.grad[:, cols])
        h, cache_r = nn.dense_forward(context, w, b, "relu")
        mask = None
        if dropout is not None and dropout[0] > 0:
            mask = nn.dropout_mask(h.shape, *dropout)
            h = h * mask
        logits, cache_p = nn.dense_forward(h, v, c, "none")
        return logits, (cache_r, cache_p, mask, w)

    def backward_column(self, dlogits: np.ndarray, cache, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-row (dpre, dctx): the regressor's pre-activation gradient and
        the gradient of the context it read. Accumulates nothing."""
        cache_r, cache_p, mask, w = cache
        _, dh = nn.dense_backward(dlogits, cache_p, self.params[f"V{i}"])
        if mask is not None:
            dh = dh * mask
        return nn.dense_backward(dh, cache_r, w)


def order_layout(model: ArgnModel, order: Sequence[int]) -> tuple[np.ndarray, list]:
    """(starts, prefixes) of the layout ``model.embed_rows(codes, order)``
    builds: order[t]'s slot is columns starts[t]:starts[t + 1], so the
    context of order[t] is the first starts[t] columns, and prefixes[t] names
    their canonical columns, the ones its regressor reads. The canonical
    order makes every prefix a slice, so no weight is gathered."""
    starts = np.concatenate([[0], np.cumsum([model.sizes.embed_dims[i] for i in order])])
    if tuple(order) == tuple(range(model.d_total)):
        return starts, [slice(0, int(w)) for w in starts[:-1]]
    cols = np.concatenate([np.arange(model.offsets[i], model.offsets[i + 1]) for i in order])
    return starts, [cols[:w] for w in starts[:-1]]


def negative_log_likelihood(model: ArgnModel, codes,
                            order: Optional[Sequence[int]] = None) -> float:
    """Mean over rows of the summed per-sub-column NLL under ``order``
    (canonical schema order by default), dropout off. Accepts an
    EncodedTable or a code matrix."""
    if isinstance(codes, EncodedTable):
        codes = codes.data
    codes = np.asarray(codes, dtype=np.int32)
    if order is None:
        order = tuple(range(model.d_total))
    starts, prefixes = order_layout(model, order)
    total = 0.0
    for start in range(0, codes.shape[0], NLL_ROWS):
        block = codes[start : start + NLL_ROWS]
        emb = model.embed_rows(block, order)
        losses = np.zeros(block.shape[0])
        for t, i in enumerate(order):
            logits, _ = model.column_logits(emb[:, : starts[t]], i, cols=prefixes[t])
            losses += nn.softmax_cross_entropy(logits, block[:, i])[0]
        total += float(losses.sum())
    return total / codes.shape[0]


def _row_sq(a: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, a, dtype=np.float64)


def _add_column_grads(model: ArgnModel, i: int, cols, w: Param, ctx: np.ndarray, h: np.ndarray,
                       dlogits: np.ndarray, dpre: np.ndarray) -> None:
    """Adds sub-column i's weighted W, b, V and c gradients, given the
    window ``w`` of W_i's columns ``cols`` that read its context ``ctx``,
    its predictor input and row-weighted (dlogits, dpre)."""
    w.grad += dpre.T @ ctx
    if not isinstance(cols, slice):  # a gathered window: write its gradient back
        model.params[f"W{i}"].grad[:, cols] = w.grad
    model.params[f"b{i}"].grad += dpre.sum(axis=0)
    model.params[f"V{i}"].grad += dlogits.T @ h
    model.params[f"c{i}"].grad += dlogits.sum(axis=0)


def _per_example_grads(model: ArgnModel, codes: np.ndarray, order: Sequence[int], dropout: Optional[tuple],
                       clip_norm: Optional[float] = None) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The training pass: adds sum_r s_r g_r of the per-example gradients g_r
    to ``model.store.grad``; returns the per-row losses and the norms |g_r|
    (None without ``clip_norm``).

    Without ``clip_norm`` s_r = 1/n, the mean gradient of plain training,
    added column by column; with it s_r = min(1, C/|g_r|), the clipped sum of
    DP-SGD, added once every column's norm is known. No g_r is formed, yet
    the norms are exact: within one example every W_i and V_i is used once,
    so its gradient is an outer product with norm |dy| |x|, and each
    embedding table gets gradient in one row only. With ``dropout`` (rate,
    rng) each sub-column draws its dropout mask, in ``order``; None is off.
    The embeddings are laid out in ``order`` (see ``order_layout``), so each
    context is a prefix view of one matrix, and so is its gradient.
    """
    n = codes.shape[0]
    starts, prefixes = order_layout(model, order)
    emb = model.embed_rows(codes, order)
    total, norm2 = np.zeros(n), np.zeros(n)
    demb = np.zeros_like(emb)
    saved = []
    for t, i in enumerate(order):
        ctx = emb[:, : starts[t]]
        logits, cache = model.column_logits(ctx, i, dropout, prefixes[t])
        losses, dlogits = nn.softmax_cross_entropy(logits, codes[:, i])
        if clip_norm is None:
            dlogits /= n
        dpre, dctx = model.backward_column(dlogits, cache, i)
        demb[:, : starts[t]] += dctx
        total += losses
        h, w = cache[1][0], cache[3]  # the predictor's input, after dropout; W_i's window
        if clip_norm is None:
            _add_column_grads(model, i, prefixes[t], w, ctx, h, dlogits, dpre)
            continue
        norm2 += _row_sq(dlogits) * (_row_sq(h) + 1) + _row_sq(dpre) * (_row_sq(ctx) + 1)
        saved.append((w, h, dlogits, dpre))
    norms = None
    if clip_norm is not None:
        norms = np.sqrt(norm2 + _row_sq(demb))
        scale = (clip_norm / np.maximum(norms, clip_norm)).astype(emb.dtype)[:, None]
        demb *= scale
        for t, i in enumerate(order):
            w, h, dlogits, dpre = saved[t]
            _add_column_grads(model, i, prefixes[t], w, emb[:, : starts[t]], h, dlogits * scale, dpre * scale)
    for t, i in enumerate(order):
        np.add.at(model.params[f"E{i}"].grad, codes[:, i], demb[:, starts[t] : starts[t + 1]])
    return total, norms


def train(model: ArgnModel, encoded: EncodedTable, cfg: TrainConfig) -> dict:
    """Fit the model; returns {'train_loss', 'val_loss', 'lr', 'best_epoch',
    'epochs_run'} and restores the best-validation weights."""
    data = encoded.data
    n = data.shape[0]
    if n < 10:
        raise ValueError("training needs at least 10 rows")
    if model.d_total != data.shape[1]:
        raise ValueError("encoded table does not match the model's sub-columns")

    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(n)
    n_val = max(1, int(round(cfg.val_fraction * n)))
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    model.init_params(rng)

    lr = cfg.initial_lr
    controller = PatienceController(cfg.patience_stop, cfg.patience_lr)
    canonical = tuple(range(model.d_total))
    history = {"train_loss": [], "val_loss": [], "lr": [], "val_indices": val_idx.copy()}
    best_weights = model.store.value.copy()
    clip_norm = cfg.dp.clip_norm if cfg.dp.enabled else None
    step = 0

    for epoch in range(1, cfg.max_epochs + 1):
        epoch_rows = train_idx[rng.permutation(len(train_idx))]
        epoch_loss = 0.0
        for start in range(0, len(epoch_rows), cfg.batch_size):
            batch = data[epoch_rows[start : start + cfg.batch_size]]
            order = tuple(rng.permutation(model.d_total)) if cfg.order_mode == "any_order" else canonical
            losses, _ = _per_example_grads(model, batch, order, (cfg.dropout_rate, rng), clip_norm)
            if cfg.dp.enabled:
                nn.dp_sgd_step(model.store, len(batch), cfg.dp, lr, rng)
            else:
                step += 1
                nn.adam_step(model.store, lr, step)
            batch_loss = float(losses.mean())
            if not math.isfinite(batch_loss):
                raise RuntimeError(
                    f"non-finite training loss at epoch {epoch} (lr={lr}); aborting"
                )
            epoch_loss += batch_loss * len(batch)
        epoch_loss /= len(epoch_rows)

        val_loss = negative_log_likelihood(model, data[val_idx], canonical)
        decision = controller.update(val_loss)
        history["train_loss"].append(epoch_loss)
        history["val_loss"].append(val_loss)
        history["lr"].append(lr)
        if decision.new_best:
            best_weights[...] = model.store.value
        if decision.halve_lr:
            lr *= 0.5
        if decision.stop:
            break

    model.store.value[...] = best_weights
    model.training_meta = {
        "epochs_run": controller.epochs_seen,
        "best_epoch": controller.best_epoch,
        "best_val_loss": controller.best_loss,
        "train_config": asdict(cfg),
    }
    history["best_epoch"] = controller.best_epoch
    history["epochs_run"] = controller.epochs_seen
    return history
