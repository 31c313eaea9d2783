"""Any-order autoregressive network over discrete sub-columns.

Each sub-column i owns an embedding table E_i, a ReLU regressor (W_i, b_i)
and a softmax predictor (V_i, c_i) whose output width equals the
sub-column's cardinality; all are views into one flat store, in that order
per sub-column. Regressors always consume the full concatenated
embedding vector; causality is enforced by zeroing the slots of sub-columns
that do not precede the target in the current permutation, so a sub-column's
output is bit-identical under any change to the masked inputs.

Training teacher-forces ground-truth embeddings, sums the cross-entropy over
all sub-columns, and draws a fresh permutation per batch in any-order mode.
Validation loss (canonical order, dropout off) drives learning-rate halving
and early stopping; the best-validation epoch's weights are restored at the
end.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import nn
from .encoders import EncodedTable, SubColumn, TableEncoders
from .nn import DpConfig, Param
from .tables import TableSchema


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
    order_mode: str = "any_order"  # any_order | fixed
    dp: DpConfig = field(default_factory=DpConfig)
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.val_fraction < 0.5:
            raise ValueError("val_fraction must be in (0, 0.5)")
        if self.order_mode not in ("any_order", "fixed"):
            raise ValueError("order_mode must be 'any_order' or 'fixed'")
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
    """Parameters and topology for one table's sub-columns."""

    def __init__(
        self,
        sub_columns: Sequence[SubColumn],
        order_mode: str = "any_order",
        fixed_order: Optional[Sequence[int]] = None,
        encoders: Optional[TableEncoders] = None,
        schema: Optional[TableSchema] = None,
    ):
        if not sub_columns:
            raise ValueError("model needs at least one sub-column")
        self.sub_columns = list(sub_columns)
        self.order_mode = order_mode
        d = len(self.sub_columns)
        self.fixed_order = tuple(fixed_order) if fixed_order is not None else tuple(range(d))
        if sorted(self.fixed_order) != list(range(d)):
            raise ValueError("fixed_order must be a permutation of the sub-columns")
        self.encoders = encoders
        self.schema = schema
        self.sizes = compute_layer_sizes([s.cardinality for s in self.sub_columns])
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes.embed_dims)]).astype(np.int64)
        self.dropout_rate = 0.25
        self.store: Optional[Param] = None  # every weight, flat; see allocate_params
        self.params: Optional[dict[str, Param]] = None  # named views into the store
        self.trained = False
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

    def embed_rows(self, codes: np.ndarray) -> np.ndarray:
        """Full concatenated embedding matrix (n, sum of e_j) for encoded rows."""
        n = codes.shape[0]
        full = np.zeros((n, self.sizes.context_width), dtype=self.store.value.dtype)
        for j in range(self.d_total):
            table = self.params[f"E{j}"].value
            full[:, self.slot(j)] = table[codes[:, j]]
        return full

    def column_logits(self, context: np.ndarray, i: int, train_mode: bool = False,
                      rng: Optional[np.random.Generator] = None):
        """Regressor + predictor for sub-column i; returns (logits, cache)."""
        w, b = self.params[f"W{i}"], self.params[f"b{i}"]
        v, c = self.params[f"V{i}"], self.params[f"c{i}"]
        h, cache_r = nn.dense_forward(context, w, b, "relu")
        mask = None
        if train_mode and self.dropout_rate > 0:
            mask = nn.dropout_mask(h.shape, self.dropout_rate, rng)
            h = h * mask
        logits, cache_p = nn.dense_forward(h, v, c, "none")
        return logits, (cache_r, cache_p, mask)

    def backward_column(self, dlogits: np.ndarray, cache, i: int) -> np.ndarray:
        cache_r, cache_p, mask = cache
        w, b = self.params[f"W{i}"], self.params[f"b{i}"]
        v, c = self.params[f"V{i}"], self.params[f"c{i}"]
        dh = nn.dense_backward(dlogits, cache_p, v, c)
        if mask is not None:
            dh = dh * mask
        return nn.dense_backward(dh, cache_r, w, b)


def order_mask_matrix(model: ArgnModel, order: Sequence[int]) -> np.ndarray:
    """Row t = 0/1 slot mask for predicting order[t]: 1 on the slots of the
    sub-columns that precede order[t] in ``order``."""
    d = model.d_total
    masks = np.zeros((d, model.sizes.context_width), dtype=np.float32)
    for t in range(1, d):
        masks[t] = masks[t - 1]
        masks[t, model.slot(order[t - 1])] = 1.0
    return masks


def forward_column(model: ArgnModel, context: np.ndarray, i: int, train_mode: bool = False,
                   rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Conditional probability vector(s) for sub-column i given a masked context."""
    logits, _ = model.column_logits(context, i, train_mode, rng)
    return nn.softmax(logits)


def _batch_losses(model: ArgnModel, codes: np.ndarray, order: Sequence[int],
                  train_mode: bool, rng: Optional[np.random.Generator],
                  accumulate_grads: bool) -> np.ndarray:
    """Per-row summed cross-entropy over all sub-columns under ``order``.

    With ``accumulate_grads`` the mean-over-rows gradient lands in the model
    parameters (including embeddings).
    """
    n = codes.shape[0]
    full = model.embed_rows(codes)
    masks = order_mask_matrix(model, order)
    total = np.zeros(n, dtype=np.float64)
    demb_full = np.zeros_like(full) if accumulate_grads else None
    for t, i in enumerate(order):
        ctx = full * masks[t]
        logits, cache = model.column_logits(ctx, i, train_mode, rng)
        losses, dlogits = nn.softmax_cross_entropy(logits, codes[:, i])
        total += losses
        if accumulate_grads:
            dctx = model.backward_column(dlogits / n, cache, i)
            demb_full += dctx * masks[t]
    if accumulate_grads:
        for j in range(model.d_total):
            table = model.params[f"E{j}"]
            np.add.at(table.grad, codes[:, j], demb_full[:, model.slot(j)])
    return total


def negative_log_likelihood(model: ArgnModel, codes,
                            order: Optional[Sequence[int]] = None,
                            chunk: int = 4096) -> float:
    """Mean over rows of the summed per-sub-column NLL under ``order``
    (canonical schema order by default). Accepts an EncodedTable or a code
    matrix."""
    if isinstance(codes, EncodedTable):
        codes = codes.data
    codes = np.asarray(codes, dtype=np.int32)
    if order is None:
        order = tuple(range(model.d_total))
    total = 0.0
    for start in range(0, codes.shape[0], chunk):
        block = codes[start : start + chunk]
        total += float(_batch_losses(model, block, order, False, None, False).sum())
    return total / codes.shape[0]


def _per_example_grads(model: ArgnModel, codes: np.ndarray, order: Sequence[int],
                       rng: np.random.Generator) -> list[np.ndarray]:
    """Per-example flat gradients via batch-of-1 passes (simple, not fast)."""
    grad = model.store.grad
    out = []
    for r in range(codes.shape[0]):
        grad[...] = 0
        _batch_losses(model, codes[r : r + 1], order, True, rng, True)
        out.append(grad.copy())
    grad[...] = 0
    return out


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
    model.dropout_rate = cfg.dropout_rate

    lr = cfg.initial_lr
    controller = PatienceController(cfg.patience_stop, cfg.patience_lr)
    canonical = tuple(range(model.d_total))
    history = {"train_loss": [], "val_loss": [], "lr": [], "val_indices": val_idx.copy()}
    best_weights = model.store.value.copy()
    step = 0

    for epoch in range(1, cfg.max_epochs + 1):
        epoch_rows = train_idx[rng.permutation(len(train_idx))]
        epoch_loss = 0.0
        for start in range(0, len(epoch_rows), cfg.batch_size):
            batch = data[epoch_rows[start : start + cfg.batch_size]]
            order = tuple(rng.permutation(model.d_total)) if cfg.order_mode == "any_order" else model.fixed_order
            if cfg.dp.enabled:
                grads = _per_example_grads(model, batch, order, rng)
                batch_loss = float(
                    _batch_losses(model, batch, order, False, None, False).mean()
                )
                nn.dp_sgd_step(model.store, grads, cfg.dp, lr, rng)
            else:
                losses = _batch_losses(model, batch, order, True, rng, True)
                batch_loss = float(losses.mean())
                step += 1
                nn.adam_step(model.store, lr, step)
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
    model.trained = True
    model.training_meta = {
        "epochs_run": controller.epochs_seen,
        "best_epoch": controller.best_epoch,
        "best_val_loss": controller.best_loss,
    }
    history["best_epoch"] = controller.best_epoch
    history["epochs_run"] = controller.epochs_seen
    return history
