import math

import numpy as np
import pytest

from argn import nn
from argn.encoders import CategoryEncoder, EncodedTable, TableEncoders
from argn.model import (
    ArgnModel,
    PatienceController,
    TrainConfig,
    compute_layer_sizes,
    negative_log_likelihood,
    order_layout,
    train,
)
from argn.nn import dropout_mask
from test_nn import REL_TOL, central_diff, rel_err


def masked_context(embeddings, order, target: int) -> np.ndarray:
    """Masking oracle: concatenate embeddings in canonical slot order,
    zeroing every slot whose sub-column does not precede ``target`` in
    ``order``."""
    d = len(embeddings)
    position = {col: pos for pos, col in enumerate(order)}
    if target not in position:
        raise ValueError("target sub-column not in order")
    keep = [position[j] < position[target] for j in range(d)]
    parts = [np.asarray(e) if keep[j] else np.zeros_like(e) for j, e in enumerate(embeddings)]
    return np.concatenate(parts, axis=-1)


def subcols(cardinalities, prefix="x") -> TableEncoders:
    """Categorical encoders of columns ``{prefix}{i}``, one sub-column each,
    of the given cardinalities (the last code is MISSING)."""
    return TableEncoders([CategoryEncoder(f"{prefix}{i}", [*map(str, range(c - 1)), None])
                          for i, c in enumerate(cardinalities)])


def fresh_model(cardinalities, seed=0):
    model = ArgnModel(subcols(cardinalities))
    model.init_params(np.random.default_rng(seed))
    return model


# -- layer sizes ---------------------------------------------------------------


@pytest.mark.parametrize(
    "card,embed,reg",
    [
        (1, 3, 16),
        (2, 4, 16),  # ceil(3 * 2^0.25) = ceil(3.568)
        (16, 6, 45),  # 3*2 exact; ceil(16 ln 16) = ceil(44.36)
        (100, 10, 74),  # ceil(3*100^0.25) = ceil(9.487); ceil(16 ln 100) = ceil(73.68)
    ],
)
def test_layer_size_heuristics(card, embed, reg):
    sizes = compute_layer_sizes([card])
    assert sizes.embed_dims == (embed,)
    assert sizes.regressor_dims == (reg,)
    assert sizes.cardinalities == (card,)


def test_layer_sizes_reject_zero():
    with pytest.raises(ValueError):
        compute_layer_sizes([0])


# -- masking ---------------------------------------------------------------------


def test_masked_context_first_in_order_is_all_zero(rng):
    embs = [rng.normal(size=3), rng.normal(size=2), rng.normal(size=4)]
    ctx = masked_context(embs, order=[2, 0, 1], target=2)
    np.testing.assert_array_equal(ctx, np.zeros(9))


def test_masked_context_middle_keeps_single_slot(rng):
    embs = [rng.normal(size=3), rng.normal(size=2), rng.normal(size=4)]
    # order (1, 0, 2): when predicting 0, only sub-column 1's slot is populated
    ctx = masked_context(embs, order=[1, 0, 2], target=0)
    np.testing.assert_array_equal(ctx[:3], 0.0)
    np.testing.assert_array_equal(ctx[3:5], embs[1])
    np.testing.assert_array_equal(ctx[5:], 0.0)


def test_masked_context_last_keeps_all_other_slots(rng):
    embs = [rng.normal(size=3), rng.normal(size=2), rng.normal(size=4)]
    ctx = masked_context(embs, order=[0, 1, 2], target=2)
    np.testing.assert_array_equal(ctx[:3], embs[0])
    np.testing.assert_array_equal(ctx[3:5], embs[1])
    np.testing.assert_array_equal(ctx[5:], 0.0)


@pytest.mark.parametrize("order", [(2, 0, 3, 1), (0, 1, 2, 3), (3, 2, 1, 0)])
def test_order_layout_matches_masked_context(order):
    """The prefix of the row laid out in ``order`` holds exactly the slots
    that the masked context keeps, at the canonical columns ``prefixes[t]``
    names; every other slot of the masked context is zero."""
    model = fresh_model([3, 4, 2, 5])
    codes = np.array([[2, 1, 0, 4]], dtype=np.int32)
    starts, prefixes = order_layout(model, order)
    emb = model.embed_rows(codes, order)
    embs = [model.params[f"E{j}"].value[codes[0, j]] for j in range(4)]
    assert starts[-1] == model.sizes.context_width
    for t, col in enumerate(order):
        masked = masked_context(embs, order, col)
        np.testing.assert_array_equal(emb[0, : starts[t]], masked[prefixes[t]])
        assert not np.delete(masked, np.arange(model.sizes.context_width)[prefixes[t]]).any()
        np.testing.assert_array_equal(emb[0, starts[t] : starts[t + 1]], embs[col])
        assert isinstance(prefixes[t], slice) == (order == (0, 1, 2, 3))


# -- forward -----------------------------------------------------------------------


def test_forward_column_probabilities_sum_to_one(rng):
    model = fresh_model([3, 4, 5])
    ctx = rng.normal(size=(1, model.sizes.context_width)).astype(np.float32)
    for i in range(3):
        (p,) = nn.softmax(model.column_logits(ctx, i)[0])
        assert p.shape == (model.sub_columns[i].cardinality,)
        assert p.sum() == pytest.approx(1.0, abs=1e-6)


def test_forward_column_zero_predictor_is_uniform(rng):
    model = fresh_model([4, 6])
    for i in range(2):
        model.params[f"V{i}"].value[...] = 0
        model.params[f"c{i}"].value[...] = 0
    ctx = rng.normal(size=(1, model.sizes.context_width)).astype(np.float32)
    np.testing.assert_allclose(nn.softmax(model.column_logits(ctx, 0)[0]), 0.25, atol=1e-7)
    np.testing.assert_allclose(nn.softmax(model.column_logits(ctx, 1)[0]), 1 / 6, atol=1e-7)


def test_masked_slot_perturbation_changes_nothing(rng):
    model = fresh_model([3, 3, 3, 3], seed=9)
    codes = np.array([[0, 1, 2, 1]], dtype=np.int32)
    for trial in range(50):
        order = tuple(rng.permutation(4))
        pos = int(rng.integers(4))
        target = order[pos]
        later = order[pos + 1 :]
        embs = [model.params[f"E{j}"].value[codes[0, j]] for j in range(4)]
        ctx = masked_context(embs, order, target)
        out1 = nn.softmax(model.column_logits(ctx[None], target)[0])
        perturbed = codes.copy()
        for j in later:
            perturbed[0, j] = rng.integers(3)
        embs2 = [model.params[f"E{j}"].value[perturbed[0, j]] for j in range(4)]
        ctx2 = masked_context(embs2, order, target)
        out2 = nn.softmax(model.column_logits(ctx2[None], target)[0])
        assert out1.tobytes() == out2.tobytes()  # bit-identical


# -- patience / early stopping -------------------------------------------------------


def test_patience_hand_trace():
    # trace from a model that improves once then degrades
    trace = [1.0, 0.9, 0.95, 0.96, 0.97, 0.98, 0.99]
    ctrl = PatienceController(patience_stop=5, patience_lr=3)
    halve_epochs, stop_epoch = [], None
    for epoch, loss in enumerate(trace, start=1):
        decision = ctrl.update(loss)
        if decision.halve_lr:
            halve_epochs.append(epoch)
        if decision.stop:
            stop_epoch = epoch
            break
    assert stop_epoch == 7
    assert halve_epochs == [5]
    assert ctrl.best_epoch == 2


def test_patience_improvement_resets_counter():
    ctrl = PatienceController(5, 3)
    for loss in [1.0, 0.99, 1.1, 1.1, 0.98]:
        decision = ctrl.update(loss)
    assert ctrl.stale == 0
    assert decision.new_best


# -- training -----------------------------------------------------------------------


def lookup_table_data(n_rows=1000, cardinality=10, seed=0):
    rng = np.random.default_rng(seed)
    mapping = rng.permutation(cardinality)
    x1 = rng.integers(cardinality, size=n_rows)
    data = np.stack([x1, mapping[x1]], axis=1).astype(np.int32)
    return EncodedTable(subcols([cardinality, cardinality]).sub_columns, data), mapping


def train_lookup(seed=0):
    encoded, mapping = lookup_table_data(seed=seed)
    model = ArgnModel(subcols([10, 10]))
    cfg = TrainConfig(batch_size=128, initial_lr=5e-3, max_epochs=150, seed=seed)
    history = train(model, encoded, cfg)
    return model, mapping, history, encoded


def test_learnability_deterministic_pair():
    model, mapping, history, encoded = train_lookup()
    assert history["val_loss"][-1] < history["val_loss"][0] or len(history["val_loss"]) == 1
    assert model.training_meta["best_val_loss"] < history["val_loss"][0]
    # conditional argmax must reproduce the lookup for every source category
    width = model.sizes.context_width
    for c in range(10):
        ctx = np.zeros((1, width), dtype=np.float32)
        ctx[0, model.slot(0)] = model.params["E0"].value[c]
        (p,) = nn.softmax(model.column_logits(ctx, 1)[0])
        assert int(np.argmax(p)) == mapping[c]


@pytest.mark.parametrize("bad", [
    {"batch_size": 0},  # used to fail mid-run: range() arg 3 must not be zero
    {"max_epochs": 0},  # used to write a model marked trained with val loss inf
    {"patience_stop": 0},
    {"patience_lr": 0},
    {"dropout_rate": 1.0},
    {"dropout_rate": -0.1},
    {"initial_lr": 0.0},
    {"initial_lr": math.nan},
    {"initial_lr": math.inf},
    {"seed": -1},  # used to fail mid-run in default_rng
])
def test_train_config_rejects_out_of_range_values(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        TrainConfig(**bad)


@pytest.mark.parametrize("bad", [{"batch_size": 2.5}, {"seed": "7"}])
def test_train_config_rejects_a_non_integer_count_or_seed(bad):
    with pytest.raises(TypeError):
        TrainConfig(**bad)


def test_training_requires_rows():
    encoded, _ = lookup_table_data(n_rows=5)
    model = ArgnModel(subcols([10, 10]))
    with pytest.raises(ValueError, match="10 rows"):
        train(model, encoded, TrainConfig())


def test_early_stop_restores_best_epoch_weights():
    model, _, history, encoded = train_lookup()
    val_rows = encoded.data[history["val_indices"]]
    restored = negative_log_likelihood(model, val_rows)
    assert restored == pytest.approx(min(history["val_loss"]), abs=1e-6)


def test_reproducibility_bit_exact():
    m1, _, _, _ = train_lookup(seed=3)
    m2, _, _, _ = train_lookup(seed=3)
    assert m1.store.value.tobytes() == m2.store.value.tobytes()


def test_any_order_valid_probabilities_for_all_orders(rng):
    import itertools

    data = np.random.default_rng(0).integers(0, 3, size=(200, 3)).astype(np.int32)
    encoders = subcols([3, 3, 3])
    encoded = EncodedTable(encoders.sub_columns, data)
    model = ArgnModel(encoders)
    train(model, encoded, TrainConfig(batch_size=64, max_epochs=5, seed=1))
    embs = [model.params[f"E{j}"].value[1] for j in range(3)]
    for order in itertools.permutations(range(3)):  # all D! orders
        for target in order:
            ctx = masked_context(embs, order, target)
            (p,) = nn.softmax(model.column_logits(ctx[None], target)[0])
            assert p.sum() == pytest.approx(1.0, abs=1e-5)
            assert np.all(p >= 0)


# -- NLL ------------------------------------------------------------------------------


def test_nll_uniform_untrained():
    model = fresh_model([2, 2, 2])
    for i in range(3):
        model.params[f"V{i}"].value[...] = 0
        model.params[f"c{i}"].value[...] = 0
    rows = np.array([[0, 1, 0], [1, 1, 1]], dtype=np.int32)
    assert negative_log_likelihood(model, rows) == pytest.approx(3 * math.log(2), rel=1e-6)


def test_nll_matches_batch_loss_path():
    from argn.model import _per_example_grads

    model = fresh_model([3, 4, 2], seed=5)
    rows = np.random.default_rng(0).integers(0, 2, size=(50, 3)).astype(np.int32)
    order = (2, 0, 1)
    losses, _ = _per_example_grads(model, rows, order, None)  # dropout off
    assert negative_log_likelihood(model, rows, order) == pytest.approx(float(losses.mean()), abs=1e-9)


def test_nll_near_zero_for_learned_deterministic_column():
    model, mapping, _, encoded = train_lookup()
    nll_x2_given_x1 = []
    width = model.sizes.context_width
    for c in range(10):
        ctx = np.zeros((1, width), dtype=np.float32)
        ctx[0, model.slot(0)] = model.params["E0"].value[c]
        (p,) = nn.softmax(model.column_logits(ctx, 1)[0])
        nll_x2_given_x1.append(-math.log(float(p[mapping[c]])))
    assert np.mean(nll_x2_given_x1) < 0.15


# -- whole-model gradient -----------------------------------------------------------


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
def test_full_model_gradient_matches_finite_differences(order):
    """Every coordinate of the flat store in float64: the masked contexts, the
    embedding scatter-add (codes repeat across rows), regressors and
    predictors, checked block by block against the training pass's mean
    gradient."""
    from argn.model import _per_example_grads

    model = ArgnModel(subcols([3, 4, 2]))
    model.init_params(np.random.default_rng(1), dtype=np.float64)
    # random biases keep the first column's pre-activations off the ReLU kink
    model.store.value[...] = np.random.default_rng(2).normal(scale=0.5, size=model.store.value.size)
    codes = np.array([[0, 1, 1], [2, 3, 0], [0, 1, 1], [1, 0, 1], [2, 2, 0]], dtype=np.int32)

    model.store.grad[...] = 0
    _per_example_grads(model, codes, order, None)
    numeric = central_diff(lambda: negative_log_likelihood(model, codes, order), model.store.value, h=1e-6)
    offset = 0
    for name, p in model.params.items():
        block = numeric[offset : offset + p.value.size].reshape(p.value.shape)
        assert rel_err(p.grad, block) < REL_TOL, name
        offset += p.value.size
    assert offset == model.store.value.size
    # the last sub-column in the order is never context: its embedding gets no gradient
    assert not model.params[f"E{order[-1]}"].grad.any()
    assert model.params[f"E{order[0]}"].grad.any()


# -- the prefix-context pass against the masked pass -------------------------------


def masked_reference_pass(model, codes, order, dropout, clip_norm=None):
    """The training pass in its masked form, the reference for the prefix
    one: every regressor reads the whole canonical embedding row, with the
    slots of the sub-columns that do not precede its target zeroed. Adds the
    gradient to ``model.store.grad``; returns (losses, norms)."""
    width = model.sizes.context_width
    masks = np.zeros((model.d_total, width), dtype=np.float32)
    for t in range(1, model.d_total):
        masks[t] = masks[t - 1]
        masks[t, model.slot(order[t - 1])] = 1.0
    p = model.params

    def add(i, ctx, h, dlogits, dpre):
        p[f"W{i}"].grad += dpre.T @ ctx
        p[f"b{i}"].grad += dpre.sum(axis=0)
        p[f"V{i}"].grad += dlogits.T @ h
        p[f"c{i}"].grad += dlogits.sum(axis=0)

    def row_sq(a):
        return np.einsum("ij,ij->i", a, a, dtype=np.float64)

    n = codes.shape[0]
    full = model.embed_rows(codes)
    total, norm2 = np.zeros(n), np.zeros(n)
    demb = np.zeros_like(full)
    saved = []
    for t, i in enumerate(order):
        ctx = full * masks[t]
        logits, cache = model.column_logits(ctx, i, dropout)
        losses, dlogits = nn.softmax_cross_entropy(logits, codes[:, i])
        if clip_norm is None:
            dlogits /= n
        dpre, dctx = model.backward_column(dlogits, cache, i)
        demb += dctx * masks[t]
        total += losses
        h = cache[1][0]
        if clip_norm is None:
            add(i, ctx, h, dlogits, dpre)
            continue
        norm2 += row_sq(dlogits) * (row_sq(h) + 1) + row_sq(dpre) * (row_sq(ctx) + 1)
        saved.append((h, dlogits, dpre))
    norms = None
    if clip_norm is not None:
        norms = np.sqrt(norm2 + row_sq(demb))
        scale = (clip_norm / np.maximum(norms, clip_norm)).astype(full.dtype)[:, None]
        demb *= scale
        for t, i in enumerate(order):
            h, dlogits, dpre = saved[t]
            add(i, full * masks[t], h, dlogits * scale, dpre * scale)
    for j in range(model.d_total):
        np.add.at(p[f"E{j}"].grad, codes[:, j], demb[:, model.slot(j)])
    return total, norms


def masked_reference_nll(model, codes, order):
    """Mean summed NLL of ``codes`` under ``order`` from masked contexts,
    dropout off."""
    losses, _ = masked_reference_pass(model, codes, order, None)
    model.store.grad[...] = 0
    return float(losses.mean())


def prefix_cases():
    """(name, model, codes, orders): random any-order orders, the fixed
    canonical order, a 60-sub-column model and a one-row batch."""
    rng = np.random.default_rng(31)
    small = fresh_model([3, 4, 2, 5, 7, 1], seed=3)
    small_codes = rng.integers(0, [3, 4, 2, 5, 7, 1], size=(40, 6)).astype(np.int32)
    cards = [int(c) for c in rng.integers(1, 40, size=60)]
    wide = fresh_model(cards, seed=4)
    wide_codes = rng.integers(0, cards, size=(64, 60)).astype(np.int32)
    fixed = fresh_model([3, 4, 2, 5, 7, 1], seed=5)
    return [
        ("any_order", small, small_codes, [tuple(rng.permutation(6)) for _ in range(4)]),
        ("fixed", fixed, small_codes, [tuple(range(6))]),
        ("sixty", wide, wide_codes, [tuple(rng.permutation(60)), tuple(range(60))]),
        ("one_row", small, small_codes[:1], [tuple(rng.permutation(6)), tuple(range(6))]),
    ]


def assert_float32_close(actual, reference):
    """Equal up to float32 rounding of sums taken in another order."""
    scale = max(float(np.abs(reference).max()), 1e-30)
    np.testing.assert_allclose(actual, reference, rtol=2e-5, atol=1e-6 * scale)


@pytest.mark.parametrize("clip_norm", [None, 0.5], ids=["plain", "dp"])
@pytest.mark.parametrize("case", prefix_cases(), ids=lambda c: c[0])
def test_training_pass_equals_the_masked_reference(case, clip_norm):
    from argn.model import _per_example_grads

    _, model, codes, orders = case
    for k, order in enumerate(orders):
        model.store.grad[...] = 0
        ref_rng = np.random.default_rng(k)
        ref_losses, ref_norms = masked_reference_pass(model, codes, order, (0.25, ref_rng), clip_norm)
        reference = model.store.grad.copy()
        model.store.grad[...] = 0
        rng = np.random.default_rng(k)
        losses, norms = _per_example_grads(model, codes, order, (0.25, rng), clip_norm)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert_float32_close(losses, ref_losses)
        assert_float32_close(model.store.grad, reference)
        assert (norms is None) == (clip_norm is None)
        if clip_norm is not None:
            assert_float32_close(norms, ref_norms)
        assert reference.any()
    model.store.grad[...] = 0


@pytest.mark.parametrize("case", prefix_cases(), ids=lambda c: c[0])
def test_validation_nll_equals_the_masked_reference(case):
    _, model, codes, orders = case
    for order in orders:
        nll = negative_log_likelihood(model, codes, order)
        assert nll == pytest.approx(masked_reference_nll(model, codes, order), rel=1e-6)


@pytest.mark.parametrize("rows", [1, 40])
def test_column_logits_come_class_major_and_no_kernel_writes_into_what_the_pass_reuses(rows):
    """The logits are the transpose view of a (classes, rows) block. Passed
    back to the softmax kernel, then its gradient to ``backward_column``,
    neither they nor the context, the dropout mask or the cached
    activations change: the pass reads each of them again afterwards."""
    model = fresh_model([31, 4, 101], seed=6)
    codes = np.random.default_rng(7).integers(0, [31, 4, 101], size=(rows, 3)).astype(np.int32)
    ctx = model.embed_rows(codes)
    for i in range(3):
        logits, cache = model.column_logits(ctx, i, (0.25, np.random.default_rng(i)))
        assert logits.shape == (rows, model.sizes.cardinalities[i]) and logits.T.flags.c_contiguous
        reused = {"ctx": ctx, "logits": logits, "pre": cache[0][1], "h": cache[1][0], "mask": cache[2]}
        before = {name: a.copy() for name, a in reused.items()}
        _, dlogits = nn.softmax_cross_entropy(logits, codes[:, i])
        reused["dlogits"], before["dlogits"] = dlogits, dlogits.copy()
        model.backward_column(dlogits, cache, i)
        for name, a in reused.items():
            np.testing.assert_array_equal(a, before[name], err_msg=name)


# -- DP-SGD: per-example gradients from one batched pass ---------------------------


def record_dropout_masks(monkeypatch) -> list:
    """Every dropout mask drawn from now on, in draw order."""
    drawn = []

    def recording(shape, rate, rng):
        drawn.append(dropout_mask(shape, rate, rng))
        return drawn[-1]

    monkeypatch.setattr(nn, "dropout_mask", recording)
    return drawn


def per_example_grads_oracle(model, codes, order, rate, drawn, monkeypatch):
    """Batch-of-1 oracle: each row's train-mode loss and flat gradient from
    its own pass at dropout ``rate``, replaying that row of the masks
    ``drawn`` (one per sub-column, in order) that a batch pass drew."""
    from argn.model import _per_example_grads

    grad = model.store.grad
    losses, grads = [], []
    for r in range(codes.shape[0]):
        replay = iter([mask[r : r + 1] for mask in drawn])
        monkeypatch.setattr(nn, "dropout_mask", lambda shape, rate, rng: next(replay))
        grad[...] = 0
        row_losses, _ = _per_example_grads(model, codes[r : r + 1], order, (rate, np.random.default_rng(0)))
        losses.append(float(row_losses[0]))
        grads.append(grad.copy())
        assert next(replay, None) is None
    grad[...] = 0
    return np.array(losses), np.array(grads)


def ghost_case():
    model = ArgnModel(subcols([3, 4, 2]))
    model.init_params(np.random.default_rng(1), dtype=np.float64)
    # random biases keep pre-activations off the ReLU kink and away from zero
    model.store.value[...] = np.random.default_rng(2).normal(scale=0.5, size=model.store.value.size)
    codes = np.random.default_rng(3).integers(0, 2, size=(12, 3)).astype(np.int32)
    return model, codes


def norm_rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("dropout", [0.0, 0.25])
@pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
def test_ghost_norms_and_clipped_sum_match_batch_of_one_oracle(order, dropout, monkeypatch):
    from argn.model import _per_example_grads

    model, codes = ghost_case()
    drawn = record_dropout_masks(monkeypatch)
    _per_example_grads(model, codes, order, (dropout, np.random.default_rng(5)))
    plain_masks = list(drawn)
    assert len(plain_masks) == (len(order) if dropout else 0)
    oracle_losses, grads = per_example_grads_oracle(model, codes, order, dropout, plain_masks, monkeypatch)
    oracle_norms = np.linalg.norm(grads, axis=1)
    clip = float(np.median(oracle_norms))  # clips about half the rows

    drawn = record_dropout_masks(monkeypatch)
    losses, norms = _per_example_grads(model, codes, order, (dropout, np.random.default_rng(5)), clip)
    assert all(np.array_equal(a, b) for a, b in zip(drawn, plain_masks, strict=True))
    np.testing.assert_allclose(norms, oracle_norms, rtol=1e-10, atol=0)
    np.testing.assert_allclose(losses, oracle_losses, rtol=1e-12, atol=0)
    scales = np.minimum(1.0, clip / oracle_norms)
    assert 0 < (scales < 1).sum() < len(scales)
    assert norm_rel_err(model.store.grad, scales @ grads) < 1e-10


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)])
def test_plain_and_dp_passes_draw_the_same_dropout_masks(order, monkeypatch):
    from argn.model import _per_example_grads

    model, codes = ghost_case()
    drawn = record_dropout_masks(monkeypatch)
    plain_rng, dp_rng = np.random.default_rng(9), np.random.default_rng(9)
    _per_example_grads(model, codes, order, (0.25, plain_rng))
    plain_masks = drawn[:]
    _per_example_grads(model, codes, order, (0.25, dp_rng), 1.0)
    dp_masks = drawn[len(plain_masks):]
    assert [m.shape for m in plain_masks] == [(len(codes), model.sizes.regressor_dims[i]) for i in order]
    assert all(np.array_equal(a, b) for a, b in zip(plain_masks, dp_masks, strict=True))
    assert plain_rng.bit_generator.state == dp_rng.bit_generator.state


def test_ghost_huge_clip_is_the_summed_gradient_and_one_row_clips_to_exact_norm():
    from argn.model import _per_example_grads

    for dropout in (0.0, 0.25):
        model, codes = ghost_case()
        order = (2, 0, 1)
        _per_example_grads(model, codes, order, (dropout, np.random.default_rng(0)))
        summed = codes.shape[0] * model.store.grad  # the plain mean gradient times n
        model.store.grad[...] = 0
        _, norms = _per_example_grads(model, codes, order, (dropout, np.random.default_rng(0)), 1e12)
        assert norms.max() < 1e12
        assert norm_rel_err(model.store.grad, summed) < 1e-10, dropout

        model.store.grad[...] = 0
        _, (norm,) = _per_example_grads(model, codes[:1], order, (dropout, np.random.default_rng(0)), 1e12)
        model.store.grad[...] = 0
        _per_example_grads(model, codes[:1], order, (dropout, np.random.default_rng(0)), norm / 2)
        assert np.linalg.norm(model.store.grad) == pytest.approx(norm / 2, rel=1e-12), dropout


def test_dp_batch_memory_stays_below_ten_copies_of_the_weights():
    """One batch of 64 rows on a store of about a million floats, with DP and
    without: the gradient sum lives in the store's own gradient buffer, with
    no copy of the weights per example, and the per-column activations held
    until the sum is taken stay small."""
    import tracemalloc

    from argn.nn import DpConfig

    data = np.random.default_rng(0).integers(0, 3000, size=(72, 2)).astype(np.int32)
    encoders = subcols([3000, 3000])
    encoded = EncodedTable(encoders.sub_columns, data)  # 7 validation rows, 65 train rows
    for dp in (DpConfig(enabled=True, clip_norm=1.0, noise_multiplier=1.0), DpConfig()):
        model = ArgnModel(encoders)
        cfg = TrainConfig(batch_size=64, max_epochs=1, seed=0, dp=dp)
        tracemalloc.start()
        try:
            train(model, encoded, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.store.value.size > 500_000
        assert peak < 10 * model.store.value.nbytes, dp


def test_plain_step_adds_each_column_before_the_next():
    """A plain step knows its row weights before the backward, so it adds each
    sub-column's gradients at once and holds no column's activations past its
    own: with 60 sub-columns, the step's peak stays below the (h, dlogits,
    dpre) of every column held together."""
    import tracemalloc

    from argn.model import _per_example_grads

    model = fresh_model([10] * 60)
    codes = np.random.default_rng(1).integers(0, 10, size=(256, 60)).astype(np.int32)
    sizes = model.sizes
    held = 256 * (sum(sizes.cardinalities) + 2 * sum(sizes.regressor_dims)) * model.store.value.itemsize
    tracemalloc.start()
    try:
        _per_example_grads(model, codes, tuple(range(60)), (0.25, np.random.default_rng(2)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < held


# -- training with DP --------------------------------------------------------------


def test_training_with_dp_runs_and_is_deterministic():
    from argn.nn import DpConfig

    encoded, _ = lookup_table_data(n_rows=60, cardinality=3)

    def run():
        model = ArgnModel(subcols([3, 3]))
        cfg = TrainConfig(
            batch_size=30,
            max_epochs=2,
            seed=11,
            dp=DpConfig(enabled=True, clip_norm=1.0, noise_multiplier=0.5),
        )
        train(model, encoded, cfg)
        return model.store.value.copy()

    a, b = run(), run()
    np.testing.assert_array_equal(a, b)
    assert np.isfinite(a).all()


def test_fixed_order_training():
    encoded, mapping = lookup_table_data(n_rows=300)
    model = ArgnModel(subcols([10, 10]))
    cfg = TrainConfig(batch_size=64, initial_lr=5e-3, max_epochs=60, order_mode="fixed", seed=2)
    history = train(model, encoded, cfg)
    assert history["val_loss"][-1] < 2.5  # learned something
