import math

import numpy as np
import pytest

from argn.encoders import EncodedTable, SubColumn
from argn.model import (
    ArgnModel,
    PatienceController,
    TrainConfig,
    compute_layer_sizes,
    forward_column,
    negative_log_likelihood,
    order_mask_matrix,
    train,
)
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


def subcols(cardinalities, prefix="x"):
    return [SubColumn(f"{prefix}{i}", c, f"{prefix}{i}") for i, c in enumerate(cardinalities)]


def fresh_model(cardinalities, seed=0, order_mode="any_order"):
    model = ArgnModel(subcols(cardinalities), order_mode=order_mode)
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


def test_order_mask_matrix_matches_masked_context(rng):
    model = fresh_model([3, 4, 2, 5])
    order = [2, 0, 3, 1]
    masks = order_mask_matrix(model, order)
    embs = [rng.normal(size=e) for e in model.sizes.embed_dims]
    full = np.concatenate(embs)
    for pos, col in enumerate(order):
        np.testing.assert_array_equal(full * masks[pos], masked_context(embs, order, col))


# -- forward -----------------------------------------------------------------------


def test_forward_column_probabilities_sum_to_one(rng):
    model = fresh_model([3, 4, 5])
    ctx = rng.normal(size=model.sizes.context_width).astype(np.float32)
    for i in range(3):
        p = forward_column(model, ctx, i)
        assert p.shape == (model.sub_columns[i].cardinality,)
        assert p.sum() == pytest.approx(1.0, abs=1e-6)


def test_forward_column_zero_predictor_is_uniform(rng):
    model = fresh_model([4, 6])
    for i in range(2):
        model.params[f"V{i}"].value[...] = 0
        model.params[f"c{i}"].value[...] = 0
    ctx = rng.normal(size=model.sizes.context_width).astype(np.float32)
    np.testing.assert_allclose(forward_column(model, ctx, 0), 0.25, atol=1e-7)
    np.testing.assert_allclose(forward_column(model, ctx, 1), 1 / 6, atol=1e-7)


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
        out1 = forward_column(model, ctx, target)
        perturbed = codes.copy()
        for j in later:
            perturbed[0, j] = rng.integers(3)
        embs2 = [model.params[f"E{j}"].value[perturbed[0, j]] for j in range(4)]
        ctx2 = masked_context(embs2, order, target)
        out2 = forward_column(model, ctx2, target)
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
    return EncodedTable(subcols([cardinality, cardinality]), data), mapping


def train_lookup(order_mode="any_order", seed=0):
    encoded, mapping = lookup_table_data(seed=seed)
    model = ArgnModel(encoded.sub_columns, order_mode=order_mode)
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
        ctx = np.zeros(width, dtype=np.float32)
        ctx[model.slot(0)] = model.params["E0"].value[c]
        p = forward_column(model, ctx, 1)
        assert int(np.argmax(p)) == mapping[c]


def test_training_requires_rows():
    encoded, _ = lookup_table_data(n_rows=5)
    model = ArgnModel(encoded.sub_columns)
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
    encoded = EncodedTable(subcols([3, 3, 3]), data)
    model = ArgnModel(encoded.sub_columns)
    train(model, encoded, TrainConfig(batch_size=64, max_epochs=5, seed=1))
    embs = [model.params[f"E{j}"].value[1] for j in range(3)]
    for order in itertools.permutations(range(3)):  # all D! orders
        for target in order:
            ctx = masked_context(embs, order, target)
            p = forward_column(model, ctx, target)
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
    from argn.model import _batch_losses

    model = fresh_model([3, 4, 2], seed=5)
    rows = np.random.default_rng(0).integers(0, 2, size=(50, 3)).astype(np.int32)
    order = (2, 0, 1)
    direct = float(_batch_losses(model, rows, order, False, None, False).mean())
    assert negative_log_likelihood(model, rows, order) == pytest.approx(direct, abs=1e-9)


def test_nll_near_zero_for_learned_deterministic_column():
    model, mapping, _, encoded = train_lookup()
    nll_x2_given_x1 = []
    width = model.sizes.context_width
    for c in range(10):
        ctx = np.zeros(width, dtype=np.float32)
        ctx[model.slot(0)] = model.params["E0"].value[c]
        p = forward_column(model, ctx, 1)
        nll_x2_given_x1.append(-math.log(float(p[mapping[c]])))
    assert np.mean(nll_x2_given_x1) < 0.15


# -- whole-model gradient -----------------------------------------------------------


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
def test_full_model_gradient_matches_finite_differences(order):
    """Every coordinate of the flat store in float64: the masked contexts, the
    embedding scatter-add (codes repeat across rows), regressors and
    predictors, checked block by block."""
    from argn.model import _batch_losses

    model = ArgnModel(subcols([3, 4, 2]))
    model.init_params(np.random.default_rng(1), dtype=np.float64)
    # random biases keep the first column's pre-activations off the ReLU kink
    model.store.value[...] = np.random.default_rng(2).normal(scale=0.5, size=model.store.value.size)
    codes = np.array([[0, 1, 1], [2, 3, 0], [0, 1, 1], [1, 0, 1], [2, 2, 0]], dtype=np.int32)

    def loss():
        return float(_batch_losses(model, codes, order, False, None, False).mean())

    model.store.grad[...] = 0
    _batch_losses(model, codes, order, False, None, True)
    numeric = central_diff(loss, model.store.value, h=1e-6)
    offset = 0
    for name, p in model.params.items():
        block = numeric[offset : offset + p.value.size].reshape(p.value.shape)
        assert rel_err(p.grad, block) < REL_TOL, name
        offset += p.value.size
    assert offset == model.store.value.size
    # the last sub-column in the order is never context: its embedding gets no gradient
    assert not model.params[f"E{order[-1]}"].grad.any()
    assert model.params[f"E{order[0]}"].grad.any()


# -- training with DP --------------------------------------------------------------


def test_training_with_dp_runs_and_is_deterministic():
    from argn.nn import DpConfig

    encoded, _ = lookup_table_data(n_rows=60, cardinality=3)

    def run():
        model = ArgnModel(encoded.sub_columns)
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
    model = ArgnModel(encoded.sub_columns, order_mode="fixed", fixed_order=[0, 1])
    cfg = TrainConfig(batch_size=64, initial_lr=5e-3, max_epochs=60, order_mode="fixed", seed=2)
    history = train(model, encoded, cfg)
    assert history["val_loss"][-1] < 2.5  # learned something
