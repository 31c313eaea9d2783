import math

import numpy as np
import pytest

from argn.nn import (
    ADAM_BLOCK,
    DpConfig,
    Param,
    adam_step,
    dense_backward,
    dense_forward,
    dp_sgd_step,
    dropout_mask,
    softmax,
    softmax_cross_entropy,
)

H = 1e-3
REL_TOL = 1e-4


def central_diff(f, x, h=H):
    """Central finite differences of a scalar function over a flat array."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f()
        flat[i] = orig - h
        lo = f()
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * h)
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


# -- dense -------------------------------------------------------------------


def test_dense_identity_relu():
    w = Param("w", np.eye(2, dtype=np.float64))
    b = Param("b", np.zeros(2, dtype=np.float64))
    y, _ = dense_forward(np.array([[-1.0, 2.0]]), w, b, "relu")
    np.testing.assert_array_equal(y[0], [0.0, 2.0])


def test_dense_zero_width_input_gives_bias():
    w = Param("w", np.zeros((3, 0), dtype=np.float64))
    b = Param("b", np.array([-1.0, 0.5, 2.0]))
    y, _ = dense_forward(np.zeros((1, 0)), w, b, "relu")
    np.testing.assert_array_equal(y[0], [0.0, 0.5, 2.0])


def test_dense_dimension_mismatch():
    w = Param("w", np.zeros((2, 3)))
    b = Param("b", np.zeros(2))
    with pytest.raises(ValueError, match="width"):
        dense_forward(np.zeros((1, 4)), w, b)


def test_dense_gradients_match_finite_differences(rng):
    for _ in range(20):
        n_in, n_out = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        w = Param("w", rng.normal(size=(n_out, n_in)))
        b = Param("b", rng.normal(size=n_out))
        x = rng.normal(size=(1, n_in))
        direction = rng.normal(size=(1, n_out))  # random scalarization L = d . y

        def loss():
            y, _ = dense_forward(x, w, b, "relu")
            return float(np.sum(direction * y))

        y, cache = dense_forward(x, w, b, "relu")
        dpre, dx = dense_backward(direction, cache, w)

        assert rel_err(np.outer(dpre, x), central_diff(loss, w.value)) < REL_TOL
        assert rel_err(dpre[0], central_diff(loss, b.value)) < REL_TOL
        assert rel_err(dx, central_diff(loss, x)) < REL_TOL


# -- batch shape -------------------------------------------------------------


def _dense_backward_of_a_vector():
    w, b = Param("w", np.zeros((2, 3))), Param("b", np.zeros(2))
    _, cache = dense_forward(np.zeros((1, 3)), w, b)
    dense_backward(np.zeros(2), cache, w)


@pytest.mark.parametrize("call", [
    lambda: dense_forward(np.zeros(3), Param("w", np.zeros((2, 3))), Param("b", np.zeros(2))),
    _dense_backward_of_a_vector,
    lambda: softmax(np.zeros(3)),
    lambda: softmax_cross_entropy(np.zeros(3), 0),
], ids=["dense_forward", "dense_backward", "softmax", "softmax_cross_entropy"])
def test_batch_kernels_reject_a_vector(call):
    with pytest.raises(ValueError, match=r"\(rows, width\) batch, got shape \(\d+,\)"):
        call()


# -- softmax cross entropy ----------------------------------------------------


def test_softmax_xent_uniform():
    (loss,), (grad,) = softmax_cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
    assert loss == pytest.approx(np.log(2), abs=1e-12)
    np.testing.assert_allclose(grad, [-0.5, 0.5])


def test_softmax_xent_stable_at_large_logits():
    (loss,), grad = softmax_cross_entropy(np.array([[1000.0, 0.0]]), np.array([0]))
    assert loss == pytest.approx(0.0, abs=1e-9)
    assert np.isfinite(grad).all()


def test_softmax_xent_gradient_matches_finite_differences(rng):
    for _ in range(20):
        k = int(rng.integers(2, 8))
        logits = rng.normal(size=(1, k))
        target = rng.integers(k, size=1)

        def loss():
            (l,), _ = softmax_cross_entropy(logits, target)
            return float(l)

        _, grad = softmax_cross_entropy(logits, target)
        assert rel_err(grad, central_diff(loss, logits)) < REL_TOL


def test_softmax_rows_sum_to_one(rng):
    logits = rng.normal(size=(50, 7)) * 50
    p = softmax(logits)
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)


def logits_in_layout(layout: str, rng) -> np.ndarray:
    """float32 logits: a one-row batch, the (rows, classes) transpose view
    of a class-major (classes, rows) block as the model returns it, or a
    row-major batch."""
    if layout == "one_row":
        return rng.normal(size=(1, 7)).astype(np.float32)
    if layout == "class_major":
        return (3 * rng.normal(size=(7, 30))).astype(np.float32).T
    return (3 * rng.normal(size=(30, 7))).astype(np.float32)


@pytest.mark.parametrize("layout", ["one_row", "class_major", "row_major"])
def test_softmax_kernels_never_write_into_their_logits(layout, rng):
    logits = logits_in_layout(layout, rng)
    if layout != "row_major":  # the transpose is contiguous: a kernel that took it
        assert np.shares_memory(np.ascontiguousarray(logits.T), logits)  # would get a view
    before = logits.copy()
    target = rng.integers(logits.shape[1], size=logits.shape[0])
    losses, grad = softmax_cross_entropy(logits, target)
    p = softmax(logits)
    np.testing.assert_array_equal(logits, before)
    assert not np.shares_memory(grad, logits) and not np.shares_memory(p, logits)
    exact = np.exp(before.astype(np.float64))
    exact /= exact.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(p, exact, rtol=1e-5, atol=1e-7)
    rows = np.arange(len(target))
    np.testing.assert_allclose(losses, -np.log(exact[rows, target]), rtol=1e-5, atol=1e-6)
    exact[rows, target] -= 1
    np.testing.assert_allclose(grad, exact, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("activation", ["relu", "none"])
@pytest.mark.parametrize("rows", [1, 9])
def test_dense_kernels_never_write_into_their_arguments(rows, activation, rng):
    x = rng.normal(size=(rows, 4)).astype(np.float32)
    w = Param("w", rng.normal(size=(3, 4)).astype(np.float32))
    b = Param("b", rng.normal(size=3).astype(np.float32))
    dy = rng.normal(size=(rows, 3)).astype(np.float32)
    arrays = (x, w.value, b.value, w.grad, b.grad, dy)
    before = [a.copy() for a in arrays]
    y, cache = dense_forward(x, w, b, activation)
    cached = [a.copy() for a in cache[:2]]
    kept_y = y.copy()
    dense_backward(dy, cache, w)
    for a, kept in zip((*arrays, *cache[:2], y), (*before, *cached, kept_y), strict=True):
        np.testing.assert_array_equal(a, kept)


# -- dropout -------------------------------------------------------------------


def test_dropout_rate_zero_all_ones(rng):
    np.testing.assert_array_equal(dropout_mask(10, 0.0, rng), np.ones(10))


def test_dropout_zero_fraction_concentrates(rng):
    mask = dropout_mask(100_000, 0.25, rng)
    zero_frac = float(np.mean(mask == 0))
    assert abs(zero_frac - 0.25) < 0.01


def test_dropout_inverted_scaling_preserves_expectation(rng):
    x = np.full(200_000, 3.0)
    mask = dropout_mask(x.shape, 0.25, rng)
    assert float(np.mean(x * mask)) == pytest.approx(3.0, rel=0.01)


# -- adam ----------------------------------------------------------------------


def test_adam_first_step_magnitude():
    p = Param("p", np.zeros(4, dtype=np.float64))
    p.grad[...] = 1.0
    adam_step(p, lr=1e-3, step=1)
    np.testing.assert_allclose(p.value, -9.99999e-4, rtol=1e-5)
    np.testing.assert_array_equal(p.grad, 0.0)


def test_adam_zero_grad_no_move():
    p = Param("p", np.ones(3))
    adam_step(p, lr=1e-3, step=1)
    np.testing.assert_array_equal(p.value, 1.0)


def test_adam_deterministic():
    def run():
        p = Param("p", np.linspace(0, 1, 5).astype(np.float32))
        for t in range(1, 4):
            p.grad[...] = np.float32(0.5)
            adam_step(p, lr=1e-2, step=t)
        return p.value.copy()

    np.testing.assert_array_equal(run(), run())


def adam_reference(value, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam in expression form, one temporary per operation."""
    m = np.zeros_like(value)
    v = np.zeros_like(value)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g**2
        value = value - lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
    return value


@pytest.mark.parametrize("shape", [(7, 5), (2 * ADAM_BLOCK + 3,)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_in_place_rounds_like_the_expression_form(rng, dtype, shape):
    value = rng.normal(size=shape).astype(dtype)
    grads = [rng.normal(size=shape).astype(dtype) for _ in range(6)]
    p = Param("p", value.copy())
    for t, g in enumerate(grads, start=1):
        p.grad[...] = g
        adam_step(p, 1e-2, t)
    assert p.value.tobytes() == adam_reference(value, grads, 1e-2).tobytes()


def test_adam_rejects_non_finite():
    p = Param("p", np.ones(2))
    p.grad[...] = np.nan
    with pytest.raises(FloatingPointError):
        adam_step(p, lr=1e-3, step=1)
    assert p.m is None  # no state was touched


# -- dp-sgd ---------------------------------------------------------------------


def test_dp_clip_to_exact_norm(rng):
    p = Param("p", np.zeros(4))
    c = 1.5
    g = np.full(4, 1.5)  # norm = 3.0 = 2C
    dp = DpConfig(enabled=True, clip_norm=c, noise_multiplier=0.0)
    p.grad[...] = g * (c / max(np.linalg.norm(g), c))  # the ghost pass's per-example clip
    dp_sgd_step(p, 1, dp, lr=1.0, rng=rng)
    assert np.linalg.norm(p.value) == pytest.approx(c, rel=1e-12)


def test_dp_sigma_zero_matches_plain_sgd(rng):
    grads = [rng.normal(size=(3, 2)) for _ in range(8)]
    p_dp = Param("p", np.zeros((3, 2)))
    dp = DpConfig(enabled=True, clip_norm=1e9, noise_multiplier=0.0)
    p_dp.grad[...] = np.sum(grads, axis=0)
    dp_sgd_step(p_dp, len(grads), dp, lr=0.1, rng=rng)
    mean_grad = np.mean(grads, axis=0)
    np.testing.assert_allclose(p_dp.value, -0.1 * mean_grad, atol=1e-6)


def test_dp_noise_std_matches_sigma_c_over_batch():
    rng = np.random.default_rng(7)
    sigma, c, batch = 1.0, 2.0, 4
    dp = DpConfig(enabled=True, clip_norm=c, noise_multiplier=sigma)
    deltas = np.empty(10_000)
    for i in range(deltas.size):
        p = Param("p", np.zeros(1))
        dp_sgd_step(p, batch, dp, lr=1.0, rng=rng)
        deltas[i] = p.value[0]
    expected = sigma * c / batch
    assert abs(deltas.std() - expected) / expected < 0.05


def test_dp_empty_batch_errors(rng):
    p = Param("p", np.zeros(1))
    dp = DpConfig(enabled=True, clip_norm=1.0)
    with pytest.raises(ValueError, match="empty"):
        dp_sgd_step(p, 0, dp, lr=0.1, rng=rng)


def test_dp_requires_enabled(rng):
    p = Param("p", np.zeros(1))
    with pytest.raises(ValueError):
        dp_sgd_step(p, 1, DpConfig(enabled=False), lr=0.1, rng=rng)


def test_dp_config_validation():
    with pytest.raises(ValueError):
        DpConfig(clip_norm=0.0)
    with pytest.raises(ValueError):
        DpConfig(noise_multiplier=-1.0)


@pytest.mark.parametrize("field", ["clip_norm", "noise_multiplier"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_dp_config_rejects_non_finite(field, bad):
    # a NaN clip_norm used to pass and turn clipping off: min(1.0, nan) is 1.0
    with pytest.raises(ValueError, match=field):
        DpConfig(enabled=True, **{field: bad})


def test_dp_config_rejects_a_non_boolean_enabled():
    with pytest.raises(TypeError, match="enabled"):
        DpConfig(enabled="false")  # a non-empty string is truthy: DP would silently run
