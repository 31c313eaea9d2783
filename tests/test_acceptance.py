"""Acceptance suite: ten gate criteria, one pass/fail line each.

Heavy pieces (the overfit-vs-protected DCR comparison and the 64-shadow
attack run) are fully seeded, so the asserted margins are deterministic.
Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import contextlib
import json
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from argn.audit import (
    META_ATTACKS,
    AttackContext,
    AuditConfig,
    achilles_score,
    argn_generator,
    build_shadow_trials,
    generate_shadow_sets,
    run_distance_attack,
    run_shadow_attack,
)
from argn.cli import cli
from argn.encoders import EncodingOptions, encode_table, fit_encoders
from argn.metrics import dcr, dcr_cdf_integral, jsd, wasserstein1
from argn.model import (
    ArgnModel,
    PatienceController,
    TrainConfig,
    _per_example_grads,
    compute_layer_sizes,
    negative_log_likelihood,
    train,
)
from argn.nn import (
    DpConfig,
    Param,
    dense_backward,
    dense_forward,
    dp_sgd_step,
    softmax,
    softmax_cross_entropy,
)
from argn.persist import load_model, save_model
from argn.protect import RARE_TOKEN, ValueProtectionConfig, protect_extreme_values, protect_rare_categories
from argn.sampling import GenerationRequest, generate
from argn.tables import write_csv
from argn.util import mann_whitney_auc as auc
from conftest import acceptance_table, make_table, table_rows
from test_model import lookup_table_data, masked_context, subcols


@contextlib.contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} FAIL: {summary}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {summary}")


# -- 1: gradient correctness ---------------------------------------------------


def test_criterion_1_gradient_correctness():
    h, tol = 1e-3, 1e-4
    rng = np.random.default_rng(42)

    def central(f, x):
        g = np.zeros_like(x)
        flat, gf = x.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = f()
            flat[i] = orig - h
            lo = f()
            flat[i] = orig
            gf[i] = (hi - lo) / (2 * h)
        return g

    def check(analytic, numeric):
        denom = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
        assert np.abs(analytic - numeric).max() / denom < tol

    with criterion(1, "analytic gradients match central differences (h=1e-3, rel err < 1e-4)"):
        for _ in range(20):
            n_in, n_out = int(rng.integers(1, 6)), int(rng.integers(2, 7))
            w = Param("w", rng.normal(size=(n_out, n_in)))
            b = Param("b", rng.normal(size=n_out))
            x = rng.normal(size=(1, n_in))
            d = rng.normal(size=(1, n_out))

            def dense_loss():
                y, _ = dense_forward(x, w, b, "relu")
                return float(np.sum(d * y))

            _, cache = dense_forward(x, w, b, "relu")
            dpre, dx = dense_backward(d, cache, w)
            check(np.outer(dpre, x), central(dense_loss, w.value))
            check(dpre[0], central(dense_loss, b.value))
            check(dx, central(dense_loss, x))

            logits = rng.normal(size=(1, n_out))
            target = rng.integers(n_out, size=1)

            def xent_loss():
                (l,), _ = softmax_cross_entropy(logits, target)
                return float(l)

            _, grad = softmax_cross_entropy(logits, target)
            check(grad, central(xent_loss, logits))

        # embeddings: the E blocks of the training pass's mean gradient, on a
        # float64 model whose biases keep every ReLU active for any context
        model = ArgnModel(subcols([3, 4, 2]))
        model.init_params(rng, dtype=np.float64)
        bound = max(np.abs(model.params[f"E{j}"].value).max() for j in range(3))
        for i in range(3):
            model.params[f"b{i}"].value[...] = 1.0 + bound * np.abs(model.params[f"W{i}"].value).sum(axis=1)
        codes = np.array([[0, 1, 1], [2, 3, 0], [0, 1, 1], [1, 0, 1], [2, 2, 0]], dtype=np.int32)
        for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
            model.store.grad[...] = 0
            _per_example_grads(model, codes, order, None)  # no rng: dropout off
            for j in range(3):
                emb = model.params[f"E{j}"]
                check(emb.grad, central(lambda: negative_log_likelihood(model, codes, order), emb.value))


# -- 2: causality ----------------------------------------------------------------


def test_criterion_2_causality_bit_identical():
    model = ArgnModel(subcols([3, 4, 2, 5]))
    model.init_params(np.random.default_rng(7))
    rng = np.random.default_rng(11)
    with criterion(2, "masking: outputs bit-identical under perturbation of later sub-columns"):
        for _ in range(50):
            order = tuple(rng.permutation(4))
            pos = int(rng.integers(4))
            target = order[pos]
            codes = np.array([rng.integers(c) for c in (3, 4, 2, 5)])
            embs = [model.params[f"E{j}"].value[codes[j]] for j in range(4)]
            before = softmax(model.column_logits(masked_context(embs, order, target)[None], target)[0])
            for j in order[pos + 1 :]:
                codes[j] = rng.integers((3, 4, 2, 5)[j])
            embs2 = [model.params[f"E{j}"].value[codes[j]] for j in range(4)]
            after = softmax(model.column_logits(masked_context(embs2, order, target)[None], target)[0])
            assert before.tobytes() == after.tobytes()


# -- 3: learnability ---------------------------------------------------------------


def test_criterion_3_learnability():
    encoded, mapping = lookup_table_data(n_rows=1000, cardinality=10, seed=0)
    model = ArgnModel(subcols([10, 10]))
    train(model, encoded, TrainConfig(batch_size=128, initial_lr=5e-3, max_epochs=150, seed=0))
    with criterion(3, "deterministic pair learned: 100% argmax accuracy, marginal TVD < 0.05"):
        width = model.sizes.context_width
        correct = 0
        for row in encoded.data:
            ctx = np.zeros((1, width), dtype=np.float32)
            ctx[0, model.slot(0)] = model.params["E0"].value[row[0]]
            correct += int(np.argmax(softmax(model.column_logits(ctx, 1)[0]))) == row[1]
        assert correct == encoded.row_count  # 100% on 1k rows

        sample = generate(model, GenerationRequest(n_rows=10_000, seed=1))
        for col in range(2):
            train_counts = np.bincount(encoded.data[:, col], minlength=10)
            syn_counts = np.bincount(sample.data[:, col], minlength=10)
            tvd = 0.5 * np.abs(
                train_counts / train_counts.sum() - syn_counts / syn_counts.sum()
            ).sum()
            assert tvd < 0.05


# -- 4: layer-size heuristics ----------------------------------------------------------


def test_criterion_4_layer_size_heuristics():
    with criterion(4, "layer sizes on cardinalities {1,2,16,100} match hand evaluation"):
        sizes = compute_layer_sizes([1, 2, 16, 100])
        hand_embed = tuple(math.ceil(3 * d**0.25) for d in (1, 2, 16, 100))
        hand_reg = tuple(math.ceil(16 * max(1.0, math.log(d))) for d in (1, 2, 16, 100))
        assert sizes.embed_dims == hand_embed == (3, 4, 6, 10)
        assert sizes.regressor_dims == hand_reg == (16, 16, 45, 74)
        assert sizes.cardinalities == (1, 2, 16, 100)


# -- 5: early stopping hand trace -------------------------------------------------------


def test_criterion_5_early_stopping_trace():
    with criterion(5, "patience trace: stop after epoch 7, halve LR after epoch 5, restore epoch 2"):
        defaults = TrainConfig()
        assert defaults.patience_stop == 5 and defaults.patience_lr == 3
        ctrl = PatienceController(defaults.patience_stop, defaults.patience_lr)
        halves, stop_epoch = [], None
        for epoch, loss in enumerate([1.0, 0.9, 0.95, 0.96, 0.97, 0.98, 0.99], start=1):
            decision = ctrl.update(loss)
            if decision.halve_lr:
                halves.append(epoch)
            if decision.stop:
                stop_epoch = epoch
                break
        assert stop_epoch == 7
        assert halves == [5]
        assert ctrl.best_epoch == 2


# -- 6: privacy mechanisms ----------------------------------------------------------------


def test_criterion_6_privacy_mechanisms():
    with criterion(6, "rare/extreme value protection and DP-SGD behave as specified"):
        # (a) rare-category protection at fixed threshold 8
        rng = np.random.default_rng(0)
        values = (
            ["common_a"] * 40 + ["common_b"] * 12 + ["edge"] * 8
            + [f"rare_{i}" for i in range(30) for _ in (range(1) if i % 2 else range(2))]
        )
        rng.shuffle(values)
        out = protect_rare_categories(make_table({"c": values}), "c", ValueProtectionConfig(rare_min_count=8)).cells
        counts: dict = {}
        for v in out:
            counts[v] = counts.get(v, 0) + 1
        for value, count in counts.items():
            if value != RARE_TOKEN:
                assert count >= 8
        assert RARE_TOKEN in counts

        # (b) extreme-value protection k=5 on 1..100
        clipped = protect_extreme_values(
            make_table({"x": [str(i) for i in range(1, 101)]}), "x", ValueProtectionConfig(extreme_k=5)
        ).cells
        nums = [float(v) for v in clipped]
        assert max(nums) == 96.0 and min(nums) == 5.0

        # (c) DP-SGD: sigma=0 + huge clip == vanilla SGD; noise std = sigma*C/batch
        rng = np.random.default_rng(1)
        grads = [rng.normal(size=(4, 3)) for _ in range(8)]
        p = Param("p", np.zeros((4, 3)))
        p.grad[...] = np.sum(grads, axis=0)
        dp_sgd_step(p, len(grads), DpConfig(enabled=True, clip_norm=1e12), lr=0.05, rng=rng)
        vanilla = -0.05 * np.mean(grads, axis=0)
        assert np.abs(p.value - vanilla).max() < 1e-6

        sigma, c, batch = 1.0, 2.0, 4
        noise_rng = np.random.default_rng(2)
        deltas = np.empty(10_000)
        for i in range(deltas.size):
            q = Param("q", np.zeros(1))
            dp_sgd_step(q, batch, DpConfig(enabled=True, clip_norm=c, noise_multiplier=sigma),
                        lr=1.0, rng=noise_rng)
            deltas[i] = q.value[0]
        expected = sigma * c / batch
        assert abs(deltas.std() - expected) / expected < 0.05


# -- 7: metric oracles ----------------------------------------------------------------------


def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(3)
    with criterion(7, "JSD/WD/AUC/DCR-integral match their independent oracles"):
        assert jsd(["a", "b", "a"], ["a", "b", "a"]) == 0.0
        assert abs(jsd(["a", "a"], ["b", "b"]) - 1.0) <= 1e-12

        for _ in range(5):
            n = int(rng.integers(2, 21))
            a, b = rng.normal(size=n), rng.normal(size=n)
            lo = min(a.min(), b.min())
            hi = max(a.max(), b.max())
            sa, sb = (a - lo) / (hi - lo), (b - lo) / (hi - lo)
            cost = np.abs(sa[:, None] - sb[None, :])
            rows, cols = linear_sum_assignment(cost)
            assert abs(wasserstein1(a, b) - cost[rows, cols].sum() / n) < 1e-9

        scores = np.round(rng.normal(size=200), 1)
        labels = rng.integers(0, 2, size=200).astype(bool)
        labels[:2] = [True, False]
        wins = sum(
            1.0 if p > q else (0.5 if p == q else 0.0)
            for p in scores[labels]
            for q in scores[~labels]
        )
        assert auc(scores, labels) == wins / (labels.sum() * (~labels).sum())

        d = rng.uniform(size=300)
        assert dcr_cdf_integral(d, d.copy()) == 0.0
        d_test = rng.uniform(0.3, 1.2, size=300)
        assert dcr_cdf_integral(np.zeros(300), d_test) > 0  # syn = train copies


# -- 8 and 9 share the frozen 2k-row mixed table ----------------------------------------------


@pytest.fixture(scope="module")
def frozen_tables():
    return acceptance_table(2000, seed=100), acceptance_table(2000, seed=900)


@pytest.fixture(scope="module")
def protected_model_setup(frozen_tables):
    train_tbl, _ = frozen_tables
    encoders = fit_encoders(train_tbl, train_tbl.schema, EncodingOptions(n_bins=100))
    encoded = encode_table(train_tbl, encoders)
    return train_tbl, encoders, encoded


def test_criterion_8_dcr_overfitting_direction(frozen_tables, protected_model_setup):
    train_tbl, test_tbl = frozen_tables
    _, encoders, encoded = protected_model_setup

    model_b = ArgnModel(encoders)
    train(model_b, encoded, TrainConfig(seed=0))  # defaults: dropout 0.25, early stopping

    model_a = ArgnModel(encoders)
    overfit_cfg = TrainConfig(
        dropout_rate=0.0, patience_stop=10**6 + 1, patience_lr=10**6, max_epochs=500, seed=0
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # intentional: patience disabled for the overfit run
        train(model_a, encoded, overfit_cfg)

    from argn.sampling import synthesize

    syn_a = synthesize(model_a, GenerationRequest(n_rows=2000, seed=10))
    syn_b = synthesize(model_b, GenerationRequest(n_rows=2000, seed=10))
    d_test = dcr(train_tbl, test_tbl)
    integral_a = dcr_cdf_integral(dcr(train_tbl, syn_a), d_test)
    integral_b = dcr_cdf_integral(dcr(train_tbl, syn_b), d_test)
    with criterion(8, f"DCR integrals: overfit {integral_a:+.4f} > protected {integral_b:+.4f} <= 0.05"):
        assert integral_a > integral_b
        assert integral_b <= 0.05


def test_criterion_9_membership_inference(frozen_tables):
    data, _ = frozen_tables
    target_idx = int(np.argmax(achilles_score(data)))
    target = list(table_rows(data)[target_idx])
    pool = data.subset([i for i in range(data.row_count) if i != target_idx])
    cfg = AuditConfig(n_shadow=64, shadow_size=400, n_queries=100, subset_size=3, seed=0)
    ctx = AttackContext(pool, target, cfg)
    trials = build_shadow_trials(pool, target, cfg)

    # planted-leak oracle: the generator emits its training set verbatim
    leak_labeled = [(t.rows, t.member) for t in trials]
    leak = run_distance_attack(leak_labeled, target, "l2", ctx)

    # protected generator: model-B defaults plus value protection
    generator = argn_generator(
        TrainConfig(seed=0), ValueProtectionConfig(enabled=True), EncodingOptions(n_bins=100)
    )
    syn_sets = generate_shadow_sets(trials, generator)
    labeled = [(syn, t.member) for syn, t in zip(syn_sets, trials)]
    results = {}
    for kind in META_ATTACKS:
        results[kind] = run_shadow_attack(labeled, kind, cfg, ctx)
    for metric, name in (("hamming", "closest_hamming"), ("l2", "closest_l2"),
                         ("lookup", "direct_lookup"), ("kde", "kernel_density")):
        results[name] = run_distance_attack(labeled, target, metric, ctx)

    null_rng = np.random.default_rng(123)
    base = results["logistic_gh"]
    null_auc = auc(base.scores, base.labels[null_rng.permutation(len(base.labels))])

    summary = ", ".join(f"{k}={r.auc:.2f}" for k, r in results.items())
    with criterion(9, f"MIA: leak l2 auc={leak.auc:.2f}; protected attacks in [0.35,0.65] ({summary}); null={null_auc:.2f}"):
        assert leak.auc >= 0.9
        for name, res in results.items():
            assert 0.35 <= res.auc <= 0.65, f"{name} auc={res.auc}"
        assert abs(null_auc - 0.5) <= 0.1


# -- 10: end-to-end reproducibility --------------------------------------------------------------


def test_criterion_10_reproducibility(tmp_path):
    table = acceptance_table(400, seed=5)
    data_path = str(tmp_path / "data.csv")
    write_csv(table, data_path)
    config_path = str(tmp_path / "cfg.json")
    with open(config_path, "w") as fh:
        json.dump({"train": {"max_epochs": 8, "batch_size": 64}, "encoding": {"n_bins": 20}}, fh)

    with criterion(10, "seeded CLI runs are byte-identical; save/load round trip is bit-exact"):
        model_paths = [str(tmp_path / f"m{i}.argn") for i in (1, 2)]
        csv_paths = [str(tmp_path / f"s{i}.csv") for i in (1, 2)]
        for m, c in zip(model_paths, csv_paths):
            assert cli(["train", "--data", data_path, "--config", config_path,
                        "--out", m, "--seed", "7"]) == 0
            assert cli(["generate", "--model", m, "-n", "200", "--out", c, "--seed", "7"]) == 0
        with open(model_paths[0], "rb") as f1, open(model_paths[1], "rb") as f2:
            assert f1.read() == f2.read()
        with open(csv_paths[0], "rb") as f1, open(csv_paths[1], "rb") as f2:
            assert f1.read() == f2.read()

        loaded = load_model(model_paths[0])
        resaved = str(tmp_path / "resaved.argn")
        save_model(loaded, resaved)
        with open(model_paths[0], "rb") as f1, open(resaved, "rb") as f2:
            assert f1.read() == f2.read()
        original = load_model(model_paths[0])
        assert original.store.value.tobytes() == loaded.store.value.tobytes()
