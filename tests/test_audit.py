import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argn.audit import (
    AttackContext,
    AuditConfig,
    accuracy_at_median,
    achilles_score,
    build_shadow_trials,
    extract_features,
    generate_shadow_sets,
    run_distance_attack,
    run_shadow_attack,
)
from argn.tables import RawTable
from argn.util import mann_whitney_auc as auc
from argn.util import class_ranks, midranks
from conftest import make_table, mixed_sample_table, table_rows


# -- AUC -----------------------------------------------------------------------


def test_auc_perfect_separation():
    assert auc([1.0, 2.0, 3.0, 10.0, 11.0, 12.0], [0, 0, 0, 1, 1, 1]) == 1.0


def test_auc_all_equal_is_half():
    assert auc([5.0] * 10, [0, 1] * 5) == 0.5


def test_auc_matches_pairwise_counting(rng):
    n = 200
    scores = np.round(rng.normal(size=n), 1)  # rounding forces ties
    labels = rng.integers(0, 2, size=n).astype(bool)
    if labels.all() or not labels.any():
        labels[0] = ~labels[0]
    pos = scores[labels]
    neg = scores[~labels]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    expected = wins / (len(pos) * len(neg))
    assert auc(scores, labels) == expected  # exact, including ties


def midranks_loop(values):
    """The per-block loop that ``midranks`` replaced, kept as its oracle."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, np.inf, -np.inf, np.nan]), st.floats()),
                max_size=40))
def test_midranks_equal_the_per_block_loop(values):
    """Ties (including -0.0 with 0.0 and inf with inf) share their block's
    mean rank; a NaN ties with nothing; an empty input has no ranks."""
    assert midranks(values).tolist() == midranks_loop(values).tolist()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.lists(st.booleans(), max_size=30), st.integers(0, 2**32))
def test_class_ranks_are_the_per_class_permutation_loop(labels, seed):
    """The loop that the detection split and the audit folds each ran: one
    permutation per class, False then True; a class with no rows draws
    nothing, so the generator ends in the same state."""
    labels = np.array(labels, dtype=bool)
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = np.zeros(len(labels), dtype=np.int64)
    for cls in (False, True):
        idx = np.flatnonzero(labels == cls)
        idx = idx[reference.permutation(len(idx))]
        expected[idx] = np.arange(len(idx))
    assert class_ranks(labels, rng).tolist() == expected.tolist()
    assert rng.bit_generator.state == reference.bit_generator.state


def test_auc_negation_flips(rng):
    scores = rng.normal(size=50)
    labels = rng.integers(0, 2, size=50).astype(bool)
    labels[:2] = [True, False]
    assert auc(-scores, labels) == pytest.approx(1.0 - auc(scores, labels), abs=1e-12)


def test_auc_single_class_errors():
    with pytest.raises(ValueError):
        auc([1.0, 2.0], [1, 1])


# -- Achilles ---------------------------------------------------------------------


def test_achilles_duplicated_row_scores_zero():
    table = make_table({"c": ["dup"] * 6 + ["a", "b", "c", "d"]})
    scores = achilles_score(table, k=5)
    assert scores[0] == pytest.approx(0.0, abs=1e-9)


def test_achilles_orthogonal_one_hots_score_one():
    table = make_table({"c": [f"v{i}" for i in range(6)]})
    scores = achilles_score(table, k=5)
    np.testing.assert_allclose(scores, 1.0, atol=1e-9)


def test_achilles_matches_brute_force(rng):
    table = mixed_sample_table(20, seed=8)
    k = 5
    got = achilles_score(table, k=k)

    from argn.linear import MixedFeatureMap

    x = MixedFeatureMap(table).transform(table)
    expected = []
    for i in range(20):
        dists = []
        for j in range(20):
            if i == j:
                continue
            num = float(x[i] @ x[j])
            den = float(np.linalg.norm(x[i]) * np.linalg.norm(x[j]))
            dists.append(1.0 - num / den)
        expected.append(np.mean(sorted(dists)[:k]))
    np.testing.assert_allclose(got, expected, atol=1e-9)


def test_achilles_permutation_equivariant(rng):
    table = mixed_sample_table(25, seed=3)
    perm = rng.permutation(25)
    shuffled = table.subset(perm)
    np.testing.assert_allclose(achilles_score(shuffled, 4), achilles_score(table, 4)[perm], atol=1e-9)


def dense_achilles(table, k):
    """The all-pairs formula: the full n x n cosine-distance matrix, sorted."""
    from argn.linear import MixedFeatureMap

    x = MixedFeatureMap(table).transform(table)
    if not np.linalg.norm(x, axis=1).all():  # an all-zero row: the bias coordinate
        x = np.hstack([x, np.ones((len(x), 1))])
    unit = x / np.linalg.norm(x, axis=1)[:, None]
    dist = 1.0 - np.clip(unit @ unit.T, -1.0, 1.0)
    np.fill_diagonal(dist, np.inf)
    return np.sort(dist, axis=1)[:, :k].mean(axis=1)


def test_achilles_blocked_scan_matches_dense_formula(monkeypatch):
    table = mixed_sample_table(1100, seed=3)  # ten 119-row panels
    scores = {}
    for threads in ("1", "4"):
        monkeypatch.setenv("ARGN_THREADS", threads)
        scores[threads] = achilles_score(table, k=5)
    np.testing.assert_array_equal(scores["1"], scores["4"])
    # a row block's GEMM may round a product's last bit unlike the n x n one
    np.testing.assert_allclose(scores["1"], dense_achilles(table, 5), rtol=0, atol=1e-15)


def test_achilles_merges_k_nearest_across_column_tiles(monkeypatch):
    """64-row panels by 90-row tiles (90, 90, 90, 3): every row's nearest
    neighbours lie in several tiles, the last tile is narrower than k, and
    each panel meets its own rows in one or two of them."""
    import argn.metrics

    rng = np.random.default_rng(4)
    base = np.round(rng.uniform(1.0, 2.0, size=(91, 3)), 4)
    base[0] = 0.0  # the minimum of every column: an all-zero encoded row
    values = base[rng.permutation(np.repeat(np.arange(91), 3))]  # three copies: ties at distance 0
    table = make_table({f"x{j}": [f"{v:.4f}" for v in values[:, j]] for j in range(3)},
                       kinds={f"x{j}": "numeric" for j in range(3)})
    monkeypatch.setattr(argn.metrics, "SCAN_BYTES", 8 * 64 * 90)
    scores = {}
    for threads in ("1", "4"):
        monkeypatch.setenv("ARGN_THREADS", threads)
        scores[threads] = achilles_score(table, k=5)
    np.testing.assert_array_equal(scores["1"], scores["4"])
    np.testing.assert_allclose(scores["1"], dense_achilles(table, 5), rtol=0, atol=1e-15)


def test_achilles_memory_stays_below_one_dense_matrix(monkeypatch):
    """Each worker holds one SCAN_BYTES tile; the rest is the encoded
    features, whatever n^2 is (one dense matrix here is 122 MiB)."""
    import tracemalloc

    import argn.metrics
    from argn.linear import MixedFeatureMap

    table = mixed_sample_table(4000, seed=2)
    features = MixedFeatureMap(table).transform(table)
    monkeypatch.setenv("ARGN_THREADS", "4")
    tracemalloc.start()
    try:
        achilles_score(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 4 * argn.metrics.SCAN_BYTES + 4 * features.nbytes


def test_achilles_k_validation():
    table = make_table({"c": ["a", "b"]})
    with pytest.raises(ValueError):
        achilles_score(table, k=2)


# -- shadow trials -----------------------------------------------------------------


@pytest.fixture(scope="module")
def pool_and_target():
    data = mixed_sample_table(400, seed=1)
    target = list(table_rows(data)[0])
    pool = data.subset(range(1, 400))
    return pool, target


def test_shadow_trials_balance_and_sizes(pool_and_target):
    pool, target = pool_and_target
    cfg = AuditConfig(n_shadow=10, shadow_size=50, seed=0)
    trials = build_shadow_trials(pool, target, cfg)
    assert len(trials) == 10
    assert sum(t.member for t in trials) == 5
    assert all(t.rows.row_count == 50 for t in trials)
    for t in trials:
        contains = any(list(r) == target for r in table_rows(t.rows))
        assert contains == t.member


def test_shadow_trials_deterministic(pool_and_target):
    pool, target = pool_and_target
    cfg = AuditConfig(n_shadow=6, shadow_size=30, seed=9)
    a = build_shadow_trials(pool, target, cfg)
    b = build_shadow_trials(pool, target, cfg)
    for ta, tb in zip(a, b):
        assert table_rows(ta.rows) == table_rows(tb.rows)
        assert ta.seed == tb.seed


def test_shadow_trials_gather_the_parses_of_the_pool(pool_and_target, monkeypatch):
    import argn.tables

    pool, target = pool_and_target
    numeric = ("num_a", "num_b")
    for name in numeric:
        pool.values(name, "numeric")
    calls = []
    original = argn.tables.parse_column
    monkeypatch.setattr(argn.tables, "parse_column",
                        lambda cells, kind: calls.append(len(cells)) or original(cells, kind))
    for trial in build_shadow_trials(pool, target, AuditConfig(n_shadow=6, shadow_size=40)):
        for name in numeric:
            np.testing.assert_array_equal(trial.rows.values(name, "numeric"),
                                          original(trial.rows.column_values(name), "numeric"))
    assert calls == [1, 1]  # the target row, once per column


def test_shadow_trials_reject_target_in_pool(pool_and_target):
    pool, _ = pool_and_target
    cfg = AuditConfig(n_shadow=2, shadow_size=10)
    with pytest.raises(ValueError, match="must not be present"):
        build_shadow_trials(pool, list(table_rows(pool)[3]), cfg)


def test_shadow_trials_pool_too_small(pool_and_target):
    pool, target = pool_and_target
    with pytest.raises(ValueError, match="exceeds"):
        build_shadow_trials(pool, target, AuditConfig(n_shadow=2, shadow_size=10_000))


def test_n_shadow_must_be_even():
    with pytest.raises(ValueError):
        AuditConfig(n_shadow=7)


# -- features -----------------------------------------------------------------------


def test_query_feature_counts_exact_match(pool_and_target):
    pool, target = pool_and_target
    n_cols = len(pool.column_names)
    cfg = AuditConfig(n_shadow=2, shadow_size=10, n_queries=5, subset_size=n_cols, seed=0)
    ctx = AttackContext(pool, target, cfg)
    syn = RawTable(pool.schema, [list(c) for c in zip(target, table_rows(pool)[0], table_rows(pool)[1])])
    feats = extract_features(syn, target, "query_based", ctx)
    np.testing.assert_array_equal(feats, np.ones(5))  # full-width subset matches once


def test_naive_features_constant_column_zero_variance():
    pool = make_table({"n": ["5.0"] * 30, "c": ["a"] * 30}, kinds={"n": "numeric"})
    target = ["5.0", "a"]
    pool_rows = pool.subset(range(1, 30))
    cfg = AuditConfig(n_shadow=2, shadow_size=5, seed=0)
    ctx = AttackContext(pool_rows, target, cfg)
    feats = extract_features(pool_rows, target, "naive_gh", ctx)
    assert feats[2] == 0.0  # variance slot of the constant numeric column


def test_hist_features_sum_to_row_count(pool_and_target):
    pool, target = pool_and_target
    cfg = AuditConfig(n_shadow=2, shadow_size=10, seed=0)
    ctx = AttackContext(pool, target, cfg)
    syn = pool.subset(range(57))
    feats = extract_features(syn, target, "hist_gh", ctx)
    # per numeric column: 10 bins + missing count; per categorical: vocab+other+missing
    offset = 0
    for name in ctx.num_edges:
        block = feats[offset : offset + 11]
        assert block.sum() == 57
        offset += 11
    for name in ctx.feature_map.vocabs:
        width = len(ctx.feature_map.vocabs[name]) + 2
        assert feats[offset : offset + width].sum() == 57
        offset += width
    assert offset == len(feats)


def test_exact_match_attacks_match_row_loops(rng):
    cols = ["c0", "c1", "c2", "c3"]

    def random_table(n):
        return make_table({c: [None if r < 0.15 else f"v{int(r * 3)}" for r in rng.uniform(size=n)]
                           for c in cols})

    pool = random_table(60)
    target = ["v1", None, "v2", "v0"]
    cfg = AuditConfig(n_shadow=2, shadow_size=5, n_queries=12, subset_size=2, seed=0)
    ctx = AttackContext(pool, target, cfg)
    syn_sets = [random_table(40) for _ in range(4)]
    for syn in syn_sets:
        counts = [sum(all(row[c] == target[c] for c in q) for row in table_rows(syn)) for q in ctx.queries]
        np.testing.assert_array_equal(extract_features(syn, target, "query_based", ctx), counts)
    labeled = [(syn, i % 2 == 0) for i, syn in enumerate(syn_sets)]
    hamming = run_distance_attack(labeled, target, "hamming", ctx).scores
    lookup = run_distance_attack(labeled, target, "lookup", ctx).scores
    for syn, h, found in zip(syn_sets, hamming, lookup):
        assert h == -min(sum(a != b for a, b in zip(row, target)) for row in table_rows(syn))
        assert found == float(any(list(row) == target for row in table_rows(syn)))


# -- distance attacks ------------------------------------------------------------------


def leak_generator(table: RawTable, seed: int) -> RawTable:
    """Oracle generator that copies its training set verbatim."""
    return table


def test_planted_leak_lookup_auc_is_one(pool_and_target):
    pool, target = pool_and_target
    cfg = AuditConfig(n_shadow=16, shadow_size=40, seed=2)
    trials = build_shadow_trials(pool, target, cfg)
    ctx = AttackContext(pool, target, cfg)
    labeled = [(leak_generator(t.rows, t.seed), t.member) for t in trials]
    res = run_distance_attack(labeled, target, "lookup", ctx)
    assert res.auc == 1.0
    assert res.accuracy == 1.0


def test_hamming_score_zero_when_target_present(pool_and_target):
    pool, target = pool_and_target
    cfg = AuditConfig(n_shadow=4, shadow_size=20, seed=0)
    trials = build_shadow_trials(pool, target, cfg)
    ctx = AttackContext(pool, target, cfg)
    labeled = [(leak_generator(t.rows, t.seed), t.member) for t in trials]
    res = run_distance_attack(labeled, target, "hamming", ctx)
    member_scores = res.scores[res.labels]
    np.testing.assert_array_equal(member_scores, 0.0)  # negated min distance


def test_identical_sets_give_half_auc(pool_and_target):
    pool, target = pool_and_target
    same = pool.subset(range(25))
    labeled = [(same, True), (same, False)] * 4
    cfg = AuditConfig(n_shadow=8, shadow_size=25, seed=0)
    ctx = AttackContext(pool, target, cfg)
    for metric in ("hamming", "l2", "lookup", "kde"):
        res = run_distance_attack(labeled, target, metric, ctx)
        assert res.auc == 0.5


def test_l2_attack_separates_planted_leak(pool_and_target):
    pool, target = pool_and_target
    cfg = AuditConfig(n_shadow=16, shadow_size=40, seed=5)
    trials = build_shadow_trials(pool, target, cfg)
    ctx = AttackContext(pool, target, cfg)
    labeled = [(leak_generator(t.rows, t.seed), t.member) for t in trials]
    res = run_distance_attack(labeled, target, "l2", ctx)
    assert res.auc >= 0.9


def test_kde_needs_two_rows(pool_and_target):
    pool, target = pool_and_target
    cfg = AuditConfig(n_shadow=2, shadow_size=5, seed=0)
    ctx = AttackContext(pool, target, cfg)
    one_row = pool.subset([0])
    with pytest.raises(ValueError, match="at least 2"):
        run_distance_attack([(one_row, True), (one_row, False)], target, "kde", ctx)


# -- meta-classifier attacks --------------------------------------------------------------


def sampling_generator(pool: RawTable):
    """No-signal generator: synthetic = fresh random pool sample, independent
    of the shadow training set."""

    def gen(table: RawTable, seed: int) -> RawTable:
        rng = np.random.default_rng(seed + 77)
        idx = rng.choice(pool.row_count, size=table.row_count, replace=False)
        return pool.subset(idx)

    return gen


def labeled_sets(trials, generator):
    """Each trial's synthetic set from ``generator``, with its membership label."""
    return [(syn, t.member) for syn, t in zip(generate_shadow_sets(trials, generator), trials)]


def test_meta_attack_detects_leaky_generator(pool_and_target):
    pool, target = pool_and_target
    cfg = AuditConfig(n_shadow=32, shadow_size=40, n_queries=40, subset_size=3, seed=1)
    trials = build_shadow_trials(pool, target, cfg)
    ctx = AttackContext(pool, target, cfg)
    res = run_shadow_attack(labeled_sets(trials, leak_generator), "query_based", cfg, ctx)
    assert res.auc >= 0.9


def test_meta_attack_null_generator_near_half(pool_and_target):
    pool, target = pool_and_target
    cfg = AuditConfig(n_shadow=64, shadow_size=40, seed=3)
    trials = build_shadow_trials(pool, target, cfg)
    ctx = AttackContext(pool, target, cfg)
    res = run_shadow_attack(labeled_sets(trials, sampling_generator(pool)), "naive_gh", cfg, ctx)
    assert abs(res.auc - 0.5) <= 0.1


def test_meta_attack_shuffled_labels_near_half(pool_and_target):
    pool, target = pool_and_target
    cfg = AuditConfig(n_shadow=64, shadow_size=40, seed=4)
    trials = build_shadow_trials(pool, target, cfg)
    ctx = AttackContext(pool, target, cfg)
    res = run_shadow_attack(labeled_sets(trials, leak_generator), "hist_gh", cfg, ctx)
    rng = np.random.default_rng(0)
    shuffled = res.labels[rng.permutation(len(res.labels))]
    assert abs(auc(res.scores, shuffled) - 0.5) <= 0.1


def test_constant_features_give_half(pool_and_target):
    pool, target = pool_and_target
    cfg = AuditConfig(n_shadow=8, shadow_size=10, seed=0)
    trials = build_shadow_trials(pool, target, cfg)
    ctx = AttackContext(pool, target, cfg)
    fixed = pool.subset(range(10))

    def constant_generator(table, seed):
        return fixed

    res = run_shadow_attack(labeled_sets(trials, constant_generator), "naive_gh", cfg, ctx)
    assert res.auc == 0.5


def test_failing_generator_names_trial(pool_and_target):
    pool, target = pool_and_target
    cfg = AuditConfig(n_shadow=4, shadow_size=10, seed=0)
    trials = build_shadow_trials(pool, target, cfg)

    def broken(table, seed):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="shadow trial 0"):
        generate_shadow_sets(trials, broken)


def test_accuracy_at_median_constant_scores():
    assert accuracy_at_median([1.0] * 8, [True, False] * 4) == 0.5


def test_full_audit_deterministic(pool_and_target):
    from argn.audit import run_audit
    from argn.tables import RawTable

    pool, target = pool_and_target
    cells = [list(target)] + [list(r) for r in table_rows(pool)[:99]]
    data = RawTable(pool.schema, [list(c) for c in zip(*cells)])
    cfg = AuditConfig(n_shadow=4, shadow_size=30, seed=5,
                      attacks=("naive_gh", "direct_lookup"), n_queries=8, subset_size=2)

    def generator(table, seed):
        rng = np.random.default_rng(seed)
        return table.subset(rng.permutation(table.row_count))

    a = run_audit(data, generator, cfg, auto_target=1)
    b = run_audit(data, generator, cfg, auto_target=1)
    assert a == b
    for bad in (0, -3):
        with pytest.raises(ValueError, match=f"auto_target must be >= 1, got {bad}"):
            run_audit(data, generator, cfg, auto_target=bad)
