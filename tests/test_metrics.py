import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment, linprog

import argn
from argn.metrics import (
    association_l2,
    dcr,
    dcr_cdf_integral,
    detection_score,
    jsd,
    macro_f1,
    ml_efficiency,
    mixed_association_matrix,
    wasserstein1,
)
from conftest import make_table


# -- JSD ---------------------------------------------------------------------


def test_jsd_identical_zero():
    col = ["a", "b", "a", "c"]
    assert jsd(col, list(col)) == 0.0


def test_jsd_disjoint_is_one():
    assert jsd(["a", "a"], ["b", "b"]) == pytest.approx(1.0, abs=1e-12)


def test_jsd_hand_formula():
    # P = {a: .5, b: .5}, Q = {a: 1}; M = {a: .75, b: .25}
    expected = 0.5 * (0.5 * np.log2(0.5 / 0.75) + 0.5 * np.log2(0.5 / 0.25)) + 0.5 * (
        1.0 * np.log2(1.0 / 0.75)
    )
    assert jsd(["a", "b"], ["a"]) == pytest.approx(expected, abs=1e-12)


def test_jsd_symmetric_and_bounded(rng):
    for _ in range(20):
        a = [f"c{v}" for v in rng.integers(0, 6, size=rng.integers(1, 40))]
        b = [f"c{v}" for v in rng.integers(0, 8, size=rng.integers(1, 40))]
        d1, d2 = jsd(a, b), jsd(b, a)
        assert d1 == pytest.approx(d2, abs=1e-12)
        assert -1e-12 <= d1 <= 1.0 + 1e-12


def test_jsd_empty_errors():
    with pytest.raises(ValueError):
        jsd([], ["a"])


# -- Wasserstein ----------------------------------------------------------------


def brute_force_w1_equal(a, b):
    """Optimal transport by Hungarian assignment (equal sample counts)."""
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].sum() / len(a)


def brute_force_w1_lp(a, b):
    """Optimal transport as a linear program (any sample counts)."""
    a, b = np.asarray(a), np.asarray(b)
    n, m = len(a), len(b)
    cost = np.abs(a[:, None] - b[None, :]).ravel()
    a_eq = []
    b_eq = []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m : (i + 1) * m] = 1.0
        a_eq.append(row)
        b_eq.append(1.0 / n)
    for j in range(m):
        row = np.zeros(n * m)
        row[j::m] = 1.0
        a_eq.append(row)
        b_eq.append(1.0 / m)
    res = linprog(cost, A_eq=np.array(a_eq), b_eq=np.array(b_eq), bounds=(0, None), method="highs")
    assert res.success
    return res.fun


def rescale_pair(a, b):
    lo = min(np.min(a), np.min(b))
    hi = max(np.max(a), np.max(b))
    return (np.asarray(a) - lo) / (hi - lo), (np.asarray(b) - lo) / (hi - lo)


def test_wasserstein_identical_zero(rng):
    vals = rng.normal(size=30)
    assert wasserstein1(vals, vals.copy()) == 0.0


def test_wasserstein_point_masses():
    assert wasserstein1([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)


def test_wasserstein_matches_assignment_oracle(rng):
    for _ in range(10):
        n = int(rng.integers(2, 21))
        a = rng.normal(size=n)
        b = rng.normal(size=n) * rng.uniform(0.5, 2)
        sa, sb = rescale_pair(a, b)
        assert wasserstein1(a, b) == pytest.approx(brute_force_w1_equal(sa, sb), abs=1e-9)


def test_wasserstein_matches_lp_oracle_unequal_sizes(rng):
    for _ in range(5):
        n, m = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        a = rng.uniform(size=n)
        b = rng.uniform(size=m)
        sa, sb = rescale_pair(a, b)
        assert wasserstein1(a, b) == pytest.approx(brute_force_w1_lp(sa, sb), abs=1e-9)


def test_wasserstein_triangle_inequality(rng):
    # pin the extremes so all three pairings share one scaling
    for _ in range(10):
        def sample():
            vals = rng.uniform(size=int(rng.integers(2, 48)))
            return np.concatenate([[0.0, 1.0], vals])

        a, b, c = sample(), sample(), sample()
        assert wasserstein1(a, c) <= wasserstein1(a, b) + wasserstein1(b, c) + 1e-9


def test_wasserstein_degenerate_range():
    assert wasserstein1([5.0, 5.0], [5.0]) == 0.0


# -- association ------------------------------------------------------------------


def test_association_identical_zero():
    table = make_table(
        {"x": ["1", "2", "3", "4"], "y": ["2", "4", "6", "9"], "c": ["a", "a", "b", "b"]},
        kinds={"x": "numeric", "y": "numeric"},
    )
    assert association_l2(table, table) == 0.0


def test_association_sign_flip_hand_computed(rng):
    x = rng.normal(size=200)
    y = 0.8 * x + 0.2 * rng.normal(size=200)
    real = make_table(
        {"x": [repr(float(v)) for v in x], "y": [repr(float(v)) for v in y]},
        kinds={"x": "numeric", "y": "numeric"},
    )
    syn = make_table(
        {"x": [repr(float(v)) for v in x], "y": [repr(float(-v)) for v in y]},
        kinds={"x": "numeric", "y": "numeric"},
    )
    rho = float(np.corrcoef(x, y)[0, 1])  # direct Pearson oracle
    expected = np.sqrt(2 * (2 * rho) ** 2)
    assert association_l2(real, syn) == pytest.approx(expected, rel=1e-9)


def test_association_detects_broken_dependence(rng):
    x = rng.normal(size=300)
    y = x + 0.1 * rng.normal(size=300)
    kinds = {"x": "numeric", "y": "numeric"}
    real = make_table({"x": [repr(float(v)) for v in x], "y": [repr(float(v)) for v in y]}, kinds)
    shuffled = y[rng.permutation(300)]
    syn = make_table({"x": [repr(float(v)) for v in x], "y": [repr(float(v)) for v in shuffled]}, kinds)
    assert association_l2(real, syn) > 0.5


def test_association_constant_column_is_zero():
    table = make_table(
        {"x": ["1", "1", "1"], "y": ["1", "2", "3"]},
        kinds={"x": "numeric", "y": "numeric"},
    )
    mat = mixed_association_matrix(table)
    assert mat[0, 1] == 0.0


def test_association_mixed_kinds(rng):
    # categorical perfectly determines the numeric -> correlation ratio 1
    cats = ["a", "b"] * 50
    nums = ["1.0" if c == "a" else "5.0" for c in cats]
    table = make_table({"c": cats, "n": nums}, kinds={"n": "numeric"})
    mat = mixed_association_matrix(table)
    assert mat[0, 1] == pytest.approx(1.0, abs=1e-9)


def test_association_matches_loop_oracles(rng):
    from scipy.stats.contingency import association

    n = 300
    cells_a = [None if r < 0.05 else f"a{int(r * 7)}" for r in rng.uniform(size=n)]
    cells_b = [f"b{int(v)}" for v in rng.integers(0, 4, size=n)]
    nums = [None if r < 0.1 else f"{v:.3f}" for r, v in zip(rng.uniform(size=n), rng.normal(size=n))]
    table = make_table({"a": cells_a, "b": cells_b, "x": nums}, kinds={"x": "numeric"})
    mat = mixed_association_matrix(table)

    labels_a = ["<missing>" if c is None else c for c in cells_a]
    cats_a, cats_b = sorted(set(labels_a)), sorted(set(cells_b))
    counts = np.zeros((len(cats_a), len(cats_b)), dtype=np.int64)
    for u, v in zip(labels_a, cells_b):
        counts[cats_a.index(u), cats_b.index(v)] += 1
    assert mat[0, 1] == pytest.approx(association(counts, method="cramer"), rel=1e-12)

    pairs = [(g, float(v)) for g, v in zip(labels_a, nums) if v is not None]
    values = np.array([v for _, v in pairs])
    between = sum(
        len(grp) * (np.mean(grp) - values.mean()) ** 2
        for cat in cats_a
        if (grp := [v for g, v in pairs if g == cat])
    )
    expected = np.sqrt(between / np.sum((values - values.mean()) ** 2))
    assert mat[0, 2] == pytest.approx(expected, rel=1e-12)


def test_association_matrix_independent_of_string_hash():
    """Category sums must not follow set() order, which varies per process."""
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from conftest import acceptance_table\n"
        "from argn.metrics import mixed_association_matrix\n"
        "print(mixed_association_matrix(acceptance_table(2000, seed=7)).tobytes().hex())\n"
    )
    src = str(Path(argn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    outputs = set()
    for hash_seed in ("1", "2", "3", "4", "5", "6"):
        env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


# -- detection ---------------------------------------------------------------------


def two_halves(rng, n=1200):
    z = rng.normal(size=n)
    cats = np.where(z > 0, "p", "q")
    table = make_table(
        {"n1": [f"{v:.4f}" for v in z], "n2": [f"{v:.4f}" for v in rng.normal(size=n)],
         "c": list(cats)},
        kinds={"n1": "numeric", "n2": "numeric"},
    )
    half = n // 2
    return table.subset(range(half)), table.subset(range(half, n))


def test_detection_null_near_half(rng):
    real, syn = two_halves(rng)
    auc = detection_score(real, syn, seed=0)
    assert abs(auc - 0.5) < 0.05


def test_detection_garbage_is_separable(rng):
    real, _ = two_halves(rng)
    garbage = make_table(
        {"n1": ["99.0"] * 300, "n2": ["99.0"] * 300, "c": ["zzz"] * 300},
        kinds={"n1": "numeric", "n2": "numeric"},
    )
    assert detection_score(real, garbage, seed=0) > 0.95


def test_detection_requires_rows(rng):
    real, syn = two_halves(rng, n=120)
    with pytest.raises(ValueError, match="100 rows"):
        detection_score(real.subset(range(50)), syn, seed=0)


# -- ML efficiency -------------------------------------------------------------------


def test_ml_efficiency_identity_matches_baseline(rng):
    x = rng.normal(size=300)
    y = np.where(x + 0.3 * rng.normal(size=300) > 0, "hi", "lo")
    table = make_table(
        {"x": [f"{v:.4f}" for v in x], "label": list(y)}, kinds={"x": "numeric"}
    )
    train = table.subset(range(200))
    test = table.subset(range(200, 300))
    res = ml_efficiency(train, train, test, "label")
    assert res["task"] == "classification"
    assert res["auc"] == pytest.approx(res["baseline_auc"], abs=1e-9)
    assert res["macro_f1"] == pytest.approx(res["baseline_macro_f1"], abs=1e-9)


def test_ml_efficiency_ridge_exact_linear():
    x = np.linspace(0, 1, 80)
    y = 2.0 * x
    table = make_table(
        {"x": [repr(float(v)) for v in x], "y": [repr(float(v)) for v in y]},
        kinds={"x": "numeric", "y": "numeric"},
    )
    train = table.subset(range(0, 80, 2))
    test = table.subset(range(1, 80, 2))
    res = ml_efficiency(train, train, test, "y")
    assert res["task"] == "regression"
    assert res["rmse"] < 1e-6


@pytest.mark.parametrize("target", ["label", "y"])
def test_ml_efficiency_leaves_out_rows_with_a_missing_target(rng, target):
    n = 240
    x = rng.normal(size=n)
    label = np.where(x + 0.5 * rng.normal(size=n) > 0, "hi", "lo")
    y = 2.0 * x + 0.3 * rng.normal(size=n)
    gone = rng.random(n) < 0.2
    table = make_table(
        {"x": [f"{v:.4f}" for v in x],
         "label": [None if g else v for g, v in zip(gone, label)],
         "y": ["" if g else f"{v:.4f}" for g, v in zip(gone, y)]},
        kinds={"x": "numeric", "y": "numeric"},
    )
    train, syn, test = table.subset(range(80)), table.subset(range(80, 160)), table.subset(range(160, n))
    kept = [t.subset([i for i in range(t.row_count) if not gone[start + i]])
            for t, start in ((train, 0), (syn, 80), (test, 160))]
    assert ml_efficiency(train, syn, test, target) == ml_efficiency(*kept, target)


def test_ml_efficiency_without_any_target_value_raises():
    table = make_table({"x": ["1", "2", "3", "4"], "label": ["a", "b", None, None]},
                       kinds={"x": "numeric"})
    with pytest.raises(ValueError, match="no synthetic row"):
        ml_efficiency(table.subset([0, 1]), table.subset([2, 3]), table.subset([0, 1]), "label")


def test_macro_f1_perfect_balanced():
    y = np.array([0, 0, 1, 1])
    assert macro_f1(y, y, 2) == 1.0


def test_ml_efficiency_learnable_separation(rng):
    feature = rng.integers(0, 2, size=400)
    label = np.where(feature == 1, "one", "zero")
    table = make_table({"f": [str(v) for v in feature], "t": list(label)})
    train = table.subset(range(300))
    test = table.subset(range(300, 400))
    res = ml_efficiency(train, train, test, "t")
    assert res["macro_f1"] == 1.0


# -- DCR -------------------------------------------------------------------------------


def naive_dcr(train_tbl, other_tbl):
    """Independent nested-loop re-implementation of the mixed distance scan."""
    kinds = {c.name: c.kind for c in train_tbl.schema.columns}
    ranges = {}
    for name, kind in kinds.items():
        if kind == "numeric":
            vals = [float(v) for v in train_tbl.column_values(name) if v is not None]
            span = max(vals) - min(vals) if vals else 0.0
            ranges[name] = span if span > 0 else 1.0
    out = []
    for row_o in other_tbl.cells:
        best = np.inf
        for row_t in train_tbl.cells:
            total = 0.0
            for j, name in enumerate(train_tbl.column_names):
                a, b = row_t[j], row_o[j]
                if kinds[name] == "numeric":
                    if a is None and b is None:
                        d = 0.0
                    elif a is None or b is None:
                        d = 1.0
                    else:
                        d = abs(float(a) - float(b)) / ranges[name]
                else:
                    d = 0.0 if a == b else 1.0
                total += d
            best = min(best, total)
        out.append(best)
    return np.array(out)


def random_mixed(rng, n):
    return make_table(
        {
            "n1": [f"{v:.3f}" if v > -1 else None for v in rng.normal(size=n)],
            "n2": [f"{v:.3f}" for v in rng.normal(size=n)],
            "c1": [f"k{int(v)}" for v in rng.integers(0, 4, size=n)],
            "c2": [f"m{int(v)}" for v in rng.integers(0, 3, size=n)],
        },
        kinds={"n1": "numeric", "n2": "numeric"},
    )


def test_dcr_self_is_zero(rng):
    table = random_mixed(rng, 30)
    np.testing.assert_array_equal(dcr(table, table), np.zeros(30))


def test_dcr_single_categorical_mismatch():
    train = make_table({"c": ["a", "b"]})
    other = make_table({"c": ["z", "a"]})
    np.testing.assert_array_equal(dcr(train, other), [1.0, 0.0])


@pytest.mark.parametrize("mode", ["l1"])
def test_dcr_matches_naive_cross_check(rng, mode):
    train = random_mixed(rng, 50)
    other = random_mixed(rng, 40)
    got = dcr(train, other)
    np.testing.assert_allclose(got, naive_dcr(train, other), atol=1e-12)


def test_dcr_thread_count_does_not_change_result(rng, monkeypatch):
    train = random_mixed(rng, 60)
    other = random_mixed(rng, 60)
    monkeypatch.setenv("ARGN_THREADS", "1")
    a = dcr(train, other)
    monkeypatch.setenv("ARGN_THREADS", "4")
    b = dcr(train, other)
    np.testing.assert_array_equal(a, b)


# -- DCR CDF integral --------------------------------------------------------------------


def test_dcr_integral_identical_is_zero(rng):
    d = rng.uniform(size=200)
    assert dcr_cdf_integral(d, d.copy()) == 0.0


def test_dcr_integral_positive_for_train_copies(rng):
    d_test = rng.uniform(0.5, 1.5, size=300)
    d_syn = np.zeros(300)  # synthetic = exact copies of train
    assert dcr_cdf_integral(d_syn, d_test) > 0


def test_dcr_integral_negative_for_shifted_syn_closed_form():
    # test ~ U[0,1], syn ~ U[0.5,1.5]: integral to q98=0.98 is
    # -int_0^0.5 x dx - int_0.5^0.98 0.5 dx = -0.125 - 0.24 = -0.365
    grid = np.linspace(0, 1, 2001)
    d_test = grid
    d_syn = grid + 0.5
    val = dcr_cdf_integral(d_syn, d_test)
    assert val == pytest.approx(-0.365, abs=0.01)
    assert val < 0


def test_dcr_integral_antisymmetric_tendency(rng):
    a = rng.uniform(size=400)
    b = a + 0.2
    assert dcr_cdf_integral(b, a) < 0 < dcr_cdf_integral(a, b)
