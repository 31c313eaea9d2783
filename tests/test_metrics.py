import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment, linprog

import argn
import argn.metrics
import argn.tables
from argn.linear import MixedFeatureMap
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
from argn.tables import factorize
from conftest import make_table, table_rows


# -- JSD ---------------------------------------------------------------------


def test_jsd_identical_zero():
    col = ["a", "b", "a", "c"]
    assert jsd(col, list(col)) == 0.0


def test_jsd_disjoint_is_one():
    assert jsd(["a", "a"], ["b", "b"]) == pytest.approx(1.0, abs=1e-12)


def test_jsd_keeps_missing_apart_from_a_literal_missing_label():
    assert jsd(["__MISSING__"] * 10, [None] * 10) == pytest.approx(1.0, abs=1e-12)
    assert factorize(["b", None, "__MISSING__", "a", None])[1].tolist() == [3, 0, 1, 2, 0]


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


# The per-pair association formulas the whole-matrix kernel replaced, kept
# as its oracle.


def oracle_pearson(x: np.ndarray, y: np.ndarray) -> float:
    ok = np.isfinite(x) & np.isfinite(y)
    x, y = x[ok], y[ok]
    if x.size < 2:
        return 0.0
    sx, sy = x.std(), y.std()
    if sx < 1e-12 or sy < 1e-12:
        return 0.0
    return float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))


def oracle_correlation_ratio(codes: np.ndarray, values: np.ndarray) -> float:
    ok = np.isfinite(values)
    if ok.sum() < 2:
        return 0.0
    values, codes = values[ok], codes[ok]
    total_mean = values.mean()
    ss_total = float(np.sum((values - total_mean) ** 2))
    if ss_total < 1e-12:
        return 0.0
    counts = np.bincount(codes)
    groups = np.split(values[np.argsort(codes, kind="stable")], np.cumsum(counts)[:-1])
    ss_between = 0.0
    for count, group in zip(counts, groups):
        if count:
            ss_between += count * (group.mean() - total_mean) ** 2
    return float(np.sqrt(ss_between / ss_total))


def oracle_cramers_v(a: np.ndarray, b: np.ndarray) -> float:
    k_a, k_b = (int(codes.max()) + 1 if codes.size else 0 for codes in (a, b))
    if k_a < 2 or k_b < 2:
        return 0.0
    table = np.bincount(a * k_b + b, minlength=k_a * k_b).reshape(k_a, k_b).astype(np.float64)
    n = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        chi2 = np.nansum(np.where(expected > 0, (table - expected) ** 2 / expected, 0.0))
    denom = n * (min(k_a, k_b) - 1)
    return float(np.sqrt(chi2 / denom)) if denom > 0 else 0.0


def oracle_category_codes(cells) -> np.ndarray:
    """Codes 0..k-1, one cell at a time: missing cells, when there are any,
    form the first category, then the texts follow in sorted order."""
    labels = [None if v is None else str(v) for v in cells]
    index = {label: i for i, label in enumerate(sorted(set(labels), key=lambda v: (v is not None, v or "")))}
    return np.array([index[label] for label in labels], dtype=np.int64)


def oracle_association_matrix(table) -> np.ndarray:
    cols = [c for c in table.schema.columns if c.kind in ("categorical", "numeric", "datetime")]
    k = len(cols)
    numeric, cats = {}, {}
    for c in cols:
        if c.kind == "categorical":
            cats[c.name] = oracle_category_codes(table.column_values(c.name))
        else:
            numeric[c.name] = table.values(c.name, c.kind)
    mat = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            a, b = cols[i], cols[j]
            if a.name in numeric and b.name in numeric:
                val = oracle_pearson(numeric[a.name], numeric[b.name]) if i != j else 1.0
            elif a.name in cats and b.name in cats:
                val = oracle_cramers_v(cats[a.name], cats[b.name]) if i != j else 1.0
            elif a.name in cats:
                val = oracle_correlation_ratio(cats[a.name], numeric[b.name])
            else:
                val = oracle_correlation_ratio(cats[b.name], numeric[a.name])
            mat[i, j] = mat[j, i] = val
    return mat


EPOCH = 1_600_000_000


@st.composite
def association_tables(draw):
    """Small mixed tables with missing cells, single-category and constant
    columns, columns constant only where a partner is present, and epoch
    seconds near 1.6e9 (whole-second steps of 10^6, the scale of dates)."""
    n = draw(st.integers(0, 24))
    columns, kinds, numeric = {}, {}, []

    def cells(strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    for j in range(draw(st.integers(1, 5))):
        name = f"c{j}"
        style = draw(st.sampled_from(["cat", "single", "num", "const", "epoch", "partner"]))
        if style == "partner" and not numeric:
            style = "num"
        if style == "cat":
            columns[name] = cells(st.sampled_from(["a", "b", "c", None]))
        elif style == "single":
            columns[name] = ["a"] * n
        elif style == "num":
            columns[name] = cells(st.one_of(st.none(), st.integers(-4, 4).map(str),
                                            st.integers(-300, 300).map(lambda v: f"{v / 100:.2f}")))
        elif style == "const":
            columns[name] = cells(st.sampled_from([None, "2.5"]))
        elif style == "epoch":
            columns[name] = cells(st.one_of(st.none(), st.integers(0, 40).map(lambda v: str(EPOCH + v * 10**6))))
        else:  # constant where the partner is present, free elsewhere
            partner = columns[draw(st.sampled_from(numeric))]
            free = cells(st.one_of(st.none(), st.integers(-9, 9).map(str)))
            columns[name] = ["7" if cell is not None else other for cell, other in zip(partner, free)]
        if style not in ("cat", "single"):
            kinds[name] = "numeric"
            numeric.append(name)
    return make_table(columns, kinds)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(association_tables())
def test_association_matrix_matches_pair_loop_oracle(table):
    got = mixed_association_matrix(table)
    np.testing.assert_allclose(got, oracle_association_matrix(table), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(got, got.T)


@pytest.mark.parametrize("columns,kinds", [
    ({"x": [], "c": []}, {"x": "numeric"}),
    ({"x": ["1.5"], "y": ["2"], "c": ["a"]}, {"x": "numeric", "y": "numeric"}),
    ({"c": ["a"] * 6, "d": list("aabbcc"), "x": list("123456")}, {"x": "numeric"}),
    ({"x": ["2.5"] * 5 + [None], "y": list("12345") + ["9"]}, {"x": "numeric", "y": "numeric"}),
    ({"x": list("12") + [None, "4", None], "y": ["7", "7", "3", "7", "9"]},
     {"x": "numeric", "y": "numeric"}),
    ({"x": [str(EPOCH + v * 3600) for v in (0, 5, 2, 9, 4, 4)], "y": list("130545"), "c": list("aabbab")},
     {"x": "numeric", "y": "numeric"}),
    # category counts (1, 2) x (1, 3, 3, 1, 2), each pair at its expected count: chi-squared is 0
    ({"c": [f"a{i}" for i, a in enumerate((1, 2)) for b in (1, 3, 3, 1, 2) for _ in range(a * b)],
      "d": [f"b{j}" for a in (1, 2) for j, b in enumerate((1, 3, 3, 1, 2)) for _ in range(a * b)]}, {}),
])
def test_association_matrix_matches_oracle_on_edge_tables(columns, kinds):
    table = make_table(columns, kinds)
    np.testing.assert_allclose(mixed_association_matrix(table), oracle_association_matrix(table),
                               rtol=0, atol=1e-12)


def test_association_is_shift_invariant_at_epoch_scale(rng):
    """Centring keeps epoch seconds (~1.6e9) from cancelling in the moments."""
    x = rng.integers(0, 10**6, size=200)
    y = x + rng.integers(0, 10**5, size=200)
    c = [f"g{v // 250_000}" for v in x]
    kinds = {"x": "numeric", "y": "numeric"}
    near = mixed_association_matrix(make_table({"x": [str(v) for v in x], "y": [str(v) for v in y],
                                                "c": c}, kinds))
    far = mixed_association_matrix(make_table({"x": [str(EPOCH + v) for v in x], "y": [str(v) for v in y],
                                               "c": c}, kinds))
    assert near[0, 1] == pytest.approx(float(np.corrcoef(x, y)[0, 1]), abs=1e-13)
    np.testing.assert_allclose(far, near, rtol=0, atol=1e-13)
    assert 0.5 < far[0, 2] < 1.0


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


@pytest.mark.parametrize("levels, kept", [(("lo", "hi"), ("hi",)), (("lo", "mid", "hi"), ("lo", "hi"))])
def test_ml_efficiency_with_a_level_missing_from_the_synthetic_rows_stays_finite(rng, levels, kept):
    x = rng.normal(size=300)
    label = np.array(levels)[np.digitize(x, np.linspace(-0.5, 0.5, len(levels) - 1))]
    table = make_table({"x": [f"{v:.4f}" for v in x], "label": list(label)}, kinds={"x": "numeric"})
    train, test = table.subset(range(200)), table.subset(range(200, 300))
    syn = train.subset(np.flatnonzero(np.isin(label[:200], kept)).tolist())
    res = ml_efficiency(train, syn, test, "label")
    assert all(np.isfinite(res[key]) for key in ("auc", "macro_f1", "baseline_auc", "baseline_macro_f1"))


@pytest.mark.parametrize("levels", [("lo", "hi"), ("lo", "mid", "hi")])
def test_ml_efficiency_on_test_rows_of_one_class_scores_an_auc_of_one_half(rng, levels):
    x = rng.normal(size=300)
    label = np.array(levels)[np.digitize(x, np.linspace(-0.5, 0.5, len(levels) - 1))]
    table = make_table({"x": [f"{v:.4f}" for v in x], "label": list(label)}, kinds={"x": "numeric"})
    train = table.subset(range(200))
    test = table.subset([i for i in range(200, 300) if label[i] == "hi"])
    res = ml_efficiency(train, train, test, "label")
    assert res["auc"] == res["baseline_auc"] == 0.5


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
    for row_o in table_rows(other_tbl):
        best = np.inf
        for row_t in table_rows(train_tbl):
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


def oracle_feature_map_codes(fmap, table, name):
    """One-hot index of each cell, one cell at a time: the sorted reference
    vocabulary, then OTHER for an unseen text, then MISSING."""
    index = {v: i for i, v in enumerate(fmap.vocabs[name])}
    other = len(index)
    return [other + 1 if c is None else index.get(c, other) for c in table.column_values(name)]


_category = st.sampled_from([None, "", "a", "a\x00", "__MISSING__", "b", "\u00e9"])


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.lists(_category, max_size=30), st.lists(_category, max_size=30))
def test_feature_map_codes_match_the_per_cell_oracle(reference_cells, cells):
    reference = make_table({"c": reference_cells})
    fmap = MixedFeatureMap(reference)
    assert fmap.vocabs["c"] == sorted({v for v in reference_cells if v is not None})
    for table in (reference, make_table({"c": cells})):
        codes = fmap.codes(table, "c")
        assert codes.dtype == np.int64
        assert codes.tolist() == oracle_feature_map_codes(fmap, table, "c")


def oracle_dcr(train, other):
    """The DCR kernel before it worked in place: one float64 temporary per
    operation and column, over all ``other`` rows at once."""
    return oracle_distances(train, other).min(axis=1)


def oracle_distances(train, other):
    """The (other rows, train rows) matrix of mixed distances behind ``oracle_dcr``."""
    fmap = MixedFeatureMap(train)
    acc = np.zeros((other.row_count, train.row_count))
    for name, kind in fmap.kinds.items():
        if kind == "categorical":
            d = (fmap.codes(other, name)[:, None] != fmap.codes(train, name)[None, :]).astype(np.float64)
        else:
            lo, hi = fmap.ranges[name]
            a, b = train.values(name, kind), other.values(name, kind)
            ends = np.concatenate([[lo, hi], a, b])
            ends = ends[np.isfinite(ends)]
            if math.isinf(float(ends.max()) - float(ends.min())):  # halving is exact and keeps it finite
                lo, hi, a, b = lo / 2, hi / 2, a / 2, b / 2
            span = hi - lo if hi - lo > 0 else 1.0
            miss_b = ~np.isfinite(b)
            miss_a = ~np.isfinite(a)
            with np.errstate(over="ignore"):  # inf became +-1.8e308 here
                d = np.abs(np.nan_to_num(b)[:, None] - np.nan_to_num(a)[None, :]) / span
            either = miss_b[:, None] | miss_a[None, :]
            both = miss_b[:, None] & miss_a[None, :]
            d = np.where(both, 0.0, np.where(either, 1.0, d))
        acc += d
    return acc


def _with_infinities(monkeypatch):
    """Let numeric cells "inf" and "-inf" parse to infinities, as values
    parsed elsewhere may hold them."""
    parse = argn.tables.parse_column

    def parse_with_inf(cells, kind):
        vals = parse(cells, kind)
        for i, cell in enumerate(cells):
            if cell in ("inf", "-inf"):
                vals[i] = float(cell)
        return vals

    monkeypatch.setattr(argn.tables, "parse_column", parse_with_inf)


def nonfinite_mixed(rng, n):
    def num(scale):
        return [None if r < 0.1 else "inf" if r < 0.15 else "-inf" if r < 0.2 else f"{v * scale:.3f}"
                for r, v in zip(rng.uniform(size=n), rng.normal(size=n))]

    return make_table(
        {"n1": num(1.0), "c1": [f"k{int(v)}" for v in rng.integers(0, 4, size=n)],
         "n2": num(1e3), "c2": [None if v == 0 else f"m{int(v)}" for v in rng.integers(0, 3, size=n)]},
        kinds={"n1": "numeric", "n2": "numeric"},
    )


def test_dcr_matches_parent_kernel_bitwise_with_nan_and_inf(rng, monkeypatch):
    _with_infinities(monkeypatch)
    for _ in range(3):
        train, other = nonfinite_mixed(rng, 700), nonfinite_mixed(rng, 1100)
        assert np.isinf(train.values("n1", "numeric")).any()
        assert np.isinf(other.values("n2", "numeric")).any()
        assert np.array_equal(dcr(train, other), oracle_dcr(train, other))


def test_dcr_train_tiles_split_mid_table_match_the_parent_kernel_bitwise(rng, monkeypatch):
    _with_infinities(monkeypatch)
    train, other = nonfinite_mixed(rng, 300), nonfinite_mixed(rng, 120)
    monkeypatch.setattr(argn.metrics, "SCAN_BYTES", 8 * 37)  # 1 x 37 tiles: 9 train tiles, the last 4 wide
    chunk, pairs, dense, gathered = argn.metrics._dcr_chunk, argn.metrics._dcr_pairs, set(), set()

    def record_chunk(columns, sl, train_rows, buffers):
        dense.add((sl.stop - sl.start, buffers[0].size, train_rows.stop - train_rows.start))
        return chunk(columns, sl, train_rows, buffers)

    def record_pairs(columns, other_rows, repeats, train_rows, work, unequal):
        gathered.add((len(train_rows), work.size, unequal.size))
        return pairs(columns, other_rows, repeats, train_rows, work, unequal)

    monkeypatch.setattr(argn.metrics, "_dcr_chunk", record_chunk)
    monkeypatch.setattr(argn.metrics, "_dcr_pairs", record_pairs)
    for name in ("n1", "n2"):
        tiles = set(np.flatnonzero(~np.isfinite(train.values(name, "numeric"))) // 37)
        assert len(tiles) > 3 and max(tiles) == 8  # missing and infinite train cells in most tiles
    assert np.array_equal(dcr(train, other), oracle_dcr(train, other))
    # 37-cell buffers and 1-row blocks: dense tiles 37 wide and the last one 4 wide, and gathered calls of
    # at most a quarter tile, 9 pairs
    assert {(rows, size) for rows, size, _ in dense} == {(1, 37)}
    assert {width for *_, width in dense} == {37, 4}
    assert {(size, flags) for _, size, flags in gathered} == {(37, 37)}
    assert 1 in {p for p, *_ in gathered} and max(p for p, *_ in gathered) <= 9


@pytest.mark.parametrize("n_categories, code_dtype", [(300, np.uint16), (70_000, np.uint32)])
def test_dcr_codes_wider_than_a_byte_match_the_parent_kernel(rng, n_categories, code_dtype):
    train = make_table({"c": [f"v{i}" for i in range(n_categories)],
                        "x": [f"{v:.3f}" for v in rng.normal(size=n_categories)]}, kinds={"x": "numeric"})
    picks = rng.integers(0, n_categories, size=24)
    other = make_table({"c": [f"v{i}" if i % 3 else f"unseen{i}" for i in picks[:-1]] + [None],
                        "x": [f"{v:.3f}" for v in rng.normal(size=24)]}, kinds={"x": "numeric"})
    codes = argn.metrics._dcr_columns(MixedFeatureMap(train), train, other)[0]
    assert codes[1].dtype == codes[2].dtype == code_dtype
    assert np.array_equal(dcr(train, other), oracle_dcr(train, other))


def test_dcr_of_an_empty_train_table_names_it():
    other = make_table({"c": ["a", "b"]})
    with pytest.raises(ValueError, match="empty train table"):
        dcr(make_table({"c": []}), other)


def test_dcr_blocks_stay_within_the_byte_budget(monkeypatch):
    n_train = 1_000_000
    train = make_table({"x": ["1"] * n_train}, kinds={"x": "numeric"})
    other = make_table({"x": ["2"] * 50}, kinds={"x": "numeric"})
    blocks = []

    def record(columns, sl, train_rows, buffers):
        blocks.append((sl.stop - sl.start, buffers[0].size))
        return np.zeros(sl.stop - sl.start)

    monkeypatch.setattr(argn.metrics, "_dcr_chunk", record)
    assert dcr(train, other).shape == (50,)
    assert sum(rows for rows, _ in blocks) == 50
    assert all(rows <= n and n * 8 <= argn.metrics.SCAN_BYTES for rows, n in blocks)  # a tile is rows x (n // rows)


def test_dcr_does_not_depend_on_the_byte_budget(rng, monkeypatch):
    train, other = random_mixed(rng, 300), random_mixed(rng, 1200)
    wide = dcr(train, other)
    monkeypatch.setattr(argn.metrics, "SCAN_BYTES", 8 * 300 * 7)  # 7-row blocks
    assert np.array_equal(dcr(train, other), wide)



@pytest.mark.parametrize("threads", [2, 8])
def test_dcr_worker_threads_reuse_one_set_of_buffers(rng, monkeypatch, threads):
    train, other = random_mixed(rng, 300), random_mixed(rng, 400)
    expected = dcr(train, other)
    monkeypatch.setenv("ARGN_THREADS", str(threads))
    monkeypatch.setattr(argn.metrics, "SCAN_BYTES", 8 * 300 * 7)  # 7-row blocks
    chunk, pairs, sets, calls = argn.metrics._dcr_chunk, argn.metrics._dcr_pairs, set(), []

    def record_chunk(columns, sl, train_rows, buffers):
        sets.add(tuple(id(buf) for buf in buffers[1:]))
        calls.append(("dense", sl.stop - sl.start, (sl.stop - sl.start) * (train_rows.stop - train_rows.start)))
        return chunk(columns, sl, train_rows, buffers)

    def record_pairs(columns, other_rows, repeats, train_rows, work, unequal):
        sets.add((id(work), id(unequal)))
        calls.append(("seed" if np.ndim(repeats) == 0 else "pairs", len(other_rows), len(train_rows)))
        return pairs(columns, other_rows, repeats, train_rows, work, unequal)

    monkeypatch.setattr(argn.metrics, "_dcr_chunk", record_chunk)
    monkeypatch.setattr(argn.metrics, "_dcr_pairs", record_pairs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads that shared a buffer would overwrite each other's blocks
    try:
        assert np.array_equal(dcr(train, other), expected)
    finally:
        sys.setswitchinterval(interval)
    first = next(i for i, (kind, *_) in enumerate(calls) if kind != "pairs")
    prepass, verified = calls[:first], calls[first:]
    # pass 1: the 78 rows of two groups within 300 // 16 train rows, in blocks of 525 // 18 = 29 rows (a
    # quarter tile of pairs over the largest group), all resolved
    assert sorted(rows for _, rows, _ in prepass) == [20, 29, 29]
    # pass 2: the other 322 rows in 46 blocks of 7, each seeded by one pair per row, then verified in one
    # tile: gathered when at most a quarter of its 2,100 pairs are candidates, else dense
    seeds = [rows for kind, rows, pair_count in verified if kind == "seed" and rows == pair_count]
    tiles = [(kind, pair_count) for kind, _, pair_count in verified if kind != "seed"]
    assert len(seeds) == 46 and sum(seeds) == 322
    assert len(tiles) <= 46 and {kind for kind, _ in tiles} == {"pairs", "dense"}
    assert all(pair_count <= 525 if kind == "pairs" else pair_count == 2100 for kind, pair_count in tiles)
    assert 1 <= len(sets) <= threads


def dcr_peak_bytes(train, other):
    """tracemalloc peak of one dcr call, after a first call parsed and
    factorized both tables."""
    dcr(train, other)
    tracemalloc.start()
    try:
        dcr(train, other)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dcr_peak_memory_does_not_grow_with_the_row_blocks(rng, monkeypatch):
    monkeypatch.setattr(argn.metrics, "SCAN_BYTES", 8 * 2000 * 16)  # 16-row blocks
    train, other = random_mixed(rng, 2000), random_mixed(rng, 1024)
    # the accumulator (or the mismatch counts), the work buffer (or a gathered call's arrays) and the mask
    block_set = 16 * 2000 * (8 + 8 + 1)
    monkeypatch.setenv("ARGN_THREADS", "1")
    pairs, chunk, paths = argn.metrics._dcr_pairs, argn.metrics._dcr_chunk, set()
    with monkeypatch.context() as patch:  # both pass-2 paths run on these tables
        patch.setattr(argn.metrics, "_dcr_pairs", lambda *args: paths.add("gathered") or pairs(*args))
        patch.setattr(argn.metrics, "_dcr_chunk", lambda *args: paths.add("dense") or chunk(*args))
        dcr(train, other)
    assert paths == {"gathered", "dense"}
    two_blocks = dcr_peak_bytes(train, other.subset(range(32)))
    many_blocks = dcr_peak_bytes(train, other)  # 64 blocks
    assert block_set <= two_blocks < 2 * block_set
    assert many_blocks <= two_blocks + block_set // 4  # only the per-row arrays grow
    monkeypatch.setenv("ARGN_THREADS", "2")
    assert dcr_peak_bytes(train, other) <= many_blocks + block_set + block_set // 2  # one more worker's set


def grouped_mixed(rng, n, query=False, nonfinite=False):
    """Two categoricals of 8 and 5 levels (missing is one of c2's) in about 40
    groups of n / 40 rows, within n // 16, and two numerics with missing
    cells. Query rows also hold unseen c1 categories and missing c1 cells,
    which no train row has; ``nonfinite`` adds infinite numeric cells."""
    def num(scale):
        return [None if r < 0.1 else "inf" if nonfinite and r < 0.13 else "-inf" if nonfinite and r < 0.16
                else f"{v * scale:.3f}" for r, v in zip(rng.uniform(size=n), rng.normal(size=n))]

    c1 = [None if query and r < 0.05 else "unseen" if query and r < 0.1 else f"k{v}"
          for r, v in zip(rng.uniform(size=n), rng.integers(0, 8, size=n))]
    return make_table({"n1": num(1.0), "c1": c1, "n2": num(1e3),
                       "c2": [None if v == 0 else f"m{v}" for v in rng.integers(0, 5, size=n)]},
                      kinds={"n1": "numeric", "n2": "numeric"})


def unique_keys(n, query=False):
    """Every train row its own categorical key, and no query row sharing one."""
    return make_table({"c1": [f"v{i}" for i in range(n)],
                       "c2": [f"v{(i + 1) % n if query else i}" for i in range(n)],
                       "x": [f"{i % 7}" for i in range(n)]}, kinds={"x": "numeric"})


def numeric_only(rng, n, query=False):
    return make_table({"x": [f"{v:.3f}" for v in rng.normal(size=n)],
                       "y": [None if v < -1 else f"{v:.3f}" for v in rng.normal(size=n)]},
                      kinds={"x": "numeric", "y": "numeric"})


def dcr_groups(train, other):
    """Per other row, the train rows that share all its categorical cells
    (none for an unseen category: train rows hold only their own)."""
    cats = [c.name for c in train.schema.columns if c.kind == "categorical"]
    train_keys = list(zip(*(train.column_values(c) for c in cats))) if cats else [()] * train.row_count
    other_keys = list(zip(*(other.column_values(c) for c in cats))) if cats else [()] * other.row_count
    rows = {}
    for j, key in enumerate(train_keys):
        rows.setdefault(key, []).append(j)
    return [rows.get(key, []) for key in other_keys]


def dcr_branches(train, other):
    """The pre-pass branch of each other row, from the oracle distances:
    "none" (no group), "large" (its group exceeds n_train // 16 rows),
    "resolved" (its group's minimum is at most 1) or "left" (above 1)."""
    d = oracle_distances(train, other)
    out = []
    for i, group in enumerate(dcr_groups(train, other)):
        if not group:
            out.append("none")
        elif len(group) > train.row_count // 16:
            out.append("large")
        else:
            out.append("resolved" if d[i, group].min() <= 1.0 else "left")
    return out


@pytest.mark.parametrize("threads", ["1", "4"])
@pytest.mark.parametrize("scan_bytes", [None, 8 * 37, 8 * 400 * 5])
@pytest.mark.parametrize("case", ["grouped", "nonfinite", "unique_keys", "numeric_only"])
def test_dcr_prepass_matches_the_full_scan_bitwise(rng, monkeypatch, case, scan_bytes, threads):
    _with_infinities(monkeypatch)
    if case == "unique_keys":
        train, other = unique_keys(400), unique_keys(300, query=True)
    elif case == "numeric_only":
        train, other = numeric_only(rng, 400), numeric_only(rng, 300)
    else:
        nonfinite = case == "nonfinite"
        train, other = grouped_mixed(rng, 400, nonfinite=nonfinite), grouped_mixed(rng, 300, True, nonfinite)
    branches = dcr_branches(train, other)
    expected = {"grouped": {"resolved", "left", "none"}, "nonfinite": {"resolved", "left", "none"},
                "unique_keys": {"none"}, "numeric_only": {"large"}}[case]
    assert set(branches) == expected
    if case in ("grouped", "nonfinite"):
        no_group = {v for v, b in zip(other.column_values("c1"), branches) if b == "none"}
        assert no_group == {None, "unseen"}  # missing as a category, and an unseen one
    if scan_bytes:
        monkeypatch.setattr(argn.metrics, "SCAN_BYTES", scan_bytes)
    monkeypatch.setenv("ARGN_THREADS", threads)
    assert np.array_equal(dcr(train, other), oracle_dcr(train, other))


@st.composite
def dcr_table_pairs(draw):
    """A (train, other) pair of one DCR table shape, with ties: numerics on a
    grid of quarters, categoricals of few levels. Shapes: numerics only; one
    2-level categorical and 20 numerics, whose weak bound leaves most pairs
    as candidates; 300 2-level categoricals (with missing cells) and one
    numeric, which need 2-byte mismatch counts, some other rows copying a
    train row's categories so that they have a group; and two numerics with
    missing and infinite cells beside an 8- and a 4-level categorical."""
    shape = draw(st.sampled_from(["numeric", "weak", "wide", "nonfinite"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_train, n_other = draw(st.integers(1, 80)), draw(st.integers(0, 40))

    def num(n):
        cells = [f"{v / 4}" for v in rng.integers(-4, 5, size=n)]
        if shape == "nonfinite":
            cells = [None if r < 0.1 else "inf" if r < 0.15 else "-inf" if r < 0.2 else c
                     for r, c in zip(rng.uniform(size=n), cells)]
        return cells

    def cat(n, levels, prefix):
        return [None if v == levels else f"{prefix}{v}" for v in rng.integers(0, levels + 1, size=n)]

    def table(n):
        if shape == "numeric":
            return make_table({f"x{j}": num(n) for j in range(3)}, kinds={f"x{j}": "numeric" for j in range(3)})
        if shape == "weak":
            columns = {"c": cat(n, 2, "k"), **{f"x{j}": num(n) for j in range(20)}}
            return make_table(columns, kinds={f"x{j}": "numeric" for j in range(20)})
        if shape == "wide":
            return make_table({"x": num(n), **{f"c{j}": cat(n, 1, "k") for j in range(300)}}, kinds={"x": "numeric"})
        return make_table({"n1": num(n), "c1": cat(n, 7, "k"), "n2": num(n), "c2": cat(n, 3, "m")},
                          kinds={"n1": "numeric", "n2": "numeric"})

    train, other = table(n_train), table(n_other)
    if shape == "wide" and n_other:
        copies = rng.integers(0, n_train, size=n_other)
        own = rng.uniform(size=n_other) < 0.5
        columns = {name: [train.column_values(name)[j] if keep and name != "x" else cell
                          for keep, j, cell in zip(own, copies, other.column_values(name))]
                   for name in other.column_names}
        other = make_table(columns, kinds={"x": "numeric"})
    return train, other


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(dcr_table_pairs())
def test_dcr_passes_match_the_oracle_bitwise_across_shapes_threads_and_tiles(tables):
    train, other = tables
    with pytest.MonkeyPatch.context() as patch:
        _with_infinities(patch)
        expected = oracle_dcr(train, other)
        for scan_bytes in (argn.metrics.SCAN_BYTES, 8 * 37):  # 8 * 37: train tiles split mid-table
            patch.setattr(argn.metrics, "SCAN_BYTES", scan_bytes)
            for threads in ("1", "2", "8"):
                patch.setenv("ARGN_THREADS", threads)
                assert np.array_equal(dcr(train, other), expected)


def test_dcr_halves_an_overflowing_span():
    """A column whose range overflows (-1e308 to 1e308) has its values and
    span halved, which is exact: no distance is NaN (inf / inf) any more, so
    the pre-pass takes the table, and every distance is finite and equals the
    oracle's. Any overflow in the scan would raise, as warnings are errors."""
    train = make_table({"c": [f"k{i % 20}" for i in range(400)],
                        "x": ["-1e308", "1e308"] + [f"{i}" for i in range(398)]}, kinds={"x": "numeric"})
    other = make_table({"c": ["k0", "k1", "k2"], "x": ["1e308", "0", "-1e308"]}, kinds={"x": "numeric"})
    expected = oracle_dcr(train, other)
    # the last row's group (x = 0, 20, ...) resolves it; the train row 1e308 once made it NaN
    assert dcr_branches(train, other)[2] == "resolved" and np.isfinite(expected).all()
    assert expected[0] == expected[2] == 0.5
    assert np.array_equal(dcr(train, other), expected)


def test_a_query_outside_the_range_whose_difference_overflows_is_halved():
    """Train cells 1e308 and 1.1e308 have a finite span, but a query of -1e308
    is 2e308 below the top: values and span are halved, so the distance and
    the scaled value are about 20 and -20, not infinite. Any overflow would
    raise, as warnings are errors."""
    train = make_table({"x": ["1e308", "1.1e308"]}, kinds={"x": "numeric"})
    query = make_table({"x": ["-1e308"]}, kinds={"x": "numeric"})
    lo, q = 1e308 / 2, -1e308 / 2
    span = 1.1e308 / 2 - lo
    assert dcr(train, query).tolist() == oracle_dcr(train, query).tolist() == [(lo - q) / span]
    assert MixedFeatureMap(train).transform(query).tolist() == [[(q - lo) / span]]
    assert (lo - q) / span == pytest.approx(20.0)


def test_min_max_scaling_halves_an_overflowing_range():
    table = make_table({"x": ["-1e308", "0", "1e308", ""]}, kinds={"x": "numeric"})
    assert MixedFeatureMap(table).transform(table)[:, 0].tolist() == [0.0, 0.5, 1.0, 0.5]
    assert wasserstein1([-1e308, 1e308], [-1e308, 1e308]) == 0.0
    assert wasserstein1([-1e308], [1e308]) == 1.0


def worst_case(levels, n=4000):
    """n rows of 20 N(0, 1) numerics and one categorical of ``levels`` levels:
    groups of n / levels rows, in which almost no row resolves."""
    rng = np.random.default_rng(levels)
    columns = {f"x{j}": [f"{v:.4f}" for v in rng.normal(size=n)] for j in range(20)}
    columns["c"] = [f"k{v}" for v in rng.integers(0, levels, size=n)]
    return make_table(columns, kinds={f"x{j}": "numeric" for j in range(20)})


@pytest.mark.parametrize("tables", ["grouped", "worst_2", "worst_10", "worst_40"])
def test_dcr_prepass_examines_at_most_one_sixteenth_more_pairs(rng, monkeypatch, tables):
    """Pairs examined when no row resolves in its group and no bound prunes a
    pair (every gathered distance reads infinite): each row's own group in
    pass 1 (only groups within n_train // 16), one seed pair per row, then
    every train row in dense tiles."""
    if tables == "grouped":
        train, other = grouped_mixed(rng, 400), grouped_mixed(rng, 300, query=True)
    else:
        train = worst_case(int(tables.split("_")[1]))
        other = worst_case(int(tables.split("_")[1]) + 1000).subset(range(3000))
    n, m = other.row_count, train.row_count
    gathered, dense = [], []

    def unresolved(columns, other_rows, repeats, train_rows, work, unequal):
        gathered.append(len(train_rows))
        return np.full(len(train_rows), np.inf)

    def full(columns, sl, train_rows, buffers):
        dense.append((sl.stop - sl.start) * (train_rows.stop - train_rows.start))
        return np.full(sl.stop - sl.start, 2.0)

    monkeypatch.setattr(argn.metrics, "_dcr_pairs", unresolved)
    monkeypatch.setattr(argn.metrics, "_dcr_chunk", full)
    dcr(train, other)
    group_pairs = sum(len(g) for g in dcr_groups(train, other) if len(g) <= m // 16)
    assert sum(gathered) == group_pairs + n and sum(dense) == n * m
    assert sum(gathered) + sum(dense) <= (1 + 1 / 16) * n * m
    assert group_pairs > 0 or tables in ("worst_2", "worst_10")


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
