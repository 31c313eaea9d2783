import pytest

from argn.protect import (
    RARE_TOKEN,
    ValueProtectionConfig,
    protect_extreme_values,
    protect_rare_categories,
    protect_table,
)
from conftest import make_table


def cfg(**kw):
    return ValueProtectionConfig(**kw)


def test_rare_token_replacement():
    values = ["a"] * 10 + ["b"] * 3
    out = protect_rare_categories(values, cfg(rare_min_count=5))
    assert out == ["a"] * 10 + [RARE_TOKEN] * 3


def test_rare_threshold_boundary_unchanged():
    values = ["a"] * 10 + ["b"] * 9
    out = protect_rare_categories(values, cfg(rare_min_count=8))
    assert out == values


def test_rare_resample_single_donor():
    values = ["a"] * 99 + ["b"]
    out = protect_rare_categories(values, cfg(rare_min_count=5, rare_mode="resample"))
    assert out == ["a"] * 100  # only one non-rare category exists


def test_rare_all_rare_becomes_token():
    values = ["a", "b", "c"]
    out = protect_rare_categories(values, cfg(rare_min_count=5))
    assert out == [RARE_TOKEN] * 3


def test_rare_missing_untouched():
    values = ["a"] * 9 + [None, "b"]
    out = protect_rare_categories(values, cfg(rare_min_count=5))
    assert out[9] is None
    assert out[10] == RARE_TOKEN


def test_rare_surviving_frequency_invariant(rng):
    t = 6
    values = [f"c{rng.integers(30)}" for _ in range(200)]
    out = protect_rare_categories(values, cfg(rare_min_count=t))
    counts = {}
    for v in out:
        counts[v] = counts.get(v, 0) + 1
    for v, c in counts.items():
        if v != RARE_TOKEN:
            assert c >= t


def test_extreme_order_statistics_oracle():
    values = [str(i) for i in range(1, 101)]
    out = protect_extreme_values(values, cfg(extreme_k=5))
    nums = [float(v) for v in out]
    distinct = sorted(set(range(1, 101)))
    assert max(nums) == distinct[-5] == 96
    assert min(nums) == distinct[4] == 5


def test_extreme_constant_column_unchanged():
    values = ["7"] * 20
    assert protect_extreme_values(values, cfg(extreme_k=5)) == values


def test_extreme_thresholds_use_distinct_values():
    values = ["1"] * 50 + [str(i) for i in range(2, 20)]
    out = protect_extreme_values(values, cfg(extreme_k=3))
    nums = sorted(set(float(v) for v in out))
    # distinct inputs are 1..19; k=3 keeps [3, 17]
    assert nums[0] == 3.0
    assert nums[-1] == 17.0


def test_extreme_too_few_distinct_unchanged():
    values = ["1", "2", "3", "4"]
    assert protect_extreme_values(values, cfg(extreme_k=5)) == values


def test_extreme_datetime_clipping():
    values = [f"2021-01-{d:02d}" for d in range(1, 21)]
    out = protect_extreme_values(values, cfg(extreme_k=5), kind="datetime")
    assert max(out) == "2021-01-16"
    assert min(out) == "2021-01-05"


def test_extreme_datetime_clipping_mixes_naive_and_offset_cells():
    values = [f"2020-01-{d:02d}" for d in range(1, 8)] + ["2020-02-01T00:00:00+02:00"]
    out = protect_extreme_values(values, cfg(extreme_k=2), kind="datetime")
    assert out == ["2020-01-02"] + values[1:7] + ["2020-01-07"]


def test_random_threshold_range():
    seen = set()
    for seed in range(40):
        values = ["a"] * 10 + ["b"] * 7
        out = protect_rare_categories(
            values, cfg(rare_min_count="random", rng_seed=seed)
        )
        seen.add(RARE_TOKEN in out)
    assert seen == {True, False}  # thresholds 5..7 keep b, threshold 8 kills it


def test_protect_table_shape_preserved():
    table = make_table(
        {"c": ["a"] * 10 + ["b"], "n": [str(i) for i in range(11)]},
        kinds={"n": "numeric"},
    )
    out = protect_table(table, table.schema, cfg(rare_min_count=5, extreme_k=2))
    assert out.row_count == table.row_count
    assert out.column_names == table.column_names
    assert out.column_values("c")[10] == RARE_TOKEN


def test_protect_table_disabled_is_identity():
    table = make_table({"c": ["a", "b"]})
    out = protect_table(table, table.schema, cfg(enabled=False, rare_min_count=5))
    assert out.cells == table.cells


def test_config_validation():
    with pytest.raises(ValueError):
        ValueProtectionConfig(rare_min_count=0)
    with pytest.raises(ValueError):
        ValueProtectionConfig(rare_mode="nope")
