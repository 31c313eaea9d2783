import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from argn.protect import (
    RARE_TOKEN,
    ValueProtectionConfig,
    protect_extreme_values,
    protect_rare_categories,
    protect_table,
)
from argn.tables import parse_column
from conftest import make_table, table_rows


def cfg(**kw):
    return ValueProtectionConfig(**kw)


def clip(values, kind="numeric", **kw):
    """The cells protect_extreme_values leaves of a one-column table."""
    return protect_extreme_values(make_table({"x": values}), "x", cfg(**kw), kind=kind).cells


def rare(values, config, rng=None):
    """The cells protect_rare_categories leaves of a one-column table."""
    return protect_rare_categories(make_table({"c": values}), "c", config, rng).cells


def test_rare_token_replacement():
    values = ["a"] * 10 + ["b"] * 3
    out = rare(values, cfg(rare_min_count=5))
    assert out == ["a"] * 10 + [RARE_TOKEN] * 3


def test_rare_threshold_boundary_unchanged():
    values = ["a"] * 10 + ["b"] * 9
    out = rare(values, cfg(rare_min_count=8))
    assert out == values


def test_rare_resample_single_donor():
    values = ["a"] * 99 + ["b"]
    out = rare(values, cfg(rare_min_count=5, rare_mode="resample"))
    assert out == ["a"] * 100  # only one non-rare category exists


def test_rare_all_rare_becomes_token():
    values = ["a", "b", "c"]
    out = rare(values, cfg(rare_min_count=5))
    assert out == [RARE_TOKEN] * 3


def test_rare_missing_untouched():
    values = ["a"] * 9 + [None, "b"]
    out = rare(values, cfg(rare_min_count=5))
    assert out[9] is None
    assert out[10] == RARE_TOKEN


def test_rare_surviving_frequency_invariant(rng):
    t = 6
    values = [f"c{rng.integers(30)}" for _ in range(200)]
    out = rare(values, cfg(rare_min_count=t))
    counts = {}
    for v in out:
        counts[v] = counts.get(v, 0) + 1
    for v, c in counts.items():
        if v != RARE_TOKEN:
            assert c >= t


def resample_per_cell(values, t, rng):
    """Resample mode as one rng.choice call per rare cell, the reference."""
    counts = {}
    for v in values:
        if v is not None:
            counts[v] = counts.get(v, 0) + 1
    donors = sorted(v for v, c in counts.items() if c >= t)
    weights = np.array([counts[v] for v in donors], dtype=np.float64)
    weights /= weights.sum()
    return [donors[int(rng.choice(len(donors), p=weights))] if v is not None and counts[v] < t else v
            for v in values]


@pytest.mark.parametrize("seed", range(8))
def test_rare_resample_draws_like_one_choice_per_cell(seed):
    data = np.random.default_rng(100 + seed)
    values = [None if r < 0.05 else f"c{int(v)}" for r, v in
              zip(data.random(300), data.zipf(1.6, size=300) % 40)]
    config = cfg(rare_min_count=6, rare_mode="resample", rng_seed=seed)
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    ours.integers(10), ref.integers(10)  # a generator already in use
    out = rare(values, config, ours)
    assert out == resample_per_cell(values, 6, ref)
    assert out != values
    assert ours.bit_generator.state == ref.bit_generator.state


def test_extreme_order_statistics_oracle():
    values = [str(i) for i in range(1, 101)]
    out = clip(values, extreme_k=5)
    nums = [float(v) for v in out]
    distinct = sorted(set(range(1, 101)))
    assert max(nums) == distinct[-5] == 96
    assert min(nums) == distinct[4] == 5


def test_extreme_constant_column_unchanged():
    values = ["7"] * 20
    assert clip(values, extreme_k=5) == values


def test_extreme_thresholds_use_distinct_values():
    values = ["1"] * 50 + [str(i) for i in range(2, 20)]
    out = clip(values, extreme_k=3)
    nums = sorted(set(float(v) for v in out))
    # distinct inputs are 1..19; k=3 keeps [3, 17]
    assert nums[0] == 3.0
    assert nums[-1] == 17.0


def test_extreme_too_few_distinct_unchanged():
    values = ["1", "2", "3", "4"]
    assert clip(values, extreme_k=5) == values


def test_extreme_datetime_clipping():
    values = [f"2021-01-{d:02d}" for d in range(1, 21)]
    out = clip(values, "datetime", extreme_k=5)
    assert max(out) == "2021-01-16"
    assert min(out) == "2021-01-05"


def test_extreme_datetime_clipping_mixes_naive_and_offset_cells():
    values = [f"2020-01-{d:02d}" for d in range(1, 8)] + ["2020-02-01T00:00:00+02:00"]
    out = clip(values, "datetime", extreme_k=2)
    assert out == ["2020-01-02"] + values[1:7] + ["2020-01-07"]


def test_random_threshold_range():
    seen = set()
    for seed in range(40):
        values = ["a"] * 10 + ["b"] * 7
        out = rare(values, cfg(rare_min_count="random", rng_seed=seed))
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
    assert table_rows(out) == table_rows(table)


def test_config_validation():
    with pytest.raises(ValueError):
        ValueProtectionConfig(rare_min_count=0)
    with pytest.raises(ValueError):
        ValueProtectionConfig(rare_mode="nope")


_number = st.one_of(st.integers(-30, 30).map(str), st.sampled_from(["-0", "0", "0.0", "1e1", "10", "x", None]))
_date = st.one_of(st.dates().map(str), st.sampled_from(["2020-01-01T02:00:00+02:00", "2020-01-01", "n/a", None]))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(_number, _date, st.sampled_from(["1", "2", "a", "b", "c", None]),
                          st.sampled_from(["1", "2", None])), min_size=1, max_size=40),
       st.integers(1, 4))
@example([(str(i), f"2020-01-{i + 1:02d}", "a", "1") for i in range(8)]
         + [("-0", "2020-01-01T02:00:00+02:00", "1", "2"), ("0", "2020-01-01", "a", "1")], 2)
@example([(n, "2020-01-01", "a", "1") for n in ("-1", "0", "-0", "1", "2", "3")], 2)  # a signed-zero bound
def test_protect_table_values_equal_parsing_its_cells(rows, k):
    """Bit for bit, NaNs included, for clipped, rare-protected and
    unchanged columns (``short`` has fewer than 2k distinct values)."""
    names = ("n", "d", "c", "short")
    table = make_table(dict(zip(names, map(list, zip(*rows)))),
                       kinds={"n": "numeric", "d": "datetime", "short": "numeric"})
    for name in names:
        table.values(name, "numeric")
    out = protect_table(table, table.schema, cfg(rare_min_count=2, extreme_k=k))
    for name in names:
        for kind in ("numeric", "datetime"):
            expected = parse_column(out.column_values(name), kind)
            assert out.values(name, kind).tobytes() == expected.tobytes(), (name, kind)
