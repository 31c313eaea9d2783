import math

import numpy as np
import pytest

from argn.encoders import (
    CategoryEncoder,
    DatetimeEncoder,
    DigitEncoder,
    EncodedTable,
    EncodingOptions,
    PercentileEncoder,
    QuadtileEncoder,
    decode_table,
    encode_table,
    fit_encoders,
)
from argn.tables import ColumnSpec, infer_schema

from conftest import make_table


# single-column fits under a placeholder column name


def fit_categorical(values) -> CategoryEncoder:
    return CategoryEncoder.fit("value", values)


def fit_percentile(values, n_bins: int = 100) -> PercentileEncoder:
    return PercentileEncoder.fit("value", values, n_bins)


def fit_digit_split(values) -> DigitEncoder:
    return DigitEncoder.fit("value", values)


def fit_datetime(values) -> DatetimeEncoder:
    return DatetimeEncoder.fit("value", values)


def fit_quadtile(lat_values, lon_values, min_tile_count: int = 100, max_depth: int = 12) -> QuadtileEncoder:
    return QuadtileEncoder.fit("value", ("lat", "lon"), lat_values, lon_values, min_tile_count, max_depth)


# -- categorical -------------------------------------------------------------


def test_categorical_frequency_order():
    enc = fit_categorical(["a", "a", "b"])
    assert enc.mapping == {"a": 0, "b": 1, None: 2}
    assert enc.cardinality == 3


def test_categorical_all_missing():
    enc = fit_categorical([None, None])
    assert enc.cardinality == 1
    assert enc.mapping == {None: 0}


def test_categorical_tie_lexicographic():
    enc = fit_categorical(["x", "y", "x", "y"])
    assert enc.mapping["x"] == 0
    assert enc.mapping["y"] == 1


def test_categorical_round_trip(rng):
    enc = fit_categorical(["red", "green", "blue", None, "red"])
    codes = enc.encode(["blue", None, "red"])
    assert enc.decode(codes, rng) == ["blue", None, "red"]


# -- percentile --------------------------------------------------------------


def brute_quantile(sorted_vals, q):
    # linear interpolation over the sorted sample, written out longhand
    pos = q * (len(sorted_vals) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return sorted_vals[lo] + frac * (sorted_vals[hi] - sorted_vals[lo])


def test_percentile_bin_of_500_matches_quantile_oracle():
    values = [str(i) for i in range(1, 1001)]
    enc = fit_percentile(values, n_bins=100)
    sorted_vals = list(range(1, 1001))
    edges = [brute_quantile(sorted_vals, i / 100) for i in range(101)]
    expected = max(j for j in range(100) if edges[j] <= 500)
    assert expected == 49
    assert enc.encode_value("500") == [49]
    np.testing.assert_allclose(enc.edges, edges)


def test_percentile_constant_column():
    enc = fit_percentile(["5", "5", "5"])
    assert enc.cardinality == 2  # one value bin + MISSING
    assert enc.encode_value("5") == [0]
    assert enc.encode_value(None) == [1]


def test_percentile_boundaries_and_clamping():
    enc = fit_percentile([str(i) for i in range(1, 1001)], n_bins=100)
    assert enc.encode_value("1") == [0]
    assert enc.encode_value("1000") == [enc.n_value_bins - 1]
    assert enc.encode_value("-99") == [0]
    assert enc.encode_value("5000") == [enc.n_value_bins - 1]


def test_percentile_rejects_bad_bins():
    with pytest.raises(ValueError):
        fit_percentile(["1", "2"], n_bins=0)


def test_percentile_edges_strictly_increasing(rng):
    vals = [str(v) for v in rng.integers(0, 20, size=500)]  # heavy duplicates
    enc = fit_percentile(vals)
    assert np.all(np.diff(enc.edges) > 0) or len(enc.edges) == 2


def test_percentile_bin_stability(rng):
    vals = [str(v) for v in rng.normal(size=300)]
    enc = fit_percentile(vals, n_bins=25)
    for k in range(enc.n_value_bins):
        codes = np.full((50, 1), k, dtype=np.int32)
        decoded = enc.decode(codes, rng)
        again = enc.encode(decoded)
        assert np.all(again[:, 0] == k)


def test_percentile_decode_within_bin(rng):
    enc = fit_percentile([str(i) for i in range(100)], n_bins=10)
    decoded = enc.decode(np.array([[3]], dtype=np.int32), rng)
    x = float(decoded[0])
    assert enc.edges[3] <= x < enc.edges[4]


# -- digit split -------------------------------------------------------------


def test_digit_layout_no_negatives():
    enc = fit_digit_split(["42", "7"])
    assert not enc.has_sign
    assert enc.n_digits == 2
    assert enc.encode_value("42") == [4, 2]
    assert enc.encode_value("7") == [0, 7]


def test_digit_layout_with_sign_and_decimals():
    enc = fit_digit_split(["-1.5", "2.25"])
    assert enc.has_sign
    assert enc.decimals == 2
    # sign, then digits of 150 zero-padded to width 3 (max scaled = 225)
    assert enc.encode_value("-1.5") == [1, 1, 5, 0]
    assert enc.encode_value("2.25") == [0, 2, 2, 5]


def test_digit_round_trip_exact(rng):
    enc = fit_digit_split(["123"])
    codes = enc.encode(["123"])
    assert enc.decode(codes, rng) == ["123"]


def test_digit_round_trip_mixed(rng):
    values = ["-1.5", "2.25", "0", "10.01", None]
    enc = fit_digit_split(values)
    decoded = enc.decode(enc.encode(values), rng)
    assert decoded == ["-1.5", "2.25", "0", "10.01", None]


def test_digit_missing_slot_on_leading():
    enc = fit_digit_split(["42", "7"])
    subs = enc.sub_columns()
    assert subs[0].cardinality == 11
    assert subs[1].cardinality == 10
    assert enc.encode_value(None)[0] == 10


def test_digit_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        fit_digit_split(["1", "inf"])


# -- datetime ----------------------------------------------------------------


def test_datetime_constant_parts_dropped():
    enc = fit_datetime(["2021-03-05", "2021-04-09", "2021-03-17"])
    assert enc.parts == ["month", "day"]
    assert enc.constants["year"] == 2021


def test_datetime_calendar_clamp(rng):
    import calendar

    enc = fit_datetime(["2021-03-05", "2021-04-09"])  # year constant 2021
    month_idx = enc.parts.index("month")
    day_idx = enc.parts.index("day")
    codes = np.zeros((1, len(enc.parts)), dtype=np.int32)
    codes[0, month_idx] = 2 - 1
    codes[0, day_idx] = 30 - 1
    decoded = enc.decode(codes, rng)
    assert calendar.monthrange(2021, 2)[1] == 28  # the oracle
    assert decoded == ["2021-02-28"]


def test_datetime_pure_dates_have_no_time_parts():
    enc = fit_datetime(["2020-01-01", "2021-06-15"])
    assert all(p not in enc.parts for p in ("hour", "minute", "second"))


def test_datetime_with_time_round_trips(rng):
    values = ["2021-01-01 10:30:00", "2021-01-02 11:45:10", None]
    enc = fit_datetime(values)
    decoded = enc.decode(enc.encode(values), rng)
    assert decoded == values


# -- quadtile ----------------------------------------------------------------


def test_quadtile_ne_quadrant_digit():
    # force exactly one split so depth-1 keys are the leaves
    enc = fit_quadtile(["45", "-45"], ["90", "-90"], min_tile_count=2, max_depth=1)
    assert sorted(enc.leaves) == ["0", "1", "2", "3"]
    assert enc.key_of(45.0, 90.0) == "1"


def test_quadtile_dense_point_hits_max_depth():
    lat = ["10.0"] * 1000
    lon = ["20.0"] * 1000
    enc = fit_quadtile(lat, lon, min_tile_count=100, max_depth=12)
    key = enc.key_of(10.0, 20.0)
    assert len(key) == 12
    assert enc.encode(lat, lon)[:, 0].max() == enc.encode(lat, lon)[:, 0].min()


def test_quadtile_no_split_single_root():
    enc = fit_quadtile(["1", "2"], ["3", "4"], min_tile_count=10**9)
    assert enc.leaves == [""]
    assert enc.cardinality == 2  # root + MISSING


def test_quadtile_out_of_range_errors():
    with pytest.raises(ValueError, match="out of range"):
        fit_quadtile(["91"], ["0"])


def test_quadtile_leaves_partition(rng):
    lat = [str(v) for v in rng.uniform(-90, 90, size=400)]
    lon = [str(v) for v in rng.uniform(-180, 180, size=400)]
    enc = fit_quadtile(lat, lon, min_tile_count=50, max_depth=6)
    # every random coordinate lands in exactly one leaf
    for _ in range(200):
        p, q = rng.uniform(-90, 90), rng.uniform(-180, 180)
        key = enc.key_of(p, q)
        assert key in enc.leaf_index
        prefixes = [k for k in enc.leaves if key.startswith(k) or k.startswith(key)]
        assert prefixes == [key]


def test_quadtile_decode_inside_box(rng):
    enc = fit_quadtile(["45", "-45"], ["90", "-90"], min_tile_count=2, max_depth=3)
    codes = enc.encode(["45"], ["90"])
    lats, lons = enc.decode(codes, rng)
    assert enc.key_of(float(lats[0]), float(lons[0])) == enc.key_of(45.0, 90.0)


# -- whole-table encode/decode ----------------------------------------------


def test_encode_decode_table_round_trip(rng):
    table = make_table(
        {
            "color": ["red", "blue", None, "red"],
            "amount": ["1", "2", "3", "4"],
            "when": ["2021-01-01", "2021-02-03", None, "2021-03-04"],
        },
        kinds={"amount": "numeric", "when": "datetime"},
    )
    encoders = fit_encoders(table, table.schema, EncodingOptions(n_bins=4))
    encoded = encode_table(table, encoders)
    assert encoded.row_count == 4
    assert sum(len(e.sub_columns()) for e in encoders.encoders) == len(encoded.sub_columns)
    decoded = decode_table(encoded, encoders, rng)
    assert decoded.column_values("color") == ["red", "blue", None, "red"]
    assert decoded.column_values("when") == ["2021-01-01", "2021-02-03", None, "2021-03-04"]
    for orig, got in zip(["1", "2", "3", "4"], decoded.column_values("amount")):
        # percentile decode lands in the same bin, not on the same value
        assert encoders.encoder_for("amount").encode_value(got) == encoders.encoder_for(
            "amount"
        ).encode_value(orig)


def test_sub_columns_contiguous_per_parent():
    table = make_table(
        {"a": ["x", "y"], "n": ["-1.5", "2.25"]},
        kinds={"n": "numeric"},
    )
    schema = infer_schema_override_digit(table)
    encoders = fit_encoders(table, schema)
    parents = [s.parent for s in encoders.sub_columns]
    assert parents == ["a"] + ["n"] * (len(parents) - 1)


def infer_schema_override_digit(table):
    ov = ColumnSpec("n", "numeric", "digit_split")
    return infer_schema(table, {"n": ov})


def test_encoded_table_rejects_out_of_range():
    from argn.encoders import SubColumn

    with pytest.raises(ValueError, match="corrupt"):
        EncodedTable([SubColumn("a", 2, "a")], np.array([[2]]))


def test_latlong_table_round_trip(rng):
    table = make_table({"lat": ["10", "-20", None], "lon": ["30", "40", "50"]})
    ov = ColumnSpec("loc", "latlong", "quadtile", sources=("lat", "lon"))
    schema = infer_schema(table, {"loc": ov})
    encoders = fit_encoders(table, schema, EncodingOptions(quad_min_tile=2, quad_max_depth=2))
    encoded = encode_table(table, encoders)
    assert len(encoded.sub_columns) == 1
    decoded = decode_table(encoded, encoders, rng)
    assert decoded.column_names == ["lat", "lon"]
    assert decoded.column_values("lat")[2] is None
