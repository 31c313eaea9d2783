import inspect
import json
import math
from collections import Counter
from datetime import datetime
from decimal import ROUND_HALF_UP, Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import argn.tables
from argn.encoders import (
    ENCODERS,
    CategoryEncoder,
    DatetimeEncoder,
    DigitEncoder,
    EncodedTable,
    EncodingOptions,
    PercentileEncoder,
    QuadtileEncoder,
    TableEncoders,
    decode_table,
    encode_table,
    fit_encoders,
)
from argn.tables import (
    ColumnSpec,
    factorize,
    infer_schema,
    parse_column,
    parse_datetime,
    parse_number,
)

from conftest import make_table


# single-column fits under a placeholder column name


def column(values):
    """A one-column table of the cells under the placeholder name."""
    return make_table({"value": list(values)})


def lat_lon(lat_values, lon_values):
    return make_table({"lat": list(lat_values), "lon": list(lon_values)})


def fit_categorical(values) -> CategoryEncoder:
    return CategoryEncoder.fit(ColumnSpec("value", "categorical"), column(values), EncodingOptions())


def fit_percentile(values, n_bins: int = 100) -> PercentileEncoder:
    return PercentileEncoder.fit(ColumnSpec("value", "numeric"), column(values), EncodingOptions(n_bins=n_bins))


def fit_digit_split(values) -> DigitEncoder:
    return DigitEncoder.fit(ColumnSpec("value", "numeric", "digit_split"), column(values), EncodingOptions())


def fit_datetime(values) -> DatetimeEncoder:
    return DatetimeEncoder.fit(ColumnSpec("value", "datetime"), column(values), EncodingOptions())


def fit_quadtile(lat_values, lon_values, min_tile_count: int = 100, max_depth: int = 12) -> QuadtileEncoder:
    return QuadtileEncoder.fit(ColumnSpec("value", "latlong", sources=("lat", "lon")), lat_lon(lat_values, lon_values),
                               EncodingOptions(quad_min_tile=min_tile_count, quad_max_depth=max_depth))


def leaf_of(enc: QuadtileEncoder, lat: float, lon: float) -> str:
    """The key of the leaf that ``encode`` puts the point (lat, lon) in."""
    return enc.leaves[int(enc.encode(lat_lon([repr(lat)], [repr(lon)]))[0, 0])]


# -- categorical -------------------------------------------------------------


def test_categorical_frequency_order():
    enc = fit_categorical(["a", "a", "b"])
    assert enc.mapping == {"a": 0, "b": 1, None: 2}
    assert enc.sub_columns[0].cardinality == 3


def test_categorical_all_missing():
    enc = fit_categorical([None, None])
    assert enc.sub_columns[0].cardinality == 1
    assert enc.mapping == {None: 0}


def test_categorical_tie_lexicographic():
    enc = fit_categorical(["x", "y", "x", "y"])
    assert enc.mapping["x"] == 0
    assert enc.mapping["y"] == 1


def test_categorical_round_trip(rng):
    enc = fit_categorical(["red", "green", "blue", None, "red"])
    codes = enc.encode(column(["blue", None, "red"]))
    assert enc.decode(codes, rng.random((3, enc.n_draws)))[0].cells == ["blue", None, "red"]


def test_categorical_dict_keeps_a_real_nul_apart_from_missing():
    enc = fit_categorical(["\0", "a", None, "a"])
    (loaded,) = TableEncoders.from_dict(json.loads(json.dumps(TableEncoders([enc]).to_dict()))).encoders
    assert loaded.mapping == enc.mapping == {"a": 0, "\0": 1, None: 2}
    assert loaded.sub_columns[0].cardinality == 3


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
    assert enc.encode(column(["500"]))[0].tolist() == [49]
    np.testing.assert_allclose(enc.edges, edges)


def test_percentile_constant_column():
    enc = fit_percentile(["5", "5", "5"])
    assert enc.sub_columns[0].cardinality == 2  # one value bin + MISSING
    assert enc.encode(column(["5"]))[0].tolist() == [0]
    assert enc.encode(column([None]))[0].tolist() == [1]


def test_percentile_boundaries_and_clamping():
    enc = fit_percentile([str(i) for i in range(1, 1001)], n_bins=100)
    assert enc.encode(column(["1"]))[0].tolist() == [0]
    assert enc.encode(column(["1000"]))[0].tolist() == [enc.missing - 1]
    assert enc.encode(column(["-99"]))[0].tolist() == [0]
    assert enc.encode(column(["5000"]))[0].tolist() == [enc.missing - 1]


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
    for k in range(enc.missing):
        codes = np.full((50, 1), k, dtype=np.int32)
        (x,) = enc.decode(codes, rng.random((50, enc.n_draws)))
        again = enc.encode(column(x.cells))
        assert np.all(again[:, 0] == k)


def test_percentile_decode_within_bin(rng):
    enc = fit_percentile([str(i) for i in range(100)], n_bins=10)
    (decoded,) = enc.decode(np.array([[3]], dtype=np.int32), rng.random((1, enc.n_draws)))
    x = float(decoded.cells[0])
    assert enc.edges[3] <= x < enc.edges[4]


# -- digit split -------------------------------------------------------------


def test_digit_layout_no_negatives():
    enc = fit_digit_split(["42", "7"])
    assert not enc.has_sign
    assert enc.n_digits == 2
    assert enc.encode(column(["42"]))[0].tolist() == [4, 2]
    assert enc.encode(column(["7"]))[0].tolist() == [0, 7]


def test_digit_layout_with_sign_and_decimals():
    enc = fit_digit_split(["-1.5", "2.25"])
    assert enc.has_sign
    assert enc.decimals == 2
    # sign, then digits of 150 zero-padded to width 3 (max scaled = 225)
    assert enc.encode(column(["-1.5"]))[0].tolist() == [1, 1, 5, 0]
    assert enc.encode(column(["2.25"]))[0].tolist() == [0, 2, 2, 5]


def test_digit_round_trip_exact(rng):
    enc = fit_digit_split(["123"])
    codes = enc.encode(column(["123"]))
    assert enc.decode(codes, rng.random((1, enc.n_draws))) == [["123"]]


def test_digit_round_trip_mixed(rng):
    values = ["-1.5", "2.25", "0", "10.01", None]
    enc = fit_digit_split(values)
    (decoded,) = enc.decode(enc.encode(column(values)), rng.random((len(values), enc.n_draws)))
    assert decoded == ["-1.5", "2.25", "0", "10.01", None]


def test_digit_missing_slot_on_leading():
    enc = fit_digit_split(["42", "7"])
    subs = enc.sub_columns
    assert subs[0].cardinality == 11
    assert subs[1].cardinality == 10
    assert enc.encode(column([None]))[0].tolist()[0] == 10


def test_digit_round_trip_keeps_trailing_zeros_of_whole_numbers(rng):
    values = ["10", "2.25", "100", "-20", "0.5"]
    enc = fit_digit_split(values)
    u = rng.random((len(values), enc.n_draws))
    assert enc.decode(enc.encode(column(values)), u) == [values]
    assert enc.decode(enc.encode(column(["30.0"])), u[:1]) == [["30"]]


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
    (decoded,) = enc.decode(codes, rng.random((1, enc.n_draws)))
    assert calendar.monthrange(2021, 2)[1] == 28  # the oracle
    assert decoded == ["2021-02-28"]


def test_datetime_pure_dates_have_no_time_parts():
    enc = fit_datetime(["2020-01-01", "2021-06-15"])
    assert all(p not in enc.parts for p in ("hour", "minute", "second"))


def test_datetime_with_time_round_trips(rng):
    values = ["2021-01-01 10:30:00", "2021-01-02 11:45:10", None]
    enc = fit_datetime(values)
    (decoded,) = enc.decode(enc.encode(column(values)), rng.random((len(values), enc.n_draws)))
    assert decoded == values


def test_datetime_years_below_1000_are_zero_padded(rng):
    values = ["0999-01-02", "1001-03-04"]
    enc = fit_datetime(values)
    (decoded,) = enc.decode(enc.encode(column(values)), rng.random((2, enc.n_draws)))
    assert decoded == values
    assert parse_datetime(decoded[0]) == datetime(999, 1, 2)


def test_datetime_parts_are_utc_parts():
    enc = fit_datetime(["2021-01-01 10:30:00", "2021-01-02 11:45:10"])
    same = enc.encode(column(["2021-01-01 10:30:00", "2021-01-01T12:30:00+02:00"]))
    assert same[0].tolist() == same[1].tolist()


def test_datetime_parts_and_constants_are_the_six_calendar_parts():
    args = fit_datetime(["2021-01-05", "2021-03-07"]).to_dict()
    del args["type"]
    assert DatetimeEncoder(**args).to_dict() == {"type": "datetime_parts", **args}
    hourless = {p: v for p, v in args["constants"].items() if p != "hour"}
    for constants in ({**args["constants"], "week": 1}, hourless):
        with pytest.raises(ValueError, match="six calendar parts"):
            DatetimeEncoder(**{**args, "constants": constants})
    with pytest.raises(ValueError, match="six calendar parts"):
        DatetimeEncoder(**{**args, "parts": ["month", "month"]})


# -- quadtile ----------------------------------------------------------------


def test_quadtile_ne_quadrant_digit():
    # force exactly one split so depth-1 keys are the leaves
    enc = fit_quadtile(["45", "-45"], ["90", "-90"], min_tile_count=2, max_depth=1)
    assert sorted(enc.leaves) == ["0", "1", "2", "3"]
    assert leaf_of(enc, 45.0, 90.0) == "1"


def test_quadtile_dense_point_hits_max_depth():
    lat = ["10.0"] * 1000
    lon = ["20.0"] * 1000
    enc = fit_quadtile(lat, lon, min_tile_count=100, max_depth=12)
    key = leaf_of(enc, 10.0, 20.0)
    assert len(key) == 12
    assert enc.encode(lat_lon(lat, lon))[:, 0].max() == enc.encode(lat_lon(lat, lon))[:, 0].min()


def test_quadtile_no_split_single_root():
    enc = fit_quadtile(["1", "2"], ["3", "4"], min_tile_count=10**9)
    assert enc.leaves == [""]
    assert enc.sub_columns[0].cardinality == 2  # root + MISSING


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
        key = leaf_of(enc, p, q)
        assert key in enc.leaves
        prefixes = [k for k in enc.leaves if key.startswith(k) or k.startswith(key)]
        assert prefixes == [key]


@pytest.mark.parametrize("leaves", [
    ["0", "1", "2", "7"],  # not a quadrant digit
    ["0", "1"],  # leaves half the globe uncovered
    ["0", "0", "1", "2"],  # a duplicate that covers the area of the missing "3"
    ["", "0"],  # a prefix pair
    ["0", "00", "01", "02", "03", "1", "2"],  # "0" and its children, in place of "3"
])
def test_quadtile_leaves_that_do_not_tile_the_globe_are_refused(leaves):
    with pytest.raises(ValueError, match="do not tile the globe"):
        QuadtileEncoder("loc", ("lat", "lon"), leaves)


def test_quadtile_decode_inside_box(rng):
    enc = fit_quadtile(["45", "-45"], ["90", "-90"], min_tile_count=2, max_depth=3)
    codes = enc.encode(lat_lon(["45"], ["90"]))
    lats, lons = enc.decode(codes, rng.random((1, enc.n_draws)))
    assert leaf_of(enc, float(lats.cells[0]), float(lons.cells[0])) == leaf_of(enc, 45.0, 90.0)


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
    assert sum(len(e.sub_columns) for e in encoders.encoders) == len(encoded.sub_columns)
    decoded = decode_table(encoded, encoders, rng.random((encoded.row_count, encoders.n_draws)))
    assert decoded.column_values("color") == ["red", "blue", None, "red"]
    assert decoded.column_values("when") == ["2021-01-01", "2021-02-03", None, "2021-03-04"]
    for orig, got in zip(["1", "2", "3", "4"], decoded.column_values("amount")):
        # percentile decode lands in the same bin, not on the same value
        enc = encoders.encoder_for("amount")
        assert enc.encode(make_table({"amount": [got]}))[0].tolist() == enc.encode(
            make_table({"amount": [orig]}))[0].tolist()


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
    decoded = decode_table(encoded, encoders, rng.random((encoded.row_count, encoders.n_draws)))
    assert decoded.column_names == ["lat", "lon"]
    assert decoded.column_values("lat")[2] is None


# -- column-wise encode against the per-cell oracle ---------------------------
# The per-cell encode logic the column-wise encoders replaced, kept as their
# reference: one parse and one Python call per cell.


def category_fit_oracle(cells):
    counts = Counter(cells)
    counts.setdefault(None, 0)
    ordered = sorted(counts, key=lambda v: (-counts[v], v is None, v if v is not None else ""))
    return {v: i for i, v in enumerate(ordered)}


def category_encode_oracle(enc, value):
    return [enc.mapping.get(value, enc.mapping[None])]


def percentile_encode_oracle(enc, value):
    x = parse_number(value)
    if x is None:
        return [enc.missing]
    j = int(np.searchsorted(enc.edges, x, side="right")) - 1
    return [min(max(j, 0), enc.missing - 1)]


def digit_encode_oracle(enc, value):
    if parse_number(value) is None:
        return [enc.missing] + [0] * (len(enc.sub_columns) - 1)
    d = Decimal(value.strip())
    scale = Decimal(10) ** enc.decimals
    scaled = int((d.copy_abs() * scale).to_integral_value(ROUND_HALF_UP))
    scaled = min(scaled, 10**enc.n_digits - 1)
    digits = [int(c) for c in str(scaled).zfill(enc.n_digits)]
    return [1 if d < 0 else 0] + digits if enc.has_sign else digits


def datetime_encode_oracle(enc, value):
    d = parse_datetime(value)
    if d is None:
        return [enc.missing] + [0] * (len(enc.parts) - 1)
    base = {"month": 1, "day": 1, "hour": 0, "minute": 0, "second": 0}
    return [min(max(d.year, enc.year_min), enc.year_max) - enc.year_min if p == "year"
            else getattr(d, p) - base[p] for p in enc.parts]


def quadtile_encode_oracle(enc, lat_cell, lon_cell):
    lat, lon = parse_number(lat_cell), parse_number(lon_cell)
    if lat is None or lon is None:
        return [enc.missing]
    key, (lat_lo, lat_hi, lon_lo, lon_hi) = "", (-90.0, 90.0, -180.0, 180.0)
    while key not in enc.leaves:
        mid_lat, mid_lon = (lat_lo + lat_hi) / 2.0, (lon_lo + lon_hi) / 2.0
        north, east = lat >= mid_lat, lon >= mid_lon
        key += str((0 if north else 2) + east)
        lat_lo, lat_hi = (mid_lat, lat_hi) if north else (lat_lo, mid_lat)
        lon_lo, lon_hi = (mid_lon, lon_hi) if east else (lon_lo, mid_lon)
    return [enc.leaves.index(key)]


_garbage = st.sampled_from([None, "", " ", "abc", "1.2.3", "--1", "nan", "inf", "-Infinity", "1e999"])
_number = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.integers(-10**6, 10**6).map(lambda i: f"+{i}" if i >= 0 else str(i)),
    st.decimals(-10**5, 10**5, places=3, allow_nan=False).map(str),
    st.floats(-1e5, 1e5).map(lambda x: f"{x:.{abs(int(x)) % 5}f}"),
    st.floats(-1e5, 1e5).map(lambda x: f" {x!r} "),
    st.sampled_from(["-0", "0.000", "1e3", "-2.5E-2", "007", "10", "100", "0.0000025", "-1.0000005"]),
)
_fuzz = settings(max_examples=60, derandomize=True, database=None, deadline=None)


@_fuzz
@given(st.lists(st.sampled_from(["a", "b", "c", "", None]), min_size=1, max_size=30),
       st.lists(st.sampled_from(["a", "b", "c", "d", None, ""]), max_size=30))
def test_category_encode_matches_oracle(fit_cells, cells):
    enc = fit_categorical(fit_cells)
    expected = [[enc.mapping.get(v, enc.mapping[None])] for v in cells]
    assert enc.encode(column(cells)).reshape(len(cells), 1).tolist() == expected


_category = st.sampled_from([None, "", "a", "a\x00", "__MISSING__", "b", "\u00e9"])


@_fuzz
@given(st.lists(_category, max_size=30), st.lists(_category, max_size=30))
def test_category_fit_and_encode_match_the_per_cell_oracle(fit_cells, cells):
    """Frequency order with lexicographic ties and MISSING last among equals;
    cells outside the fitted vocabulary (here those only in ``cells``)
    encode as MISSING."""
    table = column(fit_cells)
    enc = fit_categorical(fit_cells)
    assert enc.mapping == category_fit_oracle(fit_cells)
    for t, t_cells in ((table, fit_cells), (column(cells), cells)):
        assert enc.encode(t).tolist() == [category_encode_oracle(enc, v) for v in t_cells]


@_fuzz
@given(st.lists(_number, min_size=1, max_size=40), st.lists(st.one_of(_number, _garbage), max_size=40),
       st.integers(1, 12))
def test_percentile_encode_matches_oracle(fit_cells, cells, n_bins):
    enc = fit_percentile(fit_cells, n_bins)
    cells = fit_cells + cells  # fitted values sit on the bin edges
    codes = enc.encode(column(cells)).reshape(len(cells), 1)
    assert codes.tolist() == [percentile_encode_oracle(enc, v) for v in cells]


@_fuzz
@given(st.lists(_number, min_size=1, max_size=40), st.lists(st.one_of(_number, _garbage), max_size=40))
def test_digit_encode_matches_oracle(fit_cells, cells):
    enc = fit_digit_split(fit_cells)
    codes = enc.encode(column(cells)).reshape(len(cells), len(enc.sub_columns))
    assert codes.tolist() == [digit_encode_oracle(enc, v) for v in cells]


_naive_datetime = st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)).map(
    lambda d: d.replace(microsecond=0))
_datetime_cell = st.one_of(
    _naive_datetime.map(lambda d: d.isoformat(sep=" ")),
    _naive_datetime.map(lambda d: d.date().isoformat()),
    st.sampled_from(["2021-03-14T02:30:00", "0001-01-01", "2020-02-29 23:59:59"]),
)


@_fuzz
@given(st.lists(_datetime_cell, min_size=1, max_size=30),
       st.lists(st.one_of(_datetime_cell, _garbage, st.just("2021-13-01")), max_size=30))
def test_naive_datetime_encode_matches_oracle(fit_cells, cells):
    enc = fit_datetime(fit_cells)
    codes = enc.encode(column(cells)).reshape(len(cells), len(enc.parts))
    assert codes.tolist() == [datetime_encode_oracle(enc, v) for v in cells]


# the sampled values lie on tile edges
_lat = st.one_of(st.floats(-90, 90).map(repr), st.sampled_from(["0", "45", "-45", "22.5", "90", "-90"]))
_lon = st.one_of(st.floats(-180, 180).map(repr), st.sampled_from(["0", "90", "-90", "45", "180", "-180"]))


@_fuzz
@given(st.lists(st.tuples(_lat, _lon), min_size=1, max_size=60),
       st.lists(st.tuples(st.one_of(_lat, _garbage), st.one_of(_lon, _garbage)), max_size=40),
       st.integers(1, 8), st.integers(0, 6))
def test_quadtile_encode_matches_oracle(fit_points, points, min_tile, max_depth):
    enc = fit_quadtile(*zip(*fit_points), min_tile_count=min_tile, max_depth=max_depth)
    lat, lon = [p[0] for p in points], [p[1] for p in points]
    codes = enc.encode(lat_lon(lat, lon)).reshape(len(points), 1)
    assert codes.tolist() == [quadtile_encode_oracle(enc, a, b) for a, b in points]


# -- decoded tables hold the values they formatted ---------------------------


def _decoded(encoders, rows, seed, extreme_u=False):
    rng = np.random.default_rng(seed)
    codes = np.stack([rng.integers(0, sc.cardinality, size=rows) for sc in encoders.sub_columns], axis=1)
    u = rng.random((rows, encoders.n_draws))
    if extreme_u:
        u[::2] = 0.0
    return decode_table(EncodedTable(encoders.sub_columns, codes), encoders, u)


def _assert_values_are_the_parse_of_the_cells(table, names, monkeypatch):
    calls = []
    original = argn.tables.parse_column
    monkeypatch.setattr(argn.tables, "parse_column",
                        lambda cells, kind: calls.append(kind) or original(cells, kind))
    values = {name: table.values(name, "numeric") for name in names}
    assert calls == []
    for name, got in values.items():
        want = original(table.column_values(name), "numeric")
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.fixture(scope="module")
def mixed_fit():
    """A table with missing cells, its schema and its encoders of every kind."""
    rng = np.random.default_rng(5)
    n = 300
    table = make_table({
        "color": [None if i % 9 == 0 else f"c{i % 4}" for i in range(n)],
        "amount": [None if i % 7 == 0 else repr(float(x)) for i, x in enumerate(rng.normal(size=n))],
        "count": [str(int(x)) for x in rng.integers(-50, 500, size=n)],
        "when": [f"2021-0{1 + i % 9}-{1 + i % 28:02d} 0{i % 10}:00:00" for i in range(n)],
        "lat": [None if i % 11 == 0 else repr(float(x)) for i, x in enumerate(rng.uniform(-60, 60, n))],
        "lon": [repr(float(x)) for x in rng.uniform(-170, 170, n)],
    }, kinds={"amount": "numeric", "count": "numeric", "when": "datetime"})
    overrides = {"count": ColumnSpec("count", "numeric", "digit_split"),
                 "loc": ColumnSpec("loc", "latlong", "quadtile", sources=("lat", "lon"))}
    schema = infer_schema(table, overrides)
    return table, schema, fit_encoders(table, schema, EncodingOptions(n_bins=10, quad_min_tile=20))


@pytest.fixture(scope="module")
def mixed_encoders(mixed_fit):
    return mixed_fit[2]


def test_fitted_encoders_derive_the_schema_they_were_fitted_for(mixed_fit):
    _, schema, encoders = mixed_fit
    assert encoders.schema == schema
    assert sorted(e.encoding for e in encoders.encoders) == sorted(ENCODERS)


@pytest.mark.parametrize("encoding", sorted(ENCODERS))
def test_an_encoder_is_rebuilt_from_its_json_entry(mixed_fit, encoding):
    table, _, encoders = mixed_fit
    (enc,) = [e for e in encoders.encoders if e.encoding == encoding]
    (loaded,) = TableEncoders.from_dict(json.loads(json.dumps(TableEncoders([enc]).to_dict()))).encoders
    assert type(loaded) is ENCODERS[encoding]
    assert loaded.to_dict() == enc.to_dict()
    np.testing.assert_array_equal(loaded.encode(table), enc.encode(table))


@pytest.mark.parametrize("encoding", sorted(ENCODERS))
def test_a_saved_encoder_holds_its_type_then_its_constructor_arguments_in_order(mixed_encoders, encoding):
    (enc,) = [e for e in mixed_encoders.encoders if e.encoding == encoding]
    assert list(enc.to_dict()) == ["type", *inspect.signature(ENCODERS[encoding]).parameters]


_CONSTANTS = {"year": 2021, "minute": 0, "second": 0}  # mixed_fit's datetime constants


@pytest.mark.parametrize("encoding,change,message", [
    ("percentile_bins", {"edges": [2.0, 1.0]}, "strictly increasing"),  # loaded, and its rows did not re-encode
    ("percentile_bins", {"edges": [0.0, 1.0, 1.0, 2.0]}, "strictly increasing"),  # bin 1 decoded to bin 2
    ("percentile_bins", {"edges": [1.0, 1.0, 1.0]}, "strictly increasing"),
    ("percentile_bins", {"edges": [0.0, math.inf]}, "finite"),
    ("percentile_bins", {"edges": [0.0, math.nan, 1.0]}, "finite"),
    ("percentile_bins", {"edges": [[0.0, 1.0]]}, "strictly increasing"),
    ("category_map", {"values": ["c0", 5, None]}, "texts or null"),  # loaded, then synthesize failed
    ("datetime_parts", {"constants": {**_CONSTANTS, "second": 75}}, "constant second 75"),  # moved each minute
    ("datetime_parts", {"constants": {**_CONSTANTS, "minute": -1}}, "constant minute -1"),
    ("datetime_parts", {"constants": {**_CONSTANTS, "second": "0"}}, "constant second '0'"),
    ("datetime_parts", {"constants": {**_CONSTANTS, "year": 10000}}, "constant year 10000"),  # wrote 10000-...
    ("datetime_parts", {"year_max": 10000}, "year_max <= 9999"),
    ("datetime_parts", {"year_min": 0}, "1 <= year_min"),
])
def test_an_encoder_refuses_arguments_that_its_fit_never_writes(mixed_encoders, encoding, change, message):
    (enc,) = [e for e in mixed_encoders.encoders if e.encoding == encoding]
    args = {**enc.to_dict(), **change}
    del args["type"]
    assert args.get("constants", _CONSTANTS).keys() == _CONSTANTS.keys()
    with pytest.raises(ValueError, match=message):
        ENCODERS[encoding](**args)


def test_a_constant_column_keeps_its_two_equal_edges():
    assert PercentileEncoder("x", [5.0, 5.0]).sub_columns[0].cardinality == 2


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_decoded_tables_hold_the_parse_of_their_cells_and_their_categories(mixed_encoders, rows, seed):
    decoded = _decoded(mixed_encoders, rows, seed)
    assert decoded.column_names == ["color", "amount", "count", "when", "lat", "lon"]
    with pytest.MonkeyPatch.context() as mp:
        _assert_values_are_the_parse_of_the_cells(decoded, ["amount", "lat", "lon"], mp)
    # decoded blocks stacked as ``synthesize`` stacks them
    blocks = argn.tables.concat([decoded, _decoded(mixed_encoders, 3, seed + 1)])
    with pytest.MonkeyPatch.context() as mp:
        _assert_values_are_the_parse_of_the_cells(blocks, ["amount", "lat", "lon"], mp)
    for t in (decoded, blocks):
        for name in t.column_names:
            vocab, codes = t.categories(name)
            want_vocab, want_codes = factorize(t.column_values(name))
            assert vocab.tolist() == want_vocab.tolist()
            np.testing.assert_array_equal(codes, want_codes)


def test_decoded_values_are_nan_where_a_bin_too_wide_for_float64_writes_inf_or_nan(monkeypatch):
    encoders = TableEncoders([PercentileEncoder("x", np.array([-1.7e308, 0.0, 1.7e308]))])
    wide = TableEncoders([PercentileEncoder("x", np.array([-1.7e308, 1.7e308]))])
    with np.errstate(over="ignore", invalid="ignore"):
        decoded = [_decoded(encoders, 50, 3), _decoded(wide, 50, 3, extreme_u=True)]
    cells = decoded[1].column_values("x")
    assert {"inf", "nan"} <= set(cells) and None in cells
    for table in decoded:
        _assert_values_are_the_parse_of_the_cells(table, ["x"], monkeypatch)
