import csv
import gc
import os
import subprocess
import sys
import tempfile
import tracemalloc
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import argn
from argn.encoders import ENCODERS
from argn.tables import (
    PARSE_PREFIX,
    PARSE_THRESHOLD,
    ColumnSpec,
    ParseError,
    RawTable,
    TableSchema,
    factorize,
    infer_schema,
    parse_column,
    parse_number,
    read_csv,
    write_csv,
)
from conftest import acceptance_table, table_rows


def write_lines(tmp_path, lines, name="data.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_read_csv_basic(tmp_path):
    path = write_lines(tmp_path, ["a,b", "1,x", "2,y", "3,z"])
    table = read_csv(path)
    assert table.row_count == 3
    assert table.column_names == ["a", "b"]
    assert table_rows(table)[0] == ["1", "x"]


def test_read_csv_trailing_empty_field_is_missing(tmp_path):
    path = write_lines(tmp_path, ["a,b", "1,"])
    table = read_csv(path)
    assert table_rows(table)[0] == ["1", None]


def test_read_csv_ragged_row_names_line(tmp_path):
    path = write_lines(tmp_path, ["a,b", "1,x", "2,y", "3,z,EXTRA"])
    with pytest.raises(ParseError, match="line 4: expected 2 fields, got 3"):
        read_csv(path)


def test_read_csv_quoted_fields(tmp_path):
    path = write_lines(tmp_path, ['a,b', '"hello, world","line"'])
    table = read_csv(path)
    assert table_rows(table)[0] == ["hello, world", "line"]


CSV_CELL = st.one_of(st.sampled_from(["", " ", ",", '"', '""', "a,b", 'say "hi"', "line\nbreak", "cr\r\nlf",
                                      "\r", "1.5", "é"]),
                     st.text(alphabet=st.characters(blacklist_characters="\x00"), max_size=6))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 4).flatmap(lambda w: st.lists(st.lists(CSV_CELL, min_size=w, max_size=w), max_size=12)
                                 .map(lambda rows: (w, rows))))
def test_read_csv_reads_the_columns_that_csv_reader_reads(drawn):
    """Quoted fields, embedded commas and newlines, and empty cells, which
    read as missing."""
    width, rows = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([[f"c{j}" for j in range(width)], *rows])
        with open(path, encoding="utf-8", newline="") as fh:
            header, *expected = list(csv.reader(fh))
        table = read_csv(path)
    assert table.column_names == header and table.row_count == len(expected)
    for j, name in enumerate(header):
        assert table.column_values(name) == [row[j] or None for row in expected]


def test_read_csv_in_three_row_chunks_gives_the_codes_and_vocabularies_of_one_chunk(tmp_path, monkeypatch):
    cells = [[None if (i * 7 + j) % 5 == 0 else f"v{(i * j) % 11}" for j in range(4)] for i in range(40)]
    path = str(tmp_path / "data.csv")
    write_csv(RawTable(TableSchema(tuple(ColumnSpec(f"c{j}", "categorical") for j in range(4))),
                       [list(c) for c in zip(*cells)]), path)
    whole = read_csv(path)
    monkeypatch.setattr(argn.tables, "READ_ROWS", 3)
    chunked = read_csv(path)
    assert table_rows(chunked) == table_rows(whole) == cells
    for name in whole.column_names:
        (vocab, codes), (want_vocab, want_codes) = chunked.categories(name), whole.categories(name)
        assert vocab.tolist() == want_vocab.tolist()
        np.testing.assert_array_equal(codes, want_codes)


def test_read_csv_keeps_a_columns_distinct_texts_in_order_of_first_appearance(tmp_path, monkeypatch):
    path = write_lines(tmp_path, ["p,q", "b,x", ",y", "a,x", "b,z", "c,", ",y", "a,w", "e,x"])
    for read_rows in (argn.tables.READ_ROWS, 3):
        monkeypatch.setattr(argn.tables, "READ_ROWS", read_rows)
        table = read_csv(path)
        assert table.column("p").texts.tolist() == ["b", None, "a", "c", "e"]
        assert table.column("q").texts.tolist() == ["x", "y", "z", None, "w"]


def test_a_read_table_keeps_under_25_bytes_per_cell(tmp_path):
    """Codes and one copy of each distinct text; cell lists kept 62."""
    table = acceptance_table(100_000, seed=3)
    path = str(tmp_path / "data.csv")
    write_csv(table, path)
    n_cells = table.row_count * len(table.column_names)
    del table
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = read_csv(path)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert table.row_count == 100_000
    assert kept / n_cells < 25, kept / n_cells


def test_round_trip(tmp_path, rng):
    n = 40
    values = [["v,with comma", 'quote"inside', None, "plain", "0.5"][rng.integers(5)] for _ in range(2 * n)]
    cells = [[values[2 * i], values[2 * i + 1]] for i in range(n)]
    schema = TableSchema(
        (ColumnSpec("a", "categorical", "category_map"), ColumnSpec("b", "categorical", "category_map")),
    )
    table = RawTable(schema, [list(c) for c in zip(*cells)])
    path = str(tmp_path / "round.csv")
    write_csv(table, path)
    back = read_csv(path)
    assert table_rows(back) == table_rows(table)
    assert back.column_names == table.column_names


def test_infer_categorical():
    table = read_back({"c": ["a", "b", "a"]})
    schema = infer_schema(table)
    assert schema.columns[0].kind == "categorical"


def test_infer_numeric_and_default_encoding():
    table = read_back({"c": ["1.5", "2", "-3e2"]})
    spec = infer_schema(table).columns[0]
    assert spec.kind == "numeric"
    assert spec.encoding == "percentile_bins"


def test_infer_datetime():
    table = read_back({"c": ["2021-01-05", "2021-02-06"]})
    assert infer_schema(table).columns[0].kind == "datetime"


def test_infer_threshold_tolerates_sentinels():
    # 99 numbers + 1 junk cell passes the 99% rule
    values = [str(i) for i in range(99)] + ["N/A"]
    table = read_back({"c": values})
    assert infer_schema(table).columns[0].kind == "numeric"
    # 2 junk cells out of 100 does not
    values = [str(i) for i in range(98)] + ["N/A", "?"]
    table = read_back({"c": values})
    assert infer_schema(table).columns[0].kind == "categorical"


def test_infer_unknown_override_errors():
    table = read_back({"c": ["a"]})
    with pytest.raises(ValueError, match="unknown column"):
        infer_schema(table, {"nope": ColumnSpec("nope", "categorical", "category_map")})


def test_infer_override_wins():
    table = read_back({"c": ["1", "2", "3"]})
    ov = ColumnSpec("c", "numeric", "digit_split")
    assert infer_schema(table, {"c": ov}).columns[0].encoding == "digit_split"


def test_a_column_spec_without_an_encoding_takes_its_kinds_default():
    assert ColumnSpec("c", "numeric").encoding == "percentile_bins"
    assert ColumnSpec("loc", "latlong", sources=("lat", "lon")).encoding == "quadtile"
    with pytest.raises(ValueError, match="unknown column kind 'text'"):
        ColumnSpec("c", "text")


@pytest.mark.parametrize("encoding", [None, *ENCODERS, "nope"])
@pytest.mark.parametrize("kind", sorted({cls.kind for cls in ENCODERS.values()}))
def test_a_column_spec_accepts_exactly_the_kind_and_encoding_pairs_of_the_registry(kind, encoding):
    sources = ("lat", "lon") if kind == "latlong" else None
    if encoding is None:  # a kind's first encoding in the registry is its default
        first = next(name for name, cls in ENCODERS.items() if cls.kind == kind)
        assert ColumnSpec("c", kind, sources=sources).encoding == first
    elif encoding in ENCODERS and ENCODERS[encoding].kind == kind:
        assert ColumnSpec("c", kind, encoding, sources).encoding == encoding
    else:
        with pytest.raises(ValueError, match=f"{kind} columns use .*, not '{encoding}'"):
            ColumnSpec("c", kind, encoding, sources)


@pytest.mark.parametrize("sources", [None, ("lat",), ("lat", "lat"), ("lat", "lon", "lon")])
def test_a_latlong_column_spec_needs_exactly_two_distinct_sources(sources):
    # three sources, two distinct, loaded from a model header, and then decoding
    # refused the duplicate raw column
    with pytest.raises(ValueError, match="latlong columns need two sources"):
        ColumnSpec("loc", "latlong", sources=sources)


def test_latlong_requires_override_and_merges_columns():
    table = read_back({"lat": ["10.0", "20.0"], "lon": ["30.0", "40.0"], "x": ["a", "b"]})
    plain = infer_schema(table)
    assert [c.kind for c in plain.columns] == ["numeric", "numeric", "categorical"]
    ov = ColumnSpec("loc", "latlong", "quadtile", sources=("lat", "lon"))
    merged = infer_schema(table, {"loc": ov})
    assert [c.name for c in merged.columns] == ["loc", "x"]
    assert merged.columns[0].sources == ("lat", "lon")


def test_infer_deterministic():
    table = read_back({"c": ["1", "a", "3"], "d": ["2021-01-01", "x", None]})
    a = infer_schema(table)
    b = infer_schema(table)
    assert a == b


def read_back(columns: dict[str, list]):
    names = list(columns)
    schema = TableSchema(tuple(ColumnSpec(nm, "categorical", "category_map") for nm in names))
    return RawTable(schema, [list(columns[c]) for c in names])


# -- the datetime rule of parse_column -----------------------------------------


def test_parse_column_reads_naive_cells_as_utc_and_offsets_as_their_utc_instant():
    vals = parse_column(["1970-01-02", "2021-03-14 12:00:00", "2021-03-14T14:00:00+02:00",
                         "0001-01-01", "not a date", None], "datetime")
    assert vals[0] == 86400.0
    assert vals[1] == vals[2] == (datetime(2021, 3, 14, 12) - datetime(1970, 1, 1)).total_seconds()
    assert vals[3] == (datetime(1, 1, 1) - datetime(1970, 1, 1)).total_seconds()
    assert np.isnan(vals[4:]).all()


# -- the numeric rule of parse_column ------------------------------------------

_number_cell = st.one_of(
    st.sampled_from([None, "", " ", " 1.5 ", "\t-2\n", "1_000", "1__0", "_1", "nan", "-nan", "NaN",
                     "inf", "-inf", "+Infinity", "1e999", "-1e999", "1e-999", "0x10", "١٢",
                     "３.5", "½", "abc", "1,5", "--1"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(alphabet="0123456789.eE+-_ infa٣", max_size=8),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(_number_cell, max_size=40))
@example([None, " 1.5 ", "\t-2\n", "1_000", "nan", "-nan", "inf", "-inf", "1e999", "1e-999", "١٢", "３.5"])
@example([None, "1_000", "-nan", "-inf", "1e999", "abc"])  # one cell fails: the per-cell path
def test_numeric_parse_column_equals_parse_number_cell_by_cell(cells):
    """The whole-column parse and its per-cell fallback both give, byte for
    byte, parse_number of each cell with NaN where it gives None."""
    expected = np.array([np.nan if (x := parse_number(c)) is None else x for c in cells], dtype=np.float64)
    got = parse_column(cells, "numeric")
    assert got.dtype == np.float64 and got.shape == (len(cells),)
    assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


_TZ_SCRIPT = """
import sys
from argn.cli import cli
from argn.tables import parse_column, read_csv
real, syn, report = sys.argv[1:]
print(parse_column(read_csv(real).column_values("when"), "datetime").tolist())
sys.exit(cli(["evaluate", "--real", real, "--syn", syn, "--report", report]))
"""


def test_values_and_evaluate_report_do_not_depend_on_the_host_time_zone(tmp_path):
    # hourly times across the 2021-03-14 daylight-saving switch of New York,
    # whose local 02:00-02:59 does not exist
    def times(start, step_minutes, n):
        return [(start + timedelta(minutes=step_minutes * i)).isoformat(sep=" ") for i in range(n)]

    n = 120
    real = {"when": times(datetime(2021, 3, 13, 12), 60, n),
            "amount": [str(i % 7) for i in range(n)], "kind": ["ab"[i % 2] for i in range(n)]}
    syn = {"when": times(datetime(2021, 3, 13, 20), 45, n),
           "amount": [str(i % 5) for i in range(n)], "kind": ["ab"[i % 3 % 2] for i in range(n)]}
    paths = []
    for name, cols in (("real", real), ("syn", syn)):
        paths.append(str(tmp_path / f"{name}.csv"))
        write_csv(read_back(cols), paths[-1])
    src = str(Path(argn.__file__).resolve().parents[1])
    outputs = []
    for tz in ("UTC", "America/New_York"):
        report = tmp_path / f"report-{tz.replace('/', '_')}.json"
        env = dict(os.environ, TZ=tz)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _TZ_SCRIPT, *paths, str(report)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, report.read_bytes()))
    assert outputs[0] == outputs[1]


# -- the column-major table -------------------------------------------------------


def _mixed(n=30):
    cols = {"a": [None if i % 7 == 0 else f"{i * 0.5}" for i in range(n)],
            "b": [f"c{i % 3}" for i in range(n)],
            "when": [f"2021-01-{1 + i % 28:02d}" for i in range(n)]}
    schema = TableSchema((ColumnSpec("a", "numeric", "percentile_bins"),
                          ColumnSpec("b", "categorical", "category_map"),
                          ColumnSpec("when", "datetime", "datetime_parts")))
    return RawTable(schema, [cols[c] for c in schema.names])


def test_table_rejects_ragged_columns_and_a_width_other_than_its_schema():
    schema = TableSchema((ColumnSpec("a", "categorical", "category_map"),
                          ColumnSpec("b", "categorical", "category_map")))
    with pytest.raises(ValueError, match="differ in length"):
        RawTable(schema, [["x", "y"], ["z"]])
    with pytest.raises(ValueError, match="expected 2 columns, got 1"):
        RawTable(schema, [["x", "y"]])
    with pytest.raises(ValueError, match="expected 2 columns, got 3"):
        RawTable(schema, [["x"], ["y"], ["z"]])
    assert RawTable(schema, [[], []]).row_count == 0


def test_values_are_read_only_and_parsed_once_per_kind(monkeypatch):
    table = _mixed()
    calls = []
    original = argn.tables.parse_column
    monkeypatch.setattr(argn.tables, "parse_column",
                        lambda cells, kind: calls.append(kind) or original(cells, kind))
    a = table.values("a", "numeric")
    assert table.values("a", "numeric") is a and calls == ["numeric"]
    np.testing.assert_array_equal(a, parse_column(table.column_values("a"), "numeric"))
    table.values("when", "datetime")
    table.values("when", "numeric")
    assert calls == ["numeric", "datetime", "numeric"]
    for vals in (a, table.subset([3, 1]).values("a", "numeric")):
        with pytest.raises(ValueError, match="read-only"):
            vals[0] = 1.0


def test_subset_concat_and_retyped_values_equal_parsing_their_own_cells(monkeypatch):
    table = _mixed()
    rows = [5, 0, 7, 7, 29]
    parsed_before = table.values("a", "numeric")  # the subset gathers from it
    sub = table.subset(rows)
    assert table_rows(sub) == [table_rows(table)[i] for i in rows]
    late = table.subset(rows)
    calls = []
    original = argn.tables.parse_column
    monkeypatch.setattr(argn.tables, "parse_column",
                        lambda cells, kind: calls.append(kind) or original(cells, kind))
    for name, kind in (("a", "numeric"), ("when", "datetime")):
        expected = original(sub.column_values(name), kind)
        np.testing.assert_array_equal(sub.values(name, kind), expected)
        np.testing.assert_array_equal(late.subset([1, 0]).values(name, kind), expected[[1, 0]])
    assert calls == ["datetime"]  # "a" was parsed before; "when" once, by the source table
    np.testing.assert_array_equal(parsed_before[rows], sub.values("a", "numeric"))

    stacked = argn.tables.concat([table, sub])
    assert table_rows(stacked) == table_rows(table) + table_rows(sub)
    np.testing.assert_array_equal(stacked.values("a", "numeric"),
                                  original(stacked.column_values("a"), "numeric"))
    schema = TableSchema((ColumnSpec("when", "datetime", "datetime_parts"),
                          ColumnSpec("a", "numeric", "percentile_bins")))
    retyped = table.retyped(schema)
    assert retyped.column_names == ["when", "a"] and retyped.row_count == table.row_count
    assert retyped.values("a", "numeric") is table.values("a", "numeric")
    assert calls == ["datetime"]


# cells that a fixed-width numpy string array or a missing-label scheme would merge
CATEGORY_CELLS = st.sampled_from([None, "", "a", "a\x00", "__MISSING__", "b", "B", "\u00e9"])


def _expected_factorization(cells):
    present = sorted({c for c in cells if c is not None})
    return [None] * (None in cells) + present


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(CATEGORY_CELLS, max_size=30))
def test_factorize_gives_missing_first_then_the_sorted_texts(cells):
    vocab, codes = factorize(cells)
    assert codes.dtype == np.int32 and codes.shape == (len(cells),)
    assert vocab.dtype == object and vocab.tolist() == _expected_factorization(cells)
    assert vocab[codes].tolist() == cells
    assert all(type(v) is str for v in vocab[codes] if v is not None)


def _assert_categories_are_factorized(table):
    for name in table.column_names:
        vocab, codes = table.categories(name)
        want_vocab, want_codes = factorize(table.column_values(name))
        assert vocab.tolist() == want_vocab.tolist()
        np.testing.assert_array_equal(codes, want_codes)
        assert table.categories(name)[1] is codes
        with pytest.raises(ValueError, match="read-only"):
            codes[:1] = 0


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.lists(CATEGORY_CELLS, min_size=n, max_size=n), st.lists(CATEGORY_CELLS, min_size=n, max_size=n),
    st.lists(st.integers(0, max(n - 1, 0)), max_size=2 * n if n else 0),
    st.lists(CATEGORY_CELLS, min_size=n, max_size=n))))
def test_categories_of_derived_tables_equal_factorizing_their_cells(drawn):
    a, b, rows, new_b = drawn
    schema = TableSchema((ColumnSpec("a", "categorical", "category_map"),
                          ColumnSpec("b", "categorical", "category_map")))
    table = RawTable(schema, [a, b])
    table.categories("a")  # computed on the source before anything is derived from it
    sub = table.subset(rows)
    retyped = table.retyped(TableSchema(schema.columns[::-1]))
    derived = [table, sub, argn.tables.concat([table, sub, table]), retyped,
               RawTable(schema, [table.column("a"), new_b]), RawTable(schema, [a, argn.tables.Column(np.array(new_b[::-1], dtype=object), np.arange(len(new_b))[::-1])])]
    for t in derived:
        _assert_categories_are_factorized(t)
    assert retyped.categories("a") is table.categories("a")  # a re-typed table shares them


def _raw_table(columns):
    schema = TableSchema(tuple(ColumnSpec(name, "categorical", "category_map") for name in columns))
    return RawTable(schema, list(columns.values()))


def _counting_parse(monkeypatch):
    parsed = {"numeric": 0, "datetime": 0}
    original = argn.tables.parse_column

    def count(cells, kind):
        parsed[kind] += len(cells)
        return original(cells, kind)

    monkeypatch.setattr(argn.tables, "parse_column", count)
    return parsed


def test_infer_schema_parses_only_a_prefix_of_a_categorical_column(monkeypatch, rng):
    n = 2000
    table = _raw_table({"c": [f"city{v}" for v in rng.integers(0, 50, size=n)],
                        "x": [f"{v:.3f}" for v in rng.normal(size=n)]})
    parsed = _counting_parse(monkeypatch)
    schema = infer_schema(table)
    assert [c.kind for c in schema.columns] == ["categorical", "numeric"]
    prefix = PARSE_PREFIX + n // 50
    assert parsed["datetime"] <= prefix  # column c only
    assert parsed["numeric"] <= prefix + prefix + n  # c's prefix; x's prefix and all of x


def _kind_by_parsing_everything(cells):
    present = sum(c is not None for c in cells)
    for kind in ("numeric", "datetime"):
        parsed = np.count_nonzero(~np.isnan(parse_column(cells, kind)))
        if present and parsed / present >= PARSE_THRESHOLD:
            return kind
    return "categorical"


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 700), st.sampled_from(["numeric", "datetime"]), st.integers(0, 20),
       st.floats(0, 0.5), st.booleans(), st.integers(0, 2**32 - 1))
@example(200, "numeric", 2, 0.0, True, 0)  # exactly at the threshold, failures in the prefix
@example(100, "datetime", 1, 0.0, True, 0)
@example(100, "numeric", 2, 0.0, True, 0)  # just below it
def test_infer_schema_kinds_equal_parsing_every_cell(n, kind, garbage, missing, front, seed):
    """Unparseable cells around the 1% threshold, first or scattered."""
    rng = np.random.default_rng(seed)
    if kind == "numeric":
        cells = [f"{v:.2f}" for v in rng.normal(size=n)]
    else:
        cells = [f"2021-{1 + v % 12:02d}-{1 + v % 28:02d}" for v in rng.integers(0, 400, size=n)]
    cells = [None if r < missing else c for r, c in zip(rng.random(n), cells)]
    where = np.arange(n) if front else rng.permutation(n)
    for i in where[: min(garbage, n)]:
        cells[i] = "n/a"
    table = _raw_table({"x": cells})
    assert infer_schema(table).columns[0].kind == _kind_by_parsing_everything(cells)


def test_raw_schema_puts_latlong_sources_back_as_numeric_columns():
    schema = TableSchema((ColumnSpec("loc", "latlong", "quadtile", ("lat", "lon")),
                          ColumnSpec("cat", "categorical", "category_map")))
    raw = schema.raw_schema()
    assert raw.names == ["lat", "lon", "cat"]
    assert [c.kind for c in raw.columns] == ["numeric", "numeric", "categorical"]
    assert raw.columns[2] is schema.columns[1]
