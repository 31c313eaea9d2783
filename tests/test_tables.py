import os
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

import argn
from argn.tables import (
    ColumnSpec,
    ParseError,
    RawTable,
    TableSchema,
    infer_schema,
    parse_column,
    read_csv,
    write_csv,
)


def write_lines(tmp_path, lines, name="data.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_read_csv_basic(tmp_path):
    path = write_lines(tmp_path, ["a,b", "1,x", "2,y", "3,z"])
    table = read_csv(path)
    assert table.row_count == 3
    assert table.column_names == ["a", "b"]
    assert table.cells[0] == ["1", "x"]


def test_read_csv_trailing_empty_field_is_missing(tmp_path):
    path = write_lines(tmp_path, ["a,b", "1,"])
    table = read_csv(path)
    assert table.cells[0] == ["1", None]


def test_read_csv_ragged_row_names_line(tmp_path):
    path = write_lines(tmp_path, ["a,b", "1,x", "2,y", "3,z,EXTRA"])
    with pytest.raises(ParseError, match="line 4: expected 2 fields, got 3"):
        read_csv(path)


def test_read_csv_quoted_fields(tmp_path):
    path = write_lines(tmp_path, ['a,b', '"hello, world","line"'])
    table = read_csv(path)
    assert table.cells[0] == ["hello, world", "line"]


def test_round_trip(tmp_path, rng):
    n = 40
    values = [["v,with comma", 'quote"inside', None, "plain", "0.5"][rng.integers(5)] for _ in range(2 * n)]
    cells = [[values[2 * i], values[2 * i + 1]] for i in range(n)]
    schema = TableSchema(
        (ColumnSpec("a", "categorical", "category_map"), ColumnSpec("b", "categorical", "category_map")),
        n,
    )
    table = RawTable(schema, cells)
    path = str(tmp_path / "round.csv")
    write_csv(table, path)
    back = read_csv(path)
    assert back.cells == table.cells
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
    n = len(columns[names[0]])
    cells = [[columns[c][r] for c in names] for r in range(n)]
    schema = TableSchema(
        tuple(ColumnSpec(nm, "categorical", "category_map") for nm in names), n
    )
    return RawTable(schema, cells)


# -- the datetime rule of parse_column -----------------------------------------


def test_parse_column_reads_naive_cells_as_utc_and_offsets_as_their_utc_instant():
    vals = parse_column(["1970-01-02", "2021-03-14 12:00:00", "2021-03-14T14:00:00+02:00",
                         "0001-01-01", "not a date", None], "datetime")
    assert vals[0] == 86400.0
    assert vals[1] == vals[2] == (datetime(2021, 3, 14, 12) - datetime(1970, 1, 1)).total_seconds()
    assert vals[3] == (datetime(1, 1, 1) - datetime(1970, 1, 1)).total_seconds()
    assert np.isnan(vals[4:]).all()


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
