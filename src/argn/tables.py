"""Delimited-text ingestion and column-type inference.

Tables are held as row-major grids of optional strings; ``None`` marks a
missing cell and the empty string on disk means missing. Type inference is
deliberately tolerant: a column counts as numeric/datetime when at least 99%
of its non-missing cells parse, so a handful of sentinel strings do not
demote an otherwise numeric column.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Optional, Sequence, Union

import numpy as np

KINDS = ("categorical", "numeric", "datetime", "latlong")
ENCODINGS = ("category_map", "percentile_bins", "digit_split", "datetime_parts", "quadtile")

PARSE_THRESHOLD = 0.99


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class ColumnSpec:
    """Typed description of one column and how it will be discretized.

    ``sources`` is only used for latlong columns and names the (lat, lon)
    source columns of the raw file.
    """

    name: str
    kind: str
    encoding: str
    null_frequency: float = 0.0
    sources: Optional[tuple[str, str]] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown column kind {self.kind!r}")
        if self.encoding not in ENCODINGS:
            raise ValueError(f"unknown encoding {self.encoding!r}")
        if self.kind == "categorical" and self.encoding != "category_map":
            raise ValueError("categorical columns must use category_map")
        if self.kind == "latlong" and self.encoding != "quadtile":
            raise ValueError("latlong columns must use quadtile")
        if self.kind == "numeric" and self.encoding not in ("percentile_bins", "digit_split"):
            raise ValueError("numeric columns use percentile_bins or digit_split")
        if self.kind == "latlong" and (self.sources is None or len(self.sources) != 2):
            raise ValueError("latlong columns need sources=(lat_column, lon_column)")


@dataclass(frozen=True)
class TableSchema:
    columns: tuple[ColumnSpec, ...]
    row_count: int

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names in schema")

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> ColumnSpec:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass
class RawTable:
    schema: TableSchema
    cells: list[list[Optional[str]]]

    def __post_init__(self):
        width = len(self.schema.columns)
        for i, row in enumerate(self.cells):
            if len(row) != width:
                raise ValueError(f"row {i}: expected {width} cells, got {len(row)}")

    @property
    def row_count(self) -> int:
        return len(self.cells)

    @property
    def column_names(self) -> list[str]:
        return self.schema.names

    def column_values(self, name: str) -> list[Optional[str]]:
        idx = self.schema.names.index(name)
        return [row[idx] for row in self.cells]

    def subset(self, row_indices: Iterable[int]) -> "RawTable":
        rows = [list(self.cells[i]) for i in row_indices]
        schema = TableSchema(self.schema.columns, len(rows))
        return RawTable(schema, rows)


def _placeholder_schema(names: Sequence[str], row_count: int) -> TableSchema:
    cols = tuple(ColumnSpec(n, "categorical", "category_map") for n in names)
    return TableSchema(cols, row_count)


def read_csv(path: str, delimiter: str = ",") -> RawTable:
    """Read a delimited file (header row mandatory, RFC-4180 quoting).

    Empty cells come back as ``None``. Ragged rows fail with the offending
    physical line number.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected a header row") from None
        cells: list[list[Optional[str]]] = []
        for row in reader:
            if len(row) != len(header):
                raise ParseError(
                    f"line {reader.line_num}: expected {len(header)} fields, got {len(row)}"
                )
            cells.append([c if c != "" else None for c in row])
    return RawTable(_placeholder_schema(header, len(cells)), cells)


def write_csv(table: Union[RawTable, Iterable[RawTable]], path: str, delimiter: str = ",") -> None:
    """Write a table, or blocks of rows under the first block's header, each
    block as soon as it is produced. ``None`` cells are written empty."""
    blocks = iter([table] if isinstance(table, RawTable) else table)
    first = next(blocks)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(first.column_names)
        for block in itertools.chain([first], blocks):
            writer.writerows(block.cells)


def parse_number(cell: Optional[str]) -> Optional[float]:
    """Parse a decimal number; non-finite and unparseable cells -> None."""
    if cell is None:
        return None
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def parse_datetime(cell: Optional[str]) -> Optional[datetime]:
    """Parse ISO-8601 dates or datetimes; anything else -> None."""
    if cell is None:
        return None
    text = cell.strip()
    if len(text) < 8 or text[4:5] != "-":
        return None
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        return None


def parse_column(cells: Sequence[Optional[str]], kind: str) -> np.ndarray:
    """float64 values of a numeric or datetime column (datetimes as epoch
    seconds); missing and unparseable cells are NaN."""
    if kind == "datetime":
        vals = [d.timestamp() if (d := parse_datetime(c)) is not None else np.nan for c in cells]
    else:
        vals = [x if (x := parse_number(c)) is not None else np.nan for c in cells]
    return np.array(vals, dtype=np.float64)


def _fraction_parsing(values: list[Optional[str]], parser) -> float:
    present = [v for v in values if v is not None]
    if not present:
        return 0.0
    ok = sum(1 for v in present if parser(v) is not None)
    return ok / len(present)


def infer_schema(table: RawTable, overrides: Optional[dict[str, ColumnSpec]] = None) -> TableSchema:
    """Infer per-column kinds; explicit overrides win unconditionally.

    A latlong override replaces its two source columns with a single column
    positioned at the earlier source. Cells of a numeric/datetime column
    that fail to parse are treated as missing downstream.
    """
    if table.row_count == 0:
        raise ValueError("cannot infer a schema from an empty table")
    overrides = dict(overrides or {})
    names = table.column_names

    consumed: dict[str, str] = {}  # source col -> latlong override name
    for key, spec in overrides.items():
        if spec.kind == "latlong":
            for src in spec.sources:
                if src not in names:
                    raise ValueError(f"override {key!r}: unknown source column {src!r}")
                consumed[src] = key
        elif key not in names:
            raise ValueError(f"override references unknown column {key!r}")

    columns: list[ColumnSpec] = []
    emitted_latlong: set[str] = set()
    for name in names:
        if name in consumed:
            ov_name = consumed[name]
            if ov_name in emitted_latlong:
                continue
            spec = overrides[ov_name]
            values = [
                None if (a is None or b is None) else a
                for a, b in zip(table.column_values(spec.sources[0]), table.column_values(spec.sources[1]))
            ]
            null_freq = sum(1 for v in values if v is None) / max(1, len(values))
            columns.append(
                ColumnSpec(ov_name, "latlong", "quadtile", null_freq, spec.sources)
            )
            emitted_latlong.add(ov_name)
            continue

        values = table.column_values(name)
        null_freq = sum(1 for v in values if v is None) / max(1, len(values))
        if name in overrides:
            ov = overrides[name]
            columns.append(ColumnSpec(ov.name, ov.kind, ov.encoding, null_freq, ov.sources))
            continue
        if _fraction_parsing(values, parse_number) >= PARSE_THRESHOLD and any(
            v is not None for v in values
        ):
            columns.append(ColumnSpec(name, "numeric", "percentile_bins", null_freq))
        elif _fraction_parsing(values, parse_datetime) >= PARSE_THRESHOLD and any(
            v is not None for v in values
        ):
            columns.append(ColumnSpec(name, "datetime", "datetime_parts", null_freq))
        else:
            columns.append(ColumnSpec(name, "categorical", "category_map", null_freq))
    return TableSchema(tuple(columns), table.row_count)
