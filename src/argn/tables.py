"""CSV ingestion and column-type inference.

Tables are held column-major as lists of optional strings; ``None`` marks a
missing cell and the empty string on disk means missing. ``parse_column`` and
``factorize`` are the one places where cells become numbers and category
codes; ``RawTable.values`` and ``RawTable.categories`` call them at most once
per column (and kind). Type inference is deliberately tolerant: a column
counts as numeric/datetime when at least 99% of its non-missing cells parse,
so a handful of sentinel strings do not demote an otherwise numeric column.
``ColumnSpec`` reads the kinds, their encodings and defaults from
``encoders.ENCODERS``, the one list of encodings.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Optional, Sequence, Union

import numpy as np

PARSE_THRESHOLD = 0.99
PARSE_PREFIX = 64  # plus 2% of the rows: cells parsed to rule a column out early
_MISSING_AS_NAN = {None: "nan"}  # .get(cell, cell): the text float reads for a cell


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class ColumnSpec:
    """Typed description of one column and how it will be discretized.

    The kinds and their encodings are those of ``encoders.ENCODERS``;
    ``encoding`` defaults to the kind's first there. ``sources`` is only used
    for latlong columns and names the (lat, lon) source columns of the raw
    file.
    """

    name: str
    kind: str
    encoding: Optional[str] = None
    sources: Optional[tuple[str, str]] = None

    def __post_init__(self):
        from .encoders import ENCODERS  # imported here: encoders imports this module

        encodings = [name for name, cls in ENCODERS.items() if cls.kind == self.kind]
        if not encodings:
            raise ValueError(f"unknown column kind {self.kind!r}")
        if self.encoding is None:
            object.__setattr__(self, "encoding", encodings[0])
        if self.encoding not in encodings:
            raise ValueError(f"{self.kind} columns use {' or '.join(encodings)}, not {self.encoding!r}")
        if self.sources is not None:  # a JSON list names them too
            object.__setattr__(self, "sources", tuple(self.sources))
        if self.kind == "latlong" and (self.sources is None or len(set(self.sources)) != 2):
            raise ValueError("latlong columns need two sources=(lat_column, lon_column)")


@dataclass(frozen=True)
class TableSchema:
    columns: tuple[ColumnSpec, ...]

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

    def raw_schema(self) -> "TableSchema":
        """Schema of the raw columns, as decoded tables hold them: each
        latlong column becomes its (lat, lon) source columns, numeric."""
        cols: list[ColumnSpec] = []
        for spec in self.columns:
            if spec.kind == "latlong":
                cols.extend(ColumnSpec(src, "numeric") for src in spec.sources)
            else:
                cols.append(spec)
        return TableSchema(tuple(cols))


class RawTable:
    """Cells held column-major: ``columns[j]`` lists the cells of
    ``schema.columns[j]``, and every column has ``row_count`` cells.

    Columns are not modified after construction. ``values`` parses a column
    at most once per kind; a subset, a concatenation, a re-typed table or
    the untouched columns of ``with_columns`` read the parses of the tables
    they were made from, and keep them alive.
    """

    def __init__(self, schema: TableSchema, columns: Sequence[Sequence[Optional[str]]]):
        if len(columns) != len(schema.columns):
            raise ValueError(f"expected {len(schema.columns)} columns, got {len(columns)}")
        lengths = sorted({len(c) for c in columns})
        if len(lengths) > 1:
            raise ValueError(f"columns differ in length: {lengths}")
        self.schema = schema
        self.columns = list(columns)
        self._index = {name: j for j, name in enumerate(schema.names)}
        self._parsed: dict[tuple[str, str], np.ndarray] = {}
        self._categories: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        # per column, the (table, rows) pieces it stacks; its values are gathered from their parses
        self._parts: dict[str, list[tuple[RawTable, Union[np.ndarray, slice]]]] = {}

    @property
    def row_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def column_names(self) -> list[str]:
        return self.schema.names

    @property
    def cells(self) -> list[list[Optional[str]]]:
        """A row-major copy of the cells."""
        return [list(row) for row in zip(*self.columns)]

    def column_values(self, name: str) -> Sequence[Optional[str]]:
        return self.columns[self._index[name]]

    def values(self, name: str, kind: str) -> np.ndarray:
        """Read-only ``parse_column`` values of a column, parsed once per kind."""
        key = (name, kind)
        if key not in self._parsed:
            if name in self._parts:
                vals = np.concatenate([t.values(name, kind)[rows] for t, rows in self._parts[name]])
            else:
                vals = parse_column(self.column_values(name), kind)
            vals.flags.writeable = False
            self._parsed[key] = vals
        return self._parsed[key]

    def categories(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``factorize`` of a column's cells, computed once; the codes are read-only.
        A column that is another table's whole column (a re-typed table, an
        untouched column of ``with_columns``) reads that table's; a subset
        or a concatenation of several tables factorizes its own cells."""
        if name not in self._categories:
            parts = self._parts.get(name, ())
            if len(parts) == 1 and isinstance(parts[0][1], slice):
                self._categories[name] = parts[0][0].categories(name)
            else:
                vocab, codes = factorize(self.column_values(name))
                codes.flags.writeable = False
                self._categories[name] = vocab, codes
        return self._categories[name]

    def subset(self, row_indices: Iterable[int]) -> "RawTable":
        rows = list(row_indices)
        out = RawTable(self.schema, [[col[i] for i in rows] for col in self.columns])
        out._parts = dict.fromkeys(self.column_names, [(self, np.asarray(rows, dtype=np.intp))])
        return out

    def with_columns(self, columns: dict[str, Sequence[Optional[str]]],
                     parsed: dict[tuple[str, str], np.ndarray]) -> "RawTable":
        """This table with some columns' cells replaced; ``parsed`` gives
        (column, kind) values equal to ``parse_column`` of its cells. Other
        parses of a column left out, or given its own cells, are this table's."""
        new = [columns.get(n, c) for n, c in zip(self.column_names, self.columns)]
        out = RawTable(self.schema, new)
        out._parts = {n: [(self, slice(None))] for n, a, b in zip(self.column_names, new, self.columns) if a is b}
        for key, vals in parsed.items():
            vals.flags.writeable = False
            out._parsed[key] = vals
        return out

    def retyped(self, schema: TableSchema) -> "RawTable":
        """The columns ``schema`` names, picked by name and typed by it; the
        result shares this table's columns, parses and categories."""
        out = RawTable(schema, [self.column_values(name) for name in schema.names])
        out._parsed, out._parts, out._categories = self._parsed, self._parts, self._categories
        return out


def concat(tables: Sequence[RawTable]) -> RawTable:
    """The tables' rows one after another, under the first table's schema."""
    names = tables[0].column_names
    out = RawTable(tables[0].schema, [
        list(itertools.chain.from_iterable(t.column_values(n) for t in tables)) for n in names
    ])
    out._parts = dict.fromkeys(names, [(t, slice(None)) for t in tables])
    return out


def read_csv(path: str) -> RawTable:
    """Read a comma-separated file (header row mandatory, RFC-4180 quoting).

    Empty cells come back as ``None``. Ragged rows fail with the offending
    physical line number. Every column is read as categorical.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected a header row") from None
        rows: list[list[Optional[str]]] = []
        for row in reader:
            if len(row) != len(header):
                raise ParseError(
                    f"line {reader.line_num}: expected {len(header)} fields, got {len(row)}"
                )
            rows.append([c if c != "" else None for c in row])
    schema = TableSchema(tuple(ColumnSpec(n, "categorical") for n in header))
    return RawTable(schema, [list(c) for c in zip(*rows)] if rows else [[] for _ in header])


def write_csv(table: Union[RawTable, Iterable[RawTable]], path: str) -> None:
    """Write a table, or blocks of rows under the first block's header, each
    block as soon as it is produced. ``None`` cells are written empty."""
    blocks = iter([table] if isinstance(table, RawTable) else table)
    first = next(blocks)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(first.column_names)
        for block in itertools.chain([first], blocks):
            writer.writerows(zip(*block.columns))


def factorize(cells: Sequence[Optional[str]]) -> tuple[np.ndarray, np.ndarray]:
    """(vocab, codes): the distinct cells, ``None`` first when one is missing, then the
    sorted texts, as an object array; and the int32 codes with ``vocab[codes]`` the cells."""
    distinct = dict.fromkeys(cells)
    vocab = [None] * (None in distinct) + sorted(c for c in distinct if c is not None)
    index = {v: i for i, v in enumerate(vocab)}
    codes = np.fromiter(map(index.__getitem__, cells), dtype=np.int32, count=len(cells))
    return np.array(vocab, dtype=object), codes


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
    """float64 values of a numeric or datetime column; missing and
    unparseable cells are NaN.

    Datetimes become epoch seconds under one rule: a naive cell is read as
    UTC and a cell with an offset as its UTC instant, so the values never
    depend on the host's time zone.
    """
    if kind == "datetime":
        return np.array([np.nan if (d := parse_datetime(c)) is None
                         else (d if d.tzinfo else d.replace(tzinfo=timezone.utc)).timestamp()
                         for c in cells], dtype=np.float64)
    try:  # every cell through float at once; one that fails sends the column down parse_number
        vals = np.fromiter(map(float, map(_MISSING_AS_NAN.get, cells, cells)), dtype=np.float64, count=len(cells))
    except ValueError:
        vals = np.array([x if (x := parse_number(c)) is not None else np.nan for c in cells], dtype=np.float64)
    vals[~np.isfinite(vals)] = np.nan
    return vals


def _parses(table: RawTable, name: str, kind: str, present: int) -> bool:
    """At least one cell is present and PARSE_THRESHOLD of the present ones
    parse. A prefix is parsed first; when its failures alone rule the
    threshold out, the rest of the column is not parsed."""
    cells = table.column_values(name)
    head = cells[: PARSE_PREFIX + len(cells) // 50]
    failed = sum(c is not None for c in head) - np.count_nonzero(~np.isnan(parse_column(head, kind)))
    return (present > 0 and (present - failed) / present >= PARSE_THRESHOLD
            and np.count_nonzero(~np.isnan(table.values(name, kind))) / present >= PARSE_THRESHOLD)


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

    columns: dict[str, ColumnSpec] = {}  # by output name, placed at its first source
    for name in names:
        key = consumed.get(name, name)
        if key in columns:
            continue
        if key in overrides:
            columns[key] = overrides[key]
            continue
        present = sum(v is not None for v in table.column_values(name))
        if _parses(table, name, "numeric", present):
            columns[key] = ColumnSpec(name, "numeric")
        elif _parses(table, name, "datetime", present):
            columns[key] = ColumnSpec(name, "datetime")
        else:
            columns[key] = ColumnSpec(name, "categorical")
    return TableSchema(tuple(columns.values()))
