"""CSV ingestion and column-type inference.

A column is held as int32 codes into a vocabulary of texts; ``None`` is a
missing cell and the empty string on disk means missing. ``parse_column`` is
the one place where texts become numbers: a vocabulary parses each entry at
most once per kind, and ``RawTable.values`` gathers that parse through the
codes. ``RawTable.categories`` sorts a vocabulary once, on first use, into
``factorize``'s order: missing first, then the sorted texts. Type inference
is deliberately tolerant: a column counts as numeric/datetime when at least
99% of its non-missing cells parse, so a handful of sentinel strings do not
demote an otherwise numeric column.
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


class OverrideError(ValueError):
    """An override names a column, or a latlong source, that the table lacks."""


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
        if self.kind == "latlong" and (self.sources is None or len(self.sources) != 2
                                       or self.sources[0] == self.sources[1]):
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


class Column:
    """A column's cells as int32 ``codes`` into ``texts``, an object array
    of entries that may repeat or go unused (a subset shares its source's),
    with ``parsed``: the entries' ``parse_column`` values per kind."""

    __slots__ = ("texts", "codes", "parsed", "_values", "_factorized")

    def __init__(self, texts: np.ndarray, codes: np.ndarray, parsed: Optional[dict[str, np.ndarray]] = None):
        codes = np.asarray(codes, dtype=np.int32)
        codes.flags.writeable = False
        self.texts, self.codes, self.parsed = texts, codes, {} if parsed is None else parsed
        self._values: dict[str, np.ndarray] = {}
        self._factorized: Optional[tuple[np.ndarray, np.ndarray]] = None

    @property
    def cells(self) -> list[Optional[str]]:
        return self.texts[self.codes].tolist()

    def parse(self, kind: str) -> np.ndarray:
        """The entries' values, parsed once per kind."""
        if kind not in self.parsed:
            self.parsed[kind] = parse_column(self.texts.tolist(), kind)
        return self.parsed[kind]

    def values(self, kind: str) -> np.ndarray:
        """The entries' values gathered through the codes, once per kind."""
        if kind not in self._values:
            self._values[kind] = vals = self.parse(kind)[self.codes]
            vals.flags.writeable = False
        return self._values[kind]

    def categories(self) -> tuple[np.ndarray, np.ndarray]:
        """``factorize`` of the cells, computed once from the entries the
        codes use, which it sorts: the one place texts are sorted."""
        if self._factorized is None:
            used = np.flatnonzero(np.bincount(self.codes, minlength=len(self.texts)))
            vocab, used_codes = factorize(self.texts[used].tolist())
            remap = np.zeros(len(self.texts), dtype=np.int32)
            remap[used] = used_codes
            codes = remap[self.codes]
            codes.flags.writeable = False
            self._factorized = vocab, codes
        return self._factorized


def value_column(x: np.ndarray, missing: Optional[np.ndarray] = None) -> Column:
    """The ``repr`` texts of float values, missing where ``missing``; each
    distinct value (by its bits: -0.0 is not 0.0) is formatted once. The
    column keeps the values, NaN where missing or not finite, as its parse."""
    bits, inverse = np.unique(np.ascontiguousarray(x).view(np.uint64), return_inverse=True)
    distinct = bits.view(np.float64)
    codes = inverse.ravel() if missing is None else np.where(missing, len(distinct), inverse.ravel())
    return Column(np.array([*map(repr, distinct.tolist()), None], dtype=object), codes,
                  {"numeric": np.append(np.where(np.isfinite(distinct), distinct, np.nan), np.nan)})


class RawTable:
    """The columns of ``schema``: ``columns[j]`` is the cells of
    ``schema.columns[j]`` (each cell an entry of its own), or a ``Column``.
    Columns are not modified after construction; a subset or a re-typed
    table shares its source's vocabularies, and so their parses."""

    def __init__(self, schema: TableSchema, columns: Sequence[Union[Column, Sequence[Optional[str]]]]):
        if len(columns) != len(schema.columns):
            raise ValueError(f"expected {len(schema.columns)} columns, got {len(columns)}")
        columns = [c if isinstance(c, Column) else Column(np.array(c, dtype=object), np.arange(len(c)))
                   for c in columns]
        lengths = sorted({len(c.codes) for c in columns})
        if len(lengths) > 1:
            raise ValueError(f"columns differ in length: {lengths}")
        self.schema, self.row_count = schema, lengths[0] if lengths else 0
        self._columns = dict(zip(schema.names, columns))

    @property
    def column_names(self) -> list[str]:
        return self.schema.names

    @property
    def cells(self) -> list[list[Optional[str]]]:
        """The cells, row by row."""
        return [list(row) for row in zip(*map(self.column_values, self.column_names))]

    def column(self, name: str) -> Column:
        return self._columns[name]

    def column_values(self, name: str) -> list[Optional[str]]:
        return self._columns[name].cells

    def values(self, name: str, kind: str) -> np.ndarray:
        """Read-only ``parse_column`` values of a column's cells."""
        return self._columns[name].values(kind)

    def categories(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``factorize`` of a column's cells: the vocabulary (missing first,
        then the sorted texts) and the read-only codes, computed once."""
        return self._columns[name].categories()

    def subset(self, row_indices: Iterable[int]) -> "RawTable":
        rows = np.asarray(list(row_indices), dtype=np.intp)
        return RawTable(self.schema, [Column(c.texts, c.codes[rows], c.parsed) for c in self._columns.values()])

    def retyped(self, schema: TableSchema) -> "RawTable":
        """The columns ``schema`` names, picked by name and typed by it; the
        result shares this table's columns, parses and categories."""
        return RawTable(schema, [self._columns[name] for name in schema.names])


def concat(tables: Sequence[RawTable]) -> RawTable:
    """The tables' rows one after another, under the first table's schema:
    each column's entries are its pieces' entries one after another, and a
    kind that one piece has parsed is parsed for all."""
    columns = []
    for pieces in zip(*(map(t.column, tables[0].column_names) for t in tables)):
        offsets = np.cumsum([0] + [len(p.texts) for p in pieces])
        columns.append(Column(np.concatenate([p.texts for p in pieces]),
                              np.concatenate([p.codes + offset for p, offset in zip(pieces, offsets)]),
                              {kind: np.concatenate([p.parse(kind) for p in pieces])
                               for kind in set().union(*(p.parsed for p in pieces))}))
    return RawTable(tables[0].schema, columns)


READ_ROWS = 16384  # csv rows read_csv holds at a time


def read_csv(path: str) -> RawTable:
    """Read a comma-separated file (header row mandatory, RFC-4180 quoting).

    Empty cells come back as missing. Ragged rows fail with the offending
    physical line number. Every column is read as categorical, READ_ROWS
    rows at a time, through one dict per column from text to code: a
    column's entries are its distinct texts in order of first appearance.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected a header row") from None
        seen: list[dict[str, int]] = [{} for _ in header]
        codes: list[list[np.ndarray]] = [[np.zeros(0, dtype=np.int32)] for _ in header]
        while rows := list(itertools.islice(reader, READ_ROWS)):
            if set(map(len, rows)) != {len(header)}:
                raise _ragged_row(path, len(header))
            for cells, index, parts in zip(zip(*rows), seen, codes):  # a new text takes the next code
                parts.append(np.fromiter((index.setdefault(c, len(index)) for c in cells),
                                         dtype=np.int32, count=len(cells)))
    schema = TableSchema(tuple(ColumnSpec(n, "categorical") for n in header))
    return RawTable(schema, [  # the empty text is a missing cell
        Column(np.array([t or None for t in index], dtype=object), np.concatenate(parts))
        for index, parts in zip(seen, codes)])


def _ragged_row(path: str, width: int) -> ParseError:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        row = next(row for row in reader if len(row) != width)
    return ParseError(f"line {reader.line_num}: expected {width} fields, got {len(row)}")


def write_csv(table: Union[RawTable, Iterable[RawTable]], path: str) -> None:
    """Write a table, or blocks of rows under the first block's header, each
    block as soon as it is produced. Missing cells are written empty."""
    blocks = iter([table] if isinstance(table, RawTable) else table)
    first = next(blocks)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(first.column_names)
        for block in itertools.chain([first], blocks):
            writer.writerows(zip(*map(block.column_values, block.column_names)))


def factorize(cells: Sequence[Optional[str]]) -> tuple[np.ndarray, np.ndarray]:
    """(vocab, codes): the distinct cells, ``None`` first when one is missing, then the
    sorted texts, as an object array; and the int32 codes with ``vocab[codes]`` the cells."""
    distinct = dict.fromkeys(cells)
    vocab = [None] * (distinct.pop(None, 0) is None) + sorted(distinct)  # fromkeys' values are None
    index = dict(zip(vocab, itertools.count()))
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
    column = table.column(name)
    head = column.texts[column.codes[: PARSE_PREFIX + len(column.codes) // 50]].tolist()
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
                    raise OverrideError(f"override {key!r}: unknown source column {src!r}")
                consumed[src] = key
        elif key not in names:
            raise OverrideError(f"override references unknown column {key!r}")

    columns: dict[str, ColumnSpec] = {}  # by output name, placed at its first source
    for name in names:
        key = consumed.get(name, name)
        if key in columns:
            continue
        if key in overrides:
            columns[key] = overrides[key]
            continue
        column = table.column(name)
        is_text = np.array([t is not None for t in column.texts.tolist()], dtype=bool)
        present = np.count_nonzero(is_text[column.codes])
        if _parses(table, name, "numeric", present):
            columns[key] = ColumnSpec(name, "numeric")
        elif _parses(table, name, "datetime", present):
            columns[key] = ColumnSpec(name, "datetime")
        else:
            columns[key] = ColumnSpec(name, "categorical")
    return TableSchema(tuple(columns.values()))
