"""Reversible mixed-type discretization.

Every original column becomes one or more discrete sub-columns:

* categorical  -> one sub-column, dense indices in frequency order
* numeric      -> percentile bins (default) or per-digit sub-columns
* datetime     -> one sub-column per calendar part that varies
* latlong      -> one sub-column of adaptive quadtile keys

All encoders reserve a MISSING slot so the model can generate nulls. The
leading sub-column of a multi-part encoder carries the MISSING category;
sibling sub-columns hold zeros for missing rows.

Decoding is deterministic given the codes and ``n_draws`` uniforms per row
(one per within-bin numeric value, two per lat/lon point).
"""

from __future__ import annotations

import calendar
import operator
from dataclasses import dataclass
from datetime import datetime
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from typing import Optional, Sequence

import numpy as np

from .tables import ColumnSpec, RawTable, TableSchema, parse_datetime, parse_number

MISSING = "__MISSING__"
MAX_DECIMAL_PLACES = 6


@dataclass(frozen=True)
class SubColumn:
    name: str
    cardinality: int
    parent: str


class EncodedTable:
    """Matrix of category indices, one column per discrete sub-column."""

    def __init__(self, sub_columns: Sequence[SubColumn], data: np.ndarray):
        data = np.asarray(data, dtype=np.int32)
        if data.ndim != 2 or data.shape[1] != len(sub_columns):
            raise ValueError("data shape does not match sub-column count")
        for j, sc in enumerate(sub_columns):
            col = data[:, j]
            if col.size and (col.min() < 0 or col.max() >= sc.cardinality):
                raise ValueError(f"sub-column {sc.name!r}: index out of range (corrupt data)")
        self.sub_columns = list(sub_columns)
        self.data = data

    @property
    def row_count(self) -> int:
        return self.data.shape[0]

    @property
    def cardinalities(self) -> list[int]:
        return [s.cardinality for s in self.sub_columns]


# ---------------------------------------------------------------------------
# per-column encoders
# ---------------------------------------------------------------------------


class CategoryEncoder:
    """Dense index map in descending frequency order, lexicographic ties.

    MISSING is an ordinary token; on frequency ties it sorts after every
    real value.
    """

    kind = "category_map"
    n_draws = 0

    def __init__(self, column: str, mapping: dict[Optional[str], int]):
        self.column = column
        self.mapping = mapping
        if sorted(mapping.values()) != list(range(len(mapping))):
            raise ValueError(f"column {column!r}: category codes are not 0..{len(mapping) - 1}")
        self.by_code = np.empty(len(mapping), dtype=object)
        for v, i in mapping.items():
            self.by_code[i] = v

    @classmethod
    def fit(cls, column: str, values: Sequence[Optional[str]]) -> "CategoryEncoder":
        counts: dict[Optional[str], int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        counts.setdefault(None, 0)
        ordered = sorted(counts, key=lambda v: (-counts[v], v is None, v if v is not None else ""))
        return cls(column, {v: i for i, v in enumerate(ordered)})

    @property
    def cardinality(self) -> int:
        return len(self.mapping)

    def sub_columns(self) -> list[SubColumn]:
        return [SubColumn(self.column, self.cardinality, self.column)]

    def encode_value(self, value: Optional[str]) -> list[int]:
        if value not in self.mapping:
            raise ValueError(f"column {self.column!r}: value {value!r} not in vocabulary")
        return [self.mapping[value]]

    def encode(self, values: Sequence[Optional[str]]) -> np.ndarray:
        return np.array([[self.mapping.get(v, self.mapping[None])] for v in values], dtype=np.int32)

    def decode(self, codes: np.ndarray, u: np.ndarray) -> list[Optional[str]]:
        return self.by_code[codes[:, 0]].tolist()

    def to_dict(self) -> dict:
        items = [[v, i] for v, i in self.mapping.items()]  # MISSING is JSON null
        return {"type": "category", "column": self.column, "mapping": items}

    @classmethod
    def from_dict(cls, d: dict) -> "CategoryEncoder":
        # files written before MISSING became null stored it as "\0"
        legacy = all(v is not None for v, _ in d["mapping"])
        mapping = {(None if legacy and v == "\0" else v): int(i) for v, i in d["mapping"]}
        return cls(d["column"], mapping)


class PercentileEncoder:
    """Quantile bins: half-open [e_j, e_{j+1}) with the last bin closed.

    Out-of-range values clamp to the edge bins; decode draws uniformly
    within the bin so every decoded value re-encodes to the same index.
    """

    kind = "percentile_bins"
    n_draws = 1

    def __init__(self, column: str, edges: np.ndarray):
        edges = np.asarray(edges, dtype=np.float64)
        if len(edges) < 2:
            raise ValueError("need at least two bin edges")
        self.column = column
        self.edges = edges

    @classmethod
    def fit(cls, column: str, values: Sequence[Optional[str]], n_bins: int = 100) -> "PercentileEncoder":
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        nums = np.array([x for x in (parse_number(v) for v in values) if x is not None])
        if nums.size == 0:
            raise ValueError(f"column {column!r}: no numeric values to fit percentile bins")
        qs = np.quantile(nums, np.arange(n_bins + 1) / n_bins)
        edges = np.unique(qs)
        if len(edges) == 1:
            edges = np.array([edges[0], edges[0]])
        return cls(column, edges)

    @property
    def n_value_bins(self) -> int:
        return len(self.edges) - 1

    @property
    def missing_index(self) -> int:
        return self.n_value_bins

    @property
    def cardinality(self) -> int:
        return self.n_value_bins + 1

    def sub_columns(self) -> list[SubColumn]:
        return [SubColumn(self.column, self.cardinality, self.column)]

    def _bin_of(self, x: float) -> int:
        j = int(np.searchsorted(self.edges, x, side="right")) - 1
        return min(max(j, 0), self.n_value_bins - 1)

    def encode_value(self, value: Optional[str]) -> list[int]:
        x = parse_number(value)
        if x is None:
            return [self.missing_index]
        return [self._bin_of(x)]

    def encode(self, values: Sequence[Optional[str]]) -> np.ndarray:
        return np.array([self.encode_value(v) for v in values], dtype=np.int32)

    def decode(self, codes: np.ndarray, u: np.ndarray) -> list[Optional[str]]:
        k = codes[:, 0]
        lo_index = np.minimum(k, self.n_value_bins - 1)
        lo, hi = self.edges[lo_index], self.edges[lo_index + 1]
        values = map(repr, (lo + u[:, 0] * (hi - lo)).tolist())
        return [None if m else v for m, v in zip((k == self.missing_index).tolist(), values)]

    def to_dict(self) -> dict:
        return {"type": "percentile", "column": self.column, "edges": self.edges.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "PercentileEncoder":
        return cls(d["column"], np.array(d["edges"], dtype=np.float64))


def _decimal_places(text: str) -> int:
    try:
        exp = Decimal(text).as_tuple().exponent
    except InvalidOperation:
        return 0
    return max(0, -exp) if isinstance(exp, int) else 0


class DigitEncoder:
    """Lossless base-10 split: optional sign, then one sub-column per digit.

    Digits are most-significant first; decimal precision is the maximum
    count of decimal places observed, capped at 6. The leading sub-column
    (sign when negatives exist, else the first digit) carries MISSING.
    """

    kind = "digit_split"
    n_draws = 0

    def __init__(self, column: str, has_sign: bool, n_digits: int, decimals: int):
        if n_digits < 1:
            raise ValueError("need at least one digit position")
        self.column = column
        self.has_sign = has_sign
        self.n_digits = n_digits
        self.decimals = decimals

    @classmethod
    def fit(cls, column: str, values: Sequence[Optional[str]]) -> "DigitEncoder":
        decs: list[Decimal] = []
        decimals = 0
        for v in values:
            if v is None:
                continue
            try:
                parsed = float(v)
            except ValueError:  # a present, unparseable cell counts as missing
                continue
            if not np.isfinite(parsed):
                raise ValueError(f"column {column!r}: non-finite value {v!r}")
            decs.append(Decimal(v.strip()))
            decimals = max(decimals, _decimal_places(v.strip()))
        if not decs:
            raise ValueError(f"column {column!r}: no numeric values to fit digit split")
        decimals = min(decimals, MAX_DECIMAL_PLACES)
        scale = Decimal(10) ** decimals
        scaled = [int((d.copy_abs() * scale).to_integral_value(ROUND_HALF_UP)) for d in decs]
        n_digits = max(1, len(str(max(scaled))))
        has_sign = any(d < 0 for d in decs)
        return cls(column, has_sign, n_digits, decimals)

    @property
    def n_sub_columns(self) -> int:
        return self.n_digits + (1 if self.has_sign else 0)

    def sub_columns(self) -> list[SubColumn]:
        subs = []
        if self.has_sign:
            subs.append(SubColumn(f"{self.column}#sign", 3, self.column))  # +, -, MISSING
            subs.extend(
                SubColumn(f"{self.column}#d{i}", 10, self.column) for i in range(self.n_digits)
            )
        else:
            subs.append(SubColumn(f"{self.column}#d0", 11, self.column))  # 0-9 + MISSING
            subs.extend(
                SubColumn(f"{self.column}#d{i}", 10, self.column) for i in range(1, self.n_digits)
            )
        return subs

    @property
    def _missing_code(self) -> int:
        return 2 if self.has_sign else 10

    def encode_value(self, value: Optional[str]) -> list[int]:
        x = parse_number(value)
        if x is None:
            return [self._missing_code] + [0] * (self.n_sub_columns - 1)
        d = Decimal(value.strip())
        scale = Decimal(10) ** self.decimals
        scaled = int((d.copy_abs() * scale).to_integral_value(ROUND_HALF_UP))
        scaled = min(scaled, 10**self.n_digits - 1)
        digits = [int(c) for c in str(scaled).zfill(self.n_digits)]
        if self.has_sign:
            return [1 if d < 0 else 0] + digits
        return digits

    def encode(self, values: Sequence[Optional[str]]) -> np.ndarray:
        return np.array([self.encode_value(v) for v in values], dtype=np.int32)

    def decode(self, codes: np.ndarray, u: np.ndarray) -> list[Optional[str]]:
        out: list[Optional[str]] = []
        for row in codes:
            if int(row[0]) == self._missing_code:
                out.append(None)
                continue
            digits = row[1:] if self.has_sign else row
            magnitude = 0
            for d in digits:
                magnitude = magnitude * 10 + int(d)
            negative = self.has_sign and int(row[0]) == 1
            if self.decimals == 0:
                text = str(magnitude)
            else:
                q = Decimal(magnitude) / (Decimal(10) ** self.decimals)
                text = format(q, "f").rstrip("0").rstrip(".")
                if text in ("", "-"):
                    text = "0"
            out.append(("-" + text) if negative and magnitude != 0 else text)
        return out

    def to_dict(self) -> dict:
        return {
            "type": "digit",
            "column": self.column,
            "has_sign": self.has_sign,
            "n_digits": self.n_digits,
            "decimals": self.decimals,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DigitEncoder":
        return cls(d["column"], bool(d["has_sign"]), int(d["n_digits"]), int(d["decimals"]))


_PART_ORDER = ("year", "month", "day", "hour", "minute", "second")
_PART_DOMAIN = {"month": 12, "day": 31, "hour": 24, "minute": 60, "second": 60}
_PART_BASE = {"month": 1, "day": 1, "hour": 0, "minute": 0, "second": 0}


class DatetimeEncoder:
    """Calendar decomposition; constant parts are dropped and restored on decode.

    Year is encoded over its observed range, the other parts over their full
    domain. Impossible day/month combinations clamp to the month's length.
    """

    kind = "datetime_parts"
    n_draws = 0

    def __init__(self, column: str, parts: list[str], constants: dict[str, int],
                 year_min: int, year_max: int, has_time: bool):
        self.column = column
        self.parts = list(parts)
        self.constants = dict(constants)
        self.year_min = year_min
        self.year_max = year_max
        self.has_time = has_time

    @classmethod
    def fit(cls, column: str, values: Sequence[Optional[str]]) -> "DatetimeEncoder":
        stamps = [d for d in (parse_datetime(v) for v in values) if d is not None]
        if not stamps:
            raise ValueError(f"column {column!r}: no parseable datetimes")
        fields = {
            "year": [d.year for d in stamps],
            "month": [d.month for d in stamps],
            "day": [d.day for d in stamps],
            "hour": [d.hour for d in stamps],
            "minute": [d.minute for d in stamps],
            "second": [d.second for d in stamps],
        }
        parts = [p for p in _PART_ORDER if len(set(fields[p])) > 1]
        constants = {p: fields[p][0] for p in _PART_ORDER if p not in parts}
        if not parts:
            parts = ["year"]
            constants.pop("year")
        has_time = any(
            (p in parts) or constants.get(p, 0) != 0 for p in ("hour", "minute", "second")
        )
        return cls(column, parts, constants, min(fields["year"]), max(fields["year"]), has_time)

    def _part_cardinality(self, part: str) -> int:
        if part == "year":
            return self.year_max - self.year_min + 1
        return _PART_DOMAIN[part]

    def sub_columns(self) -> list[SubColumn]:
        subs = []
        for i, p in enumerate(self.parts):
            card = self._part_cardinality(p) + (1 if i == 0 else 0)  # MISSING on leading part
            subs.append(SubColumn(f"{self.column}#{p}", card, self.column))
        return subs

    @property
    def _missing_code(self) -> int:
        return self._part_cardinality(self.parts[0])

    def encode_value(self, value: Optional[str]) -> list[int]:
        d = parse_datetime(value)
        if d is None:
            return [self._missing_code] + [0] * (len(self.parts) - 1)
        codes = []
        for p in self.parts:
            raw = getattr(d, p)
            if p == "year":
                codes.append(min(max(raw, self.year_min), self.year_max) - self.year_min)
            else:
                codes.append(raw - _PART_BASE[p])
        return codes

    def encode(self, values: Sequence[Optional[str]]) -> np.ndarray:
        return np.array([self.encode_value(v) for v in values], dtype=np.int32)

    def decode(self, codes: np.ndarray, u: np.ndarray) -> list[Optional[str]]:
        out: list[Optional[str]] = []
        for row in codes:
            if int(row[0]) == self._missing_code:
                out.append(None)
                continue
            fields = dict(self.constants)
            for p, c in zip(self.parts, row):
                if p == "year":
                    fields[p] = self.year_min + int(c)
                else:
                    fields[p] = _PART_BASE[p] + int(c)
            day_cap = calendar.monthrange(fields["year"], fields["month"])[1]
            fields["day"] = min(fields["day"], day_cap)
            stamp = datetime(**{k: fields[k] for k in _PART_ORDER})
            if self.has_time:
                out.append(stamp.strftime("%Y-%m-%d %H:%M:%S"))
            else:
                out.append(stamp.strftime("%Y-%m-%d"))
        return out

    def to_dict(self) -> dict:
        return {
            "type": "datetime",
            "column": self.column,
            "parts": self.parts,
            "constants": self.constants,
            "year_min": self.year_min,
            "year_max": self.year_max,
            "has_time": self.has_time,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DatetimeEncoder":
        return cls(
            d["column"], list(d["parts"]), {k: int(v) for k, v in d["constants"].items()},
            int(d["year_min"]), int(d["year_max"]), bool(d["has_time"]),
        )


_ROOT_BOX = (-90.0, 90.0, -180.0, 180.0)  # lat_lo, lat_hi, lon_lo, lon_hi


def _quad_child_box(box, digit: int):
    lat_lo, lat_hi, lon_lo, lon_hi = box
    mid_lat = (lat_lo + lat_hi) / 2.0
    mid_lon = (lon_lo + lon_hi) / 2.0
    north = digit in (0, 1)
    west = digit in (0, 2)
    return (
        mid_lat if north else lat_lo,
        lat_hi if north else mid_lat,
        lon_lo if west else mid_lon,
        mid_lon if west else lon_hi,
    )


def _quad_digit(box, lat: float, lon: float) -> int:
    lat_lo, lat_hi, lon_lo, lon_hi = box
    north = lat >= (lat_lo + lat_hi) / 2.0
    east = lon >= (lon_lo + lon_hi) / 2.0
    if north:
        return 1 if east else 0
    return 3 if east else 2


def quadkey_box(key: str):
    box = _ROOT_BOX
    for ch in key:
        box = _quad_child_box(box, int(ch))
    return box


class QuadtileEncoder:
    """Adaptive quadtree over plain lat/lon; leaves form the category set.

    Digit convention by box midpoint: 0=NW, 1=NE, 2=SW, 3=SE. A tile splits
    while it holds at least ``min_tile_count`` points and is above
    ``max_depth``; when it splits, all four children exist so the leaves
    partition the bounding box.
    """

    kind = "quadtile"
    n_draws = 2

    def __init__(self, column: str, sources: tuple[str, str], leaves: list[str]):
        self.column = column
        self.sources = tuple(sources)
        self.leaves = sorted(leaves)
        self.leaf_index = {k: i for i, k in enumerate(self.leaves)}
        # (lat_lo, lat_hi, lon_lo, lon_hi) per leaf, plus a dummy MISSING row
        self.boxes = np.array([quadkey_box(k) for k in self.leaves] + [_ROOT_BOX])

    @classmethod
    def fit(
        cls,
        column: str,
        sources: tuple[str, str],
        lat_values: Sequence[Optional[str]],
        lon_values: Sequence[Optional[str]],
        min_tile_count: int = 100,
        max_depth: int = 12,
    ) -> "QuadtileEncoder":
        pts = []
        for a, b in zip(lat_values, lon_values):
            lat, lon = parse_number(a), parse_number(b)
            if lat is None or lon is None:
                continue
            if not (-90.0 <= lat <= 90.0) or not (-180.0 <= lon <= 180.0):
                raise ValueError(f"column {column!r}: coordinate ({lat}, {lon}) out of range")
            pts.append((lat, lon))

        leaves: list[str] = []

        def split(key: str, box, points: list[tuple[float, float]]):
            if len(points) >= min_tile_count and len(key) < max_depth:
                buckets: list[list[tuple[float, float]]] = [[], [], [], []]
                for p in points:
                    buckets[_quad_digit(box, *p)].append(p)
                for digit in range(4):
                    split(key + str(digit), _quad_child_box(box, digit), buckets[digit])
            else:
                leaves.append(key)

        split("", _ROOT_BOX, pts)
        return cls(column, sources, leaves)

    @property
    def missing_index(self) -> int:
        return len(self.leaves)

    @property
    def cardinality(self) -> int:
        return len(self.leaves) + 1

    def sub_columns(self) -> list[SubColumn]:
        return [SubColumn(f"{self.column}#tile", self.cardinality, self.column)]

    def key_of(self, lat: float, lon: float) -> str:
        key, box = "", _ROOT_BOX
        while key not in self.leaf_index:
            digit = _quad_digit(box, lat, lon)
            box = _quad_child_box(box, digit)
            key += str(digit)
            if len(key) > 32:
                raise RuntimeError("quadtile walk did not reach a leaf")
        return key

    def encode_pair(self, lat_cell: Optional[str], lon_cell: Optional[str]) -> list[int]:
        lat, lon = parse_number(lat_cell), parse_number(lon_cell)
        if lat is None or lon is None:
            return [self.missing_index]
        if not (-90.0 <= lat <= 90.0) or not (-180.0 <= lon <= 180.0):
            raise ValueError(f"column {self.column!r}: coordinate ({lat}, {lon}) out of range")
        return [self.leaf_index[self.key_of(lat, lon)]]

    def encode(self, lat_values, lon_values) -> np.ndarray:
        return np.array(
            [self.encode_pair(a, b) for a, b in zip(lat_values, lon_values)], dtype=np.int32
        )

    def decode(self, codes: np.ndarray, u: np.ndarray):
        """Returns parallel (lat, lon) cell lists."""
        box = self.boxes[codes[:, 0]]
        missing = (codes[:, 0] == self.missing_index).tolist()
        lat = map(repr, (box[:, 0] + u[:, 0] * (box[:, 1] - box[:, 0])).tolist())
        lon = map(repr, (box[:, 2] + u[:, 1] * (box[:, 3] - box[:, 2])).tolist())
        return ([None if m else v for m, v in zip(missing, lat)],
                [None if m else v for m, v in zip(missing, lon)])

    def to_dict(self) -> dict:
        return {
            "type": "quadtile",
            "column": self.column,
            "sources": list(self.sources),
            "leaves": self.leaves,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "QuadtileEncoder":
        return cls(d["column"], tuple(d["sources"]), list(d["leaves"]))


# ---------------------------------------------------------------------------
# table-level fit / encode / decode
# ---------------------------------------------------------------------------

_ENCODER_TYPES = {
    "category": CategoryEncoder,
    "percentile": PercentileEncoder,
    "digit": DigitEncoder,
    "datetime": DatetimeEncoder,
    "quadtile": QuadtileEncoder,
}


@dataclass(frozen=True)
class EncodingOptions:
    n_bins: int = 100
    quad_min_tile: int = 100
    quad_max_depth: int = 12

    def __post_init__(self):
        for name, low in (("n_bins", 1), ("quad_min_tile", 1), ("quad_max_depth", 0)):
            if operator.index(getattr(self, name)) < low:
                raise ValueError(f"{name} must be >= {low}")


class TableEncoders:
    """Ordered per-column encoders for a schema, plus the derived sub-columns."""

    def __init__(self, schema: TableSchema, encoders: list):
        self.schema = schema
        self.encoders = encoders
        subs: list[SubColumn] = []
        for enc in encoders:
            subs.extend(enc.sub_columns())
        self.sub_columns = subs

    @property
    def d_total(self) -> int:
        return len(self.sub_columns)

    @property
    def n_draws(self) -> int:
        """Uniforms per row that decode_table hands to the decoders."""
        return sum(enc.n_draws for enc in self.encoders)

    def encoder_for(self, column: str):
        for enc in self.encoders:
            if enc.column == column:
                return enc
        raise KeyError(column)

    def sub_indices_of(self, column: str) -> list[int]:
        return [i for i, s in enumerate(self.sub_columns) if s.parent == column]

    def output_schema(self) -> TableSchema:
        """Schema of decoded tables: latlong expands back to its source columns."""
        cols: list[ColumnSpec] = []
        for spec in self.schema.columns:
            if spec.kind == "latlong":
                cols.append(ColumnSpec(spec.sources[0], "numeric", "percentile_bins"))
                cols.append(ColumnSpec(spec.sources[1], "numeric", "percentile_bins"))
            else:
                cols.append(spec)
        return TableSchema(tuple(cols), self.schema.row_count)

    def to_dict(self) -> dict:
        return {"encoders": [e.to_dict() for e in self.encoders]}

    @classmethod
    def from_dict(cls, schema: TableSchema, d: dict) -> "TableEncoders":
        encs = [_ENCODER_TYPES[e["type"]].from_dict(e) for e in d["encoders"]]
        return cls(schema, encs)


def fit_encoders(raw: RawTable, schema: TableSchema, options: EncodingOptions = EncodingOptions()) -> TableEncoders:
    encoders = []
    for spec in schema.columns:
        if spec.kind == "categorical":
            encoders.append(CategoryEncoder.fit(spec.name, raw.column_values(spec.name)))
        elif spec.kind == "numeric" and spec.encoding == "percentile_bins":
            encoders.append(PercentileEncoder.fit(spec.name, raw.column_values(spec.name), options.n_bins))
        elif spec.kind == "numeric":
            encoders.append(DigitEncoder.fit(spec.name, raw.column_values(spec.name)))
        elif spec.kind == "datetime":
            encoders.append(DatetimeEncoder.fit(spec.name, raw.column_values(spec.name)))
        elif spec.kind == "latlong":
            lat_col, lon_col = spec.sources
            encoders.append(
                QuadtileEncoder.fit(
                    spec.name, spec.sources,
                    raw.column_values(lat_col), raw.column_values(lon_col),
                    options.quad_min_tile, options.quad_max_depth,
                )
            )
        else:  # pragma: no cover - schema validation keeps us out of here
            raise ValueError(f"unsupported column spec {spec}")
    return TableEncoders(schema, encoders)


def encode_table(raw: RawTable, encoders: TableEncoders) -> EncodedTable:
    blocks = []
    for spec, enc in zip(encoders.schema.columns, encoders.encoders):
        if spec.kind == "latlong":
            lat_col, lon_col = spec.sources
            blocks.append(enc.encode(raw.column_values(lat_col), raw.column_values(lon_col)))
        else:
            blocks.append(enc.encode(raw.column_values(spec.name)))
    data = np.hstack(blocks) if blocks else np.zeros((raw.row_count, 0), dtype=np.int32)
    return EncodedTable(encoders.sub_columns, data)


def decode_table(encoded: EncodedTable, encoders: TableEncoders, uniforms: np.ndarray) -> RawTable:
    """``uniforms`` holds ``encoders.n_draws`` values in [0, 1) per row; each
    decoder reads its own columns of it, in encoder order."""
    out_schema = encoders.output_schema()
    columns: dict[str, list[Optional[str]]] = {}
    offset = draw = 0
    for spec, enc in zip(encoders.schema.columns, encoders.encoders):
        width = len(enc.sub_columns())
        codes = encoded.data[:, offset : offset + width]
        u = uniforms[:, draw : draw + enc.n_draws]
        offset += width
        draw += enc.n_draws
        if spec.kind == "latlong":
            columns[spec.sources[0]], columns[spec.sources[1]] = enc.decode(codes, u)
        else:
            columns[spec.name] = enc.decode(codes, u)
    cells = list(map(list, zip(*(columns[n] for n in out_schema.names))))
    return RawTable(TableSchema(out_schema.columns, encoded.row_count), cells)
