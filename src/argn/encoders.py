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

import operator
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from typing import Optional, Sequence

import numpy as np

from .tables import ColumnSpec, RawTable, TableSchema, parse_column

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

    def encode(self, values: Sequence[Optional[str]]) -> np.ndarray:
        """Codes of a column; values outside the vocabulary encode as MISSING."""
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
        nums = parse_column(values, "numeric")
        nums = nums[~np.isnan(nums)]
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

    def encode(self, values: Sequence[Optional[str]]) -> np.ndarray:
        x = parse_column(values, "numeric")
        k = np.clip(np.searchsorted(self.edges, x, side="right") - 1, 0, self.n_value_bins - 1)
        return np.where(np.isnan(x), self.missing_index, k).astype(np.int32)[:, None]

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


def _magnitudes(decs: Sequence[Decimal], decimals: int) -> list[int]:
    """|d| * 10**decimals of each value, rounded half up."""
    scale = Decimal(10) ** decimals
    return [int((d.copy_abs() * scale).to_integral_value(ROUND_HALF_UP)) for d in decs]


def _strings(chars: np.ndarray) -> np.ndarray:
    """One str per row of a uint8 matrix of ASCII codes."""
    return np.ascontiguousarray(chars).view(f"S{chars.shape[1]}")[:, 0].astype(str)


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
        finite = ~np.isnan(parse_column(values, "numeric"))
        decs: list[Decimal] = []
        for v, ok in zip(values, finite):
            if v is None:
                continue
            try:
                d = Decimal(v.strip())
            except InvalidOperation:  # a present, unparseable cell counts as missing
                continue
            if not ok:  # a number, but no finite float: inf, nan or out of range
                raise ValueError(f"column {column!r}: non-finite value {v!r}")
            decs.append(d)
        if not decs:
            raise ValueError(f"column {column!r}: no numeric values to fit digit split")
        decimals = min(max(0, -min(d.as_tuple().exponent for d in decs)), MAX_DECIMAL_PLACES)
        n_digits = max(1, len(str(max(_magnitudes(decs, decimals)))))
        has_sign = any(d < 0 for d in decs)
        return cls(column, has_sign, n_digits, decimals)

    @property
    def n_sub_columns(self) -> int:
        return self.n_digits + (1 if self.has_sign else 0)

    def sub_columns(self) -> list[SubColumn]:
        # the leading sub-column adds MISSING to the sign (+, -) or to the first digit
        names = ["sign"] * self.has_sign + [f"d{i}" for i in range(self.n_digits)]
        cards = [self._missing_code + 1] + [10] * (len(names) - 1)
        return [SubColumn(f"{self.column}#{n}", c, self.column) for n, c in zip(names, cards)]

    @property
    def _missing_code(self) -> int:
        return 2 if self.has_sign else 10

    def encode(self, values: Sequence[Optional[str]]) -> np.ndarray:
        finite = ~np.isnan(parse_column(values, "numeric"))
        decs = [Decimal(v.strip()) for v, ok in zip(values, finite) if ok]
        cap = 10**self.n_digits - 1
        text = "".join(str(min(m, cap)).zfill(self.n_digits) for m in _magnitudes(decs, self.decimals))
        digits = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
        codes = np.zeros((len(finite), self.n_sub_columns), dtype=np.int32)
        codes[:, 0] = self._missing_code
        codes[finite, self.n_sub_columns - self.n_digits :] = digits.reshape(len(decs), self.n_digits)
        if self.has_sign:
            codes[finite, 0] = [d < 0 for d in decs]
        return codes

    def decode(self, codes: np.ndarray, u: np.ndarray) -> list[Optional[str]]:
        """Text from the digit codes: the whole part without leading zeros,
        then the fraction, if any is left, without trailing zeros."""
        digits = codes[:, self.n_sub_columns - self.n_digits :]
        width = max(self.n_digits, self.decimals + 1)
        chars = np.full((len(codes), width), ord("0"), dtype=np.uint8)
        chars[:, width - self.n_digits :] += digits.astype(np.uint8)
        cut = width - self.decimals
        whole = np.char.lstrip(_strings(chars[:, :cut]), "0")
        text = np.where(whole == "", "0", whole)
        if self.decimals:
            frac = np.char.rstrip(_strings(chars[:, cut:]), "0")
            text = np.where(frac == "", text, np.char.add(np.char.add(text, "."), frac))
        if self.has_sign:
            negative = (codes[:, 0] == 1) & digits.any(axis=1)
            text = np.where(negative, np.char.add("-", text), text)
        missing = (codes[:, 0] == self._missing_code).tolist()
        return [None if m else t for m, t in zip(missing, text.tolist())]

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
# (first value, number of values) of each part but the year
_PART_SPAN = {"month": (1, 12), "day": (1, 31), "hour": (0, 24), "minute": (0, 60), "second": (0, 60)}


def _calendar_parts(seconds: np.ndarray) -> dict[str, np.ndarray]:
    """UTC calendar parts of epoch seconds, floored to the whole second (a
    fraction within float64 resolution of the next second, under 16 us in
    year 9999, reads as that second)."""
    s = np.floor(seconds).astype(np.int64).astype("datetime64[s]")
    day, month = s.astype("datetime64[D]"), s.astype("datetime64[M]")
    clock = (s - day).astype(np.int64)
    return {
        "year": s.astype("datetime64[Y]").astype(np.int64) + 1970,
        "month": month.astype(np.int64) % 12 + 1,
        "day": (day - month.astype("datetime64[D]")).astype(np.int64) + 1,
        "hour": clock // 3600,
        "minute": clock // 60 % 60,
        "second": clock % 60,
    }


class DatetimeEncoder:
    """Calendar decomposition; constant parts are dropped and restored on decode.

    Parts are UTC parts (``tables.parse_column``'s datetime rule). Year is
    encoded over its observed range, the other parts over their full domain.
    Impossible day/month combinations clamp to the month's length.
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
        seconds = parse_column(values, "datetime")
        seconds = seconds[~np.isnan(seconds)]
        if seconds.size == 0:
            raise ValueError(f"column {column!r}: no parseable datetimes")
        fields = _calendar_parts(seconds)
        parts = [p for p in _PART_ORDER if (fields[p] != fields[p][0]).any()]
        constants = {p: int(fields[p][0]) for p in _PART_ORDER if p not in parts}
        if not parts:
            parts = ["year"]
            constants.pop("year")
        has_time = any(
            (p in parts) or constants.get(p, 0) != 0 for p in ("hour", "minute", "second")
        )
        years = fields["year"]
        return cls(column, parts, constants, int(years.min()), int(years.max()), has_time)

    def _span(self, part: str) -> tuple[int, int]:
        if part == "year":
            return self.year_min, self.year_max - self.year_min + 1
        return _PART_SPAN[part]

    def sub_columns(self) -> list[SubColumn]:
        # MISSING on the leading part
        return [SubColumn(f"{self.column}#{p}", self._span(p)[1] + (i == 0), self.column)
                for i, p in enumerate(self.parts)]

    @property
    def _missing_code(self) -> int:
        return self._span(self.parts[0])[1]

    def encode(self, values: Sequence[Optional[str]]) -> np.ndarray:
        seconds = parse_column(values, "datetime")
        present = ~np.isnan(seconds)
        fields = _calendar_parts(seconds[present])
        codes = np.zeros((len(seconds), len(self.parts)), dtype=np.int32)
        codes[:, 0] = self._missing_code
        for j, p in enumerate(self.parts):
            first, count = self._span(p)
            codes[present, j] = np.clip(fields[p] - first, 0, count - 1)  # clamps the year
        return codes

    def decode(self, codes: np.ndarray, u: np.ndarray) -> list[Optional[str]]:
        fields = {p: np.full(len(codes), c, dtype=np.int64) for p, c in self.constants.items()}
        for p, col in zip(self.parts, codes.T.astype(np.int64)):
            fields[p] = col + self._span(p)[0]
        month = ((fields["year"] - 1970) * 12 + fields["month"] - 1).astype("datetime64[M]")
        first = month.astype("datetime64[D]")
        day_cap = ((month + 1).astype("datetime64[D]") - first).astype(np.int64)
        day = first + (np.minimum(fields["day"], day_cap) - 1)
        clock = fields["hour"] * 3600 + fields["minute"] * 60 + fields["second"]
        # datetime64 strings zero-pad the year to four digits
        text = np.datetime_as_string(day.astype("datetime64[s]") + clock,
                                     unit="s" if self.has_time else "D")
        missing = (codes[:, 0] == self._missing_code).tolist()
        return [None if m else t.replace("T", " ") for m, t in zip(missing, text.tolist())]

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


def _quad_digits(box, lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Digit of the child tile under ``box`` that holds each point."""
    lat_lo, lat_hi, lon_lo, lon_hi = box
    return np.where(lat >= (lat_lo + lat_hi) / 2.0, 0, 2) + (lon >= (lon_lo + lon_hi) / 2.0)


def _quad_child_box(box, digit):
    """Box of child tile ``digit``; box and digit are scalars or one per point."""
    lat_lo, lat_hi, lon_lo, lon_hi = box
    mid_lat = (lat_lo + lat_hi) / 2.0
    mid_lon = (lon_lo + lon_hi) / 2.0
    north, east = digit < 2, digit % 2 == 1
    return (np.where(north, mid_lat, lat_lo), np.where(north, lat_hi, mid_lat),
            np.where(east, mid_lon, lon_lo), np.where(east, lon_hi, mid_lon))


def _points(column: str, lat_values: Sequence[Optional[str]], lon_values: Sequence[Optional[str]]):
    """(lat, lon) of the rows where both cells parse, and the mask of those rows."""
    lat, lon = parse_column(lat_values, "numeric"), parse_column(lon_values, "numeric")
    present = ~(np.isnan(lat) | np.isnan(lon))
    bad = np.flatnonzero(present & ((np.abs(lat) > 90.0) | (np.abs(lon) > 180.0)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"column {column!r}: coordinate ({float(lat[i])}, {float(lon[i])}) out of range")
    return lat[present], lon[present], present


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
        lat, lon, _ = _points(column, lat_values, lon_values)
        leaves: list[str] = []

        def split(key: str, box, lat: np.ndarray, lon: np.ndarray):
            if len(lat) >= min_tile_count and len(key) < max_depth:
                digit = _quad_digits(box, lat, lon)
                for d in range(4):
                    inside = digit == d
                    split(key + str(d), _quad_child_box(box, d), lat[inside], lon[inside])
            else:
                leaves.append(key)

        split("", _ROOT_BOX, lat, lon)
        return cls(column, sources, leaves)

    @property
    def missing_index(self) -> int:
        return len(self.leaves)

    @property
    def cardinality(self) -> int:
        return len(self.leaves) + 1

    def sub_columns(self) -> list[SubColumn]:
        return [SubColumn(f"{self.column}#tile", self.cardinality, self.column)]

    def _leaf_codes(self, lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
        """Leaf index of each point. The sorted leaf keys are prefix-free, so
        the leaf that holds a point is the last key at or before its path."""
        box, digits = _ROOT_BOX, []
        for _ in range(1 + max(map(len, self.leaves), default=0)):
            digits.append(_quad_digits(box, lat, lon))
            box = _quad_child_box(box, digits[-1])
        paths = _strings(np.array(digits, dtype=np.uint8).T + ord("0"))
        keys = np.array(self.leaves)
        code = np.searchsorted(keys, paths, side="right") - 1
        if (code < 0).any() or not np.char.startswith(paths, keys[code]).all():
            raise RuntimeError("quadtile walk did not reach a leaf")
        return code

    def key_of(self, lat: float, lon: float) -> str:
        return self.leaves[int(self._leaf_codes(np.array([lat]), np.array([lon]))[0])]

    def encode(self, lat_values, lon_values) -> np.ndarray:
        lat, lon, present = _points(self.column, lat_values, lon_values)
        codes = np.full((len(present), 1), self.missing_index, dtype=np.int32)
        codes[present, 0] = self._leaf_codes(lat, lon)
        return codes

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


def _sources(spec: ColumnSpec) -> tuple[str, ...]:
    """The raw columns an encoder reads: a latlong's (lat, lon), else its own."""
    return spec.sources if spec.kind == "latlong" else (spec.name,)


def fit_encoders(raw: RawTable, schema: TableSchema, options: EncodingOptions = EncodingOptions()) -> TableEncoders:
    encoders = []
    for spec in schema.columns:
        cells = [raw.column_values(c) for c in _sources(spec)]
        if spec.kind == "categorical":
            encoders.append(CategoryEncoder.fit(spec.name, *cells))
        elif spec.kind == "numeric" and spec.encoding == "percentile_bins":
            encoders.append(PercentileEncoder.fit(spec.name, *cells, options.n_bins))
        elif spec.kind == "numeric":
            encoders.append(DigitEncoder.fit(spec.name, *cells))
        elif spec.kind == "datetime":
            encoders.append(DatetimeEncoder.fit(spec.name, *cells))
        else:  # latlong, the last kind schema validation lets through
            encoders.append(QuadtileEncoder.fit(spec.name, spec.sources, *cells,
                                                options.quad_min_tile, options.quad_max_depth))
    return TableEncoders(schema, encoders)


def encode_table(raw: RawTable, encoders: TableEncoders) -> EncodedTable:
    blocks = [enc.encode(*(raw.column_values(c) for c in _sources(spec)))
              for spec, enc in zip(encoders.schema.columns, encoders.encoders)]
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
        decoded = enc.decode(codes, u)  # a latlong decodes to (lat, lon) cells
        columns.update(zip(_sources(spec), decoded if spec.kind == "latlong" else [decoded]))
    cells = list(map(list, zip(*(columns[n] for n in out_schema.names))))
    return RawTable(TableSchema(out_schema.columns, encoded.row_count), cells)
