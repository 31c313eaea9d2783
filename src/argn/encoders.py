"""Reversible mixed-type discretization.

Every original column becomes one or more discrete sub-columns:

* categorical  -> one sub-column, dense indices in frequency order
* numeric      -> percentile bins (default) or per-digit sub-columns
* datetime     -> one sub-column per calendar part that varies
* latlong      -> one sub-column of adaptive quadtile keys

All encoders reserve a MISSING slot so the model can generate nulls. The
leading sub-column of a multi-part encoder carries the MISSING category;
sibling sub-columns hold zeros for missing rows. Every encoder states these
facts once, in its constructor: ``sub_columns``, its ``SubColumn``s in order,
and ``missing``, the MISSING code of the first.

Encoders fit on and encode a ``RawTable``: numbers come from its ``values``,
categories from its ``categories`` and digit text from ``column_values``.
Decoding is deterministic given the codes and ``n_draws`` uniforms per row
(one per within-bin numeric value, two per lat/lon point). Every encoder's
``decode(codes, u)`` returns its raw columns as a list (one, or a latlong's
lat and lon), each a ``Column`` or a cell list as ``RawTable`` takes: the
category decoder maps codes straight onto its values, and number decoders
write their values with ``tables.value_column``, which keeps them.

This module is the one place that knows the encodings. Each encoder class
owns its column: it has a column ``kind``, an ``encoding`` name, under which
``ENCODERS`` holds it, and one ``fit(spec, table, options)``. ``ENCODERS`` is
the list of encodings, and its order sets each kind's default: the first
encoding of a kind, which ``tables.ColumnSpec`` takes when a spec names none.
``TableEncoders`` derives its schema from its encoders. Every encoder shares
one saved form, ``Encoder.to_dict``: ``{"type": encoding, **constructor
arguments}``, and ``TableEncoders.from_dict`` calls that constructor.
"""

from __future__ import annotations

import inspect
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .tables import Column, ColumnSpec, RawTable, TableSchema, value_column

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


# ---------------------------------------------------------------------------
# per-column encoders
# ---------------------------------------------------------------------------


class Encoder:
    """What every encoder shares: by default no source columns and no
    uniforms to decode, and the one saved form. Each constructor sets
    ``sub_columns`` and ``missing``."""

    sources = None
    n_draws = 0

    def clamps(self, table: RawTable) -> Optional[str]:
        """Why ``encode`` would not keep the first row's value, a finite one:
        it lies outside what ``fit`` saw and would be clamped to it. None if
        it is kept."""
        return None

    def to_dict(self) -> dict:
        """``{"type": encoding, **constructor arguments}``: each constructor
        parameter, in order, read from the attribute of that name; arrays
        and tuples are written as lists."""
        d = {"type": self.encoding}
        for name in inspect.signature(type(self)).parameters:
            value = getattr(self, name)
            d[name] = np.asarray(value).tolist() if isinstance(value, (np.ndarray, tuple)) else value
        return d


class CategoryEncoder(Encoder):
    """Dense index map in descending frequency order, lexicographic ties.

    MISSING is an ordinary token; on frequency ties it sorts after every
    real value.
    """

    kind, encoding = "categorical", "category_map"

    def __init__(self, column: str, values: list[Optional[str]]):
        """``values[code]`` is the category of each code; ``None`` is MISSING."""
        self.column = column
        self.mapping = {v: i for i, v in enumerate(values)}
        if len(self.mapping) != len(values) or None not in self.mapping:
            raise ValueError(f"column {column!r}: categories are not distinct or lack MISSING")
        if any(v is not None and type(v) is not str for v in values):
            raise ValueError(f"column {column!r}: categories must be texts or null")
        self.values = np.empty(len(values), dtype=object)
        self.values[:] = values
        self.sub_columns = [SubColumn(column, len(values), column)]
        self.missing = self.mapping[None]

    @classmethod
    def fit(cls, spec: ColumnSpec, table: RawTable, options: EncodingOptions) -> "CategoryEncoder":
        vocab, codes = table.categories(spec.name)
        counts = dict(zip(vocab.tolist(), np.bincount(codes, minlength=len(vocab)).tolist()))
        counts.setdefault(None, 0)
        ordered = sorted(counts, key=lambda v: (-counts[v], v is None, v if v is not None else ""))
        return cls(spec.name, ordered)

    def encode(self, table: RawTable) -> np.ndarray:
        """Codes of the column; values outside the vocabulary encode as MISSING."""
        vocab, codes = table.categories(self.column)
        lut = np.array([self.mapping.get(v, self.missing) for v in vocab.tolist()], dtype=np.int32)
        return lut[codes][:, None]

    def decode(self, codes: np.ndarray, u: np.ndarray) -> list[Column]:
        """The column whose codes index the encoder's values."""
        return [Column(self.values, codes[:, 0])]


class PercentileEncoder(Encoder):
    """Quantile bins: half-open [e_j, e_{j+1}) with the last bin closed.

    Out-of-range values clamp to the edge bins; decode draws uniformly
    within the bin so every decoded value re-encodes to the same index.
    """

    kind, encoding = "numeric", "percentile_bins"
    n_draws = 1

    def __init__(self, column: str, edges: np.ndarray):
        """Finite, strictly increasing ``edges``, or two equal ones (a
        constant column), as ``fit`` writes them."""
        edges = np.asarray(edges, dtype=np.float64)
        if (edges.ndim != 1 or len(edges) < 2 or not np.isfinite(edges).all()
                or not ((edges[1:] > edges[:-1]).all() or (len(edges) == 2 and edges[0] == edges[1]))):
            raise ValueError(f"column {column!r}: bin edges must be finite and strictly increasing")
        self.column = column
        self.edges = edges
        self.sub_columns = [SubColumn(column, len(edges), column)]  # the bins, then MISSING
        self.missing = len(edges) - 1

    @classmethod
    def fit(cls, spec: ColumnSpec, table: RawTable, options: EncodingOptions) -> "PercentileEncoder":
        nums = table.values(spec.name, "numeric")
        nums = nums[~np.isnan(nums)]
        if nums.size == 0:
            raise ValueError(f"column {spec.name!r}: no numeric values to fit percentile bins")
        qs = np.quantile(nums, np.arange(options.n_bins + 1) / options.n_bins)
        edges = np.unique(qs)
        if len(edges) == 1:
            edges = np.array([edges[0], edges[0]])
        return cls(spec.name, edges)

    def encode(self, table: RawTable) -> np.ndarray:
        x = table.values(self.column, "numeric")
        k = np.clip(np.searchsorted(self.edges, x, side="right") - 1, 0, self.missing - 1)
        return np.where(np.isnan(x), self.missing, k).astype(np.int32)[:, None]

    def clamps(self, table: RawTable) -> Optional[str]:
        lo, hi = self.edges[0], self.edges[-1]
        if not lo <= table.values(self.column, "numeric")[0] <= hi:
            return f"is outside the fitted range [{lo:g}, {hi:g}]"
        return None

    def decode(self, codes: np.ndarray, u: np.ndarray) -> list[Column]:
        k = codes[:, 0]
        lo_index = np.minimum(k, self.missing - 1)
        lo, hi = self.edges[lo_index], self.edges[lo_index + 1]
        return [value_column(lo + u[:, 0] * (hi - lo), k == self.missing)]


def _magnitudes(decs: Sequence[Decimal], decimals: int) -> list[int]:
    """|d| * 10**decimals of each value, rounded half up."""
    from decimal import ROUND_HALF_UP, Decimal  # imported by the digit encoder only: it slows start-up

    scale = Decimal(10) ** decimals
    return [int((d.copy_abs() * scale).to_integral_value(ROUND_HALF_UP)) for d in decs]


def _strings(chars: np.ndarray) -> np.ndarray:
    """One str per row of a uint8 matrix of ASCII codes."""
    return np.ascontiguousarray(chars).view(f"S{chars.shape[1]}")[:, 0].astype(str)


class DigitEncoder(Encoder):
    """Lossless base-10 split: optional sign, then one sub-column per digit.

    Digits are most-significant first; decimal precision is the maximum
    count of decimal places observed, capped at 6. The leading sub-column
    (sign when negatives exist, else the first digit) carries MISSING.
    """

    kind, encoding = "numeric", "digit_split"

    def __init__(self, column: str, has_sign: bool, n_digits: int, decimals: int):
        if type(has_sign) is not bool:
            raise ValueError(f"column {column!r}: has_sign must be true or false")
        if type(n_digits) is not int or n_digits < 1:
            raise ValueError(f"column {column!r}: n_digits must be an integer >= 1")
        if type(decimals) is not int or not 0 <= decimals <= MAX_DECIMAL_PLACES:
            raise ValueError(f"column {column!r}: decimals must be an integer in [0, {MAX_DECIMAL_PLACES}]")
        self.column = column
        self.has_sign = has_sign
        self.n_digits = n_digits
        self.decimals = decimals
        # the leading sub-column adds MISSING to the sign (+, -) or to the first digit
        self.missing = 2 if has_sign else 10
        names = ["sign"] * has_sign + [f"d{i}" for i in range(n_digits)]
        cards = [self.missing + 1] + [10] * (len(names) - 1)
        self.sub_columns = [SubColumn(f"{column}#{n}", c, column) for n, c in zip(names, cards)]

    @classmethod
    def fit(cls, spec: ColumnSpec, table: RawTable, options: EncodingOptions) -> "DigitEncoder":
        from decimal import Decimal, InvalidOperation

        column = spec.name
        cells, missing = table.column_values(column), np.isnan(table.values(column, "numeric"))
        for v in (v for v, m in zip(cells, missing) if m and v is not None):
            try:
                Decimal(v.strip())
            except InvalidOperation:  # a present, unparseable cell counts as missing
                continue
            # a number, but no finite float: inf, nan or out of range
            raise ValueError(f"column {column!r}: non-finite value {v!r}")
        decs = [Decimal(v.strip()) for v, m in zip(cells, missing) if not m]
        if not decs:
            raise ValueError(f"column {column!r}: no numeric values to fit digit split")
        decimals = min(max(0, -min(d.as_tuple().exponent for d in decs)), MAX_DECIMAL_PLACES)
        n_digits = max(1, len(str(max(_magnitudes(decs, decimals)))))
        has_sign = any(d < 0 for d in decs)
        return cls(column, has_sign, n_digits, decimals)

    def encode(self, table: RawTable) -> np.ndarray:
        from decimal import Decimal

        finite = ~np.isnan(table.values(self.column, "numeric"))
        decs = [Decimal(v.strip()) for v, ok in zip(table.column_values(self.column), finite) if ok]
        cap = 10**self.n_digits - 1
        text = "".join(str(min(m, cap)).zfill(self.n_digits) for m in _magnitudes(decs, self.decimals))
        digits = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
        codes = np.zeros((len(finite), len(self.sub_columns)), dtype=np.int32)
        codes[:, 0] = self.missing
        codes[finite, -self.n_digits :] = digits.reshape(len(decs), self.n_digits)
        if self.has_sign:
            codes[finite, 0] = [d < 0 for d in decs]
        return codes

    def clamps(self, table: RawTable) -> Optional[str]:
        from decimal import Decimal

        d = Decimal(table.column_values(self.column)[0].strip())
        cap = 10**self.n_digits - 1
        if _magnitudes([d], self.decimals)[0] > cap or (d < 0 and not self.has_sign):
            top = Decimal(cap).scaleb(-self.decimals)
            return f"is outside the fitted range [{-top if self.has_sign else 0}, {top}]"
        return None

    def decode(self, codes: np.ndarray, u: np.ndarray) -> list[list[Optional[str]]]:
        """Text from the digit codes: the whole part without leading zeros,
        then the fraction, if any is left, without trailing zeros."""
        digits = codes[:, -self.n_digits :]
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
        missing = (codes[:, 0] == self.missing).tolist()
        return [[None if m else t for m, t in zip(missing, text.tolist())]]


_PART_ORDER = ("year", "month", "day", "hour", "minute", "second")
# (first value, number of values) of each part; the years are those that
# datetime64 texts and parse_datetime share, and an encoder's year part spans
# year_min..year_max
_PART_SPAN = {"year": (1, 9999), "month": (1, 12), "day": (1, 31),
              "hour": (0, 24), "minute": (0, 60), "second": (0, 60)}


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


class DatetimeEncoder(Encoder):
    """Calendar decomposition; constant parts are dropped and restored on decode.

    Parts are UTC parts (``tables.parse_column``'s datetime rule). Year is
    encoded over its observed range, the other parts over their full domain.
    Impossible day/month combinations clamp to the month's length.
    """

    kind, encoding = "datetime", "datetime_parts"

    def __init__(self, column: str, parts: list[str], constants: dict[str, int],
                 year_min: int, year_max: int, has_time: bool):
        if sorted([*parts, *constants]) != sorted(_PART_ORDER):
            raise ValueError(f"column {column!r}: parts and constants are not the six calendar parts")
        if type(year_min) is not int or type(year_max) is not int or not 1 <= year_min <= year_max <= 9999:
            raise ValueError(f"column {column!r}: year_min and year_max must be integers, "
                             "1 <= year_min <= year_max <= 9999")
        if type(has_time) is not bool:
            raise ValueError(f"column {column!r}: has_time must be true or false")
        self.column = column
        self.parts = list(parts)
        self.constants = dict(constants)
        self.year_min = year_min
        self.year_max = year_max
        self.has_time = has_time
        for p, c in self.constants.items():
            first, count = _PART_SPAN[p]
            if type(c) is not int or not first <= c < first + count:
                raise ValueError(f"column {column!r}: constant {p} {c!r} is not in [{first}, {first + count - 1}]")
        # MISSING on the leading part
        self.sub_columns = [SubColumn(f"{column}#{p}", self._span(p)[1] + (i == 0), column)
                            for i, p in enumerate(self.parts)]
        self.missing = self._span(self.parts[0])[1]

    @classmethod
    def fit(cls, spec: ColumnSpec, table: RawTable, options: EncodingOptions) -> "DatetimeEncoder":
        seconds = table.values(spec.name, "datetime")
        seconds = seconds[~np.isnan(seconds)]
        if seconds.size == 0:
            raise ValueError(f"column {spec.name!r}: no parseable datetimes")
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
        return cls(spec.name, parts, constants, int(years.min()), int(years.max()), has_time)

    def _span(self, part: str) -> tuple[int, int]:
        if part == "year":
            return self.year_min, self.year_max - self.year_min + 1
        return _PART_SPAN[part]

    def encode(self, table: RawTable) -> np.ndarray:
        seconds = table.values(self.column, "datetime")
        present = ~np.isnan(seconds)
        fields = _calendar_parts(seconds[present])
        codes = np.zeros((len(seconds), len(self.parts)), dtype=np.int32)
        codes[:, 0] = self.missing
        for j, p in enumerate(self.parts):
            first, count = self._span(p)
            codes[present, j] = np.clip(fields[p] - first, 0, count - 1)  # clamps the year
        return codes

    def clamps(self, table: RawTable) -> Optional[str]:
        fields = _calendar_parts(table.values(self.column, "datetime")[:1])
        year = int(fields["year"][0])
        if not self.year_min <= year <= self.year_max:
            return f"has year {year}, outside the fitted years [{self.year_min}, {self.year_max}]"
        for p, c in self.constants.items():
            if fields[p][0] != c:
                return f"has {p} {int(fields[p][0])}, but every fitted value has {p} {c}"
        return None

    def decode(self, codes: np.ndarray, u: np.ndarray) -> list[list[Optional[str]]]:
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
        missing = (codes[:, 0] == self.missing).tolist()
        return [[None if m else t.replace("T", " ") for m, t in zip(missing, text.tolist())]]


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


def _points(column: str, table: RawTable, sources: tuple[str, str]):
    """(lat, lon) of the rows where both source cells parse, and the mask of those rows."""
    lat, lon = (table.values(src, "numeric") for src in sources)
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


class QuadtileEncoder(Encoder):
    """Adaptive quadtree over plain lat/lon; leaves form the category set.

    Digit convention by box midpoint: 0=NW, 1=NE, 2=SW, 3=SE. A tile splits
    while it holds at least ``quad_min_tile`` points and is above
    ``quad_max_depth`` (``EncodingOptions``); when it splits, all four
    children exist so the leaves partition the bounding box.
    """

    kind, encoding = "latlong", "quadtile"
    n_draws = 2

    def __init__(self, column: str, sources: tuple[str, str], leaves: list[str]):
        self.column = column
        self.sources = tuple(sources)
        self.leaves = sorted(leaves)
        # the leaves tile the globe: quadrant-digit keys, none a prefix of
        # another (in sorted order, a key's first extension follows it), that
        # cover the root tile exactly
        depth = max(map(len, self.leaves), default=0)
        if (any(k.strip("0123") for k in self.leaves)
                or any(b.startswith(a) for a, b in zip(self.leaves, self.leaves[1:]))
                or sum(4 ** (depth - len(k)) for k in self.leaves) != 4**depth):
            raise ValueError(f"column {column!r}: leaves {self.leaves} do not tile the globe")
        # (lat_lo, lat_hi, lon_lo, lon_hi) per leaf, plus a dummy MISSING row
        self.boxes = np.array([quadkey_box(k) for k in self.leaves] + [_ROOT_BOX])
        self.sub_columns = [SubColumn(f"{column}#tile", len(self.leaves) + 1, column)]
        self.missing = len(self.leaves)

    @classmethod
    def fit(cls, spec: ColumnSpec, table: RawTable, options: EncodingOptions) -> "QuadtileEncoder":
        lat, lon, _ = _points(spec.name, table, spec.sources)
        leaves: list[str] = []

        def split(key: str, box, lat: np.ndarray, lon: np.ndarray):
            if len(lat) >= options.quad_min_tile and len(key) < options.quad_max_depth:
                digit = _quad_digits(box, lat, lon)
                for d in range(4):
                    inside = digit == d
                    split(key + str(d), _quad_child_box(box, d), lat[inside], lon[inside])
            else:
                leaves.append(key)

        split("", _ROOT_BOX, lat, lon)
        return cls(spec.name, spec.sources, leaves)

    def _leaf_codes(self, lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
        """Leaf index of each point. The sorted leaf keys tile the globe, so
        the leaf that holds a point is the last key at or before its path."""
        box, digits = _ROOT_BOX, []
        for _ in range(1 + max(map(len, self.leaves))):
            digits.append(_quad_digits(box, lat, lon))
            box = _quad_child_box(box, digits[-1])
        paths = _strings(np.array(digits, dtype=np.uint8).T + ord("0"))
        return np.searchsorted(np.array(self.leaves), paths, side="right") - 1

    def encode(self, table: RawTable) -> np.ndarray:
        lat, lon, present = _points(self.column, table, self.sources)
        codes = np.full((len(present), 1), self.missing, dtype=np.int32)
        codes[present, 0] = self._leaf_codes(lat, lon)
        return codes

    def decode(self, codes: np.ndarray, u: np.ndarray) -> list[Column]:
        """The lat and lon columns."""
        box, missing = self.boxes[codes[:, 0]], codes[:, 0] == self.missing
        return [value_column(box[:, 0] + u[:, 0] * (box[:, 1] - box[:, 0]), missing),
                value_column(box[:, 2] + u[:, 1] * (box[:, 3] - box[:, 2]), missing)]


# ---------------------------------------------------------------------------
# table-level fit / encode / decode
# ---------------------------------------------------------------------------

ENCODERS = {cls.encoding: cls for cls in
            (CategoryEncoder, PercentileEncoder, DigitEncoder, DatetimeEncoder, QuadtileEncoder)}


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
    """Ordered per-column encoders, plus the schema and sub-columns they define."""

    def __init__(self, encoders: list):
        self.encoders = encoders
        self.schema = TableSchema(tuple(ColumnSpec(e.column, e.kind, e.encoding, e.sources)
                                        for e in encoders))
        self.sub_columns = [sc for enc in encoders for sc in enc.sub_columns]

    @property
    def n_draws(self) -> int:
        """Uniforms per row that decode_table hands to the decoders."""
        return sum(enc.n_draws for enc in self.encoders)

    def encoder_for(self, column: str):
        for enc in self.encoders:
            if enc.column == column:
                return enc
        raise ValueError(f"unknown column {column!r}")

    def sub_indices_of(self, column: str) -> list[int]:
        return [i for i, s in enumerate(self.sub_columns) if s.parent == column]

    def to_dict(self) -> dict:
        return {"encoders": [e.to_dict() for e in self.encoders]}

    @classmethod
    def from_dict(cls, d: dict) -> "TableEncoders":
        """Inverse of ``to_dict``. Each entry is rebuilt as ``ENCODERS[type](**rest)``
        and ``d`` as this constructor's arguments, so a missing or an unknown
        key fails the call."""
        encoders = []
        for entry in d["encoders"]:
            rest = {**entry}
            encoders.append(ENCODERS[rest.pop("type")](**rest))
        return cls(**{**d, "encoders": encoders})


def fit_encoders(raw: RawTable, schema: TableSchema, options: EncodingOptions = EncodingOptions()) -> TableEncoders:
    """One encoder per schema column, of its encoding, fitted on the raw
    table's cells and values; a latlong column reads its (lat, lon) source
    columns."""
    return TableEncoders([ENCODERS[spec.encoding].fit(spec, raw, options) for spec in schema.columns])


def encode_table(raw: RawTable, encoders: TableEncoders) -> EncodedTable:
    blocks = [enc.encode(raw) for enc in encoders.encoders]
    data = np.hstack(blocks) if blocks else np.zeros((raw.row_count, 0), dtype=np.int32)
    return EncodedTable(encoders.sub_columns, data)


def decode_table(encoded: EncodedTable, encoders: TableEncoders, uniforms: np.ndarray) -> RawTable:
    """``uniforms`` holds ``encoders.n_draws`` values in [0, 1) per row; each
    decoder reads its own columns of it, in encoder order. The table has the
    raw columns of the schema (``TableSchema.raw_schema``), each encoder's
    ``decode`` in turn."""
    columns, offset, draw = [], 0, 0
    for enc in encoders.encoders:
        codes = encoded.data[:, offset : offset + len(enc.sub_columns)]
        columns.extend(enc.decode(codes, uniforms[:, draw : draw + enc.n_draws]))
        offset += len(enc.sub_columns)
        draw += enc.n_draws
    return RawTable(encoders.schema.raw_schema(), columns)
