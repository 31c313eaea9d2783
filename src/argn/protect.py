"""Pre-encoding privacy transforms: rare-category and extreme-value protection.

Both transforms run on the raw cells before any encoder is fitted, so the
protected values are all the downstream model ever sees. Thresholds are
either fixed (default 8, chosen for reproducibility) or drawn uniformly from
[5, 8] per column.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .tables import Column, RawTable, TableSchema

RARE_TOKEN = "_RARE_"
RANDOM_THRESHOLDS = ("random",)
_RANDOM_LO, _RANDOM_HI = 5, 8


@dataclass
class ValueProtectionConfig:
    enabled: bool = True
    rare_min_count: Union[int, str] = 8
    extreme_k: Union[int, str] = 8
    rare_mode: str = "token"  # token | resample
    rng_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.enabled, bool):  # the string "false" would turn protection on
            raise TypeError("enabled must be true or false")
        for name in ("rare_min_count", "extreme_k"):
            v = getattr(self, name)
            if isinstance(v, str):
                if v not in RANDOM_THRESHOLDS:
                    raise ValueError(f"{name} must be an int or one of {RANDOM_THRESHOLDS}")
            elif operator.index(v) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.rare_mode not in ("token", "resample"):
            raise ValueError("rare_mode must be 'token' or 'resample'")
        if operator.index(self.rng_seed) < 0:
            raise ValueError("rng_seed must be >= 0")


def _threshold(setting: Union[int, str], rng: np.random.Generator) -> int:
    if isinstance(setting, str):
        return int(rng.integers(_RANDOM_LO, _RANDOM_HI + 1))
    return int(setting)


def protect_rare_categories(
    raw: RawTable,
    name: str,
    cfg: ValueProtectionConfig,
    rng: Optional[np.random.Generator] = None,
) -> Column:
    """The column with its categories rarer than the threshold replaced.

    token mode substitutes the literal `_RARE_` placeholder; resample mode
    draws a replacement from the empirical distribution of the surviving
    categories (falling back to the token when nothing survives). Missing
    cells are untouched, and without rare categories the table's own column
    comes back.
    """
    rng = rng if rng is not None else np.random.default_rng(cfg.rng_seed)
    t = _threshold(cfg.rare_min_count, rng)
    vocab, codes = raw.categories(name)
    counts = np.bincount(codes, minlength=len(vocab))
    present = np.array([v is not None for v in vocab.tolist()], dtype=bool)
    rare = present & (counts < t)
    if not rare.any():
        return raw.column(name)
    at, codes = np.flatnonzero(rare[codes]), codes.copy()
    donors = present & ~rare  # in sorted order, as the vocabulary is
    if cfg.rare_mode == "resample" and donors.any():  # without donors, resample degrades to the token
        weights = counts[donors] / counts[donors].sum()
        codes[at] = np.flatnonzero(donors)[rng.choice(np.count_nonzero(donors), size=len(at), p=weights)]
    else:
        codes[at] = len(vocab)  # the token, appended to the vocabulary
    return Column(np.append(vocab, RARE_TOKEN), codes)


def protect_extreme_values(
    raw: RawTable,
    name: str,
    cfg: ValueProtectionConfig,
    rng: Optional[np.random.Generator] = None,
    kind: str = "numeric",
) -> Column:
    """The column with its ``kind`` values beyond its k-th largest/smallest
    *distinct* value clipped to that value.

    A clipped cell takes the text of the clip value (its smallest, when
    several texts parse to it), so formatting is preserved; the column keeps
    the parses of its texts. Columns with fewer than 2k distinct values come
    back unchanged: the table's own column.
    """
    rng = rng if rng is not None else np.random.default_rng(cfg.rng_seed)
    k = _threshold(cfg.extreme_k, rng)
    column = raw.column(name)
    used = np.bincount(column.codes, minlength=len(column.texts)) > 0
    x = np.where(used, column.parse(kind), np.nan)  # one value per vocabulary entry
    distinct = np.unique(x[~np.isnan(x)])
    if len(distinct) < 2 * k:
        return column
    to = np.arange(len(x))
    for beyond, bound in ((x < distinct[k - 1], distinct[k - 1]), (x > distinct[-k], distinct[-k])):
        # the smallest text of a distinct value is its deterministic representative
        to[beyond] = min(np.flatnonzero(x == bound), key=column.texts.__getitem__)
    return Column(column.texts, to[column.codes], column.parsed)


def protect_table(raw: RawTable, schema: TableSchema, cfg: ValueProtectionConfig) -> RawTable:
    """Apply per-kind protection to every applicable column of a table; the
    columns it leaves unchanged are the input's, with their parses and
    categories, and a clipped column keeps the parses of its texts."""
    if not cfg.enabled:
        return raw
    rng = np.random.default_rng(cfg.rng_seed)
    columns = {name: raw.column(name) for name in raw.column_names}
    for spec in schema.columns:
        if spec.kind == "categorical":
            columns[spec.name] = protect_rare_categories(raw, spec.name, cfg, rng)
        elif spec.kind in ("numeric", "datetime"):
            columns[spec.name] = protect_extreme_values(raw, spec.name, cfg, rng, spec.kind)
        # latlong columns pass through: quadtile density adaptation is the guard there
    return RawTable(raw.schema, list(columns.values()))
