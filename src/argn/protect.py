"""Pre-encoding privacy transforms: rare-category and extreme-value protection.

Both transforms run on the raw string cells before any encoder is fitted, so
the protected values are all the downstream model ever sees. Thresholds are
either fixed (default 8, chosen for reproducibility) or drawn uniformly from
[5, 8] per column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .tables import RawTable, TableSchema, parse_column

RARE_TOKEN = "_RARE_"
RANDOM_THRESHOLDS = ("random", "random(5,8)")
_RANDOM_LO, _RANDOM_HI = 5, 8


@dataclass
class ValueProtectionConfig:
    enabled: bool = True
    rare_min_count: Union[int, str] = 8
    extreme_k: Union[int, str] = 8
    rare_mode: str = "token"  # token | resample
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("rare_min_count", "extreme_k"):
            v = getattr(self, name)
            if isinstance(v, str):
                if v not in RANDOM_THRESHOLDS:
                    raise ValueError(f"{name} must be an int or one of {RANDOM_THRESHOLDS}")
            elif int(v) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.rare_mode not in ("token", "resample"):
            raise ValueError("rare_mode must be 'token' or 'resample'")


def _threshold(setting: Union[int, str], rng: np.random.Generator) -> int:
    if isinstance(setting, str):
        return int(rng.integers(_RANDOM_LO, _RANDOM_HI + 1))
    return int(setting)


def protect_rare_categories(
    values: Sequence[Optional[str]],
    cfg: ValueProtectionConfig,
    rng: Optional[np.random.Generator] = None,
) -> list[Optional[str]]:
    """Replace categories rarer than the threshold.

    token mode substitutes the literal `_RARE_` placeholder; resample mode
    draws a replacement from the empirical distribution of the surviving
    categories (falling back to the token when nothing survives). Missing
    cells are untouched.
    """
    rng = rng if rng is not None else np.random.default_rng(cfg.rng_seed)
    t = _threshold(cfg.rare_min_count, rng)
    counts: dict[str, int] = {}
    for v in values:
        if v is not None:
            counts[v] = counts.get(v, 0) + 1
    rare = {v for v, c in counts.items() if c < t}
    if not rare:
        return list(values)

    if cfg.rare_mode == "resample":
        donors = sorted(v for v in counts if v not in rare)
        if donors:
            weights = np.array([counts[v] for v in donors], dtype=np.float64)
            weights /= weights.sum()
            out: list[Optional[str]] = []
            for v in values:
                if v is not None and v in rare:
                    out.append(donors[int(rng.choice(len(donors), p=weights))])
                else:
                    out.append(v)
            return out
        # no non-rare category to draw from - degrade to the token

    return [RARE_TOKEN if (v is not None and v in rare) else v for v in values]


def protect_extreme_values(
    values: Sequence[Optional[str]],
    cfg: ValueProtectionConfig,
    rng: Optional[np.random.Generator] = None,
    kind: str = "numeric",
) -> list[Optional[str]]:
    """Clip values beyond the k-th largest/smallest *distinct* value.

    Replacements reuse the clip value's original cell text, so formatting is
    preserved. Columns with fewer than 2k distinct values come back
    unchanged.
    """
    rng = rng if rng is not None else np.random.default_rng(cfg.rng_seed)
    k = _threshold(cfg.extreme_k, rng)
    x = parse_column(values, kind)
    distinct = np.unique(x[~np.isnan(x)])
    if len(distinct) < 2 * k:
        return list(values)

    lo, hi = distinct[k - 1], distinct[-k]
    out = np.array(values, dtype=object)
    # the smallest text of a distinct value is its deterministic representative
    out[x < lo] = min(out[x == lo])
    out[x > hi] = min(out[x == hi])
    return out.tolist()


def protect_table(raw: RawTable, schema: TableSchema, cfg: ValueProtectionConfig) -> RawTable:
    """Apply per-kind protection to every applicable column of a table."""
    if not cfg.enabled:
        return raw
    rng = np.random.default_rng(cfg.rng_seed)
    columns = dict(zip(raw.column_names, raw.columns))
    for spec in schema.columns:
        if spec.kind == "categorical":
            columns[spec.name] = protect_rare_categories(columns[spec.name], cfg, rng)
        elif spec.kind in ("numeric", "datetime"):
            columns[spec.name] = protect_extreme_values(columns[spec.name], cfg, rng, spec.kind)
        # latlong columns pass through: quadtile density adaptation is the guard there
    return RawTable(raw.schema, list(columns.values()))
