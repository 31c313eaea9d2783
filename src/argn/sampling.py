"""Sequential feature-by-feature generation and decoding.

Rows are independent: every uniform a row consumes is a function of
(seed, domain, row index, draw index) alone, so changing the row count never
reshuffles earlier rows and generating n rows equals generating them one at
a time or in blocks. Conditioned sub-columns are injected without consuming
randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .encoders import EncodedTable, decode_table
from .model import ArgnModel, order_layout
from .tables import RawTable, TableSchema, concat

_ROW_DOMAIN = 0
_DECODE_DOMAIN = 1
BLOCK_ROWS = 2048  # rows sampled, decoded and written at a time; bounds generate's memory
_M32 = 0xFFFFFFFF
_PCG64_MULT = (0x2360ED051FC65DA4, 0x4385DF649FCCF645)  # (high, low) 64-bit halves


@dataclass
class GenerationRequest:
    n_rows: int
    order: Optional[Sequence[int]] = None  # sub-column indices; None = canonical
    conditions: dict = field(default_factory=dict)  # parent name -> raw value, or sub index -> code
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.n_rows <= 2**32:
            raise ValueError("n_rows must be in [0, 2**32]")
        if not (np.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError("temperature must be finite and > 0")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be in [0, 2**64)")


def _stream_seeds(seed: int, domain: int, rows: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(seed, spawn_key=(domain, row)).generate_state(8)`` for all
    rows at once (seed < 2**128): numpy mixes (seed, domain) into the pool, the
    row word is mixed in here with numpy's hashmix and mix (bit_generator.pyx)."""
    pool = list(np.random.SeedSequence(seed, spawn_key=(domain,)).pool[:, None])
    # hashmix constant after the 4 + 12 + 4 hashmixes that mixed in (seed, domain)
    hc = 0x43B0D7E5 * pow(0x931E8875, 20, 2**32) & _M32
    for dst in range(4):
        value = rows ^ hc
        hc = hc * 0x931E8875 & _M32
        value *= hc
        value = (value ^ value >> 16) * 0x4973F715
        mixed = pool[dst] * 0xCA01F9DD - value
        pool[dst] = mixed ^ mixed >> 16
    hc, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hc
        hc = hc * 0x58F38DED & _M32
        value *= hc
        words.append((value ^ value >> 16).astype(np.uint64))
    return words


def _add128(a_hi, a_lo, b_hi, b_lo):
    """a + b mod 2**128 on uint64 (high, low) halves."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, state * multiplier + inc mod 2**128, on uint64 halves."""
    m_hi, m_lo = _PCG64_MULT
    a1, a0, b1, b0 = lo >> 32, lo & _M32, m_lo >> 32, m_lo & _M32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)  # high half of lo * m_lo
    return _add128(carry + lo * m_hi + hi * m_lo, lo * m_lo, inc_hi, inc_lo)


def _row_rng(seed: int, rows: Sequence[int], n_draws: int, domain: int = _ROW_DOMAIN) -> np.ndarray:
    """Uniforms in [0, 1) of shape (len(rows), n_draws).

    Row r's draws are the first ``n_draws`` of
    ``Generator(PCG64(SeedSequence(seed, spawn_key=(domain, r)))).random()``,
    computed for all rows at once, so they depend on (seed, domain, r, draw
    index) alone and never on which other rows are asked for.
    """
    rows = np.asarray(rows, dtype=np.uint32)
    w = _stream_seeds(seed, domain, rows)
    seed_hi, seed_lo, seq_hi, seq_lo = (w[i] | w[i + 1] << 32 for i in range(0, 8, 2))
    inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
    state = _pcg64_step(*_add128(*inc, seed_hi, seed_lo), *inc)  # pcg64_set_seed
    out = np.empty((len(rows), n_draws))
    for j in range(n_draws):
        state = _pcg64_step(*state, *inc)
        x, rot = state[0] ^ state[1], state[0] >> 58  # XSL-RR output
        out[:, j] = ((x >> rot | x << (64 - rot & 63)) >> 11) * 2.0**-53
    return out


def _resolve_conditions(model: ArgnModel, conditions: dict) -> dict[int, int]:
    """Normalize conditions to {sub-column index: category code}.

    String keys are parent columns whose raw value is pushed through the
    fitted encoder (fixing every sub-column of that parent); the empty string
    conditions on missing, and any other value must not encode as MISSING
    (it is in the vocabulary or parses to a finite number or datetime) nor
    be clamped by the encoder into its fitted range. Int keys fix a single
    sub-column directly.
    """
    fixed: dict[int, int] = {}
    for key, value in conditions.items():
        if isinstance(key, str):
            enc = model.encoders.encoder_for(key)
            if enc.kind == "latlong":
                raise ValueError(f"column {key!r}: conditioning on latlong columns is not supported")
            cell = None if value == "" else str(value)
            table = RawTable(TableSchema((model.encoders.schema.column(key),)), [[cell]])
            codes = enc.encode(table)[0]
            if cell is not None:
                if codes[0] == enc.missing:
                    problem = "not in vocabulary" if enc.kind == "categorical" else f"is not a finite {enc.kind} value"
                else:
                    problem = enc.clamps(table)
                if problem:
                    raise ValueError(f"column {key!r}: value {cell!r} {problem}")
            for i, code in zip(model.encoders.sub_indices_of(key), codes):
                fixed[i] = int(code)
        else:
            i = int(key)
            if not 0 <= i < model.d_total:
                raise ValueError(f"sub-column index {i} out of range")
            fixed[i] = int(value)
    for i, code in fixed.items():
        card = model.sub_columns[i].cardinality
        if not 0 <= code < card:
            raise ValueError(
                f"column {model.sub_columns[i].name!r}: condition code {code} out of range"
            )
    return fixed


def _effective_order(model: ArgnModel, requested: Optional[Sequence[int]],
                     fixed: dict[int, int]) -> tuple[int, ...]:
    d = model.d_total
    order = tuple(requested) if requested is not None else tuple(range(d))
    if sorted(order) != list(range(d)):
        raise ValueError("order must be a permutation of all sub-columns")
    conditioned = sorted(fixed)
    free = [i for i in order if i not in fixed]
    effective = tuple(conditioned + free)
    if effective != tuple(range(d)) and model.training_meta["train_config"]["order_mode"] == "fixed":
        raise ValueError(
            "model was trained with a fixed order; requested order (after moving "
            "conditioned sub-columns first) differs"
        )
    return effective


def _inverse_cdf(logits: np.ndarray, u: np.ndarray, temperature: float) -> np.ndarray:
    """One code per row of (rows, classes) ``logits``, drawn by inverse CDF
    with that row's uniform in ``u``: the number of classes whose cumulative
    weight is at most u times the row's total.

    The weights exp((logit - row max) / temperature) are unnormalized and
    summed in float64, so a zero-probability code is never drawn. The max is
    subtracted before the division, and only the entries below it are
    divided: the max keeps weight 1 and an entry that overflows to -inf gets
    weight 0, so a near-zero temperature draws the argmax. The work runs on
    the (classes, rows) transpose, one vector add per class, which for the
    transpose view ``column_logits`` returns reads whole rows of its block.
    """
    by_class = logits.T
    weights = np.subtract(by_class, by_class.max(axis=0), order="C")
    with np.errstate(over="ignore", divide="ignore"):
        np.divide(weights, temperature, out=weights, where=weights < 0)
    np.exp(weights, out=weights)
    total = np.zeros(weights.shape[1])
    for row in weights:
        total += row
    u = u * total
    cum = np.zeros_like(total)
    codes = np.zeros(weights.shape[1], dtype=np.int32)
    for row in weights:
        cum += row
        codes += cum <= u
    return codes


def _sample_codes(model: ArgnModel, row_indices: Sequence[int], order: Sequence[int],
                  fixed_codes: dict[int, int], temperature: float, seed: int) -> np.ndarray:
    """Inner sampling loop of generate(). ``fixed_codes`` maps a sub-column
    index to the code injected in every row instead of drawn."""
    n = len(row_indices)
    d = model.d_total
    out = np.zeros((n, d), dtype=np.int32)
    if n == 0:
        return out
    uniforms = _row_rng(seed, row_indices, sum(i not in fixed_codes for i in order))

    # the embeddings laid out in ``order``, as training lays them out: each
    # sub-column's context is the prefix of the slots drawn before it
    starts, prefixes = order_layout(model, order)
    ctx = np.empty((n, model.sizes.context_width), dtype=model.store.value.dtype)
    u_col = 0
    for t, i in enumerate(order):
        if i in fixed_codes:
            codes = np.full(n, fixed_codes[i], dtype=np.int32)
        else:
            logits, _ = model.column_logits(ctx[:, : starts[t]], i, cols=prefixes[t])
            codes = _inverse_cdf(logits, uniforms[:, u_col], temperature)
            u_col += 1
        out[:, i] = codes
        ctx[:, starts[t] : starts[t + 1]] = model.params[f"E{i}"].value[codes]
    return out


def generate(model: ArgnModel, req: GenerationRequest, rows: Optional[range] = None) -> EncodedTable:
    """Sample complete encoded rows feature-by-feature.

    Conditioned sub-columns are moved to the front of the order and their
    codes injected; everything else is drawn from the temperature-scaled
    conditional distribution. ``rows`` selects part of ``range(req.n_rows)``.
    """
    if not model.training_meta:
        raise ValueError("model is not trained")
    fixed = _resolve_conditions(model, req.conditions)
    order = _effective_order(model, req.order, fixed)
    rows = range(req.n_rows) if rows is None else rows
    codes = _sample_codes(model, rows, order, fixed, req.temperature, req.seed)
    return EncodedTable(model.sub_columns, codes)


def synthesize_blocks(model: ArgnModel, req: GenerationRequest) -> Iterator[RawTable]:
    """generate() and decode, BLOCK_ROWS rows at a time (one empty block for
    zero rows). A decoded cell depends only on (seed, row, its codes)."""
    for start in range(0, max(req.n_rows, 1), BLOCK_ROWS):
        rows = range(start, min(start + BLOCK_ROWS, req.n_rows))
        uniforms = _row_rng(req.seed, rows, model.encoders.n_draws, _DECODE_DOMAIN)
        yield decode_table(generate(model, req, rows), model.encoders, uniforms)


def synthesize(model: ArgnModel, req: GenerationRequest) -> RawTable:
    """generate() then decode back to the original column format."""
    return concat(list(synthesize_blocks(model, req)))
