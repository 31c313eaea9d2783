"""Command-line surface: train / generate / evaluate / dcr / audit.

All run configuration lives in a strict JSON document; unknown keys fail
fast with the offending key name. Every subcommand that takes --seed is
end-to-end reproducible: identical invocations write identical bytes.

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import sys
from dataclasses import asdict, fields, replace
from typing import Callable, Optional

from .audit import AuditConfig, TargetIndexError, argn_generator, run_audit
from .encoders import EncodingOptions, encode_table, fit_encoders
from .metrics import dcr, dcr_cdf_curves, dcr_curves_integral, evaluate_tables
from .model import ArgnModel, TrainConfig, train
from .nn import DpConfig
from .persist import load_model, save_model
from .protect import ValueProtectionConfig, protect_table
from .sampling import GenerationRequest, generate, synthesize_blocks
from .tables import (ColumnSpec, OverrideError, RawTable, TableSchema, infer_schema, read_csv, value_column,
                     write_csv)


class UsageError(Exception):
    pass


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_TOP_KEYS = {"data", "overrides", "value_protection", "train", "dp", "encoding", "audit"}

def _check_keys(block: dict, allowed, context: str) -> None:
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {context}")


def _dataclass_from(block: dict, cls, context: str, **extra):
    allowed = {f.name for f in fields(cls)} - set(extra)
    _check_keys(block, allowed, context)
    try:
        return cls(**block, **extra)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {context} config: {exc}") from None


def load_run_config(path: Optional[str]) -> dict:
    raw = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    _check_keys(raw, _TOP_KEYS, "config")

    overrides = {}
    for name, block in raw.get("overrides", {}).items():
        overrides[name] = _dataclass_from(block, ColumnSpec, f"overrides[{name!r}]", name=name)

    vp = _dataclass_from(raw.get("value_protection", {}), ValueProtectionConfig, "value_protection")
    dp = _dataclass_from(raw.get("dp", {}), DpConfig, "dp")
    train_cfg = _dataclass_from(raw.get("train", {}), TrainConfig, "train", dp=dp)
    enc = _dataclass_from(raw.get("encoding", {}), EncodingOptions, "encoding")

    audit_block = dict(raw.get("audit", {}))
    if "attacks" in audit_block:
        audit_block["attacks"] = tuple(audit_block["attacks"])
    audit_cfg = _dataclass_from(audit_block, AuditConfig, "audit")

    return {
        "data": raw.get("data"),
        "overrides": overrides,
        "value_protection": vp,
        "train": train_cfg,
        "encoding": enc,
        "audit": audit_cfg,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    table = read_csv(args.data)
    schema = infer_schema(table, cfg["overrides"])
    protected = protect_table(table, schema, cfg["value_protection"])
    encoders = fit_encoders(protected, schema, cfg["encoding"])
    encoded = encode_table(protected, encoders)

    train_cfg: TrainConfig = cfg["train"]
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed)
    model = ArgnModel(encoders)
    history = train(model, encoded, train_cfg)
    save_model(model, args.out)
    print(
        f"trained {model.d_total} sub-columns on {encoded.row_count} rows: "
        f"best epoch {history['best_epoch']}/{history['epochs_run']}, "
        f"val loss {model.training_meta['best_val_loss']:.4f} -> {args.out}"
    )
    return 0


def _parse_conditions(pairs) -> dict:
    conditions = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"--condition expects col=value, got {pair!r}")
        key, value = pair.split("=", 1)
        conditions[key] = value
    return conditions


def _expand_order(model, column_list: Optional[str]):
    """Translate a comma-separated parent-column list into a full sub-column
    order; unlisted parents follow in canonical order."""
    if not column_list:
        return None
    names = model.encoders.schema.names
    listed = [c.strip() for c in column_list.split(",") if c.strip()]
    for k, p in enumerate(listed):
        if p not in names:
            raise UsageError(f"--order names unknown column {p!r}")
        if p in listed[:k]:
            raise UsageError(f"--order names column {p!r} twice")
    return [i for p in listed + [p for p in names if p not in listed]
            for i in model.encoders.sub_indices_of(p)]


def _cmd_generate(args) -> int:
    model = load_model(args.model)
    order = _expand_order(model, args.order)
    conditions = _parse_conditions(args.condition)
    try:
        req = GenerationRequest(n_rows=args.n, order=order, conditions=conditions,
                                temperature=args.temperature, seed=args.seed)
        generate(model, req, range(0))  # a request the model cannot serve is a usage error
    except ValueError as exc:
        raise UsageError(f"generate: {exc}") from None
    write_csv(synthesize_blocks(model, req), args.out)
    print(f"wrote {req.n_rows} synthetic rows -> {args.out}")
    return 0


def _with_schema_of(reference_schema: TableSchema, table: RawTable, label: str) -> RawTable:
    if table.column_names != reference_schema.names:
        raise ValueError(f"{label}: columns do not match the real table")
    return table.retyped(reference_schema)


def _cmd_evaluate(args) -> int:
    real_raw = read_csv(args.real)
    schema = infer_schema(real_raw)
    if args.target is not None and args.target not in schema.names:
        raise UsageError(f"evaluate: --target names unknown column {args.target!r}")
    real = _with_schema_of(schema, real_raw, args.real)
    syn = _with_schema_of(schema, read_csv(args.syn), args.syn)
    holdout = _with_schema_of(schema, read_csv(args.holdout), args.holdout) if args.holdout else None
    payload = evaluate_tables(real, syn, holdout=holdout, target=args.target, seed=args.seed)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"jsd_mean={payload['jsd']['mean']} wd_mean={payload['wasserstein']['mean']} "
        f"association_l2={payload['association_l2']:.4f} detection_auc={payload['detection_auc']:.4f}"
    )
    return 0


CDF_ROWS = 4096  # rows of the DCR CDF file formatted and written at a time


def _cmd_dcr(args) -> int:
    train_raw = read_csv(args.train)
    schema = infer_schema(train_raw)
    train_tbl = _with_schema_of(schema, train_raw, args.train)
    syn = _with_schema_of(schema, read_csv(args.syn), args.syn)
    test = _with_schema_of(schema, read_csv(args.test), args.test)
    grid, cdf_syn, cdf_test = curves = dcr_cdf_curves(dcr(train_tbl, syn), dcr(train_tbl, test))
    integral = dcr_curves_integral(*curves)
    with open(args.out_cdf, "w", encoding="utf-8") as fh:
        fh.write("distance,cdf_syn,cdf_test\n")
        for s in range(0, grid.size, CDF_ROWS):
            part = slice(s, s + CDF_ROWS)
            rows = zip(map(repr, grid[part].tolist()), value_column(cdf_syn[part]).cells,
                       value_column(cdf_test[part]).cells)
            fh.write("".join(f"{g},{a},{b}\n" for g, a, b in rows))
    risk = 1 if integral > 0 else 0
    print(f"dcr_integral={integral!r} risk={risk}")
    return 0


def _cmd_audit(args) -> int:
    cfg = load_run_config(args.config)
    data_path = args.data or cfg["data"]
    if not data_path:
        raise UsageError("audit needs --data or a 'data' entry in the config")
    table = read_csv(data_path)
    schema = infer_schema(table, cfg["overrides"])
    # the audited rows keep the raw columns, as decoded shadow tables do
    typed = table.retyped(schema.raw_schema())
    generator = argn_generator(cfg["train"], cfg["value_protection"], cfg["encoding"], schema)
    report = run_audit(typed, generator, cfg["audit"], auto_target=args.auto_target)
    report["config"] = {
        "train": asdict(cfg["train"]),
        "value_protection": asdict(cfg["value_protection"]),
    }
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for entry in report["targets"]:
        for name, res in entry["attacks"].items():
            print(f"target={entry['row_index']} attack={name} auc={res['auc']:.3f} "
                  f"accuracy={res['accuracy']:.3f}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an int, refused below ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="argn", description="Tabular synthesizer with privacy auditing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model on a delimited file")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("generate", help="sample synthetic rows from a model file")
    p.add_argument("--model", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--condition", action="append", metavar="COL=VAL")
    p.add_argument("--order", default=None, metavar="COL,COL,...")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("evaluate", help="fidelity metrics real vs synthetic")
    p.add_argument("--real", required=True)
    p.add_argument("--syn", required=True)
    p.add_argument("--holdout", default=None)
    p.add_argument("--target", default=None)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("dcr", help="distance-to-closest-record CDF analysis")
    p.add_argument("--train", required=True)
    p.add_argument("--syn", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out-cdf", required=True)
    p.set_defaults(func=_cmd_dcr)

    p = sub.add_parser("audit", help="membership-inference attack suite")
    p.add_argument("--data", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--report", required=True)
    p.add_argument("--auto-target", type=_int_at_least(1), default=1)
    p.set_defaults(func=_cmd_audit)
    return parser


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ConfigError, OverrideError, TargetIndexError) as exc:  # a config the data refutes is a config error
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


# mallopt parameters of glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap() -> None:
    """Sets glibc's heap thresholds for this process to the state its own
    dynamic policy reaches after the process frees a 32 MiB block: blocks
    under 32 MiB come from the heap, and up to 64 MiB of freed heap stays
    mapped. From the defaults (128 KiB), glibc hands every training step's
    freed temporaries back to the system, and the next step faults their
    pages in again. Does nothing outside glibc."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return
    if not hasattr(libc, "gnu_get_libc_version"):
        return
    libc.mallopt.argtypes, libc.mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main() -> None:
    _keep_freed_heap()
    code = cli()
    gc.freeze()  # the interpreter's final collections then skip every live object, which exit frees anyway
    sys.exit(code)


if __name__ == "__main__":
    main()
