"""Output-correctness gate: one check per verb output.

Each check raises ``GateError`` naming what is wrong, or returns the values
the benchmark reports from that output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math


class GateError(Exception):
    pass


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_model(path: str, epochs: int) -> float:
    """The model file loads and ran exactly the epoch budget; returns the
    best validation NLL from its header."""
    from argn.persist import load_model

    try:
        model = load_model(path)
    except (ValueError, KeyError, TypeError, OSError) as exc:  # ModelFileError is a ValueError
        raise GateError(f"{path}: model does not load: {exc}") from exc
    meta = model.training_meta
    if meta.get("epochs_run") != epochs:
        raise GateError(f"{path}: ran {meta.get('epochs_run')} epochs, budget is {epochs}")
    nll = meta.get("best_val_loss")
    if not isinstance(nll, (int, float)) or not math.isfinite(nll):
        raise GateError(f"{path}: best validation loss {nll!r} is not finite")
    return float(nll)


def check_generated(path: str, n_rows: int, width: int) -> str:
    """The CSV holds a header plus ``n_rows`` rows of ``width`` fields;
    returns its digest for the repeat-identity check."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows[0]) != width:
        raise GateError(f"{path}: header does not have {width} columns")
    if len(rows) - 1 != n_rows:
        raise GateError(f"{path}: {len(rows) - 1} rows, requested {n_rows}")
    if any(len(r) != width for r in rows[1:]):
        raise GateError(f"{path}: ragged rows")
    return digest(path)


def _numbers(node, where: str):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numbers(value, f"{where}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _numbers(value, f"{where}[{i}]")
    elif isinstance(node, bool):
        return
    elif isinstance(node, (int, float)):
        yield where, node
    elif node is None:
        yield where, None


def check_report(path: str) -> float:
    """Every field of the evaluate report is a finite number; returns the
    mean JSD."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        raise GateError(f"{path}: unreadable report: {exc}") from exc
    for where, value in _numbers(report, "report"):
        if value is None or not math.isfinite(value):
            raise GateError(f"{path}: {where} = {value!r} is not a finite number")
    try:
        return float(report["jsd"]["mean"])
    except (KeyError, TypeError) as exc:
        raise GateError(f"{path}: no jsd.mean") from exc


def _cdf_number(field: str) -> float:
    # `argn dcr` writes repr() of numpy scalars, which numpy 2 renders as
    # "np.float64(0.5)"; accept that form as well as a bare number.
    if field.startswith("np.float64(") and field.endswith(")"):
        field = field[len("np.float64("):-1]
    return float(field)


def check_cdf(path: str) -> None:
    """Distances ascend, both CDFs are monotone within [0, 1] and end at 1."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2 or lines[0] != "distance,cdf_syn,cdf_test":
        raise GateError(f"{path}: missing header or rows")
    prev = (-math.inf, 0.0, 0.0)
    for i, line in enumerate(lines[1:], start=2):
        try:
            row = tuple(_cdf_number(x) for x in line.split(","))
        except ValueError as exc:
            raise GateError(f"{path}: line {i}: {exc}") from exc
        if len(row) != 3 or not all(math.isfinite(v) for v in row):
            raise GateError(f"{path}: line {i}: not three finite numbers")
        if row[0] <= prev[0] or row[1] < prev[1] or row[2] < prev[2]:
            raise GateError(f"{path}: line {i}: not monotone")
        if row[1] > 1.0 or row[2] > 1.0:
            raise GateError(f"{path}: line {i}: CDF above 1")
        prev = row
    if prev[1] != 1.0 or prev[2] != 1.0:
        raise GateError(f"{path}: CDFs end at {prev[1]}, {prev[2]}, not 1")


def check_audit(path: str, attacks) -> None:
    """Every configured attack is reported for every target, AUC in [0, 1]."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        raise GateError(f"{path}: unreadable report: {exc}") from exc
    targets = report.get("targets") or []
    if not targets:
        raise GateError(f"{path}: no targets")
    for entry in targets:
        found = entry.get("attacks", {})
        missing = [a for a in attacks if a not in found]
        if missing:
            raise GateError(f"{path}: target {entry.get('row_index')}: missing {missing}")
        for name in attacks:
            auc = found[name].get("auc")
            if not isinstance(auc, (int, float)) or not 0.0 <= auc <= 1.0:
                raise GateError(f"{path}: {name} auc {auc!r} outside [0, 1]")
