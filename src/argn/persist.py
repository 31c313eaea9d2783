"""Versioned binary model files.

Layout: magic ``ARGN`` | u32 format version | u64 header length | UTF-8 JSON
header | the model's flat weight store as raw little-endian float32, which
holds the weights in canonical order (per sub-column: E, W, b, V, c). The
header carries the schema, fitted encoders, sub-columns, order mode, a
train-config echo, training metadata, and the weight-shape manifest; the
weight section is byte-exact, so save -> load -> save reproduces identical
files. Loading checks magic, version, float count and shapes, rejects
non-finite weights and sub-columns that differ from the encoders', and
copies the weights into a freshly allocated store.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict
from typing import Optional

import numpy as np

from .encoders import SubColumn, TableEncoders
from .model import ArgnModel
from .tables import ColumnSpec, TableSchema

MAGIC = b"ARGN"
FORMAT_VERSION = 1


class ModelFileError(ValueError):
    pass


def _schema_to_dict(schema: Optional[TableSchema]) -> Optional[dict]:
    if schema is None:
        return None
    return {"columns": [asdict(c) for c in schema.columns]}


def _schema_from_dict(d: Optional[dict]) -> Optional[TableSchema]:
    if d is None:
        return None
    cols = tuple(
        ColumnSpec(
            c["name"], c["kind"], c["encoding"], c["null_frequency"],
            tuple(c["sources"]) if c["sources"] else None,
        )
        for c in d["columns"]
    )
    return TableSchema(cols)


def save_model(model: ArgnModel, path: str) -> None:
    if model.params is None:
        raise ValueError("model has no parameters to save")
    header = {
        "schema": _schema_to_dict(model.schema),
        "encoders": model.encoders.to_dict() if model.encoders is not None else None,
        "sub_columns": [
            {"name": s.name, "cardinality": s.cardinality, "parent": s.parent}
            for s in model.sub_columns
        ],
        "order_mode": model.order_mode,
        "fixed_order": list(model.fixed_order),
        "dropout_rate": model.dropout_rate,
        "trained": model.trained,
        "train_config": getattr(model, "train_config_echo", None),
        "training_meta": model.training_meta,
        "weights": [{"name": name, "shape": list(p.value.shape)} for name, p in model.params.items()],
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(np.ascontiguousarray(model.store.value, dtype="<f4"))  # no bytes copy


def load_model(path: str) -> ArgnModel:
    """Load a model file; any malformed or damaged file raises ModelFileError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _model_from_blob(blob, path)
    except ModelFileError:
        raise
    except (ArithmeticError, AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        # undecodable or non-JSON header, missing fields, wrongly typed values
        raise ModelFileError(f"{path}: malformed model header: {exc!r}") from exc


def _model_from_blob(blob: bytes, path: str) -> ArgnModel:
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise ModelFileError(f"{path}: not an ARGN model file")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != FORMAT_VERSION:
        raise ModelFileError(
            f"{path}: unsupported model format version {version} (expected {FORMAT_VERSION})"
        )
    (header_len,) = struct.unpack("<Q", blob[8:16])
    if len(blob) < 16 + header_len:
        raise ModelFileError(f"{path}: truncated header")
    header = json.loads(blob[16 : 16 + header_len].decode("utf-8"))

    schema = _schema_from_dict(header["schema"])
    encoders = (
        TableEncoders.from_dict(schema, header["encoders"])
        if header["encoders"] is not None
        else None
    )
    subs = [
        SubColumn(s["name"], int(s["cardinality"]), s["parent"]) for s in header["sub_columns"]
    ]
    if encoders is not None and subs != encoders.sub_columns:
        raise ModelFileError(f"{path}: header sub-columns do not match the encoders")
    model = ArgnModel(
        subs,
        order_mode=header["order_mode"],
        fixed_order=header["fixed_order"],
        encoders=encoders,
        schema=schema,
    )
    model.dropout_rate = header["dropout_rate"]
    model.trained = bool(header["trained"])
    model.training_meta = header["training_meta"]
    if header["train_config"] is not None:
        model.train_config_echo = header["train_config"]

    expected = sum(int(np.prod(w["shape"])) for w in header["weights"])
    weight_bytes = blob[16 + header_len :]
    found = len(weight_bytes) // 4
    if found != expected or len(weight_bytes) % 4 != 0:
        raise ModelFileError(f"{path}: expected {expected} floats, found {found}")
    flat = np.frombuffer(weight_bytes, dtype="<f4")
    if not np.isfinite(flat).all():
        raise ModelFileError(f"{path}: non-finite weights")

    model.allocate_params()
    if len(model.params) != len(header["weights"]):
        raise ModelFileError(f"{path}: weight manifest does not match the architecture")
    for p, meta in zip(model.params.values(), header["weights"]):
        shape = tuple(meta["shape"])
        if p.value.shape != shape:
            raise ModelFileError(
                f"{path}: weight {meta['name']}: stored shape {shape} != expected {p.value.shape}"
            )
    model.store.value[...] = flat
    return model
