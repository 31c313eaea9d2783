"""Versioned binary model files.

Layout: magic ``ARGN`` | u32 format version | u64 header length | UTF-8 JSON
header | the model's flat weight store as raw little-endian float32, which
holds the weights in canonical order (per sub-column: E, W, b, V, c). The
header has exactly five keys: ``schema``, ``encoders`` (the fitted encoders,
from which loading derives the sub-columns), ``order_mode``,
``training_meta`` (the run's epochs, best validation loss and train config)
and ``weights`` (the weight-shape manifest). The weight section is
byte-exact, so save -> load -> save reproduces identical files. Loading
checks magic, version, the header's key set, float count and shapes, rejects
non-finite weights, and copies the weights into a freshly allocated store.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict

import numpy as np

from .encoders import TableEncoders
from .model import ArgnModel
from .tables import ColumnSpec, TableSchema

MAGIC = b"ARGN"
FORMAT_VERSION = 2
HEADER_KEYS = ("schema", "encoders", "order_mode", "training_meta", "weights")


class ModelFileError(ValueError):
    pass


def _schema_to_dict(schema: TableSchema) -> dict:
    return {"columns": [asdict(c) for c in schema.columns]}


def _schema_from_dict(d: dict) -> TableSchema:
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
        "schema": _schema_to_dict(model.encoders.schema),
        "encoders": model.encoders.to_dict(),
        "order_mode": model.order_mode,
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

    odd = sorted(header.keys() ^ set(HEADER_KEYS))
    if odd:
        state = "missing" if odd[0] in HEADER_KEYS else "unexpected"
        raise ModelFileError(f"{path}: header key {odd[0]!r} is {state}")
    if not isinstance(header["training_meta"], dict):
        raise ModelFileError(f"{path}: training_meta is not an object")
    encoders = TableEncoders.from_dict(_schema_from_dict(header["schema"]), header["encoders"])
    model = ArgnModel(encoders, header["order_mode"])
    model.training_meta = header["training_meta"]

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
