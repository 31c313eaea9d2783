"""Versioned binary model files.

Layout: magic ``ARGN`` | u32 format version | u64 header length | UTF-8 JSON
header | the model's flat weight store as raw little-endian float32, which
holds the weights in canonical order (per sub-column: E, W, b, V, c). The
header has exactly four keys: ``encoders`` (the fitted encoders, from which
loading derives the schema and the sub-columns), ``order_mode``,
``training_meta`` (the run's epochs, best validation loss and train config)
and ``weights`` (the weight manifest: each weight's name and shape). The
weight section is byte-exact, so save -> load -> save reproduces identical
files. Loading checks magic, version and the header's key set, rebuilds each
encoder with its constructor (a missing or an unknown key fails, as do
quadtile leaves that do not tile the globe), checks that the manifest is the
one the rebuilt architecture writes and the float count, rejects non-finite
weights, and copies the weights into a freshly allocated store.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .encoders import TableEncoders
from .model import ArgnModel

MAGIC = b"ARGN"
FORMAT_VERSION = 3
HEADER_KEYS = ("encoders", "order_mode", "training_meta", "weights")


class ModelFileError(ValueError):
    pass


def _manifest(model: ArgnModel) -> list[dict]:
    """The name and shape of each weight, in store order."""
    return [{"name": name, "shape": list(p.value.shape)} for name, p in model.params.items()]


def save_model(model: ArgnModel, path: str) -> None:
    if model.params is None:
        raise ValueError("model has no parameters to save")
    header = {
        "encoders": model.encoders.to_dict(),
        "order_mode": model.order_mode,
        "training_meta": model.training_meta,
        "weights": _manifest(model),
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
    model = ArgnModel(TableEncoders.from_dict(header["encoders"]), header["order_mode"])
    model.training_meta = header["training_meta"]
    model.allocate_params()
    if header["weights"] != _manifest(model):
        raise ModelFileError(f"{path}: weight manifest does not match the architecture")

    weight_bytes = blob[16 + header_len :]
    expected, found = model.store.value.size, len(weight_bytes) // 4
    if found != expected or len(weight_bytes) % 4 != 0:
        raise ModelFileError(f"{path}: expected {expected} floats, found {found}")
    flat = np.frombuffer(weight_bytes, dtype="<f4")
    if not np.isfinite(flat).all():
        raise ModelFileError(f"{path}: non-finite weights")
    model.store.value[...] = flat
    return model
