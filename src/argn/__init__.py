"""Privacy-preserving tabular synthesizer: reversible mixed-type
discretization, an any-order autoregressive network trained from scratch,
fidelity metrics, DCR overfitting analysis, and a membership-inference audit
harness."""

from . import util  # pins numpy's bundled OpenBLAS to one thread (see util)
from .encoders import EncodedTable, EncodingOptions, encode_table, decode_table, fit_encoders
from .model import ArgnModel, TrainConfig, compute_layer_sizes, negative_log_likelihood, train
from .nn import DpConfig
from .protect import ValueProtectionConfig, protect_table
from .sampling import GenerationRequest, generate, synthesize
from .tables import ColumnSpec, RawTable, TableSchema, infer_schema, read_csv, write_csv

__all__ = [
    "ArgnModel",
    "ColumnSpec",
    "DpConfig",
    "EncodedTable",
    "EncodingOptions",
    "GenerationRequest",
    "RawTable",
    "TableSchema",
    "TrainConfig",
    "ValueProtectionConfig",
    "compute_layer_sizes",
    "decode_table",
    "encode_table",
    "fit_encoders",
    "generate",
    "infer_schema",
    "negative_log_likelihood",
    "protect_table",
    "read_csv",
    "synthesize",
    "train",
    "write_csv",
]

__version__ = "0.1.0"
