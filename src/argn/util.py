"""Small shared helpers: blocked row scans and rank statistics. Importing
it pins numpy's bundled OpenBLAS to one thread, so argn runs on the
calling thread alone and has no thread setting."""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Callable

import numpy as np

# Most rows per block of the DCR and Achilles scans.
SCAN_BLOCK = 512


def _pin_openblas() -> None:
    """One thread for the OpenBLAS that numpy ships beside itself
    (``numpy.libs/libscipy_openblas*``); any other BLAS is left alone."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        set_threads = getattr(ctypes.CDLL(str(path)), "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)


_pin_openblas()


def scan_rows(n_rows: int, block_fn: Callable[[slice], np.ndarray], block: int) -> np.ndarray:
    """Concatenated ``block_fn(rows)`` over consecutive blocks of at most
    ``block`` rows."""
    if not n_rows:
        return np.zeros(0)
    return np.concatenate([block_fn(slice(s, min(s + block, n_rows))) for s in range(0, n_rows, block)])


def class_ranks(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Each row's position in a random permutation of its class's rows: one
    ``rng.permutation`` per class present, in sorted class order."""
    ranks = np.empty(len(labels), dtype=np.int64)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        ranks[idx[rng.permutation(len(idx))]] = np.arange(len(idx))
    return ranks


def midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the average rank of the tied block
    (a NaN ties with nothing)."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="mergesort")
    s = values[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))[: len(s)]  # none when empty
    ends = np.append(starts[1:], len(s))
    ranks = np.empty(len(values), dtype=np.float64)
    # the block of sorted positions i .. e-1 has the average rank (i + e + 1) / 2, exact in float64
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def mann_whitney_auc(scores, labels) -> float:
    """AUC via the Mann-Whitney U statistic with midrank tie handling.

    Equals pairwise counting (wins + half-ties) / (n_pos * n_neg) exactly,
    including in floating point: both sides sum halves below 2**53 and
    divide once.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = int(len(labels) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    ranks = midranks(scores)
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)
