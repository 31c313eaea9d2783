"""Small shared helpers: thread budgeting, blocked row scans and rank
statistics. Importing it pins numpy's bundled OpenBLAS to one thread, so
the ``scan_rows`` pool, sized by ``ARGN_THREADS``, is argn's only parallelism."""

from __future__ import annotations

import ctypes
import os
from pathlib import Path
from typing import Callable, Sequence

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


def worker_count() -> int:
    """Worker-thread cap, controlled by the ARGN_THREADS env var (0, empty or
    unset = auto); any other value that is not a count is refused."""
    raw = os.environ.get("ARGN_THREADS") or "0"
    try:
        n = int(raw)
    except ValueError:
        n = -1
    if n < 0:
        raise ValueError(f"ARGN_THREADS must be a thread count (0 = auto), got {raw!r}")
    return n or min(os.cpu_count() or 1, 8)


def scan_rows(n_rows: int, block_fn: Callable[[slice], np.ndarray], block: int,
              breaks: Sequence[int] = ()) -> np.ndarray:
    """Concatenated ``block_fn(rows)`` over consecutive blocks of at most
    ``block`` rows, none of which spans one of the ascending row indices
    ``breaks``, run on up to worker_count() threads. Blocks are
    independent, so the result does not depend on the thread count."""
    edges = [0, *breaks, n_rows]
    slices = [slice(s, min(s + block, end)) for start, end in zip(edges, edges[1:])
              for s in range(start, end, block)]
    if not slices:
        return np.zeros(0)
    workers = min(worker_count(), len(slices))
    if workers <= 1:
        return np.concatenate([block_fn(sl) for sl in slices])
    from concurrent.futures import ThreadPoolExecutor  # only a pool needs it: it slows start-up

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(block_fn, slices)))


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
