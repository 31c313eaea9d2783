"""Small shared helpers: thread budgeting, blocked row scans and rank
statistics."""

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

# Rows per block of a scan; a block's temporaries are SCAN_BLOCK x n_other.
SCAN_BLOCK = 512


def worker_count() -> int:
    """Worker-thread cap, controlled by the ARGN_THREADS env var (0 or unset = auto)."""
    raw = os.environ.get("ARGN_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = min(os.cpu_count() or 1, 8)
    return max(1, n)


def scan_rows(n_rows: int, block_fn: Callable[[slice], np.ndarray]) -> np.ndarray:
    """Concatenated ``block_fn(rows)`` over consecutive blocks of at most
    SCAN_BLOCK rows, run on up to worker_count() threads. Blocks are
    independent, so the result does not depend on the thread count."""
    slices = [slice(s, min(s + SCAN_BLOCK, n_rows)) for s in range(0, n_rows, SCAN_BLOCK)]
    if not slices:
        return np.zeros(0)
    workers = min(worker_count(), len(slices))
    if workers <= 1:
        return np.concatenate([block_fn(sl) for sl in slices])
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(block_fn, slices)))


def midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the average rank of the tied block."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        # average of ranks i+1 .. j+1; sums of multiples of 0.5 stay exact
        avg = (i + j) / 2.0 + 1.0
        ranks[order[i : j + 1]] = avg
        i = j + 1
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
