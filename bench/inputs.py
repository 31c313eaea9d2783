"""Seeded benchmark inputs: the tables, CSV files and run configs per workload.

The table generator reproduces ``acceptance_table`` from ``tests/conftest.py``
(two numerics and two categoricals driven by one latent factor, plus a
30-level tag that carries no signal), so the benchmark exercises the same
shape the acceptance tests do. It is copied rather than imported so that the
benchmark inputs stay fixed when the test helpers change.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Every attack the audit harness offers; the audit config names them all so
# the correctness gate can require each one in the report.
AUDIT_ATTACKS = (
    "naive_gh", "hist_gh", "corr_gh", "logistic_gh", "query_based",
    "closest_hamming", "closest_l2", "direct_lookup", "kernel_density",
)

# Stream roles for deriving independent per-table seeds from the run seed.
_TRAIN, _HOLDOUT = 1, 2


@dataclass(frozen=True)
class Workload:
    """Sizes and budgets of one workload. Every verb runs on every workload;
    the sizes decide which layers do most of the work."""

    name: str
    train_rows: int
    holdout_rows: int
    blocks: int  # column blocks of the acceptance table (5 columns each)
    epochs: int  # fixed budget of `argn train`
    dp_rows: int  # prefix of the train table used by the DP-SGD train
    dp_epochs: int
    generate_rows: int
    evaluate_rows: int  # prefix of the generated rows handed to `argn evaluate`
    audit_shadow: int
    audit_shadow_size: int
    audit_epochs: int
    audit_queries: int

    @property
    def target(self) -> str:
        return "cat_b" if self.blocks == 1 else "cat_b_0"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="narrow",
            train_rows=2000, holdout_rows=2000, blocks=1, epochs=40,
            dp_rows=400, dp_epochs=2, generate_rows=15000, evaluate_rows=1000,
            audit_shadow=4, audit_shadow_size=200, audit_epochs=3, audit_queries=20,
        ),
        Workload(
            name="wide",
            train_rows=500, holdout_rows=500, blocks=10, epochs=4,
            dp_rows=32, dp_epochs=1, generate_rows=3000, evaluate_rows=500,
            audit_shadow=4, audit_shadow_size=150, audit_epochs=1, audit_queries=20,
        ),
    )
}


def table_seed(run_seed: int, role: int, block: int = 0) -> int:
    """Independent seed for one table block, derived from the run seed."""
    ss = np.random.SeedSequence(entropy=run_seed, spawn_key=(role, block))
    return int(ss.generate_state(1)[0])


def acceptance_columns(n_rows: int, seed: int, suffix: str = "") -> dict[str, list[str]]:
    """Columns of ``acceptance_table(n_rows, seed)`` with names suffixed."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n_rows)
    num_a = z + 0.1 * rng.normal(size=n_rows)
    num_b = z * z + 0.2 * rng.normal(size=n_rows)
    cat_a = np.digitize(z, [-1.0, -0.3, 0.3, 1.0])
    flip = rng.random(n_rows) < 0.1
    cat_b = np.where((z > 0) ^ flip, "pos", "neg")
    tag = rng.integers(0, 30, size=n_rows)
    return {
        "num_a" + suffix: [f"{v:.4f}" for v in num_a],
        "num_b" + suffix: [f"{v:.4f}" for v in num_b],
        "cat_a" + suffix: [f"bucket{int(c)}" for c in cat_a],
        "cat_b" + suffix: [str(v) for v in cat_b],
        "tag" + suffix: [f"t{v}" for v in tag],
    }


def workload_table(w: Workload, n_rows: int, run_seed: int, role: int) -> dict[str, list[str]]:
    """One table of the workload: ``blocks`` acceptance tables side by side,
    each from its own seed, column names suffixed by block index."""
    if w.blocks == 1:
        return acceptance_columns(n_rows, table_seed(run_seed, role))
    columns: dict[str, list[str]] = {}
    for b in range(w.blocks):
        columns.update(acceptance_columns(n_rows, table_seed(run_seed, role, b), f"_{b}"))
    return columns


def write_table(path: str, columns: dict[str, list[str]], n_rows: Optional[int] = None) -> None:
    names = list(columns)
    n = len(columns[names[0]]) if n_rows is None else n_rows
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(zip(*(columns[c][:n] for c in names)))


def _train_block(epochs: int) -> dict:
    # patience_stop above the budget: every train runs exactly `epochs`
    # epochs, so the work stays fixed when a change moves the loss curve.
    return {"max_epochs": epochs, "patience_stop": epochs + 100, "patience_lr": 3}


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def setup(w: Workload, run_seed: int, work_dir: str) -> None:
    """Write every input of one run into ``work_dir``."""
    os.makedirs(work_dir, exist_ok=True)
    train = workload_table(w, w.train_rows, run_seed, _TRAIN)
    write_table(os.path.join(work_dir, "train.csv"), train)
    write_table(os.path.join(work_dir, "dp.csv"), train, w.dp_rows)
    write_table(os.path.join(work_dir, "holdout.csv"),
                workload_table(w, w.holdout_rows, run_seed, _HOLDOUT))
    write_json(os.path.join(work_dir, "train.json"), {"train": _train_block(w.epochs)})
    write_json(os.path.join(work_dir, "train_dp.json"), {
        "train": _train_block(w.dp_epochs),
        "dp": {"enabled": True, "clip_norm": 1.0, "noise_multiplier": 1.0},
    })
    write_json(os.path.join(work_dir, "audit.json"), {
        "train": _train_block(w.audit_epochs),
        "audit": {
            "n_shadow": w.audit_shadow,
            "shadow_size": w.audit_shadow_size,
            "n_queries": w.audit_queries,
            "attacks": list(AUDIT_ATTACKS),
            "seed": run_seed,
        },
    })


def train_split_rows(n_rows: int, val_fraction: float = 0.10) -> int:
    """Rows `argn train` fits on after holding out its validation split."""
    return n_rows - max(1, int(round(val_fraction * n_rows)))
