"""Membership-inference audit harness.

Black-box by construction: attacks only ever see synthetic tables, the
target record, and the auxiliary pool. Shadow trials pair a generator run
with a known member/non-member label; statistic-based attacks fit a logistic
meta-classifier on features of the synthetic outputs (cross-fitted so every
trial receives a held-out score), while distance-based attacks score each
synthetic set directly against the target.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .encoders import EncodingOptions, encode_table, fit_encoders
from .linear import LogisticModel, MixedFeatureMap
from .metrics import mixed_association_matrix
from .model import ArgnModel, TrainConfig, train
from .protect import ValueProtectionConfig, protect_table
from .sampling import GenerationRequest, synthesize
from .tables import RawTable, TableSchema
from .util import mann_whitney_auc, scan_rows

META_ATTACKS = ("naive_gh", "hist_gh", "corr_gh", "logistic_gh", "query_based")
DISTANCE_METRICS = {"closest_hamming": "hamming", "closest_l2": "l2",
                    "direct_lookup": "lookup", "kernel_density": "kde"}  # attack -> metric
DISTANCE_ATTACKS = tuple(DISTANCE_METRICS)
ALL_ATTACKS = META_ATTACKS + DISTANCE_ATTACKS

_TRIAL_DOMAIN = 10
_QUERY_DOMAIN = 11
_FOLD_DOMAIN = 12


@dataclass
class AuditConfig:
    n_shadow: int = 64
    shadow_size: int = 500
    target_indices: Optional[list[int]] = None
    attacks: tuple[str, ...] = ALL_ATTACKS
    n_queries: int = 100
    subset_size: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.n_shadow % 2 != 0:
            raise ValueError("n_shadow must be even (half member, half non-member)")
        unknown = [a for a in self.attacks if a not in ALL_ATTACKS]
        if unknown:
            raise ValueError(f"unknown attacks: {unknown}")


@dataclass
class AttackResult:
    attack: str
    scores: np.ndarray
    labels: np.ndarray
    auc: float
    accuracy: float


def accuracy_at_median(scores, labels) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    pred = scores > np.median(scores)
    return float(np.mean(pred == labels))


def _result(name: str, scores, labels) -> AttackResult:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    return AttackResult(name, scores, labels, mann_whitney_auc(scores, labels),
                        accuracy_at_median(scores, labels))


# ---------------------------------------------------------------------------
# vulnerability scoring
# ---------------------------------------------------------------------------


def achilles_score(table: RawTable, k: int = 5) -> np.ndarray:
    """Mean cosine distance to the k nearest rows under one-hot + min-max
    encoding; larger = more distinct = more attackable. If any encoded row is
    all-zero, a constant bias coordinate is appended so cosine stays defined.
    Rows are scanned in blocks, so memory is O(block x n), not O(n^2).
    """
    if not 0 < k < table.row_count:
        raise ValueError("need 0 < k < row_count")
    x = MixedFeatureMap(table).transform(table)
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0):
        x = np.hstack([x, np.ones((x.shape[0], 1))])
        norms = np.linalg.norm(x, axis=1)
    unit = x / norms[:, None]

    def block(rows: slice) -> np.ndarray:
        dist = unit[rows] @ unit.T  # one SCAN_BLOCK x n buffer, updated in place
        np.clip(dist, -1.0, 1.0, out=dist)
        np.subtract(1.0, dist, out=dist)
        own = np.arange(rows.stop - rows.start)
        dist[own, rows.start + own] = np.inf
        dist.partition(k - 1, axis=1)
        return np.sort(dist[:, :k], axis=1).mean(axis=1)

    return scan_rows(table.row_count, block)


# ---------------------------------------------------------------------------
# shadow trials
# ---------------------------------------------------------------------------


@dataclass
class ShadowTrial:
    rows: RawTable
    member: bool
    seed: int


def _trial_seed(base_seed: int, index: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(_TRIAL_DOMAIN, index))
    return int(ss.generate_state(1)[0])


def build_shadow_trials(aux_pool: RawTable, target_row: Sequence[Optional[str]],
                        cfg: AuditConfig) -> list[ShadowTrial]:
    """n_shadow trials of shadow_size rows each; even trials append the target
    (member), odd trials substitute one more random pool row."""
    if cfg.shadow_size > aux_pool.row_count:
        raise ValueError("shadow_size exceeds the auxiliary pool")
    target = list(target_row)
    if any(list(r) == target for r in aux_pool.cells):
        raise ValueError("target record must not be present in the auxiliary pool")
    trials = []
    for i in range(cfg.n_shadow):
        seed = _trial_seed(cfg.seed, i)
        rng = np.random.default_rng(seed)
        picks = rng.choice(aux_pool.row_count, size=cfg.shadow_size, replace=False)
        member = i % 2 == 0
        if member:
            rows = [list(aux_pool.cells[j]) for j in picks[:-1]] + [target]
        else:
            rows = [list(aux_pool.cells[j]) for j in picks]
        schema = TableSchema(aux_pool.schema.columns, len(rows))
        trials.append(ShadowTrial(RawTable(schema, rows), member, seed))
    return trials


# ---------------------------------------------------------------------------
# attack features
# ---------------------------------------------------------------------------


class AttackContext:
    """Everything derived from the auxiliary pool that attacks may rely on:
    the pool's column view (vocabularies, numeric ranges and the one-hot +
    min-max encoding), fixed histogram bins per numeric column, and the
    seeded counting-query subsets."""

    HIST_BINS = 10

    def __init__(self, aux_pool: RawTable, target_row: Sequence[Optional[str]], cfg: AuditConfig):
        self.schema = aux_pool.schema
        self.target = list(target_row)
        self.feature_map = MixedFeatureMap(aux_pool)
        self.num_edges = {
            name: np.linspace(lo, hi if hi > lo else lo + 1.0, self.HIST_BINS + 1)
            for name, (lo, hi) in self.feature_map.ranges.items()
        }
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(_QUERY_DOMAIN,))
        )
        n_cols = len(self.schema.columns)
        s = min(cfg.subset_size, n_cols)
        self.queries = [
            tuple(sorted(rng.choice(n_cols, size=s, replace=False))) for _ in range(cfg.n_queries)
        ]


def _target_matches(syn: RawTable, target: Sequence[Optional[str]]) -> np.ndarray:
    """rows x columns: True where the synthetic cell equals the target's."""
    cells = np.array(syn.cells, dtype=object).reshape(syn.row_count, len(target))
    return cells == np.array(target, dtype=object)


def extract_features(syn: RawTable, target_row, kind: str, ctx: AttackContext) -> np.ndarray:
    """Fixed-width feature vector of a synthetic table for one attack family."""
    fmap = ctx.feature_map
    if kind == "naive_gh":
        feats = []
        for name in ctx.num_edges:
            vals = fmap.values(syn, name)
            vals = vals[np.isfinite(vals)]
            if vals.size:
                feats.extend([vals.mean(), float(np.median(vals)), vals.var()])
            else:
                feats.extend([0.0, 0.0, 0.0])
        n = max(1, syn.row_count)
        for name in fmap.vocabs:
            feats.extend(_category_counts(fmap, syn, name) / n)
        return np.array(feats)
    if kind == "hist_gh":
        feats = []
        for name, edges in ctx.num_edges.items():
            vals = fmap.values(syn, name)
            missing = int(np.sum(~np.isfinite(vals)))
            vals = vals[np.isfinite(vals)]
            clipped = np.clip(vals, edges[0], edges[-1])
            hist, _ = np.histogram(clipped, bins=edges)
            feats.extend(hist.astype(np.float64))
            feats.append(float(missing))
        for name in fmap.vocabs:
            feats.extend(_category_counts(fmap, syn, name))
        return np.array(feats)
    if kind == "corr_gh":
        return mixed_association_matrix(_with_schema(syn, ctx.schema)).ravel()
    if kind == "logistic_gh":
        return np.concatenate([
            extract_features(syn, target_row, "naive_gh", ctx),
            extract_features(syn, target_row, "hist_gh", ctx),
        ])
    if kind == "query_based":
        matches = _target_matches(syn, list(target_row))
        return np.array([float(matches[:, cols].all(axis=1).sum()) for cols in ctx.queries])
    raise ValueError(f"unknown feature kind {kind!r}")


def _category_counts(fmap: MixedFeatureMap, table: RawTable, name: str) -> np.ndarray:
    """Counts per vocabulary entry, then OTHER, then MISSING."""
    width = len(fmap.vocabs[name]) + 2
    return np.bincount(fmap.codes(table, name), minlength=width).astype(np.float64)


def _with_schema(table: RawTable, schema: TableSchema) -> RawTable:
    return RawTable(TableSchema(schema.columns, table.row_count), table.cells)


# ---------------------------------------------------------------------------
# meta-classifier attacks
# ---------------------------------------------------------------------------


def _cross_fit_scores(features: np.ndarray, labels: np.ndarray, seed: int,
                      n_folds: int = 4) -> np.ndarray:
    """Leave-25%-out scores: each fold is scored by a logistic meta-classifier
    trained on the remaining trials, so every trial gets a held-out score.

    Folds are stratified by label; otherwise the meta-classifier's class
    prior would leak fold composition into the scores and bias the AUC.
    """
    n = len(labels)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_FOLD_DOMAIN,)))
    fold_of = np.zeros(n, dtype=np.int64)
    for cls in (False, True):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        fold_of[idx] = np.arange(len(idx)) % n_folds
    scores = np.zeros(n)
    for f in range(n_folds):
        fold = np.flatnonzero(fold_of == f)
        if fold.size == 0:
            continue
        train_idx = np.flatnonzero(fold_of != f)
        if len(np.unique(labels[train_idx])) < 2:
            scores[fold] = 0.5
            continue
        clf = LogisticModel().fit(features[train_idx], labels[train_idx].astype(np.int64), 2)
        scores[fold] = clf.predict_proba(features[fold])[:, 1]
    return scores


def run_shadow_attack(trials: Sequence[ShadowTrial], generator: Callable, kind: str,
                      cfg: AuditConfig, ctx: AttackContext,
                      syn_sets: Optional[list[RawTable]] = None) -> AttackResult:
    """Train/sample the generator per trial (unless pre-generated sets are
    supplied), extract ``kind`` features, and score membership with the
    cross-fitted logistic meta-classifier."""
    if kind not in META_ATTACKS:
        raise ValueError(f"{kind!r} is not a meta-classifier attack")
    if syn_sets is None:
        syn_sets = generate_shadow_sets(trials, generator)
    labels = np.array([t.member for t in trials], dtype=bool)
    features = np.vstack([
        extract_features(syn, ctx.target, kind, ctx) for syn in syn_sets
    ])
    scores = _cross_fit_scores(features, labels, cfg.seed)
    return _result(kind, scores, labels)


def generate_shadow_sets(trials: Sequence[ShadowTrial], generator: Callable) -> list[RawTable]:
    sets = []
    for t_index, trial in enumerate(trials):
        try:
            sets.append(generator(trial.rows, trial.seed))
        except Exception as exc:
            raise RuntimeError(f"shadow trial {t_index} failed: {exc}") from exc
    return sets


# ---------------------------------------------------------------------------
# distance attacks
# ---------------------------------------------------------------------------


def _logsumexp(values: np.ndarray) -> float:
    m = values.max()
    if not np.isfinite(m):
        return -1e300
    return float(m + np.log(np.sum(np.exp(values - m))))


def _kde_log_density(points: np.ndarray, target: np.ndarray) -> float:
    """Gaussian product-kernel log-density at the target, Scott's-rule
    bandwidth per dimension."""
    n, d = points.shape
    if n < 2:
        raise ValueError("kernel density needs at least 2 synthetic rows")
    sigma = points.std(axis=0)
    sigma[sigma < 1e-9] = 1e-9
    h = sigma * n ** (-1.0 / (d + 4))
    z = (points - target) / h
    log_kernels = -0.5 * np.sum(z**2, axis=1) - np.sum(np.log(h)) - 0.5 * d * np.log(2 * np.pi)
    return _logsumexp(log_kernels) - np.log(n)


def run_distance_attack(syn_sets_with_labels: Sequence[tuple[RawTable, bool]],
                        target_row, metric: str, ctx: AttackContext) -> AttackResult:
    """Score each labeled synthetic set by proximity of the target record.

    hamming: -min per-column mismatch count; l2: -min Euclidean distance on
    the one-hot + min-max encoding; lookup: exact-match indicator; kde:
    Gaussian KDE log-density at the target.
    """
    if len(syn_sets_with_labels) < 2:
        raise ValueError("need at least 2 labeled synthetic sets")
    attack_of = {m: a for a, m in DISTANCE_METRICS.items()}
    if metric not in attack_of:
        raise ValueError(f"unknown distance metric {metric!r}")
    target = list(target_row)
    target_table = RawTable(TableSchema(ctx.schema.columns, 1), [target])
    target_vec = ctx.feature_map.transform(target_table)[0]
    scores, labels = [], []
    for syn, member in syn_sets_with_labels:
        if metric == "hamming":
            mismatches = len(target) - _target_matches(syn, target).sum(axis=1)
            scores.append(-float(mismatches.min()))
        elif metric == "lookup":
            scores.append(1.0 if _target_matches(syn, target).all(axis=1).any() else 0.0)
        else:
            x = ctx.feature_map.transform(_with_schema(syn, ctx.schema))
            if metric == "l2":
                d = np.linalg.norm(x - target_vec, axis=1)
                scores.append(-float(d.min()))
            else:
                scores.append(_kde_log_density(x, target_vec))
        labels.append(member)
    return _result(attack_of[metric], scores, labels)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def argn_generator(train_cfg: TrainConfig, protection: Optional[ValueProtectionConfig] = None,
                   options: EncodingOptions = EncodingOptions()) -> Callable:
    """Returns a (table, seed) -> synthetic table closure running the full
    pipeline: value protection, encoder fit, training, sampling, decode."""

    def generate_synthetic(table: RawTable, seed: int) -> RawTable:
        schema = table.schema
        working = table
        if protection is not None and protection.enabled:
            working = protect_table(table, schema, replace(protection, rng_seed=seed))
        encoders = fit_encoders(working, schema, options)
        encoded = encode_table(working, encoders)
        model = ArgnModel(encoders.sub_columns, train_cfg.order_mode,
                          encoders=encoders, schema=schema)
        train(model, encoded, replace(train_cfg, seed=seed))
        return synthesize(model, GenerationRequest(n_rows=table.row_count, seed=seed))

    return generate_synthetic


def run_audit(data: RawTable, generator: Callable, cfg: AuditConfig,
              auto_target: int = 0) -> dict:
    """Full audit: pick targets (explicit indices or top Achilles scores),
    build shadow trials per target, run every configured attack, and return a
    JSON-ready report."""
    if cfg.target_indices:
        targets = list(cfg.target_indices)
    else:
        n_targets = max(1, auto_target)
        scores = achilles_score(data)
        targets = [int(i) for i in np.argsort(-scores)[:n_targets]]

    report = {"n_shadow": cfg.n_shadow, "shadow_size": cfg.shadow_size,
              "seed": cfg.seed, "targets": []}
    for row_index in targets:
        target = list(data.cells[row_index])
        pool = data.subset([i for i in range(data.row_count) if i != row_index])
        ctx = AttackContext(pool, target, cfg)
        trials = build_shadow_trials(pool, target, cfg)
        syn_sets = generate_shadow_sets(trials, generator)
        labeled = [(syn, t.member) for syn, t in zip(syn_sets, trials)]
        entry = {"row_index": row_index, "attacks": {}}
        for attack in cfg.attacks:
            if attack in META_ATTACKS:
                res = run_shadow_attack(trials, generator, attack, cfg, ctx, syn_sets=syn_sets)
            else:
                res = run_distance_attack(labeled, target, DISTANCE_METRICS[attack], ctx)
            entry["attacks"][attack] = {"auc": res.auc, "accuracy": res.accuracy}
        report["targets"].append(entry)
    return report
