"""Outside-in tracing of the argn layers, installed from the benchmark.

A pass-through wrapper replaces each layer function under the name its
caller looks up: ``argn.cli.train`` and ``argn.audit.train`` are separate
bindings of ``argn.model.train`` and are wrapped separately, while
``argn.nn.dense_forward`` covers every ``nn.dense_forward(...)`` call. Each
call records a span (name, start, end, parent, run id) in memory; counters
are bumped at the same boundaries. Span names equal the per-layer metric
names without the ``_s`` suffix. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of the thread that created it; calls from other threads
    pass straight through unrecorded."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._thread = threading.get_ident()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        stack = self._stack
        span_id = len(self.spans) + len(stack)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run_id))

    def add(self, counter: str, amount: int = 1) -> None:
        self.counts[counter] += amount

    def wrap(self, name: str, fn: Callable, count: Optional[str] = None,
             after: Optional[Callable] = None) -> Callable:
        """Pass-through wrapper: same arguments, same result, plus a span.
        ``after(tracer, args, kwargs, result)`` may bump counters and returns
        the result handed back to the caller."""
        spans, stack, run_id, owner = self.spans, self._stack, self.run_id, self._thread
        clock, ident = time.perf_counter, threading.get_ident

        # span() inlined: layers such as nn.dense_forward are entered ~10^4
        # times per pass, and a generator-based context manager per call
        # would double the tracing overhead.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if ident() != owner:
                return fn(*args, **kwargs)
            span_id = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, name, start, end, parent, run_id))
            if count:
                self.counts[count] += 1
            if after is not None:
                result = after(self, args, kwargs, result)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def install(self, targets) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        try:
            for t in targets:
                owner, attr = t.binding()
                original = vars(owner)[attr]
                setattr(owner, attr, self.wrap(t.span, original, t.count, t.after))
                self._installed.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its direct children
        cover."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s.name] += s.duration - child_time[s.id]
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def write_jsonl(self, path: str) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                rec = s._asdict()
                rec["start"] -= origin
                rec["end"] -= origin
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    module: str  # namespace the caller looks the name up in
    attr: str  # "name" or "Class.method"
    span: str
    count: Optional[str] = None
    after: Optional[Callable] = None

    def binding(self) -> tuple[object, str]:
        """(module or class, attribute name) the wrapper is stored under."""
        owner = importlib.import_module(self.module)
        attr = self.attr
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        return owner, attr


def _after_train(tracer, args, kwargs, history):
    encoded, epochs = args[1], history["epochs_run"]
    tracer.add("model.epochs", epochs)
    tracer.add("model.row_epochs", (encoded.row_count - len(history["val_indices"])) * epochs)
    return history


def _after_dcr(tracer, args, kwargs, result):
    tracer.add("metrics.dcr_pairs", args[0].row_count * args[1].row_count)
    return result


def _after_save(tracer, args, kwargs, result):
    tracer.add("persist.model_bytes", os.path.getsize(args[1]))
    return result


def _after_generator(tracer, args, kwargs, generate_synthetic):
    # the audit calls the returned closure once per shadow trial
    return tracer.wrap("audit.shadow_trial", generate_synthetic, count="audit.shadow_trials")


TARGETS = (
    Target("argn.cli", "read_csv", "tables.read_csv"),
    Target("argn.cli", "infer_schema", "tables.infer_schema"),
    Target("argn.cli", "write_csv", "tables.write_csv"),
    Target("argn.cli", "protect_table", "protect.protect_table"),
    Target("argn.audit", "protect_table", "protect.protect_table"),
    Target("argn.cli", "fit_encoders", "encoders.fit_encoders"),
    Target("argn.audit", "fit_encoders", "encoders.fit_encoders"),
    Target("argn.cli", "encode_table", "encoders.encode_table"),
    Target("argn.audit", "encode_table", "encoders.encode_table"),
    Target("argn.sampling", "decode_table", "encoders.decode_table"),
    Target("argn.nn", "dense_forward", "nn.dense_forward", count="nn.dense_forward_calls"),
    Target("argn.nn", "dense_backward", "nn.dense_backward"),
    Target("argn.nn", "softmax_cross_entropy", "nn.softmax_cross_entropy"),
    Target("argn.nn", "softmax", "nn.softmax"),
    Target("argn.nn", "dropout_mask", "nn.dropout_mask"),
    Target("argn.nn", "adam_step", "nn.adam_step", count="nn.adam_steps"),
    Target("argn.nn", "dp_sgd_step", "nn.dp_sgd_step"),
    Target("argn.model", "ArgnModel.embed_rows", "model.embed_rows"),
    Target("argn.model", "ArgnModel.column_logits", "model.column_logits"),
    Target("argn.model", "ArgnModel.backward_column", "model.backward_column"),
    Target("argn.model", "negative_log_likelihood", "model.validation"),
    Target("argn.model", "_per_example_grads", "model.per_example_grads"),
    Target("argn.cli", "train", "model.train", after=_after_train),
    Target("argn.audit", "train", "model.train", after=_after_train),
    Target("argn.sampling", "generate", "sampling.generate"),
    Target("argn.sampling", "_row_rng", "sampling.row_rng", count="sampling.row_rng_calls"),
    Target("argn.sampling", "_sample_codes", "sampling.draw"),
    Target("argn.cli", "dcr", "metrics.dcr", after=_after_dcr),
    Target("argn.metrics", "dcr", "metrics.dcr", after=_after_dcr),
    Target("argn.metrics", "jsd", "metrics.marginals"),
    Target("argn.metrics", "wasserstein1", "metrics.marginals"),
    Target("argn.metrics", "association_l2", "metrics.association_l2"),
    Target("argn.metrics", "detection_score", "metrics.detection_score"),
    Target("argn.metrics", "ml_efficiency", "metrics.ml_efficiency"),
    Target("argn.audit", "achilles_score", "audit.achilles_score"),
    Target("argn.cli", "argn_generator", "audit.argn_generator", after=_after_generator),
    Target("argn.audit", "extract_features", "audit.features"),
    Target("argn.audit", "run_distance_attack", "audit.distance_attack"),
    Target("argn.audit", "_cross_fit_scores", "audit.cross_fit"),
    Target("argn.cli", "save_model", "persist.save_model", after=_after_save),
    Target("argn.cli", "load_model", "persist.load_model"),
)
