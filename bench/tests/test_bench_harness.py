"""Self-tests of the benchmark harness: inputs, tracing and the correctness gate."""

import hashlib
import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import gate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tiny_inputs(tmp_path: Path, epochs: int = 2) -> tuple[Path, Path]:
    data = tmp_path / "tiny.csv"
    inputs.write_table(str(data), inputs.acceptance_columns(200, 5))
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({"train": {"max_epochs": epochs, "patience_stop": epochs + 100}}))
    return data, config


def _train_tiny(tmp_path: Path) -> Path:
    from argn.cli import cli

    data, config = _tiny_inputs(tmp_path)
    model = tmp_path / "tiny.argn"
    assert cli(["train", "--data", str(data), "--config", str(config),
                "--out", str(model), "--seed", "0"]) == 0
    return model


# -- inputs -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_inputs_are_deterministic_per_seed_and_differ_across_seeds(tmp_path, name):
    w = inputs.WORKLOADS[name]
    for label, seed in (("a", 3), ("b", 3), ("c", 4)):
        inputs.setup(w, seed, str(tmp_path / label))
    for f in ("train.csv", "holdout.csv", "dp.csv", "audit.json"):
        assert _digest(tmp_path / "a" / f) == _digest(tmp_path / "b" / f)
        assert _digest(tmp_path / "a" / f) != _digest(tmp_path / "c" / f)
    header = (tmp_path / "a" / "train.csv").read_text().splitlines()[0].split(",")
    assert len(header) == 5 * w.blocks == len(set(header))


def test_generator_matches_the_acceptance_table_of_the_tests():
    spec = importlib.util.spec_from_file_location("argn_tests_conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    table = conftest.acceptance_table(300, 17)
    columns = inputs.acceptance_columns(300, 17)
    assert list(columns) == table.column_names
    assert [list(row) for row in zip(*columns.values())] == table.cells


# -- tracing ------------------------------------------------------------------


def _check_nesting(tracer: tracing.Tracer) -> None:
    by_id = {s.id: s for s in tracer.spans}
    assert len(by_id) == len(tracer.spans)
    children: dict = {}
    for s in tracer.spans:
        assert s.end >= s.start
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
            children[s.parent] = children.get(s.parent, 0.0) + s.duration
    for parent_id, covered in children.items():
        assert covered <= by_id[parent_id].duration
    assert all(v >= 0 for v in tracer.self_times().values())


def test_spans_nest_and_self_time_is_duration_minus_children():
    tracer = tracing.Tracer("t")

    def leaf(x):
        time.sleep(0.002)
        return x

    traced_leaf = tracer.wrap("leaf", leaf, count="leaves")
    traced_mid = tracer.wrap("mid", lambda x: traced_leaf(x) + traced_leaf(x))
    with tracer.span("root"):
        assert traced_mid(2) == 4
        assert traced_leaf(3) == 3
    _check_nesting(tracer)
    names = [s.name for s in tracer.spans]
    assert names.count("leaf") == 3 and tracer.counts["leaves"] == 3
    root = next(s for s in tracer.spans if s.name == "root")
    assert sum(tracer.self_times().values()) == pytest.approx(root.duration)


def test_traced_cli_run_nests_and_restores_every_wrapper(tmp_path):
    from argn.cli import cli

    def bound(t):
        owner, attr = t.binding()
        return vars(owner)[attr]

    originals = [bound(t) for t in tracing.TARGETS]
    data, config = _tiny_inputs(tmp_path)
    tracer = tracing.Tracer("t")
    tracer.install(tracing.TARGETS)
    try:
        assert all(bound(t) is not o for t, o in zip(tracing.TARGETS, originals))
        with tracer.span("cli.train"):
            assert cli(["train", "--data", str(data), "--config", str(config),
                        "--out", str(tmp_path / "m.argn"), "--seed", "0"]) == 0
    finally:
        tracer.uninstall()
    assert all(bound(t) is o for t, o in zip(tracing.TARGETS, originals))
    _check_nesting(tracer)
    self_times = tracer.self_times()
    for name in ("tables.read_csv", "model.train", "nn.dense_forward", "nn.adam_step",
                 "model.validation", "persist.save_model"):
        assert name in self_times
    assert tracer.counts["model.epochs"] == 2
    assert tracer.counts["model.row_epochs"] == 2 * inputs.train_split_rows(200)


# -- correctness gate -----------------------------------------------------------


def test_gate_rejects_a_truncated_csv(tmp_path):
    path = tmp_path / "syn.csv"
    inputs.write_table(str(path), inputs.acceptance_columns(50, 1))
    gate.check_generated(str(path), 50, 5)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-3]))
    with pytest.raises(gate.GateError):
        gate.check_generated(str(path), 50, 5)


def test_gate_rejects_a_corrupted_model_file(tmp_path):
    model = _train_tiny(tmp_path)
    assert gate.check_model(str(model), 2) > 0
    with pytest.raises(gate.GateError):
        gate.check_model(str(model), 3)  # epoch budget not met
    blob = model.read_bytes()
    model.write_bytes(blob[:-100])
    with pytest.raises(gate.GateError):
        gate.check_model(str(model), 2)
    model.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(gate.GateError):
        gate.check_model(str(model), 2)


def test_gate_rejects_a_cdf_that_is_not_monotone_or_does_not_end_at_one(tmp_path):
    path = tmp_path / "cdf.csv"
    path.write_text("distance,cdf_syn,cdf_test\n0.0,0.0,0.0\nnp.float64(0.5),0.5,1.0\n1.0,1.0,1.0\n")
    gate.check_cdf(str(path))
    path.write_text("distance,cdf_syn,cdf_test\n0.0,0.0,0.0\n0.5,0.6,1.0\n1.0,0.5,1.0\n")
    with pytest.raises(gate.GateError):
        gate.check_cdf(str(path))
    path.write_text("distance,cdf_syn,cdf_test\n0.0,0.0,0.0\n1.0,0.9,1.0\n")
    with pytest.raises(gate.GateError):
        gate.check_cdf(str(path))


# -- metric names -------------------------------------------------------------


def test_reported_metric_names_match_the_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {"work": 100, "val_nll": 1.0}
    runs = [run.VerbRun(v, 1.0, 1.0, 10.0, ok=True, values=values) for v in run.VERBS]
    assert set(run.e2e_metrics([0.1], runs)) == {m["name"] for m in spec["end_to_end"]}
    per_layer = {f"{n}_s" for n in run.SPAN_METRICS} | set(run.COUNT_METRICS)
    per_layer |= {"audit.shadow_trial_p50_s", "audit.shadow_trial_p75_s", "metrics.syn_jsd_mean",
                  "cli.import_s", "trace.overhead_pct"} | {f"cli.{v}.cpu_s" for v in run.VERBS}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
