import csv
import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import argn
from argn.cli import cli
from argn.encoders import EncodingOptions, encode_table, fit_encoders
from argn.model import ArgnModel, TrainConfig, train
from argn.persist import ModelFileError, load_model, save_model
from argn.sampling import GenerationRequest, generate, synthesize
from argn.tables import write_csv
from conftest import make_table, mixed_sample_table


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    table = mixed_sample_table(300, seed=6)
    encoders = fit_encoders(table, table.schema, EncodingOptions(n_bins=12))
    encoded = encode_table(table, encoders)
    model = ArgnModel(encoders.sub_columns, encoders=encoders, schema=table.schema)
    cfg = TrainConfig(batch_size=64, max_epochs=6, seed=0)
    train(model, encoded, cfg)
    model.train_config_echo = {"max_epochs": 6, "seed": 0}
    return model, table


def test_save_load_save_byte_identical(trained, tmp_path):
    model, _ = trained
    p1 = tmp_path / "m1.argn"
    p2 = tmp_path / "m2.argn"
    save_model(model, str(p1))
    loaded = load_model(str(p1))
    save_model(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_model_generates_identically(trained, tmp_path):
    model, _ = trained
    path = tmp_path / "m.argn"
    save_model(model, str(path))
    loaded = load_model(str(path))
    req = GenerationRequest(n_rows=50, seed=3)
    assert generate(model, req).data.tobytes() == generate(loaded, req).data.tobytes()
    assert synthesize(model, req).cells == synthesize(loaded, req).cells


def test_a_real_nul_category_survives_save_and_load(tmp_path):
    # MISSING used to be written as "\0", so a real "\0" category collided with it
    table = make_table({"c": ["\0", "a", None, "a"], "d": ["x", "y", "x", "y"]})
    encoders = fit_encoders(table, table.schema, EncodingOptions())
    model = ArgnModel(encoders.sub_columns, encoders=encoders, schema=table.schema)
    model.init_params(np.random.default_rng(0))
    path = tmp_path / "m.argn"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.encoders.encoders[0].mapping == {"a": 0, "\0": 1, None: 2}
    assert loaded.sub_columns == model.sub_columns


def test_magic_mismatch(trained, tmp_path):
    model, _ = trained
    path = tmp_path / "m.argn"
    save_model(model, str(path))
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFileError, match="not an ARGN model file"):
        load_model(str(path))


def test_version_mismatch(trained, tmp_path):
    model, _ = trained
    path = tmp_path / "m.argn"
    save_model(model, str(path))
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFileError, match="version 99"):
        load_model(str(path))


def test_truncated_weights(trained, tmp_path):
    model, _ = trained
    path = tmp_path / "m.argn"
    save_model(model, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])  # drop exactly one float
    with pytest.raises(ModelFileError, match=r"expected (\d+) floats, found"):
        load_model(str(path))
    expected = model.store.value.size
    try:
        load_model(str(path))
    except ModelFileError as exc:
        assert f"expected {expected} floats, found {expected - 1}" in str(exc)


def assert_params_view_store(model):
    """Each named weight and gradient is its canonical slice of the store."""
    offset = 0
    for p in model.params.values():
        for view, flat in ((p.value, model.store.value), (p.grad, model.store.grad)):
            assert np.shares_memory(view, flat)
            assert view.flags.c_contiguous
            address = flat.__array_interface__["data"][0] + offset * flat.itemsize
            assert view.__array_interface__["data"][0] == address
        offset += p.value.size
    assert offset == model.store.value.size


def test_params_are_views_of_the_flat_store(trained, tmp_path):
    model, _ = trained  # trained: the best-epoch snapshot was restored
    fresh = ArgnModel(model.sub_columns)
    fresh.init_params(np.random.default_rng(0))
    path = tmp_path / "m.argn"
    save_model(model, str(path))
    for m in (fresh, model, load_model(str(path))):
        assert_params_view_store(m)


def test_non_finite_weight_rejected(trained, tmp_path):
    model, _ = trained
    path = tmp_path / "m.argn"
    save_model(model, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:-4] + struct.pack("<f", float("nan")))
    with pytest.raises(ModelFileError, match="non-finite"):
        load_model(str(path))


def test_sub_columns_that_differ_from_the_encoders_rejected(trained, tmp_path):
    model, _ = trained
    subs = list(model.sub_columns)
    subs[0] = replace(subs[0], cardinality=subs[0].cardinality + 1)
    # header, manifest and weights agree with each other, not with the encoders
    wrong = ArgnModel(subs, encoders=model.encoders, schema=model.schema)
    wrong.init_params(np.random.default_rng(0))
    path = tmp_path / "m.argn"
    save_model(wrong, str(path))
    with pytest.raises(ModelFileError, match="sub-columns"):
        load_model(str(path))


@pytest.fixture(scope="module")
def small_model_file(tmp_path_factory):
    table = mixed_sample_table(60, seed=4)
    encoders = fit_encoders(table, table.schema, EncodingOptions(n_bins=4))
    model = ArgnModel(encoders.sub_columns, encoders=encoders, schema=table.schema)
    model.init_params(np.random.default_rng(0))
    path = tmp_path_factory.mktemp("fuzz") / "m.argn"
    save_model(model, str(path))
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[8:16])
    return path, blob, 16 + header_len


def _damage(blob: bytes, header_end: int):
    """Truncations anywhere, and one to four byte changes weighted towards
    the header (magic, version, length and JSON); drawn as a small
    description and applied by ``_apply``."""
    position = st.one_of(st.integers(0, header_end - 1), st.integers(0, len(blob) - 1))
    return st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, len(blob) - 1)),
        st.tuples(st.just("set_bytes"),
                  st.lists(st.tuples(position, st.integers(0, 255)), min_size=1, max_size=4)),
    )


def _apply(blob: bytes, damage) -> bytes:
    kind, arg = damage
    if kind == "truncate":
        return blob[:arg]
    out = bytearray(blob)
    for pos, value in arg:
        out[pos] = value
    return bytes(out)


def test_load_model_raises_model_file_error_for_any_damage(small_model_file):
    path, blob, header_end = small_model_file
    damaged_path = path.with_name("damaged.argn")

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(_damage(blob, header_end))
    def check(damage):
        damaged_path.write_bytes(_apply(blob, damage))
        try:
            load_model(str(damaged_path))
        except ModelFileError:
            pass

    check()


# -- CLI -----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    table = mixed_sample_table(400, seed=2)
    path = root / "data.csv"
    write_csv(table, str(path))
    return str(path)


@pytest.fixture(scope="module")
def quick_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("cfg")
    path = root / "run.json"
    path.write_text(json.dumps({
        "train": {"max_epochs": 4, "batch_size": 64},
        "encoding": {"n_bins": 10},
        "value_protection": {"enabled": False},
    }))
    return str(path)


def test_cli_train_generate_deterministic(data_csv, quick_config, tmp_path):
    model_path = str(tmp_path / "m.argn")
    out1 = str(tmp_path / "s1.csv")
    out2 = str(tmp_path / "s2.csv")
    assert cli(["train", "--data", data_csv, "--config", quick_config,
                "--out", model_path, "--seed", "7"]) == 0
    assert cli(["generate", "--model", model_path, "-n", "80", "--out", out1,
                "--seed", "7"]) == 0
    assert cli(["generate", "--model", model_path, "-n", "80", "--out", out2,
                "--seed", "7"]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


@pytest.fixture(scope="module")
def cli_model(data_csv, quick_config, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("gen") / "m.argn")
    assert cli(["train", "--data", data_csv, "--config", quick_config,
                "--out", path, "--seed", "7"]) == 0
    return path


def _generated_lines(model_path, n, out, seed=7):
    assert cli(["generate", "--model", model_path, "-n", str(n), "--out", str(out),
                "--seed", str(seed)]) == 0
    with open(out, "rb") as fh:
        return fh.read().splitlines(keepends=True)


@pytest.mark.parametrize("short,long", [(6, 12), (5000, 9000)])  # within / across a block
def test_cli_generate_rows_do_not_depend_on_the_row_count(cli_model, tmp_path, short, long):
    a = _generated_lines(cli_model, short, tmp_path / "a.csv")
    b = _generated_lines(cli_model, long, tmp_path / "b.csv")
    assert len(a) == short + 1 and len(b) == long + 1
    assert a == b[: short + 1]


def test_cli_generate_writes_what_synthesize_returns(cli_model, tmp_path):
    lines = _generated_lines(cli_model, 4200, tmp_path / "cli.csv", seed=3)
    write_csv(synthesize(load_model(cli_model), GenerationRequest(n_rows=4200, seed=3)),
              str(tmp_path / "lib.csv"))
    assert b"".join(lines) == (tmp_path / "lib.csv").read_bytes()
    assert _generated_lines(cli_model, 0, tmp_path / "empty.csv") == [lines[0]]


def test_cli_generate_memory_is_flat_in_the_row_count(cli_model, tmp_path):
    import tracemalloc

    load_model(cli_model)  # warm imports and caches outside the measurement
    peaks = []
    for n in (8_000, 40_000):
        tracemalloc.start()
        try:
            assert cli(["generate", "--model", cli_model, "-n", str(n),
                        "--out", str(tmp_path / "big.csv")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]


@pytest.mark.parametrize("flags", [["-n", "-1"], ["-n", "3", "--temperature", "0"],
                                   ["-n", "3", "--seed", "-1"]])
def test_cli_generate_bad_request_exits_one(cli_model, tmp_path, capsys, flags):
    out = tmp_path / "x.csv"
    assert cli(["generate", "--model", cli_model, "--out", str(out), *flags]) == 1
    assert "generate:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_generate_with_condition_and_order(data_csv, quick_config, tmp_path):
    model_path = str(tmp_path / "m.argn")
    out = str(tmp_path / "cond.csv")
    cli(["train", "--data", data_csv, "--config", quick_config, "--out", model_path])
    assert cli(["generate", "--model", model_path, "-n", "30", "--out", out,
                "--condition", "cat_b=pos", "--order", "cat_b,cat_a",
                "--temperature", "0.8", "--seed", "1"]) == 0
    from argn.tables import read_csv

    rows = read_csv(out)
    assert all(v == "pos" for v in rows.column_values("cat_b"))


def test_cli_dcr_flags_train_copy(data_csv, tmp_path, capsys):
    out_cdf = str(tmp_path / "cdf.csv")
    # synthetic = copy of train -> all-zero DCR -> positive integral
    holdout = mixed_sample_table(200, seed=99)
    holdout_path = str(tmp_path / "holdout.csv")
    write_csv(holdout, holdout_path)
    assert cli(["dcr", "--train", data_csv, "--syn", data_csv,
                "--test", holdout_path, "--out-cdf", out_cdf]) == 0
    printed = capsys.readouterr().out
    assert "risk=1" in printed
    with open(out_cdf, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["distance", "cdf_syn", "cdf_test"]
    assert rows and all(len(row) == 3 for row in rows)
    for row in rows:
        [float(field) for field in row]  # plain numbers, not np.float64(...)


def test_cli_evaluate_without_holdout_omits_integral(data_csv, tmp_path):
    syn = mixed_sample_table(300, seed=55)
    syn_path = str(tmp_path / "syn.csv")
    write_csv(syn, syn_path)
    report_path = str(tmp_path / "report.json")
    assert cli(["evaluate", "--real", data_csv, "--syn", syn_path,
                "--report", report_path]) == 0
    report = json.loads(Path(report_path).read_text())
    assert report["dcr_integral"] is None
    assert report["detection_auc"] is not None
    assert report["jsd"]["mean"] is not None


def test_cli_evaluate_with_holdout_reports_integral(data_csv, tmp_path):
    syn = mixed_sample_table(300, seed=55)
    holdout = mixed_sample_table(300, seed=56)
    syn_path = str(tmp_path / "syn.csv")
    holdout_path = str(tmp_path / "holdout.csv")
    write_csv(syn, syn_path)
    write_csv(holdout, holdout_path)
    report_path = str(tmp_path / "report.json")
    assert cli(["evaluate", "--real", data_csv, "--syn", syn_path,
                "--holdout", holdout_path, "--report", report_path]) == 0
    report = json.loads(Path(report_path).read_text())
    assert isinstance(report["dcr_integral"], float)


def test_cli_dcr_reads_a_year_one_datetime_column(tmp_path):
    when = ["0001-01-01", "1970-01-01", "2021-03-14", "2021-06-30 12:00:00", "9999-12-31"]
    paths = []
    for name, shift in (("train", 0), ("syn", 1), ("test", 2)):
        rows = [[when[(i + shift) % 5], "ab"[i % 2]] for i in range(10)]
        paths.append(tmp_path / f"{name}.csv")
        paths[-1].write_text("when,kind\n" + "".join(f"{a},{b}\n" for a, b in rows))
    assert cli(["dcr", "--train", str(paths[0]), "--syn", str(paths[1]),
                "--test", str(paths[2]), "--out-cdf", str(tmp_path / "cdf.csv")]) == 0


def test_cli_unknown_flag_exits_one(data_csv):
    assert cli(["generate", "--nonsense"]) == 1


def test_cli_missing_subcommand_exits_one():
    assert cli([]) == 1


def test_cli_misspelled_config_key(data_csv, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {"batchsize": 4}}))
    code = cli(["train", "--data", data_csv, "--config", str(bad),
                "--out", str(tmp_path / "m.argn")])
    assert code == 1


@pytest.mark.parametrize("block,bad", [
    ("dp", {"enabled": True, "clip_norm": math.nan}),  # used to train with clipping off
    ("dp", {"enabled": True, "clip_norm": "1.0"}),  # used to exit 2 mid-run
    ("train", {"max_epochs": 0}),  # used to write a model with val loss inf
    ("train", {"batch_size": 0}),  # used to exit 2 mid-run
    ("train", {"seed": -1}),  # used to exit 2 mid-run
    ("dp", {"enabled": "false"}),  # used to train with DP on
    ("encoding", {"n_bins": 0}),  # used to exit 2 after reading the data
    ("encoding", {"n_bins": "x"}),
    ("encoding", {"quad_min_tile": 0}),
    ("encoding", {"quad_max_depth": -1}),
    ("audit", {"n_shadow": 0}),  # used to exit 2 mid-audit
    ("audit", {"n_shadow": -2}),
    ("audit", {"shadow_size": 0}),
    ("audit", {"n_queries": -1}),
    ("audit", {"subset_size": 0}),
])
def test_cli_rejects_a_bad_config_value_before_training(data_csv, tmp_path, capsys, block, bad):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({block: bad}))
    out = tmp_path / "m.argn"
    assert cli(["train", "--data", data_csv, "--config", str(config), "--out", str(out)]) == 1
    assert f"invalid {block} config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", [{"encoding": {"n_bins": 0}}, {"audit": {"n_shadow": 0}},
                                 {"audit": {"n_shadow": -2}}])
def test_cli_audit_rejects_a_bad_config_value_before_running(data_csv, tmp_path, capsys, bad):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(bad))
    report = tmp_path / "audit.json"
    assert cli(["audit", "--data", data_csv, "--config", str(config),
                "--report", str(report)]) == 1
    assert f"invalid {next(iter(bad))} config" in capsys.readouterr().err
    assert not report.exists()


def test_cli_runtime_failure_exits_two(tmp_path):
    assert cli(["generate", "--model", str(tmp_path / "missing.argn"),
                "-n", "5", "--out", str(tmp_path / "x.csv")]) == 2


def test_cli_evaluate_with_target_reports_ml(data_csv, tmp_path):
    syn = mixed_sample_table(300, seed=77)
    syn_path = str(tmp_path / "syn.csv")
    write_csv(syn, syn_path)
    report_path = str(tmp_path / "ml.json")
    assert cli(["evaluate", "--real", data_csv, "--syn", syn_path,
                "--target", "cat_b", "--report", report_path]) == 0
    report = json.loads(Path(report_path).read_text())
    assert report["ml_efficiency"]["task"] == "classification"
    assert 0.0 <= report["ml_efficiency"]["auc"] <= 1.0


def test_cli_audit_end_to_end(tmp_path):
    table = mixed_sample_table(240, seed=12)
    data_path = str(tmp_path / "audit_data.csv")
    write_csv(table, data_path)
    config_path = str(tmp_path / "audit_cfg.json")
    with open(config_path, "w") as fh:
        json.dump({
            "train": {"max_epochs": 3, "batch_size": 32},
            "encoding": {"n_bins": 10},
            "value_protection": {"enabled": True},
            "audit": {"n_shadow": 6, "shadow_size": 60, "n_queries": 10,
                      "subset_size": 2, "seed": 0,
                      "attacks": ["naive_gh", "direct_lookup", "closest_hamming"]},
        }, fh)
    report_path = str(tmp_path / "audit.json")
    assert cli(["audit", "--data", data_path, "--config", config_path,
                "--report", report_path, "--auto-target", "1"]) == 0
    report = json.loads(Path(report_path).read_text())
    assert report["n_shadow"] == 6
    assert len(report["targets"]) == 1
    attacks = report["targets"][0]["attacks"]
    assert set(attacks) == {"naive_gh", "direct_lookup", "closest_hamming"}
    for res in attacks.values():
        assert 0.0 <= res["auc"] <= 1.0
        assert 0.0 <= res["accuracy"] <= 1.0
    assert report["config"]["value_protection"]["enabled"] is True


def test_python_m_argn_cli_train_writes_the_model(data_csv, quick_config, tmp_path):
    model_path = tmp_path / "m.argn"
    src = str(Path(argn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "argn.cli", "train", "--data", data_csv,
         "--config", quick_config, "--out", str(model_path), "--seed", "7"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert load_model(str(model_path)).trained
