import csv
import ctypes
import json
import math
import os
import struct
import subprocess
import sys
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import argn
import argn.audit
from argn.cli import cli, load_run_config
from argn.encoders import ENCODERS, EncodingOptions, decode_table, encode_table, fit_encoders
from argn.model import ArgnModel, TrainConfig, train
from argn.nn import DpConfig
from argn.persist import FORMAT_VERSION, ModelFileError, load_model, save_model
from argn.sampling import GenerationRequest, generate, synthesize
from argn.tables import ColumnSpec, infer_schema, write_csv
from conftest import acceptance_table, make_table, mixed_sample_table, table_rows


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    table = mixed_sample_table(300, seed=6)
    encoders = fit_encoders(table, table.schema, EncodingOptions(n_bins=12))
    encoded = encode_table(table, encoders)
    model = ArgnModel(encoders)
    cfg = TrainConfig(batch_size=64, max_epochs=6, seed=0)
    train(model, encoded, cfg)
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
    assert table_rows(synthesize(model, req)) == table_rows(synthesize(loaded, req))


def test_a_real_nul_category_survives_save_and_load(tmp_path):
    # MISSING used to be written as "\0", so a real "\0" category collided with it
    table = make_table({"c": ["\0", "a", None, "a"], "d": ["x", "y", "x", "y"]})
    encoders = fit_encoders(table, table.schema, EncodingOptions())
    model = ArgnModel(encoders)
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
    fresh = ArgnModel(model.encoders)
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


def read_header(blob: bytes) -> dict:
    (header_len,) = struct.unpack("<Q", blob[8:16])
    return json.loads(blob[16 : 16 + header_len])


def write_header(path, blob: bytes, header: dict, version: int = FORMAT_VERSION) -> None:
    """``blob`` with its header replaced by ``header`` and its version by ``version``."""
    (header_len,) = struct.unpack("<Q", blob[8:16])
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:4] + struct.pack("<IQ", version, len(raw)) + raw + blob[16 + header_len :])


def test_a_saved_header_holds_exactly_the_three_keys(trained, tmp_path):
    model, _ = trained
    path = tmp_path / "m.argn"
    save_model(model, str(path))
    blob = path.read_bytes()
    assert struct.unpack("<I", blob[4:8]) == (4,) == (FORMAT_VERSION,)
    assert list(read_header(blob)) == ["encoders", "training_meta", "weights"]


def old_schema(model) -> dict:
    """The ``schema`` header entry of format versions 1 and 2."""
    return {"columns": [{"name": c.name, "kind": c.kind, "encoding": c.encoding, "null_frequency": 0.0,
                         "sources": c.sources} for c in model.encoders.schema.columns]}


def test_a_version_1_file_is_refused(trained, tmp_path):
    model, _ = trained
    path = tmp_path / "m.argn"
    save_model(model, str(path))
    blob = path.read_bytes()
    header = read_header(blob)
    meta = dict(header["training_meta"])
    v1 = {"schema": old_schema(model), "encoders": header["encoders"],
          "sub_columns": [{"name": s.name, "cardinality": s.cardinality, "parent": s.parent}
                          for s in model.sub_columns],
          "order_mode": meta["train_config"]["order_mode"], "fixed_order": list(range(model.d_total)),
          "dropout_rate": 0.25, "trained": True, "train_config": meta.pop("train_config"),
          "training_meta": meta, "weights": header["weights"]}
    old = tmp_path / "v1.argn"
    write_header(old, blob, v1, version=1)
    with pytest.raises(ModelFileError, match="unsupported model format version 1 "):
        load_model(str(old))


def test_a_version_2_file_is_refused(trained, tmp_path):
    model, _ = trained
    path = tmp_path / "m.argn"
    save_model(model, str(path))
    blob = path.read_bytes()
    old = tmp_path / "v2.argn"
    write_header(old, blob, {"schema": old_schema(model), **read_header(blob)}, version=2)
    with pytest.raises(ModelFileError, match="unsupported model format version 2 "):
        load_model(str(old))


def test_a_version_3_file_is_refused(trained, tmp_path):
    model, _ = trained
    path = tmp_path / "m.argn"
    save_model(model, str(path))
    blob = path.read_bytes()
    header = read_header(blob)
    v3 = {"encoders": header["encoders"], "order_mode": header["training_meta"]["train_config"]["order_mode"],
          "training_meta": header["training_meta"], "weights": header["weights"]}
    old = tmp_path / "v3.argn"
    write_header(old, blob, v3, version=3)
    with pytest.raises(ModelFileError, match="unsupported model format version 3 "):
        load_model(str(old))


@pytest.mark.parametrize("change,message", [
    (lambda h: h.update(trained=True), "header key 'trained' is unexpected"),
    (lambda h: h.update(order_mode="any_order"), "header key 'order_mode' is unexpected"),  # version 3's
    (lambda h: h.pop("training_meta"), "header key 'training_meta' is missing"),
])
def test_a_header_without_exactly_the_three_keys_is_refused(trained, tmp_path, change, message):
    model, _ = trained
    path = tmp_path / "m.argn"
    save_model(model, str(path))
    blob = path.read_bytes()
    header = read_header(blob)
    change(header)
    write_header(path, blob, header)
    with pytest.raises(ModelFileError, match=message):
        load_model(str(path))


@pytest.fixture(scope="module")
def every_encoding_model_file(tmp_path_factory):
    """The bytes of a saved trained model with one column of each encoding."""
    rng = np.random.default_rng(2)
    n = 200
    table = make_table({
        "color": [None if i % 9 == 0 else f"c{i % 4}" for i in range(n)],
        "amount": [repr(float(x)) for x in rng.normal(size=n)],
        "count": [str(int(x)) for x in rng.integers(-50, 500, size=n)],
        "when": [f"2021-0{1 + i % 9}-{1 + i % 28:02d}" for i in range(n)],
        "lat": [repr(float(x)) for x in rng.uniform(-60, 60, n)],
        "lon": [repr(float(x)) for x in rng.uniform(-170, 170, n)],
    }, kinds={"amount": "numeric", "count": "numeric", "when": "datetime"})
    schema = infer_schema(table, {"count": ColumnSpec("count", "numeric", "digit_split"),
                                  "loc": ColumnSpec("loc", "latlong", sources=("lat", "lon"))})
    encoders = fit_encoders(table, schema, EncodingOptions(n_bins=8, quad_min_tile=50))
    model = ArgnModel(encoders)
    train(model, encode_table(table, encoders), TrainConfig(batch_size=64, max_epochs=2, seed=0))
    path = tmp_path_factory.mktemp("every") / "m.argn"
    save_model(model, str(path))
    return path.read_bytes()


@pytest.mark.parametrize("change", ["added", "dropped"])
@pytest.mark.parametrize("encoding", sorted(ENCODERS))
def test_an_encoder_entry_with_an_added_or_a_dropped_key_is_refused(every_encoding_model_file, tmp_path,
                                                                     encoding, change):
    blob = every_encoding_model_file
    header = read_header(blob)
    (entry,) = [e for e in header["encoders"]["encoders"] if e["type"] == encoding]
    path = tmp_path / "m.argn"
    write_header(path, blob, header)
    assert load_model(str(path)).encoders.encoder_for(entry["column"]).to_dict() == entry
    if change == "added":
        key, entry["extra"] = "extra", 0
    else:
        key, _ = entry.popitem()
    write_header(path, blob, header)
    with pytest.raises(ModelFileError, match=f"malformed model header: .*'{key}'"):
        load_model(str(path))


def test_quadtile_leaves_that_do_not_tile_the_globe_are_refused_on_load(every_encoding_model_file, tmp_path):
    blob = every_encoding_model_file
    header = read_header(blob)
    (entry,) = [e for e in header["encoders"]["encoders"] if e["type"] == "quadtile"]
    entry["leaves"][-1] = entry["leaves"][-1][:-1] + "7"  # "3" was read as the SE box
    path = tmp_path / "m.argn"
    write_header(path, blob, header)
    with pytest.raises(ModelFileError, match="do not tile the globe"):
        load_model(str(path))


@pytest.mark.parametrize("encoding,key,value", [
    ("digit_split", "decimals", 40),  # loaded and wrote 0.0000000000000000000000000000000000000394
    ("digit_split", "decimals", -2),  # loaded, then failed in decode
    ("datetime_parts", "has_time", "no"),  # loaded and wrote times
])
def test_an_encoder_value_that_fit_never_writes_is_refused_on_load(every_encoding_model_file, tmp_path,
                                                                    encoding, key, value):
    blob = every_encoding_model_file
    header = read_header(blob)
    (entry,) = [e for e in header["encoders"]["encoders"] if e["type"] == encoding]
    entry[key] = value
    path = tmp_path / "m.argn"
    write_header(path, blob, header)
    with pytest.raises(ModelFileError, match=key):
        load_model(str(path))


def _one_value_edits(value, path=(), keys=False):
    """(path, replacement) for each one-value edit inside a header value: a
    number up or down by one, a type swap (a bool or null to a number, a
    number to its text, a text to a number), or a list entry dropped or
    duplicated; with ``keys`` also an object's key dropped or one added."""
    if isinstance(value, dict):
        if keys:
            yield from ((path, {k: v for k, v in value.items() if k != key}) for key in value)
            yield path, {**value, "extra": 0}
        for key, v in value.items():
            yield from _one_value_edits(v, (*path, key), keys)
        return
    if isinstance(value, list):
        for i, v in enumerate(value):
            yield path, value[:i] + value[i + 1 :]
            yield path, value[: i + 1] + value[i:]
            yield from _one_value_edits(v, (*path, i), keys)
        return
    if isinstance(value, bool) or value is None:
        yield path, int(bool(value))
    elif isinstance(value, (int, float)):
        yield from ((path, value + 1), (path, value - 1), (path, str(value)))
    else:
        yield path, 0


def edited(header: dict, path, replacement) -> dict:
    """``header`` with the value at ``path`` (a non-empty key path) replaced."""
    *parents, last = path
    target = header
    for key in parents:
        target = target[key]
    target[last] = replacement
    return header


def test_an_encoder_header_that_loads_generates_and_decodes_stably(every_encoding_model_file, tmp_path):
    """Any one-value edit of the ``encoders`` header either fails to load or
    gives a model that synthesizes, and whose decoded rows decode to the
    same cells after a round trip through ``encode_table`` with the same
    uniforms. (They need not re-encode to the sampled codes: under a MISSING
    leading sub-column the siblings re-encode to 0, Feb 30 clamps to Feb 28
    and a sign over zero digits writes 0.)"""
    blob = every_encoding_model_file
    edits = list(_one_value_edits(read_header(blob)["encoders"], ("encoders",)))
    path = tmp_path / "m.argn"

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(edits))
    def check(edit):
        write_header(path, blob, edited(read_header(blob), *edit))
        try:
            model = load_model(str(path))
        except ModelFileError:
            return
        assert synthesize(model, GenerationRequest(n_rows=64, seed=1)).row_count == 64
        codes = generate(model, GenerationRequest(n_rows=64, seed=2))
        u = np.random.default_rng(3).random((64, model.encoders.n_draws))
        out = decode_table(codes, model.encoders, u)
        assert decode_table(encode_table(out, model.encoders), model.encoders, u).cells == out.cells

    check()


def test_a_training_record_that_loads_is_one_training_writes(every_encoding_model_file, tmp_path):
    """Every one-value edit of ``training_meta`` (each ``train_config`` field
    too), and each key dropped or added, either fails to load or gives a
    model that synthesizes and whose record rebuilds to a TrainConfig."""
    blob = every_encoding_model_file
    edits = list(_one_value_edits(read_header(blob)["training_meta"], ("training_meta",), keys=True))
    path = tmp_path / "m.argn"
    refused = 0
    for edit in edits:
        write_header(path, blob, edited(read_header(blob), *edit))
        try:
            model = load_model(str(path))
        except ModelFileError:
            refused += 1
            continue
        config = model.training_meta["train_config"]
        assert asdict(TrainConfig(**{**config, "dp": DpConfig(**config["dp"])})) == config
        assert synthesize(model, GenerationRequest(n_rows=64, seed=1)).row_count == 64
    assert {path[2] for path, _ in edits if len(path) > 2} == set(asdict(TrainConfig()))
    assert 0 < refused < len(edits)


@pytest.mark.parametrize("change,message", [
    (lambda m: m.pop("best_epoch"), "training_meta key 'best_epoch' is missing"),
    (lambda m: m.update(history=[]), "training_meta key 'history' is unexpected"),
    (lambda m: m["train_config"].pop("dropout_rate"), "training_meta is not a record that train writes"),
    (lambda m: m["train_config"].update(order_mode="random"), "order_mode must be one of"),
    (lambda m: m["train_config"].update(dropout_rate=1.0), "dropout_rate must be in"),
    (lambda m: m["train_config"]["dp"].update(delta=1e-5), "'delta'"),
    (lambda m: m["train_config"].update(max_epochs=m["epochs_run"] - 1), "not a record that train writes"),
    (lambda m: m.update(best_epoch=0), "not a record that train writes"),
    (lambda m: m.update(best_epoch=m["epochs_run"] + 1), "not a record that train writes"),
    (lambda m: m.update(best_val_loss=-1.0), "not a record that train writes"),
    (lambda m: m.update(best_val_loss=str(m["best_val_loss"])), "malformed model header"),  # used to load
    (lambda m: m.clear() or m.update(epochs_run=1), "training_meta key 'best_epoch' is missing"),
])
def test_a_training_record_train_never_writes_is_refused(trained, tmp_path, change, message):
    model, _ = trained
    path = tmp_path / "m.argn"
    save_model(model, str(path))
    blob = path.read_bytes()
    header = read_header(blob)
    change(header["training_meta"])
    write_header(path, blob, header)
    with pytest.raises(ModelFileError, match=message):
        load_model(str(path))


def test_a_model_trained_with_a_warned_config_loads_without_a_warning(tmp_path):
    table = mixed_sample_table(100, seed=3)
    encoders = fit_encoders(table, table.schema, EncodingOptions(n_bins=4))
    model = ArgnModel(encoders)
    with pytest.warns(UserWarning, match="patience_stop <= patience_lr"):
        cfg = TrainConfig(batch_size=32, max_epochs=2, patience_stop=2, patience_lr=2)
    train(model, encode_table(table, encoders), cfg)
    path = tmp_path / "m.argn"
    save_model(model, str(path))
    assert load_model(str(path)).training_meta == model.training_meta  # warnings are errors here


def test_an_untrained_model_loads_and_generate_refuses_it(small_model_file):
    path, _, _ = small_model_file
    model = load_model(str(path))
    assert model.training_meta == {}
    with pytest.raises(ValueError, match="not trained"):
        generate(model, GenerationRequest(n_rows=5))


def test_a_key_beside_the_encoder_list_is_refused(trained, tmp_path):
    model, _ = trained
    path = tmp_path / "m.argn"
    save_model(model, str(path))
    blob = path.read_bytes()
    header = read_header(blob)
    header["encoders"]["extra"] = 0
    write_header(path, blob, header)
    with pytest.raises(ModelFileError, match="'extra'"):
        load_model(str(path))


def test_a_weight_renamed_in_the_manifest_is_refused(trained, tmp_path):
    model, _ = trained
    path = tmp_path / "m.argn"
    save_model(model, str(path))
    blob = path.read_bytes()
    header = read_header(blob)
    first, second = header["weights"][:2]
    first["name"], second["name"] = second["name"], first["name"]
    write_header(path, blob, header)
    with pytest.raises(ModelFileError, match="weight manifest does not match the architecture"):
        load_model(str(path))


@pytest.fixture(scope="module")
def small_model_file(tmp_path_factory):
    table = mixed_sample_table(60, seed=4)
    encoders = fit_encoders(table, table.schema, EncodingOptions(n_bins=4))
    model = ArgnModel(encoders)
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


def test_cli_train_parses_no_column_outside_infer_schema(data_csv, tmp_path, monkeypatch):
    import argn.cli
    import argn.tables

    calls = {"infer": [], "outside": []}
    where = ["outside"]
    original_parse, original_infer = argn.tables.parse_column, argn.cli.infer_schema

    def parse(cells, kind):
        calls[where[-1]].append(kind)
        return original_parse(cells, kind)

    def infer(*args, **kwargs):
        where.append("infer")
        try:
            return original_infer(*args, **kwargs)
        finally:
            where.pop()

    for module in [m for name, m in sys.modules.items() if name.startswith("argn")]:
        if getattr(module, "parse_column", None) is original_parse:
            monkeypatch.setattr(module, "parse_column", parse)
    monkeypatch.setattr(argn.cli, "infer_schema", infer)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"train": {"max_epochs": 1, "batch_size": 64},
                                  "value_protection": {"extreme_k": 3, "rare_min_count": 5}}))
    assert cli(["train", "--data", data_csv, "--config", str(config),
                "--out", str(tmp_path / "m.argn")]) == 0
    assert "numeric" in calls["infer"] and calls["outside"] == []


def test_cli_train_records_its_train_config(cli_model, quick_config):
    model = load_model(cli_model)
    run_cfg = replace(load_run_config(quick_config)["train"], seed=7)
    assert model.training_meta
    assert model.training_meta["train_config"] == asdict(run_cfg)


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


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "gnu_get_libc_version"), reason="glibc heap settings")
def test_cli_keeps_freed_heap_so_a_repeated_step_faults_no_pages():
    """A step that allocates about 1 MB in 96 KB arrays and frees them, as a
    training step does: under the CLI's heap settings the freed pages stay
    mapped, so repeating the step faults none in (glibc's defaults hand them
    back and fault them in again, over a thousand times in 20 steps)."""
    script = (
        "import resource, sys\n"
        "import numpy as np\n"
        "import argn.cli\n"
        "argn.cli._keep_freed_heap()\n"
        "def step():\n"
        "    blocks = [np.ones(12_000) for _ in range(10)]\n"
        "    del blocks\n"
        "step()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(20):\n"
        "    step()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = str(Path(argn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 50


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


@pytest.mark.parametrize("flags", [["--condition", "nosuch=1"], ["--order", "nosuch"]])
def test_cli_generate_unknown_column_exits_one(cli_model, tmp_path, capsys, flags):
    out = tmp_path / "x.csv"
    assert cli(["generate", "--model", cli_model, "-n", "5", "--out", str(out), *flags]) == 1
    assert "unknown column 'nosuch'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "1e400"])
def test_cli_generate_rejects_a_numeric_condition_that_does_not_parse(cli_model, tmp_path, capsys, value):
    out = tmp_path / "x.csv"
    assert cli(["generate", "--model", cli_model, "-n", "5", "--out", str(out),
                "--condition", f"num_a={value}"]) == 1
    assert f"num_a': value '{value}' is not a finite numeric value" in capsys.readouterr().err
    assert not out.exists()


def test_cli_generate_rejects_a_category_outside_the_vocabulary(cli_model, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli(["generate", "--model", cli_model, "-n", "5", "--out", str(out),
                "--condition", "cat_b=zzz"]) == 1
    assert "generate: column 'cat_b': value 'zzz' not in vocabulary" in capsys.readouterr().err
    assert not out.exists()


def test_cli_generate_conditions_on_missing_with_an_empty_value(cli_model, tmp_path):
    from argn.tables import read_csv

    out = tmp_path / "x.csv"
    assert cli(["generate", "--model", cli_model, "-n", "20", "--out", str(out),
                "--condition", "num_a="]) == 0
    assert list(read_csv(str(out)).column_values("num_a")) == [None] * 20


@pytest.fixture(scope="module")
def fixed_order_model(data_csv, tmp_path_factory):
    root = tmp_path_factory.mktemp("fixed")
    config = root / "run.json"
    config.write_text(json.dumps({"train": {"max_epochs": 2, "batch_size": 64, "order_mode": "fixed"}}))
    path = str(root / "m.argn")
    assert cli(["train", "--data", data_csv, "--config", str(config), "--out", path]) == 0
    return path


@pytest.mark.parametrize("argv,detail", [  # each used to exit 2
    (["train", "--data", "{data}", "--out", "{out}", "--seed", "-1"], "argument --seed: must be >= 0"),
    (["evaluate", "--real", "{data}", "--syn", "{data}", "--report", "{out}", "--seed", "-1"],
     "argument --seed: must be >= 0"),
    (["evaluate", "--real", "{data}", "--syn", "{data}", "--report", "{out}", "--target", "nosuch"],
     "evaluate: --target names unknown column 'nosuch'"),
    (["generate", "--model", "{model}", "-n", "5", "--out", "{out}", "--order", "cat_a,cat_a"],
     "--order names column 'cat_a' twice"),
    (["generate", "--model", "{fixed}", "-n", "5", "--out", "{out}", "--order", "cat_b"],
     "generate: model was trained with a fixed order"),
    # used to audit one target
    (["audit", "--data", "{data}", "--report", "{out}", "--auto-target", "0"],
     "argument --auto-target: must be >= 1, got 0"),
    (["audit", "--data", "{data}", "--report", "{out}", "--auto-target", "-3"],
     "argument --auto-target: must be >= 1, got -3"),
])
def test_cli_an_argument_the_verb_refuses_is_a_usage_error(data_csv, cli_model, fixed_order_model, tmp_path,
                                                            capsys, argv, detail):
    out = tmp_path / "out"
    paths = {"data": data_csv, "model": cli_model, "fixed": fixed_order_model, "out": str(out)}
    assert cli([arg.format(**paths) for arg in argv]) == 1
    assert detail in capsys.readouterr().err
    assert not out.exists()


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
    ("value_protection", {"rare_min_count": "random(5,8)"}),  # "random" is the one spelling
    ("value_protection", {"rare_min_count": 7.9}),  # used to be truncated to 7
    ("value_protection", {"extreme_k": 7.9}),
    ("value_protection", {"enabled": "false"}),  # used to train with protection on
    ("value_protection", {"rng_seed": -1}),  # used to exit 2 after reading the data
])
def test_cli_rejects_a_bad_config_value_before_training(data_csv, tmp_path, capsys, block, bad):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({block: bad}))
    out = tmp_path / "m.argn"
    assert cli(["train", "--data", data_csv, "--config", str(config), "--out", str(out)]) == 1
    assert f"invalid {block} config" in capsys.readouterr().err
    assert not out.exists()


def test_cli_refuses_a_generation_config_block(data_csv, tmp_path, capsys):
    # the block was key-checked, and then nothing read it
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"generation": {"n_rows": 10}}))
    out = tmp_path / "m.argn"
    assert cli(["train", "--data", data_csv, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "config error: unknown key 'generation' in config\n"
    assert not out.exists()


@pytest.mark.parametrize("override,detail", [  # each used to exit 2
    ({"encoding": "digit_split"}, "'kind'"),
    ({"kind": "categorical", "encoding": "digit_split"}, "not 'digit_split'"),
    ({"kind": "numeric", "encoding": "nope"}, "not 'nope'"),
    ({"kind": "latlong"}, "latlong columns need two sources"),
    # one source named twice used to train a model that could not generate
    ({"kind": "latlong", "sources": ["lat", "lat"]}, "latlong columns need two sources"),
])
def test_cli_rejects_a_bad_override_before_reading_the_data(tmp_path, capsys, override, detail):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"overrides": {"loc": override}}))
    out = tmp_path / "m.argn"
    missing = str(tmp_path / "no-such.csv")  # reading it would exit 2
    assert cli(["train", "--data", missing, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid overrides['loc'] config: ") and detail in err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["train", "audit"])
@pytest.mark.parametrize("override,detail", [  # each used to exit 2
    ({"nope": {"kind": "numeric"}}, "override references unknown column 'nope'"),
    ({"loc": {"kind": "latlong", "sources": ["num_a", "nope"]}}, "override 'loc': unknown source column 'nope'"),
])
def test_cli_an_override_the_data_lacks_is_a_config_error(data_csv, tmp_path, capsys, verb, override, detail):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"overrides": override}))
    out = tmp_path / "out"
    flag = "--out" if verb == "train" else "--report"
    assert cli([verb, "--data", data_csv, "--config", str(config), flag, str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {detail}\n"
    assert not out.exists()


@pytest.mark.parametrize("bad", [{"encoding": {"n_bins": 0}}, {"audit": {"n_shadow": 0}},
                                 {"audit": {"n_shadow": -2}},
                                 {"audit": {"target_indices": [-1]}},  # used to audit the last row
                                 {"audit": {"target_indices": [1.5]}}])
def test_cli_audit_rejects_a_bad_config_value_before_running(data_csv, tmp_path, capsys, bad):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(bad))
    report = tmp_path / "audit.json"
    assert cli(["audit", "--data", data_csv, "--config", str(config),
                "--report", str(report)]) == 1
    assert f"invalid {next(iter(bad))} config" in capsys.readouterr().err
    assert not report.exists()


def test_cli_audit_target_index_past_the_last_row_is_a_config_error(data_csv, tmp_path, capsys):
    # used to exit 2 with numpy's "index 400 is out of bounds for axis 0 with size 400"
    config = tmp_path / "audit.json"
    config.write_text(json.dumps({"audit": {"target_indices": [3, 400]}}))
    report = tmp_path / "report.json"
    assert cli(["audit", "--data", data_csv, "--config", str(config), "--report", str(report)]) == 1
    assert capsys.readouterr().err == "config error: audit target index 400 is past the last of 400 rows\n"
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


def test_cli_audit_with_a_latlong_override(tmp_path):
    # the source columns are apart and out of order, as in a raw file
    rng = np.random.default_rng(3)
    n = 300
    table = make_table({
        "lon": [f"{v:.3f}" for v in rng.uniform(9, 17, n)],
        "cat": [f"c{v}" for v in rng.integers(0, 4, n)],
        "lat": [f"{v:.3f}" for v in rng.uniform(46, 49, n)],
        "num": [f"{v:.2f}" for v in rng.normal(size=n)],
    })
    data_path = tmp_path / "geo.csv"
    write_csv(table, str(data_path))
    config_path = tmp_path / "geo.json"
    config_path.write_text(json.dumps({
        "overrides": {"loc": {"kind": "latlong", "sources": ["lat", "lon"]}},
        "train": {"max_epochs": 2, "batch_size": 32},
        "encoding": {"n_bins": 10, "quad_min_tile": 20},
        "audit": {"n_shadow": 4, "shadow_size": 60, "n_queries": 5, "seed": 0},
    }))
    report_path = tmp_path / "audit.json"
    assert cli(["audit", "--data", str(data_path), "--config", str(config_path),
                "--report", str(report_path), "--auto-target", "1"]) == 0
    attacks = json.loads(report_path.read_text())["targets"][0]["attacks"]
    assert set(attacks) == set(argn.audit.ALL_ATTACKS)
    assert all(0.0 <= res["auc"] <= 1.0 for res in attacks.values())


def test_cli_evaluate_and_dcr_parse_each_cell_list_once_per_kind(tmp_path, monkeypatch):
    real, syn, holdout = (acceptance_table(n, seed) for n, seed in ((400, 1), (300, 2), (200, 3)))
    syn = make_table({name: [None if (i % 9 == 0 and name in ("cat_b", "num_a")) else v
                             for i, v in enumerate(syn.column_values(name))]
                      for name in syn.column_names})
    paths = {}
    for name, table in (("real", real), ("syn", syn), ("holdout", holdout)):
        paths[name] = str(tmp_path / f"{name}.csv")
        write_csv(table, paths[name])
    seen = Counter()
    original = argn.tables.parse_column

    def counting(cells, kind):
        seen[tuple(cells), kind] += 1
        return original(cells, kind)

    for module in [m for name, m in sys.modules.items() if name.startswith("argn.")]:
        if getattr(module, "parse_column", None) is original:
            monkeypatch.setattr(module, "parse_column", counting)
    for target in ("cat_b", "num_a"):
        assert cli(["evaluate", "--real", paths["real"], "--syn", paths["syn"],
                    "--holdout", paths["holdout"], "--target", target,
                    "--report", str(tmp_path / "report.json")]) == 0
        assert seen and max(seen.values()) == 1, [k for k, v in seen.items() if v > 1][:1]
        seen.clear()
    assert cli(["dcr", "--train", paths["real"], "--syn", paths["syn"], "--test", paths["holdout"],
                "--out-cdf", str(tmp_path / "cdf.csv")]) == 0
    assert seen and max(seen.values()) == 1


def python_m_argn_cli(*argv: str) -> subprocess.CompletedProcess:
    """``python -m argn.cli`` in a fresh process, stdout and stderr on pipes."""
    src = str(Path(argn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "argn.cli", *argv], env=env, capture_output=True, text=True,
                          timeout=300)


def test_python_m_argn_cli_train_writes_the_model(data_csv, quick_config, tmp_path):
    model_path = tmp_path / "m.argn"
    proc = python_m_argn_cli("train", "--data", data_csv, "--config", quick_config, "--out", str(model_path),
                             "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    assert load_model(str(model_path)).training_meta


def test_python_m_argn_cli_a_refused_flag_exits_1(data_csv, tmp_path):
    out = tmp_path / "out"
    proc = python_m_argn_cli("train", "--data", data_csv, "--out", str(out), "--seed", "-1")
    assert proc.returncode == 1 and "argument --seed: must be >= 0" in proc.stderr
    assert not out.exists()


def test_python_m_argn_cli_a_missing_data_file_exits_2(tmp_path):
    out = tmp_path / "out"
    proc = python_m_argn_cli("train", "--data", str(tmp_path / "nosuch.csv"), "--out", str(out))
    assert proc.returncode == 2 and proc.stderr.startswith("error: ")
    assert not out.exists()


def test_python_m_argn_cli_prints_the_summary_line_to_a_pipe(data_csv, tmp_path):
    proc = python_m_argn_cli("dcr", "--train", data_csv, "--syn", data_csv, "--test", data_csv,
                             "--out-cdf", str(tmp_path / "cdf.csv"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["dcr_integral=0.0 risk=0"]
