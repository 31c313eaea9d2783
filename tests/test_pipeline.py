"""End-to-end pipeline over every encoder kind at once: categorical with
missing cells, percentile and digit-split numerics, datetimes, and a latlong
pair, through protection, training, conditional sampling, and decode."""

import numpy as np
import pytest

from argn.encoders import EncodingOptions, encode_table, fit_encoders
from argn.model import ArgnModel, TrainConfig, negative_log_likelihood, train
from argn.protect import ValueProtectionConfig, protect_table
from argn.sampling import GenerationRequest, generate, synthesize
from argn.tables import ColumnSpec, RawTable, TableSchema, infer_schema

from conftest import make_table


def build_everything_table(n_rows=240, seed=0):
    rng = np.random.default_rng(seed)
    day = rng.integers(1, 28, size=n_rows)
    month = rng.integers(1, 13, size=n_rows)
    cols = {
        "city": [["vienna", "linz", "graz", "salzburg"][i % 4] for i in range(n_rows)],
        "amount": [f"{v:.2f}" for v in rng.uniform(-40, 90, size=n_rows)],
        "count": [str(v) for v in rng.integers(0, 500, size=n_rows)],
        "joined": [f"2021-{m:02d}-{d:02d}" for m, d in zip(month, day)],
        "lat": [f"{v:.3f}" for v in rng.uniform(46, 49, size=n_rows)],
        "lon": [f"{v:.3f}" for v in rng.uniform(9, 17, size=n_rows)],
    }
    cells = [[cols[c][r] for c in cols] for r in range(n_rows)]
    for r in range(0, n_rows, 17):  # sprinkle missing cells
        cells[r][0] = None
        cells[r][3] = None
    names = list(cols)
    schema = TableSchema(tuple(ColumnSpec(n, "categorical", "category_map") for n in names))
    return RawTable(schema, [list(c) for c in zip(*cells)])


OVERRIDES = {
    "count": ColumnSpec("count", "numeric", "digit_split"),
    "loc": ColumnSpec("loc", "latlong", "quadtile", sources=("lat", "lon")),
}
PROTECTION = ValueProtectionConfig(rare_min_count=2, extreme_k=8)
OPTIONS = EncodingOptions(n_bins=12, quad_min_tile=40, quad_max_depth=4)


@pytest.fixture(scope="module")
def everything_model():
    raw = build_everything_table()
    schema = infer_schema(raw, OVERRIDES)
    protected = protect_table(raw, schema, PROTECTION)
    encoders = fit_encoders(protected, schema, OPTIONS)
    encoded = encode_table(protected, encoders)
    model = ArgnModel(encoders)
    train(model, encoded, TrainConfig(batch_size=64, max_epochs=4, seed=0))
    return model, raw, encoded


def test_protect_fit_and_encode_parse_no_column_again(monkeypatch):
    import argn.tables

    raw = build_everything_table()
    schema = infer_schema(raw, OVERRIDES)
    for name in raw.column_names:
        for kind in ("numeric", "datetime"):
            raw.values(name, kind)
    calls = []
    original = argn.tables.parse_column
    monkeypatch.setattr(argn.tables, "parse_column",
                        lambda cells, kind: calls.append(kind) or original(cells, kind))
    protected = protect_table(raw, schema, PROTECTION)
    assert protected.column_values("amount") != raw.column_values("amount")  # clipped
    encode_table(protected, fit_encoders(protected, schema, OPTIONS))
    assert calls == []


def test_all_kinds_present(everything_model):
    model, _, _ = everything_model
    parents = {s.parent for s in model.sub_columns}
    assert parents == {"city", "amount", "count", "joined", "loc"}
    digit_subs = [s for s in model.sub_columns if s.parent == "count"]
    assert len(digit_subs) == 3  # 0..499 -> three digit positions
    date_subs = [s for s in model.sub_columns if s.parent == "joined"]
    assert len(date_subs) == 2  # year constant, month and day vary


def test_synthesize_full_schema(everything_model):
    model, raw, _ = everything_model
    out = synthesize(model, GenerationRequest(n_rows=120, seed=4))
    assert out.column_names == ["city", "amount", "count", "joined", "lat", "lon"]
    cities = set(v for v in out.column_values("city") if v is not None)
    assert cities <= {"vienna", "linz", "graz", "salzburg", "_RARE_"}
    for v in out.column_values("count"):
        if v is not None:
            assert 0 <= int(v) <= 999
    for v in out.column_values("joined"):
        if v is not None:
            assert v.startswith("2021-")
    for lat, lon in zip(out.column_values("lat"), out.column_values("lon")):
        if lat is not None:
            assert -90 <= float(lat) <= 90
            assert -180 <= float(lon) <= 180


def test_condition_on_digit_parent_fixes_all_sub_columns(everything_model):
    model, _, _ = everything_model
    out = generate(model, GenerationRequest(n_rows=40, conditions={"count": "123"}, seed=1))
    idx = model.encoders.sub_indices_of("count")
    expected = model.encoders.encoder_for("count").encode(make_table({"count": ["123"]}))[0].tolist()
    for pos, code in zip(idx, expected):
        assert np.all(out.data[:, pos] == code)


def test_condition_on_categorical_parent(everything_model):
    model, _, _ = everything_model
    out = synthesize(model, GenerationRequest(n_rows=30, conditions={"city": "graz"}, seed=2))
    assert all(v == "graz" for v in out.column_values("city"))


def test_generated_rows_can_be_scored(everything_model):
    model, _, encoded = everything_model
    sample = generate(model, GenerationRequest(n_rows=50, seed=3))
    nll = negative_log_likelihood(model, sample)
    assert np.isfinite(nll)
    assert negative_log_likelihood(model, encoded) == pytest.approx(
        negative_log_likelihood(model, encoded.data), abs=0
    )


def test_missingness_is_generated(everything_model):
    model, raw, _ = everything_model
    out = synthesize(model, GenerationRequest(n_rows=400, seed=5))
    # training data had ~6% missing city cells; the model should emit some
    missing_city = sum(1 for v in out.column_values("city") if v is None)
    assert missing_city > 0
