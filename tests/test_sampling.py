from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from argn import sampling
from argn.encoders import EncodingOptions, encode_table, fit_encoders
from argn.model import ArgnModel, TrainConfig, train
from argn.nn import softmax
from argn.sampling import GenerationRequest, _row_rng, generate, synthesize
from argn.tables import TableSchema
from conftest import make_table, table_rows

from test_model import lookup_table_data, subcols, train_lookup


@pytest.fixture(scope="module")
def lookup_model():
    model, mapping, _, encoded = train_lookup(seed=4)
    return model, mapping, encoded


def tvd(counts_a: np.ndarray, counts_b: np.ndarray) -> float:
    p = counts_a / counts_a.sum()
    q = counts_b / counts_b.sum()
    return 0.5 * float(np.abs(p - q).sum())


def test_near_zero_temperature_recovers_lookup(lookup_model):
    model, mapping, _ = lookup_model
    out = generate(model, GenerationRequest(n_rows=500, temperature=1e-6, seed=1))
    x1, x2 = out.data[:, 0], out.data[:, 1]
    np.testing.assert_array_equal(x2, mapping[x1])


def test_same_seed_identical_output(lookup_model):
    model, _, _ = lookup_model
    req = GenerationRequest(n_rows=100, seed=7)
    a = generate(model, req)
    b = generate(model, req)
    assert a.data.tobytes() == b.data.tobytes()


def test_conditional_generation_matches_exact_conditional(lookup_model):
    model, _, _ = lookup_model
    c = 3
    out = generate(model, GenerationRequest(n_rows=10_000, conditions={0: c}, seed=5))
    assert np.all(out.data[:, 0] == c)  # conditioning never alters conditioned values
    ctx = np.zeros((1, model.sizes.context_width), dtype=np.float32)
    ctx[0, model.slot(0)] = model.params["E0"].value[c]
    (exact,) = softmax(model.column_logits(ctx, 1)[0]).astype(np.float64)
    counts = np.bincount(out.data[:, 1], minlength=10)
    assert 0.5 * np.abs(counts / counts.sum() - exact / exact.sum()).sum() < 0.05


def test_marginal_consistency_first_subcolumn(lookup_model):
    model, _, _ = lookup_model
    n = 100_000
    out = generate(model, GenerationRequest(n_rows=n, seed=2))
    ctx = np.zeros((1, model.sizes.context_width), dtype=np.float32)
    (marginal,) = softmax(model.column_logits(ctx, 0)[0]).astype(np.float64)
    counts = np.bincount(out.data[:, 0], minlength=10).astype(np.float64)
    assert 0.5 * np.abs(counts / n - marginal / marginal.sum()).sum() < 0.02


def test_row_independence_substreams(lookup_model):
    model, _, _ = lookup_model
    together = generate(model, GenerationRequest(n_rows=6, seed=9)).data
    # generating more rows must not change earlier ones
    more = generate(model, GenerationRequest(n_rows=12, seed=9)).data
    np.testing.assert_array_equal(together, more[:6])


# -- per-row uniform streams ---------------------------------------------------


def test_row_rng_equals_numpys_per_row_streams():
    # the generator objects the sampler built per row before: the reference
    rows = [0, 1, 2, 999, 2**31, 2**32 - 1, *np.random.default_rng(0).integers(0, 2**32, 200)]
    for seed in (0, 7, 2**32 - 1, 2**32 + 5, 2**64 - 1):
        for domain in (0, 1):
            expected = [np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(seed, spawn_key=(domain, r)))).random(6) for r in rows]
            np.testing.assert_array_equal(_row_rng(seed, rows, 6, domain), expected)


def test_row_rng_is_uniform():
    u = _row_rng(3, range(250_000), 4).ravel()  # 10^6 draws
    assert u.dtype == np.float64 and u.min() >= 0.0 and u.max() < 1.0
    counts = np.bincount((u * 1000).astype(np.int64), minlength=1000)
    assert stats.chisquare(counts).pvalue > 1e-3


@pytest.mark.parametrize("other", [
    dict(seed=6), dict(seed=5 + 2**32), dict(domain=1), dict(row_shift=1), dict(draw_shift=1),
])
def test_row_rng_streams_are_uncorrelated(other):
    n = 200_000
    base = _row_rng(5, range(n), 3, 0)[:, 0]
    shift = other.get("row_shift", 0)
    draws = _row_rng(other.get("seed", 5), range(shift, n + shift), 3, other.get("domain", 0))
    u = draws[:, other.get("draw_shift", 0)]
    assert abs(np.corrcoef(base, u)[0, 1]) < 4 / np.sqrt(n)
    # and not merely decorrelated: a 2-D histogram of the pairs is uniform
    joint = np.bincount((base * 20).astype(int) * 20 + (u * 20).astype(int), minlength=400)
    assert stats.chisquare(joint).pvalue > 1e-3


def test_row_rng_of_a_row_subset_equals_the_full_range():
    full = _row_rng(9, range(1000), 3)
    rows = [999, 0, 500, 17, 17]
    np.testing.assert_array_equal(_row_rng(9, rows, 3), full[rows])
    np.testing.assert_array_equal(_row_rng(9, range(1000), 2), full[:, :2])
    assert _row_rng(9, range(0), 3).shape == (0, 3)


def test_zero_probability_codes_are_never_drawn(monkeypatch):
    encoded, _ = lookup_table_data(n_rows=100)
    model = ArgnModel(subcols([10, 10]))
    train(model, encoded, TrainConfig(batch_size=32, max_epochs=2, seed=0))
    rng = np.random.default_rng(0)
    for _ in range(20):
        for i in range(2):  # logits = c in every row; codes 0 and 9 get probability 0
            model.params[f"V{i}"].value[...] = 0
            model.params[f"c{i}"].value[:] = 3 * rng.normal(size=10)
            model.params[f"c{i}"].value[[0, -1]] = -1e4
        for u, expected in ((1.0 - 2.0**-53, 8), (0.0, 1)):
            monkeypatch.setattr(sampling, "_row_rng",
                                lambda seed, rows, k, domain=0: np.full((len(rows), k), u))
            out = generate(model, GenerationRequest(n_rows=5, seed=0))
            np.testing.assert_array_equal(out.data, expected)


def test_requested_order_changes_sampling(lookup_model):
    model, mapping, _ = lookup_model
    # reversed order: draw x2 from its marginal first, then x1 | x2
    out = generate(model, GenerationRequest(n_rows=400, order=[1, 0], temperature=1e-6, seed=3))
    inverse = np.argsort(mapping)
    np.testing.assert_array_equal(out.data[:, 0], inverse[out.data[:, 1]])


def test_condition_by_unknown_vocab_value_errors():
    table = make_table({"city": ["vienna", "linz", "graz", "linz"] * 5})
    encoders = fit_encoders(table, table.schema)
    encoded = encode_table(table, encoders)
    model = ArgnModel(encoders)
    train(model, encoded, TrainConfig(batch_size=10, max_epochs=2, seed=0))
    with pytest.raises(ValueError, match="city.*atlantis"):
        generate(model, GenerationRequest(n_rows=2, conditions={"city": "atlantis"}))


@pytest.fixture(scope="module")
def condition_model():
    n = 40
    table = make_table({"amount": [str(i % 9) for i in range(n)],
                        "digits": [f"{i % 13}.5" for i in range(n)],
                        "when": [f"2021-0{1 + i % 9}-1{i % 10}" for i in range(n)]},
                       kinds={"amount": "numeric", "digits": "numeric", "when": "datetime"})
    schema = TableSchema(tuple(replace(c, encoding="digit_split") if c.name == "digits" else c
                               for c in table.schema.columns))
    encoders = fit_encoders(table, schema, EncodingOptions(n_bins=4))
    model = ArgnModel(encoders)
    train(model, encode_table(table, encoders), TrainConfig(batch_size=16, max_epochs=1, seed=0))
    return model


@pytest.mark.parametrize("column,value", [("amount", "abc"), ("amount", "1e400"), ("amount", "nan"),
                                          ("digits", "abc"), ("digits", "-inf"),
                                          ("when", "2021-13-45"), ("when", "soon")])
def test_condition_by_a_value_that_does_not_parse_errors(condition_model, column, value):
    with pytest.raises(ValueError, match=f"{column}.*{value}.*not a finite"):
        generate(condition_model, GenerationRequest(n_rows=2, conditions={column: value}))


def test_condition_by_an_empty_value_means_missing_and_a_parsed_value_is_kept(condition_model):
    req = GenerationRequest(n_rows=6, conditions={"amount": "", "digits": "7.5", "when": ""}, seed=0)
    out = synthesize(condition_model, req)
    assert out.column_values("amount") == [None] * 6
    assert out.column_values("when") == [None] * 6
    assert out.column_values("digits") == ["7.5"] * 6


@pytest.mark.parametrize("column,value,message", [
    ("when", "1900-12-25", r"year 1900, outside the fitted years \[2021, 2021\]"),
    ("when", "2022-01-01", "year 2022"),
    ("when", "2021-05-05 10:00:00", "hour 10, but every fitted value has hour 0"),
    ("amount", "-1000", r"outside the fitted range \[0, 8\]"),
    ("amount", "8.01", "outside the fitted range"),
    ("digits", "100", r"outside the fitted range \[0, 99.9\]"),
    ("digits", "99.96", "outside the fitted range"),  # rounds to 100.0
    ("digits", "-1", "outside the fitted range"),  # no sign sub-column
])
def test_condition_by_a_value_the_encoder_would_clamp_errors(condition_model, column, value, message):
    """The fitted range bounds a condition: such a value used to be clamped,
    and every generated row carried another value (a 2021 date, a first-bin
    number) without a word."""
    with pytest.raises(ValueError, match=f"{column}.*{value}.*{message}"):
        generate(condition_model, GenerationRequest(n_rows=2, conditions={column: value}))


def test_condition_by_a_value_at_the_edge_of_the_fitted_range_is_kept(condition_model):
    req = GenerationRequest(n_rows=4, conditions={"amount": "0", "digits": "99.9", "when": "2021-12-25"})
    out = synthesize(condition_model, req)
    assert out.column_values("digits") == ["99.9"] * 4
    assert out.column_values("when") == ["2021-12-25"] * 4
    synthesize(condition_model, replace(req, conditions={"amount": "8", "digits": "0"}))


def test_fixed_order_model_rejects_other_orders():
    encoded, _ = lookup_table_data(n_rows=100)
    model = ArgnModel(subcols([10, 10]))
    train(model, encoded, TrainConfig(batch_size=32, max_epochs=2, order_mode="fixed", seed=0))
    with pytest.raises(ValueError, match="fixed order"):
        generate(model, GenerationRequest(n_rows=5, order=[1, 0]))
    # the trained order itself is fine
    generate(model, GenerationRequest(n_rows=5, order=[0, 1]))


def test_near_zero_temperature_conditioned_on_the_first_sub_column_recovers_lookup(lookup_model):
    model, mapping, _ = lookup_model
    for c in range(10):
        out = generate(model, GenerationRequest(n_rows=20, conditions={0: c}, temperature=1e-6, seed=1))
        np.testing.assert_array_equal(out.data[:, 0], c)  # the condition is kept
        np.testing.assert_array_equal(out.data[:, 1], mapping[c])


# -- synthesize ----------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline_model():
    table = make_table(
        {
            "color": (["red"] * 30 + ["blue"] * 20 + ["green"] * 10),
            "amount": [str(i % 37) for i in range(60)],
        },
        kinds={"amount": "numeric"},
    )
    encoders = fit_encoders(table, table.schema, EncodingOptions(n_bins=8))
    encoded = encode_table(table, encoders)
    model = ArgnModel(encoders)
    train(model, encoded, TrainConfig(batch_size=32, max_epochs=10, seed=0))
    return model, table


def test_synthesize_schema_matches_training_schema(pipeline_model):
    model, table = pipeline_model
    out = synthesize(model, GenerationRequest(n_rows=25, seed=0))
    assert out.column_names == table.column_names
    assert [c.kind for c in out.schema.columns] == [c.kind for c in table.schema.columns]
    assert out.row_count == 25


def test_synthesize_numeric_within_training_range(pipeline_model):
    model, table = pipeline_model
    out = synthesize(model, GenerationRequest(n_rows=200, seed=1))
    values = [float(v) for v in out.column_values("amount") if v is not None]
    assert min(values) >= 0.0
    assert max(values) <= 36.0


def test_synthesize_same_seed_same_rows(pipeline_model):
    model, _ = pipeline_model
    a = synthesize(model, GenerationRequest(n_rows=40, seed=11))
    b = synthesize(model, GenerationRequest(n_rows=40, seed=11))
    assert table_rows(a) == table_rows(b)


def test_generate_requires_trained_model():
    model = ArgnModel(subcols([10, 10]))
    with pytest.raises(ValueError, match="not trained"):
        generate(model, GenerationRequest(n_rows=1))


def test_temperature_validation():
    with pytest.raises(ValueError):
        GenerationRequest(n_rows=1, temperature=0.0)
    with pytest.raises(ValueError):
        GenerationRequest(n_rows=-1)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            GenerationRequest(n_rows=1, seed=seed)
