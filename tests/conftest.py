import numpy as np
import pytest

from argn.tables import ColumnSpec, RawTable, TableSchema


def make_table(columns: dict[str, list], kinds: dict[str, str] | None = None) -> RawTable:
    """Build a RawTable from column lists; None cells stay missing.

    kinds maps column name -> kind; unspecified columns default to
    categorical.
    """
    kinds = kinds or {}
    names = list(columns)
    specs = []
    for n in names:
        kind = kinds.get(n, "categorical")
        encoding = {
            "categorical": "category_map",
            "numeric": "percentile_bins",
            "datetime": "datetime_parts",
        }[kind]
        specs.append(ColumnSpec(n, kind, encoding))
    cells = [[None if v is None else str(v) for v in columns[n]] for n in names]
    return RawTable(TableSchema(tuple(specs)), cells)


def table_rows(table: RawTable) -> list[list]:
    """The table's cells, row by row."""
    return table.cells


def mixed_sample_table(n_rows: int, seed: int) -> RawTable:
    """Correlated mixed-type table used across training/metric/audit tests.

    Two latent factors drive two numerics and two categoricals, so there is
    real structure to learn (and to overfit)."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n_rows)
    num_a = z + 0.1 * rng.normal(size=n_rows)
    num_b = z * z + 0.2 * rng.normal(size=n_rows)
    cat_a = np.digitize(z, [-1.0, -0.3, 0.3, 1.0])  # 5 ordered buckets
    flip = rng.random(n_rows) < 0.1
    cat_b = np.where((z > 0) ^ flip, "pos", "neg")
    return make_table(
        {
            "num_a": [f"{v:.4f}" for v in num_a],
            "num_b": [f"{v:.4f}" for v in num_b],
            "cat_a": [f"bucket{int(c)}" for c in cat_a],
            "cat_b": list(cat_b),
        },
        kinds={"num_a": "numeric", "num_b": "numeric"},
    )


def acceptance_table(n_rows: int, seed: int) -> RawTable:
    """mixed_sample_table plus an unpredictable 30-level tag column.

    The tag carries no signal, so a well-regularized model can only
    reproduce its marginal; memorizing tag combinations is pure overfitting
    and shows up as a left-shifted DCR distribution."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n_rows)
    num_a = z + 0.1 * rng.normal(size=n_rows)
    num_b = z * z + 0.2 * rng.normal(size=n_rows)
    cat_a = np.digitize(z, [-1.0, -0.3, 0.3, 1.0])
    flip = rng.random(n_rows) < 0.1
    cat_b = np.where((z > 0) ^ flip, "pos", "neg")
    return make_table(
        {
            "num_a": [f"{v:.4f}" for v in num_a],
            "num_b": [f"{v:.4f}" for v in num_b],
            "cat_a": [f"bucket{int(c)}" for c in cat_a],
            "cat_b": list(cat_b),
            "tag": [f"t{v}" for v in rng.integers(0, 30, size=n_rows)],
        },
        kinds={"num_a": "numeric", "num_b": "numeric"},
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
