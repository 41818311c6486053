"""DuckDB correctness oracle.

``assert_equivalent(spark_df, sql, **tables)`` runs ``sql`` in DuckDB
over ``tables`` and asserts the sorted rows match ``spark_df`` (the
Spark result) with ``assert_same_rows(got_pdf, expected_pdf)``, which
compares two pandas results directly. This catches wrong results from a
rewritten plan or a custom operator — "it ran" is not "it is correct".

``tables`` may be Spark or pandas DataFrames; Spark inputs are
collected via ``.toPandas()``. Alias every output column identically
on both sides (Spark names ``count(*)`` as ``count(1)``, DuckDB as
``count_star()``) and project to scalar columns — array/map/struct
columns are not orderable so cannot be compared here.
"""
from datetime import date, datetime

import duckdb
import pandas as pd
from pyspark.sql import DataFrame


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.columns:
        # Normalise date representations: Spark returns datetime.date
        # objects (object dtype) while DuckDB returns datetime64 — same
        # values, different dtype.
        if str(pdf[c].dtype).startswith("datetime64"):
            pdf[c] = pd.to_datetime(pdf[c]).astype("datetime64[us]")
        elif pdf[c].dtype == object:
            sample = pdf[c].dropna()
            if len(sample) and isinstance(sample.iloc[0], (date, datetime)):
                pdf[c] = pd.to_datetime(pdf[c]).astype("datetime64[us]")
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def assert_same_rows(got: pd.DataFrame, expected: pd.DataFrame) -> None:
    """``got`` and ``expected`` hold the same columns and the same bag of
    rows, compared in a canonical column and row order."""
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(
        _canon(got), _canon(expected), check_dtype=False
    )


def assert_equivalent(spark_df: DataFrame, sql: str, **tables) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toPandas() if isinstance(t, DataFrame) else t)
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    assert_same_rows(spark_df.toPandas(), expected)
