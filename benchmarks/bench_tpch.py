"""Benchmarks for paper Tables 3, 4, 8/9/10 (TPC-H per-query runtimes).

Each (query, system) pair is one benchmark; compare `tag` vs `spark_sql`
vs `duckdb` groups to read off the table's shape. The full 3-SF sweep is
`python jobs/run.py 8`.
"""
from __future__ import annotations

import pytest

from repro.tpch.queries import QUERIES

ALL = sorted(QUERIES)
SYSTEMS = ["duckdb", "spark_sql", "tag"]


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("name", ALL)
def test_tpch_query(benchmark, tpch_bench, name, system):
    q = QUERIES[name]
    fn = {
        "tag": lambda: tpch_bench._run_tag(q),
        "spark_sql": lambda: tpch_bench._run_spark_sql(q),
        "duckdb": lambda: tpch_bench._run_duckdb(q),
    }[system]
    benchmark.group = f"tpch-{name}"
    rows = benchmark.pedantic(fn, rounds=2, iterations=1, warmup_rounds=1)
    assert rows >= 0
