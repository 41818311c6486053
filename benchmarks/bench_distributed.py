"""Benchmarks for paper Tables 16/17: shuffle-heavy ('distributed') mode.

Raises shuffle partitions to emulate cluster-grade data movement, then
compares TAG-join vs Spark SQL on representative queries — the runtime
half of the distributed comparison; the communication half (message
counts / shuffle bytes) is produced by `python jobs/run.py 16 17`.
"""
from __future__ import annotations

import pytest

from repro.tpcds.queries import QUERIES as DS
from repro.tpch.queries import QUERIES as H

REPRESENTATIVE = [
    ("tpch", "q3"), ("tpch", "q10"), ("tpch", "q17"),
    ("tpcds", "ds_q7"), ("tpcds", "ds_q37"),
]
SYSTEMS = ["spark_sql", "tag"]


@pytest.fixture(scope="module")
def shuffle_heavy(spark):
    prev = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "192")
    yield
    spark.conf.set("spark.sql.shuffle.partitions", prev)


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("bench_name,qname", REPRESENTATIVE)
def test_distributed_mode(
    benchmark, shuffle_heavy, tpch_bench, tpcds_bench, bench_name, qname, system
):
    runner = tpch_bench if bench_name == "tpch" else tpcds_bench
    q = (H if bench_name == "tpch" else DS)[qname]
    fn = {
        "tag": lambda: runner._run_tag(q),
        "spark_sql": lambda: runner._run_spark_sql(q),
    }[system]
    benchmark.group = f"distributed-{qname}"
    benchmark.pedantic(fn, rounds=2, iterations=1, warmup_rounds=1)
