"""Loading-time and storage-size experiments (paper Tables 1, 2, 15).

The paper measures (a) time to load + index each dataset into every system
(TAG graph build needs no extra indexes — attribute vertices *are* the
index) and (b) the loaded sizes, including the RDBMS-X in-memory column
store segment sizes. Offline equivalents:

- **TAG load**   — encode the relations into the TAG graph and build each
  relation's one Spark cache, its tuple table, with one counting aggregate
  per relation (every edge table is a column view of that cache, so the
  graph is then resident, like TigerGraph's in-memory mode);
- **RDBMS load** — create DuckDB tables from the data, then build PK and FK
  indexes per the TPC protocol (ART indexes, DuckDB's analogue of B-trees);
- **columnar / parquet** — write the tables as Parquet (the Spark SQL
  source in §8.1.3) and record the compressed on-disk bytes vs the
  uncompressed in-memory Arrow bytes (Table 15's columnar-compression
  comparison).
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass

import duckdb
from pyspark.sql import DataFrame, SparkSession

from ..core.tag import TAGGraph

#: (table, pk columns) and (table, fk column) index specs per benchmark.
TPCH_PKS = {
    "region": ["r_regionkey"],
    "nation": ["n_nationkey"],
    "supplier": ["s_suppkey"],
    "customer": ["c_custkey"],
    "part": ["p_partkey"],
    "partsupp": ["ps_partkey", "ps_suppkey"],
    "orders": ["o_orderkey"],
    "lineitem": ["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey"],
}
TPCH_FKS = [
    ("nation", "n_regionkey"),
    ("supplier", "s_nationkey"),
    ("customer", "c_nationkey"),
    ("partsupp", "ps_suppkey"),
    ("orders", "o_custkey"),
    ("lineitem", "l_orderkey"),
    ("lineitem", "l_partkey"),
    ("lineitem", "l_suppkey"),
]
TPCDS_PKS = {
    "date_dim": ["d_date_sk"],
    "item": ["i_item_sk"],
    "customer": ["c_customer_sk"],
    "customer_address": ["ca_address_sk"],
    "store": ["s_store_sk"],
}
TPCDS_FKS = [
    ("customer", "c_current_addr_sk"),
    ("store_sales", "ss_item_sk"),
    ("store_sales", "ss_sold_date_sk"),
    ("store_sales", "ss_customer_sk"),
    ("catalog_sales", "cs_item_sk"),
    ("web_sales", "ws_item_sk"),
]


@dataclass
class LoadResult:
    system: str
    seconds: float
    detail: str = ""


def load_tag(spark: SparkSession, tables: dict[str, DataFrame]) -> tuple[LoadResult, TAGGraph]:
    """Build + materialise the TAG graph; no separate index build (§8.2)."""
    t0 = time.perf_counter()
    graph = TAGGraph.encode(spark, tables)
    stats = graph.materialize()
    dt = time.perf_counter() - t0
    return (
        LoadResult(
            system="TAG_spark",
            seconds=dt,
            detail=(
                f"{stats.total_tuple_vertices} tuple vertices, "
                f"{stats.total_edges} edges (attribute vertices act as the "
                "index — nothing else to build)"
            ),
        ),
        graph,
    )


def load_duckdb(
    tables: dict[str, DataFrame],
    pks: dict[str, list[str]],
    fks: list[tuple[str, str]],
    db_path: str | None = None,
) -> tuple[LoadResult, int]:
    """Load into DuckDB + build PK/FK indexes (the RDBMS protocol).

    Returns the load result and the database size in bytes (0 for the
    in-memory default)."""
    con = duckdb.connect(db_path or ":memory:")
    try:
        pdfs = {name: df.toPandas() for name, df in tables.items()}
        t0 = time.perf_counter()
        for name, pdf in pdfs.items():
            con.register(f"_src_{name}", pdf)
            con.execute(f"CREATE TABLE {name} AS SELECT * FROM _src_{name}")
        for name, cols in pks.items():
            if name in tables:
                con.execute(
                    f"CREATE UNIQUE INDEX pk_{name} ON {name} ({', '.join(cols)})"
                )
        for name, col in fks:
            if name in tables:
                con.execute(f"CREATE INDEX fk_{name}_{col} ON {name} ({col})")
        dt = time.perf_counter() - t0
    finally:
        con.close()
    size = os.path.getsize(db_path) if db_path and os.path.exists(db_path) else 0
    return LoadResult(system="duckdb", seconds=dt, detail="incl. PK+FK indexes"), size


def load_parquet(
    tables: dict[str, DataFrame], out_dir: str
) -> tuple[LoadResult, int]:
    """Write the Spark SQL source format (compressed columnar Parquet)."""
    t0 = time.perf_counter()
    for name, df in tables.items():
        df.write.mode("overwrite").parquet(os.path.join(out_dir, name))
    dt = time.perf_counter() - t0
    total = 0
    for root, _dirs, files in os.walk(out_dir):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return LoadResult(system="spark_parquet", seconds=dt, detail="snappy parquet"), total


def arrow_in_memory_bytes(tables: dict[str, DataFrame]) -> int:
    """Uncompressed columnar (Arrow) footprint — Table 15's 'data size'."""
    import pyarrow as pa

    total = 0
    for df in tables.values():
        tbl = pa.Table.from_pandas(df.toPandas())
        total += tbl.nbytes
    return total
