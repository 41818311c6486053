"""Benchmark runner: TAG-join vs Spark SQL vs DuckDB on identical queries.

The paper's single-server comparison (§8.1.3) runs TigerGraph TAG-join
against PostgreSQL, RDBMS-X (row + in-memory column store), RDBMS-Y and
Spark SQL. Offline substitutions (DESIGN.md):

- ``tag``       — our TAG-join dataflow execution over the cached TAG graph;
  it picks its own semijoins' exchange, broadcasting their message sets
  (``core/reduction.py``) whatever the session threshold;
- ``spark_sql`` — the paper's actual comparator: plain Spark SQL over the
  same cached tables (broadcast joins disabled session-wide, as conftest);
- ``duckdb``    — stand-in for the reference RDBMS columns (an in-memory
  columnar RDBMS, closest in spirit to RDBMS-X IM).

Methodology mirrors §8.1.5: one warm-up run, then ``reps`` timed runs,
reporting the average. The warm-up is the checked run: its rows must equal
DuckDB's for the same SQL, and for TAG it is the metered run that gives the
message count (RunStats). Each timed run must return as many rows as the
checked run. Timed results are materialised (``collect``) so both engines
pay their full execution cost. Communication is metered as TAG message
counts and, for *both* Spark-backed systems, the shuffle-write bytes of the
timed runs (``shuffle_write_bytes``).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import duckdb
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..core.tag import TAGGraph
from ..oracle import assert_same_rows
from ..query import Query

SYSTEMS = ("tag", "spark_sql", "duckdb")


@dataclass
class QueryResult:
    query: str
    system: str
    mean_s: float
    runs_s: list[float] = field(default_factory=list)
    rows: int = 0
    agg_class: str = ""
    paper_class: str = ""
    messages: int | None = None  # TAG communication (checked run's count)
    shuffle_bytes: int | None = None  # Spark shuffle write delta


def shuffle_write_bytes(spark: SparkSession) -> int:
    """Shuffle-write bytes of every executor since the session started.

    The distributed experiment (§8.6.3) reports network traffic via `sar`;
    locally the equivalent quantity is the bytes crossing the shuffle — the
    data that would traverse the network on a cluster. The driver's status
    store keeps this per-executor counter with the Spark UI on or off, and
    no stage-retention limit applies to it. The listener bus is drained
    first so every finished task is counted."""
    sc = spark.sparkContext._jsc.sc()
    sc.listenerBus().waitUntilEmpty()
    executors = sc.statusStore().executorList(False)
    return sum(
        executors.apply(i).totalShuffleWrite() for i in range(executors.size())
    )


class BenchRunner:
    """Times the three systems over one dataset + query workload."""

    def __init__(
        self,
        spark: SparkSession,
        tables: dict,  # name -> Spark DataFrame (cached)
        graph: TAGGraph,
        reps: int = 3,
    ):
        self.spark = spark
        self.tables = tables
        self.graph = graph
        self.reps = reps
        self._duck = duckdb.connect()
        for name, df in tables.items():
            self._duck.register(name, df.toPandas())
        self._expected: dict[str, pd.DataFrame] = {}

    def close(self) -> None:
        self._duck.close()

    def expected(self, q: Query) -> pd.DataFrame:
        """DuckDB's rows for ``q.sql`` over this runner's tables, computed
        once per query: what every system's checked run must return."""
        if q.sql not in self._expected:
            self._expected[q.sql] = self._duck.execute(q.sql).fetchdf()
        return self._expected[q.sql]

    # -- per-system single executions ------------------------------------

    def _spark_sql(self, q: Query) -> DataFrame:
        # Re-register this runner's views: TPC-H and TPC-DS share table
        # names (e.g. `customer`), and runners for both benchmarks can
        # coexist on one session. Registration is metadata-only (~ms).
        for t in q.tables:
            self.tables[t].createOrReplaceTempView(t)
        return self.spark.sql(q.sql)

    def _checked_run(self, q: Query, system: str) -> tuple[pd.DataFrame, int | None]:
        """``q``'s rows on ``system`` and, for TAG, the message count of
        this (metered) run."""
        if system == "tag":
            df, stats = q.run_tag(self.graph, stats=True)
            return df.toPandas(), stats.total_messages()
        if system == "spark_sql":
            return self._spark_sql(q).toPandas(), None
        return self._duck.execute(q.sql).fetchdf(), None

    def _timed_run(self, q: Query, system: str) -> int:
        """One unmetered run of ``q`` on ``system``; returns its row count."""
        if system == "tag":
            df, _ = q.run_tag(self.graph)
            return len(df.collect())
        if system == "spark_sql":
            return len(self._spark_sql(q).collect())
        return len(self._duck.execute(q.sql).fetchall())

    def run_query(self, q: Query, system: str) -> QueryResult:
        """One checked run of ``q`` on ``system`` (the warm-up), then
        ``reps`` timed runs, each returning as many rows as the checked one."""
        if system not in SYSTEMS:
            raise ValueError(f"unknown system {system!r}")
        got, messages = self._checked_run(q, system)
        try:
            assert_same_rows(got, self.expected(q))
        except AssertionError as e:
            raise AssertionError(
                f"{q.name} on {system}: rows differ from DuckDB's"
            ) from e
        shuffle_before = shuffle_write_bytes(self.spark)
        runs = []
        for _ in range(self.reps):
            t0 = time.perf_counter()
            rows = self._timed_run(q, system)
            runs.append(time.perf_counter() - t0)
            if rows != len(got):
                raise AssertionError(
                    f"{q.name} on {system}: {rows} rows, checked run had {len(got)}"
                )
        return QueryResult(
            query=q.name,
            system=system,
            mean_s=sum(runs) / len(runs),
            runs_s=runs,
            rows=len(got),
            agg_class=q.agg_class,
            paper_class=q.paper_class,
            messages=messages,
            shuffle_bytes=(
                shuffle_write_bytes(self.spark) - shuffle_before
                if system != "duckdb"
                else None
            ),
        )

    def run_workload(
        self,
        queries: dict[str, Query],
        systems: tuple[str, ...] = SYSTEMS,
    ) -> list[QueryResult]:
        return [
            self.run_query(queries[name], system)
            for name in sorted(queries)
            for system in systems
        ]


def speedup_class(tag_s: float, other_s: float) -> str:
    """Paper Table 5 buckets: TAG 'outperforms' (>1.2x faster),
    'competitive' (within 1.2x either way) or 'worse'."""
    if other_s > 1.2 * tag_s:
        return "outperforms"
    if tag_s > 1.2 * other_s:
        return "worse"
    return "competitive"
