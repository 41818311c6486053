"""Reproduction of every table in the paper's evaluation section (§8).

Scale-factor mapping (DESIGN.md): the paper's SF 30/50/75 (GB) become our
SF 0.025/0.05/0.1 — same 1:2:3-ish progression, laptop-scale data.

Each ``table_XX`` function measures or derives a table's structured data,
which is saved under results/. One renderer per table turns that saved data
into rows shaped like the paper's table (``RENDERERS``, ``render``): the
same text ``jobs/run.py <table-number…|all>`` prints and
``jobs/update_experiments.py`` writes into EXPERIMENTS.md, next to the
paper's numbers.

The timing-bearing tables (3/4/8–13 and 5/6/14 derived from them) share
one measurement suite per benchmark (``run_suite``) so a query is timed
once per (sf, system) and every table derives from the same JSON results.
"""
from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import asdict
from typing import Callable, Iterable, Iterator

from pyspark.sql import DataFrame, SparkSession

from .. import synth_data
from ..core.tag import TAGGraph
from ..tpcds import synth as tpcds_synth
from ..tpcds.queries import QUERIES as TPCDS_QUERIES
from ..tpch.queries import QUERIES as TPCH_QUERIES
from .loading import (
    TPCDS_FKS,
    TPCDS_PKS,
    TPCH_FKS,
    TPCH_PKS,
    arrow_in_memory_bytes,
    load_duckdb,
    load_parquet,
    load_tag,
)
from .memory import PeakRssSampler
from .runner import BenchRunner, speedup_class

#: paper SF → our SF
SF_MAP = {30: 0.025, 50: 0.05, 75: 0.1}
DEFAULT_SFS = tuple(SF_MAP.values())

RESULTS_DIR = os.environ.get(
    "REPRO_RESULTS_DIR", os.path.join(os.path.dirname(__file__), "../../../results")
)


def _benchmark(name: str):
    if name == "tpch":
        return synth_data.tpch, TPCH_QUERIES, TPCH_PKS, TPCH_FKS
    if name == "tpcds":
        return tpcds_synth.tpcds, TPCDS_QUERIES, TPCDS_PKS, TPCDS_FKS
    raise ValueError(name)


def _cached_tables(
    spark: SparkSession, benchmark: str, sf: float
) -> dict[str, DataFrame]:
    """``benchmark``'s tables at ``sf``, cached and counted."""
    gen, _, _, _ = _benchmark(benchmark)
    tables = {k: v.cache() for k, v in gen(spark, sf=sf).items()}
    for df in tables.values():
        df.count()
    return tables


@contextmanager
def bench(
    spark: SparkSession, benchmark: str, sf: float, reps: int = 2
) -> Iterator[BenchRunner]:
    """A runner over ``benchmark``'s tables at ``sf``, cached, and their
    materialised TAG graph. On exit the graph and the tables are
    unpersisted and the runner's DuckDB connection is closed."""
    tables = _cached_tables(spark, benchmark, sf)
    graph = TAGGraph.encode(spark, tables)
    graph.materialize()
    runner = BenchRunner(spark, tables, graph, reps=reps)
    try:
        yield runner
    finally:
        graph.unpersist()
        for df in tables.values():
            df.unpersist()
        runner.close()


def run_suite(
    spark: SparkSession,
    benchmark: str = "tpch",
    sfs: Iterable[float] = DEFAULT_SFS,
    reps: int = 2,
    systems=("tag", "spark_sql", "duckdb"),
    queries: dict | None = None,
) -> dict:
    """Time every query × system at every SF; returns a JSON-able dict."""
    _, all_queries, _, _ = _benchmark(benchmark)
    queries = queries or all_queries
    out = {"benchmark": benchmark, "reps": reps, "sfs": {}}
    for sf in sfs:
        with bench(spark, benchmark, sf, reps=reps) as runner:
            results = runner.run_workload(queries, systems=systems)
        out["sfs"][str(sf)] = [asdict(r) for r in results]
    return out


def save_json(obj: dict, name: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as f:
        json.dump(obj, f, indent=1)
    return path


def load_json(name: str) -> dict:
    with open(os.path.join(RESULTS_DIR, name)) as f:
        return json.load(f)


def render_table(headers: list[str], rows: list[list], title: str = "") -> str:
    def fmt(v):
        if isinstance(v, float):
            return f"{v:.3f}"
        return str(v)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(f"## {title}")
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-|-".join("-" * w for w in widths))
    for r in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def largest(suite: dict) -> list[dict]:
    """The results of ``suite``'s largest SF, which Tables 3–6 select from."""
    return suite["sfs"][str(max(float(s) for s in suite["sfs"]))]


def _mean(results: list[dict], query: str, system: str) -> float:
    for r in results:
        if r["query"] == query and r["system"] == system:
            return r["mean_s"]
    raise KeyError((query, system))


# ---------------------------------------------------------------------------
# Tables 1 & 2: loading times
# ---------------------------------------------------------------------------


def table_loading(
    spark: SparkSession, benchmark: str, sfs: Iterable[float] = DEFAULT_SFS
) -> dict:
    """Tables 1/2: load time per system per SF (seconds). The paper's five
    RDBMS columns collapse to `duckdb` (load + PK/FK index build) and
    `spark_parquet`; `TAG_spark` is the graph build (no index build)."""
    _, _, pks, fks = _benchmark(benchmark)
    data: dict = {"benchmark": benchmark, "rows": []}
    for sf in sfs:
        tables = _cached_tables(spark, benchmark, sf)
        duck, _ = load_duckdb(tables, pks, fks)
        with tempfile.TemporaryDirectory() as d:
            pq, pq_bytes = load_parquet(tables, d)
        tag, graph = load_tag(spark, tables)
        graph.unpersist()
        for df in tables.values():
            df.unpersist()
        data["rows"].append(
            {
                "sf": sf,
                "duckdb_s": duck.seconds,
                "spark_parquet_s": pq.seconds,
                "tag_s": tag.seconds,
                "parquet_bytes": pq_bytes,
                "tag_detail": tag.detail,
            }
        )
    return data


def render_loading(data: dict) -> str:
    """Tables 1/2: one row per SF."""
    rows = [
        [f"SF-{r['sf']}", r["duckdb_s"], r["spark_parquet_s"], r["tag_s"]]
        for r in data["rows"]
    ]
    n = 1 if data["benchmark"] == "tpch" else 2
    return render_table(
        ["SF", "duckdb load+index (s)", "parquet (s)", "TAG build (s)"],
        rows,
        f"Table {n}: {data['benchmark']} loading times (s)",
    )


# ---------------------------------------------------------------------------
# Tables 3 & 4: selected TPC-H queries at the largest SF
# ---------------------------------------------------------------------------

TABLE3_QUERIES = {"LA": ["q3", "q4", "q5", "q10"], "Corr": ["q2", "q17", "q20"]}
TABLE4_QUERIES = ["q1", "q6", "q7", "q9", "q19"]


def _speedups(results_75: list[dict], selected: dict[str, list[str]]) -> dict:
    """TAG runtime + speedup over each system for the ``selected`` queries
    of each class (Tables 3 and 6)."""
    data = []
    for cls, names in selected.items():
        for q in names:
            tag = _mean(results_75, q, "tag")
            duck = _mean(results_75, q, "duckdb")
            sql = _mean(results_75, q, "spark_sql")
            data.append(
                {"class": cls, "query": q, "tag_s": tag,
                 "duckdb_speedup": duck / tag, "spark_sql_speedup": sql / tag}
            )
    return {"rows": data}


def _render_speedups(data: dict, title: str) -> str:
    rows = [
        [f"{r['class']}:{r['query']}", r["tag_s"],
         f"{r['duckdb_speedup']:.1f}x", f"{r['spark_sql_speedup']:.1f}x"]
        for r in data["rows"]
    ]
    return render_table(["query", "TAG_s", "duckdb", "spark_sql"], rows, title)


def table_03(results_75: list[dict]) -> dict:
    """Table 3: TAG runtime + speedup over each system, LA + Corr queries."""
    return _speedups(results_75, TABLE3_QUERIES)


def render_03(data: dict) -> str:
    return _render_speedups(
        data, "Table 3: TPC-H LA & correlated queries @ largest SF (TAG speedups)"
    )


def table_04(results_75: list[dict]) -> dict:
    """Table 4: GA / scalar-GA query runtimes (seconds, all systems)."""
    data = []
    for q in TABLE4_QUERIES:
        tag = _mean(results_75, q, "tag")
        duck = _mean(results_75, q, "duckdb")
        sql = _mean(results_75, q, "spark_sql")
        data.append({"query": q, "tag_s": tag, "duckdb_s": duck, "spark_sql_s": sql})
    return {"rows": data}


def render_04(data: dict) -> str:
    rows = [
        [r["query"], r["tag_s"], r["duckdb_s"], r["spark_sql_s"]]
        for r in data["rows"]
    ]
    return render_table(
        ["query", "TAG_s", "duckdb_s", "spark_sql_s"],
        rows,
        "Table 4: TPC-H GA & scalar queries @ largest SF (runtimes)",
    )


# ---------------------------------------------------------------------------
# Tables 5 & 6: TPC-DS summary and selected speedups
# ---------------------------------------------------------------------------


def table_05(results_75: list[dict]) -> dict:
    """Table 5: #queries where TAG outperforms / is competitive / is worse
    against each comparison system (>1.2x thresholds)."""
    queries = sorted({r["query"] for r in results_75})
    data = {}
    for system in ("duckdb", "spark_sql"):
        counts = {"outperforms": 0, "competitive": 0, "worse": 0}
        for q in queries:
            counts[
                speedup_class(_mean(results_75, q, "tag"), _mean(results_75, q, system))
            ] += 1
        data[system] = counts
    return data


def render_05(data: dict) -> str:
    rows = [
        [sys, c["outperforms"], c["competitive"], c["worse"]]
        for sys, c in data.items()
    ]
    n_queries = sum(data["duckdb"].values())
    return render_table(
        ["vs system", "outperforms", "competitive", "worse"],
        rows,
        f"Table 5: TPC-DS win/competitive/worse counts ({n_queries} queries)",
    )


TABLE6_QUERIES = {
    "No agg": ["ds_q37", "ds_q84"],
    "Local": ["ds_q7", "ds_q12", "ds_q33", "ds_q98"],
    "Global": ["ds_q45", "ds_q69", "ds_q32"],
    "Corr": ["ds_q6"],
}


def table_06(results_75: list[dict]) -> dict:
    """Table 6: TAG runtime + speedup over each system, per TPC-DS class."""
    return _speedups(results_75, TABLE6_QUERIES)


def render_06(data: dict) -> str:
    return _render_speedups(
        data, "Table 6: selected TPC-DS queries @ largest SF (TAG speedups)"
    )


# ---------------------------------------------------------------------------
# Table 7: peak RAM during workload execution
# ---------------------------------------------------------------------------


def table_07(spark: SparkSession, sf: float = 0.1, reps: int = 1) -> dict:
    data = {}
    for benchmark in ("tpch", "tpcds"):
        _, queries, _, _ = _benchmark(benchmark)
        with bench(spark, benchmark, sf, reps=reps) as runner:
            for q in queries.values():  # DuckDB's rows, outside the sampled windows
                runner.expected(q)
            per_system = {}
            for system in ("tag", "spark_sql", "duckdb"):
                with PeakRssSampler(interval=0.5) as sampler:
                    runner.run_workload(queries, systems=(system,))
                per_system[system] = sampler.peak_fraction
            data[benchmark] = per_system
    return data


def render_07(data: dict) -> str:
    rows = [
        [bm] + [f"{data[bm][s] * 100:.1f}%" for s in ("tag", "spark_sql", "duckdb")]
        for bm in data
    ]
    return render_table(
        ["benchmark", "tag", "spark_sql", "duckdb"],
        rows,
        "Table 7: peak RAM (process tree RSS / machine RAM) during workload",
    )


# ---------------------------------------------------------------------------
# Tables 8-13: full per-query runtimes per SF
# ---------------------------------------------------------------------------


def render_all_queries(suite: dict) -> str:
    """Tables 8/9/10 (TPC-H) or 11/12/13 (TPC-DS) from ``run_suite``'s
    results: per-query runtimes at each SF, all systems."""
    texts = []
    benchmark = suite["benchmark"]
    base = 8 if benchmark == "tpch" else 11
    for i, (sf, results) in enumerate(sorted(suite["sfs"].items(), reverse=True)):
        queries = sorted({r["query"] for r in results})
        systems = [
            s
            for s in ("duckdb", "spark_sql", "tag")
            if any(r["system"] == s for r in results)
        ]
        rows = [
            [q] + [_mean(results, q, s) for s in systems] for q in queries
        ]
        texts.append(
            render_table(
                ["query"] + [f"{s}_s" for s in systems],
                rows,
                f"Table {base + i}: {benchmark} per-query runtimes @ SF {sf}",
            )
        )
    return "\n\n".join(texts)


# ---------------------------------------------------------------------------
# Table 14: aggregate runtimes
# ---------------------------------------------------------------------------


def table_14(suite_h: dict, suite_ds: dict) -> dict:
    data = {}
    for name, suite in (("TPC-H", suite_h), ("TPC-DS", suite_ds)):
        for sf, results in sorted(suite["sfs"].items()):
            for system in ("duckdb", "spark_sql", "tag"):
                total = sum(
                    r["mean_s"] for r in results if r["system"] == system
                )
                data.setdefault(system, {})[f"{name}@{sf}"] = total
    return data


def render_14(data: dict) -> str:
    cols = sorted(next(iter(data.values())).keys())
    rows = [[system] + [data[system][c] for c in cols] for system in data]
    return render_table(
        ["system"] + cols, rows, "Table 14: aggregate runtimes (s)"
    )


# ---------------------------------------------------------------------------
# Table 15: columnar store sizes
# ---------------------------------------------------------------------------


def table_15(spark: SparkSession, sfs: Iterable[float] = DEFAULT_SFS) -> dict:
    """Table 15: uncompressed in-memory (Arrow) size vs compressed columnar
    (parquet) size — the RDBMS-X IM column-store compression analogue."""
    data = {"rows": []}
    for benchmark in ("tpch", "tpcds"):
        gen, *_ = _benchmark(benchmark)
        for sf in sfs:
            tables = gen(spark, sf=sf)
            raw = arrow_in_memory_bytes(tables)
            with tempfile.TemporaryDirectory() as d:
                _, pq_bytes = load_parquet(tables, d)
            data["rows"].append(
                {
                    "benchmark": benchmark,
                    "sf": sf,
                    "arrow_bytes": raw,
                    "parquet_bytes": pq_bytes,
                }
            )
    return data


def render_15(data: dict) -> str:
    rows = [
        [
            r["benchmark"],
            r["sf"],
            f"{r['arrow_bytes'] / 1e6:.1f}",
            f"{r['parquet_bytes'] / 1e6:.1f}",
        ]
        for r in data["rows"]
    ]
    return render_table(
        ["benchmark", "SF", "in-memory MB", "columnar MB"],
        rows,
        "Table 15: data size vs compressed columnar size",
    )


# ---------------------------------------------------------------------------
# Tables 16 & 17: 'distributed' TAG vs Spark SQL (+ network-traffic proxy)
# ---------------------------------------------------------------------------


def table_distributed(
    spark: SparkSession,
    benchmark: str,
    sf: float = 0.1,
    reps: int = 2,
    shuffle_partitions: int = 192,
) -> dict:
    """Tables 16/17: TAG-join vs Spark SQL under a shuffle-heavy config.

    The cluster becomes many shuffle partitions on one box; communication is
    metered as TAG message counts and shuffle-write bytes — the local
    equivalent of Figure 9(b)'s network traffic. The run configuration
    (``sf``, ``reps``, ``shuffle_partitions``) is returned with the results."""
    prev = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", str(shuffle_partitions))
    try:
        _, queries, _, _ = _benchmark(benchmark)
        with bench(spark, benchmark, sf, reps=reps) as runner:
            results = runner.run_workload(queries, systems=("tag", "spark_sql"))
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", prev)
    res = [asdict(r) for r in results]
    tag_total = sum(r["mean_s"] for r in res if r["system"] == "tag")
    sql_total = sum(r["mean_s"] for r in res if r["system"] == "spark_sql")
    tag_sb = sum(r["shuffle_bytes"] or 0 for r in res if r["system"] == "tag")
    sql_sb = sum(r["shuffle_bytes"] or 0 for r in res if r["system"] == "spark_sql")
    return {
        "config": {"sf": sf, "reps": reps, "shuffle_partitions": shuffle_partitions},
        "results": res,
        "totals": {
            "tag_s": tag_total,
            "spark_sql_s": sql_total,
            "tag_shuffle_bytes": tag_sb,
            "spark_sql_shuffle_bytes": sql_sb,
        },
    }


def _render_distributed(data: dict, title: str) -> str:
    """A title naming the run configuration, one row per query (TAG's
    message count last), then a TOTAL row with both systems' summed
    runtimes and shuffle-write bytes."""
    c = data["config"]
    title += (
        f" (SF {c['sf']}, {c['reps']} timed reps,"
        f" {c['shuffle_partitions']} shuffle partitions)"
    )
    res = data["results"]
    rows = [
        [q, _mean(res, q, "spark_sql"), _mean(res, q, "tag"),
         next(r["messages"] for r in res if r["query"] == q and r["system"] == "tag")]
        for q in sorted({r["query"] for r in res})
    ]
    t = data["totals"]
    rows.append(
        ["TOTAL", t["spark_sql_s"], t["tag_s"],
         f"shuffleB sql={t['spark_sql_shuffle_bytes']} tag={t['tag_shuffle_bytes']}"]
    )
    return render_table(["query", "spark_sql_s", "TAG_s", "TAG msgs"], rows, title)


def render_16(data: dict) -> str:
    return _render_distributed(data, "Table 16: distributed-mode tpch, TAG vs Spark SQL")


def render_17(data: dict) -> str:
    return _render_distributed(data, "Table 17: distributed-mode tpcds, TAG vs Spark SQL")


#: EXPERIMENTS.md marker → (the results/*.json its table is saved in, the
#: renderer of that saved data). Tables 9/10 and 12/13 render inside
#: TABLE08 and TABLE11.
RENDERERS: dict[str, tuple[str, Callable[[dict], str]]] = {
    "TABLE01": ("table01_tpch_loading.json", render_loading),
    "TABLE02": ("table02_tpcds_loading.json", render_loading),
    "TABLE03": ("table03.json", render_03),
    "TABLE04": ("table04.json", render_04),
    "TABLE05": ("table05.json", render_05),
    "TABLE06": ("table06.json", render_06),
    "TABLE07": ("table07.json", render_07),
    "TABLE08": ("suite_tpch.json", render_all_queries),
    "TABLE11": ("suite_tpcds.json", render_all_queries),
    "TABLE14": ("table14.json", render_14),
    "TABLE15": ("table15.json", render_15),
    "TABLE16": ("table16.json", render_16),
    "TABLE17": ("table17.json", render_17),
}


def render(marker: str) -> str:
    """The text of ``marker``'s table, rendered from its saved results."""
    name, render_data = RENDERERS[marker]
    return render_data(load_json(name))


# ---------------------------------------------------------------------------
# Standalone-session helper for jobs/
# ---------------------------------------------------------------------------


def job_session(app: str) -> SparkSession:
    """Session for the table jobs (tests use the conftest fixture), with the
    conftest's shuffle-partition, Arrow and broadcast-join settings."""
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
