"""Harness tests: runner, loading, memory, table renderers."""
from __future__ import annotations

import contextlib
import dataclasses
import os
import re
import shutil

import duckdb
import pytest
from pyspark import StorageLevel
from pyspark.sql import functions as F

from repro.harness import tables as T
from repro.harness.loading import (
    TPCH_FKS,
    TPCH_PKS,
    arrow_in_memory_bytes,
    load_duckdb,
    load_parquet,
    load_tag,
)
from repro.harness.memory import (
    PeakRssSampler,
    process_tree_rss_bytes,
    total_system_memory_bytes,
)
from repro.harness.runner import BenchRunner, shuffle_write_bytes, speedup_class
from repro.tpch.queries import QUERIES as TPCH_QUERIES

BENCH_SF = 0.002
REPO = os.path.join(os.path.dirname(__file__), "..")
COMMITTED_RESULTS = os.path.join(REPO, "results")


@pytest.fixture(scope="module")
def runner(spark, tpch_data, tpch_graph):
    r = BenchRunner(spark, tpch_data, tpch_graph, reps=1)
    yield r
    r.close()


class TestRunner:
    @pytest.mark.parametrize("system", ["tag", "spark_sql", "duckdb"])
    def test_single_query_all_systems(self, runner, system):
        res = runner.run_query(TPCH_QUERIES["q6"], system)
        assert res.mean_s > 0
        assert res.system == system
        assert res.rows == 1  # scalar aggregate
        if system == "tag":
            assert res.messages is not None and res.messages >= 0
        assert (res.shuffle_bytes is None) == (system == "duckdb")

    def test_systems_agree_on_row_counts(self, runner):
        q = TPCH_QUERIES["q3"]
        counts = {
            s: runner.run_query(q, s).rows for s in ("tag", "spark_sql", "duckdb")
        }
        assert len(set(counts.values())) == 1, counts

    def test_wrong_tag_rows_raise(self, runner):
        """The checked run compares values, not only row counts: q6's one
        row with its revenue doubled fails against DuckDB."""
        q6 = TPCH_QUERIES["q6"]

        def wrong(graph, stats=False):
            df, rs = q6.tag(graph, stats)
            return df.select((F.col("revenue") * 2).alias("revenue")), rs

        with pytest.raises(AssertionError, match="q6 on tag"):
            runner.run_query(dataclasses.replace(q6, tag=wrong), "tag")

    def test_timed_run_row_count_checked(self, runner):
        """A timed run returning a different row count than the checked run
        fails the measurement."""
        q6 = TPCH_QUERIES["q6"]

        def unstable(graph, stats=False):
            df, rs = q6.tag(graph, stats)
            return (df if stats else df.union(df)), rs

        with pytest.raises(AssertionError, match="2 rows, checked run had 1"):
            runner.run_query(dataclasses.replace(q6, tag=unstable), "tag")

    def test_tag_runs_once_metered_then_reps_timed(self, runner):
        """TAG's first run is the checked, metered run (the warm-up); the
        ``reps`` timed runs follow, unmetered, and no run is added."""
        q6 = TPCH_QUERIES["q6"]
        calls = []

        def counted(graph, stats=False):
            calls.append(stats)
            return q6.tag(graph, stats)

        res = runner.run_query(dataclasses.replace(q6, tag=counted), "tag")
        assert calls == [True] + [False] * runner.reps
        _, stats = q6.run_tag(runner.graph, stats=True)
        assert res.messages == stats.total_messages()

    def test_run_workload_subset(self, runner):
        res = runner.run_workload(
            {"q6": TPCH_QUERIES["q6"]}, systems=("duckdb", "tag")
        )
        assert {r.system for r in res} == {"duckdb", "tag"}

    def test_shuffle_write_bytes_meters_a_shuffled_join(self, spark, tpch_data):
        """The conftest session runs with the UI and broadcast joins off: a
        shuffled join writes shuffle bytes, an identical run as many. Each
        run plans afresh: one DataFrame's second action reuses its shuffle."""
        orders, customer = tpch_data["orders"], tpch_data["customer"]

        def delta() -> int:
            before = shuffle_write_bytes(spark)
            orders.join(customer, F.col("o_custkey") == F.col("c_custkey")).collect()
            return shuffle_write_bytes(spark) - before

        first = delta()
        assert first > 0
        assert delta() == first

    @pytest.mark.parametrize(
        "tag_s,other_s,expected",
        [
            (1.0, 2.0, "outperforms"),
            (1.0, 1.1, "competitive"),
            (2.0, 1.0, "worse"),
            (1.0, 1.0, "competitive"),
        ],
    )
    def test_speedup_class(self, tag_s, other_s, expected):
        assert speedup_class(tag_s, other_s) == expected


class TestLoading:
    def test_load_tag(self, spark, tpch_data):
        res, graph = load_tag(spark, tpch_data)
        assert res.seconds > 0
        assert "tuple vertices" in res.detail
        graph.unpersist()

    def test_load_duckdb_with_indexes(self, tpch_data):
        res, _size = load_duckdb(tpch_data, TPCH_PKS, TPCH_FKS)
        assert res.seconds > 0
        assert "index" in res.detail

    def test_load_parquet_and_sizes(self, spark, tpch_data, tmp_path):
        res, nbytes = load_parquet(
            {"nation": tpch_data["nation"]}, str(tmp_path)
        )
        assert res.seconds > 0 and nbytes > 0

    def test_arrow_bytes_positive_and_bigger_than_parquet(
        self, spark, tpch_data, tmp_path
    ):
        subset = {"lineitem": tpch_data["lineitem"]}
        raw = arrow_in_memory_bytes(subset)
        _, pq = load_parquet(subset, str(tmp_path))
        assert raw > pq  # columnar compression shrinks the data (Table 15)


class TestMemory:
    def test_process_tree_rss_positive(self):
        rss = process_tree_rss_bytes()
        assert rss > 50 * 1024 * 1024  # python + JVM well over 50 MB

    def test_total_system_memory(self):
        assert total_system_memory_bytes() > 1 << 30

    def test_sampler_records_peak(self):
        with PeakRssSampler(interval=0.05) as s:
            _ = [bytearray(1 << 20) for _ in range(50)]
        assert s.peak_bytes > 0
        assert 0 < s.peak_fraction < 1


class TestTables:
    def test_render_table_alignment(self):
        text = T.render_table(
            ["a", "long_header"], [[1, 2.5], ["xx", 3.0]], title="T"
        )
        assert "## T" in text
        assert "long_header" in text
        assert "2.500" in text

    def test_sf_map_matches_paper(self):
        assert list(T.SF_MAP) == [30, 50, 75]
        assert T.SF_MAP[75] == 0.1

    def test_run_suite_tiny(self, spark):
        suite = T.run_suite(
            spark,
            "tpch",
            sfs=(BENCH_SF,),
            reps=1,
            systems=("duckdb", "tag"),
            queries={"q6": TPCH_QUERIES["q6"], "q19": TPCH_QUERIES["q19"]},
        )
        results = suite["sfs"][str(BENCH_SF)]
        assert {r["system"] for r in results} == {"duckdb", "tag"}
        assert {r["query"] for r in results} == {"q6", "q19"}
        text = T.render_all_queries(suite)
        assert "q6" in text and "tag_s" in text

    @pytest.mark.parametrize("raises", [False, True], ids=["exits", "raises"])
    def test_bench_releases_caches_and_duckdb(self, spark, raises):
        failing = pytest.raises(RuntimeError) if raises else contextlib.nullcontext()
        with failing:
            with T.bench(spark, "tpch", BENCH_SF, reps=1) as runner:
                frames = [*runner.graph.tuples.values(), *runner.tables.values()]
                assert all(df.storageLevel != StorageLevel.NONE for df in frames)
                if raises:
                    raise RuntimeError("body failed")
        assert all(df.storageLevel == StorageLevel.NONE for df in frames)
        with pytest.raises(duckdb.ConnectionException):
            runner._duck.execute("SELECT 1")

    def test_table_selectors_from_results(self):
        fake = []
        for q in sum(T.TABLE3_QUERIES.values(), []) + T.TABLE4_QUERIES:
            for s, v in (("tag", 1.0), ("duckdb", 2.0), ("spark_sql", 4.0)):
                fake.append({"query": q, "system": s, "mean_s": v})
        t3 = T.render_03(T.table_03(fake))
        assert "2.0x" in t3 and "4.0x" in t3
        t4 = T.render_04(T.table_04(fake))
        assert "q1" in t4

    def test_table_05_counts(self):
        fake = []
        for q, tag_t in (("a", 1.0), ("b", 1.0), ("c", 10.0)):
            fake.append({"query": q, "system": "tag", "mean_s": tag_t})
            fake.append({"query": q, "system": "duckdb", "mean_s": 2.0})
            fake.append({"query": q, "system": "spark_sql", "mean_s": 1.0})
        data = T.table_05(fake)
        assert data["duckdb"] == {"outperforms": 2, "competitive": 0, "worse": 1}
        assert data["spark_sql"]["worse"] == 1

    def test_table_14_aggregates(self):
        suite = {
            "sfs": {
                "0.1": [
                    {"query": "q6", "system": s, "mean_s": v}
                    for s, v in (("tag", 1.0), ("duckdb", 2.0), ("spark_sql", 3.0))
                ]
            }
        }
        data = T.table_14(suite, suite)
        assert data["tag"]["TPC-H@0.1"] == 1.0
        assert data["spark_sql"]["TPC-DS@0.1"] == 3.0


def _md_block(md: str, marker: str) -> str:
    """The fenced text under ``<!-- marker -->`` in EXPERIMENTS.md."""
    return re.search(rf"<!-- {marker} -->\n```\n(.*?)\n```", md, re.DOTALL).group(1)


class TestExperimentsMd:
    """EXPERIMENTS.md's measured blocks and ``jobs/run.py``'s output both
    come from one renderer per table (no Spark needed)."""

    @pytest.fixture
    def experiments(self, monkeypatch, tmp_path):
        """``jobs/update_experiments.py`` writing to a copy of EXPERIMENTS.md."""
        monkeypatch.syspath_prepend(os.path.join(REPO, "jobs"))
        import update_experiments

        md = tmp_path / "EXPERIMENTS.md"
        shutil.copy(update_experiments.MD, md)
        monkeypatch.setattr(update_experiments, "MD", str(md))
        return update_experiments

    def test_every_marker_has_one_renderer(self, experiments):
        with open(experiments.MD) as f:
            markers = re.findall(r"<!-- (TABLE\d+) -->", f.read())
        assert sorted(markers) == sorted(T.RENDERERS)

    def test_rerender_from_committed_results_is_noop(self, experiments, monkeypatch):
        monkeypatch.setattr(T, "RESULTS_DIR", COMMITTED_RESULTS)
        for name, _ in T.RENDERERS.values():
            assert os.path.exists(os.path.join(COMMITTED_RESULTS, name)), name
        with open(experiments.MD) as f:
            before = f.read()
        experiments.main()
        with open(experiments.MD) as f:
            assert f.read() == before

    def test_run_prints_the_experiments_blocks(self, monkeypatch, tmp_path, capsys):
        monkeypatch.syspath_prepend(os.path.join(REPO, "jobs"))
        import run

        for name in ("suite_tpch.json", "suite_tpcds.json"):
            shutil.copy(os.path.join(COMMITTED_RESULTS, name), tmp_path)
        monkeypatch.setattr(T, "RESULTS_DIR", str(tmp_path))
        numbers = (3, 4, 5, 6, 14)
        run.main([str(n) for n in numbers])
        printed = capsys.readouterr().out
        with open(os.path.join(REPO, "EXPERIMENTS.md")) as f:
            md = f.read()
        assert printed == "".join(f"{_md_block(md, f'TABLE{n:02d}')}\n" for n in numbers)
        for n in numbers:
            name = T.RENDERERS[f"TABLE{n:02d}"][0]
            with open(tmp_path / name) as new, open(os.path.join(COMMITTED_RESULTS, name)) as old:
                assert new.read() == old.read(), name

    @pytest.mark.parametrize("marker,name", [("TABLE16", "table16.json"), ("TABLE17", "table17.json")])
    def test_distributed_table_shows_zero_messages(
        self, experiments, monkeypatch, tmp_path, marker, name
    ):
        monkeypatch.setattr(T, "RESULTS_DIR", str(tmp_path))
        T.save_json(
            {
                "config": {"sf": 0.1, "reps": 2, "shuffle_partitions": 192},
                "results": [
                    {"query": "q1", "system": "tag", "mean_s": 1.0, "messages": 0, "shuffle_bytes": 0},
                    {"query": "q1", "system": "spark_sql", "mean_s": 2.0, "messages": None, "shuffle_bytes": 7},
                ],
                "totals": {"tag_s": 1.0, "spark_sql_s": 2.0,
                           "tag_shuffle_bytes": 0, "spark_sql_shuffle_bytes": 7},
            },
            name,
        )
        experiments.main()
        with open(experiments.MD) as f:
            block = _md_block(f.read(), marker)
        q1 = next(line for line in block.splitlines() if line.startswith("q1 "))
        assert [c.strip() for c in q1.split("|")] == ["q1", "2.000", "1.000", "0"]
