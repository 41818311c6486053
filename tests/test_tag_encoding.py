"""TAG encoding tests (§3): vertex/edge structure, sharing, lazy edges."""
from __future__ import annotations

import pandas as pd
import pytest
from pyspark import StorageLevel
from pyspark.sql import functions as F

from repro.core.tag import TAGGraph, TID, VAL, default_attribute_columns

from .sparkjobs import spark_jobs


@pytest.fixture(scope="module")
def small_graph(spark):
    rels = {
        "R": spark.createDataFrame(
            pd.DataFrame({"a": [1, 2, 2], "b": ["x", "y", None], "f": [1.5, 2.5, 3.5]})
        ),
        "S": spark.createDataFrame(pd.DataFrame({"b": ["x", "x"], "c": [7, 8]})),
    }
    return TAGGraph.encode(spark, rels), rels


class TestEncoding:
    def test_tids_unique_per_relation(self, small_graph):
        g, _ = small_graph
        for name, t in g.tuples.items():
            assert t.count() == t.select(TID).distinct().count()

    def test_one_tuple_vertex_per_tuple_even_duplicates(self, spark):
        rels = {"R": spark.createDataFrame(pd.DataFrame({"a": [1, 1, 1]}))}
        g = TAGGraph.encode(spark, rels)
        # duplicates each get a fresh tuple vertex (§3 step 1)
        assert g.tuples["R"].count() == 3
        assert g.tuples["R"].select(TID).distinct().count() == 3

    def test_edge_count_equals_nonnull_occurrences(self, small_graph):
        g, rels = small_graph
        # R.b has one NULL → 2 edges; R.a has 3 edges
        assert g.edge("R", "a").count() == 3
        assert g.edge("R", "b").count() == 2

    def test_attribute_vertices_shared_across_relations(self, small_graph):
        g, _ = small_graph
        # value "x" occurs in R.b and S.b but is one attribute vertex (§3
        # step 2): the distinct union of the labels' values counts it once.
        vals = (
            g.edge("R", "b").select(VAL).union(g.edge("S", "b").select(VAL))
            .distinct().toPandas()
        )
        assert sorted(vals[VAL]) == ["x", "y"]

    def test_float_columns_not_materialized_by_default(self, small_graph):
        g, _ = small_graph
        assert "f" not in g.edges["R"]

    def test_lazy_edge_derivation(self, small_graph):
        g, _ = small_graph
        e = g.edge("R", "f")  # derived on demand even though unmaterialised
        assert e.count() == 3
        assert set(e.columns) == {TID, VAL}

    def test_materialize_stats(self, small_graph):
        """Exact whatever labels earlier tests derived: every label in
        ``g.edges`` counts its column's non-null values."""
        g, rels = small_graph
        stats = g.materialize()
        pdfs = {name: df.toPandas() for name, df in rels.items()}
        assert stats.tuple_vertices == {n: len(p) for n, p in pdfs.items()}
        assert stats.edges == {
            f"{n}.{c}": int(pdfs[n][c].notna().sum())
            for n, by_col in g.edges.items() for c in by_col
        }

    def test_edges_disjointly_partitioned_by_value(self, small_graph):
        """§3: the edge set is disjointly partitioned by the attribute
        vertices — every edge appears under exactly one value."""
        g, _ = small_graph
        e = g.edge("R", "a")
        total = e.count()
        by_value = e.groupBy(VAL).count().agg(F.sum("count")).collect()[0][0]
        assert by_value == total


class TestOneCachePerRelation:
    """Each relation's tuple table is its only cache; edge tables are column
    views of it (ROADMAP item 5: a separately cached edge table could keep
    ``__tid``s that a recomputed tuple table no longer has)."""

    @staticmethod
    def _wide(spark, n_cols):
        cols = ", ".join(f"c{j} long" for j in range(n_cols))
        rows = [tuple(i * n_cols + j for j in range(n_cols)) for i in range(6)]
        return spark.createDataFrame(rows, cols)

    def test_materialize_jobs_do_not_grow_with_labels(self, spark):
        def jobs(n_cols):
            g = TAGGraph.encode(spark, {"R": self._wide(spark, n_cols)})
            assert len(g.edges["R"]) == n_cols
            n = spark_jobs(spark, g.materialize)
            g.unpersist()
            return n

        one = jobs(1)
        assert one > 0
        assert jobs(8) <= one

    def test_edges_are_uncached_views_that_survive_eviction(self, spark):
        src = spark.range(0, 200, numPartitions=4).select(
            F.col("id").alias("k"),
            (F.col("id") % 7).alias("a"),
            F.when(F.col("id") % 5 == 0, None).otherwise(F.col("id") * 3).alias("b"),
        )
        g = TAGGraph.encode(spark, {"R": src})
        g.materialize()
        for e in g.edges["R"].values():
            assert not e.is_cached
            assert e.storageLevel == StorageLevel.NONE

        def check():
            for col in ("k", "a", "b"):
                joined = g.edge("R", col).join(g.tuples["R"], TID)
                bad = joined.where(~F.col(VAL).eqNullSafe(F.col(col)))
                assert joined.count() == src.where(F.col(col).isNotNull()).count()
                assert bad.count() == 0

        check()
        g.tuples["R"].unpersist(blocking=True)
        assert g.tuples["R"].storageLevel == StorageLevel.NONE
        check()


class TestDefaultAttributeColumns:
    def test_excludes_floats_and_comments(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame(
                {
                    "k": [1],
                    "price": [1.5],
                    "l_comment": ["blah"],
                    "descr_description": ["blah"],
                    "name": ["a"],
                }
            )
        )
        cols = default_attribute_columns(df)
        assert "k" in cols and "name" in cols
        assert "price" not in cols
        assert "l_comment" not in cols
        assert "descr_description" not in cols

    def test_includes_dates(self, spark, tpch_data):
        cols = default_attribute_columns(tpch_data["lineitem"])
        assert "l_shipdate" in cols
        assert "l_extendedprice" not in cols  # float


class TestTpchGraph:
    def test_graph_size_linear_in_db(self, tpch_graph, tpch_data):
        stats = tpch_graph.materialize()
        db_rows = sum(df.count() for df in tpch_data.values())
        assert stats.total_tuple_vertices == db_rows
        # Each tuple has a bounded number of attributes → edges ∈ O(IN).
        assert stats.total_edges <= 16 * db_rows

    def test_join_attribute_edges_exist(self, tpch_graph):
        e = tpch_graph.edge("lineitem", "l_orderkey")
        o = tpch_graph.edge("orders", "o_orderkey")
        assert e.count() > 0 and o.count() > 0

    def test_attribute_vertex_lookup_is_join(self, tpch_graph, tpch_data):
        """Following edges from shared attribute vertices reproduces the
        equi-join pairs (the TAG 'index' semantics)."""
        e_l = tpch_graph.edge("lineitem", "l_orderkey")
        e_o = tpch_graph.edge("orders", "o_orderkey")
        pairs = e_l.join(e_o, on=VAL).count()
        expected = (
            tpch_data["lineitem"]
            .join(
                tpch_data["orders"],
                on=F.col("l_orderkey") == F.col("o_orderkey"),
            )
            .count()
        )
        assert pairs == expected
