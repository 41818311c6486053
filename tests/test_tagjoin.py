"""End-to-end TAG-join tests: run_spec vs the oracle."""
from __future__ import annotations

import pandas as pd
import pytest

from repro import oracle
from repro.core.spec import Node, QuerySpec
from repro.core.tagjoin import run_spec
from repro.core.tag import TAGGraph


@pytest.fixture(scope="module")
def abc_graph(spark):
    A = pd.DataFrame({"ak": [1, 2, 3, 4], "ab": [10, 20, 20, 99], "av": [1.0, 2.0, 3.0, 4.0]})
    B = pd.DataFrame({"bk": [10, 20, 30], "bc": [100, 200, 300]})
    C = pd.DataFrame({"ck": [100, 200, 777], "cv": ["x", "y", "z"]})
    rels = {
        "A": spark.createDataFrame(A),
        "B": spark.createDataFrame(B),
        "C": spark.createDataFrame(C),
    }
    return TAGGraph.encode(spark, rels), {"A": A, "B": B, "C": C}


def chain_spec(**kw) -> QuerySpec:
    return QuerySpec(
        name="chain",
        root=Node(
            relation="A",
            need=["ak", "av"],
            children=[
                Node(
                    relation="B",
                    parent_join=("ab", "bk"),
                    children=[
                        Node(
                            relation="C",
                            parent_join=("bc", "ck"),
                            need=["cv"],
                        )
                    ],
                )
            ],
        ),
        **kw,
    )


class TestRunSpec:
    def test_chain_join_vs_oracle(self, abc_graph):
        graph, rels = abc_graph
        spec = chain_spec(
            select=[("ak", "ak"), ("av", "av"), ("cv", "cv")]
        )
        df, _ = run_spec(graph, spec)
        oracle.assert_equivalent(
            df,
            """
            SELECT ak AS ak, av AS av, cv AS cv
            FROM A, B, C WHERE ab = bk AND bc = ck
            """,
            **rels,
        )

    def test_group_by_aggregate(self, abc_graph):
        graph, rels = abc_graph
        spec = chain_spec(
            group_by=["cv"],
            aggregates=[("sum(av)", "total"), ("count(*)", "cnt")],
            agg_class="LA",
        )
        df, _ = run_spec(graph, spec)
        oracle.assert_equivalent(
            df,
            """
            SELECT cv AS cv, sum(av) AS total, count(*) AS cnt
            FROM A, B, C WHERE ab = bk AND bc = ck GROUP BY cv
            """,
            **rels,
        )

    def test_scalar_aggregate(self, abc_graph):
        graph, rels = abc_graph
        spec = chain_spec(
            aggregates=[("sum(av)", "total")], agg_class="scalar"
        )
        df, _ = run_spec(graph, spec)
        oracle.assert_equivalent(
            df,
            "SELECT sum(av) AS total FROM A, B, C WHERE ab = bk AND bc = ck",
            **rels,
        )
        assert df.collect()[0]["total"] == pytest.approx(1.0 + 2.0 + 3.0)

    def test_post_filter_residual_predicate(self, abc_graph):
        graph, rels = abc_graph
        spec = chain_spec(
            select=[("ak", "ak")], post_filter="av < 3.0 AND cv = 'x'"
        )
        df, _ = run_spec(graph, spec)
        oracle.assert_equivalent(
            df,
            """
            SELECT ak AS ak FROM A, B, C
            WHERE ab = bk AND bc = ck AND av < 3.0 AND cv = 'x'
            """,
            **rels,
        )

    def test_having(self, abc_graph):
        graph, rels = abc_graph
        spec = chain_spec(
            group_by=["cv"],
            aggregates=[("count(*)", "cnt")],
            having="cnt > 1",
            agg_class="LA",
        )
        df, _ = run_spec(graph, spec)
        oracle.assert_equivalent(
            df,
            """
            SELECT cv AS cv, count(*) AS cnt FROM A, B, C
            WHERE ab = bk AND bc = ck GROUP BY cv HAVING count(*) > 1
            """,
            **rels,
        )

    def test_distinct(self, abc_graph):
        graph, rels = abc_graph
        spec = chain_spec(select=[("cv", "cv")], distinct=True)
        df, _ = run_spec(graph, spec)
        oracle.assert_equivalent(
            df,
            "SELECT DISTINCT cv AS cv FROM A, B, C WHERE ab = bk AND bc = ck",
            **rels,
        )

    def test_scan_path_single_relation(self, abc_graph):
        graph, rels = abc_graph
        spec = QuerySpec(
            name="scan",
            root=Node(relation="A", filter="av >= 2.0", need=["ak", "av"]),
            select=[("ak", "ak"), ("av", "av")],
        )
        df, stats = run_spec(graph, spec, stats=True)
        assert stats.supersteps == 0  # no traversal for a scan
        oracle.assert_equivalent(
            df, "SELECT ak AS ak, av AS av FROM A WHERE av >= 2.0", **rels
        )

    def test_single_relation_count_with_no_columns(self, abc_graph):
        """A root with an empty ``need`` outputs no column: ``count(*)``
        over a pushed filter reads only the filtered tuples' number."""
        graph, rels = abc_graph
        spec = QuerySpec(
            name="scan_count",
            root=Node(relation="A", filter="av >= 2.0"),
            aggregates=[("count(*)", "cnt")],
            agg_class="scalar",
        )
        df, stats = run_spec(graph, spec, stats=True)
        assert stats.supersteps == 0
        oracle.assert_equivalent(
            df, "SELECT count(*) AS cnt FROM A WHERE av >= 2.0", **rels
        )

    def test_stats_off_returns_empty_runstats(self, abc_graph):
        graph, _ = abc_graph
        df, stats = run_spec(graph, chain_spec(select=[("ak", "ak")]))
        assert stats.supersteps == 0
        assert df.count() == 3

    def test_validate_rejects_duplicate_alias(self, abc_graph):
        graph, _ = abc_graph
        bad = QuerySpec(
            name="dup",
            root=Node(
                relation="A",
                children=[Node(relation="A", parent_join=("ab", "ab"))],
            ),
        )
        with pytest.raises(AssertionError, match="duplicate"):
            run_spec(graph, bad)

    def test_validate_rejects_missing_parent_join(self):
        bad = QuerySpec(
            name="bad",
            root=Node(relation="A", children=[Node(relation="B")]),
        )
        with pytest.raises(AssertionError, match="parent_join"):
            bad.validate()


class TestRunReductionOnly:
    def test_semijoin_semantics_no_multiplicities(self, abc_graph):
        """EXISTS-style query: each root tuple counted once even when it has
        several join partners."""
        graph, rels = abc_graph
        spec = QuerySpec(
            name="exists",
            root=Node(
                relation="B",
                need=["bk"],
                children=[Node(relation="A", parent_join=("bk", "ab"))],
            ),
            select=[("bk", "bk")],
            reduction_only=True,
        )
        df, _ = run_spec(graph, spec)
        oracle.assert_equivalent(
            df,
            "SELECT bk AS bk FROM B WHERE EXISTS "
            "(SELECT 1 FROM A WHERE ab = bk)",
            **rels,
        )

    def test_reduction_only_with_aggregate(self, abc_graph):
        graph, rels = abc_graph
        spec = QuerySpec(
            name="exists_count",
            root=Node(
                relation="B",
                need=["bk"],
                children=[Node(relation="A", parent_join=("bk", "ab"))],
            ),
            aggregates=[("count(*)", "cnt")],
            agg_class="scalar",
            reduction_only=True,
        )
        df, _ = run_spec(graph, spec)
        oracle.assert_equivalent(
            df,
            "SELECT count(*) AS cnt FROM B WHERE EXISTS "
            "(SELECT 1 FROM A WHERE ab = bk)",
            **rels,
        )

    def test_reduction_only_count_with_no_columns(self, abc_graph):
        """An EXISTS root with an empty ``need``: its reduced relation keeps
        only its join column, and the output only counts its tuples."""
        graph, rels = abc_graph
        spec = QuerySpec(
            name="exists_count_star",
            root=Node(
                relation="B",
                children=[Node(relation="A", parent_join=("bk", "ab"))],
            ),
            aggregates=[("count(*)", "cnt")],
            agg_class="scalar",
            reduction_only=True,
        )
        df, _ = run_spec(graph, spec)
        oracle.assert_equivalent(
            df,
            "SELECT count(*) AS cnt FROM B WHERE EXISTS "
            "(SELECT 1 FROM A WHERE ab = bk)",
            **rels,
        )
