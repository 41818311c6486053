"""QuerySpec.from_sql: join trees, filters, column naming and aggregation
derived from a query's own SQL.

Tests that take no ``spark`` or graph fixture are pure Python (DuckDB's
parser, no Spark session)."""
from __future__ import annotations

import pytest

from repro import oracle, synth_data
from repro.core.collection import _needed_columns
from repro.core.spec import Node, QuerySpec, sql_tables
from repro.core.tag import TAGGraph
from repro.core.tagjoin import run_spec
from repro.tpcds import queries as ds
from repro.tpcds import synth as ds_synth
from repro.tpch import queries as h

P = {"r": "r", "s": "s", "t": "t", "nation": "n"}


def derive(sql: str, root: str, prefixes=P) -> QuerySpec:
    return QuerySpec.from_sql(sql, root, prefixes)


def tree(spec: QuerySpec) -> list[tuple]:
    """(name, parent_join, child names) per node, pre-order."""
    return [
        (n.name, n.parent_join, [c.name for c in n.children]) for n in spec.nodes()
    ]


class TestJoinTree:
    def test_spanning_tree_in_conjunct_order_oriented_from_root(self):
        spec = derive(
            "SELECT r_a AS a FROM r, s, t WHERE s_x = r_x AND t_y = r_y", "s"
        )
        assert tree(spec) == [
            ("s", None, ["r"]),
            ("r", ("s_x", "r_x"), ["t"]),
            ("t", ("r_y", "t_y"), []),
        ]
        assert spec.post_filter is None

    def test_children_ordered_by_conjunct_index(self):
        spec = derive(
            "SELECT r_a AS a FROM r, s, t WHERE t_y = r_y AND s_x = r_x", "r"
        )
        assert [c.name for c in spec.root.children] == ["t", "s"]

    def test_cycle_closing_conjunct_goes_to_post_filter(self):
        """The q5 shape: r–s, s–t, then t–r closes a cycle (§6.4 GHD bag)."""
        spec = derive(
            "SELECT r_a AS a FROM r, s, t "
            "WHERE r_x = s_x AND s_y = t_y AND t_z = r_z",
            "r",
        )
        assert tree(spec) == [
            ("r", None, ["s"]),
            ("s", ("r_x", "s_x"), ["t"]),
            ("t", ("s_y", "t_y"), []),
        ]
        assert spec.post_filter == "(t_z = r_z)"
        # The residual's inputs travel up to the root.
        by_name = {n.name: n for n in spec.nodes()}
        assert "t_z" in _needed_columns(by_name["t"])
        assert "r_z" in _needed_columns(by_name["r"])

    def test_parallel_conjunct_goes_to_post_filter(self):
        """The q9 shape: a second equality between the same two relations."""
        spec = derive(
            "SELECT r_a AS a FROM r, s WHERE s_k1 = r_k1 AND s_k2 = r_k2", "r"
        )
        assert tree(spec) == [("r", None, ["s"]), ("s", ("r_k1", "s_k1"), [])]
        assert spec.post_filter == "(s_k2 = r_k2)"

    def test_tpch_q5_and_q9(self):
        q5 = h.QUERIES["q5"].spec
        assert q5.post_filter == "(c_nationkey = s_nationkey)"
        assert tree(q5)[0] == ("orders", None, ["customer", "lineitem"])
        q9 = h.QUERIES["q9"].spec
        assert q9.post_filter == "(ps_suppkey = l_suppkey)"
        assert tree(q9)[0] == (
            "lineitem", None, ["part", "partsupp", "supplier", "orders"]
        )

    def test_cartesian_product_is_refused(self):
        with pytest.raises(ValueError, match="Cartesian"):
            derive("SELECT r_a AS a FROM r, s WHERE r_a = 1", "r")

    def test_unknown_root_is_refused(self):
        with pytest.raises(ValueError, match="root"):
            derive("SELECT r_a AS a FROM r, s WHERE r_x = s_x", "t")


class TestFiltersAndNaming:
    def test_single_relation_conjuncts_push_down(self):
        spec = derive(
            "SELECT r_a AS a FROM r, s "
            "WHERE r_x = s_x AND r_b > 1 AND s_c = 'k' AND r_d < r_e",
            "r",
        )
        assert spec.root.filter == "((r_b > 1) AND (r_d < r_e))"
        assert spec.root.children[0].filter == "(s_c = 'k')"

    def test_q7_alias_qualification_and_or_factoring(self):
        spec = h.QUERIES["q7"].spec
        by_name = {n.name: n for n in spec.nodes()}
        n1, n2 = by_name["n1"], by_name["n2"]
        assert (n1.relation, n1.alias, n1.parent_join) == (
            "nation", "n1", ("s_nationkey", "n_nationkey")
        )
        assert n2.parent_join == ("c_nationkey", "n_nationkey")
        # Pushed filters read the relation's own columns ...
        assert n1.filter == "((n_name = 'FRANCE') OR (n_name = 'GERMANY'))"
        assert n2.filter == "((n_name = 'GERMANY') OR (n_name = 'FRANCE'))"
        # ... while the residual and the outputs read the qualified names.
        assert spec.post_filter == (
            "(((n1_n_name = 'FRANCE') AND (n2_n_name = 'GERMANY')) OR "
            "((n1_n_name = 'GERMANY') AND (n2_n_name = 'FRANCE')))"
        )
        assert spec.group_by == [
            "n1_n_name", "n2_n_name", ("year(l_shipdate)", "l_year")
        ]
        assert spec.select[:3] == [
            ("n1_n_name", "supp_nation"),
            ("n2_n_name", "cust_nation"),
            ("l_year", "l_year"),
        ]

    def test_or_factoring_skips_relations_some_disjunct_leaves_free(self):
        spec = derive(
            "SELECT r_a AS a FROM r, s WHERE r_x = s_x "
            "AND ((r_b = 1 AND s_c = 2) OR s_c = 3)",
            "r",
        )
        assert spec.root.filter is None
        assert spec.root.children[0].filter == "((s_c = 2) OR (s_c = 3))"

    def test_child_join_column_reads_as_parent_column(self):
        """q3: lineitem's l_orderkey is dropped by the join; o_orderkey holds
        the same value and stands in for it in GROUP BY and SELECT."""
        spec = h.QUERIES["q3"].spec
        assert spec.group_by == ["o_orderkey", "o_orderdate", "o_shippriority"]
        assert spec.select == [
            ("o_orderkey", "l_orderkey"),
            ("revenue", "revenue"),
            ("o_orderdate", "o_orderdate"),
            ("o_shippriority", "o_shippriority"),
        ]

    def test_merged_join_columns_follow_a_chain(self):
        spec = derive(
            "SELECT t_k AS k FROM r, s, t WHERE r_k = s_k AND s_k = t_k", "r"
        )
        assert spec.select == [("r_k", "k")]

    def test_unqualified_column_of_a_self_joined_table_is_ambiguous(self):
        with pytest.raises(ValueError, match="n_name"):
            derive(
                "SELECT n_name AS a FROM nation n1, nation n2 "
                "WHERE n1.n_regionkey = n2.n_regionkey",
                "n1",
            )


class TestAggregation:
    def test_count_star_renders_for_spark(self):
        spec = derive("SELECT r_g AS g, count(*) AS c FROM r GROUP BY r_g", "r")
        assert spec.aggregates == [("count(*)", "c")]
        assert spec.group_by == ["r_g"]
        assert spec.agg_class == "GA"

    def test_having_reuses_the_select_aggregate(self):
        spec = h.QUERIES["q18"].spec
        assert spec.aggregates == [("sum(l_quantity)", "sum_qty")]
        assert spec.having == "(sum_qty > 212)"

    def test_having_on_an_unselected_aggregate(self):
        spec = derive(
            "SELECT r_g AS g FROM r GROUP BY r_g HAVING max(r_v) > 3", "r"
        )
        assert spec.aggregates == [("max(r_v)", "_agg0")]
        assert spec.having == "(_agg0 > 3)"
        assert spec.select == [("r_g", "g")]

    def test_nested_aggregates_get_generated_names(self):
        spec = h.QUERIES["q14"].spec
        assert [a for _, a in spec.aggregates] == ["_agg0", "_agg1"]
        assert spec.select == [("((100.00 * _agg0) / _agg1)", "promo_revenue")]
        assert spec.agg_class == "scalar"

    def test_ungrouped_column_is_refused(self):
        with pytest.raises(ValueError, match="r_b"):
            derive("SELECT r_b AS b, sum(r_v) AS v FROM r GROUP BY r_g", "r")


class TestReductionOnly:
    def test_exists_is_a_semijoin(self):
        spec = h.QUERIES["q4"].spec
        assert spec.reduction_only
        assert tree(spec) == [
            ("orders", None, ["lineitem"]),
            ("lineitem", ("o_orderkey", "l_orderkey"), []),
        ]
        assert spec.root.children[0].filter == "(l_commitdate < l_receiptdate)"
        assert spec.aggregates == [("count(*)", "order_count")]

    def test_distinct_over_root_columns(self):
        spec = ds.QUERIES["ds_q37"].spec
        assert spec.reduction_only and spec.distinct

    def test_distinct_reading_a_child_collects(self):
        spec = derive("SELECT DISTINCT s_c AS c FROM r, s WHERE r_x = s_x", "r")
        assert spec.distinct and not spec.reduction_only

    def test_plain_join_collects(self):
        assert not h.QUERIES["q3"].spec.reduction_only

    def test_exists_feeding_outputs_is_refused(self):
        with pytest.raises(ValueError, match="EXISTS"):
            derive(
                "SELECT r_a AS a FROM r, s WHERE r_x = s_x "
                "AND EXISTS (SELECT 1 FROM t WHERE t_y = r_y)",
                "r",
            )


class TestDecorrelation:
    def test_scalar_subquery_with_its_factor_inside(self):
        """q17: ``l_quantity < (SELECT 0.2 * avg(l2.l_quantity) …)``."""
        spec = h.QUERIES["q17"].spec
        assert spec.post_filter == "(l_quantity < _sq0)"
        ((lookup, on),) = spec.lookups
        # The outer p_partkey is merged into its parent's join column.
        assert on == [("l_partkey", "_sq0_k0")]
        assert tree(lookup) == [("l2", None, [])]
        assert lookup.group_by == ["l2_l_partkey"]
        assert lookup.aggregates == [("avg(l2_l_quantity)", "_agg0")]
        assert lookup.select == [
            ("l2_l_partkey", "_sq0_k0"), ("(0.2 * _agg0)", "_sq0")
        ]

    def test_scalar_subquery_with_its_factor_outside(self):
        """ds_q6: ``i.i_current_price > 1.2 * (SELECT avg(…) …)``."""
        spec = ds.QUERIES["ds_q6"].spec
        assert spec.post_filter == "(i_i_current_price > (1.2 * _sq0))"
        ((lookup, on),) = spec.lookups
        assert on == [("i_i_category", "_sq0_k0")]
        assert lookup.root.name == "j"
        assert lookup.aggregates == [("avg(j_i_current_price)", "_sq0")]
        assert lookup.select == [("j_i_category", "_sq0_k0"), ("_sq0", "_sq0")]

    def test_lookup_root_owns_the_correlation_columns(self):
        """q2: the inner block's tree is rooted at ps2, grouped by its key."""
        ((lookup, on),) = h.QUERIES["q2"].spec.lookups
        assert on == [("p_p_partkey", "_sq0_k0")]
        assert tree(lookup)[0] == ("ps2", None, ["s2"])
        assert lookup.group_by == ["ps2_ps_partkey"]
        assert lookup.aggregates == [("min(ps2_ps_supplycost)", "_sq0")]

    def test_in_is_a_distinct_lookup(self):
        spec = derive(
            "SELECT r_a AS a FROM r "
            "WHERE r_x IN (SELECT s_x FROM s, t WHERE s_y = t_y AND t_z = 1)",
            "r",
        )
        assert spec.post_filter is None
        ((lookup, on),) = spec.lookups
        assert on == [("r_x", "_sq0")]
        assert tree(lookup) == [("s", None, ["t"]), ("t", ("s_y", "t_y"), [])]
        assert lookup.select == [("s_x", "_sq0")]
        # DISTINCT over the root's column: the IN list is a semijoin.
        assert lookup.distinct and lookup.reduction_only

    def test_in_wrapping_a_correlated_scalar_subquery(self):
        """q20: names number across nested blocks."""
        ((ps, on),) = h.QUERIES["q20"].spec.lookups
        assert on == [("s_suppkey", "_sq0")]
        assert ps.select == [("ps_suppkey", "_sq0")] and ps.distinct
        assert ps.post_filter == "(ps_availqty > _sq2)"
        (part, part_on), (li, li_on) = ps.lookups
        assert part_on == [("ps_partkey", "_sq1")]
        assert part.root.filter == "(p_type = 'ECONOMY')"
        assert li_on == [("ps_partkey", "_sq2_k0"), ("ps_suppkey", "_sq2_k1")]
        assert li.group_by == ["l_partkey", "l_suppkey"]
        assert li.select[-1] == ("(0.5 * _agg0)", "_sq2")

    def test_unowned_column_resolves_in_the_enclosing_block(self):
        spec = derive(
            "SELECT r_a AS a FROM r, s WHERE r_x = s_x "
            "AND r_v > (SELECT max(t_v) FROM t WHERE t_k = s_k)",
            "r",
        )
        ((lookup, on),) = spec.lookups
        assert on == [("s_k", "_sq0_k0")]
        assert "s_k" in _needed_columns(spec.root.children[0])
        assert lookup.select == [("t_k", "_sq0_k0"), ("_sq0", "_sq0")]

    def test_owned_column_binds_in_the_inner_block(self):
        """``r_k`` names the inner r2, as in SQL: nothing is correlated."""
        with pytest.raises(ValueError, match="uncorrelated"):
            derive(
                "SELECT r_a AS a FROM r "
                "WHERE r_v > (SELECT max(r2.r_v) FROM r r2 WHERE r2.r_j = r_k)",
                "r",
            )

    @pytest.mark.parametrize(
        "where, match",
        [
            ("r_v > (SELECT count(*) FROM s WHERE s_k = r_k)", "COUNT bug"),
            ("r_v > (SELECT max(s_v) FROM s WHERE s_k < r_k)", "equalities"),
            (
                "r_v > (SELECT max(s_v) FROM s, t "
                "WHERE s_y = t_y AND s_k = r_k AND t_j = r_j)",
                "span",
            ),
            ("r_v > (SELECT max(s_v) FROM s)", "uncorrelated"),
            ("r_x IN (SELECT s_x FROM s WHERE s_k = r_k)", "correlated IN"),
            ("r_x NOT IN (SELECT s_x FROM s)", "NOT"),
            ("r_b = 1 OR r_v > (SELECT max(s_v) FROM s WHERE s_k = r_k)", "OR"),
            ("r_v > (SELECT s_v FROM s WHERE s_k = r_k)", "must aggregate"),
        ],
        ids=[
            "count", "non-equality", "spread", "uncorrelated", "correlated-in",
            "not-in", "under-or", "no-aggregate",
        ],
    )
    def test_refused_shapes(self, where, match):
        with pytest.raises(ValueError, match=match):
            derive(f"SELECT r_a AS a FROM r WHERE {where}", "r")

    def test_subquery_in_the_select_list_is_refused(self):
        with pytest.raises(ValueError, match="SUBQUERY"):
            derive(
                "SELECT (SELECT max(s_v) FROM s WHERE s_k = r_k) AS m FROM r", "r"
            )


R_ROWS = [(1, 1, 5.0, 10), (2, 1, 1.0, 20), (3, 2, 9.0, None),
          (4, None, 7.0, 30), (5, 3, 4.0, 10)]
S_ROWS = [(1, 2.0, 10), (1, 4.0, None), (2, 8.0, 30), (None, 0.0, 20)]


@pytest.fixture(scope="module")
def rs_graph(spark):
    """r_k = 3 has no inner group; NULL correlation keys on both sides."""
    spark_rels = {
        "r": spark.createDataFrame(R_ROWS, "r_id int, r_k int, r_v double, r_x int"),
        "s": spark.createDataFrame(S_ROWS, "s_k int, s_v double, s_x int"),
    }
    pandas_rels = {
        name: df.toPandas().astype({c: "Int64" for c, t in df.dtypes if t == "int"})
        for name, df in spark_rels.items()
    }
    return TAGGraph.encode(spark, spark_rels), pandas_rels


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT r_id AS id FROM r "
        "WHERE r_v > (SELECT avg(s_v) FROM s WHERE s_k = r_k)",
        "SELECT r_id AS id FROM r "
        "WHERE r_v >= 2 * (SELECT min(s_v) FROM s WHERE s.s_k = r.r_k)",
        "SELECT r_id AS id FROM r WHERE r_x IN (SELECT s_x FROM s)",
    ],
    ids=["scalar-avg", "scalar-min-factor", "in"],
)
def test_decorrelated_run_matches_oracle(rs_graph, sql):
    """The lookup's inner join drops what SQL's NULL comparison drops."""
    graph, rels = rs_graph
    df, _ = run_spec(graph, derive(sql, "r"))
    oracle.assert_equivalent(df, sql, **rels)


@pytest.mark.parametrize(
    "catalog, name, root",
    [
        (h, "q2", "p"),
        (h, "q17", "lineitem"),
        (h, "q20", "supplier"),
        (ds, "ds_q6", "store_sales"),
    ],
)
def test_correlated_queries_derive(catalog, name, root):
    """Their subqueries decorrelate into lookups: no plan is hand-written."""
    q = catalog.QUERIES[name]
    spec = QuerySpec.from_sql(q.sql, root, catalog.PREFIXES)
    assert spec.lookups
    assert q.spec is not None and q.spec.root.name == root


@pytest.mark.parametrize("catalog, name, root", [(ds, "ds_q33", "store_sales")])
def test_hand_kept_queries_are_refused(catalog, name, root):
    """Its SQL does not state its plan: the deriver must not guess."""
    with pytest.raises(ValueError):
        QuerySpec.from_sql(catalog.QUERIES[name].sql, root, catalog.PREFIXES)


def test_tables_come_from_the_sql():
    assert h.QUERIES["q4"].tables == ["orders", "lineitem"]
    assert h.QUERIES["q2"].tables == [
        "part", "partsupp", "supplier", "nation", "region"
    ]
    assert sql_tables(ds.QUERIES["ds_q33"].sql) == [
        "store_sales", "date_dim", "item", "catalog_sales", "web_sales"
    ]


@pytest.mark.parametrize(
    "gens, prefixes",
    [(synth_data.TPCH_TABLES, h.PREFIXES), (ds_synth.TPCDS_TABLES, ds.PREFIXES)],
)
def test_generated_columns_carry_their_table_prefix(spark, gens, prefixes):
    """The deriver resolves unqualified columns by prefix."""
    for table, gen in gens.items():
        cols = gen(spark, sf=0.001).columns
        assert all(c.startswith(prefixes[table] + "_") for c in cols), table


# ---------------------------------------------------------------------------
# The derived q3, ds_q37 and ds_q33 channels against the hand specs they
# replaced
# ---------------------------------------------------------------------------

HAND_Q3 = Node(
    relation="orders",
    filter="o_orderdate < date'1995-03-15'",
    need=["o_orderkey", "o_orderdate", "o_shippriority"],
    children=[
        Node(
            relation="customer",
            parent_join=("o_custkey", "c_custkey"),
            filter="c_mktsegment = 'BUILDING'",
        ),
        Node(
            relation="lineitem",
            parent_join=("o_orderkey", "l_orderkey"),
            filter="l_shipdate > date'1995-03-15'",
            need=["l_extendedprice", "l_discount"],
        ),
    ],
)

HAND_DS_Q37 = Node(
    relation="item",
    filter="i_current_price BETWEEN 20 AND 25 AND i_category = 'Books'",
    need=["i_item_id", "i_current_price"],
    children=[Node(relation="store_sales", parent_join=("i_item_sk", "ss_item_sk"))],
)


def hand_ds_q33_channel(fact: str, prefix: str) -> Node:
    """fact ⋈ item(Electronics) ⋈ date(2000-01)."""
    return Node(
        relation=fact,
        need=[f"{prefix}_ext_sales_price"],
        children=[
            Node(
                relation="item",
                parent_join=(f"{prefix}_item_sk", "i_item_sk"),
                filter="i_category = 'Electronics'",
                need=["i_manufact_id"],
            ),
            Node(
                relation="date_dim",
                parent_join=(f"{prefix}_sold_date_sk", "d_date_sk"),
                filter="d_year = 2000 AND d_moy = 1",
            ),
        ],
    )


Q33_CHANNELS = {spec.name: spec for spec in ds._Q33_CHANNELS}
Q33_FACTS = [("ss", "store_sales"), ("cs", "catalog_sales"), ("ws", "web_sales")]


def _optimized(df) -> str:
    return df._jdf.queryExecution().optimizedPlan().toString()


class TestPinnedAgainstHandSpecs:
    @pytest.mark.parametrize(
        "derived, hand, reduction_only, graph_fixture",
        [
            (h.QUERIES["q3"].spec, HAND_Q3, False, "tpch_graph"),
            (ds.QUERIES["ds_q37"].spec, HAND_DS_Q37, True, "tpcds_graph"),
        ]
        + [
            (Q33_CHANNELS[f"ds_q33_{prefix}"], hand_ds_q33_channel(fact, prefix),
             False, "tpcds_graph")
            for prefix, fact in Q33_FACTS
        ],
        ids=["q3", "ds_q37"] + [f"ds_q33_{prefix}" for prefix, _ in Q33_FACTS],
    )
    def test_same_plan_as_hand_spec(
        self, request, derived, hand, reduction_only, graph_fixture
    ):
        assert derived.root.name == hand.name
        assert derived.reduction_only is reduction_only
        pairs = list(zip(derived.nodes(), hand.walk(), strict=True))
        for d, n in pairs:
            assert (d.name, d.parent_join) == (n.name, n.parent_join)
            assert [c.name for c in d.children] == [c.name for c in n.children]
            assert _needed_columns(d) == _needed_columns(n)
        graph = request.getfixturevalue(graph_fixture)
        for d, n in pairs:
            assert (d.filter is None) == (n.filter is None)
            if n.filter is not None:
                tuples = graph.tuples[n.relation]
                assert _optimized(tuples.where(d.filter)) == _optimized(
                    tuples.where(n.filter)
                )

    @pytest.mark.parametrize("prefix", [p for p, _ in Q33_FACTS])
    def test_ds_q33_channel_aggregates_as_hand_spec(self, prefix):
        spec = Q33_CHANNELS[f"ds_q33_{prefix}"]
        assert spec.group_by == ["i_manufact_id"]
        assert spec.aggregates == [(f"sum({prefix}_ext_sales_price)", "total_sales")]
        assert spec.select == [
            ("i_manufact_id", "i_manufact_id"), ("total_sales", "total_sales")
        ]
        assert spec.agg_class == "LA"
        assert spec.post_filter is None and not spec.lookups
