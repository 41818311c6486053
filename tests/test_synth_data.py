"""Data generator tests: schemas, determinism, scaling, key integrity."""
from __future__ import annotations

import numpy as np
import pytest

from repro import synth_data
from repro.tpcds import synth as ds

SF = 0.002


class TestTpchSchemas:
    @pytest.mark.parametrize(
        "table,pk",
        [
            ("region", "r_regionkey"),
            ("nation", "n_nationkey"),
            ("supplier", "s_suppkey"),
            ("customer", "c_custkey"),
            ("part", "p_partkey"),
            ("orders", "o_orderkey"),
        ],
    )
    def test_primary_keys_unique(self, spark, table, pk):
        df = synth_data.TPCH_TABLES[table](spark, sf=SF)
        assert df.count() == df.select(pk).distinct().count()

    def test_partsupp_compound_pk_unique(self, spark):
        ps = synth_data.partsupp(spark, sf=SF)
        assert ps.count() == ps.select("ps_partkey", "ps_suppkey").distinct().count()

    def test_lineitem_columns(self, spark):
        li = synth_data.lineitem(spark, sf=SF)
        expected = {
            "l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
            "l_quantity", "l_extendedprice", "l_discount", "l_tax",
            "l_returnflag", "l_linestatus", "l_shipdate", "l_commitdate",
            "l_receiptdate", "l_shipmode", "l_shipinstruct",
        }
        assert set(li.columns) == expected

    def test_date_columns_are_dates(self, spark):
        li = synth_data.lineitem(spark, sf=SF)
        dtypes = dict(li.dtypes)
        for c in ("l_shipdate", "l_commitdate", "l_receiptdate"):
            assert dtypes[c] == "date"
        o = synth_data.orders(spark, sf=SF)
        assert dict(o.dtypes)["o_orderdate"] == "date"

    @pytest.mark.parametrize(
        "fk_table,fk,pk_table,pk",
        [
            ("lineitem", "l_orderkey", "orders", "o_orderkey"),
            ("lineitem", "l_partkey", "part", "p_partkey"),
            ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
            ("orders", "o_custkey", "customer", "c_custkey"),
            ("customer", "c_nationkey", "nation", "n_nationkey"),
            ("supplier", "s_nationkey", "nation", "n_nationkey"),
            ("nation", "n_regionkey", "region", "r_regionkey"),
            ("partsupp", "ps_partkey", "part", "p_partkey"),
            ("partsupp", "ps_suppkey", "supplier", "s_suppkey"),
        ],
    )
    def test_foreign_key_integrity(self, spark, fk_table, fk, pk_table, pk):
        """Every FK value resolves to a PK — PK-FK joins are total."""
        child = synth_data.TPCH_TABLES[fk_table](spark, sf=SF)
        parent = synth_data.TPCH_TABLES[pk_table](spark, sf=SF)
        dangling = child.join(
            parent, on=child[fk] == parent[pk], how="left_anti"
        ).count()
        assert dangling == 0

    def test_deterministic_in_seed(self, spark):
        a = synth_data.lineitem(spark, sf=SF).toPandas()
        b = synth_data.lineitem(spark, sf=SF).toPandas()
        assert a.equals(b)

    def test_linear_scaling(self, spark):
        small = synth_data.orders(spark, sf=0.001).count()
        large = synth_data.orders(spark, sf=0.002).count()
        assert large == 2 * small

    def test_tpch_bundle_contains_all_tables(self, spark):
        rels = synth_data.tpch(spark, sf=0.001)
        assert set(rels) == set(synth_data.TPCH_TABLES)


class TestKeyGenerators:
    def test_binary_relation_distinct_rows(self, spark):
        df = synth_data.binary_relation(spark, n=2000, n_keys=40).toPandas()
        assert not df.duplicated().any()

    def test_binary_relation_skew(self, spark):
        df = synth_data.binary_relation(
            spark, n=3000, n_keys=200, skew=1.2
        ).toPandas()
        counts = df.iloc[:, 0].value_counts()
        assert counts.iloc[0] > 3 * counts.median()


class TestTpcdsSchemas:
    def test_dimension_sublinear_scaling(self, spark):
        """TPC-DS dimensions scale sub-linearly (∝ √sf) while facts scale
        linearly (§8.1.1)."""
        i1 = ds.item(spark, sf=0.01).count()
        i4 = ds.item(spark, sf=0.04).count()
        assert i4 == pytest.approx(2 * i1, rel=0.02)  # √4 = 2
        f1 = ds.store_sales(spark, sf=0.01).count()
        f4 = ds.store_sales(spark, sf=0.04).count()
        assert f4 == pytest.approx(4 * f1, rel=0.02)

    def test_fact_keys_are_skewed(self, spark):
        pdf = ds.store_sales(spark, sf=0.002).toPandas()
        counts = pdf["ss_item_sk"].value_counts()
        assert counts.iloc[0] > 3 * counts.median()

    def test_fact_non_key_columns_have_nulls(self, spark):
        pdf = ds.store_sales(spark, sf=0.002).toPandas()
        for c in ("ss_quantity", "ss_sales_price", "ss_ext_sales_price"):
            frac = pdf[c].isna().mean()
            assert 0.005 < frac < 0.10
        # keys never null
        assert pdf["ss_item_sk"].notna().all()

    def test_date_dim_fixed_five_years(self, spark):
        dd = ds.date_dim(spark, sf=0.001).toPandas()
        assert len(dd) == 1826
        assert set(dd["d_year"].unique()) == {1998, 1999, 2000, 2001, 2002}

    @pytest.mark.parametrize(
        "fk_table,fk,pk_table,pk",
        [
            ("store_sales", "ss_item_sk", "item", "i_item_sk"),
            ("store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk"),
            ("store_sales", "ss_customer_sk", "customer", "c_customer_sk"),
            ("customer", "c_current_addr_sk", "customer_address", "ca_address_sk"),
            ("web_sales", "ws_item_sk", "item", "i_item_sk"),
            ("catalog_sales", "cs_item_sk", "item", "i_item_sk"),
        ],
    )
    def test_tpcds_fk_integrity(self, spark, fk_table, fk, pk_table, pk):
        child = ds.TPCDS_TABLES[fk_table](spark, sf=SF)
        parent = ds.TPCDS_TABLES[pk_table](spark, sf=SF)
        dangling = child.join(
            parent, on=child[fk] == parent[pk], how="left_anti"
        ).count()
        assert dangling == 0

    def test_tpcds_bundle(self, spark):
        rels = ds.tpcds(spark, sf=0.001)
        assert set(rels) == set(ds.TPCDS_TABLES)

    def test_store_count_min_two(self, spark):
        assert ds.store(spark, sf=0.0001).count() >= 2
