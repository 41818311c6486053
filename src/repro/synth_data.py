"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.

This module ships the full TPC-H-lite schema (8 tables mirroring the key
structure of TPC-H: PK-FK relationships, realistic value domains, but
simplified string columns), binary relations for cyclic queries and the
Zipf sampler both schemas' skewed keys use. The TPC-DS-lite snowflake
schema lives in ``repro.tpcds.synth``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000
_N_SUPPLIER_PER_SF = 10_000
_N_PARTSUPP_PER_SF = 800_000

#: Region/nation dimension content (fixed-size, as in TPC-H).
_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _n(per_sf: int, sf: float) -> int:
    return max(1, int(per_sf * sf))


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    """Fact table; FKs into orders, part and supplier."""
    n = _n(_N_LINEITEM_PER_SF, sf)
    n_orders = _n(_N_ORDERS_PER_SF, sf)
    n_part = _n(_N_PART_PER_SF, sf)
    n_supp = _n(_N_SUPPLIER_PER_SF, sf)
    g = _rng(seed)
    shipdate = pd.to_datetime("1992-01-01") + pd.to_timedelta(
        g.integers(0, 2557, n), unit="D"
    )
    commit_lag = g.integers(-30, 60, n)
    receipt_lag = g.integers(1, 31, n)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_suppkey": g.integers(1, n_supp + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": shipdate.date,
            "l_commitdate": (shipdate + pd.to_timedelta(commit_lag, unit="D")).date,
            "l_receiptdate": (shipdate + pd.to_timedelta(receipt_lag, unit="D")).date,
            "l_shipmode": g.choice(
                ["AIR", "MAIL", "SHIP", "TRUCK", "RAIL", "FOB", "REG AIR"], n
            ),
            "l_shipinstruct": g.choice(
                ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def orders(spark: SparkSession, *, sf: float = 0.01, seed: int = 1) -> DataFrame:
    n = _n(_N_ORDERS_PER_SF, sf)
    n_cust = _n(_N_CUSTOMER_PER_SF, sf)
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": (
                pd.to_datetime("1992-01-01")
                + pd.to_timedelta(g.integers(0, 2406, n), unit="D")
            ).date,
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
            "o_shippriority": np.zeros(n, dtype="int64"),
        }
    )
    return spark.createDataFrame(pdf)


def part(spark: SparkSession, *, sf: float = 0.01, seed: int = 5) -> DataFrame:
    n = _n(_N_PART_PER_SF, sf)
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": g.choice(
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n
            ),
            "p_brand": g.choice(
                [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n
            ),
            "p_size": g.integers(1, 51, n),
            "p_container": g.choice(
                ["SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX",
                 "JUMBO PKG", "WRAP CASE"], n
            ),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def customer(spark: SparkSession, *, sf: float = 0.01, seed: int = 2) -> DataFrame:
    n = _n(_N_CUSTOMER_PER_SF, sf)
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_name": [f"Customer#{i:09d}" for i in range(1, n + 1)],
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def supplier(spark: SparkSession, *, sf: float = 0.01, seed: int = 6) -> DataFrame:
    n = _n(_N_SUPPLIER_PER_SF, sf)
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "s_suppkey": np.arange(1, n + 1),
            "s_name": [f"Supplier#{i:09d}" for i in range(1, n + 1)],
            "s_nationkey": g.integers(0, 25, n),
            "s_acctbal": (g.random(n) * 12000 - 1000).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def partsupp(spark: SparkSession, *, sf: float = 0.01, seed: int = 7) -> DataFrame:
    """Each part is supplied by up to 4 suppliers (PK = (partkey, suppkey))."""
    n_part = _n(_N_PART_PER_SF, sf)
    n_supp = _n(_N_SUPPLIER_PER_SF, sf)
    g = _rng(seed)
    partkey = np.repeat(np.arange(1, n_part + 1), 4)
    n = len(partkey)
    suppkey = (partkey * 7919 + np.tile(np.arange(4), n_part)) % n_supp + 1
    pdf = pd.DataFrame(
        {
            "ps_partkey": partkey,
            "ps_suppkey": suppkey,
            "ps_availqty": g.integers(1, 10_000, n),
            "ps_supplycost": (g.random(n) * 1000 + 1).round(2),
        }
    ).drop_duplicates(["ps_partkey", "ps_suppkey"])
    return spark.createDataFrame(pdf)


def nation(spark: SparkSession, *, sf: float = 0.01, seed: int = 8) -> DataFrame:
    pdf = pd.DataFrame(
        {
            "n_nationkey": np.arange(len(_NATIONS)),
            "n_name": [n for n, _ in _NATIONS],
            "n_regionkey": [r for _, r in _NATIONS],
        }
    )
    return spark.createDataFrame(pdf)


def region(spark: SparkSession, *, sf: float = 0.01, seed: int = 9) -> DataFrame:
    pdf = pd.DataFrame(
        {"r_regionkey": np.arange(len(_REGIONS)), "r_name": _REGIONS}
    )
    return spark.createDataFrame(pdf)


#: Generator per TPC-H-lite table name, in load order.
TPCH_TABLES = {
    "region": region,
    "nation": nation,
    "supplier": supplier,
    "customer": customer,
    "part": part,
    "partsupp": partsupp,
    "orders": orders,
    "lineitem": lineitem,
}


def tpch(spark: SparkSession, *, sf: float = 0.01) -> dict[str, DataFrame]:
    """All TPC-H-lite tables at one scale factor."""
    return {name: gen(spark, sf=sf) for name, gen in TPCH_TABLES.items()}


def zipf(g: np.random.Generator, n: int, n_keys: int, alpha: float) -> np.ndarray:
    """``n`` keys from ``1..n_keys``, key ``k`` with weight ``k**-alpha``."""
    ranks = np.arange(1, n_keys + 1)
    w = 1.0 / ranks**alpha
    w /= w.sum()
    return g.choice(ranks, size=n, p=w)


def binary_relation(
    spark: SparkSession,
    *,
    n: int,
    n_keys: int,
    cols: tuple[str, str] = ("a", "b"),
    seed: int = 10,
    skew: float | None = None,
) -> DataFrame:
    """A binary relation over an integer domain — the building block for
    triangle/cycle query experiments (§6). ``skew`` switches to a Zipfian
    first column so the heavy/light split is exercised."""
    g = _rng(seed)
    if skew is not None:
        left = zipf(g, n, n_keys, skew)
    else:
        left = g.integers(1, n_keys + 1, n)
    pdf = pd.DataFrame(
        {cols[0]: left, cols[1]: g.integers(1, n_keys + 1, n)}
    ).drop_duplicates()
    return spark.createDataFrame(pdf)
