"""TPC-DS-lite: a synthetic snowflake schema mirroring TPC-DS structure.

The real TPC-DS generator (dsdgen) is unavailable offline; this module
reproduces the *structural* properties the paper's evaluation depends on
(§8.1.1):

- multiple fact tables (store_sales, catalog_sales, web_sales) that scale
  linearly with SF;
- dimension tables (date_dim, item, customer, customer_address, store) that
  scale **sub-linearly** (``n ∝ sf**0.5`` relative to their base size);
- skewed (Zipfian) fact-table foreign keys, since TPC-DS data is skewed;
- NULLs in non-PK fact columns (TPC-DS allows missing values anywhere but
  primary keys).

SF semantics match ``repro.synth_data``: tests use sf<=0.01, benchmarks
sf~=0.1. All generators are deterministic in ``seed``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..synth_data import zipf

_N_STORE_SALES_PER_SF = 2_880_000
_N_CATALOG_SALES_PER_SF = 1_440_000
_N_WEB_SALES_PER_SF = 720_000
# Dimension base sizes at SF=1; scaled by sqrt(sf).
_N_ITEM_BASE = 18_000
_N_CUSTOMER_BASE = 100_000
_N_ADDRESS_BASE = 50_000
_N_STORE_BASE = 12

_STATES = ["CA", "NY", "TX", "WA", "IL", "GA", "OH", "MI", "TN", "NC"]
_CATEGORIES = ["Books", "Electronics", "Home", "Jewelry", "Music", "Shoes",
               "Sports", "Children", "Men", "Women"]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _dim_n(base: int, sf: float) -> int:
    """Sub-linear dimension scaling (TPC-DS scales dimensions sub-linearly)."""
    return max(1, int(base * np.sqrt(sf)))


def _fact_n(per_sf: int, sf: float) -> int:
    return max(1, int(per_sf * sf))


def _with_nulls(g: np.random.Generator, values: np.ndarray, frac: float = 0.02) -> pd.Series:
    """Null out a small fraction of a fact column (non-PK columns may be NULL)."""
    s = pd.Series(values, dtype="float64")
    s[g.random(len(s)) < frac] = np.nan
    return s


def date_dim(spark: SparkSession, *, sf: float = 0.01, seed: int = 20) -> DataFrame:
    """5 years of days, 1998-2002 (fixed size, like the real date_dim)."""
    dates = pd.date_range("1998-01-01", "2002-12-31", freq="D")
    pdf = pd.DataFrame(
        {
            "d_date_sk": np.arange(1, len(dates) + 1),
            "d_date": dates.date,
            "d_year": dates.year.astype("int64"),
            "d_moy": dates.month.astype("int64"),
            "d_qoy": dates.quarter.astype("int64"),
            "d_dom": dates.day.astype("int64"),
            "d_day_name": dates.day_name(),
        }
    )
    return spark.createDataFrame(pdf)


def item(spark: SparkSession, *, sf: float = 0.01, seed: int = 21) -> DataFrame:
    n = _dim_n(_N_ITEM_BASE, sf)
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "i_item_sk": np.arange(1, n + 1),
            "i_item_id": [f"ITEM{i:08d}" for i in range(1, n + 1)],
            "i_category": g.choice(_CATEGORIES, n),
            "i_class": g.choice([f"class{j}" for j in range(1, 21)], n),
            "i_brand": g.choice([f"brand{j}" for j in range(1, 51)], n),
            "i_manufact_id": g.integers(1, 1001, n),
            "i_current_price": (g.random(n) * 99 + 1).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def customer(spark: SparkSession, *, sf: float = 0.01, seed: int = 22) -> DataFrame:
    n = _dim_n(_N_CUSTOMER_BASE, sf)
    n_addr = _dim_n(_N_ADDRESS_BASE, sf)
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "c_customer_sk": np.arange(1, n + 1),
            "c_customer_id": [f"CUST{i:010d}" for i in range(1, n + 1)],
            "c_current_addr_sk": g.integers(1, n_addr + 1, n),
            "c_birth_year": g.integers(1930, 2000, n),
            "c_preferred_cust_flag": g.choice(["Y", "N"], n),
        }
    )
    return spark.createDataFrame(pdf)


def customer_address(spark: SparkSession, *, sf: float = 0.01, seed: int = 23) -> DataFrame:
    n = _dim_n(_N_ADDRESS_BASE, sf)
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "ca_address_sk": np.arange(1, n + 1),
            "ca_state": g.choice(_STATES, n),
            "ca_county": g.choice([f"County{j}" for j in range(1, 101)], n),
            "ca_gmt_offset": g.choice([-5.0, -6.0, -7.0, -8.0], n),
        }
    )
    return spark.createDataFrame(pdf)


def store(spark: SparkSession, *, sf: float = 0.01, seed: int = 24) -> DataFrame:
    n = max(2, _dim_n(_N_STORE_BASE, sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "s_store_sk": np.arange(1, n + 1),
            "s_store_name": [f"Store{i}" for i in range(1, n + 1)],
            "s_state": g.choice(_STATES, n),
        }
    )
    return spark.createDataFrame(pdf)


def _sales_frame(
    g: np.random.Generator,
    n: int,
    sf: float,
    prefix: str,
    customer_col: str,
) -> pd.DataFrame:
    n_item = _dim_n(_N_ITEM_BASE, sf)
    n_cust = _dim_n(_N_CUSTOMER_BASE, sf)
    n_dates = 1826  # matches date_dim
    qty = g.integers(1, 101, n).astype("float64")
    price = (g.random(n) * 199 + 1).round(2)
    pdf = pd.DataFrame(
        {
            f"{prefix}_sold_date_sk": zipf(g, n, n_dates, 0.3),
            f"{prefix}_item_sk": zipf(g, n, n_item, 0.8),
            customer_col: zipf(g, n, n_cust, 0.8),
            f"{prefix}_quantity": _with_nulls(g, qty),
            f"{prefix}_sales_price": _with_nulls(g, price),
            f"{prefix}_ext_sales_price": _with_nulls(g, (qty * price).round(2)),
        }
    )
    return pdf


def store_sales(spark: SparkSession, *, sf: float = 0.01, seed: int = 25) -> DataFrame:
    n = _fact_n(_N_STORE_SALES_PER_SF, sf)
    g = _rng(seed)
    pdf = _sales_frame(g, n, sf, "ss", "ss_customer_sk")
    n_store = max(2, _dim_n(_N_STORE_BASE, sf))
    pdf["ss_store_sk"] = zipf(g, n, n_store, 0.5)
    pdf["ss_net_profit"] = _with_nulls(g, (g.random(n) * 5000 - 1000).round(2))
    return spark.createDataFrame(pdf)


def catalog_sales(spark: SparkSession, *, sf: float = 0.01, seed: int = 26) -> DataFrame:
    n = _fact_n(_N_CATALOG_SALES_PER_SF, sf)
    g = _rng(seed)
    return spark.createDataFrame(_sales_frame(g, n, sf, "cs", "cs_bill_customer_sk"))


def web_sales(spark: SparkSession, *, sf: float = 0.01, seed: int = 27) -> DataFrame:
    n = _fact_n(_N_WEB_SALES_PER_SF, sf)
    g = _rng(seed)
    return spark.createDataFrame(_sales_frame(g, n, sf, "ws", "ws_bill_customer_sk"))


#: Generator per TPC-DS-lite table name, in load order.
TPCDS_TABLES = {
    "date_dim": date_dim,
    "item": item,
    "customer": customer,
    "customer_address": customer_address,
    "store": store,
    "store_sales": store_sales,
    "catalog_sales": catalog_sales,
    "web_sales": web_sales,
}


def tpcds(spark: SparkSession, *, sf: float = 0.01) -> dict[str, DataFrame]:
    """All TPC-DS-lite tables at one scale factor."""
    return {name: gen(spark, sf=sf) for name, gen in TPCDS_TABLES.items()}
