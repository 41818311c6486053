"""TPC-DS-lite queries: SQL text + TAG-join plan per query.

10 representative queries over the TPC-DS-lite snowflake schema, one or
more per evaluation class of the paper's Tables 5/6/11–13 (§8.4):

- **no aggregation** (select-project-join): ds_q37, ds_q84
- **local aggregation (LA)**: ds_q7, ds_q12, ds_q33 (multi-fact union with
  eager pre-aggregation per channel), ds_q98 (eager group-by pushed below
  the item join — §7's q58/q83-style optimisation)
- **global aggregation (GA)**: ds_q45, ds_q69
- **scalar GA**: ds_q32
- **correlated subquery**: ds_q6

Names anchor to the TPC-DS query each one emulates; bodies are simplified
to the TPC-DS-lite schema (see DESIGN.md substitutions). Queries derive
their TAG spec from their own SQL and a root
(:meth:`repro.query.Query.derived`), ds_q6 through the deriver's subquery
decorrelation. ds_q33's channels derive from their own SQL, and only its
union step is written by hand, as is ds_q98's plan (eager group-by, a plan
choice its SQL does not state).
"""
from __future__ import annotations

from functools import reduce as _reduce

from pyspark.sql import functions as F

from ..core.reduction import RunStats
from ..core.spec import Node, Preagg, QuerySpec
from ..core.tag import TAGGraph
from ..core.tagjoin import run_spec
from ..query import Query

#: TPC-DS column naming: every column of a table starts with its prefix.
PREFIXES = {
    "store_sales": "ss", "catalog_sales": "cs", "web_sales": "ws",
    "item": "i", "date_dim": "d", "customer": "c", "customer_address": "ca",
    "store": "s",
}

QUERIES: dict[str, Query] = {}


def _derived(name: str, root: str, agg_class: str, paper_class: str, sql: str):
    QUERIES[name] = Query.derived(name, sql, root, PREFIXES, agg_class, paper_class)


def _hand(name: str, agg_class: str, paper_class: str, sql: str, tag) -> None:
    QUERIES[name] = Query(name, sql, agg_class, paper_class, tag=tag)


# ---------------------------------------------------------------------------
# No aggregation
# ---------------------------------------------------------------------------

# A pure semijoin: items that sold. Reduction-only TAG run — the reduced
# root is the answer, no collection multiplicities.
_derived("ds_q37", "item", "none", "No agg", """
SELECT DISTINCT i_item_id AS i_item_id, i_current_price AS i_current_price
FROM item, store_sales
WHERE i_item_sk = ss_item_sk
  AND i_current_price BETWEEN 20 AND 25 AND i_category = 'Books'
""")

_derived("ds_q84", "customer", "none", "No agg", """
SELECT c_customer_id AS customer_id, ca_county AS county
FROM customer, customer_address
WHERE c_current_addr_sk = ca_address_sk
  AND ca_state = 'CA' AND c_birth_year BETWEEN 1980 AND 1985
""")

# ---------------------------------------------------------------------------
# Local aggregation
# ---------------------------------------------------------------------------

_derived("ds_q7", "store_sales", "LA", "Local", """
SELECT i_item_id AS i_item_id,
       avg(ss_quantity) AS agg1, avg(ss_sales_price) AS agg2,
       avg(ss_ext_sales_price) AS agg3
FROM store_sales, date_dim, item
WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk
  AND d_year = 2000
GROUP BY i_item_id
""")

_derived("ds_q12", "web_sales", "LA", "Local", """
SELECT i_item_id AS i_item_id, i_category AS i_category,
       sum(ws_ext_sales_price) AS itemrevenue
FROM web_sales, item, date_dim
WHERE ws_item_sk = i_item_sk AND i_category IN ('Books', 'Home')
  AND ws_sold_date_sk = d_date_sk AND d_year = 1999 AND d_moy BETWEEN 2 AND 3
GROUP BY i_item_id, i_category
""")


def _channel_sql(fact: str, prefix: str) -> str:
    """One channel of ds_q33: fact ⋈ item(Electronics) ⋈ date(2000-01),
    eagerly aggregated by manufacturer."""
    return f"""SELECT i_manufact_id, sum({prefix}_ext_sales_price) AS total_sales
            FROM {fact}, date_dim, item
            WHERE {prefix}_item_sk = i_item_sk AND {prefix}_sold_date_sk = d_date_sk
              AND d_year = 2000 AND d_moy = 1 AND i_category = 'Electronics'
            GROUP BY i_manufact_id"""


_Q33_FACTS = {"ss": "store_sales", "cs": "catalog_sales", "ws": "web_sales"}
_Q33_CHANNELS = [
    QuerySpec.from_sql(
        _channel_sql(fact, prefix), fact, PREFIXES, name=f"ds_q33_{prefix}"
    )
    for prefix, fact in _Q33_FACTS.items()
]
for _spec in _Q33_CHANNELS:
    _spec.agg_class = "LA"  # one group key, item's: a local aggregation
    _spec.validate()


def _q33_tag(graph: TAGGraph, stats: bool = False):
    """Multi-fact union with per-channel eager aggregation (§7): each fact
    table aggregates down to one row per manufacturer before the union."""
    frames, all_stats = [], RunStats()
    for spec in _Q33_CHANNELS:
        df, s = run_spec(graph, spec, stats=stats)
        frames.append(df)
        all_stats.merge(s, spec.name)
    union = _reduce(lambda a, b: a.unionByName(b), frames)
    out = (
        union.groupBy("i_manufact_id")
        .agg(F.sum("total_sales").alias("total_sales"))
        .select(
            F.col("i_manufact_id").alias("i_manufact_id"),
            F.col("total_sales").alias("total_sales"),
        )
    )
    return out, all_stats


_Q33_WITH = ",\n     ".join(
    f"{prefix} AS ({_channel_sql(fact, prefix)})" for prefix, fact in _Q33_FACTS.items()
)
_hand("ds_q33", "LA", "Local", f"""
WITH {_Q33_WITH}
SELECT i_manufact_id AS i_manufact_id, sum(total_sales) AS total_sales
FROM (SELECT * FROM ss UNION ALL SELECT * FROM cs UNION ALL SELECT * FROM ws) u
GROUP BY i_manufact_id
""", _q33_tag)

# Eager group-by (§7): the store_sales subtree (fact ⋈ date filter)
# pre-aggregates per item key before joining the item dimension.
_Q98 = QuerySpec(
    name="ds_q98",
    root=Node(
        relation="item",
        filter="i_category = 'Sports'",
        need=["i_item_id", "i_class"],
        children=[
            Node(
                relation="store_sales",
                parent_join=("i_item_sk", "ss_item_sk"),
                need=["ss_ext_sales_price"],
                preagg=Preagg(
                    keys=["ss_item_sk"],
                    aggs=[("sum(ss_ext_sales_price)", "pre_rev")],
                ),
                children=[
                    Node(
                        relation="date_dim",
                        parent_join=("ss_sold_date_sk", "d_date_sk"),
                        filter=(
                            "d_date BETWEEN date'1999-02-22' "
                            "AND date'1999-03-24'"
                        ),
                    )
                ],
            )
        ],
    ),
    group_by=["i_item_id", "i_class"],
    aggregates=[("sum(pre_rev)", "itemrevenue")],
    agg_class="LA",
)


def _q98_tag(graph: TAGGraph, stats: bool = False):
    return run_spec(graph, _Q98, stats=stats)


_hand("ds_q98", "LA", "Local", """
SELECT i_item_id AS i_item_id, i_class AS i_class,
       sum(ss_ext_sales_price) AS itemrevenue
FROM store_sales, item, date_dim
WHERE ss_item_sk = i_item_sk AND i_category = 'Sports'
  AND ss_sold_date_sk = d_date_sk
  AND d_date BETWEEN date '1999-02-22' AND date '1999-03-24'
GROUP BY i_item_id, i_class
""", _q98_tag)

# ---------------------------------------------------------------------------
# Global aggregation
# ---------------------------------------------------------------------------

_derived("ds_q45", "web_sales", "GA", "Global", """
SELECT ca_county AS ca_county, ca_state AS ca_state,
       sum(ws_ext_sales_price) AS total
FROM web_sales, customer, customer_address, date_dim
WHERE ws_bill_customer_sk = c_customer_sk
  AND c_current_addr_sk = ca_address_sk
  AND ws_sold_date_sk = d_date_sk AND d_qoy = 2 AND d_year = 2001
GROUP BY ca_county, ca_state
""")

_derived("ds_q69", "store_sales", "GA", "Global", """
SELECT ca_state AS ca_state, c_preferred_cust_flag AS pref, count(*) AS cnt
FROM customer, customer_address, store_sales, date_dim
WHERE c_current_addr_sk = ca_address_sk AND ss_customer_sk = c_customer_sk
  AND ss_sold_date_sk = d_date_sk AND d_year = 2001 AND d_moy BETWEEN 1 AND 3
GROUP BY ca_state, c_preferred_cust_flag
""")

# ---------------------------------------------------------------------------
# Scalar global aggregation
# ---------------------------------------------------------------------------

_derived("ds_q32", "catalog_sales", "GA_S", "Global", """
SELECT sum(cs_ext_sales_price) AS excess_discount_amount
FROM catalog_sales, item, date_dim
WHERE i_manufact_id = 77 AND i_item_sk = cs_item_sk
  AND d_date BETWEEN date '2000-01-27' AND date '2000-04-26'
  AND d_date_sk = cs_sold_date_sk
""")

# ---------------------------------------------------------------------------
# Correlated subquery
# ---------------------------------------------------------------------------

# The per-category average is one grouped lookup for all outer tuples.
_derived("ds_q6", "store_sales", "GA", "Corr", """
SELECT ca_state AS ca_state, count(*) AS cnt
FROM customer_address, customer, store_sales, date_dim, item i
WHERE ca_address_sk = c_current_addr_sk AND c_customer_sk = ss_customer_sk
  AND ss_sold_date_sk = d_date_sk AND i.i_item_sk = ss_item_sk
  AND d_year = 2001 AND d_moy = 1
  AND i.i_current_price > 1.2 * (SELECT avg(j.i_current_price) FROM item j
                                 WHERE j.i_category = i.i_category)
GROUP BY ca_state
""")
