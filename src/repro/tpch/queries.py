"""TPC-H-lite queries: SQL text + TAG-join plan per query.

Coverage vs the paper (§8.1.1 runs all 22; we keep 15 representative ones —
see DESIGN.md for the substitution note). Queries are tagged with the
paper's aggregation classes (§7): LA (local aggregation), GA (global), GA_S
(scalar global), plus Corr for correlated subqueries and Cyclic for q5.
Omitted: q8, q11, q13, q15, q16, q21, q22 (outer/anti-join patterns and
view-style queries beyond the representative set).

Every query derives its TAG spec from its own SQL and a root
(:meth:`repro.query.Query.derived`); the correlated ones (q2, q17, q20)
through the deriver's subquery decorrelation.
"""
from __future__ import annotations

from ..query import Query

#: TPC-H column naming: every column of a table starts with its prefix.
PREFIXES = {
    "lineitem": "l", "orders": "o", "customer": "c", "part": "p",
    "partsupp": "ps", "supplier": "s", "nation": "n", "region": "r",
}

QUERIES: dict[str, Query] = {}


def _derived(name: str, root: str, agg_class: str, paper_class: str, sql: str):
    QUERIES[name] = Query.derived(name, sql, root, PREFIXES, agg_class, paper_class)


# q1 — pricing summary report: single-table scan, multi-attribute group by
_derived("q1", "lineitem", "GA", "GA", """
SELECT l_returnflag AS l_returnflag, l_linestatus AS l_linestatus,
       sum(l_quantity) AS sum_qty,
       sum(l_extendedprice) AS sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       avg(l_quantity) AS avg_qty,
       avg(l_extendedprice) AS avg_price,
       avg(l_discount) AS avg_disc,
       count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= date '1998-09-02'
GROUP BY l_returnflag, l_linestatus
""")

# q2 — minimum-cost supplier: a correlated scalar subquery, decorrelated
# into a per-part MIN lookup (§7)
_derived("q2", "p", "none", "Corr", """
SELECT s_acctbal AS s_acctbal, s_name AS s_name, n_name AS n_name,
       p.p_partkey AS p_partkey, ps_supplycost AS ps_supplycost
FROM part p, partsupp, supplier, nation, region
WHERE p.p_partkey = ps_partkey AND s_suppkey = ps_suppkey
  AND p_size = 15 AND p_type = 'STANDARD'
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'EUROPE'
  AND ps_supplycost = (
      SELECT min(ps2.ps_supplycost)
      FROM partsupp ps2, supplier s2, nation n2, region r2
      WHERE p.p_partkey = ps2.ps_partkey AND s2.s_suppkey = ps2.ps_suppkey
        AND s2.s_nationkey = n2.n_nationkey
        AND n2.n_regionkey = r2.r_regionkey AND r2.r_name = 'EUROPE')
""")

# q3 — shipping priority (LA: group key determined by the order)
_derived("q3", "orders", "LA", "LA", """
SELECT l_orderkey AS l_orderkey,
       sum(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate AS o_orderdate, o_shippriority AS o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < date '1995-03-15' AND l_shipdate > date '1995-03-15'
GROUP BY l_orderkey, o_orderdate, o_shippriority
""")

# q4 — order priority checking (EXISTS ≡ semijoin: reduction-only TAG run)
_derived("q4", "orders", "LA", "LA", """
SELECT o_orderpriority AS o_orderpriority, count(*) AS order_count
FROM orders
WHERE o_orderdate >= date '1993-07-01' AND o_orderdate < date '1993-10-01'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)
GROUP BY o_orderpriority
""")

# q5 — local supplier volume: the 5-way *cycle* query (c/s nation equality).
# GHD strategy (§6.4): spanning tree + cycle-closing residual predicate.
_derived("q5", "orders", "LA", "Cyclic/LA", """
SELECT n_name AS n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= date '1994-01-01' AND o_orderdate < date '1995-01-01'
GROUP BY n_name
""")

# q6 — revenue change forecast (scalar aggregation over one table)
_derived("q6", "lineitem", "GA_S", "GA_S", """
SELECT sum(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= date '1994-01-01' AND l_shipdate < date '1995-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
""")

# q7 — volume shipping: self-join on NATION via aliases (GA)
_derived("q7", "lineitem", "GA", "GA", """
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
       year(l_shipdate) AS l_year,
       sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM supplier, lineitem, orders, customer, nation n1, nation n2
WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
  AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey
  AND c_nationkey = n2.n_nationkey
  AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY')
       OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE'))
  AND l_shipdate BETWEEN date '1995-01-01' AND date '1996-12-31'
GROUP BY n1.n_name, n2.n_name, year(l_shipdate)
""")

# q9 — product type profit (GA; partsupp joins lineitem on two attributes:
# tree edge on partkey + residual equality on suppkey, a width-2 GHD bag)
_derived("q9", "lineitem", "GA", "GA", """
SELECT n_name AS nation, year(o_orderdate) AS o_year,
       sum(l_extendedprice * (1 - l_discount)
           - ps_supplycost * l_quantity) AS sum_profit
FROM part, supplier, lineitem, partsupp, orders, nation
WHERE p_partkey = l_partkey AND ps_partkey = l_partkey
  AND s_suppkey = l_suppkey AND o_orderkey = l_orderkey
  AND s_nationkey = n_nationkey AND ps_suppkey = l_suppkey
  AND p_type = 'PROMO'
GROUP BY n_name, year(o_orderdate)
""")

# q10 — returned item reporting (LA: group key is the customer)
_derived("q10", "orders", "LA", "LA", """
SELECT c_custkey AS c_custkey, c_name AS c_name,
       sum(l_extendedprice * (1 - l_discount)) AS revenue,
       c_acctbal AS c_acctbal, n_name AS n_name
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate >= date '1993-10-01' AND o_orderdate < date '1994-01-01'
  AND l_returnflag = 'R' AND c_nationkey = n_nationkey
GROUP BY c_custkey, c_name, c_acctbal, n_name
""")

# q12 — shipping modes and order priority (LA on l_shipmode)
_derived("q12", "lineitem", "LA", "LA", """
SELECT l_shipmode AS l_shipmode,
       sum(CASE WHEN o_orderpriority = '1-URGENT'
                  OR o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END)
           AS high_line_count,
       sum(CASE WHEN o_orderpriority <> '1-URGENT'
                 AND o_orderpriority <> '2-HIGH' THEN 1 ELSE 0 END)
           AS low_line_count
FROM orders, lineitem
WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL', 'SHIP')
  AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
  AND l_receiptdate >= date '1994-01-01'
  AND l_receiptdate < date '1995-01-01'
GROUP BY l_shipmode
""")

# q14 — promotion effect (scalar over a PK-FK join)
_derived("q14", "lineitem", "GA_S", "GA_S", """
SELECT 100.00 * sum(CASE WHEN p_type = 'PROMO'
                         THEN l_extendedprice * (1 - l_discount)
                         ELSE 0 END)
       / sum(l_extendedprice * (1 - l_discount)) AS promo_revenue
FROM lineitem, part
WHERE l_partkey = p_partkey
  AND l_shipdate >= date '1995-09-01' AND l_shipdate < date '1995-10-01'
""")

# q17 — small-quantity-order revenue: a correlated scalar subquery per part
_derived("q17", "lineitem", "GA_S", "Corr", """
SELECT sum(l_extendedprice) / 7.0 AS avg_yearly
FROM lineitem, part
WHERE p_partkey = l_partkey
  AND p_brand = 'Brand#23' AND p_container = 'MED BOX'
  AND l_quantity < (SELECT 0.2 * avg(l2.l_quantity) FROM lineitem l2
                    WHERE l2.l_partkey = p_partkey)
""")

# q18 — large volume customers (LA per order + HAVING)
_derived("q18", "orders", "LA", "LA", """
SELECT c_name AS c_name, c_custkey AS c_custkey, o_orderkey AS o_orderkey,
       o_orderdate AS o_orderdate, o_totalprice AS o_totalprice,
       sum(l_quantity) AS sum_qty
FROM customer, orders, lineitem
WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey
GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
HAVING sum(l_quantity) > 212
""")

# q19 — discounted revenue (scalar; disjunctive multi-relation predicate,
# whose per-relation implications are pushed to lineitem and part)
_derived("q19", "lineitem", "GA_S", "GA_S", """
SELECT sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem, part
WHERE p_partkey = l_partkey AND l_shipmode IN ('AIR', 'REG AIR')
  AND l_shipinstruct = 'DELIVER IN PERSON'
  AND ((p_brand = 'Brand#12' AND p_container IN ('SM CASE', 'SM BOX')
        AND l_quantity >= 1 AND l_quantity <= 11 AND p_size BETWEEN 1 AND 5)
    OR (p_brand = 'Brand#23' AND p_container IN ('MED BAG', 'MED BOX')
        AND l_quantity >= 10 AND l_quantity <= 20 AND p_size BETWEEN 1 AND 10)
    OR (p_brand = 'Brand#34' AND p_container IN ('LG CASE', 'LG BOX')
        AND l_quantity >= 20 AND l_quantity <= 30 AND p_size BETWEEN 1 AND 15))
""")

# q20 — potential part promotion: IN over a block with its own IN and
# correlated scalar subquery (nested decorrelation)
_derived("q20", "supplier", "none", "Corr", """
SELECT s_name AS s_name, s_acctbal AS s_acctbal
FROM supplier, nation
WHERE s_suppkey IN (
    SELECT ps_suppkey FROM partsupp
    WHERE ps_partkey IN (SELECT p_partkey FROM part
                         WHERE p_type = 'ECONOMY')
      AND ps_availqty > (
          SELECT 0.5 * sum(l_quantity) FROM lineitem
          WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey
            AND l_shipdate >= date '1994-01-01'
            AND l_shipdate < date '1995-01-01'))
  AND s_nationkey = n_nationkey AND n_name = 'CANADA'
""")

