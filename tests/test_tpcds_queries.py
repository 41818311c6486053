"""TPC-DS-lite query correctness: TAG path and Spark SQL path vs DuckDB."""
from __future__ import annotations

import pytest

from repro import oracle
from repro.core import tagjoin
from repro.tpcds.queries import QUERIES

ALL = sorted(QUERIES)


def _oracle_tables(query, tpcds_data):
    return {t: tpcds_data[t] for t in query.tables}


@pytest.mark.parametrize("name", ALL)
def test_tag_matches_oracle(name, tpcds_graph, tpcds_data):
    q = QUERIES[name]
    df, _ = q.run_tag(tpcds_graph)
    oracle.assert_equivalent(df, q.sql, **_oracle_tables(q, tpcds_data))


@pytest.mark.parametrize("name", ALL)
def test_spark_sql_matches_oracle(name, spark, tpcds_data):
    q = QUERIES[name]
    for t in q.tables:
        tpcds_data[t].createOrReplaceTempView(t)
    df = spark.sql(q.sql)
    oracle.assert_equivalent(df, q.sql, **_oracle_tables(q, tpcds_data))


def test_expected_query_set():
    assert set(ALL) == {
        "ds_q6", "ds_q7", "ds_q12", "ds_q32", "ds_q33", "ds_q37",
        "ds_q45", "ds_q69", "ds_q84", "ds_q98",
    }


def test_classes_cover_paper_groups():
    classes = {q.paper_class for q in QUERIES.values()}
    assert {"No agg", "Local", "Global", "Corr"} <= classes


def test_q33_keeps_every_channel_size(tpcds_graph, monkeypatch):
    """ds_q33's merged ledger keeps all nine channel sizes: the store
    channel's under its node names, the later channels' ``item`` and
    ``date_dim`` qualified by their spec names."""
    reduced = []
    real = tagjoin.reduce_phase

    def capture(graph, nodes, steps, stats=None):
        reduced.append(real(graph, nodes, steps, stats))
        return reduced[-1]

    monkeypatch.setattr(tagjoin, "reduce_phase", capture)
    _, stats = QUERIES["ds_q33"].run_tag(tpcds_graph, stats=True)
    ss, cs, ws = ({a: df.count() for a, df in r.items()} for r in reduced)
    assert stats.reduced_sizes == {
        "store_sales": ss["store_sales"], "item": ss["item"],
        "date_dim": ss["date_dim"],
        "catalog_sales": cs["catalog_sales"],
        "ds_q33_cs/item": cs["item"], "ds_q33_cs/date_dim": cs["date_dim"],
        "web_sales": ws["web_sales"],
        "ds_q33_ws/item": ws["item"], "ds_q33_ws/date_dim": ws["date_dim"],
    }


def _subtree(plan):
    """``plan`` and every node below it (JVM logical-plan nodes)."""
    yield plan
    kids = plan.children()
    for i in range(kids.size()):
        yield from _subtree(kids.apply(i))


def test_eager_aggregation_query_uses_preagg(tpcds_graph):
    """ds_q98's TAG plan aggregates store_sales per item key *below* the
    join with item (§7 eager group-by), not only after it."""
    df, _ = QUERIES["ds_q98"].run_tag(tpcds_graph)
    plan = df._jdf.queryExecution().analyzed()
    item_joins = [
        n for n in _subtree(plan)
        if n.nodeName() == "Join"
        and {"i_item_sk", "ss_item_sk"} <= set(
            a.name() for a in _attrs(n.condition().get())
        )
    ]
    assert len(item_joins) == 1
    below = [
        n for i in range(item_joins[0].children().size())
        for n in _subtree(item_joins[0].children().apply(i))
        if n.nodeName() == "Aggregate"
    ]
    assert below, "no aggregation below the item join"
    (pre,) = below
    assert "ss_item_sk" in pre.groupingExpressions().toString()
    outputs = {a.name() for a in _seq(pre.output())}
    assert "pre_rev" in outputs and not any(c.startswith("i_") for c in outputs)


def _seq(jseq) -> list:
    return [jseq.apply(i) for i in range(jseq.size())]


def _attrs(expr) -> list:
    return _seq(expr.references().toSeq())
