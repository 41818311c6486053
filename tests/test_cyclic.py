"""Cyclic join tests (§6.1–6.2): triangle and n-cycles vs the oracle."""
from __future__ import annotations

import math

import pandas as pd
import pytest

from repro import oracle, synth_data
from repro.core.cyclic import cycle_join, triangle
from repro.core.reduction import RunStats
from repro.core.tag import TAGGraph

from .sparkjobs import spark_jobs


def _cycle_graph(spark, n: int, rows: int = 300, keys: int = 30, skew=None):
    rels = {}
    for i in range(n):
        name = f"R{i + 1}"
        rels[name] = synth_data.binary_relation(
            spark,
            n=rows,
            n_keys=keys,
            cols=(f"l{i}", f"r{i}"),
            seed=100 + i,
            skew=skew,
        )
    graph = TAGGraph.encode(spark, rels)
    cyc = [
        (f"R{i + 1}", f"l{i}", f"r{i}") for i in range(n)
    ]
    return graph, rels, cyc


def _cycle_sql(n: int) -> str:
    sel = ", ".join(
        f"R{i + 1}.l{i} AS x{i + 1}" for i in range(n)
    )
    frm = ", ".join(f"R{i + 1}" for i in range(n))
    conds = []
    for i in range(n):
        nxt = (i + 1) % n
        conds.append(f"R{i + 1}.r{i} = R{nxt + 1}.l{nxt}")
    return f"SELECT {sel} FROM {frm} WHERE {' AND '.join(conds)}"


class TestTriangle:
    @pytest.mark.parametrize("skew", [None, 1.2])
    def test_triangle_matches_oracle(self, spark, skew):
        graph, rels, cyc = _cycle_graph(spark, 3, skew=skew)
        df, plan = cycle_join(graph, cyc)
        oracle.assert_equivalent(df, _cycle_sql(3), **rels)
        assert plan.n == 3 and plan.mid == 2

    def test_vanilla_equals_heavy_light(self, spark):
        graph, rels, cyc = _cycle_graph(spark, 3, skew=1.2)
        split_df, _ = cycle_join(graph, cyc, split=True)
        vanilla_df, _ = cycle_join(graph, cyc, split=False)
        a = sorted(map(tuple, split_df.collect()))
        b = sorted(map(tuple, vanilla_df.collect()))
        assert a == b

    def test_heavy_light_partition_is_disjoint_and_total(self, spark):
        graph, rels, cyc = _cycle_graph(spark, 3, skew=1.5)
        _, plan = cycle_join(graph, cyc, theta=5.0)
        r1_vals = rels["R1"].select("l0").distinct().count()
        assert plan.heavy_values + plan.light_values == r1_vals

    def test_default_theta_is_sqrt_in(self, spark):
        graph, rels, cyc = _cycle_graph(spark, 3)
        _, plan = cycle_join(graph, cyc)
        max_rel = max(rels[f"R{i}"].count() for i in (1, 2, 3))
        assert plan.theta == pytest.approx(math.sqrt(max_rel))

    def test_triangle_default_rels(self, spark):
        R = pd.DataFrame({"a": [1, 1, 2], "b": [10, 20, 10]})
        S = pd.DataFrame({"b": [10, 20], "c": [5, 6]})
        T = pd.DataFrame({"c": [5, 6, 9], "a": [1, 1, 2]})
        graph = TAGGraph.encode(
            spark,
            {
                "R": spark.createDataFrame(R),
                "S": spark.createDataFrame(S),
                "T": spark.createDataFrame(T),
            },
        )
        df, _ = triangle(graph)
        oracle.assert_equivalent(
            df,
            """
            SELECT R.a AS x1, R.b AS x2, S.c AS x3
            FROM R, S, T
            WHERE R.b = S.b AND S.c = T.c AND T.a = R.a
            """,
            R=R,
            S=S,
            T=T,
        )


class TestNCycles:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_ncycle_matches_oracle(self, spark, n):
        graph, rels, cyc = _cycle_graph(spark, n, rows=150, keys=12)
        df, plan = cycle_join(graph, cyc)
        oracle.assert_equivalent(df, _cycle_sql(n), **rels)
        assert plan.mid == math.ceil(n / 2)

    def test_empty_cycle(self, spark):
        rels = {
            "R1": pd.DataFrame({"l0": [1], "r0": [2]}),
            "R2": pd.DataFrame({"l1": [3], "r1": [4]}),
            "R3": pd.DataFrame({"l2": [5], "r2": [6]}),
        }
        graph = TAGGraph.encode(
            spark, {k: spark.createDataFrame(v) for k, v in rels.items()}
        )
        df, _ = cycle_join(
            graph, [("R1", "l0", "r0"), ("R2", "l1", "r1"), ("R3", "l2", "r2")]
        )
        assert df.count() == 0

    def test_rejects_too_short_cycle(self, spark):
        graph = TAGGraph.encode(
            spark, {"R1": spark.createDataFrame(pd.DataFrame({"a": [1], "b": [1]}))}
        )
        with pytest.raises(AssertionError):
            cycle_join(graph, [("R1", "a", "b"), ("R1", "a", "b")])


class TestCycleCost:
    def test_communication_within_agm_budget(self, spark):
        """§6.2 eq. (4): with θ=√IN the reduction-phase message volume stays
        within a constant factor of IN^{n/2} for the triangle (n=3)."""
        graph, rels, cyc = _cycle_graph(spark, 3, rows=400, keys=25, skew=1.0)
        stats = RunStats()
        df, plan = cycle_join(graph, cyc, stats=stats)
        df.count()
        in_size = max(rels[f"R{i}"].count() for i in (1, 2, 3))
        budget = 8 * in_size ** 1.5  # constant-factor slack over AGM
        assert stats.total_messages() <= budget

    def test_traces_cover_heavy_and_light(self, spark):
        graph, _, cyc = _cycle_graph(spark, 5, rows=200, keys=10, skew=1.0)
        stats = RunStats()
        cycle_join(graph, cyc, stats=stats)
        phases = {t.phase for t in stats.traces}
        assert {"heavy-left", "heavy-right", "light-left", "light-right"} <= phases


class TestCycleJobs:
    """``cycle_join`` builds its result lazily and runs only what its plan
    needs: one aggregate over R₁'s value degrees for both heavy/light
    counts, plus one ``count()`` per relation when θ defaults to √IN.
    Measured on a materialised graph under AQE: the degree aggregate is 3
    Spark jobs and each relation's count 2."""

    @pytest.mark.parametrize(
        "kw,jobs",
        [({"split": False}, 0), ({"theta": 5.0}, 3), ({}, 3 + 3 * 2)],
        ids=["vanilla", "theta-given", "theta-default"],
    )
    def test_spark_jobs(self, spark, kw, jobs):
        graph, _, cyc = _cycle_graph(spark, 3)
        graph.materialize()
        assert spark_jobs(spark, lambda: cycle_join(graph, cyc, **kw)) == jobs
