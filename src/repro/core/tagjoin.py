"""TAG-join: end-to-end evaluation of a QuerySpec over a TAG graph (§6.4).

Pipeline: join tree → TAG plan (§5.1) → GenSteps label list (Algorithm 1) →
reduction supersteps (UP+DOWN, Lemma 5.1) → collection (bottom-up joins) →
lookup joins (decorrelated subqueries) → residual predicate → aggregation
(LA / GA / scalar, §7).

Every spec runs this one pipeline. A single-relation spec's label list is
empty, so its reduction is only the pushed predicate (attribute vertices
deactivate themselves) and it runs no superstep; collection then reads the
root's columns from the filtered tuple table.

The residual ``post_filter`` covers GHD bags with more than one join
condition, e.g. the cycle-closing predicate of TPC-H q5: the tree covers
the spanning acyclic part, and the extra equality is checked during
collection as soon as intermediate tuples contain both attributes (§6.4's
GHD strategy with width-2 bags).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .collection import node_frame
from .plan import build_plan, gensteps
from .reduction import RunStats, reduce_phase
from .spec import Node, QuerySpec, qualify
from .tag import TAGGraph


def finalize(df: DataFrame, spec: QuerySpec) -> DataFrame:
    """Residual predicate + aggregation/projection, shared by all paths.

    ``group_by`` entries are either plain column/expression strings or
    ``(expr, alias)`` pairs (needed when grouping on a computed expression
    like ``year(o_orderdate)`` that later select/having clauses reference).
    """
    if spec.post_filter:
        df = df.where(spec.post_filter)
    if spec.aggregates:
        aggs = [F.expr(e).alias(a) for e, a in spec.aggregates]
        if spec.group_by:
            keys = [
                F.expr(g[0]).alias(g[1]) if isinstance(g, tuple) else F.expr(g)
                for g in spec.group_by
            ]
            df = df.groupBy(*keys).agg(*aggs)
        else:
            df = df.agg(*aggs)
    elif spec.select:
        df = df.select([F.expr(e).alias(a) for e, a in spec.select])
    if spec.having:
        df = df.where(spec.having)
    if spec.select and spec.aggregates:
        df = df.select([F.expr(e).alias(a) for e, a in spec.select])
    if spec.distinct:
        df = df.distinct()
    return df


def run_spec(
    graph: TAGGraph, spec: QuerySpec, stats: bool = False
) -> tuple[DataFrame, RunStats]:
    """Evaluate ``spec`` with TAG-join; returns (result, run statistics).

    Every spec takes the same path: plan, label list, reduction, then
    collection (``node_frame``). A ``reduction_only`` spec (EXISTS /
    IN-subquery semijoins) skips collection: the reduced root holds exactly
    the root tuples with join partners in every subtree, each once (no
    collection-phase multiplicities), and its ``need`` columns are the
    output. Each lookup (a decorrelated subquery, §7) is evaluated
    the same way, set-at-a-time for all outer tuples, and inner-joined to
    the frame before ``finalize``.
    """
    spec.validate()
    rs = RunStats() if stats else None
    root = spec.root
    reduced = reduce_phase(graph, spec.nodes(), gensteps(build_plan(root)), rs)
    if spec.reduction_only:
        df = _root_frame(reduced[root.name], root)
    else:
        df = node_frame(graph, root, reduced, rs)

    for lookup, on in spec.lookups:
        ldf, lrs = run_spec(graph, lookup, stats=stats)
        df = df.join(ldf, on=[F.col(o) == F.col(k) for o, k in on])
        if rs is not None:
            rs.merge(lrs, lookup.name)

    out = finalize(df, spec)
    return out, (rs or RunStats())


def _root_frame(df: DataFrame, root: Node) -> DataFrame:
    """The root tuples' ``need`` columns, named as collection names them."""
    return df.select([F.col(c).alias(qualify(root, c)) for c in root.need])
