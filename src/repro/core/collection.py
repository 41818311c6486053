"""Collection phase of TAG-join (dataflow execution).

After the reduction passes, the marked subgraph corresponds exactly to the
fully reduced relations. The collection phase traverses it bottom-up,
joining intermediate tables as they climb toward the root (Algorithm 2 lines
26–44). In dataflow form: a post-order join of the reduced relations along
the join tree, with projections pushed (only the columns the query still
needs travel in messages — §7 'Projections') and eager group-by applied at
subtree boundaries when the spec requests it (§7 'Aggregations').

Column qualification: when a spec node carries an alias different from its
relation (self-joins, e.g. TPC-H q7's two NATION occurrences), its columns
are renamed ``<alias>_<col>`` inside the collection output; downstream
expressions (select / group-by / residual predicates) reference the renamed
columns. Pushed-down filters run *before* renaming, against the relation's
original column names.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .reduction import RunStats, StepTrace
from .spec import Node, _needed_columns, qualify
from .tag import TID, TAGGraph


def node_frame(
    graph: TAGGraph,
    node: Node,
    reduced: dict[str, DataFrame],
    stats: RunStats | None = None,
) -> DataFrame:
    """The joined (and possibly pre-aggregated) frame for ``node``'s subtree.

    Equals the union over the subtree's vertices of the values Algorithm 2
    would accumulate at them by the superstep where the subtree's root sends
    to its parent.
    """
    # The reduced relation holds the surviving tuples' needed columns and
    # nothing else but ``__tid`` (reduction.py): no join reads them back.
    # For a single-relation plan it is the filtered tuple table, and this
    # select is its projection.
    df = reduced[node.name].select(
        [F.col(c).alias(qualify(node, c)) for c in _needed_columns(node)]
    )
    for child in node.children:
        cdf = node_frame(graph, child, reduced, stats)
        pcol = qualify(node, child.parent_join[0])
        ccol = qualify(child, child.parent_join[1])
        if pcol == ccol:
            df = df.join(cdf, on=pcol)
        else:
            df = df.join(cdf, on=F.col(pcol) == F.col(ccol)).drop(ccol)
        if stats is not None:
            stats.traces.append(
                StepTrace(
                    phase="collect",
                    superstep=len(stats.traces) + 1,
                    label=f"{node.name}<-{child.name}",
                    kind="join",
                    messages=df.count(),
                )
            )

    if node.preagg is not None:
        aggs = [F.expr(e).alias(a) for e, a in node.preagg.aggs]
        df = df.groupBy(*[F.col(k) for k in node.preagg.keys]).agg(*aggs)
    return df


def left_outer_two_way(
    graph: TAGGraph,
    left: Node,
    right: Node,
    on: tuple[str, str],
    stats: RunStats | None = None,
) -> DataFrame:
    """§7 'Outer Joins': two-way left outer join in TAG form.

    The attribute vertex only requires an edge to the *left* relation to
    stay active (dangling left tuples survive); right tuples still require a
    join partner. Right outer is this with arguments swapped; full outer
    needs no reduction at all (both sides go straight to collection).
    """
    lcol, rcol = on
    l_df = graph.tuples[left.relation]
    if left.filter:
        l_df = l_df.where(left.filter)
    r_df = graph.tuples[right.relation]
    if right.filter:
        r_df = r_df.where(right.filter)
    l_df = l_df.drop(TID)
    r_df = r_df.drop(TID)
    joined = l_df.join(r_df, on=F.col(lcol) == F.col(rcol), how="left")
    if stats is not None:
        stats.traces.append(
            StepTrace(
                phase="collect",
                superstep=1,
                label=f"{left.name} left⟕ {right.name}",
                kind="join",
                messages=joined.count(),
            )
        )
    return joined
