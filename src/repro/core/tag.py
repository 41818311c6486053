"""Tuple-Attribute Graph (TAG) encoding of a relational database (§3).

A relational instance becomes a bipartite graph:

- one **tuple vertex** per tuple (identified here by a per-relation
  ``__tid`` column added to the tuple table — the vertex "state" is the
  tuple itself);
- one **attribute vertex** per distinct value in the active domain
  (attribute vertices are *the values*: because the edge tables below are
  keyed by value, any two tuples sharing a value share the vertex by
  construction, with no duplication — the paper's "shared index" property);
- one edge labelled ``R.A`` per occurrence of value ``a`` in attribute ``A``
  of an ``R``-tuple. The edge table for label ``R.A`` is a DataFrame
  ``(__tid, __val)``: a column view of R's tuple table, its non-null ``A``
  values next to their ``__tid``.

Mirroring §3's practical note, float-typed and long-text attributes are not
materialised as attribute vertices by default (they are never join keys in
the workloads); they remain stored on the tuple vertex.

The encoding is query-independent and linear in the database size; it is
computed once ("offline"). Each relation has one Spark cache, its tuple
table. The columnar cache already holds every attribute column, so an edge
table scans two cached columns and is not cached again: there is no second
copy of a value, and no second cache whose eviction could recompute
``__tid`` apart from the tuples.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

TID = "__tid"
VAL = "__val"

#: Spark type names whose columns get attribute vertices by default.
_MATERIALIZED_TYPES = ("int", "bigint", "smallint", "tinyint", "date",
                       "timestamp", "timestamp_ntz", "string")
#: Max string length heuristic stand-in: columns whose *name* marks them as
#: free text are kept on the tuple vertex only (the paper skips comments).
_TEXT_MARKERS = ("comment", "description")


def default_attribute_columns(df: DataFrame) -> list[str]:
    """Columns that get attribute vertices: non-float, non-free-text (§3)."""
    out = []
    for name, dtype in df.dtypes:
        if any(m in name.lower() for m in _TEXT_MARKERS):
            continue
        if dtype in _MATERIALIZED_TYPES:
            out.append(name)
    return out


@dataclass
class TAGStats:
    """Graph-size accounting (used by the loading experiments, Tables 1/2)."""

    tuple_vertices: dict[str, int] = field(default_factory=dict)
    edges: dict[str, int] = field(default_factory=dict)  # "R.A" -> edge count

    @property
    def total_tuple_vertices(self) -> int:
        return sum(self.tuple_vertices.values())

    @property
    def total_edges(self) -> int:
        return sum(self.edges.values())


class TAGGraph:
    """TAG representation of a set of relations, backed by DataFrames.

    ``tuples[R]`` is relation R with the extra ``__tid`` vertex-id column;
    ``edges[R][A]`` is the edge table for label ``R.A``.
    """

    def __init__(
        self,
        spark: SparkSession,
        tuples: dict[str, DataFrame],
        edges: dict[str, dict[str, DataFrame]],
    ):
        self.spark = spark
        self.tuples = tuples
        self.edges = edges

    @classmethod
    def encode(
        cls,
        spark: SparkSession,
        relations: dict[str, DataFrame],
        attributes: dict[str, list[str]] | None = None,
    ) -> "TAGGraph":
        """Build the TAG graph from relational DataFrames.

        ``attributes`` optionally overrides, per relation, which columns are
        materialised as attribute vertices (default:
        :func:`default_attribute_columns`). Only the tuple tables are
        cached: ``monotonically_increasing_id`` depends on partitioning, so
        recomputed vertex ids could disagree with the edges derived from
        them. Each listed edge table is the same uncached column view of
        its tuple table that :meth:`edge` derives for any other column.
        """
        tuples = {
            name: df.withColumn(TID, F.monotonically_increasing_id()).cache()
            for name, df in relations.items()
        }
        graph = cls(spark, tuples, {name: {} for name in relations})
        for name, df in relations.items():
            cols = (attributes or {}).get(name) or default_attribute_columns(df)
            for col in cols:
                graph.edge(name, col)
        return graph

    def edge(self, relation: str, col: str) -> DataFrame:
        """Edge table for label ``relation.col``: the non-null ``col``
        values of the cached tuple table next to their ``__tid``. Derived on
        first use if the column was not materialised as attribute
        vertices."""
        by_col = self.edges.setdefault(relation, {})
        if col not in by_col:
            by_col[col] = (
                self.tuples[relation]
                .select(F.col(TID), F.col(col).alias(VAL))
                .where(F.col(VAL).isNotNull())
            )
        return by_col[col]

    def materialize(self) -> TAGStats:
        """Build every tuple table's cache; returns size stats.

        This is the TAG analogue of "load + index build" for an RDBMS: after
        this call every tuple table, and with it every edge table (the
        attribute-vertex index, a column view of it), is resident. One
        aggregate per relation, ``count(1), count(A1) … count(Ak)`` over its
        labels, builds the cache and counts its tuple vertices and each
        label's edges (the non-null values of ``Ai``).
        """
        stats = TAGStats()
        for name, t in self.tuples.items():
            cols = list(self.edges[name])
            row = t.agg(F.count(F.lit(1)),
                        *[F.count(F.col(c)) for c in cols]).first()
            stats.tuple_vertices[name] = row[0]
            for col, n in zip(cols, row[1:]):
                stats.edges[f"{name}.{col}"] = n
        return stats

    def unpersist(self) -> None:
        """Drop the tuple tables' caches; the edge tables hold none."""
        for t in self.tuples.values():
            t.unpersist()
