"""Benchmark queries: one SQL text for every system, plus a TAG-join plan.

Each :class:`Query` carries SQL that runs verbatim on Spark SQL and DuckDB
(the comparison systems) and a TAG implementation over a
:class:`~repro.core.tag.TAGGraph`. Most queries derive their TAG spec from
that SQL and a named root (:meth:`Query.derived`, built on
:meth:`QuerySpec.from_sql`). The rest hand-write the plan their SQL does
not state: a channel union, an eager group-by.
Output columns are aliased identically on all paths so the DuckDB oracle
can diff them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from pyspark.sql import DataFrame

from .core.reduction import RunStats
from .core.spec import QuerySpec, sql_tables
from .core.tag import TAGGraph
from .core.tagjoin import run_spec

TagImpl = Callable[[TAGGraph, bool], tuple[DataFrame, RunStats]]


@dataclass
class Query:
    name: str
    sql: str
    agg_class: str  # 'none' | 'LA' | 'GA' | 'GA_S'
    paper_class: str  # the class the paper's tables group it under
    tag: TagImpl = field(repr=False)
    spec: Optional[QuerySpec] = field(default=None, repr=False)  # if derived
    tables: list[str] = field(init=False)  # the base tables ``sql`` reads

    def __post_init__(self) -> None:
        self.tables = sql_tables(self.sql)

    @classmethod
    def derived(
        cls,
        name: str,
        sql: str,
        root: str,
        prefixes: Mapping[str, str],
        agg_class: str,
        paper_class: str,
    ) -> "Query":
        """A query whose TAG spec is derived from ``sql``, rooted at ``root``.

        The declared ``agg_class`` relabels the derived spec (the SQL alone
        cannot tell a local group key from a global one); ``validate``
        checks that it agrees with the derived grouping.
        """
        spec = QuerySpec.from_sql(sql, root, prefixes, name=name)
        spec.agg_class = "scalar" if agg_class == "GA_S" else agg_class
        spec.validate()

        def tag(graph: TAGGraph, stats: bool = False):
            return run_spec(graph, spec, stats=stats)

        return cls(name, sql, agg_class, paper_class, tag=tag, spec=spec)

    def run_tag(self, graph: TAGGraph, stats: bool = False):
        return self.tag(graph, stats)

