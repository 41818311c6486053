"""Reduction phase of TAG-join, executed as dataflow supersteps.

Per Lemma 5.1, driving Algorithm 2 with the GenSteps label list makes the
supersteps alternate between a duplicate-eliminating projection
(tuple→attribute step: the newly-activated attribute vertices *are* the
projected column) and a semijoin (attribute→tuple step: the activated tuple
vertices are exactly ``T ⋉ active``). GenSteps lists therefore have even
length, and each (projection, semijoin) pair of labels ``(R.A, T.B)``
computes one semijoin ``T ⋉_{B=A} π_A(R)``. This module runs each pair as
one Catalyst plan over the cached tuple tables, ending in one eager
``localCheckpoint`` barrier, for the bottom-up (UP) pass over the label list
and the top-down (DOWN) pass over its reverse.

State: a tuple vertex's state is its tuple (§3), so the state of each alias
is a *reduced relation*: ``__tid`` and the columns the query still reads of
the surviving tuples (§7 'Projections'), which are ``_needed_columns``: the
alias's ``need`` and its join columns. Its labels in the GenSteps list are
among those join columns, so a pair projects the values it sends from the
active barrier's own rows, and collection reads the reduced relations as
they are; no step joins a tid set back to its tuple table.

Reduction is *eager* (as the paper notes its vertex program is, vs classical
Yannakakis): every semijoin intersects into the alias's reduced relation,
so later supersteps never resurrect tuples a previous superstep eliminated
(the vertex program achieves the same through edge markings). An UP
semijoin reaches every edge of its label, so it scans the tuple table and
then intersects: with the pushed filter while that is all the alias's
state, or with the prior barrier's tids on an UP revisit. A DOWN semijoin
travels only over edges the UP pass marked, which is the prior reduced
relation itself, so it runs over it.

Pushed-down selections (§7) seed the reduced relations: attribute vertices
failing a single-attribute predicate "deactivate themselves" before the
traversal begins.

When ``stats`` is on, the ledger still records two supersteps per pair,
with Algorithm 2's message counts. The projection sends one message per
label-edge of an active tuple vertex: the active rows whose ``R.A`` is not
NULL (NULLs get no edge). The semijoin sends one message per label-edge of
an active attribute vertex, ``|T ⋉_{B=A} active_values|``: a tuple has at
most one ``T.B`` edge, a NULL matches no value, and ``⋉`` ignores duplicate
values, as distinct active attribute vertices would.

As in Algorithm 2, where the engine counts messages while sending them, the
counts come from the superstep itself: each counted frame carries a
``DataFrame.observe`` row count, and the pair's eager barrier fills them all
in the same action, so metering runs no Spark job of its own. The observed
frames are ``vals`` (the projection), ``msgs`` before any UP intersection
(the semijoin) and, where the UP pass intersects, the barrier frame itself
(the alias's reduced size; otherwise that is the semijoin's count).
``reduced_sizes`` come from each alias's last barrier. Only when AQE prunes
an observed subtree at run time (an empty join input) does a frame get
counted again, exactly: a pruned frame's count is not necessarily 0.

Exchanges: in Algorithm 2 an attribute vertex's message goes straight to
the tuple vertices on its edges; nothing repartitions the edge index to
deliver it. The dataflow form of that is a broadcast message set: a pair's
projected values are hinted ``F.broadcast`` and shipped whole to every
partition of the relation they probe, which stays where it is cached. An UP
revisit broadcasts the prior barrier's tids as well. Each such set holds at
most one row per tuple vertex of one relation, so a pair runs two Spark
jobs, the broadcast and the barrier (three on an UP revisit). The hint
applies whatever the session's ``spark.sql.autoBroadcastJoinThreshold``
(the Spark SQL comparator keeps broadcast off). The broadcast is
unconditional: the size at which a shuffled join would pay off again has
not been measured, and no workload here comes near one (ROADMAP item 3).
Only the physical join strategy differs from a shuffled plan; the plan, its
observations and its barriers are the same.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame, Observation
from pyspark.sql import functions as F

from .plan import EdgeLabel, start_alias
from .spec import Node, _needed_columns
from .tag import TID, VAL, TAGGraph


@dataclass
class StepTrace:
    """One superstep of the vertex program."""

    phase: str  # 'up' | 'down' | 'collect'
    superstep: int
    label: str
    kind: str  # 'project' | 'semijoin' | 'join'
    messages: int | None  # None when stats are off


@dataclass
class RunStats:
    """Communication/computation accounting for one TAG-join run."""

    traces: list[StepTrace] = field(default_factory=list)
    reduced_sizes: dict[str, int] = field(default_factory=dict)

    @property
    def supersteps(self) -> int:
        return len(self.traces)

    def merge(self, other: "RunStats", name: str) -> None:
        """Add the ledger of another TAG run, of spec ``name``, that is part
        of the same plan. A node name this ledger already holds keeps both
        sizes: the merged run's is keyed ``<name>/<node>``."""
        self.traces.extend(other.traces)
        for node, size in other.reduced_sizes.items():
            key = f"{name}/{node}" if node in self.reduced_sizes else node
            self.reduced_sizes[key] = size

    def total_messages(self, phase: str | None = None) -> int:
        return sum(
            t.messages or 0
            for t in self.traces
            if phase is None or t.phase == phase
        )


def _counted(
    df: DataFrame, counts: list[tuple[Observation, DataFrame]] | None
) -> DataFrame:
    """``df`` with a row count observed by its action, recorded in ``counts``
    as ``(Observation, df)``; ``df`` unchanged when ``counts`` is None."""
    if counts is None:
        return df
    obs = Observation()
    counts.append((obs, df))
    return df.observe(obs, F.count(F.lit(1)))


def _observed_count(obs: Observation, df: DataFrame) -> int:
    """The row count ``obs`` saw, once the action over it has run.

    When AQE prunes the observed subtree (an empty join input found at run
    time), the observation is completed with an empty row, which
    ``Observation.get`` cannot convert, so the JVM row is read directly.
    ``df`` (the frame without the observation) is then counted exactly: its
    count need not be 0."""
    row = obs._jo.getRow()
    return row.getLong(0) if row.length() else df.count()


def reduce_phase(
    graph: TAGGraph,
    nodes: list[Node],
    steps: list[EdgeLabel],
    stats: RunStats | None = None,
) -> dict[str, DataFrame]:
    """Run the UP+DOWN reduction passes; returns per-alias reduced relations.

    An alias's reduced relation holds ``__tid`` and its
    ``_needed_columns``, one row per surviving tuple. With an empty label
    list (a single-relation plan) no pair runs and no superstep is
    recorded: the one alias's reduced relation is its tuple table, under
    its pushed filter if it has one. Otherwise every alias is the semijoin
    target of a pair in one of the two passes, so each ends at a barrier.
    """
    by_alias = {n.name: n for n in nodes}

    def scan(alias: str) -> DataFrame:
        return graph.tuples[by_alias[alias].relation]

    reduced: dict[str, DataFrame] = {
        a: scan(a).where(n.filter) if n.filter else scan(a)
        for a, n in by_alias.items()
    }
    if not steps:  # single-relation plan: no traversal needed
        return reduced

    barriers: set[str] = set()  # aliases with a pair barrier
    active = reduced[start_alias(steps)]
    superstep = 0
    sizes: dict[str, int] = {}  # alias -> rows of its last barrier
    for phase, labels in (("up", steps), ("down", steps[::-1])):
        for (p_alias, p_col), (alias, col) in zip(labels[::2], labels[1::2]):
            counts = [] if stats is not None else None  # observed frames
            # Projection: the active `p_alias` tuple vertices message their
            # `p_col` attribute vertices from their own state (VAL carries
            # π_{p_col}; a NULL is no edge, so no message).
            vals = _counted(
                active.where(F.col(p_col).isNotNull())
                .select(F.col(p_col).alias(VAL)),
                counts,
            )
            # Semijoin: those attribute vertices message `alias`-tuples via
            # `alias.col` edges → alias ⋉ vals, intersected with the
            # accumulated reduction. UP messages reach every edge, so UP
            # scans the tuple table and then intersects. In the DOWN pass
            # messages only travel via edges marked by the UP pass (Alg. 2
            # line 17), which is exactly the restriction to the prior
            # reduced relation, so DOWN runs over it directly.
            # (VAL holds at most one value per `p_alias` tuple.)
            prior = reduced[alias]
            base = scan(alias) if phase == "up" else prior
            msgs = _counted(
                base.join(F.broadcast(vals),
                          F.col(col) == F.col(VAL), "left_semi"),
                counts,
            )
            pushed = by_alias[alias].filter
            if phase == "up" and alias in barriers:  # an UP revisit
                t = _counted(msgs.join(F.broadcast(prior.select(TID)), TID,
                                       "left_semi"), counts)
            elif phase == "up" and pushed:
                t = _counted(msgs.where(pushed), counts)
            else:
                t = msgs
            # Pair barrier: one eager localCheckpoint materialises the new
            # reduced relation and truncates lineage, so each pair is one
            # plan over the cached tuple tables rather than a re-execution
            # of the whole history. The projection needs no barrier of its
            # own: with the semijoin it forms one Lemma 5.1 semijoin. (A
            # lazy checkpoint still runs jobs under AQE, and costs more.)
            # The same action fills the pair's observed counts.
            active = reduced[alias] = (
                t.select(TID, *_needed_columns(by_alias[alias]))
                .localCheckpoint(eager=True)
            )
            barriers.add(alias)
            if stats is not None:
                n_vals, n_msgs, *n_t = (
                    _observed_count(obs, df) for obs, df in counts
                )
                sizes[alias] = n_t[0] if n_t else n_msgs
                stats.traces += [
                    StepTrace(phase, superstep + 1, f"{p_alias}.{p_col}",
                              "project", n_vals),
                    StepTrace(phase, superstep + 2, f"{alias}.{col}",
                              "semijoin", n_msgs),
                ]
            superstep += 2

    if stats is not None:
        stats.reduced_sizes = {a: sizes[a] for a in reduced}
    return reduced
