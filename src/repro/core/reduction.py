"""Reduction phase of TAG-join, executed as dataflow supersteps.

Per Lemma 5.1, driving Algorithm 2 with the GenSteps label list makes the
supersteps alternate between a duplicate-eliminating projection
(tuple→attribute step: the newly-activated attribute vertices *are* the
projected column) and a semijoin (attribute→tuple step: the activated tuple
vertices are exactly ``T ⋉ active``). GenSteps lists therefore have even
length, and each (projection, semijoin) pair of labels ``(R.A, T.B)``
computes one semijoin ``T ⋉_{B=A} π_A(R)``. This module runs each pair as
one Catalyst plan over the TAG edge tables, ending in one eager
``localCheckpoint`` barrier, for the bottom-up (UP) pass over the label list
and the top-down (DOWN) pass over its reverse.

Reduction is *eager* (as the paper notes its vertex program is, vs classical
Yannakakis): every semijoin intersects into a per-relation reduced tid set,
so later supersteps never resurrect tuples a previous superstep eliminated
(the vertex program achieves the same through edge markings).

Pushed-down selections (§7) seed the reduced tid sets: attribute vertices
failing a single-attribute predicate "deactivate themselves" before the
traversal begins.

When ``stats`` is on, the ledger still records two supersteps per pair,
with Algorithm 2's message counts. The projection sends one message per
label-edge of an active tuple vertex, ``|edges(R.A) ⋈ active_tuples|``; the
semijoin sends one message per label-edge of an active attribute vertex,
``|edges(T.B) ⋈ active_values|``. Both are counted on the left-semi frames
of the plan: an edge table has at most one row per tuple (NULLs get no
edge) and the active tid sets are duplicate-free, so ``e ⋉ active`` has
exactly as many rows as ``e ⋈ active``; on the value side ``⋉`` ignores
duplicate values, as distinct active attribute vertices would.

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
deliver it. The dataflow form of that is a broadcast message set: the
message side of each left-semi join (the active tid set, the projected
values, the prior reduced set) is hinted ``F.broadcast`` and shipped whole
to every partition of the edge table it probes, which stays where it is
cached. Each such side holds at most one row per tuple vertex of one
relation. The hint applies whatever the session's
``spark.sql.autoBroadcastJoinThreshold`` (the Spark SQL comparator keeps
broadcast off). The broadcast is unconditional: the size at which a shuffled
join would pay off again has not been measured, and no workload here comes
near one (ROADMAP item 3). Only the physical join strategy differs from a
shuffled plan; the plan, its observations and its barriers are the same.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame, Observation
from pyspark.sql import functions as F

from .plan import EdgeLabel, start_alias
from .spec import Node
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


def filtered_tids(graph: TAGGraph, node: Node) -> DataFrame | None:
    """Tid set surviving the node's pushed-down predicate, or None if the
    node has no predicate (meaning: all tuple vertices stay active)."""
    if node.filter is None:
        return None
    return graph.tuples[node.relation].where(node.filter).select(TID)


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
    """Run the UP+DOWN reduction passes; returns per-alias reduced tid sets.

    A ``None`` value means the relation was never touched by a semijoin and
    carries no filter (only possible for the start relation of a
    single-relation plan).
    """
    by_alias = {n.name: n for n in nodes}
    reduced: dict[str, DataFrame | None] = {
        n.name: filtered_tids(graph, n) for n in nodes
    }

    def tids(alias: str) -> DataFrame:
        r = reduced[alias]
        if r is None:
            r = graph.tuples[by_alias[alias].relation].select(TID)
            reduced[alias] = r
        return r

    def edge(alias: str, col: str) -> DataFrame:
        return graph.edge(by_alias[alias].relation, col)

    if not steps:  # single-relation query: no traversal needed
        return {a: tids(a) for a in reduced}

    active = tids(start_alias(steps))
    superstep = 0
    sizes: dict[str, int] = {}  # alias -> rows of its last barrier
    for phase, labels in (("up", steps), ("down", steps[::-1])):
        for (p_alias, p_col), (alias, col) in zip(labels[::2], labels[1::2]):
            counts = [] if stats is not None else None  # observed frames
            # Projection: the active `p_alias` tuple vertices message their
            # `p_col` attribute vertices (VAL carries π_{p_col}).
            vals = _counted(
                edge(p_alias, p_col).join(F.broadcast(active), TID,
                                          "left_semi"),
                counts,
            )
            # Semijoin: those attribute vertices message `alias`-tuples via
            # `alias.col` edges → alias ⋉ vals, intersected with the
            # accumulated reduction. In the DOWN pass messages only travel
            # via edges marked by the UP pass (Alg. 2 line 17), which is
            # exactly the restriction to the prior reduced set.
            # (VAL holds at most one value per `p_alias` tuple.)
            msgs = edge(alias, col).join(
                F.broadcast(vals.select(VAL)), VAL, "left_semi"
            )
            prior = reduced[alias]
            if prior is not None:
                prior = F.broadcast(prior)
            if phase == "down" and prior is not None:
                msgs = msgs.join(prior, TID, "left_semi")
            msgs = _counted(msgs.select(TID), counts)
            if phase == "up" and prior is not None:
                t = _counted(msgs.join(prior, TID, "left_semi"), counts)
            else:
                t = msgs
            # Pair barrier: one eager localCheckpoint materialises the new
            # reduced set and truncates lineage, so each pair is one plan
            # over the cached tuple tables rather than a re-execution of the
            # whole history. The projection needs no barrier of its own:
            # with the semijoin it forms one Lemma 5.1 semijoin. (A lazy
            # checkpoint still runs jobs under AQE, and costs more.) The
            # same action fills the pair's observed counts.
            active = reduced[alias] = t.localCheckpoint(eager=True)
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

    out = {a: tids(a) for a in reduced}
    if stats is not None:
        stats.reduced_sizes = {
            a: sizes[a] if a in sizes else df.count() for a, df in out.items()
        }
    return out
