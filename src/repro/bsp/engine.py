"""A Pregel-style vertex-centric BSP engine over Spark DataFrames (§2).

The engine provides the three BSP components: per-vertex local computation,
a message-delivery environment, and a barrier between supersteps.

- **Graph**: vertices ``(vid, label, data)`` and directed edges
  ``(src, dst, elabel)`` (an undirected TAG edge is two directed edges,
  footnote 3 of the paper).
- **Messages** live in a DataFrame ``(dst, payload)``; delivery groups them
  by destination (a Spark shuffle — the communication environment) and
  vertex programs run inside ``mapInPandas`` over the grouped frame, i.e.
  vertex computation executes data-parallel on the executors.
- **Barrier**: each superstep is one Spark action; the driver (Pregel's
  "master") collects the superstep's outputs, merges vertex-state updates,
  and parallelises the next message round. Vertices with no incoming
  messages stay inactive; the run halts when no messages were produced.
- **Aggregators**: a program may declare a global aggregator vertex; any
  vertex can message it by id (§2 "Aggregators").

Static graph metadata (labels, vertex data, adjacency) is broadcast to the
executors once at engine construction. This engine is the reproduction's
*fidelity* substrate: it executes vertex programs (e.g. Algorithm 2)
faithfully at test scale and meters exact message counts; the scalable
execution path is the dataflow form of the same supersteps in
``repro.core`` (see DESIGN.md).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StringType, StructField, StructType

#: Reserved vertex id for the global aggregator vertex.
AGGREGATOR_VID = -1

_MSG_SCHEMA = StructType(
    [StructField("dst", LongType()), StructField("payload", StringType())]
)
_OUT_SCHEMA = StructType(
    [
        StructField("kind", StringType()),  # 'msg' | 'state' | 'output'
        StructField("vid", LongType()),  # sender / state owner
        StructField("dst", LongType()),  # message destination (kind='msg')
        StructField("payload", StringType()),  # json
    ]
)


@dataclass
class Vertex:
    """The view of a vertex available to its program: strictly local data."""

    vid: int
    label: str
    data: dict[str, Any]
    out_edges: list[tuple[int, str]]  # (target vid, edge label)
    state: dict[str, Any]

    def targets(self, elabel: str) -> list[int]:
        return [dst for dst, lbl in self.out_edges if lbl == elabel]


@dataclass
class ComputeResult:
    messages: list[tuple[int, Any]] = field(default_factory=list)  # (dst, payload)
    outputs: list[Any] = field(default_factory=list)
    state: dict[str, Any] | None = None  # replacement state, if changed


class VertexProgram:
    """Base class for vertex programs. Subclasses must be picklable."""

    def initial_messages(self, graph: "BSPGraph") -> list[tuple[int, Any]]:
        """Messages that activate the first superstep's vertices."""
        raise NotImplementedError

    def before_superstep(self, superstep: int) -> dict | None:
        """Driver hook: per-superstep context (e.g. the current traversal
        label popped from the GenSteps stack). Returning ``None`` halts."""
        return {}

    def compute(
        self, ctx: dict, vertex: Vertex, messages: list[Any]
    ) -> ComputeResult:
        raise NotImplementedError


@dataclass
class BSPGraph:
    """Vertex/edge metadata, plus the DataFrames the engine computes over."""

    vmeta: dict[int, tuple[str, dict]]  # vid -> (label, data)
    adj: dict[int, list[tuple[int, str]]]  # vid -> [(dst, elabel)]

    @classmethod
    def from_frames(
        cls, vertices: Iterable[tuple[int, str, dict]], edges: Iterable[tuple[int, int, str]]
    ) -> "BSPGraph":
        vmeta = {vid: (label, data) for vid, label, data in vertices}
        adj: dict[int, list[tuple[int, str]]] = {}
        for src, dst, elabel in edges:
            adj.setdefault(src, []).append((dst, elabel))
        return cls(vmeta=vmeta, adj=adj)

    def vertices_with_label(self, label: str) -> list[int]:
        return [vid for vid, (lbl, _) in self.vmeta.items() if lbl == label]


@dataclass
class SuperstepTrace:
    superstep: int
    ctx: dict
    messages_delivered: int  # excluding 'wake' self-activations
    active_vertices: int


@dataclass
class BSPRun:
    outputs: list[Any]
    traces: list[SuperstepTrace]
    state: dict[int, dict]

    @property
    def total_messages(self) -> int:
        return sum(t.messages_delivered for t in self.traces)

    @property
    def supersteps(self) -> int:
        return len(self.traces)


def _is_wake(payload: Any) -> bool:
    return isinstance(payload, dict) and payload.get("__wake") is True


class BSPEngine:
    """Runs vertex programs over a :class:`BSPGraph` with Spark."""

    def __init__(self, spark: SparkSession, graph: BSPGraph):
        self.spark = spark
        self.graph = graph

    def run(self, program: VertexProgram, max_supersteps: int = 200) -> BSPRun:
        spark = self.spark
        graph = self.graph
        msgs = program.initial_messages(graph)
        state: dict[int, dict] = {}
        outputs: list[Any] = []
        traces: list[SuperstepTrace] = []

        for superstep in range(max_supersteps):
            if not msgs:
                break  # no active vertices → computation terminates
            ctx = program.before_superstep(superstep)
            if ctx is None:
                break

            msg_rows = [(int(dst), json.dumps(p)) for dst, p in msgs]
            delivered = sum(0 if _is_wake(p) else 1 for _, p in msgs)
            msg_df = spark.createDataFrame(msg_rows, schema=_MSG_SCHEMA)
            grouped = msg_df.groupBy("dst").agg(
                F.collect_list("payload").alias("payloads")
            )

            vmeta, adj = graph.vmeta, graph.adj  # captured in the closure

            def compute_partition(pdfs, _ctx=ctx, _state=state, _prog=program):
                for pdf in pdfs:
                    out: list[tuple] = []
                    for dst, payloads in zip(pdf["dst"], pdf["payloads"]):
                        vid = int(dst)
                        label, data = vmeta.get(vid, ("", {}))
                        vertex = Vertex(
                            vid=vid,
                            label=label,
                            data=data,
                            out_edges=adj.get(vid, []),
                            state=dict(_state.get(vid, {})),
                        )
                        incoming = [json.loads(p) for p in payloads]
                        res = _prog.compute(_ctx, vertex, incoming)
                        for mdst, payload in res.messages:
                            out.append(
                                ("msg", vid, int(mdst), json.dumps(payload))
                            )
                        for o in res.outputs:
                            out.append(("output", vid, None, json.dumps(o)))
                        if res.state is not None:
                            out.append(("state", vid, None, json.dumps(res.state)))
                    yield pd.DataFrame(
                        out, columns=["kind", "vid", "dst", "payload"]
                    )

            rows = grouped.mapInPandas(compute_partition, schema=_OUT_SCHEMA).collect()

            traces.append(
                SuperstepTrace(
                    superstep=superstep,
                    ctx=dict(ctx),
                    messages_delivered=delivered,
                    active_vertices=len({int(d) for d, _ in msgs}),
                )
            )

            msgs = []
            for r in rows:
                if r["kind"] == "msg":
                    msgs.append((int(r["dst"]), json.loads(r["payload"])))
                elif r["kind"] == "output":
                    outputs.append(json.loads(r["payload"]))
                elif r["kind"] == "state":
                    state[int(r["vid"])] = json.loads(r["payload"])

        return BSPRun(outputs=outputs, traces=traces, state=state)
