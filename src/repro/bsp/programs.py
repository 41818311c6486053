"""Vertex programs for TAG graphs: two-way join (§4) and Algorithm 2 (§5.2).

These run on :class:`repro.bsp.engine.BSPEngine` and are the *fidelity*
implementations: real message passing, per-vertex marked-edge state, and the
driver-driven label stack of Algorithm 2. Scale-out execution of the same
supersteps happens in ``repro.core`` (see DESIGN.md).

Engine superstep semantics: messages produced in superstep *i* are delivered
and processed in superstep *i+1* (Pregel). Algorithm 2's per-superstep
behaviour therefore splits into a *receive* role (what the incoming messages
mean — determined by the label that produced them) and a *send* role (the
label popped for this superstep).
"""
from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Any

import pandas as pd

from .engine import BSPGraph, ComputeResult, Vertex, VertexProgram

Row = dict[str, Any]

WAKE = {"__wake": True}


def _json_safe(v: Any) -> Any:
    import numpy as np

    if isinstance(v, (_dt.date, _dt.datetime, pd.Timestamp)):
        return v.isoformat()
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float) and pd.isna(v):
        return None
    return v


def build_tag_bsp(
    relations: dict[str, pd.DataFrame],
    attributes: dict[str, list[str]] | None = None,
) -> BSPGraph:
    """TAG-encode pandas relations as a BSP graph (§3).

    Tuple vertices carry the tuple as ``data``; attribute vertices are
    shared per (type, value) across all relations and attributes; every
    occurrence contributes two directed edges labelled ``R.A``.
    """
    vertices: list[tuple[int, str, dict]] = []
    edges: list[tuple[int, int, str]] = []
    attr_vid: dict[tuple[str, Any], int] = {}
    next_vid = 0

    def get_attr_vertex(value: Any) -> int:
        nonlocal next_vid
        # Canonicalise first: pandas yields np.int64 from homogeneous frames
        # but python int from mixed-dtype frames — same domain value, and
        # the TAG model shares one vertex per value (§3 step 2).
        value = _json_safe(value)
        key = (type(value).__name__, value)
        if key not in attr_vid:
            attr_vid[key] = next_vid
            vertices.append((next_vid, "__attr", {"value": _json_safe(value)}))
            next_vid += 1
        return attr_vid[key]

    for rel, pdf in relations.items():
        cols = (attributes or {}).get(rel) or list(pdf.columns)
        for _, row in pdf.iterrows():
            tvid = next_vid
            next_vid += 1
            data = {c: _json_safe(row[c]) for c in pdf.columns}
            vertices.append((tvid, rel, data))
            for c in cols:
                if pd.isna(row[c]):
                    continue
                avid = get_attr_vertex(row[c])
                elabel = f"{rel}.{c}"
                edges.append((tvid, avid, elabel))
                edges.append((avid, tvid, elabel))
    return BSPGraph.from_frames(vertices, edges)


def natural_join_rows(left: list[Row], right: list[Row]) -> list[Row]:
    """Natural join of two row lists: rows combine when they agree on all
    shared keys (nested loop — the per-vertex tables are tiny)."""
    if not left or not right:
        return []
    shared = set(left[0].keys()) & set(right[0].keys())
    out = []
    for l_ in left:
        for r in right:
            if all(l_[k] == r[k] for k in shared):
                out.append({**l_, **r})
    return out


# ---------------------------------------------------------------------------
# §4.1: two-way join on a single attribute
# ---------------------------------------------------------------------------


@dataclass
class TwoWayJoinProgram(VertexProgram):
    """R ⋈ S on one attribute, 3 supersteps (Fig. 2).

    1. attribute vertices that see both an ``R.B`` and an ``S.B`` edge
       message the incident tuple vertices (reduction);
    2. tuple vertices reply with their data via the marked edges;
    3. the attribute vertex combines the two sides (Cartesian product of the
       factorized representation) and outputs the join tuples.
    """

    r_label: str
    s_label: str
    r_edge: str  # e.g. "R.b"
    s_edge: str

    phases = ("check", "reply", "combine")

    def initial_messages(self, graph: BSPGraph):
        out = []
        for vid, (label, _) in graph.vmeta.items():
            if label != "__attr":
                continue
            if any(lbl in (self.r_edge, self.s_edge) for _, lbl in graph.adj.get(vid, [])):
                out.append((vid, WAKE))
        return out

    def before_superstep(self, superstep: int):
        if superstep < len(self.phases):
            return {"phase": self.phases[superstep]}
        return None

    def compute(self, ctx, vertex: Vertex, messages):
        res = ComputeResult()
        phase = ctx["phase"]
        if phase == "check":
            r_targets = vertex.targets(self.r_edge)
            s_targets = vertex.targets(self.s_edge)
            if r_targets and s_targets:  # this value joins both sides
                for t in r_targets + s_targets:
                    res.messages.append((t, {"src": vertex.vid}))
        elif phase == "reply":
            for m in messages:
                res.messages.append(
                    (m["src"], {"rel": vertex.label, "row": vertex.data})
                )
        elif phase == "combine":
            r_rows = [m["row"] for m in messages if m["rel"] == self.r_label]
            s_rows = [m["row"] for m in messages if m["rel"] == self.s_label]
            res.outputs = natural_join_rows(r_rows, s_rows)
        return res


# ---------------------------------------------------------------------------
# §4.2: two-way join on two attributes (coordinated intersection)
# ---------------------------------------------------------------------------


@dataclass
class TwoWayMultiAttrProgram(TwoWayJoinProgram):
    """R ⋈ S on attributes (B, A): B-attribute vertices coordinate.

    Tuple vertices send their secondary A values to the B vertex, which
    intersects the two sides and resumes computation only for survivors
    (Example 4.1); then the standard collection runs. The check, reply and
    combine phases are the single-attribute join's.
    """

    secondary: str  # the second join attribute's column name

    phases = ("check", "reply-secondary", "intersect", "reply", "combine")

    def compute(self, ctx, vertex: Vertex, messages):
        phase = ctx["phase"]
        if phase not in ("reply-secondary", "intersect"):
            return super().compute(ctx, vertex, messages)
        res = ComputeResult()
        if phase == "reply-secondary":
            for m in messages:
                res.messages.append(
                    (
                        m["src"],
                        {
                            "rel": vertex.label,
                            "sec": _json_safe(vertex.data[self.secondary]),
                            "src": vertex.vid,
                        },
                    )
                )
        else:  # intersect
            r_side = [m for m in messages if m["rel"] == self.r_label]
            s_side = [m for m in messages if m["rel"] == self.s_label]
            common = {m["sec"] for m in r_side} & {m["sec"] for m in s_side}
            for m in r_side + s_side:
                if m["sec"] in common:
                    res.messages.append((m["src"], {"src": vertex.vid}))
        return res


# ---------------------------------------------------------------------------
# §5.2: Algorithm 2 — acyclic multi-way join driven by a GenSteps label list
# ---------------------------------------------------------------------------


class Algorithm2Program(VertexProgram):
    """The full vertex program of Algorithm 2.

    ``steps`` is the GenSteps pop-order list of ``"REL.col"`` labels. The
    driver schedule is: UP over ``steps``, DOWN over ``reversed(steps)``
    (sending restricted to edges marked during UP, line 17), then collection
    over ``steps`` again (sending restricted to edges that carried DOWN
    traffic, i.e. the fully-reduced subgraph). Superstep *i* processes the
    receipts of schedule entry *i−1* and sends per entry *i*; the final
    superstep outputs the values at the plan root (line 42).
    """

    def __init__(self, steps: list[str], start_label: str):
        self.start_label = start_label
        ups = [("up", s) for s in steps]
        downs = [("down", s) for s in reversed(steps)]
        collects = [("collect", s) for s in steps]
        self.schedule = ups + downs + collects

    def initial_messages(self, graph: BSPGraph):
        return [
            (vid, WAKE) for vid in graph.vertices_with_label(self.start_label)
        ]

    def before_superstep(self, superstep: int):
        if superstep > len(self.schedule):
            return None
        recv = self.schedule[superstep - 1] if superstep > 0 else ("init", None)
        send = (
            self.schedule[superstep]
            if superstep < len(self.schedule)
            else ("output", None)
        )
        return {"recv": recv, "send": send}

    def compute(self, ctx, vertex: Vertex, messages):
        res = ComputeResult()
        state = vertex.state
        recv_phase, recv_label = ctx["recv"]
        send_phase, send_label = ctx["send"]

        tables: list[Row] = []
        if recv_phase == "up":
            marked = set(state.get("marked_up", []))
            marked |= {m["src"] for m in messages if "src" in m}
            state["marked_up"] = sorted(marked)
        elif recv_phase == "down":
            down_in = state.get("down_in", {})
            prev = set(down_in.get(recv_label, []))
            prev |= {m["src"] for m in messages if "src" in m}
            down_in[recv_label] = sorted(prev)
            state["down_in"] = down_in
        elif recv_phase == "collect":
            for m in messages:
                tables.extend(m.get("table", []))

        if send_phase == "up":
            for t in vertex.targets(send_label):
                res.messages.append((t, {"src": vertex.vid}))
        elif send_phase == "down":
            marked = set(state.get("marked_up", []))
            for t in vertex.targets(send_label):
                if t in marked:
                    res.messages.append((t, {"src": vertex.vid}))
        elif send_phase in ("collect", "output"):
            # Compute this vertex's value (Alg. 2 lines 30-36): the union of
            # incoming tables, joined with the vertex's own tuple if it is a
            # tuple vertex. Routing through the shared attribute vertex
            # enforces the join equality; shared column names additionally
            # act as a consistency filter.
            if vertex.label == "__attr":
                value = tables
            elif tables:
                value = natural_join_rows(tables, [vertex.data])
            else:  # first collection superstep: start-relation tuples
                value = [dict(vertex.data)]
            if send_phase == "output":
                res.outputs = value
            else:
                allowed = set(state.get("down_in", {}).get(send_label, []))
                for t in vertex.targets(send_label):
                    if t in allowed and value:
                        res.messages.append(
                            (t, {"src": vertex.vid, "table": value})
                        )
        res.state = state
        return res
